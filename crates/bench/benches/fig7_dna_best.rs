//! Figure 7: best sequential scan vs. best index-based solution on the
//! DNA dataset, at each solution's best thread count.

use simsearch_bench::experiments::{DNA_IDX_BEST_THREADS, DNA_SEQ_BEST_THREADS};
use simsearch_bench::Scale;
use simsearch_core::{EngineKind, IdxVariant, Probe, SearchEngine, SeqVariant, ShardBy};
use simsearch_testkit::bench::Harness;

fn main() {
    let h = Harness::new();
    let preset = Scale::bench().dna();
    let workload = preset.workload.prefix(h.queries(30));
    let best_scan = SearchEngine::build(
        &preset.dataset,
        EngineKind::Scan(SeqVariant::V6Pool {
            threads: DNA_SEQ_BEST_THREADS,
        }),
    );
    let best_index = SearchEngine::build(
        &preset.dataset,
        EngineKind::Index(IdxVariant::I3Pool {
            threads: DNA_IDX_BEST_THREADS,
        }),
    );
    let best_index_modern = SearchEngine::build(
        &preset.dataset,
        EngineKind::IndexModern(IdxVariant::I3Pool {
            threads: DNA_IDX_BEST_THREADS,
        }),
    );
    // The V8 bit-parallel sweep (single-threaded kernel; the chunked
    // executor path is ablated separately), for the scan-extension row.
    let best_scan_v8 = SearchEngine::build(
        &preset.dataset,
        EngineKind::Scan(SeqVariant::V8BitParallel),
    );
    // The adaptive planner, calibrated on this very workload (probe cost
    // is build cost, mirroring index construction) and given the same
    // thread budget as the best fixed competitor.
    let auto = SearchEngine::build_with(
        &preset.dataset,
        EngineKind::Auto {
            threads: DNA_IDX_BEST_THREADS,
        },
        Probe::Workload(&workload),
    );
    // The same calibrated planning, but per length-partitioned shard,
    // each planner calibrated on the same workload. DNA shards coarser
    // than city (2-way, not 4-way): reads span only 89..112 bytes while
    // k reaches 16, so the |q| ± k window covers every length band and
    // the shard-level prune never fires — and the index arms' per-probe
    // cost (tree-top descent, q-gram extraction) does not shrink with
    // shard size, so each extra shard is a fixed per-query tax.
    let sharded_auto = SearchEngine::build_with(
        &preset.dataset,
        EngineKind::Sharded {
            shards: 2,
            by: ShardBy::Len,
            threads: DNA_IDX_BEST_THREADS,
            arm: None,
        },
        Probe::Workload(&workload),
    );
    let mut group = h.group("fig7_dna_best");
    group.set_workload("dna", preset.dataset.len(), workload.len(), "0, 4, 8, 16");
    group.bench("best_scan", || best_scan.run(&workload));
    group.bench("best_index_paper", || best_index.run(&workload));
    group.bench("best_index_modern", || best_index_modern.run(&workload));
    group.bench("best_scan_v8", || best_scan_v8.run(&workload));
    group.bench("auto", || auto.run(&workload));
    group.bench("sharded_auto", || sharded_auto.run(&workload));
    if let Some(counts) = auto.plan_counts() {
        group.set_plan_decisions(&counts);
    }
    group.finish();
    // The canonical snapshot lives at the repo root (ci.sh checks it in).
    h.publish_snapshot("fig7_dna_best");
}
