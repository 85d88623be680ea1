//! Ablation: executor strategies under a skewed workload — the paper's
//! fixed static partition vs the dynamic work queue vs the adaptive
//! master/slave pool. The DNA threshold cycle (0/4/8/16) makes query
//! costs vary by orders of magnitude, which is exactly the imbalance the
//! paper's §3.6 worries about. Every strategy runs the same rung-4 flat
//! scan; only the scheduling differs.

use simsearch_bench::Scale;
use simsearch_core::{EngineKind, SearchEngine, SeqVariant, Strategy};
use simsearch_testkit::bench::Harness;

fn main() {
    let h = Harness::new();
    let preset = Scale::bench().dna();
    let workload = preset.workload.prefix(h.queries(24));
    let strategies = [
        Strategy::Sequential,
        Strategy::ThreadPerQuery,
        Strategy::FixedPool { threads: 4 },
        Strategy::WorkQueue { threads: 4 },
        Strategy::Adaptive { max_threads: 4 },
    ];
    let engine = SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V4Flat));
    let group_name = "ablation_executors_dna";
    let mut group = h.group(group_name);
    group.set_workload("dna", preset.dataset.len(), workload.len(), "0, 4, 8, 16");
    for strategy in strategies {
        group.bench(&strategy.name(), || {
            engine.run_with_strategy(&workload, strategy)
        });
    }
    group.finish();
    h.publish_snapshot(group_name);
}
