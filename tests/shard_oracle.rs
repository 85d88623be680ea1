//! The shard-equivalence oracle: sharding is a pure *layout* decision,
//! never a correctness one.
//!
//! On generated city and DNA datasets, a [`ShardedBackend`] — for every
//! shard count S ∈ {1, 2, 3, 8}, both partitioners, statically planned
//! and per-shard calibrated — returns byte-identical match sets to the
//! V1 oracle scan over 1,000-query workloads, under every executor ×
//! thread count {1, 4, 8}. Sharded top-k deepening likewise returns the
//! same k results in the same tie-break order as an unsharded backend,
//! including k larger than any single shard can answer alone. And the
//! accounting holds: every shard sees every query, and each shard's
//! per-arm decision counters sum to exactly the workload size.

use simsearch_core::{
    search_top_k_with, Backend, EngineKind, Probe, SearchEngine, SeqVariant, ShardBy,
    ShardedBackend, Strategy,
};
use simsearch_data::{Alphabet, Dataset, CityGenerator, DnaGenerator, MatchSet, WorkloadSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const PARTITIONERS: [ShardBy; 2] = [ShardBy::Len, ShardBy::Hash];

fn presets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("city", CityGenerator::new(0xC17E_7E57).generate(400)),
        (
            "dna",
            DnaGenerator::new(0xD7A_7E57).genome_len(4_000).generate(250),
        ),
    ]
}

fn workload_for(dataset: &Dataset) -> simsearch_data::Workload {
    let alphabet = Alphabet::from_corpus(dataset.records());
    let workload =
        WorkloadSpec::new(&[1, 2, 3], 1_000, 0x0A07_0B0E).generate(dataset, &alphabet);
    assert_eq!(workload.len(), 1_000);
    workload
}

fn all_strategies() -> Vec<Strategy> {
    let mut strategies = vec![Strategy::Sequential, Strategy::ThreadPerQuery];
    for threads in [1, 4, 8] {
        strategies.push(Strategy::FixedPool { threads });
        strategies.push(Strategy::WorkQueue { threads });
        strategies.push(Strategy::Adaptive { max_threads: threads });
    }
    strategies
}

#[test]
fn sharded_matches_the_v1_oracle_for_every_configuration() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
        let baseline = oracle.run(&workload);
        for shards in SHARD_COUNTS {
            for by in PARTITIONERS {
                // threads = 4 exercises the shard-level fan-out path for
                // S ≥ 4 and the sequential path below it.
                let backend = ShardedBackend::with_probe(&dataset, shards, by, 4, Probe::Static);
                backend.prepare();
                for strategy in all_strategies() {
                    assert_eq!(
                        backend.run_with_strategy(&workload, strategy),
                        baseline,
                        "{name}/S={shards}/{} under {}",
                        by.name(),
                        strategy.name()
                    );
                }
            }
        }
    }
}

#[test]
fn calibrated_sharded_matches_the_v1_oracle() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
        let baseline = oracle.run(&workload);
        for by in PARTITIONERS {
            let backend = ShardedBackend::with_probe(&dataset, 3, by, 1, Probe::Default);
            backend.prepare();
            for strategy in [
                Strategy::Sequential,
                Strategy::FixedPool { threads: 4 },
                Strategy::WorkQueue { threads: 8 },
            ] {
                assert_eq!(
                    backend.run_with_strategy(&workload, strategy),
                    baseline,
                    "{name}/calibrated/{} under {}",
                    by.name(),
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn per_shard_decision_counters_sum_to_the_workload() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let shards = 3usize;
        let backend = ShardedBackend::with_probe(&dataset, shards, ShardBy::Len, 1, Probe::Static);
        let results = backend.run_workload(&workload);
        let expected_matches: u64 = results.iter().map(|m| m.len() as u64).sum();
        let stats = backend.shard_stats().expect("sharded backends report shard stats");
        assert_eq!(stats.len(), shards);
        for (i, s) in stats.iter().enumerate() {
            // Every query fans out to every shard...
            assert_eq!(s.queries, workload.len() as u64, "{name}/s{i} query count");
            // ...and each shard's per-arm routing counters account for
            // every one of those queries exactly once.
            let routed: u64 = s
                .plan_counts
                .as_ref()
                .expect("auto-planned shards expose decision counters")
                .iter()
                .map(|(_, c)| c)
                .sum();
            assert_eq!(routed, workload.len() as u64, "{name}/s{i} decisions");
        }
        // Shard match counters are disjoint tallies of the global total.
        let matches: u64 = stats.iter().map(|s| s.matches).sum();
        assert_eq!(matches, expected_matches, "{name}: per-shard match totals");
        // The aggregate view sums shard counters arm-by-arm.
        let aggregate: u64 = backend
            .plan_counts()
            .expect("sharded backends aggregate plan counters")
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(aggregate, (shards * workload.len()) as u64, "{name}: aggregate");
    }
}

#[test]
fn sharded_topk_matches_unsharded_for_every_k() {
    for (name, dataset) in presets() {
        let unsharded = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V4Flat));
        let unsharded = unsharded.backend();
        let workload = workload_for(&dataset);
        for shards in [3usize, 8] {
            for by in PARTITIONERS {
                let backend = ShardedBackend::with_probe(&dataset, shards, by, 1, Probe::Static);
                backend.prepare();
                for q in workload.queries.iter().take(40) {
                    for k in [1usize, 10, 100] {
                        // max_radius 16 makes k = 100 exceed what any
                        // single shard of the S = 8 split can contribute
                        // (≤ 50 records per shard) while the global
                        // answer still fills up — the cross-shard
                        // deepening must agree anyway.
                        let (want, _) =
                            search_top_k_with(|r| unsharded.search_counting(&q.text, r), k, 16);
                        let (got, _) =
                            search_top_k_with(|r| backend.search_counting(&q.text, r), k, 16);
                        assert_eq!(
                            got,
                            want,
                            "{name}/S={shards}/{} topk k={k} q={:?}",
                            by.name(),
                            String::from_utf8_lossy(&q.text)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn topk_k_exceeding_single_shard_capacity_is_exercised() {
    // Guard for the test above: with S = 8 over 400/250 records, at
    // least one query's global top-100 must draw from more rows than any
    // single shard holds matches for — otherwise the "k larger than a
    // shard" claim is vacuous.
    let (_, dataset) = presets().remove(0);
    let workload = workload_for(&dataset);
    let backend = ShardedBackend::with_probe(&dataset, 8, ShardBy::Len, 1, Probe::Static);
    let per_shard_cap = dataset.len().div_ceil(8);
    let mut exercised = false;
    for q in workload.queries.iter().take(40) {
        let (got, _) = search_top_k_with(|r| backend.search_counting(&q.text, r), 100, 16);
        if got.len() > per_shard_cap {
            exercised = true;
            break;
        }
    }
    assert!(
        exercised,
        "no sampled query produced more than {per_shard_cap} top-k results"
    );
}

#[test]
fn empty_and_oversharded_datasets_answer_like_the_oracle() {
    // S > |X|: five records, eight shards — some shards are empty and
    // the fan-out must still union correctly.
    let dataset = Dataset::from_records(["Berlin", "Bern", "", "Ulm", "Bonn"]);
    let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
    let oracle = oracle.backend();
    for by in PARTITIONERS {
        let backend = ShardedBackend::with_probe(&dataset, 8, by, 2, Probe::Static);
        for q in ["Bern", "", "Urm"] {
            for k in 0..4 {
                assert_eq!(
                    backend.search(q.as_bytes(), k),
                    oracle.search(q.as_bytes(), k),
                    "{} q={q} k={k}",
                    by.name()
                );
            }
        }
    }
    // The degenerate empty dataset: every shard empty, every answer empty.
    let empty = Dataset::from_records(Vec::<&[u8]>::new());
    let backend = ShardedBackend::with_probe(&empty, 3, ShardBy::Hash, 1, Probe::Static);
    assert_eq!(backend.search(b"anything", 3), MatchSet::default());
}
