//! The V8 oracle gate: the bit-parallel sweep is byte-identical to the
//! V1 brute-force scan everywhere it can be reached.
//!
//! Three layers:
//!
//! 1. **Engine level** — the `scan[V8]` engine returns the V1 oracle's
//!    match sets over 1,000-query city and DNA workloads, under every
//!    executor × thread count {1, 4, 8}.
//! 2. **Planner level** — the static *and* calibrated auto planners,
//!    whose candidate set now includes the bit-parallel arm, stay
//!    byte-identical to the oracle (routing to V8 is a pure
//!    performance decision), and the `scan-bitparallel` arm appears in
//!    their decision counters.
//! 3. **Shard level** — every shard pinned to the bit-parallel arm
//!    (the §11 per-shard planners' V8 case) agrees with the oracle
//!    under both partitioners.

use simsearch_core::{
    AutoBackend, Backend, BackendChoice, EngineKind, Probe, SearchEngine, SeqVariant, ShardBy,
    ShardedBackend, Strategy,
};
use simsearch_data::{Alphabet, CityGenerator, Dataset, DnaGenerator, WorkloadSpec};

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
fn v8_matches_the_v1_oracle_under_every_executor() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
        let baseline = oracle.run(&workload);
        let v8 = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V8BitParallel));
        assert_eq!(v8.run(&workload), baseline, "{name} V8 default scheduling");
        for strategy in all_strategies() {
            assert_eq!(
                v8.run_with_strategy(&workload, strategy),
                baseline,
                "{name} V8 under {}",
                strategy.name()
            );
        }
    }
}

#[test]
fn planners_with_the_bitparallel_arm_match_the_v1_oracle() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
        let baseline = oracle.run(&workload);
        assert!(
            AutoBackend::DEFAULT_CANDIDATES.contains(&BackendChoice::ScanBitParallel),
            "the planner's candidate set includes the V8 arm"
        );
        let auto = EngineKind::Auto { threads: 1 };
        let static_auto = SearchEngine::build_with(&dataset, auto, Probe::Static);
        let calibrated =
            SearchEngine::build_with(&dataset, auto, Probe::Workload(&workload.prefix(16)));
        for (label, engine) in [("static", &static_auto), ("calibrated", &calibrated)] {
            for strategy in all_strategies() {
                assert_eq!(
                    engine.run_with_strategy(&workload, strategy),
                    baseline,
                    "{name}/{label} auto under {}",
                    strategy.name()
                );
            }
            let counts = engine.plan_counts().expect("auto engines expose counters");
            assert!(
                counts.iter().any(|(arm, _)| *arm == "scan-bitparallel"),
                "{name}/{label}: the bit-parallel arm is a counted candidate ({counts:?})"
            );
        }
    }
}

#[test]
fn shards_pinned_to_the_bitparallel_arm_match_the_v1_oracle() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
        let baseline = oracle.run(&workload);
        for by in [ShardBy::Len, ShardBy::Hash] {
            let sharded = ShardedBackend::with_fixed_arm(
                &dataset,
                3,
                by,
                2,
                BackendChoice::ScanBitParallel,
            );
            sharded.prepare();
            assert_eq!(
                sharded.run_workload(&workload),
                baseline,
                "{name} sharded V8 arm, --shard-by {}",
                by.name()
            );
        }
    }
}
