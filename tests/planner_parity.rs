//! The planner-parity oracle: `--backend auto` is a pure *performance*
//! decision, never a correctness one.
//!
//! Three layers:
//!
//! 1. **Workload level** — on generated city and DNA datasets, the
//!    planner-driven auto engine (static *and* calibrated) returns
//!    byte-identical match sets to the V1 oracle scan over 1,000-query
//!    workloads, under every executor × thread count {1, 4, 8}.
//! 2. **Accounting level** — the per-backend `plan_decisions` counters
//!    sum to exactly the number of routed queries.
//! 3. **Property level** — the [`Planner`]'s decision table is a pure
//!    function of its [`StatsSnapshot`]: two planners built from equal
//!    snapshots decide identically for every query class, so `explain`
//!    output and static routing are reproducible run-to-run.

use simsearch_core::{
    search_top_k, search_top_k_with, AutoBackend, Backend, EngineKind, Planner, Probe,
    SearchEngine, SeqVariant, Strategy,
};
use simsearch_data::{Alphabet, CityGenerator, Dataset, DnaGenerator, StatsSnapshot, WorkloadSpec};
use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config, Gen};

const SEED: u64 = 0x0004_0706;

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
fn auto_matches_the_v1_oracle_under_every_executor() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
        let baseline = oracle.run(&workload);
        // Static planning and probe-calibrated planning may route the
        // same query differently; both must be invisible in the results.
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
        }
    }
}

#[test]
fn plan_decision_counters_account_for_every_query() {
    for (name, dataset) in presets() {
        let workload = workload_for(&dataset);
        let engine = SearchEngine::build_with(
            &dataset,
            EngineKind::Auto { threads: 1 },
            Probe::Workload(&workload.prefix(16)),
        );
        let runs = 3u64;
        for _ in 0..runs {
            let _ = engine.run(&workload);
        }
        let counts = engine.plan_counts().expect("auto engines expose counters");
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(
            total,
            runs * workload.len() as u64,
            "{name}: every routed query is counted exactly once ({counts:?})"
        );
    }
}

#[test]
fn calibrated_diag_reports_the_plan() {
    let dataset = CityGenerator::new(0xC17E_7E57).generate(400);
    let workload = workload_for(&dataset);
    let auto = AutoBackend::calibrated(&dataset, 1, &workload.prefix(16));
    let diag = auto.diag();
    let plan = diag.plan.expect("auto backends report their plan");
    assert!(plan.calibrated);
    assert_eq!(plan.snapshot, StatsSnapshot::compute(&dataset));
    assert!(!plan.decisions.is_empty());
}

/// Top-k is iterative deepening over threshold queries, each radius
/// routed by the decision table: whatever arms the radii go to, the
/// result must be byte-identical to the exhaustive V1 deepening.
#[test]
fn topk_routing_matches_the_exhaustive_oracle_for_every_count() {
    let dataset = CityGenerator::new(0xC17E_7E57).generate(400);
    let workload = workload_for(&dataset);
    let oracle = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
    let auto = AutoBackend::calibrated(&dataset, 1, &workload.prefix(16));
    for (i, q) in workload.queries.iter().take(120).enumerate() {
        for count in [1usize, 10, 100] {
            let want = search_top_k(&oracle, &q.text, count, 16);
            let (got, _) = search_top_k_with(|r| auto.search_counting(&q.text, r), count, 16);
            assert_eq!(got, want, "query {i} count={count}: routed arm diverged");
        }
    }
}

#[test]
fn plan_decisions_are_deterministic_for_a_fixed_snapshot() {
    // Random corpora (including empty strings and duplicates): the
    // decision table is a pure function of the snapshot, so building the
    // planner twice yields identical decisions for every query class and
    // identical routing for arbitrary (|q|, k).
    let corpus: Gen<Vec<Vec<u8>>> = gen::vec_of(gen::bytes_from(b"abcAB\xC3", 0..12), 1..30);
    check(
        "plan_decisions_are_deterministic_for_a_fixed_snapshot",
        Config::cases(60).seed(SEED),
        &gen::zip3(corpus, gen::usize_in(0..40), gen::u32_in(0..20)),
        |(words, query_len, k)| {
            let ds = Dataset::from_records(words.clone());
            let snapshot = StatsSnapshot::compute(&ds);
            let a = Planner::new(snapshot.clone(), &AutoBackend::DEFAULT_CANDIDATES);
            let b = Planner::new(snapshot, &AutoBackend::DEFAULT_CANDIDATES);
            prop_assert_eq!(a.decisions(), b.decisions());
            prop_assert_eq!(a.decide(*query_len, *k), b.decide(*query_len, *k));
            prop_assert!(!a.is_calibrated());
            Ok(())
        },
    );
}
