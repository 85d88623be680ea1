//! The replanning oracle: self-tuning is a pure *performance* loop —
//! live recalibration must never change an answer, and it must keep
//! adapting as the query distribution shifts.
//!
//! **Distribution shift** — one engine serves a workload whose class
//! mix flips mid-run (short city strings, then long DNA-like reads).
//! Each phase ends with a replan tick; the tick must be *accepted*
//! (the observation grid converged: `plan_epoch` advances), the
//! per-arm routing counters must account for every routed query, and
//! the replanned table must stay byte-identical to the V1 oracle
//! under every executor × thread count {1, 4, 8}.

use simsearch_core::{AutoBackend, Backend, EngineKind, SeqVariant, Strategy};
use simsearch_data::{Alphabet, CityGenerator, Dataset, DnaGenerator, Workload, WorkloadSpec};

fn all_strategies() -> Vec<Strategy> {
    let mut strategies = vec![Strategy::Sequential, Strategy::ThreadPerQuery];
    for threads in [1, 4, 8] {
        strategies.push(Strategy::FixedPool { threads });
        strategies.push(Strategy::WorkQueue { threads });
        strategies.push(Strategy::Adaptive { max_threads: threads });
    }
    strategies
}

/// One corpus holding both phases' records: short city names and long
/// DNA-like reads, so both length classes are populated and the planner
/// has something to converge *to* in each phase.
fn shifted_corpus() -> (Dataset, Workload, Workload) {
    let city = CityGenerator::new(0xC17E_7E57).generate(300);
    let dna = DnaGenerator::new(0xD7A_7E57).genome_len(3_000).generate(150);
    let mut records = city.to_owned_records();
    records.extend(dna.to_owned_records());
    let combined = Dataset::from_records(&records);
    let city_phase =
        WorkloadSpec::new(&[1, 2], 400, 0x0A07_0B0E).generate(&city, &Alphabet::from_corpus(city.records()));
    let dna_phase =
        WorkloadSpec::new(&[2, 3], 200, 0x0B0E_0A07).generate(&dna, &Alphabet::from_corpus(dna.records()));
    (combined, city_phase, dna_phase)
}

#[test]
fn replanning_converges_across_a_distribution_shift() {
    let (dataset, city_phase, dna_phase) = shifted_corpus();
    let auto = AutoBackend::calibrated(&dataset, 1, &city_phase.prefix(16));
    assert_eq!(auto.plan_epoch(), 0, "build-time calibration is epoch 0");

    // Phase 1: short-string traffic. The grid fills with short-class
    // observations; the phase-end tick must accept the swap.
    for q in &city_phase.queries {
        let _ = auto.search_counting(&q.text, q.threshold);
    }
    assert!(
        auto.replan(),
        "after {} short queries the grid has converged",
        city_phase.len()
    );
    assert_eq!(auto.plan_epoch(), 1);
    let routed_phase1: u64 = auto.plan_counts().iter().map(|(_, c)| c).sum();
    assert_eq!(
        routed_phase1,
        city_phase.len() as u64,
        "every phase-1 query routed exactly once"
    );

    // Phase 2: the distribution shifts to long reads — no restart. The
    // next tick re-derives the table with the long classes observed.
    for q in &dna_phase.queries {
        let _ = auto.search_counting(&q.text, q.threshold);
    }
    assert!(auto.replan(), "the shifted grid still converges");
    assert_eq!(auto.plan_epoch(), 2, "one accepted swap per phase");
    let routed_total: u64 = auto.plan_counts().iter().map(|(_, c)| c).sum();
    assert_eq!(routed_total, (city_phase.len() + dna_phase.len()) as u64);
    assert!(
        auto.planner().is_calibrated(),
        "the live table carries measured multipliers"
    );
    assert!(
        auto.observed_arm_nanos().iter().any(|(_, n)| *n > 0),
        "the grid observed real latencies"
    );

    // Parity arm: the twice-replanned engine answers byte-identically
    // to the V1 oracle for *both* phases, under every executor.
    let mut full = Workload { queries: city_phase.queries.clone() };
    full.queries.extend(dna_phase.queries.iter().cloned());
    let oracle = simsearch_core::SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base));
    let baseline = oracle.run(&full);
    for strategy in all_strategies() {
        assert_eq!(
            auto.run_with_strategy(&full, strategy),
            baseline,
            "replanned auto under {}",
            strategy.name()
        );
    }
}
