//! Cross-crate integration: every engine family returns identical result
//! sets on both paper workload profiles — the repository-wide version of
//! the paper's correctness methodology.

use simsearch::core::presets;
use simsearch::core::{cross_validate, EngineKind, IdxVariant, SearchEngine, SeqVariant, Strategy};

fn all_engine_kinds() -> Vec<EngineKind> {
    let mut kinds = Vec::new();
    for v in SeqVariant::ladder_extended(3) {
        kinds.push(EngineKind::Scan(v));
    }
    for v in IdxVariant::ladder(3) {
        kinds.push(EngineKind::Index(v));
        kinds.push(EngineKind::IndexModern(v));
    }
    kinds.push(EngineKind::Qgram {
        q: 2,
        strategy: Strategy::Sequential,
    });
    kinds.push(EngineKind::Qgram {
        q: 3,
        strategy: Strategy::Adaptive { max_threads: 2 },
    });
    kinds
}

#[test]
fn every_engine_agrees_on_the_city_profile() {
    let preset = presets::city(600);
    let workload = preset.workload.prefix(40);
    let reference = SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V1Base));
    let engines: Vec<SearchEngine> = all_engine_kinds()
        .into_iter()
        .map(|k| SearchEngine::build(&preset.dataset, k))
        .collect();
    cross_validate(&reference, &engines, &workload)
        .unwrap_or_else(|m| panic!("city profile: {m}"));
}

#[test]
fn every_engine_agrees_on_the_dna_profile() {
    let preset = presets::dna(250);
    let workload = preset.workload.prefix(24);
    let reference = SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V1Base));
    let engines: Vec<SearchEngine> = all_engine_kinds()
        .into_iter()
        .map(|k| SearchEngine::build(&preset.dataset, k))
        .collect();
    cross_validate(&reference, &engines, &workload)
        .unwrap_or_else(|m| panic!("dna profile: {m}"));
}

#[test]
fn matches_report_true_distances() {
    // Every reported distance must equal the oracle distance, and every
    // reported match must satisfy the threshold.
    let preset = presets::city(300);
    let engine = SearchEngine::build(&preset.dataset, EngineKind::Index(IdxVariant::I2Compressed));
    for q in preset.workload.prefix(30).iter() {
        for m in engine.search(&q.text, q.threshold).iter() {
            let truth = simsearch::distance::levenshtein(&q.text, preset.dataset.get(m.id));
            assert_eq!(m.distance, truth);
            assert!(m.distance <= q.threshold);
        }
    }
}

#[test]
fn zero_threshold_finds_the_perturbation_source() {
    // Queries generated with 0 edits must find their source record.
    let preset = presets::dna(200);
    let engine = SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V4Flat));
    let mut exact_hits = 0;
    for q in preset.workload.iter().filter(|q| q.threshold == 0).take(20) {
        let res = engine.search(&q.text, 0);
        assert!(!res.is_empty(), "k=0 query lost its source record");
        exact_hits += res.len();
    }
    assert!(exact_hits >= 20);
}
