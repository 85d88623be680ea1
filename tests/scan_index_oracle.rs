//! The scan/index oracle: the paper's correctness methodology (§3.7 /
//! §4.4) as one suite.
//!
//! Two layers:
//!
//! 1. **Structure level** — every index structure (trie, radix trie,
//!    q-gram index) returns exactly the brute-force result set on
//!    random corpora, in both paper and modern pruning modes.
//! 2. **Workload level** — on generated city and DNA datasets, the best
//!    sequential scan and every index engine return identical match sets
//!    over 1,000-query workloads cycling k ∈ {1, 2, 3}
//!    ([`simsearch_testkit::assert_scan_index_equal`]).

use simsearch_data::{
    Alphabet, CityGenerator, Dataset, DnaGenerator, Match, MatchSet, WorkloadSpec,
};
use simsearch_distance::levenshtein;
use simsearch_index::{qgram::SearchScratch, QgramIndex, RadixTrie, Trie};
use simsearch_testkit::{
    assert_scan_index_equal, check, gen, prop_assert, prop_assert_eq, Config, Gen,
};

const SEED: u64 = 0x000A_C1E5;

fn brute_force(ds: &Dataset, q: &[u8], k: u32) -> MatchSet {
    ds.iter()
        .filter_map(|(id, r)| {
            let d = levenshtein(q, r);
            (d <= k).then_some(Match::new(id, d))
        })
        .collect()
}

fn word() -> Gen<Vec<u8>> {
    gen::bytes_from(b"abcAB\xC3", 0..10)
}

fn corpus() -> Gen<Vec<Vec<u8>>> {
    gen::vec_of(word(), 0..25)
}

/// `(corpus, query, k)` — the input shape of most structure properties.
fn scenario() -> Gen<(Vec<Vec<u8>>, Vec<u8>, u32)> {
    gen::zip3(corpus(), word(), gen::u32_in(0..5))
}

// ---- structure level (folded from crates/index/tests/equivalence.rs) ----

#[test]
fn trie_equals_brute_force() {
    check(
        "trie_equals_brute_force",
        Config::default().seed(SEED),
        &scenario(),
        |(words, q, k)| {
            let ds = Dataset::from_records(words);
            let trie = simsearch_index::trie::build(&ds);
            prop_assert_eq!(trie.search(q, *k), brute_force(&ds, q, *k));
            Ok(())
        },
    );
}

#[test]
fn radix_equals_brute_force() {
    check(
        "radix_equals_brute_force",
        Config::default().seed(SEED),
        &scenario(),
        |(words, q, k)| {
            let ds = Dataset::from_records(words);
            let radix = simsearch_index::radix::build(&ds);
            prop_assert_eq!(radix.search(q, *k), brute_force(&ds, q, *k));
            Ok(())
        },
    );
}

#[test]
fn qgram_equals_brute_force() {
    check(
        "qgram_equals_brute_force",
        Config::default().seed(SEED),
        &gen::zip4(corpus(), word(), gen::u32_in(0..5), gen::usize_in(1..4)),
        |(words, q, k, qsize)| {
            let ds = Dataset::from_records(words);
            let idx = QgramIndex::build(&ds, *qsize);
            let mut scratch = SearchScratch::new(ds.len());
            prop_assert_eq!(
                idx.search_with(&ds, q, *k, &mut scratch),
                brute_force(&ds, q, *k)
            );
            Ok(())
        },
    );
}

#[test]
fn compression_preserves_structure_counts() {
    check(
        "compression_preserves_structure_counts",
        Config::default().seed(SEED),
        &corpus(),
        |words| {
            let ds = Dataset::from_records(words);
            let trie: Trie = simsearch_index::trie::build(&ds);
            let radix: RadixTrie = simsearch_index::radix::build(&ds);
            // Compression never increases the node count, and both see the
            // same number of records.
            prop_assert!(radix.node_count() <= trie.node_count());
            prop_assert_eq!(radix.record_count(), trie.record_count());
            Ok(())
        },
    );
}

#[test]
fn trie_paper_mode_equals_brute_force() {
    check(
        "trie_paper_mode_equals_brute_force",
        Config::default().seed(SEED),
        &scenario(),
        |(words, q, k)| {
            let ds = Dataset::from_records(words);
            let trie = simsearch_index::trie::build(&ds);
            prop_assert_eq!(trie.search_paper(q, *k), brute_force(&ds, q, *k));
            Ok(())
        },
    );
}

#[test]
fn radix_paper_mode_equals_brute_force() {
    check(
        "radix_paper_mode_equals_brute_force",
        Config::default().seed(SEED),
        &scenario(),
        |(words, q, k)| {
            let ds = Dataset::from_records(words);
            let radix = simsearch_index::radix::build(&ds);
            prop_assert_eq!(radix.search_paper(q, *k), brute_force(&ds, q, *k));
            Ok(())
        },
    );
}

#[test]
fn paper_and_modern_modes_agree() {
    check(
        "paper_and_modern_modes_agree",
        Config::default().seed(SEED),
        &scenario(),
        |(words, q, k)| {
            let ds = Dataset::from_records(words);
            let radix = simsearch_index::radix::build(&ds);
            prop_assert_eq!(radix.search_paper(q, *k), radix.search(q, *k));
            let trie = simsearch_index::trie::build(&ds);
            prop_assert_eq!(trie.search_paper(q, *k), trie.search(q, *k));
            Ok(())
        },
    );
}

#[test]
fn traced_searches_equal_untraced() {
    check(
        "traced_searches_equal_untraced",
        Config::default().seed(SEED),
        &gen::zip3(corpus(), word(), gen::u32_in(0..4)),
        |(words, q, k)| {
            let ds = Dataset::from_records(words);
            let radix = simsearch_index::radix::build(&ds);
            let (m1, t1) = radix.search_traced(q, *k);
            prop_assert_eq!(&m1, &radix.search(q, *k));
            let (m2, t2) = radix.search_paper_traced(q, *k);
            prop_assert_eq!(&m2, &m1);
            // The paper descent never prunes earlier than the modern one.
            prop_assert!(
                t2.rows_computed >= t1.rows_computed || t1.nodes_visited >= t2.nodes_visited
            );
            Ok(())
        },
    );
}

// ---- workload level: 1,000 scan-vs-index query comparisons each ----

#[test]
fn scan_and_indexes_agree_on_city_workload() {
    let dataset = CityGenerator::new(0xC17E_7E57).generate(400);
    let alphabet = Alphabet::from_corpus(dataset.records());
    let workload = WorkloadSpec::new(&[1, 2, 3], 1_000, 0x00C1_7E0A_7E57).generate(&dataset, &alphabet);
    assert_eq!(workload.len(), 1_000);
    assert_scan_index_equal(&dataset, &workload).unwrap();
}

#[test]
fn scan_and_indexes_agree_on_dna_workload() {
    // A small genome forces heavy read overlap, so queries have many
    // near-matches right at the k boundary.
    let dataset = DnaGenerator::new(0xD7A_7E57).genome_len(4_000).generate(250);
    let alphabet = Alphabet::from_corpus(dataset.records());
    let workload = WorkloadSpec::new(&[1, 2, 3], 1_000, 0x000D_7A0A_7E57).generate(&dataset, &alphabet);
    assert_eq!(workload.len(), 1_000);
    assert_scan_index_equal(&dataset, &workload).unwrap();
}

#[test]
fn v7_matches_the_v1_oracle_under_every_executor() {
    use simsearch_core::{EngineKind, SearchEngine};
    use simsearch_parallel::Strategy;
    use simsearch_scan::SeqVariant;

    let city = CityGenerator::new(0xC17E_7E57).generate(400);
    let dna = DnaGenerator::new(0xD7A_7E57).genome_len(4_000).generate(250);
    for (name, dataset) in [("city", city), ("dna", dna)] {
        let alphabet = Alphabet::from_corpus(dataset.records());
        let workload = WorkloadSpec::new(&[1, 2, 3], 1_000, 0x0007_5047_ED00).generate(&dataset, &alphabet);
        assert_eq!(workload.len(), 1_000);
        let baseline =
            SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V1Base)).run(&workload);
        let v7 = SearchEngine::build(&dataset, EngineKind::Scan(SeqVariant::V7SortedPrefix));
        let mut strategies = vec![Strategy::Sequential, Strategy::ThreadPerQuery];
        for threads in [1, 4, 8] {
            strategies.push(Strategy::FixedPool { threads });
            strategies.push(Strategy::WorkQueue { threads });
            strategies.push(Strategy::Adaptive { max_threads: threads });
        }
        for strategy in strategies {
            assert_eq!(
                v7.run_with_strategy(&workload, strategy),
                baseline,
                "{name} under {}",
                strategy.name()
            );
        }
    }
}

#[test]
fn random_corpora_scan_index_equivalence() {
    // Property form: fresh random corpus and workload every case, smaller
    // but adversarially shaped (empty strings, duplicate records).
    check(
        "random_corpora_scan_index_equivalence",
        Config::cases(40).seed(SEED),
        &gen::zip(gen::vec_of(word(), 1..30), gen::u64_any()),
        |(words, wl_seed)| {
            let ds = Dataset::from_records(words);
            let alphabet = Alphabet::new(b"abcAB\xC3");
            let workload = WorkloadSpec::new(&[1, 2, 3], 9, *wl_seed).generate(&ds, &alphabet);
            assert_scan_index_equal(&ds, &workload)
        },
    );
}
