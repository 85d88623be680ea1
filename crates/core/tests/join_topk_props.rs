//! Property tests for the similarity join and top-k search.

use simsearch_core::{pass_join, search_top_k, EngineKind, SearchEngine, SeqVariant};
use simsearch_data::Dataset;
use simsearch_distance::levenshtein;
use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config, Gen};

const SEED: u64 = 0x10_1703;

fn word() -> Gen<Vec<u8>> {
    gen::bytes_from(b"abcN", 0..8)
}

fn corpus() -> Gen<Vec<Vec<u8>>> {
    gen::vec_of(word(), 0..15)
}

#[test]
fn join_pairs_satisfy_the_threshold_exactly() {
    check(
        "join_pairs_satisfy_the_threshold_exactly",
        Config::default().seed(SEED),
        &gen::zip(corpus(), gen::u32_in(0..4)),
        |(words, k)| {
            let ds = Dataset::from_records(words);
            let pairs = pass_join(&ds, *k);
            // Every reported pair is within k with the right distance ...
            for p in &pairs {
                prop_assert!(p.left < p.right);
                prop_assert_eq!(p.distance, levenshtein(ds.get(p.left), ds.get(p.right)));
                prop_assert!(p.distance <= *k);
            }
            // ... and no qualifying pair is missing.
            let n = ds.len() as u32;
            let mut expected = 0usize;
            for i in 0..n {
                for j in (i + 1)..n {
                    if levenshtein(ds.get(i), ds.get(j)) <= *k {
                        expected += 1;
                    }
                }
            }
            prop_assert_eq!(pairs.len(), expected);
            Ok(())
        },
    );
}

#[test]
fn top_k_equals_sorted_oracle() {
    check(
        "top_k_equals_sorted_oracle",
        Config::default().seed(SEED),
        &gen::zip3(corpus(), word(), gen::usize_in(0..6)),
        |(words, q, count)| {
            let ds = Dataset::from_records(words);
            let engine = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
            let got = search_top_k(&engine, q, *count, 64);
            // Oracle: sort all records by (distance, id).
            let mut all: Vec<(u32, u32)> = ds.iter().map(|(id, r)| (levenshtein(q, r), id)).collect();
            all.sort_unstable();
            all.truncate(*count);
            let want: Vec<(u32, u32)> = all;
            let got: Vec<(u32, u32)> = got.iter().map(|m| (m.distance, m.id)).collect();
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
}
