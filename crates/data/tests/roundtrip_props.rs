//! Property tests for the data substrate: serialization round trips,
//! workload construction and filter-bound soundness.

use simsearch_data::{io, Alphabet, Dataset, FreqVector, QueryRecord, Workload, WorkloadSpec};
use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config, Gen};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

const SEED: u64 = 0x000D_A7A0;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "simsearch-prop-{}-{}-{name}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Line-safe byte strings (no `\n`, no NUL).
fn record() -> Gen<Vec<u8>> {
    gen::vec_of(gen::byte_where(|b| b != 0 && b != b'\n'), 0..20)
}

/// Tab- and newline-free byte strings (query texts).
fn query_text() -> Gen<Vec<u8>> {
    gen::vec_of(gen::byte_where(|b| b != 0 && b != b'\n' && b != b'\t'), 0..20)
}

fn dna() -> Gen<Vec<u8>> {
    gen::dna_string(0..120)
}

#[test]
fn dataset_file_round_trip() {
    check(
        "dataset_file_round_trip",
        Config::default().seed(SEED),
        &gen::vec_of(record(), 0..20),
        |records| {
            let ds = Dataset::from_records(records);
            let path = tmp("ds");
            io::write_dataset(&path, &ds).unwrap();
            let back = io::read_dataset(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            prop_assert_eq!(back.len(), ds.len());
            prop_assert!(ds.iter().zip(back.iter()).all(|(a, b)| a == b));
            Ok(())
        },
    );
}

#[test]
fn query_file_round_trip() {
    check(
        "query_file_round_trip",
        Config::default().seed(SEED),
        &gen::zip(
            gen::vec_of(query_text(), 0..15),
            gen::vec_of(gen::u32_in(0..30), 0..15),
        ),
        |(texts, ks)| {
            let queries: Vec<QueryRecord> = texts
                .iter()
                .zip(ks)
                .map(|(t, k)| QueryRecord {
                    text: t.clone(),
                    threshold: *k,
                })
                .collect();
            let w = Workload { queries };
            let path = tmp("q");
            io::write_queries(&path, &w).unwrap();
            let back = io::read_queries(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            prop_assert_eq!(back, w);
            Ok(())
        },
    );
}

#[test]
fn freq_bound_is_sound() {
    check(
        "freq_bound_is_sound",
        Config::default().seed(SEED),
        &gen::zip(dna(), dna()),
        |(x, y)| {
            let fx = FreqVector::compute(x, b"ACGNT");
            let fy = FreqVector::compute(y, b"ACGNT");
            let d = simsearch_distance::levenshtein(x, y);
            prop_assert!(fx.ed_lower_bound(&fy) <= d, "bound exceeded true distance");
            Ok(())
        },
    );
}

#[test]
fn workloads_respect_threshold_guarantee() {
    check(
        "workloads_respect_threshold_guarantee",
        Config::default().seed(SEED),
        &gen::zip(gen::u64_any(), gen::usize_in(1..30)),
        |(seed, count)| {
            // Every generated query is within its threshold of at least one
            // record (it was built with ≤ k edits from one).
            let ds = Dataset::from_records(["AAAA", "CCCC", "GGGG", "TTTT", "ACGT", "AA"]);
            let alpha = Alphabet::dna();
            let w = WorkloadSpec::new(&[0, 1, 2, 3], *count, *seed).generate(&ds, &alpha);
            for q in w.iter() {
                let best = ds
                    .records()
                    .map(|r| simsearch_distance::levenshtein(&q.text, r))
                    .min()
                    .unwrap();
                prop_assert!(best <= q.threshold, "query lost its source record");
            }
            Ok(())
        },
    );
}

#[test]
fn alphabet_rank_is_consistent() {
    check(
        "alphabet_rank_is_consistent",
        Config::default().seed(SEED),
        &gen::bytes_any(0..40),
        |bytes| {
            let a = Alphabet::new(bytes);
            for &b in a.symbols() {
                prop_assert!(a.contains(b));
                let r = a.rank(b).unwrap();
                prop_assert_eq!(a.symbols()[r], b);
            }
            for b in 0u16..256 {
                let b = b as u8;
                prop_assert_eq!(a.contains(b), bytes.contains(&b));
            }
            Ok(())
        },
    );
}
