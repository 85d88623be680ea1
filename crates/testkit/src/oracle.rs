//! Cross-variant equivalence oracles.
//!
//! The workspace implements the same two computations many times over —
//! bounded edit distance (five kernels) and threshold search (a scan
//! ladder plus four index families). These helpers assert that every
//! variant agrees with the slow, obviously-correct reference, and they
//! return [`TestResult`] so property tests can shrink a disagreement to
//! a minimal `(query, candidate, k)` triple or dataset.

use crate::prop::TestResult;
use simsearch_core::{
    cross_validate, EngineKind, IdxVariant, SearchEngine, SeqVariant, Strategy,
};
use simsearch_data::{Dataset, Workload};
use simsearch_distance::{
    ed_within_banded, ed_within_early_abort, levenshtein, levenshtein_naive_alloc, Myers64,
    MyersAny, MyersBlock,
};

fn disagree(kernel: &str, query: &[u8], candidate: &[u8], k: u32, want: &str, got: &str) -> String {
    format!(
        "kernel `{kernel}` disagrees with the full-matrix reference\n  \
         query: {:?}\n  candidate: {:?}\n  k: {k}\n  reference: {want}\n  {kernel}: {got}",
        String::from_utf8_lossy(query),
        String::from_utf8_lossy(candidate),
    )
}

fn check_bounded(
    kernel: &str,
    query: &[u8],
    candidate: &[u8],
    k: u32,
    want: Option<u32>,
    got: Option<u32>,
) -> TestResult {
    if got == want {
        Ok(())
    } else {
        Err(disagree(
            kernel,
            query,
            candidate,
            k,
            &format!("{want:?}"),
            &format!("{got:?}"),
        ))
    }
}

/// Asserts that every distance kernel in the workspace agrees on one
/// `(query, candidate, k)` triple.
///
/// The full-matrix DP ([`levenshtein`]) is the ground truth. Unbounded
/// kernels (`naive_alloc`, Myers `distance`) must reproduce its value
/// exactly; bounded kernels (`early_abort`, `banded`, Myers `within`)
/// honour the ≤k contract: `Some(d)` with the true distance when
/// `d ≤ k`, `None` otherwise.
pub fn assert_all_kernels_agree(query: &[u8], candidate: &[u8], k: u32) -> TestResult {
    let truth = levenshtein(query, candidate);
    let want = (truth <= k).then_some(truth);

    // Unbounded kernels: exact agreement.
    let naive = levenshtein_naive_alloc(query, candidate);
    if naive != truth {
        return Err(disagree(
            "full/naive_alloc",
            query,
            candidate,
            k,
            &truth.to_string(),
            &naive.to_string(),
        ));
    }

    // Free-function bounded kernels.
    check_bounded(
        "early_abort",
        query,
        candidate,
        k,
        want,
        ed_within_early_abort(query, candidate, k),
    )?;
    check_bounded(
        "banded",
        query,
        candidate,
        k,
        want,
        ed_within_banded(query, candidate, k),
    )?;

    // Bit-parallel kernels (defined for non-empty patterns only).
    if let Some(m) = MyersAny::new(query) {
        let d = m.distance(candidate);
        if d != truth {
            return Err(disagree(
                "myers_any/distance",
                query,
                candidate,
                k,
                &truth.to_string(),
                &d.to_string(),
            ));
        }
        check_bounded("myers_any/within", query, candidate, k, want, m.within(candidate, k))?;
    }
    if let Some(m) = Myers64::new(query) {
        let d = m.distance(candidate);
        if d != truth {
            return Err(disagree(
                "myers64/distance",
                query,
                candidate,
                k,
                &truth.to_string(),
                &d.to_string(),
            ));
        }
        check_bounded("myers64/within", query, candidate, k, want, m.within(candidate, k))?;
    }
    if let Some(m) = MyersBlock::new(query) {
        let d = m.distance(candidate);
        if d != truth {
            return Err(disagree(
                "myers_block/distance",
                query,
                candidate,
                k,
                &truth.to_string(),
                &d.to_string(),
            ));
        }
        check_bounded("myers_block/within", query, candidate, k, want, m.within(candidate, k))?;
    }

    Ok(())
}

/// The engine lineup [`assert_scan_index_equal`] cross-validates: the
/// base scan rung, both sorted-arena sweeps (V8 is the arm that serves
/// every class on both served workloads) and one engine from every
/// index family, paper and modern pruning both represented.
fn challenger_kinds() -> Vec<EngineKind> {
    vec![
        EngineKind::Scan(SeqVariant::V1Base),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
        EngineKind::Scan(SeqVariant::V8BitParallel),
        EngineKind::Index(IdxVariant::I1BaseTrie),
        EngineKind::Index(IdxVariant::I2Compressed),
        EngineKind::IndexModern(IdxVariant::I2Compressed),
        EngineKind::Qgram {
            q: 2,
            strategy: Strategy::Sequential,
        },
    ]
}

/// Asserts that the best sequential scan and every index structure
/// return identical match sets over a whole workload.
///
/// The reference is the paper's final scan rung
/// ([`SeqVariant::V4Flat`]); challenged against it are the base scan,
/// the V7 sorted-prefix scan, the V8 bit-parallel sweep, both trie
/// rungs (paper and modern pruning) and the q-gram index.
pub fn assert_scan_index_equal(dataset: &Dataset, workload: &Workload) -> TestResult {
    let reference = SearchEngine::build(dataset, EngineKind::Scan(SeqVariant::V4Flat));
    let challengers: Vec<_> = challenger_kinds()
        .into_iter()
        .map(|kind| SearchEngine::build(dataset, kind))
        .collect();
    cross_validate(&reference, &challengers, workload).map_err(|m| m.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_data::WorkloadSpec;
    use simsearch_data::Alphabet;

    #[test]
    fn kernels_agree_on_known_pairs() {
        for (q, c, k) in [
            (&b"Berlin"[..], &b"Bern"[..], 2),
            (b"", b"abc", 1),
            (b"abc", b"", 5),
            (b"ACGT", b"AGGT", 0),
            (b"kitten", b"sitting", 3),
        ] {
            assert_all_kernels_agree(q, c, k).unwrap();
        }
    }

    #[test]
    fn kernels_agree_across_the_block_boundary() {
        // Patterns longer than 64 symbols exercise MyersBlock's
        // multi-word path against the same references.
        let q: Vec<u8> = b"ACGNT".iter().cycle().take(80).copied().collect();
        let mut c = q.clone();
        c[10] = b'T';
        c.remove(70);
        assert_all_kernels_agree(&q, &c, 3).unwrap();
    }

    #[test]
    fn scan_and_indexes_agree_on_a_small_dataset() {
        let words: &[&[u8]] = &[
            b"berlin", b"bern", b"bonn", b"barcelona", b"boston", b"bo", b"", b"bristol",
        ];
        let dataset = Dataset::from_records(words.iter().map(|w| w.to_vec()));
        let alphabet = Alphabet::new(b"abcdefghijklmnopqrstuvwxyz");
        let workload = WorkloadSpec::new(&[1, 2, 3], 12, 0xBEEF).generate(&dataset, &alphabet);
        assert_scan_index_equal(&dataset, &workload).unwrap();
    }
}
