//! String similarity self-join: all record pairs within edit distance
//! `k`.
//!
//! The venue of the paper was the EDBT/ICDT 2013 *String Similarity
//! Search/Join* competition; this module covers the join half with the
//! same contenders the paper pits against each other:
//!
//! * [`nested_loop_join`] — the quadratic baseline (with the length
//!   filter), the oracle for the others;
//! * [`sorted_join`] — the paper's §6 "sorting" idea applied to joins:
//!   records sorted by length, so each record only meets the window of
//!   records within `±k` length;
//! * [`index_join`] — probe a compressed trie with every record, the
//!   index-based contender;
//! * [`parallel_sorted_join`] — the sorted join under a fixed pool.
//!
//! All functions return pairs `(left, right)` with `left < right`,
//! sorted, so results are directly comparable.

use simsearch_data::{Dataset, RecordId};
use simsearch_distance::{ed_within_banded_with, ed_within_early_abort_with};
use simsearch_parallel::{run_queries, Strategy};

/// One matching pair of a self-join (`left < right`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinPair {
    /// Smaller record id.
    pub left: RecordId,
    /// Larger record id.
    pub right: RecordId,
    /// Edit distance between the two records (≤ the join threshold).
    pub distance: u32,
}

pub(crate) fn normalize(mut pairs: Vec<JoinPair>) -> Vec<JoinPair> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Quadratic nested-loop self-join with the length filter — the
/// reference implementation.
pub fn nested_loop_join(dataset: &Dataset, k: u32) -> Vec<JoinPair> {
    let n = dataset.len() as u32;
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for i in 0..n {
        let a = dataset.get(i);
        for j in (i + 1)..n {
            let b = dataset.get(j);
            if a.len().abs_diff(b.len()) > k as usize {
                continue;
            }
            if let Some(d) = ed_within_early_abort_with(&mut rows, a, b, k) {
                out.push(JoinPair {
                    left: i,
                    right: j,
                    distance: d,
                });
            }
        }
    }
    normalize(out)
}

/// Length-sorted self-join: after sorting by length, a record only has to
/// meet the contiguous window of records whose length differs by at most
/// `k` (the paper's §6 "pre-sorting by length" answered for joins).
/// # Examples
///
/// ```
/// use simsearch_core::join::sorted_join;
/// use simsearch_data::Dataset;
///
/// let ds = Dataset::from_records(["Bonn", "Born", "Ulm"]);
/// let pairs = sorted_join(&ds, 1);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].left, pairs[0].right, pairs[0].distance), (0, 1, 1));
/// ```
pub fn sorted_join(dataset: &Dataset, k: u32) -> Vec<JoinPair> {
    let order = length_order(dataset);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let a = dataset.get(i);
        for &j in &order[pos + 1..] {
            let b = dataset.get(j);
            if b.len() - a.len() > k as usize {
                break; // sorted: every later record is longer still
            }
            if let Some(d) = ed_within_banded_with(&mut rows, a, b, k) {
                out.push(JoinPair {
                    left: i.min(j),
                    right: i.max(j),
                    distance: d,
                });
            }
        }
    }
    normalize(out)
}

/// Index-based self-join: build the compressed trie once and probe it
/// with every record; a pair is kept by its smaller side only.
pub fn index_join(dataset: &Dataset, k: u32) -> Vec<JoinPair> {
    let radix = simsearch_index::radix::build(dataset);
    let mut out = Vec::new();
    for (i, record) in dataset.iter() {
        for m in radix.search(record, k).iter() {
            if m.id > i {
                out.push(JoinPair {
                    left: i,
                    right: m.id,
                    distance: m.distance,
                });
            }
        }
    }
    normalize(out)
}

/// [`sorted_join`] with the probe loop distributed over an executor
/// strategy.
pub fn parallel_sorted_join(dataset: &Dataset, k: u32, strategy: Strategy) -> Vec<JoinPair> {
    let order = length_order(dataset);
    let order = &order;
    let chunks: Vec<Vec<JoinPair>> = run_queries(strategy, order.len(), |pos| {
        let i = order[pos];
        let a = dataset.get(i);
        let mut rows = Vec::new();
        let mut local = Vec::new();
        for &j in &order[pos + 1..] {
            let b = dataset.get(j);
            if b.len() - a.len() > k as usize {
                break;
            }
            if let Some(d) = ed_within_banded_with(&mut rows, a, b, k) {
                local.push(JoinPair {
                    left: i.min(j),
                    right: i.max(j),
                    distance: d,
                });
            }
        }
        local
    });
    normalize(chunks.into_iter().flatten().collect())
}

/// One matching pair of an R×S join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrossPair {
    /// Record id in the left dataset.
    pub left: RecordId,
    /// Record id in the right dataset.
    pub right: RecordId,
    /// Edit distance between the two records.
    pub distance: u32,
}

/// R×S similarity join: all pairs `(l ∈ left, r ∈ right)` with
/// `ed(l, r) ≤ k`, via an index on the right side probed by every left
/// record (the standard index-nested-loop join). Pairs are sorted by
/// `(left, right)`.
pub fn cross_index_join(
    left: &Dataset,
    right: &Dataset,
    k: u32,
    strategy: Strategy,
) -> Vec<CrossPair> {
    let radix = simsearch_index::radix::build(right);
    let chunks: Vec<Vec<CrossPair>> = run_queries(strategy, left.len(), |i| {
        let l = i as RecordId;
        radix
            .search(left.get(l), k)
            .iter()
            .map(|m| CrossPair {
                left: l,
                right: m.id,
                distance: m.distance,
            })
            .collect()
    });
    let mut pairs: Vec<CrossPair> = chunks.into_iter().flatten().collect();
    pairs.sort_unstable();
    pairs
}

/// Quadratic R×S reference join.
pub fn cross_nested_loop_join(left: &Dataset, right: &Dataset, k: u32) -> Vec<CrossPair> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (l, a) in left.iter() {
        for (r, b) in right.iter() {
            if a.len().abs_diff(b.len()) > k as usize {
                continue;
            }
            if let Some(d) = ed_within_early_abort_with(&mut rows, a, b, k) {
                out.push(CrossPair {
                    left: l,
                    right: r,
                    distance: d,
                });
            }
        }
    }
    out.sort_unstable();
    out
}

/// Record ids sorted by (length, id).
fn length_order(dataset: &Dataset) -> Vec<RecordId> {
    let mut order: Vec<RecordId> = (0..dataset.len() as u32).collect();
    order.sort_unstable_by_key(|&i| (dataset.record_len(i), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Born", "Ulm", "Ulmen", "Köln", "Bern",
        ])
    }

    #[test]
    fn nested_loop_finds_known_pairs() {
        let ds = sample();
        let pairs = nested_loop_join(&ds, 1);
        // "Bonn"~"Born" (1), "Bern"~"Born" (1), "Bern"~"Bonn"(2? no),
        // "Bern"~"Bern" duplicate records (0), "Ulm"~"Ulmen" (2? no).
        assert!(pairs.contains(&JoinPair {
            left: 2,
            right: 3,
            distance: 1
        }));
        assert!(pairs.contains(&JoinPair {
            left: 1,
            right: 7,
            distance: 0
        }));
        assert!(pairs.iter().all(|p| p.left < p.right && p.distance <= 1));
    }

    #[test]
    fn all_join_algorithms_agree() {
        let ds = sample();
        for k in 0..4 {
            let reference = nested_loop_join(&ds, k);
            assert_eq!(sorted_join(&ds, k), reference, "sorted, k={k}");
            assert_eq!(index_join(&ds, k), reference, "index, k={k}");
            assert_eq!(
                parallel_sorted_join(&ds, k, Strategy::FixedPool { threads: 3 }),
                reference,
                "parallel, k={k}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_datasets() {
        assert!(nested_loop_join(&Dataset::new(), 2).is_empty());
        let one = Dataset::from_records(["solo"]);
        assert!(sorted_join(&one, 2).is_empty());
        assert!(index_join(&one, 2).is_empty());
    }

    #[test]
    fn cross_join_matches_nested_loop() {
        let left = Dataset::from_records(["Bern", "Ulm", "Xxx"]);
        let right = Dataset::from_records(["Berlin", "Bern", "Ulmen", "Born"]);
        for k in 0..4 {
            assert_eq!(
                cross_index_join(&left, &right, k, Strategy::Sequential),
                cross_nested_loop_join(&left, &right, k),
                "k={k}"
            );
        }
        let pairs = cross_index_join(&left, &right, 1, Strategy::FixedPool { threads: 2 });
        assert!(pairs.contains(&CrossPair { left: 0, right: 1, distance: 0 }));
        assert!(pairs.contains(&CrossPair { left: 0, right: 3, distance: 1 }));
    }

    #[test]
    fn cross_join_with_empty_sides() {
        let ds = Dataset::from_records(["x"]);
        let empty = Dataset::new();
        assert!(cross_index_join(&empty, &ds, 2, Strategy::Sequential).is_empty());
        assert!(cross_index_join(&ds, &empty, 2, Strategy::Sequential).is_empty());
    }

    #[test]
    fn zero_threshold_joins_exact_duplicates_only() {
        let ds = Dataset::from_records(["x", "x", "y", "x"]);
        let pairs = sorted_join(&ds, 0);
        assert_eq!(
            pairs,
            vec![
                JoinPair { left: 0, right: 1, distance: 0 },
                JoinPair { left: 0, right: 3, distance: 0 },
                JoinPair { left: 1, right: 3, distance: 0 },
            ]
        );
    }
}
