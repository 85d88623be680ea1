//! String similarity self-join: all record pairs within edit distance
//! `k` — the venue's other competition track (the EDBT/ICDT 2013
//! *String Similarity Search/Join* competition the paper was written
//! for).
//!
//! [`pass_join`] is exact PASS-JOIN (Li et al.): every record is split
//! into `k + 1` even segments, an inverted index maps `(record length,
//! segment position, segment bytes)` to record ids, and each record
//! probes the index with the substrings selected by the position/length
//! filters. By pigeonhole, `k` edits can corrupt at most `k` of `k + 1`
//! segments, so one segment of the shorter string always survives
//! verbatim inside the longer — candidate generation is lossless and
//! the banded kernel keeps it exact.
//!
//! [`nested_loop_join`] is the quadratic reference (with the length
//! filter) PASS-JOIN is gated against pair-for-pair
//! (`tests/join_oracle.rs`). Both return pairs `(left, right)` with
//! `left < right`, sorted, so results are directly comparable.

use std::collections::HashMap;

// One partition function for the join's segment index and the sorted
// view's segment postings: it lives beside the view.
pub use simsearch_data::even_partitions;
use simsearch_data::{Dataset, RecordId};
use simsearch_distance::{ed_within_banded_with, ed_within_early_abort_with};
use simsearch_parallel::{chunk_ranges, run_queries, Strategy};

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

fn normalize(mut pairs: Vec<JoinPair>) -> Vec<JoinPair> {
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

/// Counters describing one partition-join execution, surfaced through
/// the daemon's `STATS` JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Result pairs emitted (after normalization).
    pub pairs_emitted: u64,
    /// Candidate pairs handed to the verification kernel (after
    /// candidate dedup).
    pub candidates_verified: u64,
    /// Distinct keys in the inverted segment index.
    pub seg_buckets: u64,
    /// Postings in the inverted segment index (one per record per
    /// segment).
    pub seg_postings: u64,
}

/// Inverted segment index: `(record length, segment position, segment
/// bytes)` → ids of the records that carry that segment there. Borrowed
/// straight from the dataset arena — building it copies nothing.
struct SegmentIndex<'a> {
    buckets: HashMap<(u32, u32, &'a [u8]), Vec<RecordId>>,
    postings: u64,
}

fn build_segment_index(dataset: &Dataset, k: u32) -> SegmentIndex<'_> {
    let mut buckets: HashMap<(u32, u32, &[u8]), Vec<RecordId>> = HashMap::new();
    let mut postings = 0u64;
    for (id, record) in dataset.iter() {
        for (seg, &(start, len)) in even_partitions(record.len(), k).iter().enumerate() {
            buckets
                .entry((record.len() as u32, seg as u32, &record[start..start + len]))
                .or_default()
                .push(id);
            postings += 1;
        }
    }
    SegmentIndex { buckets, postings }
}

/// Probes the index with one record, appending verified pairs to `out`.
/// Returns the number of candidates verified.
///
/// Each unordered pair is generated exactly once: the longer record
/// probes for the shorter's segments (`l ≤ lr`), and at equal length
/// only candidates with a smaller id are accepted.
fn probe_record(
    dataset: &Dataset,
    index: &SegmentIndex<'_>,
    i: RecordId,
    k: u32,
    rows: &mut Vec<u32>,
    cand: &mut Vec<RecordId>,
    out: &mut Vec<JoinPair>,
) -> u64 {
    let r = dataset.get(i);
    let lr = r.len();
    cand.clear();
    for l in lr.saturating_sub(k as usize)..=lr {
        let delta = (lr - l) as isize;
        for (seg, (p, li)) in even_partitions(l, k).iter().copied().enumerate() {
            // Substring selection (the multi-match-aware position
            // filter): if ed ≤ k, some error-free segment `seg` of the
            // shorter string has at most `seg` edits before it and at
            // most `k − seg` after, so its copy inside `r` starts
            // within both windows below.
            let p = p as isize;
            let seg_i = seg as isize;
            let slack = k as isize - seg_i;
            let lo = (p - seg_i).max(p + delta - slack).max(0);
            let hi = (p + seg_i).min(p + delta + slack).min((lr - li) as isize);
            let mut pos = lo;
            while pos <= hi {
                let sub = &r[pos as usize..pos as usize + li];
                if let Some(ids) = index.buckets.get(&(l as u32, seg as u32, sub)) {
                    if l < lr {
                        cand.extend_from_slice(ids);
                    } else {
                        // Same length: ids are in ascending order, keep
                        // the prefix below the probe so each pair is
                        // counted by its larger id only.
                        let cut = ids.partition_point(|&j| j < i);
                        cand.extend_from_slice(&ids[..cut]);
                    }
                }
                pos += 1;
            }
        }
    }
    cand.sort_unstable();
    cand.dedup();
    for &j in cand.iter() {
        if let Some(d) = ed_within_banded_with(rows, dataset.get(j), r, k) {
            out.push(JoinPair {
                left: i.min(j),
                right: i.max(j),
                distance: d,
            });
        }
    }
    cand.len() as u64
}

/// How many contiguous probe/verify chunks to fan a join out into: a
/// few chunks per worker so the dynamic executors can balance, one for
/// the sequential path.
fn job_count(strategy: Strategy, n: usize) -> usize {
    let threads = match strategy {
        Strategy::Sequential => 1,
        Strategy::ThreadPerQuery => 8,
        Strategy::FixedPool { threads } | Strategy::WorkQueue { threads } => threads,
        Strategy::Adaptive { max_threads } => max_threads,
    };
    (threads * 4).clamp(1, n.max(1))
}

/// Exact PASS-JOIN under the given executor strategy, with its
/// [`JoinStats`].
pub fn pass_join_with_stats(
    dataset: &Dataset,
    k: u32,
    strategy: Strategy,
) -> (Vec<JoinPair>, JoinStats) {
    let index = build_segment_index(dataset, k);
    let n = dataset.len();
    // Fan the probe side out in contiguous id ranges (§11's data-chunk
    // scheduling — one level of parallelism, no nested pools); each
    // range keeps its DP rows and candidate scratch across records.
    let jobs = chunk_ranges(n, job_count(strategy, n));
    let jobs = &jobs;
    let index = &index;
    let chunks: Vec<(Vec<JoinPair>, u64)> = run_queries(strategy, jobs.len(), |c| {
        let mut rows = Vec::new();
        let mut cand = Vec::new();
        let mut out = Vec::new();
        let mut verified = 0u64;
        for i in jobs[c].clone() {
            verified += probe_record(dataset, index, i as RecordId, k, &mut rows, &mut cand, &mut out);
        }
        (out, verified)
    });
    let mut pairs = Vec::new();
    let mut verified = 0u64;
    for (chunk, v) in chunks {
        pairs.extend(chunk);
        verified += v;
    }
    let pairs = normalize(pairs);
    let stats = JoinStats {
        pairs_emitted: pairs.len() as u64,
        candidates_verified: verified,
        seg_buckets: index.buckets.len() as u64,
        seg_postings: index.postings,
    };
    (pairs, stats)
}

/// Exact PASS-JOIN, sequential.
///
/// # Examples
///
/// ```
/// use simsearch_core::join::pass_join;
/// use simsearch_data::Dataset;
///
/// let ds = Dataset::from_records(["Bonn", "Born", "Ulm"]);
/// let pairs = pass_join(&ds, 1);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].left, pairs[0].right, pairs[0].distance), (0, 1, 1));
/// ```
pub fn pass_join(dataset: &Dataset, k: u32) -> Vec<JoinPair> {
    pass_join_with_stats(dataset, k, Strategy::Sequential).0
}

/// [`pass_join`] under an executor strategy.
pub fn parallel_pass_join(dataset: &Dataset, k: u32, strategy: Strategy) -> Vec<JoinPair> {
    pass_join_with_stats(dataset, k, strategy).0
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
    fn empty_and_singleton_datasets() {
        assert!(nested_loop_join(&Dataset::new(), 2).is_empty());
        let one = Dataset::from_records(["solo"]);
        assert!(pass_join(&one, 2).is_empty());
    }

    #[test]
    fn zero_threshold_joins_exact_duplicates_only() {
        let ds = Dataset::from_records(["x", "x", "y", "x"]);
        let pairs = pass_join(&ds, 0);
        assert_eq!(
            pairs,
            vec![
                JoinPair { left: 0, right: 1, distance: 0 },
                JoinPair { left: 0, right: 3, distance: 0 },
                JoinPair { left: 1, right: 3, distance: 0 },
            ]
        );
    }

    #[test]
    fn pass_join_agrees_with_nested_loop_on_sample() {
        let ds = sample();
        for k in 0..4 {
            let reference = nested_loop_join(&ds, k);
            assert_eq!(pass_join(&ds, k), reference, "pass, k={k}");
            assert_eq!(
                parallel_pass_join(&ds, k, Strategy::FixedPool { threads: 3 }),
                reference,
                "parallel pass, k={k}"
            );
        }
    }

    /// Exhaustive cross-check on a dense space of tiny strings, where
    /// every edge of the substring-selection windows gets exercised:
    /// all strings over {a, b} up to length 5, k up to 3.
    #[test]
    fn pass_join_is_exact_on_the_dense_binary_cube() {
        let mut records: Vec<String> = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..5 {
            let mut next = Vec::new();
            for s in &frontier {
                for c in ['a', 'b'] {
                    let mut t = s.clone();
                    t.push(c);
                    next.push(t);
                }
            }
            records.extend(next.iter().cloned());
            frontier = next;
        }
        let ds = Dataset::from_records(records.iter().map(|s| s.as_str()));
        for k in 0..4 {
            let reference = nested_loop_join(&ds, k);
            assert_eq!(pass_join(&ds, k), reference, "pass, k={k}");
        }
    }

    #[test]
    fn stats_account_for_the_run() {
        let ds = sample();
        let (pairs, stats) = pass_join_with_stats(&ds, 1, Strategy::Sequential);
        assert_eq!(stats.pairs_emitted, pairs.len() as u64);
        assert!(stats.candidates_verified >= stats.pairs_emitted);
        // 8 records × 2 segments each.
        assert_eq!(stats.seg_postings, 16);
        assert!(stats.seg_buckets > 0 && stats.seg_buckets <= 16);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(pass_join(&Dataset::new(), 2).is_empty());
        let one = Dataset::from_records(["solo"]);
        assert!(pass_join(&one, 2).is_empty());
        // k beyond every length: all pairs match.
        let tiny = Dataset::from_records(["a", "bc", ""]);
        let reference = nested_loop_join(&tiny, 9);
        assert_eq!(reference.len(), 3);
        assert_eq!(pass_join(&tiny, 9), reference);
    }
}
