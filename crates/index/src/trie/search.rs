//! Trie similarity search (§4.1): depth-first descent with incremental
//! DP and two prunes.
//!
//! * **Row prune** — once every cell of the current DP row exceeds `k`,
//!   no completion below the node can match
//!   ([`simsearch_distance::IncrementalDp::can_extend`]); this is the
//!   sound form of the paper's prefix condition (eq. (9)).
//! * **Length prune** — the node's min/max subtree lengths bound the
//!   achievable final distance from below
//!   ([`simsearch_distance::prefix_bound::length_interval_bound`]); this
//!   is the paper's `d_m` machinery (eq. (10)) in reject form.

use super::node::{NodeId, Trie, ROOT};
use crate::trace::SearchTrace;
use simsearch_data::{Match, MatchSet};
use simsearch_distance::prefix_bound::{completion_tolerance, length_interval_bound};
use simsearch_distance::IncrementalDp;

impl Trie {
    /// Returns every record within edit distance `k` of `query`, using
    /// the *modern* pruning (banded rows, row-minimum lemma, length
    /// intervals) — an extension beyond the paper; see
    /// [`Trie::search_paper`] for the faithful §4.1 descent.
    pub fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_traced(query, k).0
    }

    /// [`Trie::search`] with work counters.
    pub fn search_traced(&self, query: &[u8], k: u32) -> (MatchSet, SearchTrace) {
        let mut dp = IncrementalDp::new(query, k);
        let mut out = Vec::new();
        let mut trace = SearchTrace::default();
        self.descend(ROOT, query.len(), &mut dp, &mut out, &mut trace);
        (MatchSet::from_unsorted(out), trace)
    }

    /// Returns every record within edit distance `k` of `query` using
    /// the paper's §4.1 descent: full-width exact DP rows and the prefix
    /// condition `ed(x_0..i, y_0..i) ≤ k + d_m` (eqs. (9)/(10)), where
    /// `d_m` is the completion tolerance from the node's stored min/max
    /// subtree lengths.
    ///
    /// The condition is sound: splitting an optimal alignment of the
    /// query `x` and a record `y = p·s` at the prefix boundary shows
    /// `ed(x, y) ≥ ed(x_0..i, p) − | |x| − |y| |`, and `d_m` is the
    /// maximum of that length drift over the subtree.
    pub fn search_paper(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_paper_traced(query, k).0
    }

    /// [`Trie::search_paper`] with work counters.
    pub fn search_paper_traced(&self, query: &[u8], k: u32) -> (MatchSet, SearchTrace) {
        let mut dp = IncrementalDp::new_unbounded(query, k);
        let mut out = Vec::new();
        let mut trace = SearchTrace::default();
        self.descend_paper(ROOT, query.len(), &mut dp, &mut out, &mut trace);
        (MatchSet::from_unsorted(out), trace)
    }

    fn descend(
        &self,
        node: NodeId,
        qlen: usize,
        dp: &mut IncrementalDp,
        out: &mut Vec<Match>,
        trace: &mut SearchTrace,
    ) {
        let n = self.node(node);
        trace.nodes_visited += 1;
        if !n.records.is_empty() {
            if let Some(d) = dp.distance() {
                out.extend(n.records.iter().map(|&id| Match::new(id, d)));
            }
        }
        for &(b, child) in &n.children {
            let c = self.node(child);
            // Length prune before touching the DP.
            if length_interval_bound(qlen, c.min_len as usize, c.max_len as usize)
                > dp.threshold()
            {
                trace.subtrees_pruned += 1;
                continue;
            }
            dp.push(b);
            trace.rows_computed += 1;
            if dp.can_extend() {
                self.descend(child, qlen, dp, out, trace);
            } else {
                trace.subtrees_pruned += 1;
            }
            dp.pop();
        }
    }

    fn descend_paper(
        &self,
        node: NodeId,
        qlen: usize,
        dp: &mut IncrementalDp,
        out: &mut Vec<Match>,
        trace: &mut SearchTrace,
    ) {
        let n = self.node(node);
        trace.nodes_visited += 1;
        if !n.records.is_empty() {
            if let Some(d) = dp.distance() {
                out.extend(n.records.iter().map(|&id| Match::new(id, d)));
            }
        }
        // The paper's admission test for this node's children (eq. (9)):
        // the prefix distance may exceed k by at most the completion
        // tolerance d_m of the subtree.
        let d_m = completion_tolerance(qlen, n.min_len as usize, n.max_len as usize);
        if dp.prefix_distance() > dp.threshold() + d_m {
            trace.subtrees_pruned += 1;
            return;
        }
        for &(b, child) in &n.children {
            dp.push(b);
            trace.rows_computed += 1;
            self.descend_paper(child, qlen, dp, out, trace);
            dp.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::build;
    use simsearch_data::Dataset;
    use simsearch_distance::levenshtein;

    fn brute_force(ds: &Dataset, q: &[u8], k: u32) -> MatchSet {
        ds.iter()
            .filter_map(|(id, r)| {
                let d = levenshtein(q, r);
                (d <= k).then_some(Match::new(id, d))
            })
            .collect()
    }

    #[test]
    fn exact_search_finds_only_the_record() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm"]);
        let trie = build(&ds);
        let res = trie.search(b"Bern", 0);
        assert_eq!(res.ids(), vec![1]);
        assert_eq!(res.matches()[0].distance, 0);
    }

    #[test]
    fn fuzzy_search_matches_brute_force() {
        let words = [
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber",
        ];
        let ds = Dataset::from_records(words);
        let trie = build(&ds);
        for q in ["Berlin", "Bern", "Urm", "", "Xyz", "Berli"] {
            for k in 0..5 {
                assert_eq!(
                    trie.search(q.as_bytes(), k),
                    brute_force(&ds, q.as_bytes(), k),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn empty_query_matches_short_records() {
        let ds = Dataset::from_records(["", "a", "ab", "abc"]);
        let trie = build(&ds);
        assert_eq!(trie.search(b"", 1).ids(), vec![0, 1]);
        assert_eq!(trie.search(b"", 2).ids(), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_are_all_reported() {
        let ds = Dataset::from_records(["dup", "dup", "other"]);
        let trie = build(&ds);
        assert_eq!(trie.search(b"dup", 0).ids(), vec![0, 1]);
    }

    #[test]
    fn search_on_empty_trie() {
        let trie = build(&Dataset::new());
        assert!(trie.search(b"anything", 3).is_empty());
    }
}
