//! Radix-trie similarity search: the trie descent of §4.1 over labelled
//! edges, with mid-edge abandonment.
//!
//! Descending a compressed edge pushes its label bytes one at a time into
//! the incremental DP; as soon as the row prune fires *inside* the edge,
//! the rest of the label — and the whole subtree — is skipped. This is
//! why compression speeds search up (§4.2): chains that the uncompressed
//! trie walks node by node are abandoned after the same number of DP rows
//! but without any node hopping, and the per-node pruning bookkeeping
//! happens once per edge instead of once per byte.

use super::node::{NodeId, RadixTrie, ROOT};
use crate::trace::SearchTrace;
use simsearch_data::{Match, MatchSet};
use simsearch_distance::prefix_bound::{completion_tolerance, length_interval_bound};
use simsearch_distance::IncrementalDp;

impl RadixTrie {
    /// Returns every record within edit distance `k` of `query`, using
    /// the *modern* pruning (banded rows, row-minimum lemma, mid-edge
    /// abandonment) — an extension beyond the paper; see
    /// [`RadixTrie::search_paper`] for the faithful §4.1/§4.2 descent.
    pub fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_traced(query, k).0
    }

    /// [`RadixTrie::search`] with work counters.
    pub fn search_traced(&self, query: &[u8], k: u32) -> (MatchSet, SearchTrace) {
        let mut dp = IncrementalDp::new(query, k);
        let mut out = Vec::new();
        let mut trace = SearchTrace::default();
        self.descend(ROOT, query.len(), &mut dp, &mut out, &mut trace);
        (MatchSet::from_unsorted(out), trace)
    }

    /// The paper's compressed-index search: the §4.1 descent with the
    /// prefix condition `ed(x_0..i, y_0..i) ≤ k + d_m` evaluated once per
    /// node — compression's benefit in the paper's own terms ("fewer
    /// calculations of the edit distance", §4.2): chains that the
    /// uncompressed tree checks at every character are checked once per
    /// merged edge.
    pub fn search_paper(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_paper_traced(query, k).0
    }

    /// [`RadixTrie::search_paper`] with work counters.
    pub fn search_paper_traced(&self, query: &[u8], k: u32) -> (MatchSet, SearchTrace) {
        let mut dp = IncrementalDp::new_unbounded(query, k);
        let mut out = Vec::new();
        let mut trace = SearchTrace::default();
        self.descend_paper(ROOT, query.len(), &mut dp, &mut out, &mut trace);
        (MatchSet::from_unsorted(out), trace)
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
        let d_m = completion_tolerance(qlen, n.min_len as usize, n.max_len as usize);
        if dp.prefix_distance() > dp.threshold() + d_m {
            trace.subtrees_pruned += 1;
            return;
        }
        for &(_, child) in &n.children {
            let c = self.node(child);
            let depth_before = dp.depth();
            // Inside a compressed edge the subtree is already the child's,
            // so the paper's condition applies at every interior position
            // with the child's completion tolerance — compression changes
            // the data structure, not the set of prefixes the §4.1 rule
            // would have pruned in the uncompressed tree.
            let child_d_m =
                completion_tolerance(qlen, c.min_len as usize, c.max_len as usize);
            let mut alive = true;
            for &b in self.label(c) {
                dp.push(b);
                trace.rows_computed += 1;
                if dp.prefix_distance() > dp.threshold() + child_d_m {
                    alive = false;
                    break;
                }
            }
            if alive {
                self.descend_paper(child, qlen, dp, out, trace);
            } else {
                trace.subtrees_pruned += 1;
            }
            dp.truncate(depth_before);
        }
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
        for &(_, child) in &n.children {
            let c = self.node(child);
            if length_interval_bound(qlen, c.min_len as usize, c.max_len as usize)
                > dp.threshold()
            {
                trace.subtrees_pruned += 1;
                continue;
            }
            let depth_before = dp.depth();
            let mut alive = true;
            for &b in self.label(c) {
                dp.push(b);
                trace.rows_computed += 1;
                if !dp.can_extend() {
                    alive = false;
                    break;
                }
            }
            if alive {
                self.descend(child, qlen, dp, out, trace);
            } else {
                trace.subtrees_pruned += 1;
            }
            dp.truncate(depth_before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::build;
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
    fn matches_brute_force_on_city_like_words() {
        let words = [
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber",
            "Ulmen", "Bernau",
        ];
        let ds = Dataset::from_records(words);
        let radix = build(&ds);
        for q in ["Berlin", "Bern", "Urm", "", "Xyz", "Berli", "Ulm"] {
            for k in 0..5 {
                assert_eq!(
                    radix.search(q.as_bytes(), k),
                    brute_force(&ds, q.as_bytes(), k),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_uncompressed_trie() {
        let words = ["aaa", "aab", "abb", "bbb", "ab", "a", "", "aabb"];
        let ds = Dataset::from_records(words);
        let radix = build(&ds);
        let trie = crate::trie::build(&ds);
        for q in ["aa", "ab", "b", "", "aabb", "zz"] {
            for k in 0..4 {
                assert_eq!(
                    radix.search(q.as_bytes(), k),
                    trie.search(q.as_bytes(), k),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn mid_edge_abandonment_still_finds_matches() {
        // One very long shared edge; queries that die inside it and
        // queries that survive it.
        let long = "x".repeat(50);
        let ds = Dataset::from_records([long.clone(), format!("{long}y")]);
        let radix = build(&ds);
        assert_eq!(radix.search(long.as_bytes(), 1).len(), 2);
        assert_eq!(radix.search(b"zzz", 2).len(), 0);
    }
}
