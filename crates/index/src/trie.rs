//! The paper's base index (§4.1): an uncompressed prefix tree with
//! per-node min/max subtree lengths (§4.1: "the minimal and maximal
//! length of a data set will be stored in the nodes") — one node per
//! distinct prefix, every edge labelled with one byte.
//!
//! Search is a depth-first descent with incremental DP and two prunes:
//!
//! * **Row prune** — once every cell of the current DP row exceeds `k`,
//!   no completion below the node can match
//!   ([`simsearch_distance::RowStackKernel::can_extend`]); this is the
//!   sound form of the paper's prefix condition (eq. (9)).
//! * **Length prune** — the node's min/max subtree lengths bound the
//!   achievable final distance from below
//!   ([`simsearch_distance::prefix_bound::length_interval_bound`]); this
//!   is the paper's `d_m` machinery (eq. (10)) in reject form.

use crate::trace::SearchTrace;
use crate::tree::PrefixTree;
pub use crate::tree::{NodeId, ROOT};
use simsearch_data::{Dataset, Match, MatchSet};
use simsearch_distance::prefix_bound::completion_tolerance;
use simsearch_distance::RowStackKernel;

/// An uncompressed prefix tree over a dataset.
pub type Trie = PrefixTree<false>;

/// Builds the prefix tree for `dataset`.
pub fn build(dataset: &Dataset) -> Trie {
    Trie::build(dataset)
}

impl Trie {
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
        let mut dp = RowStackKernel::new_unbounded(query, k);
        let mut out = Vec::new();
        let mut trace = SearchTrace::default();
        self.descend_paper(ROOT, query.len(), &mut dp, &mut out, &mut trace);
        (MatchSet::from_unsorted(out), trace)
    }

    fn descend_paper(
        &self,
        node: NodeId,
        qlen: usize,
        dp: &mut RowStackKernel,
        out: &mut Vec<Match>,
        trace: &mut SearchTrace,
    ) {
        trace.nodes_visited += 1;
        self.emit(node, dp, out);
        // The paper's admission test for this node's children (eq. (9)):
        // the prefix distance may exceed k by at most the completion
        // tolerance d_m of the subtree.
        let d_m = completion_tolerance(
            qlen,
            self.min_len(node) as usize,
            self.max_len(node) as usize,
        );
        if dp.prefix_distance() > dp.threshold() + d_m {
            trace.subtrees_pruned += 1;
            return;
        }
        for (child, c) in self.child_nodes(node) {
            dp.push(self.label_of(c)[0]);
            trace.rows_computed += 1;
            self.descend_paper(child, qlen, dp, out, trace);
            dp.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::brute_force;

    /// The child of `id` whose edge is `byte`.
    fn child(trie: &Trie, id: NodeId, byte: u8) -> Option<NodeId> {
        trie.children(id).find(|&c| trie.label(c) == [byte])
    }

    #[test]
    fn paper_figure_4_uncompressed_node_count() {
        // Berlin, Bern, Ulm: root + B,e,r (shared) + l,i,n + n + U,l,m
        // = 1 + 3 + 3 + 1 + 3 = 11 nodes.
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm"]);
        let trie = build(&ds);
        assert_eq!(trie.node_count(), 11);
        assert_eq!(trie.record_count(), 3);
    }

    #[test]
    fn memory_bytes_counts_the_arrays_the_tree_holds() {
        // 11 nodes of 24 bytes, one label byte for each but the root and
        // 3 record ids of 4.
        let trie = build(&Dataset::from_records(["Berlin", "Bern", "Ulm"]));
        assert_eq!(trie.memory_bytes(), 11 * 24 + 10 + 3 * 4);
    }

    #[test]
    fn records_terminate_at_their_path() {
        let ds = Dataset::from_records(["ab", "abc", "b"]);
        let trie = build(&ds);
        let a = child(&trie, ROOT, b'a').unwrap();
        let ab = child(&trie, a, b'b').unwrap();
        assert_eq!(trie.records(ab), &[0]);
        let abc = child(&trie, ab, b'c').unwrap();
        assert_eq!(trie.records(abc), &[1]);
        let b = child(&trie, ROOT, b'b').unwrap();
        assert_eq!(trie.records(b), &[2]);
    }

    #[test]
    fn min_max_lengths_are_subtree_aggregates() {
        let ds = Dataset::from_records(["a", "abcd", "ab"]);
        let trie = build(&ds);
        assert_eq!(trie.min_len(ROOT), 1);
        assert_eq!(trie.max_len(ROOT), 4);
        let a = child(&trie, ROOT, b'a').unwrap();
        assert_eq!(trie.min_len(a), 1);
        assert_eq!(trie.max_len(a), 4);
        let ab = child(&trie, a, b'b').unwrap();
        assert_eq!(trie.min_len(ab), 2);
        assert_eq!(trie.max_len(ab), 4);
    }

    #[test]
    fn duplicate_records_share_a_terminal() {
        let ds = Dataset::from_records(["x", "x"]);
        let trie = build(&ds);
        let x = child(&trie, ROOT, b'x').unwrap();
        assert_eq!(trie.records(x), &[0, 1]);
        assert_eq!(trie.node_count(), 2);
    }

    #[test]
    fn empty_record_terminates_at_root() {
        let ds = Dataset::from_records(["", "a"]);
        let trie = build(&ds);
        assert_eq!(trie.records(ROOT), &[0]);
        assert_eq!(trie.min_len(ROOT), 0);
    }

    #[test]
    fn children_stay_sorted() {
        let ds = Dataset::from_records(["zebra", "apple", "mango"]);
        let trie = build(&ds);
        let kids: Vec<u8> = trie.children(ROOT).map(|c| trie.label(c)[0]).collect();
        assert_eq!(kids.len(), 3);
        assert!(kids.windows(2).all(|w| w[0] < w[1]));
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
            "Berlin",
            "Bern",
            "Bonn",
            "Ulm",
            "Bärlin",
            "Berlingen",
            "B",
            "",
            "Ber",
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
