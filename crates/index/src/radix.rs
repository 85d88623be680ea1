//! The paper's compressed index (§4.2): a radix trie — the prefix tree
//! with single-child chains merged into labelled edges.
//!
//! Built directly from the sorted record list, never materializing the
//! uncompressed tree (at DNA scale the uncompressed trie is the very
//! index-size problem the paper's related work §2.3 discusses). For a
//! sorted group of records sharing a prefix, the common continuation of
//! the whole group becomes one labelled edge, and branching happens only
//! where the group splits: a node exists only where a branch or a
//! terminal record exists (Figure 4: Berlin/Bern/Ulm shrinks from 11
//! nodes to 5).

use crate::trace::SearchTrace;
use crate::tree::PrefixTree;
pub use crate::tree::{NodeId, ROOT};
use simsearch_data::{Dataset, Match, MatchSet};
use simsearch_distance::prefix_bound::completion_tolerance;
use simsearch_distance::RowStackKernel;

/// A compressed (radix) prefix tree over a dataset.
///
/// # Examples
///
/// ```
/// use simsearch_data::Dataset;
///
/// let ds = Dataset::from_records(["Berlin", "Bern", "Ulm"]);
/// let radix = simsearch_index::radix::build(&ds);
/// assert_eq!(radix.node_count(), 5); // the paper's Figure 4
/// let hits = radix.search(b"Berlyn", 1);
/// assert_eq!(hits.ids(), vec![0]);
/// ```
pub type RadixTrie = PrefixTree<true>;

/// Builds the compressed prefix tree for `dataset`.
pub fn build(dataset: &Dataset) -> RadixTrie {
    RadixTrie::build(dataset)
}

impl RadixTrie {
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
            let depth_before = dp.depth();
            // Inside a compressed edge the subtree is already the child's,
            // so the paper's condition applies at every interior position
            // with the child's completion tolerance — compression changes
            // the data structure, not the set of prefixes the §4.1 rule
            // would have pruned in the uncompressed tree.
            let child_d_m = completion_tolerance(qlen, c.min_len as usize, c.max_len as usize);
            let mut alive = true;
            for &b in self.label_of(c) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tests::brute_force;
    use simsearch_data::RecordId;

    #[test]
    fn paper_figure_4_compressed_node_count() {
        // Berlin, Bern, Ulm compresses to root + "Ber" + "lin" + "n"
        // + "Ulm" = 5 nodes (the uncompressed trie has 11; the paper's
        // figure illustrates roughly a halving).
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm"]);
        let radix = build(&ds);
        assert_eq!(radix.node_count(), 5);
        let uncompressed = crate::trie::build(&ds);
        assert!(radix.node_count() * 2 <= uncompressed.node_count());
    }

    #[test]
    fn memory_bytes_counts_the_arrays_the_tree_holds() {
        // 5 nodes of 24 bytes, 10 label bytes ("Ber", "lin", "n", "Ulm")
        // and 3 record ids of 4.
        let radix = build(&Dataset::from_records(["Berlin", "Bern", "Ulm"]));
        assert_eq!(radix.memory_bytes(), 5 * 24 + 10 + 3 * 4);
    }

    #[test]
    fn edge_labels_reconstruct_records() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm", "Bern"]);
        let radix = build(&ds);
        // Walk every path and reconstruct terminal strings.
        fn walk(
            t: &RadixTrie,
            node: NodeId,
            prefix: &mut Vec<u8>,
            out: &mut Vec<(RecordId, Vec<u8>)>,
        ) {
            prefix.extend_from_slice(t.label(node));
            for &id in t.records(node) {
                out.push((id, prefix.clone()));
            }
            for c in t.children(node) {
                walk(t, c, prefix, out);
            }
            prefix.truncate(prefix.len() - t.label(node).len());
        }
        let mut out = Vec::new();
        walk(&radix, ROOT, &mut Vec::new(), &mut out);
        out.sort_by_key(|(id, _)| *id);
        let strings: Vec<Vec<u8>> = out.into_iter().map(|(_, s)| s).collect();
        assert_eq!(
            strings,
            vec![
                b"Berlin".to_vec(),
                b"Bern".to_vec(),
                b"Ulm".to_vec(),
                b"Bern".to_vec()
            ]
        );
    }

    #[test]
    fn min_max_lengths_aggregate() {
        let ds = Dataset::from_records(["a", "abcd", "ab"]);
        let radix = build(&ds);
        assert_eq!(radix.min_len(ROOT), 1);
        assert_eq!(radix.max_len(ROOT), 4);
    }

    #[test]
    fn empty_dataset_builds_root_only() {
        let radix = build(&Dataset::new());
        assert_eq!(radix.node_count(), 1);
        assert_eq!(radix.record_count(), 0);
    }

    #[test]
    fn prefix_record_terminates_mid_path() {
        let ds = Dataset::from_records(["ab", "abcd"]);
        let radix = build(&ds);
        // root -> "ab" (terminal for 0) -> "cd" (terminal for 1).
        assert_eq!(radix.node_count(), 3);
    }

    #[test]
    fn matches_brute_force_on_city_like_words() {
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
            "Ulmen",
            "Bernau",
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
