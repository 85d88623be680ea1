//! Prefix-tree storage shared by the paper's two trees: nodes as fixed
//! records in one array, in DFS preorder, with edge labels and record ids
//! in one arena each.
//!
//! A node is six `u32`s, 24 bytes, and owns no allocation. Its subtree is
//! the run of nodes from itself to `end`, so its first child is the next
//! node and each further child starts where the previous child's subtree
//! ends. Its records run from its `first_record` to the next node's. The
//! compression goal of the paper's §4.2 — "create only as many nodes as
//! needed" — is a build choice: the radix trie ([`crate::radix`]) gives an
//! edge the whole common continuation of the records below it, the
//! uncompressed trie ([`crate::trie`]) one byte. Both are this one layout,
//! so the I1 → I2 step measures compression and not storage.

use simsearch_data::{Dataset, Match, MatchSet, RecordId};
use simsearch_distance::prefix_bound::length_interval_bound;
use simsearch_distance::RowStackKernel;

use crate::trace::SearchTrace;

/// Index of a node: its position in preorder.
pub type NodeId = u32;

/// The root is the first node in preorder.
pub const ROOT: NodeId = 0;

/// One node. The edge *leading into* it carries its label (empty for the
/// root).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// Offset of the incoming edge label in the label arena.
    label_start: u32,
    /// Length of the incoming edge label.
    label_len: u32,
    /// One past the node's last descendant.
    end: u32,
    /// Offset of the node's first record id in the record arena.
    first_record: u32,
    /// Minimal record length in this subtree.
    pub(crate) min_len: u32,
    /// Maximal record length in this subtree.
    pub(crate) max_len: u32,
}

/// A prefix tree over a dataset in flat preorder arrays: the radix trie
/// ([`crate::RadixTrie`]) when `COMPRESSED`, the uncompressed trie
/// ([`crate::Trie`]) otherwise.
///
/// Children are visited in ascending order of their label's first byte,
/// and every node carries the minimal and maximal record length of its
/// subtree (§4.1, following PETER).
#[derive(Debug, Clone)]
pub struct PrefixTree<const COMPRESSED: bool> {
    nodes: Vec<Node>,
    labels: Vec<u8>,
    /// Record ids in byte order of their records, which is preorder.
    records: Vec<RecordId>,
}

impl<const COMPRESSED: bool> PrefixTree<COMPRESSED> {
    /// Builds the tree from the records sorted by bytes: each sorted group
    /// of records sharing a prefix becomes one subtree, appended in
    /// preorder, with nothing allocated per node.
    pub(crate) fn build(dataset: &Dataset) -> Self {
        // Ties broken by id: duplicates list their ids ascending.
        let mut order: Vec<RecordId> = (0..dataset.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| dataset.get(a).cmp(dataset.get(b)).then(a.cmp(&b)));
        let mut tree = Self {
            nodes: Vec::new(),
            labels: Vec::new(),
            records: Vec::new(),
        };
        tree.push_subtree(dataset, &order, 0..order.len(), 0, 0);
        tree.nodes.shrink_to_fit();
        tree.labels.shrink_to_fit();
        // The sorted order is the record arena: a node's terminal records
        // open its group, and its children's groups follow in byte order.
        tree.records = order;
        tree
    }

    /// Appends the subtree of the records `order[group]`, which share
    /// their first `depth` bytes, under an edge whose label is the last
    /// `label_len` of those bytes; returns its `(min_len, max_len)`.
    fn push_subtree(
        &mut self,
        dataset: &Dataset,
        order: &[RecordId],
        group: std::ops::Range<usize>,
        depth: usize,
        label_len: usize,
    ) -> (u32, u32) {
        let id = self.nodes.len();
        self.nodes.push(Node {
            label_start: (self.labels.len() - label_len) as u32,
            label_len: label_len as u32,
            end: 0,
            first_record: group.start as u32,
            min_len: 0,
            max_len: 0,
        });
        // Records ending here sort before their extensions.
        let mut rest =
            group.start + order[group.clone()].partition_point(|&r| dataset.record_len(r) == depth);
        let mut lens = (rest > group.start).then_some((depth as u32, depth as u32));
        while rest < group.end {
            let first = dataset.get(order[rest]);
            let b = first[depth];
            let split =
                rest + order[rest..group.end].partition_point(|&r| dataset.get(r)[depth] == b);
            // The radix edge is the group's common continuation: the LCP
            // of a sorted group is that of its first and last member.
            let mut edge_end = depth + 1;
            if COMPRESSED {
                let last = dataset.get(order[split - 1]);
                let max_lcp = first.len().min(last.len());
                while edge_end < max_lcp && first[edge_end] == last[edge_end] {
                    edge_end += 1;
                }
            }
            self.labels.extend_from_slice(&first[depth..edge_end]);
            let (lo, hi) =
                self.push_subtree(dataset, order, rest..split, edge_end, edge_end - depth);
            lens = Some(lens.map_or((lo, hi), |(min, max)| (min.min(lo), max.max(hi))));
            rest = split;
        }
        // Only the root of an empty tree has neither records nor children.
        let (min_len, max_len) = lens.unwrap_or((0, 0));
        let end = self.nodes.len() as u32;
        let node = &mut self.nodes[id];
        node.end = end;
        node.min_len = min_len;
        node.max_len = max_len;
        (min_len, max_len)
    }

    /// Number of nodes, including the root (the Figure 4 metric).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of indexed records.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Heap bytes the tree holds: the capacities of its node, label and
    /// record arrays (for index-size reporting; the related work's
    /// motivating problem is exactly this number).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.labels.capacity()
            + self.records.capacity() * std::mem::size_of::<RecordId>()
    }

    /// The children of `id`, in ascending order of their label's first
    /// byte.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.child_nodes(id).map(|(child, _)| child)
    }

    /// Records whose full string ends at `id`.
    pub fn records(&self, id: NodeId) -> &[RecordId] {
        let from = self.nodes[id as usize].first_record as usize;
        let to = self
            .nodes
            .get(id as usize + 1)
            .map_or(self.records.len(), |next| next.first_record as usize);
        &self.records[from..to]
    }

    /// The incoming edge label of `id`.
    pub fn label(&self, id: NodeId) -> &[u8] {
        self.label_of(&self.nodes[id as usize])
    }

    /// Minimal record length below (and at) `id`.
    pub fn min_len(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].min_len
    }

    /// Maximal record length below (and at) `id`.
    pub fn max_len(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].max_len
    }

    /// The children of `id` with their nodes: the walk from the next node
    /// in preorder, each child's `end` leading to its next sibling.
    pub(crate) fn child_nodes(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        let end = self.nodes[id as usize].end;
        let mut child = id + 1;
        std::iter::from_fn(move || {
            (child < end).then(|| {
                let node = &self.nodes[child as usize];
                let this = child;
                child = node.end;
                (this, node)
            })
        })
    }

    pub(crate) fn label_of(&self, node: &Node) -> &[u8] {
        let start = node.label_start as usize;
        &self.labels[start..start + node.label_len as usize]
    }

    /// Returns every record within edit distance `k` of `query`, using
    /// the *modern* pruning (banded rows, row-minimum lemma, length
    /// intervals, mid-edge abandonment) — an extension beyond the paper;
    /// `search_paper` is the faithful §4.1/§4.2 descent.
    ///
    /// Descending an edge pushes its label bytes one at a time into the
    /// incremental DP; as soon as the row prune fires *inside* the edge,
    /// the rest of the label — and the whole subtree — is skipped. This is
    /// why compression speeds search up (§4.2): chains that the
    /// uncompressed trie walks node by node are abandoned after the same
    /// number of DP rows but without any node hopping, and the per-node
    /// pruning bookkeeping happens once per edge instead of once per byte.
    pub fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_traced(query, k).0
    }

    /// [`PrefixTree::search`] with work counters.
    pub fn search_traced(&self, query: &[u8], k: u32) -> (MatchSet, SearchTrace) {
        let mut dp = RowStackKernel::new(query, k);
        let mut out = Vec::new();
        let mut trace = SearchTrace::default();
        self.descend(ROOT, query.len(), &mut dp, &mut out, &mut trace);
        (MatchSet::from_unsorted(out), trace)
    }

    fn descend(
        &self,
        node: NodeId,
        qlen: usize,
        dp: &mut RowStackKernel,
        out: &mut Vec<Match>,
        trace: &mut SearchTrace,
    ) {
        trace.nodes_visited += 1;
        self.emit(node, dp, out);
        for (child, c) in self.child_nodes(node) {
            // Length prune before touching the DP.
            if length_interval_bound(qlen, c.min_len as usize, c.max_len as usize) > dp.threshold()
            {
                trace.subtrees_pruned += 1;
                continue;
            }
            let depth_before = dp.depth();
            let mut alive = true;
            for &b in self.label_of(c) {
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

    /// Reports the records ending at `node` when the DP's full row says
    /// they are within the threshold.
    pub(crate) fn emit(&self, node: NodeId, dp: &RowStackKernel, out: &mut Vec<Match>) {
        let records = self.records(node);
        if !records.is_empty() {
            if let Some(d) = dp.distance() {
                out.extend(records.iter().map(|&id| Match::new(id, d)));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{radix, trie};
    use simsearch_distance::levenshtein;
    use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config, Gen};

    /// Every record within `k` of `q`, by the reference DP: the oracle
    /// of the index tests.
    pub(crate) fn brute_force(ds: &Dataset, q: &[u8], k: u32) -> MatchSet {
        ds.iter()
            .filter_map(|(id, r)| {
                let d = levenshtein(q, r);
                (d <= k).then_some(Match::new(id, d))
            })
            .collect()
    }

    /// The layout's invariants, checked node by node against the records.
    fn check_layout<const C: bool>(tree: &PrefixTree<C>, ds: &Dataset) -> Result<(), String> {
        let n = tree.node_count() as u32;
        prop_assert_eq!(tree.nodes[0].end, n);
        let mut seen = vec![false; ds.len()];
        let mut next_record = 0;
        let mut path: Vec<u8> = Vec::new();
        let mut open: Vec<(NodeId, usize)> = Vec::new();
        for id in 0..n {
            let node = tree.nodes[id as usize];
            // Leave every subtree that ended before `id`; the one left on
            // top is the parent, whose interval must hold this one.
            while open
                .last()
                .is_some_and(|&(at, _)| tree.nodes[at as usize].end <= id)
            {
                let (_, depth) = open.pop().expect("a node is open");
                path.truncate(depth);
            }
            if let Some(&(parent, _)) = open.last() {
                prop_assert!(
                    node.end <= tree.nodes[parent as usize].end,
                    "node {} escapes",
                    id
                );
                prop_assert!(node.label_len > 0, "node {} has an empty label", id);
                prop_assert!(
                    C || node.label_len == 1,
                    "trie node {} has a long label",
                    id
                );
            }
            prop_assert!(id < node.end, "node {} is not in its own subtree", id);
            let depth = path.len();
            path.extend_from_slice(tree.label(id));
            open.push((id, depth));
            // The record ranges tile the arena in preorder.
            prop_assert_eq!(node.first_record, next_record);
            for &r in tree.records(id) {
                prop_assert_eq!(ds.get(r), path.as_slice());
                prop_assert!(
                    !std::mem::replace(&mut seen[r as usize], true),
                    "{} twice",
                    r
                );
            }
            next_record += tree.records(id).len() as u32;
            // Siblings ascend by their label's first byte; the subtree's
            // length bounds are exact.
            let firsts: Vec<u8> = tree.children(id).map(|c| tree.label(c)[0]).collect();
            prop_assert!(
                firsts.windows(2).all(|w| w[0] < w[1]),
                "node {}: {:?}",
                id,
                firsts
            );
            let below = tree.records[node.first_record as usize..]
                .iter()
                .take_while(|&&r| ds.get(r).starts_with(&path))
                .map(|&r| ds.record_len(r) as u32);
            let (min, max) = below.fold((u32::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
            if ds.is_empty() {
                prop_assert_eq!((node.min_len, node.max_len), (0, 0));
            } else {
                prop_assert_eq!((node.min_len, node.max_len), (min, max));
            }
        }
        prop_assert_eq!(next_record as usize, ds.len());
        prop_assert!(seen.iter().all(|&s| s), "a record is missing");
        Ok(())
    }

    /// Corpora with the shapes a prefix tree must get right: empty
    /// strings, duplicates, records that are prefixes of others, and a
    /// one-symbol alphabet.
    fn corpus() -> Gen<(Vec<Vec<u8>>, Vec<u8>)> {
        let mixed = gen::bytes_from(b"abcAB\xC3", 0..9);
        let unary = gen::bytes_from(b"a", 0..7);
        let words = gen::one_of(vec![
            gen::vec_of(mixed.clone(), 0..30),
            gen::vec_of(unary.clone(), 0..30),
        ]);
        gen::zip(words, gen::one_of(vec![mixed, unary])).map(|(mut words, query)| {
            let extra: Vec<Vec<u8>> = words
                .iter()
                .step_by(3)
                .flat_map(|w| [w.clone(), w[..w.len() / 2].to_vec()])
                .collect();
            words.extend(extra);
            (words, query)
        })
    }

    #[test]
    fn preorder_layout_holds_and_all_searches_agree() {
        check(
            "preorder_layout_holds_and_all_searches_agree",
            Config::cases(300).seed(0x0000_F1A7),
            &corpus(),
            |(words, query)| {
                let ds = Dataset::from_records(words);
                let radix = radix::build(&ds);
                let trie = trie::build(&ds);
                check_layout(&radix, &ds)?;
                check_layout(&trie, &ds)?;
                for k in 0..=4 {
                    let expected = brute_force(&ds, query, k);
                    prop_assert_eq!(radix.search(query, k), expected.clone());
                    prop_assert_eq!(radix.search_paper(query, k), expected.clone());
                    prop_assert_eq!(trie.search(query, k), expected.clone());
                    prop_assert_eq!(trie.search_paper(query, k), expected);
                }
                Ok(())
            },
        );
    }
}
