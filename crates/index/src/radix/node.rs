//! Radix-trie storage: nodes in one arena, edge labels in one shared
//! byte arena.
//!
//! The compression goal of the paper's §4.2 — "create only as many nodes
//! as needed" — is achieved structurally: a node exists only where a
//! branch or a terminal record exists, so chains of single-child nodes
//! collapse into one labelled edge (Figure 4: Berlin/Bern/Ulm shrinks
//! from 11 nodes to 5).

use simsearch_data::RecordId;

/// Index of a node within the radix arena.
pub type NodeId = u32;

/// The arena index of the root node.
pub const ROOT: NodeId = 0;

/// One radix-trie node. The edge *leading into* the node carries a label
/// (empty for the root); children are keyed by their label's first byte.
#[derive(Debug, Clone)]
pub struct RadixNode {
    /// Offset of this node's incoming edge label in the label arena.
    pub(crate) label_start: u32,
    /// Length of the incoming edge label.
    pub(crate) label_len: u32,
    /// Sorted `(first label byte, child node)` pairs.
    pub(crate) children: Vec<(u8, NodeId)>,
    /// Records whose full string ends at this node.
    pub(crate) records: Vec<RecordId>,
    /// Minimal record length in this subtree.
    pub(crate) min_len: u32,
    /// Maximal record length in this subtree.
    pub(crate) max_len: u32,
}

impl RadixNode {
    /// Sorted `(byte, child)` pairs.
    pub fn children(&self) -> &[(u8, NodeId)] {
        &self.children
    }

    /// Records terminating at this node.
    pub fn records(&self) -> &[RecordId] {
        &self.records
    }

    /// Minimal record length below (and at) this node.
    pub fn min_len(&self) -> u32 {
        self.min_len
    }

    /// Maximal record length below (and at) this node.
    pub fn max_len(&self) -> u32 {
        self.max_len
    }
}

/// A compressed (radix) prefix tree over a dataset.
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
#[derive(Debug, Clone)]
pub struct RadixTrie {
    pub(crate) nodes: Vec<RadixNode>,
    pub(crate) labels: Vec<u8>,
    pub(crate) record_count: usize,
}

impl RadixTrie {
    /// Number of nodes, including the root (the Figure 4 metric).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of indexed records.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> &RadixNode {
        &self.nodes[id as usize]
    }

    /// The incoming edge label of a node.
    pub fn label(&self, node: &RadixNode) -> &[u8] {
        let s = node.label_start as usize;
        &self.labels[s..s + node.label_len as usize]
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<RadixNode>()
            + self.labels.len()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.children.len() * std::mem::size_of::<(u8, NodeId)>()
                        + n.records.len() * std::mem::size_of::<RecordId>()
                })
                .sum::<usize>()
    }
}
