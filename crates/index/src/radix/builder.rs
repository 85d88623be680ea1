//! Radix-trie construction.
//!
//! Built directly from the sorted record list (never materializing the
//! uncompressed tree — at DNA scale the uncompressed trie is the very
//! index-size problem the paper's related work §2.3 discusses). For a
//! sorted group of records sharing a prefix of length `depth`, the common
//! continuation of the whole group is `lcp(first, last)`, which becomes
//! one labelled edge; branching happens only where the group splits.

use super::node::{NodeId, RadixNode, RadixTrie, ROOT};
use simsearch_data::{Dataset, RecordId};

/// Builds the compressed prefix tree for `dataset`.
pub fn build(dataset: &Dataset) -> RadixTrie {
    // Sort record ids by their bytes; groups become contiguous ranges.
    let mut order: Vec<RecordId> = (0..dataset.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| dataset.get(a).cmp(dataset.get(b)));

    let mut trie = RadixTrie {
        nodes: vec![RadixNode {
            label_start: 0,
            label_len: 0,
            children: Vec::new(),
            records: Vec::new(),
            min_len: dataset.min_len().unwrap_or(0) as u32,
            max_len: dataset.max_len().unwrap_or(0) as u32,
        }],
        labels: Vec::new(),
        record_count: dataset.len(),
    };
    if dataset.is_empty() {
        trie.nodes[0].min_len = 0;
        return trie;
    }
    fill_node(&mut trie, dataset, ROOT, &order, 0);
    trie
}

/// Populates `node` from the sorted record group `group`, all of which
/// share a prefix of length `depth` (already consumed by edges above).
fn fill_node(
    trie: &mut RadixTrie,
    dataset: &Dataset,
    node: NodeId,
    group: &[RecordId],
    depth: usize,
) {
    // Subtree length bounds.
    {
        let min_len = group
            .iter()
            .map(|&id| dataset.record_len(id) as u32)
            .min()
            .expect("group is non-empty");
        let max_len = group
            .iter()
            .map(|&id| dataset.record_len(id) as u32)
            .max()
            .expect("group is non-empty");
        let n = &mut trie.nodes[node as usize];
        n.min_len = min_len;
        n.max_len = max_len;
    }
    // Records ending exactly here (sorted order puts them first).
    let mut rest = group;
    while let Some((&id, tail)) = rest.split_first() {
        if dataset.record_len(id) == depth {
            trie.nodes[node as usize].records.push(id);
            rest = tail;
        } else {
            break;
        }
    }
    // Group the remainder by the byte at `depth`, take the group LCP as
    // the edge label, and recurse.
    while !rest.is_empty() {
        let b = dataset.get(rest[0])[depth];
        let split = rest.partition_point(|&id| dataset.get(id)[depth] == b);
        let (sub, tail) = rest.split_at(split);
        rest = tail;
        // LCP of a sorted group = LCP of its first and last member.
        let first = dataset.get(sub[0]);
        let last = dataset.get(sub[sub.len() - 1]);
        let max_lcp = first.len().min(last.len());
        let mut lcp = depth + 1;
        while lcp < max_lcp && first[lcp] == last[lcp] {
            lcp += 1;
        }
        let label_start = trie.labels.len() as u32;
        trie.labels.extend_from_slice(&first[depth..lcp]);
        let child = trie.nodes.len() as NodeId;
        trie.nodes.push(RadixNode {
            label_start,
            label_len: (lcp - depth) as u32,
            children: Vec::new(),
            records: Vec::new(),
            min_len: u32::MAX,
            max_len: 0,
        });
        trie.nodes[node as usize].children.push((b, child));
        fill_node(trie, dataset, child, sub, lcp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::node::ROOT;

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
    fn edge_labels_reconstruct_records() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm", "Bern"]);
        let radix = build(&ds);
        // Walk every path and reconstruct terminal strings.
        fn walk(
            t: &RadixTrie,
            node: super::NodeId,
            prefix: &mut Vec<u8>,
            out: &mut Vec<(RecordId, Vec<u8>)>,
        ) {
            let n = t.node(node);
            prefix.extend_from_slice(t.label(n));
            for &id in n.records() {
                out.push((id, prefix.clone()));
            }
            for &(_, c) in n.children() {
                walk(t, c, prefix, out);
            }
            prefix.truncate(prefix.len() - t.label(n).len());
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
        let root = radix.node(ROOT);
        assert_eq!(root.min_len(), 1);
        assert_eq!(root.max_len(), 4);
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
}
