//! The paper's compressed index (§4.2): a radix trie — the prefix tree
//! with single-child chains merged into labelled edges.

mod builder;
mod node;
mod search;

pub use builder::build;
pub use node::{NodeId, RadixNode, RadixTrie, ROOT};
