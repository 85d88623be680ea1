//! # simsearch-index
//!
//! Index structures for the `simsearch` workspace — the "well-known
//! index" side of the paper plus the planner's filter-and-verify baseline:
//!
//! * [`trie`] — the paper's base index (§4.1): uncompressed prefix tree
//!   with per-node min/max subtree lengths and incremental-DP descent;
//! * [`radix`] — the paper's compressed index (§4.2): radix trie with
//!   labelled edges;
//! * [`tree`] — the flat preorder layout both prefix trees are stored in;
//! * [`qgram`] — inverted q-gram filter-and-verify baseline from the
//!   surrounding literature.
//!
//! All structures answer the same question — every record within edit
//! distance `k` of a query — and return a normalized
//! [`simsearch_data::MatchSet`], so cross-validation against the
//! sequential scan is an equality check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod qgram;
pub mod radix;
pub mod trace;
pub mod tree;
pub mod trie;

pub use qgram::QgramIndex;
pub use radix::RadixTrie;
pub use trace::SearchTrace;
pub use trie::Trie;
