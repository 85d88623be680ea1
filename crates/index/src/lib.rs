//! # simsearch-index
//!
//! Index structures for the `simsearch` workspace — the "well-known
//! index" side of the paper plus the baselines and future-work structures:
//!
//! * [`trie`] — the paper's base index (§4.1): uncompressed prefix tree
//!   with per-node min/max subtree lengths and incremental-DP descent;
//! * [`radix`] — the paper's compressed index (§4.2): radix trie with
//!   labelled edges, optional frequency-vector annotations (§6);
//! * [`qgram`] — inverted q-gram filter-and-verify baseline from the
//!   surrounding literature;
//! * [`length_bucket`] — the paper's §6 "sorting by length" future work;
//! * [`suffix`] — suffix array with query partitioning (the related
//!   work's second approach, §2.3);
//! * [`bktree`] — the classic metric-space index (Burkhard–Keller),
//!   another well-known baseline.
//!
//! All structures answer the same question — every record within edit
//! distance `k` of a query — and return a normalized
//! [`simsearch_data::MatchSet`], so cross-validation against the
//! sequential scan is an equality check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bktree;
pub mod length_bucket;
pub mod qgram;
pub mod radix;
pub mod suffix;
pub mod trace;
pub mod trie;

pub use bktree::BkTree;
pub use length_bucket::LengthBuckets;
pub use qgram::QgramIndex;
pub use radix::RadixTrie;
pub use suffix::{SuffixArray, SuffixIndex};
pub use trace::SearchTrace;
pub use trie::Trie;
