//! # simsearch-distance
//!
//! Edit-distance kernels for the `simsearch` workspace — the reproduction
//! of *"Trying to outperform a well-known index with a sequential scan"*
//! (EDBT/ICDT 2013).
//!
//! The paper's scan ladder is, at its core, a sequence of increasingly
//! careful implementations of one recurrence (§2.2, eqs. (2)–(4)). This
//! crate provides every rung's kernel plus the extensions:
//!
//! | module | kernel | role |
//! |---|---|---|
//! | [`full`] | full matrix (fresh allocation / reusable buffer) | paper rung 1, test oracle, Figure 1 |
//! | [`early_abort`] | length filter + decisive-diagonal abort (optionally counting cells) | paper rung 2 (§3.2, Figure 2), diagnostics |
//! | [`banded`] | Ukkonen band + per-row abort | extension; live memtable scan, q-gram verification |
//! | [`myers`], [`myers_block`] | bit-parallel (≤64 / blocked) | extension; the restarted-Myers row of the bit-parallel ablation |
//! | [`row_stack`] | row-stack DP (banded or full-width), resumable at a shared prefix, counting | trie descent (§4.1) and sorted-prefix scan (rung V7) |
//! | [`myers_stack`] | resumable blocked bit-parallel (LCP reuse at word granularity) | bit-parallel sweep (rung V8) |
//! | [`prefix_bound`] | length-interval bounds | trie pruning (§4.1, eqs. (9)/(10)) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banded;
pub mod early_abort;
pub mod full;
pub mod matrix;
pub mod myers;
pub mod myers_block;
pub mod myers_stack;
pub mod prefix_bound;
pub mod row_stack;

pub use banded::{ed_within_banded, ed_within_banded_with};
pub use early_abort::{ed_within_early_abort, ed_within_early_abort_with};
pub use full::{levenshtein, levenshtein_full_with, levenshtein_naive_alloc};
pub use matrix::DpMatrix;
pub use myers::Myers64;
pub use myers_block::{MyersAny, MyersBlock, PatternError};
pub use myers_stack::MyersStackKernel;
pub use row_stack::RowStackKernel;
