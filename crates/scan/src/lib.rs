//! # simsearch-scan
//!
//! The paper's sequential-scan side (§3): the six-rung optimization
//! ladder that turns a naive full-matrix scan into the solution that
//! beats the index on short strings, plus two extensions: the V7
//! sorted-prefix scan (LCP-resumable row-stack DP over an arena sorted
//! by length, then by bytes) and the V8 bit-parallel sweep (the
//! same sorted arena, with the DP column packed into Myers words and
//! checkpointed at 64-cell block granularity).
//!
//! * [`variant::SeqVariant`] — the rungs, labelled as in Tables III/VII;
//! * [`scanner::SequentialScan`] — one engine executing any rung.
//!
//! Every rung returns normalized [`simsearch_data::MatchSet`]s, and the
//! crate's tests assert all rungs agree with each other and with brute
//! force — the paper's own correctness methodology (§3.7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scanner;
pub mod variant;

pub use scanner::{
    flat_search_where, v7_scan_view_range, v7_search_view, v8_scan_view_range, v8_search_view,
    SequentialScan,
};
pub use variant::SeqVariant;
