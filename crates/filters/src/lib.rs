//! # simsearch-filters
//!
//! Candidate filters for the `simsearch` workspace — sound reject tests
//! that run before any edit-distance computation.
//!
//! A filter never rejects a true match (soundness is covered by unit and
//! property tests); it may admit false positives, which the distance
//! kernel then eliminates. Provided filters:
//!
//! * [`length::LengthFilter`] — the paper's §3.2 length filter, eq. (5);
//! * [`frequency::FrequencyFilter`] — the paper's §6 frequency vectors;
//! * [`chain::FilterChain`] — conjunctive composition.
//!
//! [`qgram::collect_profile`] is the q-gram profile the q-gram index
//! baseline builds its postings and probes from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod frequency;
pub mod length;
pub mod qgram;

pub use chain::{FilterChain, PreparedChain};
pub use frequency::FrequencyFilter;
pub use length::LengthFilter;

use simsearch_data::RecordId;

/// A dataset-bound filter that can be prepared for one query.
pub trait DynFilter: Send + Sync {
    /// Stable short name for reports.
    fn name(&self) -> &'static str;

    /// Prepares per-query state (computed once, probed per candidate).
    fn prepare<'a>(&'a self, query: &[u8], k: u32) -> Box<dyn PreparedFilter + 'a>;
}

/// Per-query prepared state of a filter.
pub trait PreparedFilter {
    /// Whether record `id` might still match (false = provably not).
    fn admits(&self, id: RecordId) -> bool;
}
