//! # simsearch-data
//!
//! Dataset substrate for the `simsearch` workspace — the reproduction of
//! *"Trying to outperform a well-known index with a sequential scan"*
//! (Hentschel, Meyer, Rommel; EDBT/ICDT 2013).
//!
//! This crate owns everything about the *data* the paper searches:
//!
//! * [`Dataset`] — the flat byte-arena record store every search
//!   implementation consumes;
//! * [`Alphabet`] — byte-symbol sets (Table I's "#Symbols" column);
//! * [`generate`] — deterministic synthetic generators replacing the
//!   unavailable EDBT/ICDT 2013 competition files (city names and DNA
//!   reads with matching statistical profiles);
//! * [`workload`] — `(query, threshold)` workload construction with the
//!   paper's threshold cycles;
//! * [`io`] — competition-format file readers/writers;
//! * [`freq`] — frequency vectors (paper §6 future work, used by the
//!   filter crate);
//! * [`sorted`] — length-major sorted arena view with an LCP array
//!   (the V7 sorted-prefix scan's preprocessing) and the candidate
//!   selection of the V8 sweep;
//! * [`partition`] — PASS-JOIN's even partition, shared by the view's
//!   segment postings and the similarity join;
//! * [`rng`] — the self-contained deterministic PRNG behind it all.
//!
//! Strings are treated as byte sequences throughout, mirroring the
//! paper's C++ `std::string` semantics; edit distances operate on bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod dataset;
pub mod freq;
pub mod generate;
pub mod io;
pub mod matches;
pub mod partition;
pub mod rng;
pub mod sorted;
pub mod stats;
pub mod workload;

pub use alphabet::Alphabet;
pub use dataset::{Dataset, RecordId};
pub use freq::FreqVector;
pub use generate::{CityGenerator, DnaGenerator};
pub use matches::{Match, MatchSet};
pub use partition::{even_partition, even_partitions};
pub use rng::Xoshiro256;
pub use sorted::SortedView;
pub use stats::{DatasetStats, StatsSnapshot};
pub use workload::{QueryRecord, Workload, WorkloadSpec, CITY_THRESHOLDS, DNA_THRESHOLDS};
