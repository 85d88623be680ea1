//! `simsearchd`: a std-only query service over the similarity-search
//! engines — wire protocol, admission control, and a metrics registry.
//!
//! The offline crates answer "how fast is one scan over one workload";
//! this crate answers "what does the scan look like as a *service*":
//! a long-lived process that prepares its engine once, runs each
//! admitted request on the connection handler that read it (under one
//! of a fixed number of execution permits), refuses load it cannot
//! carry (`BUSY`, never a hang), and reports latency histograms
//! through `STATS` in the same JSON shape the testkit bench harness
//! emits. The engine is the
//! [`SearchEngine`](simsearch_core::SearchEngine) that
//! `SearchEngine::build_with` returns, held as it is: every verb calls
//! the `Backend` trait behind it, and [`Metrics`] mirrors its counters.
//!
//! Start a server and talk to it:
//!
//! ```
//! use simsearch_serve::{spawn, Client, ServerConfig};
//! use simsearch_core::EngineKind;
//! use simsearch_scan::SeqVariant;
//! use simsearch_data::Dataset;
//!
//! let dataset = Dataset::from_records(["Berlin", "Bern", "Bonn"]);
//! let server = spawn(
//!     dataset,
//!     EngineKind::Scan(SeqVariant::V7SortedPrefix),
//!     ServerConfig::default(), // port 0: ephemeral
//! )
//! .unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! assert!(client.health().unwrap());
//! let reply = client.query(b"Berlin", 1).unwrap();
//! client.shutdown().unwrap();
//! server.join(); // every server thread is joined here
//! # drop(reply);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batch::BatchConfig;
pub use client::Client;
pub use metrics::Metrics;
pub use server::{spawn, ServerConfig, ServerHandle};

/// Schema tag of the `STATS` JSON document — deliberately the testkit
/// bench schema, so trajectory readers consume server snapshots too.
pub const STATS_SCHEMA: &str = "simsearch-bench-v2";
