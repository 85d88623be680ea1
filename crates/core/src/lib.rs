//! # simsearch-core
//!
//! The engine layer of the `simsearch` workspace: one interface over
//! every solution the paper evaluates, plus the measurement and
//! verification machinery its methodology prescribes.
//!
//! * [`backend`] — the [`backend::Backend`] trait: the one execution
//!   seam over every scan rung, index structure and composite, with
//!   capability hooks (replan, mutation) defaulting to no-ops, plus
//!   the one planner-routed type, [`backend::AutoBackend`];
//! * [`planner`] — the adaptive [`planner::Planner`]: cost hints from
//!   dataset statistics, one explainable [`planner::PlanDecision`] per
//!   query class;
//! * [`engine`] — [`engine::SearchEngine`], the one engine handle:
//!   [`engine::SearchEngine::build_with`] maps an [`engine::EngineKind`]
//!   (each scan rung (§3), each index rung (§4), the q-gram baseline,
//!   the planner, shards, live ingest) to a prepared backend, which the
//!   daemon, the CLI, the benches and the oracles all hold;
//! * [`verify`] — cross-validation of engines against a reference
//!   (§3.7 / §4.4 correctness methodology);
//! * [`experiment`] — wall-clock measurement of 100/500/1,000-query
//!   workload prefixes (§5.2 protocol);
//! * [`report`] — table rendering in the shape of the paper's appendix;
//! * [`presets`] — the standard synthetic datasets and workloads;
//! * [`join`] — the similarity self-join (the venue's other competition
//!   track): exact PASS-JOIN over an inverted segment index, and the
//!   nested-loop reference it is tested against;
//! * [`topk`] — nearest-neighbour search by iterative deepening;
//! * [`lsm`] — live ingest: [`lsm::LiveEngine`] puts an append-only
//!   memtable and tombstone set in front of immutable sorted segments, so
//!   the frozen-dataset machinery serves a mutable workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod experiment;
pub mod join;
pub mod lsm;
pub mod planner;
pub mod presets;
pub mod report;
pub mod sharded;
pub mod topk;
pub mod verify;

pub use backend::{
    AutoBackend, Backend, BackendDiag, FilteredScanBackend, IndexBackend, ObservationGrid,
    PlanReport, Probe,
};
pub use engine::{EngineKind, IdxVariant, SearchEngine};
pub use lsm::{LiveEngine, LiveStats, LsmConfig, MutableBackend};
pub use sharded::{
    merge_match_sets, partition_ids, remap_to_global, route_record, ShardBy, ShardStats,
    ShardedBackend,
};
pub use planner::{
    BackendChoice, CellSample, CostEstimate, Observation, PlanDecision, Planner, QueryClass,
    MIN_CELL_OBSERVATIONS,
};
pub use join::{
    even_partitions, parallel_pass_join, pass_join, pass_join_with_stats, JoinPair, JoinStats,
};
pub use topk::{search_top_k, search_top_k_with};
pub use experiment::{
    measure_extrapolated, measure_per_threshold, measure_prefixes, Measurement, QUERY_COUNTS,
};
pub use report::Table;
pub use verify::{compare_results, cross_validate, Mismatch};

// Re-export the vocabulary types so `simsearch_core` is self-sufficient
// for most users.
pub use simsearch_data::{
    Dataset, Match, MatchSet, QueryRecord, RecordId, StatsSnapshot, Workload,
};
pub use simsearch_distance::KernelKind;
pub use simsearch_parallel::Strategy;
pub use simsearch_scan::SeqVariant;
