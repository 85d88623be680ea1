//! The `simsearchd` metrics registry: atomic counters, gauges, and
//! log-linear histograms, snapshotted into the testkit's bench JSON
//! schema by `STATS`.
//!
//! Everything on the hot path is a relaxed atomic operation — one
//! `fetch_add` per counter bump, three per histogram observation — so
//! recording a metric never takes a lock and never blocks a handler.
//! Snapshots are taken while traffic continues; they are internally
//! *approximately* consistent (counters may be a few events apart),
//! which is the standard contract for serving metrics.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use simsearch_core::{Backend, LiveStats};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for counters mirroring a monotone source
    /// of truth elsewhere (the live engine's own compaction/insert
    /// counters), where publishing is an idempotent copy rather than an
    /// accumulation, exactly like [`PlanCounters::publish`].
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (queue depth, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge(AtomicUsize);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: usize) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: each power of two is split into 16 linear
/// sub-buckets, bounding the relative quantile error at 1/16 ≈ 6.25%.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16
/// Values below `SUB` get exact single-value buckets; above, one bucket
/// per (exponent, sub-bucket) pair up to `u64::MAX`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-size log-linear histogram over `u64` values (latencies in
/// nanoseconds, queue depths — any non-negative quantity).
///
/// `observe` is three relaxed atomic RMWs; `quantile` walks at most
/// [`BUCKETS`] counters. Quantiles are upper bounds of the hit bucket,
/// so `quantile(q)` ≥ the true q-quantile and overshoots by at most one
/// sub-bucket width (6.25% relative, exact below 16).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = ((v >> (exp - SUB_BITS)) - SUB as u64) as usize;
    SUB + ((exp - SUB_BITS) as usize) * SUB + sub
}

/// Largest value that maps to `index` (the reported representative).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let exp = SUB_BITS + ((index - SUB) / SUB) as u32;
    let sub = ((index - SUB) % SUB) as u64;
    let lower = (SUB as u64 + sub) << (exp - SUB_BITS);
    // Width-minus-one first: the top bucket's upper bound is u64::MAX
    // exactly, so `lower + width` would overflow.
    lower + ((1u64 << (exp - SUB_BITS)) - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array from a vec.
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("vec built with BUCKETS elements"));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Largest recorded value (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The q-quantile by nearest rank over bucket upper bounds
    /// (0 when empty). `quantile(0.0)` is the smallest occupied bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        // Counter updates racing the walk can leave `seen < rank`; the
        // max is the correct upper bound then.
        self.max()
    }
}

/// Per-backend query-routing counters for planner-driven engines.
///
/// The label set (backend names, in planner-candidate order) is fixed
/// at first publish and never changes afterwards, so the slots can be
/// `OnceLock`-initialised once and updated with plain relaxed stores:
/// the connection handlers *overwrite* each slot with the engine's own
/// monotone counter value rather than accumulating deltas, which makes
/// publishing idempotent and race-free across handlers (the counters
/// only ever grow, so any interleaving of stores leaves a value that
/// was true at some recent instant — the standard serving-metrics
/// contract).
#[derive(Default)]
pub struct PlanCounters {
    slots: OnceLock<Vec<(String, AtomicU64)>>,
}

impl PlanCounters {
    /// Publishes the engine's current `(backend, routed)` counters.
    /// The first call fixes the label set; later calls overwrite the
    /// matching slots by position (the engine reports a stable order).
    pub fn publish(&self, counts: &[(&str, u64)]) {
        self.publish_values(
            || counts.iter().map(|(name, _)| name.to_string()).collect(),
            counts.iter().map(|&(_, value)| value),
        );
    }

    /// [`PlanCounters::publish`] for callers whose labels are costly to
    /// build (per-shard `s{i}.{arm}` strings): `labels` runs on the
    /// first call only, every later call just stores `values` by
    /// position.
    pub fn publish_values(
        &self,
        labels: impl FnOnce() -> Vec<String>,
        values: impl IntoIterator<Item = u64>,
    ) {
        let slots = self.slots.get_or_init(|| {
            labels()
                .into_iter()
                .map(|name| (name, AtomicU64::new(0)))
                .collect()
        });
        for ((_, slot), value) in slots.iter().zip(values) {
            slot.store(value, Ordering::Relaxed);
        }
    }

    /// Current `(backend, routed)` values (empty before first publish).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.slots
            .get()
            .map(|slots| {
                slots
                    .iter()
                    .map(|(name, slot)| (name.clone(), slot.load(Ordering::Relaxed)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True before anything was published (fixed-backend engines).
    pub fn is_empty(&self) -> bool {
        self.slots.get().is_none()
    }
}

/// The registry: every metric `simsearchd` exposes through `STATS`.
///
/// Field groups mirror the request lifecycle: admission (accepted /
/// rejected / waiting for a permit), execution (count, latency, DP
/// cells), and replies by outcome.
#[derive(Default)]
pub struct Metrics {
    /// Requests admitted, i.e. not refused `BUSY` (every verb that runs
    /// on the engine: QUERY, TOPK, INSERT, DELETE, JOIN).
    pub requests_admitted: Counter,
    /// Requests rejected with `BUSY` (too many handlers already waiting
    /// for a permit), plus connections closed over the `conn_threads`
    /// cap.
    pub rejected_busy: Counter,
    /// Requests dropped with `TIMEOUT` (deadline passed while waiting
    /// for a permit).
    pub dropped_timeout: Counter,
    /// Malformed or unservable frames answered with `ERR`.
    pub replied_error: Counter,
    /// Successful `OK` match replies.
    pub replied_ok: Counter,
    /// Requests executed (one tick per request that got its permit).
    pub batches: Counter,
    /// Connection handlers waiting for an execution permit right now.
    pub queue_depth: Gauge,
    /// End-to-end request latency (admission to reply), nanoseconds.
    pub latency_ns: Histogram,
    /// DP cells computed by the engine's kernel, when the kernel counts
    /// them (the V7 row-stack diagnostics; 0 for kernels that don't).
    pub dp_cells: Counter,
    /// Client connections accepted.
    pub connections: Counter,
    /// Queries routed per backend by the adaptive planner (empty for
    /// fixed-backend engines; published after each request). Sharded
    /// engines add one `s{i}.{arm}` entry per shard and arm beside the
    /// cross-shard aggregates.
    pub plan_decisions: PlanCounters,
    /// Cumulative matches returned per shard (`s{i}` labels; empty for
    /// unsharded engines).
    pub shard_matches: PlanCounters,
    /// Per-shard LSM gauges for sharded-live engines
    /// (`s{i}.memtable_len` / `s{i}.segments` / `s{i}.tombstones`
    /// labels; empty otherwise). The entries sum to the aggregate
    /// `memtable_len` / `segments` / `tombstones` gauges.
    pub live_shards: PlanCounters,
    /// Live engines: current memtable length (0 for frozen engines).
    pub memtable_len: Gauge,
    /// Live engines: current immutable segment count.
    pub segments: Gauge,
    /// Live engines: tombstones not yet elided by compaction.
    pub tombstones: Gauge,
    /// Live engines: compaction steps completed (flushes + merges);
    /// mirrored from the engine's own counter via [`Counter::set`].
    pub compactions: Counter,
    /// Live engines: total `INSERT`s accepted (mirrored).
    pub inserts: Counter,
    /// Live engines: total `DELETE`s that hit a live record (mirrored).
    pub deletes: Counter,
    /// Replan ticks that swapped a fresh decision table into the
    /// engine (ticks that found too few observations don't count).
    pub replans: Counter,
    /// The engine's current plan epoch: 0 until the first swap, +1 per
    /// accepted swap. Mirrored from the engine via [`Counter::set`].
    pub plan_epoch: Counter,
    /// Cumulative measured wall-clock nanoseconds per routed arm, from
    /// the engine's observation grid (empty for fixed-backend engines).
    /// These are the pooled latency totals the replan tick derives its
    /// cost multipliers from, exposed so an operator can see *why* the
    /// table moved.
    pub arm_nanos: PlanCounters,
    /// `JOIN` requests served with a pair stream.
    pub joins: Counter,
    /// Join result pairs streamed to clients, cumulative.
    pub join_pairs_emitted: Counter,
    /// Join candidate pairs handed to the verification kernel,
    /// cumulative.
    pub join_candidates_verified: Counter,
    /// Segment-index shape of the most recent join: distinct
    /// (length, position, bytes) buckets.
    pub join_seg_buckets: Gauge,
    /// Segment-index shape of the most recent join: postings
    /// (one per record per segment).
    pub join_seg_postings: Gauge,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirrors the engine's replanning state: the current plan epoch and
    /// (for unsharded planner engines) the pooled per-arm observed
    /// nanoseconds the next replan will derive its multipliers from.
    pub fn publish_replan(&self, backend: &dyn Backend) {
        self.plan_epoch.set(backend.plan_epoch());
        if let Some(nanos) = backend.arm_nanos() {
            self.arm_nanos.publish(&nanos);
        }
    }

    /// Mirrors the engine's routing and structural state; the connection
    /// handlers call it after every executed request. `plan_decisions`
    /// gets the cross-shard aggregate per arm plus one `s{i}.{arm}` entry
    /// per shard and arm, `shard_matches` per-shard cumulative match
    /// counts, and live engines their LSM gauges (aggregate, plus
    /// `s{i}.*` per shard — the aggregates are sums over shards, so the
    /// per-shard entries sum to them by construction). Each shard is read
    /// once, and the label strings are built by the first call only —
    /// later calls store values.
    pub fn publish(&self, backend: &dyn Backend) {
        let shards = backend.shard_stats();
        let per_shard = shards.as_deref().unwrap_or_default();
        if let Some(total) = backend.plan_counts() {
            let shard_counts = |i: usize| per_shard[i].plan_counts.iter().flatten();
            self.plan_decisions.publish_values(
                || {
                    let mut labels: Vec<String> =
                        total.iter().map(|(arm, _)| arm.to_string()).collect();
                    for i in 0..per_shard.len() {
                        labels.extend(shard_counts(i).map(|(arm, _)| format!("s{i}.{arm}")));
                    }
                    labels
                },
                total
                    .iter()
                    .map(|&(_, routed)| routed)
                    .chain((0..per_shard.len()).flat_map(|i| shard_counts(i).map(|&(_, c)| c))),
            );
        }
        if shards.is_some() {
            self.shard_matches.publish_values(
                || (0..per_shard.len()).map(|i| format!("s{i}")).collect(),
                per_shard.iter().map(|s| s.matches),
            );
        }
        let Some(writer) = backend.as_mutable() else {
            return;
        };
        let live_shards = || per_shard.iter().filter_map(|s| s.live.as_ref());
        let stats = match shards {
            Some(_) => live_shards().fold(LiveStats::default(), |mut sum, s| {
                sum.accumulate(s);
                sum
            }),
            None => writer.live_stats(),
        };
        self.memtable_len.set(stats.memtable_len);
        self.segments.set(stats.segments);
        self.tombstones.set(stats.tombstones);
        self.compactions.set(stats.compactions);
        self.inserts.set(stats.inserts);
        self.deletes.set(stats.deletes);
        if shards.is_some() {
            self.live_shards.publish_values(
                || {
                    (0..per_shard.len())
                        .flat_map(|i| {
                            ["memtable_len", "segments", "tombstones"]
                                .map(|gauge| format!("s{i}.{gauge}"))
                        })
                        .collect()
                },
                live_shards().flat_map(|s| {
                    [
                        s.memtable_len as u64,
                        s.segments as u64,
                        s.tombstones as u64,
                    ]
                }),
            );
        }
    }

    /// Renders the `STATS` snapshot: single-line JSON in the testkit
    /// bench trajectory shape (`schema` = `simsearch-bench-v2`, a
    /// `workload` object, and histogram summaries under `results`),
    /// extended with a `counters` object for the non-histogram metrics.
    /// Readers of the bench schema can consume the subset unchanged.
    pub fn stats_json(&self, engine: &str, dataset: &str, records: usize, started: Instant) -> String {
        let h = &self.latency_ns;
        let latency = format!(
            "{{\"name\": \"request_latency\", \"iters\": 1, \"samples\": {}, \
             \"min_ns\": {}, \"mean_ns\": {}, \"median_ns\": {}, \
             \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            h.count(),
            h.quantile(0.0),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max(),
        );
        let counters = [
            ("requests_admitted", self.requests_admitted.get()),
            ("rejected_busy", self.rejected_busy.get()),
            ("dropped_timeout", self.dropped_timeout.get()),
            ("replied_error", self.replied_error.get()),
            ("replied_ok", self.replied_ok.get()),
            ("batches", self.batches.get()),
            ("queue_depth", self.queue_depth.get() as u64),
            ("dp_cells", self.dp_cells.get()),
            ("connections", self.connections.get()),
            ("uptime_ms", started.elapsed().as_millis() as u64),
            ("memtable_len", self.memtable_len.get() as u64),
            ("segments", self.segments.get() as u64),
            ("tombstones", self.tombstones.get() as u64),
            ("compactions", self.compactions.get()),
            ("inserts", self.inserts.get()),
            ("deletes", self.deletes.get()),
            ("replans", self.replans.get()),
            ("plan_epoch", self.plan_epoch.get()),
            ("joins", self.joins.get()),
            ("join_pairs_emitted", self.join_pairs_emitted.get()),
            ("join_candidates_verified", self.join_candidates_verified.get()),
            ("join_seg_buckets", self.join_seg_buckets.get() as u64),
            ("join_seg_postings", self.join_seg_postings.get() as u64),
        ];
        let labelled = [
            ("plan_decisions", &self.plan_decisions),
            ("arm_nanos", &self.arm_nanos),
            ("shard_matches", &self.shard_matches),
            ("live_shards", &self.live_shards),
        ]
        .map(|(name, map)| format!("\"{name}\": {{{}}}", json_fields(map.snapshot())));
        format!(
            "{{\"schema\": \"{}\", \"group\": \"simsearchd\", \
             \"workload\": {{\"dataset\": \"{}\", \"records\": {records}, \
             \"queries\": {}, \"thresholds\": \"engine={}\"}}, \
             \"results\": [{latency}], \
             \"counters\": {{{}, {}}}}}",
            crate::STATS_SCHEMA,
            json_escape(dataset),
            self.requests_admitted.get(),
            json_escape(engine),
            json_fields(counters),
            labelled.join(", "),
        )
    }
}

/// Renders `"name": value, …` — the inside of a JSON object of
/// integers, in the given order.
fn json_fields<N: AsRef<str>>(fields: impl IntoIterator<Item = (N, u64)>) -> String {
    fields
        .into_iter()
        .map(|(name, value)| format!("\"{}\": {value}", json_escape(name.as_ref())))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_core::{EngineKind, Probe, SearchEngine, SeqVariant, ShardBy};
    use simsearch_data::rng::Xoshiro256;
    use simsearch_data::Dataset;

    fn dataset() -> Dataset {
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm", "Berlingen", ""])
    }

    /// The daemon's build: calibrated with the default probe.
    fn served(ds: &Dataset, kind: EngineKind) -> SearchEngine<'_> {
        SearchEngine::build_with(ds, kind, Probe::Default)
    }

    #[test]
    fn publish_replan_mirrors_the_plan_epoch_and_arm_nanos() {
        let ds = dataset();
        let auto = served(&ds, EngineKind::Auto { threads: 1 });
        let backend = auto.backend();
        for _ in 0..simsearch_core::MIN_CELL_OBSERVATIONS {
            let _ = backend.search_counting(b"Berlin", 1);
        }
        assert_eq!(backend.replan(), 1, "grid filled: the swap is accepted");
        let metrics = Metrics::new();
        metrics.publish_replan(backend);
        assert_eq!(metrics.plan_epoch.get(), 1);
        let nanos = metrics.arm_nanos.snapshot();
        assert!(
            nanos.iter().any(|(_, n)| *n > 0),
            "observed latencies are nonzero: {nanos:?}"
        );
        metrics.publish(backend);
        let routed: u64 = metrics
            .plan_decisions
            .snapshot()
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(routed, simsearch_core::MIN_CELL_OBSERVATIONS);
        // A fixed engine has no planner: nothing to mirror.
        let fixed = Metrics::new();
        fixed.publish_replan(served(&ds, EngineKind::Scan(SeqVariant::V4Flat)).backend());
        assert_eq!(fixed.plan_epoch.get(), 0);
        assert!(fixed.arm_nanos.is_empty());
    }

    #[test]
    fn publish_mirrors_per_shard_decisions_and_matches() {
        let ds = dataset();
        let sharded = served(
            &ds,
            EngineKind::Sharded {
                shards: 3,
                by: ShardBy::Len,
                threads: 1,
                arm: None,
            },
        );
        let found = sharded.search(b"Berlin", 2).len() as u64;
        let metrics = Metrics::new();
        metrics.publish(sharded.backend());
        let decisions = metrics.plan_decisions.snapshot();
        assert!(
            decisions.iter().any(|(n, _)| n.starts_with("s0.")),
            "per-shard plan_decisions published: {decisions:?}"
        );
        let matches = metrics.shard_matches.snapshot();
        assert_eq!(matches.len(), 3);
        assert!(matches.iter().all(|(n, _)| n.starts_with('s')));
        assert_eq!(matches.iter().map(|(_, c)| c).sum::<u64>(), found);
        assert!(
            metrics.live_shards.is_empty(),
            "frozen shards have no LSM gauges"
        );
    }

    #[test]
    fn publish_mirrors_live_gauges_and_frozen_engines_leave_them() {
        let ds = dataset();
        let live = served(&ds, EngineKind::Live { memtable_cap: 2 });
        let writer = live
            .backend()
            .as_mutable()
            .expect("live engines accept writes");
        let id = writer.insert("Bärlin".as_bytes());
        assert!(writer.delete(id));
        assert!(!writer.delete(id));
        let metrics = Metrics::new();
        metrics.publish(live.backend());
        assert_eq!(metrics.segments.get(), 1, "seed flushed to one segment");
        assert_eq!(metrics.inserts.get(), ds.len() as u64 + 1);
        assert_eq!(metrics.deletes.get(), 1);
        let frozen = Metrics::new();
        frozen.publish(served(&ds, EngineKind::Scan(SeqVariant::V4Flat)).backend());
        assert_eq!(frozen.segments.get(), 0);
        assert!(frozen.plan_decisions.is_empty() && frozen.shard_matches.is_empty());
    }

    #[test]
    fn publish_mirrors_per_shard_live_gauges_that_sum_to_the_aggregates() {
        let ds = dataset();
        let engine = served(
            &ds,
            EngineKind::ShardedLive {
                shards: 4,
                by: ShardBy::Hash,
                threads: 1,
                memtable_cap: 2,
            },
        );
        let writer = engine
            .backend()
            .as_mutable()
            .expect("sharded-live engines accept writes");
        let id = writer.insert("Bärlin".as_bytes());
        assert_eq!(writer.insert(b"Ulmen"), id + 1, "one global id space");
        assert!(writer.delete(id));
        let metrics = Metrics::new();
        metrics.publish(engine.backend());
        assert_eq!(metrics.inserts.get(), ds.len() as u64 + 2);
        assert_eq!(metrics.deletes.get(), 1);
        let per_shard = metrics.live_shards.snapshot();
        assert_eq!(per_shard.len(), 4 * 3, "three gauges per shard");
        let sum = |suffix: &str| -> u64 {
            per_shard
                .iter()
                .filter(|(n, _)| n.ends_with(suffix))
                .map(|(_, c)| c)
                .sum()
        };
        assert_eq!(sum(".memtable_len"), metrics.memtable_len.get() as u64);
        assert_eq!(sum(".segments"), metrics.segments.get() as u64);
        assert_eq!(sum(".tombstones"), metrics.tombstones.get() as u64);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_total() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1_000,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "bucket index must be monotone in v");
            assert!(bucket_upper(idx) >= v, "upper bound covers v={v}");
            last = idx;
        }
        // Exact small-value buckets.
        for v in 0..16u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn quantiles_match_sorted_vector_reference_within_bucket_error() {
        // Deterministic seed, as the satellite task prescribes.
        let mut rng = Xoshiro256::seed_from_u64(0x5EED_F00D);
        let hist = Histogram::new();
        let mut reference: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            // Log-uniform-ish spread: latencies from ns to seconds.
            let shift = rng.next_u64() % 30;
            let v = rng.next_u64() % (1u64 << (34 - shift));
            hist.observe(v);
            reference.push(v);
        }
        reference.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * reference.len() as f64).ceil() as usize)
                .clamp(1, reference.len());
            let truth = reference[rank - 1];
            let got = hist.quantile(q);
            // The histogram reports its bucket's upper bound: never
            // below the truth, at most one sub-bucket (6.25%) above.
            assert!(got >= truth, "q={q}: got {got} < truth {truth}");
            let bound = truth + truth / 16 + 1;
            assert!(got <= bound, "q={q}: got {got} > bound {bound}");
        }
        assert_eq!(hist.count(), 10_000);
        assert_eq!(hist.max(), *reference.last().unwrap());
        let mean_truth = reference.iter().sum::<u64>() / reference.len() as u64;
        assert_eq!(hist.mean(), mean_truth);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::new();
        m.requests_admitted.inc();
        m.requests_admitted.add(4);
        m.queue_depth.set(17);
        assert_eq!(m.requests_admitted.get(), 5);
        assert_eq!(m.queue_depth.get(), 17);
    }

    #[test]
    fn stats_json_is_valid_and_carries_histograms() {
        let m = Metrics::new();
        m.latency_ns.observe(1_000);
        m.latency_ns.observe(2_000);
        m.batches.inc();
        m.replied_ok.add(2);
        let json = m.stats_json("scan[x) Sorted-prefix scan]", "city", 1234, Instant::now());
        crate::json::validate(&json).unwrap();
        for needle in [
            "\"schema\": \"simsearch-bench-v2\"",
            "\"group\": \"simsearchd\"",
            "\"records\": 1234",
            "\"request_latency\"",
            "\"replied_ok\": 2",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(!json.contains('\n'), "STATS must stay one frame");
        assert!(
            json.contains("\"plan_decisions\": {}"),
            "fixed-backend engines report an empty plan_decisions object: {json}"
        );
    }

    #[test]
    fn stats_json_always_carries_live_ingest_keys() {
        // The keys are present (zeroed) even for frozen engines, so
        // dashboards and the CI smoke can grep unconditionally.
        let m = Metrics::new();
        let json = m.stats_json("scan[v7]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        for needle in [
            "\"memtable_len\": 0",
            "\"segments\": 0",
            "\"tombstones\": 0",
            "\"compactions\": 0",
            "\"inserts\": 0",
            "\"deletes\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        m.memtable_len.set(5);
        m.segments.set(2);
        m.compactions.set(3);
        m.compactions.set(4); // set overwrites, idempotent publish
        m.inserts.set(17);
        let json = m.stats_json("live[lsm/cap=4]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"memtable_len\": 5"), "{json}");
        assert!(json.contains("\"segments\": 2"), "{json}");
        assert!(json.contains("\"compactions\": 4"), "{json}");
        assert!(json.contains("\"inserts\": 17"), "{json}");
    }

    #[test]
    fn stats_json_always_carries_join_keys() {
        // Present (zeroed) even when no JOIN ever ran, so the CI smoke
        // can grep unconditionally.
        let m = Metrics::new();
        let json = m.stats_json("scan[v7]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        for needle in [
            "\"joins\": 0",
            "\"join_pairs_emitted\": 0",
            "\"join_candidates_verified\": 0",
            "\"join_seg_buckets\": 0",
            "\"join_seg_postings\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        m.joins.inc();
        m.join_pairs_emitted.add(42);
        m.join_candidates_verified.add(99);
        m.join_seg_buckets.set(7);
        m.join_seg_postings.set(16);
        let json = m.stats_json("scan[v7]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"joins\": 1"), "{json}");
        assert!(json.contains("\"join_pairs_emitted\": 42"), "{json}");
        assert!(json.contains("\"join_candidates_verified\": 99"), "{json}");
        assert!(json.contains("\"join_seg_buckets\": 7"), "{json}");
        assert!(json.contains("\"join_seg_postings\": 16"), "{json}");
    }

    #[test]
    fn stats_json_always_carries_replan_keys() {
        // Present (zeroed) even for engines that never replan, so the
        // CI smoke can grep unconditionally.
        let m = Metrics::new();
        let json = m.stats_json("scan[v7]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"replans\": 0"), "{json}");
        assert!(json.contains("\"plan_epoch\": 0"), "{json}");
        assert!(json.contains("\"arm_nanos\": {}"), "{json}");
        m.replans.add(3);
        m.plan_epoch.set(4); // mirrored: restart may start above replans
        m.arm_nanos.publish(&[("scan-flat", 12_345), ("radix", 678)]);
        let json = m.stats_json("auto[threads=1]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"replans\": 3"), "{json}");
        assert!(json.contains("\"plan_epoch\": 4"), "{json}");
        assert!(
            json.contains("\"arm_nanos\": {\"scan-flat\": 12345, \"radix\": 678}"),
            "{json}"
        );
    }

    #[test]
    fn plan_counters_publish_overwrites_and_snapshot_reads_back() {
        let counters = PlanCounters::default();
        assert!(counters.is_empty());
        assert!(counters.snapshot().is_empty());
        counters.publish(&[("scan-flat", 3), ("radix", 1)]);
        counters.publish(&[("scan-flat", 7), ("radix", 2)]);
        assert!(!counters.is_empty());
        assert_eq!(
            counters.snapshot(),
            vec![("scan-flat".to_string(), 7), ("radix".to_string(), 2)]
        );
    }

    #[test]
    fn stats_json_renders_published_plan_decisions() {
        let m = Metrics::new();
        m.plan_decisions.publish(&[("scan-flat", 5), ("qgram", 9)]);
        let json = m.stats_json("auto[threads=1]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(
            json.contains("\"plan_decisions\": {\"scan-flat\": 5, \"qgram\": 9}"),
            "missing plan_decisions counters in {json}"
        );
    }

    #[test]
    fn stats_json_renders_per_shard_decisions_and_matches() {
        let m = Metrics::new();
        m.plan_decisions
            .publish(&[("scan-flat", 5), ("s0.scan-flat", 2), ("s1.scan-flat", 3)]);
        m.shard_matches.publish(&[("s0", 7), ("s1", 4)]);
        let json = m.stats_json("sharded[s=2/len/threads=1]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(
            json.contains("\"s0.scan-flat\": 2") && json.contains("\"s1.scan-flat\": 3"),
            "missing per-shard plan_decisions in {json}"
        );
        assert!(
            json.contains("\"shard_matches\": {\"s0\": 7, \"s1\": 4}"),
            "missing shard_matches counters in {json}"
        );
    }

    #[test]
    fn stats_json_renders_per_shard_live_gauges() {
        let m = Metrics::new();
        m.live_shards.publish(&[
            ("s0.memtable_len", 3),
            ("s0.segments", 1),
            ("s0.tombstones", 0),
            ("s1.memtable_len", 2),
            ("s1.segments", 2),
            ("s1.tombstones", 1),
        ]);
        m.memtable_len.set(5);
        m.segments.set(3);
        m.tombstones.set(1);
        let json = m.stats_json("sharded-live[s=2/hash/cap=64/threads=1]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(
            json.contains("\"live_shards\": {\"s0.memtable_len\": 3, ")
                && json.contains("\"s1.tombstones\": 1"),
            "missing per-shard live gauges in {json}"
        );
        // Frozen daemons render the object empty, still valid JSON.
        let frozen = Metrics::new();
        let json = frozen.stats_json("scan[v4]", "city", 10, Instant::now());
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"live_shards\": {}"), "{json}");
    }
}
