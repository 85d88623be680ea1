//! The daemon-side engine wrapper: one prepared backend, shared by
//! every request for the server's whole lifetime.
//!
//! A thin shell over the [`Backend`] trait: `build` hands the
//! configured [`EngineKind`] to the one engine factory (calibrating
//! planner-driven kinds with their default probe), prepares the result
//! once at startup, and every request reuses the prepared state. Every
//! capability — DP-cell counting, replanning, mutation — is a trait
//! method with a no-op default, so the wrapper holds
//! exactly one engine and never asks what kind it is.

use crate::metrics::Metrics;
use simsearch_core::{
    build_backend_with, pass_join_with_stats, search_top_k_with, Backend, EngineKind, JoinPair,
    JoinStats, LiveStats, MutableBackend, Probe, Strategy,
};
use simsearch_data::{Dataset, Match, MatchSet};

/// The engine a running `simsearchd` answers with.
pub(crate) struct ServedEngine<'a> {
    /// The one engine: every verb and every tick goes through this
    /// trait object and its capability hooks.
    backend: Box<dyn Backend + 'a>,
    /// The frozen seed dataset — `JOIN` runs over this. Live engines
    /// refuse `JOIN` (the dataset shifts under the join), so the field
    /// staying at the seed is never observable there.
    dataset: &'a Dataset,
    name: String,
}

impl<'a> ServedEngine<'a> {
    /// Builds (and prepares) the backend once, at server startup.
    /// Planner-driven kinds calibrate with a micro-probe drawn from the
    /// dataset (each shard from its own records) — build cost, like
    /// index construction, lands here and not in the first request.
    /// `spawn` and the CLI validate the kind before reaching this.
    pub fn build(dataset: &'a Dataset, kind: EngineKind) -> Self {
        let backend = build_backend_with(dataset, kind, Probe::Default);
        backend.prepare();
        Self {
            backend,
            dataset,
            name: kind.name(),
        }
    }

    /// Gives back what calibration built and the routing it produced
    /// never uses ([`Backend::release_unrouted`]) — for a daemon whose
    /// configuration has no self-tuning tick.
    pub fn release_unrouted(&mut self) {
        self.backend.release_unrouted();
    }

    /// The mutation surface (`INSERT`/`DELETE`, compaction) when the
    /// engine is live; `None` on read-only engines.
    pub fn writer(&self) -> Option<&dyn MutableBackend> {
        self.backend.as_mutable()
    }

    /// Self-joins the frozen dataset within distance `k`; `None` on
    /// live engines, whose dataset can shift mid-join. Runs
    /// sequentially — like the search kernels, a served join draws its
    /// concurrency from the connection handlers rather than nesting a
    /// pool per request.
    pub fn join(&self, k: u32) -> Option<(Vec<JoinPair>, JoinStats)> {
        if self.writer().is_some() {
            return None;
        }
        Some(pass_join_with_stats(self.dataset, k, Strategy::Sequential))
    }

    /// Engine label for `STATS`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset size for `STATS`.
    pub fn records(&self) -> usize {
        self.dataset.len()
    }

    /// Threshold search: all records within `k`, plus the DP cells the
    /// kernel reports (0 for kernels without cell counting).
    pub fn search(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.backend.search_counting(query, k)
    }

    /// Top-k search by iterative deepening: every radius is one
    /// [`ServedEngine::search`], DP cells summed over the probes.
    pub fn topk(&self, query: &[u8], count: usize, max_radius: u32) -> (Vec<Match>, u64) {
        search_top_k_with(|radius| self.search(query, radius), count, max_radius)
    }

    /// `(backend name, queries routed)` counters when the engine is
    /// planner-driven (`None` otherwise).
    pub fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        self.backend.plan_counts()
    }

    /// One self-tuning tick: re-derives the decision tables from the
    /// live observation grids and swaps them in atomically. Returns the
    /// number of accepted swaps — 0 when the engine has no tunable
    /// planner (live engines included: a segment picks its kernel when
    /// it is built) or when the grids are still too thin
    /// ([`simsearch_core::MIN_CELL_OBSERVATIONS`]). Sharded engines tick
    /// every shard.
    pub fn replan(&self) -> u64 {
        self.backend.replan()
    }

    /// The engine's plan epoch: 0 until the first accepted swap, then
    /// +1 per swap (summed over shards for sharded engines).
    pub fn plan_epoch(&self) -> u64 {
        self.backend.plan_epoch()
    }

    /// Mirrors the replanning state into the metrics registry: the
    /// current plan epoch and (for unsharded planner engines) the
    /// pooled per-arm observed nanoseconds the next replan will derive
    /// its multipliers from.
    pub fn publish_replan(&self, metrics: &Metrics) {
        metrics.plan_epoch.set(self.plan_epoch());
        if let Some(nanos) = self.backend.arm_nanos() {
            metrics.arm_nanos.publish(&nanos);
        }
    }

    /// Mirrors the engine's routing and structural state into the
    /// metrics registry; the connection handlers call it after every
    /// executed request. `plan_decisions` gets the cross-shard aggregate per arm
    /// plus one `s{i}.{arm}` entry per shard and arm, `shard_matches`
    /// per-shard cumulative match counts, and live engines their LSM
    /// gauges (aggregate, plus `s{i}.*` per shard — the aggregates are
    /// sums over shards, so the per-shard entries sum to them by
    /// construction). Each shard is read once, and the label strings
    /// are built by the first call only — later calls store values.
    pub fn publish(&self, metrics: &Metrics) {
        let shards = self.backend.shard_stats();
        let per_shard = shards.as_deref().unwrap_or_default();
        if let Some(total) = self.plan_counts() {
            let shard_counts = |i: usize| per_shard[i].plan_counts.iter().flatten();
            metrics.plan_decisions.publish_values(
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
            metrics.shard_matches.publish_values(
                || (0..per_shard.len()).map(|i| format!("s{i}")).collect(),
                per_shard.iter().map(|s| s.matches),
            );
        }
        let Some(writer) = self.writer() else {
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
        metrics.memtable_len.set(stats.memtable_len);
        metrics.segments.set(stats.segments);
        metrics.tombstones.set(stats.tombstones);
        metrics.compactions.set(stats.compactions);
        metrics.inserts.set(stats.inserts);
        metrics.deletes.set(stats.deletes);
        if shards.is_some() {
            metrics.live_shards.publish_values(
                || {
                    (0..per_shard.len())
                        .flat_map(|i| {
                            ["memtable_len", "segments", "tombstones"]
                                .map(|gauge| format!("s{i}.{gauge}"))
                        })
                        .collect()
                },
                live_shards()
                    .flat_map(|s| [s.memtable_len as u64, s.segments as u64, s.tombstones as u64]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_core::{IdxVariant, SeqVariant};

    fn dataset() -> Dataset {
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm", "Berlingen", ""])
    }

    #[test]
    fn served_engines_agree_with_the_reference() {
        let ds = dataset();
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let kinds = [
            EngineKind::Scan(SeqVariant::V4Flat),
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
            EngineKind::Scan(SeqVariant::V8BitParallel),
            EngineKind::Index(IdxVariant::I2Compressed),
            EngineKind::Auto { threads: 1 },
        ];
        for kind in kinds {
            let engine = ServedEngine::build(&ds, kind);
            for q in ["Berlin", "Urm", ""] {
                for k in 0..3 {
                    let (want, _) = reference.search(q.as_bytes(), k);
                    let (got, _) = engine.search(q.as_bytes(), k);
                    assert_eq!(got, want, "{} q={q} k={k}", engine.name());
                }
                let (want_top, _) = reference.topk(q.as_bytes(), 3, 16);
                let (got_top, _) = engine.topk(q.as_bytes(), 3, 16);
                assert_eq!(got_top, want_top, "{} topk q={q}", engine.name());
            }
        }
    }

    #[test]
    fn v7_reports_dp_cells() {
        let ds = dataset();
        let engine = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V7SortedPrefix));
        let (_, cells) = engine.search(b"Berlin", 2);
        assert!(cells > 0, "the V7 kernel counts its DP cells");
        let (_, v8_cells) = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V8BitParallel))
            .search(b"Berlin", 2);
        assert!(v8_cells > 0, "the V8 kernel counts its DP cells too");
        let (_, flat_cells) =
            ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat)).search(b"Berlin", 2);
        assert_eq!(flat_cells, 0, "uncounted kernels report zero");
    }

    #[test]
    fn auto_engines_count_plan_decisions() {
        let ds = dataset();
        let fixed = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(fixed.plan_counts().is_none());
        let auto = ServedEngine::build(&ds, EngineKind::Auto { threads: 1 });
        let before: u64 = auto
            .plan_counts()
            .expect("auto engines expose counters")
            .iter()
            .map(|(_, c)| c)
            .sum();
        let _ = auto.search(b"Berlin", 2);
        let _ = auto.search(b"Ulm", 1);
        let after: u64 = auto
            .plan_counts()
            .unwrap()
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(after, before + 2);
    }

    #[test]
    fn replan_swaps_after_enough_observations_and_fixed_engines_ignore() {
        let ds = dataset();
        let fixed = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert_eq!(fixed.replan(), 0, "fixed engines have no planner");
        assert_eq!(fixed.plan_epoch(), 0);

        let auto = ServedEngine::build(&ds, EngineKind::Auto { threads: 1 });
        assert_eq!(auto.plan_epoch(), 0, "build-time calibration is epoch 0");
        assert_eq!(auto.replan(), 0, "no observations yet: swap refused");
        for _ in 0..simsearch_core::MIN_CELL_OBSERVATIONS {
            let _ = auto.search(b"Berlin", 1);
            let _ = auto.topk(b"Bern", 2, 8);
        }
        assert_eq!(auto.replan(), 1, "grid filled: the swap is accepted");
        assert_eq!(auto.plan_epoch(), 1);
        // Replanned routing still answers exactly like the oracle.
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = auto.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        let metrics = Metrics::new();
        auto.publish_replan(&metrics);
        assert_eq!(metrics.plan_epoch.get(), 1);
        let nanos = metrics.arm_nanos.snapshot();
        assert!(!nanos.is_empty(), "auto engines expose arm nanos");
        assert!(
            nanos.iter().any(|(_, n)| *n > 0),
            "observed latencies are nonzero: {nanos:?}"
        );
    }

    #[test]
    fn sharded_engines_replan_per_shard_and_live_engines_do_not() {
        let ds = dataset();
        let sharded = ServedEngine::build(
            &ds,
            EngineKind::Sharded {
                shards: 2,
                by: simsearch_core::ShardBy::Len,
                threads: 1,
            },
        );
        assert_eq!(sharded.replan(), 0, "thin grids refuse the swap");
        for _ in 0..simsearch_core::MIN_CELL_OBSERVATIONS * 4 {
            let _ = sharded.search(b"Berlin", 1);
            let _ = sharded.search(b"Ulm", 1);
        }
        let swapped = sharded.replan();
        assert!(swapped > 0, "observed shards accept the swap");
        assert_eq!(sharded.plan_epoch(), swapped);

        // A live engine has nothing to tick: each segment picked its
        // kernel when it was built.
        let live = ServedEngine::build(&ds, EngineKind::Live { memtable_cap: 2 });
        assert_eq!(live.replan(), 0);
        assert_eq!(live.plan_epoch(), 0);
    }

    #[test]
    fn live_engine_accepts_mutations_and_frozen_engines_refuse() {
        let ds = dataset();
        let frozen = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(frozen.writer().is_none());

        let live = ServedEngine::build(&ds, EngineKind::Live { memtable_cap: 2 });
        let writer = live.writer().expect("live engines accept writes");
        // Seeded reads agree with the reference engine.
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = live.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        let id = writer.insert("Bärlin".as_bytes());
        assert_eq!(id as usize, ds.len(), "ids continue after the seed");
        assert!(writer.delete(id));
        assert!(!writer.delete(id));

        let metrics = Metrics::new();
        live.publish(&metrics);
        assert_eq!(metrics.segments.get(), 1, "seed flushed to one segment");
        assert_eq!(metrics.inserts.get(), ds.len() as u64 + 1);
        assert_eq!(metrics.deletes.get(), 1);
        // Frozen engines leave the live gauges untouched.
        let frozen_metrics = Metrics::new();
        frozen.publish(&frozen_metrics);
        assert_eq!(frozen_metrics.segments.get(), 0);
    }

    #[test]
    fn frozen_engines_join_and_live_engines_refuse() {
        let ds = dataset();
        let frozen = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let reference = simsearch_core::join::nested_loop_join(&ds, 2);
        let (pairs, stats) = frozen.join(2).expect("frozen engines join");
        assert_eq!(pairs, reference);
        assert_eq!(stats.pairs_emitted, pairs.len() as u64);
        let live = ServedEngine::build(&ds, EngineKind::Live { memtable_cap: 4 });
        assert!(live.join(1).is_none());
    }

    #[test]
    fn sharded_engine_agrees_and_publishes_per_shard_metrics() {
        let ds = dataset();
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let sharded = ServedEngine::build(
            &ds,
            EngineKind::Sharded {
                shards: 3,
                by: simsearch_core::ShardBy::Len,
                threads: 1,
            },
        );
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = sharded.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        let metrics = Metrics::new();
        sharded.publish(&metrics);
        let decisions = metrics.plan_decisions.snapshot();
        assert!(
            decisions.iter().any(|(n, _)| n.starts_with("s0.")),
            "per-shard plan_decisions published: {decisions:?}"
        );
        let matches = metrics.shard_matches.snapshot();
        assert_eq!(matches.len(), 3);
        assert!(matches.iter().all(|(n, _)| n.starts_with('s')));
    }

    #[test]
    fn sharded_live_engine_mutates_and_publishes_per_shard_gauges() {
        let ds = dataset();
        let engine = ServedEngine::build(
            &ds,
            EngineKind::ShardedLive {
                shards: 4,
                by: simsearch_core::ShardBy::Hash,
                threads: 1,
                memtable_cap: 2,
            },
        );
        let writer = engine.writer().expect("sharded-live engines accept writes");
        assert!(engine.join(1).is_none(), "live refuses JOIN");
        // Seeded reads agree with the reference engine.
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = engine.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        // Mutations route across shards from one global id space.
        let id = writer.insert("Bärlin".as_bytes());
        assert_eq!(id as usize, ds.len(), "ids continue after the seed");
        let id2 = writer.insert(b"Ulmen");
        assert_eq!(id2, id + 1);
        assert!(writer.delete(id));
        assert!(!writer.delete(id));
        let (got, _) = engine.search(b"Ulmen", 0);
        assert_eq!(got.ids(), vec![id2]);

        let metrics = Metrics::new();
        engine.publish(&metrics);
        assert_eq!(metrics.inserts.get(), ds.len() as u64 + 2);
        assert_eq!(metrics.deletes.get(), 1);
        let per_shard = metrics.live_shards.snapshot();
        assert_eq!(per_shard.len(), 4 * 3, "three gauges per shard");
        // Per-shard gauges sum to the aggregates.
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
}
