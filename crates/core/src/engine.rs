//! The unified search engine: every solution of the paper (and every
//! extension) behind one build/search interface.
//!
//! [`SearchEngine::build_with`] is the one constructor: it maps an
//! [`EngineKind`] (plus, for planner-driven kinds, a calibration
//! [`Probe`]) to one prepared [`Backend`] trait object. The serving
//! daemon, the CLI, the benches and the oracles all hold the
//! [`SearchEngine`] it returns.

use crate::backend::{
    AutoBackend, Backend, BackendDiag, IndexBackend, Probe, ScanBackend,
};
use crate::lsm::{LiveEngine, LsmConfig};
use crate::planner::BackendChoice;
use crate::sharded::{ShardBy, ShardedBackend};
use simsearch_data::{Dataset, MatchSet, Workload};
use simsearch_parallel::Strategy;
use simsearch_scan::{SeqVariant, SequentialScan};

/// The rungs of the paper's *index* ladder (§4, Tables V/IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdxVariant {
    /// Rung 1 (§4.1): uncompressed prefix tree with min/max-length
    /// pruning, single-threaded.
    I1BaseTrie,
    /// Rung 2 (§4.2): compressed (radix) tree, single-threaded.
    I2Compressed,
    /// Rung 3 (§4.3): compressed tree under a fixed thread pool.
    I3Pool {
        /// Number of pool threads.
        threads: usize,
    },
}

impl IdxVariant {
    /// The ladder exactly as evaluated in Tables V/IX.
    pub fn ladder(pool_threads: usize) -> [IdxVariant; 3] {
        [
            IdxVariant::I1BaseTrie,
            IdxVariant::I2Compressed,
            IdxVariant::I3Pool {
                threads: pool_threads,
            },
        ]
    }

    /// The paper's row label for this rung.
    pub fn label(self) -> String {
        match self {
            IdxVariant::I1BaseTrie => "1) Base implementation".into(),
            IdxVariant::I2Compressed => "2) Compression".into(),
            IdxVariant::I3Pool { threads } => {
                format!("3) Management of parallelism ({threads} threads)")
            }
        }
    }
}

/// Which solution an engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// A rung of the sequential-scan ladder (§3).
    Scan(SeqVariant),
    /// A rung of the index ladder (§4), with the paper's own pruning
    /// (full-width rows + prefix condition (9)/(10)).
    Index(IdxVariant),
    /// A rung of the index ladder with *modern* pruning (banded rows,
    /// row-minimum lemma, mid-edge abandonment) — an extension whose
    /// effect the `best_index_paper` / `best_index_modern` rows of the
    /// `fig6_city_best` and `fig7_dna_best` benchmarks measure.
    IndexModern(IdxVariant),
    /// Inverted q-gram index baseline.
    Qgram {
        /// Gram size.
        q: usize,
        /// Workload executor.
        strategy: Strategy,
    },
    /// Planner-driven backend selection: a
    /// [`Planner`](crate::planner::Planner) built from the dataset's
    /// statistics routes each query to the cheapest candidate backend.
    /// Calibrated as the factory's [`Probe`] says (static by default).
    Auto {
        /// Worker threads for workload execution (1 = sequential).
        threads: usize,
    },
    /// Partitioned execution: the dataset is split into shards, each
    /// with its own backend over its own records; queries fan out and
    /// per-shard results are k-way merged. Unless pinned to one `arm`,
    /// every shard runs its own planner, calibrated as the factory's
    /// [`Probe`] says.
    Sharded {
        /// Number of shards (clamped to ≥ 1).
        shards: usize,
        /// How records are assigned to shards.
        by: ShardBy,
        /// Worker threads for fan-out and workload execution.
        threads: usize,
        /// The one arm every shard runs; `None` gives every shard its
        /// own planner.
        arm: Option<BackendChoice>,
    },
    /// Live ingest: an LSM-shaped [`LiveEngine`]
    /// (append-only memtable + tombstones in front of immutable sorted
    /// segments) seeded from the dataset. Mutable — the serving
    /// layer's `--live` mode.
    Live {
        /// Memtable flush threshold (records).
        memtable_cap: usize,
    },
    /// Sharded live ingest: [`ShardedBackend::live`] — every shard a
    /// [`LiveEngine`], inserts routed by
    /// content hash from one global id space, deletes routed to the
    /// owning shard. The serving layer's `--live --shards N` mode.
    /// Validate with [`EngineKind::validate`] before building: the
    /// `len` partitioner with ≥ 2 shards and a zero memtable cap are
    /// both rejected.
    ShardedLive {
        /// Number of shards (clamped to ≥ 1).
        shards: usize,
        /// How records are assigned to shards (`hash` required at ≥ 2
        /// shards).
        by: ShardBy,
        /// Worker threads for fan-out and workload execution.
        threads: usize,
        /// Per-shard memtable flush threshold (records).
        memtable_cap: usize,
    },
}

impl EngineKind {
    /// Checks constraints that [`SearchEngine::build_with`] would otherwise panic
    /// on — currently only [`EngineKind::ShardedLive`] has any (the
    /// `len` partitioner with ≥ 2 shards, a zero memtable cap, > 256
    /// shards). Callers that build from untrusted input (the CLI, the
    /// serving layer's `spawn`) surface the message as a usage error.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            EngineKind::ShardedLive {
                shards,
                by,
                threads,
                memtable_cap,
            } => {
                // Probe-build on an empty dataset: `ShardedBackend::live`
                // owns the real rules; this just runs them early.
                ShardedBackend::live(
                    &Dataset::new(),
                    shards,
                    by,
                    threads,
                    LsmConfig { memtable_cap },
                )
                .map(|_| ())
            }
            _ => Ok(()),
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            EngineKind::Scan(v) => format!("scan[{}]", v.label()),
            EngineKind::Index(v) => format!("index[{}]", v.label()),
            EngineKind::IndexModern(v) => format!("index-modern[{}]", v.label()),
            EngineKind::Qgram { q, strategy } => format!("qgram[q={q}/{}]", strategy.name()),
            EngineKind::Auto { threads } => format!("auto[threads={threads}]"),
            EngineKind::Sharded {
                shards,
                by,
                threads,
                arm,
            } => {
                let arm = arm.map_or(String::new(), |arm| format!("/{}", arm.name()));
                format!("sharded[s={shards}/{}{arm}/threads={threads}]", by.name())
            }
            EngineKind::Live { memtable_cap } => format!("live[lsm/cap={memtable_cap}]"),
            EngineKind::ShardedLive {
                shards,
                by,
                threads,
                memtable_cap,
            } => format!(
                "sharded-live[s={shards}/{}/cap={memtable_cap}/threads={threads}]",
                by.name()
            ),
        }
    }
}

/// Maps an [`EngineKind`] to its trait-object backend. `probe` says how
/// the planner-driven kinds ([`EngineKind::Auto`], [`EngineKind::Sharded`]
/// without a pinned arm) calibrate; every other kind ignores it.
fn build_backend_with<'a>(
    dataset: &'a Dataset,
    kind: EngineKind,
    probe: Probe<'_>,
) -> Box<dyn Backend + 'a> {
    match kind {
        EngineKind::Scan(v) => Box::new(ScanBackend::new(SequentialScan::new(dataset), v)),
        EngineKind::Index(v) | EngineKind::IndexModern(v) => {
            let paper = matches!(kind, EngineKind::Index(_));
            Box::new(match v {
                IdxVariant::I1BaseTrie => IndexBackend::trie(dataset, paper),
                IdxVariant::I2Compressed => {
                    IndexBackend::radix(dataset, paper, Strategy::Sequential)
                }
                IdxVariant::I3Pool { threads } => {
                    IndexBackend::radix(dataset, paper, Strategy::FixedPool { threads })
                }
            })
        }
        EngineKind::Qgram { q, strategy } => Box::new(IndexBackend::qgram(dataset, q, strategy)),
        EngineKind::Auto { threads } => Box::new(AutoBackend::with_probe(dataset, threads, probe)),
        EngineKind::Sharded {
            shards,
            by,
            threads,
            arm,
        } => Box::new(match arm {
            Some(arm) => ShardedBackend::with_fixed_arm(dataset, shards, by, threads, arm),
            None => ShardedBackend::with_probe(dataset, shards, by, threads, probe),
        }),
        EngineKind::Live { memtable_cap } => Box::new(LiveEngine::from_dataset(
            dataset,
            LsmConfig { memtable_cap },
        )),
        EngineKind::ShardedLive {
            shards,
            by,
            threads,
            memtable_cap,
        } => Box::new(
            // Panics on an invalid combination; run `EngineKind::validate`
            // first when the kind comes from untrusted input.
            ShardedBackend::live(dataset, shards, by, threads, LsmConfig { memtable_cap })
                .expect("invalid ShardedLive configuration (EngineKind::validate catches this)"),
        ),
    }
}

/// A built and prepared backend plus the kind it was built from: the one
/// engine handle the daemon, the CLI, the benches and the oracles hold.
pub struct SearchEngine<'a> {
    kind: EngineKind,
    backend: Box<dyn Backend + 'a>,
}

impl<'a> SearchEngine<'a> {
    /// Builds the engine (index construction happens here; the paper
    /// excludes build time from its query-time measurements, and so do
    /// the benchmarks — [`Backend::prepare`] runs now, so no auxiliary
    /// structure is built inside the first timed query).
    pub fn build(dataset: &'a Dataset, kind: EngineKind) -> Self {
        Self::build_with(dataset, kind, Probe::Static)
    }

    /// [`SearchEngine::build`] with an explicit calibration probe for
    /// the planner-driven kinds (run through every candidate arm at
    /// build time — like index construction, the cost is excluded from
    /// query timing). The daemon passes [`Probe::Default`], the CLI and
    /// the benches a prefix of the workload they are about to run.
    ///
    /// Panics on an invalid [`EngineKind::ShardedLive`]; run
    /// [`EngineKind::validate`] first when the kind comes from untrusted
    /// input.
    pub fn build_with(dataset: &'a Dataset, kind: EngineKind, probe: Probe<'_>) -> Self {
        let backend = build_backend_with(dataset, kind, probe);
        backend.prepare();
        Self { kind, backend }
    }

    /// The engine's kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Human-readable name.
    pub fn name(&self) -> String {
        self.kind.name()
    }

    /// The backend behind the engine (the daemon and the top-k tests
    /// reach trait-level methods — cell counting, top-k, the capability
    /// hooks — through this).
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// The backend, mutably — for [`Backend::release_unrouted`], which a
    /// daemon with no replan tick calls once after the build.
    pub fn backend_mut(&mut self) -> &mut (dyn Backend + 'a) {
        self.backend.as_mut()
    }

    /// Answers one query.
    pub fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.backend.search(query, k)
    }

    /// Executes a whole workload (this is the quantity the paper times).
    pub fn run(&self, workload: &Workload) -> Vec<MatchSet> {
        self.backend.run_workload(workload)
    }

    /// Executes a workload under an explicit executor, overriding
    /// whatever scheduling the engine kind implies (the executor
    /// ablations and the benchmark's batch layer).
    ///
    /// Results are identical to [`SearchEngine::run`] for every kind.
    pub fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        self.backend.run_with_strategy(workload, strategy)
    }

    /// The backend's self-description (name, structure statistics,
    /// filter names, and — for auto engines — the recorded plan).
    pub fn diag(&self) -> BackendDiag {
        self.backend.diag()
    }

    /// `(backend name, queries routed)` counters, when the engine is
    /// planner-driven.
    pub fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        self.backend.plan_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::search_top_k;
    use simsearch_data::QueryRecord;

    fn dataset() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber",
        ])
    }

    fn all_kinds() -> Vec<EngineKind> {
        vec![
            EngineKind::Scan(SeqVariant::V1Base),
            EngineKind::Scan(SeqVariant::V4Flat),
            EngineKind::Scan(SeqVariant::V6Pool { threads: 2 }),
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
            EngineKind::Scan(SeqVariant::V8BitParallel),
            EngineKind::Index(IdxVariant::I1BaseTrie),
            EngineKind::Index(IdxVariant::I2Compressed),
            EngineKind::Index(IdxVariant::I3Pool { threads: 2 }),
            EngineKind::IndexModern(IdxVariant::I1BaseTrie),
            EngineKind::IndexModern(IdxVariant::I2Compressed),
            EngineKind::IndexModern(IdxVariant::I3Pool { threads: 2 }),
            EngineKind::Qgram {
                q: 2,
                strategy: Strategy::Sequential,
            },
            EngineKind::Auto { threads: 1 },
            EngineKind::Auto { threads: 2 },
            EngineKind::Sharded {
                shards: 1,
                by: crate::sharded::ShardBy::Len,
                threads: 1,
                arm: None,
            },
            EngineKind::Sharded {
                shards: 3,
                by: crate::sharded::ShardBy::Len,
                threads: 2,
                arm: None,
            },
            EngineKind::Sharded {
                shards: 3,
                by: crate::sharded::ShardBy::Hash,
                threads: 1,
                arm: None,
            },
            EngineKind::Sharded {
                shards: 16,
                by: crate::sharded::ShardBy::Hash,
                threads: 2,
                arm: None,
            },
            EngineKind::Sharded {
                shards: 3,
                by: crate::sharded::ShardBy::Hash,
                threads: 1,
                arm: Some(BackendChoice::Radix),
            },
            EngineKind::Sharded {
                shards: 4,
                by: crate::sharded::ShardBy::Len,
                threads: 2,
                arm: Some(BackendChoice::ScanBitParallel),
            },
            EngineKind::Live { memtable_cap: 4 },
            EngineKind::ShardedLive {
                shards: 1,
                by: crate::sharded::ShardBy::Len,
                threads: 1,
                memtable_cap: 4,
            },
            EngineKind::ShardedLive {
                shards: 4,
                by: crate::sharded::ShardBy::Hash,
                threads: 2,
                memtable_cap: 4,
            },
        ]
    }

    #[test]
    fn every_engine_agrees_on_single_queries() {
        // Every kind under every calibration probe: the daemon builds
        // with `Probe::Default`, the CLI and the benches with a workload.
        let ds = dataset();
        let reference = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let workload = Workload {
            queries: vec![QueryRecord::new("Berlin", 1), QueryRecord::new("Ulm", 0)],
        };
        for probe in [Probe::Static, Probe::Default, Probe::Workload(&workload)] {
            for kind in all_kinds() {
                let e = SearchEngine::build_with(&ds, kind, probe);
                for text in ["Berlin", "Urm", "", "Xyz"] {
                    let q = text.as_bytes();
                    for k in 0..4 {
                        assert_eq!(
                            e.search(q, k),
                            reference.search(q, k),
                            "engine {} {probe:?} q={text} k={k}",
                            e.name()
                        );
                    }
                    assert_eq!(
                        search_top_k(&e, q, 3, 16),
                        search_top_k(&reference, q, 3, 16),
                        "engine {} {probe:?} q={text} top-3",
                        e.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_engine_agrees_on_workloads() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
            ],
        };
        let engines: Vec<SearchEngine> = all_kinds()
            .into_iter()
            .map(|k| SearchEngine::build(&ds, k))
            .collect();
        let expected = engines[0].run(&workload);
        for e in &engines[1..] {
            assert_eq!(e.run(&workload), expected, "engine {}", e.name());
        }
    }

    #[test]
    fn run_with_strategy_matches_run_for_every_engine() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Bonn", 1),
                QueryRecord::new("zzz", 3),
                QueryRecord::new("", 1),
            ],
        };
        for kind in all_kinds() {
            let engine = SearchEngine::build(&ds, kind);
            let expected = engine.run(&workload);
            for strategy in [
                Strategy::Sequential,
                Strategy::FixedPool { threads: 2 },
                Strategy::WorkQueue { threads: 3 },
            ] {
                assert_eq!(
                    engine.run_with_strategy(&workload, strategy),
                    expected,
                    "engine {} strategy {}",
                    engine.name(),
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn capability_hooks_follow_the_kind() {
        let ds = dataset();
        for kind in all_kinds() {
            let engine = SearchEngine::build(&ds, kind);
            let backend = engine.backend();
            let name = engine.name();
            match kind {
                EngineKind::Live { .. } | EngineKind::ShardedLive { .. } => {
                    let writer = backend.as_mutable().expect("live kinds accept writes");
                    let id = writer.insert(b"Ulmer");
                    assert_eq!(id as usize, ds.len(), "{name}: ids continue after the seed");
                    assert_eq!(backend.search(b"Ulmer", 0).ids(), vec![id], "{name}");
                    assert_eq!(backend.replan(), 0, "{name}: segments pick their arm at build");
                    assert_eq!(backend.plan_epoch(), 0, "{name}");
                }
                EngineKind::Auto { .. } | EngineKind::Sharded { .. } => {
                    assert!(backend.as_mutable().is_none(), "{name}");
                    assert_eq!(backend.replan(), 0, "{name}: thin grids refuse the swap");
                    assert_eq!(backend.plan_epoch(), 0, "{name}");
                    for _ in 0..crate::planner::MIN_CELL_OBSERVATIONS {
                        for q in ["Berlin", "Ulm", "B"] {
                            let _ = backend.search(q.as_bytes(), 1);
                        }
                    }
                    // One tick swaps at most once per shard, and the
                    // composite reports the sum over its shards.
                    let swapped = backend.replan();
                    let shards = match kind {
                        EngineKind::Sharded { shards, .. } => shards as u64,
                        _ => 1,
                    };
                    assert!((1..=shards).contains(&swapped), "{name}: {swapped}");
                    assert_eq!(backend.plan_epoch(), swapped, "{name}");
                    assert_eq!(
                        backend.arm_nanos().is_some(),
                        matches!(kind, EngineKind::Auto { .. }),
                        "{name}: only the single-planner engine pools arm latencies"
                    );
                }
                _ => {
                    assert_eq!(backend.replan(), 0, "{name}");
                    assert_eq!(backend.plan_epoch(), 0, "{name}");
                    assert!(backend.as_mutable().is_none(), "{name}");
                    assert!(backend.arm_nanos().is_none(), "{name}");
                }
            }
        }
    }

    #[test]
    fn auto_agrees_with_the_oracle_with_and_without_probe() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
            ],
        };
        let reference = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let expected = reference.run(&workload);
        for probe in [Probe::Static, Probe::Workload(&workload)] {
            let auto = SearchEngine::build_with(&ds, EngineKind::Auto { threads: 2 }, probe);
            assert_eq!(auto.kind(), EngineKind::Auto { threads: 2 });
            assert_eq!(auto.run(&workload), expected, "{probe:?}");
        }
    }

    #[test]
    fn plan_counts_present_only_for_auto() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![QueryRecord::new("Berlin", 2), QueryRecord::new("Ulm", 1)],
        };
        let scan = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(scan.plan_counts().is_none());
        let auto = SearchEngine::build(&ds, EngineKind::Auto { threads: 1 });
        let _ = auto.run(&workload);
        let counts = auto.plan_counts().expect("auto engines count decisions");
        assert_eq!(
            counts.iter().map(|(_, c)| c).sum::<u64>(),
            workload.len() as u64
        );
        assert!(auto.diag().plan.is_some());
    }

    #[test]
    fn sharded_live_validation_fails_fast_on_bad_configurations() {
        let bad_len = EngineKind::ShardedLive {
            shards: 2,
            by: crate::sharded::ShardBy::Len,
            threads: 1,
            memtable_cap: 4,
        };
        let err = bad_len.validate().unwrap_err();
        assert!(err.contains("--shard-by hash"), "actionable: {err}");
        let bad_cap = EngineKind::ShardedLive {
            shards: 2,
            by: crate::sharded::ShardBy::Hash,
            threads: 1,
            memtable_cap: 0,
        };
        assert!(bad_cap.validate().unwrap_err().contains("--memtable-cap"));
        let good = EngineKind::ShardedLive {
            shards: 4,
            by: crate::sharded::ShardBy::Hash,
            threads: 2,
            memtable_cap: 64,
        };
        assert!(good.validate().is_ok());
        // A single live shard routes trivially, so `len` is accepted.
        let single = EngineKind::ShardedLive {
            shards: 1,
            by: crate::sharded::ShardBy::Len,
            threads: 1,
            memtable_cap: 64,
        };
        assert!(single.validate().is_ok());
    }

    #[test]
    fn names_are_informative() {
        assert!(EngineKind::Index(IdxVariant::I2Compressed)
            .name()
            .contains("Compression"));
        assert!(EngineKind::Qgram {
            q: 3,
            strategy: Strategy::Sequential
        }
        .name()
        .contains("q=3"));
    }
}
