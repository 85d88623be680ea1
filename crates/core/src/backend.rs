//! The `Backend` trait: the one execution seam over every solution.
//!
//! Scan rungs, index structures, the planner-routed [`AutoBackend`],
//! the sharded composite and the live LSM engine all answer through
//! [`Backend`]: *prepare once, then answer threshold queries*. What a
//! consumer needs beyond that — DP-cell counting, workload execution,
//! and the capabilities only some engines have (replanning, mutation) —
//! are provided methods with no-op defaults,
//! so the serving layer, the CLI and the benches hold one `dyn Backend`
//! and never a typed side-handle.
//!
//! [`AutoBackend`] is the one planner-routed type: it consults a
//! [`Planner`] per query, routes to the cheapest arm, counts every
//! routing decision and times every routed query so a replan tick can
//! re-derive the decision table from live traffic. It holds its dataset
//! borrowed (the unsharded engine) or owned (one shard of a
//! [`crate::sharded::ShardedBackend`]).

use crate::lsm::MutableBackend;
use crate::planner::{
    static_cost, BackendChoice, CellSample, Observation, PlanDecision, Planner, QueryClass,
    MAX_K_CLASS, MIN_CELL_OBSERVATIONS, NUM_LEN_CLASSES,
};
use crate::sharded::ShardStats;
use simsearch_data::alphabet::{DNA_SYMBOLS, VOWEL_SYMBOLS};
use simsearch_data::{
    Alphabet, Dataset, MatchSet, QueryRecord, SortedView, StatsSnapshot, Workload,
};
use simsearch_filters::{FilterChain, FrequencyFilter, LengthFilter};
use simsearch_index::{QgramIndex, RadixTrie, Trie};
use simsearch_parallel::{auto_strategy, run_queries, Strategy};
use simsearch_scan::{v7_search_view, v8_search_view, SeqVariant, SequentialScan};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// What a backend reports about itself.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendDiag {
    /// Human-readable name.
    pub name: String,
    /// `(node or posting count, approximate bytes)` when the backend
    /// owns an index structure.
    pub structure: Option<(usize, usize)>,
    /// Names of the candidate filters feeding its verification stage.
    pub filters: Vec<&'static str>,
    /// Planner state, present only for the auto backend.
    pub plan: Option<PlanReport>,
}

/// The auto backend's recorded planner state: the decision table and
/// how many queries each arm has answered so far.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The snapshot the planner was built from.
    pub snapshot: StatsSnapshot,
    /// Every per-class decision, in table order.
    pub decisions: Vec<PlanDecision>,
    /// `(backend name, queries routed to it)` per candidate.
    pub counts: Vec<(&'static str, u64)>,
    /// Whether a micro-calibration probe scaled the hints.
    pub calibrated: bool,
    /// `(backend name, timed observations, their summed nanoseconds)`
    /// per candidate from the build-time probe's fair-share race — which
    /// arms' multipliers rest on two timings and which on two full
    /// passes. All zero under static planning.
    pub probe: Vec<(&'static str, u64, u64)>,
}

/// One execution backend: prepare once, then answer threshold queries.
///
/// Required: the per-query kernel ([`Backend::search`]) and
/// self-description ([`Backend::name`], [`Backend::diag`]). Everything
/// else is provided. The capability hooks (`replan` … `as_mutable`)
/// default to "this engine cannot do that", so a consumer calls them
/// on any `dyn Backend` without knowing the concrete type; each method
/// below names the caller that needs it.
pub trait Backend: Send + Sync {
    /// Human-readable name — bench labels, the CLI's report line and
    /// per-shard `explain` headings.
    fn name(&self) -> String;

    /// Eagerly builds auxiliary state so the cost lands at build time,
    /// not inside the first timed query ([`crate::SearchEngine::build`]
    /// and the daemon's startup call it). Idempotent; default no-op.
    fn prepare(&self) {}

    /// Frees what the engine built and its current routing never uses —
    /// a calibration race builds every candidate arm to time it, and on
    /// 50,000 reads the three arms no query can be routed to are 33 of
    /// the engine's 42 MB (the radix trie wins only rows of queries too
    /// short or too long for any read to be within their `k ≤ 16`, which
    /// the length prune answers). For a host that will never
    /// call [`Backend::replan`] (a daemon without the self-tuning tick):
    /// the table is then fixed for life and every request — a `TOPK`'s
    /// radii included — is routed by it, so only a replan, or a query
    /// past the table's last threshold row that reaches lengths the row
    /// itself does not, can ask for a released arm again. Default no-op.
    fn release_unrouted(&mut self) {}

    /// Answers one threshold query — the seam every oracle compares.
    fn search(&self, query: &[u8], k: u32) -> MatchSet;

    /// Answers one query and reports DP cells computed, when the
    /// backend counts them (0 otherwise) — the daemon's `QUERY` path,
    /// feeding the `dp_cells` counter in `STATS`, and the probe every
    /// `TOPK` radius goes through ([`crate::topk::search_top_k_with`]).
    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        (self.search(query, k), 0)
    }

    /// Self-description for diagnostics: `explain` renders per-shard
    /// decision tables from it, benches read structure sizes.
    fn diag(&self) -> BackendDiag;

    /// `(backend name, queries routed)` counters for planner-driven
    /// backends; `None` for fixed backends. Cheap (no decision-table
    /// clone): the daemon publishes it into `plan_decisions` after
    /// every chunk, the CLI prints it after a search.
    fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        None
    }

    /// Per-shard lifetime statistics for sharded composites; `None`
    /// for single-arena backends. One read of each shard (atomic loads,
    /// plus one lock per live shard): the daemon derives every
    /// per-shard `STATS` entry from a single call per chunk.
    fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        None
    }

    /// One self-tuning tick: re-derives routing from the engine's own
    /// live evidence and swaps it in atomically. Returns the number of
    /// accepted swaps (summed over shards) — 0 for engines with nothing
    /// to tune. The daemon's background replan loop calls it.
    fn replan(&self) -> u64 {
        0
    }

    /// Routing swaps since build (summed over shards): the daemon
    /// mirrors it into `STATS` as `plan_epoch`.
    fn plan_epoch(&self) -> u64 {
        0
    }

    /// Pooled observed nanoseconds per candidate arm of a
    /// single-planner engine — the daemon's `arm_nanos` object in
    /// `STATS`, the evidence the next replan derives multipliers from.
    fn arm_nanos(&self) -> Option<Vec<(&'static str, u64)>> {
        None
    }

    /// The engine's mutation surface when it accepts writes: the
    /// daemon's `INSERT`/`DELETE` verbs and between-chunk compaction
    /// reach it through here; `None` makes those verbs answer
    /// "read-only" and refuses nothing else.
    fn as_mutable(&self) -> Option<&dyn MutableBackend> {
        None
    }

    /// The executor [`Backend::run_workload`]'s default uses: fixed
    /// engines carry the scheduling their rung or flag prescribes.
    fn preferred_strategy(&self) -> Strategy {
        Strategy::Sequential
    }

    /// Executes a whole workload (the quantity the paper times) under
    /// the engine's own scheduling — [`crate::SearchEngine::run`].
    fn run_workload(&self, workload: &Workload) -> Vec<MatchSet> {
        self.run_with_strategy(workload, self.preferred_strategy())
    }

    /// Executes a workload under an explicit executor, overriding the
    /// backend's own scheduling (the executor ablations and the
    /// benchmark's batch layer). Results are identical to
    /// [`Backend::run_workload`] for every strategy.
    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        run_queries(strategy, workload.len(), |i| {
            let q = &workload.queries[i];
            self.search(&q.text, q.threshold)
        })
    }
}

/// The frequency-filter alphabet that fits `dataset`: DNA symbols for
/// DNA corpora, vowels otherwise (the paper's city-name choice).
fn tracked_symbols(dataset: &Dataset) -> [u8; 5] {
    let dna = Alphabet::dna();
    if dataset.records().all(|r| dna.covers(r)) {
        DNA_SYMBOLS
    } else {
        VOWEL_SYMBOLS
    }
}

/// The standard filter chain for `dataset`: the length filter plus
/// frequency vectors over [`tracked_symbols`].
fn standard_chain(dataset: &Dataset) -> FilterChain {
    FilterChain::new()
        .push(LengthFilter::build(dataset))
        .push(FrequencyFilter::build(dataset, tracked_symbols(dataset)))
}

/// A sequential scan behind the trait: one rung of the paper's ladder
/// (V7 and V8 included — they count DP cells through
/// [`Backend::search_counting`]).
pub struct ScanBackend<'a> {
    scan: SequentialScan<'a>,
    variant: SeqVariant,
}

impl<'a> ScanBackend<'a> {
    /// Wraps a scan (possibly already prepared) at one rung.
    pub fn new(scan: SequentialScan<'a>, variant: SeqVariant) -> Self {
        Self { scan, variant }
    }
}

impl Backend for ScanBackend<'_> {
    fn name(&self) -> String {
        format!("scan[{}]", self.variant.label())
    }

    fn prepare(&self) {
        self.scan.prepare(self.variant);
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.scan.search_one(self.variant, query, k)
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        match self.variant {
            SeqVariant::V7SortedPrefix => self.scan.v7_search(query, k),
            SeqVariant::V8BitParallel => self.scan.v8_search(query, k),
            _ => (self.search(query, k), 0),
        }
    }

    fn diag(&self) -> BackendDiag {
        let filters = match self.variant {
            SeqVariant::V1Base => vec![],
            _ => vec!["length"],
        };
        BackendDiag {
            name: self.name(),
            structure: None,
            filters,
            plan: None,
        }
    }

    /// Each rung keeps exactly the scheduling the paper prescribes.
    fn preferred_strategy(&self) -> Strategy {
        match self.variant {
            SeqVariant::V5ThreadPerQuery => Strategy::ThreadPerQuery,
            SeqVariant::V6Pool { threads } => Strategy::FixedPool { threads },
            _ => Strategy::Sequential,
        }
    }
}

/// A flat scan whose candidates come from a [`FilterChain`] — the
/// planner's scan arm, running the unified filter→verify pipeline
/// (length filter always; frequency vectors when the corpus has a
/// tracked alphabet).
pub struct FilteredScanBackend<'a> {
    scan: SequentialScan<'a>,
    chain: FilterChain,
    strategy: Strategy,
}

impl<'a> FilteredScanBackend<'a> {
    /// Builds the standard chain for `dataset`: the length filter plus
    /// frequency vectors over DNA symbols (DNA corpora) or vowels (the
    /// paper's city-name choice).
    pub fn new(dataset: &'a Dataset, strategy: Strategy) -> Self {
        Self {
            scan: SequentialScan::new(dataset),
            chain: standard_chain(dataset),
            strategy,
        }
    }
}

impl Backend for FilteredScanBackend<'_> {
    fn name(&self) -> String {
        format!("scan[filtered/{}]", self.strategy.name())
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.scan.search_filtered(&self.chain, query, k)
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: None,
            filters: self.chain.names(),
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        self.strategy
    }

    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        self.scan.run_filtered(&self.chain, strategy, workload)
    }
}

/// One built index structure. Searches take the dataset at call time,
/// so the same value serves a borrowing [`IndexBackend`] and a router
/// that owns its dataset.
enum Structure {
    Trie(Trie),
    Radix(RadixTrie),
    Qgram(QgramIndex),
}

impl Structure {
    /// Modern-pruning search (the only mode the planner's arms use).
    fn search(&self, dataset: &Dataset, query: &[u8], k: u32) -> MatchSet {
        match self {
            Structure::Trie(t) => t.search(query, k),
            Structure::Radix(r) => r.search(query, k),
            Structure::Qgram(q) => q.search(dataset, query, k),
        }
    }
}

/// Any of the workspace's index structures behind the trait: the
/// paper's prefix trees (§4, with the paper's own pruning or the modern
/// banded descent) and the q-gram baseline.
pub struct IndexBackend<'a> {
    dataset: &'a Dataset,
    structure: Structure,
    /// Prefix trees only: the paper's §4.1 pruning (full-width rows,
    /// prefix condition) instead of the modern banded descent.
    paper: bool,
    strategy: Strategy,
}

impl<'a> IndexBackend<'a> {
    fn with(dataset: &'a Dataset, structure: Structure, paper: bool, strategy: Strategy) -> Self {
        Self {
            dataset,
            structure,
            paper,
            strategy,
        }
    }

    /// The uncompressed prefix tree; `paper` selects the paper's §4.1
    /// pruning over the modern banded descent.
    pub fn trie(dataset: &'a Dataset, paper: bool) -> Self {
        let trie = simsearch_index::trie::build(dataset);
        Self::with(dataset, Structure::Trie(trie), paper, Strategy::Sequential)
    }

    /// The compressed (radix) tree.
    pub fn radix(dataset: &'a Dataset, paper: bool, strategy: Strategy) -> Self {
        let radix = simsearch_index::radix::build(dataset);
        Self::with(dataset, Structure::Radix(radix), paper, strategy)
    }

    /// The inverted q-gram index with gram size `q`.
    pub fn qgram(dataset: &'a Dataset, q: usize, strategy: Strategy) -> Self {
        let idx = QgramIndex::build(dataset, q);
        Self::with(dataset, Structure::Qgram(idx), false, strategy)
    }
}

impl Backend for IndexBackend<'_> {
    fn name(&self) -> String {
        let strategy = self.strategy.name();
        match &self.structure {
            Structure::Trie(_) => {
                format!("trie[{}]", if self.paper { "paper" } else { "modern" })
            }
            Structure::Radix(_) => {
                let mode = if self.paper { "paper" } else { "modern" };
                format!("radix[{mode}/{strategy}]")
            }
            Structure::Qgram(idx) => format!("qgram[q={}/{strategy}]", idx.q()),
        }
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        match &self.structure {
            Structure::Trie(t) if self.paper => t.search_paper(query, k),
            Structure::Radix(r) if self.paper => r.search_paper(query, k),
            structure => structure.search(self.dataset, query, k),
        }
    }

    fn diag(&self) -> BackendDiag {
        let (structure, filters) = match &self.structure {
            Structure::Trie(t) => ((t.node_count(), t.memory_bytes()), vec!["length"]),
            Structure::Radix(r) => ((r.node_count(), r.memory_bytes()), vec!["length"]),
            Structure::Qgram(idx) => (
                (idx.distinct_grams(), idx.memory_bytes()),
                vec!["qgram-count", "length"],
            ),
        };
        BackendDiag {
            name: self.name(),
            structure: Some(structure),
            filters,
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        self.strategy
    }
}

/// One lock-free accumulation cell: three relaxed atomics that a
/// replan tick snapshots into a [`CellSample`].
#[derive(Default)]
struct AtomicCell {
    nanos: AtomicU64,
    predicted: AtomicU64,
    count: AtomicU64,
}

impl AtomicCell {
    fn record(&self, nanos: u64, predicted: f64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        // Each query contributes ≥ 1 predicted unit, which bounds the
        // derived multiplier by the cell's total nanoseconds.
        self.predicted
            .fetch_add(predicted.max(1.0) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CellSample {
        CellSample {
            nanos: self.nanos.load(Ordering::Relaxed),
            predicted: self.predicted.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// The live latency registry the self-tuning loop closes over: one
/// accumulation cell per `(query class, arm)`. Routed backends record
/// `(measured nanos, statically predicted units)` here on every
/// threshold query — a top-k's radii included; a replan tick snapshots the
/// grid and hands it to [`Planner::with_class_samples`] to re-derive
/// the multipliers from serving traffic instead of the one-shot
/// build-time probe. All counters are relaxed atomics — recording
/// never blocks the query path, and a tick racing live queries only
/// folds a query into this tick or the next.
pub struct ObservationGrid {
    cells: Vec<[AtomicCell; BackendChoice::COUNT]>,
}

impl ObservationGrid {
    /// An empty grid covering every query class.
    fn new() -> Self {
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        Self {
            cells: (0..rows)
                .map(|_| std::array::from_fn(|_| AtomicCell::default()))
                .collect(),
        }
    }

    /// Records one answered threshold query.
    pub fn record(
        &self,
        class: QueryClass,
        choice: BackendChoice,
        nanos: u64,
        predicted: f64,
    ) {
        self.cells[class.table_index()][choice.index()].record(nanos, predicted);
    }

    /// Snapshot of every class cell, in table order — the shape
    /// [`Planner::with_class_samples`] consumes.
    pub fn class_samples(&self) -> Vec<[CellSample; BackendChoice::COUNT]> {
        self.cells
            .iter()
            .map(|row| std::array::from_fn(|i| row[i].snapshot()))
            .collect()
    }

    /// Total threshold queries recorded.
    pub fn total(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Pooled observed nanoseconds per arm, in [`BackendChoice::ALL`]
    /// order — what the serving layer mirrors into `STATS` as the
    /// per-arm latency registry.
    pub fn arm_nanos(&self) -> [u64; BackendChoice::COUNT] {
        std::array::from_fn(|i| {
            self.cells
                .iter()
                .map(|row| row[i].nanos.load(Ordering::Relaxed))
                .sum()
        })
    }
}

/// How a planner-driven engine calibrates at build time — the third
/// argument of [`crate::engine::SearchEngine::build_with`].
#[derive(Debug, Clone, Copy)]
pub enum Probe<'w> {
    /// No probe: purely static, deterministic planning.
    Static,
    /// [`AutoBackend::default_probe`] drawn from the engine's own
    /// records (each shard's own, when sharded) — long-lived consumers
    /// with no workload in hand, i.e. the serving daemon.
    Default,
    /// The caller's workload (the CLI and the benches calibrate on a
    /// prefix of the queries they are about to run).
    Workload(&'w Workload),
}

impl<'w> Probe<'w> {
    /// The probe workload for `dataset`; empty means static planning.
    fn resolve(self, dataset: &Dataset) -> Cow<'w, Workload> {
        match self {
            Probe::Static => Cow::Owned(Workload::default()),
            Probe::Default => Cow::Owned(AutoBackend::default_probe(dataset)),
            Probe::Workload(w) => Cow::Borrowed(w),
        }
    }
}

/// One built candidate arm of the router. Every variant either owns its
/// structure or (the two sorted-arena sweeps) reads the router's shared
/// [`SortedView`]; all take the dataset at call time, which is what
/// lets the router own its dataset without self-reference.
enum Arm {
    /// Flat scan through the unified filter chain.
    ScanFlat(FilterChain),
    /// V7 sorted-prefix scan over the router's sorted view.
    ScanSorted,
    /// V8 bit-parallel sweep over the same view.
    ScanBitParallel,
    /// An index structure (modern pruning; q = 2 for the q-gram index).
    Index(Structure),
}

/// The planner-driven backend: consults a [`Planner`] per query and
/// routes to the cheapest arm, counting every decision.
///
/// The dataset is held borrowed ([`AutoBackend::new`],
/// [`AutoBackend::calibrated`] — the unsharded engine) or owned
/// ([`AutoBackend::owned`], [`AutoBackend::fixed`] — one shard of a
/// [`crate::sharded::ShardedBackend`], the `'static` instantiation).
/// Arms are built lazily (a candidate the decision table never picks
/// costs nothing — until the calibration race builds every arm to time
/// it; [`Backend::release_unrouted`] gives those back);
/// [`Backend::prepare`] forces every *chosen* arm so no build lands
/// inside a timed query. All arms return byte-identical
/// results (the workspace's cross-variant oracles), so routing is a
/// pure performance decision — correctness does not depend on the
/// planner.
///
/// The planner is held behind an `RwLock<Arc<..>>` so a background
/// replan tick can atomically swap in a freshly derived decision table
/// while queries are in flight: the hot path copies the decision out
/// under a read lock and never holds it across an arm call. Every
/// routed query is timed into an [`ObservationGrid`]; [`AutoBackend::replan`]
/// closes the loop. Shards of a composite each own one of these, so a
/// shard of short city names and a shard of long reads accumulate
/// different evidence and replan to different tables.
pub struct AutoBackend<'a> {
    dataset: Cow<'a, Dataset>,
    threads: usize,
    planner: RwLock<Arc<Planner>>,
    plan_epoch: AtomicU64,
    grid: ObservationGrid,
    /// The one sorted view (permutation + remapped arena + LCP) both
    /// sorted-arena arms sweep.
    sorted: OnceLock<SortedView>,
    arms: [OnceLock<Arm>; BackendChoice::COUNT],
    counters: [AtomicU64; BackendChoice::COUNT],
    /// `(timed observations, summed nanoseconds)` each arm got in the
    /// build-time probe's race; fixed once `build` returns.
    probed: [(u64, u64); BackendChoice::COUNT],
}

/// The calibration race: which arm answers which probe query, and how
/// often. `answer(arm, query)` runs probe query `query` through arm
/// `arm` and returns the wall-clock nanoseconds it took; the result is
/// every *timed* `(arm, query, nanos)`, in the order they ran.
///
/// Each arm first answers query 0 untimed (building the arm, warming its
/// lazy state and the caches). Then the arm that has used the least time
/// so far — ties to the one with fewer observations, then to the earlier
/// arm — answers its next query, cycling through the probe from query 0,
/// until one arm has been through the probe twice. Arms get equal
/// *time*, not equal queries: the race costs about `arms ×` the fastest
/// arm's two passes (an arm only ever runs while it is not ahead of that
/// one, so it overshoots by at most one query), an arm within 2× of the
/// best still gets half the observations, and an arm 20× off gets two.
/// That is as much precision as routing needs — how slow a losing arm is
/// only matters when it is close to winning. Every arm ends with at
/// least one observation, because an arm with none ties at zero time
/// and has the fewest.
fn fair_share_race(
    arms: usize,
    queries: usize,
    mut answer: impl FnMut(usize, usize) -> u64,
) -> Vec<(usize, usize, u64)> {
    let mut timed = Vec::new();
    if arms == 0 || queries == 0 {
        return timed;
    }
    for arm in 0..arms {
        answer(arm, 0);
    }
    let mut used = vec![0u64; arms];
    let mut seen = vec![0usize; arms];
    loop {
        let arm = (0..arms)
            .min_by_key(|&arm| (used[arm], seen[arm]))
            .expect("at least one arm");
        let query = seen[arm] % queries;
        let nanos = answer(arm, query);
        timed.push((arm, query, nanos));
        used[arm] += nanos;
        seen[arm] += 1;
        if seen[arm] == 2 * queries {
            return timed;
        }
    }
}

impl<'a> AutoBackend<'a> {
    /// The default candidate set: every arm.
    pub const DEFAULT_CANDIDATES: [BackendChoice; 5] = BackendChoice::ALL;

    /// Builds an auto backend with purely static (deterministic)
    /// planning over the default candidates.
    pub fn new(dataset: &'a Dataset, threads: usize) -> Self {
        Self::calibrated(dataset, threads, &Workload::default())
    }

    /// Builds an auto backend and calibrates the planner with a
    /// micro-probe: every candidate arm is built, the arms race through
    /// the probe workload on equal shares of time (`fair_share_race`),
    /// and measured time scales each arm's cost hints. Like index
    /// construction, the probe is paid at build time and excluded from
    /// query timing. An empty probe yields static planning.
    pub fn calibrated(dataset: &'a Dataset, threads: usize, probe: &Workload) -> Self {
        Self::build(
            Cow::Borrowed(dataset),
            threads,
            &Self::DEFAULT_CANDIDATES,
            probe,
        )
    }

    /// [`AutoBackend::calibrated`] on the workload `probe` names — what
    /// the engine factory calls.
    pub fn with_probe(dataset: &'a Dataset, threads: usize, probe: Probe<'_>) -> Self {
        Self::calibrated(dataset, threads, &probe.resolve(dataset))
    }

    /// The owned instantiation: the router takes its dataset with it
    /// (a shard of a composite), calibrating as `probe` says.
    pub fn owned(dataset: Dataset, probe: Probe<'_>) -> AutoBackend<'static> {
        let probe = probe.resolve(&dataset);
        AutoBackend::build(Cow::Owned(dataset), 1, &Self::DEFAULT_CANDIDATES, &probe)
    }

    /// An owned router with a single candidate: every query routes to
    /// `choice` (pins a shard to one arm).
    pub fn fixed(dataset: Dataset, choice: BackendChoice) -> AutoBackend<'static> {
        AutoBackend::build(Cow::Owned(dataset), 1, &[choice], &Workload::default())
    }

    fn build(
        dataset: Cow<'a, Dataset>,
        threads: usize,
        candidates: &[BackendChoice],
        probe: &Workload,
    ) -> Self {
        let snapshot = StatsSnapshot::compute(&dataset);
        let mut auto = Self {
            dataset,
            threads,
            planner: RwLock::new(Arc::new(Planner::new(snapshot.clone(), candidates))),
            plan_epoch: AtomicU64::new(0),
            grid: ObservationGrid::new(),
            sorted: OnceLock::new(),
            arms: std::array::from_fn(|_| OnceLock::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            probed: [(0, 0); BackendChoice::COUNT],
        };
        if probe.queries.is_empty() {
            return auto;
        }
        // The planner groups the timings by query class, so the static
        // model's shape error is corrected class by class instead of
        // with one arm-wide ratio. The probes call the arm directly:
        // routing counters and the grid stay untouched.
        let race = fair_share_race(candidates.len(), probe.queries.len(), |arm, query| {
            let q = &probe.queries[query];
            let started = Instant::now();
            let _ = auto.probe_arm(candidates[arm], &q.text, q.threshold);
            started.elapsed().as_nanos() as u64
        });
        let mut observations = Vec::with_capacity(race.len());
        for (arm, query, nanos) in race {
            let (choice, q) = (candidates[arm], &probe.queries[query]);
            let (seen, used) = &mut auto.probed[choice.index()];
            *seen += 1;
            *used += nanos;
            observations.push(Observation {
                choice,
                query_len: q.text.len(),
                k: q.threshold,
                nanos: nanos as f64,
            });
        }
        // Build-time calibration is the epoch-0 baseline, not a replan
        // — the epoch counts serving-time swaps only.
        *auto.planner.write().expect("planner lock") = Arc::new(Planner::with_observations(
            snapshot,
            candidates,
            &observations,
        ));
        auto
    }

    /// The current planner (for `explain` and tests) — a cheap shared
    /// handle; a concurrent replan swaps the slot, never mutates the
    /// table behind an existing handle.
    pub fn planner(&self) -> Arc<Planner> {
        self.planner.read().expect("planner lock").clone()
    }

    /// The live latency registry this backend records into.
    pub fn observations(&self) -> &ObservationGrid {
        &self.grid
    }

    /// Pooled observed nanoseconds per candidate, in candidate order —
    /// the serving layer's `STATS` view of the latency registry.
    pub fn observed_arm_nanos(&self) -> Vec<(&'static str, u64)> {
        let nanos = self.grid.arm_nanos();
        self.planner()
            .candidates()
            .iter()
            .map(|&c| (c.name(), nanos[c.index()]))
            .collect()
    }

    /// One self-tuning tick: re-derives per-(arm, class) multipliers
    /// from the grid's live observations and swaps the fresh decision
    /// table in. Returns `false` without swapping when no cell has
    /// reached [`MIN_CELL_OBSERVATIONS`] yet — a thin grid must not
    /// overwrite a calibrated baseline with an all-1.0 table.
    pub fn replan(&self) -> bool {
        let current = self.planner();
        let next = Planner::with_class_samples(
            current.snapshot().clone(),
            current.candidates(),
            &self.grid.class_samples(),
            MIN_CELL_OBSERVATIONS,
        );
        let accepted = next.is_calibrated();
        if accepted {
            self.set_planner(next);
        }
        accepted
    }

    /// Atomically swaps `planner` in and bumps the plan epoch. The
    /// candidate set never changes: [`AutoBackend::replan`] rebuilds
    /// from the current table's own candidates.
    fn set_planner(&self, planner: Planner) {
        *self.planner.write().expect("planner lock") = Arc::new(planner);
        self.plan_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// A small deterministic probe workload drawn from the dataset
    /// itself: up to 16 evenly spaced records, queried alternately at
    /// threshold 0 and at a threshold scaled to the mean length (≈10%,
    /// clamped to 1..=8) — the shape of the paper's §5 protocol, which
    /// queries with (mutated) records. Threshold 0 is the one class
    /// where the index beats the scan by a wide margin and every arm's
    /// cheapest, so its row of the decision table is measured for every
    /// arm; every other threshold is extrapolated from the arm's pooled
    /// ratio. Long-lived consumers with no workload in hand (the
    /// serving daemon) calibrate with this.
    pub fn default_probe(dataset: &Dataset) -> Workload {
        let n = dataset.len();
        let mut queries = Vec::new();
        if n > 0 {
            let count = n.min(16);
            let mean = dataset.arena_len() / n;
            let k = (mean / 10).clamp(1, 8) as u32;
            for i in 0..count {
                let id = (i * n / count) as u32;
                let threshold = if i.is_multiple_of(2) { 0 } else { k };
                queries.push(QueryRecord::new(dataset.get(id).to_vec(), threshold));
            }
        }
        Workload { queries }
    }

    /// `(backend name, queries routed)` per candidate, in candidate
    /// order. Counts accumulate over the backend's lifetime.
    pub fn plan_counts(&self) -> Vec<(&'static str, u64)> {
        self.planner()
            .candidates()
            .iter()
            .map(|&c| (c.name(), self.counters[c.index()].load(Ordering::Relaxed)))
            .collect()
    }

    fn sorted_view(&self) -> &SortedView {
        self.sorted.get_or_init(|| SortedView::build(&self.dataset))
    }

    fn arm(&self, choice: BackendChoice) -> &Arm {
        self.arms[choice.index()].get_or_init(|| {
            let dataset: &Dataset = &self.dataset;
            match choice {
                BackendChoice::ScanFlat => Arm::ScanFlat(standard_chain(dataset)),
                BackendChoice::ScanSorted => {
                    self.sorted_view();
                    Arm::ScanSorted
                }
                BackendChoice::ScanBitParallel => {
                    self.sorted_view().prepare_signature();
                    Arm::ScanBitParallel
                }
                BackendChoice::Radix => {
                    Arm::Index(Structure::Radix(simsearch_index::radix::build(dataset)))
                }
                BackendChoice::Qgram => Arm::Index(Structure::Qgram(QgramIndex::build(dataset, 2))),
            }
        })
    }

    /// One threshold probe through `choice`'s arm (built on first use),
    /// bypassing the planner, the counters and the grid.
    fn probe_arm(&self, choice: BackendChoice, query: &[u8], k: u32) -> (MatchSet, u64) {
        let dataset: &Dataset = &self.dataset;
        match self.arm(choice) {
            // `SequentialScan::new` allocates nothing (lazy internals),
            // and `search_filtered` touches only the borrowed dataset —
            // constructing one per call is free.
            Arm::ScanFlat(chain) => (
                SequentialScan::new(dataset).search_filtered(chain, query, k),
                0,
            ),
            Arm::ScanSorted => v7_search_view(self.sorted_view(), query, k),
            Arm::ScanBitParallel => v8_search_view(self.sorted_view(), query, k),
            Arm::Index(structure) => (structure.search(dataset, query, k), 0),
        }
    }
}

impl Backend for AutoBackend<'_> {
    /// `auto[..]` when the dataset is borrowed, `shard-auto[..]` when
    /// owned, `shard[<arm>]` for a one-candidate router.
    fn name(&self) -> String {
        let planner = self.planner();
        if let [only] = planner.candidates() {
            return format!("shard[{}]", only.name());
        }
        let family = match self.dataset {
            Cow::Borrowed(_) => "auto",
            Cow::Owned(_) => "shard-auto",
        };
        let mode = if planner.is_calibrated() {
            "calibrated"
        } else {
            "static"
        };
        format!("{family}[{mode}]")
    }

    fn prepare(&self) {
        // Force every arm the decision table can actually pick.
        let mut chosen: Vec<BackendChoice> =
            self.planner().decisions().iter().map(|d| d.chosen).collect();
        chosen.sort_by_key(|c| c.index());
        chosen.dedup();
        for choice in chosen {
            self.arm(choice);
        }
    }

    fn release_unrouted(&mut self) {
        // Only the rows a query can reach past the length prune in
        // `search_counting` route anything: lengths within `k` of the
        // records' band, at the row's own threshold (an empty dataset
        // prunes every query). The length class is monotone in the
        // query's length, so per threshold that is the run of rows
        // between the band's two ends.
        let planner = self.planner();
        let snapshot = planner.snapshot();
        let mut routed = [false; BackendChoice::COUNT];
        for k in (0..=MAX_K_CLASS).filter(|_| snapshot.records > 0) {
            let shortest = snapshot.min_len.saturating_sub(k) as usize;
            let longest = (snapshot.max_len + k) as usize;
            let first = planner.decide(shortest, k).class.table_index();
            let last = planner.decide(longest, k).class.table_index();
            for row in (first..=last).step_by(MAX_K_CLASS as usize + 1) {
                routed[planner.decisions()[row].chosen.index()] = true;
            }
        }
        for choice in planner.candidates() {
            if !routed[choice.index()] {
                self.arms[choice.index()].take();
            }
        }
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_counting(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        // Copy the decision out under the read lock; never hold the
        // lock across the arm call, or a replan tick would stall behind
        // the slowest in-flight query.
        let (chosen, class, predicted, pruned) = {
            let planner = self.planner.read().expect("planner lock");
            let chosen = planner.decide(query.len(), k).chosen;
            let snapshot = planner.snapshot();
            // Dataset-level length prune: ed(q, x) ≥ ||q| − |x||, so
            // when the dataset's entire length band lies outside
            // |q| ± k no record can match and the arm probe is skipped.
            // Under `ShardBy::Len` a shard's band is narrow, which
            // turns a fan-out into a near-miss for most shards; over a
            // whole dataset or a `ShardBy::Hash` shard the band is the
            // full length range and this rarely fires. The routing
            // counter below still ticks — the planner decided, the
            // length bound answered.
            let (ql, kk) = (query.len() as u64, u64::from(k));
            let pruned = snapshot.records == 0
                || ql + kk < u64::from(snapshot.min_len)
                || ql.saturating_sub(kk) > u64::from(snapshot.max_len);
            (
                chosen,
                QueryClass::of(snapshot, query.len(), k),
                static_cost(snapshot, chosen, query.len(), k),
                pruned,
            )
        };
        self.counters[chosen.index()].fetch_add(1, Ordering::Relaxed);
        if pruned {
            // The arm never ran, so nothing is recorded: a pruned query
            // says nothing about the arm's cost curve, and folding its
            // ~0 ns in would drag the multipliers toward zero.
            return (MatchSet::default(), 0);
        }
        let started = Instant::now();
        let answer = self.probe_arm(chosen, query, k);
        self.grid
            .record(class, chosen, started.elapsed().as_nanos() as u64, predicted);
        answer
    }

    fn diag(&self) -> BackendDiag {
        let planner = self.planner();
        BackendDiag {
            name: self.name(),
            structure: None,
            filters: vec!["length", "frequency"],
            plan: Some(PlanReport {
                snapshot: planner.snapshot().clone(),
                decisions: planner.decisions().to_vec(),
                counts: self.plan_counts(),
                calibrated: planner.is_calibrated(),
                probe: planner
                    .candidates()
                    .iter()
                    .map(|&c| {
                        let (seen, used) = self.probed[c.index()];
                        (c.name(), seen, used)
                    })
                    .collect(),
            }),
        }
    }

    fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        Some(AutoBackend::plan_counts(self))
    }

    fn replan(&self) -> u64 {
        u64::from(AutoBackend::replan(self))
    }

    /// 0 until the first accepted [`AutoBackend::replan`], whether or
    /// not the build-time probe calibrated the baseline.
    fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::Relaxed)
    }

    fn arm_nanos(&self) -> Option<Vec<(&'static str, u64)>> {
        Some(self.observed_arm_nanos())
    }

    fn run_workload(&self, workload: &Workload) -> Vec<MatchSet> {
        self.run_with_strategy(workload, auto_strategy(workload.len(), self.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::search_top_k_with;
    use crate::{EngineKind, SearchEngine};

    fn dataset() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber",
        ])
    }

    fn workload() -> Workload {
        Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
                QueryRecord::new("Bxr", 3),
            ],
        }
    }

    fn oracle(ds: &Dataset, w: &Workload) -> Vec<MatchSet> {
        SearchEngine::build(ds, EngineKind::Scan(SeqVariant::V1Base)).run(w)
    }

    #[test]
    fn every_trait_backend_agrees_with_the_oracle() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        let backends: Vec<Box<dyn Backend + '_>> = vec![
            Box::new(ScanBackend::new(SequentialScan::new(&ds), SeqVariant::V4Flat)),
            Box::new(FilteredScanBackend::new(&ds, Strategy::Sequential)),
            Box::new(ScanBackend::new(
                SequentialScan::new(&ds),
                SeqVariant::V7SortedPrefix,
            )),
            Box::new(ScanBackend::new(
                SequentialScan::new(&ds),
                SeqVariant::V8BitParallel,
            )),
            Box::new(IndexBackend::trie(&ds, true)),
            Box::new(IndexBackend::trie(&ds, false)),
            Box::new(IndexBackend::radix(&ds, false, Strategy::Sequential)),
            Box::new(IndexBackend::qgram(&ds, 2, Strategy::Sequential)),
            Box::new(AutoBackend::new(&ds, 1)),
            Box::new(AutoBackend::calibrated(&ds, 2, &w)),
            Box::new(AutoBackend::owned(ds.clone(), Probe::Static)),
            Box::new(AutoBackend::owned(ds.clone(), Probe::Workload(&w))),
        ];
        for b in &backends {
            b.prepare();
            assert_eq!(b.run_workload(&w), expected, "backend {}", b.name());
            for strategy in [
                Strategy::Sequential,
                Strategy::FixedPool { threads: 2 },
                Strategy::WorkQueue { threads: 3 },
            ] {
                assert_eq!(
                    b.run_with_strategy(&w, strategy),
                    expected,
                    "backend {} strategy {}",
                    b.name(),
                    strategy.name()
                );
            }
        }
        // The owned instantiation is the same router: identical static
        // decision tables, answers and routing counts.
        let borrowed = AutoBackend::new(&ds, 1);
        let owned = AutoBackend::owned(ds.clone(), Probe::Static);
        assert_eq!(borrowed.planner().decisions(), owned.planner().decisions());
        for q in &w.queries {
            assert_eq!(
                borrowed.search_counting(&q.text, q.threshold),
                owned.search_counting(&q.text, q.threshold)
            );
            assert_eq!(
                search_top_k_with(|radius| borrowed.search_counting(&q.text, radius), 3, 8),
                search_top_k_with(|radius| owned.search_counting(&q.text, radius), 3, 8)
            );
        }
        assert_eq!(borrowed.plan_counts(), owned.plan_counts());
    }

    #[test]
    fn a_one_candidate_router_is_named_after_its_arm() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        for choice in BackendChoice::ALL {
            let fixed = AutoBackend::fixed(ds.clone(), choice);
            assert_eq!(fixed.name(), format!("shard[{}]", choice.name()));
            assert_eq!(fixed.run_workload(&w), expected, "{}", choice.name());
            assert_eq!(
                fixed.plan_counts(),
                vec![(choice.name(), w.len() as u64)],
                "every query routes to the only candidate"
            );
        }
    }

    #[test]
    fn prepare_builds_the_signature_for_the_bitparallel_arm_only() {
        let ds = dataset();
        let w = workload();
        let v8 = AutoBackend::fixed(ds.clone(), BackendChoice::ScanBitParallel);
        v8.prepare();
        assert!(
            v8.sorted_view().signature_bytes() > 0,
            "no build is left for the first served query"
        );
        let v7 = AutoBackend::fixed(ds, BackendChoice::ScanSorted);
        v7.prepare();
        v7.run_workload(&w);
        assert_eq!(v7.sorted_view().signature_bytes(), 0);
    }

    #[test]
    fn release_unrouted_keeps_the_arms_the_table_routes_to() {
        let ds = dataset();
        let w = workload();
        let mut auto = AutoBackend::calibrated(&ds, 1, &AutoBackend::default_probe(&ds));
        let built = |auto: &AutoBackend<'_>, choice: BackendChoice| {
            auto.arms[choice.index()].get().is_some()
        };
        for choice in AutoBackend::DEFAULT_CANDIDATES {
            assert!(built(&auto, choice), "the race builds {}", choice.name());
        }
        auto.release_unrouted();
        let routed: Vec<BackendChoice> = auto
            .planner()
            .decisions()
            .iter()
            .map(|d| d.chosen)
            .collect();
        for choice in AutoBackend::DEFAULT_CANDIDATES {
            assert_eq!(
                built(&auto, choice),
                routed.contains(&choice),
                "{}",
                choice.name()
            );
        }
        // A released arm is built again when something asks for it —
        // which, the table being what routes, only a replan can.
        assert_eq!(auto.run_workload(&w), oracle(&ds, &w));
        for choice in AutoBackend::DEFAULT_CANDIDATES {
            let (matches, _) = auto.probe_arm(choice, b"Berlin", 1);
            assert_eq!(matches, auto.search(b"Berlin", 1), "{}", choice.name());
            assert!(built(&auto, choice));
        }
    }

    #[test]
    fn release_unrouted_keeps_exactly_the_arms_a_query_can_reach() {
        // Reads of 90–110 symbols: a row whose every query the length
        // prune answers (short ones, long ones at small k) routes nothing,
        // whatever arm it names. Checked against every query length and
        // threshold of the table, not against the ends of the band.
        let ds = simsearch_data::DnaGenerator::new(3)
            .genome_len(10_000)
            .generate(300);
        // The static table, the race's, and one where V8 wins every row
        // but the short ones — the shape the served DNA table has.
        let pinned = AutoBackend::new(&ds, 1);
        pinned.set_planner(Planner::with_multipliers(
            pinned.planner().snapshot().clone(),
            &AutoBackend::DEFAULT_CANDIDATES,
            &[(BackendChoice::ScanBitParallel, 1e-3)],
        ));
        let tables = [
            AutoBackend::new(&ds, 1),
            AutoBackend::calibrated(&ds, 1, &AutoBackend::default_probe(&ds)),
            pinned,
        ];
        for (table, mut auto) in tables.into_iter().enumerate() {
            auto.prepare();
            auto.release_unrouted();
            let planner = auto.planner();
            let snapshot = planner.snapshot();
            let mut reachable = [false; BackendChoice::COUNT];
            for k in 0..=MAX_K_CLASS {
                for len in 0..=snapshot.max_len as usize + 40 {
                    let pruned = len + (k as usize) < snapshot.min_len as usize
                        || len.saturating_sub(k as usize) > snapshot.max_len as usize;
                    if !pruned {
                        reachable[planner.decide(len, k).chosen.index()] = true;
                    }
                }
            }
            for choice in AutoBackend::DEFAULT_CANDIDATES {
                assert_eq!(
                    auto.arms[choice.index()].get().is_some(),
                    reachable[choice.index()],
                    "table {table}: {}",
                    choice.name()
                );
            }
            if table == 2 {
                let radix = BackendChoice::Radix;
                assert!(planner.decisions().iter().any(|d| d.chosen == radix));
                assert!(
                    auto.arms[radix.index()].get().is_none(),
                    "the trie is released"
                );
            }
            // Whatever was released, every answer is still the oracle's —
            // a short query at k = 60 included, which may rebuild an arm.
            let mut w = workload();
            w.queries.push(QueryRecord::new(ds.get(7).to_vec(), 16));
            w.queries.push(QueryRecord::new(&ds.get(7)[..30], 60));
            assert_eq!(auto.run_workload(&w), oracle(&ds, &w));
        }
    }

    /// Runs the race over synthetic costs (`cost(arm, query)`; an arm's
    /// first call, the untimed one, costs `WARMUP` instead) and returns
    /// per arm `(observations, summed nanoseconds)` plus the call count.
    fn race(
        arms: usize,
        queries: usize,
        cost: impl Fn(usize, usize) -> u64,
    ) -> (Vec<(u64, u64)>, usize) {
        const WARMUP: u64 = 1 << 40;
        let mut calls = vec![0usize; arms];
        let timed = fair_share_race(arms, queries, |arm, query| {
            calls[arm] += 1;
            if calls[arm] == 1 {
                assert_eq!(query, 0, "the warm-up is the first probe query");
                return WARMUP;
            }
            cost(arm, query)
        });
        let mut per_arm = vec![(0u64, 0u64); arms];
        let mut next = vec![0usize; arms];
        for (arm, query, nanos) in timed {
            assert_eq!(query, next[arm] % queries, "each arm walks the probe in order");
            next[arm] += 1;
            assert!(nanos < WARMUP, "the untimed first query is never recorded");
            per_arm[arm].0 += 1;
            per_arm[arm].1 += nanos;
        }
        (per_arm, calls.iter().sum())
    }

    #[test]
    fn the_race_gives_every_arm_the_fastest_arms_time() {
        // Arms 10×, 1.5×, 1×, 20× and 2× the fastest's cost; odd queries
        // (the probe's k > 0 half) cost four times the even ones.
        let slowdown = [10.0, 1.5, 1.0, 20.0, 2.0];
        let (arms, queries) = (slowdown.len(), 16);
        let cost = |arm: usize, query: usize| {
            (slowdown[arm] * if query.is_multiple_of(2) { 1_000.0 } else { 4_000.0 }) as u64
        };
        let (per_arm, calls) = race(arms, queries, cost);
        let (fastest_seen, fastest_total) = per_arm[2];
        assert_eq!(fastest_seen, 2 * queries as u64, "the fastest arm ran the probe twice");
        for (arm, &(seen, total)) in per_arm.iter().enumerate() {
            // Equal time: an arm `s×` slower gets a `1/s` share of the
            // fastest's observations (half at 2×, three at 10×), give or
            // take the query it was in when the race ended — never none.
            let share = (fastest_seen as f64 / slowdown[arm]) as u64;
            assert!(
                seen >= 1 && (share..=share + 1).contains(&seen),
                "arm {arm}: {seen} observations, expected about {share}"
            );
            assert!(
                total <= fastest_total + cost(arm, 1),
                "arm {arm} used {total} ns against the fastest's {fastest_total}"
            );
        }
        assert_eq!(per_arm[3].0, 2, "20× off: two timings, one per threshold");
        let spent: u64 = per_arm.iter().map(|&(_, total)| total).sum();
        let overshoot: u64 = (0..arms).map(|arm| cost(arm, 1)).sum();
        assert!(spent <= arms as u64 * fastest_total + overshoot);
        let observations: u64 = per_arm.iter().map(|&(seen, _)| seen).sum();
        assert_eq!(calls as u64, observations + arms as u64, "one warm-up call per arm");
    }

    #[test]
    fn the_race_observes_every_arm_whatever_the_costs() {
        for flat in [0u64, 7] {
            let (per_arm, _) = race(5, 16, |_, _| flat);
            // Equal costs degenerate to round-robin in candidate order.
            assert_eq!(per_arm[0], (32, 32 * flat));
            assert!(per_arm.iter().all(|&(seen, _)| seen == 31 || seen == 32));
        }
        // An arm slower than the whole race still gets its one timing,
        // and a one-query probe stops at two.
        let (per_arm, _) = race(3, 1, |arm, _| if arm == 1 { 1 << 30 } else { 5 });
        assert_eq!(per_arm, vec![(2, 10), (1, 1 << 30), (1, 5)]);
        // One candidate: nothing to share, two passes.
        assert_eq!(race(1, 4, |_, _| 3).0, vec![(8, 24)]);
        // No probe, or no arm: nothing runs, not even a warm-up.
        assert_eq!(race(5, 0, |_, _| 1), (vec![(0, 0); 5], 0));
        assert_eq!(race(0, 16, |_, _| 1), (vec![], 0));
    }

    #[test]
    fn the_build_time_probe_is_reported_per_arm() {
        let ds = dataset();
        let w = workload();
        let auto = AutoBackend::calibrated(&ds, 1, &w);
        let plan = auto.diag().plan.expect("auto reports its plan");
        assert!(plan.calibrated);
        let names: Vec<&str> = plan.probe.iter().map(|&(name, ..)| name).collect();
        let candidates: Vec<&str> =
            AutoBackend::DEFAULT_CANDIDATES.iter().map(|c| c.name()).collect();
        assert_eq!(names, candidates);
        assert!(plan.probe.iter().all(|&(_, seen, _)| seen >= 1));
        assert!(
            plan.probe.iter().any(|&(_, seen, _)| seen == 2 * w.len() as u64),
            "one arm went through the probe twice: {:?}",
            plan.probe
        );
        assert_eq!(auto.observations().total(), 0, "the probe bypasses the grid");
        assert!(auto.plan_counts().iter().all(|&(_, routed)| routed == 0));
        // Static planning and a one-candidate router probe nothing and
        // build no arm before `prepare`, as before the race.
        let statik = AutoBackend::owned(ds.clone(), Probe::Static);
        let fixed = AutoBackend::fixed(ds.clone(), BackendChoice::Radix);
        for (auto, candidates) in [(&statik, 5), (&fixed, 1)] {
            let plan = auto.diag().plan.expect("plan");
            assert!(!plan.calibrated);
            assert_eq!(plan.probe.len(), candidates);
            assert!(plan.probe.iter().all(|&(_, seen, nanos)| seen == 0 && nanos == 0));
            assert!(auto.arms.iter().all(|arm| arm.get().is_none()));
        }
        assert_eq!(
            statik.planner().decisions(),
            Planner::new(StatsSnapshot::compute(&ds), &AutoBackend::DEFAULT_CANDIDATES).decisions()
        );
    }

    #[test]
    fn the_default_probe_measures_k0_and_one_scaled_threshold() {
        use crate::presets;
        for (preset, k) in [(presets::city(4_000), 1), (presets::dna(2_000), 8)] {
            let ds = &preset.dataset;
            let probe = AutoBackend::default_probe(ds);
            assert_eq!(probe.len(), 16);
            for (i, q) in probe.queries.iter().enumerate() {
                let id = (i * ds.len() / 16) as u32;
                assert_eq!(q.text, ds.get(id), "evenly spaced records");
                assert_eq!(q.threshold, if i.is_multiple_of(2) { 0 } else { k });
            }
        }
        // Fewer records than probe slots: one query per record.
        let probe = AutoBackend::default_probe(&dataset());
        assert_eq!(probe.len(), dataset().len());
        assert!(AutoBackend::default_probe(&Dataset::new()).queries.is_empty());
    }

    #[test]
    fn auto_counts_every_routed_query() {
        let ds = dataset();
        let w = workload();
        let auto = AutoBackend::new(&ds, 1);
        let _ = auto.run_workload(&w);
        let total: u64 = auto.plan_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, w.len() as u64);
        let diag = auto.diag();
        let plan = diag.plan.expect("auto reports its plan");
        assert_eq!(plan.counts, auto.plan_counts());
        assert!(!plan.decisions.is_empty());
    }

    #[test]
    fn auto_topk_matches_a_fixed_backend() {
        let ds = dataset();
        let auto = AutoBackend::new(&ds, 1);
        let scan = ScanBackend::new(SequentialScan::new(&ds), SeqVariant::V4Flat);
        let (a, _) = search_top_k_with(|radius| auto.search_counting(b"Berlim", radius), 3, 8);
        let (b, _) = search_top_k_with(|radius| scan.search_counting(b"Berlim", radius), 3, 8);
        assert_eq!(a, b);
        assert_eq!(a[0].id, 0);
    }

    #[test]
    fn replan_needs_a_minimum_of_observations_then_swaps() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        let auto = AutoBackend::new(&ds, 1);
        assert!(!auto.replan(), "an empty grid must not swap the table");
        assert_eq!(auto.plan_epoch(), 0);
        // Fill the routed cells past the gate, then close the loop.
        for _ in 0..MIN_CELL_OBSERVATIONS {
            assert_eq!(auto.run_workload(&w), expected);
        }
        assert!(auto.replan(), "a filled grid replans");
        assert_eq!(auto.plan_epoch(), 1);
        assert!(auto.planner().is_calibrated());
        assert_eq!(auto.run_workload(&w), expected, "replanned routing stays exact");
        let nanos: u64 = auto.observed_arm_nanos().iter().map(|(_, n)| n).sum();
        assert!(nanos > 0, "routed queries are timed into the grid");
    }

    /// A top-k is a series of threshold queries, so it moves the same
    /// counters a `QUERY` moves, once per radius probed: `plan_counts`
    /// counts probes, not requests.
    #[test]
    fn a_topk_ticks_one_decision_per_probe_and_feeds_the_class_cells() {
        let ds = dataset();
        let auto = AutoBackend::new(&ds, 1);
        let snapshot = auto.planner().snapshot().clone();
        let query = b"Berlim";
        let mut radii = Vec::new();
        let (top, _) = search_top_k_with(
            |radius| {
                radii.push(radius);
                auto.search_counting(query, radius)
            },
            3,
            8,
        );
        assert_eq!(top[0].id, 0);
        assert!(radii.len() > 1, "three matches need more than the exact probe");
        let probes = radii.len() as u64;
        let routed: u64 = auto.plan_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(routed, probes);
        let mut expected = vec![0u64; NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1)];
        for &radius in &radii {
            expected[QueryClass::of(&snapshot, query.len(), radius).table_index()] += 1;
        }
        let filled: Vec<u64> = auto
            .observations()
            .class_samples()
            .iter()
            .map(|row| row.iter().map(|cell| cell.count).sum())
            .collect();
        assert_eq!(filled, expected, "each radius lands in its own (length class, k) cell");
        assert_eq!(auto.observations().total(), probes);
    }

    #[test]
    fn released_arms_stay_released_under_topk() {
        use crate::presets;
        let preset = presets::city(4_000);
        let ds = &preset.dataset;
        // The race builds every arm; its table depends on the clock, so
        // pin the one every served dataset ends up with (V8 wherever the
        // race did not measure something faster) before releasing.
        let mut auto = AutoBackend::calibrated(ds, 1, &AutoBackend::default_probe(ds));
        auto.set_planner(Planner::with_multipliers(
            auto.planner().snapshot().clone(),
            &AutoBackend::DEFAULT_CANDIDATES,
            &[(BackendChoice::ScanBitParallel, 1e-9)],
        ));
        auto.release_unrouted();
        let v8 = ScanBackend::new(SequentialScan::new(ds), SeqVariant::V8BitParallel);
        for i in 0..40 {
            // Evenly spaced records, so mixed lengths; every other one
            // with its first byte replaced.
            let mut query = ds.get((i * ds.len() / 40) as u32).to_vec();
            if i % 2 == 1 && !query.is_empty() {
                query[0] = b'#';
            }
            let count = [1, 5, 100][i % 3];
            assert_eq!(
                search_top_k_with(|radius| auto.search_counting(&query, radius), count, 16).0,
                search_top_k_with(|radius| v8.search_counting(&query, radius), count, 16).0,
                "top-{count} of record {i}"
            );
        }
        let planner = auto.planner();
        for choice in AutoBackend::DEFAULT_CANDIDATES {
            assert_eq!(
                auto.arms[choice.index()].get().is_some(),
                planner.decisions().iter().any(|d| d.chosen == choice),
                "{}: a top-k asks only for arms the table routes to",
                choice.name()
            );
        }
    }

    #[test]
    fn sorted_scans_count_cells_and_flat_scans_report_zero() {
        let ds = dataset();
        let cells = |variant| {
            let scan = ScanBackend::new(SequentialScan::new(&ds), variant);
            scan.prepare();
            scan.search_counting(b"Berlin", 2).1
        };
        assert!(cells(SeqVariant::V7SortedPrefix) > 0);
        assert!(cells(SeqVariant::V8BitParallel) > 0);
        assert_eq!(cells(SeqVariant::V4Flat), 0);
    }

    #[test]
    fn diag_reports_structures_and_filters() {
        let ds = dataset();
        let radix = IndexBackend::radix(&ds, false, Strategy::Sequential);
        let d = radix.diag();
        assert!(d.structure.unwrap().0 > 1);
        assert_eq!(d.filters, vec!["length"]);
        assert!(d.plan.is_none());
        let (nodes, bytes) = IndexBackend::trie(&ds, true).diag().structure.unwrap();
        assert!(nodes > 1 && bytes > 0);
        let filtered = FilteredScanBackend::new(&ds, Strategy::Sequential);
        assert_eq!(filtered.diag().filters, vec!["length", "frequency"]);
        assert!(filtered.diag().structure.is_none(), "scans own no structure");
    }
}
