//! The adaptive query planner: picks a backend per query class from a
//! dataset's statistics.
//!
//! The paper's central finding is a *crossover*: the optimized
//! sequential scan wins on short large-alphabet strings (city names),
//! the trie family wins on long small-alphabet strings (DNA reads).
//! Neither side wins universally, so the choice must follow workload
//! statistics. The [`Planner`] encodes that: it takes a
//! [`StatsSnapshot`] (string-length distribution, alphabet size, `n`),
//! evaluates a paper-shaped cost model for every candidate
//! [`BackendChoice`] over a small grid of query classes
//! (`|q|` relative to the mean length × threshold `k`), and records one
//! explainable [`PlanDecision`] per class.
//!
//! The static model is deterministic — a pure function of the snapshot
//! — which the planner-parity property tests rely on. Because the model
//! is shaped after the paper's machine, not this one, a planner can
//! additionally be built with *calibration multipliers* measured by a
//! micro-probe at build time (see `SearchEngine::build_with`); the
//! probe runs real queries through each candidate and scales the hints
//! by observed cost, the same way index construction is paid at build
//! time and excluded from query timing.

use simsearch_data::StatsSnapshot;

/// Thresholds above this value share the top `k` class.
pub const MAX_K_CLASS: u32 = 16;

/// Number of query-length classes (short / medium / long vs. the mean).
pub const NUM_LEN_CLASSES: usize = 3;

/// Minimum observations a live `(arm, class)` cell needs before its own
/// ratio is trusted; thinner cells fall back to the arm's pooled ratio
/// (see [`Planner::with_class_samples`]). Low enough that a replan tick
/// converges within one serving burst, high enough that a single
/// outlier query cannot flip a class.
pub const MIN_CELL_OBSERVATIONS: u64 = 8;

/// The execution backends the planner can choose among. Every variant
/// maps to one implementation of the `Backend` trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Flat sequential scan over the arena (the V4+ rungs), candidates
    /// from the filter chain, banded early-abort verification.
    ScanFlat,
    /// Sorted-prefix scan (V7): LCP-resumable DP over the sorted arena.
    ScanSorted,
    /// Bit-parallel sweep (V8): Myers blocks over the sorted arena,
    /// resumed at the LCP floor, on the candidates the view's length
    /// filter and occupancy signature leave. Cost grows with `k` twice
    /// over: more candidates survive, and each lives more columns before
    /// its decisive diagonal passes `k`.
    ScanBitParallel,
    /// Compressed (radix) tree with modern pruning.
    Radix,
    /// Inverted q-gram index (count filter + verification).
    Qgram,
}

impl BackendChoice {
    /// Every choice, in a fixed order (ties in the cost model resolve
    /// to the earlier entry).
    pub const ALL: [BackendChoice; 5] = [
        BackendChoice::ScanFlat,
        BackendChoice::ScanSorted,
        BackendChoice::ScanBitParallel,
        BackendChoice::Radix,
        BackendChoice::Qgram,
    ];

    /// Number of distinct choices.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable short name (used in metrics, bench JSON, and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::ScanFlat => "scan-flat",
            BackendChoice::ScanSorted => "scan-sorted",
            BackendChoice::ScanBitParallel => "scan-bitparallel",
            BackendChoice::Radix => "radix",
            BackendChoice::Qgram => "qgram",
        }
    }

    /// Dense index into per-choice arrays: the variant's position in
    /// [`BackendChoice::ALL`], which lists the variants in declaration
    /// order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The class a query falls into: its length relative to the dataset's
/// mean (short / medium / long) × its clamped threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryClass {
    /// 0 = short (`2·|q| < mean`), 1 = medium, 2 = long (`|q| > 2·mean`).
    pub len_class: u8,
    /// `min(k, MAX_K_CLASS)`.
    pub k_class: u8,
}

impl QueryClass {
    /// Classifies a query against a snapshot. Pure integer arithmetic,
    /// so classification is exactly reproducible.
    pub fn of(snapshot: &StatsSnapshot, query_len: usize, k: u32) -> Self {
        let records = snapshot.records.max(1);
        let q = query_len as u64;
        let len_class = if 2 * q * records < snapshot.total_bytes {
            0
        } else if q * records > 2 * snapshot.total_bytes {
            2
        } else {
            1
        };
        Self {
            len_class,
            k_class: k.min(MAX_K_CLASS) as u8,
        }
    }

    /// The query length the cost model evaluates for this class.
    pub fn representative_len(self, snapshot: &StatsSnapshot) -> usize {
        let mean = (snapshot.total_bytes / snapshot.records.max(1)) as usize;
        match self.len_class {
            0 => mean / 4,
            1 => mean,
            _ => (mean * 3).min(snapshot.max_len as usize),
        }
    }

    /// Dense index into the decision table.
    pub fn table_index(self) -> usize {
        self.len_class as usize * (MAX_K_CLASS as usize + 1) + self.k_class as usize
    }

    /// Every class, in table order.
    pub fn all() -> impl Iterator<Item = QueryClass> {
        (0..NUM_LEN_CLASSES as u8).flat_map(|len_class| {
            (0..=MAX_K_CLASS as u8).map(move |k_class| QueryClass {
                len_class,
                k_class,
            })
        })
    }
}

/// One backend's estimated cost for a query class, in rough DP-cell
/// units (comparable across backends, not absolute time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// The backend being estimated.
    pub choice: BackendChoice,
    /// Estimated cost (lower is better).
    pub cost: f64,
}

/// The planner's recorded decision for one query class — kept around
/// so `explain` and `diag()` can show *why* a backend was chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The class this decision covers.
    pub class: QueryClass,
    /// The winning backend.
    pub chosen: BackendChoice,
    /// All candidate estimates, ascending by cost (ties broken by
    /// [`BackendChoice::ALL`] order).
    pub estimates: Vec<CostEstimate>,
    /// Whether calibration multipliers were applied.
    pub calibrated: bool,
}

/// The paper-shaped static cost model: estimated cost of answering one
/// query of `query_len` bytes at threshold `k` with `choice`, given
/// only the dataset's snapshot. Units are rough DP cells.
///
/// The model has five dials, each tied to a mechanism the paper (or a
/// related-work baseline) measures:
///
/// * **candidates** — length-filter survivors (eq. (5)), from the
///   snapshot's bucketed length histogram;
/// * **banded early-abort verification** — a candidate costs about
///   `min(|q|+1, 2k+2)` rows of width `min(2k+1, |q|+1)` before the
///   row-minimum abort fires;
/// * **prefix sharing** — adjacent records in sorted order share an
///   expected `log_σ(n)` prefix characters, the fraction of rows the
///   sorted scan and the tries never recompute;
/// * **subtree abandonment** — a trie descent abandons a subtree once
///   the row minimum exceeds `k`, bounding explored depth by roughly
///   `log_σ(n) + 2k + 2` characters of the record length;
/// * **structure overheads** — per-record probe/node-hop constants that
///   penalize pointer-chasing structures on short strings.
///
/// On the paper's datasets this reproduces the crossover: for city
/// names (short strings, σ ≈ 60) the flat scan's hint is smallest; for
/// DNA reads (long strings, σ = 5) the radix tree's is.
pub fn static_cost(
    snapshot: &StatsSnapshot,
    choice: BackendChoice,
    query_len: usize,
    k: u32,
) -> f64 {
    let n = snapshot.records as f64;
    if snapshot.records == 0 {
        return 0.0;
    }
    let mean = snapshot.mean_len().max(1.0);
    let sigma = (snapshot.symbols.max(2)) as f64;
    let q = query_len.min(snapshot.max_len as usize + k as usize) as f64;
    let band = (2.0 * k as f64 + 1.0).min(q + 1.0);
    let abort_rows = (q + 1.0).min(2.0 * k as f64 + 2.0);
    let cand = snapshot.length_survivors(query_len, k) as f64;
    // Early-abort verification cost of one candidate, in cells.
    let verify = abort_rows * band;
    // Expected shared-prefix characters between adjacent sorted records,
    // and the fraction of verification rows that sharing skips.
    let lcp = ((n + 1.0).ln() / sigma.ln()).max(0.0);
    let shared = (lcp / mean).min(0.9);
    // Fraction of a record a trie descent explores before the subtree
    // is abandoned.
    let prune = ((lcp + 2.0 * k as f64 + 2.0) / mean).min(1.0);
    const PROBE: f64 = 0.25; // one filter probe, in cell units
    // Pointer-chasing node hops cost far more than arena-local cells
    // (cache misses) — the constant that makes tries lose on short
    // strings despite their pruning, exactly the paper's §5 story.
    const HOP_RADIX: f64 = 32.0;
    match choice {
        BackendChoice::ScanFlat => n * PROBE + cand * verify,
        BackendChoice::ScanSorted => n * (PROBE + 2.0) + cand * verify * (1.0 - shared),
        BackendChoice::ScanBitParallel => {
            // Myers word sweep over the sorted arena: the same one-time
            // sort share as ScanSorted, then each surviving candidate
            // costs one block-column advance per unshared byte. A word
            // advance is branch-free straight-line ALU — about one
            // scalar cell of wall clock despite representing 64 cells.
            // `q × blocks` words per candidate is an upper bound: the
            // kernel stops at the column where the decisive diagonal
            // passes `k` (a few columns on a small alphabet, more as `k`
            // grows) and advances only the blocks inside the k-band
            // (almost always one). On a large alphabet `cand` is an upper
            // bound too: the view's occupancy signature hands the kernel
            // a few percent of the length filter's survivors.
            // Deliberately left uncalibrated (DESIGN §13, *Planner
            // arm*). Still the arm that wins long strings and high
            // thresholds, where `band` blows the others up.
            const WORD_EQ: f64 = 1.0;
            let blocks = (q / 64.0).ceil().max(1.0);
            n * (PROBE + 2.0) + cand * (1.0 - shared) * q.max(1.0) * blocks * WORD_EQ
        }
        BackendChoice::Radix => {
            cand * prune * ((1.0 - shared) * verify + HOP_RADIX)
        }
        BackendChoice::Qgram => {
            let gram_len = 2.0; // the workspace's q-gram baseline uses q = 2
            let distinct = sigma.powf(gram_len).min(n * (mean - 1.0).max(1.0)).max(1.0);
            let grams_in_query = (q - gram_len + 1.0).max(0.0);
            let merge = grams_in_query * (n * (mean - 1.0).max(0.0) / distinct);
            let sel = if grams_in_query <= 2.0 * k as f64 {
                1.0
            } else {
                ((2.0 * k as f64 + 1.0) / grams_in_query).max(0.05)
            };
            merge + cand * sel * verify
        }
    }
}

/// One timed probe measurement: `choice` answered a query of
/// `query_len` bytes at threshold `k` in `nanos` wall-clock
/// nanoseconds. Calibration groups observations by [`QueryClass`], so
/// the model's shape error is corrected *per class* — a backend whose
/// static hint overshoots at `k = 0` and undershoots at `k = 16` (the
/// q-gram index on DNA does exactly this: the posting-list merge
/// dominates its hint at every `k`, while its real cost explodes with
/// `k` through verification) gets a separate correction for each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The backend that was timed.
    pub choice: BackendChoice,
    /// The probe query's length in bytes.
    pub query_len: usize,
    /// The probe query's threshold.
    pub k: u32,
    /// Measured wall-clock nanoseconds for the query.
    pub nanos: f64,
}

/// One aggregated live-observation cell: every query an arm answered
/// for one query class, summed. The serving layer accumulates these in
/// atomic counters (`ObservationGrid`); a replan tick snapshots them
/// and hands the grid to [`Planner::with_class_samples`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellSample {
    /// Total measured wall-clock nanoseconds across the cell's queries.
    pub nanos: u64,
    /// Total statically predicted cost units ([`static_cost`], clamped
    /// to ≥ 1 per query) for exactly those queries.
    pub predicted: u64,
    /// Number of queries in the cell.
    pub count: u64,
}

impl CellSample {
    /// Folds another cell into this one (pooling across classes).
    pub fn merge(&mut self, other: CellSample) {
        self.nanos = self.nanos.saturating_add(other.nanos);
        self.predicted = self.predicted.saturating_add(other.predicted);
        self.count = self.count.saturating_add(other.count);
    }

    fn ratio(self) -> Option<f64> {
        (self.predicted > 0).then(|| {
            (self.nanos as f64 / self.predicted as f64).max(f64::MIN_POSITIVE)
        })
    }
}

/// The planner: a snapshot, a candidate set, per-backend calibration
/// multipliers (global and per query class), and the precomputed
/// decision table.
#[derive(Debug, Clone)]
pub struct Planner {
    snapshot: StatsSnapshot,
    candidates: Vec<BackendChoice>,
    /// Per-class multiplier rows, indexed by `QueryClass::table_index`;
    /// classes the probe never covered hold the backend's global ratio.
    class_multipliers: Vec<[f64; BackendChoice::COUNT]>,
    calibrated: bool,
    table: Vec<PlanDecision>,
}

impl Planner {
    /// Builds an uncalibrated planner from a snapshot: decisions are a
    /// pure, deterministic function of `(snapshot, candidates)`.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn new(snapshot: StatsSnapshot, candidates: &[BackendChoice]) -> Self {
        Self::with_multipliers(snapshot, candidates, &[])
    }

    /// Builds a planner whose static hints are scaled by measured
    /// per-backend multipliers (`cost × multiplier`; absent backends
    /// keep 1.0). Passing an empty slice yields the uncalibrated
    /// planner.
    ///
    /// # Panics
    /// Panics if `candidates` is empty or any multiplier is not finite
    /// and positive.
    pub fn with_multipliers(
        snapshot: StatsSnapshot,
        candidates: &[BackendChoice],
        measured: &[(BackendChoice, f64)],
    ) -> Self {
        let mut multipliers = [1.0; BackendChoice::COUNT];
        for &(choice, m) in measured {
            assert!(
                m.is_finite() && m > 0.0,
                "calibration multiplier for {} must be finite and positive",
                choice.name()
            );
            multipliers[choice.index()] = m;
        }
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        Self::from_rows(snapshot, candidates, vec![multipliers; rows], !measured.is_empty())
    }

    /// Builds a planner calibrated from per-query probe timings.
    ///
    /// Observations are grouped by [`QueryClass`]; for every `(class,
    /// backend)` pair the probe covered, the multiplier is the measured
    /// nanoseconds over the statically predicted cost of exactly those
    /// probe queries — so for probed classes the decision table picks
    /// the *empirically* fastest backend. Classes the probe never
    /// touched fall back to the backend's global ratio (all its
    /// observations pooled), and backends with no observations keep
    /// 1.0. An empty slice yields the uncalibrated planner.
    ///
    /// # Panics
    /// Panics if `candidates` is empty or any observation's `nanos` is
    /// not finite and non-negative.
    pub fn with_observations(
        snapshot: StatsSnapshot,
        candidates: &[BackendChoice],
        observations: &[Observation],
    ) -> Self {
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        // (nanos, predicted) accumulators: per class row and global.
        let mut per_class = vec![[(0.0f64, 0.0f64); BackendChoice::COUNT]; rows];
        let mut global = [(0.0f64, 0.0f64); BackendChoice::COUNT];
        for obs in observations {
            assert!(
                obs.nanos.is_finite() && obs.nanos >= 0.0,
                "calibration timing for {} must be finite and non-negative",
                obs.choice.name()
            );
            let predicted =
                static_cost(&snapshot, obs.choice, obs.query_len, obs.k).max(1.0);
            let row = QueryClass::of(&snapshot, obs.query_len, obs.k).table_index();
            let cell = &mut per_class[row][obs.choice.index()];
            cell.0 += obs.nanos;
            cell.1 += predicted;
            let g = &mut global[obs.choice.index()];
            g.0 += obs.nanos;
            g.1 += predicted;
        }
        let ratio = |(nanos, predicted): (f64, f64)| -> Option<f64> {
            (predicted > 0.0).then(|| (nanos / predicted).max(f64::MIN_POSITIVE))
        };
        let fallback: Vec<f64> = global
            .iter()
            .map(|&g| ratio(g).unwrap_or(1.0))
            .collect();
        let class_multipliers: Vec<[f64; BackendChoice::COUNT]> = per_class
            .iter()
            .map(|row| {
                std::array::from_fn(|i| ratio(row[i]).unwrap_or(fallback[i]))
            })
            .collect();
        Self::from_rows(
            snapshot,
            candidates,
            class_multipliers,
            !observations.is_empty(),
        )
    }

    /// Builds a planner re-calibrated from *live* per-(arm, class)
    /// latency aggregates — the replan tick's constructor. Unlike
    /// [`Planner::with_observations`] (which trusts every probe query,
    /// because the build-time probe is controlled), live cells are
    /// noisy and unevenly filled, so a cell only speaks for itself once
    /// it holds at least `min_count` queries; thinner cells fall back
    /// to the arm's pooled ratio across all classes, and arms the
    /// workload never routed to keep 1.0.
    ///
    /// `cells` is indexed `[QueryClass::table_index()][choice.index()]`.
    ///
    /// Every multiplier is positive and finite by construction, and
    /// bounded by the cell's total nanoseconds (each query contributes
    /// ≥ 1 predicted unit). Scaling all `nanos` by a common power of
    /// two scales every multiplier exactly, so the argmin arm of every
    /// class is invariant under clock-unit changes — the
    /// `calibration_props` suite holds the planner to this.
    ///
    /// # Panics
    /// Panics if `candidates` is empty or the row count of `cells` is
    /// not the table size.
    pub fn with_class_samples(
        snapshot: StatsSnapshot,
        candidates: &[BackendChoice],
        cells: &[[CellSample; BackendChoice::COUNT]],
        min_count: u64,
    ) -> Self {
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        assert_eq!(cells.len(), rows, "one cell row per query class");
        let mut pooled = [CellSample::default(); BackendChoice::COUNT];
        for row in cells {
            for (acc, &cell) in pooled.iter_mut().zip(row.iter()) {
                acc.merge(cell);
            }
        }
        let trusted = |cell: CellSample| -> Option<f64> {
            if cell.count >= min_count.max(1) {
                cell.ratio()
            } else {
                None
            }
        };
        let fallback: Vec<f64> = pooled
            .iter()
            .map(|&arm| trusted(arm).unwrap_or(1.0))
            .collect();
        let class_multipliers: Vec<[f64; BackendChoice::COUNT]> = cells
            .iter()
            .map(|row| {
                std::array::from_fn(|i| trusted(row[i]).unwrap_or(fallback[i]))
            })
            .collect();
        let calibrated = pooled.iter().any(|arm| arm.count >= min_count.max(1));
        Self::from_rows(snapshot, candidates, class_multipliers, calibrated)
    }

    fn from_rows(
        snapshot: StatsSnapshot,
        candidates: &[BackendChoice],
        class_multipliers: Vec<[f64; BackendChoice::COUNT]>,
        calibrated: bool,
    ) -> Self {
        assert!(!candidates.is_empty(), "planner needs at least one candidate");
        let mut planner = Self {
            snapshot,
            candidates: candidates.to_vec(),
            class_multipliers,
            calibrated,
            table: Vec::new(),
        };
        planner.table = QueryClass::all()
            .map(|class| planner.decide_class(class))
            .collect();
        planner
    }

    /// The snapshot the planner was built from.
    pub fn snapshot(&self) -> &StatsSnapshot {
        &self.snapshot
    }

    /// The candidate backends the planner chooses among.
    pub fn candidates(&self) -> &[BackendChoice] {
        &self.candidates
    }

    /// Whether calibration multipliers were applied.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// The (possibly calibrated) cost hint for one backend, scaled by
    /// the multiplier of the class `(query_len, k)` falls into.
    pub fn cost(&self, choice: BackendChoice, query_len: usize, k: u32) -> f64 {
        let class = QueryClass::of(&self.snapshot, query_len, k);
        self.cost_in_class(class, choice, query_len, k)
    }

    fn cost_in_class(
        &self,
        class: QueryClass,
        choice: BackendChoice,
        query_len: usize,
        k: u32,
    ) -> f64 {
        static_cost(&self.snapshot, choice, query_len, k)
            * self.class_multipliers[class.table_index()][choice.index()]
    }

    /// The recorded decision covering a concrete query — a table
    /// lookup, cheap enough for the per-query hot path.
    pub fn decide(&self, query_len: usize, k: u32) -> &PlanDecision {
        &self.table[QueryClass::of(&self.snapshot, query_len, k).table_index()]
    }

    /// The per-class multiplier rows, in [`QueryClass::all`] order.
    pub fn class_multipliers(&self) -> &[[f64; BackendChoice::COUNT]] {
        &self.class_multipliers
    }

    /// Every recorded decision, in [`QueryClass::all`] order.
    pub fn decisions(&self) -> &[PlanDecision] {
        &self.table
    }

    fn decide_class(&self, class: QueryClass) -> PlanDecision {
        let q = class.representative_len(&self.snapshot);
        let k = class.k_class as u32;
        let mut estimates: Vec<CostEstimate> = self
            .candidates
            .iter()
            .map(|&choice| CostEstimate {
                choice,
                // Scale by this class's own multiplier row: the
                // representative length may classify differently when
                // the length distribution is tight (DNA reads), and the
                // decision must use the row it is computed for.
                cost: self.cost_in_class(class, choice, q, k),
            })
            .collect();
        estimates.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .expect("cost hints are finite")
                .then(a.choice.index().cmp(&b.choice.index()))
        });
        PlanDecision {
            class,
            chosen: estimates[0].choice,
            estimates,
            calibrated: self.calibrated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use simsearch_data::Dataset;

    fn snapshot_of(records: &[&str]) -> StatsSnapshot {
        StatsSnapshot::compute(&Dataset::from_records(records.iter().copied()))
    }

    #[test]
    fn index_is_the_position_in_all() {
        // `index()` is a cast of the discriminant, so the enum's
        // declaration order and the table's order must be the same list.
        assert_eq!(BackendChoice::ALL.len(), BackendChoice::COUNT);
        for (i, choice) in BackendChoice::ALL.into_iter().enumerate() {
            assert_eq!(choice.index(), i, "{}", choice.name());
        }
    }

    #[test]
    fn decisions_are_deterministic_for_a_fixed_snapshot() {
        let snap = snapshot_of(&["Berlin", "Bern", "Bonn", "Ulm"]);
        let a = Planner::new(snap.clone(), &BackendChoice::ALL);
        let b = Planner::new(snap, &BackendChoice::ALL);
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn decide_agrees_with_the_precomputed_table() {
        let snap = snapshot_of(&["kitten", "sitting", "mitten"]);
        let planner = Planner::new(snap.clone(), &BackendChoice::ALL);
        for q_len in [0, 1, 3, 6, 9, 40] {
            for k in [0, 1, 4, 40] {
                let d = planner.decide(q_len, k);
                assert_eq!(d.class, QueryClass::of(&snap, q_len, k));
                assert_eq!(d, &planner.decisions()[d.class.table_index()]);
            }
        }
    }

    #[test]
    fn static_model_reproduces_the_paper_crossover() {
        // Short large-alphabet strings: the flat scan's hint beats the
        // tries'. Long small-alphabet strings: the radix tree's wins.
        let city = StatsSnapshot::compute(&presets::city(4000).dataset);
        let dna = StatsSnapshot::compute(&presets::dna(2000).dataset);
        let city_scan = static_cost(&city, BackendChoice::ScanFlat, 10, 2);
        let city_radix = static_cost(&city, BackendChoice::Radix, 10, 2);
        assert!(
            city_scan < city_radix,
            "city: scan {city_scan} should beat radix {city_radix}"
        );
        let dna_scan = static_cost(&dna, BackendChoice::ScanFlat, 104, 8);
        let dna_radix = static_cost(&dna, BackendChoice::Radix, 104, 8);
        assert!(
            dna_radix < dna_scan,
            "dna: radix {dna_radix} should beat scan {dna_scan}"
        );
        // And the relative margin flips across datasets.
        assert!(city_radix / city_scan > dna_radix / dna_scan);
    }

    #[test]
    fn bitparallel_arm_wins_long_strings_at_high_k() {
        // V8's hint is per word and independent of the band, so on DNA
        // reads at the top threshold it must undercut every arm whose
        // verification grows with k — giving `auto` a new best arm on
        // long strings, per the roadmap target.
        let dna = StatsSnapshot::compute(&presets::dna(2000).dataset);
        let v8 = static_cost(&dna, BackendChoice::ScanBitParallel, 104, 16);
        for other in [
            BackendChoice::ScanFlat,
            BackendChoice::ScanSorted,
            BackendChoice::Radix,
            BackendChoice::Qgram,
        ] {
            let cost = static_cost(&dna, other, 104, 16);
            assert!(
                v8 < cost,
                "dna k=16: bit-parallel {v8} should beat {} {cost}",
                other.name()
            );
        }
    }

    #[test]
    fn calibration_multipliers_change_the_winner() {
        let snap = snapshot_of(&["aaaa", "aaab", "aabb", "abbb"]);
        let base = Planner::new(snap.clone(), &BackendChoice::ALL);
        let winner = base.decide(4, 1).chosen;
        // Make the static winner look 1000× slower than measured.
        let skewed =
            Planner::with_multipliers(snap, &BackendChoice::ALL, &[(winner, 1000.0)]);
        assert!(skewed.is_calibrated());
        assert_ne!(skewed.decide(4, 1).chosen, winner);
    }

    #[test]
    fn observations_calibrate_each_class_independently() {
        // Two arms, two k classes. The probe says: A is fast at k=0 but
        // slow at k=2, B the reverse. A single arm-wide ratio cannot
        // express that; the per-class table must route k=0 to A and
        // k=2 to B.
        let snap = snapshot_of(&["aaaa", "aaab", "aabb", "abbb"]);
        let arms = [BackendChoice::ScanFlat, BackendChoice::Radix];
        let obs = |choice, k, nanos| Observation {
            choice,
            query_len: 4,
            k,
            nanos,
        };
        let planner = Planner::with_observations(
            snap,
            &arms,
            &[
                obs(BackendChoice::ScanFlat, 0, 10.0),
                obs(BackendChoice::Radix, 0, 10_000.0),
                obs(BackendChoice::ScanFlat, 2, 10_000.0),
                obs(BackendChoice::Radix, 2, 10.0),
            ],
        );
        assert!(planner.is_calibrated());
        assert_eq!(planner.decide(4, 0).chosen, BackendChoice::ScanFlat);
        assert_eq!(planner.decide(4, 2).chosen, BackendChoice::Radix);
    }

    #[test]
    fn a_measured_k0_row_routes_exact_match_to_the_index() {
        // The shape `AutoBackend::default_probe` yields on both served
        // workloads: two thresholds, 0 and k. The trie is fast at 0 and
        // slow at k, V8 the reverse, the other arms slow at both — and a
        // slow arm may have one timing per threshold. The k = 0 row must
        // rest on its own cells, not on ratios pooled with k's timings.
        let snap = StatsSnapshot::compute(&presets::city(4_000).dataset);
        let arms = [
            BackendChoice::ScanFlat,
            BackendChoice::ScanSorted,
            BackendChoice::ScanBitParallel,
            BackendChoice::Radix,
            BackendChoice::Qgram,
        ];
        let len = snap.mean_len() as usize;
        let timing = |choice, k: u32| match (choice, k) {
            (BackendChoice::Radix, 0) => 40_000.0,
            (BackendChoice::Radix, _) => 450_000.0,
            (BackendChoice::ScanBitParallel, 0) => 90_000.0,
            (BackendChoice::ScanBitParallel, _) => 130_000.0,
            (_, 0) => 1_000_000.0,
            _ => 2_500_000.0,
        };
        let mut observations = Vec::new();
        for &choice in &arms {
            let fast = matches!(choice, BackendChoice::Radix | BackendChoice::ScanBitParallel);
            for k in [0, 1] {
                for _ in 0..if fast { 8 } else { 1 } {
                    observations.push(Observation {
                        choice,
                        query_len: len,
                        k,
                        nanos: timing(choice, k),
                    });
                }
            }
        }
        let planner = Planner::with_observations(snap.clone(), &arms, &observations);
        assert_eq!(planner.decide(len, 0).chosen, BackendChoice::Radix);
        for k in 1..=MAX_K_CLASS {
            assert_eq!(
                planner.decide(len, k).chosen,
                BackendChoice::ScanBitParallel,
                "k = {k}"
            );
        }
        let row = |k| planner.class_multipliers()[QueryClass::of(&snap, len, k).table_index()];
        for &choice in &arms {
            let own = timing(choice, 0) / static_cost(&snap, choice, len, 0).max(1.0);
            let (at_k0, pooled) = (row(0)[choice.index()], row(2)[choice.index()]);
            assert!(
                (at_k0 - own).abs() <= own * 1e-12,
                "{}: k = 0 multiplier {at_k0} is not its own cell's {own}",
                choice.name()
            );
            assert_ne!(at_k0, pooled, "{}: k = 2 is extrapolated", choice.name());
        }
    }

    #[test]
    fn unprobed_classes_fall_back_to_the_global_ratio() {
        // Only k=1 is probed, and the probe makes the static winner
        // look 10^6× slower than measured reality makes the other arm.
        // The k=1 decision flips; an unprobed class reuses each arm's
        // pooled ratio, so it flips the same way rather than reverting
        // to the uncalibrated table.
        let snap = snapshot_of(&["aaaa", "aaab", "aabb", "abbb"]);
        let base = Planner::new(snap.clone(), &BackendChoice::ALL);
        let winner = base.decide(4, 1).chosen;
        let loser = base.decide(4, 1).estimates[1].choice;
        let mk = |choice, nanos| Observation {
            choice,
            query_len: 4,
            k: 1,
            nanos,
        };
        let planner = Planner::with_observations(
            snap,
            &BackendChoice::ALL,
            &[mk(winner, 1e9), mk(loser, 1.0)],
        );
        assert_eq!(planner.decide(4, 1).chosen, loser);
        // k=3 was never probed: the pooled per-arm ratios still apply.
        assert_ne!(planner.decide(4, 3).chosen, winner);
    }

    #[test]
    fn empty_observations_match_the_static_planner() {
        let snap = snapshot_of(&["kitten", "sitting", "mitten"]);
        let a = Planner::new(snap.clone(), &BackendChoice::ALL);
        let b = Planner::with_observations(snap, &BackendChoice::ALL, &[]);
        assert!(!b.is_calibrated());
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn ties_resolve_to_the_fixed_choice_order() {
        // Empty dataset: every hint is 0, so the tie falls to the
        // earliest entry of `BackendChoice::ALL` among the candidates.
        let snap = StatsSnapshot::compute(&Dataset::new());
        let planner = Planner::new(
            snap,
            &[BackendChoice::Radix, BackendChoice::ScanFlat],
        );
        for d in planner.decisions() {
            assert_eq!(d.chosen, BackendChoice::ScanFlat);
        }
    }

    fn cell(nanos: u64, predicted: u64, count: u64) -> CellSample {
        CellSample {
            nanos,
            predicted,
            count,
        }
    }

    #[test]
    fn class_samples_respect_the_min_count_gate() {
        // A thin cell (1 observation) claiming the static winner is
        // 10^6× slow must NOT flip the class on its own; the same
        // evidence above the gate must.
        let snap = snapshot_of(&["aaaa", "aaab", "aabb", "abbb"]);
        let base = Planner::new(snap.clone(), &BackendChoice::ALL);
        let winner = base.decide(4, 1).chosen;
        let class = QueryClass::of(&snap, 4, 1);
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        let mut cells = vec![[CellSample::default(); BackendChoice::COUNT]; rows];
        cells[class.table_index()][winner.index()] = cell(1_000_000_000, 1_000, 1);
        let thin = Planner::with_class_samples(
            snap.clone(),
            &BackendChoice::ALL,
            &cells,
            8,
        );
        assert_eq!(thin.decide(4, 1).chosen, winner, "thin cell must not flip");
        cells[class.table_index()][winner.index()] =
            cell(8_000_000_000, 8_000, 8);
        let fat = Planner::with_class_samples(
            snap,
            &BackendChoice::ALL,
            &cells,
            8,
        );
        assert!(fat.is_calibrated());
        assert_ne!(fat.decide(4, 1).chosen, winner, "fat cell must flip");
    }

    #[test]
    fn thin_cells_fall_back_to_the_pooled_arm_ratio() {
        // The arm has plenty of pooled evidence (spread over classes,
        // each cell below the gate): the pooled ratio applies
        // everywhere, including classes with zero observations.
        let snap = snapshot_of(&["aaaa", "aaab", "aabb", "abbb"]);
        let base = Planner::new(snap.clone(), &BackendChoice::ALL);
        let winner = base.decide(4, 1).chosen;
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        let mut cells = vec![[CellSample::default(); BackendChoice::COUNT]; rows];
        for row in cells.iter_mut().take(4) {
            row[winner.index()] = cell(2_000_000_000, 2_000, 2);
        }
        let planner = Planner::with_class_samples(
            snap,
            &BackendChoice::ALL,
            &cells,
            8,
        );
        // Pooled: 8 observations at ratio 10^6 — trusted, applied to
        // every class (each individual cell held only 2).
        assert!(planner.is_calibrated());
        for k in [0, 1, 5, 16] {
            assert_ne!(planner.decide(4, k).chosen, winner);
        }
    }

    #[test]
    fn empty_class_samples_match_the_static_planner() {
        let snap = snapshot_of(&["kitten", "sitting", "mitten"]);
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        let a = Planner::new(snap.clone(), &BackendChoice::ALL);
        let b = Planner::with_class_samples(
            snap,
            &BackendChoice::ALL,
            &vec![[CellSample::default(); BackendChoice::COUNT]; rows],
            MIN_CELL_OBSERVATIONS,
        );
        assert!(!b.is_calibrated());
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn table_covers_every_class_exactly_once() {
        let snap = snapshot_of(&["x", "yy", "zzz"]);
        let planner = Planner::new(snap, &BackendChoice::ALL);
        let classes: Vec<QueryClass> = QueryClass::all().collect();
        assert_eq!(planner.decisions().len(), classes.len());
        assert_eq!(
            classes.len(),
            NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1)
        );
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(c.table_index(), i);
            assert_eq!(planner.decisions()[i].class, *c);
        }
    }
}
