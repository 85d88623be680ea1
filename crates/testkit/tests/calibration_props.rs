//! Property tests for the replan tick's calibration arithmetic
//! (`Planner::with_class_samples`): the laws that make live
//! recalibration safe to swap in unsupervised.
//!
//! Four laws, over synthetic latency histograms:
//!
//! 1. **Positivity** — every derived multiplier is finite and > 0, so
//!    every cost a replanned table compares is a positive finite number.
//! 2. **Boundedness** — a multiplier never exceeds the total observed
//!    nanoseconds (each query contributes ≥ 1 predicted unit), so one
//!    absurd cell cannot produce an unrepresentable cost.
//! 3. **Scale invariance** — multiplying every latency by a common
//!    power of two (a clock-unit change) leaves the argmin arm of every
//!    query class unchanged.
//! 4. **Pooled fallback** — a cell with fewer than `min_count`
//!    observations does not speak for itself: its multiplier is the
//!    arm's pooled ratio across all classes, or exactly 1.0 when the
//!    whole arm is unobserved.

use simsearch_core::{AutoBackend, BackendChoice, CellSample, Planner};
use simsearch_data::{Dataset, StatsSnapshot};
use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config};

const ROWS: usize = 51; // NUM_LEN_CLASSES * (MAX_K_CLASS + 1)
const ARMS: usize = BackendChoice::COUNT;

fn snapshot() -> StatsSnapshot {
    StatsSnapshot::compute(&Dataset::from_records([
        "Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "ACGTACGTACGT",
    ]))
}

/// Deterministic per-case PRNG (splitmix64): property cases carry one
/// seed and expand it into a full 51×8 histogram grid here.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic observation grid: sparse (many empty cells), noisy, and
/// with per-query predicted units ≥ 1 — the shape a live grid has.
fn synthetic_grid(seed: u64) -> Vec<[CellSample; ARMS]> {
    let mut s = seed;
    let cell = |state: &mut u64| {
        let count = mix(state) % 24; // 0 = unobserved cell
        if count == 0 {
            return CellSample::default();
        }
        let predicted = count * (1 + mix(state) % 64);
        let nanos = predicted * (mix(state) % 1_000) + mix(state) % 7;
        CellSample {
            nanos,
            predicted,
            count,
        }
    };
    (0..ROWS)
        .map(|_| std::array::from_fn(|_| cell(&mut s)))
        .collect()
}

#[test]
fn multipliers_are_positive_and_bounded() {
    check(
        "multipliers_are_positive_and_bounded",
        Config::cases(128).seed(0x00CA_1B01),
        &gen::zip(gen::u64_any(), gen::u64_any()),
        |(seed, min_raw)| {
            let min_count = 1 + min_raw % 16;
            let cells = synthetic_grid(*seed);
            let planner = Planner::with_class_samples(
                snapshot(),
                &AutoBackend::DEFAULT_CANDIDATES,
                &cells,
                min_count,
            );
            let total_nanos: u64 = cells.iter().flatten().map(|c| c.nanos).sum();
            let bound = (total_nanos as f64).max(1.0);
            for (row, multipliers) in planner.class_multipliers().iter().enumerate() {
                for (arm, &m) in multipliers.iter().enumerate() {
                    prop_assert!(m.is_finite() && m > 0.0, "cell [{row}][{arm}] = {m}");
                    prop_assert!(m <= bound, "cell [{row}][{arm}] = {m} > {bound}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn scaling_every_latency_preserves_every_decision() {
    check(
        "scaling_every_latency_preserves_every_decision",
        Config::cases(128).seed(0x00CA_1B02),
        &gen::zip(gen::u64_any(), gen::usize_in(1..13)),
        |(seed, shift)| {
            let cells = synthetic_grid(*seed);
            // A clock-unit change: every nanosecond figure × 2^shift.
            // Power-of-two scaling is exact in f64, so every ratio —
            // and thus every cost comparison — scales uniformly.
            let scale = |c: &CellSample| CellSample {
                nanos: c.nanos << shift,
                ..*c
            };
            let scaled_cells: Vec<[CellSample; ARMS]> = cells
                .iter()
                .map(|row| std::array::from_fn(|i| scale(&row[i])))
                .collect();
            let build = |cells: &[[CellSample; ARMS]]| {
                Planner::with_class_samples(snapshot(), &AutoBackend::DEFAULT_CANDIDATES, cells, 4)
            };
            let base = build(&cells);
            let scaled = build(&scaled_cells);
            for (a, b) in base.decisions().iter().zip(scaled.decisions()) {
                prop_assert_eq!(
                    a.chosen,
                    b.chosen,
                    "class {:?} rerouted by a unit change",
                    a.class
                );
            }
            Ok(())
        },
    );
}

#[test]
fn thin_cells_fall_back_to_the_pooled_arm_ratio() {
    check(
        "thin_cells_fall_back_to_the_pooled_arm_ratio",
        Config::cases(128).seed(0x00CA_1B03),
        &gen::zip3(gen::u64_any(), gen::usize_in(0..ROWS), gen::usize_in(0..ARMS)),
        |(seed, row, arm)| {
            let min_count = 8u64;
            let mut cells = synthetic_grid(*seed);
            // Make the chosen cell *thin*: observed, but below the
            // trust threshold — it must not speak for itself.
            cells[*row][*arm] = CellSample {
                nanos: 1_000_000_000,
                predicted: 1,
                count: min_count - 1,
            };
            let planner = Planner::with_class_samples(
                snapshot(),
                &AutoBackend::DEFAULT_CANDIDATES,
                &cells,
                min_count,
            );
            // The pooled ratio, replicated with the same arithmetic:
            // sum the arm's column (thin cells included), then divide.
            let mut pooled = CellSample::default();
            for r in &cells {
                pooled.merge(r[*arm]);
            }
            let expected = if pooled.count >= min_count {
                (pooled.nanos as f64 / pooled.predicted as f64).max(f64::MIN_POSITIVE)
            } else {
                1.0
            };
            prop_assert_eq!(
                planner.class_multipliers()[*row][*arm],
                expected,
                "thin cell [{}][{}] must use the pooled arm ratio",
                row,
                arm
            );
            Ok(())
        },
    );
}

#[test]
fn an_unobserved_arm_keeps_the_neutral_multiplier() {
    check(
        "an_unobserved_arm_keeps_the_neutral_multiplier",
        Config::cases(64).seed(0x00CA_1B04),
        &gen::zip(gen::u64_any(), gen::usize_in(0..ARMS)),
        |(seed, arm)| {
            let mut cells = synthetic_grid(*seed);
            for row in &mut cells {
                row[*arm] = CellSample::default();
            }
            let planner = Planner::with_class_samples(
                snapshot(),
                &AutoBackend::DEFAULT_CANDIDATES,
                &cells,
                8,
            );
            for row in planner.class_multipliers() {
                prop_assert_eq!(row[*arm], 1.0, "never-routed arm stays neutral");
            }
            Ok(())
        },
    );
}
