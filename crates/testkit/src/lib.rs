//! # simsearch-testkit
//!
//! The workspace's self-contained testing and benchmarking kit. The
//! repository has a strict **zero external dependency** policy (the
//! build must succeed with `--offline` on a bare toolchain), so the
//! roles usually played by `proptest` and `criterion` are provided
//! in-house:
//!
//! * [`prop`] — a deterministic, seedable property-test runner with
//!   iterative shrinking to a minimal counterexample ([`check`],
//!   [`Config`], the [`prop_assert!`]/[`prop_assert_eq!`] macros);
//! * [`gen`] — value generators driven by the workspace's own
//!   [`simsearch_data::Xoshiro256`] PRNG: arbitrary bytes, city-like
//!   ASCII strings, DNA strings, corpora, edit-budget mutations;
//! * [`shrink`] — the [`Shrink`] trait the runner uses
//!   to simplify failing inputs;
//! * [`bench`](mod@bench) — a lightweight benchmark harness (warmup + N timed
//!   samples, median/p95, `BENCH_<group>.json` trajectory output)
//!   that replaces criterion for the `crates/bench` targets;
//! * [`loopback`] — a serving harness that boots `simsearchd` on an
//!   ephemeral loopback port for end-to-end protocol tests;
//! * [`oracle`] — cross-variant equivalence oracles: every distance
//!   kernel against the full-matrix reference
//!   ([`assert_all_kernels_agree`]), and the sequential scan against
//!   every index structure ([`assert_scan_index_equal`]).
//!
//! Every failure report prints the base seed and case number needed to
//! replay it byte-for-byte: `TESTKIT_SEED=<seed> TESTKIT_CASES=<n>
//! cargo test <name>` re-runs exactly the failing case first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod gen;
pub mod loopback;
pub mod oracle;
pub mod prop;
pub mod shrink;

pub use gen::Gen;
pub use oracle::{assert_all_kernels_agree, assert_scan_index_equal};
pub use prop::{check, Config, TestResult};
pub use shrink::Shrink;

// The PRNG all generators run on, re-exported so tests can seed their
// own streams without depending on simsearch-data directly.
pub use simsearch_data::rng::{SplitMix64, Xoshiro256};

/// Returns `Err` from the enclosing property when the condition is
/// false. Use inside [`check`] closures in place of `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Returns `Err` from the enclosing property when the two expressions
/// differ. Use inside [`check`] closures in place of `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}` — {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// Returns `Err` from the enclosing property when the two expressions
/// are equal. Use inside [`check`] closures in place of `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            ));
        }
    }};
}
