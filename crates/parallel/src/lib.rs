//! # simsearch-parallel
//!
//! The paper's thread-management strategies (§3.5/§3.6) behind one
//! dispatch point. The paper evaluates three ways of closing/opening
//! threads:
//!
//! 1. **one thread per query** ([`per_query`]) — rung 5, measurably *bad*;
//! 2. **fixed pool, static partition** ([`fixed_pool`]) — rung 6, swept
//!    over 4/8/16/32 threads in Tables II, IV, VI and VIII;
//! 3. **master-managed adaptive pool** ([`adaptive`]) — the paper's
//!    master/slave design with load-based open/close rules.
//!
//! A fourth executor, the dynamic [`work_queue`], is the classical
//! load-balancing fix the paper's §3.6 hints at ("crucial … is a balanced
//! distribution of queries") and is used in ablation benchmarks.
//!
//! All of the above spawn threads per call, which suits one-shot workload
//! measurements; the serving layer runs each request on the connection
//! handler that read it and uses none of them.
//!
//! All executors run a read-only job function `Fn(usize) -> T` over job
//! indices `0..n` and return the results in job order, so callers observe
//! identical semantics regardless of strategy — the paper's correctness
//! methodology (every rung must produce the base implementation's
//! results) falls out for free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod fixed_pool;
pub mod per_query;
pub mod work_queue;

pub use adaptive::{
    run_adaptive, run_adaptive_configured, run_adaptive_with_report, AdaptiveConfig,
    AdaptiveReport,
};
pub use fixed_pool::run_fixed_pool;
pub use per_query::run_thread_per_query;
pub use work_queue::run_work_queue;

/// How a batch of independent query jobs is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Single-threaded, in job order.
    #[default]
    Sequential,
    /// One thread per query (paper strategy 1 / scan rung 5).
    ThreadPerQuery,
    /// Fixed pool with static contiguous partitioning
    /// (paper strategy 2 / rung 6).
    FixedPool {
        /// Number of pool threads.
        threads: usize,
    },
    /// Fixed pool pulling from a shared queue (dynamic balancing).
    WorkQueue {
        /// Number of pool threads.
        threads: usize,
    },
    /// Master-managed adaptive pool (paper strategy 3).
    Adaptive {
        /// Upper bound on worker threads.
        max_threads: usize,
    },
}

impl Strategy {
    /// Short stable name for reports.
    pub fn name(self) -> String {
        match self {
            Strategy::Sequential => "sequential".into(),
            Strategy::ThreadPerQuery => "thread-per-query".into(),
            Strategy::FixedPool { threads } => format!("fixed-pool({threads})"),
            Strategy::WorkQueue { threads } => format!("work-queue({threads})"),
            Strategy::Adaptive { max_threads } => format!("adaptive(<={max_threads})"),
        }
    }
}

/// Splits `0..n` into at most `chunks` contiguous ranges whose lengths
/// differ by at most one — the static partition the fixed pool hands its
/// threads, exposed for callers that parallelize over *data* chunks
/// instead of queries (e.g. the V7 sorted-prefix scan, whose DP state
/// restarts at every chunk boundary).
///
/// Returns fewer than `chunks` ranges when `n < chunks`; never returns
/// an empty range.
///
/// # Panics
/// Panics if `chunks == 0` while `n > 0`.
///
/// # Examples
///
/// ```
/// use simsearch_parallel::chunk_ranges;
///
/// assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(chunk_ranges(2, 8).len(), 2);
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    assert!(chunks > 0, "a partition needs at least one chunk");
    let chunks = chunks.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Picks a sensible executor for `jobs` units of work on `threads`
/// worker threads: sequential when either is ≤ 1 or the job count is
/// too small to amortize pool startup, a fixed pool otherwise. This is
/// the default scheduling the planner's auto backend inherits.
///
/// # Examples
///
/// ```
/// use simsearch_parallel::{auto_strategy, Strategy};
///
/// assert_eq!(auto_strategy(1000, 1), Strategy::Sequential);
/// assert_eq!(auto_strategy(2, 8), Strategy::Sequential);
/// assert_eq!(auto_strategy(1000, 8), Strategy::FixedPool { threads: 8 });
/// ```
pub fn auto_strategy(jobs: usize, threads: usize) -> Strategy {
    if threads <= 1 || jobs < threads.max(4) {
        Strategy::Sequential
    } else {
        Strategy::FixedPool { threads }
    }
}

/// Executes `work(0..n)` under `strategy`, returning results in job order.
/// # Examples
///
/// ```
/// use simsearch_parallel::{run_queries, Strategy};
///
/// let squares = run_queries(Strategy::FixedPool { threads: 4 }, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn run_queries<T, F>(strategy: Strategy, n: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match strategy {
        Strategy::Sequential => (0..n).map(work).collect(),
        Strategy::ThreadPerQuery => run_thread_per_query(n, work),
        Strategy::FixedPool { threads } => run_fixed_pool(threads, n, work),
        Strategy::WorkQueue { threads } => run_work_queue(threads, n, work),
        Strategy::Adaptive { max_threads } => run_adaptive(max_threads, n, work),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Strategy; 5] = [
        Strategy::Sequential,
        Strategy::ThreadPerQuery,
        Strategy::FixedPool { threads: 4 },
        Strategy::WorkQueue { threads: 4 },
        Strategy::Adaptive { max_threads: 4 },
    ];

    #[test]
    fn every_strategy_returns_identical_results() {
        let expected: Vec<usize> = (0..150).map(|i| i * i).collect();
        for s in ALL {
            assert_eq!(run_queries(s, 150, |i| i * i), expected, "{}", s.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<String> =
            ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn zero_jobs_for_every_strategy() {
        for s in ALL {
            let out: Vec<u8> = run_queries(s, 0, |_| 0);
            assert!(out.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_once_and_balance() {
        for n in [0usize, 1, 2, 3, 7, 10, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, chunks);
                let covered: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} chunks={chunks}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(ExactSizeIterator::len).min(),
                    ranges.iter().map(ExactSizeIterator::len).max(),
                ) {
                    assert!(max - min <= 1, "unbalanced: n={n} chunks={chunks}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_panics_on_nonempty_input() {
        chunk_ranges(5, 0);
    }
}
