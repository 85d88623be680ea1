//! Percentiles, the "median + highest supported percentile + count"
//! summary every timing is reported as, and the quiet-slice selection
//! the end-to-end metrics are taken from.

use std::time::Duration;

/// Percentiles a summary may report as its tail, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10,000 at 9,990, not 9,991.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest [`LADDER`] percentile that still has at least ten
/// samples beyond it; the median when even p75 has fewer.
pub fn highest_supported(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// A timing sample reduced to what the report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub median: f64,
    pub p95: f64,
    /// Which percentile `tail` is ([`highest_supported`]).
    pub tail_p: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = highest_supported(sorted.len());
        Some(Self {
            count: sorted.len(),
            min: sorted[0],
            median: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            tail_p,
            tail: percentile(&sorted, tail_p),
            max: sorted[sorted.len() - 1],
        })
    }

    /// `median 1.234 ms, p99 5.678 ms, max 9.1 ms, n=4321`.
    pub fn line(&self, unit: &str) -> String {
        format!(
            "median {:.4} {unit}, p{} {:.4} {unit}, min {:.4} {unit}, max {:.4} {unit}, n={}",
            self.median, self.tail_p, self.tail, self.min, self.max, self.count
        )
    }
}

/// The class-balanced median: the median of each class of operations,
/// averaged over the classes. The paper's workloads cycle four
/// thresholds whose costs differ by orders of magnitude, so the plain
/// median of all requests sits on the edge between two clusters and
/// jumps with the slightest shift; each class's own median sits inside
/// its cluster.
pub fn class_median_ms(classes_ns: &[&[u64]]) -> f64 {
    let medians: Vec<f64> = classes_ns
        .iter()
        .filter_map(|c| Summary::of(&ns_to_ms(c)))
        .map(|s| s.median)
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// One successful operation: when its reply arrived (nanoseconds since
/// the window opened), which class it belongs to (a read's threshold
/// slot; writes are the class after the last threshold) and how long it
/// took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done_ns: u64,
    pub class: usize,
    pub latency_ns: u64,
}

/// Latencies by class, in class order.
pub fn by_class_ns<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<Vec<u64>> {
    let mut by_class: Vec<Vec<u64>> = Vec::new();
    for s in samples {
        if by_class.len() <= s.class {
            by_class.resize_with(s.class + 1, Vec::new);
        }
        by_class[s.class].push(s.latency_ns);
    }
    by_class
}

/// Width of the slices a timed window is cut into.
pub const SLICE: Duration = Duration::from_millis(500);

/// One slice in this many is kept: the fastest quarter.
pub const QUIET_ONE_IN: usize = 4;

/// How many of `n` slices (or batches) the fastest quarter is.
pub fn quiet_count(n: usize) -> usize {
    n.div_ceil(QUIET_ONE_IN)
}

/// The operations of a window's quiet slices. The host this runs on is
/// shared: for seconds at a time it gives a vCPU 10-40 % less, and
/// every statistic over a whole window moves with how much of the
/// window such a phase covered. The disturbance is one-sided (a
/// neighbour never makes the program faster), so the window is cut into
/// [`SLICE`]s, the slices are ranked by how many operations completed
/// in them, and only the fastest quarter is kept: what the program does
/// when the host leaves it alone.
#[derive(Debug, Default, PartialEq)]
pub struct Quiet {
    /// Operations completed in each whole slice, in time order.
    pub per_slice: Vec<usize>,
    /// How many slices were kept.
    pub kept: usize,
    /// Operations in the kept slices ÷ the kept slices' total length.
    pub ops_s: f64,
    /// Latencies of the kept operations, by class.
    pub classes_ns: Vec<Vec<u64>>,
}

impl Quiet {
    /// Cuts `window` into whole slices and keeps the fastest quarter
    /// (ties go to the earlier slice). Operations that complete after
    /// the last whole slice are left out.
    pub fn of(samples: &[Sample], window: Duration) -> Self {
        let slices = (window.as_nanos() / SLICE.as_nanos()) as usize;
        if slices == 0 {
            return Self::default();
        }
        let slice_of = |s: &Sample| (s.done_ns / SLICE.as_nanos() as u64) as usize;
        let mut per_slice = vec![0usize; slices];
        for s in samples.iter().filter(|s| slice_of(s) < slices) {
            per_slice[slice_of(s)] += 1;
        }
        let mut order: Vec<usize> = (0..slices).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(per_slice[i]), i));
        let kept = quiet_count(slices);
        let mut keep = vec![false; slices];
        order[..kept].iter().for_each(|&i| keep[i] = true);
        let classes_ns = by_class_ns(
            samples
                .iter()
                .filter(|s| slice_of(s) < slices && keep[slice_of(s)]),
        );
        let ops: usize = classes_ns.iter().map(Vec::len).sum();
        Self {
            per_slice,
            kept,
            ops_s: ops as f64 / (kept as f64 * SLICE.as_secs_f64()),
            classes_ns,
        }
    }

    /// `kept 10 of 40 slices of 0.5 s; ops per slice: 101 99 …`.
    pub fn line(&self) -> String {
        let counts: Vec<String> = self.per_slice.iter().map(usize::to_string).collect();
        format!(
            "kept the fastest {} of {} slices of {} s; ops per slice: {}",
            self.kept,
            self.per_slice.len(),
            SLICE.as_secs_f64(),
            counts.join(" ")
        )
    }
}

/// Mean of the fastest quarter of `batch_ms` (whole batches of the same
/// work, so each is its own slice).
pub fn quiet_batch_ms(batch_ms: &[f64]) -> f64 {
    let mut sorted = batch_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[..quiet_count(sorted.len())];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, spelled out: the smallest value with at least
    /// p % of the sample at or below it.
    fn reference(sorted: &[f64], per_mille: usize) -> f64 {
        *sorted
            .iter()
            .find(|&&v| {
                let at_or_below = sorted.iter().filter(|&&w| w <= v).count();
                at_or_below * 1000 >= per_mille * sorted.len()
            })
            .unwrap()
    }

    #[test]
    fn percentile_matches_the_sorted_vector_reference() {
        for n in [1usize, 2, 3, 10, 11, 99, 100, 101, 1000] {
            let sorted: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
            for per_mille in [1usize, 10, 500, 750, 900, 950, 990, 999, 1000] {
                let p = per_mille as f64 / 10.0;
                assert_eq!(
                    percentile(&sorted, p),
                    reference(&sorted, per_mille),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // n=19: even the median has only 9 beyond it.
        assert_eq!(highest_supported(19), 50.0);
        // n=20: median has exactly 10 beyond; p75 has 5.
        assert_eq!(highest_supported(20), 50.0);
        assert_eq!(highest_supported(40), 75.0);
        assert_eq!(highest_supported(100), 90.0);
        assert_eq!(highest_supported(199), 90.0);
        assert_eq!(highest_supported(200), 95.0);
        assert_eq!(highest_supported(1000), 99.0);
        assert_eq!(highest_supported(10_000), 99.9);
        for n in 1..3000usize {
            let p = highest_supported(n);
            if p > 50.0 {
                assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.count, s.min, s.max), (1000, 1.0, 1000.0));
        assert_eq!(s.median, 500.0);
        assert_eq!(s.p95, 950.0);
        assert_eq!((s.tail_p, s.tail), (99.0, 990.0));
        assert!(Summary::of(&[]).is_none());
    }

    fn sample(done_ms: u64, class: usize, latency_ns: u64) -> Sample {
        Sample {
            done_ns: done_ms * 1_000_000,
            class,
            latency_ns,
        }
    }

    #[test]
    fn quiet_keeps_the_fastest_quarter_of_the_slices() {
        // Eight slices of 0.5 s; slice i holds i + 1 operations, except
        // that slices 2 and 6 both hold 20. A straggler lands after the
        // last whole slice.
        let mut samples = Vec::new();
        for slice in 0..8u64 {
            let ops = if slice == 2 || slice == 6 {
                20
            } else {
                slice + 1
            };
            for op in 0..ops {
                samples.push(sample(slice * 500 + op, (op % 2) as usize, 1_000 + slice));
            }
        }
        samples.push(sample(4_001, 0, 9));
        let quiet = Quiet::of(&samples, Duration::from_millis(4_200));
        assert_eq!(quiet.per_slice, [1, 2, 20, 4, 5, 6, 20, 8]);
        assert_eq!(quiet.kept, 2);
        assert_eq!(quiet.ops_s, 40.0);
        // Only slices 2 and 6 contribute, split by class.
        assert_eq!(quiet.classes_ns.len(), 2);
        for class in &quiet.classes_ns {
            assert_eq!(class.len(), 20);
            assert!(class.iter().all(|&ns| ns == 1_002 || ns == 1_006));
        }
        // Ties go to the earlier slice: with three equal slices and room
        // for one, the first is kept.
        let tied: Vec<Sample> = (0..3).map(|i| sample(i * 500, 0, i)).collect();
        let quiet = Quiet::of(&tied, Duration::from_millis(1_500));
        assert_eq!((quiet.kept, &quiet.classes_ns[0][..]), (1, &[0u64][..]));
        // A window shorter than one slice keeps nothing.
        assert_eq!(
            Quiet::of(&tied, Duration::from_millis(499)),
            Quiet::default()
        );
    }

    #[test]
    fn quiet_batches_are_the_fastest_quarter() {
        assert_eq!(quiet_count(1), 1);
        assert_eq!(quiet_count(4), 1);
        assert_eq!(quiet_count(5), 2);
        assert_eq!(quiet_count(40), 10);
        assert_eq!(quiet_batch_ms(&[9.0, 3.0, 7.0, 5.0]), 3.0);
        assert_eq!(quiet_batch_ms(&[9.0, 3.0, 7.0, 5.0, 1.0]), 2.0);
    }

    #[test]
    fn class_median_ignores_how_many_fall_in_each_class() {
        let fast = vec![1_000_000u64; 9];
        let slow = [3_000_000u64, 5_000_000, 7_000_000];
        assert_eq!(class_median_ms(&[&fast, &slow]), 3.0);
        assert_eq!(class_median_ms(&[&fast[..2], &slow]), 3.0);
        assert_eq!(class_median_ms(&[]), 0.0);
    }
}
