//! Dataset property reporting (reproduces the paper's Table I).

use crate::alphabet::Alphabet;
use crate::dataset::Dataset;

/// Measured properties of a dataset, matching the columns of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of records ("#Data sets").
    pub records: usize,
    /// Number of distinct byte symbols ("#Symbols").
    pub symbols: usize,
    /// Shortest record length.
    pub min_len: usize,
    /// Longest record length ("Length").
    pub max_len: usize,
    /// Mean record length.
    pub mean_len: f64,
    /// Total bytes across all records.
    pub total_bytes: usize,
}

impl DatasetStats {
    /// Measures `dataset`.
    pub fn compute(dataset: &Dataset) -> Self {
        let alphabet = Alphabet::from_corpus(dataset.records());
        let records = dataset.len();
        let total_bytes = dataset.arena_len();
        Self {
            records,
            symbols: alphabet.len(),
            min_len: dataset.min_len().unwrap_or(0),
            max_len: dataset.max_len().unwrap_or(0),
            mean_len: if records == 0 {
                0.0
            } else {
                total_bytes as f64 / records as f64
            },
            total_bytes,
        }
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} records, {} symbols, length {}..{} (mean {:.1})",
            self.records, self.symbols, self.min_len, self.max_len, self.mean_len
        )
    }
}

/// Upper bound on the number of length-histogram buckets a snapshot
/// stores.
const MAX_BUCKETS: usize = 512;

/// A deterministic, integer-only summary of a dataset — the planner's
/// input.
///
/// Unlike [`DatasetStats`] (a float-bearing report type), a snapshot is
/// `Eq`/`Hash` and carries a bucketed string-length distribution so the
/// planner can estimate length-filter survivor counts without the
/// dataset in hand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatsSnapshot {
    /// Number of records.
    pub records: u64,
    /// Number of distinct byte symbols (alphabet size).
    pub symbols: u32,
    /// Shortest record length.
    pub min_len: u32,
    /// Longest record length.
    pub max_len: u32,
    /// Total bytes across all records.
    pub total_bytes: u64,
    /// Width of each length bucket (≥ 1).
    pub bucket_width: u32,
    /// `len_buckets[i]` counts records whose length falls in
    /// `[i * bucket_width, (i + 1) * bucket_width)`.
    pub len_buckets: Vec<u64>,
}

impl StatsSnapshot {
    /// Measures `dataset`. Deterministic: two computes over the same
    /// records produce identical snapshots.
    pub fn compute(dataset: &Dataset) -> Self {
        let alphabet = Alphabet::from_corpus(dataset.records());
        let hist = dataset.length_histogram();
        let max_len = hist.len().saturating_sub(1);
        let bucket_width = (max_len / MAX_BUCKETS + 1) as u32;
        let buckets = max_len / bucket_width as usize + 1;
        let mut len_buckets = vec![0u64; buckets.min(MAX_BUCKETS)];
        for (len, &count) in hist.iter().enumerate() {
            len_buckets[len / bucket_width as usize] += count as u64;
        }
        Self {
            records: dataset.len() as u64,
            symbols: alphabet.len() as u32,
            min_len: dataset.min_len().unwrap_or(0) as u32,
            max_len: max_len as u32,
            total_bytes: dataset.arena_len() as u64,
            bucket_width,
            len_buckets,
        }
    }

    /// Mean record length.
    pub fn mean_len(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.records as f64
        }
    }

    /// Upper bound on the number of records admitted by the length
    /// filter for a query of `query_len` bytes at threshold `k`
    /// (records with `|len - query_len| ≤ k`, rounded out to bucket
    /// boundaries, so the estimate never under-counts).
    pub fn length_survivors(&self, query_len: usize, k: u32) -> u64 {
        if self.len_buckets.is_empty() {
            return 0;
        }
        let w = self.bucket_width.max(1) as usize;
        let lo = query_len.saturating_sub(k as usize) / w;
        let hi = ((query_len + k as usize) / w).min(self.len_buckets.len() - 1);
        if lo > hi {
            return 0;
        }
        self.len_buckets[lo..=hi].iter().sum()
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} records, {} symbols, length {}..{} (mean {:.1}), {} length buckets × {}",
            self.records,
            self.symbols,
            self.min_len,
            self.max_len,
            self.mean_len(),
            self.len_buckets.len(),
            self.bucket_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_table_one_columns() {
        let ds = Dataset::from_records(["AG", "AGGT", "T"]);
        let s = DatasetStats::compute(&ds);
        assert_eq!(s.records, 3);
        assert_eq!(s.symbols, 3); // A, G, T
        assert_eq!(s.min_len, 1);
        assert_eq!(s.max_len, 4);
        assert!((s.mean_len - 7.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.total_bytes, 7);
    }

    #[test]
    fn empty_dataset_stats() {
        let s = DatasetStats::compute(&Dataset::new());
        assert_eq!(s.records, 0);
        assert_eq!(s.mean_len, 0.0);
    }

    #[test]
    fn display_is_human_readable() {
        let ds = Dataset::from_records(["ab"]);
        let text = DatasetStats::compute(&ds).to_string();
        assert!(text.contains("1 records"));
    }

    #[test]
    fn snapshot_is_deterministic_and_matches_stats() {
        let ds = Dataset::from_records(["AG", "AGGT", "T", "AG"]);
        let a = StatsSnapshot::compute(&ds);
        let b = StatsSnapshot::compute(&ds);
        assert_eq!(a, b);
        let stats = DatasetStats::compute(&ds);
        assert_eq!(a.records as usize, stats.records);
        assert_eq!(a.symbols as usize, stats.symbols);
        assert_eq!(a.min_len as usize, stats.min_len);
        assert_eq!(a.max_len as usize, stats.max_len);
        assert_eq!(a.total_bytes as usize, stats.total_bytes);
        assert!((a.mean_len() - stats.mean_len).abs() < 1e-9);
    }

    #[test]
    fn snapshot_survivors_never_undercount() {
        let ds = Dataset::from_records(["a", "bb", "ccc", "dddd", "eeeee"]);
        let snap = StatsSnapshot::compute(&ds);
        for q_len in 0..8 {
            for k in 0..4u32 {
                let exact = (0..ds.len() as u32)
                    .filter(|&id| {
                        ds.record_len(id).abs_diff(q_len) <= k as usize
                    })
                    .count() as u64;
                assert!(
                    snap.length_survivors(q_len, k) >= exact,
                    "q_len={q_len} k={k}"
                );
            }
        }
        assert_eq!(snap.length_survivors(2, 1), 3); // bb, a, ccc
    }

    #[test]
    fn snapshot_buckets_stay_bounded_for_long_records() {
        let long = "x".repeat(5000);
        let ds = Dataset::from_records([long.as_str(), "y"]);
        let snap = StatsSnapshot::compute(&ds);
        assert!(snap.len_buckets.len() <= 512);
        assert_eq!(snap.len_buckets.iter().sum::<u64>(), 2);
        assert_eq!(snap.length_survivors(5000, 0) + snap.length_survivors(1, 0), 2);
    }
}
