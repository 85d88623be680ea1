//! Resumable row-stack edit distance for sorted-prefix scans.
//!
//! [`crate::incremental::IncrementalDp`] amortizes DP rows across shared
//! prefixes during *trie descent*. [`RowStackKernel`] generalizes the
//! same row stack to any sequence of candidates presented with their
//! shared-prefix lengths — in particular a sorted flat arena (by length,
//! then by bytes), where `lcp[i]` between adjacent records plays the role
//! the trie's edges play. For candidate *i + 1* the kernel pops the stack
//! to `lcp[i + 1]` and recomputes only the suffix rows, which hands the
//! sequential scan the trie's only structural advantage (paper eqs.
//! (9)/(10)) while keeping strictly sequential memory access.
//!
//! Two row shapes are provided, mirroring the scan ladder's kernels:
//!
//! * [`RowStackMode::FullWidth`] — full-width rows like the paper's
//!   rung-2 kernel, aborted via the row-minimum lemma;
//! * [`RowStackMode::Banded`] — Ukkonen band `|i − j| ≤ k`, the modern
//!   variant (cells outside the band are capped at `k + 1`, exact for
//!   within-`k` decisions).
//!
//! Like [`crate::counted`], the kernel counts the DP cells it actually
//! computes and the rows it reuses, so diagnostics can report how much
//! work LCP reuse saves versus a from-scratch kernel.

/// Row shape of a [`RowStackKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowStackMode {
    /// Full-width rows (rung-2 style), row-minimum abort only.
    FullWidth,
    /// Banded rows `|i − j| ≤ k` (modern variant), far fewer cells per
    /// row at small thresholds.
    #[default]
    Banded,
}

impl RowStackMode {
    /// Both modes, for ablation sweeps.
    pub const ALL: [RowStackMode; 2] = [RowStackMode::FullWidth, RowStackMode::Banded];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RowStackMode::FullWidth => "full-width",
            RowStackMode::Banded => "banded",
        }
    }
}

/// A resumable row-stack DP for one `(query, k)` pair, applied to a
/// stream of candidates that arrive with their shared-prefix lengths.
///
/// # Examples
///
/// ```
/// use simsearch_distance::{RowStackKernel, RowStackMode};
///
/// let mut dp = RowStackKernel::new(RowStackMode::Banded, b"Berlin", 2);
/// // Sorted candidates: "Berlin", "Berlingen", "Bern" (lcp 6, then 3).
/// assert_eq!(dp.resume(b"Berlin", 0), Some(0));
/// assert_eq!(dp.resume(b"Berlingen", 6), None); // distance 3 > k
/// assert_eq!(dp.resume(b"Bern", 3), Some(2));
/// assert!(dp.rows_reused() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RowStackKernel {
    query: Vec<u8>,
    k: u32,
    /// Band half-width: `k` in banded mode, effectively unbounded in
    /// full-width mode.
    band: usize,
    /// Cell cap `k + 1` — exact for within-`k` decisions in both modes.
    cap: u32,
    /// Row width = query length + 1.
    width: usize,
    /// Stacked rows, `width` cells each; row `i` belongs to the current
    /// candidate's prefix of length `i`.
    rows: Vec<u32>,
    /// Minimum cell value per stacked row.
    mins: Vec<u32>,
    mode: RowStackMode,
    cells: u64,
    reused: u64,
}

impl RowStackKernel {
    /// Creates the kernel for `query` at threshold `k`, with row 0 (the
    /// empty prefix) on the stack.
    pub fn new(mode: RowStackMode, query: &[u8], k: u32) -> Self {
        let mut dp = Self {
            query: Vec::new(),
            k: 0,
            band: 0,
            cap: 0,
            width: 0,
            rows: Vec::new(),
            mins: Vec::new(),
            mode,
            cells: 0,
            reused: 0,
        };
        dp.reset(query, k);
        dp
    }

    /// Re-targets the kernel at a new `(query, k)` pair, reusing
    /// allocations and keeping the mode; counters restart at zero.
    pub fn reset(&mut self, query: &[u8], k: u32) {
        self.query.clear();
        self.query.extend_from_slice(query);
        self.k = k;
        self.band = match self.mode {
            RowStackMode::FullWidth => usize::MAX / 4,
            RowStackMode::Banded => k as usize,
        };
        self.cap = k + 1;
        self.width = query.len() + 1;
        self.rows.clear();
        self.mins.clear();
        for j in 0..self.width {
            self.rows.push((j as u32).min(self.cap));
        }
        self.mins.push(0);
        self.cells = 0;
        self.reused = 0;
    }

    /// The row shape this kernel was built with.
    pub fn mode(&self) -> RowStackMode {
        self.mode
    }

    /// The compiled threshold.
    pub fn threshold(&self) -> u32 {
        self.k
    }

    /// Current stack depth (number of candidate symbols whose rows are
    /// materialized).
    pub fn depth(&self) -> usize {
        self.mins.len() - 1
    }

    /// DP cells computed since the last [`RowStackKernel::reset`] — the
    /// quantity every optimization in the paper targets.
    pub fn cells_computed(&self) -> u64 {
        self.cells
    }

    /// Rows reused from the stack instead of being recomputed (each one
    /// saves up to a full row of cells versus a from-scratch kernel).
    pub fn rows_reused(&self) -> u64 {
        self.reused
    }

    /// Decides `ed(query, candidate) ≤ k`, reusing the stacked rows for
    /// the candidate's first `shared_prefix` symbols.
    ///
    /// `shared_prefix` must not exceed the true common prefix between
    /// `candidate` and the previous candidate this kernel processed
    /// (pass `0` to restart from scratch, e.g. at a partition boundary).
    /// Aborts early — possibly leaving a dead row on top of the stack —
    /// as soon as the row minimum exceeds `k`; the lemma that makes this
    /// sound is the same one that prunes trie subtrees.
    pub fn resume(&mut self, candidate: &[u8], shared_prefix: usize) -> Option<u32> {
        let keep = shared_prefix.min(self.depth()).min(candidate.len());
        self.truncate(keep);
        self.reused += keep as u64;
        if self.mins[keep] > self.k {
            // The kept prefix alone already exceeds k everywhere; every
            // extension (this whole candidate) is dead.
            return None;
        }
        for &c in &candidate[keep..] {
            if self.push(c) > self.k {
                return None;
            }
        }
        let last = self.rows[self.rows.len() - 1];
        (last <= self.k).then_some(last)
    }

    /// Backtracks to stack depth `depth` (a no-op when already there).
    fn truncate(&mut self, depth: usize) {
        debug_assert!(depth <= self.depth());
        self.mins.truncate(depth + 1);
        self.rows.truncate((depth + 1) * self.width);
    }

    /// Appends the row for the prefix extended by `c`; returns the new
    /// row's minimum. Identical recurrence to
    /// [`crate::incremental::IncrementalDp::push`], plus cell counting.
    fn push(&mut self, c: u8) -> u32 {
        let i = self.depth() + 1;
        let kk = self.band;
        let cap = self.cap;
        let w = self.width;
        let prev_start = self.rows.len() - w;
        self.rows.resize(self.rows.len() + w, cap);
        let (prev_rows, curr) = self.rows.split_at_mut(prev_start + w);
        let prev = &prev_rows[prev_start..];
        let lo = i.saturating_sub(kk);
        let hi = i.saturating_add(kk).min(w - 1);
        let mut row_min = cap;
        if lo == 0 {
            curr[0] = (i as u32).min(cap);
            row_min = curr[0];
            self.cells += 1;
        }
        for j in lo.max(1)..=hi {
            let v = if c == self.query[j - 1] {
                prev[j - 1]
            } else {
                1 + prev[j].min(curr[j - 1]).min(prev[j - 1])
            };
            let v = v.min(cap);
            curr[j] = v;
            row_min = row_min.min(v);
        }
        self.cells += (hi + 1).saturating_sub(lo.max(1)) as u64;
        self.mins.push(row_min);
        row_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;

    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// Feeding a sorted candidate list with true LCPs must reproduce the
    /// within-k oracle on every candidate, in both modes.
    fn check_stream(query: &[u8], candidates: &[&[u8]], k: u32) {
        let mut sorted: Vec<&[u8]> = candidates.to_vec();
        sorted.sort();
        for mode in RowStackMode::ALL {
            let mut dp = RowStackKernel::new(mode, query, k);
            for (i, &c) in sorted.iter().enumerate() {
                let lcp = if i == 0 {
                    0
                } else {
                    common_prefix(sorted[i - 1], c)
                };
                let truth = levenshtein(query, c);
                assert_eq!(
                    dp.resume(c, lcp),
                    (truth <= k).then_some(truth),
                    "mode {} query {:?} candidate {:?} k {}",
                    mode.name(),
                    query,
                    c,
                    k
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_sorted_word_streams() {
        let words: &[&[u8]] = &[
            b"",
            b"Berlin",
            b"Bern",
            b"Berlingen",
            b"Bayern",
            b"B",
            b"Ulm",
            b"Ulmen",
            b"AGGCGT",
            b"AGAGT",
            b"AGAGT",
        ];
        for &q in words {
            for k in 0..5 {
                check_stream(q, words, k);
            }
        }
    }

    #[test]
    fn zero_shared_prefix_restarts_cleanly() {
        // Unsorted stream with shared_prefix = 0 everywhere must behave
        // like a from-scratch kernel (partition-boundary semantics).
        let words: &[&[u8]] = &[b"Ulm", b"Berlin", b"Ulm", b"Bern"];
        let mut dp = RowStackKernel::new(RowStackMode::Banded, b"Bern", 2);
        for &c in words {
            let truth = levenshtein(b"Bern", c);
            assert_eq!(dp.resume(c, 0), (truth <= 2).then_some(truth), "{c:?}");
        }
        assert_eq!(dp.rows_reused(), 0);
    }

    #[test]
    fn dead_prefix_skips_without_computing() {
        let mut dp = RowStackKernel::new(RowStackMode::Banded, b"AAAA", 1);
        assert_eq!(dp.resume(b"TTTT", 0), None);
        let cells_after_first = dp.cells_computed();
        // The next candidate shares the dead "TTT" prefix: the kernel
        // must answer from the stack without new rows.
        assert_eq!(dp.resume(b"TTTA", 3), None);
        assert_eq!(dp.cells_computed(), cells_after_first);
    }

    #[test]
    fn lcp_reuse_computes_fewer_cells_than_restarting() {
        let a = b"Brandenburg an der Havel";
        let b = b"Brandenburg an der Spree";
        let q = b"Brandenburg an der Hafel";
        let mut reuse = RowStackKernel::new(RowStackMode::Banded, q, 2);
        reuse.resume(a, 0);
        reuse.resume(b, common_prefix(a, b));
        let mut restart = RowStackKernel::new(RowStackMode::Banded, q, 2);
        restart.resume(a, 0);
        restart.resume(b, 0);
        assert!(
            reuse.cells_computed() < restart.cells_computed(),
            "{} vs {}",
            reuse.cells_computed(),
            restart.cells_computed()
        );
        assert_eq!(reuse.rows_reused(), common_prefix(a, b) as u64);
    }

    #[test]
    fn banded_computes_fewer_cells_than_full_width() {
        let q = vec![b'A'; 60];
        let mut c = q.clone();
        c[30] = b'T';
        let mut full = RowStackKernel::new(RowStackMode::FullWidth, &q, 2);
        let mut banded = RowStackKernel::new(RowStackMode::Banded, &q, 2);
        assert_eq!(full.resume(&c, 0), banded.resume(&c, 0));
        assert!(banded.cells_computed() < full.cells_computed());
    }

    #[test]
    fn reset_clears_stack_and_counters() {
        let mut dp = RowStackKernel::new(RowStackMode::Banded, b"Berlin", 2);
        dp.resume(b"Bern", 0);
        assert!(dp.cells_computed() > 0);
        dp.reset(b"Ulm", 1);
        assert_eq!(dp.depth(), 0);
        assert_eq!(dp.cells_computed(), 0);
        assert_eq!(dp.rows_reused(), 0);
        assert_eq!(dp.threshold(), 1);
        assert_eq!(dp.resume(b"Ulm", 0), Some(0));
    }

    #[test]
    fn empty_query_and_empty_candidates() {
        let mut dp = RowStackKernel::new(RowStackMode::Banded, b"", 1);
        assert_eq!(dp.resume(b"", 0), Some(0));
        assert_eq!(dp.resume(b"a", 0), Some(1));
        assert_eq!(dp.resume(b"ab", 1), None);
        let mut dp = RowStackKernel::new(RowStackMode::FullWidth, b"ab", 2);
        assert_eq!(dp.resume(b"", 0), Some(2));
    }

    #[test]
    fn candidate_shorter_than_stack_depth() {
        // "Berlingen" then its own prefix "Berlin": resume must pop to
        // the candidate's full length and read the stacked answer.
        let mut dp = RowStackKernel::new(RowStackMode::Banded, b"Berlin", 2);
        dp.resume(b"Berlingen", 0);
        assert_eq!(dp.resume(b"Berlin", 6), Some(0));
        assert_eq!(dp.depth(), 6);
    }
}
