//! Row-stack edit distance: one DP row per symbol of a candidate prefix,
//! pushed on descent and popped on backtrack.
//!
//! The index-based solution (paper §4.1) walks a prefix tree and maintains
//! the DP table row by row: descending one tree edge appends the row for
//! the extended prefix, backtracking pops it. The sorted-prefix scan (rung
//! V7) keeps the same stack over a sorted flat arena (by length, then by
//! bytes), where `lcp[i]` between adjacent records plays the role the
//! trie's edges play: for candidate *i + 1* the kernel pops the stack to
//! `lcp[i + 1]` and recomputes only the suffix rows, which hands the
//! sequential scan the trie's only structural advantage (paper eqs.
//! (9)/(10)) while keeping strictly sequential memory access.
//! [`RowStackKernel`] is that one stack for both.
//!
//! Two row shapes are provided:
//!
//! * [`RowStackKernel::new`] — Ukkonen band `|i − j| ≤ k`; cells outside
//!   the band are capped at `k + 1`, which is exact for within-`k`
//!   decisions. The V7 scan and the modern tree descent use it.
//! * [`RowStackKernel::new_unbounded`] — full-width, uncapped rows: the
//!   exact cell values the paper's base index computes, as its prefix
//!   condition `ed(x_0..i, y_0..i) ≤ k + d_m` needs.
//!
//! Pruning uses the standard trie lemma: every cell of row `i + 1` is
//! derived from cells of rows `i`/`i + 1` by non-decreasing operations, so
//! once *every* cell of the current row exceeds `k`, every cell of every
//! deeper row does too and the whole subtree — or every candidate sharing
//! the prefix — can be skipped. This is the sound, band-compatible form of
//! the paper's prefix condition; the length-interval part of that
//! condition (the `d_m` tolerance fed by the per-node min/max lengths) is
//! provided by [`crate::prefix_bound`].
//!
//! The kernel counts the DP cells it computes, so diagnostics can report
//! how much work prefix reuse saves versus a from-scratch kernel.

/// A row-stack DP for one `(query, k)` pair: a prefix tree descent
/// pushes and pops rows directly, a sorted scan hands it candidates with
/// their shared-prefix lengths through [`RowStackKernel::resume`].
///
/// # Examples
///
/// ```
/// use simsearch_distance::RowStackKernel;
///
/// let mut dp = RowStackKernel::new(b"Berlin", 2);
/// // Sorted candidates: "Berlin", "Berlingen", "Bern" (lcp 6, then 3).
/// assert_eq!(dp.resume(b"Berlin", 0), Some(0));
/// assert_eq!(dp.resume(b"Berlingen", 6), None); // distance 3 > k
/// assert_eq!(dp.resume(b"Bern", 3), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct RowStackKernel {
    query: Vec<u8>,
    k: u32,
    /// Diagonal band half-width (columns outside `|i − j| ≤ band` are
    /// not computed): `k` when banded, effectively unbounded otherwise.
    band: usize,
    /// Cell cap: `k + 1` when banded, unreachable otherwise.
    cap: u32,
    /// Row width = query length + 1.
    width: usize,
    /// Stacked rows, `width` cells each; row `i` belongs to the current
    /// prefix of length `i`.
    rows: Vec<u32>,
    /// Minimum cell value per stacked row.
    mins: Vec<u32>,
    cells: u64,
}

impl RowStackKernel {
    /// Creates the banded kernel for `query` at threshold `k`, with row 0
    /// (the empty prefix) on the stack.
    pub fn new(query: &[u8], k: u32) -> Self {
        let mut dp = Self {
            query: Vec::new(),
            k: 0,
            band: 0,
            cap: 0,
            width: 0,
            rows: Vec::new(),
            mins: Vec::new(),
            cells: 0,
        };
        dp.reset(query, k);
        dp
    }

    /// Creates the kernel with *full-width, uncapped* rows — the exact
    /// cell values the paper's base index computes, as required by its
    /// prefix condition `ed(x_0..i, y_0..i) ≤ k + d_m` whose right-hand
    /// side exceeds `k` (see [`RowStackKernel::prefix_distance`]).
    pub fn new_unbounded(query: &[u8], k: u32) -> Self {
        let mut dp = Self::new(query, k);
        // The band never excludes a column and the cap is unreachable
        // (cell values are bounded by max(depth, |query|)).
        dp.reset_with(query, k, usize::MAX / 4, u32::MAX / 4);
        dp
    }

    /// Re-targets the kernel at a new `(query, k)` pair in the banded
    /// shape of [`RowStackKernel::new`], reusing allocations; the cell
    /// count restarts at zero.
    pub fn reset(&mut self, query: &[u8], k: u32) {
        self.reset_with(query, k, k as usize, k + 1);
    }

    fn reset_with(&mut self, query: &[u8], k: u32, band: usize, cap: u32) {
        self.query.clear();
        self.query.extend_from_slice(query);
        self.k = k;
        self.band = band;
        self.cap = cap;
        self.width = query.len() + 1;
        self.rows.clear();
        self.mins.clear();
        // Row 0: M[0][j] = j, capped outside the band.
        for j in 0..self.width {
            self.rows.push((j as u32).min(self.cap));
        }
        self.mins.push(0);
        self.cells = 0;
    }

    /// The threshold `k`.
    pub fn threshold(&self) -> u32 {
        self.k
    }

    /// Current prefix length (number of pushed symbols).
    pub fn depth(&self) -> usize {
        self.mins.len() - 1
    }

    /// DP cells computed since the kernel was built or last
    /// [`RowStackKernel::reset`] — the quantity every optimization in the
    /// paper targets.
    pub fn cells_computed(&self) -> u64 {
        self.cells
    }

    /// Whether any extension of the current prefix could still reach a
    /// distance ≤ `k` (the trie-pruning lemma): the current row's minimum
    /// is at most `k`.
    pub fn can_extend(&self) -> bool {
        *self.mins.last().expect("row 0 always present") <= self.k
    }

    /// Edit distance between the query and the current prefix, if ≤ `k`.
    pub fn distance(&self) -> Option<u32> {
        let last = self.rows[self.rows.len() - 1];
        (last <= self.k).then_some(last)
    }

    /// The paper's prefix distance `ed(x_0..i, y_0..i)` (§4.1, eq. (9)):
    /// the distance between the pushed prefix and the equally long query
    /// prefix (the whole query when the prefix is longer). Exact only in
    /// the unbounded shape; in the banded shape the value saturates at
    /// `k + 1`.
    pub fn prefix_distance(&self) -> u32 {
        let i = self.depth();
        let col = i.min(self.width - 1);
        self.rows[i * self.width + col]
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
        if !self.can_extend() {
            // The kept prefix alone already exceeds k everywhere; every
            // extension (this whole candidate) is dead.
            return None;
        }
        for &c in &candidate[keep..] {
            if self.push_row(c) > self.k {
                return None;
            }
        }
        self.distance()
    }

    /// Appends the row for the prefix extended by `c`; returns the new
    /// row's minimum.
    pub fn push(&mut self, c: u8) -> u32 {
        self.push_row(c)
    }

    /// [`RowStackKernel::push`]'s body. The sorted scan pushes a row per
    /// candidate byte from [`RowStackKernel::resume`], whose loop must
    /// not pay a call per row; the tree descents call `push` out of line.
    #[inline(always)]
    fn push_row(&mut self, c: u8) -> u32 {
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

    /// Removes the top row (backtracks one symbol).
    ///
    /// # Panics
    /// Panics if only row 0 remains.
    pub fn pop(&mut self) {
        assert!(self.depth() > 0, "cannot pop the empty-prefix row");
        self.mins.pop();
        self.rows.truncate(self.rows.len() - self.width);
    }

    /// Backtracks to prefix length `depth` (pops any number of rows; a
    /// no-op when already there).
    ///
    /// # Panics
    /// Panics if `depth` exceeds the current depth.
    pub fn truncate(&mut self, depth: usize) {
        assert!(depth <= self.depth(), "cannot truncate upwards");
        self.mins.truncate(depth + 1);
        self.rows.truncate((depth + 1) * self.width);
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
    /// within-k oracle on every candidate, in both shapes.
    fn check_stream(query: &[u8], candidates: &[&[u8]], k: u32) {
        let mut sorted: Vec<&[u8]> = candidates.to_vec();
        sorted.sort();
        for mut dp in [
            RowStackKernel::new(query, k),
            RowStackKernel::new_unbounded(query, k),
        ] {
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
                    "cap {} query {query:?} candidate {c:?} k {k}",
                    dp.cap,
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

    /// Pushing a whole string must yield its true distance to the query.
    #[test]
    fn matches_full_matrix_when_fully_pushed() {
        let words: &[&[u8]] = &[
            b"", b"a", b"ab", b"Berlin", b"Bern", b"Bayern", b"AGGCGT", b"AGAGT",
        ];
        for &q in words {
            for &s in words {
                for k in 0..5 {
                    let mut dp = RowStackKernel::new(q, k);
                    for &c in s {
                        dp.push(c);
                    }
                    let truth = levenshtein(q, s);
                    assert_eq!(
                        dp.distance(),
                        (truth <= k).then_some(truth),
                        "q={q:?} s={s:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_shared_prefix_restarts_cleanly() {
        // Unsorted stream with shared_prefix = 0 everywhere must behave
        // like a from-scratch kernel (partition-boundary semantics).
        let words: &[&[u8]] = &[b"Ulm", b"Berlin", b"Ulm", b"Bern"];
        let mut dp = RowStackKernel::new(b"Bern", 2);
        for &c in words {
            let truth = levenshtein(b"Bern", c);
            assert_eq!(dp.resume(c, 0), (truth <= 2).then_some(truth), "{c:?}");
        }
    }

    #[test]
    fn dead_prefix_skips_without_computing() {
        let mut dp = RowStackKernel::new(b"AAAA", 1);
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
        let mut reuse = RowStackKernel::new(q, 2);
        reuse.resume(a, 0);
        reuse.resume(b, common_prefix(a, b));
        let mut restart = RowStackKernel::new(q, 2);
        restart.resume(a, 0);
        restart.resume(b, 0);
        assert!(
            reuse.cells_computed() < restart.cells_computed(),
            "{} vs {}",
            reuse.cells_computed(),
            restart.cells_computed()
        );
    }

    #[test]
    fn banding_computes_fewer_cells() {
        // The band against the full-width early-abort kernel on the same
        // pair: far fewer cells for the same answer.
        let x = vec![b'A'; 100];
        let mut y = x.clone();
        y[50] = b'T';
        let (want, full) =
            crate::early_abort::ed_within_early_abort_counted(&mut Vec::new(), &x, &y, 4);
        let mut banded = RowStackKernel::new(&x, 4);
        assert_eq!(banded.resume(&y, 0), want);
        let banded = banded.cells_computed();
        assert!(
            banded * 2 < full,
            "band should compute far fewer cells ({banded} vs {full})"
        );
    }

    #[test]
    fn reset_clears_stack_and_counters() {
        let mut dp = RowStackKernel::new(b"Berlin", 2);
        dp.resume(b"Bern", 0);
        assert!(dp.cells_computed() > 0);
        dp.reset(b"Ulm", 1);
        assert_eq!(dp.depth(), 0);
        assert_eq!(dp.cells_computed(), 0);
        assert_eq!(dp.threshold(), 1);
        assert_eq!(dp.resume(b"Ulm", 0), Some(0));
    }

    #[test]
    fn empty_query_and_empty_candidates() {
        let mut dp = RowStackKernel::new(b"", 1);
        assert_eq!(dp.resume(b"", 0), Some(0));
        assert_eq!(dp.resume(b"a", 0), Some(1));
        assert_eq!(dp.resume(b"ab", 1), None);
        let mut dp = RowStackKernel::new_unbounded(b"ab", 2);
        assert_eq!(dp.resume(b"", 0), Some(2));
    }

    #[test]
    fn candidate_shorter_than_stack_depth() {
        // "Berlingen" then its own prefix "Berlin": resume must pop to
        // the candidate's full length and read the stacked answer.
        let mut dp = RowStackKernel::new(b"Berlin", 2);
        dp.resume(b"Berlingen", 0);
        assert_eq!(dp.resume(b"Berlin", 6), Some(0));
        assert_eq!(dp.depth(), 6);
    }

    #[test]
    fn push_pop_restores_state() {
        let mut dp = RowStackKernel::new(b"Berlin", 2);
        dp.push(b'B');
        dp.push(b'e');
        let dist_at_2 = dp.distance();
        let prefix_at_2 = dp.prefix_distance();
        dp.push(b'x');
        dp.push(b'y');
        dp.truncate(2);
        assert_eq!(dp.depth(), 2);
        assert!(dp.can_extend());
        assert_eq!(dp.distance(), dist_at_2);
        assert_eq!(dp.prefix_distance(), prefix_at_2);
        dp.pop();
        assert_eq!(dp.depth(), 1);
    }

    #[test]
    fn prune_lemma_holds_on_divergent_prefix() {
        // Query "AAAA", prefix "TTTTT" with k = 2: after 3+ pushes every
        // cell exceeds 2 and the subtree is dead.
        let mut dp = RowStackKernel::new(b"AAAA", 2);
        let mut became_dead = false;
        for _ in 0..5 {
            dp.push(b'T');
            if !dp.can_extend() {
                became_dead = true;
                break;
            }
        }
        assert!(became_dead);
        // Once dead, pushing anything keeps it dead (monotonicity).
        dp.push(b'A');
        assert!(!dp.can_extend());
    }

    #[test]
    fn distance_is_none_outside_band() {
        let mut dp = RowStackKernel::new(b"abc", 1);
        for c in *b"abcxyz" {
            dp.push(c);
        }
        // ed("abc", "abcxyz") = 3 > 1.
        assert_eq!(dp.distance(), None);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut dp = RowStackKernel::new(b"hello", 1);
        dp.push(b'h');
        dp.reset(b"ab", 3);
        assert_eq!(dp.depth(), 0);
        assert_eq!(dp.threshold(), 3);
        dp.push(b'a');
        dp.push(b'b');
        assert_eq!(dp.distance(), Some(0));
    }

    #[test]
    fn empty_query_counts_insertions() {
        let mut dp = RowStackKernel::new(b"", 2);
        assert_eq!(dp.distance(), Some(0));
        dp.push(b'x');
        assert_eq!(dp.distance(), Some(1));
        dp.push(b'y');
        assert_eq!(dp.distance(), Some(2));
        dp.push(b'z');
        assert_eq!(dp.distance(), None);
        assert!(!dp.can_extend());
    }

    #[test]
    #[should_panic(expected = "cannot pop")]
    fn pop_on_empty_stack_panics() {
        RowStackKernel::new(b"a", 1).pop();
    }

    #[test]
    fn unbounded_mode_has_exact_cells() {
        // In the unbounded shape the final cell is the exact distance far
        // beyond k, and the prefix distance is exact at every depth.
        let q = b"AGGCGT";
        let s = b"TTTTTTTTTT";
        let mut dp = RowStackKernel::new_unbounded(q, 1);
        for (i, &c) in s.iter().enumerate() {
            dp.push(c);
            let prefix = &s[..=i];
            let expect = levenshtein(&q[..q.len().min(i + 1)], prefix);
            assert_eq!(dp.prefix_distance(), expect, "depth {}", i + 1);
        }
        assert_eq!(dp.distance(), None); // 8 > k = 1
        assert_eq!(dp.prefix_distance(), levenshtein(q, s));
    }

    #[test]
    fn banded_prefix_distance_saturates() {
        let mut dp = RowStackKernel::new(b"AAAA", 1);
        for c in *b"TTTT" {
            dp.push(c);
        }
        // True prefix distance is 4; the banded shape caps at k + 1 = 2.
        assert_eq!(dp.prefix_distance(), 2);
    }
}
