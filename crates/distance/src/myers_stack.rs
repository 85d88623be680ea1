//! Resumable blocked bit-parallel edit distance for sorted-prefix
//! scans — [`crate::row_stack::RowStackKernel`]'s discipline applied to
//! Myers words instead of scalar rows, cut off by the paper's own abort
//! rule and scheduled as a k-band of lazily activated blocks.
//!
//! **Resume.** The query's `Peq` match masks are compiled once, and for
//! every candidate prefix the next record may share, the kernel
//! checkpoints the ⌈m/64⌉ block states (`pv`/`mv`) of that DP column.
//! Resuming at `shared_prefix` truncates the checkpoint stack and
//! re-advances only the candidate's unshared suffix. The checkpoint at
//! depth `d` is a pure function of the candidate's first `d` bytes (and
//! of `k`), so any candidate sharing those bytes may adopt it verbatim;
//! an abort leaves a shorter but still valid stack, and future resumes
//! are clamped to the surviving depth.
//!
//! **Abort rule: the decisive diagonal.** With `Δ = m − n`, the diagonal
//! `D[j+Δ][j]` ends in `D[m][n]`, and `D[i+1][j+1] ∈ {D[i][j],
//! D[i][j]+1}`, so its values never decrease (the paper's §3.2, eqs.
//! (6)/(7)): the candidate is dead as soon as one exceeds `k`, and the
//! value at `j = n` is the distance. One step costs one bit of
//! `myers_block::advance_block`'s `D0` vector. At a resume depth
//! `d` the value needs no stored score: `D[0][d] = d`, and the vertical
//! deltas of the checkpointed column sum to `D[d+Δ][d] = d +
//! popcount(pv & low) − popcount(mv & low)` over its lowest `d+Δ` bits —
//! so a candidate that shares an already-dead prefix with its
//! predecessor is rejected from the checkpoint with no word advanced.
//!
//! **Work schedule: a k-band of lazy blocks.** A cell with `D ≤ k` has
//! `|i − j| ≤ k`, so the byte at position `p` (column `p+1`) advances
//! only blocks `0 ..= (p+k)/64`; the others keep the initial column
//! (`pv = !0`, `mv = 0`: `+1` per row below the last computed one), an
//! upper bound on their true values. Every cell with `D ≤ k` is reached
//! by a path of cells `≤ k`, all inside the band, so banded and exact
//! values agree wherever it matters (Ukkonen's band at block
//! granularity). The schedule depends on the position and on `k` only —
//! never on the candidate's length — which is what keeps a checkpoint
//! adoptable by the next candidate whatever its length.
//!
//! Words advanced, words adopted from the stack and the DP cells the
//! advanced bytes represent are counted so diagnostics can compare
//! word-level and cell-level work across scan variants.

use crate::myers_block::{advance_block, diagonal_rise, BlockState};

const W: usize = 64;

/// A resumable blocked bit-parallel DP for one `(query, k)` pair,
/// applied to a stream of candidates arriving with their shared-prefix
/// lengths (a sorted arena's LCP array).
///
/// # Examples
///
/// ```
/// use simsearch_distance::MyersStackKernel;
///
/// let mut dp = MyersStackKernel::new(b"Berlin", 2);
/// // Sorted candidates: "Berlin", "Berlingen", "Bern" (lcp 6, then 3).
/// assert_eq!(dp.resume(b"Berlin", 0), Some(0));
/// assert_eq!(dp.resume(b"Berlingen", 6), None); // distance 3 > k
/// assert_eq!(dp.resume(b"Bern", 3), Some(2));
/// assert!(dp.words_reused() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MyersStackKernel {
    /// `peq[c * blocks + b]`: match mask of block `b` for byte `c`,
    /// compiled once per query. Transposed relative to
    /// [`crate::myers_block::MyersBlock`]: the per-byte block loop reads
    /// one contiguous `blocks`-word row instead of striding 2 KiB apart.
    peq: Vec<u64>,
    /// Number of 64-bit blocks (0 only for the empty query).
    blocks: usize,
    /// Query length.
    m: usize,
    k: u32,
    /// DP columns: `states[d * blocks + b]` is block `b`'s vertical
    /// state after `d` candidate bytes. Column 0 is the empty prefix
    /// ([`BlockState::INITIAL`]), and blocks the band has not reached
    /// yet hold that state too. Columns `0 ..= depth` are the checkpoint
    /// stack; whatever lies above is scratch for the candidate in hand.
    states: Vec<BlockState>,
    /// Number of candidate bytes checkpointed in `states`.
    depth: usize,
    words: u64,
    cells: u64,
    reused: u64,
}

impl MyersStackKernel {
    /// Creates the kernel for `query` at threshold `k`, with the empty
    /// candidate prefix checkpointed.
    pub fn new(query: &[u8], k: u32) -> Self {
        let mut dp = Self {
            peq: Vec::new(),
            blocks: 0,
            m: 0,
            k: 0,
            states: Vec::new(),
            depth: 0,
            words: 0,
            cells: 0,
            reused: 0,
        };
        dp.reset(query, k);
        dp
    }

    /// Re-targets the kernel at a new `(query, k)` pair, reusing
    /// allocations; counters restart at zero.
    pub fn reset(&mut self, query: &[u8], k: u32) {
        self.m = query.len();
        self.k = k;
        self.blocks = query.len().div_ceil(W);
        self.peq.clear();
        self.peq.resize(self.blocks * 256, 0);
        for (i, &c) in query.iter().enumerate() {
            self.peq[c as usize * self.blocks + i / W] |= 1 << (i % W);
        }
        self.states.clear();
        self.states.resize(self.blocks, BlockState::INITIAL);
        self.depth = 0;
        self.words = 0;
        self.cells = 0;
        self.reused = 0;
    }

    /// The compiled threshold.
    pub fn threshold(&self) -> u32 {
        self.k
    }

    /// The compiled query length.
    pub fn pattern_len(&self) -> usize {
        self.m
    }

    /// Number of 64-bit blocks per DP column (0 for the empty query).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Current stack depth (number of candidate bytes whose block
    /// states are checkpointed).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// 64-bit words advanced since the last [`MyersStackKernel::reset`]:
    /// one per block inside the k-band per candidate byte processed, so
    /// at most — and for multi-block queries usually well below —
    /// `blocks` per byte.
    pub fn words_advanced(&self) -> u64 {
        self.words
    }

    /// DP cells represented by the advanced bytes (`m` per candidate
    /// byte, whatever the band skipped) — the scalar-kernel-comparable
    /// work figure.
    pub fn cells_computed(&self) -> u64 {
        self.cells
    }

    /// Words adopted from the checkpoint stack instead of being
    /// re-advanced (`blocks` per shared-prefix byte reused).
    pub fn words_reused(&self) -> u64 {
        self.reused
    }

    /// Decides `ed(query, candidate) ≤ k`, adopting the checkpointed
    /// block states for the candidate's first `shared_prefix` bytes.
    ///
    /// `shared_prefix` must not exceed the true common prefix between
    /// `candidate` and the previous candidate this kernel processed
    /// (pass `0` to restart from scratch, e.g. at a chunk boundary).
    /// Aborts as soon as the decisive diagonal exceeds `k`; the
    /// surviving (shorter) stack stays valid for the next resume.
    pub fn resume(&mut self, candidate: &[u8], shared_prefix: usize) -> Option<u32> {
        self.resume_bounded(candidate, shared_prefix, usize::MAX)
    }

    /// [`MyersStackKernel::resume`] with a cap on how deep the new
    /// checkpoint stack needs to reach.
    ///
    /// A sorted-arena sweep knows the *next* candidate's LCP before it
    /// processes the current one, and no later resume within one run of
    /// byte-ordered records can reuse more than that many bytes (the
    /// running LCP minimum only shrinks).
    /// Passing that lookahead as `keep_limit` lets the kernel checkpoint
    /// only the reusable prefix and advance the candidate's tail in a
    /// single column that is dropped afterwards — no per-byte pushes —
    /// which collapses the stack-maintenance cost on low-LCP data (DNA
    /// reads share a handful of bytes out of ~100). Correctness is
    /// unaffected: the surviving stack is a prefix of the full one, and
    /// the next resume clamps its shared prefix to the surviving depth.
    pub fn resume_bounded(
        &mut self,
        candidate: &[u8],
        shared_prefix: usize,
        keep_limit: usize,
    ) -> Option<u32> {
        let n = candidate.len();
        if self.m == 0 {
            // No bit-parallel form: the distance is trivially |candidate|.
            let d = n as u32;
            return (d <= self.k).then_some(d);
        }
        // Backtrack: columns past the shared prefix belong to the
        // previous candidate.
        let keep = shared_prefix.min(self.depth).min(n);
        self.depth = keep;
        self.reused += (keep * self.blocks) as u64;
        let delta = self.m as isize - n as isize;
        if delta.unsigned_abs() > self.k as usize {
            return None;
        }
        // The decisive diagonal's value at column `keep`, read off the
        // checkpoint; before the diagonal enters the matrix (Δ < 0,
        // column −Δ, row 0) its entry value −Δ ≤ k stands in.
        let mut score = match usize::try_from(keep as isize + delta) {
            Ok(row) => self.checkpointed_score(row),
            Err(_) => delta.unsigned_abs() as u32,
        };
        // A dead shared prefix: rejected with no word advanced.
        if score > self.k {
            return None;
        }
        let (blocks, k) = (self.blocks, self.k);
        if self.states.len() < (n + 1) * blocks {
            self.states.resize((n + 1) * blocks, BlockState::INITIAL);
        }
        let mut pos = keep;
        // Checkpointed phase: columns the next resume may adopt.
        let ckpt_end = keep_limit.min(n);
        while pos < ckpt_end && score <= k {
            score += self.advance_column(candidate[pos], pos, delta);
            pos += 1;
        }
        self.depth = pos;
        // Unstacked tail: nothing past `keep_limit` is ever resumed.
        // While the band covers block 0 alone — the whole tail of most
        // candidates — the column is one word and stays in registers:
        // the sweep is bound by the pv → pv dependency chain, which a
        // store and reload per byte would lengthen.
        let one_word_end = if blocks == 1 {
            n
        } else {
            n.min(W.saturating_sub(k as usize))
        };
        if pos < one_word_end && score <= k {
            let start = pos;
            let BlockState { mut pv, mut mv } = self.states[pos * blocks];
            while pos < one_word_end && score <= k {
                let adv = advance_block(pv, mv, self.peq[candidate[pos] as usize * blocks], 1);
                (pv, mv) = (adv.pv, adv.mv);
                score += diagonal_rise(adv.d0, pos as isize + delta);
                pos += 1;
            }
            self.words += (pos - start) as u64;
            // Hand the column over to the blocked loop below.
            self.states[pos * blocks..][..blocks].fill(BlockState::INITIAL);
            self.states[pos * blocks] = BlockState { pv, mv };
        }
        while pos < n && score <= k {
            score += self.advance_column(candidate[pos], pos, delta);
            pos += 1;
        }
        self.cells += ((pos - keep) * self.m) as u64;
        (score <= k).then_some(score)
    }

    /// Computes DP column `pos + 1` from column `pos` for candidate byte
    /// `c`, advancing (and counting) only the blocks inside the k-band.
    /// Returns how much the decisive diagonal `D[j+Δ][j]` rises on its
    /// step out of column `pos`.
    #[inline]
    fn advance_column(&mut self, c: u8, pos: usize, delta: isize) -> u32 {
        let blocks = self.blocks;
        let (below, above) = self.states.split_at_mut((pos + 1) * blocks);
        let (from, to) = (&below[pos * blocks..], &mut above[..blocks]);
        let peq = &self.peq[c as usize * blocks..][..blocks];
        let active = blocks.min((pos + self.k as usize) / W + 1);
        let row = pos as isize + delta;
        debug_assert!(
            row >> 6 < active as isize,
            "the diagonal lies inside the band"
        );
        // Horizontal input into block 0 is +1: D[0][j] = j.
        let mut hin: i32 = 1;
        let mut d0 = 0;
        for b in 0..active {
            let adv = advance_block(from[b].pv, from[b].mv, peq[b], hin);
            to[b] = BlockState {
                pv: adv.pv,
                mv: adv.mv,
            };
            hin = adv.hout;
            if b as isize == row >> 6 {
                d0 = adv.d0;
            }
        }
        to[active..].fill(BlockState::INITIAL);
        self.words += active as u64;
        diagonal_rise(d0, row)
    }

    /// `D[row][depth]` read off the top checkpoint: `D[0][depth] = depth`
    /// plus the column's lowest `row` vertical deltas.
    fn checkpointed_score(&self, row: usize) -> u32 {
        debug_assert!(row <= self.m);
        let column = &self.states[self.depth * self.blocks..];
        let (mut up, mut down) = (self.depth as u32, 0u32);
        for (b, st) in column[..row.div_ceil(W)].iter().enumerate() {
            // This block's rows below `row`: all 64, or the remainder.
            let low = !0u64 >> (W - (row - b * W).min(W));
            up += (st.pv & low).count_ones();
            down += (st.mv & low).count_ones();
        }
        up - down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;
    use crate::myers_block::MyersBlock;

    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// Feeding a sorted candidate list with true LCPs must reproduce the
    /// within-k oracle on every candidate.
    fn check_stream(query: &[u8], candidates: &[&[u8]], k: u32) {
        let mut sorted: Vec<&[u8]> = candidates.to_vec();
        sorted.sort();
        let mut dp = MyersStackKernel::new(query, k);
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
                "query {query:?} candidate {c:?} k {k}"
            );
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
    fn matches_oracle_across_block_boundaries() {
        // Queries straddling the one-word limit force the multi-block
        // carry chain through truncate/push cycles.
        for qlen in [63usize, 64, 65, 100, 129] {
            let q: Vec<u8> = (0..qlen).map(|i| b"ACGT"[i % 4]).collect();
            let mut cands: Vec<Vec<u8>> = Vec::new();
            for edit in 0..6 {
                let mut c = q.clone();
                for e in 0..edit {
                    c[(e * 17) % qlen] = b'N';
                }
                cands.push(c);
            }
            cands.push(q[..qlen / 2].to_vec());
            cands.push(vec![b'T'; qlen]);
            let cand_refs: Vec<&[u8]> = cands.iter().map(Vec::as_slice).collect();
            for k in [0, 4, 8, 16] {
                check_stream(&q, &cand_refs, k);
            }
        }
    }

    #[test]
    fn zero_shared_prefix_restarts_cleanly() {
        let words: &[&[u8]] = &[b"Ulm", b"Berlin", b"Ulm", b"Bern"];
        let mut dp = MyersStackKernel::new(b"Bern", 2);
        for &c in words {
            let truth = levenshtein(b"Bern", c);
            assert_eq!(dp.resume(c, 0), (truth <= 2).then_some(truth), "{c:?}");
        }
        assert_eq!(dp.words_reused(), 0);
    }

    #[test]
    fn candidate_shorter_than_stack_depth() {
        // "Berlingen" then its own prefix "Berlin": resume must pop to
        // the candidate's full length and read the answer off the
        // checkpointed column.
        let mut dp = MyersStackKernel::new(b"Berlin", 3);
        assert_eq!(dp.resume(b"Berlingen", 0), Some(3));
        assert_eq!(dp.depth(), 9);
        let words_before = dp.words_advanced();
        assert_eq!(dp.resume(b"Berlin", 6), Some(0));
        assert_eq!(dp.depth(), 6);
        // The whole candidate came from the stack: no new words.
        assert_eq!(dp.words_advanced(), words_before);
        // At k = 2 "Berlingen" is out of reach by length alone: nothing
        // is advanced or stacked, so its prefix starts from scratch.
        let mut dp = MyersStackKernel::new(b"Berlin", 2);
        assert_eq!(dp.resume(b"Berlingen", 0), None);
        assert_eq!((dp.depth(), dp.words_advanced()), (0, 0));
        assert_eq!(dp.resume(b"Berlin", 6), Some(0));
        assert_eq!(dp.words_advanced(), 6);
    }

    #[test]
    fn aborted_stack_stays_valid_for_the_next_resume() {
        // The first candidate dies mid-push, leaving a shorter stack;
        // the next resume's shared prefix exceeds the surviving depth
        // and must be clamped, not trusted.
        let q = vec![b'A'; 40];
        let mut dp = MyersStackKernel::new(&q, 1);
        let dead = vec![b'T'; 40];
        assert_eq!(dp.resume(&dead, 0), None);
        assert!(dp.depth() < 40, "abort must have fired early");
        let mut near = vec![b'T'; 40];
        near[39] = b'A';
        let truth = levenshtein(&q, &near);
        assert_eq!(dp.resume(&near, 39), (truth <= 1).then_some(truth));
    }

    #[test]
    fn dead_prefix_skips_without_advancing_words() {
        let q = vec![b'A'; 8];
        let mut dp = MyersStackKernel::new(&q, 1);
        assert_eq!(dp.resume(b"TTTTTTTT", 0), None);
        // The diagonal passed k at column 2, and there the sweep stopped.
        assert_eq!((dp.depth(), dp.words_advanced()), (2, 2));
        // Same length, sharing the dead prefix: the checkpointed column
        // already puts the diagonal past k, so no word is advanced.
        assert_eq!(dp.resume(b"TTAAAAAA", 2), None);
        assert_eq!((dp.depth(), dp.words_advanced()), (2, 2));
        // Sharing only the live part of it, the candidate is swept.
        assert_eq!(dp.resume(b"TAAAAAAA", 1), Some(1));
        assert_eq!(dp.words_advanced(), 2 + 7);
    }

    #[test]
    fn empty_query_and_empty_candidates() {
        let mut dp = MyersStackKernel::new(b"", 1);
        assert_eq!(dp.resume(b"", 0), Some(0));
        assert_eq!(dp.resume(b"a", 0), Some(1));
        assert_eq!(dp.resume(b"ab", 1), None);
        let mut dp = MyersStackKernel::new(b"ab", 2);
        assert_eq!(dp.resume(b"", 0), Some(2));
    }

    #[test]
    fn reset_clears_stack_and_counters() {
        let mut dp = MyersStackKernel::new(b"Berlin", 2);
        dp.resume(b"Bern", 0);
        assert!(dp.words_advanced() > 0);
        dp.reset(b"Ulm", 1);
        assert_eq!(dp.depth(), 0);
        assert_eq!(dp.words_advanced(), 0);
        assert_eq!(dp.words_reused(), 0);
        assert_eq!(dp.threshold(), 1);
        assert_eq!(dp.resume(b"Ulm", 0), Some(0));
    }

    #[test]
    fn resumed_equals_fresh_blocked_within() {
        // The kernel resumed at a true shared prefix must agree with a
        // fresh MyersBlock::within on every candidate.
        let q: Vec<u8> = (0..100).map(|i| b"ACGT"[(i * 7) % 4]).collect();
        let fresh = MyersBlock::new(&q).unwrap();
        let mut cands: Vec<Vec<u8>> = (0..20)
            .map(|s| {
                let mut c = q.clone();
                c[(s * 13) % 100] = b'N';
                c[(s * 31) % 100] = b'G';
                c
            })
            .collect();
        cands.sort();
        for k in [2, 8, 16] {
            let mut dp = MyersStackKernel::new(&q, k);
            for (i, c) in cands.iter().enumerate() {
                let lcp = if i == 0 {
                    0
                } else {
                    common_prefix(&cands[i - 1], c)
                };
                assert_eq!(dp.resume(c, lcp), fresh.within(c, k), "k={k} i={i}");
            }
        }
    }

    #[test]
    fn bounded_checkpointing_matches_the_oracle_and_caps_depth() {
        // A sorted stream fed with true next-record LCP bounds must be
        // byte-identical to the unbounded kernel, while never stacking
        // deeper than the bound it was given.
        let mut cands: Vec<Vec<u8>> = (0..30u8)
            .map(|s| {
                let mut c: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 11 + 3) % 4]).collect();
                c[(s as usize * 7) % 80] = b"ACGTN"[s as usize % 5];
                c[(s as usize * 23) % 80] = b'N';
                c
            })
            .collect();
        cands.sort();
        cands.dedup();
        let q: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 11 + 3) % 4]).collect();
        for k in [1, 4, 8] {
            let mut bounded = MyersStackKernel::new(&q, k);
            let mut full = MyersStackKernel::new(&q, k);
            for (i, c) in cands.iter().enumerate() {
                let lcp = if i == 0 {
                    0
                } else {
                    common_prefix(&cands[i - 1], c)
                };
                let limit = if i + 1 < cands.len() {
                    common_prefix(c, &cands[i + 1])
                } else {
                    0
                };
                assert_eq!(
                    bounded.resume_bounded(c, lcp, limit),
                    full.resume(c, lcp),
                    "k={k} i={i}"
                );
                // The stack never grows past the bound, but may stay
                // deeper when the *incoming* shared prefix already was
                // (those checkpoints remain valid — only growth is
                // capped).
                assert!(bounded.depth() <= limit.max(lcp), "k={k} i={i}");
            }
            // The tail runs unstacked but is still counted as work.
            assert_eq!(bounded.words_advanced(), full.words_advanced());
            assert!(bounded.words_reused() <= full.words_reused());
        }
    }

    #[test]
    fn reuse_advances_fewer_words_than_restarting() {
        let a = b"Brandenburg an der Havel";
        let b = b"Brandenburg an der Spree";
        let q = b"Brandenburg an der Hafel";
        let mut reuse = MyersStackKernel::new(q, 4);
        reuse.resume(a, 0);
        reuse.resume(b, common_prefix(a, b));
        let mut restart = MyersStackKernel::new(q, 4);
        restart.resume(a, 0);
        restart.resume(b, 0);
        assert!(
            reuse.words_advanced() < restart.words_advanced(),
            "{} vs {}",
            reuse.words_advanced(),
            restart.words_advanced()
        );
        assert_eq!(reuse.words_reused(), common_prefix(a, b) as u64);
    }
}
