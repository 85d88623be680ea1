//! The paper's "faster edit distance calculation" (§3.2): the length
//! filter plus the decisive-diagonal early abort, conditions (5)–(7).
//!
//! Two observations power the rung-2 speedup:
//!
//! 1. **Length filter** (eq. (5)): with `d = | |x| − |y| |`, the distance
//!    is at least `d`, so if `d > k` no matrix needs to be computed.
//! 2. **Decisive-diagonal abort** (eqs. (6)/(7)): values along any matrix
//!    diagonal never decrease as the computation proceeds
//!    (`M[i][j] ≥ M[i−1][j−1]`), and the result cell `M[|x|][|y|]` lies on
//!    the diagonal `{ (i, j) : i − j = |x| − |y| }`. Hence as soon as the
//!    entry of that diagonal in the current row exceeds `k`, the final
//!    value must exceed `k` and the computation can stop — the paper's
//!    worked example (Figure 2) aborts after `M[4][3]` for
//!    "AGGCGT" vs "AGAGT" with `k = 1`.
//!
//! The rows themselves are computed at full width, exactly as the paper's
//! rung 2 does (banding the row is a *further* optimization, provided by
//! [`crate::banded`] as an extension).

/// Computes whether `ed(x, y) ≤ k`, returning the distance when it is and
/// `None` otherwise (possibly after aborting early). Uses `buf` as the
/// reusable two-row DP state.
#[inline]
pub fn ed_within_early_abort_with(buf: &mut Vec<u32>, x: &[u8], y: &[u8], k: u32) -> Option<u32> {
    ed_within_early_abort_counted(buf, x, y, k).0
}

/// [`ed_within_early_abort_with`], additionally returning the number of
/// DP cells computed — the quantity every optimization in the paper
/// (early abort, banding, pruning) is trying to reduce. A pair the length
/// filter rejects costs no cells.
pub fn ed_within_early_abort_counted(
    buf: &mut Vec<u32>,
    x: &[u8],
    y: &[u8],
    k: u32,
) -> (Option<u32>, u64) {
    // (5): length filter.
    let d = x.len().abs_diff(y.len());
    if d > k as usize {
        return (None, 0);
    }
    let cols = y.len() + 1;
    buf.clear();
    buf.resize(cols * 2, 0);
    let (prev, curr) = buf.split_at_mut(cols);
    for (j, p) in prev.iter_mut().enumerate() {
        *p = j as u32;
    }
    let mut prev: &mut [u32] = prev;
    let mut curr: &mut [u32] = curr;
    let x_longer = x.len() >= y.len();
    for (i0, &xc) in x.iter().enumerate() {
        let i = i0 + 1;
        curr[0] = i as u32;
        for j in 1..cols {
            curr[j] = if xc == y[j - 1] {
                prev[j - 1]
            } else {
                1 + prev[j].min(curr[j - 1]).min(prev[j - 1])
            };
        }
        // (6)/(7): check the decisive diagonal through (|x|, |y|).
        let decisive_j = if x_longer {
            // i − d = j; only defined once the diagonal enters this row.
            i.checked_sub(d)
        } else {
            // i = j − d, i.e. j = i + d; always within this row since
            // i + d ≤ |x| + (|y| − |x|) = |y|.
            Some(i + d)
        };
        if let Some(j) = decisive_j {
            if j < cols && curr[j] > k {
                // Rows 1..=i, `cols` cells each.
                return (None, (i * cols) as u64);
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let result = prev[cols - 1];
    ((result <= k).then_some(result), (x.len() * cols) as u64)
}

/// Convenience wrapper with a throwaway buffer.
pub fn ed_within_early_abort(x: &[u8], y: &[u8], k: u32) -> Option<u32> {
    let mut buf = Vec::new();
    ed_within_early_abort_with(&mut buf, x, y, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;

    #[test]
    fn paper_figure_2_abort() {
        // "AGGCGT" vs "AGAGT" has distance 2, so with k = 1 the kernel
        // must reject (the paper shows the abort firing at M[4][3]).
        assert_eq!(ed_within_early_abort(b"AGGCGT", b"AGAGT", 1), None);
        assert_eq!(ed_within_early_abort(b"AGGCGT", b"AGAGT", 2), Some(2));
    }

    #[test]
    fn length_filter_rejects_without_computing() {
        assert_eq!(ed_within_early_abort(b"ab", b"abcdef", 3), None);
        assert_eq!(ed_within_early_abort(b"abcdef", b"ab", 3), None);
        // Boundary: d == k is allowed.
        assert_eq!(ed_within_early_abort(b"ab", b"abcd", 2), Some(2));
    }

    #[test]
    fn agrees_with_full_matrix_on_word_pairs() {
        let words: &[&[u8]] = &[
            b"", b"a", b"ab", b"ba", b"abc", b"Berlin", b"Bern", b"Bayern", b"Ulm",
            b"AGGCGT", b"AGAGT", b"kitten", b"sitting",
        ];
        let mut buf = Vec::new();
        for &x in words {
            for &y in words {
                let truth = levenshtein(x, y);
                for k in 0..6 {
                    let got = ed_within_early_abort_with(&mut buf, x, y, k);
                    let want = (truth <= k).then_some(truth);
                    assert_eq!(got, want, "x={x:?} y={y:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn exact_match_at_k_zero() {
        assert_eq!(ed_within_early_abort(b"Berlin", b"Berlin", 0), Some(0));
        assert_eq!(ed_within_early_abort(b"Berlin", b"Bern", 0), None);
    }

    #[test]
    fn empty_strings() {
        assert_eq!(ed_within_early_abort(b"", b"", 0), Some(0));
        assert_eq!(ed_within_early_abort(b"", b"ab", 2), Some(2));
        assert_eq!(ed_within_early_abort(b"", b"ab", 1), None);
    }

    #[test]
    fn counted_early_abort_matches_uncounted() {
        let words: &[&[u8]] = &[
            b"", b"a", b"Berlin", b"Bern", b"AGGCGT", b"AGAGT", b"kitten",
        ];
        let mut buf = Vec::new();
        for &x in words {
            for &y in words {
                for k in 0..5 {
                    let (r, cells) = ed_within_early_abort_counted(&mut buf, x, y, k);
                    assert_eq!(r, ed_within_early_abort(x, y, k));
                    if x.len().abs_diff(y.len()) > k as usize {
                        assert_eq!(cells, 0, "length filter must not compute cells");
                    }
                }
            }
        }
    }

    #[test]
    fn early_abort_counts_reflect_the_abort() {
        // Dissimilar strings: the abort fires early, so far fewer cells
        // than the full |x|·|y| table.
        let x = vec![b'A'; 100];
        let y = vec![b'T'; 100];
        let mut buf = Vec::new();
        let (r, cells) = ed_within_early_abort_counted(&mut buf, &x, &y, 4);
        assert_eq!(r, None);
        assert!(cells < 101 * 20, "abort did not fire early: {cells}");
    }
}
