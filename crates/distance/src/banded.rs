//! Banded (Ukkonen-style) bounded edit distance.
//!
//! An extension beyond the paper's rung 2: any alignment path of cost
//! ≤ `k` stays within the diagonal band `|i − j| ≤ k` (a cell at diagonal
//! offset `d` costs at least `d`), so only `2k + 1` cells per row need to
//! be computed and everything outside the band can be treated as `k + 1`.
//! Combined with a per-row minimum early abort this gives
//! `O((2k + 1) · |x|)` time — the asymptotically right kernel for the DNA
//! workload, where `|x| ≈ 100` and `k ≤ 16`.

/// Computes whether `ed(x, y) ≤ k`, returning the distance when it is.
/// Only the diagonal band `|i − j| ≤ k` is computed; `buf` holds the two
/// reusable full-width rows.
pub fn ed_within_banded_with(buf: &mut Vec<u32>, x: &[u8], y: &[u8], k: u32) -> Option<u32> {
    if x.len().abs_diff(y.len()) > k as usize {
        return None;
    }
    let cap = k + 1;
    let kk = k as usize;
    let cols = y.len() + 1;
    buf.clear();
    buf.resize(cols * 2, cap);
    let (prev, curr) = buf.split_at_mut(cols);
    // Row 0: M[0][j] = j inside the band, capped outside.
    for (j, p) in prev.iter_mut().enumerate().take(kk + 1) {
        *p = j as u32;
    }
    let mut prev: &mut [u32] = prev;
    let mut curr: &mut [u32] = curr;
    for (i0, &xc) in x.iter().enumerate() {
        let i = i0 + 1;
        let lo = i.saturating_sub(kk);
        let hi = (i + kk).min(y.len());
        let mut row_min = cap;
        if lo == 0 {
            curr[0] = i as u32;
            row_min = curr[0];
        } else {
            // The cell left of the band boundary must read as "out of band".
            curr[lo - 1] = cap;
        }
        for j in lo.max(1)..=hi {
            // prev[j] may be the out-of-band cell at the band's right edge
            // from the previous row; it was initialized/overwritten to cap.
            let v = if xc == y[j - 1] {
                prev[j - 1]
            } else {
                1 + prev[j].min(curr[j - 1]).min(prev[j - 1])
            };
            let v = v.min(cap);
            curr[j] = v;
            row_min = row_min.min(v);
        }
        // The cell right of the band (if any) must read as cap when the
        // next row peeks at prev[j] for j = i+1+kk ... it reads index hi+1.
        if hi + 1 < cols {
            curr[hi + 1] = cap;
        }
        if row_min > k {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let result = prev[cols - 1];
    (result <= k).then_some(result)
}

/// Convenience wrapper with a throwaway buffer.
pub fn ed_within_banded(x: &[u8], y: &[u8], k: u32) -> Option<u32> {
    let mut buf = Vec::new();
    ed_within_banded_with(&mut buf, x, y, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;

    #[test]
    fn agrees_with_full_matrix_on_word_pairs() {
        let words: &[&[u8]] = &[
            b"", b"a", b"ab", b"ba", b"abc", b"Berlin", b"Bern", b"Bayern", b"Ulm",
            b"AGGCGT", b"AGAGT", b"kitten", b"sitting", b"AAAAAAAAAA", b"TTTTTTTTTT",
        ];
        let mut buf = Vec::new();
        for &x in words {
            for &y in words {
                let truth = levenshtein(x, y);
                for k in 0..12 {
                    let got = ed_within_banded_with(&mut buf, x, y, k);
                    let want = (truth <= k).then_some(truth);
                    assert_eq!(got, want, "x={x:?} y={y:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn k_zero_is_equality_test() {
        assert_eq!(ed_within_banded(b"AGGT", b"AGGT", 0), Some(0));
        assert_eq!(ed_within_banded(b"AGGT", b"AGCT", 0), None);
    }

    #[test]
    fn distance_exactly_k_is_accepted() {
        assert_eq!(ed_within_banded(b"kitten", b"sitting", 3), Some(3));
        assert_eq!(ed_within_banded(b"kitten", b"sitting", 2), None);
    }

    #[test]
    fn long_divergent_strings_abort() {
        let x = vec![b'A'; 500];
        let y = vec![b'T'; 500];
        assert_eq!(ed_within_banded(&x, &y, 16), None);
    }

    #[test]
    fn long_similar_strings_match() {
        let x = vec![b'A'; 500];
        let mut y = x.clone();
        y[100] = b'T';
        y.insert(300, b'G');
        assert_eq!(ed_within_banded(&x, &y, 16), Some(2));
    }
}
