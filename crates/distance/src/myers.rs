//! Bit-parallel edit distance (Myers 1999, global-distance form of
//! Hyyrö 2002) for patterns of at most 64 bytes.
//!
//! An extension beyond the paper: the entire DP column is packed into one
//! machine word, so each text byte costs O(1) word operations. The
//! pattern's match masks (`Peq`) are compiled once per query with
//! [`Myers64::new`] and then reused against every candidate — ideal for a
//! sequential scan, where one query meets hundreds of thousands of
//! candidates. Patterns longer than 64 bytes use the blocked variant in
//! [`crate::myers_block`].

use crate::myers_block::{diagonal_rise, PatternError};

/// A query compiled for bit-parallel distance computation
/// (pattern length ≤ 64).
#[derive(Clone)]
pub struct Myers64 {
    /// `peq[c]` has bit `i` set iff `pattern[i] == c`.
    peq: [u64; 256],
    /// Pattern length.
    m: u32,
    /// Bit mask of the last pattern position.
    last: u64,
}

impl Myers64 {
    /// Compiles `pattern`, reporting a structured reason on refusal:
    /// [`PatternError::Empty`], or [`PatternError::TooLong`] beyond
    /// 64 bytes (use [`crate::myers_block::MyersBlock`] instead).
    pub fn compile(pattern: &[u8]) -> Result<Self, PatternError> {
        if pattern.is_empty() {
            return Err(PatternError::Empty);
        }
        if pattern.len() > 64 {
            return Err(PatternError::TooLong {
                len: pattern.len(),
                max: 64,
            });
        }
        let mut peq = [0u64; 256];
        for (i, &c) in pattern.iter().enumerate() {
            peq[c as usize] |= 1 << i;
        }
        Ok(Self {
            peq,
            m: pattern.len() as u32,
            last: 1 << (pattern.len() - 1),
        })
    }

    /// Compiles `pattern`. Returns `None` if it is empty or longer than
    /// 64 bytes ([`Myers64::compile`] reports the reason).
    pub fn new(pattern: &[u8]) -> Option<Self> {
        Self::compile(pattern).ok()
    }

    /// Pattern length.
    pub fn pattern_len(&self) -> usize {
        self.m as usize
    }

    /// Computes `ed(pattern, text)` exactly.
    pub fn distance(&self, text: &[u8]) -> u32 {
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = self.m;
        for &c in text {
            let eq = self.peq[c as usize];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & self.last != 0 {
                score += 1;
            }
            if mh & self.last != 0 {
                score -= 1;
            }
            // Horizontal input at the top boundary is +1 (D[0][j] = j).
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }

    /// Computes whether `ed(pattern, text) ≤ k`, returning the distance
    /// when it is. Follows the decisive diagonal `D[j+Δ][j]`, `Δ = m − n`
    /// (see [`crate::myers_block`]): its values never decrease, so the
    /// comparison stops the moment one exceeds `k`.
    pub fn within(&self, text: &[u8], k: u32) -> Option<u32> {
        if self.m.abs_diff(text.len() as u32) > k {
            return None;
        }
        let mut pv = !0u64;
        let mut mv = 0u64;
        let delta = self.m as isize - text.len() as isize;
        let mut score = delta.unsigned_abs() as u32;
        for (j, &c) in text.iter().enumerate() {
            let eq = self.peq[c as usize];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            // `j + Δ` is the row the diagonal leaves in this column
            // (negative: not entered yet).
            score += diagonal_rise(xh | mv, j as isize + delta);
            if score > k {
                return None;
            }
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        Some(score)
    }
}

impl std::fmt::Debug for Myers64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Myers64(m={})", self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;

    #[test]
    fn rejects_empty_and_oversized_patterns() {
        assert!(Myers64::new(b"").is_none());
        assert!(Myers64::new(&[b'a'; 65]).is_none());
        assert!(Myers64::new(&[b'a'; 64]).is_some());
    }

    #[test]
    fn matches_full_matrix_on_word_pairs() {
        let words: &[&[u8]] = &[
            b"a", b"ab", b"ba", b"abc", b"Berlin", b"Bern", b"Bayern", b"Ulm",
            b"AGGCGT", b"AGAGT", b"kitten", b"sitting",
        ];
        for &x in words {
            let m = Myers64::new(x).unwrap();
            for &y in words {
                assert_eq!(m.distance(y), levenshtein(x, y), "{x:?} vs {y:?}");
            }
            // Against empty text: distance is |x|.
            assert_eq!(m.distance(b""), x.len() as u32);
        }
    }

    #[test]
    fn within_agrees_with_distance() {
        let words: &[&[u8]] = &[b"Berlin", b"Bern", b"AGGCGT", b"AGAGT", b"a"];
        for &x in words {
            let m = Myers64::new(x).unwrap();
            for &y in words {
                let truth = levenshtein(x, y);
                for k in 0..8 {
                    let want = (truth <= k).then_some(truth);
                    assert_eq!(m.within(y, k), want, "{x:?} vs {y:?}, k={k}");
                }
            }
        }
    }

    #[test]
    fn full_64_byte_pattern_boundary() {
        let x = [b'A'; 64];
        let mut y = x;
        y[0] = b'T';
        y[63] = b'G';
        let m = Myers64::new(&x).unwrap();
        assert_eq!(m.distance(&y), 2);
        assert_eq!(m.within(&y, 2), Some(2));
        assert_eq!(m.within(&y, 1), None);
    }
}
