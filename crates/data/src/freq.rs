//! Frequency vectors — the paper's "future work" early filter, implemented.
//!
//! §6 of the paper proposes storing, per string, the number of occurrences
//! of a small tracked symbol set (A, C, G, N, T for DNA; the vowels
//! A, E, I, O, U for city names) and using it for early filtering. The
//! underlying bound is classical (it is also what PETER's frequency
//! vectors exploit): a single edit operation changes the full symbol
//! histogram by at most 2 in L1 norm (a substitution decrements one
//! count and increments another; an insert/delete changes one count by 1).
//! Projecting the histogram onto a tracked subset plus an "other" bucket
//! can only shrink the L1 distance, so for any tracked set
//!
//! ```text
//! ed(x, y) ≥ ⌈ L1(freq(x), freq(y)) / 2 ⌉
//! ```
//!
//! which gives a sound reject test: if the bound exceeds `k`, the pair
//! cannot match.

/// Number of tracked symbols in a [`FreqVector`] (plus one "other" bucket).
pub const TRACKED: usize = 5;

/// Per-string occurrence counts of five tracked symbols plus everything
/// else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreqVector {
    /// `counts[i]` = occurrences of `tracked[i]`; `counts[5]` = all other
    /// bytes.
    pub counts: [u32; TRACKED + 1],
}

impl FreqVector {
    /// Computes the vector of `s` for a tracked symbol set.
    ///
    /// `tracked` must be sorted and contain distinct bytes (e.g.
    /// [`crate::alphabet::DNA_SYMBOLS`] or
    /// [`crate::alphabet::VOWEL_SYMBOLS`]).
    pub fn compute(s: &[u8], tracked: &[u8; TRACKED]) -> Self {
        debug_assert!(tracked.windows(2).all(|w| w[0] < w[1]));
        let mut counts = [0u32; TRACKED + 1];
        for &b in s {
            match tracked.iter().position(|&t| t == b) {
                Some(i) => counts[i] += 1,
                None => counts[TRACKED] += 1,
            }
        }
        Self { counts }
    }

    /// Total number of bytes counted (= string length).
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// L1 distance between two vectors.
    pub fn l1(&self, other: &Self) -> u32 {
        self.counts
            .iter()
            .zip(other.counts.iter())
            .map(|(&a, &b)| a.abs_diff(b))
            .sum()
    }

    /// A lower bound on the edit distance between the two underlying
    /// strings: `max(⌈L1/2⌉, |len(x) − len(y)|)`.
    pub fn ed_lower_bound(&self, other: &Self) -> u32 {
        let l1 = self.l1(other);
        let len_diff = self.total().abs_diff(other.total());
        l1.div_ceil(2).max(len_diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{DNA_SYMBOLS, VOWEL_SYMBOLS};

    #[test]
    fn compute_counts_tracked_and_other() {
        let v = FreqVector::compute(b"AGGCGTX", &DNA_SYMBOLS);
        // tracked order: A C G N T
        assert_eq!(v.counts, [1, 1, 3, 0, 1, 1]);
        assert_eq!(v.total(), 7);
    }

    #[test]
    fn l1_is_symmetric_and_zero_on_equal() {
        let a = FreqVector::compute(b"BERLIN", &VOWEL_SYMBOLS);
        let b = FreqVector::compute(b"BERN", &VOWEL_SYMBOLS);
        assert_eq!(a.l1(&b), b.l1(&a));
        assert_eq!(a.l1(&a), 0);
    }

    #[test]
    fn lower_bound_is_sound_on_examples() {
        // Known distances: ed("AGGCGT","AGAGT") = 2 (paper Figure 1).
        let x = FreqVector::compute(b"AGGCGT", &DNA_SYMBOLS);
        let y = FreqVector::compute(b"AGAGT", &DNA_SYMBOLS);
        assert!(x.ed_lower_bound(&y) <= 2);

        // A pair that differs wildly must get a strong bound.
        let p = FreqVector::compute(b"AAAAAAAA", &DNA_SYMBOLS);
        let q = FreqVector::compute(b"TTTTTTTT", &DNA_SYMBOLS);
        assert_eq!(p.ed_lower_bound(&q), 8);
    }

    #[test]
    fn length_difference_dominates_when_larger() {
        let a = FreqVector::compute(b"AA", &DNA_SYMBOLS);
        let b = FreqVector::compute(b"AAAAAA", &DNA_SYMBOLS);
        assert_eq!(a.ed_lower_bound(&b), 4);
    }
}
