//! Value generators for property tests, driven by the workspace's own
//! deterministic [`Xoshiro256`] PRNG (`crates/data/src/rng.rs`) so the
//! same seed always produces the same inputs on every machine.

use simsearch_data::generate::edits::apply_random_edits;
use simsearch_data::rng::Xoshiro256;
use simsearch_data::Alphabet;
use std::ops::Range;
use std::rc::Rc;

/// The DNA alphabet used by the domain generators (Table I's symbols).
pub const DNA: &[u8] = b"ACGNT";
/// A small, collision-rich city-like alphabet: property tests over few
/// symbols hit shared prefixes and near-duplicates far more often.
pub const CITY: &[u8] = b"abcdAB -";
/// 34 name-like symbols: few enough for shared prefixes, enough to
/// occupy more than a handful of the sorted view's 64 hash buckets.
pub const NAMES: &[u8] = b"abcdefghijklmnoprstuvwyz ACJLBDEN-";
/// The byte values below 200: three or four to each of those buckets.
pub static WIDE: [u8; 200] = {
    let mut symbols = [0u8; 200];
    let mut i = 0;
    while i < 200 {
        symbols[i] = i as u8;
        i += 1;
    }
    symbols
};

/// A generator: a reusable sampling function from PRNG state to values.
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Xoshiro256) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Self { f: Rc::clone(&self.f) }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a sampling function.
    pub fn new(f: impl Fn(&mut Xoshiro256) -> T + 'static) -> Self {
        Self { f: Rc::new(f) }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Xoshiro256) -> T {
        (self.f)(rng)
    }

    /// Maps the generated value through `f`.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |rng| f(self.sample(rng)))
    }
}

/// Always produces a clone of `value`.
pub fn constant<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone())
}

/// Uniform `u32` in `range` (half-open, must be non-empty).
pub fn u32_in(range: Range<u32>) -> Gen<u32> {
    assert!(!range.is_empty(), "empty range {range:?}");
    Gen::new(move |rng| range.start + rng.below((range.end - range.start) as u64) as u32)
}

/// Uniform `usize` in `range` (half-open, must be non-empty).
pub fn usize_in(range: Range<usize>) -> Gen<usize> {
    assert!(!range.is_empty(), "empty range {range:?}");
    Gen::new(move |rng| range.start + rng.index(range.end - range.start))
}

/// Any `u64`.
pub fn u64_any() -> Gen<u64> {
    Gen::new(|rng| rng.next_u64())
}

/// Any byte, 0–255.
pub fn byte_any() -> Gen<u8> {
    Gen::new(|rng| rng.below(256) as u8)
}

/// A byte drawn uniformly from `choices`.
pub fn byte_from(choices: &'static [u8]) -> Gen<u8> {
    assert!(!choices.is_empty(), "empty byte choices");
    Gen::new(move |rng| *rng.choose(choices))
}

/// A byte in 0–255 satisfying `keep` (rejection sampling; `keep` must
/// accept at least one byte).
pub fn byte_where(keep: impl Fn(u8) -> bool + 'static) -> Gen<u8> {
    assert!((0..=255u16).any(|b| keep(b as u8)), "predicate rejects every byte");
    Gen::new(move |rng| loop {
        let b = rng.below(256) as u8;
        if keep(b) {
            return b;
        }
    })
}

/// A vector of `inner`-generated values with a length in `len`.
pub fn vec_of<T: 'static>(inner: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    assert!(!len.is_empty(), "empty length range {len:?}");
    Gen::new(move |rng| {
        let n = len.start + rng.index(len.end - len.start);
        (0..n).map(|_| inner.sample(rng)).collect()
    })
}

/// Arbitrary byte strings with a length in `len`.
pub fn bytes_any(len: Range<usize>) -> Gen<Vec<u8>> {
    vec_of(byte_any(), len)
}

/// Byte strings over an explicit alphabet with a length in `len`.
pub fn bytes_from(alphabet: &'static [u8], len: Range<usize>) -> Gen<Vec<u8>> {
    vec_of(byte_from(alphabet), len)
}

/// City-like ASCII strings (small latin alphabet with space and dash —
/// collision-rich, like the paper's city-names profile).
pub fn city_string(len: Range<usize>) -> Gen<Vec<u8>> {
    bytes_from(CITY, len)
}

/// DNA strings over `ACGNT`.
pub fn dna_string(len: Range<usize>) -> Gen<Vec<u8>> {
    bytes_from(DNA, len)
}

/// A corpus: `count` words produced by `word`.
pub fn corpus(word: Gen<Vec<u8>>, count: Range<usize>) -> Gen<Vec<Vec<u8>>> {
    vec_of(word, count)
}

/// Draws uniformly from `choices`, then samples the chosen generator —
/// the sum-type combinator (e.g. one of several operation kinds).
pub fn one_of<T: 'static>(choices: Vec<Gen<T>>) -> Gen<T> {
    assert!(!choices.is_empty(), "empty generator choices");
    Gen::new(move |rng| choices[rng.index(choices.len())].sample(rng))
}

/// Like [`one_of`], but each choice carries an integer weight: choice
/// `i` is drawn with probability `weight_i / Σ weights`. Zero-weight
/// choices are never drawn (but at least one weight must be positive).
pub fn weighted<T: 'static>(choices: Vec<(u32, Gen<T>)>) -> Gen<T> {
    let total: u64 = choices.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "weights sum to zero");
    Gen::new(move |rng| {
        let mut ticket = rng.below(total);
        for (weight, gen) in &choices {
            if ticket < *weight as u64 {
                return gen.sample(rng);
            }
            ticket -= *weight as u64;
        }
        unreachable!("ticket below total weight")
    })
}

/// Pairs two generators.
pub fn zip<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |rng| (a.sample(rng), b.sample(rng)))
}

/// Triples three generators.
pub fn zip3<A: 'static, B: 'static, C: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    Gen::new(move |rng| (a.sample(rng), b.sample(rng), c.sample(rng)))
}

/// Quadruples four generators.
pub fn zip4<A: 'static, B: 'static, C: 'static, D: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
    d: Gen<D>,
) -> Gen<(A, B, C, D)> {
    Gen::new(move |rng| (a.sample(rng), b.sample(rng), c.sample(rng), d.sample(rng)))
}

/// `(original, mutated, budget)`: a base string plus a copy perturbed by
/// at most `edits` random insert/delete/substitute operations over
/// `alphabet` — the guaranteed-match workload construction of
/// `crates/data/src/generate/edits.rs`. The edit distance between the
/// two strings is at most `budget`.
pub fn mutated(
    base: Gen<Vec<u8>>,
    edits: Range<usize>,
    alphabet: &'static [u8],
) -> Gen<(Vec<u8>, Vec<u8>, usize)> {
    assert!(!edits.is_empty(), "empty edit range {edits:?}");
    let alpha = Alphabet::new(alphabet);
    Gen::new(move |rng| {
        let original = base.sample(rng);
        let budget = edits.start + rng.index(edits.end - edits.start);
        let mutated = apply_random_edits(rng, &original, budget, &alpha);
        (original, mutated, budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(7)
    }

    #[test]
    fn generators_are_deterministic() {
        let g = zip(bytes_any(0..20), u32_in(0..6));
        let a: Vec<_> = {
            let mut r = rng();
            (0..50).map(|_| g.sample(&mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = rng();
            (0..50).map(|_| g.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = rng();
        let g = usize_in(3..9);
        for _ in 0..500 {
            let v = g.sample(&mut r);
            assert!((3..9).contains(&v));
        }
        let s = dna_string(2..5);
        for _ in 0..200 {
            let v = s.sample(&mut r);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|b| DNA.contains(b)));
        }
    }

    #[test]
    fn byte_where_filters() {
        let mut r = rng();
        let g = byte_where(|b| b != 0 && b != b'\n');
        for _ in 0..500 {
            let b = g.sample(&mut r);
            assert!(b != 0 && b != b'\n');
        }
    }

    #[test]
    fn mutated_respects_edit_budget() {
        let mut r = rng();
        let g = mutated(city_string(0..12), 0..4, CITY);
        for _ in 0..200 {
            let (orig, edited, budget) = g.sample(&mut r);
            let d = simsearch_distance::levenshtein(&orig, &edited);
            assert!(d as usize <= budget, "{d} > {budget}");
        }
    }

    #[test]
    fn one_of_draws_every_choice() {
        let mut r = rng();
        let g = one_of(vec![constant(1u32), constant(2), constant(3)]);
        let mut seen = [false; 4];
        for _ in 0..300 {
            let v = g.sample(&mut r) as usize;
            assert!((1..=3).contains(&v));
            seen[v] = true;
        }
        assert!(seen[1] && seen[2] && seen[3], "all choices reachable");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = rng();
        // Weight 0 must never be drawn; 9:1 should skew heavily.
        let g = weighted(vec![
            (9, constant("common")),
            (1, constant("rare")),
            (0, constant("never")),
        ]);
        let mut common = 0;
        let mut rare = 0;
        for _ in 0..1000 {
            match g.sample(&mut r) {
                "common" => common += 1,
                "rare" => rare += 1,
                other => panic!("zero-weight choice drawn: {other}"),
            }
        }
        assert!(rare > 0, "positive-weight choice reachable");
        assert!(common > rare * 4, "9:1 skew visible: {common} vs {rare}");
    }

    #[test]
    fn map_transforms() {
        let mut r = rng();
        let g = u32_in(1..10).map(|v| v * 2);
        for _ in 0..100 {
            let v = g.sample(&mut r);
            assert!(v.is_multiple_of(2) && (2..20).contains(&v));
        }
    }
}
