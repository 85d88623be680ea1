//! Q-gram profiles.
//!
//! A classical companion to the techniques in the paper's related work:
//! one edit operation destroys at most `q` of a string's overlapping
//! q-grams, so if `ed(x, y) ≤ k` then the multiset of q-grams shared by
//! `x` and `y` has size at least `(|x| − q + 1) − k·q`. The q-gram index
//! baseline counts shared grams through its postings; this module holds
//! the profile both sides of that count are built from: a q-gram of up
//! to 8 bytes packs into a `u64`, and a profile is the *sorted* list of
//! a string's codes.

/// Packs each overlapping window of `q` bytes into a big-endian `u64`
/// code and sorts the result (multiset semantics).
pub fn collect_profile(s: &[u8], q: usize, out: &mut Vec<u64>) {
    out.clear();
    if s.len() < q {
        return;
    }
    for w in s.windows(q) {
        let mut code = 0u64;
        for &b in w {
            code = (code << 8) | b as u64;
        }
        out.push(code);
    }
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_sorted_multiset() {
        let mut p = Vec::new();
        collect_profile(b"ABAB", 2, &mut p);
        // Grams: AB, BA, AB -> sorted [AB, AB, BA].
        assert_eq!(p.len(), 3);
        assert!(p.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p[0], p[1]);
        // A string shorter than q has no grams, and `out` is reset.
        collect_profile(b"xy", 3, &mut p);
        assert!(p.is_empty());
    }
}
