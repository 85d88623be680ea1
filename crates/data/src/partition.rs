//! The even-partition scheme of PASS-JOIN: a string of length `len`
//! split into exactly `k + 1` contiguous segments whose lengths differ
//! by at most one. The first segments take the floor length and the
//! last `len mod (k + 1)` take the ceiling, so the split is a pure
//! function of `(len, k)` — both sides of a join, and a sorted view's
//! segment postings and the query probing them, derive identical
//! segment positions without coordination. Zero-length segments are
//! legal (they appear when `len ≤ k`).

/// `(start, len)` of segment `ordinal` (`0..=k`) of the even partition
/// of a string of length `len` into `k + 1` segments — no allocation,
/// for loops that walk ordinals.
///
/// # Examples
///
/// ```
/// use simsearch_data::even_partition;
///
/// // Ten bytes in three parts: 3 + 3 + 4.
/// assert_eq!(even_partition(10, 2, 0), (0, 3));
/// assert_eq!(even_partition(10, 2, 2), (6, 4));
/// ```
#[inline]
pub fn even_partition(len: usize, k: u32, ordinal: usize) -> (usize, usize) {
    let parts = k as usize + 1;
    debug_assert!(ordinal < parts, "ordinal {ordinal} of {parts} segments");
    let (base, longer) = (len / parts, len % parts);
    // Ordinals from `parts - longer` on are one byte longer each.
    let stretched = ordinal.saturating_sub(parts - longer);
    let seg = base + usize::from(ordinal >= parts - longer);
    (ordinal * base + stretched, seg)
}

/// Every segment of the even partition, in order: `(start, len)` per
/// segment.
pub fn even_partitions(len: usize, k: u32) -> Vec<(usize, usize)> {
    (0..=k as usize)
        .map(|ordinal| even_partition(len, k, ordinal))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partitions_tile_the_string() {
        for len in 0..40 {
            for k in 0..6 {
                let parts = even_partitions(len, k);
                assert_eq!(parts.len(), k as usize + 1);
                let mut cursor = 0;
                for (start, seg) in &parts {
                    assert_eq!(*start, cursor);
                    cursor += seg;
                }
                assert_eq!(cursor, len);
                let floor = len / (k as usize + 1);
                assert!(parts.iter().all(|&(_, s)| s == floor || s == floor + 1));
            }
        }
    }
}
