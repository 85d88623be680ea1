//! Property tests for the partition scheme behind the similarity join
//! (`simsearch_core::join`) and the sorted view's segment postings:
//! PASS-JOIN's even k+1 split.
//!
//! The partitioner's contract is purely structural — segments tile the
//! string — plus the shape the filter stack relies on: even splits
//! differ in length by at most one.

use simsearch_core::even_partitions;
use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config};

/// Segments must tile `[0, len)`: contiguous, in order, covering.
fn assert_tiles(parts: &[(usize, usize)], len: usize) -> Result<(), String> {
    let mut cursor = 0usize;
    for &(start, seg_len) in parts {
        prop_assert_eq!(start, cursor, "segments are contiguous and in order");
        cursor += seg_len;
    }
    prop_assert_eq!(cursor, len, "segments cover the whole string");
    Ok(())
}

#[test]
fn even_partitions_split_into_k_plus_one_near_equal_parts() {
    check(
        "even_partitions_shape",
        Config::cases(512).seed(0x9A55_0001),
        &gen::zip(gen::usize_in(0..200), gen::u32_in(0..12)),
        |&(len, k)| {
            let parts = even_partitions(len, k);
            let m = k as usize + 1;
            prop_assert_eq!(parts.len(), m, "exactly k+1 segments");
            assert_tiles(&parts, len)?;
            // Near-equal: every segment is ⌊len/m⌋ or ⌈len/m⌉ long, and
            // the floor-sized ones come first (the probe's offset
            // arithmetic assumes this layout).
            let (floor, ceil) = (len / m, len.div_ceil(m));
            for &(_, seg_len) in &parts {
                prop_assert!(
                    seg_len == floor || seg_len == ceil,
                    "segment length {seg_len} outside {{{floor}, {ceil}}} for len={len} k={k}"
                );
            }
            let first_ceil = parts.iter().position(|&(_, l)| l == ceil);
            if let Some(i) = first_ceil {
                prop_assert!(
                    parts[i..].iter().all(|&(_, l)| l == ceil),
                    "floor-sized segments precede ceil-sized ones"
                );
            }
            Ok(())
        },
    );
}
