//! Property-based tests for every distance kernel: agreement with the
//! full-matrix oracle, the metric axioms of the edit distance, and the
//! 1,000-triple cross-kernel oracle over both alphabets.

use simsearch_data::generate::edits::apply_random_edits;
use simsearch_distance::{
    banded::ed_within_banded,
    early_abort::ed_within_early_abort,
    full::{levenshtein, levenshtein_naive_alloc},
    incremental::IncrementalDp,
    myers_block::{MyersAny, MyersBlock},
    myers_stack::MyersStackKernel,
};
use simsearch_testkit::{
    assert_all_kernels_agree, check, gen, prop_assert, prop_assert_eq, Config, Gen,
};

/// Short strings over a small alphabet: maximizes collision-rich cases.
fn small_string() -> Gen<Vec<u8>> {
    gen::bytes_from(b"abAB", 0..12)
}

/// Arbitrary-byte strings of moderate length.
fn byte_string() -> Gen<Vec<u8>> {
    gen::bytes_any(0..40)
}

/// DNA strings long enough to cross the 64-byte Myers block boundary.
fn dna_string() -> Gen<Vec<u8>> {
    gen::dna_string(0..150)
}

#[test]
fn naive_alloc_equals_full() {
    check(
        "naive_alloc_equals_full",
        Config::default(),
        &gen::zip(small_string(), small_string()),
        |(x, y)| {
            prop_assert_eq!(levenshtein_naive_alloc(x, y), levenshtein(x, y));
            Ok(())
        },
    );
}

#[test]
fn early_abort_equals_full() {
    check(
        "early_abort_equals_full",
        Config::default(),
        &gen::zip3(small_string(), small_string(), gen::u32_in(0..6)),
        |(x, y, k)| {
            let truth = levenshtein(x, y);
            let want = (truth <= *k).then_some(truth);
            prop_assert_eq!(ed_within_early_abort(x, y, *k), want);
            Ok(())
        },
    );
}

#[test]
fn banded_equals_full() {
    check(
        "banded_equals_full",
        Config::default(),
        &gen::zip3(byte_string(), byte_string(), gen::u32_in(0..10)),
        |(x, y, k)| {
            let truth = levenshtein(x, y);
            let want = (truth <= *k).then_some(truth);
            prop_assert_eq!(ed_within_banded(x, y, *k), want);
            Ok(())
        },
    );
}

#[test]
fn myers_equals_full() {
    check(
        "myers_equals_full",
        Config::default(),
        &gen::zip(dna_string(), dna_string()),
        |(x, y)| {
            if let Some(m) = MyersAny::new(x) {
                prop_assert_eq!(m.distance(y), levenshtein(x, y));
            } else {
                prop_assert!(x.is_empty());
            }
            Ok(())
        },
    );
}

#[test]
fn myers_within_equals_full() {
    check(
        "myers_within_equals_full",
        Config::default(),
        &gen::zip3(dna_string(), dna_string(), gen::u32_in(0..20)),
        |(x, y, k)| {
            if let Some(m) = MyersAny::new(x) {
                let truth = levenshtein(x, y);
                let want = (truth <= *k).then_some(truth);
                prop_assert_eq!(m.within(y, *k), want);
            }
            Ok(())
        },
    );
}

// ---- cross-kernel oracle (satellite 1) ----
//
// Every kernel in the workspace — full, banded, early_abort, myers,
// myers_block — must agree on 1,000 seeded random
// (query, candidate, k) triples per alphabet. Bounded variants are held
// to their ≤k contract against the full-matrix truth.

#[test]
fn cross_kernel_oracle_city() {
    check(
        "cross_kernel_oracle_city",
        Config::cases(1_000).seed(0xC17E_0AC1),
        &gen::zip3(
            gen::city_string(0..40),
            gen::city_string(0..40),
            gen::u32_in(0..8),
        ),
        |(q, c, k)| assert_all_kernels_agree(q, c, *k),
    );
}

#[test]
fn cross_kernel_oracle_dna() {
    // Lengths up to 150 exercise MyersBlock's multi-word path.
    check(
        "cross_kernel_oracle_dna",
        Config::cases(1_000).seed(0xD2A_0AC1),
        &gen::zip3(dna_string(), dna_string(), gen::u32_in(0..20)),
        |(q, c, k)| assert_all_kernels_agree(q, c, *k),
    );
}

#[test]
fn cross_kernel_oracle_mutated_pairs() {
    // Near-miss pairs: the candidate is the query perturbed by at most
    // `budget` edits, so the k decision boundary is hit constantly.
    check(
        "cross_kernel_oracle_mutated_pairs",
        Config::cases(1_000).seed(0x0E17_0AC1),
        &gen::zip(
            gen::mutated(gen::dna_string(1..100), 0..6, gen::DNA),
            gen::u32_in(0..6),
        ),
        |((q, c, _budget), k)| assert_all_kernels_agree(q, c, *k),
    );
}

// ---- block-resume correctness (rung V8) ----
//
// The resumable bit-parallel stack kernel, resumed at the LCP floor
// between candidates that share a random prefix, must answer exactly
// like a fresh `MyersBlock::within` — on both workload alphabets.

fn myers_stack_resume_oracle(
    query: &[u8],
    prefix: &[u8],
    s1: &[u8],
    s2: &[u8],
    k: u32,
) -> simsearch_testkit::TestResult {
    let mut c1 = prefix.to_vec();
    c1.extend_from_slice(s1);
    let mut c2 = prefix.to_vec();
    c2.extend_from_slice(s2);
    let shared = common_prefix(&c1, &c2);
    let mut dp = MyersStackKernel::new(query, k);
    if query.is_empty() {
        // No bit-parallel form to compare against; hold the kernel to
        // the degenerate truth (distance = candidate length) instead.
        for c in [&c1, &c2] {
            let truth = c.len() as u32;
            prop_assert_eq!(dp.resume(c, 0), (truth <= k).then_some(truth));
        }
        return Ok(());
    }
    let fresh = MyersBlock::new(query).expect("non-empty");
    prop_assert_eq!(dp.resume(&c1, 0), fresh.within(&c1, k), "first candidate");
    prop_assert_eq!(
        dp.resume(&c2, shared),
        fresh.within(&c2, k),
        "resumed at the LCP floor"
    );
    // A third pass over c1 resumed at the same floor (the stack now
    // holds c2's column) must still agree.
    prop_assert_eq!(dp.resume(&c1, shared), fresh.within(&c1, k), "back to c1");
    Ok(())
}

#[test]
fn myers_stack_resume_equals_fresh_within_city() {
    check(
        "myers_stack_resume_equals_fresh_within_city",
        Config::cases(400).seed(0xC17E_57AC),
        &gen::zip3(
            gen::zip(gen::city_string(0..30), gen::city_string(0..20)),
            gen::zip(gen::city_string(0..15), gen::city_string(0..15)),
            gen::u32_in(0..8),
        ),
        |((q, prefix), (s1, s2), k)| myers_stack_resume_oracle(q, prefix, s1, s2, *k),
    );
}

#[test]
fn myers_stack_resume_equals_fresh_within_dna() {
    // Queries and shared prefixes long enough to cross the 64-byte
    // block boundary, so the resume truncates multi-word checkpoints.
    check(
        "myers_stack_resume_equals_fresh_within_dna",
        Config::cases(400).seed(0xD7A_57AC),
        &gen::zip3(
            gen::zip(gen::dna_string(0..150), gen::dna_string(0..100)),
            gen::zip(gen::dna_string(0..60), gen::dna_string(0..60)),
            gen::u32_in(0..20),
        ),
        |((q, prefix), (s1, s2), k)| myers_stack_resume_oracle(q, prefix, s1, s2, *k),
    );
}

// ---- sorted-stream correctness (rung V8's abort rule and band) ----
//
// The stack kernel is driven the way a sorted-arena sweep drives it —
// true LCPs, with and without the next-record lookahead, with and
// without a length filter in front — and every answer is held to the
// full matrix. Candidate lengths are *not* pre-filtered, so `|Δ| > k`,
// `Δ < 0` and `Δ > 0` all reach the kernel.

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn sorted_stream_oracle(
    query: &[u8],
    candidates: &[Vec<u8>],
    k: u32,
) -> simsearch_testkit::TestResult {
    let mut sorted = candidates.to_vec();
    sorted.sort();
    let mut full = MyersStackKernel::new(query, k);
    let mut bounded = MyersStackKernel::new(query, k);
    // Behind a length filter, as `v8_scan_view_range` runs it: skipped
    // records still cap what the next processed one may adopt.
    let mut filtered = MyersStackKernel::new(query, k);
    let mut filtered_lcp = 0;
    for (i, c) in sorted.iter().enumerate() {
        let lcp = if i == 0 {
            0
        } else {
            common_prefix(&sorted[i - 1], c)
        };
        let limit = sorted.get(i + 1).map_or(0, |next| common_prefix(c, next));
        let truth = levenshtein(query, c);
        let want = (truth <= k).then_some(truth);
        prop_assert_eq!(full.resume(c, lcp), want, "resume, candidate {i}");
        prop_assert_eq!(
            bounded.resume_bounded(c, lcp, limit),
            want,
            "resume_bounded, candidate {i}"
        );
        prop_assert!(bounded.depth() <= limit.max(lcp), "candidate {i}");
        filtered_lcp = if i == 0 { 0 } else { lcp.min(filtered_lcp) };
        if c.len().abs_diff(query.len()) <= k as usize {
            prop_assert_eq!(
                filtered.resume_bounded(c, filtered_lcp, limit),
                want,
                "behind the length filter, candidate {i}"
            );
            filtered_lcp = usize::MAX;
        }
    }
    // The band skips whole blocks, never adds work.
    prop_assert!(
        full.words_advanced() * query.len() as u64 <= full.cells_computed() * full.blocks() as u64
    );
    Ok(())
}

/// `(query, candidates, k)`: a query whose length sits on or next to a
/// block seam, and candidates that share prefixes with it and with each
/// other — edited copies, cuts, overlong extensions, spliced tails —
/// beside unrelated strings.
fn sorted_stream_case(alphabet: &'static [u8]) -> Gen<(Vec<u8>, Vec<Vec<u8>>, u32)> {
    let alpha = simsearch_data::Alphabet::new(alphabet);
    Gen::new(move |rng| {
        let (lo, hi) = *rng.choose(&[(1, 3), (63, 65), (98, 102), (127, 129), (198, 202)]);
        let qlen = rng.range_inclusive(lo, hi) as usize;
        let query: Vec<u8> = (0..qlen).map(|_| *rng.choose(alphabet)).collect();
        let k = *rng.choose(&[0u32, 1, 4, 16, 33, 70]);
        let mut candidates = Vec::new();
        for _ in 0..rng.range_inclusive(1, 12) {
            // Around the threshold, so the decision boundary is hit.
            let edits = rng.index(k as usize + 4);
            let mut c = apply_random_edits(rng, &query, edits, &alpha);
            match rng.index(7) {
                0 => c.truncate(rng.index(c.len() + 1)),
                1 => c.extend((0..rng.index(k as usize + 3)).map(|_| *rng.choose(alphabet))),
                2 => {
                    let cut = rng.index(c.len() + 1);
                    c.truncate(cut);
                    c.extend((0..qlen.saturating_sub(cut)).map(|_| *rng.choose(alphabet)));
                }
                3 => {
                    c = (0..rng.index(2 * qlen + 2))
                        .map(|_| *rng.choose(alphabet))
                        .collect()
                }
                // About k bytes dropped from, or slipped into, one spot of
                // the query itself: |Δ| ≈ k, so the decisive diagonal runs
                // along the edge of the band.
                4 => {
                    c = query.clone();
                    let at = rng.index(qlen);
                    c.drain(at..qlen.min(at + (k as usize + 1).saturating_sub(rng.index(3))));
                }
                5 => {
                    c = query.clone();
                    let at = rng.index(qlen + 1);
                    let extra = (k as usize + 1).saturating_sub(rng.index(3));
                    c.splice(at..at, (0..extra).map(|_| *rng.choose(alphabet)));
                }
                _ => {}
            }
            candidates.push(c);
        }
        (query, candidates, k)
    })
}

#[test]
fn myers_stack_sorted_stream_equals_full_dna() {
    check(
        "myers_stack_sorted_stream_equals_full_dna",
        Config::cases(600).seed(0xD1A6_0D7A),
        &sorted_stream_case(gen::DNA),
        |(q, candidates, k)| sorted_stream_oracle(q, candidates, *k),
    );
}

#[test]
fn myers_stack_sorted_stream_equals_full_city() {
    check(
        "myers_stack_sorted_stream_equals_full_city",
        Config::cases(600).seed(0xD1A6_C17E),
        &sorted_stream_case(gen::CITY),
        |(q, candidates, k)| sorted_stream_oracle(q, candidates, *k),
    );
}

/// A fixed, period-free DNA string for the hand-built streams below.
fn dna_of(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| b"ACGT"[(i * i + 3 * i + salt * (i / 7)) % 4])
        .collect()
}

#[test]
fn myers_stack_empty_candidate_in_a_stream() {
    let q = dna_of(70, 1);
    for k in [0, 4, 69, 70, 100] {
        // First in sorted order, and again after the stack has grown.
        let stream = vec![Vec::new(), q.clone(), q[..66].to_vec(), Vec::new()];
        sorted_stream_oracle(&q, &stream, k).unwrap();
        let mut dp = MyersStackKernel::new(&q, k);
        dp.resume(&q, 0);
        assert_eq!(dp.resume(b"", 5), (k >= 70).then_some(70), "k={k}");
        assert_eq!(dp.depth(), 0);
    }
}

#[test]
fn myers_stack_candidate_shorter_than_surviving_depth() {
    // The full read survives to depth 100 over two blocks; its own
    // prefixes then pop the stack to their length and are answered
    // from the checkpointed column alone.
    let q = dna_of(100, 2);
    let mut dp = MyersStackKernel::new(&q, 16);
    assert_eq!(dp.resume(&q, 0), Some(0));
    assert_eq!(dp.depth(), 100);
    let words = dp.words_advanced();
    assert_eq!(dp.resume(&q[..90], 90), Some(10));
    assert_eq!(dp.resume(&q[..84], 84), Some(16));
    assert_eq!(dp.resume(&q[..83], 83), None);
    assert_eq!((dp.depth(), dp.words_advanced()), (83, words));
    // A longer sibling resumes from what survived.
    let mut sibling = q[..83].to_vec();
    sibling.extend_from_slice(b"TTTT");
    let truth = levenshtein(&q, &sibling);
    assert_eq!(dp.resume(&sibling, 83), (truth <= 16).then_some(truth));
}

#[test]
fn myers_stack_block_activated_after_a_resume() {
    // The byte at position 64 − k is the first to touch block 1. Two
    // candidates part ways one byte before, at, and one byte after that
    // column, so the second one's resume adopts a checkpoint in which
    // block 1 is still the initial column (or has just left it).
    for qlen in [100usize, 130] {
        let base = dna_of(qlen, 3);
        for k in [1usize, 4, 16, 33] {
            for split in [63 - k, 64 - k, 65 - k] {
                let mut query = base.clone();
                query[split / 2] = b'N';
                query.remove(qlen - 5);
                let mut first = base.clone();
                first[split] = b'N';
                let mut second = base.clone();
                second[split] = b'T';
                second[split + 3] = b'N';
                second.insert(qlen - 9, b'N');
                assert_eq!(common_prefix(&first, &second), split);
                // k bytes slipped in at the front put the decisive
                // diagonal on the band's lower edge all the way down.
                let mut edge_query = vec![b'N'; k];
                edge_query.extend_from_slice(&base);
                assert_eq!(levenshtein(&edge_query, &base), k as u32);
                let stream = [base.clone(), first, second];
                for q in [&query, &edge_query] {
                    sorted_stream_oracle(q, &stream, k as u32)
                        .unwrap_or_else(|e| panic!("qlen {qlen} k {k} split {split}: {e}"));
                }
            }
        }
    }
}

#[test]
fn incremental_fully_pushed_equals_full() {
    check(
        "incremental_fully_pushed_equals_full",
        Config::default(),
        &gen::zip3(small_string(), small_string(), gen::u32_in(0..6)),
        |(x, y, k)| {
            let mut dp = IncrementalDp::new(x, *k);
            for &c in y {
                dp.push(c);
            }
            let truth = levenshtein(x, y);
            let want = (truth <= *k).then_some(truth);
            prop_assert_eq!(dp.distance(), want);
            Ok(())
        },
    );
}

#[test]
fn incremental_prune_is_sound() {
    check(
        "incremental_prune_is_sound",
        Config::default(),
        &gen::zip3(small_string(), small_string(), gen::u32_in(0..4)),
        |(x, y, k)| {
            // If the prune fires at any prefix of y, then no extension of
            // that prefix — in particular y itself — may be within k.
            let mut dp = IncrementalDp::new(x, *k);
            let mut pruned = false;
            for &c in y {
                dp.push(c);
                if !dp.can_extend() {
                    pruned = true;
                    break;
                }
            }
            if pruned {
                prop_assert!(levenshtein(x, y) > *k);
            }
            Ok(())
        },
    );
}

// ---- metric axioms ----

#[test]
fn symmetry() {
    check(
        "symmetry",
        Config::default(),
        &gen::zip(byte_string(), byte_string()),
        |(x, y)| {
            prop_assert_eq!(levenshtein(x, y), levenshtein(y, x));
            Ok(())
        },
    );
}

#[test]
fn identity() {
    check("identity", Config::default(), &byte_string(), |x| {
        prop_assert_eq!(levenshtein(x, x), 0);
        Ok(())
    });
}

#[test]
fn positivity() {
    check(
        "positivity",
        Config::default(),
        &gen::zip(byte_string(), byte_string()),
        |(x, y)| {
            if x != y {
                prop_assert!(levenshtein(x, y) > 0);
            }
            Ok(())
        },
    );
}

#[test]
fn triangle_inequality() {
    check(
        "triangle_inequality",
        Config::default(),
        &gen::zip3(small_string(), small_string(), small_string()),
        |(x, y, z)| {
            prop_assert!(levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z));
            Ok(())
        },
    );
}

#[test]
fn length_difference_is_lower_bound() {
    check(
        "length_difference_is_lower_bound",
        Config::default(),
        &gen::zip(byte_string(), byte_string()),
        |(x, y)| {
            prop_assert!(levenshtein(x, y) >= x.len().abs_diff(y.len()) as u32);
            Ok(())
        },
    );
}

#[test]
fn max_length_is_upper_bound() {
    check(
        "max_length_is_upper_bound",
        Config::default(),
        &gen::zip(byte_string(), byte_string()),
        |(x, y)| {
            prop_assert!(levenshtein(x, y) <= x.len().max(y.len()) as u32);
            Ok(())
        },
    );
}

#[test]
fn single_edit_distance_is_at_most_one() {
    check(
        "single_edit_distance_is_at_most_one",
        Config::default(),
        &gen::zip3(byte_string(), gen::u64_any(), gen::byte_any()),
        |(x, pos, b)| {
            let mut y = x.clone();
            if y.is_empty() {
                y.push(*b);
            } else {
                let p = (*pos as usize) % y.len();
                y[p] = *b;
            }
            prop_assert!(levenshtein(x, &y) <= 1);
            Ok(())
        },
    );
}
