//! Property tests for [`SortedView`]: the permutation is a bijection,
//! the LCP array is exact, and id translation round-trips — the
//! invariants the V7 sorted-prefix scan's correctness rests on — a view
//! built from records in any order, or from two views chained, sweeps
//! like a fresh build over the same records, and
//! candidate selection is sound: no record within `k` of the query is
//! filtered out, whatever the alphabet, the range or the threshold —
//! by the occupancy planes and the bigram column over a large alphabet,
//! by the segment postings over a tiny one, by the equal range at
//! `k = 0`.

use simsearch_data::generate::apply_random_edits;
use simsearch_data::sorted::{bigram_set, occupancy_set};
use simsearch_data::{Alphabet, Dataset, SortedView};
use simsearch_distance::levenshtein;
use simsearch_testkit::{
    check, gen, prop_assert, prop_assert_eq, Config, Gen, TestResult, Xoshiro256,
};
use std::ops::Range;

const SEED: u64 = 0x0050_47ED;

fn corpus() -> Gen<Vec<Vec<u8>>> {
    // Duplicates, empty strings and shared prefixes are all likely.
    gen::vec_of(gen::bytes_from(b"abAB\xC3", 0..12), 0..40)
}

#[test]
fn permutation_is_a_bijection() {
    check(
        "permutation_is_a_bijection",
        Config::default().seed(SEED),
        &corpus(),
        |words| {
            let ds = Dataset::from_records(words);
            let sv = SortedView::build(&ds);
            prop_assert_eq!(sv.len(), ds.len());
            let mut seen: Vec<u32> = sv.permutation().to_vec();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..ds.len() as u32).collect::<Vec<_>>());
            Ok(())
        },
    );
}

#[test]
fn view_is_sorted_and_lcp_is_exact() {
    check(
        "view_is_sorted_and_lcp_is_exact",
        Config::default().seed(SEED),
        &corpus(),
        |words| {
            let ds = Dataset::from_records(words);
            let sv = SortedView::build(&ds);
            if !sv.is_empty() {
                prop_assert_eq!(sv.lcp(0), 0);
            }
            for pos in 1..sv.len() {
                let (a, b) = (sv.get(pos - 1), sv.get(pos));
                prop_assert!(
                    (a.len(), a) <= (b.len(), b),
                    "records out of order at {}",
                    pos
                );
                let true_lcp = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                prop_assert_eq!(sv.lcp(pos), true_lcp, "lcp wrong at {}", pos);
                // The LCP never exceeds either neighbour's length.
                prop_assert!(sv.lcp(pos) <= sv.record_len(pos - 1).min(sv.record_len(pos)));
            }
            Ok(())
        },
    );
}

#[test]
fn id_translation_round_trips() {
    check(
        "id_translation_round_trips",
        Config::default().seed(SEED),
        &corpus(),
        |words| {
            let ds = Dataset::from_records(words);
            let sv = SortedView::build(&ds);
            for pos in 0..sv.len() {
                // Sorted bytes equal the insertion-order record they map to.
                prop_assert_eq!(sv.get(pos), ds.get(sv.original_id(pos)));
                prop_assert_eq!(sv.record_len(pos), ds.record_len(sv.original_id(pos)));
            }
            // And the inverse direction: every insertion id appears at the
            // position holding its bytes.
            let mut inverse = vec![usize::MAX; ds.len()];
            for pos in 0..sv.len() {
                inverse[sv.original_id(pos) as usize] = pos;
            }
            for (id, record) in ds.iter() {
                prop_assert_eq!(sv.get(inverse[id as usize]), record);
            }
            Ok(())
        },
    );
}

/// Checks that `got` sweeps exactly like `want`: the same records in the
/// same order, the same `lcp` column and the same `(pos, shared)` visits
/// for every query at `k` from 0 to 3. The ids are the caller's to
/// compare.
fn sweeps_alike(got: &SortedView, want: &SortedView, queries: &[&[u8]]) -> TestResult {
    prop_assert_eq!(got.len(), want.len());
    for pos in 0..want.len() {
        let at = |sv: &SortedView| (sv.get(pos).to_vec(), sv.lcp(pos), sv.record_len(pos));
        prop_assert_eq!(at(got), at(want), "pos {}", pos);
    }
    let visits = |sv: &SortedView, query: &[u8], k: u32| {
        let mut visits = Vec::new();
        sv.for_each_candidate(query, k, 0..sv.len(), |pos, shared| {
            visits.push((pos, shared))
        });
        visits
    };
    for (query, k) in queries.iter().flat_map(|&q| (0..=3).map(move |k| (q, k))) {
        prop_assert_eq!(visits(got, query, k), visits(want, query, k), "k = {}", k);
    }
    Ok(())
}

#[test]
fn from_records_is_build_in_any_order_and_over_any_merge() {
    check(
        "from_records_is_build_in_any_order_and_over_any_merge",
        Config::cases(120).seed(SEED),
        // Names, which carry the occupancy planes, or DNA reads, which
        // carry the segment postings once one is long enough to cut.
        &gen::zip(
            gen::one_of(vec![
                gen::vec_of(gen::bytes_from(gen::NAMES, 0..12), 0..60),
                gen::vec_of(gen::dna_string(0..40), 0..60),
            ]),
            gen::u64_any(),
        ),
        |(words, seed)| {
            let mut rng = Xoshiro256::seed_from_u64(*seed);
            // Every other word twice: duplicates, which the split below
            // puts into both inputs as often as not.
            let mut records: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
            records.extend(words.iter().step_by(2).map(Vec::as_slice));
            let ds = Dataset::from_records(&records);
            let built = SortedView::build(&ds);
            let mut queries: Vec<&[u8]> = records.iter().take(3).copied().collect();
            queries.extend([&b""[..], b"aB"]);

            // Any input order.
            let mut pairs: Vec<(u32, &[u8])> = ds.iter().collect();
            rng.shuffle(&mut pairs);
            let shuffled = SortedView::from_records(pairs);
            prop_assert_eq!(shuffled.permutation(), built.permutation());
            sweeps_alike(&shuffled, &built, &queries)?;

            // Two views under sparse ids — either may be empty — chained,
            // minus none, some or all of the ids.
            let pairs: Vec<(u32, &[u8])> = ds.iter().map(|(id, r)| (3 * id + 7, r)).collect();
            let (into_a, dropped) = (rng.index(5), [0, 1, 3][rng.index(3)]);
            let (a, b): (Vec<_>, Vec<_>) = pairs.iter().partition(|_| rng.index(4) < into_a);
            let (a, b) = (SortedView::from_records(a), SortedView::from_records(b));
            let gone: Vec<u32> = pairs
                .iter()
                .map(|p| p.0)
                .filter(|_| rng.index(3) < dropped)
                .collect();
            let kept = |&(id, _): &(u32, &[u8])| gone.binary_search(&id).is_err();
            let merged = SortedView::from_records(a.iter().chain(b.iter()).filter(kept));
            let survivors: Vec<(u32, &[u8])> = pairs.into_iter().filter(kept).collect();
            let rebuilt = SortedView::build(&Dataset::from_records(survivors.iter().map(|p| p.1)));
            let ids: Vec<u32> = rebuilt
                .permutation()
                .iter()
                .map(|&i| survivors[i as usize].0)
                .collect();
            prop_assert_eq!(merged.permutation(), &ids[..]);
            sweeps_alike(&merged, &rebuilt, &queries)
        },
    );
}

/// The thresholds every candidate property runs at: the served ones, one
/// past a short query's bucket count, the counter's last width (63) and
/// the first ones past it.
const THRESHOLDS: [u32; 9] = [0, 1, 2, 3, 5, 16, 63, 64, 70];

/// Runs candidate selection over `range` and checks everything a sweep
/// relies on: positions strictly ascending and inside the range, `shared`
/// the exact common prefix with the previous candidate (between records
/// of one length, the minimum of `lcp` over the gap), and no record
/// within `k` of `query` left out.
fn check_candidates(sv: &SortedView, query: &[u8], k: u32, range: Range<usize>) -> TestResult {
    let mut visited: Vec<(usize, usize)> = Vec::new();
    sv.for_each_candidate(query, k, range.clone(), |pos, shared| {
        visited.push((pos, shared))
    });
    let mut last: Option<usize> = None;
    for &(pos, shared) in &visited {
        prop_assert!(range.contains(&pos), "{} outside {:?}", pos, range);
        let expected = match last {
            None => 0,
            Some(prev) => {
                prop_assert!(prev < pos, "{} visited after {}", pos, prev);
                let (a, b) = (sv.get(prev), sv.get(pos));
                let exact = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                if a.len() == b.len() {
                    prop_assert_eq!((prev + 1..=pos).map(|p| sv.lcp(p)).min(), Some(exact));
                }
                exact
            }
        };
        prop_assert_eq!(shared, expected, "resume depth at {} after {:?}", pos, last);
        last = Some(pos);
    }
    for pos in range {
        if levenshtein(query, sv.get(pos)) <= k {
            prop_assert!(
                visited.iter().any(|&(p, _)| p == pos),
                "{:?} is within {} of {:?} but was filtered out",
                sv.get(pos),
                k,
                query
            );
        }
    }
    Ok(())
}

/// `(corpus, (a record, the query mutated from it, _))` over one
/// alphabet: short names with a few records of 60–70 and 200 bytes, so
/// the wide thresholds have something to admit.
#[allow(clippy::type_complexity)]
fn sweep_case(alphabet: &'static [u8]) -> Gen<(Vec<Vec<u8>>, (Vec<u8>, Vec<u8>, usize))> {
    let word = gen::weighted(vec![
        (12, gen::bytes_from(alphabet, 0..14)),
        (2, gen::bytes_from(alphabet, 60..70)),
        (1, gen::bytes_from(alphabet, 200..201)),
    ]);
    gen::zip(
        gen::vec_of(word.clone(), 0..140),
        gen::mutated(word, 0..4, alphabet),
    )
}

fn candidates_are_sound_over(name: &str, alphabet: &'static [u8]) {
    check(
        name,
        Config::cases(60).seed(SEED),
        &sweep_case(alphabet),
        |(words, (source, query, _))| {
            // View sizes on both sides of a 64-position word seam.
            for size in [0, 1, 63, 64, 65, 129, words.len() + 1] {
                let mut records: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
                records.truncate(size.saturating_sub(1));
                if size > 0 {
                    records.push(source);
                }
                let sv = SortedView::build(&Dataset::from_records(&records));
                let n = sv.len();
                for k in THRESHOLDS {
                    check_candidates(&sv, query, k, 0..n)?;
                    // Range starts and ends inside a word.
                    check_candidates(&sv, query, k, n / 3..n - n / 4)?;
                    check_candidates(&sv, query, k, n.min(61)..n.min(67))?;
                }
                check_candidates(&sv, b"", 1, 0..n)?;
                check_candidates(&sv, &source[..source.len().min(1)], 2, 0..n)?;
            }
            Ok(())
        },
    );
}

#[test]
fn candidates_are_sound_on_dna() {
    candidates_are_sound_over("candidates_are_sound_on_dna", gen::DNA);
}

#[test]
fn candidates_are_sound_on_city_names() {
    candidates_are_sound_over("candidates_are_sound_on_city_names", gen::NAMES);
}

#[test]
fn candidates_are_sound_on_200_symbols() {
    candidates_are_sound_over("candidates_are_sound_on_200_symbols", &gen::WIDE);
}

#[test]
fn bytes_sharing_a_bucket_never_cost_a_match() {
    // `A` and `c` hash to one bucket, as do `C` and `e`: the signature
    // cannot tell "AAAA" from "cccc", which may cost the filter a
    // rejection but never a match. The other symbols give the view enough
    // buckets to carry a signature at all.
    let ds = Dataset::from_records([
        "AAAA", "cccc", "AcAc", "CeCe", "eeee", "CCCC", "AAAe", "bdfghijk", "lmnoprst",
    ]);
    let sv = SortedView::build(&ds);
    sv.prepare_signature();
    assert!(sv.signature_bytes() > 0);
    for query in ["AAAA", "cccc", "cAcA", "eCeC", "AAAC", ""] {
        for k in 0..6 {
            check_candidates(&sv, query.as_bytes(), k, 0..sv.len()).unwrap();
        }
    }
    // At k = 0 the equal range answers before the signature is asked:
    // the colliding records (same buckets, same length) would survive
    // the planes, and are not visited.
    let mut visited = Vec::new();
    sv.for_each_candidate(b"AAAA", 0, 0..sv.len(), |pos, _| visited.push(sv.get(pos)));
    assert_eq!(visited, [b"AAAA"]);
}

#[test]
fn resume_depth_is_exact_on_both_sides_of_the_gap_switch() {
    // Three candidates for "xyzxyz1" at k = 1, separated by 7 and then
    // by 8 filtered-out records of the same length (gaps of 8 and 9
    // positions): the first gap folds the `lcp` column, the second
    // compares the two records. Every filler lacks the query's "1" and
    // holds four bytes it does not.
    let mut records: Vec<String> = vec!["xyzAyz1".into(), "xyzxyz1".into(), "xyzzyz1".into()];
    records.extend((0..7).map(|i| format!("xyzBQR{i}")));
    records.extend((0..8).map(|i| format!("xyzyQR{i}")));
    let sv = SortedView::build(&Dataset::from_records(&records));
    let mut visited = Vec::new();
    sv.for_each_candidate(b"xyzxyz1", 1, 0..sv.len(), |pos, shared| {
        visited.push((pos, shared))
    });
    assert!(records.iter().all(|r| r.len() == 7), "one length");
    assert_eq!(visited, [(0, 0), (8, 3), (17, 3)]);
    assert_eq!(sv.get(8), b"xyzxyz1");
    check_candidates(&sv, b"xyzxyz1", 1, 0..sv.len()).unwrap();
}

#[test]
fn resume_depth_is_exact_across_a_length_boundary() {
    // "abc" and "abcd" are consecutive candidates for "abcd" at k = 1 on
    // either side of the length boundary, with "abz" filtered out between
    // them. `lcp` falls to 2 on both sides of "abz", but the two
    // candidates share three bytes: the minimum over the gap would only
    // be a lower bound. The digits, outside the band, give the view its
    // planes.
    let sv = SortedView::build(&Dataset::from_records(["abcd", "abz", "abc", "0123456789"]));
    assert_eq!((sv.get(1), sv.lcp(1), sv.lcp(2)), (&b"abz"[..], 2, 2));
    let mut visited = Vec::new();
    sv.for_each_candidate(b"abcd", 1, 0..sv.len(), |pos, shared| {
        visited.push((pos, shared))
    });
    assert_eq!(visited, [(0, 0), (2, 3)]);
    check_candidates(&sv, b"abcd", 1, 0..sv.len()).unwrap();
}

#[test]
fn the_length_band_is_exactly_the_records_within_k_in_length() {
    check(
        "the_length_band_is_exactly_the_records_within_k_in_length",
        Config::default().seed(SEED),
        &corpus(),
        |words| {
            let sv = SortedView::build(&Dataset::from_records(words));
            let longest = words.iter().map(Vec::len).max().unwrap_or(0);
            for qlen in 0..=longest + 2 {
                for k in THRESHOLDS {
                    let within: Vec<usize> = (0..sv.len())
                        .filter(|&pos| sv.record_len(pos).abs_diff(qlen) <= k as usize)
                        .collect();
                    let band = sv.length_band(qlen, k);
                    prop_assert!(band.start <= band.end && band.end <= sv.len());
                    prop_assert_eq!(
                        band.clone().collect::<Vec<_>>(),
                        within,
                        "|q| = {}, k = {}",
                        qlen,
                        k
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn the_signature_is_built_on_first_use_and_never_over_a_tiny_alphabet() {
    let city = SortedView::build(&Dataset::from_records(
        gen::NAMES.chunks(3).map(<[u8]>::to_vec).collect::<Vec<_>>(),
    ));
    assert_eq!(city.signature_bytes(), 0, "nothing is built with the view");
    city.for_each_candidate(b"abc", 1, 0..city.len(), |_, _| {});
    // One word a plane: 64 buckets, and set sizes 1 to 3; and one pair
    // word a record.
    assert_eq!(city.signature_bytes(), (64 + 3 + city.len()) * 8);
    // Five symbols occupy five buckets: no planes, now or later.
    let dna = SortedView::build(&Dataset::from_records(["ACGT", "NNNN", "ACGN"]));
    dna.prepare_signature();
    dna.for_each_candidate(b"ACGT", 1, 0..dna.len(), |_, _| {});
    assert_eq!(dna.signature_bytes(), 0);
}

/// What a sweep visits with the length filter alone — the parent
/// commit's selection over a view without planes.
fn length_admitted(sv: &SortedView, query: &[u8], k: u32, range: Range<usize>) -> Vec<usize> {
    range
        .filter(|&pos| sv.record_len(pos).abs_diff(query.len()) <= k as usize)
        .collect()
}

fn visited(sv: &SortedView, query: &[u8], k: u32, range: Range<usize>) -> Vec<usize> {
    let mut visited = Vec::new();
    sv.for_each_candidate(query, k, range, |pos, _| visited.push(pos));
    visited
}

/// A random string over `alphabet` of a length in `len`.
fn random_string(rng: &mut Xoshiro256, alphabet: &[u8], len: Range<usize>) -> Vec<u8> {
    let len = len.start + rng.index(len.end - len.start);
    (0..len).map(|_| *rng.choose(alphabet)).collect()
}

/// `(records, queries with thresholds, two range cuts)`: reads of
/// 0..=140 symbols off one 300-symbol genome, so that they overlap as
/// sequencing reads do — with records too short to cut, records of
/// exactly 19 (one-symbol segments), duplicates, empty strings and
/// unrelated strings mixed in — and queries that are a record with at
/// most `k` edits, spread out or in one burst (every edit inside one
/// segment: the case the shift windows are tightest on), or unrelated;
/// `k` from 0 to 20.
#[allow(clippy::type_complexity)]
fn reads_case(alphabet: &'static [u8]) -> Gen<(Vec<Vec<u8>>, Vec<(Vec<u8>, u32)>, (usize, usize))> {
    Gen::new(move |rng| {
        let symbols = Alphabet::new(alphabet);
        let genome = random_string(rng, alphabet, 300..301);
        let mut records: Vec<Vec<u8>> = Vec::new();
        for _ in 0..rng.index(100) {
            let record = match rng.index(10) {
                0 => random_string(rng, alphabet, 0..19),
                1 => random_string(rng, alphabet, 0..141),
                2 if !records.is_empty() => rng.choose(&records).clone(),
                kind => {
                    let len = if kind == 3 { 19 } else { 17 + rng.index(124) };
                    let start = rng.index(genome.len() - len + 1);
                    let errors = rng.index(3);
                    apply_random_edits(rng, &genome[start..start + len], errors, &symbols)
                }
            };
            records.push(record);
        }
        let mut queries = Vec::new();
        for _ in 0..6 {
            let k = rng.index(21);
            let mut query = match records.is_empty() {
                true => Vec::new(),
                false => rng.choose(&records).clone(),
            };
            match rng.index(4) {
                0 => query = random_string(rng, alphabet, 0..141),
                1 => {
                    // A burst: `k` symbols inserted or deleted at one place.
                    let at = rng.index(query.len() + 1);
                    if rng.chance(0.5) {
                        let burst = random_string(rng, alphabet, k..k + 1);
                        query.splice(at..at, burst);
                    } else {
                        query.drain(at..query.len().min(at + k));
                    }
                }
                _ => {
                    let edits = rng.index(k + 1);
                    query = apply_random_edits(rng, &query, edits, &symbols);
                }
            }
            queries.push((query, k as u32));
        }
        (records, queries, (rng.index(101), rng.index(101)))
    })
}

fn segment_postings_are_sound_over(name: &str, alphabet: &'static [u8]) {
    check(
        name,
        Config::cases(48).seed(SEED),
        &reads_case(alphabet),
        |(records, queries, (a, b))| {
            let sv = SortedView::build(&Dataset::from_records(records));
            let n = sv.len();
            let (a, b) = (a % (n + 1), b % (n + 1));
            for (query, k) in queries {
                for range in [0..n, a.min(b)..a.max(b)] {
                    // Soundness, ascending order and exact resume depths.
                    check_candidates(&sv, query, *k, range.clone())?;
                    // Past the postings' threshold: the length filter's
                    // visits, exactly.
                    if *k > 16 {
                        prop_assert_eq!(
                            visited(&sv, query, *k, range.clone()),
                            length_admitted(&sv, query, *k, range)
                        );
                    }
                }
            }
            prop_assert_eq!(
                sv.signature_bytes(),
                0,
                "no planes over {} symbols",
                alphabet.len()
            );
            Ok(())
        },
    );
}

#[test]
fn segment_postings_are_sound_on_acgt() {
    segment_postings_are_sound_over("segment_postings_are_sound_on_acgt", b"ACGT");
}

#[test]
fn segment_postings_are_sound_on_acgnt() {
    segment_postings_are_sound_over("segment_postings_are_sound_on_acgnt", gen::DNA);
}

#[test]
fn views_with_planes_visit_what_the_signature_admits() {
    // The planes branch spelled out per record — length, buckets lacked,
    // buckets in excess, bigram buckets either way — is what the sweep
    // visits; at k = 0, inside the equal range.
    check(
        "views_with_planes_visit_what_the_signature_admits",
        Config::cases(40).seed(SEED),
        &sweep_case(gen::NAMES),
        |(words, (source, query, _))| {
            let mut records: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
            records.push(source);
            records.extend(gen::NAMES.chunks(3));
            let sv = SortedView::build(&Dataset::from_records(&records));
            let n = sv.len();
            for k in [0u32, 1, 2, 3, 16, 17, 63] {
                for range in [0..n, n / 3..n - n / 4] {
                    let expected = signature_admitted(&sv, query, k, range.clone());
                    prop_assert_eq!(visited(&sv, query, k, range), expected, "k = {}", k);
                }
            }
            prop_assert!(sv.signature_bytes() > 0);
            prop_assert_eq!(sv.postings_bytes(), 0, "a view with planes cuts no record");
            Ok(())
        },
    );
}

/// What the planes branch admits, spelled out per record — length,
/// buckets lacked, buckets in excess, at most `2k` bigram buckets either
/// way — and, at `k = 0`, inside the equal range.
fn signature_admitted(sv: &SortedView, query: &[u8], k: u32, range: Range<usize>) -> Vec<usize> {
    let (q, q_pairs) = (occupancy_set(query), bigram_set(query));
    range
        .filter(|&pos| {
            let (x, x_pairs) = (occupancy_set(sv.get(pos)), bigram_set(sv.get(pos)));
            sv.record_len(pos).abs_diff(query.len()) <= k as usize
                && (q & !x).count_ones().max((x & !q).count_ones()) <= k
                && (q_pairs & !x_pairs)
                    .count_ones()
                    .max((x_pairs & !q_pairs).count_ones())
                    <= 2 * k
                && (k > 0 || sv.get(pos) == query)
        })
        .collect()
}

#[test]
fn views_with_planes_visit_what_the_signature_admits_across_block_seams() {
    // The planes are swept eight words (512 positions) at a time, the
    // last, partial block through a zero-filled copy: views one short of,
    // exactly at and one past a block, two blocks and a lane, and one of
    // random size, under ranges that start and end inside a block, inside
    // a word, within one word, and empty.
    let word = gen::weighted(vec![
        (12, gen::bytes_from(gen::NAMES, 0..14)),
        (2, gen::bytes_from(gen::NAMES, 14..30)),
    ]);
    check(
        "views_with_planes_visit_what_the_signature_admits_across_block_seams",
        Config::cases(12).seed(SEED),
        &gen::zip3(
            gen::vec_of(word.clone(), 1_500..1_501),
            gen::mutated(word, 0..4, gen::NAMES),
            gen::usize_in(600..1_501),
        ),
        |(words, (source, query, _), random)| {
            for size in [511, 512, 513, 1_025, *random] {
                let mut records: Vec<&[u8]> = words[..size - 1].iter().map(Vec::as_slice).collect();
                records.push(source);
                let sv = SortedView::build(&Dataset::from_records(&records));
                let n = sv.len();
                let ranges = [
                    0..n,
                    n / 3..n - n / 4,
                    37..300,
                    // One block's length from inside a word: nine words,
                    // the second block's first lanes only.
                    3 * 64 + 5..3 * 64 + 5 + 512,
                    507..582,
                    130..140,
                    n - 3..n,
                    // The last whole word.
                    n - n % 64 - 64..n - n % 64,
                    n / 2..n / 2,
                    n..n,
                ];
                for k in [0u32, 1, 2, 3, 16, 17, 63] {
                    for range in ranges.iter().map(|r| r.start.min(n)..r.end.min(n)) {
                        let expected = signature_admitted(&sv, query, k, range.clone());
                        prop_assert_eq!(
                            visited(&sv, query, k, range.clone()),
                            expected,
                            "{} records, k = {}, {:?}",
                            n,
                            k,
                            range
                        );
                    }
                    check_candidates(&sv, query, k, 0..n)?;
                }
                prop_assert!(sv.signature_bytes() > 0);
            }
            Ok(())
        },
    );
}

/// `(x, q)`: a name over [`gen::NAMES`] — empty, random, or one or two
/// symbols repeated, so that bigrams repeat — and the same name after
/// 0..=6 substitutions, insertions and deletions, each at the first
/// byte, at the last or anywhere.
fn edited_name() -> Gen<(Vec<u8>, Vec<u8>)> {
    Gen::new(|rng| {
        let name = match rng.index(4) {
            0 => Vec::new(),
            1 => random_string(rng, gen::NAMES, 1..3).repeat(1 + rng.index(6)),
            _ => random_string(rng, gen::NAMES, 1..20),
        };
        let mut edited = name.clone();
        for _ in 0..rng.index(7) {
            let (len, symbol) = (edited.len(), *rng.choose(gen::NAMES));
            let insert = len == 0 || rng.chance(1.0 / 3.0);
            // The last position an edit of this kind can take.
            let last = if insert { len } else { len - 1 };
            let at = match rng.index(3) {
                0 => 0,
                1 => last,
                _ => rng.index(last + 1),
            };
            if insert {
                edited.insert(at, symbol);
            } else if rng.chance(0.5) {
                edited[at] = symbol;
            } else {
                edited.remove(at);
            }
        }
        (name, edited)
    })
}

#[test]
fn bigram_sets_differ_by_at_most_two_buckets_an_edit() {
    // One edit removes at most two bigrams of `⊥ x ⊤` and adds at most
    // two, and hashing only merges buckets: `ed(q, x) = d` leaves at most
    // `2d` buckets of either set outside the other. The sweep applies
    // that bound to the query it is given, so `x` is visited at `k = d`
    // (the three-symbol records give the view its planes).
    check(
        "bigram_sets_differ_by_at_most_two_buckets_an_edit",
        Config::cases(400).seed(SEED),
        &edited_name(),
        |(x, q)| {
            let d = levenshtein(q, x);
            let (p_q, p_x) = (bigram_set(q), bigram_set(x));
            prop_assert!(
                (p_q & !p_x).count_ones() <= 2 * d && (p_x & !p_q).count_ones() <= 2 * d,
                "ed = {}: {:064b} against {:064b}",
                d,
                p_q,
                p_x
            );
            let mut records: Vec<&[u8]> = gen::NAMES.chunks(3).collect();
            records.push(x);
            let sv = SortedView::build(&Dataset::from_records(&records));
            check_candidates(&sv, q, d, 0..sv.len())
        },
    );
}

#[test]
fn exact_match_is_the_equal_range() {
    // k = 0 against a linear scan: duplicates, the empty string, queries
    // below the first and above the last record, and sub-ranges that cut
    // the equal range — over planes, postings and neither.
    check(
        "exact_match_is_the_equal_range",
        Config::cases(60).seed(SEED),
        &gen::zip(
            gen::one_of(vec![
                gen::vec_of(gen::bytes_from(b"ab", 0..4), 0..60),
                gen::vec_of(gen::bytes_from(gen::NAMES, 0..6), 0..60),
                gen::vec_of(gen::bytes_from(b"AC", 16..20), 0..60),
            ]),
            gen::bytes_from(b"abAC", 0..4),
        ),
        |(words, stranger)| {
            let sv = SortedView::build(&Dataset::from_records(words));
            let n = sv.len();
            let mut queries: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
            queries.extend([b"".as_slice(), b"\x00", b"\xFF\xFF", stranger.as_slice()]);
            for query in queries {
                for range in [0..n, 0..n / 2, n / 2..n, n / 3..n - n / 3, n..n] {
                    let equal: Vec<usize> =
                        range.clone().filter(|&pos| sv.get(pos) == query).collect();
                    prop_assert_eq!(visited(&sv, query, 0, range.clone()), equal);
                    check_candidates(&sv, query, 0, range)?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn one_selection_aid_a_view_and_its_bytes_are_accounted() {
    let city = SortedView::build(&Dataset::from_records(
        gen::NAMES.chunks(3).map(<[u8]>::to_vec).collect::<Vec<_>>(),
    ));
    // 40 reads of 100 symbols, 3 of 16 (too short to cut), 2 empty.
    let mut rng = Xoshiro256::seed_from_u64(SEED);
    let mut reads: Vec<Vec<u8>> = (0..40)
        .map(|_| random_string(&mut rng, gen::DNA, 100..101))
        .collect();
    reads.extend((0..3).map(|_| random_string(&mut rng, gen::DNA, 16..17)));
    reads.extend([Vec::new(), Vec::new()]);
    let dna = SortedView::build(&Dataset::from_records(&reads));
    assert_eq!(dna.postings_bytes(), 0, "nothing is built with the view");
    for view in [&city, &dna] {
        view.for_each_candidate(b"ACGT", 1, 0..view.len(), |_, _| {});
    }
    assert!(city.signature_bytes() > 0);
    assert_eq!(city.postings_bytes(), 0, "a city view cuts no record");
    assert_eq!(dna.signature_bytes(), 0, "a DNA view stores no planes");
    // 45 records hash into 2^⌈log₂ 90⌉ = 128 buckets (129 offsets) and
    // 40 are cut into 19 postings each; the 5 short ones cost nothing.
    assert_eq!(dna.postings_bytes(), (129 + 40 * 19) * 4);
    // Records all shorter than 19: nothing to cut, nothing built.
    let short = SortedView::build(&Dataset::from_records(["ACGT", "ACGTACGTACGTACGTAC", ""]));
    short.prepare_signature();
    assert_eq!((short.signature_bytes(), short.postings_bytes()), (0, 0));
}
