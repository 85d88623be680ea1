//! Lexicographically sorted view of a [`Dataset`] with an LCP array.
//!
//! The paper's trie amortizes DP work across shared prefixes; that
//! amortization does not require a tree, only *adjacency* of shared
//! prefixes — which a sorted flat arena provides with strictly
//! sequential memory access (the same ordering insight sort-based
//! methods like PASS-JOIN exploit). [`SortedView`] is the one-time
//! preprocessing behind the V7 scan rung: a permutation table, a
//! remapped contiguous arena in sorted order, and the longest-common-
//! prefix length between each pair of adjacent records, so a scanner
//! can resume a row-stack DP at `lcp[i]` instead of row zero.
//!
//! The view also selects a sweep's candidates
//! ([`SortedView::for_each_candidate`]): the length filter, and — built
//! on the first V8 use of a view over a large enough alphabet — a
//! bit-sliced *occupancy signature*, the paper's §6 frequency-vector
//! filter generalised from five vowels to every symbol. Each byte hashes
//! to one of 64 buckets and `S(x)` is the set of buckets a record
//! occupies. One edit adds at most one bucket to that set and removes at
//! most one, so `ed(q, x) ≥ max(|S(q) ∖ S(x)|, |S(x) ∖ S(q)|)` — whatever
//! bytes collide in a bucket. The sets are stored *transposed*: plane
//! `b` is a bitmap over sorted positions of the records occupying bucket
//! `b`, and `|S(x)|` is stored the same way (plane `v`: the records
//! occupying at least `v` buckets), so a query evaluates both
//! differences for 64 records at a time with a few word operations per
//! plane — its own ≈ 9 bucket planes and `k + 1` size planes — and no
//! per-record popcount.

use crate::dataset::{Dataset, RecordId};
use std::ops::Range;
use std::sync::OnceLock;

/// Positions per plane word.
const LANES: usize = 64;

/// Buckets a byte can hash to: the bits of one `u64` set.
const BUCKETS: usize = 64;

/// A view whose records occupy at most this many of the 64 buckets *in
/// total* carries no signature. On such an alphabet (DNA: `ACGTN`, five
/// buckets) nearly every record occupies every bucket, the filter
/// rejects next to nothing and its sweep is pure overhead — so
/// [`SortedView::for_each_candidate`] runs the length filter alone
/// there. A property of the data, observed once at build time.
const TINY_ALPHABET_BUCKETS: u32 = 8;

/// Past this gap between two consecutive candidates, their shared prefix
/// is read off the two records instead of folded over the `lcp` column.
const LCP_FOLD_GAP: usize = 8;

/// `S(bytes)`: the buckets (`0..64`) the bytes hash to, as a bit set.
#[inline]
fn bucket_set(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |set, &b| {
        set | 1 << (u32::from(b).wrapping_mul(0x9E37_79B1) >> 26)
    })
}

/// The occupancy signature of every record in a view, transposed: 64
/// bucket planes and one size plane per bucket the fullest record
/// occupies, a bit a record each — 11 bytes a record on 400,000 city
/// names, whose fullest occupies 24.
#[derive(Clone, Debug)]
struct Signature {
    /// `planes[p * words + w]`, bit `i`, speaks of the record at sorted
    /// position `64 w + i`: for `p < 64`, it occupies bucket `p`; for
    /// `p = 63 + v`, it occupies at least `v` buckets (`v` from 1 to the
    /// largest `|S(x)|` in the view). Lanes past the last record are 0.
    planes: Vec<u64>,
    /// Words per plane, `⌈len / 64⌉`.
    words: usize,
}

impl Signature {
    /// Builds the planes, or `None` over a tiny alphabet
    /// ([`TINY_ALPHABET_BUCKETS`]; decided before anything is allocated).
    fn build(sorted: &Dataset) -> Option<Self> {
        let mut union = 0u64;
        let tiny = sorted.records().all(|record| {
            union |= bucket_set(record);
            union.count_ones() <= TINY_ALPHABET_BUCKETS
        });
        if tiny {
            return None;
        }
        let words = sorted.len().div_ceil(LANES);
        let mut planes = vec![0u64; 2 * BUCKETS * words];
        let mut largest = 0;
        for (pos, record) in sorted.records().enumerate() {
            let (w, lane) = (pos / LANES, 1u64 << (pos % LANES));
            let mut set = bucket_set(record);
            let mut size = 0;
            while set != 0 {
                planes[set.trailing_zeros() as usize * words + w] |= lane;
                planes[(BUCKETS + size) * words + w] |= lane;
                set &= set - 1;
                size += 1;
            }
            largest = largest.max(size);
        }
        planes.truncate((BUCKETS + largest) * words);
        planes.shrink_to_fit();
        Some(Self { planes, words })
    }

    /// Lanes of word `w` whose records the signature cannot rule out:
    /// those lacking at most `k` of `query_set`'s buckets and occupying
    /// at most `k` buckets outside it, among the lanes in `alive`.
    ///
    /// With `a = |S(q) ∖ S(x)|`, the other difference is `|S(x) ∖ S(q)| =
    /// |S(x)| − |S(q)| + a`, so both are at most `k` exactly when `a +
    /// max(0, |S(x)| − |S(q)|) ≤ k`. A bit-sliced counter of `BITS` planes
    /// (`k < 2^BITS`) starts every lane at `2^BITS − 1 − k` and adds one
    /// for each query bucket the lane lacks and for each size plane in
    /// `larger` — `|S(x)| ≥ v` for `v` in `|S(q)| + 1 ..= |S(q)| + k + 1`:
    /// a lane overflows, for good, exactly when that sum passes `k`.
    ///
    /// The width is a compile-time constant so that the counter lives in
    /// registers: with a run-time width every addition went through the
    /// stack, and the sweep took 1.3–2× as long at `k` from 1 to 3.
    fn survivors<const BITS: usize>(
        &self,
        w: usize,
        query_set: u64,
        larger: Range<usize>,
        k: u32,
        mut alive: u64,
    ) -> u64 {
        let start = (1u64 << BITS) - 1 - u64::from(k);
        let mut counter: [u64; BITS] =
            std::array::from_fn(|bit| 0u64.wrapping_sub(start >> bit & 1));
        // Adds one to the lanes of `carry`; returns those that overflow.
        let mut add = |mut carry: u64| {
            for plane in &mut counter {
                (*plane, carry) = (*plane ^ carry, *plane & carry);
            }
            carry
        };
        let mut rest = query_set;
        while rest != 0 {
            alive &= !add(!self.planes[rest.trailing_zeros() as usize * self.words + w]);
            rest &= rest - 1;
        }
        for plane in larger {
            alive &= !add(self.planes[plane * self.words + w]);
        }
        alive
    }
}

/// A dataset re-ordered lexicographically, with adjacency metadata.
///
/// Positions (`0..len()`) address records in *sorted* order; every match
/// is translated back to the insertion-order [`RecordId`] via
/// [`SortedView::original_id`], so result sets stay comparable with every
/// other engine.
///
/// # Examples
///
/// ```
/// use simsearch_data::{Dataset, SortedView};
///
/// let ds = Dataset::from_records(["Ulm", "Bern", "Berlin"]);
/// let sv = SortedView::build(&ds);
/// assert_eq!(sv.get(0), b"Berlin");
/// assert_eq!(sv.get(1), b"Bern");
/// assert_eq!(sv.lcp(1), 3); // "Ber" shared with "Berlin"
/// assert_eq!(sv.original_id(0), 2); // "Berlin" was inserted third
/// ```
#[derive(Clone, Debug)]
pub struct SortedView {
    /// Records remapped into one contiguous arena in sorted order.
    sorted: Dataset,
    /// `perm[pos]` = insertion-order id of the record at sorted `pos`.
    perm: Vec<RecordId>,
    /// `lcp[pos]` = length of the longest common prefix of the records at
    /// sorted positions `pos - 1` and `pos`; `lcp[0] = 0`.
    lcp: Vec<u32>,
    /// `lens[pos]` = record length at sorted `pos`, densely packed so a
    /// length-filter sweep touches 16 records per cache line instead of
    /// striding through the (twice as wide) offsets table.
    lens: Vec<u32>,
    /// The occupancy signature: unset until the first V8 use (a view
    /// only V7 sweeps never pays for it), `None` over a tiny alphabet.
    /// Boxed to keep the cell out of the view itself: a `&SortedView`
    /// with interior mutability inline is no longer read-only to the
    /// optimiser, which then reloads every column's address inside the
    /// sweeps' per-record loops (V7 read 4–6 % slower at k ≤ 1 that way;
    /// boxed, its machine code is the parent commit's).
    signature: Box<OnceLock<Option<Signature>>>,
}

/// Longest common prefix length of two byte strings.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl SortedView {
    /// Sorts the dataset (ties broken by insertion id, so the permutation
    /// is deterministic), remaps the arena, and computes the LCP array.
    pub fn build(dataset: &Dataset) -> Self {
        let mut perm: Vec<RecordId> = (0..dataset.len() as u32).collect();
        perm.sort_by(|&a, &b| dataset.get(a).cmp(dataset.get(b)).then(a.cmp(&b)));
        let mut sorted = Dataset::with_capacity(dataset.len(), dataset.arena_len());
        let mut lcp = Vec::with_capacity(dataset.len());
        let mut lens = Vec::with_capacity(dataset.len());
        for (pos, &id) in perm.iter().enumerate() {
            let record = dataset.get(id);
            lcp.push(if pos == 0 {
                0
            } else {
                common_prefix(sorted.get(pos as u32 - 1), record) as u32
            });
            lens.push(record.len() as u32);
            sorted.push(record);
        }
        Self {
            sorted,
            perm,
            lcp,
            lens,
            signature: Box::default(),
        }
    }

    /// Number of records (same as the source dataset).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Borrows the record at sorted position `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> &[u8] {
        self.sorted.get(pos as u32)
    }

    /// Length of the record at sorted position `pos`, from the offsets
    /// table alone.
    #[inline]
    pub fn record_len(&self, pos: usize) -> usize {
        self.sorted.record_len(pos as u32)
    }

    /// Longest common prefix between the records at sorted positions
    /// `pos - 1` and `pos` (`0` at position `0`).
    #[inline]
    pub fn lcp(&self, pos: usize) -> usize {
        self.lcp[pos] as usize
    }

    /// Translates a sorted position back to the insertion-order id.
    #[inline]
    pub fn original_id(&self, pos: usize) -> RecordId {
        self.perm[pos]
    }

    /// The permutation table: `permutation()[pos]` is the insertion-order
    /// id of the record at sorted position `pos`.
    pub fn permutation(&self) -> &[RecordId] {
        &self.perm
    }

    /// Builds the occupancy signature now rather than inside the first
    /// [`SortedView::for_each_candidate`] call — what an engine that will
    /// sweep this view with V8 calls at build time. Idempotent; costs a
    /// scan of the arena and allocates nothing over a tiny alphabet.
    pub fn prepare_signature(&self) {
        self.signature();
    }

    fn signature(&self) -> Option<&Signature> {
        self.signature
            .get_or_init(|| Signature::build(&self.sorted))
            .as_ref()
    }

    /// Heap bytes the occupancy signature holds right now: 0 until the
    /// first V8 use of this view, and for good over a tiny alphabet.
    pub fn signature_bytes(&self) -> usize {
        match self.signature.get() {
            Some(Some(sig)) => sig.planes.len() * 8,
            _ => 0,
        }
    }

    /// Candidate selection for a sorted-arena sweep: calls
    /// `visit(pos, shared)` in ascending order for every position in
    /// `range` whose record the filters cannot rule out of
    /// `ed(query, record) ≤ k`, where `shared` is the exact common-prefix
    /// length of that record and the previously visited one (0 for the
    /// first) — the minimum of `lcp` over the positions skipped in
    /// between, which is all a resumable kernel may adopt.
    ///
    /// Every record visited passes the length filter, and — where the
    /// view carries a signature (built here on first use; see the module
    /// docs) — lacks at most `k` of the query's buckets and occupies at
    /// most `k` the query does not.
    pub fn for_each_candidate(
        &self,
        query: &[u8],
        k: u32,
        range: Range<usize>,
        mut visit: impl FnMut(usize, usize),
    ) {
        let (start, end) = (range.start, range.end);
        let (qlen, k_len) = (query.len(), k as usize);
        // Both set differences are at most 64, so a wider threshold
        // rejects nothing (and builds nothing).
        let Some(sig) = (k_len < BUCKETS).then(|| self.signature()).flatten() else {
            // `shared` carries the minimum LCP since the last visited
            // record: the first in a range restarts from nothing.
            let mut shared = 0usize;
            for pos in range {
                if pos > start {
                    shared = shared.min(self.lcp(pos));
                }
                if (self.lens[pos] as usize).abs_diff(qlen) <= k_len {
                    visit(pos, shared);
                    shared = usize::MAX;
                }
            }
            return;
        };
        let query_set = bucket_set(query);
        // The size planes that count against a record: `|S(x)| ≥ v` for
        // `v` from `|S(q)| + 1`, as many as are stored and can matter.
        let larger = BUCKETS + query_set.count_ones() as usize;
        let larger = larger..(sig.planes.len() / sig.words).min(larger + k_len + 1);
        // `k < 64` here, so the counter needs at most six planes.
        let survivors = [
            Signature::survivors::<0>,
            Signature::survivors::<1>,
            Signature::survivors::<2>,
            Signature::survivors::<3>,
            Signature::survivors::<4>,
            Signature::survivors::<5>,
            Signature::survivors::<6>,
        ][(u32::BITS - k.leading_zeros()) as usize];
        let mut last: Option<usize> = None;
        for w in start / LANES..end.div_ceil(LANES) {
            let base = w * LANES;
            // Lanes of this word inside the range.
            let mut alive = !0u64;
            if base < start {
                alive &= !0 << (start - base);
            }
            if base + LANES > end {
                alive &= !0 >> (base + LANES - end);
            }
            alive = survivors(sig, w, query_set, larger.clone(), k, alive);
            while alive != 0 {
                let pos = base + alive.trailing_zeros() as usize;
                alive &= alive - 1;
                if (self.lens[pos] as usize).abs_diff(qlen) > k_len {
                    continue;
                }
                let shared = match last {
                    None => 0,
                    Some(prev) if pos - prev <= LCP_FOLD_GAP => {
                        let gap = &self.lcp[prev + 1..=pos];
                        gap.iter().fold(u32::MAX, |min, &l| min.min(l)) as usize
                    }
                    Some(prev) => common_prefix(self.get(prev), self.get(pos)),
                };
                visit(pos, shared);
                last = Some(pos);
            }
        }
    }

    /// The remapped (sorted-order) dataset backing this view.
    pub fn sorted_dataset(&self) -> &Dataset {
        &self.sorted
    }

    /// Iterates `(original_id, record)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &[u8])> + '_ {
        (0..self.len()).map(move |pos| (self.perm[pos], self.get(pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(records: &[&str]) -> SortedView {
        SortedView::build(&Dataset::from_records(records))
    }

    #[test]
    fn records_come_out_sorted_with_exact_lcp() {
        let sv = view(&["Ulm", "Berlin", "Bern", "", "Berlingen", "Ulm"]);
        let order: Vec<&[u8]> = (0..sv.len()).map(|p| sv.get(p)).collect();
        let mut expected = order.clone();
        expected.sort();
        assert_eq!(order, expected);
        assert_eq!(sv.lcp(0), 0);
        for pos in 1..sv.len() {
            assert_eq!(
                sv.lcp(pos),
                common_prefix(sv.get(pos - 1), sv.get(pos)),
                "pos {pos}"
            );
        }
    }

    #[test]
    fn permutation_translates_back_to_insertion_order() {
        let ds = Dataset::from_records(["Ulm", "Berlin", "Bern"]);
        let sv = SortedView::build(&ds);
        for pos in 0..sv.len() {
            assert_eq!(ds.get(sv.original_id(pos)), sv.get(pos));
        }
        let mut seen: Vec<RecordId> = sv.permutation().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_records_keep_insertion_order() {
        let sv = view(&["b", "a", "b", "a"]);
        // Ties break by insertion id: both "a"s first, ids ascending.
        assert_eq!(sv.permutation(), &[1, 3, 0, 2]);
        assert_eq!(sv.lcp(1), 1);
        assert_eq!(sv.lcp(2), 0);
        assert_eq!(sv.lcp(3), 1);
    }

    #[test]
    fn empty_dataset_and_empty_records() {
        let sv = SortedView::build(&Dataset::new());
        assert!(sv.is_empty());
        let sv = view(&["", "", "x"]);
        assert_eq!(sv.get(0), b"");
        assert_eq!(sv.lcp(1), 0);
        assert_eq!(sv.record_len(2), 1);
    }

    #[test]
    fn lengths_table_matches_record_len() {
        let sv = view(&["Ulm", "Berlin", "", "Bern"]);
        assert_eq!(sv.lens.len(), sv.len());
        for pos in 0..sv.len() {
            assert_eq!(sv.lens[pos] as usize, sv.record_len(pos), "pos {pos}");
        }
    }

    #[test]
    fn planes_transpose_the_per_record_bucket_sets() {
        // 130 records: three words a plane, the last holding two lanes.
        let names: Vec<String> = (0..130u32)
            .map(|i| format!("{}{}", (b'a' + (i % 26) as u8) as char, i * 7919))
            .collect();
        let sv = SortedView::build(&Dataset::from_records(&names));
        assert_eq!(
            sv.signature_bytes(),
            0,
            "nothing is built before the first use"
        );
        let sig = sv.signature().expect("ten digits and 26 letters");
        assert_eq!(sig.words, 3);
        let bit = |plane: usize, pos: usize| sig.planes[plane * 3 + pos / 64] >> (pos % 64) & 1;
        let mut largest = 0;
        for pos in 0..sv.len() {
            let set = bucket_set(sv.get(pos));
            let size = set.count_ones() as usize;
            for bucket in 0..64 {
                assert_eq!(bit(bucket, pos), set >> bucket & 1, "pos {pos}");
            }
            for v in 1..=sig.planes.len() / 3 - 64 {
                assert_eq!(bit(63 + v, pos), u64::from(size >= v), "pos {pos} v {v}");
            }
            largest = largest.max(size);
        }
        assert_eq!(
            sig.planes.len(),
            (64 + largest) * 3,
            "no plane is all zeros"
        );
        assert!((0..64 + largest).all(|plane| sig.planes[plane * 3 + 2] >> 2 == 0));
        assert_eq!(sv.signature_bytes(), sig.planes.len() * 8);
    }

    #[test]
    fn iter_pairs_sorted_records_with_original_ids() {
        let ds = Dataset::from_records(["bb", "aa"]);
        let sv = SortedView::build(&ds);
        let pairs: Vec<(RecordId, &[u8])> = sv.iter().collect();
        assert_eq!(pairs, vec![(1, b"aa" as &[u8]), (0, b"bb")]);
    }
}
