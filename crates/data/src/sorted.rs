//! Length-major sorted view of a [`Dataset`] with an LCP array.
//!
//! The paper's trie amortizes DP work across shared prefixes; that
//! amortization does not require a tree, only *adjacency* of shared
//! prefixes — which a sorted flat arena provides with strictly
//! sequential memory access. [`SortedView`] is the one-time
//! preprocessing behind the V7 and V8 scan rungs: a permutation table, a
//! remapped contiguous arena in sorted order, and the longest-common-
//! prefix length between each pair of adjacent records, so a scanner
//! can resume a row-stack DP at `lcp[i]` instead of row zero.
//!
//! The order is PASS-JOIN's: by length first, then by bytes. The paper's
//! first cut is the length filter `||x| − |y|| > k` (condition (6)),
//! which its trie applies as a range through per-node length bounds;
//! here it is a range of positions, [`SortedView::length_band`], read off
//! a table of where each length starts. A sweep visits that band only
//! and never tests a record's length.
//!
//! The view also selects a sweep's candidates
//! ([`SortedView::for_each_candidate`]): the length band, and — built
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
//! differences with a few word operations per plane — its own ≈ 9 bucket
//! planes and `k + 1` size planes — and no per-record popcount. The
//! sweep takes the planes a block of eight words at a time: 512 records,
//! a cache line's worth (64 bytes) of each plane it reads, as fixed-width
//! `[u64; 8]` rows that the compiler turns into vector operations.
//!
//! The planes count *which* symbols a record holds, not their order.
//! Beside them the signature keeps one word a record, `P(x)`: the bigrams
//! of `⊥ x ⊤` hashed into 64 buckets ([`bigram_set`]). One edit removes
//! at most two bigrams of the padded string and adds at most two, so
//! `ed(q, x) ≤ k` leaves at most `2k` buckets of `P(q)` outside `P(x)`
//! and as many the other way. Each plane survivor is tested against that
//! bound — two popcounts on one word — before its shared prefix is
//! worked out or the kernel sees it.
//!
//! Over a tiny alphabet (DNA) every record occupies every bucket and the
//! planes are not built; what the same lazy cell builds there instead is
//! PASS-JOIN's pigeonhole partition used for search: every record long
//! enough is cut into [`SEGMENTS`] even segments, and `ed(q, x) ≤ k`
//! leaves at least [`HITS`] of any `k + HITS` of them verbatim in the
//! query, each within a shift the edits around it allow. The segments are
//! kept as hashed, fingerprinted postings ([`SegmentPostings`]) and only
//! the records collecting that many hits reach the kernel.

use crate::dataset::{Dataset, RecordId};
use crate::partition::even_partition;
use std::ops::Range;
use std::sync::OnceLock;

/// Positions per plane word.
const LANES: usize = 64;

/// Plane words the signature sweeps at a time: 512 positions, a cache
/// line's worth (64 bytes) of every plane read.
const BLOCK: usize = 8;

/// Buckets a byte can hash to: the bits of one `u64` set.
const BUCKETS: usize = 64;

/// A view whose records occupy at most this many of the 64 buckets *in
/// total* carries no signature. On such an alphabet (DNA: `ACGTN`, five
/// buckets) nearly every record occupies every bucket, the filter
/// rejects next to nothing and its sweep is pure overhead — so
/// [`SortedView::for_each_candidate`] runs the length band alone
/// there. A property of the data, observed once at build time.
const TINY_ALPHABET_BUCKETS: u32 = 8;

/// Past this gap between two consecutive candidates of one length, their
/// shared prefix is read off the two records instead of folded over the
/// `lcp` column.
const LCP_FOLD_GAP: usize = 8;

/// `S(bytes)`: the buckets (`0..64`) the bytes hash to, as a bit set —
/// the set the occupancy planes store transposed. One edit adds at most
/// one bucket and removes at most one.
#[inline]
pub fn occupancy_set(bytes: &[u8]) -> u64 {
    sets(bytes).0
}

/// `P(bytes)`: the buckets (`0..64`) the bigrams of `⊥ bytes ⊤` hash to,
/// as a bit set — the set the signature's pair column stores, one word a
/// record. The end markers are symbols 256 and 257, outside every byte,
/// so the empty string has one bigram, `⊥⊤`. One edit adds at most two
/// buckets and removes at most two.
#[inline]
pub fn bigram_set(bytes: &[u8]) -> u64 {
    sets(bytes).1
}

/// `(S(bytes), P(bytes))` in one pass over the bytes: byte `b` goes to
/// bucket `h(b) >> 26` and bigram `ab` to `(h(a) ^ g(b)) >> 26`, with
/// `h` and `g` multiplications by two odd constants — so each byte's
/// `h` serves both sets.
#[inline]
fn sets(bytes: &[u8]) -> (u64, u64) {
    let h = |symbol: u32| symbol.wrapping_mul(0x9E37_79B1);
    let g = |symbol: u32| symbol.wrapping_mul(0x85EB_CA6B);
    let (mut occupied, mut pairs, mut prev) = (0u64, 0u64, h(256));
    for &b in bytes {
        let hb = h(u32::from(b));
        occupied |= 1 << (hb >> 26);
        pairs |= 1 << ((prev ^ g(u32::from(b))) >> 26);
        prev = hb;
    }
    (occupied, pairs | 1 << ((prev ^ g(257)) >> 26))
}

/// The signature of every record in a view: its occupancy set,
/// transposed — 64 bucket planes and one size plane per bucket the
/// fullest record occupies, a bit a record each — and its bigram set, a
/// word a record. 19 bytes a record on 400,000 city names, whose fullest
/// occupies 24 buckets: 11 of planes, 8 of pair column.
#[derive(Clone, Debug)]
struct Signature {
    /// `planes[p * words + w]`, bit `i`, speaks of the record at sorted
    /// position `64 w + i`: for `p < 64`, it occupies bucket `p`; for
    /// `p = 63 + v`, it occupies at least `v` buckets (`v` from 1 to the
    /// largest `|S(x)|` in the view). Lanes past the last record are 0.
    planes: Vec<u64>,
    /// Words per plane, `⌈len / 64⌉`.
    words: usize,
    /// `pairs[pos]` = [`bigram_set`] of the record at sorted `pos`.
    pairs: Vec<u64>,
}

impl Signature {
    /// Builds the planes and the pair column in one pass over the arena,
    /// or `None` over a tiny alphabet ([`TINY_ALPHABET_BUCKETS`]; decided
    /// before anything is allocated).
    fn build(sorted: &Dataset) -> Option<Self> {
        let mut union = 0u64;
        let tiny = sorted.records().all(|record| {
            union |= occupancy_set(record);
            union.count_ones() <= TINY_ALPHABET_BUCKETS
        });
        if tiny {
            return None;
        }
        let words = sorted.len().div_ceil(LANES);
        let mut planes = vec![0u64; 2 * BUCKETS * words];
        let mut pairs = Vec::with_capacity(sorted.len());
        let mut largest = 0;
        for (pos, record) in sorted.records().enumerate() {
            let (w, lane) = (pos / LANES, 1u64 << (pos % LANES));
            let (mut set, record_pairs) = sets(record);
            pairs.push(record_pairs);
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
        Some(Self {
            planes,
            words,
            pairs,
        })
    }

    /// Runs `sweep(planes, stride, from)` over the last block, from word
    /// `w` on, which runs past the planes' last word: over a zero-filled
    /// copy of what is left of each plane. Out of line so that the copy's
    /// 8 KB stay out of the sweep's own stack frame, whose every call
    /// (a DNA or an exact-match one too) would otherwise probe two pages.
    #[inline(never)]
    fn last_block<R>(&self, w: usize, sweep: impl FnOnce(&[u64], usize, usize) -> R) -> R {
        let mut tail = [0u64; 2 * BUCKETS * BLOCK];
        for (p, rest) in self.planes.chunks_exact(self.words).enumerate() {
            let rest = &rest[w..];
            tail[p * BLOCK..][..rest.len()].copy_from_slice(rest);
        }
        sweep(&tail, BLOCK, 0)
    }

    /// Lanes of the block of eight words starting at word `from` of
    /// `planes` (plane `p` at `planes[p * stride..]`) whose records the
    /// signature cannot rule out: those lacking at most `k` of the planes
    /// in `buckets` and occupying at most `k` buckets outside them, among
    /// the lanes in `alive`.
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
    /// stack, and the sweep took 1.3–2× as long at `k` from 1 to 3. The
    /// block is a fixed eight words so that each operation is on `[u64;
    /// 8]`, which the compiler turns into vector operations (DESIGN §13,
    /// *Why eight words at a time*).
    fn survivors<const BITS: usize>(
        planes: &[u64],
        stride: usize,
        from: usize,
        buckets: &[usize],
        larger: Range<usize>,
        k: u32,
        mut alive: [u64; BLOCK],
    ) -> [u64; BLOCK] {
        let row = |plane: usize| -> [u64; BLOCK] {
            planes[plane * stride + from..][..BLOCK]
                .try_into()
                .expect("a block is eight words")
        };
        let start = (1u64 << BITS) - 1 - u64::from(k);
        let mut counter: [[u64; BLOCK]; BITS] =
            std::array::from_fn(|bit| [0u64.wrapping_sub(start >> bit & 1); BLOCK]);
        // Adds one to the lanes of `carry`, then drops from `alive` those
        // that overflow. (As a closure it was left out of line at some
        // widths, and scalar there.)
        #[inline(always)]
        fn add<const BITS: usize>(
            counter: &mut [[u64; BLOCK]; BITS],
            alive: &mut [u64; BLOCK],
            mut carry: [u64; BLOCK],
        ) {
            for plane in counter {
                for (lanes, carry) in plane.iter_mut().zip(&mut carry) {
                    (*lanes, *carry) = (*lanes ^ *carry, *lanes & *carry);
                }
            }
            for (alive, carry) in alive.iter_mut().zip(carry) {
                *alive &= !carry;
            }
        }
        for &bucket in buckets {
            add(&mut counter, &mut alive, row(bucket).map(|lanes| !lanes));
        }
        for plane in larger {
            add(&mut counter, &mut alive, row(plane));
        }
        alive
    }
}

/// The largest threshold the segment postings serve — the paper's
/// largest DNA threshold (Table I). Past it a sweep runs the length
/// band alone.
const SEGMENT_TAU: u32 = 16;

/// Segment hits a record must collect to reach the kernel, at every
/// threshold the postings serve. The pigeonhole alone would let one do
/// at `k = τ`, and one verbatim five- or six-symbol segment is shared by
/// ≈ 5 % of unrelated reads; three are shared by next to none.
const HITS: usize = 3;

/// Segments a record is cut into: `τ + HITS`, so that `k ≤ τ` edits
/// leave at least `HITS` of any `k + HITS` of them untouched.
const SEGMENTS: usize = SEGMENT_TAU as usize + HITS;

// The posting key's tag holds the ordinal in five bits.
const _: () = assert!(SEGMENTS <= 32);

/// Start and length of segment `ordinal` of a `len`-byte record.
#[inline]
fn segment(len: usize, ordinal: usize) -> (usize, usize) {
    even_partition(len, SEGMENTS as u32 - 1, ordinal)
}

/// The `j`-th ordinal a query probes: the outermost two first, then
/// inwards from both ends — the narrowest shift windows first.
#[inline]
fn probed_ordinal(j: usize) -> usize {
    if j.is_multiple_of(2) {
        j / 2
    } else {
        SEGMENTS - 1 - j / 2
    }
}

/// FNV-1a over the bytes of one segment (or query substring).
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The hash of the posting key `(record length, ordinal, segment
/// bytes)`, avalanched so that its high bits (the bucket) and its low
/// bits (the fingerprint) are independent.
#[inline]
fn segment_key(len: usize, ordinal: usize, bytes_hash: u64) -> u64 {
    let tag = (len as u64) << 5 | ordinal as u64;
    let mut h = bytes_hash ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ h >> 33).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = (h ^ h >> 33).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ h >> 33
}

/// PASS-JOIN's segment index over a sorted view, for search: every
/// record of at least [`SEGMENTS`] bytes is cut into `SEGMENTS` even
/// segments ([`even_partition`]) and each segment is a posting under the
/// key `(record length, ordinal, bytes)`.
///
/// The layout is a CSR over hash buckets, not a map: the key is hashed
/// into `2^⌈log₂ 2n⌉` buckets and each `u32` posting packs the sorted
/// position (high `⌈log₂ n⌉` bits) with a fingerprint of the same hash
/// in the spare low bits — 16 of them on 50,000 reads. The fingerprint
/// is what makes plain buckets usable: several distinct keys share each
/// bucket, and without it every key in a bucket answers for every other
/// (DESIGN §13 measures what that costs). A `HashMap` keyed by
/// the segment bytes is exact, but builds 16× slower and probes 3×
/// slower. Collisions that get past the fingerprint only ever *add*
/// hits, so the filter stays sound: it may over-admit, the kernel decides.
#[derive(Clone, Debug)]
struct SegmentPostings {
    /// Bucket `b` is `postings[starts[b]..starts[b + 1]]`, ascending in
    /// sorted position.
    starts: Vec<u32>,
    /// `position << fp_bits | fingerprint`.
    postings: Vec<u32>,
    /// `64 − log₂(buckets)`: the bucket is the hash's high bits.
    bucket_shift: u32,
    /// Low bits of a posting (and of the hash) that are fingerprint.
    fp_bits: u32,
    /// The first sorted position of a record long enough to cut: the
    /// records before it have no postings and pass on length alone.
    cut_from: usize,
    /// Lengths of the shortest and longest record that was cut: no other
    /// length is worth probing.
    cut_lens: (usize, usize),
}

impl SegmentPostings {
    /// Cuts every record of at least `SEGMENTS` bytes, or returns `None`
    /// when none is that long (or the postings would overflow `u32`
    /// offsets). A counting sort — count, prefix-sum, fill in ascending
    /// position — with `starts` as the only working memory.
    /// `max_fp_bits` caps the fingerprint width (tests force 0).
    fn build(view: &SortedView, max_fp_bits: u32) -> Option<Self> {
        let n = view.len();
        // Length-major order: the records to cut are the view's tail,
        // from the band of length `SEGMENTS` on.
        let cut_from = view.length_band(SEGMENTS, 0).start;
        if cut_from == n {
            return None;
        }
        let cut_lens = (view.record_len(cut_from), view.record_len(n - 1));
        let total = u32::try_from((n - cut_from).checked_mul(SEGMENTS)?).ok()?;
        // Positions are below `n ≤ 2^32`; at least one bit of them, so
        // that `fp_bits < 32` and the shifts below are in range.
        let pos_bits = (u64::BITS - (n as u64 - 1).leading_zeros()).max(1);
        let fp_bits = u32::BITS.saturating_sub(pos_bits).min(max_fp_bits);
        let fp_mask = (1u32 << fp_bits) - 1;
        let bucket_bits = (2 * n).next_power_of_two().trailing_zeros();
        let bucket_shift = u64::BITS - bucket_bits;
        // Calls `each(position, key hash)` for every segment of every cut
        // record, in ascending position.
        let for_each_segment = |each: &mut dyn FnMut(usize, u64)| {
            for pos in cut_from..n {
                let record = view.get(pos);
                for ordinal in 0..SEGMENTS {
                    let (start, len) = segment(record.len(), ordinal);
                    let bytes = hash_bytes(&record[start..start + len]);
                    each(pos, segment_key(record.len(), ordinal, bytes));
                }
            }
        };
        // Bucket `b` is counted two slots up, so that after the prefix
        // sum slot `b + 1` is its start and serves as its fill cursor;
        // the fill leaves every cursor on the next bucket's start, which
        // is the CSR shifted down by one slot.
        let mut starts = vec![0u32; (1usize << bucket_bits) + 2];
        for_each_segment(&mut |_, key| starts[(key >> bucket_shift) as usize + 2] += 1);
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut postings = vec![0u32; total as usize];
        for_each_segment(&mut |pos, key| {
            let cursor = &mut starts[(key >> bucket_shift) as usize + 1];
            postings[*cursor as usize] = (pos as u32) << fp_bits | key as u32 & fp_mask;
            *cursor += 1;
        });
        starts.pop();
        Some(Self {
            starts,
            postings,
            bucket_shift,
            fp_bits,
            cut_from,
            cut_lens,
        })
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        (self.starts.len() + self.postings.len()) * 4
    }

    /// Marks, in `marks` (bit `pos − 64 ⌊range.start / 64⌋`), every
    /// position in `range` the pigeonhole cannot rule out of
    /// `ed(query, record) ≤ k`, for `1 ≤ k ≤ SEGMENT_TAU`: the records
    /// too short to cut, and those with [`HITS`] segment hits among the
    /// `k + HITS` ordinals probed.
    ///
    /// Charge each edit of an optimal alignment to the segment of the
    /// record `x` (length `l`) it falls in. A segment no edit touches, at
    /// `p` in `x`, sits verbatim at `p + s` in the query, where `|s|` is
    /// at most the edits before it and `|(|q| − l) − s|` at most those
    /// after it — so `|s| + |(|q| − l) − s| ≤ k`. At least `SEGMENTS − k`
    /// untouched segments moreover have no more edits before them than
    /// segments before them, and likewise after (walk `edits before −
    /// segments before` along the record: it starts at 0, ends below
    /// `k − SEGMENTS + 1`, and only an untouched segment steps it down, by
    /// one — so every level from 0 to `k − SEGMENTS + 1` is left by one;
    /// DESIGN §13). Call those *good*: ordinal `i` is probed at the shifts
    /// with `|s| ≤ i`, `|(|q| − l) − s| ≤ SEGMENTS − 1 − i` and `|s| +
    /// |(|q| − l) − s| ≤ k` only — PASS-JOIN's multi-match-aware windows,
    /// for every `k ≤ τ` — and a good segment is found in its window. Any
    /// `k + HITS` ordinals miss at most `k` of the good ones, so only
    /// those with the narrowest windows are probed: the outermost, one
    /// shift each, then inwards from both ends. A repeated substring or a
    /// collision adds hits, never removes one.
    fn mark(&self, query: &[u8], k: u32, range: &Range<usize>, marks: &mut [u64]) {
        let (qlen, k_len) = (query.len(), k as usize);
        let first = range.start / LANES * LANES;
        let mut set = |pos: usize| marks[(pos - first) / LANES] |= 1 << (pos % LANES);
        (range.start..range.end.min(self.cut_from)).for_each(&mut set);
        let lens =
            qlen.saturating_sub(k_len).max(self.cut_lens.0)..=(qlen + k_len).min(self.cut_lens.1);
        if lens.is_empty() {
            return;
        }
        // Hashes of every query substring of each segment length in play,
        // once: `sub[(len − shortest) * stride + start]`.
        let shortest = lens.start() / SEGMENTS;
        let longest = lens.end().div_ceil(SEGMENTS).min(qlen);
        let stride = qlen + 1;
        let mut sub = vec![0u64; (longest + 1).saturating_sub(shortest) * stride];
        for len in shortest..=longest {
            for (start, window) in query.windows(len).enumerate() {
                sub[(len - shortest) * stride + start] = hash_bytes(window);
            }
        }
        // Hits per position, counted up to `HITS` only (a position can
        // collect hundreds).
        let mut hits = vec![0u8; range.len()];
        let fp_mask = (1u32 << self.fp_bits) - 1;
        let mut keys: Vec<u64> = Vec::with_capacity(SEGMENTS * SEGMENTS);
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(SEGMENTS * SEGMENTS);
        for l in lens {
            // Shifts with `|s| + |delta − s| ≤ k`: between 0 and `delta`
            // for free, `slack` further on either side.
            let delta = qlen as isize - l as isize;
            let slack = ((k_len - delta.unsigned_abs()) / 2) as isize;
            let (lo, hi) = (delta.min(0) - slack, delta.max(0) + slack);
            keys.clear();
            for ordinal in (0..k_len + HITS).map(probed_ordinal) {
                let (p, len) = segment(l, ordinal);
                if len > qlen {
                    continue;
                }
                let row = &sub[(len - shortest) * stride..][..=qlen - len];
                let (before, after) = (ordinal as isize, (SEGMENTS - 1 - ordinal) as isize);
                let lo = lo.max(-before).max(delta - after);
                let hi = hi.min(before).min(delta + after);
                let from = (p as isize + lo).max(0) as usize;
                let to = ((p as isize + hi).max(-1) + 1) as usize;
                // Two shifts of one segment with the same key (the query
                // repeats itself) are one lookup and at most one hit.
                let mine = keys.len();
                for &bytes in row.iter().take(to).skip(from) {
                    let key = segment_key(l, ordinal, bytes);
                    if !keys[mine..].contains(&key) {
                        keys.push(key);
                    }
                }
            }
            spans.clear();
            spans.extend(keys.iter().map(|&key| {
                let b = (key >> self.bucket_shift) as usize;
                (self.starts[b], self.starts[b + 1])
            }));
            for (&(from, to), &key) in spans.iter().zip(&keys) {
                for &posting in &self.postings[from as usize..to as usize] {
                    let pos = (posting >> self.fp_bits) as usize;
                    if (posting ^ key as u32) & fp_mask != 0 || !range.contains(&pos) {
                        continue;
                    }
                    let count = &mut hits[pos - range.start];
                    *count += u8::from(*count < HITS as u8);
                    if *count == HITS as u8 {
                        set(pos);
                    }
                }
            }
        }
    }
}

/// What a view's lazy cell holds once a V8 sweep has asked for it: the
/// one selection aid its data supports. A property of the data, decided
/// once at build time.
#[derive(Clone, Debug)]
enum Selection {
    /// A large enough alphabet: the bit-sliced occupancy signature.
    Planes(Signature),
    /// A tiny alphabet ([`TINY_ALPHABET_BUCKETS`]) and records long
    /// enough to cut: the segment postings.
    Postings(SegmentPostings),
    /// Neither: the length band alone.
    LengthOnly,
}

impl Selection {
    fn build(view: &SortedView) -> Self {
        if let Some(signature) = Signature::build(&view.sorted) {
            return Self::Planes(signature);
        }
        SegmentPostings::build(view, u32::BITS).map_or(Self::LengthOnly, Self::Postings)
    }
}

/// A dataset re-ordered by length and then by bytes, with adjacency
/// metadata.
///
/// Positions (`0..len()`) address records in *sorted* order; every match
/// is translated back to its record's [`RecordId`] via
/// [`SortedView::original_id`] — the insertion index for
/// [`SortedView::build`], the caller's id for [`SortedView::from_records`]
/// — so result sets stay comparable with every other engine. The records
/// of one length are contiguous ([`SortedView::length_band`]).
///
/// # Examples
///
/// ```
/// use simsearch_data::{Dataset, SortedView};
///
/// let ds = Dataset::from_records(["Ulm", "Bern", "Berlin"]);
/// let sv = SortedView::build(&ds);
/// assert_eq!(sv.get(0), b"Ulm"); // the shortest first
/// assert_eq!(sv.get(1), b"Bern");
/// assert_eq!(sv.get(2), b"Berlin");
/// assert_eq!(sv.lcp(2), 3); // "Ber" shared with "Bern"
/// assert_eq!(sv.original_id(2), 2); // "Berlin" was inserted third
/// assert_eq!(sv.length_band(4, 1), 0..2); // lengths 3 to 5
/// ```
#[derive(Clone, Debug)]
pub struct SortedView {
    /// Records remapped into one contiguous arena in sorted order.
    sorted: Dataset,
    /// `perm[pos]` = id of the record at sorted `pos`: its insertion
    /// index for [`SortedView::build`], the caller's for
    /// [`SortedView::from_records`].
    perm: Vec<RecordId>,
    /// `lcp[pos]` = length of the longest common prefix of the records at
    /// sorted positions `pos - 1` and `pos`; `lcp[0] = 0`.
    lcp: Vec<u32>,
    /// `bands[l]` = the first sorted position whose record is at least
    /// `l` long, for `l` from 0 to one past the longest record (whose
    /// entry is `len()`): one entry for the empty view.
    bands: Vec<u32>,
    /// The selection aid — occupancy planes or segment postings: unset
    /// until the first V8 use (a view only V7 sweeps never pays for it).
    /// Boxed to keep the cell out of the view itself: a `&SortedView`
    /// with interior mutability inline is no longer read-only to the
    /// optimiser, which then reloads every column's address inside the
    /// sweeps' per-record loops (V7 read 4–6 % slower at k ≤ 1 that way;
    /// boxed, its machine code is the parent commit's).
    selection: Box<OnceLock<Selection>>,
}

/// Longest common prefix length of two byte strings.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl SortedView {
    /// The view of a whole dataset, record `i` under id `i`:
    /// [`SortedView::from_records`] over [`Dataset::iter`].
    pub fn build(dataset: &Dataset) -> Self {
        Self::from_records(dataset.iter())
    }

    /// Sorts `(id, record)` pairs by record length, then by record bytes,
    /// ties broken by id (so the permutation is deterministic whatever
    /// order they come in), copies the records into one arena in that
    /// order and computes the LCP array and the length bands. The ids are
    /// the caller's: they come back from [`SortedView::original_id`] and
    /// out of every sweep unchanged. Two views' [`SortedView::iter`]
    /// chained give the view of their union, as a fresh build over it
    /// would.
    pub fn from_records<'r>(records: impl IntoIterator<Item = (RecordId, &'r [u8])>) -> Self {
        let mut pairs: Vec<(&[u8], RecordId)> = records
            .into_iter()
            .map(|(id, record)| (record, id))
            .collect();
        // Pairs that compare equal are identical, so the unstable sort's
        // order is the stable one; and it allocates nothing.
        pairs.sort_unstable_by(|(a, a_id), (b, b_id)| (a.len(), a, a_id).cmp(&(b.len(), b, b_id)));
        let bytes = pairs.iter().map(|(record, _)| record.len()).sum();
        let mut sorted = Dataset::with_capacity(pairs.len(), bytes);
        let mut perm = Vec::with_capacity(pairs.len());
        let mut lcp = Vec::with_capacity(pairs.len());
        let mut bands = Vec::with_capacity(pairs.last().map_or(0, |(record, _)| record.len()) + 2);
        let mut prev: &[u8] = &[];
        for (pos, &(record, id)) in pairs.iter().enumerate() {
            perm.push(id);
            lcp.push(common_prefix(prev, record) as u32);
            // This record starts every length up to its own that no
            // earlier record reaches.
            bands.resize(bands.len().max(record.len() + 1), pos as u32);
            sorted.push(record);
            prev = record;
        }
        bands.push(pairs.len() as u32);
        // Shrunk rather than freed: glibc raises its mmap threshold for
        // good when it frees a mapped block larger than the threshold (a
        // shrink is an `mremap`), and one such free — this buffer, 24
        // bytes a record, or a stable sort's scratch — kept 16 MB more of
        // the `dna_serve` set-up resident (DESIGN §12).
        pairs.clear();
        pairs.shrink_to(1);
        Self {
            sorted,
            perm,
            lcp,
            bands,
            selection: Box::default(),
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

    /// The positions whose records are within `k` of `qlen` in length —
    /// the only ones the length filter `||x| − |q|| ≤ k` admits — as one
    /// contiguous run: two lookups in the band table.
    #[inline]
    pub fn length_band(&self, qlen: usize, k: u32) -> Range<usize> {
        // Lengths past the longest record start where it ends.
        let at = |l: usize| self.bands[l.min(self.bands.len() - 1)] as usize;
        let k = k as usize;
        at(qlen.saturating_sub(k))..at(qlen.saturating_add(k).saturating_add(1))
    }

    /// Translates a sorted position back to its record's id.
    #[inline]
    pub fn original_id(&self, pos: usize) -> RecordId {
        self.perm[pos]
    }

    /// The permutation table: `permutation()[pos]` is the id of the
    /// record at sorted position `pos`.
    pub fn permutation(&self) -> &[RecordId] {
        &self.perm
    }

    /// Builds the view's selection aid — the occupancy signature, or over
    /// a tiny alphabet the segment postings — now rather than inside the
    /// first [`SortedView::for_each_candidate`] call: what an engine that
    /// will sweep this view with V8 calls at build time. Idempotent; costs
    /// a scan of the arena and allocates nothing where neither applies.
    pub fn prepare_signature(&self) {
        self.selection();
    }

    fn selection(&self) -> &Selection {
        self.selection
            .get_or_init(|| Selection::build(self))
    }

    /// Heap bytes the signature holds right now — planes and pair column:
    /// 0 until the first V8 use of this view, and for good over a tiny
    /// alphabet.
    pub fn signature_bytes(&self) -> usize {
        match self.selection.get() {
            Some(Selection::Planes(sig)) => (sig.planes.len() + sig.pairs.len()) * 8,
            _ => 0,
        }
    }

    /// Heap bytes the segment postings hold right now: 0 until the first
    /// V8 use of this view, and for good where the view carries a
    /// signature or no record is long enough to cut.
    pub fn postings_bytes(&self) -> usize {
        match self.selection.get() {
            Some(Selection::Postings(postings)) => postings.bytes(),
            _ => 0,
        }
    }

    /// Heap bytes the view holds right now: the arena and its offsets,
    /// `perm`, `lcp` and the band table, plus
    /// [`SortedView::signature_bytes`] and [`SortedView::postings_bytes`].
    pub fn heap_bytes(&self) -> usize {
        let columns = 4 * (self.len() + 1) + 8 * self.len() + 4 * self.bands.len();
        self.sorted.arena_len() + columns + self.signature_bytes() + self.postings_bytes()
    }

    /// The positions in `range` — inside the band of `query`'s length —
    /// whose records equal `query`: two binary searches over records of
    /// one length, which are in byte order (duplicates are adjacent).
    fn equal_range(&self, query: &[u8], range: Range<usize>) -> Range<usize> {
        // First position in `lo..hi` whose record is not `below`.
        let bound = |mut lo: usize, mut hi: usize, below: fn(&[u8], &[u8]) -> bool| {
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if below(self.get(mid), query) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let lo = bound(range.start, range.end, |record, query| record < query);
        lo..bound(lo, range.end, |record, query| record <= query)
    }

    /// Candidate selection for a sorted-arena sweep: calls
    /// `visit(pos, shared)` in ascending order for every position in
    /// `range` whose record the filters cannot rule out of
    /// `ed(query, record) ≤ k`, where `shared` is the exact common-prefix
    /// length of that record and the previously visited one (0 for the
    /// first) — all a resumable kernel may adopt. Between two records of
    /// one length it is the minimum of `lcp` over the positions in
    /// between; across a length boundary that minimum is only a lower
    /// bound, and the two records are compared.
    ///
    /// The range is first cut to the query's [`SortedView::length_band`],
    /// so every record visited passes the length filter and no record
    /// outside the band is looked at; at `k = 0` it is then narrowed to
    /// the query's equal range. Where the view carries a selection aid
    /// (built here on first use; see the module docs), every record
    /// visited moreover either lacks at most `k` of the query's buckets,
    /// occupies at most `k` the query does not and differs from it in at
    /// most `2k` bigram buckets either way, or, for `k` from 1 to
    /// [`SEGMENT_TAU`], is too short to cut or shares [`HITS`] of the
    /// `k + HITS` segments probed with the query.
    pub fn for_each_candidate(
        &self,
        query: &[u8],
        k: u32,
        range: Range<usize>,
        mut visit: impl FnMut(usize, usize),
    ) {
        let band = self.length_band(query.len(), k);
        let end = range.end.min(band.end);
        let range = range.start.max(band.start).min(end)..end;
        let range = if k == 0 {
            self.equal_range(query, range)
        } else {
            range
        };
        let (start, end) = (range.start, range.end);
        let k_len = k as usize;
        // Hands the lanes of `alive` (positions `base..base + 64`) to
        // `visit`, in ascending order.
        let mut last: Option<usize> = None;
        let mut visit_word = |base: usize, mut alive: u64| {
            while alive != 0 {
                let pos = base + alive.trailing_zeros() as usize;
                alive &= alive - 1;
                let shared = match last {
                    None => 0,
                    Some(prev)
                        if pos - prev <= LCP_FOLD_GAP
                            && self.record_len(prev) == self.record_len(pos) =>
                    {
                        let gap = &self.lcp[prev + 1..=pos];
                        gap.iter().fold(u32::MAX, |min, &l| min.min(l)) as usize
                    }
                    Some(prev) => common_prefix(self.get(prev), self.get(pos)),
                };
                visit(pos, shared);
                last = Some(pos);
            }
        };
        // Both set differences are at most 64, so a wider threshold
        // rejects nothing (and builds nothing).
        let sig = match (k_len < BUCKETS).then(|| self.selection()) {
            Some(Selection::Planes(sig)) => sig,
            Some(Selection::Postings(postings)) if (1..=SEGMENT_TAU).contains(&k) => {
                let words = start / LANES..end.div_ceil(LANES);
                let mut marks = vec![0u64; words.len()];
                postings.mark(query, k, &range, &mut marks);
                for (w, &alive) in words.zip(&marks) {
                    visit_word(w * LANES, alive);
                }
                return;
            }
            _ => {
                // Every record of the band, each after its neighbour: the
                // first in a range restarts from nothing.
                for pos in range {
                    visit(pos, if pos > start { self.lcp(pos) } else { 0 });
                }
                return;
            }
        };
        let query_set = occupancy_set(query);
        // The query's buckets, listed once (on the stack: a `Vec` here
        // cost the sweep 4–5 % at k = 1).
        let mut listed = [0usize; BUCKETS];
        let (mut rest, mut count) = (query_set, 0);
        while rest != 0 {
            listed[count] = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            count += 1;
        }
        let buckets = &listed[..count];
        // The size planes that count against a record: `|S(x)| ≥ v` for
        // `v` from `|S(q)| + 1`, as many as are stored and can matter.
        let larger = BUCKETS + buckets.len();
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
        // The lanes of `alive` (positions `base..base + 64`) whose bigram
        // set differs from the query's by at most `2k` buckets either way
        // (one edit adds at most two buckets to `P` and removes at most
        // two): every lane is tested, none is branched on.
        let (query_pairs, most) = (bigram_set(query), 2 * k);
        let pairs_near = |base: usize, mut alive: u64| {
            let mut lanes = alive;
            while lanes != 0 {
                let lane = lanes.trailing_zeros();
                lanes &= lanes - 1;
                let pairs = sig.pairs[base + lane as usize];
                let far = ((query_pairs & !pairs).count_ones() > most)
                    | ((pairs & !query_pairs).count_ones() > most);
                alive &= !(u64::from(far) << lane);
            }
            alive
        };
        let block_survivors = |planes: &[u64], stride: usize, from: usize, alive| {
            survivors(planes, stride, from, buckets, larger.clone(), k, alive)
        };
        for w in (start / LANES..end.div_ceil(LANES)).step_by(BLOCK) {
            // Lanes of each word inside the range.
            let alive = std::array::from_fn(|i| {
                let base = (w + i) * LANES;
                let lo = start.saturating_sub(base);
                let hi = end.saturating_sub(base).min(LANES);
                if lo < hi {
                    !0 >> (LANES - hi) & !0 << lo
                } else {
                    0
                }
            });
            let block = if w + BLOCK <= sig.words {
                block_survivors(&sig.planes, sig.words, w, alive)
            } else {
                sig.last_block(w, |planes, stride, from| {
                    block_survivors(planes, stride, from, alive)
                })
            };
            for (i, lanes) in block.into_iter().enumerate() {
                let base = (w + i) * LANES;
                visit_word(base, pairs_near(base, lanes));
            }
        }
    }

    /// The remapped (sorted-order) dataset backing this view.
    pub fn sorted_dataset(&self) -> &Dataset {
        &self.sorted
    }

    /// Iterates `(original_id, record)` pairs in sorted order — the input
    /// shape of [`SortedView::from_records`].
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
        let expected: [&[u8]; 6] = [b"", b"Ulm", b"Ulm", b"Bern", b"Berlin", b"Berlingen"];
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
        let Selection::Planes(sig) = sv.selection() else {
            panic!("ten digits and 26 letters carry a signature");
        };
        assert_eq!(sig.words, 3);
        let bit = |plane: usize, pos: usize| sig.planes[plane * 3 + pos / 64] >> (pos % 64) & 1;
        let mut largest = 0;
        for pos in 0..sv.len() {
            assert_eq!(sig.pairs[pos], bigram_set(sv.get(pos)), "pos {pos}");
            let set = occupancy_set(sv.get(pos));
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
        assert_eq!(sig.pairs.len(), sv.len(), "one pair word a record");
        assert_eq!(sv.signature_bytes(), (sig.planes.len() + sv.len()) * 8);
    }

    #[test]
    fn a_narrower_fingerprint_only_adds_visits() {
        // The fingerprint is what keeps a bucket's keys apart: with none
        // of it left every key in a bucket answers for every other, which
        // may cost rejections and never a visit.
        use simsearch_testkit::{check, gen, prop_assert, Config};
        let visits = |sv: &SortedView, query: &[u8], k: u32| {
            let mut visited = Vec::new();
            sv.for_each_candidate(query, k, 0..sv.len(), |pos, _| visited.push(pos));
            visited
        };
        check(
            "a_narrower_fingerprint_only_adds_visits",
            Config::cases(60).seed(0x0050_47ED),
            &gen::zip(
                gen::vec_of(gen::dna_string(SEGMENTS..60), 1..80),
                gen::mutated(gen::dna_string(SEGMENTS..60), 0..9, gen::DNA),
            ),
            |(words, (source, query, _))| {
                let mut records: Vec<&[u8]> = words.iter().map(Vec::as_slice).collect();
                records.push(source);
                let ds = Dataset::from_records(&records);
                let full = SortedView::build(&ds);
                let bare = SortedView::build(&ds);
                let postings = SegmentPostings::build(&bare, 0).expect("records to cut");
                prop_assert!(postings.fp_bits == 0);
                prop_assert!(bare.selection.set(Selection::Postings(postings)).is_ok());
                for k in [1, 4, 8, 12, 16] {
                    let (tight, loose) = (visits(&full, query, k), visits(&bare, query, k));
                    prop_assert!(
                        tight.iter().all(|pos| loose.binary_search(pos).is_ok()),
                        "k = {}: {:?} visited, {:?} without the fingerprint",
                        k,
                        tight,
                        loose
                    );
                }
                let Selection::Postings(with) = full.selection() else {
                    return Err("a DNA view carries postings".into());
                };
                prop_assert!(with.fp_bits >= 24, "{} records leave 24 bits", full.len());
                Ok(())
            },
        );
    }

    #[test]
    fn a_read_needs_three_verbatim_segments_among_the_narrowest_windows() {
        // A 95-symbol read (19 segments of 5) over ACGT, queried with an
        // `N` written into the middle of chosen segments: only the
        // segments left alone can hit.
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(7);
        let read: Vec<u8> = (0..95).map(|_| *rng.choose(b"ACGT")).collect();
        let sv = SortedView::build(&Dataset::from_records([&read]));
        let visited = |spoiled: &[usize], k: u32| {
            let mut query = read.clone();
            for &ordinal in spoiled {
                query[5 * ordinal + 2] = b'N';
            }
            let mut visited = false;
            sv.for_each_candidate(&query, k, 0..1, |_, _| visited = true);
            visited
        };
        for k in 1..=SEGMENT_TAU as usize {
            let probed: Vec<usize> = (0..k + HITS).map(probed_ordinal).collect();
            // `k` edits, all in probed segments: exactly three hits left.
            assert!(visited(&probed[..k], k as u32), "k = {k}");
            // One edit more leaves two, and the segments no query at `k`
            // probes do not count, however many are verbatim.
            assert!(!visited(&probed[..=k], k as u32), "k = {k}");
        }
        assert_eq!(probed_ordinal(0), 0);
        assert_eq!(probed_ordinal(1), SEGMENTS - 1);
        let mut all: Vec<usize> = (0..SEGMENTS).map(probed_ordinal).collect();
        all.sort_unstable();
        assert_eq!(all, (0..SEGMENTS).collect::<Vec<_>>());
    }

    #[test]
    fn iter_pairs_sorted_records_with_original_ids() {
        let ds = Dataset::from_records(["bb", "aa"]);
        let sv = SortedView::build(&ds);
        let pairs: Vec<(RecordId, &[u8])> = sv.iter().collect();
        assert_eq!(pairs, vec![(1, b"aa" as &[u8]), (0, b"bb")]);
    }
}
