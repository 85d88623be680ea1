//! The sequential scanner: one type, every rung of the ladder.
//!
//! [`SequentialScan`] borrows a dataset and can execute a workload under
//! any [`SeqVariant`] — each rung implemented exactly as the paper
//! describes it, including the deliberately wasteful aspects of the early
//! rungs (fresh allocations, value-semantics copies), so that the
//! rung-over-rung speedups of Tables III/VII are reproducible.

use crate::variant::SeqVariant;
use simsearch_data::{Dataset, Match, MatchSet, SortedView, Workload};
use simsearch_distance::{
    ed_within_banded_with, ed_within_early_abort, ed_within_early_abort_with,
    levenshtein_naive_alloc, MyersStackKernel, RowStackKernel,
};
use simsearch_filters::FilterChain;
use simsearch_parallel::{run_queries, Strategy};
use std::ops::Range;
use std::sync::OnceLock;

/// A sequential-scan engine over one dataset.
///
/// Auxiliary structures are lazy: the owned-record container (rungs
/// V1–V3's value-semantics world) and the [`SortedView`] (rung V7) are
/// built on first use — or eagerly via [`SequentialScan::prepare`], so an
/// engine can pay the one-time cost at build time rather than inside the
/// first timed query.
pub struct SequentialScan<'a> {
    dataset: &'a Dataset,
    /// Owned per-record copies, as the paper's base implementation holds
    /// (a container of string objects). Used by rungs V1–V3.
    owned: OnceLock<Vec<Vec<u8>>>,
    /// Lexicographically sorted view with LCP array. Used by rungs V7
    /// and V8.
    sorted: OnceLock<SortedView>,
}

impl<'a> SequentialScan<'a> {
    /// Borrows a dataset. No auxiliary structure is built yet — V4–V6
    /// scans touch neither the owned copies nor the sorted view, which V7
    /// and V8 share.
    pub fn new(dataset: &'a Dataset) -> Self {
        Self {
            dataset,
            owned: OnceLock::new(),
            sorted: OnceLock::new(),
        }
    }

    /// The underlying dataset (with the dataset's own lifetime, so
    /// callers can keep the reference after the scan moves).
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Eagerly builds whatever auxiliary structure `variant` needs
    /// (owned copies for V1–V3, the sorted view for V7/V8, the view's
    /// occupancy signature for V8), so the cost is excluded from query
    /// timing. Idempotent.
    pub fn prepare(&self, variant: SeqVariant) {
        match variant {
            SeqVariant::V1Base | SeqVariant::V2FastEd | SeqVariant::V3Borrowed => {
                self.owned();
            }
            SeqVariant::V7SortedPrefix => {
                self.sorted_view();
            }
            SeqVariant::V8BitParallel => self.sorted_view().prepare_signature(),
            _ => {}
        }
    }

    /// The owned-record container, built on first use.
    fn owned(&self) -> &[Vec<u8>] {
        self.owned.get_or_init(|| self.dataset.to_owned_records())
    }

    /// The sorted view (permutation, remapped arena, LCP array), built on
    /// first use.
    pub fn sorted_view(&self) -> &SortedView {
        self.sorted.get_or_init(|| SortedView::build(self.dataset))
    }

    /// Answers one query under the given rung.
    pub fn search_one(&self, variant: SeqVariant, query: &[u8], k: u32) -> MatchSet {
        match variant {
            SeqVariant::V1Base => self.v1_base(query, k),
            SeqVariant::V2FastEd => self.v2_fast_ed(query, k),
            SeqVariant::V3Borrowed => self.v3_borrowed(query, k),
            // Rungs 4–6 share the flat kernel; 5 and 6 differ only in how
            // whole workloads are scheduled.
            SeqVariant::V4Flat | SeqVariant::V5ThreadPerQuery | SeqVariant::V6Pool { .. } => {
                self.flat_search(query, k)
            }
            SeqVariant::V7SortedPrefix => self.v7_search(query, k).0,
            SeqVariant::V8BitParallel => self.v8_search(query, k).0,
        }
    }

    /// Rung V7 for one query: walk the query's length band of the sorted
    /// view once, resuming the row-stack DP at each record's LCP with its
    /// neighbour. Returns the matches and the number of DP cells
    /// computed (for diagnostics).
    pub fn v7_search(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        v7_search_view(self.sorted_view(), query, k)
    }

    /// Rung V8 for one query: sweep the sorted view once with the
    /// blocked bit-parallel stack kernel, resuming whole Myers words at
    /// each candidate's shared prefix with the last. Returns the matches
    /// and the number of DP cells the advanced words represent (for
    /// diagnostics).
    pub fn v8_search(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        v8_search_view(self.sorted_view(), query, k)
    }

    /// Rung 1: owned copies of query and candidate per comparison, naive
    /// full matrix with fresh nested allocations, no filters.
    fn v1_base(&self, query: &[u8], k: u32) -> MatchSet {
        let mut out = Vec::new();
        for (id, record) in self.owned().iter().enumerate() {
            // Value semantics: both operands are copied for the call,
            // exactly what passing `std::string` by value does in C++.
            let q: Vec<u8> = query.to_vec();
            let c: Vec<u8> = record.clone();
            let d = levenshtein_naive_alloc(&q, &c);
            if d <= k {
                out.push(Match::new(id as u32, d));
            }
        }
        MatchSet::from_unsorted(out)
    }

    /// Rung 2: rung 1 plus the §3.2 improvements — length filter and
    /// decisive-diagonal abort. Copies and per-call buffers remain.
    fn v2_fast_ed(&self, query: &[u8], k: u32) -> MatchSet {
        let mut out = Vec::new();
        for (id, record) in self.owned().iter().enumerate() {
            let q: Vec<u8> = query.to_vec();
            let c: Vec<u8> = record.clone();
            if let Some(d) = ed_within_early_abort(&q, &c, k) {
                out.push(Match::new(id as u32, d));
            }
        }
        MatchSet::from_unsorted(out)
    }

    /// Rung 3: reference semantics — no copies; the DP buffer is still
    /// allocated per comparison (that falls in rung 4's remit).
    fn v3_borrowed(&self, query: &[u8], k: u32) -> MatchSet {
        let mut out = Vec::new();
        for (id, record) in self.owned().iter().enumerate() {
            if let Some(d) = ed_within_early_abort(query, record, k) {
                out.push(Match::new(id as u32, d));
            }
        }
        MatchSet::from_unsorted(out)
    }

    /// Rungs 4–6 kernel: flat arena traversal, one reusable row buffer,
    /// length check from the offsets table before touching record bytes.
    fn flat_search(&self, query: &[u8], k: u32) -> MatchSet {
        let mut rows = Vec::new();
        let mut out = Vec::new();
        let n = self.dataset.len() as u32;
        for id in 0..n {
            if self.dataset.record_len(id).abs_diff(query.len()) > k as usize {
                continue;
            }
            if let Some(d) =
                ed_within_early_abort_with(&mut rows, query, self.dataset.get(id), k)
            {
                out.push(Match::new(id, d));
            }
        }
        MatchSet::from_unsorted(out)
    }

    /// Flat scan whose candidate set comes from a [`FilterChain`] —
    /// the unified filter→verify pipeline the planner's scan backend
    /// runs on. Every admitted candidate is verified with the banded
    /// early-abort kernel, so results are byte-identical to
    /// [`SequentialScan::search_one`] for any sound chain.
    pub fn search_filtered(&self, chain: &FilterChain, query: &[u8], k: u32) -> MatchSet {
        let prepared = chain.prepare(query, k);
        let mut rows = Vec::new();
        let mut out = Vec::new();
        for id in 0..self.dataset.len() as u32 {
            if !prepared.admits(id) {
                continue;
            }
            if let Some(d) =
                ed_within_early_abort_with(&mut rows, query, self.dataset.get(id), k)
            {
                out.push(Match::new(id, d));
            }
        }
        MatchSet::from_unsorted(out)
    }

    /// Runs a whole workload through [`SequentialScan::search_filtered`]
    /// under an explicit executor.
    pub fn run_filtered(
        &self,
        chain: &FilterChain,
        strategy: Strategy,
        workload: &Workload,
    ) -> Vec<MatchSet> {
        run_queries(strategy, workload.len(), |i| {
            let q = &workload.queries[i];
            self.search_filtered(chain, &q.text, q.threshold)
        })
    }
}

/// Flat (V1-style, unsorted) scan for one query over `dataset`,
/// consulting `keep` before every comparison.
///
/// This is the live-ingest memtable's search path: the memtable is an
/// append-only arena where deleted slots are masked by a tombstone set,
/// so the scan must skip rejected slots *without* computing a distance
/// for them. On the kept subset the result is byte-identical to the V1
/// oracle (length filter plus the banded bounded kernel — all kernels
/// agree, oracle-tested in `crates/testkit`).
pub fn flat_search_where(
    dataset: &Dataset,
    query: &[u8],
    k: u32,
    mut keep: impl FnMut(u32) -> bool,
) -> MatchSet {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for id in 0..dataset.len() as u32 {
        if !keep(id) {
            continue;
        }
        if dataset.record_len(id).abs_diff(query.len()) > k as usize {
            continue;
        }
        if let Some(d) = ed_within_banded_with(&mut rows, query, dataset.get(id), k) {
            out.push(Match::new(id, d));
        }
    }
    MatchSet::from_unsorted(out)
}

/// Rung V7 for one query over an externally owned [`SortedView`]: walk
/// the query's length band once, resuming the row-stack DP at each
/// record's LCP with its neighbour.
/// Returns the matches and the number of DP cells computed.
///
/// This is the reusable core behind [`SequentialScan::v7_search`],
/// exposed so callers that own their view (per-shard backends, tools)
/// can run the sorted-prefix scan without borrowing a scanner.
pub fn v7_search_view(sv: &SortedView, query: &[u8], k: u32) -> (MatchSet, u64) {
    let mut dp = RowStackKernel::new(query, k);
    let out = v7_scan_view_range(sv, &mut dp, query, k, 0..sv.len());
    (MatchSet::from_unsorted(out), dp.cells_computed())
}

/// The V7 inner loop over one contiguous range of sorted positions in
/// `sv`.
///
/// The range is first cut to the query's length band
/// ([`SortedView::length_band`]): every record left passes the length
/// filter, so the kernel processes each one right after its neighbour
/// and resumes at their exact shared prefix, `lcp[pos]`.
pub fn v7_scan_view_range(
    sv: &SortedView,
    dp: &mut RowStackKernel,
    query: &[u8],
    k: u32,
    range: Range<usize>,
) -> Vec<Match> {
    let mut out = Vec::new();
    let band = sv.length_band(query.len(), k);
    let start = range.start.max(band.start);
    for pos in start..range.end.min(band.end) {
        // The first record in a range restarts from row zero.
        let shared = if pos > start { sv.lcp(pos) } else { 0 };
        if let Some(d) = dp.resume(sv.get(pos), shared) {
            out.push(Match::new(sv.original_id(pos), d));
        }
    }
    out
}

/// Rung V8 for one query over an externally owned [`SortedView`]: one
/// bit-parallel sweep, resuming Myers blocks at each candidate's shared
/// prefix with the last.
/// Returns the matches and the number of DP cells the advanced words
/// represent (`|query|` per candidate byte processed — the same unit V7
/// reports, so diagnostics stay comparable).
///
/// This is the reusable core behind [`SequentialScan::v8_search`],
/// exposed so callers that own their view (per-shard backends, tools)
/// can run the bit-parallel sweep without borrowing a scanner.
pub fn v8_search_view(sv: &SortedView, query: &[u8], k: u32) -> (MatchSet, u64) {
    let mut dp = MyersStackKernel::new(query, k);
    let out = v8_scan_view_range(sv, &mut dp, query, k, 0..sv.len());
    (MatchSet::from_unsorted(out), dp.cells_computed())
}

/// The V8 inner loop over one contiguous range of sorted positions in
/// `sv`.
///
/// The kernel only sees the survivors of the view's candidate selection
/// ([`SortedView::for_each_candidate`]: the query's length band and, over
/// a large enough alphabet, the bit-sliced occupancy signature), each
/// with its exact shared prefix with the previous survivor — records the
/// filters skipped still constrain how much of the block stack the next
/// one may reuse.
pub fn v8_scan_view_range(
    sv: &SortedView,
    dp: &mut MyersStackKernel,
    query: &[u8],
    k: u32,
    range: Range<usize>,
) -> Vec<Match> {
    let mut out = Vec::new();
    let end = range.end.min(sv.length_band(query.len(), k).end);
    sv.for_each_candidate(query, k, range, |pos, shared| {
        // Lookahead bound: no later record of this length can resume
        // deeper than the next record's LCP (the running minimum only
        // shrinks), so the kernel checkpoints only that many columns
        // and runs the candidate's tail unstacked. The last record of a
        // length keeps them all: the next length's records are not in
        // byte order after it, and may share any prefix of it.
        let keep_limit = match pos + 1 {
            next if next >= end => 0,
            next if sv.record_len(next) == sv.record_len(pos) => sv.lcp(next),
            _ => usize::MAX,
        };
        if let Some(d) = dp.resume_bounded(sv.get(pos), shared, keep_limit) {
            out.push(Match::new(sv.original_id(pos), d));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_data::workload::QueryRecord;
    use simsearch_distance::levenshtein;

    fn dataset() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber", "Ulmen",
        ])
    }

    /// One result set per query of `w`, each answered by `variant`.
    fn answer_all(scan: &SequentialScan, variant: SeqVariant, w: &Workload) -> Vec<MatchSet> {
        w.queries
            .iter()
            .map(|q| scan.search_one(variant, &q.text, q.threshold))
            .collect()
    }

    fn brute_force(ds: &Dataset, q: &[u8], k: u32) -> MatchSet {
        ds.iter()
            .filter_map(|(id, r)| {
                let d = levenshtein(q, r);
                (d <= k).then_some(Match::new(id, d))
            })
            .collect()
    }

    #[test]
    fn every_rung_returns_identical_results() {
        let ds = dataset();
        let scan = SequentialScan::new(&ds);
        for q in ["Berlin", "Bern", "Urm", "", "Xyz"] {
            for k in 0..4 {
                let expected = brute_force(&ds, q.as_bytes(), k);
                for v in SeqVariant::ladder_extended(4) {
                    assert_eq!(
                        scan.search_one(v, q.as_bytes(), k),
                        expected,
                        "variant {v:?} q={q} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_executes_whole_workloads_identically_across_rungs() {
        let ds = dataset();
        let scan = SequentialScan::new(&ds);
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("Bern", 0),
                QueryRecord::new("zzz", 3),
            ],
        };
        let baseline = answer_all(&scan, SeqVariant::V1Base, &workload);
        for v in SeqVariant::ladder_extended(4).into_iter().skip(1) {
            assert_eq!(answer_all(&scan, v, &workload), baseline, "variant {v:?}");
        }
    }

    #[test]
    fn auxiliary_structures_are_lazy() {
        let ds = dataset();
        let scan = SequentialScan::new(&ds);
        scan.search_one(SeqVariant::V4Flat, b"Berlin", 1);
        assert!(scan.owned.get().is_none(), "V4 must not build owned copies");
        assert!(scan.sorted.get().is_none(), "V4 must not sort");
        scan.prepare(SeqVariant::V7SortedPrefix);
        assert!(scan.sorted.get().is_some());
        assert!(scan.owned.get().is_none());
        scan.search_one(SeqVariant::V7SortedPrefix, b"Berlin", 1);
        assert_eq!(
            scan.sorted_view().signature_bytes(),
            0,
            "V7 must not build the occupancy signature"
        );
        scan.prepare(SeqVariant::V8BitParallel);
        assert!(scan.sorted_view().signature_bytes() > 0);
        scan.prepare(SeqVariant::V1Base);
        assert!(scan.owned.get().is_some());
    }

    /// The V7 and V8 sweeps of `sv` cut into `chunks` ranges
    /// (`chunk_ranges`), a fresh kernel on each: every cut a range start
    /// and a range end, where the shared prefix restarts from nothing.
    fn chunked(sv: &SortedView, query: &[u8], k: u32, chunks: usize) -> [MatchSet; 2] {
        let ranges = simsearch_parallel::chunk_ranges(sv.len(), chunks);
        let v7 = ranges.iter().flat_map(|range| {
            let mut dp = RowStackKernel::new(query, k);
            v7_scan_view_range(sv, &mut dp, query, k, range.clone())
        });
        let v8 = ranges.iter().flat_map(|range| {
            let mut dp = MyersStackKernel::new(query, k);
            v8_scan_view_range(sv, &mut dp, query, k, range.clone())
        });
        [v7.collect(), v8.collect()]
    }

    #[test]
    fn v7_and_v8_agree_under_every_executor_and_chunking() {
        let ds = dataset();
        let scan = SequentialScan::new(&ds);
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 1),
                QueryRecord::new("zzz", 3),
            ],
        };
        let baseline = answer_all(&scan, SeqVariant::V1Base, &workload);
        for strategy in [
            Strategy::Sequential,
            Strategy::ThreadPerQuery,
            Strategy::FixedPool { threads: 3 },
            Strategy::WorkQueue { threads: 3 },
            Strategy::Adaptive { max_threads: 3 },
        ] {
            for variant in [SeqVariant::V7SortedPrefix, SeqVariant::V8BitParallel] {
                let got = run_queries(strategy, workload.len(), |i| {
                    let q = &workload.queries[i];
                    scan.search_one(variant, &q.text, q.threshold)
                });
                assert_eq!(got, baseline, "{variant:?} under {}", strategy.name());
            }
        }
        for chunks in [1, 2, 7, 64] {
            for (q, expected) in workload.queries.iter().zip(&baseline) {
                let [v7, v8] = chunked(scan.sorted_view(), &q.text, q.threshold, chunks);
                assert_eq!(&v7, expected, "V7 chunks={chunks}");
                assert_eq!(&v8, expected, "V8 chunks={chunks}");
            }
        }
    }

    /// `count` seeded records over `alphabet` — short names, a few of
    /// 60–70 bytes and of every length in `probe_lens` — and queries of
    /// exactly those lengths: random ones, and records with a few edits.
    fn corpus_and_queries(
        alphabet: &'static [u8],
        count: usize,
        probe_lens: &[usize],
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        use simsearch_testkit::gen;
        let mut rng = simsearch_data::Xoshiro256::seed_from_u64(0x5167 + alphabet.len() as u64);
        let exactly = |len: usize| gen::bytes_from(alphabet, len..len + 1);
        let word = gen::weighted(vec![
            (12, gen::bytes_from(alphabet, 0..14)),
            (1, gen::bytes_from(alphabet, 60..70)),
        ]);
        let mut records: Vec<Vec<u8>> = (0..count).map(|_| word.sample(&mut rng)).collect();
        let mut queries = Vec::new();
        for (at, &len) in probe_lens.iter().enumerate() {
            queries.push(exactly(len).sample(&mut rng));
            let (record, query, _) = gen::mutated(exactly(len), 0..4, alphabet).sample(&mut rng);
            // Spread over the corpus, so every view size below keeps some.
            records[at * 7 % count] = record;
            queries.push(query);
        }
        (records, queries)
    }

    #[test]
    fn v8_equals_the_flat_scan_for_every_alphabet_size_and_threshold() {
        // Through the signature (city, 200 symbols) and around it (DNA):
        // an empty query, thresholds at and past a query's bucket count,
        // at the sliced counter's last width (63) and past it, views on
        // both sides of a 64-position word seam, and chunked sweeps whose
        // range starts and ends fall inside a word.
        use simsearch_testkit::gen;
        for alphabet in [gen::DNA, gen::NAMES, &gen::WIDE] {
            let (records, queries) = corpus_and_queries(alphabet, 320, &[0, 1, 63, 64, 65, 200]);
            for size in [0, 1, 63, 64, 65, 129, 320] {
                let ds = Dataset::from_records(&records[..size]);
                let scan = SequentialScan::new(&ds);
                for q in &queries {
                    for k in [0, 1, 2, 3, 5, 16, 63, 64, 70] {
                        let expected = scan.flat_search(q, k);
                        let context = format!("{} symbols, {size} records, k={k}", alphabet.len());
                        assert_eq!(scan.v8_search(q, k).0, expected, "{context} q={q:?}");
                        for chunks in [3, 7, 65] {
                            let [v7, v8] = chunked(scan.sorted_view(), q, k, chunks);
                            assert_eq!(v7, expected, "V7 {context} chunks={chunks} q={q:?}");
                            assert_eq!(v8, expected, "{context} chunks={chunks} q={q:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn v7_and_v8_reuse_work_across_shared_prefixes() {
        // Records with long shared prefixes: resuming at the shared prefix
        // must cost V7 fewer cells and V8 fewer words than restarting
        // every record from scratch (one range per record).
        let ds = Dataset::from_records([
            "prefix_aaa", "prefix_aab", "prefix_abb", "prefix_bbb", "prefix_bbc",
        ]);
        let sv = SortedView::build(&ds);
        let (query, k) = (b"prefix_abc", 3);
        let sweep = |range: Range<usize>| {
            let mut v7 = RowStackKernel::new(query, k);
            let mut v8 = MyersStackKernel::new(query, k);
            v7_scan_view_range(&sv, &mut v7, query, k, range.clone());
            v8_scan_view_range(&sv, &mut v8, query, k, range);
            (v7.cells_computed(), v8.words_advanced(), v8.words_reused())
        };
        let (cells, words, reused) = sweep(0..sv.len());
        let scratch = (0..sv.len()).map(|pos| sweep(pos..pos + 1));
        let (scratch_cells, scratch_words) = scratch.fold((0, 0), |(c, w), s| (c + s.0, w + s.1));
        assert!(cells < scratch_cells, "V7 {cells} vs {scratch_cells}");
        assert!(words < scratch_words, "V8 {words} vs {scratch_words}");
        assert!(reused > 0);
    }

    #[test]
    fn v8_work_budget_on_dna_reads() {
        // Counts only, no clocks. On a 4-letter alphabet the decisive
        // diagonal passes k = 8 after a handful of columns (0.16 × Σ n/2
        // on this set; a bottom-row abort test reads 0.86 × of it), and
        // the k-band almost never reaches the reads' second block — both
        // measured on what the length filter admits, since the segment
        // postings leave the kernel next to nothing to reject.
        use simsearch_data::{Alphabet, DnaGenerator, WorkloadSpec};
        let ds = DnaGenerator::new(16).genome_len(10_000).generate(2_000);
        let alphabet = Alphabet::from_corpus(ds.records());
        let workload = WorkloadSpec::new(&[8], 20, 17).generate(&ds, &alphabet);
        let sv = SortedView::build(&ds);
        let (mut bytes, mut words, mut half_reads) = (0u64, 0u64, 0u64);
        let (mut reached, mut admitted) = (0u64, 0u64);
        for q in &workload.queries {
            let mut dp = MyersStackKernel::new(&q.text, 8);
            assert_eq!(dp.blocks(), 2, "reads of ≈100 bases span two blocks");
            admitted += length_filtered_sweep(&sv, &mut dp, &q.text, 8);
            bytes += dp.cells_computed() / q.text.len() as u64;
            words += dp.words_advanced();
            half_reads += (0..sv.len())
                .map(|pos| sv.record_len(pos))
                .filter(|n| n.abs_diff(q.text.len()) <= 8)
                .map(|n| n as u64 / 2)
                .sum::<u64>();
            sv.for_each_candidate(&q.text, 8, 0..sv.len(), |_, _| reached += 1);
        }
        assert!(
            3 * bytes <= half_reads,
            "{bytes} candidate bytes advanced against a budget of {half_reads} / 3"
        );
        assert!(
            words < 2 * bytes,
            "{words} words for {bytes} bytes: no block was skipped"
        );
        assert!(
            100 * reached <= admitted,
            "{reached} of {admitted} length survivors reached the kernel"
        );
    }

    /// The sweep with the length filter alone, every survivor handed to
    /// the kernel — what `v8_scan_view_range` does where the view carries
    /// no signature, spelled out as the work budgets' yardstick. Returns
    /// the number of candidates.
    fn length_filtered_sweep(
        sv: &SortedView,
        dp: &mut MyersStackKernel,
        query: &[u8],
        k: u32,
    ) -> u64 {
        let (mut shared, mut candidates) = (0usize, 0);
        for pos in 0..sv.len() {
            shared = shared.min(sv.lcp(pos));
            if sv.record_len(pos).abs_diff(query.len()) > k as usize {
                continue;
            }
            let keep_limit = if pos + 1 < sv.len() { sv.lcp(pos + 1) } else { 0 };
            dp.resume_bounded(sv.get(pos), shared, keep_limit);
            shared = usize::MAX;
            candidates += 1;
        }
        candidates
    }

    #[test]
    fn v8_work_budget_on_city_names() {
        // Counts only, no clocks. Over ≈ 60 symbols the signature leaves
        // the kernel a sliver of what the length filter admits (0.05 % at
        // k = 2 and 0.4 % at k = 3 on 400,000 names, 500 queries a
        // threshold).
        use simsearch_data::sorted::occupancy_set;
        use simsearch_data::{Alphabet, CityGenerator, WorkloadSpec};
        let ds = CityGenerator::new(16).generate(20_000);
        let alphabet = Alphabet::from_corpus(ds.records());
        let workload = WorkloadSpec::new(&[2, 3], 40, 17).generate(&ds, &alphabet);
        let sv = SortedView::build(&ds);
        for k in [2, 3] {
            let (mut reached, mut admitted, mut cells, mut unfiltered_cells) = (0u64, 0, 0, 0);
            for q in workload.queries.iter().filter(|q| q.threshold == k) {
                let mut dp = MyersStackKernel::new(&q.text, k);
                v8_scan_view_range(&sv, &mut dp, &q.text, k, 0..sv.len());
                cells += dp.cells_computed();
                sv.for_each_candidate(&q.text, k, 0..sv.len(), |_, _| reached += 1);
                dp.reset(&q.text, k);
                admitted += length_filtered_sweep(&sv, &mut dp, &q.text, k);
                unfiltered_cells += dp.cells_computed();
            }
            assert!(
                20 * reached <= admitted,
                "k={k}: {reached} of {admitted} length survivors reached the kernel"
            );
            assert!(
                10 * cells <= unfiltered_cells,
                "k={k}: {cells} cells against {unfiltered_cells} without the signature"
            );
        }
        // The bigram column removes what the planes let through and
        // cannot match, so its yield grows with the share of unrelated
        // plane survivors: at k = 3 the kernel receives 0.62 of what the
        // planes and the length filter alone admit on 20,000 names, 0.54
        // on 100,000 and 0.24 on 400,000 (500 queries each; the 100 here
        // read 0.34), the paper's scale, where this budget is set.
        let ds = CityGenerator::new(16).generate(400_000);
        let alphabet = Alphabet::from_corpus(ds.records());
        let workload = WorkloadSpec::new(&[3], 100, 17).generate(&ds, &alphabet);
        let sv = SortedView::build(&ds);
        let sets: Vec<u64> = sv.sorted_dataset().records().map(occupancy_set).collect();
        let (mut reached, mut plane_survivors) = (0u64, 0);
        for q in &workload.queries {
            sv.for_each_candidate(&q.text, 3, 0..sv.len(), |_, _| reached += 1);
            let query_set = occupancy_set(&q.text);
            plane_survivors += (0..sv.len())
                .filter(|&pos| {
                    sv.record_len(pos).abs_diff(q.text.len()) <= 3
                        && (query_set & !sets[pos]).count_ones() <= 3
                        && (sets[pos] & !query_set).count_ones() <= 3
                })
                .count() as u64;
        }
        assert!(
            2 * reached <= plane_survivors,
            "k=3: {reached} of {plane_survivors} plane survivors reached the kernel"
        );
    }

    #[test]
    fn v8_falls_back_to_the_length_filter_past_the_postings() {
        // Five symbols carry no planes, and past k = 16 the segment
        // postings do not apply: there the sweep must not merely agree
        // with the unfiltered one, it must do the same work. Inside the
        // cycle it does less.
        use simsearch_data::{Alphabet, DnaGenerator, WorkloadSpec};
        let ds = DnaGenerator::new(16).genome_len(10_000).generate(2_000);
        let alphabet = Alphabet::from_corpus(ds.records());
        let workload = WorkloadSpec::new(&[4, 8, 16, 17, 24], 20, 17).generate(&ds, &alphabet);
        let sv = SortedView::build(&ds);
        for q in &workload.queries {
            let mut dp = MyersStackKernel::new(&q.text, q.threshold);
            v8_scan_view_range(&sv, &mut dp, &q.text, q.threshold, 0..sv.len());
            let mut unfiltered = MyersStackKernel::new(&q.text, q.threshold);
            length_filtered_sweep(&sv, &mut unfiltered, &q.text, q.threshold);
            assert!(unfiltered.words_advanced() > 0);
            if q.threshold > 16 {
                assert_eq!(dp.words_advanced(), unfiltered.words_advanced());
                assert_eq!(dp.cells_computed(), unfiltered.cells_computed());
            } else {
                assert!(2 * dp.words_advanced() <= unfiltered.words_advanced());
            }
        }
        assert_eq!(sv.signature_bytes(), 0);
        assert!(sv.postings_bytes() > 0);
    }

    #[test]
    fn filtered_scan_matches_the_oracle_for_sound_chains() {
        use simsearch_filters::{FrequencyFilter, LengthFilter};
        let ds = dataset();
        let scan = SequentialScan::new(&ds);
        let chains = [
            FilterChain::new(),
            FilterChain::new().push(LengthFilter::build(&ds)),
            FilterChain::new()
                .push(LengthFilter::build(&ds))
                .push(FrequencyFilter::build(&ds, *b"aeiou")),
        ];
        for chain in &chains {
            for q in ["Berlin", "Urm", "", "Xyzzy"] {
                for k in 0..4 {
                    assert_eq!(
                        scan.search_filtered(chain, q.as_bytes(), k),
                        brute_force(&ds, q.as_bytes(), k),
                        "chain {:?} q={q} k={k}",
                        chain.names()
                    );
                }
            }
        }
        let w = Workload {
            queries: vec![QueryRecord::new("Berlin", 2), QueryRecord::new("", 1)],
        };
        let expected = answer_all(&scan, SeqVariant::V1Base, &w);
        for strategy in [Strategy::Sequential, Strategy::FixedPool { threads: 2 }] {
            assert_eq!(scan.run_filtered(&chains[2], strategy, &w), expected);
        }
    }

    #[test]
    fn empty_dataset_and_empty_workload() {
        let ds = Dataset::new();
        let scan = SequentialScan::new(&ds);
        assert!(scan.search_one(SeqVariant::V4Flat, b"x", 2).is_empty());
        let empty = Workload::default();
        assert!(answer_all(&scan, SeqVariant::V6Pool { threads: 4 }, &empty).is_empty());
    }
}
