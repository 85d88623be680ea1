//! Live ingest: an LSM-shaped mutable engine over the frozen-dataset
//! machinery.
//!
//! Every other backend in this workspace is prepared once from an
//! immutable [`Dataset`] — ideal for benchmark replay, useless for a
//! service that must accept writes. [`LiveEngine`] composes the two
//! results this repository already established into a mutable engine:
//!
//! * the paper's own headline — *flat scans are fast on small sets* —
//!   makes an unsorted append-only **memtable** the natural write
//!   buffer ([`simsearch_scan::flat_search_where`], a V1-style scan
//!   that masks tombstoned slots);
//! * the sorted-arena sweeps are the best frozen-set readers, so
//!   flushed records live in immutable **segments**, each a prepared
//!   [`SortedView`] searched by the kernel its record lengths call for
//!   ([`simsearch_scan::v7_search_view`] for short records,
//!   [`simsearch_scan::v8_search_view`] for long ones);
//! * reads union memtable-first results across segments with the
//!   sharded executor's k-way [`merge_match_sets`]: a segment's view
//!   holds its records under their global ids, so it answers in them,
//!   and only the memtable's slots are remapped ([`remap_to_global`]).
//!
//! # Id space and tombstones
//!
//! Every insert is assigned the next global [`RecordId`], monotonically
//! and never reused; at any instant each live id is physically present
//! in exactly one place (the memtable or one segment), which is what
//! makes the k-way merge's disjointness invariant hold. Deletes are
//! tombstones: the id goes into a set that masks memtable slots before
//! the kernel runs and filters segment results after it. Tombstones
//! always refer to physically present records — compaction is the only
//! thing that makes a record vanish, and it removes the tombstones it
//! elides in the same atomic swap.
//!
//! # Snapshot semantics
//!
//! All mutable state sits behind one `RwLock`. A read holds the read
//! lock across the whole memtable-scan + segment-fan-out + merge, so
//! every query sees one consistent `(memtable, segments, tombstones)`
//! snapshot — never a partial union, never an id in two places.
//! Writes (insert/delete) are short write-lock critical sections.
//!
//! # Compaction
//!
//! [`LiveEngine::maybe_compact`] runs one step: **memtable → segment**
//! when the memtable reaches [`LsmConfig::memtable_cap`], otherwise the
//! first two segments sharing a size tier (⌊log₂ len⌋) merge
//! **segment × segment**. Both elide tombstoned records, and both build
//! the new [`SortedView`] with [`SortedView::from_records`] from borrowed
//! `(id, record)` pairs: a flush from the memtable's live slots (a
//! snapshot of it, taken under the read lock), a merge from the two
//! input views' [`SortedView::iter`] chained, so no merge routine is
//! needed and each record is copied once, into the new arena. That
//! build happens *outside* the lock; the installed swap is a write-lock
//! critical section, so concurrent readers see either the old or the new
//! segment set, atomically. A `Mutex` serialises compactors, which is
//! what makes the plan→build→swap sequence sound: writers may append to
//! the memtable or add tombstones while a compaction builds, but nothing
//! else can remove the frozen prefix or restructure the segment list
//! under it.

use crate::backend::{Backend, BackendDiag};
use crate::sharded::{merge_match_sets, remap_to_global};
use simsearch_data::{Dataset, MatchSet, RecordId, SortedView};
use simsearch_scan::{flat_search_where, v7_search_view, v8_search_view};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The mutation seam: what a serving layer (or a sharded composite)
/// needs from an engine that accepts writes, over and above [`Backend`].
///
/// [`LiveEngine`] is the primitive implementation; a
/// [`crate::sharded::ShardedBackend`] built with live shards implements
/// it too, routing each mutation to the owning shard. Consumers reach
/// it through [`Backend::as_mutable`] and stay agnostic of the shard
/// count.
pub trait MutableBackend: Backend {
    /// Appends one record and returns its global id. Ids are assigned
    /// from one dense, monotone, never-reused space — across every
    /// shard when the implementation is a composite.
    fn insert(&self, record: &[u8]) -> RecordId;

    /// Tombstones `id`. Returns `true` when the id named a live record,
    /// `false` when it was absent or already deleted.
    fn delete(&self, id: RecordId) -> bool;

    /// Runs one compaction step somewhere if one is due; returns
    /// whether any work happened. Composites try each shard in turn —
    /// shards compact independently, there is no global compaction
    /// lock.
    fn maybe_compact(&self) -> bool;

    /// Runs [`MutableBackend::maybe_compact`] until no step is due
    /// anywhere; returns the number of steps taken.
    fn compact_to_quiescence(&self) -> u64 {
        let mut steps = 0;
        while MutableBackend::maybe_compact(self) {
            steps += 1;
        }
        steps
    }

    /// Aggregate LSM statistics (summed across shards for composites).
    fn live_stats(&self) -> LiveStats;

    /// Per-shard LSM statistics, in shard order; `None` for unsharded
    /// engines. When `Some`, the entries sum field-wise to
    /// [`MutableBackend::live_stats`].
    fn live_shard_stats(&self) -> Option<Vec<LiveStats>> {
        self.shard_stats()?.iter().map(|s| s.live).collect()
    }
}

/// Tuning for [`LiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Memtable flush threshold: [`LiveEngine::maybe_compact`] freezes
    /// the memtable into a segment once it holds this many slots
    /// (live or tombstoned).
    pub memtable_cap: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self { memtable_cap: 1024 }
    }
}

/// The kernel a segment answers with, fixed when the segment is built.
/// Both arms read the same prepared [`SortedView`] and return
/// byte-identical results (the `v8_oracle` gate), so the choice is a
/// pure performance decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentArm {
    /// V7 LCP-resumable row-stack DP — its banded early-abort wins
    /// short strings and low thresholds.
    Sorted,
    /// V8 Myers bit-parallel sweep — 64 DP cells a word, where the
    /// banded DP's row grows with `k`.
    BitParallel,
}

impl SegmentArm {
    /// The arm for a segment whose records average `mean_len` bytes.
    fn for_mean_len(mean_len: usize) -> Self {
        // Long records go to the Myers sweep: a typical record spans at
        // least one full 64-cell word, the regime where the banded DP's
        // row count grows with `k`. Short records stay on V7 *on
        // purpose*, although V8's candidate selection
        // (`SortedView::for_each_candidate`) now makes it several times
        // faster on city names: a segment only V7 sweeps never builds
        // the occupancy signature, and moving city segments over took
        // `city_live_mix` `peak_rss_mb` 26.5 → 34.1 MB (+28.7 % against
        // a 10 % bound) — not the signature (< 1 MB) but 3.5× as many
        // operations fitting the benchmark's window, each leaving
        // inserted records, shadow-set entries and latency samples
        // behind. The rule changes once that workload's resident set no
        // longer scales with its throughput (DESIGN §16, *Live shards
        // derive, they do not tick*).
        if mean_len >= 64 {
            SegmentArm::BitParallel
        } else {
            SegmentArm::Sorted
        }
    }
}

/// One immutable sorted segment: a prepared [`SortedView`] over its
/// records under their global ids, those ids ascending, and the kernel
/// that sweeps it.
struct Segment {
    /// The segment's records, sorted, each under its global id — so a
    /// sweep answers in global ids.
    view: SortedView,
    /// The view's permutation, ascending: what `delete` searches and
    /// `tier` counts.
    ids: Vec<RecordId>,
    /// The kernel this segment answers with, from its own mean record
    /// length.
    arm: SegmentArm,
}

impl Segment {
    /// Builds a segment from `(global id, record)` pairs in any order.
    /// Returns `None` for the empty set (no empty segments are ever
    /// installed).
    fn build<'r>(records: impl IntoIterator<Item = (RecordId, &'r [u8])>) -> Option<Arc<Self>> {
        let view = SortedView::from_records(records);
        if view.is_empty() {
            return None;
        }
        let mut ids = view.permutation().to_vec();
        ids.sort_unstable();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let arm = SegmentArm::for_mean_len(view.sorted_dataset().arena_len() / ids.len());
        if arm == SegmentArm::BitParallel {
            // Built with the segment, not inside its first query.
            view.prepare_signature();
        }
        Some(Arc::new(Self { view, ids, arm }))
    }

    /// Size tier for segment×segment compaction: ⌊log₂ len⌋.
    fn tier(&self) -> u32 {
        usize::BITS - 1 - self.ids.len().leading_zeros()
    }

    /// Search with the segment's arm, in global ids (tombstones are the
    /// caller's concern).
    fn search(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        match self.arm {
            SegmentArm::Sorted => v7_search_view(&self.view, query, k),
            SegmentArm::BitParallel => v8_search_view(&self.view, query, k),
        }
    }
}

/// The mutable state, swapped atomically under one `RwLock`.
struct LiveInner {
    /// Append-only memtable arena, insertion order.
    mem: Dataset,
    /// Global id of each memtable slot (strictly increasing: slots are
    /// appended with fresh ids and only compaction removes a prefix).
    mem_ids: Vec<RecordId>,
    /// Deleted ids still physically present in the memtable or a
    /// segment. Invariant: every member is present somewhere.
    tombstones: HashSet<RecordId>,
    /// Immutable segments, each over a disjoint slice of the id space.
    segments: Vec<Arc<Segment>>,
    /// Next global id to assign.
    next_id: RecordId,
}

/// A point-in-time summary of the engine, for `STATS` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Memtable slots (live + tombstoned-but-unflushed).
    pub memtable_len: usize,
    /// Number of immutable segments.
    pub segments: usize,
    /// Records physically held by segments (including tombstoned ones
    /// not yet elided by compaction).
    pub segment_records: usize,
    /// Tombstones not yet elided.
    pub tombstones: usize,
    /// Logically live records (visible to queries).
    pub live_records: usize,
    /// Total inserts accepted.
    pub inserts: u64,
    /// Total deletes that hit a live record.
    pub deletes: u64,
    /// Compaction steps completed (flushes + merges).
    pub compactions: u64,
}

impl LiveStats {
    /// Field-wise accumulation, for summing per-shard stats into a
    /// composite aggregate.
    pub fn accumulate(&mut self, other: &LiveStats) {
        self.memtable_len += other.memtable_len;
        self.segments += other.segments;
        self.segment_records += other.segment_records;
        self.tombstones += other.tombstones;
        self.live_records += other.live_records;
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.compactions += other.compactions;
    }
}

/// The live-ingest engine: memtable + tombstones in front of immutable
/// sorted segments. Implements [`Backend`], so it slots into the same
/// serving/search seam as every frozen engine; the mutation surface
/// ([`LiveEngine::insert`], [`LiveEngine::delete`],
/// [`LiveEngine::maybe_compact`]) is its own.
pub struct LiveEngine {
    inner: RwLock<LiveInner>,
    cfg: LsmConfig,
    /// Serialises compaction's plan→build→swap sequence.
    compact_gate: Mutex<()>,
    compactions: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
}

impl LiveEngine {
    /// An empty engine.
    pub fn new(cfg: LsmConfig) -> Self {
        Self {
            inner: RwLock::new(LiveInner {
                mem: Dataset::new(),
                mem_ids: Vec::new(),
                tombstones: HashSet::new(),
                segments: Vec::new(),
                next_id: 0,
            }),
            cfg,
            compact_gate: Mutex::new(()),
            compactions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        }
    }

    /// Seeds an engine from a frozen dataset: record `i` gets global id
    /// `i`, and the whole load is flushed into one prepared segment so
    /// serving starts on the sorted sweep rather than a giant memtable.
    pub fn from_dataset(dataset: &Dataset, cfg: LsmConfig) -> Self {
        let ids: Vec<RecordId> = (0..dataset.len() as u32).collect();
        Self::seeded(dataset, &ids, dataset.len() as u32, cfg)
    }

    /// Seeds an engine holding an arbitrary slice of a larger id space:
    /// the records of `dataset` named by `ids` (strictly increasing),
    /// each under its own id, and fresh inserts continue from `next_id`.
    /// This is how a sharded composite loads each shard with its
    /// partition of the seed dataset while keeping one global id space.
    pub fn seeded(dataset: &Dataset, ids: &[RecordId], next_id: RecordId, cfg: LsmConfig) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "seed ids must be strictly increasing"
        );
        assert!(
            ids.last().is_none_or(|&g| g < next_id),
            "next_id must be past every seeded id"
        );
        let engine = Self::new(cfg);
        {
            let mut inner = engine.inner.write().expect("lsm lock");
            inner.next_id = next_id;
            if let Some(segment) = Segment::build(ids.iter().map(|&id| (id, dataset.get(id)))) {
                inner.segments.push(segment);
            }
        }
        engine.inserts.store(ids.len() as u64, Ordering::Relaxed);
        engine
    }

    /// Appends one record to the memtable and returns its global id.
    /// Ids are assigned monotonically and never reused.
    pub fn insert(&self, record: &[u8]) -> RecordId {
        let mut inner = self.inner.write().expect("lsm lock");
        let id = inner.next_id;
        Self::append_locked(&mut inner, &self.inserts, record, id);
        id
    }

    /// Appends one record under an externally assigned global id, for
    /// composites that allocate ids centrally and route records to
    /// shards. `id` must be at least this engine's next id (gaps are
    /// fine — they belong to other shards); the memtable id table stays
    /// strictly increasing, so every read-path invariant is preserved.
    pub fn insert_with_id(&self, record: &[u8], id: RecordId) {
        let mut inner = self.inner.write().expect("lsm lock");
        assert!(
            id >= inner.next_id,
            "externally assigned id {id} reuses this shard's id space (next={})",
            inner.next_id
        );
        Self::append_locked(&mut inner, &self.inserts, record, id);
    }

    fn append_locked(inner: &mut LiveInner, inserts: &AtomicU64, record: &[u8], id: RecordId) {
        assert!(id < u32::MAX, "global id space exhausted");
        inner.next_id = id + 1;
        inner.mem.push(record);
        inner.mem_ids.push(id);
        inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Tombstones `id`. Returns `true` when the id named a live record,
    /// `false` when it was absent or already deleted.
    pub fn delete(&self, id: RecordId) -> bool {
        let mut inner = self.inner.write().expect("lsm lock");
        if inner.tombstones.contains(&id) {
            return false;
        }
        let present = inner.mem_ids.binary_search(&id).is_ok()
            || inner
                .segments
                .iter()
                .any(|s| s.ids.binary_search(&id).is_ok());
        if !present {
            return false;
        }
        inner.tombstones.insert(id);
        self.deletes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One consistent threshold search across the memtable and every
    /// segment: flat scan over live memtable slots, each segment's own
    /// kernel, tombstone filtering, then the k-way merge. The read
    /// lock is held across the whole union, so the result reflects one
    /// atomic `(memtable, segments, tombstones)` snapshot.
    fn search_snapshot(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        let inner = self.inner.read().expect("lsm lock");
        let mut parts = Vec::with_capacity(inner.segments.len() + 1);
        // Memtable first: tombstones mask slots before the kernel runs.
        let mem_local = flat_search_where(&inner.mem, query, k, |slot| {
            !inner.tombstones.contains(&inner.mem_ids[slot as usize])
        });
        parts.push(remap_to_global(&mem_local, &inner.mem_ids));
        let mut cells = 0u64;
        for segment in &inner.segments {
            let (found, segment_cells) = segment.search(query, k);
            cells += segment_cells;
            // Segments hold tombstoned records until compaction elides
            // them.
            let live = found.iter().filter(|m| !inner.tombstones.contains(&m.id));
            parts.push(live.copied().collect());
        }
        (merge_match_sets(&parts), cells)
    }

    /// A point-in-time summary (one read-lock acquisition).
    pub fn stats(&self) -> LiveStats {
        let inner = self.inner.read().expect("lsm lock");
        let segment_records: usize = inner.segments.iter().map(|s| s.ids.len()).sum();
        LiveStats {
            memtable_len: inner.mem_ids.len(),
            segments: inner.segments.len(),
            segment_records,
            tombstones: inner.tombstones.len(),
            // Tombstones only ever name present records, so live =
            // physically present − tombstoned.
            live_records: inner.mem_ids.len() + segment_records - inner.tombstones.len(),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Runs one compaction step if one is due; returns whether any work
    /// happened. Flush has priority (a full memtable is the latency
    /// hazard); otherwise the first two segments sharing a size tier
    /// merge. Call in a loop to compact to quiescence.
    ///
    /// The heavy work — sorting the new segment — runs without holding
    /// the engine lock; only the final swap takes the write lock, so
    /// concurrent readers always see either the old or the new segment
    /// set in full.
    pub fn maybe_compact(&self) -> bool {
        let _gate = self.compact_gate.lock().expect("compaction gate");

        // Plan: snapshot what to compact under a read lock.
        enum Plan {
            Flush {
                frozen: Dataset,
                ids: Vec<RecordId>,
                tombs: HashSet<RecordId>,
            },
            Merge {
                a: Arc<Segment>,
                b: Arc<Segment>,
                tombs: HashSet<RecordId>,
            },
        }
        let plan = {
            let inner = self.inner.read().expect("lsm lock");
            if !inner.mem_ids.is_empty() && inner.mem_ids.len() >= self.cfg.memtable_cap {
                Plan::Flush {
                    frozen: inner.mem.clone(),
                    ids: inner.mem_ids.clone(),
                    tombs: inner.tombstones.clone(),
                }
            } else {
                let mut pair = None;
                'outer: for i in 0..inner.segments.len() {
                    for j in i + 1..inner.segments.len() {
                        if inner.segments[i].tier() == inner.segments[j].tier() {
                            pair = Some((i, j));
                            break 'outer;
                        }
                    }
                }
                match pair {
                    Some((i, j)) => Plan::Merge {
                        a: Arc::clone(&inner.segments[i]),
                        b: Arc::clone(&inner.segments[j]),
                        tombs: inner.tombstones.clone(),
                    },
                    None => return false,
                }
            }
        };

        // Build the replacement segment lock-free, then swap.
        match plan {
            Plan::Flush { frozen, ids, tombs } => {
                let frozen_len = ids.len();
                // Tombstoned slots are elided here and their tombstones
                // dropped at swap time.
                let segment = Segment::build(
                    ids.iter()
                        .enumerate()
                        .filter(|(_, id)| !tombs.contains(id))
                        .map(|(slot, &id)| (id, frozen.get(slot as u32))),
                );
                let mut inner = self.inner.write().expect("lsm lock");
                // The compaction gate guarantees the frozen prefix is
                // still the memtable's prefix: writers only append.
                debug_assert!(inner.mem_ids.len() >= frozen_len);
                debug_assert_eq!(&inner.mem_ids[..frozen_len], &ids[..]);
                let rest: Dataset = (frozen_len..inner.mem_ids.len())
                    .map(|slot| inner.mem.get(slot as u32).to_vec())
                    .collect();
                inner.mem = rest;
                inner.mem_ids.drain(..frozen_len);
                if let Some(segment) = segment {
                    inner.segments.push(segment);
                }
                for id in ids.iter().filter(|id| tombs.contains(id)) {
                    inner.tombstones.remove(id);
                }
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
            Plan::Merge { a, b, tombs } => {
                // Both inputs' records, minus the tombstoned ones: their
                // view is the merged segment.
                let merged = Segment::build(
                    a.view
                        .iter()
                        .chain(b.view.iter())
                        .filter(|(id, _)| !tombs.contains(id)),
                );
                let mut inner = self.inner.write().expect("lsm lock");
                // Only compaction restructures the segment list, and
                // the gate serialises compactions — both inputs must
                // still be installed.
                for input in [&a, &b] {
                    let pos = inner
                        .segments
                        .iter()
                        .position(|s| Arc::ptr_eq(s, input))
                        .expect("merge input vanished");
                    inner.segments.remove(pos);
                }
                if let Some(merged) = merged {
                    inner.segments.push(merged);
                }
                for id in a.ids.iter().chain(&b.ids).filter(|id| tombs.contains(id)) {
                    inner.tombstones.remove(id);
                }
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }
}

impl Backend for LiveEngine {
    fn name(&self) -> String {
        format!("live[lsm/cap={}]", self.cfg.memtable_cap)
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_snapshot(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.search_snapshot(query, k)
    }

    fn diag(&self) -> BackendDiag {
        let stats = self.stats();
        let inner = self.inner.read().expect("lsm lock");
        // The memtable's arena, offsets and ids; each segment's view and
        // ids.
        let memtable = inner.mem.arena_len() + 4 * (inner.mem.len() + 1) + 4 * inner.mem_ids.len();
        let bytes = memtable
            + inner
                .segments
                .iter()
                .map(|s| s.view.heap_bytes() + 4 * s.ids.len())
                .sum::<usize>();
        BackendDiag {
            name: self.name(),
            structure: Some((stats.segments, bytes)),
            filters: vec!["length", "tombstone"],
            plan: None,
        }
    }

    fn as_mutable(&self) -> Option<&dyn MutableBackend> {
        Some(self)
    }
}

impl MutableBackend for LiveEngine {
    fn insert(&self, record: &[u8]) -> RecordId {
        LiveEngine::insert(self, record)
    }

    fn delete(&self, id: RecordId) -> bool {
        LiveEngine::delete(self, id)
    }

    fn maybe_compact(&self) -> bool {
        LiveEngine::maybe_compact(self)
    }

    fn live_stats(&self) -> LiveStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, SearchEngine};
    use crate::topk::search_top_k_with;
    use simsearch_scan::SeqVariant;

    /// The oracle: a fresh V1 engine over the surviving records, its
    /// local ids remapped back through the survivor table.
    fn oracle(survivors: &[(RecordId, Vec<u8>)], query: &[u8], k: u32) -> MatchSet {
        let data = Dataset::from_records(survivors.iter().map(|(_, r)| r.as_slice()));
        let globals: Vec<RecordId> = survivors.iter().map(|(id, _)| *id).collect();
        let v1 = SearchEngine::build(&data, EngineKind::Scan(SeqVariant::V1Base));
        remap_to_global(&v1.search(query, k), &globals)
    }

    #[test]
    fn empty_engine_answers_empty() {
        let engine = LiveEngine::new(LsmConfig::default());
        assert_eq!(engine.search(b"anything", 3), MatchSet::default());
        assert!(!engine.maybe_compact());
        assert_eq!(engine.stats().live_records, 0);
    }

    #[test]
    fn inserts_become_visible_and_ids_are_monotone() {
        let engine = LiveEngine::new(LsmConfig::default());
        let a = engine.insert(b"Berlin");
        let b = engine.insert(b"Bern");
        assert_eq!((a, b), (0, 1));
        let got = engine.search(b"Berlin", 2);
        assert_eq!(got.ids(), vec![0, 1]);
    }

    #[test]
    fn deletes_mask_memtable_and_segment_records() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
        engine.insert(b"Berlin");
        engine.insert(b"Bern");
        assert!(engine.maybe_compact(), "flush at cap");
        engine.insert(b"Bonn");
        assert!(engine.delete(0), "segment record");
        assert!(engine.delete(2), "memtable record");
        assert!(!engine.delete(0), "double delete");
        assert!(!engine.delete(99), "absent id");
        let got = engine.search(b"Bern", 2);
        assert_eq!(got.ids(), vec![1]);
    }

    #[test]
    fn seeded_engine_matches_its_source_dataset() {
        let data = Dataset::from_records(["Berlin", "Bern", "", "Ulm", "Bonn"]);
        let engine = LiveEngine::from_dataset(&data, LsmConfig::default());
        let v1 = SearchEngine::build(&data, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Bern", "", "Urm"] {
            for k in 0..4 {
                assert_eq!(
                    engine.search(q.as_bytes(), k),
                    v1.search(q.as_bytes(), k),
                    "q={q} k={k}"
                );
            }
        }
        assert_eq!(engine.stats().segments, 1);
        assert_eq!(engine.stats().memtable_len, 0);
    }

    #[test]
    fn churn_with_compaction_matches_the_v1_rebuild_oracle() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 3 });
        let mut survivors: Vec<(RecordId, Vec<u8>)> = Vec::new();
        let words: &[&[u8]] = &[
            b"Berlin", b"Bern", b"Bonn", b"Ulm", b"", b"Berlingen", b"B", b"Ulmen", b"Bermen",
        ];
        for (round, w) in words.iter().enumerate() {
            let id = engine.insert(w);
            survivors.push((id, w.to_vec()));
            if round % 3 == 2 {
                let victim = survivors.remove(round % survivors.len()).0;
                assert!(engine.delete(victim));
            }
            engine.maybe_compact();
            for q in ["Bern", "Ulm", ""] {
                for k in 0..3 {
                    assert_eq!(
                        engine.search(q.as_bytes(), k),
                        oracle(&survivors, q.as_bytes(), k),
                        "round {round} q={q} k={k}"
                    );
                }
            }
        }
        engine.compact_to_quiescence();
        let stats = engine.stats();
        assert!(stats.compactions > 0);
        assert_eq!(stats.live_records, survivors.len());
        for q in ["Bern", "Ulm", ""] {
            assert_eq!(engine.search(q.as_bytes(), 2), oracle(&survivors, q.as_bytes(), 2));
        }
    }

    #[test]
    fn tombstones_are_elided_by_both_compaction_kinds() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
        engine.insert(b"aa");
        engine.insert(b"ab");
        assert!(engine.delete(1));
        assert!(engine.maybe_compact(), "flush elides the memtable tombstone");
        assert_eq!(engine.stats().tombstones, 0);
        assert_eq!(engine.stats().segment_records, 1);

        engine.insert(b"ba");
        engine.insert(b"bb");
        assert!(engine.delete(2));
        assert!(engine.maybe_compact(), "second flush");
        assert_eq!(engine.stats().segments, 2, "two same-tier segments");
        assert!(engine.delete(0), "tombstone a segment record");
        assert!(engine.maybe_compact(), "tiered merge elides it");
        let stats = engine.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.tombstones, 0);
        assert_eq!(stats.segment_records, 1);
        assert_eq!(engine.search(b"bb", 1).ids(), vec![3]);
    }

    #[test]
    fn a_merged_segment_is_the_view_of_its_survivors() {
        // Two flushes of four, with "Ulm" and "Bern" in both; one record
        // of each flush is tombstoned before the two segments merge.
        let words: [&[u8]; 8] = [
            b"Ulm", b"Bern", b"Berlin", b"", b"Bern", b"Bonn", b"Ulm", b"Ulmen",
        ];
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 4 });
        for w in words {
            engine.insert(w);
            if engine.stats().memtable_len == 4 {
                assert!(engine.maybe_compact(), "flush at cap");
            }
        }
        assert!(engine.delete(2) && engine.delete(7));
        assert_eq!(engine.compact_to_quiescence(), 1, "one merge");
        {
            let inner = engine.inner.read().expect("lsm lock");
            let [merged] = &inner.segments[..] else {
                panic!("{} segments", inner.segments.len());
            };
            let fresh = SortedView::from_records(
                (0u32..).zip(words).filter(|(id, _)| ![2, 7].contains(id)),
            );
            assert!(merged.view.iter().eq(fresh.iter()), "ids and records");
            assert!((0..fresh.len()).all(|pos| merged.view.lcp(pos) == fresh.lcp(pos)));
            assert!(merged.ids.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(merged.ids, [0, 1, 3, 4, 5, 6]);
            assert_eq!(inner.tombstones.len(), 0, "both elided");
        }
        assert!(engine.delete(4), "an id the merge moved");
        assert!(!engine.delete(4));
        assert_eq!(engine.search(b"Bern", 0).ids(), vec![1]);
    }

    #[test]
    fn diag_counts_the_bytes_the_engine_holds() {
        // "name0" to "name999": 6,890 bytes of arena in one V7 segment,
        // which builds no signature.
        let data = Dataset::from_records((0..1000).map(|i| format!("name{i}")));
        let engine = LiveEngine::from_dataset(&data, LsmConfig::default());
        // The view's arena, 1,001 offsets, perm, lcp and the band table
        // (lengths 0 to 8); the segment's ids; the empty memtable's one
        // offset.
        let seeded = 6_890 + 4 * 1_001 + 2 * 4 * 1_000 + 4 * 9 + 4 * 1_000 + 4;
        assert_eq!(engine.diag().structure, Some((1, seeded)));
        // An insert: six bytes of arena, one offset, one id.
        engine.insert(b"Berlin");
        assert_eq!(engine.diag().structure, Some((1, seeded + 6 + 4 + 4)));
        // A V8 segment counts the signature it built with itself.
        let long: Vec<Vec<u8>> = (0..100).map(|i| vec![b'a' + i % 26; 100]).collect();
        let engine = LiveEngine::from_dataset(&Dataset::from_records(&long), LsmConfig::default());
        let signature = engine.inner.read().expect("lsm lock").segments[0]
            .view
            .signature_bytes();
        assert!(signature > 0);
        let held = 100 * 100 + 4 * 101 + 2 * 4 * 100 + 4 * 102 + signature + 4 * 100 + 4;
        assert_eq!(engine.diag().structure, Some((1, held)));
    }

    #[test]
    fn a_segment_picks_its_kernel_from_its_own_record_lengths() {
        // Long records over a wide alphabet: every flushed or merged
        // segment takes the bit-parallel arm — and builds its signature
        // — at build time, with no tick in between.
        let long: Vec<Vec<u8>> = (0..9u32)
            .map(|i| (0..100u32).map(|j| b'a' + ((i * 7 + j * 3) % 26) as u8).collect())
            .collect();
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 4 });
        let mut survivors = Vec::new();
        let agrees = |engine: &LiveEngine, survivors: &[(RecordId, Vec<u8>)], stage: &str| {
            for q in [&long[0][..80], &long[5][..], &long[8][10..]] {
                for k in [0, 4, 16, 30] {
                    assert_eq!(engine.search(q, k), oracle(survivors, q, k), "{stage} k={k}");
                }
            }
        };
        for r in &long[..8] {
            let id = engine.insert(r);
            survivors.push((id, r.clone()));
            if engine.stats().memtable_len == 4 {
                assert!(engine.maybe_compact(), "flush at cap");
            }
        }
        {
            let inner = engine.inner.read().expect("live lock");
            assert_eq!(inner.segments.len(), 2, "two flushes, nothing merged yet");
            for s in &inner.segments {
                assert_eq!(s.arm, SegmentArm::BitParallel);
                assert!(s.view.signature_bytes() > 0, "no build left for the first query");
            }
        }
        let id = engine.insert(&long[8]);
        survivors.push((id, long[8].clone()));
        assert!(engine.delete(2), "tombstone a segment record");
        survivors.retain(|(id, _)| *id != 2);
        agrees(&engine, &survivors, "two segments + memtable");
        assert_eq!(engine.compact_to_quiescence(), 1, "one merge");
        {
            let inner = engine.inner.read().expect("live lock");
            assert_eq!(inner.segments.len(), 1);
            assert_eq!(inner.segments[0].arm, SegmentArm::BitParallel);
        }
        agrees(&engine, &survivors, "merged");

        // Short city-like records stay on V7 even when fully flushed,
        // and a segment only V7 sweeps never builds V8's signature.
        let city = LiveEngine::new(LsmConfig { memtable_cap: 4 });
        for w in [&b"Berlin"[..], b"Bern", b"Bonn", b"Ulm"] {
            city.insert(w);
        }
        assert!(city.maybe_compact());
        assert_eq!(city.search(b"Bern", 1).len(), 1);
        let inner = city.inner.read().expect("live lock");
        assert!(inner.segments.iter().all(|s| s.arm == SegmentArm::Sorted));
        assert!(inner.segments.iter().all(|s| s.view.signature_bytes() == 0));
    }

    #[test]
    fn topk_agrees_with_a_v1_rebuild() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
        let mut survivors = Vec::new();
        for w in [&b"Berlin"[..], b"Bern", b"Bonn", b"Ulm", b"Ber"] {
            let id = engine.insert(w);
            survivors.push((id, w.to_vec()));
            engine.maybe_compact();
        }
        assert!(engine.delete(2));
        survivors.retain(|(id, _)| *id != 2);
        for k in [1usize, 3, 10] {
            let (want, _) = search_top_k_with(|r| (oracle(&survivors, b"Bern", r), 0), k, 16);
            let (got, _) = search_top_k_with(|r| engine.search_counting(b"Bern", r), k, 16);
            assert_eq!(got, want, "k={k}");
        }
    }
}
