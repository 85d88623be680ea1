//! Deterministic compaction oracles: a compaction step is an *atomic*
//! re-layout — it may change where records live, never what queries see.
//!
//! Three layers:
//!
//! 1. **Flush** — a seeded fill past the memtable cap must move exactly
//!    the frozen prefix into a new segment, eliding tombstoned slots
//!    and dropping their tombstones in the same swap.
//! 2. **Tiered merge** — two same-tier segments collapse into one with
//!    their id tables interleaved in order; tombstoned segment records
//!    are elided and the double-delete answer stays `false` forever.
//! 3. **Atomicity under fire** — reader threads hammer queries while a
//!    compactor loops flush/merge steps and a writer churns the
//!    memtable: every observed result must equal the fixed expected
//!    answer (old layout and new layout agree — the churn records are
//!    constructed to never match), with no partial unions and no
//!    double-counted ids.

use simsearch_core::{Backend, LiveEngine, LsmConfig, MutableBackend, ShardBy, ShardedBackend};
use simsearch_data::Dataset;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a race must have seen before it may stop: reader observations
/// (summed over the readers) and completed compaction steps (summed over
/// the compactors).
const RACE_OBSERVATIONS: u64 = 64;
const RACE_STEPS: u64 = 4;

/// The race's stopping rule, counted rather than timed: raises `stop`
/// once the readers have made [`RACE_OBSERVATIONS`] observations *and*
/// the compactors have completed [`RACE_STEPS`] steps. The deadline only
/// bounds a stall, and says what stalled.
fn stop_once_raced(stop: &AtomicBool, observations: &AtomicU64, steps: &AtomicU64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (seen, done) = (
            observations.load(Ordering::Relaxed),
            steps.load(Ordering::Relaxed),
        );
        if seen >= RACE_OBSERVATIONS && done >= RACE_STEPS {
            break;
        }
        if Instant::now() > deadline {
            stop.store(true, Ordering::Relaxed);
            panic!("the race stalled at {seen} observations and {done} compaction steps");
        }
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
}

#[test]
fn a_flush_moves_the_frozen_prefix_and_elides_memtable_tombstones() {
    let engine = LiveEngine::new(LsmConfig { memtable_cap: 4 });
    for w in [&b"aa"[..], b"ab", b"ac", b"ad"] {
        engine.insert(w);
    }
    assert!(engine.delete(1), "tombstone a memtable slot pre-flush");
    let before = engine.stats();
    assert_eq!((before.memtable_len, before.segments, before.tombstones), (4, 0, 1));

    assert!(engine.maybe_compact(), "cap reached: flush is due");

    let after = engine.stats();
    assert_eq!(after.memtable_len, 0, "the whole prefix moved");
    assert_eq!(after.segments, 1);
    assert_eq!(after.segment_records, 3, "the tombstoned slot was elided");
    assert_eq!(after.tombstones, 0, "its tombstone died with it");
    assert_eq!(after.live_records, 3);
    assert_eq!(after.compactions, 1);
    // The surviving ids answer from the segment now; the elided id is
    // gone and its id is never resurrected.
    assert_eq!(engine.search(b"aa", 1).ids(), vec![0, 2, 3]);
    assert!(!engine.delete(1), "elided ids stay deleted");
    assert_eq!(engine.insert(b"ae"), 4, "id allocation ignores elision");
}

#[test]
fn a_flush_leaves_records_inserted_during_the_build_in_the_memtable() {
    // maybe_compact freezes the memtable prefix it saw at plan time;
    // anything appended later must survive in the memtable. With the
    // single-threaded API the plan/swap windows coincide, so drive the
    // same invariant through the public seam: insert, flush, insert.
    let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
    engine.insert(b"one");
    engine.insert(b"two");
    assert!(engine.maybe_compact());
    let id = engine.insert(b"three");
    let stats = engine.stats();
    assert_eq!((stats.memtable_len, stats.segments), (1, 1));
    assert_eq!(engine.search(b"three", 1).ids(), vec![id]);
}

#[test]
fn a_tiered_merge_interleaves_id_tables_and_elides_segment_tombstones() {
    let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
    // Segment A holds ids {0, 1}; segment B holds ids {2, 3}. Same
    // length → same tier → merge candidates.
    engine.insert(b"xaa");
    engine.insert(b"xab");
    assert!(engine.maybe_compact(), "flush A");
    engine.insert(b"xba");
    engine.insert(b"xbb");
    assert!(engine.maybe_compact(), "flush B");
    assert_eq!(engine.stats().segments, 2);
    assert!(engine.delete(1), "tombstone inside segment A");

    assert!(engine.maybe_compact(), "same-tier merge is due");

    let stats = engine.stats();
    assert_eq!(stats.segments, 1, "two tiers collapsed into one segment");
    assert_eq!(stats.segment_records, 3, "the tombstoned record was elided");
    assert_eq!(stats.tombstones, 0);
    assert_eq!(stats.live_records, 3);
    // The merged segment answers with the union's ids, in id order
    // ("xbb" sits at distance 2, outside the k = 1 radius).
    assert_eq!(engine.search(b"xaa", 1).ids(), vec![0, 2]);
    assert!(!engine.delete(1), "double delete after elision stays false");
    // Merging is idempotent at quiescence: nothing further is due.
    assert!(!engine.maybe_compact(), "a single segment has no merge partner");
}

#[test]
fn compaction_to_quiescence_collapses_a_tower_of_tiers() {
    // 8 flushes of 2 records each: the tier-1 segments must cascade —
    // 2+2→4, 4+4→8, … — until no two segments share a tier.
    let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
    for i in 0..16u32 {
        engine.insert(format!("rec{i:02}").as_bytes());
        if i % 2 == 1 {
            assert!(engine.maybe_compact(), "flush {}", i / 2);
        }
    }
    assert_eq!(engine.stats().segments, 8);
    let steps = engine.compact_to_quiescence();
    assert!(steps >= 4, "a tower of equal tiers cascades: {steps} steps");
    let stats = engine.stats();
    assert_eq!(stats.segments, 1, "16 = 2⁴ collapses into a single segment");
    assert_eq!(stats.segment_records, 16);
    assert_eq!(engine.search(b"rec07", 0).ids(), vec![7]);
}

/// The atomicity stress: queries racing a compactor and a writer must
/// only ever see complete snapshots.
///
/// Construction: a fixed corpus of short records is loaded and its
/// expected answers precomputed. A churn thread inserts/deletes *long*
/// records (far outside any query's radius, so they never change an
/// answer) while a compactor thread loops `maybe_compact`. Reader
/// threads assert every result equals the precomputed answer — a
/// partial union (segment missing mid-swap) would drop ids, a
/// double-install would duplicate them, and a torn tombstone set would
/// resurrect deleted records. `MatchSet::from_unsorted` debug-asserts
/// id uniqueness, so double-counting panics rather than passing.
#[test]
fn queries_racing_compaction_see_atomic_snapshots() {
    let engine = Arc::new(LiveEngine::new(LsmConfig { memtable_cap: 8 }));
    // The fixed visible corpus: ids 0..12, short city-like strings.
    let corpus: &[&[u8]] = &[
        b"Berlin", b"Bern", b"Bonn", b"Ulm", b"Berlingen", b"Bermen", b"Ulmen", b"B", b"Born",
        b"Bert", b"Ber", b"Urm",
    ];
    for w in corpus {
        engine.insert(w);
    }
    // Queries and their frozen expected answers (computed before any
    // concurrency starts; the churn below cannot change them).
    let probes: Vec<(&[u8], u32, Vec<u32>)> = [("Bern", 1u32), ("Ulm", 1), ("Ber", 2), ("", 1)]
        .iter()
        .map(|&(q, k)| (q.as_bytes(), k, engine.search(q.as_bytes(), k).ids()))
        .collect();
    for (q, k, expected) in &probes {
        assert!(!expected.is_empty(), "probe {:?} k={k} is non-vacuous", q);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (observations, steps) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let mut handles = Vec::new();

    // Churn: long records (len 40 — no probe is within distance 2 of
    // them) cycle through insert → delete, forcing flushes that carry
    // tombstones and merges that elide them.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let filler = [b'z'; 40];
            let mut live = std::collections::VecDeque::new();
            while !stop.load(Ordering::Relaxed) {
                live.push_back(engine.insert(&filler));
                if live.len() > 6 {
                    let id = live.pop_front().unwrap();
                    assert!(engine.delete(id), "churn ids are always live");
                }
            }
        }));
    }
    // Compactor: loops single steps so readers race every flush/merge
    // swap, not just one.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let steps = Arc::clone(&steps);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if engine.maybe_compact() {
                    steps.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        }));
    }
    // Readers: every observed answer must be exactly the frozen one.
    let mut readers = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let probes = probes.clone();
        let observations = Arc::clone(&observations);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for (q, k, expected) in &probes {
                    let got = engine.search(q, *k);
                    assert_eq!(
                        &got.ids(),
                        expected,
                        "mid-compaction snapshot tore for {:?} k={k}",
                        String::from_utf8_lossy(q)
                    );
                    // Strictly increasing ids ⇒ no duplicates, no
                    // unsorted partial unions.
                    let ids = got.ids();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]));
                    observations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    stop_once_raced(&stop, &observations, &steps);
    for h in handles.into_iter().chain(readers) {
        h.join().expect("churn, compactor or reader thread");
    }
    // The race actually exercised compaction: the engine moved records
    // through segments while the readers watched.
    let stats = engine.stats();
    assert!(stats.compactions >= RACE_STEPS, "compaction ran during the race: {stats:?}");

    // After the dust settles the visible corpus is intact: drain the
    // remaining churn records and compare against a quiesced engine.
    engine.compact_to_quiescence();
    for (q, k, expected) in &probes {
        assert_eq!(&engine.search(q, *k).ids(), expected, "post-race {:?}", q);
    }
}

/// The sharded variant of the atomicity stress — and the proof that
/// compaction is per-shard: one dedicated compactor thread *per shard*
/// loops `compact_shard(i)`, so four compactors run flush/merge swaps
/// concurrently (a global compaction lock would serialise them; worse,
/// it would show up as readers stalling behind unrelated shards). The
/// reader assertion is the same: every cross-shard merged answer equals
/// the frozen expected answer, at every instant.
#[test]
fn sharded_queries_race_per_shard_compactors() {
    let engine = Arc::new(
        ShardedBackend::live(&Dataset::new(), 4, ShardBy::Hash, 1, LsmConfig { memtable_cap: 8 })
            .expect("valid sharded-live config"),
    );
    let corpus: &[&[u8]] = &[
        b"Berlin", b"Bern", b"Bonn", b"Ulm", b"Berlingen", b"Bermen", b"Ulmen", b"B", b"Born",
        b"Bert", b"Ber", b"Urm",
    ];
    for w in corpus {
        engine.insert(w);
    }
    // The hash router spread the corpus: at least two shards hold data
    // (12 records over 4 shards leave one empty only by freak seed —
    // assert the spread so the test really exercises the k-way merge).
    let populated = engine
        .live_shard_stats()
        .expect("live composite reports per-shard stats")
        .iter()
        .filter(|s| s.live_records > 0)
        .count();
    assert!(populated >= 2, "corpus spread over {populated} shards");

    let probes: Vec<(&[u8], u32, Vec<u32>)> = [("Bern", 1u32), ("Ulm", 1), ("Ber", 2), ("", 1)]
        .iter()
        .map(|&(q, k)| (q.as_bytes(), k, engine.search(q.as_bytes(), k).ids()))
        .collect();
    for (q, k, expected) in &probes {
        assert!(!expected.is_empty(), "probe {:?} k={k} is non-vacuous", q);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (observations, steps) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let mut handles = Vec::new();

    // Churn: long records cycle insert → delete across all shards,
    // feeding every shard's memtable so every compactor has work.
    {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut filler = [b'z'; 40];
            let mut live = std::collections::VecDeque::new();
            let mut round = 0u8;
            while !stop.load(Ordering::Relaxed) {
                // Vary a byte so the hash router cycles the target shard.
                filler[0] = b'a' + (round % 26);
                round = round.wrapping_add(1);
                live.push_back(engine.insert(&filler));
                if live.len() > 12 {
                    let id = live.pop_front().unwrap();
                    assert!(engine.delete(id), "churn ids are always live");
                }
            }
        }));
    }
    // One compactor per shard: concurrent flush/merge swaps on disjoint
    // shards, no global lock to serialise them.
    for shard in 0..4 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let steps = Arc::clone(&steps);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if engine.compact_shard(shard) {
                    steps.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let probes = probes.clone();
        let observations = Arc::clone(&observations);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for (q, k, expected) in &probes {
                    let got = engine.search(q, *k);
                    assert_eq!(
                        &got.ids(),
                        expected,
                        "mid-compaction sharded snapshot tore for {:?} k={k}",
                        String::from_utf8_lossy(q)
                    );
                    let ids = got.ids();
                    assert!(ids.windows(2).all(|w| w[0] < w[1]));
                    observations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    stop_once_raced(&stop, &observations, &steps);
    for h in handles.into_iter().chain(readers) {
        h.join().expect("churn, compactor or reader thread");
    }
    let stats = engine.live_stats();
    assert!(stats.compactions >= RACE_STEPS, "compaction ran during the race: {stats:?}");

    engine.compact_to_quiescence();
    for (q, k, expected) in &probes {
        assert_eq!(&engine.search(q, *k).ids(), expected, "post-race {:?}", q);
    }
    // Per-shard gauges stay coherent after the race: sums equal the
    // aggregate the composite reports.
    let per_shard = engine.live_shard_stats().expect("per-shard stats");
    let agg = engine.live_stats();
    assert_eq!(per_shard.iter().map(|s| s.live_records).sum::<usize>(), agg.live_records);
    assert_eq!(per_shard.iter().map(|s| s.compactions).sum::<u64>(), agg.compactions);
}
