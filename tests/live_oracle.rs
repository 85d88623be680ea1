//! The live-ingest oracle: mutability is an *implementation* decision,
//! never a correctness one.
//!
//! After any interleaving of INSERT / DELETE / QUERY / TOPK / COMPACT,
//! a [`LiveEngine`] must answer exactly like a fresh V1 flat scan
//! rebuilt from the surviving records — the simplest engine this
//! repository trusts, over the simplest possible state. Two layers:
//!
//! 1. **Property level** — random interleavings (collision-rich city
//!    strings, tiny memtable caps so flushes and merges fire
//!    constantly, deletes aimed at live, dead, and absent ids) replay
//!    against both the engine and a model; every QUERY/TOPK must agree
//!    with the V1 rebuild, byte for byte. Failures shrink to a minimal
//!    interleaving via the testkit's greedy shrinker.
//! 2. **Executor level** — after a deterministic churn (seed load,
//!    inserts, deletes, interleaved compaction), a 1,000-query workload
//!    must return identical match sets under every executor × thread
//!    count {1, 4, 8}, matching the V1 rebuild remapped through the
//!    surviving-id table.

use simsearch_core::{
    search_top_k_with, Backend, EngineKind, LiveEngine, LiveStats, LsmConfig, MutableBackend,
    SearchEngine, SeqVariant, ShardBy, ShardedBackend, Strategy,
};
use simsearch_data::{Alphabet, CityGenerator, Dataset, Match, MatchSet, WorkloadSpec};
use simsearch_testkit::{check, gen, prop_assert, prop_assert_eq, Config, Gen, Shrink};

const SEED: u64 = 0x0006_11FE;

/// One step of a live-ingest interleaving. `Delete` carries a raw
/// draw resolved against the id space at replay time (`raw % (next+1)`)
/// so shrinking an id keeps the op meaningful instead of drifting to
/// always-absent targets.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Insert(Vec<u8>),
    Delete(u32),
    Query(Vec<u8>, u32),
    TopK(Vec<u8>, u32),
    Compact,
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Self> {
        match self {
            Op::Insert(text) => text.shrink().into_iter().map(Op::Insert).collect(),
            Op::Delete(raw) => raw.shrink().into_iter().map(Op::Delete).collect(),
            Op::Query(text, k) => (text.clone(), *k)
                .shrink()
                .into_iter()
                .map(|(t, k)| Op::Query(t, k))
                .collect(),
            Op::TopK(text, k) => (text.clone(), *k)
                .shrink()
                .into_iter()
                .map(|(t, k)| Op::TopK(t, k))
                .collect(),
            Op::Compact => Vec::new(),
        }
    }
}

fn op_gen() -> Gen<Op> {
    let text = || gen::city_string(0..8);
    let k = || gen::u32_in(0..4);
    gen::weighted(vec![
        (4, text().map(Op::Insert)),
        (2, gen::u32_in(0..64).map(Op::Delete)),
        (3, gen::zip(text(), k()).map(|(t, k)| Op::Query(t, k))),
        (2, gen::zip(text(), k()).map(|(t, k)| Op::TopK(t, k))),
        (1, gen::constant(Op::Compact)),
    ])
}

/// The oracle: a fresh V1 flat-scan engine over the survivors, local
/// ids mapped back through the (strictly increasing) survivor table.
fn v1_rebuild(survivors: &[(u32, Vec<u8>)]) -> (Box<dyn Backend + 'static>, Vec<u32>) {
    let data: Dataset = survivors.iter().map(|(_, r)| r.as_slice()).collect();
    let globals: Vec<u32> = survivors.iter().map(|(id, _)| *id).collect();
    // `SearchEngine::build` borrows the dataset; the V1 scan clones what it
    // needs, but keep ownership simple by leaking nothing: rebuild per
    // call sites below are all short-lived.
    let backend = build_backend_owned(data);
    (backend, globals)
}

/// A V1 backend that owns its dataset (the borrowed `SearchEngine::build`
/// tied to a stack-local `Dataset` can't escape the function).
fn build_backend_owned(data: Dataset) -> Box<dyn Backend + 'static> {
    struct Owned {
        data: Dataset,
    }
    impl Backend for Owned {
        fn name(&self) -> String {
            "v1-rebuild".into()
        }
        fn search(&self, query: &[u8], k: u32) -> MatchSet {
            SearchEngine::build(&self.data, EngineKind::Scan(SeqVariant::V1Base))
                .backend()
                .search(query, k)
        }
        fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
            SearchEngine::build(&self.data, EngineKind::Scan(SeqVariant::V1Base))
                .backend()
                .search_counting(query, k)
        }
        fn diag(&self) -> simsearch_core::BackendDiag {
            SearchEngine::build(&self.data, EngineKind::Scan(SeqVariant::V1Base))
                .backend()
                .diag()
        }
    }
    Box::new(Owned { data })
}

fn remap(local: &MatchSet, globals: &[u32]) -> MatchSet {
    MatchSet::from_unsorted(
        local
            .iter()
            .map(|m| Match::new(globals[m.id as usize], m.distance))
            .collect(),
    )
}

/// A constructor for one mutable engine arrangement: seeds a backend
/// from a dataset (possibly empty) and a memtable cap.
type MutableFactory = Box<dyn Fn(&Dataset, usize) -> Box<dyn MutableBackend>>;

/// The live engines under test: the unsharded LSM engine plus every
/// shard count the sharded composite is expected to serve.
fn mutable_configs() -> Vec<(String, MutableFactory)> {
    let mut configs: Vec<(String, MutableFactory)> =
        vec![(
            "live".into(),
            Box::new(|data, cap| {
                Box::new(LiveEngine::from_dataset(data, LsmConfig { memtable_cap: cap }))
            }),
        )];
    for (shards, by) in [
        (1, ShardBy::Len),
        (1, ShardBy::Hash),
        (2, ShardBy::Hash),
        (4, ShardBy::Hash),
    ] {
        configs.push((
            format!("sharded-live s={shards}/{by:?}"),
            Box::new(move |data, cap| {
                Box::new(
                    ShardedBackend::live(data, shards, by, 1, LsmConfig { memtable_cap: cap })
                        .expect("valid sharded-live config"),
                )
            }),
        ));
    }
    configs
}

/// Replays one interleaving against the engine and the model, checking
/// every read against the V1 rebuild. Returns an error (for shrinking)
/// on the first divergence.
fn replay_on(engine: &dyn MutableBackend, memtable_cap: usize, ops: &[Op]) -> Result<(), String> {
    let mut survivors: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut next_id = 0u32;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(text) => {
                let id = engine.insert(text);
                prop_assert_eq!(id, next_id, "step {step}: ids are dense and monotone");
                survivors.push((id, text.clone()));
                next_id += 1;
            }
            Op::Delete(raw) => {
                // `% (next_id + 1)` covers live ids, already-deleted
                // ids, and the one guaranteed-absent id `next_id`.
                let target = raw % (next_id + 1);
                let position = survivors.iter().position(|(id, _)| *id == target);
                let existed = engine.delete(target);
                prop_assert_eq!(
                    existed,
                    position.is_some(),
                    "step {step}: delete {target} live-ness"
                );
                if let Some(position) = position {
                    survivors.remove(position);
                }
            }
            Op::Query(text, k) => {
                let (oracle, globals) = v1_rebuild(&survivors);
                prop_assert_eq!(
                    engine.search(text, *k),
                    remap(&oracle.search(text, *k), &globals),
                    "step {step}: QUERY {:?} k={k} against {} survivors",
                    String::from_utf8_lossy(text),
                    survivors.len()
                );
            }
            Op::TopK(text, k) => {
                let (oracle, globals) = v1_rebuild(&survivors);
                let (want_local, _) =
                    search_top_k_with(|r| oracle.search_counting(text, r), *k as usize, 16);
                let want: Vec<Match> = want_local
                    .iter()
                    .map(|m| Match::new(globals[m.id as usize], m.distance))
                    .collect();
                let (got, _) =
                    search_top_k_with(|r| engine.search_counting(text, r), *k as usize, 16);
                prop_assert_eq!(
                    got,
                    want,
                    "step {step}: TOPK {:?} k={k}",
                    String::from_utf8_lossy(text)
                );
            }
            Op::Compact => {
                engine.maybe_compact();
            }
        }
        // The engine's own accounting must track the model at every step.
        prop_assert_eq!(
            engine.live_stats().live_records,
            survivors.len(),
            "step {step}: live count"
        );
    }
    // Drain all pending compactions and re-check: elision must not
    // change any answer.
    engine.compact_to_quiescence();
    let stats = engine.live_stats();
    // Quiescence does NOT imply zero tombstones: a below-cap memtable
    // or a segment with no same-tier merge partner keeps its deletes
    // masked rather than elided. What must hold is the live count.
    prop_assert_eq!(stats.live_records, survivors.len());
    // Per-shard accounting: each shard's memtable independently sits
    // below cap, and the per-shard stats sum field-wise to the
    // aggregate the composite reports.
    match engine.live_shard_stats() {
        Some(per_shard) => {
            let mut sum = LiveStats::default();
            for (i, shard) in per_shard.iter().enumerate() {
                prop_assert!(
                    shard.memtable_len < memtable_cap.max(1),
                    "shard {i}: quiescent memtable below cap: {} >= {memtable_cap}",
                    shard.memtable_len
                );
                sum.accumulate(shard);
            }
            prop_assert_eq!(sum, stats, "per-shard stats sum to the aggregate");
        }
        None => prop_assert!(
            stats.memtable_len < memtable_cap.max(1),
            "quiescent memtable below cap: {} >= {memtable_cap}",
            stats.memtable_len
        ),
    }
    let (oracle, globals) = v1_rebuild(&survivors);
    for q in [&b""[..], b"ab", b"abcd"] {
        prop_assert_eq!(
            engine.search(q, 2),
            remap(&oracle.search(q, 2), &globals),
            "post-quiescence QUERY {:?}",
            String::from_utf8_lossy(q)
        );
    }
    Ok(())
}

#[test]
fn any_interleaving_matches_the_v1_rebuild() {
    // Tiny caps make flush/merge fire every few ops; the cap rides in
    // the generated value so a failure pins it alongside the ops.
    let cases = gen::zip(gen::usize_in(1..6), gen::vec_of(op_gen(), 0..40));
    check(
        "any_interleaving_matches_the_v1_rebuild",
        Config::cases(150).seed(SEED),
        &cases,
        |(cap, ops)| {
            let engine = LiveEngine::new(LsmConfig { memtable_cap: *cap });
            replay_on(&engine, *cap, ops)
        },
    );
}

#[test]
fn sharded_interleavings_match_the_v1_rebuild() {
    // The same oracle, against every shard arrangement the composite
    // serves: mutations route through the hash router, reads fan out
    // and k-way merge, yet nothing is distinguishable from one flat V1
    // scan over the survivors.
    let cases = gen::zip(gen::usize_in(1..6), gen::vec_of(op_gen(), 0..40));
    for (label, make) in mutable_configs() {
        check(
            &format!("sharded_interleavings[{label}]"),
            Config::cases(50).seed(SEED ^ label.len() as u64),
            &cases,
            |(cap, ops)| {
                let engine = make(&Dataset::new(), *cap);
                replay_on(engine.as_ref(), *cap, ops)
            },
        );
    }
}

#[test]
fn the_degenerate_interleavings_hold() {
    // The edges the generator may under-sample: empty op list, empty
    // record, k = 0, delete into an empty engine, compact on empty —
    // for every mutable engine arrangement.
    for (label, make) in mutable_configs() {
        let run = |cap: usize, ops: &[Op]| {
            replay_on(make(&Dataset::new(), cap).as_ref(), cap, ops)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        };
        run(1, &[]);
        run(1, &[Op::Compact, Op::Delete(0), Op::Query(Vec::new(), 0)]);
        run(
            2,
            &[
                Op::Insert(Vec::new()),
                Op::Query(Vec::new(), 0),
                Op::Compact,
                Op::Delete(0),
                Op::Query(Vec::new(), 1),
                Op::TopK(b"a".to_vec(), 3),
            ],
        );
    }
}

#[test]
fn a_len_partitioned_live_composite_is_refused() {
    // Length bands shift as the dataset grows, so a len partitioner can
    // never route an insert: construction must fail, and the message
    // must name the fix.
    for shards in [2, 4] {
        let err = match ShardedBackend::live(
            &Dataset::new(),
            shards,
            ShardBy::Len,
            1,
            LsmConfig { memtable_cap: 8 },
        ) {
            Err(err) => err,
            Ok(_) => panic!("len partitioning with {shards} live shards must be rejected"),
        };
        assert!(err.contains("--shard-by hash"), "actionable message, got: {err}");
    }
}

/// Deterministic churn for the executor matrix: seed 300 city records,
/// insert 120 more, delete every seventh id, compacting every 16 steps.
/// Returns the engine plus the surviving `(global id, record)` table.
type ChurnedEngine = (Box<dyn MutableBackend>, Vec<(u32, Vec<u8>)>);

fn churned_engine(make: &dyn Fn(&Dataset, usize) -> Box<dyn MutableBackend>) -> ChurnedEngine {
    let seed_data = CityGenerator::new(0xC17E_7E57).generate(300);
    let extra = CityGenerator::new(0x11FE_5EED).generate(120);
    let engine = make(&seed_data, 16);
    let mut survivors: Vec<(u32, Vec<u8>)> = seed_data
        .iter()
        .map(|(id, r)| (id, r.to_vec()))
        .collect();
    for (step, (_, record)) in extra.iter().enumerate() {
        let id = engine.insert(record);
        survivors.push((id, record.to_vec()));
        if step % 7 == 3 {
            let victim = survivors[(step * 13) % survivors.len()].0;
            assert!(engine.delete(victim));
            survivors.retain(|(id, _)| *id != victim);
        }
        if step % 16 == 15 {
            engine.maybe_compact();
        }
    }
    let stats = engine.live_stats();
    assert!(stats.segments > 1, "churn produced a multi-segment engine");
    assert!(stats.memtable_len > 0, "churn left a live memtable");
    assert!(stats.tombstones > 0, "churn left unelided tombstones");
    (engine, survivors)
}

#[test]
fn every_executor_agrees_on_a_churned_engine() {
    for (label, make) in mutable_configs() {
        let (engine, survivors) = churned_engine(make.as_ref());
        let data: Dataset = survivors.iter().map(|(_, r)| r.as_slice()).collect();
        let globals: Vec<u32> = survivors.iter().map(|(id, _)| *id).collect();
        let alphabet = Alphabet::from_corpus(data.records());
        let workload = WorkloadSpec::new(&[1, 2, 3], 1_000, 0x0A07_0B0E).generate(&data, &alphabet);
        let oracle = SearchEngine::build(&data, EngineKind::Scan(SeqVariant::V1Base));
        let oracle = oracle.backend();
        let baseline: Vec<MatchSet> = oracle
            .run_workload(&workload)
            .into_iter()
            .map(|m| remap(&m, &globals))
            .collect();

        let mut strategies = vec![Strategy::Sequential, Strategy::ThreadPerQuery];
        for threads in [1, 4, 8] {
            strategies.push(Strategy::FixedPool { threads });
            strategies.push(Strategy::WorkQueue { threads });
            strategies.push(Strategy::Adaptive { max_threads: threads });
        }
        for strategy in strategies {
            assert_eq!(
                engine.run_with_strategy(&workload, strategy),
                baseline,
                "{label} under {}",
                strategy.name()
            );
        }
    }
}

#[test]
fn the_registered_live_kind_builds_the_same_engine() {
    // `EngineKind::Live` must route through the same LSM machinery as a
    // hand-built engine: identical answers, a live-flavored diag.
    let data = CityGenerator::new(0xC17E_7E57).generate(100);
    let registered = SearchEngine::build(&data, EngineKind::Live { memtable_cap: 8 });
    let registered = registered.backend();
    let direct = LiveEngine::from_dataset(&data, LsmConfig { memtable_cap: 8 });
    assert_eq!(registered.name(), direct.name());
    for q in [&b"abc"[..], b"", b"dAB -"] {
        for k in 0..3 {
            assert_eq!(registered.search(q, k), direct.search(q, k));
        }
    }
    let diag = registered.diag();
    assert!(diag.filters.contains(&"tombstone"), "diag: {diag:?}");
}

#[test]
fn the_registered_sharded_live_kind_builds_the_same_engine() {
    // `EngineKind::ShardedLive` must route through `ShardedBackend::live`
    // exactly: identical answers and an identical composite name.
    let data = CityGenerator::new(0xC17E_7E57).generate(100);
    let registered = SearchEngine::build(
        &data,
        EngineKind::ShardedLive {
            shards: 4,
            by: ShardBy::Hash,
            threads: 2,
            memtable_cap: 8,
        },
    );
    let registered = registered.backend();
    let direct = ShardedBackend::live(&data, 4, ShardBy::Hash, 2, LsmConfig { memtable_cap: 8 })
        .expect("valid config");
    assert_eq!(registered.name(), Backend::name(&direct));
    for q in [&b"abc"[..], b"", b"dAB -"] {
        for k in 0..3 {
            assert_eq!(registered.search(q, k), direct.search(q, k));
        }
    }
}
