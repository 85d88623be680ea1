//! Per-layer measurements, taken from outside: every number here comes
//! from timing a call into a layer's public functions on the workload's
//! own inputs. Nothing under `crates/` is instrumented.

use std::hint::black_box;
use std::time::{Duration, Instant};

use simsearch_core::backend::Backend;
use simsearch_core::{
    merge_match_sets, partition_ids, pass_join_with_stats, remap_to_global, sharded::materialize,
    AutoBackend, BackendChoice, EngineKind, FilteredScanBackend, JoinStats, LiveStats, LsmConfig,
    MutableBackend, SearchEngine, SeqVariant, ShardBy, ShardedBackend, Strategy,
};
use simsearch_data::{Dataset, MatchSet, QueryRecord, SortedView};
use simsearch_distance::{ed_within_banded, MyersAny};
use simsearch_index::qgram::SearchScratch;
use simsearch_index::{radix, QgramIndex};
use simsearch_scan::{v7_search_view, v8_search_view};
use simsearch_serve::protocol::{
    encode_request, encode_response, matches_response, parse_request, Request, Response,
};

use crate::gen::{Inputs, MixShares, Op, OpStream};
use crate::trace::Recorder;
use crate::workloads::{Spec, LIVE_ENGINE, LIVE_MIX};

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
/// The layer is the crate or module the name starts with.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("data.generate_ms", "ms"),
    ("data.sorted_build_ms", "ms"),
    ("distance.banded_ns_per_pair", "ns"),
    ("distance.myers_ns_per_pair", "ns"),
    ("scan.v7_ms_per_query", "ms"),
    ("scan.v8_ms_per_query", "ms"),
    ("scan.v7_cells_per_query", "count"),
    ("scan.v8_words_per_query", "count"),
    ("index.radix_build_ms", "ms"),
    ("index.qgram_build_ms", "ms"),
    ("index.radix_ms_per_query", "ms"),
    ("index.qgram_ms_per_query", "ms"),
    ("parallel.batch_efficiency", "ratio"),
    ("core.engine.batch_auto_ms", "ms"),
    ("core.engine.batch_scan_ms", "ms"),
    ("core.planner.decide_ns", "ns"),
    ("core.planner.routed_share.scan-flat", "ratio"),
    ("core.planner.routed_share.scan-sorted", "ratio"),
    ("core.planner.routed_share.scan-bitparallel", "ratio"),
    ("core.planner.routed_share.radix", "ratio"),
    ("core.planner.routed_share.qgram", "ratio"),
    ("core.planner.regret_ratio", "ratio"),
    ("core.planner.calibrate_s", "s"),
    ("core.backend.search_ms_per_query", "ms"),
    ("core.sharded.merge_ns_per_query", "ns"),
    ("core.lsm.insert_ns", "ns"),
    ("core.lsm.delete_ns", "ns"),
    ("core.lsm.compact_step_ms", "ms"),
    ("core.lsm.compactions", "count"),
    ("core.lsm.segments_end", "count"),
    ("core.lsm.tombstones_end", "count"),
    ("core.lsm.search_ms_per_query", "ms"),
    ("core.passjoin.join_ms", "ms"),
    ("core.passjoin.candidates_verified", "count"),
    ("serve.protocol.parse_request_ns", "ns"),
    ("serve.protocol.encode_response_ns", "ns"),
    ("serve.protocol.reply_bytes_per_query", "B"),
    ("serve.health_rtt_us", "us"),
    ("serve.client_rtt_ms", "ms"),
    ("serve.server.admit_to_reply_ms", "ms"),
    ("serve.socket_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.batch.mean_batch_size", "count"),
    ("serve.batch.batches", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.dropped_timeout", "count"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p95_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("client.encode_request_ns", "ns"),
    ("client.socket_write_us", "us"),
    ("client.wait_reply_ms", "ms"),
    ("client.parse_response_us", "us"),
    ("trace_overhead_ratio", "ratio"),
];

/// The planner's default candidates, in `BackendChoice` order; the
/// arms [`arms`] times, in the same order.
pub const ARMS: [BackendChoice; 5] = AutoBackend::DEFAULT_CANDIDATES;

/// What the layer measurements yield beyond their spans.
#[derive(Default)]
pub struct Counts {
    pub scan_queries: u64,
    pub v7_cells: u64,
    pub v8_words: u64,
    /// Σ chosen-arm time ÷ Σ per-query best-arm time.
    pub regret_ratio: f64,
    /// Queries the in-process auto engine routed to each arm.
    pub routed: [u64; 5],
    pub batch_efficiency: f64,
    pub reply_bytes: u64,
    pub replies: u64,
    pub lsm: LiveStats,
    pub join: JoinStats,
    /// Answers of two layers that should agree and did not.
    pub disagreements: u64,
    pub first_disagreement: Option<String>,
}

impl Counts {
    fn expect_equal(&mut self, what: &str, at: usize, a: &MatchSet, b: &MatchSet) {
        if a != b {
            self.disagreements += 1;
            self.first_disagreement
                .get_or_insert_with(|| format!("{what} disagree on query {at}"));
        }
    }
}

/// Span names of one replay, so the workload's own engine and the LSM
/// layer are told apart in the trace.
struct ReplayNames {
    search: &'static str,
    insert: &'static str,
    delete: &'static str,
    compact: &'static str,
}

const BACKEND: ReplayNames = ReplayNames {
    search: "core.backend.search",
    insert: "core.backend.insert",
    delete: "core.backend.delete",
    compact: "core.backend.compact_step",
};

const LSM: ReplayNames = ReplayNames {
    search: "core.lsm.search",
    insert: "core.lsm.insert",
    delete: "core.lsm.delete",
    compact: "core.lsm.compact_step",
};

/// Everything [`measure`] needs to know about the run.
pub struct Run<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub clients: usize,
    pub seed: u64,
    /// Time limit of each replay.
    pub budget: Duration,
    /// Op limit of each replay: what the traced closed loop issued.
    pub ops: u64,
}

/// Times every layer and returns the counts; the timings are in `rec`.
pub fn measure(run: &Run<'_>, rec: &mut Recorder) -> Counts {
    let mut counts = Counts::default();
    let ds = &run.inputs.dataset;
    let sample =
        &run.inputs.queries.queries[..run.spec.regret_queries.min(run.inputs.queries.len())];

    let sv = rec.time("data.sorted_build", 0, 0, 1, || SortedView::build(ds));
    distance(run, sample, rec);

    // The auto engine first, so the planner can name each query's
    // chosen arm when the arms are timed one by one.
    let auto = rec.time("core.planner.calibrate", 0, 0, 1, || {
        let auto = AutoBackend::calibrated(ds, 1, &AutoBackend::default_probe(ds));
        auto.prepare();
        auto
    });
    let planner = auto.planner();
    let decides = 100_000u64;
    rec.time("core.planner.decide_loop", 0, 0, decides, || {
        for q in run
            .inputs
            .queries
            .queries
            .iter()
            .cycle()
            .take(decides as usize)
        {
            black_box(planner.decide(black_box(q.text.len()), q.threshold));
        }
    });

    // Every arm, directly, on the same queries. Their builds are the
    // part of calibration that is not probing.
    let flat = rec.time("scan.flat_build", 0, 0, 1, || {
        FilteredScanBackend::new(ds, Strategy::Sequential)
    });
    let trie = rec.time("index.radix_build", 0, 0, 1, || radix::build(ds));
    let grams = rec.time("index.qgram_build", 0, 0, 1, || QgramIndex::build(ds, 2));
    let mut scratch = SearchScratch::new(ds.len());
    let (mut chosen_ns, mut best_ns) = (0u64, 0u64);
    for (at, q) in sample.iter().enumerate() {
        let (text, k, op) = (&q.text[..], q.threshold, at as u64);
        let mut ns = [0u64; 5];
        let by_flat = rec.time("scan.flat", op, 0, 1, || flat.search(text, k));
        ns[0] = rec.last_ns();
        let (by_v7, cells) = rec.time("scan.v7", op, 0, 1, || v7_search_view(&sv, text, k));
        ns[1] = rec.last_ns();
        let (by_v8, v8_cells) = rec.time("scan.v8", op, 0, 1, || v8_search_view(&sv, text, k));
        ns[2] = rec.last_ns();
        let by_radix = rec.time("index.radix", op, 0, 1, || trie.search(text, k));
        ns[3] = rec.last_ns();
        let by_qgram = rec.time("index.qgram", op, 0, 1, || {
            grams.search_with(ds, text, k, &mut scratch)
        });
        ns[4] = rec.last_ns();
        for (name, other) in [
            ("scan.v7 and scan.flat", &by_flat),
            ("scan.v7 and scan.v8", &by_v8),
            ("scan.v7 and index.radix", &by_radix),
            ("scan.v7 and index.qgram", &by_qgram),
        ] {
            counts.expect_equal(name, at, &by_v7, other);
        }
        counts.scan_queries += 1;
        counts.v7_cells += cells;
        // V8 reports |query| cells per candidate byte; a byte advances
        // ⌈|query|/64⌉ words.
        counts.v8_words +=
            v8_cells.checked_div(text.len() as u64).unwrap_or(0) * text.len().div_ceil(64) as u64;
        let chosen = planner.decide(text.len(), k).chosen;
        if let Some(arm) = ARMS.iter().position(|&c| c == chosen) {
            chosen_ns += ns[arm];
            best_ns += ns.iter().min().expect("five arms");
        }
    }
    counts.regret_ratio = chosen_ns as f64 / best_ns.max(1) as f64;
    drop((flat, trie, grams, scratch));

    sharded_merge(run, sample, &sv, rec, &mut counts);
    drop(sv);
    batches(run, &auto, rec, &mut counts);

    // The workload's own op sequence on an engine built as the daemon
    // builds it: the "execute" stage the serve layers are subtracted from.
    let own = Replay {
        engine: &auto,
        writer: None,
        planner: Some(&auto),
        shares: run.spec.shares,
        names: &BACKEND,
        ops: run.ops,
        queries: true,
        lane: 32,
    };
    if run.spec.shares == MixShares::READ_ONLY {
        own.run(run, rec, &mut counts);
    } else {
        let engine = live_engine(ds);
        Replay {
            engine: &engine,
            writer: Some(&engine),
            planner: None,
            ..own
        }
        .run(run, rec, &mut counts);
    }
    for (slot, (_, routed)) in counts.routed.iter_mut().zip(auto.plan_counts()) {
        *slot = routed;
    }
    drop(auto);

    // The LSM layer on this workload's records: the live mix's writes
    // with the daemon's compaction step after each (its queries are
    // skipped, so the pass is long enough to flush and merge many
    // times), then direct searches on the end-of-run state.
    let engine = live_engine(ds);
    Replay {
        engine: &engine,
        writer: Some(&engine),
        planner: None,
        shares: LIVE_MIX,
        names: &LSM,
        ops: LSM_OPS,
        queries: false,
        lane: 64,
    }
    .run(run, rec, &mut counts);
    counts.lsm = engine.live_stats();
    for (at, q) in sample.iter().enumerate() {
        rec.time(LSM.search, at as u64, 0, 1, || {
            black_box(engine.search(&q.text, q.threshold))
        });
    }
    drop(engine);

    let joined = materialize(ds, &(0..ds.len().min(50_000) as u32).collect::<Vec<_>>());
    counts.join = rec
        .time("core.passjoin.join", 0, 0, 1, || {
            pass_join_with_stats(&joined, 1, Strategy::Sequential)
        })
        .1;
    counts
}

/// `city_live_mix`'s engine over `ds`: the only live engine a workload
/// serves, so also the one the LSM layer is measured on everywhere.
fn live_engine(ds: &Dataset) -> ShardedBackend {
    let EngineKind::ShardedLive {
        shards,
        by,
        threads,
        memtable_cap,
    } = LIVE_ENGINE
    else {
        unreachable!("LIVE_ENGINE is sharded-live")
    };
    ShardedBackend::live(ds, shards, by, threads, LsmConfig { memtable_cap })
        .expect("a valid live config")
}

/// The two bounded kernels on (query, record) pairs that pass the
/// length filter — what a scan hands its kernel.
fn distance(run: &Run<'_>, sample: &[QueryRecord], rec: &mut Recorder) {
    let ds = &run.inputs.dataset;
    let n = ds.len() as u32;
    for (at, q) in sample.iter().enumerate() {
        let start = (at as u32).wrapping_mul(2_654_435_761) % n;
        let pairs: Vec<&[u8]> = (0..n.min(20_000))
            .map(|i| ds.get((start + i) % n))
            .filter(|r| r.len().abs_diff(q.text.len()) <= q.threshold as usize)
            .take(256)
            .collect();
        rec.time("distance.banded", at as u64, 0, pairs.len() as u64, || {
            for r in &pairs {
                black_box(ed_within_banded(&q.text, r, q.threshold));
            }
        });
        let Some(myers) = MyersAny::new(&q.text) else {
            continue;
        };
        rec.time("distance.myers", at as u64, 0, pairs.len() as u64, || {
            for r in &pairs {
                black_box(myers.within(r, q.threshold));
            }
        });
    }
}

/// The k-way merge on two hash shards' answers.
fn sharded_merge(
    run: &Run<'_>,
    sample: &[QueryRecord],
    whole: &SortedView,
    rec: &mut Recorder,
    counts: &mut Counts,
) {
    let ds = &run.inputs.dataset;
    let shards: Vec<(SortedView, Vec<u32>)> = partition_ids(ds, 2, ShardBy::Hash)
        .into_iter()
        .map(|ids| (SortedView::build(&materialize(ds, &ids)), ids))
        .collect();
    for (at, q) in sample.iter().enumerate() {
        let parts: Vec<MatchSet> = shards
            .iter()
            .map(|(sv, ids)| remap_to_global(&v7_search_view(sv, &q.text, q.threshold).0, ids))
            .collect();
        let merged = rec.time("core.sharded.merge", at as u64, 0, 1, || {
            merge_match_sets(&parts)
        });
        counts.expect_equal(
            "core.sharded.merge and scan.v7",
            at,
            &merged,
            &v7_search_view(whole, &q.text, q.threshold).0,
        );
    }
}

/// One batch through the pooled executors, and the same batch on one
/// thread for the efficiency ratio.
fn batches(run: &Run<'_>, auto: &AutoBackend<'_>, rec: &mut Recorder, counts: &mut Counts) {
    let ds = &run.inputs.dataset;
    let batch = run
        .inputs
        .queries
        .prefix(run.spec.batch_queries.min(run.inputs.queries.len()));
    let pool = Strategy::FixedPool {
        threads: run.clients,
    };
    let scan = SearchEngine::build(ds, EngineKind::Scan(SeqVariant::V8BitParallel));
    let alone = rec.time("parallel.batch_seq", 0, 0, 1, || {
        scan.run_with_strategy(&batch, Strategy::Sequential)
    });
    let alone_ns = rec.last_ns();
    let pooled = rec.time("core.engine.batch_scan", 0, 0, 1, || {
        scan.run_with_strategy(&batch, pool)
    });
    counts.batch_efficiency = alone_ns as f64 / (run.clients as u64 * rec.last_ns().max(1)) as f64;
    let by_auto = rec.time("core.engine.batch_auto", 0, 0, 1, || {
        auto.run_with_strategy(&batch, pool)
    });
    if alone != pooled || pooled != by_auto {
        counts.disagreements += 1;
        counts
            .first_disagreement
            .get_or_insert_with(|| "the batch executors' result vectors differ".into());
    }
}

/// Ops of the LSM pass: 4,000 inserts and 2,000 deletes over two
/// shards with a 256-slot memtable, so each shard flushes about seven
/// times and merges tiers in between.
const LSM_OPS: u64 = 20_000;

/// One in-process replay of the clients' op streams.
#[derive(Clone, Copy)]
struct Replay<'a, 'd> {
    engine: &'a dyn Backend,
    /// The same engine's mutation surface, when it has one.
    writer: Option<&'a dyn MutableBackend>,
    /// Set when `engine` routes through a planner, to time its decision.
    planner: Option<&'a AutoBackend<'d>>,
    shares: MixShares,
    names: &'a ReplayNames,
    /// Op limit; the run's time budget applies as well.
    ops: u64,
    /// False skips the stream's queries (writes and compaction only).
    queries: bool,
    /// First recorder lane of this replay's threads; lanes 1..=C are
    /// the load clients'.
    lane: u32,
}

impl Replay<'_, '_> {
    /// Replays the clients' op streams, one thread per client, all at
    /// once — as the daemon's `C` workers execute them for `C` lockstep
    /// clients, sharing caches and memory bandwidth. One root span per
    /// op, with the protocol and engine calls the daemon makes for it
    /// as children.
    fn run(self, run: &Run<'_>, rec: &mut Recorder, counts: &mut Counts) {
        let done: Vec<(Recorder, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..run.clients)
                .map(|client| {
                    let mut rec = rec.fork(self.lane + client as u32);
                    scope.spawn(move || {
                        let (bytes, replies) = self.one_client(run, client, &mut rec);
                        (rec, bytes, replies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        for (theirs, bytes, replies) in done {
            rec.absorb(theirs);
            counts.reply_bytes += bytes;
            counts.replies += replies;
        }
    }

    /// One client's share of the replay; returns the reply bytes and
    /// the number of query replies they were summed over.
    fn one_client(self, run: &Run<'_>, client: usize, rec: &mut Recorder) -> (u64, u64) {
        let Replay {
            engine,
            writer,
            planner,
            shares,
            names,
            ops,
            queries,
            lane: _,
        } = self;
        let inputs = run.inputs;
        let mut stream = OpStream::new(
            run.seed + 3,
            client,
            run.clients,
            shares,
            inputs.queries.len(),
            inputs.insert_pool.len(),
        );
        let mut own_live: Vec<u32> = Vec::new();
        let (mut reply_bytes, mut replies) = (0u64, 0u64);
        let started = Instant::now();
        for nth_op in 0..ops / run.clients as u64 {
            if started.elapsed() >= run.budget {
                break;
            }
            let op = client as u64 + nth_op * run.clients as u64;
            let issued = stream.next(own_live.len());
            if !queries && matches!(issued, Op::Query(_)) {
                continue;
            }
            let request = match issued {
                Op::Query(at) => Request::Query {
                    k: inputs.queries.queries[at].threshold,
                    text: inputs.queries.queries[at].text.clone(),
                },
                Op::Insert(at) => Request::Insert {
                    text: inputs.insert_pool.get(at as u32).to_vec(),
                },
                Op::Delete(nth) => Request::Delete { id: own_live[nth] },
            };
            let frame = encode_request(&request);
            let root = rec.open();
            let parsed = rec.time("serve.protocol.parse_request", op, root.0, 1, || {
                parse_request(&frame)
            });
            let response = match parsed.expect("a frame this program encoded") {
                Request::Query { k, text } => {
                    if let Some(auto) = planner {
                        let table = auto.planner();
                        rec.time("core.planner.decide", op, root.0, 1, || {
                            black_box(table.decide(text.len(), k).chosen)
                        });
                    }
                    let matches = rec.time(names.search, op, root.0, 1, || engine.search(&text, k));
                    matches_response(&matches)
                }
                Request::Insert { text } => {
                    let writer = writer.expect("writes need a live engine");
                    let id = rec.time(names.insert, op, root.0, 1, || writer.insert(&text));
                    own_live.push(id);
                    Response::Inserted(id)
                }
                Request::Delete { id } => {
                    let writer = writer.expect("writes need a live engine");
                    let existed = rec.time(names.delete, op, root.0, 1, || writer.delete(id));
                    if let Op::Delete(nth) = issued {
                        own_live.swap_remove(nth);
                    }
                    Response::Deleted { existed }
                }
                other => unreachable!("the op stream issues no {other:?}"),
            };
            let reply = rec.time("serve.protocol.encode_response", op, root.0, 1, || {
                encode_response(&response)
            });
            if matches!(issued, Op::Query(_)) {
                reply_bytes += reply.len() as u64 + 1;
                replies += 1;
            }
            // The daemon's workers run one compaction step after each chunk.
            if let Some(writer) = writer {
                let step = rec.open();
                if writer.maybe_compact() {
                    rec.close(names.compact, op, root.0, step);
                }
            }
            rec.close("replay", op, 0, root);
        }
        (reply_bytes, replies)
    }
}
