//! The four workloads and their untraced (end-to-end) runs.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use simsearch_core::{EngineKind, IdxVariant, SearchEngine, SeqVariant, ShardBy, Strategy};
use simsearch_data::{Match, Xoshiro256};
use simsearch_serve::protocol::Response;
use simsearch_serve::{spawn, Client, ServerConfig, ServerHandle};

use crate::gen::{Corpus, Inputs, MixShares, OpStream};
use crate::load::{closed_phase, count_phase, LoadClient, PhaseLog};
use crate::reference::{compare, flat_scan, Shadow};
use crate::stats::{
    class_median_ms, ns_to_ms, quiet_batch_ms, quiet_count, Quiet, Sample, Summary,
};
use crate::trace::Recorder;
use crate::{Args, Metric, Outcome};

/// One workload: its inputs, the engine that answers it and how it is
/// loaded. Sizes are fixed here so every later claim cites the same ones.
pub struct Spec {
    pub name: &'static str,
    pub corpus: Corpus,
    pub records: usize,
    pub queries: usize,
    /// The daemon's engine. `city_batch` has no daemon in its
    /// end-to-end run; its traced run serves this engine so the
    /// `serve.*` layers are still measured on its inputs.
    pub engine: EngineKind,
    /// The daemon's self-tuning cadence. `None` on `dna_serve`: there
    /// the tick sent 3 of 12 sizing runs into a routing table that costs
    /// a fifth of the throughput (k=8 to the q-gram index) and kept them
    /// there, so every metric had two modes; the routing table of the
    /// build-time calibration was the same on every run and seed.
    pub replan: Option<Duration>,
    /// False for `city_batch`: the paper's in-process protocol.
    pub served: bool,
    pub shares: MixShares,
    /// Requests sent before any timed window, so lazily built arms exist.
    pub warmup: usize,
    /// How long served runs then keep the closed loop going untimed. A
    /// daemon that re-plans re-derives its routing table from live
    /// latencies every [`REPLAN_INTERVAL`]; the steepest part of that
    /// transient is over after three ticks, so the timed window starts
    /// there.
    pub settle: Duration,
    /// Replies compared match-for-match with the reference scan.
    pub check_samples: usize,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Open-loop arrival rate of the traced run's fixed-rate phase.
    pub open_rate: f64,
    /// Queries per in-process batch (the paper's 1,000-query column).
    pub batch_queries: usize,
    /// Queries every planner arm is timed on for the regret ratio.
    pub regret_queries: usize,
}

/// The engine `city_live_mix` serves: two hash-routed LSM shards with a
/// memtable small enough to flush and merge many times in a run.
pub const LIVE_ENGINE: EngineKind = EngineKind::ShardedLive {
    shards: 2,
    by: ShardBy::Hash,
    threads: 1,
    memtable_cap: 256,
};

/// The 70/20/10 read/insert/delete mix of `city_live_mix`.
pub const LIVE_MIX: MixShares = MixShares {
    insert: 0.2,
    delete: 0.1,
};

/// The CLI's shipped `--replan-interval`.
const REPLAN_INTERVAL: Duration = Duration::from_millis(1000);

pub const WORKLOADS: [&str; 4] = ["city_serve", "dna_serve", "city_live_mix", "city_batch"];

/// Fresh records available to `INSERT`; cycled if a run needs more.
const INSERT_POOL: usize = 16_384;

impl Spec {
    /// The named workload at full size, or at `--smoke` size (same
    /// shape, a twentieth of the data).
    pub fn named(name: &str, smoke: bool) -> Option<Self> {
        let scale = |n: usize| if smoke { n / 20 } else { n };
        let auto = EngineKind::Auto { threads: 1 };
        let city = Spec {
            name: "city_serve",
            corpus: Corpus::City,
            records: scale(400_000),
            queries: scale(2_000),
            engine: auto,
            replan: Some(REPLAN_INTERVAL),
            served: true,
            shares: MixShares::READ_ONLY,
            warmup: scale(200),
            settle: REPLAN_INTERVAL * if smoke { 0 } else { 3 },
            check_samples: 64,
            setup_reps: 3,
            open_rate: 250.0,
            batch_queries: scale(1_000),
            regret_queries: scale(100).max(20),
        };
        Some(match name {
            "city_serve" => city,
            "dna_serve" => Spec {
                name: "dna_serve",
                corpus: Corpus::Dna,
                records: scale(50_000),
                warmup: scale(20).max(4),
                replan: None,
                setup_reps: 1,
                check_samples: 32,
                open_rate: 80.0,
                batch_queries: scale(200),
                regret_queries: scale(40).max(8),
                ..city
            },
            "city_live_mix" => Spec {
                name: "city_live_mix",
                records: scale(100_000),
                engine: LIVE_ENGINE,
                shares: LIVE_MIX,
                setup_reps: 9,
                open_rate: 300.0,
                ..city
            },
            "city_batch" => Spec {
                name: "city_batch",
                served: false,
                setup_reps: 5,
                ..city
            },
            _ => return None,
        })
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        Inputs::generate(self.corpus, self.records, self.queries, INSERT_POOL, seed)
    }

    /// The daemon configuration every served run uses: `clients` engine
    /// workers, the CLI's shipped replan interval, defaults otherwise.
    pub fn server_config(&self, clients: usize) -> ServerConfig {
        let mut config = ServerConfig {
            dataset_label: self.name.into(),
            replan_interval: self.replan,
            ..ServerConfig::default()
        };
        config.batch.threads = clients;
        config
    }

    /// Which query indices have their first reply kept for the output
    /// check: `check_samples` of them, seeded, balanced over the
    /// threshold cycle and among the first 128 queries, which client 0
    /// walks within seconds even on a slow host.
    pub fn retained_queries(&self, seed: u64) -> Vec<bool> {
        let mut rng = Xoshiro256::seed_from_u64(seed + 2);
        let cycle = self.corpus.thresholds().len();
        let horizon = self.queries.min(128) / cycle;
        let mut retain = vec![false; self.queries];
        let mut slots: Vec<usize> = (0..horizon).collect();
        for k_slot in 0..cycle {
            rng.shuffle(&mut slots);
            for &slot in slots.iter().take(self.check_samples.div_ceil(cycle)) {
                retain[slot * cycle + k_slot] = true;
            }
        }
        retain
    }
}

/// `min(nproc, 4)` client threads, and as many engine workers.
pub fn client_count() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulates the output check's verdicts.
#[derive(Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    pub first: Option<String>,
}

impl Verdict {
    pub fn record(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = result {
            self.mismatches += 1;
            self.first.get_or_insert_with(|| format!("{}: {e}", what()));
        }
    }

    /// Fails the check outright (too few samples, a missing reply).
    pub fn fail(&mut self, why: String) {
        self.mismatches += 1;
        self.first.get_or_insert(why);
    }
}

/// Compares each `(query index, reply)` with a flat reference scan over
/// `records`, on `threads` threads.
pub fn check_replies(
    records: &[(u32, &[u8])],
    inputs: &Inputs,
    replies: &[(usize, Vec<Match>)],
    threads: usize,
    verdict: &mut Verdict,
) {
    let chunk = replies.len().div_ceil(threads.max(1)).max(1);
    let results: Vec<(usize, Result<(), String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(at, got)| {
                            let q = &inputs.queries.queries[*at];
                            (
                                *at,
                                compare(
                                    &flat_scan(records.iter().copied(), &q.text, q.threshold),
                                    got,
                                ),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    for (at, result) in results {
        verdict.record(|| format!("query {at}"), result);
    }
}

/// `spawn()` → first correct reply, and the daemon that gave it. The
/// dataset copy the daemon takes ownership of is made before the clock
/// starts.
pub fn spawn_timed(
    spec: &Spec,
    inputs: &Inputs,
    clients: usize,
    first: &(usize, Vec<Match>),
    verdict: &mut Verdict,
) -> std::io::Result<(ServerHandle, Duration)> {
    let dataset = inputs.dataset.clone();
    let config = spec.server_config(clients);
    let q = &inputs.queries.queries[first.0];
    let started = Instant::now();
    let handle = spawn(dataset, spec.engine, config)?;
    let reply = Client::connect(handle.addr())?.query(&q.text, q.threshold)?;
    let setup = started.elapsed();
    match reply {
        Response::Matches(got) => verdict.record(|| "first reply".into(), compare(&first.1, &got)),
        other => verdict.fail(format!("first reply was {other:?}")),
    }
    Ok((handle, setup))
}

/// The query whose answer ends set-up (the first with a non-zero
/// threshold) and its reference answer.
pub fn first_query(inputs: &Inputs) -> (usize, Vec<Match>) {
    let at = 1 % inputs.queries.len();
    let q = &inputs.queries.queries[at];
    (at, flat_scan(inputs.dataset.iter(), &q.text, q.threshold))
}

/// Connects the `clients` load clients; pass `epoch` to trace them.
pub fn connect_clients<'a>(
    addr: SocketAddr,
    spec: &Spec,
    inputs: &'a Inputs,
    retain: &'a [bool],
    clients: usize,
    seed: u64,
    epoch: Option<Instant>,
) -> std::io::Result<Vec<LoadClient<'a>>> {
    (0..clients)
        .map(|index| {
            let ops = OpStream::new(
                seed + 3,
                index,
                clients,
                spec.shares,
                inputs.queries.len(),
                inputs.insert_pool.len(),
            );
            let rec = epoch.map(|epoch| Recorder::new(epoch, index as u32 + 1));
            LoadClient::connect(addr, inputs, ops, retain, (index, clients), rec)
        })
        .collect()
}

/// The untimed start of every served run: `spec.warmup` requests, then
/// the closed loop for `spec.settle`.
pub fn warm_up(spec: &Spec, clients: &mut [LoadClient<'_>]) -> PhaseLog {
    let mut warm = count_phase(clients, spec.warmup);
    let settle = closed_phase(clients, spec.settle);
    warm.attempted += settle.attempted;
    warm.failed += settle.failed;
    warm.elapsed += settle.elapsed;
    warm.first_failure = warm.first_failure.or(settle.first_failure);
    warm
}

/// The served workloads' output check, outside every timed window.
/// Read-only engines: the replies retained during the run against a
/// flat scan of the dataset. Live engines: the shadow set of surviving
/// records is rebuilt from the acknowledged writes, then the retained
/// queries are asked again of the now-quiet daemon and compared with a
/// flat scan over the survivors.
pub fn check_served(
    spec: &Spec,
    inputs: &Inputs,
    retain: &[bool],
    clients: &[LoadClient<'_>],
    addr: SocketAddr,
    threads: usize,
    verdict: &mut Verdict,
) -> std::io::Result<()> {
    let expected = retain.iter().filter(|&&r| r).count();
    if spec.shares == MixShares::READ_ONLY {
        // Every client keeps its own first reply to a retained query;
        // one reply per query is enough.
        let mut replies: Vec<(usize, Vec<Match>)> = clients
            .iter()
            .flat_map(|c| c.sampled.iter().cloned())
            .collect();
        replies.sort_by_key(|r| r.0);
        replies.dedup_by_key(|r| r.0);
        if replies.len() < expected {
            verdict.fail(format!(
                "only {} of {expected} sampled queries were reached",
                replies.len()
            ));
        }
        check_replies(
            &inputs.dataset.iter().collect::<Vec<_>>(),
            inputs,
            &replies,
            threads,
            verdict,
        );
        return Ok(());
    }
    let mut shadow = Shadow::seeded(&inputs.dataset);
    for client in clients {
        for &(id, at) in &client.inserted {
            if let Err(e) = shadow.insert(id, inputs.insert_pool.get(at as u32)) {
                verdict.fail(e);
            }
        }
    }
    for client in clients {
        for &id in &client.deleted {
            if let Err(e) = shadow.delete(id) {
                verdict.fail(e);
            }
        }
    }
    let mut asker = Client::connect(addr)?;
    let mut replies = Vec::with_capacity(expected);
    for at in (0..retain.len()).filter(|&at| retain[at]) {
        let q = &inputs.queries.queries[at];
        match asker.query(&q.text, q.threshold)? {
            Response::Matches(got) => replies.push((at, got)),
            other => verdict.fail(format!(
                "query {at} after the window was answered {other:?}"
            )),
        }
    }
    check_replies(
        &shadow.survivors().collect::<Vec<_>>(),
        inputs,
        &replies,
        threads,
        verdict,
    );
    Ok(())
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

pub fn print_header(spec: &Spec, args: &Args, clients: usize, generate: Duration) {
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} clients {clients} | {} {:?} records, {} queries, generated in {:.3} s",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        spec.records,
        spec.corpus,
        spec.queries,
        generate.as_secs_f64()
    );
}

pub fn print_phase(label: &str, log: &PhaseLog, cycle: usize) {
    println!(
        "  {label}: {} attempted, {} failed, {:.3} s, {:.2} op/s",
        log.attempted,
        log.failed,
        log.elapsed.as_secs_f64(),
        log.ops_per_s()
    );
    // A read's class is its threshold slot; writes are the class after.
    let mut rows = vec![
        ("all".to_string(), log.all_ns()),
        ("late".into(), log.late_ns.clone()),
    ];
    rows.extend(
        log.by_class_ns()
            .into_iter()
            .enumerate()
            .map(|(class, ns)| {
                if class < cycle {
                    (format!("read, threshold class {class}"), ns)
                } else {
                    ("write".into(), ns)
                }
            }),
    );
    for (what, ns) in rows {
        if let Some(s) = Summary::of(&ns_to_ms(&ns)) {
            println!("    {what:<24} {}", s.line("ms"));
        }
    }
    if let Some(why) = &log.first_failure {
        println!("    first failure: {why}");
    }
}

/// What the quiet slices held: which they were, then each class.
pub fn print_quiet(quiet: &Quiet) {
    println!("  quiet slices: {}", quiet.line());
    println!("    {:.2} op/s", quiet.ops_s);
    for (class, ns) in quiet.classes_ns.iter().enumerate() {
        if let Some(s) = Summary::of(&ns_to_ms(ns)) {
            println!("    class {class:<18} {}", s.line("ms"));
        }
    }
}

/// The five end-to-end metrics, in `BENCHMARK.json` order: throughput
/// and latencies of the quiet slices, the median set-up, peak memory.
fn end_to_end(quiet: &Quiet, setup_s: &[f64]) -> Vec<Metric> {
    let classes_ns: Vec<&[u64]> = quiet.classes_ns.iter().map(Vec::as_slice).collect();
    let all = Summary::of(&ns_to_ms(&classes_ns.concat()));
    vec![
        Metric::new("ops_s", quiet.ops_s, "1/s"),
        Metric::new("class_p50_ms", class_median_ms(&classes_ns), "ms"),
        Metric::new("p95_ms", all.map_or(0.0, |s| s.p95), "ms"),
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

pub fn finish(verdict: Verdict, attempted: u64, failed_ops: u64, metrics: Vec<Metric>) -> Outcome {
    println!(
        "  output check: {} compared, {} mismatched{}",
        verdict.checked,
        verdict.mismatches,
        verdict
            .first
            .as_ref()
            .map_or(String::new(), |e| format!(" — {e}"))
    );
    Outcome {
        correct: verdict.mismatches == 0,
        attempted: attempted + verdict.checked,
        failed: failed_ops + verdict.mismatches,
        metrics,
    }
}

/// End-to-end run of a served workload: set-up `setup_reps` times,
/// warm up, then one closed loop of `--seconds`, of which the quiet
/// slices ([`Quiet`]) give the throughput and the latencies.
pub fn run_served(spec: &Spec, args: &Args) -> std::io::Result<Outcome> {
    let clients = client_count();
    let started = Instant::now();
    let inputs = spec.inputs(args.seed);
    print_header(spec, args, clients, started.elapsed());
    let retain = spec.retained_queries(args.seed);
    let first = first_query(&inputs);
    let mut verdict = Verdict::default();

    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..spec.setup_reps {
        drop(served.take());
        let (handle, setup) = spawn_timed(spec, &inputs, clients, &first, &mut verdict)?;
        setup_s.push(setup.as_secs_f64());
        served = Some(handle);
    }
    let server = served.expect("setup_reps is at least 1");
    println!(
        "  setup_s: {}",
        Summary::of(&setup_s).expect("setup ran").line("s")
    );

    let mut load = connect_clients(
        server.addr(),
        spec,
        &inputs,
        &retain,
        clients,
        args.seed,
        None,
    )?;
    let warm = warm_up(spec, &mut load);
    print_phase("warm-up", &warm, inputs.cycle());
    let window = Duration::from_secs(args.seconds);
    let closed = closed_phase(&mut load, window);
    print_phase("closed loop", &closed, inputs.cycle());
    let quiet = Quiet::of(&closed.samples, window);
    print_quiet(&quiet);
    println!(
        "  routed: {:?}, plan epoch {}",
        server.metrics().plan_decisions.snapshot(),
        server.metrics().plan_epoch.get()
    );

    check_served(
        spec,
        &inputs,
        &retain,
        &load,
        server.addr(),
        clients,
        &mut verdict,
    )?;
    drop(load);
    drop(server); // requests shutdown and joins every server thread
    let metrics = end_to_end(&quiet, &setup_s);
    Ok(finish(
        verdict,
        warm.attempted + closed.attempted,
        warm.failed + closed.failed,
        metrics,
    ))
}

/// The index `city_batch` answers from: the compressed (radix) trie with
/// banded rows under a fixed pool — the arm the planner serves city names
/// from, as a fixed engine. A planner-driven engine here gave the metrics
/// two modes by seed: calibrated on `AutoBackend::default_probe` (one
/// threshold, k=1) it routed k=0 to the q-gram index on 3 seeds of 20
/// (1.9 ms a query against 0.015 ms, a quarter of the batch throughput),
/// and calibrated on 16 or 64 seeded queries it routed k=2 and k=3
/// differently from seed to seed (batches of 536–696 ms).
fn index_engine(threads: usize) -> EngineKind {
    EngineKind::IndexModern(IdxVariant::I3Pool { threads })
}

/// End-to-end run of `city_batch`, the paper's protocol with no daemon:
/// build the index and the scan, then whole batches through the index
/// for half the window (throughput of the fastest quarter of them), then
/// single `search` calls from `clients` threads for the other half
/// (latency of the quiet slices).
pub fn run_batch(spec: &Spec, args: &Args) -> std::io::Result<Outcome> {
    let clients = client_count();
    let started = Instant::now();
    let inputs = spec.inputs(args.seed);
    print_header(spec, args, clients, started.elapsed());
    let ds = &inputs.dataset;
    let batch = inputs
        .queries
        .prefix(spec.batch_queries.min(inputs.queries.len()));
    let first = first_query(&inputs);
    let first_q = &inputs.queries.queries[first.0];
    let pool = Strategy::FixedPool { threads: clients };
    let mut verdict = Verdict::default();
    let mut setup_s = Vec::new();
    let mut engines = None;
    for _ in 0..spec.setup_reps {
        drop(engines.take());
        let started = Instant::now();
        let index = SearchEngine::build(ds, index_engine(clients));
        let scan = SearchEngine::build(ds, EngineKind::Scan(SeqVariant::V8BitParallel));
        let replies = [
            index.search(&first_q.text, first_q.threshold),
            scan.search(&first_q.text, first_q.threshold),
        ];
        setup_s.push(started.elapsed().as_secs_f64());
        for reply in &replies {
            verdict.record(|| "first reply".into(), compare(&first.1, reply.matches()));
        }
        engines = Some((index, scan));
    }
    let (index, scan) = engines.expect("setup_reps is at least 1");
    println!(
        "  setup_s: {}",
        Summary::of(&setup_s).expect("setup ran").line("s")
    );

    let warm = inputs.queries.prefix(spec.warmup.min(inputs.queries.len()));
    let _ = (index.run(&warm), scan.run_with_strategy(&warm, pool));

    let half = Duration::from_secs(args.seconds) / 2;
    let mut index_ms = Vec::new();
    let mut index_results = Vec::new();
    let window = Instant::now();
    while window.elapsed() < half {
        let started = Instant::now();
        index_results = index.run(&batch);
        index_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let batched = (index_ms.len() * batch.len()) as u64;
    // Every batch is the same work, so each is a slice of its own:
    // queries per second of the fastest quarter of the batches.
    let quiet_ms = quiet_batch_ms(&index_ms);
    println!(
        "  batch_index_ms ({} queries, radix index, {clients} threads): {}",
        batch.len(),
        Summary::of(&index_ms).expect("a batch ran").line("ms")
    );
    println!(
        "    fastest {} of {} batches: mean {quiet_ms:.4} ms",
        quiet_count(index_ms.len()),
        index_ms.len()
    );

    let cycle = inputs.cycle();
    let released = Instant::now();
    let singles: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|thread| {
                let (index, queries) = (&index, &inputs.queries.queries);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (at, q) in queries
                        .iter()
                        .enumerate()
                        .cycle()
                        .skip(thread * queries.len() / clients)
                    {
                        let sent = Instant::now();
                        if sent - released >= half {
                            break;
                        }
                        std::hint::black_box(index.search(&q.text, q.threshold));
                        let done = Instant::now();
                        samples.push(Sample {
                            done_ns: (done - released).as_nanos() as u64,
                            class: at % cycle,
                            latency_ns: (done - sent).as_nanos() as u64,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("search thread panicked"))
            .collect()
    });
    let searched = singles.len() as u64;
    let all_ns: Vec<u64> = singles.iter().map(|s| s.latency_ns).collect();
    println!(
        "  single search (radix index, {clients} threads), whole window: {}",
        Summary::of(&ns_to_ms(&all_ns))
            .expect("a search ran")
            .line("ms")
    );
    let mut quiet = Quiet::of(&singles, half);
    print_quiet(&quiet);
    // The latencies are the single searches'; `ops_s` is the batches'.
    quiet.ops_s = batch.len() as f64 / (quiet_ms / 1e3);
    println!("  ops_s, from the batches: {:.2} op/s", quiet.ops_s);

    // Outside the window: one V8 scan batch, for the report and the
    // engine-against-engine comparison.
    let started = Instant::now();
    let scan_results = scan.run_with_strategy(&batch, pool);
    println!(
        "  batch_scan_ms ({} queries, V8 scan, {clients} threads): {:.4} ms",
        batch.len(),
        started.elapsed().as_secs_f64() * 1e3
    );

    verdict.record(
        || "index batch against V8 scan batch".into(),
        if index_results == scan_results {
            Ok(())
        } else {
            Err("the two engines' result vectors differ".into())
        },
    );
    let sampled: Vec<(usize, Vec<Match>)> = spec
        .retained_queries(args.seed)
        .iter()
        .enumerate()
        .filter(|&(at, &keep)| keep && at < index_results.len())
        .map(|(at, _)| (at, index_results[at].matches().to_vec()))
        .collect();
    check_replies(
        &ds.iter().collect::<Vec<_>>(),
        &inputs,
        &sampled,
        clients,
        &mut verdict,
    );

    let attempted = batched + searched + batch.len() as u64;
    let metrics = end_to_end(&quiet, &setup_s);
    Ok(finish(verdict, attempted, 0, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_reply_makes_the_run_incorrect() {
        let inputs = Inputs::generate(Corpus::City, 500, 40, 8, 3);
        let records: Vec<(u32, &[u8])> = inputs.dataset.iter().collect();
        let honest: Vec<(usize, Vec<Match>)> = (0..8)
            .map(|at| {
                let q = &inputs.queries.queries[at];
                (at, flat_scan(records.iter().copied(), &q.text, q.threshold))
            })
            .collect();
        let mut verdict = Verdict::default();
        check_replies(&records, &inputs, &honest, 2, &mut verdict);
        assert_eq!((verdict.checked, verdict.mismatches), (8, 0));
        assert!(finish(verdict, 8, 0, Vec::new()).correct);

        // Query 0 has threshold 0 and is a dataset record: it matches.
        let mut tampered = honest;
        assert!(!tampered[0].1.is_empty());
        tampered[0].1[0].distance += 1;
        let mut verdict = Verdict::default();
        check_replies(&records, &inputs, &tampered, 2, &mut verdict);
        assert_eq!((verdict.checked, verdict.mismatches), (8, 1));
        assert!(verdict.first.as_deref().unwrap().starts_with("query 0"));
        let outcome = finish(verdict, 8, 0, Vec::new());
        assert!(
            !outcome.correct && outcome.failed == 1,
            "main exits non-zero on this"
        );
    }

    #[test]
    fn retained_queries_are_seeded_early_and_balanced() {
        for name in WORKLOADS {
            for smoke in [false, true] {
                let spec = Spec::named(name, smoke).unwrap();
                let retain = spec.retained_queries(5);
                assert_eq!(retain, spec.retained_queries(5));
                assert_ne!(retain, spec.retained_queries(6));
                let cycle = spec.corpus.thresholds().len();
                for k_slot in 0..cycle {
                    let kept = retain
                        .iter()
                        .enumerate()
                        .filter(|&(at, &keep)| keep && at % cycle == k_slot)
                        .count();
                    assert_eq!(kept, spec.check_samples / cycle, "{name} smoke={smoke}");
                }
                assert!(retain.iter().rposition(|&keep| keep).unwrap() < 128);
            }
        }
    }
}
