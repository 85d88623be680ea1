//! The traced run: the same daemon and load as the end-to-end run, with
//! a span at every layer boundary the benchmark can reach from outside,
//! then an in-process replay that times each layer on its own.
//!
//! The `--seconds` window is split in four: a quarter untraced closed
//! loop, in two halves either side of a quarter traced closed loop
//! (their throughput ratio is the tracing overhead; the daemon is still
//! re-tuning itself, so a plain before/after would favour the second),
//! then half open loop at the workload's fixed rate.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use simsearch_serve::{Client, Metrics};

use crate::layers::{self, ARMS, PER_LAYER};
use crate::load::{closed_phase, open_phase};
use crate::stats::{ns_to_ms, percentile};
use crate::trace::{aggregate, write_jsonl, Aggregate, Recorder, Span};
use crate::workloads::{
    check_served, client_count, connect_clients, finish, first_query, print_header, print_phase,
    spawn_timed, warm_up, Spec, Verdict,
};
use crate::{Args, Metric, Outcome};

/// Where the span files go: `benchmark/out/`, next to the manifest this
/// binary was built from.
fn trace_path(workload: &str) -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("trace_{workload}.jsonl"),
    ]
    .iter()
    .collect()
}

/// `(count, sum)` of the admission-to-reply histogram. The registry
/// keeps the sum; its `mean()` is that sum over the count.
fn admitted(metrics: &Metrics) -> (u64, u64) {
    let count = metrics.latency_ns.count();
    (count, metrics.latency_ns.mean() * count)
}

fn mean_ms(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e6
}

fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut ms = ns_to_ms(ns);
    ms.sort_by(f64::total_cmp);
    ms
}

pub fn run(spec: &Spec, args: &Args) -> std::io::Result<Outcome> {
    let clients = client_count();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let inputs = rec.time("data.generate", 0, 0, 1, || spec.inputs(args.seed));
    print_header(spec, args, clients, Duration::from_nanos(rec.last_ns()));
    let retain = spec.retained_queries(args.seed);
    let mut verdict = Verdict::default();
    let (server, setup) = spawn_timed(spec, &inputs, clients, &first_query(&inputs), &mut verdict)?;
    println!("  set-up: {:.3} s", setup.as_secs_f64());
    let quarter = Duration::from_secs(args.seconds) / 4;

    let mut plain = connect_clients(
        server.addr(),
        spec,
        &inputs,
        &retain,
        clients,
        args.seed,
        None,
    )?;
    let warm = warm_up(spec, &mut plain);
    let mut traced = connect_clients(
        server.addr(),
        spec,
        &inputs,
        &retain,
        clients,
        args.seed,
        Some(epoch),
    )?;
    let untraced_before = closed_phase(&mut plain, quarter / 2);
    print_phase("closed loop, untraced", &untraced_before, inputs.cycle());
    let before = (admitted(server.metrics()), server.metrics().batches.get());
    let closed = closed_phase(&mut traced, quarter);
    let after = (admitted(server.metrics()), server.metrics().batches.get());
    print_phase("closed loop, traced", &closed, inputs.cycle());
    let untraced_after = closed_phase(&mut plain, quarter / 2);
    print_phase("closed loop, untraced", &untraced_after, inputs.cycle());
    let untraced_ops_s = (untraced_before.succeeded() + untraced_after.succeeded()) as f64
        / (untraced_before.elapsed + untraced_after.elapsed).as_secs_f64();
    let open = open_phase(&mut traced, spec.open_rate, quarter * 2, args.seed + 2);
    print_phase(
        &format!("open loop at {} req/s", spec.open_rate),
        &open,
        inputs.cycle(),
    );

    let mut prober = Client::connect(server.addr())?;
    let mut health_ns = Vec::new();
    for _ in 0..200 {
        let sent = Instant::now();
        if !prober.health()? {
            verdict.fail("HEALTH was not answered healthy".into());
        }
        health_ns.push(sent.elapsed().as_nanos() as u64);
    }
    drop(prober);

    let all_clients: Vec<_> = plain.into_iter().chain(traced).collect();
    check_served(
        spec,
        &inputs,
        &retain,
        &all_clients,
        server.addr(),
        clients,
        &mut verdict,
    )?;
    let refused = (
        server.metrics().rejected_busy.get(),
        server.metrics().dropped_timeout.get(),
    );
    let mut spans: Vec<Span> = all_clients
        .into_iter()
        .flat_map(|c| c.into_spans())
        .collect();
    drop(server); // requests shutdown and joins every server thread

    let counts = layers::measure(
        &layers::Run {
            spec,
            inputs: &inputs,
            clients,
            seed: args.seed,
            // The replay has as many threads as the daemon had workers,
            // so the traced quarter's ops take about a quarter again;
            // twice that is slack, not a target.
            budget: quarter * 2,
            ops: closed.attempted,
        },
        &mut rec,
    );
    if let Some(why) = &counts.first_disagreement {
        verdict.fail(format!(
            "{} layer disagreements, first: {why}",
            counts.disagreements
        ));
    }
    spans.extend(rec.into_spans());
    let path = trace_path(spec.name);
    write_jsonl(&path, &spans)?;
    let agg = aggregate(&spans);
    print_spans(&agg, spans.len(), &path);

    // Serve-side means over the traced closed loop only.
    let admit_ms =
        (after.0 .1 - before.0 .1) as f64 / (after.0 .0 - before.0 .0).max(1) as f64 / 1e6;
    let rtt_ms = mean_ms(&closed.all_ns());
    let executed = [
        "core.backend.search",
        "core.backend.insert",
        "core.backend.delete",
    ]
    .iter()
    .filter_map(|name| agg.get(name))
    .fold(Aggregate::default(), |a, b| Aggregate {
        count: a.count + b.count,
        total_ns: a.total_ns + b.total_ns,
        ..a
    });
    let open_ms = sorted_ms(&open.all_ns());
    let late_ms = sorted_ms(&open.late_ns);
    let pct = |sorted: &[f64], p: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile(sorted, p)
        }
    };
    let per_unit = |name: &str, scale: f64| agg.get(name).map_or(0.0, |a| a.ns_per_unit() / scale);
    let builds_ns: u64 = [
        "data.sorted_build",
        "scan.flat_build",
        "index.radix_build",
        "index.qgram_build",
    ]
    .iter()
    // Calibration builds the sorted view twice: once for the V7 arm
    // and once for the V8 arm.
    .map(|&name| {
        agg.get(name).map_or(0, |a| a.total_ns) * if name == "data.sorted_build" { 2 } else { 1 }
    })
    .sum();
    let routed_total = counts.routed.iter().sum::<u64>().max(1) as f64;
    let per_query = |total: u64| total as f64 / counts.scan_queries.max(1) as f64;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.into(), value);
    };
    set("data.generate_ms", per_unit("data.generate", 1e6));
    set("data.sorted_build_ms", per_unit("data.sorted_build", 1e6));
    set(
        "distance.banded_ns_per_pair",
        per_unit("distance.banded", 1.0),
    );
    set(
        "distance.myers_ns_per_pair",
        per_unit("distance.myers", 1.0),
    );
    set("scan.v7_ms_per_query", per_unit("scan.v7", 1e6));
    set("scan.v8_ms_per_query", per_unit("scan.v8", 1e6));
    set("scan.v7_cells_per_query", per_query(counts.v7_cells));
    set("scan.v8_words_per_query", per_query(counts.v8_words));
    set("index.radix_build_ms", per_unit("index.radix_build", 1e6));
    set("index.qgram_build_ms", per_unit("index.qgram_build", 1e6));
    set("index.radix_ms_per_query", per_unit("index.radix", 1e6));
    set("index.qgram_ms_per_query", per_unit("index.qgram", 1e6));
    set("parallel.batch_efficiency", counts.batch_efficiency);
    set(
        "core.engine.batch_auto_ms",
        per_unit("core.engine.batch_auto", 1e6),
    );
    set(
        "core.engine.batch_scan_ms",
        per_unit("core.engine.batch_scan", 1e6),
    );
    set(
        "core.planner.decide_ns",
        per_unit("core.planner.decide_loop", 1.0),
    );
    for (arm, routed) in ARMS.iter().zip(counts.routed) {
        set(
            &format!("core.planner.routed_share.{}", arm.name()),
            routed as f64 / routed_total,
        );
    }
    set("core.planner.regret_ratio", counts.regret_ratio);
    set(
        "core.planner.calibrate_s",
        agg.get("core.planner.calibrate")
            .map_or(0, |a| a.total_ns)
            .saturating_sub(builds_ns) as f64
            / 1e9,
    );
    set("core.backend.search_ms_per_query", executed.ms_per_unit());
    set(
        "core.sharded.merge_ns_per_query",
        per_unit("core.sharded.merge", 1.0),
    );
    set("core.lsm.insert_ns", per_unit("core.lsm.insert", 1.0));
    set("core.lsm.delete_ns", per_unit("core.lsm.delete", 1.0));
    set(
        "core.lsm.compact_step_ms",
        per_unit("core.lsm.compact_step", 1e6),
    );
    set("core.lsm.compactions", counts.lsm.compactions as f64);
    set("core.lsm.segments_end", counts.lsm.segments as f64);
    set("core.lsm.tombstones_end", counts.lsm.tombstones as f64);
    set(
        "core.lsm.search_ms_per_query",
        per_unit("core.lsm.search", 1e6),
    );
    set("core.passjoin.join_ms", per_unit("core.passjoin.join", 1e6));
    set(
        "core.passjoin.candidates_verified",
        counts.join.candidates_verified as f64,
    );
    set(
        "serve.protocol.parse_request_ns",
        per_unit("serve.protocol.parse_request", 1.0),
    );
    set(
        "serve.protocol.encode_response_ns",
        per_unit("serve.protocol.encode_response", 1.0),
    );
    set(
        "serve.protocol.reply_bytes_per_query",
        counts.reply_bytes as f64 / counts.replies.max(1) as f64,
    );
    set("serve.health_rtt_us", mean_ms(&health_ns) * 1e3);
    set("serve.client_rtt_ms", rtt_ms);
    set("serve.server.admit_to_reply_ms", admit_ms);
    set("serve.socket_ms", rtt_ms - admit_ms);
    set("serve.queue_wait_ms", admit_ms - executed.ms_per_unit());
    set("serve.overhead_ms", rtt_ms - executed.ms_per_unit());
    set(
        "serve.batch.mean_batch_size",
        (after.0 .0 - before.0 .0) as f64 / (after.1 - before.1).max(1) as f64,
    );
    set("serve.batch.batches", (after.1 - before.1) as f64);
    set("serve.rejected_busy", refused.0 as f64);
    set("serve.dropped_timeout", refused.1 as f64);
    set("serve.open_p50_ms", pct(&open_ms, 50.0));
    set("serve.open_p95_ms", pct(&open_ms, 95.0));
    set("serve.open_p99_ms", pct(&open_ms, 99.0));
    set("loadgen.late_p95_ms", pct(&late_ms, 95.0));
    set("loadgen.late_max_ms", pct(&late_ms, 100.0));
    set(
        "client.encode_request_ns",
        per_unit("serve.protocol.encode_request", 1.0),
    );
    set("client.socket_write_us", per_unit("socket.write", 1e3));
    set("client.wait_reply_ms", per_unit("wait_reply", 1e6));
    set(
        "client.parse_response_us",
        per_unit("serve.protocol.parse_response", 1e3),
    );
    set("trace_overhead_ratio", closed.ops_per_s() / untraced_ops_s);

    println!("  per-layer metrics:");
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .remove(name)
                .unwrap_or_else(|| panic!("{name} is declared but was not measured"));
            println!("    {name:<44} {value:>16.4} {unit}");
            Metric::new(name, value, unit)
        })
        .collect();
    assert!(
        values.is_empty(),
        "measured but not declared in PER_LAYER: {:?}",
        values.keys()
    );

    let phases = [&warm, &untraced_before, &closed, &untraced_after, &open];
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum::<u64>() + health_ns.len() as u64;
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    Ok(finish(verdict, attempted, failed, metrics))
}

/// The span table: per name, how often, how long, and how much of that
/// was the span's own (not its children's).
fn print_spans(agg: &BTreeMap<&'static str, Aggregate>, total: usize, path: &std::path::Path) {
    println!("  {total} spans -> {}", path.display());
    println!(
        "    {:<34} {:>9} {:>11} {:>14} {:>14}",
        "span", "spans", "units", "mean/unit us", "self/span us"
    );
    for (name, a) in agg {
        println!(
            "    {name:<34} {:>9} {:>11} {:>14.3} {:>14.3}",
            a.spans,
            a.count,
            a.ns_per_unit() / 1e3,
            a.self_ns as f64 / a.spans.max(1) as f64 / 1e3
        );
    }
}
