//! `simsearch` — the competition-style command-line tool.
//!
//! Mirrors the workflow of the paper's implementations: read a data file
//! and a query file, answer every query, write the matching record ids.
//! Also generates the synthetic datasets and prints dataset statistics.

mod args;

use args::{ClientArgs, Command, ExplainArgs, GenerateArgs, JoinArgs, SearchArgs, ServeArgs};
use simsearch_core::{
    experiment::time, AutoBackend, Backend, EngineKind, PlanDecision, Planner, Probe, SearchEngine,
    ShardedBackend,
};
use simsearch_data::{io, Alphabet, CityGenerator, DnaGenerator, MatchSet, WorkloadSpec};
use simsearch_data::{Dataset, DatasetStats, StatsSnapshot, CITY_THRESHOLDS, DNA_THRESHOLDS};
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<std::ffi::OsString> = std::env::args_os().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            print!("{}", args::usage());
            Ok(())
        }
        Command::Search(a) => run_search(a),
        Command::Generate(g) => run_generate(g),
        Command::Stats { data } => run_stats(&data),
        Command::Join(j) => run_join(j),
        Command::Verify { results, expected } => run_verify(&results, &expected),
        Command::Serve(s) => run_serve(s),
        Command::Client(c) => run_client(c),
        Command::Explain(e) => run_explain(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_search(a: SearchArgs) -> Result<(), String> {
    let dataset = io::read_dataset(&a.data).map_err(|e| format!("reading {:?}: {e}", a.data))?;
    let workload =
        io::read_queries(&a.queries).map_err(|e| format!("reading {:?}: {e}", a.queries))?;
    // Planner-driven engines calibrate with a probe drawn from the
    // workload prefix (build-time cost, like index construction) —
    // sharded, every shard against the same prefix, so per-shard
    // routing reflects the real query mix. Fixed engines ignore it.
    let probe = workload.prefix(workload.len().min(16));
    let kind = if a.shards >= 2 {
        EngineKind::Sharded {
            shards: a.shards,
            by: a.shard_by,
            threads: a.threads,
            arm: a.engine.shard_arm(),
        }
    } else {
        a.engine.engine_kind(a.threads)
    };
    let (engine, build_time) =
        time(|| SearchEngine::build_with(&dataset, kind, Probe::Workload(&probe)));
    let (results, query_time) = time(|| engine.run(&workload));
    let backend = engine.backend();
    // Unsharded engines keep their paper-style kind label; a sharded
    // composite names its own layout.
    let name = if a.shards >= 2 {
        backend.name()
    } else {
        engine.name()
    };
    eprintln!(
        "{name}: {} records, {} queries; build {:.3}s, query {:.3}s",
        dataset.len(),
        workload.len(),
        build_time.as_secs_f64(),
        query_time.as_secs_f64()
    );
    if let Some(counts) = backend.plan_counts() {
        let routed: Vec<String> = counts
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(name, c)| format!("{name}={c}"))
            .collect();
        eprintln!("plan decisions: {}", routed.join(" "));
    }
    for (i, s) in backend.shard_stats().into_iter().flatten().enumerate() {
        eprintln!(
            "  shard s{i}: {} records, {} queries, {} matches",
            s.records, s.queries, s.matches
        );
    }
    write_search_results(a.output.as_deref(), &results)
}

fn write_search_results(
    output: Option<&std::path::Path>,
    results: &[MatchSet],
) -> Result<(), String> {
    let id_lists: Vec<Vec<u32>> = results.iter().map(MatchSet::ids).collect();
    match output {
        Some(path) => {
            io::write_results(path, &id_lists).map_err(|e| format!("writing {path:?}: {e}"))?
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            for (i, ids) in id_lists.iter().enumerate() {
                let list: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
                writeln!(lock, "{i}: {}", list.join(","))
                    .map_err(|e| format!("writing stdout: {e}"))?;
            }
        }
    }
    Ok(())
}

fn run_serve(a: ServeArgs) -> Result<(), String> {
    use std::time::Duration;
    let dataset = io::read_dataset(&a.data).map_err(|e| format!("reading {:?}: {e}", a.data))?;
    let label = a
        .data
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".into());
    let config = simsearch_serve::ServerConfig {
        port: a.port,
        dataset_label: label,
        // 0 disables the self-tuning tick; any other cadence runs it on
        // a scoped background thread inside the daemon.
        replan_interval: (a.replan_interval_ms > 0)
            .then(|| Duration::from_millis(a.replan_interval_ms)),
        batch: simsearch_serve::BatchConfig {
            threads: a.threads,
            queue_capacity: a.queue_capacity,
            deadline: Duration::from_millis(a.deadline_ms),
            ..simsearch_serve::BatchConfig::default()
        },
        ..simsearch_serve::ServerConfig::default()
    };
    let records = dataset.len();
    // Sharded serving: per-shard calibrated planners, sequential
    // per-query fan-out (connection handlers supply the concurrency).
    // Live serving: the dataset seeds a mutable LSM engine and the
    // daemon accepts INSERT/DELETE. Both together compose: hash-routed
    // LiveEngine shards with per-shard flush and compaction.
    let kind = if a.live && a.shards >= 2 {
        EngineKind::ShardedLive {
            shards: a.shards,
            by: a.shard_by,
            threads: 1,
            memtable_cap: a.memtable_cap,
        }
    } else if a.live {
        EngineKind::Live {
            memtable_cap: a.memtable_cap,
        }
    } else if a.shards >= 2 {
        EngineKind::Sharded {
            shards: a.shards,
            by: a.shard_by,
            threads: 1,
            arm: None,
        }
    } else {
        a.engine.engine_kind(1)
    };
    let handle = simsearch_serve::spawn(dataset, kind, config)
        .map_err(|e| format!("binding 127.0.0.1:{}: {e}", a.port))?;
    // The actually-bound address, on stdout, before any connection is
    // served — scripts pointing at `--port 0` parse this line. Rust's
    // stdout is line-buffered, so the line is visible immediately.
    println!("simsearchd listening on {}", handle.addr());
    eprintln!(
        "serving {records} records from {:?}; send SHUTDOWN to stop",
        a.data
    );
    if let Some(path) = &a.port_file {
        std::fs::write(path, format!("{}\n", handle.port()))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    handle.join(); // returns once a SHUTDOWN frame has drained the server
    eprintln!("simsearchd drained and exited");
    Ok(())
}

fn run_client(a: ClientArgs) -> Result<(), String> {
    let mut client = simsearch_serve::Client::connect((a.host.as_str(), a.port))
        .map_err(|e| format!("connecting to {}:{}: {e}", a.host, a.port))?;
    for bytes in &a.send {
        let frame = String::from_utf8_lossy(bytes);
        let reply = client
            .send_raw(bytes)
            .map_err(|e| format!("sending {frame:?}: {e}"))?;
        let line = String::from_utf8_lossy(&reply).into_owned();
        if a.check_stats_json {
            if let Some(json) = line.strip_prefix("OK ") {
                if json.starts_with('{') {
                    simsearch_serve::json::validate(json)
                        .map_err(|e| format!("reply to {frame:?} is not valid JSON: {e}"))?;
                }
            }
        }
        println!("{line}");
        // A `JOIN` reply is a stream: the `OK join <total>` header is
        // followed by `OK pairs` chunk frames. Drain and print them all
        // so the next request's reply isn't misread as a chunk.
        if let Some(total) = line
            .strip_prefix("OK join ")
            .and_then(|t| t.parse::<u64>().ok())
        {
            let mut streamed: u64 = 0;
            while streamed < total {
                let chunk = client
                    .recv_raw()
                    .map_err(|e| format!("draining join stream for {frame:?}: {e}"))?;
                let chunk = String::from_utf8_lossy(&chunk).into_owned();
                let count = chunk
                    .strip_prefix("OK pairs ")
                    .and_then(|rest| rest.split(' ').next())
                    .and_then(|n| n.parse::<u64>().ok())
                    .ok_or_else(|| format!("unexpected frame in join stream: {chunk:?}"))?;
                streamed += count;
                println!("{chunk}");
            }
        }
    }
    Ok(())
}

fn run_generate(g: GenerateArgs) -> Result<(), String> {
    let dataset = match g.kind.as_str() {
        "city" => CityGenerator::new(g.seed).generate(g.count),
        "dna" => DnaGenerator::new(g.seed).generate(g.count),
        other => return Err(format!("unknown kind '{other}'")),
    };
    io::write_dataset(&g.out, &dataset).map_err(|e| format!("writing {:?}: {e}", g.out))?;
    eprintln!("wrote {} records to {:?}", dataset.len(), g.out);
    if let Some(qpath) = g.queries_out {
        let alphabet = Alphabet::from_corpus(dataset.records());
        let thresholds: &[u32] = if g.kind == "dna" {
            &DNA_THRESHOLDS
        } else {
            &CITY_THRESHOLDS
        };
        let workload = WorkloadSpec::new(thresholds, g.query_count, g.seed ^ 0x0A)
            .generate(&dataset, &alphabet);
        io::write_queries(&qpath, &workload).map_err(|e| format!("writing {qpath:?}: {e}"))?;
        eprintln!("wrote {} queries to {qpath:?}", workload.len());
    }
    Ok(())
}

fn run_join(j: JoinArgs) -> Result<(), String> {
    use simsearch_core::parallel_pass_join;
    let dataset = io::read_dataset(&j.data).map_err(|e| format!("reading {:?}: {e}", j.data))?;
    let (pairs, wall) = time(|| parallel_pass_join(&dataset, j.k, args::pool(j.threads)));
    eprintln!(
        "pass join, k = {}: {} pairs in {:.3}s",
        j.k,
        pairs.len(),
        wall.as_secs_f64()
    );
    let render = |out: &mut dyn std::io::Write| -> std::io::Result<()> {
        for p in &pairs {
            writeln!(out, "{}	{}	{}", p.left, p.right, p.distance)?;
        }
        Ok(())
    };
    match j.output {
        Some(path) => {
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(&path).map_err(|e| format!("creating {path:?}: {e}"))?,
            );
            render(&mut f).map_err(|e| format!("writing {path:?}: {e}"))?;
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            render(&mut lock).map_err(|e| format!("writing stdout: {e}"))?;
        }
    }
    Ok(())
}

fn run_verify(results: &std::path::Path, expected: &std::path::Path) -> Result<(), String> {
    let read = |p: &std::path::Path| -> Result<Vec<String>, String> {
        Ok(std::fs::read_to_string(p)
            .map_err(|e| format!("reading {p:?}: {e}"))?
            .lines()
            .map(str::to_string)
            .collect())
    };
    let got = read(results)?;
    let want = read(expected)?;
    if got.len() != want.len() {
        return Err(format!(
            "line counts differ: {} results vs {} expected",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        if g != w {
            return Err(format!("line {} differs:
  got:      {g}
  expected: {w}", i + 1));
        }
    }
    println!("OK: {} result lines identical", got.len());
    Ok(())
}

fn run_explain(a: ExplainArgs) -> Result<(), String> {
    let dataset = io::read_dataset(&a.data).map_err(|e| format!("reading {:?}: {e}", a.data))?;
    let snapshot = StatsSnapshot::compute(&dataset);
    println!("{snapshot}");
    // The static table is a pure function of the snapshot, so this
    // output is reproducible run-to-run (the planner-determinism
    // property the test suite checks).
    let planner = Planner::new(snapshot.clone(), &AutoBackend::DEFAULT_CANDIDATES);
    println!();
    println!("static plan (length class × k → backend; costs in planner units):");
    print_decision_table(&snapshot, planner.decisions());
    println!();
    println!("static routing summary (query classes won per backend):");
    for &choice in planner.candidates() {
        let won = planner
            .decisions()
            .iter()
            .filter(|d| d.chosen == choice)
            .count();
        println!("  {:<16} {won} classes", choice.name());
    }
    if a.shards >= 2 {
        return explain_sharded(&a, &dataset);
    }
    if let Some(qpath) = &a.queries {
        let workload =
            io::read_queries(qpath).map_err(|e| format!("reading {qpath:?}: {e}"))?;
        let probe = workload.prefix(workload.len().min(16));
        let (auto, build_time) = time(|| {
            let auto = AutoBackend::calibrated(&dataset, a.threads, &probe);
            auto.prepare();
            auto
        });
        let (_, query_time) = time(|| auto.run_workload(&workload));
        println!();
        println!(
            "calibrated routing of {} queries (build {:.3}s, query {:.3}s):",
            workload.len(),
            build_time.as_secs_f64(),
            query_time.as_secs_f64()
        );
        // The build-time race: an arm far off the best got few timings,
        // so its multipliers are coarse — and do not need to be finer.
        let plan = auto.diag().plan.expect("auto reports its plan");
        for (name, seen, nanos) in plan.probe {
            println!(
                "  probe: {name:<16} {seen} timed in {:.3} ms",
                nanos as f64 / 1e6
            );
        }
        for (name, count) in auto.plan_counts() {
            println!("  {name:<12} {count}");
        }
        explain_live_diff(&auto, workload.len(), &planner);
    }
    Ok(())
}

/// The live-vs-static half of `explain`: `auto` has just answered the
/// workload with its observation grid recording; run one replan tick
/// and print every query class whose routing the measured multipliers
/// changed — exactly what a serving daemon's first replan would do to
/// the static table.
fn explain_live_diff(auto: &AutoBackend<'_>, replayed: usize, statik: &Planner) {
    println!();
    if !auto.replan() {
        println!(
            "live vs static plan: {} observed queries are too few to \
             recalibrate (the daemon would keep the current table)",
            auto.observations().total()
        );
        return;
    }
    let live = auto.planner();
    let changed: Vec<(&PlanDecision, &PlanDecision)> = statik
        .decisions()
        .iter()
        .zip(live.decisions())
        .filter(|(s, l)| s.chosen != l.chosen)
        .collect();
    println!(
        "live vs static plan after replaying {} queries: {} of {} \
         classes rerouted",
        replayed,
        changed.len(),
        statik.decisions().len()
    );
    for (s, l) in changed {
        println!(
            "  {:<6} k={:<2} {} → {}",
            len_label(s.class.len_class),
            s.class.k_class,
            s.chosen.name(),
            l.chosen.name()
        );
    }
    println!("observed arm latencies backing the live table:");
    for (name, nanos) in auto.observed_arm_nanos() {
        println!("  {name:<16} {nanos} ns");
    }
}

/// The row label of a planner length class.
fn len_label(class: u8) -> &'static str {
    match class {
        0 => "short",
        1 => "medium",
        _ => "long",
    }
}

/// One planner decision table, one row per query class.
fn print_decision_table(snapshot: &StatsSnapshot, decisions: &[PlanDecision]) {
    for decision in decisions {
        let repr = decision.class.representative_len(snapshot);
        let costs: Vec<String> = decision
            .estimates
            .iter()
            .map(|e| format!("{}={:.0}", e.choice.name(), e.cost))
            .collect();
        println!(
            "  {:<6} (|q|≈{repr:>4}) k={:<2} → {:<12} [{}]",
            len_label(decision.class.len_class),
            decision.class.k_class,
            decision.chosen.name(),
            costs.join(", ")
        );
    }
}

/// The `--shards` half of `explain`: every shard's own snapshot and
/// decision table, plus (with `--queries`) calibrated per-shard routing
/// of the workload.
fn explain_sharded(a: &ExplainArgs, dataset: &Dataset) -> Result<(), String> {
    let workload = match &a.queries {
        Some(qpath) => {
            Some(io::read_queries(qpath).map_err(|e| format!("reading {qpath:?}: {e}"))?)
        }
        None => None,
    };
    // With a workload on hand each shard's planner is calibrated
    // against its prefix, matching what `search --shards` runs.
    let prefix = workload.as_ref().map(|w| w.prefix(w.len().min(16)));
    let probe = prefix.as_ref().map_or(Probe::Static, Probe::Workload);
    let backend = ShardedBackend::with_probe(dataset, a.shards, a.shard_by, a.threads, probe);
    println!();
    println!(
        "sharded plan ({} shards, --shard-by {}):",
        a.shards,
        a.shard_by.name()
    );
    for (i, diag) in backend.shard_diags().iter().enumerate() {
        let Some(plan) = &diag.plan else { continue };
        println!();
        println!(
            "shard s{i} ({}, {} records):",
            diag.name, plan.snapshot.records
        );
        println!("{}", plan.snapshot);
        print_decision_table(&plan.snapshot, &plan.decisions);
    }
    if let Some(workload) = &workload {
        backend.prepare();
        let (_, query_time) = time(|| backend.run_workload(workload));
        println!();
        println!(
            "calibrated sharded routing of {} queries ({:.3}s):",
            workload.len(),
            query_time.as_secs_f64()
        );
        if let Some(counts) = backend.plan_counts() {
            for (name, count) in counts {
                println!("  {name:<12} {count}");
            }
        }
        for (i, s) in backend.shard_stats().into_iter().flatten().enumerate() {
            println!(
                "  shard s{i}: {} records, {} queries, {} matches",
                s.records, s.queries, s.matches
            );
        }
    }
    Ok(())
}

fn run_stats(path: &std::path::Path) -> Result<(), String> {
    let dataset = io::read_dataset(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let stats = DatasetStats::compute(&dataset);
    println!("{stats}");
    Ok(())
}
