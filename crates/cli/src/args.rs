//! Command-line argument parsing (hand-rolled; the workspace keeps its
//! dependency set to the algorithmic essentials).

use simsearch_core::{BackendChoice, EngineKind, IdxVariant, SeqVariant, ShardBy, Strategy};
use std::ffi::{OsStr, OsString};
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `simsearch search`: answer a query file against a data file.
    Search(SearchArgs),
    /// `simsearch generate`: write a synthetic dataset (and workload).
    Generate(GenerateArgs),
    /// `simsearch stats`: print Table-I-style properties of a data file.
    Stats {
        /// The data file.
        data: PathBuf,
    },
    /// `simsearch join`: similarity self-join of a data file.
    Join(JoinArgs),
    /// `simsearch verify`: compare two result files.
    Verify {
        /// Result file under test.
        results: PathBuf,
        /// Reference result file.
        expected: PathBuf,
    },
    /// `simsearch serve`: run the `simsearchd` query daemon.
    Serve(ServeArgs),
    /// `simsearch client`: send protocol frames to a running daemon.
    Client(ClientArgs),
    /// `simsearch explain`: print the planner's statistics snapshot and
    /// per-query-class backend decisions for a data file.
    Explain(ExplainArgs),
    /// `simsearch help`.
    Help,
}

/// Arguments of the `explain` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainArgs {
    /// Data file (one record per line).
    pub data: PathBuf,
    /// Optional query file: when present, the planner also routes the
    /// workload and reports per-backend decision counts.
    pub queries: Option<PathBuf>,
    /// Worker threads the planned engine would use.
    pub threads: usize,
    /// Number of shards (0 or 1 = unsharded). When ≥ 2, `explain` also
    /// prints every shard's snapshot and decision table.
    pub shards: usize,
    /// Shard partitioner (`--shard-by len|hash`).
    pub shard_by: ShardBy,
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Data file (one record per line). `--dataset` is an alias.
    pub data: PathBuf,
    /// Engine selector (default: scan-sorted, the V7 kernel — it also
    /// feeds the `dp_cells` counter in `STATS`).
    pub engine: EngineChoice,
    /// Execution permits: how many requests run on the engine at once
    /// (each on the connection handler that read it).
    pub threads: usize,
    /// Port on loopback; 0 (the default) binds an ephemeral port, and
    /// the server prints the actually-bound one on startup.
    pub port: u16,
    /// When set, the actually-bound port is also written to this file
    /// (so scripts can find an ephemeral port without parsing stdout).
    pub port_file: Option<PathBuf>,
    /// How many connection handlers may wait for a permit before the
    /// next is answered `BUSY`. The daemon runs 16 handlers with one
    /// request in flight each, so at most `16 − threads` ever wait: a
    /// larger value (the default 1024 included) never binds.
    pub queue_capacity: usize,
    /// Per-request deadline, milliseconds (exceeded ⇒ `TIMEOUT`).
    pub deadline_ms: u64,
    /// Number of shards (0 or 1 = unsharded). When ≥ 2 the daemon
    /// serves a sharded engine with per-shard calibrated planners and
    /// the engine selector is ignored.
    pub shards: usize,
    /// Shard partitioner (`--shard-by len|hash`).
    pub shard_by: ShardBy,
    /// Serve a live (mutable) engine: the dataset seeds an LSM engine
    /// and the daemon accepts `INSERT`/`DELETE`. Overrides the engine
    /// selector. With `--shards` ≥ 2 every shard is its own LSM engine
    /// (hash-routed mutations; requires `--shard-by hash`).
    pub live: bool,
    /// Per-(shard-)memtable flush threshold for `--live` (records).
    pub memtable_cap: usize,
    /// Self-tuning replan cadence in milliseconds; 0 disables the
    /// background tick (default 1000).
    pub replan_interval_ms: u64,
}

/// Arguments of the `client` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Server host (default 127.0.0.1).
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Frames to send, in order, as the bytes they arrived in (records
    /// are not UTF-8 in general); each reply is printed on its own line.
    pub send: Vec<Vec<u8>>,
    /// Validate every `OK {…}` reply as JSON; exit non-zero otherwise.
    pub check_stats_json: bool,
}

/// Arguments of the `join` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinArgs {
    /// Data file (one record per line).
    pub data: PathBuf,
    /// Join threshold.
    pub k: u32,
    /// Output file; stdout when absent.
    pub output: Option<PathBuf>,
    /// Pool threads.
    pub threads: usize,
}

/// Arguments of the `search` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArgs {
    /// Data file (one record per line).
    pub data: PathBuf,
    /// Query file (`query<TAB>k` per line).
    pub queries: PathBuf,
    /// Output file (`index: id,id,...` per line); stdout when absent.
    pub output: Option<PathBuf>,
    /// Engine selector.
    pub engine: EngineChoice,
    /// Pool threads for parallel engines.
    pub threads: usize,
    /// Number of shards (0 or 1 = unsharded). When ≥ 2 the dataset is
    /// partitioned and each shard runs the selected engine's arm (or
    /// its own calibrated planner for `auto`).
    pub shards: usize,
    /// Shard partitioner (`--shard-by len|hash`).
    pub shard_by: ShardBy,
}

/// Which engine the CLI runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Best sequential scan (rung 6).
    Scan,
    /// Naive base scan (rung 1).
    ScanBase,
    /// Uncompressed prefix tree.
    Trie,
    /// Compressed radix tree (default).
    Radix,
    /// Inverted q-gram index.
    Qgram,
    /// LCP-resumable scan over the sorted arena (rung 7).
    ScanSorted,
    /// Bit-parallel Myers sweep over the sorted arena (rung 8).
    ScanBitParallel,
    /// Adaptive planner: route each query to the cheapest backend.
    Auto,
}

/// One row per engine the CLI can name: the spelling `USAGE` and the
/// "expected …" error list, the other spellings `--backend` accepts,
/// the selector they parse to, the arm every shard runs under
/// `--shards N` (`None`: each shard calibrates its own planner), and the
/// [`EngineKind`] an unsharded run builds for a thread count.
type EngineRow = (
    &'static str,
    &'static [&'static str],
    EngineChoice,
    Option<BackendChoice>,
    fn(usize) -> EngineKind,
);

/// The executor a `threads`-wide run schedules its workload on.
pub fn pool(threads: usize) -> Strategy {
    if threads > 1 {
        Strategy::FixedPool { threads }
    } else {
        Strategy::Sequential
    }
}

/// The one engine-name table, in the order `USAGE` lists the names.
/// `scan` and `scan-base` share the flat shard arm, and `trie` shares
/// `radix`'s — shard-local scheduling is the sharded backend's job, and
/// the naive rung and the uncompressed trie exist only as unsharded
/// baselines.
static ENGINES: [EngineRow; 8] = [
    ("auto", &[], EngineChoice::Auto, None, |threads| EngineKind::Auto { threads }),
    ("scan", &[], EngineChoice::Scan, Some(BackendChoice::ScanFlat), |threads| {
        EngineKind::Scan(if threads > 1 {
            SeqVariant::V6Pool { threads }
        } else {
            SeqVariant::V4Flat
        })
    }),
    ("scan-base", &[], EngineChoice::ScanBase, Some(BackendChoice::ScanFlat), |_| {
        EngineKind::Scan(SeqVariant::V1Base)
    }),
    ("scan-sorted", &[], EngineChoice::ScanSorted, Some(BackendChoice::ScanSorted), |_| {
        EngineKind::Scan(SeqVariant::V7SortedPrefix)
    }),
    (
        "scan-bitparallel",
        &["scan-bit-parallel"],
        EngineChoice::ScanBitParallel,
        Some(BackendChoice::ScanBitParallel),
        |_| EngineKind::Scan(SeqVariant::V8BitParallel),
    ),
    ("trie", &[], EngineChoice::Trie, Some(BackendChoice::Radix), |_| {
        EngineKind::Index(IdxVariant::I1BaseTrie)
    }),
    ("radix", &[], EngineChoice::Radix, Some(BackendChoice::Radix), |threads| {
        EngineKind::Index(if threads > 1 {
            IdxVariant::I3Pool { threads }
        } else {
            IdxVariant::I2Compressed
        })
    }),
    ("qgram", &[], EngineChoice::Qgram, Some(BackendChoice::Qgram), |threads| {
        EngineKind::Qgram { q: 2, strategy: pool(threads) }
    }),
];

/// The table's primary names joined by `sep`, in table order.
fn engine_names(sep: &str) -> String {
    let names: Vec<&str> = ENGINES.iter().map(|&(name, ..)| name).collect();
    names.join(sep)
}

impl EngineChoice {
    fn parse(s: &str) -> Result<Self, String> {
        ENGINES
            .iter()
            .find(|(name, aliases, ..)| *name == s || aliases.contains(&s))
            .map(|&(_, _, choice, ..)| choice)
            .ok_or_else(|| format!("unknown engine '{s}' (expected {})", engine_names(", ")))
    }

    fn row(self) -> &'static EngineRow {
        ENGINES
            .iter()
            .find(|&&(_, _, choice, ..)| choice == self)
            .expect("every EngineChoice has a row in ENGINES")
    }

    /// The arm every shard runs under `--shards N`, or `None` for
    /// `auto` (each shard then calibrates its own planner).
    pub fn shard_arm(self) -> Option<BackendChoice> {
        let &(.., arm, _) = self.row();
        arm
    }

    /// The unsharded engine for this selector. `threads > 1` selects
    /// the pooled rung or executor; the daemon passes 1 — its
    /// concurrency comes from its connection handlers, so every choice maps
    /// to a single-threaded kernel (and it calibrates `auto` itself,
    /// with its default probe).
    pub fn engine_kind(self, threads: usize) -> EngineKind {
        let &(.., kind) = self.row();
        kind(threads)
    }
}

/// Arguments of the `generate` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// "city" or "dna".
    pub kind: String,
    /// Number of records.
    pub count: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Output data file.
    pub out: PathBuf,
    /// Optional query-file output.
    pub queries_out: Option<PathBuf>,
    /// Number of queries when `queries_out` is set.
    pub query_count: usize,
}

/// Usage text: [`USAGE`] with the engine list filled in from
/// [`ENGINES`].
pub fn usage() -> String {
    USAGE.replace("{engines}", &engine_names("|"))
}

const USAGE: &str = "\
simsearch — string similarity search (EDBT 2013 reproduction)

USAGE:
  simsearch search --data FILE --queries FILE [--output FILE]
                   [--backend {engines}]
                   [--threads N] [--shards N] [--shard-by len|hash]
  simsearch explain --data FILE [--queries FILE] [--threads N]
                    [--shards N] [--shard-by len|hash]
  simsearch generate --kind city|dna --count N [--seed S] --out FILE
                     [--queries FILE] [--query-count N]
  simsearch stats --data FILE
  simsearch join --data FILE --k N [--output FILE] [--threads N]
  simsearch verify --results FILE --expected FILE
  simsearch serve --data FILE [--backend NAME] [--threads N] [--port P]
                  [--port-file FILE] [--queue-capacity N] [--deadline-ms N]
                  [--shards N] [--shard-by len|hash]
                  [--live] [--memtable-cap N]
                  [--replan-interval-ms N]
  simsearch client --port P [--host H] --send FRAME [--send FRAME ...]
                   [--check-stats-json]
  simsearch help

`--engine` is accepted everywhere `--backend` is (older scripts).
With `--backend auto` a planner builds a cost model from the dataset's
statistics and routes each query to the cheapest backend; `explain`
prints that plan without running anything.

With `--shards N` (N ≥ 2) the dataset is partitioned into N shards —
by record length (`--shard-by len`, the default) or by an FNV-1a
content hash (`--shard-by hash`) — each shard plans independently, and
queries fan out across shards with a k-way result merge.

The serve daemon speaks a line protocol on loopback TCP:
  QUERY <k> <text> | TOPK <n> <text> | JOIN <k> [pass]
  | INSERT <text> | DELETE <id> | STATS | HEALTH | SHUTDOWN
With --port 0 (the default) it binds an ephemeral port and prints the
actually-bound address on stdout before accepting connections.

Each of at most 16 connections has its own handler thread, which runs
its requests on the engine itself under one of --threads permits
(default 4). While every permit is out, up to --queue-capacity handlers
wait for one and the next request is answered BUSY at once; a request
still waiting at --deadline-ms answers TIMEOUT. A handler has one
request in flight, so at most 16 − threads can ever wait: any larger
--queue-capacity (the default 1024 included) never binds.

With --live the dataset seeds a mutable LSM engine (memtable + sorted
segments) and the daemon accepts INSERT/DELETE; --memtable-cap sets the
per-(shard-)memtable flush threshold (default 1024). Without --live
those verbs answer ERR. --live composes with --shards N: every shard is
its own LSM engine, inserts route by content hash from one global id
space, deletes route to the owning shard, and shards flush/compact
independently. Sharded live ingest requires --shard-by hash (length
bands shift as the dataset grows, so `len` cannot route inserts).

The daemon self-tunes: every --replan-interval-ms (default 1000; 0
disables) a background tick re-derives per-(arm, class) cost
multipliers from the live latency histograms and swaps a fresh decision
table into the engine; STATS reports `replans` and `plan_epoch`.
";

/// Parses an argument vector (without the program name).
pub fn parse(args: &[OsString]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if cmd == "client" {
        return parse_client(rest).map(Command::Client);
    }
    let rest: Vec<String> = rest
        .iter()
        .map(|arg| text(arg).map(str::to_owned))
        .collect::<Result<_, _>>()?;
    let rest = &rest[..];
    match text(cmd)? {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "search" => parse_search(rest).map(Command::Search),
        "explain" => parse_explain(rest).map(Command::Explain),
        "serve" => parse_serve(rest).map(Command::Serve),
        "generate" => parse_generate(rest).map(Command::Generate),
        "join" => parse_join(rest).map(Command::Join),
        "verify" => {
            let mut results = None;
            let mut expected = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--results" => results = Some(PathBuf::from(value(&mut it, "--results")?)),
                    "--expected" => expected = Some(PathBuf::from(value(&mut it, "--expected")?)),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            Ok(Command::Verify {
                results: results.ok_or("verify requires --results")?,
                expected: expected.ok_or("verify requires --expected")?,
            })
        }
        "stats" => {
            let mut data = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--data" => data = Some(PathBuf::from(value(&mut it, "--data")?)),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            Ok(Command::Stats {
                data: data.ok_or("stats requires --data")?,
            })
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn value<'a, T>(it: &mut std::slice::Iter<'a, T>, flag: &str) -> Result<&'a T, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// An argument as text: everything but a `client --send` frame must be
/// valid UTF-8.
fn text(arg: &OsStr) -> Result<&str, String> {
    arg.to_str()
        .ok_or_else(|| format!("argument {arg:?} is not valid UTF-8"))
}

/// `flag`'s value as an integer; a value that does not parse answers
/// "`flag` needs `expected`".
fn int_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    expected: &str,
) -> Result<T, String> {
    value(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs {expected}"))
}

/// [`int_value`] that also refuses 0 ("`flag` needs a positive
/// integer"). `expected` words the unparsable-value error, which
/// `serve` has always phrased as "an integer".
fn positive_value(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    expected: &str,
) -> Result<usize, String> {
    match int_value(it, flag, expected)? {
        0 => Err(format!("{flag} needs a positive integer")),
        n => Ok(n),
    }
}

fn shard_by_value(v: &str) -> Result<ShardBy, String> {
    ShardBy::parse(v).ok_or_else(|| format!("unknown partitioner '{v}' (expected len or hash)"))
}

fn parse_search(rest: &[String]) -> Result<SearchArgs, String> {
    let mut data = None;
    let mut queries = None;
    let mut output = None;
    let mut engine = EngineChoice::Radix;
    let mut threads = 1usize;
    let mut shards = 0usize;
    let mut shard_by = ShardBy::Len;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(value(&mut it, "--data")?)),
            "--queries" => queries = Some(PathBuf::from(value(&mut it, "--queries")?)),
            "--output" => output = Some(PathBuf::from(value(&mut it, "--output")?)),
            "--engine" | "--backend" => engine = EngineChoice::parse(value(&mut it, flag)?)?,
            "--threads" => threads = positive_value(&mut it, "--threads", "a positive integer")?,
            "--shards" => shards = int_value(&mut it, "--shards", "a non-negative integer")?,
            "--shard-by" => shard_by = shard_by_value(value(&mut it, "--shard-by")?)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(SearchArgs {
        data: data.ok_or("search requires --data")?,
        queries: queries.ok_or("search requires --queries")?,
        output,
        engine,
        threads,
        shards,
        shard_by,
    })
}

fn parse_explain(rest: &[String]) -> Result<ExplainArgs, String> {
    let mut data = None;
    let mut queries = None;
    let mut threads = 1usize;
    let mut shards = 0usize;
    let mut shard_by = ShardBy::Len;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(value(&mut it, "--data")?)),
            "--queries" => queries = Some(PathBuf::from(value(&mut it, "--queries")?)),
            "--threads" => threads = positive_value(&mut it, "--threads", "a positive integer")?,
            "--shards" => shards = int_value(&mut it, "--shards", "a non-negative integer")?,
            "--shard-by" => shard_by = shard_by_value(value(&mut it, "--shard-by")?)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(ExplainArgs {
        data: data.ok_or("explain requires --data")?,
        queries,
        threads,
        shards,
        shard_by,
    })
}

fn parse_join(rest: &[String]) -> Result<JoinArgs, String> {
    let mut data = None;
    let mut k = None;
    let mut output = None;
    let mut threads = 1usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(value(&mut it, "--data")?)),
            "--k" => k = Some(int_value(&mut it, "--k", "an integer")?),
            "--output" => output = Some(PathBuf::from(value(&mut it, "--output")?)),
            "--threads" => threads = positive_value(&mut it, "--threads", "a positive integer")?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(JoinArgs {
        data: data.ok_or("join requires --data")?,
        k: k.ok_or("join requires --k")?,
        output,
        threads,
    })
}

fn parse_serve(rest: &[String]) -> Result<ServeArgs, String> {
    let mut data = None;
    let mut engine = EngineChoice::ScanSorted;
    let mut threads = 4usize;
    let mut port = 0u16;
    let mut port_file = None;
    let mut queue_capacity = 1024usize;
    let mut deadline_ms = 10_000u64;
    let mut shards = 0usize;
    let mut shard_by = ShardBy::Len;
    let mut shard_by_explicit = false;
    let mut live = false;
    let mut memtable_cap = 1024usize;
    let mut replan_interval_ms = 1_000u64;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--data" | "--dataset" => data = Some(PathBuf::from(value(&mut it, flag)?)),
            "--engine" | "--backend" => engine = EngineChoice::parse(value(&mut it, flag)?)?,
            "--threads" => threads = positive_value(&mut it, "--threads", "an integer")?,
            "--port" => port = int_value(&mut it, "--port", "an integer in 0..=65535")?,
            "--port-file" => {
                port_file = Some(PathBuf::from(value(&mut it, "--port-file")?))
            }
            "--queue-capacity" => {
                queue_capacity = positive_value(&mut it, "--queue-capacity", "an integer")?
            }
            "--deadline-ms" => deadline_ms = int_value(&mut it, "--deadline-ms", "an integer")?,
            "--shards" => shards = int_value(&mut it, "--shards", "an integer")?,
            "--shard-by" => {
                shard_by = shard_by_value(value(&mut it, "--shard-by")?)?;
                shard_by_explicit = true;
            }
            "--live" => live = true,
            "--replan-interval-ms" => {
                replan_interval_ms = int_value(&mut it, "--replan-interval-ms", "an integer")?
            }
            "--memtable-cap" => {
                memtable_cap = positive_value(&mut it, "--memtable-cap", "an integer")?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if live && shards >= 2 {
        if shard_by_explicit && shard_by == ShardBy::Len {
            return Err(
                "--shard-by len cannot route live inserts (length bands shift as the dataset \
                 grows); use --shard-by hash with --live --shards"
                    .into(),
            );
        }
        // Bare `--live --shards N` gets the only partitioner that can
        // route mutations; the `len` default only applies to frozen shards.
        shard_by = ShardBy::Hash;
    }
    Ok(ServeArgs {
        data: data.ok_or("serve requires --data")?,
        engine,
        threads,
        port,
        port_file,
        queue_capacity,
        deadline_ms,
        shards,
        shard_by,
        live,
        memtable_cap,
        replan_interval_ms,
    })
}

fn parse_client(rest: &[OsString]) -> Result<ClientArgs, String> {
    let mut host = "127.0.0.1".to_string();
    let mut port = None;
    let mut send = Vec::new();
    let mut check_stats_json = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match text(flag)? {
            "--host" => host = text(value(&mut it, "--host")?)?.to_owned(),
            "--port" => {
                let value = text(value(&mut it, "--port")?)?;
                port = Some(value.parse().map_err(|_| "--port needs an integer in 0..=65535")?);
            }
            "--send" => send.push(value(&mut it, "--send")?.as_encoded_bytes().to_vec()),
            "--check-stats-json" => check_stats_json = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if send.is_empty() {
        return Err("client requires at least one --send FRAME".into());
    }
    Ok(ClientArgs {
        host,
        port: port.ok_or("client requires --port")?,
        send,
        check_stats_json,
    })
}

fn parse_generate(rest: &[String]) -> Result<GenerateArgs, String> {
    let mut kind = None;
    let mut count = None;
    let mut seed = 42u64;
    let mut out = None;
    let mut queries_out = None;
    let mut query_count = 1_000usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--kind" => {
                let v = value(&mut it, "--kind")?;
                if v != "city" && v != "dna" {
                    return Err("--kind must be 'city' or 'dna'".into());
                }
                kind = Some(v.clone());
            }
            "--count" => count = Some(int_value(&mut it, "--count", "an integer")?),
            "--seed" => seed = int_value(&mut it, "--seed", "an integer")?,
            "--out" => out = Some(PathBuf::from(value(&mut it, "--out")?)),
            "--queries" => queries_out = Some(PathBuf::from(value(&mut it, "--queries")?)),
            "--query-count" => query_count = int_value(&mut it, "--query-count", "an integer")?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(GenerateArgs {
        kind: kind.ok_or("generate requires --kind")?,
        count: count.ok_or("generate requires --count")?,
        seed,
        out: out.ok_or("generate requires --out")?,
        queries_out,
        query_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<OsString> {
        args.iter().map(OsString::from).collect()
    }

    #[test]
    fn parses_search() {
        let cmd = parse(&v(&[
            "search", "--data", "d.txt", "--queries", "q.txt", "--engine", "scan",
            "--threads", "8",
        ]))
        .unwrap();
        match cmd {
            Command::Search(a) => {
                assert_eq!(a.engine, EngineChoice::Scan);
                assert_eq!(a.threads, 8);
                assert!(a.output.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cmd = parse(&v(&[
            "generate", "--kind", "dna", "--count", "100", "--out", "x.txt",
        ]))
        .unwrap();
        match cmd {
            Command::Generate(g) => {
                assert_eq!(g.kind, "dna");
                assert_eq!(g.count, 100);
                assert_eq!(g.seed, 42);
                assert_eq!(g.query_count, 1_000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&["search", "--data", "d"])).is_err()); // missing queries
        assert!(parse(&v(&["search", "--bogus"])).is_err());
        assert!(parse(&v(&["generate", "--kind", "xml", "--count", "1", "--out", "o"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&[
            "search", "--data", "d", "--queries", "q", "--threads", "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_join_and_verify() {
        let cmd = parse(&v(&["join", "--data", "d.txt", "--k", "2"])).unwrap();
        match cmd {
            Command::Join(j) => {
                assert_eq!(j.k, 2);
                assert_eq!(j.threads, 1);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&v(&["verify", "--results", "a", "--expected", "b"])).unwrap();
        assert!(matches!(cmd, Command::Verify { .. }));
        // PASS-JOIN is the only join: there is no algorithm to select.
        assert_eq!(
            parse(&v(&["join", "--data", "d", "--k", "1", "--algo", "pass"])).unwrap_err(),
            "unknown flag '--algo'"
        );
        assert!(parse(&v(&["verify", "--results", "a"])).is_err());
    }

    #[test]
    fn parses_serve_with_defaults() {
        let cmd = parse(&v(&["serve", "--data", "d.txt"])).unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.engine, EngineChoice::ScanSorted);
                assert_eq!(s.port, 0, "ephemeral port is the default");
                assert_eq!(s.threads, 4);
                assert!(s.port_file.is_none());
                assert!(!s.live, "read-only by default");
                assert_eq!(s.memtable_cap, 1024);
                assert_eq!(s.replan_interval_ms, 1_000, "self-tuning is on by default");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_serve_replan_flags() {
        let cmd = parse(&v(&[
            "serve", "--data", "d", "--backend", "auto", "--replan-interval-ms", "250",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(s) => assert_eq!(s.replan_interval_ms, 250),
            other => panic!("wrong parse: {other:?}"),
        }
        // 0 disables the tick; still a valid parse.
        let cmd = parse(&v(&["serve", "--data", "d", "--replan-interval-ms", "0"])).unwrap();
        assert!(matches!(cmd, Command::Serve(s) if s.replan_interval_ms == 0));
        assert!(parse(&v(&["serve", "--data", "d", "--replan-interval-ms", "soon"])).is_err());
    }

    #[test]
    fn parses_serve_live_mode() {
        let cmd = parse(&v(&[
            "serve", "--data", "d.txt", "--live", "--memtable-cap", "64",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert!(s.live);
                assert_eq!(s.memtable_cap, 64);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // --live without --memtable-cap keeps the default.
        let cmd = parse(&v(&["serve", "--data", "d.txt", "--live"])).unwrap();
        assert!(matches!(cmd, Command::Serve(s) if s.live && s.memtable_cap == 1024));
        assert!(parse(&v(&["serve", "--data", "d", "--memtable-cap", "0"])).is_err());
        assert!(parse(&v(&["serve", "--data", "d", "--memtable-cap", "x"])).is_err());
    }

    #[test]
    fn parses_serve_sharded_live() {
        // A bare sharded live daemon defaults the partitioner to hash —
        // the only one that can route mutations.
        let cmd = parse(&v(&["serve", "--data", "d", "--live", "--shards", "4"])).unwrap();
        match cmd {
            Command::Serve(s) => {
                assert!(s.live);
                assert_eq!(s.shards, 4);
                assert_eq!(s.shard_by, ShardBy::Hash, "live shards default to hash routing");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Saying hash explicitly is fine too.
        let cmd = parse(&v(&[
            "serve", "--data", "d", "--live", "--shards", "2", "--shard-by", "hash",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Serve(s) if s.live && s.shards == 2));
        // An explicit len partitioner cannot route inserts: fail fast with
        // a message that names the fix.
        let err = parse(&v(&[
            "serve", "--data", "d", "--live", "--shards", "2", "--shard-by", "len",
        ]))
        .unwrap_err();
        assert!(err.contains("--shard-by hash"), "actionable message, got: {err}");
        // shards 0/1 mean "unsharded": the len default survives untouched.
        let cmd = parse(&v(&["serve", "--data", "d", "--live", "--shards", "1"])).unwrap();
        assert!(matches!(cmd, Command::Serve(s) if s.shard_by == ShardBy::Len));
        // Frozen sharding (no --live) keeps its len default.
        let cmd = parse(&v(&["serve", "--data", "d", "--shards", "4"])).unwrap();
        assert!(matches!(cmd, Command::Serve(s) if s.shard_by == ShardBy::Len));
    }

    #[test]
    fn parses_serve_with_every_flag() {
        let cmd = parse(&v(&[
            "serve", "--dataset", "d.txt", "--engine", "radix", "--threads", "2",
            "--port", "9999", "--port-file", "p.txt", "--queue-capacity", "32",
            "--deadline-ms", "250",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.data, PathBuf::from("d.txt"), "--dataset aliases --data");
                assert_eq!(s.engine, EngineChoice::Radix);
                assert_eq!(s.threads, 2);
                assert_eq!(s.port, 9999);
                assert_eq!(s.port_file, Some(PathBuf::from("p.txt")));
                assert_eq!(s.queue_capacity, 32);
                assert_eq!(s.deadline_ms, 250);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_client() {
        let cmd = parse(&v(&[
            "client", "--port", "4100", "--send", "HEALTH", "--send", "QUERY 2 Berlin",
            "--check-stats-json",
        ]))
        .unwrap();
        match cmd {
            Command::Client(c) => {
                assert_eq!(c.host, "127.0.0.1");
                assert_eq!(c.port, 4100);
                assert_eq!(c.send, vec![b"HEALTH".to_vec(), b"QUERY 2 Berlin".to_vec()]);
                assert!(c.check_stats_json);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn only_a_send_frame_may_be_other_than_utf8() {
        use std::os::unix::ffi::OsStringExt;
        let latin1 = OsString::from_vec(b"QUERY 0 M\xfcnchen".to_vec());
        let mut args = v(&["client", "--port", "1", "--send"]);
        args.push(latin1.clone());
        match parse(&args).unwrap() {
            Command::Client(c) => assert_eq!(c.send, vec![b"QUERY 0 M\xfcnchen".to_vec()]),
            other => panic!("wrong parse: {other:?}"),
        }
        for before in [&["client", "--host"][..], &["search", "--data"], &[]] {
            let mut args = v(before);
            args.push(latin1.clone());
            let err = parse(&args).unwrap_err();
            assert!(err.ends_with("is not valid UTF-8"), "{err}");
        }
    }

    #[test]
    fn serve_and_client_reject_bad_input() {
        assert!(parse(&v(&["serve"])).is_err()); // missing --data
        for flag in ["--data", "--dataset"] {
            assert_eq!(
                parse(&v(&["serve", flag])).unwrap_err(),
                format!("{flag} needs a value")
            );
        }
        assert!(parse(&v(&["serve", "--data", "d", "--threads", "0"])).is_err());
        // `serve` has no coalescing knobs: a handler executes what it read.
        for gone in ["--batch-size", "--max-delay-ms"] {
            assert_eq!(
                parse(&v(&["serve", "--data", "d", gone, "8"])).unwrap_err(),
                format!("unknown flag '{gone}'")
            );
        }
        assert!(parse(&v(&["serve", "--data", "d", "--port", "70000"])).is_err());
        assert!(parse(&v(&["serve", "--data", "d", "--engine", "warp"])).is_err());
        assert!(parse(&v(&["client", "--port", "1"])).is_err()); // no --send
        assert!(parse(&v(&["client", "--send", "HEALTH"])).is_err()); // no --port
        assert!(parse(&v(&["client", "--port", "x", "--send", "HEALTH"])).is_err());
    }

    #[test]
    fn search_accepts_the_sorted_scan_engine() {
        let cmd = parse(&v(&[
            "search", "--data", "d", "--queries", "q", "--engine", "scan-sorted",
        ]))
        .unwrap();
        match cmd {
            Command::Search(a) => assert_eq!(a.engine, EngineChoice::ScanSorted),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn search_accepts_the_bit_parallel_engine_under_both_spellings() {
        for spelling in ["scan-bitparallel", "scan-bit-parallel"] {
            let cmd = parse(&v(&[
                "search", "--data", "d", "--queries", "q", "--engine", spelling,
            ]))
            .unwrap();
            match cmd {
                Command::Search(a) => assert_eq!(a.engine, EngineChoice::ScanBitParallel),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        let cmd = parse(&v(&["serve", "--data", "d", "--backend", "scan-bitparallel"])).unwrap();
        assert!(matches!(cmd, Command::Serve(s) if s.engine == EngineChoice::ScanBitParallel));
    }

    #[test]
    fn backend_aliases_engine_and_accepts_the_planner() {
        let cmd = parse(&v(&[
            "search", "--data", "d", "--queries", "q", "--backend", "auto",
        ]))
        .unwrap();
        match cmd {
            Command::Search(a) => assert_eq!(a.engine, EngineChoice::Auto),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn every_engine_row_parses_and_is_listed() {
        let expected = EngineChoice::parse("warp").unwrap_err();
        let listed: Vec<&str> = expected
            .split_once("(expected ")
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .expect("the error lists the engines")
            .split(", ")
            .collect();
        let usage = usage();
        let flag = usage
            .lines()
            .find_map(|l| l.trim().strip_prefix("[--backend ")?.strip_suffix(']'))
            .expect("USAGE lists the engines");
        assert_eq!(flag.split('|').collect::<Vec<_>>(), listed);
        assert_eq!(listed.len(), ENGINES.len());
        for (&(name, aliases, choice, arm, kind), listed) in ENGINES.iter().zip(listed) {
            assert_eq!(name, listed, "table order is the listed order");
            for spelling in aliases.iter().chain([&name]) {
                assert_eq!(EngineChoice::parse(spelling), Ok(choice), "{spelling}");
            }
            // Lookups by selector land on the selector's own row.
            assert_eq!(choice.shard_arm(), arm, "{name}");
            assert_eq!(arm.is_none(), choice == EngineChoice::Auto, "{name}");
            for threads in [1, 4] {
                assert_eq!(choice.engine_kind(threads), kind(threads), "{name}");
            }
        }
    }

    #[test]
    fn parses_explain() {
        let cmd = parse(&v(&["explain", "--data", "d.txt"])).unwrap();
        match cmd {
            Command::Explain(e) => {
                assert_eq!(e.data, PathBuf::from("d.txt"));
                assert!(e.queries.is_none());
                assert_eq!(e.threads, 1);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&v(&[
            "explain", "--data", "d.txt", "--queries", "q.txt", "--threads", "4",
        ]))
        .unwrap();
        match cmd {
            Command::Explain(e) => {
                assert_eq!(e.queries, Some(PathBuf::from("q.txt")));
                assert_eq!(e.threads, 4);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&v(&["explain"])).is_err()); // missing --data
        assert!(parse(&v(&["explain", "--data", "d", "--threads", "0"])).is_err());
        assert!(parse(&v(&["explain", "--data", "d", "--engine", "auto"])).is_err());
    }

    #[test]
    fn parses_shard_flags_with_defaults() {
        // Defaults: unsharded, length partitioner.
        let cmd = parse(&v(&["search", "--data", "d", "--queries", "q"])).unwrap();
        match cmd {
            Command::Search(a) => {
                assert_eq!(a.shards, 0);
                assert_eq!(a.shard_by, ShardBy::Len);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&v(&[
            "search", "--data", "d", "--queries", "q", "--shards", "4", "--shard-by", "hash",
        ]))
        .unwrap();
        match cmd {
            Command::Search(a) => {
                assert_eq!(a.shards, 4);
                assert_eq!(a.shard_by, ShardBy::Hash);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&v(&["serve", "--data", "d", "--shards", "3"])).unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.shards, 3);
                assert_eq!(s.shard_by, ShardBy::Len);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&v(&[
            "explain", "--data", "d", "--shards", "2", "--shard-by", "len",
        ]))
        .unwrap();
        match cmd {
            Command::Explain(e) => {
                assert_eq!(e.shards, 2);
                assert_eq!(e.shard_by, ShardBy::Len);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_shard_flags() {
        assert!(parse(&v(&[
            "search", "--data", "d", "--queries", "q", "--shard-by", "zip"
        ]))
        .is_err());
        assert!(parse(&v(&["serve", "--data", "d", "--shards", "many"])).is_err());
        assert!(parse(&v(&["explain", "--data", "d", "--shard-by", ""])).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
    }
}
