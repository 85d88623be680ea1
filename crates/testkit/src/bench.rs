//! A lightweight benchmark harness replacing criterion for the
//! `crates/bench` targets (`harness = false` bench binaries).
//!
//! Protocol per benchmark: warm up for a fixed wall-clock budget while
//! counting iterations, derive a per-sample iteration count from the
//! observed mean, then take N timed samples and report min / mean /
//! median / p95 per iteration. Results are printed as a table and
//! written as `BENCH_<group>.json` trajectory files (see
//! [`JSON_SCHEMA`]) under `target/testkit-bench/` (override with
//! `TESTKIT_BENCH_DIR`).
//!
//! `cargo test` also executes `harness = false` bench binaries — without
//! the `--bench` flag cargo passes during `cargo bench`, the harness
//! runs in *smoke mode*: every closure executes exactly once (so the
//! bench code stays compiled and correct) and nothing is measured or
//! written.

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Identifier of the JSON trajectory format this harness writes.
///
/// v2 extends v1 with an optional `workload` object (dataset name,
/// record/query counts, threshold description, the core count the
/// samples were taken on) and, when that metadata
/// is present, a derived `throughput_qps` field per result. Both
/// additions are optional, so v1 files remain a strict subset and
/// readers of either version can consume v2 output.
pub const JSON_SCHEMA: &str = "simsearch-bench-v2";

/// Workload metadata attached to a group — what one iteration of each
/// benchmark in the group actually processes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMeta {
    /// Dataset name (e.g. "city", "dna").
    pub dataset: String,
    /// Records scanned/indexed per query.
    pub records: usize,
    /// Queries executed per iteration.
    pub queries: usize,
    /// Human-readable threshold description (e.g. "k in 0..=3").
    pub thresholds: String,
}

/// Timing knobs, deliberately shaped like the criterion settings the
/// repository used before (10 samples over ~3 s after a short warmup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Wall-clock warmup budget per benchmark.
    pub warmup: Duration,
    /// Number of timed samples.
    pub samples: usize,
    /// Wall-clock budget per sample (sets the iteration count).
    pub sample_time: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(500),
            samples: 10,
            sample_time: Duration::from_millis(300),
        }
    }
}

/// One benchmark's statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id within its group.
    pub name: String,
    /// Iterations per timed sample.
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: u64,
    /// Mean over samples.
    pub mean_ns: u64,
    /// Median over samples.
    pub median_ns: u64,
    /// 95th percentile (nearest-rank) over samples.
    pub p95_ns: u64,
}

/// Entry point of a bench binary: detects measure vs smoke mode and
/// hands out [`Group`]s.
pub struct Harness {
    measuring: bool,
    out_dir: PathBuf,
    config: BenchConfig,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// Reads the mode from the command line (`cargo bench` passes
    /// `--bench`; `cargo test` does not) and the output directory from
    /// `TESTKIT_BENCH_DIR` (default `<workspace>/target/testkit-bench`).
    pub fn new() -> Self {
        let measuring = std::env::args().any(|a| a == "--bench");
        let out_dir = std::env::var_os("TESTKIT_BENCH_DIR")
            .map_or_else(default_out_dir, PathBuf::from);
        Self {
            measuring,
            out_dir,
            config: BenchConfig::default(),
        }
    }

    /// Forces a mode and output directory (used by testkit's own tests).
    pub fn with_mode(measuring: bool, out_dir: impl Into<PathBuf>) -> Self {
        Self {
            measuring,
            out_dir: out_dir.into(),
            config: BenchConfig::default(),
        }
    }

    /// Replaces the timing configuration for subsequent groups.
    pub fn config(mut self, config: BenchConfig) -> Self {
        self.config = config;
        self
    }

    /// True under `cargo bench` (full measurement), false under
    /// `cargo test` (single-iteration smoke run).
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    /// Workload size helper: the full query count when measuring, a
    /// minimal smoke count otherwise. Keeps `cargo test` fast while the
    /// bench code paths stay exercised.
    pub fn queries(&self, full: usize) -> usize {
        if self.measuring {
            full
        } else {
            full.clamp(1, 3)
        }
    }

    /// Starts a named benchmark group.
    pub fn group(&self, name: &str) -> Group<'_> {
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c)),
            "group name '{name}' must be a file-name-safe identifier"
        );
        Group {
            harness: self,
            name: name.to_string(),
            workload: None,
            plan_decisions: Vec::new(),
            counters: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Copies a finished group's `BENCH_<group>.json` from the output
    /// directory to the workspace root, where canonical snapshots are
    /// committed. No-op in smoke mode or when the trajectory file is
    /// missing.
    pub fn publish_snapshot(&self, group: &str) {
        if !self.measuring {
            return;
        }
        let file = format!("BENCH_{group}.json");
        let src = self.out_dir.join(&file);
        let dst = workspace_root().join(&file);
        match std::fs::copy(&src, &dst) {
            Ok(_) => println!("published {}", dst.display()),
            Err(e) => eprintln!("warning: could not publish {}: {e}", src.display()),
        }
    }
}

/// A named set of related benchmarks; writes one JSON file on
/// [`Group::finish`].
pub struct Group<'a> {
    harness: &'a Harness,
    name: String,
    workload: Option<WorkloadMeta>,
    plan_decisions: Vec<(String, u64)>,
    counters: Vec<(String, u64)>,
    results: Vec<BenchResult>,
}

impl Group<'_> {
    /// Attaches workload metadata to the group's JSON output. With the
    /// per-iteration query count known, every result also gets a derived
    /// `throughput_qps` field.
    pub fn set_workload(
        &mut self,
        dataset: &str,
        records: usize,
        queries: usize,
        thresholds: &str,
    ) {
        self.workload = Some(WorkloadMeta {
            dataset: dataset.to_string(),
            records,
            queries,
            thresholds: thresholds.to_string(),
        });
    }
    /// Attaches per-backend query-routing counters (an adaptive
    /// planner's decisions for the group's workload) to the JSON
    /// output as a `plan_decisions` object. A v2 extension like the
    /// workload metadata: absent unless set, so existing readers are
    /// unaffected.
    pub fn set_plan_decisions(&mut self, counts: &[(&str, u64)]) {
        self.plan_decisions = counts
            .iter()
            .map(|(name, count)| (name.to_string(), *count))
            .collect();
    }

    /// Attaches arbitrary named work counters (DP cells, words advanced,
    /// words reused — whatever the ablation accounts) to the JSON output
    /// as a `counters` object. Absent unless set, like the workload
    /// metadata, so existing readers are unaffected.
    pub fn set_counters(&mut self, counts: &[(&str, u64)]) {
        self.counters = counts
            .iter()
            .map(|(name, count)| (name.to_string(), *count))
            .collect();
    }

    /// Runs (smoke mode) or measures (bench mode) one benchmark.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        if !self.harness.measuring {
            black_box(f());
            println!("smoke {}/{id} ... ok", self.name);
            return;
        }
        let cfg = self.harness.config;

        // Warmup doubles as calibration: count how many iterations fit
        // in the warmup budget to size the timed samples.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < cfg.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let mean = warm_start.elapsed().as_nanos() / u128::from(warm_iters);
        let iters = (cfg.sample_time.as_nanos() / mean.max(1)).clamp(1, 1_000_000) as u64;

        let mut samples_ns: Vec<u64> = Vec::with_capacity(cfg.samples);
        for _ in 0..cfg.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push((t.elapsed().as_nanos() / u128::from(iters)) as u64);
        }
        let result = summarize(id, iters, &mut samples_ns);
        println!(
            "bench {}/{id}: median {} p95 {} min {} ({} samples x {} iters)",
            self.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.iters,
        );
        self.results.push(result);
    }

    /// Writes the group's `BENCH_<group>.json` trajectory file (bench
    /// mode only) and consumes the group.
    pub fn finish(self) {
        if !self.harness.measuring {
            return;
        }
        let path = self.harness.out_dir.join(format!("BENCH_{}.json", self.name));
        if let Err(e) = self.write_json(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }

    fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{JSON_SCHEMA}\",\n"));
        out.push_str(&format!("  \"group\": \"{}\",\n", escape(&self.name)));
        if let Some(w) = &self.workload {
            // The cores the medians were taken on: an executor or
            // thread sweep reads differently on 2 cores than on 16.
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            out.push_str(&format!(
                "  \"workload\": {{\"dataset\": \"{}\", \"records\": {}, \
                 \"queries\": {}, \"thresholds\": \"{}\", \"nproc\": {nproc}}},\n",
                escape(&w.dataset),
                w.records,
                w.queries,
                escape(&w.thresholds),
            ));
        }
        if !self.plan_decisions.is_empty() {
            let counts: Vec<String> = self
                .plan_decisions
                .iter()
                .map(|(name, count)| format!("\"{}\": {count}", escape(name)))
                .collect();
            out.push_str(&format!(
                "  \"plan_decisions\": {{{}}},\n",
                counts.join(", ")
            ));
        }
        if !self.counters.is_empty() {
            let counts: Vec<String> = self
                .counters
                .iter()
                .map(|(name, count)| format!("\"{}\": {count}", escape(name)))
                .collect();
            out.push_str(&format!("  \"counters\": {{{}}},\n", counts.join(", ")));
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            // One iteration runs the whole workload, so queries per
            // second falls out of the median time when the query count
            // is known.
            let qps = self.workload.as_ref().map_or(String::new(), |w| {
                format!(
                    ", \"throughput_qps\": {:.1}",
                    w.queries as f64 * 1e9 / r.median_ns.max(1) as f64
                )
            });
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"samples\": {}, \
                 \"min_ns\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}{}}}{}\n",
                escape(&r.name),
                r.iters,
                r.samples,
                r.min_ns,
                r.mean_ns,
                r.median_ns,
                r.p95_ns,
                qps,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())
    }
}

/// Cargo runs bench binaries with the package directory as the working
/// directory; walk up to the workspace root (the outermost ancestor with
/// a `Cargo.lock`) so every target writes into the shared `target/`.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .filter(|d| d.join("Cargo.lock").exists())
        .last()
        .map_or(cwd.clone(), std::path::Path::to_path_buf)
}

fn default_out_dir() -> PathBuf {
    workspace_root().join("target").join("testkit-bench")
}

fn summarize(name: &str, iters: u64, samples_ns: &mut [u64]) -> BenchResult {
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    let sum: u128 = samples_ns.iter().map(|&s| u128::from(s)).sum();
    let median = if n % 2 == 1 {
        samples_ns[n / 2]
    } else {
        (samples_ns[n / 2 - 1] + samples_ns[n / 2]) / 2
    };
    // Nearest-rank p95.
    let p95_idx = ((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1;
    BenchResult {
        name: name.to_string(),
        iters,
        samples: n,
        min_ns: samples_ns[0],
        mean_ns: (sum / n as u128) as u64,
        median_ns: median,
        p95_ns: samples_ns[p95_idx],
    }
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.2} µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("simsearch-testkit-bench-{}-{name}", std::process::id()))
    }

    #[test]
    fn smoke_mode_runs_once_and_writes_nothing() {
        let dir = tmp_dir("smoke");
        let h = Harness::with_mode(false, &dir);
        let mut calls = 0u32;
        let mut g = h.group("unit");
        g.bench("count", || calls += 1);
        assert_eq!(calls, 1);
        g.finish();
        assert!(!dir.exists(), "smoke mode must not write JSON");
    }

    #[test]
    fn measuring_mode_writes_trajectory_json() {
        let dir = tmp_dir("measure");
        let h = Harness::with_mode(true, &dir).config(BenchConfig {
            warmup: Duration::from_micros(200),
            samples: 4,
            sample_time: Duration::from_micros(200),
        });
        let mut g = h.group("unit_measure");
        g.bench("busy", || std::hint::black_box((0..100u32).sum::<u32>()));
        g.bench("busier", || std::hint::black_box((0..1000u32).sum::<u32>()));
        g.finish();
        let json = std::fs::read_to_string(dir.join("BENCH_unit_measure.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        for needle in [
            JSON_SCHEMA,
            "\"group\": \"unit_measure\"",
            "\"name\": \"busy\"",
            "\"name\": \"busier\"",
            "median_ns",
            "p95_ns",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Without workload metadata the v1-compatible subset is written.
        assert!(!json.contains("workload"));
        assert!(!json.contains("throughput_qps"));
    }

    #[test]
    fn workload_metadata_adds_throughput() {
        let dir = tmp_dir("workload");
        let h = Harness::with_mode(true, &dir).config(BenchConfig {
            warmup: Duration::from_micros(200),
            samples: 3,
            sample_time: Duration::from_micros(200),
        });
        let mut g = h.group("unit_workload");
        g.set_workload("city", 400, 50, "k in 0..=3");
        g.bench("scan", || std::hint::black_box((0..100u32).sum::<u32>()));
        g.finish();
        let json = std::fs::read_to_string(dir.join("BENCH_unit_workload.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        for needle in [
            format!(
                "\"workload\": {{\"dataset\": \"city\", \"records\": 400, \
                 \"queries\": 50, \"thresholds\": \"k in 0..=3\", \"nproc\": {nproc}}}"
            ),
            "throughput_qps".to_string(),
        ] {
            assert!(json.contains(&needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn plan_decisions_render_as_a_counter_object() {
        let dir = tmp_dir("plan");
        let h = Harness::with_mode(true, &dir).config(BenchConfig {
            warmup: Duration::from_micros(200),
            samples: 3,
            sample_time: Duration::from_micros(200),
        });
        let mut g = h.group("unit_plan");
        g.set_plan_decisions(&[("scan-flat", 12), ("qgram", 38)]);
        g.bench("auto", || std::hint::black_box((0..100u32).sum::<u32>()));
        g.finish();
        let json = std::fs::read_to_string(dir.join("BENCH_unit_plan.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            json.contains("\"plan_decisions\": {\"scan-flat\": 12, \"qgram\": 38}"),
            "missing plan_decisions in:\n{json}"
        );
    }

    #[test]
    fn summary_statistics_are_order_free() {
        let mut samples = vec![50, 10, 30, 20, 40];
        let r = summarize("s", 1, &mut samples);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.median_ns, 30);
        assert_eq!(r.mean_ns, 30);
        assert_eq!(r.p95_ns, 50);
    }

    #[test]
    fn queries_helper_caps_in_smoke_mode() {
        let smoke = Harness::with_mode(false, "x");
        assert_eq!(smoke.queries(50), 3);
        assert_eq!(smoke.queries(2), 2);
        assert_eq!(smoke.queries(0), 1);
        let measure = Harness::with_mode(true, "x");
        assert_eq!(measure.queries(50), 50);
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
