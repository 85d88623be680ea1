//! The repo's benchmark. One invocation runs one workload:
//!
//! ```text
//! simsearch-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! and prints a report, then — as the last line of standard output —
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` every workload runs in turn, each
//! in a child process of its own so peak memory and allocator state are
//! per workload. See `benchmark/README.md`.

mod gen;
mod layers;
mod load;
mod reference;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::{Spec, WORKLOADS};

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_s", "1/s"),
    ("class_p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports on its last line.
pub struct Outcome {
    pub correct: bool,
    /// Operations issued (timed windows, warm-up and output check).
    pub attempted: u64,
    /// Operations refused, errored, timed out or answered wrongly.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

const USAGE: &str = "usage: simsearch-benchmark [--workload city_serve|dna_serve|city_live_mix|city_batch] [--seed N] [--seconds N] [--trace [0|1]] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{what} needs a whole number"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number("--seed")?,
            "--seconds" => args.seconds = number("--seconds")?.max(1),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // Bare `--trace` means 1.
                args.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs every workload in a child process of its own and waits for
/// each; fails if any of them did.
fn run_all(args: &Args) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        all_ok &= child.status()?.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("could not run the workloads: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let spec = Spec::named(name, args.smoke).expect("parse_args checked the name");
    let outcome = match (args.trace, spec.served) {
        (true, _) => traced::run(&spec, &args),
        (false, true) => workloads::run_served(&spec, &args),
        (false, false) => workloads::run_batch(&spec, &args),
    };
    match outcome {
        Ok(outcome) => {
            // The driver refuses a result whose metrics are not exactly
            // the declared ones; fail here, where the cause is nameable.
            let declared: Vec<&str> = if args.trace {
                layers::PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            assert!(
                outcome.metrics.iter().map(|m| m.name.as_str()).eq(declared),
                "the run's metrics are not the declared ones"
            );
            println!("{}", outcome.json());
            // A wrong answer is reported on the last line *and* fails
            // the process, so neither a script nor a reader can miss it.
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload dna_serve --seed 7 --seconds 9 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace, a.smoke),
            (Some("dna_serve"), 7, 9, true, false)
        );
        let a = parse_args(&argv("--trace 0 --smoke")).unwrap();
        assert_eq!((a.workload, a.trace, a.smoke), (None, false, true));
        assert!(parse_args(&argv("--trace --seed 3")).unwrap().trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
    }

    #[test]
    fn the_last_line_is_the_contracts_json() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("p50_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics, or the driver refuses the run.
    #[test]
    fn benchmark_json_names_what_the_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let named = |name: &str, unit: Option<&str>| match unit {
            Some(unit) => json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            None => json.contains(&format!("{{\"name\": \"{name}\"")),
        };
        for name in WORKLOADS {
            assert!(named(name, None), "workload {name}");
        }
        for (name, unit) in END_TO_END {
            assert!(named(name, Some(unit)), "end-to-end {name}");
        }
        for (name, unit) in layers::PER_LAYER {
            assert!(named(name, Some(unit)), "per-layer {name}");
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + END_TO_END.len() + layers::PER_LAYER.len()
        );
    }
}
