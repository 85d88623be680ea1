//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p simsearch-bench --release --bin reproduce            # everything, default scale
//! cargo run -p simsearch-bench --release --bin reproduce -- --table 3
//! cargo run -p simsearch-bench --release --bin reproduce -- --figure 6  # and V8's time, split
//! cargo run -p simsearch-bench --release --bin reproduce -- --scale 0.25
//! cargo run -p simsearch-bench --release --bin reproduce -- --full  # paper-size datasets
//! ```
//!
//! Default scale is 1/20 of Table I (20k city names, 5k reads); the
//! 100/500/1,000-query protocol is kept. Absolute seconds shrink with
//! the dataset; the rung-over-rung ratios and the scan-vs-index verdicts
//! are the reproduction targets (see EXPERIMENTS.md).

use simsearch_bench::{experiments as ex, Scale};
use simsearch_core::presets::Preset;
use simsearch_core::Table;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    tables: Vec<u32>,
    figures: Vec<u32>,
    scale: Scale,
    verify: bool,
    diagnostics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut tables = Vec::new();
    let mut figures = Vec::new();
    let mut scale = Scale::reproduce();
    let mut factor = 1.0f64;
    let mut verify = true;
    let mut diagnostics = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--table" => {
                let v = it.next().ok_or("--table needs a number (1-9)")?;
                tables.push(v.parse().map_err(|_| format!("bad table '{v}'"))?);
            }
            "--figure" => {
                let v = it.next().ok_or("--figure needs a number (4, 6 or 7)")?;
                figures.push(v.parse().map_err(|_| format!("bad figure '{v}'"))?);
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a factor")?;
                factor = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
            }
            "--full" => scale = Scale::full(),
            "--no-verify" => verify = false,
            "--diagnostics" => diagnostics = true,
            "--help" | "-h" => {
                return Err("usage: reproduce [--table N]... [--figure N]... \
                            [--scale F] [--full] [--no-verify] [--diagnostics]"
                    .into())
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if tables.is_empty() && figures.is_empty() {
        tables = (1..=9).collect();
        figures = vec![4, 6, 7];
    }
    Ok(Args {
        tables,
        figures,
        scale: scale.scaled_by(factor),
        verify,
        diagnostics,
    })
}

fn print_table(t: &Table) {
    println!("{t}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = args.scale;
    eprintln!(
        "# scale: {} city names, {} DNA reads, query counts {:?} (host: {} cores)",
        scale.city_records,
        scale.dna_records,
        scale.query_counts,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let needs_city = args.tables.iter().any(|t| (1..=5).contains(t))
        || args.figures.iter().any(|f| *f == 4 || *f == 6);
    let needs_dna =
        args.tables.iter().any(|t| *t == 1 || *t >= 6) || args.figures.contains(&7);

    let city: Option<Preset> = needs_city.then(|| {
        eprintln!("# generating city dataset ...");
        scale.city()
    });
    let dna: Option<Preset> = needs_dna.then(|| {
        eprintln!("# generating dna dataset ...");
        scale.dna()
    });

    if args.verify {
        for p in [city.as_ref(), dna.as_ref()].into_iter().flatten() {
            eprintln!("# verifying engine agreement on {} ...", p.name);
            if let Err(m) = ex::verify_engines(p, 20) {
                eprintln!("VERIFICATION FAILED: {m}");
                return ExitCode::FAILURE;
            }
        }
    }

    let counts = &scale.query_counts;
    for t in &args.tables {
        match t {
            1 => {
                if let (Some(c), Some(d)) = (city.as_ref(), dna.as_ref()) {
                    print_table(&ex::table1(c, d));
                }
            }
            2 => {
                if let Some(c) = city.as_ref() {
                    print_table(&ex::seq_threads_table(
                        c,
                        counts,
                        "Table II. Management of parallelism in the sequential solution on the city name data set",
                    ));
                }
            }
            3 => {
                if let Some(c) = city.as_ref() {
                    print_table(&ex::seq_ladder_table(
                        c,
                        counts,
                        ex::CITY_SEQ_BEST_THREADS,
                        1,
                        "Table III. Evaluation of the sequential solution on the city name data set",
                    ));
                }
            }
            4 => {
                if let Some(c) = city.as_ref() {
                    print_table(&ex::idx_threads_table(
                        c,
                        counts,
                        "Table IV. Management of parallelism in the index-based solution on the city name data set",
                    ));
                }
            }
            5 => {
                if let Some(c) = city.as_ref() {
                    print_table(&ex::idx_ladder_table(
                        c,
                        counts,
                        ex::CITY_IDX_BEST_THREADS,
                        "Table V. Evaluation of the index-based solution on the city name data set",
                    ));
                }
            }
            6 => {
                if let Some(d) = dna.as_ref() {
                    print_table(&ex::seq_threads_table(
                        d,
                        counts,
                        "Table VI. Management of parallelism in the sequential solution on the DNA data set",
                    ));
                }
            }
            7 => {
                if let Some(d) = dna.as_ref() {
                    print_table(&ex::seq_ladder_table(
                        d,
                        counts,
                        ex::DNA_SEQ_BEST_THREADS,
                        scale.naive_dna_stride,
                        "Table VII. Evaluation of the sequential solution on the DNA data set",
                    ));
                }
            }
            8 => {
                if let Some(d) = dna.as_ref() {
                    print_table(&ex::idx_threads_table(
                        d,
                        counts,
                        "Table VIII. Management of parallelism in the index-based solution on the DNA data set",
                    ));
                }
            }
            9 => {
                if let Some(d) = dna.as_ref() {
                    print_table(&ex::idx_ladder_table(
                        d,
                        counts,
                        ex::DNA_IDX_BEST_THREADS,
                        "Table IX. Evaluation of the index-based solution on the DNA data set",
                    ));
                }
            }
            other => eprintln!("no such table: {other}"),
        }
    }
    for f in &args.figures {
        match f {
            4 => {
                if let Some(c) = city.as_ref() {
                    print_table(&ex::figure4(c));
                    print_table(&ex::index_sizes(c));
                }
            }
            6 => {
                if let Some(c) = city.as_ref() {
                    print_table(&ex::figure_best(
                        c,
                        counts,
                        ex::CITY_SEQ_BEST_THREADS,
                        ex::CITY_IDX_BEST_THREADS,
                        "Figure 6. Comparison of the best sequential with the best index-based solution (city names)",
                    ));
                    print_table(&ex::v8_split_table(c, 1_000));
                }
            }
            7 => {
                if let Some(d) = dna.as_ref() {
                    print_table(&ex::figure_best(
                        d,
                        counts,
                        ex::DNA_SEQ_BEST_THREADS,
                        ex::DNA_IDX_BEST_THREADS,
                        "Figure 7. Comparison of the best sequential with the best index-based solution (DNA)",
                    ));
                }
            }
            other => eprintln!("no such figure: {other}"),
        }
    }
    if args.diagnostics {
        for p in [city.as_ref(), dna.as_ref()].into_iter().flatten() {
            print_table(&ex::diagnostics_table(p, 50));
            print_table(&ex::per_threshold_table(
                p,
                200,
                if p.name == "dna" {
                    ex::DNA_SEQ_BEST_THREADS
                } else {
                    ex::CITY_SEQ_BEST_THREADS
                },
            ));
        }
    }
    ExitCode::SUCCESS
}
