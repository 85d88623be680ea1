//! Experiment drivers: one function per table/figure of the paper.
//!
//! Each driver builds the engines it needs (construction time excluded,
//! as in the paper's §5.2 protocol), executes the 100/500/1,000-query
//! workload prefixes, and renders a [`Table`] in the shape of the
//! corresponding appendix table. The `reproduce` binary prints them; the
//! Criterion benches reuse the same engine/workload combinations for
//! statistical runs.

use simsearch_core::presets::Preset;
use simsearch_core::report::{format_percent, format_secs};
use simsearch_core::{
    cross_validate, measure_extrapolated, measure_prefixes, EngineKind, IdxVariant, Measurement,
    SearchEngine, SeqVariant, Table,
};
use simsearch_data::DatasetStats;

/// The thread counts the paper sweeps (Tables II/IV/VI/VIII).
pub const THREAD_SWEEP: [usize; 4] = [4, 8, 16, 32];

/// Paper Table II optimum: 8 threads for the city-names scan.
pub const CITY_SEQ_BEST_THREADS: usize = 8;
/// Paper Table IV optimum: 32 threads for the city-names index.
pub const CITY_IDX_BEST_THREADS: usize = 32;
/// Paper §5.6 optimum: 16 threads for the DNA scan.
pub const DNA_SEQ_BEST_THREADS: usize = 16;
/// Paper §5.7 optimum: 16 threads for the DNA index.
pub const DNA_IDX_BEST_THREADS: usize = 16;

fn query_headers(counts: &[usize]) -> Vec<String> {
    let mut h = vec!["Approach".to_string()];
    h.extend(counts.iter().map(|c| format!("{c} queries")));
    h
}

fn table_with_counts(title: &str, counts: &[usize]) -> Table {
    let headers = query_headers(counts);
    let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    Table::new(title, &refs)
}

/// Table I: measured dataset properties.
pub fn table1(city: &Preset, dna: &Preset) -> Table {
    let mut t = Table::new(
        "Table I. Overview about the data sets and their properties",
        &["Dataset", "#Data sets", "#Symbols", "Length", "Edit distance"],
    );
    for (name, preset, thresholds) in [
        ("City names", city, "0, 1, 2, 3"),
        ("DNA", dna, "0, 4, 8, 16"),
    ] {
        let s = DatasetStats::compute(&preset.dataset);
        t.push_row(
            name,
            vec![
                s.records.to_string(),
                s.symbols.to_string(),
                format!("{}..{} (mean {:.1})", s.min_len, s.max_len, s.mean_len),
                thresholds.to_string(),
            ],
        );
    }
    t
}

/// One engine of a paper table: the id the bench files its timings
/// under, the row label the rendered table prints, and the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Bench id within the table's group.
    pub id: String,
    /// Row label in the rendered table.
    pub label: String,
    /// The engine to build.
    pub kind: EngineKind,
}

/// Which engines a paper table compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    /// Tables II/VI: scan rung 6 at each of [`THREAD_SWEEP`].
    SeqThreads,
    /// Tables III/VII: the six-rung scan ladder (rung 6 at `pool`
    /// threads) plus the V7 and V8 extension rows.
    SeqLadder {
        /// Pool threads of rung 6.
        pool: usize,
    },
    /// Tables IV/VIII: the compressed tree at each of [`THREAD_SWEEP`].
    /// The sweep isolates thread-management behaviour, so it runs on the
    /// fast modern-pruning descent; the prune modes themselves are
    /// compared in the ladder tables and figures.
    IdxThreads,
    /// Tables V/IX: the three-rung index ladder with the paper's §4.1
    /// pruning (rung 3 at `pool` threads), plus two extension rows: the
    /// same structures under modern pruning (banded rows + row-minimum
    /// lemma).
    IdxLadder {
        /// Pool threads of rung 3.
        pool: usize,
    },
}

impl Rows {
    /// The rows, in table order.
    pub fn rows(self) -> Vec<Row> {
        let sweep = |kind: fn(usize) -> EngineKind| {
            THREAD_SWEEP
                .iter()
                .map(|&threads| Row {
                    id: threads.to_string(),
                    label: format!("{threads} threads"),
                    kind: kind(threads),
                })
                .collect()
        };
        let row = |id: String, label: String, kind| Row { id, label, kind };
        match self {
            Rows::SeqThreads => sweep(|threads| EngineKind::Scan(SeqVariant::V6Pool { threads })),
            Rows::IdxThreads => {
                sweep(|threads| EngineKind::IndexModern(IdxVariant::I3Pool { threads }))
            }
            Rows::SeqLadder { pool } => SeqVariant::ladder_extended(pool)
                .into_iter()
                .zip(1..)
                .map(|(variant, rung)| {
                    let id = match variant {
                        SeqVariant::V7SortedPrefix => "ext_v7".to_string(),
                        SeqVariant::V8BitParallel => "ext_v8".to_string(),
                        _ => format!("rung{rung}"),
                    };
                    row(id, variant.label(), EngineKind::Scan(variant))
                })
                .collect(),
            Rows::IdxLadder { pool } => {
                let mut rows: Vec<Row> = IdxVariant::ladder(pool)
                    .into_iter()
                    .zip(1..)
                    .map(|(variant, rung)| {
                        row(
                            format!("rung{rung}"),
                            variant.label(),
                            EngineKind::Index(variant),
                        )
                    })
                    .collect();
                for (id, label, variant) in [
                    (
                        "ext_modern_pruning",
                        "x) Compression + modern pruning",
                        IdxVariant::I2Compressed,
                    ),
                    (
                        "ext_modern_pool",
                        "x) Modern pruning + parallelism",
                        IdxVariant::I3Pool { threads: pool },
                    ),
                ] {
                    rows.push(row(
                        id.into(),
                        label.into(),
                        EngineKind::IndexModern(variant),
                    ));
                }
                rows
            }
        }
    }
}

/// One of the paper's Tables II–IX as the `paper_tables` bench runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperTable {
    /// Bench group name — `BENCH_<group>.json`.
    pub group: &'static str,
    /// DNA reads (`true`) or city names.
    pub dna: bool,
    /// Workload prefix the bench times.
    pub queries: usize,
    /// The engines compared; the `reproduce` drivers below render the
    /// same rows at their own scale.
    pub rows: Rows,
}

/// Tables II–IX. The ladders' pool rungs run at the thread count the
/// paper found best for that table's dataset and family.
#[rustfmt::skip] // one table a line
pub const PAPER_TABLES: [PaperTable; 8] = [
    table("table2_city_seq_threads", false, 50, Rows::SeqThreads),
    table("table3_city_seq_ladder", false, 30, Rows::SeqLadder { pool: CITY_SEQ_BEST_THREADS }),
    table("table4_city_idx_threads", false, 50, Rows::IdxThreads),
    table("table5_city_idx_ladder", false, 30, Rows::IdxLadder { pool: CITY_IDX_BEST_THREADS }),
    table("table6_dna_seq_threads", true, 30, Rows::SeqThreads),
    table("table7_dna_seq_ladder", true, 20, Rows::SeqLadder { pool: DNA_SEQ_BEST_THREADS }),
    table("table8_dna_idx_threads", true, 30, Rows::IdxThreads),
    table("table9_dna_idx_ladder", true, 10, Rows::IdxLadder { pool: DNA_IDX_BEST_THREADS }),
];

const fn table(group: &'static str, dna: bool, queries: usize, rows: Rows) -> PaperTable {
    PaperTable {
        group,
        dna,
        queries,
        rows,
    }
}

/// Renders `rows` timed over the workload prefixes in `counts`.
/// `naive_stride > 1` subsamples the naive scan rung and extrapolates
/// (labelled), as the paper itself only estimates that rung on DNA.
fn measured_table(
    preset: &Preset,
    counts: &[usize],
    title: &str,
    rows: Rows,
    naive_stride: usize,
) -> Table {
    let mut t = table_with_counts(title, counts);
    for row in rows.rows() {
        let engine = SearchEngine::build(&preset.dataset, row.kind);
        if row.kind == EngineKind::Scan(SeqVariant::V1Base) && naive_stride > 1 {
            let ms: Vec<Measurement> = counts
                .iter()
                .map(|&n| measure_extrapolated(&engine, &preset.workload, n, naive_stride))
                .collect();
            let label = format!("{} [extrapolated 1/{naive_stride}]", row.label);
            t.push_measurements(label, &ms);
        } else {
            let ms = measure_prefixes(&engine, &preset.workload, counts);
            t.push_measurements(row.label, &ms);
        }
    }
    t
}

/// Tables II and VI: scan thread-count sweep ([`Rows::SeqThreads`]).
pub fn seq_threads_table(preset: &Preset, counts: &[usize], title: &str) -> Table {
    measured_table(preset, counts, title, Rows::SeqThreads, 1)
}

/// Tables III and VII: the scan ladder ([`Rows::SeqLadder`]), rung 1
/// subsampled by `naive_stride`.
pub fn seq_ladder_table(
    preset: &Preset,
    counts: &[usize],
    pool_threads: usize,
    naive_stride: usize,
    title: &str,
) -> Table {
    let rows = Rows::SeqLadder { pool: pool_threads };
    measured_table(preset, counts, title, rows, naive_stride)
}

/// Tables IV and VIII: index thread-count sweep ([`Rows::IdxThreads`]).
pub fn idx_threads_table(preset: &Preset, counts: &[usize], title: &str) -> Table {
    measured_table(preset, counts, title, Rows::IdxThreads, 1)
}

/// Tables V and IX: the index ladder ([`Rows::IdxLadder`]).
pub fn idx_ladder_table(
    preset: &Preset,
    counts: &[usize],
    pool_threads: usize,
    title: &str,
) -> Table {
    let rows = Rows::IdxLadder { pool: pool_threads };
    measured_table(preset, counts, title, rows, 1)
}

/// Figure 4: compression effect on node counts — the worked example plus
/// the actual dataset.
pub fn figure4(preset: &Preset) -> Table {
    let mut t = Table::new(
        "Figure 4. Compression of a prefix tree (node counts)",
        &["Dataset", "Prefix tree", "Compressed", "Ratio"],
    );
    let example = simsearch_data::Dataset::from_records(["Berlin", "Bern", "Ulm"]);
    for (name, ds) in [
        ("Berlin/Bern/Ulm (paper example)", &example),
        (preset.name, &preset.dataset),
    ] {
        let trie = simsearch_index::trie::build(ds);
        let radix = simsearch_index::radix::build(ds);
        t.push_row(
            name,
            vec![
                trie.node_count().to_string(),
                radix.node_count().to_string(),
                format!(
                    "{:.2}x",
                    trie.node_count() as f64 / radix.node_count() as f64
                ),
            ],
        );
    }
    t
}

/// Figures 6 and 7: best scan vs best index, with the paper's
/// "scan needs X % of the index's time" rows. Both index prune modes are
/// reported: the paper's own §4.1 pruning and the modern extension —
/// EXPERIMENTS.md discusses which side of the paper's verdict each
/// reproduces.
pub fn figure_best(
    preset: &Preset,
    counts: &[usize],
    seq_threads: usize,
    idx_threads: usize,
    title: &str,
) -> Table {
    let mut t = table_with_counts(title, counts);
    let scan = SearchEngine::build(
        &preset.dataset,
        EngineKind::Scan(SeqVariant::V6Pool {
            threads: seq_threads,
        }),
    );
    let paper_idx = SearchEngine::build(
        &preset.dataset,
        EngineKind::Index(IdxVariant::I3Pool {
            threads: idx_threads,
        }),
    );
    let modern_idx = SearchEngine::build(
        &preset.dataset,
        EngineKind::IndexModern(IdxVariant::I3Pool {
            threads: idx_threads,
        }),
    );
    let scan_ms = measure_prefixes(&scan, &preset.workload, counts);
    let paper_ms = measure_prefixes(&paper_idx, &preset.workload, counts);
    let modern_ms = measure_prefixes(&modern_idx, &preset.workload, counts);
    t.push_measurements(format!("Best sequential ({seq_threads} threads)"), &scan_ms);
    t.push_measurements(
        format!("Best index, paper pruning ({idx_threads} threads)"),
        &paper_ms,
    );
    t.push_measurements(
        format!("Best index, modern pruning ({idx_threads} threads)"),
        &modern_ms,
    );
    let ratio_row = |scan: &[Measurement], idx: &[Measurement]| -> Vec<String> {
        scan.iter()
            .zip(idx.iter())
            .map(|(s, i)| format_percent(s.secs() / i.secs()))
            .collect()
    };
    t.push_row("scan / paper-index time", ratio_row(&scan_ms, &paper_ms));
    t.push_row("scan / modern-index time", ratio_row(&scan_ms, &modern_ms));
    t
}

/// The paper's correctness gate: before timing anything, every engine
/// family must agree with the base scan on a workload prefix.
pub fn verify_engines(preset: &Preset, queries: usize) -> Result<(), simsearch_core::Mismatch> {
    let prefix = preset.workload.prefix(queries.min(preset.workload.len()));
    let reference = SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V1Base));
    let candidates = vec![
        SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V4Flat)),
        SearchEngine::build(
            &preset.dataset,
            EngineKind::Scan(SeqVariant::V6Pool { threads: 4 }),
        ),
        SearchEngine::build(&preset.dataset, EngineKind::Index(IdxVariant::I1BaseTrie)),
        SearchEngine::build(&preset.dataset, EngineKind::Index(IdxVariant::I2Compressed)),
        SearchEngine::build(
            &preset.dataset,
            EngineKind::Index(IdxVariant::I3Pool { threads: 4 }),
        ),
        SearchEngine::build(
            &preset.dataset,
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
        ),
    ];
    cross_validate(&reference, &candidates, &prefix)
}

/// Index construction/size comparison (supplementary; the related work's
/// index-size discussion).
pub fn index_sizes(preset: &Preset) -> Table {
    let mut t = Table::new(
        format!("Index structure sizes ({})", preset.name),
        &["Structure", "Units", "Approx. bytes"],
    );
    let trie = simsearch_index::trie::build(&preset.dataset);
    t.push_row(
        "prefix tree",
        vec![
            format!("{} nodes", trie.node_count()),
            trie.memory_bytes().to_string(),
        ],
    );
    let radix = simsearch_index::radix::build(&preset.dataset);
    t.push_row(
        "radix tree",
        vec![
            format!("{} nodes", radix.node_count()),
            radix.memory_bytes().to_string(),
        ],
    );
    let qg = simsearch_index::QgramIndex::build(&preset.dataset, 2);
    t.push_row(
        "q-gram index (q=2)",
        vec![
            format!("{} grams", qg.distinct_grams()),
            qg.memory_bytes().to_string(),
        ],
    );
    t
}

/// Work-count diagnostics: the quantities behind the wall-clock verdicts.
///
/// For each approach, the average number of DP cells computed per query
/// (the unit every optimization in the paper targets) plus, for the
/// tries, nodes visited and subtrees pruned. This table is what lets
/// EXPERIMENTS.md explain the prune-mode flip rather than just report it.
pub fn diagnostics_table(preset: &Preset, queries: usize) -> Table {
    use simsearch_distance::early_abort::ed_within_early_abort_counted;
    let prefix = preset.workload.prefix(queries.min(preset.workload.len()));
    let n = prefix.len() as f64;
    let mut t = Table::new(
        format!("Diagnostics: work per query ({})", preset.name),
        &["Approach", "DP cells/query", "nodes/query", "pruned/query"],
    );

    // Scan (rung 4 kernel): count cells over the whole dataset.
    let mut rows_buf = Vec::new();
    let mut scan_cells: u64 = 0;
    for q in prefix.iter() {
        for (_, record) in preset.dataset.iter() {
            if record.len().abs_diff(q.text.len()) > q.threshold as usize {
                continue;
            }
            let (_, cells) =
                ed_within_early_abort_counted(&mut rows_buf, &q.text, record, q.threshold);
            scan_cells += cells;
        }
    }
    t.push_row(
        "scan (early-abort kernel)",
        vec![
            format!("{:.0}", scan_cells as f64 / n),
            "-".into(),
            "-".into(),
        ],
    );

    // V7 sorted-prefix scan: the kernel counts its own cells; the saving
    // versus the row above is exactly what LCP reuse buys.
    let v7 = simsearch_scan::SequentialScan::new(&preset.dataset);
    v7.prepare(SeqVariant::V7SortedPrefix);
    let mut v7_cells: u64 = 0;
    for q in prefix.iter() {
        let (_, cells) = v7.v7_search(&q.text, q.threshold);
        v7_cells += cells;
    }
    t.push_row(
        "scan V7 (sorted prefix, LCP reuse)",
        vec![
            format!("{:.0}", v7_cells as f64 / n),
            "-".into(),
            "-".into(),
        ],
    );

    // Tries: rows * row width approximates cells; report rows directly
    // alongside node visits.
    let radix = simsearch_index::radix::build(&preset.dataset);
    let mut paper = simsearch_index::SearchTrace::default();
    let mut modern = simsearch_index::SearchTrace::default();
    for q in prefix.iter() {
        paper.add(&radix.search_paper_traced(&q.text, q.threshold).1);
        modern.add(&radix.search_traced(&q.text, q.threshold).1);
    }
    let avg_qlen = prefix
        .iter()
        .map(|q| q.text.len() as f64)
        .sum::<f64>()
        / n;
    let avg_band = prefix
        .iter()
        .map(|q| (2 * q.threshold + 1) as f64)
        .sum::<f64>()
        / n;
    t.push_row(
        "radix trie, paper pruning",
        vec![
            format!("{:.0}", paper.rows_computed as f64 * (avg_qlen + 1.0) / n),
            format!("{:.0}", paper.nodes_visited as f64 / n),
            format!("{:.0}", paper.subtrees_pruned as f64 / n),
        ],
    );
    t.push_row(
        "radix trie, modern pruning",
        vec![
            format!(
                "{:.0}",
                modern.rows_computed as f64 * avg_band.min(avg_qlen + 1.0) / n
            ),
            format!("{:.0}", modern.nodes_visited as f64 / n),
            format!("{:.0}", modern.subtrees_pruned as f64 / n),
        ],
    );
    t
}

/// The positions of `sv` that the occupancy planes and the length filter
/// alone admit for `query` at `k` (at `k = 0`, inside the equal range),
/// spelled out record by record from `sets`, the [`occupancy_set`] of
/// every sorted position: what reached V8's kernel before the bigram
/// column, the step of the selection funnel between the length filter
/// and the candidates.
///
/// [`occupancy_set`]: simsearch_data::sorted::occupancy_set
pub fn plane_survivors(
    sv: &simsearch_data::SortedView,
    sets: &[u64],
    query: &[u8],
    k: u32,
) -> usize {
    let query_set = simsearch_data::sorted::occupancy_set(query);
    (0..sv.len())
        .filter(|&pos| {
            let set = sets[pos];
            sv.record_len(pos).abs_diff(query.len()) <= k as usize
                && (query_set & !set).count_ones() <= k
                && (set & !query_set).count_ones() <= k
                && (k > 0 || sv.get(pos) == query)
        })
        .count()
}

/// Where a V8 query's time goes, per threshold, on one thread: candidate
/// selection alone ([`simsearch_data::SortedView::for_each_candidate`]
/// with a counting visitor; beside the candidates it hands on, the
/// [`plane_survivors`] that the bigram column tests) against the whole query
/// (`v8_search_view`), the kernel being the difference, and the whole
/// query against the modern-pruning radix trie on the same queries. The
/// view's selection aid is built first, outside the clock; each figure
/// is the fastest of five passes over the queries of that threshold, the
/// three taking their passes in turn so that a slow phase of the host
/// charges all of them alike.
pub fn v8_split_table(preset: &Preset, queries: usize) -> Table {
    use simsearch_data::SortedView;
    use std::collections::BTreeMap;
    use std::time::Instant;
    let prefix = preset.workload.prefix(queries.min(preset.workload.len()));
    let sv = SortedView::build(&preset.dataset);
    sv.prepare_signature();
    let radix = simsearch_index::radix::build(&preset.dataset);
    let mut by_k = BTreeMap::<u32, Vec<&[u8]>>::new();
    for q in prefix.iter() {
        by_k.entry(q.threshold).or_default().push(&q.text);
    }
    // Milliseconds a query for each of `runs`, fastest of five passes.
    type Run<'a> = &'a dyn Fn(&[u8]);
    let per_query = |texts: &[&[u8]], runs: [Run; 3]| {
        let mut best = [f64::INFINITY; 3];
        for _ in 0..5 {
            for (run, best) in runs.iter().zip(&mut best) {
                let clock = Instant::now();
                texts.iter().for_each(|text| run(text));
                *best = best.min(clock.elapsed().as_secs_f64() * 1e3 / texts.len() as f64);
            }
        }
        best
    };
    let mut headers = vec!["one thread".to_string()];
    headers.extend(
        by_k.iter()
            .map(|(k, texts)| format!("k={k} ({}q)", texts.len())),
    );
    let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "V8 selection vs kernel ({}, {} records)",
            preset.name,
            sv.len()
        ),
        &refs,
    );
    let sets: Vec<u64> = sv
        .sorted_dataset()
        .records()
        .map(simsearch_data::sorted::occupancy_set)
        .collect();
    let mut rows: [Vec<String>; 7] = Default::default();
    for (&k, texts) in &by_k {
        let (mut planes, mut reached) = (0usize, 0usize);
        for text in texts {
            planes += plane_survivors(&sv, &sets, text, k);
            sv.for_each_candidate(text, k, 0..sv.len(), |_, _| reached += 1);
        }
        let [selection, whole, index] = per_query(
            texts,
            [
                &|text| {
                    let mut count = 0usize;
                    sv.for_each_candidate(text, k, 0..sv.len(), |_, _| count += 1);
                    std::hint::black_box(count);
                },
                &|text| {
                    std::hint::black_box(simsearch_scan::v8_search_view(&sv, text, k));
                },
                &|text| {
                    std::hint::black_box(radix.search(text, k));
                },
            ],
        );
        rows[0].push(format!("{:.1}", planes as f64 / texts.len() as f64));
        rows[1].push(format!("{:.1}", reached as f64 / texts.len() as f64));
        rows[2].push(format!("{selection:.4}"));
        rows[3].push(format!("{:.4}", (whole - selection).max(0.0)));
        rows[4].push(format!("{whole:.4}"));
        rows[5].push(format!("{index:.4}"));
        rows[6].push(format_percent(whole / index));
    }
    let labels = [
        "V8: pass planes and length / query",
        "V8: reach the kernel / query",
        "V8: selection ms / query",
        "V8: kernel ms / query (difference)",
        "V8: whole query ms / query",
        "radix trie, modern pruning ms / query",
        "V8 / radix time",
    ];
    for (label, cells) in labels.into_iter().zip(rows) {
        t.push_row(label, cells);
    }
    t
}

/// Per-threshold breakdown table: the best scan vs both index modes,
/// one row per approach, one column per threshold in the workload.
pub fn per_threshold_table(preset: &Preset, queries: usize, pool_threads: usize) -> Table {
    use simsearch_core::measure_per_threshold;
    let prefix = preset.workload.prefix(queries.min(preset.workload.len()));
    let engines = [
        EngineKind::Scan(SeqVariant::V6Pool {
            threads: pool_threads,
        }),
        EngineKind::Index(IdxVariant::I3Pool {
            threads: pool_threads,
        }),
        EngineKind::IndexModern(IdxVariant::I3Pool {
            threads: pool_threads,
        }),
    ];
    let mut t = Table::default();
    for (row, kind) in engines.into_iter().enumerate() {
        let engine = SearchEngine::build(&preset.dataset, kind);
        let per_k = measure_per_threshold(&engine, &prefix);
        if row == 0 {
            let mut headers = vec!["Approach".to_string()];
            headers.extend(per_k.iter().map(|(k, m)| format!("k={k} ({}q)", m.queries)));
            t = Table {
                title: format!(
                    "Per-threshold breakdown ({}, {} queries total)",
                    preset.name,
                    prefix.len()
                ),
                headers,
                rows: Vec::new(),
            };
        }
        t.push_row(
            engine.name(),
            per_k.iter().map(|(_, m)| format_secs(m.secs())).collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn tiny() -> (Preset, Preset) {
        let s = Scale::bench().scaled_by(0.1);
        (s.city(), s.dna())
    }

    #[test]
    fn table1_reports_both_datasets() {
        let (city, dna) = tiny();
        let t = table1(&city, &dna);
        assert_eq!(t.rows.len(), 2);
        let text = t.to_string();
        assert!(text.contains("City names"));
        assert!(text.contains("DNA"));
    }

    #[test]
    fn ladders_have_paper_row_counts() {
        let (city, _) = tiny();
        let counts = [5, 10];
        let seq = seq_ladder_table(&city, &counts, 2, 1, "T");
        // 6 paper rungs + the V7 sorted-prefix and V8 bit-parallel
        // extension rows.
        assert_eq!(seq.rows.len(), 8);
        assert!(seq.rows[6].0.starts_with("x)"));
        assert!(seq.rows[7].0.starts_with("x)"));
        let idx = idx_ladder_table(&city, &counts, 2, "T");
        // 3 paper rungs + 2 modern-pruning extension rows.
        assert_eq!(idx.rows.len(), 5);
    }

    #[test]
    fn paper_tables_keep_their_bench_ids() {
        // `BENCH_table*.json` trajectories are keyed by these.
        let ids = |rows: Rows| -> Vec<String> { rows.rows().into_iter().map(|r| r.id).collect() };
        assert_eq!(ids(Rows::SeqThreads), ["4", "8", "16", "32"]);
        assert_eq!(ids(Rows::IdxThreads), ids(Rows::SeqThreads));
        assert_eq!(
            ids(Rows::SeqLadder { pool: 8 }),
            ["rung1", "rung2", "rung3", "rung4", "rung5", "rung6", "ext_v7", "ext_v8"]
        );
        assert_eq!(
            ids(Rows::IdxLadder { pool: 8 }),
            [
                "rung1",
                "rung2",
                "rung3",
                "ext_modern_pruning",
                "ext_modern_pool"
            ]
        );
        let groups: Vec<&str> = PAPER_TABLES.iter().map(|t| t.group).collect();
        for (number, group) in (2..).zip(groups) {
            assert!(group.starts_with(&format!("table{number}_")), "{group}");
        }
    }

    #[test]
    fn sweeps_have_four_rows() {
        let (city, _) = tiny();
        let t = seq_threads_table(&city, &[5], "T");
        assert_eq!(t.rows.len(), 4);
        let t = idx_threads_table(&city, &[5], "T");
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn figure4_shows_compression() {
        let (city, _) = tiny();
        let t = figure4(&city);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].1[0], "11");
        assert_eq!(t.rows[0].1[1], "5");
    }

    #[test]
    fn figure_best_includes_ratio_row() {
        let (city, _) = tiny();
        let t = figure_best(&city, &[5, 10], 2, 2, "F");
        // scan + two index modes + two ratio rows.
        assert_eq!(t.rows.len(), 5);
        assert!(t.rows[3].0.contains("paper-index"));
        assert!(t.rows[4].0.contains("modern-index"));
    }

    #[test]
    fn verification_gate_passes() {
        let (city, dna) = tiny();
        verify_engines(&city, 10).expect("city engines agree");
        verify_engines(&dna, 10).expect("dna engines agree");
    }

    #[test]
    fn diagnostics_table_has_four_rows() {
        let (city, _) = tiny();
        let t = diagnostics_table(&city, 5);
        assert_eq!(t.rows.len(), 4);
        let cells = |r: &str| r.parse::<f64>().unwrap();
        // V7 must compute fewer cells than the V4 early-abort kernel.
        assert!(cells(&t.rows[1].1[0]) < cells(&t.rows[0].1[0]));
        // The paper prune must do at least as much work as the modern one.
        assert!(cells(&t.rows[2].1[0]) >= cells(&t.rows[3].1[0]));
    }

    #[test]
    fn per_threshold_table_has_one_row_per_engine() {
        let (city, _) = tiny();
        let t = per_threshold_table(&city, 12, 2);
        assert_eq!(t.rows.len(), 3);
        // Thresholds 0..=3 all occur in the first 12 queries.
        assert_eq!(t.headers.len(), 5);
    }

    #[test]
    fn v8_split_table_has_one_column_per_threshold() {
        let (city, _) = tiny();
        let t = v8_split_table(&city, 12);
        assert_eq!(t.rows.len(), 7);
        assert_eq!(t.headers.len(), 5);
    }

    #[test]
    fn index_sizes_reports_three_structures() {
        let (city, _) = tiny();
        let t = index_sizes(&city);
        assert_eq!(t.rows.len(), 3);
    }
}
