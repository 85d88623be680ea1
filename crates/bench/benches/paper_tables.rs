//! Tables II–IX: the thread sweeps and the optimisation ladders of both
//! solutions on both datasets, one bench group per table
//! (`experiments::PAPER_TABLES` holds the rows). Arguments that are not
//! flags select groups by substring: `cargo bench --bench paper_tables
//! -- table3` runs Table III alone.
//!
//! Expected shapes: on the scan ladders each rung is at least as fast as
//! the previous, except rung 5 (thread-per-query), which regresses, and
//! rung 2 is the big drop. Rung 1 of the DNA ladder (naive full matrix)
//! runs on a shorter workload prefix — the paper itself only estimates
//! it ("≈ half a day").

use simsearch_bench::experiments::PAPER_TABLES;
use simsearch_bench::Scale;
use simsearch_core::{EngineKind, SearchEngine, SeqVariant};
use simsearch_testkit::bench::Harness;

fn main() {
    let h = Harness::new();
    let only: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let scale = Scale::bench();
    let (city, dna) = (scale.city(), scale.dna());
    for table in PAPER_TABLES {
        if !only.is_empty() && !only.iter().any(|name| table.group.contains(name.as_str())) {
            continue;
        }
        let preset = if table.dna { &dna } else { &city };
        let workload = preset.workload.prefix(h.queries(table.queries));
        // In smoke mode a single query keeps the full-matrix scan
        // affordable.
        let naive_workload = preset.workload.prefix(if h.measuring() { 4 } else { 1 });
        let mut group = h.group(table.group);
        for row in table.rows.rows() {
            let engine = SearchEngine::build(&preset.dataset, row.kind);
            if table.dna && row.kind == EngineKind::Scan(SeqVariant::V1Base) {
                group.bench(&format!("{}_subsampled", row.id), || {
                    engine.run(&naive_workload)
                });
            } else {
                group.bench(&row.id, || engine.run(&workload));
            }
        }
        group.finish();
    }
}
