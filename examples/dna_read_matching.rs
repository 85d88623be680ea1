//! Similar-read search on synthetic genome data — the paper's
//! non-natural-language workload (reads of length ≈100 over
//! `{A, C, G, N, T}`, thresholds up to k = 16).
//!
//! Demonstrates the threshold/selectivity trade-off, the dictionary
//! compression of §6 (3-bit packing), and the scan-vs-index comparison
//! on long small-alphabet strings.
//!
//! ```sh
//! cargo run --release --example dna_read_matching
//! ```

use simsearch::core::{experiment::time, EngineKind, IdxVariant, SearchEngine, SeqVariant};
use simsearch::core::presets;
use simsearch::data::PackedDataset;

fn main() {
    let preset = presets::dna(2_000);
    println!(
        "read set: {} reads, mean length {:.1}",
        preset.dataset.len(),
        preset.dataset.arena_len() as f64 / preset.dataset.len() as f64
    );

    // §6 dictionary compression: 3 bits per symbol.
    let packed = PackedDataset::pack(&preset.dataset).expect("reads are over ACGNT");
    println!(
        "3-bit packing: {} -> {} bytes ({:.1}% of raw)",
        preset.dataset.arena_len(),
        packed.storage_bytes(),
        100.0 * packed.storage_bytes() as f64 / preset.dataset.arena_len() as f64
    );

    // Threshold sweep on one read: how selectivity falls with k.
    let scan = SearchEngine::build(&preset.dataset, EngineKind::Scan(SeqVariant::V4Flat));
    let probe = preset.dataset.get(42);
    println!("\nmatches of read #42 by threshold:");
    for k in [0u32, 4, 8, 16, 32] {
        let hits = scan.search(probe, k);
        println!("  k = {k:>2}: {} reads", hits.len());
    }

    // Scan vs index on the paper's workload mix.
    let workload = preset.workload.prefix(100);
    let index = SearchEngine::build(
        &preset.dataset,
        EngineKind::IndexModern(IdxVariant::I2Compressed),
    );
    let (scan_results, scan_time) = time(|| scan.run(&workload));
    let (idx_results, idx_time) = time(|| index.run(&workload));
    assert_eq!(scan_results, idx_results, "engines disagree!");
    println!(
        "\n100 mixed-threshold queries: scan {:.2} ms, compressed index {:.2} ms",
        scan_time.as_secs_f64() * 1e3,
        idx_time.as_secs_f64() * 1e3
    );
    println!(
        "index needs {:.0}% of the scan's time (paper Figure 7 verdict: index wins on DNA)",
        100.0 * idx_time.as_secs_f64() / scan_time.as_secs_f64()
    );
}
