//! Ablation: similarity self-join strategies on the city-names profile
//! (the venue's join competition track). Two rows at k = 1:
//!
//! * `nested_loop` — every unordered pair within the length filter
//!   through the early-abort kernel;
//! * `pass_join` — PASS-JOIN: even k+1 partitions, inverted segment
//!   index, substring-selection probing.
//!
//! The committed JSON carries a `counters` object with the candidate
//! accounting of one PASS-JOIN run — how far the filter stack cuts
//! below the quadratic pair count is the point of the rung, and
//! wall-clock alone cannot show it.

use simsearch_core::join::nested_loop_join;
use simsearch_core::{pass_join_with_stats, presets, Strategy};
use simsearch_testkit::bench::Harness;

fn main() {
    let h = Harness::new();
    // Smoke mode joins a smaller corpus; the baselines are quadratic.
    let records = if h.measuring() { 4_000 } else { 300 };
    let preset = presets::city(records);
    let ds = &preset.dataset;
    let k = 1;
    // One accounting pass outside the timed loop: candidate count and
    // segment-index shape.
    let (pass_pairs, pass_stats) = pass_join_with_stats(ds, k, Strategy::Sequential);
    let quadratic = (ds.len() as u64) * (ds.len() as u64 - 1) / 2;
    let mut group = h.group("ablation_join_city");
    group.set_workload("city", ds.len(), 0, "1");
    group.set_counters(&[
        ("pairs_in_result", pass_pairs.len() as u64),
        ("quadratic_pairs", quadratic),
        ("pass_candidates_verified", pass_stats.candidates_verified),
        ("pass_seg_buckets", pass_stats.seg_buckets),
        ("pass_seg_postings", pass_stats.seg_postings),
    ]);
    group.bench("nested_loop", || nested_loop_join(ds, k));
    group.bench("pass_join", || {
        pass_join_with_stats(ds, k, Strategy::Sequential).0
    });
    group.finish();
    h.publish_snapshot("ablation_join_city");
}
