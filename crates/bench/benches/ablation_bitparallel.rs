//! Ablation: what does bit-parallelism buy the sorted-prefix sweep?
//! Three rungs on both workload profiles:
//!
//! * `v7_sorted_prefix` — scalar row-stack DP, LCP resume (the rung V8
//!   generalizes);
//! * `myers_restart` — bit-parallel Myers, but restarted from scratch
//!   on every record (flat scan order, no reuse);
//! * `v8_bitparallel` — Myers blocks over the sorted arena, resumed at
//!   64-cell block granularity from the running LCP floor;
//!
//! and, beside them, `v8_selection`: V8's candidate selection alone
//! (`SortedView::for_each_candidate` with a counting visitor, the same
//! queries), so that V8's time splits into selection and kernel.
//!
//! The committed JSON also carries a `counters` object with the
//! words-vs-cells accounting of one full workload pass: V7's scalar DP
//! cells against V8's words advanced / words reused / row-equivalent
//! cells — the word-level work collapse is the point of the rung, and
//! wall-clock alone cannot show it — and with what candidate selection
//! does before the kernel runs: `length_admitted` records pass the
//! length filter, `v8_candidates` of them reach the kernel (the
//! occupancy planes and the bigram column on city names, the segment
//! postings on DNA), and `v8_candidates_k<k>` splits that by threshold.
//! Where the view carries planes, `v8_plane_survivors_k<k>` counts what
//! the planes and the length filter alone admit — the candidates before
//! the bigram column ([`plane_survivors`]).

use std::collections::BTreeMap;

use simsearch_bench::experiments::plane_survivors;
use simsearch_bench::Scale;
use simsearch_core::{EngineKind, KernelKind, SearchEngine, SeqVariant, Strategy};
use simsearch_data::sorted::occupancy_set;
use simsearch_data::SortedView;
use simsearch_distance::MyersStackKernel;
use simsearch_scan::{v7_search_view, v8_scan_view_range};
use simsearch_testkit::bench::Harness;

fn main() {
    let h = Harness::new();
    let scale = Scale::bench();
    for (name, preset, queries, thresholds) in [
        ("city", scale.city(), 50, "0, 1, 2, 3"),
        ("dna", scale.dna(), 20, "0, 4, 8, 16"),
    ] {
        let workload = preset.workload.prefix(h.queries(queries));
        let v7 = SearchEngine::build(
            &preset.dataset,
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
        );
        let myers_restart = SearchEngine::build(
            &preset.dataset,
            EngineKind::ScanCustom {
                kernel: KernelKind::Myers,
                strategy: Strategy::Sequential,
            },
        );
        let v8 = SearchEngine::build(
            &preset.dataset,
            EngineKind::Scan(SeqVariant::V8BitParallel),
        );
        // One accounting pass outside the timed loop: total scalar DP
        // cells for V7 vs words advanced/reused (and their row-equivalent
        // cells) for V8, over the same sorted view and workload.
        let sv = SortedView::build(&preset.dataset);
        let mut v7_cells = 0u64;
        let (mut v8_words, mut v8_reused, mut v8_cells) = (0u64, 0u64, 0u64);
        let (mut length_admitted, mut v8_candidates) = (0u64, 0u64);
        let mut candidates_by_k = BTreeMap::<u32, u64>::new();
        let mut planes_by_k = BTreeMap::<u32, u64>::new();
        let sets: Vec<u64> = sv.sorted_dataset().records().map(occupancy_set).collect();
        for q in &workload.queries {
            *planes_by_k.entry(q.threshold).or_default() +=
                plane_survivors(&sv, &sets, &q.text, q.threshold) as u64;
            length_admitted += (0..sv.len())
                .filter(|&pos| sv.record_len(pos).abs_diff(q.text.len()) <= q.threshold as usize)
                .count() as u64;
            let reached = candidates_by_k.entry(q.threshold).or_default();
            sv.for_each_candidate(&q.text, q.threshold, 0..sv.len(), |_, _| {
                v8_candidates += 1;
                *reached += 1;
            });
            v7_cells += v7_search_view(&sv, &q.text, q.threshold).1;
            let mut dp = MyersStackKernel::new(&q.text, q.threshold);
            let _ = v8_scan_view_range(&sv, &mut dp, &q.text, q.threshold, 0..sv.len());
            v8_words += dp.words_advanced();
            v8_reused += dp.words_reused();
            v8_cells += dp.cells_computed();
        }
        let group_name = format!("ablation_bitparallel_{name}");
        let mut group = h.group(&group_name);
        group.set_workload(name, preset.dataset.len(), workload.len(), thresholds);
        let mut by_k: Vec<(String, u64)> = candidates_by_k
            .into_iter()
            .map(|(k, reached)| (format!("v8_candidates_k{k}"), reached))
            .collect();
        if sv.signature_bytes() > 0 {
            by_k.extend(
                planes_by_k
                    .into_iter()
                    .map(|(k, passed)| (format!("v8_plane_survivors_k{k}"), passed)),
            );
        }
        let mut counters = vec![
            ("v7_dp_cells", v7_cells),
            ("v8_words_advanced", v8_words),
            ("v8_words_reused", v8_reused),
            ("v8_cells_equivalent", v8_cells),
            ("length_admitted", length_admitted),
            ("v8_candidates", v8_candidates),
        ];
        counters.extend(by_k.iter().map(|(name, reached)| (name.as_str(), *reached)));
        group.set_counters(&counters);
        group.bench("v7_sorted_prefix", || v7.run(&workload));
        group.bench("myers_restart", || myers_restart.run(&workload));
        group.bench("v8_bitparallel", || v8.run(&workload));
        group.bench("v8_selection", || {
            let mut reached = 0usize;
            for q in &workload.queries {
                sv.for_each_candidate(&q.text, q.threshold, 0..sv.len(), |_, _| reached += 1);
            }
            reached
        });
        group.finish();
        h.publish_snapshot(&group_name);
    }
}
