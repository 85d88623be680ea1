//! Similarity self-join — the other track of the EDBT/ICDT 2013
//! competition the paper was written for: find *all pairs* of records
//! within edit distance k (e.g. deduplicating a gazetteer).
//!
//! Times PASS-JOIN, sequential and on a pool of four threads, against
//! the nested-loop oracle and prints a sample of the discovered
//! near-duplicate pairs.
//!
//! ```sh
//! cargo run --release --example similarity_join
//! ```

use simsearch::core::join::{nested_loop_join, parallel_pass_join, pass_join};
use simsearch::core::{experiment::time, Strategy};
use simsearch::core::presets;

fn main() {
    let preset = presets::city(3_000);
    let ds = &preset.dataset;
    println!("joining {} city names at k = 1 ...\n", ds.len());

    let (reference, t_nested) = time(|| nested_loop_join(ds, 1));
    let (pass, t_pass) = time(|| pass_join(ds, 1));
    let (parallel, t_par) = time(|| {
        parallel_pass_join(ds, 1, Strategy::FixedPool { threads: 4 })
    });
    assert_eq!(pass, reference, "PASS-JOIN diverged");
    assert_eq!(parallel, reference, "parallel PASS-JOIN diverged");

    println!("{:<22} {:>10}", "algorithm", "time");
    for (name, t) in [
        ("nested loop", t_nested),
        ("PASS-JOIN", t_pass),
        ("PASS-JOIN + pool(4)", t_par),
    ] {
        println!("{:<22} {:>8.1} ms", name, t.as_secs_f64() * 1e3);
    }

    println!("\n{} near-duplicate pairs; first few:", reference.len());
    for p in reference.iter().take(8) {
        println!(
            "  {:?} ~ {:?} (distance {})",
            String::from_utf8_lossy(ds.get(p.left)),
            String::from_utf8_lossy(ds.get(p.right)),
            p.distance
        );
    }
}
