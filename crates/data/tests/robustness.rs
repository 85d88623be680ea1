//! Robustness: the file readers must never panic on arbitrary input —
//! they either parse or return a structured error.

use simsearch_data::io;
use simsearch_testkit::{check, gen, prop_assert, Config};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

const SEED: u64 = 0x20B_057;

fn tmp() -> PathBuf {
    std::env::temp_dir().join(format!(
        "simsearch-robust-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn read_dataset_never_panics() {
    check(
        "read_dataset_never_panics",
        Config::default().seed(SEED),
        &gen::bytes_any(0..300),
        |bytes| {
            let path = tmp();
            std::fs::write(&path, bytes).unwrap();
            let result = io::read_dataset(&path);
            std::fs::remove_file(&path).unwrap();
            // Data files have no invalid contents: every byte stream parses.
            let ds = result.expect("data files always parse");
            let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
            prop_assert!(ds.len() <= newlines + 1);
            Ok(())
        },
    );
}

#[test]
fn read_queries_never_panics() {
    check(
        "read_queries_never_panics",
        Config::default().seed(SEED),
        &gen::bytes_any(0..300),
        |bytes| {
            let path = tmp();
            std::fs::write(&path, bytes).unwrap();
            // Must not panic; Err is fine (malformed lines).
            let _ = io::read_queries(&path);
            std::fs::remove_file(&path).unwrap();
            Ok(())
        },
    );
}
