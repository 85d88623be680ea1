//! End-to-end tests of the `simsearch` binary: generate → search with
//! two engines → verify the result files are identical → join.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simsearch"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simsearch-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_search_verify_round_trip() {
    let dir = tmpdir();
    let data = dir.join("e2e.data");
    let queries = dir.join("e2e.queries");
    let scan_out = dir.join("e2e.scan");
    let radix_out = dir.join("e2e.radix");

    let status = bin()
        .args(["generate", "--kind", "city", "--count", "500", "--seed", "9"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--query-count", "40"])
        .status()
        .expect("spawn generate");
    assert!(status.success());
    assert!(data.exists() && queries.exists());

    for (engine, out) in [("scan", &scan_out), ("radix", &radix_out)] {
        let status = bin()
            .args(["search", "--data", data.to_str().unwrap()])
            .args(["--queries", queries.to_str().unwrap()])
            .args(["--engine", engine])
            .args(["--output", out.to_str().unwrap()])
            .status()
            .expect("spawn search");
        assert!(status.success(), "engine {engine} failed");
    }

    // The two engines must have produced identical result files.
    let status = bin()
        .args(["verify", "--results", scan_out.to_str().unwrap()])
        .args(["--expected", radix_out.to_str().unwrap()])
        .status()
        .expect("spawn verify");
    assert!(status.success(), "scan and radix result files differ");

    // Join emits exactly the nested-loop reference's pairs over the same
    // file, one `left<TAB>right<TAB>distance` line each.
    let output = bin()
        .args(["join", "--data", data.to_str().unwrap(), "--k", "1", "--threads", "2"])
        .output()
        .expect("spawn join");
    assert!(output.status.success());
    let dataset = simsearch_data::io::read_dataset(&data).unwrap();
    let expected: String = simsearch_core::join::nested_loop_join(&dataset, 1)
        .iter()
        .map(|p| format!("{}\t{}\t{}\n", p.left, p.right, p.distance))
        .collect();
    assert!(!expected.is_empty(), "the corpus has near-duplicate pairs");
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
    let summary = format!("pass join, k = 1: {} pairs in ", expected.lines().count());
    assert!(String::from_utf8_lossy(&output.stderr).starts_with(&summary));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_fail_with_usage() {
    let output = bin().args(["search", "--bogus"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn stats_reports_properties() {
    let dir = tmpdir();
    let data = dir.join("stats.data");
    std::fs::write(&data, "abc\nde\n").unwrap();
    let output = bin()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 records"), "unexpected stats: {stdout}");
    std::fs::remove_file(&data).unwrap();
}

#[test]
fn verify_detects_divergence() {
    let dir = tmpdir();
    let a = dir.join("a.results");
    let b = dir.join("b.results");
    std::fs::write(&a, "0: 1,2\n").unwrap();
    std::fs::write(&b, "0: 1,3\n").unwrap();
    let output = bin()
        .args(["verify", "--results", a.to_str().unwrap()])
        .args(["--expected", b.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("line 1 differs"));
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

/// `client --send` frames are bytes: a Latin-1 record (what generated
/// city names contain) goes to the daemon as it is and finds itself.
#[cfg(unix)]
#[test]
fn a_latin1_frame_round_trips_through_a_loopback_daemon() {
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;
    // Not `tmpdir()`: the round-trip test removes that directory whole.
    let dir = tmpdir().with_extension("daemon");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("latin1.data");
    let port_file = dir.join("latin1.port");
    std::fs::write(&data, b"Berlin\nM\xfcnchen\nK\xf6ln\n").unwrap();
    let mut daemon = bin()
        .args(["serve", "--data", data.to_str().unwrap(), "--port", "0"])
        .args(["--port-file", port_file.to_str().unwrap()])
        .spawn()
        .expect("spawn serve");
    let started = std::time::Instant::now();
    let port = loop {
        // The daemon writes the file only once it listens.
        match std::fs::read_to_string(&port_file) {
            Ok(port) if port.ends_with('\n') => break port.trim().to_string(),
            _ if started.elapsed().as_secs() >= 30 => {
                daemon.kill().unwrap();
                panic!("daemon never published its port");
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    let client = |flag: &str, value: &[u8]| {
        bin()
            .args(["client", "--port", &port, flag])
            .arg(OsString::from_vec(value.to_vec()))
            .output()
            .expect("spawn client")
    };
    // Every exchange first, the assertions after the daemon is down.
    let found = client("--send", b"QUERY 0 M\xfcnchen");
    let refused = client("--host", b"M\xfcnchen");
    let bye = client("--send", b"SHUTDOWN");
    assert!(daemon.wait().expect("daemon exits").success());
    assert_eq!(bye.stdout, b"OK bye\n");
    assert!(
        found.status.success(),
        "{}",
        String::from_utf8_lossy(&found.stderr)
    );
    assert_eq!(found.stdout, b"OK 1 1:0\n");
    // Anywhere else a non-UTF-8 argument is a usage error, not a panic.
    assert_eq!(refused.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("is not valid UTF-8") && stderr.contains("USAGE"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
