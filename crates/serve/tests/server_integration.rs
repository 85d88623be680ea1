//! End-to-end serving tests: a real `simsearchd` on a loopback
//! ephemeral port, concurrent clients, and byte-level comparison
//! against the V1 reference scan.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simsearch_core::{presets, EngineKind};
use simsearch_scan::{SeqVariant, SequentialScan};
use simsearch_serve::protocol::{encode_request, encode_response, matches_response, Request, Response};
use simsearch_serve::{BatchConfig, ServerConfig};
use simsearch_testkit::loopback::Loopback;

/// One query with its oracle reply, precomputed offline.
struct Expected {
    frame: Vec<u8>,
    reply: Vec<u8>,
}

/// Answers every workload query with the naive V1 scan and returns the
/// exact wire bytes the server must produce.
fn oracle(preset: &presets::Preset, take: usize) -> Vec<Expected> {
    let scan = SequentialScan::new(&preset.dataset);
    preset
        .workload
        .queries
        .iter()
        .take(take)
        .map(|q| {
            let matches = scan.search_one(SeqVariant::V1Base, &q.text, q.threshold);
            Expected {
                frame: encode_request(&Request::Query {
                    k: q.threshold,
                    text: q.text.clone(),
                }),
                reply: encode_response(&matches_response(&matches)),
            }
        })
        .collect()
}

/// The tentpole acceptance test: 1,000 city + DNA queries, eight
/// concurrent client threads, every reply byte-identical to the V1
/// oracle — through the admission queue and the engine workers.
#[test]
fn concurrent_clients_match_the_v1_oracle_byte_for_byte() {
    // 1,000 queries total; the DNA share is smaller because its V1
    // oracle runs a full ~100×100 DP per record per query.
    let cases = [
        (presets::city(1_200), "city", 700),
        (presets::dna(300), "dna", 300),
    ];
    for (preset, label, take) in cases {
        let expected = Arc::new(oracle(&preset, take));
        let server = Loopback::spawn(
            preset.dataset.clone(),
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
            ServerConfig {
                dataset_label: label.into(),
                batch: BatchConfig {
                    threads: 3,
                    ..BatchConfig::default()
                },
                ..ServerConfig::default()
            },
        );
        let addr = server.addr();
        std::thread::scope(|scope| {
            let threads = 4;
            for t in 0..threads {
                let expected = Arc::clone(&expected);
                scope.spawn(move || {
                    let mut client = simsearch_serve::Client::connect_retry(
                        addr,
                        Duration::from_secs(5),
                    )
                    .expect("connect");
                    // Strided assignment: thread t answers queries
                    // t, t+threads, t+2*threads, …
                    for (i, case) in expected.iter().enumerate().skip(t).step_by(threads) {
                        let got = client.send_raw(&case.frame).expect("query");
                        assert_eq!(
                            got, case.reply,
                            "{label} query {i}: server reply differs from V1 oracle"
                        );
                    }
                });
            }
        });
        // The acceptance criterion: after real traffic, STATS carries
        // a non-zero latency histogram — and parses as JSON.
        let mut client = server.client();
        let json = client.stats_json().expect("stats");
        simsearch_serve::json::validate(&json).expect("STATS must be valid JSON");
        assert!(json.contains("\"schema\": \"simsearch-bench-v2\""), "{json}");
        let m = server.metrics();
        assert!(m.latency_ns.count() >= take as u64, "latency histogram populated");
        assert!(m.dp_cells.get() > 0, "V7 DP-cell diagnostics flow through");
        assert_eq!(m.requests_admitted.get(), take as u64);
        assert_eq!(m.replied_ok.get(), take as u64);
        assert_eq!(m.rejected_busy.get(), 0, "default queue never saturates here");
        server.shutdown();
    }
}

/// TOPK over the wire agrees with a direct deepening search and is
/// sorted by (distance, id).
#[test]
fn topk_replies_are_sorted_and_bounded() {
    let preset = presets::city(600);
    let server = Loopback::spawn_default(
        preset.dataset.clone(),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
    );
    let mut client = server.client();
    for q in preset.workload.queries.iter().take(50) {
        let matches = client.topk(&q.text, 5).expect("topk");
        assert!(matches.len() <= 5);
        for pair in matches.windows(2) {
            assert!(
                (pair[0].distance, pair[0].id) < (pair[1].distance, pair[1].id),
                "TOPK order"
            );
        }
    }
    server.shutdown();
}

/// Graceful drain: requests already admitted when SHUTDOWN arrives are
/// still answered, and every server thread joins.
#[test]
fn shutdown_drains_admitted_requests() {
    let preset = presets::city(300);
    let server = Loopback::spawn(
        preset.dataset.clone(),
        EngineKind::Scan(SeqVariant::V4Flat),
        ServerConfig {
            batch: BatchConfig {
                threads: 1,
                queue_capacity: 16,
                exec_delay: Duration::from_millis(30),
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let clients: Vec<_> = (0..5)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client =
                    simsearch_serve::Client::connect_retry(addr, Duration::from_secs(5))
                        .expect("connect");
                client.query(b"Berlin", 2).expect("a drained reply")
            })
        })
        .collect();
    // Wait (≤ 10 s) until every query has been admitted — the single
    // slow worker needs 150 ms for them, so most are still queued — then
    // shut down: the drain must answer them all.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().requests_admitted.get() < 5 {
        assert!(Instant::now() < deadline, "five queries were not admitted within 10s");
        std::thread::yield_now();
    }
    server.shutdown(); // sends SHUTDOWN, joins all server threads
    for c in clients {
        let reply = c.join().expect("client thread");
        assert!(
            matches!(reply, Response::Matches(_)),
            "admitted request answered with {reply:?} instead of matches"
        );
    }
}

/// HEALTH and STATS work on a fresh server with zero traffic.
#[test]
fn health_and_stats_on_idle_server() {
    let preset = presets::dna(200);
    let server = Loopback::spawn_default(
        preset.dataset.clone(),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
    );
    let mut client = server.client();
    assert!(client.health().expect("health"));
    let json = client.stats_json().expect("stats");
    simsearch_serve::json::validate(&json).expect("idle STATS is still valid JSON");
    assert!(json.contains("\"records\": 200"), "{json}");
    server.shutdown();
}

/// `STATS` `records` follows the live record count: after two INSERTs
/// and one DELETE a `--live` daemon, sharded or not, reports the seed
/// plus one.
#[test]
fn live_stats_records_count_inserts_and_deletes() {
    let preset = presets::city(200);
    let seed = preset.dataset.len();
    let live = [
        EngineKind::Live { memtable_cap: 64 },
        EngineKind::ShardedLive {
            shards: 4,
            by: simsearch_core::ShardBy::Hash,
            threads: 1,
            memtable_cap: 64,
        },
    ];
    for kind in live {
        let server = Loopback::spawn_default(preset.dataset.clone(), kind);
        let mut client = server.client();
        let first = client.insert(b"zz#live-records-1").expect("insert");
        client.insert(b"zz#live-records-2").expect("insert");
        assert!(client.delete(first).expect("delete"));
        let json = client.stats_json().expect("stats");
        let want = format!("\"records\": {}", seed + 1);
        assert!(json.contains(&want), "{}: {json}", kind.name());
        server.shutdown();
    }
}
