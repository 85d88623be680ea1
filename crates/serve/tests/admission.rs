//! Admission-control behaviour under deliberate saturation: a full
//! queue answers `BUSY` immediately (never a hang), expired requests
//! answer `TIMEOUT`, and the metrics record both. Saturation is made
//! deterministic with the `exec_delay` fault-injection knob — the
//! single worker is provably busy while the other requests arrive.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use simsearch_core::EngineKind;
use simsearch_data::Dataset;
use simsearch_scan::SeqVariant;
use simsearch_serve::protocol::Response;
use simsearch_serve::{BatchConfig, ServerConfig};
use simsearch_testkit::loopback::Loopback;

fn tiny_dataset() -> Dataset {
    Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm", "Hamburg"])
}

fn saturated_config(exec_delay_ms: u64, deadline_ms: u64, queue_capacity: usize) -> ServerConfig {
    ServerConfig {
        batch: BatchConfig {
            threads: 1,
            queue_capacity,
            deadline: Duration::from_millis(deadline_ms),
            exec_delay: Duration::from_millis(exec_delay_ms),
            ..BatchConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Queue capacity 1, one worker pinned for 100 ms per request, sixteen
/// concurrent requests: some must be refused with `BUSY`, none may
/// hang, and the server must stay fully functional afterwards.
#[test]
fn full_queue_answers_busy_and_never_deadlocks() {
    let server = Loopback::spawn(
        tiny_dataset(),
        EngineKind::Scan(SeqVariant::V4Flat),
        saturated_config(100, 10_000, 1),
    );
    let addr = server.addr();
    let replies: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client =
                        simsearch_serve::Client::connect_retry(addr, Duration::from_secs(5))
                            .expect("connect");
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        out.push(client.query(b"Berlin", 1).expect("a reply, not a hang"));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(replies.len(), 16, "every request got exactly one reply");
    let busy = replies.iter().filter(|r| **r == Response::Busy).count();
    let ok = replies
        .iter()
        .filter(|r| matches!(r, Response::Matches(_)))
        .count();
    for r in &replies {
        assert!(
            matches!(r, Response::Busy | Response::Matches(_)),
            "unexpected reply {r:?}"
        );
    }
    // 8 concurrent clients against queue capacity 1 + a 100 ms worker:
    // refusals are guaranteed, and so is at least one success.
    assert!(busy > 0, "saturation must surface as BUSY");
    assert!(ok > 0, "admitted requests still succeed");
    assert_eq!(server.metrics().rejected_busy.get() as usize, busy);
    // The server is not wedged: a fresh request round-trips.
    let mut client = server.client();
    assert!(client.health().expect("health after saturation"));
    assert!(matches!(
        client.query(b"Bonn", 1).expect("query after saturation"),
        Response::Matches(_) | Response::Busy
    ));
    server.shutdown();
}

/// A request that waits in the queue past its deadline is answered
/// `TIMEOUT` without occupying the engine.
#[test]
fn expired_requests_answer_timeout() {
    let server = Loopback::spawn(
        tiny_dataset(),
        EngineKind::Scan(SeqVariant::V4Flat),
        // 150 ms per execution, 20 ms deadline, room to queue: whoever
        // queues behind the first request must expire.
        saturated_config(150, 20, 8),
    );
    let addr = server.addr();
    let replies: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client =
                        simsearch_serve::Client::connect_retry(addr, Duration::from_secs(5))
                            .expect("connect");
                    client.query(b"Berlin", 1).expect("a reply, not a hang")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timeouts = replies
        .iter()
        .filter(|r| **r == Response::Timeout)
        .count();
    for r in &replies {
        assert!(
            matches!(r, Response::Timeout | Response::Matches(_)),
            "unexpected reply {r:?}"
        );
    }
    assert!(timeouts > 0, "queued-past-deadline requests must TIMEOUT");
    assert!(server.metrics().dropped_timeout.get() as usize >= timeouts);
    server.shutdown();
}

/// A config the server thread could only panic on — a zero-capacity
/// queue, an empty handler pool — is refused by `spawn` itself, before
/// it binds: the port stays held by this test, and the error is the
/// validation's `InvalidInput`, not the bind's `AddrInUse`.
#[test]
fn zero_sized_configs_are_rejected_before_anything_is_bound() {
    let held = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("hold a port");
    let port = held.local_addr().expect("held address").port();
    let no_queue = ServerConfig {
        port,
        ..saturated_config(0, 10_000, 0)
    };
    let no_handlers = ServerConfig {
        port,
        conn_threads: 0,
        ..ServerConfig::default()
    };
    for config in [no_queue, no_handlers] {
        let err = simsearch_serve::spawn(tiny_dataset(), EngineKind::Scan(SeqVariant::V4Flat), config)
            .err()
            .expect("spawn must refuse the config");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

/// A permit covers engine work, never socket I/O: with one permit, a
/// client that requests ≈ 10 MB of matches and never reads them pins
/// its own handler in `write`, and the next client is still served.
#[test]
fn a_slow_reader_never_holds_a_permit() {
    let server = Loopback::spawn(
        Dataset::from_records(std::iter::repeat_n("a", 1_200_000)),
        EngineKind::Scan(SeqVariant::V4Flat),
        saturated_config(0, 10_000, 8),
    );
    let mut slow = TcpStream::connect(server.addr()).expect("connect");
    slow.write_all(b"QUERY 0 a\n").expect("send");
    // Once it is executed and counted, its handler only writes.
    let give_up = Instant::now() + Duration::from_secs(10);
    while server.metrics().replied_ok.get() == 0 {
        assert!(
            Instant::now() < give_up,
            "the large query executes within 10s"
        );
        std::thread::yield_now();
    }
    let mut client = server.client();
    assert_eq!(
        client.query(b"b", 0).expect("a reply, not a hang"),
        Response::Matches(Vec::new())
    );
    // Hanging up fails the blocked write, so the drain is not held up.
    drop(slow);
    server.shutdown();
}

/// A connection over `conn_threads` is closed at once — EOF, not a
/// hang, and counted — and a handler that ends frees its slot.
#[test]
fn the_connection_cap_refuses_at_once_and_recovers() {
    let server = Loopback::spawn(
        tiny_dataset(),
        EngineKind::Scan(SeqVariant::V4Flat),
        ServerConfig {
            conn_threads: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let mut first = server.client();
    assert!(first
        .health()
        .expect("the one handler serves the first client"));
    let mut second =
        simsearch_serve::Client::connect(addr).expect("the listener still completes TCP connects");
    assert!(second.health().is_err(), "over the cap: closed, not served");
    assert_eq!(server.metrics().rejected_busy.get(), 1);
    // The first handler frees its slot when it reads EOF; a connect that
    // races it is refused like the second, so retry until one is served.
    drop(first);
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut third = loop {
        let mut client =
            simsearch_serve::Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
        if let Ok(reply) = client.query(b"Bern", 1) {
            assert!(matches!(reply, Response::Matches(_)), "{reply:?}");
            break client;
        }
        assert!(
            Instant::now() < give_up,
            "the freed slot serves a client within 10s"
        );
        std::thread::yield_now();
    };
    // The harness's own SHUTDOWN connection would find the one slot
    // taken: ask over the connection that holds it.
    third.shutdown().expect("bye");
    server.shutdown();
}
