//! Protocol robustness properties, offline and over a live socket:
//! the parsers are total (arbitrary byte soup never panics), encoding
//! round-trips, and a live server answers every malformed frame with
//! `ERR` while staying healthy.

use simsearch_core::EngineKind;
use simsearch_data::Dataset;
use simsearch_scan::SeqVariant;
use simsearch_serve::protocol::{
    encode_request, parse_request, parse_response, Request,
};
use simsearch_serve::ServerConfig;
use simsearch_testkit::loopback::Loopback;
use simsearch_testkit::{check, gen, prop_assert_eq, Config, TestResult};

/// Arbitrary frames: any bytes except the line terminators the reader
/// strips before parsing.
fn frame_gen(max_len: usize) -> gen::Gen<Vec<u8>> {
    gen::vec_of(
        gen::byte_where(|b| b != b'\n' && b != b'\r'),
        0..max_len,
    )
}

#[test]
fn parse_request_is_total() {
    check(
        "parse_request_is_total",
        Config::default(),
        &frame_gen(200),
        |frame: &Vec<u8>| -> TestResult {
            // Any outcome but a panic is acceptable.
            let _ = parse_request(frame);
            Ok(())
        },
    );
}

#[test]
fn parse_response_is_total() {
    check(
        "parse_response_is_total",
        Config::default(),
        &frame_gen(200),
        |frame: &Vec<u8>| -> TestResult {
            let _ = parse_response(frame);
            Ok(())
        },
    );
}

#[test]
fn query_requests_round_trip() {
    let cases = gen::zip3(
        gen::u32_in(0..1_000_000),
        frame_gen(80),
        gen::u32_in(0..2),
    );
    check(
        "query_requests_round_trip",
        Config::default(),
        &cases,
        |(k, text, which): &(u32, Vec<u8>, u32)| -> TestResult {
            let request = if *which == 0 {
                Request::Query {
                    k: *k,
                    text: text.clone(),
                }
            } else {
                Request::TopK {
                    count: *k,
                    text: text.clone(),
                }
            };
            let decoded = parse_request(&encode_request(&request));
            prop_assert_eq!(decoded, Ok(request));
            Ok(())
        },
    );
}

/// Live-wire fuzz: a real server answers every malformed frame with an
/// `ERR` line (never silence, never a crash), interleaved health checks
/// keep passing, and the error counter adds up.
#[test]
fn live_server_survives_malformed_frames() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern", "Bonn"]),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
        ServerConfig::default(),
    );
    let mut client = server.client();
    let mut rng = simsearch_testkit::Xoshiro256::seed_from_u64(0xBADF_0005);
    let frames = frame_gen(120);
    let mut sent = 0u64;
    for round in 0..200 {
        let mut frame = frames.sample(&mut rng);
        // Make every frame non-empty so the mutation below has a byte
        // to work on (the empty frame is covered by its own test).
        if frame.is_empty() {
            frame.push(b'?');
        }
        // Keep definitely-malformed: break any accidental valid verb.
        frame[0] = frame[0].wrapping_add(1) | 0x80;
        let reply = client.send_raw(&frame).expect("a reply, not a hang");
        assert!(
            reply.starts_with(b"ERR "),
            "round {round}: malformed frame {:?} got {:?}",
            String::from_utf8_lossy(&frame),
            String::from_utf8_lossy(&reply)
        );
        sent += 1;
        if round % 50 == 0 {
            assert!(client.health().expect("health"), "server died mid-fuzz");
        }
    }
    assert!(client.health().expect("health after fuzz"));
    assert_eq!(server.metrics().replied_error.get(), sent);
    // Well-formed traffic still works on the same connection.
    let reply = client.query(b"Berlin", 1).expect("query after fuzz");
    assert!(matches!(
        reply,
        simsearch_serve::protocol::Response::Matches(_)
    ));
    server.shutdown();
}

/// An oversized line is refused with `ERR … bytes` and the connection
/// closes (framing is unrecoverable), but the server itself lives on.
#[test]
fn oversized_line_closes_only_that_connection() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern"]),
        EngineKind::Scan(SeqVariant::V4Flat),
        ServerConfig::default(),
    );
    let mut victim = server.client();
    let huge = vec![b'A'; simsearch_serve::protocol::MAX_LINE_BYTES + 64];
    let reply = victim.send_raw(&huge).expect("TooLong still gets a reply");
    assert!(
        reply.starts_with(b"ERR "),
        "got {:?}",
        String::from_utf8_lossy(&reply)
    );
    // The violating connection is closed afterwards…
    assert!(victim.send_raw(b"HEALTH").is_err(), "connection must close");
    // …but a fresh one is served normally.
    let mut fresh = server.client();
    assert!(fresh.health().expect("health"));
    server.shutdown();
}

#[test]
fn mutation_requests_round_trip() {
    // INSERT carries arbitrary line-safe bytes (including empty and
    // space-laden records); DELETE carries any u32. Both must survive
    // encode→parse unchanged, like every other verb.
    let cases = gen::zip(frame_gen(80), gen::u32_in(0..u32::MAX));
    check(
        "mutation_requests_round_trip",
        Config::default(),
        &cases,
        |(text, id): &(Vec<u8>, u32)| -> TestResult {
            let insert = Request::Insert { text: text.clone() };
            prop_assert_eq!(parse_request(&encode_request(&insert)), Ok(insert));
            let delete = Request::Delete { id: *id };
            prop_assert_eq!(parse_request(&encode_request(&delete)), Ok(delete));
            Ok(())
        },
    );
}

/// Malformed mutation frames over a live socket: every one gets `ERR`
/// (never silence, never a crash) and the daemon keeps serving.
#[test]
fn malformed_mutation_frames_get_err_replies() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern"]),
        EngineKind::Live { memtable_cap: 4 },
        ServerConfig::default(),
    );
    let mut client = server.client();
    for frame in [
        &b"INSERT"[..],       // bare verb: missing argument
        b"DELETE",            // bare verb: missing argument
        b"DELETE x",          // non-numeric id
        b"DELETE -1",         // signs are not part of the grammar
        b"DELETE 1 2",        // trailing junk after the id
        b"DELETE 99999999999999999999", // u32 overflow
        b"insert a",          // verbs are case-sensitive
        b"INSERTx",           // no separating space
    ] {
        let reply = client.send_raw(frame).expect("a reply");
        assert!(
            reply.starts_with(b"ERR "),
            "{:?} got {:?}",
            String::from_utf8_lossy(frame),
            String::from_utf8_lossy(&reply)
        );
    }
    // The connection and the engine both survived: a real insert works.
    let id = client.insert(b"Bonn").expect("insert after fuzz");
    assert_eq!(id, 2, "ids continue after the seed load");
    assert!(client.health().expect("health"));
    server.shutdown();
}

/// An oversized INSERT payload is refused exactly like any oversized
/// line — `ERR`, connection closed, daemon alive — and the refused
/// record is NOT inserted.
#[test]
fn oversized_insert_payloads_are_refused_without_side_effects() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin"]),
        EngineKind::Live { memtable_cap: 4 },
        ServerConfig::default(),
    );
    let mut victim = server.client();
    let mut huge = b"INSERT ".to_vec();
    huge.resize(simsearch_serve::protocol::MAX_LINE_BYTES + 64, b'A');
    let reply = victim.send_raw(&huge).expect("TooLong still gets a reply");
    assert!(reply.starts_with(b"ERR "), "got {:?}", String::from_utf8_lossy(&reply));
    assert!(victim.send_raw(b"HEALTH").is_err(), "connection must close");
    // The refused record never reached the engine: the next id is the
    // one right after the seed load.
    let mut fresh = server.client();
    assert_eq!(fresh.insert(b"Bern").expect("insert"), 1);
    server.shutdown();
}

/// Mutations on a frozen daemon: the verbs parse (the protocol is one
/// grammar for every engine) but the engine refuses, with an `ERR` that
/// names the fix. Nothing about the connection or daemon degrades.
#[test]
fn read_only_daemons_refuse_mutations_politely() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern"]),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
        ServerConfig::default(),
    );
    let mut client = server.client();
    for frame in [&b"INSERT Bonn"[..], b"DELETE 0"] {
        let reply = client.send_raw(frame).expect("a reply");
        assert!(
            reply.starts_with(b"ERR ") && reply.windows(6).any(|w| w == b"--live"),
            "{:?} got {:?}",
            String::from_utf8_lossy(frame),
            String::from_utf8_lossy(&reply)
        );
    }
    // Queries on the same connection are unaffected.
    let reply = client.query(b"Berlin", 1).expect("query");
    assert!(matches!(reply, simsearch_serve::protocol::Response::Matches(_)));
    server.shutdown();
}

/// Concurrent churn and queries: while one client INSERTs and DELETEs
/// far-away records, another client's QUERY replies stay byte-identical
/// to their pre-churn frames — the valid subset of traffic is
/// unaffected by interleaved mutations on other connections.
#[test]
fn queries_stay_byte_identical_under_concurrent_mutation() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm"]),
        EngineKind::Live { memtable_cap: 4 },
        ServerConfig::default(),
    );
    // Freeze the expected reply bytes before any churn: the churn
    // records below are 40 bytes long, unreachable within distance 2
    // of any probe, so these frames must never change.
    let probes: &[&[u8]] = &[b"QUERY 1 Bern", b"QUERY 2 Ulm", b"TOPK 2 Berlin"];
    let expected: Vec<Vec<u8>> = {
        let mut c = server.client();
        probes
            .iter()
            .map(|p| c.send_raw(p).expect("baseline reply"))
            .collect()
    };

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churner = {
        let stop = std::sync::Arc::clone(&stop);
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut c = simsearch_serve::Client::connect_retry(
                addr,
                std::time::Duration::from_secs(5),
            )
            .expect("churn client");
            let filler = [b'z'; 40];
            let mut live = std::collections::VecDeque::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                live.push_back(c.insert(&filler).expect("churn insert"));
                if live.len() > 4 {
                    let id = live.pop_front().unwrap();
                    assert!(c.delete(id).expect("churn delete"), "churn ids are live");
                }
            }
        })
    };

    let mut client = server.client();
    for round in 0..120 {
        for (probe, want) in probes.iter().zip(&expected) {
            let got = client.send_raw(probe).expect("query under churn");
            assert_eq!(
                got,
                *want,
                "round {round}: {:?} diverged under concurrent mutation",
                String::from_utf8_lossy(probe)
            );
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churner.join().expect("churn client thread");

    // The daemon did real mutation work while the queries held steady.
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"inserts\""), "stats: {stats}");
    assert!(server.metrics().inserts.get() > 0, "churn reached the engine");
    assert!(client.health().expect("health"));
    server.shutdown();
}

/// The sharded-live daemon under test: 4 hash-routed shards with a
/// tiny cap, so the fuzz traffic crosses shard boundaries and fires
/// per-shard flushes.
fn sharded_live_kind() -> EngineKind {
    EngineKind::ShardedLive {
        shards: 4,
        by: simsearch_core::ShardBy::Hash,
        threads: 1,
        memtable_cap: 4,
    }
}

/// Malformed mutation frames against a sharded-live daemon: the router
/// sits between the protocol and the shards, and a bad frame must die
/// at the parser — one `ERR` per frame, no id burned, no shard touched,
/// and only the violating connection pays.
#[test]
fn sharded_live_isolates_malformed_mutation_frames_per_connection() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm"]),
        sharded_live_kind(),
        ServerConfig::default(),
    );
    let mut victim = server.client();
    let mut bystander = server.client();
    for frame in [
        &b"INSERT"[..],       // bare verb: missing argument
        b"DELETE",            // bare verb: missing argument
        b"DELETE x",          // non-numeric id
        b"DELETE -1",         // signs are not part of the grammar
        b"DELETE 0 0",        // trailing junk after the id
        b"DELETE 99999999999999999999", // u32 overflow
        b"insert a",          // verbs are case-sensitive
        b"INSERTx",           // no separating space
    ] {
        let reply = victim.send_raw(frame).expect("a reply");
        assert!(
            reply.starts_with(b"ERR "),
            "{:?} got {:?}",
            String::from_utf8_lossy(frame),
            String::from_utf8_lossy(&reply)
        );
        // The other connection never notices: queries keep answering.
        let reply = bystander.query(b"Bern", 1).expect("bystander query");
        assert!(matches!(reply, simsearch_serve::protocol::Response::Matches(_)));
    }
    // An oversized INSERT closes only the violating connection…
    let mut huge = b"INSERT ".to_vec();
    huge.resize(simsearch_serve::protocol::MAX_LINE_BYTES + 64, b'A');
    let reply = victim.send_raw(&huge).expect("TooLong still gets a reply");
    assert!(reply.starts_with(b"ERR "), "got {:?}", String::from_utf8_lossy(&reply));
    assert!(victim.send_raw(b"HEALTH").is_err(), "violating connection closes");
    // …and none of the garbage burned a global id: the next insert gets
    // the id right after the 4-record seed load.
    assert_eq!(bystander.insert(b"Born").expect("insert"), 4);
    assert!(bystander.health().expect("health"));
    server.shutdown();
}

/// The byte-identical-queries invariant, across shards: churn INSERTs
/// hash-route onto all 4 shards (rotating first byte) while another
/// connection's QUERY/TOPK replies must not change by a single byte —
/// the k-way merged reply is insensitive to concurrent cross-shard
/// mutation and per-shard flushes.
#[test]
fn sharded_queries_stay_byte_identical_under_cross_shard_churn() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm"]),
        sharded_live_kind(),
        ServerConfig::default(),
    );
    let probes: &[&[u8]] = &[b"QUERY 1 Bern", b"QUERY 2 Ulm", b"TOPK 2 Berlin"];
    let expected: Vec<Vec<u8>> = {
        let mut c = server.client();
        probes
            .iter()
            .map(|p| c.send_raw(p).expect("baseline reply"))
            .collect()
    };

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churner = {
        let stop = std::sync::Arc::clone(&stop);
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut c = simsearch_serve::Client::connect_retry(
                addr,
                std::time::Duration::from_secs(5),
            )
            .expect("churn client");
            let mut filler = [b'z'; 40];
            let mut live = std::collections::VecDeque::new();
            let mut round = 0u8;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                // Rotate a byte so the hash router cycles shards.
                filler[0] = b'a' + (round % 26);
                round = round.wrapping_add(1);
                live.push_back(c.insert(&filler).expect("churn insert"));
                if live.len() > 8 {
                    let id = live.pop_front().unwrap();
                    assert!(c.delete(id).expect("churn delete"), "churn ids are live");
                }
            }
        })
    };

    let mut client = server.client();
    for round in 0..120 {
        for (probe, want) in probes.iter().zip(&expected) {
            let got = client.send_raw(probe).expect("query under churn");
            assert_eq!(
                got,
                *want,
                "round {round}: {:?} diverged under cross-shard churn",
                String::from_utf8_lossy(probe)
            );
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churner.join().expect("churn client thread");

    // The churn really crossed shards: STATS exposes per-shard gauges
    // and the insert counter moved.
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"s0.memtable_len\""), "stats: {stats}");
    assert!(stats.contains("\"s3.memtable_len\""), "stats: {stats}");
    assert!(server.metrics().inserts.get() > 0, "churn reached the engine");
    assert!(client.health().expect("health"));
    server.shutdown();
}

#[test]
fn join_requests_round_trip() {
    // JOIN carries any u32 threshold; encode→parse must be the
    // identity, like every verb.
    check(
        "join_requests_round_trip",
        Config::default(),
        &gen::u32_in(0..u32::MAX),
        |k: &u32| -> TestResult {
            let request = Request::Join { k: *k };
            prop_assert_eq!(parse_request(&encode_request(&request)), Ok(request));
            Ok(())
        },
    );
}

/// Drains one full `JOIN` reply stream as raw frames: the `OK join`
/// header plus every `OK pairs` chunk until the advertised total.
fn drain_join_stream(client: &mut simsearch_serve::Client, frame: &[u8]) -> Vec<Vec<u8>> {
    let header = client.send_raw(frame).expect("join header");
    let text = String::from_utf8_lossy(&header).into_owned();
    let total: u64 = text
        .strip_prefix("OK join ")
        .unwrap_or_else(|| panic!("not a join header: {text:?}"))
        .parse()
        .expect("numeric total");
    let mut frames = vec![header];
    let mut streamed = 0u64;
    while streamed < total {
        let chunk = client.recv_raw().expect("pair chunk");
        let text = String::from_utf8_lossy(&chunk).into_owned();
        let count: u64 = text
            .strip_prefix("OK pairs ")
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("not a pair chunk: {text:?}"))
            .parse()
            .expect("numeric chunk count");
        streamed += count;
        frames.push(chunk);
    }
    frames
}

/// Malformed JOIN frames over a live socket: every one gets a single
/// `ERR` line — never a dangling stream — and well-formed joins keep
/// working on the same connection afterwards.
#[test]
fn malformed_join_frames_get_err_replies() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Born", "Ulm"]),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
        ServerConfig::default(),
    );
    let mut client = server.client();
    for frame in [
        &b"JOIN"[..],          // bare verb: missing argument
        b"JOIN x",             // non-numeric threshold
        b"JOIN -1",            // signs are not part of the grammar
        b"JOIN 99999999999999999999", // u32 overflow
        b"JOIN 1 quantum",     // unknown algorithm
        b"JOIN 1 minjoin",     // retired algorithm: unknown like any other
        b"JOIN 1 PASS",        // algorithm tokens are case-sensitive
        b"JOIN 1 pass extra",  // trailing junk after the algorithm
        b"join 1",             // verbs are case-sensitive
        b"JOINx",              // no separating space
    ] {
        let reply = client.send_raw(frame).expect("a reply");
        assert!(
            reply.starts_with(b"ERR "),
            "{:?} got {:?}",
            String::from_utf8_lossy(frame),
            String::from_utf8_lossy(&reply)
        );
    }
    // The connection survived all of it: a real join streams, and both
    // spellings (defaulted and explicit algorithm) agree.
    let pairs = client.join(2).expect("join");
    assert!(!pairs.is_empty(), "Bern/Bonn/Born are within distance 2");
    let frames = drain_join_stream(&mut client, b"JOIN 2");
    assert!(frames[0].starts_with(b"OK join "), "defaulted algo streams too");
    assert!(client.health().expect("health"));
    server.shutdown();
}

/// JOIN on a `--live` daemon is refused with a single `ERR` frame that
/// names the fix — never a header the client would wait behind — and
/// the refusal stays byte-identical while churn runs on the engine.
#[test]
fn live_daemons_refuse_join_with_a_stable_error() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern"]),
        EngineKind::Live { memtable_cap: 4 },
        ServerConfig::default(),
    );
    let mut client = server.client();
    let baseline = client.send_raw(b"JOIN 1 pass").expect("a reply");
    assert!(
        baseline.starts_with(b"ERR ") && baseline.windows(6).any(|w| w == b"frozen"),
        "got {:?}",
        String::from_utf8_lossy(&baseline)
    );
    // Churn the engine between refusals: the reply must not depend on
    // engine state. Filler records are one repeated letter, 40 bytes.
    for i in 0..26u8 {
        let filler = [b'a' + i; 40];
        let id = client.insert(&filler).expect("churn insert");
        assert_eq!(
            client.send_raw(b"JOIN 1 pass").expect("a reply"),
            baseline,
            "refusal diverged after insert #{i}"
        );
        assert!(client.delete(id).expect("churn delete"));
    }
    assert!(client.health().expect("health"));
    server.shutdown();
}

/// Concurrent JOIN streams on a frozen daemon: while one client drains
/// join streams in a loop, another client's streams stay byte-identical
/// frame-for-frame — ordering inside a stream is per-connection and
/// never interleaves across connections.
#[test]
fn join_streams_stay_byte_identical_under_concurrent_joins() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Born", "Ulm", "Ulmen"]),
        EngineKind::Scan(SeqVariant::V7SortedPrefix),
        ServerConfig::default(),
    );
    let expected = drain_join_stream(&mut server.client(), b"JOIN 2 pass");
    assert!(expected.len() >= 2, "header plus at least one chunk");

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let rival = {
        let stop = std::sync::Arc::clone(&stop);
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut c = simsearch_serve::Client::connect_retry(
                addr,
                std::time::Duration::from_secs(5),
            )
            .expect("rival client");
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let pairs = c.join(2).expect("rival join");
                assert!(!pairs.is_empty());
            }
        })
    };

    let mut client = server.client();
    for round in 0..60 {
        assert_eq!(
            drain_join_stream(&mut client, b"JOIN 2 pass"),
            expected,
            "round {round}: join stream diverged under concurrent joins"
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    rival.join().expect("rival client thread");

    assert!(server.metrics().joins.get() >= 61, "every stream was counted");
    assert!(client.health().expect("health"));
    server.shutdown();
}

#[test]
fn empty_and_whitespace_frames_get_err_replies() {
    let server = Loopback::spawn(
        Dataset::from_records(["Berlin"]),
        EngineKind::Scan(SeqVariant::V4Flat),
        ServerConfig::default(),
    );
    let mut client = server.client();
    for frame in [&b""[..], b" ", b"  QUERY 1 x", b"QUERY", b"QUERY 1"] {
        let reply = client.send_raw(frame).expect("a reply");
        assert!(
            reply.starts_with(b"ERR "),
            "{:?} got {:?}",
            String::from_utf8_lossy(frame),
            String::from_utf8_lossy(&reply)
        );
    }
    assert!(client.health().expect("health"));
    server.shutdown();
}
