//! `simsearchd`: the TCP server — accept loop, connection handlers,
//! admission control, and graceful drain-on-shutdown.
//!
//! Thread architecture (everything is joined before `run` returns —
//! no detached threads):
//!
//! ```text
//! spawn() thread ─ run() ─ thread::scope
//!   ├── accept loop    (the run() thread itself; non-blocking + poll)
//!   ├── replan tick    (scoped; optional)
//!   └── conn handlers  (scoped; one per live connection, at most
//!                       `conn_threads`; each executes its own requests)
//! ```
//!
//! The engine borrows the dataset, so everything that touches it is a
//! *scoped* thread. A handler reads a frame, takes one of the
//! `batch.threads` execution permits, runs the request on the engine
//! itself, gives the permit back and only then writes the reply (see
//! [`crate::batch`]) — an idle daemon is the accept loop and the tick.
//!
//! Shutdown: a `SHUTDOWN` frame (or [`ServerHandle::request_shutdown`])
//! sets the flag; the accept loop stops; each handler finishes the
//! request it is executing, writes its reply, and returns at its next
//! read timeout; the scope joins them. Every admitted request is
//! answered.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simsearch_core::{Backend, EngineKind, Probe, SearchEngine};
use simsearch_data::Dataset;

use crate::batch::{run_request, BatchConfig, Permits, Work};
use crate::metrics::Metrics;
use crate::protocol::{encode_response, parse_request, ProtocolError, Request, Response, MAX_LINE_BYTES};

/// Server tuning beyond the batch pipeline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on loopback; 0 asks the OS for an ephemeral port —
    /// read the real one from [`ServerHandle::port`].
    pub port: u16,
    /// Label for the dataset in `STATS` output.
    pub dataset_label: String,
    /// Connection-handler threads. Each persistent connection occupies
    /// one handler, so this bounds concurrent clients: a connection over
    /// the cap is closed at once.
    pub conn_threads: usize,
    /// Socket read timeout; doubles as the shutdown-poll interval for
    /// idle connections.
    pub read_timeout: Duration,
    /// Self-tuning cadence: every interval a background tick re-derives
    /// the per-(arm, class) cost multipliers from the live latency
    /// grids and swaps a fresh decision table into the engine (see
    /// DESIGN §16). `None` disables the tick; engines without a
    /// tunable planner ignore it.
    pub replan_interval: Option<Duration>,
    /// Admission and execution tuning.
    pub batch: BatchConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            port: 0,
            dataset_label: "unnamed".into(),
            conn_threads: 16,
            read_timeout: Duration::from_millis(50),
            replan_interval: None,
            batch: BatchConfig::default(),
        }
    }
}

/// A running server. Dropping the handle requests shutdown and joins.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The live metrics registry (shared with the server).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Asks the server to drain and exit, without waiting. Equivalent to
    /// a client sending `SHUTDOWN`.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the server has fully drained and every thread has
    /// been joined.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread panicked");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join_inner();
    }
}

/// Binds a loopback listener and runs the server on a background
/// thread. The dataset is moved in; the engine is built and prepared
/// once before the first connection is accepted.
pub fn spawn(dataset: Dataset, kind: EngineKind, config: ServerConfig) -> std::io::Result<ServerHandle> {
    // Fail before the thread spawns (and before the listener binds):
    // an invalid kind — e.g. sharded-live with the `len` partitioner —
    // would panic on the server thread, and a daemon that lets nobody
    // wait or nobody connect is a misconfiguration its first client
    // should not be the one to discover.
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    kind.validate().map_err(invalid)?;
    if config.batch.queue_capacity == 0 {
        return Err(invalid("queue_capacity must be at least 1".into()));
    }
    if config.conn_threads == 0 {
        return Err(invalid("conn_threads must be at least 1".into()));
    }
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(Metrics::new());
    let thread = {
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("simsearchd".into())
            .spawn(move || run(listener, &dataset, kind, &config, &metrics, &shutdown))?
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        metrics,
        thread: Some(thread),
    })
}

/// Per-server state every connection handler borrows.
struct Shared<'a> {
    /// The one engine: every verb and every tick goes through its
    /// backend and the backend's capability hooks.
    engine: &'a SearchEngine<'a>,
    /// The seed dataset the engine was built from — `JOIN` runs over it.
    dataset: &'a Dataset,
    /// The `batch.threads` execution permits.
    permits: Permits,
    config: &'a ServerConfig,
    metrics: &'a Metrics,
    shutdown: &'a AtomicBool,
    started: Instant,
}

fn run(
    listener: TcpListener,
    dataset: &Dataset,
    kind: EngineKind,
    config: &ServerConfig,
    metrics: &Metrics,
    shutdown: &AtomicBool,
) {
    // Built (and prepared) once: planner-driven kinds calibrate with a
    // micro-probe drawn from the dataset (each shard from its own
    // records), so build cost lands here and not in the first request.
    // `spawn` validated the kind.
    let mut engine = SearchEngine::build_with(dataset, kind, Probe::Default);
    if config.replan_interval.is_none() {
        // No tick will ever swap the build-time table: the arms it does
        // not route to are the larger part of a calibrated engine.
        engine.backend_mut().release_unrouted();
    }
    metrics.publish_replan(engine.backend());
    let shared = &Shared {
        engine: &engine,
        dataset,
        permits: Permits::new(config.batch.threads.max(1), config.batch.queue_capacity),
        config,
        metrics,
        shutdown,
        started: Instant::now(),
    };
    // One slot per live connection; a handler gives its slot back when
    // it returns, or unwinds.
    let conn_slots = Permits::new(config.conn_threads, 0);
    listener
        .set_nonblocking(true)
        .expect("nonblocking accept is required for shutdown polling");

    std::thread::scope(|scope| {
        // The self-tuning tick polls the shutdown flag between short
        // sleeps, so a long interval never delays the drain.
        if let Some(interval) = config.replan_interval {
            scope.spawn(move || replan_loop(shared.engine.backend(), interval, metrics, shutdown));
        }
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    metrics.connections.inc();
                    match conn_slots.try_acquire() {
                        Some(slot) => {
                            scope.spawn(move || {
                                let _slot = slot;
                                handle_connection(stream, shared)
                            });
                        }
                        // Every handler is taken: the stream drops here,
                        // which the client sees as EOF — a refusal, never
                        // a hang. Count it.
                        None => metrics.rejected_busy.inc(),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        // The scope joins the handlers and the tick; see the module docs.
    });
}

/// The background self-tuning loop: every `interval`, re-derive the
/// decision tables from the live observation grids and swap them in
/// ([`Backend::replan`]; engines without a tunable planner swap
/// nothing), then mirror `plan_epoch` and the pooled per-arm latencies
/// into the metrics registry. Sleeps in short slices so shutdown is
/// never blocked behind a long interval.
fn replan_loop(
    backend: &dyn Backend,
    interval: Duration,
    metrics: &Metrics,
    shutdown: &AtomicBool,
) {
    let slice = Duration::from_millis(10).min(interval);
    let mut next = Instant::now() + interval;
    while !shutdown.load(Ordering::Acquire) {
        if Instant::now() < next {
            std::thread::sleep(slice);
            continue;
        }
        next = Instant::now() + interval;
        let swapped = backend.replan();
        if swapped > 0 {
            metrics.replans.add(swapped);
        }
        metrics.publish_replan(backend);
    }
}

/// One frame read from a connection.
enum FrameRead {
    /// A complete line (terminator stripped) is in the buffer.
    Frame,
    /// Clean end of stream with no partial line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; framing is lost.
    TooLong,
    /// Shutdown was requested or the socket errored; stop serving.
    Closed,
}

/// `fill_buf` that rides out read timeouts (they are the shutdown-poll
/// mechanism): the buffered bytes — empty at EOF — or `None` once
/// shutdown was requested or the socket errored.
fn fill_buf_polling<'a>(reader: &'a mut BufReader<TcpStream>, shutdown: &AtomicBool) -> Option<&'a [u8]> {
    loop {
        match reader.fill_buf() {
            Ok(_) => return Some(reader.buffer()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Accumulates one LF-terminated line into `line`, bounding memory at
/// [`MAX_LINE_BYTES`] even for hostile streams.
fn read_frame(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>, shutdown: &AtomicBool) -> FrameRead {
    loop {
        let Some(buf) = fill_buf_polling(reader, shutdown) else {
            return FrameRead::Closed;
        };
        if buf.is_empty() {
            // EOF; a partial unterminated line is still a frame.
            return if line.is_empty() { FrameRead::Eof } else { FrameRead::Frame };
        }
        if let Some(at) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..at]);
            reader.consume(at + 1);
            if line.last() == Some(&b'\r') {
                line.pop(); // tolerate CRLF clients
            }
            return if line.len() > MAX_LINE_BYTES {
                FrameRead::TooLong
            } else {
                FrameRead::Frame
            };
        }
        let taken = buf.len();
        line.extend_from_slice(buf);
        reader.consume(taken);
        if line.len() > MAX_LINE_BYTES {
            return FrameRead::TooLong;
        }
    }
}

/// Discards input up to and including the next LF (or EOF / a 4 MiB
/// cap, whichever first) without storing it.
fn drain_line(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) {
    let mut discarded = 0usize;
    while let Some(buf) = fill_buf_polling(reader, shutdown) {
        if buf.is_empty() {
            return; // EOF
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |at| at + 1);
        reader.consume(take);
        discarded += take;
        if newline.is_some() || discarded > 64 * MAX_LINE_BYTES {
            return;
        }
    }
}

fn write_frame(writer: &mut BufWriter<TcpStream>, response: &Response) -> std::io::Result<()> {
    writer.write_all(&encode_response(response))?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection(stream: TcpStream, shared: &Shared<'_>) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        match read_frame(&mut reader, &mut line, shared.shutdown) {
            FrameRead::Frame => {}
            FrameRead::Eof | FrameRead::Closed => return,
            FrameRead::TooLong => {
                shared.metrics.replied_error.inc();
                let _ = write_frame(
                    &mut writer,
                    &Response::Error(ProtocolError::TooLong.to_string()),
                );
                // Consume the rest of the oversized line before closing:
                // a close with unread bytes resets the socket, which can
                // destroy the ERR reply still in flight to the client.
                drain_line(&mut reader, shared.shutdown);
                return; // framing lost: close
            }
        }
        let written = match parse_request(&line) {
            Err(e) => {
                shared.metrics.replied_error.inc();
                write_frame(&mut writer, &Response::Error(e.to_string()))
            }
            Ok(Request::Health) => write_frame(&mut writer, &Response::Healthy),
            Ok(Request::Stats) => {
                // A live engine counts what INSERT and DELETE left; a
                // frozen one, its seed.
                let records = shared
                    .engine
                    .backend()
                    .as_mutable()
                    .map_or(shared.dataset.len(), |w| w.live_stats().live_records);
                write_frame(
                    &mut writer,
                    &Response::Stats(shared.metrics.stats_json(
                        &shared.engine.name(),
                        &shared.config.dataset_label,
                        records,
                        shared.started,
                    )),
                )
            }
            Ok(Request::Shutdown) => {
                let _ = write_frame(&mut writer, &Response::Bye);
                shared.shutdown.store(true, Ordering::Release);
                return;
            }
            // Queries, mutations and joins share the execution permits:
            // all inherit admission control (BUSY) and deadlines
            // (TIMEOUT), and a read-only engine answers a mutation with
            // ERR from under its permit.
            Ok(Request::Query { k, text }) => serve(shared, Work::Query { k }, &text, &mut writer),
            Ok(Request::TopK { count, text }) => {
                serve(shared, Work::TopK { count }, &text, &mut writer)
            }
            Ok(Request::Insert { text }) => serve(shared, Work::Insert, &text, &mut writer),
            Ok(Request::Delete { id }) => serve(shared, Work::Delete { id }, &[], &mut writer),
            Ok(Request::Join { k }) => serve(shared, Work::Join { k }, &[], &mut writer),
        };
        if written.is_err() {
            return; // client hung up
        }
    }
}

/// Admits and executes one request on this handler's thread, then —
/// holding no permit — writes the reply: `BUSY` or `TIMEOUT` if
/// admission refused it, else its frames in order (a `JOIN` is
/// `OK join <total>` then `OK pairs` chunks; every other reply is one
/// frame).
fn serve(
    shared: &Shared<'_>,
    work: Work,
    text: &[u8],
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    let Shared {
        engine,
        dataset,
        permits,
        config,
        metrics,
        ..
    } = shared;
    let backend = engine.backend();
    let frames = match run_request(
        &work,
        text,
        permits,
        backend,
        dataset,
        &config.batch,
        metrics,
    ) {
        Ok(frames) => frames,
        Err(refusal) => return write_frame(writer, &refusal),
    };
    let written = frames
        .iter()
        .try_for_each(|frame| write_frame(writer, frame));
    // Live engines: compaction rides the handlers — one step after each
    // reply, under a permit of its own so engine CPU stays bounded by
    // `threads`, keeps the memtable bounded without a dedicated
    // compaction thread; the gate inside the engine serialises
    // concurrent steps.
    if let Some(live) = backend.as_mutable() {
        let _permit = permits.acquire();
        live.maybe_compact();
    }
    // Refresh the routing counters (with per-shard breakdowns) and the
    // live engines' structural gauges after each request so `STATS`
    // stays near-live.
    metrics.publish(backend);
    written
}
