//! `simsearchd`: the TCP server — accept loop, connection handlers,
//! admission control, and graceful drain-on-shutdown.
//!
//! Thread architecture (everything is joined before [`run`] returns —
//! no detached threads):
//!
//! ```text
//! spawn() thread ─ run() ─ thread::scope
//!   ├── engine workers (scoped; borrow the prepared ServedEngine, pop
//!   │                   the admission queue)
//!   ├── replan tick    (scoped; optional)
//!   ├── accept loop    (the run() thread itself; non-blocking + poll)
//!   └── WorkerPool     (connection handlers; all state Arc-shared)
//! ```
//!
//! The engine borrows the dataset, so its workers are *scoped* threads;
//! connection handlers only touch `'static` shared state (streams,
//! the queue, metrics) and therefore run on the reusable
//! [`WorkerPool`] from the parallel crate.
//!
//! Shutdown ordering is the load-bearing part: a `SHUTDOWN` frame (or
//! [`ServerHandle::request_shutdown`]) sets the flag; the accept loop
//! stops; connection handlers notice the flag at their next read
//! timeout and return; the connection pool joins; only then is the
//! admission queue closed, so the engine workers drain every admitted
//! request before they exit. Every admitted request is answered.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use simsearch_core::EngineKind;
use simsearch_data::Dataset;
use simsearch_parallel::{PushError, SubmissionQueue, WorkerPool};

use crate::batch::{worker_loop, BatchConfig, Pending, Work};
use crate::engine::ServedEngine;
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
    /// one handler, so this bounds concurrent clients.
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
    /// Admission-queue and engine-worker tuning.
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
    // or a zero-sized queue or handler pool would otherwise panic on
    // the server thread.
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

/// Shared per-server state every connection handler needs; `'static`
/// so handlers can run on the [`WorkerPool`].
struct Shared {
    admission: SubmissionQueue<Pending>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    engine_name: String,
    dataset_label: String,
    records: usize,
    started: Instant,
    read_timeout: Duration,
    /// Worst-case wait for a reply after admission; generous so a
    /// handler never abandons a request the workers will still answer.
    reply_timeout: Duration,
}

fn run(
    listener: TcpListener,
    dataset: &Dataset,
    kind: EngineKind,
    config: &ServerConfig,
    metrics: &Arc<Metrics>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut engine = ServedEngine::build(dataset, kind);
    if config.replan_interval.is_none() {
        // No tick will ever swap the build-time table: the arms it does
        // not route to are the larger part of a calibrated engine.
        engine.release_unrouted();
    }
    engine.publish_replan(metrics);
    let shared = Arc::new(Shared {
        admission: SubmissionQueue::bounded(config.batch.queue_capacity),
        metrics: Arc::clone(metrics),
        shutdown: Arc::clone(shutdown),
        engine_name: engine.name().to_string(),
        dataset_label: config.dataset_label.clone(),
        records: engine.records(),
        started: Instant::now(),
        read_timeout: config.read_timeout,
        reply_timeout: config.batch.deadline.saturating_mul(2) + Duration::from_secs(30),
    });
    listener
        .set_nonblocking(true)
        .expect("nonblocking accept is required for shutdown polling");

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.batch.threads.max(1))
            .map(|_| scope.spawn(|| worker_loop(&shared.admission, &engine, &config.batch, metrics)))
            .collect();
        // The self-tuning tick: scoped like the workers (it borrows the
        // engine), polling the shutdown flag between short sleeps so a
        // long interval never delays the drain.
        let replanner = config
            .replan_interval
            .map(|interval| {
                let engine = &engine;
                scope.spawn(move || replan_loop(engine, interval, metrics, shutdown))
            });

        let mut conn_pool = WorkerPool::new(config.conn_threads, config.conn_threads * 4);
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    metrics.connections.inc();
                    let shared = Arc::clone(&shared);
                    let admitted = conn_pool.submit(move || handle_connection(stream, &shared));
                    if admitted.is_err() {
                        // Handler pool saturated: the stream drops with
                        // the rejected closure, which the client sees as
                        // EOF — a refusal, never a hang. Count it.
                        metrics.rejected_busy.inc();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }

        // Drain in dependency order; see the module docs.
        conn_pool.shutdown();
        shared.admission.close();
        for worker in workers {
            worker.join().expect("engine worker panicked");
        }
        if let Some(replanner) = replanner {
            replanner.join().expect("replan tick panicked");
        }
    });
}

/// The background self-tuning loop: every `interval`, re-derive the
/// decision tables from the live observation grids and swap them in
/// ([`ServedEngine::replan`]), then mirror `plan_epoch` and the pooled
/// per-arm latencies into the metrics registry. Sleeps in short slices
/// so shutdown is never blocked behind a long interval.
fn replan_loop(
    engine: &ServedEngine<'_>,
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
        let swapped = engine.replan();
        if swapped > 0 {
            metrics.replans.add(swapped);
        }
        engine.publish_replan(metrics);
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

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        match read_frame(&mut reader, &mut line, &shared.shutdown) {
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
                drain_line(&mut reader, &shared.shutdown);
                return; // framing lost: close
            }
        }
        let written = match parse_request(&line) {
            Err(e) => {
                shared.metrics.replied_error.inc();
                write_frame(&mut writer, &Response::Error(e.to_string()))
            }
            Ok(Request::Health) => write_frame(&mut writer, &Response::Healthy),
            Ok(Request::Stats) => write_frame(
                &mut writer,
                &Response::Stats(shared.metrics.stats_json(
                    &shared.engine_name,
                    &shared.dataset_label,
                    shared.records,
                    shared.started,
                )),
            ),
            Ok(Request::Shutdown) => {
                let _ = write_frame(&mut writer, &Response::Bye);
                shared.shutdown.store(true, Ordering::Release);
                return;
            }
            // Queries, mutations and joins ride the same admission
            // queue: they are ordered with each other, inherit admission
            // control (BUSY) and deadlines (TIMEOUT), and a read-only
            // engine answers a mutation with ERR from the worker.
            Ok(Request::Query { k, text }) => serve(shared, Work::Query { k }, text, &mut writer),
            Ok(Request::TopK { count, text }) => {
                serve(shared, Work::TopK { count }, text, &mut writer)
            }
            Ok(Request::Insert { text }) => serve(shared, Work::Insert, text, &mut writer),
            Ok(Request::Delete { id }) => {
                serve(shared, Work::Delete { id }, Vec::new(), &mut writer)
            }
            Ok(Request::Join { k }) => {
                serve(shared, Work::Join { k }, Vec::new(), &mut writer)
            }
        };
        if written.is_err() {
            return; // client hung up
        }
    }
}

/// Admission control: non-blocking push (full queue ⇒ immediate `BUSY`).
/// `Ok` is the private channel the worker replies on; `Err` is the
/// refusal to send instead.
fn admit(shared: &Shared, work: Work, text: Vec<u8>) -> Result<mpsc::Receiver<Response>, Response> {
    let (reply, receiver) = mpsc::channel();
    let pending = Pending {
        work,
        text,
        admitted: Instant::now(),
        reply,
    };
    match shared.admission.push(pending) {
        Ok(()) => {
            shared.metrics.requests_admitted.inc();
            Ok(receiver)
        }
        Err(PushError::Full(_)) => {
            shared.metrics.rejected_busy.inc();
            Err(Response::Busy)
        }
        Err(PushError::Closed(_)) => Err(Response::Error("server shutting down".into())),
    }
}

/// Admits one request and forwards the worker's reply frames to the
/// socket as they land, until a terminal one: a `JOIN` streams
/// `OK join <total>` then `OK pairs` chunks and ends at the header of
/// an empty join or at the chunk that completes `total`; every other
/// frame (`OK` matches, `BUSY`, `TIMEOUT`, `ERR`) is a stream of one.
fn serve(shared: &Shared, work: Work, text: Vec<u8>, writer: &mut BufWriter<TcpStream>) -> std::io::Result<()> {
    let receiver = match admit(shared, work, text) {
        Ok(receiver) => receiver,
        Err(refusal) => return write_frame(writer, &refusal),
    };
    let mut expected: Option<u64> = None;
    let mut streamed = 0u64;
    loop {
        let frame = receiver
            .recv_timeout(shared.reply_timeout)
            .unwrap_or_else(|_| Response::Error("reply channel broken".into()));
        let done = match &frame {
            Response::JoinHeader { total } => {
                expected = Some(*total);
                *total == 0
            }
            Response::JoinPairs(pairs) => {
                streamed += pairs.len() as u64;
                expected.is_some_and(|total| streamed >= total)
            }
            _ => true,
        };
        write_frame(writer, &frame)?;
        if done {
            return Ok(());
        }
    }
}
