//! The micro-batch scheduler: coalesces concurrent in-flight requests
//! and fans each batch out over the shared engine workers.
//!
//! The pipeline is three stages, each a bounded [`SubmissionQueue`]:
//!
//! ```text
//! conn handlers ──push──▶ admission ──▶ scheduler ──push_wait──▶ exec ──▶ workers
//!                 (BUSY on full)        (coalesce)   (blocks =         (per-chunk
//!                                                    backpressure)      execution)
//! ```
//!
//! The scheduler takes one request, then keeps pulling until either the
//! batch reaches [`BatchConfig::batch_size`] or [`BatchConfig::max_delay`]
//! has passed since the batch opened — so a lone request never waits
//! longer than `max_delay`, and a burst amortizes scheduling across a
//! full batch. Each batch is split into contiguous per-worker chunks via
//! [`chunk_ranges`], the same partitioner the offline executors use.
//!
//! Backpressure is intentional and explicit: the scheduler's push into
//! the exec queue *blocks* when every worker is busy, which stops it
//! draining the admission queue, which fills, which makes connection
//! handlers answer `BUSY` instead of queueing unboundedly. Nothing in
//! the chain waits forever on a full queue except the scheduler, and the
//! scheduler's wait is bounded by the workers finishing their chunks.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use simsearch_core::MutableBackend;
use simsearch_parallel::{chunk_ranges, SubmissionQueue};

use crate::engine::ServedEngine;
use crate::metrics::Metrics;
use crate::protocol::{matches_response, JoinAlgo, Response, JOIN_CHUNK_PAIRS};

/// Tuning for the scheduler and the engine workers.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Engine worker threads executing batch chunks.
    pub threads: usize,
    /// Flush a batch once it holds this many requests.
    pub batch_size: usize,
    /// Flush a partial batch once the oldest request has waited this
    /// long in the scheduler.
    pub max_delay: Duration,
    /// Admission queue capacity; a full queue answers `BUSY`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from admission. A request still
    /// unexecuted past its deadline is dropped with `TIMEOUT` instead of
    /// occupying a worker.
    pub deadline: Duration,
    /// Radius cap for `TOPK`'s iterative deepening.
    pub topk_max_radius: u32,
    /// Fault-injection: extra busy-wait per executed request. Zero in
    /// production; tests use it to hold workers busy deterministically
    /// so admission control (`BUSY`, `TIMEOUT`) can be exercised.
    pub exec_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            batch_size: 64,
            max_delay: Duration::from_millis(1),
            queue_capacity: 1024,
            deadline: Duration::from_secs(10),
            topk_max_radius: 64,
            exec_delay: Duration::ZERO,
        }
    }
}

/// What an admitted request asks the engine to do.
pub(crate) enum Work {
    /// All records within distance `k`.
    Query {
        /// Distance threshold.
        k: u32,
    },
    /// The `count` nearest records.
    TopK {
        /// How many records.
        count: u32,
    },
    /// Append the request text as a record (live engines only; the
    /// pending's `text` carries the record bytes).
    Insert,
    /// Tombstone record `id` (live engines only).
    Delete {
        /// The global record id.
        id: u32,
    },
    /// Self-join the whole dataset within distance `k`, streaming the
    /// result pairs (frozen engines only).
    Join {
        /// Join distance threshold.
        k: u32,
        /// Which partition algorithm serves the join.
        algo: JoinAlgo,
    },
}

/// One admitted request waiting for execution.
pub(crate) struct Pending {
    pub work: Work,
    pub text: Vec<u8>,
    /// When the request entered the admission queue; deadlines and the
    /// latency histogram both measure from here.
    pub admitted: Instant,
    /// Where the worker delivers the reply. The receiving connection
    /// handler may have vanished (client hung up); delivery failure is
    /// silently fine.
    pub reply: mpsc::Sender<Response>,
}

/// A contiguous slice of one batch, executed by one worker.
pub(crate) struct Chunk {
    pub items: Vec<Pending>,
}

/// The scheduler loop: runs until the admission queue is closed *and*
/// drained, so a graceful shutdown answers everything already admitted.
pub(crate) fn scheduler_loop(
    admission: &SubmissionQueue<Pending>,
    exec: &SubmissionQueue<Chunk>,
    cfg: &BatchConfig,
    metrics: &Metrics,
) {
    while let Some(first) = admission.pop() {
        let flush_at = Instant::now() + cfg.max_delay;
        let mut batch = vec![first];
        while batch.len() < cfg.batch_size {
            match admission.pop_deadline(flush_at) {
                Some(pending) => batch.push(pending),
                None => break, // max_delay elapsed (or queue closed+dry)
            }
        }
        metrics.queue_depth.set(admission.len());
        metrics.batches.inc();
        metrics.batch_size.observe(batch.len() as u64);

        let workers = cfg.threads.max(1);
        let mut items = batch.into_iter();
        for range in chunk_ranges(items.len(), workers) {
            let chunk = Chunk {
                items: items.by_ref().take(range.len()).collect(),
            };
            // Blocking push: this is where backpressure originates.
            if let Err(refused) = exec.push_wait(chunk) {
                // Exec queue closed under us — only possible if shutdown
                // ordering is violated; answer rather than drop silently.
                for p in refused.into_inner().items {
                    let _ = p.reply.send(Response::Error("server shutting down".into()));
                }
            }
        }
    }
}

/// One engine worker: executes chunks until the exec queue is closed
/// and drained.
pub(crate) fn worker_loop(
    exec: &SubmissionQueue<Chunk>,
    engine: &ServedEngine<'_>,
    cfg: &BatchConfig,
    metrics: &Metrics,
) {
    // The mutation surface, resolved once per worker: `INSERT` and
    // `DELETE` stay one virtual call each.
    let writer = engine.writer();
    while let Some(chunk) = exec.pop() {
        for pending in chunk.items {
            let response = execute_one(&pending, engine, writer, cfg, metrics);
            metrics
                .latency_ns
                .observe(pending.admitted.elapsed().as_nanos() as u64);
            let _ = pending.reply.send(response);
        }
        // Live engines: compaction rides the worker threads — one step
        // between chunks keeps the memtable bounded without a dedicated
        // compaction thread, and the gate inside the engine serialises
        // concurrent workers.
        if let Some(writer) = writer {
            writer.maybe_compact();
        }
        // Refresh the routing counters (with per-shard breakdowns) and
        // the live engines' structural gauges after each chunk so
        // `STATS` stays near-live.
        engine.publish(metrics);
    }
}

fn execute_one(
    pending: &Pending,
    engine: &ServedEngine<'_>,
    writer: Option<&dyn MutableBackend>,
    cfg: &BatchConfig,
    metrics: &Metrics,
) -> Response {
    let (text, reply) = (&pending.text[..], &pending.reply);
    if pending.admitted.elapsed() > cfg.deadline {
        metrics.dropped_timeout.inc();
        return Response::Timeout;
    }
    if !cfg.exec_delay.is_zero() {
        std::thread::sleep(cfg.exec_delay);
    }
    let read_only = || {
        Response::Error("engine is read-only (start simsearchd with --live)".into())
    };
    let (response, cells) = match pending.work {
        Work::Query { k } => {
            let (matches, cells) = engine.search(text, k);
            (matches_response(&matches), cells)
        }
        Work::TopK { count } => {
            let (matches, cells) = engine.topk(text, count as usize, cfg.topk_max_radius);
            (Response::Matches(matches), cells)
        }
        Work::Insert => match writer {
            Some(w) => (Response::Inserted(w.insert(text)), 0),
            None => (read_only(), 0),
        },
        Work::Delete { id } => match writer {
            Some(w) => (Response::Deleted { existed: w.delete(id) }, 0),
            None => (read_only(), 0),
        },
        Work::Join { k, algo } => match engine.join(k, algo) {
            Some((pairs, stats)) => {
                metrics.joins.inc();
                metrics.join_pairs_emitted.add(stats.pairs_emitted);
                metrics
                    .join_candidates_verified
                    .add(stats.candidates_verified);
                metrics.join_seg_buckets.set(stats.seg_buckets as usize);
                metrics.join_seg_postings.set(stats.seg_postings as usize);
                // Stream the reply: header plus all-but-the-last chunk
                // go straight out through the pending's channel (it is
                // unbounded, so this never blocks a worker); the final
                // frame returns through the normal path so latency and
                // ok/error accounting see exactly one response per
                // request.
                if pairs.is_empty() {
                    (Response::JoinHeader { total: 0 }, 0)
                } else {
                    let _ = reply.send(Response::JoinHeader {
                        total: pairs.len() as u64,
                    });
                    let mut chunks = pairs.chunks(JOIN_CHUNK_PAIRS).peekable();
                    let mut last = Vec::new();
                    while let Some(chunk) = chunks.next() {
                        if chunks.peek().is_some() {
                            let _ = reply.send(Response::JoinPairs(chunk.to_vec()));
                        } else {
                            last = chunk.to_vec();
                        }
                    }
                    (Response::JoinPairs(last), 0)
                }
            }
            None => (
                Response::Error(
                    "JOIN requires a frozen dataset (not servable on a --live engine)".into(),
                ),
                0,
            ),
        },
    };
    metrics.dp_cells.add(cells);
    match &response {
        Response::Error(_) => metrics.replied_error.inc(),
        _ => metrics.replied_ok.inc(),
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_core::EngineKind;
    use simsearch_data::Dataset;
    use simsearch_scan::SeqVariant;

    fn harness(cfg: &BatchConfig, requests: Vec<Pending>) {
        let ds = Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm"]);
        let engine = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let metrics = Metrics::new();
        let admission: SubmissionQueue<Pending> =
            SubmissionQueue::bounded(cfg.queue_capacity.max(requests.len()));
        let exec: SubmissionQueue<Chunk> = SubmissionQueue::bounded(cfg.threads.max(1) * 2);
        for p in requests {
            admission.push(p).map_err(|_| "admission full").unwrap();
        }
        admission.close();
        std::thread::scope(|s| {
            let sched = s.spawn(|| scheduler_loop(&admission, &exec, cfg, &metrics));
            let worker = s.spawn(|| worker_loop(&exec, &engine, cfg, &metrics));
            sched.join().unwrap();
            exec.close();
            worker.join().unwrap();
        });
    }

    fn pending(text: &str, k: u32) -> (Pending, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                work: Work::Query { k },
                text: text.as_bytes().to_vec(),
                admitted: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn drained_scheduler_answers_every_admitted_request() {
        let cfg = BatchConfig {
            threads: 2,
            batch_size: 3,
            ..BatchConfig::default()
        };
        let mut rxs = Vec::new();
        let mut reqs = Vec::new();
        for i in 0..10 {
            let (p, rx) = pending(if i % 2 == 0 { "Berlin" } else { "Ulm" }, 1);
            reqs.push(p);
            rxs.push(rx);
        }
        harness(&cfg, reqs);
        for rx in rxs {
            let resp = rx.recv_timeout(Duration::from_secs(5)).expect("a reply");
            assert!(matches!(resp, Response::Matches(_)), "{resp:?}");
        }
    }

    #[test]
    fn expired_requests_get_timeout_not_execution() {
        let cfg = BatchConfig {
            threads: 1,
            deadline: Duration::from_millis(1),
            ..BatchConfig::default()
        };
        let (mut p, rx) = pending("Berlin", 1);
        // Backdate the admission so the deadline has already passed.
        p.admitted = Instant::now() - Duration::from_millis(50);
        harness(&cfg, vec![p]);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Response::Timeout
        );
    }

    #[test]
    fn join_work_streams_header_then_chunks() {
        let cfg = BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        // k=2 catches Berlin~Bern and Bern~Bonn in the harness corpus.
        let p = Pending {
            work: Work::Join {
                k: 2,
                algo: JoinAlgo::Pass,
            },
            text: Vec::new(),
            admitted: Instant::now(),
            reply: tx,
        };
        harness(&cfg, vec![p]);
        let total = match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::JoinHeader { total } => total,
            other => panic!("expected join header, got {other:?}"),
        };
        assert!(total >= 2, "total={total}");
        let mut streamed = 0u64;
        while streamed < total {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Response::JoinPairs(chunk) => streamed += chunk.len() as u64,
                other => panic!("expected pairs, got {other:?}"),
            }
        }
        assert_eq!(streamed, total);

        // An empty result is the header alone.
        let (tx, rx) = mpsc::channel();
        let p = Pending {
            work: Work::Join {
                k: 0,
                algo: JoinAlgo::MinJoin,
            },
            text: Vec::new(),
            admitted: Instant::now(),
            reply: tx,
        };
        harness(&cfg, vec![p]);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Response::JoinHeader { total: 0 }
        );
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn batches_coalesce_up_to_batch_size() {
        let cfg = BatchConfig {
            threads: 1,
            batch_size: 4,
            max_delay: Duration::from_millis(20),
            ..BatchConfig::default()
        };
        let ds = Dataset::from_records(["Berlin", "Bern"]);
        let engine = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let metrics = Metrics::new();
        let admission: SubmissionQueue<Pending> = SubmissionQueue::bounded(64);
        let exec: SubmissionQueue<Chunk> = SubmissionQueue::bounded(2);
        let mut rxs = Vec::new();
        for _ in 0..8 {
            let (p, rx) = pending("Bern", 0);
            admission.push(p).map_err(|_| "full").unwrap();
            rxs.push(rx);
        }
        admission.close();
        std::thread::scope(|s| {
            let sched = s.spawn(|| scheduler_loop(&admission, &exec, &cfg, &metrics));
            let worker = s.spawn(|| worker_loop(&exec, &engine, &cfg, &metrics));
            sched.join().unwrap();
            exec.close();
            worker.join().unwrap();
        });
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
        }
        // 8 pre-queued requests, batch_size 4: exactly two full batches.
        assert_eq!(metrics.batches.get(), 2);
        assert_eq!(metrics.batch_size.max(), 4);
        assert_eq!(metrics.batch_size.count(), 2);
        assert_eq!(metrics.replied_ok.get(), 8);
    }
}
