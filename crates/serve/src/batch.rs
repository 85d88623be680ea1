//! The engine workers: each pops the admission queue directly and
//! executes one request at a time.
//!
//! The pipeline is two stages around one bounded [`SubmissionQueue`]:
//!
//! ```text
//! conn handlers ──push──▶ admission ──pop──▶ engine workers
//!                 (BUSY on full)             (execute, reply, compact, publish)
//! ```
//!
//! The queue is the whole schedule: whichever worker is free takes the
//! oldest request, so a slow request occupies one worker and nothing
//! queues behind it while another worker idles. No timer, sleep or
//! second queue sits between admission and execution.
//!
//! Backpressure is the queue's bound: while every worker is busy the
//! queue fills, and connection handlers answer `BUSY` instead of
//! queueing unboundedly. Nothing in the chain blocks on a full queue.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use simsearch_core::MutableBackend;
use simsearch_parallel::SubmissionQueue;

use crate::engine::ServedEngine;
use crate::metrics::Metrics;
use crate::protocol::{matches_response, Response, JOIN_CHUNK_PAIRS};

/// Tuning for admission and the engine workers.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Engine worker threads popping the admission queue.
    pub threads: usize,
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

/// One engine worker: pops and executes admitted requests until the
/// admission queue is closed *and* drained, so a graceful shutdown
/// answers everything already admitted.
pub(crate) fn worker_loop(
    admission: &SubmissionQueue<Pending>,
    engine: &ServedEngine<'_>,
    cfg: &BatchConfig,
    metrics: &Metrics,
) {
    // The mutation surface, resolved once per worker: `INSERT` and
    // `DELETE` stay one virtual call each.
    let writer = engine.writer();
    loop {
        // Sampled at every dequeue, the terminal one included, so a
        // drained daemon reports depth 0.
        let next = admission.pop();
        metrics.queue_depth.set(admission.len());
        let Some(pending) = next else { break };
        metrics.batches.inc();
        let response = execute_one(&pending, engine, writer, cfg, metrics);
        metrics
            .latency_ns
            .observe(pending.admitted.elapsed().as_nanos() as u64);
        let _ = pending.reply.send(response);
        // Live engines: compaction rides the worker threads — one step
        // between requests keeps the memtable bounded without a
        // dedicated compaction thread, and the gate inside the engine
        // serialises concurrent workers.
        if let Some(writer) = writer {
            writer.maybe_compact();
        }
        // Refresh the routing counters (with per-shard breakdowns) and
        // the live engines' structural gauges after each request so
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
        Work::Join { k } => match engine.join(k) {
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

    /// Pre-queues `requests`, closes admission and drains it through
    /// `cfg.threads` workers; returns once every worker has exited.
    fn harness(cfg: &BatchConfig, requests: Vec<Pending>) -> Metrics {
        let ds = Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm"]);
        let engine = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let metrics = Metrics::new();
        let admission: SubmissionQueue<Pending> =
            SubmissionQueue::bounded(cfg.queue_capacity.max(requests.len()));
        for p in requests {
            admission.push(p).map_err(|_| "admission full").unwrap();
        }
        admission.close();
        std::thread::scope(|s| {
            for _ in 0..cfg.threads {
                s.spawn(|| worker_loop(&admission, &engine, cfg, &metrics));
            }
        });
        metrics
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
    fn drained_workers_answer_every_admitted_request() {
        let cfg = BatchConfig {
            threads: 2,
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
            work: Work::Join { k: 2 },
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
            work: Work::Join { k: 0 },
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
    fn every_dequeue_is_counted_once_and_the_drained_queue_reads_empty() {
        const N: u64 = 8;
        let cfg = BatchConfig {
            threads: 3,
            ..BatchConfig::default()
        };
        let (reqs, rxs): (Vec<_>, Vec<_>) = (0..N).map(|_| pending("Bern", 0)).unzip();
        let metrics = harness(&cfg, reqs);
        for rx in rxs {
            assert!(rx.try_recv().is_ok(), "replied before its worker exited");
        }
        assert_eq!(metrics.batches.get(), N);
        assert_eq!(metrics.latency_ns.count(), N);
        assert_eq!(metrics.replied_ok.get(), N);
        assert_eq!(metrics.queue_depth.get(), 0);
    }
}
