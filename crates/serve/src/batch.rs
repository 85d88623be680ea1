//! Admission and execution: the connection handler that parsed a
//! request executes it itself, under one of `threads` permits.
//!
//! ```text
//! conn handler ──admit──▶ execute_one ──drop permit──▶ write the reply
//!            (BUSY / TIMEOUT)
//! ```
//!
//! `Permits` is the whole schedule: a counting semaphore that bounds
//! engine CPU at `threads` concurrent requests. No thread, queue, timer
//! or channel sits between the socket and the engine, so a request never
//! changes threads.
//!
//! Backpressure is the bound on waiters: while every permit is out, at
//! most `queue_capacity` handlers wait for one and the next is answered
//! `BUSY` at once; a handler still waiting at its request's deadline
//! answers `TIMEOUT` then. A permit covers engine work only, never
//! socket I/O, so a slow reader pins its own handler and nothing else.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use simsearch_core::{pass_join_with_stats, search_top_k_with, Backend, Strategy};
use simsearch_data::Dataset;

use crate::metrics::Metrics;
use crate::protocol::{matches_response, Response, JOIN_CHUNK_PAIRS};

/// Tuning for admission and execution.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Execution permits: how many requests run on the engine at once.
    pub threads: usize,
    /// How many connection handlers may wait for a permit; the next one
    /// is answered `BUSY`. A handler has one request in flight, so at
    /// most `conn_threads − threads` can ever wait and a larger value
    /// (the default included) never binds.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from admission. A request still
    /// waiting for a permit at its deadline is dropped with `TIMEOUT`
    /// instead of executing.
    pub deadline: Duration,
    /// Radius cap for `TOPK`'s iterative deepening.
    pub topk_max_radius: u32,
    /// Fault-injection: extra sleep per executed request, under its
    /// permit. Zero in production; tests use it to hold permits
    /// deterministically so admission control (`BUSY`, `TIMEOUT`) can
    /// be exercised.
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
    /// Append the request text as a record (live engines only).
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

/// A counting semaphore with a bounded set of waiters.
pub(crate) struct Permits {
    state: Mutex<PermitState>,
    freed: Condvar,
    max_waiting: usize,
}

struct PermitState {
    free: usize,
    waiting: usize,
}

/// One held permit; dropping it frees the slot, so a handler that
/// unwinds mid-request cannot leak it.
pub(crate) struct Permit<'a>(&'a Permits);

impl Permits {
    /// `free` permits; at most `max_waiting` callers of
    /// [`Permits::admit`] wait for one at a time.
    pub fn new(free: usize, max_waiting: usize) -> Self {
        Self {
            state: Mutex::new(PermitState { free, waiting: 0 }),
            freed: Condvar::new(),
            max_waiting,
        }
    }

    fn lock(&self) -> MutexGuard<'_, PermitState> {
        // Every update leaves both counters valid, so a poisoned lock
        // (a panic elsewhere while it was held) is safe to reuse — and
        // `Permit::drop` must not panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take(&self, mut state: MutexGuard<'_, PermitState>) -> Permit<'_> {
        state.free -= 1;
        Permit(self)
    }

    /// Admission control for one request: `Err(BUSY)` at once when no
    /// permit is free and `max_waiting` callers already wait,
    /// `Err(TIMEOUT)` once `deadline` has passed without a permit, and
    /// the permit otherwise. Counts the outcome and keeps
    /// `queue_depth` equal to the number of waiters.
    pub fn admit(&self, deadline: Instant, metrics: &Metrics) -> Result<Permit<'_>, Response> {
        let mut state = self.lock();
        if state.free == 0 && state.waiting >= self.max_waiting {
            metrics.rejected_busy.inc();
            return Err(Response::Busy);
        }
        metrics.requests_admitted.inc();
        state.waiting += 1;
        let expired = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || state.free > 0 {
                break left.is_zero();
            }
            metrics.queue_depth.set(state.waiting);
            state = self
                .freed
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        state.waiting -= 1;
        metrics.queue_depth.set(state.waiting);
        if expired {
            if state.free > 0 {
                // The wake-up that found this waiter expired belongs to
                // the next one.
                self.freed.notify_one();
            }
            metrics.dropped_timeout.inc();
            return Err(Response::Timeout);
        }
        Ok(self.take(state))
    }

    /// Waits for a permit without bound and without counting as a
    /// waiter — for engine work that is not a request (compaction).
    pub fn acquire(&self) -> Permit<'_> {
        let mut state = self.lock();
        while state.free == 0 {
            state = self
                .freed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.take(state)
    }

    /// The permit if one is free right now.
    pub fn try_acquire(&self) -> Option<Permit<'_>> {
        let state = self.lock();
        (state.free > 0).then(|| self.take(state))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().free += 1;
        self.0.freed.notify_one();
    }
}

/// Admits one request and executes it on the calling thread against
/// `backend` (and, for `JOIN`, the frozen seed `dataset` it was built
/// from). `Ok` is the reply frames, in order, produced under a permit
/// that is already released — the caller writes them; `Err` is the
/// refusal (`BUSY` or `TIMEOUT`) to write instead of executing.
pub(crate) fn run_request(
    work: &Work,
    text: &[u8],
    permits: &Permits,
    backend: &dyn Backend,
    dataset: &Dataset,
    cfg: &BatchConfig,
    metrics: &Metrics,
) -> Result<Vec<Response>, Response> {
    // Deadlines and the latency histogram both measure from here.
    let admitted = Instant::now();
    let _permit = permits.admit(admitted + cfg.deadline, metrics)?;
    metrics.batches.inc();
    let frames = execute_one(work, text, backend, dataset, cfg, metrics);
    metrics
        .latency_ns
        .observe(admitted.elapsed().as_nanos() as u64);
    Ok(frames)
}

fn execute_one(
    work: &Work,
    text: &[u8],
    backend: &dyn Backend,
    dataset: &Dataset,
    cfg: &BatchConfig,
    metrics: &Metrics,
) -> Vec<Response> {
    if !cfg.exec_delay.is_zero() {
        std::thread::sleep(cfg.exec_delay);
    }
    let read_only = || Response::Error("engine is read-only (start simsearchd with --live)".into());
    let mut cells = 0;
    let frames = match *work {
        Work::Query { k } => {
            let (matches, counted) = backend.search_counting(text, k);
            cells = counted;
            vec![matches_response(&matches)]
        }
        Work::TopK { count } => {
            let (matches, counted) = search_top_k_with(
                |radius| backend.search_counting(text, radius),
                count as usize,
                cfg.topk_max_radius,
            );
            cells = counted;
            vec![Response::Matches(matches)]
        }
        Work::Insert => vec![match backend.as_mutable() {
            Some(w) => Response::Inserted(w.insert(text)),
            None => read_only(),
        }],
        Work::Delete { id } => vec![match backend.as_mutable() {
            Some(w) => Response::Deleted {
                existed: w.delete(id),
            },
            None => read_only(),
        }],
        // Live engines refuse: their records shift under the join. A
        // served join runs sequentially — like the search kernels, it
        // draws its concurrency from the connection handlers rather than
        // nesting a pool per request.
        Work::Join { k } => match backend.as_mutable() {
            None => {
                let (pairs, stats) = pass_join_with_stats(dataset, k, Strategy::Sequential);
                metrics.joins.inc();
                metrics.join_pairs_emitted.add(stats.pairs_emitted);
                metrics
                    .join_candidates_verified
                    .add(stats.candidates_verified);
                metrics.join_seg_buckets.set(stats.seg_buckets as usize);
                metrics.join_seg_postings.set(stats.seg_postings as usize);
                // `OK join <total>`, then the pairs in chunks; an empty
                // join is the header alone.
                let header = Response::JoinHeader {
                    total: pairs.len() as u64,
                };
                let chunks = pairs.chunks(JOIN_CHUNK_PAIRS);
                std::iter::once(header)
                    .chain(chunks.map(|chunk| Response::JoinPairs(chunk.to_vec())))
                    .collect()
            }
            Some(_) => vec![Response::Error(
                "JOIN requires a frozen dataset (not servable on a --live engine)".into(),
            )],
        },
    };
    metrics.dp_cells.add(cells);
    // One outcome per request, however many frames its reply spans.
    match frames.last() {
        Some(Response::Error(_)) => metrics.replied_error.inc(),
        _ => metrics.replied_ok.inc(),
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_core::{EngineKind, SearchEngine};
    use simsearch_scan::SeqVariant;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn free_permits_are_handed_out_and_the_next_waiter_is_busy() {
        let metrics = Metrics::new();
        let permits = Permits::new(2, 0);
        let first = permits.admit(far(), &metrics).expect("first permit");
        let _second = permits.admit(far(), &metrics).expect("second permit");
        assert!(permits.try_acquire().is_none());
        // No permit free and no room to wait: waiter `max_waiting + 1`.
        assert_eq!(permits.admit(far(), &metrics).err(), Some(Response::Busy));
        assert_eq!(metrics.requests_admitted.get(), 2);
        assert_eq!(metrics.rejected_busy.get(), 1);
        drop(first);
        assert!(
            permits.admit(far(), &metrics).is_ok(),
            "a dropped permit is free again"
        );
        assert_eq!(metrics.queue_depth.get(), 0);
    }

    #[test]
    fn a_passed_deadline_is_timeout_and_leaves_no_waiter() {
        let metrics = Metrics::new();
        let permits = Permits::new(1, 1);
        let now = Instant::now();
        // Expired is expired, with a permit free or without.
        assert_eq!(permits.admit(now, &metrics).err(), Some(Response::Timeout));
        let _held = permits.acquire();
        assert_eq!(permits.admit(now, &metrics).err(), Some(Response::Timeout));
        assert_eq!(metrics.dropped_timeout.get(), 2);
        assert_eq!(
            metrics.requests_admitted.get(),
            2,
            "TIMEOUT is not a refusal"
        );
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(permits.lock().waiting, 0);
    }

    #[test]
    fn a_waiter_gets_the_permit_its_holder_drops() {
        let metrics = Metrics::new();
        let permits = Permits::new(1, 1);
        let held = permits.acquire();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| permits.admit(far(), &metrics).is_ok());
            // The waiter is provably parked on the condvar (or about to
            // re-check under the lock) once it counts as waiting.
            while permits.lock().waiting == 0 {
                std::thread::yield_now();
            }
            assert_eq!(permits.admit(far(), &metrics).err(), Some(Response::Busy));
            drop(held);
            assert!(waiter.join().expect("waiter thread"));
        });
        assert_eq!(metrics.queue_depth.get(), 0);
        assert!(
            permits.try_acquire().is_some(),
            "the waiter's permit came back"
        );
    }

    #[test]
    fn a_panicking_holder_frees_its_permit() {
        let permits = Permits::new(1, 0);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _permit = permits.acquire();
                panic!("handler died mid-request");
            });
            assert!(holder.join().is_err());
        });
        assert!(permits.try_acquire().is_some());
    }

    const CORPUS: [&str; 4] = ["Berlin", "Bern", "Bonn", "Ulm"];

    /// Runs each request through `run_request` on a thread of its own,
    /// all sharing `cfg.threads` permits the way connection handlers do;
    /// replies come back in request order.
    fn harness(
        cfg: &BatchConfig,
        requests: &[(Work, &str)],
    ) -> (Metrics, Vec<Result<Vec<Response>, Response>>) {
        harness_on(EngineKind::Scan(SeqVariant::V1Base), cfg, requests)
    }

    fn harness_on(
        kind: EngineKind,
        cfg: &BatchConfig,
        requests: &[(Work, &str)],
    ) -> (Metrics, Vec<Result<Vec<Response>, Response>>) {
        let ds = Dataset::from_records(CORPUS);
        let engine = SearchEngine::build(&ds, kind);
        let metrics = Metrics::new();
        let permits = Permits::new(cfg.threads, cfg.queue_capacity);
        let replies = std::thread::scope(|s| {
            let handles: Vec<_> = requests
                .iter()
                .map(|(work, text)| {
                    let (permits, backend, ds, metrics) =
                        (&permits, engine.backend(), &ds, &metrics);
                    s.spawn(move || {
                        run_request(work, text.as_bytes(), permits, backend, ds, cfg, metrics)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        (metrics, replies)
    }

    #[test]
    fn every_admitted_request_is_answered_and_counted_once() {
        const N: u64 = 10;
        let cfg = BatchConfig {
            threads: 2,
            ..BatchConfig::default()
        };
        let requests: Vec<_> = (0..N)
            .map(|i| {
                (
                    Work::Query { k: 1 },
                    if i % 2 == 0 { "Berlin" } else { "Ulm" },
                )
            })
            .collect();
        let (metrics, replies) = harness(&cfg, &requests);
        assert_eq!(replies.len() as u64, N);
        for reply in &replies {
            assert!(
                matches!(reply.as_deref(), Ok([Response::Matches(_)])),
                "{reply:?}"
            );
        }
        assert_eq!(metrics.requests_admitted.get(), N);
        assert_eq!(metrics.batches.get(), N);
        assert_eq!(metrics.latency_ns.count(), N);
        assert_eq!(metrics.replied_ok.get(), N);
        assert_eq!(metrics.queue_depth.get(), 0);
    }

    #[test]
    fn expired_requests_get_timeout_not_execution() {
        let cfg = BatchConfig {
            threads: 1,
            // Already passed by the time admission looks at it.
            deadline: Duration::ZERO,
            ..BatchConfig::default()
        };
        let (metrics, replies) = harness(&cfg, &[(Work::Query { k: 1 }, "Berlin")]);
        assert_eq!(replies, [Err(Response::Timeout)]);
        assert_eq!(metrics.dropped_timeout.get(), 1);
        assert_eq!(metrics.batches.get(), 0, "never reached the engine");
        assert_eq!(metrics.replied_ok.get(), 0);
    }

    #[test]
    fn join_work_yields_header_then_chunks() {
        let cfg = BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        };
        // k=2 catches Berlin~Bern and Bern~Bonn in the harness corpus;
        // k=0 finds nothing.
        let (metrics, mut replies) = harness(
            &cfg,
            &[(Work::Join { k: 2 }, ""), (Work::Join { k: 0 }, "")],
        );
        let empty = replies.pop().unwrap().expect("executed");
        assert_eq!(
            empty,
            [Response::JoinHeader { total: 0 }],
            "the header alone"
        );
        let frames = replies.pop().unwrap().expect("executed");
        let Some((Response::JoinHeader { total }, chunks)) = frames.split_first() else {
            panic!("expected a join header first, got {frames:?}");
        };
        assert!(*total >= 2, "total={total}");
        let streamed: u64 = chunks
            .iter()
            .map(|frame| match frame {
                Response::JoinPairs(chunk) => chunk.len() as u64,
                other => panic!("expected pairs, got {other:?}"),
            })
            .sum();
        assert_eq!(streamed, *total);
        assert_eq!(
            metrics.replied_ok.get(),
            2,
            "one outcome per join, not per frame"
        );
    }

    #[test]
    fn join_streams_the_nested_loop_pairs_and_live_engines_refuse() {
        let cfg = BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        };
        let (metrics, replies) = harness(&cfg, &[(Work::Join { k: 2 }, "")]);
        let streamed: Vec<_> = replies[0]
            .as_ref()
            .expect("executed")
            .iter()
            .filter_map(|frame| match frame {
                Response::JoinPairs(chunk) => Some(chunk.iter().copied()),
                _ => None,
            })
            .flatten()
            .collect();
        let corpus = Dataset::from_records(CORPUS);
        assert_eq!(streamed, simsearch_core::join::nested_loop_join(&corpus, 2));
        assert_eq!(metrics.joins.get(), 1);
        assert_eq!(metrics.join_pairs_emitted.get(), streamed.len() as u64);

        let live = EngineKind::Live { memtable_cap: 4 };
        let (metrics, replies) = harness_on(live, &cfg, &[(Work::Join { k: 1 }, "")]);
        assert!(
            matches!(replies[0].as_deref(), Ok([Response::Error(_)])),
            "{replies:?}"
        );
        assert_eq!(metrics.joins.get(), 0);
        assert_eq!(metrics.replied_error.get(), 1);
    }
}
