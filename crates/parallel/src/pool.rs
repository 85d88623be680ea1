//! A persistent worker pool with a shared submission queue.
//!
//! Every executor in this crate so far ([`crate::run_fixed_pool`],
//! [`crate::run_work_queue`], …) spawns its threads per call — fine for
//! one-shot workload measurements, wasteful for a long-lived server that
//! answers requests continuously. [`WorkerPool`] spawns its threads
//! once; work arrives through a [`SubmissionQueue`] and the threads stay
//! parked on a condvar between jobs.
//!
//! The queue is bounded and rejects instead of blocking when full
//! ([`PushError::Full`]) — that is the admission-control primitive the
//! serving layer's backpressure (`BUSY` replies) is built on. Shutdown
//! is explicit and *joining*: [`WorkerPool::shutdown`] (and `Drop`)
//! closes the queue, lets the workers drain what was already accepted,
//! and joins every thread — no detached threads survive the pool.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why a [`SubmissionQueue::push`] was rejected; the job is handed back
/// so the caller can reply with backpressure instead of losing it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<J> {
    /// The queue is at capacity (admission control: reply `BUSY`).
    Full(J),
    /// The queue has been closed (shutdown in progress).
    Closed(J),
}

impl<J> PushError<J> {
    /// Hands the rejected job back to the caller.
    pub fn into_inner(self) -> J {
        match self {
            PushError::Full(job) | PushError::Closed(job) => job,
        }
    }
}

struct QueueState<J> {
    jobs: VecDeque<J>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer job queue.
///
/// `push` never blocks: a full queue returns [`PushError::Full`]
/// immediately, which is precisely the explicit-backpressure behaviour
/// the serving layer needs (a client must see `BUSY`, not a hang).
/// `pop` blocks until a job arrives or the queue is closed *and*
/// drained, so consumers process everything that was admitted before
/// shutdown.
pub struct SubmissionQueue<J> {
    state: Mutex<QueueState<J>>,
    capacity: usize,
    available: Condvar,
}

impl<J> SubmissionQueue<J> {
    /// Creates a queue admitting at most `capacity` queued jobs.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a queue that can never admit a job
    /// would make every consumer block forever.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a submission queue needs capacity");
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            capacity,
            available: Condvar::new(),
        }
    }

    /// Admits a job, or rejects it immediately when the queue is full or
    /// closed. Never blocks.
    pub fn push(&self, job: J) -> Result<(), PushError<J>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and returns it; returns `None`
    /// once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<J> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue poisoned");
        }
    }

    /// Number of jobs currently queued (the queue-depth gauge).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: further pushes fail, consumers drain the
    /// remainder and then observe `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// True once [`SubmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }
}

/// A boxed unit of work for the [`WorkerPool`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of threads executing jobs from a shared
/// [`SubmissionQueue`] — spawn once, submit many, join on shutdown.
pub struct WorkerPool {
    queue: Arc<SubmissionQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers over a queue admitting at most
    /// `queue_capacity` pending jobs.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `queue_capacity == 0`.
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one thread");
        let queue: Arc<SubmissionQueue<Job>> =
            Arc::new(SubmissionQueue::bounded(queue_capacity));
        let workers = (0..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        job();
                    }
                })
            })
            .collect();
        Self { queue, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job. Returns the job inside the error when the queue is
    /// full (backpressure) or the pool is shutting down.
    pub fn submit(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), PushError<Job>> {
        self.queue.push(Box::new(job))
    }

    /// Current submission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Closes the queue, waits for the workers to drain every admitted
    /// job, and joins all threads. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            handle.join().expect("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_every_submitted_job() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(4, 1024);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let admitted = pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert!(admitted.is_ok());
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let queue: SubmissionQueue<u32> = SubmissionQueue::bounded(2);
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.push(3), Err(PushError::Full(3)));
        assert_eq!(queue.len(), 2);
        // Draining one slot re-admits.
        assert_eq!(queue.pop(), Some(1));
        queue.push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let queue: SubmissionQueue<u32> = SubmissionQueue::bounded(8);
        queue.push(7).unwrap();
        queue.close();
        assert_eq!(queue.push(8), Err(PushError::Closed(8)));
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn shutdown_joins_every_worker_thread() {
        // Count live workers with a guard object: the satellite
        // requirement is that no detached threads survive shutdown.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let mut pool = WorkerPool::new(6, 64);
        let (tx, rx) = mpsc::channel();
        for _ in 0..6 {
            let tx = tx.clone();
            let admitted = pool.submit(move || {
                LIVE.fetch_add(1, Ordering::SeqCst);
                let _guard = Guard;
                tx.send(std::thread::current().id()).unwrap();
                // Hold the worker briefly so all six are live at once.
                std::thread::sleep(Duration::from_millis(20));
            });
            assert!(admitted.is_ok());
        }
        drop(tx);
        let ids: std::collections::HashSet<_> = rx.iter().collect();
        assert_eq!(ids.len(), 6, "six workers should have run jobs");
        pool.shutdown();
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "shutdown returned while worker jobs were still running"
        );
        assert_eq!(pool.threads(), 0, "all handles joined");
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn drop_also_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 16);
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                let admitted = pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                assert!(admitted.is_ok());
            }
        } // Drop runs shutdown: every admitted job completes.
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pop_blocks_until_push() {
        let queue: Arc<SubmissionQueue<u32>> = Arc::new(SubmissionQueue::bounded(4));
        let q = Arc::clone(&queue);
        let consumer = std::thread::spawn(move || q.pop());
        std::thread::sleep(Duration::from_millis(10));
        queue.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        let _ = SubmissionQueue::<u8>::bounded(0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = WorkerPool::new(0, 1);
    }
}
