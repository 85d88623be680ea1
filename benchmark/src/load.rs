//! The load generator: `C` lockstep client connections, one thread
//! each, all in this process. A closed loop sends a client's next
//! request when the previous reply is parsed; the open loop sends on a
//! seeded Poisson schedule and times each request from when it was
//! *due*, so a stall charges the requests queued behind it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use simsearch_data::Match;
use simsearch_serve::protocol::{encode_request, parse_response, Request, Response};
use simsearch_serve::Client;

use crate::gen::{poisson_schedule, Inputs, Op, OpStream};
use crate::stats::{by_class_ns, Sample};
use crate::trace::{Recorder, Span};

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// One connection. Untraced runs go through the shipped
/// [`simsearch_serve::Client`]; traced runs do the same four steps by
/// hand so each gets a span.
enum Link {
    Plain(Client),
    Traced {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
        rec: Recorder,
    },
}

impl Link {
    fn connect(addr: SocketAddr, rec: Option<Recorder>) -> std::io::Result<Self> {
        let Some(rec) = rec else {
            return Client::connect(addr).map(Link::Plain);
        };
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Link::Traced {
            stream,
            reader,
            rec,
        })
    }

    fn exchange(&mut self, request: &Request, op: u64) -> std::io::Result<Response> {
        let (stream, reader, rec) = match self {
            Link::Plain(client) => return client.request(request),
            Link::Traced {
                stream,
                reader,
                rec,
            } => (stream, reader, rec),
        };
        let root = rec.open();
        let frame = rec.time("serve.protocol.encode_request", op, root.0, 1, || {
            let mut frame = encode_request(request);
            frame.push(b'\n');
            frame
        });
        let written = rec.time("socket.write", op, root.0, 1, || stream.write_all(&frame));
        let mut line = Vec::new();
        let read = rec.time("wait_reply", op, root.0, 1, || {
            reader.read_until(b'\n', &mut line)
        });
        let parsed = rec.time("serve.protocol.parse_response", op, root.0, 1, || {
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            parse_response(&line)
        });
        rec.close("request", op, 0, root);
        written?;
        if read? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parsed.map_err(|e| bad_data(format!("bad reply frame: {e}")))
    }
}

/// What one phase observed, per client or merged.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Every successful operation with its completion time, for
    /// [`crate::stats::Quiet`].
    pub samples: Vec<Sample>,
    /// Open loop only: how long after its due time each request left.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Wall time from the first client's start to the last one's end.
    pub elapsed: Duration,
}

impl PhaseLog {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Successful operations per second of the phase.
    pub fn ops_per_s(&self) -> f64 {
        self.succeeded() as f64 / self.elapsed.as_secs_f64()
    }

    /// Latencies of all successful operations.
    pub fn all_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.latency_ns).collect()
    }

    /// Latencies by operation class: each threshold's reads, then the
    /// writes.
    pub fn by_class_ns(&self) -> Vec<Vec<u64>> {
        by_class_ns(self.samples.iter())
    }

    fn absorb(&mut self, other: PhaseLog) {
        self.samples.extend(other.samples);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// One client thread's state; it outlives the phases because the ids
/// it inserted (and may delete later) do.
pub struct LoadClient<'a> {
    link: Link,
    inputs: &'a Inputs,
    ops: OpStream,
    /// Query indices whose first reply is kept for the output check.
    retain: &'a [bool],
    retained: Vec<bool>,
    /// Ids this client inserted and has not deleted.
    own_live: Vec<u32>,
    next_op: u64,
    stride: u64,
    /// `(query index, reply)` pairs kept for the output check.
    pub sampled: Vec<(usize, Vec<Match>)>,
    /// `(assigned id, insert-pool index)` of every acknowledged insert.
    pub inserted: Vec<(u32, usize)>,
    /// Every id whose delete was acknowledged.
    pub deleted: Vec<u32>,
}

impl<'a> LoadClient<'a> {
    /// Client `index` of `clients`. Pass a recorder to trace it.
    pub fn connect(
        addr: SocketAddr,
        inputs: &'a Inputs,
        ops: OpStream,
        retain: &'a [bool],
        (index, clients): (usize, usize),
        rec: Option<Recorder>,
    ) -> std::io::Result<Self> {
        Ok(Self {
            link: Link::connect(addr, rec)?,
            inputs,
            ops,
            retain,
            retained: vec![false; retain.len()],
            own_live: Vec::new(),
            next_op: index as u64,
            stride: clients as u64,
            sampled: Vec::new(),
            inserted: Vec::new(),
            deleted: Vec::new(),
        })
    }

    /// Issues the stream's next op and logs its outcome; `epoch` is when
    /// the phase began and `from` the instant latency counts from
    /// (`None`: the moment of sending).
    fn step(&mut self, log: &mut PhaseLog, epoch: Instant, from: Option<Instant>) {
        let op = self.ops.next(self.own_live.len());
        let request = match op {
            Op::Query(at) => {
                let q = &self.inputs.queries.queries[at];
                Request::Query {
                    k: q.threshold,
                    text: q.text.clone(),
                }
            }
            Op::Insert(at) => Request::Insert {
                text: self.inputs.insert_pool.get(at as u32).to_vec(),
            },
            Op::Delete(nth) => Request::Delete {
                id: self.own_live[nth],
            },
        };
        let op_id = self.next_op;
        self.next_op += self.stride;
        let sent = Instant::now();
        let reply = self.link.exchange(&request, op_id);
        let done = Instant::now();
        let latency = (done - from.unwrap_or(sent)).as_nanos() as u64;
        let cycle = self.inputs.cycle();
        let mut sample = |class: usize| {
            log.samples.push(Sample {
                done_ns: (done - epoch).as_nanos() as u64,
                class,
                latency_ns: latency,
            })
        };
        log.attempted += 1;
        if let Some(due) = from {
            log.late_ns.push((sent - due).as_nanos() as u64);
        }
        match (op, reply) {
            (Op::Query(at), Ok(Response::Matches(matches))) => {
                sample(at % cycle);
                if self.retain[at] && !self.retained[at] {
                    self.retained[at] = true;
                    self.sampled.push((at, matches));
                }
            }
            (Op::Insert(at), Ok(Response::Inserted(id))) => {
                sample(cycle);
                self.own_live.push(id);
                self.inserted.push((id, at));
            }
            (Op::Delete(nth), Ok(Response::Deleted { existed: true })) => {
                sample(cycle);
                self.deleted.push(self.own_live.swap_remove(nth));
            }
            // BUSY, TIMEOUT, ERR, an I/O error or a reply of the wrong
            // shape: a failed op, which also misses every latency bound.
            (op, other) => {
                log.failed += 1;
                log.first_failure
                    .get_or_insert_with(|| format!("{op:?} -> {other:?}"));
            }
        }
    }

    /// The spans this client recorded (empty when untraced).
    pub fn into_spans(self) -> Vec<Span> {
        match self.link {
            Link::Plain(_) => Vec::new(),
            Link::Traced { rec, .. } => rec.into_spans(),
        }
    }
}

/// Runs `body` on one thread per client, released together, and merges
/// the logs.
fn phase<'a>(
    clients: &mut [LoadClient<'a>],
    body: impl Fn(usize, &mut LoadClient<'a>, Instant, &mut PhaseLog) + Sync,
) -> PhaseLog {
    let barrier = Barrier::new(clients.len());
    let runs: Vec<(PhaseLog, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    let mut log = PhaseLog::default();
                    barrier.wait();
                    let start = Instant::now();
                    body(index, client, start, &mut log);
                    (log, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = runs.iter().map(|r| r.1).min().expect("at least one client");
    let last = runs.iter().map(|r| r.2).max().expect("at least one client");
    let mut merged = PhaseLog {
        elapsed: last - first,
        ..PhaseLog::default()
    };
    for (log, _, _) in runs {
        merged.absorb(log);
    }
    merged
}

/// Closed loop for `window`.
pub fn closed_phase(clients: &mut [LoadClient<'_>], window: Duration) -> PhaseLog {
    phase(clients, |_, client, start, log| {
        while start.elapsed() < window {
            client.step(log, start, None);
        }
    })
}

/// `total` ops split evenly over the clients, as fast as they go.
pub fn count_phase(clients: &mut [LoadClient<'_>], total: usize) -> PhaseLog {
    let each = total.div_ceil(clients.len());
    phase(clients, |_, client, start, log| {
        (0..each).for_each(|_| client.step(log, start, None))
    })
}

/// Open loop: Poisson arrivals at `rate_per_s` for `window`, dealt
/// round-robin to the connections. A client whose previous reply is
/// still outstanding at a due time sends late; the latency still
/// counts from the due time.
pub fn open_phase(
    clients: &mut [LoadClient<'_>],
    rate_per_s: f64,
    window: Duration,
    seed: u64,
) -> PhaseLog {
    let due = poisson_schedule(rate_per_s, window.as_secs_f64(), seed);
    let lanes = clients.len();
    phase(clients, |index, client, start, log| {
        for &offset in due.iter().skip(index).step_by(lanes) {
            let due_at = start + Duration::from_nanos(offset);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            client.step(log, start, Some(due_at));
        }
    })
}
