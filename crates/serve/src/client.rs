//! A blocking client for the `simsearchd` wire protocol: one
//! connection, lockstep request/reply framing.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use simsearch_core::JoinPair;
use simsearch_data::Match;

use crate::protocol::{encode_request, parse_response, Request, Response, MAX_LINE_BYTES};

/// A connected `simsearchd` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects to a server address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Connects, retrying until `timeout` — covers the race between a
    /// server binding its port and accepting its first connection.
    pub fn connect_retry(addr: impl ToSocketAddrs + Copy, timeout: Duration) -> std::io::Result<Self> {
        let give_up = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Sends one raw frame (terminator appended) and returns the raw
    /// reply line, terminator stripped. The workhorse for fuzz tests
    /// that must ship malformed bytes.
    pub fn send_raw(&mut self, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        self.writer.write_all(frame)?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.recv_raw()
    }

    /// Reads one reply frame without sending anything — `JOIN` replies
    /// span several frames, so callers draining a stream read the
    /// continuation frames with this.
    pub fn recv_raw(&mut self) -> std::io::Result<Vec<u8>> {
        let mut line = Vec::new();
        let n = self
            .reader
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 2)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads and parses one reply frame.
    fn recv(&mut self) -> std::io::Result<Response> {
        let reply = self.recv_raw()?;
        parse_response(&reply).map_err(|e| bad_data(format!("bad reply frame: {e}")))
    }

    /// Sends a request and parses the reply.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        let reply = self.send_raw(&encode_request(request))?;
        parse_response(&reply).map_err(|e| bad_data(format!("bad reply frame: {e}")))
    }

    /// `QUERY <k> <text>` — the reply as-is (may be `Busy`/`Timeout`).
    pub fn query(&mut self, text: &[u8], k: u32) -> std::io::Result<Response> {
        self.request(&Request::Query {
            k,
            text: text.to_vec(),
        })
    }

    /// `TOPK <count> <text>`, unwrapped to the match list.
    pub fn topk(&mut self, text: &[u8], count: u32) -> std::io::Result<Vec<Match>> {
        match self.request(&Request::TopK {
            count,
            text: text.to_vec(),
        })? {
            Response::Matches(matches) => Ok(matches),
            other => Err(bad_data(format!("expected matches, got {other:?}"))),
        }
    }

    /// `JOIN <k>`, unwrapped to the full pair list: reads the
    /// `OK join <total>` header, then drains `OK pairs` chunk frames
    /// until `total` pairs have arrived.
    pub fn join(&mut self, k: u32) -> std::io::Result<Vec<JoinPair>> {
        let total = match self.request(&Request::Join { k })? {
            Response::JoinHeader { total } => total,
            other => return Err(bad_data(format!("expected join header, got {other:?}"))),
        };
        let mut pairs: Vec<JoinPair> = Vec::new();
        while (pairs.len() as u64) < total {
            match self.recv()? {
                Response::JoinPairs(chunk) => pairs.extend(chunk),
                other => return Err(bad_data(format!("expected pair chunk, got {other:?}"))),
            }
        }
        Ok(pairs)
    }

    /// `INSERT <text>`, unwrapped to the assigned record id.
    pub fn insert(&mut self, text: &[u8]) -> std::io::Result<u32> {
        match self.request(&Request::Insert {
            text: text.to_vec(),
        })? {
            Response::Inserted(id) => Ok(id),
            other => Err(bad_data(format!("expected inserted id, got {other:?}"))),
        }
    }

    /// `DELETE <id>` — true iff the id named a live record.
    pub fn delete(&mut self, id: u32) -> std::io::Result<bool> {
        match self.request(&Request::Delete { id })? {
            Response::Deleted { existed } => Ok(existed),
            other => Err(bad_data(format!("expected deleted/absent, got {other:?}"))),
        }
    }

    /// `HEALTH` — true iff the server answered `OK healthy`.
    pub fn health(&mut self) -> std::io::Result<bool> {
        Ok(self.request(&Request::Health)? == Response::Healthy)
    }

    /// `STATS` — the one-line JSON snapshot.
    pub fn stats_json(&mut self) -> std::io::Result<String> {
        match self.request(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(bad_data(format!("expected stats, got {other:?}"))),
        }
    }

    /// `SHUTDOWN` — asks the server to drain and exit.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(bad_data(format!("expected bye, got {other:?}"))),
        }
    }
}
