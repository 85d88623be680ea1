//! The `simsearchd` wire protocol: newline-delimited frames over a
//! byte stream.
//!
//! Grammar (one frame per line, LF-terminated; bytes, not UTF-8):
//!
//! ```text
//! request  = "QUERY" SP integer SP text      ; all records within k
//!          / "TOPK"  SP integer SP text      ; the count nearest records
//!          / "JOIN" SP integer [SP "pass"]   ; self-join, stream all pairs
//!          / "INSERT" SP text                ; append a record (live mode)
//!          / "DELETE" SP integer             ; tombstone a record (live mode)
//!          / "STATS"                         ; metrics snapshot (JSON)
//!          / "HEALTH"                        ; liveness probe
//!          / "SHUTDOWN"                      ; drain and exit
//! text     = *OCTET                          ; no LF, no CR
//!
//! response = "OK" SP payload
//!          / "BUSY"                          ; too many requests waiting
//!          / "TIMEOUT"                       ; per-request deadline hit
//!          / "ERR" SP message
//! payload  = "healthy" / "bye" / matches / json
//!          / "id=" integer                   ; INSERT: the assigned record id
//!          / "deleted" / "absent"            ; DELETE: whether the id was live
//!          / "join" SP integer               ; JOIN stream header: total pairs
//!          / "pairs" SP pairlist             ; JOIN stream chunk
//! matches  = integer [SP match *("," match)] ; count, then id:distance
//! match    = integer ":" integer
//! pairlist = integer [SP pair *("," pair)]   ; count, then left:right:distance
//! pair     = integer ":" integer ":" integer
//! ```
//!
//! `JOIN` is the one verb whose reply spans several frames: a header
//! `OK join <total>` followed by `OK pairs …` chunks (each under
//! [`MAX_LINE_BYTES`]) until `total` pairs have been streamed — there
//! is no trailer, the client counts. A non-header first frame (`BUSY`,
//! `TIMEOUT`, `ERR`) terminates the exchange as usual.
//!
//! `INSERT`/`DELETE` are only *servable* when the daemon runs a live
//! engine (`--live`); a read-only daemon still parses them (the parser
//! is engine-agnostic) and answers `ERR`.
//!
//! Every parser here is total: malformed input yields a
//! [`ProtocolError`], never a panic (property-tested against arbitrary
//! byte soup), and `parse(encode(x)) == x` for every value (round-trip
//! property). Frames longer than [`MAX_LINE_BYTES`] are rejected before
//! any allocation proportional to their length.

use simsearch_core::JoinPair;
use simsearch_data::{Match, MatchSet};

/// Upper bound on one frame, terminator excluded. Connections reject
/// longer lines (and close, since framing is lost beyond this point).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Pairs per `OK pairs` chunk frame: the worst-case triple is 33 bytes
/// (three 10-digit u32s plus separators), so 1,000 pairs stay well
/// under [`MAX_LINE_BYTES`].
pub const JOIN_CHUNK_PAIRS: usize = 1_000;

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `QUERY <k> <text>`: all records within edit distance `k`.
    Query {
        /// Distance threshold.
        k: u32,
        /// Query string (byte semantics, like the records).
        text: Vec<u8>,
    },
    /// `TOPK <count> <text>`: the `count` nearest records.
    TopK {
        /// How many nearest records to return.
        count: u32,
        /// Query string.
        text: Vec<u8>,
    },
    /// `JOIN <k> [pass]`: every record pair within edit distance `k`
    /// (PASS-JOIN), streamed as a header frame plus pair chunks.
    Join {
        /// Join distance threshold.
        k: u32,
    },
    /// `INSERT <text>`: append a record to a live engine; the reply
    /// carries the assigned global id.
    Insert {
        /// The record to append (byte semantics; may be empty, may
        /// contain spaces).
        text: Vec<u8>,
    },
    /// `DELETE <id>`: tombstone record `id` on a live engine.
    Delete {
        /// The global record id to delete.
        id: u32,
    },
    /// `STATS`: one-line JSON metrics snapshot.
    Stats,
    /// `HEALTH`: liveness probe.
    Health,
    /// `SHUTDOWN`: stop accepting, answer admitted requests, exit.
    Shutdown,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK <n> id:d,id:d,…`: the matches of a `QUERY`/`TOPK`.
    Matches(Vec<Match>),
    /// `BUSY`: every execution permit is out and the bounded set of
    /// waiters is full — retry later.
    Busy,
    /// `TIMEOUT`: the request waited past its deadline and was dropped.
    Timeout,
    /// `OK healthy`: reply to `HEALTH`.
    Healthy,
    /// `OK id=<n>`: reply to `INSERT` — the assigned record id.
    Inserted(u32),
    /// `OK deleted` / `OK absent`: reply to `DELETE` — whether the id
    /// named a live record.
    Deleted {
        /// `true` when the id was live (and is now tombstoned).
        existed: bool,
    },
    /// `OK join <total>`: header of a `JOIN` reply stream — `total`
    /// pairs follow in `OK pairs` chunk frames.
    JoinHeader {
        /// How many pairs the stream carries in total.
        total: u64,
    },
    /// `OK pairs <n> l:r:d,…`: one chunk of a `JOIN` reply stream.
    JoinPairs(Vec<JoinPair>),
    /// `OK {…}`: reply to `STATS` (single-line JSON).
    Stats(String),
    /// `OK bye`: reply to `SHUTDOWN`; the server drains and exits.
    Bye,
    /// `ERR <message>`: the request was malformed or unservable.
    Error(String),
}

/// Why a frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame is empty.
    Empty,
    /// The frame exceeds [`MAX_LINE_BYTES`].
    TooLong,
    /// The first word is not a known verb.
    UnknownVerb(String),
    /// A numeric field did not parse as the expected integer type.
    BadInteger(String),
    /// The verb requires `<int> <text>` fields that are missing.
    MissingFields(&'static str),
    /// The verb requires one argument that is missing.
    MissingArg(&'static str, &'static str),
    /// The `JOIN` algorithm token is not recognized.
    UnknownAlgo(String),
    /// The frame contains a CR or LF where none is allowed.
    BadByte,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty frame"),
            ProtocolError::TooLong => {
                write!(f, "frame exceeds {MAX_LINE_BYTES} bytes")
            }
            ProtocolError::UnknownVerb(v) => write!(
                f,
                "unknown verb '{v}' (expected QUERY, TOPK, JOIN, INSERT, DELETE, STATS, HEALTH, SHUTDOWN)"
            ),
            ProtocolError::BadInteger(s) => write!(f, "bad integer '{s}'"),
            ProtocolError::MissingFields(verb) => {
                write!(f, "{verb} requires '<integer> <text>'")
            }
            ProtocolError::MissingArg(verb, expected) => {
                write!(f, "{verb} requires '{expected}'")
            }
            ProtocolError::UnknownAlgo(a) => {
                write!(f, "unknown join algorithm '{a}' (expected pass)")
            }
            ProtocolError::BadByte => write!(f, "frame contains CR/LF"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn check_frame(line: &[u8]) -> Result<(), ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::TooLong);
    }
    if line.is_empty() {
        return Err(ProtocolError::Empty);
    }
    if line.iter().any(|&b| b == b'\n' || b == b'\r') {
        return Err(ProtocolError::BadByte);
    }
    Ok(())
}

/// Splits `VERB <int> <text>` after the verb: the integer word and the
/// raw remainder (which may be empty and may contain spaces).
fn int_and_text<'a>(
    rest: &'a [u8],
    verb: &'static str,
) -> Result<(u32, &'a [u8]), ProtocolError> {
    let sep = rest
        .iter()
        .position(|&b| b == b' ')
        .ok_or(ProtocolError::MissingFields(verb))?;
    let (num, text) = rest.split_at(sep);
    let num = std::str::from_utf8(num)
        .map_err(|_| ProtocolError::BadInteger(String::from_utf8_lossy(num).into_owned()))?;
    let value: u32 = num
        .parse()
        .map_err(|_| ProtocolError::BadInteger(num.to_string()))?;
    Ok((value, &text[1..]))
}

/// Parses one request frame (line terminator already stripped).
pub fn parse_request(line: &[u8]) -> Result<Request, ProtocolError> {
    check_frame(line)?;
    match line {
        b"STATS" => return Ok(Request::Stats),
        b"HEALTH" => return Ok(Request::Health),
        b"SHUTDOWN" => return Ok(Request::Shutdown),
        _ => {}
    }
    if let Some(rest) = line.strip_prefix(b"QUERY ") {
        let (k, text) = int_and_text(rest, "QUERY")?;
        return Ok(Request::Query {
            k,
            text: text.to_vec(),
        });
    }
    if let Some(rest) = line.strip_prefix(b"TOPK ") {
        let (count, text) = int_and_text(rest, "TOPK")?;
        return Ok(Request::TopK {
            count,
            text: text.to_vec(),
        });
    }
    if let Some(rest) = line.strip_prefix(b"JOIN ") {
        // `JOIN <k>` is self-delimiting (unlike QUERY, whose text may
        // be empty), so the algorithm token is genuinely optional.
        let num = match rest.iter().position(|&b| b == b' ') {
            Some(sep) => {
                let algo = &rest[sep + 1..];
                if algo != b"pass" {
                    return Err(ProtocolError::UnknownAlgo(
                        String::from_utf8_lossy(algo).into_owned(),
                    ));
                }
                &rest[..sep]
            }
            None => rest,
        };
        let k = std::str::from_utf8(num)
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| ProtocolError::BadInteger(String::from_utf8_lossy(num).into_owned()))?;
        return Ok(Request::Join { k });
    }
    if let Some(text) = line.strip_prefix(b"INSERT ") {
        // The whole remainder is the record — it may be empty and may
        // contain spaces, exactly like query text.
        return Ok(Request::Insert {
            text: text.to_vec(),
        });
    }
    if let Some(rest) = line.strip_prefix(b"DELETE ") {
        let id = std::str::from_utf8(rest)
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| ProtocolError::BadInteger(String::from_utf8_lossy(rest).into_owned()))?;
        return Ok(Request::Delete { id });
    }
    // A bare mutation verb is a known verb missing its argument — more
    // actionable than "unknown verb".
    match line {
        b"INSERT" => return Err(ProtocolError::MissingArg("INSERT", "<text>")),
        b"DELETE" => return Err(ProtocolError::MissingArg("DELETE", "<id>")),
        b"JOIN" => return Err(ProtocolError::MissingArg("JOIN", "<k> [pass]")),
        _ => {}
    }
    let verb = line.split(|&b| b == b' ').next().unwrap_or(line);
    Err(ProtocolError::UnknownVerb(
        String::from_utf8_lossy(verb).into_owned(),
    ))
}

/// Encodes a request as one frame, terminator excluded.
///
/// # Panics
/// Panics if the query text contains CR or LF — such a request is not
/// representable on the wire; validate user input before building one.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let frame = |verb: &str, n: u32, text: &[u8]| {
        assert!(
            !text.iter().any(|&b| b == b'\n' || b == b'\r'),
            "query text contains CR/LF"
        );
        let mut out = format!("{verb} {n} ").into_bytes();
        out.extend_from_slice(text);
        out
    };
    match request {
        Request::Query { k, text } => frame("QUERY", *k, text),
        Request::TopK { count, text } => frame("TOPK", *count, text),
        Request::Insert { text } => {
            assert!(
                !text.iter().any(|&b| b == b'\n' || b == b'\r'),
                "record text contains CR/LF"
            );
            let mut out = b"INSERT ".to_vec();
            out.extend_from_slice(text);
            out
        }
        Request::Join { k } => format!("JOIN {k}").into_bytes(),
        Request::Delete { id } => format!("DELETE {id}").into_bytes(),
        Request::Stats => b"STATS".to_vec(),
        Request::Health => b"HEALTH".to_vec(),
        Request::Shutdown => b"SHUTDOWN".to_vec(),
    }
}

/// Encodes a response as one frame, terminator excluded.
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Matches(matches) => {
            let mut out = format!("OK {}", matches.len());
            for (i, m) in matches.iter().enumerate() {
                out.push(if i == 0 { ' ' } else { ',' });
                out.push_str(&format!("{}:{}", m.id, m.distance));
            }
            out.into_bytes()
        }
        Response::Busy => b"BUSY".to_vec(),
        Response::Timeout => b"TIMEOUT".to_vec(),
        Response::Healthy => b"OK healthy".to_vec(),
        Response::Inserted(id) => format!("OK id={id}").into_bytes(),
        Response::Deleted { existed: true } => b"OK deleted".to_vec(),
        Response::Deleted { existed: false } => b"OK absent".to_vec(),
        Response::JoinHeader { total } => format!("OK join {total}").into_bytes(),
        Response::JoinPairs(pairs) => {
            let mut out = format!("OK pairs {}", pairs.len());
            for (i, p) in pairs.iter().enumerate() {
                out.push(if i == 0 { ' ' } else { ',' });
                out.push_str(&format!("{}:{}:{}", p.left, p.right, p.distance));
            }
            out.into_bytes()
        }
        Response::Stats(json) => format!("OK {json}").into_bytes(),
        Response::Bye => b"OK bye".to_vec(),
        Response::Error(msg) => {
            // The message must stay one frame: strip the only bytes that
            // would break framing.
            let clean: String = msg.chars().filter(|c| *c != '\n' && *c != '\r').collect();
            format!("ERR {clean}").into_bytes()
        }
    }
}

/// Parses one response frame (line terminator already stripped).
pub fn parse_response(line: &[u8]) -> Result<Response, ProtocolError> {
    check_frame(line)?;
    match line {
        b"BUSY" => return Ok(Response::Busy),
        b"TIMEOUT" => return Ok(Response::Timeout),
        b"OK healthy" => return Ok(Response::Healthy),
        b"OK bye" => return Ok(Response::Bye),
        b"OK deleted" => return Ok(Response::Deleted { existed: true }),
        b"OK absent" => return Ok(Response::Deleted { existed: false }),
        _ => {}
    }
    if let Some(msg) = line.strip_prefix(b"ERR ") {
        return Ok(Response::Error(String::from_utf8_lossy(msg).into_owned()));
    }
    if let Some(payload) = line.strip_prefix(b"OK ") {
        if let Some(id) = payload.strip_prefix(b"id=") {
            let id = std::str::from_utf8(id)
                .ok()
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or_else(|| {
                    ProtocolError::BadInteger(String::from_utf8_lossy(id).into_owned())
                })?;
            return Ok(Response::Inserted(id));
        }
        // The join frames must be dispatched before the match-list
        // fallback, which would try (and fail) to split their triples.
        if let Some(total) = payload.strip_prefix(b"join ") {
            let total = std::str::from_utf8(total)
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| {
                    ProtocolError::BadInteger(String::from_utf8_lossy(total).into_owned())
                })?;
            return Ok(Response::JoinHeader { total });
        }
        if let Some(list) = payload.strip_prefix(b"pairs ") {
            return parse_pairs(list);
        }
        if payload.first() == Some(&b'{') {
            let json = std::str::from_utf8(payload)
                .map_err(|_| ProtocolError::BadInteger("non-UTF-8 JSON".into()))?;
            return Ok(Response::Stats(json.to_string()));
        }
        return parse_matches(payload);
    }
    let verb = line.split(|&b| b == b' ').next().unwrap_or(line);
    Err(ProtocolError::UnknownVerb(
        String::from_utf8_lossy(verb).into_owned(),
    ))
}

fn parse_matches(payload: &[u8]) -> Result<Response, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtocolError::BadInteger("non-UTF-8 match list".into()))?;
    let (count_str, list) = match text.split_once(' ') {
        Some((c, l)) => (c, Some(l)),
        None => (text, None),
    };
    let count: usize = count_str
        .parse()
        .map_err(|_| ProtocolError::BadInteger(count_str.to_string()))?;
    let mut matches = Vec::new();
    if let Some(list) = list {
        for item in list.split(',') {
            let (id, d) = item
                .split_once(':')
                .ok_or_else(|| ProtocolError::BadInteger(item.to_string()))?;
            let id: u32 = id
                .parse()
                .map_err(|_| ProtocolError::BadInteger(id.to_string()))?;
            let d: u32 = d
                .parse()
                .map_err(|_| ProtocolError::BadInteger(d.to_string()))?;
            matches.push(Match::new(id, d));
        }
    }
    if matches.len() != count {
        return Err(ProtocolError::BadInteger(format!(
            "count {count} != {} matches",
            matches.len()
        )));
    }
    Ok(Response::Matches(matches))
}

fn parse_pairs(payload: &[u8]) -> Result<Response, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtocolError::BadInteger("non-UTF-8 pair list".into()))?;
    let (count_str, list) = match text.split_once(' ') {
        Some((c, l)) => (c, Some(l)),
        None => (text, None),
    };
    let count: usize = count_str
        .parse()
        .map_err(|_| ProtocolError::BadInteger(count_str.to_string()))?;
    let mut pairs = Vec::new();
    if let Some(list) = list {
        for item in list.split(',') {
            let mut fields = item.split(':');
            let (l, r, d) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
                (Some(l), Some(r), Some(d), None) => (l, r, d),
                _ => return Err(ProtocolError::BadInteger(item.to_string())),
            };
            let parse = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| ProtocolError::BadInteger(s.to_string()))
            };
            pairs.push(JoinPair {
                left: parse(l)?,
                right: parse(r)?,
                distance: parse(d)?,
            });
        }
    }
    if pairs.len() != count {
        return Err(ProtocolError::BadInteger(format!(
            "count {count} != {} pairs",
            pairs.len()
        )));
    }
    Ok(Response::JoinPairs(pairs))
}

/// Encodes a [`MatchSet`] as the canonical `OK …` reply.
pub fn matches_response(matches: &MatchSet) -> Response {
    Response::Matches(matches.iter().copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let cases = [
            Request::Query {
                k: 2,
                text: b"Berlin".to_vec(),
            },
            Request::Query {
                k: 0,
                text: Vec::new(),
            },
            Request::Query {
                k: 4_000_000,
                text: b"New York City".to_vec(), // spaces survive
            },
            Request::TopK {
                count: 10,
                text: b"ACGT".to_vec(),
            },
            Request::Insert {
                text: b"New York City".to_vec(), // spaces survive
            },
            Request::Insert { text: Vec::new() }, // empty record is legal
            Request::Delete { id: 0 },
            Request::Delete { id: u32::MAX },
            Request::Join { k: 1 },
            Request::Join { k: u32::MAX },
            Request::Stats,
            Request::Health,
            Request::Shutdown,
        ];
        for r in cases {
            let encoded = encode_request(&r);
            assert_eq!(parse_request(&encoded), Ok(r.clone()), "{r:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = [
            Response::Matches(vec![]),
            Response::Matches(vec![Match::new(3, 1), Match::new(17, 0)]),
            Response::Busy,
            Response::Timeout,
            Response::Healthy,
            Response::Bye,
            Response::Inserted(0),
            Response::Inserted(u32::MAX),
            Response::Deleted { existed: true },
            Response::Deleted { existed: false },
            Response::Stats("{\"schema\": \"simsearch-bench-v2\"}".into()),
            Response::Error("bad integer 'x'".into()),
            Response::JoinHeader { total: 0 },
            Response::JoinHeader { total: u64::MAX },
            Response::JoinPairs(vec![]),
            Response::JoinPairs(vec![
                JoinPair {
                    left: 0,
                    right: 7,
                    distance: 1,
                },
                JoinPair {
                    left: u32::MAX - 1,
                    right: u32::MAX,
                    distance: 0,
                },
            ]),
        ];
        for r in cases {
            let encoded = encode_response(&r);
            assert_eq!(parse_response(&encoded), Ok(r.clone()), "{r:?}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        let bad: &[&[u8]] = &[
            b"",
            b"QUERY",
            b"QUERY 2",        // no space after k: not self-delimiting
            b"QUERY x Berlin", // non-numeric k
            b"QUERY -1 a",
            b"QUERY 99999999999999999999 a", // u32 overflow
            b"query 2 a",                    // verbs are case-sensitive
            b"FROBNICATE",
            b"STATS now",
            b"\xff\xfe\x00",
            b"QUERY 2 a\rb",
            b"INSERT",                       // bare mutation verbs
            b"DELETE",
            b"DELETE x",                     // non-numeric id
            b"DELETE -1",
            b"DELETE 99999999999999999999",  // u32 overflow
            b"DELETE 1 2",                   // trailing junk
            b"insert a",
            b"JOIN",                         // bare verb
            b"JOIN x",                       // non-numeric k
            b"JOIN -1",
            b"JOIN 99999999999999999999",    // u32 overflow
            b"JOIN 1 quantum",               // unknown algorithm
            b"JOIN 1 pass extra",            // trailing junk
            b"JOIN 1 PASS",                  // tokens are case-sensitive
            b"join 1",
        ];
        for frame in bad {
            assert!(
                parse_request(frame).is_err(),
                "{:?} should be rejected",
                String::from_utf8_lossy(frame)
            );
        }
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let long = vec![b'A'; MAX_LINE_BYTES + 1];
        assert_eq!(parse_request(&long), Err(ProtocolError::TooLong));
        let mut just_fits = b"QUERY 1 ".to_vec();
        just_fits.resize(MAX_LINE_BYTES, b'a');
        assert!(parse_request(&just_fits).is_ok());
    }

    #[test]
    fn match_list_count_must_agree() {
        assert!(parse_response(b"OK 2 1:0").is_err());
        assert!(parse_response(b"OK 0").is_ok());
        assert!(parse_response(b"OK 1 5:2").is_ok());
    }

    #[test]
    fn join_requests_parse_with_and_without_algo() {
        // `JOIN <k> pass` is the one kept spelling of the algorithm
        // token: both forms are the same request.
        let join = Request::Join { k: 1 };
        assert_eq!(parse_request(b"JOIN 1"), Ok(join.clone()));
        assert_eq!(parse_request(b"JOIN 1 pass"), Ok(join.clone()));
        assert_eq!(parse_request(&encode_request(&join)), Ok(join));
        for other in ["minjoin", "quantum"] {
            let err = parse_request(format!("JOIN 1 {other}").as_bytes()).unwrap_err();
            assert_eq!(err, ProtocolError::UnknownAlgo(other.into()));
            assert_eq!(
                err.to_string(),
                format!("unknown join algorithm '{other}' (expected pass)")
            );
        }
    }

    #[test]
    fn pair_list_count_and_shape_must_agree() {
        assert!(parse_response(b"OK pairs 2 1:2:0").is_err());
        assert!(parse_response(b"OK pairs 0").is_ok());
        assert!(parse_response(b"OK pairs 1 1:2:0").is_ok());
        assert!(parse_response(b"OK pairs 1 1:2").is_err()); // pair, not match
        assert!(parse_response(b"OK pairs 1 1:2:0:9").is_err());
        assert!(parse_response(b"OK pairs 1 1:x:0").is_err());
        assert!(parse_response(b"OK join x").is_err());
        assert!(parse_response(b"OK join").is_err()); // falls through to matches: bad count
    }

    #[test]
    fn error_display_is_actionable() {
        let err = parse_request(b"NOPE").unwrap_err();
        assert!(err.to_string().contains("NOPE"));
        assert!(err.to_string().contains("QUERY"));
        assert!(err.to_string().contains("INSERT"));
        let err = parse_request(b"INSERT").unwrap_err();
        assert_eq!(err, ProtocolError::MissingArg("INSERT", "<text>"));
        assert!(err.to_string().contains("<text>"));
        let err = parse_request(b"DELETE").unwrap_err();
        assert_eq!(err, ProtocolError::MissingArg("DELETE", "<id>"));
        let err = parse_request(b"NOPE").unwrap_err();
        assert!(err.to_string().contains("JOIN"));
        let err = parse_request(b"JOIN").unwrap_err();
        assert_eq!(err, ProtocolError::MissingArg("JOIN", "<k> [pass]"));
    }

    #[test]
    fn insert_id_replies_parse_strictly() {
        assert_eq!(parse_response(b"OK id=7"), Ok(Response::Inserted(7)));
        assert!(parse_response(b"OK id=").is_err());
        assert!(parse_response(b"OK id=x").is_err());
        assert!(parse_response(b"OK id=-1").is_err());
        assert!(parse_response(b"OK id=99999999999999999999").is_err());
    }
}
