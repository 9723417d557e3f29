//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or reply — is one frame:
//!
//! ```text
//! +----------------------+----------------------+
//! | u32 big-endian length| <length> bytes JSON  |
//! +----------------------+----------------------+
//! ```
//!
//! Requests (`"type"` selects the verb):
//!
//! ```json
//! {"type": "submit", "graph": {"shape": "cholesky", "size": 8},
//!  "p": 32, "model": "amdahl", "seed": 7, "scheduler": "online",
//!  "include_allocations": false}
//! {"type": "submit", "graph": {"mtg": "p 8\ntask 0 amdahl(w=4)\n"}}
//! {"type": "stats"}
//! {"type": "ping"}
//! {"type": "shutdown"}
//! ```
//!
//! Session verbs (the streaming multi-tenant layer; see
//! [`crate::sessions`]):
//!
//! ```json
//! {"type": "open_session", "tenant": "acme", "session": "acme-1"}
//! {"type": "submit_dag", "session": "acme-1", "at": 3.5,
//!  "graph": {"shape": "chain", "size": 4}, "model": "amdahl", "seed": 7}
//! {"type": "poll", "session": "acme-1", "until": 10.0, "max_events": 256}
//! {"type": "close_session", "session": "acme-1"}
//! ```
//!
//! Batched submits (`submit_batch`) pack many inner requests into one
//! frame; `items[i]` is a complete request object, and the single
//! reply carries `results[i]` — the reply object `items[i]` would
//! have received on its own:
//!
//! ```json
//! {"type": "submit_batch", "items": [
//!   {"type": "submit", "graph": {"shape": "lu", "size": 3}},
//!   {"type": "ping"}]}
//! ```
//!
//! Replies always carry a `"status"` of `"ok"`, `"error"`,
//! `"overloaded"` (the backpressure reply — the request was *not*
//! queued and may be retried later), or `"quota_exceeded"` (a session
//! submission bounced off a per-tenant admission quota; the reply
//! names the `scope`, `used`, and `limit`).

use std::fmt;
use std::io::{self, Read, Write};

use crate::json::{self, obj, Json};

/// Hard ceiling on any frame length, whatever the configured limit —
/// a length prefix beyond this is treated as a framing error and the
/// connection is dropped rather than resynchronized.
pub const ABSOLUTE_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Errors arising while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer announced a frame larger than the configured limit.
    /// The payload was consumed, so the connection stays usable.
    TooLarge {
        /// Announced payload size.
        announced: u32,
        /// The limit it exceeded.
        limit: u32,
    },
    /// The length prefix exceeds [`ABSOLUTE_MAX_FRAME`]; the stream is
    /// assumed desynchronized and must be closed.
    Corrupt(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::TooLarge { announced, limit } => {
                write!(f, "frame of {announced} bytes exceeds limit {limit}")
            }
            Self::Corrupt(n) => write!(f, "implausible frame length {n}; closing"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Read one frame. `Ok(None)` signals clean EOF (peer closed between
/// frames).
///
/// On [`FrameError::TooLarge`] the oversized payload is drained so the
/// caller can reply with a structured error and keep the connection.
///
/// # Errors
///
/// [`FrameError`] on socket failure, oversized, or corrupt frames.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf) {
        Ok(false) => return Ok(None),
        Ok(true) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > ABSOLUTE_MAX_FRAME {
        return Err(FrameError::Corrupt(len));
    }
    if len > max_len {
        // Drain and discard so the stream stays framed.
        let mut remaining = len as u64;
        let mut sink = [0u8; 8192];
        while remaining > 0 {
            let take = sink
                .len()
                .min(usize::try_from(remaining).unwrap_or(usize::MAX));
            r.read_exact(&mut sink[..take]).map_err(FrameError::Io)?;
            remaining -= take as u64;
        }
        return Err(FrameError::TooLarge {
            announced: len,
            limit: max_len,
        });
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    Ok(Some(buf))
}

/// Write one frame.
///
/// # Errors
///
/// Propagates socket errors.
///
/// # Panics
///
/// Panics if `payload` exceeds [`ABSOLUTE_MAX_FRAME`] bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame fits u32");
    assert!(
        len <= ABSOLUTE_MAX_FRAME,
        "refusing to write a corrupt-sized frame"
    );
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// `read_exact`, except a clean EOF before the first byte returns
/// `Ok(false)` instead of an error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One event produced by the incremental [`FrameDecoder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer announced a frame larger than the configured limit.
    /// The decoder silently skips the payload bytes, so the stream
    /// stays framed and the connection stays usable.
    TooLarge {
        /// Announced payload size.
        announced: u32,
        /// The limit it exceeded.
        limit: u32,
    },
    /// The length prefix exceeds [`ABSOLUTE_MAX_FRAME`]; the stream is
    /// desynchronized. The decoder poisons itself: all further input
    /// is discarded and the connection must be closed.
    Corrupt(u32),
}

#[derive(Debug)]
enum DecodeState {
    /// Accumulating the 4-byte big-endian length prefix.
    Len { buf: [u8; 4], filled: usize },
    /// Accumulating `buf.len()` payload bytes.
    Body { buf: Vec<u8>, filled: usize },
    /// Skipping the payload of an over-limit frame.
    Skip { remaining: u64 },
    /// A corrupt length prefix was seen; discard everything.
    Poisoned,
}

/// Incremental, non-blocking counterpart of [`read_frame`]: feed it
/// whatever bytes the socket yields — one byte at a time if need be —
/// and collect complete frames as they materialize.
///
/// The error taxonomy matches the blocking reader exactly:
/// [`DecodeEvent::TooLarge`] skips the payload and resynchronizes
/// (mirroring [`FrameError::TooLarge`]'s drain), while
/// [`DecodeEvent::Corrupt`] poisons the decoder (mirroring
/// [`FrameError::Corrupt`]'s close-the-connection contract).
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: u32,
    state: DecodeState,
}

impl FrameDecoder {
    /// A fresh decoder enforcing `max_frame` as the per-frame limit.
    #[must_use]
    pub fn new(max_frame: u32) -> Self {
        Self {
            max_frame,
            state: DecodeState::Len {
                buf: [0; 4],
                filled: 0,
            },
        }
    }

    /// True while a frame is partially buffered (length prefix started,
    /// body incomplete, or an oversized payload mid-skip). Used by the
    /// event loop to avoid closing a connection mid-frame on drain.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        match &self.state {
            DecodeState::Len { filled, .. } => *filled > 0,
            DecodeState::Body { .. } | DecodeState::Skip { .. } => true,
            DecodeState::Poisoned => false,
        }
    }

    /// Consume `input`, appending every decode event to `out`.
    pub fn feed(&mut self, mut input: &[u8], out: &mut Vec<DecodeEvent>) {
        while !input.is_empty() {
            match &mut self.state {
                DecodeState::Poisoned => return,
                DecodeState::Len { buf, filled } => {
                    let take = input.len().min(4 - *filled);
                    buf[*filled..*filled + take].copy_from_slice(&input[..take]);
                    *filled += take;
                    input = &input[take..];
                    if *filled == 4 {
                        let len = u32::from_be_bytes(*buf);
                        self.state = self.next_state_for(len, out);
                    }
                }
                DecodeState::Body { buf, filled } => {
                    let take = input.len().min(buf.len() - *filled);
                    buf[*filled..*filled + take].copy_from_slice(&input[..take]);
                    *filled += take;
                    input = &input[take..];
                    if *filled == buf.len() {
                        let frame = std::mem::take(buf);
                        out.push(DecodeEvent::Frame(frame));
                        self.state = DecodeState::Len {
                            buf: [0; 4],
                            filled: 0,
                        };
                    }
                }
                DecodeState::Skip { remaining } => {
                    let take = input
                        .len()
                        .min(usize::try_from(*remaining).unwrap_or(usize::MAX));
                    *remaining -= take as u64;
                    input = &input[take..];
                    if *remaining == 0 {
                        self.state = DecodeState::Len {
                            buf: [0; 4],
                            filled: 0,
                        };
                    }
                }
            }
        }
    }

    fn next_state_for(&self, len: u32, out: &mut Vec<DecodeEvent>) -> DecodeState {
        if len > ABSOLUTE_MAX_FRAME {
            out.push(DecodeEvent::Corrupt(len));
            return DecodeState::Poisoned;
        }
        if len > self.max_frame {
            out.push(DecodeEvent::TooLarge {
                announced: len,
                limit: self.max_frame,
            });
            return DecodeState::Skip {
                remaining: u64::from(len),
            };
        }
        if len == 0 {
            out.push(DecodeEvent::Frame(Vec::new()));
            return DecodeState::Len {
                buf: [0; 4],
                filled: 0,
            };
        }
        DecodeState::Body {
            buf: vec![0; len as usize],
            filled: 0,
        }
    }
}

/// Split the canonical `submit_batch` encoding into its raw item
/// payloads *without* a full JSON parse, so the event loop stays cheap
/// and workers parse items in parallel.
///
/// Fast path only: recognizes exactly the byte shape
/// `{"type":"submit_batch","items":[...]}` that [`Request::encode`]
/// produces (leading/trailing whitespace tolerated). Returns `None`
/// for anything else — including non-batch requests and batches with
/// reordered keys — so callers fall back to [`Request::parse`].
#[must_use]
pub fn split_batch_items(payload: &[u8]) -> Option<Vec<Vec<u8>>> {
    const PREFIX: &[u8] = b"{\"type\":\"submit_batch\",\"items\":[";
    let trimmed = trim_ascii_ws(payload);
    let body = trimmed.strip_prefix(PREFIX)?;
    let mut items = Vec::new();
    let (mut depth, mut in_str, mut esc) = (0usize, false, false);
    let mut start = 0usize;
    for (i, &b) in body.iter().enumerate() {
        if in_str {
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth > 0 => depth -= 1,
            b']' => {
                // End of the items array: everything after must be the
                // closing brace of the envelope.
                let item = trim_ascii_ws(&body[start..i]);
                if !item.is_empty() {
                    items.push(item.to_vec());
                } else if !items.is_empty() {
                    return None; // trailing comma
                }
                let rest = trim_ascii_ws(&body[i + 1..]);
                return (rest == b"}").then_some(items);
            }
            b',' if depth == 0 => {
                let item = trim_ascii_ws(&body[start..i]);
                if item.is_empty() {
                    return None; // empty element
                }
                items.push(item.to_vec());
                start = i + 1;
            }
            _ => {}
        }
    }
    None // unterminated items array
}

fn trim_ascii_ws(mut bytes: &[u8]) -> &[u8] {
    while let [b, rest @ ..] = bytes {
        if b.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., b] = bytes {
        if b.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// How the graph of a submit request is specified.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Inline `.mtg` workflow text.
    Inline(String),
    /// A named generator from `moldable_graph::gen`.
    Named {
        /// Shape name (see [`moldable_graph::gen::by_name`]).
        shape: String,
        /// Shape size parameter.
        size: u32,
    },
    /// Inline workflow-trace text in DOT digraph form (wire key
    /// `trace-dot`); task weights and speedup parameters are derived
    /// from the trace plus the request's model and seed.
    TraceDot(String),
    /// Inline workflow-trace text in JSON form (wire key `trace-json`).
    TraceJson(String),
}

/// Parse the `graph` member shared by `submit` and `submit_dag`.
fn parse_graph_spec(g: &Json) -> Result<GraphSpec, String> {
    if let Some(mtg) = g.get("mtg").and_then(Json::as_str) {
        return Ok(GraphSpec::Inline(mtg.to_string()));
    }
    if let Some(text) = g.get("trace-dot").and_then(Json::as_str) {
        return Ok(GraphSpec::TraceDot(text.to_string()));
    }
    if let Some(text) = g.get("trace-json").and_then(Json::as_str) {
        return Ok(GraphSpec::TraceJson(text.to_string()));
    }
    if let Some(shape) = g.get("shape").and_then(Json::as_str) {
        let size = g
            .get("size")
            .and_then(Json::as_u64)
            .ok_or("graph.size must be a non-negative integer")?;
        let size = u32::try_from(size).map_err(|_| "graph.size out of range".to_string())?;
        return Ok(GraphSpec::Named {
            shape: shape.to_string(),
            size,
        });
    }
    Err("graph needs `mtg` (inline text), `trace-dot`/`trace-json` (workflow trace), or `shape`+`size`".to_string())
}

fn required_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(ToString::to_string)
        .ok_or(format!("missing string field `{key}`"))
}

fn optional_str(v: &Json, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default.to_string()),
        Some(x) => x
            .as_str()
            .map(ToString::to_string)
            .ok_or(format!("`{key}` must be a string")),
    }
}

fn optional_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or(format!("`{key}` must be a non-negative integer")),
    }
}

fn encode_graph_spec(spec: &GraphSpec) -> Json {
    match spec {
        GraphSpec::Inline(mtg) => obj(vec![("mtg", Json::Str(mtg.clone()))]),
        GraphSpec::Named { shape, size } => obj(vec![
            ("shape", Json::Str(shape.clone())),
            ("size", Json::Num(f64::from(*size))),
        ]),
        GraphSpec::TraceDot(text) => obj(vec![("trace-dot", Json::Str(text.clone()))]),
        GraphSpec::TraceJson(text) => obj(vec![("trace-json", Json::Str(text.clone()))]),
    }
}

/// A parsed scheduling request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The task graph to schedule.
    pub graph: GraphSpec,
    /// Platform size (falls back to the `.mtg` `p` hint when absent).
    pub p: Option<u32>,
    /// Model class for generated graphs (default `amdahl`).
    pub model: String,
    /// Generator seed (default 42).
    pub seed: u64,
    /// Scheduler name (default `online`).
    pub scheduler: String,
    /// Algorithm registry name for the online scheduler (default
    /// `icpp22`; see `moldable_core::registry::by_name`).
    pub algo: String,
    /// Explicit μ for the online scheduler.
    pub mu: Option<f64>,
    /// Queue policy name for the online scheduler.
    pub policy: Option<String>,
    /// Return per-task placements in the reply.
    pub include_allocations: bool,
}

/// Open a tenant session (streaming layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenSessionRequest {
    /// Tenant name — the unit of quota accounting.
    pub tenant: String,
    /// Session label, unique across the server.
    pub session: String,
}

/// Stream one DAG into an open session with a release date.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitDagRequest {
    /// Target session label.
    pub session: String,
    /// Release date on the shared virtual clock (must be ≥ the
    /// session's poll frontier).
    pub at: f64,
    /// The task graph to admit.
    pub graph: GraphSpec,
    /// Model class for generated/trace graphs (default `amdahl`).
    pub model: String,
    /// Generator seed (default 42).
    pub seed: u64,
    /// Algorithm registry name for the session's online scheduler
    /// (default `icpp22`).
    pub algo: String,
}

/// Read back completion events, optionally advancing the session's
/// virtual-time frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct PollRequest {
    /// Target session label.
    pub session: String,
    /// Advance the session frontier to this virtual time first.
    pub until: Option<f64>,
    /// Event batch cap for this poll (default 256).
    pub max_events: u64,
}

/// Close a session: no more submissions, drain what is in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloseSessionRequest {
    /// Target session label.
    pub session: String,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Schedule a task graph.
    Submit(Box<SubmitRequest>),
    /// Many requests in one frame: each element is the raw JSON
    /// payload of one inner request, executed in order by a single
    /// worker, answered with one `{"status":"ok","results":[...]}`
    /// frame. Amortizes framing and syscalls over many submits.
    Batch(Vec<Vec<u8>>),
    /// Report server counters and latency percentiles.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain: stop accepting, finish queued work, exit.
    Shutdown,
    /// Open a tenant session.
    OpenSession(OpenSessionRequest),
    /// Stream a DAG into an open session.
    SubmitDag(Box<SubmitDagRequest>),
    /// Read completion events from a session.
    Poll(PollRequest),
    /// Close a session and drain it.
    CloseSession(CloseSessionRequest),
}

impl Request {
    /// Parse a request frame.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first problem.
    pub fn parse(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing string field `type`")?;
        match ty {
            "ping" => Ok(Self::Ping),
            "stats" => Ok(Self::Stats),
            "shutdown" => Ok(Self::Shutdown),
            "submit" => Ok(Self::Submit(Box::new(Self::parse_submit(&v)?))),
            "submit_batch" => {
                let items = v
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or("submit_batch requires an `items` array")?;
                Ok(Self::Batch(
                    items
                        .iter()
                        .map(|item| item.encode().into_bytes())
                        .collect(),
                ))
            }
            "open_session" => Ok(Self::OpenSession(OpenSessionRequest {
                tenant: required_str(&v, "tenant")?,
                session: required_str(&v, "session")?,
            })),
            "submit_dag" => Ok(Self::SubmitDag(Box::new(Self::parse_submit_dag(&v)?))),
            "poll" => Ok(Self::Poll(Self::parse_poll(&v)?)),
            "close_session" => Ok(Self::CloseSession(CloseSessionRequest {
                session: required_str(&v, "session")?,
            })),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    fn parse_submit_dag(v: &Json) -> Result<SubmitDagRequest, String> {
        let g = v
            .get("graph")
            .ok_or("submit_dag requires a `graph` object")?;
        let at = v
            .get("at")
            .and_then(Json::as_f64)
            .ok_or("submit_dag requires a numeric `at` (release date)")?;
        Ok(SubmitDagRequest {
            session: required_str(v, "session")?,
            at,
            graph: parse_graph_spec(g)?,
            model: optional_str(v, "model", "amdahl")?,
            seed: optional_u64(v, "seed")?.unwrap_or(42),
            algo: optional_str(v, "algo", "icpp22")?,
        })
    }

    fn parse_poll(v: &Json) -> Result<PollRequest, String> {
        let until = match v.get("until") {
            None | Some(Json::Null) => None,
            Some(x) => Some(x.as_f64().ok_or("`until` must be a number")?),
        };
        Ok(PollRequest {
            session: required_str(v, "session")?,
            until,
            max_events: optional_u64(v, "max_events")?.unwrap_or(256),
        })
    }

    fn parse_submit(v: &Json) -> Result<SubmitRequest, String> {
        let g = v.get("graph").ok_or("submit requires a `graph` object")?;
        let graph = parse_graph_spec(g)?;
        let num_field = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("`{key}` must be a non-negative integer")),
            }
        };
        let p = match num_field("p")? {
            Some(p) => Some(u32::try_from(p).map_err(|_| "`p` out of range".to_string())?),
            None => None,
        };
        let mu = match v.get("mu") {
            None | Some(Json::Null) => None,
            Some(x) => Some(x.as_f64().ok_or("`mu` must be a number")?),
        };
        let str_field = |key: &str, default: &str| -> Result<String, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default.to_string()),
                Some(x) => x
                    .as_str()
                    .map(ToString::to_string)
                    .ok_or(format!("`{key}` must be a string")),
            }
        };
        Ok(SubmitRequest {
            graph,
            p,
            model: str_field("model", "amdahl")?,
            seed: num_field("seed")?.unwrap_or(42),
            scheduler: str_field("scheduler", "online")?,
            algo: str_field("algo", "icpp22")?,
            mu,
            policy: match v.get("policy") {
                None | Some(Json::Null) => None,
                Some(x) => Some(
                    x.as_str()
                        .map(ToString::to_string)
                        .ok_or("`policy` must be a string")?,
                ),
            },
            include_allocations: v
                .get("include_allocations")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Encode this request as a JSON payload (used by clients).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        if let Self::Batch(items) = self {
            // Items are already-encoded JSON payloads; splice them in
            // verbatim so batching never re-parses what clients built.
            let mut out = Vec::with_capacity(34 + items.iter().map(|i| i.len() + 1).sum::<usize>());
            out.extend_from_slice(b"{\"type\":\"submit_batch\",\"items\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(item);
            }
            out.extend_from_slice(b"]}");
            return out;
        }
        let v = match self {
            Self::Ping => obj(vec![("type", Json::Str("ping".into()))]),
            Self::Stats => obj(vec![("type", Json::Str("stats".into()))]),
            Self::Shutdown => obj(vec![("type", Json::Str("shutdown".into()))]),
            Self::OpenSession(o) => obj(vec![
                ("type", Json::Str("open_session".into())),
                ("tenant", Json::Str(o.tenant.clone())),
                ("session", Json::Str(o.session.clone())),
            ]),
            Self::SubmitDag(s) => obj(vec![
                ("type", Json::Str("submit_dag".into())),
                ("session", Json::Str(s.session.clone())),
                ("at", Json::Num(s.at)),
                ("graph", encode_graph_spec(&s.graph)),
                ("model", Json::Str(s.model.clone())),
                #[allow(clippy::cast_precision_loss)]
                ("seed", Json::Num(s.seed as f64)),
                ("algo", Json::Str(s.algo.clone())),
            ]),
            Self::Poll(p) => {
                let mut members = vec![
                    ("type", Json::Str("poll".into())),
                    ("session", Json::Str(p.session.clone())),
                    #[allow(clippy::cast_precision_loss)]
                    ("max_events", Json::Num(p.max_events as f64)),
                ];
                if let Some(until) = p.until {
                    members.push(("until", Json::Num(until)));
                }
                obj(members)
            }
            Self::CloseSession(c) => obj(vec![
                ("type", Json::Str("close_session".into())),
                ("session", Json::Str(c.session.clone())),
            ]),
            Self::Submit(s) => {
                let graph = encode_graph_spec(&s.graph);
                let mut members = vec![
                    ("type", Json::Str("submit".into())),
                    ("graph", graph),
                    ("model", Json::Str(s.model.clone())),
                    #[allow(clippy::cast_precision_loss)]
                    ("seed", Json::Num(s.seed as f64)),
                    ("scheduler", Json::Str(s.scheduler.clone())),
                    ("algo", Json::Str(s.algo.clone())),
                ];
                if let Some(p) = s.p {
                    members.push(("p", Json::Num(f64::from(p))));
                }
                if let Some(mu) = s.mu {
                    members.push(("mu", Json::Num(mu)));
                }
                if let Some(pol) = &s.policy {
                    members.push(("policy", Json::Str(pol.clone())));
                }
                if s.include_allocations {
                    members.push(("include_allocations", Json::Bool(true)));
                }
                obj(members)
            }
            Self::Batch(_) => unreachable!("batch encoding handled above"),
        };
        v.encode().into_bytes()
    }
}

/// Build the structured `{"status": "error"}` reply payload.
#[must_use]
pub fn error_reply(msg: &str) -> Vec<u8> {
    obj(vec![
        ("status", Json::Str("error".into())),
        ("error", Json::Str(msg.to_string())),
    ])
    .encode()
    .into_bytes()
}

/// Build the structured `{"status": "quota_exceeded"}` reply payload
/// for a session submission that bounced off a per-tenant quota.
#[must_use]
pub fn quota_reply(msg: &str, scope: &str, used: u64, limit: u64) -> Vec<u8> {
    #[allow(clippy::cast_precision_loss)]
    obj(vec![
        ("status", Json::Str("quota_exceeded".into())),
        ("error", Json::Str(msg.to_string())),
        ("scope", Json::Str(scope.to_string())),
        ("used", Json::Num(used as f64)),
        ("limit", Json::Num(limit as f64)),
    ])
    .encode()
    .into_bytes()
}

/// Build the backpressure `{"status": "overloaded"}` reply payload.
#[must_use]
pub fn overloaded_reply() -> Vec<u8> {
    obj(vec![("status", Json::Str("overloaded".into()))])
        .encode()
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_drained_and_reported() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        write_frame(&mut buf, b"next").unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 10) {
            Err(FrameError::TooLarge { announced, limit }) => {
                assert_eq!((announced, limit), (100, 10));
            }
            other => panic!("{other:?}"),
        }
        // The stream stays framed: the next frame reads fine.
        assert_eq!(read_frame(&mut r, 10).unwrap().unwrap(), b"next");
    }

    #[test]
    fn corrupt_length_prefix_is_fatal() {
        let mut buf = (ABSOLUTE_MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"only5");
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Io(_))));
    }

    #[test]
    fn submit_requests_roundtrip() {
        let req = Request::Submit(Box::new(SubmitRequest {
            graph: GraphSpec::Named {
                shape: "cholesky".into(),
                size: 8,
            },
            p: Some(32),
            model: "general".into(),
            seed: 7,
            scheduler: "online".into(),
            algo: "improved23".into(),
            mu: Some(0.3),
            policy: Some("lpt".into()),
            include_allocations: true,
        }));
        let parsed = Request::parse(&req.encode()).unwrap();
        assert_eq!(parsed, req);

        let inline = Request::Submit(Box::new(SubmitRequest {
            graph: GraphSpec::Inline("p 4\ntask 0 amdahl(w=2)\n".into()),
            p: None,
            model: "amdahl".into(),
            seed: 42,
            scheduler: "online".into(),
            algo: "icpp22".into(),
            mu: None,
            policy: None,
            include_allocations: false,
        }));
        assert_eq!(Request::parse(&inline.encode()).unwrap(), inline);
        for req in [Request::Ping, Request::Stats, Request::Shutdown] {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn session_requests_roundtrip() {
        let reqs = [
            Request::OpenSession(OpenSessionRequest {
                tenant: "acme".into(),
                session: "acme-1".into(),
            }),
            Request::SubmitDag(Box::new(SubmitDagRequest {
                session: "acme-1".into(),
                at: 3.5,
                graph: GraphSpec::Named {
                    shape: "chain".into(),
                    size: 4,
                },
                model: "roofline".into(),
                seed: 9,
                algo: "improved23".into(),
            })),
            Request::SubmitDag(Box::new(SubmitDagRequest {
                session: "acme-1".into(),
                at: 0.0,
                graph: GraphSpec::TraceDot("digraph g { a -> b }".into()),
                model: "amdahl".into(),
                seed: 42,
                algo: "icpp22".into(),
            })),
            Request::SubmitDag(Box::new(SubmitDagRequest {
                session: "acme-1".into(),
                at: 1.0,
                graph: GraphSpec::TraceJson("{\"tasks\":[]}".into()),
                model: "amdahl".into(),
                seed: 42,
                algo: "icpp22".into(),
            })),
            Request::Poll(PollRequest {
                session: "acme-1".into(),
                until: Some(10.0),
                max_events: 128,
            }),
            Request::Poll(PollRequest {
                session: "acme-1".into(),
                until: None,
                max_events: 256,
            }),
            Request::CloseSession(CloseSessionRequest {
                session: "acme-1".into(),
            }),
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn submit_dag_defaults_match_submit() {
        let parsed = Request::parse(
            br#"{"type":"submit_dag","session":"s","at":2.0,"graph":{"shape":"chain","size":3}}"#,
        )
        .unwrap();
        match parsed {
            Request::SubmitDag(s) => {
                assert_eq!(s.model, "amdahl");
                assert_eq!(s.seed, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_session_requests_name_the_problem() {
        let cases: &[(&[u8], &str)] = &[
            (br#"{"type":"open_session"}"#, "tenant"),
            (br#"{"type":"open_session","tenant":"a"}"#, "session"),
            (br#"{"type":"submit_dag","session":"s"}"#, "graph"),
            (
                br#"{"type":"submit_dag","session":"s","graph":{"shape":"chain","size":2}}"#,
                "`at`",
            ),
            (
                br#"{"type":"submit_dag","session":"s","at":0,"graph":{}}"#,
                "mtg",
            ),
            (br#"{"type":"poll","session":"s","until":"x"}"#, "`until`"),
            (
                br#"{"type":"poll","session":"s","max_events":-1}"#,
                "`max_events`",
            ),
            (br#"{"type":"close_session"}"#, "session"),
        ];
        for (payload, needle) in cases {
            let e = Request::parse(payload).unwrap_err();
            assert!(e.contains(needle), "{payload:?}: {e}");
        }
    }

    #[test]
    fn batch_requests_roundtrip() {
        let submit = Request::Submit(Box::new(SubmitRequest {
            graph: GraphSpec::Named {
                shape: "lu".into(),
                size: 3,
            },
            p: Some(8),
            model: "amdahl".into(),
            seed: 7,
            scheduler: "online".into(),
            algo: "icpp22".into(),
            mu: None,
            policy: None,
            include_allocations: false,
        }));
        let batch = Request::Batch(vec![submit.encode(), Request::Ping.encode()]);
        let parsed = Request::parse(&batch.encode()).unwrap();
        // Canonical items survive the parse → re-encode round trip
        // bit-for-bit, so both transports see identical item bytes.
        assert_eq!(parsed, batch);
        let empty = Request::Batch(Vec::new());
        assert_eq!(Request::parse(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn batch_without_items_names_the_problem() {
        let e = Request::parse(br#"{"type":"submit_batch"}"#).unwrap_err();
        assert!(e.contains("items"), "{e}");
        let e = Request::parse(br#"{"type":"submit_batch","items":3}"#).unwrap_err();
        assert!(e.contains("items"), "{e}");
    }

    #[test]
    fn split_batch_items_matches_the_full_parse() {
        let items = vec![
            br#"{"type":"ping"}"#.to_vec(),
            br#"{"type":"submit","graph":{"shape":"lu","size":3},"note":"a,b]}"}"#.to_vec(),
            br#"{"type":"stats"}"#.to_vec(),
        ];
        let frame = Request::Batch(items.clone()).encode();
        assert_eq!(split_batch_items(&frame).unwrap(), items);
        // Empty batch splits to no items.
        assert_eq!(
            split_batch_items(&Request::Batch(Vec::new()).encode()).unwrap(),
            Vec::<Vec<u8>>::new()
        );
        // Nested arrays/objects and escaped quotes stay one item.
        let tricky = vec![br#"{"a":[1,[2,3]],"b":"\"],}","c":{"d":[]}}"#.to_vec()];
        let frame = Request::Batch(tricky.clone()).encode();
        assert_eq!(split_batch_items(&frame).unwrap(), tricky);
    }

    #[test]
    fn split_batch_items_rejects_what_it_cannot_prove() {
        // Not the canonical prefix → fall back to the full parser.
        assert!(split_batch_items(br#"{"items":[],"type":"submit_batch"}"#).is_none());
        assert!(split_batch_items(br#"{"type":"submit"}"#).is_none());
        // Structural damage inside the fast path.
        assert!(split_batch_items(br#"{"type":"submit_batch","items":[{},]}"#).is_none());
        assert!(split_batch_items(br#"{"type":"submit_batch","items":[{}"#).is_none());
        assert!(split_batch_items(br#"{"type":"submit_batch","items":[{}]x"#).is_none());
    }

    #[test]
    fn frame_decoder_handles_one_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"a\":1}").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut dec = FrameDecoder::new(1024);
        let mut events = Vec::new();
        for &b in &wire {
            dec.feed(&[b], &mut events);
        }
        assert_eq!(
            events,
            vec![
                DecodeEvent::Frame(b"{\"a\":1}".to_vec()),
                DecodeEvent::Frame(Vec::new()),
                DecodeEvent::Frame(b"second".to_vec()),
            ]
        );
        assert!(!dec.mid_frame());
    }

    #[test]
    fn frame_decoder_agrees_with_the_blocking_reader_on_oversize() {
        // An over-limit frame is skipped and the stream resynchronizes,
        // exactly like read_frame's drain-and-report contract.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[b'x'; 100]).unwrap();
        write_frame(&mut wire, b"next").unwrap();
        let mut dec = FrameDecoder::new(10);
        let mut events = Vec::new();
        for &b in &wire {
            dec.feed(&[b], &mut events);
        }
        assert_eq!(
            events,
            vec![
                DecodeEvent::TooLarge {
                    announced: 100,
                    limit: 10
                },
                DecodeEvent::Frame(b"next".to_vec()),
            ]
        );
    }

    #[test]
    fn frame_decoder_poisons_on_corrupt_prefix() {
        let mut wire = (ABSOLUTE_MAX_FRAME + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(b"junk");
        let mut dec = FrameDecoder::new(1024);
        let mut events = Vec::new();
        dec.feed(&wire, &mut events);
        assert_eq!(events, vec![DecodeEvent::Corrupt(ABSOLUTE_MAX_FRAME + 1)]);
        // Poisoned: further input produces nothing.
        dec.feed(b"more", &mut events);
        assert_eq!(events.len(), 1);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn frame_decoder_reports_partial_frames() {
        let mut dec = FrameDecoder::new(1024);
        let mut events = Vec::new();
        dec.feed(&[0, 0], &mut events);
        assert!(dec.mid_frame(), "half a length prefix is mid-frame");
        dec.feed(&[0, 5, b'a', b'b'], &mut events);
        assert!(dec.mid_frame(), "body incomplete");
        dec.feed(b"cde", &mut events);
        assert_eq!(events, vec![DecodeEvent::Frame(b"abcde".to_vec())]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn frame_decoder_chunk_boundaries_do_not_matter() {
        // Whatever the chunking, the event stream is identical.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"q\":true}").unwrap();
        write_frame(&mut wire, &[b'y'; 64]).unwrap();
        let mut expect = Vec::new();
        FrameDecoder::new(32).feed(&wire, &mut expect);
        for chunk in [1usize, 2, 3, 5, 7, 11, wire.len()] {
            let mut dec = FrameDecoder::new(32);
            let mut events = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece, &mut events);
            }
            assert_eq!(events, expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn quota_reply_is_structured() {
        let v = crate::json::parse(
            std::str::from_utf8(&quota_reply("too many dags", "dags", 5, 4)).unwrap(),
        )
        .unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("quota_exceeded"));
        assert_eq!(v.get("scope").unwrap().as_str(), Some("dags"));
        assert_eq!(v.get("used").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("limit").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let cases: &[(&[u8], &str)] = &[
            (b"\xff\xfe", "UTF-8"),
            (b"{", "json error"),
            (b"[]", "type"),
            (b"{\"type\":\"frobnicate\"}", "unknown request type"),
            (b"{\"type\":\"submit\"}", "graph"),
            (b"{\"type\":\"submit\",\"graph\":{}}", "mtg"),
            (
                b"{\"type\":\"submit\",\"graph\":{\"shape\":\"lu\"}}",
                "size",
            ),
            (
                b"{\"type\":\"submit\",\"graph\":{\"shape\":\"lu\",\"size\":3},\"p\":-1}",
                "`p`",
            ),
            (
                b"{\"type\":\"submit\",\"graph\":{\"shape\":\"lu\",\"size\":3},\"mu\":\"x\"}",
                "`mu`",
            ),
        ];
        for (payload, needle) in cases {
            let e = Request::parse(payload).unwrap_err();
            assert!(e.contains(needle), "{payload:?}: {e}");
        }
    }

    #[test]
    fn canned_replies_are_valid_json() {
        let e = crate::json::parse(std::str::from_utf8(&error_reply("boom\"")).unwrap()).unwrap();
        assert_eq!(e.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(e.get("error").unwrap().as_str(), Some("boom\""));
        let o = crate::json::parse(std::str::from_utf8(&overloaded_reply()).unwrap()).unwrap();
        assert_eq!(o.get("status").unwrap().as_str(), Some("overloaded"));
    }
}
