//! The wire protocol: length-prefixed frames carrying a small JSON-ish
//! payload.
//!
//! Every message is one **frame**: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Length-prefixing keeps the
//! connection state machine trivial (no delimiter scanning, no partial
//! UTF-8 headaches) and gives the server a hard per-message size bound
//! before it allocates anything.
//!
//! The JSON dialect is deliberately small — objects, arrays, strings,
//! `f64` numbers, booleans, null — parsed and rendered by the hand-rolled
//! [`Json`] type (the container has no crates.io access, so no serde).
//! One wrinkle matters for correctness: **match scores cross the wire as
//! the hex IEEE-754 bit pattern** (`"score_bits":"bff0000000000000"`),
//! never as a decimal float. Decimal round-trips can perturb the last
//! ulp, and the serving layer's contract is that a served query's
//! results are *byte-identical* to solo execution — `tests/serve.rs`
//! compares those bits across the socket.

use relm_core::{
    QueryString, RelmError, SearchQuery, SearchStrategy, TokenizationStrategy as CoreTokenization,
};
use relm_lm::DecodingPolicy;

/// Default hard cap on one frame's payload (1 MiB) — generous for
/// lexicon-scale patterns, small enough that a hostile length prefix
/// cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Wire-format version of the request/response frame schema. Bump this
/// whenever [`Request`] or [`Response`] changes shape — `relm_lint`
/// fingerprints both types and fails CI on an unversioned edit.
// lint: allow(dead_pub, "read from this file by relm_lint's wire-drift gate (crates/analyze/src/wire.rs), which the baseline's version= fields record")
pub const PROTOCOL_VERSION: u32 = 1;

/// A protocol violation (framing or JSON) — the connection that produced
/// it is answered with an error response or closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Append one frame (length prefix + payload) to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Pop one complete frame off the front of `buf`, if present.
///
/// Returns `Ok(None)` while the frame is still partial.
///
/// # Errors
///
/// A length prefix above `max_bytes` — the caller must drop the
/// connection; the stream can never resynchronize.
pub fn decode_frame(buf: &mut Vec<u8>, max_bytes: usize) -> Result<Option<Vec<u8>>, ProtocolError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_bytes {
        return Err(err(format!("frame of {len} bytes exceeds cap {max_bytes}")));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(payload))
}

/// A JSON value in the protocol's small dialect. Numbers are `f64`
/// (exact for every integer the protocol carries — ids, seeds, widths
/// and counts all fit 2^53); anything that must round-trip bit-exactly
/// (scores) travels as a hex string instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always rendered in `f64` shortest form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (the protocol never relies on key
    /// order, but stable rendering keeps frames reproducible).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON value (the whole input must be consumed).
    ///
    /// # Errors
    ///
    /// Malformed JSON, trailing bytes, or invalid escapes.
    pub fn parse(input: &str) -> Result<Json, ProtocolError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing bytes after JSON value"));
        }
        Ok(value)
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a whole number.
    fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The value as a bool, if it is one.
    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Nesting bound for the recursive-descent parser. The protocol's own
/// messages nest three levels; the bound exists because the parser runs
/// on the serve thread against attacker-supplied payloads — without it,
/// one frame of a few kilobytes of `[` characters would overflow the
/// stack and abort the whole server process.
const MAX_JSON_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ProtocolError> {
    if depth > MAX_JSON_DEPTH {
        return Err(err(format!("JSON nested deeper than {MAX_JSON_DEPTH}")));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err("expected ':' in object"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err("expected ',' or '}' in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected ',' or ']' in array")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, ProtocolError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(format!("expected literal '{literal}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ProtocolError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("non-UTF-8 number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(format!("malformed number '{text}'")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ProtocolError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err("expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| err("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape"))?;
                        // Surrogate pairs are not supported (the protocol
                        // never emits them); lone surrogates are rejected.
                        let c = char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // byte sequence is valid by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| err("non-UTF-8"))?;
                let c = rest.chars().next().ok_or_else(|| err("empty"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// The traversal a [`QueryRequest`] asks for — the wire form of
/// [`SearchStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySpec {
    /// Dijkstra shortest path (`"strategy":"shortest"`).
    Shortest,
    /// Seeded random sampling (`"strategy":"sampling","seed":n`).
    Sampling {
        /// RNG seed (reproducible streams).
        seed: u64,
    },
    /// Beam search (`"strategy":"beam","width":n`).
    Beam {
        /// Beam width (≥ 1).
        width: usize,
    },
}

/// One query request as it crosses the wire. The subset of
/// [`SearchQuery`] the protocol exposes; [`QueryRequest::to_search_query`]
/// is the **single** mapping both server and test harness use, so a
/// served query and its solo reference are guaranteed to be the same
/// query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client-chosen correlation id, echoed in the response. Responses
    /// may arrive out of submission order (queries complete when they
    /// complete), so pipelined clients need it to match answers up.
    pub id: u64,
    /// The full pattern (prefix included), as in Figure 4 of the paper.
    pub pattern: String,
    /// Optional conditioning-prefix pattern.
    pub prefix: Option<String>,
    /// Traversal strategy.
    pub strategy: StrategySpec,
    /// Maximum matches to collect (the `take` bound; mandatory because
    /// sampling streams never end on their own).
    pub max_results: usize,
    /// Per-match token cap (model max when absent).
    pub max_tokens: Option<usize>,
    /// Top-k decoding rule (unfiltered when absent).
    pub top_k: Option<usize>,
    /// Require EOS-terminated matches (§4.4's `terminated`).
    pub require_eos: bool,
    /// Represent all token encodings (`true`) or canonical only.
    pub all_encodings: bool,
    /// Optional wall-clock budget in milliseconds: if the query has
    /// not completed this many ms after admission, the server stops it
    /// and answers [`Response::DeadlineExceeded`] instead of results.
    pub deadline_ms: Option<u64>,
}

impl QueryRequest {
    /// A request with the protocol defaults: shortest path, canonical
    /// encodings, unfiltered decoding.
    pub fn new(id: u64, pattern: impl Into<String>, max_results: usize) -> Self {
        QueryRequest {
            id,
            pattern: pattern.into(),
            prefix: None,
            strategy: StrategySpec::Shortest,
            max_results,
            max_tokens: None,
            top_k: None,
            require_eos: false,
            all_encodings: false,
            deadline_ms: None,
        }
    }

    /// Attach a conditioning prefix.
    #[must_use]
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = Some(prefix.into());
        self
    }

    /// Set the traversal strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the per-match token cap.
    #[must_use]
    pub fn with_max_tokens(mut self, max_tokens: usize) -> Self {
        self.max_tokens = Some(max_tokens);
        self
    }

    /// Set the top-k decoding rule.
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = Some(top_k);
        self
    }

    /// Set the wall-clock completion deadline in milliseconds.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The one wire-to-engine mapping: the [`SearchQuery`] this request
    /// executes as. Used by the server *and* by identity tests' solo
    /// reference runs, so the two can never drift apart.
    pub fn to_search_query(&self) -> SearchQuery {
        let mut qs = QueryString::new(self.pattern.clone());
        if let Some(prefix) = &self.prefix {
            qs = qs.with_prefix(prefix.clone());
        }
        let mut query = SearchQuery::new(qs).with_strategy(match self.strategy {
            StrategySpec::Shortest => SearchStrategy::ShortestPath,
            StrategySpec::Sampling { seed } => SearchStrategy::RandomSampling { seed },
            StrategySpec::Beam { width } => SearchStrategy::Beam { width },
        });
        if let Some(max_tokens) = self.max_tokens {
            query = query.with_max_tokens(max_tokens);
        }
        if let Some(top_k) = self.top_k {
            query = query.with_policy(DecodingPolicy::top_k(top_k));
        }
        if self.require_eos {
            query = query.with_eos_termination();
        }
        if self.all_encodings {
            query = query.with_tokenization(CoreTokenization::All);
        }
        query
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a query.
    Query(QueryRequest),
    /// Snapshot the server's counters.
    Stats,
}

impl Request {
    /// Encode to a JSON payload (framing is the transport's job).
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Request::Stats => Json::Obj(vec![("op".into(), Json::Str("stats".into()))]),
            Request::Query(q) => {
                let mut fields = vec![
                    ("op".into(), Json::Str("query".into())),
                    ("id".into(), Json::Num(q.id as f64)),
                    ("pattern".into(), Json::Str(q.pattern.clone())),
                ];
                if let Some(prefix) = &q.prefix {
                    fields.push(("prefix".into(), Json::Str(prefix.clone())));
                }
                match q.strategy {
                    StrategySpec::Shortest => {
                        fields.push(("strategy".into(), Json::Str("shortest".into())));
                    }
                    StrategySpec::Sampling { seed } => {
                        fields.push(("strategy".into(), Json::Str("sampling".into())));
                        fields.push(("seed".into(), Json::Num(seed as f64)));
                    }
                    StrategySpec::Beam { width } => {
                        fields.push(("strategy".into(), Json::Str("beam".into())));
                        fields.push(("width".into(), Json::Num(width as f64)));
                    }
                }
                fields.push(("max_results".into(), Json::Num(q.max_results as f64)));
                if let Some(max_tokens) = q.max_tokens {
                    fields.push(("max_tokens".into(), Json::Num(max_tokens as f64)));
                }
                if let Some(top_k) = q.top_k {
                    fields.push(("top_k".into(), Json::Num(top_k as f64)));
                }
                if q.require_eos {
                    fields.push(("require_eos".into(), Json::Bool(true)));
                }
                if q.all_encodings {
                    fields.push(("tokenization".into(), Json::Str("all".into())));
                }
                if let Some(deadline_ms) = q.deadline_ms {
                    fields.push(("deadline_ms".into(), Json::Num(deadline_ms as f64)));
                }
                Json::Obj(fields)
            }
        };
        json.render().into_bytes()
    }

    /// Decode from a JSON payload.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a request missing mandatory fields.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let text = std::str::from_utf8(payload).map_err(|_| err("non-UTF-8 payload"))?;
        let json = Json::parse(text)?;
        match json.get("op").and_then(Json::as_str) {
            Some("stats") => Ok(Request::Stats),
            Some("query") => {
                let pattern = json
                    .get("pattern")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("query without 'pattern'"))?
                    .to_string();
                let max_results = json
                    .get("max_results")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| err("query without 'max_results'"))?;
                let strategy = match json.get("strategy").and_then(Json::as_str) {
                    None | Some("shortest") => StrategySpec::Shortest,
                    Some("sampling") => StrategySpec::Sampling {
                        seed: json.get("seed").and_then(Json::as_u64).unwrap_or(0),
                    },
                    Some("beam") => StrategySpec::Beam {
                        width: json
                            .get("width")
                            .and_then(Json::as_usize)
                            .ok_or_else(|| err("beam strategy without 'width'"))?,
                    },
                    Some(other) => return Err(err(format!("unknown strategy '{other}'"))),
                };
                Ok(Request::Query(QueryRequest {
                    id: json.get("id").and_then(Json::as_u64).unwrap_or(0),
                    pattern,
                    prefix: json
                        .get("prefix")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    strategy,
                    max_results,
                    max_tokens: json.get("max_tokens").and_then(Json::as_usize),
                    top_k: json.get("top_k").and_then(Json::as_usize),
                    require_eos: json
                        .get("require_eos")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    all_encodings: json.get("tokenization").and_then(Json::as_str) == Some("all"),
                    deadline_ms: json.get("deadline_ms").and_then(Json::as_u64),
                }))
            }
            _ => Err(err("request without a known 'op'")),
        }
    }
}

/// One match as it crosses the wire: text plus the **exact** IEEE-754
/// bits of its log-probability.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMatch {
    /// The decoded matching string.
    pub text: String,
    /// `log_prob.to_bits()` — bit-exact across the socket.
    pub score_bits: u64,
    /// Whether the emitted token sequence was the canonical encoding.
    pub canonical: bool,
    /// Token count of the match (prefix included).
    pub num_tokens: usize,
}

impl WireMatch {
    /// The log-probability these bits encode.
    pub fn log_prob(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }
}

/// Server counters as they cross the wire (the `stats` op's answer).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireServerStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Queries admitted to the driver.
    pub admitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries cancelled (client disconnected mid-flight).
    pub cancelled: u64,
    /// Queries stopped because their `deadline_ms` elapsed.
    pub expired: u64,
    /// Admissions refused by backpressure (per-connection quota or
    /// global in-flight cap) — answered with [`Response::Busy`].
    pub busy_rejections: u64,
    /// Queries currently in flight (server-wide, all shards).
    pub in_flight: u64,
    /// The shard that answered this stats request (a connection's
    /// whole stream lives on one shard).
    pub shard: u64,
    /// Total shard count the server is running.
    pub shards: u64,
    /// Mean contexts per coalesced model batch (set-wide batch fill).
    pub mean_batch_fill: f64,
    /// Model batches that mixed contexts from two or more queries.
    pub cross_query_batches: u64,
}

/// A server-to-client message, correlated by the request's echoed `id`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed query's matches.
    Matches {
        /// The request's `id`, echoed.
        id: u64,
        /// The matches, in the query's deterministic order.
        matches: Vec<WireMatch>,
    },
    /// A failed request (bad pattern, protocol misuse).
    Error {
        /// The request's `id` when it could be parsed, else 0.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Admission refused by backpressure: the connection already has
    /// its quota of queries in flight, or the server-wide cap is
    /// reached. Nothing was admitted; the client may retry after its
    /// outstanding queries drain.
    Busy {
        /// The request's `id`, echoed.
        id: u64,
        /// Which quota refused the admission.
        message: String,
    },
    /// The query's `deadline_ms` elapsed before it completed; the
    /// driver stopped it and discarded its partial results.
    DeadlineExceeded {
        /// The request's `id`, echoed.
        id: u64,
    },
    /// Counters (answer to [`Request::Stats`]).
    Stats(WireServerStats),
}

impl Response {
    /// Encode to a JSON payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Response::Matches { id, matches } => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("id".into(), Json::Num(*id as f64)),
                (
                    "matches".into(),
                    Json::Arr(
                        matches
                            .iter()
                            .map(|m| {
                                Json::Obj(vec![
                                    ("text".into(), Json::Str(m.text.clone())),
                                    (
                                        "score_bits".into(),
                                        Json::Str(format!("{:016x}", m.score_bits)),
                                    ),
                                    ("canonical".into(), Json::Bool(m.canonical)),
                                    ("num_tokens".into(), Json::Num(m.num_tokens as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Error { id, message } => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("id".into(), Json::Num(*id as f64)),
                ("error".into(), Json::Str(message.clone())),
            ]),
            Response::Busy { id, message } => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("busy".into(), Json::Bool(true)),
                ("id".into(), Json::Num(*id as f64)),
                ("error".into(), Json::Str(message.clone())),
            ]),
            Response::DeadlineExceeded { id } => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("deadline_exceeded".into(), Json::Bool(true)),
                ("id".into(), Json::Num(*id as f64)),
                ("error".into(), Json::Str("deadline exceeded".into())),
            ]),
            Response::Stats(stats) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                (
                    "server".into(),
                    Json::Obj(vec![
                        ("accepted".into(), Json::Num(stats.accepted as f64)),
                        ("admitted".into(), Json::Num(stats.admitted as f64)),
                        ("completed".into(), Json::Num(stats.completed as f64)),
                        ("cancelled".into(), Json::Num(stats.cancelled as f64)),
                        ("expired".into(), Json::Num(stats.expired as f64)),
                        (
                            "busy_rejections".into(),
                            Json::Num(stats.busy_rejections as f64),
                        ),
                        ("in_flight".into(), Json::Num(stats.in_flight as f64)),
                        ("mean_batch_fill".into(), Json::Num(stats.mean_batch_fill)),
                        (
                            "cross_query_batches".into(),
                            Json::Num(stats.cross_query_batches as f64),
                        ),
                        ("shard".into(), Json::Num(stats.shard as f64)),
                        ("shards".into(), Json::Num(stats.shards as f64)),
                    ]),
                ),
            ]),
        };
        json.render().into_bytes()
    }

    /// Decode from a JSON payload.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a response missing mandatory fields.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let text = std::str::from_utf8(payload).map_err(|_| err("non-UTF-8 payload"))?;
        let json = Json::parse(text)?;
        let id = json.get("id").and_then(Json::as_u64).unwrap_or(0);
        if json.get("ok").and_then(Json::as_bool) == Some(false) {
            // Typed refusals carry a marker flag next to `ok:false`;
            // check them before the generic error so old-style error
            // frames (no flag) keep decoding as `Error`.
            if json.get("busy").and_then(Json::as_bool) == Some(true) {
                return Ok(Response::Busy {
                    id,
                    message: json
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("server busy")
                        .to_string(),
                });
            }
            if json.get("deadline_exceeded").and_then(Json::as_bool) == Some(true) {
                return Ok(Response::DeadlineExceeded { id });
            }
            return Ok(Response::Error {
                id,
                message: json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            });
        }
        if let Some(server) = json.get("server") {
            let field = |name: &str| server.get(name).and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Stats(WireServerStats {
                accepted: field("accepted"),
                admitted: field("admitted"),
                completed: field("completed"),
                cancelled: field("cancelled"),
                expired: field("expired"),
                busy_rejections: field("busy_rejections"),
                in_flight: field("in_flight"),
                mean_batch_fill: server
                    .get("mean_batch_fill")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                cross_query_batches: field("cross_query_batches"),
                shard: field("shard"),
                shards: field("shards"),
            }));
        }
        let matches = json
            .get("matches")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("response without 'matches'"))?
            .iter()
            .map(|m| {
                Ok(WireMatch {
                    text: m
                        .get("text")
                        .and_then(Json::as_str)
                        .ok_or_else(|| err("match without 'text'"))?
                        .to_string(),
                    score_bits: u64::from_str_radix(
                        m.get("score_bits")
                            .and_then(Json::as_str)
                            .ok_or_else(|| err("match without 'score_bits'"))?,
                        16,
                    )
                    .map_err(|_| err("malformed 'score_bits'"))?,
                    canonical: m.get("canonical").and_then(Json::as_bool).unwrap_or(true),
                    num_tokens: m.get("num_tokens").and_then(Json::as_usize).unwrap_or(0),
                })
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        Ok(Response::Matches { id, matches })
    }
}

/// Flatten a [`RelmError`] into the wire error string.
pub fn error_response(id: u64, error: &RelmError) -> Response {
    Response::Error {
        id,
        message: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_split_reads_reassemble() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire);
        encode_frame(b"", &mut wire);
        encode_frame("wörld".as_bytes(), &mut wire);
        // Feed the stream one byte at a time: frames must pop out whole.
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for byte in wire {
            buf.push(byte);
            while let Some(frame) = decode_frame(&mut buf, MAX_FRAME_BYTES).unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"hello");
        assert!(frames[1].is_empty());
        assert_eq!(frames[2], "wörld".as_bytes());
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&[0u8; 64], &mut buf);
        assert!(decode_frame(&mut buf, 16).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Regression: the recursive-descent parser had no depth bound,
        // so one hostile frame of a few KB of '[' overflowed the serve
        // thread's stack and aborted the whole process.
        let hostile = "[".repeat(10_000);
        assert!(Json::parse(&hostile).is_err());
        let hostile = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
        assert!(Json::parse(&hostile).is_err());
        // Sane nesting up to the bound still parses.
        let fine = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn json_roundtrips() {
        let value = Json::Obj(vec![
            (
                "s".into(),
                Json::Str("a \"quote\" and a \\ and a\nline".into()),
            ),
            ("n".into(), Json::Num(-12.5)),
            ("i".into(), Json::Num(42.0)),
            ("b".into(), Json::Bool(true)),
            ("z".into(), Json::Null),
            (
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Str("αβ".into())]),
            ),
        ]);
        let rendered = value.render();
        assert_eq!(Json::parse(&rendered).unwrap(), value);
        assert!(Json::parse("{\"unterminated\": ").is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Stats,
            Request::Query(QueryRequest::new(7, "the ((cat)|(dog)) sat", 3)),
            Request::Query(
                QueryRequest::new(8, "p ([0-9]{3})", 5)
                    .with_prefix("p ")
                    .with_strategy(StrategySpec::Sampling { seed: 99 })
                    .with_max_tokens(16)
                    .with_top_k(40),
            ),
            Request::Query(
                QueryRequest::new(9, "x", 1).with_strategy(StrategySpec::Beam { width: 16 }),
            ),
            Request::Query(QueryRequest::new(10, "y", 2).with_deadline_ms(250)),
        ];
        for request in requests {
            assert_eq!(Request::decode(&request.encode()).unwrap(), request);
        }
        assert!(Request::decode(b"{\"op\":\"nope\"}").is_err());
        assert!(Request::decode(b"{\"op\":\"query\",\"pattern\":\"x\"}").is_err());
    }

    #[test]
    fn responses_roundtrip_with_exact_score_bits() {
        // A score whose decimal rendering would lose the last ulp.
        let tricky = f64::from_bits(0xbff0_0000_0000_0001);
        let response = Response::Matches {
            id: 3,
            matches: vec![WireMatch {
                text: "the cat sat".into(),
                score_bits: tricky.to_bits(),
                canonical: true,
                num_tokens: 4,
            }],
        };
        let decoded = Response::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        let Response::Matches { matches, .. } = decoded else {
            unreachable!()
        };
        assert_eq!(matches[0].log_prob().to_bits(), tricky.to_bits());

        let error = Response::Error {
            id: 0,
            message: "bad pattern".into(),
        };
        assert_eq!(Response::decode(&error.encode()).unwrap(), error);

        let stats = Response::Stats(WireServerStats {
            accepted: 2,
            admitted: 9,
            completed: 8,
            cancelled: 1,
            expired: 2,
            busy_rejections: 3,
            in_flight: 0,
            mean_batch_fill: 4.75,
            cross_query_batches: 6,
            shard: 1,
            shards: 4,
        });
        assert_eq!(Response::decode(&stats.encode()).unwrap(), stats);
    }

    #[test]
    fn typed_refusal_frames_roundtrip_and_stay_distinct_from_errors() {
        let busy = Response::Busy {
            id: 11,
            message: "server at capacity: 1024 queries in flight".into(),
        };
        assert_eq!(Response::decode(&busy.encode()).unwrap(), busy);

        let expired = Response::DeadlineExceeded { id: 12 };
        assert_eq!(Response::decode(&expired.encode()).unwrap(), expired);

        // A plain error frame (no marker flag) still decodes as Error,
        // and neither refusal ever decodes as a generic Error.
        let error = Response::Error {
            id: 13,
            message: "bad pattern".into(),
        };
        assert_eq!(Response::decode(&error.encode()).unwrap(), error);
        assert!(matches!(
            Response::decode(&busy.encode()).unwrap(),
            Response::Busy { .. }
        ));
        assert!(matches!(
            Response::decode(&expired.encode()).unwrap(),
            Response::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn query_request_maps_onto_search_query() {
        let request = QueryRequest::new(1, "the ((cat)|(dog)) sat", 2)
            .with_prefix("the ")
            .with_strategy(StrategySpec::Beam { width: 8 })
            .with_max_tokens(12)
            .with_top_k(40);
        let query = request.to_search_query();
        assert_eq!(query.query_string.pattern, "the ((cat)|(dog)) sat");
        assert_eq!(query.query_string.prefix.as_deref(), Some("the "));
        assert_eq!(query.strategy, SearchStrategy::Beam { width: 8 });
        assert_eq!(query.max_tokens, Some(12));
        assert_eq!(query.policy.top_k, Some(40));
    }
}
