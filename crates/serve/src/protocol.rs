//! Wire protocol of `vadalink serve`.
//!
//! Line-delimited JSON over TCP: each request and each response is one
//! JSON object on one `\n`-terminated line. Frames longer than the
//! server's `max_frame` (default 1 MiB), lines that are not valid UTF-8
//! or JSON, and semantically bad requests all produce a structured
//! [`ErrorCode`] response — the connection survives every malformed
//! request, only a closed socket ends it.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "op": "query",    "goal": "control(\"n0\", X)?"}
//! {"id": 2, "op": "explain",  "fact": "control(\"n0\", \"n2\")?", "depth": 8}
//! {"id": 3, "op": "update",   "delta": "+own(n0,n4,0.3)\n-own(n0,n2,0.8)"}
//! {"id": 4, "op": "stats"}
//! {"id": 5, "op": "ping"}
//! {"id": 6, "op": "shutdown"}
//! ```
//!
//! `id` is optional and echoed verbatim; `op` selects the operation.
//! `query` takes a goal in `vadalink query` syntax and answers it on the
//! reader's pinned epoch. `explain` takes a fully bound goal and returns
//! the derivation tree. `update` takes signed ground facts in the
//! `vadalink update` file format and applies them through the single
//! writer. `stats` reports epoch/lifecycle counters, `ping` round-trips,
//! `shutdown` stops the server after the response is written.
//!
//! ## Responses
//!
//! Success: `{"id": 1, "ok": true, "epoch": 3, ...}` where the extra
//! fields depend on the operation (`rows` for `query`, `tree` for
//! `explain`, `inserted`/`deleted` for `update`, counters for `stats`).
//! The `epoch` field names the epoch that answered — the snapshot the
//! response is consistent with.
//!
//! Failure: `{"id": 1, "ok": false, "error": {"code": "bad-goal",
//! "message": "..."}}` with a stable machine-readable code.

use crate::json::{parse_json, Json};

/// Default frame cap: one line of request or response.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Protocol revision, reported by `stats`.
pub const PROTOCOL_VERSION: &str = "vadalink-serve/1";

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back in the response, if present.
    pub id: Option<i64>,
    /// The operation.
    pub op: Op,
}

/// Request operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Point lookup: a goal in `pred(c1, X, ...)?` syntax.
    Query { goal: String },
    /// Derivation-tree explanation of a fully bound goal.
    Explain { fact: String, depth: usize },
    /// Base-fact update: signed ground facts, one per line
    /// (`+own(a,b,0.3)` / `-own(a,b,0.8)`, `%` comments).
    Update { delta: String },
    /// Server and epoch statistics.
    Stats,
    /// Liveness check.
    Ping,
    /// Graceful shutdown.
    Shutdown,
}

/// Default explanation depth when the request does not give one.
pub const DEFAULT_EXPLAIN_DEPTH: usize = 8;

/// Cap on the explanation depth a request may ask for.
pub const MAX_EXPLAIN_DEPTH: usize = 64;

/// Stable error codes of failure responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame longer than the server's `max_frame`.
    OversizedFrame,
    /// Request line is not valid UTF-8.
    BadUtf8,
    /// Request line is not valid JSON or not a request object.
    BadRequest,
    /// The goal failed to parse.
    BadGoal,
    /// The goal's predicate is unknown to the served program/database.
    UnknownPredicate,
    /// The update failed to parse or touched a derived predicate.
    BadUpdate,
    /// The server is shutting down.
    ShuttingDown,
    /// Anything else (engine errors).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadUtf8 => "bad-utf8",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::BadGoal => "bad-goal",
            ErrorCode::UnknownPredicate => "unknown-predicate",
            ErrorCode::BadUpdate => "bad-update",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling.
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "oversized-frame" => ErrorCode::OversizedFrame,
            "bad-utf8" => ErrorCode::BadUtf8,
            "bad-request" => ErrorCode::BadRequest,
            "bad-goal" => ErrorCode::BadGoal,
            "unknown-predicate" => ErrorCode::UnknownPredicate,
            "bad-update" => ErrorCode::BadUpdate,
            "shutting-down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's `id`, echoed.
    pub id: Option<i64>,
    /// The payload.
    pub body: Body,
}

/// Response payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `query`: canonically rendered matching facts, sorted.
    Rows { epoch: u64, rows: Vec<String> },
    /// `explain`: the rendered derivation tree (empty string when the
    /// fact is absent — `found` disambiguates).
    Tree {
        epoch: u64,
        found: bool,
        tree: String,
    },
    /// `update`: net fact diff of the commit that produced `epoch`.
    Applied {
        epoch: u64,
        inserted: Vec<String>,
        deleted: Vec<String>,
    },
    /// `stats` counters.
    Stats {
        epoch: u64,
        version: String,
        program: String,
        total_facts: u64,
        committed: u64,
        freed: u64,
        pinned_now: u64,
        swap_stall_max_ns: u64,
        /// Highest durable WAL commit sequence; 0 without a data dir.
        wal_seq: u64,
        /// `query` goals answered with no bound argument — the only ones
        /// that walk a relation instead of reading an index. Absent from
        /// replies of servers that predate it; decodes as 0.
        scan_lookups: u64,
    },
    /// `ping` / `shutdown` acknowledgement.
    Ok { epoch: u64 },
    /// Failure.
    Error { code: ErrorCode, message: String },
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(id) = self.id {
            fields.push(("id".into(), Json::Num(id as f64)));
        }
        let op = match &self.op {
            Op::Query { .. } => "query",
            Op::Explain { .. } => "explain",
            Op::Update { .. } => "update",
            Op::Stats => "stats",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        };
        fields.push(("op".into(), Json::Str(op.into())));
        match &self.op {
            Op::Query { goal } => fields.push(("goal".into(), Json::Str(goal.clone()))),
            Op::Explain { fact, depth } => {
                fields.push(("fact".into(), Json::Str(fact.clone())));
                fields.push(("depth".into(), Json::Num(*depth as f64)));
            }
            Op::Update { delta } => fields.push(("delta".into(), Json::Str(delta.clone()))),
            Op::Stats | Op::Ping | Op::Shutdown => {}
        }
        Json::Obj(fields).render()
    }

    /// Decodes a request line. Errors name the [`ErrorCode`] the server
    /// responds with.
    pub fn decode(line: &str) -> Result<Request, (ErrorCode, String)> {
        let v = parse_json(line).map_err(|e| (ErrorCode::BadRequest, e))?;
        if !matches!(v, Json::Obj(_)) {
            return Err((
                ErrorCode::BadRequest,
                "request must be a JSON object".into(),
            ));
        }
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(Json::Num(n)) if n.fract() == 0.0 => Some(*n as i64),
            Some(_) => {
                return Err((ErrorCode::BadRequest, "'id' must be an integer".into()));
            }
        };
        let op = v.str_of("op").ok_or((
            ErrorCode::BadRequest,
            "missing string field 'op'".to_owned(),
        ))?;
        let need_str = |field: &str| -> Result<String, (ErrorCode, String)> {
            v.str_of(field).map(str::to_owned).ok_or((
                ErrorCode::BadRequest,
                format!("missing string field '{field}'"),
            ))
        };
        let op = match op {
            "query" => Op::Query {
                goal: need_str("goal")?,
            },
            "explain" => {
                let depth = match v.get("depth") {
                    None => DEFAULT_EXPLAIN_DEPTH,
                    Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {
                        (*n as usize).min(MAX_EXPLAIN_DEPTH)
                    }
                    Some(_) => {
                        return Err((
                            ErrorCode::BadRequest,
                            "'depth' must be a non-negative integer".into(),
                        ))
                    }
                };
                Op::Explain {
                    fact: need_str("fact")?,
                    depth,
                }
            }
            "update" => Op::Update {
                delta: need_str("delta")?,
            },
            "stats" => Op::Stats,
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            other => {
                return Err((ErrorCode::BadRequest, format!("unknown op '{other}'")));
            }
        };
        Ok(Request { id, op })
    }
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn decode_str_arr(v: &Json, field: &str) -> Result<Vec<String>, String> {
    match v.get(field) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|i| match i {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("'{field}' must hold strings")),
            })
            .collect(),
        _ => Err(format!("missing array field '{field}'")),
    }
}

fn need_u64(v: &Json, field: &str) -> Result<u64, String> {
    match v.get(field) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(format!("missing integer field '{field}'")),
    }
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(id) = self.id {
            fields.push(("id".into(), Json::Num(id as f64)));
        }
        let ok = !matches!(self.body, Body::Error { .. });
        fields.push(("ok".into(), Json::Bool(ok)));
        match &self.body {
            Body::Rows { epoch, rows } => {
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
                fields.push(("rows".into(), str_arr(rows)));
            }
            Body::Tree { epoch, found, tree } => {
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
                fields.push(("found".into(), Json::Bool(*found)));
                fields.push(("tree".into(), Json::Str(tree.clone())));
            }
            Body::Applied {
                epoch,
                inserted,
                deleted,
            } => {
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
                fields.push(("inserted".into(), str_arr(inserted)));
                fields.push(("deleted".into(), str_arr(deleted)));
            }
            Body::Stats {
                epoch,
                version,
                program,
                total_facts,
                committed,
                freed,
                pinned_now,
                swap_stall_max_ns,
                wal_seq,
                scan_lookups,
            } => {
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
                fields.push(("version".into(), Json::Str(version.clone())));
                fields.push(("program".into(), Json::Str(program.clone())));
                fields.push(("total_facts".into(), Json::Num(*total_facts as f64)));
                fields.push(("committed".into(), Json::Num(*committed as f64)));
                fields.push(("freed".into(), Json::Num(*freed as f64)));
                fields.push(("pinned_now".into(), Json::Num(*pinned_now as f64)));
                fields.push((
                    "swap_stall_max_ns".into(),
                    Json::Num(*swap_stall_max_ns as f64),
                ));
                fields.push(("wal_seq".into(), Json::Num(*wal_seq as f64)));
                fields.push(("scan_lookups".into(), Json::Num(*scan_lookups as f64)));
            }
            Body::Ok { epoch } => {
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
            }
            Body::Error { code, message } => {
                fields.push((
                    "error".into(),
                    Json::Obj(vec![
                        ("code".into(), Json::Str(code.as_str().into())),
                        ("message".into(), Json::Str(message.clone())),
                    ]),
                ));
            }
        }
        Json::Obj(fields).render()
    }

    /// Decodes a response line (the client side).
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = parse_json(line)?;
        let id = match v.get("id") {
            Some(Json::Num(n)) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        };
        let ok = match v.get("ok") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean field 'ok'".into()),
        };
        if !ok {
            let err = v.get("error").ok_or("missing 'error' object")?;
            let code = err
                .str_of("code")
                .and_then(ErrorCode::from_wire)
                .ok_or("missing or unknown 'error.code'")?;
            let message = err.str_of("message").unwrap_or("").to_owned();
            return Ok(Response {
                id,
                body: Body::Error { code, message },
            });
        }
        let epoch = need_u64(&v, "epoch")?;
        let body = if v.get("rows").is_some() {
            Body::Rows {
                epoch,
                rows: decode_str_arr(&v, "rows")?,
            }
        } else if v.get("tree").is_some() {
            Body::Tree {
                epoch,
                found: matches!(v.get("found"), Some(Json::Bool(true))),
                tree: v.str_of("tree").unwrap_or("").to_owned(),
            }
        } else if v.get("inserted").is_some() {
            Body::Applied {
                epoch,
                inserted: decode_str_arr(&v, "inserted")?,
                deleted: decode_str_arr(&v, "deleted")?,
            }
        } else if v.get("version").is_some() {
            Body::Stats {
                epoch,
                version: v.str_of("version").unwrap_or("").to_owned(),
                program: v.str_of("program").unwrap_or("").to_owned(),
                total_facts: need_u64(&v, "total_facts")?,
                committed: need_u64(&v, "committed")?,
                freed: need_u64(&v, "freed")?,
                pinned_now: need_u64(&v, "pinned_now")?,
                swap_stall_max_ns: need_u64(&v, "swap_stall_max_ns")?,
                wal_seq: need_u64(&v, "wal_seq").unwrap_or(0),
                scan_lookups: need_u64(&v, "scan_lookups").unwrap_or(0),
            }
        } else {
            Body::Ok { epoch }
        };
        Ok(Response { id, body })
    }

    /// Shorthand for an error response.
    pub fn error(id: Option<i64>, code: ErrorCode, message: impl Into<String>) -> Response {
        Response {
            id,
            body: Body::Error {
                code,
                message: message.into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_encode_decode_round_trip() {
        let reqs = [
            Request {
                id: Some(1),
                op: Op::Query {
                    goal: "control(\"n0\", X)?".into(),
                },
            },
            Request {
                id: None,
                op: Op::Explain {
                    fact: "control(\"n0\", \"n2\")?".into(),
                    depth: 4,
                },
            },
            Request {
                id: Some(-3),
                op: Op::Update {
                    delta: "+own(a,b,0.3)\n-own(a,c,0.8)".into(),
                },
            },
            Request {
                id: Some(0),
                op: Op::Stats,
            },
            Request {
                id: None,
                op: Op::Ping,
            },
            Request {
                id: Some(9),
                op: Op::Shutdown,
            },
        ];
        for r in reqs {
            let line = r.encode();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            assert_eq!(Request::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn response_encode_decode_round_trip() {
        let resps = [
            Response {
                id: Some(1),
                body: Body::Rows {
                    epoch: 3,
                    rows: vec!["control(n0, n2)".into(), "control(n0, n0)".into()],
                },
            },
            Response {
                id: None,
                body: Body::Tree {
                    epoch: 0,
                    found: true,
                    tree: "control(n0, n2)   [rule 2]\n".into(),
                },
            },
            Response {
                id: Some(2),
                body: Body::Applied {
                    epoch: 4,
                    inserted: vec!["own(a,b,0.3)".into()],
                    deleted: vec![],
                },
            },
            Response {
                id: Some(5),
                body: Body::Ok { epoch: 7 },
            },
            Response {
                id: None,
                body: Body::Error {
                    code: ErrorCode::BadGoal,
                    message: "parse error".into(),
                },
            },
        ];
        for r in resps {
            let line = r.encode();
            assert!(!line.contains('\n'), "one frame per line: {line}");
            assert_eq!(Response::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn stats_replies_without_the_newer_counters_still_decode() {
        // What a server from before `scan_lookups` (and `wal_seq`) sends.
        let old = "{\"ok\": true, \"epoch\": 2, \"version\": \"vadalink-serve/1\", \
                   \"program\": \"control\", \"total_facts\": 9, \"committed\": 3, \
                   \"freed\": 1, \"pinned_now\": 0, \"swap_stall_max_ns\": 700}";
        let Body::Stats {
            wal_seq,
            scan_lookups,
            ..
        } = Response::decode(old).unwrap().body
        else {
            panic!("stats body");
        };
        assert_eq!((wal_seq, scan_lookups), (0, 0));
        let new = old.replace("}", ", \"wal_seq\": 4, \"scan_lookups\": 5}");
        assert!(matches!(
            Response::decode(&new).unwrap().body,
            Body::Stats {
                wal_seq: 4,
                scan_lookups: 5,
                ..
            }
        ));
    }

    #[test]
    fn malformed_requests_yield_stable_codes() {
        for (line, want) in [
            ("nonsense", ErrorCode::BadRequest),
            ("[1, 2, 3]", ErrorCode::BadRequest),
            ("{\"op\": \"frobnicate\"}", ErrorCode::BadRequest),
            ("{\"op\": \"query\"}", ErrorCode::BadRequest),
            ("{\"op\": \"query\", \"goal\": 7}", ErrorCode::BadRequest),
            (
                "{\"op\": \"query\", \"goal\": \"g?\", \"id\": 1.5}",
                ErrorCode::BadRequest,
            ),
        ] {
            let (code, _) = Request::decode(line).expect_err(line);
            assert_eq!(code, want, "{line}");
        }
    }

    #[test]
    fn explain_depth_defaults_and_caps() {
        let r = Request::decode("{\"op\": \"explain\", \"fact\": \"f(1)?\"}").unwrap();
        assert_eq!(
            r.op,
            Op::Explain {
                fact: "f(1)?".into(),
                depth: DEFAULT_EXPLAIN_DEPTH
            }
        );
        let r =
            Request::decode("{\"op\": \"explain\", \"fact\": \"f(1)?\", \"depth\": 1000}").unwrap();
        assert!(matches!(r.op, Op::Explain { depth, .. } if depth == MAX_EXPLAIN_DEPTH));
    }
}
