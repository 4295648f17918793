//! Wire protocol for `symclust serve`: newline-delimited flat JSON.
//!
//! One request per line, one response line per request, both flat JSON
//! objects in the engine's own schema-matched dialect
//! ([`symclust_engine::json`]) — no nesting, no arrays, so the daemon
//! and client share the workspace's existing writer/parser instead of
//! growing a JSON library. Full semantics in DESIGN.md §14.
//!
//! Requests carry an `op` plus op-specific fields; `id` (echoed back
//! verbatim) and `timeout-ms` (per-request deadline) are accepted on any
//! op. A client that pipelines correlates by `id`: responses on one
//! connection are not guaranteed to come back in request order (two
//! workers may finish out of order, and a memory-resident
//! `query-membership` is answered by the reader thread ahead of queued
//! work). Responses are **deterministic**: for a given request they contain
//! only content-derived fields (keys, dimensions, content checksums) —
//! never timings, tiers, or hit/miss markers — so two identical requests
//! produce byte-identical response lines whether they were computed,
//! served from memory, or served from the disk store. Cache behavior is
//! observable through the `stats` op and the metrics registry, not
//! through response bytes.
//!
//! Error responses use a closed set of codes:
//! `bad-request` | `not-found` | `overloaded` | `deadline` | `cancelled`
//! | `internal`.

use std::collections::HashMap;

use symclust_engine::json::{parse_object, JsonObject, JsonValue};
use symclust_engine::{Clusterer, SymMethod};

/// A parsed request line: the op payload plus the cross-cutting fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed into the response.
    pub id: Option<String>,
    /// Per-request deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// The operation.
    pub request: Request,
}

/// The operations the daemon accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a directed graph (edge-list text) and persist its
    /// adjacency; later ops refer to it by the returned fingerprint.
    UploadGraph {
        /// Edge-list text, same format as the CLI's file inputs.
        edges: String,
    },
    /// Symmetrize an uploaded graph with one of the paper's methods.
    Symmetrize {
        /// Fingerprint of a previously uploaded graph.
        graph_fp: u64,
        /// The symmetrization method with its parameters.
        method: SymMethod,
        /// Optional SpGEMM output budget (stored entries).
        budget: Option<usize>,
    },
    /// Symmetrize then cluster an uploaded graph.
    Cluster {
        /// Fingerprint of a previously uploaded graph.
        graph_fp: u64,
        /// The symmetrization feeding the clusterer.
        method: SymMethod,
        /// Optional SpGEMM output budget (stored entries).
        budget: Option<usize>,
        /// The clustering algorithm with its parameters.
        clusterer: Clusterer,
    },
    /// Look up one node's cluster id in a clustering artifact.
    QueryMembership {
        /// Artifact key returned by a `cluster` response.
        cluster_key: u64,
        /// Node index.
        node: usize,
    },
    /// Store and daemon counters.
    Stats,
    /// Readiness probe: answered out-of-band of the admission queue
    /// (from atomics only), so it works even while the daemon drains or
    /// the queue is full. Excluded from the byte-determinism guarantee —
    /// it reports live state (queue depth, drain progress) by design.
    Health,
    /// Orderly daemon shutdown.
    Shutdown,
}

/// Error codes a response can carry (closed set, DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse or referenced unknown fields.
    BadRequest,
    /// A referenced graph or artifact key is unknown.
    NotFound,
    /// The admission queue is full; retry later.
    Overloaded,
    /// The per-request deadline expired mid-computation.
    Deadline,
    /// The request was cancelled (client disconnected).
    Cancelled,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Internal => "internal",
        }
    }
}

fn get_str(map: &HashMap<String, JsonValue>, key: &str) -> Result<String, String> {
    map.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn get_f64(map: &HashMap<String, JsonValue>, key: &str, default: f64) -> Result<f64, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("field '{key}' must be a number")),
    }
}

fn get_usize(map: &HashMap<String, JsonValue>, key: &str) -> Result<Option<usize>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("field '{key}' must be a number"))?;
            if x < 0.0 || x.fract() != 0.0 {
                return Err(format!("field '{key}' must be a non-negative integer"));
            }
            Ok(Some(x as usize))
        }
    }
}

fn get_key_hex(map: &HashMap<String, JsonValue>, key: &str) -> Result<u64, String> {
    let hex = get_str(map, key)?;
    u64::from_str_radix(&hex, 16)
        .map_err(|_| format!("field '{key}' must be a hex key, got '{hex}'"))
}

fn parse_method(map: &HashMap<String, JsonValue>) -> Result<SymMethod, String> {
    let method = get_str(map, "method")?;
    let alpha = get_f64(map, "alpha", 0.5)?;
    let beta = get_f64(map, "beta", 0.5)?;
    let threshold = get_f64(map, "threshold", 0.0)?;
    if !(threshold.is_finite() && threshold >= 0.0) {
        return Err("field 'threshold' must be a finite non-negative number".into());
    }
    match method.as_str() {
        "aat" => Ok(SymMethod::PlusTranspose),
        "rw" => Ok(SymMethod::RandomWalk),
        "bib" => Ok(SymMethod::Bibliometric { threshold }),
        "dd" => Ok(SymMethod::DegreeDiscounted {
            alpha,
            beta,
            threshold,
        }),
        other => Err(format!("unknown method '{other}' (aat|rw|bib|dd)")),
    }
}

fn parse_clusterer(map: &HashMap<String, JsonValue>) -> Result<Clusterer, String> {
    let algo = get_str(map, "algo")?;
    match algo.as_str() {
        "mlrmcl" => Ok(Clusterer::MlrMcl {
            inflation: get_f64(map, "inflation", 2.0)?,
        }),
        "metis" => Ok(Clusterer::Metis {
            k: get_usize(map, "k")?.ok_or("field 'k' is required for metis")?,
        }),
        "graclus" => Ok(Clusterer::Graclus {
            k: get_usize(map, "k")?.ok_or("field 'k' is required for graclus")?,
        }),
        other => Err(format!("unknown algo '{other}' (mlrmcl|metis|graclus)")),
    }
}

/// Parses one request line. Errors are client-facing `bad-request`
/// details.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let map = parse_object(line)?;
    let id = map
        .get("id")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    let timeout_ms = match get_usize(&map, "timeout-ms")? {
        Some(0) => return Err("field 'timeout-ms' must be positive".into()),
        other => other.map(|t| t as u64),
    };
    let op = get_str(&map, "op")?;
    let request = match op.as_str() {
        "upload-graph" => Request::UploadGraph {
            edges: get_str(&map, "edges")?,
        },
        "symmetrize" => Request::Symmetrize {
            graph_fp: get_key_hex(&map, "graph")?,
            method: parse_method(&map)?,
            budget: get_usize(&map, "budget")?,
        },
        "cluster" => Request::Cluster {
            graph_fp: get_key_hex(&map, "graph")?,
            method: parse_method(&map)?,
            budget: get_usize(&map, "budget")?,
            clusterer: parse_clusterer(&map)?,
        },
        "query-membership" => Request::QueryMembership {
            cluster_key: get_key_hex(&map, "key")?,
            node: get_usize(&map, "node")?.ok_or("field 'node' is required")?,
        },
        "stats" => Request::Stats,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(format!(
                "unknown op '{other}' (upload-graph|symmetrize|cluster|\
                 query-membership|stats|health|shutdown)"
            ))
        }
    };
    Ok(Envelope {
        id,
        timeout_ms,
        request,
    })
}

/// The op name of a parsed request (echoed into its response).
pub fn op_name(request: &Request) -> &'static str {
    match request {
        Request::UploadGraph { .. } => "upload-graph",
        Request::Symmetrize { .. } => "symmetrize",
        Request::Cluster { .. } => "cluster",
        Request::QueryMembership { .. } => "query-membership",
        Request::Stats => "stats",
        Request::Health => "health",
        Request::Shutdown => "shutdown",
    }
}

/// Starts a success response: `ok`, `op`, and the echoed `id` come first
/// so every response line is self-describing.
pub fn response_ok(op: &str, id: Option<&str>) -> JsonObject {
    let mut obj = JsonObject::new();
    obj.boolean("ok", true);
    obj.string("op", op);
    if let Some(id) = id {
        obj.string("id", id);
    }
    obj
}

/// A complete error response line (without trailing newline).
pub fn response_error(op: Option<&str>, id: Option<&str>, code: ErrorCode, detail: &str) -> String {
    let mut obj = JsonObject::new();
    obj.boolean("ok", false);
    if let Some(op) = op {
        obj.string("op", op);
    }
    if let Some(id) = id {
        obj.string("id", id);
    }
    obj.string("error", code.as_str());
    obj.string("detail", detail);
    obj.finish()
}

/// The backoff hint an `overloaded` response carries in `retry-after-ms`.
/// One constant for now — queue pressure clears on the order of one
/// request, and a fancier adaptive hint would leak scheduling state into
/// response bytes.
pub const RETRY_AFTER_MS: u64 = 50;

/// A complete `overloaded` error line carrying the `retry-after-ms`
/// backoff hint ([`RETRY_AFTER_MS`]); clients honor it as a floor on
/// their next retry delay.
pub fn response_overloaded(op: Option<&str>, id: Option<&str>, detail: &str) -> String {
    let mut obj = JsonObject::new();
    obj.boolean("ok", false);
    if let Some(op) = op {
        obj.string("op", op);
    }
    if let Some(id) = id {
        obj.string("id", id);
    }
    obj.string("error", ErrorCode::Overloaded.as_str());
    obj.number("retry-after-ms", RETRY_AFTER_MS as f64);
    obj.string("detail", detail);
    obj.finish()
}

/// Renders a 64-bit artifact key the way every response spells it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let e = parse_request(r#"{"op":"upload-graph","edges":"0 1\n1 0\n","id":"a"}"#).unwrap();
        assert_eq!(e.id.as_deref(), Some("a"));
        assert!(matches!(e.request, Request::UploadGraph { .. }));

        let e = parse_request(
            r#"{"op":"symmetrize","graph":"00000000000000ff","method":"bib","threshold":0.5}"#,
        )
        .unwrap();
        match e.request {
            Request::Symmetrize {
                graph_fp, method, ..
            } => {
                assert_eq!(graph_fp, 0xff);
                assert_eq!(method, SymMethod::Bibliometric { threshold: 0.5 });
            }
            other => panic!("{other:?}"),
        }

        let e = parse_request(
            r#"{"op":"cluster","graph":"1","method":"aat","algo":"metis","k":4,"timeout-ms":500}"#,
        )
        .unwrap();
        assert_eq!(e.timeout_ms, Some(500));
        match e.request {
            Request::Cluster { clusterer, .. } => {
                assert_eq!(clusterer, Clusterer::Metis { k: 4 });
            }
            other => panic!("{other:?}"),
        }

        let e = parse_request(r#"{"op":"query-membership","key":"2a","node":7}"#).unwrap();
        assert_eq!(
            e.request,
            Request::QueryMembership {
                cluster_key: 0x2a,
                node: 7
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap().request,
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap().request,
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap().request,
            Request::Shutdown
        );
    }

    #[test]
    fn rejections_name_the_problem() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"edges":"x"}"#)
            .unwrap_err()
            .contains("op"));
        assert!(parse_request(r#"{"op":"nope"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(
            parse_request(r#"{"op":"symmetrize","graph":"zz","method":"aat"}"#)
                .unwrap_err()
                .contains("hex")
        );
        assert!(
            parse_request(r#"{"op":"symmetrize","graph":"1","method":"huh"}"#)
                .unwrap_err()
                .contains("unknown method")
        );
        assert!(
            parse_request(r#"{"op":"cluster","graph":"1","method":"aat","algo":"metis"}"#)
                .unwrap_err()
                .contains("'k'")
        );
        assert!(parse_request(r#"{"op":"stats","timeout-ms":0}"#)
            .unwrap_err()
            .contains("timeout-ms"));
        assert!(parse_request(r#"{"op":"query-membership","key":"1","node":-2}"#).is_err());
    }

    #[test]
    fn a_threshold_that_is_nan_infinite_or_negative_is_a_bad_request() {
        for op in [
            r#""op":"symmetrize""#,
            r#""op":"cluster","algo":"metis","k":4"#,
        ] {
            for method in ["dd", "bib", "aat"] {
                for t in ["-1", "-1e-300", "NaN", "inf", "1e999", "-inf"] {
                    let line =
                        format!(r#"{{{op},"graph":"1","method":"{method}","threshold":{t}}}"#);
                    let err = parse_request(&line).unwrap_err();
                    assert!(err.contains("'threshold'"), "{line}: {err}");
                }
                for t in ["0", "-0", "0.05", "3"] {
                    let line =
                        format!(r#"{{{op},"graph":"1","method":"{method}","threshold":{t}}}"#);
                    assert!(parse_request(&line).is_ok(), "{line}");
                }
            }
        }
    }

    #[test]
    fn default_method_parameters_match_the_cli() {
        let e = parse_request(r#"{"op":"symmetrize","graph":"1","method":"dd"}"#).unwrap();
        match e.request {
            Request::Symmetrize { method, .. } => assert_eq!(
                method,
                SymMethod::DegreeDiscounted {
                    alpha: 0.5,
                    beta: 0.5,
                    threshold: 0.0
                }
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_are_flat_and_deterministic() {
        let mut ok = response_ok("symmetrize", Some("req-1"));
        ok.string("key", &key_hex(0x2a));
        ok.number("nodes", 10.0);
        let line = ok.finish();
        assert_eq!(
            line,
            r#"{"ok":true,"op":"symmetrize","id":"req-1","key":"000000000000002a","nodes":10}"#
        );
        // Writer output parses back with the shared flat parser.
        assert!(parse_object(&line).is_ok());

        let err = response_error(Some("cluster"), None, ErrorCode::Overloaded, "queue full");
        assert!(err.contains(r#""error":"overloaded""#));
        assert!(parse_object(&err).is_ok());
    }

    #[test]
    fn overloaded_responses_carry_the_retry_hint() {
        let line = response_overloaded(Some("cluster"), Some("r9"), "queue full");
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields["error"].as_str(), Some("overloaded"));
        assert_eq!(fields["id"].as_str(), Some("r9"));
        assert_eq!(
            fields["retry-after-ms"].as_f64(),
            Some(RETRY_AFTER_MS as f64)
        );
    }

    #[test]
    fn error_codes_are_a_closed_stable_set() {
        let codes = [
            ErrorCode::BadRequest,
            ErrorCode::NotFound,
            ErrorCode::Overloaded,
            ErrorCode::Deadline,
            ErrorCode::Cancelled,
            ErrorCode::Internal,
        ];
        let names: Vec<&str> = codes.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            names,
            [
                "bad-request",
                "not-found",
                "overloaded",
                "deadline",
                "cancelled",
                "internal"
            ]
        );
    }
}
