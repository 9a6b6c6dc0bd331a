//! Request dispatch: path + method → session call → JSON response.
//!
//! Every request runs under a `serve.request` span and emits one
//! `serve.request` journal event (route pattern, method, status), so
//! `panda report` renders server traffic alongside session telemetry.

use crate::api::{
    ApiError, CreateSessionRequest, LabelRequest, LabelResponse, LfResponse, LfSpec, MatchRequest,
    MatchResponse, PromoteResponse, QueryRequest, RebalanceRequest, RebalanceResponse,
    SessionListEntry, SessionListResponse, SessionResponse, ShardMapDto,
};
use crate::client;
use crate::http::{Request, Response};
use crate::persist::{OpError, WalOp};
use crate::repl::HandoffRequest;
use crate::state::{AppState, SessionSlot};
use panda_session::PandaSession;
use panda_table::CandidatePair;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Handle one parsed request against the shared state.
pub fn handle(state: &AppState, req: &Request) -> Response {
    handle_routed(state, req).1
}

/// [`handle`], but also returning the matched route pattern so the event
/// loop can label its per-route×status metrics without re-routing.
pub fn handle_routed(state: &AppState, req: &Request) -> (&'static str, Response) {
    let _span = panda_obs::span("serve.request");
    let (route, resp) = dispatch(state, req);
    panda_obs::counter_add("serve.requests", 1);
    panda_obs::counter_add(status_class_counter(resp.status), 1);
    if panda_obs::journal_enabled() {
        panda_obs::event("serve.request")
            .field("method", req.method.as_str())
            .field("route", route)
            .field("status", i64::from(resp.status))
            .emit();
    }
    (route, resp)
}

/// Route and handle; returns the route *pattern* (for telemetry — never
/// the concrete path, which would explode metric cardinality).
fn dispatch(state: &AppState, req: &Request) -> (&'static str, Response) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    match segments.as_slice() {
        ["healthz"] => match method {
            "GET" => ("/healthz", Response::json(200, r#"{"status":"ok"}"#)),
            _ => ("/healthz", method_not_allowed("GET")),
        },
        ["metrics"] => match method {
            "GET" => {
                let snap = panda_obs::snapshot();
                let resp = match req.query_param("format") {
                    Some("prometheus") => Response::text(200, snap.to_prometheus()),
                    Some(other) => error(
                        400,
                        "bad_format",
                        format!("unknown metrics format {other:?} (try \"prometheus\")"),
                    ),
                    None => Response::json(200, snap.to_json()),
                };
                ("/metrics", resp)
            }
            _ => ("/metrics", method_not_allowed("GET")),
        },
        ["events"] => match method {
            "GET" => ("/events", events_tail(req)),
            _ => ("/events", method_not_allowed("GET")),
        },
        ["shutdown"] => match method {
            "POST" => {
                state.request_shutdown();
                ("/shutdown", Response::json(200, r#"{"status":"draining"}"#))
            }
            _ => ("/shutdown", method_not_allowed("POST")),
        },
        ["match"] => match method {
            "POST" => ("/match", score_pairs(state, req)),
            _ => ("/match", method_not_allowed("POST")),
        },
        ["promote"] => match method {
            "POST" => {
                // Idempotent failover lever: flips a follower to
                // primary (stopping its apply loop), no-ops on one.
                let promoted = state.promote();
                let resp = json_200(&PromoteResponse {
                    role: "primary".to_string(),
                    promoted,
                });
                ("/promote", resp)
            }
            _ => ("/promote", method_not_allowed("POST")),
        },
        ["rebalance"] => match method {
            "POST" => (
                "/rebalance",
                primary_only(state).unwrap_or_else(|| rebalance(state, req)),
            ),
            _ => ("/rebalance", method_not_allowed("POST")),
        },
        ["handoff"] => match method {
            "POST" => (
                "/handoff",
                primary_only(state).unwrap_or_else(|| adopt_handoff(state, req)),
            ),
            _ => ("/handoff", method_not_allowed("POST")),
        },
        ["sessions"] => match method {
            "POST" => (
                "/sessions",
                primary_only(state).unwrap_or_else(|| create_session(state, req)),
            ),
            "GET" => ("/sessions", list_sessions(state)),
            _ => ("/sessions", method_not_allowed("GET, POST")),
        },
        ["sessions", id] => {
            let route = "/sessions/{id}";
            match method {
                "GET" => (route, with_session(state, id, session_body)),
                "DELETE" => (
                    route,
                    primary_only(state).unwrap_or_else(|| delete_session(state, id)),
                ),
                _ => (route, method_not_allowed("GET, DELETE")),
            }
        }
        ["sessions", id, "fit"] => {
            let route = "/sessions/{id}/fit";
            match method {
                "POST" => (
                    route,
                    primary_only(state).unwrap_or_else(|| {
                        with_slot(state, id, |id, slot| match slot.execute(WalOp::Fit) {
                            Ok(()) => session_body(id, &mut slot.session),
                            Err(e) => op_error(e),
                        })
                    }),
                ),
                _ => (route, method_not_allowed("POST")),
            }
        }
        ["sessions", id, "labels"] => {
            let route = "/sessions/{id}/labels";
            match method {
                "POST" => (
                    route,
                    primary_only(state).unwrap_or_else(|| label_candidate(state, id, req)),
                ),
                _ => (route, method_not_allowed("POST")),
            }
        }
        ["sessions", id, "lfs"] => {
            let route = "/sessions/{id}/lfs";
            match method {
                "POST" => (
                    route,
                    primary_only(state).unwrap_or_else(|| add_lf(state, id, req)),
                ),
                _ => (route, method_not_allowed("POST")),
            }
        }
        ["sessions", id, "lfs", name] => {
            let route = "/sessions/{id}/lfs/{name}";
            match method {
                "DELETE" => (
                    route,
                    primary_only(state).unwrap_or_else(|| remove_lf(state, id, name)),
                ),
                _ => (route, method_not_allowed("DELETE")),
            }
        }
        ["sessions", id, "query"] => {
            let route = "/sessions/{id}/query";
            match method {
                "POST" => (route, run_query(state, id, req)),
                _ => (route, method_not_allowed("POST")),
            }
        }
        _ => (
            "<unmatched>",
            error(404, "not_found", format!("no route for {}", req.path)),
        ),
    }
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn create_session(state: &AppState, req: &Request) -> Response {
    let body: CreateSessionRequest = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let id = match state.create(body) {
        Ok(id) => id,
        Err(e) => return op_error(e),
    };
    let guard = state.get(id).expect("just inserted");
    let mut slot = guard.lock().unwrap_or_else(|e| e.into_inner());
    session_body(id, &mut slot.session)
}

fn list_sessions(state: &AppState) -> Response {
    let ring = state.ring();
    let sessions = state
        .list()
        .into_iter()
        .map(|info| SessionListEntry {
            session: info.id,
            status: if info.quarantined {
                "quarantined"
            } else if info.live {
                "live"
            } else {
                "evicted"
            }
            .to_string(),
            recovered: info.recovered,
            wal_seq: info.wal_seq,
            matrix_digest: format!("{:#018x}", info.matrix_digest),
            shard: ring.map(|r| r.owner_of(info.id).to_string()),
        })
        .collect();
    json_200(&SessionListResponse {
        sessions,
        role: if state.is_follower() {
            "follower"
        } else {
            "primary"
        }
        .to_string(),
        shards: ring.map(|r| ShardMapDto {
            self_addr: r.self_addr().to_string(),
            peers: r.peers().to_vec(),
        }),
    })
}

fn delete_session(state: &AppState, id: &str) -> Response {
    let id = match owned_id(state, id) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    if state.remove(id) {
        Response::json(200, r#"{"status":"deleted"}"#)
    } else {
        error(404, "unknown_session", format!("no session {id}"))
    }
}

fn add_lf(state: &AppState, id: &str, req: &Request) -> Response {
    let spec: LfSpec = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    // A bad spec is a 400 before any session lookup.
    let name = match spec.build() {
        Ok(lf) => lf.name().to_string(),
        Err(msg) => return error(400, "bad_lf", msg),
    };
    with_slot(state, id, move |_, slot| {
        match slot.execute(WalOp::UpsertLf { spec }) {
            Ok(()) => json_200(&LfResponse {
                lf: name,
                n_lfs: slot.session.registry().lfs().len(),
            }),
            Err(e) => op_error(e),
        }
    })
}

fn remove_lf(state: &AppState, id: &str, name: &str) -> Response {
    let name = name.to_string();
    with_slot(state, id, move |_, slot| {
        match slot.execute(WalOp::RemoveLf { name }) {
            Ok(()) => Response::json(200, r#"{"status":"removed"}"#),
            Err(e) => op_error(e),
        }
    })
}

fn label_candidate(state: &AppState, id: &str, req: &Request) -> Response {
    let body: LabelRequest = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    with_slot(state, id, move |_, slot| {
        let op = WalOp::Label {
            candidate: body.candidate,
            is_match: body.is_match,
        };
        match slot.execute(op) {
            Ok(()) => json_200(&LabelResponse {
                candidate: body.candidate,
                n_user_labels: slot.session.em_stats().n_user_labels,
            }),
            Err(e) => op_error(e),
        }
    })
}

fn run_query(state: &AppState, id: &str, req: &Request) -> Response {
    let body: QueryRequest = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    with_session(state, id, move |_, s| {
        if s.registry().get(&body.lf).is_none() {
            return error(404, "unknown_lf", format!("no LF named {:?}", body.lf));
        }
        let limit = body.limit.unwrap_or(10) as usize;
        let rows = s.debug_pairs(&body.lf, body.query, limit);
        json_200(&QueryRows { rows })
    })
}

/// `POST /sessions/{id}/query` response wrapper.
#[derive(Serialize, Deserialize)]
struct QueryRows {
    rows: Vec<panda_session::DataViewerRow>,
}

fn score_pairs(state: &AppState, req: &Request) -> Response {
    let body: MatchRequest = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    if body.pairs.is_empty() {
        return error(422, "no_pairs", "`pairs` must be non-empty");
    }
    if let Some(resp) = misdirected_421(state, body.session) {
        return resp;
    }
    if let Some(resp) = quarantined_409(state, body.session) {
        return resp;
    }
    let Some(guard) = state.get(body.session) else {
        return error(
            404,
            "unknown_session",
            format!("no session {}", body.session),
        );
    };
    let slot = guard.lock().unwrap_or_else(|e| e.into_inner());
    let session = &slot.session;
    let mut scores = Vec::with_capacity(body.pairs.len());
    for pair in &body.pairs {
        let [l, r] = pair.as_slice() else {
            return error(
                400,
                "bad_pair",
                format!("each pair must be [left_row, right_row], got {pair:?}"),
            );
        };
        match session.score_pair(CandidatePair::new(*l, *r)) {
            Ok(score) => scores.push(score),
            Err(msg) => return error(422, "match_failed", msg),
        }
    }
    json_200(&MatchResponse { scores })
}

/// `POST /rebalance` (primary only): move one session to another shard
/// by snapshot + WAL-tail handoff. The slot lock is held while the
/// handoff payload is built, so the shipped state is a consistent
/// cut; requests racing the move see the session vanish (404/421
/// toward the new owner), never half-moved state.
fn rebalance(state: &AppState, req: &Request) -> Response {
    let body: RebalanceRequest = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let id = body.session;
    if let Some(resp) = quarantined_409(state, id) {
        return resp;
    }
    let Some(guard) = state.get(id) else {
        return error(404, "unknown_session", format!("no session {id}"));
    };
    let handoff = {
        let slot = guard.lock().unwrap_or_else(|e| e.into_inner());
        match slot.handoff_parts() {
            Ok((snapshot, tail)) => HandoffRequest {
                session: id,
                snapshot,
                tail,
            },
            Err(msg) => return error(422, "not_rebalancable", msg),
        }
    };
    let payload = match serde_json::to_string(&handoff) {
        Ok(p) => p,
        Err(e) => return error(500, "encode_failed", e.0),
    };
    match client::request(
        &body.target,
        "POST",
        "/handoff",
        &payload,
        Duration::from_secs(30),
    ) {
        Ok((200, _)) => {
            // The target holds the session now; dropping it here also
            // ships a Delete to this shard's own followers.
            state.remove(id);
            panda_obs::counter_add_labeled("repl.rebalance_moves", &[("direction", "out")], 1);
            json_200(&RebalanceResponse {
                session: id,
                target: body.target,
                status: "moved".to_string(),
            })
        }
        Ok((status, resp_body)) => error(
            502,
            "handoff_rejected",
            format!("target {} answered {status}: {resp_body}", body.target),
        ),
        Err(msg) => error(
            502,
            "handoff_failed",
            format!("target {} unreachable: {msg}", body.target),
        ),
    }
}

/// `POST /handoff` (primary only): the receiving side of a rebalance.
/// The moved session is rebuilt through the same digest-verified replay
/// path as crash recovery — a seq gap or digest mismatch in the shipped
/// tail rejects the whole handoff (422) and installs nothing.
fn adopt_handoff(state: &AppState, req: &Request) -> Response {
    let body: HandoffRequest = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    if let Some(ring) = state.ring() {
        if !ring.owns(body.session) {
            return error(
                421,
                "misdirected",
                format!(
                    "session {} belongs to shard {}, not this server ({})",
                    body.session,
                    ring.owner_of(body.session),
                    ring.self_addr()
                ),
            );
        }
    }
    match state.rebuild(body.session, body.snapshot, &body.tail) {
        Ok(slot) => match state.adopt_handoff(slot) {
            Ok(()) => Response::json(200, r#"{"status":"adopted"}"#),
            Err(msg) => error(409, "adopt_failed", msg),
        },
        Err(e) => {
            panda_obs::counter_add_labeled("repl.quarantines", &[("reason", "handoff")], 1);
            error(422, "handoff_invalid", e.to_string())
        }
    }
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

/// `Some(421)` when this server is a follower — mutating routes answer
/// it instead of dispatching. The body names the primary when known.
fn primary_only(state: &AppState) -> Option<Response> {
    if !state.is_follower() {
        return None;
    }
    panda_obs::counter_add("serve.not_primary_421", 1);
    let primary = state.primary_http();
    let msg = match &primary {
        Some(addr) => {
            format!("this server is a read-only follower; send writes to the primary at {addr}")
        }
        None => "this server is a read-only follower; no primary announced yet".to_string(),
    };
    let mut body = ApiError::new("not_primary", msg).to_json();
    if let Some(addr) = &primary {
        // Splice a machine-readable `primary` field next to the error.
        if let Ok(quoted) = serde_json::to_string(addr) {
            body.truncate(body.len() - 1);
            body.push_str(",\"primary\":");
            body.push_str(&quoted);
            body.push('}');
        }
    }
    Some(Response::json(421, body))
}

/// `Some(421)` when the shard map says another peer owns `id` and the
/// session is not resident here (a leftover from before a ring change
/// keeps being served until it is rebalanced away).
fn misdirected_421(state: &AppState, id: u64) -> Option<Response> {
    let ring = state.ring()?;
    if ring.owns(id) || state.contains(id) {
        return None;
    }
    panda_obs::counter_add("serve.misdirected_421", 1);
    Some(error(
        421,
        "misdirected",
        format!(
            "session {id} belongs to shard {}; this server is {}",
            ring.owner_of(id),
            ring.self_addr()
        ),
    ))
}

/// `Some(409)` when the session is quarantined on this follower
/// (replication apply failed; a full resync from the primary clears it).
fn quarantined_409(state: &AppState, id: u64) -> Option<Response> {
    if !state.quarantined(id) {
        return None;
    }
    Some(error(
        409,
        "session_quarantined",
        format!(
            "session {id} is quarantined on this server (replication apply failed); \
             awaiting a full resync from the primary"
        ),
    ))
}

/// Parse a session handle from the path and check that this shard
/// serves it: 404 on a bad handle, 421 when another shard owns it.
fn owned_id(state: &AppState, raw: &str) -> Result<u64, Response> {
    let Some(id) = parse_id(raw) else {
        return Err(error(
            404,
            "unknown_session",
            format!("bad session id {raw:?}"),
        ));
    };
    match misdirected_421(state, id) {
        Some(resp) => Err(resp),
        None => Ok(id),
    }
}

/// Look up a session slot (rehydrating it if evicted) and run `f` under
/// its lock; 404 on a bad handle, 421 when another shard owns it, 409
/// when it is quarantined.
fn with_slot(
    state: &AppState,
    id: &str,
    f: impl FnOnce(u64, &mut SessionSlot) -> Response,
) -> Response {
    let id = match owned_id(state, id) {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    if let Some(resp) = quarantined_409(state, id) {
        return resp;
    }
    let Some(guard) = state.get(id) else {
        return error(404, "unknown_session", format!("no session {id}"));
    };
    let mut slot = guard.lock().unwrap_or_else(|e| e.into_inner());
    f(id, &mut slot)
}

/// Read-only convenience over [`with_slot`] for handlers that never log.
fn with_session(
    state: &AppState,
    id: &str,
    f: impl FnOnce(u64, &mut PandaSession) -> Response,
) -> Response {
    with_slot(state, id, |id, slot| f(id, &mut slot.session))
}

/// Cap on events returned per `/events` poll, whatever the client asks
/// for: bounds response size against the journal capacity.
const EVENTS_MAX: usize = 512;

/// Parse the `since` cursor off a `/events` request. `Err` carries the
/// 400 to answer with.
pub(crate) fn events_since(req: &Request) -> Result<u64, Response> {
    req.query_param("since")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| error(400, "bad_since", "since must be an integer sequence number"))
}

/// Parse the `max` batch-size parameter (default 256, capped).
pub(crate) fn events_max(req: &Request) -> usize {
    req.query_param("max")
        .and_then(|m| m.parse::<usize>().ok())
        .unwrap_or(256)
        .min(EVENTS_MAX)
}

/// `GET /events?since=<seq>[&max=<n>]`: non-destructive journal tail
/// from a sequence cursor. The event loop upgrades an empty tail to a
/// long-poll; this immediate form is what dispatch (and tests) use.
fn events_tail(req: &Request) -> Response {
    let since = match events_since(req) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let tail = panda_obs::journal_tail(since, events_max(req));
    Response::json(200, render_events_body(&tail))
}

/// Serialize a journal tail as the `/events` response body:
/// `{"next":N,"missed":M,"events":[...]}`. `next` is the cursor for the
/// next poll; `missed` counts events that aged out of the bounded
/// journal before this read (a follower reports them as a gap).
pub(crate) fn render_events_body(tail: &panda_obs::JournalTail) -> String {
    let mut body = format!(
        "{{\"next\":{},\"missed\":{},\"events\":[",
        tail.next, tail.missed
    );
    for (i, e) in tail.events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&e.to_json_line());
    }
    body.push_str("]}");
    body
}

/// The response for a refused or undurable session mutation.
fn op_error(e: OpError) -> Response {
    let (status, code) = match &e {
        OpError::BadConfig(_) => (400, "bad_config"),
        OpError::BadTables(_) => (400, "bad_tables"),
        OpError::BadLf(_) => (400, "bad_lf"),
        OpError::NoCandidates => (422, "no_candidates"),
        OpError::LfFailed(_) => (422, "lf_failed"),
        OpError::BadCandidate { .. } => (422, "bad_candidate"),
        OpError::UnknownLf(_) => (404, "unknown_lf"),
        OpError::NestedCreate => (409, "session_exists"),
        // Applied in memory but not durable: the client must treat the
        // op as not acknowledged.
        OpError::Persist(_) => {
            panda_obs::counter_add("serve.persist_failed_500", 1);
            (500, "persist_failed")
        }
    };
    error(status, code, e.to_string())
}

/// The standard session body: handle + fresh snapshot.
fn session_body(id: u64, session: &mut PandaSession) -> Response {
    json_200(&SessionResponse {
        session: id,
        snapshot: session.snapshot(),
    })
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

fn parse_body<T: Deserialize>(req: &Request) -> Result<T, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| error(400, "bad_json", "request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| error(400, "bad_json", e.0))
}

fn json_200<T: Serialize>(body: &T) -> Response {
    match serde_json::to_string(body) {
        Ok(json) => Response::json(200, json),
        Err(e) => error(500, "encode_failed", e.0),
    }
}

fn error(status: u16, code: &str, message: impl Into<String>) -> Response {
    Response::json(status, ApiError::new(code, message).to_json())
}

fn method_not_allowed(allowed: &str) -> Response {
    error(
        405,
        "method_not_allowed",
        format!("allowed methods: {allowed}"),
    )
}

fn status_class_counter(status: u16) -> &'static str {
    match status / 100 {
        2 => "serve.status_2xx",
        4 => "serve.status_4xx",
        _ => "serve.status_5xx",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path, ""),
        };
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            body: body.as_bytes().to_vec(),
        }
    }

    const LEFT_CSV: &str =
        "id,name,price\n1,apple iphone 12,799\n2,galaxy s21 ultra,1199\n3,pixel 5 phone,699";
    const RIGHT_CSV: &str = "id,name,price\n1,iphone 12 apple,789\n2,samsung galaxy s21 ultra,1199\n3,google pixel 5,705";

    fn create_body() -> String {
        serde_json::to_string(&crate::api::CreateSessionRequest {
            left_csv: LEFT_CSV.into(),
            right_csv: RIGHT_CSV.into(),
            gold: Some(vec![vec![0, 0], vec![1, 1], vec![2, 2]]),
            config: Some(crate::api::SessionConfigDto {
                auto_lfs: Some(false),
                ..Default::default()
            }),
        })
        .unwrap()
    }

    fn session_id(resp: &Response) -> u64 {
        let v = serde_json::parse_value(&resp.body).unwrap();
        match v.get_field("session") {
            Some(serde::Value::UInt(u)) => *u,
            Some(serde::Value::Int(i)) => *i as u64,
            other => panic!("no session id in {other:?}"),
        }
    }

    #[test]
    fn full_ide_loop_over_the_router() {
        let state = AppState::new();
        let resp = handle(&state, &req("POST", "/sessions", &create_body()));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let id = session_id(&resp);

        // Add an LF incrementally, refit, query, match.
        let lf =
            r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.3,"lower":0.05}"#;
        let resp = handle(&state, &req("POST", &format!("/sessions/{id}/lfs"), lf));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"n_lfs\":1"));

        let resp = handle(&state, &req("POST", &format!("/sessions/{id}/fit"), ""));
        assert_eq!(resp.status, 200, "{}", resp.body);

        // Spot-label a candidate, reject an out-of-range one.
        let resp = handle(
            &state,
            &req(
                "POST",
                &format!("/sessions/{id}/labels"),
                r#"{"candidate":0,"is_match":true}"#,
            ),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"n_user_labels\":1"), "{}", resp.body);
        let resp = handle(
            &state,
            &req(
                "POST",
                &format!("/sessions/{id}/labels"),
                r#"{"candidate":9999,"is_match":true}"#,
            ),
        );
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("bad_candidate"));

        // The listing shows one live, non-recovered session.
        let resp = handle(&state, &req("GET", "/sessions", ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"status\":\"live\""), "{}", resp.body);
        assert!(resp.body.contains("\"recovered\":false"), "{}", resp.body);

        let q = r#"{"lf":"name_overlap","query":"VotedMatch","limit":5}"#;
        let resp = handle(&state, &req("POST", &format!("/sessions/{id}/query"), q));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"rows\""));

        let m = format!(r#"{{"session":{id},"pairs":[[0,0],[1,1]]}}"#);
        let resp = handle(&state, &req("POST", "/match", &m));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"scores\""));

        let resp = handle(
            &state,
            &req("DELETE", &format!("/sessions/{id}/lfs/name_overlap"), ""),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = handle(&state, &req("DELETE", &format!("/sessions/{id}"), ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(state.is_empty());
    }

    #[test]
    fn error_paths_are_structured() {
        let state = AppState::new();
        // Malformed JSON → 400 with a code.
        let resp = handle(&state, &req("POST", "/sessions", "{nope"));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"code\":\"bad_json\""), "{}", resp.body);
        // Unknown route → 404, wrong method → 405.
        assert_eq!(handle(&state, &req("GET", "/nope", "")).status, 404);
        assert_eq!(handle(&state, &req("DELETE", "/healthz", "")).status, 405);
        // Unknown session → 404.
        let resp = handle(&state, &req("POST", "/sessions/77/fit", ""));
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("unknown_session"));
        // Empty pairs on /match → 422 (the zero-candidate contract).
        let resp = handle(
            &state,
            &req("POST", "/match", r#"{"session":1,"pairs":[]}"#),
        );
        assert_eq!(resp.status, 422);
        assert!(resp.body.contains("no_pairs"));
        // Match before any fit → 422 with the session's message.
        let resp = handle(&state, &req("POST", "/sessions", &create_body()));
        let id = session_id(&resp);
        let m = format!(r#"{{"session":{id},"pairs":[[0,0]]}}"#);
        // Session was created with auto_lfs=false → no LFs → fit happened at
        // load with an empty matrix, but score_pair needs a fitted model,
        // which load provides; force the no-fit error by checking a bad row
        // index instead.
        let bad = format!(r#"{{"session":{id},"pairs":[[99,0]]}}"#);
        let resp = handle(&state, &req("POST", "/match", &bad));
        assert_eq!(resp.status, 422, "{}", resp.body);
        let resp = handle(&state, &req("POST", "/match", &m));
        // Either a clean score or a clean error is acceptable here; what
        // matters is that it is never a panic or an empty 200.
        assert!(resp.status == 200 || resp.status == 422);
    }

    #[test]
    fn zero_candidates_is_a_422() {
        let state = AppState::new();
        // Disjoint vocabularies → blocking finds nothing.
        let body = serde_json::to_string(&crate::api::CreateSessionRequest {
            left_csv: "id,name\n1,aaaa bbbb".into(),
            right_csv: "id,name\n1,zzzz yyyy".into(),
            gold: None,
            config: Some(crate::api::SessionConfigDto {
                auto_lfs: Some(false),
                blocking_min_cosine: Some(0.99),
                ..Default::default()
            }),
        })
        .unwrap();
        let resp = handle(&state, &req("POST", "/sessions", &body));
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("no_candidates"));
        assert!(state.is_empty(), "failed load leaves no session behind");
    }

    #[test]
    fn health_metrics_and_shutdown() {
        let state = AppState::new();
        assert_eq!(handle(&state, &req("GET", "/healthz", "")).status, 200);
        let resp = handle(&state, &req("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        assert!(resp.body.starts_with('{'));
        let resp = handle(&state, &req("POST", "/shutdown", ""));
        assert_eq!(resp.status, 200);
        assert!(state.shutdown_requested());
    }

    #[test]
    fn metrics_format_negotiation() {
        let state = AppState::new();
        let resp = handle(&state, &req("GET", "/metrics?format=prometheus", ""));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain"));
        // Whatever series exist, the output must satisfy the in-tree
        // conformance parser.
        panda_obs::prom::parse(&resp.body).expect("conformant exposition");
        let resp = handle(&state, &req("GET", "/metrics?format=xml", ""));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("bad_format"));
    }

    #[test]
    fn events_tail_resumes_from_a_cursor() {
        let state = AppState::new();
        let resp = handle(&state, &req("GET", "/events", ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = serde_json::parse_value(&resp.body).unwrap();
        assert!(v.get_field("next").is_some(), "{}", resp.body);
        assert!(v.get_field("events").is_some(), "{}", resp.body);
        let resp = handle(&state, &req("GET", "/events?since=borked", ""));
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("bad_since"));
        assert_eq!(handle(&state, &req("POST", "/events", "")).status, 405);
    }
}
