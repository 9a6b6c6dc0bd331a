//! The durability guarantee: a SIGKILL between requests loses at most
//! the in-flight request. Sessions rebuilt from snapshot + WAL replay
//! are **bit-identical** to the pre-crash session and to an offline
//! [`PandaSession`] replaying the same edits; corrupted state is
//! quarantined, never served wrong.
//!
//! A dropped [`AppState`] is exactly a SIGKILL from the store's point of
//! view: nothing flushes on drop, so whatever the WAL and snapshot files
//! hold at that moment is what recovery sees.

mod common;

use panda_serve::api::{CreateSessionRequest, SessionConfigDto};
use panda_serve::http::{Request, Response};
use panda_serve::router::handle;
use panda_serve::{AppState, StateOptions};
use panda_session::PandaSession;
use panda_table::CandidatePair;
use std::path::PathBuf;

fn req(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: String::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// A fresh per-test state directory (cleaned from any earlier run).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("panda-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path, snapshot_every: u64, max_sessions: usize) -> AppState {
    AppState::open(StateOptions {
        state_dir: Some(dir.to_path_buf()),
        max_sessions,
        session_ttl: None,
        snapshot_every,
        ..Default::default()
    })
    .expect("open state dir")
}

fn create_request() -> CreateSessionRequest {
    let (left_csv, right_csv, gold) = common::demo_csvs();
    CreateSessionRequest {
        left_csv,
        right_csv,
        gold: Some(gold),
        config: Some(SessionConfigDto {
            auto_lfs: Some(false),
            ..Default::default()
        }),
    }
}

fn create_body() -> String {
    serde_json::to_string(&create_request()).unwrap()
}

fn session_id(resp: &Response) -> u64 {
    let v = serde_json::parse_value(&resp.body).unwrap();
    match v.get_field("session") {
        Some(serde::Value::UInt(u)) => *u,
        Some(serde::Value::Int(i)) => *i as u64,
        other => panic!("no session id in {other:?}"),
    }
}

const LF1: &str =
    r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.5,"lower":0.1}"#;
const LF2: &str = r#"{"name":"price_tol","kind":"numeric_tolerance","attr":"price","match_tol":0.05,"unmatch_tol":0.5}"#;

/// Drive the standard edit sequence: create, two LFs, fit, one label.
/// With `snapshot_every = 3` this leaves *both* a snapshot (covering the
/// create + LFs) and live WAL records (fit + label) on disk — the exact
/// "kill between WAL append and snapshot compaction" window.
fn drive_session(state: &AppState) -> u64 {
    let resp = handle(state, &req("POST", "/sessions", &create_body()));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let id = session_id(&resp);
    for lf in [LF1, LF2] {
        let resp = handle(state, &req("POST", &format!("/sessions/{id}/lfs"), lf));
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = handle(state, &req("POST", &format!("/sessions/{id}/fit"), ""));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = handle(
        state,
        &req(
            "POST",
            &format!("/sessions/{id}/labels"),
            r#"{"candidate":0,"is_match":true}"#,
        ),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    id
}

fn snapshot_body(state: &AppState, id: u64) -> String {
    handle(state, &req("GET", &format!("/sessions/{id}"), "")).body
}

fn match_body(state: &AppState, id: u64) -> String {
    let pairs = format!(r#"{{"session":{id},"pairs":[[0,0],[1,1],[2,5],[7,7]]}}"#);
    let resp = handle(state, &req("POST", "/match", &pairs));
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

fn matrix_digest(state: &AppState, id: u64) -> u64 {
    let slot = state.get(id).expect("session present");
    let slot = slot.lock().unwrap();
    slot.session.matrix().digest()
}

#[test]
fn kill_between_append_and_compaction_recovers_bit_identically() {
    let dir = state_dir("crash");
    let (pre_digest, pre_snapshot, pre_match) = {
        let state = open(&dir, 3, 0);
        let id = drive_session(&state);
        (
            matrix_digest(&state, id),
            snapshot_body(&state, id),
            match_body(&state, id),
        )
        // `state` dropped here without compact_all(): the SIGKILL.
    };

    // Snapshot AND uncompacted WAL records must both exist on disk —
    // otherwise this test is not exercising the interesting window.
    let session_dir = dir.join("sessions").join("1");
    assert!(session_dir.join("snapshot.json").exists(), "no snapshot");
    let wal = std::fs::read_to_string(session_dir.join("wal.jsonl")).unwrap();
    assert!(
        wal.lines().count() >= 2,
        "expected live WAL records past the snapshot, got {wal:?}"
    );

    let state = open(&dir, 3, 0);
    let listing = handle(&state, &req("GET", "/sessions", ""));
    assert_eq!(listing.status, 200);
    assert!(
        listing.body.contains("\"recovered\":true"),
        "{}",
        listing.body
    );

    assert_eq!(
        matrix_digest(&state, 1),
        pre_digest,
        "matrix digest drifted"
    );
    assert_eq!(
        snapshot_body(&state, 1),
        pre_snapshot,
        "snapshot body drifted"
    );
    assert_eq!(match_body(&state, 1), pre_match, "match scores drifted");

    // Offline reference: the same edits through the library, no server.
    let create = create_request();
    let tables = panda_serve::api::build_tables(&create).unwrap();
    let config = create.config.clone().unwrap().resolve().unwrap();
    let mut offline = PandaSession::load(tables, config);
    for lf in [LF1, LF2] {
        let spec: panda_serve::api::LfSpec = serde_json::from_str(lf).unwrap();
        offline
            .upsert_lf_incremental(spec.build().unwrap())
            .unwrap();
    }
    offline.fit();
    offline.label_pair(0, true);
    assert_eq!(
        offline.matrix().digest(),
        pre_digest,
        "offline digest differs"
    );
    let slot = state.get(1).unwrap();
    let slot = slot.lock().unwrap();
    for pair in [[0u32, 0], [1, 1], [2, 5], [7, 7]] {
        let offline_score = offline
            .score_pair(CandidatePair::new(pair[0], pair[1]))
            .unwrap();
        let recovered_score = slot
            .session
            .score_pair(CandidatePair::new(pair[0], pair[1]))
            .unwrap();
        assert_eq!(
            offline_score.to_bits(),
            recovered_score.to_bits(),
            "posterior for {pair:?} not bit-identical"
        );
    }
    drop(slot);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_dropped_not_fatal() {
    // Two crashes mid-append: half a record, and a whole record whose
    // newline never landed (append writes the line, then the newline,
    // then fsyncs). Neither op was acknowledged, so recovery must drop
    // it and land on the pre-append state.
    for tag in ["half", "unterminated"] {
        let dir = state_dir(&format!("torn-{tag}"));
        let (pre_digest, pre_snapshot) = {
            let state = open(&dir, 0, 0); // never compact: everything in the WAL
            let id = drive_session(&state);
            (matrix_digest(&state, id), snapshot_body(&state, id))
        };
        let wal_path = dir.join("sessions").join("1").join("wal.jsonl");
        let acked = std::fs::read_to_string(&wal_path).unwrap();
        let tail = if tag == "half" {
            "{\"seq\":6,\"digest\":123,\"op\":{\"Fi".to_string()
        } else {
            let last = acked.trim_end().lines().last().unwrap();
            assert!(last.contains("\"seq\":5"), "{last}");
            last.replace("\"seq\":5", "\"seq\":6")
        };
        std::fs::write(&wal_path, acked.clone() + &tail).unwrap();

        let (post_match, post_snapshot) = {
            let state = open(&dir, 0, 0);
            assert_eq!(matrix_digest(&state, 1), pre_digest, "{tag}");
            assert_eq!(snapshot_body(&state, 1), pre_snapshot, "{tag}");
            // An acknowledged edit after recovery must land as a record
            // of its own, not glued onto the dropped fragment.
            let pre_match = match_body(&state, 1);
            let lf = r#"{"name":"name_overlap","kind":"similarity","attr":"name","upper":0.99,"lower":0.98}"#;
            let resp = handle(&state, &req("POST", "/sessions/1/lfs", lf));
            assert_eq!(resp.status, 200, "{}", resp.body);
            let post_match = match_body(&state, 1);
            assert_ne!(post_match, pre_match, "the edit must move the scores");
            (post_match, snapshot_body(&state, 1))
        };
        let wal = std::fs::read_to_string(&wal_path).unwrap();
        let appended = wal.strip_prefix(&acked).expect("acknowledged records kept");
        let record: Result<panda_serve::persist::WalRecord, _> =
            serde_json::from_str(appended.trim_end());
        assert!(
            appended.ends_with('\n') && record.is_ok_and(|r| r.seq == 6),
            "{tag}: the edit's record is not whole: {appended:?}"
        );

        let state = open(&dir, 0, 0);
        assert!(!state.quarantined(1), "{tag}: second recovery quarantined");
        assert_eq!(
            match_body(&state, 1),
            post_match,
            "{tag}: the edit was lost"
        );
        assert_eq!(snapshot_body(&state, 1), post_snapshot, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_state_is_quarantined_not_served() {
    // Mid-WAL corruption (not the tail) → the session must not come back.
    let dir = state_dir("corrupt-wal");
    {
        let state = open(&dir, 0, 0);
        drive_session(&state);
    }
    let wal_path = dir.join("sessions").join("1").join("wal.jsonl");
    let wal = std::fs::read_to_string(&wal_path).unwrap();
    let mut lines: Vec<String> = wal.lines().map(String::from).collect();
    assert!(lines.len() >= 3);
    lines[1] = "{\"seq\":2,\"garbage\":true}".to_string();
    std::fs::write(&wal_path, lines.join("\n") + "\n").unwrap();
    let state = open(&dir, 0, 0);
    assert!(state.is_empty(), "corrupted session must not be served");
    assert!(
        wal_path.exists(),
        "quarantined state is kept for inspection"
    );

    // Corrupted snapshot → same policy.
    let dir2 = state_dir("corrupt-snap");
    {
        let state = open(&dir2, 1, 0); // snapshot after every op
        drive_session(&state);
    }
    let snap_path = dir2.join("sessions").join("1").join("snapshot.json");
    let snap = std::fs::read_to_string(&snap_path).unwrap();
    std::fs::write(&snap_path, snap.replace("\"format\"", "\"fmt\"")).unwrap();
    let state = open(&dir2, 1, 0);
    assert!(state.is_empty(), "corrupted snapshot must not be served");
    assert!(snap_path.exists());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn lru_eviction_rehydrates_bit_identically() {
    let dir = state_dir("evict");
    let state = open(&dir, 4, 2);
    let a = drive_session(&state);
    let pre_a = snapshot_body(&state, a);
    let b = drive_session(&state);
    assert_eq!(state.live_len(), 2);
    // Touch `b` so `a` is the LRU victim, then push past capacity.
    let _ = snapshot_body(&state, b);
    let c = drive_session(&state);
    assert_eq!(state.live_len(), 2, "capacity bound respected");
    let listing = handle(&state, &req("GET", "/sessions", ""));
    assert!(
        listing.body.contains("\"status\":\"evicted\""),
        "{}",
        listing.body
    );
    assert_eq!(state.len(), 3, "evicted session still listed");

    // Touching the evicted session rehydrates it transparently, with a
    // byte-identical snapshot body.
    assert_eq!(snapshot_body(&state, a), pre_a, "rehydrated state drifted");
    let listing = handle(&state, &req("GET", "/sessions", ""));
    assert!(listing.body.contains(&format!("\"session\":{c}")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_removes_on_disk_state() {
    let dir = state_dir("delete");
    {
        let state = open(&dir, 4, 0);
        let id = drive_session(&state);
        let resp = handle(&state, &req("DELETE", &format!("/sessions/{id}"), ""));
        assert_eq!(resp.status, 200);
        assert!(!dir.join("sessions").join(id.to_string()).exists());
    }
    let state = open(&dir, 4, 0);
    assert!(state.is_empty(), "deleted session must not resurrect");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_compaction_leaves_an_empty_wal() {
    let dir = state_dir("compact");
    {
        let state = open(&dir, 0, 0); // no cadence: only compact_all writes
        drive_session(&state);
        state.compact_all();
    }
    let session_dir = dir.join("sessions").join("1");
    assert!(session_dir.join("snapshot.json").exists());
    let wal = std::fs::read_to_string(session_dir.join("wal.jsonl")).unwrap();
    assert!(wal.is_empty(), "graceful shutdown should reset the WAL");
    // Recovery replays zero records and still serves the session.
    let state = open(&dir, 0, 0);
    assert_eq!(state.len(), 1);
    assert!(handle(&state, &req("GET", "/sessions/1", "")).status == 200);
    let _ = std::fs::remove_dir_all(&dir);
}
