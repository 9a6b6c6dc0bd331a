//! The durable session store: per-session write-ahead log + compacted
//! snapshots.
//!
//! Layout under the state directory (`panda serve --state-dir`):
//!
//! ```text
//! <state-dir>/sessions/<id>/wal.jsonl      append-only op log
//! <state-dir>/sessions/<id>/snapshot.json  compacted state (optional)
//! ```
//!
//! **WAL.** Every acknowledged session-mutating request appends exactly
//! one JSONL [`WalRecord`] — create (with the full table CSVs + a config
//! digest), LF upsert/remove, fit, spot label — and fsyncs it *before*
//! the HTTP response is written (the fsync runs under the
//! `persist.wal.fsync` span, so `/metrics` exposes its latency histogram
//! for free). Records carry a monotonically increasing `seq` and the
//! [`panda_lf::LabelMatrix::digest`] taken **after** applying the op, so
//! replay can verify every step. A torn tail (bytes after the last
//! newline: a crash mid-append) is dropped, and cut off before the WAL is
//! appended to again: its op was never acknowledged. Corruption anywhere
//! else is an error — the session is quarantined instead of served wrong.
//!
//! **Snapshots.** Every `snapshot_every` appended ops the session is
//! dehydrated ([`panda_session::PandaSession::dehydrate`]) into
//! `snapshot.json` (tmp + fsync + rename, then directory fsync) and the
//! WAL is reset, bounding replay cost. Recovery loads the snapshot (if
//! any), verifies its config digest, rehydrates — which re-runs
//! deterministic blocking and checks the persisted matrix digest — then
//! replays WAL records with `seq > snapshot.last_seq` through the apply
//! step live requests use (`SessionSlot::replay`), re-verifying the
//! digest after each op.
//!
//! This module owns the formats ([`WalOp`], [`WalRecord`],
//! [`SnapshotFile`]), the replay recipe a session is rebuilt from, and
//! the per-session file sink ([`SessionPersist`]); applying ops is
//! [`crate::state::SessionSlot`]'s job.
//!
//! **Failure policy.** A WAL append failure surfaces as an error *before*
//! the response is acknowledged (the op stays applied in memory but the
//! client sees a 500 and must retry), and the persist handle latches
//! `broken` so later mutating ops fail fast instead of silently running
//! undurable. Reads keep working.

use crate::api::{build_tables, CreateSessionRequest, LfSpec};
use panda_lf::BoxedLf;
use panda_session::{PandaSession, SessionConfig, SessionState};
use panda_table::TablePair;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bumped when the snapshot encoding changes incompatibly.
pub const SNAPSHOT_FORMAT: u64 = 1;
/// Default appended ops between snapshot compactions.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 16;

const WAL_FILE: &str = "wal.jsonl";
const SNAPSHOT_FILE: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";
const BROKEN_MSG: &str =
    "session store is in a failed state (an earlier WAL or snapshot write failed); \
     mutating operations are rejected to avoid silent durability loss";

/// One session-mutating operation, as logged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalOp {
    /// Session creation: the full request (CSVs, gold, config DTO) plus
    /// a digest of its canonical JSON, re-verified at replay.
    Create {
        /// The original `POST /sessions` body.
        request: CreateSessionRequest,
        /// [`config_digest`] of `request` at log time.
        config_digest: u64,
    },
    /// `POST /sessions/{id}/lfs` — the declarative spec is the replay
    /// recipe.
    UpsertLf {
        /// The wire LF spec.
        spec: LfSpec,
    },
    /// `DELETE /sessions/{id}/lfs/{name}`.
    RemoveLf {
        /// Registry name removed.
        name: String,
    },
    /// `POST /sessions/{id}/fit` (warm-started refit).
    Fit,
    /// `POST /sessions/{id}/labels` (user spot label).
    Label {
        /// Candidate index.
        candidate: u64,
        /// The user's verdict.
        is_match: bool,
    },
}

/// One WAL line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotonic per-session sequence number, starting at 1.
    pub seq: u64,
    /// [`panda_lf::LabelMatrix::digest`] **after** applying `op`.
    pub digest: u64,
    /// The operation.
    pub op: WalOp,
}

/// The compacted snapshot file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// [`SNAPSHOT_FORMAT`] at write time.
    pub format: u64,
    /// WAL records with `seq <=` this are folded into `state`.
    pub last_seq: u64,
    /// [`config_digest`] of `request`, re-verified at load.
    pub config_digest: u64,
    /// The original create request (tables are rebuilt from it).
    pub request: CreateSessionRequest,
    /// The dehydrated session.
    pub state: SessionState,
}

/// FNV-1a digest of the canonical JSON of a create request — covers the
/// CSVs, gold pairs, and config DTO, so recovery refuses to rebuild a
/// session from a request that doesn't match what was logged.
pub fn config_digest(request: &CreateSessionRequest) -> u64 {
    let json = serde_json::to_string(request).unwrap_or_default();
    let mut h: u64 = 0xcbf29ce484222325;
    for b in json.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Rebuild an LF from its persisted wire-spec JSON — the `build_spec`
/// hook [`panda_session::PandaSession::rehydrate`] needs.
pub fn build_from_spec(name: &str, spec_json: &str) -> Result<BoxedLf, String> {
    let spec: LfSpec = serde_json::from_str(spec_json)
        .map_err(|e| format!("LF {name:?}: bad persisted spec: {}", e.0))?;
    spec.build()
}

/// Why a session mutation was refused or could not be made durable.
/// The router maps each variant to an HTTP status and error code;
/// replay wraps it in a [`ReplayError`].
#[derive(Debug)]
pub enum OpError {
    /// The create request's config overrides do not resolve.
    BadConfig(String),
    /// The create request's CSVs or gold pairs do not parse.
    BadTables(String),
    /// Blocking found no candidate pairs for the create request.
    NoCandidates,
    /// The LF spec does not build.
    BadLf(String),
    /// The LF failed while computing its column (the session rolled
    /// the edit back).
    LfFailed(String),
    /// No LF with this name is registered.
    UnknownLf(String),
    /// The label names a candidate index past the candidate set.
    BadCandidate {
        /// The requested index.
        index: u64,
        /// Number of candidate pairs.
        candidates: usize,
    },
    /// A create op sent to an existing session.
    NestedCreate,
    /// The op was applied in memory but could not be logged.
    Persist(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::BadConfig(msg)
            | OpError::BadTables(msg)
            | OpError::BadLf(msg)
            | OpError::LfFailed(msg)
            | OpError::Persist(msg) => f.write_str(msg),
            OpError::NoCandidates => f.write_str(
                "blocking produced zero candidate pairs; loosen blocking_min_cosine \
                 or check the input tables",
            ),
            OpError::UnknownLf(name) => write!(f, "no LF named {name:?}"),
            OpError::BadCandidate { index, candidates } => write!(
                f,
                "candidate {index} out of range ({candidates} candidate pairs)"
            ),
            OpError::NestedCreate => f.write_str("a create op cannot apply to an existing session"),
        }
    }
}

/// Why a logged record, snapshot or handoff could not be replayed. The
/// variant is the `repl.quarantines` reason label.
#[derive(Debug)]
pub enum ReplayError {
    /// A record does not directly follow the last applied one.
    Gap(String),
    /// A logged digest (post-op matrix or create request) differs from
    /// the replayed one.
    Digest(String),
    /// The snapshot or record is unreadable, or its op failed.
    Apply(String),
}

impl ReplayError {
    /// The `repl.quarantines{reason}` label.
    pub fn reason(&self) -> &'static str {
        match self {
            ReplayError::Gap(_) => "gap",
            ReplayError::Digest(_) => "digest",
            ReplayError::Apply(_) => "apply",
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Gap(msg) | ReplayError::Digest(msg) | ReplayError::Apply(msg) => {
                f.write_str(msg)
            }
        }
    }
}

/// Compare the matrix digest after replaying record `seq` with the one
/// the record logged.
pub(crate) fn check_digest(
    seq: u64,
    logged: u64,
    session: &PandaSession,
) -> Result<(), ReplayError> {
    let got = session.matrix().digest();
    if got == logged {
        return Ok(());
    }
    Err(ReplayError::Digest(format!(
        "matrix digest mismatch at WAL seq {seq}: logged {logged:#018x}, replayed {got:#018x}"
    )))
}

/// What a session can be rebuilt from: its create request, the wire
/// spec of every spec-backed LF, and the seq of the last applied op.
/// Sessions inserted through the library have no request and cannot be
/// snapshotted.
#[derive(Default)]
pub(crate) struct Recipe {
    pub(crate) request: Option<CreateSessionRequest>,
    /// LF name → wire-spec JSON; written only by `SessionSlot::apply`.
    pub(crate) specs: HashMap<String, String>,
    pub(crate) last_seq: u64,
}

impl Recipe {
    /// Load a fresh session from a create request.
    pub(crate) fn load(request: CreateSessionRequest) -> Result<(PandaSession, Recipe), OpError> {
        let (tables, config) = session_inputs(&request)?;
        let session = PandaSession::load(tables, config);
        if session.candidates().is_empty() {
            // Same contract as `panda match` on the CLI: zero candidates
            // is a client problem, never a silent success.
            return Err(OpError::NoCandidates);
        }
        let recipe = Recipe {
            request: Some(request),
            ..Recipe::default()
        };
        Ok((session, recipe))
    }

    /// Rebuild a session from a snapshot: verifies the format and config
    /// digest, then rehydrates (which re-runs deterministic blocking and
    /// checks the persisted matrix digest).
    pub(crate) fn rehydrate(snap: SnapshotFile) -> Result<(PandaSession, Recipe), ReplayError> {
        if snap.format != SNAPSHOT_FORMAT {
            return Err(ReplayError::Apply(format!(
                "snapshot format {} unsupported (expected {SNAPSHOT_FORMAT})",
                snap.format
            )));
        }
        if snap.config_digest != config_digest(&snap.request) {
            return Err(ReplayError::Digest(
                "snapshot create-request digest mismatch".into(),
            ));
        }
        let (tables, config) =
            session_inputs(&snap.request).map_err(|e| ReplayError::Apply(e.to_string()))?;
        let session = PandaSession::rehydrate(tables, config, &snap.state, &build_from_spec)
            .map_err(ReplayError::Apply)?;
        let specs = snap
            .state
            .lfs
            .iter()
            .filter_map(|lf| Some((lf.name.clone(), lf.spec.clone()?)))
            .collect();
        let recipe = Recipe {
            request: Some(snap.request),
            specs,
            last_seq: snap.last_seq,
        };
        Ok((session, recipe))
    }

    /// Rebuild a session from the create record that starts its log.
    pub(crate) fn replay_create(rec: &WalRecord) -> Result<(PandaSession, Recipe), ReplayError> {
        let WalOp::Create {
            request,
            config_digest: logged,
        } = &rec.op
        else {
            return Err(ReplayError::Gap(format!(
                "WAL op at seq {} before create",
                rec.seq
            )));
        };
        if rec.seq != 1 {
            return Err(ReplayError::Gap(format!(
                "seq gap: record {} follows 0",
                rec.seq
            )));
        }
        if *logged != config_digest(request) {
            return Err(ReplayError::Digest("create record digest mismatch".into()));
        }
        let (session, mut recipe) = Recipe::load(request.clone())
            .map_err(|e| ReplayError::Apply(format!("WAL seq {}: {e}", rec.seq)))?;
        check_digest(rec.seq, rec.digest, &session)?;
        recipe.last_seq = rec.seq;
        Ok((session, recipe))
    }

    /// The snapshot of `session` as of `last_seq` — what compaction,
    /// eviction, adoption, sync frames and handoffs persist or ship.
    /// `Ok(None)` for a library insert.
    pub(crate) fn snapshot(&self, session: &PandaSession) -> Result<Option<SnapshotFile>, String> {
        let Some(request) = &self.request else {
            return Ok(None);
        };
        let state = session.dehydrate(&|name| self.specs.get(name).cloned())?;
        Ok(Some(SnapshotFile {
            format: SNAPSHOT_FORMAT,
            last_seq: self.last_seq,
            config_digest: config_digest(request),
            request: request.clone(),
            state,
        }))
    }
}

/// The session config and tables a create request describes.
fn session_inputs(request: &CreateSessionRequest) -> Result<(TablePair, SessionConfig), OpError> {
    let config = request
        .config
        .clone()
        .unwrap_or_default()
        .resolve()
        .map_err(OpError::BadConfig)?;
    let tables = build_tables(request).map_err(OpError::BadTables)?;
    Ok((tables, config))
}

/// The on-disk store: owns the state directory and opens per-session
/// persistence handles.
#[derive(Debug, Clone)]
pub struct SessionStore {
    sessions_dir: PathBuf,
    snapshot_every: u64,
}

impl SessionStore {
    /// Open (creating if needed) a state directory.
    pub fn open(dir: &Path, snapshot_every: u64) -> Result<SessionStore, String> {
        let sessions_dir = dir.join("sessions");
        fs::create_dir_all(&sessions_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", sessions_dir.display()))?;
        Ok(SessionStore {
            sessions_dir,
            snapshot_every,
        })
    }

    /// Session ids present on disk (unordered).
    pub fn scan(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.sessions_dir) else {
            return Vec::new();
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().and_then(|s| s.parse().ok()))
            .collect()
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.sessions_dir.join(id.to_string())
    }

    /// Remove a session's on-disk state (`DELETE /sessions/{id}`).
    pub fn delete(&self, id: u64) {
        let _ = fs::remove_dir_all(self.session_dir(id));
    }

    /// A handle over a fresh session directory with an empty WAL: the
    /// caller logs the create record next, or writes the snapshot of a
    /// handed-off session.
    pub fn create(&self, id: u64) -> Result<SessionPersist, String> {
        let dir = self.session_dir(id);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        self.handle(dir, true, 0)
    }

    /// Re-attach to a recovered session's WAL, appending after the
    /// `replayed` records it already holds past the snapshot. The WAL is
    /// first cut back to `wal_len`, its length up to the last complete
    /// record as [`SessionStore::read`] found it, and the cut is fsynced:
    /// a torn tail left in place would glue itself to the next record.
    pub fn reopen(&self, id: u64, replayed: u64, wal_len: u64) -> Result<SessionPersist, String> {
        let persist = self.handle(self.session_dir(id), false, replayed)?;
        let cut = (|| -> std::io::Result<()> {
            if persist.wal.metadata()?.len() > wal_len {
                persist.wal.set_len(wal_len)?;
                persist.wal.sync_data()?;
            }
            Ok(())
        })();
        cut.map_err(|e| format!("cut torn WAL tail in {}: {e}", persist.dir.display()))?;
        Ok(persist)
    }

    /// The snapshot, WAL records and complete WAL length on disk for one
    /// session.
    pub fn read(&self, id: u64) -> Result<DiskParts, String> {
        read_parts(&self.session_dir(id))
    }

    fn handle(
        &self,
        dir: PathBuf,
        truncate: bool,
        replayed: u64,
    ) -> Result<SessionPersist, String> {
        let wal_path = dir.join(WAL_FILE);
        let wal = OpenOptions::new()
            .create(true)
            .append(!truncate)
            .write(true)
            .truncate(truncate)
            .open(&wal_path)
            .map_err(|e| format!("open {}: {e}", wal_path.display()))?;
        Ok(SessionPersist {
            dir,
            wal,
            ops_since_snapshot: replayed,
            snapshot_every: self.snapshot_every,
            broken: false,
        })
    }
}

/// A session directory as read back: the snapshot, if any, the WAL
/// records, and the WAL's length up to its last complete record.
pub type DiskParts = (Option<SnapshotFile>, Vec<WalRecord>, u64);

/// Read a session directory: the snapshot, if any, and every WAL record.
///
/// A record is complete once its `\n` is on disk ([`SessionPersist::append`]
/// writes the line, then the newline, then fsyncs, and only then
/// acknowledges). Bytes after the last `\n` — half a line, or a whole
/// JSON line whose newline never landed — are a torn tail from a crash
/// mid-append: dropped, and left out of the returned length so
/// [`SessionStore::reopen`] can cut them off. Any complete line that does
/// not parse, or a gap between records in the file (even ones the
/// snapshot covers), is corruption.
fn read_parts(dir: &Path) -> Result<DiskParts, String> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let snapshot = if snap_path.exists() {
        let text = fs::read_to_string(&snap_path)
            .map_err(|e| format!("read {}: {e}", snap_path.display()))?;
        Some(serde_json::from_str(&text).map_err(|e| format!("snapshot: {}", e.0))?)
    } else {
        None
    };
    let wal_path = dir.join(WAL_FILE);
    let mut records: Vec<WalRecord> = Vec::new();
    let mut complete = 0;
    if wal_path.exists() {
        let bytes = fs::read(&wal_path).map_err(|e| format!("read {}: {e}", wal_path.display()))?;
        complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if complete < bytes.len() {
            panda_obs::counter_add("persist.wal.torn_tail", 1);
        }
        let text = std::str::from_utf8(&bytes[..complete])
            .map_err(|e| format!("read {}: {e}", wal_path.display()))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: WalRecord =
                serde_json::from_str(line).map_err(|e| format!("WAL line {}: {}", i + 1, e.0))?;
            if let Some(prev) = records.last() {
                if rec.seq != prev.seq + 1 {
                    return Err(format!("WAL gap: record {} follows {}", rec.seq, prev.seq));
                }
            }
            records.push(rec);
        }
    }
    Ok((snapshot, records, complete as u64))
}

/// Per-session persistence handle over the session directory: appends
/// and fsyncs WAL lines, writes snapshots (resetting the WAL), and reads
/// both back. All calls happen under the session's mutex, so WAL writes
/// and the snapshot-then-truncate sequence are never concurrent.
pub struct SessionPersist {
    dir: PathBuf,
    wal: File,
    ops_since_snapshot: u64,
    snapshot_every: u64,
    broken: bool,
}

impl SessionPersist {
    /// Durably append one serialized [`WalRecord`]: write, then fsync.
    /// Called *after* the op was applied (the record carries the
    /// resulting matrix digest) and *before* the response is
    /// acknowledged. A failure latches the handle broken.
    pub fn append(&mut self, line: &str) -> Result<(), String> {
        if self.broken {
            return Err(BROKEN_MSG.into());
        }
        let written = (|| -> std::io::Result<()> {
            self.wal.write_all(line.as_bytes())?;
            self.wal.write_all(b"\n")?;
            let _fsync = panda_obs::span("persist.wal.fsync");
            self.wal.sync_data()
        })();
        if let Err(e) = written {
            self.broken = true;
            panda_obs::counter_add("persist.wal.append_failed", 1);
            return Err(format!("WAL append failed: {e}"));
        }
        self.ops_since_snapshot += 1;
        panda_obs::counter_add("persist.wal.appends", 1);
        Ok(())
    }

    /// Whether the snapshot cadence calls for a compaction now.
    pub fn compaction_due(&self) -> bool {
        self.snapshot_every > 0 && self.ops_since_snapshot >= self.snapshot_every
    }

    /// Write `snap` to `snapshot.json` (tmp + fsync + rename, then dir
    /// fsync) and reset the WAL. Used by the compaction cadence, LRU
    /// eviction, handoff adoption and graceful shutdown.
    pub fn write_snapshot(&mut self, snap: &SnapshotFile) -> Result<(), String> {
        if self.broken {
            return Err(BROKEN_MSG.into());
        }
        let json = serde_json::to_string(snap).map_err(|e| e.0)?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let result = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_data()?;
            fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
            // Make the rename itself durable, then reset the WAL (safe
            // under the session lock — no append can interleave). A
            // crash between rename and reset leaves stale WAL records
            // with seq <= last_seq, which replay skips.
            File::open(&self.dir).and_then(|d| d.sync_all())?;
            self.wal.set_len(0)?;
            self.wal.seek(SeekFrom::Start(0))?;
            self.wal.sync_data()
        })();
        match result {
            Ok(()) => {
                self.ops_since_snapshot = 0;
                panda_obs::counter_add("persist.snapshots.written", 1);
                Ok(())
            }
            Err(e) => {
                self.broken = true;
                Err(format!("snapshot write failed: {e}"))
            }
        }
    }

    /// Records appended since the last snapshot (replay cost on crash).
    pub fn wal_depth(&self) -> u64 {
        self.ops_since_snapshot
    }

    /// Read the on-disk snapshot + WAL records back for a cross-shard
    /// handoff. Runs under the session lock, so the files are quiescent.
    pub fn read_back(&self) -> Result<(Option<SnapshotFile>, Vec<WalRecord>), String> {
        read_parts(&self.dir).map(|(snapshot, records, _)| (snapshot, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_digest_is_stable_and_sensitive() {
        let req = CreateSessionRequest {
            left_csv: "id,name\n1,a".into(),
            right_csv: "id,name\n1,b".into(),
            gold: None,
            config: None,
        };
        assert_eq!(config_digest(&req), config_digest(&req.clone()));
        let mut other = req.clone();
        other.left_csv.push_str("\n2,c");
        assert_ne!(config_digest(&req), config_digest(&other));
    }

    #[test]
    fn build_from_spec_round_trips_wire_specs() {
        let spec = LfSpec {
            name: "name_overlap".into(),
            kind: "similarity".into(),
            attr: Some("name".into()),
            upper: Some(0.7),
            ..Default::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let lf = build_from_spec("name_overlap", &json).unwrap();
        assert_eq!(lf.name(), "name_overlap");
        assert!(build_from_spec("x", "{not json").is_err());
    }
}
