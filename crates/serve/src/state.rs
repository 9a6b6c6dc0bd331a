//! Shared server state: the session table, the durable store, capacity
//! management, and the shutdown latch.
//!
//! Sessions sit behind individual mutexes so requests against *different*
//! sessions proceed in parallel; the outer map lock is held only for
//! lookup/insert/remove/eviction bookkeeping. Lock order is always map →
//! session (the evictor only `try_lock`s victims while holding the map
//! lock, so it can never deadlock against a worker that holds a session
//! and wants the map). A poisoned session lock (an LF panicked while a
//! worker held it) is recovered — the session rolls back failed edits
//! itself, so its state stays coherent.
//!
//! Every session mutation goes through one apply step on
//! [`SessionSlot`]: live requests call [`SessionSlot::execute`], which
//! applies a [`WalOp`] and logs it as the next WAL record; crash
//! recovery, the follower apply loop and `/handoff` rebuild sessions
//! with [`AppState::rebuild`], which feeds each logged record to
//! `SessionSlot::replay` — the same apply step plus the duplicate, gap
//! and digest checks.
//!
//! With a [`SessionStore`] attached, every slot carries a
//! [`SessionPersist`] WAL handle, startup replays the state directory,
//! LRU entries beyond `max_sessions` are **evicted to snapshot** (the
//! entry stays in the map with `slot: None` and transparently rehydrates
//! on the next touch), and a TTL sweep evicts idle sessions.

use crate::api::CreateSessionRequest;
use crate::persist::{
    check_digest, config_digest, OpError, Recipe, ReplayError, SessionPersist, SessionStore,
    SnapshotFile, WalOp, WalRecord,
};
use crate::repl::{ReplHub, ReplMsg, SessionCursor, ShardRing};
use panda_session::PandaSession;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, Instant};

/// Lock-free per-session replication metadata, shared between the slot
/// (writer: every applied op) and the session-table entry (reader:
/// `GET /sessions`), so listings report `wal_seq` + `matrix_digest`
/// without taking session locks behind a long fit.
pub struct SlotMeta {
    wal_seq: AtomicU64,
    digest: AtomicU64,
}

impl SlotMeta {
    fn new(wal_seq: u64, digest: u64) -> Arc<SlotMeta> {
        Arc::new(SlotMeta {
            wal_seq: AtomicU64::new(wal_seq),
            digest: AtomicU64::new(digest),
        })
    }

    fn set(&self, wal_seq: u64, digest: u64) {
        self.wal_seq.store(wal_seq, Ordering::SeqCst);
        self.digest.store(digest, Ordering::SeqCst);
    }
}

/// The hub handle shared by every slot: set once by `Server::start`
/// when `--repl-addr` is configured, read on every logged op.
type HubCell = Arc<OnceLock<Arc<ReplHub>>>;

/// A live session, the recipe it can be rebuilt from, and its
/// persistence handle (absent without `--state-dir` and on followers).
pub struct SessionSlot {
    /// The session itself.
    pub session: PandaSession,
    recipe: Recipe,
    persist: Option<SessionPersist>,
    meta: Arc<SlotMeta>,
    id: u64,
    hub: HubCell,
}

impl SessionSlot {
    fn new(id: u64, (session, recipe): (PandaSession, Recipe), hub: &HubCell) -> SessionSlot {
        SessionSlot {
            meta: SlotMeta::new(recipe.last_seq, session.matrix().digest()),
            session,
            recipe,
            persist: None,
            id,
            hub: Arc::clone(hub),
        }
    }

    /// Run one mutation from a live request: validate and apply `op`,
    /// then log it as the next WAL record (fsynced with a store, and
    /// shipped to followers) before the response is acknowledged. On
    /// any error but [`OpError::Persist`] the session is unchanged;
    /// `Persist` means the op is applied in memory but not durable, so
    /// the client must treat it as not acknowledged.
    pub fn execute(&mut self, op: WalOp) -> Result<(), OpError> {
        self.apply(&op)?;
        self.log(op)
    }

    /// Replay one logged record through the same apply step. `Ok(false)`
    /// means it was skipped as a duplicate (already covered by the
    /// snapshot, or a replication resend); a gap, a failed op or a
    /// digest mismatch is an error, and the caller quarantines instead
    /// of serving wrong state.
    pub(crate) fn replay(&mut self, rec: &WalRecord) -> Result<bool, ReplayError> {
        let last = self.recipe.last_seq;
        if rec.seq <= last {
            return Ok(false);
        }
        if rec.seq != last + 1 {
            return Err(ReplayError::Gap(format!(
                "seq gap: record {} follows {last}",
                rec.seq
            )));
        }
        self.apply(&rec.op)
            .map_err(|e| ReplayError::Apply(format!("WAL seq {}: {e}", rec.seq)))?;
        check_digest(rec.seq, rec.digest, &self.session)?;
        self.recipe.last_seq = rec.seq;
        self.meta.set(rec.seq, rec.digest);
        Ok(true)
    }

    /// Apply one op to the session and keep the LF spec map in step.
    fn apply(&mut self, op: &WalOp) -> Result<(), OpError> {
        let session = &mut self.session;
        match op {
            WalOp::Create { .. } => return Err(OpError::NestedCreate),
            WalOp::UpsertLf { spec } => {
                let lf = spec.build().map_err(OpError::BadLf)?;
                // An LF that panics on some pair is the user's bug; the
                // session has already rolled the edit back.
                session
                    .upsert_lf_incremental(lf)
                    .map_err(OpError::LfFailed)?;
                let json = serde_json::to_string(spec).map_err(|e| OpError::Persist(e.0))?;
                self.recipe.specs.insert(spec.name.clone(), json);
            }
            WalOp::RemoveLf { name } => {
                if !session.remove_lf_incremental(name) {
                    return Err(OpError::UnknownLf(name.clone()));
                }
                self.recipe.specs.remove(name);
            }
            WalOp::Fit => session.fit(),
            WalOp::Label {
                candidate,
                is_match,
            } => {
                let candidates = session.candidates().len();
                match usize::try_from(*candidate) {
                    Ok(i) if i < candidates => session.label_pair(i, *is_match),
                    _ => {
                        return Err(OpError::BadCandidate {
                            index: *candidate,
                            candidates,
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// Record an applied op as the next WAL record: append and ship it
    /// when persisted, publish the listing metadata, and compact when
    /// the snapshot cadence is due.
    fn log(&mut self, op: WalOp) -> Result<(), OpError> {
        let rec = WalRecord {
            seq: self.recipe.last_seq + 1,
            digest: self.session.matrix().digest(),
            op,
        };
        if let Some(persist) = &mut self.persist {
            let line = serde_json::to_string(&rec).map_err(|e| OpError::Persist(e.0))?;
            persist.append(&line).map_err(OpError::Persist)?;
            if let Some(hub) = self.hub.get() {
                hub.ship_record(self.id, &line);
            }
        }
        self.recipe.last_seq = rec.seq;
        self.meta.set(rec.seq, rec.digest);
        if self
            .persist
            .as_ref()
            .is_some_and(SessionPersist::compaction_due)
        {
            if let Err(msg) = self.write_snapshot() {
                // The record itself is already durable; a failed
                // compaction only costs replay time now and blocks
                // *future* appends fast via the latched handle.
                eprintln!("panda-serve: snapshot compaction failed: {msg}");
            }
        }
        Ok(())
    }

    /// Snapshot the session into its store and reset the WAL; the span
    /// covers dehydration and the write.
    fn write_snapshot(&mut self) -> Result<(), String> {
        let _span = panda_obs::span("persist.snapshot.write");
        let persist = self.persist.as_mut().ok_or("session has no store")?;
        let snap = self
            .recipe
            .snapshot(&self.session)?
            .ok_or("session has no create request")?;
        persist.write_snapshot(&snap)
    }

    /// The highest acknowledged sequence number for this session.
    pub fn wal_seq(&self) -> u64 {
        self.recipe.last_seq
    }

    /// The serialized `Sync` frame replication ships to a follower.
    /// `Ok(None)` for library inserts, which cannot be replicated.
    fn sync_frame(&self) -> Result<Option<String>, String> {
        let Some(snapshot) = self.recipe.snapshot(&self.session)? else {
            return Ok(None);
        };
        let msg = ReplMsg::Sync {
            session: self.id,
            snapshot,
        };
        serde_json::to_string(&msg).map(Some).map_err(|e| e.0)
    }

    /// The snapshot + WAL-tail parts `/rebalance` ships to the target
    /// shard: the on-disk pair when persisted, a fresh snapshot
    /// otherwise.
    pub(crate) fn handoff_parts(&self) -> Result<(Option<SnapshotFile>, Vec<WalRecord>), String> {
        if let Some(p) = &self.persist {
            return p.read_back();
        }
        match self.recipe.snapshot(&self.session)? {
            Some(snap) => Ok((Some(snap), Vec::new())),
            None => Err(
                "session has no replay recipe (library insert without a create request); \
                 it cannot be rebalanced"
                    .into(),
            ),
        }
    }
}

/// One session-table entry. `slot: None` means evicted-to-snapshot (or
/// quarantined, when the flag is set).
struct Entry {
    slot: Option<Arc<Mutex<SessionSlot>>>,
    last_touch: Instant,
    recovered: bool,
    quarantined: bool,
    meta: Arc<SlotMeta>,
}

/// A `GET /sessions` listing row, pre-wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// Session handle.
    pub id: u64,
    /// In memory right now (vs evicted to snapshot).
    pub live: bool,
    /// Rebuilt from disk at server startup.
    pub recovered: bool,
    /// Replication apply failed (digest mismatch / seq gap); reads are
    /// refused until a full resync replaces the session.
    pub quarantined: bool,
    /// Highest acknowledged WAL sequence number.
    pub wal_seq: u64,
    /// Label-matrix digest after the last acknowledged op.
    pub matrix_digest: u64,
}

/// Durability and capacity knobs for [`AppState::open`].
#[derive(Debug, Clone, Default)]
pub struct StateOptions {
    /// State directory; `None` runs fully in-memory.
    pub state_dir: Option<PathBuf>,
    /// Max sessions held in memory (0 = unbounded). Beyond it, LRU
    /// entries are evicted to snapshot (with a store) or dropped
    /// entirely (without one).
    pub max_sessions: usize,
    /// Idle time after which a session is evicted by [`AppState::sweep`].
    pub session_ttl: Option<Duration>,
    /// Appended WAL ops between snapshot compactions (0 = never).
    pub snapshot_every: u64,
    /// Start as a read-only follower (`panda serve --follow`): mutations
    /// answer 421 and state arrives over the replication link.
    pub follower: bool,
    /// Consistent-hash shard map (`--peers`); `None` = unsharded.
    pub ring: Option<ShardRing>,
}

/// Everything the worker threads share.
pub struct AppState {
    entries: Mutex<HashMap<u64, Entry>>,
    store: Option<SessionStore>,
    max_live: usize,
    ttl: Option<Duration>,
    /// Serializes rehydration so N concurrent touches of one evicted
    /// session replay it once, and the map lock stays free meanwhile.
    rehydrate_lock: Mutex<()>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// True while this server is a read-only follower; `POST /promote`
    /// clears it.
    follower: AtomicBool,
    /// The primary's HTTP address (learned from its `Hello` frame),
    /// quoted in 421 mutation rejections.
    primary_http: Mutex<Option<String>>,
    ring: Option<ShardRing>,
    hub: HubCell,
}

impl Default for AppState {
    fn default() -> Self {
        AppState::open(StateOptions::default()).expect("in-memory state cannot fail")
    }
}

fn lock_map(state: &AppState) -> MutexGuard<'_, HashMap<u64, Entry>> {
    state.entries.lock().unwrap_or_else(|e| e.into_inner())
}

impl AppState {
    /// Fresh in-memory state with no sessions and no durability.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open state with durability/capacity options. With a state dir,
    /// every persisted session is recovered (WAL-on-top-of-snapshot,
    /// digest-verified) before this returns; sessions that fail to
    /// recover are quarantined on disk and skipped with a counter + a
    /// stderr note, never served wrong.
    pub fn open(options: StateOptions) -> Result<Self, String> {
        let store = match &options.state_dir {
            Some(dir) => Some(SessionStore::open(dir, options.snapshot_every)?),
            None => None,
        };
        let state = AppState {
            entries: Mutex::new(HashMap::new()),
            store,
            max_live: options.max_sessions,
            ttl: options.session_ttl,
            rehydrate_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            follower: AtomicBool::new(options.follower),
            primary_http: Mutex::new(None),
            ring: options.ring,
            hub: Arc::new(OnceLock::new()),
        };
        if let Some(store) = &state.store {
            let _span = panda_obs::span("serve.recover");
            let mut ids = store.scan();
            ids.sort_unstable();
            for id in ids {
                state.next_id.fetch_max(id + 1, Ordering::Relaxed);
                match state.recover(id) {
                    Ok(slot) => {
                        state.install(&mut lock_map(&state), slot, true);
                        panda_obs::counter_add("serve.sessions.recovered", 1);
                    }
                    Err(msg) => {
                        panda_obs::counter_add("serve.sessions.recovery_failed", 1);
                        eprintln!("panda-serve: session {id} not recovered ({msg}); its state dir is kept for inspection");
                    }
                }
            }
            publish_live_gauge(&lock_map(&state));
        }
        state.enforce_capacity(None);
        Ok(state)
    }

    /// Create a session from a `POST /sessions` request: load it, log
    /// the create record (durably, with a store, before this returns)
    /// and register it. Returns the wire handle.
    pub fn create(&self, request: CreateSessionRequest) -> Result<u64, OpError> {
        let loaded = Recipe::load(request)?;
        let id = self.mint_id();
        let mut slot = SessionSlot::new(id, loaded, &self.hub);
        if let Some(store) = &self.store {
            slot.persist = Some(store.create(id).map_err(OpError::Persist)?);
        }
        let request = slot.recipe.request.clone().expect("loaded from a request");
        slot.log(WalOp::Create {
            config_digest: config_digest(&request),
            request,
        })?;
        self.install(&mut lock_map(self), slot, false);
        self.enforce_capacity(Some(id));
        Ok(id)
    }

    /// Register a session with no backing request (library/test use —
    /// such sessions are never persisted); returns its wire handle.
    pub fn insert(&self, session: PandaSession) -> u64 {
        let id = self.mint_id();
        let slot = SessionSlot::new(id, (session, Recipe::default()), &self.hub);
        self.install(&mut lock_map(self), slot, false);
        self.enforce_capacity(Some(id));
        id
    }

    /// Hand out a fresh session id. With a shard map, only ids this
    /// shard owns are handed out, so the same id can never be minted on
    /// two shards. The ring mixes peers evenly, so the expected number
    /// of skipped ids is the peer count — cheap, and ids stay
    /// unique-per-shard forever.
    fn mint_id(&self) -> u64 {
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            match &self.ring {
                Some(ring) if !ring.owns(id) => continue,
                _ => return id,
            }
        }
    }

    /// Register `slot` under its id, replacing any entry there (a full
    /// sync clears a quarantine this way), and return the shared slot.
    fn install(
        &self,
        map: &mut HashMap<u64, Entry>,
        slot: SessionSlot,
        recovered: bool,
    ) -> Arc<Mutex<SessionSlot>> {
        let id = slot.id;
        let meta = Arc::clone(&slot.meta);
        let slot = Arc::new(Mutex::new(slot));
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        map.insert(
            id,
            Entry {
                slot: Some(Arc::clone(&slot)),
                last_touch: Instant::now(),
                recovered,
                quarantined: false,
                meta,
            },
        );
        // Gauge published under the map lock: a concurrent insert
        // cannot interleave between the mutation and the publish.
        publish_live_gauge(map);
        slot
    }

    /// Rebuild a session from an optional snapshot plus the records
    /// after it — the path crash recovery, followers and `/handoff`
    /// share. Without a snapshot the first record must be the create;
    /// every later record goes through `SessionSlot::replay`.
    pub fn rebuild(
        &self,
        id: u64,
        snapshot: Option<SnapshotFile>,
        records: &[WalRecord],
    ) -> Result<SessionSlot, ReplayError> {
        let (loaded, rest) = match (snapshot, records) {
            (Some(snap), _) => (Recipe::rehydrate(snap)?, records),
            (None, [first, rest @ ..]) => (Recipe::replay_create(first)?, rest),
            (None, []) => {
                return Err(ReplayError::Apply(
                    "no snapshot and no create record — nothing to recover".into(),
                ))
            }
        };
        let mut slot = SessionSlot::new(id, loaded, &self.hub);
        for rec in rest {
            slot.replay(rec)?;
        }
        Ok(slot)
    }

    /// Rebuild a persisted session from its directory (snapshot + WAL
    /// replay) and re-attach its WAL for appends. Errors quarantine the
    /// session — its directory is left untouched for inspection.
    fn recover(&self, id: u64) -> Result<SessionSlot, String> {
        let store = self.store.as_ref().ok_or("no state directory")?;
        let _span = panda_obs::span("persist.session.recover");
        let (snapshot, records, wal_len) = store.read(id)?;
        let base = snapshot.as_ref().map_or(0, |s| s.last_seq);
        let mut slot = self
            .rebuild(id, snapshot, &records)
            .map_err(|e| e.to_string())?;
        // Replay is contiguous, so the records applied past the snapshot
        // are exactly the seqs it advanced by.
        slot.persist = Some(store.reopen(id, slot.wal_seq() - base, wal_len)?);
        Ok(slot)
    }

    /// Look up a session by handle, rehydrating it from its snapshot if
    /// it was evicted. Touches the LRU clock.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<SessionSlot>>> {
        match self.probe(id) {
            Probe::Live(slot) => return Some(slot),
            Probe::Missing => return None,
            Probe::Evicted => {}
        }
        // Rehydrate outside the map lock, serialized so concurrent
        // touches of the same evicted session load it once.
        let guard = self
            .rehydrate_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match self.probe(id) {
            Probe::Live(slot) => return Some(slot),
            Probe::Missing => return None,
            Probe::Evicted => {}
        }
        // Only a store evicts to snapshot; a slot-less entry without one
        // is a quarantined replica awaiting its resync.
        self.store.as_ref()?;
        let _span = panda_obs::span("serve.session.rehydrate");
        match self.recover(id) {
            Ok(slot) => {
                let slot = {
                    let mut map = lock_map(self);
                    let recovered = map.get(&id)?.recovered; // deleted meanwhile
                    self.install(&mut map, slot, recovered)
                };
                panda_obs::counter_add("serve.sessions.rehydrated", 1);
                drop(guard);
                self.enforce_capacity(Some(id));
                Some(slot)
            }
            Err(msg) => {
                panda_obs::counter_add("serve.sessions.recovery_failed", 1);
                eprintln!("panda-serve: session {id} failed to rehydrate: {msg}");
                None
            }
        }
    }

    fn probe(&self, id: u64) -> Probe {
        let mut map = lock_map(self);
        match map.get_mut(&id) {
            None => Probe::Missing,
            Some(entry) => {
                entry.last_touch = Instant::now();
                match &entry.slot {
                    Some(slot) => Probe::Live(Arc::clone(slot)),
                    None => Probe::Evicted,
                }
            }
        }
    }

    /// Drop a session (memory and disk). Returns whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        let existed = {
            let mut map = lock_map(self);
            let existed = map.remove(&id).is_some();
            publish_live_gauge(&map);
            existed
        };
        if existed {
            if let Some(store) = &self.store {
                store.delete(id);
            }
            if let Some(hub) = self.hub.get() {
                hub.ship_delete(id);
            }
        }
        existed
    }

    /// Number of known sessions (live + evicted).
    pub fn len(&self) -> usize {
        lock_map(self).len()
    }

    /// Whether no sessions are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sessions currently held in memory.
    pub fn live_len(&self) -> usize {
        lock_map(self).values().filter(|e| e.slot.is_some()).count()
    }

    /// Listing rows for `GET /sessions`, sorted by id. Sequence numbers
    /// and digests come from the shared per-entry metadata, so a long
    /// fit holding a session lock never blocks the listing.
    pub fn list(&self) -> Vec<SessionInfo> {
        let map = lock_map(self);
        let mut rows: Vec<SessionInfo> = map
            .iter()
            .map(|(&id, e)| SessionInfo {
                id,
                live: e.slot.is_some(),
                recovered: e.recovered,
                quarantined: e.quarantined,
                wal_seq: e.meta.wal_seq.load(Ordering::SeqCst),
                matrix_digest: e.meta.digest.load(Ordering::SeqCst),
            })
            .collect();
        drop(map);
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Is this session known (live, evicted, or quarantined)? Does not
    /// touch the LRU clock — used by the shard misdirect check.
    pub fn contains(&self, id: u64) -> bool {
        lock_map(self).contains_key(&id)
    }

    /// Is this session quarantined (replication apply failed)?
    pub fn quarantined(&self, id: u64) -> bool {
        lock_map(self).get(&id).is_some_and(|e| e.quarantined)
    }

    /// Evict LRU live sessions down to the `max_sessions` bound. Victims
    /// whose lock is currently held by a worker are skipped (soft
    /// overshoot rather than deadlock); the next enforcement catches
    /// them. `exempt` protects the entry that triggered enforcement.
    fn enforce_capacity(&self, exempt: Option<u64>) {
        if self.max_live == 0 {
            return;
        }
        let mut map = lock_map(self);
        loop {
            let live = map.values().filter(|e| e.slot.is_some()).count();
            if live <= self.max_live {
                return;
            }
            let mut victims: Vec<(Instant, u64)> = map
                .iter()
                .filter(|(id, e)| e.slot.is_some() && Some(**id) != exempt)
                .map(|(&id, e)| (e.last_touch, id))
                .collect();
            victims.sort_unstable();
            let evicted_one = victims
                .iter()
                .any(|&(_, id)| self.evict_locked(&mut map, id));
            if !evicted_one {
                return; // everyone busy or un-evictable right now
            }
        }
    }

    /// Evict idle sessions past the TTL. Driven from shard 0's
    /// event-loop timer (~1s cadence).
    pub fn sweep(&self) {
        let Some(ttl) = self.ttl else {
            return;
        };
        let now = Instant::now();
        let mut map = lock_map(self);
        let stale: Vec<u64> = map
            .iter()
            .filter(|(_, e)| e.slot.is_some() && now.duration_since(e.last_touch) >= ttl)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            self.evict_locked(&mut map, id);
        }
    }

    /// Evict one live entry while holding the map lock. With a store the
    /// session is snapshotted and the entry kept (rehydratable); without
    /// one the entry is dropped entirely. Returns whether it evicted.
    fn evict_locked(&self, map: &mut HashMap<u64, Entry>, id: u64) -> bool {
        let Some(entry) = map.get(&id) else {
            return false;
        };
        let Some(slot) = entry.slot.clone() else {
            return false;
        };
        let mut locked = match slot.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false, // a worker is in it
        };
        if self.store.is_some() {
            if locked.persist.is_none() {
                return false; // request-less session: nothing to rehydrate from
            }
            if let Err(msg) = locked.write_snapshot() {
                panda_obs::counter_add("serve.sessions.evict_failed", 1);
                eprintln!("panda-serve: session {id} not evicted: {msg}");
                return false;
            }
            drop(locked);
            map.get_mut(&id).expect("entry present").slot = None;
        } else {
            drop(locked);
            map.remove(&id);
        }
        panda_obs::counter_add("serve.sessions.evicted", 1);
        if panda_obs::journal_enabled() {
            panda_obs::event("serve.session.evicted")
                .field("session", id)
                .field("rehydratable", self.store.is_some())
                .emit();
        }
        publish_live_gauge(map);
        true
    }

    /// Snapshot every live persisted session — graceful-shutdown path,
    /// so a later restart replays zero WAL records. Failures are logged,
    /// never fatal: the WAL already holds everything.
    pub fn compact_all(&self) {
        if self.store.is_none() {
            return;
        }
        let slots: Vec<(u64, Arc<Mutex<SessionSlot>>)> = {
            let map = lock_map(self);
            map.iter()
                .filter_map(|(&id, e)| e.slot.clone().map(|s| (id, s)))
                .collect()
        };
        for (id, slot) in slots {
            let mut locked = slot.lock().unwrap_or_else(|e| e.into_inner());
            // Sessions without a WAL, or with nothing past the last
            // snapshot, are already compact.
            if locked.persist.as_ref().is_some_and(|p| p.wal_depth() > 0) {
                if let Err(msg) = locked.write_snapshot() {
                    eprintln!("panda-serve: final snapshot of session {id} failed: {msg}");
                }
            }
        }
    }

    /// Is this server currently a read-only follower?
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    /// Flip a follower to primary (`POST /promote`). Returns whether the
    /// role actually changed. Wakes the parked apply loop so it exits;
    /// everything already applied stays — at most the in-flight record
    /// is lost.
    pub fn promote(&self) -> bool {
        let was_follower = self.follower.swap(false, Ordering::SeqCst);
        if was_follower {
            panda_obs::counter_add("repl.promotions", 1);
            crate::signal::wake_all();
        }
        was_follower
    }

    /// The primary's HTTP address (learned from its `Hello` frame).
    pub fn primary_http(&self) -> Option<String> {
        self.primary_http
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Record the primary's HTTP address for 421 redirects.
    pub fn set_primary_http(&self, addr: String) {
        *self.primary_http.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
    }

    /// The consistent-hash shard map, when `--peers` was configured.
    pub fn ring(&self) -> Option<&ShardRing> {
        self.ring.as_ref()
    }

    /// Attach the replication hub (primary with `--repl-addr`). Called
    /// once at server start, before any request is accepted.
    pub fn set_hub(&self, hub: Arc<ReplHub>) {
        let _ = self.hub.set(hub);
    }

    /// The replication hub, when WAL shipping is active.
    pub fn hub(&self) -> Option<Arc<ReplHub>> {
        self.hub.get().cloned()
    }

    /// Per-session cursors for the subscribe handshake. Quarantined
    /// sessions are omitted, so the primary answers with a full sync
    /// that replaces the quarantined state wholesale.
    pub fn replica_cursors(&self) -> Vec<SessionCursor> {
        let map = lock_map(self);
        let mut cursors: Vec<SessionCursor> = map
            .iter()
            .filter(|(_, e)| !e.quarantined)
            .map(|(&id, e)| SessionCursor {
                session: id,
                seq: e.meta.wal_seq.load(Ordering::SeqCst),
            })
            .collect();
        drop(map);
        cursors.sort_by_key(|c| c.session);
        cursors
    }

    /// Serialized `Sync` frames for every replicable session a fresh
    /// subscriber is behind on (runs on the hub thread). Sessions whose
    /// cursor already matches are skipped — a reconnect after a clean
    /// link drop resyncs nothing.
    pub fn sync_frames(&self, cursors: &[SessionCursor]) -> Vec<String> {
        let by_id: HashMap<u64, u64> = cursors.iter().map(|c| (c.session, c.seq)).collect();
        let mut ids: Vec<u64> = {
            let map = lock_map(self);
            map.keys().copied().collect()
        };
        ids.sort_unstable();
        let mut frames = Vec::new();
        for id in ids {
            let Some(slot) = self.get(id) else { continue };
            let locked = slot.lock().unwrap_or_else(|e| e.into_inner());
            if by_id.get(&id).copied() == Some(locked.wal_seq()) {
                continue;
            }
            match locked.sync_frame() {
                Ok(Some(frame)) => {
                    panda_obs::counter_add_labeled("repl.shipped", &[("kind", "sync")], 1);
                    frames.push(frame);
                }
                Ok(None) => {} // request-less library insert: not replicable
                Err(msg) => {
                    eprintln!("panda-serve: session {id} sync snapshot failed: {msg}");
                }
            }
        }
        frames
    }

    /// Apply one replication frame (follower side). Failures quarantine
    /// the affected session — they never crash the apply loop.
    pub fn apply_repl_frame(&self, msg: ReplMsg) {
        match msg {
            ReplMsg::Hello { http_addr } => self.set_primary_http(http_addr),
            ReplMsg::Sync { session, snapshot } => match self.rebuild(session, Some(snapshot), &[])
            {
                // Replacing the entry is how a full sync clears a
                // quarantine.
                Ok(slot) => {
                    self.install(&mut lock_map(self), slot, false);
                    panda_obs::counter_add_labeled("repl.applied", &[("kind", "sync")], 1);
                }
                Err(e) => self.quarantine(session, &e),
            },
            ReplMsg::Record { session, record } => self.replay_shipped(session, &record),
            ReplMsg::Delete { session } => {
                if self.remove_replica(session) {
                    panda_obs::counter_add_labeled("repl.applied", &[("kind", "delete")], 1);
                }
            }
            // Primary-bound frames; nothing to do on this side.
            ReplMsg::Subscribe { .. } | ReplMsg::Ack { .. } => {}
        }
    }

    /// Apply one shipped WAL record to the replica it belongs to.
    fn replay_shipped(&self, id: u64, rec: &WalRecord) {
        let slot = lock_map(self).get(&id).and_then(|e| e.slot.clone());
        let applied = match slot {
            Some(slot) => {
                let mut locked = slot.lock().unwrap_or_else(|e| e.into_inner());
                locked.replay(rec)
            }
            // Awaiting the resync that clears the quarantine.
            None if self.quarantined(id) => return,
            // Unknown session: only a create record is self-contained.
            None => self
                .rebuild(id, None, std::slice::from_ref(rec))
                .map(|slot| {
                    self.install(&mut lock_map(self), slot, false);
                    true
                }),
        };
        match applied {
            Ok(true) => panda_obs::counter_add_labeled("repl.applied", &[("kind", "record")], 1),
            Ok(false) => {} // duplicate already covered by a sync
            Err(e) => self.quarantine(id, &e),
        }
    }

    /// Quarantine a session after a failed replication apply: the slot
    /// is dropped, reads answer 409, and a later full sync replaces it.
    fn quarantine(&self, id: u64, err: &ReplayError) {
        panda_obs::counter_add_labeled("repl.quarantines", &[("reason", err.reason())], 1);
        eprintln!("panda-serve: session {id} quarantined ({err}); awaiting full resync");
        let mut map = lock_map(self);
        let entry = map.entry(id).or_insert_with(|| Entry {
            slot: None,
            last_touch: Instant::now(),
            recovered: false,
            quarantined: true,
            meta: SlotMeta::new(0, 0),
        });
        entry.slot = None;
        entry.quarantined = true;
        publish_live_gauge(&map);
        if panda_obs::journal_enabled() {
            panda_obs::event("repl.session.quarantined")
                .field("session", id)
                .emit();
        }
    }

    /// Remove a replicated session (shipped delete) — memory only, no
    /// store involvement and no onward shipping.
    fn remove_replica(&self, id: u64) -> bool {
        let mut map = lock_map(self);
        let existed = map.remove(&id).is_some();
        publish_live_gauge(&map);
        existed
    }

    /// Install a handed-off session, rebuilt by [`AppState::rebuild`],
    /// on this shard (the receiving side of `/rebalance`). With a store
    /// the moved state is snapshotted durably before this returns, and
    /// the session is announced to this shard's own followers as a full
    /// sync.
    pub fn adopt_handoff(&self, mut slot: SessionSlot) -> Result<(), String> {
        let id = slot.id;
        if self.contains(id) {
            return Err(format!("session {id} already exists on this shard"));
        }
        if let Some(store) = &self.store {
            slot.persist = Some(store.create(id)?);
            slot.write_snapshot()?;
        }
        let slot = self.install(&mut lock_map(self), slot, false);
        panda_obs::counter_add_labeled("repl.rebalance_moves", &[("direction", "in")], 1);
        if let Some(hub) = self.hub.get() {
            let locked = slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Ok(Some(frame)) = locked.sync_frame() {
                hub.ship_sync_frame(frame);
            }
        }
        self.enforce_capacity(Some(id));
        Ok(())
    }

    /// Ask the server to stop accepting and drain. Wakes every parked
    /// event loop so idle keep-alive connections are closed promptly
    /// instead of at the next timer tick.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        crate::signal::wake_all();
    }

    /// Has shutdown been requested (by `/shutdown` or a signal)?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::sigterm_received()
    }
}

enum Probe {
    Live(Arc<Mutex<SessionSlot>>),
    Evicted,
    Missing,
}

fn publish_live_gauge(map: &HashMap<u64, Entry>) {
    let live = map.values().filter(|e| e.slot.is_some()).count();
    panda_obs::gauge_set("serve.sessions.live", live as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_session::SessionConfig;
    use panda_table::{Table, TablePair};

    fn tiny_session() -> PandaSession {
        let left = Table::from_csv_str("l", "id,name\n1,acme corp\n2,zeta llc", true).unwrap();
        let right = Table::from_csv_str("r", "id,name\n1,acme corporation", true).unwrap();
        PandaSession::load(
            TablePair::new(left, right),
            SessionConfig {
                auto_lfs: false,
                ..Default::default()
            },
        )
    }

    #[test]
    fn insert_get_remove_lifecycle() {
        let state = AppState::new();
        assert!(state.is_empty());
        let a = state.insert(tiny_session());
        let b = state.insert(tiny_session());
        assert_ne!(a, b);
        assert_eq!(state.len(), 2);
        assert!(state.get(a).is_some());
        assert!(state.get(999).is_none());
        assert!(state.remove(a));
        assert!(!state.remove(a));
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn shutdown_latch() {
        let state = AppState::new();
        assert!(!state.shutdown_requested());
        state.request_shutdown();
        assert!(state.shutdown_requested());
    }

    #[test]
    fn capacity_without_store_drops_lru() {
        let state = AppState::open(StateOptions {
            max_sessions: 2,
            ..Default::default()
        })
        .unwrap();
        let a = state.insert(tiny_session());
        let b = state.insert(tiny_session());
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        assert!(state.get(a).is_some());
        let c = state.insert(tiny_session());
        assert_eq!(state.live_len(), 2);
        assert!(state.get(b).is_none(), "LRU dropped without a store");
        assert!(state.get(a).is_some());
        assert!(state.get(c).is_some());
    }

    #[test]
    fn sweep_without_ttl_is_a_noop() {
        let state = AppState::new();
        state.insert(tiny_session());
        state.sweep();
        assert_eq!(state.live_len(), 1);
    }

    #[test]
    fn ttl_sweep_drops_idle_sessions() {
        let state = AppState::open(StateOptions {
            session_ttl: Some(Duration::from_millis(10)),
            ..Default::default()
        })
        .unwrap();
        let id = state.insert(tiny_session());
        std::thread::sleep(Duration::from_millis(25));
        state.sweep();
        assert!(state.get(id).is_none(), "idle session swept");
        assert!(state.is_empty());
    }
}
