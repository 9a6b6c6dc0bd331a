//! The LF trait and the life-cycle registry.

use crate::Label;
use panda_table::{CandidatePair, CandidateSet, PairRef, Record, Side, TablePair};
use std::collections::HashMap;
use std::sync::Arc;

/// A labeling function: a user-provided (or auto-generated) program that
/// votes on one candidate tuple pair.
///
/// Implementations must be `Send + Sync` because the label matrix applies
/// LFs from worker threads. An LF is allowed to panic — the matrix
/// quarantines the failure instead of crashing the session (see
/// [`crate::matrix::ApplyReport::failed`]).
pub trait LabelingFunction: Send + Sync {
    /// Unique name within a registry (e.g. `"name_overlap"`).
    fn name(&self) -> &str;

    /// Vote on one pair.
    fn label(&self, pair: &PairRef<'_>) -> Label;

    /// Get ready to vote on every pair of `candidates`: do the per-record
    /// work once (see [`per_referenced_record`]) and return a voter that
    /// only combines prepared data per pair. The voter must give exactly
    /// the label [`LabelingFunction::label`] gives on every pair, and
    /// abstain on a pair whose records do not exist.
    ///
    /// The default voter calls `label` on each pair.
    fn prepare<'a>(&'a self, tables: &'a TablePair, candidates: &CandidateSet) -> PairVoter<'a> {
        let _ = candidates;
        PairVoter::per_pair(self, tables)
    }

    /// One-line human description shown in the LF Stats Panel.
    fn description(&self) -> String {
        self.name().to_string()
    }

    /// Where the LF came from (shown in the IDE; auto-generated LFs are
    /// tagged so users can tell them apart).
    fn provenance(&self) -> LfProvenance {
        LfProvenance::Manual
    }
}

/// Votes one candidate pair at a time; what [`LabelingFunction::prepare`]
/// returns. The label matrix drops it once the LF's column is voted.
pub struct PairVoter<'a> {
    vote: Box<dyn Fn(CandidatePair) -> Label + Send + Sync + 'a>,
    prepared: bool,
}

impl<'a> PairVoter<'a> {
    /// A voter over data the LF prepared up front.
    pub fn prepared(vote: impl Fn(CandidatePair) -> Label + Send + Sync + 'a) -> Self {
        PairVoter {
            vote: Box::new(vote),
            prepared: true,
        }
    }

    /// The fallback voter: `lf.label` on each pair, abstaining on pairs
    /// whose records do not exist.
    pub fn per_pair<L: LabelingFunction + ?Sized>(lf: &'a L, tables: &'a TablePair) -> Self {
        PairVoter {
            vote: Box::new(move |pair| {
                tables
                    .pair_ref(pair)
                    .map_or(Label::Abstain, |p| lf.label(&p))
            }),
            prepared: false,
        }
    }

    /// Vote on one pair.
    pub fn vote(&self, pair: CandidatePair) -> Label {
        (self.vote)(pair)
    }

    /// Whether the voter reads prepared data (false for the per-pair
    /// fallback).
    pub fn is_prepared(&self) -> bool {
        self.prepared
    }
}

/// Run `f` once on every record that `candidates` references, per side,
/// and return the results indexed by record id (`None` for records no
/// pair references). Only pairs whose two records both exist count, and
/// records are visited in first-reference order — a pair's left record
/// before its right — which is the order per-pair labeling would first
/// touch them, so a panicking `f` fails on the same record it would.
pub fn per_referenced_record<'t, T>(
    tables: &'t TablePair,
    candidates: &CandidateSet,
    mut f: impl FnMut(Side, Record<'t>) -> T,
) -> [Vec<Option<T>>; 2] {
    let mut left: Vec<Option<T>> = std::iter::repeat_with(|| None)
        .take(tables.left.len())
        .collect();
    let mut right: Vec<Option<T>> = std::iter::repeat_with(|| None)
        .take(tables.right.len())
        .collect();
    for &pair in candidates.pairs() {
        let Ok(p) = tables.pair_ref(pair) else {
            continue;
        };
        if left[pair.left.idx()].is_none() {
            left[pair.left.idx()] = Some(f(Side::Left, p.left));
        }
        if right[pair.right.idx()].is_none() {
            right[pair.right.idx()] = Some(f(Side::Right, p.right));
        }
    }
    [left, right]
}

/// LF origin tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfProvenance {
    /// Written by the user.
    Manual,
    /// Generated by Auto-FuzzyJoin.
    Auto,
    /// Shipped with the built-in library.
    Builtin,
}

/// Shared-ownership LF handle.
pub type BoxedLf = Arc<dyn LabelingFunction>;

/// The set of LFs in play, with per-LF versions.
///
/// Versions drive incremental application: replacing an LF under the same
/// name bumps its version, so the next `apply` recomputes exactly that
/// column (paper §2.2: "LFs are applied incrementally, i.e. only the new
/// and modified LFs are executed").
#[derive(Clone, Default)]
pub struct LfRegistry {
    lfs: Vec<BoxedLf>,
    versions: HashMap<String, u64>,
    next_version: u64,
}

impl LfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a new LF or replace the one with the same name. Returns the
    /// version assigned.
    pub fn upsert(&mut self, lf: BoxedLf) -> u64 {
        self.next_version += 1;
        let v = self.next_version;
        let name = lf.name().to_string();
        match self.lfs.iter_mut().find(|e| e.name() == name) {
            Some(slot) => *slot = lf,
            None => self.lfs.push(lf),
        }
        self.versions.insert(name, v);
        v
    }

    /// Remove an LF by name. Returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.lfs.len();
        self.lfs.retain(|lf| lf.name() != name);
        self.versions.remove(name);
        self.lfs.len() != before
    }

    /// Current version of an LF (None when absent).
    pub fn version(&self, name: &str) -> Option<u64> {
        self.versions.get(name).copied()
    }

    /// All LFs in insertion order.
    pub fn lfs(&self) -> &[BoxedLf] {
        &self.lfs
    }

    /// Look up an LF by name.
    pub fn get(&self, name: &str) -> Option<&BoxedLf> {
        self.lfs.iter().find(|lf| lf.name() == name)
    }

    /// Number of registered LFs.
    pub fn len(&self) -> usize {
        self.lfs.len()
    }

    /// True when no LFs are registered.
    pub fn is_empty(&self) -> bool {
        self.lfs.is_empty()
    }

    /// Names in insertion order.
    pub fn names(&self) -> Vec<String> {
        self.lfs.iter().map(|lf| lf.name().to_string()).collect()
    }

    /// Re-insert an LF with an **explicit** version — the rehydration
    /// path of a durable session store. Versions feed the label-matrix
    /// digest, so recovery must reproduce the exact versions a session
    /// had when it was persisted rather than assigning fresh ones. Keeps
    /// `next_version` at least as large as `version`; call entries in
    /// their original insertion order to preserve column order.
    pub fn restore_entry(&mut self, lf: BoxedLf, version: u64) {
        let name = lf.name().to_string();
        match self.lfs.iter_mut().find(|e| e.name() == name) {
            Some(slot) => *slot = lf,
            None => self.lfs.push(lf),
        }
        self.versions.insert(name, version);
        self.next_version = self.next_version.max(version);
    }

    /// The version counter state: the next [`LfRegistry::upsert`] assigns
    /// `next_version() + 1`.
    pub fn next_version(&self) -> u64 {
        self.next_version
    }

    /// Restore the version counter. Persisted separately from the live
    /// versions because the maximum live version *undercounts* when the
    /// highest-versioned LF was removed — restoring from the max alone
    /// would let a later upsert reuse a version number, corrupting
    /// incremental-apply bookkeeping. Never moves the counter backwards.
    pub fn set_next_version(&mut self, v: u64) {
        self.next_version = self.next_version.max(v);
    }
}

impl std::fmt::Debug for LfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LfRegistry")
            .field("lfs", &self.names())
            .field("versions", &self.versions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ClosureLf;

    fn dummy(name: &str, vote: Label) -> BoxedLf {
        Arc::new(ClosureLf::new(name, move |_| vote))
    }

    #[test]
    fn upsert_assigns_increasing_versions() {
        let mut reg = LfRegistry::new();
        let v1 = reg.upsert(dummy("a", Label::Match));
        let v2 = reg.upsert(dummy("b", Label::Match));
        assert!(v2 > v1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.version("a"), Some(v1));
    }

    #[test]
    fn replace_bumps_version_keeps_position() {
        let mut reg = LfRegistry::new();
        reg.upsert(dummy("a", Label::Match));
        reg.upsert(dummy("b", Label::Match));
        let v_old = reg.version("a").unwrap();
        let v_new = reg.upsert(dummy("a", Label::NonMatch));
        assert!(v_new > v_old);
        assert_eq!(reg.names(), vec!["a", "b"], "replacement keeps order");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut reg = LfRegistry::new();
        reg.upsert(dummy("a", Label::Match));
        assert!(reg.remove("a"));
        assert!(!reg.remove("a"));
        assert!(reg.is_empty());
        assert_eq!(reg.version("a"), None);
    }

    #[test]
    fn restore_entry_reproduces_versions_and_counter() {
        // Live history: a=1, b=2, b replaced (3), b removed. Max live
        // version is 1 but the counter must resume at 3.
        let mut live = LfRegistry::new();
        live.upsert(dummy("a", Label::Match));
        live.upsert(dummy("b", Label::Match));
        live.upsert(dummy("b", Label::NonMatch));
        live.remove("b");

        let mut restored = LfRegistry::new();
        restored.restore_entry(dummy("a", Label::Match), live.version("a").unwrap());
        restored.set_next_version(live.next_version());
        assert_eq!(restored.version("a"), Some(1));
        assert_eq!(restored.next_version(), 3);
        assert_eq!(restored.upsert(dummy("c", Label::Match)), 4);
        // set_next_version never rolls the counter back.
        restored.set_next_version(2);
        assert_eq!(restored.next_version(), 4);
    }
}
