//! The `pairs × LFs` label matrix with incremental application.

use crate::lf::{BoxedLf, LabelingFunction, LfRegistry};
use crate::Label;
use panda_table::{CandidateSet, TablePair};
use std::panic::AssertUnwindSafe;

/// Pairs per work item when applying LFs. A property of the data layout,
/// *not* of the worker count: results are identical under any
/// `PANDA_WORKERS`, and blocks are small enough that one slow LF spreads
/// over all workers instead of serializing a whole column.
const PAIR_BLOCK: usize = 1024;

/// Votes per packed `u64` word (2 bits each).
pub const VOTES_PER_WORD: usize = 32;

/// 2-bit vote codes. `0b11` is reserved and never stored.
const CODE_ABSTAIN: u64 = 0b00;
const CODE_MATCH: u64 = 0b01;
const CODE_NONMATCH: u64 = 0b10;

/// Code → historical `i8` encoding. The reserved code decodes to abstain
/// defensively; it is unreachable through any constructor.
const CODE_TO_I8: [i8; 4] = [0, 1, -1, 0];

/// Every-other-bit mask for word-at-a-time vote counting.
const LO_MASK: u64 = 0x5555_5555_5555_5555;

/// One LF's votes packed 2-bit, 32 per `u64` word.
///
/// Layout: vote `i` occupies bits `2·(i%32) .. 2·(i%32)+2` of word
/// `i/32` — `00` abstain, `01` match, `10` non-match, `11` reserved.
/// Unused tail lanes of the final word are always `00`, so word-at-a-time
/// consumers count matches/non-matches without a tail mask: with
/// `lo = w & 0x5555…` and `hi = (w >> 1) & 0x5555…`, match lanes are
/// `lo & !hi`, non-match lanes `hi & !lo`, and a popcount of each gives
/// the per-word tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedVotes {
    words: Vec<u64>,
    len: usize,
}

impl PackedVotes {
    /// Empty storage with room for `n` votes.
    pub fn with_capacity(n: usize) -> Self {
        PackedVotes {
            words: Vec::with_capacity(n.div_ceil(VOTES_PER_WORD)),
            len: 0,
        }
    }

    /// Number of votes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no votes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one vote.
    #[inline]
    pub fn push(&mut self, label: Label) {
        let code = match label {
            Label::Abstain => CODE_ABSTAIN,
            Label::Match => CODE_MATCH,
            Label::NonMatch => CODE_NONMATCH,
        };
        let lane = self.len % VOTES_PER_WORD;
        if lane == 0 {
            self.words.push(0);
        }
        *self.words.last_mut().expect("word pushed above") |= code << (2 * lane);
        self.len += 1;
    }

    /// Strict-decode a persisted `i8` vote column. An out-of-range byte is
    /// rejected with its index and value — the recovery path's quarantine
    /// trigger (see [`LabelMatrix::restore`]).
    pub fn try_from_i8s(labels: &[i8]) -> Result<Self, (usize, i8)> {
        let mut out = Self::with_capacity(labels.len());
        for (i, &v) in labels.iter().enumerate() {
            out.push(Label::try_from_i8(v).map_err(|bad| (i, bad))?);
        }
        Ok(out)
    }

    /// Raw 2-bit code of vote `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i / VOTES_PER_WORD] >> (2 * (i % VOTES_PER_WORD))) & 0b11) as u8
    }

    /// Vote `i` in the historical `+1/0/-1` encoding.
    #[inline]
    pub fn get(&self, i: usize) -> i8 {
        CODE_TO_I8[self.code(i) as usize]
    }

    /// The packed words (zero-padded tail — see the type docs).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Decode to the historical `Vec<i8>` representation.
    pub fn decode(&self) -> Vec<i8> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// `(matches, non-matches, abstains)` via word-at-a-time popcounts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut m = 0usize;
        let mut u = 0usize;
        for &w in &self.words {
            let lo = w & LO_MASK;
            let hi = (w >> 1) & LO_MASK;
            m += (lo & !hi).count_ones() as usize;
            u += (hi & !lo).count_ones() as usize;
        }
        (m, u, self.len - m - u)
    }
}

/// One LF's votes over the candidate set.
#[derive(Debug, Clone)]
struct Column {
    name: String,
    version: u64,
    votes: PackedVotes,
}

/// What one `apply` call did — surfaced in the IDE after
/// `labeler.apply()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApplyReport {
    /// LFs that were (re-)executed this call.
    pub applied: Vec<String>,
    /// LFs whose cached column was still valid (incremental skip).
    pub reused: Vec<String>,
    /// Columns dropped because their LF left the registry.
    pub removed: Vec<String>,
    /// LFs that panicked: `(name, panic message)`. Their columns are
    /// dropped; the session keeps running (quarantine, not crash).
    pub failed: Vec<(String, String)>,
}

/// The label matrix: for every candidate pair, every LF's vote.
///
/// Applying is *incremental*: a column is recomputed only when its LF is
/// new or has a bumped version (paper §2.2, "LFs are applied
/// incrementally"). Changing the candidate set invalidates everything.
#[derive(Debug, Clone, Default)]
pub struct LabelMatrix {
    n_pairs: usize,
    fingerprint: u64,
    columns: Vec<Column>,
}

impl LabelMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidate pairs (rows).
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of LF columns currently materialised.
    pub fn n_lfs(&self) -> usize {
        self.columns.len()
    }

    /// Column names in registry order.
    pub fn lf_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// One LF's votes (`+1/0/-1` per pair), decoded from packed storage.
    pub fn column(&self, name: &str) -> Option<Vec<i8>> {
        self.packed_column(name).map(PackedVotes::decode)
    }

    /// One LF's packed votes — the zero-copy accessor the EM hot loops
    /// iterate word-at-a-time.
    pub fn packed_column(&self, name: &str) -> Option<&PackedVotes> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .map(|c| &c.votes)
    }

    /// Iterate `(lf name, decoded votes)` in registry order.
    pub fn columns(&self) -> impl Iterator<Item = (&str, Vec<i8>)> {
        self.columns
            .iter()
            .map(|c| (c.name.as_str(), c.votes.decode()))
    }

    /// Iterate `(lf name, packed votes)` in registry order (hot paths).
    pub fn packed_columns(&self) -> impl Iterator<Item = (&str, &PackedVotes)> {
        self.columns.iter().map(|c| (c.name.as_str(), &c.votes))
    }

    /// The votes of all LFs on pair `i` (registry order).
    pub fn row(&self, i: usize) -> Vec<i8> {
        self.columns.iter().map(|c| c.votes.get(i)).collect()
    }

    /// `(matches, non-matches, abstains)` voted by one LF —
    /// word-at-a-time popcounts over the packed column.
    pub fn counts(&self, name: &str) -> Option<(usize, usize, usize)> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.votes.counts())
    }

    /// Apply the registry to the candidate set, reusing any column whose
    /// LF version is unchanged. LFs are prepared and voted one at a time,
    /// each over all workers; a panicking LF is quarantined into
    /// [`ApplyReport::failed`].
    pub fn apply(
        &mut self,
        registry: &LfRegistry,
        tables: &TablePair,
        candidates: &CandidateSet,
    ) -> ApplyReport {
        let _span = panda_obs::span("lf.matrix.apply");
        let fp = fingerprint(candidates);
        if fp != self.fingerprint || candidates.len() != self.n_pairs {
            // New candidate set: all cached columns are meaningless.
            self.columns.clear();
            self.fingerprint = fp;
            self.n_pairs = candidates.len();
        }

        let mut report = ApplyReport::default();

        // Drop columns for LFs that were removed from the registry.
        let keep: Vec<String> = registry.names();
        self.columns.retain(|c| {
            let stays = keep.iter().any(|n| n == &c.name);
            if !stays {
                report.removed.push(c.name.clone());
            }
            stays
        });

        // Decide what needs computing.
        let mut jobs: Vec<usize> = Vec::new(); // indices into registry
        for (idx, lf) in registry.lfs().iter().enumerate() {
            let version = registry.version(lf.name()).unwrap_or(0);
            match self.columns.iter().find(|c| c.name == lf.name()) {
                Some(c) if c.version == version && c.votes.len() == candidates.len() => {
                    report.reused.push(lf.name().to_string());
                }
                _ => jobs.push(idx),
            }
        }

        // Compute missing columns one LF at a time, so only one LF's
        // prepared data is alive at once. A panicking LF only loses its
        // own column (quarantine, not crash).
        let n_pairs = candidates.len();
        let n_blocks = n_pairs.div_ceil(PAIR_BLOCK).max(1);
        panda_obs::counter_add("lf.matrix.work_items", (jobs.len() * n_blocks) as u64);
        panda_obs::counter_add("lf.matrix.labels_computed", (jobs.len() * n_pairs) as u64);
        for idx in jobs {
            let lf = &registry.lfs()[idx];
            let name = lf.name().to_string();
            let version = registry.version(&name).unwrap_or(0);
            match vote_column(lf.as_ref(), tables, candidates) {
                Ok(votes) => {
                    report.applied.push(name.clone());
                    match self.columns.iter_mut().find(|c| c.name == name) {
                        Some(c) => {
                            c.version = version;
                            c.votes = votes;
                        }
                        None => self.columns.push(Column {
                            name,
                            version,
                            votes,
                        }),
                    }
                }
                Err(msg) => {
                    // Quarantine: drop any stale column, report the panic.
                    self.columns.retain(|c| c.name != name);
                    report.failed.push((name, msg));
                }
            }
        }

        panda_obs::counter_add("lf.matrix.applied", report.applied.len() as u64);
        panda_obs::counter_add("lf.matrix.reused", report.reused.len() as u64);
        panda_obs::counter_add("lf.matrix.quarantined", report.failed.len() as u64);

        // Keep matrix column order aligned with registry order.
        let order: Vec<&str> = registry.lfs().iter().map(|lf| lf.name()).collect();
        self.columns.sort_by_key(|c| {
            order
                .iter()
                .position(|n| *n == c.name)
                .unwrap_or(usize::MAX)
        });

        // Journal provenance: one event per LF this apply call touched,
        // with its vote split — the raw input to the IDE's LF panel.
        if panda_obs::journal_enabled() {
            for (names, action) in [(&report.applied, "applied"), (&report.reused, "reused")] {
                for name in names {
                    let (m, u, a) = self.counts(name).unwrap_or((0, 0, 0));
                    panda_obs::event("lf.apply")
                        .field("lf", name.as_str())
                        .field("action", action)
                        .field("n_match", m)
                        .field("n_nonmatch", u)
                        .field("n_abstain", a)
                        .emit();
                }
            }
            for (name, msg) in &report.failed {
                panda_obs::event("lf.apply")
                    .field("lf", name.as_str())
                    .field("action", "quarantined")
                    .field("error", msg.as_str())
                    .emit();
            }
        }
        report
    }

    /// Add (or replace) **one** column by running exactly one LF — the
    /// serving path of `POST /sessions/{id}/lfs`. Unlike [`apply`], this
    /// never scans the registry, so its cost is O(new LF × pairs)
    /// regardless of how many columns already exist; it records under its
    /// own span/event names (`lf.matrix.add_column` / `lf.column`) so a
    /// journal can prove no full-matrix apply ran.
    ///
    /// On a panic inside the LF the matrix is left **unchanged** (an
    /// existing same-name column survives) and the panic message is
    /// returned.
    ///
    /// [`apply`]: LabelMatrix::apply
    pub fn add_column(
        &mut self,
        lf: &BoxedLf,
        version: u64,
        tables: &TablePair,
        candidates: &CandidateSet,
    ) -> Result<(), String> {
        let _span = panda_obs::span("lf.matrix.add_column");
        let fp = fingerprint(candidates);
        if fp != self.fingerprint || candidates.len() != self.n_pairs {
            self.columns.clear();
            self.fingerprint = fp;
            self.n_pairs = candidates.len();
        }

        let n_pairs = candidates.len();
        panda_obs::counter_add(
            "lf.matrix.column_work_items",
            n_pairs.div_ceil(PAIR_BLOCK).max(1) as u64,
        );
        panda_obs::counter_add("lf.matrix.column_labels_computed", n_pairs as u64);
        let votes = match vote_column(lf.as_ref(), tables, candidates) {
            Ok(votes) => votes,
            Err(msg) => {
                if panda_obs::journal_enabled() {
                    panda_obs::event("lf.column")
                        .field("lf", lf.name())
                        .field("action", "quarantined")
                        .field("error", msg.as_str())
                        .emit();
                }
                return Err(msg);
            }
        };

        let name = lf.name().to_string();
        match self.columns.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                c.version = version;
                c.votes = votes;
            }
            None => self.columns.push(Column {
                name: name.clone(),
                version,
                votes,
            }),
        }
        if panda_obs::journal_enabled() {
            let (m, u, a) = self.counts(&name).unwrap_or((0, 0, 0));
            panda_obs::event("lf.column")
                .field("lf", name.as_str())
                .field("action", "add")
                .field("n_match", m)
                .field("n_nonmatch", u)
                .field("n_abstain", a)
                .emit();
        }
        Ok(())
    }

    /// Drop one column by name (the serving path of
    /// `DELETE /sessions/{id}/lfs/{name}`). O(columns); never re-runs any
    /// LF. Returns whether the column existed.
    pub fn remove_column(&mut self, name: &str) -> bool {
        let before = self.columns.len();
        self.columns.retain(|c| c.name != name);
        let removed = self.columns.len() != before;
        if removed && panda_obs::journal_enabled() {
            panda_obs::event("lf.column")
                .field("lf", name)
                .field("action", "remove")
                .emit();
        }
        removed
    }

    /// A digest of the **complete** matrix state: row count, candidate
    /// fingerprint, and every column's name, version, and label bytes in
    /// order. Two matrices with equal digests are byte-identical, so this
    /// is the invariant the incremental column path is checked against:
    /// `add_column(k)` followed by `remove_column(k)` must restore the
    /// original digest exactly.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        };
        for v in [self.n_pairs as u64, self.fingerprint] {
            for b in v.to_le_bytes() {
                mix(b);
            }
        }
        for c in &self.columns {
            for b in c.name.as_bytes() {
                mix(*b);
            }
            mix(0xff); // name terminator
            for b in c.version.to_le_bytes() {
                mix(b);
            }
            // Decode each packed vote back to the exact historical byte
            // (`+1` → 0x01, `0` → 0x00, `-1` → 0xff) so digests stay
            // byte-stable across the packed-storage change — the serve
            // wire-parity and WAL/snapshot recovery checks depend on it.
            for i in 0..c.votes.len() {
                mix(c.votes.get(i) as u8);
            }
        }
        h
    }

    /// Export every column for persistence, in column order.
    pub fn snapshot_columns(&self) -> Vec<ColumnSnapshot> {
        self.columns
            .iter()
            .map(|c| ColumnSnapshot {
                name: c.name.clone(),
                version: c.version,
                labels: c.votes.decode(),
            })
            .collect()
    }

    /// Rebuild a matrix from persisted columns against a **re-derived**
    /// candidate set. The fingerprint is recomputed from `candidates`
    /// (never trusted from disk), so a caller that afterwards compares
    /// [`LabelMatrix::digest`] against the persisted digest has also
    /// proven the candidate set matches the one the columns were computed
    /// over. Errors when a column's length disagrees with the pair count
    /// **or any persisted vote byte is outside `{-1, 0, +1}`** — corrupt
    /// votes must quarantine the session, never decode
    /// ([`Label::try_from_i8`]).
    pub fn restore(
        candidates: &CandidateSet,
        columns: Vec<ColumnSnapshot>,
    ) -> Result<LabelMatrix, String> {
        let n_pairs = candidates.len();
        let mut packed = Vec::with_capacity(columns.len());
        for c in &columns {
            if c.labels.len() != n_pairs {
                return Err(format!(
                    "column {:?} has {} labels but the candidate set has {n_pairs} pairs",
                    c.name,
                    c.labels.len()
                ));
            }
            let votes = PackedVotes::try_from_i8s(&c.labels).map_err(|(i, bad)| {
                format!(
                    "column {:?} has out-of-range vote {bad} at pair {i} (valid: -1/0/+1)",
                    c.name
                )
            })?;
            packed.push(votes);
        }
        Ok(LabelMatrix {
            n_pairs,
            fingerprint: fingerprint(candidates),
            columns: columns
                .into_iter()
                .zip(packed)
                .map(|(c, votes)| Column {
                    name: c.name,
                    version: c.version,
                    votes,
                })
                .collect(),
        })
    }
}

/// One persisted label-matrix column (see
/// [`LabelMatrix::snapshot_columns`] / [`LabelMatrix::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSnapshot {
    /// LF name (matrix column key).
    pub name: String,
    /// Registry version the column was computed at.
    pub version: u64,
    /// Votes, one per candidate pair: `+1` / `0` / `-1`.
    pub labels: Vec<i8>,
}

/// One LF's label column over the candidate set, shared by
/// [`LabelMatrix::apply`] and [`LabelMatrix::add_column`]: the LF is
/// prepared once (span `lf.matrix.prepare`), then its voter runs over
/// (pair-block) work items on the shared executor, so an expensive LF's
/// column is spread over all workers. A panic while preparing or voting
/// quarantines the LF; the error names the first failing step in pair
/// order, so the message is deterministic.
fn vote_column(
    lf: &dyn LabelingFunction,
    tables: &TablePair,
    candidates: &CandidateSet,
) -> Result<PackedVotes, String> {
    let voter = {
        let _span = panda_obs::span("lf.matrix.prepare");
        std::panic::catch_unwind(AssertUnwindSafe(|| lf.prepare(tables, candidates)))
            .map_err(|payload| panic_message(payload.as_ref()))?
    };
    panda_obs::counter_add(
        if voter.is_prepared() {
            "lf.matrix.prepared_columns"
        } else {
            "lf.matrix.fallback_columns"
        },
        1,
    );
    let pairs = candidates.pairs();
    let n_blocks = pairs.len().div_ceil(PAIR_BLOCK).max(1);
    let results = panda_exec::par_try_map_range(n_blocks, |block| {
        let start = block * PAIR_BLOCK;
        let end = (start + PAIR_BLOCK).min(pairs.len());
        pairs[start..end]
            .iter()
            .map(|&pair| voter.vote(pair))
            .collect::<Vec<Label>>()
    });
    let mut votes = PackedVotes::with_capacity(pairs.len());
    for block in results {
        match block {
            Ok(part) => part.into_iter().for_each(|l| votes.push(l)),
            Err(payload) => return Err(panic_message(payload.as_ref())),
        }
    }
    Ok(votes)
}

fn fingerprint(candidates: &CandidateSet) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in candidates.pairs() {
        for v in [p.left.0, p.right.0] {
            h ^= u64::from(v);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h ^ candidates.len() as u64
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "LF panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ClosureLf;
    use crate::lf::LfRegistry;
    use panda_table::{CandidatePair, Schema, Table};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tiny() -> (TablePair, CandidateSet) {
        let schema = Schema::of_text(&["name"]);
        let mut left = Table::new("l", schema.clone());
        left.push(vec!["a"]).unwrap();
        left.push(vec!["b"]).unwrap();
        let mut right = Table::new("r", schema);
        right.push(vec!["a"]).unwrap();
        right.push(vec!["c"]).unwrap();
        let tables = TablePair::new(left, right);
        let cands = CandidateSet::from_pairs([
            CandidatePair::new(0, 0),
            CandidatePair::new(0, 1),
            CandidatePair::new(1, 0),
            CandidatePair::new(1, 1),
        ]);
        (tables, cands)
    }

    fn eq_lf(name: &str) -> Arc<ClosureLf> {
        Arc::new(ClosureLf::new(name, |p| {
            Label::from_bool(p.left.text("name") == p.right.text("name"))
        }))
    }

    #[test]
    fn apply_builds_columns() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("eq"));
        let mut m = LabelMatrix::new();
        let report = m.apply(&reg, &tables, &cands);
        assert_eq!(report.applied, vec!["eq"]);
        assert_eq!(m.n_pairs(), 4);
        assert_eq!(m.column("eq").unwrap(), &[1, -1, -1, -1]);
        assert_eq!(m.counts("eq"), Some((1, 3, 0)));
    }

    #[test]
    fn second_apply_is_incremental() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = calls.clone();
        reg.upsert(Arc::new(ClosureLf::new("counting", move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
            Label::Abstain
        })));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        let report = m.apply(&reg, &tables, &cands);
        assert_eq!(calls.load(Ordering::SeqCst), 4, "no re-execution");
        assert_eq!(report.reused, vec!["counting"]);
        assert!(report.applied.is_empty());
    }

    #[test]
    fn version_bump_recomputes_only_that_lf() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("stable"));
        reg.upsert(Arc::new(ClosureLf::new("edited", |_| Label::Abstain)));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        // Replace "edited".
        reg.upsert(Arc::new(ClosureLf::new("edited", |_| Label::Match)));
        let report = m.apply(&reg, &tables, &cands);
        assert_eq!(report.applied, vec!["edited"]);
        assert_eq!(report.reused, vec!["stable"]);
        assert_eq!(m.column("edited").unwrap(), &[1, 1, 1, 1]);
    }

    #[test]
    fn removed_lf_drops_column() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("gone"));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        reg.remove("gone");
        let report = m.apply(&reg, &tables, &cands);
        assert_eq!(report.removed, vec!["gone"]);
        assert!(m.column("gone").is_none());
        assert_eq!(m.n_lfs(), 0);
    }

    #[test]
    fn panicking_lf_is_quarantined() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("good"));
        reg.upsert(Arc::new(ClosureLf::new("buggy", |_| {
            panic!("index out of bounds in user code")
        })));
        let mut m = LabelMatrix::new();
        let report = m.apply(&reg, &tables, &cands);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, "buggy");
        assert!(report.failed[0].1.contains("index out of bounds"));
        // The good LF still applied.
        assert!(m.column("good").is_some());
        assert!(m.column("buggy").is_none());
    }

    #[test]
    fn snapshot_restore_round_trips_the_digest() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("eq"));
        reg.upsert(Arc::new(ClosureLf::new("abstain", |_| Label::Abstain)));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);

        let restored = LabelMatrix::restore(&cands, m.snapshot_columns()).unwrap();
        assert_eq!(restored.digest(), m.digest());
        assert_eq!(restored.column("eq"), m.column("eq"));

        // A different candidate set changes the recomputed fingerprint,
        // so the digest no longer matches — the recovery-time check that
        // persisted columns belong to these tables.
        let other = CandidateSet::from_pairs([CandidatePair::new(0, 0)]);
        assert!(LabelMatrix::restore(&other, m.snapshot_columns()).is_err());
    }

    #[test]
    fn candidate_set_change_invalidates_cache() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("eq"));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        let smaller = CandidateSet::from_pairs([CandidatePair::new(0, 0)]);
        let report = m.apply(&reg, &tables, &smaller);
        assert_eq!(report.applied, vec!["eq"]);
        assert_eq!(m.n_pairs(), 1);
        assert_eq!(m.column("eq").unwrap(), &[1]);
    }

    #[test]
    fn rows_follow_registry_order() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(Arc::new(ClosureLf::new("z_first", |_| Label::Match)));
        reg.upsert(Arc::new(ClosureLf::new("a_second", |_| Label::NonMatch)));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        assert_eq!(m.lf_names(), vec!["z_first", "a_second"]);
        assert_eq!(m.row(0), vec![1, -1]);
    }

    #[test]
    fn add_column_matches_full_apply() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("eq"));
        let mut full = LabelMatrix::new();
        full.apply(&reg, &tables, &cands);

        let mut inc = LabelMatrix::new();
        let lf: BoxedLf = eq_lf("eq");
        let version = reg.version("eq").unwrap();
        inc.add_column(&lf, version, &tables, &cands).unwrap();
        assert_eq!(inc.n_pairs(), full.n_pairs());
        assert_eq!(inc.column("eq"), full.column("eq"));
        assert_eq!(inc.digest(), full.digest(), "byte-identical to full apply");
    }

    /// The satellite invariant: incremental add of LF k followed by
    /// remove of LF k restores a matrix byte-identical to the original.
    #[test]
    fn add_then_remove_restores_digest() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("base1"));
        reg.upsert(Arc::new(ClosureLf::new("base2", |_| Label::Abstain)));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        let original = m.digest();

        let extra: BoxedLf = Arc::new(ClosureLf::new("extra", |_| Label::Match));
        let version = reg.upsert(extra.clone());
        m.add_column(&extra, version, &tables, &cands).unwrap();
        assert_ne!(m.digest(), original, "digest sees the new column");
        assert_eq!(m.column("extra").unwrap(), &[1, 1, 1, 1]);

        assert!(m.remove_column("extra"));
        assert_eq!(
            m.digest(),
            original,
            "add then remove restores the matrix byte-identically"
        );
        assert!(!m.remove_column("extra"), "second remove is a no-op");
    }

    #[test]
    fn add_column_replaces_same_name_in_place() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("a"));
        reg.upsert(Arc::new(ClosureLf::new("b", |_| Label::Abstain)));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);

        let replacement: BoxedLf = Arc::new(ClosureLf::new("a", |_| Label::NonMatch));
        let version = reg.upsert(replacement.clone());
        m.add_column(&replacement, version, &tables, &cands)
            .unwrap();
        assert_eq!(m.lf_names(), vec!["a", "b"], "replacement keeps position");
        assert_eq!(m.column("a").unwrap(), &[-1, -1, -1, -1]);
    }

    #[test]
    fn add_column_quarantines_panics_and_leaves_matrix_unchanged() {
        let (tables, cands) = tiny();
        let mut reg = LfRegistry::new();
        reg.upsert(eq_lf("good"));
        let mut m = LabelMatrix::new();
        m.apply(&reg, &tables, &cands);
        let before = m.digest();

        let buggy: BoxedLf = Arc::new(ClosureLf::new("buggy", |_| panic!("boom in user code")));
        let err = m.add_column(&buggy, 99, &tables, &cands).unwrap_err();
        assert!(err.contains("boom in user code"));
        assert_eq!(m.digest(), before, "failed add leaves the matrix intact");
        assert!(m.column("buggy").is_none());
    }

    #[test]
    fn add_column_establishes_empty_matrix_dimensions() {
        let (tables, cands) = tiny();
        let mut m = LabelMatrix::new();
        assert_eq!(m.n_pairs(), 0);
        let lf: BoxedLf = eq_lf("eq");
        m.add_column(&lf, 1, &tables, &cands).unwrap();
        assert_eq!(m.n_pairs(), 4);
        assert_eq!(m.column("eq").unwrap(), &[1, -1, -1, -1]);
    }

    /// Incremental apply must be observationally identical to a fresh
    /// full apply (property check over a few random edit sequences).
    #[test]
    fn incremental_equals_full() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let strategy = proptest::collection::vec(0u8..4, 1..12);
        runner
            .run(&strategy, |ops| {
                let (tables, cands) = tiny();
                let mut reg = LfRegistry::new();
                let mut inc = LabelMatrix::new();
                for (step, op) in ops.iter().enumerate() {
                    match op {
                        0 => {
                            reg.upsert(eq_lf(&format!("lf{step}")));
                        }
                        1 => {
                            reg.upsert(Arc::new(ClosureLf::new(
                                format!("lf{}", step.saturating_sub(1)),
                                |_| Label::Match,
                            )));
                        }
                        2 => {
                            reg.remove(&format!("lf{}", step.saturating_sub(2)));
                        }
                        _ => {}
                    }
                    inc.apply(&reg, &tables, &cands);
                    let mut fresh = LabelMatrix::new();
                    fresh.apply(&reg, &tables, &cands);
                    prop_assert_eq!(inc.lf_names(), fresh.lf_names());
                    for name in inc.lf_names() {
                        prop_assert_eq!(inc.column(name), fresh.column(name));
                    }
                }
                Ok(())
            })
            .unwrap();
    }

    // ---- packed 2-bit vote storage ------------------------------------

    #[test]
    fn packed_round_trips_near_word_boundaries() {
        // Lengths straddling the 32-votes-per-word boundary: push/get/
        // decode must agree with the source exactly.
        for n in [0usize, 1, 31, 32, 33, 63, 64, 65, 100] {
            let src: Vec<i8> = (0..n).map(|i| [1i8, 0, -1][i % 3]).collect();
            let packed = PackedVotes::try_from_i8s(&src).unwrap();
            assert_eq!(packed.len(), n);
            assert_eq!(packed.decode(), src);
            for (i, &v) in src.iter().enumerate() {
                assert_eq!(packed.get(i), v);
            }
            assert_eq!(packed.words().len(), n.div_ceil(VOTES_PER_WORD));
        }
    }

    #[test]
    fn packed_tail_lanes_are_zero() {
        // The zero-tail invariant word-at-a-time counting relies on.
        let mut v = PackedVotes::with_capacity(33);
        for _ in 0..33 {
            v.push(Label::Match);
        }
        let last = *v.words().last().unwrap();
        assert_eq!(last, 0b01, "only lane 0 of the tail word is set");
    }

    #[test]
    fn packed_counts_match_scalar_counts() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let strategy = proptest::collection::vec(-1i8..=1, 0..200);
        runner
            .run(&strategy, |src| {
                let packed = PackedVotes::try_from_i8s(&src).unwrap();
                let m = src.iter().filter(|&&v| v == 1).count();
                let u = src.iter().filter(|&&v| v == -1).count();
                let a = src.iter().filter(|&&v| v == 0).count();
                prop_assert_eq!(packed.counts(), (m, u, a));
                prop_assert_eq!(packed.decode(), src);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn all_abstain_column_counts_word_at_a_time() {
        let src = vec![0i8; 77];
        let packed = PackedVotes::try_from_i8s(&src).unwrap();
        assert_eq!(packed.counts(), (0, 0, 77));
        assert!(packed.words().iter().all(|&w| w == 0));
    }

    /// The recovery-path satellite: a persisted column with a vote byte
    /// outside `{-1, 0, +1}` must refuse to restore (quarantine), not be
    /// reinterpreted as a vote.
    #[test]
    fn restore_quarantines_out_of_range_votes() {
        let cands = CandidateSet::from_pairs([CandidatePair::new(0, 0), CandidatePair::new(0, 1)]);
        for bad in [2i8, 5, -3, 127, -128] {
            let snap = vec![ColumnSnapshot {
                name: "corrupt".into(),
                version: 1,
                labels: vec![1, bad],
            }];
            let err = LabelMatrix::restore(&cands, snap).unwrap_err();
            assert!(
                err.contains("out-of-range vote") && err.contains("pair 1"),
                "unexpected error: {err}"
            );
        }
        // Valid bytes still restore.
        let ok = vec![ColumnSnapshot {
            name: "fine".into(),
            version: 1,
            labels: vec![1, -1],
        }];
        assert!(LabelMatrix::restore(&cands, ok).is_ok());
    }
}
