//! The seeded IDE operation mix: about 50 reads to 1 edit.
//!
//! Reads cycle through the seven kinds of read in equal shares: a
//! `/match` call with 1–8 seeded row pairs, then each [`DebugQuery`]
//! variant. Edits cycle through a rotation of one LF spec per kind,
//! re-applying it under its fixed name, so the LF count (and with it the
//! cost of a read) stays steady however many edits a run makes. No kind
//! is weighted: there is no recorded IDE trace to weight them by.

use panda_serve::api::LfSpec;
use panda_session::DebugQuery;

/// Operations per block; each block holds exactly one edit, so every run
/// has the same read:edit ratio.
pub const BLOCK: u64 = 51;

/// LF kinds in the edit rotation: similarity, numeric_tolerance and
/// size_unmatch, one spec and one LF name each.
pub const KINDS: usize = 3;

/// Every debug-query variant, in the order reads cycle through them.
pub const QUERIES: [DebugQuery; 6] = [
    DebugQuery::LikelyFalsePositives,
    DebugQuery::LikelyFalseNegatives,
    DebugQuery::Conflicts,
    DebugQuery::VotedMatch,
    DebugQuery::VotedNonMatch,
    DebugQuery::Abstained,
];

/// One IDE operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Score ad-hoc `(left_row, right_row)` pairs.
    Match(Vec<(u32, u32)>),
    /// A debug query on the LF at this index of the query-name list.
    Query { lf: usize, query: DebugQuery },
    /// Upsert the next spec of the rotation ([`edit_spec`]), then refit.
    Edit,
}

impl Op {
    pub fn is_edit(&self) -> bool {
        matches!(self, Op::Edit)
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seed derived from a run seed for its `i`-th dataset or session.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// The op stream of one client. The same `(seed, client)` always yields
/// the same sequence.
pub struct OpMix {
    rng: Rng,
    rows: (u32, u32),
    n_query_lfs: usize,
    issued: u64,
    edit_slot: u64,
    reads: usize,
}

impl OpMix {
    /// `rows`: table sizes pairs are drawn from; `n_query_lfs`: LFs the
    /// queries cycle over.
    pub fn new(seed: u64, client: u64, rows: (u32, u32), n_query_lfs: usize) -> OpMix {
        assert!(rows.0 > 0 && rows.1 > 0 && n_query_lfs > 0);
        let mut rng = Rng::new(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f));
        let edit_slot = rng.below(BLOCK);
        OpMix {
            rng,
            rows,
            n_query_lfs,
            issued: 0,
            edit_slot,
            // Clients start at different points of the read cycle.
            reads: client as usize,
        }
    }
}

impl Iterator for OpMix {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let pos = self.issued % BLOCK;
        self.issued += 1;
        let op = if pos == self.edit_slot {
            Op::Edit
        } else {
            let kind = self.reads % (QUERIES.len() + 1);
            let cycle = self.reads / (QUERIES.len() + 1);
            self.reads += 1;
            if kind == 0 {
                let k = 1 + self.rng.below(8) as usize;
                let pairs = (0..k)
                    .map(|_| {
                        let l = self.rng.below(u64::from(self.rows.0)) as u32;
                        let r = self.rng.below(u64::from(self.rows.1)) as u32;
                        (l, r)
                    })
                    .collect();
                Op::Match(pairs)
            } else {
                Op::Query {
                    query: QUERIES[kind - 1],
                    lf: cycle % self.n_query_lfs,
                }
            }
        };
        if pos == BLOCK - 1 {
            self.edit_slot = self.rng.below(BLOCK);
        }
        Some(op)
    }
}

/// Attributes the edit rotation's LFs read, per dataset family.
pub struct RotationAttrs {
    pub text: &'static str,
    pub numeric: &'static str,
    pub size: &'static [&'static str],
}

/// The rotation index of the spec that the `k`-th edit applied to a
/// session (counting from 0, in the order the session applied them)
/// upserts. Edits walk the rotation in server order, whichever client
/// sends them, so every kind gets an equal share.
pub fn edit_spec(k: usize) -> usize {
    k % KINDS
}

/// The edit rotation: one spec of each of the [`KINDS`] LF kinds. The
/// session is created with all of them, so an edit re-applies an existing
/// LF as a user re-running a notebook cell does: its matrix column is
/// recomputed and the model refit, warm-started.
pub fn rotation(a: &RotationAttrs) -> Vec<LfSpec> {
    let sim = |measure: &str, upper, lower| LfSpec {
        name: "edit_text".into(),
        kind: "similarity".into(),
        attr: Some(a.text.into()),
        measure: Some(measure.into()),
        upper: Some(upper),
        lower: Some(lower),
        ..Default::default()
    };
    let numeric = |m, u| LfSpec {
        name: "edit_numeric".into(),
        kind: "numeric_tolerance".into(),
        attr: Some(a.numeric.into()),
        match_tol: Some(m),
        unmatch_tol: Some(u),
        ..Default::default()
    };
    let size = |attrs: &[&str]| LfSpec {
        name: "size_unmatch".into(),
        kind: "size_unmatch".into(),
        attrs: Some(attrs.iter().map(|s| s.to_string()).collect()),
        ..Default::default()
    };
    vec![sim("jaccard", 0.5, 0.1), numeric(0.01, 0.6), size(a.size)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: u64, n: usize) -> Vec<Op> {
        OpMix::new(seed, client, (300, 310), 9).take(n).collect()
    }

    #[test]
    fn same_seed_same_ops() {
        assert_eq!(take(7, 0, 2000), take(7, 0, 2000));
        assert_ne!(take(7, 0, 200), take(8, 0, 200));
        assert_ne!(take(7, 0, 200), take(7, 1, 200));
    }

    #[test]
    fn one_edit_per_block_and_reads_in_range() {
        let ops = take(3, 1, BLOCK as usize * 42);
        for block in ops.chunks(BLOCK as usize) {
            assert_eq!(block.iter().filter(|o| o.is_edit()).count(), 1);
        }
        let mut reads = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                Op::Match(pairs) => {
                    *reads.entry("match".to_string()).or_insert(0) += 1;
                    assert!((1..=8).contains(&pairs.len()));
                    assert!(pairs.iter().all(|&(l, r)| l < 300 && r < 310));
                }
                Op::Query { lf, query } => {
                    assert!(*lf < 9);
                    *reads.entry(format!("{query:?}")).or_insert(0) += 1;
                }
                Op::Edit => {}
            }
        }
        assert_eq!(reads.len(), QUERIES.len() + 1, "reads cycle every kind");
        let (lo, hi) = (reads.values().min(), reads.values().max());
        assert!(
            hi.unwrap() - lo.unwrap() <= 1,
            "equal read shares: {reads:?}"
        );
    }

    #[test]
    fn rotation_has_one_spec_per_kind_and_all_build() {
        let specs = rotation(&RotationAttrs {
            text: "name",
            numeric: "price",
            size: &["name", "description"],
        });
        let built = |s: &[LfSpec]| -> std::collections::BTreeSet<String> {
            s.iter()
                .map(|s| s.build().unwrap().name().to_string())
                .collect()
        };
        assert_eq!(specs.len(), KINDS);
        assert_eq!(built(&specs).len(), KINDS, "one LF name per spec");
        let kinds: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds.len(), KINDS, "one spec per kind");
        let mut per_kind = [0usize; KINDS];
        for k in 0..60 {
            per_kind[edit_spec(k)] += 1;
        }
        assert_eq!(per_kind, [20; KINDS], "equal edit shares");
    }
}
