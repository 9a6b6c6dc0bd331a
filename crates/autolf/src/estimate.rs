//! Label-free precision estimation under the reference-table assumption.

use panda_table::{CandidateSet, RecordId};
use std::cmp::Ordering;
use std::collections::HashMap;

/// The outcome of estimating one join rule (config + threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionEstimate {
    /// Pairs the rule joins (score ≥ threshold).
    pub joined: usize,
    /// Uniqueness violations: joins beyond the first per right record.
    /// Each is a certain false positive if the left table is
    /// duplicate-free.
    pub violations: usize,
    /// `1 − violations / joined` (1.0 for an empty join).
    pub est_precision: f64,
    /// `joined − violations` — the estimated number of correct pairs,
    /// which doubles as the recall proxy used to rank configs.
    pub est_support: usize,
}

/// Estimate precision of the join `{pair : score(pair) ≥ threshold}`.
///
/// `scored` holds `(candidate index, score)` for every candidate pair;
/// `candidates` supplies the pair endpoints. The estimator counts, for
/// every right record, how many distinct left records it gets joined to —
/// a duplicate-free left table admits at most one correct assignment per
/// right record, so the surplus is a lower bound on false positives
/// (Auto-FuzzyJoin's core estimator).
pub fn estimate_precision(
    scored: &[(usize, f64)],
    candidates: &CandidateSet,
    threshold: f64,
) -> PrecisionEstimate {
    let mut per_right: HashMap<RecordId, u32> = HashMap::new();
    let mut joined = 0usize;
    for &(idx, score) in scored {
        if score < threshold {
            continue;
        }
        let pair = candidates.get(idx).expect("scored index in range");
        joined += 1;
        *per_right.entry(pair.right).or_insert(0) += 1;
    }
    let violations: usize = per_right
        .values()
        .map(|&c| (c.saturating_sub(1)) as usize)
        .sum();
    let est_precision = if joined == 0 {
        1.0
    } else {
        1.0 - violations as f64 / joined as f64
    };
    PrecisionEstimate {
        joined,
        violations,
        est_precision,
        est_support: joined - violations,
    }
}

/// [`estimate_precision`] at every threshold of `thresholds`, in one pass
/// over `scored`. Each score is bucketed by how many thresholds it clears
/// (the same `score < threshold` test), then the buckets are swept from
/// the highest threshold down, adding each one's pairs to dense
/// per-right-record counts; a pair whose right record is already joined
/// is one more violation. The estimates are equal, bit for bit, to calling
/// [`estimate_precision`] per threshold. `n_right` bounds the right record
/// ids. A grid that is not ascending (or holds NaN) is estimated one
/// threshold at a time instead.
pub fn estimate_precision_grid(
    scored: &[(usize, f64)],
    candidates: &CandidateSet,
    thresholds: &[f64],
    n_right: usize,
) -> Vec<PrecisionEstimate> {
    if !thresholds.windows(2).all(|w| w[0] <= w[1]) || thresholds.iter().any(|t| t.is_nan()) {
        return thresholds
            .iter()
            .map(|&t| estimate_precision(scored, candidates, t))
            .collect();
    }
    // buckets[c - 1]: right records of the pairs clearing exactly the
    // first `c` thresholds (pairs clearing none are never joined).
    let mut buckets: Vec<Vec<RecordId>> = vec![Vec::new(); thresholds.len()];
    for &(idx, score) in scored {
        // `!(score < t)`, spelled so a NaN score clears every threshold.
        let cleared = thresholds.partition_point(|t| score.partial_cmp(t) != Some(Ordering::Less));
        if cleared > 0 {
            let pair = candidates.get(idx).expect("scored index in range");
            buckets[cleared - 1].push(pair.right);
        }
    }
    let mut per_right = vec![0u32; n_right];
    let (mut joined, mut violations) = (0usize, 0usize);
    let mut out: Vec<PrecisionEstimate> = buckets
        .iter()
        .rev()
        .map(|bucket| {
            for right in bucket {
                let count = &mut per_right[right.idx()];
                violations += usize::from(*count > 0);
                *count += 1;
            }
            joined += bucket.len();
            PrecisionEstimate {
                joined,
                violations,
                est_precision: if joined == 0 {
                    1.0
                } else {
                    1.0 - violations as f64 / joined as f64
                },
                est_support: joined - violations,
            }
        })
        .collect();
    out.reverse();
    out
}

/// Estimate the union of several join rules: the union of their joined
/// pair sets, evaluated with the same uniqueness counting.
pub fn estimate_union(joined_sets: &[&Vec<usize>], candidates: &CandidateSet) -> PrecisionEstimate {
    let mut seen = std::collections::HashSet::new();
    let mut per_right: HashMap<RecordId, u32> = HashMap::new();
    for set in joined_sets {
        for &idx in set.iter() {
            if !seen.insert(idx) {
                continue;
            }
            let pair = candidates.get(idx).expect("index in range");
            *per_right.entry(pair.right).or_insert(0) += 1;
        }
    }
    let joined = seen.len();
    let violations: usize = per_right
        .values()
        .map(|&c| (c.saturating_sub(1)) as usize)
        .sum();
    PrecisionEstimate {
        joined,
        violations,
        est_precision: if joined == 0 {
            1.0
        } else {
            1.0 - violations as f64 / joined as f64
        },
        est_support: joined - violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::CandidatePair;
    use proptest::prelude::*;

    fn cands() -> CandidateSet {
        // right record 0 is reachable from left 0 and left 1.
        CandidateSet::from_pairs([
            CandidatePair::new(0, 0),
            CandidatePair::new(1, 0),
            CandidatePair::new(1, 1),
            CandidatePair::new(2, 2),
        ])
    }

    #[test]
    fn clean_join_has_full_precision() {
        let scored = vec![(0, 0.9), (1, 0.2), (2, 0.8), (3, 0.95)];
        let e = estimate_precision(&scored, &cands(), 0.5);
        assert_eq!(e.joined, 3);
        assert_eq!(e.violations, 0);
        assert_eq!(e.est_precision, 1.0);
        assert_eq!(e.est_support, 3);
    }

    #[test]
    fn double_assignment_is_a_violation() {
        // Both left 0 and left 1 join right 0 → one must be wrong.
        let scored = vec![(0, 0.9), (1, 0.85), (2, 0.8), (3, 0.9)];
        let e = estimate_precision(&scored, &cands(), 0.5);
        assert_eq!(e.joined, 4);
        assert_eq!(e.violations, 1);
        assert!((e.est_precision - 0.75).abs() < 1e-12);
        assert_eq!(e.est_support, 3);
    }

    #[test]
    fn raising_threshold_raises_estimated_precision_here() {
        let scored = vec![(0, 0.9), (1, 0.55), (2, 0.8), (3, 0.9)];
        let loose = estimate_precision(&scored, &cands(), 0.5);
        let tight = estimate_precision(&scored, &cands(), 0.6);
        assert!(tight.est_precision > loose.est_precision);
        assert!(tight.joined < loose.joined);
    }

    #[test]
    fn empty_join_is_vacuously_precise() {
        let e = estimate_precision(&[(0, 0.1)], &cands(), 0.9);
        assert_eq!(e.joined, 0);
        assert_eq!(e.est_precision, 1.0);
        assert_eq!(e.est_support, 0);
    }

    proptest! {
        /// The one-pass grid equals one `estimate_precision` call per
        /// threshold, bit for bit, on ascending and unsorted grids.
        #[test]
        fn grid_equals_per_threshold_estimates(
            scores in proptest::collection::vec(
                prop_oneof![
                    Just(-1.0f64),
                    Just(f64::NAN),
                    (0u32..=20).prop_map(|x| f64::from(x) / 20.0),
                ],
                24,
            ),
            rights in proptest::collection::vec(0u32..5, 24),
            unsorted in any::<bool>(),
        ) {
            let cands = CandidateSet::from_pairs(
                rights.iter().enumerate().map(|(l, &r)| CandidatePair::new(l as u32, r)),
            );
            let scored: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
            let mut thresholds: Vec<f64> = (5..=19).map(|i| i as f64 * 0.05).collect();
            if unsorted {
                thresholds.swap(0, 7);
            }
            let grid = estimate_precision_grid(&scored, &cands, &thresholds, 5);
            for (k, &t) in thresholds.iter().enumerate() {
                let one = estimate_precision(&scored, &cands, t);
                prop_assert_eq!(grid[k].joined, one.joined);
                prop_assert_eq!(grid[k].violations, one.violations);
                prop_assert_eq!(grid[k].est_support, one.est_support);
                prop_assert_eq!(grid[k].est_precision.to_bits(), one.est_precision.to_bits());
            }
        }
    }

    #[test]
    fn union_counts_shared_right_records() {
        let a = vec![0usize, 3];
        let b = vec![1usize, 3]; // adds (1,0): right 0 now doubly assigned
        let e = estimate_union(&[&a, &b], &cands());
        assert_eq!(e.joined, 3);
        assert_eq!(e.violations, 1);
    }
}
