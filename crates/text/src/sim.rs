//! Similarity functions (axis 4 of the utility library).
//!
//! Every function returns a similarity in `[0, 1]` (1 = identical), so
//! thresholds compose uniformly. Token-set measures take token slices;
//! weighted measures take [`WeightedTokens`] maps; string measures take
//! `&str`.

use crate::weight::{SortedWeights, WeightedTokens};

// ---------------------------------------------------------------------------
// Token hashing
// ---------------------------------------------------------------------------
//
// Token-set measures only need *identity* between tokens, never their
// content, so sets are represented as sorted, deduplicated `u64` FNV-1a
// hash arrays. Sort+dedup gives exactly `HashSet` semantics modulo hash
// collisions: two distinct tokens with equal hashes **merge into one set
// element** (never a panic, never a broken sort invariant), shifting set
// cardinalities by at most the number of colliding pairs. At 64 bits a
// collision within one attribute's vocabulary is a ~2^-64-per-pair event,
// so the drift is theoretical; the forced-collision tests below pin the
// merge behaviour down anyway.

/// FNV-1a 64-bit hash of one token. Stable across runs and platforms (pure
/// function of the bytes), which keeps every downstream artifact that
/// hashes tokens — prepared columns, cached weight vectors — deterministic.
#[inline]
pub fn token_hash(token: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in token.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash every token and normalise to set form: sorted ascending, no
/// duplicates. The output is what the `*_sorted` kernels consume.
pub fn sorted_token_hashes<S: AsRef<str>>(tokens: &[S]) -> Vec<u64> {
    let mut out: Vec<u64> = tokens.iter().map(|t| token_hash(t.as_ref())).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `|A∩B|` of two sorted deduplicated hash arrays, by merge walk.
#[inline]
fn sorted_intersection_len(a: &[u64], b: &[u64]) -> usize {
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        inter += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    inter
}

// ---------------------------------------------------------------------------
// Token-set measures
// ---------------------------------------------------------------------------

/// Jaccard `|A∩B| / |A∪B|` over sorted deduplicated hash arrays (see
/// [`sorted_token_hashes`]). Two empty sets are identical (1).
pub fn jaccard_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = sorted_intersection_len(a, b) as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    inter / union
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)` over sorted hash arrays.
pub fn overlap_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let denom = a.len().min(b.len()) as f64;
    if denom == 0.0 {
        return 0.0;
    }
    sorted_intersection_len(a, b) as f64 / denom
}

/// Dice coefficient `2|A∩B| / (|A|+|B|)` over sorted hash arrays.
pub fn dice_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    2.0 * sorted_intersection_len(a, b) as f64 / (a.len() + b.len()) as f64
}

/// Binary cosine `|A∩B| / sqrt(|A||B|)` over sorted hash arrays.
pub fn cosine_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let denom = ((a.len() * b.len()) as f64).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    sorted_intersection_len(a, b) as f64 / denom
}

/// Jaccard similarity `|A∩B| / |A∪B|`. Two empty sets are identical (1).
pub fn jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    jaccard_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)`.
pub fn overlap_coefficient<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    overlap_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

/// Dice coefficient `2|A∩B| / (|A|+|B|)`.
pub fn dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    dice_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

/// Cosine similarity of the *binary* token-incidence vectors:
/// `|A∩B| / sqrt(|A||B|)`.
pub fn cosine_sets<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    cosine_sorted(&sorted_token_hashes(a), &sorted_token_hashes(b))
}

// ---------------------------------------------------------------------------
// Weighted measures
// ---------------------------------------------------------------------------

/// Weighted Jaccard `Σ min(w_a, w_b) / Σ max(w_a, w_b)`.
pub fn weighted_jaccard(a: &WeightedTokens, b: &WeightedTokens) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, &wa) in a {
        let wb = b.get(t).copied().unwrap_or(0.0);
        num += wa.min(wb);
        den += wa.max(wb);
    }
    for (t, &wb) in b {
        if !a.contains_key(t) {
            den += wb;
        }
    }
    if den == 0.0 {
        return 1.0; // all-zero weights on both sides
    }
    num / den
}

/// Cosine similarity of weighted vectors (e.g. TF-IDF cosine).
pub fn weighted_cosine(a: &WeightedTokens, b: &WeightedTokens) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut dot = 0.0;
    for (t, &wa) in a {
        if let Some(&wb) = b.get(t) {
            dot += wa * wb;
        }
    }
    let na: f64 = a.values().map(|w| w * w).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|w| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

/// Weighted Jaccard `Σ min(w_a, w_b) / Σ max(w_a, w_b)` over sorted weight
/// vectors — the merge-walk twin of [`weighted_jaccard`]. Unlike the
/// `HashMap` version, the accumulation order is fixed by the hash sort, so
/// the result is bit-stable across runs and vector instances.
pub fn weighted_jaccard_sorted(a: &SortedWeights, b: &SortedWeights) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (a, b) = (a.entries(), b.entries());
    let mut num = 0.0;
    let mut den = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ha, wa) = a[i];
        let (hb, wb) = b[j];
        if ha == hb {
            num += wa.min(wb);
            den += wa.max(wb);
            i += 1;
            j += 1;
        } else if ha < hb {
            den += wa;
            i += 1;
        } else {
            den += wb;
            j += 1;
        }
    }
    den += a[i..].iter().map(|&(_, w)| w).sum::<f64>();
    den += b[j..].iter().map(|&(_, w)| w).sum::<f64>();
    if den == 0.0 {
        return 1.0; // all-zero weights on both sides
    }
    num / den
}

/// Cosine of sorted weight vectors — the merge-walk twin of
/// [`weighted_cosine`], with the same empty/zero-norm handling.
pub fn weighted_cosine_sorted(a: &SortedWeights, b: &SortedWeights) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (ea, eb) = (a.entries(), b.entries());
    let mut dot = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ea.len() && j < eb.len() {
        let (ha, wa) = ea[i];
        let (hb, wb) = eb[j];
        dot += if ha == hb { wa * wb } else { 0.0 };
        i += usize::from(ha <= hb);
        j += usize::from(hb <= ha);
    }
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// String (edit-based) measures
// ---------------------------------------------------------------------------

/// Levenshtein edit distance (unit costs), computed with Myers'
/// bit-parallel algorithm in O(⌈m/64⌉·n). ASCII inputs are compared
/// byte-wise and allocate nothing beyond the kernel's pattern table.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return edit_distance(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance(&a, &b)
}

/// Normalised Levenshtein similarity `1 − d / max(|a|,|b|)`, lengths in
/// chars.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let (d, maxlen) = if a.is_ascii() && b.is_ascii() {
        (
            edit_distance(a.as_bytes(), b.as_bytes()),
            a.len().max(b.len()),
        )
    } else {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        (edit_distance(&a, &b), a.len().max(b.len()))
    };
    if maxlen == 0 {
        return 1.0;
    }
    1.0 - d as f64 / maxlen as f64
}

/// Exact Levenshtein distance by Myers' bit-vector algorithm (J. ACM 46(3),
/// 1999) in Hyyrö's form for global edit distance. The shorter input is
/// the pattern: its DP column is held as vertical +1/−1 delta bit-vectors,
/// 64 rows per `u64` word, and each unit of the longer input advances the
/// whole column in a handful of word operations — O(⌈m/64⌉·n) instead of
/// the textbook O(m·n). The result is the same integer the textbook DP
/// computes (the tests pin this at every block boundary).
fn edit_distance<T: Copy + Into<u32>>(a: &[T], b: &[T]) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match pattern.len() {
        0 => text.len(),
        1..=64 => myers_one_block(pattern, text),
        _ => myers_blocks(pattern, text),
    }
}

/// Advance one 64-row block of the DP column by one text unit. `eq` is the
/// block's match mask for that unit, `hin` the horizontal delta entering
/// at the block's top row, `high` the bit of the block's last row; returns
/// the horizontal delta leaving that row.
#[inline]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32, high: u64) -> i32 {
    let (p, m) = (*pv, *mv);
    let hin_neg = u64::from(hin < 0);
    let xv = eq | m;
    let eq = eq | hin_neg;
    let xh = ((eq & p).wrapping_add(p) ^ p) | eq;
    let ph = m | !(xh | p);
    let mh = p & xh;
    let hout = i32::from(ph & high != 0) - i32::from(mh & high != 0);
    let ph = (ph << 1) | u64::from(hin > 0);
    let mh = (mh << 1) | hin_neg;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    hout
}

/// [`edit_distance`] for patterns of at most 64 units: one block, the
/// ASCII match masks in a stack table, other units in a short list that
/// only allocates when the pattern has one.
fn myers_one_block<T: Copy + Into<u32>>(pattern: &[T], text: &[T]) -> usize {
    let mut ascii = [0u64; 128];
    let mut other: Vec<(u32, u64)> = Vec::new();
    for (i, &unit) in pattern.iter().enumerate() {
        let (code, bit) = (unit.into(), 1u64 << i);
        match ascii.get_mut(code as usize) {
            Some(mask) => *mask |= bit,
            None => match other.iter_mut().find(|(c, _)| *c == code) {
                Some((_, mask)) => *mask |= bit,
                None => other.push((code, bit)),
            },
        }
    }
    let high = 1u64 << (pattern.len() - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut score = pattern.len() as isize;
    for &unit in text {
        let code = unit.into();
        let eq = match ascii.get(code as usize) {
            Some(&mask) => mask,
            None => other
                .iter()
                .find(|(c, _)| *c == code)
                .map_or(0, |&(_, m)| m),
        };
        score += advance_block(&mut pv, &mut mv, eq, 1, high) as isize;
    }
    score as usize
}

/// [`edit_distance`] for patterns longer than 64 units: `⌈m/64⌉` blocks
/// per text unit, the horizontal delta carried from block to block. Match
/// masks are row-major, one row of blocks per ASCII code, then one row per
/// distinct other unit of the pattern.
fn myers_blocks<T: Copy + Into<u32>>(pattern: &[T], text: &[T]) -> usize {
    let blocks = pattern.len().div_ceil(64);
    let mut peq = vec![0u64; 128 * blocks];
    let mut other: Vec<u32> = Vec::new();
    let row_of = |code: u32, other: &[u32]| -> Option<usize> {
        if code < 128 {
            Some(code as usize)
        } else {
            other.iter().position(|&c| c == code).map(|k| 128 + k)
        }
    };
    for (i, &unit) in pattern.iter().enumerate() {
        let code = unit.into();
        let row = row_of(code, &other).unwrap_or_else(|| {
            other.push(code);
            peq.resize(peq.len() + blocks, 0);
            127 + other.len()
        });
        peq[row * blocks + i / 64] |= 1u64 << (i % 64);
    }
    let zeros = vec![0u64; blocks];
    let last_high = 1u64 << ((pattern.len() - 1) % 64);
    let mut pv = vec![!0u64; blocks];
    let mut mv = vec![0u64; blocks];
    let mut score = pattern.len() as isize;
    for &unit in text {
        let eqs = match row_of(unit.into(), &other) {
            Some(row) => &peq[row * blocks..(row + 1) * blocks],
            None => &zeros[..],
        };
        let mut h = 1;
        for (b, &eq) in eqs.iter().enumerate() {
            let high = if b + 1 == blocks { last_high } else { 1 << 63 };
            h = advance_block(&mut pv[b], &mut mv[b], eq, h, high);
        }
        score += h as isize;
    }
    score as usize
}

/// Jaro similarity. ASCII inputs are compared byte-wise with the matched
/// flags in stack bitsets, so a call allocates nothing unless an input is
/// non-ASCII or longer than 512 units.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        return jaro_units(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_units(&a, &b)
}

/// [`jaro`] over unit slices: picks stack or heap bitsets for the flags.
fn jaro_units<T: Copy + Eq>(a: &[T], b: &[T]) -> f64 {
    const STACK_WORDS: usize = 8;
    let (aw, bw) = (a.len().div_ceil(64), b.len().div_ceil(64));
    if aw <= STACK_WORDS && bw <= STACK_WORDS {
        jaro_flagged(a, b, &mut [0u64; STACK_WORDS], &mut [0u64; STACK_WORDS])
    } else {
        jaro_flagged(a, b, &mut vec![0u64; aw], &mut vec![0u64; bw])
    }
}

/// The Jaro computation proper, with zeroed matched-flag bitsets for `a`
/// and `b`.
fn jaro_flagged<T: Copy + Eq>(a: &[T], b: &[T], a_used: &mut [u64], b_used: &mut [u64]) -> f64 {
    let is_set = |flags: &[u64], i: usize| flags[i / 64] & (1 << (i % 64)) != 0;
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !is_set(b_used, j) && b[j] == ca {
                b_used[j / 64] |= 1 << (j % 64);
                a_used[i / 64] |= 1 << (i % 64);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: walk the matched units of `a` and of `b`, each in
    // its own order, side by side; half the positions that disagree.
    let mut transpositions = 0usize;
    let mut j = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        if !is_set(a_used, i) {
            continue;
        }
        while !is_set(b_used, j) {
            j += 1;
        }
        transpositions += usize::from(b[j] != ca);
        j += 1;
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale 0.1, prefix ≤ 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).clamp(0.0, 1.0)
}

/// Monge-Elkan: for every token of `a`, the best `inner` similarity
/// against tokens of `b`, averaged. Asymmetric by definition; use
/// [`monge_elkan_sym`] for the symmetrised version.
pub fn monge_elkan<S: AsRef<str>, F>(a: &[S], b: &[S], inner: F) -> f64
where
    F: Fn(&str, &str) -> f64,
{
    if a.is_empty() {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    if b.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for ta in a {
        let best = b
            .iter()
            .map(|tb| inner(ta.as_ref(), tb.as_ref()))
            .fold(0.0f64, f64::max);
        total += best;
    }
    total / a.len() as f64
}

/// Symmetrised Monge-Elkan: `min(ME(a,b), ME(b,a))` (the conservative
/// direction — a short title contained in a long one shouldn't score 1).
pub fn monge_elkan_sym<S: AsRef<str>, F>(a: &[S], b: &[S], inner: F) -> f64
where
    F: Fn(&str, &str) -> f64 + Copy,
{
    monge_elkan(a, b, inner).min(monge_elkan(b, a, inner))
}

/// Exact equality after trimming, as a 0/1 similarity.
pub fn exact(a: &str, b: &str) -> f64 {
    f64::from(a.trim() == b.trim())
}

/// Relative numeric similarity: `1 − |a−b| / max(|a|,|b|)`, clamped to
/// `[0,1]`; both zero → 1.
pub fn relative_numeric(a: f64, b: f64) -> f64 {
    if a == b {
        return 1.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    // Reference implementations: the pre-rewrite `HashSet<&str>` kernels,
    // kept verbatim so property tests can pin the sorted-hash rewrite to
    // the old semantics bit for bit.
    fn ref_set<S: AsRef<str>>(tokens: &[S]) -> HashSet<&str> {
        tokens.iter().map(AsRef::as_ref).collect()
    }

    fn ref_jaccard<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let inter = a.intersection(&b).count() as f64;
        let union = (a.len() + b.len()) as f64 - inter;
        inter / union
    }

    fn ref_overlap<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let denom = a.len().min(b.len()) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        a.intersection(&b).count() as f64 / denom
    }

    fn ref_dice<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        2.0 * a.intersection(&b).count() as f64 / (a.len() + b.len()) as f64
    }

    fn ref_cosine<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
        let (a, b) = (ref_set(a), ref_set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let denom = ((a.len() * b.len()) as f64).sqrt();
        if denom == 0.0 {
            return 0.0;
        }
        a.intersection(&b).count() as f64 / denom
    }

    /// The textbook O(m·n) Levenshtein DP the bit-parallel kernel replaced,
    /// kept as the reference it is pinned against.
    fn ref_levenshtein(a: &[char], b: &[char]) -> usize {
        let (a, b) = if a.len() < b.len() { (a, b) } else { (b, a) };
        if a.is_empty() {
            return b.len();
        }
        let mut prev: Vec<usize> = (0..=a.len()).collect();
        let mut cur = vec![0usize; a.len() + 1];
        for (j, cb) in b.iter().enumerate() {
            cur[0] = j + 1;
            for (i, ca) in a.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[i + 1] = (prev[i] + cost).min(prev[i + 1] + 1).min(cur[i] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[a.len()]
    }

    /// The allocating Jaro the flag-walk version replaced, verbatim.
    fn ref_jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches = 0usize;
        let mut a_matched = Vec::with_capacity(a.len());
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == *ca {
                    b_used[j] = true;
                    a_matched.push((i, j));
                    matches += 1;
                    break;
                }
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let a_seq: Vec<char> = a_matched.iter().map(|&(i, _)| a[i]).collect();
        let b_seq: Vec<char> = {
            let mut with_idx: Vec<(usize, char)> =
                a_matched.iter().map(|&(_, j)| (j, b[j])).collect();
            with_idx.sort_unstable_by_key(|&(j, _)| j);
            with_idx.into_iter().map(|(_, c)| c).collect()
        };
        let transpositions = a_seq
            .iter()
            .zip(b_seq.iter())
            .filter(|(x, y)| x != y)
            .count();
        let t = transpositions as f64 / 2.0;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    /// Lengths around every block boundary of the bit-parallel kernel.
    const EDGE_LENGTHS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 300];

    /// Two strings of edge lengths over one small alphabet — ASCII-only
    /// (the byte path) or with multi-byte chars (the char path and the
    /// non-ASCII mask rows).
    fn edge_pair() -> impl Strategy<Value = (String, String)> {
        let alphabets = vec![vec!['a', 'b', 'c', ' '], vec!['a', 'b', 'é', '本', ' ']];
        (
            prop::sample::select(EDGE_LENGTHS.to_vec()),
            prop::sample::select(EDGE_LENGTHS.to_vec()),
            prop::sample::select(alphabets),
        )
            .prop_flat_map(|(la, lb, alphabet)| {
                (
                    prop::collection::vec(prop::sample::select(alphabet.clone()), la),
                    prop::collection::vec(prop::sample::select(alphabet), lb),
                )
            })
            .prop_map(|(a, b)| (a.into_iter().collect(), b.into_iter().collect()))
    }

    #[test]
    fn levenshtein_known_values_across_blocks() {
        let long_a = "ab".repeat(100);
        let long_b = format!("{}x{}", "ab".repeat(50), "ab".repeat(50));
        assert_eq!(levenshtein(&long_a, &long_b), 1);
        assert_eq!(levenshtein(&"a".repeat(130), ""), 130);
        assert_eq!(levenshtein(&"é".repeat(65), &"e".repeat(65)), 65);
        assert_eq!(levenshtein(&"本".repeat(64), &"本".repeat(65)), 1);
    }

    #[test]
    fn sorted_hashes_are_sorted_and_deduped() {
        let h = sorted_token_hashes(&["tv", "sony", "tv", "", "sony"]);
        assert_eq!(
            h.len(),
            3,
            "duplicates collapse, empty token is one element"
        );
        assert!(h.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(sorted_token_hashes::<String>(&[]).is_empty());
    }

    /// Collision contract: a hash collision merges the colliding tokens
    /// into one set element — identical to how a *duplicate* token behaves
    /// — and never breaks the sorted/dedup invariant. Real FNV-1a 64
    /// collisions are infeasible to construct, so the collision is forced
    /// by feeding the kernels hash arrays in which distinct upstream
    /// tokens were assigned the same hash.
    #[test]
    fn forced_collision_merges_tokens_in_set_kernels() {
        // Side A held three distinct tokens, two of which collided on 9.
        let a = vec![5u64, 9];
        let b = vec![9u64];
        // The merged element intersects once; |A| counts it once.
        assert_eq!(jaccard_sorted(&a, &b), 0.5);
        assert_eq!(overlap_sorted(&a, &b), 1.0);
        assert_eq!(dice_sorted(&a, &b), 2.0 / 3.0);
        // Identical to the duplicate-token case by construction:
        let dup = sorted_token_hashes(&["x", "y", "y"]);
        assert_eq!(dup.len(), 2);
    }

    #[test]
    fn forced_collision_sums_weights_in_sorted_weights() {
        use crate::weight::SortedWeights;
        // Two distinct tokens collided on hash 42 with weights 1 and 2.
        let w = SortedWeights::from_hashed_entries(vec![(42, 1.0), (7, 1.0), (42, 2.0)]);
        assert_eq!(
            w.entries(),
            &[(7, 1.0), (42, 3.0)],
            "mass summed, order kept"
        );
        let other = SortedWeights::from_hashed_entries(vec![(42, 3.0)]);
        assert!((weighted_jaccard_sorted(&w, &other) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&toks("a b c"), &toks("a b c")), 1.0);
        assert_eq!(jaccard(&toks("a b"), &toks("c d")), 0.0);
        assert!((jaccard(&toks("a b c"), &toks("b c d")) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard::<String>(&[], &[]), 1.0);
        assert_eq!(jaccard(&toks("a"), &[] as &[String]), 0.0);
    }

    #[test]
    fn overlap_and_dice() {
        let (a, b) = (toks("a b c d"), toks("a b"));
        assert_eq!(overlap_coefficient(&a, &b), 1.0);
        assert!((dice(&a, &b) - 2.0 * 2.0 / 6.0).abs() < 1e-12);
        assert!((cosine_sets(&a, &b) - 2.0 / (8.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_favours_heavy_overlap() {
        let mut a = WeightedTokens::new();
        a.insert("rare".into(), 10.0);
        a.insert("tv".into(), 1.0);
        let mut b = WeightedTokens::new();
        b.insert("rare".into(), 10.0);
        b.insert("black".into(), 1.0);
        let wj = weighted_jaccard(&a, &b);
        assert!(wj > 0.8, "heavy shared token dominates: {wj}");
        let uj = jaccard(&["rare", "tv"], &["rare", "black"]);
        assert!(wj > uj);
    }

    #[test]
    fn weighted_cosine_bounds() {
        let mut a = WeightedTokens::new();
        a.insert("x".into(), 2.0);
        assert_eq!(weighted_cosine(&a, &a), 1.0);
        let b = WeightedTokens::new();
        assert_eq!(weighted_cosine(&a, &b), 0.0);
        assert_eq!(weighted_cosine(&b, &b), 1.0);
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert!((jaro_winkler("martha", "marhta") - 0.961111).abs() < 1e-4);
    }

    #[test]
    fn monge_elkan_containment() {
        let a = toks("sony bravia");
        let b = toks("sony bravia kdl 40 lcd tv");
        let me = monge_elkan(&a, &b, exact);
        assert_eq!(me, 1.0); // every token of a appears in b
        let sym = monge_elkan_sym(&a, &b, exact);
        assert!(sym < 1.0); // …but not vice versa
    }

    #[test]
    fn relative_numeric_similarity() {
        assert_eq!(relative_numeric(100.0, 100.0), 1.0);
        assert!((relative_numeric(100.0, 90.0) - 0.9).abs() < 1e-12);
        assert_eq!(relative_numeric(0.0, 0.0), 1.0);
        assert_eq!(relative_numeric(0.0, 5.0), 0.0);
    }

    proptest! {
        /// The sorted-hash kernels agree with the old `HashSet<&str>`
        /// implementations **bit for bit** — same intersection and set
        /// sizes, so the same float divisions — across random token
        /// vectors including empty sets and multi-byte unicode tokens.
        #[test]
        fn sorted_kernels_match_hashset_reference_bit_exactly(
            a in proptest::collection::vec("[a-cé本]{0,3}", 0..8),
            b in proptest::collection::vec("[a-cé本]{0,3}", 0..8),
        ) {
            for (new, old) in [
                (jaccard::<String> as fn(&[String], &[String]) -> f64, ref_jaccard::<String> as fn(&[String], &[String]) -> f64),
                (overlap_coefficient::<String>, ref_overlap::<String>),
                (dice::<String>, ref_dice::<String>),
                (cosine_sets::<String>, ref_cosine::<String>),
            ] {
                prop_assert_eq!(new(&a, &b).to_bits(), old(&a, &b).to_bits());
            }
        }

        /// Uniform weights make the weighted sorted kernel collapse to the
        /// plain set kernel, bit for bit (min/max of unit weights count
        /// exactly like set membership).
        #[test]
        fn uniform_sorted_weights_equal_set_jaccard(
            a in proptest::collection::vec("[a-d]{0,3}", 0..8),
            b in proptest::collection::vec("[a-d]{0,3}", 0..8),
        ) {
            use crate::weight::{uniform_weights, SortedWeights};
            let wa = SortedWeights::from_weighted(&uniform_weights(&a));
            let wb = SortedWeights::from_weighted(&uniform_weights(&b));
            prop_assert_eq!(
                weighted_jaccard_sorted(&wa, &wb).to_bits(),
                jaccard(&a, &b).to_bits()
            );
        }

        /// The sorted weighted kernels match the `HashMap` versions to
        /// summation-order tolerance for every weighting's value range.
        #[test]
        fn sorted_weighted_kernels_match_hashmap_reference(
            a in proptest::collection::vec("[a-d]{1,3}", 0..8),
            b in proptest::collection::vec("[a-d]{1,3}", 0..8),
        ) {
            use crate::weight::{tf_weights, SortedWeights};
            let (ma, mb) = (tf_weights(&a), tf_weights(&b));
            let (sa, sb) = (SortedWeights::from_weighted(&ma), SortedWeights::from_weighted(&mb));
            prop_assert!((weighted_jaccard_sorted(&sa, &sb) - weighted_jaccard(&ma, &mb)).abs() < 1e-12);
            prop_assert!((weighted_cosine_sorted(&sa, &sb) - weighted_cosine(&ma, &mb)).abs() < 1e-12);
        }

        /// The bit-parallel distance equals the textbook DP at every
        /// block boundary, for ASCII and non-ASCII inputs, and the
        /// normalised similarity is the same float. (The vendored runner
        /// has no shrinking and a fixed seed, 0x70616e6461; failures print
        /// the sampled inputs.)
        #[test]
        fn myers_matches_textbook_dp((a, b) in edge_pair()) {
            let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            let d = ref_levenshtein(&ca, &cb);
            prop_assert_eq!(levenshtein(&a, &b), d, "{:?} vs {:?}", a, b);
            prop_assert_eq!(levenshtein(&b, &a), d);
            let maxlen = ca.len().max(cb.len());
            let expected = if maxlen == 0 { 1.0 } else { 1.0 - d as f64 / maxlen as f64 };
            prop_assert_eq!(levenshtein_similarity(&a, &b).to_bits(), expected.to_bits());
        }

        /// Short random strings too, where most pattern chars repeat.
        #[test]
        fn myers_matches_textbook_dp_short(a in "[abé ]{0,12}", b in "[abé ]{0,12}") {
            let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            prop_assert_eq!(levenshtein(&a, &b), ref_levenshtein(&ca, &cb));
        }

        /// The allocation-free Jaro is bit-identical to the old one.
        #[test]
        fn jaro_matches_reference_bits(a in "[a-dé ]{0,14}", b in "[a-dé ]{0,14}") {
            prop_assert_eq!(jaro(&a, &b).to_bits(), ref_jaro(&a, &b).to_bits());
            prop_assert_eq!(jaro(&b, &a).to_bits(), ref_jaro(&b, &a).to_bits());
        }

        /// …including long inputs (heap bitsets past 512 units).
        #[test]
        fn jaro_matches_reference_bits_long((a, b) in edge_pair(), pad in 0usize..600) {
            let b = format!("{b}{}", "c".repeat(pad));
            prop_assert_eq!(jaro(&a, &b).to_bits(), ref_jaro(&a, &b).to_bits());
        }

        /// All set measures stay in [0,1], are symmetric, and are 1 on
        /// identical inputs.
        #[test]
        fn set_measure_invariants(
            a in proptest::collection::vec("[a-c]{1,3}", 0..6),
            b in proptest::collection::vec("[a-c]{1,3}", 0..6),
        ) {
            for f in [jaccard::<String>, overlap_coefficient::<String>, dice::<String>, cosine_sets::<String>] {
                let s = f(&a, &b);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((f(&b, &a) - s).abs() < 1e-12);
                prop_assert!((f(&a, &a) - 1.0).abs() < 1e-12);
            }
        }

        /// Levenshtein is a metric: symmetry, identity, triangle
        /// inequality.
        #[test]
        fn levenshtein_is_a_metric(
            a in "[ab]{0,8}",
            b in "[ab]{0,8}",
            c in "[ab]{0,8}",
        ) {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            prop_assert_eq!(levenshtein(&a, &a), 0);
            prop_assert!(
                levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c)
            );
        }

        /// Jaro(-Winkler) stays in [0,1] and is 1 on equal strings.
        #[test]
        fn jaro_bounds(a in "[a-d]{0,8}", b in "[a-d]{0,8}") {
            let j = jaro(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
            let jw = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0).contains(&jw));
            prop_assert!(jw >= j - 1e-12);
            prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}
