//! Blocking strategies: embedding-LSH (the paper's), plus token blocking
//! and sorted neighbourhood as baselines for experiment E5.

use crate::embedding::{EmbeddedTable, TupleEmbedder};
use crate::lsh::HyperplaneLsh;
use panda_table::{CandidatePair, CandidateSet, Record, TablePair};
use panda_text::preprocess::{apply_pipeline, standard_pipeline};
use panda_text::tokenize::Tokenizer;
use std::collections::{HashMap, HashSet};

/// The text blocking keys are built from: every non-missing attribute
/// *except* id-like columns. Surrogate ids are unique per row and often
/// systematically different between tables (`10042` vs `58731`), so
/// including them poisons sort keys and adds pure noise to token sets.
pub fn blocking_text(rec: &Record<'_>) -> String {
    let mut out = String::new();
    for (field, value) in rec.schema().fields().iter().zip(rec.values()) {
        let lower = field.name.to_lowercase();
        if lower == "id" || lower.ends_with("_id") || value.is_missing() {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&value.to_text());
    }
    out
}

/// A blocking strategy: reduce `left × right` to a candidate set.
pub trait Blocker {
    /// Produce the candidate pairs for an EM task.
    fn candidates(&self, tables: &TablePair) -> CandidateSet;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Embedding + LSH (the paper's scheme)
// ---------------------------------------------------------------------------

/// Left records per probe chunk. A property of the data layout, not of
/// the worker count, so chunking never changes the candidate set.
pub const PROBE_CHUNK: usize = 256;

/// One probe chunk's output, in left-record order.
#[derive(Default)]
struct Probed {
    pairs: Vec<CandidatePair>,
    cosines: Vec<f32>,
    collisions: u64,
}

/// The paper's blocking pipeline: embed every tuple, band-hash the
/// embeddings, and emit all left-right collisions. An optional cosine
/// floor prunes accidental collisions; an optional per-record cap bounds
/// worst-case candidate counts.
#[derive(Debug, Clone)]
pub struct EmbeddingLshBlocker {
    embedder: TupleEmbedder,
    bands: usize,
    bits_per_band: usize,
    seed: u64,
    /// Drop collisions whose embedding cosine falls below this.
    pub min_cosine: f32,
    /// Keep at most this many candidates per left record (by cosine).
    pub max_per_record: Option<usize>,
}

impl EmbeddingLshBlocker {
    /// Reasonable defaults: 256-dim embeddings, 24 bands × 6 bits, cosine
    /// floor 0.25. Wide-band/low-bit LSH over-generates collisions on
    /// purpose — the exact-cosine floor then prunes them — because recall
    /// lost at the LSH stage is unrecoverable while spurious collisions
    /// only cost a dot product each.
    pub fn new(seed: u64) -> Self {
        EmbeddingLshBlocker {
            embedder: TupleEmbedder::new(256),
            bands: 24,
            bits_per_band: 6,
            seed,
            min_cosine: 0.25,
            max_per_record: Some(32),
        }
    }

    /// Override LSH shape.
    pub fn with_lsh(mut self, bands: usize, bits_per_band: usize) -> Self {
        self.bands = bands;
        self.bits_per_band = bits_per_band;
        self
    }

    /// Override the embedder.
    pub fn with_embedder(mut self, embedder: TupleEmbedder) -> Self {
        self.embedder = embedder;
        self
    }

    /// Embed all records of both tables, for callers that need the
    /// vectors themselves ([`Self::block`] already returns the emitted
    /// pairs' cosines). Records are embedded in parallel on the shared
    /// executor; output order is record order.
    pub fn embed_tables(&self, tables: &TablePair) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let _span = panda_obs::span("blocking.embed_tables");
        let embed_all = |table: &panda_table::Table| -> Vec<Vec<f32>> {
            panda_exec::par_map_range(table.len(), |i| {
                let rec = table
                    .record(panda_table::RecordId(i as u32))
                    .expect("row index in range");
                self.embedder.embed_record(&rec)
            })
        };
        (embed_all(&tables.left), embed_all(&tables.right))
    }

    /// Block a task: the candidate set [`Blocker::candidates`] returns,
    /// plus each emitted pair's embedding cosine — bit-identical to
    /// [`crate::cosine`] over the [`Self::embed_tables`] vectors, so
    /// callers that need the similarity need not embed again.
    ///
    /// Each left record probes its band buckets in band order, each bucket
    /// in right-record order; the first collision with a right record
    /// computes its cosine and later ones are skipped. That first-seen
    /// order is what the stable cap sort breaks cosine ties by.
    pub fn block(&self, tables: &TablePair) -> (CandidateSet, Vec<f32>) {
        let _span = panda_obs::span("blocking.candidates");
        let probed = self.probe(tables);
        panda_obs::counter_add("blocking.lsh_collisions", probed.collisions);
        panda_obs::counter_add("blocking.candidates_emitted", probed.pairs.len() as u64);
        (CandidateSet::from_pairs(probed.pairs), probed.cosines)
    }

    /// Embed, bucket and probe; [`Self::block`] records the counters.
    fn probe(&self, tables: &TablePair) -> Probed {
        let (lvecs, rvecs) = self.embed_tables(tables);
        let dim = self.embedder.dim();
        let lsh = HyperplaneLsh::new(dim, self.bands, self.bits_per_band, self.seed);
        let left = EmbeddedTable::new(lvecs, dim);
        let right = EmbeddedTable::new(rvecs, dim);

        // Bucket right records by (band, key).
        let rsigs = panda_exec::par_map_indexed(right.vecs(), |_, v| lsh.signature(v));
        let mut buckets: HashMap<(usize, u64), Vec<u32>> = HashMap::new();
        for (rid, sig) in rsigs.into_iter().enumerate() {
            for (band, key) in sig.into_iter().enumerate() {
                buckets.entry((band, key)).or_default().push(rid as u32);
            }
        }

        let chunks = panda_exec::par_chunks(left.vecs(), PROBE_CHUNK, |ci, chunk| {
            // `stamp[rid]` is the last left record that collided with
            // `rid`: a pair is new exactly when the stamp differs.
            let mut stamp = vec![u32::MAX; right.vecs().len()];
            let mut out = Probed::default();
            let mut cands: Vec<(f32, u32)> = Vec::new();
            for (lidx, v) in (ci * PROBE_CHUNK..).zip(chunk) {
                let lid = lidx as u32;
                cands.clear();
                for (band, key) in lsh.signature(v).into_iter().enumerate() {
                    let Some(rids) = buckets.get(&(band, key)) else {
                        continue;
                    };
                    for &rid in rids {
                        let seen = &mut stamp[rid as usize];
                        if *seen == lid {
                            continue;
                        }
                        *seen = lid;
                        out.collisions += 1;
                        let c = left.cosine(lidx, &right, rid as usize);
                        if c >= self.min_cosine {
                            cands.push((c, rid));
                        }
                    }
                }
                // Per-record cap, keeping the highest-cosine candidates.
                if let Some(cap) = self.max_per_record {
                    if cands.len() > cap {
                        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
                        cands.truncate(cap);
                    }
                }
                // Deterministic order within a record.
                cands.sort_by_key(|&(_, rid)| rid);
                for &(c, rid) in &cands {
                    out.pairs.push(CandidatePair::new(lid, rid));
                    out.cosines.push(c);
                }
            }
            out
        });

        let mut all = Probed::default();
        for chunk in chunks {
            all.pairs.extend(chunk.pairs);
            all.cosines.extend(chunk.cosines);
            all.collisions += chunk.collisions;
        }
        all
    }
}

impl Blocker for EmbeddingLshBlocker {
    fn candidates(&self, tables: &TablePair) -> CandidateSet {
        self.block(tables).0
    }

    fn name(&self) -> &'static str {
        "embedding-lsh"
    }
}

// ---------------------------------------------------------------------------
// Token blocking baseline
// ---------------------------------------------------------------------------

/// Classic token blocking: pairs sharing at least one non-frequent token
/// become candidates. `max_token_df` skips tokens whose blocks would be
/// huge (stop words, "tv").
#[derive(Debug, Clone)]
pub struct TokenBlocker {
    /// Skip tokens appearing in more than this fraction of right records.
    pub max_token_df: f64,
}

impl Default for TokenBlocker {
    fn default() -> Self {
        TokenBlocker { max_token_df: 0.05 }
    }
}

impl Blocker for TokenBlocker {
    fn candidates(&self, tables: &TablePair) -> CandidateSet {
        let clean = |s: String| apply_pipeline(&standard_pipeline(), &s);
        let mut token_to_rights: HashMap<String, Vec<u32>> = HashMap::new();
        for rec in tables.right.records() {
            let text = clean(blocking_text(&rec));
            let mut seen_tok: HashSet<String> = HashSet::new();
            for t in Tokenizer::Whitespace.tokens(&text) {
                if seen_tok.insert(t.clone()) {
                    token_to_rights.entry(t).or_default().push(rec.id().0);
                }
            }
        }
        let cap = ((tables.right.len() as f64) * self.max_token_df).ceil() as usize;
        let cap = cap.max(2);

        let mut seen: HashSet<CandidatePair> = HashSet::new();
        let mut pairs = Vec::new();
        for rec in tables.left.records() {
            let text = clean(blocking_text(&rec));
            for t in Tokenizer::Whitespace.tokens(&text) {
                let Some(rights) = token_to_rights.get(&t) else {
                    continue;
                };
                if rights.len() > cap {
                    continue; // frequent token: block too big to be useful
                }
                for &rid in rights {
                    let p = CandidatePair::new(rec.id().0, rid);
                    if seen.insert(p) {
                        pairs.push(p);
                    }
                }
            }
        }
        pairs.sort();
        CandidateSet::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "token"
    }
}

// ---------------------------------------------------------------------------
// Sorted neighbourhood baseline
// ---------------------------------------------------------------------------

/// Sorted neighbourhood: sort all records (both tables) by a key — here
/// the cleaned full text — then slide a window and pair up left/right
/// records that co-occur within it.
#[derive(Debug, Clone)]
pub struct SortedNeighborhoodBlocker {
    /// Window size (number of records).
    pub window: usize,
}

impl Default for SortedNeighborhoodBlocker {
    fn default() -> Self {
        SortedNeighborhoodBlocker { window: 10 }
    }
}

impl Blocker for SortedNeighborhoodBlocker {
    fn candidates(&self, tables: &TablePair) -> CandidateSet {
        #[derive(Clone)]
        struct Entry {
            key: String,
            side_left: bool,
            id: u32,
        }
        let clean = |s: String| apply_pipeline(&standard_pipeline(), &s);
        let mut entries: Vec<Entry> = Vec::with_capacity(tables.left.len() + tables.right.len());
        for rec in tables.left.records() {
            entries.push(Entry {
                key: clean(blocking_text(&rec)),
                side_left: true,
                id: rec.id().0,
            });
        }
        for rec in tables.right.records() {
            entries.push(Entry {
                key: clean(blocking_text(&rec)),
                side_left: false,
                id: rec.id().0,
            });
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));

        let w = self.window.max(2);
        let mut seen: HashSet<CandidatePair> = HashSet::new();
        let mut pairs = Vec::new();
        for i in 0..entries.len() {
            let end = (i + w).min(entries.len());
            for j in i + 1..end {
                let (a, b) = (&entries[i], &entries[j]);
                let p = match (a.side_left, b.side_left) {
                    (true, false) => CandidatePair::new(a.id, b.id),
                    (false, true) => CandidatePair::new(b.id, a.id),
                    _ => continue,
                };
                if seen.insert(p) {
                    pairs.push(p);
                }
            }
        }
        pairs.sort();
        CandidateSet::from_pairs(pairs)
    }

    fn name(&self) -> &'static str {
        "sorted-neighborhood"
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Blocking quality: candidate-set size vs gold recall.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingStats {
    /// Candidate pairs emitted.
    pub candidates: usize,
    /// Gold matches present in the candidate set.
    pub matches_covered: usize,
    /// Total gold matches.
    pub total_matches: usize,
    /// `matches_covered / total_matches` (1.0 when no gold).
    pub recall: f64,
    /// `candidates / (|L| × |R|)`.
    pub reduction_ratio: f64,
}

/// Compute [`BlockingStats`] for a candidate set against the pair's gold.
pub fn blocking_stats(tables: &TablePair, candidates: &CandidateSet) -> BlockingStats {
    let total = tables.gold.as_ref().map(|g| g.len()).unwrap_or(0);
    let covered = match &tables.gold {
        Some(gold) => candidates
            .pairs()
            .iter()
            .filter(|p| gold.contains(p))
            .count(),
        None => 0,
    };
    let cross = (tables.left.len() * tables.right.len()).max(1);
    BlockingStats {
        candidates: candidates.len(),
        matches_covered: covered,
        total_matches: total,
        recall: if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        },
        reduction_ratio: candidates.len() as f64 / cross as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::{MatchSet, RecordId, Schema, Table, Value};

    /// A tiny product task: 4 left, 4 right, 3 true matches.
    fn tiny_task() -> TablePair {
        let schema = Schema::of_text(&["name", "price"]);
        let mut left = Table::new("abt", schema.clone());
        left.push(vec!["sony bravia kdl-40v2500 40 lcd tv", "999"])
            .unwrap();
        left.push(vec!["apple ipod nano 8gb silver", "149"])
            .unwrap();
        left.push(vec!["canon powershot sd1000 digital camera", "299"])
            .unwrap();
        left.push(vec!["panasonic viera 50 plasma hdtv", "1299"])
            .unwrap();
        let mut right = Table::new("buy", schema);
        right
            .push(vec!["sony bravia 40in kdl40v2500 lcd hdtv", "989"])
            .unwrap();
        right
            .push(vec!["apple ipod nano 8 gb (silver)", "145"])
            .unwrap();
        right
            .push(vec!["panasonic 50in viera plasma television", "1250"])
            .unwrap();
        right
            .push(vec!["nikon coolpix 10mp camera bundle", "399"])
            .unwrap();
        let mut gold = MatchSet::new();
        gold.insert(RecordId(0), RecordId(0));
        gold.insert(RecordId(1), RecordId(1));
        gold.insert(RecordId(3), RecordId(2));
        TablePair::with_gold(left, right, gold)
    }

    #[test]
    fn embedding_lsh_recovers_matches() {
        let task = tiny_task();
        let blocker = EmbeddingLshBlocker::new(7);
        let cands = blocker.candidates(&task);
        let stats = blocking_stats(&task, &cands);
        assert_eq!(stats.total_matches, 3);
        assert_eq!(
            stats.matches_covered, 3,
            "all matches must survive blocking"
        );
        assert!(stats.candidates < 16, "should prune the cross product");
    }

    #[test]
    fn token_blocking_recovers_matches() {
        let task = tiny_task();
        let blocker = TokenBlocker { max_token_df: 0.6 };
        let cands = blocker.candidates(&task);
        let stats = blocking_stats(&task, &cands);
        assert_eq!(stats.matches_covered, 3);
    }

    #[test]
    fn sorted_neighborhood_produces_cross_side_pairs_only() {
        let task = tiny_task();
        let blocker = SortedNeighborhoodBlocker { window: 4 };
        let cands = blocker.candidates(&task);
        assert!(!cands.is_empty());
        for p in cands.pairs() {
            assert!(p.left.idx() < task.left.len());
            assert!(p.right.idx() < task.right.len());
        }
    }

    #[test]
    fn stats_on_cross_product_have_full_recall() {
        let task = tiny_task();
        let stats = blocking_stats(&task, &task.cross_product());
        assert_eq!(stats.recall, 1.0);
        assert_eq!(stats.reduction_ratio, 1.0);
    }

    /// The hash-set implementation of [`EmbeddingLshBlocker::candidates`]
    /// that the stamp-array, support-mask blocker replaced, kept verbatim
    /// (with its row-major hyperplanes and dense signature) as the
    /// reference it must equal.
    fn reference_candidates(b: &EmbeddingLshBlocker, tables: &TablePair) -> (CandidateSet, u64) {
        let (lvecs, rvecs) = b.embed_tables(tables);
        let planes = reference_planes(b.embedder.dim(), b.bands * b.bits_per_band, b.seed);
        let signature = |v: &[f32]| reference_signature(&planes, b.bands, b.bits_per_band, v);

        let mut buckets: HashMap<(usize, u64), Vec<u32>> = HashMap::new();
        for (rid, v) in rvecs.iter().enumerate() {
            for (band, key) in signature(v).into_iter().enumerate() {
                buckets.entry((band, key)).or_default().push(rid as u32);
            }
        }

        let mut seen: HashSet<CandidatePair> = HashSet::new();
        let mut per_left: Vec<Vec<(f32, u32)>> = vec![Vec::new(); lvecs.len()];
        for (lid, v) in lvecs.iter().enumerate() {
            for (band, key) in signature(v).into_iter().enumerate() {
                let Some(rids) = buckets.get(&(band, key)) else {
                    continue;
                };
                for &rid in rids {
                    let pair = CandidatePair::new(lid as u32, rid);
                    if !seen.insert(pair) {
                        continue;
                    }
                    let c = crate::cosine(v, &rvecs[rid as usize]);
                    if c >= b.min_cosine {
                        per_left[lid].push((c, rid));
                    }
                }
            }
        }

        let mut pairs = Vec::new();
        for (lid, mut cands) in per_left.into_iter().enumerate() {
            if let Some(cap) = b.max_per_record {
                if cands.len() > cap {
                    cands.sort_by(|a, b| b.0.total_cmp(&a.0));
                    cands.truncate(cap);
                }
            }
            cands.sort_by_key(|&(_, rid)| rid);
            for (_, rid) in cands {
                pairs.push(CandidatePair::new(lid as u32, rid));
            }
        }
        (CandidateSet::from_pairs(pairs), seen.len() as u64)
    }

    /// The reference hyperplane sampling: plane by plane, row-major.
    fn reference_planes(dim: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect()
    }

    /// The reference dense signature.
    fn reference_signature(planes: &[Vec<f32>], bands: usize, bits: usize, v: &[f32]) -> Vec<u64> {
        let mut sig = Vec::with_capacity(bands);
        for band in 0..bands {
            let mut key = 0u64;
            for bit in 0..bits {
                let plane = &planes[band * bits + bit];
                let dot: f32 = plane.iter().zip(v).map(|(p, x)| p * x).sum();
                key = (key << 1) | u64::from(dot >= 0.0);
            }
            sig.push(key);
        }
        sig
    }

    /// A random task from `seed`: short texts over a small vocabulary (so
    /// buckets collide and cosines spread), with empty and id-only
    /// records (zero vectors) and repeated rows (cosine ties).
    fn random_task(
        seed: u64,
        left_len: std::ops::RangeInclusive<usize>,
        right_len: std::ops::RangeInclusive<usize>,
    ) -> TablePair {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: &[&str] = &[
            "sony", "bravia", "lcd", "tv", "40in", "apple", "ipod", "nano", "8gb", "silver",
            "canon", "camera", "zoom", "kit", "black", "hdmi", "usb", "cable",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::of_text(&["id", "name"]);
        let mut table = |name: &str, len: std::ops::RangeInclusive<usize>| {
            let mut t = Table::new(name, schema.clone());
            let n = rng.gen_range(len);
            let mut rows: Vec<Option<String>> = Vec::with_capacity(n);
            for i in 0..n {
                let row = match rng.gen_range(0..10) {
                    0 => None,
                    1 => Some(String::new()),
                    2 if i > 0 => rows[rng.gen_range(0..i)].clone(),
                    _ => {
                        let words = rng.gen_range(1..6);
                        let text: Vec<&str> = (0..words)
                            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                            .collect();
                        Some(text.join(" "))
                    }
                };
                rows.push(row.clone());
                let name = row.map_or(Value::Null, Value::Text);
                t.push_row(vec![Value::Text(i.to_string()), name]).unwrap();
            }
            t
        };
        let left = table("l", left_len);
        let right = table("r", right_len);
        TablePair::new(left, right)
    }

    /// Check `block` against the reference on one configuration: the same
    /// pairs in the same order, the same collision count, and cosines
    /// bit-equal to the dense `cosine` of the embedded tables.
    fn assert_matches_reference(b: &EmbeddingLshBlocker, task: &TablePair, what: &str) {
        let (want, want_collisions) = reference_candidates(b, task);
        let probed = b.probe(task);
        assert_eq!(
            probed.collisions, want_collisions,
            "{what}: collision count"
        );
        let (got, cosines) = b.block(task);
        assert_eq!(got.pairs(), want.pairs(), "{what}: candidate sets differ");
        assert_eq!(got.pairs(), &probed.pairs[..], "{what}: block is the probe");
        assert_eq!(cosines.len(), got.len(), "{what}: one cosine per pair");
        let (lv, rv) = b.embed_tables(task);
        for (p, c) in got.pairs().iter().zip(&cosines) {
            let dense = crate::cosine(&lv[p.left.idx()], &rv[p.right.idx()]);
            assert_eq!(c.to_bits(), dense.to_bits(), "{what}: cosine of {p:?}");
        }
    }

    #[test]
    fn block_equals_reference_on_random_tasks() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(24));
        let strategy = (
            any::<u64>(),
            any::<u64>(),
            1usize..=24,
            1usize..=8,
            0usize..24,
        );
        runner
            .run(&strategy, |(task_seed, lsh_seed, bands, bits, shape)| {
                let (floor, cap) = (shape % 6, shape / 6);
                let task = random_task(task_seed, 0..=48, 0..=48);
                let mut b = EmbeddingLshBlocker::new(lsh_seed).with_lsh(bands, bits);
                b.min_cosine = [-1.0, 0.0, 0.25, 0.5, 0.9, f32::NEG_INFINITY][floor];
                b.max_per_record = [None, Some(1), Some(32), Some(3)][cap];
                let what = format!(
                    "task seed {task_seed}, lsh seed {lsh_seed}, {bands}x{bits}, \
                     floor {}, cap {:?}",
                    b.min_cosine, b.max_per_record
                );
                assert_matches_reference(&b, &task, &what);
                Ok(())
            })
            .unwrap();
    }

    /// A left table past one probe chunk: chunks must concatenate to the
    /// serial result, whatever the worker count.
    #[test]
    fn block_equals_reference_across_probe_chunks() {
        let task = random_task(41, PROBE_CHUNK * 2 + 7..=PROBE_CHUNK * 2 + 7, 60..=60);
        for (floor, cap) in [(0.25, Some(32)), (-1.0, Some(1)), (-1.0, None)] {
            let mut b = EmbeddingLshBlocker::new(5);
            b.min_cosine = floor;
            b.max_per_record = cap;
            assert_matches_reference(&b, &task, &format!("floor {floor}, cap {cap:?}"));
        }
    }

    /// Zero vectors (empty and id-only records) and duplicate rows, whose
    /// equal cosines tie at the cap boundary: the cap must keep the same
    /// first-seen records as the reference.
    #[test]
    fn zero_vectors_and_cap_ties_match_reference() {
        let schema = Schema::of_text(&["id", "name"]);
        let mut left = Table::new("l", schema.clone());
        let mut right = Table::new("r", schema);
        for (i, name) in ["sony lcd tv", "", "sony lcd tv", "apple ipod"]
            .iter()
            .enumerate()
        {
            left.push(vec![format!("l{i}"), name.to_string()]).unwrap();
        }
        left.push_row(vec![Value::Text("l4".into()), Value::Null])
            .unwrap();
        for i in 0..12 {
            let name = ["sony lcd tv", "sony lcd", "", "apple ipod nano"][i % 4];
            right.push(vec![format!("r{i}"), name.to_string()]).unwrap();
        }
        right
            .push_row(vec![Value::Text("r12".into()), Value::Null])
            .unwrap();
        let task = TablePair::new(left, right);
        for seed in 0..8 {
            for (floor, cap) in [
                (-1.0, Some(1)),
                (-1.0, Some(2)),
                (0.0, Some(3)),
                (0.25, None),
            ] {
                let mut b = EmbeddingLshBlocker::new(seed).with_lsh(6, 2);
                b.min_cosine = floor;
                b.max_per_record = cap;
                let what = format!("seed {seed}, floor {floor}, cap {cap:?}");
                assert_matches_reference(&b, &task, &what);
            }
        }
    }

    /// The zero-skipping signature equals the reference dense one on
    /// vectors holding both `0.0` and `-0.0`, including all-zero vectors.
    #[test]
    fn signature_equals_reference_with_signed_zeros() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(64));
        let coord = prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            Just(f32::MIN_POSITIVE),
            (-1.0f64..1.0).prop_map(|x| x as f32),
        ];
        let strategy = (
            any::<u64>(),
            1usize..=12,
            1usize..=8,
            proptest::collection::vec(coord, 24),
        );
        runner
            .run(&strategy, |(seed, bands, bits, v)| {
                let lsh = HyperplaneLsh::new(v.len(), bands, bits, seed);
                let planes = reference_planes(v.len(), bands * bits, seed);
                prop_assert_eq!(
                    lsh.signature(&v),
                    reference_signature(&planes, bands, bits, &v),
                    "seed {seed}, {bands}x{bits}, v {v:?}"
                );
                Ok(())
            })
            .unwrap();
        let lsh = HyperplaneLsh::new(8, 4, 3, 1);
        let planes = reference_planes(8, 12, 1);
        for zeros in [[0.0f32; 8], [-0.0f32; 8]] {
            assert_eq!(
                lsh.signature(&zeros),
                reference_signature(&planes, 4, 3, &zeros)
            );
        }
    }

    #[test]
    fn per_record_cap_is_enforced() {
        let task = tiny_task();
        let mut blocker = EmbeddingLshBlocker::new(3);
        blocker.min_cosine = -1.0; // keep everything LSH emits
        blocker.max_per_record = Some(1);
        let cands = blocker.candidates(&task);
        let mut per_left = std::collections::HashMap::new();
        for p in cands.pairs() {
            *per_left.entry(p.left).or_insert(0) += 1;
        }
        assert!(per_left.values().all(|&c| c <= 1));
    }
}
