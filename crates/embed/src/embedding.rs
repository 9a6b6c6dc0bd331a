//! Feature-hashed tuple embeddings (the sentence-model substitute).

use crate::hashing::fnv1a_seeded;
use panda_table::Record;
use panda_text::preprocess::{apply_pipeline, standard_pipeline};
use panda_text::tokenize::Tokenizer;

/// Embeds a tuple's concatenated text into a fixed-dimension dense vector
/// by feature hashing.
///
/// Features are (a) word tokens and (b) character trigrams of the cleaned
/// text. Each feature `f` maps to bucket `h(f) mod dim` with sign
/// `±1` from an independent hash bit; word features carry more weight than
/// trigram features (words are more discriminative; trigrams provide
/// typo robustness). Vectors are L2-normalised, so dot product = cosine.
///
/// The construction guarantees the property blocking relies on: strings
/// with high weighted n-gram overlap get high cosine similarity, in
/// expectation proportional to the overlap (standard feature-hashing
/// inner-product preservation).
#[derive(Debug, Clone)]
pub struct TupleEmbedder {
    dim: usize,
    word_weight: f32,
    trigram_weight: f32,
    seed: u64,
}

impl TupleEmbedder {
    /// Embedder with the given dimension (≥ 8 recommended; 256 default).
    pub fn new(dim: usize) -> Self {
        TupleEmbedder {
            dim: dim.max(2),
            word_weight: 1.0,
            trigram_weight: 0.4,
            seed: 0x9e1e_55ed_u64,
        }
    }

    /// Override the feature weights (word, trigram).
    pub fn with_weights(mut self, word: f32, trigram: f32) -> Self {
        self.word_weight = word;
        self.trigram_weight = trigram;
        self
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed arbitrary text.
    pub fn embed_text(&self, text: &str) -> Vec<f32> {
        let cleaned = apply_pipeline(&standard_pipeline(), text);
        let mut v = vec![0.0f32; self.dim];
        for word in Tokenizer::Whitespace.tokens(&cleaned) {
            self.add_feature(&mut v, word.as_bytes(), self.word_weight);
        }
        for gram in Tokenizer::QGram(3).tokens(&cleaned) {
            self.add_feature(&mut v, gram.as_bytes(), self.trigram_weight);
        }
        normalize(&mut v);
        v
    }

    /// Embed a whole record: all non-null attributes concatenated — the
    /// "sentence" of the tuple, as the paper embeds whole tuples — except
    /// id-like columns (see [`crate::blocking::blocking_text`]).
    pub fn embed_record(&self, record: &Record<'_>) -> Vec<f32> {
        self.embed_text(&crate::blocking::blocking_text(record))
    }

    fn add_feature(&self, v: &mut [f32], feature: &[u8], weight: f32) {
        let h = fnv1a_seeded(feature, self.seed);
        let bucket = (h % self.dim as u64) as usize;
        // An independent bit decides the sign (unbiased estimator of the
        // inner product).
        let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
        v[bucket] += sign * weight;
    }
}

impl Default for TupleEmbedder {
    fn default() -> Self {
        TupleEmbedder::new(256)
    }
}

/// Cosine similarity of two same-length vectors (0 for zero vectors).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// A table's embeddings with, per vector, a bitmask of its nonzero
/// coordinates and its norm. Feature hashing leaves most of a 256-dim
/// vector zero (cora-dedup rows average about 83 nonzeros), so two
/// records share only a few dozen coordinates, and a cosine need visit
/// no others.
#[derive(Debug)]
pub(crate) struct EmbeddedTable {
    vecs: Vec<Vec<f32>>,
    /// `u64` words per support mask.
    words: usize,
    support: Vec<u64>,
    norms: Vec<f32>,
}

impl EmbeddedTable {
    /// Index `dim`-dimensional embeddings, in record order. Each norm is
    /// [`cosine`]'s own: the square root of the sum of squares taken in
    /// index order from `+0.0`.
    pub fn new(vecs: Vec<Vec<f32>>, dim: usize) -> Self {
        let words = dim.div_ceil(64);
        let mut support = vec![0u64; vecs.len() * words];
        let mut norms = Vec::with_capacity(vecs.len());
        for (i, v) in vecs.iter().enumerate() {
            let mut sq = 0.0f32;
            for (k, &x) in v.iter().enumerate() {
                sq += x * x;
                if x != 0.0 {
                    support[i * words + k / 64] |= 1 << (k % 64);
                }
            }
            norms.push(sq.sqrt());
        }
        EmbeddedTable {
            vecs,
            words,
            support,
            norms,
        }
    }

    /// All embeddings, in record order.
    pub fn vecs(&self) -> &[Vec<f32>] {
        &self.vecs
    }

    fn mask(&self, i: usize) -> &[u64] {
        &self.support[i * self.words..][..self.words]
    }

    /// `cosine(self.vecs()[i], other.vecs()[j])`, bit for bit.
    ///
    /// The norms are `cosine`'s, and so is the zero-vector rule. The dot
    /// adds `a[k] · b[k]` in index order from `+0.0`, as `cosine` does,
    /// but only over the coordinates both vectors use. Every skipped
    /// term has a `±0.0` factor and a finite other factor (normalised
    /// embeddings hold no infinity), so it is `±0.0`; added to a running
    /// sum that starts at `+0.0`, and so is never `-0.0`, it changes
    /// nothing. A NaN coordinate makes its vector's norm, and both
    /// results, NaN.
    pub fn cosine(&self, i: usize, other: &EmbeddedTable, j: usize) -> f32 {
        let (na, nb) = (self.norms[i], other.norms[j]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        let (a, b) = (&self.vecs[i], &other.vecs[j]);
        let mut dot = 0.0f32;
        for (w, (&x, &y)) in self.mask(i).iter().zip(other.mask(j)).enumerate() {
            let mut both = x & y;
            while both != 0 {
                let k = w * 64 + both.trailing_zeros() as usize;
                both &= both - 1;
                dot += a[k] * b[k];
            }
        }
        dot / (na * nb)
    }
}

fn normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_text_identical_embedding() {
        let e = TupleEmbedder::new(64);
        let a = e.embed_text("Sony Bravia 40 LCD TV");
        let b = e.embed_text("Sony Bravia 40 LCD TV");
        assert_eq!(a, b);
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similar_beats_dissimilar() {
        let e = TupleEmbedder::new(256);
        let base = e.embed_text("sony bravia kdl-40v2500 40 inch lcd tv");
        let near = e.embed_text("sony bravia kdl 40v2500 lcd hdtv 40in");
        let far = e.embed_text("apple ipod nano 8gb silver music player");
        assert!(
            cosine(&base, &near) > cosine(&base, &far) + 0.2,
            "near {} far {}",
            cosine(&base, &near),
            cosine(&base, &far)
        );
    }

    #[test]
    fn typo_robustness_via_trigrams() {
        let e = TupleEmbedder::new(256);
        let a = e.embed_text("panasonic viera plasma");
        let b = e.embed_text("panasonik viera plasma"); // typo
        assert!(cosine(&a, &b) > 0.7, "typo cosine {}", cosine(&a, &b));
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = TupleEmbedder::new(32);
        let v = e.embed_text("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&v, &v), 0.0);
    }

    proptest! {
        /// Embeddings are unit-length (or zero) and cosine stays in [-1,1].
        #[test]
        fn embedding_invariants(a in ".{0,30}", b in ".{0,30}") {
            let e = TupleEmbedder::new(64);
            let va = e.embed_text(&a);
            let vb = e.embed_text(&b);
            let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(na < 1.0 + 1e-4, "norm {na}");
            let c = cosine(&va, &vb);
            prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&c));
            prop_assert!((cosine(&va, &vb) - cosine(&vb, &va)).abs() < 1e-6);
        }

        /// The support-intersection cosine is bit-equal to the dense one
        /// on vectors holding `0.0` and `-0.0`, including zero vectors and
        /// disjoint supports (where the dense dot is a sum of signed
        /// zeros).
        #[test]
        fn masked_cosine_is_bit_exact(
            a in proptest::collection::vec(signed_coord(), 70),
            b in proptest::collection::vec(signed_coord(), 70),
        ) {
            let dense = cosine(&a, &b);
            let table = EmbeddedTable::new(vec![a.clone(), b.clone()], a.len());
            let sparse = table.cosine(0, &table, 1);
            prop_assert_eq!(sparse.to_bits(), dense.to_bits(), "a {a:?} b {b:?}");
        }
    }

    /// Mostly zeros of either sign, plus values of either sign.
    fn signed_coord() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(0.0f32),
            Just(-0.0f32),
            Just(0.0f32),
            Just(-0.0f32),
            (-1.0f64..1.0).prop_map(|x| x as f32),
        ]
    }
}
