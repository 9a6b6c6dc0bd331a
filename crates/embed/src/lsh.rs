//! Random-hyperplane LSH with banding.
//!
//! Sign-random-projection LSH: `P[h(a) = h(b)] = 1 − θ(a,b)/π` per
//! hyperplane. Bits are grouped into bands; two vectors become a candidate
//! pair when *all* bits of at least one band agree — the classic banding
//! construction that turns per-bit collision probability into an S-curve
//! over cosine similarity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-hyperplane LSH parameters + sampled hyperplanes.
#[derive(Debug, Clone)]
pub struct HyperplaneLsh {
    dim: usize,
    bands: usize,
    bits_per_band: usize,
    /// The `bands × bits_per_band` hyperplane normals, stored
    /// coordinate-major: entry `j * n_planes + p` is plane `p`'s
    /// coefficient on coordinate `j`, so one nonzero coordinate updates
    /// every plane's dot from one contiguous row.
    planes: Vec<f32>,
}

impl HyperplaneLsh {
    /// Sample hyperplanes for `dim`-dimensional inputs.
    ///
    /// `bands` × `bits_per_band` ≤ 64·bands total bits. More bands → higher
    /// recall; more bits per band → higher precision.
    pub fn new(dim: usize, bands: usize, bits_per_band: usize, seed: u64) -> Self {
        assert!(
            (1..=64).contains(&bits_per_band),
            "band width must be 1..=64 bits"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = bands * bits_per_band;
        // Sampled plane by plane (the seed fixes each plane), stored
        // transposed. Rademacher ±1 normals are as good as Gaussian for
        // SRP and cheaper to generate/apply.
        let mut planes = vec![0.0f32; dim * n];
        for p in 0..n {
            for j in 0..dim {
                planes[j * n + p] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
        }
        HyperplaneLsh {
            dim,
            bands,
            bits_per_band,
            planes,
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Band signatures of a vector: one `u64` key per band.
    ///
    /// Each plane's dot sums its terms in coordinate order from `+0.0`,
    /// skipping zero coordinates: their terms are `±1 · ±0.0 = ±0.0`.
    /// From the first nonzero term on, every partial sum is the one a
    /// dense sum would reach; before it, both are zeros, which the
    /// `>= 0.0` sign test reads alike. So every bit is the dense one.
    pub fn signature(&self, v: &[f32]) -> Vec<u64> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let n = self.bands * self.bits_per_band;
        let mut dots = vec![0.0f32; n];
        for (j, &x) in v.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (dot, &p) in dots.iter_mut().zip(&self.planes[j * n..][..n]) {
                *dot += p * x;
            }
        }
        dots.chunks(self.bits_per_band)
            .map(|band| {
                band.iter()
                    .fold(0u64, |key, &dot| (key << 1) | u64::from(dot >= 0.0))
            })
            .collect()
    }

    /// Do two vectors collide in at least one band?
    pub fn collides(&self, a: &[f32], b: &[f32]) -> bool {
        self.signature(a)
            .iter()
            .zip(self.signature(b).iter())
            .any(|(x, y)| x == y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::TupleEmbedder;

    #[test]
    fn identical_vectors_always_collide() {
        let lsh = HyperplaneLsh::new(64, 8, 8, 42);
        let e = TupleEmbedder::new(64);
        let v = e.embed_text("sony bravia tv");
        assert_eq!(lsh.signature(&v), lsh.signature(&v));
        assert!(lsh.collides(&v, &v));
    }

    #[test]
    fn similar_collide_more_than_dissimilar() {
        let e = TupleEmbedder::new(128);
        let base = e.embed_text("sony bravia kdl-40v2500 lcd tv 40 inch");
        let near = e.embed_text("sony bravia kdl 40v2500 lcd tv");
        let far = e.embed_text("nikon coolpix digital camera 10mp");
        // Average collisions over several seeds (probabilistic statement).
        let mut near_hits = 0;
        let mut far_hits = 0;
        for seed in 0..20 {
            let lsh = HyperplaneLsh::new(128, 8, 6, seed);
            near_hits += usize::from(lsh.collides(&base, &near));
            far_hits += usize::from(lsh.collides(&base, &far));
        }
        assert!(
            near_hits > far_hits,
            "near collided {near_hits}/20, far {far_hits}/20"
        );
        assert!(
            near_hits >= 15,
            "high-cosine pairs should almost always collide"
        );
    }

    #[test]
    fn signature_is_deterministic_per_seed() {
        let e = TupleEmbedder::new(32);
        let v = e.embed_text("abc def");
        let a = HyperplaneLsh::new(32, 4, 8, 7).signature(&v);
        let b = HyperplaneLsh::new(32, 4, 8, 7).signature(&v);
        let c = HyperplaneLsh::new(32, 4, 8, 8).signature(&v);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed should give different planes");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let lsh = HyperplaneLsh::new(16, 2, 4, 0);
        lsh.signature(&[0.0; 8]);
    }
}
