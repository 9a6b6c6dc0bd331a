//! Similarity configurations: one choice along each of the four axes.
//!
//! A [`SimilarityConfig`] is the unit Auto-FuzzyJoin enumerates when
//! generating LFs automatically (paper §2.1, feature 1.3): *preprocessing ×
//! tokenization × weighting × distance function*, to which a threshold is
//! later attached. It is also the engine behind similarity-threshold LFs
//! users write by hand.

use crate::prepared::{sorted_weights, PreparedRef};
use crate::preprocess::{apply_pipeline, Preprocess};
use crate::sim;
use crate::tokenize::Tokenizer;
use crate::weight::{CorpusStats, SortedWeights};
use serde::{Deserialize, Serialize};

/// Token weighting scheme (axis 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Weighting {
    /// Every distinct token counts 1.
    Uniform,
    /// Term frequency within the string.
    Tf,
    /// TF × corpus IDF (requires [`CorpusStats`]; falls back to TF when
    /// none are provided).
    TfIdf,
}

impl Weighting {
    /// Short stable name used in auto-generated LF descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            Weighting::Uniform => "uniform",
            Weighting::Tf => "tf",
            Weighting::TfIdf => "tfidf",
        }
    }
}

/// Similarity measure (axis 4). Set measures respect the weighting; string
/// measures operate on the preprocessed string and ignore
/// tokenizer/weighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Measure {
    /// Jaccard over weighted token sets.
    Jaccard,
    /// Cosine over weighted token vectors.
    Cosine,
    /// Dice over (unweighted) token sets.
    Dice,
    /// Overlap coefficient over (unweighted) token sets.
    Overlap,
    /// Normalised Levenshtein similarity on the whole string.
    Levenshtein,
    /// Jaro-Winkler on the whole string.
    JaroWinkler,
    /// Symmetrised Monge-Elkan with Jaro-Winkler inner similarity.
    MongeElkan,
}

impl Measure {
    /// Short stable name used in auto-generated LF descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Jaccard => "jaccard",
            Measure::Cosine => "cosine",
            Measure::Dice => "dice",
            Measure::Overlap => "overlap",
            Measure::Levenshtein => "lev",
            Measure::JaroWinkler => "jw",
            Measure::MongeElkan => "me",
        }
    }

    /// Is this a token-set measure (i.e. does it use the tokenizer)?
    pub fn is_set_measure(&self) -> bool {
        matches!(
            self,
            Measure::Jaccard
                | Measure::Cosine
                | Measure::Dice
                | Measure::Overlap
                | Measure::MongeElkan
        )
    }
}

/// One point in the four-axis configuration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Pre-processing pipeline (axis 1).
    pub preprocess: Vec<Preprocess>,
    /// Tokenizer (axis 2).
    pub tokenizer: Tokenizer,
    /// Token weighting (axis 3).
    pub weighting: Weighting,
    /// Similarity measure (axis 4).
    pub measure: Measure,
}

impl SimilarityConfig {
    /// The workhorse default: lowercase+clean, whitespace tokens, uniform
    /// weights, Jaccard — the measure behind the paper's `name_overlap`.
    pub fn default_jaccard() -> Self {
        SimilarityConfig {
            preprocess: crate::preprocess::standard_pipeline(),
            tokenizer: Tokenizer::Whitespace,
            weighting: Weighting::Uniform,
            measure: Measure::Jaccard,
        }
    }

    /// A human-readable identifier such as
    /// `"lower+nopunct|space|uniform|jaccard"` — stable across runs, used
    /// to name auto-generated LFs.
    pub fn id(&self) -> String {
        let pp: Vec<&str> = self.preprocess.iter().map(|p| p.name()).collect();
        format!(
            "{}|{}|{}|{}",
            if pp.is_empty() {
                "raw".to_string()
            } else {
                pp.join("+")
            },
            self.tokenizer.name(),
            self.weighting.name(),
            self.measure.name()
        )
    }

    /// Preprocess + tokenize one string.
    pub fn tokens(&self, input: &str) -> Vec<String> {
        let cleaned = apply_pipeline(&self.preprocess, input);
        self.tokenizer.tokens(&cleaned)
    }

    /// Score a pair of strings in `[0,1]`. `stats` supplies corpus IDF for
    /// [`Weighting::TfIdf`]; pass `None` to fall back to TF.
    pub fn score(&self, a: &str, b: &str, stats: Option<&CorpusStats>) -> f64 {
        match self.measure {
            Measure::Levenshtein => {
                let ca = apply_pipeline(&self.preprocess, a);
                let cb = apply_pipeline(&self.preprocess, b);
                sim::levenshtein_similarity(&ca, &cb)
            }
            Measure::JaroWinkler => {
                let ca = apply_pipeline(&self.preprocess, a);
                let cb = apply_pipeline(&self.preprocess, b);
                sim::jaro_winkler(&ca, &cb)
            }
            Measure::MongeElkan => {
                let ta = self.tokens(a);
                let tb = self.tokens(b);
                sim::monge_elkan_sym(&ta, &tb, sim::jaro_winkler)
            }
            Measure::Dice => {
                let (ta, tb) = (self.tokens(a), self.tokens(b));
                sim::dice(&ta, &tb)
            }
            Measure::Overlap => {
                let (ta, tb) = (self.tokens(a), self.tokens(b));
                sim::overlap_coefficient(&ta, &tb)
            }
            Measure::Jaccard | Measure::Cosine => {
                let build = |s: &str| sorted_weights(&self.tokens(s), self.weighting, stats);
                let (wa, wb) = (build(a), build(b));
                match self.measure {
                    Measure::Jaccard => sim::weighted_jaccard_sorted(&wa, &wb),
                    _ => sim::weighted_cosine_sorted(&wa, &wb),
                }
            }
        }
    }

    /// Score a pair from already-prepared per-record data (see
    /// [`crate::prepared`]). Semantics match [`SimilarityConfig::score`]
    /// exactly: string measures read the preprocessed text, set measures
    /// the token vectors, weighted measures the attached weight vectors
    /// (falling back to building weights from the tokens when a ref
    /// carries none — TF-IDF without weights degrades to TF, like `score`
    /// without stats).
    pub fn score_prepared(&self, a: &PreparedRef<'_>, b: &PreparedRef<'_>) -> f64 {
        match self.measure {
            Measure::Levenshtein => sim::levenshtein_similarity(a.cleaned, b.cleaned),
            Measure::JaroWinkler => sim::jaro_winkler(a.cleaned, b.cleaned),
            Measure::MongeElkan => sim::monge_elkan_sym(a.tokens, b.tokens, sim::jaro_winkler),
            Measure::Dice => sim::dice_sorted(a.hashes, b.hashes),
            Measure::Overlap => sim::overlap_sorted(a.hashes, b.hashes),
            Measure::Jaccard | Measure::Cosine => {
                let result = |wa: &SortedWeights, wb: &SortedWeights| match self.measure {
                    Measure::Jaccard => sim::weighted_jaccard_sorted(wa, wb),
                    _ => sim::weighted_cosine_sorted(wa, wb),
                };
                match (a.weights, b.weights) {
                    (Some(wa), Some(wb)) => result(wa, wb),
                    _ => {
                        let build = |toks| sorted_weights(toks, self.weighting, None);
                        result(&build(a.tokens), &build(b.tokens))
                    }
                }
            }
        }
    }
}

/// The default enumeration grid for Auto-FuzzyJoin: a compact cross product
/// of sensible choices along each axis (40 configurations).
pub fn default_config_grid() -> Vec<SimilarityConfig> {
    let pipelines: Vec<Vec<Preprocess>> = vec![
        vec![Preprocess::Lowercase, Preprocess::NormalizeWhitespace],
        vec![
            Preprocess::Lowercase,
            Preprocess::StripPunctuation,
            Preprocess::NormalizeWhitespace,
        ],
        vec![
            Preprocess::Lowercase,
            Preprocess::StripPunctuation,
            Preprocess::Stem,
            Preprocess::NormalizeWhitespace,
        ],
    ];
    let tokenizers = [Tokenizer::Whitespace, Tokenizer::QGram(3)];
    let weightings = [Weighting::Uniform, Weighting::TfIdf];
    let set_measures = [Measure::Jaccard, Measure::Cosine];
    let string_measures = [Measure::JaroWinkler, Measure::Levenshtein];

    let mut out = Vec::new();
    for pp in &pipelines {
        for tk in tokenizers {
            for w in weightings {
                for m in set_measures {
                    out.push(SimilarityConfig {
                        preprocess: pp.clone(),
                        tokenizer: tk,
                        weighting: w,
                        measure: m,
                    });
                }
            }
        }
        for m in string_measures {
            out.push(SimilarityConfig {
                preprocess: pp.clone(),
                tokenizer: Tokenizer::Whitespace,
                weighting: Weighting::Uniform,
                measure: m,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_jaccard_matches_paper_lf_semantics() {
        // The paper's name_overlap: token overlap of the name attribute.
        let cfg = SimilarityConfig::default_jaccard();
        let s = cfg.score(
            "Sony Bravia 40' LCD TV",
            "sony bravia 40 lcd television",
            None,
        );
        assert!(s > 0.6, "near-identical names score high: {s}");
        let d = cfg.score("Sony Bravia 40' LCD TV", "Canon PowerShot camera", None);
        assert!(d < 0.1, "unrelated names score low: {d}");
    }

    #[test]
    fn ids_are_unique_across_the_grid() {
        let grid = default_config_grid();
        let mut ids: Vec<String> = grid.iter().map(|c| c.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "config ids must be unique");
        assert!(n >= 30, "grid should be reasonably large, got {n}");
    }

    #[test]
    fn tfidf_downweights_common_tokens() {
        let mut stats = CorpusStats::new();
        for _ in 0..50 {
            stats.add_document(&["tv", "lcd"]);
        }
        stats.add_document(&["kdl40", "tv"]);
        stats.add_document(&["xbr9", "tv"]);
        let cfg = SimilarityConfig {
            preprocess: vec![Preprocess::Lowercase],
            tokenizer: Tokenizer::Whitespace,
            weighting: Weighting::TfIdf,
            measure: Measure::Jaccard,
        };
        // Shares only the ubiquitous "tv" token.
        let common = cfg.score("kdl40 tv", "xbr9 tv", Some(&stats));
        // Shares the rare model token.
        let rare = cfg.score("kdl40 tv", "kdl40 lcd", Some(&stats));
        assert!(
            rare > common,
            "rare overlap {rare} should beat common {common}"
        );
    }

    #[test]
    fn string_measures_ignore_tokenizer() {
        let a = SimilarityConfig {
            preprocess: vec![Preprocess::Lowercase],
            tokenizer: Tokenizer::Whitespace,
            weighting: Weighting::Uniform,
            measure: Measure::JaroWinkler,
        };
        let b = SimilarityConfig {
            tokenizer: Tokenizer::QGram(3),
            ..a.clone()
        };
        assert_eq!(a.score("abc", "abd", None), b.score("abc", "abd", None));
    }

    proptest! {
        /// Every config in the grid returns a score in [0,1], symmetric,
        /// and 1.0 for identical strings.
        #[test]
        fn grid_score_invariants(
            a in "[a-c ]{0,12}",
            b in "[a-c ]{0,12}",
            idx in 0usize..36,
        ) {
            let grid = default_config_grid();
            let cfg = &grid[idx % grid.len()];
            let s = cfg.score(&a, &b, None);
            prop_assert!((0.0..=1.0).contains(&s), "score {s} for {}", cfg.id());
            let s2 = cfg.score(&b, &a, None);
            prop_assert!((s - s2).abs() < 1e-9, "symmetry for {}", cfg.id());
            let eq = cfg.score(&a, &a, None);
            prop_assert!((eq - 1.0).abs() < 1e-9, "identity for {}", cfg.id());
        }
    }
}
