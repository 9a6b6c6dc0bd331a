//! The declarative LF builder DSL.
//!
//! These cover the LF shapes the paper demonstrates:
//!
//! * [`SimilarityLf`] — the paper's `name_overlap` (Figure 2, left): a
//!   similarity score with an upper threshold voting +1 and a lower
//!   threshold voting −1, abstaining in between;
//! * [`ExtractionLf`] — the paper's `size_unmatch` (Figure 2, right):
//!   extract a key attribute from both sides and vote −1 when the
//!   extractions disagree;
//! * [`AttributeEqualityLf`] — exact equality on an attribute (phone
//!   numbers, years);
//! * [`NumericToleranceLf`] — numeric attributes within a relative
//!   tolerance (prices);
//! * [`ClosureLf`] — anything else, from a Rust closure (the stand-in for
//!   arbitrary user Python in the original system).

use crate::lf::{per_referenced_record, LabelingFunction, LfProvenance, PairVoter};
use crate::Label;
use panda_table::{CandidateSet, PairRef, Side, TablePair};
use panda_text::{CorpusStats, PreparedColumn, SimilarityConfig};
use std::borrow::Cow;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// ClosureLf
// ---------------------------------------------------------------------------

/// An LF defined by an arbitrary closure.
pub struct ClosureLf {
    name: String,
    description: String,
    f: Box<dyn Fn(&PairRef<'_>) -> Label + Send + Sync>,
}

impl ClosureLf {
    /// Wrap a closure as an LF.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&PairRef<'_>) -> Label + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        ClosureLf {
            description: format!("closure LF {name}"),
            name,
            f: Box::new(f),
        }
    }

    /// Attach a human description.
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }
}

impl LabelingFunction for ClosureLf {
    fn name(&self) -> &str {
        &self.name
    }
    fn label(&self, pair: &PairRef<'_>) -> Label {
        (self.f)(pair)
    }
    fn description(&self) -> String {
        self.description.clone()
    }
}

// ---------------------------------------------------------------------------
// SimilarityLf
// ---------------------------------------------------------------------------

/// Similarity-threshold LF over one attribute (possibly named differently
/// on each side).
///
/// Semantics match the paper's `name_overlap`: score > `upper` → +1,
/// score < `lower` → −1, otherwise abstain. Set `lower` to a negative
/// value for a match-only LF, or `upper` > 1 for a non-match-only LF.
/// When either side's attribute is missing the LF abstains.
#[derive(Debug, Clone)]
pub struct SimilarityLf {
    name: String,
    left_attr: String,
    right_attr: String,
    config: SimilarityConfig,
    upper: f64,
    lower: f64,
    stats: Option<Arc<CorpusStats>>,
    provenance: LfProvenance,
}

impl SimilarityLf {
    /// Build a similarity LF on `attr` (same name both sides).
    pub fn new(
        name: impl Into<String>,
        attr: impl Into<String>,
        config: SimilarityConfig,
        upper: f64,
        lower: f64,
    ) -> Self {
        let attr = attr.into();
        SimilarityLf {
            name: name.into(),
            left_attr: attr.clone(),
            right_attr: attr,
            config,
            upper,
            lower,
            stats: None,
            provenance: LfProvenance::Manual,
        }
    }

    /// Use different attribute names on the two sides (`title` vs `name`).
    pub fn with_attrs(mut self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.left_attr = left.into();
        self.right_attr = right.into();
        self
    }

    /// Attach corpus statistics for TF-IDF weighting.
    pub fn with_corpus(mut self, stats: Arc<CorpusStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Mark as auto-generated (used by Auto-FuzzyJoin).
    pub fn with_provenance(mut self, p: LfProvenance) -> Self {
        self.provenance = p;
        self
    }

    /// The similarity score this LF thresholds, exposed for debugging
    /// panels.
    pub fn score(&self, pair: &PairRef<'_>) -> Option<f64> {
        let l = pair.left.get(&self.left_attr);
        let r = pair.right.get(&self.right_attr);
        if l.is_missing() || r.is_missing() {
            return None;
        }
        Some(
            self.config
                .score(&l.to_text(), &r.to_text(), self.stats.as_deref()),
        )
    }

    /// The vote for a score: `> upper` → +1, `< lower` → −1, otherwise
    /// (NaN included) abstain.
    fn vote(&self, score: f64) -> Label {
        if score > self.upper {
            Label::Match
        } else if score < self.lower {
            Label::NonMatch
        } else {
            Label::Abstain
        }
    }

    /// Current thresholds `(upper, lower)`.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.upper, self.lower)
    }

    /// A copy with new thresholds (Step 4 of the demo: the user tightens
    /// `name_overlap` from 0.4 to 0.6).
    pub fn with_thresholds(mut self, upper: f64, lower: f64) -> Self {
        self.upper = upper;
        self.lower = lower;
        self
    }
}

impl LabelingFunction for SimilarityLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, pair: &PairRef<'_>) -> Label {
        match self.score(pair) {
            Some(s) => self.vote(s),
            None => Label::Abstain,
        }
    }

    /// Preprocess, tokenize and weight each referenced record's cell once
    /// (only what the measure reads), then vote each pair with
    /// `score_prepared` and the same threshold comparisons as `label`.
    fn prepare<'a>(&'a self, tables: &'a TablePair, candidates: &CandidateSet) -> PairVoter<'a> {
        // Missing cells are `None`, like records no pair references: both
        // read as blank and abstain.
        let [left, right] = per_referenced_record(tables, candidates, |side, rec| {
            let attr = match side {
                Side::Left => &self.left_attr,
                Side::Right => &self.right_attr,
            };
            let v = rec.get(attr);
            (!v.is_missing()).then(|| {
                v.as_text()
                    .map_or_else(|| Cow::Owned(v.to_text()), Cow::Borrowed)
            })
        });
        let prepare = |texts: Vec<Option<Option<Cow<'_, str>>>>| {
            let texts: Vec<Option<Cow<'_, str>>> = texts.into_iter().map(Option::flatten).collect();
            PreparedColumn::build_for(&texts, &self.config, self.stats.as_deref())
        };
        let (left, right) = (prepare(left), prepare(right));
        PairVoter::prepared(move |pair| {
            let (li, ri) = (pair.left.idx(), pair.right.idx());
            if li >= left.len() || ri >= right.len() || left.is_blank(li) || right.is_blank(ri) {
                return Label::Abstain;
            }
            self.vote(
                self.config
                    .score_prepared(&left.record(li), &right.record(ri)),
            )
        })
    }

    fn description(&self) -> String {
        format!(
            "sim[{}]({}, {}) > {:.2} => +1; < {:.2} => -1",
            self.config.id(),
            self.left_attr,
            self.right_attr,
            self.upper,
            self.lower
        )
    }

    fn provenance(&self) -> LfProvenance {
        self.provenance
    }
}

// ---------------------------------------------------------------------------
// ExtractionLf
// ---------------------------------------------------------------------------

/// Agreement semantics for [`ExtractionLf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionPolicy {
    /// Disagree → −1, agree → abstain (the paper's `size_unmatch`).
    UnmatchOnly,
    /// Disagree → −1, agree → +1.
    Symmetric,
    /// Agree → +1, disagree → abstain.
    MatchOnly,
}

/// Extract a key value from both sides (via a closure, typically wrapping
/// `panda_text::extract`) and compare. Abstains when either side has no
/// extraction.
/// Extraction callback: concatenated attribute text → extracted key values.
type ExtractFn = Box<dyn Fn(&str) -> Vec<String> + Send + Sync>;

pub struct ExtractionLf {
    name: String,
    attrs: Vec<String>,
    extract: ExtractFn,
    policy: ExtractionPolicy,
}

impl ExtractionLf {
    /// Build an extraction LF over the given attributes (their texts are
    /// concatenated before extraction, like the paper's `size_unmatch`
    /// which scans name *and* description).
    pub fn new(
        name: impl Into<String>,
        attrs: &[&str],
        policy: ExtractionPolicy,
        extract: impl Fn(&str) -> Vec<String> + Send + Sync + 'static,
    ) -> Self {
        ExtractionLf {
            name: name.into(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            extract: Box::new(extract),
            policy,
        }
    }

    /// The paper's `size_unmatch`: extract sizes from name+description,
    /// vote −1 when they disagree.
    pub fn size_unmatch(attrs: &[&str]) -> Self {
        ExtractionLf::new(
            "size_unmatch",
            attrs,
            ExtractionPolicy::UnmatchOnly,
            |text| {
                panda_text::extract::sizes(text)
                    .into_iter()
                    .map(|s| format!("{s}"))
                    .collect()
            },
        )
    }

    fn gather(&self, rec: &panda_table::Record<'_>) -> Vec<String> {
        let text: Vec<String> = self.attrs.iter().map(|a| rec.text(a)).collect();
        (self.extract)(&text.join(" "))
    }

    /// The vote for two sides' extracted keys.
    fn decide(&self, a: &[String], b: &[String]) -> Label {
        if a.is_empty() || b.is_empty() {
            return Label::Abstain;
        }
        let agree = a.iter().any(|x| b.contains(x));
        match (agree, self.policy) {
            (true, ExtractionPolicy::UnmatchOnly) => Label::Abstain,
            (true, _) => Label::Match,
            (false, ExtractionPolicy::MatchOnly) => Label::Abstain,
            (false, _) => Label::NonMatch,
        }
    }
}

impl LabelingFunction for ExtractionLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, pair: &PairRef<'_>) -> Label {
        self.decide(&self.gather(&pair.left), &self.gather(&pair.right))
    }

    /// Run the extractor once per referenced record (extractors are
    /// assumed pure: the same text always extracts the same keys), then
    /// compare the stored extractions per pair.
    fn prepare<'a>(&'a self, tables: &'a TablePair, candidates: &CandidateSet) -> PairVoter<'a> {
        let [left, right] = per_referenced_record(tables, candidates, |_, rec| self.gather(&rec));
        fn keys(side: &[Option<Vec<String>>], i: usize) -> Option<&[String]> {
            side.get(i)?.as_deref()
        }
        PairVoter::prepared(move |pair| {
            match (keys(&left, pair.left.idx()), keys(&right, pair.right.idx())) {
                (Some(a), Some(b)) => self.decide(a, b),
                _ => Label::Abstain,
            }
        })
    }

    fn description(&self) -> String {
        format!("extract over [{}], {:?}", self.attrs.join(","), self.policy)
    }
}

// ---------------------------------------------------------------------------
// AttributeEqualityLf
// ---------------------------------------------------------------------------

/// Exact (case/whitespace-normalised) equality on one attribute.
#[derive(Debug, Clone)]
pub struct AttributeEqualityLf {
    name: String,
    attr: String,
    /// Vote −1 on inequality (otherwise abstain on inequality).
    pub unmatch_on_differ: bool,
}

impl AttributeEqualityLf {
    /// Equality LF on `attr`.
    pub fn new(name: impl Into<String>, attr: impl Into<String>, unmatch_on_differ: bool) -> Self {
        AttributeEqualityLf {
            name: name.into(),
            attr: attr.into(),
            unmatch_on_differ,
        }
    }

    fn norm(s: &str) -> String {
        s.split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .to_lowercase()
    }
}

impl LabelingFunction for AttributeEqualityLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, pair: &PairRef<'_>) -> Label {
        let l = pair.left.get(&self.attr);
        let r = pair.right.get(&self.attr);
        if l.is_missing() || r.is_missing() {
            return Label::Abstain;
        }
        if Self::norm(&l.to_text()) == Self::norm(&r.to_text()) {
            Label::Match
        } else if self.unmatch_on_differ {
            Label::NonMatch
        } else {
            Label::Abstain
        }
    }

    fn description(&self) -> String {
        format!(
            "{} equal => +1{}",
            self.attr,
            if self.unmatch_on_differ {
                "; differ => -1"
            } else {
                ""
            }
        )
    }
}

// ---------------------------------------------------------------------------
// NumericToleranceLf
// ---------------------------------------------------------------------------

/// Numeric attribute within a relative tolerance → +1; far apart → −1;
/// in between (or missing) → abstain.
#[derive(Debug, Clone)]
pub struct NumericToleranceLf {
    name: String,
    attr: String,
    /// Relative difference below which the LF votes +1.
    pub match_tol: f64,
    /// Relative difference above which the LF votes −1.
    pub unmatch_tol: f64,
}

impl NumericToleranceLf {
    /// Build a numeric-tolerance LF; `match_tol ≤ unmatch_tol`.
    pub fn new(
        name: impl Into<String>,
        attr: impl Into<String>,
        match_tol: f64,
        unmatch_tol: f64,
    ) -> Self {
        assert!(match_tol <= unmatch_tol, "match_tol must be ≤ unmatch_tol");
        NumericToleranceLf {
            name: name.into(),
            attr: attr.into(),
            match_tol,
            unmatch_tol,
        }
    }
}

impl LabelingFunction for NumericToleranceLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, pair: &PairRef<'_>) -> Label {
        let Some((a, b)) = pair.numbers(&self.attr) else {
            return Label::Abstain;
        };
        let denom = a.abs().max(b.abs());
        if denom == 0.0 {
            return Label::Match; // both zero
        }
        let rel = (a - b).abs() / denom;
        if rel <= self.match_tol {
            Label::Match
        } else if rel > self.unmatch_tol {
            Label::NonMatch
        } else {
            Label::Abstain
        }
    }

    fn description(&self) -> String {
        format!(
            "|Δ{}|/max ≤ {:.2} => +1; > {:.2} => -1",
            self.attr, self.match_tol, self.unmatch_tol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::{CandidatePair, Schema, Table, TablePair};

    fn task() -> TablePair {
        let schema = Schema::of_text(&["name", "description", "price", "phone"]);
        let mut left = Table::new("l", schema.clone());
        left.push(vec![
            "Sony Bravia 40' LCD TV",
            "great 40 inch tv",
            "499",
            "555-1234",
        ])
        .unwrap();
        left.push(vec!["LG washer", "", "799", ""]).unwrap();
        let mut right = Table::new("r", schema);
        right
            .push(vec![
                "sony bravia 40in lcd tv",
                "hdmi 1080p",
                "489",
                "555-1234",
            ])
            .unwrap();
        right
            .push(vec![
                "Samsung 46' LED TV",
                "46 inch panel",
                "899",
                "555-9999",
            ])
            .unwrap();
        TablePair::new(left, right)
    }

    fn pair(tp: &TablePair, l: u32, r: u32) -> PairRef<'_> {
        tp.pair_ref(CandidatePair::new(l, r)).unwrap()
    }

    #[test]
    fn name_overlap_like_the_paper() {
        // Figure 2 left: jaccard on "name", > 0.6 → +1, < 0.1 → −1.
        let tp = task();
        let lf = SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        );
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match);
        assert_eq!(lf.label(&pair(&tp, 1, 1)), Label::NonMatch);
        assert!(lf.description().contains("name"));
    }

    #[test]
    fn similarity_lf_abstains_on_missing() {
        let tp = task();
        let lf = SimilarityLf::new(
            "desc_overlap",
            "description",
            SimilarityConfig::default_jaccard(),
            0.5,
            0.05,
        );
        // Left row 1 has empty description.
        assert_eq!(lf.label(&pair(&tp, 1, 0)), Label::Abstain);
    }

    #[test]
    fn size_unmatch_like_the_paper() {
        // Figure 2 right: different extracted sizes → −1, else abstain.
        let tp = task();
        let lf = ExtractionLf::size_unmatch(&["name", "description"]);
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::NonMatch, "40 vs 46");
        assert_eq!(
            lf.label(&pair(&tp, 0, 0)),
            Label::Abstain,
            "40 agrees → abstain"
        );
        assert_eq!(
            lf.label(&pair(&tp, 1, 0)),
            Label::Abstain,
            "no size on left"
        );
    }

    #[test]
    fn extraction_symmetric_policy_votes_both_ways() {
        let tp = task();
        let lf = ExtractionLf::new(
            "size_sym",
            &["name", "description"],
            ExtractionPolicy::Symmetric,
            |t| {
                panda_text::extract::sizes(t)
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            },
        );
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match);
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::NonMatch);
    }

    #[test]
    fn attribute_equality_on_phone() {
        let tp = task();
        let lf = AttributeEqualityLf::new("phone_eq", "phone", true);
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match);
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::NonMatch);
        // Missing phone abstains even with unmatch_on_differ.
        assert_eq!(lf.label(&pair(&tp, 1, 0)), Label::Abstain);
    }

    #[test]
    fn numeric_tolerance_on_price() {
        let tp = task();
        let lf = NumericToleranceLf::new("price_close", "price", 0.05, 0.5);
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Match); // 499 vs 489
        assert_eq!(lf.label(&pair(&tp, 0, 1)), Label::Abstain); // 499 vs 899 (~45%)
        let strict = NumericToleranceLf::new("price_strict", "price", 0.05, 0.3);
        assert_eq!(strict.label(&pair(&tp, 0, 1)), Label::NonMatch);
    }

    #[test]
    #[should_panic(expected = "match_tol")]
    fn numeric_tolerance_validates_bounds() {
        NumericToleranceLf::new("bad", "price", 0.5, 0.1);
    }

    #[test]
    fn closure_lf_runs() {
        let tp = task();
        let lf =
            ClosureLf::new("always_abstain", |_| Label::Abstain).with_description("does nothing");
        assert_eq!(lf.label(&pair(&tp, 0, 0)), Label::Abstain);
        assert_eq!(lf.description(), "does nothing");
    }

    #[test]
    fn threshold_update_changes_votes() {
        // The demo's Step 4: tightening the threshold flips borderline
        // pairs from +1 to abstain.
        let tp = task();
        let loose = SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.4,
            0.1,
        );
        let tight = loose.clone().with_thresholds(0.95, 0.1);
        let p = pair(&tp, 0, 0);
        assert_eq!(loose.label(&p), Label::Match);
        assert_eq!(tight.label(&p), Label::Abstain);
    }
}

/// The prepared voters against per-pair `label`, pair by pair.
#[cfg(test)]
mod prepared_equivalence {
    use super::*;
    use crate::{LabelMatrix, LfRegistry};
    use panda_table::{CandidatePair, Schema, Table, Value};
    use panda_text::{Measure, Preprocess, Tokenizer, Weighting};
    use proptest::prelude::*;

    /// Cells of every kind a column can hold, including the ones that
    /// must abstain (null, empty, whitespace-only) and non-text values.
    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Text(String::new())),
            Just(Value::Text("  \t ".to_string())),
            (0i64..60).prop_map(Value::Int),
            (0u32..400).prop_map(|x| Value::Float(f64::from(x) / 8.0)),
            "[a-cé ]{1,10}".prop_map(Value::Text),
            prop::sample::select(vec![
                "Sony Bravia 40' LCD TV",
                "sony bravia 40in lcd tv",
                "LG 55 inch OLED, black",
                "Connecting connected connects",
            ])
            .prop_map(|s| Value::Text(s.to_string())),
        ]
    }

    /// Two small tables over `(name, title)` and every pair between them,
    /// plus one pair whose right record does not exist.
    fn task(left: Vec<(Value, Value)>, right: Vec<(Value, Value)>) -> (TablePair, CandidateSet) {
        let table = |name: &str, rows: Vec<(Value, Value)>| {
            let mut t = Table::new(name, Schema::of_text(&["name", "title"]));
            for (a, b) in rows {
                t.push_row(vec![a, b]).unwrap();
            }
            t
        };
        let (nl, nr) = (left.len() as u32, right.len() as u32);
        let tables = TablePair::new(table("l", left), table("r", right));
        let mut pairs: Vec<CandidatePair> = (0..nl)
            .flat_map(|l| (0..nr).map(move |r| CandidatePair::new(l, r)))
            .collect();
        pairs.push(CandidatePair::new(0, nr + 3));
        (tables, CandidateSet::from_pairs(pairs))
    }

    fn assert_voter_matches_label(
        lf: &dyn LabelingFunction,
        tables: &TablePair,
        cands: &CandidateSet,
    ) -> Result<(), TestCaseError> {
        let voter = lf.prepare(tables, cands);
        prop_assert!(voter.is_prepared(), "{} took the fallback", lf.name());
        for &pair in cands.pairs() {
            let expected = tables
                .pair_ref(pair)
                .map_or(Label::Abstain, |p| lf.label(&p));
            // No shrinking (fixed seed, 0x70616e6461): print the cells.
            prop_assert_eq!(
                voter.vote(pair),
                expected,
                "{} on {:?}: {:?}",
                lf.description(),
                pair,
                tables
                    .pair_ref(pair)
                    .map(|p| (p.left.values(), p.right.values()))
            );
        }
        Ok(())
    }

    fn corpus(tables: &TablePair, tokenizer: Tokenizer) -> Arc<CorpusStats> {
        let mut stats = CorpusStats::new();
        for table in [&tables.left, &tables.right] {
            for rec in table.records() {
                stats.add_document(&tokenizer.tokens(&rec.text("name").to_lowercase()));
            }
        }
        Arc::new(stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every measure × tokenizer × weighting, with and without a
        /// TF-IDF corpus, on one attribute or across two, under ordinary,
        /// inverted and NaN thresholds.
        #[test]
        fn similarity_voter_equals_label(
            left in prop::collection::vec((cell(), cell()), 1..6),
            right in prop::collection::vec((cell(), cell()), 1..6),
        ) {
            let (tables, cands) = task(left, right);
            let measures = [
                Measure::Jaccard,
                Measure::Cosine,
                Measure::Dice,
                Measure::Overlap,
                Measure::Levenshtein,
                Measure::JaroWinkler,
                Measure::MongeElkan,
            ];
            let thresholds = [(0.5, 0.2), (0.2, 0.5), (f64::NAN, 0.3), (0.6, f64::NAN)];
            for measure in measures {
                for tokenizer in [Tokenizer::Whitespace, Tokenizer::QGram(3)] {
                    let stats = corpus(&tables, tokenizer);
                    for weighting in [Weighting::Uniform, Weighting::Tf, Weighting::TfIdf] {
                        let config = SimilarityConfig {
                            preprocess: vec![
                                Preprocess::Lowercase,
                                Preprocess::StripPunctuation,
                                Preprocess::Stem,
                                Preprocess::NormalizeWhitespace,
                            ],
                            tokenizer,
                            weighting,
                            measure,
                        };
                        for (upper, lower) in thresholds {
                            let same = SimilarityLf::new("sim", "name", config.clone(), upper, lower);
                            let across = same.clone().with_attrs("name", "title");
                            for lf in [same.clone(), same.with_corpus(stats.clone()), across] {
                                assert_voter_matches_label(&lf, &tables, &cands)?;
                            }
                        }
                    }
                }
            }
        }

        /// Extraction LFs under all three policies.
        #[test]
        fn extraction_voter_equals_label(
            left in prop::collection::vec((cell(), cell()), 1..6),
            right in prop::collection::vec((cell(), cell()), 1..6),
        ) {
            let (tables, cands) = task(left, right);
            for policy in [
                ExtractionPolicy::UnmatchOnly,
                ExtractionPolicy::Symmetric,
                ExtractionPolicy::MatchOnly,
            ] {
                let lf = ExtractionLf::new("digits", &["name", "title"], policy, |t| {
                    t.split(|c: char| !c.is_ascii_digit())
                        .filter(|w| !w.is_empty())
                        .map(str::to_string)
                        .collect()
                });
                assert_voter_matches_label(&lf, &tables, &cands)?;
                let sizes = ExtractionLf::size_unmatch(&["name"]);
                assert_voter_matches_label(&sizes, &tables, &cands)?;
            }
        }
    }

    fn poison_lf() -> ExtractionLf {
        ExtractionLf::new("poisoned", &["name"], ExtractionPolicy::Symmetric, |t| {
            assert!(!t.contains("poison"), "extractor hit a poison record");
            vec![t.to_string()]
        })
    }

    fn poison_task(poison_in_a_pair: bool) -> (TablePair, CandidateSet) {
        let text = |s: &str| (Value::Text(s.to_string()), Value::Null);
        let (tables, _) = task(
            vec![text("tv"), text("radio"), text("poison")],
            vec![text("tv"), text("radio")],
        );
        let mut pairs = vec![
            CandidatePair::new(0, 0),
            CandidatePair::new(0, 1),
            CandidatePair::new(1, 1),
        ];
        if poison_in_a_pair {
            pairs.push(CandidatePair::new(2, 0));
        }
        (tables, CandidateSet::from_pairs(pairs))
    }

    /// Only referenced records are prepared: an extractor that panics on
    /// a record outside every candidate pair does not quarantine the LF.
    #[test]
    fn unreferenced_poison_record_does_not_quarantine() {
        let (tables, cands) = poison_task(false);
        let mut reg = LfRegistry::new();
        reg.upsert(Arc::new(poison_lf()));
        let mut matrix = LabelMatrix::new();
        let report = matrix.apply(&reg, &tables, &cands);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert_eq!(matrix.column("poisoned").unwrap(), &[1, -1, 1]);
    }

    /// A referenced poison record still quarantines, with the same
    /// message per-pair labeling gives.
    #[test]
    fn referenced_poison_record_quarantines_like_label() {
        let (tables, cands) = poison_task(true);
        let lf = Arc::new(poison_lf());
        let per_pair = lf.clone();
        let mut reg = LfRegistry::new();
        reg.upsert(lf);
        reg.upsert(Arc::new(ClosureLf::new("per_pair", move |p| {
            per_pair.label(p)
        })));
        let report = LabelMatrix::new().apply(&reg, &tables, &cands);
        assert_eq!(report.failed.len(), 2);
        assert_eq!(report.failed[0].1, report.failed[1].1);
        assert!(report.failed[0].1.contains("poison record"));
    }
}
