//! Pre-built matchers for common entity types.
//!
//! The paper (§2.1, feature 1.2) plans to "expand the utility functions by
//! including pre-trained matchers for specific entity types (e.g., People,
//! Organization, Address, etc) \[15\], so that users can directly invoke
//! pre-trained matchers relevant to their EM task in their LFs". The
//! original intends transfer-learned models (Auto-EM); offline we provide
//! the deterministic equivalents: domain-aware comparison logic with the
//! normalisation conventions each entity type needs. Each constructor
//! returns a ready-to-register LF tagged [`LfProvenance::Builtin`].

use crate::builders::ClosureLf;
use crate::lf::{LabelingFunction, LfProvenance};
use crate::{BoxedLf, Label};
use std::sync::Arc;

/// Wrap a closure LF and tag it as a built-in matcher.
struct Builtin(ClosureLf);

impl LabelingFunction for Builtin {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn label(&self, pair: &panda_table::PairRef<'_>) -> Label {
        self.0.label(pair)
    }
    fn description(&self) -> String {
        self.0.description()
    }
    fn provenance(&self) -> LfProvenance {
        LfProvenance::Builtin
    }
}

// ---------------------------------------------------------------------------
// People
// ---------------------------------------------------------------------------

/// One parsed person name: `(first-ish, last)`.
fn parse_person(token_group: &str) -> Option<(String, String)> {
    let cleaned = token_group.trim().trim_end_matches('.').to_lowercase();
    let parts: Vec<&str> = cleaned
        .split(|c: char| c.is_whitespace() || c == '.')
        .filter(|t| !t.is_empty())
        .collect();
    match parts.as_slice() {
        [] => None,
        [last] => Some((String::new(), (*last).to_string())),
        [first, .., last] => Some(((*first).to_string(), (*last).to_string())),
    }
}

/// Parse a comma/`and`/`;`-separated author/person list.
pub fn parse_person_list(text: &str) -> Vec<(String, String)> {
    text.replace(" and ", ",")
        .split([',', ';', '&'])
        .filter_map(parse_person)
        .collect()
}

/// Are two person names compatible? Last names must match exactly; first
/// names must match exactly or one must be the other's initial
/// (`"james" ~ "j"`).
pub fn persons_compatible(a: &(String, String), b: &(String, String)) -> bool {
    if a.1 != b.1 {
        return false;
    }
    if a.0.is_empty() || b.0.is_empty() || a.0 == b.0 {
        return true;
    }
    let (short, long) = if a.0.len() <= b.0.len() {
        (&a.0, &b.0)
    } else {
        (&b.0, &a.0)
    };
    short.len() == 1 && long.starts_with(short.as_str())
}

/// People matcher over a name-list attribute (e.g. bibliographic
/// `authors`): +1 when every person on the shorter list has a compatible
/// person on the other side, −1 when fewer than half do, abstain between
/// or when either side is empty.
pub fn people_matcher(name: impl Into<String>, attr: &str) -> BoxedLf {
    let attr = attr.to_string();
    let desc = format!("builtin people matcher on {attr}");
    Arc::new(Builtin(
        ClosureLf::new(name, move |pair| {
            let a = parse_person_list(&pair.left.text(&attr));
            let b = parse_person_list(&pair.right.text(&attr));
            if a.is_empty() || b.is_empty() {
                return Label::Abstain;
            }
            let (short, long) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            let matched = short
                .iter()
                .filter(|p| long.iter().any(|q| persons_compatible(p, q)))
                .count();
            let frac = matched as f64 / short.len() as f64;
            if frac >= 1.0 {
                Label::Match
            } else if frac < 0.5 {
                Label::NonMatch
            } else {
                Label::Abstain
            }
        })
        .with_description(desc),
    ))
}

// ---------------------------------------------------------------------------
// Phone numbers
// ---------------------------------------------------------------------------

/// Canonicalise a phone number: digits only, leading `1` country code
/// stripped from 11-digit numbers.
pub fn normalize_phone(text: &str) -> Option<String> {
    let digits: String = text.chars().filter(char::is_ascii_digit).collect();
    match digits.len() {
        0..=6 => None,
        11 if digits.starts_with('1') => Some(digits[1..].to_string()),
        _ => Some(digits),
    }
}

/// Phone matcher: normalised numbers equal → +1, different → −1, either
/// side unparseable → abstain. Phone equality is close to an identity key,
/// which is why this is such a strong LF on restaurant data.
pub fn phone_matcher(name: impl Into<String>, attr: &str) -> BoxedLf {
    let attr = attr.to_string();
    let desc = format!("builtin phone matcher on {attr}");
    Arc::new(Builtin(
        ClosureLf::new(name, move |pair| {
            match (
                normalize_phone(&pair.left.text(&attr)),
                normalize_phone(&pair.right.text(&attr)),
            ) {
                (Some(a), Some(b)) => Label::from_bool(a == b),
                _ => Label::Abstain,
            }
        })
        .with_description(desc),
    ))
}

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

/// Street-suffix synonym normalisation.
fn normalize_street_token(tok: &str) -> String {
    match tok {
        "street" | "str" => "st".into(),
        "avenue" | "av" => "ave".into(),
        "road" => "rd".into(),
        "boulevard" | "blv" => "blvd".into(),
        "drive" | "dr." => "dr".into(),
        "lane" => "ln".into(),
        "1st" => "first".into(),
        "2nd" => "second".into(),
        "3rd" => "third".into(),
        other => other.to_string(),
    }
}

/// Parse an address into `(street number, normalised street tokens)`.
pub fn parse_address(text: &str) -> (Option<u64>, Vec<String>) {
    let lower = text.to_lowercase();
    let mut number = None;
    let mut tokens = Vec::new();
    for raw in lower.split(|c: char| !c.is_alphanumeric()) {
        if raw.is_empty() {
            continue;
        }
        if number.is_none() {
            if let Ok(n) = raw.parse::<u64>() {
                number = Some(n);
                continue;
            }
        }
        tokens.push(normalize_street_token(raw));
    }
    (number, tokens)
}

/// Address matcher: street numbers must agree (strong signal) and street
/// tokens must overlap; disagreeing numbers vote −1.
pub fn address_matcher(name: impl Into<String>, attr: &str) -> BoxedLf {
    let attr = attr.to_string();
    let desc = format!("builtin address matcher on {attr}");
    Arc::new(Builtin(
        ClosureLf::new(name, move |pair| {
            let (na, ta) = parse_address(&pair.left.text(&attr));
            let (nb, tb) = parse_address(&pair.right.text(&attr));
            match (na, nb) {
                (Some(x), Some(y)) if x != y => Label::NonMatch,
                (Some(_), Some(_)) => {
                    if ta.is_empty() || tb.is_empty() {
                        return Label::Abstain;
                    }
                    let overlap = ta.iter().filter(|t| tb.contains(t)).count();
                    if overlap * 2 >= ta.len().min(tb.len()) {
                        Label::Match
                    } else {
                        Label::Abstain
                    }
                }
                _ => Label::Abstain,
            }
        })
        .with_description(desc),
    ))
}

// ---------------------------------------------------------------------------
// Organizations
// ---------------------------------------------------------------------------

/// Legal-suffix tokens that don't identify an organisation.
const ORG_NOISE: &[&str] = &[
    "inc",
    "incorporated",
    "corp",
    "corporation",
    "ltd",
    "limited",
    "llc",
    "co",
    "company",
    "the",
    "group",
    "holdings",
];

/// Normalise an organisation name to its identifying tokens.
pub fn normalize_org(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && !ORG_NOISE.contains(t))
        .map(str::to_string)
        .collect()
}

/// Organisation matcher: identifying tokens equal as sets → +1, disjoint
/// → −1, partial overlap → abstain.
pub fn organization_matcher(name: impl Into<String>, attr: &str) -> BoxedLf {
    let attr = attr.to_string();
    let desc = format!("builtin organization matcher on {attr}");
    Arc::new(Builtin(
        ClosureLf::new(name, move |pair| {
            let mut a = normalize_org(&pair.left.text(&attr));
            let mut b = normalize_org(&pair.right.text(&attr));
            if a.is_empty() || b.is_empty() {
                return Label::Abstain;
            }
            a.sort();
            a.dedup();
            b.sort();
            b.dedup();
            if a == b {
                Label::Match
            } else if a.iter().all(|t| !b.contains(t)) {
                Label::NonMatch
            } else {
                Label::Abstain
            }
        })
        .with_description(desc),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_table::{CandidatePair, Schema, Table, TablePair};

    fn pairize(left_vals: Vec<&str>, right_vals: Vec<&str>, cols: &[&str]) -> TablePair {
        let schema = Schema::of_text(cols);
        let mut l = Table::new("l", schema.clone());
        let mut r = Table::new("r", schema);
        l.push(left_vals).unwrap();
        r.push(right_vals).unwrap();
        TablePair::new(l, r)
    }

    fn label_of(lf: &BoxedLf, tp: &TablePair) -> Label {
        lf.label(&tp.pair_ref(CandidatePair::new(0, 0)).unwrap())
    }

    #[test]
    fn person_parsing_and_compat() {
        let people = parse_person_list("James Smith, W. Chen and Anna K. Mueller");
        assert_eq!(people.len(), 3);
        assert_eq!(people[0], ("james".into(), "smith".into()));
        assert_eq!(people[1], ("w".into(), "chen".into()));
        assert_eq!(people[2].1, "mueller");
        assert!(persons_compatible(
            &("james".into(), "smith".into()),
            &("j".into(), "smith".into())
        ));
        assert!(!persons_compatible(
            &("james".into(), "smith".into()),
            &("john".into(), "smith".into())
        ));
        assert!(!persons_compatible(
            &("james".into(), "smith".into()),
            &("james".into(), "smythe".into())
        ));
    }

    #[test]
    fn people_matcher_handles_abbreviations() {
        let lf = people_matcher("authors", "authors");
        let tp = pairize(
            vec!["James Smith, Wei Chen"],
            vec!["j. smith, w. chen"],
            &["authors"],
        );
        assert_eq!(label_of(&lf, &tp), Label::Match);
        let tp = pairize(vec!["James Smith"], vec!["Elena Garcia"], &["authors"]);
        assert_eq!(label_of(&lf, &tp), Label::NonMatch);
        let tp = pairize(vec![""], vec!["Elena Garcia"], &["authors"]);
        assert_eq!(label_of(&lf, &tp), Label::Abstain);
        assert_eq!(lf.provenance(), LfProvenance::Builtin);
    }

    #[test]
    fn phone_normalisation() {
        assert_eq!(normalize_phone("415-555-0199"), Some("4155550199".into()));
        assert_eq!(
            normalize_phone("1 (415) 555.0199"),
            Some("4155550199".into())
        );
        assert_eq!(normalize_phone("x123"), None);
    }

    #[test]
    fn phone_matcher_votes() {
        let lf = phone_matcher("phone_eq", "phone");
        let tp = pairize(vec!["415-555-0199"], vec!["(415) 555 0199"], &["phone"]);
        assert_eq!(label_of(&lf, &tp), Label::Match);
        let tp = pairize(vec!["415-555-0199"], vec!["415-555-0100"], &["phone"]);
        assert_eq!(label_of(&lf, &tp), Label::NonMatch);
        let tp = pairize(vec![""], vec!["415-555-0100"], &["phone"]);
        assert_eq!(label_of(&lf, &tp), Label::Abstain);
    }

    #[test]
    fn address_parsing_normalises_suffixes() {
        let (n, toks) = parse_address("123 Main Street");
        assert_eq!(n, Some(123));
        assert_eq!(toks, vec!["main", "st"]);
    }

    #[test]
    fn address_matcher_votes() {
        let lf = address_matcher("addr", "addr");
        let tp = pairize(vec!["123 Main Street"], vec!["123 main st."], &["addr"]);
        assert_eq!(label_of(&lf, &tp), Label::Match);
        let tp = pairize(vec!["123 Main St"], vec!["99 Main St"], &["addr"]);
        assert_eq!(label_of(&lf, &tp), Label::NonMatch);
        let tp = pairize(vec!["Main St"], vec!["123 Main St"], &["addr"]);
        assert_eq!(label_of(&lf, &tp), Label::Abstain);
    }

    #[test]
    fn organization_matcher_strips_legal_suffixes() {
        let lf = organization_matcher("org", "org");
        let tp = pairize(vec!["Acme Corp."], vec!["The ACME Inc"], &["org"]);
        assert_eq!(label_of(&lf, &tp), Label::Match);
        let tp = pairize(vec!["Acme Corp"], vec!["Globex LLC"], &["org"]);
        assert_eq!(label_of(&lf, &tp), Label::NonMatch);
        let tp = pairize(vec!["Acme Widgets"], vec!["Acme Gadgets"], &["org"]);
        assert_eq!(label_of(&lf, &tp), Label::Abstain);
    }
}
