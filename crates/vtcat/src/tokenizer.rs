//! The Table I tokenizer: vendor label → generic categories.

use std::collections::HashMap;
use std::hash::Hash;

use spector_regexlite::{ParseError, RuleSet};

use crate::category::DomainCategory;

/// The Table I regular-expression patterns, one per generic category,
/// in table row order. Short tokens that would over-match as bare
/// substrings (`im`, `tv`, `bot`) are word-bounded; everything else is
/// the table's substring alternation verbatim.
pub fn table1_patterns() -> Vec<(DomainCategory, String)> {
    let word = |t: &str| format!("(^|[^a-z]){t}([^a-z]|$)");
    vec![
        (
            DomainCategory::Adult,
            "adult|sex|obscene|personals|dating|porn|violence|lingerie|marijuana|alcohol|gambling"
                .to_owned(),
        ),
        (
            DomainCategory::Advertisements,
            "ads|advert|marketing|exposure".to_owned(),
        ),
        (DomainCategory::Analytics, "analytics".to_owned()),
        (
            DomainCategory::BusinessAndFinance,
            "busines|financ|shop|bank|trading|estate|auctions|professional".to_owned(),
        ),
        (
            DomainCategory::Cdn,
            "proxy|dns|content|delivery".to_owned(),
        ),
        (
            DomainCategory::Communication,
            format!(
                "{}|chat|mail|{}|radio|{}|forum|telephony|portal|{}",
                word("im"),
                word("text"),
                word("tv"),
                word("file"),
            ),
        ),
        (
            DomainCategory::Education,
            "education|reference".to_owned(),
        ),
        (
            DomainCategory::Entertainment,
            "entertainment|sport|videos|streaming|pay-to-surf".to_owned(),
        ),
        (DomainCategory::Games, "game".to_owned()),
        (
            DomainCategory::Health,
            "health|medication|nutrition".to_owned(),
        ),
        (
            DomainCategory::InfoTech,
            "information|technology|computersandsoftware|dynamic content".to_owned(),
        ),
        (
            DomainCategory::InternetServices,
            "hosting|url-shortening|search|download|collaboration|parked|online|infrastructure|storage|security|surveillance|government"
                .to_owned(),
        ),
        (
            DomainCategory::Lifestyle,
            "blog|hobbies|lifestyle|travel|cultur|religi|politic|restaurant|vehicles|philanthropic|event|advice"
                .to_owned(),
        ),
        (
            DomainCategory::Malicious,
            format!(
                "malicious|infected|{}|not recommended|illegal|hack|compromised|suspicious content",
                word("bot"),
            ),
        ),
        (
            DomainCategory::News,
            "news|tabloids|journals".to_owned(),
        ),
        (DomainCategory::SocialNetworks, "social".to_owned()),
    ]
}

/// The compiled tokenizer + majority-vote classifier.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    rules: RuleSet,
    categories: Vec<DomainCategory>,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tokenizer {
    /// Compiles the Table I rule set.
    ///
    /// # Panics
    ///
    /// Never in practice — the built-in patterns are valid; kept
    /// non-fallible so call sites stay clean.
    pub fn new() -> Self {
        Self::try_new().expect("table 1 patterns are valid")
    }

    /// Fallible constructor exposed for completeness.
    ///
    /// # Errors
    ///
    /// Propagates pattern compilation failures.
    pub fn try_new() -> Result<Self, ParseError> {
        let patterns = table1_patterns();
        let rules = RuleSet::compile(
            &patterns
                .iter()
                .map(|(cat, p)| (cat.label(), p.as_str()))
                .collect::<Vec<_>>(),
        )?;
        Ok(Tokenizer {
            rules,
            categories: patterns.into_iter().map(|(c, _)| c).collect(),
        })
    }

    /// Tokenizes one raw vendor label into all matching generic
    /// categories, in Table I order. Matching is case-insensitive (the
    /// label is lowercased first). An empty result means the label only
    /// fits `unknown`.
    pub fn tokenize(&self, raw_label: &str) -> Vec<DomainCategory> {
        let tokens = self.tokens(raw_label);
        self.categories
            .iter()
            .copied()
            .filter(|&cat| tokens >> slot(cat) & 1 == 1)
            .collect()
    }

    /// [`tokenize`](Self::tokenize) as a [`Tokens`] set.
    fn tokens(&self, raw_label: &str) -> Tokens {
        let lowered = raw_label.to_lowercase();
        self.categories
            .iter()
            .zip(self.rules.iter())
            .filter(|(_, (_, re))| re.is_match(&lowered))
            .fold(0, |tokens, (&cat, _)| tokens | 1 << slot(cat))
    }

    /// Classifies a domain from its full set of vendor labels: tokenize
    /// every label, then majority-vote across all produced generic
    /// categories (ties broken by Table I order; no tokens at all →
    /// [`DomainCategory::Unknown`]).
    pub fn classify<S: AsRef<str>>(&self, vendor_labels: &[S]) -> DomainCategory {
        vote(
            vendor_labels
                .iter()
                .map(|label| self.tokens(label.as_ref())),
        )
    }

    /// [`classify`](Self::classify) over a whole domain table, keyed as
    /// given. Vendors repeat a few labels across most domains, so each
    /// distinct label is tokenized once, into a map that lives only for
    /// this call.
    pub fn classify_domains<'a, K, S>(
        &self,
        domains: impl IntoIterator<Item = (K, &'a [S])>,
    ) -> HashMap<K, DomainCategory>
    where
        K: Eq + Hash,
        S: AsRef<str> + 'a,
    {
        let mut seen: HashMap<&'a str, Tokens> = HashMap::new();
        domains
            .into_iter()
            .map(|(domain, labels)| {
                let category = vote(labels.iter().map(|label| {
                    let label = label.as_ref();
                    *seen.entry(label).or_insert_with(|| self.tokens(label))
                }));
                (domain, category)
            })
            .collect()
    }
}

/// The generic categories one label tokenized to: bit `i` stands for
/// `DomainCategory::ALL[i]`.
type Tokens = u32;

/// Index of `cat` in [`DomainCategory::ALL`].
fn slot(cat: DomainCategory) -> usize {
    DomainCategory::ALL
        .iter()
        .position(|&c| c == cat)
        .expect("category is in ALL")
}

/// The majority vote over the tokens of a domain's labels: the category
/// named by most labels, ties broken by Table I order, and
/// [`DomainCategory::Unknown`] when no label produced a token.
fn vote(labels: impl Iterator<Item = Tokens>) -> DomainCategory {
    let mut votes = [0usize; DomainCategory::ALL.len()];
    for tokens in labels {
        for (idx, count) in votes.iter_mut().enumerate() {
            *count += (tokens >> idx & 1) as usize;
        }
    }
    let (best_idx, &best_votes) = votes
        .iter()
        .enumerate()
        .max_by_key(|&(idx, &v)| (v, usize::MAX - idx))
        .expect("votes is non-empty");
    if best_votes == 0 {
        DomainCategory::Unknown
    } else {
        DomainCategory::ALL[best_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_paper_examples() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("Mobile Advertising"),
            vec![DomainCategory::Advertisements]
        );
        assert_eq!(t.tokenize("web analytics"), vec![DomainCategory::Analytics]);
        assert_eq!(
            t.tokenize("Content Delivery Network"),
            vec![DomainCategory::Cdn]
        );
        assert_eq!(
            t.tokenize("online games"),
            vec![DomainCategory::Games, DomainCategory::InternetServices,]
        );
        assert_eq!(t.tokenize("totally novel thing"), vec![]);
    }

    #[test]
    fn word_bounded_short_tokens() {
        let t = Tokenizer::new();
        // "im" must not fire inside other words.
        assert!(!t
            .tokenize("animation")
            .contains(&DomainCategory::Communication));
        assert!(!t
            .tokenize("streaming video")
            .contains(&DomainCategory::Communication));
        assert!(t
            .tokenize("IM and chat")
            .contains(&DomainCategory::Communication));
        // "bot" must not fire inside "robots".
        assert!(!t
            .tokenize("robots exclusion")
            .contains(&DomainCategory::Malicious));
        assert!(t
            .tokenize("bot network")
            .contains(&DomainCategory::Malicious));
    }

    #[test]
    fn case_insensitive() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("GAMBLING"), vec![DomainCategory::Adult]);
        assert_eq!(t.tokenize("News Outlets"), vec![DomainCategory::News]);
    }

    #[test]
    fn classify_majority_vote() {
        let t = Tokenizer::new();
        let labels = ["advertising network", "mobile ads", "marketing", "shopping"];
        assert_eq!(t.classify(&labels), DomainCategory::Advertisements);
    }

    #[test]
    fn classify_tie_breaks_by_table_order() {
        let t = Tokenizer::new();
        // One advertisement label, one games label: Advertisements comes
        // first in Table I.
        assert_eq!(
            t.classify(&["advert", "game"]),
            DomainCategory::Advertisements
        );
    }

    #[test]
    fn classify_unknown_when_no_tokens() {
        let t = Tokenizer::new();
        assert_eq!(t.classify(&["xyzzy", "plugh"]), DomainCategory::Unknown);
        assert_eq!(t.classify::<&str>(&[]), DomainCategory::Unknown);
    }

    #[test]
    fn one_pattern_per_non_unknown_category() {
        let patterns = table1_patterns();
        assert_eq!(patterns.len(), 16); // all but `unknown`
        let cats: std::collections::HashSet<_> = patterns.iter().map(|(c, _)| *c).collect();
        assert_eq!(cats.len(), 16);
        assert!(!cats.contains(&DomainCategory::Unknown));
    }

    #[test]
    fn each_category_has_a_self_matching_vocabulary_word() {
        // Every category must be reachable: at least one simple word
        // tokenizes to it (possibly among others).
        let t = Tokenizer::new();
        let probes = [
            (DomainCategory::Adult, "adult"),
            (DomainCategory::Advertisements, "advert"),
            (DomainCategory::Analytics, "analytics"),
            (DomainCategory::BusinessAndFinance, "banking"),
            (DomainCategory::Cdn, "delivery"),
            (DomainCategory::Communication, "chat"),
            (DomainCategory::Education, "education"),
            (DomainCategory::Entertainment, "streaming"),
            (DomainCategory::Games, "games"),
            (DomainCategory::Health, "health"),
            (DomainCategory::InfoTech, "technology"),
            (DomainCategory::InternetServices, "hosting"),
            (DomainCategory::Lifestyle, "travel"),
            (DomainCategory::Malicious, "malicious"),
            (DomainCategory::News, "news"),
            (DomainCategory::SocialNetworks, "social"),
        ];
        for (cat, word) in probes {
            assert!(
                t.tokenize(word).contains(&cat),
                "{word} must tokenize to {cat}"
            );
        }
    }
}
