//! The Table I tokenizer: vendor label → generic categories.

use std::collections::HashMap;
use std::hash::Hash;

use crate::category::DomainCategory;

/// Table I as the token lists its patterns alternate, one row per
/// generic category in table row order. A label matches a row when,
/// lowercased, it contains one of the row's tokens, or one of its
/// whole-word tokens with no `a`–`z` byte on either side. The short
/// tokens that would over-match as bare substrings (`im` in
/// `animation`, `text` in `context`, `file` in `profile`, `bot` in
/// `robot`, and `tv`) are the whole-word ones.
#[rustfmt::skip]
const TABLE1: [(DomainCategory, &[&str], &[&str]); 16] = [
    (DomainCategory::Adult, &[
        "adult", "sex", "obscene", "personals", "dating", "porn", "violence", "lingerie",
        "marijuana", "alcohol", "gambling",
    ], &[]),
    (DomainCategory::Advertisements, &["ads", "advert", "marketing", "exposure"], &[]),
    (DomainCategory::Analytics, &["analytics"], &[]),
    (DomainCategory::BusinessAndFinance, &[
        "busines", "financ", "shop", "bank", "trading", "estate", "auctions", "professional",
    ], &[]),
    (DomainCategory::Cdn, &["proxy", "dns", "content", "delivery"], &[]),
    (DomainCategory::Communication, &[
        "chat", "mail", "radio", "forum", "telephony", "portal",
    ], &["im", "text", "tv", "file"]),
    (DomainCategory::Education, &["education", "reference"], &[]),
    (DomainCategory::Entertainment, &[
        "entertainment", "sport", "videos", "streaming", "pay-to-surf",
    ], &[]),
    (DomainCategory::Games, &["game"], &[]),
    (DomainCategory::Health, &["health", "medication", "nutrition"], &[]),
    (DomainCategory::InfoTech, &[
        "information", "technology", "computersandsoftware", "dynamic content",
    ], &[]),
    (DomainCategory::InternetServices, &[
        "hosting", "url-shortening", "search", "download", "collaboration", "parked", "online",
        "infrastructure", "storage", "security", "surveillance", "government",
    ], &[]),
    (DomainCategory::Lifestyle, &[
        "blog", "hobbies", "lifestyle", "travel", "cultur", "religi", "politic", "restaurant",
        "vehicles", "philanthropic", "event", "advice",
    ], &[]),
    (DomainCategory::Malicious, &[
        "malicious", "infected", "not recommended", "illegal", "hack", "compromised",
        "suspicious content",
    ], &["bot"]),
    (DomainCategory::News, &["news", "tabloids", "journals"], &[]),
    (DomainCategory::SocialNetworks, &["social"], &[]),
];

/// The Table I tokenizer + majority-vote classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// The Table I tokenizer.
    pub fn new() -> Self {
        Tokenizer
    }

    /// Tokenizes one raw vendor label into all matching generic
    /// categories, in Table I order. Matching is case-insensitive (the
    /// label is lowercased first). An empty result means the label only
    /// fits `unknown`.
    pub fn tokenize(&self, raw_label: &str) -> Vec<DomainCategory> {
        let tokens = tokens(raw_label);
        TABLE1
            .iter()
            .enumerate()
            .filter(|&(row, _)| tokens >> row & 1 == 1)
            .map(|(_, &(category, ..))| category)
            .collect()
    }

    /// Classifies a domain from its full set of vendor labels: tokenize
    /// every label, then majority-vote across all produced generic
    /// categories (ties broken by Table I order; no tokens at all →
    /// [`DomainCategory::Unknown`]).
    pub fn classify<S: AsRef<str>>(&self, vendor_labels: &[S]) -> DomainCategory {
        vote(vendor_labels.iter().map(|label| tokens(label.as_ref())))
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
                    *seen.entry(label).or_insert_with(|| tokens(label))
                }));
                (domain, category)
            })
            .collect()
    }
}

/// The Table I rows one label matches: bit `i` stands for `TABLE1[i]`.
type Tokens = u16;

/// [`Tokenizer::tokenize`] as a [`Tokens`] set.
fn tokens(raw_label: &str) -> Tokens {
    let label = raw_label.to_lowercase();
    TABLE1
        .iter()
        .enumerate()
        .filter(|(_, (_, tokens, words))| {
            tokens.iter().any(|token| label.contains(token))
                || words.iter().any(|word| has_word(&label, word))
        })
        .fold(0, |matched, (row, _)| matched | 1 << row)
}

/// `true` when `word` occurs in `label` with no `a`–`z` byte next to it.
/// A multi-byte character next to it has no ASCII byte, so it is not a
/// letter here, as `[^a-z]` reads it. Two occurrences of a word that
/// overlap touch each other's letters, so the non-overlapping
/// occurrences are all the candidates.
fn has_word(label: &str, word: &str) -> bool {
    let letter = |i: usize| label.as_bytes().get(i).is_some_and(u8::is_ascii_lowercase);
    label
        .match_indices(word)
        .any(|(at, _)| !at.checked_sub(1).is_some_and(letter) && !letter(at + word.len()))
}

/// The majority vote over the tokens of a domain's labels: the category
/// named by most labels, ties broken by Table I order, and
/// [`DomainCategory::Unknown`] when no label produced a token.
fn vote(labels: impl Iterator<Item = Tokens>) -> DomainCategory {
    let mut votes = [0usize; TABLE1.len()];
    for tokens in labels {
        for (row, count) in votes.iter_mut().enumerate() {
            *count += usize::from(tokens >> row & 1);
        }
    }
    let (best_row, &best_votes) = votes
        .iter()
        .enumerate()
        .max_by_key(|&(row, &v)| (v, usize::MAX - row))
        .expect("votes is non-empty");
    if best_votes == 0 {
        DomainCategory::Unknown
    } else {
        TABLE1[best_row].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spector_regexlite::Regex;

    /// The Table I patterns, verbatim, as the regular expressions the
    /// tokenizer once ran: the reference the token table is held to.
    /// Short tokens that would over-match as bare substrings are
    /// word-bounded; everything else is the table's substring
    /// alternation.
    fn table1_patterns() -> [(DomainCategory, &'static str); 16] {
        [
            (
                DomainCategory::Adult,
                "adult|sex|obscene|personals|dating|porn|violence|lingerie|marijuana|alcohol|gambling",
            ),
            (DomainCategory::Advertisements, "ads|advert|marketing|exposure"),
            (DomainCategory::Analytics, "analytics"),
            (
                DomainCategory::BusinessAndFinance,
                "busines|financ|shop|bank|trading|estate|auctions|professional",
            ),
            (DomainCategory::Cdn, "proxy|dns|content|delivery"),
            (
                DomainCategory::Communication,
                "(^|[^a-z])im([^a-z]|$)|chat|mail|(^|[^a-z])text([^a-z]|$)|radio|(^|[^a-z])tv([^a-z]|$)|forum|telephony|portal|(^|[^a-z])file([^a-z]|$)",
            ),
            (DomainCategory::Education, "education|reference"),
            (
                DomainCategory::Entertainment,
                "entertainment|sport|videos|streaming|pay-to-surf",
            ),
            (DomainCategory::Games, "game"),
            (DomainCategory::Health, "health|medication|nutrition"),
            (
                DomainCategory::InfoTech,
                "information|technology|computersandsoftware|dynamic content",
            ),
            (
                DomainCategory::InternetServices,
                "hosting|url-shortening|search|download|collaboration|parked|online|infrastructure|storage|security|surveillance|government",
            ),
            (
                DomainCategory::Lifestyle,
                "blog|hobbies|lifestyle|travel|cultur|religi|politic|restaurant|vehicles|philanthropic|event|advice",
            ),
            (
                DomainCategory::Malicious,
                "malicious|infected|(^|[^a-z])bot([^a-z]|$)|not recommended|illegal|hack|compromised|suspicious content",
            ),
            (DomainCategory::News, "news|tabloids|journals"),
            (DomainCategory::SocialNetworks, "social"),
        ]
    }

    /// The bounds a reference pattern puts around a whole-word token.
    const WORD_START: &str = "(^|[^a-z])";
    const WORD_END: &str = "([^a-z]|$)";

    /// Every token the reference patterns alternate.
    fn reference_tokens() -> Vec<String> {
        table1_patterns()
            .iter()
            .flat_map(|(_, pattern)| {
                let plain = pattern.replace(WORD_START, "").replace(WORD_END, "");
                plain.split('|').map(str::to_owned).collect::<Vec<_>>()
            })
            .collect()
    }

    /// The reference patterns' whole-word tokens.
    fn reference_words() -> Vec<&'static str> {
        table1_patterns()
            .iter()
            .flat_map(|(_, pattern)| pattern.split(WORD_START).skip(1))
            .map(|rest| &rest[..rest.find(WORD_END).expect("bounded on both sides")])
            .collect()
    }

    /// Labels built from every token of either side; whole-word tokens
    /// with a letter glued on either side (`aim`, `context`, `robot`,
    /// `profile`), also before a free occurrence of the same word, and
    /// between multi-byte characters; separators, digits and `\n`; upper
    /// case (`İ` lowercases to two chars, `ß` uppercases to two); other
    /// multi-byte characters.
    fn label() -> impl Strategy<Value = String> {
        let word = prop::sample::select(reference_words());
        let letter = prop::sample::select(('a'..='z').collect::<Vec<_>>());
        let glued = (word.clone(), letter, 0..3u8).prop_map(|(word, c, side)| {
            let glued = match side {
                0 => format!("{c}{word}"),
                1 => format!("{word}{c}"),
                _ => format!("{c}{word}{c}"),
            };
            (glued, word)
        });
        let separator = prop::sample::select(vec![" ", "-", ".", "/", "_", ",", "0", "7", "\n"]);
        let wide = prop::sample::select(vec!["é", "ß", "İ", "ä", "Ω", "日", "\u{307}", "\u{212a}"]);
        // The token table's own tokens too, so a token only one side
        // holds shows.
        let table_tokens: Vec<&str> = TABLE1
            .iter()
            .flat_map(|(_, tokens, words)| tokens.iter().chain(words.iter()))
            .copied()
            .collect();
        let piece = prop_oneof![
            prop::sample::select(reference_tokens()),
            prop::sample::select(table_tokens).prop_map(str::to_owned),
            word.clone().prop_map(str::to_owned),
            glued.clone().prop_map(|(glued, _)| glued),
            // A glued occurrence before a free one of the same word.
            (glued, separator.clone())
                .prop_map(|((glued, word), sep)| format!("{glued}{sep}{word}")),
            (wide.clone(), word, wide.clone())
                .prop_map(|(left, word, right)| format!("{left}{word}{right}")),
            separator.prop_map(str::to_owned),
            wide.prop_map(str::to_owned),
            "[a-zA-Z]{1,3}",
        ];
        let cased =
            (piece, any::<bool>())
                .prop_map(|(piece, upper)| if upper { piece.to_uppercase() } else { piece });
        proptest::collection::vec(cased, 0..8).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn token_table_equals_the_table1_regexes(label in label()) {
            let lowered = label.to_lowercase();
            let expected: Vec<DomainCategory> = table1_patterns()
                .iter()
                .filter(|(_, pattern)| Regex::new(pattern).unwrap().is_match(&lowered))
                .map(|&(category, _)| category)
                .collect();
            prop_assert_eq!(Tokenizer::new().tokenize(&label), expected, "label {:?}", label);
        }
    }

    #[test]
    fn whole_word_tokens_are_lowercase_letters() {
        // `has_word` relies on it: overlapping occurrences then touch
        // each other's letters.
        for (_, _, words) in TABLE1 {
            for word in words {
                assert!(word.bytes().all(|b| b.is_ascii_lowercase()), "{word}");
            }
        }
    }

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
        // The token table has the same rows in the same order.
        let rows: Vec<_> = TABLE1.iter().map(|(c, ..)| *c).collect();
        assert_eq!(rows, patterns.map(|(c, _)| c));
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
