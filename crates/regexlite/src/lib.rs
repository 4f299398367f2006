//! A minimal regular-expression engine: the reference Libspector's
//! string rules are tested against.
//!
//! The paper states two of its rules as regular expressions:
//!
//! 1. filtering Android built-in packages out of socket stack traces
//!    (footnote 2: `android.*`, `java.*`, `org.apache.http.*`, ...), and
//! 2. tokenizing VirusTotal-style domain category labels into the 17
//!    generic categories of Table I (`ads`, `advert`, `marketing`, ...).
//!
//! The product matches both as the literal lists they alternate (the
//! footnote 2 prefixes in `libspector::attribution`, the Table I token
//! table in `spector_vtcat`); their tests compile the paper's patterns
//! with this crate and hold the lists to them. No production crate
//! depends on it.
//!
//! The engine is a classic Thompson construction executed by a
//! Pike-style virtual machine. It is linear-time in
//! `pattern_len * input_len` and never backtracks.
//!
//! Supported syntax: literals, `.`, character classes `[a-z0-9_]` (with
//! negation `[^..]` and ranges), alternation `|`, grouping `(..)`,
//! repetition `*`, `+`, `?`, and anchors `^` / `$`. Escapes `\.` etc.
//! produce literal characters; `\d`, `\w`, `\s` expand to the usual
//! classes. Matching is over Unicode scalar values.
//!
//! # Examples
//!
//! ```
//! use spector_regexlite::Regex;
//!
//! # fn main() -> Result<(), spector_regexlite::ParseError> {
//! let builtin = Regex::new(r"^(android|java|javax|junit|dalvik)\.")?;
//! assert!(builtin.is_match("android.os.AsyncTask$2.call"));
//! assert!(!builtin.is_match("com.unity3d.ads.android.cache.b.a"));
//! # Ok(())
//! # }
//! ```

mod ast;
mod compile;
mod parse;
mod vm;

pub use ast::Ast;
pub use parse::ParseError;

use compile::Program;

/// A compiled regular expression.
///
/// `Regex` values are cheap to clone (the compiled program is reference
/// counted is not needed here — programs are small, so we store them
/// inline) and safe to share across threads.
///
/// # Examples
///
/// ```
/// use spector_regexlite::Regex;
///
/// # fn main() -> Result<(), spector_regexlite::ParseError> {
/// let re = Regex::new("ads|advert|marketing|exposure")?;
/// assert!(re.is_match("mobile advertising network"));
/// assert!(!re.is_match("weather"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

impl Regex {
    /// Compiles `pattern` into an executable regex.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] when the pattern is syntactically invalid
    /// (unbalanced parentheses, dangling repetition operators, an
    /// unterminated character class, or a trailing escape).
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let ast = parse::parse(pattern)?;
        let program = compile::compile(&ast);
        Ok(Regex {
            pattern: pattern.to_owned(),
            program,
        })
    }

    /// Returns the source pattern this regex was compiled from.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Returns `true` if the pattern matches anywhere in `input`.
    ///
    /// Unanchored by default: `^` and `$` in the pattern opt in to
    /// anchoring, mirroring the semantics of mainstream engines.
    pub fn is_match(&self, input: &str) -> bool {
        vm::search(&self.program, input).is_some()
    }

    /// Returns the byte range of the leftmost match, if any.
    ///
    /// The end of the range is the *longest* match starting at the
    /// leftmost matching position (leftmost-longest semantics, like POSIX
    /// engines), which keeps tokenization rules deterministic.
    pub fn find(&self, input: &str) -> Option<(usize, usize)> {
        vm::search(&self.program, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).expect("pattern must compile")
    }

    #[test]
    fn literal_match() {
        let r = re("abc");
        assert!(r.is_match("abc"));
        assert!(r.is_match("xxabcxx"));
        assert!(!r.is_match("ab"));
        assert!(!r.is_match("acb"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let r = re("");
        assert!(r.is_match(""));
        assert!(r.is_match("anything"));
        assert_eq!(r.find("abc"), Some((0, 0)));
    }

    #[test]
    fn dot_matches_any_char() {
        let r = re("a.c");
        assert!(r.is_match("abc"));
        assert!(r.is_match("a-c"));
        assert!(r.is_match("aéc"));
        assert!(!r.is_match("ac"));
    }

    #[test]
    fn star_repetition() {
        let r = re("ab*c");
        assert!(r.is_match("ac"));
        assert!(r.is_match("abc"));
        assert!(r.is_match("abbbbc"));
        assert!(!r.is_match("adc"));
    }

    #[test]
    fn plus_repetition() {
        let r = re("ab+c");
        assert!(!r.is_match("ac"));
        assert!(r.is_match("abc"));
        assert!(r.is_match("abbc"));
    }

    #[test]
    fn question_optional() {
        let r = re("colou?r");
        assert!(r.is_match("color"));
        assert!(r.is_match("colour"));
        assert!(!r.is_match("colr"));
    }

    #[test]
    fn alternation() {
        let r = re("cat|dog|bird");
        assert!(r.is_match("hotdog"));
        assert!(r.is_match("cat"));
        assert!(r.is_match("a bird!"));
        assert!(!r.is_match("fish"));
    }

    #[test]
    fn grouping_with_repetition() {
        let r = re("(ab)+");
        assert!(r.is_match("ab"));
        assert!(r.is_match("abab"));
        assert!(!r.is_match("aa"));
        let r = re("a(b|c)d");
        assert!(r.is_match("abd"));
        assert!(r.is_match("acd"));
        assert!(!r.is_match("aed"));
    }

    #[test]
    fn char_class() {
        let r = re("[abc]+");
        assert!(r.is_match("cab"));
        assert!(!r.is_match("xyz"));
        let r = re("[a-z0-9]+");
        assert!(r.is_match("hello123"));
        assert!(!r.is_match("HELLO"));
    }

    #[test]
    fn negated_char_class() {
        let r = re("^[^0-9]+$");
        assert!(r.is_match("letters"));
        assert!(!r.is_match("let7ers"));
    }

    #[test]
    fn class_with_literal_dash_and_bracket() {
        let r = re("[a-]+");
        assert!(r.is_match("a-a"));
        let r = re(r"[\]]");
        assert!(r.is_match("]"));
    }

    #[test]
    fn anchors() {
        let r = re("^abc");
        assert!(r.is_match("abcdef"));
        assert!(!r.is_match("xabc"));
        let r = re("abc$");
        assert!(r.is_match("xabc"));
        assert!(!r.is_match("abcx"));
        let r = re("^abc$");
        assert!(r.is_match("abc"));
        assert!(!r.is_match("abc "));
    }

    #[test]
    fn escapes() {
        let r = re(r"a\.b");
        assert!(r.is_match("a.b"));
        assert!(!r.is_match("axb"));
        let r = re(r"\d+");
        assert!(r.is_match("42"));
        assert!(!r.is_match("forty-two"));
        let r = re(r"\w+");
        assert!(r.is_match("snake_case"));
        let r = re(r"a\s b");
        assert!(!r.is_match("ab"));
    }

    #[test]
    fn builtin_package_filter_pattern() {
        // The exact filter shape used by the attribution stage
        // (paper footnote 2).
        let r = re(
            r"^(android\.|dalvik\.|java\.|javax\.|junit\.|org\.apache\.http\.|org\.json\.|org\.w3c\.dom\.|org\.xml\.sax\.|org\.xmlpull\.v1\.|com\.android\.)",
        );
        assert!(r.is_match("android.os.AsyncTask$2.call"));
        assert!(r.is_match("java.util.concurrent.FutureTask.run"));
        assert!(r.is_match("com.android.okhttp.internal.Platform.connectSocket"));
        assert!(!r.is_match("com.unity3d.ads.android.cache.b.doInBackground"));
        assert!(!r.is_match("okhttp3.internal.http.RealConnection.connect"));
    }

    #[test]
    fn find_leftmost_longest() {
        let r = re("ab*");
        assert_eq!(r.find("zzabbbz"), Some((2, 6)));
        let r = re("a|ab");
        // leftmost-longest: prefers the longer alternative at position 0
        assert_eq!(r.find("ab"), Some((0, 2)));
    }

    #[test]
    fn find_on_multibyte_input() {
        let r = re("é+");
        let s = "caféé!";
        let (start, end) = r.find(s).expect("must match");
        assert_eq!(&s[start..end], "éé");
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(abc").is_err());
        assert!(Regex::new("abc)").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a|*").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("a**").is_err());
    }

    #[test]
    fn nested_groups() {
        let r = re("((a|b)c)+d");
        assert!(r.is_match("acbcd"));
        assert!(r.is_match("acd"));
        assert!(!r.is_match("d"));
    }

    #[test]
    fn alternation_with_anchors() {
        let r = re("^(foo|bar)$");
        assert!(r.is_match("foo"));
        assert!(r.is_match("bar"));
        assert!(!r.is_match("foobar"));
    }

    #[test]
    fn pattern_accessor() {
        let r = re("a+b");
        assert_eq!(r.pattern(), "a+b");
    }

    #[test]
    fn no_catastrophic_backtracking() {
        // (a+)+b against a long non-matching input: linear engines finish
        // instantly, backtrackers explode. This must complete quickly.
        let r = re("(a+)+b");
        let input = "a".repeat(2_000);
        assert!(!r.is_match(&input));
    }
}
