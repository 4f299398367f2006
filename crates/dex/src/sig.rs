//! Smali-style method type signatures.
//!
//! Libspector's attribution pipeline is built on *type signatures*: a
//! unique identifier for a method that includes the full package
//! hierarchy, the class (with `$` inner-class nesting), the method name,
//! and the parameter/return type descriptors. The smali convention is
//!
//! ```text
//! Lpackage/name/className$innerClassName;->methodName(inputTypes)returnTypes
//! ```
//!
//! Signatures are what the Socket Supervisor sends in its UDP reports,
//! what the Method Monitor records, and what coverage is computed over.
//! They also disambiguate overloaded methods that share a name.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A fully-qualified method type signature.
///
/// Stores only the smali rendering, so the value can be used as a
/// hash-map key. Every accessor rescans it once for the `;->` and `(`
/// separators; the `&str` accessors and [`MethodSig::dotted_bytes`]
/// borrow from it, the `String` renderings allocate.
///
/// # Examples
///
/// ```
/// use spector_dex::sig::MethodSig;
///
/// let sig = MethodSig::new("com.squareup.picasso", "Dispatcher$NetworkHandler", "handleMessage", "(Landroid/os/Message;)V");
/// assert_eq!(sig.to_string(),
///     "Lcom/squareup/picasso/Dispatcher$NetworkHandler;->handleMessage(Landroid/os/Message;)V");
/// assert_eq!(sig.class_name(), "Dispatcher$NetworkHandler");
/// assert_eq!(sig.method_name(), "handleMessage");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[serde(transparent)]
pub struct MethodSig {
    smali: String,
}

/// Error returned when parsing a malformed smali signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigParseError {
    /// Description of what was malformed.
    pub message: String,
    /// The offending input (possibly truncated).
    pub input: String,
}

impl fmt::Display for SigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid method signature {:?}: {}",
            self.input, self.message
        )
    }
}

impl Error for SigParseError {}

impl MethodSig {
    /// Builds a signature from its components.
    ///
    /// `package` is dotted (`com.unity3d.ads`), possibly empty for the
    /// default package. `class` may contain `$` for inner classes.
    /// `descriptor` must be a `(params)ret` descriptor string.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `class` or `method` contain smali
    /// separator characters, which would produce an unparseable
    /// signature.
    pub fn new(package: &str, class: &str, method: &str, descriptor: &str) -> Self {
        debug_assert!(!class.contains('/') && !class.contains(';'));
        debug_assert!(!method.contains('(') && !method.contains(';'));
        debug_assert!(descriptor.starts_with('('));
        let slashed = package.replace('.', "/");
        let smali = if slashed.is_empty() {
            format!("L{class};->{method}{descriptor}")
        } else {
            format!("L{slashed}/{class};->{method}{descriptor}")
        };
        MethodSig { smali }
    }

    /// The smali rendering (same as `Display`).
    pub fn as_smali(&self) -> &str {
        &self.smali
    }

    /// The `/`-separated package path (empty for the default package),
    /// the class name, the method name and the descriptor, borrowed
    /// from one scan for the `;->` and `(` separators: what the
    /// accessors below return one at a time. The package path is as the
    /// smali writes it, so a component may itself contain `.`
    /// (`Lcom.foo/Bar;` is in package `com.foo`).
    pub fn parts(&self) -> (&str, &str, &str, &str) {
        split(&self.smali).expect("validated on construction")
    }

    /// The dotted package name, e.g. `com.unity3d.ads.android.cache`.
    ///
    /// Empty for classes in the default package.
    pub fn package(&self) -> String {
        self.parts().0.replace('/', ".")
    }

    /// The class name including any `$`-separated inner classes.
    pub fn class_name(&self) -> &str {
        self.parts().1
    }

    /// The bare method name.
    pub fn method_name(&self) -> &str {
        self.parts().2
    }

    /// The `(params)ret` descriptor.
    pub fn descriptor(&self) -> &str {
        self.parts().3
    }

    /// The bytes of [`MethodSig::dotted_name`], streamed from the smali
    /// rendering without allocating: the package path with each `/`
    /// read as `.`, then the class and the method, `.`-joined.
    pub fn dotted_bytes(&self) -> impl Iterator<Item = u8> + Clone + '_ {
        dotted(self.parts())
    }

    /// [`MethodSig::dotted_bytes`] of `smali` when it parses as a
    /// signature (the check [`MethodSig::from_str`] runs), without
    /// building a `MethodSig`; `None` when it does not parse.
    pub fn dotted_bytes_of(smali: &str) -> Option<impl Iterator<Item = u8> + Clone + '_> {
        check(smali.as_bytes()).ok()?;
        split(smali).map(dotted)
    }

    /// The dotted `package.Class.method` rendering used in stack traces
    /// (inner-class `$` markers are preserved, descriptor dropped) —
    /// this is the form `getStackTrace` frames carry before the
    /// supervisor translates them back to full signatures.
    pub fn dotted_name(&self) -> String {
        String::from_utf8(self.dotted_bytes().collect()).expect("only ASCII '/' is rewritten")
    }

    /// Dotted `package.Class` without the method.
    pub fn dotted_class(&self) -> String {
        let pkg = self.package();
        if pkg.is_empty() {
            self.class_name().to_owned()
        } else {
            format!("{}.{}", pkg, self.class_name())
        }
    }

    /// Truncates the package to its first `levels` dot-separated
    /// components — the paper's *2-level library* reduction
    /// (`com.unity3d.ads.android.cache` → `com.unity3d` for `levels=2`).
    pub fn package_prefix(&self, levels: usize) -> String {
        prefix_levels(&self.package(), levels)
    }
}

/// The package of a dotted `package.Class.method` name: everything
/// before its last two `.`-components, or `None` when it has fewer than
/// three. The rule reads the dotted string, so a class name holding a
/// `.` gives up its front part to the package.
///
/// # Examples
///
/// ```
/// use spector_dex::sig::dotted_package;
///
/// assert_eq!(dotted_package("com.unity3d.ads.b.a"), Some("com.unity3d.ads"));
/// assert_eq!(dotted_package("Main.run"), None);
/// ```
pub fn dotted_package(dotted: &str) -> Option<&str> {
    let method = dotted.rfind('.')?;
    dotted[..method].rfind('.').map(|class| &dotted[..class])
}

/// Truncates a dotted name to its first `levels` components.
///
/// Returns the whole name when it has fewer components.
///
/// # Examples
///
/// ```
/// assert_eq!(spector_dex::sig::prefix_levels("com.unity3d.ads", 2), "com.unity3d");
/// assert_eq!(spector_dex::sig::prefix_levels("okhttp3", 2), "okhttp3");
/// ```
pub fn prefix_levels(dotted: &str, levels: usize) -> String {
    if levels == 0 {
        return String::new();
    }
    let mut count = 0;
    for (idx, ch) in dotted.char_indices() {
        if ch == '.' {
            count += 1;
            if count == levels {
                return dotted[..idx].to_owned();
            }
        }
    }
    dotted.to_owned()
}

impl fmt::Display for MethodSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.smali)
    }
}

impl FromStr for MethodSig {
    type Err = SigParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        validate(s)?;
        Ok(MethodSig::from_checked(s))
    }
}

impl MethodSig {
    /// A signature from smali that [`validate`] accepted.
    pub(crate) fn from_checked(smali: &str) -> Self {
        MethodSig {
            smali: smali.to_owned(),
        }
    }
}

/// Checks `s` as [`MethodSig::from_str`] does, without building the
/// value.
pub(crate) fn validate(s: &str) -> Result<(), SigParseError> {
    check(s.as_bytes()).map_err(|message| SigParseError {
        message,
        input: s.chars().take(120).collect(),
    })
}

/// The package path, class name, method name and descriptor of smali
/// that [`validate`] accepted, as [`MethodSig::parts`] returns them.
pub(crate) fn parts_of(smali: &str) -> (&str, &str, &str, &str) {
    split(smali).expect("validated before")
}

/// Reads a signature through [`MethodSig::from_str`], so one taken from
/// outside the program (an apk manifest) is checked like a parsed one.
impl Deserialize for MethodSig {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let smali = value
            .as_str()
            .ok_or_else(|| serde::DeError::expected("string", value))?;
        smali
            .parse()
            .map_err(|e: SigParseError| serde::DeError::custom(e.to_string()))
    }
}

/// The package path, class name, method name and descriptor of a smali
/// rendering, or `None` for one that never passed [`check`] (components
/// [`MethodSig::new`] only debug-asserts).
fn split(smali: &str) -> Option<(&str, &str, &str, &str)> {
    let arrow = find_arrow(smali.as_bytes())?;
    let type_part = smali.get(1..arrow)?; // strip leading 'L'
    let (path, class) = match type_part.rfind('/') {
        Some(idx) => (&type_part[..idx], &type_part[idx + 1..]),
        None => ("", type_part),
    };
    let rest = &smali[arrow + 3..];
    let paren = rest.find('(')?;
    Some((path, class, &rest[..paren], &rest[paren..]))
}

/// The dotted name of split signature parts: the package path with
/// each `/` read as `.`, then the class and the method, `.`-joined.
fn dotted<'a>(
    (path, class, method, _): (&'a str, &'a str, &'a str, &'a str),
) -> impl Iterator<Item = u8> + Clone + 'a {
    let package_dot = (!path.is_empty()).then_some(b'.');
    path.bytes()
        .map(|b| if b == b'/' { b'.' } else { b })
        .chain(package_dot)
        .chain(class.bytes())
        .chain(std::iter::once(b'.'))
        .chain(method.bytes())
}

/// The index of the first `;->` in `s`.
fn find_arrow(s: &[u8]) -> Option<usize> {
    let mut at = 0;
    loop {
        at += s[at..].iter().position(|&b| b == b';')?;
        if s[at + 1..].starts_with(b"->") {
            return Some(at);
        }
        at += 1;
    }
}

/// Checks a smali signature in one pass over its bytes.
///
/// The grammar is `L` class-path `;->` name `(` params `)` return,
/// where the class path runs to the first `;->`, the name to the next
/// `(`, and the parameter list to the next `)`. When several rules
/// fail, the message is the first failure in this order: leading `L`,
/// `;->`, non-empty class path, `(`, non-empty name, a `)` anywhere
/// after the arrow, a byte after the last such `)`, non-empty package
/// components, a `)` after the `(`, the parameter types, the return
/// type. Facts needed by an earlier rule but only known after a later
/// byte (the last `)`, an empty component) are noted on the way and
/// judged in that order at the end.
fn check(s: &[u8]) -> Result<(), String> {
    if s.first() != Some(&b'L') {
        return Err("must start with 'L'".into());
    }
    let mut component = 0usize;
    let mut empty_component = false;
    let mut i = 1;
    let arrow = loop {
        match s.get(i) {
            None => return Err("missing ';->' separator".into()),
            Some(b';') if s[i + 1..].starts_with(b"->") => break i,
            Some(b'/') => {
                empty_component |= component == 0;
                component = 0;
            }
            Some(_) => component += 1,
        }
        i += 1;
    };
    if arrow == 1 {
        return Err("empty class path".into());
    }
    empty_component |= component == 0;

    let rest = &s[arrow + 3..];
    let mut close_in_name = false;
    let Some(paren) = rest.iter().position(|&b| {
        close_in_name |= b == b')';
        b == b'('
    }) else {
        return Err("missing '(' descriptor".into());
    };
    if paren == 0 {
        return Err("empty method name".into());
    }

    // Parameter types up to the first `)`. After a bad type, only that
    // `)` is still looked for: it decides which error is reported.
    let desc = &rest[paren + 1..];
    let mut j = 0;
    let mut bad_param = None;
    let close = loop {
        match desc.get(j) {
            None => break None,
            Some(b')') => break Some(j),
            Some(_) => match parse_type(desc, j, Some(b')')) {
                Ok(end) => j = end,
                Err(message) => {
                    bad_param = Some(message);
                    break desc[j..].iter().position(|&b| b == b')').map(|at| j + at);
                }
            },
        }
    };
    if !close_in_name && close.is_none() {
        return Err("missing ')' in descriptor".into());
    }
    if rest.last() == Some(&b')') {
        return Err("missing return type".into());
    }
    if empty_component {
        return Err("empty package component".into());
    }
    let Some(close) = close else {
        return Err("descriptor missing ')'".into());
    };
    if let Some(message) = bad_param {
        return Err(message);
    }
    let ret = &desc[close + 1..];
    if ret != b"V" && parse_type(ret, 0, None)? != ret.len() {
        return Err("trailing bytes after return type".into());
    }
    Ok(())
}

/// Parses one type descriptor starting at byte `idx` of `s`, reading a
/// `stop` byte as the end of input; returns the index one past its end.
fn parse_type(s: &[u8], mut idx: usize, stop: Option<u8>) -> Result<usize, String> {
    let at = |k: usize| s.get(k).copied().filter(|&b| Some(b) != stop);
    while at(idx) == Some(b'[') {
        idx += 1;
    }
    match at(idx) {
        None => Err("dangling array marker".into()),
        Some(b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D') => Ok(idx + 1),
        Some(b'L') => loop {
            idx += 1;
            match at(idx) {
                None => return Err("unterminated object type".into()),
                Some(b';') => return Ok(idx + 1),
                Some(_) => {}
            }
        },
        Some(other) => Err(format!("invalid type descriptor byte {:?}", other as char)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_paper_example() {
        let s = "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/Object;)Ljava/lang/Object;";
        let sig: MethodSig = s.parse().unwrap();
        assert_eq!(sig.to_string(), s);
        assert_eq!(sig.package(), "com.unity3d.ads.android.cache");
        assert_eq!(sig.class_name(), "b");
        assert_eq!(sig.method_name(), "doInBackground");
        assert_eq!(sig.descriptor(), "([Ljava/lang/Object;)Ljava/lang/Object;");
        assert_eq!(
            sig.dotted_name(),
            "com.unity3d.ads.android.cache.b.doInBackground"
        );
    }

    #[test]
    fn inner_class_convention() {
        let sig = MethodSig::new("android.os", "AsyncTask$2", "call", "()Ljava/lang/Object;");
        assert_eq!(
            sig.as_smali(),
            "Landroid/os/AsyncTask$2;->call()Ljava/lang/Object;"
        );
        assert_eq!(sig.class_name(), "AsyncTask$2");
        assert_eq!(sig.dotted_name(), "android.os.AsyncTask$2.call");
        assert_eq!(sig.dotted_class(), "android.os.AsyncTask$2");
    }

    #[test]
    fn default_package() {
        let sig = MethodSig::new("", "Main", "run", "()V");
        assert_eq!(sig.as_smali(), "LMain;->run()V");
        assert_eq!(sig.package(), "");
        assert_eq!(sig.dotted_name(), "Main.run");
        let parsed: MethodSig = "LMain;->run()V".parse().unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn overloads_are_distinct() {
        let a = MethodSig::new("com.app", "Http", "get", "(Ljava/lang/String;)V");
        let b = MethodSig::new("com.app", "Http", "get", "(Ljava/lang/String;I)V");
        assert_ne!(a, b);
        assert_eq!(a.method_name(), b.method_name());
    }

    #[test]
    fn two_level_prefix() {
        let sig = MethodSig::new("com.unity3d.ads.android.cache", "b", "a", "()V");
        assert_eq!(sig.package_prefix(2), "com.unity3d");
        assert_eq!(sig.package_prefix(3), "com.unity3d.ads");
        assert_eq!(sig.package_prefix(9), "com.unity3d.ads.android.cache");
        assert_eq!(sig.package_prefix(0), "");
    }

    #[test]
    fn dotted_package_drops_class_and_method() {
        for (dotted, package) in [
            (
                "com.unity3d.ads.android.cache.b.a",
                Some("com.unity3d.ads.android.cache"),
            ),
            ("com.myapp.Main.run", Some("com.myapp")),
            ("app.Main.run", Some("app")),
            (".Main.run", Some("")),
            ("a..run", Some("a")),
            ("Main.run", None),
            ("run", None),
            ("", None),
        ] {
            assert_eq!(dotted_package(dotted), package, "{dotted}");
        }
    }

    #[test]
    fn prefix_levels_short_names() {
        assert_eq!(prefix_levels("okhttp3", 2), "okhttp3");
        assert_eq!(
            prefix_levels("okhttp3.internal.http", 2),
            "okhttp3.internal"
        );
        assert_eq!(prefix_levels("", 2), "");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "com/foo/Bar;->m()V",    // no leading L
            "Lcom/foo/Bar->m()V",    // missing ;
            "Lcom/foo/Bar;->m",      // no descriptor
            "Lcom/foo/Bar;->(I)V",   // no method name
            "Lcom/foo/Bar;->m()",    // no return type
            "Lcom//Bar;->m()V",      // empty package component
            "L;->m()V",              // empty class path
            "Lcom/foo/Bar;->m(Q)V",  // bad type descriptor
            "Lcom/foo/Bar;->m([)V",  // dangling array
            "Lcom/foo/Bar;->m(Lx)V", // unterminated object type
            "Lcom/foo/Bar;->m()VV",  // trailing bytes
        ] {
            assert!(bad.parse::<MethodSig>().is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn accepts_complex_descriptors() {
        for good in [
            "La/B;->m()V",
            "La/B;->m(IJZ)D",
            "La/B;->m([[I)[Ljava/lang/String;",
            "La/B;->m(Ljava/util/Map;[BJ)V",
        ] {
            assert!(good.parse::<MethodSig>().is_ok(), "should accept {good}");
        }
    }

    #[test]
    fn ordering_is_stable_lexicographic() {
        let mut sigs = [
            MethodSig::new("b", "C", "m", "()V"),
            MethodSig::new("a", "C", "m", "()V"),
        ];
        sigs.sort();
        assert_eq!(sigs[0].package(), "a");
    }
}
