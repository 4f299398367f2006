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
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
    /// from one scan for the `;->` and `(` separators.
    fn parts(&self) -> (&str, &str, &str, &str) {
        let arrow = self.smali.find(";->").expect("validated on construction");
        let type_part = &self.smali[1..arrow]; // strip leading 'L'
        let (path, class) = match type_part.rfind('/') {
            Some(idx) => (&type_part[..idx], &type_part[idx + 1..]),
            None => ("", type_part),
        };
        let rest = &self.smali[arrow + 3..];
        let paren = rest.find('(').expect("validated on construction");
        (path, class, &rest[..paren], &rest[paren..])
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
    pub fn dotted_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let (path, class, method, _) = self.parts();
        let package_dot = (!path.is_empty()).then_some(b'.');
        path.bytes()
            .map(|b| if b == b'/' { b'.' } else { b })
            .chain(package_dot)
            .chain(class.bytes())
            .chain(std::iter::once(b'.'))
            .chain(method.bytes())
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
        let err = |message: &str| SigParseError {
            message: message.to_owned(),
            input: s.chars().take(120).collect(),
        };
        if !s.starts_with('L') {
            return Err(err("must start with 'L'"));
        }
        let arrow = s
            .find(";->")
            .ok_or_else(|| err("missing ';->' separator"))?;
        if arrow <= 1 {
            return Err(err("empty class path"));
        }
        let rest = &s[arrow + 3..];
        let paren = rest
            .find('(')
            .ok_or_else(|| err("missing '(' descriptor"))?;
        if paren == 0 {
            return Err(err("empty method name"));
        }
        if !rest.contains(')') {
            return Err(err("missing ')' in descriptor"));
        }
        let close = rest.rfind(')').expect("checked above");
        if close + 1 >= rest.len() {
            return Err(err("missing return type"));
        }
        let type_part = &s[1..arrow];
        if type_part.split('/').any(str::is_empty) {
            return Err(err("empty package component"));
        }
        validate_descriptor(&rest[paren..]).map_err(|m| err(&m))?;
        Ok(MethodSig {
            smali: s.to_owned(),
        })
    }
}

/// Checks that `desc` is a well-formed `(params)ret` descriptor.
fn validate_descriptor(desc: &str) -> Result<(), String> {
    let bytes = desc.as_bytes();
    if bytes.first() != Some(&b'(') {
        return Err("descriptor must start with '('".into());
    }
    let close = desc
        .find(')')
        .ok_or_else(|| "descriptor missing ')'".to_string())?;
    let params = &desc[1..close];
    let ret = &desc[close + 1..];
    let mut idx = 0;
    let pbytes = params.as_bytes();
    while idx < pbytes.len() {
        idx = parse_type(params, idx)?;
    }
    if ret == "V" {
        return Ok(());
    }
    let end = parse_type(ret, 0)?;
    if end != ret.len() {
        return Err("trailing bytes after return type".into());
    }
    Ok(())
}

/// Parses one type descriptor starting at byte `idx`; returns the index
/// one past its end.
fn parse_type(s: &str, mut idx: usize) -> Result<usize, String> {
    let bytes = s.as_bytes();
    while idx < bytes.len() && bytes[idx] == b'[' {
        idx += 1;
    }
    if idx >= bytes.len() {
        return Err("dangling array marker".into());
    }
    match bytes[idx] {
        b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D' => Ok(idx + 1),
        b'L' => {
            let end = s[idx..]
                .find(';')
                .ok_or_else(|| "unterminated object type".to_string())?;
            Ok(idx + end + 1)
        }
        other => Err(format!("invalid type descriptor byte {:?}", other as char)),
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
