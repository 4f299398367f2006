//! Origin-library attribution (§III-C).
//!
//! Given a socket's translated stack trace (most recent frame first),
//! the heuristic is:
//!
//! 1. drop every frame belonging to an Android built-in package
//!    (footnote 2's prefix list);
//! 2. the **origin frame** is the chronologically *first* invoked of
//!    the remaining frames — the last element of the most-recent-first
//!    list (Listing 1: `com.unity3d.ads.android.cache.b.doInBackground`);
//! 3. the **origin-library** is the origin frame's full package;
//! 4. the **2-level library** truncates that package to its first two
//!    dot components (`com.unity3d`).
//!
//! When *no* frame survives the filter, the socket was created entirely
//! by platform code; such traffic lands in the `*` buckets of Figure 3
//! and can only be characterized by its destination domain.

use serde::{Deserialize, Serialize};
use spector_dex::sig::{dotted_package, prefix_levels, MethodSig};
use spector_runtime::framework::BUILTIN_PACKAGE_PREFIXES;

/// The builtin-package filter (footnote 2): a frame is built-in when
/// its dotted form starts with one of [`BUILTIN_PACKAGE_PREFIXES`].
#[derive(Debug, Clone)]
pub struct BuiltinFilter {
    prefixes: &'static [&'static str],
}

impl Default for BuiltinFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl BuiltinFilter {
    /// The footnote 2 filter.
    pub fn new() -> Self {
        BuiltinFilter {
            prefixes: BUILTIN_PACKAGE_PREFIXES,
        }
    }

    /// A filter that matches nothing — the ablation variant used to
    /// measure how attribution degrades without frame filtering (every
    /// main-thread flow then attributes to scheduler internals).
    pub fn disabled() -> Self {
        BuiltinFilter { prefixes: &[] }
    }

    /// `true` when a frame (dotted or smali form) is built-in.
    ///
    /// The frame is read as [`attribute`] dots it, without building a
    /// string: a smali frame that parses is matched by its dotted bytes,
    /// anything else as it is (so an `L…;->` frame that fails to parse
    /// starts with `L` and matches no prefix).
    pub fn is_builtin(&self, frame: &str) -> bool {
        self.matches(frame, smali_dotted(frame))
    }

    /// [`is_builtin`](Self::is_builtin) of `frame`, given its
    /// [`smali_dotted`] bytes.
    fn matches(&self, frame: &str, dotted: Option<impl Iterator<Item = u8> + Clone>) -> bool {
        match dotted {
            Some(dotted) => self
                .prefixes
                .iter()
                .any(|p| dotted.clone().take(p.len()).eq(p.bytes())),
            None => self.prefixes.iter().any(|p| frame.starts_with(p)),
        }
    }
}

/// What a stack trace attributes to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OriginKind {
    /// A non-builtin origin frame was found.
    Library {
        /// Full package of the origin frame — the *origin-library*.
        origin_library: String,
        /// First two package components — the *2-level library*.
        two_level: String,
    },
    /// Only built-in frames remained: platform-created socket.
    Builtin,
}

/// The attribution result for one socket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// Attribution target.
    pub origin: OriginKind,
    /// The origin frame (dotted), when one exists.
    pub origin_frame: Option<String>,
    /// Frames surviving the builtin filter, most recent first.
    pub app_frames: usize,
}

/// Attributes a translated stack trace (most recent frame first).
pub fn attribute(frames: &[String], filter: &BuiltinFilter) -> Attribution {
    // Each frame is read once: the filter and the origin frame's dotted
    // form share its smali parse.
    let (app_frames, origin) = frames
        .iter()
        .map(|frame| (frame, smali_dotted(frame)))
        .filter(|(frame, dotted)| !filter.matches(frame, dotted.clone()))
        .fold((0, None), |(count, _), frame| (count + 1, Some(frame)));
    let Some((origin_frame, smali)) = origin else {
        return Attribution {
            origin: OriginKind::Builtin,
            origin_frame: None,
            app_frames,
        };
    };
    // The origin frame in its dotted `package.Class.method` form.
    let dotted = match smali {
        Some(dotted) => String::from_utf8(dotted.collect()).expect("only ASCII '/' is rewritten"),
        None => origin_frame.clone(),
    };
    let package = dotted_package(&dotted).unwrap_or("");
    Attribution {
        origin: OriginKind::Library {
            origin_library: package.to_owned(),
            two_level: prefix_levels(package, 2),
        },
        origin_frame: Some(dotted),
        app_frames,
    }
}

/// The dotted bytes of a smali type signature (the supervisor's dex
/// translation of a frame) when `frame` is one that parses; `None` for a
/// frame that is read as it is (already dotted, or broken).
fn smali_dotted(frame: &str) -> Option<impl Iterator<Item = u8> + Clone + '_> {
    (frame.starts_with('L') && frame.contains(";->"))
        .then(|| MethodSig::dotted_bytes_of(frame))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spector_regexlite::Regex;
    use std::borrow::Cow;

    /// Normalizes a frame to its dotted `package.Class.method` form as
    /// attribution once did: smali type signatures are parsed into a
    /// `MethodSig` and rendered, anything else is borrowed as it is.
    fn dotted_of(frame: &str) -> Cow<'_, str> {
        if frame.starts_with('L') && frame.contains(";->") {
            if let Ok(sig) = frame.parse::<MethodSig>() {
                return Cow::Owned(sig.dotted_name());
            }
        }
        Cow::Borrowed(frame)
    }

    /// Package of a dotted frame name as attribution once split it:
    /// everything up to the class and method components.
    fn package_of(dotted: &str) -> String {
        let parts: Vec<&str> = dotted.split('.').collect();
        if parts.len() <= 2 {
            return String::new();
        }
        parts[..parts.len() - 2].join(".")
    }

    /// [`attribute`] by its old three steps (parse and render the
    /// origin frame, split and join its package, copy two levels): the
    /// reference the one-pass dotting is held to.
    fn attribute_in_three_steps(frames: &[String], filter: &BuiltinFilter) -> Attribution {
        let surviving: Vec<&String> = frames.iter().filter(|f| !filter.is_builtin(f)).collect();
        match surviving.last() {
            None => Attribution {
                origin: OriginKind::Builtin,
                origin_frame: None,
                app_frames: 0,
            },
            Some(origin_frame) => {
                let dotted = dotted_of(origin_frame);
                let package = package_of(&dotted);
                Attribution {
                    origin: OriginKind::Library {
                        two_level: prefix_levels(&package, 2),
                        origin_library: package,
                    },
                    origin_frame: Some(dotted.into_owned()),
                    app_frames: surviving.len(),
                }
            }
        }
    }

    /// The Listing 1 stack trace, with the two app frames in their
    /// supervisor-translated smali form.
    fn listing1() -> Vec<String> {
        vec![
            "java.net.Socket.connect".to_owned(),
            "com.android.okhttp.internal.Platform.connectSocket".to_owned(),
            "com.android.okhttp.Connection.connectSocket".to_owned(),
            "com.android.okhttp.Connection.connect".to_owned(),
            "com.android.okhttp.Connection.connectAndSetOwner".to_owned(),
            "com.android.okhttp.OkHttpClient$1.connectAndSetOwner".to_owned(),
            "com.android.okhttp.internal.http.HttpEngine.connect".to_owned(),
            "com.android.okhttp.internal.http.HttpEngine.sendRequest".to_owned(),
            "com.android.okhttp.internal.huc.HttpURLConnectionImpl.execute".to_owned(),
            "com.android.okhttp.internal.huc.HttpURLConnectionImpl.connect".to_owned(),
            "Lcom/unity3d/ads/android/cache/b;->a()V".to_owned(),
            "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/Object;)Ljava/lang/Object;"
                .to_owned(),
            "android.os.AsyncTask$2.call".to_owned(),
            "java.util.concurrent.FutureTask.run".to_owned(),
        ]
    }

    #[test]
    fn listing1_attributes_to_unity_cache() {
        // Per §III-C: origin-library com.unity3d.ads.android.cache,
        // 2-level library com.unity3d. Note: by footnote 2,
        // com.android.okhttp survives the filter, but the unity frames
        // are *chronologically earlier* (deeper), so attribution is
        // unchanged.
        let attribution = attribute(&listing1(), &BuiltinFilter::new());
        assert_eq!(
            attribution.origin,
            OriginKind::Library {
                origin_library: "com.unity3d.ads.android.cache".to_owned(),
                two_level: "com.unity3d".to_owned(),
            }
        );
        assert_eq!(
            attribution.origin_frame.as_deref(),
            Some("com.unity3d.ads.android.cache.b.doInBackground")
        );
    }

    #[test]
    fn platform_only_stack_is_builtin() {
        let frames = vec![
            "java.net.Socket.connect".to_owned(),
            "android.net.ConnectivityManager.reportNetworkConnectivity".to_owned(),
            "java.lang.Thread.run".to_owned(),
        ];
        let attribution = attribute(&frames, &BuiltinFilter::new());
        assert_eq!(attribution.origin, OriginKind::Builtin);
        assert_eq!(attribution.app_frames, 0);
        assert_eq!(attribution.origin_frame, None);
    }

    #[test]
    fn platform_okhttp_socket_attributes_to_com_android() {
        // System traffic through the platform okhttp: after filtering,
        // only com.android.okhttp frames remain (footnote 2 does not
        // cover them), and the deepest is the HttpURLConnectionImpl
        // entry.
        let frames: Vec<String> = listing1()[..10].to_vec();
        let attribution = attribute(&frames, &BuiltinFilter::new());
        assert_eq!(
            attribution.origin,
            OriginKind::Library {
                origin_library: "com.android.okhttp.internal.huc".to_owned(),
                two_level: "com.android".to_owned(),
            }
        );
    }

    #[test]
    fn sync_call_attributes_to_the_root_caller() {
        // A handler calling a library synchronously: the heuristic
        // attributes to the *handler* (chronologically first), which is
        // how first-party code accumulates the Unknown category.
        let frames = vec![
            "java.net.Socket.connect".to_owned(),
            "Lcom/adnet/sdk/Fetcher;->pull()V".to_owned(),
            "Lcom/myapp/Activity0;->onClick0(Landroid/view/View;)V".to_owned(),
            "android.os.Handler.dispatchMessage".to_owned(),
        ];
        let attribution = attribute(&frames, &BuiltinFilter::new());
        assert_eq!(
            attribution.origin,
            OriginKind::Library {
                origin_library: "com.myapp".to_owned(),
                two_level: "com.myapp".to_owned(),
            }
        );
        assert_eq!(attribution.app_frames, 2);
    }

    #[test]
    fn empty_stack_is_builtin() {
        let attribution = attribute(&[], &BuiltinFilter::new());
        assert_eq!(attribution.origin, OriginKind::Builtin);
    }

    #[test]
    fn short_names_have_empty_package() {
        let frames = vec!["Main.run".to_owned()];
        let attribution = attribute(&frames, &BuiltinFilter::new());
        match attribution.origin {
            OriginKind::Library {
                origin_library,
                two_level,
            } => {
                assert_eq!(origin_library, "");
                assert_eq!(two_level, "");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builtin_filter_matches_footnote2_exactly() {
        let filter = BuiltinFilter::new();
        for builtin in [
            "android.os.AsyncTask$2.call",
            "dalvik.system.DexClassLoader.loadClass",
            "java.util.concurrent.FutureTask.run",
            "javax.net.ssl.SSLSocketFactory.createSocket",
            "junit.framework.TestCase.run",
            "org.apache.http.impl.client.CloseableHttpClient.execute",
            "org.json.JSONObject.put",
            "org.w3c.dom.Document.getElementById",
            "org.xml.sax.XMLReader.parse",
            "org.xmlpull.v1.XmlPullParser.next",
        ] {
            assert!(filter.is_builtin(builtin), "{builtin}");
        }
        for kept in [
            "com.android.okhttp.internal.Platform.connectSocket",
            "com.android.volley.NetworkDispatcher.run",
            "androidx.core.view.ViewCompat.animate", // androidx ≠ android.
            "com.unity3d.ads.android.cache.b.a",
            "okhttp3.internal.http.RealConnection.connect",
        ] {
            assert!(!filter.is_builtin(kept), "{kept}");
        }
    }

    #[test]
    fn smali_frames_are_normalized() {
        let filter = BuiltinFilter::new();
        // A smali-form frame of a builtin class is still recognized.
        assert!(filter.is_builtin("Landroid/os/AsyncTask$2;->call()Ljava/lang/Object;"));
        // A default-package class named like a prefix stem dots into
        // that prefix; a smali frame that does not parse is matched raw.
        assert!(filter.is_builtin("Landroid;->x()V"));
        assert!(!filter.is_builtin("Landroid/os/AsyncTask;->call("));
        assert!(!BuiltinFilter::disabled().is_builtin("android.os.Handler.post"));
    }

    /// The footnote 2 filter as the single regular expression it was
    /// matched with before: the reference the literal prefix match is
    /// held to.
    fn builtin_filter_pattern() -> String {
        let escaped: Vec<String> = BUILTIN_PACKAGE_PREFIXES
            .iter()
            .map(|p| p.replace('.', "\\."))
            .collect();
        format!("^({})", escaped.join("|"))
    }

    #[test]
    fn filter_pattern_escapes_dots() {
        let pattern = builtin_filter_pattern();
        assert!(pattern.starts_with("^("));
        assert!(pattern.contains("android\\."));
        assert!(pattern.contains("org\\.apache\\.http\\."));
    }

    /// Stems of the footnote 2 prefixes and names one character away
    /// from them.
    const STEMS: [&str; 16] = [
        "android",
        "dalvik",
        "java",
        "javax",
        "junit",
        "org.apache.http",
        "org.json",
        "org.w3c.dom",
        "org.xml.sax",
        "org.xmlpull.v1",
        "com.android.internal",
        "com.android.internalx",
        "com.android",
        "androidx",
        "org.apache",
        "Android",
    ];

    /// Frames in every form the filter meets: dotted names, valid
    /// smali, smali broken in each part, and default-package classes
    /// named after a stem.
    fn frames() -> impl Strategy<Value = String> {
        let stem = proptest::sample::select(STEMS.to_vec());
        let tail = "([a-zA-Z$]{1,6}(\\.[a-z]{1,4}){0,3})?";
        let dotted = (
            stem.clone(),
            proptest::sample::select(vec!["", ".", ".."]),
            tail,
        )
            .prop_map(|(stem, sep, tail)| format!("{stem}{sep}{tail}"));
        let smali = (stem, tail, any::<u64>(), 0usize..8).prop_map(|(stem, tail, seps, form)| {
            let dotted = if tail.is_empty() {
                stem.to_owned()
            } else {
                format!("{stem}.{tail}")
            };
            // Each `.` of the class path written as `/` or kept: a
            // component may itself contain `.`.
            let path: String = dotted
                .chars()
                .enumerate()
                .map(|(i, c)| match c {
                    '.' if seps >> (i % 64) & 1 == 1 => '/',
                    c => c,
                })
                .collect();
            match form {
                0..=2 => format!("L{path};->run()V"),
                3 => format!("L{stem};->x()V"),
                // Broken: no descriptor, no return type, an empty
                // component, a missing `L`.
                4 => format!("L{path};->m("),
                5 => format!("L{path};->m()"),
                6 => format!("L{path}//A;->m()V"),
                _ => format!("{path};->m(Q)V"),
            }
        });
        prop_oneof![dotted, smali, "[a-zL;>/.-]{0,12}"]
    }

    proptest! {
        #[test]
        fn attribution_equals_the_three_step_path(
            frames in proptest::collection::vec(frames(), 0..6),
        ) {
            for filter in [BuiltinFilter::new(), BuiltinFilter::disabled()] {
                prop_assert_eq!(
                    attribute(&frames, &filter),
                    attribute_in_three_steps(&frames, &filter),
                    "frames {:?}",
                    frames
                );
            }
        }

        #[test]
        fn literal_prefix_match_equals_the_footnote2_regex(frame in frames()) {
            let regex = Regex::new(&builtin_filter_pattern()).unwrap();
            prop_assert_eq!(
                BuiltinFilter::new().is_builtin(&frame),
                regex.is_match(&dotted_of(&frame)),
                "frame {}",
                frame
            );
        }
    }

    #[test]
    fn literal_prefix_match_equals_the_footnote2_regex_on_near_misses() {
        let regex = Regex::new(&builtin_filter_pattern()).unwrap();
        let filter = BuiltinFilter::new();
        for frame in [
            "com.android.internalx.A.b",
            "com.android.internal.os.ZygoteInit.main",
            "javax",
            "javax.net.A.b",
            "android",
            "android.",
            "androidx.core.A.b",
            "Landroid;->x()V",
            "Ljavax;->x()V",
            "Lorg/json;->x()V",
            "Landroid/os/Looper;->loop()V",
            "Landroid/os/Looper;->loop(",
            "Landroidx/core/A;->b()V",
            "Lcom/android/internal/os/ZygoteInit;->main([Ljava/lang/String;)V",
            "Lcom/android/internalx/A;->b()V",
            "Lcom.android.internal/A;->b()V",
            "",
        ] {
            assert_eq!(
                filter.is_builtin(frame),
                regex.is_match(&dotted_of(frame)),
                "{frame}"
            );
        }
    }
}
