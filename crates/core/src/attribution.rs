//! Origin-library attribution (§III-C).
//!
//! Given a socket's translated stack trace (most recent frame first),
//! the heuristic is:
//!
//! 1. drop every frame belonging to an Android built-in package
//!    (footnote 2 regex);
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

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use spector_dex::sig::{prefix_levels, MethodSig};
use spector_regexlite::Regex;
use spector_runtime::framework::builtin_filter_pattern;

/// Compiled builtin-package filter (footnote 2).
#[derive(Debug, Clone)]
pub struct BuiltinFilter {
    regex: Option<Regex>,
}

impl Default for BuiltinFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl BuiltinFilter {
    /// Compiles the footnote 2 pattern.
    pub fn new() -> Self {
        BuiltinFilter {
            regex: Some(
                Regex::new(&builtin_filter_pattern()).expect("footnote 2 pattern is valid"),
            ),
        }
    }

    /// A filter that matches nothing — the ablation variant used to
    /// measure how attribution degrades without frame filtering (every
    /// main-thread flow then attributes to scheduler internals).
    pub fn disabled() -> Self {
        BuiltinFilter { regex: None }
    }

    /// `true` when a frame (dotted or smali form) is built-in.
    pub fn is_builtin(&self, frame: &str) -> bool {
        match &self.regex {
            Some(regex) => regex.is_match(&dotted_of(frame)),
            None => false,
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

/// Normalizes a frame to its dotted `package.Class.method` form: smali
/// type signatures (produced by the supervisor's dex translation) are
/// parsed, anything else (already dotted) is borrowed as it is.
fn dotted_of(frame: &str) -> Cow<'_, str> {
    if frame.starts_with('L') && frame.contains(";->") {
        if let Ok(sig) = frame.parse::<MethodSig>() {
            return Cow::Owned(sig.dotted_name());
        }
    }
    Cow::Borrowed(frame)
}

/// Package of a dotted frame name: everything up to the class and
/// method components.
fn package_of(dotted: &str) -> String {
    let parts: Vec<&str> = dotted.split('.').collect();
    if parts.len() <= 2 {
        return String::new();
    }
    parts[..parts.len() - 2].join(".")
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
