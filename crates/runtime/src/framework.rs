//! Built-in Android framework chains.
//!
//! Every network connection in a stack trace is sandwiched between
//! framework code: HTTP client internals above the app's deepest frame
//! (ending at `java.net.Socket.connect`), and thread-scheduler frames
//! below it when the call happens off the main thread. Both sets consist
//! of *built-in* packages — the ones the paper's footnote 2 regex filter
//! removes — and their exact dotted names matter, because the
//! attribution heuristics are exercised against them.

use spector_dex::model::{Connector, Dispatcher};

use crate::stack::Frame;

/// Dotted names of the client-chain frames for `connector`, oldest
/// first (the order they are pushed above the app frame). The last
/// entry is always the `connect` hook point.
pub fn connector_chain(connector: Connector) -> &'static [&'static str] {
    match connector {
        // Listing 1, read bottom-up from HttpURLConnectionImpl.connect.
        Connector::AndroidOkHttp => &[
            "com.android.okhttp.internal.huc.HttpURLConnectionImpl.connect",
            "com.android.okhttp.internal.huc.HttpURLConnectionImpl.execute",
            "com.android.okhttp.internal.http.HttpEngine.sendRequest",
            "com.android.okhttp.internal.http.HttpEngine.connect",
            "com.android.okhttp.OkHttpClient$1.connectAndSetOwner",
            "com.android.okhttp.Connection.connectAndSetOwner",
            "com.android.okhttp.Connection.connect",
            "com.android.okhttp.Connection.connectSocket",
            "com.android.okhttp.internal.Platform.connectSocket",
            "java.net.Socket.connect",
        ],
        Connector::ApacheHttp => &[
            "org.apache.http.impl.client.CloseableHttpClient.execute",
            "org.apache.http.impl.client.InternalHttpClient.doExecute",
            "org.apache.http.impl.execchain.MainClientExec.execute",
            "org.apache.http.impl.conn.DefaultHttpClientConnectionOperator.connect",
            "java.net.Socket.connect",
        ],
        Connector::DirectSocket => &["java.net.Socket.connect"],
    }
}

/// Dotted names of the scheduler frames a new thread starts with for
/// `dispatcher`, oldest first. These are the *only* frames below the
/// dispatched method, which is why asynchronous call sites lose their
/// original caller context.
pub fn dispatcher_base(dispatcher: Dispatcher) -> &'static [&'static str] {
    match dispatcher {
        // Listing 1, lines 13-14 (bottom of the trace).
        Dispatcher::AsyncTask => &[
            "java.util.concurrent.FutureTask.run",
            "android.os.AsyncTask$2.call",
        ],
        Dispatcher::Thread => &["java.lang.Thread.run"],
        Dispatcher::Executor => &[
            "java.lang.Thread.run",
            "java.util.concurrent.ThreadPoolExecutor$Worker.run",
            "java.util.concurrent.ThreadPoolExecutor.runWorker",
        ],
    }
}

/// Builds [`Frame`] values for a connector chain.
pub fn connector_frames(connector: Connector) -> Vec<Frame> {
    connector_chain(connector)
        .iter()
        .copied()
        .map(Frame::new)
        .collect()
}

/// Builds [`Frame`] values for a dispatcher base.
pub fn dispatcher_frames(dispatcher: Dispatcher) -> Vec<Frame> {
    dispatcher_base(dispatcher)
        .iter()
        .copied()
        .map(Frame::new)
        .collect()
}

/// The built-in package prefixes of Android API 25 that the attribution
/// stage filters out of stack traces — the paper's footnote 2 list,
/// verbatim. Note that `com.android.*` is deliberately *not* filtered:
/// the platform's bundled okhttp (and libraries like `com.android.volley`
/// that apps ship under that prefix) remain attributable, which is why
/// Figure 3 shows `com.android.*` origin-libraries in red.
pub const BUILTIN_PACKAGE_PREFIXES: &[&str] = &[
    "android.",
    "dalvik.",
    "java.",
    "javax.",
    "junit.",
    "org.apache.http.",
    "org.json.",
    "org.w3c.dom.",
    "org.xml.sax.",
    "org.xmlpull.v1.",
    // Non-public framework internals (ZygoteInit and friends) sit at
    // the bottom of every main-thread stack; the API-25 class index the
    // filter derives from treats them as built-in, unlike the *bundled*
    // com.android.okhttp / com.android.volley code that stays
    // attributable.
    "com.android.internal.",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn android_okhttp_chain_matches_listing1() {
        let chain = connector_chain(Connector::AndroidOkHttp);
        assert_eq!(chain.len(), 10);
        assert_eq!(
            chain[0],
            "com.android.okhttp.internal.huc.HttpURLConnectionImpl.connect"
        );
        assert_eq!(*chain.last().unwrap(), "java.net.Socket.connect");
    }

    #[test]
    fn every_chain_ends_at_socket_connect() {
        for connector in [
            Connector::AndroidOkHttp,
            Connector::ApacheHttp,
            Connector::DirectSocket,
        ] {
            assert_eq!(
                *connector_chain(connector).last().unwrap(),
                "java.net.Socket.connect"
            );
        }
    }

    #[test]
    fn dispatcher_bases_are_builtin_but_okhttp_chain_is_not() {
        let is_builtin = |name: &str| BUILTIN_PACKAGE_PREFIXES.iter().any(|p| name.starts_with(p));
        for dispatcher in [
            Dispatcher::AsyncTask,
            Dispatcher::Thread,
            Dispatcher::Executor,
        ] {
            for frame in dispatcher_base(dispatcher) {
                assert!(is_builtin(frame), "{frame} must be builtin");
            }
        }
        // Footnote 2 keeps com.android.* attributable (Figure 3's red
        // bars), while apache/java frames are filtered.
        for frame in connector_chain(Connector::ApacheHttp) {
            assert!(is_builtin(frame), "{frame} must be builtin");
        }
        assert!(connector_chain(Connector::AndroidOkHttp)
            .iter()
            .any(|f| !is_builtin(f)));
    }

    #[test]
    fn asynctask_base_matches_listing1_tail() {
        assert_eq!(
            dispatcher_base(Dispatcher::AsyncTask),
            &[
                "java.util.concurrent.FutureTask.run",
                "android.os.AsyncTask$2.call"
            ]
        );
    }

    #[test]
    fn frame_builders_mirror_chains() {
        assert_eq!(
            connector_frames(Connector::DirectSocket),
            vec![Frame::new("java.net.Socket.connect")]
        );
        assert_eq!(
            dispatcher_frames(Dispatcher::Thread),
            vec![Frame::new("java.lang.Thread.run")]
        );
    }
}
