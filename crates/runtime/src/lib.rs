//! ART-like application runtime for Libspector.
//!
//! The original system modifies the Android 7.1.1 framework in two
//! places: the ART runtime's method tracing (so the Android Profiler
//! records *unique* methods instead of overflowing its buffer with
//! repeats), and — via an Xposed module — the socket/connect path (so
//! every connection's Java stack trace can be captured). This crate is
//! the runtime those modifications live in:
//!
//! * [`stack`] — Java-like call stacks whose snapshots have the exact
//!   shape of `Throwable.getStackTrace()` output (dotted
//!   `package.Class.method` frames, most recent first);
//! * [`profiler`] — the Method Monitor's trace backend, with both the
//!   stock bounded-buffer mode (which demonstrably overflows) and the
//!   paper's modified unique-method mode;
//! * [`framework`] — the built-in client chains (`com.android.okhttp`,
//!   `org.apache.http`, raw `java.net.Socket`) and async dispatchers
//!   (`AsyncTask`, `Thread`, executors) whose frames sandwich app code
//!   in every network stack trace;
//! * [`hook`] — the hook points the Xposed-like layer attaches to
//!   (post-hooks on socket connect);
//! * [`runtime`] — the interpreter that drives an app's dex code,
//!   scheduling async tasks and performing network operations against
//!   the simulated [`spector_netsim`] stack.

pub mod framework;
pub mod hook;
pub mod profiler;
pub mod runtime;
pub mod stack;

pub use hook::{ConnectVerdict, HookContext, RuntimeHook};
pub use profiler::{MethodTrace, Profiler, TraceMode};
pub use runtime::{Runtime, RuntimeConfig, RuntimeStats};
pub use stack::CallStack;
