//! The Xposed-like instrumentation layer: Socket Supervisor.
//!
//! Libspector's Socket Supervisor is "a custom module for the Xposed
//! Framework" (§II-B2): it places *post* hooks on `socket`/`connect`,
//! captures the active stack trace via `getStackTrace`, translates each
//! frame's dotted name back to a full method *type signature* using the
//! app's parsed dex files, obtains the connection's 4-tuple through
//! `getsockname`/`getpeername` (exposed over JNI by a small shared
//! library), and ships one UDP datagram per socket to the collection
//! servers — containing the apk's SHA-256, the 4-tuple, and the
//! translated stack.
//!
//! This crate reproduces all of that against the simulated runtime:
//!
//! * [`report`] — the binary wire format of the supervisor's UDP
//!   datagrams (encode on the device side, parse on the collector side);
//! * [`ledger`] — the wire format of the end-of-run sampling-ledger
//!   datagram the supervisor emits when sampled tracing is enabled;
//! * [`supervisor`] — the hook module itself, implementing
//!   [`spector_runtime::RuntimeHook`], and the collection-server side:
//!   the per-payload step [`Collected::decode`] (sampling ledger, lost
//!   ledger, report, or classified report error) that the offline
//!   pipeline folds ([`decode_reports_classified`]) and each live shard
//!   calls frame by frame.
//!
//! Because the supervisor sends its reports through the same emulator
//! network stack the app uses, the datagrams land in the same packet
//! capture — the offline pipeline must recognize and exclude them, just
//! as the original analysis excluded Libspector's own UDP traffic.

pub mod ledger;
pub mod report;
pub mod supervisor;

pub use ledger::{LedgerRecord, LEDGER_MAGIC, LEDGER_WIRE_LEN};
pub use report::{ReportErrorKind, ReportParseError, SocketReport, REPORT_MAGIC};
pub use supervisor::{
    decode_reports_classified, extract_reports, Collected, CollectorStats, SocketSupervisor,
    SupervisorConfig,
};
