//! The UI exerciser: an `adb monkey` stand-in.
//!
//! Libspector drives every app with the Android monkey — 1,000 random UI
//! events with 500 ms throttling (§II-B3) — because app behaviour,
//! including network activity, is overwhelmingly triggered from UI
//! callbacks. Coverage therefore depends on the *statistics* of random
//! event injection, which is what this crate reproduces:
//!
//! * [`ui`] — a widget-tree view of the app derived from its manifest:
//!   activities, their `onCreate` chains, and the handler methods their
//!   widgets dispatch to;
//! * [`monkey`] — the seeded random event generator with the stock
//!   monkey's event classes (touch, motion, key, app switch, …), a
//!   configurable event count and the paper's fixed 500 ms throttle.
//!
//! # Examples
//!
//! ```no_run
//! use spector_monkey::monkey::{Monkey, MonkeyConfig};
//! use spector_monkey::ui::UiModel;
//! # fn demo(manifest: &spector_dex::Manifest, runtime: &mut spector_runtime::Runtime) {
//! let ui = UiModel::from_manifest(manifest);
//! let mut monkey = Monkey::new(MonkeyConfig { events: 1_000, seed: 42 });
//! let report = monkey.run(runtime, &ui);
//! assert_eq!(report.events_issued, 1_000);
//! # }
//! ```

pub mod monkey;
pub mod ui;

pub use monkey::{Monkey, MonkeyConfig, MonkeyReport};
pub use ui::UiModel;
