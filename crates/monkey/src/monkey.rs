//! The seeded random UI event generator.
//!
//! Mirrors the stock `adb monkey`: a pseudo-random stream of UI events
//! with a fixed inter-event throttle, no model of what the app actually
//! shows (taps land on random positions, so some hit nothing). The paper
//! issues 1,000 events at 500 ms and observes that, because of the
//! randomness, measured coverage is a *lower bound* — reproduced here by
//! the miss probability and unweighted handler choice.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spector_runtime::Runtime;

use crate::ui::UiModel;

/// Classes of injected events, mirroring the monkey's event buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Touch press/release on a random coordinate.
    Touch,
    /// Motion (drag/swipe) gesture.
    Motion,
    /// Key press (volume, dpad, …).
    Key,
    /// Activity switch (launch another of the app's activities).
    AppSwitch,
    /// System keys (back), which can pop to the previous activity.
    Back,
}

/// Monkey settings. Defaults match the paper's experimental setup.
#[derive(Debug, Clone)]
pub struct MonkeyConfig {
    /// Number of events to inject.
    pub events: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MonkeyConfig {
    fn default() -> Self {
        MonkeyConfig {
            events: 1_000,
            seed: 0,
        }
    }
}

/// Throttle between events, in milliseconds: the paper's 500 ms.
const THROTTLE_MS: u64 = 500;

/// Probability that a touch lands on a live widget.
const TOUCH_HIT_PROBABILITY: f64 = 0.45;

/// What a monkey run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonkeyReport {
    /// Events injected (equals the configured count).
    pub events_issued: u32,
    /// Handler methods actually dispatched.
    pub handlers_invoked: u32,
    /// Activity launches (including the initial one).
    pub activities_started: u32,
    /// Events that hit no live widget.
    pub misses: u32,
}

/// The exerciser. One instance drives one app session.
#[derive(Debug)]
pub struct Monkey {
    config: MonkeyConfig,
    rng: SmallRng,
}

impl Monkey {
    /// Creates a monkey with the given configuration.
    pub fn new(config: MonkeyConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        Monkey { config, rng }
    }

    fn pick_event(&mut self) -> EventKind {
        // Stock monkey default mix, coarsened to our event classes:
        // touch-heavy with occasional navigation.
        let roll: f64 = self.rng.gen();
        if roll < 0.55 {
            EventKind::Touch
        } else if roll < 0.75 {
            EventKind::Motion
        } else if roll < 0.85 {
            EventKind::Key
        } else if roll < 0.93 {
            EventKind::AppSwitch
        } else {
            EventKind::Back
        }
    }

    /// Runs the configured number of events against `runtime`, driving
    /// the app's UI as described by `ui`. Launches the main activity
    /// first (running its `onCreate` chain — app startup is where the
    /// paper observed AnT libraries already generating traffic).
    pub fn run(&mut self, runtime: &mut Runtime, ui: &UiModel) -> MonkeyReport {
        let mut report = MonkeyReport::default();
        let mut activity_stack: Vec<usize> = Vec::new();

        if !ui.is_empty() {
            self.start_activity(runtime, ui, 0, &mut activity_stack, &mut report);
        }

        for _ in 0..self.config.events {
            report.events_issued += 1;
            runtime.net().clock().advance_millis(THROTTLE_MS);
            let Some(&current) = activity_stack.last() else {
                report.misses += 1;
                continue;
            };
            let activity = &ui.activities()[current];
            match self.pick_event() {
                EventKind::Touch | EventKind::Motion => {
                    let hit = !activity.handlers.is_empty()
                        && self.rng.gen::<f64>() < TOUCH_HIT_PROBABILITY;
                    if hit {
                        let idx = self.rng.gen_range(0..activity.handlers.len());
                        if runtime.invoke_entry(&activity.handlers[idx]) {
                            report.handlers_invoked += 1;
                        } else {
                            report.misses += 1;
                        }
                    } else {
                        report.misses += 1;
                    }
                }
                EventKind::Key => {
                    // Key events rarely map to app handlers; count as a
                    // miss unless the screen has a handler to reuse.
                    report.misses += 1;
                }
                EventKind::AppSwitch => {
                    if ui.len() > 1 {
                        let next = self.rng.gen_range(0..ui.len());
                        if next != current {
                            self.start_activity(
                                runtime,
                                ui,
                                next,
                                &mut activity_stack,
                                &mut report,
                            );
                            continue;
                        }
                    }
                    report.misses += 1;
                }
                EventKind::Back => {
                    if activity_stack.len() > 1 {
                        activity_stack.pop();
                    } else {
                        report.misses += 1;
                    }
                }
            }
        }
        report
    }

    fn start_activity(
        &mut self,
        runtime: &mut Runtime,
        ui: &UiModel,
        index: usize,
        activity_stack: &mut Vec<usize>,
        report: &mut MonkeyReport,
    ) {
        activity_stack.push(index);
        report.activities_started += 1;
        for sig in &ui.activities()[index].on_create {
            if runtime.invoke_entry(sig) {
                report.handlers_invoked += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::apk::{ActivityDecl, Manifest};
    use spector_dex::model::{CodeItem, DexFile, Instruction, MethodDef, SigIndex};
    use spector_dex::sig::MethodSig;
    use spector_netsim::clock::Clock;
    use spector_netsim::stack::NetStack;
    use spector_runtime::RuntimeConfig;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn sig(class: &str, m: &str) -> MethodSig {
        MethodSig::new("com.app", class, m, "()V")
    }

    fn app() -> (DexFile, Manifest) {
        let methods = vec![
            MethodDef {
                sig: sig("Main", "onCreate"),
                code: CodeItem {
                    instructions: vec![Instruction::Const(1), Instruction::Return],
                },
            },
            MethodDef {
                sig: sig("Main", "onClick"),
                code: CodeItem {
                    instructions: vec![Instruction::Const(2), Instruction::Return],
                },
            },
            MethodDef {
                sig: sig("Settings", "onToggle"),
                code: CodeItem {
                    instructions: vec![Instruction::Const(3), Instruction::Return],
                },
            },
        ];
        let manifest = Manifest {
            package: "com.app".into(),
            version_code: 1,
            category: "TOOLS".into(),
            dex_timestamp: 1,
            vt_scan_date: None,
            application_on_create: vec![],
            activities: vec![
                ActivityDecl {
                    class: "com.app.Main".into(),
                    handlers: vec![sig("Main", "onClick")],
                    on_create: vec![sig("Main", "onCreate")],
                },
                ActivityDecl {
                    class: "com.app.Settings".into(),
                    handlers: vec![sig("Settings", "onToggle")],
                    on_create: vec![],
                },
            ],
        };
        (
            DexFile {
                methods,
                classes: vec![],
            },
            manifest,
        )
    }

    fn runtime(dex: DexFile) -> Runtime {
        Runtime::new(
            Arc::new(SigIndex::new(Arc::new(dex))),
            NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15)),
            RuntimeConfig::default(),
        )
    }

    #[test]
    fn run_issues_exact_event_count_and_advances_clock() {
        let (dex, manifest) = app();
        let mut rt = runtime(dex);
        let ui = UiModel::from_manifest(&manifest);
        let mut monkey = Monkey::new(MonkeyConfig {
            events: 100,
            seed: 7,
        });
        let report = monkey.run(&mut rt, &ui);
        assert_eq!(report.events_issued, 100);
        // 100 events * 500ms throttle = at least 50 virtual seconds.
        assert!(rt.net().clock().now_micros() >= 50_000_000);
        assert!(report.activities_started >= 1);
    }

    #[test]
    fn same_seed_same_outcome() {
        let reports: Vec<MonkeyReport> = (0..2)
            .map(|_| {
                let (dex, manifest) = app();
                let mut rt = runtime(dex);
                let ui = UiModel::from_manifest(&manifest);
                Monkey::new(MonkeyConfig {
                    events: 200,
                    seed: 99,
                })
                .run(&mut rt, &ui)
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let run = |seed| {
            let (dex, manifest) = app();
            let mut rt = runtime(dex);
            let ui = UiModel::from_manifest(&manifest);
            Monkey::new(MonkeyConfig { events: 300, seed }).run(&mut rt, &ui)
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn handlers_actually_dispatch_into_runtime() {
        let (dex, manifest) = app();
        let mut rt = runtime(dex);
        let ui = UiModel::from_manifest(&manifest);
        let mut monkey = Monkey::new(MonkeyConfig {
            events: 500,
            seed: 3,
        });
        let report = monkey.run(&mut rt, &ui);
        assert!(report.handlers_invoked > 0);
        // onCreate of Main ran, so it must appear in the trace.
        let on_create = rt
            .dex()
            .signatures()
            .position(|s| *s == sig("Main", "onCreate"))
            .unwrap() as u32;
        assert!(rt.method_trace().contains(on_create));
    }

    #[test]
    fn empty_ui_only_misses() {
        let (dex, mut manifest) = app();
        manifest.activities.clear();
        let mut rt = runtime(dex);
        let ui = UiModel::from_manifest(&manifest);
        let report = Monkey::new(MonkeyConfig {
            events: 50,
            seed: 1,
        })
        .run(&mut rt, &ui);
        assert_eq!(report.misses, 50);
        assert_eq!(report.handlers_invoked, 0);
        assert_eq!(report.activities_started, 0);
    }

    #[test]
    fn more_events_cover_no_fewer_methods() {
        let coverage = |events| {
            let (dex, manifest) = app();
            let mut rt = runtime(dex);
            let ui = UiModel::from_manifest(&manifest);
            Monkey::new(MonkeyConfig { events, seed: 5 }).run(&mut rt, &ui);
            rt.method_trace().len()
        };
        assert!(coverage(2_000) >= coverage(10));
    }
}
