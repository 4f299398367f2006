//! Java method coverage (§IV-C).
//!
//! Coverage is "the ratio of method signatures which are listed in the
//! method trace file and available in the app's respective dex file
//! divided by the total number of methods in the dex file". The trace
//! includes native/framework API calls, which is why the intersection
//! with the dex's own signatures matters.
//!
//! The run's [`MethodTrace`] already keeps the two apart: the methods
//! the dex defines are a bitset over their ids (a framework reference
//! that names a defined method was folded into its bit), the rest are
//! framework signatures. Coverage is the bitset's popcount over the
//! dex's method count; no signature is compared.

use serde::{Deserialize, Serialize};
use spector_runtime::MethodTrace;

/// Per-app coverage numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Methods defined in the apk's dex.
    pub total_methods: usize,
    /// Distinct traced methods that are defined in the dex.
    pub executed_methods: usize,
    /// Distinct traced methods *not* in the dex (framework calls).
    pub external_methods: usize,
}

impl CoverageReport {
    /// Coverage ratio in `[0, 1]`; zero for an empty dex.
    pub fn ratio(&self) -> f64 {
        if self.total_methods == 0 {
            0.0
        } else {
            self.executed_methods as f64 / self.total_methods as f64
        }
    }

    /// Coverage as a percentage.
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }
}

/// Computes coverage from a run's method trace: popcount(executed ∩
/// defined) over the defined method count.
pub fn compute_coverage(trace: &MethodTrace) -> CoverageReport {
    CoverageReport {
        total_methods: trace.method_count(),
        executed_methods: trace.executed(),
        external_methods: trace.framework().len(),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    use spector_corpus::{AppGenConfig, Corpus, CorpusConfig};
    use spector_dex::model::{CodeItem, DexFile, Instruction, MethodDef, MethodRef, SigIndex};
    use spector_dex::sig::MethodSig;
    use spector_monkey::monkey::{Monkey, MonkeyConfig};
    use spector_monkey::ui::UiModel;
    use spector_netsim::clock::Clock;
    use spector_netsim::stack::NetStack;
    use spector_runtime::profiler::{TraceEvent, TracedMethod};
    use spector_runtime::{Profiler, Runtime, RuntimeConfig, TraceMode};

    use super::*;

    /// The set-based definition, kept as the reference: the traced
    /// signatures that the dex's signature set also holds.
    fn reference_coverage(
        traced: &HashSet<MethodSig>,
        dex_signatures: &HashSet<MethodSig>,
    ) -> CoverageReport {
        let executed_methods = traced.intersection(dex_signatures).count();
        CoverageReport {
            total_methods: dex_signatures.len(),
            executed_methods,
            external_methods: traced.len() - executed_methods,
        }
    }

    /// The signatures of every recorded event, read without the fold
    /// `Profiler::trace` performs: the trace file the set-based
    /// reference counted over.
    fn traced_signatures(events: &[TraceEvent], dex: &DexFile) -> HashSet<MethodSig> {
        events
            .iter()
            .map(|event| match &event.method {
                TracedMethod::Defined(id) => dex.methods[*id as usize].sig.clone(),
                TracedMethod::Framework(sig) => sig.clone(),
            })
            .collect()
    }

    /// The bitset coverage of a profile over `index`'s dex, and the
    /// reference over the same events.
    fn both(profiler: &Profiler, index: &SigIndex) -> (CoverageReport, CoverageReport) {
        let dex_signatures = index.dex().signatures().cloned().collect();
        (
            compute_coverage(&profiler.trace(index)),
            reference_coverage(
                &traced_signatures(profiler.events(), index.dex()),
                &dex_signatures,
            ),
        )
    }

    /// [`both`] for a runtime's run so far.
    fn both_of(rt: &Runtime) -> (CoverageReport, CoverageReport) {
        let index = SigIndex::build(rt.dex());
        let (report, reference) = both(rt.profiler(), &index);
        assert_eq!(report, compute_coverage(&rt.method_trace()));
        (report, reference)
    }

    fn sig(n: u32) -> MethodSig {
        MethodSig::new("com.app", "C", &format!("m{n}"), "()V")
    }

    fn runtime(dex: DexFile, trace_mode: TraceMode) -> Runtime {
        Runtime::new(
            Arc::new(SigIndex::new(Arc::new(dex))),
            NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15)),
            RuntimeConfig {
                trace_mode,
                ..RuntimeConfig::default()
            },
        )
    }

    /// `methods` empty methods named `m0..`, method 0 running `code`.
    fn dex(methods: u32, code: Vec<Instruction>) -> DexFile {
        let mut dex = DexFile {
            methods: (0..methods)
                .map(|i| MethodDef {
                    sig: sig(i),
                    code: CodeItem::default(),
                })
                .collect(),
            classes: vec![],
        };
        dex.methods[0].code.instructions = code;
        dex
    }

    const MODES: [TraceMode; 2] = [
        TraceMode::UniqueMethods,
        TraceMode::StockBuffer { capacity: 64 },
    ];

    #[test]
    fn coverage_is_intersection_over_dex() {
        // m0 calls m1..m9 and one framework method.
        let mut code: Vec<_> = (1..10)
            .map(|i| Instruction::Invoke(MethodRef::Internal(i)))
            .collect();
        code.push(Instruction::Invoke(MethodRef::External(MethodSig::new(
            "java.net", "Socket", "connect", "()V",
        ))));
        let mut rt = runtime(dex(100, code), TraceMode::UniqueMethods);
        assert!(rt.invoke_entry(&sig(0)));
        let (report, reference) = both_of(&rt);
        assert_eq!(report, reference);
        assert_eq!(report.total_methods, 100);
        assert_eq!(report.executed_methods, 10);
        assert_eq!(report.external_methods, 1);
        assert!((report.ratio() - 0.10).abs() < 1e-12);
        assert!((report.percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dex_is_zero_coverage() {
        let report = compute_coverage(&MethodTrace::default());
        assert_eq!(report.ratio(), 0.0);
        assert_eq!(report.total_methods, 0);
        assert_eq!(report, reference_coverage(&HashSet::new(), &HashSet::new()));
    }

    #[test]
    fn full_coverage() {
        let code = (1..5)
            .map(|i| Instruction::Invoke(MethodRef::Internal(i)))
            .collect();
        let mut rt = runtime(dex(5, code), TraceMode::UniqueMethods);
        rt.invoke_entry(&sig(0));
        let (report, reference) = both_of(&rt);
        assert_eq!(report, reference);
        assert!((report.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn external_reference_to_a_defined_method_counts_as_that_method() {
        // m0 reaches m1 only through an external invoke naming it, and
        // m2 both ways; each counts once, as a defined method.
        let code = vec![
            Instruction::Invoke(MethodRef::External(sig(1))),
            Instruction::Invoke(MethodRef::External(sig(2))),
            Instruction::Invoke(MethodRef::Internal(2)),
        ];
        for mode in MODES {
            let mut rt = runtime(dex(4, code.clone()), mode);
            rt.invoke_entry(&sig(0));
            let (report, reference) = both_of(&rt);
            assert_eq!(report, reference, "{mode:?}");
            assert_eq!(
                (report.executed_methods, report.external_methods),
                (3, 0),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn a_run_of_framework_calls_only_covers_nothing() {
        let index = SigIndex::new(Arc::new(dex(3, vec![])));
        for mode in MODES {
            let mut profiler = Profiler::new(mode);
            for (t, name) in ["a", "b", "c", "a"].into_iter().enumerate() {
                let method = MethodSig::new("android.os", "Looper", name, "()V");
                profiler.on_framework_entry(&method, t as u64);
            }
            let (report, reference) = both(&profiler, &index);
            assert_eq!(report, reference, "{mode:?}");
            assert_eq!(
                (
                    report.total_methods,
                    report.executed_methods,
                    report.external_methods
                ),
                (3, 0, 3)
            );
        }
    }

    #[test]
    fn bitset_coverage_equals_the_set_reference_on_corpus_runs() {
        let corpus = Corpus::generate(&CorpusConfig {
            apps: 6,
            seed: 41,
            appgen: AppGenConfig {
                method_scale: 0.01,
                ..Default::default()
            },
            ..Default::default()
        });
        for mode in MODES {
            for app in &corpus.apps {
                let dex = Arc::new(app.apk.dex().unwrap().to_dex());
                let manifest = app.apk.manifest().unwrap();
                let mut rt = Runtime::new(
                    Arc::new(SigIndex::new(dex)),
                    NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15)),
                    RuntimeConfig {
                        trace_mode: mode,
                        ..RuntimeConfig::default()
                    },
                );
                for entry in &manifest.application_on_create {
                    rt.invoke_entry(entry);
                }
                Monkey::new(MonkeyConfig {
                    events: 120,
                    seed: 3,
                })
                .run(&mut rt, &UiModel::from_manifest(&manifest));
                let (report, reference) = both_of(&rt);
                assert_eq!(report, reference, "{} {mode:?}", app.package);
                assert!(report.executed_methods > 0, "{}", app.package);
            }
        }
    }
}
