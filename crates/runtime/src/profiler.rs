//! The Method Monitor's trace backend.
//!
//! Android's stock profiler (driven through the Activity Manager API)
//! writes every method entry/exit event into a user-sized buffer, which
//! the paper found "is filled within seconds of app initialization"
//! because listeners record *repeated* calls. Libspector modifies the
//! ART runtime so the profiler records each method only the first time
//! the app calls it.
//!
//! Both behaviours are implemented here so the difference is measurable:
//! [`TraceMode::StockBuffer`] drops events once full (and counts the
//! loss); [`TraceMode::UniqueMethods`] is the paper's modification.
//!
//! The interpreter names a method the app defines by its id in the
//! dex's method table, so an entry records a number, not a signature;
//! only framework methods are recorded by signature. At the end of a
//! run, [`Profiler::trace`] folds the record into a [`MethodTrace`]: a
//! bitset over the defined ids plus the framework signatures, which is
//! what coverage counts.

use std::collections::HashSet;

use spector_dex::model::SigIndex;
use spector_dex::sig::MethodSig;

/// Profiler recording behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Stock Android: every entry event is buffered, up to a capacity;
    /// once the buffer is full further events are dropped.
    StockBuffer {
        /// Maximum number of buffered events.
        capacity: usize,
    },
    /// Libspector's modified ART: record each unique method once.
    UniqueMethods,
}

/// A method as the profiler saw it entered.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TracedMethod {
    /// A method the app's dex defines, by its id in the method table.
    Defined(u32),
    /// A framework method, by signature.
    Framework(MethodSig),
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Entered method.
    pub method: TracedMethod,
    /// Virtual timestamp (microseconds).
    pub timestamp_micros: u64,
}

/// The method-trace recorder attached to a runtime.
///
/// Defined methods are recorded by id; in unique mode a bitset over
/// the ids says which were already seen, so an entry costs a bit test.
/// Framework methods, which the dex does not number, are recorded by
/// signature.
#[derive(Debug, Clone)]
pub struct Profiler {
    mode: TraceMode,
    events: Vec<TraceEvent>,
    /// Unique mode: one bit per defined method id already recorded.
    seen_defined: Vec<u64>,
    /// Unique mode: framework methods already recorded.
    seen_framework: HashSet<MethodSig>,
    /// Entry events that arrived after the stock buffer filled.
    dropped: u64,
    /// Total method-entry events offered (including repeats/drops).
    offered: u64,
}

impl Profiler {
    /// Creates a profiler in the given mode.
    pub fn new(mode: TraceMode) -> Self {
        Profiler {
            mode,
            events: Vec::new(),
            seen_defined: Vec::new(),
            seen_framework: HashSet::new(),
            dropped: 0,
            offered: 0,
        }
    }

    /// Records an entry into defined method `id` at `timestamp_micros`.
    pub fn on_method_entry(&mut self, id: u32, timestamp_micros: u64) {
        let first = self.mode != TraceMode::UniqueMethods || set_bit(&mut self.seen_defined, id);
        if first {
            self.record(TracedMethod::Defined(id), timestamp_micros);
        } else {
            self.offered += 1;
        }
    }

    /// Records an entry into framework method `sig` at
    /// `timestamp_micros`.
    pub fn on_framework_entry(&mut self, sig: &MethodSig, timestamp_micros: u64) {
        let first = self.mode != TraceMode::UniqueMethods || !self.seen_framework.contains(sig);
        if !first {
            self.offered += 1;
            return;
        }
        if self.mode == TraceMode::UniqueMethods {
            self.seen_framework.insert(sig.clone());
        }
        self.record(TracedMethod::Framework(sig.clone()), timestamp_micros);
    }

    /// Counts an entry that unique mode has not seen before (or any
    /// entry in stock mode) and buffers it while there is room.
    fn record(&mut self, method: TracedMethod, timestamp_micros: u64) {
        self.offered += 1;
        match self.mode {
            TraceMode::StockBuffer { capacity } if self.events.len() >= capacity => {
                self.dropped += 1;
            }
            _ => self.events.push(TraceEvent {
                method,
                timestamp_micros,
            }),
        }
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The distinct methods recorded — what the modified framework
    /// writes to the trace file at the end of an experiment — over the
    /// dex `index` covers. A framework reference that names a method
    /// the dex defines counts as that method.
    pub fn trace(&self, index: &SigIndex) -> MethodTrace {
        let mut trace = MethodTrace {
            method_count: index.len(),
            executed: vec![0; index.len().div_ceil(64)],
            framework: HashSet::new(),
        };
        for event in &self.events {
            match &event.method {
                TracedMethod::Defined(id) => {
                    set_bit(&mut trace.executed, *id);
                }
                TracedMethod::Framework(sig) => match index.find(sig) {
                    Some(id) => {
                        set_bit(&mut trace.executed, id);
                    }
                    None => {
                        trace.framework.insert(sig.clone());
                    }
                },
            }
        }
        trace
    }

    /// Events dropped due to a full stock buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total entry events offered, including repeats and drops.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The configured mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }
}

/// Sets bit `id`, growing `bits` as needed; returns `true` when it was
/// clear.
fn set_bit(bits: &mut Vec<u64>, id: u32) -> bool {
    let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    let clear = bits[word] & bit == 0;
    bits[word] |= bit;
    clear
}

/// The distinct methods one run entered: the methods its dex defines as
/// a bitset over their ids, framework methods by signature.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodTrace {
    /// Methods the dex defines (the bitset's width).
    method_count: usize,
    /// Bit `id` set when defined method `id` was entered.
    executed: Vec<u64>,
    /// Framework methods entered that the dex does not define.
    framework: HashSet<MethodSig>,
}

impl MethodTrace {
    /// Number of methods the run's dex defines.
    pub fn method_count(&self) -> usize {
        self.method_count
    }

    /// Number of distinct defined methods entered: the popcount of the
    /// executed set, every bit of which lies among the defined ids.
    pub fn executed(&self) -> usize {
        self.executed.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether defined method `id` was entered.
    pub fn contains(&self, id: u32) -> bool {
        self.executed
            .get(id as usize / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Framework methods entered, by signature.
    pub fn framework(&self) -> &HashSet<MethodSig> {
        &self.framework
    }

    /// Number of distinct methods entered, defined and framework.
    pub fn len(&self) -> usize {
        self.executed() + self.framework.len()
    }

    /// Returns `true` when no method was entered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::model::{CodeItem, DexFile, MethodDef};
    use std::sync::Arc;

    fn sig(n: u32) -> MethodSig {
        MethodSig::new("com.app", "C", &format!("m{n}"), "()V")
    }

    /// An index over a dex defining methods `m0..m{n}`.
    fn index(n: u32) -> SigIndex {
        let methods = (0..n)
            .map(|i| MethodDef {
                sig: sig(i),
                code: CodeItem::default(),
            })
            .collect();
        SigIndex::new(Arc::new(DexFile {
            methods,
            classes: vec![],
        }))
    }

    #[test]
    fn unique_mode_dedupes_repeats() {
        let mut p = Profiler::new(TraceMode::UniqueMethods);
        for t in 0..100 {
            p.on_method_entry(t % 5, u64::from(t));
        }
        assert_eq!(p.events().len(), 5);
        assert_eq!(p.trace(&index(5)).len(), 5);
        assert_eq!(p.offered(), 100);
        assert_eq!(p.dropped(), 0);
        // First-call timestamps are retained.
        assert_eq!(p.events()[0].timestamp_micros, 0);
        assert_eq!(p.events()[4].timestamp_micros, 4);
    }

    #[test]
    fn stock_buffer_overflows_and_loses_methods() {
        let mut p = Profiler::new(TraceMode::StockBuffer { capacity: 10 });
        // A hot loop on one method fills the buffer before a *new*
        // method appears — the failure mode the paper describes.
        for t in 0..10 {
            p.on_method_entry(0, t);
        }
        p.on_method_entry(1, 10);
        assert_eq!(p.dropped(), 1);
        // The unique set from the stock buffer misses method 1 entirely.
        assert_eq!(p.trace(&index(2)).len(), 1);
        // The modified mode would have captured both.
        let mut modified = Profiler::new(TraceMode::UniqueMethods);
        for t in 0..10 {
            modified.on_method_entry(0, t);
        }
        modified.on_method_entry(1, 10);
        assert_eq!(modified.trace(&index(2)).len(), 2);
    }

    #[test]
    fn stock_buffer_records_repeats_within_capacity() {
        let mut p = Profiler::new(TraceMode::StockBuffer { capacity: 100 });
        for t in 0..6 {
            p.on_method_entry((t % 2) as u32, t);
        }
        assert_eq!(p.events().len(), 6); // repeats are kept
        assert_eq!(p.trace(&index(2)).len(), 2);
    }

    #[test]
    fn framework_references_to_defined_methods_count_as_those_methods() {
        let socket = MethodSig::new("java.net", "Socket", "connect", "()V");
        for mode in [
            TraceMode::UniqueMethods,
            TraceMode::StockBuffer { capacity: 100 },
        ] {
            let mut p = Profiler::new(mode);
            p.on_method_entry(0, 0);
            p.on_framework_entry(&sig(0), 1); // defined: folds into id 0
            p.on_framework_entry(&sig(2), 2); // defined, never entered by id
            p.on_framework_entry(&socket, 3);
            p.on_framework_entry(&socket, 4);
            let trace = p.trace(&index(3));
            assert_eq!(trace.method_count(), 3);
            assert_eq!(trace.executed(), 2, "{mode:?}");
            assert!(trace.contains(0) && !trace.contains(1) && trace.contains(2));
            assert_eq!(trace.framework(), &HashSet::from([socket.clone()]));
            assert_eq!(trace.len(), 3);
        }
    }

    #[test]
    fn mode_accessor() {
        let p = Profiler::new(TraceMode::UniqueMethods);
        assert_eq!(p.mode(), TraceMode::UniqueMethods);
    }
}
