//! Structural, rename-invariant feature extraction over dex subtrees.
//!
//! The exact fingerprint in `spector-libradar` hashes identifier strings,
//! so it dies the moment an obfuscator renames a package or mangles a
//! class name. This module computes the evidence that *survives*
//! obfuscation: per-package-subtree profiles built only from quantities an
//! identifier-renaming obfuscator cannot change —
//!
//! * **abstracted method signatures**: the type descriptor reduced to
//!   shape classes (every object type collapses to `L`, arrays keep their
//!   `[` depth, primitives keep their letter) combined with the method's
//!   package depth *relative to the subtree root*,
//! * **per-method opcode histograms** over the semantic instruction set
//!   (invokes split internal/external, async schedules, network ops,
//!   returns) — `Nop`/`Const` filler is deliberately excluded so junk
//!   no-op injection is invisible,
//! * **invoke-graph features**: per-method in/out-degree over the
//!   intra-subtree call graph, plus subtree totals for cross-class edges
//!   and method count (log2-bucketed so a handful of filler methods does
//!   not move them).
//!
//! Each feature is hashed to a `u64` and the profile is the sorted
//! multiset of those hashes. Profiles are deterministic: same dex, same
//! prefix → same profile, independent of method-table order.
//!
//! [`FeatureTable`] is the one extractor: both detection tiers read it,
//! to register known libraries as well as to detect them in apps. It
//! reads a dex view; its [`PackageTree`] indexes every package subtree
//! of the dex once, so no prefix rescans the method table, and it
//! computes each method's features at most once, on first use: its
//! exact-fingerprint line, descriptor shape, opcode histogram, distinct
//! internal callees and class path. A library is registered under the
//! subtree [`PackageTree::find`] names, so registration and detection
//! fingerprint and profile alike. A single-prefix profile computed from
//! scratch over an owned dex is kept in test code
//! (`tests/support/subtree.rs`) as the reference the table is held to.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::model::{FNV_OFFSET, FNV_PRIME};
use crate::view::{DexView, InstructionRef, TargetRef};

/// A structural profile of one package subtree: a sorted multiset of
/// hashed features.
///
/// Two subtrees with equal profiles are structurally indistinguishable to
/// this tier — which is the point: a library and its renamed/mangled copy
/// produce identical profiles.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StructuralProfile {
    /// `(feature hash, multiplicity)` pairs, sorted by hash.
    pub features: Vec<(u64, u32)>,
}

impl StructuralProfile {
    /// Total feature multiplicity (the multiset cardinality).
    pub fn total(&self) -> u64 {
        self.features.iter().map(|&(_, c)| u64::from(c)).sum()
    }

    /// Number of *distinct* feature hashes.
    pub fn distinct(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when the subtree produced no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

/// Incremental FNV-1a over tagged feature components.
#[derive(Clone, Copy)]
struct FeatureHasher(u64);

impl FeatureHasher {
    const fn new(tag: &str) -> Self {
        FeatureHasher(FNV_OFFSET).bytes(tag.as_bytes())
    }

    const fn bytes(mut self, bytes: &[u8]) -> Self {
        let mut at = 0;
        while at < bytes.len() {
            self.0 = (self.0 ^ bytes[at] as u64).wrapping_mul(FNV_PRIME);
            at += 1;
        }
        self
    }

    const fn num(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    const fn finish(self) -> u64 {
        self.0
    }
}

/// The invoke-degree feature of a method with `out` and `into` distinct
/// intra-subtree edges, each capped at 3.
const fn degree_feature(out: u64, into: u64) -> u64 {
    const fn cap(v: u64) -> u64 {
        if v < 3 {
            v
        } else {
            3
        }
    }
    FeatureHasher::new("deg")
        .num(cap(out))
        .num(cap(into))
        .finish()
}

/// [`degree_feature`] of every capped `(out, into)`, at `4 · out + into`.
const DEGREE_FEATURES: [u64; 16] = {
    let mut table = [0; 16];
    let mut at = 0;
    while at < 16 {
        table[at] = degree_feature(at as u64 / 4, at as u64 % 4);
        at += 1;
    }
    table
};

/// The abstracted-signature feature: relative depth × descriptor shape.
fn signature_feature(depth: u64, shape: &[u8]) -> u64 {
    FeatureHasher::new("sig").num(depth).bytes(shape).finish()
}

/// The opcode-histogram feature: the shape and the counts of internal
/// and external invokes, async invokes, network ops and returns.
/// Nop/Const are junk-injection targets and deliberately uncounted.
fn opcode_feature(shape: &[u8], counts: [u64; 5]) -> u64 {
    let mut h = FeatureHasher::new("opc").bytes(shape);
    for v in counts {
        h = h.num(v);
    }
    h.finish()
}

/// The subtree totals: cross-class edges and method count, each
/// log2-bucketed.
fn total_features(cross_class_edges: u64, methods: usize) -> [u64; 2] {
    [
        FeatureHasher::new("xce")
            .num(log2_bucket(cross_class_edges))
            .finish(),
        FeatureHasher::new("cnt")
            .num(log2_bucket(methods as u64))
            .finish(),
    ]
}

/// The opcode-histogram slot of an instruction (internal invoke,
/// external invoke, async invoke, network op, return), if it has one.
fn histogram_slot(inst: InstructionRef<'_>) -> Option<usize> {
    match inst {
        InstructionRef::Invoke(TargetRef::Internal(_)) => Some(0),
        InstructionRef::Invoke(TargetRef::External(_)) => Some(1),
        InstructionRef::InvokeAsync { .. } => Some(2),
        InstructionRef::Network(_) => Some(3),
        InstructionRef::Return => Some(4),
        InstructionRef::Nop | InstructionRef::Const(_) => None,
    }
}

/// Reduces a `(params)ret` descriptor to its shape class: object types
/// collapse to `L`, arrays keep their `[` markers, primitive letters and
/// the `()`/`V` structure survive unchanged.
///
/// Obfuscators rename *identifiers*; the framework types referenced by
/// descriptors, and a descriptor's arity/primitive structure, are fixed.
/// Collapsing objects to `L` keeps the shape stable even for tools that
/// rewrite app-local types in descriptors.
///
/// # Examples
///
/// ```
/// assert_eq!(spector_dex::features::shape_of("(Landroid/os/Bundle;I)V"), "(LI)V");
/// assert_eq!(
///     spector_dex::features::shape_of("([Ljava/lang/Object;)Ljava/lang/Object;"),
///     "([L)L"
/// );
/// ```
pub fn shape_of(descriptor: &str) -> String {
    let mut out = Vec::with_capacity(descriptor.len());
    push_shape(descriptor, &mut out);
    String::from_utf8(out).expect("a shape keeps whole chars")
}

/// Appends the [`shape_of`] `descriptor` to `out`.
fn push_shape(descriptor: &str, out: &mut Vec<u8>) {
    let bytes = descriptor.as_bytes();
    let mut idx = 0;
    while idx < bytes.len() {
        match bytes[idx] {
            b'L' => {
                out.push(b'L');
                while idx < bytes.len() && bytes[idx] != b';' {
                    idx += 1;
                }
                idx += 1; // past ';'
            }
            other => {
                out.push(other);
                idx += 1;
            }
        }
    }
}

/// A package path byte as the dotted package reads it: `/` as `.`.
fn dotted(b: u8) -> u8 {
    if b == b'/' {
        b'.'
    } else {
        b
    }
}

/// Whether a package path byte separates components: a `/`, or a `.`
/// inside a smali component.
fn is_separator(b: u8) -> bool {
    b == b'.' || b == b'/'
}

/// log2-style bucket for subtree totals: 0, 1, 2, 3-4, 5-8, 9-16, ...
fn log2_bucket(n: u64) -> u64 {
    match n {
        0 => 0,
        _ => 64 - (n - 1).leading_zeros() as u64 + 1,
    }
}

/// Whether two class paths (a signature's smali up to its `;->`) have
/// equal [`MethodSig::dotted_class`](crate::sig::MethodSig::dotted_class)
/// renderings, compared without allocating.
fn same_class(a: &str, b: &str) -> bool {
    a.len() == b.len() && cmp_dotted(a, b).is_eq()
}

/// Feature total of the profile of a subtree holding `methods` methods:
/// three features per method (abstracted signature, opcode histogram,
/// invoke degrees) plus the two subtree totals; 0 for an empty subtree.
///
/// Detection uses it to rule a subtree out by size before profiling it.
pub fn profile_total(methods: usize) -> u64 {
    match methods {
        0 => 0,
        n => 3 * n as u64 + 2,
    }
}

/// Orders two package paths as their dotted renderings, so `com/foo`
/// and `com.foo` are one package.
fn cmp_dotted(a: &str, b: &str) -> Ordering {
    a.bytes().map(dotted).cmp(b.bytes().map(dotted))
}

/// The package hierarchy of one dex: its distinct package paths, each
/// with its methods, and every package prefix (each hierarchy level of
/// each path) with the paths in its subtree.
///
/// The tree borrows each method's package path from its smali and
/// groups methods by hashing their paths (dex order does not group
/// them). Every path is rendered dotted once, into one buffer; the
/// levels of those renderings are sorted and grouped as bytes, so
/// `com/foo` and `com.foo` fall under one prefix. Every subtree is
/// counted from the per-path method lists; a subtree's method indices
/// are listed only when asked for ([`Subtree::members`]), so detection
/// lists only the subtrees its size checks let through.
#[derive(Debug, Clone)]
pub struct PackageTree<'a> {
    /// Package path of every method as its smali writes it, by method
    /// index.
    paths: Vec<&'a str>,
    /// The methods of every distinct path, each path's ascending.
    methods: Vec<u32>,
    /// Where each path's methods start in `methods`, and the end.
    package_starts: Vec<u32>,
    /// Every package prefix, in dotted order.
    prefixes: Vec<Prefix<'a>>,
    /// The paths of each prefix's subtree, one range per prefix.
    under: Vec<u32>,
}

/// One package prefix of a [`PackageTree`].
#[derive(Debug, Clone)]
struct Prefix<'a> {
    /// The prefix as the smali of one path under it writes it.
    path: &'a str,
    /// Its subtree's paths: a range of `PackageTree::under`.
    packages: Range<usize>,
    /// Number of methods in its subtree.
    methods: usize,
}

impl<'a> PackageTree<'a> {
    /// Builds the tree of the dex `view`. `.` and `/` both separate
    /// components. Methods of the default (empty) package are in no
    /// subtree but the empty prefix's, and only a package with a
    /// leading dot creates that one.
    pub fn new(view: &DexView<'a>) -> Self {
        let paths: Vec<&'a str> = (0..view.len() as u32).map(|id| view.parts(id).0).collect();
        // Distinct paths in first-seen order, and each method's.
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let path_of: Vec<u32> = paths
            .iter()
            .map(|&path| {
                *ids.entry(path).or_insert_with(|| {
                    distinct.push(path);
                    distinct.len() as u32 - 1
                })
            })
            .collect();
        // Each path's methods, ascending, by a counting sort.
        let mut package_starts = vec![0u32; distinct.len() + 1];
        for &path in &path_of {
            package_starts[path as usize + 1] += 1;
        }
        for at in 1..package_starts.len() {
            package_starts[at] += package_starts[at - 1];
        }
        let mut fill = package_starts.clone();
        let mut methods = vec![0u32; paths.len()];
        for (method, &path) in path_of.iter().enumerate() {
            methods[fill[path as usize] as usize] = method as u32;
            fill[path as usize] += 1;
        }
        // Every level of every path's dotted rendering: up to each
        // separator, and the whole of it. The empty prefix (made by a
        // leading dot) also holds the default package.
        let leading_dot = distinct.iter().any(|path| path.starts_with('.'));
        let mut text: Vec<u8> = Vec::new();
        let mut levels: Vec<(usize, usize, u32)> = Vec::new();
        for (id, path) in distinct.iter().enumerate() {
            let (id, start) = (id as u32, text.len());
            text.extend(path.bytes().map(dotted));
            if path.is_empty() {
                if leading_dot {
                    levels.push((start, 0, id));
                }
                continue;
            }
            for (at, &b) in text[start..].iter().enumerate() {
                if b == b'.' {
                    levels.push((start, at, id));
                }
            }
            levels.push((start, path.len(), id));
        }
        let rendered = |(start, len): (usize, usize)| &text[start..start + len];
        levels.sort_unstable_by(|a, b| {
            rendered((a.0, a.1))
                .cmp(rendered((b.0, b.1)))
                .then(a.2.cmp(&b.2))
        });
        let mut prefixes: Vec<Prefix<'a>> = Vec::new();
        let mut under = Vec::with_capacity(levels.len());
        let mut last: Option<(usize, usize)> = None;
        for (start, len, id) in levels {
            let size = (package_starts[id as usize + 1] - package_starts[id as usize]) as usize;
            match prefixes.last_mut() {
                Some(prefix)
                    if last.is_some_and(|span| rendered(span) == rendered((start, len))) =>
                {
                    prefix.packages.end += 1;
                    prefix.methods += size;
                }
                _ => {
                    prefixes.push(Prefix {
                        path: &distinct[id as usize][..len],
                        packages: under.len()..under.len() + 1,
                        methods: size,
                    });
                    last = Some((start, len));
                }
            }
            under.push(id);
        }
        PackageTree {
            paths,
            methods,
            package_starts,
            prefixes,
            under,
        }
    }

    /// Every package prefix with its subtree, in dotted prefix order.
    pub fn subtrees(&self) -> impl Iterator<Item = Subtree<'_, 'a>> {
        self.prefixes
            .iter()
            .map(move |prefix| Subtree { tree: self, prefix })
    }

    /// Number of package prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Returns `true` when the dex has no package prefix.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Prefix number `id` of [`subtrees`](Self::subtrees) with its
    /// subtree.
    pub fn subtree(&self, id: usize) -> Subtree<'_, 'a> {
        Subtree {
            tree: self,
            prefix: &self.prefixes[id],
        }
    }

    /// The number of the prefix whose dotted rendering is `name`
    /// (`com.unity3d.ads`), by a binary search over the prefixes, which
    /// are sorted as dotted bytes, comparing without allocating. `None`
    /// when no method's package is `name` or lies beneath it; a
    /// `/`-spelled name is never a prefix, and the empty name is one
    /// only when some package starts with a dot.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.prefixes
            .binary_search_by(|prefix| prefix.path.bytes().map(dotted).cmp(name.bytes()))
            .ok()
    }

    /// Package path of every method as its smali writes it (`/`- or
    /// `.`-separated), by method index.
    pub fn paths(&self) -> &[&'a str] {
        &self.paths
    }

    /// The ascending methods of distinct path `id`.
    fn package(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.methods[self.package_starts[id] as usize..self.package_starts[id + 1] as usize]
    }
}

/// One package prefix of a [`PackageTree`] and its subtree.
#[derive(Debug, Clone, Copy)]
pub struct Subtree<'t, 'a> {
    tree: &'t PackageTree<'a>,
    prefix: &'t Prefix<'a>,
}

impl Subtree<'_, '_> {
    /// The prefix, dotted (`com.unity3d.ads`).
    pub fn prefix(&self) -> String {
        self.prefix.path.replace('/', ".")
    }

    /// Byte length of the prefix: each member's package path below the
    /// root starts there.
    pub fn prefix_len(&self) -> usize {
        self.prefix.path.len()
    }

    /// Number of methods in the subtree, counted without listing them.
    pub fn methods(&self) -> usize {
        self.prefix.methods
    }

    /// The subtree's method indices in ascending order, listed anew on
    /// each call.
    pub fn members(&self) -> Vec<u32> {
        let mut members = Vec::new();
        self.members_into(&mut members);
        members
    }

    /// [`members`](Self::members) into `out`, which is cleared first.
    pub fn members_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for &id in self.packages() {
            out.extend_from_slice(self.tree.package(id));
        }
        if self.prefix.packages.len() > 1 {
            out.sort_unstable();
        }
    }

    /// The ids of the distinct paths in the subtree.
    fn packages(&self) -> &[u32] {
        &self.tree.under[self.prefix.packages.clone()]
    }
}

/// The sorted multiset of `hashes` (sorted in place).
fn collapse(hashes: &mut [u64]) -> StructuralProfile {
    hashes.sort_unstable();
    let mut features: Vec<(u64, u32)> = Vec::with_capacity(hashes.len());
    for &h in hashes.iter() {
        match features.last_mut() {
            Some((last, c)) if *last == h => *c += 1,
            _ => features.push((h, 1)),
        }
    }
    StructuralProfile { features }
}

/// What a [`FeatureTable`] knows of one method once it is computed.
#[derive(Debug, Clone, Copy, Default)]
struct MethodFeatures {
    /// Its feature line in `FeatureTable::lines`; empty until computed.
    line: (u32, u32),
    /// Its descriptor shape in `FeatureTable::shapes`.
    shape: (u32, u32),
    /// Its distinct internal callees in `FeatureTable::callees`.
    callees: (u32, u32),
    /// Its opcode-histogram feature.
    opcodes: u64,
    /// Length of its class path (the smali up to `;->`).
    class_len: u32,
    /// Separators in its package path.
    separators: u32,
}

/// Marks a method outside the subtree being profiled.
const OUTSIDE: u32 = u32::MAX;

/// The package tree of one dex view and each method's features,
/// computed at most once, on first use, for both detection tiers: the
/// one place a subtree is fingerprinted or profiled, when a library is
/// registered as when an app is scanned.
///
/// A method's exact-fingerprint line is its dotted package path, then
/// `|`-separated class, method, descriptor and opcode letters: the line
/// of a subtree rooted at a prefix of `n` bytes is that line from byte
/// `n`, so no line is built per subtree. The structural features are
/// the descriptor shape, the opcode histogram's hash, the distinct
/// internal callees and the class path's length; the invoke-degree
/// feature takes one of 16 precomputed values. The per-subtree buffers
/// (members, hashes, degrees, line order) are reused from subtree to
/// subtree.
#[derive(Debug, Clone)]
pub struct FeatureTable<'a> {
    view: &'a DexView<'a>,
    tree: PackageTree<'a>,
    /// Summed whole-path line length of each distinct path's methods.
    package_bytes: Vec<u64>,
    methods: Vec<MethodFeatures>,
    lines: Vec<u8>,
    shapes: Vec<u8>,
    callees: Vec<u32>,
    /// Each method's position in the subtree being profiled, or
    /// [`OUTSIDE`].
    slots: Vec<u32>,
    members: Vec<u32>,
    hashes: Vec<u64>,
    degrees: Vec<(u64, u64)>,
    order: Vec<(u32, u32)>,
    text: Vec<u8>,
}

impl<'a> FeatureTable<'a> {
    /// The table of the dex `view`, over its package tree; no method's
    /// features are computed yet.
    pub fn new(view: &'a DexView<'a>) -> Self {
        let tree = PackageTree::new(view);
        // A method's whole-path line: the smali minus its `L`, `;->` and
        // the `/` before the class, plus four `|` and one letter per
        // instruction.
        let line_len = |id: u32| {
            let path = tree.paths[id as usize];
            (view.sig(id).len() + view.instructions(id).len() - usize::from(!path.is_empty()))
                as u64
        };
        let package_bytes = (0..tree.package_starts.len() as u32 - 1)
            .map(|id| tree.package(id).iter().map(|&m| line_len(m)).sum())
            .collect();
        let count = tree.paths.len();
        FeatureTable {
            view,
            tree,
            package_bytes,
            methods: vec![MethodFeatures::default(); count],
            lines: Vec::new(),
            shapes: Vec::new(),
            callees: Vec::new(),
            slots: vec![OUTSIDE; count],
            members: Vec::new(),
            hashes: Vec::new(),
            degrees: Vec::new(),
            order: Vec::new(),
            text: Vec::new(),
        }
    }

    /// The dex's package tree.
    pub fn tree(&self) -> &PackageTree<'a> {
        &self.tree
    }

    /// Total bytes of the exact-fingerprint lines of subtree `id`
    /// (newlines not counted), from per-package sums: no line is built.
    pub fn line_bytes(&self, id: usize) -> u64 {
        let subtree = self.tree.subtree(id);
        let whole: u64 = subtree
            .packages()
            .iter()
            .map(|&p| self.package_bytes[p as usize])
            .sum();
        whole - (subtree.methods() * subtree.prefix_len()) as u64
    }

    /// The exact-fingerprint lines of subtree `id`, sorted, each ended
    /// by a newline: the bytes its fingerprint hashes.
    pub fn sorted_lines(&mut self, id: usize) -> &[u8] {
        let subtree = self.tree.subtree(id);
        let prefix_len = subtree.prefix_len() as u32;
        subtree.members_into(&mut self.members);
        self.order.clear();
        for at in 0..self.members.len() {
            let method = self.computed(self.members[at]);
            self.order.push((method.line.0 + prefix_len, method.line.1));
        }
        let lines = &self.lines;
        let line = |(start, end): (u32, u32)| &lines[start as usize..end as usize];
        self.order.sort_unstable_by(|&a, &b| line(a).cmp(line(b)));
        self.text.clear();
        for &range in &self.order {
            self.text.extend_from_slice(line(range));
            self.text.push(b'\n');
        }
        &self.text
    }

    /// The structural profile of subtree `id`.
    ///
    /// Deterministic and invariant under: package renaming (features
    /// only see depth relative to the root), class/method identifier
    /// mangling (no identifier reaches the hasher; class identity is
    /// positional), method reordering (per-method features are
    /// order-free, graph features use method identity, and the multiset
    /// is sorted), and `Nop`/`Const` junk injection (filler opcodes are
    /// excluded from histograms).
    pub fn profile(&mut self, id: usize) -> StructuralProfile {
        let subtree = self.tree.subtree(id);
        let prefix = subtree.prefix.path;
        let prefix_separators = prefix.bytes().filter(|&b| is_separator(b)).count() as u64;
        subtree.members_into(&mut self.members);
        self.hashes.clear();
        for at in 0..self.members.len() {
            let id = self.members[at];
            self.slots[id as usize] = at as u32;
            let method = self.computed(id);
            let shape = &self.shapes[method.shape.0 as usize..method.shape.1 as usize];
            let depth = u64::from(method.separators) - prefix_separators;
            self.hashes.push(signature_feature(depth, shape));
            self.hashes.push(method.opcodes);
        }
        // Distinct intra-subtree invoke edges, by caller and callee
        // position: which method or class an edge joins never reaches a
        // hash, only whether its ends share a class.
        self.degrees.clear();
        self.degrees.resize(self.members.len(), (0, 0));
        let mut cross_class_edges = 0u64;
        for (caller, &id) in self.members.iter().enumerate() {
            let method = self.methods[id as usize];
            for &target in &self.callees[method.callees.0 as usize..method.callees.1 as usize] {
                let callee = self.slots.get(target as usize).copied().unwrap_or(OUTSIDE);
                if callee == OUTSIDE {
                    continue;
                }
                self.degrees[caller].0 += 1;
                self.degrees[callee as usize].1 += 1;
                if !self.same_class(id, target) {
                    cross_class_edges += 1;
                }
            }
        }
        for &(out, into) in &self.degrees {
            self.hashes
                .push(DEGREE_FEATURES[(4 * out.min(3) + into.min(3)) as usize]);
        }
        if !self.members.is_empty() {
            self.hashes
                .extend(total_features(cross_class_edges, self.members.len()));
        }
        for &id in &self.members {
            self.slots[id as usize] = OUTSIDE;
        }
        collapse(&mut self.hashes)
    }

    /// Whether methods `a` and `b`, both computed, are of one class:
    /// their class paths read alike dotted.
    fn same_class(&self, a: u32, b: u32) -> bool {
        let class = |id: u32| &self.view.sig(id)[..self.methods[id as usize].class_len as usize];
        let (a, b) = (class(a), class(b));
        a == b || same_class(a, b)
    }

    /// The features of method `id`, computed on first use.
    fn computed(&mut self, id: u32) -> MethodFeatures {
        if self.methods[id as usize].line.1 == 0 {
            self.compute(id);
        }
        self.methods[id as usize]
    }

    fn compute(&mut self, id: u32) {
        let smali = self.view.sig(id);
        let (path, class, name, descriptor) = self.view.parts(id);
        let lines = &mut self.lines;
        let line_start = lines.len() as u32;
        lines.extend(path.bytes().map(dotted));
        for part in [class, name, descriptor] {
            lines.push(b'|');
            lines.extend_from_slice(part.as_bytes());
        }
        lines.push(b'|');
        let callees = &mut self.callees;
        let callee_start = callees.len();
        let mut counts = [0u64; 5];
        self.view.instructions(id).for_each(|inst| {
            lines.push(inst.letter());
            if let Some(slot) = histogram_slot(inst) {
                counts[slot] += 1;
            }
            if let Some(TargetRef::Internal(target)) = inst.target() {
                if !callees[callee_start..].contains(&target) {
                    callees.push(target);
                }
            }
        });
        let shape_start = self.shapes.len();
        push_shape(descriptor, &mut self.shapes);
        let shape = &self.shapes[shape_start..];
        self.methods[id as usize] = MethodFeatures {
            line: (line_start, self.lines.len() as u32),
            shape: (shape_start as u32, self.shapes.len() as u32),
            callees: (callee_start as u32, self.callees.len() as u32),
            opcodes: opcode_feature(shape, counts),
            class_len: (smali.len() - descriptor.len() - name.len() - 3) as u32,
            separators: path.bytes().filter(|&b| is_separator(b)).count() as u32,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_dex;
    use crate::model::{ClassDef, CodeItem, DexFile, Instruction, MethodDef, MethodRef};
    use crate::sig::MethodSig;
    use crate::subtree;

    /// The table's profile of the subtree `prefix` names in `dex` (empty
    /// when the tree has no such prefix), checked against the
    /// from-scratch reference.
    fn profile(dex: &DexFile, prefix: &str) -> StructuralProfile {
        let bytes = write_dex(dex);
        let view = DexView::parse(&bytes).expect("test dexes validate");
        let mut table = FeatureTable::new(&view);
        let profile = table
            .tree()
            .find(prefix)
            .map(|id| table.profile(id))
            .unwrap_or_default();
        assert_eq!(profile, subtree::subtree_profile(dex, prefix), "{prefix}");
        profile
    }

    fn lib_dex(root: &str, class_a: &str, class_b: &str, m0: &str, m1: &str) -> DexFile {
        let methods = vec![
            MethodDef {
                sig: MethodSig::new(root, class_a, m0, "(Landroid/content/Context;)V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Const(1),
                        Instruction::Invoke(MethodRef::Internal(1)),
                        Instruction::Return,
                    ],
                },
            },
            MethodDef {
                sig: MethodSig::new(&format!("{root}.net"), class_b, m1, "()V"),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Network(crate::model::NetworkOp {
                            domain: "cdn.example.com".into(),
                            port: 443,
                            send_bytes: 10,
                            recv_bytes: 20,
                            connector: crate::model::Connector::AndroidOkHttp,
                            shape: crate::model::WireShape::Plain,
                        }),
                        Instruction::Return,
                    ],
                },
            },
        ];
        DexFile {
            methods,
            classes: vec![ClassDef {
                dotted_name: format!("{root}.{class_a}"),
                method_indices: vec![0],
            }],
        }
    }

    #[test]
    fn shape_collapses_objects_keeps_primitives() {
        assert_eq!(shape_of("()V"), "()V");
        assert_eq!(shape_of("(IJZ)D"), "(IJZ)D");
        assert_eq!(shape_of("(Landroid/os/Bundle;I)V"), "(LI)V");
        assert_eq!(shape_of("([[I[Ljava/lang/String;)L"), "([[I[L)L");
        assert_eq!(shape_of("([Ljava/lang/Object;)Ljava/lang/Object;"), "([L)L");
    }

    #[test]
    fn profile_is_invariant_under_rename_and_mangle() {
        let orig = lib_dex("com.unity3d.ads", "Sdk", "Fetcher", "init", "run");
        let renamed = lib_dex("qx.ab", "Sdk", "Fetcher", "init", "run");
        let mangled = lib_dex("qx.ab", "a", "b", "a", "a");
        let p = profile(&orig, "com.unity3d.ads");
        assert!(!p.is_empty());
        assert_eq!(p, profile(&renamed, "qx.ab"));
        assert_eq!(p, profile(&mangled, "qx.ab"));
    }

    #[test]
    fn profile_ignores_junk_filler_opcodes() {
        let clean = lib_dex("com.lib", "A", "B", "m", "n");
        let mut junked = clean.clone();
        for m in &mut junked.methods {
            let at = m.code.instructions.len() - 1;
            m.code.instructions.insert(at, Instruction::Nop);
            m.code.instructions.insert(at, Instruction::Const(99));
        }
        assert_eq!(profile(&clean, "com.lib"), profile(&junked, "com.lib"));
    }

    #[test]
    fn profile_is_invariant_under_method_reordering() {
        let dex = lib_dex("com.lib", "A", "B", "m", "n");
        let mut swapped = DexFile {
            methods: vec![dex.methods[1].clone(), dex.methods[0].clone()],
            classes: dex.classes.clone(),
        };
        // Fix up the internal reference 1 -> 0 after the swap.
        for m in &mut swapped.methods {
            for inst in &mut m.code.instructions {
                if let Instruction::Invoke(MethodRef::Internal(t)) = inst {
                    *t = 1 - *t;
                }
            }
        }
        swapped.classes[0].method_indices = vec![1];
        assert_eq!(profile(&dex, "com.lib"), profile(&swapped, "com.lib"));
    }

    #[test]
    fn distinct_structures_produce_distinct_profiles() {
        let a = lib_dex("com.lib", "A", "B", "m", "n");
        let mut b = a.clone();
        b.methods[0].code.instructions[1] = Instruction::Invoke(MethodRef::External(
            MethodSig::new("android.util", "Log", "d", "()V"),
        ));
        assert_ne!(profile(&a, "com.lib"), profile(&b, "com.lib"));
    }

    #[test]
    fn subtree_membership_is_component_aligned() {
        let dex = lib_dex("com.foobar", "A", "B", "m", "n");
        assert!(profile(&dex, "com.foo").is_empty());
        assert_eq!(profile(&dex, "com.foobar").total() as usize, {
            // 2 methods x (sig + opc + deg) + xce + cnt
            2 * 3 + 2
        });
    }

    #[test]
    fn find_names_each_dotted_prefix_and_nothing_else() {
        let dex = DexFile {
            methods: [
                "Lcom/foo/K;->a()V",
                "Lcom.foo/bar/K;->b()V",
                "Lcom/fooz/K;->c()V",
            ]
            .iter()
            .map(|smali| MethodDef {
                sig: smali.parse().unwrap(),
                code: CodeItem::default(),
            })
            .collect(),
            classes: vec![],
        };
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).unwrap();
        let tree = PackageTree::new(&view);
        for (id, subtree) in tree.subtrees().enumerate() {
            assert_eq!(tree.find(&subtree.prefix()), Some(id));
        }
        assert_eq!(tree.len(), 4);
        for absent in [
            "",
            "co",
            "com.fo",
            "com/foo",
            "com.foo.",
            "com.foo.bar.K",
            "org",
        ] {
            assert_eq!(tree.find(absent), None, "{absent}");
        }
    }

    #[test]
    fn the_empty_name_is_a_prefix_only_beside_a_leading_dot() {
        let method = |smali: &str| MethodDef {
            sig: smali.parse().unwrap(),
            code: CodeItem {
                instructions: vec![Instruction::Return],
            },
        };
        let mut dex = DexFile {
            methods: vec![method("LMain;->run()V"), method("Lcom/a/K;->m()V")],
            classes: vec![],
        };
        // The reference selects the default package under `""`; the
        // tree has no empty prefix, so the table profiles nothing.
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).unwrap();
        assert_eq!(PackageTree::new(&view).find(""), None);
        assert!(!subtree::subtree_profile(&dex, "").is_empty());
        // A leading dot makes the empty prefix, holding the default
        // package too, and then both agree.
        dex.methods.push(method("L.x/K;->m()V"));
        let bytes = write_dex(&dex);
        let view = DexView::parse(&bytes).unwrap();
        let tree = PackageTree::new(&view);
        assert_eq!(tree.find(""), Some(0));
        assert_eq!(tree.subtree(0).members(), [0, 2]);
        assert_eq!(profile(&dex, "").total(), profile_total(2));
    }

    #[test]
    fn same_class_agrees_with_dotted_class_equality() {
        let sigs = [
            MethodSig::new("com.lib", "A", "m", "()V"),
            MethodSig::new("com.lib", "A", "n", "(I)V"),
            MethodSig::new("com.lib", "A$1", "m", "()V"),
            MethodSig::new("com.lib", "B", "m", "()V"),
            MethodSig::new("com", "lib.A", "m", "()V"),
            MethodSig::new("com.lib.A", "B", "m", "()V"),
            MethodSig::new("", "A", "m", "()V"),
            MethodSig::new("", "com.lib.A", "m", "()V"),
        ];
        for a in &sigs {
            for b in &sigs {
                assert_eq!(
                    same_class(subtree::class_path(a), subtree::class_path(b)),
                    a.dotted_class() == b.dotted_class(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn log2_buckets_are_monotone_and_coarse() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 3);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(5), 4);
        assert_eq!(log2_bucket(8), 4);
        assert_eq!(log2_bucket(9), 5);
    }
}
