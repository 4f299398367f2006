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
//! Detection profiles many prefixes of one dex; [`PackageTree`] indexes
//! every package subtree of a dex once so that it does not rescan the
//! method table per prefix.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::model::{DexFile, Instruction, MethodRef, FNV_OFFSET, FNV_PRIME};
use crate::sig::MethodSig;

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
struct FeatureHasher(u64);

impl FeatureHasher {
    fn new(tag: &str) -> Self {
        let mut h = FeatureHasher(FNV_OFFSET);
        h.bytes(tag.as_bytes());
        h
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
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
    let mut out = String::with_capacity(descriptor.len());
    let bytes = descriptor.as_bytes();
    let mut idx = 0;
    while idx < bytes.len() {
        match bytes[idx] {
            b'L' => {
                out.push('L');
                while idx < bytes.len() && bytes[idx] != b';' {
                    idx += 1;
                }
                idx += 1; // past ';'
            }
            other => {
                out.push(other as char);
                idx += 1;
            }
        }
    }
    out
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

/// Whether the package at `path` (as its smali writes it) lies inside
/// the subtree rooted at the dotted `prefix`, the prefix itself
/// included. Component-aligned: `com.foo` does not contain `com.foobar`.
fn in_subtree(path: &str, prefix: &str) -> bool {
    path.len() >= prefix.len()
        && path
            .bytes()
            .zip(prefix.bytes())
            .all(|(a, b)| dotted(a) == b)
        && path
            .as_bytes()
            .get(prefix.len())
            .is_none_or(|&b| is_separator(b))
}

/// Component depth of the package at `path` below a prefix of
/// `prefix_len` bytes (0 when equal).
fn depth_below(path: &str, prefix_len: usize) -> u64 {
    path.as_bytes().get(prefix_len..).map_or(0, |below| {
        below.iter().filter(|&&b| is_separator(b)).count() as u64
    })
}

/// Every method's package path and the ascending indices of the methods
/// in the subtree rooted at the dotted `prefix`, by one scan of the
/// method table: the single-prefix counterpart of [`PackageTree`].
pub fn scan_subtree<'a>(dex: &'a DexFile, prefix: &str) -> (Vec<&'a str>, Vec<u32>) {
    let paths: Vec<&str> = dex.methods.iter().map(|m| m.sig.parts().0).collect();
    let members = (0..paths.len() as u32)
        .filter(|&i| in_subtree(paths[i as usize], prefix))
        .collect();
    (paths, members)
}

/// log2-style bucket for subtree totals: 0, 1, 2, 3-4, 5-8, 9-16, ...
fn log2_bucket(n: u64) -> u64 {
    match n {
        0 => 0,
        _ => 64 - (n - 1).leading_zeros() as u64 + 1,
    }
}

/// The smali type path of a method's class (up to its `;->`), which
/// [`MethodSig::dotted_class`] renders with `/` read as `.`.
fn class_path(sig: &MethodSig) -> &str {
    let smali = sig.as_smali();
    &smali[..smali.find(";->").unwrap_or(smali.len())]
}

/// Whether two [`class_path`]s have equal [`MethodSig::dotted_class`]
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

/// The package hierarchy of one dex: its distinct packages, each with
/// its methods, and every package prefix (each hierarchy level of each
/// package) with the packages in its subtree.
///
/// The tree borrows each method's package path from its smali and
/// counts every subtree from the per-package method lists; a subtree's
/// method indices are listed only when asked for
/// ([`Subtree::members`]), so detection lists only the subtrees its
/// size bounds let through.
#[derive(Debug, Clone)]
pub struct PackageTree<'a> {
    /// Package path of every method as its smali writes it, by method
    /// index.
    paths: Vec<&'a str>,
    /// The ascending method indices of each distinct package, packages
    /// in dotted order.
    packages: Vec<Vec<u32>>,
    /// Every package prefix, in dotted order.
    prefixes: Vec<Prefix<'a>>,
    /// The packages of each prefix's subtree, one range per prefix.
    under: Vec<u32>,
}

/// One package prefix of a [`PackageTree`].
#[derive(Debug, Clone)]
struct Prefix<'a> {
    /// The prefix as the smali of one package under it writes it.
    path: &'a str,
    /// Its subtree's packages: a range of `PackageTree::under`.
    packages: Range<usize>,
    /// Number of methods in its subtree.
    methods: usize,
}

impl<'a> PackageTree<'a> {
    /// Builds the tree of `dex`. `.` and `/` both separate components.
    /// Methods of the default (empty) package are in no subtree but the
    /// empty prefix's, and only a package with a leading dot creates
    /// that one.
    pub fn new(dex: &'a DexFile) -> Self {
        let paths: Vec<&str> = dex.methods.iter().map(|m| m.sig.parts().0).collect();
        let mut by_path: HashMap<&str, Vec<u32>> = HashMap::new();
        for (i, &path) in paths.iter().enumerate() {
            by_path.entry(path).or_default().push(i as u32);
        }
        // Paths that read alike dotted are one package.
        let mut by_path: Vec<(&str, Vec<u32>)> = by_path.into_iter().collect();
        by_path.sort_unstable_by(|a, b| cmp_dotted(a.0, b.0).then(a.0.cmp(b.0)));
        let mut by_package: Vec<(&str, Vec<u32>)> = Vec::with_capacity(by_path.len());
        for (path, methods) in by_path {
            match by_package.last_mut() {
                Some((last, members)) if cmp_dotted(last, path).is_eq() => {
                    members.extend(methods);
                    members.sort_unstable();
                }
                _ => by_package.push((path, methods)),
            }
        }
        // Every prefix of every package: its path up to each separator,
        // and the whole path. By `in_subtree`, the empty prefix (made
        // by a leading dot) holds the default package too.
        let leading_dot = by_package.iter().any(|(path, _)| path.starts_with('.'));
        let mut levels: Vec<(&str, u32)> = Vec::new();
        for (id, &(path, _)) in by_package.iter().enumerate() {
            let id = id as u32;
            if path.is_empty() {
                if leading_dot {
                    levels.push((path, id));
                }
                continue;
            }
            for (at, b) in path.bytes().enumerate() {
                if is_separator(b) {
                    levels.push((&path[..at], id));
                }
            }
            levels.push((path, id));
        }
        levels.sort_unstable_by(|a, b| cmp_dotted(a.0, b.0).then(a.1.cmp(&b.1)));
        let packages: Vec<Vec<u32>> = by_package.into_iter().map(|(_, methods)| methods).collect();
        let mut prefixes: Vec<Prefix<'a>> = Vec::new();
        let mut under = Vec::with_capacity(levels.len());
        for (prefix, id) in levels {
            let methods = packages[id as usize].len();
            match prefixes.last_mut() {
                Some(last) if cmp_dotted(last.path, prefix).is_eq() => {
                    last.packages.end += 1;
                    last.methods += methods;
                }
                _ => prefixes.push(Prefix {
                    path: prefix,
                    packages: under.len()..under.len() + 1,
                    methods,
                }),
            }
            under.push(id);
        }
        PackageTree {
            paths,
            packages,
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

    /// Package path of every method as its smali writes it (`/`- or
    /// `.`-separated), by method index.
    pub fn paths(&self) -> &[&'a str] {
        &self.paths
    }

    /// The structural profile of `subtree`, one of
    /// [`subtrees`](Self::subtrees) of this tree of `dex`.
    pub fn profile(&self, dex: &DexFile, subtree: &Subtree<'_, 'a>) -> StructuralProfile {
        profile_members(dex, &self.paths, subtree.prefix_len(), &subtree.members())
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
        let tree = self.tree;
        let mut members = Vec::with_capacity(self.prefix.methods);
        for &id in &tree.under[self.prefix.packages.clone()] {
            members.extend_from_slice(&tree.packages[id as usize]);
        }
        if self.prefix.packages.len() > 1 {
            members.sort_unstable();
        }
        members
    }
}

/// Computes the structural profile of the package subtree rooted at
/// `prefix`.
///
/// Deterministic and invariant under: package renaming (features only see
/// depth relative to the root), class/method identifier mangling (no
/// identifier reaches the hasher; class identity is positional), method
/// reordering (per-method features are order-free, graph features use
/// method identity, and the final multiset is sorted), and `Nop`/`Const`
/// junk injection (filler opcodes are excluded from histograms).
pub fn subtree_profile(dex: &DexFile, prefix: &str) -> StructuralProfile {
    let (paths, members) = scan_subtree(dex, prefix);
    profile_members(dex, &paths, prefix.len(), &members)
}

/// The profile of the subtree rooted at a prefix of `prefix_len` bytes
/// whose method indices are `members`, ascending; `paths` holds every
/// method's package path.
fn profile_members(
    dex: &DexFile,
    paths: &[&str],
    prefix_len: usize,
    members: &[u32],
) -> StructuralProfile {
    let mut hashes: Vec<u64> = Vec::with_capacity(profile_total(members.len()) as usize);
    for &i in members {
        let m = &dex.methods[i as usize];
        let shape = shape_of(m.sig.descriptor());
        // Abstracted signature: relative depth × descriptor shape.
        let mut h = FeatureHasher::new("sig");
        h.num(depth_below(paths[i as usize], prefix_len));
        h.bytes(shape.as_bytes());
        hashes.push(h.finish());

        // Opcode histogram over the semantic instruction set. Nop/Const
        // are junk-injection targets and deliberately uncounted.
        let (mut inv_int, mut inv_ext, mut asyncs, mut nets, mut rets) = (0u64, 0, 0, 0, 0);
        for inst in &m.code.instructions {
            match inst {
                Instruction::Invoke(MethodRef::Internal(_)) => inv_int += 1,
                Instruction::Invoke(MethodRef::External(_)) => inv_ext += 1,
                Instruction::InvokeAsync { .. } => asyncs += 1,
                Instruction::Network(_) => nets += 1,
                Instruction::Return => rets += 1,
                Instruction::Nop | Instruction::Const(_) => {}
            }
        }
        let mut h = FeatureHasher::new("opc");
        h.bytes(shape.as_bytes());
        for v in [inv_int, inv_ext, asyncs, nets, rets] {
            h.num(v);
        }
        hashes.push(h.finish());
    }

    // Intra-subtree invoke graph: distinct (caller, callee) edges where
    // both endpoints are members. Degrees are identity-based, so method
    // reordering (with reference fixup) cannot change them; they are
    // indexed by position in `members`. Class identity is positional:
    // an edge counts as cross-class by whether its ends share a class,
    // and which class it is never reaches a hash.
    let mut out_deg = vec![0u64; members.len()];
    let mut in_deg = vec![0u64; members.len()];
    let mut cross_class_edges = 0u64;
    let mut seen: Vec<u32> = Vec::new();
    let classes: Vec<&str> = members
        .iter()
        .map(|&i| class_path(&dex.methods[i as usize].sig))
        .collect();
    for (caller, &i) in members.iter().enumerate() {
        let m = &dex.methods[i as usize];
        seen.clear();
        for invoke in m.code.invokes() {
            let MethodRef::Internal(t) = invoke else {
                continue;
            };
            let Ok(callee) = members.binary_search(t) else {
                continue;
            };
            if !seen.contains(t) {
                seen.push(*t);
                out_deg[caller] += 1;
                in_deg[callee] += 1;
                if !same_class(classes[caller], classes[callee]) {
                    cross_class_edges += 1;
                }
            }
        }
    }
    for (out, into) in out_deg.into_iter().zip(in_deg) {
        let mut h = FeatureHasher::new("deg");
        h.num(out.min(3));
        h.num(into.min(3));
        hashes.push(h.finish());
    }

    // Subtree-level totals, log2-bucketed.
    if !members.is_empty() {
        let mut h = FeatureHasher::new("xce");
        h.num(log2_bucket(cross_class_edges));
        hashes.push(h.finish());
        let mut h = FeatureHasher::new("cnt");
        h.num(log2_bucket(members.len() as u64));
        hashes.push(h.finish());
    }

    // Collapse into the sorted multiset.
    hashes.sort_unstable();
    let mut features: Vec<(u64, u32)> = Vec::with_capacity(hashes.len());
    for h in hashes {
        match features.last_mut() {
            Some((last, c)) if *last == h => *c += 1,
            _ => features.push((h, 1)),
        }
    }
    StructuralProfile { features }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassDef, CodeItem, MethodDef};
    use crate::sig::MethodSig;

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
        let p = subtree_profile(&orig, "com.unity3d.ads");
        assert!(!p.is_empty());
        assert_eq!(p, subtree_profile(&renamed, "qx.ab"));
        assert_eq!(p, subtree_profile(&mangled, "qx.ab"));
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
        assert_eq!(
            subtree_profile(&clean, "com.lib"),
            subtree_profile(&junked, "com.lib")
        );
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
        assert_eq!(
            subtree_profile(&dex, "com.lib"),
            subtree_profile(&swapped, "com.lib")
        );
    }

    #[test]
    fn distinct_structures_produce_distinct_profiles() {
        let a = lib_dex("com.lib", "A", "B", "m", "n");
        let mut b = a.clone();
        b.methods[0].code.instructions[1] = Instruction::Invoke(MethodRef::External(
            MethodSig::new("android.util", "Log", "d", "()V"),
        ));
        assert_ne!(
            subtree_profile(&a, "com.lib"),
            subtree_profile(&b, "com.lib")
        );
    }

    #[test]
    fn subtree_membership_is_component_aligned() {
        let dex = lib_dex("com.foobar", "A", "B", "m", "n");
        assert!(subtree_profile(&dex, "com.foo").is_empty());
        assert_eq!(subtree_profile(&dex, "com.foobar").total() as usize, {
            // 2 methods x (sig + opc + deg) + xce + cnt
            2 * 3 + 2
        });
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
                    same_class(class_path(a), class_path(b)),
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
