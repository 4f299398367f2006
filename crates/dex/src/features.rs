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
//! every package subtree of a dex in one pass so that it does not rescan
//! the method table per prefix.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::model::{DexFile, Instruction, MethodRef};
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

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

/// Whether dotted package `pkg` lies inside the subtree rooted at
/// `prefix` (the prefix itself included). Component-aligned: `com.foo`
/// does not contain `com.foobar`.
fn in_subtree(pkg: &str, prefix: &str) -> bool {
    pkg == prefix || (pkg.starts_with(prefix) && pkg.as_bytes().get(prefix.len()) == Some(&b'.'))
}

/// Dot-component depth of `pkg` below `prefix` (0 when equal).
fn depth_below(pkg: &str, prefix: &str) -> u64 {
    if pkg.len() <= prefix.len() {
        return 0;
    }
    pkg[prefix.len()..].bytes().filter(|&b| b == b'.').count() as u64
}

/// log2-style bucket for subtree totals: 0, 1, 2, 3-4, 5-8, 9-16, ...
fn log2_bucket(n: u64) -> u64 {
    match n {
        0 => 0,
        _ => 64 - (n - 1).leading_zeros() as u64 + 1,
    }
}

/// Whether two methods have equal [`MethodSig::dotted_class`]
/// renderings, compared without allocating: the dotted class is the
/// smali type path with `/` read as `.`.
fn same_class(a: &MethodSig, b: &MethodSig) -> bool {
    fn path(sig: &MethodSig) -> &[u8] {
        let smali = sig.as_smali();
        &smali.as_bytes()[..smali.find(";->").unwrap_or(smali.len())]
    }
    let (a, b) = (path(a), path(b));
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| x == y || matches!((x, y), (b'/', b'.') | (b'.', b'/')))
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

/// The package hierarchy of one dex, built in one pass: every method's
/// dotted package is computed once, and every package prefix (each
/// hierarchy level of each method's package) maps to the indices of
/// the methods in its subtree.
///
/// Library detection walks these subtrees instead of rescanning the
/// whole method table for every prefix, so each method is visited once
/// per ancestor rather than once per prefix of the app.
#[derive(Debug, Clone, Default)]
pub struct PackageTree {
    /// Dotted package of every method, by method index.
    packages: Vec<String>,
    /// Every package prefix, sorted, with the indices of its subtree's
    /// methods in ascending order.
    subtrees: Vec<(String, Vec<u32>)>,
}

impl PackageTree {
    /// Builds the tree of `dex`. Methods of the default (empty) package
    /// are in no subtree but the empty prefix's, and only a package with
    /// a leading dot creates that one.
    pub fn new(dex: &DexFile) -> Self {
        let packages: Vec<String> = dex.methods.iter().map(|m| m.sig.package()).collect();
        let mut subtrees: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        let mut default_package = Vec::new();
        for (i, pkg) in packages.iter().enumerate() {
            let i = i as u32;
            if pkg.is_empty() {
                default_package.push(i);
                continue;
            }
            for (dot, _) in pkg.match_indices('.') {
                subtrees.entry(&pkg[..dot]).or_default().push(i);
            }
            subtrees.entry(pkg).or_default().push(i);
        }
        // Only a package with a leading dot yields the empty prefix, and
        // by `in_subtree` its subtree holds the default package too.
        if let Some(members) = subtrees.get_mut("") {
            members.extend(default_package);
            members.sort_unstable();
        }
        let subtrees = subtrees
            .into_iter()
            .map(|(prefix, members)| (prefix.to_owned(), members))
            .collect();
        PackageTree { packages, subtrees }
    }

    /// Every package prefix with its subtree's method indices, sorted by
    /// prefix.
    pub fn subtrees(&self) -> impl Iterator<Item = (&str, &[u32])> {
        self.subtrees
            .iter()
            .map(|(prefix, members)| (prefix.as_str(), members.as_slice()))
    }

    /// Dotted package of every method, by method index.
    pub fn packages(&self) -> &[String] {
        &self.packages
    }

    /// The structural profile of the subtree rooted at `prefix`, whose
    /// method indices are `members` in ascending order (one of
    /// [`subtrees`](Self::subtrees)).
    pub fn profile(&self, dex: &DexFile, prefix: &str, members: &[u32]) -> StructuralProfile {
        profile_members(dex, &self.packages, prefix, members)
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
    let packages: Vec<String> = dex.methods.iter().map(|m| m.sig.package()).collect();
    let members: Vec<u32> = (0..packages.len() as u32)
        .filter(|&i| in_subtree(&packages[i as usize], prefix))
        .collect();
    profile_members(dex, &packages, prefix, &members)
}

/// The profile of the subtree rooted at `prefix` whose method indices
/// are `members`, ascending; `packages` holds every method's package.
fn profile_members(
    dex: &DexFile,
    packages: &[String],
    prefix: &str,
    members: &[u32],
) -> StructuralProfile {
    let mut hashes: Vec<u64> = Vec::with_capacity(profile_total(members.len()) as usize);
    for &i in members {
        let m = &dex.methods[i as usize];
        let shape = shape_of(m.sig.descriptor());
        // Abstracted signature: relative depth × descriptor shape.
        let mut h = FeatureHasher::new("sig");
        h.num(depth_below(&packages[i as usize], prefix));
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
                if !same_class(&m.sig, &dex.methods[*t as usize].sig) {
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
                    same_class(a, b),
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
