//! The from-scratch subtree features: one scan of an owned dex's
//! method table per prefix, then the structural profile of that one
//! subtree. This was the product's path before `FeatureTable` became
//! the only extractor; it shares no code with the table (its feature
//! hashes, descriptor shapes and buckets are copied here), so tests
//! hold the table's profiles, and the libradar fingerprint reference
//! its subtrees, to it.
//!
//! Included with `#[path]` by dex's unit tests (through
//! `extern crate self as spector_dex`), the dex proptests, the
//! libradar unit tests and proptests, corpus's unit tests and the
//! workspace's `tests/knowledge_equivalence.rs`; each uses a subset.
#![allow(dead_code)]

use std::cmp::Ordering;

use spector_dex::features::{profile_total, StructuralProfile};
use spector_dex::model::{DexFile, Instruction, MethodRef};
use spector_dex::sig::MethodSig;
use spector_dex::view::{InstructionRef, NetworkRef, TargetRef};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

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

/// The borrowed form of an owned instruction.
pub fn instruction_ref<'a>(inst: &'a Instruction) -> InstructionRef<'a> {
    let target = |r: &'a MethodRef| match r {
        MethodRef::Internal(id) => TargetRef::Internal(*id),
        MethodRef::External(sig) => TargetRef::External(sig.as_smali()),
    };
    match inst {
        Instruction::Nop => InstructionRef::Nop,
        Instruction::Const(v) => InstructionRef::Const(*v),
        Instruction::Invoke(r) => InstructionRef::Invoke(target(r)),
        Instruction::InvokeAsync {
            dispatcher,
            target: r,
        } => InstructionRef::InvokeAsync {
            dispatcher: *dispatcher,
            target: target(r),
        },
        Instruction::Network(op) => InstructionRef::Network(NetworkRef {
            domain: &op.domain,
            port: op.port,
            send_bytes: op.send_bytes,
            recv_bytes: op.recv_bytes,
            connector: op.connector,
            shape: op.shape,
        }),
        Instruction::Return => InstructionRef::Return,
    }
}

/// Reduces a `(params)ret` descriptor to its shape class: object types
/// collapse to `L`, arrays keep their `[` markers, primitive letters and
/// the `()`/`V` structure survive unchanged.
fn shape_of(descriptor: &str) -> String {
    let mut out = Vec::with_capacity(descriptor.len());
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
    String::from_utf8(out).expect("a shape keeps whole chars")
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
pub fn in_subtree(path: &str, prefix: &str) -> bool {
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
/// method table.
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
pub fn class_path(sig: &MethodSig) -> &str {
    let smali = sig.as_smali();
    &smali[..smali.find(";->").unwrap_or(smali.len())]
}

/// Whether two [`class_path`]s have equal [`MethodSig::dotted_class`]
/// renderings, compared without allocating.
fn same_class(a: &str, b: &str) -> bool {
    a.len() == b.len() && cmp_dotted(a, b).is_eq()
}

/// Orders two package paths as their dotted renderings, so `com/foo`
/// and `com.foo` are one package.
fn cmp_dotted(a: &str, b: &str) -> Ordering {
    a.bytes().map(dotted).cmp(b.bytes().map(dotted))
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
        hashes.push(signature_feature(
            depth_below(paths[i as usize], prefix_len),
            shape.as_bytes(),
        ));
        let mut counts = [0u64; 5];
        for inst in &m.code.instructions {
            if let Some(slot) = histogram_slot(instruction_ref(inst)) {
                counts[slot] += 1;
            }
        }
        hashes.push(opcode_feature(shape.as_bytes(), counts));
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
        hashes.push(degree_feature(out, into));
    }
    if !members.is_empty() {
        hashes.extend(total_features(cross_class_edges, members.len()));
    }
    collapse(&mut hashes)
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
