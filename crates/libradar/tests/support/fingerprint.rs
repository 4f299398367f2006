//! The from-scratch subtree fingerprint: one scan of an owned dex's
//! method table per prefix, then one heap line per member method,
//! sorted and hashed. This was how `LibraryDb` registered libraries
//! before `FeatureTable` became the only extractor; tests hold the
//! table's sorted lines, and so every registered and detected
//! fingerprint, to it.
//!
//! Included with `#[path]` beside `crates/dex/tests/support/subtree.rs`,
//! which its includer names `subtree`: by the libradar unit tests
//! (through `extern crate self as spector_libradar`) and proptests,
//! corpus's unit tests and the workspace's
//! `tests/knowledge_equivalence.rs`.
#![allow(dead_code)]

use spector_dex::model::DexFile;
use spector_dex::sha256::Sha256;
use spector_libradar::detect::LibraryFingerprint;

use super::subtree::{instruction_ref, scan_subtree};

/// Fingerprints the subtree of methods whose package equals `prefix` or
/// lies beneath it. Returns `None` when no methods are in the subtree.
pub fn fingerprint_subtree(dex: &DexFile, prefix: &str) -> Option<LibraryFingerprint> {
    let (paths, members) = scan_subtree(dex, prefix);
    fingerprint_members(dex, &paths, prefix.len(), &members).map(|(fp, _)| fp)
}

/// [`fingerprint_subtree`] with the method count and the total bytes of
/// the subtree's feature lines: what `LibraryDb::add_library` records
/// for its size check.
pub fn fingerprint_with_size(
    dex: &DexFile,
    prefix: &str,
) -> Option<(LibraryFingerprint, usize, u64)> {
    let (paths, members) = scan_subtree(dex, prefix);
    fingerprint_members(dex, &paths, prefix.len(), &members)
        .map(|(fp, bytes)| (fp, members.len(), bytes))
}

/// Fingerprints the subtree rooted at a prefix of `prefix_len` bytes
/// whose method indices are `members`, given every method's package
/// path, with the total bytes of its feature lines. Returns `None` for
/// an empty subtree.
fn fingerprint_members(
    dex: &DexFile,
    paths: &[&str],
    prefix_len: usize,
    members: &[u32],
) -> Option<(LibraryFingerprint, u64)> {
    if members.is_empty() {
        return None;
    }
    let mut features: Vec<Vec<u8>> = Vec::with_capacity(members.len());
    for &i in members {
        let method = &dex.methods[i as usize];
        let path = paths[i as usize];
        // Package-stripped structure: the sub-package path *relative to
        // the prefix*, dotted, plus class/method/descriptor, plus an
        // opcode string. Renaming the root package leaves all of this
        // intact.
        let relative = &path.as_bytes()[prefix_len.min(path.len())..];
        let (_, class, name, descriptor) = method.sig.parts();
        let mut feature = Vec::with_capacity(
            relative.len() + method.sig.as_smali().len() + method.code.instructions.len() + 4,
        );
        feature.extend(relative.iter().map(|&b| if b == b'/' { b'.' } else { b }));
        feature.push(b'|');
        for part in [class, name, descriptor] {
            feature.extend_from_slice(part.as_bytes());
            feature.push(b'|');
        }
        feature.extend(
            method
                .code
                .instructions
                .iter()
                .map(|inst| instruction_ref(inst).letter()),
        );
        features.push(feature);
    }
    features.sort_unstable();
    let mut hasher = Sha256::new();
    for feature in &features {
        hasher.update(feature);
        hasher.update(b"\n");
    }
    let bytes = features.iter().map(|f| f.len() as u64).sum();
    Some((LibraryFingerprint(hasher.finalize()), bytes))
}
