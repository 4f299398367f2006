//! Library registration and detection over owned test dexes through
//! the product's feature table: each dex is written, read back as a
//! view and tabled, as an apk's dex is.
//!
//! Included with `#[path]` beside `fingerprint.rs`, which its includer
//! names `fingerprint`: by the libradar unit tests (through
//! `extern crate self as spector_libradar`) and proptests.
#![allow(dead_code)]

use spector_dex::model::DexFile;
use spector_dex::sha256::Sha256;
use spector_dex::{write_dex, DexView, FeatureTable};
use spector_libradar::detect::{DetectedLibrary, LibraryFingerprint};
use spector_libradar::{LibCategory, LibraryDb};

use super::fingerprint::fingerprint_subtree;

/// Runs `f` over the feature table of `dex`'s view.
pub fn with_table<R>(dex: &DexFile, f: impl FnOnce(&mut FeatureTable) -> R) -> R {
    let bytes = write_dex(dex);
    let view = DexView::parse(&bytes).expect("test dexes validate");
    f(&mut FeatureTable::new(&view))
}

/// The fingerprint of the subtree `prefix` names in `dex`, from its
/// feature table, checked against the from-scratch reference.
pub fn table_fingerprint(dex: &DexFile, prefix: &str) -> Option<LibraryFingerprint> {
    let fp = with_table(dex, |table| {
        let id = table.tree().find(prefix)?;
        Some(LibraryFingerprint(Sha256::digest(table.sorted_lines(id))))
    });
    assert_eq!(fp, fingerprint_subtree(dex, prefix), "{prefix}");
    fp
}

/// Registers the library `name` names in `dex`.
pub fn add_library(db: &mut LibraryDb, name: &str, category: LibCategory, dex: &DexFile) {
    with_table(dex, |table| db.add_library(name, category, table));
}

/// The libraries `db` detects in `dex`.
pub fn detect(db: &LibraryDb, dex: &DexFile) -> Vec<DetectedLibrary> {
    let bytes = write_dex(dex);
    db.detect(&DexView::parse(&bytes).expect("test dexes validate"))
}
