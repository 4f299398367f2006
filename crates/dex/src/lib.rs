//! Synthetic Android application packages for Libspector.
//!
//! The original Libspector consumes real Play-Store apks: it disassembles
//! each apk's `classes.dex` with dexlib2 to enumerate every method *type
//! signature* the app contains, matches stack-trace frames against those
//! signatures, and checksums the apk with SHA-256 so socket reports can be
//! tied back to the app under test.
//!
//! This crate is the substitute substrate: a compact, binary, DEX-like
//! container with the pieces the pipeline actually exercises —
//!
//! * smali-style **type signatures** ([`sig`]) with the
//!   `Lpackage/name/Class$Inner;->method(ArgTypes)Ret` convention from the
//!   paper's §III-C footnote,
//! * a **dex model** ([`model`]) of classes, methods and bytecode-like
//!   code items whose `invoke` instructions form the app's call graph,
//! * a **binary encoding** ([`format`](mod@format)) with a string pool, id tables and
//!   uleb128-coded code items, plus the matching parser (the dexlib2
//!   stand-in used by the Method Monitor): a borrowed, validated
//!   [`view`] of the bytes, which [`Apk::dex`] returns, `parse_dex`
//!   turns into the owned model and library detection reads as it is,
//! * the **package tree and per-method features** ([`features`]) both
//!   library-detection tiers read, to register libraries and to detect
//!   them,
//! * an **apk container** ([`apk`]) carrying dex bytes, native-library
//!   entries (so the ARM-only filter from §III-A has something to filter
//!   on), manifest metadata, and
//! * a from-scratch **SHA-256** ([`sha256`]) used for apk checksums in
//!   socket reports. Whole blocks run on the x86 SHA extensions when CPU
//!   detection finds them (with SSSE3 and SSE4.1), on portable rounds
//!   otherwise.
//!
//! A run parses its apk's dex once into the owned model, behind an
//! `Arc`, and builds the [`SigIndex`] that shares it (frame translation
//! by dotted name, entry points by exact signature, neither copying a
//! signature); the apk digest is hashed as the archive is framed.
//!
//! # Examples
//!
//! ```
//! use spector_dex::sig::MethodSig;
//!
//! # fn main() -> Result<(), spector_dex::sig::SigParseError> {
//! let sig: MethodSig =
//!     "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/Object;)Ljava/lang/Object;"
//!         .parse()?;
//! assert_eq!(sig.package(), "com.unity3d.ads.android.cache");
//! assert_eq!(sig.dotted_name(), "com.unity3d.ads.android.cache.b.doInBackground");
//! # Ok(())
//! # }
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod apk;
pub mod features;
pub mod format;
pub mod model;
pub mod sha256;
pub mod sig;
pub mod view;

pub use apk::{Apk, ApkEntry, ApkError, Manifest};
pub use features::{
    profile_total, shape_of, FeatureTable, PackageTree, StructuralProfile, Subtree,
};
pub use format::{parse_dex, write_dex, DexParseError};
pub use model::{
    ClassDef, CodeItem, Connector, DexFile, Dispatcher, Instruction, MethodDef, MethodRef,
    NetworkOp, SigIndex, WireShape,
};
pub use sha256::Sha256;
pub use sig::{MethodSig, SigParseError};
pub use view::{DexView, InstructionRef, NetworkRef, TargetRef};

#[cfg(test)]
extern crate self as spector_dex;
// The from-scratch subtree profile lives in test code; unit tests
// include it under the crate's own name, as the integration tests do.
#[cfg(test)]
#[path = "../tests/support/subtree.rs"]
mod subtree;
