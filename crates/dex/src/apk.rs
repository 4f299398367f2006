//! The apk container: a named-entry archive with manifest metadata.
//!
//! Real apks are zip archives; for the measurement pipeline only three
//! properties matter, and all are modelled here:
//!
//! * the archive contains a `classes.dex` the Method Monitor can
//!   disassemble,
//! * it contains native-library entries under `lib/<abi>/` — Libspector
//!   filters out apps that ship *only* ARM shared libraries because its
//!   emulators are x86 (§III-A),
//! * its bytes hash to a stable SHA-256 that socket reports embed.
//!
//! The manifest additionally carries the metadata the app-collection
//! step uses (dex timestamp, latest VirusTotal scan date) and the entry
//! points the UI exerciser dispatches to (activities and their event
//! handler methods).

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::format::{write_dex, DexParseError};
use crate::model::DexFile;
use crate::sha256::{Digest, Sha256};
use crate::sig::MethodSig;
use crate::view::DexView;

/// Magic bytes identifying the apk container format.
pub const APK_MAGIC: &[u8; 8] = b"SAPK0001";

/// Default dex timestamp (seconds) meaning "unset", mirroring the
/// `01-01-1980` default the paper special-cases during app selection.
pub const DEFAULT_DEX_TIMESTAMP: u64 = 315_532_800;

/// One named entry in the archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApkEntry {
    /// Entry path, e.g. `classes.dex` or `lib/x86/libmain.so`.
    pub name: String,
    /// Raw entry bytes.
    pub data: Bytes,
}

/// A declared activity and the UI event handlers it exposes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityDecl {
    /// Dotted activity class name.
    pub class: String,
    /// Handler methods the UI layer may dispatch to (by signature).
    pub handlers: Vec<MethodSig>,
    /// Methods run when the activity starts (`onCreate` chain).
    pub on_create: Vec<MethodSig>,
}

/// Manifest metadata (the `AndroidManifest` stand-in, JSON-encoded).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Application package name, e.g. `com.example.game`.
    pub package: String,
    /// Monotonic version code.
    pub version_code: u32,
    /// Play-store category label, e.g. `GAME_ACTION`.
    pub category: String,
    /// Seconds-since-epoch timestamp recorded in the dex file.
    pub dex_timestamp: u64,
    /// Date of the latest VirusTotal scan, if any (seconds).
    pub vt_scan_date: Option<u64>,
    /// Methods run once at process start (`Application.onCreate`), in
    /// order — this is where apps initialize their bundled SDKs, and
    /// where the paper observed AnT libraries already producing traffic.
    #[serde(default)]
    pub application_on_create: Vec<MethodSig>,
    /// Declared activities in launch order (first is the main activity).
    pub activities: Vec<ActivityDecl>,
}

impl Manifest {
    /// Returns `true` when the dex timestamp is the unset default and
    /// selection must fall back to the VT scan date.
    pub fn has_default_dex_timestamp(&self) -> bool {
        self.dex_timestamp == DEFAULT_DEX_TIMESTAMP
    }
}

/// Errors produced when reading an apk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApkError {
    /// Container framing was malformed.
    Malformed(String),
    /// `classes.dex` missing or unparseable.
    Dex(DexParseError),
    /// `AndroidManifest.json` missing or unparseable.
    Manifest(String),
}

impl fmt::Display for ApkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApkError::Malformed(m) => write!(f, "malformed apk: {m}"),
            ApkError::Dex(e) => write!(f, "apk dex: {e}"),
            ApkError::Manifest(m) => write!(f, "apk manifest: {m}"),
        }
    }
}

impl Error for ApkError {}

impl From<DexParseError> for ApkError {
    fn from(e: DexParseError) -> Self {
        ApkError::Dex(e)
    }
}

/// An application package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Apk {
    entries: Vec<ApkEntry>,
}

impl Apk {
    /// Assembles an apk from a manifest, a dex file, and extra entries
    /// (native libraries, assets).
    pub fn build(manifest: &Manifest, dex: &DexFile, extra: Vec<ApkEntry>) -> Self {
        let mut entries = vec![
            ApkEntry {
                name: "AndroidManifest.json".to_owned(),
                data: Bytes::from(
                    serde_json::to_vec(manifest).expect("manifest serialization is infallible"),
                ),
            },
            ApkEntry {
                name: "classes.dex".to_owned(),
                data: write_dex(dex),
            },
        ];
        entries.extend(extra);
        Apk { entries }
    }

    /// All entries in archive order.
    pub fn entries(&self) -> &[ApkEntry] {
        &self.entries
    }

    /// Finds an entry by exact name.
    pub fn entry(&self, name: &str) -> Option<&ApkEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Parses and returns the manifest.
    ///
    /// # Errors
    ///
    /// [`ApkError::Manifest`] when missing or not valid JSON.
    pub fn manifest(&self) -> Result<Manifest, ApkError> {
        let entry = self
            .entry("AndroidManifest.json")
            .ok_or_else(|| ApkError::Manifest("missing AndroidManifest.json".into()))?;
        serde_json::from_slice(&entry.data).map_err(|e| ApkError::Manifest(e.to_string()))
    }

    /// Disassembles `classes.dex` into its borrowed, validated view;
    /// [`DexView::to_dex`] copies it into the owned model.
    ///
    /// # Errors
    ///
    /// [`ApkError::Dex`] when `classes.dex` is missing or malformed.
    pub fn dex(&self) -> Result<DexView<'_>, ApkError> {
        let entry = self.entry("classes.dex").ok_or_else(|| {
            ApkError::Dex(DexParseError {
                message: "missing classes.dex".into(),
            })
        })?;
        Ok(DexView::parse(&entry.data)?)
    }

    /// Native ABIs this apk ships shared libraries for, deduplicated in
    /// first-seen order (derived from `lib/<abi>/...` entry paths).
    pub fn native_abis(&self) -> Vec<&str> {
        let mut abis = Vec::new();
        for entry in &self.entries {
            if let Some(rest) = entry.name.strip_prefix("lib/") {
                if let Some((abi, _)) = rest.split_once('/') {
                    if !abis.contains(&abi) {
                        abis.push(abi);
                    }
                }
            }
        }
        abis
    }

    /// Returns `true` when the app can run on an x86 emulator: it ships
    /// no native code at all, or ships an x86/x86_64 variant. Apps that
    /// only include ARM shared libraries are filtered out of the corpus
    /// (§III-A).
    pub fn supports_x86(&self) -> bool {
        let abis = self.native_abis();
        abis.is_empty() || abis.iter().any(|a| a.starts_with("x86"))
    }

    /// Serializes the archive to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.frame(|part| buf.put_slice(part));
        buf.freeze()
    }

    /// Feeds the serialized archive to `sink` piece by piece, in order:
    /// magic, entry count, then each entry's name length, name, data
    /// length and data (lengths as little-endian `u32`s).
    fn frame(&self, mut sink: impl FnMut(&[u8])) {
        sink(APK_MAGIC);
        sink(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            sink(&(entry.name.len() as u32).to_le_bytes());
            sink(entry.name.as_bytes());
            sink(&(entry.data.len() as u32).to_le_bytes());
            sink(&entry.data);
        }
    }

    /// Parses an archive from bytes.
    ///
    /// # Errors
    ///
    /// [`ApkError::Malformed`] on bad magic, truncation, or trailing
    /// bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ApkError> {
        let mut buf = Bytes::copy_from_slice(bytes);
        if buf.remaining() < APK_MAGIC.len() || &buf.split_to(APK_MAGIC.len())[..] != APK_MAGIC {
            return Err(ApkError::Malformed("bad magic".into()));
        }
        let count = get_u32(&mut buf)? as usize;
        if count > bytes.len() {
            return Err(ApkError::Malformed("entry count exceeds input".into()));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = get_u32(&mut buf)? as usize;
            if buf.remaining() < name_len {
                return Err(ApkError::Malformed("truncated entry name".into()));
            }
            let name_bytes = buf.split_to(name_len);
            let name = std::str::from_utf8(&name_bytes)
                .map_err(|_| ApkError::Malformed("entry name not UTF-8".into()))?
                .to_owned();
            let data_len = get_u32(&mut buf)? as usize;
            if buf.remaining() < data_len {
                return Err(ApkError::Malformed("truncated entry data".into()));
            }
            let data = buf.split_to(data_len);
            entries.push(ApkEntry { name, data });
        }
        if buf.has_remaining() {
            return Err(ApkError::Malformed("trailing bytes".into()));
        }
        Ok(Apk { entries })
    }

    /// SHA-256 of the serialized archive — the checksum embedded in
    /// every socket report. The archive is hashed as it is framed,
    /// without serializing it.
    pub fn sha256(&self) -> Digest {
        let mut hasher = Sha256::new();
        self.frame(|part| hasher.update(part));
        hasher.finalize()
    }
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ApkError> {
    if buf.remaining() < 4 {
        return Err(ApkError::Malformed("truncated u32".into()));
    }
    Ok(buf.get_u32_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CodeItem, MethodDef};

    fn sample_manifest() -> Manifest {
        Manifest {
            package: "com.example.game".into(),
            version_code: 7,
            category: "GAME_ACTION".into(),
            dex_timestamp: 1_560_000_000,
            vt_scan_date: Some(1_561_000_000),
            application_on_create: vec![],
            activities: vec![ActivityDecl {
                class: "com.example.game.MainActivity".into(),
                handlers: vec![MethodSig::new(
                    "com.example.game",
                    "MainActivity",
                    "onClick",
                    "(Landroid/view/View;)V",
                )],
                on_create: vec![MethodSig::new(
                    "com.example.game",
                    "MainActivity",
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                )],
            }],
        }
    }

    fn sample_dex() -> DexFile {
        DexFile {
            methods: vec![MethodDef {
                sig: MethodSig::new(
                    "com.example.game",
                    "MainActivity",
                    "onCreate",
                    "(Landroid/os/Bundle;)V",
                ),
                code: CodeItem::default(),
            }],
            classes: vec![],
        }
    }

    #[test]
    fn build_and_read_back() {
        let apk = Apk::build(&sample_manifest(), &sample_dex(), vec![]);
        assert_eq!(apk.manifest().unwrap(), sample_manifest());
        assert_eq!(apk.dex().unwrap().to_dex(), sample_dex());
    }

    #[test]
    fn bytes_roundtrip() {
        let apk = Apk::build(
            &sample_manifest(),
            &sample_dex(),
            vec![ApkEntry {
                name: "assets/data.bin".into(),
                data: Bytes::from_static(&[1, 2, 3]),
            }],
        );
        let bytes = apk.to_bytes();
        let parsed = Apk::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, apk);
        assert_eq!(parsed.sha256(), apk.sha256());
        assert_eq!(apk.sha256(), Sha256::digest(&bytes));
    }

    #[test]
    fn abi_filter_logic() {
        let mk = |libs: &[&str]| {
            let extra = libs
                .iter()
                .map(|l| ApkEntry {
                    name: (*l).to_owned(),
                    data: Bytes::new(),
                })
                .collect();
            Apk::build(&sample_manifest(), &sample_dex(), extra)
        };
        // Pure Java app: runs anywhere.
        assert!(mk(&[]).supports_x86());
        // ARM-only: filtered out.
        let arm = mk(&["lib/armeabi-v7a/libgame.so", "lib/arm64-v8a/libgame.so"]);
        assert!(!arm.supports_x86());
        assert_eq!(arm.native_abis(), vec!["armeabi-v7a", "arm64-v8a"]);
        // Fat apk with x86 variant: kept.
        assert!(mk(&["lib/armeabi-v7a/libgame.so", "lib/x86/libgame.so"]).supports_x86());
        assert!(mk(&["lib/x86_64/libgame.so"]).supports_x86());
    }

    #[test]
    fn sha256_changes_with_content() {
        let a = Apk::build(&sample_manifest(), &sample_dex(), vec![]);
        let mut manifest = sample_manifest();
        manifest.version_code += 1;
        let b = Apk::build(&manifest, &sample_dex(), vec![]);
        assert_ne!(a.sha256(), b.sha256());
    }

    #[test]
    fn manifest_with_a_malformed_signature_is_rejected() {
        let mut manifest = sample_manifest();
        manifest.application_on_create.push(MethodSig::new(
            "com.example.game",
            "App",
            "onCreate",
            "()V",
        ));
        let json = serde_json::to_string(&manifest).unwrap();
        // A handler, an activity's onCreate, and Application.onCreate.
        for good in [
            "Lcom/example/game/MainActivity;->onClick(Landroid/view/View;)V",
            "Lcom/example/game/MainActivity;->onCreate(Landroid/os/Bundle;)V",
            "Lcom/example/game/App;->onCreate()V",
        ] {
            assert!(json.contains(good), "{good} not in {json}");
            let apk = Apk {
                entries: vec![ApkEntry {
                    name: "AndroidManifest.json".into(),
                    data: Bytes::from(
                        json.replace(good, "Lcom/example/game/App;onCreate")
                            .into_bytes(),
                    ),
                }],
            };
            match apk.manifest() {
                Err(ApkError::Manifest(message)) => {
                    assert!(message.contains("invalid method signature"), "{message}");
                }
                other => panic!("{good}: expected a manifest error, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_entries_error() {
        let apk = Apk { entries: vec![] };
        assert!(matches!(apk.manifest(), Err(ApkError::Manifest(_))));
        assert!(matches!(apk.dex(), Err(ApkError::Dex(_))));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Apk::from_bytes(b"nope").is_err());
        let apk = Apk::build(&sample_manifest(), &sample_dex(), vec![]);
        let mut bytes = apk.to_bytes().to_vec();
        bytes.push(0xff);
        assert!(matches!(
            Apk::from_bytes(&bytes),
            Err(ApkError::Malformed(_))
        ));
    }

    #[test]
    fn default_dex_timestamp_detection() {
        let mut m = sample_manifest();
        assert!(!m.has_default_dex_timestamp());
        m.dex_timestamp = DEFAULT_DEX_TIMESTAMP;
        assert!(m.has_default_dex_timestamp());
    }
}
