//! Binary encoding of [`DexFile`] — the on-disk `classes.dex` stand-in.
//!
//! Layout (all integers little-endian, lengths uleb128):
//!
//! ```text
//! magic        8 bytes  "SDEX0001"
//! string_count uleb128
//!   strings    uleb128 length + UTF-8 bytes, each
//! method_count uleb128
//!   methods    sig string idx (uleb128), code item
//!     code     inst_count uleb128, then per instruction:
//!              00                      Nop
//!              01 uleb128              Const
//!              02 uleb128              Invoke internal(method idx)
//!              03 uleb128              Invoke external(sig string idx)
//!              04                      Return
//!              05 disp ref uleb128     InvokeAsync (disp: 0 AsyncTask,
//!                                      1 Thread, 2 Executor; ref: 0
//!                                      internal, 1 external)
//!              06 domain-idx port send recv conn [shape]
//!                                      Network (all uleb128 except the
//!                                      connector byte: 0 AndroidOkHttp,
//!                                      1 ApacheHttp, 2 DirectSocket).
//!                                      The connector's high bit (0x80)
//!                                      flags a trailing wire-shape
//!                                      byte: 1 V6, 2 TlsSni,
//!                                      3 ConnectProxy, 4 Pooled
//!                                      (followed by a uleb128 stream
//!                                      count >= 1). Plain ops carry no
//!                                      flag, keeping legacy bytes.
//! class_count  uleb128
//!   classes    name string idx, method idx count, method idxs
//! ```
//!
//! A string pool with uleb128-coded references mirrors how real dex
//! deduplicates type/method signature strings; external framework
//! signatures used by thousands of invoke sites are stored once.

use std::error::Error;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

use crate::model::{Connector, DexFile, Dispatcher, Instruction, MethodRef, WireShape};
use crate::view::DexView;

/// Magic bytes identifying the format and version.
pub const DEX_MAGIC: &[u8; 8] = b"SDEX0001";

/// Error produced when parsing malformed dex bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DexParseError {
    /// Description of the malformation.
    pub message: String,
}

impl DexParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        DexParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed dex: {}", self.message)
    }
}

impl Error for DexParseError {}

impl From<Uleb128Error> for DexParseError {
    fn from(err: Uleb128Error) -> Self {
        DexParseError::new(match err {
            Uleb128Error::Truncated => "truncated uleb128",
            Uleb128Error::Overflow => "uleb128 overflow",
        })
    }
}

/// Why [`get_uleb128`] could not read a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uleb128Error {
    /// The input ends inside the value.
    Truncated,
    /// The value runs past 64 bits.
    Overflow,
}

/// Appends `value` as uleb128.
pub fn put_uleb128(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            break;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads one uleb128 value off the front of `buf`.
///
/// # Errors
///
/// [`Uleb128Error::Truncated`] when `buf` ends inside the value,
/// [`Uleb128Error::Overflow`] when it runs past 64 bits.
pub fn get_uleb128(buf: &mut &[u8]) -> Result<u64, Uleb128Error> {
    let mut result: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = get_u8(buf).ok_or(Uleb128Error::Truncated)?;
        if shift >= 64 {
            return Err(Uleb128Error::Overflow);
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

pub(crate) fn get_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = buf.split_first()?;
    *buf = rest;
    Some(byte)
}

/// Interns strings, assigning dense ids in first-seen order.
#[derive(Default)]
struct StringPool {
    strings: Vec<String>,
    index: std::collections::HashMap<String, u64>,
}

impl StringPool {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.strings.len() as u64;
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        id
    }
}

/// Serializes `dex` into its binary representation.
///
/// The output is deterministic for a given input.
pub fn write_dex(dex: &DexFile) -> Bytes {
    let mut pool = StringPool::default();
    // Pass 1: intern every string in a stable order — method signatures,
    // external invoke targets, network domain literals, class names.
    for method in &dex.methods {
        pool.intern(method.sig.as_smali());
        for inst in &method.code.instructions {
            match inst {
                Instruction::Invoke(MethodRef::External(sig))
                | Instruction::InvokeAsync {
                    target: MethodRef::External(sig),
                    ..
                } => {
                    pool.intern(sig.as_smali());
                }
                Instruction::Network(op) => {
                    pool.intern(&op.domain);
                }
                _ => {}
            }
        }
    }
    for class in &dex.classes {
        pool.intern(&class.dotted_name);
    }

    // Pass 2: emit sections. `intern` now only looks up existing ids.
    let mut buf = BytesMut::new();
    buf.put_slice(DEX_MAGIC);
    put_uleb128(&mut buf, pool.strings.len() as u64);
    for i in 0..pool.strings.len() {
        let s = &pool.strings[i];
        put_uleb128(&mut buf, s.len() as u64);
        buf.put_slice(s.as_bytes());
    }
    put_uleb128(&mut buf, dex.methods.len() as u64);
    for method in &dex.methods {
        put_uleb128(&mut buf, pool.intern(method.sig.as_smali()));
        put_uleb128(&mut buf, method.code.instructions.len() as u64);
        for inst in &method.code.instructions {
            match inst {
                Instruction::Nop => buf.put_u8(0),
                Instruction::Const(v) => {
                    buf.put_u8(1);
                    put_uleb128(&mut buf, u64::from(*v));
                }
                Instruction::Invoke(MethodRef::Internal(idx)) => {
                    buf.put_u8(2);
                    put_uleb128(&mut buf, u64::from(*idx));
                }
                Instruction::Invoke(MethodRef::External(sig)) => {
                    buf.put_u8(3);
                    put_uleb128(&mut buf, pool.intern(sig.as_smali()));
                }
                Instruction::Return => buf.put_u8(4),
                Instruction::InvokeAsync { dispatcher, target } => {
                    buf.put_u8(5);
                    buf.put_u8(match dispatcher {
                        Dispatcher::AsyncTask => 0,
                        Dispatcher::Thread => 1,
                        Dispatcher::Executor => 2,
                    });
                    match target {
                        MethodRef::Internal(idx) => {
                            buf.put_u8(0);
                            put_uleb128(&mut buf, u64::from(*idx));
                        }
                        MethodRef::External(sig) => {
                            buf.put_u8(1);
                            put_uleb128(&mut buf, pool.intern(sig.as_smali()));
                        }
                    }
                }
                Instruction::Network(op) => {
                    buf.put_u8(6);
                    put_uleb128(&mut buf, pool.intern(&op.domain));
                    put_uleb128(&mut buf, u64::from(op.port));
                    put_uleb128(&mut buf, op.send_bytes);
                    put_uleb128(&mut buf, op.recv_bytes);
                    let connector = match op.connector {
                        Connector::AndroidOkHttp => 0,
                        Connector::ApacheHttp => 1,
                        Connector::DirectSocket => 2,
                    };
                    // The high bit of the connector byte marks a
                    // non-plain wire shape; plain ops keep the legacy
                    // single-byte encoding bit-for-bit.
                    match op.shape {
                        WireShape::Plain => buf.put_u8(connector),
                        shape => {
                            buf.put_u8(connector | 0x80);
                            match shape {
                                WireShape::Plain => unreachable!(),
                                WireShape::V6 => buf.put_u8(1),
                                WireShape::TlsSni => buf.put_u8(2),
                                WireShape::ConnectProxy => buf.put_u8(3),
                                WireShape::Pooled { streams } => {
                                    buf.put_u8(4);
                                    put_uleb128(&mut buf, u64::from(streams));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    put_uleb128(&mut buf, dex.classes.len() as u64);
    for class in &dex.classes {
        put_uleb128(&mut buf, pool.intern(&class.dotted_name));
        put_uleb128(&mut buf, class.method_indices.len() as u64);
        for &idx in &class.method_indices {
            put_uleb128(&mut buf, u64::from(idx));
        }
    }
    buf.freeze()
}

/// Parses binary dex bytes back into a [`DexFile`] — the dexlib2
/// disassembly stand-in used by the Method Monitor and the offline
/// pipeline: the [`DexView`] of the bytes, owned.
///
/// # Errors
///
/// Returns [`DexParseError`] on bad magic, truncation, out-of-range
/// string references, invalid opcodes, malformed signature strings,
/// trailing garbage, or an inconsistent dex, as [`DexView::parse`]
/// reports them.
pub fn parse_dex(bytes: &[u8]) -> Result<DexFile, DexParseError> {
    DexView::parse(bytes).map(|view| view.to_dex())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassDef, CodeItem, MethodDef, NetworkOp};
    use crate::sig::MethodSig;

    fn sample() -> DexFile {
        DexFile {
            methods: vec![
                MethodDef {
                    sig: MethodSig::new("com.app", "Main", "onCreate", "()V"),
                    code: CodeItem {
                        instructions: vec![
                            Instruction::Nop,
                            Instruction::Const(1234),
                            Instruction::Invoke(MethodRef::Internal(1)),
                            Instruction::Return,
                        ],
                    },
                },
                MethodDef {
                    sig: MethodSig::new("com.ads", "Loader", "fetch", "()V"),
                    code: CodeItem {
                        instructions: vec![
                            Instruction::Invoke(MethodRef::External(MethodSig::new(
                                "java.net",
                                "Socket",
                                "connect",
                                "(Ljava/net/SocketAddress;)V",
                            ))),
                            Instruction::Return,
                        ],
                    },
                },
            ],
            classes: vec![ClassDef {
                dotted_name: "com.app.Main".into(),
                method_indices: vec![0, 1],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let dex = sample();
        let bytes = write_dex(&dex);
        let parsed = parse_dex(&bytes).unwrap();
        assert_eq!(parsed, dex);
    }

    #[test]
    fn roundtrip_async_and_network_instructions() {
        let mut dex = sample();
        dex.methods[0].code.instructions = vec![
            Instruction::InvokeAsync {
                dispatcher: Dispatcher::AsyncTask,
                target: MethodRef::Internal(1),
            },
            Instruction::InvokeAsync {
                dispatcher: Dispatcher::Executor,
                target: MethodRef::External(MethodSig::new("java.lang", "Runnable", "run", "()V")),
            },
            Instruction::Network(NetworkOp {
                shape: WireShape::Plain,
                domain: "ads.adnet.example".into(),
                port: 443,
                send_bytes: 512,
                recv_bytes: 1_048_576,
                connector: Connector::AndroidOkHttp,
            }),
            Instruction::Network(NetworkOp {
                shape: WireShape::Plain,
                domain: "cdn.host.example".into(),
                port: 80,
                send_bytes: 0,
                recv_bytes: 0,
                connector: Connector::DirectSocket,
            }),
            Instruction::Return,
        ];
        let parsed = parse_dex(&write_dex(&dex)).unwrap();
        assert_eq!(parsed, dex);
    }

    fn shaped_op(shape: WireShape) -> NetworkOp {
        NetworkOp {
            domain: "shaped.example".into(),
            port: 443,
            send_bytes: 128,
            recv_bytes: 4_096,
            connector: Connector::AndroidOkHttp,
            shape,
        }
    }

    #[test]
    fn roundtrip_every_wire_shape() {
        for shape in [
            WireShape::Plain,
            WireShape::V6,
            WireShape::TlsSni,
            WireShape::ConnectProxy,
            WireShape::Pooled { streams: 7 },
        ] {
            let mut dex = sample();
            dex.methods[0].code.instructions =
                vec![Instruction::Network(shaped_op(shape)), Instruction::Return];
            let parsed = parse_dex(&write_dex(&dex)).unwrap();
            assert_eq!(parsed, dex, "shape {shape:?}");
        }
    }

    #[test]
    fn plain_ops_keep_legacy_connector_byte() {
        // The shaped encoder must be bit-for-bit inert for plain ops: no
        // high bit on the connector, no trailing shape byte. A dex whose
        // final bytes are a plain Network op pins this exactly — the
        // file must end `… 01 00`: the unflagged ApacheHttp connector,
        // then the empty class-section count.
        let mut op = shaped_op(WireShape::Plain);
        op.connector = Connector::ApacheHttp;
        let dex = DexFile {
            methods: vec![MethodDef {
                sig: MethodSig::new("com.app", "C", "m", "()V"),
                code: CodeItem {
                    instructions: vec![Instruction::Network(op)],
                },
            }],
            classes: vec![],
        };
        let bytes = write_dex(&dex).to_vec();
        assert_eq!(bytes[bytes.len() - 1], 0, "class count");
        assert_eq!(
            bytes[bytes.len() - 2],
            1,
            "unflagged connector, no shape byte"
        );
    }

    #[test]
    fn rejects_bad_wire_shape_tags() {
        let mut dex = sample();
        dex.methods[0].code.instructions = vec![
            Instruction::Network(shaped_op(WireShape::V6)),
            Instruction::Return,
        ];
        let bytes = write_dex(&dex).to_vec();
        // The V6 op encodes `... conn|0x80, 01, Return(04)`. Corrupt
        // the shape byte (second-to-last of the method body).
        let pos = bytes
            .iter()
            .rposition(|&b| b == 0x80)
            .expect("flagged connector present");
        let mut bad = bytes.clone();
        bad[pos + 1] = 0; // plain-behind-the-flag: non-canonical
        assert!(parse_dex(&bad)
            .unwrap_err()
            .to_string()
            .contains("invalid wire shape"));
        let mut bad = bytes;
        bad[pos + 1] = 9;
        assert!(parse_dex(&bad)
            .unwrap_err()
            .to_string()
            .contains("invalid wire shape"));
    }

    #[test]
    fn rejects_zero_pooled_streams() {
        let mut dex = sample();
        dex.methods[0].code.instructions = vec![
            Instruction::Network(shaped_op(WireShape::Pooled { streams: 1 })),
            Instruction::Return,
        ];
        let bytes = write_dex(&dex).to_vec();
        // Pooled encodes `conn|0x80, 04, <streams>`; zero the count.
        let pos = bytes.iter().rposition(|&b| b == 0x80).unwrap();
        let mut bad = bytes;
        assert_eq!(bad[pos + 1], 4);
        bad[pos + 2] = 0;
        assert!(parse_dex(&bad)
            .unwrap_err()
            .to_string()
            .contains("invalid pooled stream count"));
    }

    #[test]
    fn rejects_invalid_dispatcher_connector_tags() {
        let mut dex = sample();
        dex.methods[0].code.instructions = vec![Instruction::InvokeAsync {
            dispatcher: Dispatcher::Thread,
            target: MethodRef::Internal(0),
        }];
        let bytes = write_dex(&dex).to_vec();
        // Locate the 0x05 opcode and corrupt its dispatcher byte.
        let pos = bytes.iter().rposition(|&b| b == 5).unwrap();
        let mut bad = bytes.clone();
        bad[pos + 1] = 7;
        assert!(parse_dex(&bad).is_err());
        let mut bad = bytes;
        bad[pos + 2] = 9; // method ref tag
        assert!(parse_dex(&bad).is_err());
    }

    #[test]
    fn deterministic_output() {
        let dex = sample();
        assert_eq!(write_dex(&dex), write_dex(&dex));
    }

    #[test]
    fn string_pool_dedupes_repeated_externals() {
        let ext = MethodSig::new("java.net", "Socket", "connect", "()V");
        let mut methods = Vec::new();
        for i in 0..50 {
            methods.push(MethodDef {
                sig: MethodSig::new("com.app", "C", &format!("m{i}"), "()V"),
                code: CodeItem {
                    instructions: vec![Instruction::Invoke(MethodRef::External(ext.clone()))],
                },
            });
        }
        let dex = DexFile {
            methods,
            classes: vec![],
        };
        let bytes = write_dex(&dex);
        // The external signature's text must appear exactly once.
        let needle = ext.as_smali().as_bytes();
        let count = bytes.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = parse_dex(b"NOTADEX!rest").unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = write_dex(&sample());
        for len in 0..bytes.len() {
            assert!(
                parse_dex(&bytes[..len]).is_err(),
                "truncation at {len} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = write_dex(&sample()).to_vec();
        bytes.push(0);
        assert!(parse_dex(&bytes).is_err());
    }

    #[test]
    fn rejects_invalid_opcode() {
        // magic + 1 string + 1 method using opcode 9
        let mut buf = BytesMut::new();
        buf.put_slice(DEX_MAGIC);
        put_uleb128(&mut buf, 1);
        let sig = "La/B;->m()V";
        put_uleb128(&mut buf, sig.len() as u64);
        buf.put_slice(sig.as_bytes());
        put_uleb128(&mut buf, 1); // one method
        put_uleb128(&mut buf, 0); // sig id
        put_uleb128(&mut buf, 1); // one instruction
        buf.put_u8(9);
        let err = parse_dex(&buf).unwrap_err();
        assert!(err.to_string().contains("invalid opcode"));
    }

    #[test]
    fn empty_dex_roundtrips() {
        let dex = DexFile::new();
        assert_eq!(parse_dex(&write_dex(&dex)).unwrap(), dex);
    }

    #[test]
    fn uleb128_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_uleb128(&mut buf, v);
            let mut bytes = &buf[..];
            assert_eq!(get_uleb128(&mut bytes).unwrap(), v);
            assert!(bytes.is_empty());
        }
    }
}
