//! A borrowed, validated view of dex bytes.
//!
//! [`DexView::parse`] reads the binary format of [`format`](crate::format)
//! once and runs every check the format has, each failure reported
//! with its message in a fixed order, but copies nothing: the string
//! pool is a list of `&str`s into the input, each method is its
//! signature's `&str` and the bytes of its code, and instructions are
//! decoded again on demand ([`DexView::instructions`]).
//! [`Apk::dex`](crate::apk::Apk::dex) returns the view, and
//! [`parse_dex`](crate::format::parse_dex) is the view turned into an
//! owned [`DexFile`] ([`DexView::to_dex`]), so the format has one parser
//! and one validator. Library detection reads apps through the view,
//! for registration as for the knowledge scan, and builds no `String`
//! or `Vec<Instruction>` per method; only a run of the app, the
//! obfuscator (which rewrites the dex) and the archive builder (which
//! frames it anew) build the owned model.

use std::ops::Range;

use crate::format::{get_u8, get_uleb128, DexParseError, DEX_MAGIC};
use crate::model::{
    check_unique, class_out_of_range, invoke_out_of_range, ClassDef, CodeItem, Connector, DexFile,
    Dispatcher, Instruction, MethodDef, MethodRef, NetworkOp, WireShape,
};
use crate::sig::{self, MethodSig};

/// An invoke target as the view reads it: [`MethodRef`] with the
/// external signature borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRef<'a> {
    /// Index into the method table.
    Internal(u32),
    /// The smali signature of a method outside the dex.
    External(&'a str),
}

/// A network operation as the view reads it: [`NetworkOp`] with the
/// domain borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkRef<'a> {
    /// Destination host name.
    pub domain: &'a str,
    /// Destination TCP port.
    pub port: u16,
    /// Request payload bytes.
    pub send_bytes: u64,
    /// Response payload bytes.
    pub recv_bytes: u64,
    /// Client chain used for the connection.
    pub connector: Connector,
    /// Wire-level shape of the exchange.
    pub shape: WireShape,
}

/// One instruction as the view reads it: [`Instruction`] with its
/// strings borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstructionRef<'a> {
    /// No-op filler.
    Nop,
    /// Load a constant.
    Const(u32),
    /// Synchronous invoke.
    Invoke(TargetRef<'a>),
    /// Invoke scheduled on another thread.
    InvokeAsync {
        /// Scheduling mechanism.
        dispatcher: Dispatcher,
        /// Method to run on the new thread.
        target: TargetRef<'a>,
    },
    /// Network request.
    Network(NetworkRef<'a>),
    /// Return from the method.
    Return,
}

impl TargetRef<'_> {
    fn to_method_ref(self) -> MethodRef {
        match self {
            TargetRef::Internal(id) => MethodRef::Internal(id),
            TargetRef::External(smali) => MethodRef::External(MethodSig::from_checked(smali)),
        }
    }
}

impl<'a> InstructionRef<'a> {
    /// The owned instruction.
    pub fn to_instruction(self) -> Instruction {
        match self {
            InstructionRef::Nop => Instruction::Nop,
            InstructionRef::Const(v) => Instruction::Const(v),
            InstructionRef::Invoke(target) => Instruction::Invoke(target.to_method_ref()),
            InstructionRef::InvokeAsync { dispatcher, target } => Instruction::InvokeAsync {
                dispatcher,
                target: target.to_method_ref(),
            },
            InstructionRef::Network(op) => Instruction::Network(NetworkOp {
                domain: op.domain.to_owned(),
                port: op.port,
                send_bytes: op.send_bytes,
                recv_bytes: op.recv_bytes,
                connector: op.connector,
                shape: op.shape,
            }),
            InstructionRef::Return => Instruction::Return,
        }
    }

    /// The instruction's letter in the exact fingerprint's opcode
    /// string: `n`op, `c`onst, `i`nternal and `e`xternal invoke,
    /// `a`sync invoke, net`w`ork, `r`eturn.
    pub fn letter(self) -> u8 {
        match self {
            InstructionRef::Nop => b'n',
            InstructionRef::Const(_) => b'c',
            InstructionRef::Invoke(TargetRef::Internal(_)) => b'i',
            InstructionRef::Invoke(TargetRef::External(_)) => b'e',
            InstructionRef::InvokeAsync { .. } => b'a',
            InstructionRef::Network(_) => b'w',
            InstructionRef::Return => b'r',
        }
    }

    /// The target of an invoke, synchronous or async.
    pub fn target(self) -> Option<TargetRef<'a>> {
        match self {
            InstructionRef::Invoke(target) | InstructionRef::InvokeAsync { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }
}

/// One method of a [`DexView`].
#[derive(Debug, Clone, Copy)]
struct MethodView<'a> {
    sig: &'a str,
    /// The encoded instructions.
    code: &'a [u8],
    instructions: usize,
}

/// A validated dex, borrowed from its bytes. See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct DexView<'a> {
    strings: Vec<&'a str>,
    methods: Vec<MethodView<'a>>,
    /// Each class's name and its range of `class_members`.
    classes: Vec<(&'a str, Range<usize>)>,
    class_members: Vec<u32>,
}

/// String `id` of the pool.
fn string<'a>(strings: &[&'a str], id: u64) -> Result<&'a str, DexParseError> {
    strings
        .get(id as usize)
        .copied()
        .ok_or_else(|| DexParseError::new(format!("string id {id} out of range")))
}

/// Checks `smali` as a signature; `what` names its position in an
/// error.
fn check_sig(smali: &str, what: &str) -> Result<(), DexParseError> {
    sig::validate(smali).map_err(|e| DexParseError::new(format!("bad {what} signature: {e}")))
}

fn truncated(what: &str) -> DexParseError {
    DexParseError::new(format!("truncated {what}"))
}

/// Reads one instruction off the front of `buf`, resolving string
/// references through `strings`. Signatures are not checked here.
fn decode<'a>(
    buf: &mut &'a [u8],
    strings: &[&'a str],
) -> Result<InstructionRef<'a>, DexParseError> {
    let op = get_u8(buf).ok_or_else(|| truncated("instruction"))?;
    Ok(match op {
        0 => InstructionRef::Nop,
        1 => InstructionRef::Const(get_uleb128(buf)? as u32),
        2 => InstructionRef::Invoke(TargetRef::Internal(get_uleb128(buf)? as u32)),
        3 => InstructionRef::Invoke(TargetRef::External(string(strings, get_uleb128(buf)?)?)),
        4 => InstructionRef::Return,
        5 => {
            let [dispatcher, tag, ..] = **buf else {
                return Err(truncated("async invoke"));
            };
            *buf = &buf[2..];
            let dispatcher = match dispatcher {
                0 => Dispatcher::AsyncTask,
                1 => Dispatcher::Thread,
                2 => Dispatcher::Executor,
                other => return Err(DexParseError::new(format!("invalid dispatcher {other}"))),
            };
            let target = match tag {
                0 => TargetRef::Internal(get_uleb128(buf)? as u32),
                1 => TargetRef::External(string(strings, get_uleb128(buf)?)?),
                other => {
                    return Err(DexParseError::new(format!(
                        "invalid method ref tag {other}"
                    )))
                }
            };
            InstructionRef::InvokeAsync { dispatcher, target }
        }
        6 => {
            let domain = string(strings, get_uleb128(buf)?)?;
            let port = get_uleb128(buf)?;
            if port > u64::from(u16::MAX) {
                return Err(DexParseError::new("network port out of range"));
            }
            let send_bytes = get_uleb128(buf)?;
            let recv_bytes = get_uleb128(buf)?;
            let connector_byte = get_u8(buf).ok_or_else(|| truncated("network op"))?;
            let connector = match connector_byte & 0x7f {
                0 => Connector::AndroidOkHttp,
                1 => Connector::ApacheHttp,
                2 => Connector::DirectSocket,
                other => return Err(DexParseError::new(format!("invalid connector {other}"))),
            };
            let shape = if connector_byte & 0x80 == 0 {
                WireShape::Plain
            } else {
                match get_u8(buf).ok_or_else(|| truncated("network op"))? {
                    1 => WireShape::V6,
                    2 => WireShape::TlsSni,
                    3 => WireShape::ConnectProxy,
                    4 => {
                        let streams = get_uleb128(buf)?;
                        if streams == 0 || streams > u64::from(u32::MAX) {
                            return Err(DexParseError::new("invalid pooled stream count"));
                        }
                        WireShape::Pooled {
                            streams: streams as u32,
                        }
                    }
                    // Tag 0 (plain-behind-the-flag) is rejected so every
                    // shape has exactly one encoding.
                    other => return Err(DexParseError::new(format!("invalid wire shape {other}"))),
                }
            };
            InstructionRef::Network(NetworkRef {
                domain,
                port: port as u16,
                send_bytes,
                recv_bytes,
                connector,
                shape,
            })
        }
        other => return Err(DexParseError::new(format!("invalid opcode {other}"))),
    })
}

impl<'a> DexView<'a> {
    /// Reads and validates dex bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DexParseError`] on bad magic, truncation, out-of-range
    /// string references, invalid opcodes, malformed signature strings,
    /// trailing garbage, and then on what is inconsistent: out-of-range
    /// class members, out-of-range internal invokes and duplicate
    /// signatures, each reported at its first occurrence in that order.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, DexParseError> {
        let Some(mut buf) = bytes.strip_prefix(DEX_MAGIC.as_slice()) else {
            return Err(DexParseError::new("bad magic"));
        };
        let buf = &mut buf;
        let string_count = get_uleb128(buf)? as usize;
        if string_count > bytes.len() {
            return Err(DexParseError::new("string count exceeds input size"));
        }
        let mut strings = Vec::with_capacity(string_count);
        for _ in 0..string_count {
            let len = get_uleb128(buf)? as usize;
            if buf.len() < len {
                return Err(truncated("string"));
            }
            let (raw, rest) = buf.split_at(len);
            *buf = rest;
            strings.push(
                std::str::from_utf8(raw).map_err(|_| DexParseError::new("string is not UTF-8"))?,
            );
        }
        let method_count = get_uleb128(buf)? as usize;
        if method_count > bytes.len() {
            return Err(DexParseError::new("method count exceeds input size"));
        }
        let n = method_count as u32;
        // The first internal invoke out of range, reported after the
        // class members are checked.
        let mut bad_invoke = None;
        let mut methods = Vec::with_capacity(method_count);
        for _ in 0..method_count {
            let sig = string(&strings, get_uleb128(buf)?)?;
            check_sig(sig, "method")?;
            let instructions = get_uleb128(buf)? as usize;
            if instructions > bytes.len() {
                return Err(DexParseError::new("instruction count exceeds input size"));
            }
            let code = *buf;
            for _ in 0..instructions {
                let inst = decode(buf, &strings)?;
                match inst.target() {
                    Some(TargetRef::External(smali)) => check_sig(
                        smali,
                        match inst {
                            InstructionRef::Invoke(_) => "external",
                            _ => "async target",
                        },
                    )?,
                    Some(TargetRef::Internal(id)) if id >= n && bad_invoke.is_none() => {
                        bad_invoke = Some((sig, id));
                    }
                    _ => {}
                }
            }
            methods.push(MethodView {
                sig,
                code: &code[..code.len() - buf.len()],
                instructions,
            });
        }

        let class_count = get_uleb128(buf)? as usize;
        if class_count > bytes.len() {
            return Err(DexParseError::new("class count exceeds input size"));
        }
        let mut classes = Vec::with_capacity(class_count);
        let mut class_members = Vec::new();
        for _ in 0..class_count {
            let name = string(&strings, get_uleb128(buf)?)?;
            let idx_count = get_uleb128(buf)? as usize;
            if idx_count > bytes.len() {
                return Err(DexParseError::new("class method count exceeds input size"));
            }
            let start = class_members.len();
            for _ in 0..idx_count {
                class_members.push(get_uleb128(buf)? as u32);
            }
            classes.push((name, start..class_members.len()));
        }
        if !buf.is_empty() {
            return Err(DexParseError::new("trailing bytes after class table"));
        }

        for (name, members) in &classes {
            if let Some(&idx) = class_members[members.clone()].iter().find(|&&i| i >= n) {
                return Err(DexParseError::new(class_out_of_range(name, idx, n)));
            }
        }
        if let Some((sig, idx)) = bad_invoke {
            return Err(DexParseError::new(invoke_out_of_range(sig, idx, n)));
        }
        check_unique(methods.len(), |i| methods[i].sig).map_err(DexParseError::new)?;
        Ok(DexView {
            strings,
            methods,
            classes,
            class_members,
        })
    }

    /// Number of defined methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Returns `true` when the dex defines no method.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// The smali signature of method `id`.
    pub fn sig(&self, id: u32) -> &'a str {
        self.methods[id as usize].sig
    }

    /// The package path (`/`- or `.`-separated, as the smali writes
    /// it), class name, method name and descriptor of method `id`:
    /// what [`MethodSig::parts`] returns.
    pub fn parts(&self, id: u32) -> (&'a str, &'a str, &'a str, &'a str) {
        sig::parts_of(self.sig(id))
    }

    /// The instructions of method `id`, decoded from its code bytes.
    pub fn instructions(&self, id: u32) -> Instructions<'_, 'a> {
        let method = &self.methods[id as usize];
        Instructions {
            code: method.code,
            left: method.instructions,
            strings: &self.strings,
        }
    }

    /// The owned dex: what [`parse_dex`](crate::format::parse_dex)
    /// returns.
    pub fn to_dex(&self) -> DexFile {
        let methods = (0..self.methods.len() as u32)
            .map(|id| MethodDef {
                sig: MethodSig::from_checked(self.sig(id)),
                code: CodeItem {
                    instructions: self
                        .instructions(id)
                        .map(InstructionRef::to_instruction)
                        .collect(),
                },
            })
            .collect();
        let classes = self
            .classes
            .iter()
            .map(|(name, members)| ClassDef {
                dotted_name: (*name).to_owned(),
                method_indices: self.class_members[members.clone()].to_vec(),
            })
            .collect();
        DexFile { methods, classes }
    }
}

/// The instructions of one method of a [`DexView`], decoded one by one.
#[derive(Debug, Clone)]
pub struct Instructions<'v, 'a> {
    code: &'a [u8],
    left: usize,
    strings: &'v [&'a str],
}

impl<'a> Iterator for Instructions<'_, 'a> {
    type Item = InstructionRef<'a>;

    fn next(&mut self) -> Option<InstructionRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        Some(decode(&mut self.code, self.strings).expect("validated when the view was parsed"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Instructions<'_, '_> {}
