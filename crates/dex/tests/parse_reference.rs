//! The dex parser, the signature validator and the duplicate check
//! against frozen copies of their earlier versions: a parser over an
//! owned copy of its input, a validator built from several substring
//! scans, and the duplicate check. Every input must give an equal `Ok`
//! value or the same error message.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use spector_corpus::{obfuscate_app, AppGenConfig, Corpus, CorpusConfig, ObfuscationTier};
use spector_dex::format::DEX_MAGIC;
use spector_dex::model::{
    ClassDef, CodeItem, DexFile, Instruction, MethodDef, MethodRef, WireShape,
};
use spector_dex::sig::MethodSig;
use spector_dex::{parse_dex, write_dex, DexView, InstructionRef};

/// The earlier implementations, kept verbatim but for their names and
/// for how the validator builds its accepted value.
mod frozen {
    use bytes::{Buf, Bytes};
    use spector_dex::format::{DexParseError, DEX_MAGIC};
    use spector_dex::model::{
        ClassDef, CodeItem, Connector, DexFile, Dispatcher, Instruction, MethodDef, MethodRef,
        NetworkOp, WireShape,
    };
    use spector_dex::sig::{MethodSig, SigParseError};

    fn error(message: impl Into<String>) -> DexParseError {
        DexParseError {
            message: message.into(),
        }
    }

    /// `MethodSig::from_str` before the one-pass validator.
    pub fn parse_sig(s: &str) -> Result<MethodSig, SigParseError> {
        let err = |message: &str| SigParseError {
            message: message.to_owned(),
            input: s.chars().take(120).collect(),
        };
        if !s.starts_with('L') {
            return Err(err("must start with 'L'"));
        }
        let arrow = s
            .find(";->")
            .ok_or_else(|| err("missing ';->' separator"))?;
        if arrow <= 1 {
            return Err(err("empty class path"));
        }
        let rest = &s[arrow + 3..];
        let paren = rest
            .find('(')
            .ok_or_else(|| err("missing '(' descriptor"))?;
        if paren == 0 {
            return Err(err("empty method name"));
        }
        if !rest.contains(')') {
            return Err(err("missing ')' in descriptor"));
        }
        let close = rest.rfind(')').expect("checked above");
        if close + 1 >= rest.len() {
            return Err(err("missing return type"));
        }
        let type_part = &s[1..arrow];
        if type_part.split('/').any(str::is_empty) {
            return Err(err("empty package component"));
        }
        validate_descriptor(&rest[paren..]).map_err(|m| err(&m))?;
        // The value itself: the unchecked serde path, so the new
        // validator plays no part in the reference.
        Ok(serde_json::from_str(&serde_json::to_string(s).unwrap()).unwrap())
    }

    fn validate_descriptor(desc: &str) -> Result<(), String> {
        let bytes = desc.as_bytes();
        if bytes.first() != Some(&b'(') {
            return Err("descriptor must start with '('".into());
        }
        let close = desc
            .find(')')
            .ok_or_else(|| "descriptor missing ')'".to_string())?;
        let params = &desc[1..close];
        let ret = &desc[close + 1..];
        let mut idx = 0;
        let pbytes = params.as_bytes();
        while idx < pbytes.len() {
            idx = parse_type(params, idx)?;
        }
        if ret == "V" {
            return Ok(());
        }
        let end = parse_type(ret, 0)?;
        if end != ret.len() {
            return Err("trailing bytes after return type".into());
        }
        Ok(())
    }

    fn parse_type(s: &str, mut idx: usize) -> Result<usize, String> {
        let bytes = s.as_bytes();
        while idx < bytes.len() && bytes[idx] == b'[' {
            idx += 1;
        }
        if idx >= bytes.len() {
            return Err("dangling array marker".into());
        }
        match bytes[idx] {
            b'Z' | b'B' | b'S' | b'C' | b'I' | b'J' | b'F' | b'D' => Ok(idx + 1),
            b'L' => {
                let end = s[idx..]
                    .find(';')
                    .ok_or_else(|| "unterminated object type".to_string())?;
                Ok(idx + end + 1)
            }
            other => Err(format!("invalid type descriptor byte {:?}", other as char)),
        }
    }

    /// `DexFile::validate` before the hash-set duplicate check.
    pub fn validate(dex: &DexFile) -> Result<(), String> {
        let n = dex.methods.len() as u32;
        for class in &dex.classes {
            for &idx in &class.method_indices {
                if idx >= n {
                    return Err(format!(
                        "class {} references method index {idx} out of range {n}",
                        class.dotted_name
                    ));
                }
            }
        }
        for method in &dex.methods {
            for invoke in method.code.invokes() {
                if let MethodRef::Internal(idx) = invoke {
                    if *idx >= n {
                        return Err(format!(
                            "method {} invokes internal index {idx} out of range {n}",
                            method.sig
                        ));
                    }
                }
            }
        }
        let mut sigs: Vec<&MethodSig> = dex.methods.iter().map(|m| &m.sig).collect();
        sigs.sort();
        if let Some(w) = sigs.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate method signature {}", w[0]));
        }
        Ok(())
    }

    fn get_uleb128(buf: &mut Bytes) -> Result<u64, DexParseError> {
        let mut result: u64 = 0;
        let mut shift = 0;
        loop {
            if !buf.has_remaining() {
                return Err(error("truncated uleb128"));
            }
            let byte = buf.get_u8();
            if shift >= 64 {
                return Err(error("uleb128 overflow"));
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// `parse_dex` before the borrowed cursor and the signature cache.
    pub fn parse_dex(bytes: &[u8]) -> Result<DexFile, DexParseError> {
        let mut buf = Bytes::copy_from_slice(bytes);
        if buf.remaining() < DEX_MAGIC.len() || &buf.split_to(DEX_MAGIC.len())[..] != DEX_MAGIC {
            return Err(error("bad magic"));
        }
        let string_count = get_uleb128(&mut buf)? as usize;
        if string_count > bytes.len() {
            return Err(error("string count exceeds input size"));
        }
        let mut strings = Vec::with_capacity(string_count);
        for _ in 0..string_count {
            let len = get_uleb128(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(error("truncated string"));
            }
            let raw = buf.split_to(len);
            let s = std::str::from_utf8(&raw)
                .map_err(|_| error("string is not UTF-8"))?
                .to_owned();
            strings.push(s);
        }
        let lookup = |id: u64| -> Result<&str, DexParseError> {
            strings
                .get(id as usize)
                .map(String::as_str)
                .ok_or_else(|| error(format!("string id {id} out of range")))
        };

        let method_count = get_uleb128(&mut buf)? as usize;
        if method_count > bytes.len() {
            return Err(error("method count exceeds input size"));
        }
        let mut methods = Vec::with_capacity(method_count);
        for _ in 0..method_count {
            let sig_id = get_uleb128(&mut buf)?;
            let sig: MethodSig = parse_sig(lookup(sig_id)?)
                .map_err(|e| error(format!("bad method signature: {e}")))?;
            let inst_count = get_uleb128(&mut buf)? as usize;
            if inst_count > bytes.len() {
                return Err(error("instruction count exceeds input size"));
            }
            let mut instructions = Vec::with_capacity(inst_count);
            for _ in 0..inst_count {
                if !buf.has_remaining() {
                    return Err(error("truncated instruction"));
                }
                let op = buf.get_u8();
                let inst = match op {
                    0 => Instruction::Nop,
                    1 => Instruction::Const(get_uleb128(&mut buf)? as u32),
                    2 => Instruction::Invoke(MethodRef::Internal(get_uleb128(&mut buf)? as u32)),
                    3 => {
                        let sig_id = get_uleb128(&mut buf)?;
                        let sig: MethodSig = parse_sig(lookup(sig_id)?)
                            .map_err(|e| error(format!("bad external signature: {e}")))?;
                        Instruction::Invoke(MethodRef::External(sig))
                    }
                    4 => Instruction::Return,
                    5 => {
                        if buf.remaining() < 2 {
                            return Err(error("truncated async invoke"));
                        }
                        let dispatcher = match buf.get_u8() {
                            0 => Dispatcher::AsyncTask,
                            1 => Dispatcher::Thread,
                            2 => Dispatcher::Executor,
                            other => return Err(error(format!("invalid dispatcher {other}"))),
                        };
                        let target = match buf.get_u8() {
                            0 => MethodRef::Internal(get_uleb128(&mut buf)? as u32),
                            1 => {
                                let sig_id = get_uleb128(&mut buf)?;
                                let sig: MethodSig = parse_sig(lookup(sig_id)?).map_err(|e| {
                                    error(format!("bad async target signature: {e}"))
                                })?;
                                MethodRef::External(sig)
                            }
                            other => return Err(error(format!("invalid method ref tag {other}"))),
                        };
                        Instruction::InvokeAsync { dispatcher, target }
                    }
                    6 => {
                        let domain_id = get_uleb128(&mut buf)?;
                        let domain = lookup(domain_id)?.to_owned();
                        let port = get_uleb128(&mut buf)?;
                        if port > u64::from(u16::MAX) {
                            return Err(error("network port out of range"));
                        }
                        let send_bytes = get_uleb128(&mut buf)?;
                        let recv_bytes = get_uleb128(&mut buf)?;
                        if !buf.has_remaining() {
                            return Err(error("truncated network op"));
                        }
                        let connector_byte = buf.get_u8();
                        let connector = match connector_byte & 0x7f {
                            0 => Connector::AndroidOkHttp,
                            1 => Connector::ApacheHttp,
                            2 => Connector::DirectSocket,
                            other => return Err(error(format!("invalid connector {other}"))),
                        };
                        let shape = if connector_byte & 0x80 == 0 {
                            WireShape::Plain
                        } else {
                            if !buf.has_remaining() {
                                return Err(error("truncated network op"));
                            }
                            match buf.get_u8() {
                                1 => WireShape::V6,
                                2 => WireShape::TlsSni,
                                3 => WireShape::ConnectProxy,
                                4 => {
                                    let streams = get_uleb128(&mut buf)?;
                                    if streams == 0 || streams > u64::from(u32::MAX) {
                                        return Err(error("invalid pooled stream count"));
                                    }
                                    WireShape::Pooled {
                                        streams: streams as u32,
                                    }
                                }
                                other => return Err(error(format!("invalid wire shape {other}"))),
                            }
                        };
                        Instruction::Network(NetworkOp {
                            domain,
                            port: port as u16,
                            send_bytes,
                            recv_bytes,
                            connector,
                            shape,
                        })
                    }
                    other => return Err(error(format!("invalid opcode {other}"))),
                };
                instructions.push(inst);
            }
            methods.push(MethodDef {
                sig,
                code: CodeItem { instructions },
            });
        }

        let class_count = get_uleb128(&mut buf)? as usize;
        if class_count > bytes.len() {
            return Err(error("class count exceeds input size"));
        }
        let mut classes = Vec::with_capacity(class_count);
        for _ in 0..class_count {
            let name_id = get_uleb128(&mut buf)?;
            let dotted_name = lookup(name_id)?.to_owned();
            let idx_count = get_uleb128(&mut buf)? as usize;
            if idx_count > bytes.len() {
                return Err(error("class method count exceeds input size"));
            }
            let mut method_indices = Vec::with_capacity(idx_count);
            for _ in 0..idx_count {
                method_indices.push(get_uleb128(&mut buf)? as u32);
            }
            classes.push(ClassDef {
                dotted_name,
                method_indices,
            });
        }

        if buf.has_remaining() {
            return Err(error("trailing bytes after class table"));
        }
        let dex = DexFile { methods, classes };
        validate(&dex).map_err(error)?;
        Ok(dex)
    }
}

/// Asserts the parser and the frozen parser agree on `bytes`, and that
/// the dex view accepts what they accept, with each method's signature
/// and decoded instructions equal to theirs.
fn agree(bytes: &[u8], what: &str) {
    let expected = frozen::parse_dex(bytes);
    assert_eq!(parse_dex(bytes), expected, "{what}");
    let view = DexView::parse(bytes);
    match &expected {
        Ok(dex) => {
            let view = view.unwrap_or_else(|e| panic!("{what}: view rejects a valid dex: {e}"));
            assert_eq!(view.len(), dex.methods.len(), "{what}");
            for (id, method) in dex.methods.iter().enumerate() {
                let id = id as u32;
                assert_eq!(view.sig(id), method.sig.as_smali(), "{what}");
                let decoded: Vec<Instruction> = view
                    .instructions(id)
                    .map(InstructionRef::to_instruction)
                    .collect();
                assert_eq!(decoded, method.code.instructions, "{what}");
            }
        }
        Err(e) => assert_eq!(view.err().as_ref(), Some(e), "{what}"),
    }
}

/// Methods kept from each generated dex: enough for every instruction
/// kind, few enough that every bit flip of the encoding stays cheap.
const KEEP: usize = 14;

/// `dex` cut to [`KEEP`] methods — those with network operations or
/// async invokes first, then the rest in table order — keeping table
/// order among them. Internal references and class members into the
/// dropped methods wrap into the kept range or are dropped.
fn cut(dex: &DexFile) -> DexFile {
    let busy = |m: &MethodDef| {
        m.code
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Network(_) | Instruction::InvokeAsync { .. }))
    };
    let mut kept: Vec<usize> = (0..dex.methods.len())
        .filter(|&i| busy(&dex.methods[i]))
        .chain((0..dex.methods.len()).filter(|&i| !busy(&dex.methods[i])))
        .take(KEEP)
        .collect();
    kept.sort_unstable();
    let new_id = |old: u32| {
        kept.iter()
            .position(|&k| k == old as usize)
            .unwrap_or(old as usize % kept.len()) as u32
    };
    let remap = |r: &MethodRef| match r {
        MethodRef::Internal(id) => MethodRef::Internal(new_id(*id)),
        external => external.clone(),
    };
    let methods = kept
        .iter()
        .map(|&i| {
            let mut method = dex.methods[i].clone();
            for inst in &mut method.code.instructions {
                match inst {
                    Instruction::Invoke(r) => *r = remap(r),
                    Instruction::InvokeAsync { target, .. } => *target = remap(target),
                    _ => {}
                }
            }
            method
        })
        .collect();
    let classes = dex
        .classes
        .iter()
        .filter_map(|class| {
            let members: Vec<u32> = class
                .method_indices
                .iter()
                .filter_map(|&i| kept.iter().position(|&k| k == i as usize))
                .map(|i| i as u32)
                .collect();
            (!members.is_empty()).then(|| ClassDef {
                dotted_name: class.dotted_name.clone(),
                method_indices: members,
            })
        })
        .collect();
    DexFile { methods, classes }
}

/// One generated app's dex per obfuscation tier, legacy and half-modern,
/// cut down by [`cut`] and encoded.
fn generated_dexes() -> Vec<(String, DexFile, Vec<u8>)> {
    let mut dexes = Vec::new();
    for modern_fraction in [0.0, 0.5] {
        let base = Corpus::generate(&CorpusConfig {
            apps: 1,
            seed: 17,
            domain_count: Some(40),
            appgen: AppGenConfig {
                method_scale: 0.0005,
                modern_fraction,
                ..Default::default()
            },
        });
        for tier in ObfuscationTier::ALL {
            let mut app = base.apps[0].clone();
            obfuscate_app(&mut app, tier, 3);
            let dex = cut(&app.apk.dex().unwrap());
            let bytes = write_dex(&dex).to_vec();
            dexes.push((
                format!("{} modern {modern_fraction}", tier.label()),
                dex,
                bytes,
            ));
        }
    }
    dexes
}

#[test]
fn every_truncation_and_bit_flip_of_generated_dexes_parses_alike() {
    let mut shaped = 0;
    for (name, parsed, dex) in generated_dexes() {
        assert_eq!(parse_dex(&dex).as_ref(), Ok(&parsed), "{name}");
        shaped += parsed
            .methods
            .iter()
            .flat_map(|m| m.code.network_ops())
            .filter(|op| op.shape != WireShape::Plain)
            .count();
        agree(&dex, &name);
        for len in 0..dex.len() {
            agree(&dex[..len], &format!("{name}: truncated to {len}"));
        }
        let mut flipped = dex.clone();
        for at in 0..dex.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                agree(&flipped, &format!("{name}: bit {bit} of byte {at} flipped"));
                flipped[at] ^= 1 << bit;
            }
        }
    }
    assert!(
        shaped > 0,
        "the half-modern dexes carry non-plain wire shapes"
    );
}

fn put_uleb128(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// A hand-built dex: string pool `strings`, methods of `(signature
/// string id, encoded code item)`, no classes. Unlike `write_dex`, the
/// pool may repeat a string and hold invalid signatures.
fn raw_dex(strings: &[&str], methods: &[(u64, &[u8])]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_slice(DEX_MAGIC);
    put_uleb128(&mut buf, strings.len() as u64);
    for s in strings {
        put_uleb128(&mut buf, s.len() as u64);
        buf.put_slice(s.as_bytes());
    }
    put_uleb128(&mut buf, methods.len() as u64);
    for (sig, code) in methods {
        put_uleb128(&mut buf, *sig);
        buf.put_slice(code);
    }
    put_uleb128(&mut buf, 0);
    buf.to_vec()
}

const OK_A: &str = "Lcom/app/A;->run()V";
const OK_B: &str = "Lcom/app/B;->go(I)J";
const BAD: &[&str] = &[
    "com/app/A;->run()V",
    "La/B->m()V",
    "L;->m()V",
    "La/B;->m",
    "La/B;->(I)V",
    "La/B;->m)x(V",
    "La/B;->m()",
    "La//B;->m()V",
    "La/B;->m(Q)V",
    "La/B;->m([)V",
    "La/B;->m(Lx)V",
    "La/B;->m()VV",
    "La/B;->m()Lx",
];

#[test]
fn bad_signatures_fail_alike_in_every_position() {
    // Code items: empty; one external invoke of string 1; one async
    // external invoke of string 1 (opcode 5, dispatcher 0, tag 1).
    let empty: &[u8] = &[0];
    let external: &[u8] = &[1, 3, 1];
    let async_target: &[u8] = &[1, 5, 0, 1, 1];
    for bad in BAD {
        for dex in [
            // As a method signature, once and referenced twice.
            raw_dex(&[OK_A, bad], &[(1, empty)]),
            raw_dex(&[OK_A, bad], &[(0, empty), (1, empty), (1, empty)]),
            // As an external-invoke target, then as a method signature.
            raw_dex(&[OK_A, bad], &[(0, external)]),
            raw_dex(&[OK_A, bad], &[(0, external), (1, empty)]),
            // As an async target, after a valid use of another string.
            raw_dex(&[OK_A, bad, OK_B], &[(2, empty), (0, async_target)]),
        ] {
            let parsed = parse_dex(&dex);
            assert!(parsed.is_err(), "{bad}");
            agree(&dex, bad);
        }
    }
    // One valid string in all three positions.
    let dex = raw_dex(&[OK_A, OK_B], &[(0, external), (1, async_target)]);
    let parsed = parse_dex(&dex).unwrap();
    assert_eq!(parsed.methods[1].sig.as_smali(), OK_B);
    agree(&dex, "one signature in three positions");
}

#[test]
fn crafted_duplicate_signatures_are_named_alike() {
    let empty: &[u8] = &[0];
    let sigs = [OK_B, OK_A, "La/Z;->z()V", "La/A;->a()V"];
    // Duplicates through one pool id and through two equal pool strings,
    // in several orders: the least duplicated signature is named.
    let cases: Vec<Vec<u8>> = vec![
        raw_dex(&sigs, &[(0, empty), (1, empty), (0, empty), (1, empty)]),
        raw_dex(&sigs, &[(1, empty), (0, empty), (1, empty), (0, empty)]),
        raw_dex(&sigs, &[(2, empty), (3, empty), (2, empty), (3, empty)]),
        raw_dex(&[OK_A, OK_A], &[(0, empty), (1, empty)]),
        raw_dex(
            &[OK_B, OK_A, OK_B, OK_A],
            &[(0, empty), (1, empty), (2, empty), (3, empty)],
        ),
        raw_dex(&[OK_B, OK_A, OK_A], &[(2, empty), (0, empty), (1, empty)]),
    ];
    for dex in cases {
        assert!(parse_dex(&dex)
            .unwrap_err()
            .message
            .starts_with("duplicate method signature"));
        agree(&dex, "duplicates");
    }
    // The same through `write_dex` and through `validate` directly.
    let method = |s: &str| MethodDef {
        sig: s.parse().unwrap(),
        code: CodeItem::default(),
    };
    for order in [[0, 1, 2, 3, 1, 0], [3, 2, 3, 0, 0, 2], [1, 2, 0, 3, 2, 1]] {
        let dex = DexFile {
            methods: order.iter().map(|&i| method(sigs[i])).collect(),
            classes: vec![],
        };
        assert_eq!(dex.validate(), frozen::validate(&dex), "{order:?}");
        agree(&write_dex(&dex), "written duplicates");
    }
}

#[test]
fn crafted_internal_and_async_references_agree() {
    let dex = DexFile {
        methods: vec![
            MethodDef {
                sig: OK_A.parse().unwrap(),
                code: CodeItem {
                    instructions: vec![
                        Instruction::Invoke(MethodRef::External(OK_B.parse().unwrap())),
                        Instruction::Invoke(MethodRef::Internal(0)),
                    ],
                },
            },
            MethodDef {
                sig: OK_B.parse().unwrap(),
                code: CodeItem {
                    instructions: vec![Instruction::Invoke(MethodRef::External(
                        OK_A.parse().unwrap(),
                    ))],
                },
            },
        ],
        classes: vec![],
    };
    let bytes = write_dex(&dex);
    assert_eq!(parse_dex(&bytes).unwrap(), dex);
    agree(&bytes, "signatures shared between definitions and invokes");
}

#[test]
fn validation_failures_are_reported_in_the_validators_order() {
    // Up to three failures at once: a class member out of range,
    // out-of-range internal invokes in two methods (async first, then
    // sync), and a duplicate signature. Every subset is tried, so each
    // failure is the first one reported in some dex.
    for mask in 0..8u8 {
        let (bad_class, bad_invokes, duplicate) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
        let invoke = |inst: Instruction| CodeItem {
            instructions: if bad_invokes { vec![inst] } else { vec![] },
        };
        let dex = DexFile {
            methods: vec![
                MethodDef {
                    sig: OK_A.parse().unwrap(),
                    code: CodeItem::default(),
                },
                MethodDef {
                    sig: OK_B.parse().unwrap(),
                    code: invoke(Instruction::InvokeAsync {
                        dispatcher: spector_dex::Dispatcher::Executor,
                        target: MethodRef::Internal(8),
                    }),
                },
                MethodDef {
                    sig: if duplicate { OK_A } else { "Lcom/app/C;->c()V" }
                        .parse()
                        .unwrap(),
                    code: invoke(Instruction::Invoke(MethodRef::Internal(9))),
                },
            ],
            classes: vec![ClassDef {
                dotted_name: "com.app.A".into(),
                method_indices: vec![0, if bad_class { 5 } else { 2 }],
            }],
        };
        assert_eq!(dex.validate(), frozen::validate(&dex), "mask {mask}");
        agree(
            &write_dex(&dex),
            &format!("validation failures, mask {mask}"),
        );
    }
}

/// Characters that steer a signature through every branch of the
/// grammar, plus multibyte ones.
const ALPHABET: &[char] = &[
    'L', 'L', ';', '-', '>', '(', ')', '[', '/', 'V', 'I', 'J', 'Z', 'a', 'b', 'Q', 'é', '\u{85}',
    '中', ' ',
];

fn grammar_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..24)
        .prop_map(|chars| chars.into_iter().collect())
}

fn valid_signature() -> impl Strategy<Value = String> {
    let ty = prop::sample::select(vec![
        "I",
        "J",
        "[B",
        "[[I",
        "Ljava/lang/String;",
        "[Ljava/lang/Object;",
    ]);
    let ret = prop::sample::select(vec!["V", "I", "[J", "Ljava/lang/Object;"]);
    (
        proptest::collection::vec("[a-z]{1,3}", 0..3),
        "[A-Za-z$]{1,4}",
        "[a-z<>]{1,4}",
        proptest::collection::vec(ty, 0..3),
        ret,
    )
        .prop_map(|(package, class, method, params, ret)| {
            let mut path = package.join("/");
            if !path.is_empty() {
                path.push('/');
            }
            format!("L{path}{class};->{method}({}){ret}", params.concat())
        })
}

/// A valid signature with one to three characters inserted, deleted or
/// replaced.
fn near_valid_signature() -> impl Strategy<Value = String> {
    (
        valid_signature(),
        proptest::collection::vec(
            (
                0u8..3,
                any::<usize>(),
                prop::sample::select(ALPHABET.to_vec()),
            ),
            1..4,
        ),
    )
        .prop_map(|(sig, edits)| {
            let mut chars: Vec<char> = sig.chars().collect();
            for (kind, at, c) in edits {
                let at = at % (chars.len() + 1);
                match kind {
                    0 => chars.insert(at, c),
                    1 if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ if at < chars.len() => chars[at] = c,
                    _ => chars.push(c),
                }
            }
            chars.into_iter().collect()
        })
}

fn sig_agrees(s: &str) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(s.parse::<MethodSig>(), frozen::parse_sig(s), "{:?}", s);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn sig_validation_matches_the_frozen_validator(
        grammar in grammar_string(),
        near in near_valid_signature(),
        valid in valid_signature(),
        raw in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        sig_agrees(&grammar)?;
        sig_agrees(&near)?;
        prop_assert!(valid.parse::<MethodSig>().is_ok(), "{}", valid);
        sig_agrees(&valid)?;
        sig_agrees(&String::from_utf8_lossy(&raw))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_bytes_parse_alike(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
        headed in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assert_eq!(parse_dex(&raw), frozen::parse_dex(&raw));
        let headed = [DEX_MAGIC.as_slice(), &headed].concat();
        prop_assert_eq!(parse_dex(&headed), frozen::parse_dex(&headed));
    }
}
