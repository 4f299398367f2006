//! In-memory model of a dex file: classes, methods, and code items.
//!
//! The model deliberately mirrors the parts of real dex that the paper's
//! pipeline depends on: the *complete* set of defined method signatures
//! (for coverage and frame translation), and per-method `invoke` lists
//! that form the app's static call graph (which the runtime interprets).
//! Method references may point at methods defined in this dex or at
//! *external* methods (framework classes such as `java.net.Socket`),
//! exactly like real invoke instructions referencing library/boot-class
//! methods.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::sig::MethodSig;

/// Reference to an invokable method: either a method defined in this dex
/// (by index into [`DexFile::methods`]) or an external framework method
/// identified by signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodRef {
    /// Index into the defining dex file's method table.
    Internal(u32),
    /// A method outside the app — Android framework or boot classpath.
    External(MethodSig),
}

/// How an asynchronous invocation is scheduled — this determines which
/// built-in scheduler frames appear at the *bottom* of the stack on the
/// new thread, and therefore what `getStackTrace` can still see of the
/// original caller (nothing, which is exactly why context-aware
/// attribution needs the deepest non-builtin frame heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dispatcher {
    /// `android.os.AsyncTask` — the Listing 1 shape.
    AsyncTask,
    /// A bare `java.lang.Thread`.
    Thread,
    /// A `java.util.concurrent` executor pool.
    Executor,
}

/// Which HTTP/socket client chain a network operation goes through.
///
/// All of these chains consist of *built-in* framework classes (matched
/// by the paper's footnote 2 filter), so they sit between the app's
/// deepest frame and the `socket`/`connect` syscall in every stack
/// trace, and the attribution stage must skip over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Connector {
    /// `com.android.okhttp` via `HttpURLConnectionImpl` (Listing 1).
    AndroidOkHttp,
    /// Legacy `org.apache.http` client.
    ApacheHttp,
    /// A raw `java.net.Socket` connection.
    DirectSocket,
}

/// How a network operation appears on the wire beyond the legacy
/// plain IPv4-TCP request/response exchange.
///
/// The shape changes the *transport realism* of the traffic — address
/// family, framing, tunnelling, connection reuse — while the logical
/// behaviour (which library talks to which domain, how many payload
/// bytes move) stays the behaviour-graph's to decide. `Plain` is the
/// legacy shape: an app whose every op is `Plain` produces a dex, a
/// capture, and reports byte-identical to before shapes existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WireShape {
    /// Legacy IPv4 TCP exchange — the pre-shape wire behaviour.
    #[default]
    Plain,
    /// Same exchange over IPv6 (AAAA resolution, v6 frames).
    V6,
    /// TLS-like record framing; the destination name travels in the
    /// ClientHello SNI instead of a DNS lookup observable in capture.
    TlsSni,
    /// CONNECT-style proxying: the TCP connection goes to a fixed
    /// forward proxy and the logical destination is named only in the
    /// tunnel preamble.
    ConnectProxy,
    /// Connection reuse: `streams` logical request/response exchanges
    /// multiplexed over one TCP connection (keep-alive pooling).
    Pooled {
        /// Number of logical streams carried on the one connection.
        streams: u32,
    },
}

/// One simulated network operation: connect to `domain:port`, send
/// `send_bytes` of request payload, receive `recv_bytes` of response.
///
/// The domain literal lives in the dex string pool, just as URL string
/// constants do in real apps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkOp {
    /// Destination host name.
    pub domain: String,
    /// Destination TCP port.
    pub port: u16,
    /// Request payload bytes (client → server).
    pub send_bytes: u64,
    /// Response payload bytes (server → client).
    pub recv_bytes: u64,
    /// Client chain used for the connection.
    pub connector: Connector,
    /// Wire-level shape of the exchange (legacy ops are `Plain`).
    #[serde(default)]
    pub shape: WireShape,
}

/// One bytecode-like instruction in a code item.
///
/// The instruction set is intentionally tiny: the dynamic analysis only
/// observes *method entry* and *socket syscalls*, so everything else in
/// real bytecode is irrelevant to the measurement and is represented by
/// `Nop`/`Const` filler (which also gives code items realistic,
/// non-uniform sizes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instruction {
    /// No-op filler.
    Nop,
    /// Load a constant (value is opaque filler).
    Const(u32),
    /// Invoke another method synchronously.
    Invoke(MethodRef),
    /// Schedule a method on another thread via the given dispatcher.
    InvokeAsync {
        /// Scheduling mechanism (determines the new thread's base frames).
        dispatcher: Dispatcher,
        /// Method to run on the new thread.
        target: MethodRef,
    },
    /// Perform a network request through a framework client chain.
    Network(NetworkOp),
    /// Return from the method.
    Return,
}

/// The body of a defined method.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CodeItem {
    /// Straight-line instruction list (no branches: the runtime models
    /// control flow probabilistically at the behaviour-graph level).
    pub instructions: Vec<Instruction>,
}

impl CodeItem {
    /// All method references this code item may call — synchronously or
    /// via an async dispatcher — in instruction order.
    pub fn invokes(&self) -> impl Iterator<Item = &MethodRef> {
        self.instructions.iter().filter_map(|inst| match inst {
            Instruction::Invoke(r) => Some(r),
            Instruction::InvokeAsync { target, .. } => Some(target),
            _ => None,
        })
    }

    /// All network operations this code item performs, in order.
    pub fn network_ops(&self) -> impl Iterator<Item = &NetworkOp> {
        self.instructions.iter().filter_map(|inst| match inst {
            Instruction::Network(op) => Some(op),
            _ => None,
        })
    }
}

/// A method defined by the app.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MethodDef {
    /// Full type signature.
    pub sig: MethodSig,
    /// Bytecode body.
    pub code: CodeItem,
}

/// A class definition grouping defined methods.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassDef {
    /// Dotted class name, e.g. `com.unity3d.ads.android.cache.b`.
    pub dotted_name: String,
    /// Indices into [`DexFile::methods`] for the methods this class defines.
    pub method_indices: Vec<u32>,
}

/// A complete dex file.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DexFile {
    /// All defined methods. Index == method id.
    pub methods: Vec<MethodDef>,
    /// All class definitions.
    pub classes: Vec<ClassDef>,
}

impl DexFile {
    /// Creates an empty dex file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of defined methods — the denominator of the paper's method
    /// coverage metric.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Iterates over all defined method signatures — the "disassemble the
    /// dex to obtain the full set of methods" step of the Method Monitor.
    pub fn signatures(&self) -> impl Iterator<Item = &MethodSig> {
        self.methods.iter().map(|m| &m.sig)
    }

    /// Validates internal consistency: class method indices in range,
    /// internal invoke targets in range, no duplicate signatures.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.methods.len() as u32;
        for class in &self.classes {
            if let Some(&idx) = class.method_indices.iter().find(|&&idx| idx >= n) {
                return Err(class_out_of_range(&class.dotted_name, idx, n));
            }
        }
        for method in &self.methods {
            for invoke in method.code.invokes() {
                if let MethodRef::Internal(idx) = invoke {
                    if *idx >= n {
                        return Err(invoke_out_of_range(method.sig.as_smali(), *idx, n));
                    }
                }
            }
        }
        check_unique(self.methods.len(), |i| self.methods[i].sig.as_smali())
    }
}

/// The message for a class member out of range.
pub(crate) fn class_out_of_range(class: &str, idx: u32, n: u32) -> String {
    format!("class {class} references method index {idx} out of range {n}")
}

/// The message for an internal invoke out of range.
pub(crate) fn invoke_out_of_range(sig: &str, idx: u32, n: u32) -> String {
    format!("method {sig} invokes internal index {idx} out of range {n}")
}

/// Checks that the `count` signatures `sig(0)`, `sig(1)`, … are
/// distinct; the error names the least duplicate.
///
/// Each signature is hashed a word at a time and the `(hash, id)`
/// pairs are sorted: a counting sort on the hashes' top bits into at
/// least one bucket per signature, then a sort of each bucket, which
/// holds a pair or two. Only a run of equal hashes is compared, sorted
/// as strings. The hash is fixed, so a crafted dex can put every
/// signature in one bucket and one run, which costs one sort of the
/// pairs and one of the strings: the price of checking without hashing.
pub(crate) fn check_unique<'s>(count: usize, sig: impl Fn(usize) -> &'s str) -> Result<(), String> {
    check_unique_by(count, sig, word_hash)
}

/// [`check_unique`] with the hash a test picks.
fn check_unique_by<'s>(
    count: usize,
    sig: impl Fn(usize) -> &'s str,
    hash: impl Fn(&[u8]) -> u64,
) -> Result<(), String> {
    let hashed: Vec<(u64, u32)> = (0..count)
        .map(|i| (hash(sig(i).as_bytes()), i as u32))
        .collect();
    let bits = usize::BITS - count.leading_zeros();
    let bucket = |h: u64| (h >> (64 - bits)) as usize;
    let mut starts = vec![0usize; 1 << bits];
    for &(h, _) in &hashed {
        starts[bucket(h)] += 1;
    }
    for at in 1..starts.len() {
        starts[at] += starts[at - 1];
    }
    // Placing the pairs back to front turns each bucket's end into its
    // start.
    let mut keyed = vec![(0, 0); count];
    for &(h, i) in hashed.iter().rev() {
        let at = &mut starts[bucket(h)];
        *at -= 1;
        keyed[*at] = (h, i);
    }
    for (&start, &end) in starts.iter().zip(starts.iter().skip(1).chain([&count])) {
        keyed[start..end].sort_unstable();
    }
    let mut least: Option<&str> = None;
    let mut run: Vec<&str> = Vec::new();
    for group in keyed.chunk_by(|a, b| a.0 == b.0).filter(|g| g.len() > 1) {
        run.clear();
        run.extend(group.iter().map(|&(_, i)| sig(i as usize)));
        run.sort_unstable();
        if let Some(w) = run.windows(2).find(|w| w[0] == w[1]) {
            if least.is_none_or(|l| w[0] < l) {
                least = Some(w[0]);
            }
        }
    }
    match least {
        Some(dup) => Err(format!("duplicate method signature {dup}")),
        None => Ok(()),
    }
}

/// A multiplicative hash of `bytes`, eight at a time.
fn word_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(last));
    }
    h ^ (h >> 29)
}

/// Frame-translation table of the Socket Supervisor: dotted stack-frame
/// name → the first method defined under that name.
///
/// The Socket Supervisor receives stack frames as dotted names
/// (`com.unity3d.ads.android.cache.b.a`) and must translate each to a
/// full method *type signature* using the parsed dex. Dotted names are
/// ambiguous for overloads; like the paper, which resolves the ambiguity
/// with dex parse order, the index answers with the first candidate in
/// definition order.
///
/// The table is a sorted list of `(hash of dotted name, method id)`
/// pairs, each hash streamed from the signature's smali bytes
/// ([`MethodSig::dotted_bytes`]). The index shares the dex it was built
/// over and reads every signature from it: building allocates the table
/// and nothing per method. A lookup walks the run of equal hashes in id
/// order and confirms each candidate byte for byte: a hash collision can
/// cost a comparison but never change the answer. An exact signature
/// hashes to its own dotted name's run, so [`SigIndex::find`] answers
/// from the same table.
#[derive(Debug, Clone, Default)]
pub struct SigIndex {
    dex: Arc<DexFile>,
    /// `(dotted-name hash, method id)`, sorted; ids ascend within a hash.
    table: Vec<(u64, u32)>,
}

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over a byte stream: the index's dotted-name hash, and
/// the stable string hash the corpus generator and the runtime seed
/// their choices with.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

impl SigIndex {
    /// Builds the index over a shared dex.
    pub fn new(dex: Arc<DexFile>) -> Self {
        let mut table: Vec<(u64, u32)> = dex
            .signatures()
            .enumerate()
            .map(|(id, sig)| (fnv1a(sig.dotted_bytes()), id as u32))
            .collect();
        table.sort_unstable();
        SigIndex { dex, table }
    }

    /// Builds the index over a copy of `dex`; [`SigIndex::new`] shares
    /// one instead.
    pub fn build(dex: &DexFile) -> Self {
        SigIndex::new(Arc::new(dex.clone()))
    }

    /// The indexed dex.
    pub fn dex(&self) -> &Arc<DexFile> {
        &self.dex
    }

    /// The ids, ascending, whose dotted names hash to `hash`.
    fn run(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let start = self.table.partition_point(|&(h, _)| h < hash);
        self.table[start..]
            .iter()
            .take_while(move |&&(h, _)| h == hash)
            .map(|&(_, id)| id)
    }

    /// The first method, in definition order, whose dotted name is
    /// `dotted_name`; `None` when the dex defines no such method (a
    /// framework frame).
    pub fn first_match(&self, dotted_name: &str) -> Option<&MethodSig> {
        self.run(fnv1a(dotted_name.bytes()))
            .map(|id| &self.dex.methods[id as usize].sig)
            .find(|sig| sig.dotted_bytes().eq(dotted_name.bytes()))
    }

    /// The id of the first method defined with exactly `sig`.
    pub fn find(&self, sig: &MethodSig) -> Option<u32> {
        self.run(fnv1a(sig.dotted_bytes()))
            .find(|&id| self.dex.methods[id as usize].sig == *sig)
    }

    /// Number of indexed methods.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` when no methods are indexed.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first method defined with exactly `sig`, by a linear scan:
    /// the reference [`SigIndex::find`] is held to.
    fn find_method(dex: &DexFile, sig: &MethodSig) -> Option<u32> {
        dex.methods
            .iter()
            .position(|m| &m.sig == sig)
            .map(|i| i as u32)
    }

    fn sample_dex() -> DexFile {
        let m0 = MethodDef {
            sig: MethodSig::new("com.app", "Main", "onCreate", "()V"),
            code: CodeItem {
                instructions: vec![
                    Instruction::Const(7),
                    Instruction::Invoke(MethodRef::Internal(1)),
                    Instruction::Return,
                ],
            },
        };
        let m1 = MethodDef {
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
        };
        DexFile {
            methods: vec![m0, m1],
            classes: vec![
                ClassDef {
                    dotted_name: "com.app.Main".into(),
                    method_indices: vec![0],
                },
                ClassDef {
                    dotted_name: "com.ads.Loader".into(),
                    method_indices: vec![1],
                },
            ],
        }
    }

    #[test]
    fn validate_accepts_consistent_dex() {
        assert_eq!(sample_dex().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_class_method() {
        let mut dex = sample_dex();
        dex.classes[0].method_indices.push(99);
        assert!(dex.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_invoke() {
        let mut dex = sample_dex();
        dex.methods[0]
            .code
            .instructions
            .push(Instruction::Invoke(MethodRef::Internal(42)));
        assert!(dex.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_signatures() {
        let mut dex = sample_dex();
        let dup = dex.methods[0].clone();
        dex.methods.push(dup);
        assert!(dex.validate().is_err());
    }

    /// The least duplicate by sorting every signature: what
    /// `check_unique` answered before it hashed.
    fn least_duplicate_by_sorting(sigs: &[&str]) -> Result<(), String> {
        let mut sorted = sigs.to_vec();
        sorted.sort_unstable();
        match sorted.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(format!("duplicate method signature {}", w[0])),
            None => Ok(()),
        }
    }

    #[test]
    fn duplicate_check_names_the_least_duplicate_whatever_collides() {
        // Hashes that spread, that put everything in one bucket and one
        // run (a crafted dex), that share top bits but differ, and that
        // collide by length.
        let hashes: [fn(&[u8]) -> u64; 4] = [
            word_hash,
            |_| 7,
            |b| b.len() as u64,
            |b| (b.len() as u64) << 58,
        ];
        let pool = [
            "La/B;->m()V",
            "La/B;->n()V",
            "La/C;->m()V",
            "Lb/B;->m(I)V",
            "LA;->a()V",
            "La/B;->m()J",
        ];
        let mut cases: Vec<Vec<&str>> = vec![vec![], vec![pool[0]], pool.to_vec()];
        for skip in 0..pool.len() {
            for dup in 0..pool.len() {
                let mut sigs: Vec<&str> = pool.iter().copied().skip(skip).collect();
                sigs.insert(sigs.len() / 2, pool[dup]);
                sigs.push(pool[(dup + skip) % pool.len()]);
                cases.push(sigs);
            }
        }
        for sigs in &cases {
            for hash in hashes {
                assert_eq!(
                    check_unique_by(sigs.len(), |i| sigs[i], hash),
                    least_duplicate_by_sorting(sigs),
                    "{sigs:?}"
                );
            }
        }
    }

    #[test]
    fn invokes_iterator_filters_non_invoke() {
        let dex = sample_dex();
        assert_eq!(dex.methods[0].code.invokes().count(), 1);
    }

    #[test]
    fn find_method_and_index_agree() {
        let dex = sample_dex();
        let idx = SigIndex::build(&dex);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        for m in &dex.methods {
            let found = idx.first_match(&m.sig.dotted_name()).unwrap();
            assert_eq!(find_method(&dex, found), find_method(&dex, &m.sig));
        }
        assert_eq!(
            find_method(&dex, &MethodSig::new("x", "Y", "z", "()V")),
            None
        );
        assert_eq!(idx.first_match("x.Y.z"), None);
    }

    #[test]
    fn exact_lookup_answers_like_find_method() {
        let mut dex = sample_dex();
        // An overload shares its dotted name's run with `fetch()V`.
        dex.methods.push(MethodDef {
            sig: MethodSig::new("com.ads", "Loader", "fetch", "(I)V"),
            code: CodeItem::default(),
        });
        let idx = SigIndex::new(Arc::new(dex.clone()));
        for m in &dex.methods {
            assert_eq!(idx.find(&m.sig), find_method(&dex, &m.sig));
        }
        for absent in [
            MethodSig::new("com.ads", "Loader", "fetch", "(J)V"),
            MethodSig::new("x", "Y", "z", "()V"),
        ] {
            assert_eq!(idx.find(&absent), None);
        }
        // Deserializing validates, so no malformed value reaches `find`.
        assert!(serde_json::from_str::<MethodSig>("\"not a signature\"").is_err());
    }

    #[test]
    fn validate_names_the_least_duplicate() {
        let mut dex = sample_dex();
        let (zed, ant) = (dex.methods[0].clone(), dex.methods[1].clone());
        dex.methods.extend([zed, ant]);
        // com.ads… sorts before com.app…, whatever the table order.
        assert_eq!(
            dex.validate(),
            Err(format!("duplicate method signature {}", dex.methods[1].sig))
        );
    }

    #[test]
    fn dotted_candidates_include_overloads() {
        let mut dex = sample_dex();
        dex.methods.push(MethodDef {
            sig: MethodSig::new("com.ads", "Loader", "fetch", "(I)V"),
            code: CodeItem::default(),
        });
        let idx = SigIndex::build(&dex);
        assert_eq!(
            idx.first_match("com.ads.Loader.fetch"),
            Some(&dex.methods[1].sig)
        );
        assert_eq!(idx.first_match("missing.Name.here"), None);
        assert_eq!(idx.first_match("com.ads.Loader"), None);
    }

    #[test]
    fn hash_collisions_are_confirmed_byte_for_byte() {
        let mut dex = sample_dex();
        dex.methods.push(MethodDef {
            sig: MethodSig::new("com.ads", "Loader", "fetch", "(I)V"),
            code: CodeItem::default(),
        });
        let mut idx = SigIndex::build(&dex);
        // Put every method in one equal-hash run, as if all three dotted
        // names collided with `name`.
        let collide = |idx: &mut SigIndex, name: &str| {
            for entry in &mut idx.table {
                entry.0 = fnv1a(name.bytes());
            }
            idx.table.sort_unstable();
        };
        collide(&mut idx, "com.ads.Loader.fetch");
        assert_eq!(
            idx.first_match("com.ads.Loader.fetch"),
            Some(&dex.methods[1].sig),
            "method 0 leads the run but its name differs"
        );
        collide(&mut idx, "com.absent.Name.here");
        assert_eq!(idx.first_match("com.absent.Name.here"), None);
    }
}
