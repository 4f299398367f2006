//! The interpreter driving an app's dex code.
//!
//! One `Runtime` instance models one emulator running one app: it
//! shares the app's parsed dex (through its [`SigIndex`]) and owns the
//! method-trace profiler, the simulated network stack, and the attached
//! hook modules. The UI layer (monkey) calls [`Runtime::invoke_entry`]
//! for each dispatched handler, which the index resolves by exact
//! signature; the interpreter walks the method's code item in place,
//! recursing into synchronous calls by method id, queueing asynchronous
//! ones onto the simulated scheduler, and performing network operations
//! through the framework client chains.

use std::collections::{HashMap, VecDeque};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use spector_dex::model::{
    fnv1a, Connector, DexFile, Dispatcher, Instruction, MethodRef, NetworkOp, SigIndex, WireShape,
};
use spector_dex::sig::{dotted_package, MethodSig};
use spector_netsim::shape::{encode_connect_preamble, encode_tls_hello, encode_tls_records};
use spector_netsim::stack::{NetStack, SocketId};

use crate::framework::{connector_frames, dispatcher_frames};
use crate::hook::{ConnectVerdict, HookContext, RuntimeHook};
use crate::profiler::{MethodTrace, Profiler, TraceMode};
use crate::stack::{CallStack, Frame};

/// Tunables bounding one runtime instance.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum synchronous call depth (deeper calls are skipped, like a
    /// stack-overflow guard).
    pub max_call_depth: usize,
    /// Instruction budget per dispatched UI event, bounding runaway
    /// generated call graphs.
    pub instruction_budget: u64,
    /// Profiler mode.
    pub trace_mode: TraceMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_call_depth: 48,
            instruction_budget: 200_000,
            trace_mode: TraceMode::UniqueMethods,
        }
    }
}

/// Counters describing what a runtime executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Instructions interpreted.
    pub instructions: u64,
    /// Network operations performed.
    pub network_ops: u64,
    /// Async tasks executed.
    pub async_tasks: u64,
    /// Synchronous calls skipped by the depth guard.
    pub depth_truncated: u64,
    /// Framework (external) method invocations.
    pub framework_calls: u64,
    /// Network operations torn down by an enforcing hook's Block
    /// verdict before any payload moved.
    pub blocked_ops: u64,
}

/// The per-app runtime.
pub struct Runtime {
    index: Arc<SigIndex>,
    net: NetStack,
    profiler: Profiler,
    hooks: Vec<Box<dyn RuntimeHook>>,
    resolver: HashMap<String, Ipv4Addr>,
    /// Scheduled async tasks, each as the `(method id, instruction
    /// index)` of its `InvokeAsync`, so the queue borrows the target
    /// from the dex instead of copying it.
    pending: VecDeque<(u32, u32)>,
    config: RuntimeConfig,
    stats: RuntimeStats,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("methods", &self.index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime for the dex `index` covers, on the given
    /// network stack.
    pub fn new(index: Arc<SigIndex>, net: NetStack, config: RuntimeConfig) -> Self {
        let profiler = Profiler::new(config.trace_mode);
        Runtime {
            index,
            net,
            profiler,
            hooks: Vec::new(),
            resolver: HashMap::new(),
            pending: VecDeque::new(),
            config,
            stats: RuntimeStats::default(),
        }
    }

    /// Attaches a hook module (the Xposed-like layer).
    pub fn add_hook(&mut self, hook: Box<dyn RuntimeHook>) {
        self.hooks.push(hook);
    }

    /// Registers the authoritative address for a domain (the workload
    /// model owns the DNS universe). Unregistered domains resolve to a
    /// deterministic hash-derived address.
    pub fn register_domain(&mut self, domain: &str, ip: Ipv4Addr) {
        self.resolver.insert(domain.to_owned(), ip);
    }

    /// The profiler (Method Monitor backend).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Execution counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The loaded dex.
    pub fn dex(&self) -> &DexFile {
        self.index.dex()
    }

    /// The distinct methods entered so far (see [`Profiler::trace`]).
    pub fn method_trace(&self) -> MethodTrace {
        self.profiler.trace(&self.index)
    }

    /// Immutable access to the network stack (e.g. to read the capture).
    pub fn net(&self) -> &NetStack {
        &self.net
    }

    /// Consumes the runtime, returning the network stack (capture) and
    /// profiler.
    pub fn into_parts(self) -> (NetStack, Profiler) {
        (self.net, self.profiler)
    }

    /// Fires every hook's end-of-run point. Call once when the workload
    /// is done, before [`into_parts`](Self::into_parts) — hooks may
    /// still send traffic here (e.g. the supervisor's sampling ledger),
    /// which lands in the capture like any other.
    pub fn finish_hooks(&mut self) {
        let stack = CallStack::with_base([
            Frame::new("com.android.internal.os.ZygoteInit.main"),
            Frame::new("android.app.ActivityThread.main"),
        ]);
        self.each_hook(&stack, |hook, ctx| {
            hook.on_run_finish(ctx);
            true
        });
    }

    /// The one hook fan-out: offers every hook, in the order attached,
    /// a context over `stack`, and stops at the first for which `visit`
    /// returns `false`. Returns whether every hook was visited.
    fn each_hook(
        &mut self,
        stack: &CallStack,
        mut visit: impl FnMut(&mut dyn RuntimeHook, &mut HookContext<'_>) -> bool,
    ) -> bool {
        self.hooks.iter_mut().all(|hook| {
            let mut ctx = HookContext {
                stack,
                net: &mut self.net,
            };
            visit(hook.as_mut(), &mut ctx)
        })
    }

    /// Invokes an app method by signature on a fresh main-thread stack,
    /// then drains any async tasks it scheduled. Returns `false` when
    /// the signature is not defined by the app.
    pub fn invoke_entry(&mut self, sig: &MethodSig) -> bool {
        // The interpreter borrows code from this handle, not from
        // `self`, which it mutates.
        let index = Arc::clone(&self.index);
        let Some(id) = index.find(sig) else {
            return false;
        };
        let mut budget = self.config.instruction_budget;
        let mut stack = CallStack::with_base([
            Frame::new("com.android.internal.os.ZygoteInit.main"),
            Frame::new("android.app.ActivityThread.main"),
            Frame::new("android.os.Handler.dispatchMessage"),
        ]);
        self.invoke_id(index.dex(), id, &mut stack, 0, &mut budget);
        self.drain_pending(index.dex(), &mut budget);
        true
    }

    /// Runs queued async tasks until the queue is empty or the budget
    /// runs out.
    fn drain_pending(&mut self, dex: &DexFile, budget: &mut u64) {
        while *budget > 0 {
            let Some((method, at)) = self.pending.pop_front() else {
                break;
            };
            let Instruction::InvokeAsync { dispatcher, target } =
                &dex.methods[method as usize].code.instructions[at as usize]
            else {
                unreachable!("only InvokeAsync instructions are queued");
            };
            self.stats.async_tasks += 1;
            match target {
                MethodRef::Internal(id) => {
                    let mut stack = CallStack::with_base(dispatcher_frames(*dispatcher));
                    self.invoke_id(dex, *id, &mut stack, 0, budget);
                }
                MethodRef::External(sig) => self.framework_call(sig),
            }
        }
    }

    fn invoke_id(
        &mut self,
        dex: &DexFile,
        id: u32,
        stack: &mut CallStack,
        depth: usize,
        budget: &mut u64,
    ) {
        let Some(method) = dex.methods.get(id as usize) else {
            return;
        };
        self.profiler
            .on_method_entry(id, self.net.clock().now_micros());
        stack.push(Frame::new(method.sig.dotted_name()));
        for (at, inst) in method.code.instructions.iter().enumerate() {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            self.stats.instructions += 1;
            match inst {
                Instruction::Nop | Instruction::Const(_) => {}
                Instruction::Return => break,
                Instruction::Invoke(MethodRef::Internal(next)) => {
                    if depth + 1 < self.config.max_call_depth {
                        self.invoke_id(dex, *next, stack, depth + 1, budget);
                    } else {
                        self.stats.depth_truncated += 1;
                    }
                }
                Instruction::Invoke(MethodRef::External(ext)) => self.framework_call(ext),
                Instruction::InvokeAsync { .. } => self.pending.push_back((id, at as u32)),
                Instruction::Network(op) => self.perform_network(op, stack),
            }
        }
        stack.pop();
    }

    /// Simulates a call into a framework (built-in) method: recorded in
    /// the trace (the Android Profiler sees native API calls too), but
    /// with no app code behind it and nothing hooked while its frame
    /// would be on the stack.
    fn framework_call(&mut self, sig: &MethodSig) {
        self.stats.framework_calls += 1;
        self.profiler
            .on_framework_entry(sig, self.net.clock().now_micros());
    }

    /// Performs a *system-initiated* network operation: platform
    /// services (connectivity checks, account sync, built-in apps)
    /// create sockets with no app code anywhere on the stack — only a
    /// scheduler base and the client chain. After builtin filtering such
    /// traffic either attributes to `com.android.okhttp` (Figure 3's red
    /// entries) or, for raw sockets, to no library at all (the `*`
    /// buckets that can only be categorized by destination domain).
    pub fn perform_system_network(&mut self, op: &NetworkOp, dispatcher: Dispatcher) {
        let mut stack = CallStack::with_base(dispatcher_frames(dispatcher));
        self.perform_network(op, &mut stack);
    }

    /// Performs one network operation through the configured client
    /// chain: push framework frames, resolve, connect, fire post-hooks,
    /// transfer, close. The op's [`WireShape`] decides the transport
    /// realism: address family, framing, tunnelling, connection reuse.
    fn perform_network(&mut self, op: &NetworkOp, stack: &mut CallStack) {
        self.stats.network_ops += 1;
        // The frame that issued the request (top of stack before the
        // client chain) — SDKs sometimes identify themselves in the
        // User-Agent, and that identity comes from the calling code.
        let owner_depth = stack.frames().len();
        let frames = connector_frames(op.connector);
        let pushed = frames.len();
        for frame in frames {
            stack.push(frame);
        }
        let registered = self
            .resolver
            .get(&op.domain)
            .copied()
            .unwrap_or_else(|| fallback_ip(&op.domain));
        let socket = match op.shape {
            // The legacy path: an A lookup on the wire, then a v4
            // connection — byte-identical to the pre-shape runtime.
            // Pooled connections establish exactly the same way; the
            // reuse happens after connect.
            WireShape::Plain | WireShape::Pooled { .. } => {
                let ip = self.net.resolve(&op.domain, registered);
                self.net.tcp_connect(ip, op.port)
            }
            // Dual-stack client: AAAA lookup, v6 connection.
            WireShape::V6 => {
                let ip6 = self.net.resolve6(&op.domain, remote_ipv6(registered));
                self.net.tcp_connect(ip6, op.port)
            }
            // TLS-like client resolving over an encrypted channel the
            // capture cannot see (DoH): no DNS on the wire — the only
            // observable name is the SNI in the ClientHello.
            WireShape::TlsSni => self.net.tcp_connect(registered, op.port),
            // Forward proxy: the TCP connection goes to the proxy; the
            // logical destination is named only in the tunnel preamble.
            WireShape::ConnectProxy => self.net.tcp_connect(PROXY_IP, PROXY_PORT),
        };
        // Post-hook: the connection exists and has concrete parameters.
        // Observers fire first, then enforcers vote; a single Block
        // verdict tears the connection down before payload moves.
        self.each_hook(stack, |hook, ctx| {
            hook.after_socket_connect(ctx, socket);
            true
        });
        let allowed = self.each_hook(stack, |hook, ctx| {
            hook.connect_verdict(ctx, socket) == ConnectVerdict::Allow
        });
        let owner = owner_depth
            .checked_sub(1)
            .map(|top| stack.frames()[top].dotted.as_str());
        match op.shape {
            _ if !allowed => self.stats.blocked_ops += 1,
            WireShape::Plain | WireShape::V6 => {
                self.exchange(socket, op, owner, &[], op.send_bytes, op.recv_bytes);
            }
            WireShape::TlsSni => {
                // ClientHello (carrying the SNI) plus application-data
                // records padding the client payload to the op's send
                // budget; the response is a record stream of exactly
                // the op's receive budget.
                let mut request = encode_tls_hello(&op.domain);
                let remaining = op.send_bytes.saturating_sub(request.len() as u64);
                if remaining >= 5 {
                    request.extend_from_slice(&encode_tls_records(remaining));
                }
                let response = encode_tls_records(op.recv_bytes.max(5));
                self.net.tcp_exchange_with(socket, &request, &response);
            }
            WireShape::ConnectProxy => {
                // Tunnel preamble naming the logical destination, then
                // the ordinary request through the tunnel.
                let preamble = encode_connect_preamble(&op.domain, op.port);
                self.exchange(socket, op, owner, &preamble, op.send_bytes, op.recv_bytes);
            }
            WireShape::Pooled { streams } => {
                // Keep-alive reuse: the logical exchanges share one
                // connection. The connect-time hook covers stream 0;
                // each later stream gets its own post-hook with the
                // issuing thread's stack, so per-stream attribution
                // has the same context a fresh connection would.
                let n = u64::from(streams.max(1));
                for ordinal in 0..streams.max(1) {
                    if ordinal > 0 {
                        self.each_hook(stack, |hook, ctx| {
                            hook.after_stream_start(ctx, socket, ordinal);
                            true
                        });
                    }
                    let extra_send = if ordinal == 0 { op.send_bytes % n } else { 0 };
                    let extra_recv = if ordinal == 0 { op.recv_bytes % n } else { 0 };
                    let send = op.send_bytes / n + extra_send;
                    let recv = op.recv_bytes / n + extra_recv;
                    self.exchange(socket, op, owner, &[], send, recv);
                }
            }
        }
        self.net.tcp_close(socket);
        for _ in 0..pushed {
            stack.pop();
        }
    }

    /// One request/response through the op's client, after `preamble`
    /// (a tunnel's CONNECT, or nothing). A raw socket writes the
    /// preamble on its own, then opaque filler up to `send` bytes in
    /// all; an HTTP client writes the preamble and a request padded to
    /// `send` bytes as one write. `recv` bytes come back.
    fn exchange(
        &mut self,
        socket: SocketId,
        op: &NetworkOp,
        owner_frame: Option<&str>,
        preamble: &[u8],
        send: u64,
        recv: u64,
    ) {
        match op.connector {
            Connector::DirectSocket => {
                self.net.tcp_exchange_with(socket, preamble, &[]);
                let filler = send.saturating_sub(preamble.len() as u64);
                self.net.tcp_transfer(socket, filler, recv);
            }
            _ => {
                // HTTP clients put a real request head on the wire;
                // the User-Agent is the generic client token, with an
                // SDK identifier appended for the fraction of libraries
                // that tag their requests (what prior work's
                // header-based classification relied on).
                let request = build_http_request(preamble, op, owner_frame, send);
                self.net.tcp_exchange(socket, &request, recv);
            }
        }
    }
}

/// Fixed forward-proxy endpoint for [`WireShape::ConnectProxy`] flows —
/// inside the emulator NAT range, like the DNS server at 10.0.2.3.
const PROXY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 88);
/// The proxy's listening port (conventional HTTP-proxy port).
const PROXY_PORT: u16 = 3128;

/// Deterministic global IPv6 address for a domain's v4 address: the
/// documentation prefix `2001:db8::/32` with the v4 octets embedded in
/// the low 32 bits — one stable v4↔v6 correspondence per destination.
fn remote_ipv6(v4: Ipv4Addr) -> Ipv6Addr {
    let o = v4.octets();
    Ipv6Addr::new(
        0x2001,
        0xdb8,
        0,
        0,
        0,
        0,
        u16::from_be_bytes([o[0], o[1]]),
        u16::from_be_bytes([o[2], o[3]]),
    )
}

/// Fraction (percent) of HTTP requests whose User-Agent carries an SDK
/// identifier in addition to the generic client token. Prior work's
/// header-based attribution only ever sees this minority.
const UA_TAGGED_PERCENT: u64 = 40;

/// Builds the HTTP request an operation puts on the wire, after
/// `preamble` in the same buffer. The head is deterministic in
/// `(op, owner)`; the body pads the total client payload up to
/// `send_budget` when the head is smaller (`send_budget` is
/// `op.send_bytes` for single-exchange shapes and the per-stream share
/// for pooled connections).
fn build_http_request(
    preamble: &[u8],
    op: &NetworkOp,
    owner_frame: Option<&str>,
    send_budget: u64,
) -> Vec<u8> {
    let client = match op.connector {
        Connector::AndroidOkHttp => "okhttp/3.12.1",
        Connector::ApacheHttp => "Apache-HttpClient/UNAVAILABLE (java 1.4)",
        Connector::DirectSocket => "raw",
    };
    let domain_hash = fnv1a(op.domain.bytes());
    let tagged = domain_hash % 100 < UA_TAGGED_PERCENT;
    let user_agent = match owner_frame.filter(|_| tagged) {
        // Tag with the package, or the whole frame when it has none.
        Some(frame) => format!("{client} {}", dotted_package(frame).unwrap_or(frame)),
        None => client.to_owned(),
    };
    let mut request = spector_netsim::http::HttpRequest {
        method: if send_budget > 512 { "POST" } else { "GET" }.to_owned(),
        path: format!("/v1/r{}", domain_hash % 97),
        host: op.domain.clone(),
        user_agent,
        content_length: 0,
    };
    // The body is sized from the head as it reads with a zero
    // Content-Length.
    request.content_length = send_budget.saturating_sub(request.head_len() + 2);
    let mut out = preamble.to_vec();
    request.encode_into(&mut out);
    out
}

/// Deterministic fallback address for unregistered domains (TEST-NET-3
/// plus a name hash), so behaviour never depends on ambient state.
fn fallback_ip(domain: &str) -> Ipv4Addr {
    let mut hash: u32 = 2_166_136_261;
    for b in domain.bytes() {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(16_777_619);
    }
    Ipv4Addr::new(203, 0, 113, (hash % 254 + 1) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spector_dex::model::{ClassDef, CodeItem, MethodDef};
    use spector_netsim::clock::Clock;
    use spector_netsim::packet::{decode_frame_ref, TransportRef};
    use spector_netsim::CaptureIndex;

    fn msig(pkg: &str, class: &str, method: &str) -> MethodSig {
        MethodSig::new(pkg, class, method, "()V")
    }

    /// dex with: entry -> helper -> Network(ads.test:443)
    ///           entry -> InvokeAsync(AsyncTask, bg) ; bg -> Network
    fn test_dex() -> DexFile {
        let entry = MethodDef {
            sig: msig("com.app", "Main", "onClick"),
            code: CodeItem {
                instructions: vec![
                    Instruction::Const(1),
                    Instruction::Invoke(MethodRef::Internal(1)),
                    Instruction::InvokeAsync {
                        dispatcher: Dispatcher::AsyncTask,
                        target: MethodRef::Internal(2),
                    },
                    Instruction::Return,
                ],
            },
        };
        let helper = MethodDef {
            sig: msig("com.ads.sdk", "Loader", "load"),
            code: CodeItem {
                instructions: vec![
                    Instruction::Network(NetworkOp {
                        domain: "ads.test".into(),
                        port: 443,
                        send_bytes: 300,
                        recv_bytes: 5_000,
                        connector: Connector::AndroidOkHttp,
                        shape: WireShape::Plain,
                    }),
                    Instruction::Return,
                ],
            },
        };
        let bg = MethodDef {
            sig: msig("com.ads.sdk.cache", "b", "doInBackground"),
            code: CodeItem {
                instructions: vec![
                    Instruction::Network(NetworkOp {
                        domain: "cache.test".into(),
                        port: 80,
                        send_bytes: 100,
                        recv_bytes: 2_000,
                        connector: Connector::DirectSocket,
                        shape: WireShape::Plain,
                    }),
                    Instruction::Return,
                ],
            },
        };
        DexFile {
            methods: vec![entry, helper, bg],
            classes: vec![ClassDef {
                dotted_name: "com.app.Main".into(),
                method_indices: vec![0],
            }],
        }
    }

    fn shared(dex: DexFile) -> Arc<SigIndex> {
        Arc::new(SigIndex::new(Arc::new(dex)))
    }

    fn new_runtime(dex: DexFile) -> Runtime {
        let net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        Runtime::new(shared(dex), net, RuntimeConfig::default())
    }

    /// Hook that records stack snapshots at connect time.
    struct Recorder {
        snapshots: std::sync::Arc<std::sync::Mutex<Vec<Vec<String>>>>,
    }

    impl RuntimeHook for Recorder {
        fn after_socket_connect(&mut self, ctx: &mut HookContext<'_>, _socket: SocketId) {
            self.snapshots.lock().unwrap().push(ctx.stack.snapshot());
        }
    }

    #[test]
    fn sync_network_stack_has_full_context() {
        let mut rt = new_runtime(test_dex());
        let snaps = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        rt.add_hook(Box::new(Recorder {
            snapshots: snaps.clone(),
        }));
        assert!(rt.invoke_entry(&msig("com.app", "Main", "onClick")));
        let snaps = snaps.lock().unwrap();
        assert_eq!(snaps.len(), 2);
        // First connection: synchronous, so the full chain is visible.
        let sync = &snaps[0];
        assert_eq!(sync[0], "java.net.Socket.connect");
        assert!(sync.contains(&"com.ads.sdk.Loader.load".to_owned()));
        assert!(sync.contains(&"com.app.Main.onClick".to_owned()));
        // Second: via AsyncTask — caller context is gone, Listing 1 tail
        // frames are at the bottom.
        let async_snap = &snaps[1];
        assert_eq!(async_snap[0], "java.net.Socket.connect");
        assert!(async_snap.contains(&"com.ads.sdk.cache.b.doInBackground".to_owned()));
        assert!(!async_snap.contains(&"com.app.Main.onClick".to_owned()));
        assert_eq!(
            async_snap.last().unwrap(),
            "java.util.concurrent.FutureTask.run"
        );
    }

    /// The hook points a [`Tracer`] was offered, tagged with its index.
    type Log = std::sync::Arc<std::sync::Mutex<Vec<(usize, &'static str, u32)>>>;

    /// Hook that logs every point it is offered, and blocks connections
    /// to `block_port`.
    struct Tracer {
        id: usize,
        block_port: Option<u16>,
        log: Log,
    }

    impl Tracer {
        fn record(&self, point: &'static str, ordinal: u32) {
            self.log.lock().unwrap().push((self.id, point, ordinal));
        }
    }

    impl RuntimeHook for Tracer {
        fn after_socket_connect(&mut self, _ctx: &mut HookContext<'_>, _socket: SocketId) {
            self.record("connect", 0);
        }

        fn after_stream_start(
            &mut self,
            _ctx: &mut HookContext<'_>,
            _socket: SocketId,
            ordinal: u32,
        ) {
            self.record("stream", ordinal);
        }

        fn on_run_finish(&mut self, _ctx: &mut HookContext<'_>) {
            self.record("finish", 0);
        }

        fn connect_verdict(
            &mut self,
            ctx: &mut HookContext<'_>,
            socket: SocketId,
        ) -> ConnectVerdict {
            self.record("verdict", 0);
            let port = ctx.net.socket_pair(socket).map(|pair| pair.dst_port);
            if port.is_some() && port == self.block_port {
                ConnectVerdict::Block
            } else {
                ConnectVerdict::Allow
            }
        }
    }

    #[test]
    fn hooks_fan_out_in_order_and_the_first_block_ends_the_vote() {
        let op = |domain: &str, port, shape| {
            Instruction::Network(NetworkOp {
                domain: domain.into(),
                port,
                send_bytes: 300,
                recv_bytes: 5_000,
                connector: Connector::AndroidOkHttp,
                shape,
            })
        };
        let dex = DexFile {
            methods: vec![MethodDef {
                sig: msig("com.app", "Main", "onClick"),
                code: CodeItem {
                    instructions: vec![
                        op("blocked.test", 443, WireShape::Plain),
                        op("pool.test", 80, WireShape::Pooled { streams: 3 }),
                    ],
                },
            }],
            classes: vec![],
        };
        let mut rt = new_runtime(dex);
        let log = Log::default();
        for (id, block_port) in [(0, Some(443)), (1, None)] {
            rt.add_hook(Box::new(Tracer {
                id,
                block_port,
                log: log.clone(),
            }));
        }
        assert!(rt.invoke_entry(&msig("com.app", "Main", "onClick")));
        rt.finish_hooks();
        assert_eq!(
            *log.lock().unwrap(),
            [
                // Every hook sees the connect before any verdict; hook
                // 0's Block ends the vote before hook 1 is asked.
                (0, "connect", 0),
                (1, "connect", 0),
                (0, "verdict", 0),
                // The pooled connection: both allow, and only streams
                // 1 and 2 get a stream-start point.
                (0, "connect", 0),
                (1, "connect", 0),
                (0, "verdict", 0),
                (1, "verdict", 0),
                (0, "stream", 1),
                (1, "stream", 1),
                (0, "stream", 2),
                (1, "stream", 2),
                (0, "finish", 0),
                (1, "finish", 0),
            ]
        );
        assert_eq!(rt.stats().blocked_ops, 1);
        // The blocked connection is a handshake and a close, no payload.
        let blocked: Vec<u8> = rt
            .net()
            .capture()
            .iter()
            .filter_map(|p| {
                let frame = decode_frame_ref(&p.data).unwrap();
                match frame.transport {
                    TransportRef::Tcp { flags, payload, .. }
                        if frame.pair.src_port == 443 || frame.pair.dst_port == 443 =>
                    {
                        assert!(payload.is_empty());
                        Some(flags)
                    }
                    _ => None,
                }
            })
            .collect();
        use spector_netsim::packet::tcp_flags::{ACK, FIN, SYN};
        assert_eq!(blocked, [SYN, SYN | ACK, ACK, FIN | ACK, FIN | ACK, ACK]);
    }

    #[test]
    fn unknown_entry_returns_false() {
        let mut rt = new_runtime(test_dex());
        assert!(!rt.invoke_entry(&msig("no.such", "Class", "method")));
        assert_eq!(rt.stats().instructions, 0);
    }

    #[test]
    fn profiler_records_unique_methods() {
        let mut rt = new_runtime(test_dex());
        let entry = msig("com.app", "Main", "onClick");
        rt.invoke_entry(&entry);
        rt.invoke_entry(&entry);
        let unique = rt.method_trace();
        assert_eq!(unique.len(), 3); // all three app methods, deduped
        assert!(unique.contains(0));
    }

    #[test]
    fn traffic_lands_in_capture() {
        let mut rt = new_runtime(test_dex());
        rt.register_domain("ads.test", Ipv4Addr::new(198, 51, 100, 1));
        rt.register_domain("cache.test", Ipv4Addr::new(198, 51, 100, 2));
        rt.invoke_entry(&msig("com.app", "Main", "onClick"));
        // No supervisor runs here, so no datagram goes to a collector
        // port; 0 names none.
        let table = CaptureIndex::build(rt.net().capture(), 0).flows;
        assert_eq!(table.len(), 2);
        let total_payload: u64 = table
            .flows()
            .iter()
            .map(|f| f.sent_payload_bytes + f.recv_payload_bytes)
            .sum();
        assert_eq!(total_payload, 300 + 5_000 + 100 + 2_000);
        assert_eq!(rt.stats().network_ops, 2);
        assert_eq!(rt.stats().async_tasks, 1);
    }

    #[test]
    fn depth_guard_stops_recursion() {
        // Method 0 invokes itself forever.
        let dex = DexFile {
            methods: vec![MethodDef {
                sig: msig("com.app", "Rec", "spin"),
                code: CodeItem {
                    instructions: vec![Instruction::Invoke(MethodRef::Internal(0))],
                },
            }],
            classes: vec![],
        };
        let mut rt = new_runtime(dex);
        rt.invoke_entry(&msig("com.app", "Rec", "spin"));
        let stats = rt.stats();
        assert!(stats.depth_truncated >= 1);
        assert!(stats.instructions <= RuntimeConfig::default().instruction_budget);
    }

    #[test]
    fn async_self_scheduling_bounded_by_budget() {
        // Method 0 schedules itself asynchronously forever.
        let dex = DexFile {
            methods: vec![MethodDef {
                sig: msig("com.app", "Loop", "tick"),
                code: CodeItem {
                    instructions: vec![Instruction::InvokeAsync {
                        dispatcher: Dispatcher::Thread,
                        target: MethodRef::Internal(0),
                    }],
                },
            }],
            classes: vec![],
        };
        let net = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let mut rt = Runtime::new(
            shared(dex),
            net,
            RuntimeConfig {
                instruction_budget: 500,
                ..RuntimeConfig::default()
            },
        );
        rt.invoke_entry(&msig("com.app", "Loop", "tick")); // must terminate
        assert!(rt.stats().async_tasks <= 501);
    }

    #[test]
    fn external_invokes_counted_as_framework_calls() {
        let dex = DexFile {
            methods: vec![MethodDef {
                sig: msig("com.app", "M", "go"),
                code: CodeItem {
                    instructions: vec![Instruction::Invoke(MethodRef::External(msig(
                        "android.util",
                        "Log",
                        "d",
                    )))],
                },
            }],
            classes: vec![],
        };
        let mut rt = new_runtime(dex);
        rt.invoke_entry(&msig("com.app", "M", "go"));
        assert_eq!(rt.stats().framework_calls, 1);
    }

    #[test]
    fn fallback_ip_is_deterministic_and_valid() {
        assert_eq!(fallback_ip("x.example"), fallback_ip("x.example"));
        let ip = fallback_ip("y.example");
        assert_eq!(ip.octets()[0], 203);
        assert_ne!(ip.octets()[3], 0);
    }

    #[test]
    fn stack_balanced_after_drive() {
        let mut rt = new_runtime(test_dex());
        rt.invoke_entry(&msig("com.app", "Main", "onClick"));
        // Internal invariant: a second drive behaves identically, which
        // would not hold if frames leaked between events.
        let before = rt.method_trace().len();
        rt.invoke_entry(&msig("com.app", "Main", "onClick"));
        assert_eq!(rt.method_trace().len(), before);
    }
}
