//! The emulator-facing socket API.
//!
//! `NetStack` plays the role of the Android network stack inside one
//! emulator: apps (via the runtime's framework stubs) call
//! [`NetStack::tcp_connect`], transfer data, and close; the stack emits
//! genuine wire-format packets into an in-memory capture, exactly as
//! tcpdump on the emulator's interface would have recorded them. The
//! Socket Supervisor's out-of-band UDP report datagrams go through
//! [`NetStack::udp_send`] and are therefore *also* captured — the offline
//! pipeline must filter them out, just like the original had to exclude
//! Libspector's own packets from the traffic accounting.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::clock::Clock;
use crate::dns;
use crate::packet::{self, tcp_flags, SocketPair, TCP_MSS};
use crate::pcap::{write_pcap, CapturedPacket};

/// Handle to an open (or closed) simulated TCP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u64);

/// Per-socket bookkeeping.
#[derive(Debug, Clone, Copy)]
struct TcpSocket {
    pair: SocketPair,
    /// Next sequence number for the client side.
    seq: u32,
    /// Next sequence number for the server side.
    peer_seq: u32,
    open: bool,
}

/// The end of a connection a segment run leaves from.
#[derive(Debug, Clone, Copy)]
enum Side {
    Client,
    Server,
}

/// What a segment run carries: `len` bytes of deterministic filler, or
/// explicit bytes.
#[derive(Debug, Clone, Copy)]
enum Payload<'a> {
    Filler(u64),
    Bytes(&'a [u8]),
}

/// Simulated per-emulator network stack.
///
/// All state (port allocator, DNS cache, capture) is local to one
/// emulator instance, matching the paper's fresh-image-per-app setup.
#[derive(Debug)]
pub struct NetStack {
    clock: Clock,
    local_ip: Ipv4Addr,
    next_port: u16,
    next_socket: u64,
    next_dns_id: u16,
    sockets: HashMap<SocketId, TcpSocket>,
    dns_cache: HashMap<String, Ipv4Addr>,
    dns6_cache: HashMap<String, Ipv6Addr>,
    capture: Vec<CapturedPacket>,
    /// Microseconds the clock advances per emitted packet, modelling
    /// emulator-to-network latency.
    per_packet_micros: u64,
}

impl NetStack {
    /// Creates a stack for an emulator with address `local_ip`.
    pub fn new(clock: Clock, local_ip: Ipv4Addr) -> Self {
        NetStack {
            clock,
            local_ip,
            next_port: 32_768,
            next_socket: 1,
            next_dns_id: 1,
            sockets: HashMap::new(),
            dns_cache: HashMap::new(),
            dns6_cache: HashMap::new(),
            capture: Vec::new(),
            per_packet_micros: 100,
        }
    }

    /// The emulator's own address.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.local_ip
    }

    /// The emulator's IPv6 address: a deterministic ULA derived from
    /// the v4 address ([`local_ipv6_for`]), so dual-stack sockets need
    /// no extra configuration.
    pub fn local_ip6(&self) -> Ipv6Addr {
        local_ipv6_for(self.local_ip)
    }

    /// Shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_port;
        // Wrap within the ephemeral range. Collisions with a *live*
        // socket on the same 4-tuple are what stream-epoch splitting in
        // the flow table exists for; sequential reuse is realistic.
        self.next_port = if self.next_port == u16::MAX {
            32_768
        } else {
            self.next_port + 1
        };
        port
    }

    fn emit(&mut self, data: Vec<u8>) {
        let timestamp_micros = self.clock.advance_micros(self.per_packet_micros);
        self.capture.push(CapturedPacket {
            timestamp_micros,
            data,
        });
    }

    /// Resolves `domain`, emitting a DNS query/response exchange on the
    /// first lookup. The authoritative address `ip` is supplied by the
    /// caller (the workload model owns the domain→IP universe); repeat
    /// lookups hit the cache without network traffic, like a real
    /// resolver within TTL.
    pub fn resolve(&mut self, domain: &str, ip: Ipv4Addr) -> Ipv4Addr {
        self.dns_exchange(domain, ip, |stack| &mut stack.dns_cache)
    }

    /// [`resolve`](Self::resolve) for AAAA lookups: emits an AAAA
    /// query/response exchange (over the v4 DNS transport, as Android
    /// resolvers do on NAT64-free networks) on first lookup and caches
    /// the answer separately from the A cache.
    pub fn resolve6(&mut self, domain: &str, ip: Ipv6Addr) -> Ipv6Addr {
        self.dns_exchange(domain, ip, |stack| &mut stack.dns6_cache)
    }

    /// The one DNS exchange behind both lookups: answers from `cache`
    /// when it holds `domain`, else sends a query whose QTYPE follows
    /// the answer's family (A or AAAA) from an ephemeral port to the
    /// emulator's resolver, receives `ip` back, and caches it.
    fn dns_exchange<A: Copy + Into<IpAddr>>(
        &mut self,
        domain: &str,
        ip: A,
        cache: fn(&mut Self) -> &mut HashMap<String, A>,
    ) -> A {
        if let Some(&cached) = cache(self).get(domain) {
            return cached;
        }
        let id = self.next_dns_id;
        self.next_dns_id = self.next_dns_id.wrapping_add(1);
        let qtype = match ip.into() {
            IpAddr::V4(_) => dns::QTYPE_A,
            IpAddr::V6(_) => dns::QTYPE_AAAA,
        };
        let dns_server = Ipv4Addr::new(10, 0, 2, 3); // emulator default
        let pair = SocketPair::new(self.local_ip, self.alloc_port(), dns_server, dns::DNS_PORT);
        let query = dns::encode_query_typed(id, domain, qtype);
        self.emit(packet::encode_udp(&pair, &query));
        let response = dns::encode_response(id, domain, ip, 300);
        self.emit(packet::encode_udp(&pair.reversed(), &response));
        cache(self).insert(domain.to_owned(), ip);
        ip
    }

    /// The stack's own address in the family of `remote`.
    fn local_for(&self, remote: IpAddr) -> IpAddr {
        match remote {
            IpAddr::V4(_) => self.local_ip.into(),
            IpAddr::V6(_) => self.local_ip6().into(),
        }
    }

    /// Opens a TCP connection, emitting the three-way handshake.
    ///
    /// Returns the socket handle; the 4-tuple is queryable via
    /// [`NetStack::socket_pair`] (the `getsockname`/`getpeername`
    /// equivalent the supervisor's shared library calls).
    /// Accepts `Ipv4Addr`, `Ipv6Addr`, or `IpAddr` destinations; a v6
    /// destination binds the local side to the stack's v6 address, so
    /// the whole connection travels as IPv6 frames.
    pub fn tcp_connect(&mut self, dst_ip: impl Into<IpAddr>, dst_port: u16) -> SocketId {
        let dst_ip = dst_ip.into();
        let src_port = self.alloc_port();
        let pair = SocketPair::new(self.local_for(dst_ip), src_port, dst_ip, dst_port);
        let isn = 1_000;
        let peer_isn = 9_000;
        self.emit(packet::encode_tcp(&pair, isn, 0, tcp_flags::SYN, &[]));
        self.emit(packet::encode_tcp(
            &pair.reversed(),
            peer_isn,
            isn + 1,
            tcp_flags::SYN | tcp_flags::ACK,
            &[],
        ));
        self.emit(packet::encode_tcp(
            &pair,
            isn + 1,
            peer_isn + 1,
            tcp_flags::ACK,
            &[],
        ));
        let id = SocketId(self.next_socket);
        self.next_socket += 1;
        self.sockets.insert(
            id,
            TcpSocket {
                pair,
                seq: isn + 1,
                peer_seq: peer_isn + 1,
                open: true,
            },
        );
        id
    }

    /// Connection 4-tuple for `socket` — the `getsockname` +
    /// `getpeername` pair exposed to the supervisor via JNI in the
    /// original system.
    pub fn socket_pair(&self, socket: SocketId) -> Option<SocketPair> {
        self.sockets.get(&socket).map(|s| s.pair)
    }

    /// Transfers payload bytes on an open connection: `sent` bytes
    /// client→server followed by `received` bytes server→client,
    /// segmented at the MSS with ACKs flowing the other way.
    ///
    /// Silently ignores closed/unknown sockets (matching the forgiving
    /// semantics of a capture-only observer — the app's own error
    /// handling is out of scope).
    pub fn tcp_transfer(&mut self, socket: SocketId, sent: u64, received: u64) {
        self.segment(socket, Side::Client, Payload::Filler(sent));
        self.segment(socket, Side::Server, Payload::Filler(received));
    }

    /// Transfers *explicit* payload bytes client→server (an encoded HTTP
    /// request) followed by `received` response bytes server→client —
    /// used by the framework HTTP clients so request heads (Host,
    /// User-Agent) are genuinely on the wire. The response is an HTTP
    /// 200 head plus body filler totalling `received` bytes (the
    /// minimal head when `received` is smaller than it), so it is never
    /// empty and the client always ACKs it.
    pub fn tcp_exchange(&mut self, socket: SocketId, request: &[u8], received: u64) {
        let response = crate::http::encode_response_total(received);
        self.tcp_exchange_with(socket, request, &response);
    }

    /// Transfers explicit payload bytes in *both* directions — used for
    /// protocols whose response framing matters on the wire (TLS-like
    /// record streams), where the HTTP 200 filler of
    /// [`tcp_exchange`](Self::tcp_exchange) would be wrong.
    pub fn tcp_exchange_with(&mut self, socket: SocketId, request: &[u8], response: &[u8]) {
        self.segment(socket, Side::Client, Payload::Bytes(request));
        self.segment(socket, Side::Server, Payload::Bytes(response));
    }

    /// The one TCP segmenter: sends `payload` from `from`'s side of an
    /// open `socket` in MSS-sized PSH/ACK segments, then the other
    /// side's ACK when any byte moved. Closed and unknown sockets are
    /// ignored.
    fn segment(&mut self, socket: SocketId, from: Side, payload: Payload<'_>) {
        let Some(mut state) = self.sockets.get(&socket).filter(|s| s.open).copied() else {
            return;
        };
        let (out, back, seq, ack) = match from {
            Side::Client => (
                state.pair,
                state.pair.reversed(),
                &mut state.seq,
                state.peer_seq,
            ),
            Side::Server => (
                state.pair.reversed(),
                state.pair,
                &mut state.peer_seq,
                state.seq,
            ),
        };
        let len = match payload {
            Payload::Filler(len) => len,
            Payload::Bytes(bytes) => bytes.len() as u64,
        };
        let mut moved = 0;
        while moved < len {
            let chunk = (len - moved).min(TCP_MSS as u64) as usize;
            let flags = tcp_flags::PSH | tcp_flags::ACK;
            // Filler is seeded per segment by that segment's sequence
            // number, so captures are reproducible.
            self.emit(match payload {
                Payload::Filler(_) => packet::encode_tcp_filler(&out, *seq, ack, flags, chunk),
                Payload::Bytes(bytes) => {
                    packet::encode_tcp(&out, *seq, ack, flags, &bytes[moved as usize..][..chunk])
                }
            });
            *seq = seq.wrapping_add(chunk as u32);
            moved += chunk as u64;
        }
        if len > 0 {
            self.emit(packet::encode_tcp(&back, ack, *seq, tcp_flags::ACK, &[]));
        }
        self.sockets.insert(socket, state);
    }

    /// Closes the connection with a FIN/ACK exchange in both directions.
    pub fn tcp_close(&mut self, socket: SocketId) {
        let Some(state) = self.sockets.get_mut(&socket).filter(|s| s.open) else {
            return;
        };
        state.open = false;
        let state = *state;
        self.emit(packet::encode_tcp(
            &state.pair,
            state.seq,
            state.peer_seq,
            tcp_flags::FIN | tcp_flags::ACK,
            &[],
        ));
        self.emit(packet::encode_tcp(
            &state.pair.reversed(),
            state.peer_seq,
            state.seq.wrapping_add(1),
            tcp_flags::FIN | tcp_flags::ACK,
            &[],
        ));
        self.emit(packet::encode_tcp(
            &state.pair,
            state.seq.wrapping_add(1),
            state.peer_seq.wrapping_add(1),
            tcp_flags::ACK,
            &[],
        ));
    }

    /// Sends one UDP datagram from an ephemeral local port — the
    /// transport used for the Socket Supervisor's out-of-band reports.
    ///
    /// Returns the source port chosen.
    pub fn udp_send(&mut self, dst_ip: impl Into<IpAddr>, dst_port: u16, payload: &[u8]) -> u16 {
        let dst_ip = dst_ip.into();
        let src_port = self.alloc_port();
        let pair = SocketPair::new(self.local_for(dst_ip), src_port, dst_ip, dst_port);
        self.emit(packet::encode_udp(&pair, payload));
        src_port
    }

    /// Number of packets captured so far.
    pub fn captured_count(&self) -> usize {
        self.capture.len()
    }

    /// A view of the raw capture.
    pub fn capture(&self) -> &[CapturedPacket] {
        &self.capture
    }

    /// Serializes the capture as a standard pcap file.
    pub fn capture_pcap(&self) -> bytes::Bytes {
        write_pcap(&self.capture)
    }

    /// Consumes the stack, returning the capture.
    pub fn into_capture(self) -> Vec<CapturedPacket> {
        self.capture
    }
}

/// Deterministic unique-local IPv6 address for an emulator (or remote
/// endpoint) known by a v4 address: `fd00:5eca::a.b.c.d`-style ULA
/// embedding the v4 octets in the low 32 bits. One shared rule keeps
/// the workload model, the stack, and tests agreeing on every host's
/// v6 identity without extra configuration.
pub fn local_ipv6_for(v4: Ipv4Addr) -> Ipv6Addr {
    let o = v4.octets();
    Ipv6Addr::new(
        0xfd00,
        0x5eca,
        0,
        0,
        0,
        0,
        u16::from_be_bytes([o[0], o[1]]),
        u16::from_be_bytes([o[2], o[3]]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{decode_frame_ref, TransportRef};
    use crate::pcap::read_pcap;

    fn stack() -> NetStack {
        NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15))
    }

    #[test]
    fn connect_emits_handshake() {
        let mut s = stack();
        let id = s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 443);
        assert_eq!(s.captured_count(), 3);
        let pair = s.socket_pair(id).unwrap();
        assert_eq!(pair.dst_port, 443);
        let syn = decode_frame_ref(&s.capture()[0].data).unwrap();
        match syn.transport {
            TransportRef::Tcp { flags, .. } => assert_eq!(flags, tcp_flags::SYN),
            other => panic!("expected tcp, got {other:?}"),
        }
        assert_eq!(syn.pair, pair);
    }

    #[test]
    fn transfer_segments_at_mss() {
        let mut s = stack();
        let id = s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 80);
        let before = s.captured_count();
        s.tcp_transfer(id, 100, 3_000); // 1 sent segment, 3 recv segments
                                        // 1 data + 1 ack + 3 data + 1 ack
        assert_eq!(s.captured_count() - before, 6);
        let mut payload_total = 0u64;
        for p in &s.capture()[before..] {
            if let TransportRef::Tcp { payload, .. } = decode_frame_ref(&p.data).unwrap().transport
            {
                payload_total += payload.len() as u64;
            }
        }
        assert_eq!(payload_total, 3_100);
    }

    #[test]
    fn transfer_on_closed_socket_is_noop() {
        let mut s = stack();
        let id = s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 80);
        s.tcp_close(id);
        let count = s.captured_count();
        s.tcp_transfer(id, 100, 100);
        s.tcp_close(id);
        assert_eq!(s.captured_count(), count);
    }

    #[test]
    fn distinct_sockets_distinct_ports() {
        let mut s = stack();
        let a = s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 80);
        let b = s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 80);
        assert_ne!(
            s.socket_pair(a).unwrap().src_port,
            s.socket_pair(b).unwrap().src_port
        );
    }

    #[test]
    fn resolve_caches() {
        let mut s = stack();
        let ip = Ipv4Addr::new(5, 6, 7, 8);
        assert_eq!(s.resolve("x.example", ip), ip);
        assert_eq!(s.captured_count(), 2); // query + response
        assert_eq!(s.resolve("x.example", ip), ip);
        assert_eq!(s.captured_count(), 2); // cached
    }

    #[test]
    fn udp_send_captured() {
        let mut s = stack();
        let port = s.udp_send(Ipv4Addr::new(9, 9, 9, 9), 5_000, b"report");
        assert!(port >= 32_768);
        let frame = decode_frame_ref(&s.capture()[0].data).unwrap();
        match frame.transport {
            TransportRef::Udp { payload } => assert_eq!(payload, b"report"),
            other => panic!("expected udp, got {other:?}"),
        }
    }

    #[test]
    fn capture_is_valid_pcap_and_timestamps_monotonic() {
        let mut s = stack();
        let id = s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 443);
        s.tcp_transfer(id, 500, 10_000);
        s.tcp_close(id);
        let packets = read_pcap(&s.capture_pcap()).unwrap();
        assert_eq!(packets.len(), s.captured_count());
        for w in packets.windows(2) {
            assert!(w[0].timestamp_micros <= w[1].timestamp_micros);
        }
        for p in &packets {
            decode_frame_ref(&p.data).unwrap();
        }
    }

    #[test]
    fn clock_advances_with_traffic() {
        let clock = Clock::new();
        let mut s = NetStack::new(clock.clone(), Ipv4Addr::new(10, 0, 2, 15));
        s.tcp_connect(Ipv4Addr::new(1, 2, 3, 4), 80);
        assert!(clock.now_micros() >= 300);
    }

    #[test]
    fn port_allocator_wraps() {
        let mut s = stack();
        s.next_port = u16::MAX;
        assert_eq!(s.alloc_port(), u16::MAX);
        assert_eq!(s.alloc_port(), 32_768);
    }
}
