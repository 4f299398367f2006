//! Property test: the socket calls of `NetStack` write the captures
//! they wrote before the stack had one segmenter and one DNS exchange.
//!
//! `Reference` is a frozen copy of the stack as it stood before that
//! change: `tcp_transfer`, `tcp_exchange` and `tcp_exchange_with` each
//! with an MSS loop of their own per direction, `resolve` and
//! `resolve6` as two copies, and the local address picked in
//! `tcp_connect` and `udp_send` separately. Random op sequences drive
//! both stacks: payload sizes at and around the MSS and random ones, v4
//! and v6 connections, repeated and fresh lookups in both families with
//! changing answers, and ops on closed and unknown sockets. The
//! captures must be equal byte for byte, timestamps included, and so
//! must every returned value and socket pair.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use spector_netsim::clock::Clock;
use spector_netsim::packet::{self, tcp_flags, SocketPair, TCP_MSS};
use spector_netsim::pcap::CapturedPacket;
use spector_netsim::{dns, local_ipv6_for, NetStack, SocketId};

#[derive(Debug, Clone)]
struct TcpSocket {
    pair: SocketPair,
    seq: u32,
    peer_seq: u32,
    open: bool,
}

/// The stack before the refactor, reduced to the calls compared here.
struct Reference {
    clock: Clock,
    local_ip: Ipv4Addr,
    next_port: u16,
    next_socket: u64,
    next_dns_id: u16,
    sockets: HashMap<SocketId, TcpSocket>,
    dns_cache: HashMap<String, Ipv4Addr>,
    dns6_cache: HashMap<String, Ipv6Addr>,
    capture: Vec<CapturedPacket>,
    per_packet_micros: u64,
}

impl Reference {
    fn new(clock: Clock, local_ip: Ipv4Addr) -> Self {
        Reference {
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

    fn local_ip6(&self) -> Ipv6Addr {
        local_ipv6_for(self.local_ip)
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_port;
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

    fn resolve(&mut self, domain: &str, ip: Ipv4Addr) -> Ipv4Addr {
        if let Some(&cached) = self.dns_cache.get(domain) {
            return cached;
        }
        let id = self.next_dns_id;
        self.next_dns_id = self.next_dns_id.wrapping_add(1);
        let src_port = self.alloc_port();
        let dns_server = Ipv4Addr::new(10, 0, 2, 3);
        let query_pair = SocketPair::new(self.local_ip, src_port, dns_server, dns::DNS_PORT);
        let query = packet::encode_udp(&query_pair, &dns::encode_query(id, domain));
        self.emit(query);
        let response = packet::encode_udp(
            &query_pair.reversed(),
            &dns::encode_response(id, domain, ip, 300),
        );
        self.emit(response);
        self.dns_cache.insert(domain.to_owned(), ip);
        ip
    }

    fn resolve6(&mut self, domain: &str, ip: Ipv6Addr) -> Ipv6Addr {
        if let Some(&cached) = self.dns6_cache.get(domain) {
            return cached;
        }
        let id = self.next_dns_id;
        self.next_dns_id = self.next_dns_id.wrapping_add(1);
        let src_port = self.alloc_port();
        let dns_server = Ipv4Addr::new(10, 0, 2, 3);
        let query_pair = SocketPair::new(self.local_ip, src_port, dns_server, dns::DNS_PORT);
        let query = packet::encode_udp(
            &query_pair,
            &dns::encode_query_typed(id, domain, dns::QTYPE_AAAA),
        );
        self.emit(query);
        let response = packet::encode_udp(
            &query_pair.reversed(),
            &dns::encode_response(id, domain, ip, 300),
        );
        self.emit(response);
        self.dns6_cache.insert(domain.to_owned(), ip);
        ip
    }

    fn tcp_connect(&mut self, dst_ip: impl Into<IpAddr>, dst_port: u16) -> SocketId {
        let dst_ip = dst_ip.into();
        let src_port = self.alloc_port();
        let src_ip: IpAddr = match dst_ip {
            IpAddr::V4(_) => self.local_ip.into(),
            IpAddr::V6(_) => self.local_ip6().into(),
        };
        let pair = SocketPair::new(src_ip, src_port, dst_ip, dst_port);
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

    fn socket_pair(&self, socket: SocketId) -> Option<SocketPair> {
        self.sockets.get(&socket).map(|s| s.pair)
    }

    fn tcp_transfer(&mut self, socket: SocketId, sent: u64, received: u64) {
        let Some(state) = self.sockets.get(&socket).filter(|s| s.open).cloned() else {
            return;
        };
        let mut state = state;
        let mut remaining = sent;
        while remaining > 0 {
            let chunk = remaining.min(TCP_MSS as u64) as usize;
            let payload = deterministic_payload(state.seq, chunk);
            self.emit(packet::encode_tcp(
                &state.pair,
                state.seq,
                state.peer_seq,
                tcp_flags::PSH | tcp_flags::ACK,
                &payload,
            ));
            state.seq = state.seq.wrapping_add(chunk as u32);
            remaining -= chunk as u64;
        }
        if sent > 0 {
            self.emit(packet::encode_tcp(
                &state.pair.reversed(),
                state.peer_seq,
                state.seq,
                tcp_flags::ACK,
                &[],
            ));
        }
        let mut remaining = received;
        while remaining > 0 {
            let chunk = remaining.min(TCP_MSS as u64) as usize;
            let payload = deterministic_payload(state.peer_seq, chunk);
            self.emit(packet::encode_tcp(
                &state.pair.reversed(),
                state.peer_seq,
                state.seq,
                tcp_flags::PSH | tcp_flags::ACK,
                &payload,
            ));
            state.peer_seq = state.peer_seq.wrapping_add(chunk as u32);
            remaining -= chunk as u64;
        }
        if received > 0 {
            self.emit(packet::encode_tcp(
                &state.pair,
                state.seq,
                state.peer_seq,
                tcp_flags::ACK,
                &[],
            ));
        }
        self.sockets.insert(socket, state);
    }

    fn tcp_exchange(&mut self, socket: SocketId, request: &[u8], received: u64) {
        let Some(state) = self.sockets.get(&socket).filter(|s| s.open).cloned() else {
            return;
        };
        let mut state = state;
        for chunk in request.chunks(TCP_MSS) {
            self.emit(packet::encode_tcp(
                &state.pair,
                state.seq,
                state.peer_seq,
                tcp_flags::PSH | tcp_flags::ACK,
                chunk,
            ));
            state.seq = state.seq.wrapping_add(chunk.len() as u32);
        }
        if !request.is_empty() {
            self.emit(packet::encode_tcp(
                &state.pair.reversed(),
                state.peer_seq,
                state.seq,
                tcp_flags::ACK,
                &[],
            ));
        }
        let response = spector_netsim::http::encode_response_total(received);
        for chunk in response.chunks(TCP_MSS) {
            self.emit(packet::encode_tcp(
                &state.pair.reversed(),
                state.peer_seq,
                state.seq,
                tcp_flags::PSH | tcp_flags::ACK,
                chunk,
            ));
            state.peer_seq = state.peer_seq.wrapping_add(chunk.len() as u32);
        }
        self.emit(packet::encode_tcp(
            &state.pair,
            state.seq,
            state.peer_seq,
            tcp_flags::ACK,
            &[],
        ));
        self.sockets.insert(socket, state);
    }

    fn tcp_exchange_with(&mut self, socket: SocketId, request: &[u8], response: &[u8]) {
        let Some(state) = self.sockets.get(&socket).filter(|s| s.open).cloned() else {
            return;
        };
        let mut state = state;
        for chunk in request.chunks(TCP_MSS) {
            self.emit(packet::encode_tcp(
                &state.pair,
                state.seq,
                state.peer_seq,
                tcp_flags::PSH | tcp_flags::ACK,
                chunk,
            ));
            state.seq = state.seq.wrapping_add(chunk.len() as u32);
        }
        if !request.is_empty() {
            self.emit(packet::encode_tcp(
                &state.pair.reversed(),
                state.peer_seq,
                state.seq,
                tcp_flags::ACK,
                &[],
            ));
        }
        for chunk in response.chunks(TCP_MSS) {
            self.emit(packet::encode_tcp(
                &state.pair.reversed(),
                state.peer_seq,
                state.seq,
                tcp_flags::PSH | tcp_flags::ACK,
                chunk,
            ));
            state.peer_seq = state.peer_seq.wrapping_add(chunk.len() as u32);
        }
        if !response.is_empty() {
            self.emit(packet::encode_tcp(
                &state.pair,
                state.seq,
                state.peer_seq,
                tcp_flags::ACK,
                &[],
            ));
        }
        self.sockets.insert(socket, state);
    }

    fn tcp_close(&mut self, socket: SocketId) {
        let Some(state) = self.sockets.get_mut(&socket).filter(|s| s.open) else {
            return;
        };
        state.open = false;
        let state = state.clone();
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

    fn udp_send(&mut self, dst_ip: impl Into<IpAddr>, dst_port: u16, payload: &[u8]) -> u16 {
        let dst_ip = dst_ip.into();
        let src_ip: IpAddr = match dst_ip {
            IpAddr::V4(_) => self.local_ip.into(),
            IpAddr::V6(_) => self.local_ip6().into(),
        };
        let src_port = self.alloc_port();
        let pair = SocketPair::new(src_ip, src_port, dst_ip, dst_port);
        let frame = packet::encode_udp(&pair, payload);
        self.emit(frame);
        src_port
    }
}

fn deterministic_payload(seed: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed as usize).wrapping_add(i.wrapping_mul(31)) as u8)
        .collect()
}

/// One socket call. Sockets are named by id: ids count up from 1 per
/// connect, so low ids are mostly live, closed ones recur, and 0 and
/// ids past the last connect name no socket.
#[derive(Debug, Clone)]
enum Op {
    Resolve(usize, Ipv4Addr),
    Resolve6(usize, Ipv6Addr),
    Connect(IpAddr, u16),
    Transfer(u64, u64, u64),
    Exchange(u64, Vec<u8>, u64),
    ExchangeWith(u64, Vec<u8>, Vec<u8>),
    Close(u64),
    Udp(IpAddr, u16, Vec<u8>),
}

/// A few names, so lookups repeat in both families.
const DOMAINS: [&str; 4] = ["a.example", "ads.vendor.example", "cdn.example", "x.test"];

/// Payload sizes: empty, one byte, each side of one and two MSS, short
/// and long random ones.
fn size() -> impl Strategy<Value = u64> {
    let mss = TCP_MSS as u64;
    prop_oneof![
        prop::sample::select(vec![0, 1, mss - 1, mss, mss + 1, 2 * mss]),
        0u64..200,
        0u64..5 * mss,
    ]
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    (size(), any::<u8>()).prop_map(|(len, seed)| {
        (0..len)
            .map(|i| seed.wrapping_add((i as u8).wrapping_mul(37)))
            .collect()
    })
}

fn dst() -> impl Strategy<Value = IpAddr> {
    (any::<bool>(), any::<[u8; 16]>()).prop_map(|(v6, raw)| {
        if v6 {
            IpAddr::V6(Ipv6Addr::from(raw))
        } else {
            IpAddr::V4(Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]))
        }
    })
}

fn op() -> impl Strategy<Value = Op> {
    let socket = 0u64..8;
    prop_oneof![
        (0..DOMAINS.len(), any::<[u8; 4]>()).prop_map(|(d, o)| Op::Resolve(d, Ipv4Addr::from(o))),
        (0..DOMAINS.len(), any::<[u8; 16]>()).prop_map(|(d, o)| Op::Resolve6(d, Ipv6Addr::from(o))),
        (dst(), any::<u16>()).prop_map(|(ip, port)| Op::Connect(ip, port)),
        (socket.clone(), size(), size()).prop_map(|(s, a, b)| Op::Transfer(s, a, b)),
        (socket.clone(), bytes(), size()).prop_map(|(s, req, n)| Op::Exchange(s, req, n)),
        (socket.clone(), bytes(), bytes())
            .prop_map(|(s, req, resp)| Op::ExchangeWith(s, req, resp)),
        socket.prop_map(Op::Close),
        (dst(), any::<u16>(), bytes()).prop_map(|(ip, port, p)| Op::Udp(ip, port, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn captures_match_the_frozen_stack(ops in prop::collection::vec(op(), 1..40)) {
        let local = Ipv4Addr::new(10, 0, 2, 15);
        let mut stack = NetStack::new(Clock::new(), local);
        let mut frozen = Reference::new(Clock::new(), local);
        let mut checked = 0;
        for (at, op) in ops.iter().enumerate() {
            match op {
                Op::Resolve(d, ip) => {
                    prop_assert_eq!(stack.resolve(DOMAINS[*d], *ip), frozen.resolve(DOMAINS[*d], *ip));
                }
                Op::Resolve6(d, ip) => {
                    prop_assert_eq!(stack.resolve6(DOMAINS[*d], *ip), frozen.resolve6(DOMAINS[*d], *ip));
                }
                Op::Connect(ip, port) => {
                    prop_assert_eq!(stack.tcp_connect(*ip, *port), frozen.tcp_connect(*ip, *port));
                }
                Op::Transfer(s, sent, received) => {
                    stack.tcp_transfer(SocketId(*s), *sent, *received);
                    frozen.tcp_transfer(SocketId(*s), *sent, *received);
                }
                Op::Exchange(s, request, received) => {
                    stack.tcp_exchange(SocketId(*s), request, *received);
                    frozen.tcp_exchange(SocketId(*s), request, *received);
                }
                Op::ExchangeWith(s, request, response) => {
                    stack.tcp_exchange_with(SocketId(*s), request, response);
                    frozen.tcp_exchange_with(SocketId(*s), request, response);
                }
                Op::Close(s) => {
                    stack.tcp_close(SocketId(*s));
                    frozen.tcp_close(SocketId(*s));
                }
                Op::Udp(ip, port, payload) => {
                    prop_assert_eq!(stack.udp_send(*ip, *port, payload), frozen.udp_send(*ip, *port, payload));
                }
            }
            prop_assert_eq!(stack.captured_count(), frozen.capture.len(), "packets after op {}", at);
            prop_assert!(
                stack.capture()[checked..] == frozen.capture[checked..],
                "captures part at op {} ({:?})",
                at,
                op
            );
            checked = frozen.capture.len();
            prop_assert_eq!(stack.clock().now_micros(), frozen.clock.now_micros());
        }
        for s in 0..10 {
            prop_assert_eq!(stack.socket_pair(SocketId(s)), frozen.socket_pair(SocketId(s)));
        }
    }
}
