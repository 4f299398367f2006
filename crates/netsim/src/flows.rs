//! Offline capture analysis: TCP flow reassembly and DNS recovery.
//!
//! This is the pipeline side of §III-E: "we calculate the data transfer
//! size after the connection is closed, which is the sum of all TCP
//! packets within the same stream (i.e., the packets which possess the
//! same connection parameters as the socket itself)". Because connection
//! parameters are only unique *at a given point in time*, the table
//! splits packets sharing a 4-tuple into stream *epochs* delimited by
//! SYN packets, so sequentially-reused ports are counted separately —
//! the paper's "stack traces of two different sockets with the same
//! connection endpoint are counted separately".

use std::collections::HashMap;
use std::net::IpAddr;

use crate::dns::parse_message;
use crate::packet::{canonical_ip, tcp_flags, SocketPair};

/// Byte counters for one logical request/response stream inside a
/// connection epoch — the unit pooled (keep-alive) attribution works
/// at. Every packet of the epoch lands in exactly one stream, so the
/// per-stream counters always sum to the epoch totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStat {
    /// Wire bytes initiator → responder within this stream.
    pub sent_wire_bytes: u64,
    /// Wire bytes responder → initiator within this stream.
    pub recv_wire_bytes: u64,
    /// Payload bytes initiator → responder within this stream.
    pub sent_payload_bytes: u64,
    /// Payload bytes responder → initiator within this stream.
    pub recv_payload_bytes: u64,
}

/// One reassembled TCP stream epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpFlow {
    /// 4-tuple from the initiator's perspective (SYN sender is `src`).
    pub pair: SocketPair,
    /// Timestamp of the first packet (the SYN), microseconds.
    pub start_micros: u64,
    /// Timestamp of the last packet observed in this epoch.
    pub end_micros: u64,
    /// Total wire bytes initiator → responder (all packets, as the
    /// paper sums whole packets rather than payloads).
    pub sent_wire_bytes: u64,
    /// Total wire bytes responder → initiator.
    pub recv_wire_bytes: u64,
    /// Payload-only bytes initiator → responder.
    pub sent_payload_bytes: u64,
    /// Payload-only bytes responder → initiator.
    pub recv_payload_bytes: u64,
    /// Number of packets in the epoch.
    pub packet_count: usize,
    /// First initiator→responder payload bytes (capped), enough to see
    /// an HTTP request head — what header-based classifiers inspect.
    pub first_payload: Vec<u8>,
    /// Per-stream byte split: a new stream opens each time an
    /// initiator→responder payload follows a responder→initiator
    /// payload (request after response — the keep-alive reuse
    /// signature). Plain one-request connections have exactly one
    /// stream whose counters equal the epoch totals.
    pub streams: Vec<StreamStat>,
}

/// Cap on the stored leading payload (covers any realistic HTTP head).
pub const FIRST_PAYLOAD_CAP: usize = 1_024;

impl TcpFlow {
    /// Total wire bytes in both directions.
    pub fn total_wire_bytes(&self) -> u64 {
        self.sent_wire_bytes + self.recv_wire_bytes
    }

    /// Number of logical request/response streams observed in this
    /// epoch (at least 1 once any packet landed).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Byte volumes `(sent_wire, recv_wire, sent_payload, recv_payload)`
    /// for the given stream ordinal, or the whole-epoch totals when
    /// `ordinal` is `None` — the single volume-resolution rule shared by
    /// the offline pipeline and the live joiner so both attribute
    /// stream-scoped socket reports identically. An ordinal beyond the
    /// observed stream count resolves to zero volumes (the report
    /// claimed a stream the wire never showed).
    pub fn stream_volumes(&self, ordinal: Option<u32>) -> (u64, u64, u64, u64) {
        match ordinal {
            None => (
                self.sent_wire_bytes,
                self.recv_wire_bytes,
                self.sent_payload_bytes,
                self.recv_payload_bytes,
            ),
            Some(k) => match self.streams.get(k as usize) {
                Some(s) => (
                    s.sent_wire_bytes,
                    s.recv_wire_bytes,
                    s.sent_payload_bytes,
                    s.recv_payload_bytes,
                ),
                None => (0, 0, 0, 0),
            },
        }
    }
}

/// All TCP flows recovered from a capture, addressable by 4-tuple.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowTable {
    flows: Vec<TcpFlow>,
    /// canonical pair -> indices of flow epochs in time order.
    by_pair: HashMap<SocketPair, Vec<usize>>,
    /// Epochs opened by a mid-stream packet with no preceding SYN.
    synthesized: usize,
}

/// Incremental [`FlowTable`] construction: one decoded TCP segment at a
/// time, in capture order. This is the state machine behind the
/// per-frame step
/// [`CaptureTables::ingest`](crate::capture::CaptureTables::ingest),
/// which the offline capture index and the streaming `spector-live`
/// joiners share; the joiners read the partial table between segments
/// via [`table`](Self::table).
#[derive(Debug, Clone, Default)]
pub struct FlowTableBuilder {
    table: FlowTable,
    /// canonical pair -> index of currently-open epoch in `table.flows`.
    open: HashMap<SocketPair, usize>,
    /// Per-epoch (aligned with `table.flows`): a responder payload has
    /// been seen since the last initiator payload, so the next
    /// initiator payload opens a new stream.
    stream_gate: Vec<bool>,
}

impl FlowTableBuilder {
    /// Feeds one decoded TCP segment. `payload` is borrowed — only the
    /// capped leading bytes are copied into the flow record.
    pub fn ingest(
        &mut self,
        timestamp_micros: u64,
        pair: SocketPair,
        flags: u8,
        payload: &[u8],
        wire_len: usize,
    ) {
        let canonical = pair.canonical();
        let is_syn = flags & tcp_flags::SYN != 0 && flags & tcp_flags::ACK == 0;
        let payload_len = payload.len();
        let idx = match self.open.get(&canonical) {
            Some(&idx) if !is_syn => idx,
            // A fresh SYN starts a new epoch for this 4-tuple. A
            // mid-stream packet without a preceding SYN (capture started
            // mid-connection) opens an epoch anyway so the bytes are not
            // lost; such epochs are tallied as synthesized, since their
            // totals rest on partial evidence.
            _ => {
                if !is_syn {
                    self.table.synthesized += 1;
                }
                let idx = self.table.flows.len();
                self.table.flows.push(TcpFlow {
                    pair,
                    start_micros: timestamp_micros,
                    end_micros: timestamp_micros,
                    sent_wire_bytes: 0,
                    recv_wire_bytes: 0,
                    sent_payload_bytes: 0,
                    recv_payload_bytes: 0,
                    packet_count: 0,
                    first_payload: Vec::new(),
                    streams: vec![StreamStat::default()],
                });
                self.table.by_pair.entry(canonical).or_default().push(idx);
                self.open.insert(canonical, idx);
                self.stream_gate.push(false);
                idx
            }
        };
        let flow = &mut self.table.flows[idx];
        flow.end_micros = timestamp_micros;
        flow.packet_count += 1;
        if pair == flow.pair {
            flow.sent_wire_bytes += wire_len as u64;
            flow.sent_payload_bytes += payload_len as u64;
            if payload_len > 0 && self.stream_gate[idx] {
                // Request after response: keep-alive reuse of the
                // connection — open the next stream.
                flow.streams.push(StreamStat::default());
                self.stream_gate[idx] = false;
            }
            let stream = flow.streams.last_mut().expect("epoch has a stream");
            stream.sent_wire_bytes += wire_len as u64;
            stream.sent_payload_bytes += payload_len as u64;
            if flow.first_payload.len() < FIRST_PAYLOAD_CAP && payload_len > 0 {
                let room = FIRST_PAYLOAD_CAP - flow.first_payload.len();
                flow.first_payload
                    .extend_from_slice(&payload[..payload_len.min(room)]);
            }
        } else {
            flow.recv_wire_bytes += wire_len as u64;
            flow.recv_payload_bytes += payload_len as u64;
            if payload_len > 0 {
                self.stream_gate[idx] = true;
            }
            let stream = flow.streams.last_mut().expect("epoch has a stream");
            stream.recv_wire_bytes += wire_len as u64;
            stream.recv_payload_bytes += payload_len as u64;
        }
    }

    /// The table as built so far. Epochs still receiving segments have
    /// running byte counters; consumers that need settled totals should
    /// read again after the stream ends.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Finalizes the table.
    pub fn finish(self) -> FlowTable {
        self.table
    }
}

impl FlowTable {
    /// All flows in first-packet order.
    pub fn flows(&self) -> &[TcpFlow] {
        &self.flows
    }

    /// Number of distinct stream epochs.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Returns `true` when no flows were reassembled.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Number of epochs opened without a SYN (capture started or
    /// resumed mid-connection): flows whose byte totals rest on
    /// partial evidence.
    pub fn synthesized_epochs(&self) -> usize {
        self.synthesized
    }

    /// Flow epochs matching the given 4-tuple (either direction), in
    /// time order. Socket reports are joined against this: the epoch
    /// whose start time is closest below the report time wins.
    pub fn matching(&self, pair: &SocketPair) -> impl Iterator<Item = &TcpFlow> {
        self.by_pair
            .get(&pair.canonical())
            .into_iter()
            .flatten()
            .map(move |&idx| &self.flows[idx])
    }

    /// The flow epoch active at `time_micros` for the given 4-tuple:
    /// the latest epoch that started at or before that time (falling
    /// back to the earliest epoch if the report predates all packets,
    /// which can happen because the report is sent right after
    /// `connect`).
    pub fn lookup(&self, pair: &SocketPair, time_micros: u64) -> Option<&TcpFlow> {
        self.lookup_epoch(pair, time_micros)
            .map(|idx| &self.flows[idx])
    }

    /// Index into [`flows`](Self::flows) of the epoch
    /// [`lookup`](Self::lookup) would return — a stable identity for consumers
    /// that need to deduplicate several reports joining to one epoch.
    pub fn lookup_epoch(&self, pair: &SocketPair, time_micros: u64) -> Option<usize> {
        let indices = self.by_pair.get(&pair.canonical())?;
        let mut best: Option<usize> = None;
        for &idx in indices {
            if self.flows[idx].start_micros <= time_micros {
                best = Some(idx);
            }
        }
        best.or_else(|| indices.first().copied())
    }
}

/// IP→domain map recovered from DNS responses in a capture (§III-F).
///
/// When several domains resolve to one address (CDN fronting), the most
/// recent response wins at lookup time — the map tracks response order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DnsMap {
    by_ip: HashMap<IpAddr, String>,
    /// Total DNS datagrams seen (queries + responses).
    pub dns_packet_count: usize,
}

impl DnsMap {
    /// Feeds one decoded UDP datagram: non-DNS ports are ignored, DNS
    /// datagrams are counted, and A answers from responses are merged
    /// (latest response wins). The per-frame step
    /// ([`CaptureTables::ingest`](crate::capture::CaptureTables::ingest))
    /// grows the map through this, one datagram at a time.
    pub fn ingest(&mut self, pair: &SocketPair, payload: &[u8]) {
        if pair.src_port != crate::dns::DNS_PORT && pair.dst_port != crate::dns::DNS_PORT {
            return;
        }
        self.dns_packet_count += 1;
        let Ok(message) = parse_message(payload) else {
            return;
        };
        if !message.is_response {
            return;
        }
        for (name, addr, _ttl) in message.answers {
            // Keyed canonically so a v4-mapped AAAA answer and the v4
            // flow endpoint it produces resolve to the same entry.
            self.by_ip.insert(canonical_ip(addr), name);
        }
    }

    /// Domain most recently resolved to `ip` (canonicalized), if
    /// observed. Accepts `Ipv4Addr`, `Ipv6Addr`, or `IpAddr`.
    pub fn domain_for(&self, ip: impl Into<IpAddr>) -> Option<&str> {
        self.by_ip.get(&canonical_ip(ip.into())).map(String::as_str)
    }

    /// Number of distinct addresses with a known domain.
    pub fn len(&self) -> usize {
        self.by_ip.len()
    }

    /// Returns `true` when no DNS responses were observed.
    pub fn is_empty(&self) -> bool {
        self.by_ip.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::clock::Clock;
    use crate::pcap::CapturedPacket;
    use crate::stack::NetStack;
    use crate::walks::{dns_map, flow_table};

    fn run_one_connection() -> (Vec<CapturedPacket>, SocketPair) {
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("cdn.example.net", Ipv4Addr::new(93, 184, 216, 34));
        let sock = stack.tcp_connect(ip, 443);
        stack.tcp_transfer(sock, 700, 40_000);
        stack.tcp_close(sock);
        let pair = stack.socket_pair(sock).unwrap();
        (stack.into_capture(), pair)
    }

    #[test]
    fn reassembles_single_flow() {
        let (capture, pair) = run_one_connection();
        let table = flow_table(&capture);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        let flow = &table.flows()[0];
        assert_eq!(flow.pair, pair);
        assert_eq!(flow.sent_payload_bytes, 700);
        assert_eq!(flow.recv_payload_bytes, 40_000);
        // Wire bytes include headers, so they strictly exceed payload.
        assert!(flow.sent_wire_bytes > flow.sent_payload_bytes);
        assert!(flow.recv_wire_bytes > flow.recv_payload_bytes);
        assert!(flow.end_micros > flow.start_micros);
        assert_eq!(
            flow.total_wire_bytes(),
            flow.sent_wire_bytes + flow.recv_wire_bytes
        );
    }

    #[test]
    fn lookup_by_either_direction() {
        let (capture, pair) = run_one_connection();
        let table = flow_table(&capture);
        assert!(table.lookup(&pair, 10_000_000).is_some());
        assert!(table.lookup(&pair.reversed(), 10_000_000).is_some());
        assert_eq!(table.matching(&pair).count(), 1);
        // The epoch index names the same flow `lookup` returns.
        let idx = table.lookup_epoch(&pair, 10_000_000).unwrap();
        assert_eq!(Some(&table.flows()[idx]), table.lookup(&pair, 10_000_000));
        assert_eq!(table.lookup_epoch(&pair, 0), Some(idx));
    }

    #[test]
    fn sequential_port_reuse_counts_separately() {
        // Two connections forced onto the same 4-tuple must become two
        // epochs.
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let dst = Ipv4Addr::new(1, 2, 3, 4);
        let a = stack.tcp_connect(dst, 80);
        stack.tcp_transfer(a, 10, 100);
        stack.tcp_close(a);
        let t_between = stack.clock().now_micros();
        // Rewind the port allocator to force exact 4-tuple reuse.
        let pair_a = stack.socket_pair(a).unwrap();
        // (We reproduce reuse by opening sockets until the port wraps in
        // unit form: directly manipulate via a fresh stack replay.)
        drop(stack);
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let a = stack.tcp_connect(dst, 80);
        stack.tcp_transfer(a, 10, 100);
        stack.tcp_close(a);
        // Force the next socket onto the same source port:
        let reuse_capture = {
            let mut packets = stack.capture().to_vec();
            // Duplicate the whole epoch, shifted in time: identical
            // 4-tuple, new SYN => must be a second epoch.
            let shift = 1_000_000;
            let mut dup: Vec<CapturedPacket> = stack
                .capture()
                .iter()
                .map(|p| CapturedPacket {
                    timestamp_micros: p.timestamp_micros + shift,
                    data: p.data.clone(),
                })
                .collect();
            packets.append(&mut dup);
            packets
        };
        let table = flow_table(&reuse_capture);
        assert_eq!(table.len(), 2);
        let pair = stack.socket_pair(a).unwrap();
        assert_eq!(table.matching(&pair).count(), 2);
        // Epoch selection by time: early lookup gets epoch 1, late gets 2.
        let early = table.lookup(&pair, 0).unwrap();
        let late = table.lookup(&pair, 2_000_000).unwrap();
        assert!(early.start_micros < late.start_micros);
        let _ = (t_between, pair_a);
    }

    #[test]
    fn dns_map_recovers_domains() {
        let (capture, pair) = run_one_connection();
        let map = dns_map(&capture);
        assert_eq!(map.len(), 1);
        assert!(!map.is_empty());
        assert_eq!(map.domain_for(pair.dst_ip), Some("cdn.example.net"));
        assert_eq!(map.domain_for(Ipv4Addr::new(8, 8, 8, 8)), None);
        assert_eq!(map.dns_packet_count, 2);
    }

    #[test]
    fn non_tcp_and_noise_skipped() {
        let mut capture = run_one_connection().0;
        capture.push(CapturedPacket {
            timestamp_micros: 99,
            data: vec![0xde, 0xad],
        });
        let table = flow_table(&capture);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn mid_stream_capture_still_counted() {
        let (capture, _) = run_one_connection();
        // Drop the handshake (first 5 packets incl. DNS): data must
        // still be attributed to a synthesized epoch.
        let table = flow_table(&capture[5..]);
        assert_eq!(table.len(), 1);
        assert!(table.flows()[0].total_wire_bytes() > 0);
    }

    #[test]
    fn empty_capture() {
        let table = flow_table(&[]);
        assert!(table.is_empty());
        let map = dns_map(&[]);
        assert!(map.is_empty());
    }
}
