//! The per-frame step and single-pass capture indexing.
//!
//! The offline pipeline needs three views of one capture: the TCP flow
//! table (§III-E), the DNS address map (§III-F), and the supervisor's
//! UDP report datagrams (§II-B2). [`CaptureTables::ingest`] is the one
//! place a frame is split between them: it decodes the frame once with
//! [`decode_frame_ref`], grows the flow table or the DNS map, and
//! returns the frame's [`Lane`] — or, for a frame that does not decode,
//! its [`FrameErrorKind`]. A datagram addressed to the collector port
//! is the collector's alone: it is handed back undecoded, borrowed from
//! the frame bytes, and never offered to the DNS map.
//!
//! [`CaptureIndex::build`] is a loop of that step over a finished
//! capture; each of the streaming engine's (`spector-live`) per-run
//! joiners calls the same step on frames as they arrive, after the
//! engine's producer has routed them with [`peek_frame`] — the same
//! decoder's header walk without the TCP checksum. The lanes are
//! disjoint because the live engine routes a collector datagram to one
//! shard but broadcasts other UDP to all of them: a collector datagram
//! fed to the DNS map would make a shard's map depend on which shard
//! owned it. The index is
//! behaviorally identical to the independent passes
//! ([`FlowTable::from_capture`], [`DnsMap::from_capture`], and a UDP
//! report scan) — the same packet order feeds the same state machines —
//! except for a datagram sent from port 53 to the collector port, which
//! the DNS-only pass alone would count.
//!
//! [`peek_frame`]: crate::packet::peek_frame

use crate::flows::{DnsMap, FlowTable, FlowTableBuilder};
use crate::packet::{decode_frame_ref, FrameErrorCounts, FrameErrorKind, SocketPair, TransportRef};
use crate::pcap::CapturedPacket;

/// Where [`CaptureTables::ingest`] put one decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane<'a> {
    /// A TCP segment, now part of the flow table.
    Tcp(SocketPair),
    /// A UDP datagram not addressed to the collector, offered to the
    /// DNS map (which keeps only port-53 traffic).
    Udp(SocketPair),
    /// The payload of a UDP datagram addressed to the collector port:
    /// an undecoded supervisor record, for the hooks layer to decode.
    Collector(&'a [u8]),
}

/// The flow table and DNS map of one capture, grown one frame at a time
/// in capture order. Between frames they are the views of the capture
/// so far.
#[derive(Debug, Clone, Default)]
pub struct CaptureTables {
    flows: FlowTableBuilder,
    dns: DnsMap,
}

impl CaptureTables {
    /// The per-frame step: decodes `raw` once and routes it to its lane,
    /// growing the flow table (TCP) or the DNS map (other UDP). A frame
    /// that fails to decode changes nothing and yields its
    /// classification — a capture is untrusted input.
    pub fn ingest<'a>(
        &mut self,
        timestamp_micros: u64,
        raw: &'a [u8],
        collector_port: u16,
    ) -> Result<Lane<'a>, FrameErrorKind> {
        let frame = decode_frame_ref(raw).map_err(|error| error.kind)?;
        Ok(match frame.transport {
            TransportRef::Tcp { flags, payload, .. } => {
                self.flows
                    .ingest(timestamp_micros, frame.pair, flags, payload, frame.wire_len);
                Lane::Tcp(frame.pair)
            }
            TransportRef::Udp { payload } if frame.pair.dst_port == collector_port => {
                Lane::Collector(payload)
            }
            TransportRef::Udp { payload } => {
                self.dns.ingest(&frame.pair, payload);
                Lane::Udp(frame.pair)
            }
        })
    }

    /// The flow table so far. Epochs still receiving segments have
    /// running byte counters.
    pub fn flows(&self) -> &FlowTable {
        self.flows.table()
    }

    /// The DNS map so far.
    pub fn dns(&self) -> &DnsMap {
        &self.dns
    }
}

/// Every view of a capture the offline pipeline consumes, built in one
/// decode pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureIndex<'a> {
    /// Reassembled TCP stream epochs.
    pub flows: FlowTable,
    /// IP → domain map from observed DNS responses.
    pub dns: DnsMap,
    /// Raw payloads of UDP datagrams addressed to the collection
    /// server's port, in capture order — undecoded supervisor reports,
    /// borrowed from the capture bytes. The hooks layer owns the report
    /// wire format and decodes these.
    pub report_payloads: Vec<&'a [u8]>,
    /// Per-classification tallies of packets that failed frame decode.
    /// The skipped packets were always invisible to the views above;
    /// the tallies make the gap measurable for degraded-mode
    /// accounting.
    pub frame_errors: FrameErrorCounts,
}

impl<'a> CaptureIndex<'a> {
    /// Runs [`CaptureTables::ingest`] over every packet, keeping the
    /// collector payloads and tallying the frames that fail to decode.
    pub fn build(packets: &'a [CapturedPacket], collector_port: u16) -> Self {
        let mut tables = CaptureTables::default();
        let mut report_payloads: Vec<&'a [u8]> = Vec::new();
        let mut frame_errors = FrameErrorCounts::default();
        for packet in packets {
            match tables.ingest(packet.timestamp_micros, &packet.data, collector_port) {
                Ok(Lane::Collector(payload)) => report_payloads.push(payload),
                Ok(Lane::Tcp(_) | Lane::Udp(_)) => {}
                Err(kind) => frame_errors.record(kind),
            }
        }
        CaptureIndex {
            flows: tables.flows.finish(),
            dns: tables.dns,
            report_payloads,
            frame_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::clock::Clock;
    use crate::packet::peek_frame;
    use crate::stack::NetStack;

    const COLLECTOR_PORT: u16 = 47_000;

    fn busy_capture() -> Vec<CapturedPacket> {
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("cdn.example.net", Ipv4Addr::new(93, 184, 216, 34));
        let sock = stack.tcp_connect(ip, 443);
        stack.udp_send(Ipv4Addr::new(10, 0, 2, 2), COLLECTOR_PORT, b"report-ish");
        stack.tcp_transfer(sock, 700, 40_000);
        stack.tcp_close(sock);
        let ip2 = stack.resolve("ads.example.com", Ipv4Addr::new(203, 0, 113, 9));
        let sock2 = stack.tcp_connect(ip2, 80);
        stack.udp_send(Ipv4Addr::new(10, 0, 2, 2), COLLECTOR_PORT, b"second");
        stack.udp_send(Ipv4Addr::new(10, 0, 2, 2), 9_999, b"not-collector");
        stack.tcp_transfer(sock2, 64, 1_500);
        stack.tcp_close(sock2);
        let mut capture = stack.into_capture();
        capture.push(CapturedPacket {
            timestamp_micros: 1,
            data: vec![0xba, 0xad],
        });
        capture
    }

    #[test]
    fn single_pass_matches_three_passes() {
        let capture = busy_capture();
        let index = CaptureIndex::build(&capture, COLLECTOR_PORT);
        assert_eq!(index.flows, FlowTable::from_capture(&capture));
        assert_eq!(index.dns, DnsMap::from_capture(&capture));

        // Reference report scan: decode every packet again, keep UDP
        // payloads addressed to the collector port.
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for packet in &capture {
            let Ok(frame) = decode_frame_ref(&packet.data) else {
                continue;
            };
            if let TransportRef::Udp { payload } = frame.transport {
                if frame.pair.dst_port == COLLECTOR_PORT {
                    expected.push(payload.to_vec());
                }
            }
        }
        assert_eq!(index.report_payloads.len(), 2);
        // The trailing two-byte garbage packet is counted, classified.
        assert_eq!(index.frame_errors.truncated, 1);
        assert_eq!(index.frame_errors.total(), 1);
        assert_eq!(
            index
                .report_payloads
                .iter()
                .map(|p| p.to_vec())
                .collect::<Vec<_>>(),
            expected
        );
    }

    /// The collector's lane is its own even for DNS-shaped traffic: a
    /// DNS answer addressed to the collector port never reaches the
    /// DNS map, while the same answer on any other port does.
    #[test]
    fn collector_datagrams_never_reach_the_dns_map() {
        let answer = crate::dns::encode_response(1, "cdn.example.net", [93, 184, 216, 34], 60);
        let resolver = Ipv4Addr::new(10, 0, 2, 3);
        let app = Ipv4Addr::new(10, 0, 2, 15);
        let to_collector = SocketPair::new(resolver, 53, app, COLLECTOR_PORT);
        let to_app = SocketPair::new(resolver, 53, app, 40_000);
        let mut tables = CaptureTables::default();
        let raw = crate::packet::encode_udp(&to_collector, &answer);
        assert_eq!(
            tables.ingest(1, &raw, COLLECTOR_PORT),
            Ok(Lane::Collector(answer.as_slice()))
        );
        assert_eq!(tables.dns().dns_packet_count, 0);
        let raw = crate::packet::encode_udp(&to_app, &answer);
        assert_eq!(
            tables.ingest(2, &raw, COLLECTOR_PORT),
            Ok(Lane::Udp(to_app))
        );
        assert_eq!(
            tables.dns().domain_for(Ipv4Addr::new(93, 184, 216, 34)),
            Some("cdn.example.net")
        );
    }

    /// The live shards' feed — one frame at a time through the per-frame
    /// step, the tables read back between frames — reproduces the batch
    /// views.
    #[test]
    fn event_stream_reproduces_batch_views() {
        let capture = busy_capture();
        let mut tables = CaptureTables::default();
        for packet in &capture {
            let _ = tables.ingest(packet.timestamp_micros, &packet.data, COLLECTOR_PORT);
        }
        assert_eq!(*tables.flows(), FlowTable::from_capture(&capture));
        assert_eq!(*tables.dns(), DnsMap::from_capture(&capture));
    }

    /// The producer's routing peek is the decode minus the TCP checksum:
    /// on every frame of a capture it returns the decoded frame, and it
    /// fails exactly where the decode does.
    #[test]
    fn peek_agrees_with_full_decode_on_every_frame() {
        for packet in &busy_capture() {
            assert_eq!(
                peek_frame(&packet.data),
                decode_frame_ref(&packet.data).ok()
            );
        }
    }

    #[test]
    fn empty_capture() {
        let index = CaptureIndex::build(&[], COLLECTOR_PORT);
        assert!(index.flows.is_empty());
        assert!(index.dns.is_empty());
        assert!(index.report_payloads.is_empty());
        assert_eq!(index.frame_errors.total(), 0);
    }
}
