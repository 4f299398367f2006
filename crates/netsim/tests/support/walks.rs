//! The per-view capture walks: the flow table and the DNS map, each
//! rebuilt by a decode pass of its own over a finished capture. They
//! drive the same state machines as `CaptureTables::ingest` but share
//! none of its lane routing, so tests compare the one-pass index and
//! the live shards' frame step against them.
//!
//! Included with `#[path]` by netsim's unit tests (through
//! `extern crate self as spector_netsim`), the netsim proptests and
//! the workspace's `tests/end_to_end.rs` and
//! `tests/oracle_equivalence.rs`.
#![allow(dead_code)]

use spector_netsim::flows::{DnsMap, FlowTable, FlowTableBuilder};
use spector_netsim::packet::{decode_frame_ref, TransportRef};
use spector_netsim::pcap::CapturedPacket;

/// Reassembles the TCP flows of `packets`. Packets that fail to decode,
/// or that are not TCP, are skipped (the paper ignores non-TCP traffic,
/// §III-E).
pub fn flow_table(packets: &[CapturedPacket]) -> FlowTable {
    let mut builder = FlowTableBuilder::default();
    for packet in packets {
        let Ok(frame) = decode_frame_ref(&packet.data) else {
            continue;
        };
        let TransportRef::Tcp { flags, payload, .. } = frame.transport else {
            continue;
        };
        builder.ingest(
            packet.timestamp_micros,
            frame.pair,
            flags,
            payload,
            frame.wire_len,
        );
    }
    builder.finish()
}

/// Builds the address map from the DNS traffic (UDP port 53) of
/// `packets`: every UDP datagram is offered to [`DnsMap::ingest`].
pub fn dns_map(packets: &[CapturedPacket]) -> DnsMap {
    let mut map = DnsMap::default();
    for packet in packets {
        let Ok(frame) = decode_frame_ref(&packet.data) else {
            continue;
        };
        let TransportRef::Udp { payload } = frame.transport else {
            continue;
        };
        map.ingest(&frame.pair, payload);
    }
    map
}
