//! The engine's shard key: `(run, canonical 4-tuple)`.
//!
//! A campaign streams many apps through one engine, and the simulated
//! emulators are deterministic — different runs reuse identical
//! ephemeral ports — so the 4-tuple alone is not a safe join key
//! across apps. `(run, canonical 4-tuple)` is: TCP segments and the
//! reports describing them hash to the same shard, which is where the
//! run's joiner for that pair lives.

use spector_netsim::SocketPair;

/// Shard routing: stable hash of `(run, canonical pair)` reduced to a
/// shard index. Uses an FNV-1a over the tuple's bytes so the mapping
/// is identical across processes and platforms (no `RandomState`).
pub fn shard_of(run: u32, pair: &SocketPair, shards: usize) -> usize {
    let canonical = pair.canonical();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    // Per-family octet feed: a canonical V4 endpoint contributes exactly
    // the 4 bytes the pre-dual-stack hash consumed, so every legacy
    // (pure-IPv4) pair keeps its historical shard assignment; genuine V6
    // endpoints contribute their 16 bytes.
    let feed_ip = |ip: std::net::IpAddr, feed: &mut dyn FnMut(u8)| match ip {
        std::net::IpAddr::V4(v4) => {
            for byte in v4.octets() {
                feed(byte);
            }
        }
        std::net::IpAddr::V6(v6) => {
            for byte in v6.octets() {
                feed(byte);
            }
        }
    };
    for byte in run.to_be_bytes() {
        feed(byte);
    }
    feed_ip(canonical.src_ip, &mut feed);
    for byte in canonical.src_port.to_be_bytes() {
        feed(byte);
    }
    feed_ip(canonical.dst_ip, &mut feed);
    for byte in canonical.dst_port.to_be_bytes() {
        feed(byte);
    }
    (hash % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use spector_dex::sha256::Sha256;
    use spector_hooks::{SocketReport, SupervisorConfig};
    use spector_netsim::pcap::CapturedPacket;
    use spector_netsim::{CaptureIndex, Clock, NetStack};

    use super::*;
    use crate::batch::{classify_route, Route};

    fn capture_with_everything() -> (Vec<CapturedPacket>, SocketPair, u16) {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("cdn.example.net", Ipv4Addr::new(93, 184, 216, 34));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        let report = SocketReport {
            stream: None,
            apk_sha256: Sha256::digest(b"apk"),
            pair,
            timestamp_micros: stack.clock().now_micros(),
            frames: vec!["com.sdk.Net.call".into()],
        };
        stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        // Noise on the collector port: must fall back, not mis-lane.
        stack.udp_send(config.collector_ip, config.collector_port, b"not a report");
        stack.tcp_transfer(sock, 200, 4_000);
        stack.tcp_close(sock);
        (stack.into_capture(), pair, config.collector_port)
    }

    /// The producer's routes partition a capture the way the offline
    /// index does: TCP segments and valid reports route by pair, the
    /// DNS lane broadcasts, and the noise datagram falls back.
    #[test]
    fn ingress_classification_matches_offline_partition() {
        let (capture, _, port) = capture_with_everything();
        let routes: Vec<Route> = capture
            .iter()
            .map(|packet| classify_route(&packet.data, port))
            .collect();
        let count = |wanted: fn(&Route) -> bool| routes.iter().filter(|r| wanted(r)).count();
        let index = CaptureIndex::build(&capture, port);
        let tcp_packets: usize = index.flows.flows().iter().map(|f| f.packet_count).sum();
        assert!(tcp_packets >= 3, "handshake at minimum");
        assert_eq!(count(|r| matches!(r, Route::Pair(_))), tcp_packets + 1);
        assert_eq!(
            count(|r| matches!(r, Route::Broadcast)),
            index.dns.dns_packet_count
        );
        assert_eq!(
            count(|r| matches!(r, Route::Fallback)),
            1,
            "only the noise datagram is unroutable"
        );
    }

    #[test]
    fn report_routes_to_its_flows_shard() {
        let (capture, pair, port) = capture_with_everything();
        let shards: Vec<usize> = capture
            .iter()
            .filter_map(|packet| match classify_route(&packet.data, port) {
                Route::Pair(routed) if routed.canonical() == pair.canonical() => {
                    Some(shard_of(0, &routed, 8))
                }
                _ => None,
            })
            .collect();
        // Both directions of every TCP segment of the flow, plus its
        // report datagram (routed by the embedded pair), land together.
        assert!(shards.len() >= 4, "handshake plus the report");
        assert!(shards.iter().all(|&shard| shard == shard_of(0, &pair, 8)));
    }

    #[test]
    fn same_pair_different_run_can_shard_apart() {
        let pair = SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15),
            50_000,
            Ipv4Addr::new(93, 184, 216, 34),
            443,
        );
        let shards: Vec<usize> = (0..64).map(|run| shard_of(run, &pair, 8)).collect();
        let distinct: std::collections::HashSet<usize> = shards.iter().copied().collect();
        assert!(distinct.len() > 1, "run id must perturb the routing hash");
        // Direction-independence: both wire directions land together.
        assert_eq!(shard_of(3, &pair, 8), shard_of(3, &pair.reversed(), 8));
    }
}
