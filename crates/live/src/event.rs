//! The engine's shard key: `(run, canonical 4-tuple)`.
//!
//! A campaign streams many apps through one engine, and the simulated
//! emulators are deterministic — different runs reuse identical
//! ephemeral ports — so the 4-tuple alone is not a safe join key
//! across apps. `(run, canonical 4-tuple)` is: TCP segments and the
//! reports describing them hash to the same shard, which is where the
//! run's joiner for that pair lives.

use std::net::IpAddr;

use spector_netsim::SocketPair;

/// Shard routing: stable hash of `(run, canonical pair)` reduced to a
/// shard index. Uses an FNV-1a over the tuple's bytes so the mapping
/// is identical across processes and platforms (no `RandomState`).
pub fn shard_of(run: u32, pair: &SocketPair, shards: usize) -> usize {
    let canonical = pair.canonical();
    // Per-family octet feed: a canonical V4 endpoint contributes exactly
    // the 4 bytes the pre-dual-stack hash consumed, so every legacy
    // (pure-IPv4) pair keeps its historical shard assignment; genuine V6
    // endpoints contribute their 16 bytes.
    let feed_ip = |hash: Fnv1a, ip| match ip {
        IpAddr::V4(v4) => hash.feed(&v4.octets()),
        IpAddr::V6(v6) => hash.feed(&v6.octets()),
    };
    let hash = Fnv1a::new().feed(&run.to_be_bytes());
    let hash = feed_ip(hash, canonical.src_ip).feed(&canonical.src_port.to_be_bytes());
    feed_ip(hash, canonical.dst_ip)
        .feed(&canonical.dst_port.to_be_bytes())
        .shard(shards)
}

/// A running 64-bit FNV-1a hash: the one hash behind both shard keys,
/// [`shard_of`] and [`fallback_shard`](crate::batch::fallback_shard).
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// The offset basis.
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub(crate) fn feed(self, bytes: &[u8]) -> Fnv1a {
        Fnv1a(bytes.iter().fold(self.0, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        }))
    }

    /// The hash reduced to one of `shards` (at least one).
    pub(crate) fn shard(self, shards: usize) -> usize {
        (self.0 % shards.max(1) as u64) as usize
    }
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

    /// Both shard keys are FNV-1a over fixed byte layouts; these values
    /// are what any build must route to, so a recorded stream replays
    /// onto the same shards.
    #[test]
    fn shard_keys_are_pinned_at_eight_shards() {
        let v4 = SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15),
            50_000,
            Ipv4Addr::new(93, 184, 216, 34),
            443,
        );
        let v6 = SocketPair::new(
            "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap(),
            40_000,
            "2001:db8::2".parse::<std::net::Ipv6Addr>().unwrap(),
            443,
        );
        let mapped = SocketPair::new(
            Ipv4Addr::new(10, 0, 2, 15).to_ipv6_mapped(),
            50_000,
            Ipv4Addr::new(93, 184, 216, 34),
            443,
        );
        for (run, v4_shard, v6_shard, fallback) in [(0, 0, 0, 5), (7, 1, 5, 0), (1234, 6, 6, 3)] {
            assert_eq!(shard_of(run, &v4, 8), v4_shard, "v4 pair, run {run}");
            assert_eq!(shard_of(run, &v4.reversed(), 8), v4_shard);
            assert_eq!(shard_of(run, &mapped, 8), v4_shard, "v4-mapped folds to v4");
            assert_eq!(shard_of(run, &v6, 8), v6_shard, "v6 pair, run {run}");
            assert_eq!(crate::batch::fallback_shard(run, 8), fallback, "run {run}");
        }
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
