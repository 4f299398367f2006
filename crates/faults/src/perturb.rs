//! Wire-level capture perturbation.
//!
//! Applies a [`FaultPlan`]'s per-datagram faults to a finished run's
//! capture, producing the capture the analysis pipeline *would* have
//! seen on a lossy rig. All corruption of report payloads is
//! re-encoded through [`encode_udp`] so the frames stay well-formed
//! UDP — the damage must surface in the report decoder, where the
//! degraded-mode accounting (`RunIntegrity`) can classify it — while
//! non-report frames are truncated raw, which is what a snapped pcap
//! record actually looks like.

use serde::{Deserialize, Serialize};
use spector_netsim::packet::{decode_frame_ref, encode_udp, TransportRef};
use spector_netsim::pcap::CapturedPacket;

use crate::plan::FaultPlan;

/// What [`perturb_capture`] injected, for campaign accounting. These
/// count injections, not decoder outcomes: a flipped bit may still
/// decode (the corruption landed in a frame string), so decoder-side
/// `RunIntegrity` counters are bounded by, not equal to, these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerturbStats {
    /// Report datagrams dropped outright.
    pub reports_dropped: usize,
    /// Report datagrams delivered twice.
    pub reports_duplicated: usize,
    /// Report datagrams delivered behind their successor.
    pub reports_reordered: usize,
    /// Report payloads cut at a random byte.
    pub reports_truncated: usize,
    /// Report payloads with one bit flipped.
    pub reports_bit_flipped: usize,
    /// Non-report frames truncated raw.
    pub frames_truncated: usize,
    /// Frames lost to mid-run capture death.
    pub frames_lost_to_capture_death: usize,
}

impl PerturbStats {
    /// Total injected faults of any class.
    pub fn total(&self) -> usize {
        self.reports_dropped
            + self.reports_duplicated
            + self.reports_reordered
            + self.reports_truncated
            + self.reports_bit_flipped
            + self.frames_truncated
            + self.frames_lost_to_capture_death
    }

    /// Folds another run's stats into this one.
    pub fn merge(&mut self, other: &PerturbStats) {
        self.reports_dropped += other.reports_dropped;
        self.reports_duplicated += other.reports_duplicated;
        self.reports_reordered += other.reports_reordered;
        self.reports_truncated += other.reports_truncated;
        self.reports_bit_flipped += other.reports_bit_flipped;
        self.frames_truncated += other.frames_truncated;
        self.frames_lost_to_capture_death += other.frames_lost_to_capture_death;
    }
}

/// Applies the plan's wire faults for `(app index, attempt)` to a
/// run's capture. Deterministic: output depends only on the plan's
/// seed, the key, and the input capture. A no-op plan returns the
/// capture untouched (same allocation — byte identity is structural).
pub fn perturb_capture(
    plan: &FaultPlan,
    index: usize,
    attempt: u32,
    capture: Vec<CapturedPacket>,
    collector_port: u16,
) -> (Vec<CapturedPacket>, PerturbStats) {
    let mut stats = PerturbStats::default();
    if plan.is_noop() || capture.is_empty() {
        return (capture, stats);
    }
    let profile = *plan.profile();
    let mut rng = plan.wire_rng(index, attempt);

    // Capture death first: the tail never reaches the file, so later
    // per-frame faults only apply to what survived.
    let mut capture = capture;
    if capture.len() > 1 && rng.chance(profile.capture_death) {
        let keep = 1 + rng.below(capture.len() as u64 - 1) as usize;
        stats.frames_lost_to_capture_death = capture.len() - keep;
        capture.truncate(keep);
    }

    let mut out: Vec<CapturedPacket> = Vec::with_capacity(capture.len());
    // Output positions whose frame should be delivered one slot late.
    let mut delayed: Vec<usize> = Vec::new();
    for packet in capture {
        let report_payload = match decode_frame_ref(&packet.data) {
            Ok(frame) => match frame.transport {
                TransportRef::Udp { payload } if frame.pair.dst_port == collector_port => {
                    Some((frame.pair, payload))
                }
                _ => None,
            },
            Err(_) => None,
        };
        match report_payload {
            Some((pair, payload)) => {
                if rng.chance(profile.report_loss) {
                    stats.reports_dropped += 1;
                    continue;
                }
                // Only a damaged payload is copied; an intact report keeps
                // its frame's bytes.
                let damaged = if rng.chance(profile.report_truncation) && !payload.is_empty() {
                    stats.reports_truncated += 1;
                    let cut = rng.below(payload.len() as u64) as usize;
                    Some(encode_udp(&pair, &payload[..cut]))
                } else if rng.chance(profile.report_bit_flip) && !payload.is_empty() {
                    stats.reports_bit_flipped += 1;
                    let mut corrupted = payload.to_vec();
                    let bit = rng.below(corrupted.len() as u64 * 8);
                    corrupted[(bit / 8) as usize] ^= 1 << (bit % 8);
                    Some(encode_udp(&pair, &corrupted))
                } else {
                    None
                };
                let data = damaged.unwrap_or(packet.data);
                let duplicated = rng.chance(profile.report_duplication);
                let reordered = rng.chance(profile.report_reorder);
                if reordered {
                    stats.reports_reordered += 1;
                    delayed.push(out.len());
                }
                out.push(CapturedPacket {
                    timestamp_micros: packet.timestamp_micros,
                    data,
                });
                if duplicated {
                    stats.reports_duplicated += 1;
                    let copy = out.last().expect("just pushed").clone();
                    out.push(copy);
                }
            }
            None => {
                let data = if packet.data.len() > 1 && rng.chance(profile.frame_truncation) {
                    stats.frames_truncated += 1;
                    let keep = 1 + rng.below(packet.data.len() as u64 - 1) as usize;
                    packet.data[..keep].to_vec()
                } else {
                    packet.data
                };
                out.push(CapturedPacket {
                    timestamp_micros: packet.timestamp_micros,
                    data,
                });
            }
        }
    }

    // Deliver delayed reports one frame late: swap *contents* with the
    // successor so timestamps stay monotone (reordering is about
    // arrival relative to the TCP stream, not about breaking the
    // capture clock). Skip overlapping swaps — each frame moves once.
    let mut last_swapped = usize::MAX;
    for position in delayed {
        if position + 1 < out.len() && position != last_swapped.wrapping_add(1) {
            let (a, b) = out.split_at_mut(position + 1);
            std::mem::swap(&mut a[position].data, &mut b[0].data);
            last_swapped = position;
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use spector_hooks::{decode_reports_classified, SocketReport, SupervisorConfig};
    use spector_netsim::{Clock, NetStack};

    use super::*;
    use crate::profile::FaultProfile;

    fn sample_capture(reports: usize) -> (Vec<CapturedPacket>, u16) {
        let config = SupervisorConfig::default();
        let mut stack = NetStack::new(Clock::new(), Ipv4Addr::new(10, 0, 2, 15));
        let ip = stack.resolve("cdn.example.net", Ipv4Addr::new(93, 184, 216, 34));
        let sock = stack.tcp_connect(ip, 443);
        let pair = stack.socket_pair(sock).unwrap();
        for i in 0..reports {
            let report = SocketReport {
                stream: None,
                apk_sha256: spector_dex::sha256::Sha256::digest(&[i as u8]),
                pair,
                timestamp_micros: stack.clock().now_micros(),
                frames: vec![format!("com.sdk.Net.call{i}")],
            };
            stack.udp_send(config.collector_ip, config.collector_port, &report.encode());
        }
        stack.tcp_transfer(sock, 300, 6_000);
        stack.tcp_close(sock);
        (stack.into_capture(), config.collector_port)
    }

    fn report_payloads(capture: &[CapturedPacket], port: u16) -> Vec<Vec<u8>> {
        capture
            .iter()
            .filter_map(|p| match decode_frame_ref(&p.data) {
                Ok(frame) => match frame.transport {
                    TransportRef::Udp { payload } if frame.pair.dst_port == port => {
                        Some(payload.to_vec())
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn noop_plan_returns_capture_untouched() {
        let (capture, port) = sample_capture(3);
        let plan = FaultPlan::new(42, FaultProfile::none());
        let (out, stats) = perturb_capture(&plan, 0, 0, capture.clone(), port);
        assert_eq!(out, capture);
        assert_eq!(stats, PerturbStats::default());
    }

    #[test]
    fn perturbation_is_deterministic() {
        let (capture, port) = sample_capture(8);
        let plan = FaultPlan::new(7, FaultProfile::heavy());
        let (a, stats_a) = perturb_capture(&plan, 3, 1, capture.clone(), port);
        let (b, stats_b) = perturb_capture(&plan, 3, 1, capture, port);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn different_attempts_perturb_differently() {
        let (capture, port) = sample_capture(8);
        let plan = FaultPlan::new(7, FaultProfile::heavy());
        let differs = (0..8).any(|attempt| {
            perturb_capture(&plan, 0, attempt, capture.clone(), port).0
                != perturb_capture(&plan, 0, 0, capture.clone(), port).0
        });
        assert!(differs);
    }

    #[test]
    fn dropped_reports_are_gone_and_counted() {
        let (capture, port) = sample_capture(16);
        let before = report_payloads(&capture, port).len();
        let mut profile = FaultProfile::none();
        profile.report_loss = 1.0;
        let plan = FaultPlan::new(11, profile);
        let (out, stats) = perturb_capture(&plan, 0, 0, capture, port);
        assert_eq!(stats.reports_dropped, before);
        assert_eq!(report_payloads(&out, port).len(), 0);
        // Non-report traffic untouched.
        assert!(!out.is_empty());
    }

    #[test]
    fn truncated_reports_classify_as_truncated() {
        let (capture, port) = sample_capture(12);
        let mut profile = FaultProfile::none();
        profile.report_truncation = 1.0;
        let plan = FaultPlan::new(13, profile);
        let (out, stats) = perturb_capture(&plan, 0, 0, capture, port);
        assert_eq!(stats.reports_truncated, 12);
        let payloads = report_payloads(&out, port);
        assert_eq!(payloads.len(), 12, "truncated reports still arrive as UDP");
        let (decoded, errors) = decode_reports_classified(payloads.iter().map(|p| p.as_slice()));
        assert!(decoded.is_empty());
        assert_eq!(errors.truncated, 12, "every cut is a strict prefix");
        assert_eq!(errors.malformed, 0);
    }

    #[test]
    fn duplicated_reports_arrive_twice() {
        let (capture, port) = sample_capture(4);
        let before = report_payloads(&capture, port);
        let mut profile = FaultProfile::none();
        profile.report_duplication = 1.0;
        let plan = FaultPlan::new(17, profile);
        let (out, stats) = perturb_capture(&plan, 0, 0, capture, port);
        assert_eq!(stats.reports_duplicated, 4);
        assert_eq!(report_payloads(&out, port).len(), before.len() * 2);
    }

    #[test]
    fn reorder_preserves_clock_and_content_set() {
        let (capture, port) = sample_capture(6);
        let mut profile = FaultProfile::none();
        profile.report_reorder = 1.0;
        let plan = FaultPlan::new(19, profile);
        let (out, stats) = perturb_capture(&plan, 0, 0, capture.clone(), port);
        assert!(stats.reports_reordered > 0);
        // Same frames, possibly different order.
        let mut before: Vec<Vec<u8>> = capture.into_iter().map(|p| p.data).collect();
        let mut after: Vec<Vec<u8>> = out.iter().map(|p| p.data.clone()).collect();
        before.sort();
        after.sort();
        assert_eq!(before, after);
        // Timestamps stayed monotone.
        assert!(out
            .windows(2)
            .all(|w| w[0].timestamp_micros <= w[1].timestamp_micros));
    }

    #[test]
    fn capture_death_cuts_a_tail() {
        let (capture, port) = sample_capture(4);
        let mut profile = FaultProfile::none();
        profile.capture_death = 1.0;
        let plan = FaultPlan::new(23, profile);
        let (out, stats) = perturb_capture(&plan, 0, 0, capture.clone(), port);
        assert!(stats.frames_lost_to_capture_death > 0);
        assert_eq!(
            out.len() + stats.frames_lost_to_capture_death,
            capture.len()
        );
        assert_eq!(
            out[..],
            capture[..out.len()],
            "the surviving prefix is intact"
        );
    }

    #[test]
    fn frame_truncation_hits_non_report_frames() {
        let (capture, port) = sample_capture(2);
        let mut profile = FaultProfile::none();
        profile.frame_truncation = 1.0;
        let plan = FaultPlan::new(29, profile);
        let (out, stats) = perturb_capture(&plan, 0, 0, capture, port);
        assert!(stats.frames_truncated > 0);
        // Reports survive untouched; some other frames now fail decode.
        assert_eq!(report_payloads(&out, port).len(), 2);
        let broken = out
            .iter()
            .filter(|p| decode_frame_ref(&p.data).is_err())
            .count();
        assert_eq!(broken, stats.frames_truncated);
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let mut a = PerturbStats {
            reports_dropped: 1,
            frames_truncated: 2,
            ..Default::default()
        };
        let b = PerturbStats {
            reports_dropped: 3,
            reports_reordered: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reports_dropped, 4);
        assert_eq!(a.reports_reordered, 5);
        assert_eq!(a.frames_truncated, 2);
        assert_eq!(a.total(), 11);
    }
}
