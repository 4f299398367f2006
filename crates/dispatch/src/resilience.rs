//! Retry policy with exponential backoff and deterministic jitter.
//!
//! Retryable failures — emulator boot failures and monkey hangs — are
//! weather, not bugs: the fix is to try again, a little later. The
//! backoff schedule doubles per attempt up to a cap, and the jitter is
//! drawn from the campaign's fault RNG keyed by `(app, attempt)`, so
//! the *schedule* is as reproducible as everything else in a chaos run
//! (the sleep itself is wall-clock and affects nothing downstream).

use spector_faults::FaultRng;

/// Key-derivation lane for backoff jitter; disjoint from the fault
/// plan's process (1) and wire (2) lanes.
const LANE_RETRY: u64 = 3;

/// Bounded-retry settings for retryable app failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per app, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, microseconds of wall time.
    pub base_backoff_micros: u64,
    /// Backoff ceiling, microseconds.
    pub max_backoff_micros: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 2_000,
            max_backoff_micros: 50_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (a default `CampaignConfig`'s).
    pub fn never() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_micros: 0,
            max_backoff_micros: 0,
        }
    }

    /// Backoff before retrying `index` after failed attempt `attempt`
    /// (0-based): `base * 2^attempt` capped at the ceiling, scaled by a
    /// deterministic jitter factor in `[0.5, 1.5)` to decorrelate
    /// workers retrying in lockstep.
    pub fn backoff_micros(&self, seed: u64, index: usize, attempt: u32) -> u64 {
        let exponential = self
            .base_backoff_micros
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_micros);
        let mut rng = FaultRng::for_key(seed, LANE_RETRY, index as u64, u64::from(attempt));
        let jitter = 0.5 + (rng.below(1_000) as f64) / 1_000.0;
        (exponential as f64 * jitter) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_micros: 1_000,
            max_backoff_micros: 8_000,
        };
        // Jitter is within [0.5, 1.5), so bounds scale accordingly.
        for attempt in 0..10 {
            let backoff = policy.backoff_micros(1, 0, attempt);
            let raw = (1_000u64 << attempt).min(8_000);
            assert!(backoff >= raw / 2, "attempt {attempt}: {backoff}");
            assert!(backoff < raw + raw / 2 + 1, "attempt {attempt}: {backoff}");
        }
    }

    #[test]
    fn jitter_is_deterministic_but_varies_by_key() {
        let policy = RetryPolicy::default();
        assert_eq!(
            policy.backoff_micros(9, 4, 1),
            policy.backoff_micros(9, 4, 1)
        );
        let distinct: std::collections::HashSet<u64> = (0..32)
            .map(|index| policy.backoff_micros(9, index, 1))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn never_policy_has_single_attempt() {
        assert_eq!(RetryPolicy::never().max_attempts, 1);
    }
}
