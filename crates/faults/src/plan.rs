//! The campaign-wide fault plan: profile + seed, forked per app.

use serde::{Deserialize, Serialize};

use crate::profile::FaultProfile;
use crate::rng::FaultRng;

/// Key-derivation lanes: process decisions and wire perturbation draw
/// from disjoint streams so adding a wire fault never reshuffles the
/// process dice (and vice versa).
pub(crate) const LANE_PROCESS: u64 = 1;
pub(crate) const LANE_WIRE: u64 = 2;

/// A deterministic campaign fault plan.
///
/// Every decision the plan makes is a pure function of
/// `(seed, app index, attempt)` — never of wall-clock time, worker
/// identity, or completion order — so campaigns replay identically
/// across worker counts and across a killed campaign's `--resume`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

/// Process-level fault decisions for one `(app, attempt)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessFaults {
    /// The emulator fails to boot this attempt.
    pub boot_failure: bool,
    /// The monkey wedges and the attempt deadline fires.
    pub monkey_hang: bool,
    /// The worker thread panics mid-run.
    pub worker_panic: bool,
}

impl ProcessFaults {
    /// True when any process fault fires this attempt.
    pub fn any(&self) -> bool {
        self.boot_failure || self.monkey_hang || self.worker_panic
    }
}

impl FaultPlan {
    /// Builds a plan from the chaos seed and an intensity profile.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        FaultPlan { seed, profile }
    }

    /// The plan's intensity profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The chaos seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan can never inject anything; callers use this
    /// to skip perturbation entirely and preserve byte identity with
    /// the fault-free pipeline.
    pub fn is_noop(&self) -> bool {
        self.profile.is_noop()
    }

    /// Process-fault decisions for one app attempt. Boot failures and
    /// hangs are sampled independently; at most one is surfaced
    /// (boot wins — a machine that never boots cannot hang).
    pub fn process_faults(&self, index: usize, attempt: u32) -> ProcessFaults {
        if self.is_noop() {
            return ProcessFaults::default();
        }
        let mut rng = FaultRng::for_key(self.seed, LANE_PROCESS, index as u64, u64::from(attempt));
        let boot_failure = rng.chance(self.profile.boot_failure);
        let monkey_hang = !boot_failure && rng.chance(self.profile.monkey_hang);
        let worker_panic = rng.chance(self.profile.worker_panic);
        ProcessFaults {
            boot_failure,
            monkey_hang,
            worker_panic,
        }
    }

    /// The wire-perturbation RNG for one app attempt.
    pub(crate) fn wire_rng(&self, index: usize, attempt: u32) -> FaultRng {
        FaultRng::for_key(self.seed, LANE_WIRE, index as u64, u64::from(attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_reproducible() {
        let plan = FaultPlan::new(99, FaultProfile::heavy());
        for index in 0..32 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.process_faults(index, attempt),
                    plan.process_faults(index, attempt)
                );
            }
        }
    }

    #[test]
    fn attempts_can_clear_a_fault() {
        // With heavy boot-failure odds, some app must fail attempt 0
        // and pass a later attempt — that's what makes retries succeed.
        let plan = FaultPlan::new(7, FaultProfile::heavy());
        let recovered = (0..256).any(|index| {
            plan.process_faults(index, 0).boot_failure
                && !plan.process_faults(index, 1).boot_failure
        });
        assert!(recovered);
    }

    #[test]
    fn noop_plan_never_fires() {
        let plan = FaultPlan::new(1234, FaultProfile::none());
        assert!(plan.is_noop());
        for index in 0..64 {
            assert_eq!(plan.process_faults(index, 0), ProcessFaults::default());
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(5, FaultProfile::light());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
