//! Deterministic fault injection: crash-stop schedules and per-link
//! message drop/duplication/delay, driven by a dedicated seeded stream.
//!
//! A [`FaultPlan`] travels inside [`crate::SimConfig`] and describes the
//! substrate faults an execution must survive: nodes that crash-stop at
//! scheduled rounds, and link-level message loss, duplication, and
//! delayed redelivery. The plan is *deterministic by construction*:
//!
//! * All link-fault randomness comes from one `ChaCha8Rng` seeded with
//!   [`FaultPlan::seed`] — separate from the master engine seed, so a
//!   no-fault run's transcript is unchanged and the same plan can be
//!   replayed over different protocol seeds (and vice versa).
//! * Link-fault rates are integers in *per-mille* (`0..=1000`), so plans
//!   are exactly comparable (`Eq`) and serialize without float drift.
//! * One uniform draw in `[0, 1000)` decides each merged honest
//!   message's fate, partitioned `drop < duplicate < delay < pass` —
//!   the draw count equals the merged message count, independent of the
//!   rates, so tweaking one rate never shifts another message's draw.
//!
//! The plan alone picks the engine's feed. A non-empty plan selects the
//! flat feed: the fault pass rolls over the node-order traffic vector, so
//! the transcript is the one the model defines whatever the pool size —
//! the reference-executor unit tests diff it round by round. A
//! crash-only plan whose crashes lie past the last round faults nothing
//! and draws no fault randomness, so it selects the flat feed alone.

use serde::{Deserialize, Serialize};

use crate::execution::ConfigError;

/// One scheduled crash-stop: `node` stops participating permanently at
/// the *start* of `round` (it neither computes nor sends from that round
/// on; messages already in flight to or from it are still delivered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// First round the node is down (rounds are 1-based; a crash at
    /// round 1 means the node never acts).
    pub round: u64,
    /// Graph node id to crash. Crashing a Byzantine node silences the
    /// adversary's use of it from that round on.
    pub node: u32,
}

/// A deterministic fault-injection plan; see the [module docs](self).
///
/// The empty plan (no crashes, all rates zero — [`FaultPlan::is_empty`])
/// is inert: the engine skips the fault phase entirely and runs the
/// outbox feed. [`FaultPlan::validate`] is enforced by
/// [`crate::SimConfigBuilder::build`]; field-poked configs fall back to
/// the same documented semantics (rates are capped by the partition).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the dedicated fault stream (independent of
    /// [`crate::SimConfig::seed`]).
    pub seed: u64,
    /// Crash-stop schedule; order does not matter (the engine sorts by
    /// `(round, node)`). Duplicate events for one node are idempotent.
    pub crashes: Vec<CrashEvent>,
    /// Per-message drop probability, in per-mille (`0..=1000`).
    pub drop_per_mille: u16,
    /// Per-message duplication probability, in per-mille. A duplicated
    /// message is delivered twice in the same round, back to back.
    pub dup_per_mille: u16,
    /// Per-message delay probability, in per-mille. A delayed message is
    /// withheld and redelivered [`FaultPlan::delay_rounds`] rounds later.
    pub delay_per_mille: u16,
    /// How many rounds a delayed message is withheld (at least 1).
    pub delay_rounds: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            crashes: Vec::new(),
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_rounds: 1,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects nothing — the engine treats an empty
    /// plan exactly like no plan at all (same feed, no fault RNG draws,
    /// byte-identical to a config without the field).
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.link_rate_total() == 0
    }

    /// Sum of the three link-fault rates (the occupied share of the
    /// per-message draw partition).
    pub fn link_rate_total(&self) -> u32 {
        u32::from(self.drop_per_mille)
            + u32::from(self.dup_per_mille)
            + u32::from(self.delay_per_mille)
    }

    /// Checks the plan's internal consistency; see [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.link_rate_total() > 1000 {
            return Err(ConfigError::FaultRatesExceedUnity);
        }
        if self.delay_per_mille > 0 && self.delay_rounds == 0 {
            return Err(ConfigError::ZeroDelayRounds);
        }
        if self.crashes.iter().any(|ev| ev.round == 0) {
            return Err(ConfigError::CrashBeforeFirstRound);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan {
            dup_per_mille: 1,
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        let plan = FaultPlan {
            crashes: vec![CrashEvent { round: 3, node: 0 }],
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let plan = FaultPlan {
            drop_per_mille: 600,
            dup_per_mille: 300,
            delay_per_mille: 200,
            ..FaultPlan::default()
        };
        assert_eq!(plan.validate(), Err(ConfigError::FaultRatesExceedUnity));
        let plan = FaultPlan {
            delay_per_mille: 10,
            delay_rounds: 0,
            ..FaultPlan::default()
        };
        assert_eq!(plan.validate(), Err(ConfigError::ZeroDelayRounds));
        let plan = FaultPlan {
            crashes: vec![CrashEvent { round: 0, node: 1 }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.validate(), Err(ConfigError::CrashBeforeFirstRound));
        assert_eq!(FaultPlan::default().validate(), Ok(()));
    }
}
