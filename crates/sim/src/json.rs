//! JSON codecs for what a host writes out and reads back.
//!
//! The vendored `serde` derives are no-ops, so the simulator's types go
//! through [`bcount_json`]'s hand-rolled [`ToJson`] / [`FromJson`]
//! instead, and only where a caller exists:
//!
//! * written only: [`ExecutionSnapshot`] (with its [`EstimateSummary`])
//!   and [`NodeState`], the payloads of the `bcountd/v1` query plane
//!   (`crates/daemon`) and of its checkpoint anchors, which recovery
//!   compares as rendered bytes and never parses; [`StopReason`], inside
//!   a snapshot and in the experiment artifacts' cell records;
//! * written and read back: [`FaultPlan`] and its [`CrashEvent`]s, part
//!   of a `session.create` cell and so of the journal's recorded params.
//!
//! Field names are part of the artifact and wire schema documented in
//! the README; renaming one is a schema version bump.

use bcount_json::{field, opt_field, FromJson, Json, JsonError, ToJson};

use crate::engine::StopReason;
use crate::execution::{EstimateSummary, ExecutionSnapshot, NodeState};
use crate::fault::{CrashEvent, FaultPlan};

impl ToJson for StopReason {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                StopReason::AllHalted => "all_halted",
                StopReason::AllDecided => "all_decided",
                StopReason::MaxRounds => "max_rounds",
            }
            .to_owned(),
        )
    }
}

impl ToJson for CrashEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round", self.round.to_json()),
            ("node", self.node.to_json()),
        ])
    }
}

impl FromJson for CrashEvent {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(CrashEvent {
            round: field(json, "round")?,
            node: field(json, "node")?,
        })
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", self.seed.to_json()),
            ("crashes", self.crashes.to_json()),
            ("drop_per_mille", self.drop_per_mille.to_json()),
            ("dup_per_mille", self.dup_per_mille.to_json()),
            ("delay_per_mille", self.delay_per_mille.to_json()),
            ("delay_rounds", self.delay_rounds.to_json()),
        ])
    }
}

impl FromJson for FaultPlan {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // Every field is optional on the wire — a partial plan object
        // fills in the inert defaults, so clients write only the faults
        // they mean to inject.
        let d = FaultPlan::default();
        Ok(FaultPlan {
            seed: opt_field(json, "seed")?.unwrap_or(d.seed),
            crashes: opt_field(json, "crashes")?.unwrap_or_default(),
            drop_per_mille: opt_field(json, "drop_per_mille")?.unwrap_or(0),
            dup_per_mille: opt_field(json, "dup_per_mille")?.unwrap_or(0),
            delay_per_mille: opt_field(json, "delay_per_mille")?.unwrap_or(0),
            delay_rounds: opt_field(json, "delay_rounds")?.unwrap_or(d.delay_rounds),
        })
    }
}

impl ToJson for EstimateSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
            ("mean", self.mean.to_json()),
            ("median", self.median.to_json()),
        ])
    }
}

impl ToJson for ExecutionSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round", self.round.to_json()),
            ("n", self.n.to_json()),
            ("honest", self.honest.to_json()),
            ("byzantine", self.byzantine.to_json()),
            ("decided", self.decided.to_json()),
            ("halted", self.halted.to_json()),
            ("stop", self.stop.to_json()),
            ("estimate", self.estimate.to_json()),
            ("messages_total", self.messages_total.to_json()),
            ("bits_total", self.bits_total.to_json()),
            ("dropped", self.dropped.to_json()),
            ("duplicated", self.duplicated.to_json()),
            ("delayed", self.delayed.to_json()),
            ("crashed", self.crashed.to_json()),
        ])
    }
}

impl ToJson for NodeState {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("byzantine", self.byzantine.to_json()),
            ("halted", self.halted.to_json()),
            ("decided_round", self.decided_round.to_json()),
            ("estimate", self.estimate.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_strings_are_stable() {
        for (reason, tag) in [
            (StopReason::AllHalted, "\"all_halted\""),
            (StopReason::AllDecided, "\"all_decided\""),
            (StopReason::MaxRounds, "\"max_rounds\""),
        ] {
            assert_eq!(reason.to_json().render().unwrap(), tag);
        }
    }
}
