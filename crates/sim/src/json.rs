//! JSON persistence for the simulator's report types.
//!
//! The vendored `serde` derives are no-ops, so machine-readable artifacts
//! go through [`bcount_json`]'s hand-rolled [`ToJson`] / [`FromJson`]
//! instead: [`Metrics`], [`NodeMetrics`], [`RoundTrace`], [`Pid`],
//! [`StopReason`], and [`SimReport`] all round-trip losslessly
//! (`crates/sim/tests/json_roundtrip.rs` property-tests
//! `read(write(x)) == x`). The embedding types
//! [`ExecutionSnapshot`], [`EstimateSummary`], and [`NodeState`] are
//! serialized here too — they are the payloads of the `bcountd/v1`
//! query plane (`crates/daemon`), so their field names are wire schema
//! as well.
//!
//! Field names are part of the artifact schema documented in the README;
//! renaming one is a schema version bump.

use bcount_json::{field, opt_field, FromJson, Json, JsonError, ToJson};

use crate::engine::{SimReport, StopReason};
use crate::execution::{EstimateSummary, ExecutionSnapshot, NodeState};
use crate::fault::{CrashEvent, FaultPlan};
use crate::idspace::Pid;
use crate::metrics::{Metrics, NodeMetrics};
use crate::trace::RoundTrace;

impl ToJson for Pid {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for Pid {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        u64::from_json(json).map(Pid)
    }
}

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

impl FromJson for StopReason {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("all_halted") => Ok(StopReason::AllHalted),
            Some("all_decided") => Ok(StopReason::AllDecided),
            Some("max_rounds") => Ok(StopReason::MaxRounds),
            Some(other) => Err(JsonError::Shape(format!("unknown stop reason '{other}'"))),
            None => Err(JsonError::Shape("expected stop-reason string".into())),
        }
    }
}

impl ToJson for NodeMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("messages_sent", self.messages_sent.to_json()),
            ("bits_sent", self.bits_sent.to_json()),
            ("max_message_bits", self.max_message_bits.to_json()),
        ])
    }
}

impl FromJson for NodeMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(NodeMetrics {
            messages_sent: field(json, "messages_sent")?,
            bits_sent: field(json, "bits_sent")?,
            max_message_bits: field(json, "max_message_bits")?,
        })
    }
}

impl ToJson for RoundTrace {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round", self.round.to_json()),
            ("honest_messages", self.honest_messages.to_json()),
            ("byzantine_messages", self.byzantine_messages.to_json()),
            ("decided", self.decided.to_json()),
            ("halted", self.halted.to_json()),
        ])
    }
}

impl FromJson for RoundTrace {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RoundTrace {
            round: field(json, "round")?,
            honest_messages: field(json, "honest_messages")?,
            byzantine_messages: field(json, "byzantine_messages")?,
            decided: field(json, "decided")?,
            halted: field(json, "halted")?,
        })
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("per_node", self.per_node.to_json()),
            ("rounds", self.rounds.to_json()),
            ("round_trace", self.round_trace.to_json()),
            ("dropped", self.dropped.to_json()),
            ("duplicated", self.duplicated.to_json()),
            ("delayed", self.delayed.to_json()),
            ("crashed", self.crashed.to_json()),
        ])
    }
}

impl FromJson for Metrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // The fault counters default to zero so artifacts written before
        // the fault plane existed keep reading.
        Ok(Metrics {
            per_node: field(json, "per_node")?,
            rounds: field(json, "rounds")?,
            round_trace: field(json, "round_trace")?,
            dropped: opt_field(json, "dropped")?.unwrap_or(0),
            duplicated: opt_field(json, "duplicated")?.unwrap_or(0),
            delayed: opt_field(json, "delayed")?.unwrap_or(0),
            crashed: opt_field(json, "crashed")?.unwrap_or(0),
        })
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

impl<O: ToJson> ToJson for SimReport<O> {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", self.rounds.to_json()),
            ("outputs", self.outputs.to_json()),
            ("decided_round", self.decided_round.to_json()),
            ("halted", self.halted.to_json()),
            ("is_byzantine", self.is_byzantine.to_json()),
            ("pids", self.pids.to_json()),
            ("metrics", self.metrics.to_json()),
            ("stop_reason", self.stop_reason.to_json()),
        ])
    }
}

impl<O: FromJson> FromJson for SimReport<O> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(SimReport {
            rounds: field(json, "rounds")?,
            outputs: field(json, "outputs")?,
            decided_round: field(json, "decided_round")?,
            halted: field(json, "halted")?,
            is_byzantine: field(json, "is_byzantine")?,
            pids: field(json, "pids")?,
            metrics: field(json, "metrics")?,
            stop_reason: field(json, "stop_reason")?,
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

impl FromJson for EstimateSummary {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EstimateSummary {
            count: field(json, "count")?,
            min: field(json, "min")?,
            max: field(json, "max")?,
            mean: field(json, "mean")?,
            median: field(json, "median")?,
        })
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

impl FromJson for ExecutionSnapshot {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(ExecutionSnapshot {
            round: field(json, "round")?,
            n: field(json, "n")?,
            honest: field(json, "honest")?,
            byzantine: field(json, "byzantine")?,
            decided: field(json, "decided")?,
            halted: field(json, "halted")?,
            stop: field(json, "stop")?,
            estimate: field(json, "estimate")?,
            messages_total: field(json, "messages_total")?,
            bits_total: field(json, "bits_total")?,
            dropped: opt_field(json, "dropped")?.unwrap_or(0),
            duplicated: opt_field(json, "duplicated")?.unwrap_or(0),
            delayed: opt_field(json, "delayed")?.unwrap_or(0),
            crashed: opt_field(json, "crashed")?.unwrap_or(0),
        })
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

impl FromJson for NodeState {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(NodeState {
            byzantine: field(json, "byzantine")?,
            halted: field(json, "halted")?,
            decided_round: field(json, "decided_round")?,
            estimate: field(json, "estimate")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport<u64> {
        let mut metrics = Metrics::new(3);
        metrics.per_node[0].record(64);
        metrics.per_node[0].record(128);
        metrics.per_node[2].record(8);
        metrics.rounds = 5;
        metrics.round_trace = vec![RoundTrace {
            round: 1,
            honest_messages: 2,
            byzantine_messages: 1,
            decided: 0,
            halted: 0,
        }];
        SimReport {
            rounds: 5,
            outputs: vec![Some(7), None, Some(9)],
            decided_round: vec![Some(3), None, Some(4)],
            halted: vec![true, false, true],
            is_byzantine: vec![false, true, false],
            pids: vec![Pid(u64::MAX), Pid(0), Pid(42)],
            metrics,
            stop_reason: StopReason::MaxRounds,
        }
    }

    #[test]
    fn sim_report_round_trips() {
        let report = sample_report();
        let text = report.to_json().render().unwrap();
        let back = SimReport::<u64>::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn stop_reason_strings_are_stable() {
        for (reason, tag) in [
            (StopReason::AllHalted, "\"all_halted\""),
            (StopReason::AllDecided, "\"all_decided\""),
            (StopReason::MaxRounds, "\"max_rounds\""),
        ] {
            assert_eq!(reason.to_json().render().unwrap(), tag);
            assert_eq!(
                StopReason::from_json(&Json::parse(tag).unwrap()).unwrap(),
                reason
            );
        }
        assert!(StopReason::from_json(&Json::parse("\"bogus\"").unwrap()).is_err());
    }

    #[test]
    fn pid_keeps_full_64_bits() {
        let pid = Pid(u64::MAX - 1);
        let text = pid.to_json().render().unwrap();
        assert_eq!(Pid::from_json(&Json::parse(&text).unwrap()).unwrap(), pid);
    }
}
