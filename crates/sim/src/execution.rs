//! The embedding API around [`Execution`]: a validated configuration
//! builder, host-side reads, and the object-safe session surface embedded
//! by `bcountd`.
//!
//! [`Execution`] itself — the one steppable round executor — lives in
//! [`crate::engine`]. This module adds what long-lived hosts need on top
//! of it:
//!
//! * [`SimConfigBuilder`] — constructs a [`SimConfig`] while rejecting
//!   values the engine cannot run meaningfully (a zero round budget, an
//!   inconsistent fault plan).
//!   Field-poking a `SimConfig` still works; the builder exists for
//!   callers that want a hard error at construction time instead.
//! * [`Execution::snapshot_with`] and [`Execution::node_states_with`] —
//!   type-free reads ([`ExecutionSnapshot`], [`NodeState`]) a host makes
//!   between rounds. Because [`Execution::step`] checks the stop
//!   condition before each round, an execution driven round by round —
//!   or paused and resumed across daemon requests — finishes in the same
//!   state, byte for byte, as one driven by a single `run` call.
//! * [`DynExecution`] — the object-safe erasure of `Execution` over its
//!   graph-ownership, protocol, and adversary type parameters, letting a
//!   host hold heterogeneous live executions in one table. Type-specific
//!   output is lowered to `f64` through the raw-estimate hook given to
//!   [`Execution::erase`]; everything else is already type-free.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

use bcount_graph::Graph;

use crate::adversary::Adversary;
use crate::engine::{Execution, PhaseSend, PhaseShared, SimConfig, StopReason, StopWhen};
use crate::fault::FaultPlan;
use crate::metrics::Metrics;
use crate::protocol::Protocol;

/// A configuration [`SimConfigBuilder::build`] refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_rounds(0)`: the execution could never take a step.
    ZeroMaxRounds,
    /// A [`crate::fault::FaultPlan`] whose drop + duplicate + delay rates
    /// sum past 1000 per-mille: the per-message draw partition cannot
    /// hold more than the whole interval.
    FaultRatesExceedUnity,
    /// A fault plan with a non-zero delay rate but `delay_rounds == 0`:
    /// a zero-round delay would be a pass, silently.
    ZeroDelayRounds,
    /// A fault plan scheduling a crash at round 0: rounds are 1-based, so
    /// no node can crash before the first round (use round 1 for "never
    /// participated").
    CrashBeforeFirstRound,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxRounds => write!(f, "max_rounds must be at least 1"),
            ConfigError::FaultRatesExceedUnity => {
                write!(f, "fault drop+dup+delay rates must sum to at most 1000")
            }
            ConfigError::ZeroDelayRounds => {
                write!(
                    f,
                    "fault delay_rounds must be at least 1 when delay rate is non-zero"
                )
            }
            ConfigError::CrashBeforeFirstRound => {
                write!(
                    f,
                    "fault crash rounds are 1-based; round 0 is before the execution"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a [`SimConfig`], validating the options set.
///
/// Unset options keep their [`SimConfig::default`] values.
///
/// ```
/// use bcount_sim::prelude::*;
///
/// let config = SimConfig::builder()
///     .seed(42)
///     .max_rounds(500)
///     .stop_when(StopWhen::AllHonestDecided)
///     .build()
///     .unwrap();
/// assert_eq!(config.seed, 42);
///
/// // A zero round budget could never take a step.
/// let err = SimConfig::builder().max_rounds(0).build().unwrap_err();
/// assert_eq!(err, ConfigError::ZeroMaxRounds);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    seed: Option<u64>,
    max_rounds: Option<u64>,
    stop_when: Option<StopWhen>,
    record_round_stats: Option<bool>,
    fault: Option<FaultPlan>,
}

impl SimConfigBuilder {
    /// Starts from all-default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Master seed; see [`SimConfig::seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Hard round budget; see [`SimConfig::max_rounds`].
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Stop condition; see [`SimConfig::stop_when`].
    pub fn stop_when(mut self, stop_when: StopWhen) -> Self {
        self.stop_when = Some(stop_when);
        self
    }

    /// Record per-round message counts; see
    /// [`SimConfig::record_round_stats`].
    pub fn record_round_stats(mut self, on: bool) -> Self {
        self.record_round_stats = Some(on);
        self
    }

    /// Fault-injection plan, validated by [`SimConfigBuilder::build`];
    /// see [`SimConfig::fault`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Validates the explicitly-set options and produces the config
    /// (unset options keep their defaults).
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        if self.max_rounds == Some(0) {
            return Err(ConfigError::ZeroMaxRounds);
        }
        if let Some(plan) = &self.fault {
            plan.validate()?;
        }
        let d = SimConfig::default();
        Ok(SimConfig {
            seed: self.seed.unwrap_or(d.seed),
            max_rounds: self.max_rounds.unwrap_or(d.max_rounds),
            stop_when: self.stop_when.unwrap_or(d.stop_when),
            record_round_stats: self.record_round_stats.unwrap_or(d.record_round_stats),
            fault: self.fault.unwrap_or(d.fault),
        })
    }
}

impl SimConfig {
    /// A validating builder; see [`SimConfigBuilder`].
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }
}

impl<G, P, A> Execution<G, P, A>
where
    G: Borrow<Graph>,
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    /// Aggregate snapshot of the current state. `raw` lowers a node's
    /// typed output to its raw numeric estimate (identity for counting
    /// protocols; e.g. `|o| *o as f64`).
    ///
    /// Counts and totals come from the engine's census and the estimates
    /// from its record of each node's decision (see [`Protocol::output`]),
    /// so a snapshot reads no protocol instance. Crashed nodes leave the
    /// summary, as they leave the census.
    ///
    /// The execution keeps the live decided honest nodes ranked by
    /// `(raw estimate, node index)` between calls — the order a stable
    /// sort of the estimates in node order gives, `-0.0` and `+0.0` tied.
    /// Decisions are irrevocable, so a call removes the nodes crashed
    /// since the last one, merges the few that decided since (sorted
    /// among themselves, each placed by binary search), then reads the
    /// summary in one pass over the ranking: no sort and, once the
    /// ranking's buffers hold every honest node, no allocation. That pass
    /// also checks the order under this call's `raw`; if it does not hold
    /// (another `raw` than last time), or the ranking's length is not the
    /// census's decided count (as before round 1, when the census does not
    /// yet count decisions made at construction), the call ranks every
    /// live decided node afresh. The summary is therefore exact for any
    /// `raw`, equal to [`EstimateSummary::from_values`] over the live
    /// estimates.
    ///
    /// # Panics
    ///
    /// Panics if `raw` gives NaN for one of two or more estimates.
    pub fn snapshot_with(&self, raw: impl Fn(&P::Output) -> f64) -> ExecutionSnapshot {
        let n = self.graph().len();
        let census = self.census();
        let metrics = self.metrics();
        ExecutionSnapshot {
            round: self.round(),
            n,
            honest: n - census.byzantine,
            byzantine: census.byzantine,
            decided: census.decided,
            halted: census.halted,
            stop: self.finished(),
            estimate: self.ranked_summary(&raw),
            messages_total: census.messages,
            bits_total: census.bits,
            dropped: metrics.dropped,
            duplicated: metrics.duplicated,
            delayed: metrics.delayed,
            crashed: metrics.crashed,
        }
    }

    /// The summary of the live decided honest estimates, read off the
    /// kept ranking (see [`Execution::snapshot_with`]).
    fn ranked_summary(&self, raw: &impl Fn(&P::Output) -> f64) -> EstimateSummary {
        let outputs = self.outputs();
        let key = |u: u32| raw(outputs[u as usize].as_ref().expect("ranked nodes decided"));
        let crashed = self.crashed_flags();
        let log = self.decision_log();
        let census = self.census();
        let mut ranked = self.ranked().borrow_mut();
        ranked.reserve(self.graph().len() - census.byzantine);
        let crash_count = self.metrics().crashed;
        if ranked.crashed != crash_count {
            ranked.order.retain(|&u| !crashed[u as usize]);
            ranked.crashed = crash_count;
        }
        let cursor = ranked.cursor;
        if cursor < log.len() {
            ranked.merge(&log[cursor..], crashed, key);
            // Only once the merge is written: a `raw` that panics
            // mid-merge leaves these entries to the next call.
            ranked.cursor = log.len();
        }
        if ranked.order.len() == census.decided {
            if let Some(summary) = summarize(&ranked.order, key) {
                return summary;
            }
        }
        let byzantine = self.byzantine_flags();
        let live_decided = (0..outputs.len() as u32).filter(|&u| {
            let u = u as usize;
            outputs[u].is_some() && !byzantine[u] && !crashed[u]
        });
        ranked.rebuild(live_decided, key);
        summarize(&ranked.order, key).expect("a fresh ranking is in rank order")
    }

    /// Per-node state rows (index = graph node), from the engine's flags
    /// and its record of each node's decision. `raw` as in
    /// [`Execution::snapshot_with`].
    pub fn node_states_with(&self, raw: impl Fn(&P::Output) -> f64) -> Vec<NodeState> {
        let byz = self.byzantine_flags();
        let halted = self.halted_flags();
        let decided_rounds = self.decided_rounds();
        self.outputs()
            .iter()
            .enumerate()
            .map(|(u, out)| NodeState {
                byzantine: byz[u],
                halted: halted[u],
                decided_round: decided_rounds[u],
                estimate: out.as_ref().map(&raw),
            })
            .collect()
    }

    /// Erases the graph/protocol/adversary type parameters behind the
    /// object-safe [`DynExecution`], for hosts holding heterogeneous
    /// sessions. `raw` is the output-lowering hook baked into every
    /// future snapshot (a plain `fn` so erased executions stay `Send`
    /// when their parts are).
    pub fn erase(self, raw: fn(&P::Output) -> f64) -> Box<dyn DynExecution>
    where
        G: 'static,
        P: 'static,
        A: 'static,
    {
        Box::new(ErasedExecution { exec: self, raw })
    }
}

/// Aggregate, protocol-type-free view of a live execution — what a
/// `session.query` answers from. All fields are raw counts or raw IEEE
/// values (no rounding, no transcendentals), so serialized snapshots are
/// byte-stable across platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionSnapshot {
    /// Rounds executed so far.
    pub round: u64,
    /// Total nodes.
    pub n: usize,
    /// Honest nodes.
    pub honest: usize,
    /// Byzantine nodes.
    pub byzantine: usize,
    /// Honest nodes that have decided (have an output).
    pub decided: usize,
    /// Honest nodes that have halted.
    pub halted: usize,
    /// `Some(reason)` once the stop condition holds.
    pub stop: Option<StopReason>,
    /// Summary of the decided honest nodes' raw estimates.
    pub estimate: EstimateSummary,
    /// Messages sent so far (honest accounting; see [`Metrics`]).
    pub messages_total: u64,
    /// Bits sent so far under the configured ID-width model.
    pub bits_total: u64,
    /// Honest messages dropped by the fault plane so far.
    pub dropped: u64,
    /// Honest messages duplicated by the fault plane so far.
    pub duplicated: u64,
    /// Honest messages withheld for delayed redelivery so far.
    pub delayed: u64,
    /// Nodes crash-stopped so far.
    pub crashed: u64,
}

/// Distribution summary of decided nodes' raw estimates. Min/max/mean/
/// median only — each is exact IEEE arithmetic on the raw values, so the
/// summary serializes identically everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimateSummary {
    /// Number of estimates summarized.
    pub count: usize,
    /// Smallest estimate (0 when `count == 0`).
    pub min: f64,
    /// Largest estimate (0 when `count == 0`).
    pub max: f64,
    /// Arithmetic mean (0 when `count == 0`).
    pub mean: f64,
    /// Median (midpoint average for even counts; 0 when `count == 0`).
    pub median: f64,
}

impl EstimateSummary {
    /// Summarizes `values` (sorts them in place; NaNs are rejected by
    /// construction upstream — raw estimates come from protocol outputs).
    /// A mean or midpoint whose sum overflows saturates to `±f64::MAX`,
    /// so the summary of finite estimates is always finite.
    pub fn from_values(values: &mut [f64]) -> Self {
        if values.is_empty() {
            return EstimateSummary::default();
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("estimates must not be NaN"));
        let count = values.len();
        let sum: f64 = values.iter().sum();
        let median = if count % 2 == 1 {
            values[count / 2]
        } else {
            ((values[count / 2 - 1] + values[count / 2]) / 2.0).clamp(f64::MIN, f64::MAX)
        };
        EstimateSummary {
            count,
            min: values[0],
            max: values[count - 1],
            mean: (sum / count as f64).clamp(f64::MIN, f64::MAX),
            median,
        }
    }
}

/// The live decided honest nodes of an execution in rank order, kept
/// between snapshots (see [`Execution::snapshot_with`]).
#[derive(Default)]
pub(crate) struct Ranked {
    /// Node indices sorted by `(raw estimate, node index)`.
    order: Vec<u32>,
    /// How much of the execution's decision log `order` has taken in.
    cursor: usize,
    /// [`Metrics::crashed`] when crashed nodes last left `order`.
    crashed: u64,
    /// A merge's new nodes, sorted among themselves (scratch).
    fresh: Vec<u32>,
    /// The merged order, swapped into `order` (scratch).
    merged: Vec<u32>,
    /// From-scratch rankings so far.
    #[cfg(test)]
    rebuilds: usize,
}

/// Rank order of two nodes given their estimates: by estimate, equal
/// estimates (`-0.0` and `+0.0` included) by node index.
fn rank_cmp((x, u): (f64, u32), (y, v): (f64, u32)) -> Ordering {
    x.partial_cmp(&y)
        .expect("estimates must not be NaN")
        .then(u.cmp(&v))
}

impl Ranked {
    /// Gives every buffer room for all `honest` nodes, once, so neither a
    /// merge nor a ranking afresh grows one later.
    fn reserve(&mut self, honest: usize) {
        for buf in [&mut self.order, &mut self.fresh, &mut self.merged] {
            buf.reserve_exact(honest.saturating_sub(buf.len()));
        }
    }

    /// Merges the logged nodes `new` that are not `crashed` into `order`:
    /// sorts them, then places each by binary search past the previous
    /// one and copies the ranked runs between them.
    fn merge(&mut self, new: &[u32], crashed: &[bool], key: impl Fn(u32) -> f64) {
        let cmp = |&u: &u32, &v: &u32| rank_cmp((key(u), u), (key(v), v));
        self.fresh.clear();
        self.fresh
            .extend(new.iter().copied().filter(|&u| !crashed[u as usize]));
        self.fresh.sort_unstable_by(cmp);
        self.merged.clear();
        let mut from = 0;
        for u in &self.fresh {
            let rest = &self.order[from..];
            let at = from + rest.partition_point(|v| cmp(v, u) == Ordering::Less);
            self.merged.extend_from_slice(&self.order[from..at]);
            self.merged.push(*u);
            from = at;
        }
        self.merged.extend_from_slice(&self.order[from..]);
        std::mem::swap(&mut self.order, &mut self.merged);
    }

    /// Ranks `nodes` afresh.
    fn rebuild(&mut self, nodes: impl Iterator<Item = u32>, key: impl Fn(u32) -> f64) {
        self.order.clear();
        self.order.extend(nodes);
        self.order
            .sort_unstable_by(|&u, &v| rank_cmp((key(u), u), (key(v), v)));
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
    }
}

/// The summary of the estimates of `order`'s nodes in one pass, if
/// `order` is in rank order under `key` (`None` otherwise, NaN included:
/// the ranking afresh then panics on it). The sum runs in rank order
/// from `-0.0`, as [`Iterator::sum`] does in
/// [`EstimateSummary::from_values`], so the two agree to the bit.
fn summarize(order: &[u32], key: impl Fn(u32) -> f64) -> Option<EstimateSummary> {
    let (&first, rest) = match order.split_first() {
        Some(split) => split,
        None => return Some(EstimateSummary::default()),
    };
    let min = key(first);
    let (mut prev, mut last) = (first, min);
    let mut sum = -0.0 + min;
    for &u in rest {
        let x = key(u);
        if !(last < x || (last == x && prev < u)) {
            return None;
        }
        sum += x;
        (prev, last) = (u, x);
    }
    let count = order.len();
    let at_mid = key(order[count / 2]);
    let median = if count % 2 == 1 {
        at_mid
    } else {
        ((key(order[count / 2 - 1]) + at_mid) / 2.0).clamp(f64::MIN, f64::MAX)
    };
    Some(EstimateSummary {
        count,
        min,
        max: last,
        mean: (sum / count as f64).clamp(f64::MIN, f64::MAX),
        median,
    })
}

/// One node's state row in a `session.query {nodes: true}` reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeState {
    /// Whether the node is Byzantine.
    pub byzantine: bool,
    /// Whether the node has halted (`false` for Byzantine nodes).
    pub halted: bool,
    /// Round at which the node first decided, if it has.
    pub decided_round: Option<u64>,
    /// The node's current raw estimate, if decided.
    pub estimate: Option<f64>,
}

/// Object-safe execution surface: what a host can do with a session
/// whose graph/protocol/adversary types it does not know. Obtain one
/// from [`Execution::erase`].
pub trait DynExecution {
    /// Current round.
    fn round(&self) -> u64;
    /// `Some(reason)` once the stop condition holds.
    fn finished(&self) -> Option<StopReason>;
    /// Runs up to `rounds` rounds (early-stopping); returns the stop
    /// reason if finished. `step_rounds(1)` is a single step.
    fn step_rounds(&mut self, rounds: u64) -> Option<StopReason>;
    /// Aggregate state snapshot.
    fn snapshot(&self) -> ExecutionSnapshot;
    /// Per-node state rows.
    fn node_states(&self) -> Vec<NodeState>;
    /// Live message accounting (per-node counts and maximum sizes,
    /// fault counters).
    fn metrics(&self) -> &Metrics;
}

/// [`Execution`] + its output-lowering hook — the concrete type behind
/// every `Box<dyn DynExecution>`.
struct ErasedExecution<G, P: Protocol, A> {
    exec: Execution<G, P, A>,
    raw: fn(&P::Output) -> f64,
}

impl<G, P, A> DynExecution for ErasedExecution<G, P, A>
where
    G: Borrow<Graph>,
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    fn round(&self) -> u64 {
        self.exec.round()
    }

    fn finished(&self) -> Option<StopReason> {
        self.exec.finished()
    }

    fn step_rounds(&mut self, rounds: u64) -> Option<StopReason> {
        self.exec.step_rounds(rounds)
    }

    fn snapshot(&self) -> ExecutionSnapshot {
        self.exec.snapshot_with(self.raw)
    }

    fn node_states(&self) -> Vec<NodeState> {
        self.exec.node_states_with(self.raw)
    }

    fn metrics(&self) -> &Metrics {
        self.exec.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::protocol::NodeContext;
    use bcount_graph::gen::cycle;
    use bcount_graph::NodeId;

    /// Flood-max consensus toy: every node broadcasts the largest pid
    /// seen; decides (and halts) once its value has been stable for the
    /// graph diameter. Enough rounds and traffic to make interleaved
    /// stepping meaningful.
    struct FloodMax {
        best: u64,
        stable: u64,
        need: u64,
        decided: bool,
    }

    impl Protocol for FloodMax {
        type Message = crate::idspace::Pid;
        type Output = u64;

        fn on_round(&mut self, ctx: &mut NodeContext<'_, crate::idspace::Pid>) {
            if self.decided {
                return;
            }
            let before = self.best;
            for env in ctx.inbox() {
                if env.msg.0 > self.best {
                    self.best = env.msg.0;
                }
            }
            if self.best == before && ctx.round() > 1 {
                self.stable += 1;
            } else {
                self.stable = 0;
            }
            if self.stable >= self.need {
                self.decided = true;
            } else {
                ctx.broadcast(crate::idspace::Pid(self.best));
            }
        }

        fn output(&self) -> Option<u64> {
            self.decided.then_some(self.best)
        }

        fn has_halted(&self) -> bool {
            self.decided
        }
    }

    fn make(graph: &Graph, seed: u64) -> Execution<&Graph, FloodMax, NullAdversary> {
        make_with(graph, SimConfig::builder().seed(seed).build().unwrap())
    }

    fn make_with(graph: &Graph, config: SimConfig) -> Execution<&Graph, FloodMax, NullAdversary> {
        let need = graph.len() as u64;
        Execution::new(
            graph,
            &[],
            |_, init| FloodMax {
                best: init.pid.0,
                stable: 0,
                need,
                decided: false,
            },
            NullAdversary,
            config,
        )
    }

    /// Interleaved step/query must finish byte-identical to one `run`.
    #[test]
    fn stepped_matches_run() {
        let g = cycle(32).unwrap();
        let mut direct = make(&g, 7);
        let report = direct.run();

        let mut stepped = make(&g, 7);
        let mut guard = 0;
        loop {
            // Query between steps: reads must not perturb the execution.
            let _ = stepped.snapshot_with(|o| *o as f64);
            if stepped.step_rounds(3).is_some() {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "execution failed to stop");
        }
        let stepped_report = stepped.report().expect("finished");
        assert_eq!(report, stepped_report);
        assert_eq!(report.rounds, stepped.round());
    }

    /// A finished execution refuses to step further, whatever its stop
    /// condition.
    #[test]
    fn finished_is_sticky() {
        let g = cycle(8).unwrap();
        for (stop_when, want) in [
            (StopWhen::AllHonestHalted, StopReason::AllHalted),
            (StopWhen::AllHonestDecided, StopReason::AllDecided),
            (StopWhen::MaxRoundsOnly, StopReason::MaxRounds),
        ] {
            let config = SimConfig::builder()
                .seed(3)
                .max_rounds(64)
                .stop_when(stop_when)
                .build()
                .unwrap();
            let mut exec = make_with(&g, config);
            let reason = exec.step_rounds(u64::MAX);
            assert_eq!(reason, Some(want), "{stop_when:?}");
            let round = exec.round();
            let report = exec.report();
            let snapshot = exec.snapshot_with(|o| *o as f64);
            assert_eq!(exec.step(), reason);
            assert_eq!(exec.step_rounds(5), reason);
            assert_eq!(exec.round(), round, "step after finish must be a no-op");
            assert_eq!(exec.report(), report, "{stop_when:?}");
            assert_eq!(exec.snapshot_with(|o| *o as f64), snapshot);
        }
    }

    /// The erased surface reports the same state as the typed one.
    #[test]
    fn erased_matches_typed() {
        let g = cycle(16).unwrap();
        let mut typed = make(&g, 11);
        typed.step_rounds(4);
        let want = typed.snapshot_with(|o| *o as f64);
        let want_nodes = typed.node_states_with(|o| *o as f64);

        // Owned graph: the 'static shape a daemon session uses.
        let need = g.len() as u64;
        let mut erased = Execution::new(
            cycle(16).unwrap(),
            &[],
            |_, init| FloodMax {
                best: init.pid.0,
                stable: 0,
                need,
                decided: false,
            },
            NullAdversary,
            SimConfig::builder().seed(11).build().unwrap(),
        )
        .erase(|o| *o as f64);
        erased.step_rounds(4);
        assert_eq!(erased.round(), 4);
        assert_eq!(erased.snapshot(), want);
        assert_eq!(erased.node_states(), want_nodes);
        erased.step_rounds(u64::MAX);
        assert!(erased.finished().is_some());
    }

    #[test]
    fn builder_rejects_invalid_options() {
        use ConfigError::*;
        let cases = [
            (SimConfig::builder().max_rounds(0).build(), ZeroMaxRounds),
            (
                SimConfig::builder()
                    .fault_plan(FaultPlan {
                        drop_per_mille: 700,
                        dup_per_mille: 400,
                        ..FaultPlan::default()
                    })
                    .build(),
                FaultRatesExceedUnity,
            ),
            (
                SimConfig::builder()
                    .fault_plan(FaultPlan {
                        delay_per_mille: 5,
                        delay_rounds: 0,
                        ..FaultPlan::default()
                    })
                    .build(),
                ZeroDelayRounds,
            ),
            (
                SimConfig::builder()
                    .fault_plan(FaultPlan {
                        crashes: vec![crate::fault::CrashEvent { round: 0, node: 2 }],
                        ..FaultPlan::default()
                    })
                    .build(),
                CrashBeforeFirstRound,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got.unwrap_err(), want);
        }
    }

    #[test]
    fn builder_defaults_to_the_default_config() {
        // No options set: the default config verbatim.
        assert_eq!(SimConfig::builder().build().unwrap(), SimConfig::default());
        // One option set: only that field moves off its default.
        let c = SimConfig::builder()
            .record_round_stats(true)
            .build()
            .unwrap();
        assert_eq!(
            c,
            SimConfig {
                record_round_stats: true,
                ..SimConfig::default()
            }
        );
    }

    /// Decides in round `decide_at` (0: at construction) on `value`, and
    /// sends nothing.
    struct Ranker {
        decide_at: u64,
        value: u64,
        decided: bool,
    }

    impl Protocol for Ranker {
        type Message = crate::idspace::Pid;
        type Output = u64;

        fn on_round(&mut self, ctx: &mut NodeContext<'_, crate::idspace::Pid>) {
            self.decided |= ctx.round() >= self.decide_at;
        }

        fn output(&self) -> Option<u64> {
            self.decided.then_some(self.value)
        }
    }

    const RANKERS: usize = 200;

    /// Decision rounds 0..=100 scattered over the node indices, so equal
    /// values decide out of index order.
    fn decide_at(u: usize) -> u64 {
        (u as u64 * 37) % 101
    }

    /// Eleven values over 200 nodes: every value is tied many times.
    fn value(u: usize) -> u64 {
        (u as u64 * 7) % 11
    }

    /// Crashes a node decided at construction in round 1, then in each of
    /// rounds 40, 41, 77 and 120 a node that decided before that round.
    fn ranker_crashes() -> FaultPlan {
        let mut crashes: Vec<crate::fault::CrashEvent> = Vec::new();
        for round in [1, 40, 41, 77, 120] {
            let node = (0..RANKERS)
                .find(|&u| {
                    let picked = crashes.iter().any(|ev| ev.node as usize == u);
                    !picked && (decide_at(u) == 0 || decide_at(u) + 1 < round)
                })
                .expect("a decided node to crash") as u32;
            crashes.push(crate::fault::CrashEvent { round, node });
        }
        FaultPlan {
            crashes,
            ..FaultPlan::default()
        }
    }

    fn rankers(graph: &Graph) -> Execution<&Graph, Ranker, NullAdversary> {
        let config = SimConfig::builder()
            .max_rounds(150)
            .stop_when(StopWhen::MaxRoundsOnly)
            .fault_plan(ranker_crashes())
            .build()
            .unwrap();
        Execution::new(
            graph,
            &[],
            |u, _| Ranker {
                decide_at: decide_at(u.index()),
                value: value(u.index()),
                decided: decide_at(u.index()) == 0,
            },
            NullAdversary,
            config,
        )
    }

    /// The literal summary: every node not crashed by now, asked for its
    /// output, summarized by [`EstimateSummary::from_values`].
    fn recount(
        exec: &Execution<&Graph, Ranker, NullAdversary>,
        raw: impl Fn(&u64) -> f64,
    ) -> EstimateSummary {
        let plan = ranker_crashes();
        let crashed = |u: usize| {
            plan.crashes
                .iter()
                .any(|ev| ev.node as usize == u && ev.round <= exec.round())
        };
        let mut values: Vec<f64> = (0..RANKERS)
            .filter(|&u| !crashed(u))
            .filter_map(|u| exec.protocol(NodeId(u as u32)).and_then(|p| p.output()))
            .map(|o| raw(&o))
            .collect();
        EstimateSummary::from_values(&mut values)
    }

    /// A summary as bits, so `-0.0` and `+0.0` differ.
    fn bits(s: &EstimateSummary) -> (usize, [u64; 4]) {
        let f = [s.min, s.max, s.mean, s.median];
        (s.count, f.map(f64::to_bits))
    }

    /// Checks the ranked summary under `raw` against the recount.
    fn assert_exact(exec: &Execution<&Graph, Ranker, NullAdversary>, raw: impl Fn(&u64) -> f64) {
        let got = exec.snapshot_with(&raw).estimate;
        let want = recount(exec, &raw);
        assert_eq!(bits(&got), bits(&want), "round {}", exec.round());
    }

    fn rebuilds(exec: &Execution<&Graph, Ranker, NullAdversary>) -> usize {
        exec.ranked().borrow().rebuilds
    }

    /// Snapshots every `k` rounds merge everything decided in between —
    /// one node, or about a hundred — and drop the crashed nodes, without
    /// ever ranking afresh under one `raw`.
    #[test]
    fn ranked_summary_matches_a_recount_every_k_rounds() {
        let g = cycle(RANKERS).unwrap();
        for k in [1, 7, 50] {
            let mut exec = rankers(&g);
            let identity = |o: &u64| *o as f64;
            while exec.step_rounds(k).is_none() {
                assert_exact(&exec, identity);
            }
            assert_exact(&exec, identity);
            assert_eq!(exec.metrics().crashed, 5);
            assert_eq!(rebuilds(&exec), 0, "every {k} rounds");
        }
    }

    /// A node that decided, ranked by one snapshot and crashed before the
    /// next, leaves the ranking.
    #[test]
    fn ranked_summary_drops_a_node_crashed_between_snapshots() {
        let g = cycle(RANKERS).unwrap();
        let mut exec = rankers(&g);
        let identity = |o: &u64| *o as f64;
        exec.step_rounds(76);
        let before = exec.snapshot_with(identity).estimate.count;
        assert_exact(&exec, identity);
        exec.step();
        let crashed = ranker_crashes().crashes[3];
        assert_eq!(crashed.round, exec.round());
        assert!(decide_at(crashed.node as usize) < 76);
        let decided_now = (0..RANKERS).filter(|&u| decide_at(u) == 77).count();
        assert_eq!(
            exec.snapshot_with(identity).estimate.count,
            before - 1 + decided_now
        );
        assert_exact(&exec, identity);
        assert_eq!(rebuilds(&exec), 0);
    }

    /// Two hooks taking turns, one the reverse of the other: each call
    /// finds the ranking out of order under its `raw` and ranks afresh,
    /// still exact. Once the hook stays (the last turn's `up`), the
    /// ranking is kept again.
    #[test]
    fn ranked_summary_reranks_under_alternating_hooks() {
        let g = cycle(RANKERS).unwrap();
        let mut exec = rankers(&g);
        let up = |o: &u64| *o as f64;
        let down = |o: &u64| -(*o as f64);
        for round in 1..=60 {
            exec.step();
            if round % 2 == 0 {
                assert_exact(&exec, up);
            } else {
                assert_exact(&exec, down);
            }
        }
        // Every turn but the first, which merged the log under `down`.
        assert_eq!(rebuilds(&exec), 59);
        exec.step();
        assert_exact(&exec, up);
        exec.step();
        assert_exact(&exec, up);
        assert_eq!(rebuilds(&exec), 59);
    }

    /// `-0.0` and `+0.0` tie and rank by node index, as the stable sort
    /// leaves them; the sum starts from `-0.0`, so an all-`-0.0` mean stays
    /// `-0.0`.
    #[test]
    fn ranked_summary_orders_signed_zeros_by_node_index() {
        let g = cycle(RANKERS).unwrap();
        let mut exec = rankers(&g);
        let signed = |o: &u64| match o % 3 {
            0 => -0.0,
            1 => 0.0,
            _ => *o as f64,
        };
        let negative = |_: &u64| -0.0;
        while exec.step_rounds(3).is_none() {
            assert_exact(&exec, signed);
            assert_exact(&exec, signed);
            assert_exact(&exec, negative);
        }
        let s = exec.snapshot_with(negative).estimate;
        assert!(s.mean.is_sign_negative() && s.median.is_sign_negative());
    }

    /// A NaN estimate panics with the summary's message.
    #[test]
    #[should_panic(expected = "estimates must not be NaN")]
    fn ranked_summary_panics_on_a_nan_estimate() {
        let g = cycle(RANKERS).unwrap();
        let mut exec = rankers(&g);
        exec.step_rounds(20);
        exec.snapshot_with(|o| if *o == 3 { f64::NAN } else { *o as f64 });
    }

    #[test]
    fn estimate_summary() {
        let mut vals = [3.0, 1.0, 2.0];
        let s = EstimateSummary::from_values(&mut vals);
        assert_eq!(
            (s.count, s.min, s.max, s.mean, s.median),
            (3, 1.0, 3.0, 2.0, 2.0)
        );
        let mut vals = [4.0, 1.0, 2.0, 3.0];
        let s = EstimateSummary::from_values(&mut vals);
        assert_eq!((s.count, s.median), (4, 2.5));
        assert_eq!(EstimateSummary::from_values(&mut []).count, 0);
        // Saturated estimates (a broken baseline) keep a finite summary.
        let s = EstimateSummary::from_values(&mut [f64::MAX, f64::MAX]);
        assert_eq!((s.mean, s.median), (f64::MAX, f64::MAX));
    }
}
