//! Steppable execution facade, validated configuration builder, and the
//! object-safe session surface embedded by `bcountd`.
//!
//! [`engine::Simulation`](crate::engine::Simulation) is the engine: it
//! owns the buffers and runs rounds. This module is the *embedding API*
//! on top of it, redesigned for long-lived hosts:
//!
//! * [`SimConfigBuilder`] — constructs a [`SimConfig`] while rejecting
//!   values the engine cannot run meaningfully (a zero round budget, an
//!   ID width outside `1..=64`, an inconsistent fault plan).
//!   Field-poking a `SimConfig` still works; the builder exists for
//!   callers that want a hard error at construction time instead.
//! * [`Execution`] — a steppable facade over `Simulation` whose stepping
//!   discipline is exactly [`Simulation::run`]'s loop (stop-check
//!   *before* each round), so an execution driven round-by-round — or
//!   paused and resumed across daemon requests — finishes in the same
//!   state, byte for byte, as one driven by a single `run` call.
//! * [`DynExecution`] — the object-safe erasure of `Execution` over its
//!   graph-ownership, protocol, and adversary type parameters, letting a
//!   host hold heterogeneous live executions in one table. Type-specific
//!   output is lowered to `f64` through the raw-estimate hook given to
//!   [`Execution::erase`]; everything else ([`ExecutionSnapshot`],
//!   [`NodeState`]) is already type-free.

use std::borrow::Borrow;
use std::fmt;

use bcount_graph::{Graph, NodeId};

use crate::adversary::Adversary;
use crate::engine::{
    NodeInit, PhaseSend, PhaseShared, SimConfig, SimReport, Simulation, StopReason, StopWhen,
};
use crate::fault::FaultPlan;
use crate::message::Inbox;
use crate::metrics::Metrics;
use crate::protocol::Protocol;

/// A configuration [`SimConfigBuilder::build`] refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_rounds(0)`: the execution could never take a step.
    ZeroMaxRounds,
    /// `id_bits` outside `1..=64`: [`crate::idspace::Pid`] is a 64-bit
    /// identity, and zero-width IDs make message-size accounting
    /// meaningless.
    BadIdBits,
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
            ConfigError::BadIdBits => write!(f, "id_bits must be in 1..=64"),
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
    id_bits: Option<u32>,
    stop_when: Option<StopWhen>,
    record_round_stats: Option<bool>,
    parallel: Option<bool>,
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

    /// Modelled ID width in bits; see [`SimConfig::id_bits`].
    pub fn id_bits(mut self, id_bits: u32) -> Self {
        self.id_bits = Some(id_bits);
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

    /// Run compute on the worker pool; see [`SimConfig::parallel`].
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = Some(on);
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
        if let Some(bits) = self.id_bits {
            if bits == 0 || bits > 64 {
                return Err(ConfigError::BadIdBits);
            }
        }
        if let Some(plan) = &self.fault {
            plan.validate()?;
        }
        let d = SimConfig::default();
        Ok(SimConfig {
            seed: self.seed.unwrap_or(d.seed),
            max_rounds: self.max_rounds.unwrap_or(d.max_rounds),
            id_bits: self.id_bits.unwrap_or(d.id_bits),
            stop_when: self.stop_when.unwrap_or(d.stop_when),
            record_round_stats: self.record_round_stats.unwrap_or(d.record_round_stats),
            parallel: self.parallel.unwrap_or(d.parallel),
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

/// A steppable execution: the embedding facade over
/// [`Simulation`].
///
/// The facade exposes exactly the surface a host needs — construct,
/// step, query, finish — and nothing else (the engine's phase-level
/// benchmark probes live behind the unstable `bench-probes` feature).
/// Its invariant is the *stepping discipline*: [`Execution::step`]
/// checks the stop condition **before** running a round, precisely as
/// [`Simulation::run`]'s loop does, so any interleaving of `step` /
/// `step_rounds` / query calls that reaches the stop condition yields an
/// execution state byte-identical to a single uninterrupted
/// [`Execution::run`].
pub struct Execution<G, P: Protocol, A> {
    sim: Simulation<G, P, A>,
}

impl<G, P, A> Execution<G, P, A>
where
    G: Borrow<Graph>,
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    /// Creates an execution; parameters are [`Simulation::new`]'s. `G` is
    /// anything borrowing a [`Graph`]: pass `&graph` from a harness, or
    /// an owned `Graph` when the execution must outlive its creator's
    /// stack frame (daemon sessions).
    pub fn new(
        graph: G,
        byzantine: &[NodeId],
        factory: impl FnMut(NodeId, &NodeInit) -> P,
        adversary: A,
        config: SimConfig,
    ) -> Self {
        Execution {
            sim: Simulation::new(graph, byzantine, factory, adversary, config),
        }
    }

    /// Wraps an already-constructed engine.
    pub fn from_simulation(sim: Simulation<G, P, A>) -> Self {
        Execution { sim }
    }

    /// Current round (0 before the first step).
    pub fn round(&self) -> u64 {
        self.sim.round()
    }

    /// `Some(reason)` once the configured stop condition holds — the same
    /// check [`Simulation::run`] makes before each round, so a finished
    /// execution will not step further.
    pub fn finished(&self) -> Option<StopReason> {
        self.sim.stop_reason()
    }

    /// Runs one round unless the execution is already finished. Returns
    /// the stop reason if the execution is (or just) finished.
    pub fn step(&mut self) -> Option<StopReason> {
        if let Some(reason) = self.sim.stop_reason() {
            return Some(reason);
        }
        self.sim.step();
        self.sim.stop_reason()
    }

    /// Runs up to `rounds` rounds, stopping early at the stop condition.
    /// Returns the stop reason if the execution finished on the way.
    pub fn step_rounds(&mut self, rounds: u64) -> Option<StopReason> {
        for _ in 0..rounds {
            if let Some(reason) = self.sim.stop_reason() {
                return Some(reason);
            }
            self.sim.step();
        }
        self.sim.stop_reason()
    }

    /// Runs to the stop condition and reports — [`Simulation::run`].
    pub fn run(&mut self) -> SimReport<P::Output> {
        self.sim.run()
    }

    /// The full typed report, available once the execution finished.
    pub fn report(&self) -> Option<SimReport<P::Output>> {
        self.sim.stop_reason().map(|r| self.sim.report(r))
    }

    /// The execution's graph.
    pub fn graph(&self) -> &Graph {
        self.sim.graph()
    }

    /// Live message accounting; see [`Simulation::metrics`].
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// The protocol instance of an honest, in-flight node.
    pub fn protocol(&self, u: NodeId) -> Option<&P> {
        self.sim.protocol(u)
    }

    /// Node `u`'s delivered inbox view; see [`Simulation::inbox`].
    pub fn inbox(&self, u: NodeId) -> Inbox<'_, P::Message> {
        self.sim.inbox(u)
    }

    /// Whether the active-set schedule is live; see
    /// [`Simulation::sparse_schedule_active`].
    pub fn sparse_schedule_active(&self) -> bool {
        self.sim.sparse_schedule_active()
    }

    /// Aggregate snapshot of the current state. `raw` lowers a node's
    /// typed output to its raw numeric estimate (identity for counting
    /// protocols; e.g. `|o| *o as f64`).
    pub fn snapshot_with(&self, raw: impl Fn(&P::Output) -> f64) -> ExecutionSnapshot {
        let n = self.sim.graph().len();
        let byz = self.sim.byzantine_flags();
        let halted = self.sim.halted_flags();
        let crashed = self.sim.crashed_flags();
        let decided_rounds = self.sim.decided_rounds();
        let byzantine = byz.iter().filter(|b| **b).count();
        let mut decided = 0usize;
        let mut halted_count = 0usize;
        let mut estimates: Vec<f64> = Vec::new();
        for u in 0..n {
            // Crashed nodes leave the census, matching the engine's stop
            // condition: a crash-stopped node will never decide or halt.
            if byz[u] || crashed[u] {
                continue;
            }
            if halted[u] {
                halted_count += 1;
            }
            if decided_rounds[u].is_some() {
                decided += 1;
            }
            if let Some(out) = self.sim.protocol(NodeId(u as u32)).and_then(|p| p.output()) {
                estimates.push(raw(&out));
            }
        }
        let metrics = self.sim.metrics();
        let honest_nodes = || (0..n).filter(|&u| !byz[u]);
        ExecutionSnapshot {
            round: self.sim.round(),
            n,
            honest: n - byzantine,
            byzantine,
            decided,
            halted: halted_count,
            stop: self.sim.stop_reason(),
            estimate: EstimateSummary::from_values(&mut estimates),
            messages_total: metrics.total_messages(honest_nodes()),
            bits_total: metrics.total_bits(honest_nodes()),
            dropped: metrics.dropped,
            duplicated: metrics.duplicated,
            delayed: metrics.delayed,
            crashed: metrics.crashed,
        }
    }

    /// Per-node state rows (index = graph node). `raw` as in
    /// [`Execution::snapshot_with`].
    pub fn node_states_with(&self, raw: impl Fn(&P::Output) -> f64) -> Vec<NodeState> {
        let n = self.sim.graph().len();
        let byz = self.sim.byzantine_flags();
        let halted = self.sim.halted_flags();
        let decided_rounds = self.sim.decided_rounds();
        (0..n)
            .map(|u| NodeState {
                byzantine: byz[u],
                halted: halted[u],
                decided_round: decided_rounds[u],
                estimate: self
                    .sim
                    .protocol(NodeId(u as u32))
                    .and_then(|p| p.output())
                    .map(|out| raw(&out)),
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
            (values[count / 2 - 1] + values[count / 2]) / 2.0
        };
        EstimateSummary {
            count,
            min: values[0],
            max: values[count - 1],
            mean: sum / count as f64,
            median,
        }
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::protocol::NodeContext;
    use bcount_graph::gen::cycle;

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
            SimConfig::builder().seed(seed).build().unwrap(),
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

    /// A finished execution refuses to step further.
    #[test]
    fn finished_is_sticky() {
        let g = cycle(8).unwrap();
        let mut exec = make(&g, 3);
        let reason = exec.step_rounds(u64::MAX);
        assert!(reason.is_some());
        let round = exec.round();
        assert_eq!(exec.step(), reason);
        assert_eq!(exec.round(), round, "step after finish must be a no-op");
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
            (SimConfig::builder().id_bits(0).build(), BadIdBits),
            (SimConfig::builder().id_bits(65).build(), BadIdBits),
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
        let c = SimConfig::builder().parallel(true).build().unwrap();
        assert!(c.parallel);
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
    }
}
