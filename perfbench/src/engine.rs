//! The three engine workloads: Algorithm 2 under beacon spam (clean and
//! with a fault plan) and Algorithm 1 under edge injection, each driven
//! through the public `Execution` facade.
//!
//! Every execution is a closed loop of one `Execution::step` followed by
//! `Execution::snapshot_with` (the read a host makes between rounds, and
//! the refresh `bcountd` makes after each step). A replay rebuilds the
//! execution from its inputs and re-executes it to the stop without
//! per-round reads, in a process that has run nothing else yet: that is
//! what journal recovery after a crash does. Every execution of one seed
//! must end in the same snapshot.
//!
//! Timed samples are process CPU time ([`cpu_s`]), carry the epoch of the
//! [`Pace`] probe before them and are reported in reference seconds; a
//! probe runs every [`PROBE_EVERY`] rounds, outside every timed interval.

use std::hint::black_box;
use std::time::Instant;

use bcount_bench::experiments::{CONGEST_BAND, LOCAL_BAND};
use bcount_bench::runners::{
    far_honest_nodes, network, spread_byzantine, theorem1_budget, theorem2_budget,
};
use bcount_core::adversary::{BeaconSpamAdversary, EdgeInjectorAdversary};
use bcount_core::congest::{CongestCounting, CongestEstimate, CongestParams};
use bcount_core::estimate::{Band, EstimateReport};
use bcount_core::local::checks::run_expansion_checks;
use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate};
use bcount_graph::{Graph, NodeId, TopologyView};
use bcount_sim::{
    Adversary, CrashEvent, Execution, ExecutionSnapshot, FaultPlan, PhaseSend, PhaseShared, Pid,
    Protocol, SimConfig, SimReport, StopReason, StopWhen,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pace::{cpu_s, Pace};
use crate::trace::{median, percentile, Recorder};
use crate::{Budget, LoopStats, Metric, Outcome};

/// Degree of the `H(n, d)` networks.
const D: usize = 8;
/// Size of the CONGEST networks.
const CONGEST_N: usize = 4096;
/// Size of the LOCAL network. Algorithm 1 floods whole views, so memory
/// grows fast with n: n = 1024 peaks near 1.7 GB.
const LOCAL_N: usize = 1024;
/// Theorem 2's budget exponent: B(n) = ⌊n^{1/2 − ξ}⌋ Byzantine nodes.
const XI: f64 = 0.05;
/// Theorem 1's budget exponent: B(n) = ⌊n^{1 − γ}⌋ Byzantine nodes.
const GAMMA: f64 = 0.7;
/// Round cap of the CONGEST executions. Under beacon spam the honest
/// nodes the adversary strings along never all decide, so every CONGEST
/// execution runs exactly this many rounds and the work is fixed.
const CONGEST_ROUND_CAP: u64 = 1000;
/// Safety cap of the LOCAL executions (they halt after about five rounds).
const LOCAL_ROUND_CAP: u64 = 200;
/// Snapshots after each LOCAL step, as `daemon_durable` sends four
/// queries per step. With five rounds per execution, one snapshot per
/// step would leave too few query samples; the CONGEST workloads take
/// one per step (a thousand per execution).
const LOCAL_QUERIES_PER_STEP: usize = 4;
/// Set-ups timed on their own per run, so `setup_s` is a median of many.
const SETUP_SAMPLES: usize = 12;
/// Rounds between two speed probes: about a tenth of a second of
/// stepping on the CONGEST workloads, so a probe costs about 3% of it.
const PROBE_EVERY: u64 = 25;

/// Theorem 2 (Algorithm 2 under B(n) ≤ n^{1/2−ξ}): all but a β-fraction
/// of honest nodes decide within the band w.h.p. Encoded on the nodes the
/// theorem speaks about — honest nodes at distance ≥ 2 from every
/// Byzantine node — as: at least this share of them decided in
/// `CONGEST_BAND` by the round cap (measured ≈ 0.98, with or without the
/// fault plan).
const CONGEST_MIN_FAR_IN_BAND: f64 = 0.90;
/// Theorem 2's small-message claim (experiment E5): at least (1 − β)n
/// honest nodes only ever send messages of O(log n) bits, i.e. at most
/// `(⌈log_d n⌉ + 6)·64 + 2` bits. Encoded as: at least this share of
/// honest nodes stayed within that limit (measured 1.0).
const CONGEST_MIN_SMALL_MSG: f64 = 0.95;
/// Theorem 1 (Algorithm 1 under B(n) ≤ n^{1−γ}): every honest node
/// terminates, and 1 − o(1) of them decide within the band. Encoded as:
/// the execution stops with every honest node halted, and at least this
/// share of far-honest nodes decided in `LOCAL_BAND` (measured 1.0).
const LOCAL_MIN_FAR_IN_BAND: f64 = 0.95;

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Algorithm 2 on H(4096, 8) under beacon spam.
    CongestSpam,
    /// `CongestSpam` plus a seeded fault plan.
    CongestFaulty,
    /// Algorithm 1 on H(1024, 8) under edge injection.
    LocalInject,
}

/// A workload's inputs, all generated from the workload seed.
#[derive(Debug, Clone)]
pub struct Setup {
    n: usize,
    graph_seed: u64,
    byz: Vec<NodeId>,
    config: SimConfig,
    /// Snapshots taken after each step.
    queries_per_step: usize,
    /// The adversary's own seed (edge injection only).
    adversary_seed: u64,
    /// Band and share the output check applies to far-honest nodes.
    band: Band,
    min_far_in_band: f64,
}

impl Setup {
    /// The inputs `kind` runs on under workload seed `seed`.
    pub fn new(kind: Kind, seed: u64) -> Setup {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph_seed: u64 = rng.gen();
        let sim_seed: u64 = rng.gen();
        let adversary_seed: u64 = rng.gen();
        let (n, budget, cap, stop_when, queries_per_step) = match kind {
            Kind::CongestSpam | Kind::CongestFaulty => (
                CONGEST_N,
                theorem2_budget(CONGEST_N, XI),
                CONGEST_ROUND_CAP,
                StopWhen::AllHonestDecided,
                1,
            ),
            Kind::LocalInject => (
                LOCAL_N,
                theorem1_budget(LOCAL_N, GAMMA),
                LOCAL_ROUND_CAP,
                StopWhen::AllHonestHalted,
                LOCAL_QUERIES_PER_STEP,
            ),
        };
        let byz = spread_byzantine(n, budget);
        let mut builder = SimConfig::builder()
            .seed(sim_seed)
            .max_rounds(cap)
            .stop_when(stop_when);
        if kind == Kind::CongestFaulty {
            builder = builder.fault_plan(fault_plan(&mut rng, n, &byz, cap));
        }
        let (band, min_far_in_band) = match kind {
            Kind::LocalInject => (LOCAL_BAND, LOCAL_MIN_FAR_IN_BAND),
            _ => (CONGEST_BAND, CONGEST_MIN_FAR_IN_BAND),
        };
        Setup {
            n,
            graph_seed,
            byz,
            config: builder.build().expect("the workload config is valid"),
            queries_per_step,
            adversary_seed,
            band,
            min_far_in_band,
        }
    }

    fn config(&self, record_round_stats: bool) -> SimConfig {
        SimConfig {
            record_round_stats,
            ..self.config.clone()
        }
    }
}

/// Per-mille link-fault rates of `congest_faulty`, and its crash count.
const DROP_PER_MILLE: u16 = 20;
const DUP_PER_MILLE: u16 = 10;
const DELAY_PER_MILLE: u16 = 20;
const DELAY_ROUNDS: u64 = 2;
const CRASHES: usize = 4;

/// Link faults at fixed rates plus a few crash-stops of honest nodes at
/// seeded rounds within the cap.
fn fault_plan(rng: &mut ChaCha8Rng, n: usize, byz: &[NodeId], cap: u64) -> FaultPlan {
    let mut crashes = Vec::with_capacity(CRASHES);
    while crashes.len() < CRASHES {
        let node = rng.gen_range(0..n as u32);
        let round = rng.gen_range(1..=cap);
        let taken = crashes.iter().any(|c: &CrashEvent| c.node == node);
        if !taken && !byz.contains(&NodeId(node)) {
            crashes.push(CrashEvent { round, node });
        }
    }
    FaultPlan {
        seed: rng.gen(),
        crashes,
        drop_per_mille: DROP_PER_MILLE,
        dup_per_mille: DUP_PER_MILLE,
        delay_per_mille: DELAY_PER_MILLE,
        delay_rounds: DELAY_ROUNDS,
    }
}

/// How one protocol × adversary pairing is built and read.
trait Cell {
    type P: Protocol + PhaseSend;
    type A: Adversary<Self::P>;
    fn build(s: &Setup, g: Graph, config: SimConfig) -> Execution<Graph, Self::P, Self::A>;
    /// The raw estimate of an output, on the `ln n` scale of the bands.
    fn raw(out: &<Self::P as Protocol>::Output) -> f64;
    /// A node's topology view, for protocols that keep one.
    fn view(_node: &Self::P) -> Option<&TopologyView<Pid>> {
        None
    }
}

struct Congest;

impl Cell for Congest {
    type P = CongestCounting;
    type A = BeaconSpamAdversary;
    fn build(s: &Setup, g: Graph, config: SimConfig) -> Execution<Graph, Self::P, Self::A> {
        let params = CongestParams::default();
        Execution::new(
            g,
            &s.byz,
            |_, init| CongestCounting::new(params, init),
            BeaconSpamAdversary::new(params),
            config,
        )
    }
    fn raw(out: &CongestEstimate) -> f64 {
        f64::from(out.estimate)
    }
}

struct Local;

impl Cell for Local {
    type P = LocalCounting;
    type A = EdgeInjectorAdversary;
    fn build(s: &Setup, g: Graph, config: SimConfig) -> Execution<Graph, Self::P, Self::A> {
        let cfg = local_config();
        Execution::new(
            g,
            &s.byz,
            |_, init| LocalCounting::new(cfg, init),
            EdgeInjectorAdversary::new(s.adversary_seed),
            config,
        )
    }
    fn raw(out: &LocalEstimate) -> f64 {
        f64::from(out.radius)
    }
    fn view(node: &LocalCounting) -> Option<&TopologyView<Pid>> {
        Some(node.view())
    }
}

fn local_config() -> LocalConfig {
    LocalConfig {
        max_degree: D + 2,
        ..LocalConfig::default()
    }
}

/// One live execution, finished.
struct Live<C: Cell> {
    exec: Execution<Graph, C::P, C::A>,
    report: SimReport<<C::P as Protocol>::Output>,
    snapshot: ExecutionSnapshot,
    /// Set-up CPU seconds, with its probe epoch.
    setup_s: (usize, f64),
    /// Set-up plus the step/snapshot loop, probes included, wall seconds.
    pass_s: f64,
    /// CPU time of every step and snapshot, with its probe epoch.
    step_ms: Vec<(usize, f64)>,
    query_ms: Vec<(usize, f64)>,
}

impl<C: Cell> Live<C>
where
    <C::P as Protocol>::Message: PhaseShared,
{
    /// Generates the graph, builds the execution, and runs the closed
    /// step/snapshot loop to the stop condition, probing the core's speed
    /// before the set-up and every [`PROBE_EVERY`] rounds.
    fn run(s: &Setup, record_round_stats: bool, rec: &mut Recorder, pace: &mut Pace) -> Live<C> {
        let start = Instant::now();
        pace.probe();
        let t = cpu_s();
        let g = rec.time("graph.gen", 0, || network(s.n, D, s.graph_seed));
        let mut exec = rec.time("sim.new", 0, || {
            C::build(s, g, s.config(record_round_stats))
        });
        let setup_s = (pace.epoch(), cpu_s() - t);
        let mut step_ms = Vec::new();
        let mut query_ms = Vec::new();
        let snapshot = loop {
            let round = exec.round() + 1;
            if round % PROBE_EVERY == 1 {
                pace.probe();
            }
            let t = cpu_s();
            let span = rec.begin("sim.step", round);
            let stop = exec.step();
            rec.end(span);
            step_ms.push((pace.epoch(), (cpu_s() - t) * 1e3));
            let mut snapshot = None;
            for _ in 0..s.queries_per_step {
                let t = cpu_s();
                let span = rec.begin("sim.snapshot", round);
                snapshot = Some(black_box(exec.snapshot_with(C::raw)));
                rec.end(span);
                query_ms.push((pace.epoch(), (cpu_s() - t) * 1e3));
            }
            if stop.is_some() {
                break snapshot.expect("every step is followed by a query");
            }
        };
        pace.probe();
        let pass_s = start.elapsed().as_secs_f64();
        let report = exec.report().expect("the loop ran to the stop condition");
        Live {
            exec,
            report,
            snapshot,
            setup_s,
            pass_s,
            step_ms,
            query_ms,
        }
    }

    /// CPU seconds spent stepping, as measured.
    fn wall_s(&self) -> f64 {
        self.step_ms.iter().map(|&(_, t)| t).sum::<f64>() / 1e3
    }
}

/// Builds the execution and runs it to the stop condition without
/// per-round reads, as journal replay does, probing every
/// [`PROBE_EVERY`] rounds; returns the final snapshot and the reference
/// seconds taken.
fn replay<C: Cell>(s: &Setup, pace: &mut Pace) -> (ExecutionSnapshot, f64)
where
    <C::P as Protocol>::Message: PhaseShared,
{
    pace.probe();
    let t = cpu_s();
    let g = network(s.n, D, s.graph_seed);
    let mut exec = C::build(s, g, s.config(false));
    let mut parts = vec![(pace.epoch(), cpu_s() - t)];
    let snapshot = loop {
        pace.probe();
        let t = cpu_s();
        let stop = exec.step_rounds(PROBE_EVERY);
        let snapshot = stop.map(|_| exec.snapshot_with(C::raw));
        parts.push((pace.epoch(), cpu_s() - t));
        if let Some(snapshot) = snapshot {
            break snapshot;
        }
    };
    pace.probe();
    (snapshot, pace.to_ref_all(&parts).iter().sum())
}

/// Times one set-up (graph generation plus `Execution::new`) and drops
/// it; returns reference seconds.
fn setup_only<C: Cell>(s: &Setup, pace: &mut Pace) -> f64
where
    <C::P as Protocol>::Message: PhaseShared,
{
    pace.probe();
    let start = cpu_s();
    let g = network(s.n, D, s.graph_seed);
    let exec = black_box(C::build(s, g, s.config(false)));
    let took = cpu_s() - start;
    pace.probe();
    drop(exec);
    pace.to_ref(pace.epoch() - 1, took)
}

/// What the output checks measured on one finished execution.
#[derive(Debug, Clone, PartialEq)]
struct Quality {
    honest: usize,
    decided: usize,
    far_in_band: f64,
    small_msg: f64,
    all_halted: bool,
}

fn quality<C: Cell>(s: &Setup, live: &Live<C>) -> Quality {
    let g = live.exec.graph();
    let report = &live.report;
    let n = g.len();
    let estimate = |u: usize| report.outputs[u].as_ref().map(C::raw);
    let far = far_honest_nodes(g, &s.byz, 2);
    let far_report = EstimateReport::evaluate(n, far.iter().map(|&u| estimate(u)), s.band);
    let honest: Vec<usize> = report.honest_nodes().collect();
    let small = report
        .metrics
        .count_within_message_limit(honest.iter().copied(), small_message_limit(n));
    Quality {
        honest: honest.len(),
        decided: honest
            .iter()
            .filter(|&&u| report.outputs[u].is_some())
            .count(),
        far_in_band: far_report.in_band_fraction(),
        small_msg: small as f64 / honest.len() as f64,
        all_halted: report.stop_reason == StopReason::AllHalted,
    }
}

/// E5's O(log n)-bit limit: a beacon path of `⌈log_d n⌉ + 6` 64-bit IDs
/// plus two tag bits.
fn small_message_limit(n: usize) -> u64 {
    let hops = ((n as f64).ln() / (D as f64).ln()).ceil() as u64;
    (hops + 6) * 64 + 2
}

/// The paper's claims for this workload, checked on one execution;
/// returns the failed checks.
fn check<C: Cell>(kind: Kind, s: &Setup, live: &Live<C>) -> Vec<String> {
    let q = quality(s, live);
    let mut failures = Vec::new();
    if q.far_in_band < s.min_far_in_band {
        failures.push(format!(
            "far-honest share in band {:.3} < {}",
            q.far_in_band, s.min_far_in_band
        ));
    }
    match kind {
        Kind::CongestSpam | Kind::CongestFaulty => {
            if s.byz.len() > theorem2_budget(s.n, XI) {
                failures.push("Byzantine count exceeds the Theorem 2 budget".into());
            }
            if q.small_msg < CONGEST_MIN_SMALL_MSG {
                failures.push(format!(
                    "small-message share {:.3} < {CONGEST_MIN_SMALL_MSG}",
                    q.small_msg
                ));
            }
        }
        Kind::LocalInject => {
            if s.byz.len() > theorem1_budget(s.n, GAMMA) {
                failures.push("Byzantine count exceeds the Theorem 1 budget".into());
            }
            if !q.all_halted {
                failures.push("not every honest node halted".into());
            }
        }
    }
    if kind == Kind::CongestFaulty {
        let snap = &live.snapshot;
        let counters = [snap.dropped, snap.duplicated, snap.delayed, snap.crashed];
        if counters.contains(&0) {
            failures.push(format!(
                "fault counters must all be non-zero (dropped, duplicated, delayed, crashed) = {counters:?}"
            ));
        }
    }
    failures
}

/// Runs `kind` on `seed` within `seconds` (see [`Budget`]): the timed run (`trace` off)
/// or the traced run.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, rec: &mut Recorder) -> Outcome {
    let s = Setup::new(kind, seed);
    match (kind, trace) {
        (Kind::LocalInject, false) => timed::<Local>(kind, &s, seconds),
        (Kind::LocalInject, true) => traced::<Local>(kind, &s, seconds, rec),
        (_, false) => timed::<Congest>(kind, &s, seconds),
        (_, true) => traced::<Congest>(kind, &s, seconds, rec),
    }
}

/// Counts attempted and failed executions, including the determinism
/// check: every execution of one seed must end in the same snapshot.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<ExecutionSnapshot>,
}

impl Tally {
    fn record(&mut self, what: &str, snapshot: &ExecutionSnapshot, mut failures: Vec<String>) {
        match &self.reference {
            None => self.reference = Some(snapshot.clone()),
            Some(first) if first != snapshot => failures.push(format!(
                "not deterministic: final snapshot differs from the first execution's \
                 (decided {} vs {}, messages {} vs {}, median {} vs {})",
                snapshot.decided,
                first.decided,
                snapshot.messages_total,
                first.messages_total,
                snapshot.estimate.median,
                first.estimate.median
            )),
            Some(_) => {}
        }
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("perfbench: {what} failed: {f}");
            }
        }
    }
}

/// One replay, then live executions while the budget allows (at least
/// one).
///
/// The replay is the process's first execution and page-faults its memory
/// in, as recovery in a restarted daemon does; it gives `recovery_s`, and
/// its snapshot is the reference the determinism check compares every
/// later execution against. The live executions reuse the allocator's
/// freed memory, so they are comparable with each other (`peak_rss_mb`
/// still reports the footprint). One replay per run, rather than one per
/// live execution, leaves room for three live executions in a run.
fn timed<C: Cell>(kind: Kind, s: &Setup, seconds: f64) -> Outcome
where
    <C::P as Protocol>::Message: PhaseShared,
{
    let mut budget = Budget::new(seconds);
    let mut off = Recorder::new(false);
    let mut pace = Pace::new();
    let mut tally = Tally::default();
    let (snapshot, recovery_s) = replay::<C>(s, &mut pace);
    tally.record("replay", &snapshot, Vec::new());
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_only::<C>(s, &mut pace))
        .collect();
    let (mut executions, mut stats) = (0, LoopStats::default());
    while budget.another(executions, 1) {
        let live = Live::<C>::run(s, false, &mut off, &mut pace);
        tally.record("live execution", &live.snapshot, check(kind, s, &live));
        setups.push(pace.to_ref(live.setup_s.0, live.setup_s.1));
        let step_ms = pace.to_ref_all(&live.step_ms);
        let query_ms = pace.to_ref_all(&live.query_ms);
        let wall_s = step_ms.iter().sum::<f64>() / 1e3;
        let windows = pace.window_sums(live.step_ms.iter().chain(&live.query_ms));
        stats.add(&step_ms, &query_ms, wall_s, windows);
        executions += 1;
    }
    pace.log();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setups)),
        Metric::new("peak_rss_mb", crate::peak_rss_mb()),
        // The replay steps in the same probe windows as the live loop, so
        // the loop's fast share applies to it too.
        Metric::new("recovery_s", recovery_s * stats.share()),
    ];
    metrics.extend(stats.metrics());
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Warm-up replay, then pairs of one untraced and one traced live execution
/// while the budget allows (at least one pair); the per-layer metrics
/// come from the traced ones.
fn traced<C: Cell>(kind: Kind, s: &Setup, seconds: f64, rec: &mut Recorder) -> Outcome
where
    <C::P as Protocol>::Message: PhaseShared,
{
    let mut budget = Budget::new(seconds);
    let mut off = Recorder::new(false);
    let mut pace = Pace::new();
    let mut tally = Tally::default();
    tally.record("warm-up replay", &replay::<C>(s, &mut pace).0, Vec::new());
    let (mut untraced_s, mut traced_s, mut step_totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while budget.another(traced_s.len(), 1) {
        drop(last.take()); // one execution in memory at a time
        let plain = Live::<C>::run(s, false, &mut off, &mut pace);
        tally.record(
            "untraced execution",
            &plain.snapshot,
            check(kind, s, &plain),
        );
        untraced_s.push(plain.pass_s);
        drop(plain);
        let live = Live::<C>::run(s, true, rec, &mut pace);
        tally.record("traced execution", &live.snapshot, check(kind, s, &live));
        traced_s.push(live.pass_s);
        step_totals.push(live.wall_s());
        last = Some(live);
    }
    let live = last.expect("the loop runs at least once");
    let mut metrics = layer_metrics(kind, s, &live, rec);
    metrics.push(Metric::new("sim.step_s.total", median(&step_totals)));
    metrics.extend(crate::overhead_metrics(
        median(&traced_s),
        median(&untraced_s),
    ));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The bcount-graph, bcount-sim and bcount-core metrics of a traced run.
fn layer_metrics<C: Cell>(
    kind: Kind,
    s: &Setup,
    live: &Live<C>,
    rec: &mut Recorder,
) -> Vec<Metric> {
    let report = &live.report;
    let honest: Vec<usize> = report.honest_nodes().collect();
    let trace = &report.metrics.round_trace;
    let honest_msgs: u64 = trace.iter().map(|t| t.honest_messages).sum();
    let byz_msgs: u64 = trace.iter().map(|t| t.byzantine_messages).sum();
    let q = quality(s, live);
    let steps = rec.durations_ms("sim.step");
    let max_msg_bits = honest
        .iter()
        .map(|&u| report.metrics.per_node[u].max_message_bits)
        .max()
        .unwrap_or(0);
    let mut metrics = vec![
        Metric::new("graph.gen_s", median(&rec.durations_ms("graph.gen")) / 1e3),
        Metric::new("sim.new_s", median(&rec.durations_ms("sim.new")) / 1e3),
        Metric::new("sim.step_ms.p50", percentile(&steps, 50.0)),
        Metric::new("sim.step_ms.p99", percentile(&steps, 99.0)),
        Metric::new("sim.step_ms.max", percentile(&steps, 100.0)),
        Metric::new("sim.honest_msgs", honest_msgs as f64),
        Metric::new("sim.byz_msgs", byz_msgs as f64),
        Metric::new(
            "sim.msgs_per_step_s",
            (honest_msgs + byz_msgs) as f64 / live.wall_s(),
        ),
        Metric::new(
            "sim.bits_total",
            report.metrics.total_bits(honest.iter().copied()) as f64,
        ),
        Metric::new("sim.max_msg_bits", max_msg_bits as f64),
        Metric::new("sim.fault.dropped", report.metrics.dropped as f64),
        Metric::new("sim.fault.duplicated", report.metrics.duplicated as f64),
        Metric::new("sim.fault.delayed", report.metrics.delayed as f64),
        Metric::new("sim.fault.crashed", report.metrics.crashed as f64),
        Metric::new(
            "sim.snapshot_us",
            median(&rec.durations_ms("sim.snapshot")) * 1e3,
        ),
        Metric::new("core.decided_frac", q.decided as f64 / q.honest as f64),
        Metric::new("core.in_band_frac", q.far_in_band),
        Metric::new("core.small_msg_frac", q.small_msg),
        Metric::new(
            "core.msgs_per_decided",
            honest_msgs as f64 / q.decided.max(1) as f64,
        ),
        Metric::new("core.decided_round.p50", decision_wave(trace, 0.50)),
        Metric::new("core.decided_round.p95", decision_wave(trace, 0.95)),
    ];
    if kind == Kind::LocalInject {
        metrics.extend(view_metrics(live, rec));
    }
    metrics
}

/// First round by which `share` of the finally-decided honest nodes had
/// decided, read off the per-round trace.
fn decision_wave(trace: &[bcount_sim::RoundTrace], share: f64) -> f64 {
    let total = trace.last().map_or(0, |t| t.decided) as f64;
    trace
        .iter()
        .find(|t| t.decided as f64 >= share * total)
        .map_or(0.0, |t| t.round as f64)
}

/// Every this-many-th honest node's final view is cloned and re-checked.
const VIEW_SAMPLE_STRIDE: usize = 8;

/// `TopologyView::clone` and `run_expansion_checks` on a sample of the
/// final honest views, p50 in ms.
fn view_metrics<C: Cell>(live: &Live<C>, rec: &mut Recorder) -> Vec<Metric> {
    let cfg = local_config();
    let report = &live.report;
    for u in report.honest_nodes().step_by(VIEW_SAMPLE_STRIDE) {
        let Some(node_view) = live.exec.protocol(NodeId(u as u32)).and_then(C::view) else {
            continue;
        };
        let view = rec.time("graph.view_clone", u as u64, || node_view.clone());
        let outcome = rec.time("core.local.checks", u as u64, || {
            run_expansion_checks(&view, report.pids[u], &cfg)
        });
        black_box(outcome);
    }
    vec![
        Metric::new(
            "graph.view_clone_ms",
            median(&rec.durations_ms("graph.view_clone")),
        ),
        Metric::new(
            "core.local.checks_ms",
            median(&rec.durations_ms("core.local.checks")),
        ),
    ]
}
