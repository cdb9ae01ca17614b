//! The declarative scenario matrix behind the experiment suite.
//!
//! A [`Scenario`] names one sweep cell family: a graph family × a size
//! sweep × a Byzantine budget/placement × an adversary × a protocol
//! (LOCAL / CONGEST / a classical baseline) × a seed set. The generic
//! [`run_scenario`] iterates the cross product and produces one
//! [`CellRecord`] per cell — the machine-readable outcome records that the
//! `--json` artifact persists and the CI schema/perf gates consume. Cells
//! are independent simulations, so with the `parallel` feature the runner
//! fans them out over the persistent worker pool (results land in
//! pre-assigned slots — output order and content are identical to the
//! serial run).
//!
//! The experiment tables E1–E14 that are sweeps (as opposed to bespoke
//! constructions like the phantom-copy graphs of E8) are built by mapping
//! cell records into rows, replacing the copy-pasted per-experiment loops
//! that used to live in `experiments.rs`.
//!
//! **Estimate normalization.** Every protocol's output is mapped onto the
//! paper's `L ≈ ln n` scale so one [`Band`] check covers the matrix:
//! CONGEST estimates and LOCAL radii are already on that scale; the
//! geometric-max baseline reports `log₂ n` and is scaled by `ln 2`; the
//! support/convergecast/birthday baselines estimate `n` itself and are
//! mapped through `ln(max(est, 1))`. The raw (native-quantity) median is
//! kept alongside in [`CellOutcome::raw_median`] for tables like E9 that
//! contrast native estimates.

use bcount_baselines::{
    BirthdayCounting, CollisionFakerAdversary, Convergecast, CountLiarAdversary, GeometricMax,
    MaxFakerAdversary, SupportEstimation, ZeroFakerAdversary,
};
use bcount_core::adversary::{
    BeaconSpamAdversary, EdgeInjectorAdversary, FakeExpanderAdversary, OscillatingSpamAdversary,
    PathTamperAdversary,
};
use bcount_core::congest::{CongestCounting, CongestParams};
use bcount_core::estimate::{Band, EstimateReport};
use bcount_core::local::{LocalConfig, LocalCounting};
use bcount_graph::analysis::bfs::ball;
use bcount_graph::gen::{cycle, hnd, torus2d, watts_strogatz};
use bcount_graph::{Graph, NodeId};
use bcount_json::{Json, ToJson};
use bcount_sim::{
    Adversary, FaultPlan, NullAdversary, PhaseSend, PhaseShared, Protocol, SimConfig, SimReport,
    Simulation, StopReason, StopWhen,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::runners::{far_honest_nodes, spread_byzantine, theorem1_budget, theorem2_budget};
use crate::stats::{median, percentile};

/// The graph families the matrix sweeps over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// The paper's `H(n,d)` model: union of `d/2` random Hamiltonian
    /// cycles (the standard experiment network).
    Hnd {
        /// Degree `d` (even, ≥ 4).
        d: usize,
    },
    /// Watts–Strogatz small world (expanding for `p` bounded away from 0).
    WattsStrogatz {
        /// Even base degree.
        k: usize,
        /// Rewiring probability.
        p: f64,
    },
    /// The `n`-cycle — the low-expansion contrast family.
    Cycle,
    /// The 2-d torus — low expansion in a different way.
    Torus2d,
}

impl GraphFamily {
    /// Stable label used in cell records (part of the artifact schema).
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Hnd { d } => format!("hnd(d={d})"),
            GraphFamily::WattsStrogatz { k, p } => format!("watts-strogatz(k={k},p={p})"),
            GraphFamily::Cycle => "cycle".into(),
            GraphFamily::Torus2d => "torus2d".into(),
        }
    }

    /// The (approximate) degree bound, used for the small-message limit.
    pub fn degree_hint(&self) -> usize {
        match self {
            GraphFamily::Hnd { d } => *d,
            GraphFamily::WattsStrogatz { k, .. } => *k,
            GraphFamily::Cycle => 2,
            GraphFamily::Torus2d => 4,
        }
    }

    /// Generates the family member of size `n` deterministically.
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match self {
            GraphFamily::Hnd { d } => hnd(n, *d, &mut rng).expect("valid H(n,d) parameters"),
            GraphFamily::WattsStrogatz { k, p } => {
                watts_strogatz(n, *k, *p, &mut rng).expect("valid Watts-Strogatz parameters")
            }
            GraphFamily::Cycle => cycle(n).expect("valid cycle size"),
            GraphFamily::Torus2d => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                torus2d(side, side).expect("valid torus dimensions")
            }
        }
    }
}

/// How many Byzantine nodes a cell gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetSpec {
    /// No Byzantine nodes.
    None,
    /// Exactly this many.
    Fixed(usize),
    /// Theorem 1's `n^{1−γ}`.
    Theorem1 {
        /// The exponent parameter `γ`.
        gamma: f64,
    },
    /// Theorem 2's `n^{1/2−ξ}`.
    Theorem2 {
        /// The exponent parameter `ξ`.
        xi: f64,
    },
}

impl BudgetSpec {
    /// The concrete budget for size `n`.
    pub fn resolve(&self, n: usize) -> usize {
        match self {
            BudgetSpec::None => 0,
            BudgetSpec::Fixed(b) => *b,
            BudgetSpec::Theorem1 { gamma } => theorem1_budget(n, *gamma),
            BudgetSpec::Theorem2 { xi } => theorem2_budget(n, *xi),
        }
    }
}

/// Where the Byzantine nodes sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Evenly spread over the node-id space.
    Spread,
    /// Uniformly random (seeded from the cell).
    Random,
    /// A tight BFS ball around node 0 — the adversarial extreme of E14.
    Clustered,
    /// Consecutive node ids starting at a fixed index (for experiments
    /// that must keep a distinguished node — e.g. a convergecast root —
    /// honest).
    At {
        /// First Byzantine node id.
        start: u32,
    },
}

impl Placement {
    /// Stable label used in cell records.
    pub fn label(&self) -> String {
        match self {
            Placement::Spread => "spread".into(),
            Placement::Random => "random".into(),
            Placement::Clustered => "clustered".into(),
            Placement::At { start } => format!("at({start})"),
        }
    }

    /// Chooses `count` Byzantine nodes on `g`.
    pub fn place(&self, g: &Graph, count: usize, seed: u64) -> Vec<NodeId> {
        let n = g.len();
        match self {
            Placement::Spread => spread_byzantine(n, count),
            Placement::Random => {
                use rand::seq::SliceRandom;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut nodes: Vec<NodeId> = g.nodes().collect();
                nodes.shuffle(&mut rng);
                nodes.truncate(count);
                nodes
            }
            Placement::Clustered => {
                let mut cluster = ball(g, NodeId(0), 2);
                cluster.truncate(count);
                cluster
            }
            Placement::At { start } => (0..count)
                .map(|k| NodeId((*start + k as u32) % n as u32))
                .collect(),
        }
    }
}

/// The Byzantine strategy of a cell. Compatibility is per protocol (the
/// runner panics on a pairing no `Adversary<P>` impl exists for — scenario
/// definitions are code, so that is a programming error, not input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// Silence (crash-from-start).
    Null,
    /// Fabricated beacons + continue spam (CONGEST).
    BeaconSpam,
    /// Relayed beacons with garbled path prefixes (CONGEST).
    PathTamper,
    /// Beacon spam every other phase (CONGEST).
    OscillatingSpam,
    /// Remark 1's phantom-expander simulation (LOCAL).
    FakeExpander {
        /// Phantom-region size multiplier.
        multiplier: usize,
        /// Phantom-region degree.
        d_fake: usize,
        /// Entry points per Byzantine node.
        entries: usize,
        /// Phantom-world seed.
        seed: u64,
    },
    /// Inconsistent topology claims (LOCAL).
    EdgeInjector {
        /// Phantom-identity seed.
        seed: u64,
    },
    /// Fake maximum sample (geometric-max baseline).
    MaxFaker {
        /// The forged value.
        fake_value: u32,
    },
    /// All-zero coordinates (support-estimation baseline).
    ZeroFaker {
        /// Coordinate count, matching the honest protocol.
        k: usize,
    },
    /// Inflated subtree counts (convergecast baseline).
    CountLiar {
        /// Added to the true count.
        inflation: u64,
    },
    /// Forged walk collisions (birthday baseline).
    CollisionFaker {
        /// Collide on one phantom (true) or scatter (false).
        duplicate: bool,
        /// Fake samples per Byzantine node.
        count: usize,
    },
}

impl AdversarySpec {
    /// Stable label used in cell records.
    pub fn label(&self) -> &'static str {
        match self {
            AdversarySpec::Null => "silent",
            AdversarySpec::BeaconSpam => "beacon-spam",
            AdversarySpec::PathTamper => "path-tamper",
            AdversarySpec::OscillatingSpam => "oscillating-spam",
            AdversarySpec::FakeExpander { .. } => "fake-expander",
            AdversarySpec::EdgeInjector { .. } => "edge-injector",
            AdversarySpec::MaxFaker { .. } => "max-faker",
            AdversarySpec::ZeroFaker { .. } => "zero-faker",
            AdversarySpec::CountLiar { .. } => "count-liar",
            AdversarySpec::CollisionFaker { .. } => "collision-faker",
        }
    }
}

/// The protocol under test in a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// Algorithm 1 (deterministic LOCAL).
    Local(LocalConfig),
    /// Algorithm 2 (randomized CONGEST).
    Congest(CongestParams),
    /// Geometric-max baseline (reports `≈ log₂ n`).
    GeometricMax {
        /// Round budget.
        budget: u64,
    },
    /// Support-estimation baseline (reports `≈ n`).
    Support {
        /// Exponential-coordinate count.
        k: usize,
        /// Round budget.
        budget: u64,
    },
    /// Spanning-tree convergecast baseline (exact `n` when benign).
    Convergecast,
    /// Birthday-paradox baseline (reports `≈ n`); `τ` and the budget are
    /// derived from `n` as in E9.
    Birthday,
}

impl ProtocolSpec {
    /// Stable label used in cell records.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolSpec::Local(_) => "local",
            ProtocolSpec::Congest(_) => "congest",
            ProtocolSpec::GeometricMax { .. } => "geometric-max",
            ProtocolSpec::Support { .. } => "support-estimation",
            ProtocolSpec::Convergecast => "convergecast",
            ProtocolSpec::Birthday => "birthday-paradox",
        }
    }
}

/// One declarative sweep: the cross product `sizes × budgets × placements
/// × seeds` under one graph family, adversary, and protocol.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario name (`e3/beacon-spam` style), used by the
    /// `--scenario` filter and in cell records.
    pub name: String,
    /// Graph family.
    pub family: GraphFamily,
    /// Full size sweep.
    pub sizes: Vec<usize>,
    /// Shrunk sweep for `--quick` / CI smoke runs.
    pub quick_sizes: Vec<usize>,
    /// Byzantine budgets (one cell axis; single-element for most sweeps).
    pub budgets: Vec<BudgetSpec>,
    /// Shrunk budget axis for `--quick` runs; empty = same as `budgets`.
    pub quick_budgets: Vec<BudgetSpec>,
    /// Byzantine placements (single-element except placement studies).
    pub placements: Vec<Placement>,
    /// The adversary strategy.
    pub adversary: AdversarySpec,
    /// The protocol under test.
    pub protocol: ProtocolSpec,
    /// Acceptance band on the normalized `L / ln n` scale.
    pub band: Band,
    /// Simulation seed set; the per-cell sim seed is `seed + n` so sweeps
    /// do not share randomness across sizes.
    pub seeds: Vec<u64>,
    /// Hard round budget per cell.
    pub max_rounds: u64,
    /// Graph seed base; the size-`n` graph uses `graph_seed_base + n`.
    pub graph_seed_base: u64,
    /// Run to the halting stop condition instead of stopping at first
    /// full decision (E6's termination study).
    pub run_to_halt: bool,
    /// Deterministic fault plan applied to every cell (`None` = the
    /// fault-free matrix). A non-empty plan selects the engine's flat
    /// feed, so faulty sweeps are slower but stay byte-deterministic
    /// (the plan's own seed drives the fault RNG; the cell seed never
    /// feeds it).
    pub fault: Option<FaultPlan>,
}

impl Scenario {
    /// The size sweep for the given mode.
    pub fn sizes_for(&self, quick: bool) -> &[usize] {
        if quick {
            &self.quick_sizes
        } else {
            &self.sizes
        }
    }

    /// The budget axis for the given mode.
    pub fn budgets_for(&self, quick: bool) -> &[BudgetSpec] {
        if quick && !self.quick_budgets.is_empty() {
            &self.quick_budgets
        } else {
            &self.budgets
        }
    }
}

/// Decision-round summary statistics over the far-honest set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Median decision round.
    pub median: f64,
    /// 95th-percentile decision round.
    pub p95: f64,
    /// Latest decision round.
    pub max: f64,
}

impl ToJson for RoundStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("median", self.median.to_json()),
            ("p95", self.p95.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// Everything measured in one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Estimate quality over every honest node.
    pub all: EstimateReport,
    /// Estimate quality over honest nodes at distance ≥ 2 from every
    /// Byzantine node (the theorems' `Good`-style set).
    pub far: EstimateReport,
    /// Decision-round statistics over the far set.
    pub decision_rounds: RoundStats,
    /// Rounds the engine executed.
    pub rounds: u64,
    /// Why the engine stopped.
    pub stop_reason: StopReason,
    /// Honest nodes halted when the engine stopped.
    pub halted: usize,
    /// Median of the raw (un-normalized, native-quantity) decided
    /// estimates over honest nodes.
    pub raw_median: f64,
    /// Median per-honest-node maximum message size, bits.
    pub msg_bits_median: f64,
    /// 99th-percentile per-honest-node maximum message size, bits.
    pub msg_bits_p99: f64,
    /// Fraction of honest nodes within the `O(log n)`-bit small-message
    /// limit of E5.
    pub small_msg_fraction: f64,
    /// Honest messages dropped by the cell's fault plan (0 without one).
    pub dropped: u64,
    /// Honest messages duplicated by the fault plan.
    pub duplicated: u64,
    /// Honest messages delayed by the fault plan.
    pub delayed: u64,
    /// Nodes crash-stopped by the fault plan.
    pub crashed: u64,
}

impl ToJson for CellOutcome {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("all", self.all.to_json()),
            ("far", self.far.to_json()),
            ("decision_rounds", self.decision_rounds.to_json()),
            ("rounds", self.rounds.to_json()),
            ("stop_reason", self.stop_reason.to_json()),
            ("halted", self.halted.to_json()),
            ("raw_median", self.raw_median.to_json()),
            ("msg_bits_median", self.msg_bits_median.to_json()),
            ("msg_bits_p99", self.msg_bits_p99.to_json()),
            ("small_msg_fraction", self.small_msg_fraction.to_json()),
            ("dropped", self.dropped.to_json()),
            ("duplicated", self.duplicated.to_json()),
            ("delayed", self.delayed.to_json()),
            ("crashed", self.crashed.to_json()),
        ])
    }
}

/// One cell of the matrix: coordinates plus outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Owning scenario name.
    pub scenario: String,
    /// Graph-family label.
    pub family: String,
    /// Protocol label.
    pub protocol: String,
    /// Adversary label.
    pub adversary: String,
    /// Placement label.
    pub placement: String,
    /// True network size.
    pub n: usize,
    /// Resolved Byzantine budget.
    pub budget: usize,
    /// The seed-set entry this cell ran under.
    pub seed: u64,
    /// The measurements.
    pub outcome: CellOutcome,
}

impl ToJson for CellRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", self.scenario.to_json()),
            ("family", self.family.to_json()),
            ("protocol", self.protocol.to_json()),
            ("adversary", self.adversary.to_json()),
            ("placement", self.placement.to_json()),
            ("n", self.n.to_json()),
            ("budget", self.budget.to_json()),
            ("seed", self.seed.to_json()),
            ("outcome", self.outcome.to_json()),
        ])
    }
}

/// One not-yet-run cell of a scenario's cross product: its coordinates,
/// and (after the runner visits it) its record. Kept as a flat work list
/// so the cells can fan out over the worker pool.
struct CellTask {
    /// Index into the per-size graph list.
    graph_index: usize,
    /// The *requested* size (the `sizes` entry — drives seeding; the
    /// record's `n` is the generated graph's true size).
    n: usize,
    /// Resolved Byzantine budget.
    budget: usize,
    placement: Placement,
    seed: u64,
    record: Option<CellRecord>,
}

/// Runs the full cross product of one scenario; `seeds` overrides the
/// scenario's seed set when given (the bin's `--seeds` flag).
///
/// Every cell is an independent simulation, so with the `parallel`
/// feature the cells **fan out over the persistent worker pool**
/// (`BCOUNT_POOL_THREADS` sizes it) — cutting full-suite wall clock by
/// roughly the core count. Records land in pre-assigned slots, so the
/// returned order (and every record in it) is identical to the serial
/// run's, whatever the scheduling.
pub fn run_scenario(s: &Scenario, quick: bool, seeds: Option<&[u64]>) -> Vec<CellRecord> {
    let seed_set: Vec<u64> = match seeds {
        Some(list) if !list.is_empty() => list.to_vec(),
        _ => s.seeds.clone(),
    };
    let sizes = s.sizes_for(quick);
    let graphs: Vec<Graph> = sizes
        .iter()
        .map(|&n| s.family.generate(n, s.graph_seed_base + n as u64))
        .collect();
    let mut tasks = Vec::new();
    for (graph_index, &n) in sizes.iter().enumerate() {
        for budget in s.budgets_for(quick) {
            let b = budget.resolve(n);
            for placement in &s.placements {
                for &seed in &seed_set {
                    tasks.push(CellTask {
                        graph_index,
                        n,
                        budget: b,
                        placement: *placement,
                        seed,
                        record: None,
                    });
                }
            }
        }
    }
    // Chunk size 1: each cell is a whole simulation — orders of magnitude
    // coarser than the fork overhead, and the smallest unit that load-
    // balances a heterogeneous sweep (large-n cells dominate).
    bcount_sim::pool::for_each_chunk_mut(
        &mut tasks,
        1,
        cfg!(feature = "parallel"),
        &|_, chunk: &mut [CellTask]| {
            for task in chunk {
                let g = &graphs[task.graph_index];
                let sim_seed = task.seed.wrapping_add(task.n as u64);
                let byz = task
                    .placement
                    .place(g, task.budget, s.graph_seed_base ^ sim_seed);
                let outcome = run_cell(s, g, &byz, sim_seed);
                task.record = Some(CellRecord {
                    scenario: s.name.clone(),
                    family: s.family.label(),
                    protocol: s.protocol.label().into(),
                    adversary: s.adversary.label().into(),
                    placement: task.placement.label(),
                    n: g.len(),
                    budget: byz.len(),
                    seed: task.seed,
                    outcome,
                });
            }
        },
    );
    tasks
        .into_iter()
        .map(|task| task.record.expect("every cell slot visited"))
        .collect()
}

/// Runs every scenario whose name contains `filter` (empty = all).
pub fn run_matrix(
    scenarios: &[Scenario],
    filter: &str,
    quick: bool,
    seeds: Option<&[u64]>,
) -> Vec<CellRecord> {
    scenarios
        .iter()
        .filter(|s| s.name.contains(filter))
        .flat_map(|s| run_scenario(s, quick, seeds))
        .collect()
}

fn run_cell(s: &Scenario, g: &Graph, byz: &[NodeId], sim_seed: u64) -> CellOutcome {
    let n = g.len();
    match s.protocol {
        ProtocolSpec::Congest(params) => {
            let stop_when = if s.run_to_halt {
                StopWhen::AllHonestHalted
            } else {
                StopWhen::AllHonestDecided
            };
            let factory =
                |_: NodeId, init: &bcount_sim::NodeInit| CongestCounting::new(params, init);
            let finish = |report: SimReport<bcount_core::congest::CongestEstimate>| {
                summarize(s, g, byz, &report, |e| f64::from(e.estimate), |l| l)
            };
            match s.adversary {
                AdversarySpec::Null => finish(simulate(
                    g,
                    byz,
                    factory,
                    NullAdversary,
                    sim_seed,
                    s,
                    stop_when,
                )),
                AdversarySpec::BeaconSpam => finish(simulate(
                    g,
                    byz,
                    factory,
                    BeaconSpamAdversary::new(params),
                    sim_seed,
                    s,
                    stop_when,
                )),
                AdversarySpec::PathTamper => finish(simulate(
                    g,
                    byz,
                    factory,
                    PathTamperAdversary::new(params),
                    sim_seed,
                    s,
                    stop_when,
                )),
                AdversarySpec::OscillatingSpam => finish(simulate(
                    g,
                    byz,
                    factory,
                    OscillatingSpamAdversary::new(params),
                    sim_seed,
                    s,
                    stop_when,
                )),
                other => panic!("adversary {other:?} is incompatible with the CONGEST protocol"),
            }
        }
        ProtocolSpec::Local(cfg) => {
            let factory = |_: NodeId, init: &bcount_sim::NodeInit| LocalCounting::new(cfg, init);
            let finish = |report: SimReport<bcount_core::local::LocalEstimate>| {
                summarize(s, g, byz, &report, |e| f64::from(e.radius), |l| l)
            };
            match s.adversary {
                AdversarySpec::Null => finish(simulate(
                    g,
                    byz,
                    factory,
                    NullAdversary,
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                AdversarySpec::FakeExpander {
                    multiplier,
                    d_fake,
                    entries,
                    seed,
                } => finish(simulate(
                    g,
                    byz,
                    factory,
                    FakeExpanderAdversary::new(multiplier, d_fake, entries, seed),
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                AdversarySpec::EdgeInjector { seed } => finish(simulate(
                    g,
                    byz,
                    factory,
                    EdgeInjectorAdversary::new(seed),
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                other => panic!("adversary {other:?} is incompatible with the LOCAL protocol"),
            }
        }
        ProtocolSpec::GeometricMax { budget } => {
            let factory = |_: NodeId, init: &bcount_sim::NodeInit| GeometricMax::new(budget, init);
            // Reports ≈ log₂ n; ln-normalize by ln 2.
            let finish = |report: SimReport<u32>| {
                summarize(
                    s,
                    g,
                    byz,
                    &report,
                    |&v| f64::from(v),
                    |raw| raw * std::f64::consts::LN_2,
                )
            };
            match s.adversary {
                AdversarySpec::Null => finish(simulate(
                    g,
                    byz,
                    factory,
                    NullAdversary,
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                AdversarySpec::MaxFaker { fake_value } => finish(simulate(
                    g,
                    byz,
                    factory,
                    MaxFakerAdversary { fake_value },
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                other => panic!("adversary {other:?} is incompatible with geometric-max"),
            }
        }
        ProtocolSpec::Support { k, budget } => {
            let factory =
                |_: NodeId, init: &bcount_sim::NodeInit| SupportEstimation::new(k, budget, init);
            let finish = |report: SimReport<f64>| {
                summarize(s, g, byz, &report, |&v| v, |raw| raw.max(1.0).ln())
            };
            match s.adversary {
                AdversarySpec::Null => finish(simulate(
                    g,
                    byz,
                    factory,
                    NullAdversary,
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                AdversarySpec::ZeroFaker { k } => finish(simulate(
                    g,
                    byz,
                    factory,
                    ZeroFakerAdversary { k },
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                other => panic!("adversary {other:?} is incompatible with support-estimation"),
            }
        }
        ProtocolSpec::Convergecast => {
            let factory =
                |u: NodeId, init: &bcount_sim::NodeInit| Convergecast::new(u == NodeId(0), init);
            let finish = |report: SimReport<u64>| {
                summarize(s, g, byz, &report, |&v| v as f64, |raw| raw.max(1.0).ln())
            };
            match s.adversary {
                AdversarySpec::Null => finish(simulate(
                    g,
                    byz,
                    factory,
                    NullAdversary,
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                AdversarySpec::CountLiar { inflation } => finish(simulate(
                    g,
                    byz,
                    factory,
                    CountLiarAdversary { inflation },
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                other => panic!("adversary {other:?} is incompatible with convergecast"),
            }
        }
        ProtocolSpec::Birthday => {
            let tau = 3 * (n as f64).ln().ceil() as u32;
            let budget = u64::from(tau) + 30;
            let factory =
                |_: NodeId, init: &bcount_sim::NodeInit| BirthdayCounting::new(tau, budget, init);
            let finish = |report: SimReport<f64>| {
                summarize(s, g, byz, &report, |&v| v, |raw| raw.max(1.0).ln())
            };
            match s.adversary {
                AdversarySpec::Null => finish(simulate(
                    g,
                    byz,
                    factory,
                    NullAdversary,
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                AdversarySpec::CollisionFaker { duplicate, count } => finish(simulate(
                    g,
                    byz,
                    factory,
                    CollisionFakerAdversary { duplicate, count },
                    sim_seed,
                    s,
                    StopWhen::AllHonestHalted,
                )),
                other => panic!("adversary {other:?} is incompatible with birthday counting"),
            }
        }
    }
}

fn simulate<P, A, F>(
    g: &Graph,
    byz: &[NodeId],
    factory: F,
    adversary: A,
    seed: u64,
    s: &Scenario,
    stop_when: StopWhen,
) -> SimReport<P::Output>
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
    F: FnMut(NodeId, &bcount_sim::NodeInit) -> P,
{
    let mut sim = Simulation::new(
        g,
        byz,
        factory,
        adversary,
        SimConfig {
            seed,
            max_rounds: s.max_rounds,
            stop_when,
            fault: s.fault.clone().unwrap_or_default(),
            ..SimConfig::default()
        },
    );
    sim.run()
}

/// Clamps a protocol output to the finite range so cell records stay
/// valid JSON. Broken baselines really do emit `±inf` under attack (E9's
/// point); the clamp keeps that visible as an absurdly large value
/// instead of an unrenderable one.
fn clamp_finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else if v == f64::NEG_INFINITY {
        f64::MIN
    } else {
        f64::MAX // +inf and NaN both mean "broken upward" here
    }
}

/// Folds a report into a [`CellOutcome`]: `raw` extracts the native
/// estimate from an output, `normalize` maps it onto the `ln n` scale.
fn summarize<O>(
    s: &Scenario,
    g: &Graph,
    byz: &[NodeId],
    report: &SimReport<O>,
    raw: impl Fn(&O) -> f64,
    normalize: impl Fn(f64) -> f64,
) -> CellOutcome {
    let n = g.len();
    let raw = |o: &O| clamp_finite(raw(o));
    let est_of = |u: usize| {
        report.outputs[u]
            .as_ref()
            .map(|o| clamp_finite(normalize(raw(o))))
    };
    let all_nodes: Vec<usize> = report.honest_nodes().collect();
    let far = far_honest_nodes(g, byz, 2);
    let all = EstimateReport::evaluate(n, all_nodes.iter().map(|&u| est_of(u)), s.band);
    let far_report = EstimateReport::evaluate(n, far.iter().map(|&u| est_of(u)), s.band);
    let dec_rounds: Vec<f64> = far
        .iter()
        .filter_map(|&u| report.decided_round[u].map(|r| r as f64))
        .collect();
    let raws: Vec<f64> = all_nodes
        .iter()
        .filter_map(|&u| report.outputs[u].as_ref().map(&raw))
        .collect();
    let maxes: Vec<f64> = all_nodes
        .iter()
        .map(|&u| report.metrics.per_node[u].max_message_bits as f64)
        .collect();
    // E5's "small message" limit: a beacon path of (log_d n + 6) 64-bit
    // IDs plus tag bits.
    let d = s.family.degree_hint().max(2);
    let limit = (((n.max(2) as f64).ln() / (d as f64).ln()).ceil() as u64 + 6) * 64 + 2;
    let small = report
        .metrics
        .count_within_message_limit(all_nodes.iter().copied(), limit);
    CellOutcome {
        all,
        far: far_report,
        decision_rounds: RoundStats {
            median: median(&dec_rounds),
            p95: percentile(&dec_rounds, 95.0),
            max: percentile(&dec_rounds, 100.0),
        },
        rounds: report.rounds,
        stop_reason: report.stop_reason,
        halted: report.halted.iter().filter(|h| **h).count(),
        raw_median: median(&raws),
        msg_bits_median: median(&maxes),
        msg_bits_p99: percentile(&maxes, 99.0),
        small_msg_fraction: if all_nodes.is_empty() {
            0.0
        } else {
            small as f64 / all_nodes.len() as f64
        },
        dropped: report.metrics.dropped,
        duplicated: report.metrics.duplicated,
        delayed: report.metrics.delayed,
        crashed: report.metrics.crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{CONGEST_BAND, LOCAL_BAND};

    fn tiny_congest(adversary: AdversarySpec) -> Scenario {
        Scenario {
            name: "test/congest".into(),
            family: GraphFamily::Hnd { d: 8 },
            sizes: vec![64],
            quick_sizes: vec![64],
            budgets: vec![BudgetSpec::Fixed(2)],
            quick_budgets: Vec::new(),
            placements: vec![Placement::Spread],
            adversary,
            protocol: ProtocolSpec::Congest(CongestParams::default()),
            band: CONGEST_BAND,
            seeds: vec![5],
            max_rounds: 8_000,
            graph_seed_base: 900,
            run_to_halt: false,
            fault: None,
        }
    }

    #[test]
    fn congest_cell_produces_full_outcome() {
        let cells = run_scenario(&tiny_congest(AdversarySpec::BeaconSpam), true, None);
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.n, 64);
        assert_eq!(c.budget, 2);
        assert_eq!(c.protocol, "congest");
        assert_eq!(c.adversary, "beacon-spam");
        assert!(c.outcome.far.decided > 0, "far nodes must decide");
        assert!(c.outcome.rounds > 0);
        assert!(c.outcome.msg_bits_median > 0.0);
    }

    #[test]
    fn seeds_override_expands_the_cell_set() {
        let s = tiny_congest(AdversarySpec::Null);
        let cells = run_scenario(&s, true, Some(&[1, 2, 3]));
        assert_eq!(cells.len(), 3);
        let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
    }

    #[test]
    fn local_and_baseline_cells_run() {
        let local = Scenario {
            name: "test/local".into(),
            protocol: ProtocolSpec::Local(LocalConfig {
                max_degree: 8,
                ..LocalConfig::default()
            }),
            adversary: AdversarySpec::Null,
            band: LOCAL_BAND,
            max_rounds: 200,
            ..tiny_congest(AdversarySpec::Null)
        };
        let cells = run_scenario(&local, true, None);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].outcome.all.decided > 0);

        let baseline = Scenario {
            name: "test/geom".into(),
            protocol: ProtocolSpec::GeometricMax { budget: 40 },
            adversary: AdversarySpec::MaxFaker {
                fake_value: 1 << 20,
            },
            band: Band::new(0.0, 1e9),
            budgets: vec![BudgetSpec::Fixed(1)],
            ..tiny_congest(AdversarySpec::Null)
        };
        let cells = run_scenario(&baseline, true, None);
        // The forged maximum swamps every honest estimate.
        assert!(cells[0].outcome.raw_median >= (1 << 20) as f64);
    }

    #[test]
    fn faulty_cells_record_fault_counters_and_stay_deterministic() {
        use bcount_sim::CrashEvent;
        let faulty = Scenario {
            name: "test/chaos".into(),
            fault: Some(FaultPlan {
                seed: 31,
                crashes: vec![CrashEvent { round: 2, node: 9 }],
                drop_per_mille: 80,
                dup_per_mille: 40,
                delay_per_mille: 40,
                delay_rounds: 2,
            }),
            ..tiny_congest(AdversarySpec::Null)
        };
        let cells = run_scenario(&faulty, true, None);
        let o = &cells[0].outcome;
        assert_eq!(o.crashed, 1);
        assert!(
            o.dropped > 0 && o.duplicated > 0 && o.delayed > 0,
            "link faults must engage: {o:?}"
        );
        // The plan's seed drives the fault stream: the same scenario is
        // reproducible cell for cell.
        assert_eq!(run_scenario(&faulty, true, None), cells);
        // Counters serialize with the outcome.
        let json = cells[0].to_json().render().unwrap();
        let back = Json::parse(&json).unwrap();
        let outcome = back.get("outcome").unwrap();
        assert!(outcome.get("dropped").is_some() && outcome.get("crashed").is_some());
        // And the fault-free matrix reports zeros.
        let clean = run_scenario(&tiny_congest(AdversarySpec::Null), true, None);
        let o = &clean[0].outcome;
        assert_eq!(
            (o.dropped, o.duplicated, o.delayed, o.crashed),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn matrix_filter_selects_by_substring() {
        let scenarios = vec![
            tiny_congest(AdversarySpec::Null),
            Scenario {
                name: "other/one".into(),
                ..tiny_congest(AdversarySpec::Null)
            },
        ];
        let cells = run_matrix(&scenarios, "other", true, None);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].scenario, "other/one");
    }

    #[test]
    fn cell_record_serializes_with_outcome() {
        let cells = run_scenario(&tiny_congest(AdversarySpec::Null), true, None);
        let json = cells[0].to_json();
        let text = json.render().unwrap();
        let back = Json::parse(&text).unwrap();
        assert!(back.get("outcome").is_some());
        assert!(back.get("outcome").unwrap().get("far").is_some());
        assert_eq!(
            back.get("scenario").and_then(Json::as_str),
            Some("test/congest")
        );
    }
}
