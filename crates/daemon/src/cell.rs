//! The cell registry: the one vocabulary for a simulation cell, shared
//! by the experiment matrix (`bcount_bench::scenario`) and `bcountd`'s
//! `session.create`.
//!
//! A [`CellSpec`] is a graph family × size × protocol × adversary ×
//! Byzantine placement × seeds × round budget × stop condition × fault
//! plan. Every coordinate has one `label()` and one `parse()`; protocol
//! and adversary rows carry their knobs as flat JSON keys beside their
//! bare labels (`max-faker` + `fake_value`). Only knobs some matrix cell
//! or the historical wire varies are coordinates; every other parameter
//! is fixed in [`CellSpec::build`], the workspace's only protocol ×
//! adversary dispatch. Generation is deterministic, so a cell always
//! builds the same execution, bit for bit.

use std::sync::Arc;

use bcount_baselines::{
    BirthdayCounting, CollisionFakerAdversary, Convergecast, CountLiarAdversary, GeometricMax,
    MaxFakerAdversary, SupportEstimation, ZeroFakerAdversary,
};
use bcount_core::adversary::{
    BeaconSpamAdversary, EdgeInjectorAdversary, FakeExpanderAdversary, OscillatingSpamAdversary,
    PathTamperAdversary,
};
use bcount_core::congest::{CongestCounting, CongestEstimate, CongestParams};
use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate};
use bcount_graph::analysis::bfs::ball;
use bcount_graph::gen::{cycle, hnd, torus2d, watts_strogatz};
use bcount_graph::{Graph, NodeId};
use bcount_json::{field, opt_field, FromJson, Json, JsonError, ToJson};
use bcount_sim::{
    DynExecution, Execution, FaultPlan, NodeInit, NullAdversary, PhaseSend, PhaseShared, Protocol,
    SimConfig, StopWhen,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A rejected cell (unsupported label, bad parameter, or an incompatible
/// protocol × adversary pairing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

fn wire(e: JsonError) -> SpecError {
    SpecError(e.to_string())
}

/// Reads `key` from `json`; `default` when absent or `null`.
pub(crate) fn key_or<T: FromJson>(json: &Json, key: &str, default: T) -> Result<T, SpecError> {
    Ok(opt_field(json, key).map_err(wire)?.unwrap_or(default))
}

/// The row of `rows` labelled `label`, or an error listing every label.
fn find_row<T, const N: usize>(
    what: &str,
    label: &str,
    rows: [T; N],
    label_of: fn(&T) -> &'static str,
) -> Result<T, SpecError> {
    let labels: Vec<&str> = rows.iter().map(label_of).collect();
    let expected = labels.join(", ");
    let unknown = || SpecError(format!("unknown {what} '{label}' (expected {expected})"));
    rows.into_iter()
        .find(|row| label_of(row) == label)
        .ok_or_else(unknown)
}

/// Splits `name(args)` into its name and argument list (`name` alone has
/// none).
fn split_label(label: &str) -> (&str, Option<&str>) {
    match label.strip_suffix(')').and_then(|l| l.split_once('(')) {
        Some((name, args)) => (name, Some(args)),
        None => (label, None),
    }
}

/// Pulls `key=value` out of a comma-separated label argument list.
fn label_arg<T: std::str::FromStr>(label: &str, args: &str, key: &str) -> Result<T, SpecError> {
    args.split(',')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| k.trim() == key)
        .ok_or_else(|| SpecError(format!("family '{label}': missing '{key}=' argument")))?
        .1
        .trim()
        .parse()
        .map_err(|_| SpecError(format!("family '{label}': bad '{key}'")))
}

/// Saturates a raw estimate into the finite range so snapshots render:
/// broken baselines really do report `±inf` under attack (E9's point),
/// kept visible as `±f64::MAX`; NaN counts as broken upward.
fn saturate(v: f64) -> f64 {
    if v.is_nan() {
        f64::MAX
    } else {
        v.clamp(f64::MIN, f64::MAX)
    }
}

/// The largest `exhaustive_limit` a cell may ask for: Algorithm 1's
/// stopping check enumerates all `2^|view|` subsets of views up to that
/// size inside one round, past the reach of the step deadline.
pub const MAX_EXHAUSTIVE_LIMIT: usize = 12;

/// The Byzantine budget of Theorem 2: `B(n) = n^{1/2 − ξ}`.
pub fn theorem2_budget(n: usize, xi: f64) -> usize {
    (n as f64).powf(0.5 - xi).floor() as usize
}

/// The Byzantine budget of Theorem 1: `n^{1 − γ}`.
pub fn theorem1_budget(n: usize, gamma: f64) -> usize {
    (n as f64).powf(1.0 - gamma).floor() as usize
}

/// The spread rule: `count` Byzantine nodes evenly over the id space
/// (every `⌊n/count⌋`-th node).
pub fn spread_byzantine(n: usize, count: usize) -> Vec<NodeId> {
    if count == 0 {
        return Vec::new();
    }
    let stride = (n / count).max(1);
    (0..count)
        .map(|k| NodeId(((k * stride) % n) as u32))
        .collect()
}

/// The graph families a cell can run on.
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
    /// Stable label used in cell records and on the wire.
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Hnd { d } => format!("hnd(d={d})"),
            GraphFamily::WattsStrogatz { k, p } => format!("watts-strogatz(k={k},p={p})"),
            GraphFamily::Cycle => "cycle".into(),
            GraphFamily::Torus2d => "torus2d".into(),
        }
    }

    /// Parses a label: `hnd(d=8)`, `watts-strogatz(k=8,p=0.1)`, `cycle`,
    /// `torus2d`.
    pub fn parse(label: &str) -> Result<GraphFamily, SpecError> {
        Ok(match split_label(label) {
            ("cycle", None) => GraphFamily::Cycle,
            ("torus2d", None) => GraphFamily::Torus2d,
            ("hnd", Some(args)) => GraphFamily::Hnd {
                d: label_arg(label, args, "d")?,
            },
            ("watts-strogatz", Some(args)) => match label_arg(label, args, "p")? {
                p if (0.0..=1.0).contains(&p) => GraphFamily::WattsStrogatz {
                    k: label_arg(label, args, "k")?,
                    p,
                },
                _ => return err(format!("family '{label}': p must be in [0,1]")),
            },
            _ => return err(format!("unknown family '{label}' (expected hnd(d=D), watts-strogatz(k=K,p=P), cycle, torus2d)")),
        })
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

    /// The node count [`GraphFamily::generate`] produces for a requested
    /// `n`, computed without generating: the torus rounds to the nearest
    /// square side (at least 2), every other family is exact. A torus too
    /// large to count saturates at `usize::MAX`, above any size cap.
    pub fn resolved_n(&self, n: usize) -> usize {
        match self {
            GraphFamily::Torus2d => torus_side(n).saturating_mul(torus_side(n)),
            _ => n,
        }
    }

    /// Generates the family member of size `n` deterministically.
    pub fn generate(&self, n: usize, seed: u64) -> Result<Graph, SpecError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let generated = match self {
            GraphFamily::Hnd { d } => hnd(n, *d, &mut rng),
            GraphFamily::WattsStrogatz { k, p } => watts_strogatz(n, *k, *p, &mut rng),
            GraphFamily::Cycle => cycle(n),
            GraphFamily::Torus2d => torus2d(torus_side(n), torus_side(n)),
        };
        generated.map_err(|e| SpecError(format!("{} generation: {e}", self.label())))
    }
}

fn torus_side(n: usize) -> usize {
    (n as f64).sqrt().round().max(2.0) as usize
}

/// How many Byzantine nodes a matrix cell gets, as a function of `n`.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Evenly spread over the node-id space ([`spread_byzantine`]).
    Spread,
    /// Uniformly random, drawn from [`CellSpec::placement_seed`].
    Random,
    /// The `count` nodes nearest node 0, in BFS (distance, then id)
    /// order — a tight ball, the adversarial extreme of E14.
    Clustered,
    /// Label `at(a)`: `count` consecutive node ids from `a` (for cells
    /// that must keep a distinguished node — e.g. a convergecast root —
    /// honest). Label `at(a,b,…)`: exactly those ids, sorted and
    /// deduplicated (build with [`Placement::at`]).
    At(Vec<u32>),
}

impl Placement {
    /// The canonical `at(…)` placement of `ids`: sorted, deduplicated.
    pub fn at(mut ids: Vec<u32>) -> Placement {
        ids.sort_unstable();
        ids.dedup();
        Placement::At(ids)
    }

    /// Stable label used in cell records and on the wire.
    pub fn label(&self) -> String {
        match self {
            Placement::Spread => "spread".into(),
            Placement::Random => "random".into(),
            Placement::Clustered => "clustered".into(),
            Placement::At(ids) => {
                let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
                format!("at({})", ids.join(","))
            }
        }
    }

    /// Parses a label: `spread`, `random`, `clustered`, `at(a)` (a run of
    /// ids from `a`), or `at(a,b,…)` (an explicit list).
    pub fn parse(label: &str) -> Result<Placement, SpecError> {
        let bad = || {
            SpecError(format!("unknown placement '{label}' (expected spread, random, clustered, at(ID), at(ID,ID,...))"))
        };
        match split_label(label) {
            ("spread", None) => Ok(Placement::Spread),
            ("random", None) => Ok(Placement::Random),
            ("clustered", None) => Ok(Placement::Clustered),
            ("at", Some("")) => Ok(Placement::At(Vec::new())),
            ("at", Some(ids)) => ids
                .split(',')
                .map(|id| id.trim().parse().map_err(|_| bad()))
                .collect::<Result<_, _>>()
                .map(Placement::at),
            _ => Err(bad()),
        }
    }

    /// The ids of an `at(a,b,…)` list, which sets the Byzantine count.
    pub fn list(&self) -> Option<&[u32]> {
        match self {
            Placement::At(ids) if ids.len() != 1 => Some(ids),
            _ => None,
        }
    }

    /// Chooses `count` Byzantine nodes on `g` (an explicit list ignores
    /// `count`).
    pub fn place(&self, g: &Graph, count: usize, seed: u64) -> Result<Vec<NodeId>, SpecError> {
        let n = g.len();
        let in_range = |id: u32| {
            if (id as usize) < n {
                Ok(NodeId(id))
            } else {
                err(format!("placement node {id} out of range (n={n})"))
            }
        };
        if let Some(ids) = self.list() {
            return ids.iter().map(|&id| in_range(id)).collect();
        }
        if count >= n {
            return err(format!("byzantine count {count} must be below n={n}"));
        }
        Ok(match self {
            Placement::Spread => spread_byzantine(n, count),
            Placement::Random => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut nodes: Vec<NodeId> = g.nodes().collect();
                nodes.shuffle(&mut rng);
                nodes.truncate(count);
                nodes
            }
            Placement::Clustered => {
                let mut cluster = ball(g, NodeId(0), u32::MAX);
                if cluster.len() < count {
                    return err(format!(
                        "clustered placement of {count} nodes needs that many reachable \
                         from node 0, found {}",
                        cluster.len()
                    ));
                }
                cluster.truncate(count);
                cluster
            }
            Placement::At(ids) => {
                let start = in_range(ids[0])?.0;
                (0..count)
                    .map(|k| NodeId((start + k as u32) % n as u32))
                    .collect()
            }
        })
    }
}

/// The Byzantine strategy of a cell. Which strategies pair with which
/// protocol is decided by [`CellSpec::build`].
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
    /// Remark 1's phantom-expander simulation (LOCAL): a phantom region
    /// of `2n` nodes of degree 8, two entry points per Byzantine node.
    FakeExpander {
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
    ZeroFaker,
    /// Inflated subtree counts (convergecast baseline).
    CountLiar {
        /// Added to the true count.
        inflation: u64,
    },
    /// Forged walk collisions on one phantom, 64 fake samples per
    /// Byzantine node (birthday baseline).
    CollisionFaker,
}

impl AdversarySpec {
    /// The registry's adversary rows, each with its default knobs
    /// (`adversary_seed` = `seed`).
    pub fn rows(seed: u64) -> [AdversarySpec; 10] {
        [
            AdversarySpec::Null,
            AdversarySpec::BeaconSpam,
            AdversarySpec::PathTamper,
            AdversarySpec::OscillatingSpam,
            AdversarySpec::FakeExpander { seed },
            AdversarySpec::EdgeInjector { seed },
            AdversarySpec::MaxFaker { fake_value: 30 },
            AdversarySpec::ZeroFaker,
            AdversarySpec::CountLiar {
                inflation: 1_000_000,
            },
            AdversarySpec::CollisionFaker,
        ]
    }

    /// Stable label used in cell records and on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            AdversarySpec::Null => "silent",
            AdversarySpec::BeaconSpam => "beacon-spam",
            AdversarySpec::PathTamper => "path-tamper",
            AdversarySpec::OscillatingSpam => "oscillating-spam",
            AdversarySpec::FakeExpander { .. } => "fake-expander",
            AdversarySpec::EdgeInjector { .. } => "edge-injector",
            AdversarySpec::MaxFaker { .. } => "max-faker",
            AdversarySpec::ZeroFaker => "zero-faker",
            AdversarySpec::CountLiar { .. } => "count-liar",
            AdversarySpec::CollisionFaker => "collision-faker",
        }
    }

    /// Parses `label`, overriding its default knobs with those present in
    /// `knobs` (`adversary_seed` defaults to `default_seed`).
    pub fn parse(label: &str, knobs: &Json, default_seed: u64) -> Result<Self, SpecError> {
        use AdversarySpec as A;
        let seed = || key_or(knobs, "adversary_seed", default_seed);
        let row = find_row("adversary", label, Self::rows(default_seed), Self::label)?;
        Ok(match row {
            A::FakeExpander { .. } => A::FakeExpander { seed: seed()? },
            A::EdgeInjector { .. } => A::EdgeInjector { seed: seed()? },
            A::MaxFaker { fake_value } => A::MaxFaker {
                fake_value: key_or(knobs, "fake_value", fake_value)?,
            },
            A::CountLiar { inflation } => A::CountLiar {
                inflation: key_or(knobs, "inflation", inflation)?,
            },
            row => row,
        })
    }

    /// The knob keys and values [`AdversarySpec::parse`] reads back.
    pub fn knobs(&self) -> Vec<(&'static str, Json)> {
        match *self {
            AdversarySpec::FakeExpander { seed } | AdversarySpec::EdgeInjector { seed } => {
                vec![("adversary_seed", seed.to_json())]
            }
            AdversarySpec::MaxFaker { fake_value } => vec![("fake_value", fake_value.to_json())],
            AdversarySpec::CountLiar { inflation } => vec![("inflation", inflation.to_json())],
            _ => Vec::new(),
        }
    }
}

/// The protocol under test in a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// Algorithm 1 (deterministic LOCAL); the other [`LocalConfig`]
    /// fields keep their defaults.
    Local {
        /// Largest degree a node may claim before it is rejected.
        max_degree: usize,
        /// Expansion threshold `α′` of the stopping check.
        alpha_prime: f64,
        /// Largest view checked by subset enumeration (at most
        /// [`MAX_EXHAUSTIVE_LIMIT`] on the wire).
        exhaustive_limit: usize,
    },
    /// Algorithm 2 (randomized CONGEST) with the default
    /// [`CongestParams`].
    Congest,
    /// Geometric-max baseline (reports `≈ log₂ n`).
    GeometricMax {
        /// Round budget.
        budget: u64,
    },
    /// Support-estimation baseline (reports `≈ n`): 64 exponential
    /// coordinates, a 40-round budget.
    Support,
    /// Spanning-tree convergecast baseline rooted at node 0 (exact `n`
    /// when benign).
    Convergecast,
    /// Birthday-paradox baseline (reports `≈ n`); `τ = 3⌈ln n⌉` and the
    /// round budget `τ + 30` are derived from the generated graph's size.
    Birthday,
}

impl ProtocolSpec {
    /// The registry's protocol rows, each with its default knobs.
    pub fn rows() -> [ProtocolSpec; 6] {
        let local = LocalConfig::default();
        [
            ProtocolSpec::Local {
                max_degree: local.max_degree,
                alpha_prime: local.alpha_prime,
                exhaustive_limit: local.exhaustive_limit,
            },
            ProtocolSpec::Congest,
            ProtocolSpec::GeometricMax { budget: 40 },
            ProtocolSpec::Support,
            ProtocolSpec::Convergecast,
            ProtocolSpec::Birthday,
        ]
    }

    /// Stable label used in cell records and on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolSpec::Local { .. } => "local",
            ProtocolSpec::Congest => "congest",
            ProtocolSpec::GeometricMax { .. } => "geometric-max",
            ProtocolSpec::Support => "support-estimation",
            ProtocolSpec::Convergecast => "convergecast",
            ProtocolSpec::Birthday => "birthday-paradox",
        }
    }

    /// Parses `label`, overriding its default knobs with those present in
    /// `knobs`.
    pub fn parse(label: &str, knobs: &Json) -> Result<Self, SpecError> {
        Ok(
            match find_row("protocol", label, Self::rows(), Self::label)? {
                ProtocolSpec::Local {
                    max_degree,
                    alpha_prime,
                    exhaustive_limit,
                } => {
                    let exhaustive_limit = key_or(knobs, "exhaustive_limit", exhaustive_limit)?;
                    if exhaustive_limit > MAX_EXHAUSTIVE_LIMIT {
                        return err(format!(
                            "exhaustive_limit must be at most {MAX_EXHAUSTIVE_LIMIT}"
                        ));
                    }
                    ProtocolSpec::Local {
                        max_degree: key_or(knobs, "max_degree", max_degree)?,
                        alpha_prime: key_or(knobs, "alpha_prime", alpha_prime)?,
                        exhaustive_limit,
                    }
                }
                ProtocolSpec::GeometricMax { budget } => ProtocolSpec::GeometricMax {
                    budget: key_or(knobs, "budget", budget)?,
                },
                row => row,
            },
        )
    }

    /// The knob keys and values [`ProtocolSpec::parse`] reads back.
    pub fn knobs(&self) -> Vec<(&'static str, Json)> {
        match *self {
            ProtocolSpec::Local {
                max_degree,
                alpha_prime,
                exhaustive_limit,
            } => vec![
                ("max_degree", max_degree.to_json()),
                ("alpha_prime", alpha_prime.to_json()),
                ("exhaustive_limit", exhaustive_limit.to_json()),
            ],
            ProtocolSpec::GeometricMax { budget } => vec![("budget", budget.to_json())],
            _ => Vec::new(),
        }
    }

    /// Maps a raw (native-quantity) estimate onto the paper's `L ≈ ln n`
    /// scale: CONGEST estimates and LOCAL radii already are; geometric-max
    /// reports `log₂ n` (scaled by `ln 2`); the support/convergecast/
    /// birthday baselines estimate `n` itself (mapped through
    /// `ln(max(est, 1))`).
    pub fn normalize(&self, raw: f64) -> f64 {
        match self {
            ProtocolSpec::Local { .. } | ProtocolSpec::Congest => raw,
            ProtocolSpec::GeometricMax { .. } => raw * std::f64::consts::LN_2,
            ProtocolSpec::Support | ProtocolSpec::Convergecast | ProtocolSpec::Birthday => {
                raw.max(1.0).ln()
            }
        }
    }

    /// The stop condition a cell gets unless it says otherwise: CONGEST
    /// stops once every honest node decided, every other protocol once
    /// every honest node halted.
    pub fn default_stop(&self) -> StopWhen {
        match self {
            ProtocolSpec::Congest => StopWhen::AllHonestDecided,
            _ => StopWhen::AllHonestHalted,
        }
    }
}

/// Stable label of a stop condition (the `stop` key).
pub fn stop_label(stop: &StopWhen) -> &'static str {
    match stop {
        StopWhen::AllHonestHalted => "all-halted",
        StopWhen::AllHonestDecided => "all-decided",
        StopWhen::MaxRoundsOnly => "max-rounds",
    }
}

/// One fully specified cell: everything needed to rebuild an execution
/// bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Graph family.
    pub family: GraphFamily,
    /// Requested size (the torus may round it:
    /// [`GraphFamily::resolved_n`]).
    pub n: usize,
    /// Protocol row.
    pub protocol: ProtocolSpec,
    /// Adversary row.
    pub adversary: AdversarySpec,
    /// Byzantine placement.
    pub placement: Placement,
    /// Byzantine node count (an explicit list's length).
    pub byzantine: usize,
    /// Graph-generation seed.
    pub graph_seed: u64,
    /// Engine seed (node ids and protocol randomness).
    pub engine_seed: u64,
    /// Hard round budget.
    pub max_rounds: u64,
    /// Stop condition.
    pub stop: StopWhen,
    /// Deterministic fault plan (the empty default = fault-free).
    pub fault: FaultPlan,
}

impl ToJson for CellSpec {
    /// Every field under its `session.create` key, knobs included.
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("family", self.family.label().to_json()),
            ("n", self.n.to_json()),
            ("protocol", self.protocol.label().to_json()),
            ("adversary", self.adversary.label().to_json()),
            ("placement", self.placement.label().to_json()),
            ("byzantine", self.byzantine.to_json()),
            ("graph_seed", self.graph_seed.to_json()),
            ("engine_seed", self.engine_seed.to_json()),
            ("max_rounds", self.max_rounds.to_json()),
            ("stop", stop_label(&self.stop).to_json()),
            ("fault", self.fault.to_json()),
        ];
        pairs.extend(self.protocol.knobs());
        pairs.extend(self.adversary.knobs());
        Json::obj(pairs)
    }
}

impl CellSpec {
    /// Parses a cell from `session.create` params. Required: `n`,
    /// `protocol`. Optional, with defaults: `family` (`hnd(d=8)`),
    /// `adversary` (`silent`), `placement` (`spread`), `byzantine` (0),
    /// `byzantine_at` (explicit id list; overrides `placement` and
    /// `byzantine`), `seed` (0xC0DE; the default of `graph_seed`,
    /// `engine_seed` and `adversary_seed`),
    /// `max_rounds` (10000), `stop` (the protocol's
    /// [`ProtocolSpec::default_stop`]), `fault` (a [`FaultPlan`] object,
    /// validated here), plus the protocol's and adversary's knobs.
    pub fn from_json(json: &Json) -> Result<CellSpec, SpecError> {
        let label: String = field(json, "protocol").map_err(wire)?;
        Self::from_json_with(json, ProtocolSpec::parse(&label, json)?)
    }

    /// [`CellSpec::from_json`] with the protocol row given, not read: the
    /// daemon's `panic-probe` parses its cell this way.
    pub(crate) fn from_json_with(json: &Json, protocol: ProtocolSpec) -> Result<Self, SpecError> {
        let seed = key_or(json, "seed", 0xC0DE)?;
        let byzantine_at: Option<Vec<u32>> = opt_field(json, "byzantine_at").map_err(wire)?;
        let explicit = byzantine_at.is_some();
        let placement = match byzantine_at {
            Some(ids) => Placement::at(ids),
            None => Placement::parse(&key_or(json, "placement", "spread".to_string())?)?,
        };
        let byzantine = match placement.list() {
            Some(ids) => ids.len(),
            None if explicit => 1, // one distinct `byzantine_at` id: the run `at(a)` of one
            None => key_or(json, "byzantine", 0)?,
        };
        let adversary = key_or(json, "adversary", "silent".to_string())?;
        let spec = CellSpec {
            family: GraphFamily::parse(&key_or(json, "family", "hnd(d=8)".to_string())?)?,
            n: field(json, "n").map_err(wire)?,
            protocol,
            adversary: AdversarySpec::parse(&adversary, json, seed)?,
            placement,
            byzantine,
            graph_seed: key_or(json, "graph_seed", seed)?,
            engine_seed: key_or(json, "engine_seed", seed)?,
            max_rounds: key_or(json, "max_rounds", 10_000)?,
            stop: match opt_field::<String>(json, "stop").map_err(wire)? {
                Some(label) => {
                    use StopWhen::*;
                    let stops = [AllHonestHalted, AllHonestDecided, MaxRoundsOnly];
                    find_row("stop", &label, stops, stop_label)?
                }
                None => protocol.default_stop(),
            },
            fault: key_or(json, "fault", FaultPlan::default())?,
        };
        if spec.n == 0 {
            return err("n must be at least 1");
        }
        if spec.max_rounds == 0 {
            return err("max_rounds must be at least 1");
        }
        let invalid = |e| SpecError(format!("fault plan: {e}"));
        spec.fault.validate().map_err(invalid)?;
        Ok(spec)
    }

    /// The seed of a `random` placement: the matrix's rule, graph seed
    /// base (`graph_seed − n`) XOR engine seed.
    pub fn placement_seed(&self) -> u64 {
        self.graph_seed.wrapping_sub(self.n as u64) ^ self.engine_seed
    }

    /// Generates the cell's graph from `graph_seed`.
    pub fn generate(&self) -> Result<Graph, SpecError> {
        self.family.generate(self.n, self.graph_seed)
    }

    /// Places the Byzantine nodes on `graph` and builds the engine
    /// config: the part of [`CellSpec::build`] every row shares.
    fn frame(&self, graph: &Graph) -> Result<(Vec<NodeId>, SimConfig), SpecError> {
        // The engine asserts on out-of-range crash ids; check here so a bad
        // plan is a structured error, not a panic.
        let n = graph.len();
        let bad_crash = self.fault.crashes.iter().find(|ev| ev.node as usize >= n);
        if let Some(node) = bad_crash.map(|ev| ev.node) {
            return err(format!(
                "fault plan: crash node {node} out of range (n={n})"
            ));
        }
        let byz = self
            .placement
            .place(graph, self.byzantine, self.placement_seed())?;
        let config = SimConfig::builder()
            .seed(self.engine_seed)
            .max_rounds(self.max_rounds)
            .stop_when(self.stop)
            .fault_plan(self.fault.clone())
            .build()
            .map_err(|e| SpecError(e.to_string()))?;
        Ok((byz, config))
    }

    /// Builds the cell on `graph` ([`CellSpec::generate`]'s output) into a
    /// type-erased execution at round 0: place, configure,
    /// `Execution::new`, erase — no other work. Erased estimates are each
    /// protocol's raw value, saturated to finite. This is the registry's
    /// protocol × adversary table: an unlisted pairing is a [`SpecError`].
    pub fn build(&self, graph: Arc<Graph>) -> Result<Box<dyn DynExecution>, SpecError> {
        use AdversarySpec as A;
        let (byz, config) = self.frame(&graph)?;
        // One protocol row: its node factory, its raw-estimate hook, and the
        // adversaries it pairs with besides `silent` (which pairs with all).
        macro_rules! row {
            ($factory:expr, $raw:expr, { $($adv:pat => $make:expr),+ $(,)? }) => {
                match self.adversary {
                    A::Null => Execution::new(graph, &byz, $factory, NullAdversary, config).erase($raw),
                    $($adv => Execution::new(graph, &byz, $factory, $make, config).erase($raw),)+
                    _ => return err(format!(
                        "adversary '{}' is incompatible with protocol '{}'",
                        self.adversary.label(),
                        self.protocol.label()
                    )),
                }
            };
        }
        Ok(match self.protocol {
            ProtocolSpec::Congest => {
                let params = CongestParams::default();
                row!(
                    move |_: NodeId, init: &NodeInit| CongestCounting::new(params, init),
                    |e: &CongestEstimate| f64::from(e.estimate),
                    {
                        A::BeaconSpam => BeaconSpamAdversary::new(params),
                        A::PathTamper => PathTamperAdversary::new(params),
                        A::OscillatingSpam => OscillatingSpamAdversary::new(params),
                    }
                )
            }
            ProtocolSpec::Local {
                max_degree,
                alpha_prime,
                exhaustive_limit,
            } => {
                let cfg = LocalConfig {
                    max_degree,
                    alpha_prime,
                    exhaustive_limit,
                    ..LocalConfig::default()
                };
                row!(
                    move |_: NodeId, init: &NodeInit| LocalCounting::new(cfg, init),
                    |e: &LocalEstimate| f64::from(e.radius),
                    {
                        A::FakeExpander { seed } => FakeExpanderAdversary::new(2, 8, 2, seed),
                        A::EdgeInjector { seed } => EdgeInjectorAdversary::new(seed),
                    }
                )
            }
            ProtocolSpec::GeometricMax { budget } => row!(
                move |_: NodeId, init: &NodeInit| GeometricMax::new(budget, init),
                |v: &u32| f64::from(*v),
                {
                    A::MaxFaker { fake_value } => MaxFakerAdversary { fake_value },
                }
            ),
            ProtocolSpec::Support => row!(
                |_: NodeId, init: &NodeInit| SupportEstimation::new(64, 40, init),
                |v: &f64| saturate(*v),
                {
                    A::ZeroFaker => ZeroFakerAdversary { k: 64 },
                }
            ),
            ProtocolSpec::Convergecast => row!(
                |u: NodeId, init: &NodeInit| Convergecast::new(u == NodeId(0), init),
                |v: &u64| *v as f64,
                {
                    A::CountLiar { inflation } => CountLiarAdversary { inflation },
                }
            ),
            ProtocolSpec::Birthday => {
                let tau = 3 * (graph.len() as f64).ln().ceil() as u32;
                let budget = u64::from(tau) + 30;
                row!(
                    move |_: NodeId, init: &NodeInit| BirthdayCounting::new(tau, budget, init),
                    |v: &f64| saturate(*v),
                    {
                        A::CollisionFaker => CollisionFakerAdversary { duplicate: true, count: 64 },
                    }
                )
            }
        })
    }

    /// Builds `factory`'s protocol (one the registry does not know, like
    /// the daemon's `panic-probe`) on this cell's frame, silent adversary.
    pub(crate) fn build_silent<P>(
        &self,
        graph: Arc<Graph>,
        factory: impl FnMut(NodeId, &NodeInit) -> P,
        raw: fn(&P::Output) -> f64,
    ) -> Result<Box<dyn DynExecution>, SpecError>
    where
        P: Protocol + PhaseSend + 'static,
        P::Message: PhaseShared,
    {
        let (byz, config) = self.frame(&graph)?;
        Ok(Execution::new(graph, &byz, factory, NullAdversary, config).erase(raw))
    }
}
