//! The declarative scenario matrix behind the experiment suite.
//!
//! A [`Scenario`] names one sweep: a graph family × a size sweep × a
//! Byzantine budget/placement × an adversary × a protocol (LOCAL /
//! CONGEST / a classical baseline) × a seed set. [`Scenario::cells`]
//! expands it into cells of the shared registry ([`bcount_daemon::cell`],
//! which `bcountd` builds its sessions from too), and [`run_scenario`]
//! runs each through [`CellSpec::build`] into one [`CellRecord`] — the
//! machine-readable outcome records that the `--json` artifact persists
//! and the CI gates consume. With the `parallel` feature the cells fan
//! out over the persistent worker pool (results land in pre-assigned
//! slots, so output is identical at every pool width).
//!
//! The experiment tables E1–E14 that are sweeps (as opposed to bespoke
//! constructions like the phantom-copy graphs of E8) are built by mapping
//! cell records into rows. Estimates are compared on the paper's
//! `L ≈ ln n` scale ([`ProtocolSpec::normalize`]), so one [`Band`] check
//! covers the matrix; the raw (native-quantity) median is kept alongside
//! in [`CellOutcome::raw_median`] for tables like E9.

use std::sync::Arc;

use bcount_core::estimate::{Band, EstimateReport};
use bcount_daemon::cell::CellSpec;
use bcount_graph::{Graph, NodeId};
use bcount_json::{Json, ToJson};
use bcount_sim::{DynExecution, FaultPlan, StopReason, StopWhen};

pub use bcount_daemon::cell::{AdversarySpec, BudgetSpec, GraphFamily, Placement, ProtocolSpec};

use crate::runners::far_honest_nodes;
use crate::stats::{median, percentile};

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
    /// fault-free matrix). A non-empty plan adds the engine's crash and
    /// fault passes and keeps rounds on the slot → position table; faulty
    /// sweeps stay byte-deterministic (the plan's own seed drives the
    /// fault RNG; the cell seed never feeds it).
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

    /// The cross product `sizes × budgets × placements × seeds` as
    /// registry cells, each with its seed-set entry (`seeds` overrides the
    /// scenario's set when non-empty). A size-`n` cell draws its graph
    /// from `graph_seed_base + n` and its engine from `seed + n`.
    pub fn cells(&self, quick: bool, seeds: Option<&[u64]>) -> Vec<(CellSpec, u64)> {
        let seed_set = match seeds {
            Some(list) if !list.is_empty() => list,
            _ => &self.seeds[..],
        };
        let stop = if self.run_to_halt {
            StopWhen::AllHonestHalted
        } else {
            self.protocol.default_stop()
        };
        let mut cells = Vec::new();
        for &n in self.sizes_for(quick) {
            for budget in self.budgets_for(quick) {
                for placement in &self.placements {
                    for &seed in seed_set {
                        let engine_seed = seed.wrapping_add(n as u64);
                        let spec = CellSpec {
                            family: self.family,
                            n,
                            protocol: self.protocol,
                            adversary: self.adversary,
                            placement: placement.clone(),
                            byzantine: budget.resolve(n),
                            graph_seed: self.graph_seed_base + n as u64,
                            engine_seed,
                            max_rounds: self.max_rounds,
                            stop,
                            fault: self.fault.clone().unwrap_or_default(),
                        };
                        cells.push((spec, seed));
                    }
                }
            }
        }
        cells
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

/// Runs the full cross product of one scenario; `seeds` overrides the
/// scenario's seed set when given (the bin's `--seeds` flag).
///
/// Every cell is an independent simulation, so with the `parallel`
/// feature the cells **fan out over the persistent worker pool**
/// (`BCOUNT_POOL_THREADS` sizes it) — cutting full-suite wall clock by
/// roughly the core count. Records land in pre-assigned slots, so the
/// returned order (and every record in it) is identical to a one-thread
/// pool's, whatever the scheduling.
pub fn run_scenario(s: &Scenario, quick: bool, seeds: Option<&[u64]>) -> Vec<CellRecord> {
    let cells = s.cells(quick, seeds);
    // One graph per size, shared by every cell of that size.
    let mut graphs: Vec<(usize, Arc<Graph>)> = Vec::new();
    for (spec, _) in &cells {
        if graphs.iter().all(|(n, _)| *n != spec.n) {
            let graph = spec
                .generate()
                .expect("scenario families have valid parameters");
            graphs.push((spec.n, Arc::new(graph)));
        }
    }
    let mut tasks: Vec<(CellSpec, u64, Option<CellRecord>)> = cells
        .into_iter()
        .map(|(spec, seed)| (spec, seed, None))
        .collect();
    // Chunk size 1: each cell is a whole simulation — orders of magnitude
    // coarser than the fork overhead, and the smallest unit that load-
    // balances a heterogeneous sweep (large-n cells dominate).
    bcount_sim::pool::for_each_chunk_mut(&mut tasks, 1, &|_,
                                                          chunk: &mut [(
        CellSpec,
        u64,
        Option<CellRecord>,
    )]| {
        for (spec, seed, record) in chunk {
            let (_, graph) = graphs
                .iter()
                .find(|(n, _)| *n == spec.n)
                .expect("every cell size has a graph");
            let exec = execute(spec, Arc::clone(graph));
            let (budget, outcome) = summarize(s, graph, exec.as_ref());
            *record = Some(CellRecord {
                scenario: s.name.clone(),
                family: s.family.label(),
                protocol: s.protocol.label().into(),
                adversary: s.adversary.label().into(),
                placement: spec.placement.label(),
                n: graph.len(),
                budget,
                seed: *seed,
                outcome,
            });
        }
    });
    tasks
        .into_iter()
        .map(|(_, _, record)| record.expect("every cell slot visited"))
        .collect()
}

/// The matrix's per-cell execution: builds `spec` on its generated
/// `graph` and steps it to its stop condition. Panics on a cell the
/// registry refuses (scenario definitions are code, not input).
pub fn execute(spec: &CellSpec, graph: Arc<Graph>) -> Box<dyn DynExecution> {
    let mut exec = spec
        .build(graph)
        .unwrap_or_else(|e| panic!("scenario cell cannot be built: {e}"));
    exec.step_rounds(spec.max_rounds);
    exec
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

/// Folds a finished execution into its Byzantine node count and a
/// [`CellOutcome`]: estimates are the nodes' raw values (finite by the
/// registry's contract), normalized by the scenario's protocol.
fn summarize(s: &Scenario, g: &Graph, exec: &dyn DynExecution) -> (usize, CellOutcome) {
    let n = g.len();
    let states = exec.node_states();
    let metrics = exec.metrics();
    let byz: Vec<NodeId> = (0..n)
        .filter(|&u| states[u].byzantine)
        .map(|u| NodeId(u as u32))
        .collect();
    let est_of = |u: usize| states[u].estimate.map(|raw| s.protocol.normalize(raw));
    let all_nodes: Vec<usize> = (0..n).filter(|&u| !states[u].byzantine).collect();
    let far = far_honest_nodes(g, &byz, 2);
    let all = EstimateReport::evaluate(n, all_nodes.iter().map(|&u| est_of(u)), s.band);
    let far_report = EstimateReport::evaluate(n, far.iter().map(|&u| est_of(u)), s.band);
    let dec_rounds: Vec<f64> = far
        .iter()
        .filter_map(|&u| states[u].decided_round.map(|r| r as f64))
        .collect();
    let raws: Vec<f64> = all_nodes
        .iter()
        .filter_map(|&u| states[u].estimate)
        .collect();
    let maxes: Vec<f64> = all_nodes
        .iter()
        .map(|&u| metrics.per_node[u].max_message_bits as f64)
        .collect();
    // E5's "small message" limit: a beacon path of (log_d n + 6) 64-bit
    // IDs plus tag bits.
    let d = s.family.degree_hint().max(2);
    let limit = (((n.max(2) as f64).ln() / (d as f64).ln()).ceil() as u64 + 6) * 64 + 2;
    let small = metrics.count_within_message_limit(all_nodes.iter().copied(), limit);
    let outcome = CellOutcome {
        all,
        far: far_report,
        decision_rounds: RoundStats {
            median: median(&dec_rounds),
            p95: percentile(&dec_rounds, 95.0),
            max: percentile(&dec_rounds, 100.0),
        },
        rounds: exec.round(),
        stop_reason: exec.finished().expect("cells run to their stop condition"),
        halted: states.iter().filter(|st| st.halted).count(),
        raw_median: median(&raws),
        msg_bits_median: median(&maxes),
        msg_bits_p99: percentile(&maxes, 99.0),
        small_msg_fraction: if all_nodes.is_empty() {
            0.0
        } else {
            small as f64 / all_nodes.len() as f64
        },
        dropped: metrics.dropped,
        duplicated: metrics.duplicated,
        delayed: metrics.delayed,
        crashed: metrics.crashed,
    };
    (byz.len(), outcome)
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
            protocol: ProtocolSpec::Congest,
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
            protocol: ProtocolSpec::rows()[0],
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
