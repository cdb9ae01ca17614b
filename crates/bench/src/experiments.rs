//! The experiment suite E1–E14; each `eN` function's doc names the claim
//! of the paper it measures.
//!
//! Sweep-style experiments (E1–E6, E9, E13, E14) are declarative
//! [`Scenario`]s executed by the generic matrix runner in
//! [`crate::scenario`]; each experiment maps the resulting [`CellRecord`]s
//! into a printable [`Table`] and keeps the cells alongside for the
//! `--json` artifact. Bespoke constructions (E7's structural census, E8's
//! phantom-copy graphs, E10's pipeline, E11/E12's ablations) run their own
//! loops and carry no cells.
//!
//! `quick = true` shrinks the sweeps for smoke-testing; a full run
//! (`experiments -- all`, see the README's "Machine-readable experiment
//! pipeline") uses `quick = false` in release mode.

use bcount_apps::{counting_then_agreement, AgreementParams, AgreementProtocol};
use bcount_core::adversary::phantom::phantom_copies;
use bcount_core::adversary::{BeaconSpamAdversary, FakeExpanderAdversary};
use bcount_core::congest::CongestParams;
use bcount_core::estimate::Band;
use bcount_core::local::{LocalConfig, LocalTrigger};
use bcount_graph::analysis::bfs::diameter;
use bcount_graph::analysis::treelike::{tree_like_count, tree_like_radius};
use bcount_graph::{Graph, NodeId};
use bcount_sim::{NullAdversary, SimConfig, Simulation};

use crate::runners::{far_honest_nodes, network, run_congest, run_local, spread_byzantine};
use crate::scenario::{
    run_scenario, AdversarySpec, BudgetSpec, CellRecord, GraphFamily, Placement, ProtocolSpec,
    Scenario,
};
use crate::stats::{fitted_exponent, median, percentile};
use crate::table::Table;

/// The acceptance band used for Algorithm 1 (decides near
/// `diam ≈ log_Δ n`, with mute cascades shortening near-Byzantine
/// decisions).
pub const LOCAL_BAND: Band = Band { lo: 0.2, hi: 2.0 };

/// The acceptance band used for Algorithm 2 (decides near
/// `log_d n + O(1)`).
pub const CONGEST_BAND: Band = Band { lo: 0.15, hi: 3.0 };

const D: usize = 8;

/// One experiment's output: the printable table plus the machine-readable
/// cell records behind it (empty for bespoke, non-sweep experiments).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The experiment's short name (`e1` … `e14`).
    pub name: String,
    /// The paper-style table.
    pub table: Table,
    /// The scenario cells the table was derived from.
    pub cells: Vec<CellRecord>,
}

impl ExperimentResult {
    fn bespoke(name: &str, table: Table) -> Self {
        ExperimentResult {
            name: name.into(),
            table,
            cells: Vec::new(),
        }
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.2}")
}

/// The scenario template most sweeps start from.
fn base_scenario(name: &str) -> Scenario {
    Scenario {
        name: name.into(),
        family: GraphFamily::Hnd { d: D },
        sizes: Vec::new(),
        quick_sizes: Vec::new(),
        budgets: vec![BudgetSpec::None],
        quick_budgets: Vec::new(),
        placements: vec![Placement::Spread],
        adversary: AdversarySpec::Null,
        protocol: ProtocolSpec::Congest(CongestParams::default()),
        band: CONGEST_BAND,
        seeds: vec![0],
        max_rounds: 8_000,
        graph_seed_base: 0,
        run_to_halt: false,
        fault: None,
    }
}

/// Runs a scenario list in quick/full mode and interleaves the cells by
/// size (scenario order within one size), matching the historical row
/// order of the printed tables.
fn sweep(scenarios: &[Scenario], quick: bool) -> Vec<CellRecord> {
    let mut cells: Vec<CellRecord> = scenarios
        .iter()
        .flat_map(|s| run_scenario(s, quick, None))
        .collect();
    cells.sort_by_key(|c| c.n); // stable: keeps scenario order within n
    cells
}

// ---------------------------------------------------------------------------
// Scenario definitions (shared by the experiments and the `--scenario`
// matrix).
// ---------------------------------------------------------------------------

/// E1's scenarios: LOCAL under Theorem 1 budgets, silent vs fake-expander.
pub fn e1_scenarios() -> Vec<Scenario> {
    [
        AdversarySpec::Null,
        AdversarySpec::FakeExpander {
            multiplier: 2,
            d_fake: D,
            entries: 2,
            seed: 7,
        },
    ]
    .into_iter()
    .map(|adversary| Scenario {
        sizes: vec![64, 128, 256, 512],
        quick_sizes: vec![64, 128],
        budgets: vec![BudgetSpec::Theorem1 { gamma: 0.7 }],
        adversary,
        protocol: ProtocolSpec::Local(LocalConfig {
            max_degree: D + 2,
            ..LocalConfig::default()
        }),
        band: LOCAL_BAND,
        seeds: vec![1],
        max_rounds: 200,
        graph_seed_base: 1000,
        ..base_scenario(&format!("e1/local/{}", adversary.label()))
    })
    .collect()
}

/// E2's scenario: benign LOCAL round complexity.
pub fn e2_scenarios() -> Vec<Scenario> {
    vec![Scenario {
        sizes: vec![64, 128, 256, 512, 1024],
        quick_sizes: vec![64, 256],
        protocol: ProtocolSpec::Local(LocalConfig {
            max_degree: D,
            ..LocalConfig::default()
        }),
        band: LOCAL_BAND,
        seeds: vec![1],
        max_rounds: 200,
        graph_seed_base: 2000,
        ..base_scenario("e2/local/benign")
    }]
}

/// E3's scenarios: CONGEST under Theorem 2 budgets, beacon spam vs path
/// tampering.
pub fn e3_scenarios() -> Vec<Scenario> {
    [AdversarySpec::BeaconSpam, AdversarySpec::PathTamper]
        .into_iter()
        .map(|adversary| Scenario {
            sizes: vec![128, 256, 512, 1024],
            quick_sizes: vec![128, 256],
            budgets: vec![BudgetSpec::Theorem2 { xi: 0.05 }],
            adversary,
            seeds: vec![17],
            graph_seed_base: 3000,
            ..base_scenario(&format!("e3/congest/{}", adversary.label()))
        })
        .collect()
}

/// E4's scenarios: CONGEST decision rounds vs the Byzantine budget.
pub fn e4_scenarios() -> Vec<Scenario> {
    let sizes = |s: Scenario| Scenario {
        sizes: vec![512],
        quick_sizes: vec![128],
        seeds: vec![77],
        max_rounds: 12_000,
        graph_seed_base: 4000,
        ..s
    };
    vec![
        sizes(base_scenario("e4/congest/benign")),
        sizes(Scenario {
            budgets: [2usize, 4, 8, 16, 32]
                .iter()
                .map(|&b| BudgetSpec::Fixed(b))
                .collect(),
            quick_budgets: vec![BudgetSpec::Fixed(4)],
            adversary: AdversarySpec::BeaconSpam,
            ..base_scenario("e4/congest/beacon-spam")
        }),
    ]
}

/// E5's scenarios: message sizes for CONGEST (benign + spam) and LOCAL.
pub fn e5_scenarios() -> Vec<Scenario> {
    let sized = |s: Scenario| Scenario {
        sizes: vec![128, 256, 512],
        quick_sizes: vec![128],
        seeds: vec![5],
        graph_seed_base: 5000,
        ..s
    };
    vec![
        sized(base_scenario("e5/congest/benign")),
        sized(Scenario {
            budgets: vec![BudgetSpec::Theorem2 { xi: 0.05 }],
            adversary: AdversarySpec::BeaconSpam,
            ..base_scenario("e5/congest/beacon-spam")
        }),
        sized(Scenario {
            protocol: ProtocolSpec::Local(LocalConfig {
                max_degree: D,
                ..LocalConfig::default()
            }),
            band: LOCAL_BAND,
            max_rounds: 200,
            ..base_scenario("e5/local/benign")
        }),
    ]
}

/// E6's scenario: benign CONGEST run to termination.
pub fn e6_scenarios() -> Vec<Scenario> {
    vec![Scenario {
        sizes: vec![64, 128, 256, 512, 1024, 2048],
        quick_sizes: vec![64, 256],
        seeds: vec![0],
        max_rounds: 60_000,
        graph_seed_base: 6000,
        run_to_halt: true,
        fault: None,
        ..base_scenario("e6/congest/benign")
    }]
}

/// E9's scenarios: every classical baseline, benign and under one
/// Byzantine node, plus this paper's CONGEST algorithm for contrast.
pub fn e9_scenarios() -> Vec<Scenario> {
    // Shared sweep coordinates. The band/round budget are NOT set here:
    // struct-update syntax would override per-scenario values (the
    // baselines want the wide raw-value band, the CONGEST contrast wants
    // the paper's band).
    let sized = |s: Scenario| Scenario {
        sizes: vec![256],
        quick_sizes: vec![64],
        seeds: vec![13],
        graph_seed_base: 9000,
        ..s
    };
    // Baselines report native quantities (`n`, `log₂ n`), so the ln-scale
    // band check is moot for them — open it wide and give the slower
    // baselines their historical round budget.
    let baseline = |s: Scenario| {
        sized(Scenario {
            max_rounds: 100_000,
            band: Band {
                lo: 0.0,
                hi: 1.0e12,
            },
            ..s
        })
    };
    // One Byzantine node away from node 0, which convergecast uses as its
    // root (a Byzantine root would leave nobody to report the count).
    let attacked = |s: Scenario| Scenario {
        budgets: vec![BudgetSpec::Fixed(1)],
        placements: vec![Placement::At { start: 7 }],
        ..s
    };
    vec![
        baseline(Scenario {
            protocol: ProtocolSpec::GeometricMax { budget: 40 },
            ..base_scenario("e9/geometric-max/benign")
        }),
        baseline(attacked(Scenario {
            protocol: ProtocolSpec::GeometricMax { budget: 40 },
            adversary: AdversarySpec::MaxFaker {
                fake_value: 1_000_000,
            },
            ..base_scenario("e9/geometric-max/max-faker")
        })),
        baseline(Scenario {
            protocol: ProtocolSpec::Support { k: 64, budget: 40 },
            ..base_scenario("e9/support-estimation/benign")
        }),
        baseline(attacked(Scenario {
            protocol: ProtocolSpec::Support { k: 64, budget: 40 },
            adversary: AdversarySpec::ZeroFaker { k: 64 },
            ..base_scenario("e9/support-estimation/zero-faker")
        })),
        baseline(Scenario {
            protocol: ProtocolSpec::Convergecast,
            ..base_scenario("e9/convergecast/benign")
        }),
        baseline(attacked(Scenario {
            protocol: ProtocolSpec::Convergecast,
            adversary: AdversarySpec::CountLiar {
                inflation: 1_000_000,
            },
            ..base_scenario("e9/convergecast/count-liar")
        })),
        baseline(Scenario {
            protocol: ProtocolSpec::Birthday,
            ..base_scenario("e9/birthday-paradox/benign")
        }),
        baseline(attacked(Scenario {
            protocol: ProtocolSpec::Birthday,
            adversary: AdversarySpec::CollisionFaker {
                duplicate: true,
                count: 64,
            },
            ..base_scenario("e9/birthday-paradox/collision-faker")
        })),
        sized(Scenario {
            budgets: vec![BudgetSpec::Fixed(1)],
            adversary: AdversarySpec::BeaconSpam,
            band: CONGEST_BAND,
            max_rounds: 8_000,
            ..base_scenario("e9/congest/beacon-spam")
        }),
    ]
}

/// E13's scenario: the budget-tolerance sweep past `n^{1/2}`.
pub fn e13_scenarios() -> Vec<Scenario> {
    vec![Scenario {
        sizes: vec![256],
        quick_sizes: vec![128],
        budgets: [1usize, 4, 8, 16, 32, 64, 96]
            .iter()
            .map(|&b| BudgetSpec::Fixed(b))
            .collect(),
        quick_budgets: vec![BudgetSpec::Fixed(4), BudgetSpec::Fixed(32)],
        adversary: AdversarySpec::BeaconSpam,
        seeds: vec![37],
        graph_seed_base: 13_000,
        ..base_scenario("e13/congest/beacon-spam")
    }]
}

/// E14's scenario: Byzantine placement sensitivity.
pub fn e14_scenarios() -> Vec<Scenario> {
    vec![Scenario {
        sizes: vec![256],
        quick_sizes: vec![128],
        budgets: vec![BudgetSpec::Theorem2 { xi: 0.05 }],
        placements: vec![Placement::Spread, Placement::Random, Placement::Clustered],
        adversary: AdversarySpec::BeaconSpam,
        seeds: vec![41],
        graph_seed_base: 14_000,
        ..base_scenario("e14/congest/beacon-spam")
    }]
}

/// Extra matrix rows beyond the numbered experiments: the graph-family
/// axis (the paper's guarantees are family-dependent — small worlds
/// expand, so Algorithm 2 still works there).
pub fn family_scenarios() -> Vec<Scenario> {
    vec![Scenario {
        family: GraphFamily::WattsStrogatz { k: 8, p: 0.2 },
        sizes: vec![128, 256],
        quick_sizes: vec![128],
        seeds: vec![3],
        max_rounds: 20_000,
        run_to_halt: true,
        fault: None,
        graph_seed_base: 15_000,
        ..base_scenario("family/watts-strogatz/congest-benign")
    }]
}

/// Scale-tier matrix rows: the compact-plane engine at 2^16 and 2^20
/// nodes under the cheap geometric-max baseline and its max-faker
/// attack. These rows exist to put million-node wall-clock (and, via the
/// artifact's `peak_rss_kb`, memory footprint) on the experimental
/// record — estimate quality at this tier is not the question, so the
/// acceptance band is unconstrained. Run them with
/// `--scenario scale` (full mode reaches n = 2^20; `--quick` stays at
/// 2^16).
pub fn scale_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            sizes: vec![65_536, 1_048_576],
            quick_sizes: vec![65_536],
            budgets: vec![BudgetSpec::Fixed(8)],
            adversary: AdversarySpec::MaxFaker {
                fake_value: 1 << 20,
            },
            protocol: ProtocolSpec::GeometricMax { budget: 12 },
            band: Band::new(0.0, 1e9),
            seeds: vec![5],
            max_rounds: 64,
            graph_seed_base: 16_000,
            ..base_scenario("scale/geometric-max/max-faker")
        },
        // A *full LOCAL execution* at the million-node tier. Algorithm 1
        // floods whole views, so it is only tractable at n = 2^20 on a
        // low-expansion family where the expansion check fails while
        // views are still tiny: on the cycle a radius-r view is a path
        // of 2r + 1 nodes with boundary expansion 2/(2r + 1), so with
        // α′ = 0.2 every node decides once its view holds ~11 nodes.
        // `exhaustive_limit: 8` keeps the per-round check on the sweep +
        // Fiedler members instead of the 2^|view| subset enumeration.
        Scenario {
            family: GraphFamily::Cycle,
            sizes: vec![65_536, 1_048_576],
            quick_sizes: vec![65_536],
            budgets: vec![BudgetSpec::Fixed(8)],
            protocol: ProtocolSpec::Local(LocalConfig {
                alpha_prime: 0.2,
                exhaustive_limit: 8,
                ..LocalConfig::default()
            }),
            band: Band::new(0.0, 1e9),
            seeds: vec![5],
            max_rounds: 64,
            graph_seed_base: 17_000,
            ..base_scenario("scale/local/cycle/null")
        },
    ]
}

/// The standard scenario matrix behind the `--scenario` CLI: every
/// sweep-style experiment's scenarios plus the extra family axis and the
/// scale tier.
pub fn standard_matrix() -> Vec<Scenario> {
    let mut all = Vec::new();
    all.extend(e1_scenarios());
    all.extend(e2_scenarios());
    all.extend(e3_scenarios());
    all.extend(e4_scenarios());
    all.extend(e5_scenarios());
    all.extend(e6_scenarios());
    all.extend(e9_scenarios());
    all.extend(e13_scenarios());
    all.extend(e14_scenarios());
    all.extend(family_scenarios());
    all.extend(scale_scenarios());
    all
}

// ---------------------------------------------------------------------------
// Scenario-driven experiments.
// ---------------------------------------------------------------------------

/// E1 — Theorem 1: coverage and approximation of the LOCAL algorithm
/// under `n^{1−γ}` Byzantine nodes and the fake-expander attack.
pub fn e1(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E1: Theorem 1 — LOCAL coverage under n^(1-gamma) Byzantine nodes (fake-expander attack)",
        &[
            "n",
            "B(n)",
            "adversary",
            "decided",
            "far in-band",
            "median L/ln n",
            "rounds",
        ],
    );
    let cells = sweep(&e1_scenarios(), quick);
    for c in &cells {
        t.push_row(vec![
            c.n.to_string(),
            c.budget.to_string(),
            c.adversary.clone(),
            fmt(c.outcome.all.decided_fraction()),
            fmt(c.outcome.far.in_band_fraction()),
            fmt(c.outcome.far.median_ratio),
            c.outcome.rounds.to_string(),
        ]);
    }
    ExperimentResult {
        name: "e1".into(),
        table: t,
        cells,
    }
}

/// E2 — Theorem 1: `O(log n)` round complexity (time-optimality) of the
/// LOCAL algorithm; decisions land at `diam(G) + O(1)`.
pub fn e2(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E2: Theorem 1 — LOCAL rounds scale with diam = O(log n)",
        &["n", "ln n", "diam", "median decision round", "max round"],
    );
    let scenarios = e2_scenarios();
    let cells = sweep(&scenarios, quick);
    for c in &cells {
        // The runner's graphs are deterministic, so the diameter can be
        // recomputed from the scenario coordinates.
        let g = scenarios[0]
            .family
            .generate(c.n, scenarios[0].graph_seed_base + c.n as u64);
        let diam = diameter(&g).expect("connected");
        t.push_row(vec![
            c.n.to_string(),
            fmt((c.n as f64).ln()),
            diam.to_string(),
            fmt(c.outcome.decision_rounds.median),
            fmt(c.outcome.decision_rounds.max),
        ]);
    }
    ExperimentResult {
        name: "e2".into(),
        table: t,
        cells,
    }
}

/// E3 — Theorem 2: coverage and approximation of the CONGEST algorithm
/// under `B(n) = n^{1/2−ξ}` Byzantine beacon spammers.
pub fn e3(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E3: Theorem 2 — CONGEST coverage under B(n) = n^(1/2-xi) beacon spam",
        &[
            "n",
            "B(n)",
            "adversary",
            "far decided",
            "far in-band",
            "median L/ln n",
            "p95 decision round",
        ],
    );
    let cells = sweep(&e3_scenarios(), quick);
    for c in &cells {
        t.push_row(vec![
            c.n.to_string(),
            c.budget.to_string(),
            c.adversary.clone(),
            fmt(c.outcome.far.decided_fraction()),
            fmt(c.outcome.far.in_band_fraction()),
            fmt(c.outcome.far.median_ratio),
            fmt(c.outcome.decision_rounds.p95),
        ]);
    }
    ExperimentResult {
        name: "e3".into(),
        table: t,
        cells,
    }
}

/// E4 — Theorem 2: rounds grow with the Byzantine budget as
/// `O(B(n)·log² n)` (decision time measured at the 95th percentile of
/// honest decisions).
pub fn e4(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E4: Theorem 2 — CONGEST decision rounds vs Byzantine budget (O(B log^2 n))",
        &["n", "B", "p95 decision round", "all-decided rounds"],
    );
    let mut cells = sweep(&e4_scenarios(), quick);
    cells.sort_by_key(|c| c.budget);
    for c in &cells {
        t.push_row(vec![
            c.n.to_string(),
            c.budget.to_string(),
            fmt(c.outcome.decision_rounds.p95),
            c.outcome.rounds.to_string(),
        ]);
    }
    ExperimentResult {
        name: "e4".into(),
        table: t,
        cells,
    }
}

/// E5 — Theorem 2: most good nodes send only small messages. Reports the
/// per-node maximum message size for the CONGEST algorithm (vs the LOCAL
/// algorithm's polynomial messages).
pub fn e5(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E5: Theorem 2 — message sizes (bits, 64-bit IDs): CONGEST stays small, LOCAL is polynomial",
        &[
            "n",
            "algo",
            "median max-msg",
            "p99 max-msg",
            "small-msg fraction",
        ],
    );
    let cells = sweep(&e5_scenarios(), quick);
    for c in &cells {
        let label = match (c.protocol.as_str(), c.adversary.as_str()) {
            ("congest", "silent") => "CONGEST benign",
            ("congest", _) => "CONGEST spam",
            _ => "LOCAL benign",
        };
        t.push_row(vec![
            c.n.to_string(),
            label.into(),
            fmt(c.outcome.msg_bits_median),
            fmt(c.outcome.msg_bits_p99),
            fmt(c.outcome.small_msg_fraction),
        ]);
    }
    ExperimentResult {
        name: "e5".into(),
        table: t,
        cells,
    }
}

/// E6 — Corollary 1: benign executions terminate in `O(log n)` rounds
/// with tightly clustered estimates.
pub fn e6(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E6: Corollary 1 — benign CONGEST: everyone decides, terminates, estimates cluster",
        &[
            "n",
            "ln n",
            "log_d n",
            "min L",
            "median L",
            "max L",
            "rounds",
            "all halted",
        ],
    );
    let cells = sweep(&e6_scenarios(), quick);
    for c in &cells {
        let ln_n = (c.n as f64).ln();
        t.push_row(vec![
            c.n.to_string(),
            fmt(ln_n),
            fmt(ln_n / (D as f64).ln()),
            fmt(c.outcome.all.min_estimate),
            fmt(c.outcome.all.median_ratio * ln_n),
            fmt(c.outcome.all.max_estimate),
            c.outcome.rounds.to_string(),
            format!("{}", c.outcome.halted == c.n),
        ]);
    }
    ExperimentResult {
        name: "e6".into(),
        table: t,
        cells,
    }
}

/// E9 — Section 1.2: the classical baselines are exact/accurate when
/// benign and arbitrarily wrong under a single Byzantine node.
pub fn e9(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E9: baselines break under ONE Byzantine node (estimates of the quantity each reports)",
        &["protocol", "quantity", "benign", "1 Byzantine"],
    );
    let cells = sweep(&e9_scenarios(), quick);
    let n = cells.first().map(|c| c.n).unwrap_or(0);
    let raw_of = |protocol: &str, adversary: &str| {
        cells
            .iter()
            .find(|c| c.protocol == protocol && c.adversary == adversary)
            .map(|c| {
                // Clamped ±inf (a baseline broken beyond measure) prints
                // as the infinity it really was.
                if c.outcome.raw_median >= 1.0e300 {
                    "inf".into()
                } else if c.outcome.raw_median <= -1.0e300 {
                    "-inf".into()
                } else {
                    fmt(c.outcome.raw_median)
                }
            })
            .unwrap_or_default()
    };
    for (protocol, attack, quantity) in [
        (
            "geometric-max",
            "max-faker",
            format!("log2 n = {:.2}", (n as f64).log2()),
        ),
        ("support-estimation", "zero-faker", format!("n = {n}")),
        ("convergecast", "count-liar", format!("n = {n}")),
        ("birthday-paradox", "collision-faker", format!("n = {n}")),
    ] {
        t.push_row(vec![
            protocol.into(),
            quantity,
            raw_of(protocol, "silent"),
            raw_of(protocol, attack),
        ]);
    }
    if let Some(c) = cells
        .iter()
        .find(|c| c.protocol == "congest" && c.adversary == "beacon-spam")
    {
        t.push_row(vec![
            "this paper (Algorithm 2)".into(),
            format!("ln n = {:.2}", (n as f64).ln()),
            "-".into(),
            format!(
                "{} (median, in band)",
                fmt(c.outcome.far.median_ratio * (n as f64).ln())
            ),
        ]);
    }
    ExperimentResult {
        name: "e9".into(),
        table: t,
        cells,
    }
}

/// E13 — beyond the theorem (open problem): how far past `n^{1/2}` can
/// the Byzantine budget grow before coverage degrades? The paper leaves
/// tolerance above `n^{1/2−ξ}` open; this sweep locates the empirical
/// cliff.
pub fn e13(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E13: extension — tolerance sweep past the n^(1/2) budget (open problem of Sec. 7)",
        &[
            "n",
            "B",
            "B/sqrt(n)",
            "far nodes",
            "far decided",
            "far in-band",
            "p95 decision round",
        ],
    );
    let cells = sweep(&e13_scenarios(), quick);
    for c in &cells {
        t.push_row(vec![
            c.n.to_string(),
            c.budget.to_string(),
            fmt(c.budget as f64 / (c.n as f64).sqrt()),
            c.outcome.far.honest.to_string(),
            fmt(c.outcome.far.decided_fraction()),
            fmt(c.outcome.far.in_band_fraction()),
            fmt(c.outcome.decision_rounds.p95),
        ]);
    }
    ExperimentResult {
        name: "e13".into(),
        table: t,
        cells,
    }
}

/// E14 — placement sensitivity: the paper's advance over Chatterjee et
/// al. \[14\] is tolerating *arbitrarily placed* Byzantine nodes (that prior
/// work needed random placement). Compare spread, random, and clustered
/// placements of the same budget.
pub fn e14(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E14: extension — Byzantine placement sensitivity (arbitrary vs random, cf. [14])",
        &[
            "n",
            "B",
            "placement",
            "overall decided",
            "far nodes",
            "far in-band",
        ],
    );
    let cells = sweep(&e14_scenarios(), quick);
    for c in &cells {
        t.push_row(vec![
            c.n.to_string(),
            c.budget.to_string(),
            c.placement.clone(),
            fmt(c.outcome.all.decided_fraction()),
            c.outcome.far.honest.to_string(),
            fmt(c.outcome.far.in_band_fraction()),
        ]);
    }
    ExperimentResult {
        name: "e14".into(),
        table: t,
        cells,
    }
}

// ---------------------------------------------------------------------------
// Bespoke experiments (non-sweep constructions).
// ---------------------------------------------------------------------------

/// E7 — Lemma 2: in `H(n,d)`, all but `O(n^{0.8})` nodes are locally
/// tree-like; reports counts and the fitted exponent.
pub fn e7(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E7: Lemma 2 — non-tree-like nodes in H(n,d) scale as O(n^0.8)",
        &["n", "radius", "non-tree-like", "fraction"],
    );
    let sizes: &[usize] = if quick {
        &[1024, 4096]
    } else {
        &[1024, 2048, 4096, 8192, 16384, 32768]
    };
    // The paper's radius formula ⌊ln n/(10 ln d)⌋ only exceeds 1 for
    // astronomically large n; census both that radius and a fixed radius 2
    // on the sizes where it is meaningful (d⁴ ≪ n — below that almost
    // every radius-2 ball contains a collision, so the census is vacuous).
    let mut points_r1 = Vec::new();
    let mut points_r2 = Vec::new();
    for &n in sizes {
        let g = network(n, D, 7000 + n as u64);
        let mut radii = vec![tree_like_radius(n, D)];
        if n >= 4 * D.pow(4) {
            radii.push(2);
        }
        for r in radii {
            let tl = tree_like_count(&g, r);
            let non = n - tl;
            if r == 2 {
                points_r2.push((n as f64, non as f64));
            } else {
                points_r1.push((n as f64, non as f64));
            }
            t.push_row(vec![
                n.to_string(),
                r.to_string(),
                non.to_string(),
                fmt(non as f64 / n as f64),
            ]);
        }
    }
    for (label, points) in [("r=1 fit", &points_r1), ("r=2 fit", &points_r2)] {
        if points.len() >= 2 {
            let b = fitted_exponent(points);
            t.push_row(vec![
                label.into(),
                "-".into(),
                format!("exponent {b:.2}"),
                "(paper: <= 0.8 + o(1))".into(),
            ]);
        }
    }
    ExperimentResult::bespoke("e7", t)
}

/// E8 — Theorem 3: without expansion, one silent Byzantine cut node makes
/// `n` and `t·n` indistinguishable — estimates stay flat while the true
/// size grows.
pub fn e8(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E8: Theorem 3 — phantom copies behind one Byzantine cut node (estimates cannot track n)",
        &[
            "copies t",
            "true n",
            "ln n",
            "median L (phantom)",
            "median L (expander, same n)",
        ],
    );
    let base_n = if quick { 33 } else { 65 };
    let copies: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let params = CongestParams::default();
    let base = network(base_n, D, 8000);
    for &t_copies in copies {
        let g = phantom_copies(&base, NodeId(0), t_copies);
        let n_total = g.len();
        // The cut node is Byzantine and silent: per-copy transcripts are
        // then identical to a standalone copy with a crashed node.
        let report = run_congest(&g, &[NodeId(0)], params, NullAdversary, 9, 60_000);
        let ests: Vec<f64> = report
            .outputs
            .iter()
            .flatten()
            .map(|e| f64::from(e.estimate))
            .collect();
        // Contrast: an actual expander of the same total size, also with
        // one silent Byzantine node.
        let expander = network(n_total, D, 8100 + t_copies as u64);
        let ereport = run_congest(&expander, &[NodeId(0)], params, NullAdversary, 9, 60_000);
        let eests: Vec<f64> = ereport
            .outputs
            .iter()
            .flatten()
            .map(|e| f64::from(e.estimate))
            .collect();
        t.push_row(vec![
            t_copies.to_string(),
            n_total.to_string(),
            fmt((n_total as f64).ln()),
            fmt(median(&ests)),
            fmt(median(&eests)),
        ]);
    }
    ExperimentResult::bespoke("e8", t)
}

/// E10 — Section 1.1: the counting → agreement pipeline matches
/// oracle-parameterised agreement.
pub fn e10(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E10: application — counting->agreement pipeline vs oracle log n",
        &[
            "n",
            "B",
            "majority input",
            "oracle agreement",
            "pipeline agreement",
            "counting rounds",
        ],
    );
    let n = if quick { 96 } else { 256 };
    let g = network(n, D, 10_000);
    let b = ((n as f64).sqrt() / 4.0).floor() as usize;
    let byz = spread_byzantine(n, b);
    let inputs: Vec<bool> = (0..n).map(|u| u < (n * 7) / 10).collect();
    // Oracle run.
    let oracle = (n as f64).ln().ceil() as u32;
    let oracle_report = {
        let mut sim = Simulation::new(
            &g,
            &byz,
            |u, _| AgreementProtocol::new(AgreementParams::default(), inputs[u.index()], oracle),
            NullAdversary,
            SimConfig {
                seed: 19,
                max_rounds: 20_000,
                ..SimConfig::default()
            },
        );
        sim.run()
    };
    let oracle_frac = {
        let honest: Vec<usize> = oracle_report.honest_nodes().collect();
        honest
            .iter()
            .filter(|&&u| oracle_report.outputs[u].map(|o| o.value).unwrap_or(false))
            .count() as f64
            / honest.len() as f64
    };
    // Pipeline run.
    let pipeline = counting_then_agreement(
        &g,
        &byz,
        &inputs,
        CongestParams::default(),
        AgreementParams::default(),
        19,
    );
    t.push_row(vec![
        n.to_string(),
        b.to_string(),
        "70% ones".into(),
        fmt(oracle_frac),
        fmt(pipeline.agreement_fraction(true)),
        pipeline.counting_rounds.to_string(),
    ]);
    ExperimentResult::bespoke("e10", t)
}

/// E11 — ablation: disable blacklisting and beacon spam inflates
/// estimates to the horizon; enabled, the band holds (Lemma 11).
pub fn e11(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E11: ablation — blacklisting under beacon spam (Lemma 11)",
        &[
            "n",
            "blacklisting",
            "median L",
            "max L",
            "horizon hits",
            "far decided",
        ],
    );
    let n = if quick { 64 } else { 128 };
    let g = network(n, D, 11_000);
    let byz = spread_byzantine(n, 2);
    for blacklisting in [true, false] {
        let params = CongestParams {
            blacklisting,
            max_phase: 10,
            ..CongestParams::default()
        };
        let report = run_congest(
            &g,
            &byz,
            params,
            BeaconSpamAdversary::new(params),
            23,
            8_000,
        );
        let far = far_honest_nodes(&g, &byz, 2);
        let ests: Vec<f64> = far
            .iter()
            .filter_map(|&u| report.outputs[u].map(|e| f64::from(e.estimate)))
            .collect();
        let horizon = report
            .outputs
            .iter()
            .flatten()
            .filter(|e| matches!(e.trigger, bcount_core::congest::CongestTrigger::Horizon))
            .count();
        t.push_row(vec![
            n.to_string(),
            blacklisting.to_string(),
            fmt(median(&ests)),
            fmt(percentile(&ests, 100.0)),
            horizon.to_string(),
            fmt(ests.len() as f64 / far.len() as f64),
        ]);
    }
    ExperimentResult::bespoke("e11", t)
}

/// E12 — ablation + Remark 1: disable the expansion check and the
/// fake-expander attack strings every node to the horizon; enabled, only
/// eclipsed nodes (all neighbours Byzantine) stay at the adversary's
/// mercy.
pub fn e12(quick: bool) -> ExperimentResult {
    let mut t = Table::new(
        "E12: ablation — expansion check vs fake-expander; eclipsed nodes (Remark 1)",
        &[
            "n",
            "expansion check",
            "median L (far)",
            "max L (far)",
            "victim L",
            "horizon hits",
        ],
    );
    let n = if quick { 128 } else { 256 };
    let g = network(n, D, 12_000);
    // Eclipse a victim: all of its neighbours are Byzantine.
    let victim = NodeId(0);
    let mut byz: Vec<NodeId> = g.neighbors(victim).collect();
    byz.sort_unstable();
    byz.dedup();
    for check in [true, false] {
        let cfg = LocalConfig {
            max_degree: D + 2,
            expansion_check: check,
            max_radius: 20,
            ..LocalConfig::default()
        };
        let report = run_local(
            &g,
            &byz,
            cfg,
            FakeExpanderAdversary::new(4, D, 2, 3),
            29,
            400,
        );
        let far = far_honest_nodes(&g, &byz, 2);
        let ests: Vec<f64> = far
            .iter()
            .filter_map(|&u| report.outputs[u].map(|e| f64::from(e.radius)))
            .collect();
        let victim_est = report.outputs[victim.index()]
            .map(|e| e.radius.to_string())
            .unwrap_or_else(|| "undecided".into());
        let horizon = report
            .outputs
            .iter()
            .flatten()
            .filter(|e| matches!(e.trigger, LocalTrigger::Horizon))
            .count();
        t.push_row(vec![
            n.to_string(),
            check.to_string(),
            fmt(median(&ests)),
            fmt(percentile(&ests, 100.0)),
            victim_est,
            horizon.to_string(),
        ]);
    }
    ExperimentResult::bespoke("e12", t)
}

/// One experiment entry point: takes the `quick` flag, returns the result.
type Experiment = fn(bool) -> ExperimentResult;

/// Runs the named experiment, or all of them.
pub fn run(which: &str, quick: bool) -> Vec<ExperimentResult> {
    let all: Vec<(&str, Experiment)> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
    ];
    match which {
        "all" => all.iter().map(|(_, f)| f(quick)).collect(),
        name => all
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, f)| f(quick))
            .collect(),
    }
}

/// Helper used by E8 and tests: true size of the phantom graph.
pub fn phantom_size(base: &Graph, t: usize) -> usize {
    1 + t * (base.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_smoke_e7_and_e9() {
        // Fast structural experiments run end-to-end in quick mode.
        let t7 = e7(true);
        assert_eq!(t7.table.headers.len(), 4);
        assert!(t7.table.rows.len() >= 3);
        assert!(t7.cells.is_empty(), "e7 is bespoke");
        let t9 = e9(true);
        assert_eq!(t9.table.rows.len(), 5);
        assert_eq!(t9.cells.len(), 9, "one cell per E9 scenario");
        assert!(t9.cells.iter().all(|c| c.outcome.rounds > 0));
    }

    #[test]
    fn run_dispatches_by_name() {
        let results = run("e7", true);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "e7");
        assert!(results[0].table.title.contains("Lemma 2"));
        assert!(run("nope", true).is_empty());
    }

    #[test]
    fn phantom_size_formula() {
        let base = network(33, 8, 1);
        assert_eq!(phantom_size(&base, 4), 1 + 4 * 32);
    }

    #[test]
    fn standard_matrix_names_are_unique_and_prefixed() {
        let matrix = standard_matrix();
        let mut names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        assert!(matrix.len() >= 15, "matrix has {} scenarios", matrix.len());
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
    }
}
