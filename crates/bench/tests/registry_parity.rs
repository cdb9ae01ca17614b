//! Registry parity: for every protocol × adversary pairing the cell
//! registry builds, one small matrix cell and a `bcountd` session created
//! from that cell's JSON (`CellSpec::to_json`) end in the same state —
//! final snapshot and per-node states, rendered to JSON, byte for byte.
//!
//! The pairings are discovered from the registry itself (every protocol
//! row × every adversary row, keeping the ones `build` accepts), so a new
//! row is covered the moment it is registered.

use std::sync::Arc;

use bcount_bench::scenario::{
    execute, AdversarySpec, BudgetSpec, GraphFamily, Placement, ProtocolSpec, Scenario,
};
use bcount_core::estimate::Band;
use bcount_daemon::{CellSpec, Server};
use bcount_json::{Json, ToJson};
use bcount_sim::FaultPlan;

/// A one-cell scenario for `protocol` under `adversary`; `variant`
/// rotates the placement (and puts a fault plan on every fourth cell) so
/// the sweep also covers those coordinates.
fn scenario(protocol: ProtocolSpec, adversary: AdversarySpec, variant: usize) -> Scenario {
    let placements = [
        Placement::Spread,
        Placement::Random,
        Placement::Clustered,
        Placement::At(vec![7]),
    ];
    Scenario {
        name: format!("parity/{}/{}", protocol.label(), adversary.label()),
        family: GraphFamily::Hnd { d: 8 },
        sizes: vec![64],
        quick_sizes: vec![64],
        budgets: vec![BudgetSpec::Fixed(2)],
        quick_budgets: Vec::new(),
        placements: vec![placements[variant % placements.len()].clone()],
        adversary,
        protocol,
        band: Band::new(0.0, 1e9),
        seeds: vec![variant as u64],
        max_rounds: 300,
        graph_seed_base: 700,
        run_to_halt: false,
        fault: (variant % 4 == 3).then(|| FaultPlan {
            seed: 5,
            drop_per_mille: 50,
            ..FaultPlan::default()
        }),
    }
}

fn reply(server: &mut Server, id: u64, method: &str, params: Json) -> Json {
    let line = Json::obj(vec![
        ("id", id.to_json()),
        ("method", method.to_json()),
        ("params", params),
    ])
    .render()
    .expect("request renders");
    let response = Json::parse(&server.handle_line(&line)).expect("reply parses");
    response
        .get("result")
        .cloned()
        .unwrap_or_else(|| panic!("{method} failed: {response:?}"))
}

fn render(json: &Json) -> String {
    json.render().expect("state renders")
}

#[test]
fn every_registered_pairing_matches_its_daemon_session() {
    let mut registered = Vec::new();
    for protocol in ProtocolSpec::rows() {
        for adversary in AdversarySpec::rows(0) {
            let s = scenario(protocol, adversary, registered.len());
            let (spec, _) = s.cells(true, None).remove(0);
            let graph = Arc::new(spec.generate().unwrap());
            if spec.build(Arc::clone(&graph)).is_err() {
                continue; // not a registered pairing
            }
            registered.push(format!("{}/{}", protocol.label(), adversary.label()));

            let matrix = execute(&spec, graph);
            assert!(matrix.finished().is_some(), "{}: cell must finish", s.name);

            let mut server = Server::new();
            let created = reply(&mut server, 1, "session.create", spec.to_json());
            let session = created.get("session").cloned().unwrap();
            reply(
                &mut server,
                2,
                "session.step",
                Json::obj(vec![
                    ("session", session.clone()),
                    ("rounds", spec.max_rounds.to_json()),
                ]),
            );
            let queried = reply(
                &mut server,
                3,
                "session.query",
                Json::obj(vec![("session", session), ("nodes", true.to_json())]),
            );
            assert_eq!(
                render(queried.get("snapshot").unwrap()),
                render(&matrix.snapshot().to_json()),
                "{}: snapshot differs",
                s.name
            );
            assert_eq!(
                render(queried.get("nodes").unwrap()),
                render(&matrix.node_states().to_json()),
                "{}: node states differ",
                s.name
            );
            // The session's JSON is the cell, exactly.
            assert_eq!(CellSpec::from_json(&spec.to_json()), Ok(spec));
        }
    }
    assert_eq!(
        registered,
        [
            "local/silent",
            "local/fake-expander",
            "local/edge-injector",
            "congest/silent",
            "congest/beacon-spam",
            "congest/path-tamper",
            "congest/oscillating-spam",
            "geometric-max/silent",
            "geometric-max/max-faker",
            "support-estimation/silent",
            "support-estimation/zero-faker",
            "convergecast/silent",
            "convergecast/count-liar",
            "birthday-paradox/silent",
            "birthday-paradox/collision-faker",
        ]
    );
}
