//! Round-trip properties of the cell registry's vocabulary: every label
//! (plus, for parametrized rows, its knobs) parses back to the value it
//! was rendered from, and a whole [`CellSpec`] survives its JSON form.

use bcount_daemon::cell::{
    AdversarySpec, CellSpec, GraphFamily, Placement, ProtocolSpec, MAX_EXHAUSTIVE_LIMIT,
};
use bcount_json::{Json, ToJson};
use bcount_sim::{FaultPlan, StopWhen};
use proptest::collection::vec;
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = GraphFamily> {
    (0u8..4, 2usize..64, 0.0..1.0f64).prop_map(|(tag, d, p)| match tag {
        0 => GraphFamily::Hnd { d },
        1 => GraphFamily::WattsStrogatz { k: d, p },
        2 => GraphFamily::Cycle,
        _ => GraphFamily::Torus2d,
    })
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    (0u8..5, any::<u32>(), vec(any::<u32>(), 0..6)).prop_map(|(tag, start, ids)| match tag {
        0 => Placement::Spread,
        1 => Placement::Random,
        2 => Placement::Clustered,
        3 => Placement::At(vec![start]),
        _ => Placement::at(ids),
    })
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolSpec> {
    (
        0u8..6,
        any::<usize>(),
        0..=MAX_EXHAUSTIVE_LIMIT,
        any::<f64>(),
        any::<u64>(),
    )
        .prop_map(
            |(tag, max_degree, exhaustive_limit, alpha_prime, budget)| match tag {
                0 => ProtocolSpec::Local {
                    max_degree,
                    alpha_prime,
                    exhaustive_limit,
                },
                1 => ProtocolSpec::Congest,
                2 => ProtocolSpec::GeometricMax { budget },
                3 => ProtocolSpec::Support,
                4 => ProtocolSpec::Convergecast,
                _ => ProtocolSpec::Birthday,
            },
        )
}

fn adversary_strategy() -> impl Strategy<Value = AdversarySpec> {
    (0u8..10, any::<u64>(), any::<u32>()).prop_map(|(tag, seed, small)| match tag {
        0 => AdversarySpec::Null,
        1 => AdversarySpec::BeaconSpam,
        2 => AdversarySpec::PathTamper,
        3 => AdversarySpec::OscillatingSpam,
        4 => AdversarySpec::FakeExpander { seed },
        5 => AdversarySpec::EdgeInjector { seed },
        6 => AdversarySpec::MaxFaker { fake_value: small },
        7 => AdversarySpec::ZeroFaker,
        8 => AdversarySpec::CountLiar { inflation: seed },
        _ => AdversarySpec::CollisionFaker,
    })
}

/// A row's knobs as the JSON object its `parse` reads.
fn knobs(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs)
}

proptest! {
    #[test]
    fn family_labels_round_trip(family in family_strategy()) {
        prop_assert_eq!(GraphFamily::parse(&family.label()), Ok(family));
    }

    #[test]
    fn placement_labels_round_trip(placement in placement_strategy()) {
        prop_assert_eq!(Placement::parse(&placement.label()), Ok(placement));
    }

    #[test]
    fn protocol_labels_round_trip(protocol in protocol_strategy()) {
        let back = ProtocolSpec::parse(protocol.label(), &knobs(protocol.knobs()));
        prop_assert_eq!(back, Ok(protocol));
    }

    #[test]
    fn adversary_labels_round_trip(adversary in adversary_strategy(), default_seed in any::<u64>()) {
        let back = AdversarySpec::parse(adversary.label(), &knobs(adversary.knobs()), default_seed);
        prop_assert_eq!(back, Ok(adversary));
    }

    #[test]
    fn cell_specs_round_trip_through_rendered_json(
        (family, placement, protocol, adversary) in
            (family_strategy(), placement_strategy(), protocol_strategy(), adversary_strategy()),
        (n, byzantine, seeds, max_rounds, stop, faulty) in
            (1usize..1 << 20, any::<usize>(), (any::<u64>(), any::<u64>()), 1u64..1 << 40, 0u8..3, any::<bool>()),
    ) {
        let byzantine = placement.list().map_or(byzantine, <[u32]>::len);
        let cell = CellSpec {
            family,
            n,
            protocol,
            adversary,
            placement,
            byzantine,
            graph_seed: seeds.0,
            engine_seed: seeds.1,
            max_rounds,
            stop: [StopWhen::AllHonestHalted, StopWhen::AllHonestDecided, StopWhen::MaxRoundsOnly][stop as usize],
            fault: if faulty { FaultPlan { seed: seeds.0, drop_per_mille: 10, ..FaultPlan::default() } } else { FaultPlan::default() },
        };
        let line = cell.to_json().render().expect("cells render");
        let back = CellSpec::from_json(&Json::parse(&line).expect("rendered JSON parses"));
        prop_assert_eq!(back, Ok(cell));
    }
}

/// `at(a)` is a run of `byzantine` ids from `a`; `at(a,b,…)` is an
/// explicit list that sets the count itself. Both shapes round-trip, a
/// one-id list is the run, and an unsorted list is canonicalized.
#[test]
fn placement_at_forms() {
    for label in ["at(7)", "at(17,42)", "at()"] {
        let placement = Placement::parse(label).unwrap();
        assert_eq!(placement.label(), label);
    }
    assert_eq!(Placement::parse("at(7)"), Ok(Placement::At(vec![7])));
    assert_eq!(Placement::At(vec![7]).list(), None);
    let list = Placement::parse("at(42,17,42)").unwrap();
    assert_eq!(list, Placement::At(vec![17, 42]));
    assert_eq!(list.list(), Some(&[17, 42][..]));
    assert_eq!(Placement::at(vec![5, 5]), Placement::At(vec![5]));
}

/// The wire keys of today's `session.create` keep their meaning: `seed`
/// seeds everything, `byzantine_at` is an explicit placement counted by
/// its distinct ids, and every knob has its historical default.
#[test]
fn wire_defaults() {
    let parse = |text: &str| CellSpec::from_json(&Json::parse(text).unwrap());
    let cell = parse(r#"{"n":100,"protocol":"geometric-max","adversary":"max-faker","seed":9,"byzantine_at":[42,17,42]}"#).unwrap();
    assert_eq!(cell.family, GraphFamily::Hnd { d: 8 });
    assert_eq!(cell.protocol, ProtocolSpec::GeometricMax { budget: 40 });
    assert_eq!(cell.adversary, AdversarySpec::MaxFaker { fake_value: 30 });
    assert_eq!(cell.placement, Placement::At(vec![17, 42]));
    assert_eq!(cell.byzantine, 2);
    assert_eq!((cell.graph_seed, cell.engine_seed), (9, 9));
    // `random` draws from the matrix's rule: (graph_seed − n) ^ engine_seed.
    assert_eq!(cell.placement_seed(), (9u64.wrapping_sub(100)) ^ 9);
    assert_eq!(cell.max_rounds, 10_000);
    assert_eq!(cell.stop, StopWhen::AllHonestHalted);

    let congest = parse(r#"{"n":64,"protocol":"congest","adversary":"beacon-spam"}"#).unwrap();
    assert_eq!(congest.protocol, ProtocolSpec::Congest);
    assert_eq!(congest.stop, StopWhen::AllHonestDecided);
    assert_eq!(congest.engine_seed, 0xC0DE);

    // `null` keeps a knob's default, as a missing key would.
    let nulls = parse(r#"{"n":64,"protocol":"geometric-max","budget":null}"#).unwrap();
    assert_eq!(nulls.protocol, ProtocolSpec::GeometricMax { budget: 40 });
    let local = parse(r#"{"n":64,"protocol":"local","max_degree":10}"#).unwrap();
    assert_eq!(
        local.protocol,
        ProtocolSpec::Local {
            max_degree: 10,
            alpha_prime: 0.05,
            exhaustive_limit: 12,
        }
    );

    let edge =
        parse(r#"{"n":64,"protocol":"local","adversary":"edge-injector","seed":5}"#).unwrap();
    assert_eq!(edge.adversary, AdversarySpec::EdgeInjector { seed: 5 });

    for bad in [
        r#"{"n":0,"protocol":"congest"}"#,
        r#"{"n":8,"protocol":"congest","max_rounds":0}"#,
        r#"{"n":8,"protocol":"paxos"}"#,
        r#"{"n":8,"protocol":"congest","adversary":"gremlin"}"#,
        r#"{"n":8,"protocol":"congest","family":"grid"}"#,
        r#"{"n":8,"protocol":"congest","placement":"everywhere"}"#,
        r#"{"n":8,"protocol":"congest","stop":"never"}"#,
        r#"{"n":8,"protocol":"local","exhaustive_limit":13}"#,
    ] {
        assert!(parse(bad).is_err(), "{bad} must be rejected");
    }
}

/// `clustered` places exactly the requested count: the nodes nearest node
/// 0 in BFS (distance, then id) order, of which the radius-2 ball is a
/// prefix. A component too small for the count is an error, not a
/// shorter list.
#[test]
fn clustered_places_the_requested_count_nearest_node_zero() {
    use bcount_graph::analysis::bfs::ball;
    use bcount_graph::{GraphBuilder, NodeId};

    let cycle = GraphFamily::Cycle.generate(64, 1).unwrap();
    let placed = Placement::Clustered.place(&cycle, 10, 0).unwrap();
    let ids: Vec<u32> = placed.iter().map(|v| v.0).collect();
    assert_eq!(ids, [0, 1, 63, 2, 62, 3, 61, 4, 60, 5]);

    let hnd = GraphFamily::Hnd { d: 8 }.generate(128, 7).unwrap();
    let near = ball(&hnd, NodeId(0), 2);
    for count in [1, near.len() / 2, near.len(), near.len() + 20] {
        let placed = Placement::Clustered.place(&hnd, count, 0).unwrap();
        assert_eq!(placed.len(), count);
        let shared = count.min(near.len());
        assert_eq!(placed[..shared], near[..shared], "count {count}");
    }

    // Two disjoint 5-cycles: node 0 reaches only its own five nodes.
    let mut b = GraphBuilder::new(10);
    for base in [0u32, 5] {
        for k in 0..5 {
            b.add_edge(NodeId(base + k), NodeId(base + (k + 1) % 5));
        }
    }
    let split = b.build();
    assert_eq!(Placement::Clustered.place(&split, 5, 0).unwrap().len(), 5);
    assert!(Placement::Clustered.place(&split, 6, 0).is_err());
}
