//! Property-based tests for the counting protocols' deterministic parts:
//! parameter derivations, the phase clock, blacklist arithmetic, and the
//! soundness of the expansion-check substitution.

use bcount_core::congest::{CongestParams, PhaseClock};
use bcount_core::local::{checks, LocalConfig};
use bcount_graph::TopologyView;
use bcount_sim::Pid;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = CongestParams> {
    (0.46f64..0.9, 0.05f64..0.4, 1.0f64..8.0).prop_map(|(gamma, delta, c1)| CongestParams {
        gamma: gamma.max(0.5 - delta + 0.05),
        delta,
        eta: 0.05,
        c1,
        start_phase: Some(2),
        max_phase: 64,
        blacklisting: true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The phase clock is a bijection: walking rounds 1..N forward agrees
    /// with manual phase/iteration/offset counters, and phase starts are
    /// consistent with locate().
    #[test]
    fn clock_is_bijective(params in arb_params(), horizon in 100u64..3000) {
        params.validate().unwrap();
        let mut clock = PhaseClock::new(params);
        let mut phase = params.first_phase();
        let mut iter = 0u64;
        let mut off = 0u64;
        for round in 1..horizon {
            let pos = clock.locate(round);
            prop_assert_eq!((pos.phase, pos.iteration, pos.offset), (phase, iter, off),
                "round {}", round);
            off += 1;
            if off == params.rounds_per_iteration(phase) {
                off = 0;
                iter += 1;
                if iter == params.iterations_in_phase(phase) {
                    iter = 0;
                    phase += 1;
                }
            }
        }
    }

    /// Windows partition each iteration: every round is in exactly one of
    /// {beacon window, continue-start, continue window}.
    #[test]
    fn windows_partition(params in arb_params(), round in 1u64..5000) {
        let mut clock = PhaseClock::new(params);
        let pos = clock.locate(round);
        let beacon = pos.in_beacon_window();
        let cont_start = pos.is_continue_start();
        let i = u64::from(pos.phase);
        let in_continue = pos.offset > i + 2 && pos.offset < 2 * i + 5;
        prop_assert_eq!(
            1,
            usize::from(beacon) + usize::from(cont_start) + usize::from(in_continue),
            "round {} offset {} phase {}", round, pos.offset, pos.phase
        );
        // Forwarding windows are nested in their receive windows.
        if pos.can_forward_beacon() {
            prop_assert!(beacon);
        }
        if pos.can_forward_continue() {
            prop_assert!(cont_start || in_continue);
        }
    }

    /// Equation (3) holds for every derived epsilon, and the trusted
    /// suffix grows monotonically with the phase while staying below i.
    #[test]
    fn epsilon_and_suffix_identities(params in arb_params(), d in 2usize..16, i in 1u32..64) {
        let eps = params.epsilon(d);
        prop_assert!((0.0..1.0).contains(&eps));
        // Equation (3) holds exactly whenever it is satisfiable (the
        // paper's d >= 8 regime); below that epsilon clamps to 0.
        let lhs = (1.0 - eps) * (d.max(2) as f64).ln();
        let rhs = (1.0 - params.delta) * params.gamma;
        if eps > 0.0 {
            prop_assert!((lhs - rhs).abs() < 1e-9);
        } else {
            prop_assert!(rhs >= lhs - 1e-9);
        }
        let s_i = params.trusted_suffix_len(d, i);
        let s_next = params.trusted_suffix_len(d, i + 1);
        prop_assert!(s_next >= s_i);
        prop_assert!(s_i >= 1);
        prop_assert!(s_i as f64 <= f64::from(i).max(1.0));
    }

    /// Phase iteration budgets exceed the Byzantine budget once
    /// e^{(1-gamma)i} ≥ n^{1-gamma}, i.e. at i = ⌈ln n⌉ — the pigeonhole
    /// at the heart of Lemma 11.
    #[test]
    fn iterations_outnumber_byzantine_at_log_n(params in arb_params(), n in 16usize..100_000) {
        let i = (n as f64).ln().ceil() as u32;
        let iterations = params.iterations_in_phase(i);
        let byz_budget = (n as f64).powf(1.0 - params.gamma);
        prop_assert!(
            iterations as f64 >= byz_budget,
            "phase {} has {} iterations < B(n) = {}", i, iterations, byz_budget
        );
    }

    /// Soundness of the check-family substitution (`local::checks`): the
    /// polynomial family only sweeps subsets of announced nodes, so any
    /// failure it reports is witnessed by a *real* low-expansion subset —
    /// whenever the sweeps fail, the paper's exhaustive check must fail
    /// too. (The converse is the approximation direction and is validated
    /// statistically by the LOCAL approximation experiment, E1.)
    #[test]
    fn polynomial_check_failures_are_sound(
        edges in proptest::collection::vec((0u64..10, 0u64..10), 3..25),
        announce_mask in 1u16..1024,
        alpha_bits in 1u32..40,
    ) {
        let alpha = f64::from(alpha_bits) / 20.0; // alpha' in (0, 2)
        // Ground-truth consistent adjacency.
        let mut adj: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
            Default::default();
        for (u, v) in edges {
            if u == v { continue; }
            adj.entry(u).or_default().insert(v);
            adj.entry(v).or_default().insert(u);
        }
        let nodes: Vec<u64> = adj.keys().copied().collect();
        if nodes.is_empty() { return Ok(()); }
        // Announce a random connected-ish subset including the "me" node.
        let me = nodes[0];
        let mut view: TopologyView<Pid> = TopologyView::new();
        let mut announced_any = false;
        for (i, &u) in nodes.iter().enumerate() {
            if u == me || announce_mask >> (i % 10) & 1 == 1 {
                view.announce(Pid(u), adj[&u].iter().map(|&v| Pid(v))).unwrap();
                announced_any = true;
            }
        }
        prop_assume!(announced_any);
        let poly = LocalConfig {
            alpha_prime: alpha,
            exhaustive_limit: 0, // force the sweep family
            ..LocalConfig::default()
        };
        let exhaustive = LocalConfig {
            alpha_prime: alpha,
            exhaustive_limit: 24,
            ..LocalConfig::default()
        };
        let poly_out = checks::run_expansion_checks(&view, Pid(me), &poly);
        let exhaustive_out = checks::run_expansion_checks(&view, Pid(me), &exhaustive);
        if poly_out.failed() {
            prop_assert!(
                exhaustive_out.failed(),
                "sweep failed ({poly_out:?}) but exhaustive passed — unsound witness"
            );
        }
    }

    /// Activation probabilities are valid probabilities and decay
    /// geometrically in the phase.
    #[test]
    fn activation_probability_decays(params in arb_params(), d in 2usize..16) {
        let mut prev = f64::INFINITY;
        for i in 1..30u32 {
            let p = params.activation_probability(d, i);
            prop_assert!((0.0..=1.0).contains(&p));
            // Monotone non-increasing once below the clamp.
            if prev < 1.0 {
                prop_assert!(p <= prev + 1e-12);
            }
            prev = p;
        }
        // Eventually negligible.
        prop_assert!(params.activation_probability(d, 60) < 1e-6);
    }
}
