//! Property-based end-to-end checks (proptest): randomized network sizes,
//! degrees, and seeds — liveness, safety, and band invariants must hold
//! on every generated instance.

use byzantine_counting::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Benign CONGEST: everyone decides, terminates, estimates cluster and
    /// stay below ⌈ln n⌉ + 1 (Remark 2), for random sizes and seeds.
    #[test]
    fn benign_congest_always_decides(n in 24usize..120, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, 8, &mut rng).unwrap();
        let params = CongestParams::default();
        let mut sim = Execution::new(
            &g,
            &[],
            |_, init| CongestCounting::new(params, init),
            NullAdversary,
            SimConfig { seed, max_rounds: 40_000, ..SimConfig::default() },
        );
        let report = sim.run();
        prop_assert_eq!(report.stop_reason, StopReason::AllHalted);
        prop_assert_eq!(report.honest_decided_count(), n);
        let cap = (n as f64).ln().ceil() + 1.0;
        for out in report.outputs.iter().flatten() {
            prop_assert!(f64::from(out.estimate) <= cap,
                "estimate {} above {}", out.estimate, cap);
        }
    }

    /// Benign LOCAL: everyone decides by diameter + 2 with the expansion
    /// failure (or cascaded mute) trigger, for random sizes and degrees.
    #[test]
    fn benign_local_decides_at_diameter(
        n in 24usize..96,
        half_d in 3usize..5,
        seed in 0u64..1000,
    ) {
        let d = 2 * half_d;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        let diam = byzantine_counting::graph::analysis::bfs::diameter(&g).unwrap();
        let cfg = LocalConfig { max_degree: d, ..LocalConfig::default() };
        let mut sim = Execution::new(
            &g,
            &[],
            |_, init| LocalCounting::new(cfg, init),
            NullAdversary,
            SimConfig { seed, max_rounds: 300, ..SimConfig::default() },
        );
        let report = sim.run();
        prop_assert_eq!(report.honest_decided_count(), n);
        // The guarantee is a constant-factor band around diam = Θ(log n),
        // not exactly diam: the expansion check may fire a round or two
        // early when the outermost BFS layers hold under α′ of the ball.
        let lo = diam.saturating_sub(2).max(1);
        for out in report.outputs.iter().flatten() {
            prop_assert!(out.radius >= lo && out.radius <= diam + 2,
                "radius {} vs diameter {}", out.radius, diam);
        }
    }

    /// Silent Byzantine nodes can only shorten LOCAL decisions (mute
    /// cascades), never extend them past the benign bound.
    #[test]
    fn silent_byzantine_only_shortens_local(n in 32usize..96, seed in 0u64..1000) {
        let d = 8;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        let diam = byzantine_counting::graph::analysis::bfs::diameter(&g).unwrap();
        let byz = [NodeId((seed % n as u64) as u32)];
        let cfg = LocalConfig { max_degree: d, ..LocalConfig::default() };
        let mut sim = Execution::new(
            &g,
            &byz,
            |_, init| LocalCounting::new(cfg, init),
            NullAdversary,
            SimConfig { seed, max_rounds: 300, ..SimConfig::default() },
        );
        let report = sim.run();
        prop_assert_eq!(report.honest_decided_count(), report.honest_count());
        for u in report.honest_nodes() {
            let est = report.outputs[u].unwrap();
            prop_assert!(est.radius <= diam + 2,
                "radius {} exceeds benign bound {}", est.radius, diam + 2);
        }
    }
}
