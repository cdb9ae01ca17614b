//! Property tests for the JSON persistence layer: for random [`Metrics`]
//! and [`SimReport`] values, `read(write(x)) == x` — including string
//! escaping and non-finite-float rejection.

use bcount_json::{FromJson, Json, JsonError, ToJson};
use bcount_sim::{Metrics, NodeMetrics, Pid, RoundTrace, SimReport, StopReason};
use proptest::collection::vec;
use proptest::prelude::*;

fn node_metrics_strategy() -> impl Strategy<Value = NodeMetrics> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(messages_sent, bits_sent, max)| {
        NodeMetrics {
            messages_sent,
            bits_sent,
            max_message_bits: max,
        }
    })
}

fn round_trace_strategy() -> impl Strategy<Value = RoundTrace> {
    (
        1u64..1000,
        any::<u64>(),
        any::<u64>(),
        0usize..100,
        0usize..100,
    )
        .prop_map(
            |(round, honest_messages, byzantine_messages, decided, halted)| RoundTrace {
                round,
                honest_messages,
                byzantine_messages,
                decided,
                halted,
            },
        )
}

fn metrics_strategy() -> impl Strategy<Value = Metrics> {
    (
        vec(node_metrics_strategy(), 0..8),
        any::<u64>(),
        vec(round_trace_strategy(), 0..4),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(per_node, rounds, round_trace, fault)| Metrics {
            per_node,
            rounds,
            round_trace,
            dropped: fault.0,
            duplicated: fault.1,
            delayed: fault.2,
            crashed: fault.3,
        })
}

fn stop_reason_strategy() -> impl Strategy<Value = StopReason> {
    (0u8..3).prop_map(|k| match k {
        0 => StopReason::AllHalted,
        1 => StopReason::AllDecided,
        _ => StopReason::MaxRounds,
    })
}

fn report_strategy() -> impl Strategy<Value = SimReport<u64>> {
    (
        (
            any::<u64>(),
            vec(any::<u64>(), 0..6),
            vec((any::<bool>(), any::<u64>()), 0..6),
            vec((any::<bool>(), 1u64..500), 0..6),
        ),
        (
            vec(any::<bool>(), 0..6),
            vec(any::<bool>(), 0..6),
            metrics_strategy(),
            stop_reason_strategy(),
        ),
    )
        .prop_map(
            |((rounds, pids, outputs, decided), (halted, is_byz, metrics, stop))| SimReport {
                rounds,
                outputs: outputs
                    .into_iter()
                    .map(|(some, v)| some.then_some(v))
                    .collect(),
                decided_round: decided
                    .into_iter()
                    .map(|(some, r)| some.then_some(r))
                    .collect(),
                halted,
                is_byzantine: is_byz,
                pids: pids.into_iter().map(Pid).collect(),
                metrics,
                stop_reason: stop,
            },
        )
}

proptest! {
    #[test]
    fn metrics_round_trip(m in metrics_strategy()) {
        let text = m.to_json().render().expect("metrics render");
        let back = Metrics::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn sim_report_round_trip(r in report_strategy()) {
        let text = r.to_json().render().expect("report render");
        let back =
            SimReport::<u64>::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
        prop_assert_eq!(back, r);
    }

    #[test]
    fn pretty_and_compact_agree(m in metrics_strategy()) {
        let compact = m.to_json().render().expect("render");
        let pretty = m.to_json().render_pretty().expect("render pretty");
        prop_assert_eq!(
            Json::parse(&compact).expect("compact"),
            Json::parse(&pretty).expect("pretty")
        );
    }

    #[test]
    fn strings_round_trip_with_escaping(codes in vec(0u32..0x500, 0..24)) {
        // Covers ASCII, every control character, and a band of non-ASCII
        // code points; surrogate range cannot arise from char::from_u32.
        let s: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let rendered = Json::Str(s.clone()).render().expect("render");
        prop_assert_eq!(Json::parse(&rendered).expect("parse"), Json::Str(s));
    }

    #[test]
    fn finite_floats_round_trip(v: f64) {
        prop_assume!(v.is_finite());
        let rendered = v.to_json().render().expect("finite floats render");
        let back = f64::from_json(&Json::parse(&rendered).expect("parse")).expect("from_json");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn non_finite_floats_are_rejected(mantissa: u64, which in 0u8..3) {
        let bad = match which {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        // Bury the bad value inside a realistic document: rendering must
        // fail no matter where it sits.
        let doc = Json::obj(vec![
            ("ok", mantissa.to_json()),
            ("nested", Json::Arr(vec![Json::obj(vec![("x", bad.to_json())])])),
        ]);
        prop_assert_eq!(doc.render(), Err(JsonError::NonFinite));
        prop_assert!(doc.first_non_finite().is_some());
    }
}
