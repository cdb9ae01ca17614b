//! Property tests for the JSON layer the simulator writes through:
//! integers and finite floats read back exactly, strings survive
//! escaping, non-finite floats are refused, and a rendered
//! [`ExecutionSnapshot`] parses to the same document pretty or compact.

use bcount_json::{FromJson, Json, JsonError, ToJson};
use bcount_sim::{EstimateSummary, ExecutionSnapshot, StopReason};
use proptest::collection::vec;
use proptest::prelude::*;

fn stop_strategy() -> impl Strategy<Value = Option<StopReason>> {
    (0u8..4).prop_map(|k| match k {
        0 => Some(StopReason::AllHalted),
        1 => Some(StopReason::AllDecided),
        2 => Some(StopReason::MaxRounds),
        _ => None,
    })
}

fn estimate_strategy() -> impl Strategy<Value = EstimateSummary> {
    (
        any::<usize>(),
        any::<f64>(),
        any::<f64>(),
        any::<f64>(),
        any::<f64>(),
    )
        .prop_map(|(count, min, max, mean, median)| EstimateSummary {
            count,
            min,
            max,
            mean,
            median,
        })
}

fn snapshot_strategy() -> impl Strategy<Value = ExecutionSnapshot> {
    (
        (any::<u64>(), any::<usize>(), any::<usize>(), any::<usize>()),
        (
            any::<usize>(),
            any::<usize>(),
            stop_strategy(),
            estimate_strategy(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (round, n, honest, byzantine),
                (decided, halted, stop, estimate),
                (messages_total, bits_total, dropped),
                (duplicated, delayed, crashed),
            )| ExecutionSnapshot {
                round,
                n,
                honest,
                byzantine,
                decided,
                halted,
                stop,
                estimate,
                messages_total,
                bits_total,
                dropped,
                duplicated,
                delayed,
                crashed,
            },
        )
}

proptest! {
    #[test]
    fn integers_keep_all_64_bits(v in any::<u64>()) {
        // The daemon's seeds are u64 and must not pass through an f64.
        let rendered = v.to_json().render().expect("render");
        let back = u64::from_json(&Json::parse(&rendered).expect("parse")).expect("from_json");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn pretty_and_compact_agree(s in snapshot_strategy()) {
        let compact = s.to_json().render().expect("render");
        let pretty = s.to_json().render_pretty().expect("render pretty");
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
