//! CI gate over the JSON artifacts.
//!
//! ```text
//! # Validate an experiments artifact (schema tag, no NaNs, every cell
//! # has an outcome and coordinate labels the cell registry parses):
//! cargo run -p bcount-bench --bin gate -- schema out.json
//!
//! # Compare fresh bench artifacts against the committed baseline and
//! # fail on steady-state regressions beyond the tolerance. `--current`
//! # (and `--baseline`) may repeat: each lane is compared by its median
//! # over the passes, so one slow pass out of three cannot fail the gate:
//! cargo run -p bcount-bench --bin gate -- perf \
//!     --baseline BENCH_BASELINE.json \
//!     --current bench-1.json --current bench-2.json --current bench-3.json \
//!     --tolerance 0.30 --filter reuse_buffers
//!
//! # Same-run A/B mode: both artifacts were measured in the SAME job on
//! # the SAME machine (baseline = a rebuild of the merge-base, current =
//! # the head), so no committed per-runner-class baseline is involved.
//! # Tighter default tolerance (20%), and benches present on only one
//! # side are reported but never fail the gate (they were added or
//! # removed by the change under test, not regressed):
//! cargo run -p bcount-bench --bin gate -- perf --ab \
//!     --baseline bench-base-1.json --baseline bench-base-2.json \
//!     --current bench-head-1.json --current bench-head-2.json
//! ```
//!
//! Exit codes: 0 = pass, 1 = gate failure (regression / invalid
//! artifact), 2 = usage or I/O error.

use bcount_bench::stats::median;
use bcount_daemon::cell::{AdversarySpec, GraphFamily, Placement, ProtocolSpec};
use bcount_json::{check_schema, Json};
use std::process::ExitCode;

const EXPERIMENTS_SCHEMA: &str = "bcount-experiments/v1";
const BENCH_SCHEMA: &str = "bcount-bench/v1";

/// The outcome keys every scenario cell must carry (kept in sync with
/// `bcount_bench::scenario::CellOutcome`'s `ToJson`).
const OUTCOME_KEYS: &[&str] = &[
    "all",
    "far",
    "decision_rounds",
    "rounds",
    "stop_reason",
    "raw_median",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("schema") => match args.get(1) {
            Some(path) => check_experiments_artifact(path),
            None => usage("schema <artifact.json>"),
        },
        Some("perf") => perf_gate(&args[1..]),
        _ => usage("schema|perf"),
    }
}

fn usage(expected: &str) -> ExitCode {
    eprintln!("usage: gate {expected}");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------------------
// `gate schema` — experiments-artifact validation.
// ---------------------------------------------------------------------------

fn check_experiments_artifact(path: &str) -> ExitCode {
    let doc = match load(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("schema gate: {e}");
            return ExitCode::from(2);
        }
    };
    match validate_experiments(&doc) {
        Ok(summary) => {
            println!("schema gate: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("schema gate: {path} INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

fn validate_experiments(doc: &Json) -> Result<String, String> {
    check_schema(doc, EXPERIMENTS_SCHEMA).map_err(|e| e.to_string())?;
    if let Some(bad) = doc.first_non_finite() {
        return Err(format!("artifact contains a non-finite number ({bad})"));
    }
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("missing 'experiments' array")?;
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing 'scenarios' array")?;
    if experiments.is_empty() && scenarios.is_empty() {
        return Err("artifact is empty: no experiments and no scenario cells".into());
    }
    let mut cell_count = 0usize;
    for exp in experiments {
        let name = exp
            .get("name")
            .and_then(Json::as_str)
            .ok_or("experiment without a 'name'")?;
        let table = exp
            .get("table")
            .ok_or_else(|| format!("experiment {name}: missing 'table'"))?;
        for key in ["title", "headers", "rows"] {
            if table.get(key).is_none() {
                return Err(format!("experiment {name}: table missing '{key}'"));
            }
        }
        let cells = exp
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("experiment {name}: missing 'cells' array"))?;
        for cell in cells {
            validate_cell(cell)?;
            cell_count += 1;
        }
    }
    for cell in scenarios {
        validate_cell(cell)?;
        cell_count += 1;
    }
    Ok(format!(
        "{} experiments, {} scenario cells, {} cells total",
        experiments.len(),
        scenarios.len(),
        cell_count
    ))
}

fn validate_cell(cell: &Json) -> Result<(), String> {
    let scenario = cell
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("cell without a 'scenario' name")?;
    for key in ["family", "protocol", "adversary", "placement", "n", "seed"] {
        if cell.get(key).is_none() {
            return Err(format!("cell of {scenario}: missing '{key}'"));
        }
    }
    // Every coordinate label must be one the cell registry parses.
    let label = |key: &str| cell.get(key).and_then(Json::as_str).unwrap_or_default();
    let none = Json::obj(Vec::new());
    GraphFamily::parse(label("family"))
        .and(ProtocolSpec::parse(label("protocol"), &none))
        .and(AdversarySpec::parse(label("adversary"), &none, 0))
        .and(Placement::parse(label("placement")))
        .map_err(|e| format!("cell of {scenario}: {e}"))?;
    let outcome = cell
        .get("outcome")
        .ok_or_else(|| format!("cell of {scenario}: missing 'outcome'"))?;
    for key in OUTCOME_KEYS {
        if outcome.get(key).is_none() {
            return Err(format!("cell of {scenario}: outcome missing '{key}'"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// `gate perf` — bench-artifact regression comparison.
// ---------------------------------------------------------------------------

struct PerfArgs {
    /// One or more baseline artifacts (`--baseline` repeats).
    baseline: Vec<String>,
    /// One or more current artifacts (`--current` repeats).
    current: Vec<String>,
    tolerance: f64,
    filter: String,
    /// Same-run A/B mode: the two artifacts come from the same job on the
    /// same machine (merge-base rebuild vs head), so the comparison is
    /// apples-to-apples — tighter default tolerance, and one-sided labels
    /// (benches the change added or removed) never fail the gate.
    ab: bool,
}

fn parse_perf_args(args: &[String]) -> Result<PerfArgs, String> {
    let mut parsed = PerfArgs {
        baseline: Vec::new(),
        current: Vec::new(),
        tolerance: f64::NAN, // resolved after parsing (mode-dependent)
        filter: "reuse_buffers".into(),
        ab: false,
    };
    let mut tolerance: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--baseline" => parsed.baseline.push(value("--baseline")?),
            "--current" => parsed.current.push(value("--current")?),
            "--tolerance" => {
                tolerance = Some(
                    value("--tolerance")?
                        .parse()
                        .map_err(|e| format!("--tolerance: {e}"))?,
                )
            }
            "--filter" => parsed.filter = value("--filter")?,
            "--ab" => parsed.ab = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if parsed.baseline.is_empty() || parsed.current.is_empty() {
        return Err("--baseline and --current are required".into());
    }
    // Same-box A/B measurements are much less noisy than cross-runner
    // absolute comparisons, so the default gate is tighter.
    parsed.tolerance = tolerance.unwrap_or(if parsed.ab { 0.20 } else { 0.30 });
    if !(0.0..10.0).contains(&parsed.tolerance) {
        return Err(format!("implausible tolerance {}", parsed.tolerance));
    }
    Ok(parsed)
}

/// A bench record reduced to what the gate compares: the per-iteration
/// mean time, plus the throughput rate when the bench declares one.
#[derive(Clone, Copy)]
struct BenchMeasure {
    mean_ns: f64,
    rate_per_sec: Option<f64>,
}

fn bench_records(doc: &Json, path: &str) -> Result<Vec<(String, BenchMeasure)>, String> {
    check_schema(doc, BENCH_SCHEMA).map_err(|e| format!("{path}: {e}"))?;
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing 'records' array"))?;
    let mut out = Vec::new();
    for r in records {
        let label = r
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record without a label"))?;
        let mean_ns = r
            .get("mean_ns")
            .and_then(Json::as_num)
            .map(|n| n.as_f64())
            .ok_or_else(|| format!("{path}: record '{label}' without mean_ns"))?;
        let rate_per_sec = r
            .get("rate_per_sec")
            .and_then(Json::as_num)
            .map(|n| n.as_f64());
        out.push((
            label.to_owned(),
            BenchMeasure {
                mean_ns,
                rate_per_sec,
            },
        ));
    }
    Ok(out)
}

/// Folds several passes of the same benches into one record per label, in
/// first-seen order: the (nearest-rank) median mean time and, when every
/// pass that has the label declares one, the median rate, over the passes
/// that have it.
fn median_records(passes: &[Vec<(String, BenchMeasure)>]) -> Vec<(String, BenchMeasure)> {
    let mut labels: Vec<&str> = Vec::new();
    for (label, _) in passes.iter().flatten() {
        if !labels.contains(&label.as_str()) {
            labels.push(label);
        }
    }
    labels
        .into_iter()
        .map(|label| {
            let samples: Vec<BenchMeasure> = passes
                .iter()
                .flat_map(|pass| pass.iter().filter(|(l, _)| l == label))
                .map(|(_, m)| *m)
                .collect();
            let means: Vec<f64> = samples.iter().map(|m| m.mean_ns).collect();
            let rates: Option<Vec<f64>> = samples.iter().map(|m| m.rate_per_sec).collect();
            let measure = BenchMeasure {
                mean_ns: median(&means),
                rate_per_sec: rates.as_deref().map(median),
            };
            (label.to_owned(), measure)
        })
        .collect()
}

/// Loads every artifact of one side, printing its peak RSS, and folds the
/// passes into per-label medians.
fn load_side(side: &str, paths: &[String]) -> Result<Vec<(String, BenchMeasure)>, (u8, String)> {
    let mut passes = Vec::with_capacity(paths.len());
    for path in paths {
        let doc = load(path).map_err(|e| (2, e))?;
        // Surface the memory high-water marks alongside the throughput
        // gate: informational (machine RAM differs across runner
        // classes), but they make footprint regressions visible in the
        // CI log next to the lanes that caused them.
        if let Some(kb) = doc.get("peak_rss_kb").and_then(Json::as_num) {
            println!("  {side} peak RSS: {:.0} kB ({path})", kb.as_f64());
        }
        passes.push(bench_records(&doc, path).map_err(|e| (1, e))?);
    }
    Ok(median_records(&passes))
}

fn perf_gate(args: &[String]) -> ExitCode {
    let args = match parse_perf_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf gate: {e}");
            return ExitCode::from(2);
        }
    };
    let sides = load_side("baseline", &args.baseline)
        .and_then(|b| Ok((b, load_side("current", &args.current)?)));
    let (baseline, current) = match sides {
        Ok(sides) => sides,
        Err((code, e)) => {
            eprintln!("perf gate: {e}");
            return ExitCode::from(code);
        }
    };
    let regressions = match compare(&baseline, &current, &args) {
        Ok(regressions) => regressions,
        Err(e) => {
            eprintln!("perf gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if regressions.is_empty() {
        println!("perf gate: pass");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: FAIL");
        for r in &regressions {
            eprintln!("  {r}");
        }
        if args.ab {
            eprintln!(
                "(A/B mode: head measured slower than a merge-base rebuild in the \
                 same job — no committed baseline involved; re-run to rule out \
                 noise, or justify the regression in the PR)"
            );
        } else {
            eprintln!(
                "(refresh the baseline with: BCOUNT_BENCH_JSON=BENCH_BASELINE.json \
                 cargo bench -p bcount-bench engine -- --test ; see README)"
            );
        }
        ExitCode::FAILURE
    }
}

/// Compares every baseline lane matching the filter against the current
/// side (both already folded to per-label medians), printing one line per
/// lane, and returns the regressions.
fn compare(
    baseline: &[(String, BenchMeasure)],
    current: &[(String, BenchMeasure)],
    args: &PerfArgs,
) -> Result<Vec<String>, String> {
    let gated: Vec<&(String, BenchMeasure)> = baseline
        .iter()
        .filter(|(label, _)| label.contains(&args.filter))
        .collect();
    if gated.is_empty() {
        return Err(format!(
            "baseline {} has no records matching filter '{}'",
            args.baseline.join(", "),
            args.filter
        ));
    }
    let mut regressions = Vec::new();
    println!(
        "perf gate{}: tolerance {:.0}%, {} gated benchmarks (filter '{}'), medians of {} \
         baseline and {} current passes",
        if args.ab { " (A/B)" } else { "" },
        args.tolerance * 100.0,
        gated.len(),
        args.filter,
        args.baseline.len(),
        args.current.len()
    );
    for (label, base) in gated {
        let Some((_, cur)) = current.iter().find(|(l, _)| l == label) else {
            if args.ab {
                // A/B compares two builds of the same change set: a label
                // on only one side was added/removed by the change, which
                // is not a regression.
                println!("  {label:<50} skipped (not in head run)");
            } else {
                regressions.push(format!("{label}: missing from current run"));
                println!("  {label:<50} MISSING");
            }
            continue;
        };
        // Prefer throughput (higher = better); fall back to mean time
        // (lower = better). `change` is the fractional regression.
        let (change, shown) = match (base.rate_per_sec, cur.rate_per_sec) {
            (Some(b), Some(c)) if b > 0.0 => (
                (b - c) / b,
                format!("{:.3}K -> {:.3}K elem/s", b / 1e3, c / 1e3),
            ),
            _ if base.mean_ns > 0.0 => {
                let change = (cur.mean_ns - base.mean_ns) / base.mean_ns;
                (
                    change,
                    format!("{:.2}ms -> {:.2}ms", base.mean_ns / 1e6, cur.mean_ns / 1e6),
                )
            }
            _ => (0.0, "empty baseline measurement".into()),
        };
        let verdict = if change > args.tolerance {
            regressions.push(format!(
                "{label}: {:.1}% regression ({shown})",
                change * 100.0
            ));
            "REGRESSED"
        } else if change < -args.tolerance {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {label:<50} {verdict:<10} {shown} ({:+.1}%)",
            -change * 100.0
        );
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(family: &str, placement: &str) -> Json {
        let outcome = Json::obj(OUTCOME_KEYS.iter().map(|&k| (k, Json::Null)).collect());
        let cell = Json::obj(vec![
            ("scenario", Json::Str("e9/geometric-max/max-faker".into())),
            ("family", Json::Str(family.into())),
            ("protocol", Json::Str("geometric-max".into())),
            ("adversary", Json::Str("max-faker".into())),
            ("placement", Json::Str(placement.into())),
            ("n", Json::Num(bcount_json::Number::U(64))),
            ("seed", Json::Num(bcount_json::Number::U(13))),
            ("outcome", outcome),
        ]);
        Json::obj(vec![
            ("schema", Json::Str(EXPERIMENTS_SCHEMA.into())),
            ("experiments", Json::Arr(Vec::new())),
            ("scenarios", Json::Arr(vec![cell])),
        ])
    }

    /// One pass of the gated lane at `rate` rounds/sec.
    fn pass(rate: f64) -> Vec<(String, BenchMeasure)> {
        vec![(
            "engine_rounds/reuse_buffers/256".into(),
            BenchMeasure {
                mean_ns: 50.0 / rate * 1e9,
                rate_per_sec: Some(rate),
            },
        )]
    }

    fn gate_args(current_passes: usize) -> PerfArgs {
        let mut args = parse_perf_args(
            &["--baseline", "base.json", "--current", "cur.json"].map(String::from),
        )
        .unwrap();
        args.current = vec!["cur.json".into(); current_passes];
        args
    }

    /// Each lane is judged by its median over the passes: one pass 40%
    /// slow out of three passes the 30% gate, two slow passes fail it.
    #[test]
    fn perf_gate_compares_the_median_of_repeated_passes() {
        let baseline = median_records(&[pass(20_000.0)]);
        let args = gate_args(3);
        assert_eq!(args.tolerance, 0.30);
        let one_slow = median_records(&[pass(12_000.0), pass(19_500.0), pass(21_000.0)]);
        assert_eq!(one_slow[0].1.rate_per_sec, Some(19_500.0));
        assert!(compare(&baseline, &one_slow, &args).unwrap().is_empty());
        let two_slow = median_records(&[pass(12_000.0), pass(13_000.0), pass(21_000.0)]);
        let regressions = compare(&baseline, &two_slow, &args).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("reuse_buffers/256"));
        // A single pass is its own median, as before repeats were allowed.
        let single = median_records(&[pass(12_000.0)]);
        assert_eq!(compare(&baseline, &single, &gate_args(1)).unwrap().len(), 1);
    }

    #[test]
    fn perf_gate_flags_repeat() {
        let args = parse_perf_args(
            &[
                "--baseline",
                "a.json",
                "--baseline",
                "b.json",
                "--current",
                "c.json",
                "--current",
                "d.json",
                "--current",
                "e.json",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.baseline, ["a.json", "b.json"]);
        assert_eq!(args.current, ["c.json", "d.json", "e.json"]);
        assert!(parse_perf_args(&["--baseline", "a.json"].map(String::from)).is_err());
    }

    #[test]
    fn schema_gate_parses_cell_labels_through_the_registry() {
        assert!(validate_experiments(&artifact("hnd(d=8)", "at(7)")).is_ok());
        let bad_family = validate_experiments(&artifact("hnd(degree=8)", "at(7)")).unwrap_err();
        assert!(bad_family.contains("hnd(degree=8)"), "{bad_family}");
        let bad_placement = validate_experiments(&artifact("hnd(d=8)", "near(7)")).unwrap_err();
        assert!(bad_placement.contains("near(7)"), "{bad_placement}");
    }
}
