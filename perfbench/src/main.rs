//! The repository benchmark: Algorithm 2 under beacon spam (clean and
//! with faults), Algorithm 1 under edge injection, and the `bcountd`
//! request handler with its journal on.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which builds
//! this harness and `bcountd` in release mode first. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` they are the per-layer ones, taken from spans the
//! harness records around its calls into each crate, and the spans are
//! written to `.bench_work/trace/`. See `RATIONALE.md` for the workloads
//! and what each metric should move.

mod daemon;
mod engine;
mod pace;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bcount_json::{Json, ToJson};

use crate::trace::Recorder;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: congest_spam, congest_faulty, local_inject, daemon_durable";

/// The end-to-end metrics every `--trace 0` run prints, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("recovery_s", "s"),
];

/// The per-layer metrics every `--trace 1` run prints, with their units.
/// A workload that does not exercise a layer reports 0 for its metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("graph.view_clone_ms", "ms"),
    ("sim.new_s", "s"),
    ("sim.step_ms.p50", "ms"),
    ("sim.step_ms.p99", "ms"),
    ("sim.step_ms.max", "ms"),
    ("sim.step_s.total", "s"),
    ("sim.honest_msgs", "count"),
    ("sim.byz_msgs", "count"),
    ("sim.msgs_per_step_s", "1/s"),
    ("sim.bits_total", "bit"),
    ("sim.max_msg_bits", "bit"),
    ("sim.fault.dropped", "count"),
    ("sim.fault.duplicated", "count"),
    ("sim.fault.delayed", "count"),
    ("sim.fault.crashed", "count"),
    ("sim.snapshot_us", "us"),
    ("core.decided_frac", "ratio"),
    ("core.in_band_frac", "ratio"),
    ("core.small_msg_frac", "ratio"),
    ("core.msgs_per_decided", "count"),
    ("core.decided_round.p50", "round"),
    ("core.decided_round.p95", "round"),
    ("core.local.checks_ms", "ms"),
    ("daemon.handle_ms.create", "ms"),
    ("daemon.handle_ms.step", "ms"),
    ("daemon.handle_ms.query", "ms"),
    ("daemon.journal_ms", "ms"),
    ("daemon.wire.parse_us", "us"),
    ("daemon.wire.render_us", "us"),
    ("transport.overhead_ms.step", "ms"),
    ("transport.overhead_ms.query", "ms"),
    ("daemon.recovery.open_s", "s"),
    ("daemon.recovery.replayed_rounds", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// One measured value; the unit comes from [`END_TO_END`] / [`PER_LAYER`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: &'static str,
    value: f64,
}

impl Metric {
    /// A metric named `name` (one of the tables' names).
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value }
    }
}

/// What one run did.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted: executions, or daemon requests.
    pub attempted: u64,
    /// Attempted operations that failed a check.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
}

/// Loop time, step and query latency medians and request rate of a run's
/// closed loops, taken per execution (or daemon pass) and reported
/// as the median over them, so a burst of machine noise moves one sample
/// instead of the pooled tail; then corrected by [`fast_share`].
#[derive(Debug, Default)]
pub struct LoopStats {
    wall_s: Vec<f64>,
    step_p50: Vec<f64>,
    query_p50: Vec<f64>,
    req_per_s: Vec<f64>,
    windows: Vec<Vec<f64>>,
}

impl LoopStats {
    /// Adds one pass: its step and query times (ms), what the workload
    /// reports as its `wall_s`, and the reference time of each of its probe
    /// windows, in loop order.
    pub fn add(&mut self, step_ms: &[f64], query_ms: &[f64], wall_s: f64, windows: Vec<f64>) {
        let loop_s = (step_ms.iter().sum::<f64>() + query_ms.iter().sum::<f64>()) / 1e3;
        self.wall_s.push(wall_s);
        self.step_p50.push(trace::median(step_ms));
        self.query_p50.push(trace::median(query_ms));
        self.req_per_s
            .push((step_ms.len() + query_ms.len()) as f64 / loop_s);
        self.windows.push(windows);
    }

    /// The run's [`fast_share`].
    pub fn share(&self) -> f64 {
        fast_share(&self.windows)
    }

    /// `wall_s`, `step_p50_ms`, `query_p50_ms` and `req_per_s`.
    pub fn metrics(&self) -> Vec<Metric> {
        let share = self.share();
        let time = |name, samples: &[f64]| Metric::new(name, share * trace::median(samples));
        vec![
            time("wall_s", &self.wall_s),
            time("step_p50_ms", &self.step_p50),
            time("query_p50_ms", &self.query_p50),
            Metric::new("req_per_s", trace::median(&self.req_per_s) / share),
        ]
    }
}

/// How long a run's loop work takes in its fast windows, as a share of
/// how long it typically takes.
///
/// Every pass of a run repeats the same loop, so the work between two
/// probes (a window) is the same in every pass. Each window's time is
/// divided by the median of that window's times across the passes, and the
/// share is the 10th percentile of those ratios over every window of every
/// pass. The host's interference only ever slows work and comes in bursts
/// the probes do not catch; what the fast windows took is the program's
/// time. A change to the program moves every window alike and leaves the
/// share as it was. With one pass there is nothing to compare: 1.
pub fn fast_share(windows: &[Vec<f64>]) -> f64 {
    if windows.len() < 2 {
        return 1.0;
    }
    let len = windows[0].len();
    assert!(
        windows.iter().all(|w| w.len() == len),
        "every pass repeats the same loop"
    );
    let mut ratios = Vec::with_capacity(len * windows.len());
    for k in 0..len {
        let at: Vec<f64> = windows.iter().map(|w| w[k]).collect();
        let typical = trace::median(&at);
        ratios.extend(at.iter().map(|t| t / typical));
    }
    trace::percentile(&ratios, 10.0)
}

/// A run's time budget. Work goes in rounds (an execution pair, a daemon
/// pass); another round starts only while one as long as the last still
/// ends within the budget, so a run ends before `--seconds` rather than
/// up to a round after it. The first round's estimate is what came before
/// it (warm-up and set-up), which only matters past the minimum.
pub struct Budget {
    start: Instant,
    seconds: f64,
    mark: Instant,
}

impl Budget {
    /// A budget of `seconds`, counted from now.
    pub fn new(seconds: f64) -> Budget {
        let now = Instant::now();
        Budget {
            start: now,
            seconds,
            mark: now,
        }
    }

    /// Whether to start another round, with `done` rounds done: always
    /// below `min`, then while the estimate fits.
    pub fn another(&mut self, done: usize, min: usize) -> bool {
        let now = Instant::now();
        let last = now - self.mark;
        self.mark = now;
        done < min || (now - self.start + last).as_secs_f64() <= self.seconds
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    bcount_sim::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// The traced run's wall time, the untraced one, and the overhead.
pub fn overhead_metrics(traced_s: f64, untraced_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("trace.wall_s", traced_s),
        Metric::new("trace.untraced_wall_s", untraced_s),
        Metric::new(
            "trace.overhead_frac",
            trace::overhead_frac(traced_s, untraced_s),
        ),
    ]
}

/// Scratch space for the daemon and the trace output, under the directory
/// the benchmark runs from.
pub const WORK_DIR: &str = ".bench_work";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} requires a whole number, got '{value}'"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    })
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")? as f64,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn run(args: &Args, rec: &mut Recorder) -> Result<Outcome, String> {
    let kind = match args.workload.as_str() {
        "congest_spam" => engine::Kind::CongestSpam,
        "congest_faulty" => engine::Kind::CongestFaulty,
        "local_inject" => engine::Kind::LocalInject,
        "daemon_durable" => {
            return daemon::run(args.seed, args.seconds, args.trace, rec)
                .map_err(|e| format!("daemon_durable: {e}"))
        }
        other => return Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    Ok(engine::run(kind, args.seed, args.seconds, args.trace, rec))
}

/// The result line: every metric of the run's table, by name and unit,
/// with 0 for metrics the workload does not exercise.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            (
                name,
                Json::obj(vec![("value", value.to_json()), ("unit", unit.to_json())]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", (outcome.failed == 0).to_json()),
        ("attempted", outcome.attempted.to_json()),
        ("failed", outcome.failed.to_json()),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
    .expect("metric values are finite")
}

fn write_trace(rec: &Recorder, args: &Args) -> std::io::Result<PathBuf> {
    let dir = Path::new(WORK_DIR).join("trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    rec.write_jsonl(&path)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut rec = Recorder::new(args.trace);
    let outcome = match run(&args, &mut rec) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for m in &outcome.metrics {
        assert!(
            table.iter().any(|&(name, _)| name == m.name),
            "metric {} is not in the reported table",
            m.name
        );
    }
    if args.trace {
        eprintln!("span                     count    total_ms     self_ms      p50_ms");
        for row in rec.summary() {
            eprintln!(
                "{:<22} {:>7} {:>11.3} {:>11.3} {:>11.4}",
                row.name, row.count, row.total_ms, row.self_ms, row.p50_ms
            );
        }
        match write_trace(&rec, &args) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "perfbench: {} seed {} took {:.1} s: {} attempted, {} failed",
        args.workload,
        args.seed,
        start.elapsed().as_secs_f64(),
        outcome.attempted,
        outcome.failed
    );
    println!("{}", result_line(&outcome, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload congest_spam --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "congest_spam");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload x --seed 1 --seconds 1").is_err());
        assert!(args("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("wall_s", 1.25)],
        };
        let line = Json::parse(&result_line(&outcome, END_TO_END)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        let wall = metrics.get("wall_s").unwrap().get("value").unwrap();
        assert_eq!(wall.as_num().unwrap().as_f64(), 1.25);
    }

    #[test]
    fn fast_share_is_the_low_tail_of_window_ratios() {
        assert_eq!(fast_share(&[vec![1.0, 2.0]]), 1.0);
        // Window 0 is 1.0 twice and once slowed to 2.0; window 1 is 3.0
        // throughout. Ratios: 1, 1, 2, 1, 1, 1; the 10th percentile is 1.
        let steady = [vec![1.0, 3.0], vec![1.0, 3.0], vec![2.0, 3.0]];
        assert_eq!(fast_share(&steady), 1.0);
        // Two passes of 1 and 3 per window: ratios 0.5 and 1.5 each.
        let split = [vec![1.0, 2.0], vec![3.0, 6.0]];
        assert!((fast_share(&split) - 0.5).abs() < 1e-12);
        // The same runs with the program twice as slow: the same share.
        let slower = [vec![2.0, 4.0], vec![6.0, 12.0]];
        assert_eq!(fast_share(&slower), fast_share(&split));
    }

    #[test]
    fn budget_runs_the_minimum_then_what_fits() {
        let mut spent = Budget::new(0.0);
        assert!(spent.another(0, 1));
        assert!(!spent.another(1, 1));
        let mut ample = Budget::new(3600.0);
        assert!(ample.another(5, 1));
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this harness prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
