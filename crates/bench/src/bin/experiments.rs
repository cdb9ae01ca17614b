//! CLI entry point for the experiment suite and the scenario matrix.
//!
//! ```text
//! # Experiments (printable tables):
//! cargo run --release -p bcount-bench --bin experiments -- all
//! cargo run --release -p bcount-bench --bin experiments -- e3 e11
//! cargo run --release -p bcount-bench --bin experiments -- all --quick
//!
//! # Machine-readable artifact (schema bcount-experiments/v1):
//! cargo run --release -p bcount-bench --bin experiments -- all --quick --json out.json
//!
//! # Scenario matrix cells only, filtered by substring, extra seeds:
//! cargo run --release -p bcount-bench --bin experiments -- \
//!     --scenario e3 --seeds 1,2,3 --json cells.json
//! ```
//!
//! `--json` writes a schema-versioned artifact containing every
//! experiment's table and cell records (and/or the raw matrix cells from
//! `--scenario`); the CI `experiments-smoke` job validates it with
//! `gate schema` and uploads it.

use bcount_bench::experiments::{is_known, run, standard_matrix, ExperimentResult};
use bcount_bench::scenario::{run_matrix, CellRecord};
use bcount_json::{Json, ToJson};
use std::process::ExitCode;
use std::time::Instant;

/// The artifact schema tag; bump when field meanings change.
const SCHEMA: &str = "bcount-experiments/v1";

struct Args {
    names: Vec<String>,
    quick: bool,
    json: Option<String>,
    scenario: Option<String>,
    seeds: Option<Vec<u64>>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        names: Vec::new(),
        quick: false,
        json: None,
        scenario: None,
        seeds: None,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--json" => args.json = Some(value("--json")?),
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--seeds" => {
                let list = value("--seeds")?;
                let seeds: Result<Vec<u64>, _> =
                    list.split(',').map(|s| s.trim().parse::<u64>()).collect();
                args.seeds = Some(seeds.map_err(|e| format!("--seeds: {e}"))?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            // Every name is checked before anything runs.
            name if !is_known(name) => {
                return Err(format!("unknown experiment '{name}' (use e1..e14 or all)"))
            }
            name => args.names.push(name.to_owned()),
        }
    }
    Ok(args)
}

fn artifact(results: &[ExperimentResult], cells: &[CellRecord], args: &Args) -> Json {
    let experiments: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", r.name.to_json()),
                ("table", r.table.to_json()),
                ("cells", r.cells.to_json()),
            ])
        })
        .collect();
    let mut fields = vec![
        ("schema", SCHEMA.to_json()),
        ("quick", args.quick.to_json()),
        ("scenario_filter", args.scenario.to_json()),
        ("seeds", args.seeds.to_json()),
        ("experiments", Json::Arr(experiments)),
        ("scenarios", cells.to_json()),
    ];
    // Memory high-water mark of the whole run (Linux `VmHWM`), so
    // scale-tier sweeps record their footprint next to their timings;
    // omitted where the platform cannot report it.
    if let Some(kb) = bcount_sim::peak_rss_kb() {
        fields.insert(1, ("peak_rss_kb", kb.to_json()));
    }
    Json::obj(fields)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("experiments: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut matrix_cells: Vec<CellRecord> = Vec::new();

    if let Some(filter) = &args.scenario {
        // Matrix mode: run the standard scenario matrix through the
        // generic runner; experiments run too only if named explicitly.
        let t0 = Instant::now();
        matrix_cells = run_matrix(
            &standard_matrix(),
            filter,
            args.quick,
            args.seeds.as_deref(),
        );
        eprintln!(
            "[scenario '{}': {} cells, {:.1}s]",
            filter,
            matrix_cells.len(),
            t0.elapsed().as_secs_f64()
        );
        if matrix_cells.is_empty() {
            eprintln!("experiments: no scenario matches '{filter}'");
            return ExitCode::from(2);
        }
    }

    let names: Vec<&str> = if args.names.is_empty() {
        if args.scenario.is_some() {
            Vec::new()
        } else {
            vec!["all"]
        }
    } else {
        args.names.iter().map(String::as_str).collect()
    };
    for name in names {
        let t0 = Instant::now();
        let batch = run(name, args.quick);
        for result in &batch {
            println!("{}", result.table);
        }
        eprintln!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64());
        results.extend(batch);
    }

    if let Some(path) = &args.json {
        let doc = artifact(&results, &matrix_cells, &args);
        let rendered = match doc.render_pretty() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("experiments: cannot render artifact: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("experiments: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("[artifact: {path} ({SCHEMA})]");
    }
    eprintln!("[total: {:.1}s]", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
