//! `--repeat N`: the same workload in N fresh processes (seeds `seed`,
//! `seed + 1`, …), then per-metric min / median / max and spreads, and a
//! non-zero exit when an end-to-end metric is less steady than its bound
//! allows. The last line is the report as JSON — the shape of the
//! entries in `baseline/noise.json`.

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::workload::Workload;
use crate::Options;
use std::process::{Command, ExitCode};

/// Runs below which the quartile spread is not defined enough to judge
/// by; `max ÷ min − 1` is used instead.
const QUARTILE_RUNS: usize = 4;

/// The metrics of one child run, or why it has none.
fn child_metrics(w: Workload, seed: u64, o: &Options) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("seed {seed}: the run was not correct: {last}"));
    }
    let metrics = result.get("metrics").and_then(Json::as_obj).ok_or("result has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric has no value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

pub fn run(w: Workload, o: &Options) -> ExitCode {
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    for i in 0..o.repeat {
        let seed = o.seed + i as u64;
        match child_metrics(w, seed, o) {
            Ok(m) => {
                println!("run {} of {} (seed {seed}) done", i + 1, o.repeat);
                runs.push(m);
            }
            Err(e) => {
                eprintln!("c2pi_benchmark --repeat: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let by_quartiles = runs.len() >= QUARTILE_RUNS;
    let mut unsteady = 0;
    let mut rows = Vec::new();
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}",
        "metric", "min", "median", "max", "max/min-1", "iqr/med", "bound"
    );
    for def in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v))
            .collect();
        if values.len() != runs.len() || values.is_empty() {
            eprintln!("c2pi_benchmark --repeat: a run did not report {}", def.name);
            return ExitCode::FAILURE;
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let range = if min > 0.0 { max / min - 1.0 } else { 0.0 };
        let iqr = if values.len() >= 2 { quartile_spread(&values) } else { 0.0 };
        let judged = if by_quartiles { iqr } else { range };
        let steady = judged <= def.bound;
        unsteady += usize::from(!steady);
        println!(
            "{:<24} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>9.4} {:>6.2}{}",
            def.name,
            min,
            median(&values),
            max,
            range,
            iqr,
            def.bound,
            if steady { "" } else { "  UNSTEADY" }
        );
        rows.push((
            def.name,
            Json::obj([
                ("unit", Json::Str(def.unit.into())),
                ("min", Json::Num(min)),
                ("median", Json::Num(median(&values))),
                ("max", Json::Num(max)),
                ("max_over_min_minus_1", Json::Num(range)),
                ("iqr_over_median", Json::Num(iqr)),
                ("bound", Json::Num(def.bound)),
                ("values", Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())),
            ]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let report = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("runs", Json::Num(runs.len() as f64)),
        ("first_seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("machine_cores", Json::Num(cores as f64)),
        (
            "judged_by",
            Json::Str(if by_quartiles { "iqr_over_median" } else { "max_over_min_minus_1" }.into()),
        ),
        ("metrics", Json::obj(rows)),
    ]);
    println!("{}", report.render());
    if unsteady > 0 {
        eprintln!("c2pi_benchmark --repeat: {unsteady} metric(s) spread wider than their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
