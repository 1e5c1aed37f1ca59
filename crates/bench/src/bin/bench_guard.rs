//! Judges a change against its parent from alternated pairs of
//! `c2pi_benchmark` runs; the last step of `ci/bench_pairs.sh`.
//!
//! `bench_guard <BENCHMARK.json> <runs-dir> [<metric>@<workload>]`, where
//! `<runs-dir>` holds `{parent,change}/<workload>.<i>.json`, i = 1, 2, …:
//! each the last stdout line of one `--trace 0` run, pair i being the two
//! files numbered i. Workloads, metrics, directions and bounds come from
//! `BENCHMARK.json` and nowhere else. Prints one row per (workload,
//! metric) — each side's median [q1–q3], the pairs the change won, the
//! verdict of [`judge`] — and exits non-zero on a regressed cell, a run
//! that is not `correct` or lacks a metric, a larger `failed ÷ attempted`
//! on the change side, unequal run counts, or when the cell the third
//! argument names (an issue's claim) is not improved.

/// One side's result lines for one workload, in pair order.
type Runs<'a> = &'a dyn Fn(&str, &str) -> Vec<String>;

/// The scalar after `"key": ` in `text` (of a metric, its `value`).
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = text.split_once(&format!("\"{key}\": "))?.1;
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    Some(rest[..rest.find([',', '}'])?].trim_matches('"'))
}

fn number(text: &str, key: &str) -> Result<f64, String> {
    field(text, key).and_then(|v| v.parse().ok()).ok_or(format!("no number {key} in {text}"))
}

fn column(runs: &[String], key: &str) -> Result<Vec<f64>, String> {
    runs.iter().map(|run| number(run, key)).collect()
}

/// The one-line `{"name": …}` entries of `BENCHMARK.json`'s array `key`.
fn entries<'a>(contract: &'a str, key: &str) -> Vec<&'a str> {
    let array = contract.split_once(&format!("\"{key}\": [")).and_then(|(_, s)| s.split_once(']'));
    array.map_or(Vec::new(), |(body, _)| body.lines().filter(|l| l.contains("\"name\"")).collect())
}

/// `[q1, median, q3]` by the exclusive method (`benchmark/src/stats.rs`,
/// Python's `statistics.quantiles(v, n=4)`); a single run is all three.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1.0, 2.0, 3.0].map(|k| {
        let pos = k * (n + 1) as f64 / 4.0;
        let j = (pos as usize).clamp(1, n.max(2) - 1);
        v[j - 1] + (v[j.min(n - 1)] - v[j - 1]) * (pos - j as f64)
    })
}

/// One cell's `parent | change | wins` columns (a tie wins a pair for
/// neither side) and its verdict. **regressed**: the change's median is
/// worse than the parent's by more than `bound` × that median.
/// **improved**: the change wins ≥ 9/10 of the pairs and the medians
/// differ by more than the parent's inter-quartile distance.
/// **unresolved**: neither, the parent's spread (that distance ÷ its
/// median; `max ÷ min − 1` under four runs, as `--repeat`) exceeds
/// `bound`, and some change run does not beat some parent run. Else
/// **unchanged**.
fn judge(lower: bool, bound: f64, parent: &[f64], change: &[f64]) -> (String, &'static str) {
    // Signed so that a positive gain is an improvement, lower being better or not.
    let gain = |from: f64, to: f64| if lower { from - to } else { to - from };
    let (p, c) = (quartiles(parent), quartiles(change));
    let wins = parent.iter().zip(change).filter(|(&a, &b)| gain(a, b) > 0.0).count();
    let extreme = |pick: fn(f64, f64) -> f64| parent.iter().copied().reduce(pick).unwrap_or(0.0);
    let (iqr, range) = (p[2] - p[0], extreme(f64::max) / extreme(f64::min) - 1.0);
    let spread = if parent.len() >= 4 { iqr / p[1].abs() } else { range };
    let all_better = parent.iter().all(|&a| change.iter().all(|&b| gain(a, b) > 0.0));
    let verdict = match gain(p[1], c[1]) {
        g if -g > bound * p[1].abs() => "regressed",
        g if wins * 10 >= parent.len() * 9 && g > iqr => "improved",
        _ if spread > bound && !all_better => "unresolved",
        _ => "unchanged",
    };
    // Four significant digits, large counts in full; quartiles where the runs differ.
    let d = 3usize.saturating_sub(p[1].abs().max(1.0).log10() as usize);
    let show = |q: [f64; 3]| match q[0] == q[2] {
        true => format!("{:.d$}", q[1]),
        false => format!("{:.d$} [{:.d$}–{:.d$}]", q[1], q[0], q[2]),
    };
    (format!("{} | {} | {wins}/{}", show(p), show(c), parent.len()), verdict)
}

/// One side's `failed ÷ attempted` over its runs, every one `correct`.
fn failed_share(runs: &[String]) -> Result<f64, String> {
    if let Some(run) = runs.iter().find(|run| field(run, "correct") != Some("true")) {
        return Err(format!("a run is not correct: {run}"));
    }
    Ok(column(runs, "failed")?.iter().sum::<f64>() / column(runs, "attempted")?.iter().sum::<f64>())
}

/// The verdict table when nothing fails; otherwise as much of it as could
/// be judged, then every `FAIL` line. A workload without runs was not run.
fn guard(contract: &str, runs: Runs, claim: Option<&str>) -> Result<String, String> {
    let mut out = "| workload (pairs) | metric | parent | change | wins | verdict |\n".to_string();
    out += "|---|---|---|---|---|---|\n";
    let (mut fails, mut unmet, metrics) = (String::new(), claim, entries(contract, "end_to_end"));
    for w in entries(contract, "workloads").iter().filter_map(|entry| field(entry, "name")) {
        let (parent, change) = (runs("parent", w), runs("change", w));
        let n = parent.len();
        if n != change.len() {
            return Err(format!("{w}: {n} parent runs, {} change runs", change.len()));
        } else if failed_share(&change)? > failed_share(&parent)? {
            fails += &format!("FAIL: {w}: a larger share of operations failed on the change\n");
        }
        for entry in metrics.iter().filter(|_| n > 0) {
            let name = field(entry, "name").unwrap_or_default();
            let (lower, bound) = (field(entry, "better") == Some("lower"), number(entry, "bound")?);
            let (p, c) = (column(&parent, name)?, column(&change, name)?);
            let (columns, verdict) = judge(lower, bound, &p, &c);
            out += &format!("| {w} ({n}) | `{name}` | {columns} | {verdict} |\n");
            if verdict == "regressed" {
                fails += &format!("FAIL: {name}@{w} regressed\n");
            }
            unmet = unmet.filter(|cell| verdict != "improved" || *cell != format!("{name}@{w}"));
        }
    }
    if let Some(cell) = unmet {
        fails += &format!("FAIL: the claimed cell {cell} is not improved\n");
    }
    match (fails.is_empty(), out.lines().count() > 2) {
        (true, true) => Ok(out),
        (true, false) => Err("no runs found".into()),
        (false, _) => Err(out + &fails),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ([contract_path, dir] | [contract_path, dir, _]) = args.as_slice() else {
        eprintln!("usage: bench_guard <BENCHMARK.json> <runs-dir> [<metric>@<workload>]");
        std::process::exit(2);
    };
    let runs = |side: &str, workload: &str| {
        let run = |i: usize| std::fs::read_to_string(format!("{dir}/{side}/{workload}.{i}.json"));
        (1..).map_while(|i| run(i).ok()).collect()
    };
    let judged = std::fs::read_to_string(contract_path)
        .map_err(|e| format!("cannot read {contract_path}: {e}"))
        .and_then(|text| guard(&text, &runs, args.get(2).map(String::as_str)));
    let (Ok(report) | Err(report)) = &judged;
    println!("{report}");
    std::process::exit(i32::from(judged.is_err()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0];
        let noisy = [100.0, 160.0, 90.0, 150.0, 100.0, 170.0, 80.0, 140.0, 100.0, 160.0];
        for lower in [true, false] {
            // The factor that makes a run `worse` times worse for the metric.
            let by = |worse: f64| if lower { worse } else { 1.0 / worse };
            assert_eq!(judge(lower, 0.25, &steady, &steady.map(|v| v * by(1.4))).1, "regressed");
            assert_eq!(judge(lower, 0.25, &steady, &steady.map(|v| v * by(0.8))).1, "improved");
            assert_eq!(judge(lower, 0.25, &steady, &steady.map(|v| v * by(1.1))).1, "unchanged");
            assert_eq!(judge(lower, 0.25, &noisy, &noisy.map(|v| v * by(1.1))).1, "unresolved");
        }
        // Resolved despite the spread: every change run beats every parent run.
        assert_eq!(judge(true, 0.25, &[10.0, 20.0, 30.0, 40.0], &[9.0; 4]).1, "unchanged");
        // Under four runs the spread is max ÷ min − 1.
        assert_eq!(judge(true, 0.25, &[10.0, 14.0], &[11.0, 13.0]).1, "unresolved");
        // An exact count (bound 0.01) moving by one flight.
        assert_eq!(judge(true, 0.01, &[11.0; 4], &[12.0; 4]).1, "regressed");
        // A tie wins the pair for neither side.
        assert!(judge(true, 0.25, &[5.0; 4], &[5.0, 5.0, 4.0, 6.0]).0.ends_with("| 1/4"));
        assert!(judge(true, 0.25, &[5.0, 5.0, 4.0, 6.0], &[5.0; 4]).0.ends_with("| 1/4"));
        // Nine wins of ten with the medians inside the parent's IQR are no gain.
        let parent = [90.0, 95.0, 100.0, 105.0, 110.0, 90.0, 95.0, 100.0, 105.0, 110.0];
        let mut change = parent.map(|v| v - 1.0);
        change[0] = 91.0;
        let (columns, verdict) = judge(true, 0.25, &parent, &change);
        assert!(columns.ends_with("| 9/10") && verdict == "unchanged", "{columns} {verdict}");
    }

    #[test]
    fn exit_conditions() {
        let contract =
            "\"workloads\": [\n{\"name\": \"w\", \"why\": \"\"}\n],\n\"end_to_end\": [\n\
            {\"name\": \"ms\", \"better\": \"lower\", \"bound\": 0.25},\n\
            {\"name\": \"flights\", \"better\": \"lower\", \"bound\": 0.01}\n],\n\
            \"per_layer\": [\n{\"name\": \"layer_ms\", \"better\": \"lower\"}\n]";
        const RUN: &str = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"ms": {"value": MS}, "flights": {"value": 11}}}"#;
        let run = |ms: &str| vec![RUN.replace("MS", ms); 4];
        let fails = |p: &[String], c: &[String], claim| {
            let runs = |s: &str, _: &str| if s == "parent" { p.to_vec() } else { c.to_vec() };
            guard(contract, &runs, claim).err().unwrap_or_default()
        };
        let same = run("5");
        let edited = |from: &str, to: &str| vec![same[0].replace(from, to); 4];
        assert_eq!(fails(&same, &same, None), "");
        assert_eq!(fails(&edited("\"failed\": 0", "\"failed\": 1"), &same, None), "");
        assert!(fails(&same, &edited("\"failed\": 0", "\"failed\": 1"), None).contains("share"));
        assert!(fails(&same, &edited("true", "false"), None).contains("not correct"));
        assert!(fails(&same, &edited("flights", "hops"), None).contains("no number flights"));
        assert!(fails(&same, &same[1..], None).contains("4 parent runs, 3 change runs"));
        assert!(fails(&same, &run("9"), None).ends_with("FAIL: ms@w regressed\n"));
        assert!(fails(&[], &[], None).contains("no runs"));
        // The claimed cell must be improved; unchanged is not enough.
        assert!(fails(&same, &same, Some("ms@w")).contains("ms@w is not improved"));
        assert_eq!(fails(&same, &run("4"), Some("ms@w")), "");
        // The repository's own contract.
        let contract = include_str!("../../../../BENCHMARK.json");
        assert_eq!(entries(contract, "workloads").len(), 4);
        assert_eq!(entries(contract, "end_to_end").len(), 10);
    }
}
