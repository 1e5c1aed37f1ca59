//! The metric catalogue — every name the benchmark may print, with its
//! unit — and the collector a run fills in. `BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A catalogued metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before it is a regression;
/// per-layer metrics have none (0).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; printed by `--trace 0` runs.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, 0.25),
    def("online_ms_p50", "ms", Lower, 0.25),
    def("inf_per_s", "1/s", Higher, 0.25),
    def("offline_sets_per_s", "1/s", Higher, 0.25),
    def("online_bytes_per_inf", "B", Lower, 0.01),
    def("online_flights_per_inf", "count", Lower, 0.01),
    def("dealt_bytes_per_inf", "B", Lower, 0.01),
    def("expanded_bytes_per_set", "B", Lower, 0.01),
    def("peak_rss_mb", "MB", Lower, 0.25),
    def("correct_share", "ratio", Higher, 0.01),
];

/// Metrics of single layers; printed by `--trace 1` runs. A layer the
/// workload's path bypasses reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("transport.mem.roundtrip_us", "us", Lower, 0.0),
    def("transport.tcp.roundtrip_us", "us", Lower, 0.0),
    def("transport.tcp.large_mb_per_s", "MB/s", Higher, 0.0),
    def("transport.client_recv_wait_ms", "ms", Lower, 0.0),
    def("transport.server_recv_wait_ms", "ms", Lower, 0.0),
    def("transport.send_ms", "ms", Lower, 0.0),
    def("transport.frames_per_inf", "count", Lower, 0.0),
    def("mpc.prg.hash128_ns", "ns", Lower, 0.0),
    def("mpc.prg.fill_mb_per_s", "MB/s", Higher, 0.0),
    def("mpc.gc.garble_ns_per_and", "ns", Lower, 0.0),
    def("mpc.gc.eval_ns_per_and", "ns", Lower, 0.0),
    def("mpc.gcpre.pregarble_ms", "ms", Lower, 0.0),
    def("mpc.gcpre.eval_ms", "ms", Lower, 0.0),
    def("mpc.gcpre.round_ms", "ms", Lower, 0.0),
    def("mpc.gcpre.and_gates_per_inf", "count", Lower, 0.0),
    def("mpc.gmw.drelu_ms", "ms", Lower, 0.0),
    def("mpc.gmw.drelu_flights", "count", Lower, 0.0),
    def("mpc.gmw.bit_triples_per_inf", "count", Lower, 0.0),
    def("mpc.beaver.linear_ms", "ms", Lower, 0.0),
    def("mpc.beaver.macs_per_inf", "count", Lower, 0.0),
    def("mpc.dealer.bit_triples_ms", "ms", Lower, 0.0),
    def("mpc.dealer.linear_corr_ms", "ms", Lower, 0.0),
    def("nn.suffix_ms", "ms", Lower, 0.0),
    def("nn.clear_full_ms", "ms", Lower, 0.0),
    def("tensor.conv_ms", "ms", Lower, 0.0),
    def("pi.session.client_compute_ms", "ms", Lower, 0.0),
    def("pi.session.server_compute_ms", "ms", Lower, 0.0),
    def("pi.session.report_online_ms", "ms", Lower, 0.0),
    def("pi.session.online_ms_p90", "ms", Lower, 0.0),
    def("pi.session.batch2_cost_ratio", "ratio", Lower, 0.0),
    def("pi.pool.deal_ms_per_set", "ms", Lower, 0.0),
    def("pi.pool.take_us", "us", Lower, 0.0),
    def("pi.pool.client_deal_ms", "ms", Lower, 0.0),
    def("pi.pool.inline_deals", "count", Lower, 0.0),
    def("pi.shard.try_take_us", "us", Lower, 0.0),
    def("pi.shard.steals_per_inf", "ratio", Lower, 0.0),
    def("pi.store.append_us_per_set", "us", Lower, 0.0),
    def("pi.store.bytes_per_set", "B", Lower, 0.0),
    def("pi.store.flush_ms", "ms", Lower, 0.0),
    def("pi.store.replay_ms_per_set", "ms", Lower, 0.0),
    def("pi.calibrate.default_residual", "ratio", Lower, 0.0),
    def("pi.calibrate.measured_residual", "ratio", Lower, 0.0),
    def("core.session.reveal_suffix_ms", "ms", Lower, 0.0),
    def("core.reactor.service_ms_mean", "ms", Lower, 0.0),
    def("core.reactor.envelope_ms", "ms", Lower, 0.0),
    def("core.reactor.request_ms_p90", "ms", Lower, 0.0),
    def("core.reactor.busy_share", "ratio", Lower, 0.0),
    def("core.reactor.coalesced_share", "ratio", Higher, 0.0),
    def("core.reactor.batch_size_mean", "ratio", Higher, 0.0),
    def("core.reactor.flush_window_share", "ratio", Lower, 0.0),
    def("core.reactor.wakeups_per_inf", "ratio", Lower, 0.0),
    def("core.reactor.events_per_wakeup", "ratio", Higher, 0.0),
    def("core.reactor.stats_ms", "ms", Lower, 0.0),
    def("trace_overhead_pct", "%", Lower, 0.0),
];

/// One measured value.
#[derive(Debug, Clone)]
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    note: String,
}

/// The values one run measured plus its operation tally.
#[derive(Debug, Default)]
pub struct Report {
    rows: Vec<Row>,
    /// Operations attempted: inferences checked plus invariants checked.
    pub attempted: u64,
    /// Operations that failed: errors, wrong outputs, violated invariants.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records `name` (which must be catalogued in `defs`), measured
    /// over `samples` samples.
    pub fn set(&mut self, defs: &[MetricDef], name: &str, value: f64, samples: usize) {
        self.set_noted(defs, name, value, samples, String::new());
    }

    /// [`Report::set`] with a remark for the human-readable line.
    pub fn set_noted(
        &mut self,
        defs: &[MetricDef],
        name: &str,
        value: f64,
        samples: usize,
        note: String,
    ) {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(self.value(name).is_none(), "metric {name:?} recorded twice");
        self.rows.push(Row { name: def.name, unit: def.unit, value, samples, note });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Counts one checked operation; a failure keeps its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Fills every metric of `defs` not recorded yet with 0 (a layer
    /// this workload bypasses) and orders the rows as the catalogue.
    pub fn complete(&mut self, defs: &[MetricDef]) {
        let mut rows = Vec::with_capacity(defs.len());
        for def in defs {
            rows.push(self.rows.iter().find(|r| r.name == def.name).cloned().unwrap_or(Row {
                name: def.name,
                unit: def.unit,
                value: 0.0,
                samples: 0,
                note: "not on this workload's path".to_string(),
            }));
        }
        self.rows = rows;
    }

    /// Human-readable lines: every metric by name with unit and sample
    /// count, then the failures.
    pub fn print_lines(&self) {
        for r in &self.rows {
            let note = if r.note.is_empty() { String::new() } else { format!("  # {}", r.note) };
            println!("{:<38} {:>16.4} {:<6} n={}{note}", r.name, r.value, r.unit, r.samples);
        }
        for p in &self.problems {
            println!("FAILED: {p}");
        }
    }

    /// The result object the driver reads from the last output line.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.rows.iter().map(|r| {
                    (
                        r.name,
                        Json::obj([
                            ("value", Json::Num(r.value)),
                            ("unit", Json::Str(r.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `(name, unit, better, bound)` rows of one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, f64)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                (field("name"), field("unit"), field("better"), bound)
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |defs: &[MetricDef]| -> Vec<(String, String, String, f64)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into(), d.bound))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn report_completes_counts_and_renders() {
        let mut r = Report::default();
        r.set(END_TO_END, "setup_s", 0.25, 3);
        r.check(true, || unreachable!());
        r.check(false, || "logit off".into());
        r.complete(END_TO_END);
        assert_eq!(r.value("online_ms_p50"), Some(0.0));
        assert!(!r.correct());
        let line = r.result_line().render();
        let back = json::parse(&line).unwrap();
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(back.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(false));
        let metrics = back.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].0, "setup_s");
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));
    }
}
