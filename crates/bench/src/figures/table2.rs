//! Table II — end-to-end performance: full PI vs C2PI at σ = 0.2 / 0.3
//! boundaries, for Delphi- and Cheetah-style engines, on VGG-16 and
//! VGG-19 under the LAN and WAN network models.

use crate::setup::{dataset, trained_model, untrained_model, DatasetKind};
use crate::Scale;
use c2pi_core::session::{C2pi, C2piSession};
use c2pi_core::Defense;
use c2pi_nn::BoundaryId;
use c2pi_pi::engine::PiBackend;
use c2pi_tensor::Tensor;
use c2pi_transport::NetModel;

/// Cost triple for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Latency under the LAN model, seconds.
    pub lan_s: f64,
    /// Latency under the WAN model, seconds.
    pub wan_s: f64,
    /// Communication, megabytes.
    pub comm_mb: f64,
}

impl Cost {
    fn from_report(report: &c2pi_pi::report::PiReport) -> Self {
        Cost {
            lan_s: report.latency_seconds(&NetModel::lan()),
            wan_s: report.latency_seconds(&NetModel::wan()),
            comm_mb: report.comm_mb(),
        }
    }

    /// Speedup of `self` relative to a baseline cost.
    pub fn speedup_over(&self, base: &Cost) -> (f64, f64, f64) {
        (base.lan_s / self.lan_s, base.wan_s / self.wan_s, base.comm_mb / self.comm_mb)
    }
}

/// One table row: a (network, method) pair with its three variants.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model name.
    pub network: &'static str,
    /// PI method name.
    pub method: &'static str,
    /// Full-PI baseline.
    pub full: Cost,
    /// C2PI with the σ = 0.2 boundary.
    pub c2pi_02: Cost,
    /// C2PI with the σ = 0.3 boundary.
    pub c2pi_03: Cost,
}

/// The boundaries Table II uses, from the paper's Table I (conv-id
/// granularity; callers can override with measured boundaries from the
/// table1 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundaries {
    /// σ = 0.2 boundary.
    pub sigma02: BoundaryId,
    /// σ = 0.3 boundary.
    pub sigma03: BoundaryId,
}

/// The paper's Table I boundaries for CIFAR-10.
pub fn paper_boundaries(network: &str) -> Boundaries {
    match network {
        // VGG16: 13.5 (σ=0.2) and 9 (σ=0.3); VGG19: 11 and 9.
        "vgg16" => Boundaries { sigma02: BoundaryId::relu(13), sigma03: BoundaryId::conv(9) },
        _ => Boundaries { sigma02: BoundaryId::conv(11), sigma03: BoundaryId::conv(9) },
    }
}

/// The deployment one cell of the table measures: full PI, or C2PI
/// split at `boundary`.
fn session(
    model: &c2pi_nn::Model,
    backend: PiBackend,
    boundary: Option<BoundaryId>,
) -> C2piSession {
    let builder = C2pi::builder(model.clone())
        .backend(backend)
        .defense(Defense::Uniform { magnitude: 0.1 })
        .noise_seed(87);
    let builder = match boundary {
        Some(b) => builder.split_at(b),
        None => builder.full_pi(),
    };
    builder.build().expect("valid boundary")
}

fn run_cost(
    model: &c2pi_nn::Model,
    backend: PiBackend,
    boundary: Option<BoundaryId>,
    x: &Tensor,
) -> Cost {
    let mut session = session(model, backend, boundary);
    session.preprocess(2).expect("preprocessing runs");
    // Two runs, keep the faster: damps wall-clock noise from a loaded
    // machine (traffic is identical across runs by construction).
    let a = Cost::from_report(&session.infer(x).expect("inference runs").report);
    let b = Cost::from_report(&session.infer(x).expect("inference runs").report);
    Cost {
        lan_s: a.lan_s.min(b.lan_s),
        wan_s: a.wan_s.min(b.wan_s),
        comm_mb: a.comm_mb.min(b.comm_mb),
    }
}

/// Runs the performance comparison (CIFAR-10 analogue, as in the paper).
pub fn run(scale: &Scale) -> Vec<Row> {
    let data = dataset(DatasetKind::Cifar10, scale);
    let x = data.images()[0].clone();
    let mut rows = Vec::new();
    for network in ["vgg16", "vgg19"] {
        let model = trained_model(network, DatasetKind::Cifar10, scale, &data.take(16));
        let bounds = paper_boundaries(network);
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let full = run_cost(&model, backend, None, &x);
            let c2pi_02 = run_cost(&model, backend, Some(bounds.sigma02), &x);
            let c2pi_03 = run_cost(&model, backend, Some(bounds.sigma03), &x);
            rows.push(Row {
                network: if network == "vgg16" { "VGG16" } else { "VGG19" },
                method: backend.name(),
                full,
                c2pi_02,
                c2pi_03,
            });
        }
    }
    rows
}

/// Prints the table in the paper's layout, with speedups.
pub fn print(rows: &[Row]) {
    println!(
        "{:<7} {:<8} | {:>30} | {:>38} | {:>38}",
        "Network",
        "Method",
        "Full PI (LAN s / WAN s / MB)",
        "C2PI σ=0.2 (speedups)",
        "C2PI σ=0.3 (speedups)"
    );
    println!("{}", "-".repeat(132));
    for r in rows {
        let (l2, w2, m2) = r.c2pi_02.speedup_over(&r.full);
        let (l3, w3, m3) = r.c2pi_03.speedup_over(&r.full);
        println!(
            "{:<7} {:<8} | {:>8.2} / {:>8.2} / {:>8.2} | {:>6.2} ({:>4.2}x) {:>6.2} ({:>4.2}x) {:>6.1} ({:>4.2}x) | {:>6.2} ({:>4.2}x) {:>6.2} ({:>4.2}x) {:>6.1} ({:>4.2}x)",
            r.network,
            r.method,
            r.full.lan_s,
            r.full.wan_s,
            r.full.comm_mb,
            r.c2pi_02.lan_s,
            l2,
            r.c2pi_02.wan_s,
            w2,
            r.c2pi_02.comm_mb,
            m2,
            r.c2pi_03.lan_s,
            l3,
            r.c2pi_03.wan_s,
            w3,
            r.c2pi_03.comm_mb,
            m3,
        );
    }
    println!();
    println!("Shape targets (paper): C2PI σ=0.3 beats full PI by up to ~2.9-3.9x latency");
    println!("and ~2.5-2.75x communication; σ=0.2 on VGG16 is ~1x (boundary is very late).");
}

/// The exact part of one table cell: communication (online plus the
/// modelled offline traffic, the paper's `Commu. (MB)`) and online
/// flights. Neither depends on weights, inputs or the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    /// Communication, megabytes.
    pub comm_mb: f64,
    /// Online flights (direction changes on the channel).
    pub flights: u64,
}

/// One row of the exact part of the table.
#[derive(Debug, Clone)]
pub struct CommRow {
    /// Model name.
    pub network: &'static str,
    /// PI method name.
    pub method: &'static str,
    /// Full-PI baseline.
    pub full: Traffic,
    /// C2PI with the σ = 0.2 boundary.
    pub c2pi_02: Traffic,
    /// C2PI with the σ = 0.3 boundary.
    pub c2pi_03: Traffic,
}

/// The table's traffic columns, on the untrained models [`run`] would
/// train (no byte or flight depends on a weight), so the rows need no
/// training and come out the same on every run and machine.
pub fn comm_rows(scale: &Scale) -> Vec<CommRow> {
    let data = dataset(DatasetKind::Cifar10, scale);
    let x = &data.images()[0];
    let mut rows = Vec::new();
    for network in ["vgg16", "vgg19"] {
        let model = untrained_model(network, scale, &data);
        let bounds = paper_boundaries(network);
        let traffic = |backend, boundary| {
            let mut session = session(&model, backend, boundary);
            let report = session.infer(x).expect("inference runs").report;
            Traffic { comm_mb: report.comm_mb(), flights: report.online.flights }
        };
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            rows.push(CommRow {
                network: if network == "vgg16" { "VGG16" } else { "VGG19" },
                method: backend.name(),
                full: traffic(backend, None),
                c2pi_02: traffic(backend, Some(bounds.sigma02)),
                c2pi_03: traffic(backend, Some(bounds.sigma03)),
            });
        }
    }
    rows
}

/// Prints the traffic rows, with full ÷ split communication per
/// boundary.
pub fn print_comm(rows: &[CommRow]) {
    println!(
        "{:<7} {:<8} | {:>20} | {:>30} | {:>30}",
        "Network",
        "Method",
        "Full PI (MB / fl)",
        "C2PI σ=0.2 (MB / fl, full÷)",
        "C2PI σ=0.3 (MB / fl, full÷)"
    );
    for r in rows {
        let cell = |t: &Traffic| format!("{:.6} / {}", t.comm_mb, t.flights);
        let ratio = |t: &Traffic| r.full.comm_mb / t.comm_mb;
        println!(
            "{:<7} {:<8} | {:>20} | {:>21} {:>7.3}x | {:>21} {:>7.3}x",
            r.network,
            r.method,
            cell(&r.full),
            cell(&r.c2pi_02),
            ratio(&r.c2pi_02),
            cell(&r.c2pi_03),
            ratio(&r.c2pi_03),
        );
    }
}
