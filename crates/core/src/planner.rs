//! Attack-calibrated deployment planning: choose *where to cut* before
//! traffic arrives.
//!
//! C2PI's central claim is that the crypto-clear boundary can be
//! **chosen** — pushed as early as the inference-data-privacy attacks
//! allow — trading crypto cost for clear-text speed. This module
//! composes the workspace's parts into that decision:
//!
//! 1. **privacy audit** — every candidate boundary is probed with a
//!    configurable IDPA panel ([`c2pi_attacks::probe::ProbeSpec`]: MLA,
//!    INA, EINA, DINA at chosen budgets), sweeping tail-to-head with
//!    Algorithm 1's early exit per probe. A boundary is *private* only
//!    when every probe's recovery stays below the SSIM threshold there;
//! 2. **accuracy gate** — the configured [`Defense`] is applied at each
//!    private boundary (same labels, same [`defense_seed`] stream as
//!    the serving session will use) and the boundary passes when the
//!    accuracy drop stays within budget;
//! 3. **cost sweep** — each allowed boundary × backend
//!    (Delphi/Cheetah) is compiled into a real session and run once on
//!    the configured transport, so online/offline traffic and flights
//!    are *measured, exact and deterministic*; compute seconds are
//!    priced by the calibrated [`OnlineCostModel`] /
//!    [`c2pi_pi::cost::OfflineCostModel`] coefficients and converted to
//!    end-to-end latency under each [`NetModel`] (mem/LAN/WAN);
//! 4. **ranking** — the result is a serializable [`DeploymentPlan`]
//!    whose [`PlanChoice`] rows plug straight back into
//!    [`C2pi::builder`](crate::session::C2piBuilder::plan) and
//!    [`DeploymentPlan::reactor_config`].
//!
//! The default cost coefficients are fixed constants, so the whole plan
//! — including its rendered table ([`DeploymentPlan::render_table`]) —
//! is byte-identical across runs and machines; swap in
//! [`c2pi_pi::calibrate::Calibrator`] measurements when local accuracy
//! matters more than reproducibility (`plan_report --calibrate`).
//!
//! ```no_run
//! use c2pi_core::planner::{DeploymentPlanner, PlannerConfig};
//! use c2pi_core::session::C2pi;
//! use c2pi_data::synth::{SynthConfig, SynthDataset};
//! use c2pi_nn::model::{alexnet, ZooConfig};
//!
//! # fn main() -> Result<(), c2pi_core::C2piError> {
//! let mut model = alexnet(&ZooConfig::default())?;
//! let data = SynthDataset::generate(&SynthConfig::default()).into_dataset();
//! let (train, eval) = data.split(0.7, 3)?;
//! let mut planner = DeploymentPlanner::new(&mut model, &train, &eval, PlannerConfig::default());
//! let plan = planner.plan()?;
//! println!("{}", plan.render_table());
//! let best = plan.best().expect("at least one allowed deployment");
//! let session = C2pi::builder(model).plan(best).build()?; // serve this
//! # drop(session);
//! # Ok(())
//! # }
//! ```

use crate::defense::{baseline_accuracy, check_defense, defended_accuracy, defense_seed, Defense};
use crate::{C2piError, Result};
use c2pi_attacks::eval::{avg_ssim_with, EvalConfig};
use c2pi_attacks::probe::{quick_panel, ProbeSpec};
use c2pi_attacks::Idpa;
use c2pi_data::Dataset;
use c2pi_nn::{BoundaryId, Model};
use c2pi_pi::calibrate::OnlineCostModel;
use c2pi_pi::PiBackend;
use c2pi_tensor::Tensor;
use c2pi_transport::{NetModel, Transport};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Planner parameters: what to sweep and what to gate on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Candidate boundaries; empty means the post-ReLU cut of every
    /// convolution (the paper's candidate set).
    pub candidates: Vec<BoundaryId>,
    /// Backends to price at each allowed boundary.
    pub backends: Vec<PiBackend>,
    /// Network settings to rank under (the first is the primary: the
    /// plan's overall best is its cheapest deployment).
    pub nets: Vec<NetModel>,
    /// IDPA probe panel gating privacy. Empty skips the privacy audit
    /// (every candidate is treated as private — cost-only planning).
    pub probes: Vec<ProbeSpec>,
    /// Boundary defense, applied with the same label and seed stream
    /// the serving session will use.
    pub defense: Defense,
    /// SSIM failure threshold `σ` (a probe *succeeds* at a boundary
    /// when its average recovery SSIM reaches this).
    pub ssim_threshold: f32,
    /// Maximum tolerated accuracy drop `δ` relative to baseline.
    pub max_accuracy_drop: f32,
    /// Images per probe/accuracy evaluation.
    pub eval_images: usize,
    /// Master seed: defense draws, probe observations and the cost
    /// sweep's probe input all derive from it.
    pub seed: u64,
    /// Online-cost coefficient overrides per backend (e.g. from
    /// [`c2pi_pi::calibrate::Calibrator::measure`]); backends not
    /// listed use [`OnlineCostModel::for_backend`] defaults.
    pub costs: Vec<(PiBackend, OnlineCostModel)>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            candidates: Vec::new(),
            backends: vec![PiBackend::Cheetah, PiBackend::Delphi],
            nets: vec![NetModel::mem(), NetModel::lan(), NetModel::wan()],
            probes: quick_panel(),
            defense: Defense::Uniform { magnitude: 0.1 },
            ssim_threshold: 0.3,
            max_accuracy_drop: 0.025,
            eval_images: 4,
            seed: 47,
            costs: Vec::new(),
        }
    }
}

/// One probe's verdict at one boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeSsim {
    /// Probe label (`family:budget`).
    pub probe: String,
    /// Average recovery SSIM the probe achieved there.
    pub avg_ssim: f32,
}

/// The privacy/accuracy audit of one candidate boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundaryAudit {
    /// The candidate.
    pub boundary: BoundaryId,
    /// Probes that evaluated this boundary (tail-to-head sweeps stop
    /// early, so head-side candidates may carry fewer entries).
    pub probes: Vec<ProbeSsim>,
    /// Worst (highest) recovery SSIM observed here, `0.0` if no probe
    /// reached this boundary.
    pub worst_ssim: f32,
    /// Whether every probe fails at this boundary (per Algorithm 1's
    /// combined verdict: the earliest boundary all probes clear).
    pub private: bool,
    /// Defended accuracy, measured only for private boundaries.
    pub defended_accuracy: Option<f32>,
    /// Whether the accuracy drop stays within budget (only for private
    /// boundaries).
    pub accuracy_ok: Option<bool>,
}

/// Measured protocol cost of one (boundary, backend) deployment —
/// network-independent raw material.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostRow {
    /// The boundary.
    pub boundary: BoundaryId,
    /// The backend.
    pub backend: PiBackend,
    /// Crypto-prefix step count.
    pub crypto_layers: usize,
    /// Clear-suffix layer count.
    pub clear_layers: usize,
    /// Exact online bytes measured on the channel (reveal included).
    pub online_bytes: u64,
    /// Exact online flights measured on the channel.
    pub online_flights: u64,
    /// Modelled offline (HE / correlation-setup) bytes.
    pub offline_bytes: u64,
    /// Modelled offline flights.
    pub offline_flights: u64,
    /// Online compute seconds from the calibrated coefficients.
    pub online_compute_seconds: f64,
    /// Offline compute seconds from the offline cost model.
    pub offline_compute_seconds: f64,
    /// Bytes the dealer actually ships per inference under
    /// seed-compressed dealing (the compact `DealtSeed` artifact).
    pub dealt_bytes: u64,
    /// Bytes of correlated material each party expands locally from the
    /// dealt seed — what classic expanded dealing would have shipped.
    pub expanded_bytes: u64,
    /// Each non-linear step's `(bound, bits)`: the bits its inputs
    /// occupy over the input domain and the width it runs at.
    pub unit_widths: Vec<(u32, u32)>,
}

/// One ranked deployment: a boundary, backend and defense priced under
/// one network setting. Plugs into
/// [`C2piBuilder::plan`](crate::session::C2piBuilder::plan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanChoice {
    /// 1-based rank within this network setting.
    pub rank: usize,
    /// Network setting name (`mem`, `lan`, `wan`, …).
    pub net: String,
    /// Protocol backend.
    pub backend: PiBackend,
    /// Crypto-clear boundary.
    pub boundary: BoundaryId,
    /// Boundary defense (label-identical to what the session applies).
    pub defense: Defense,
    /// Master seed for the serving session's defense draws.
    pub defense_seed: u64,
    /// Defended accuracy at this boundary.
    pub defended_accuracy: f32,
    /// Worst probe SSIM at this boundary.
    pub worst_ssim: f32,
    /// Whether this boundary passed both the privacy audit and the
    /// accuracy gate. `false` only for the degenerate fallback (no
    /// candidate satisfied the gates; this row is the least-bad
    /// option) — check it before deploying.
    pub gates_passed: bool,
    /// Online latency under this network (compute + traffic).
    pub online_seconds: f64,
    /// Offline latency under this network (compute + traffic).
    pub offline_seconds: f64,
    /// End-to-end latency (offline + online).
    pub total_seconds: f64,
    /// Total communication in MB (online + offline).
    pub comm_mb: f64,
}

/// The planner's output: audits, measured costs and the ranked
/// deployments, plus the gating parameters for provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentPlan {
    /// Model name the plan was computed for.
    pub model: String,
    /// Noise-free baseline accuracy on the evaluation set.
    pub baseline_accuracy: f32,
    /// The defense the audit assumed (and serving should apply).
    pub defense: Defense,
    /// Master seed (defense draws + probe observations).
    pub seed: u64,
    /// SSIM failure threshold used by the audit.
    pub ssim_threshold: f32,
    /// Accuracy-drop budget used by the gate.
    pub max_accuracy_drop: f32,
    /// Labels of the probes that ran.
    pub probe_labels: Vec<String>,
    /// Per-candidate audit rows, head-to-tail.
    pub audits: Vec<BoundaryAudit>,
    /// Measured cost rows for every allowed boundary × backend.
    pub costs: Vec<CostRow>,
    /// Ranked deployments, grouped by network setting in configuration
    /// order, cheapest first within each group.
    pub ranked: Vec<PlanChoice>,
}

impl DeploymentPlan {
    /// The overall best deployment: rank 1 under the primary (first
    /// configured) network setting. When no candidate satisfied both
    /// gates this is the degenerate fallback — check
    /// [`PlanChoice::gates_passed`] before deploying.
    pub fn best(&self) -> Option<&PlanChoice> {
        self.ranked.first()
    }

    /// The best deployment under the named network setting.
    pub fn best_for(&self, net: &str) -> Option<&PlanChoice> {
        self.ranked.iter().find(|c| c.net == net)
    }

    /// A [`ReactorConfig`](crate::reactor::ReactorConfig) sized from
    /// the plan's best deployment: the replenishers must outpace
    /// consumption, so the pool watermarks scale with the
    /// offline/online compute ratio (an offline phase `r`× slower than
    /// online needs ≈ `r` material sets buffered per worker to absorb a
    /// sustained burst). The watermarks are **per shard** (one shard
    /// and one replenisher per worker), and the suggested `BUSY`
    /// retry-after is priced at one offline material-generation
    /// interval — the soonest a retrying client can expect fresh stock.
    /// Cross-client batching stays off (`max_batch` 1, no window): on
    /// the heavy Delphi workload coalesced serving measured 0.80× the
    /// throughput of serving each request alone, at higher latency.
    pub fn reactor_config(&self, workers: usize) -> crate::reactor::ReactorConfig {
        let defaults = crate::reactor::ReactorConfig::default();
        let workers = workers.max(1);
        let Some(best) = self.best() else {
            return crate::reactor::ReactorConfig { workers, ..defaults };
        };
        let row =
            self.costs.iter().find(|r| r.boundary == best.boundary && r.backend == best.backend);
        let ratio = row
            .map(|r| (r.offline_compute_seconds / r.online_compute_seconds.max(1e-9)).ceil())
            .unwrap_or(1.0)
            .clamp(1.0, 64.0) as usize;
        // Per-shard watermarks: each worker homes on its own shard, so
        // a shard buffers the burst absorption for one worker.
        let pool_low = ratio.max(1);
        let retry_after = row
            .map(|r| Duration::from_secs_f64(r.offline_compute_seconds.clamp(0.005, 5.0)))
            .unwrap_or(defaults.retry_after);
        crate::reactor::ReactorConfig {
            workers,
            pool_low,
            pool_high: pool_low * 2,
            retry_after,
            ..defaults
        }
    }

    /// Renders the paper-style boundary/cost/privacy table. The output
    /// is deterministic: fixed-precision floats over measured traffic
    /// and constant-coefficient estimates (see the module docs).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== C2PI deployment plan: {} ==", self.model);
        let _ = writeln!(
            out,
            "defense {} (seed {}) | sigma {:.2} | max accuracy drop {:.1}% | baseline {:.1}%",
            self.defense.label(),
            self.seed,
            self.ssim_threshold,
            self.max_accuracy_drop * 100.0,
            self.baseline_accuracy * 100.0,
        );
        let _ = writeln!(
            out,
            "probes: {}",
            if self.probe_labels.is_empty() {
                "(none: cost-only planning)".to_string()
            } else {
                self.probe_labels.join(", ")
            }
        );
        let _ = writeln!(out, "\nprivacy / accuracy audit (head to tail):");
        let _ = writeln!(
            out,
            "  {:>8}  {:>10}  {:>7}  {:>12}  {:>3}",
            "boundary", "worst-ssim", "private", "defended-acc", "ok"
        );
        for a in &self.audits {
            let acc = match a.defended_accuracy {
                Some(v) => format!("{:.1}%", v * 100.0),
                None => "-".to_string(),
            };
            let ok = match a.accuracy_ok {
                Some(true) => "yes",
                Some(false) => "no",
                None => "-",
            };
            let _ = writeln!(
                out,
                "  {:>8}  {:>10.3}  {:>7}  {:>12}  {:>3}",
                a.boundary.to_string(),
                a.worst_ssim,
                if a.private { "yes" } else { "no" },
                acc,
                ok,
            );
        }
        let _ = writeln!(out, "\nmeasured deployments (allowed boundaries x backends):");
        let _ = writeln!(
            out,
            "  {:>8}  {:>8}  {:>6}  {:>10}  {:>10}  {:>8}  {:>8}  {:>9}",
            "boundary",
            "backend",
            "layers",
            "online-MB",
            "offln-MB",
            "flights",
            "dealt-B",
            "expand-MB"
        );
        for r in &self.costs {
            let _ = writeln!(
                out,
                "  {:>8}  {:>8}  {:>3}/{:<2}  {:>10.3}  {:>10.3}  {:>8}  {:>8}  {:>9.3}",
                r.boundary.to_string(),
                r.backend.name(),
                r.crypto_layers,
                r.clear_layers,
                r.online_bytes as f64 / 1e6,
                r.offline_bytes as f64 / 1e6,
                r.online_flights,
                r.dealt_bytes,
                r.expanded_bytes as f64 / 1e6,
            );
        }
        // Widths are the plan's, the same under either backend: one row
        // per boundary, `bound/bits` per non-linear step.
        let _ = writeln!(out, "\nnon-linear steps (input bound / width, bits):");
        let _ = writeln!(out, "  {:>8}  steps", "boundary");
        let mut shown = Vec::new();
        for r in &self.costs {
            if shown.contains(&r.boundary) {
                continue;
            }
            shown.push(r.boundary);
            let steps: Vec<String> =
                r.unit_widths.iter().map(|(b, w)| format!("{b}/{w}")).collect();
            let _ = writeln!(out, "  {:>8}  {}", r.boundary.to_string(), steps.join(" "));
        }
        let _ = writeln!(out, "\nranked deployments (cheapest first per net):");
        let _ = writeln!(
            out,
            "  {:>4}  {:>4}  {:>8}  {:>8}  {:>11}  {:>11}  {:>11}  {:>9}  {:>5}",
            "rank",
            "net",
            "backend",
            "boundary",
            "online(s)",
            "offline(s)",
            "total(s)",
            "comm(MB)",
            "gates"
        );
        for c in &self.ranked {
            let _ = writeln!(
                out,
                "  {:>4}  {:>4}  {:>8}  {:>8}  {:>11.4}  {:>11.4}  {:>11.4}  {:>9.3}  {:>5}",
                c.rank,
                c.net,
                c.backend.name(),
                c.boundary.to_string(),
                c.online_seconds,
                c.offline_seconds,
                c.total_seconds,
                c.comm_mb,
                if c.gates_passed { "ok" } else { "FAIL" },
            );
        }
        out
    }

    /// Serializes the plan to a deterministic JSON document (the
    /// workspace's serde is an offline facade, so serialization is
    /// hand-rolled like the bench harness's).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"model\": \"{}\",", self.model);
        let _ = writeln!(s, "  \"baseline_accuracy\": {:.6},", self.baseline_accuracy);
        let _ = writeln!(s, "  \"defense\": \"{}\",", self.defense.label());
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"ssim_threshold\": {:.6},", self.ssim_threshold);
        let _ = writeln!(s, "  \"max_accuracy_drop\": {:.6},", self.max_accuracy_drop);
        let probes: Vec<String> = self.probe_labels.iter().map(|p| format!("\"{p}\"")).collect();
        let _ = writeln!(s, "  \"probes\": [{}],", probes.join(", "));
        let _ = writeln!(s, "  \"audits\": [");
        for (i, a) in self.audits.iter().enumerate() {
            let acc = a.defended_accuracy.map_or("null".to_string(), |v| format!("{v:.6}"));
            let ok = a.accuracy_ok.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                s,
                "    {{\"boundary\": \"{}\", \"worst_ssim\": {:.6}, \"private\": {}, \"defended_accuracy\": {}, \"accuracy_ok\": {}}}{}",
                a.boundary, a.worst_ssim, a.private, acc, ok,
                if i + 1 < self.audits.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"costs\": [");
        for (i, r) in self.costs.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"boundary\": \"{}\", \"backend\": \"{}\", \"crypto_layers\": {}, \"clear_layers\": {}, \"online_bytes\": {}, \"online_flights\": {}, \"offline_bytes\": {}, \"offline_flights\": {}, \"online_compute_seconds\": {:.9}, \"offline_compute_seconds\": {:.9}, \"dealt_bytes\": {}, \"expanded_bytes\": {}, \"unit_widths\": [{}]}}{}",
                r.boundary, r.backend.name(), r.crypto_layers, r.clear_layers, r.online_bytes,
                r.online_flights, r.offline_bytes, r.offline_flights, r.online_compute_seconds,
                r.offline_compute_seconds, r.dealt_bytes, r.expanded_bytes,
                r.unit_widths.iter().map(|(b, w)| format!("[{b}, {w}]")).collect::<Vec<_>>().join(", "),
                if i + 1 < self.costs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"ranked\": [");
        for (i, c) in self.ranked.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"rank\": {}, \"net\": \"{}\", \"backend\": \"{}\", \"boundary\": \"{}\", \"defense\": \"{}\", \"defense_seed\": {}, \"defended_accuracy\": {:.6}, \"gates_passed\": {}, \"online_seconds\": {:.9}, \"offline_seconds\": {:.9}, \"total_seconds\": {:.9}, \"comm_mb\": {:.6}}}{}",
                c.rank, c.net, c.backend.name(), c.boundary, c.defense.label(), c.defense_seed,
                c.defended_accuracy, c.gates_passed, c.online_seconds, c.offline_seconds,
                c.total_seconds, c.comm_mb,
                if i + 1 < self.ranked.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ]");
        s.push('}');
        s
    }
}

/// One phase-1 probe of Algorithm 1: the attack's average SSIM at a
/// candidate boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsimProbe {
    /// Candidate boundary.
    pub id: BoundaryId,
    /// Average SSIM the IDPA achieved there.
    pub avg_ssim: f32,
}

/// Sweeps one probe tail-to-head with Algorithm 1's early exit, behind
/// `gate.defense` drawn from the [`defense_seed`] stream of `gate.seed`
/// (the serving session's stream, not [`c2pi_attacks::eval::avg_ssim_at`]'s).
/// Returns the SSIM probes taken (in probe order) and the index of the
/// first candidate this probe clears — `None` when the probe succeeds
/// even at the tail, i.e. *no* candidate is safe against it.
pub(crate) fn probe_one(
    model: &mut Model,
    attack: &mut dyn Idpa,
    attacker_data: &Dataset,
    eval_data: &Dataset,
    candidates: &[BoundaryId],
    gate: &EvalConfig,
) -> Result<(Vec<SsimProbe>, Option<usize>)> {
    let mut probes = Vec::new();
    let mut idx = candidates.len();
    let mut last_success: Option<usize> = None;
    while idx > 0 {
        idx -= 1;
        let id = candidates[idx];
        attack.prepare(model, id, attacker_data, gate.defense)?;
        let s = avg_ssim_with(attack, model, id, eval_data, gate.eval_images, &|act, i| {
            gate.defense.apply(act, defense_seed(gate.seed, i))
        })
        .map_err(C2piError::Attack)?;
        probes.push(SsimProbe { id, avg_ssim: s });
        if s >= gate.ssim_threshold {
            last_success = Some(idx);
            break;
        }
    }
    let first_safe = match last_success {
        Some(i) if i + 1 < candidates.len() => Some(i + 1),
        Some(_) => None, // succeeds even at the tail: nothing is safe
        None => Some(0),
    };
    Ok((probes, first_safe))
}

/// The planner: sweeps, audits, prices and ranks deployments of one
/// model. See the [module docs](crate::planner) for the full pipeline.
pub struct DeploymentPlanner<'a> {
    model: &'a mut Model,
    attacker_data: &'a Dataset,
    eval_data: &'a Dataset,
    cfg: PlannerConfig,
    transport: Option<Arc<dyn Transport>>,
}

impl<'a> DeploymentPlanner<'a> {
    /// Creates a planner. `attacker_data` trains the probes (the
    /// server's own data); `eval_data` measures recovery SSIM and
    /// accuracy.
    pub fn new(
        model: &'a mut Model,
        attacker_data: &'a Dataset,
        eval_data: &'a Dataset,
        cfg: PlannerConfig,
    ) -> Self {
        DeploymentPlanner { model, attacker_data, eval_data, cfg, transport: None }
    }

    /// Runs the cost sweep over this transport instead of the in-memory
    /// default. Traffic is transcript-determined, so the chosen
    /// boundary is transport-independent (pinned by a regression test).
    pub fn with_transport<T: Transport + 'static>(mut self, transport: T) -> Self {
        self.transport = Some(Arc::new(transport));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    fn online_model(&self, backend: PiBackend) -> OnlineCostModel {
        self.cfg
            .costs
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|(_, m)| *m)
            .unwrap_or_else(|| OnlineCostModel::for_backend(backend))
    }

    /// Runs the full pipeline: privacy audit → accuracy gate → cost
    /// sweep → ranking.
    ///
    /// # Errors
    ///
    /// Returns an error for models without candidates, empty datasets,
    /// failing probes, or crypto prefixes the engine cannot execute.
    pub fn plan(&mut self) -> Result<DeploymentPlan> {
        let candidates: Vec<BoundaryId> = if self.cfg.candidates.is_empty() {
            (1..=self.model.num_convs()).map(BoundaryId::relu).collect()
        } else {
            self.cfg.candidates.clone()
        };
        if candidates.is_empty() {
            return Err(C2piError::NoBoundary("model has no candidate boundaries".into()));
        }
        if self.cfg.backends.is_empty() || self.cfg.nets.is_empty() {
            return Err(C2piError::BadConfig("planner needs >= 1 backend and net".into()));
        }
        // Fail fast, before minutes of probe training: the cost sweep
        // compiles serving sessions, which refuse the same defense.
        check_defense(self.cfg.defense)?;

        // ---- 1. privacy audit: every probe sweeps tail-to-head. ----
        let mut per_candidate: Vec<Vec<ProbeSsim>> = vec![Vec::new(); candidates.len()];
        let mut first_safe = 0usize;
        // Set when some probe succeeds even at the tail: then *no*
        // candidate is private, however late — the audit failed and the
        // plan may only fall back, never claim privacy.
        let mut nothing_safe = false;
        let gate = EvalConfig {
            defense: self.cfg.defense,
            ssim_threshold: self.cfg.ssim_threshold,
            eval_images: self.cfg.eval_images,
            seed: self.cfg.seed,
        };
        for spec in &self.cfg.probes {
            let mut attack = spec.build();
            let (probes, safe) = probe_one(
                self.model,
                attack.as_mut(),
                self.attacker_data,
                self.eval_data,
                &candidates,
                &gate,
            )?;
            for p in probes {
                let idx = candidates.iter().position(|c| *c == p.id).expect("probed candidate");
                per_candidate[idx].push(ProbeSsim { probe: spec.label(), avg_ssim: p.avg_ssim });
            }
            match safe {
                Some(s) => first_safe = first_safe.max(s),
                None => nothing_safe = true,
            }
        }

        // ---- 2. accuracy gate over the private region. ----
        let baseline = baseline_accuracy(self.model, self.eval_data)?;
        let target = baseline - self.cfg.max_accuracy_drop;
        let mut audits = Vec::with_capacity(candidates.len());
        let mut allowed: Vec<(usize, f32)> = Vec::new();
        for (idx, &boundary) in candidates.iter().enumerate() {
            let probes = per_candidate[idx].clone();
            let worst = probes.iter().map(|p| p.avg_ssim).fold(0.0f32, f32::max);
            let private = !nothing_safe && idx >= first_safe;
            let (acc, ok) = if private {
                let acc = defended_accuracy(
                    self.model,
                    boundary,
                    self.cfg.defense,
                    self.eval_data,
                    self.cfg.seed,
                )?;
                (Some(acc), Some(acc >= target))
            } else {
                (None, None)
            };
            if let (Some(a), Some(true)) = (acc, ok) {
                allowed.push((idx, a));
            }
            audits.push(BoundaryAudit {
                boundary,
                probes,
                worst_ssim: worst,
                private,
                defended_accuracy: acc,
                accuracy_ok: ok,
            });
        }
        if allowed.is_empty() {
            // Degenerate case (Algorithm 1's fallback): no boundary
            // satisfies both gates — either the probes recover inputs
            // everywhere (`nothing_safe`, audit rows say `private: no`)
            // or the accuracy gate rejected every private candidate.
            // The latest candidate minimises exposure and is costed
            // anyway so the report shows what the fallback would pay;
            // its audit row keeps the honest failing verdict.
            let idx = candidates.len() - 1;
            let acc = match audits[idx].defended_accuracy {
                Some(a) => a,
                None => defended_accuracy(
                    self.model,
                    candidates[idx],
                    self.cfg.defense,
                    self.eval_data,
                    self.cfg.seed,
                )
                .unwrap_or(0.0),
            };
            allowed.push((idx, acc));
        }

        // ---- 3. cost sweep: measure every allowed boundary x backend. ----
        let [c, h, w] = self.model.input_shape();
        let probe_x = Tensor::rand_uniform(
            &[1, c, h, w],
            0.0,
            1.0,
            c2pi_mpc::prg::indexed_seed(self.cfg.seed, b"c2pi/planner/input", 0),
        );
        let mut costs = Vec::new();
        for &(idx, _) in &allowed {
            let boundary = candidates[idx];
            for &backend in &self.cfg.backends {
                let mut builder = crate::session::C2pi::builder(self.model.clone())
                    .split_at(boundary)
                    .defense(self.cfg.defense)
                    .noise_seed(self.cfg.seed)
                    .backend(backend);
                if let Some(t) = &self.transport {
                    builder = builder.transport(Arc::clone(t));
                }
                let mut session = builder.build()?;
                session.preprocess(1)?;
                let result = session.infer(&probe_x)?;
                let report = &result.report;
                let online_model = self.online_model(backend);
                costs.push(CostRow {
                    boundary,
                    backend,
                    crypto_layers: session.crypto_layer_count(),
                    clear_layers: session.clear_layer_count(),
                    online_bytes: report.online.bytes_total(),
                    online_flights: report.online.flights,
                    offline_bytes: report.offline.bytes_total(),
                    offline_flights: report.offline.flights,
                    online_compute_seconds: online_model.online_seconds(&report.counts),
                    offline_compute_seconds: report.offline_seconds,
                    dealt_bytes: report.counts.seed_bytes,
                    expanded_bytes: report.counts.expanded_bytes,
                    unit_widths: session
                        .unit_bounds()
                        .into_iter()
                        .zip(session.unit_widths().into_iter().map(|w| w as u32))
                        .collect(),
                });
            }
        }

        // ---- 4. rank under every network setting. ----
        let acc_of = |boundary: BoundaryId| {
            allowed.iter().find(|(i, _)| candidates[*i] == boundary).map(|(_, a)| *a).unwrap_or(0.0)
        };
        let worst_of = |boundary: BoundaryId| {
            audits.iter().find(|a| a.boundary == boundary).map(|a| a.worst_ssim).unwrap_or(0.0)
        };
        let gates_of = |boundary: BoundaryId| {
            audits
                .iter()
                .find(|a| a.boundary == boundary)
                .is_some_and(|a| a.private && a.accuracy_ok == Some(true))
        };
        let mut ranked = Vec::new();
        for net in &self.cfg.nets {
            let mut group: Vec<PlanChoice> = costs
                .iter()
                .map(|r| {
                    let online = net.latency_seconds(
                        &snapshot(r.online_bytes, r.online_flights),
                        r.online_compute_seconds,
                    );
                    let offline = net.latency_seconds(
                        &snapshot(r.offline_bytes, r.offline_flights),
                        r.offline_compute_seconds,
                    );
                    PlanChoice {
                        rank: 0,
                        net: net.name.clone(),
                        backend: r.backend,
                        boundary: r.boundary,
                        defense: self.cfg.defense,
                        defense_seed: self.cfg.seed,
                        defended_accuracy: acc_of(r.boundary),
                        worst_ssim: worst_of(r.boundary),
                        gates_passed: gates_of(r.boundary),
                        online_seconds: online,
                        offline_seconds: offline,
                        total_seconds: online + offline,
                        comm_mb: (r.online_bytes + r.offline_bytes) as f64 / 1e6,
                    }
                })
                .collect();
            group.sort_by(|a, b| {
                a.total_seconds
                    .total_cmp(&b.total_seconds)
                    .then_with(|| a.backend.name().cmp(b.backend.name()))
                    .then_with(|| a.boundary.cmp(&b.boundary))
            });
            for (i, choice) in group.iter_mut().enumerate() {
                choice.rank = i + 1;
            }
            ranked.extend(group);
        }

        Ok(DeploymentPlan {
            model: self.model.name().to_string(),
            baseline_accuracy: baseline,
            defense: self.cfg.defense,
            seed: self.cfg.seed,
            ssim_threshold: self.cfg.ssim_threshold,
            max_accuracy_drop: self.cfg.max_accuracy_drop,
            probe_labels: self.cfg.probes.iter().map(|p| p.label()).collect(),
            audits,
            costs,
            ranked,
        })
    }
}

fn snapshot(bytes: u64, flights: u64) -> c2pi_transport::TrafficSnapshot {
    c2pi_transport::TrafficSnapshot {
        bytes_client_to_server: bytes,
        bytes_server_to_client: 0,
        messages: 0,
        flights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{plain_prediction, C2pi, Split};
    use c2pi_data::synth::{SynthConfig, SynthDataset};
    use c2pi_nn::model::{alexnet, ZooConfig};
    use c2pi_nn::train::{train_classifier, TrainConfig};

    fn setup() -> (Model, Dataset) {
        let model =
            alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
                .unwrap();
        let data = SynthDataset::generate(&SynthConfig {
            classes: 3,
            per_class: 3,
            pixel_noise: 0.02,
            image_size: 16,
            ..Default::default()
        })
        .into_dataset();
        (model, data)
    }

    fn cost_only_cfg() -> PlannerConfig {
        PlannerConfig {
            candidates: vec![BoundaryId::relu(2), BoundaryId::relu(4)],
            probes: Vec::new(), // skip the expensive attack training
            nets: vec![NetModel::mem(), NetModel::wan()],
            max_accuracy_drop: 1.0, // accept any accuracy
            eval_images: 2,
            ..Default::default()
        }
    }

    #[test]
    fn cost_only_plan_ranks_every_net_and_backend() {
        let (mut model, data) = setup();
        let plan =
            DeploymentPlanner::new(&mut model, &data, &data, cost_only_cfg()).plan().unwrap();
        // 2 boundaries x 2 backends x 2 nets.
        assert_eq!(plan.ranked.len(), 8);
        assert_eq!(plan.costs.len(), 4);
        for net in ["mem", "wan"] {
            let group: Vec<_> = plan.ranked.iter().filter(|c| c.net == net).collect();
            assert_eq!(group.len(), 4);
            assert_eq!(group[0].rank, 1);
            for pair in group.windows(2) {
                assert!(pair[0].total_seconds <= pair[1].total_seconds);
            }
        }
        // Earlier boundary means less crypto: for a fixed backend the
        // earlier cut is never more expensive on mem.
        let mem_cheetah: Vec<_> = plan
            .ranked
            .iter()
            .filter(|c| c.net == "mem" && c.backend == PiBackend::Cheetah)
            .collect();
        assert_eq!(mem_cheetah[0].boundary, BoundaryId::relu(2));
        assert!(plan.best().is_some());
        assert_eq!(plan.best_for("wan").unwrap().rank, 1);
        assert!(plan.ranked.iter().all(|c| c.gates_passed));
    }

    #[test]
    fn plan_is_deterministic_and_serializable() {
        let (mut model, data) = setup();
        let a = DeploymentPlanner::new(&mut model, &data, &data, cost_only_cfg()).plan().unwrap();
        let (mut model2, data2) = setup();
        let b =
            DeploymentPlanner::new(&mut model2, &data2, &data2, cost_only_cfg()).plan().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render_table(), b.render_table());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"ranked\""));
        // The measured cost rows are part of the machine-readable form.
        assert!(a.to_json().contains("\"costs\""));
        assert!(a.to_json().contains("\"online_bytes\""));
    }

    #[test]
    fn invalid_defense_is_rejected_before_the_audit() {
        let (mut model, data) = setup();
        let cfg = PlannerConfig {
            defense: Defense::Uniform { magnitude: f32::NAN },
            // A panel that would take minutes if the check were late.
            probes: vec![ProbeSpec::parse("dina:30").unwrap()],
            ..cost_only_cfg()
        };
        let start = std::time::Instant::now();
        let err = DeploymentPlanner::new(&mut model, &data, &data, cfg).plan();
        assert!(
            matches!(&err, Err(C2piError::BadConfig(m)) if m.contains("uniform(NaN)")),
            "{err:?}"
        );
        assert!(start.elapsed().as_secs() < 5, "must fail before probe training");
    }

    #[test]
    fn best_plan_round_trips_through_the_builder() {
        let (mut model, data) = setup();
        let plan =
            DeploymentPlanner::new(&mut model, &data, &data, cost_only_cfg()).plan().unwrap();
        let best = plan.best().unwrap().clone();
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 5);
        let clear = plain_prediction(&model, &x).unwrap();
        let mut session = C2pi::builder(model)
            .plan(&PlanChoice { defense: Defense::Uniform { magnitude: 0.0 }, ..best.clone() })
            .build()
            .unwrap();
        session.preprocess(1).unwrap();
        let got = session.infer(&x).unwrap();
        assert_eq!(got.prediction, clear);
        assert_eq!(session.split(), Split::At(best.boundary));
        assert_eq!(session.backend_name(), best.backend.name());
    }

    #[test]
    fn reactor_config_sizes_the_pools_and_serves_unbatched() {
        let (mut model, data) = setup();
        let plan =
            DeploymentPlanner::new(&mut model, &data, &data, cost_only_cfg()).plan().unwrap();
        let cfg = plan.reactor_config(4);
        assert_eq!(cfg.workers, 4);
        assert!(cfg.pool_low >= 1);
        assert_eq!(cfg.pool_high, cfg.pool_low * 2);
        // Retry after one offline deal of the best deployment.
        let best = plan.best().unwrap();
        let row = plan
            .costs
            .iter()
            .find(|r| r.boundary == best.boundary && r.backend == best.backend)
            .unwrap();
        let want = row.offline_compute_seconds.clamp(0.005, 5.0);
        assert!((cfg.retry_after.as_secs_f64() - want).abs() < 1e-9, "{:?}", cfg.retry_after);
        // No coalescing, with a plan or without one.
        let empty = DeploymentPlan { ranked: vec![], ..plan };
        for cfg in [cfg, empty.reactor_config(2)] {
            assert_eq!(cfg.max_batch, 1);
            assert_eq!(cfg.batch_window, Duration::ZERO);
        }
    }

    #[test]
    fn audit_failure_everywhere_is_reported_not_hidden() {
        // MLA at generous budget recovers the input at conv 1 of an
        // untrained model; with relu(1) as the ONLY candidate the probe
        // succeeds even at the tail. The fallback must still produce a
        // costed plan, but no audit row may claim `private: yes`.
        let (mut model, data) = setup();
        let cfg = PlannerConfig {
            candidates: vec![BoundaryId::relu(1)],
            probes: vec![ProbeSpec::parse("mla:60").unwrap()],
            nets: vec![NetModel::mem()],
            backends: vec![PiBackend::Cheetah],
            max_accuracy_drop: 1.0,
            eval_images: 1,
            ..Default::default()
        };
        let plan = DeploymentPlanner::new(&mut model, &data, &data, cfg).plan().unwrap();
        let audit = &plan.audits[0];
        assert!(
            audit.worst_ssim >= plan.ssim_threshold,
            "precondition: the probe must actually succeed here (ssim {})",
            audit.worst_ssim
        );
        assert!(!audit.private, "a boundary every probe cracks must not be reported private");
        // The degenerate fallback still prices the least-bad option,
        // but flags it so callers cannot deploy it by accident.
        assert!(!plan.ranked.is_empty());
        let best = plan.best().unwrap();
        assert_eq!(best.boundary, BoundaryId::relu(1));
        assert!(!best.gates_passed, "the fallback must carry gates_passed: false");
        assert!(plan.render_table().contains("FAIL"));
    }

    #[test]
    fn the_accuracy_gate_leaves_out_private_boundaries_that_lose_accuracy() {
        // The other tests accept any accuracy (`max_accuracy_drop: 1.0`).
        // Here a model fitted to its evaluation set is planned cost-only
        // (every candidate private), so Algorithm 1's accuracy check
        // (line 8) alone decides which boundaries are costed.
        let (mut model, data) = setup();
        let fit = TrainConfig { epochs: 60, batch_size: 3, lr: 0.01, momentum: 0.9, seed: 1 };
        train_classifier(model.seq_mut(), data.images(), data.labels(), &fit).unwrap();
        let baseline = baseline_accuracy(&mut model, &data).unwrap();
        let plan_under = |magnitude: f32| {
            let cfg = PlannerConfig {
                defense: Defense::Uniform { magnitude },
                max_accuracy_drop: 0.025,
                backends: vec![PiBackend::Cheetah],
                nets: vec![NetModel::mem()],
                ..cost_only_cfg()
            };
            DeploymentPlanner::new(&mut model.clone(), &data, &data, cfg).plan().unwrap()
        };
        let verdicts = |plan: &DeploymentPlan| -> Vec<_> {
            plan.audits.iter().map(|a| (a.boundary, a.private, a.accuracy_ok)).collect()
        };
        let (early, late) = (BoundaryId::relu(2), BoundaryId::relu(4));

        // Mild noise costs relu(2) its accuracy but not relu(4).
        let plan = plan_under(0.5);
        let audits: Vec<_> = plan.audits.iter().map(|a| a.defended_accuracy).collect();
        assert_eq!(
            verdicts(&plan),
            [(early, true, Some(false)), (late, true, Some(true))],
            "precondition: only relu(2) fails the gate (baseline {baseline}, defended {audits:?})"
        );
        assert!(!plan.costs.is_empty());
        assert!(plan.costs.iter().all(|r| r.boundary == late), "a rejected boundary was costed");
        assert!(plan.ranked.iter().all(|c| c.boundary == late && c.gates_passed));

        // Strong noise fails every candidate: only the fallback (the
        // latest candidate) is costed, flagged as failing the gates.
        let plan = plan_under(2.0);
        let audits: Vec<_> = plan.audits.iter().map(|a| a.defended_accuracy).collect();
        assert_eq!(
            verdicts(&plan),
            [(early, true, Some(false)), (late, true, Some(false))],
            "precondition: every boundary fails the gate (baseline {baseline}, defended {audits:?})"
        );
        assert!(plan.costs.iter().all(|r| r.boundary == late));
        let best = plan.best().unwrap();
        assert_eq!(best.boundary, late);
        assert!(!best.gates_passed, "the fallback must carry gates_passed: false");
    }

    #[test]
    fn probe_panel_gates_the_boundary() {
        // A scripted spec-built panel is impractical here; instead run a
        // single cheap MLA probe and check the audit structure holds
        // together (per-boundary rows, private region is a suffix).
        let (mut model, data) = setup();
        let cfg = PlannerConfig {
            candidates: vec![BoundaryId::relu(1), BoundaryId::relu(3)],
            probes: vec![ProbeSpec::parse("mla:10").unwrap()],
            nets: vec![NetModel::mem()],
            backends: vec![PiBackend::Cheetah],
            max_accuracy_drop: 1.0,
            eval_images: 1,
            ..Default::default()
        };
        let plan = DeploymentPlanner::new(&mut model, &data, &data, cfg).plan().unwrap();
        assert_eq!(plan.audits.len(), 2);
        let mut seen_private = false;
        for audit in &plan.audits {
            if audit.private {
                seen_private = true;
                assert!(audit.defended_accuracy.is_some());
            } else {
                assert!(!seen_private, "private region must be a suffix");
            }
        }
        assert!(seen_private);
        assert!(!plan.ranked.is_empty());
        assert_eq!(plan.probe_labels, vec!["mla:10".to_string()]);
    }

    const NO_NOISE: Defense = Defense::Uniform { magnitude: 0.0 };

    /// A scripted fake IDPA: returns a reconstruction whose SSIM is high
    /// for conv ids up to `succeeds_until` and pure noise afterwards —
    /// lets us test Algorithm 1's phase-1 control flow deterministically.
    struct ScriptedAttack {
        succeeds_until: usize,
        probes: Vec<usize>,
        /// The defense each `prepare` was handed, in probe order.
        anticipated: Vec<Defense>,
        reference: Tensor,
    }

    impl Idpa for ScriptedAttack {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn prepare(
            &mut self,
            _model: &mut Model,
            id: BoundaryId,
            _train: &Dataset,
            defense: Defense,
        ) -> c2pi_attacks::Result<()> {
            self.probes.push(id.conv_id);
            self.anticipated.push(defense);
            Ok(())
        }
        fn recover(
            &mut self,
            model: &mut Model,
            id: BoundaryId,
            _activation: &Tensor,
        ) -> c2pi_attacks::Result<Tensor> {
            let [c, h, w] = model.input_shape();
            if id.conv_id <= self.succeeds_until {
                // "Perfect" recovery: the evaluated image itself.
                Ok(self.reference.clone())
            } else {
                Ok(Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, 999 + id.conv_id as u64))
            }
        }
    }

    /// Sweeps a [`ScriptedAttack`] over `candidates` (empty: the paper's
    /// post-ReLU cut of every convolution) behind `defense`; returns the
    /// conv ids it was prepared at, the probes taken and the first safe
    /// index. Every `prepare` must have been handed the gate's defense
    /// itself — the attacker trains against what is deployed.
    fn scripted_sweep(
        succeeds_until: usize,
        candidates: &[BoundaryId],
        defense: Defense,
    ) -> (Vec<usize>, Vec<SsimProbe>, Option<usize>) {
        let (mut model, data) = setup();
        let all: Vec<BoundaryId> = (1..=model.num_convs()).map(BoundaryId::relu).collect();
        let candidates = if candidates.is_empty() { &all } else { candidates };
        let mut attack = ScriptedAttack {
            succeeds_until,
            probes: Vec::new(),
            anticipated: Vec::new(),
            reference: data.images()[0].clone(),
        };
        let gate = EvalConfig { defense, ssim_threshold: 0.3, eval_images: 1, seed: 47 };
        let (probes, first_safe) =
            probe_one(&mut model, &mut attack, &data, &data, candidates, &gate).unwrap();
        assert_eq!(attack.anticipated.len(), attack.probes.len());
        assert!(attack.anticipated.iter().all(|&d| d == defense), "{:?}", attack.anticipated);
        (attack.probes, probes, first_safe)
    }

    #[test]
    fn phase1_stops_at_first_success_from_tail() {
        // The attack succeeds through conv 4: the sweep probes from the
        // tail (7) down to 4 and the first safe candidate is relu(5). Under
        // a Gaussian gate the attacker is prepared with that Gaussian, not
        // a uniform stand-in of the same width (`scripted_sweep` checks).
        for defense in [NO_NOISE, Defense::Gaussian { std: 0.2 }] {
            let (prepared, probes, first_safe) = scripted_sweep(4, &[], defense);
            assert_eq!(prepared, vec![7, 6, 5, 4]);
            assert_eq!(probes.len(), 4);
            assert_eq!(probes.last().unwrap().id, BoundaryId::relu(4));
            assert_eq!(first_safe, Some(4), "index of relu(5)");
        }
    }

    #[test]
    fn attack_that_never_succeeds_yields_earliest_boundary() {
        let (prepared, _, first_safe) = scripted_sweep(0, &[], NO_NOISE);
        assert_eq!(prepared, vec![7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(first_safe, Some(0));
    }

    #[test]
    fn attack_succeeding_at_the_tail_leaves_nothing_safe() {
        let (_, probes, first_safe) = scripted_sweep(99, &[], NO_NOISE);
        assert_eq!(probes.len(), 1, "stopped immediately");
        assert_eq!(first_safe, None);
    }

    #[test]
    fn explicit_candidates_are_respected() {
        let cands = [BoundaryId::relu(2), BoundaryId::relu(5)];
        let (prepared, _, first_safe) = scripted_sweep(0, &cands, NO_NOISE);
        assert_eq!(prepared, vec![5, 2]);
        assert_eq!(first_safe, Some(0), "relu(2)");
    }
}
