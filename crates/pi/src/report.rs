//! The cost report a private-inference run produces — the raw material
//! of the paper's Table II.

use c2pi_transport::{NetModel, TrafficSnapshot};
use serde::{Deserialize, Serialize};

/// One inference's operation counts under a deployment: priced once,
/// from the compiled plan's shapes and the backend, when the session
/// core is built — a constant of the deployment, not a tally of a deal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Input element count of every linear (conv/fc) layer.
    pub linear_in_elems: Vec<usize>,
    /// Output element count of every linear layer.
    pub linear_out_elems: Vec<usize>,
    /// Total multiply-accumulates across linear layers.
    pub macs: u64,
    /// Total ReLU elements evaluated securely.
    pub relu_elems: usize,
    /// Total 2×2 max-pool windows evaluated securely.
    pub pool_windows: usize,
    /// Bit triples consumed (comparison-based backends).
    pub bit_triples: u64,
    /// AND gates garbled (GC backends). Since the offline-garbling
    /// refactor these are garbled in the *offline* phase.
    pub and_gates: u64,
    /// XOR gates in the same circuits — free under the free-XOR
    /// garbling scheme (no table, no hash), tracked to make the
    /// zero-cost term visible in cost reports.
    pub xor_gates: u64,
    /// 64-bit arithmetic output-projection words of the same circuits
    /// (GC backends): one per output wire and one offset per item, dealt
    /// to the evaluator beside the tables.
    pub proj_words: u64,
    /// Base OTs the real offline phase runs per inference (one κ = 128
    /// set, the setup its OT extension amortises). A modelled price the
    /// cost model charges; the dealer draws no base OT.
    pub base_ots: u64,
    /// Label transfers the real offline phase would carry by OT
    /// extension (GC backends: the evaluator's masked-input labels). A
    /// modelled price; the dealer deals the labels directly.
    pub ext_ots: u64,
    /// Bytes of the compact [`DealtSeed`](c2pi_mpc::dealer::DealtSeed)
    /// artifacts actually shipped by the seed-compressed dealer.
    pub seed_bytes: u64,
    /// Bytes the dealt correlations occupy expanded from the seed,
    /// **both parties' halves** — what pre-compression dealing used to
    /// ship, summed from each correlation's shape. It describes the
    /// seed, not the holder: a party that expanded only its own half (a
    /// reactor shard, a remote client) reports the same number as one
    /// that expanded both.
    pub expanded_bytes: u64,
}

/// Preprocessing ledger: where the consumed correlated randomness came
/// from and what it cost to make. `generated_inline > 0` means the
/// session ran out of preprocessed material and had to pay dealer time
/// on the critical path — a bench reporting *true online latency*
/// should check this is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PreprocessLedger {
    /// Inference material sets generated ahead of time by
    /// `PiSession::preprocess`.
    pub generated_offline: u64,
    /// Material sets generated on demand inside `infer` because the
    /// pool was empty (lazily, on the critical path).
    pub generated_inline: u64,
    /// Material sets consumed by inferences so far.
    pub consumed: u64,
    /// Material sets still pooled for future inferences.
    pub available: u64,
    /// Wall-clock seconds spent generating material (both kinds).
    pub generation_seconds: f64,
    /// Base OTs the real offline phase would run across all generated
    /// material (128 per set) — a modelled price, not a dealer draw.
    pub base_ots: u64,
    /// Labels the real offline phase would transfer by OT extension
    /// across all generated material — a modelled price, not a dealer
    /// draw.
    pub extended_ots: u64,
    /// Bytes of compact dealt-seed artifacts shipped across all
    /// generated material (the seed-compressed dealing cost).
    pub seed_bytes: u64,
    /// Bytes the same material occupies expanded — what dealing would
    /// have shipped before seed compression.
    pub expanded_bytes: u64,
    /// Material sets recovered from a persistent
    /// [`MaterialStore`](crate::store::MaterialStore) at warm boot
    /// (re-expanded from their recorded seeds, not newly dealt).
    pub restored: u64,
}

/// Complete cost profile of one private-inference run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiReport {
    /// Engine name (`delphi` / `cheetah`).
    pub backend: &'static str,
    /// Exact traffic measured on the channel.
    pub online: TrafficSnapshot,
    /// Modelled offline (HE / correlation-setup) traffic.
    pub offline: TrafficSnapshot,
    /// Wall-clock seconds of the protocol threads (online phase only —
    /// preprocessing time is in [`PiReport::preprocessing`]).
    pub online_seconds: f64,
    /// Modelled offline compute seconds.
    pub offline_seconds: f64,
    /// Operation counts.
    pub counts: OpCounts,
    /// Consumed-vs-generated preprocessing state at the time of the run.
    pub preprocessing: PreprocessLedger,
}

impl PiReport {
    /// Total traffic, online plus modelled offline.
    pub fn traffic_total(&self) -> TrafficSnapshot {
        self.online.plus(&self.offline)
    }

    /// Total communication in megabytes (the paper's `Commu. (MB)`).
    pub fn comm_mb(&self) -> f64 {
        self.traffic_total().megabytes()
    }

    /// End-to-end latency in seconds under a network model (the paper's
    /// `Latency (s)` columns).
    pub fn latency_seconds(&self, net: &NetModel) -> f64 {
        net.latency_seconds(&self.traffic_total(), self.online_seconds + self.offline_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bytes: u64, secs: f64) -> PiReport {
        PiReport {
            backend: "delphi",
            online: TrafficSnapshot {
                bytes_client_to_server: bytes,
                bytes_server_to_client: 0,
                messages: 1,
                flights: 2,
            },
            offline: TrafficSnapshot::default(),
            online_seconds: secs,
            offline_seconds: 0.0,
            counts: OpCounts::default(),
            preprocessing: PreprocessLedger::default(),
        }
    }

    #[test]
    fn comm_mb_uses_decimal_megabytes() {
        assert!((report(5_000_000, 0.0).comm_mb() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn latency_adds_compute_and_network_terms() {
        let r = report(44_000_000, 1.0);
        let wan = NetModel::wan();
        let lat = r.latency_seconds(&wan);
        // 1 s compute + 1 s bandwidth + 1 RTT.
        assert!((lat - (1.0 + 1.0 + 0.040)).abs() < 1e-6, "latency {lat}");
    }
}
