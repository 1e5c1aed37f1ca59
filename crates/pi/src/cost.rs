//! Analytic cost model for the HE offline phases (DESIGN.md §3).
//!
//! What the engines execute online is measured exactly by the channel;
//! what real Delphi/Cheetah do *offline* with homomorphic encryption —
//! shipping `Enc(r)` / `Enc(W·r − s)` ciphertexts and evaluating the
//! linear layers homomorphically — is charged here from first-order
//! parameters (ciphertext size, slot count, per-MAC evaluation time).
//! The constants are chosen so the *relative* magnitudes match the
//! published systems: Delphi's offline dominates its end-to-end cost,
//! Cheetah's lattice pipeline is roughly an order of magnitude leaner.

use crate::report::OpCounts;
use c2pi_transport::TrafficSnapshot;
use serde::{Deserialize, Serialize};

/// First-order offline cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OfflineCostModel {
    /// Serialized ciphertext size in bytes.
    pub ct_bytes: u64,
    /// Plaintext slots per ciphertext.
    pub slots: usize,
    /// Homomorphic evaluation time per multiply-accumulate, seconds.
    pub sec_per_mac: f64,
    /// Setup bytes per correlated-randomness bit (silent-OT seeds /
    /// triple material shipped offline).
    pub bytes_per_bit_triple: f64,
    /// Garbling + transfer time per AND gate shipped offline, seconds
    /// (zero when the backend has no GC component).
    pub sec_per_and_gate: f64,
    /// Bytes per AND gate shipped offline: the two-row half-gates table
    /// plus the amortised decode/fixed-label material of the
    /// offline-garbled circuits (zero when the backend has no GC
    /// component).
    pub bytes_per_and_gate: f64,
    /// Bytes per XOR gate shipped offline — identically zero under the
    /// free-XOR scheme (no table, no hash); kept as an explicit model
    /// term so the zero cost is visible and pinned rather than implied.
    pub bytes_per_xor_gate: f64,
    /// Bytes per base OT of the per-session setup the IKNP extension
    /// amortises (public keys / seed commitments).
    pub bytes_per_base_ot: f64,
    /// Bytes per extended OT: the `u`-matrix column plus the masked
    /// message pair of one IKNP label transfer (zero for silent-OT
    /// backends, whose extension ships only seeds).
    pub bytes_per_ext_ot: f64,
}

impl OfflineCostModel {
    /// Delphi-like parameters: SEAL BFV at n=8192 — 128 KiB ciphertexts,
    /// 4096 slots, slow rotation-heavy convolutions, garbled circuits
    /// garbled *and shipped* offline (tables down, extension-transferred
    /// evaluator labels via IKNP). `sec_per_and_gate` is the offline
    /// garbling kernel's measured cost: `mpc.gcpre.pregarble_ms` ÷
    /// `mpc.gcpre.and_gates_per_inf` (553 952) of `c2pi_benchmark`'s
    /// traced `solo_delphi_split` run, the full model's layers garbled
    /// eight items per gate walk on two cores. Three runs on 2026-10-05
    /// read 22.0 / 28.4 / 30.0 ms — 40 / 51 / 54 ns per AND (four
    /// eight-lane AES hash batches per gate and lane group, plus each
    /// item's ChaCha12 label draws, now half of a ReLU item's cost) —
    /// taken as 50 ns. The per-item walk it replaced read 61 / 77 / 85 ns
    /// in the same three runs, against the 70 ns priced until then.
    pub fn delphi() -> Self {
        OfflineCostModel {
            ct_bytes: 131_072,
            slots: 4096,
            sec_per_mac: 2.0e-7,
            bytes_per_bit_triple: 0.0,
            sec_per_and_gate: 5.0e-8,
            // 32 B of half-gates table rows plus ~6 B of amortised
            // decode bits and fixed-input labels per AND gate.
            bytes_per_and_gate: 38.0,
            bytes_per_xor_gate: 0.0,
            bytes_per_base_ot: 64.0,
            // 16 B u-matrix column + 32 B masked message pair.
            bytes_per_ext_ot: 48.0,
        }
    }

    /// Cheetah-like parameters: leaner lattice encoding without
    /// rotations — smaller ciphertexts and roughly 10× faster
    /// homomorphic linear algebra; silent-OT setup for the non-linear
    /// correlations (base OTs real, extension traffic seed-sized).
    pub fn cheetah() -> Self {
        OfflineCostModel {
            ct_bytes: 32_768,
            slots: 4096,
            sec_per_mac: 2.0e-8,
            bytes_per_bit_triple: 0.125,
            sec_per_and_gate: 0.0,
            bytes_per_and_gate: 0.0,
            bytes_per_xor_gate: 0.0,
            bytes_per_base_ot: 64.0,
            bytes_per_ext_ot: 0.0,
        }
    }

    /// Modelled offline traffic for the accumulated operation counts
    /// under **seed-compressed dealing**: ciphertexts still flow both
    /// ways for each linear layer (`Enc(r)` up, `Enc(W·r − s)` down) and
    /// the base-OT setup is still shipped, but the triples, garbled
    /// tables and extension-transferred labels now travel as a compact
    /// `DealtSeed` (`counts.seed_bytes`, dealer→parties, charged down)
    /// that each party expands locally. What the expanded correlations
    /// would have cost on the wire is in
    /// [`OfflineCostModel::expanded_traffic`].
    pub fn offline_traffic(&self, counts: &OpCounts) -> TrafficSnapshot {
        let cts_up: u64 =
            counts.linear_in_elems.iter().map(|&e| e.div_ceil(self.slots) as u64).sum();
        let cts_down: u64 =
            counts.linear_out_elems.iter().map(|&e| e.div_ceil(self.slots) as u64).sum();
        let base_ot_bytes = (counts.base_ots as f64 * self.bytes_per_base_ot) as u64;
        let setup_flights = if counts.base_ots > 0 || counts.seed_bytes > 0 { 2 } else { 0 };
        TrafficSnapshot {
            bytes_client_to_server: cts_up * self.ct_bytes,
            bytes_server_to_client: cts_down * self.ct_bytes + base_ot_bytes + counts.seed_bytes,
            messages: cts_up + cts_down + setup_flights,
            // One round trip per linear layer's ciphertext exchange,
            // plus one for the whole session's base-OT/seed shipment
            // (layer-batched).
            flights: 2 * counts.linear_in_elems.len() as u64 + setup_flights,
        }
    }

    /// What the same correlations would have cost on the wire under the
    /// pre-compression expanded dealing: triples, garbled tables and
    /// extension pads garbler→evaluator (down), the extension's
    /// `u`-matrix evaluator→garbler (up), on top of the ciphertext and
    /// base-OT flows. Reported next to [`OfflineCostModel::offline_traffic`]
    /// so the planner can show the compression win.
    pub fn expanded_traffic(&self, counts: &OpCounts) -> TrafficSnapshot {
        let cts_up: u64 =
            counts.linear_in_elems.iter().map(|&e| e.div_ceil(self.slots) as u64).sum();
        let cts_down: u64 =
            counts.linear_out_elems.iter().map(|&e| e.div_ceil(self.slots) as u64).sum();
        let triple_bytes = (counts.bit_triples as f64 * self.bytes_per_bit_triple) as u64;
        let gc_bytes = (counts.and_gates as f64 * self.bytes_per_and_gate
            + counts.xor_gates as f64 * self.bytes_per_xor_gate) as u64;
        let base_ot_bytes = (counts.base_ots as f64 * self.bytes_per_base_ot) as u64;
        let ext_down = (counts.ext_ots as f64 * self.bytes_per_ext_ot * 2.0 / 3.0) as u64;
        let ext_up = (counts.ext_ots as f64 * self.bytes_per_ext_ot / 3.0) as u64;
        let ot_flights = if counts.base_ots + counts.ext_ots > 0 { 2 } else { 0 };
        TrafficSnapshot {
            bytes_client_to_server: cts_up * self.ct_bytes + ext_up,
            bytes_server_to_client: cts_down * self.ct_bytes
                + triple_bytes
                + gc_bytes
                + base_ot_bytes
                + ext_down,
            messages: cts_up + cts_down + ot_flights,
            flights: 2 * counts.linear_in_elems.len() as u64 + ot_flights,
        }
    }

    /// Modelled offline compute seconds.
    pub fn offline_seconds(&self, counts: &OpCounts) -> f64 {
        counts.macs as f64 * self.sec_per_mac + counts.and_gates as f64 * self.sec_per_and_gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> OpCounts {
        OpCounts {
            linear_in_elems: vec![3 * 32 * 32, 4096],
            linear_out_elems: vec![64 * 32 * 32, 512],
            macs: 1_000_000,
            relu_elems: 2048,
            pool_windows: 512,
            bit_triples: 2048 * 187,
            and_gates: 0,
            xor_gates: 0,
            base_ots: 128,
            ext_ots: 0,
            seed_bytes: 64,
            expanded_bytes: 0,
        }
    }

    #[test]
    fn delphi_offline_dwarfs_cheetah() {
        let c = counts();
        let d = OfflineCostModel::delphi();
        let ch = OfflineCostModel::cheetah();
        assert!(d.offline_traffic(&c).bytes_total() > 2 * ch.offline_traffic(&c).bytes_total());
        assert!(d.offline_seconds(&c) > 5.0 * ch.offline_seconds(&c));
    }

    #[test]
    fn traffic_scales_with_layer_sizes() {
        let small =
            OpCounts { linear_in_elems: vec![100], linear_out_elems: vec![100], ..counts() };
        let big = OpCounts {
            linear_in_elems: vec![100_000],
            linear_out_elems: vec![100_000],
            ..counts()
        };
        let m = OfflineCostModel::delphi();
        assert!(m.offline_traffic(&big).bytes_total() > m.offline_traffic(&small).bytes_total());
    }

    #[test]
    fn zero_counts_cost_nothing() {
        let zero = OpCounts::default();
        let m = OfflineCostModel::cheetah();
        assert_eq!(m.offline_traffic(&zero).bytes_total(), 0);
        assert_eq!(m.expanded_traffic(&zero).bytes_total(), 0);
        assert_eq!(m.offline_seconds(&zero), 0.0);
    }

    #[test]
    fn xor_gates_are_free_on_the_wire() {
        // Free-XOR: piling on XOR gates must not move the modelled
        // expanded traffic, while AND gates must.
        let m = OfflineCostModel::delphi();
        let base = OpCounts { and_gates: 10_000, ..counts() };
        let xor_heavy = OpCounts { xor_gates: 10_000_000, ..base.clone() };
        assert_eq!(
            m.expanded_traffic(&base).bytes_total(),
            m.expanded_traffic(&xor_heavy).bytes_total()
        );
        let and_heavy = OpCounts { and_gates: 20_000, ..base.clone() };
        assert!(
            m.expanded_traffic(&and_heavy).bytes_total() > m.expanded_traffic(&base).bytes_total()
        );
    }

    #[test]
    fn seed_compression_collapses_correlation_traffic() {
        // A GC-heavy count set: under expanded dealing the tables and
        // extension labels dominate; under seed-compressed dealing only
        // the DealtSeed bytes remain of them.
        let c = OpCounts { and_gates: 500_000, ext_ots: 100_000, ..counts() };
        let m = OfflineCostModel::delphi();
        let dealt = m.offline_traffic(&c);
        let expanded = m.expanded_traffic(&c);
        let correlation_dealt = dealt.bytes_total() - m.offline_traffic(&counts()).bytes_total();
        let correlation_expanded =
            expanded.bytes_total() - m.offline_traffic(&counts()).bytes_total();
        assert!(
            correlation_expanded > 50 * correlation_dealt.max(1),
            "expanded {correlation_expanded} vs dealt {correlation_dealt}"
        );
        assert!(expanded.bytes_total() > dealt.bytes_total());
    }
}
