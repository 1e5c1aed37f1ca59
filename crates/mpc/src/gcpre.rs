//! Offline-garbled masked non-linearities — the Delphi phase split done
//! properly: **no garbling, no base OTs and no table transfer on the
//! online path**.
//!
//! The trick (Mishra et al., USENIX Security 2020) is to make the
//! *evaluator's* circuit input a value that exists before the input
//! does. During preprocessing the dealer samples a uniform mask `m` per
//! input element and an output mask `r` per item, garbles the unit
//! circuit (the walk behind [`crate::gc::garble_open`]) and fixes
//! everything that is already known:
//!
//! * the evaluator's active labels for the bits of `m` (with a trusted
//!   dealer these are dealt directly; a real deployment transfers them
//!   by OT extension, whose traffic the engine charges to the offline
//!   phase as a modelled price — no OT runs here);
//! * the AND tables, handed to the evaluator;
//! * the *arithmetic output projection*: one word `T_j` per output wire
//!   and one offset `U` per item (`gc::garble_projection`), with which
//!   the evaluator reads `f(x) − r` straight off its output labels. `r`
//!   enters only through `U = −r − Σ_j dec(W⁰_j)`, not as a circuit
//!   input.
//!
//! Only the garbler's *value-dependent* input wires stay open: their
//! label **pairs** go into the garbler's half. A layer runs at a width
//! `w` (its plan step's, at most 64): the circuit reads the low `w` bits
//! of each value, which reconstruct `x mod 2^w` — `x` itself inside the
//! step's sound bound. Online, per layer:
//!
//! 1. evaluator → garbler: the low `w` bits of `δ = x₀ − m` (one frame,
//!    `⌈w/8⌉` bytes/element);
//! 2. garbler → evaluator: the active labels for the low `w` bits of
//!    `g = x₁ + δ = x − m` (one frame, `w` labels of 16 bytes/element) —
//!    selecting labels is an XOR, the garbler does no cryptographic
//!    work. Each party reads the other's frame capped at its exact size;
//! 3. the evaluator evaluates every item and projects its output labels
//!    onto its share `U + Σ_j dec(W_j) = f(x) − r`; the garbler's share
//!    is `r`. Items are cut into one
//!    band per core (`band_for`: whole lock-step groups, at most
//!    `par_band` items, at least `MIN_BAND`): the calling thread works a
//!    band and helper threads take the rest, so a 1 024-item layer runs
//!    on both cores of a two-core host, while a layer under two minimum
//!    bands stays on the calling thread. Parallel regions are bounded
//!    process-wide, so two callers garbling or evaluating at once share
//!    the cores rather than each spawning a full set.
//!    Inside a band, items advance eight at a time in lock step
//!    (`gc::eval_lanes`) — they are garblings of one circuit, so an AND
//!    gate hashes eight independent labels per batch.
//!
//! Offline garbling has the same shape ([`pregarble_for`]): one band per
//! core, and inside a band groups of eight items on one walk
//! (`gc::garble_lanes`, four eight-lane hash batches per AND) and a
//! one-item tail on the same function. Each lane draws from its own
//! item's seed, and the walk writes tables straight into the band's
//! slice of the layer's arrays; the projection (two eight-lane hash
//! batches per output wire) writes its words beside them, and the labels
//! are read out of the wire buffer afterwards. No per-item artifact
//! exists in between.
//!
//! `δ` is uniform mod `2^w` (masked by `m`) and the labels reveal exactly one
//! circuit path, so the online messages leak nothing beyond the
//! standard garbled-circuit guarantees. The projection words hide the
//! inactive label's hash under the same circular correlation robustness
//! half-gates relies on, and `U` is masked by the uniform `r` (DESIGN.md
//! §9). One round trip per layer, total.
//!
//! Items (one ReLU element, one 4-way max window, one window with the
//! ReLU after it) are garbled and evaluated **independently** against
//! the process-wide unit circuits of their width ([`crate::gc::relu_unit`],
//! [`crate::gc::maxpool4_unit`], [`crate::gc::maxpool_relu4_unit`]),
//! which is what makes both phases embarrassingly parallel and
//! deterministic: per-item garbling seeds are drawn sequentially from
//! the dealer PRG, then the band size only controls parallelism — and
//! which items happen to share a lock-step group — never the result.
//!
//! Free-XOR shrinks the dealt material twice over: the evaluator's
//! tables are half-gates two-row tables (32 B per AND instead of 64),
//! and the garbler's open label *pairs* collapse to one zero label per
//! wire plus the per-item global offset Δ (`l1 = l0 ⊕ Δ`). Handing Δ to
//! the garbler is sound — the garbler knows every label pair by
//! definition; it is only the *evaluator's* half that must never see Δ.
//!
//! **Each party garbles only what it reads.** Both parties expand a layer
//! from the same seed, but [`pregarble_for`] takes the
//! [`Halves`] to keep. The garbler's half is Δ, the
//! zero labels of its online wires and `r` — the first draws of each
//! item's stream and one draw of the layer's, none of which depends on a
//! gate — so a server-sided expansion skips the circuit walk entirely: no
//! `hash128`, no tables, a few kilobytes per item never allocated. The
//! evaluator's half needs the walk and keeps everything but Δ and the
//! zero labels. Either way the draws are the same draws in the same
//! order (skip, never reorder), so a sided half is bit-identical to the
//! same half of [`pregarble`] — pinned by
//! `sided_garbling_is_the_same_half_of_the_two_sided_garbling`, against
//! a reference that garbles every item alone.

use crate::dealer::Halves;
use crate::gc::{
    eval_lanes, eval_projection, garble_lanes, garble_projection, lane, load_lane, maxpool4_unit,
    maxpool_relu4_unit, relu_unit, Circuit,
};
use crate::prg::Prg;
use crate::share::ShareVec;
use crate::{MpcError, Result};
use c2pi_transport::Channel;
use rayon::prelude::*;
use std::array::from_fn;

/// Which masked unit circuit a pre-garbled batch runs. Each runs at a
/// width `bits` (2 to 64): its circuit reads the low `bits` bits of
/// each input share and computes on their two's-complement sum, which is
/// the ring value itself when that value lies in
/// `[−2^(bits−1), 2^(bits−1))`. The output share `f(x) − r` stays a
/// 64-bit ring word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskedOp {
    /// `relu(x) − r` over one ring element per item.
    Relu,
    /// `max(v₀..v₃) − r` over one 2×2 pool window (four elements) per
    /// item.
    Maxpool4,
    /// `max(v₀..v₃, 0) − r`: a pool window and the ReLU after it as one
    /// unit, the max's circuit plus a mux on its sign bit.
    MaxpoolRelu4,
}

impl MaskedOp {
    /// The cached single-item circuit topology at `bits`: the function
    /// itself, on additive input shares. The `− r` is the projection's,
    /// not a gate.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 64`.
    pub fn unit_circuit(&self, bits: usize) -> &'static Circuit {
        match self {
            MaskedOp::Relu => relu_unit(bits),
            MaskedOp::Maxpool4 => maxpool4_unit(bits),
            MaskedOp::MaxpoolRelu4 => maxpool_relu4_unit(bits),
        }
    }

    /// Ring elements fed into one item (1 for ReLU, 4 for a window).
    pub fn in_elems(&self) -> usize {
        match self {
            MaskedOp::Relu => 1,
            MaskedOp::Maxpool4 | MaskedOp::MaxpoolRelu4 => 4,
        }
    }

    /// AND gates garbled per item at `bits`: `2·bits − 2` for a ReLU,
    /// `10·bits − 7` for a max, `11·bits − 8` fused.
    pub fn ands_per_item(&self, bits: usize) -> usize {
        self.unit_circuit(bits).and_count()
    }

    /// XOR gates per item at `bits` — free under free-XOR (no table, no
    /// hash); counted so cost reports can show what the scheme gets for
    /// nothing.
    pub fn xors_per_item(&self, bits: usize) -> usize {
        self.unit_circuit(bits).xor_count()
    }

    /// 64-bit words of arithmetic output projection per item at `bits`:
    /// one `T_j` per output wire (`bits − 1` for a ReLU or a fused
    /// max-then-ReLU, whose top bit is always 0; `bits` for a max) plus
    /// the item's offset `U`.
    pub fn proj_words_per_item(&self, bits: usize) -> usize {
        self.unit_circuit(bits).output_count() + 1
    }

    /// Bytes a garbling of `items` at `bits` occupies expanded, **both
    /// halves** — [`PreGarbledClient::expanded_bytes`] plus
    /// [`PreGarbledServer::expanded_bytes`] as arithmetic on the shape,
    /// so a party that expanded only its own half still reports what the
    /// seed stands for.
    pub fn expanded_bytes(&self, items: usize, bits: usize) -> u64 {
        let inputs = items * self.in_elems();
        let labels = 16 * inputs * bits;
        let client = inputs * bits.div_ceil(8)
            + items * self.ands_per_item(bits) * crate::gc::AND_TABLE_BYTES
            + labels
            + 8 * items * self.proj_words_per_item(bits);
        let server = labels + 16 * items + 8 * items;
        (client + server) as u64
    }
}

/// The evaluator's (client's) half of an offline-garbled batch: its
/// input masks, the tables, its active input labels and the arithmetic
/// output projection. Everything in here is input-independent.
#[derive(Debug, Clone)]
pub struct PreGarbledClient {
    op: MaskedOp,
    /// The width every item's circuit runs at.
    bits: usize,
    /// Input masks `m`, one per input element (item-major); only their
    /// low `bits` bits enter the circuit.
    masks: Vec<u64>,
    /// Two-row half-gates AND tables, item-major.
    tables: Vec<[u128; 2]>,
    /// Active evaluator labels for the bits of `m`, item-major.
    eval_labels: Vec<u128>,
    /// Projection words `T_j`, one per output wire, item-major.
    proj: Vec<u64>,
    /// Each item's projection offset `U = −r − Σ_j dec(W⁰_j)`.
    proj_base: Vec<u64>,
}

/// The garbler's (server's) half: Δ-compressed labels for its
/// value-dependent input wires plus its dealt output share `r`. Under
/// free-XOR the one-label of every wire is `l0 ⊕ Δ`, so the dealer
/// ships one zero label per online wire and one Δ per item instead of
/// full pairs — half the bytes, reconstructed by XOR at select time.
#[derive(Debug, Clone)]
pub struct PreGarbledServer {
    op: MaskedOp,
    /// The width every item's circuit runs at.
    bits: usize,
    /// Zero labels for the garbler's online inputs (`x − m` bits),
    /// item-major.
    labels0: Vec<u128>,
    /// The free-XOR offset Δ of each item's garbling.
    deltas: Vec<u128>,
    /// The garbler's output share, one element per item.
    out_share: Vec<u64>,
}

impl PreGarbledClient {
    /// The masked op this batch was garbled for.
    pub fn op(&self) -> MaskedOp {
        self.op
    }

    /// Number of items in the batch.
    pub fn items(&self) -> usize {
        self.proj_base.len()
    }

    /// Number of input ring elements (`items × in_elems`).
    pub fn inputs(&self) -> usize {
        self.masks.len()
    }

    /// Serialized size of this half — what an expanded (pre
    /// seed-compression) dealer would ship to the evaluator: each mask
    /// at its `⌈bits/8⌉` bytes.
    pub fn expanded_bytes(&self) -> u64 {
        (self.masks.len() * self.bits.div_ceil(8)
            + self.tables.len() * 32
            + self.eval_labels.len() * 16
            + (self.proj.len() + self.proj_base.len()) * 8) as u64
    }
}

impl PreGarbledServer {
    /// The masked op this batch was garbled for.
    pub fn op(&self) -> MaskedOp {
        self.op
    }

    /// Number of items in the batch.
    pub fn items(&self) -> usize {
        self.out_share.len()
    }

    /// Number of input ring elements (`items × in_elems`).
    pub fn inputs(&self) -> usize {
        self.labels0.len() / self.bits
    }

    /// Serialized size of this half — what an expanded (pre
    /// seed-compression) dealer would ship to the garbler. Δ-compressed:
    /// one label per online wire plus 16 B of Δ per item (the classic
    /// layout shipped full 32 B pairs).
    pub fn expanded_bytes(&self) -> u64 {
        (self.labels0.len() * 16 + self.deltas.len() * 16 + self.out_share.len() * 8) as u64
    }

    /// Selects the active labels for the low `bits` bits of the
    /// garbler's online input values `g` (item-major ring elements) — the
    /// garbler's entire online compute: one conditional XOR with Δ per
    /// bit, no PRF.
    ///
    /// # Errors
    ///
    /// Returns a protocol error when `g` disagrees with the material.
    pub fn select_garbler_labels(&self, g: &[u64]) -> Result<Vec<u128>> {
        if g.len() != self.inputs() {
            return Err(MpcError::Protocol(format!(
                "pre-garbled material for {} inputs, got {}",
                self.inputs(),
                g.len()
            )));
        }
        let in_elems = self.op.in_elems();
        let mut labels = Vec::with_capacity(self.labels0.len());
        for (e, &v) in g.iter().enumerate() {
            let delta = self.deltas[e / in_elems];
            let zeros = &self.labels0[e * self.bits..(e + 1) * self.bits];
            labels.extend(zeros.iter().enumerate().map(|(bit, &l0)| select(l0, delta, v, bit)));
        }
        Ok(labels)
    }
}

/// One band of [`pregarble_for`]: what the layer's stream drew for the
/// band's items, and the band's window into each output array — all cut
/// at the same item boundaries, so a band's worker writes its items in
/// place and nothing is copied or allocated per band or per item.
/// `server` (the band's `labels0` and `deltas`) is absent in a
/// client-sided garbling.
struct Band<'a> {
    seeds: &'a [[u8; 32]],
    masks: &'a [u64],
    out_share: &'a [u64],
    tables: &'a mut [[u128; 2]],
    eval_labels: &'a mut [u128],
    proj: &'a mut [u64],
    proj_base: &'a mut [u64],
    server: Option<(&'a mut [u128], &'a mut [u128])>,
}

/// Garbles `items` instances of `op`'s 64-bit unit circuit with fresh
/// input masks and output shares, fanning the per-item garbling out in
/// one band per core of at most `par_band` items. The result is a pure
/// function of the `prg` state — the band size only controls
/// parallelism. Both halves of [`pregarble_for`] at 64 bits.
pub fn pregarble(
    op: MaskedOp,
    items: usize,
    prg: &mut Prg,
    par_band: usize,
) -> (PreGarbledClient, PreGarbledServer) {
    let (client, server) = pregarble_for(op, 64, items, prg, par_band, Halves::Both);
    (client.expect("both halves garbled"), server.expect("both halves garbled"))
}

/// Garbles `items` instances of `op`'s unit circuit at `bits`,
/// materialising only `halves`: each kept half is bit-identical to the
/// same half of the two-sided garbling, and `prg` ends at the same
/// position whichever halves were asked for. The draws do not depend on
/// `bits` beyond the labels: one 64-bit mask per input, one 64-bit
/// output share per item, one seed per item.
///
/// The client half *is* the garbling — tables, projection and the
/// evaluator's labels all come out of the gate walk — so
/// [`Halves::Client`] runs that walk and merely never stores Δ or the
/// garbler's zero labels. The server half depends on no gate at all:
/// [`Halves::Server`] draws Δ and the first `in_elems · bits` labels of
/// each item's own stream and never enters the walk or calls a gate
/// hash.
///
/// # Panics
///
/// Panics unless `2 ≤ bits ≤ 64`.
pub fn pregarble_for(
    op: MaskedOp,
    bits: usize,
    items: usize,
    prg: &mut Prg,
    par_band: usize,
    halves: Halves,
) -> (Option<PreGarbledClient>, Option<PreGarbledServer>) {
    let circuit = op.unit_circuit(bits);
    let in_elems = op.in_elems();
    let inputs = items * in_elems;
    let masks = prg.next_u64s(inputs);
    let out_share = prg.next_u64s(items);
    let seeds: Vec<[u8; 32]> = (0..items)
        .map(|_| {
            let mut s = [0u8; 32];
            prg.fill_bytes(&mut s);
            s
        })
        .collect();
    let online_wires = in_elems * bits;
    if halves == Halves::Server {
        // The walk's first draws for an item, in its order: Δ, then the
        // garbler's input labels — of which the online wires come first.
        let mut labels0 = Vec::with_capacity(inputs * bits);
        let mut deltas = Vec::with_capacity(items);
        for seed in seeds {
            let mut item = Prg::from_seed(seed);
            deltas.push(item.next_u128() | 1);
            labels0.extend((0..online_wires).map(|_| item.next_u128()));
        }
        return (None, Some(PreGarbledServer { op, bits, labels0, deltas, out_share }));
    }
    let (ands, outs) = (circuit.and_count(), circuit.output_count());
    let band = band_for(items, par_band, rayon::current_num_threads());
    let mut tables = vec![[0u128; 2]; items * ands];
    let mut eval_labels = vec![0u128; inputs * bits];
    let mut proj = vec![0u64; items * outs];
    let mut proj_base = vec![0u64; items];
    let mut server = halves.server().then(|| (vec![0u128; inputs * bits], vec![0u128; items]));
    let mut server_bands = server.as_mut().map(|(labels0, deltas)| {
        labels0.chunks_mut(band * online_wires).zip(deltas.chunks_mut(band))
    });
    let mut bands: Vec<Band<'_>> = tables
        .chunks_mut(band * ands)
        .zip(eval_labels.chunks_mut(band * online_wires))
        .zip(proj.chunks_mut(band * outs))
        .zip(proj_base.chunks_mut(band))
        .enumerate()
        .map(|(bi, (((tables, eval_labels), proj), proj_base))| {
            let (first, end) = (bi * band, items.min((bi + 1) * band));
            Band {
                seeds: &seeds[first..end],
                masks: &masks[first * in_elems..end * in_elems],
                out_share: &out_share[first..end],
                tables,
                eval_labels,
                proj,
                proj_base,
                server: server_bands.as_mut().and_then(Iterator::next),
            }
        })
        .collect();
    // One-slot chunks: the rayon shim only offers par_chunks_mut, so
    // this is its spelling of `bands.par_iter_mut()` — the `1` is not a
    // tuning knob; band sizing happens via `band` above.
    bands.par_chunks_mut(1).for_each(|chunk| {
        // The shape of `eval_pregarbled`: lock-step groups, then a K = 1
        // tail, one wire buffer per lane count.
        let band = &mut chunk[0];
        let (mut wide, mut narrow) = (Vec::new(), Vec::new());
        let mut at = 0;
        while band.seeds.len() - at >= LANES {
            garble_group::<LANES>(op, bits, band, at, &mut wide);
            at += LANES;
        }
        while at < band.seeds.len() {
            garble_group::<1>(op, bits, band, at, &mut narrow);
            at += 1;
        }
    });
    let client = PreGarbledClient { op, bits, masks, tables, eval_labels, proj, proj_base };
    let server =
        server.map(|(labels0, deltas)| PreGarbledServer { op, bits, labels0, deltas, out_share });
    (Some(client), server)
}

/// `l0` or its one-label `l0 ⊕ Δ`, by bit `bit` of `v`.
fn select(l0: u128, delta: u128, v: u64, bit: usize) -> u128 {
    l0 ^ if (v >> bit) & 1 == 1 { delta } else { 0 }
}

/// Garbles items `at .. at + K` of `band` in lock step
/// ([`garble_lanes`], then [`garble_projection`]) straight into the
/// band's output slices, with `zero` as the (resized-once) wire buffer:
/// tables and projection words land where the walks write them, and each
/// lane's projection offset, mask-selected evaluator labels and — when
/// the band keeps the server half — Δ and online zero labels are read
/// out of the wire buffer afterwards.
fn garble_group<const K: usize>(
    op: MaskedOp,
    bits: usize,
    band: &mut Band<'_>,
    at: usize,
    zero: &mut Vec<[u128; K]>,
) {
    let circuit = op.unit_circuit(bits);
    let (ands, outs, in_elems) = (circuit.and_count(), circuit.output_count(), op.in_elems());
    let online_wires = in_elems * bits;
    zero.resize(circuit.wire_count(), [0; K]);
    let mut prgs: [Prg; K] = from_fn(|k| Prg::from_seed(band.seeds[at + k]));
    let mut tables = band.tables[at * ands..(at + K) * ands].chunks_exact_mut(ands);
    let tables = from_fn(|_| tables.next().expect("K items of tables in the band"));
    let deltas = garble_lanes(circuit, prgs.each_mut(), tables, zero);
    let mut words = band.proj[at * outs..(at + K) * outs].chunks_exact_mut(outs);
    let words = from_fn(|_| words.next().expect("K items of projection words in the band"));
    let outputs = circuit.outputs().iter().map(|&w| zero[w]);
    let zero_points = garble_projection(outputs, bits, deltas, words);
    for (k, &delta) in deltas.iter().enumerate() {
        let i = at + k;
        let online = i * online_wires..(i + 1) * online_wires;
        band.proj_base[i] = band.out_share[i].wrapping_neg().wrapping_sub(zero_points[k]);
        let masks = &band.masks[i * in_elems..(i + 1) * in_elems];
        let zeros = lane(circuit.evaluator_inputs(), zero, k).enumerate();
        for (slot, (w, l0)) in band.eval_labels[online.clone()].iter_mut().zip(zeros) {
            *slot = select(l0, delta, masks[w / bits], w % bits);
        }
        if let Some((labels0, deltas)) = band.server.as_mut() {
            let zeros = lane(circuit.garbler_inputs(), zero, k);
            for (slot, l0) in labels0[online].iter_mut().zip(zeros) {
                *slot = l0;
            }
            deltas[i] = delta;
        }
    }
}

/// The low `⌈bits/8⌉` little-endian bytes of each value, back to back:
/// the `δ` frame.
fn pack_words(values: &[u64], bits: usize) -> Vec<u8> {
    let width = bits.div_ceil(8);
    values.iter().flat_map(|v| v.to_le_bytes().into_iter().take(width)).collect()
}

/// The inverse of [`pack_words`]: `raw` must hold exactly `n` values.
fn unpack_words(raw: &[u8], bits: usize, n: usize) -> Result<Vec<u64>> {
    let width = bits.div_ceil(8);
    if raw.len() != n * width {
        return Err(MpcError::Protocol(format!(
            "expected {n} masked inputs of {width} B, got a {}-byte frame",
            raw.len()
        )));
    }
    Ok(raw
        .chunks_exact(width)
        .map(|c| c.iter().rev().fold(0u64, |acc, &b| (acc << 8) | u64::from(b)))
        .collect())
}

fn pack_labels(labels: &[u128]) -> Vec<u8> {
    let mut out = Vec::with_capacity(labels.len() * 16);
    for l in labels {
        out.extend_from_slice(&l.to_le_bytes());
    }
    out
}

/// The garbler's active labels: `raw` must hold exactly `n` of them.
fn unpack_labels(raw: &[u8], n: usize) -> Result<Vec<u128>> {
    if raw.len() != 16 * n {
        return Err(MpcError::Protocol(format!(
            "expected {n} garbler labels, got a {}-byte frame",
            raw.len()
        )));
    }
    Ok(raw.chunks_exact(16).map(|c| u128::from_le_bytes(c.try_into().expect("16 bytes"))).collect())
}

/// Garbler (server) side of the online phase of one pre-garbled layer
/// over `k ≥ 1` evaluators, each with its own material and channel:
/// receives every member's `δ` flight (slice order), selects the active
/// labels for `x₁ + δ` of all members' unit circuits in one parallel
/// region (pure XOR — no garbling, no OT), answers each member's label
/// flight, and returns the dealt output shares `r`. Per member the wire
/// traffic is exactly one `δ`/label round trip.
///
/// Label selection is a per-wire conditional XOR with each member's own
/// material, so a member's labels and output share do not depend on who
/// else is in the run: `k` members in one call are bit-for-bit `k`
/// calls of one.
///
/// # Errors
///
/// Returns transport errors, or a protocol error when slice lengths or
/// any member's share disagrees with its material.
pub fn pre_gc_garbler_members<C: Channel + ?Sized>(
    eps: &[&C],
    mats: &[&PreGarbledServer],
    shares: &[&ShareVec],
) -> Result<Vec<ShareVec>> {
    let k = eps.len();
    if mats.len() != k || shares.len() != k || k == 0 {
        return Err(MpcError::BadConfig(format!(
            "pre_gc_garbler_members over {k} channels, {} materials, {} shares",
            mats.len(),
            shares.len()
        )));
    }
    let mut gs = Vec::with_capacity(k);
    for ((ep, mat), share) in eps.iter().zip(mats).zip(shares) {
        if share.len() != mat.inputs() {
            return Err(MpcError::Protocol(format!(
                "pre-garbled material for {} inputs, share has {}",
                mat.inputs(),
                share.len()
            )));
        }
        let frame = mat.inputs() * mat.bits.div_ceil(8);
        let raw = ep.recv_bytes_capped(frame).map_err(MpcError::from)?;
        let delta = unpack_words(&raw, mat.bits, mat.inputs())?;
        let g: Vec<u64> =
            share.as_raw().iter().zip(delta.iter()).map(|(&x1, &d)| x1.wrapping_add(d)).collect();
        gs.push(g);
    }
    // One parallel region selects the labels of all k members' circuits.
    let mut selected: Vec<Result<Vec<u128>>> = (0..k).map(|_| Ok(Vec::new())).collect();
    selected.par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
        slot[0] = mats[i].select_garbler_labels(&gs[i]);
    });
    let mut out = Vec::with_capacity(k);
    for ((labels, ep), mat) in selected.into_iter().zip(eps).zip(mats) {
        ep.send_bytes(&pack_labels(&labels?)).map_err(MpcError::from)?;
        out.push(ShareVec::from_raw(mat.out_share.clone()));
    }
    Ok(out)
}

/// [`pre_gc_garbler_members`] for one evaluator — the spelling the
/// repository benchmark times.
///
/// # Errors
///
/// As [`pre_gc_garbler_members`].
pub fn pre_gc_garbler<C: Channel + ?Sized>(
    ep: &C,
    mat: &PreGarbledServer,
    share: &ShareVec,
) -> Result<ShareVec> {
    let mut out = pre_gc_garbler_members(&[ep], &[mat], &[share])?;
    Ok(out.pop().expect("one member in, one share out"))
}

/// Evaluator (client) side of the online phase: sends `δ = x₀ − m`,
/// receives the garbler's active labels, evaluates every item (fanned
/// out in one band per core of at most `par_band` items) and returns
/// its output share `f(x) − r`.
///
/// # Errors
///
/// Returns transport errors, or a protocol error when frame sizes or
/// the share length disagree with the material.
pub fn pre_gc_evaluator<C: Channel + ?Sized>(
    ep: &C,
    mat: &PreGarbledClient,
    share: &ShareVec,
    par_band: usize,
) -> Result<ShareVec> {
    if share.len() != mat.inputs() {
        return Err(MpcError::Protocol(format!(
            "pre-garbled material for {} inputs, share has {}",
            mat.inputs(),
            share.len()
        )));
    }
    let delta: Vec<u64> =
        share.as_raw().iter().zip(mat.masks.iter()).map(|(&x0, &m)| x0.wrapping_sub(m)).collect();
    ep.send_bytes(&pack_words(&delta, mat.bits)).map_err(MpcError::from)?;
    let labels = mat.inputs() * mat.bits;
    let raw = ep.recv_bytes_capped(16 * labels).map_err(MpcError::from)?;
    eval_pregarbled(mat, &unpack_labels(&raw, labels)?, par_band)
}

/// Evaluates a pre-garbled batch given the garbler's active online
/// labels (exposed separately for benchmarking the evaluation kernel).
///
/// # Errors
///
/// Returns a protocol error when the label count disagrees with the
/// material.
pub fn eval_pregarbled(
    mat: &PreGarbledClient,
    garbler_labels: &[u128],
    par_band: usize,
) -> Result<ShareVec> {
    let items = mat.items();
    let wires = mat.inputs() * mat.bits;
    let circuit = mat.op.unit_circuit(mat.bits);
    if garbler_labels.len() != wires
        || mat.tables.len() != items * circuit.and_count()
        || mat.eval_labels.len() != wires
        || mat.proj.len() != items * circuit.output_count()
    {
        return Err(MpcError::Protocol("pre-garbled artifact counts disagree".into()));
    }
    let mut out = vec![0u64; items];
    let band = band_for(items, par_band, rayon::current_num_threads());
    out.par_chunks_mut(band).enumerate().for_each(|(bi, chunk)| {
        // One wire buffer per lane count, reused by every group of the
        // band (an empty Vec until a group of that width shows up).
        let (mut wide, mut narrow) = (Vec::new(), Vec::new());
        let mut first = bi * band;
        let mut groups = chunk.chunks_exact_mut(LANES);
        for group in groups.by_ref() {
            eval_group::<LANES>(mat, garbler_labels, first, &mut wide, group);
            first += LANES;
        }
        for slot in groups.into_remainder().chunks_exact_mut(1) {
            eval_group::<1>(mat, garbler_labels, first, &mut narrow, slot);
            first += 1;
        }
    });
    Ok(ShareVec::from_raw(out))
}

/// Items of a band garbled or evaluated per lock-step walk: enough
/// independent AES chains to cover the round latency (see
/// [`crate::prg::hash128_many`]).
const LANES: usize = 8;

/// The smallest band worth a thread of its own — a few lock-step groups,
/// well above what spawning a helper costs. A layer under twice this is
/// one band on the calling thread (the full model's 32-item layers).
const MIN_BAND: usize = 4 * LANES;

/// The band a layer of `items` is cut into: one band per thread, in
/// whole [`LANES`] groups, no band under [`MIN_BAND`] (fewer bands
/// instead) and none above `par_band`. Only parallelism hangs on it —
/// the per-item seeds are drawn before the fan-out and every band writes
/// its own slices, so the material and the result are the same at any
/// band.
fn band_for(items: usize, par_band: usize, threads: usize) -> usize {
    let bands = threads.min(items / MIN_BAND).max(1);
    items.div_ceil(bands).next_multiple_of(LANES).min(par_band).max(1)
}

/// Evaluates items `first .. first + K` of `mat` in lock step
/// ([`eval_lanes`], then [`eval_projection`]) into `out`, with `label` as
/// the (resized-once) wire buffer. Counts were validated by the caller.
fn eval_group<const K: usize>(
    mat: &PreGarbledClient,
    garbler_labels: &[u128],
    first: usize,
    label: &mut Vec<[u128; K]>,
    out: &mut [u64],
) {
    let circuit = mat.op.unit_circuit(mat.bits);
    let online_wires = mat.op.in_elems() * mat.bits;
    let (ands, outs) = (circuit.and_count(), circuit.output_count());
    label.resize(circuit.wire_count(), [0; K]);
    for k in 0..K {
        let online = (first + k) * online_wires..(first + k + 1) * online_wires;
        load_lane(circuit, label, k, &garbler_labels[online.clone()], &mat.eval_labels[online]);
    }
    let tables = from_fn(|k| &mat.tables[(first + k) * ands..(first + k + 1) * ands]);
    eval_lanes(circuit, tables, label);
    let words = from_fn(|k| &mat.proj[(first + k) * outs..(first + k + 1) * outs]);
    let sums = eval_projection(circuit.outputs().iter().map(|&w| label[w]), words);
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = mat.proj_base[first + k].wrapping_add(sums[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPoint;
    use crate::gc::{garble_open, select_labels, to_bits};
    use crate::share::{reconstruct, share_secret};
    use c2pi_transport::channel_pair;

    fn run_layer(
        op: MaskedOp,
        values: &[f32],
        seed: u64,
        par_band: usize,
    ) -> (Vec<u64>, c2pi_transport::TrafficSnapshot) {
        let fp = FixedPoint::default();
        let secret: Vec<u64> = values.iter().map(|&v| fp.encode(v)).collect();
        run_layer_at(op, 64, &secret, seed, par_band)
    }

    /// One online round of an `op` layer at `bits` on uniform 64-bit
    /// shares of `secret`: the reconstructed outputs and the traffic.
    fn run_layer_at(
        op: MaskedOp,
        bits: usize,
        secret: &[u64],
        seed: u64,
        par_band: usize,
    ) -> (Vec<u64>, c2pi_transport::TrafficSnapshot) {
        let mut prg = Prg::from_u64(seed);
        let (x0, x1) = share_secret(secret, &mut prg);
        let items = secret.len() / op.in_elems();
        let (cmat, smat) = pregarble_for(op, bits, items, &mut prg, par_band, Halves::Both);
        let (cmat, smat) = (cmat.unwrap(), smat.unwrap());
        let (client, server, counter) = channel_pair();
        let t = std::thread::spawn(move || pre_gc_garbler(&server, &smat, &x1).unwrap());
        let y0 = pre_gc_evaluator(&client, &cmat, &x0, par_band).unwrap();
        let y1 = t.join().unwrap();
        (reconstruct(&y0, &y1), counter.snapshot())
    }

    /// The reference the lane walk is held to: the same layer garbled
    /// one item at a time, each a lone `garble_open` and a `K = 1`
    /// projection on its own seed, with every field of both halves
    /// assembled from the open garbling.
    fn pregarble_per_item(
        op: MaskedOp,
        bits: usize,
        items: usize,
        prg: &mut Prg,
    ) -> (PreGarbledClient, PreGarbledServer) {
        let in_elems = op.in_elems();
        let masks = prg.next_u64s(items * in_elems);
        let out_share = prg.next_u64s(items);
        let mut client = PreGarbledClient {
            op,
            bits,
            masks,
            tables: Vec::new(),
            eval_labels: Vec::new(),
            proj: Vec::new(),
            proj_base: Vec::new(),
        };
        let mut server =
            PreGarbledServer { op, bits, labels0: Vec::new(), deltas: Vec::new(), out_share };
        for i in 0..items {
            let open = garble_open(op.unit_circuit(bits), &mut prg.fork());
            let m_bits: Vec<bool> = client.masks[i * in_elems..(i + 1) * in_elems]
                .iter()
                .flat_map(|&m| to_bits(m, bits))
                .collect();
            let mut words = vec![0u64; open.output_zero.len()];
            let outputs = open.output_zero.iter().map(|&l| [l]);
            let [zero_point] = garble_projection(outputs, bits, [open.delta], [&mut words]);
            client.eval_labels.extend(select_labels(&open.evaluator_label_pairs, &m_bits));
            client.tables.extend(open.tables);
            client.proj.extend(words);
            client.proj_base.push(server.out_share[i].wrapping_neg().wrapping_sub(zero_point));
            server.labels0.extend(open.garbler_label_pairs.iter().map(|p| p.0));
            server.deltas.push(open.delta);
        }
        (client, server)
    }

    /// Item `i` of `mat` evaluated alone: the `K = 1` walk and the `K = 1`
    /// projection on the item's own slices.
    fn eval_item(mat: &PreGarbledClient, garbler_labels: &[u128], i: usize) -> u64 {
        let circuit = mat.op.unit_circuit(mat.bits);
        let (ands, outs) = (circuit.and_count(), circuit.output_count());
        let wires = mat.op.in_elems() * mat.bits;
        let online = i * wires..(i + 1) * wires;
        let mut label = vec![[0u128; 1]; circuit.wire_count()];
        load_lane(
            circuit,
            &mut label,
            0,
            &garbler_labels[online.clone()],
            &mat.eval_labels[online],
        );
        eval_lanes(circuit, [&mat.tables[i * ands..(i + 1) * ands]], &mut label);
        let outputs = lane(circuit.outputs(), &label, 0).map(|l| [l]);
        let [sum] = eval_projection(outputs, [&mat.proj[i * outs..(i + 1) * outs]]);
        mat.proj_base[i].wrapping_add(sum)
    }

    fn assert_client_eq(got: &PreGarbledClient, want: &PreGarbledClient, at: &str) {
        assert_eq!((got.op, got.bits), (want.op, want.bits), "{at}");
        assert_eq!(got.masks, want.masks, "{at}: masks");
        assert_eq!(got.tables, want.tables, "{at}: tables");
        assert_eq!(got.eval_labels, want.eval_labels, "{at}: evaluator labels");
        assert_eq!(got.proj, want.proj, "{at}: projection words");
        assert_eq!(got.proj_base, want.proj_base, "{at}: projection offsets");
    }

    fn assert_server_eq(got: &PreGarbledServer, want: &PreGarbledServer, at: &str) {
        assert_eq!((got.op, got.bits), (want.op, want.bits), "{at}");
        assert_eq!(got.labels0, want.labels0, "{at}: zero labels");
        assert_eq!(got.deltas, want.deltas, "{at}: Δ");
        assert_eq!(got.out_share, want.out_share, "{at}: r");
    }

    #[test]
    fn offline_garbled_relu_matches_plaintext() {
        let fp = FixedPoint::default();
        let values = vec![-3.0f32, -0.5, -0.001, 0.0, 0.001, 0.5, 3.0, 10.0];
        let (y, traffic) = run_layer(MaskedOp::Relu, &values, 5, 3);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(y[i], fp.encode(v.max(0.0)), "relu({v})");
        }
        // The whole layer is one round trip: δ up, labels down.
        assert_eq!(traffic.flights, 2);
        assert_eq!(traffic.messages, 2);
        assert_eq!(traffic.bytes_client_to_server, 8 * values.len() as u64);
        assert_eq!(traffic.bytes_server_to_client, 16 * 64 * values.len() as u64);
    }

    #[test]
    fn offline_garbled_maxpool_matches_plaintext() {
        let fp = FixedPoint::default();
        let values = vec![1.0f32, -2.0, 0.5, 0.75, -1.0, -2.0, -3.0, -0.25];
        let (y, traffic) = run_layer(MaskedOp::Maxpool4, &values, 7, 1);
        assert_eq!(y.len(), 2);
        assert_eq!(y[0], fp.encode(1.0));
        assert_eq!(y[1], fp.encode(-0.25));
        assert_eq!(traffic.flights, 2);
    }

    #[test]
    fn band_size_does_not_change_the_material_or_the_result() {
        // Parallel fan-out must be invisible: the per-item seeds are
        // drawn sequentially, so any band size garbles identically.
        let values: Vec<f32> = (0..13).map(|i| i as f32 - 6.0).collect();
        let (a, _) = run_layer(MaskedOp::Relu, &values, 11, 1);
        let (b, _) = run_layer(MaskedOp::Relu, &values, 11, 4);
        let (c, _) = run_layer(MaskedOp::Relu, &values, 11, 64);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn lock_step_equals_per_item_equals_plaintext_at_every_band_and_remainder() {
        // Item counts on both sides of the lane width (full groups, a
        // K = 1 tail, both), bands that cut groups short, and every unit
        // circuit. The material first: every band and every `Halves`
        // garbles, item for item, what the item garbles alone. Then three
        // independent routes to every output share: the lock-step walk,
        // one `K = 1` walk and projection per item, and the plaintext
        // circuit less `r` — which also pins that the lane-batched
        // garbling hashes produced tables and projection words the
        // evaluator's hashes open. 69 items at the default band (1 024)
        // are one band per core on a multi-core host, the second band
        // ending in a K = 1 tail.
        //
        // At every width the values span the unit's whole domain, edges
        // first: a ReLU's `[−2^(w−1), 2^(w−1))`, a max's
        // `[−2^(w−2), 2^(w−2))`, whose extremes differ by the largest
        // `|a − b| < 2^(w−1)` its comparator is exact for.
        const BANDS: [usize; 4] = [1, 3, 8, 1024];
        for bits in [8, 24, 32, 64] {
            for op in [MaskedOp::Relu, MaskedOp::Maxpool4, MaskedOp::MaxpoolRelu4] {
                lock_step_equals_per_item_equals_plaintext(op, bits, &BANDS);
            }
        }
    }

    /// The values a unit at `bits` is exact on, `n` of them: its two
    /// extremes first, then uniform draws from between them.
    fn domain_values(op: MaskedOp, bits: usize, n: usize, seed: u64) -> Vec<u64> {
        let top = if op == MaskedOp::Relu { bits - 1 } else { bits - 2 };
        let (lo, span) = (-(1i128 << top), 1u128 << (top + 1));
        let mut prg = Prg::from_u64(seed);
        let edges = [lo, -lo - 1].into_iter();
        let draws = std::iter::repeat_with(|| lo + (u128::from(prg.next_u64()) % span) as i128);
        edges.chain(draws).take(n).map(|v| v as i64 as u64).collect()
    }

    /// The ring value a unit's output bits decode to: the projection's
    /// weights, `2ʲ`, and `−2^(bits−1)` on a top output.
    fn decode(out: &[bool], bits: usize) -> u64 {
        out.iter().enumerate().fold(0u64, |acc, (j, &v)| {
            let weight = if j + 1 == bits { (1u64 << j).wrapping_neg() } else { 1 << j };
            acc.wrapping_add(if v { weight } else { 0 })
        })
    }

    fn lock_step_equals_per_item_equals_plaintext(op: MaskedOp, bits: usize, bands: &[usize]) {
        let circuit = op.unit_circuit(bits);
        for items in [1usize, 7, 8, 9, 23, 69] {
            let seed = 1000 + items as u64;
            // Lane k of a group ≡ the item garbled alone, whatever the
            // band cut and whichever halves were kept.
            let (cmat, smat) = pregarble_per_item(op, bits, items, &mut Prg::from_u64(seed));
            for &band in bands {
                for halves in [Halves::Both, Halves::Client, Halves::Server] {
                    let at = format!("{op:?}@{bits} × {items} at band {band}, {halves:?}");
                    let (c, s) =
                        pregarble_for(op, bits, items, &mut Prg::from_u64(seed), band, halves);
                    assert_eq!((c.is_some(), s.is_some()), (halves.client(), halves.server()));
                    if let Some(c) = c {
                        assert_client_eq(&c, &cmat, &at);
                    }
                    if let Some(s) = s {
                        assert_server_eq(&s, &smat, &at);
                    }
                }
            }
            let x = domain_values(op, bits, cmat.inputs(), seed ^ 0xABCD);
            let g: Vec<u64> = x.iter().zip(&cmat.masks).map(|(x, m)| x.wrapping_sub(*m)).collect();
            let labels = smat.select_garbler_labels(&g).unwrap();

            let mut per_item = Vec::new();
            let mut plain = Vec::new();
            for i in 0..items {
                let elems = i * op.in_elems()..(i + 1) * op.in_elems();
                per_item.push(eval_item(&cmat, &labels, i));
                let low =
                    |v: &[u64]| -> Vec<bool> { v.iter().flat_map(|&v| to_bits(v, bits)).collect() };
                let out = circuit
                    .eval_plain(&low(&g[elems.clone()]), &low(&cmat.masks[elems.clone()]))
                    .unwrap();
                let value = decode(&out, bits);
                plain.push(value.wrapping_sub(smat.out_share[i]));
                // And the plaintext circuit means what it should.
                let signed = x[elems].iter().map(|&v| v as i64);
                let want = match op {
                    MaskedOp::Relu | MaskedOp::MaxpoolRelu4 => signed.max().unwrap().max(0),
                    MaskedOp::Maxpool4 => signed.max().unwrap(),
                };
                assert_eq!(value, want as u64, "{op:?}@{bits} item {i}");
            }
            assert_eq!(per_item, plain, "{op:?}@{bits} × {items}");
            for &band in bands {
                let y = eval_pregarbled(&cmat, &labels, band).unwrap();
                assert_eq!(y.as_raw(), &per_item[..], "{op:?}@{bits} × {items} at band {band}");
            }
        }
    }

    #[test]
    fn a_layer_is_one_band_per_thread_in_whole_lane_groups() {
        for threads in [1usize, 2, 4, 16] {
            for items in [1usize, 7, 8, 31, 32, 96, 192, 384, 1024, 1025, 5000] {
                for par_band in [LANES, 1024] {
                    let at = format!("{items} items, {threads} threads, par_band {par_band}");
                    let band = band_for(items, par_band, threads);
                    let bands: Vec<usize> =
                        (0..items).step_by(band).map(|first| band.min(items - first)).collect();
                    assert_eq!(bands.iter().sum::<usize>(), items, "{at}: cover");
                    let (_, full) = bands.split_last().expect("a layer is at least one band");
                    assert!(full.iter().all(|b| b % LANES == 0), "{at}: {bands:?} cut a group");
                    assert!(bands.iter().all(|&b| b <= par_band), "{at}: {bands:?}");
                    if items <= par_band * threads {
                        assert!(bands.len() <= threads, "{at}: {} bands", bands.len());
                    }
                    if !full.is_empty() {
                        assert!(
                            items >= 2 * MIN_BAND || par_band < items,
                            "{at}: a small layer split"
                        );
                        assert!(
                            band >= MIN_BAND.min(par_band),
                            "{at}: band {band} under the floor"
                        );
                    }
                }
            }
        }
        // The split's per-layer sizes on two cores (two fused pool
        // layers of 256 and 96 windows, then 192 ReLUs): every layer two
        // bands. The full model adds 128 ReLUs (two bands) and layers
        // under two minimum bands, which stay whole: fused 32 and 8,
        // ReLU 32 and the head's 16.
        for (items, halves) in [(256, 128), (96, 48), (192, 96), (128, 64)] {
            assert_eq!(band_for(items, 1024, 2), halves, "{items} items");
        }
        for items in [32, 8, 16] {
            assert_eq!(band_for(items, 1024, 2), items, "{items} items stay one band");
        }
        assert_eq!(band_for(32, 1024, 16), 32, "the full model's 32-item layers stay whole");
    }

    #[test]
    fn sided_garbling_is_the_same_half_of_the_two_sided_garbling() {
        // Skip, don't reorder: whichever halves are kept, each equals
        // the same half of `pregarble` field for field, and the caller's
        // PRG yields the same next word afterwards.
        for op in [MaskedOp::Relu, MaskedOp::Maxpool4, MaskedOp::MaxpoolRelu4] {
            for items in [1usize, 7, 8, 9, 23] {
                for band in [1usize, 3, 8, 1024] {
                    let seed = 2000 + items as u64;
                    let mut prg = Prg::from_u64(seed);
                    let (c, s) = pregarble(op, items, &mut prg, band);
                    let next = prg.next_u64();
                    let at = format!("{op:?} × {items} at band {band}");
                    // The two-sided set is itself the per-item garbling,
                    // and ends the layer's stream where that does.
                    let mut lone = Prg::from_u64(seed);
                    let (c1, s1) = pregarble_per_item(op, 64, items, &mut lone);
                    assert_client_eq(&c, &c1, &at);
                    assert_server_eq(&s, &s1, &at);
                    assert_eq!(lone.next_u64(), next, "{at}: stream position per item");

                    let mut prg = Prg::from_u64(seed);
                    let (client, none) =
                        pregarble_for(op, 64, items, &mut prg, band, Halves::Client);
                    assert!(none.is_none(), "{at}: a client-sided garbling holds no Δ");
                    assert_client_eq(&client.unwrap(), &c, &at);
                    assert_eq!(prg.next_u64(), next, "{at}: stream position after client");

                    let mut prg = Prg::from_u64(seed);
                    let (none, server) =
                        pregarble_for(op, 64, items, &mut prg, band, Halves::Server);
                    assert!(none.is_none(), "{at}: a server-sided garbling holds no tables");
                    assert_server_eq(&server.unwrap(), &s, &at);
                    assert_eq!(prg.next_u64(), next, "{at}: stream position after server");
                }
            }
        }
    }

    #[test]
    fn k_evaluators_in_one_run_are_bit_identical_to_k_runs_of_one() {
        // Three members, each with independently drawn material and
        // shares. One run over all three must send every member the
        // exact label flight (and return the exact out-share) that
        // three runs of one produce.
        let fp = FixedPoint::default();
        let members: Vec<Vec<f32>> = vec![
            vec![-3.0, -0.5, 0.0, 2.5],
            vec![10.0, -10.0, 0.25, -0.25],
            vec![1.0, 2.0, 3.0, -4.0],
        ];
        let mut prg = Prg::from_u64(41);
        let mut cmats = Vec::new();
        let mut smats = Vec::new();
        let mut x0s = Vec::new();
        let mut x1s = Vec::new();
        for vals in &members {
            let secret: Vec<u64> = vals.iter().map(|&v| fp.encode(v)).collect();
            let (x0, x1) = share_secret(&secret, &mut prg);
            let (cmat, smat) = pregarble(MaskedOp::Relu, vals.len(), &mut prg, 2);
            cmats.push(cmat);
            smats.push(smat);
            x0s.push(x0);
            x1s.push(x1);
        }
        // Reference: runs of one on clones of the same material and
        // shares.
        let mut ref_y = Vec::new();
        for i in 0..members.len() {
            let (client, server, _) = channel_pair();
            let smat = smats[i].clone();
            let x1 = x1s[i].clone();
            let t = std::thread::spawn(move || pre_gc_garbler(&server, &smat, &x1).unwrap());
            let y0 = pre_gc_evaluator(&client, &cmats[i], &x0s[i], 2).unwrap();
            let y1 = t.join().unwrap();
            ref_y.push(reconstruct(&y0, &y1));
        }
        // One garbler thread over all three channels.
        let mut servers = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..members.len() {
            let (c, s, _) = channel_pair();
            clients.push(c);
            servers.push(s);
        }
        let smats_cl = smats.clone();
        let x1s_cl = x1s.clone();
        let t = std::thread::spawn(move || {
            let eps: Vec<&_> = servers.iter().collect();
            let mats: Vec<&PreGarbledServer> = smats_cl.iter().collect();
            let shares: Vec<&ShareVec> = x1s_cl.iter().collect();
            pre_gc_garbler_members(&eps, &mats, &shares).unwrap()
        });
        let mut eval_threads = Vec::new();
        for ((client, cmat), x0) in clients.into_iter().zip(cmats).zip(x0s) {
            eval_threads.push(std::thread::spawn(move || {
                pre_gc_evaluator(&client, &cmat, &x0, 2).unwrap()
            }));
        }
        let y1s = t.join().unwrap();
        for (i, (et, y1)) in eval_threads.into_iter().zip(y1s).enumerate() {
            let y0 = et.join().unwrap();
            assert_eq!(reconstruct(&y0, &y1), ref_y[i], "member {i} diverged");
            for (j, &v) in members[i].iter().enumerate() {
                assert_eq!(ref_y[i][j], fp.encode(v.max(0.0)), "relu({v})");
            }
        }
        // Length mismatches rejected up front.
        let (_, lone, _) = channel_pair();
        let eps: Vec<&_> = vec![&lone];
        assert!(pre_gc_garbler_members(&eps, &[], &[]).is_err());
    }

    #[test]
    fn mismatched_share_lengths_are_rejected() {
        let mut prg = Prg::from_u64(23);
        let (cmat, smat) = pregarble(MaskedOp::Relu, 4, &mut prg, 2);
        let (client, server, _) = channel_pair();
        let bad = ShareVec::from_raw(vec![1, 2, 3]);
        assert!(pre_gc_evaluator(&client, &cmat, &bad, 2).is_err());
        assert!(pre_gc_garbler(&server, &smat, &bad).is_err());
    }

    #[test]
    fn online_frames_of_the_wrong_size_are_refused_before_any_reply() {
        // Two ReLU items at each width: the garbler expects two δ values
        // of ⌈w/8⌉ B, the evaluator 2·w labels of 16 B. A frame over its
        // exact size is the transport's typed decode error (over TCP the
        // length prefix is refused before the payload is read); a short
        // or ragged one is a protocol error.
        use c2pi_transport::TransportError;
        let oversize =
            |r: &Result<ShareVec>| matches!(r, Err(MpcError::Transport(TransportError::Decode(_))));
        for bits in [8, 24, 32, 64] {
            let (cmat, smat) =
                pregarble_for(MaskedOp::Relu, bits, 2, &mut Prg::from_u64(31), 2, Halves::Both);
            let (cmat, smat) = (cmat.unwrap(), smat.unwrap());
            let share = ShareVec::from_raw(vec![5, 7]);
            let honest = 2 * bits.div_ceil(8);
            for (len, over) in [(0, false), (honest - 1, false), (honest + 1, true)] {
                let (client, server, counter) = channel_pair();
                client.send_bytes(&vec![0; len]).unwrap();
                let r = pre_gc_garbler(&server, &smat, &share);
                let at = format!("{bits} bits, {len}-byte δ frame: {r:?}");
                assert!(
                    if over { oversize(&r) } else { matches!(r, Err(MpcError::Protocol(_))) },
                    "{at}"
                );
                assert_eq!(counter.snapshot().bytes_server_to_client, 0, "{at}: no labels sent");
            }
            let honest = 2 * bits * 16;
            let malformed: [(&str, usize, bool); 4] = [
                ("empty", 0, false),
                ("one label short", honest - 16, false),
                ("not a multiple of 16 B", honest - 8, false),
                ("one byte over", honest + 1, true),
            ];
            for (what, len, over) in malformed {
                let (client, server, _) = channel_pair();
                server.send_bytes(&vec![0; len]).unwrap();
                let r = pre_gc_evaluator(&client, &cmat, &share, 2);
                let at = format!("{bits} bits, {what} label frame: {r:?}");
                assert!(
                    if over { oversize(&r) } else { matches!(r, Err(MpcError::Protocol(_))) },
                    "{at}"
                );
            }
            // The honest all-zero frame of the same shape goes through.
            let (client, server, _) = channel_pair();
            server.send_bytes(&vec![0; honest]).unwrap();
            assert_eq!(pre_gc_evaluator(&client, &cmat, &share, 2).unwrap().len(), 2);
        }
    }

    #[test]
    fn oversize_frames_over_tcp_are_refused_at_the_prefix() {
        // A stand-in peer on a real socket sends one byte over each read's
        // exact size: the δ read and the label read return the typed
        // decode error.
        use c2pi_transport::{tcp_loopback_pair, TransportError};
        let bits = 24;
        let (cmat, smat) =
            pregarble_for(MaskedOp::Maxpool4, bits, 3, &mut Prg::from_u64(7), 2, Halves::Both);
        let (cmat, smat) = (cmat.unwrap(), smat.unwrap());
        let share = ShareVec::from_raw(vec![0; 12]);
        let decode =
            |r: Result<ShareVec>| matches!(r, Err(MpcError::Transport(TransportError::Decode(_))));
        let (client, server, _) = tcp_loopback_pair().unwrap();
        client.send_bytes(&[0; 12 * 3 + 1]).unwrap();
        assert!(decode(pre_gc_garbler(&server, &smat, &share)));
        let (client, server, _) = tcp_loopback_pair().unwrap();
        server.send_bytes(&vec![0; 12 * bits * 16 + 1]).unwrap();
        assert!(decode(pre_gc_evaluator(&client, &cmat, &share, 2)));
    }

    #[test]
    fn every_width_computes_its_units_online_on_uniform_ring_shares() {
        // The whole round — δ up, labels down, evaluation and projection
        // — at each width on shares uniform in the 64-bit ring, at the
        // domain's edges: a unit reads only the shares' low bits, and its
        // output share is a ring word. Per input the round moves ⌈w/8⌉ B
        // of δ and w labels of 16 B.
        for bits in [8, 24, 32, 64] {
            for op in [MaskedOp::Relu, MaskedOp::Maxpool4, MaskedOp::MaxpoolRelu4] {
                let secret = domain_values(op, bits, 4 * 9, 300 + bits as u64);
                let (y, traffic) = run_layer_at(op, bits, &secret, 17, 8);
                let want: Vec<u64> = secret
                    .chunks_exact(op.in_elems())
                    .map(|item| {
                        let max = item.iter().map(|&v| v as i64).max().unwrap();
                        (if op == MaskedOp::Maxpool4 { max } else { max.max(0) }) as u64
                    })
                    .collect();
                assert_eq!(y, want, "{op:?} at {bits} bits");
                let n = secret.len() as u64;
                assert_eq!(traffic.bytes_client_to_server, n * bits.div_ceil(8) as u64);
                assert_eq!(traffic.bytes_server_to_client, n * bits as u64 * 16);
                assert_eq!(traffic.flights, 2);
            }
        }
    }

    #[test]
    fn expanded_bytes_reflect_half_gates_and_delta_compression() {
        // The dealt-material accounting the planner prices: two-row
        // tables on the client half, one-label-plus-Δ on the server
        // half. A classic 4-row/full-pair layout would double both the
        // table term and the server labels.
        let mut prg = Prg::from_u64(37);
        for bits in [8, 24, 32, 64] {
            let (cmat, smat) = pregarble_for(MaskedOp::Relu, bits, 2, &mut prg, 1, Halves::Both);
            let (cmat, smat) = (cmat.unwrap(), smat.unwrap());
            // Per item: its mask at ⌈w/8⌉ B, 2w − 2 tables, w labels and
            // (w − 1) + 1 projection words.
            let want =
                2 * bits.div_ceil(8) + 2 * (2 * bits - 2) * 32 + 2 * bits * 16 + 2 * bits * 8;
            assert_eq!(cmat.expanded_bytes(), want as u64, "{bits} bits");
            assert_eq!(
                smat.expanded_bytes(),
                (2 * bits * 16 + 2 * 16 + 2 * 8) as u64,
                "{bits} bits"
            );
            // The shape arithmetic a sided deal reports is the two halves'.
            for (op, items) in
                [(MaskedOp::Relu, 2), (MaskedOp::Maxpool4, 5), (MaskedOp::MaxpoolRelu4, 3)]
            {
                let (cmat, smat) = pregarble_for(op, bits, items, &mut prg, 1, Halves::Both);
                let held = cmat.unwrap().expanded_bytes() + smat.unwrap().expanded_bytes();
                assert_eq!(op.expanded_bytes(items, bits), held, "{op:?} at {bits} bits");
            }
        }
        assert!(MaskedOp::Relu.xors_per_item(64) > 0);
    }

    #[test]
    fn garbled_table_sizes_per_item_are_pinned() {
        // Half-gates keeps an AND at two 16-byte rows and an XOR at
        // none; a garbling-scheme or circuit change that moves the
        // dealt table bytes per item (in either direction) must change
        // these numbers on purpose. ReLU at w bits: the reconstruction
        // adder's w − 1 and the mux's w − 1 (the top bit is 0). Max: four
        // (w − 1)-AND adders and three (2w − 1)-AND maxes. The fused
        // unit: the max's and a ReLU mux's w − 1, against the max's and
        // 2w − 2 as two layers. None re-masks: the projection does.
        // `(bits, [ANDs], [projection words])` for ReLU, max, fused.
        let rows: [(usize, [usize; 3], [usize; 3]); 4] = [
            (8, [14, 73, 80], [8, 9, 8]),
            (24, [46, 233, 256], [24, 25, 24]),
            (32, [62, 313, 344], [32, 33, 32]),
            (64, [126, 633, 696], [64, 65, 64]),
        ];
        let ops = [MaskedOp::Relu, MaskedOp::Maxpool4, MaskedOp::MaxpoolRelu4];
        for (bits, ands, words) in rows {
            assert_eq!(ops.map(|op| op.ands_per_item(bits)), ands, "{bits} bits");
            assert_eq!(ops.map(|op| op.proj_words_per_item(bits)), words, "{bits} bits");
            assert_eq!(ands, [2 * bits - 2, 10 * bits - 7, 11 * bits - 8], "{bits} bits");
        }
        // And the wire buffer a walk keeps hot, after slot reuse (506 and
        // 3 289 wires, one per gate, before it): eight lanes of 16 B make
        // these 25 kB and 99 kB. A builder change that bloats them shows
        // here before it shows as cache misses. The fused unit's ReLU
        // reuses the max's slots.
        assert_eq!(MaskedOp::Relu.unit_circuit(64).wire_count(), 194);
        assert_eq!(MaskedOp::Maxpool4.unit_circuit(64).wire_count(), 771);
        assert_eq!(MaskedOp::MaxpoolRelu4.unit_circuit(64).wire_count(), 771);
        assert_eq!(MaskedOp::Relu.unit_circuit(24).wire_count(), 74);
        assert_eq!(MaskedOp::Maxpool4.unit_circuit(24).wire_count(), 291);
        assert_eq!(MaskedOp::MaxpoolRelu4.unit_circuit(24).wire_count(), 291);
        assert_eq!(MaskedOp::Relu.ands_per_item(64) * crate::gc::AND_TABLE_BYTES, 4_032);
        assert_eq!(MaskedOp::Maxpool4.ands_per_item(64) * crate::gc::AND_TABLE_BYTES, 20_256);
        assert_eq!(MaskedOp::MaxpoolRelu4.ands_per_item(64) * crate::gc::AND_TABLE_BYTES, 22_272);
        assert_eq!(MaskedOp::MaxpoolRelu4.ands_per_item(24) * crate::gc::AND_TABLE_BYTES, 8_192);
    }

    #[test]
    fn server_half_matches_its_known_answer() {
        // Captured at the commit before the arithmetic projection landed:
        // the garbler's half — Δ, the zero labels of its online wires and
        // its output share `r` — and the layer stream's position after it
        // did not move when the client half lost its `−r` labels and
        // decode bits. The online frames and the garbler's share are
        // functions of exactly these, so they did not move either.
        type Kat = (MaskedOp, [u128; 2], [u128; 2], [u64; 2], u64);
        let kats: [Kat; 3] = [
            (
                MaskedOp::Relu,
                [0xbe1c514cd2acda2acd46874979c6357d, 0xff66171ff57ca61df05b793e10bc4dbc],
                [0x9935c315fb537533ff1ca13f090d651f, 0x1f8831be3fdfae39c5cf516241989a29],
                [0x8700f53d966b85b2, 0xff853de6669a2ff7],
                0x203ecb44b4e5113b,
            ),
            (
                MaskedOp::Maxpool4,
                [0xb98868026d67bc439e437755dc647183, 0x0fe43b55c2bc77c7c0e0389bc511552b],
                [0xf664982af22d0c57dc7d868f6322e153, 0xff0d5b51585b73c2ce0dc085bc23e9e5],
                [0x50e53c59de0635f3, 0xda86c0bc11bc21c4],
                0xc506fa240bd69447,
            ),
            // The fused unit has the max's inputs, and the garbler's half
            // is drawn before any gate: it is the max's, word for word.
            (
                MaskedOp::MaxpoolRelu4,
                [0xb98868026d67bc439e437755dc647183, 0x0fe43b55c2bc77c7c0e0389bc511552b],
                [0xf664982af22d0c57dc7d868f6322e153, 0xff0d5b51585b73c2ce0dc085bc23e9e5],
                [0x50e53c59de0635f3, 0xda86c0bc11bc21c4],
                0xc506fa240bd69447,
            ),
        ];
        for (op, labels0, deltas, out_share, next) in kats {
            for halves in [Halves::Both, Halves::Server] {
                let mut prg = Prg::from_u64(0xC2B1);
                let (_, s) = pregarble_for(op, 64, 9, &mut prg, 1024, halves);
                let s = s.expect("a server half");
                let at = format!("{op:?}, {halves:?}");
                assert_eq!([s.labels0[0], s.labels0[s.labels0.len() - 1]], labels0, "{at}");
                assert_eq!([s.deltas[0], s.deltas[8]], deltas, "{at}");
                assert_eq!([s.out_share[0], s.out_share[8]], out_share, "{at}");
                assert_eq!(prg.next_u64(), next, "{at}: stream position");
            }
        }
    }

    #[test]
    fn projection_words_for_a_constant_input_are_not_constant() {
        // Besides the labels, what the evaluator holds of an item is its
        // projection words and offset; for a constant input neither may
        // be constant across items, nor the share they decode to.
        let items = 32;
        let mut prg = Prg::from_u64(43);
        let (cmat, smat) = pregarble(MaskedOp::Relu, items, &mut prg, 8);
        let x0 = ShareVec::from_raw(vec![42u64; items]);
        let g: Vec<u64> =
            cmat.masks.iter().zip(x0.as_raw()).map(|(&m, &x)| x.wrapping_sub(m)).collect();
        let y0 = eval_pregarbled(&cmat, &smat.select_garbler_labels(&g).unwrap(), 8).unwrap();
        let outs = MaskedOp::Relu.proj_words_per_item(64) - 1;
        let distinct = |v: Vec<u64>| v.into_iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct(cmat.proj_base.clone()) > 16, "U looks non-uniform");
        for j in [0, 1, outs / 2, outs - 1] {
            let column = (0..items).map(|i| cmat.proj[i * outs + j]).collect();
            assert!(distinct(column) > 16, "T_{j} looks non-uniform");
        }
        assert!(distinct(y0.as_raw().to_vec()) > 16, "the client share looks non-uniform");
        // Reconstructed, the shares still agree on relu(42 + x₁).
        assert!(y0.as_raw().iter().zip(&smat.out_share).all(|(a, b)| a.wrapping_add(*b) == 42));
    }

    #[test]
    fn delta_is_uniformly_masked() {
        // The one value-dependent message the evaluator sends is δ =
        // x₀ − m; for a constant input it must not be constant.
        let mut prg = Prg::from_u64(29);
        let (cmat, _) = pregarble(MaskedOp::Relu, 32, &mut prg, 8);
        let x0 = ShareVec::from_raw(vec![42u64; 32]);
        let deltas: Vec<u64> =
            x0.as_raw().iter().zip(cmat.masks.iter()).map(|(&x, &m)| x.wrapping_sub(m)).collect();
        let distinct: std::collections::HashSet<&u64> = deltas.iter().collect();
        assert!(distinct.len() > 16, "δ looks non-uniform: {distinct:?}");
    }
}
