//! Offline-garbled masked non-linearities — the Delphi phase split done
//! properly: **no garbling, no base OTs and no table transfer on the
//! online path**.
//!
//! The trick (Mishra et al., USENIX Security 2020) is to make the
//! *evaluator's* circuit input a value that exists before the input
//! does. During preprocessing the dealer samples a uniform mask `m` per
//! input element and an output mask `r` per item, garbles the masked
//! circuit (the walk behind [`crate::gc::garble_open`]) and fixes
//! everything that is already known:
//!
//! * the evaluator's active labels for the bits of `m` (with a trusted
//!   dealer these are dealt directly; a real deployment transfers them
//!   with the session-long IKNP extension of [`crate::ot`], whose
//!   traffic the engine charges to the offline phase);
//! * the garbler's active labels for the output-mask input `−r`;
//! * the AND tables and output-decode bits, handed to the evaluator.
//!
//! Only the garbler's *value-dependent* input wires stay open: their
//! label **pairs** go into the garbler's half. Online, per layer:
//!
//! 1. evaluator → garbler: `δ = x₀ − m` (one frame, 8 bytes/element);
//! 2. garbler → evaluator: the active labels for `g = x₁ + δ = x − m`
//!    (one frame, 16 bytes/label) — selecting labels is an XOR, the
//!    garbler does no cryptographic work;
//! 3. the evaluator evaluates every item and decodes its output share
//!    `f(x) − r`; the garbler's share is `r`. Items are cut into bands
//!    of `par_band`: a layer that fits one band runs on the calling
//!    thread, a larger one spreads its bands evenly over the cores.
//!    Inside a band, items advance eight at a time in lock step
//!    (`gc::eval_lanes`) — they are garblings of one circuit, so an AND
//!    gate hashes eight independent labels per batch.
//!
//! Offline garbling has the same shape ([`pregarble_for`]): bands over
//! the cores, and inside a band groups of eight items on one walk
//! (`gc::garble_lanes`, four eight-lane hash batches per AND) and a
//! one-item tail on the same function. Each lane draws from its own
//! item's seed, and the walk writes tables straight into the band's
//! slice of the layer's arrays; labels and decode bits are read out of
//! the wire buffer afterwards. No per-item artifact exists in between.
//!
//! `δ` is uniform (masked by `m`) and the labels reveal exactly one
//! circuit path, so the online messages leak nothing beyond the
//! standard garbled-circuit guarantees. One round trip per layer, total.
//!
//! Items (one ReLU element, one 4-way max window) are garbled and
//! evaluated **independently** against the process-wide unit circuits
//! ([`crate::gc::relu_unit_circuit`] / [`crate::gc::maxpool4_unit_circuit`]),
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
    decode_lane, eval_lanes, garble_lanes, lane, load_lane, maxpool4_unit_circuit,
    relu_unit_circuit, Circuit, UNIT_BITS,
};
use crate::prg::Prg;
use crate::share::ShareVec;
use crate::{MpcError, Result};
use c2pi_transport::Channel;
use rayon::prelude::*;
use std::array::from_fn;

/// Which masked unit circuit a pre-garbled batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskedOp {
    /// `relu(x) − r` over one 64-bit ring element per item.
    Relu,
    /// `max(v₀..v₃) − r` over one 2×2 pool window (four elements) per
    /// item.
    Maxpool4,
}

impl MaskedOp {
    /// The cached single-item circuit topology.
    pub fn unit_circuit(&self) -> &'static Circuit {
        match self {
            MaskedOp::Relu => relu_unit_circuit(),
            MaskedOp::Maxpool4 => maxpool4_unit_circuit(),
        }
    }

    /// Ring elements fed into one item (1 for ReLU, 4 for a window).
    pub fn in_elems(&self) -> usize {
        match self {
            MaskedOp::Relu => 1,
            MaskedOp::Maxpool4 => 4,
        }
    }

    /// AND gates garbled per item.
    pub fn ands_per_item(&self) -> usize {
        self.unit_circuit().and_count()
    }

    /// XOR gates per item — free under free-XOR (no table, no hash);
    /// counted so cost reports can show what the scheme gets for
    /// nothing.
    pub fn xors_per_item(&self) -> usize {
        self.unit_circuit().xor_count()
    }

    /// Bytes a garbling of `items` occupies expanded, **both halves** —
    /// [`PreGarbledClient::expanded_bytes`] plus
    /// [`PreGarbledServer::expanded_bytes`] as arithmetic on the shape,
    /// so a party that expanded only its own half still reports what the
    /// seed stands for.
    pub fn expanded_bytes(&self, items: usize) -> u64 {
        let labels = 16 * items * self.in_elems() * UNIT_BITS;
        let client = 8 * items * self.in_elems()
            + items * self.ands_per_item() * crate::gc::AND_TABLE_BYTES
            + labels
            + 16 * items * UNIT_BITS
            + (items * UNIT_BITS).div_ceil(8);
        let server = labels + 16 * items + 8 * items;
        (client + server) as u64
    }
}

/// The evaluator's (client's) half of an offline-garbled batch: its
/// input masks, the tables, its active input labels, the garbler's
/// already-fixed output-mask labels and the decode bits. Everything in
/// here is input-independent.
#[derive(Debug, Clone)]
pub struct PreGarbledClient {
    op: MaskedOp,
    /// Input masks `m`, one per input element (item-major).
    masks: Vec<u64>,
    /// Two-row half-gates AND tables, item-major.
    tables: Vec<[u128; 2]>,
    /// Active evaluator labels for the bits of `m`, item-major.
    eval_labels: Vec<u128>,
    /// Active garbler labels for the `−r` output-mask inputs.
    fixed_labels: Vec<u128>,
    /// Output permute bits.
    decode: Vec<bool>,
}

/// The garbler's (server's) half: Δ-compressed labels for its
/// value-dependent input wires plus its dealt output share `r`. Under
/// free-XOR the one-label of every wire is `l0 ⊕ Δ`, so the dealer
/// ships one zero label per online wire and one Δ per item instead of
/// full pairs — half the bytes, reconstructed by XOR at select time.
#[derive(Debug, Clone)]
pub struct PreGarbledServer {
    op: MaskedOp,
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
        self.decode.len() / UNIT_BITS
    }

    /// Number of input ring elements (`items × in_elems`).
    pub fn inputs(&self) -> usize {
        self.masks.len()
    }

    /// Serialized size of this half — what an expanded (pre
    /// seed-compression) dealer would ship to the evaluator.
    pub fn expanded_bytes(&self) -> u64 {
        (self.masks.len() * 8
            + self.tables.len() * 32
            + self.eval_labels.len() * 16
            + self.fixed_labels.len() * 16
            + self.decode.len().div_ceil(8)) as u64
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
        self.labels0.len() / UNIT_BITS
    }

    /// Serialized size of this half — what an expanded (pre
    /// seed-compression) dealer would ship to the garbler. Δ-compressed:
    /// one label per online wire plus 16 B of Δ per item (the classic
    /// layout shipped full 32 B pairs).
    pub fn expanded_bytes(&self) -> u64 {
        (self.labels0.len() * 16 + self.deltas.len() * 16 + self.out_share.len() * 8) as u64
    }

    /// Selects the active labels for the garbler's online input values
    /// `g` (item-major ring elements) — the garbler's entire online
    /// compute: one conditional XOR with Δ per bit, no PRF.
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
            let zeros = &self.labels0[e * UNIT_BITS..(e + 1) * UNIT_BITS];
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
    fixed_labels: &'a mut [u128],
    decode: &'a mut [bool],
    server: Option<(&'a mut [u128], &'a mut [u128])>,
}

/// Garbles `items` instances of `op`'s masked unit circuit with fresh
/// input masks and output shares, fanning the per-item garbling out in
/// bands of `par_band` items. The result is a pure function of the
/// `prg` state — the band size only controls parallelism. Both halves
/// of [`pregarble_for`].
pub fn pregarble(
    op: MaskedOp,
    items: usize,
    prg: &mut Prg,
    par_band: usize,
) -> (PreGarbledClient, PreGarbledServer) {
    let (client, server) = pregarble_for(op, items, prg, par_band, Halves::Both);
    (client.expect("both halves garbled"), server.expect("both halves garbled"))
}

/// [`pregarble`], materialising only `halves`: each kept half is
/// bit-identical to the same half of the two-sided garbling, and `prg`
/// ends at the same position whichever halves were asked for.
///
/// The client half *is* the garbling — tables, decode bits and the
/// evaluator's labels all come out of the gate walk — so
/// [`Halves::Client`] runs that walk and merely never stores Δ or the
/// garbler's zero labels. The server half depends on no gate at all:
/// [`Halves::Server`] draws Δ and the first `in_elems · 64` labels of
/// each item's own stream and never enters the walk or calls a gate
/// hash.
pub fn pregarble_for(
    op: MaskedOp,
    items: usize,
    prg: &mut Prg,
    par_band: usize,
    halves: Halves,
) -> (Option<PreGarbledClient>, Option<PreGarbledServer>) {
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
    let online_wires = in_elems * UNIT_BITS;
    if halves == Halves::Server {
        // The walk's first draws for an item, in its order: Δ, then the
        // garbler's input labels — of which the online wires come first.
        let mut labels0 = Vec::with_capacity(inputs * UNIT_BITS);
        let mut deltas = Vec::with_capacity(items);
        for seed in seeds {
            let mut item = Prg::from_seed(seed);
            deltas.push(item.next_u128() | 1);
            labels0.extend((0..online_wires).map(|_| item.next_u128()));
        }
        return (None, Some(PreGarbledServer { op, labels0, deltas, out_share }));
    }
    let ands = op.ands_per_item();
    let band = par_band.max(1);
    let mut tables = vec![[0u128; 2]; items * ands];
    let mut eval_labels = vec![0u128; inputs * UNIT_BITS];
    let mut fixed_labels = vec![0u128; items * UNIT_BITS];
    let mut decode = vec![false; items * UNIT_BITS];
    let mut server = halves.server().then(|| (vec![0u128; inputs * UNIT_BITS], vec![0u128; items]));
    let mut server_bands = server.as_mut().map(|(labels0, deltas)| {
        labels0.chunks_mut(band * online_wires).zip(deltas.chunks_mut(band))
    });
    let mut bands: Vec<Band<'_>> = tables
        .chunks_mut(band * ands)
        .zip(eval_labels.chunks_mut(band * online_wires))
        .zip(fixed_labels.chunks_mut(band * UNIT_BITS))
        .zip(decode.chunks_mut(band * UNIT_BITS))
        .enumerate()
        .map(|(bi, (((tables, eval_labels), fixed_labels), decode))| {
            let (first, end) = (bi * band, items.min((bi + 1) * band));
            Band {
                seeds: &seeds[first..end],
                masks: &masks[first * in_elems..end * in_elems],
                out_share: &out_share[first..end],
                tables,
                eval_labels,
                fixed_labels,
                decode,
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
            garble_group::<LANES>(op, band, at, &mut wide);
            at += LANES;
        }
        while at < band.seeds.len() {
            garble_group::<1>(op, band, at, &mut narrow);
            at += 1;
        }
    });
    let client = PreGarbledClient { op, masks, tables, eval_labels, fixed_labels, decode };
    let server =
        server.map(|(labels0, deltas)| PreGarbledServer { op, labels0, deltas, out_share });
    (Some(client), server)
}

/// `l0` or its one-label `l0 ⊕ Δ`, by bit `bit` of `v`.
fn select(l0: u128, delta: u128, v: u64, bit: usize) -> u128 {
    l0 ^ if (v >> bit) & 1 == 1 { delta } else { 0 }
}

/// Garbles items `at .. at + K` of `band` in lock step
/// ([`garble_lanes`]) straight into the band's output slices, with `zero`
/// as the (resized-once) wire buffer: tables land where the walk writes
/// them, and each lane's mask-selected evaluator labels, `−r` labels,
/// decode bits and — when the band keeps the server half — Δ and online
/// zero labels are read out of the wire buffer afterwards.
fn garble_group<const K: usize>(
    op: MaskedOp,
    band: &mut Band<'_>,
    at: usize,
    zero: &mut Vec<[u128; K]>,
) {
    let circuit = op.unit_circuit();
    let (ands, in_elems) = (op.ands_per_item(), op.in_elems());
    let online_wires = in_elems * UNIT_BITS;
    zero.resize(circuit.wire_count(), [0; K]);
    let mut prgs: [Prg; K] = from_fn(|k| Prg::from_seed(band.seeds[at + k]));
    let mut tables = band.tables[at * ands..(at + K) * ands].chunks_exact_mut(ands);
    let tables = from_fn(|_| tables.next().expect("K items of tables in the band"));
    let deltas = garble_lanes(circuit, prgs.each_mut(), tables, zero);
    // The garbler's inputs are its online wires, then the `−r` wires.
    let (online_in, fixed_in) = circuit.garbler_inputs().split_at(online_wires);
    for (k, &delta) in deltas.iter().enumerate() {
        let i = at + k;
        let online = i * online_wires..(i + 1) * online_wires;
        let unit = i * UNIT_BITS..(i + 1) * UNIT_BITS;
        let masks = &band.masks[i * in_elems..(i + 1) * in_elems];
        let zeros = lane(circuit.evaluator_inputs(), zero, k).enumerate();
        for (slot, (w, l0)) in band.eval_labels[online.clone()].iter_mut().zip(zeros) {
            *slot = select(l0, delta, masks[w / UNIT_BITS], w % UNIT_BITS);
        }
        let neg_r = band.out_share[i].wrapping_neg();
        let zeros = lane(fixed_in, zero, k).enumerate();
        for (slot, (bit, l0)) in band.fixed_labels[unit.clone()].iter_mut().zip(zeros) {
            *slot = select(l0, delta, neg_r, bit);
        }
        for (slot, l0) in band.decode[unit].iter_mut().zip(lane(circuit.outputs(), zero, k)) {
            *slot = l0 & 1 == 1;
        }
        if let Some((labels0, deltas)) = band.server.as_mut() {
            for (slot, l0) in labels0[online].iter_mut().zip(lane(online_in, zero, k)) {
                *slot = l0;
            }
            deltas[i] = delta;
        }
    }
}

fn pack_labels(labels: &[u128]) -> Vec<u8> {
    let mut out = Vec::with_capacity(labels.len() * 16);
    for l in labels {
        out.extend_from_slice(&l.to_le_bytes());
    }
    out
}

fn unpack_labels(raw: &[u8]) -> Result<Vec<u128>> {
    if !raw.len().is_multiple_of(16) {
        return Err(MpcError::Protocol(format!("label frame of {} bytes", raw.len())));
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
        let delta = ep.recv_u64s().map_err(MpcError::from)?;
        if delta.len() != mat.inputs() {
            return Err(MpcError::Protocol(format!(
                "expected {} masked inputs, got {}",
                mat.inputs(),
                delta.len()
            )));
        }
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
/// out in bands of `par_band` items) and returns its output share
/// `f(x) − r`.
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
    ep.send_u64s(&delta).map_err(MpcError::from)?;
    let garbler_labels = unpack_labels(&ep.recv_bytes().map_err(MpcError::from)?)?;
    if garbler_labels.len() != mat.inputs() * UNIT_BITS {
        return Err(MpcError::Protocol(format!(
            "expected {} garbler labels, got {}",
            mat.inputs() * UNIT_BITS,
            garbler_labels.len()
        )));
    }
    eval_pregarbled(mat, &garbler_labels, par_band)
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
    let in_elems = mat.op.in_elems();
    let ands = mat.op.ands_per_item();
    if garbler_labels.len() != items * in_elems * UNIT_BITS
        || mat.tables.len() != items * ands
        || mat.eval_labels.len() != items * in_elems * UNIT_BITS
        || mat.fixed_labels.len() != items * UNIT_BITS
    {
        return Err(MpcError::Protocol("pre-garbled artifact counts disagree".into()));
    }
    let mut out = vec![0u64; items];
    let band = par_band.max(1);
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

/// Evaluates items `first .. first + K` of `mat` in lock step into
/// `out`, with `label` as the (resized-once) wire buffer. Counts were
/// validated by the caller.
fn eval_group<const K: usize>(
    mat: &PreGarbledClient,
    garbler_labels: &[u128],
    first: usize,
    label: &mut Vec<[u128; K]>,
    out: &mut [u64],
) {
    let circuit = mat.op.unit_circuit();
    let online_wires = mat.op.in_elems() * UNIT_BITS;
    let ands = mat.op.ands_per_item();
    label.resize(circuit.wire_count(), [0; K]);
    for k in 0..K {
        let i = first + k;
        let online = i * online_wires..(i + 1) * online_wires;
        let fixed = &mat.fixed_labels[i * UNIT_BITS..(i + 1) * UNIT_BITS];
        load_lane(
            circuit,
            label,
            k,
            garbler_labels[online.clone()].iter().chain(fixed),
            &mat.eval_labels[online],
        );
    }
    let tables = from_fn(|k| &mat.tables[(first + k) * ands..(first + k + 1) * ands]);
    eval_lanes(circuit, tables, label);
    for (k, slot) in out.iter_mut().enumerate() {
        let decode = &mat.decode[(first + k) * UNIT_BITS..(first + k + 1) * UNIT_BITS];
        *slot = decode_lane(circuit, label, k, decode)
            .enumerate()
            .fold(0, |acc, (bit, b)| acc | (b as u64) << bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPoint;
    use crate::gc::{evaluate, from_bits, garble_open, select_labels, to_bits};
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
        let mut prg = Prg::from_u64(seed);
        let (x0, x1) = share_secret(&secret, &mut prg);
        let items = values.len() / op.in_elems();
        let (cmat, smat) = pregarble(op, items, &mut prg, par_band);
        let (client, server, counter) = channel_pair();
        let t = std::thread::spawn(move || pre_gc_garbler(&server, &smat, &x1).unwrap());
        let y0 = pre_gc_evaluator(&client, &cmat, &x0, par_band).unwrap();
        let y1 = t.join().unwrap();
        (reconstruct(&y0, &y1), counter.snapshot())
    }

    /// The reference the lane walk is held to: the same layer garbled
    /// one item at a time, each a lone `garble_open` on its own seed,
    /// with every field of both halves assembled from the open garbling.
    fn pregarble_per_item(
        op: MaskedOp,
        items: usize,
        prg: &mut Prg,
    ) -> (PreGarbledClient, PreGarbledServer) {
        let (in_elems, wires) = (op.in_elems(), op.in_elems() * UNIT_BITS);
        let masks = prg.next_u64s(items * in_elems);
        let out_share = prg.next_u64s(items);
        let mut client = PreGarbledClient {
            op,
            masks,
            tables: Vec::new(),
            eval_labels: Vec::new(),
            fixed_labels: Vec::new(),
            decode: Vec::new(),
        };
        let mut server =
            PreGarbledServer { op, labels0: Vec::new(), deltas: Vec::new(), out_share };
        for i in 0..items {
            let open = garble_open(op.unit_circuit(), &mut prg.fork());
            let m_bits: Vec<bool> = client.masks[i * in_elems..(i + 1) * in_elems]
                .iter()
                .flat_map(|&m| to_bits(m, UNIT_BITS))
                .collect();
            let neg_r = to_bits(server.out_share[i].wrapping_neg(), UNIT_BITS);
            client.eval_labels.extend(select_labels(&open.evaluator_label_pairs, &m_bits));
            client.fixed_labels.extend(select_labels(&open.garbler_label_pairs[wires..], &neg_r));
            client.tables.extend(open.tables);
            client.decode.extend(open.output_decode);
            server.labels0.extend(open.garbler_label_pairs[..wires].iter().map(|p| p.0));
            server.deltas.push(open.delta);
        }
        (client, server)
    }

    fn assert_client_eq(got: &PreGarbledClient, want: &PreGarbledClient, at: &str) {
        assert_eq!(got.op, want.op, "{at}");
        assert_eq!(got.masks, want.masks, "{at}: masks");
        assert_eq!(got.tables, want.tables, "{at}: tables");
        assert_eq!(got.eval_labels, want.eval_labels, "{at}: evaluator labels");
        assert_eq!(got.fixed_labels, want.fixed_labels, "{at}: −r labels");
        assert_eq!(got.decode, want.decode, "{at}: decode bits");
    }

    fn assert_server_eq(got: &PreGarbledServer, want: &PreGarbledServer, at: &str) {
        assert_eq!(got.op, want.op, "{at}");
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
        // K = 1 tail, both), bands that cut groups short, and both unit
        // circuits. The material first: every band and every `Halves`
        // garbles, item for item, what the item garbles alone. Then three
        // independent routes to every output share: the lock-step walk,
        // one `evaluate` per item, and the plaintext circuit — which also
        // pins that the lane-batched garbling hashes produced tables the
        // evaluator's hash opens.
        const BANDS: [usize; 4] = [1, 3, 8, 1024];
        for op in [MaskedOp::Relu, MaskedOp::Maxpool4] {
            let circuit = op.unit_circuit();
            let (ands, wires) = (op.ands_per_item(), op.in_elems() * UNIT_BITS);
            for items in [1usize, 7, 8, 9, 23] {
                let seed = 1000 + items as u64;
                // Lane k of a group ≡ the item garbled alone, whatever
                // the band cut and whichever halves were kept.
                let (cmat, smat) = pregarble_per_item(op, items, &mut Prg::from_u64(seed));
                for band in BANDS {
                    for halves in [Halves::Both, Halves::Client, Halves::Server] {
                        let at = format!("{op:?} × {items} at band {band}, {halves:?}");
                        let (c, s) =
                            pregarble_for(op, items, &mut Prg::from_u64(seed), band, halves);
                        assert_eq!((c.is_some(), s.is_some()), (halves.client(), halves.server()));
                        if let Some(c) = c {
                            assert_client_eq(&c, &cmat, &at);
                        }
                        if let Some(s) = s {
                            assert_server_eq(&s, &smat, &at);
                        }
                    }
                }
                // Small signed values, so ReLU and max see both signs.
                let mut prg = Prg::from_u64(seed ^ 0xABCD);
                let x: Vec<u64> =
                    (0..cmat.inputs()).map(|_| (prg.next_u64() as i16) as i64 as u64).collect();
                let g: Vec<u64> =
                    x.iter().zip(&cmat.masks).map(|(x, m)| x.wrapping_sub(*m)).collect();
                let labels = smat.select_garbler_labels(&g).unwrap();

                let mut per_item = Vec::new();
                let mut plain = Vec::new();
                for i in 0..items {
                    let elems = i * op.in_elems()..(i + 1) * op.in_elems();
                    let mut garbler = labels[i * wires..(i + 1) * wires].to_vec();
                    garbler.extend(&cmat.fixed_labels[i * UNIT_BITS..(i + 1) * UNIT_BITS]);
                    let bits = evaluate(
                        circuit,
                        &cmat.tables[i * ands..(i + 1) * ands],
                        &garbler,
                        &cmat.eval_labels[i * wires..(i + 1) * wires],
                        &cmat.decode[i * UNIT_BITS..(i + 1) * UNIT_BITS],
                    )
                    .unwrap();
                    per_item.push(from_bits(&bits));
                    let r = smat.out_share[i];
                    let mut g_bits: Vec<bool> =
                        g[elems.clone()].iter().flat_map(|&v| to_bits(v, UNIT_BITS)).collect();
                    g_bits.extend(to_bits(r.wrapping_neg(), UNIT_BITS));
                    let e_bits: Vec<bool> = cmat.masks[elems.clone()]
                        .iter()
                        .flat_map(|&m| to_bits(m, UNIT_BITS))
                        .collect();
                    plain.push(from_bits(&circuit.eval_plain(&g_bits, &e_bits).unwrap()));
                    // And the plaintext circuit means what it should.
                    let signed = x[elems].iter().map(|&v| v as i64);
                    let want = match op {
                        MaskedOp::Relu => signed.max().unwrap().max(0),
                        MaskedOp::Maxpool4 => signed.max().unwrap(),
                    };
                    assert_eq!(plain[i].wrapping_add(r), want as u64, "{op:?} item {i}");
                }
                assert_eq!(per_item, plain, "{op:?} × {items}");
                for band in BANDS {
                    let y = eval_pregarbled(&cmat, &labels, band).unwrap();
                    assert_eq!(y.as_raw(), &per_item[..], "{op:?} × {items} at band {band}");
                }
            }
        }
    }

    #[test]
    fn sided_garbling_is_the_same_half_of_the_two_sided_garbling() {
        // Skip, don't reorder: whichever halves are kept, each equals
        // the same half of `pregarble` field for field, and the caller's
        // PRG yields the same next word afterwards.
        for op in [MaskedOp::Relu, MaskedOp::Maxpool4] {
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
                    let (c1, s1) = pregarble_per_item(op, items, &mut lone);
                    assert_client_eq(&c, &c1, &at);
                    assert_server_eq(&s, &s1, &at);
                    assert_eq!(lone.next_u64(), next, "{at}: stream position per item");

                    let mut prg = Prg::from_u64(seed);
                    let (client, none) = pregarble_for(op, items, &mut prg, band, Halves::Client);
                    assert!(none.is_none(), "{at}: a client-sided garbling holds no Δ");
                    assert_client_eq(&client.unwrap(), &c, &at);
                    assert_eq!(prg.next_u64(), next, "{at}: stream position after client");

                    let mut prg = Prg::from_u64(seed);
                    let (none, server) = pregarble_for(op, items, &mut prg, band, Halves::Server);
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
    fn expanded_bytes_reflect_half_gates_and_delta_compression() {
        // The dealt-material accounting the planner prices: two-row
        // tables on the client half, one-label-plus-Δ on the server
        // half. A classic 4-row/full-pair layout would double both the
        // table term and the server labels.
        let mut prg = Prg::from_u64(37);
        let (cmat, smat) = pregarble(MaskedOp::Relu, 2, &mut prg, 1);
        let ands = MaskedOp::Relu.ands_per_item();
        assert_eq!(
            cmat.expanded_bytes(),
            (2 * 8 + 2 * ands * 32 + 2 * 64 * 16 + 2 * 64 * 16 + 2 * 8) as u64
        );
        assert_eq!(smat.expanded_bytes(), (2 * 64 * 16 + 2 * 16 + 2 * 8) as u64);
        // The shape arithmetic a sided deal reports is the two halves'.
        for (op, items) in [(MaskedOp::Relu, 2), (MaskedOp::Maxpool4, 5)] {
            let (cmat, smat) = pregarble(op, items, &mut prg, 1);
            assert_eq!(op.expanded_bytes(items), cmat.expanded_bytes() + smat.expanded_bytes());
        }
        assert!(MaskedOp::Relu.xors_per_item() > 0);
    }

    #[test]
    fn garbled_table_sizes_per_item_are_pinned() {
        // Half-gates keeps an AND at two 16-byte rows and an XOR at
        // none; a garbling-scheme or circuit change that moves the
        // dealt table bytes per item (in either direction) must change
        // these numbers on purpose.
        assert_eq!(MaskedOp::Relu.ands_per_item(), 192);
        assert_eq!(MaskedOp::Maxpool4.ands_per_item(), 701);
        // And the wire buffer a walk keeps hot, after slot reuse (891 and
        // 3 682 wires, one per gate, before it): eight lanes of 16 B make
        // these 33 kB and 107 kB. A builder change that bloats them shows
        // here before it shows as cache misses.
        assert_eq!(MaskedOp::Relu.unit_circuit().wire_count(), 259);
        assert_eq!(MaskedOp::Maxpool4.unit_circuit().wire_count(), 835);
        assert_eq!(MaskedOp::Relu.ands_per_item() * crate::gc::AND_TABLE_BYTES, 6_144);
        assert_eq!(MaskedOp::Maxpool4.ands_per_item() * crate::gc::AND_TABLE_BYTES, 22_432);
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
