//! Yao garbled circuits with free-XOR, point-and-permute and
//! **half-gates** AND garbling — the non-linear-layer protocol of
//! Delphi-style private inference.
//!
//! * wire labels are 128-bit; the global offset Δ has its low bit set so
//!   the label's low bit doubles as the permute bit;
//! * XOR and NOT gates are free (label arithmetic only — zero tables,
//!   zero hash calls);
//! * AND gates use the half-gates construction (Zahur–Rosulek–Evans,
//!   EUROCRYPT 2015): a generator half and an evaluator half, **two**
//!   ciphertexts per gate instead of the classic four-row table. Each
//!   half is one correlation-robust hash [`crate::prg::hash128`] of a
//!   single operand label under a per-gate tweak;
//! * outputs are decoded with one permute bit per output wire
//!   ([`evaluate`]), or — for the unit circuits [`crate::gcpre`] serves —
//!   straight into an additive ring share by an arithmetic *projection*
//!   of the output labels (`garble_projection` / `eval_projection`, below);
//! * garbling and evaluation are one walk each (`garble_lanes`,
//!   `eval_lanes`) over `K` garblings of the same circuit in lock step,
//!   so an AND gate hashes `K` independent labels per
//!   [`crate::prg::hash128_many`] call and the AES pipeline stays full;
//!   [`garble_open`] and [`evaluate`] are their `K = 1` cases. The lanes
//!   never mix: lane `k` draws Δ and its input labels from its own PRG
//!   and computes exactly what a walk of its own would;
//! * a wire is a *slot*: [`CircuitBuilder::build`] lets a gate output
//!   take over the slot of a wire nothing reads any more, so the
//!   `[u128; K]`-per-wire buffer a walk keeps hot is the circuit's widest
//!   live set, not its gate count. Gate order and AND indices — and with
//!   them every hash tweak — are untouched.
//!
//! [`Circuit::eval_plain`] is the oracle every garbling is tested
//! against: the tests pin that the garbled ReLU and maxpool circuits
//! decode what it computes, and the table-bytes tests pin the two rows
//! per AND of the half-gates path.
//!
//! The module also provides the ReLU, 4-way max and fused
//! max-then-ReLU circuits the pre-garbled layers of [`crate::gcpre`]
//! garble: each reconstructs its inputs from additive shares
//! (`x = x₀ + x₁`) and computes the function on them, at any width from
//! 2 to 64 bits: a unit fed the low `w` bits of both shares computes on
//! `x mod 2^w`, which is `x` itself when `|x| < 2^(w−1)` (DESIGN.md §9).
//! The circuits do not re-mask their result: the projection decodes
//! output bit `j` as weight `2ʲ` (a `w`-bit value's top bit as
//! `−2^(w−1)`) of a ring element that the garbler's per-item offset
//! already masks with `−r`, so the parties end with additive shares
//! `f(x) − r` and `r` in the 64-bit ring.

use crate::prg::{hash128_many, Prg};
use crate::{MpcError, Result};
use std::array::from_fn;
use std::sync::OnceLock;

/// Index of a wire in a [`Circuit`].
pub type WireId = usize;

/// A boolean gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `out = a ⊕ b` (free).
    Xor {
        /// Left operand wire.
        a: WireId,
        /// Right operand wire.
        b: WireId,
        /// Output wire.
        out: WireId,
    },
    /// `out = a ∧ b` (one garbled table).
    And {
        /// Left operand wire.
        a: WireId,
        /// Right operand wire.
        b: WireId,
        /// Output wire.
        out: WireId,
    },
    /// `out = ¬a` (free).
    Inv {
        /// Operand wire.
        a: WireId,
        /// Output wire.
        out: WireId,
    },
}

/// A boolean circuit with two input partitions (garbler, evaluator).
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    n_wires: usize,
    n_ands: usize,
    garbler_inputs: Vec<WireId>,
    evaluator_inputs: Vec<WireId>,
    gates: Vec<Gate>,
    outputs: Vec<WireId>,
}

impl Circuit {
    /// Number of AND gates (the communication cost driver).
    pub fn and_count(&self) -> usize {
        self.n_ands
    }

    /// Number of XOR gates (free under free-XOR: zero tables, zero hash
    /// calls — tracked so cost reports can show what the garbling
    /// scheme gets for free).
    pub fn xor_count(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::Xor { .. })).count()
    }

    /// Number of garbler input wires.
    pub fn garbler_input_count(&self) -> usize {
        self.garbler_inputs.len()
    }

    /// Number of evaluator input wires.
    pub fn evaluator_input_count(&self) -> usize {
        self.evaluator_inputs.len()
    }

    /// Number of output wires.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Wire slots a walk's buffer needs. [`CircuitBuilder::build`] lets
    /// a wire take over the slot of one that is no longer read, so this
    /// is the circuit's widest live set (inputs and outputs pinned), not
    /// its gate count.
    pub fn wire_count(&self) -> usize {
        self.n_wires
    }

    /// Input wires in garbling's draw order: the garbler's, then the
    /// evaluator's.
    fn inputs(&self) -> impl Iterator<Item = &WireId> + Clone {
        self.garbler_inputs.iter().chain(&self.evaluator_inputs)
    }

    /// Garbler input wires, in input order.
    pub(crate) fn garbler_inputs(&self) -> &[WireId] {
        &self.garbler_inputs
    }

    /// Evaluator input wires, in input order.
    pub(crate) fn evaluator_inputs(&self) -> &[WireId] {
        &self.evaluator_inputs
    }

    /// Output wires, in output order.
    pub(crate) fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Plaintext evaluation for testing and spec purposes.
    ///
    /// # Errors
    ///
    /// Returns an error when input lengths disagree with the circuit.
    pub fn eval_plain(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Result<Vec<bool>> {
        if garbler_bits.len() != self.garbler_inputs.len()
            || evaluator_bits.len() != self.evaluator_inputs.len()
        {
            return Err(MpcError::BadConfig("plain eval input length mismatch".into()));
        }
        let mut vals = vec![false; self.n_wires];
        for (w, &b) in self.garbler_inputs.iter().zip(garbler_bits) {
            vals[*w] = b;
        }
        for (w, &b) in self.evaluator_inputs.iter().zip(evaluator_bits) {
            vals[*w] = b;
        }
        for g in &self.gates {
            match *g {
                Gate::Xor { a, b, out } => vals[out] = vals[a] ^ vals[b],
                Gate::And { a, b, out } => vals[out] = vals[a] & vals[b],
                Gate::Inv { a, out } => vals[out] = !vals[a],
            }
        }
        Ok(self.outputs.iter().map(|&w| vals[w]).collect())
    }
}

/// Incremental circuit builder.
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    circuit: Circuit,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder::default()
    }

    fn fresh(&mut self) -> WireId {
        let w = self.circuit.n_wires;
        self.circuit.n_wires += 1;
        w
    }

    /// Allocates a garbler input wire.
    pub fn garbler_input(&mut self) -> WireId {
        let w = self.fresh();
        self.circuit.garbler_inputs.push(w);
        w
    }

    /// Allocates an evaluator input wire.
    pub fn evaluator_input(&mut self) -> WireId {
        let w = self.fresh();
        self.circuit.evaluator_inputs.push(w);
        w
    }

    /// Adds `out = a ⊕ b`.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh();
        self.circuit.gates.push(Gate::Xor { a, b, out });
        out
    }

    /// Adds `out = a ∧ b`.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh();
        self.circuit.gates.push(Gate::And { a, b, out });
        self.circuit.n_ands += 1;
        out
    }

    /// Adds `out = ¬a`.
    pub fn inv(&mut self, a: WireId) -> WireId {
        let out = self.fresh();
        self.circuit.gates.push(Gate::Inv { a, out });
        out
    }

    /// Marks a wire as a circuit output.
    pub fn output(&mut self, w: WireId) {
        self.circuit.outputs.push(w);
    }

    /// Ripple-carry adder over little-endian bit vectors; returns the sum
    /// bits (arithmetic is mod 2^len, so no carry out of the top bit is
    /// computed): `len − 1` AND gates.
    ///
    /// Uses the standard one-AND full adder:
    /// `s = a⊕b⊕c`, `c' = c ⊕ (a⊕c)∧(b⊕c)`.
    ///
    /// # Panics
    ///
    /// Panics when operand widths differ.
    pub fn add_mod2n(&mut self, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
        assert_eq!(a.len(), b.len(), "adder width mismatch");
        let mut sum = Vec::with_capacity(a.len());
        let mut carry: Option<WireId> = None;
        for (i, (&ai, &bi)) in a.iter().zip(b.iter()).enumerate() {
            let top = i + 1 == a.len();
            match carry {
                None => {
                    sum.push(self.xor(ai, bi));
                    carry = (!top).then(|| self.and(ai, bi));
                }
                Some(c) => {
                    let axc = self.xor(ai, c);
                    let s = self.xor(axc, bi);
                    sum.push(s);
                    if !top {
                        let bxc = self.xor(bi, c);
                        let t = self.and(axc, bxc);
                        carry = Some(self.xor(c, t));
                    }
                }
            }
        }
        sum
    }

    /// `a ≥ b` over two's-complement bit vectors, as the complement of
    /// the sign of `a − b` — computed from the **carry chain alone**.
    ///
    /// `a − b = a + ¬b + 1`: only the top sum bit is consumed, so the
    /// full subtractor's 2·len−1 AND gates collapse to the len−1 ANDs of
    /// the carry ripple (the constant carry-in of 1 makes the first
    /// carry `a₀ ∨ ¬b₀`, one AND with free inversions). The sign bit is
    /// `a⊕¬b⊕c` at the top position and the result is its complement,
    /// which the constant folds into plain XORs: `a ≥ b = aₜ⊕bₜ⊕cₜ`.
    ///
    /// Correct when `|a − b| < 2^(bits−1)` (same no-overflow
    /// precondition as [`CircuitBuilder::max_signed`]).
    ///
    /// # Panics
    ///
    /// Panics when operand widths differ or are below two bits.
    pub fn ge_signed(&mut self, a: &[WireId], b: &[WireId]) -> WireId {
        assert_eq!(a.len(), b.len(), "comparator width mismatch");
        let bits = a.len();
        assert!(bits >= 2, "signed comparison needs at least two bits");
        // c₁ = carry(a₀, ¬b₀, 1) = a₀ ∨ ¬b₀ = ¬(¬a₀ ∧ b₀).
        let na0 = self.inv(a[0]);
        let t0 = self.and(na0, b[0]);
        let mut c = self.inv(t0);
        // cᵢ₊₁ = c ⊕ (aᵢ⊕c)∧(¬bᵢ⊕c); ¬bᵢ⊕c is a free inverted XOR.
        for i in 1..bits - 1 {
            let axc = self.xor(a[i], c);
            let bxc = self.xor(b[i], c);
            let nbxc = self.inv(bxc);
            let t = self.and(axc, nbxc);
            c = self.xor(c, t);
        }
        let top = self.xor(a[bits - 1], b[bits - 1]);
        self.xor(top, c)
    }

    /// `max(a, b)` over two's-complement bit vectors: select by
    /// [`CircuitBuilder::ge_signed`] (`out = b ⊕ ((a≥b) ∧ (a ⊕ b))`) —
    /// `2·len − 1` AND gates per max.
    ///
    /// Correct when `|a − b| < 2^(bits−1)` — the difference must not
    /// overflow. A compiled plan sizes every max unit for this: `compile`
    /// (in `c2pi-pi`) gives it two bits more than the sound bound of its
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics when operand widths differ.
    pub fn max_signed(&mut self, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
        let a_ge_b = self.ge_signed(a, b);
        a.iter()
            .zip(b.iter())
            .map(|(&ai, &bi)| {
                let x = self.xor(ai, bi);
                let sel = self.and(x, a_ge_b);
                self.xor(bi, sel)
            })
            .collect()
    }

    /// Finalizes the circuit, renumbering its wires onto reusable slots
    /// by linear scan: walking the gates in order, a wire's slot returns
    /// to the free list at its last reader and the next gate output
    /// takes it (a gate may write the slot of an operand it is the last
    /// to read — every walk reads its operands first). Input and output
    /// wires are pinned: inputs are all loaded before a walk and garbling
    /// reads their zero labels after it, outputs are decoded after it.
    ///
    /// Only wire *numbers* change. Gate order, AND indices and therefore
    /// every hash tweak stay, so a garbling of the renumbered circuit is
    /// bit for bit the garbling of the original; what shrinks is the
    /// wire buffer a walk keeps hot ([`Circuit::wire_count`]; the unit
    /// circuits' slot counts are pinned beside their AND counts in
    /// `gcpre`).
    ///
    /// # Panics
    ///
    /// Panics when a gate reads a wire no earlier gate or input defined.
    pub fn build(self) -> Circuit {
        reuse_slots(self.circuit)
    }
}

/// The renumbering behind [`CircuitBuilder::build`].
fn reuse_slots(mut circuit: Circuit) -> Circuit {
    const PINNED: usize = usize::MAX;
    // last_read[w]: index of the last gate reading `w`, PINNED for
    // inputs and outputs, None for a wire nothing reads.
    let mut last_read = vec![None; circuit.n_wires];
    for (gid, gate) in circuit.gates.iter().enumerate() {
        match *gate {
            Gate::Xor { a, b, .. } | Gate::And { a, b, .. } => {
                last_read[a] = Some(gid);
                last_read[b] = Some(gid);
            }
            Gate::Inv { a, .. } => last_read[a] = Some(gid),
        }
    }
    for &w in circuit.inputs().chain(&circuit.outputs) {
        last_read[w] = Some(PINNED);
    }
    let mut slot_of: Vec<Option<WireId>> = vec![None; circuit.n_wires];
    let mut free: Vec<WireId> = Vec::new();
    let mut slots = 0;
    let mut take = |free: &mut Vec<WireId>| {
        free.pop().unwrap_or_else(|| {
            slots += 1;
            slots - 1
        })
    };
    // Inputs in draw order, so garbling's label draws fill the buffer
    // front to back.
    for &w in circuit.inputs() {
        slot_of[w] = Some(take(&mut free));
    }
    let slot = |slot_of: &[Option<WireId>], w: WireId| {
        slot_of[w].unwrap_or_else(|| panic!("wire {w} is read before it is defined"))
    };
    for (gid, gate) in circuit.gates.iter_mut().enumerate() {
        let (a, b, out) = match gate {
            Gate::Xor { a, b, out } | Gate::And { a, b, out } => (a, Some(b), out),
            Gate::Inv { a, out } => (a, None, out),
        };
        let read = [Some(*a), b.as_deref().copied()];
        for w in [Some(a), b].into_iter().flatten() {
            *w = slot(&slot_of, *w);
        }
        // `slot_of` forgets a released wire, so a gate reading one wire
        // twice releases it once.
        for wire in read.into_iter().flatten() {
            if last_read[wire] == Some(gid) {
                free.extend(slot_of[wire].take());
            }
        }
        let s = take(&mut free);
        if last_read[*out].is_some() {
            slot_of[*out] = Some(s);
        } else {
            free.push(s);
        }
        *out = s;
    }
    let Circuit { garbler_inputs, evaluator_inputs, outputs, .. } = &mut circuit;
    for w in garbler_inputs.iter_mut().chain(evaluator_inputs).chain(outputs) {
        *w = slot(&slot_of, *w);
    }
    circuit.n_wires = slots;
    circuit
}

/// Builds the batched ReLU circuit for `n` additively shared ring
/// elements of `bits` width.
///
/// Input order — evaluator: `x₀` bits per element; garbler: `x₁` bits
/// per element. Output per element: bits `0 .. bits − 1` of
/// `relu(x₀+x₁)`. The top bit is `x_top ∧ ¬x_top = 0` and is not an
/// output, so the mux ANDs only the `bits − 1` bits below it.
pub fn relu_circuit(n: usize, bits: usize) -> Circuit {
    relu_builder(n, bits).build()
}

fn relu_builder(n: usize, bits: usize) -> CircuitBuilder {
    let mut b = CircuitBuilder::new();
    for _ in 0..n {
        let x0: Vec<WireId> = (0..bits).map(|_| b.evaluator_input()).collect();
        let x1: Vec<WireId> = (0..bits).map(|_| b.garbler_input()).collect();
        let x = b.add_mod2n(&x0, &x1);
        relu_outputs(&mut b, &x);
    }
    b
}

/// Outputs `relu(x)` for the signed value on wires `x`: `drelu = ¬` the
/// sign bit, `y_i = x_i ∧ drelu` for every bit below it (the sign bit of
/// the result is 0 and is not an output).
fn relu_outputs(b: &mut CircuitBuilder, x: &[WireId]) {
    let (&sign, low) = x.split_last().expect("a value of at least one bit");
    let drelu = b.inv(sign);
    for &xi in low {
        let y = b.and(xi, drelu);
        b.output(y);
    }
}

/// Builds the batched 4-way max circuit used for secure 2×2 max
/// pooling: per element, four additively shared values enter (evaluator
/// holds one share of each, garbler the other), a two-level tournament
/// picks the maximum, and its `bits` bits are the element's outputs.
///
/// Input order per element — evaluator: shares of `v₀..v₃`; garbler:
/// shares of `v₀..v₃`.
pub fn maxpool4_circuit(n: usize, bits: usize) -> Circuit {
    maxpool4_builder(n, bits).build()
}

fn maxpool4_builder(n: usize, bits: usize) -> CircuitBuilder {
    let mut b = CircuitBuilder::new();
    for _ in 0..n {
        for w in max4(&mut b, bits) {
            b.output(w);
        }
    }
    b
}

/// One window of [`maxpool4_circuit`]: the inputs of four shared values,
/// their reconstruction and the two-level tournament. Returns the max's
/// `bits` wires.
fn max4(b: &mut CircuitBuilder, bits: usize) -> Vec<WireId> {
    let ev: Vec<Vec<WireId>> =
        (0..4).map(|_| (0..bits).map(|_| b.evaluator_input()).collect()).collect();
    let ga: Vec<Vec<WireId>> =
        (0..4).map(|_| (0..bits).map(|_| b.garbler_input()).collect()).collect();
    let vals: Vec<Vec<WireId>> = (0..4).map(|i| b.add_mod2n(&ev[i], &ga[i])).collect();
    let m1 = b.max_signed(&vals[0], &vals[1]);
    let m2 = b.max_signed(&vals[2], &vals[3]);
    b.max_signed(&m1, &m2)
}

/// Builds the batched fused max-pool-then-ReLU circuit: per window, the
/// gates of [`maxpool4_circuit`], then a ReLU on the max's own sign bit
/// (`bits − 1` more ANDs). Same inputs as the max; outputs bits
/// `0 .. bits − 1` of `max(v₀..v₃, 0)`.
pub fn maxpool_relu4_circuit(n: usize, bits: usize) -> Circuit {
    maxpool_relu4_builder(n, bits).build()
}

fn maxpool_relu4_builder(n: usize, bits: usize) -> CircuitBuilder {
    let mut b = CircuitBuilder::new();
    for _ in 0..n {
        let max = max4(&mut b, bits);
        relu_outputs(&mut b, &max);
    }
    b
}

/// One slot per width `1..=64`: a unit circuit is built once per
/// process per width, on first use. Plans round their widths up to whole
/// bytes (`compile` in `c2pi-pi`), so at most eight are built per unit.
type WidthCache = [OnceLock<Circuit>; 64];

fn cached(
    cache: &'static WidthCache,
    bits: usize,
    build: fn(usize, usize) -> Circuit,
) -> &'static Circuit {
    assert!((2..=64).contains(&bits), "a unit circuit is 2 to 64 bits wide, not {bits}");
    cache[bits - 1].get_or_init(|| build(1, bits))
}

/// The single-element ReLU circuit at `bits`, built once per process
/// and width. Both the batched circuits and the offline-garbling path
/// are element-independent, so every consumer (AND-gate counting when a
/// Delphi layer is priced, per-element garbling and evaluation) shares
/// this one topology instead of rebuilding it per call.
///
/// # Panics
///
/// Panics unless `2 ≤ bits ≤ 64`.
pub fn relu_unit(bits: usize) -> &'static Circuit {
    static CACHE: WidthCache = [const { OnceLock::new() }; 64];
    cached(&CACHE, bits, relu_circuit)
}

/// [`relu_unit`] over the whole 64-bit ring.
pub fn relu_unit_circuit() -> &'static Circuit {
    relu_unit(64)
}

/// The single-window 4-way-max circuit at `bits`, built once per process
/// and width (see [`relu_unit`]).
///
/// # Panics
///
/// Panics unless `2 ≤ bits ≤ 64`.
pub fn maxpool4_unit(bits: usize) -> &'static Circuit {
    static CACHE: WidthCache = [const { OnceLock::new() }; 64];
    cached(&CACHE, bits, maxpool4_circuit)
}

/// The single-window fused max-then-ReLU circuit at `bits`, built once
/// per process and width (see [`relu_unit`]).
///
/// # Panics
///
/// Panics unless `2 ≤ bits ≤ 64`.
pub fn maxpool_relu4_unit(bits: usize) -> &'static Circuit {
    static CACHE: WidthCache = [const { OnceLock::new() }; 64];
    cached(&CACHE, bits, maxpool_relu4_circuit)
}

/// Bytes one half-gates AND table occupies (two 128-bit rows).
pub const AND_TABLE_BYTES: usize = 32;

/// A garbling whose *inputs are still open*: label pairs for every
/// input wire on both sides, so neither party's bits need to be known
/// at garble time. This is the offline-phase artifact: the circuit can
/// be garbled input-independently (during preprocessing) and the active
/// labels selected with [`select_labels`] once the online values exist.
#[derive(Debug, Clone)]
pub struct OpenGarbled {
    /// Two-row half-gates tables `[T_G, T_E]` for each AND gate, in
    /// gate order.
    pub tables: Vec<[u128; 2]>,
    /// Label pairs for the garbler's input wires.
    pub garbler_label_pairs: Vec<(u128, u128)>,
    /// Label pairs for the evaluator's input wires.
    pub evaluator_label_pairs: Vec<(u128, u128)>,
    /// Zero label of each output wire, in output order — what the
    /// arithmetic projection (`garble_projection`) hashes.
    pub output_zero: Vec<u128>,
    /// Permute bit of each output wire's zero label (for decoding).
    pub output_decode: Vec<bool>,
    /// The free-XOR global offset: every wire's one-label is its
    /// zero-label ⊕ Δ. Garbler-secret — the evaluator must never see it
    /// (one active label plus Δ reveals both labels of every wire).
    /// Exposing it here lets dealt *garbler-side* material store one
    /// label per wire instead of a pair.
    pub delta: u128,
}

impl OpenGarbled {
    /// Bytes the AND tables occupy (2 rows × 16 B per gate; XOR gates
    /// contribute nothing).
    pub fn table_bytes(&self) -> usize {
        self.tables.len() * AND_TABLE_BYTES
    }
}

/// Selects the active labels for `bits` from per-wire label pairs.
///
/// # Panics
///
/// Panics when the lengths disagree (a caller bug).
pub fn select_labels(pairs: &[(u128, u128)], bits: &[bool]) -> Vec<u128> {
    assert_eq!(pairs.len(), bits.len(), "label pair / bit count mismatch");
    pairs.iter().zip(bits.iter()).map(|(&(l0, l1), &b)| if b { l1 } else { l0 }).collect()
}

/// Garbles `circuit` without fixing any input bits, returning label
/// pairs for every input wire (see [`OpenGarbled`]) — the `K = 1` case
/// of the one garbling walk, `garble_lanes`.
pub fn garble_open(circuit: &Circuit, prg: &mut Prg) -> OpenGarbled {
    let mut zero = vec![[0u128; 1]; circuit.n_wires];
    let mut tables = vec![[0u128; 2]; circuit.and_count()];
    let [delta] = garble_lanes(circuit, [prg], [&mut tables], &mut zero);
    let pairs =
        |wires: &[WireId]| wires.iter().map(|&w| (zero[w][0], zero[w][0] ^ delta)).collect();
    let output_zero: Vec<u128> = lane(&circuit.outputs, &zero, 0).collect();
    OpenGarbled {
        garbler_label_pairs: pairs(&circuit.garbler_inputs),
        evaluator_label_pairs: pairs(&circuit.evaluator_inputs),
        output_decode: output_zero.iter().map(|l| l & 1 == 1).collect(),
        output_zero,
        tables,
        delta,
    }
}

/// The garbling walk, over `K` garblings of `circuit` at once — the
/// mirror of [`eval_lanes`]. Lane `k` draws its offset Δ (low bit forced
/// to 1) and then one zero label per input wire — the garbler's, then the
/// evaluator's — from `prgs[k]`, exactly the draws a walk of its own
/// would take, and writes its AND tables to `tables[k]`. Returns the
/// lanes' Δs; on return `zero` holds the zero label of every input and
/// output wire ([`lane`] reads one lane's), which is all of a garbling
/// beside its tables.
///
/// Half-gates AND garbling: with zero labels `Wa⁰, Wb⁰`, permute bits
/// `p = lsb(W⁰)` and `H = hash128(·, tweak)` keyed by the gate index,
///
/// ```text
/// T_G = H(Wa⁰, 2g) ⊕ H(Wa⁰⊕Δ, 2g) ⊕ p_b·Δ        (generator half)
/// T_E = H(Wb⁰, 2g+1) ⊕ H(Wb⁰⊕Δ, 2g+1) ⊕ Wa⁰      (evaluator half)
/// Wc⁰ = H(Wa⁰, 2g) ⊕ p_a·T_G ⊕ H(Wb⁰, 2g+1) ⊕ p_b·(T_E ⊕ Wa⁰)
/// ```
///
/// Four independent hashes and two ciphertexts per AND and lane; XOR/NOT
/// gates touch no hash and emit nothing. The lanes never mix, but they
/// reach every AND together, so its `4·K` hashes go out as four `K`-lane
/// [`hash128_many`] batches that keep the AES pipeline full. A lone lane
/// has only its own four to overlap and issues them as one batch.
///
/// # Panics
///
/// Panics when `zero` or a lane's `tables` is shorter than the circuit
/// needs.
pub(crate) fn garble_lanes<const K: usize>(
    circuit: &Circuit,
    prgs: [&mut Prg; K],
    mut tables: [&mut [[u128; 2]]; K],
    zero: &mut [[u128; K]],
) -> [u128; K] {
    let mut delta = [0u128; K];
    for (k, prg) in prgs.into_iter().enumerate() {
        delta[k] = prg.next_u128() | 1; // low bit set: permute bit offset
        for &w in circuit.inputs() {
            zero[w][k] = prg.next_u128();
        }
    }
    let mut and_idx = 0usize;
    for (gid, gate) in circuit.gates.iter().enumerate() {
        match *gate {
            Gate::Xor { a, b, out } => {
                let (wa, wb) = (zero[a], zero[b]);
                zero[out] = from_fn(|k| wa[k] ^ wb[k]);
            }
            Gate::Inv { a, out } => {
                let wa = zero[a];
                zero[out] = from_fn(|k| wa[k] ^ delta[k]);
            }
            Gate::And { a, b, out } => {
                let (wa, wb) = (zero[a], zero[b]);
                let (mut ha0, mut hb0) = (wa, wb);
                let mut ha1: [u128; K] = from_fn(|k| wa[k] ^ delta[k]);
                let mut hb1: [u128; K] = from_fn(|k| wb[k] ^ delta[k]);
                let t = and_tweak(gid);
                if K == 1 {
                    let mut h = [ha0[0], ha1[0], hb0[0], hb1[0]];
                    hash128_many(&mut h, &[t, t, t | 1, t | 1]);
                    (ha0[0], ha1[0], hb0[0], hb1[0]) = (h[0], h[1], h[2], h[3]);
                } else {
                    hash128_many(&mut ha0, &[t; K]);
                    hash128_many(&mut ha1, &[t; K]);
                    hash128_many(&mut hb0, &[t | 1; K]);
                    hash128_many(&mut hb1, &[t | 1; K]);
                }
                zero[out] = from_fn(|k| {
                    let (pa, pb) = (wa[k] & 1 == 1, wb[k] & 1 == 1);
                    let tg = ha0[k] ^ ha1[k] ^ if pb { delta[k] } else { 0 };
                    let te = hb0[k] ^ hb1[k] ^ wa[k];
                    tables[k][and_idx] = [tg, te];
                    let wg0 = ha0[k] ^ if pa { tg } else { 0 };
                    let we0 = hb0[k] ^ if pb { te ^ wa[k] } else { 0 };
                    wg0 ^ we0
                });
                and_idx += 1;
            }
        }
    }
    delta
}

/// The tweak of gate `gid`'s generator half; its evaluator half is
/// `and_tweak(gid) | 1`. Gate indices stay far below `2⁶²`, so bit 63 is
/// never set — that half of the tweak space is [`projection_tweak`]'s.
fn and_tweak(gid: usize) -> u64 {
    (gid as u64) << 1
}

/// The tweak that output `j`'s projection hashes under: bit 63 set, so it
/// is disjoint from every [`and_tweak`] of any circuit.
fn projection_tweak(j: usize) -> u64 {
    (1 << 63) | j as u64
}

/// Arithmetic output decoding, garbler side, over `K` garblings in lock
/// step: the outputs are the low bits of a `bits`-wide two's-complement
/// value, so output `j` decodes to weight `w_j = 2ʲ` of one ring element,
/// except that a top output `j = bits − 1` weighs `−2^(bits−1)`, which
/// sign-extends the value into the 64-bit ring (at 64 bits the two
/// weights are one). The evaluator reads a ring share off its output
/// labels instead of bits. `outputs` yields each output wire's zero
/// labels (one per lane, in output order) and `delta` the lanes'
/// offsets; lane `k`'s projection words are written to `words[k]`, one
/// per output, and the return value is what each lane's all-zero output
/// decodes to.
///
/// With zero label `W⁰`, its permute bit `p = lsb(W⁰)` and
/// `h_b = low64(H(W⁰ ⊕ b·Δ, τ_j))` under the [`projection_tweak`] `τ_j`,
///
/// ```text
/// T_j = (−1)^p · (w_j − (h₁ − h₀))            (the projection word)
/// dec(W) = h(W) + lsb(W)·T_j = dec(W⁰) + v·w_j  for W = W⁰ ⊕ v·Δ
/// ```
///
/// so `Σ_j dec(W_j) = Σ_j dec(W⁰_j) + f(x)` with `f(x) = Σ_j v_j·w_j`, all
/// mod 2⁶⁴. A caller that hands the evaluator `U = −r − Σ_j dec(W⁰_j)`
/// leaves it `f(x) − r` (`eval_projection`). Two hashes per output and
/// lane, issued as two `K`-lane [`hash128_many`] batches (one batch of two
/// for a lone lane); no table, no extra input wire.
///
/// # Panics
///
/// Panics when there are more than `bits` outputs, `bits` exceeds 64, or
/// a lane's `words` is shorter than the outputs.
pub(crate) fn garble_projection<const K: usize>(
    outputs: impl Iterator<Item = [u128; K]>,
    bits: usize,
    delta: [u128; K],
    words: [&mut [u64]; K],
) -> [u64; K] {
    assert!(bits <= 64, "a projection decodes into the 64-bit ring");
    let mut zero_point = [0u64; K];
    for (j, w0) in outputs.enumerate() {
        assert!(j < bits, "a {bits}-bit value has at most {bits} outputs");
        let weight = if j + 1 == bits { (1u64 << j).wrapping_neg() } else { 1 << j };
        let t = projection_tweak(j);
        let (mut h0, mut h1): ([u128; K], [u128; K]) = (w0, from_fn(|k| w0[k] ^ delta[k]));
        if K == 1 {
            let mut h = [h0[0], h1[0]];
            hash128_many(&mut h, &[t, t]);
            (h0[0], h1[0]) = (h[0], h[1]);
        } else {
            hash128_many(&mut h0, &[t; K]);
            hash128_many(&mut h1, &[t; K]);
        }
        for k in 0..K {
            let (h0, h1) = (h0[k] as u64, h1[k] as u64);
            let d = weight.wrapping_sub(h1.wrapping_sub(h0));
            let p = w0[k] & 1 == 1;
            let tj = if p { d.wrapping_neg() } else { d };
            words[k][j] = tj;
            zero_point[k] = zero_point[k].wrapping_add(h0).wrapping_add(if p { tj } else { 0 });
        }
    }
    zero_point
}

/// Arithmetic output decoding, evaluator side, over `K` garblings in lock
/// step: `Σ_j h(W_j) + lsb(W_j)·T_j` over each lane's active output labels
/// `outputs` and projection words `words[k]` (see [`garble_projection`]).
/// One `K`-lane [`hash128_many`] batch per output.
///
/// # Panics
///
/// Panics when a lane's `words` is shorter than the outputs.
pub(crate) fn eval_projection<const K: usize>(
    outputs: impl Iterator<Item = [u128; K]>,
    words: [&[u64]; K],
) -> [u64; K] {
    let mut sum = [0u64; K];
    for (j, w) in outputs.enumerate() {
        let mut h = w;
        hash128_many(&mut h, &[projection_tweak(j); K]);
        for k in 0..K {
            let tj = if w[k] & 1 == 1 { words[k][j] } else { 0 };
            sum[k] = sum[k].wrapping_add(h[k] as u64).wrapping_add(tj);
        }
    }
    sum
}

/// Lane `lane` of `wires` in a lock-step wire buffer, in `wires` order:
/// how a caller reads one garbling's input or output zero labels out of
/// [`garble_lanes`]'s buffer.
pub(crate) fn lane<'a, const K: usize>(
    wires: &'a [WireId],
    buf: &'a [[u128; K]],
    lane: usize,
) -> impl Iterator<Item = u128> + 'a {
    wires.iter().map(move |&w| buf[w][lane])
}

/// Evaluates a garbled circuit given the active input labels, returning
/// the decoded output bits.
///
/// Per AND gate the evaluator hashes its two operand labels once each
/// and adds the table rows selected by their select (= permute) bits:
/// `Wc = H(Wa, 2g) ⊕ s_a·T_G ⊕ H(Wb, 2g+1) ⊕ s_b·(T_E ⊕ Wa)`.
///
/// # Errors
///
/// Returns an error when label/table counts disagree with the circuit.
pub fn evaluate(
    circuit: &Circuit,
    tables: &[[u128; 2]],
    garbler_labels: &[u128],
    evaluator_labels: &[u128],
    output_decode: &[bool],
) -> Result<Vec<bool>> {
    if garbler_labels.len() != circuit.garbler_inputs.len()
        || evaluator_labels.len() != circuit.evaluator_inputs.len()
        || tables.len() != circuit.and_count()
        || output_decode.len() != circuit.outputs.len()
    {
        return Err(MpcError::Protocol("garbled artifact counts disagree with circuit".into()));
    }
    let mut label = vec![[0u128; 1]; circuit.n_wires];
    load_lane(circuit, &mut label, 0, garbler_labels, evaluator_labels);
    eval_lanes(circuit, [tables], &mut label);
    Ok(decode_lane(circuit, &label, 0, output_decode).collect())
}

/// Writes one garbling's active input labels into lane `lane` of a
/// lock-step wire buffer (`label[wire][lane]`, one entry per circuit
/// wire).
///
/// # Panics
///
/// Panics when `label` is shorter than the circuit's wire count.
pub(crate) fn load_lane<const K: usize>(
    circuit: &Circuit,
    label: &mut [[u128; K]],
    lane: usize,
    garbler_labels: &[u128],
    evaluator_labels: &[u128],
) {
    for (&w, &l) in circuit.garbler_inputs.iter().zip(garbler_labels) {
        label[w][lane] = l;
    }
    for (&w, &l) in circuit.evaluator_inputs.iter().zip(evaluator_labels) {
        label[w][lane] = l;
    }
}

/// The evaluation walk, over `K` garblings of `circuit` at once: lane
/// `k` of every wire belongs to the garbling whose AND tables are
/// `tables[k]`. Input wires must be loaded ([`load_lane`]) on entry; on
/// return every wire holds its active labels.
///
/// The lanes never mix — each computes exactly what a walk of its own
/// would — but they reach every AND gate together, so its two hashes per
/// lane become two `K`-lane [`hash128_many`] batches whose AES rounds
/// overlap instead of queueing behind one another. XOR and NOT stay
/// label arithmetic, `K` XORs wide.
///
/// # Panics
///
/// Panics when `label` or a lane's `tables` is shorter than the circuit
/// needs; callers validate counts first.
pub(crate) fn eval_lanes<const K: usize>(
    circuit: &Circuit,
    tables: [&[[u128; 2]]; K],
    label: &mut [[u128; K]],
) {
    let mut and_idx = 0usize;
    for (gid, gate) in circuit.gates.iter().enumerate() {
        match *gate {
            Gate::Xor { a, b, out } => {
                let (la, lb) = (label[a], label[b]);
                label[out] = from_fn(|k| la[k] ^ lb[k]);
            }
            Gate::Inv { a, out } => label[out] = label[a],
            Gate::And { a, b, out } => {
                let (la, lb) = (label[a], label[b]);
                let t = and_tweak(gid);
                let (mut ha, mut hb) = (la, lb);
                hash128_many(&mut ha, &[t; K]);
                hash128_many(&mut hb, &[t | 1; K]);
                label[out] = from_fn(|k| {
                    let [tg, te] = tables[k][and_idx];
                    let wg = ha[k] ^ if la[k] & 1 == 1 { tg } else { 0 };
                    let we = hb[k] ^ if lb[k] & 1 == 1 { te ^ la[k] } else { 0 };
                    wg ^ we
                });
                and_idx += 1;
            }
        }
    }
}

/// Lane `lane`'s decoded output bits after [`eval_lanes`], in output
/// order.
pub(crate) fn decode_lane<'a, const K: usize>(
    circuit: &'a Circuit,
    label: &'a [[u128; K]],
    lane: usize,
    output_decode: &'a [bool],
) -> impl Iterator<Item = bool> + 'a {
    self::lane(&circuit.outputs, label, lane).zip(output_decode).map(|(l, &d)| (l & 1 == 1) ^ d)
}

/// Little-endian bit decomposition of a ring element.
pub fn to_bits(v: u64, bits: usize) -> Vec<bool> {
    (0..bits).map(|i| (v >> i) & 1 == 1).collect()
}

/// Recomposes little-endian bits into a ring element.
pub fn from_bits(bits: &[bool]) -> u64 {
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedPoint;
    use crate::share::share_secret;
    use proptest::prelude::*;

    /// Garbles `circuit` open under `seed`, selects both parties'
    /// labels for their bits and evaluates.
    pub(super) fn garble_and_eval(
        circuit: &Circuit,
        g_bits: &[bool],
        e_bits: &[bool],
        seed: u64,
    ) -> Vec<bool> {
        let open = garble_open(circuit, &mut Prg::from_u64(seed));
        evaluate(
            circuit,
            &open.tables,
            &select_labels(&open.garbler_label_pairs, g_bits),
            &select_labels(&open.evaluator_label_pairs, e_bits),
            &open.output_decode,
        )
        .unwrap()
    }

    #[test]
    fn single_and_gate() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        let c = b.build();
        for gx in [false, true] {
            for ey in [false, true] {
                assert_eq!(garble_and_eval(&c, &[gx], &[ey], 999), vec![gx & ey]);
            }
        }
    }

    #[test]
    fn xor_and_inv_are_free_and_correct() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.xor(x, y);
        let nz = b.inv(z);
        b.output(z);
        b.output(nz);
        let c = b.build();
        assert_eq!(c.and_count(), 0);
        assert_eq!(c.xor_count(), 1);
        for gx in [false, true] {
            for ey in [false, true] {
                assert_eq!(garble_and_eval(&c, &[gx], &[ey], 999), vec![gx ^ ey, !(gx ^ ey)]);
            }
        }
    }

    #[test]
    fn adder_matches_wrapping_arithmetic() {
        let bits = 16;
        let mut b = CircuitBuilder::new();
        let a: Vec<WireId> = (0..bits).map(|_| b.garbler_input()).collect();
        let bb: Vec<WireId> = (0..bits).map(|_| b.evaluator_input()).collect();
        let s = b.add_mod2n(&a, &bb);
        for w in s {
            b.output(w);
        }
        let c = b.build();
        for (x, y) in [(3u64, 5u64), (65535, 1), (40000, 30000), (0, 0)] {
            let out = garble_and_eval(&c, &to_bits(x, bits), &to_bits(y, bits), 999);
            assert_eq!(from_bits(&out), (x + y) & 0xFFFF, "{x}+{y}");
        }
    }

    #[test]
    fn relu_circuit_computes_ring_relu() {
        let fp = FixedPoint::new(4);
        let bits = 64;
        let c = relu_circuit(1, bits);
        assert_eq!(c.output_count(), bits - 1, "the top bit of a ReLU is 0");
        let mut prg = Prg::from_u64(8);
        for &val in &[-3.5f32, -0.25, 0.0, 0.25, 3.5] {
            let (s0, s1) = share_secret(&[fp.encode(val)], &mut prg);
            let g_bits = to_bits(s1.as_raw()[0], bits);
            let e_bits = to_bits(s0.as_raw()[0], bits);
            let out = garble_and_eval(&c, &g_bits, &e_bits, 999);
            assert_eq!(from_bits(&out), fp.encode(val.max(0.0)), "relu({val})");
        }
    }

    #[test]
    fn relu_circuit_size_is_linear_in_batch() {
        let c1 = relu_circuit(1, 64);
        let c4 = relu_circuit(4, 64);
        assert_eq!(c4.and_count(), 4 * c1.and_count());
        // The reconstruction adder (63 ANDs: no carry out of bit 63) and
        // the mux over bits 0..62 (63 ANDs: bit 63 of a ReLU is 0).
        assert_eq!(c1.and_count(), 63 + 63);
    }

    #[test]
    fn and_tables_cost_two_rows_and_xors_cost_zero() {
        // The acceptance accounting of the half-gates scheme: tables
        // exist only for AND gates (2 rows × 16 B, half a classic
        // four-row table) and XOR gates are free.
        let c = relu_unit_circuit();
        assert!(c.xor_count() > 0);
        let open = garble_open(c, &mut Prg::from_u64(31));
        assert_eq!(open.tables.len(), c.and_count());
        assert_eq!(open.table_bytes(), c.and_count() * AND_TABLE_BYTES);
        assert_eq!(AND_TABLE_BYTES, 32);
        // Adding XOR gates must not grow the tables.
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        let mut w = z;
        for _ in 0..8 {
            w = b.xor(w, x);
        }
        b.output(w);
        let xor_heavy = b.build();
        assert_eq!(xor_heavy.xor_count(), 8);
        let open = garble_open(&xor_heavy, &mut Prg::from_u64(32));
        assert_eq!(open.table_bytes(), AND_TABLE_BYTES);
    }

    #[test]
    fn garbled_relu_and_maxpool_decode_what_eval_plain_computes() {
        // Same circuit, same inputs: the garbled walk decodes exactly
        // the plaintext evaluation, for both non-linearities.
        let circuits =
            [(relu_circuit(2, 16), 4), (relu_circuit(1, 64), 41), (maxpool4_circuit(1, 16), 51)];
        for (c, seed) in circuits {
            let mut prg = Prg::from_u64(seed);
            for round in 0..4 {
                let g_bits: Vec<bool> =
                    (0..c.garbler_input_count()).map(|_| prg.next_bool()).collect();
                let e_bits: Vec<bool> =
                    (0..c.evaluator_input_count()).map(|_| prg.next_bool()).collect();
                assert_eq!(
                    garble_and_eval(&c, &g_bits, &e_bits, seed + 1 + round),
                    c.eval_plain(&g_bits, &e_bits).unwrap()
                );
            }
        }
    }

    #[test]
    fn wrong_artifact_counts_rejected() {
        let c = relu_circuit(1, 8);
        let open = garble_open(&c, &mut Prg::from_u64(5));
        let g_labels =
            select_labels(&open.garbler_label_pairs, &vec![false; c.garbler_input_count()]);
        assert!(evaluate(&c, &open.tables[..1], &g_labels, &[], &open.output_decode).is_err());
        assert!(evaluate(&c, &open.tables, &g_labels[1..], &[], &open.output_decode).is_err());
    }

    #[test]
    fn bit_round_trip() {
        for v in [0u64, 1, 42, u64::MAX, 1 << 63] {
            assert_eq!(from_bits(&to_bits(v, 64)), v);
        }
    }

    #[test]
    fn open_garbling_evaluates_for_any_late_bound_inputs() {
        let c = relu_circuit(1, 16);
        let open = garble_open(&c, &mut Prg::from_u64(78));
        let mut prg = Prg::from_u64(79);
        for _ in 0..4 {
            let g_bits: Vec<bool> = (0..c.garbler_input_count()).map(|_| prg.next_bool()).collect();
            let e_bits: Vec<bool> =
                (0..c.evaluator_input_count()).map(|_| prg.next_bool()).collect();
            let out = evaluate(
                &c,
                &open.tables,
                &select_labels(&open.garbler_label_pairs, &g_bits),
                &select_labels(&open.evaluator_label_pairs, &e_bits),
                &open.output_decode,
            )
            .unwrap();
            assert_eq!(out, c.eval_plain(&g_bits, &e_bits).unwrap());
        }
    }

    #[test]
    fn unit_circuits_are_cached_per_width_and_match_fresh_builds() {
        assert!(std::ptr::eq(relu_unit_circuit(), relu_unit(64)));
        for bits in [8, 24, 32, 64] {
            let units: [(&Circuit, Circuit); 3] = [
                (relu_unit(bits), relu_circuit(1, bits)),
                (maxpool4_unit(bits), maxpool4_circuit(1, bits)),
                (maxpool_relu4_unit(bits), maxpool_relu4_circuit(1, bits)),
            ];
            for (cached, fresh) in units {
                assert_eq!(cached.and_count(), fresh.and_count(), "{bits} bits");
                assert_eq!(cached.evaluator_input_count(), fresh.evaluator_input_count());
            }
            assert!(std::ptr::eq(relu_unit(bits), relu_unit(bits)));
            assert!(std::ptr::eq(maxpool4_unit(bits), maxpool4_unit(bits)));
            assert!(std::ptr::eq(maxpool_relu4_unit(bits), maxpool_relu4_unit(bits)));
        }
        assert!(!std::ptr::eq(relu_unit(24), relu_unit(32)), "one slot per width");
    }

    #[test]
    fn half_gate_and_decodes_under_all_four_permute_combos() {
        // The permute bits (p_a, p_b) of an AND gate's operand zero
        // labels steer which table rows carry the Δ correction; all
        // four combinations must decode correctly. Seeds are drawn
        // until every combination has been exercised.
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input();
        let y = b.evaluator_input();
        let z = b.and(x, y);
        b.output(z);
        let c = b.build();
        let mut seen = [false; 4];
        for seed in 0..64u64 {
            let open = garble_open(&c, &mut Prg::from_u64(seed));
            let pa = open.garbler_label_pairs[0].0 & 1 == 1;
            let pb = open.evaluator_label_pairs[0].0 & 1 == 1;
            seen[((pa as usize) << 1) | pb as usize] = true;
            for gx in [false, true] {
                for ey in [false, true] {
                    let out = evaluate(
                        &c,
                        &open.tables,
                        &select_labels(&open.garbler_label_pairs, &[gx]),
                        &select_labels(&open.evaluator_label_pairs, &[ey]),
                        &open.output_decode,
                    )
                    .unwrap();
                    assert_eq!(out, vec![gx & ey], "permute ({pa},{pb}), inputs ({gx},{ey})");
                }
            }
        }
        assert_eq!(seen, [true; 4], "64 seeds never hit all four permute combinations");
    }

    /// Lane `k` of an eight-lane walk against the lone walk on the same
    /// item seed: Δ, every input label, every table row, every decode
    /// bit, every projection word, and where the item's stream ends.
    fn assert_lanes_equal_lone_walks(circuit: &Circuit, seed: u64) {
        const K: usize = 8;
        let mut prgs: [Prg; K] = from_fn(|k| Prg::from_u64(seed.wrapping_add(k as u64)));
        let mut tables = vec![vec![[0u128; 2]; circuit.and_count()]; K];
        let mut zero = vec![[0u128; K]; circuit.wire_count()];
        let mut lanes = tables.iter_mut();
        let lanes = from_fn(|_| lanes.next().unwrap().as_mut_slice());
        let deltas = garble_lanes(circuit, prgs.each_mut(), lanes, &mut zero);
        let mut words = vec![vec![0u64; circuit.output_count()]; K];
        let mut lanes = words.iter_mut();
        let lanes = from_fn(|_| lanes.next().unwrap().as_mut_slice());
        let outputs = circuit.outputs.iter().map(|&w| zero[w]);
        let zero_points = garble_projection(outputs, 64, deltas, lanes);
        for k in 0..K {
            let mut prg = Prg::from_u64(seed.wrapping_add(k as u64));
            let lone = garble_open(circuit, &mut prg);
            assert_eq!(deltas[k], lone.delta, "lane {k}: Δ");
            assert_eq!(tables[k], lone.tables, "lane {k}: tables");
            let mut lone_words = vec![0u64; circuit.output_count()];
            let outputs = lone.output_zero.iter().map(|&l| [l]);
            let [lone_point] = garble_projection(outputs, 64, [lone.delta], [&mut lone_words]);
            assert_eq!(words[k], lone_words, "lane {k}: projection words");
            assert_eq!(zero_points[k], lone_point, "lane {k}: zero point");
            let zeros = |pairs: &[(u128, u128)]| pairs.iter().map(|p| p.0).collect::<Vec<_>>();
            assert_eq!(
                lane(&circuit.garbler_inputs, &zero, k).collect::<Vec<_>>(),
                zeros(&lone.garbler_label_pairs),
                "lane {k}: garbler labels"
            );
            assert_eq!(
                lane(&circuit.evaluator_inputs, &zero, k).collect::<Vec<_>>(),
                zeros(&lone.evaluator_label_pairs),
                "lane {k}: evaluator labels"
            );
            assert_eq!(
                lane(&circuit.outputs, &zero, k).map(|l| l & 1 == 1).collect::<Vec<_>>(),
                lone.output_decode,
                "lane {k}: decode bits"
            );
            assert_eq!(prgs[k].next_u64(), prg.next_u64(), "lane {k}: stream position");
        }
    }

    #[test]
    fn each_of_eight_lanes_garbles_what_its_item_garbles_alone() {
        for seed in [3u64, 0xC2B1] {
            assert_lanes_equal_lone_walks(relu_unit_circuit(), seed);
            assert_lanes_equal_lone_walks(maxpool4_unit(64), seed);
        }
    }

    /// `bits` evaluator inputs, each its own output: output `j` is input
    /// `j`, so its zero label and permute bit are the input's.
    fn passthrough(bits: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        for _ in 0..bits {
            let w = b.evaluator_input();
            b.output(w);
        }
        b.build()
    }

    /// Projects `open`'s outputs (the `K = 1` gadget) as the low bits of
    /// a `circuit.output_count()`-bit value and returns what the
    /// evaluator decodes for evaluator inputs `bits`, less what the
    /// all-zero output decodes to: exactly `Σ_j bits_j·2ʲ`, the top bit at
    /// `−2ʲ`, for [`passthrough`] if the gadget is sound.
    fn projected(circuit: &Circuit, open: &OpenGarbled, bits: &[bool]) -> u64 {
        let mut words = vec![0u64; circuit.output_count()];
        let outputs = open.output_zero.iter().map(|&l| [l]);
        let width = circuit.output_count();
        let [zero_point] = garble_projection(outputs, width, [open.delta], [&mut words]);
        let mut label = vec![[0u128; 1]; circuit.wire_count()];
        let e = select_labels(&open.evaluator_label_pairs, bits);
        let g =
            select_labels(&open.garbler_label_pairs, &vec![false; circuit.garbler_input_count()]);
        load_lane(circuit, &mut label, 0, &g, &e);
        eval_lanes(circuit, [open.tables.as_slice()], &mut label);
        let [sum] = eval_projection(lane(&circuit.outputs, &label, 0).map(|l| [l]), [&words]);
        sum.wrapping_sub(zero_point)
    }

    #[test]
    fn projection_decodes_every_weight_under_both_permute_bits_and_values() {
        // The permute bit of an output's zero label flips the sign of its
        // projection word; both signs, both wire values and the weights
        // at either end of the word (2⁰, 2¹, 2⁶², 2⁶³ — the last wraps
        // mod 2⁶⁴) must decode exactly. Seeds are drawn until every
        // (weight, permute bit) pair has been exercised.
        let c = passthrough(64);
        let weights = [0usize, 1, 62, 63];
        let mut seen = [[false; 2]; 4];
        for seed in 0..64u64 {
            let open = garble_open(&c, &mut Prg::from_u64(seed));
            for (slot, &j) in seen.iter_mut().zip(&weights) {
                slot[open.output_decode[j] as usize] = true;
                for v in [false, true] {
                    let mut bits = vec![false; 64];
                    bits[j] = v;
                    assert_eq!(projected(&c, &open, &bits), (v as u64) << j, "seed {seed}, 2^{j}");
                    // The other 63 outputs set: the weight still adds in.
                    let bits: Vec<bool> = (0..64).map(|i| if i == j { v } else { true }).collect();
                    let want = u64::MAX - (!v as u64) * (1 << j);
                    assert_eq!(projected(&c, &open, &bits), want, "seed {seed}, 2^{j} in all-ones");
                }
            }
            let mut prg = Prg::from_u64(seed ^ 0x9E37);
            let bits: Vec<bool> = (0..64).map(|_| prg.next_bool()).collect();
            assert_eq!(projected(&c, &open, &bits), from_bits(&bits), "seed {seed}");
        }
        assert_eq!(seen, [[true; 2]; 4], "64 seeds never hit both permute bits of every weight");
    }

    #[test]
    fn a_narrow_projection_sign_extends_its_top_output_into_the_ring() {
        // A 24-bit value's top output weighs −2²³: every 24-bit pattern
        // decodes to its two's-complement reading in the 64-bit ring.
        let c = passthrough(24);
        for seed in 0..16u64 {
            let open = garble_open(&c, &mut Prg::from_u64(seed));
            let mut prg = Prg::from_u64(seed ^ 0x24);
            for v in [0u64, 1, (1 << 23) - 1, 1 << 23, (1 << 24) - 1, prg.next_u64()] {
                let v = v & ((1 << 24) - 1);
                let want = ((v << 40) as i64 >> 40) as u64;
                assert_eq!(projected(&c, &open, &to_bits(v, 24)), want, "seed {seed}, {v:#x}");
            }
        }
    }

    #[test]
    fn projection_tweaks_are_disjoint_from_every_and_tweak() {
        // The projection hashes the output labels under their own tweaks:
        // were one an AND gate's, the evaluator would see two hashes of
        // one label under one tweak, and the CCR argument needs them
        // distinct.
        for c in [relu_unit_circuit(), maxpool4_unit(64), maxpool_relu4_unit(64)] {
            let ands: std::collections::HashSet<u64> = c
                .gates
                .iter()
                .enumerate()
                .filter(|(_, g)| matches!(g, Gate::And { .. }))
                .flat_map(|(gid, _)| [and_tweak(gid), and_tweak(gid) | 1])
                .collect();
            assert_eq!(ands.len(), 2 * c.and_count());
            let proj: std::collections::HashSet<u64> =
                (0..c.output_count()).map(projection_tweak).collect();
            assert_eq!(proj.len(), c.output_count());
            assert!(ands.is_disjoint(&proj));
        }
    }

    #[test]
    fn unit_circuit_garblings_match_their_known_answers() {
        // First captured before the lane walk and the slot reuse landed
        // (per-item `garble_open`, one wire per gate); recaptured once
        // when the circuits lost their `−r` inputs, re-masking adder and
        // dead carries (Δ, the first draw, did not move): the kernel is
        // pinned here, not only through the root transcript goldens. A
        // change that moves any of these moved a draw, a tweak or the
        // hash — and with it every dealt seed's meaning.
        type Kat = (&'static Circuit, [u128; 2], [u128; 2], u64);
        let delta = 0x3b8bbc0980ebfa6cd87234476b2f8b95;
        let kats: [Kat; 3] = [
            (
                relu_unit_circuit(),
                [0x7574ce97a4fcf7a68e887847eb193f1a, 0x07b35d58a17858126c6ddd1a51e5349c],
                [0x06b1b363e12f1ba10e81f9f19471ceab, 0x07c8e7861961400be48433b5382304ac],
                0x5b5bbe4b5a528e68,
            ),
            (
                maxpool4_unit(64),
                [0x9fa3fd4000a6f07501321e8fc58fa2ed, 0x60f83236fd9afb5a52b6742cbbda549a],
                [0x93ccbb70957eff7688d2c81f0124e061, 0x76a9434fb720f3615a1788525612ea6e],
                0x9af33875ce1f7029,
            ),
            // The fused unit opens with the max's gates, so its first
            // table is the max's.
            (
                maxpool_relu4_unit(64),
                [0x9fa3fd4000a6f07501321e8fc58fa2ed, 0x60f83236fd9afb5a52b6742cbbda549a],
                [0xa6bb4615a2062e79c280ab97fe9ae1d6, 0x72905ff517771792290fdfadaa922900],
                0x19e80fbb5b439a5b,
            ),
        ];
        for (circuit, first, last, decode) in kats {
            let open = garble_open(circuit, &mut Prg::from_u64(0xC2B1));
            assert_eq!(open.delta, delta);
            assert_eq!(open.tables[0], first);
            assert_eq!(open.tables[circuit.and_count() - 1], last);
            assert_eq!(from_bits(&open.output_decode), decode);
        }
    }

    /// A random circuit straight from the builder's calls: operands lean
    /// towards recent wires (so slots do fall free), a gate may read one
    /// wire twice, inputs arrive between gates, some gate outputs are
    /// never read, and an output may be an input or named twice.
    fn random_builder(seed: u64) -> CircuitBuilder {
        let mut prg = Prg::from_u64(seed);
        let mut b = CircuitBuilder::new();
        let mut wires = vec![b.garbler_input(), b.evaluator_input()];
        let pick = |prg: &mut Prg, wires: &[WireId]| {
            let recent =
                wires.len().min(if prg.next_u32().is_multiple_of(4) { usize::MAX } else { 6 });
            wires[wires.len() - 1 - prg.next_u32() as usize % recent]
        };
        for _ in 0..prg.next_u32() % 160 {
            let (x, y) = (pick(&mut prg, &wires), pick(&mut prg, &wires));
            wires.push(match prg.next_u32() % 10 {
                0..=2 => b.and(x, y),
                3..=5 => b.xor(x, y),
                6 | 7 => b.inv(x),
                8 => b.garbler_input(),
                _ => b.evaluator_input(),
            });
        }
        for _ in 0..1 + prg.next_u32() % 5 {
            b.output(pick(&mut prg, &wires));
        }
        b
    }

    /// Walks the one-wire-per-gate circuit and its renumbering side by
    /// side, tracking which original wire every slot holds: each read
    /// must find the wire the original gate reads — so no slot is read
    /// after it was released to another wire or before it was written.
    fn assert_slots_hold_what_is_read(raw: &Circuit, built: &Circuit) {
        let mut holds: Vec<Option<WireId>> = vec![None; built.wire_count()];
        for (&w, &slot) in raw.inputs().zip(built.inputs()) {
            assert_eq!(holds[slot].replace(w), None, "two inputs share slot {slot}");
        }
        assert_eq!(raw.gates.len(), built.gates.len());
        for (gid, (orig, gate)) in raw.gates.iter().zip(&built.gates).enumerate() {
            let (reads, out) = match (*orig, *gate) {
                (Gate::Xor { a, b, out }, Gate::Xor { a: sa, b: sb, out: so })
                | (Gate::And { a, b, out }, Gate::And { a: sa, b: sb, out: so }) => {
                    (vec![(a, sa), (b, sb)], (out, so))
                }
                (Gate::Inv { a, out }, Gate::Inv { a: sa, out: so }) => (vec![(a, sa)], (out, so)),
                _ => panic!("gate {gid} changed kind: {orig:?} → {gate:?}"),
            };
            for (wire, slot) in reads {
                assert_eq!(holds[slot], Some(wire), "gate {gid} reads slot {slot}");
            }
            holds[out.1] = Some(out.0);
        }
        for (&w, &slot) in raw.outputs.iter().zip(&built.outputs) {
            assert_eq!(holds[slot], Some(w), "output slot {slot}");
        }
        for (&w, &slot) in raw.inputs().zip(built.inputs()) {
            assert_eq!(holds[slot], Some(w), "input slot {slot} is pinned");
        }
    }

    #[test]
    fn unit_circuits_renumber_soundly() {
        // ReLU: its 128 inputs and 63 outputs are pinned, so three slots
        // carry every temporary. Max: 512 inputs and 64 outputs pinned.
        // The fused unit: the max's gates and its ReLU's 64 more, in the
        // max's slots.
        for (raw, built, wires) in [
            (relu_builder(1, 64).circuit, relu_unit_circuit(), (506, 194)),
            (maxpool4_builder(1, 64).circuit, maxpool4_unit(64), (3289, 771)),
            (maxpool_relu4_builder(1, 64).circuit, maxpool_relu4_unit(64), (3353, 771)),
        ] {
            assert_slots_hold_what_is_read(&raw, built);
            assert_eq!((raw.wire_count(), built.wire_count()), wires);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn garbled_relu_matches_plain_relu(x in any::<i32>(), seed in any::<u64>()) {
            let bits = 32;
            let c = relu_circuit(1, bits);
            let mut prg = Prg::from_u64(seed);
            let xv = (x as i64 as u64) & 0xFFFF_FFFF;
            let s0 = prg.next_u64() & 0xFFFF_FFFF;
            let s1 = xv.wrapping_sub(s0) & 0xFFFF_FFFF;
            let out = garble_and_eval(&c, &to_bits(s1, bits), &to_bits(s0, bits), prg.next_u64());
            let expect = if x < 0 { 0u64 } else { x as u64 };
            prop_assert_eq!(from_bits(&out), expect);
        }

        #[test]
        fn delta_lsb_is_always_one_and_shared_by_every_wire(seed in any::<u64>()) {
            // Free-XOR invariant: one global Δ with its permute bit
            // set, every wire pair exactly Δ apart.
            let c = relu_circuit(1, 8);
            let open = garble_open(&c, &mut Prg::from_u64(seed));
            prop_assert_eq!(open.delta & 1, 1);
            for &(l0, l1) in open.garbler_label_pairs.iter().chain(open.evaluator_label_pairs.iter()) {
                prop_assert_eq!(l0 ^ l1, open.delta);
            }
        }

        #[test]
        fn xor_gate_labels_are_homomorphic(seed in any::<u64>(), va in any::<bool>(), vb in any::<bool>()) {
            // label(a) ⊕ label(b) = label(a⊕b): the four active output
            // labels of an XOR gate collapse to {L⁰, L⁰⊕Δ} with the
            // pairing given by the plaintext XOR.
            let mut b = CircuitBuilder::new();
            let x = b.garbler_input();
            let y = b.evaluator_input();
            let z = b.xor(x, y);
            b.output(z);
            let c = b.build();
            let open = garble_open(&c, &mut Prg::from_u64(seed));
            let la = |v: bool| if v { open.garbler_label_pairs[0].1 } else { open.garbler_label_pairs[0].0 };
            let lb = |v: bool| if v { open.evaluator_label_pairs[0].1 } else { open.evaluator_label_pairs[0].0 };
            let l00 = la(false) ^ lb(false);
            let active = la(va) ^ lb(vb);
            prop_assert_eq!(active, l00 ^ if va ^ vb { open.delta } else { 0 });
            // And the decode bit agrees with the plaintext value.
            let decoded = (active & 1 == 1) ^ open.output_decode[0];
            prop_assert_eq!(decoded, va ^ vb);
        }

        #[test]
        fn renumbered_circuit_is_the_same_circuit_on_fewer_slots(seed in any::<u64>()) {
            let builder = random_builder(seed);
            let raw = builder.circuit.clone();
            let built = builder.build();
            prop_assert_eq!(built.and_count(), raw.and_count());
            prop_assert_eq!(built.xor_count(), raw.xor_count());
            prop_assert_eq!(built.garbler_input_count(), raw.garbler_input_count());
            prop_assert_eq!(built.evaluator_input_count(), raw.evaluator_input_count());
            prop_assert_eq!(built.output_count(), raw.output_count());
            prop_assert!(built.wire_count() <= raw.wire_count());
            assert_slots_hold_what_is_read(&raw, &built);
            let mut prg = Prg::from_u64(seed ^ 0x5107);
            for _ in 0..4 {
                let g: Vec<bool> = (0..raw.garbler_input_count()).map(|_| prg.next_bool()).collect();
                let e: Vec<bool> = (0..raw.evaluator_input_count()).map(|_| prg.next_bool()).collect();
                let plain = raw.eval_plain(&g, &e).unwrap();
                prop_assert_eq!(&built.eval_plain(&g, &e).unwrap(), &plain);
                // And the garbled walks agree with it on the reused slots.
                let open = garble_open(&built, &mut prg);
                let out = evaluate(
                    &built,
                    &open.tables,
                    &select_labels(&open.garbler_label_pairs, &g),
                    &select_labels(&open.evaluator_label_pairs, &e),
                    &open.output_decode,
                ).unwrap();
                prop_assert_eq!(&out, &plain);
            }
        }

        #[test]
        fn lanes_equal_lone_walks_on_random_circuits(seed in any::<u64>()) {
            assert_lanes_equal_lone_walks(&random_builder(seed).build(), seed);
        }
    }
}

#[cfg(test)]
mod maxpool_tests {
    use super::tests::garble_and_eval;
    use super::*;
    use crate::prg::Prg;
    use proptest::prelude::*;

    #[test]
    fn max_signed_picks_larger_twos_complement_value() {
        let bits = 16;
        let mut b = CircuitBuilder::new();
        let a: Vec<WireId> = (0..bits).map(|_| b.garbler_input()).collect();
        let bb: Vec<WireId> = (0..bits).map(|_| b.evaluator_input()).collect();
        let m = b.max_signed(&a, &bb);
        for w in m {
            b.output(w);
        }
        let c = b.build();
        // The carry-only comparator plus the mux: 2·bits − 1 ANDs.
        assert_eq!(c.and_count(), 2 * bits - 1);
        for (x, y) in [(5i16, 3i16), (3, 5), (-4, 2), (2, -4), (-7, -2), (0, 0), (-1, -1), (1, 1)] {
            let out = garble_and_eval(
                &c,
                &to_bits(x as u16 as u64, bits),
                &to_bits(y as u16 as u64, bits),
                2,
            );
            assert_eq!(from_bits(&out) as u16 as i16, x.max(y), "max({x},{y})");
        }
    }

    #[test]
    fn ge_signed_matches_plain_comparison() {
        let bits = 8;
        let mut b = CircuitBuilder::new();
        let a: Vec<WireId> = (0..bits).map(|_| b.garbler_input()).collect();
        let bb: Vec<WireId> = (0..bits).map(|_| b.evaluator_input()).collect();
        let ge = b.ge_signed(&a, &bb);
        b.output(ge);
        let c = b.build();
        assert_eq!(c.and_count(), bits - 1);
        // Exhaustive over the no-overflow range |a−b| < 2^(bits−1).
        for x in -32i64..32 {
            for y in -32i64..32 {
                let out = c
                    .eval_plain(&to_bits(x as u64 & 0xFF, bits), &to_bits(y as u64 & 0xFF, bits))
                    .unwrap();
                assert_eq!(out[0], x >= y, "ge({x},{y})");
            }
        }
    }

    #[test]
    fn maxpool_unit_circuit_and_count_reflects_the_lean_comparator() {
        // 4 reconstruction adders (63 ANDs each: no carry out of bit 63)
        // + 3 tournament maxes (127 ANDs each), and no re-mask adder: the
        // projection masks the output. The carry-only comparator is what
        // brings a max from 191 to 127 ANDs.
        let c = maxpool4_unit(64);
        assert_eq!(c.and_count(), 4 * 63 + 3 * (2 * 64 - 1));
        assert_eq!(c.and_count(), 633);
        assert_eq!(c.output_count(), 64);
        // Fused with the ReLU: one free NOT of the max's sign bit and a
        // 63-AND mux on the bits below it, which are the outputs.
        let fused = maxpool_relu4_unit(64);
        assert_eq!(fused.and_count(), 633 + 63);
        assert_eq!(fused.output_count(), 63);
        assert_eq!(fused.garbler_input_count(), c.garbler_input_count());
        assert_eq!(fused.evaluator_input_count(), c.evaluator_input_count());
    }

    #[test]
    fn maxpool4_circuit_plain_eval_matches_spec() {
        // Exhaustive-ish check of the 4-way max circuit via plain eval.
        let bits = 32;
        let c = maxpool4_circuit(1, bits);
        let mask = 0xFFFF_FFFFu64;
        for vals in [[1i32, 2, 3, 4], [4, 3, 2, 1], [-5, -1, -9, -3], [7, 7, 7, 7], [-1, 0, 1, -2]]
        {
            let mut prg = Prg::from_u64(9);
            let shares0: Vec<u64> = (0..4).map(|_| prg.next_u64() & mask).collect();
            let shares1: Vec<u64> = vals
                .iter()
                .zip(shares0.iter())
                .map(|(&v, &s0)| ((v as i64 as u64).wrapping_sub(s0)) & mask)
                .collect();
            let mut e_bits = Vec::new();
            for &s in &shares0 {
                e_bits.extend(to_bits(s, bits));
            }
            let mut g_bits = Vec::new();
            for &s in &shares1 {
                g_bits.extend(to_bits(s, bits));
            }
            let got = from_bits(&c.eval_plain(&g_bits, &e_bits).unwrap());
            let expect = (*vals.iter().max().unwrap() as i64 as u64) & mask;
            assert_eq!(got, expect, "max of {vals:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn garbled_fused_max_relu_matches_plain_eval(vals in proptest::array::uniform4(-8000i16..8000), seed in any::<u64>()) {
            let bits = 16;
            let mask = 0xFFFFu64;
            let c = maxpool_relu4_circuit(1, bits);
            let mut prg = Prg::from_u64(seed);
            let shares0: Vec<u64> = (0..4).map(|_| prg.next_u64() & mask).collect();
            let shares1: Vec<u64> = vals.iter().zip(shares0.iter())
                .map(|(&v, &s0)| ((v as i64 as u64).wrapping_sub(s0)) & mask).collect();
            let e_bits: Vec<bool> = shares0.iter().flat_map(|&s| to_bits(s, bits)).collect();
            let g_bits: Vec<bool> = shares1.iter().flat_map(|&s| to_bits(s, bits)).collect();
            let plain = c.eval_plain(&g_bits, &e_bits).unwrap();
            let garbled = garble_and_eval(&c, &g_bits, &e_bits, seed ^ 0xABCD);
            prop_assert_eq!(&plain, &garbled);
            let expect = (*vals.iter().max().unwrap()).max(0) as u64;
            prop_assert_eq!(from_bits(&garbled), expect);
        }

        #[test]
        fn garbled_max_matches_plain_eval(vals in proptest::array::uniform4(-8000i16..8000), seed in any::<u64>()) {
            let bits = 16;
            let mask = 0xFFFFu64;
            let c = maxpool4_circuit(1, bits);
            let mut prg = Prg::from_u64(seed);
            let shares0: Vec<u64> = (0..4).map(|_| prg.next_u64() & mask).collect();
            let shares1: Vec<u64> = vals.iter().zip(shares0.iter())
                .map(|(&v, &s0)| ((v as i64 as u64).wrapping_sub(s0)) & mask).collect();
            let mut e_bits = Vec::new();
            for &s in &shares0 { e_bits.extend(to_bits(s, bits)); }
            let mut g_bits = Vec::new();
            for &s in &shares1 { g_bits.extend(to_bits(s, bits)); }
            let plain = c.eval_plain(&g_bits, &e_bits).unwrap();
            let garbled = garble_and_eval(&c, &g_bits, &e_bits, seed ^ 0xABCD);
            prop_assert_eq!(&plain, &garbled);
            let got = from_bits(&garbled);
            let expect = (*vals.iter().max().unwrap() as i64 as u64) & mask;
            prop_assert_eq!(got, expect);
        }
    }
}
