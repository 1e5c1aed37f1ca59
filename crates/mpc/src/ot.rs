//! IKNP oblivious-transfer extension (semi-honest), plus the bit-triple
//! generator built on top of it and the word-packed [`BitTriples`] pool
//! both it and [`crate::dealer::Dealer::bit_triples`] fill.
//!
//! The 128 base OTs come from the [`crate::dealer`] (DESIGN.md §3 — no
//! elliptic-curve crate exists offline); everything from there on is the
//! real protocol: PRG expansion of the base seeds, the `u = t ⊕ PRG ⊕ r`
//! correction matrix (the dominant 16 bytes/OT of traffic), the
//! correlation-robust hash, and the masked message pairs — all moving
//! through the byte-counted channel.
//!
//! One set of [`KAPPA`] base OTs per *session* is enough: the stateful
//! [`OtExtSender`] / [`OtExtReceiver`] pair stretches it to any number
//! of label transfers across any number of extension rounds, deriving
//! each round's matrix expansion from a fresh PRG nonce (both sides
//! advance the tweak in lockstep). This replaces the old
//! one-base-OT-set-per-batch pattern — base OTs are the expensive,
//! amortised setup; extensions are the cheap repeatable part.

use crate::bitvec::BitVec;
use crate::dealer::{BaseOtReceiver, BaseOtSender};
use crate::prg::{prf128, Prg};
use crate::{MpcError, Result};
use c2pi_transport::Channel;

/// Security parameter: number of base OTs / label width in bits.
pub const KAPPA: usize = 128;

fn expand_bits(seed: &[u8; 32], tweak: u64, n: usize) -> Vec<bool> {
    let mut prg = Prg::from_seed_nonce(*seed, tweak);
    let mut out = Vec::with_capacity(n);
    let mut word = 0u64;
    for i in 0..n {
        if i % 64 == 0 {
            word = prg.next_u64();
        }
        out.push((word >> (i % 64)) & 1 == 1);
        if i % 64 == 63 {
            word = 0;
        }
    }
    out
}

/// Runs the receiver side of an IKNP extension for `choices.len()`
/// message-pair OTs, returning the chosen 128-bit messages.
///
/// Single-shot form (expansion tweak 0): correct for base-OT material
/// used once. When one base set serves many rounds, go through
/// [`OtExtReceiver`], which advances the tweak per round.
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn ot_receive<C: Channel + ?Sized>(
    ep: &C,
    base: &BaseOtReceiver,
    choices: &[bool],
) -> Result<Vec<u128>> {
    ot_receive_tweaked(ep, base, 0, choices)
}

fn ot_receive_tweaked<C: Channel + ?Sized>(
    ep: &C,
    base: &BaseOtReceiver,
    tweak: u64,
    choices: &[bool],
) -> Result<Vec<u128>> {
    let m = choices.len();
    if base.seed_pairs.len() != KAPPA {
        return Err(MpcError::BadConfig(format!(
            "expected {KAPPA} base OTs, got {}",
            base.seed_pairs.len()
        )));
    }
    // Row i: t_i = PRG(k0_i); u_i = t_i ⊕ PRG(k1_i) ⊕ r.
    let mut t_rows: Vec<Vec<bool>> = Vec::with_capacity(KAPPA);
    let mut u_frame: Vec<u8> = Vec::with_capacity(KAPPA * m.div_ceil(8));
    for (k0, k1) in &base.seed_pairs {
        let t = expand_bits(k0, tweak, m);
        let g1 = expand_bits(k1, tweak, m);
        let u: Vec<bool> = t
            .iter()
            .zip(g1.iter())
            .zip(choices.iter())
            .map(|((&ti, &gi), &ri)| ti ^ gi ^ ri)
            .collect();
        u_frame.extend_from_slice(&BitVec::from_bools(&u).to_bytes());
        t_rows.push(t);
    }
    ep.send_bytes(&u_frame)?;
    // Column j of T is the receiver's hash key for OT j.
    let mut t_cols = vec![0u128; m];
    for (i, row) in t_rows.iter().enumerate() {
        for (j, &bit) in row.iter().enumerate() {
            if bit {
                t_cols[j] |= 1u128 << i;
            }
        }
    }
    // Receive masked pairs and unmask the chosen one.
    let pads = ep.recv_bytes()?;
    if pads.len() != m * 32 {
        return Err(MpcError::Protocol(format!(
            "expected {} pad bytes, got {}",
            m * 32,
            pads.len()
        )));
    }
    let mut out = Vec::with_capacity(m);
    for (j, &r) in choices.iter().enumerate() {
        let off = j * 32 + if r { 16 } else { 0 };
        let y = u128::from_le_bytes(pads[off..off + 16].try_into().expect("16 bytes"));
        out.push(y ^ prf128(t_cols[j], j as u64));
    }
    Ok(out)
}

/// Runs the sender side of an IKNP extension, transferring one of each
/// 128-bit message pair according to the receiver's choices.
///
/// Single-shot form (expansion tweak 0); see [`OtExtSender`] for the
/// multi-round stateful counterpart.
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn ot_send<C: Channel + ?Sized>(
    ep: &C,
    base: &BaseOtSender,
    pairs: &[(u128, u128)],
) -> Result<()> {
    ot_send_tweaked(ep, base, 0, pairs)
}

fn ot_send_tweaked<C: Channel + ?Sized>(
    ep: &C,
    base: &BaseOtSender,
    tweak: u64,
    pairs: &[(u128, u128)],
) -> Result<()> {
    let m = pairs.len();
    if base.seeds.len() != KAPPA || base.choices.len() != KAPPA {
        return Err(MpcError::BadConfig(format!(
            "expected {KAPPA} base OTs, got {}",
            base.seeds.len()
        )));
    }
    let u_frame = ep.recv_bytes()?;
    let row_bytes = m.div_ceil(8);
    if u_frame.len() != KAPPA * row_bytes {
        return Err(MpcError::Protocol(format!(
            "u-matrix of {} bytes, expected {}",
            u_frame.len(),
            KAPPA * row_bytes
        )));
    }
    // q_i = PRG(k_{s_i}) ⊕ s_i·u_i ; column j then equals t_j ⊕ r_j·s.
    let mut q_cols = vec![0u128; m];
    let mut s_word = 0u128;
    for i in 0..KAPPA {
        if base.choices[i] {
            s_word |= 1u128 << i;
        }
        let g = expand_bits(&base.seeds[i], tweak, m);
        let u = BitVec::from_bytes(&u_frame[i * row_bytes..(i + 1) * row_bytes], m)?;
        for j in 0..m {
            let qij = g[j] ^ (base.choices[i] & u.get(j));
            if qij {
                q_cols[j] |= 1u128 << i;
            }
        }
    }
    let mut pads = Vec::with_capacity(m * 32);
    for (j, &(m0, m1)) in pairs.iter().enumerate() {
        let y0 = prf128(q_cols[j], j as u64) ^ m0;
        let y1 = prf128(q_cols[j] ^ s_word, j as u64) ^ m1;
        pads.extend_from_slice(&y0.to_le_bytes());
        pads.extend_from_slice(&y1.to_le_bytes());
    }
    ep.send_bytes(&pads)?;
    Ok(())
}

/// Stateful sender side of a session-long IKNP extension: one set of
/// [`KAPPA`] base OTs stretched across any number of
/// [`OtExtSender::extend`] rounds. Each round expands the base seeds
/// under a fresh PRG nonce, so rounds are independent; both parties
/// must make their rounds in the same order (the tweaks advance in
/// lockstep).
///
/// Deliberately not `Clone`: two live copies would expand the same
/// `(seed, nonce)` stream for different payloads, which is exactly the
/// reuse the per-round nonce exists to prevent. Likewise, a round that
/// returns an error must not be retried on the same state — the peer's
/// counter may or may not have advanced; wrap fresh base-OT material
/// instead.
#[derive(Debug)]
pub struct OtExtSender {
    base: BaseOtSender,
    tweak: u64,
}

/// Stateful receiver side of a session-long IKNP extension (see
/// [`OtExtSender`], including the no-`Clone`/no-retry contract).
#[derive(Debug)]
pub struct OtExtReceiver {
    base: BaseOtReceiver,
    tweak: u64,
}

/// First tweak the stateful extension wrappers use: tweak 0 is reserved
/// for the single-shot [`ot_send`]/[`ot_receive`] form, so a base set
/// that served one single-shot transfer and is then wrapped can never
/// reuse a `(seed, nonce)` expansion across different payloads.
const FIRST_ROUND_TWEAK: u64 = 1;

impl OtExtSender {
    /// Wraps the session's base-OT material.
    pub fn new(base: BaseOtSender) -> Self {
        OtExtSender { base, tweak: FIRST_ROUND_TWEAK }
    }

    /// Extension rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.tweak - FIRST_ROUND_TWEAK
    }

    /// Transfers one of each message pair according to the peer
    /// receiver's choices, then advances to the next round. The round
    /// counter only advances on success, so both sides stay in lockstep
    /// over *completed* rounds.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors. After an error this
    /// extension state is poisoned for the channel (the peer's round
    /// counter is indeterminate) — do not retry on it.
    pub fn extend<C: Channel + ?Sized>(&mut self, ep: &C, pairs: &[(u128, u128)]) -> Result<()> {
        ot_send_tweaked(ep, &self.base, self.tweak, pairs)?;
        self.tweak += 1;
        Ok(())
    }
}

impl OtExtReceiver {
    /// Wraps the session's base-OT material.
    pub fn new(base: BaseOtReceiver) -> Self {
        OtExtReceiver { base, tweak: FIRST_ROUND_TWEAK }
    }

    /// Extension rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.tweak - FIRST_ROUND_TWEAK
    }

    /// Receives the chosen message of each pair the peer sender offers,
    /// then advances to the next round (on success only — see
    /// [`OtExtSender::extend`]).
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors. After an error this
    /// extension state is poisoned for the channel — do not retry on it.
    pub fn extend<C: Channel + ?Sized>(&mut self, ep: &C, choices: &[bool]) -> Result<Vec<u128>> {
        let out = ot_receive_tweaked(ep, &self.base, self.tweak, choices)?;
        self.tweak += 1;
        Ok(out)
    }
}

/// One party's share of a pool of boolean AND (bit Beaver) triples:
/// `a ⊕ a'`, `b ⊕ b'`, `c ⊕ c'` with `c = a·b` across parties. Three
/// word-packed vectors and a cursor: [`BitTriples::take`] copies the
/// next `n` out at whatever bit offset the cursor stands and advances
/// it, so consumption is exact to the bit and never moves the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTriples {
    pub(crate) a: BitVec,
    pub(crate) b: BitVec,
    pub(crate) c: BitVec,
    taken: usize,
}

impl BitTriples {
    /// Wraps three equally long share vectors as an untouched pool.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub(crate) fn new(a: BitVec, b: BitVec, c: BitVec) -> Self {
        assert!(a.len() == b.len() && b.len() == c.len(), "bit-triple share lengths differ");
        BitTriples { a, b, c, taken: 0 }
    }

    /// Number of triples not yet taken.
    pub fn len(&self) -> usize {
        self.a.len() - self.taken
    }

    /// Whether no triple is left.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the next `n` triples out of the pool.
    ///
    /// # Errors
    ///
    /// Returns a dealer error when fewer than `n` remain; the pool is
    /// left as it was.
    pub fn take(&mut self, n: usize) -> Result<BitTriples> {
        if self.len() < n {
            return Err(MpcError::Dealer(format!(
                "bit-triple pool exhausted: need {n}, have {}",
                self.len()
            )));
        }
        let at = self.taken;
        self.taken += n;
        Ok(BitTriples::new(self.a.slice(at, n), self.b.slice(at, n), self.c.slice(at, n)))
    }
}

/// Generates `n` boolean AND triples via two batched OT extensions
/// (Gilboa-style cross products). `is_initiator` decides which party
/// opens the first extension; both parties must pass opposite values.
///
/// Each party supplies the base-OT material for the direction where it
/// *sends* extended OTs (`my_send_base`) and where it receives
/// (`my_recv_base`).
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn gen_bit_triples<C: Channel + ?Sized>(
    ep: &C,
    is_initiator: bool,
    my_send_base: &BaseOtSender,
    my_recv_base: &BaseOtReceiver,
    n: usize,
    prg: &mut Prg,
) -> Result<BitTriples> {
    // Local random shares of a and b.
    let a: Vec<bool> = (0..n).map(|_| prg.next_bool()).collect();
    let b: Vec<bool> = (0..n).map(|_| prg.next_bool()).collect();
    // Cross term 1: my a × peer b. I act as OT sender with pads hiding a.
    // Cross term 2: peer a × my b. I act as OT receiver with choices b.
    let r_pad: Vec<bool> = (0..n).map(|_| prg.next_bool()).collect();
    let pairs: Vec<(u128, u128)> =
        r_pad.iter().zip(a.iter()).map(|(&r, &ai)| (r as u128, (r ^ ai) as u128)).collect();
    let received: Vec<u128>;
    if is_initiator {
        ot_send(ep, my_send_base, &pairs)?;
        received = ot_receive(ep, my_recv_base, &b)?;
    } else {
        received = ot_receive(ep, my_recv_base, &b)?;
        ot_send(ep, my_send_base, &pairs)?;
    }
    // c share: a·b (local) ⊕ r (my pad for peer's cross term)
    //          ⊕ received bit (peer's pad ⊕ peer_a·my_b).
    let c: Vec<bool> =
        (0..n).map(|i| (a[i] & b[i]) ^ r_pad[i] ^ ((received[i] & 1) == 1)).collect();
    Ok(BitTriples::new(BitVec::from_bools(&a), BitVec::from_bools(&b), BitVec::from_bools(&c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;
    use c2pi_transport::channel_pair;

    /// One extension round's inputs: the sender's pairs and the
    /// receiver's choices.
    type Round = (Vec<(u128, u128)>, Vec<bool>);

    #[test]
    fn expand_bits_is_deterministic_and_tweak_separated() {
        let seed = [3u8; 32];
        assert_eq!(expand_bits(&seed, 0, 100), expand_bits(&seed, 0, 100));
        assert_ne!(expand_bits(&seed, 0, 100), expand_bits(&[4u8; 32], 0, 100));
        // Distinct tweaks give independent expansions of the same seed —
        // what lets one base-OT set serve many extension rounds.
        assert_ne!(expand_bits(&seed, 0, 100), expand_bits(&seed, 1, 100));
    }

    #[test]
    fn one_base_set_serves_many_extension_rounds() {
        let mut dealer = Dealer::new(29);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let mut prg = Prg::from_u64(31);
        let rounds: Vec<Round> = (0..3)
            .map(|r| {
                let m = 50 + 17 * r;
                let pairs: Vec<(u128, u128)> =
                    (0..m).map(|_| (prg.next_u128(), prg.next_u128())).collect();
                let choices: Vec<bool> = (0..m).map(|_| prg.next_bool()).collect();
                (pairs, choices)
            })
            .collect();
        let send_rounds: Vec<Vec<(u128, u128)>> = rounds.iter().map(|(p, _)| p.clone()).collect();
        let t = std::thread::spawn(move || {
            let mut snd = OtExtSender::new(snd_base);
            for pairs in &send_rounds {
                snd.extend(&server, pairs).unwrap();
            }
            assert_eq!(snd.rounds(), 3);
        });
        let mut rcv = OtExtReceiver::new(rcv_base);
        for (pairs, choices) in &rounds {
            let got = rcv.extend(&client, choices).unwrap();
            let want: Vec<u128> = pairs
                .iter()
                .zip(choices.iter())
                .map(|(&(m0, m1), &c)| if c { m1 } else { m0 })
                .collect();
            assert_eq!(got, want);
        }
        t.join().unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn extension_rounds_are_correct_for_random_choices(
            seed in proptest::prelude::any::<u64>(),
            lens in proptest::collection::vec(1usize..80, 1..4),
        ) {
            let mut dealer = Dealer::new(seed);
            let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
            let (client, server, _) = channel_pair();
            let mut prg = Prg::from_u64(seed ^ 0x0BAD_CAFE);
            let rounds: Vec<Round> = lens
                .iter()
                .map(|&m| {
                    let pairs: Vec<(u128, u128)> =
                        (0..m).map(|_| (prg.next_u128(), prg.next_u128())).collect();
                    let choices: Vec<bool> = (0..m).map(|_| prg.next_bool()).collect();
                    (pairs, choices)
                })
                .collect();
            let send_rounds: Vec<Vec<(u128, u128)>> =
                rounds.iter().map(|(p, _)| p.clone()).collect();
            let t = std::thread::spawn(move || {
                let mut snd = OtExtSender::new(snd_base);
                for pairs in &send_rounds {
                    snd.extend(&server, pairs).unwrap();
                }
            });
            let mut rcv = OtExtReceiver::new(rcv_base);
            for (pairs, choices) in &rounds {
                let got = rcv.extend(&client, choices).unwrap();
                for (j, (&(m0, m1), &c)) in pairs.iter().zip(choices.iter()).enumerate() {
                    proptest::prop_assert_eq!(got[j], if c { m1 } else { m0 });
                }
            }
            t.join().unwrap();
        }
    }

    #[test]
    fn ot_transfers_chosen_messages() {
        let mut dealer = Dealer::new(11);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let mut prg = Prg::from_u64(5);
        let pairs: Vec<(u128, u128)> =
            (0..200).map(|_| (prg.next_u128(), prg.next_u128())).collect();
        let choices: Vec<bool> = (0..200).map(|_| prg.next_bool()).collect();
        let expected: Vec<u128> = pairs
            .iter()
            .zip(choices.iter())
            .map(|(&(m0, m1), &c)| if c { m1 } else { m0 })
            .collect();
        let pairs_clone = pairs.clone();
        let t = std::thread::spawn(move || ot_send(&server, &snd_base, &pairs_clone).unwrap());
        let got = ot_receive(&client, &rcv_base, &choices).unwrap();
        t.join().unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn ot_receiver_does_not_learn_other_message() {
        // Statistical check: the unchosen pads decrypt to garbage, i.e.
        // re-deriving with flipped choice bits gives wrong messages.
        let mut dealer = Dealer::new(13);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let pairs: Vec<(u128, u128)> = (0..64).map(|i| (i as u128, (i as u128) << 64)).collect();
        let choices = vec![false; 64];
        let pairs_clone = pairs.clone();
        let t = std::thread::spawn(move || ot_send(&server, &snd_base, &pairs_clone).unwrap());
        let got = ot_receive(&client, &rcv_base, &choices).unwrap();
        t.join().unwrap();
        // Receiver got the m0 messages, never the m1s.
        for (j, g) in got.iter().enumerate() {
            assert_eq!(*g, j as u128);
        }
    }

    #[test]
    fn ot_traffic_is_dominated_by_u_matrix() {
        let mut dealer = Dealer::new(17);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, counter) = channel_pair();
        let m = 1024usize;
        let pairs: Vec<(u128, u128)> = vec![(0, 1); m];
        let choices = vec![true; m];
        let t = std::thread::spawn(move || ot_send(&server, &snd_base, &pairs).unwrap());
        ot_receive(&client, &rcv_base, &choices).unwrap();
        t.join().unwrap();
        let snap = counter.snapshot();
        // u-matrix: 128 * m/8 bytes client→server; pads: 32·m server→client.
        assert_eq!(snap.bytes_client_to_server, (KAPPA * m.div_ceil(8)) as u64);
        assert_eq!(snap.bytes_server_to_client, (32 * m) as u64);
        assert_eq!(snap.round_trips(), 1);
    }

    #[test]
    fn bit_triples_satisfy_and_relation() {
        let mut dealer = Dealer::new(19);
        let (c_snd, s_rcv) = dealer.base_ots(KAPPA);
        let (s_snd, c_rcv) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let n = 500;
        let t = std::thread::spawn(move || {
            let mut prg = Prg::from_u64(100);
            gen_bit_triples(&server, false, &s_snd, &s_rcv, n, &mut prg).unwrap()
        });
        let mut prg = Prg::from_u64(200);
        let mine = gen_bit_triples(&client, true, &c_snd, &c_rcv, n, &mut prg).unwrap();
        let theirs = t.join().unwrap();
        assert_eq!((mine.len(), theirs.len()), (n, n));
        let a = mine.a.xor(&theirs.a);
        let b = mine.b.xor(&theirs.b);
        assert_eq!(mine.c.xor(&theirs.c), a.and(&b));
        // Shares look random: both parties have a mix of 0s and 1s.
        let ones = mine.a.to_bools().iter().filter(|&&x| x).count();
        assert!(0 < ones && ones < n);
    }

    #[test]
    fn bit_triple_pool_takes_by_cursor_at_any_bit_offset() {
        let mut prg = Prg::from_u64(3);
        let n = 300;
        let bits = |prg: &mut Prg| -> Vec<bool> { (0..n).map(|_| prg.next_bool()).collect() };
        let (a, b, c) = (bits(&mut prg), bits(&mut prg), bits(&mut prg));
        let pack = BitVec::from_bools;
        let mut pool = BitTriples::new(pack(&a), pack(&b), pack(&c));
        // Ragged takes: the second starts at bit 70, the third at 133.
        let mut at = 0;
        for take in [70, 63, 0, 130] {
            let t = pool.take(take).unwrap();
            assert_eq!(t.len(), take);
            assert_eq!(t.a.to_bools(), a[at..at + take]);
            assert_eq!(t.b.to_bools(), b[at..at + take]);
            assert_eq!(t.c.to_bools(), c[at..at + take]);
            at += take;
            assert_eq!(pool.len(), n - at);
        }
        // Exhaustion is the typed dealer error and takes nothing.
        let before = pool.clone();
        assert!(matches!(pool.take(38), Err(MpcError::Dealer(_))));
        assert_eq!(pool, before);
        assert_eq!(pool.take(37).unwrap().len(), 37);
        assert!(pool.is_empty());
    }

    #[test]
    fn ot_send_rejects_a_malformed_u_matrix() {
        // Five OTs: each of the 128 rows is one byte, three padding bits.
        let pairs = [(0u128, 1u128); 5];
        let honest = vec![0u8; KAPPA];
        let mut dirty_row = honest.clone();
        dirty_row[77] = 0b0010_0000;
        let malformed: [(&str, Vec<u8>); 3] = [
            ("short", honest[..KAPPA - 1].to_vec()),
            ("over-long", [honest.clone(), vec![0]].concat()),
            ("dirty padding in row 77", dirty_row),
        ];
        for (what, u_frame) in malformed {
            let (snd, _) = Dealer::new(24).base_ots(KAPPA);
            let (client, server, counter) = channel_pair();
            client.send_bytes(&u_frame).unwrap();
            let r = ot_send(&server, &snd, &pairs);
            assert!(matches!(r, Err(MpcError::Protocol(_))), "{what}: {r:?}");
            assert_eq!(counter.snapshot().bytes_server_to_client, 0, "{what}: no pads sent");
        }
        // The honest all-zero matrix of the same shape goes through.
        let (snd, _) = Dealer::new(24).base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        client.send_bytes(&honest).unwrap();
        ot_send(&server, &snd, &pairs).unwrap();
    }

    #[test]
    fn wrong_base_ot_count_rejected() {
        let mut dealer = Dealer::new(23);
        let (snd, rcv) = dealer.base_ots(16); // too few
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || ot_send(&server, &snd, &[(0, 1)]).is_err());
        let r = ot_receive(&client, &rcv, &[true]);
        assert!(r.is_err());
        assert!(t.join().unwrap());
    }
}
