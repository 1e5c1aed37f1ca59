//! The two party walks over a compiled plan: the client party of one
//! inference, and the server party of `k ≥ 1` members in lock step.
//! They differ in data (the server holds weights and biases) and in
//! arity, so they are two functions over shared step helpers.

use crate::backend::{nl_client, nl_server};
use crate::engine::PiConfig;
use crate::plan::{gather, Plan, Step};
use crate::pool::{mismatch, step_mats, ClientMat, ServerMat};
use crate::{PiError, Result};
use c2pi_mpc::beaver::{linear_client, linear_server_members, truncate_share};
use c2pi_mpc::dealer::LinearCorrServer;
use c2pi_mpc::prg::Prg;
use c2pi_mpc::ring::RingMatrix;
use c2pi_mpc::share::{share_secret, ShareVec};
use c2pi_tensor::Tensor;
use c2pi_transport::Channel;

/// A unit step's input share, item-major (see [`gather`]).
fn unit_input(window: &Option<Vec<[usize; 4]>>, share: ShareVec) -> ShareVec {
    ShareVec::from_raw(gather(window, share.into_raw()))
}

fn avg_pool_share(
    share: &ShareVec,
    (c, h, w): (usize, usize, usize),
    (window, stride): (usize, usize),
    is_client: bool,
    fp: c2pi_mpc::FixedPoint,
) -> ShareVec {
    let oh = (h - window) / stride + 1;
    let ow = (w - window) / stride + 1;
    let coeff = fp.encode(1.0 / (window * window) as f32);
    let mut out = Vec::with_capacity(c * oh * ow);
    for ch in 0..c {
        let plane = ch * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0u64;
                for ky in 0..window {
                    for kx in 0..window {
                        acc = acc.wrapping_add(
                            share.as_raw()[plane + (oy * stride + ky) * w + ox * stride + kx],
                        );
                    }
                }
                out.push(acc.wrapping_mul(coeff));
            }
        }
    }
    truncate_share(&ShareVec::from_raw(out), is_client, fp)
}

/// The client party of one online inference: shares the input, then
/// walks the plan over its half of one material set.
pub(crate) fn client_walk(
    ep: &dyn Channel,
    plan: &Plan,
    mats: Vec<ClientMat>,
    x: &Tensor,
    cfg: &PiConfig,
    seed: u64,
) -> Result<ShareVec> {
    let fp = cfg.fixed;
    // Share the input: keep x0, send x1.
    let secret = fp.encode_tensor(x);
    let mut prg = Prg::from_u64(seed ^ 0xC11E_57A9);
    let (x0, x1) = share_secret(&secret, &mut prg);
    ep.send_u64s(x1.as_raw())?;
    let mut cur = x0;
    for (step, mat) in plan.steps.iter().zip(mats) {
        match (step, mat) {
            (Step::Conv { .. } | Step::Fc { .. }, ClientMat::Lin(corr)) => {
                let y = linear_client(ep, &step.linear_input(cur.as_raw())?, &corr)?;
                cur = truncate_share(&ShareVec::from_raw(y.into_vec()), true, fp);
            }
            (Step::Unit { op, bits, window, .. }, mat) => {
                cur = nl_client(ep, (*op, *bits), &unit_input(window, cur), mat, cfg)?;
            }
            (Step::AvgPool { c, h, w, window, stride }, ClientMat::None) => {
                cur = avg_pool_share(&cur, (*c, *h, *w), (*window, *stride), true, fp);
            }
            (Step::Flatten, ClientMat::None) => {}
            _ => return Err(mismatch("client")),
        }
    }
    Ok(cur)
}

/// The server party: walks the plan **once** for `k ≥ 1` members in
/// lock step, so each layer's compute spans all members
/// (column-stacked matmuls, one parallel GC label-selection region),
/// while every member keeps its own channel, material and masks.
/// Non-linear layers go to the backend ([`nl_server`]), linear ones to
/// the one masked-linear protocol. In-process inference and
/// [`PiSession::serve_one`] run it with one member; a coalescing serving
/// layer with as many as it fused.
///
/// Member order is served deterministically (slice order) at every
/// flight; per-member sequential sub-loops are deadlock-free because
/// clients progress independently and flights buffer in the transport.
pub(crate) fn server_walk(
    eps: &[&dyn Channel],
    plan: &Plan,
    mats: Vec<Vec<ServerMat>>,
    cfg: &PiConfig,
) -> Result<Vec<ShareVec>> {
    let k = eps.len();
    if k == 0 || mats.len() != k {
        return Err(PiError::BadConfig(format!(
            "server walk over {k} channels, {} material sets",
            mats.len()
        )));
    }
    let fp = cfg.fixed;
    let mut curs = Vec::with_capacity(k);
    for ep in eps {
        curs.push(ShareVec::from_raw(ep.recv_u64s()?));
    }
    let mut iters: Vec<std::vec::IntoIter<ServerMat>> =
        mats.into_iter().map(Vec::into_iter).collect();
    for step in &plan.steps {
        let mats: Vec<ServerMat> = iters
            .iter_mut()
            .map(|it| it.next().ok_or_else(|| mismatch("server")))
            .collect::<Result<_>>()?;
        match step {
            Step::Conv { lin, .. } | Step::Fc { lin } => {
                let corrs =
                    step_mats(mats, |m| if let ServerMat::Lin(c) = m { Some(c) } else { None })?;
                let corr_refs: Vec<&LinearCorrServer> = corrs.iter().collect();
                let xs: Vec<RingMatrix> = curs
                    .iter()
                    .map(|cur| step.linear_input(cur.as_raw()))
                    .collect::<Result<_>>()?;
                let ys = linear_server_members(eps, &lin.w, &xs, &corr_refs)?;
                // One bias per output row (a fully connected layer's
                // rows are one element wide).
                curs = ys
                    .into_iter()
                    .map(|mut y| {
                        let cols = y.cols();
                        for (row, &b) in y.as_mut_slice().chunks_exact_mut(cols).zip(&lin.bias2f) {
                            for v in row {
                                *v = v.wrapping_add(b);
                            }
                        }
                        truncate_share(&ShareVec::from_raw(y.into_vec()), false, fp)
                    })
                    .collect();
            }
            Step::Unit { op, bits, window, .. } => {
                let ins: Vec<ShareVec> =
                    curs.into_iter().map(|cur| unit_input(window, cur)).collect();
                curs = nl_server(eps, (*op, *bits), &ins, mats, cfg)?;
            }
            Step::AvgPool { c, h, w, window, stride } => {
                step_mats(mats, |m| matches!(m, ServerMat::None).then_some(()))?;
                curs = curs
                    .iter()
                    .map(|cur| avg_pool_share(cur, (*c, *h, *w), (*window, *stride), false, fp))
                    .collect();
            }
            Step::Flatten => {
                step_mats(mats, |m| matches!(m, ServerMat::None).then_some(()))?;
            }
        }
    }
    Ok(curs)
}
