//! The two party walks over a compiled plan: the client party of one
//! inference, and the server party of `k ≥ 1` members in lock step.
//! They differ in data (the server holds weights and biases) and in
//! arity, so they are two functions over shared step helpers.

use crate::backend::PiBackendImpl;
use crate::engine::PiConfig;
use crate::plan::{Plan, Step, StepData};
use crate::pool::{ClientMat, ServerMat};
use crate::{PiError, Result};
use c2pi_mpc::beaver::truncate_share;
use c2pi_mpc::dealer::LinearCorrServer;
use c2pi_mpc::prg::Prg;
use c2pi_mpc::ring::{im2col_ring, RingMatrix};
use c2pi_mpc::share::{share_secret, ShareVec};
use c2pi_tensor::Tensor;
use c2pi_transport::Channel;

/// Gathers 2×2 window elements of a `[c, h, w]` share into four parallel
/// index lists (public permutation, applied by both parties).
fn pool_windows(c: usize, h: usize, w: usize) -> Vec<[usize; 4]> {
    let mut idx = Vec::with_capacity(c * (h / 2) * (w / 2));
    for ch in 0..c {
        let plane = ch * h * w;
        for oy in 0..h / 2 {
            for ox in 0..w / 2 {
                let base = plane + 2 * oy * w + 2 * ox;
                idx.push([base, base + 1, base + w, base + w + 1]);
            }
        }
    }
    idx
}

fn gather(share: &ShareVec, idx: &[[usize; 4]]) -> ShareVec {
    let mut out = Vec::with_capacity(idx.len() * 4);
    for quad in idx {
        for &i in quad {
            out.push(share.as_raw()[i]);
        }
    }
    ShareVec::from_raw(out)
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

/// A linear step's input share as the matrix its weights multiply:
/// im2col columns for a convolution, one column for a fully connected
/// layer.
fn linear_input(step: &Step, cur: &ShareVec) -> Result<RingMatrix> {
    match step {
        Step::Conv { c, h, w, geom } => Ok(im2col_ring(cur.as_raw(), *c, *h, *w, *geom)?),
        Step::Fc { k } => Ok(RingMatrix::from_vec(cur.as_raw().to_vec(), *k, 1)?),
        _ => Err(PiError::BadConfig("not a linear step".into())),
    }
}

/// The client party of one online inference: shares the input, then
/// walks the plan over its half of one material set.
pub(crate) fn client_walk(
    ep: &dyn Channel,
    plan: &Plan,
    mats: Vec<ClientMat>,
    x: &Tensor,
    cfg: &PiConfig,
    backend: &dyn PiBackendImpl,
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
                let y = backend.linear_online_client(ep, &linear_input(step, &cur)?, &corr)?;
                cur = truncate_share(&ShareVec::from_raw(y.into_vec()), true, fp);
            }
            (Step::Relu { n: _ }, ClientMat::Nl(material)) => {
                cur = backend.relu_online_client(ep, &cur, material, cfg)?;
            }
            (Step::MaxPool { c, h, w }, ClientMat::Nl(material)) => {
                let quads = gather(&cur, &pool_windows(*c, *h, *w));
                cur = backend.maxpool_online_client(ep, &quads, material, cfg)?;
            }
            (Step::AvgPool { c, h, w, window, stride }, ClientMat::None) => {
                cur = avg_pool_share(&cur, (*c, *h, *w), (*window, *stride), true, fp);
            }
            (Step::Flatten, ClientMat::None) => {}
            (Step::Affine, ClientMat::Affine(corr)) => {
                let y = c2pi_mpc::beaver::affine_client(ep, &cur, &corr)?;
                cur = truncate_share(&y, true, fp);
            }
            _ => return Err(PiError::BadConfig("plan/material mismatch (client)".into())),
        }
    }
    Ok(cur)
}

fn server_mismatch() -> PiError {
    PiError::BadConfig("plan/material mismatch (server)".into())
}

/// Unwraps one step's per-member materials as the variant the step
/// consumes.
fn step_mats<T>(mats: Vec<ServerMat>, pick: fn(ServerMat) -> Option<T>) -> Result<Vec<T>> {
    mats.into_iter().map(|m| pick(m).ok_or_else(server_mismatch)).collect()
}

/// The server party: walks the plan **once** for `k ≥ 1` members in
/// lock step, calling the backend's server hooks so each layer's
/// compute spans all members (column-stacked matmuls, one parallel GC
/// label-selection region), while every member keeps its own channel,
/// material and masks. In-process inference and
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
    backend: &dyn PiBackendImpl,
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
    for (step, data) in plan.steps.iter().zip(plan.data.iter()) {
        let mats: Vec<ServerMat> = iters
            .iter_mut()
            .map(|it| it.next().ok_or_else(server_mismatch))
            .collect::<Result<_>>()?;
        match (step, data) {
            (Step::Conv { .. } | Step::Fc { .. }, StepData::Lin { w: w_ring, bias2f, .. }) => {
                let corrs =
                    step_mats(mats, |m| if let ServerMat::Lin(c) = m { Some(c) } else { None })?;
                let corr_refs: Vec<&LinearCorrServer> = corrs.iter().collect();
                let xs: Vec<RingMatrix> =
                    curs.iter().map(|cur| linear_input(step, cur)).collect::<Result<_>>()?;
                let ys = backend.linear_online_server(eps, w_ring, &xs, &corr_refs)?;
                // One bias per output row (a fully connected layer's
                // rows are one element wide).
                curs = ys
                    .into_iter()
                    .map(|mut y| {
                        let cols = y.cols();
                        for (row, &b) in y.as_mut_slice().chunks_exact_mut(cols).zip(bias2f) {
                            for v in row {
                                *v = v.wrapping_add(b);
                            }
                        }
                        truncate_share(&ShareVec::from_raw(y.into_vec()), false, fp)
                    })
                    .collect();
            }
            (Step::Relu { n: _ }, StepData::None) => {
                let materials =
                    step_mats(mats, |m| if let ServerMat::Nl(c) = m { Some(c) } else { None })?;
                curs = backend.relu_online_server(eps, &curs, materials, cfg)?;
            }
            (Step::MaxPool { c, h, w }, StepData::None) => {
                let materials =
                    step_mats(mats, |m| if let ServerMat::Nl(c) = m { Some(c) } else { None })?;
                let idx = pool_windows(*c, *h, *w);
                let quads: Vec<ShareVec> = curs.iter().map(|cur| gather(cur, &idx)).collect();
                curs = backend.maxpool_online_server(eps, &quads, materials, cfg)?;
            }
            (Step::AvgPool { c, h, w, window, stride }, StepData::None) => {
                step_mats(mats, |m| matches!(m, ServerMat::None).then_some(()))?;
                curs = curs
                    .iter()
                    .map(|cur| avg_pool_share(cur, (*c, *h, *w), (*window, *stride), false, fp))
                    .collect();
            }
            (Step::Flatten, StepData::None) => {
                step_mats(mats, |m| matches!(m, ServerMat::None).then_some(()))?;
            }
            (Step::Affine, StepData::Affine { scale, shift2f }) => {
                let corrs =
                    step_mats(mats, |m| if let ServerMat::Affine(c) = m { Some(c) } else { None })?;
                curs = curs
                    .iter()
                    .zip(eps)
                    .zip(&corrs)
                    .map(|((cur, ep), corr)| {
                        let y = c2pi_mpc::beaver::affine_server(*ep, scale, cur, corr)?;
                        let shifted: Vec<u64> = y
                            .as_raw()
                            .iter()
                            .zip(shift2f.iter())
                            .map(|(&v, &s)| v.wrapping_add(s))
                            .collect();
                        Ok(truncate_share(&ShareVec::from_raw(shifted), false, fp))
                    })
                    .collect::<Result<_>>()?;
            }
            _ => return Err(server_mismatch()),
        }
    }
    Ok(curs)
}
