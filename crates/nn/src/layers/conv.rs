//! 2-D convolution (with optional dilation), the workhorse linear layer.

use crate::layer::LayerSpec;
use crate::{Layer, LayerKind, NnError, Param, Result};
use c2pi_tensor::conv::{col2im, im2col, Conv2dGeom};
use c2pi_tensor::{matmul, Tensor};

/// A 2-D convolution layer `[n, ic, h, w] -> [n, oc, oh, ow]`.
///
/// Supports stride, zero padding and dilation (DINA's basic inverse
/// blocks use dilated convolutions). Forward uses the im2col + matmul
/// fast path; backward recomputes the patch matrix rather than caching
/// it, trading FLOPs for memory — attack training holds many layers
/// alive at once.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geom: Conv2dGeom,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel`, `stride`
    /// is zero (dilation is validated by [`Conv2dGeom::new`]).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        dilation: usize,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channels must be positive");
        let geom = Conv2dGeom::new(kernel, stride, padding, dilation);
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            geom,
            weight: Param::kaiming(&[out_channels, in_channels, kernel, kernel], fan_in, seed),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            cached_input: None,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> Conv2dGeom {
        self.geom
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Immutable view of the weight tensor `[oc, ic, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Immutable view of the bias tensor `[oc]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    fn weight_mat(&self) -> Result<Tensor> {
        let k = self.geom.kernel;
        Ok(self.weight.value.reshape(&[self.out_channels, self.in_channels * k * k])?)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        let (n, c, h, w) = x.shape().as_nchw()?;
        if c != self.in_channels {
            return Err(NnError::BadConfig(format!(
                "conv2d expects {} input channels, got {c}",
                self.in_channels
            )));
        }
        let (oh, ow) = self.geom.output_hw(h, w)?;
        let wmat = self.weight_mat()?;
        let mut items = Vec::with_capacity(n);
        for b in 0..n {
            let cols = im2col(&x.batch_item(b)?, self.geom)?;
            let mut prod = wmat.matmul(&cols)?;
            for o in 0..self.out_channels {
                let bv = self.bias.value.as_slice()[o];
                for v in &mut prod.as_mut_slice()[o * oh * ow..(o + 1) * oh * ow] {
                    *v += bv;
                }
            }
            items.push(prod.reshape(&[1, self.out_channels, oh, ow])?);
        }
        self.cached_input = Some(x.clone());
        Ok(Tensor::stack_batch(&items)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self.cached_input.take().ok_or(NnError::MissingCache { layer: "conv2d" })?;
        let (n, _, h, w) = x.shape().as_nchw()?;
        let (gn, goc, oh, ow) = grad_out.shape().as_nchw()?;
        if gn != n || goc != self.out_channels {
            return Err(NnError::BadConfig(format!(
                "conv2d backward: gradient shape {:?} incompatible",
                grad_out.dims()
            )));
        }
        let wmat = self.weight_mat()?;
        let k = self.geom.kernel;
        let ckk = self.in_channels * k * k;
        let mut grad_items = Vec::with_capacity(n);
        let mut wgrad = Tensor::zeros(&[self.out_channels, ckk]);
        let mut bgrad = Tensor::zeros(&[self.out_channels]);
        for b in 0..n {
            let cols = im2col(&x.batch_item(b)?, self.geom)?;
            let gmat = grad_out.batch_item(b)?.reshape(&[self.out_channels, oh * ow])?;
            // dW += g × colsᵀ
            wgrad.add_assign_scaled(&matmul::matmul_bt(&gmat, &cols)?, 1.0)?;
            // db += row sums of g
            for o in 0..self.out_channels {
                bgrad.as_mut_slice()[o] +=
                    gmat.as_slice()[o * oh * ow..(o + 1) * oh * ow].iter().sum::<f32>();
            }
            // dX = col2im(Wᵀ × g)
            let gcols = matmul::matmul_at(&wmat, &gmat)?;
            grad_items.push(col2im(&gcols, self.in_channels, h, w, self.geom)?);
        }
        self.weight.grad.add_assign_scaled(
            &wgrad.reshape(&[self.out_channels, self.in_channels, k, k])?,
            1.0,
        )?;
        self.bias.grad.add_assign_scaled(&bgrad, 1.0)?;
        Ok(Tensor::stack_batch(&grad_items)?)
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Linear
    }

    fn describe(&self) -> String {
        format!(
            "conv2d({}->{}, k{} s{} p{} d{})",
            self.in_channels,
            self.out_channels,
            self.geom.kernel,
            self.geom.stride,
            self.geom.padding,
            self.geom.dilation
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            weight: self.weight.value.clone(),
            bias: self.bias.value.clone(),
            geom: self.geom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_tensor::conv::conv2d_direct;

    fn finite_diff_check(layer: &mut Conv2d, x: &Tensor) {
        // Scalar loss L = sum(forward(x)); check dL/dx via finite differences.
        let y = layer.forward(x, true).unwrap();
        let grad_out = Tensor::full(y.dims(), 1.0);
        let gx = layer.backward(&grad_out).unwrap();
        let eps = 1e-2f32;
        for probe in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let lp = layer.forward(&xp, true).unwrap().sum();
            let lm = layer.forward(&xm, true).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "probe {probe}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn forward_matches_direct_reference() {
        let mut layer = Conv2d::new(3, 5, 3, 1, 1, 1, 7);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, 1);
        let fast = layer.forward(&x, false).unwrap();
        let slow = conv2d_direct(&x, layer.weight(), layer.bias(), layer.geom()).unwrap();
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn dilated_forward_matches_reference() {
        let mut layer = Conv2d::new(2, 3, 3, 1, 2, 2, 9);
        let x = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, 2);
        let fast = layer.forward(&x, false).unwrap();
        let slow = conv2d_direct(&x, layer.weight(), layer.bias(), layer.geom()).unwrap();
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut layer = Conv2d::new(2, 4, 3, 1, 1, 1, 3);
        let x = Tensor::rand_uniform(&[1, 2, 6, 6], -1.0, 1.0, 4);
        finite_diff_check(&mut layer, &x);
    }

    #[test]
    fn strided_input_gradient_matches_finite_differences() {
        let mut layer = Conv2d::new(2, 3, 3, 2, 1, 1, 5);
        let x = Tensor::rand_uniform(&[1, 2, 7, 7], -1.0, 1.0, 6);
        finite_diff_check(&mut layer, &x);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut layer = Conv2d::new(2, 2, 3, 1, 1, 1, 8);
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, 9);
        let y = layer.forward(&x, true).unwrap();
        layer.backward(&Tensor::full(y.dims(), 1.0)).unwrap();
        let analytic = layer.weight.grad.clone();
        let eps = 1e-2f32;
        for probe in [0usize, 17, analytic.len() - 1] {
            let orig = layer.weight.value.as_slice()[probe];
            layer.weight.value.as_mut_slice()[probe] = orig + eps;
            let lp = layer.forward(&x, true).unwrap().sum();
            layer.weight.value.as_mut_slice()[probe] = orig - eps;
            let lm = layer.forward(&x, true).unwrap().sum();
            layer.weight.value.as_mut_slice()[probe] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[probe]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn bias_gradient_is_spatial_sum() {
        let mut layer = Conv2d::new(1, 2, 3, 1, 1, 1, 10);
        let x = Tensor::rand_uniform(&[2, 1, 4, 4], -1.0, 1.0, 11);
        let y = layer.forward(&x, true).unwrap();
        layer.backward(&Tensor::full(y.dims(), 1.0)).unwrap();
        // Each output position contributes gradient 1; bias sees n*oh*ow.
        assert_eq!(layer.bias.grad.as_slice(), &[32.0, 32.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Conv2d::new(1, 1, 3, 1, 1, 1, 12);
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 1, 4, 4])),
            Err(NnError::MissingCache { .. })
        ));
    }

    #[test]
    fn wrong_channel_count_rejected() {
        let mut layer = Conv2d::new(3, 4, 3, 1, 1, 1, 13);
        assert!(layer.forward(&Tensor::zeros(&[1, 2, 8, 8]), false).is_err());
    }
}
