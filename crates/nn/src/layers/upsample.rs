//! Nearest-neighbour upsampling layer.

use crate::{Layer, LayerKind, NnError, Result};
use c2pi_tensor::pool;
use c2pi_tensor::Tensor;

/// Nearest-neighbour upsampling by an integer factor: the
/// resolution-growing layer of the inversion networks, each followed by
/// a [`super::Conv2d`].
#[derive(Debug, Clone)]
pub struct UpsampleNearest {
    factor: usize,
    did_forward: bool,
}

impl UpsampleNearest {
    /// Creates an upsampling layer.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "upsample factor must be positive");
        UpsampleNearest { factor, did_forward: false }
    }

    /// The upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Layer for UpsampleNearest {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Result<Tensor> {
        self.did_forward = true;
        Ok(pool::upsample_nearest(x, self.factor)?)
    }

    fn forward_eval(&self, x: &Tensor) -> Result<Tensor> {
        Ok(pool::upsample_nearest(x, self.factor)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        if !self.did_forward {
            return Err(NnError::MissingCache { layer: "upsample_nearest" });
        }
        self.did_forward = false;
        Ok(pool::upsample_nearest_backward(grad_out, self.factor)?)
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Reshape
    }

    fn describe(&self) -> String {
        format!("upsample_nearest(x{})", self.factor)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.did_forward = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_round_trip() {
        let mut up = UpsampleNearest::new(2);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, 0);
        let y = up.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[1, 2, 6, 6]);
        let g = up.backward(&Tensor::full(y.dims(), 1.0)).unwrap();
        assert!(g.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut up = UpsampleNearest::new(2);
        assert!(up.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }
}
