//! A sequential container of boxed layers with range-wise execution —
//! the substrate for splitting a model into crypto and clear segments.

use crate::{Layer, NnError, Param, Result};
use c2pi_tensor::Tensor;

/// An ordered stack of layers executed front to back.
///
/// Beyond plain `forward`/`backward`, the container supports **range
/// execution** (`forward_range`, `backward_range`): C2PI's pipeline runs
/// layers `[0, boundary]` under MPC and `(boundary, n)` in the clear, and
/// MLA backpropagates through a prefix only.
#[derive(Debug, Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        self.forward_range(0, self.layers.len(), x, train)
    }

    /// Runs layers `start..end` (half-open) on `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownCutPoint`] for an invalid range, or the
    /// first layer error.
    pub fn forward_range(
        &mut self,
        start: usize,
        end: usize,
        x: &Tensor,
        train: bool,
    ) -> Result<Tensor> {
        if start > end || end > self.layers.len() {
            return Err(NnError::UnknownCutPoint(format!(
                "range {start}..{end} of {}",
                self.layers.len()
            )));
        }
        let mut cur = x.clone();
        for layer in &mut self.layers[start..end] {
            cur = layer.forward(&cur, train)?;
        }
        Ok(cur)
    }

    /// Immutable inference-mode forward pass: evaluates every layer
    /// through [`Layer::forward_eval`], leaving backward caches and
    /// layer state untouched. The path serving uses.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward_eval(&self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward_eval(&cur)?;
        }
        Ok(cur)
    }

    /// Full forward pass that also returns the output of every layer
    /// (used to read distillation points and boundary activations).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward_collect(&mut self, x: &Tensor, train: bool) -> Result<Vec<Tensor>> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train)?;
            outs.push(cur.clone());
        }
        Ok(outs)
    }

    /// Backpropagates through layers `start..end` in reverse, returning
    /// the gradient with respect to the input of layer `start`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid range or a missing cache.
    pub fn backward_range(&mut self, start: usize, end: usize, grad: &Tensor) -> Result<Tensor> {
        if start > end || end > self.layers.len() {
            return Err(NnError::UnknownCutPoint(format!(
                "range {start}..{end} of {}",
                self.layers.len()
            )));
        }
        let mut g = grad.clone();
        for layer in self.layers[start..end].iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Full backward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        self.backward_range(0, self.layers.len(), grad)
    }

    /// All learnable parameters, in layer order.
    pub fn params(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Drops all cached activations.
    pub fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// One-line-per-layer architecture summary.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{i:>3}: {}", l.describe()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};

    fn tiny_net() -> Sequential {
        let mut s = Sequential::new();
        s.push(Conv2d::new(1, 2, 3, 1, 1, 1, 0));
        s.push(Relu::new());
        s.push(MaxPool2d::new(2, 2));
        s.push(Flatten::new());
        s.push(Linear::new(2 * 2 * 2, 3, 1));
        s
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net();
        let x = Tensor::rand_uniform(&[2, 1, 4, 4], -1.0, 1.0, 2);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn range_split_equals_full_forward() {
        let mut net = tiny_net();
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, 3);
        let full = net.forward(&x, false).unwrap();
        let mid = net.forward_range(0, 2, &x, false).unwrap();
        let rest = net.forward_range(2, 5, &mid, false).unwrap();
        assert_eq!(full, rest);
    }

    #[test]
    fn forward_collect_matches_layerwise() {
        let mut net = tiny_net();
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, 4);
        let outs = net.forward_collect(&x, false).unwrap();
        assert_eq!(outs.len(), 5);
        assert_eq!(outs[4], net.forward(&x, false).unwrap());
        assert_eq!(outs[1], net.forward_range(0, 2, &x, false).unwrap());
    }

    #[test]
    fn invalid_range_rejected() {
        let mut net = tiny_net();
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(net.forward_range(3, 2, &x, false).is_err());
        assert!(net.forward_range(0, 99, &x, false).is_err());
    }

    #[test]
    fn backward_through_whole_net_returns_input_grad() {
        let mut net = tiny_net();
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, 5);
        let y = net.forward(&x, true).unwrap();
        let gx = net.backward(&Tensor::full(y.dims(), 1.0)).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn zero_grad_resets_all() {
        let mut net = tiny_net();
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, 7);
        let y = net.forward(&x, true).unwrap();
        net.backward(&Tensor::full(y.dims(), 1.0)).unwrap();
        assert!(net.params().iter().any(|p| p.grad.sq_norm() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.sq_norm() == 0.0));
    }

    #[test]
    fn summary_lists_layers() {
        let net = tiny_net();
        let s = net.summary();
        assert!(s.contains("conv2d"));
        assert!(s.contains("relu"));
        assert!(s.contains("linear"));
        assert_eq!(s.lines().count(), 5);
    }
}
