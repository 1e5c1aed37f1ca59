//! The core [`Tensor`] type: an owned, row-major `f32` array.

use crate::{matmul, Result, Shape, TensorError};
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// An owned, dense, row-major `f32` tensor.
///
/// Activations and images use the NCHW convention `[batch, channels,
/// height, width]`; weight matrices are rank-2 `[rows, cols]`.
///
/// Most arithmetic helpers come in two flavours: a fallible, shape-checked
/// method returning [`Result`] (e.g. [`Tensor::add`]) and an in-place
/// variant (e.g. [`Tensor::add_assign_scaled`]) used in hot loops.
///
/// ```
/// use c2pi_tensor::Tensor;
/// let x = Tensor::full(&[2, 2], 3.0);
/// let y = x.map(|v| v * 2.0);
/// assert_eq!(y.as_slice(), &[6.0; 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the buffer length does
    /// not equal the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                found: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`,
    /// seeded deterministically.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::new(dims);
        let data = (0..shape.volume()).map(|_| rng.random_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with approximately normal elements (Irwin–Hall sum
    /// of 12 uniforms), mean `mean`, standard deviation `std`, seeded
    /// deterministically.
    pub fn rand_normal(dims: &[usize], mean: f32, std: f32, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::new(dims);
        let data = (0..shape.volume())
            .map(|_| {
                let s: f32 = (0..12).map(|_| rng.random::<f32>()).sum::<f32>() - 6.0;
                mean + std * s
            })
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Propagates index validation errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                found: self.data.len(),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Elementwise binary operation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other, "zip_map")?;
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// `self += alpha * other`, in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign_scaled(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        self.check_same_shape(other, "add_assign_scaled")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm `Σ vᵢ²`.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Mean squared difference against another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mse(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "mse")?;
        let n = self.data.len().max(1) as f32;
        Ok(self.data.iter().zip(other.data.iter()).map(|(&a, &b)| (a - b) * (a - b)).sum::<f32>()
            / n)
    }

    /// Index of the largest element (`None` when empty).
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Matrix product (rank-2 × rank-2).
    ///
    /// # Errors
    ///
    /// Returns an error unless `self` is `[m, k]` and `rhs` is `[k, n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        matmul::matmul(self, rhs)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transpose(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix()?;
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts batch element `b` of an NCHW tensor as a `[1, c, h, w]`
    /// tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 tensors or out-of-range batch
    /// indices.
    pub fn batch_item(&self, b: usize) -> Result<Tensor> {
        let (n, c, h, w) = self.shape.as_nchw()?;
        if b >= n {
            return Err(TensorError::IndexOutOfBounds { index: b, len: n });
        }
        let stride = c * h * w;
        Ok(Tensor {
            shape: Shape::new(&[1, c, h, w]),
            data: self.data[b * stride..(b + 1) * stride].to_vec(),
        })
    }

    /// Stacks `[1, c, h, w]` tensors along the batch dimension.
    ///
    /// # Errors
    ///
    /// Returns an error when the list is empty or items disagree in shape.
    pub fn stack_batch(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::BadGeometry("empty batch".into()))?;
        let (_, c, h, w) = first.shape.as_nchw()?;
        let mut data = Vec::with_capacity(items.len() * c * h * w);
        for it in items {
            let (n_i, c_i, h_i, w_i) = it.shape.as_nchw()?;
            if n_i != 1 || (c_i, h_i, w_i) != (c, h, w) {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![1, c, h, w],
                    found: it.dims().to_vec(),
                    op: "stack_batch",
                });
            }
            data.extend_from_slice(&it.data);
        }
        Ok(Tensor { shape: Shape::new(&[items.len(), c, h, w]), data })
    }

    /// Clamps every element into `[lo, hi]`, returning a new tensor.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.dims().to_vec(),
                found: other.dims().to_vec(),
                op,
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 6.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.argmax(), Some(5));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let r = t.reshape(&[6, 4]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[10.0, 40.0]);
        assert_eq!(a.scale(-1.0).as_slice(), &[-1.0, -2.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn add_assign_scaled_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.add_assign_scaled(&g, 0.5).unwrap();
        a.add_assign_scaled(&g, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, 7);
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
    }

    #[test]
    fn eye_is_matmul_identity() {
        let a = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, 3);
        let i = Tensor::eye(4);
        let p = a.matmul(&i).unwrap();
        for (x, y) in a.as_slice().iter().zip(p.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_item_and_stack_round_trip() {
        let t = Tensor::rand_uniform(&[3, 2, 4, 4], -1.0, 1.0, 11);
        let items: Vec<Tensor> = (0..3).map(|b| t.batch_item(b).unwrap()).collect();
        let back = Tensor::stack_batch(&items).unwrap();
        assert_eq!(back, t);
        assert!(t.batch_item(3).is_err());
    }

    #[test]
    fn rand_uniform_respects_bounds_and_seed() {
        let a = Tensor::rand_uniform(&[100], -0.5, 0.5, 42);
        let b = Tensor::rand_uniform(&[100], -0.5, 0.5, 42);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn rand_normal_statistics_are_plausible() {
        let t = Tensor::rand_normal(&[10_000], 1.0, 2.0, 5);
        assert!((t.mean() - 1.0).abs() < 0.1);
        let var = t.map(|v| (v - t.mean()) * (v - t.mean())).mean();
        assert!((var.sqrt() - 2.0).abs() < 0.15);
    }

    #[test]
    fn clamp_bounds_values() {
        let t = Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]).unwrap();
        assert_eq!(t.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn mse_of_identical_tensors_is_zero() {
        let t = Tensor::rand_uniform(&[32], -1.0, 1.0, 1);
        assert_eq!(t.mse(&t).unwrap(), 0.0);
    }

    proptest! {
        #[test]
        fn add_commutes(v in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let n = v.len();
            let a = Tensor::from_vec(v.clone(), &[n]).unwrap();
            let b = Tensor::rand_uniform(&[n], -1.0, 1.0, 9);
            prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        }

        #[test]
        fn sub_then_add_round_trips(v in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]).unwrap();
            let b = Tensor::rand_uniform(&[n], -1.0, 1.0, 10);
            let r = a.sub(&b).unwrap().add(&b).unwrap();
            for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn scale_distributes_over_sum(v in proptest::collection::vec(-10.0f32..10.0, 1..64), s in -3.0f32..3.0) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]).unwrap();
            let lhs = a.scale(s).sum();
            let rhs = a.sum() * s;
            prop_assert!((lhs - rhs).abs() < 1e-2);
        }
    }
}
