//! Shape helper: dimension bookkeeping shared by all tensor kernels.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// The dimensions of a [`crate::Tensor`], outermost first.
///
/// Rank-4 shapes follow the NCHW convention: `[batch, channels, height,
/// width]`. A scalar has the empty shape `[]` and volume 1.
///
/// ```
/// use c2pi_tensor::Shape;
/// let s = Shape::new(&[2, 3, 32, 32]);
/// assert_eq!(s.volume(), 2 * 3 * 32 * 32);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of all dimensions; 1 for scalars).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major strides for this shape.
    ///
    /// ```
    /// use c2pi_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear row-major offset of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank differs from the shape rank or
    /// any coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.0.len() {
            return Err(TensorError::RankMismatch {
                expected: self.0.len(),
                found: index.len(),
                op: "offset",
            });
        }
        let mut off = 0usize;
        for (stride, (&i, &d)) in self.strides().iter().zip(index.iter().zip(self.0.iter())) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, len: d });
            }
            off += stride * i;
        }
        Ok(off)
    }

    /// Interprets this shape as NCHW, returning `(n, c, h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for ranks other than 4.
    pub fn as_nchw(&self) -> Result<(usize, usize, usize, usize)> {
        if self.0.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                found: self.0.len(),
                op: "as_nchw",
            });
        }
        Ok((self.0[0], self.0[1], self.0[2], self.0[3]))
    }

    /// Interprets this shape as a matrix, returning `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for ranks other than 2.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        if self.0.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                found: self.0.len(),
                op: "as_matrix",
            });
        }
        Ok((self.0[0], self.0[1]))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
        assert!(s.strides().is_empty());
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[4]).strides(), vec![1]);
        assert_eq!(Shape::new(&[2, 5]).strides(), vec![5, 1]);
        assert_eq!(Shape::new(&[2, 3, 4, 5]).strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn offset_rejects_bad_rank_and_bounds() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(s.offset(&[1]), Err(TensorError::RankMismatch { .. })));
        assert!(matches!(s.offset(&[2, 0]), Err(TensorError::IndexOutOfBounds { .. })));
        assert_eq!(s.offset(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn nchw_and_matrix_views() {
        assert_eq!(Shape::new(&[1, 3, 8, 8]).as_nchw().unwrap(), (1, 3, 8, 8));
        assert!(Shape::new(&[3, 8, 8]).as_nchw().is_err());
        assert_eq!(Shape::new(&[6, 7]).as_matrix().unwrap(), (6, 7));
        assert!(Shape::new(&[6]).as_matrix().is_err());
    }

    proptest! {
        #[test]
        fn offset_is_bijective_over_volume(dims in proptest::collection::vec(1usize..5, 1..4)) {
            let s = Shape::new(&dims);
            let mut seen = std::collections::HashSet::new();
            let mut idx = vec![0usize; dims.len()];
            loop {
                let off = s.offset(&idx).unwrap();
                prop_assert!(off < s.volume());
                prop_assert!(seen.insert(off));
                // odometer increment
                let mut k = dims.len();
                loop {
                    if k == 0 { break; }
                    k -= 1;
                    idx[k] += 1;
                    if idx[k] < dims[k] { break; }
                    idx[k] = 0;
                    if k == 0 { k = usize::MAX; break; }
                }
                if k == usize::MAX { break; }
            }
            prop_assert_eq!(seen.len(), s.volume());
        }
    }
}
