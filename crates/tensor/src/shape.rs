use std::fmt;

use crate::TensorError;

/// A row-major tensor shape.
///
/// Wraps a dimension list and caches nothing: shapes in this stack are
/// small (rank ≤ 4 in practice) so recomputing strides on demand is cheap
/// and keeps the type trivially serializable.
///
/// # Example
///
/// ```
/// use tutel_tensor::Shape;
///
/// let s = Shape::new(&[4, 8, 16]);
/// assert_eq!(s.len(), 4 * 8 * 16);
/// assert_eq!(s.strides(), vec![128, 16, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dimensions).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of one axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// range (this is an internal hot path; callers validate once).
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len());
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.dims.len()).rev() {
            debug_assert!(index[i] < self.dims[i]);
            off += index[i] * stride;
            stride *= self.dims[i];
        }
        off
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::new(&[2, 3]);
        assert!(matches!(
            s.dim(2),
            Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 })
        ));
    }

    #[test]
    fn zero_sized_shape_is_empty() {
        let s = Shape::new(&[4, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn display_formats_like_tuple() {
        assert_eq!(Shape::new(&[4, 8]).to_string(), "(4, 8)");
        assert_eq!(Shape::new(&[]).to_string(), "()");
    }
}
