use crate::{FormatError, Idx, Val};

/// A dense vector of [`Val`] elements.
///
/// Thin wrapper around `Vec<Val>` that gives dense operands the same
/// vocabulary as the sparse formats (`len`, `as_slice`, …) and documents the
/// role the data plays in a kernel (e.g. the right-hand side of SpMV).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVector {
    data: Vec<Val>,
}

impl DenseVector {
    /// Creates a zero-filled vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector from existing data.
    pub fn from_vec(data: Vec<Val>) -> Self {
        Self { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying storage.
    pub fn as_slice(&self) -> &[Val] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [Val] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<Val> {
        self.data
    }

    /// Sum of all elements (used by tests and PageRank normalization).
    pub fn sum(&self) -> Val {
        self.data.iter().sum()
    }

    /// Maximum absolute difference against another vector.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn max_abs_diff(&self, other: &DenseVector) -> Val {
        assert_eq!(self.len(), other.len(), "vector length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, Val::max)
    }
}

impl std::ops::Index<usize> for DenseVector {
    type Output = Val;

    fn index(&self, i: usize) -> &Val {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, i: usize) -> &mut Val {
        &mut self.data[i]
    }
}

impl From<Vec<Val>> for DenseVector {
    fn from(data: Vec<Val>) -> Self {
        Self { data }
    }
}

impl FromIterator<Val> for DenseVector {
    fn from_iter<I: IntoIterator<Item = Val>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

/// A dense row-major matrix.
///
/// Used for the dense factor matrices of MTTKRP/CP-ALS and as the dense side
/// of mixed sparse-dense kernels (SpMM, SpTTM).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Val>,
}

impl DenseMatrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<Val>) -> Result<Self, FormatError> {
        if data.len() != rows * cols {
            return Err(FormatError::LengthMismatch {
                what: "row-major dense matrix data",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn at(&self, r: usize, c: usize) -> Val {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable reference to the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut Val {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Read-only view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[Val] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Read-only view of the row-major storage.
    pub fn as_slice(&self) -> &[Val] {
        &self.data
    }

    /// Mutable view of the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [Val] {
        &mut self.data
    }

    /// Maximum absolute element-wise difference against another matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Val {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, Val::max)
    }
}

/// An order-*n* dense tensor in row-major (last dimension fastest) layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseTensor {
    dims: Vec<usize>,
    data: Vec<Val>,
}

impl DenseTensor {
    /// Creates a zero-filled tensor with the given dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        let n: usize = dims.iter().product();
        Self {
            dims: dims.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Tensor dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of stored elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor stores no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear offset of a coordinate tuple.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate rank or any index is out of bounds.
    pub fn offset(&self, coord: &[Idx]) -> usize {
        assert_eq!(coord.len(), self.dims.len(), "coordinate rank mismatch");
        let mut off = 0usize;
        for (d, (&c, &size)) in coord.iter().zip(&self.dims).enumerate() {
            assert!((c as usize) < size, "index out of bounds in dim {d}");
            off = off * size + c as usize;
        }
        off
    }

    /// Element at the given coordinates.
    pub fn at(&self, coord: &[Idx]) -> Val {
        self.data[self.offset(coord)]
    }

    /// Mutable reference to the element at the given coordinates.
    pub fn at_mut(&mut self, coord: &[Idx]) -> &mut Val {
        let off = self.offset(coord);
        &mut self.data[off]
    }

    /// Read-only view of the row-major storage.
    pub fn as_slice(&self) -> &[Val] {
        &self.data
    }

    /// Mutable view of the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [Val] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_roundtrip() {
        let v = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.sum(), 6.0);
        assert_eq!(v.clone().into_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn vector_max_abs_diff() {
        let a = DenseVector::from_vec(vec![1.0, 2.0]);
        let b = DenseVector::from_vec(vec![1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn matrix_indexing_row_major() {
        let mut m = DenseMatrix::zeros(2, 3);
        *m.at_mut(1, 2) = 7.0;
        assert_eq!(m.at(1, 2), 7.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
        assert_eq!(m.as_slice()[5], 7.0);
    }

    #[test]
    fn matrix_from_row_major_validates_length() {
        let err = DenseMatrix::from_row_major(2, 2, vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::LengthMismatch { .. }));
    }

    #[test]
    fn tensor_offset_is_row_major() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 1]), 1);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.len(), 24);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn tensor_offset_bounds_checked() {
        let t = DenseTensor::zeros(&[2, 2]);
        t.offset(&[0, 2]);
    }

    #[test]
    fn tensor_at_mut_roundtrip() {
        let mut t = DenseTensor::zeros(&[3, 3]);
        *t.at_mut(&[2, 1]) = 5.0;
        assert_eq!(t.at(&[2, 1]), 5.0);
    }
}
