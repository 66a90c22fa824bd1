//! Compressed Sparse Column (CSC) matrices.
//!
//! The indicator matrix `A` has one column per data sample, and several
//! stages of the algorithm are naturally column-oriented: reading each
//! sample's k-mers, bit-packing the column segments, and the
//! column-against-row kernel inside the distributed `AᵀA`. CSC stores the
//! entries of each column contiguously with row indices in increasing
//! order.

use serde::{Deserialize, Serialize};

use crate::csr::CsrMatrix;
use crate::error::{SparseError, SparseResult};

/// A sparse matrix in CSC form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy> CscMatrix<T> {
    /// Construct from raw CSC arrays, validating their consistency.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> SparseResult<Self> {
        if indptr.len() != ncols + 1 {
            return Err(SparseError::ShapeMismatch {
                context: format!("indptr has length {} for {} columns", indptr.len(), ncols),
            });
        }
        if indices.len() != data.len() {
            return Err(SparseError::ShapeMismatch {
                context: "indices and data lengths differ".to_string(),
            });
        }
        if *indptr.last().unwrap_or(&0) != indices.len() {
            return Err(SparseError::ShapeMismatch {
                context: "indptr does not terminate at nnz".to_string(),
            });
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::ShapeMismatch {
                context: "indptr must be non-decreasing".to_string(),
            });
        }
        if let Some(&bad) = indices.iter().find(|&&r| r >= nrows) {
            return Err(SparseError::IndexOutOfBounds { row: bad, col: 0, nrows, ncols });
        }
        Ok(CscMatrix { nrows, ncols, indptr, indices, data })
    }

    /// An empty matrix with no stored entries.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            indptr: vec![0; ncols + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Interpret a CSR matrix as the CSC representation of its transpose
    /// stored untransposed — i.e. reuse the arrays of `csr(Aᵀ)` as
    /// `csc(A)`.
    pub fn from_transposed_csr(csr_of_transpose: CsrMatrix<T>) -> Self {
        let ncols = csr_of_transpose.nrows();
        let nrows = csr_of_transpose.ncols();
        CscMatrix {
            nrows,
            ncols,
            indptr: csr_of_transpose.indptr().to_vec(),
            indices: csr_of_transpose.indices().to_vec(),
            data: csr_of_transpose.data().to_vec(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column pointers (length `ncols + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Row indices of stored entries.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Values of stored entries.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.indptr[j + 1] - self.indptr[j]
    }

    /// Iterate over `(row, value)` pairs of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let start = self.indptr[j];
        let end = self.indptr[j + 1];
        self.indices[start..end].iter().zip(self.data[start..end].iter()).map(|(&r, &v)| (r, v))
    }

    /// Iterate over all `(row, column, value)` triples in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).map(move |(r, v)| (r, j, v)))
    }

    /// Convert to CSR with a counting-sort transpose: count the entries of
    /// every row, prefix-sum the counts into row pointers, then scatter the
    /// columns in increasing order so every CSR row comes out sorted by
    /// column. `O(nnz + nrows + ncols)`, no comparison sort.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut indptr = vec![0usize; self.nrows + 1];
        for &r in &self.indices {
            indptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            indptr[i + 1] += indptr[i];
        }
        let mut next = indptr[..self.nrows].to_vec();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = self.data.clone();
        for j in 0..self.ncols {
            for p in self.indptr[j]..self.indptr[j + 1] {
                let slot = &mut next[self.indices[p]];
                indices[*slot] = j;
                data[*slot] = self.data[p];
                *slot += 1;
            }
        }
        CsrMatrix::from_raw_parts(self.nrows, self.ncols, indptr, indices, data)
            .expect("CSC conversion produces consistent CSR")
    }

    /// Restrict to the columns listed in `keep` (in order), producing a
    /// matrix with `keep.len()` columns.
    pub fn select_cols(&self, keep: &[usize]) -> SparseResult<CscMatrix<T>> {
        let mut indptr = Vec::with_capacity(keep.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for &j in keep {
            if j >= self.ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: 0,
                    col: j,
                    nrows: self.nrows,
                    ncols: self.ncols,
                });
            }
            for (r, v) in self.col(j) {
                indices.push(r);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        Ok(CscMatrix { nrows: self.nrows, ncols: keep.len(), indptr, indices, data })
    }

    /// Per-column entry counts (used for density/load-balance diagnostics;
    /// the BIGSI dataset has highly variable per-column density).
    pub fn col_counts(&self) -> Vec<usize> {
        (0..self.ncols).map(|j| self.col_nnz(j)).collect()
    }

    /// Remap row indices through `map` (e.g. the prefix-sum of the zero-row
    /// filter, Eq. 6), producing a matrix with `new_nrows` rows.
    pub fn remap_rows(&self, map: &[usize], new_nrows: usize) -> SparseResult<CscMatrix<T>> {
        if map.len() != self.nrows {
            return Err(SparseError::ShapeMismatch {
                context: format!("row map has {} entries for {} rows", map.len(), self.nrows),
            });
        }
        let mut indices = Vec::with_capacity(self.nnz());
        for &r in &self.indices {
            let nr = map[r];
            if nr >= new_nrows {
                return Err(SparseError::IndexOutOfBounds {
                    row: nr,
                    col: 0,
                    nrows: new_nrows,
                    ncols: self.ncols,
                });
            }
            indices.push(nr);
        }
        Ok(CscMatrix {
            nrows: new_nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices,
            data: self.data.clone(),
        })
    }
}

impl<T: Copy + Default + PartialEq> CscMatrix<T> {
    /// Convert to a dense matrix (for tests and small examples).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix<T> {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CscMatrix<u64> {
        // [ 1 0 ]
        // [ 2 3 ]
        // [ 0 4 ]
        CooMatrix::from_triples(3, 2, vec![(0, 0, 1u64), (1, 0, 2), (1, 1, 3), (2, 1, 4)])
            .unwrap()
            .to_csc()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1, 1]).is_err()
        );
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 9], vec![1, 1]).is_err()
        );
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1, 1]).is_err()
        );
        assert!(
            CscMatrix::<u8>::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1, 1]).is_ok()
        );
    }

    #[test]
    fn column_access() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 3), (2, 4)]);
        assert_eq!(m.col_counts(), vec![2, 2]);
    }

    #[test]
    fn csr_roundtrip_preserves_entries() {
        let m = sample();
        let csr = m.to_csr();
        assert_eq!(csr.to_dense(), m.to_dense());
    }

    #[test]
    fn counting_sort_to_csr_matches_the_coo_reference() {
        // Scattered entries over a wide shape, with empty rows and
        // columns, so every row segment must come out column-sorted.
        let (nrows, ncols) = (37, 23);
        let triples: Vec<(usize, usize, u64)> = (0..400u64)
            .map(|k| ((k * 7919 % 31) as usize, (k * 104_729 % 19) as usize, k + 1))
            .collect();
        let coo = CooMatrix::from_triples(nrows, ncols, triples).unwrap();
        let csc = coo.to_csc();
        assert_eq!(csc.to_csr(), coo.to_csr());
        // Raw CSC whose columns list rows out of order still transposes to
        // the sorted CSR the COO conversion gives.
        let raw = CscMatrix::from_raw_parts(
            4,
            3,
            vec![0, 3, 3, 5],
            vec![3, 0, 2, 1, 0],
            vec![1u32, 2, 3, 4, 5],
        )
        .unwrap();
        let reference =
            CooMatrix::from_triples(4, 3, raw.iter().collect::<Vec<_>>()).unwrap().to_csr();
        assert_eq!(raw.to_csr(), reference);
        assert_eq!(CscMatrix::<u8>::empty(0, 0).to_csr().nnz(), 0);
    }

    #[test]
    fn select_cols_picks_subset() {
        let m = sample();
        let s = m.select_cols(&[1]).unwrap();
        assert_eq!(s.ncols(), 1);
        assert_eq!(s.col(0).collect::<Vec<_>>(), vec![(1, 3), (2, 4)]);
        assert!(m.select_cols(&[5]).is_err());
    }

    #[test]
    fn remap_rows_applies_prefix_sum_style_map() {
        let m = sample();
        // Collapse rows {0,1,2} -> {0,0,1}: row 1 becomes 0, row 2 becomes 1.
        let remapped = m.remap_rows(&[0, 0, 1], 2).unwrap();
        assert_eq!(remapped.nrows(), 2);
        assert_eq!(remapped.col(1).collect::<Vec<_>>(), vec![(0, 3), (1, 4)]);
        assert!(m.remap_rows(&[0, 0], 2).is_err());
        assert!(m.remap_rows(&[0, 0, 9], 2).is_err());
    }

    #[test]
    fn from_transposed_csr_reuses_layout() {
        let csr = CooMatrix::from_triples(2, 3, vec![(0, 1, 5u32), (1, 2, 6)]).unwrap().to_csr();
        // csr is a 2x3 matrix; reinterpreting it as CSC of its transpose
        // gives a 3x2 matrix whose column j is csr's row j.
        let csc = CscMatrix::from_transposed_csr(csr);
        assert_eq!(csc.nrows(), 3);
        assert_eq!(csc.ncols(), 2);
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(1, 5)]);
        assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(2, 6)]);
    }

    #[test]
    fn empty_matrix() {
        let m = CscMatrix::<u16>::empty(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_counts(), vec![0, 0, 0, 0]);
        assert_eq!(m.to_csr().nnz(), 0);
    }
}
