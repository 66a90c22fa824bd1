//! Bit-mask compression of a filtered batch (Section III-B, Eq. 7 input).
//!
//! After zero-row filtering, the surviving rows of a batch are packed `b`
//! at a time into machine words: the resulting matrix `Â^(l)` has
//! `⌈rows/b⌉` word rows and one column per sample, and the matrix product
//! runs over the popcount-AND semiring. We use `b = 64` (the paper
//! discusses `b = 32` or `64`).
//!
//! With filter and mask both on, [`prepare_batch`] filters and packs in
//! one pass over the sorted columns ([`BitMatrix::pack_filtered`]): the
//! column rows are OR-ed into a packed row bitmap, which is the filter,
//! and every column is packed over the bitmap's set bits, each row
//! renumbered by its rank, emitting words directly. Nothing is sorted and
//! no filtered copy of the columns is made. The packed batch then goes to
//! [`gas_sparse::spgemm::ata_popcount`], which multiplies it without a
//! transpose when it is dense enough.

use gas_sparse::bitmat::{BitMatrix, WORD_BITS};
use gas_sparse::coo::CooMatrix;
use gas_sparse::csc::CscMatrix;
use gas_sparse::csr::CsrMatrix;

use crate::error::CoreResult;
use crate::filter::{apply_filter, batch_row_filter, RowFilter};

/// A batch of the indicator matrix after filtering and (optionally)
/// masking, ready for the `AᵀA` kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedBatch {
    /// Bit-packed representation (the paper's default path).
    Masked(BitMatrix),
    /// Unpacked boolean representation (ablation path: filter only).
    Unmasked {
        /// Column-major view (samples are columns).
        csc: CscMatrix<u64>,
        /// Row-major view of the same matrix.
        csr: CsrMatrix<u64>,
    },
}

impl PreparedBatch {
    /// Number of stored entries (words when masked, booleans otherwise).
    pub fn stored_entries(&self) -> usize {
        match self {
            PreparedBatch::Masked(b) => b.nnz_words(),
            PreparedBatch::Unmasked { csc, .. } => csc.nnz(),
        }
    }

    /// Number of matrix rows the `AᵀA` kernel will iterate over.
    pub fn kernel_rows(&self) -> usize {
        match self {
            PreparedBatch::Masked(b) => b.word_rows(),
            PreparedBatch::Unmasked { csc, .. } => csc.nrows(),
        }
    }

    /// Per-sample cardinality contributions of this batch.
    pub fn col_cardinalities(&self) -> Vec<u64> {
        match self {
            PreparedBatch::Masked(b) => b.col_popcounts(),
            PreparedBatch::Unmasked { csc, .. } => {
                (0..csc.ncols()).map(|j| csc.col_nnz(j) as u64).collect()
            }
        }
    }
}

/// The fused filter-and-pack allocates a row bitmap of `⌈batch_rows / 64⌉`
/// words (plus half as much rank index). Past this many bitmap words per
/// stored entry — a hypersparse batch of a hashed universe, say, whose
/// height can reach `2⁶⁴` — [`prepare_batch`] filters by sorting the
/// observed rows instead, which needs no memory proportional to the
/// batch height.
const MAX_BITMAP_WORDS_PER_ENTRY: usize = 16;

/// Filter and pack one batch given its per-sample column lists
/// (batch-local row indices). Returns the prepared batch together with the
/// filter that was applied (for diagnostics).
pub fn prepare_batch(
    batch_rows: usize,
    columns: &[Vec<usize>],
    use_filter: bool,
    use_bitmask: bool,
) -> CoreResult<(PreparedBatch, RowFilter)> {
    let entries: usize = columns.iter().map(Vec::len).sum();
    let bitmap_words = batch_rows.div_ceil(WORD_BITS);
    if use_filter && use_bitmask && bitmap_words <= MAX_BITMAP_WORDS_PER_ENTRY * entries.max(1) {
        let (bm, bitmap) = BitMatrix::pack_filtered(batch_rows, columns)?;
        return Ok((PreparedBatch::Masked(bm), RowFilter::from_bitmap(batch_rows, &bitmap)));
    }
    let filter = if use_filter {
        batch_row_filter(batch_rows, columns)
    } else {
        RowFilter::from_local(batch_rows, (0..batch_rows).collect())
    };
    let filtered = if use_filter { apply_filter(columns, &filter) } else { columns.to_vec() };
    let rows = filter.num_nonzero_rows();
    if use_bitmask {
        let bm = BitMatrix::from_columns(rows, &filtered)?;
        Ok((PreparedBatch::Masked(bm), filter))
    } else {
        let mut coo = CooMatrix::<u64>::with_capacity(
            rows.max(1),
            filtered.len(),
            filtered.iter().map(|c| c.len()).sum(),
        );
        for (j, col) in filtered.iter().enumerate() {
            for &r in col {
                coo.push(r, j, 1)?;
            }
        }
        let csc = coo.to_csc();
        let csr = coo.to_csr();
        Ok((PreparedBatch::Unmasked { csc, csr }, filter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<Vec<usize>> {
        vec![vec![3, 500, 900], vec![3, 901], vec![]]
    }

    #[test]
    fn masked_batch_compresses_rows() {
        let (batch, filter) = prepare_batch(1000, &columns(), true, true).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 4);
        // 4 surviving rows pack into a single 64-bit word row.
        assert_eq!(batch.kernel_rows(), 1);
        assert_eq!(batch.col_cardinalities(), vec![3, 2, 0]);
        match &batch {
            PreparedBatch::Masked(b) => {
                assert_eq!(b.orig_rows(), 4);
                assert_eq!(b.ncols(), 3);
            }
            _ => panic!("expected masked batch"),
        }
    }

    #[test]
    fn unmasked_batch_keeps_boolean_rows() {
        let (batch, filter) = prepare_batch(1000, &columns(), true, false).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 4);
        assert_eq!(batch.kernel_rows(), 4);
        assert_eq!(batch.stored_entries(), 5);
        assert_eq!(batch.col_cardinalities(), vec![3, 2, 0]);
    }

    #[test]
    fn disabling_filter_keeps_all_rows() {
        let (masked, filter) = prepare_batch(1000, &columns(), false, true).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 1000);
        assert_eq!(masked.kernel_rows(), 1000usize.div_ceil(64));
        let (unmasked, _) = prepare_batch(1000, &columns(), false, false).unwrap();
        assert_eq!(unmasked.kernel_rows(), 1000);
        // Cardinalities are invariant under filtering/masking choices.
        assert_eq!(masked.col_cardinalities(), unmasked.col_cardinalities());
    }

    #[test]
    fn filtering_plus_masking_reduces_storage() {
        let (masked, _) = prepare_batch(100_000, &columns(), true, true).unwrap();
        let (unfiltered, _) = prepare_batch(100_000, &columns(), false, false).unwrap();
        assert!(masked.kernel_rows() < unfiltered.kernel_rows());
        assert!(masked.stored_entries() <= unfiltered.stored_entries());
    }

    #[test]
    fn hypersparse_batches_filter_without_a_batch_high_bitmap() {
        // A batch as tall as a hashed universe: no bitmap could be
        // allocated, and the sorted-filter path gives the same packing.
        let columns = vec![vec![7, 1 << 40, usize::MAX - 1], vec![1 << 40]];
        let (batch, filter) = prepare_batch(usize::MAX, &columns, true, true).unwrap();
        assert_eq!(filter.nonzero_rows(), &[7, 1 << 40, usize::MAX - 1]);
        let expected = BitMatrix::from_columns(3, &[vec![0, 1, 2], vec![1]]).unwrap();
        assert_eq!(batch, PreparedBatch::Masked(expected));
    }

    #[test]
    fn empty_batch_is_handled() {
        let (batch, filter) = prepare_batch(64, &[vec![], vec![]], true, true).unwrap();
        assert_eq!(filter.num_nonzero_rows(), 0);
        assert_eq!(batch.kernel_rows(), 0);
        assert_eq!(batch.col_cardinalities(), vec![0, 0]);
    }
}
