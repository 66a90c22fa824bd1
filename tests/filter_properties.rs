//! Property tests of the zero-row filter: the bitmap formulation must be
//! indistinguishable from the index-based one — identical kept-row sets
//! and identical compacted remaps — for arbitrary sparsity patterns, both
//! locally and through the distributed collectives. The fused
//! filter-and-pack (`BitMatrix::pack_filtered` / `pack_over`) must equal
//! building the filter, applying it and packing the filtered columns,
//! errors included.

use genomeatscale::core::error::CoreError;
use genomeatscale::core::filter::{apply_filter, batch_row_filter};
use genomeatscale::core::mask::{prepare_batch, PreparedBatch};
use genomeatscale::dstsim::runtime::Runtime;
use genomeatscale::sparse::bitmat::{bitmap_rows, pack_row_bitmap, BitMatrix, RowRank};
use genomeatscale::sparse::dist::filter::{dist_row_filter, dist_row_filter_indexed, RowFilter};
use genomeatscale::sparse::SparseResult;
use proptest::prelude::*;

/// The unfused reference: filter from the column union, renumber the
/// columns through it, pack the renumbered columns.
fn unfused(batch_rows: usize, columns: &[Vec<usize>]) -> (SparseResult<BitMatrix>, RowFilter) {
    let filter = batch_row_filter(batch_rows, columns);
    let packed =
        BitMatrix::from_columns(filter.num_nonzero_rows(), &apply_filter(columns, &filter));
    (packed, filter)
}

/// Sorted columns over `0..span`, with rows on word boundaries and at
/// `batch_rows - 1` and `batch_rows` mixed into every third column, and
/// every fifth column left empty.
fn boundary_columns(batch_rows: usize, raw: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    raw.into_iter()
        .enumerate()
        .map(|(j, mut col)| {
            if j % 5 == 4 {
                return Vec::new();
            }
            if j % 3 == 0 {
                col.extend([0, 63, 64, 127, 128, 191, batch_rows - 1, batch_rows]);
            }
            col.sort_unstable();
            col.dedup();
            col
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn bitmap_and_index_filters_agree_locally(
        batch_rows in 1usize..3000,
        raw in prop::collection::vec(0usize..4000, 0..400),
    ) {
        // Indices may exceed batch_rows: both constructions must clip.
        let indexed = RowFilter::from_local(batch_rows, raw.clone());
        let bitmap_words = pack_row_bitmap(batch_rows, &raw);
        let bitmap = RowFilter::from_bitmap(batch_rows, &bitmap_words);
        prop_assert_eq!(&bitmap, &indexed);
        prop_assert_eq!(bitmap_rows(&bitmap_words), indexed.nonzero_rows().to_vec());
        // The remap agrees entry for entry across the whole batch.
        for row in 0..batch_rows {
            prop_assert_eq!(bitmap.compacted_index(row), indexed.compacted_index(row));
        }
        prop_assert_eq!(bitmap.fingerprint(), indexed.fingerprint());
    }

    #[test]
    fn bitmap_and_index_filters_agree_distributed(
        batch_rows in 1usize..1200,
        seed in 0u64..1_000_000,
        nranks in 1usize..7,
    ) {
        // Deterministic per-rank row sets with overlapping coverage.
        let local = |rank: usize| -> Vec<usize> {
            (0..64)
                .map(|i| ((seed as usize).wrapping_add(i * 31 + rank * 17) * 7919) % (batch_rows * 2))
                .collect()
        };
        let bitmap = Runtime::new(nranks)
            .run(|ctx| dist_row_filter(ctx.world(), batch_rows, &local(ctx.rank())).unwrap())
            .unwrap();
        let indexed = Runtime::new(nranks)
            .run(|ctx| dist_row_filter_indexed(ctx.world(), batch_rows, &local(ctx.rank())).unwrap())
            .unwrap();
        prop_assert_eq!(&bitmap.results, &indexed.results);
        // Every rank holds the identical filter.
        for f in &bitmap.results {
            prop_assert_eq!(f, &bitmap.results[0]);
        }
    }

    #[test]
    fn fused_filter_and_pack_equals_filter_apply_pack(
        batch_rows in 1usize..2000,
        raw in prop::collection::vec(prop::collection::vec(0usize..2100, 0..80), 0..14),
        all_zero in any::<bool>(),
    ) {
        // Rows may exceed batch_rows: both paths drop them.
        let columns = if all_zero { vec![Vec::new(); raw.len()] } else { boundary_columns(batch_rows, raw) };
        let (reference, filter) = unfused(batch_rows, &columns);
        let (packed, bitmap) = BitMatrix::pack_filtered(batch_rows, &columns).unwrap();
        prop_assert_eq!(&packed, reference.as_ref().unwrap());
        prop_assert_eq!(RowFilter::from_bitmap(batch_rows, &bitmap), filter.clone());
        prop_assert_eq!(RowFilter::bitmap_fingerprint(batch_rows, &bitmap), filter.fingerprint());
        if all_zero {
            prop_assert_eq!(packed.word_rows(), 0);
        }
        // prepare_batch (filter + mask on) returns the same pair.
        let (prepared, prepared_filter) = prepare_batch(batch_rows, &columns, true, true).unwrap();
        prop_assert_eq!(prepared, PreparedBatch::Masked(packed));
        prop_assert_eq!(prepared_filter, filter);
    }

    #[test]
    fn fused_pack_reports_the_unfused_errors(
        batch_rows in 1usize..700,
        raw in prop::collection::vec(prop::collection::vec(0usize..800, 0..12), 1..6),
    ) {
        // Unsorted columns with duplicates and rows past the batch: the
        // fused path fails (or succeeds) exactly as the unfused one does.
        let (reference, _) = unfused(batch_rows, &raw);
        let fused = BitMatrix::pack_filtered(batch_rows, &raw).map(|(packed, _)| packed);
        prop_assert_eq!(&fused, &reference);
        let prepared = prepare_batch(batch_rows, &raw, true, true).map(|(batch, _)| batch);
        match (&prepared, &reference) {
            (Ok(batch), Ok(packed)) => prop_assert_eq!(batch, &PreparedBatch::Masked(packed.clone())),
            (Err(CoreError::Sparse(e)), Err(r)) => prop_assert_eq!(e, r),
            _ => prop_assert!(false, "prepare_batch {:?} vs unfused {:?}", prepared, reference),
        }
    }

    #[test]
    fn pack_over_a_given_bitmap_equals_apply_then_pack(
        batch_rows in 1usize..2000,
        kept in prop::collection::vec(0usize..2000, 0..300),
        raw in prop::collection::vec(prop::collection::vec(0usize..2100, 0..80), 0..10),
    ) {
        // The bitmap is independent of the columns, so it may be narrower
        // (rows dropped) or wider (kept rows no column uses).
        let bitmap = pack_row_bitmap(batch_rows, &kept);
        let columns = boundary_columns(batch_rows, raw);
        let filter = RowFilter::from_bitmap(batch_rows, &bitmap);
        let reference =
            BitMatrix::from_columns(filter.num_nonzero_rows(), &apply_filter(&columns, &filter));
        prop_assert_eq!(&BitMatrix::pack_over(&bitmap, &columns), &reference);
        // A shared rank index packs any column set identically.
        let rank = RowRank::new(&bitmap);
        prop_assert_eq!(rank.ones(), filter.num_nonzero_rows());
        for row in 0..batch_rows + 64 {
            prop_assert_eq!(rank.rank(row), filter.compacted_index(row));
        }
        let half = &columns[..columns.len() / 2];
        prop_assert_eq!(
            BitMatrix::pack_ranked(&rank, half),
            BitMatrix::from_columns(filter.num_nonzero_rows(), &apply_filter(half, &filter))
        );
    }
}
