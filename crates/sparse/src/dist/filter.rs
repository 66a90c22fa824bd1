//! The zero-row filter vector `f^(l)` (Eqs. 5–6) and its distributed
//! construction.
//!
//! Genomic indicator matrices are hypersparse: most attribute rows of a
//! batch have no entry in any sample. The filter marks the rows that are
//! nonzero in at least one sample and renumbers the survivors
//! contiguously. In the paper the filter vector is built with
//! accumulate-writes over a `(max, ×)` monoid and then "collected on all
//! processors". [`dist_row_filter`] reproduces that formulation: every
//! rank packs its observed rows into a dense bitmap (one *bit* per batch
//! row), the bitmaps are OR-allreduced, and each rank derives the
//! kept-row remap locally — `O(batch_rows / 8)` bytes per message. The
//! earlier index-based construction is kept as
//! [`dist_row_filter_indexed`] (it allgathers `O(observed rows × 8)`
//! bytes) so benchmarks can measure the saving.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::bitmat::{bitmap_rows, pack_row_bitmap, WORD_BITS};
use crate::error::SparseResult;
use gas_dstsim::comm::Communicator;

/// The compacted zero-row filter of one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowFilter {
    batch_rows: usize,
    nonzero: Vec<usize>,
}

impl RowFilter {
    /// Build a filter from locally known nonzero rows (sorted, deduped and
    /// clipped to the batch here).
    pub fn from_local(batch_rows: usize, mut rows: Vec<usize>) -> Self {
        rows.retain(|&r| r < batch_rows);
        rows.sort_unstable();
        rows.dedup();
        RowFilter { batch_rows, nonzero: rows }
    }

    /// Build a filter from a packed nonzero-row bitmap (as produced by
    /// [`pack_row_bitmap`]); bits beyond `batch_rows` are ignored.
    pub fn from_bitmap(batch_rows: usize, words: &[u64]) -> Self {
        let mut rows = bitmap_rows(words);
        rows.retain(|&r| r < batch_rows);
        RowFilter { batch_rows, nonzero: rows }
    }

    /// Number of rows of the unfiltered batch.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// The surviving (nonzero) rows, sorted ascending.
    pub fn nonzero_rows(&self) -> &[usize] {
        &self.nonzero
    }

    /// Number of surviving rows.
    pub fn num_nonzero_rows(&self) -> usize {
        self.nonzero.len()
    }

    /// Fraction of batch rows removed by the filter.
    pub fn removed_fraction(&self) -> f64 {
        if self.batch_rows == 0 {
            return 0.0;
        }
        1.0 - self.nonzero.len() as f64 / self.batch_rows as f64
    }

    /// Compacted index of `row` after filtering, or `None` if the filter
    /// removed it.
    pub fn compacted_index(&self, row: usize) -> Option<usize> {
        self.nonzero.binary_search(&row).ok()
    }

    /// A stable fingerprint of this filter (batch extent plus surviving
    /// rows). Used as the cache key for decoded SUMMA blocks: two batches
    /// processed under different filters can never share decoded blocks.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.batch_rows.hash(&mut h);
        self.nonzero.hash(&mut h);
        h.finish()
    }

    /// The [`Self::fingerprint`] of `RowFilter::from_bitmap(batch_rows,
    /// words)`, streamed from the bitmap without listing its rows.
    pub fn bitmap_fingerprint(batch_rows: usize, words: &[u64]) -> u64 {
        // The words holding rows below `batch_rows`; in the one that
        // straddles `batch_rows`, only the bits below it count.
        let live = &words[..batch_rows.div_ceil(WORD_BITS).min(words.len())];
        let straddling = batch_rows / WORD_BITS;
        let tail = (1u64 << (batch_rows % WORD_BITS)) - 1;
        let word = |wi: usize| if wi == straddling { live[wi] & tail } else { live[wi] };
        let count: usize = (0..live.len())
            .filter(|&wi| live[wi] != 0)
            .map(|wi| word(wi).count_ones() as usize)
            .sum();
        let mut h = DefaultHasher::new();
        batch_rows.hash(&mut h);
        count.hash(&mut h);
        // `[usize]` hashes its elements as one byte string; the hasher
        // streams, so writing it in pieces gives the same state.
        let mut buf = Vec::with_capacity(256 * std::mem::size_of::<usize>());
        for wi in (0..live.len()).filter(|&wi| live[wi] != 0) {
            let mut w = word(wi);
            while w != 0 {
                buf.extend_from_slice(
                    &(wi * WORD_BITS + w.trailing_zeros() as usize).to_ne_bytes(),
                );
                w &= w - 1;
                if buf.len() == buf.capacity() {
                    h.write(&buf);
                    buf.clear();
                }
            }
        }
        h.write(&buf);
        h.finish()
    }
}

/// Build the batch filter collectively with the paper's bitmap
/// formulation: every rank packs the rows present in its local columns
/// into a dense bitmap, the bitmaps are combined with a bitwise-OR
/// allreduce, and every rank derives the identical kept-row remap
/// locally. Communication is `⌈batch_rows / 64⌉` words per message
/// regardless of how many row indices were observed.
pub fn dist_row_filter(
    comm: &Communicator,
    batch_rows: usize,
    local_rows: &[usize],
) -> SparseResult<RowFilter> {
    let combined = allreduce_row_bitmap(comm, &pack_row_bitmap(batch_rows, local_rows))?;
    Ok(RowFilter::from_bitmap(batch_rows, &combined))
}

/// The collective step of [`dist_row_filter`]: OR-allreduce this rank's
/// packed row bitmap and charge the prefix-sum renumbering of the
/// survivors. Drivers that pack straight over the union bitmap
/// ([`crate::bitmat::BitMatrix::pack_over`]) call this directly and never
/// list the surviving rows.
pub fn allreduce_row_bitmap(comm: &Communicator, local: &[u64]) -> SparseResult<Vec<u64>> {
    let combined = comm.allreduce(local, |a, b| *a | *b)?;
    comm.add_flops(combined.len() as u64);
    Ok(combined)
}

/// The index-based construction this module used before the bitmap
/// formulation: every rank contributes the raw row indices it observed
/// and an allgather makes the union available everywhere. Kept for
/// communication-volume comparisons (`comm_volume`) and as the reference
/// in equivalence tests; [`dist_row_filter`] moves `≥ 8×` fewer bytes on
/// realistic batches.
pub fn dist_row_filter_indexed(
    comm: &Communicator,
    batch_rows: usize,
    local_rows: &[usize],
) -> SparseResult<RowFilter> {
    let mut mine: Vec<u64> = local_rows.iter().map(|&r| r as u64).collect();
    mine.sort_unstable();
    mine.dedup();
    let gathered = comm.allgatherv(&mine)?;
    let mut all: Vec<usize> = gathered.into_iter().flatten().map(|r| r as usize).collect();
    all.sort_unstable();
    all.dedup();
    // Charge the prefix-sum renumbering of the survivors.
    comm.add_flops(all.len() as u64);
    Ok(RowFilter::from_local(batch_rows, all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gas_dstsim::runtime::Runtime;

    #[test]
    fn from_local_sorts_dedups_and_clips() {
        let f = RowFilter::from_local(10, vec![7, 2, 7, 11, 0]);
        assert_eq!(f.nonzero_rows(), &[0, 2, 7]);
        assert_eq!(f.num_nonzero_rows(), 3);
        assert_eq!(f.batch_rows(), 10);
        assert!((f.removed_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(f.compacted_index(2), Some(1));
        assert_eq!(f.compacted_index(3), None);
    }

    #[test]
    fn from_bitmap_matches_from_local() {
        let rows = vec![0usize, 5, 63, 64, 99];
        let bitmap = pack_row_bitmap(100, &rows);
        assert_eq!(RowFilter::from_bitmap(100, &bitmap), RowFilter::from_local(100, rows.clone()));
        // Bits beyond the batch extent are dropped.
        let narrow = RowFilter::from_bitmap(64, &bitmap);
        assert_eq!(narrow.nonzero_rows(), &[0, 5, 63]);
    }

    #[test]
    fn bitmap_fingerprint_equals_the_filter_fingerprint() {
        for (batch_rows, rows) in [
            (0usize, vec![]),
            (100, vec![]),
            (100, vec![0usize, 5, 63, 64, 99]),
            (64, vec![0, 5, 63, 64, 99]),
            (200, (0..200).collect()),
            (20_000, (0..20_000).step_by(3).collect::<Vec<_>>()),
        ] {
            // Pack over a wider extent, so bits past `batch_rows` exist,
            // and over a narrower one, so the bitmap ends inside the batch.
            for extent in [batch_rows.max(100), batch_rows / 2] {
                let bitmap = pack_row_bitmap(extent, &rows);
                assert_eq!(
                    RowFilter::bitmap_fingerprint(batch_rows, &bitmap),
                    RowFilter::from_bitmap(batch_rows, &bitmap).fingerprint(),
                    "batch_rows = {batch_rows}, extent = {extent}, {} rows",
                    rows.len()
                );
            }
        }
    }

    #[test]
    fn fingerprints_distinguish_filters() {
        let a = RowFilter::from_local(100, vec![1, 2, 3]);
        let b = RowFilter::from_local(100, vec![1, 2, 4]);
        let c = RowFilter::from_local(101, vec![1, 2, 3]);
        assert_eq!(a.fingerprint(), RowFilter::from_local(100, vec![3, 2, 1, 2]).fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn empty_batch_has_zero_removed_fraction() {
        let f = RowFilter::from_local(0, vec![]);
        assert_eq!(f.num_nonzero_rows(), 0);
        assert_eq!(f.removed_fraction(), 0.0);
    }

    #[test]
    fn distributed_filter_is_the_union_on_every_rank() {
        let out = Runtime::new(4)
            .run(|ctx| {
                // Rank r knows rows {r, 10 + r}.
                let local = vec![ctx.rank(), 10 + ctx.rank()];
                dist_row_filter(ctx.world(), 100, &local).unwrap()
            })
            .unwrap();
        let expected = RowFilter::from_local(100, vec![0, 1, 2, 3, 10, 11, 12, 13]);
        for f in &out.results {
            assert_eq!(f, &expected);
        }
        // The allreduce moved bytes on every rank.
        assert!(out.aggregate().total_bytes_sent > 0);
    }

    #[test]
    fn bitmap_and_indexed_filters_agree() {
        for p in [1usize, 3, 4, 6] {
            let bitmap = Runtime::new(p)
                .run(|ctx| {
                    let local: Vec<usize> =
                        (0..40).map(|i| (i * 13 + ctx.rank() * 7) % 257).collect();
                    dist_row_filter(ctx.world(), 257, &local).unwrap()
                })
                .unwrap();
            let indexed = Runtime::new(p)
                .run(|ctx| {
                    let local: Vec<usize> =
                        (0..40).map(|i| (i * 13 + ctx.rank() * 7) % 257).collect();
                    dist_row_filter_indexed(ctx.world(), 257, &local).unwrap()
                })
                .unwrap();
            assert_eq!(bitmap.results, indexed.results, "p = {p}");
        }
    }

    #[test]
    fn bitmap_filter_moves_fewer_bytes_than_indexed() {
        // A dense-ish batch: many observed rows per rank, so shipping raw
        // 8-byte indices dwarfs the one-bit-per-row bitmaps.
        let p = 8;
        let batch_rows = 20_000;
        let local = |rank: usize| -> Vec<usize> {
            (0..4_000).map(|i| (i * 5 + rank) % batch_rows).collect()
        };
        let bitmap = Runtime::new(p)
            .run(|ctx| {
                dist_row_filter(ctx.world(), batch_rows, &local(ctx.rank())).unwrap();
            })
            .unwrap();
        let indexed = Runtime::new(p)
            .run(|ctx| {
                dist_row_filter_indexed(ctx.world(), batch_rows, &local(ctx.rank())).unwrap();
            })
            .unwrap();
        let b = bitmap.aggregate().total_bytes_sent;
        let i = indexed.aggregate().total_bytes_sent;
        assert!(i >= 8 * b, "bitmap filter should cut traffic ≥ 8×: bitmap {b} vs indexed {i}");
    }

    #[test]
    fn distributed_filter_matches_single_rank() {
        let local: Vec<usize> = (0..50).map(|i| (i * 7) % 97).collect();
        let single =
            Runtime::new(1).run(|ctx| dist_row_filter(ctx.world(), 97, &local).unwrap()).unwrap();
        assert_eq!(single.results[0], RowFilter::from_local(97, local.clone()));
    }
}
