//! The SimilarityAtScale drivers.
//!
//! Two execution paths cover the paper's algorithm (Listing 1):
//!
//! * [`similarity_at_scale`] — the shared-memory driver: batches are
//!   filtered and bit-packed in one pass and multiplied with the
//!   Rayon-parallel popcount-AND kernel (the transpose-free panel kernel
//!   on dense batches, Gustavson on sparse ones). This is what a single
//!   rank (one MPI process with on-node threading) executes, and what the
//!   examples use.
//! * [`similarity_at_scale_distributed`] — the simulated-distributed
//!   driver: `p` ranks run the full pipeline over the simulated runtime —
//!   the bitmap zero-row filter (an OR-allreduce of packed row bitmaps),
//!   per-rank bit-packed operand blocks, the rectangular-grid 2.5D SUMMA
//!   `AᵀA` (all `p` ranks active for every rank count), and the final
//!   layer/cardinality reductions — and the cost trackers record the
//!   communication the paper's evaluation is about.

use std::time::Instant;

use gas_dstsim::cost::{AggregateCost, CostModel, CostReport};
use gas_dstsim::machine::Machine;
use gas_dstsim::runtime::Runtime;
use gas_sparse::bitmat::{pack_column_bitmap, BitMatrix, RowRank};
use gas_sparse::dense::DenseMatrix;
use gas_sparse::dist::ata::DistAta;
use gas_sparse::dist::filter::{allreduce_row_bitmap, RowFilter};
use gas_sparse::semiring::PlusTimes;
use gas_sparse::spgemm::{ata_dense_parallel, ata_popcount};

use crate::batch::BatchPlan;
use crate::config::SimilarityConfig;
use crate::error::{CoreError, CoreResult};
use crate::indicator::SampleCollection;
use crate::jaccard::SimilarityResult;
use crate::mask::{prepare_batch, PreparedBatch};

/// Per-batch statistics of a shared-memory run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Batch index.
    pub batch: usize,
    /// Row range `[lo, hi)` of the batch.
    pub rows: (u64, u64),
    /// Nonzeros of the indicator matrix falling in the batch.
    pub nnz: u64,
    /// Rows surviving the zero-row filter.
    pub nonzero_rows: usize,
    /// Stored entries after packing (words when masking is on).
    pub stored_entries: usize,
    /// Wall-clock seconds spent on the batch.
    pub seconds: f64,
}

/// Output of [`similarity_at_scale_with_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRunSummary {
    /// The similarity result.
    pub result: SimilarityResult,
    /// Per-batch statistics.
    pub batches: Vec<BatchStats>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
}

impl SharedRunSummary {
    /// Mean seconds per batch.
    pub fn mean_batch_seconds(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.seconds).sum::<f64>() / self.batches.len() as f64
    }
}

/// Run SimilarityAtScale on shared memory and return only the result.
pub fn similarity_at_scale(
    collection: &SampleCollection,
    config: &SimilarityConfig,
) -> CoreResult<SimilarityResult> {
    Ok(similarity_at_scale_with_stats(collection, config)?.result)
}

/// Run SimilarityAtScale on shared memory, recording per-batch statistics.
pub fn similarity_at_scale_with_stats(
    collection: &SampleCollection,
    config: &SimilarityConfig,
) -> CoreResult<SharedRunSummary> {
    config.validate()?;
    let start = Instant::now();
    let plan = BatchPlan::from_config(config, collection, 1)?;
    let n = collection.n();
    let mut b = DenseMatrix::<u64>::zeros(n, n);
    let mut cardinalities = vec![0u64; n];
    let mut batches = Vec::with_capacity(plan.batch_count());
    for (l, (lo, hi)) in plan.iter().enumerate() {
        let batch_start = Instant::now();
        let columns = collection.batch_columns_all(lo, hi);
        let (prepared, filter) = prepare_batch(
            (hi - lo) as usize,
            &columns,
            config.use_zero_row_filter,
            config.use_bitmask,
        )?;
        for (i, c) in prepared.col_cardinalities().into_iter().enumerate() {
            cardinalities[i] += c;
        }
        let partial = match &prepared {
            PreparedBatch::Masked(bm) => ata_popcount(bm.as_csc())?,
            PreparedBatch::Unmasked { csc, csr } => ata_dense_parallel::<PlusTimes<u64>>(csc, csr)?,
        };
        b.add_assign(&partial)?;
        batches.push(BatchStats {
            batch: l,
            rows: (lo, hi),
            nnz: collection.batch_nnz(lo, hi),
            nonzero_rows: filter.num_nonzero_rows(),
            stored_entries: prepared.stored_entries(),
            seconds: batch_start.elapsed().as_secs_f64(),
        });
    }
    let result = SimilarityResult::from_intersections(b, cardinalities)?;
    Ok(SharedRunSummary { result, batches, total_seconds: start.elapsed().as_secs_f64() })
}

/// Summary of a simulated-distributed run.
#[derive(Debug, Clone)]
pub struct DistributedRunSummary {
    /// The similarity result (assembled from the distributed blocks).
    pub result: SimilarityResult,
    /// Per-rank communication/computation counters.
    pub reports: Vec<CostReport>,
    /// Aggregate of the per-rank counters.
    pub aggregate: AggregateCost,
    /// Per-batch wall-clock seconds (maximum over ranks).
    pub batch_seconds: Vec<f64>,
    /// Maximum per-rank wall-clock seconds of the whole parallel section.
    pub measured_seconds: f64,
    /// Number of ranks used.
    pub nranks: usize,
    /// The `r × q × c` processor grid the run was distributed over.
    pub grid_dims: [usize; 3],
    /// Ranks that participated in the product (always `nranks` with
    /// rectangular grids).
    pub active_ranks: usize,
}

impl DistributedRunSummary {
    /// BSP-projected execution time under `model`.
    pub fn projected_time(&self, model: &CostModel) -> f64 {
        model.project(&self.reports)
    }

    /// Mean seconds per batch (max over ranks, averaged over batches).
    pub fn mean_batch_seconds(&self) -> f64 {
        if self.batch_seconds.is_empty() {
            return 0.0;
        }
        self.batch_seconds.iter().sum::<f64>() / self.batch_seconds.len() as f64
    }
}

/// Run SimilarityAtScale on `nranks` simulated ranks of `machine`.
///
/// The driver selects a rectangular `r × q × c` grid for the rank count
/// (every rank active), and each rank reads the sample columns of its
/// output row block `R_i` and column block `C_j` (the two SUMMA
/// operands). Every rank contributes a packed bitmap of the batch rows it
/// observes to the distributed zero-row filter (an OR-allreduce), packs
/// its filtered operand blocks, and runs the SUMMA sweep — passing the
/// filter fingerprint so the decoded-block cache can skip re-decodes
/// across batches with identical filters. The result is gathered on rank
/// 0 for return. Communication counters for all ranks are included in the
/// summary so benchmarks can report modeled times at the paper's scales.
pub fn similarity_at_scale_distributed(
    collection: &SampleCollection,
    config: &SimilarityConfig,
    nranks: usize,
    machine: &Machine,
) -> CoreResult<DistributedRunSummary> {
    config.validate()?;
    if nranks == 0 {
        return Err(CoreError::InvalidConfig("need at least one rank".to_string()));
    }
    let n = collection.n();
    let plan = BatchPlan::from_config(config, collection, nranks)?;
    let runtime = Runtime::new(nranks).with_machine(machine.clone());
    let use_filter = config.use_zero_row_filter;
    let replication = config.replication;
    let grid = DistAta::select_grid(nranks, replication)?;
    let grid_dims = [grid.rows(), grid.cols(), grid.layers()];

    type RankOutput = Result<(Option<DenseMatrix<u64>>, Vec<u64>, Vec<f64>), CoreError>;

    let out = runtime.run(move |ctx| -> RankOutput {
        let world = ctx.world();
        let mut ata = DistAta::new(world, n, replication)?;
        let mut acc = ata.new_accumulator();
        let mut card = ata.new_cardinalities();
        let right_cols: Vec<usize> = ata.my_col_range().collect();
        let left_cols: Vec<usize> = ata.my_row_range().collect();
        let same_blocks = right_cols == left_cols;
        let mut batch_seconds = Vec::with_capacity(plan.batch_count());
        for (lo, hi) in plan.iter() {
            let batch_start = Instant::now();
            let batch_rows = (hi - lo) as usize;
            // Each rank reads the samples of its two operand blocks for
            // this batch (they coincide on the diagonal of square grids).
            let right_columns = collection.batch_columns(lo, hi, &right_cols);
            let left_columns = if same_blocks {
                right_columns.clone()
            } else {
                collection.batch_columns(lo, hi, &left_cols)
            };
            // Every rank accumulates the rows it observes in its column
            // block into a packed bitmap; the OR-allreduce makes the
            // union filter available everywhere (the paper's
            // accumulate-write formulation), and both operand blocks are
            // packed straight over it. With the filter disabled the batch
            // is packed as-is.
            let bitmap = if use_filter {
                let observed: usize = right_columns.iter().map(Vec::len).sum();
                ctx.add_mem_traffic((observed * std::mem::size_of::<u64>()) as u64);
                // Distributed zero-row filter (collective over all ranks).
                let local = pack_column_bitmap(batch_rows, &right_columns);
                Some(allreduce_row_bitmap(world, &local)?)
            } else {
                None
            };
            let rank = bitmap.as_deref().map(RowRank::new);
            let pack = |columns: &[Vec<usize>]| match &rank {
                Some(rank) => BitMatrix::pack_ranked(rank, columns),
                None => BitMatrix::from_columns(batch_rows, columns),
            };
            let right = pack(&right_columns)?;
            let left = if same_blocks { right.clone() } else { pack(&left_columns)? };
            let key = bitmap.as_ref().map(|b| RowFilter::bitmap_fingerprint(batch_rows, b));
            ata.accumulate_batch_keyed(&left, &right, key, &mut acc, &mut card)?;
            ctx.record_superstep();
            batch_seconds.push(batch_start.elapsed().as_secs_f64());
        }
        ata.finalize(&mut acc, &mut card)?;
        let full = ata.gather_full(world, &acc)?;
        Ok((full, card, batch_seconds))
    })?;

    let reports = out.reports;
    let aggregate = AggregateCost::from_reports(&reports);
    let measured_seconds = reports.iter().map(|r| r.measured_seconds).fold(0.0, f64::max);
    let mut results = Vec::with_capacity(out.results.len());
    for r in out.results {
        results.push(r?);
    }
    // Per-batch time: maximum over ranks for each batch index.
    let batch_count = results.iter().map(|(_, _, b)| b.len()).max().unwrap_or(0);
    let mut batch_seconds = vec![0.0f64; batch_count];
    for (_, _, times) in &results {
        for (i, &t) in times.iter().enumerate() {
            batch_seconds[i] = batch_seconds[i].max(t);
        }
    }
    let (full_b, cardinalities, _) = results.swap_remove(0);
    let full_b = full_b.ok_or_else(|| {
        CoreError::InvalidInput("rank 0 did not produce the gathered similarity matrix".to_string())
    })?;
    let result = SimilarityResult::from_intersections(full_b, cardinalities)?;
    Ok(DistributedRunSummary {
        result,
        reports,
        aggregate,
        batch_seconds,
        measured_seconds,
        nranks,
        grid_dims,
        active_ranks: grid_dims.iter().product(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard_exact_pairwise;
    use gas_genomics::datasets::DatasetSpec;

    fn small_collection() -> SampleCollection {
        let samples = DatasetSpec::explicit(4000, 12, 0.02, 17).generate().unwrap();
        SampleCollection::from_sorted_sets(samples).unwrap()
    }

    #[test]
    fn shared_memory_matches_exact_reference() {
        let c = small_collection();
        let exact = jaccard_exact_pairwise(&c);
        for batches in [1usize, 3, 7] {
            let r = similarity_at_scale(&c, &SimilarityConfig::with_batches(batches)).unwrap();
            assert_eq!(r.intersections(), exact.intersections(), "batches = {batches}");
            assert_eq!(r.cardinalities(), exact.cardinalities());
            assert!(r.max_similarity_diff(&exact).unwrap() < 1e-12);
        }
    }

    #[test]
    fn masking_and_filtering_do_not_change_the_result() {
        let c = small_collection();
        let reference = jaccard_exact_pairwise(&c);
        for (filter, mask) in [(true, true), (true, false), (false, true), (false, false)] {
            let config = SimilarityConfig {
                use_zero_row_filter: filter,
                use_bitmask: mask,
                ..SimilarityConfig::with_batches(2)
            };
            let r = similarity_at_scale(&c, &config).unwrap();
            assert_eq!(r.intersections(), reference.intersections(), "filter={filter} mask={mask}");
        }
    }

    #[test]
    fn stats_cover_all_batches_and_nnz() {
        let c = small_collection();
        let summary =
            similarity_at_scale_with_stats(&c, &SimilarityConfig::with_batches(5)).unwrap();
        assert_eq!(summary.batches.len(), 5);
        let nnz: u64 = summary.batches.iter().map(|b| b.nnz).sum();
        assert_eq!(nnz, c.nnz());
        assert!(summary.total_seconds >= 0.0);
        assert!(summary.mean_batch_seconds() >= 0.0);
        // Filtered rows never exceed batch nnz.
        for b in &summary.batches {
            assert!(b.nonzero_rows as u64 <= b.nnz);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = small_collection();
        assert!(similarity_at_scale(&c, &SimilarityConfig::with_batches(0)).is_err());
        assert!(similarity_at_scale_distributed(
            &c,
            &SimilarityConfig::default(),
            0,
            &Machine::laptop()
        )
        .is_err());
    }

    #[test]
    fn distributed_matches_exact_reference_on_various_rank_counts() {
        let c = small_collection();
        let exact = jaccard_exact_pairwise(&c);
        for nranks in [1usize, 4, 6, 8, 9] {
            let summary = similarity_at_scale_distributed(
                &c,
                &SimilarityConfig::with_batches(3),
                nranks,
                &Machine::laptop(),
            )
            .unwrap();
            assert_eq!(summary.result.intersections(), exact.intersections(), "nranks = {nranks}");
            assert_eq!(summary.result.cardinalities(), exact.cardinalities());
            assert_eq!(summary.batch_seconds.len(), 3);
            assert_eq!(summary.nranks, nranks);
            // Rectangular grids never idle ranks.
            assert_eq!(summary.active_ranks, nranks, "nranks = {nranks}");
            assert_eq!(summary.grid_dims.iter().product::<usize>(), nranks);
            if nranks > 1 {
                assert!(summary.aggregate.total_bytes_sent > 0);
            }
        }
    }

    #[test]
    fn distributed_with_replication_matches_reference() {
        let c = small_collection();
        let exact = jaccard_exact_pairwise(&c);
        let summary = similarity_at_scale_distributed(
            &c,
            &SimilarityConfig::with_batches(2).with_replication(2),
            8,
            &Machine::laptop(),
        )
        .unwrap();
        assert_eq!(summary.result.intersections(), exact.intersections());
        let projected = summary.projected_time(&Machine::laptop().cost_model().unwrap());
        assert!(projected > 0.0);
    }
}
