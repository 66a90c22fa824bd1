//! Baseline all-pairs Jaccard implementations.
//!
//! The paper positions SimilarityAtScale against two families of prior
//! work (Section I / VI):
//!
//! * single-node exact tools (DSM-style): exact but limited to one
//!   machine — reproduced by [`crate::jaccard::jaccard_exact_pairwise`]
//!   and its Rayon-parallel variant here;
//! * MapReduce/allreduce-style distributed schemes, which "need
//!   asymptotically more communication due to using the allreduce
//!   collective communication pattern over reducers" — reproduced by
//!   [`allreduce_jaccard_distributed`], which computes the same result
//!   but allreduces the full `n × n` intersection matrix every batch.
//!
//! Running both under the same simulated runtime lets the benchmarks
//! compare communication volumes directly (the `comm_volume` experiment).

use gas_dstsim::cost::{AggregateCost, CostReport};
use gas_dstsim::machine::Machine;
use gas_dstsim::runtime::Runtime;
use gas_sparse::dense::DenseMatrix;
use gas_sparse::spgemm::{ata_dense_parallel, ata_popcount};
use rayon::prelude::*;

use crate::batch::BatchPlan;
use crate::config::SimilarityConfig;
use crate::error::{CoreError, CoreResult};
use crate::indicator::SampleCollection;
use crate::jaccard::{sorted_intersection_size, SimilarityResult};
use crate::mask::{prepare_batch, PreparedBatch};

/// Summary of a baseline distributed run (same shape as the
/// SimilarityAtScale summary, for apples-to-apples comparison).
#[derive(Debug, Clone)]
pub struct BaselineRunSummary {
    /// The (exact) similarity result.
    pub result: SimilarityResult,
    /// Per-rank communication counters.
    pub reports: Vec<CostReport>,
    /// Aggregate counters.
    pub aggregate: AggregateCost,
    /// Number of ranks used.
    pub nranks: usize,
}

/// Exact all-pairs Jaccard on a single node, parallelized over sample
/// pairs with Rayon (the strongest single-node exact baseline).
pub fn exact_pairwise_parallel(collection: &SampleCollection) -> SimilarityResult {
    let n = collection.n();
    let rows: Vec<Vec<u64>> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut row = vec![0u64; n];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = if i == j {
                    collection.sample(i).len() as u64
                } else {
                    sorted_intersection_size(collection.sample(i), collection.sample(j))
                };
            }
            row
        })
        .collect();
    let mut flat = Vec::with_capacity(n * n);
    for r in rows {
        flat.extend(r);
    }
    let b = DenseMatrix::from_vec(n, n, flat).expect("n*n elements by construction");
    SimilarityResult::from_intersections(b, collection.cardinalities())
        .expect("dimensions agree by construction")
}

/// The allreduce-style distributed baseline.
///
/// The attribute rows are block-partitioned over the ranks; each rank
/// builds and multiplies its *own* rows of every batch locally (so the
/// arithmetic is identical to SimilarityAtScale), but the partial `n × n`
/// intersection matrix is then combined with a full allreduce each batch —
/// the communication pattern of the MapReduce-era schemes the paper
/// criticizes. The result is exact; only the data movement differs.
pub fn allreduce_jaccard_distributed(
    collection: &SampleCollection,
    config: &SimilarityConfig,
    nranks: usize,
    machine: &Machine,
) -> CoreResult<BaselineRunSummary> {
    config.validate()?;
    if nranks == 0 {
        return Err(CoreError::InvalidConfig("need at least one rank".to_string()));
    }
    let n = collection.n();
    let plan = BatchPlan::from_config(config, collection, nranks)?;
    let use_filter = config.use_zero_row_filter;
    let use_bitmask = config.use_bitmask;
    let runtime = Runtime::new(nranks).with_machine(machine.clone());

    type RankOutput = Result<(Vec<u64>, Vec<u64>), CoreError>;

    let out = runtime.run(move |ctx| -> RankOutput {
        let world = ctx.world();
        let p = ctx.nranks();
        let me = ctx.rank();
        let mut b_flat = vec![0u64; n * n];
        let mut card = vec![0u64; n];
        for (lo, hi) in plan.iter() {
            // This rank handles its 1/p slice of the batch's rows.
            let rows = hi - lo;
            let my_lo = lo + rows * me as u64 / p as u64;
            let my_hi = lo + rows * (me as u64 + 1) / p as u64;
            let columns = collection.batch_columns_all(my_lo, my_hi);
            let (prepared, _) =
                prepare_batch((my_hi - my_lo) as usize, &columns, use_filter, use_bitmask)?;
            for (i, c) in prepared.col_cardinalities().into_iter().enumerate() {
                card[i] += c;
            }
            let partial = match &prepared {
                PreparedBatch::Masked(bm) => ata_popcount(bm.as_csc())?,
                PreparedBatch::Unmasked { csc, csr } => {
                    ata_dense_parallel::<gas_sparse::semiring::PlusTimes<u64>>(csc, csr)?
                }
            };
            ctx.add_flops(partial.as_slice().len() as u64);
            // The defining (and expensive) step: allreduce the full n x n
            // partial result every batch, then fold it into the running
            // total held redundantly on every rank.
            let reduced = world.allreduce_sum(partial.as_slice())?;
            for (acc, v) in b_flat.iter_mut().zip(reduced) {
                *acc += v;
            }
            ctx.record_superstep();
        }
        let card = world.allreduce_sum(&card)?;
        Ok((b_flat, card))
    })?;

    let reports = out.reports;
    let aggregate = AggregateCost::from_reports(&reports);
    let mut results = Vec::with_capacity(out.results.len());
    for r in out.results {
        results.push(r?);
    }
    let (b_flat, card) = results.swap_remove(0);
    let b = DenseMatrix::from_vec(n, n, b_flat)?;
    let result = SimilarityResult::from_intersections(b, card)?;
    Ok(BaselineRunSummary { result, reports, aggregate, nranks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::similarity_at_scale_distributed;
    use crate::jaccard::jaccard_exact_pairwise;
    use gas_genomics::datasets::DatasetSpec;

    fn collection() -> SampleCollection {
        let samples = DatasetSpec::explicit(3000, 10, 0.03, 5).generate().unwrap();
        SampleCollection::from_sorted_sets(samples).unwrap()
    }

    #[test]
    fn parallel_exact_matches_sequential_exact() {
        let c = collection();
        let a = jaccard_exact_pairwise(&c);
        let b = exact_pairwise_parallel(&c);
        assert_eq!(a.intersections(), b.intersections());
        assert_eq!(a.cardinalities(), b.cardinalities());
    }

    #[test]
    fn allreduce_baseline_is_exact() {
        let c = collection();
        let exact = jaccard_exact_pairwise(&c);
        for nranks in [1usize, 3, 4] {
            let summary = allreduce_jaccard_distributed(
                &c,
                &SimilarityConfig::with_batches(2),
                nranks,
                &Machine::laptop(),
            )
            .unwrap();
            assert_eq!(summary.result.intersections(), exact.intersections());
            assert_eq!(summary.result.cardinalities(), exact.cardinalities());
            assert_eq!(summary.nranks, nranks);
        }
    }

    #[test]
    fn allreduce_baseline_moves_more_bytes_than_similarity_at_scale() {
        // The motivating comparison: at equal rank counts and batch
        // counts, the allreduce pattern must move (much) more data than
        // the communication-avoiding algorithm once n is non-trivial.
        let samples = DatasetSpec::explicit(4000, 24, 0.02, 9).generate().unwrap();
        let c = SampleCollection::from_sorted_sets(samples).unwrap();
        let config = SimilarityConfig::with_batches(4);
        let nranks = 4;
        let ours =
            similarity_at_scale_distributed(&c, &config, nranks, &Machine::laptop()).unwrap();
        let baseline =
            allreduce_jaccard_distributed(&c, &config, nranks, &Machine::laptop()).unwrap();
        assert_eq!(ours.result.intersections(), baseline.result.intersections());
        assert!(
            baseline.aggregate.total_bytes_sent > ours.aggregate.total_bytes_sent,
            "allreduce {} bytes vs ours {} bytes",
            baseline.aggregate.total_bytes_sent,
            ours.aggregate.total_bytes_sent
        );
    }

    #[test]
    fn zero_ranks_rejected() {
        let c = collection();
        assert!(allreduce_jaccard_distributed(
            &c,
            &SimilarityConfig::default(),
            0,
            &Machine::laptop()
        )
        .is_err());
    }
}
