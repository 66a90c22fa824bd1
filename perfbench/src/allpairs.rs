//! The paper's all-pairs pipeline: `allpairs-dense` (shared-memory
//! path on a Bernoulli indicator matrix) and `genome-kmers`
//! (GenomeAtScale from sequences on the simulated distributed path at
//! p = 2).

use std::time::Instant;

use gas_core::algorithm::{similarity_at_scale_distributed, similarity_at_scale_with_stats};
use gas_core::batch::BatchPlan;
use gas_core::filter::apply_filter;
use gas_core::jaccard::sorted_intersection_size;
use gas_core::mask::{prepare_batch, PreparedBatch};
use gas_core::{SampleCollection, SimilarityConfig, SimilarityResult};
use gas_dstsim::{CostReport, Machine, Runtime};
use gas_genomics::{KmerExtractor, KmerSample};
use gas_sparse::bitmat::BitMatrix;
use gas_sparse::dense::DenseMatrix;
use gas_sparse::dist::ata::DistAta;
use gas_sparse::dist::filter::dist_row_filter;
use gas_sparse::semiring::PopcountAnd;
use gas_sparse::spgemm::{ata_dense_parallel, ata_flops};

use crate::gen::{self, Rng};
use crate::report::{median, Report};
use crate::trace::{self, Recorder, Span};
use crate::{closed_loop, set_layer_means, set_op_metrics, setup, Ctx};

/// `allpairs-dense`: n samples over m rows at 1% density.
const DENSE_N: usize = 256;
const DENSE_M: u64 = 2_000_000;
const DENSE_DENSITY: f64 = 0.01;
/// Row batches per pass (both workloads).
const BATCHES: usize = 4;
/// `genome-kmers`: families × (ancestor + one descendant per rate).
const FAMILIES: usize = 8;
const GENOME_LEN: usize = 100_000;
const RATES: [f64; 7] = [0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014];
const K: usize = 15;
const RANKS: usize = 2;
/// Random pairs checked against a merge-join intersection.
const PAIRS_CHECKED: usize = 256;

fn config() -> SimilarityConfig {
    SimilarityConfig::with_batches(BATCHES)
}

/// Check a similarity matrix against its input sets: the diagonal
/// equals the cardinalities, the matrix is symmetric, and seeded random
/// pairs match a merge-join intersection exactly.
fn verify(tag: &str, result: &SimilarityResult, c: &SampleCollection, seed: u64, rep: &mut Report) {
    let b = result.intersections();
    let n = c.n();
    let cards = c.cardinalities();
    let diag_ok =
        (0..n).all(|i| b.get(i, i) == cards[i]) && result.cardinalities() == cards.as_slice();
    rep.check(format!("{tag}.diagonal_is_cardinality"), diag_ok, format!("{n} samples"));
    let sym_ok = (0..n).all(|i| (0..i).all(|j| b.get(i, j) == b.get(j, i)));
    rep.check(format!("{tag}.symmetric"), sym_ok, format!("{n}x{n}"));
    let mut rng = Rng::new(seed, 9);
    let mut mismatches = 0;
    for _ in 0..PAIRS_CHECKED {
        let (i, j) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if b.get(i, j) != sorted_intersection_size(c.sample(i), c.sample(j)) {
            mismatches += 1;
        }
    }
    rep.check(
        format!("{tag}.random_pairs_exact"),
        mismatches == 0,
        format!("{mismatches} of {PAIRS_CHECKED} seeded pairs differ from the merge-join"),
    );
}

fn dense_collection(seed: u64) -> SampleCollection {
    SampleCollection::from_sorted_sets(gen::bernoulli_sets(DENSE_M, DENSE_N, DENSE_DENSITY, seed))
        .expect("generated sets are sorted and non-empty")
        .with_universe(DENSE_M)
        .expect("universe covers the generated rows")
}

/// `allpairs-dense`.
pub fn dense(ctx: &Ctx, rep: &mut Report) -> Vec<Span> {
    let c = setup(rep, || dense_collection(ctx.seed));
    let (budget, traced_budget) = ctx.phases();
    let mut last = None;
    let mut failed = 0;
    let times = closed_loop(budget, |_| match similarity_at_scale_with_stats(&c, &config()) {
        Ok(s) => last = Some(s.result),
        Err(e) => {
            eprintln!("pass failed: {e}");
            failed += 1;
        }
    });
    rep.ops(times.len() as u64, failed);
    let Some(result) = last else {
        rep.check("dense.pass_succeeded", false, "every pass failed");
        return Vec::new();
    };
    verify("dense", &result, &c, ctx.seed, rep);
    set_op_metrics(rep, &times);
    rep.set("workload.allpairs_s", median(&times));
    if !ctx.trace {
        return Vec::new();
    }

    let mut rec = Recorder::new(ctx.epoch, 0, true);
    let mut replayed = None;
    let mut words = 0.0;
    let mut word_ops = 0.0;
    let mut kept = (0u64, 0u64);
    let traced = closed_loop(traced_budget, |op| {
        let op = op as u64;
        let pass = rec.begin("allpairs.pass", op);
        let plan = BatchPlan::from_config(&config(), &c, 1).expect("valid plan");
        let n = c.n();
        let mut b = DenseMatrix::<u64>::zeros(n, n);
        let mut cards = vec![0u64; n];
        let (mut w, mut ops) = (0usize, 0u64);
        kept = (0, 0);
        for (lo, hi) in plan.iter() {
            let columns = rec.time("core.indicator.columns", op, || c.batch_columns_all(lo, hi));
            let (prepared, filter) = rec.time("core.mask.prepare", op, || {
                prepare_batch((hi - lo) as usize, &columns, true, true).expect("valid batch")
            });
            kept.0 += filter.num_nonzero_rows() as u64;
            kept.1 += hi - lo;
            w += prepared.stored_entries();
            let PreparedBatch::Masked(bm) = &prepared else { unreachable!("masking is on") };
            let csr = rec.time("sparse.bitmat.to_csr", op, || bm.to_csr());
            ops += rec.time("bench.accounting", op, || ata_flops(&csr));
            let partial = rec.time("sparse.spgemm.ata", op, || {
                ata_dense_parallel::<PopcountAnd>(bm.as_csc(), &csr).expect("shapes agree")
            });
            rec.time("core.jaccard.reduce", op, || {
                for (i, x) in prepared.col_cardinalities().into_iter().enumerate() {
                    cards[i] += x;
                }
                b.add_assign(&partial).expect("shapes agree");
            });
        }
        let r = rec.time("core.jaccard.reduce", op, || {
            SimilarityResult::from_intersections(b, cards).expect("valid result")
        });
        rec.end(pass);
        words = w as f64;
        word_ops = ops as f64;
        replayed = Some(r);
    });
    rep.ops(traced.len() as u64, 0);
    let same = replayed.is_some_and(|r| r.intersections() == result.intersections());
    rep.check(
        "dense.traced_replay_matches_untraced",
        same,
        "the traced layer-by-layer replay gives the untraced run's matrix",
    );
    let spans = rec.into_spans();
    set_layer_means(
        rep,
        &spans,
        traced.len(),
        &[
            ("core.indicator.columns", "core.indicator.columns_s"),
            ("core.mask.prepare", "core.mask.prepare_s"),
            ("sparse.bitmat.to_csr", "sparse.bitmat.to_csr_s"),
            ("sparse.spgemm.ata", "sparse.spgemm.ata_s"),
            ("core.jaccard.reduce", "core.jaccard.reduce_s"),
        ],
    );
    rep.set("core.filter.kept_ratio", kept.0 as f64 / kept.1.max(1) as f64);
    rep.set("core.mask.words", words);
    rep.set("sparse.spgemm.word_ops", word_ops);
    rep.set("trace.overhead_ratio", median(&traced) / median(&times) - 1.0);
    spans
}

fn kmer_samples(seqs: &[Vec<u8>]) -> Vec<KmerSample> {
    let extractor = KmerExtractor::new(K).expect("valid k");
    seqs.iter()
        .enumerate()
        .map(|(i, s)| KmerSample::from_sequence(format!("g{i}"), s, &extractor))
        .collect()
}

fn kmer_collection(samples: &[KmerSample]) -> SampleCollection {
    SampleCollection::from_kmer_samples(samples)
        .expect("non-empty samples")
        .with_universe(1u64 << (2 * K))
        .expect("k-mer codes lie below 4^k")
}

fn machine() -> Machine {
    Machine::stampede2_knl()
}

/// `genome-kmers`.
pub fn genome(ctx: &Ctx, rep: &mut Report) -> Vec<Span> {
    let mut seqs = Vec::new();
    setup(rep, || gen::genome_families_into(&mut seqs, FAMILIES, GENOME_LEN, &RATES, ctx.seed));
    let (budget, traced_budget) = ctx.phases();
    let model = machine().cost_model().expect("preset machine is valid");
    let mut last = None;
    let mut failed = 0;
    let mut modeled = Vec::new();
    let times = closed_loop(budget, |_| {
        let c = kmer_collection(&kmer_samples(&seqs));
        match similarity_at_scale_distributed(&c, &config(), RANKS, &machine()) {
            Ok(s) => {
                modeled.push(model.project(&s.reports));
                last = Some((s, c));
            }
            Err(e) => {
                eprintln!("pass failed: {e}");
                failed += 1;
            }
        }
    });
    rep.ops(times.len() as u64, failed);
    let Some((summary, c)) = last else {
        rep.check("genome.pass_succeeded", false, "every pass failed");
        return Vec::new();
    };
    verify("genome", &summary.result, &c, ctx.seed, rep);
    set_op_metrics(rep, &times);
    rep.set("workload.allpairs_s", median(&times));
    rep.set("workload.modeled_s", median(&modeled));
    if !ctx.trace {
        return Vec::new();
    }

    let mut spans = Vec::new();
    let mut replay: Option<(Vec<CostReport>, SimilarityResult, f64)> = None;
    let mut distinct = 0.0;
    let traced = closed_loop(traced_budget, |op| {
        let op = op as u64;
        let mut rec = Recorder::new(ctx.epoch, RANKS as u32, true);
        let pass = rec.begin("allpairs.pass", op);
        let samples = rec.time("genomics.kmer.extract", op, || kmer_samples(&seqs));
        distinct = samples.iter().map(|s| s.len() as f64).sum();
        let c = kmer_collection(&samples);
        let (ranks, reports, hit_ratio) = replay_distributed(&c, ctx.epoch, op);
        rec.end(pass);
        let mut full = None;
        for (rank_spans, b, cards) in ranks {
            trace::merge(&mut spans, rank_spans);
            if let Some(b) = b {
                full = Some(SimilarityResult::from_intersections(b, cards).expect("valid result"));
            }
        }
        trace::merge(&mut spans, rec.into_spans());
        replay = Some((reports, full.expect("rank 0 gathers the matrix"), hit_ratio));
    });
    rep.ops(traced.len() as u64, 0);
    let (reports, replayed, hit_ratio) = replay.expect("at least one traced pass");
    rep.check(
        "genome.traced_replay_matches_untraced",
        replayed.intersections() == summary.result.intersections(),
        "the traced per-rank replay gives the untraced run's matrix",
    );
    let counters =
        |r: &CostReport| (r.bytes_sent, r.bytes_received, r.collectives, r.supersteps, r.flops);
    rep.check(
        "genome.traced_replay_counts_match_untraced",
        reports.iter().map(counters).eq(summary.reports.iter().map(counters)),
        "per-rank bytes, collectives, supersteps and flops are identical",
    );
    set_layer_means(
        rep,
        &spans,
        traced.len(),
        &[
            ("genomics.kmer.extract", "genomics.kmer.extract_s"),
            ("core.indicator.columns", "core.indicator.columns_s"),
            ("sparse.dist.filter", "sparse.dist.filter_s"),
            ("sparse.dist.pack", "sparse.dist.pack_s"),
            ("sparse.dist.ata", "sparse.dist.ata_s"),
            ("sparse.dist.gather", "sparse.dist.gather_s"),
        ],
    );
    let max = |f: fn(&CostReport) -> u64| reports.iter().map(f).max().unwrap_or(0) as f64;
    rep.set("genomics.kmer.distinct", distinct);
    rep.set("sparse.dist.cache_hit_ratio", hit_ratio);
    rep.set("dstsim.bytes_sent", max(|r| r.bytes_sent));
    rep.set("dstsim.bytes_received", max(|r| r.bytes_received));
    rep.set("dstsim.collectives", max(|r| r.collectives));
    rep.set("dstsim.supersteps", max(|r| r.supersteps));
    rep.set("dstsim.flops", max(|r| r.flops));
    // Computed, not counted: every rank contributes one dense packed
    // bitmap of the batch's rows to each filter OR-allreduce.
    let plan = BatchPlan::from_config(&config(), &c, RANKS).expect("valid plan");
    let bitmap_bytes: u64 = plan.iter().map(|(lo, hi)| (hi - lo).div_ceil(64) * 8).sum();
    rep.set("dstsim.filter_bytes_computed", (bitmap_bytes * RANKS as u64) as f64);
    rep.set("trace.overhead_ratio", median(&traced) / median(&times) - 1.0);
    spans
}

type RankReplay = (Vec<Span>, Option<DenseMatrix<u64>>, Vec<u64>);

/// Replay `similarity_at_scale_distributed`'s per-rank calls inside our
/// own runtime, timing each layer per rank. Returns every rank's spans
/// and gathered output, the per-rank counters, and the decoded-block
/// cache hit ratio summed over ranks.
fn replay_distributed(
    c: &SampleCollection,
    epoch: Instant,
    op: u64,
) -> (Vec<RankReplay>, Vec<CostReport>, f64) {
    let config = config();
    let plan = BatchPlan::from_config(&config, c, RANKS).expect("valid plan");
    let n = c.n();
    let out = Runtime::new(RANKS)
        .with_machine(machine())
        .run(|ctx| {
            let mut rec = Recorder::new(epoch, ctx.rank() as u32, true);
            let world = ctx.world();
            let mut ata = DistAta::new(world, n, config.replication).expect("grid for p ranks");
            let mut acc = ata.new_accumulator();
            let mut card = ata.new_cardinalities();
            let right_cols: Vec<usize> = ata.my_col_range().collect();
            let left_cols: Vec<usize> = ata.my_row_range().collect();
            let same = right_cols == left_cols;
            for (lo, hi) in plan.iter() {
                let batch_rows = (hi - lo) as usize;
                let (right_columns, left_columns) = rec.time("core.indicator.columns", op, || {
                    let right = c.batch_columns(lo, hi, &right_cols);
                    let left =
                        if same { right.clone() } else { c.batch_columns(lo, hi, &left_cols) };
                    (right, left)
                });
                let filter = rec.time("sparse.dist.filter", op, || {
                    let local_rows: Vec<usize> = right_columns.iter().flatten().copied().collect();
                    ctx.add_mem_traffic((local_rows.len() * std::mem::size_of::<u64>()) as u64);
                    dist_row_filter(world, batch_rows, &local_rows).expect("filter allreduce")
                });
                let (left, right) = rec.time("sparse.dist.pack", op, || {
                    let rows = filter.num_nonzero_rows();
                    let right_f = apply_filter(&right_columns, &filter);
                    let right = BitMatrix::from_columns(rows, &right_f).expect("rows in range");
                    let left = if same {
                        right.clone()
                    } else {
                        BitMatrix::from_columns(rows, &apply_filter(&left_columns, &filter))
                            .expect("rows in range")
                    };
                    (left, right)
                });
                rec.time("sparse.dist.ata", op, || {
                    ata.accumulate_batch_keyed(
                        &left,
                        &right,
                        Some(filter.fingerprint()),
                        &mut acc,
                        &mut card,
                    )
                    .expect("SUMMA sweep")
                });
                ctx.record_superstep();
            }
            let full = rec.time("sparse.dist.gather", op, || {
                ata.finalize(&mut acc, &mut card).expect("finalize");
                ata.gather_full(world, &acc).expect("gather")
            });
            (rec.into_spans(), full, card, ata.cache_hits(), ata.cache_misses())
        })
        .expect("simulated run");
    let (hits, misses) = out.results.iter().fold((0, 0), |(h, m), r| (h + r.3, m + r.4));
    let ranks = out.results.into_iter().map(|(s, b, card, _, _)| (s, b, card)).collect();
    (ranks, out.reports, hits as f64 / (hits + misses).max(1) as f64)
}
