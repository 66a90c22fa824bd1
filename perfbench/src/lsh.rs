//! `lsh-query`: the sketch index in the sparse-candidate regime, served
//! single-rank by one closed-loop client and, for the same query
//! batches, band- and signature-sharded at p = 2.

use std::time::Instant;

use gas_core::minhash::SignerKind;
use gas_core::SampleCollection;
use gas_dstsim::{CostReport, Machine, Runtime};
use gas_index::query::exact_scores_popcount;
use gas_index::{
    dist_query_reader_batch_stats, exact_top_k, DistQueryStats, IndexOptions, Neighbor,
    QueryEngine, QueryOptions, SketchIndex,
};

use crate::gen::{self, CorpusShape, Rng};
use crate::report::{median, percentile, Report};
use crate::trace::{Recorder, Span};
use crate::{closed_loop, set_layer_means, set_op_metrics, setup, Ctx};

/// 1024 families × 16 members: a 900-value core plus 120 private values.
pub const SHAPE: CorpusShape = CorpusShape { families: 1024, members: 16, core: 900, private: 120 };
/// Queries per block; each block is served single-rank query by query,
/// and every [`DIST_EVERY`]-th block also as one sharded batch, so the
/// single-rank client gets most of the measured time.
const BLOCK: usize = 256;
const DIST_EVERY: usize = 4;
const RANKS: usize = 2;
/// Queries whose reranked answers are scored against brute force.
const RECALL_QUERIES: usize = 16;
/// The stated recall floor: lower fails the run.
const RECALL_FLOOR: f64 = 0.9;
/// Single-rank answers re-derived layer by layer in the traced phase.
const REPLAY_CHECKED: usize = 32;

/// The index configuration shared with `serve-mixed`: OPH signatures of
/// length 256 banded for a 0.5 Jaccard threshold.
pub fn index_options() -> IndexOptions {
    IndexOptions::new().with_signer(SignerKind::Oph).with_signature_len(256).with_threshold(0.5)
}

fn query_options() -> QueryOptions {
    QueryOptions { top_k: 10, oversample: 3, rerank_exact: true }
}

struct Fixture {
    collection: SampleCollection,
    index: SketchIndex,
}

fn build(seed: u64) -> Fixture {
    let corpus = gen::corpus(SHAPE, seed);
    let collection =
        SampleCollection::from_sorted_sets(corpus.sets).expect("generated sets are sorted");
    let index = index_options().build_index(&collection).expect("index builds");
    Fixture { collection, index }
}

fn next_block(f: &Fixture, rng: &mut Rng) -> Vec<Vec<u64>> {
    let c = &f.collection;
    (0..BLOCK).map(|_| gen::query(c.n(), |i| c.sample(i), rng).1).collect()
}

type DistOutcome = (Vec<Vec<Neighbor>>, Vec<DistQueryStats>, Vec<CostReport>);

/// One sharded batch at `ranks`: rank 0's answers, every rank's stats
/// and counters.
fn dist_batch(f: &Fixture, ranks: usize, block: &[Vec<u64>]) -> Result<DistOutcome, String> {
    let reader = f.index.as_reader();
    let out = Runtime::new(ranks)
        .with_machine(Machine::stampede2_knl())
        .run(|ctx| {
            let queries = (ctx.rank() == 0).then_some(block);
            dist_query_reader_batch_stats(
                ctx.world(),
                &reader,
                Some(&f.collection),
                queries,
                &query_options(),
            )
        })
        .map_err(|e| e.to_string())?;
    let mut answers = None;
    let mut stats = Vec::with_capacity(ranks);
    for r in out.results {
        let (a, s) = r.map_err(|e| e.to_string())?;
        answers.get_or_insert(a);
        stats.push(s);
    }
    Ok((answers.expect("at least one rank"), stats, out.reports))
}

/// Share of the returned top-10 whose exact Jaccard reaches the true
/// 10th-best (ties at the cut count as hits).
fn recall_at_10(c: &SampleCollection, query: &[u64], answer: &[Neighbor]) -> f64 {
    let exact = exact_top_k(c, query, 10);
    let cut = exact.last().map_or(0.0, |n| n.score);
    answer.iter().filter(|n| n.score >= cut - 1e-12).count() as f64 / exact.len().max(1) as f64
}

/// `lsh-query`.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Vec<Span> {
    let f = setup(rep, || build(ctx.seed));
    let engine = QueryEngine::with_collection(&f.index, &f.collection);
    let model = Machine::stampede2_knl().cost_model().expect("preset machine is valid");
    let (budget, traced_budget) = ctx.phases();
    let mut rng = Rng::new(ctx.seed, 3);

    let mut query_times = Vec::new();
    let mut dist_times = Vec::new();
    let mut modeled = Vec::new();
    let (mut failed, mut dist_failed, mut dist_mismatch) = (0u64, 0u64, 0usize);
    let mut recall = Vec::new();
    closed_loop(budget, |b| {
        let block = next_block(&f, &mut rng);
        let mut answers = Vec::with_capacity(BLOCK);
        for q in &block {
            let t = Instant::now();
            let a = engine.query(q, &query_options());
            query_times.push(t.elapsed().as_secs_f64());
            match a {
                Ok(a) => answers.push(a),
                Err(e) => {
                    eprintln!("query failed: {e}");
                    failed += 1;
                    answers.push(Vec::new());
                }
            }
        }
        if b % DIST_EVERY == 0 {
            let t = Instant::now();
            let dist = dist_batch(&f, RANKS, &block);
            dist_times.push(t.elapsed().as_secs_f64());
            match dist {
                Ok((dist_answers, _, reports)) => {
                    modeled.push(model.project(&reports));
                    dist_mismatch +=
                        dist_answers.iter().zip(&answers).filter(|(d, s)| d != s).count();
                }
                Err(e) => {
                    eprintln!("sharded batch failed: {e}");
                    dist_failed += 1;
                }
            }
        }
        for (q, a) in block.iter().zip(&answers).take(RECALL_QUERIES.saturating_sub(recall.len())) {
            recall.push((q.clone(), a.clone()));
        }
    });
    rep.ops(query_times.len() as u64, failed);
    rep.ops(dist_times.len() as u64, dist_failed);
    rep.check(
        "lsh.p2_answers_identical_to_single_rank",
        dist_failed == 0 && dist_mismatch == 0,
        format!(
            "{dist_mismatch} of {} queries differ, {dist_failed} batches failed",
            dist_times.len() * BLOCK
        ),
    );
    let recall: Vec<f64> = recall.iter().map(|(q, a)| recall_at_10(&f.collection, q, a)).collect();
    let recall = recall.iter().sum::<f64>() / recall.len().max(1) as f64;
    rep.check(
        "lsh.recall_at_10_floor",
        recall >= RECALL_FLOOR,
        format!("recall@10 {recall:.4} over {RECALL_QUERIES} queries, floor {RECALL_FLOOR}"),
    );
    set_op_metrics(rep, &query_times);
    rep.set("workload.query_qps", rep.get("ops_per_s").unwrap_or(0.0));
    rep.set("workload.query_p50_ms", median(&query_times) * 1e3);
    rep.set("workload.query_p99_ms", percentile(&query_times, 99.0) * 1e3);
    rep.set(
        "workload.dist_query_qps",
        (dist_times.len() * BLOCK) as f64 / dist_times.iter().sum::<f64>(),
    );
    rep.set("workload.modeled_s", median(&modeled));
    rep.set("workload.recall_at_10", recall);
    if !ctx.trace {
        return Vec::new();
    }

    let scheme = *f.index.scheme();
    let pool = QueryOptions { top_k: query_options().keep(), oversample: 1, rerank_exact: false };
    let mut rec = Recorder::new(ctx.epoch, RANKS as u32, true);
    let mut op = 0u64;
    let (mut queries, mut candidates, mut replay_mismatch) = (0usize, 0usize, 0usize);
    let mut batches: Vec<(u64, Vec<DistQueryStats>)> = Vec::new();
    let mut p4: Option<Vec<DistQueryStats>> = None;
    let traced_blocks = closed_loop(traced_budget, |_| {
        let block = next_block(&f, &mut rng);
        let mut answers = Vec::with_capacity(BLOCK);
        for q in &block {
            let query = rec.begin("index.query", op);
            let sig = rec.time("core.minhash.sign", op, || scheme.sign(q));
            let hits = rec.time("index.query.probe_score", op, || {
                engine.query_presigned(&scheme, &sig, &pool).expect("signed with the index scheme")
            });
            let answer = rec.time("index.query.rerank", op, || {
                let ids: Vec<u32> = hits.iter().map(|n| n.id).collect();
                let exact = exact_scores_popcount(&f.collection, q, &ids).expect("ids in range");
                let mut ranked: Vec<Neighbor> =
                    hits.iter().zip(exact).map(|(n, score)| Neighbor { score, ..*n }).collect();
                ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
                ranked.truncate(10);
                ranked
            });
            rec.end(query);
            candidates += rec.time("bench.accounting", op, || f.index.candidates(&sig).len());
            if queries < REPLAY_CHECKED {
                let direct = engine.query(q, &query_options()).expect("query succeeds");
                replay_mismatch += usize::from(direct != answer);
            }
            answers.push(answer);
            queries += 1;
            op += 1;
        }
        let batch = rec.begin("index.dist.batch", op);
        let (_, stats, _) = dist_batch(&f, RANKS, &block).expect("sharded batch");
        rec.end(batch);
        batches.push((op, stats));
        op += 1;
        if p4.is_none() {
            let (a4, s4, _) = dist_batch(&f, 4, &block).expect("sharded batch at p = 4");
            rep.check(
                "lsh.p4_answers_identical_to_single_rank",
                a4 == answers,
                "first traced batch at p = 4",
            );
            p4 = Some(s4);
        }
    });
    rep.ops((queries + traced_blocks.len()) as u64, 0);
    rep.check(
        "lsh.traced_replay_matches_engine",
        replay_mismatch == 0,
        format!("{replay_mismatch} of {REPLAY_CHECKED} layer-by-layer answers differ from QueryEngine::query"),
    );
    let spans = rec.into_spans();
    set_layer_means(
        rep,
        &spans,
        queries,
        &[
            ("core.minhash.sign", "core.minhash.sign_s"),
            ("index.query.probe_score", "index.query.probe_score_s"),
            ("index.query.rerank", "index.query.rerank_s"),
        ],
    );
    set_layer_means(rep, &spans, batches.len(), &[("index.dist.batch", "index.dist.batch_s")]);
    rep.set("index.query.candidates", candidates as f64 / queries.max(1) as f64);
    let per_batch = |f: fn(&DistQueryStats) -> usize| {
        let maxes: Vec<f64> =
            batches.iter().map(|(_, s)| s.iter().map(f).max().unwrap_or(0) as f64).collect();
        maxes.iter().sum::<f64>() / maxes.len().max(1) as f64
    };
    rep.set("index.dist.bcast_bytes", per_batch(|s| s.bcast_bytes));
    rep.set("index.dist.request_bytes", per_batch(|s| s.request_bytes));
    rep.set("index.dist.fetch_bytes", per_batch(|s| s.fetch_bytes));
    rep.set("index.dist.merge_bytes", per_batch(|s| s.merge_bytes));
    rep.set("index.dist.wire_bytes", per_batch(|s| s.wire_bytes()));
    rep.set("index.dist.collectives", per_batch(|s| s.collective_calls));
    rep.set("index.dist.fetched_rows", per_batch(|s| s.fetched_rows));
    let p4 = p4.expect("one traced block");
    rep.set(
        "index.dist.p4.fetch_bytes",
        p4.iter().map(|s| s.fetch_bytes).max().unwrap_or(0) as f64,
    );
    rep.set(
        "index.dist.p4.wire_bytes",
        p4.iter().map(|s| s.wire_bytes()).max().unwrap_or(0) as f64,
    );
    let traced_query: Vec<f64> =
        spans.iter().filter(|s| s.name == "index.query").map(|s| s.duration()).collect();
    rep.set("trace.overhead_ratio", median(&traced_query) / median(&query_times) - 1.0);
    spans
}
