//! `serve-mixed`: the index service with reads and writes side by side.
//! One open-loop writer commits 64 new samples and 8 deletes at a fixed
//! rate; one closed-loop reader issues paged requests of 8 queries with
//! no rerank. Commit sign/seal, background compaction and admission
//! compete with queries for the cores.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use gas_index::{IndexError, IndexService, LocalIndexService, PageRequest, ServiceStats};

use crate::gen::{self, Rng};
use crate::lsh::{index_options, SHAPE};
use crate::report::{median, percentile, Report};
use crate::trace::{self, Recorder, Span};
use crate::{set_layer_means, set_op_metrics, setup, Ctx};

/// Initial corpus committed in batches of this many samples.
const LOAD_BATCH: usize = 1024;
/// Samples added and deleted by each writer commit.
const ADDS: usize = 64;
const DELETES: usize = 8;
/// Writer commits per second: fixed, and well below what one commit's
/// ≈2 ms sign/seal could sustain.
const COMMIT_RATE: f64 = 20.0;
/// Queries per request and hits per page.
const REQUEST: usize = 8;
const PAGE: usize = 10;
/// Writer samples whose family is drawn up front (far above what a run
/// of up to 600 s needs at [`COMMIT_RATE`]).
const MAX_WRITER_SAMPLES: usize = 1 << 20;

/// The writer's own state: what it generates, and which of its samples
/// are still live (the ones it deletes, oldest first).
struct Writer {
    cores: Vec<Vec<u64>>,
    next: usize,
    rng: Rng,
    live: VecDeque<u32>,
    /// Live samples the service must report.
    expected_live: usize,
}

impl Writer {
    /// The next batch: new members of the families `family` assigns.
    fn batch(&mut self, family: &[u32]) -> Vec<(String, Vec<u64>)> {
        let first = self.next;
        self.next += ADDS;
        (first..self.next)
            .map(|k| {
                let core = &self.cores[family[k] as usize];
                (format!("w{k}"), gen::member(core, SHAPE.private, &mut self.rng))
            })
            .collect()
    }
}

struct Fixture {
    service: LocalIndexService,
    /// The initial corpus; requests draw their queries from it.
    sets: Vec<Vec<u64>>,
    /// Family of writer sample `k` (global id `sets.len() + k`), drawn
    /// up front so the reader can check hits on fresh samples.
    writer_family: Vec<u32>,
    writer: Writer,
}

/// Family of any sample id the run can assign.
fn family_of(sets: usize, writer_family: &[u32], id: u32) -> u32 {
    let id = id as usize;
    if id < sets {
        (id / SHAPE.members) as u32
    } else {
        writer_family[id - sets]
    }
}

fn build(seed: u64) -> Fixture {
    let corpus = gen::corpus(SHAPE, seed);
    // The reader keeps one core busy; the signers get the rest, so the
    // process has at most `nproc` busy threads outside compaction.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service = index_options()
        .with_signer_threads(nproc.saturating_sub(1).max(1))
        .with_auto_compact(true)
        .serve()
        .expect("in-memory service starts");
    for (b, chunk) in corpus.sets.chunks(LOAD_BATCH).enumerate() {
        let batch = chunk
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("s{}", b * LOAD_BATCH + i), s.clone()))
            .collect();
        service.add_batch(batch).expect("stage corpus");
        service.commit_wait().expect("commit corpus");
    }
    let mut fam_rng = Rng::new(seed, 4);
    let writer_family: Vec<u32> =
        (0..MAX_WRITER_SAMPLES).map(|_| fam_rng.below(SHAPE.families as u64) as u32).collect();
    let mut writer = Writer {
        cores: corpus.cores,
        next: 0,
        rng: Rng::new(seed, 5),
        live: VecDeque::new(),
        expected_live: corpus.sets.len() + ADDS,
    };
    // Prime the delete queue with one batch of the writer's own samples.
    let ids = service.add_batch(writer.batch(&writer_family)).expect("stage priming batch");
    writer.live.extend(ids);
    service.commit_wait().expect("commit priming batch");
    // Warm-up ends once background compaction has settled.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut segments = service.stats().segments;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(30));
        let now = service.stats().segments;
        if now == segments {
            break;
        }
        segments = now;
    }
    Fixture { service, sets: corpus.sets, writer_family, writer }
}

/// What one phase of concurrent reads and writes measured.
#[derive(Default)]
struct Phase {
    request_s: Vec<f64>,
    /// Commit latency from when it was due to when it sealed.
    commit_s: Vec<f64>,
    /// How late the writer started each commit.
    lag_s: Vec<f64>,
    request_failed: u64,
    commit_failed: u64,
    shed: u64,
    off_family: usize,
    spans: Vec<Span>,
    counters: [(&'static str, f64); 5],
}

/// One writer commit: stage adds and deletes, submit, wait for the seal.
fn commit_once(
    service: &LocalIndexService,
    w: &mut Writer,
    family: &[u32],
) -> Result<(), IndexError> {
    let ids = service.add_batch(w.batch(family))?;
    let doomed: Vec<u32> = (0..DELETES).filter_map(|_| w.live.pop_front()).collect();
    for &id in &doomed {
        service.delete(id)?;
    }
    service.commit()?.wait()?;
    w.expected_live += ids.len() - doomed.len();
    w.live.extend(ids);
    Ok(())
}

/// Run the writer and the reader side by side for `budget` seconds.
fn phase(f: &mut Fixture, ctx: &Ctx, budget: f64, traced: bool) -> Phase {
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / COMMIT_RATE);
    let Fixture { service, sets, writer_family, writer } = f;
    let (service, sets, writer_family) = (&*service, &*sets, &*writer_family);
    let base = sets.len();
    let mut query_rng = Rng::new(ctx.seed, 6);
    std::thread::scope(|scope| {
        let writes = scope.spawn(|| {
            let mut out = Phase::default();
            let mut rec = Recorder::new(ctx.epoch, 1, traced);
            let mut due = start;
            let mut op = 0;
            while due.duration_since(start).as_secs_f64() < budget {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                out.lag_s.push(due.elapsed().as_secs_f64());
                let span = rec.begin("index.service.commit", op);
                let result = commit_once(service, writer, writer_family);
                rec.end(span);
                out.commit_s.push(due.elapsed().as_secs_f64());
                if let Err(e) = result {
                    out.commit_failed += 1;
                    if matches!(e, IndexError::Overloaded { .. }) {
                        out.shed += 1;
                    } else {
                        eprintln!("commit failed: {e}");
                    }
                }
                op += 1;
                due += interval;
            }
            out.spans = rec.into_spans();
            out
        });
        let mut out = Phase::default();
        let mut rec = Recorder::new(ctx.epoch, 0, traced);
        let mut op = 0;
        let req = PageRequest::new(PAGE).with_rerank(false);
        while start.elapsed().as_secs_f64() < budget {
            let (sources, queries): (Vec<usize>, Vec<Vec<u64>>) =
                (0..REQUEST).map(|_| gen::query(sets.len(), |i| &sets[i], &mut query_rng)).unzip();
            let span = rec.begin("index.service.query", op);
            let t = Instant::now();
            let result = service.query_paged(&queries, &req);
            out.request_s.push(t.elapsed().as_secs_f64());
            rec.end(span);
            op += 1;
            match result {
                Ok(pages) => {
                    let family = |id: u32| family_of(base, writer_family, id);
                    out.off_family += sources
                        .iter()
                        .zip(&pages)
                        .filter(|(&src, page)| {
                            page.hits.first().is_none_or(|h| family(h.id) != family(src as u32))
                        })
                        .count();
                }
                Err(e) => {
                    out.request_failed += 1;
                    if matches!(e, IndexError::Overloaded { .. } | IndexError::StaleCursor { .. }) {
                        out.shed += 1;
                    } else {
                        eprintln!("request failed: {e}");
                    }
                }
            }
        }
        let w = writes.join().expect("writer thread");
        out.commit_s = w.commit_s;
        out.lag_s = w.lag_s;
        out.commit_failed = w.commit_failed;
        out.shed += w.shed;
        out.spans = rec.into_spans();
        trace::merge(&mut out.spans, w.spans);
        out
    })
}

/// Run one phase on `f`, then check and account it: every request's
/// top hit lies in its source family, and the service holds exactly the
/// live samples the writer expects.
fn measured_phase(
    f: &mut Fixture,
    ctx: &Ctx,
    budget: f64,
    traced: bool,
    rep: &mut Report,
) -> Phase {
    let tag = if traced { "traced" } else { "untraced" };
    let before = f.service.stats();
    let mut p = phase(f, ctx, budget, traced);
    let after = f.service.stats();
    rep.ops(p.request_s.len() as u64, p.request_failed);
    rep.ops(p.commit_s.len() as u64, p.commit_failed);
    let answered = (p.request_s.len() as u64 - p.request_failed) as usize * REQUEST;
    rep.check(
        format!("serve.{tag}.top_hit_in_source_family"),
        p.off_family == 0 && answered > 0,
        format!("{} of {answered} queries' top hit is outside the source family", p.off_family),
    );
    rep.check(
        format!("serve.{tag}.live_samples_as_expected"),
        after.live_samples == f.writer.expected_live,
        format!(
            "service reports {}, the writer expects {}",
            after.live_samples, f.writer.expected_live
        ),
    );
    p.counters = counters(&before, &after, p.shed);
    p
}

/// Per-layer service counters over a phase: shed requests, compaction
/// passes, rows written and paused passes, and the final segment count.
fn counters(before: &ServiceStats, after: &ServiceStats, shed: u64) -> [(&'static str, f64); 5] {
    [
        ("index.service.shed", shed as f64),
        ("index.compact.passes", (after.compact.passes - before.compact.passes) as f64),
        (
            "index.compact.rows_written",
            (after.compact.rows_written - before.compact.rows_written) as f64,
        ),
        (
            "index.compact.paused_passes",
            (after.compact.paused_passes - before.compact.paused_passes) as f64,
        ),
        ("index.service.segments_end", after.segments as f64),
    ]
}

/// `serve-mixed`.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Vec<Span> {
    let mut f = setup(rep, || build(ctx.seed));
    let (budget, traced_budget) = ctx.phases();
    let p = measured_phase(&mut f, ctx, budget, false, rep);
    set_op_metrics(rep, &p.request_s);
    rep.set("workload.query_qps", rep.get("ops_per_s").unwrap_or(0.0) * REQUEST as f64);
    rep.set("workload.query_p50_ms", median(&p.request_s) * 1e3);
    rep.set("workload.query_p99_ms", percentile(&p.request_s, 99.0) * 1e3);
    rep.set("workload.commit_p50_ms", median(&p.commit_s) * 1e3);
    rep.set("workload.commit_p99_ms", percentile(&p.commit_s, 99.0) * 1e3);
    rep.set("workload.commit_lag_ms", p.lag_s.iter().copied().fold(0.0, f64::max) * 1e3);
    if !ctx.trace {
        return Vec::new();
    }
    // The traced phase starts from a fresh service, so both phases see
    // the same index state and the gap between them is tracing overhead.
    drop(f);
    let mut f = build(ctx.seed);
    let t = measured_phase(&mut f, ctx, traced_budget, true, rep);
    let spans = &t.spans;
    set_layer_means(
        rep,
        spans,
        t.request_s.len(),
        &[("index.service.query", "index.service.query_s")],
    );
    set_layer_means(
        rep,
        spans,
        t.commit_s.len(),
        &[("index.service.commit", "index.service.commit_s")],
    );
    for (name, value) in t.counters {
        rep.set(name, value);
    }
    rep.set("trace.overhead_ratio", median(&t.request_s) / median(&p.request_s) - 1.0);
    t.spans
}
