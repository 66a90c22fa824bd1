//! The repository benchmark. One command per workload and seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, runs them through
//! the public API, checks the outputs, and prints one JSON result line
//! last on stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. A full record
//! (every metric, every check, the machine fingerprint) and, when
//! traced, every span go to `results/perfbench/`. See `README.md`.

mod allpairs;
mod gen;
mod lsh;
mod report;
mod serve;
mod trace;

use std::time::Instant;

use report::{median, tail, Report, END_TO_END, PER_LAYER};
use trace::Span;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["allpairs-dense", "genome-kmers", "lsh-query", "serve-mixed"];

/// Set-up repetitions per run: at least [`SETUP_MIN_REPS`], and more
/// while they total under [`SETUP_MIN_SECONDS`] (at most
/// [`SETUP_MAX_REPS`]), so a cheap set-up still gets a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// One run's settings.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Common epoch of every span recorder.
    pub epoch: Instant,
}

impl Ctx {
    /// Budgets of the untraced and the traced phase. A traced run
    /// spends half its time untraced, so the gap between the two
    /// phases is the tracing overhead.
    pub fn phases(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Build the workload's inputs several times, record the median as
/// `setup_s`, and keep the last build.
pub fn setup<T>(rep: &mut Report, mut build: impl FnMut() -> T) -> T {
    let mut times: Vec<f64> = Vec::new();
    let mut built = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    rep.set("setup_s", median(&times));
    built.expect("at least one set-up")
}

/// Run `op` back to back for about `budget` seconds, at least once,
/// and return each call's wall time. A call is not started when the
/// mean so far says it would end past the budget.
pub fn closed_loop(budget: f64, mut op: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean = if times.is_empty() { 0.0 } else { elapsed / times.len() as f64 };
        if !times.is_empty() && elapsed + mean > budget {
            return times;
        }
        let t = Instant::now();
        op(times.len());
        times.push(t.elapsed().as_secs_f64());
    }
}

/// The foreground-operation metrics every workload reports.
pub fn set_op_metrics(rep: &mut Report, seconds: &[f64]) {
    let (pct, tail) = tail(seconds);
    eprintln!("{} foreground operations; op_tail_ms is p{pct}", seconds.len());
    rep.set("op_tail_ms", tail * 1e3);
    rep.set("ops_per_s", seconds.len() as f64 / seconds.iter().sum::<f64>().max(f64::MIN_POSITIVE));
}

/// Set each `(span, metric)` pair to the span's mean self time per
/// operation over `ops` operations (slowest lane per operation).
pub fn set_layer_means(
    rep: &mut Report,
    spans: &[Span],
    ops: usize,
    layers: &[(&str, &'static str)],
) {
    let by_op = trace::self_time_by_op(spans);
    for (span, metric) in layers {
        let total: f64 = by_op.iter().filter(|((name, _), _)| name == span).map(|(_, t)| t).sum();
        rep.set(metric, total / ops.max(1) as f64);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn write_outputs(args: &Args, rep: &Report, spans: &[Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new("results/perfbench");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let header = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    std::fs::write(dir.join(format!("{stem}.json")), rep.record_json(&header))?;
    if args.trace {
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"lane\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}{}\n",
                s.name,
                s.op,
                s.lane,
                report::num(s.start),
                report::num(s.end),
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write(dir.join(format!("{stem}.spans.json")), out)?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace, epoch: Instant::now() };
    let mut rep = Report::default();
    let spans = match args.workload.as_str() {
        "allpairs-dense" => allpairs::dense(&ctx, &mut rep),
        "genome-kmers" => allpairs::genome(&ctx, &mut rep),
        "lsh-query" => lsh::run(&ctx, &mut rep),
        "serve-mixed" => serve::run(&ctx, &mut rep),
        _ => unreachable!("workload validated by parse_args"),
    };
    rep.set("peak_rss_mb", report::peak_rss_mb());
    if args.trace {
        rep.set("trace.spans", spans.len() as f64);
    }
    if let Err(e) = write_outputs(&args, &rep, &spans) {
        eprintln!("perfbench: could not write results/perfbench: {e}");
    }
    println!("{}", rep.result_json(if args.trace { PER_LAYER } else { END_TO_END }));
    if !rep.correct() {
        eprintln!("perfbench: a correctness check failed");
        std::process::exit(1);
    }
}
