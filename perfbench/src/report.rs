//! Metric table, correctness checks, operation accounting, the machine
//! fingerprint and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them with
/// tracing off. "op" is the workload's foreground operation (see
/// `README.md`): an all-pairs pass, a served query or a paged request.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_tail_ms", "ms"), ("ops_per_s", "1/s")];

/// Per-layer metrics of the traced run, named by module. A layer a
/// workload never calls reports 0 there. Times are mean self seconds per
/// foreground operation (per batch for `index.dist.*`, per commit or
/// request for `index.service.*`); counts are per operation, maximum
/// over simulated ranks where ranks exist.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("genomics.kmer.extract_s", "s"),
    ("genomics.kmer.distinct", "count"),
    ("core.indicator.columns_s", "s"),
    ("core.mask.prepare_s", "s"),
    ("core.filter.kept_ratio", "ratio"),
    ("core.mask.words", "count"),
    ("core.jaccard.reduce_s", "s"),
    ("sparse.bitmat.to_csr_s", "s"),
    ("sparse.spgemm.ata_s", "s"),
    ("sparse.spgemm.word_ops", "count"),
    ("sparse.dist.filter_s", "s"),
    ("sparse.dist.pack_s", "s"),
    ("sparse.dist.ata_s", "s"),
    ("sparse.dist.gather_s", "s"),
    ("sparse.dist.cache_hit_ratio", "ratio"),
    ("dstsim.bytes_sent", "bytes"),
    ("dstsim.bytes_received", "bytes"),
    ("dstsim.collectives", "count"),
    ("dstsim.supersteps", "count"),
    ("dstsim.flops", "count"),
    ("dstsim.filter_bytes_computed", "bytes"),
    ("core.minhash.sign_s", "s"),
    ("index.query.probe_score_s", "s"),
    ("index.query.rerank_s", "s"),
    ("index.query.candidates", "count"),
    ("index.dist.bcast_bytes", "bytes"),
    ("index.dist.request_bytes", "bytes"),
    ("index.dist.fetch_bytes", "bytes"),
    ("index.dist.merge_bytes", "bytes"),
    ("index.dist.wire_bytes", "bytes"),
    ("index.dist.collectives", "count"),
    ("index.dist.fetched_rows", "count"),
    ("index.dist.batch_s", "s"),
    ("index.dist.p4.fetch_bytes", "bytes"),
    ("index.dist.p4.wire_bytes", "bytes"),
    ("index.service.commit_s", "s"),
    ("index.service.query_s", "s"),
    ("index.service.shed", "count"),
    ("index.compact.passes", "count"),
    ("index.compact.rows_written", "count"),
    ("index.compact.paused_passes", "count"),
    ("index.service.segments_end", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("workload.allpairs_s", "s"),
    ("workload.modeled_s", "s"),
    ("workload.query_qps", "1/s"),
    ("workload.query_p50_ms", "ms"),
    ("workload.query_p99_ms", "ms"),
    ("workload.dist_query_qps", "1/s"),
    ("workload.recall_at_10", "ratio"),
    ("workload.commit_p50_ms", "ms"),
    ("workload.commit_p99_ms", "ms"),
    ("workload.commit_lag_ms", "ms"),
];

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool, String)>,
    /// Operations attempted (passes, queries, requests, commits, batches).
    pub attempted: u64,
    /// Operations that returned an error, were shed or went stale.
    pub failed: u64,
}

impl Report {
    /// Set a metric. Names must appear in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A metric set earlier in the run.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record one correctness check. Checks never panic: every check
    /// is reported, and the run fails at the end if any did not hold.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        let (name, detail) = (name.into(), detail.into());
        eprintln!("check {name}: {} ({detail})", if ok { "ok" } else { "FAILED" });
        self.checks.push((name, ok, detail));
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Whether every check held (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The result line: `table`'s metrics, 0 for any the workload did
    /// not set.
    pub fn result_json(&self, table: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The full record written next to the result: every metric set,
    /// every check and the machine fingerprint.
    pub fn record_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {},", quote(v));
        }
        out.push_str("  \"fingerprint\": {");
        for (i, (k, v)) in fingerprint().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {}", quote(v));
        }
        out.push_str("},\n  \"checks\": [");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                quote(name),
                quote(detail)
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {}", num(*value));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// A JSON number with every digit Rust prints (finite values only).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if pct == 50.0 && v.len().is_multiple_of(2) {
        return (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it, and that percentile of `xs`; the median when no such
/// percentile exists (fewer than 40 samples).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let pct = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, percentile(xs, pct))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` directly (a checkout without one reports `unknown`).
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Machine fingerprint recorded with every result: cores, CPU model,
/// cache sizes, compiler and revision.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}")).ok().map(|s| s.trim().to_string())
        };
        if let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size")) {
            caches.push(format!("L{level} {kind} {size}"));
        }
    }
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", model),
        ("caches", caches.join(", ")),
        ("rustc", command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ("git_revision", git_revision()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_metric_names_are_valid_and_match_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names = names_in(&json, key);
            for name in &names {
                assert!(valid_name(name), "{key} metric {name:?} is not [A-Za-z0-9_.-]+");
            }
            let code: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names, code, "{key} in BENCHMARK.json and the code disagree");
        }
        for name in names_in(&json, "workloads") {
            assert!(valid_name(&name), "workload {name:?}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(median(&xs), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(tail(&xs), (95.0, 190.0), "200 samples: p99 has only 2 beyond it");
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 990.0));
        assert_eq!(tail(&[4.0, 1.0, 3.0, 2.0]), (50.0, 2.5), "a few passes: the median");
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let mut r = Report::default();
        r.set("setup_s", 0.25);
        r.check("x", true, "");
        r.ops(3, 1);
        let line = r.result_json(END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
