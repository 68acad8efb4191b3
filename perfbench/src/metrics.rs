//! Metric declarations, run conditions and the result line.

use crate::gen::Workload;
use crate::THREADS;
use feti_bench::json::{self, Value};

/// End-to-end metrics (tracing off), the same names on every workload.  A *warm*
/// operation is one solve on a preprocessed solver (solver workloads) or one
/// cache-hit job (service).  `ops_per_s` is warm solves per second of their
/// measured wall (solver workloads) or the median over stream passes of jobs
/// per second of the pass (service).  The warm p90 and the cold latency are
/// printed on the `samples` line but not gated: on a shared host one contended
/// spell moves them by more than any bound a gate can hold.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("warm_s.p50", "s"), ("ops_per_s", "1/s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (traced run), the same names on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decompose.build_s", "s"),
    ("core.construct_s", "s"),
    ("solver.factorize_s", "s"),
    ("solver.factor_solve_s", "s"),
    ("dualop.preprocess_s", "s"),
    ("dualop.preprocess.reported_cpu_s", "s"),
    ("gpu.modelled_device_s", "s"),
    ("gpu.sim_overhead_s", "s"),
    ("sparse.trsm_s", "s"),
    ("sparse.trsm.gflop_per_s", "GFLOP/s"),
    ("sparse.trsm.gbyte_per_s", "GB/s"),
    ("sparse.syrk_s", "s"),
    ("sparse.syrk.gflop_per_s", "GFLOP/s"),
    ("sparse.syrk.gbyte_per_s", "GB/s"),
    ("sparse.symv_s", "s"),
    ("sparse.spmv_s", "s"),
    ("dualop.apply_s", "s"),
    ("core.pcpg.iterations", "count"),
    ("core.project_s", "s"),
    ("core.precondition_s", "s"),
    ("core.pcpg.other_s", "s"),
    ("rayon.regions_per_solve.inline", "count"),
    ("rayon.regions_per_solve.persistent", "count"),
    ("planner.plan_s", "s"),
    ("planner.preprocess_pred_log2_err", "log2"),
    ("planner.apply_pred_log2_err", "log2"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The final result line.  Metrics are printed in declaration order; a
    /// declared metric that is missing or not finite makes the run incorrect.
    pub fn result_json(&self, self_check_ok: bool, trace: bool) -> String {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let mut correct = self_check_ok && self.failed == 0 && self.attempted > 0;
        let mut parts = Vec::new();
        for (name, unit) in declared {
            match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.is_finite() => {
                    parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
                }
                _ => {
                    eprintln!("perfbench: metric {name} missing or not finite");
                    correct = false;
                }
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// Checks that the metric names and units declared above are exactly those in
/// `BENCHMARK.json` (read from the working directory, the repo root).
pub fn check_declared_names() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Value::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        let mut listed: Vec<(String, String)> = items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let mut ours: Vec<(String, String)> =
            declared.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect();
        listed.sort();
        ours.sort();
        if listed != ours {
            return Err(format!("{key} in BENCHMARK.json differs from the printed metrics"));
        }
    }
    Ok(())
}

/// Seconds of CPU time the hypervisor gave to others while this machine wanted
/// it (`steal` in `/proc/stat`, all CPUs), since boot.  The difference over a
/// run marks results measured while the host was contended.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            (cpu.first() == Some(&"cpu")).then(|| cpu.get(8)?.parse::<f64>().ok()).flatten()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The conditions a result was measured under, printed before it.
pub struct RunConditions {
    fields: Vec<(&'static str, String)>,
}

impl RunConditions {
    pub fn collect(workload: Workload, seed: u64, trace: bool) -> Self {
        let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
        let commit =
            std::env::var("GIT_COMMIT").ok().or_else(git_head).unwrap_or_else(|| "unknown".into());
        let fields = vec![
            ("workload", format!("\"{}\"", workload.name())),
            ("seed", seed.to_string()),
            ("trace", trace.to_string()),
            ("feti_threads", THREADS.to_string()),
            ("available_parallelism", parallelism.to_string()),
            ("oversubscribed", (THREADS > parallelism).to_string()),
            ("kernel_block_size", feti_sparse::blas::kernel_block_size().to_string()),
            ("commit", format!("\"{commit}\"")),
            ("source_digest", format!("\"{:016x}\"", source_digest())),
        ];
        Self { fields }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn git_head() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the sources of the code under test (`crates/`, `shims/`), so a
/// result names the code it measured even in a checkout that is not a git
/// repository.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
