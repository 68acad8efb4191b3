//! `perfbench`: the repo benchmark.
//!
//! ```text
//! perfbench --workload <assemble_3d|iterate_2d|service_remesh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics with tracing
//! off; with `--trace 1` it measures every layer from outside (timed calls into
//! each layer's public functions, plus the counters and spans the program emits
//! under `FETI_TRACE`), prints a per-layer self-time table and writes the span
//! records to `<target dir>/perfbench/`.  Every solve of every run is checked by
//! an independent residual test.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod gen;
mod layers;
mod metrics;
mod service_wl;
mod solver_wl;
mod spans;
mod stats;

use gen::Workload;
use std::process::ExitCode;

/// Host threads every workload pins (`FETI_THREADS`).
pub const THREADS: usize = 2;
/// Kernel block size every workload pins (`FETI_BLOCK_SIZE`).  Left to itself the
/// blocked-kernel autotune picks anywhere from 16 to 128 from one process to the
/// next, which moves the dense kernels' speed between runs of the same code.
pub const BLOCK_SIZE: usize = 64;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // Pin the host pool and the kernel blocking before anything reads them; both
    // are read once, on first use.
    std::env::set_var("FETI_THREADS", THREADS.to_string());
    std::env::set_var("FETI_BLOCK_SIZE", BLOCK_SIZE.to_string());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_start = metrics::steal_seconds();
    let conditions = metrics::RunConditions::collect(args.workload, args.seed, args.trace);
    println!("conditions {}", conditions.to_json());

    // The self-check runs first, on every run: the checker must reject a corrupted
    // solution, and the metric names this binary prints must be the ones
    // `BENCHMARK.json` declares.
    let self_check = check::self_check().and_then(|()| metrics::check_declared_names());
    if let Err(e) = &self_check {
        eprintln!("perfbench: self-check failed: {e}");
    }

    let outcome = match args.workload {
        Workload::Assemble3d | Workload::Iterate2d => {
            solver_wl::run(args.workload, args.seed, args.seconds, args.trace)
        }
        Workload::ServiceRemesh => service_wl::run(args.seed, args.seconds, args.trace),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: workload {} aborted: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "summary workload={} seed={} attempted={} failed={} fail_ratio={} steal_s={:.2}",
        args.workload.name(),
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        metrics::steal_seconds() - steal_start
    );
    println!("{}", outcome.result_json(self_check.is_ok(), args.trace));
    ExitCode::SUCCESS
}
