//! Performance trajectory at a pinned scale: per-phase wall times of the FETI
//! pipeline plus blocked-vs-scalar kernel comparisons, written as `BENCH_<n>.json` to
//! the current working directory (run it from the repository root, where the recorded
//! files live).  The pinned thread count is recorded next to the machine's available
//! parallelism, so a run that timeshares more threads than cores is visible as such.
//!
//! Unlike the figure binaries (which sweep problem sizes), this binary pins one
//! problem size and one thread count so successive commits produce comparable
//! numbers — a recorded perf trajectory.  The measurement protocol and the JSON
//! schema are documented in `DESIGN.md` (§ "Performance trajectory"); the emitted
//! file is re-read and validated against that schema before the process exits, and
//! any malformed output, schema violation, or missed speedup gate exits nonzero.
//!
//! * `FETI_BENCH_SCALE=quick` shrinks the problem for CI smoke runs and downgrades
//!   the kernel speedup gate to a warning (tiny matrices underuse the blocking).
//! * The default and `full` scales enforce blocked SYRK and TRSM ≥ 2x over the
//!   retained scalar reference kernels, and a ≥ 1.5x modelled assembly-phase speedup
//!   of the sparse-RHS explicit family over the dense explicit family.
//! * Every scale enforces a ≥ 5x cached-vs-cold preprocessing speedup through the
//!   `feti-service` warm-solver cache (the `service` section).
//! * Every scale enforces the `feti-trace` cost gates on the apply microbench
//!   (the `observability` section): the disabled-path overhead must stay ≤ 2%
//!   (analytic: trace-call sites per apply times the measured per-call cost of a
//!   disabled span, over the apply time) and the enabled-path overhead ≤ 10%
//!   (the measured enabled/disabled apply-time ratio).

use feti_bench::json::{parse, validate_perf_trajectory, Value};
use feti_bench::{build_problem, BenchScale};
use feti_core::{build_dual_operator, DualOperatorApproach, PcpgOptions, TotalFetiSolver};
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_sparse::{blas, DenseMatrix, DiagKind, MemoryOrder, Side, Transpose, Triangle};
use std::sync::Arc;
use std::time::Instant;

/// The thread count every trajectory point pins (comparable across machines with at
/// least this many cores; fewer cores simply timeshare).
const PINNED_THREADS: usize = 4;

/// The issue number this trajectory belongs to (names the output file).
const ISSUE: usize = 10;

/// Floor applied to near-zero cached times before forming a speedup ratio: a warm
/// cache checkout can measure as exactly zero at the clock's resolution, and JSON
/// cannot represent the infinite ratio that would produce.
const SPEEDUP_FLOOR_S: f64 = 1e-9;

/// Dense kernel operand size at each scale.
fn kernel_size(scale: BenchScale) -> usize {
    match scale {
        BenchScale::Quick => 96,
        BenchScale::Default => 256,
        BenchScale::Full => 384,
    }
}

/// Elements per subdomain edge of the pinned 3D heat problem at each scale.
fn problem_size(scale: BenchScale) -> usize {
    match scale {
        BenchScale::Quick => 2,
        BenchScale::Default => 3,
        BenchScale::Full => 4,
    }
}

/// Wall time of `f` — one warmup call, then the best of three timed calls (the
/// protocol documented in `DESIGN.md`: best-of filters scheduler noise, the warmup
/// filters one-time effects like lazy initialization and page faults).
fn best_of_three<F: FnMut()>(mut f: F) -> f64 {
    f();
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Deterministic pseudo-random matrix with a boosted diagonal (keeps TRSM and
/// factorizations well conditioned).
fn filled(rows: usize, cols: usize, order: MemoryOrder, seed: usize) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(rows, cols, order);
    let mut state = seed as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for i in 0..rows {
        for j in 0..cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let boost = if i == j { rows as f64 } else { 0.0 };
            a.set(i, j, u - 0.5 + boost);
        }
    }
    a
}

/// Measures one kernel pair and returns its JSON section.
fn kernel_section(name: &str, scalar_s: f64, blocked_s: f64) -> (String, Value, f64) {
    let speedup = scalar_s / blocked_s;
    println!(
        "kernel {name}: scalar {:.6}s, blocked {:.6}s, speedup {:.2}x",
        scalar_s, blocked_s, speedup
    );
    let section = Value::obj(vec![
        ("scalar_baseline_s", Value::Num(scalar_s)),
        ("blocked_s", Value::Num(blocked_s)),
        ("speedup", Value::Num(speedup)),
    ]);
    (name.to_string(), section, speedup)
}

fn measure_kernels(scale: BenchScale) -> (Value, Vec<(String, f64)>) {
    let n = kernel_size(scale);
    let a = filled(n, n, MemoryOrder::RowMajor, 1);
    let b = filled(n, n, MemoryOrder::ColMajor, 2);
    let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) * 0.17 - 1.1).collect();
    let mut speedups = Vec::new();
    let mut sections = Vec::new();

    // SYRK: C = A Aᵀ over the lower triangle.
    let mut c = DenseMatrix::zeros(n, n, MemoryOrder::RowMajor);
    let scalar = best_of_three(|| {
        blas::reference::syrk(Triangle::Lower, Transpose::No, 1.0, &a, 0.0, &mut c)
    });
    let blocked =
        best_of_three(|| blas::syrk(Triangle::Lower, Transpose::No, 1.0, &a, 0.0, &mut c));
    let (name, section, speedup) = kernel_section("syrk", scalar, blocked);
    sections.push((name.clone(), section));
    speedups.push((name, speedup));

    // TRSM: solve L X = B for a full square right-hand side.
    let mut rhs = b.clone();
    let scalar = best_of_three(|| {
        rhs.as_mut_slice().copy_from_slice(b.as_slice());
        blas::reference::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut rhs)
            .expect("boosted diagonal is nonsingular");
    });
    let blocked = best_of_three(|| {
        rhs.as_mut_slice().copy_from_slice(b.as_slice());
        blas::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut rhs)
            .expect("boosted diagonal is nonsingular");
    });
    let (name, section, speedup) = kernel_section("trsm", scalar, blocked);
    sections.push((name.clone(), section));
    speedups.push((name, speedup));

    // SYMM: C = A B with symmetric A (the batched explicit apply shape).
    let nrhs = 32.min(n);
    let bm = filled(n, nrhs, MemoryOrder::ColMajor, 3);
    let mut cm = DenseMatrix::zeros(n, nrhs, MemoryOrder::ColMajor);
    let scalar = best_of_three(|| {
        blas::reference::symm(Side::Left, Triangle::Lower, 1.0, &a, &bm, 0.0, &mut cm)
    });
    let blocked =
        best_of_three(|| blas::symm(Side::Left, Triangle::Lower, 1.0, &a, &bm, 0.0, &mut cm));
    let (name, section, speedup) = kernel_section("symm", scalar, blocked);
    sections.push((name.clone(), section));
    speedups.push((name, speedup));

    // SYMV: y = A x with symmetric A (the explicit apply shape).
    let mut y = vec![0.0; n];
    let scalar = best_of_three(|| blas::reference::symv(Triangle::Upper, 1.0, &a, &x, 0.0, &mut y));
    let blocked = best_of_three(|| blas::symv(Triangle::Upper, 1.0, &a, &x, 0.0, &mut y));
    let (name, section, speedup) = kernel_section("symv", scalar, blocked);
    sections.push((name.clone(), section));
    speedups.push((name, speedup));

    (Value::Obj(sections), speedups)
}

fn measure_phases(problem: &Arc<feti_decompose::DecomposedProblem>) -> Value {
    // Preprocess: operator construction = symbolic analysis of every subdomain.
    let preprocess_s = best_of_three(|| {
        let _ = build_dual_operator(DualOperatorApproach::ExplicitCholmod, problem, None)
            .expect("benchmark problem fits the device");
    });

    // Factor: numeric factorization only (the implicit operator's preprocessing).
    let mut implicit = build_dual_operator(DualOperatorApproach::ImplicitCholmod, problem, None)
        .expect("benchmark problem fits the device");
    let factor_s = best_of_three(|| {
        implicit.preprocess().expect("k_reg is SPD");
    });

    // Assemble: factorization plus dense assembly of every local dual operator.
    let mut explicit = build_dual_operator(DualOperatorApproach::ExplicitCholmod, problem, None)
        .expect("benchmark problem fits the device");
    let assemble_s = best_of_three(|| {
        explicit.preprocess().expect("k_reg is SPD");
    });

    // Apply: one dual-operator application on the assembled operator.
    let p: Vec<f64> = (0..problem.num_lambdas).map(|i| ((i % 17) as f64) * 0.1 - 0.8).collect();
    let mut q = vec![0.0; problem.num_lambdas];
    let apply_s = best_of_three(|| {
        explicit.apply(&p, &mut q);
    });

    // Solve: a full Total FETI solve (PCPG to convergence).  The shared handle is
    // cloned, not the problem, so construction timings measure construction only.
    let solve_s = best_of_three(|| {
        let mut solver = TotalFetiSolver::new(
            Arc::clone(problem),
            DualOperatorApproach::ImplicitCholmod,
            None,
            PcpgOptions::default(),
        )
        .expect("solver construction");
        solver.solve().expect("PCPG converges on the seed problem");
    });

    println!(
        "phases: preprocess {preprocess_s:.6}s, factor {factor_s:.6}s, assemble \
         {assemble_s:.6}s, apply {apply_s:.6}s, solve {solve_s:.6}s"
    );
    Value::obj(vec![
        ("preprocess_s", Value::Num(preprocess_s)),
        ("factor_s", Value::Num(factor_s)),
        ("assemble_s", Value::Num(assemble_s)),
        ("apply_s", Value::Num(apply_s)),
        ("solve_s", Value::Num(solve_s)),
    ])
}

/// Subdomain DOF count at which the assembly kernel pair is priced at each scale.
///
/// The pinned FETI problem's subdomains are tiny — on the modelled device their
/// assembly kernels sit in the launch-overhead-dominated regime, where any kernel
/// improvement drowns in the fixed per-launch cost.  The kernel comparison is
/// therefore evaluated at a paper-scale DOF count (the same decoupling
/// [`kernel_size`] applies to the blocked host kernels), carrying over the pinned
/// problem's *measured* multiplier and boundary-DOF fractions.
fn assembly_size(scale: BenchScale) -> usize {
    match scale {
        BenchScale::Quick => 1024,
        BenchScale::Default => 4096,
        BenchScale::Full => 8192,
    }
}

/// Modelled device time of one subdomain's explicit assembly TRSM/SYRK kernel pair:
/// dense family vs the sparsity-aware sparse-RHS family of arXiv 2509.21037.
///
/// GPU work is accounted by the simulated device's cost model throughout this
/// repository, so the comparison uses the deterministic modelled seconds of the two
/// assembly kernels at the [`assembly_size`] subdomain dimension, with the local
/// multiplier and boundary-DOF counts scaled from the pinned problem's measured
/// per-subdomain averages.  The factor/gluing transfers and the sparse-to-dense
/// conversions are identical between the two families (both execute the SYRK path
/// over a dense factor) and are excluded from the pair.
fn measure_sparse_assembly(
    scale: BenchScale,
    problem: &feti_decompose::DecomposedProblem,
) -> (Value, f64) {
    use feti_gpu::{cost, CudaGeneration, GpuSpec};
    let spec = GpuSpec::a100_40gb();
    let generation = CudaGeneration::Legacy;
    let nsub = problem.subdomains.len() as f64;
    let lambda_fraction = problem
        .subdomains
        .iter()
        .map(|sd| sd.num_local_lambdas() as f64 / sd.num_dofs() as f64)
        .sum::<f64>()
        / nsub;
    let boundary_fraction = problem
        .subdomains
        .iter()
        .map(|sd| sd.gluing.num_nonzero_cols() as f64 / sd.num_dofs() as f64)
        .sum::<f64>()
        / nsub;
    let n = assembly_size(scale);
    let nl = (n as f64 * lambda_fraction).round() as usize;
    let nb = (n as f64 * boundary_fraction).round() as usize;
    let dense_s = cost::dense_trsm(&spec, n, nl).seconds + cost::syrk(&spec, nl, n).seconds;
    let sparse_s = cost::sparse_rhs_trsm(&spec, generation, n, nl, nb).seconds
        + cost::boundary_syrk(&spec, generation, nl, n, nb).seconds;
    let speedup = dense_s / sparse_s;
    println!(
        "sparse assembly (n {n}, nl {nl}, nb {nb}): dense {dense_s:.6}s, sparse {sparse_s:.6}s, \
         speedup {speedup:.2}x (boundary fraction {boundary_fraction:.2})"
    );
    let section = Value::obj(vec![
        ("dofs", Value::Num(n as f64)),
        ("local_lambdas", Value::Num(nl as f64)),
        ("boundary_dofs", Value::Num(nb as f64)),
        ("dense_assemble_s", Value::Num(dense_s)),
        ("sparse_assemble_s", Value::Num(sparse_s)),
        ("speedup", Value::Num(speedup)),
        ("boundary_fraction", Value::Num(boundary_fraction)),
    ]);
    (section, speedup)
}

/// Cold-vs-cached solver-service latency: the same geometry is submitted once cold
/// and then three more times against the warm plan + factor cache; the cached
/// numbers are the best of the three repeats (same best-of protocol as the kernel
/// timings).  Returns the JSON section and the cached-preprocess speedup the ≥ 5x
/// gate checks.
fn measure_service(problem: &Arc<feti_decompose::DecomposedProblem>) -> (Value, f64) {
    use feti_service::{CacheOutcome, FetiService, JobSpec, ServiceConfig};

    let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let run = || {
        let start = Instant::now();
        let report = service
            .submit(JobSpec::new("trajectory", Arc::clone(problem)))
            .expect("the pinned problem passes admission")
            .wait()
            .expect("the pinned problem solves");
        (report, start.elapsed().as_secs_f64())
    };

    let (cold, cold_latency_s) = run();
    assert_eq!(cold.cache, CacheOutcome::Miss, "first service job must build cold");
    let mut cached_preprocess_s = f64::INFINITY;
    let mut cached_latency_s = f64::INFINITY;
    for _ in 0..3 {
        let (warm, latency) = run();
        assert_eq!(warm.cache, CacheOutcome::Hit, "repeat jobs must hit the warm cache");
        cached_preprocess_s = cached_preprocess_s.min(warm.preprocess_seconds);
        cached_latency_s = cached_latency_s.min(latency);
    }
    let stats = service.shutdown().expect("clean service shutdown");

    let preprocess_speedup = cold.preprocess_seconds / cached_preprocess_s.max(SPEEDUP_FLOOR_S);
    let latency_speedup = cold_latency_s / cached_latency_s.max(SPEEDUP_FLOOR_S);
    println!(
        "service: cold preprocess {:.6}s / latency {cold_latency_s:.6}s, cached preprocess \
         {cached_preprocess_s:.6}s / latency {cached_latency_s:.6}s, preprocess speedup \
         {preprocess_speedup:.1}x",
        cold.preprocess_seconds
    );
    let section = Value::obj(vec![
        ("jobs", Value::Num(stats.jobs_completed as f64)),
        ("cache_hits", Value::Num(stats.cache_hits as f64)),
        ("cache_misses", Value::Num(stats.cache_misses as f64)),
        ("cold_preprocess_s", Value::Num(cold.preprocess_seconds)),
        ("cached_preprocess_s", Value::Num(cached_preprocess_s)),
        ("preprocess_speedup", Value::Num(preprocess_speedup)),
        ("cold_latency_s", Value::Num(cold_latency_s)),
        ("cached_latency_s", Value::Num(cached_latency_s)),
        ("latency_speedup", Value::Num(latency_speedup)),
    ]);
    (section, preprocess_speedup)
}

/// Applications per timed call of the tracing-overhead microbench (amortizes the
/// clock resolution and any per-call jitter over many applies).
const OBS_APPLIES_PER_CALL: usize = 32;

/// Interleaved disabled/enabled measurement rounds of the tracing-overhead
/// microbench (each round times one batch per side back to back).
const OBS_ROUNDS: usize = 5;

/// Disabled-span probe calls per timed call: enough that the per-call cost of the
/// relaxed-atomic early-out is resolvable against the clock.
const OBS_PROBE_CALLS: usize = 1_000_000;

/// Cost of the `feti-trace` layer on the apply microbench.
///
/// Two numbers, two gates:
///
/// * `enabled_overhead` — the measured enabled/disabled apply-time ratio minus one
///   (clamped at zero; both sides carry noise).  The two sides are timed as
///   *interleaved* [`OBS_APPLIES_PER_CALL`]-apply batches (disabled, enabled,
///   disabled, enabled, ...) with the best batch kept per side, so a sustained
///   slow window of the machine hits both sides instead of skewing the ratio.
/// * `disabled_overhead` — analytic, so it stays meaningful even when the real
///   disabled cost (a relaxed atomic load per trace-call site) is far below timing
///   noise: the number of trace events one apply emits when enabled (every one of
///   those sites takes the early-out branch when disabled) times the measured
///   per-call cost of a disabled [`feti_trace::span`], over the disabled apply time.
///
/// Returns the JSON section plus the two overheads the gates check.
fn measure_observability(problem: &Arc<feti_decompose::DecomposedProblem>) -> (Value, f64, f64) {
    assert!(!feti_trace::enabled(), "tracing must start disabled for the baseline");
    let mut op = build_dual_operator(DualOperatorApproach::ExplicitCholmod, problem, None)
        .expect("benchmark problem fits the device");
    op.preprocess().expect("k_reg is SPD");
    let p: Vec<f64> = (0..problem.num_lambdas).map(|i| ((i % 17) as f64) * 0.1 - 0.8).collect();
    let mut q = vec![0.0; problem.num_lambdas];

    let mut batch = |op: &mut Box<dyn feti_core::DualOperator>| {
        let start = Instant::now();
        for _ in 0..OBS_APPLIES_PER_CALL {
            op.apply(&p, &mut q);
        }
        start.elapsed().as_secs_f64() / OBS_APPLIES_PER_CALL as f64
    };
    // Warm up both sides, then alternate timed batches and keep the best per side.
    batch(&mut op);
    feti_trace::set_enabled(true);
    batch(&mut op);
    let mut apply_disabled_s = f64::INFINITY;
    let mut apply_enabled_s = f64::INFINITY;
    for _ in 0..OBS_ROUNDS {
        feti_trace::set_enabled(false);
        apply_disabled_s = apply_disabled_s.min(batch(&mut op));
        feti_trace::set_enabled(true);
        apply_enabled_s = apply_enabled_s.min(batch(&mut op));
    }

    // Count the trace events one apply emits: spans, device ops, counter increments
    // and histogram records.  Each corresponds to one call site that takes the
    // early-out branch when tracing is disabled.
    feti_trace::clear();
    op.apply(&p, &mut q);
    let report = feti_trace::take_report();
    feti_trace::set_enabled(false);
    let events_per_apply = (report.spans.len()
        + report.device_ops.len()
        + report.counters.iter().map(|&(_, v)| v as usize).sum::<usize>()
        + report.histograms.iter().map(|(_, h)| h.count as usize).sum::<usize>())
        as f64;

    // Per-call cost of a disabled span: the guard is constructed and dropped but the
    // name closure never runs and nothing is recorded.  black_box keeps the
    // optimizer from hoisting the (relaxed, data-independent) enabled check.
    let disabled_probe_s = best_of_three(|| {
        for _ in 0..OBS_PROBE_CALLS {
            let guard = feti_trace::span(|| "probe");
            std::hint::black_box(&guard);
        }
    }) / OBS_PROBE_CALLS as f64;

    let enabled_overhead = (apply_enabled_s / apply_disabled_s.max(SPEEDUP_FLOOR_S) - 1.0).max(0.0);
    let disabled_overhead =
        events_per_apply * disabled_probe_s / apply_disabled_s.max(SPEEDUP_FLOOR_S);
    println!(
        "observability: apply disabled {apply_disabled_s:.9}s vs enabled {apply_enabled_s:.9}s \
         ({:.2}% overhead); {events_per_apply} events/apply at {disabled_probe_s:.2e}s per \
         disabled span ({:.4}% disabled overhead)",
        enabled_overhead * 100.0,
        disabled_overhead * 100.0
    );
    let section = Value::obj(vec![
        ("applies_per_call", Value::Num(OBS_APPLIES_PER_CALL as f64)),
        ("apply_disabled_s", Value::Num(apply_disabled_s)),
        ("apply_enabled_s", Value::Num(apply_enabled_s)),
        ("enabled_overhead", Value::Num(enabled_overhead)),
        ("events_per_apply", Value::Num(events_per_apply)),
        ("disabled_probe_s", Value::Num(disabled_probe_s)),
        ("disabled_overhead", Value::Num(disabled_overhead)),
    ]);
    (section, disabled_overhead, enabled_overhead)
}

fn fail(message: &str) -> ! {
    eprintln!("perf_trajectory: {message}");
    std::process::exit(1);
}

fn main() {
    let scale = BenchScale::from_env();
    let scale_name = match scale {
        BenchScale::Quick => "quick",
        BenchScale::Default => "default",
        BenchScale::Full => "full",
    };
    let available_parallelism =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let oversubscribed = PINNED_THREADS > available_parallelism;
    println!(
        "perf trajectory: scale {scale_name}, {PINNED_THREADS} pinned threads on \
         {available_parallelism} available{}",
        if oversubscribed { " (oversubscribed)" } else { "" }
    );

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(PINNED_THREADS)
        .build()
        .expect("thread pool construction");

    let problem = Arc::new(build_problem(
        Dim::Three,
        Physics::HeatTransfer,
        ElementOrder::Quadratic,
        problem_size(scale),
    ));
    println!(
        "problem: heat 3D quadratic, {} dofs/subdomain, {} subdomains, {} lambdas",
        problem.spec.dofs_per_subdomain(),
        problem.subdomains.len(),
        problem.num_lambdas
    );

    let (
        (kernels, speedups),
        phases,
        (sparse_assembly, sparse_speedup),
        (observability, disabled_overhead, enabled_overhead),
    ) = pool.install(|| {
        (
            measure_kernels(scale),
            measure_phases(&problem),
            measure_sparse_assembly(scale, &problem),
            measure_observability(&problem),
        )
    });

    // The service spawns its own worker threads (which in turn use the process-wide
    // pool), so it is measured outside the pinned pool's install scope.
    let (service_section, service_speedup) = measure_service(&problem);

    let doc = Value::obj(vec![
        ("bench", Value::Str("perf_trajectory".to_string())),
        ("issue", Value::Num(ISSUE as f64)),
        ("scale", Value::Str(scale_name.to_string())),
        ("threads", Value::Num(PINNED_THREADS as f64)),
        ("available_parallelism", Value::Num(available_parallelism as f64)),
        ("oversubscribed", Value::Bool(oversubscribed)),
        (
            "problem",
            Value::obj(vec![
                ("dim", Value::Num(3.0)),
                ("physics", Value::Str("heat_transfer".to_string())),
                ("order", Value::Str("quadratic".to_string())),
                ("elements_per_subdomain_side", Value::Num(problem_size(scale) as f64)),
                ("dofs_per_subdomain", Value::Num(problem.spec.dofs_per_subdomain() as f64)),
                ("num_subdomains", Value::Num(problem.subdomains.len() as f64)),
                ("num_lambdas", Value::Num(problem.num_lambdas as f64)),
            ]),
        ),
        ("phases", phases),
        ("kernels", kernels),
        ("sparse_assembly", sparse_assembly),
        ("service", service_section),
        ("observability", observability),
    ]);

    // Relative to the working directory, not the build: a `target/` copied elsewhere
    // must not write into the checkout it was built from.
    let path = "BENCH_10.json";
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        fail(&format!("cannot write {path}: {e}"));
    }

    // Self-validation: re-read the artifact and check it against the documented
    // schema; a bench binary must never exit zero with malformed output on disk.
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot re-read {path}: {e}")),
    };
    let reread = match parse(&text) {
        Ok(v) => v,
        Err(e) => fail(&format!("emitted invalid JSON: {e}")),
    };
    if reread != doc {
        fail("emitted JSON does not round-trip to the in-memory document");
    }
    if let Err(e) = validate_perf_trajectory(&reread) {
        fail(&format!("emitted JSON violates the documented schema: {e}"));
    }

    // Speedup gate: the blocked BLAS-3 kernels must beat the scalar references at
    // the pinned scale.  Tiny quick-mode matrices underuse the blocking, so the CI
    // smoke run only warns.
    for (name, speedup) in &speedups {
        if matches!(name.as_str(), "syrk" | "trsm") && *speedup < 2.0 {
            let message = format!("blocked {name} speedup {speedup:.2}x is below the 2x gate");
            if scale == BenchScale::Quick {
                println!("warning ({scale_name} scale): {message}");
            } else {
                fail(&message);
            }
        }
    }

    // Sparse-assembly gate: the boundary-restricted family must beat the dense
    // explicit assembly by at least 1.5x at the pinned scale.  The quick-mode problem
    // has a larger boundary fraction, so the CI smoke run only warns.
    if sparse_speedup < 1.5 {
        let message =
            format!("sparse-RHS assembly speedup {sparse_speedup:.2}x is below the 1.5x gate");
        if scale == BenchScale::Quick {
            println!("warning ({scale_name} scale): {message}");
        } else {
            fail(&message);
        }
    }

    // Service gate: checking a warm solver out of the cache must be at least 5x
    // cheaper than cold preprocessing, at every scale — the whole point of the
    // plan + factor cache is skipping factorization and assembly outright.
    if service_speedup < 5.0 {
        fail(&format!(
            "cached service preprocessing speedup {service_speedup:.2}x is below the 5x gate"
        ));
    }

    // Observability gates: tracing must be free when off and cheap when on, at
    // every scale.  The disabled gate is analytic (call sites times the measured
    // cost of one disabled span), so it holds even when the real cost is below
    // timing noise; the enabled gate is the measured apply-time ratio.
    if disabled_overhead > 0.02 {
        fail(&format!(
            "disabled-tracing overhead {:.3}% on the apply microbench exceeds the 2% gate",
            disabled_overhead * 100.0
        ));
    }
    if enabled_overhead > 0.10 {
        fail(&format!(
            "enabled-tracing overhead {:.2}% on the apply microbench exceeds the 10% gate",
            enabled_overhead * 100.0
        ));
    }

    println!("wrote {path}");
}
