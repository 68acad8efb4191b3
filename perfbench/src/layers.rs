//! Per-layer measurement from outside: timed calls into each layer's public
//! functions on a prepared geometry, and the per-layer self-time table.

use crate::gen::{self, stream};
use crate::stats::{median, timed};
use crate::{check, spans};
use feti_core::{
    build_dual_operator, DualOperator, DualOperatorApproach, ExplicitAssemblyParams, PcpgOptions,
    Plan, Planner, TimeBreakdown, TotalFetiSolver,
};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_gpu::GpuSpec;
use feti_solver::{CholeskyFactor, SolverOptions};
use feti_sparse::{blas, ops, DenseMatrix, DiagKind, MemoryOrder, Transpose, Triangle};
use std::sync::Arc;

/// Amortization horizon used for planning (the service's default).
pub const EXPECTED_ITERATIONS: usize = 200;

/// How a geometry's dual-operator approach is chosen.
#[derive(Debug, Clone, Copy)]
pub enum Choice {
    Pinned(DualOperatorApproach),
    Planned,
}

/// A solver brought from a spec to preprocessed, with each step timed.
pub struct Setup {
    pub problem: Arc<DecomposedProblem>,
    pub solver: TotalFetiSolver,
    pub approach: DualOperatorApproach,
    pub plan: Option<Plan>,
    pub build_s: f64,
    pub plan_s: f64,
    pub construct_s: f64,
    pub preprocess_s: f64,
    pub breakdown: TimeBreakdown,
    pub wall_s: f64,
}

/// `DecomposedProblem::build` + (plan) + `TotalFetiSolver::new` +
/// `ensure_preprocessed`, each timed and recorded as a span when tracing.
pub fn setup(spec: &DecompositionSpec, choice: Choice, tag: &str) -> Result<Setup, String> {
    let _s = spans::span("setup", tag);
    let t0 = std::time::Instant::now();
    let (problem, build_s) = timed(|| {
        let _s = spans::span("decompose.build", tag);
        Arc::new(DecomposedProblem::build(spec))
    });
    let options = PcpgOptions::default();
    let (plan, plan_s) = match choice {
        Choice::Pinned(_) => (None, 0.0),
        Choice::Planned => {
            let (p, s) = timed(|| {
                let _s = spans::span("planner.plan", tag);
                Planner::new(&problem, GpuSpec::a100_40gb()).plan_auto(EXPECTED_ITERATIONS)
            });
            (Some(p), s)
        }
    };
    let (solver, construct_s) = timed(|| {
        let _s = spans::span("core.construct", tag);
        match (&plan, choice) {
            (Some(p), _) => TotalFetiSolver::from_plan(Arc::clone(&problem), p, options),
            (None, Choice::Pinned(a)) => {
                TotalFetiSolver::new(Arc::clone(&problem), a, None, options)
            }
            (None, Choice::Planned) => unreachable!("a planned choice has a plan"),
        }
    });
    let mut solver = solver.map_err(|e| format!("construct: {e}"))?;
    let (breakdown, preprocess_s) = timed(|| {
        let _s = spans::span("dualop.preprocess", tag);
        solver.ensure_preprocessed()
    });
    let breakdown = breakdown.map_err(|e| format!("preprocess: {e}"))?;
    let approach = solver.dual_operator().approach();
    Ok(Setup {
        problem,
        solver,
        approach,
        plan,
        build_s,
        plan_s,
        construct_s,
        preprocess_s,
        breakdown,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Median per-call seconds of `f`, repeated until both `min_reps` calls and
/// `budget_s` seconds are spent (at most 400 calls).
fn per_call(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() < budget_s && samples.len() < 400)
    {
        samples.push(timed(&mut f).1);
    }
    median(&samples)
}

/// Warm solves measured alternately with tracing off and on.
pub struct SolveSamples {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    pub iterations: Vec<f64>,
    pub regions_inline: f64,
    pub regions_persistent: f64,
}

/// Runs `2 × pairs` warm solves on `setup`, alternating tracing off/on, and
/// checks each.  Returns the samples; failures go to `tally`.
pub fn alternating_solves(
    setup: &mut Setup,
    seed: u64,
    pairs: usize,
    tag: &str,
    tally: &mut check::Tally,
) -> SolveSamples {
    let _ = spans::merge_program_spans();
    let options = setup.solver.options();
    let mut out = SolveSamples {
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        iterations: Vec::new(),
        regions_inline: 0.0,
        regions_persistent: 0.0,
    };
    for i in 0..2 * pairs {
        let traced = i % 2 == 1;
        let case = gen::load_case(&setup.problem, seed, stream::PROBE, i as u64);
        feti_trace::set_enabled(traced);
        spans::set_enabled(traced);
        let (res, wall) = timed(|| {
            let _s = spans::span("solve", format!("{tag}/step{i}"));
            setup.solver.solve_many(std::slice::from_ref(&case))
        });
        feti_trace::set_enabled(false);
        spans::set_enabled(true);
        let checked = res.map_err(|e| e.to_string()).and_then(|mut sols| {
            let sol = sols.pop().ok_or("no solution")?;
            out.iterations.push(sol.iterations as f64);
            check::check(&setup.problem, &case, &sol, &options)
        });
        tally.record("traced-run solve", checked);
        if traced {
            out.traced_s.push(wall);
        } else {
            out.untraced_s.push(wall);
        }
    }
    let report = spans::merge_program_spans();
    let counter = |name: &str| {
        report.counters.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v as f64)
    };
    out.regions_inline = counter("rayon.region.inline") / pairs.max(1) as f64;
    out.regions_persistent = counter("rayon.region.persistent") / pairs.max(1) as f64;
    out
}

/// Per-layer numbers of one geometry.
pub struct LayerSample {
    pub values: Vec<(&'static str, f64)>,
    /// Predicted ÷ measured for preprocessing and one application.
    pub pred_ratios: (f64, f64),
}

impl LayerSample {
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Measures every solver-side layer on a prepared geometry.  `solves` supplies
/// the warm-solve wall (untraced half) and iteration count.
pub fn probe(setup: &mut Setup, solves: &SolveSamples, tag: &str) -> Result<LayerSample, String> {
    let _s = spans::span("probe", tag);
    let problem = Arc::clone(&setup.problem);
    let opts = SolverOptions::default();
    let sim = if setup.approach.uses_gpu() {
        setup.preprocess_s - setup.breakdown.cpu_seconds
    } else {
        0.0
    };
    let mut v: Vec<(&'static str, f64)> = vec![
        ("decompose.build_s", setup.build_s),
        ("core.construct_s", setup.construct_s),
        ("dualop.preprocess_s", setup.preprocess_s),
        ("dualop.preprocess.reported_cpu_s", setup.breakdown.cpu_seconds),
        ("gpu.modelled_device_s", setup.breakdown.gpu_seconds),
        ("gpu.sim_overhead_s", sim),
    ];

    // feti-solver: sequential factorization and one solve of every k_reg.
    let mut factorize_s = 0.0;
    let mut factor_solve_s = 0.0;
    {
        let _s = spans::span("solver.factorize+solve", tag);
        for sd in &problem.subdomains {
            let (factor, t) = timed(|| CholeskyFactor::new(&sd.k_reg, &opts));
            let factor = factor.map_err(|e| format!("factorize: {e}"))?;
            factorize_s += t;
            factor_solve_s += per_call(3, 0.0, || {
                std::hint::black_box(factor.solve(&sd.assembled.load));
            });
        }
    }
    v.push(("solver.factorize_s", factorize_s));
    v.push(("solver.factor_solve_s", factor_solve_s));

    // feti-sparse kernels at the shape of the subdomain with the most multipliers:
    // TRSM of its dense Cholesky factor against B̃ᵀ, SYRK of the result into F̃,
    // SYMV with F̃ and SpMV with K.
    let sd = problem
        .subdomains
        .iter()
        .max_by_key(|sd| sd.num_local_lambdas())
        .ok_or("empty decomposition")?;
    let n = sd.num_dofs();
    let m = sd.num_local_lambdas();
    let factor = CholeskyFactor::new(&sd.k_reg, &opts).map_err(|e| e.to_string())?;
    let l = factor.factor_csr().to_dense(MemoryOrder::ColMajor);
    let bt = sd.gluing.transposed().to_dense(MemoryOrder::ColMajor);
    let (nf, mf) = (n as f64, m as f64);
    let mut x = bt.clone();
    let trsm_s = {
        let _s = spans::span("sparse.trsm", tag);
        per_call(2, 0.3, || {
            x = bt.clone();
            blas::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &l, &mut x)
                .expect("the Cholesky factor has a nonzero diagonal");
        })
    };
    let mut f_tilde = DenseMatrix::zeros(m, m, MemoryOrder::ColMajor);
    let syrk_s = {
        let _s = spans::span("sparse.syrk", tag);
        per_call(2, 0.3, || {
            blas::syrk(Triangle::Upper, Transpose::Yes, 1.0, &x, 0.0, &mut f_tilde);
        })
    };
    v.push(("sparse.trsm_s", trsm_s));
    v.push(("sparse.trsm.gflop_per_s", nf * nf * mf / trsm_s / 1e9));
    v.push(("sparse.trsm.gbyte_per_s", 8.0 * (nf * nf / 2.0 + 2.0 * nf * mf) / trsm_s / 1e9));
    v.push(("sparse.syrk_s", syrk_s));
    v.push(("sparse.syrk.gflop_per_s", mf * mf * nf / syrk_s / 1e9));
    v.push(("sparse.syrk.gbyte_per_s", 8.0 * (nf * mf + mf * mf / 2.0) / syrk_s / 1e9));
    let xm: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut ym = vec![0.0; m];
    v.push((
        "sparse.symv_s",
        per_call(10, 0.1, || blas::symv(Triangle::Upper, 1.0, &f_tilde, &xm, 0.0, &mut ym)),
    ));
    let xn: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut yn = vec![0.0; n];
    v.push((
        "sparse.spmv_s",
        per_call(10, 0.1, || {
            ops::spmv_csr(1.0, &sd.assembled.stiffness, Transpose::No, &xn, 0.0, &mut yn);
        }),
    ));

    // feti-core::dualop: a second operator of the same approach, preprocessed,
    // applied repeatedly.
    let mut op: Box<dyn DualOperator> = match &setup.plan {
        Some(p) => p.build(&problem),
        None => build_dual_operator(setup.approach, &problem, None),
    }
    .map_err(|e| format!("dual operator: {e}"))?;
    {
        let _s = spans::span("dualop.preprocess(probe)", tag);
        op.preprocess().map_err(|e| format!("probe preprocess: {e}"))?;
    }
    let nl = problem.num_lambdas;
    let p: Vec<f64> = gen::load_case(&problem, 1, stream::PROBE, 99)
        .concat()
        .into_iter()
        .cycle()
        .take(nl)
        .collect();
    let mut q = vec![0.0; nl];
    let mut apply_breakdown = TimeBreakdown::default();
    let apply_s = {
        let _s = spans::span("dualop.apply", tag);
        per_call(5, 0.3, || apply_breakdown = op.apply(&p, &mut q))
    };
    v.push(("dualop.apply_s", apply_s));

    // feti-core::feti: projection and preconditioner on the solver itself.
    let project_s = {
        let _s = spans::span("core.project", tag);
        per_call(10, 0.1, || {
            std::hint::black_box(setup.solver.project(&p));
        })
    };
    let precondition_s = {
        let _s = spans::span("core.precondition", tag);
        per_call(10, 0.1, || {
            std::hint::black_box(setup.solver.precondition(&p));
        })
    };
    let iters = median(&solves.iterations);
    let solve_s = median(&solves.untraced_s);
    v.push(("core.pcpg.iterations", iters));
    v.push(("core.project_s", project_s));
    v.push(("core.precondition_s", precondition_s));
    let calls = PcpgCalls::for_iterations(iters);
    v.push(("core.pcpg.other_s", solve_s - calls.attributed(apply_s, project_s, precondition_s)));
    v.push(("rayon.regions_per_solve.inline", solves.regions_inline));
    v.push(("rayon.regions_per_solve.persistent", solves.regions_persistent));

    // feti-core::planner: planning wall, and the prediction for the approach that
    // was built against what it measured.
    let planner_s = {
        let _s = spans::span("planner.plan_auto", tag);
        per_call(3, 0.0, || {
            std::hint::black_box(
                Planner::new(&problem, GpuSpec::a100_40gb()).plan_auto(EXPECTED_ITERATIONS),
            );
        })
    };
    v.push(("planner.plan_s", planner_s));
    let predicted = match &setup.plan {
        Some(p) => *p.best(),
        None => Planner::new(&problem, GpuSpec::a100_40gb()).estimate(
            setup.approach,
            ExplicitAssemblyParams::auto_configure(
                setup.approach.generation().unwrap_or(feti_gpu::CudaGeneration::Legacy),
                problem.spec.dim,
                problem.spec.dofs_per_subdomain(),
            ),
        ),
    };
    let pre_ratio = predicted.preprocessing.total_seconds / setup.breakdown.total_seconds;
    let apply_ratio = predicted.apply.total_seconds / apply_breakdown.total_seconds;
    v.push(("planner.preprocess_pred_log2_err", pre_ratio.log2().abs()));
    v.push(("planner.apply_pred_log2_err", apply_ratio.log2().abs()));
    // Table-only values: the share of one apply spent simulating device kernels,
    // and its modelled device time.
    let apply_sim = if setup.approach.uses_gpu() {
        apply_s - apply_breakdown.cpu_seconds.min(apply_s)
    } else {
        0.0
    };
    v.push(("apply.sim_s", apply_sim));
    v.push(("apply.device_s", apply_breakdown.gpu_seconds));
    Ok(LayerSample { values: v, pred_ratios: (pre_ratio, apply_ratio) })
}

/// Calls one `solve_many` of a single load case makes per PCPG iteration count:
/// the initial `F λ₀`, one apply per iteration and the final `F λ`; two
/// projections and one preconditioning initially and per iteration.
pub struct PcpgCalls {
    pub apply: f64,
    pub project: f64,
    pub precondition: f64,
}

impl PcpgCalls {
    pub fn for_iterations(iterations: f64) -> Self {
        Self {
            apply: iterations + 2.0,
            project: 2.0 * (iterations + 1.0),
            precondition: iterations + 1.0,
        }
    }

    pub fn attributed(&self, apply_s: f64, project_s: f64, precondition_s: f64) -> f64 {
        self.apply * apply_s + self.project * project_s + self.precondition * precondition_s
    }
}

/// One row of the self-time table: measured host time, simulation overhead and
/// modelled device time kept in separate columns.
pub struct Row {
    pub name: String,
    pub host_s: f64,
    pub sim_s: f64,
    pub device_s: f64,
}

impl Row {
    pub fn host(name: impl Into<String>, host_s: f64) -> Self {
        Self { name: name.into(), host_s, sim_s: 0.0, device_s: 0.0 }
    }
}

/// Prints one block of the table: a parent wall time and its children, with the
/// unattributed remainder as its own row so the rows add up to the parent.
/// `remainder` names that row (`core.pcpg.other` in a solve: vector operations,
/// the dual right-hand side and the primal recovery).
pub fn print_block(title: &str, wall_s: f64, mut rows: Vec<Row>, remainder: &str) {
    let attributed: f64 = rows.iter().map(|r| r.host_s + r.sim_s).sum();
    rows.push(Row::host(remainder, wall_s - attributed));
    println!("layers {title}: wall {wall_s:.6} s");
    println!(
        "layers   {:<34} {:>12} {:>14} {:>16} {:>8}",
        "layer", "host_s", "sim_overhead_s", "modelled_device_s", "share"
    );
    for r in &rows {
        println!(
            "layers   {:<34} {:>12.6} {:>14.6} {:>16.6} {:>7.1}%",
            r.name,
            r.host_s,
            r.sim_s,
            r.device_s,
            100.0 * (r.host_s + r.sim_s) / wall_s
        );
    }
}

/// Rows of a set-up: build, (plan), construct, preprocess split into host work
/// and simulation overhead.
pub fn setup_rows(s: &LayerSample, plan_s: f64) -> Vec<Row> {
    let pre = s.get("dualop.preprocess_s");
    let sim = s.get("gpu.sim_overhead_s");
    let mut rows = vec![Row::host("decompose.build", s.get("decompose.build_s"))];
    if plan_s > 0.0 {
        rows.push(Row::host("planner.plan", plan_s));
    }
    rows.push(Row::host("core.construct", s.get("core.construct_s")));
    rows.push(Row {
        name: "dualop.preprocess".into(),
        host_s: pre - sim,
        sim_s: sim,
        device_s: s.get("gpu.modelled_device_s"),
    });
    rows
}

/// Rows of one warm solve: applies, projections and preconditionings at their
/// probed per-call cost times the calls the solve made.
pub fn solve_rows(s: &LayerSample) -> Vec<Row> {
    let calls = PcpgCalls::for_iterations(s.get("core.pcpg.iterations"));
    let apply_s = s.get("dualop.apply_s");
    let apply_sim = s.get("apply.sim_s");
    vec![
        Row {
            name: format!("dualop.apply x{:.1}", calls.apply),
            host_s: calls.apply * (apply_s - apply_sim),
            sim_s: calls.apply * apply_sim,
            device_s: calls.apply * s.get("apply.device_s"),
        },
        Row::host(
            format!("core.project x{:.1}", calls.project),
            calls.project * s.get("core.project_s"),
        ),
        Row::host(
            format!("core.precondition x{:.1}", calls.precondition),
            calls.precondition * s.get("core.precondition_s"),
        ),
    ]
}
