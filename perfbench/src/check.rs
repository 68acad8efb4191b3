//! Independent output check applied to every solve of every workload.
//!
//! The eleven approaches only agree with each other, so the check trusts none of
//! them: it recomputes the subdomain equilibrium `Kᵢuᵢ + B̃ᵢᵀλᵢ − fᵢ` from the
//! assembled stiffness, the gluing matrix and the loads the benchmark generated,
//! and measures the interface jump of the returned primal solution.

use crate::gen;
use feti_core::{DualOperatorApproach, FetiSolution, LoadCase, PcpgOptions, TotalFetiSolver};
use feti_decompose::DecomposedProblem;
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_sparse::{blas, ops, Transpose};
use std::sync::Arc;

/// Largest accepted `maxᵢ ‖Kᵢuᵢ + B̃ᵢᵀλᵢ − fᵢ‖ / ‖f‖`.  Converged solves reach
/// ~1e-11 on the benchmark geometries.
pub const EQUILIBRIUM_TOL: f64 = 1e-8;
/// Largest accepted interface jump relative to `max |u|`.  Converged solves reach
/// ~1e-9 on the benchmark geometries.
pub const JUMP_TOL: f64 = 1e-6;

/// Measured quality of one solution.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub equilibrium: f64,
    pub jump: f64,
}

/// Measures a solution against the problem and the loads it was solved for.
fn quality(problem: &DecomposedProblem, loads: &LoadCase, sol: &FetiSolution) -> Quality {
    let f_norm = loads.iter().map(|f| blas::dot(f, f)).sum::<f64>().sqrt().max(f64::MIN_POSITIVE);
    let mut equilibrium: f64 = 0.0;
    for ((sd, u), f) in problem.subdomains.iter().zip(&sol.subdomain_solutions).zip(loads) {
        let lambda_local: Vec<f64> = sd.lambda_map.iter().map(|&g| sol.lambda[g]).collect();
        let mut r: Vec<f64> = f.iter().map(|v| -v).collect();
        ops::spmv_csr(1.0, &sd.assembled.stiffness, Transpose::No, u, 1.0, &mut r);
        ops::spmv_csr(1.0, &sd.gluing, Transpose::Yes, &lambda_local, 1.0, &mut r);
        equilibrium = equilibrium.max(blas::norm2(&r) / f_norm);
    }
    let u_max = sol
        .subdomain_solutions
        .iter()
        .flat_map(|u| u.iter())
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let jump = problem.interface_jump(&sol.subdomain_solutions) / u_max;
    Quality { equilibrium, jump }
}

/// Checks one solution: converged at the stated tolerance, subdomain equilibrium
/// and interface continuity within the benchmark's fixed tolerances.
pub fn check(
    problem: &DecomposedProblem,
    loads: &LoadCase,
    sol: &FetiSolution,
    options: &PcpgOptions,
) -> Result<Quality, String> {
    // NaN compares false, so every test is written to fail on it.
    let converged = sol.final_residual < options.tolerance;
    if !converged || sol.iterations >= options.max_iterations {
        return Err(format!(
            "not converged: residual {:e} after {} iterations (tolerance {:e})",
            sol.final_residual, sol.iterations, options.tolerance
        ));
    }
    if sol.subdomain_solutions.len() != problem.subdomains.len()
        || sol.lambda.len() != problem.num_lambdas
    {
        return Err("solution has the wrong shape".into());
    }
    let q = quality(problem, loads, sol);
    if q.equilibrium.is_nan() || q.equilibrium >= EQUILIBRIUM_TOL {
        return Err(format!("equilibrium residual {:e} ≥ {EQUILIBRIUM_TOL:e}", q.equilibrium));
    }
    if q.jump.is_nan() || q.jump >= JUMP_TOL {
        return Err(format!("relative interface jump {:e} ≥ {JUMP_TOL:e}", q.jump));
    }
    Ok(q)
}

/// Pass/fail counter shared by the workloads; prints the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub worst_equilibrium: f64,
    pub worst_jump: f64,
}

impl Tally {
    /// Counts one operation; `result` is its error or its checked solution.
    pub fn record(&mut self, what: &str, result: Result<Quality, String>) {
        self.attempted += 1;
        match result {
            Ok(q) => {
                self.worst_equilibrium = self.worst_equilibrium.max(q.equilibrium);
                self.worst_jump = self.worst_jump.max(q.jump);
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: {what} failed: {e}");
                }
            }
        }
    }
}

/// Shows that the check catches wrong output: a genuine solution of a small
/// problem must pass, and the same solution with one multiplier or one primal
/// value corrupted must fail.
pub fn self_check() -> Result<(), String> {
    let problem = Arc::new(DecomposedProblem::build(&gen::spec(
        Dim::Two,
        Physics::LinearElasticity,
        ElementOrder::Linear,
        2,
        4,
    )));
    let options = PcpgOptions::default();
    let mut solver = TotalFetiSolver::new(
        Arc::clone(&problem),
        DualOperatorApproach::ImplicitMkl,
        None,
        options,
    )
    .map_err(|e| e.to_string())?;
    let loads = gen::load_case(&problem, 0, gen::stream::PROBE, 0);
    let sol = solver
        .solve_many(std::slice::from_ref(&loads))
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or("no solution")?;
    check(&problem, &loads, &sol, &options)
        .map_err(|e| format!("genuine solution rejected: {e}"))?;

    let scale = sol.lambda.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    let mut bad_lambda = sol.clone();
    let j = bad_lambda.lambda.len() / 2;
    bad_lambda.lambda[j] += 1e-3 * scale;
    if check(&problem, &loads, &bad_lambda, &options).is_ok() {
        return Err("a corrupted λ passed the output check".into());
    }

    let mut bad_u = sol.clone();
    let u = &mut bad_u.subdomain_solutions[0];
    let k = u.len() / 2;
    u[k] += 1e-3 * u.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
    if check(&problem, &loads, &bad_u, &options).is_ok() {
        return Err("a corrupted uᵢ passed the output check".into());
    }

    let mut unconverged = sol;
    unconverged.final_residual = options.tolerance * 2.0;
    if check(&problem, &loads, &unconverged, &options).is_ok() {
        return Err("an unconverged solution passed the output check".into());
    }
    Ok(())
}
