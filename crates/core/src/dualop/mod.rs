//! The dual operator `F = B K⁺ Bᵀ` and its eleven implementations: the nine of
//! Table III plus the sparsity-aware explicit family of the sequel (arXiv 2509.21037).
//!
//! All implementations expose the same [`DualOperator`] trait: a `preprocess` step
//! (numeric factorization and, for explicit approaches, assembly of the dense local
//! operators `F̃ᵢ`) and an `apply` step (`q = F p` on the global dual vector).  Both
//! report a [`TimeBreakdown`] combining measured CPU time and modelled GPU time under
//! the paper's overlapped execution schedule.

pub mod cpu;
pub mod gpu;

use crate::params::{DualOperatorApproach, ExplicitAssemblyParams};
use crate::schedule::TimeBreakdown;
use feti_decompose::DecomposedProblem;
use feti_sparse::{CsrMatrix, DenseMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Accumulated statistics of a dual operator over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DualOperatorStats {
    /// Time spent in the **first** `preprocess` call (the cold preprocessing the
    /// planner prices).
    pub preprocessing: TimeBreakdown,
    /// Accumulated time of every preprocessing call after the first (numeric
    /// re-factorizations in multi-step runs).  Kept separate so the warm path
    /// (`ensure_preprocessed`, cached service solvers) cannot silently overwrite
    /// the cold cost.
    pub repreprocessing: TimeBreakdown,
    /// Number of `preprocess` calls recorded (cold + re-preprocessing).
    pub preprocess_count: usize,
    /// Sum of all `apply` calls since construction.
    pub total_apply: TimeBreakdown,
    /// Number of `apply` calls.
    pub apply_count: usize,
}

/// Thread-safe statistics accumulator shared by every operator implementation.
///
/// The subdomain loops now really run on several host threads, so the counters are
/// recorded through `&self` with atomics (counts) and mutexes (time breakdowns)
/// instead of `&mut` fields threaded through the parallel loop: concurrent recordings
/// from any number of workers merge exactly, never losing an increment.
#[derive(Debug, Default)]
pub struct SharedStats {
    preprocessing: Mutex<TimeBreakdown>,
    repreprocessing: Mutex<TimeBreakdown>,
    preprocess_count: AtomicUsize,
    total_apply: Mutex<TimeBreakdown>,
    apply_count: AtomicUsize,
}

impl SharedStats {
    /// Poison-tolerant lock: the guarded values are plain `Copy` bookkeeping, so a
    /// panicked recorder cannot leave them in a torn state.
    fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one preprocessing phase: the first call sets the cold
    /// [`DualOperatorStats::preprocessing`] breakdown, every later call (numeric
    /// re-factorization of a warm operator) accumulates into
    /// [`DualOperatorStats::repreprocessing`] instead of overwriting the cold cost.
    pub fn record_preprocessing(&self, t: TimeBreakdown) {
        if self.preprocess_count.fetch_add(1, Ordering::Relaxed) == 0 {
            *Self::locked(&self.preprocessing) = t;
        } else {
            let mut re = Self::locked(&self.repreprocessing);
            *re = re.then(t);
        }
    }

    /// Accumulates one application phase covering `columns` right-hand sides.
    pub fn record_apply(&self, t: TimeBreakdown, columns: usize) {
        let mut total = Self::locked(&self.total_apply);
        *total = total.then(t);
        drop(total);
        self.apply_count.fetch_add(columns, Ordering::Relaxed);
    }

    /// A consistent copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> DualOperatorStats {
        DualOperatorStats {
            preprocessing: *Self::locked(&self.preprocessing),
            repreprocessing: *Self::locked(&self.repreprocessing),
            preprocess_count: self.preprocess_count.load(Ordering::Relaxed),
            total_apply: *Self::locked(&self.total_apply),
            apply_count: self.apply_count.load(Ordering::Relaxed),
        }
    }
}

/// Records the per-column application seconds of one phase into the per-approach
/// histogram (`apply_seconds.<label>`); no-op while tracing is disabled.
pub(crate) fn trace_apply_metric(approach: DualOperatorApproach, t: TimeBreakdown, columns: usize) {
    if feti_trace::enabled() {
        feti_trace::histogram_record(
            &format!("apply_seconds.{}", approach.label()),
            t.total_seconds / columns.max(1) as f64,
        );
    }
}

/// The dual operator interface shared by all approaches of Table III.
pub trait DualOperator: Send {
    /// Which approach this operator implements.
    fn approach(&self) -> DualOperatorApproach;

    /// Dimension of the (global) dual space.
    fn num_lambdas(&self) -> usize;

    /// FETI preprocessing: numeric factorization of every `Kᵢ,reg` and, for explicit
    /// approaches, assembly of the local dual operators `F̃ᵢ`.
    ///
    /// # Errors
    /// Returns an error if a factorization fails or the device runs out of memory.
    fn preprocess(&mut self) -> crate::Result<TimeBreakdown>;

    /// Applies the dual operator: `q = F p` (both are global dual vectors).
    ///
    /// # Panics
    /// Panics if `preprocess` has not been called or vector lengths do not match.
    fn apply(&mut self, p: &[f64], q: &mut [f64]) -> TimeBreakdown;

    /// Applies the dual operator to a batch of right-hand sides: `Q = F P`, one global
    /// dual vector per column.
    ///
    /// The default implementation loops [`DualOperator::apply`] over the columns and is
    /// bit-for-bit identical to repeated single applies.  Implementations that can
    /// amortize memory traffic over the batch (the explicit approaches, whose dense
    /// `F̃ᵢ` is streamed once per batch instead of once per column — a GEMM/SYMM-shaped
    /// kernel instead of repeated GEMV/SYMV) override this with a batched path whose
    /// modelled device time for `k` columns never exceeds `k` single applies.
    ///
    /// Statistics accounting: every column counts as one apply in
    /// [`DualOperatorStats::apply_count`], so amortization bookkeeping stays comparable
    /// between batched and unbatched runs.
    ///
    /// # Panics
    /// Panics if `preprocess` has not been called, the row counts do not match the dual
    /// space, or `p` and `q` have different shapes.
    fn apply_many(&mut self, p: &DenseMatrix, q: &mut DenseMatrix) -> TimeBreakdown {
        assert_eq!(p.nrows(), self.num_lambdas(), "batch row count must match dual space");
        assert_eq!(q.nrows(), self.num_lambdas(), "batch row count must match dual space");
        assert_eq!(p.ncols(), q.ncols(), "input and output batches must have equal width");
        let mut total = TimeBreakdown::default();
        let mut q_col = vec![0.0; q.nrows()];
        for j in 0..p.ncols() {
            let p_col = p.col(j);
            total = total.then(self.apply(&p_col, &mut q_col));
            for (i, v) in q_col.iter().enumerate() {
                q.set(i, j, *v);
            }
        }
        total
    }

    /// Statistics accumulated so far.
    fn stats(&self) -> DualOperatorStats;
}

/// Per-subdomain data shared by every implementation: the regularized stiffness
/// matrix, the local gluing block and the local-to-global multiplier map.
#[derive(Debug, Clone)]
pub struct SubdomainBlock {
    /// Regularized (SPD) subdomain stiffness matrix.
    pub k_reg: CsrMatrix,
    /// Local gluing matrix `B̃ᵢ` (`local_lambdas x ndofs`).
    pub b: CsrMatrix,
    /// Local-to-global multiplier map.
    pub lambda_map: Vec<usize>,
}

impl SubdomainBlock {
    /// Extracts the blocks needed by the dual operators from a decomposed problem.
    #[must_use]
    pub fn from_problem(problem: &DecomposedProblem) -> Vec<SubdomainBlock> {
        problem
            .subdomains
            .iter()
            .map(|sd| SubdomainBlock {
                k_reg: sd.k_reg.clone(),
                b: sd.gluing.clone(),
                lambda_map: sd.lambda_map.clone(),
            })
            .collect()
    }

    /// Number of DOFs of this subdomain.
    #[must_use]
    pub fn num_dofs(&self) -> usize {
        self.k_reg.nrows()
    }

    /// Number of Lagrange multipliers connected to this subdomain.
    #[must_use]
    pub fn num_local_lambdas(&self) -> usize {
        self.lambda_map.len()
    }

    /// Scatters the global dual vector into this subdomain's local dual vector.
    #[must_use]
    pub fn scatter(&self, global: &[f64]) -> Vec<f64> {
        self.lambda_map.iter().map(|&g| global[g]).collect()
    }

    /// Gathers (adds) this subdomain's local dual vector into the global dual vector.
    pub fn gather(&self, local: &[f64], global: &mut [f64]) {
        for (l, &g) in self.lambda_map.iter().enumerate() {
            global[g] += local[l];
        }
    }
}

/// Builds the dual operator implementing `approach` for a decomposed problem.
///
/// `params` configures the explicit GPU assembly; when `None`, the Table-II
/// auto-configuration for the problem's dimensionality and subdomain size is used.
/// CPU-only approaches ignore `params`.
///
/// # Errors
/// Returns an error if the simulated device cannot hold the persistent structures.
pub fn build_dual_operator(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: Option<ExplicitAssemblyParams>,
) -> crate::Result<Box<dyn DualOperator>> {
    let blocks = SubdomainBlock::from_problem(problem);
    let num_lambdas = problem.num_lambdas;
    let resolved_params = params.unwrap_or_else(|| {
        let generation = approach.generation().unwrap_or(feti_gpu::CudaGeneration::Legacy);
        ExplicitAssemblyParams::auto_configure(
            generation,
            problem.spec.dim,
            problem.spec.dofs_per_subdomain(),
        )
    });
    match approach {
        DualOperatorApproach::ImplicitMkl | DualOperatorApproach::ImplicitCholmod => {
            Ok(Box::new(cpu::ImplicitCpuOperator::new(approach, blocks, num_lambdas)))
        }
        DualOperatorApproach::ExplicitMkl | DualOperatorApproach::ExplicitCholmod => {
            Ok(Box::new(cpu::ExplicitCpuOperator::new(approach, blocks, num_lambdas)))
        }
        DualOperatorApproach::ImplicitGpuLegacy | DualOperatorApproach::ImplicitGpuModern => {
            Ok(Box::new(gpu::ImplicitGpuOperator::new(approach, blocks, num_lambdas)?))
        }
        DualOperatorApproach::ExplicitGpuLegacy
        | DualOperatorApproach::ExplicitGpuModern
        | DualOperatorApproach::ExplicitSparseGpuLegacy
        | DualOperatorApproach::ExplicitSparseGpuModern => Ok(Box::new(
            gpu::ExplicitGpuOperator::new(approach, blocks, num_lambdas, resolved_params)?,
        )),
        DualOperatorApproach::ExplicitHybrid => {
            Ok(Box::new(gpu::HybridOperator::new(blocks, num_lambdas, resolved_params)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_decompose::DecompositionSpec;

    #[test]
    fn blocks_extracted_from_problem() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let blocks = SubdomainBlock::from_problem(&problem);
        assert_eq!(blocks.len(), 4);
        for b in &blocks {
            assert_eq!(b.b.ncols(), b.num_dofs());
            assert_eq!(b.b.nrows(), b.num_local_lambdas());
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let blocks = SubdomainBlock::from_problem(&problem);
        let global: Vec<f64> = (0..problem.num_lambdas).map(|i| i as f64).collect();
        let mut accumulated = vec![0.0; problem.num_lambdas];
        let mut counts = vec![0.0; problem.num_lambdas];
        for b in &blocks {
            let local = b.scatter(&global);
            assert_eq!(local.len(), b.num_local_lambdas());
            b.gather(&local, &mut accumulated);
            for &g in &b.lambda_map {
                counts[g] += 1.0;
            }
        }
        for i in 0..problem.num_lambdas {
            assert!((accumulated[i] - global[i] * counts[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn factory_builds_every_approach() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        for approach in DualOperatorApproach::all() {
            let op = build_dual_operator(approach, &problem, None).unwrap();
            assert_eq!(op.approach(), approach);
            assert_eq!(op.num_lambdas(), problem.num_lambdas);
        }
    }

    #[test]
    fn shared_stats_counts_are_exact_under_four_threads() {
        use rayon::prelude::*;
        let stats = SharedStats::default();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let recordings: Vec<usize> = (0..1000).collect();
        let t = TimeBreakdown { cpu_seconds: 0.5, gpu_seconds: 0.25, total_seconds: 0.5 };
        pool.install(|| {
            recordings.par_iter().for_each(|_| stats.record_apply(t, 3));
        });
        let snap = stats.snapshot();
        assert_eq!(snap.apply_count, 3000, "no increment may be lost under contention");
        assert!((snap.total_apply.cpu_seconds - 500.0).abs() < 1e-9);
        assert!((snap.total_apply.gpu_seconds - 250.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_preprocessing_accumulates_separately_from_the_cold_cost() {
        // Regression test for the old "last call wins" overwrite: the cold
        // breakdown must survive re-preprocessing, which accumulates on its own.
        let stats = SharedStats::default();
        let cold = TimeBreakdown { cpu_seconds: 2.0, gpu_seconds: 1.0, total_seconds: 2.5 };
        let warm = TimeBreakdown { cpu_seconds: 0.5, gpu_seconds: 0.25, total_seconds: 0.5 };
        stats.record_preprocessing(cold);
        stats.record_preprocessing(warm);
        stats.record_preprocessing(warm);
        let snap = stats.snapshot();
        assert_eq!(snap.preprocess_count, 3);
        assert!((snap.preprocessing.cpu_seconds - 2.0).abs() < 1e-12, "cold cost preserved");
        assert!((snap.preprocessing.total_seconds - 2.5).abs() < 1e-12);
        assert!((snap.repreprocessing.cpu_seconds - 1.0).abs() < 1e-12, "re-preprocess summed");
        assert!((snap.repreprocessing.total_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_many_counts_every_column_as_one_apply() {
        // Regression test for the amortization accounting: a k-column batch must
        // advance `apply_count` by k for every approach, batched or not, so that
        // batched runs stay comparable to unbatched ones.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let nl = problem.num_lambdas;
        let k = 3;
        let mut p = DenseMatrix::zeros(nl, k, feti_sparse::MemoryOrder::ColMajor);
        for j in 0..k {
            for i in 0..nl {
                p.set(i, j, (i + j) as f64 * 0.1 - 0.5);
            }
        }
        for approach in DualOperatorApproach::all() {
            let mut op = build_dual_operator(approach, &problem, None).unwrap();
            op.preprocess().unwrap();
            let mut q = DenseMatrix::zeros(nl, k, feti_sparse::MemoryOrder::ColMajor);
            op.apply_many(&p, &mut q);
            assert_eq!(op.stats().apply_count, k, "{approach:?}");
            let mut q1 = vec![0.0; nl];
            op.apply(&p.col(0), &mut q1);
            assert_eq!(op.stats().apply_count, k + 1, "{approach:?} after one more apply");
        }
    }
}
