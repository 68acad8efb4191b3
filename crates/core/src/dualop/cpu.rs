//! CPU-only dual operator approaches: `impl mkl`, `impl cholmod`, `expl mkl`,
//! `expl cholmod`.
//!
//! The subdomain loops run on the real host thread pool.  Determinism contract: each
//! parallel region computes purely per-subdomain results which are collected in
//! subdomain-index order, and every cross-subdomain reduction (the `gather` into the
//! global dual vector, the scheduler recording, the statistics) happens sequentially
//! in that order after the region joins — so the numerics and the modelled device
//! times are bit-for-bit independent of the thread count and of scheduling.

use super::{DualOperator, DualOperatorStats, SharedStats, SubdomainBlock};
use crate::params::DualOperatorApproach;
use crate::schedule::{PhaseScheduler, TimeBreakdown};
use feti_solver::cholmod::{CholmodFactor, CholmodLike};
use feti_solver::pardiso::{PardisoFactor, PardisoLike};
use feti_solver::SolverOptions;
use feti_sparse::{blas, ops, DenseMatrix, MemoryOrder, Transpose, Triangle};
use rayon::prelude::*;
use std::time::Instant;

/// Symbolic handle of either CPU solver facade.
enum CpuSymbolic {
    Mkl(PardisoLike),
    Cholmod(CholmodLike),
}

/// Numeric factor of either CPU solver facade.
enum CpuFactor {
    Mkl(PardisoFactor),
    Cholmod(CholmodFactor),
}

impl CpuFactor {
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            CpuFactor::Mkl(f) => f.solve(b),
            CpuFactor::Cholmod(f) => f.solve(b),
        }
    }
}

fn make_symbolic(approach: DualOperatorApproach, block: &SubdomainBlock) -> CpuSymbolic {
    let opts = SolverOptions::default();
    match approach {
        DualOperatorApproach::ImplicitMkl | DualOperatorApproach::ExplicitMkl => {
            CpuSymbolic::Mkl(PardisoLike::analyze(&block.k_reg, opts))
        }
        // Every other approach — including the GPU explicit families and the
        // sparse-RHS family of arXiv 2509.21037, whose CPU-side numeric factorization
        // runs through the same facade — analyzes with the CHOLMOD-like solver.
        _ => CpuSymbolic::Cholmod(CholmodLike::analyze(&block.k_reg, opts)),
    }
}

/// Implicit CPU application: SpMV, two triangular solves, SpMV, all on the host.
pub struct ImplicitCpuOperator {
    approach: DualOperatorApproach,
    blocks: Vec<SubdomainBlock>,
    num_lambdas: usize,
    symbolic: Vec<CpuSymbolic>,
    factors: Vec<Option<CpuFactor>>,
    stats: SharedStats,
}

impl ImplicitCpuOperator {
    /// Preparation phase: symbolic analysis of every subdomain.
    #[must_use]
    pub fn new(
        approach: DualOperatorApproach,
        blocks: Vec<SubdomainBlock>,
        num_lambdas: usize,
    ) -> Self {
        let symbolic: Vec<CpuSymbolic> =
            blocks.par_iter().with_max_len(1).map(|b| make_symbolic(approach, b)).collect();
        let factors = blocks.iter().map(|_| None).collect();
        Self { approach, blocks, num_lambdas, symbolic, factors, stats: SharedStats::default() }
    }
}

impl DualOperator for ImplicitCpuOperator {
    fn approach(&self) -> DualOperatorApproach {
        self.approach
    }

    fn num_lambdas(&self) -> usize {
        self.num_lambdas
    }

    fn preprocess(&mut self) -> crate::Result<TimeBreakdown> {
        let _span = feti_trace::span(|| "preprocess");
        let indices: Vec<usize> = (0..self.blocks.len()).collect();
        let region = Instant::now();
        let results: Vec<(CpuFactor, f64)> = self
            .blocks
            .par_iter()
            .zip(self.symbolic.par_iter())
            .zip(indices.par_iter())
            .with_max_len(1)
            .map(|((block, symbolic), &sd)| {
                let _span = feti_trace::span(|| format!("factorize[sd={sd}]"));
                let start = Instant::now();
                let factor = match symbolic {
                    CpuSymbolic::Mkl(s) => CpuFactor::Mkl(s.factorize(&block.k_reg)?),
                    CpuSymbolic::Cholmod(s) => CpuFactor::Cholmod(s.factorize(&block.k_reg)?),
                };
                Ok((factor, start.elapsed().as_secs_f64()))
            })
            .collect::<crate::Result<Vec<_>>>()?;
        let wall = region.elapsed().as_secs_f64();
        let mut scheduler = PhaseScheduler::for_host();
        for (i, (factor, seconds)) in results.into_iter().enumerate() {
            self.factors[i] = Some(factor);
            scheduler.record_subdomain(i, seconds, &[]);
        }
        let breakdown = scheduler.finish_measured(wall);
        self.stats.record_preprocessing(breakdown);
        Ok(breakdown)
    }

    fn apply(&mut self, p: &[f64], q: &mut [f64]) -> TimeBreakdown {
        assert_eq!(p.len(), self.num_lambdas);
        assert_eq!(q.len(), self.num_lambdas);
        let _span = feti_trace::span(|| "apply");
        q.iter_mut().for_each(|v| *v = 0.0);
        let region = Instant::now();
        let locals: Vec<(Vec<f64>, f64)> = self
            .blocks
            .par_iter()
            .zip(self.factors.par_iter())
            .with_max_len(1)
            .map(|(block, factor)| {
                let factor = factor.as_ref().expect("preprocess must be called before apply");
                let start = Instant::now();
                let p_local = block.scatter(p);
                let mut t = vec![0.0; block.num_dofs()];
                ops::spmv_csr(1.0, &block.b, Transpose::Yes, &p_local, 0.0, &mut t);
                let x = factor.solve(&t);
                let mut q_local = vec![0.0; block.num_local_lambdas()];
                ops::spmv_csr(1.0, &block.b, Transpose::No, &x, 0.0, &mut q_local);
                (q_local, start.elapsed().as_secs_f64())
            })
            .collect();
        let wall = region.elapsed().as_secs_f64();
        let mut scheduler = PhaseScheduler::for_host();
        for (i, (q_local, seconds)) in locals.iter().enumerate() {
            self.blocks[i].gather(q_local, q);
            scheduler.record_subdomain(i, *seconds, &[]);
        }
        let breakdown = scheduler.finish_measured(wall);
        self.stats.record_apply(breakdown, 1);
        super::trace_apply_metric(self.approach, breakdown, 1);
        breakdown
    }

    fn stats(&self) -> DualOperatorStats {
        self.stats.snapshot()
    }
}

/// Explicit CPU assembly and application: `expl mkl` (sparsity-exploiting Schur
/// complement) and `expl cholmod` (dense triangular solves on the extracted factor).
pub struct ExplicitCpuOperator {
    approach: DualOperatorApproach,
    blocks: Vec<SubdomainBlock>,
    num_lambdas: usize,
    symbolic: Vec<CpuSymbolic>,
    f_local: Vec<Option<DenseMatrix>>,
    stats: SharedStats,
}

impl ExplicitCpuOperator {
    /// Preparation phase: symbolic analysis of every subdomain.
    #[must_use]
    pub fn new(
        approach: DualOperatorApproach,
        blocks: Vec<SubdomainBlock>,
        num_lambdas: usize,
    ) -> Self {
        let symbolic: Vec<CpuSymbolic> =
            blocks.par_iter().with_max_len(1).map(|b| make_symbolic(approach, b)).collect();
        let f_local = blocks.iter().map(|_| None).collect();
        Self { approach, blocks, num_lambdas, symbolic, f_local, stats: SharedStats::default() }
    }

    /// Assembles `F̃ᵢ` for one subdomain on the CPU (used also by the hybrid approach).
    fn assemble_local(
        approach: DualOperatorApproach,
        symbolic: &CpuSymbolic,
        block: &SubdomainBlock,
    ) -> crate::Result<DenseMatrix> {
        match symbolic {
            CpuSymbolic::Mkl(s) => {
                // Augmented-factorization-style Schur complement exploiting B sparsity.
                let factor = s.factorize(&block.k_reg)?;
                Ok(factor.schur_complement(&block.b))
            }
            CpuSymbolic::Cholmod(s) => {
                debug_assert!(matches!(
                    approach,
                    DualOperatorApproach::ExplicitCholmod | DualOperatorApproach::ExplicitHybrid
                ));
                // Dense path: convert B̃ᵀ to dense, solve K X = B̃ᵀ, then F̃ = B̃ X.
                let factor = s.factorize(&block.k_reg)?;
                let bt_dense = block.b.transposed().to_dense(MemoryOrder::ColMajor);
                let x = factor.solve_matrix(&bt_dense);
                let nl = block.num_local_lambdas();
                let mut f = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
                ops::spmm_csr_dense(1.0, &block.b, Transpose::No, &x, 0.0, &mut f);
                Ok(f)
            }
        }
    }
}

/// Explicit helper used by all explicit approaches: `q̃ᵢ = F̃ᵢ p̃ᵢ` through SYMV.
fn apply_local_explicit(f: &DenseMatrix, p_local: &[f64], q_local: &mut [f64]) {
    blas::symv(Triangle::Upper, 1.0, f, p_local, 0.0, q_local);
}

impl DualOperator for ExplicitCpuOperator {
    fn approach(&self) -> DualOperatorApproach {
        self.approach
    }

    fn num_lambdas(&self) -> usize {
        self.num_lambdas
    }

    fn preprocess(&mut self) -> crate::Result<TimeBreakdown> {
        let _span = feti_trace::span(|| "preprocess");
        let approach = self.approach;
        let indices: Vec<usize> = (0..self.blocks.len()).collect();
        let region = Instant::now();
        let results: Vec<(DenseMatrix, f64)> = self
            .blocks
            .par_iter()
            .zip(self.symbolic.par_iter())
            .zip(indices.par_iter())
            .with_max_len(1)
            .map(|((block, symbolic), &sd)| {
                let _span = feti_trace::span(|| format!("factorize[sd={sd}]"));
                let start = Instant::now();
                let f = Self::assemble_local(approach, symbolic, block)?;
                Ok((f, start.elapsed().as_secs_f64()))
            })
            .collect::<crate::Result<Vec<_>>>()?;
        let wall = region.elapsed().as_secs_f64();
        let mut scheduler = PhaseScheduler::for_host();
        for (i, (f, seconds)) in results.into_iter().enumerate() {
            self.f_local[i] = Some(f);
            scheduler.record_subdomain(i, seconds, &[]);
        }
        let breakdown = scheduler.finish_measured(wall);
        self.stats.record_preprocessing(breakdown);
        Ok(breakdown)
    }

    fn apply(&mut self, p: &[f64], q: &mut [f64]) -> TimeBreakdown {
        assert_eq!(p.len(), self.num_lambdas);
        assert_eq!(q.len(), self.num_lambdas);
        let _span = feti_trace::span(|| "apply");
        q.iter_mut().for_each(|v| *v = 0.0);
        let region = Instant::now();
        let locals: Vec<(Vec<f64>, f64)> = self
            .blocks
            .par_iter()
            .zip(self.f_local.par_iter())
            .with_max_len(1)
            .map(|(block, f)| {
                let f = f.as_ref().expect("preprocess must be called before apply");
                let start = Instant::now();
                let p_local = block.scatter(p);
                let mut q_local = vec![0.0; block.num_local_lambdas()];
                apply_local_explicit(f, &p_local, &mut q_local);
                (q_local, start.elapsed().as_secs_f64())
            })
            .collect();
        let wall = region.elapsed().as_secs_f64();
        let mut scheduler = PhaseScheduler::for_host();
        for (i, (q_local, seconds)) in locals.iter().enumerate() {
            self.blocks[i].gather(q_local, q);
            scheduler.record_subdomain(i, *seconds, &[]);
        }
        let breakdown = scheduler.finish_measured(wall);
        self.stats.record_apply(breakdown, 1);
        super::trace_apply_metric(self.approach, breakdown, 1);
        breakdown
    }

    fn apply_many(&mut self, p: &DenseMatrix, q: &mut DenseMatrix) -> TimeBreakdown {
        assert_eq!(p.nrows(), self.num_lambdas, "batch row count must match dual space");
        assert_eq!(q.nrows(), self.num_lambdas, "batch row count must match dual space");
        assert_eq!(p.ncols(), q.ncols(), "input and output batches must have equal width");
        let _span = feti_trace::span(|| "apply");
        let k = p.ncols();
        q.fill(0.0);
        let region = Instant::now();
        let locals: Vec<(Vec<Vec<f64>>, f64)> = self
            .blocks
            .par_iter()
            .zip(self.f_local.par_iter())
            .with_max_len(1)
            .map(|(block, f)| {
                let f = f.as_ref().expect("preprocess must be called before apply");
                let nl = block.num_local_lambdas();
                // The dense F̃ᵢ stays hot across the columns of the batch — the
                // CPU-side analogue of the SYMM-shaped amortization on the device.
                let start = Instant::now();
                let mut block_locals: Vec<Vec<f64>> = Vec::with_capacity(k);
                for j in 0..k {
                    let p_local: Vec<f64> = block.lambda_map.iter().map(|&g| p.get(g, j)).collect();
                    let mut q_local = vec![0.0; nl];
                    apply_local_explicit(f, &p_local, &mut q_local);
                    block_locals.push(q_local);
                }
                (block_locals, start.elapsed().as_secs_f64())
            })
            .collect();
        let wall = region.elapsed().as_secs_f64();
        let mut scheduler = PhaseScheduler::for_host();
        for (i, (block_locals, seconds)) in locals.iter().enumerate() {
            let block = &self.blocks[i];
            for (j, q_local) in block_locals.iter().enumerate() {
                for (l, &g) in block.lambda_map.iter().enumerate() {
                    q.add_assign_at(g, j, q_local[l]);
                }
            }
            scheduler.record_subdomain(i, *seconds, &[]);
        }
        let breakdown = scheduler.finish_measured(wall);
        self.stats.record_apply(breakdown, k);
        super::trace_apply_metric(self.approach, breakdown, k);
        breakdown
    }

    fn stats(&self) -> DualOperatorStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualop::SubdomainBlock;
    use feti_decompose::{DecomposedProblem, DecompositionSpec};

    fn blocks() -> (Vec<SubdomainBlock>, usize) {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        (SubdomainBlock::from_problem(&problem), problem.num_lambdas)
    }

    fn reference_apply(blocks: &[SubdomainBlock], p: &[f64]) -> Vec<f64> {
        // Straightforward dense reference: q = sum_i B_i Kreg_i^{-1} B_i^T p_i.
        let mut q = vec![0.0; p.len()];
        for block in blocks {
            let factor =
                feti_solver::CholeskyFactor::new(&block.k_reg, &SolverOptions::default()).unwrap();
            let p_local = block.scatter(p);
            let mut t = vec![0.0; block.num_dofs()];
            ops::spmv_csr(1.0, &block.b, Transpose::Yes, &p_local, 0.0, &mut t);
            let x = factor.solve(&t);
            let mut q_local = vec![0.0; block.num_local_lambdas()];
            ops::spmv_csr(1.0, &block.b, Transpose::No, &x, 0.0, &mut q_local);
            block.gather(&q_local, &mut q);
        }
        q
    }

    #[test]
    fn implicit_cpu_matches_reference() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let reference = reference_apply(&blocks, &p);
        for approach in [DualOperatorApproach::ImplicitMkl, DualOperatorApproach::ImplicitCholmod] {
            let mut op = ImplicitCpuOperator::new(approach, blocks.clone(), nl);
            let t = op.preprocess().unwrap();
            assert!(t.total_seconds > 0.0);
            let mut q = vec![0.0; nl];
            let ta = op.apply(&p, &mut q);
            assert!(ta.total_seconds > 0.0);
            for (a, b) in q.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-8, "{approach:?}: {a} vs {b}");
            }
            assert_eq!(op.stats().apply_count, 1);
        }
    }

    #[test]
    fn explicit_cpu_matches_reference() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.31).sin()).collect();
        let reference = reference_apply(&blocks, &p);
        for approach in [DualOperatorApproach::ExplicitMkl, DualOperatorApproach::ExplicitCholmod] {
            let mut op = ExplicitCpuOperator::new(approach, blocks.clone(), nl);
            op.preprocess().unwrap();
            let mut q = vec![0.0; nl];
            op.apply(&p, &mut q);
            for (a, b) in q.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-8, "{approach:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn apply_many_is_bit_for_bit_columnwise_apply() {
        let (blocks, nl) = blocks();
        let k = 3;
        let mut p = DenseMatrix::zeros(nl, k, MemoryOrder::ColMajor);
        for j in 0..k {
            for i in 0..nl {
                p.set(i, j, ((i * 7 + j * 13) % 19) as f64 * 0.27 - 2.0);
            }
        }
        let check = |single: &mut dyn DualOperator, batched: &mut dyn DualOperator| {
            let approach = single.approach();
            single.preprocess().unwrap();
            batched.preprocess().unwrap();
            let mut q_batched = DenseMatrix::zeros(nl, k, MemoryOrder::ColMajor);
            batched.apply_many(&p, &mut q_batched);
            for j in 0..k {
                let mut q = vec![0.0; nl];
                single.apply(&p.col(j), &mut q);
                for (i, v) in q.iter().enumerate() {
                    assert_eq!(
                        *v,
                        q_batched.get(i, j),
                        "{approach:?} column {j} row {i} must match bit-for-bit"
                    );
                }
            }
            assert_eq!(batched.stats().apply_count, k, "{approach:?} counts columns");
        };
        for approach in [DualOperatorApproach::ExplicitMkl, DualOperatorApproach::ExplicitCholmod] {
            let mut a = ExplicitCpuOperator::new(approach, blocks.clone(), nl);
            let mut b = ExplicitCpuOperator::new(approach, blocks.clone(), nl);
            check(&mut a, &mut b);
        }
        for approach in [DualOperatorApproach::ImplicitMkl, DualOperatorApproach::ImplicitCholmod] {
            let mut a = ImplicitCpuOperator::new(approach, blocks.clone(), nl);
            let mut b = ImplicitCpuOperator::new(approach, blocks.clone(), nl);
            check(&mut a, &mut b);
        }
    }

    #[test]
    #[should_panic(expected = "preprocess must be called")]
    fn apply_before_preprocess_panics() {
        let (blocks, nl) = blocks();
        let mut op = ImplicitCpuOperator::new(DualOperatorApproach::ImplicitMkl, blocks, nl);
        let p = vec![0.0; nl];
        let mut q = vec![0.0; nl];
        let _ = op.apply(&p, &mut q);
    }
}
