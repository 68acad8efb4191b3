//! The explicit assembly's forward TRSM and SYRK on the simulated device.
//!
//! `F̃ᵢ = (L⁻¹ P B̃ᵢᵀ)ᵀ (L⁻¹ P B̃ᵢᵀ)` is one forward TRSM plus one SYRK per subdomain
//! (§IV-B/IV-C).  The device kernel sequence, the temporary-pool allocations it holds
//! and the modelled costs depend on the configuration ([`ForwardKernel`]), but the
//! host executes every configuration through one exact kernel over the sparse
//! factor, [`feti_sparse::reach`]: a forward solve restricted to each multiplier's
//! elimination-tree reach and a SYRK over those reaches.  It is bit-for-bit
//! identical to the dense reference kernels on the densified operands, so every
//! configuration produces the same numbers and differs only in the device time and
//! memory it is charged for.

use crate::cost::{self, GpuCost};
use crate::sparse::sparse_trsm_workspace_from_shape;
use crate::{CudaGeneration, GpuDevice, MemoryError, TempAlloc};
use feti_sparse::reach;
use feti_sparse::{CscMatrix, CsrMatrix, DenseMatrix, MemoryOrder};

/// The device kernel a forward solve `L X = P B̃ᵀ` is modelled as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardKernel {
    /// cuBLAS TRSM on the factor converted to dense in the given memory order.
    Dense(MemoryOrder),
    /// cuSPARSE TRSM on the sparse factor: CSR for row-major, CSC for column-major.
    Sparse(MemoryOrder),
    /// The sparsity-aware family's boundary-restricted TRSM on the factor converted
    /// to dense in the given memory order (arXiv 2509.21037); its SYRK is the
    /// boundary-restricted SYRK.
    Boundary(MemoryOrder),
}

/// What [`explicit_assembly`] hands back.
#[derive(Debug)]
pub struct Assembly {
    /// `F̃ = Xᵀ X` (full symmetric, row-major) when the SYRK ran, otherwise the
    /// forward solution `X = L⁻¹ P B̃ᵀ` in the right-hand-side memory order.
    pub output: DenseMatrix,
    /// The device operations submitted, in order.
    pub costs: Vec<GpuCost>,
    /// The temporary-pool allocations still held (the dense right-hand side and the
    /// forward solve's factor copy or workspace); drop them after the assembly's last
    /// kernel.
    pub temporaries: Vec<TempAlloc>,
}

/// Runs the explicit assembly of one subdomain on the simulated device: transfers of
/// the factor and the gluing matrix, the conversion of the right-hand side
/// `P B̃ᵀ` to dense, the forward solve as `forward`, and — with `syrk` — the SYRK
/// `F̃ = Xᵀ X`.  `bp` is `B̃ Pᵀ` in CSR (its rows are the right-hand-side columns) and
/// `l` the lower-triangular Cholesky factor of the permuted subdomain matrix.
///
/// # Errors
/// Returns an error if a temporary allocation can never fit the pool.
///
/// # Panics
/// Panics if the factor has a zero diagonal entry (a Cholesky factor never does).
pub fn explicit_assembly(
    device: &GpuDevice,
    generation: CudaGeneration,
    forward: ForwardKernel,
    rhs_order: MemoryOrder,
    l: &CscMatrix,
    bp: &CsrMatrix,
    syrk: bool,
) -> Result<Assembly, MemoryError> {
    let spec = device.spec();
    let (n, nl) = (l.nrows(), bp.nrows());
    let mut costs = vec![
        cost::transfer(spec, l.nnz() * 12),
        cost::transfer(spec, bp.bytes()),
        cost::sparse_to_dense(spec, bp.nnz(), n, nl),
    ];
    let mut temporaries = vec![device.alloc_temporary(n * nl * 8)?];
    let nb = bp.num_nonzero_cols();
    match forward {
        ForwardKernel::Dense(_) | ForwardKernel::Boundary(_) => {
            temporaries.push(device.alloc_temporary(n * n * 8)?);
            costs.push(cost::sparse_to_dense(spec, l.nnz(), n, n));
            costs.push(match forward {
                ForwardKernel::Boundary(_) => cost::sparse_rhs_trsm(spec, generation, n, nl, nb),
                _ => cost::dense_trsm(spec, n, nl),
            });
        }
        ForwardKernel::Sparse(order) => {
            let ws =
                sparse_trsm_workspace_from_shape(generation, l.bytes(), n, order, n, nl, rhs_order);
            temporaries.push(device.alloc_temporary(ws.temporary_bytes)?);
            costs.push(cost::sparse_trsm_for(spec, generation, l.nnz(), n, nl));
        }
    }
    let solution = reach::forward_solve(l, bp).expect("factor is nonsingular");
    let output = if syrk {
        costs.push(match forward {
            ForwardKernel::Boundary(_) => cost::boundary_syrk(spec, generation, nl, n, nb),
            _ => cost::syrk(spec, nl, n),
        });
        solution.gram()
    } else {
        solution.into_solution(rhs_order)
    };
    Ok(Assembly { output, costs, temporaries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::blas;
    use feti_sparse::{CooMatrix, DiagKind, Transpose, Triangle};

    /// A small lower-triangular factor with a closed (Cholesky-like) structure: a
    /// tridiagonal band plus a dense last row.
    fn factor(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + 0.1 * i as f64);
            if i + 1 < n {
                coo.push(i + 1, i, -0.5);
            }
            if i + 2 < n {
                coo.push(n - 1, i, 0.25);
            }
        }
        coo.to_csr().to_csc()
    }

    /// `B̃ Pᵀ` whose rows touch only a trailing window of `boundary` DOFs.
    fn gluing(nl: usize, n: usize, boundary: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nl, n);
        for k in 0..nl {
            coo.push(k, n - boundary + (k * 3) % boundary, if k % 2 == 0 { 1.0 } else { -1.0 });
        }
        coo.to_csr()
    }

    #[test]
    fn boundary_family_matches_dense_and_costs_less() {
        let device = GpuDevice::a100_like();
        device.reserve_temporary_pool();
        let (n, nl, boundary) = (24, 7, 6);
        let (l, bp) = (factor(n), gluing(nl, n, boundary));
        let order = MemoryOrder::ColMajor;
        let run = |forward| {
            explicit_assembly(&device, CudaGeneration::Legacy, forward, order, &l, &bp, true)
                .unwrap()
        };
        let dense = run(ForwardKernel::Dense(order));
        let sparse = run(ForwardKernel::Sparse(order));
        let boundary_run = run(ForwardKernel::Boundary(order));
        // Same numbers from every configuration, and the reference's.
        let mut x = bp.transposed().to_dense(MemoryOrder::ColMajor);
        let lf = l.to_dense(MemoryOrder::RowMajor);
        blas::reference::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &lf, &mut x)
            .unwrap();
        let mut f = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
        blas::reference::syrk(Triangle::Upper, Transpose::Yes, 1.0, &x, 0.0, &mut f);
        f.symmetrize_from(Triangle::Upper);
        for got in [&dense, &sparse, &boundary_run] {
            assert_eq!(got.output.as_slice().len(), f.as_slice().len());
            for (g, e) in got.output.as_slice().iter().zip(f.as_slice()) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
        }
        // Same op sequence shape, cheaper boundary-restricted kernels.
        assert_eq!(dense.costs.len(), 6);
        assert_eq!(boundary_run.costs.len(), 6);
        assert_eq!(sparse.costs.len(), 5);
        assert_eq!(dense.costs[3], boundary_run.costs[3], "same factor conversion");
        assert!(boundary_run.costs[4].seconds < dense.costs[4].seconds);
        assert!(boundary_run.costs[5].seconds < dense.costs[5].seconds);
        // Dense and boundary hold the RHS plus an n x n factor copy.
        assert_eq!(dense.temporaries.len(), 2);
        assert_eq!(dense.temporaries[1].bytes(), n * n * 8);
    }

    #[test]
    fn without_syrk_the_forward_solution_comes_back_in_rhs_order() {
        let device = GpuDevice::a100_like();
        device.reserve_temporary_pool();
        let (n, nl) = (10, 4);
        let (l, bp) = (factor(n), gluing(nl, n, 5));
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let a = explicit_assembly(
                &device,
                CudaGeneration::Modern,
                ForwardKernel::Sparse(MemoryOrder::RowMajor),
                order,
                &l,
                &bp,
                false,
            )
            .unwrap();
            assert_eq!(a.output.order(), order);
            assert_eq!((a.output.nrows(), a.output.ncols()), (n, nl));
            assert_eq!(a.costs.len(), 4, "transfers, RHS conversion, TRSM; no SYRK");
        }
    }
}
