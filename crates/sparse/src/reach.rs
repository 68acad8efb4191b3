//! Exact host kernels for the explicit assembly over a sparse Cholesky factor.
//!
//! The explicit FETI assembly computes `X = L⁻¹ R` and `F = Xᵀ X` for a sparse
//! lower-triangular Cholesky factor `L` (`n x n`) and a sparse right-hand side
//! `R = P B̃ᵀ` (`n x m`) whose columns each touch only a few boundary DOFs.  Column
//! `k` of `X` is nonzero only on the *reach* of column `k` of `R` in the graph of `L`:
//! for a Cholesky factor, the union of the elimination-tree paths from its nonzero
//! rows to the root (the etree parent of column `j` is the first row below the
//! diagonal in that column; arXiv 2509.21037 exploits the same structure on the
//! device).  [`forward_solve`] visits only those rows and [`ReachSolution::gram`]
//! contracts only over them, without ever densifying `L`.
//!
//! # Bit-for-bit contract
//!
//! The results are bit-for-bit identical to [`blas::reference::trsm`] (lower,
//! non-transposed, non-unit, `alpha = 1`) and [`blas::reference::syrk`] (upper,
//! transposed, `alpha = 1`, `beta = 0`, then mirrored) on the densified operands, for
//! every input.  The forward solve is column-oriented, so each row still receives its
//! subtractions in ascending column order and is divided once by its diagonal — the
//! reference's operation sequence minus terms that multiply an exact `+0.0`.  A
//! skipped term `0 · x` with finite `x` is `±0.0`, and adding or subtracting `±0.0`
//! changes no accumulator that is not `-0.0`; an accumulator that starts finite and
//! not `-0.0` never becomes `-0.0`.  Rows outside the reach solve to `+0.0` when the
//! factor is finite and its diagonal positive.  So the skip is exact under these
//! guards, checked in one O(nnz) scan:
//!
//! * every column of `L` starts with a positive diagonal, all values are finite, and
//!   its structure is closed under its elimination tree (every off-diagonal row of a
//!   column is an etree ancestor of it, which holds for any Cholesky factor and makes
//!   the etree reach cover the graph reach);
//! * every stored value of `R` is finite and not `-0.0`;
//! * every solved panel is finite.
//!
//! If any guard fails the whole solve falls back to the dense path
//! ([`blas::trsm`] on the densified operands, then the SYRK over full rows).

use crate::blas;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::{DiagKind, MemoryOrder, Result, Transpose, Triangle};

/// Right-hand-side columns solved together in one interleaved panel.
const PANEL: usize = 4;

/// Marker for "no etree parent" / "unmarked".
const NONE: usize = usize::MAX;

/// A half-open row range `[start, end)`.
type Run = (usize, usize);

/// The forward solution `X = L⁻¹ R` of [`forward_solve`], with the row runs outside
/// of which each column is exactly `+0.0`.
#[derive(Debug, Clone)]
pub struct ReachSolution {
    /// `X`, `n x m`, column-major (each column contiguous).
    x: DenseMatrix,
    /// Per column of `X`: ascending, disjoint runs covering every row that may be
    /// nonzero (or any value other than `+0.0`).
    runs: Vec<Vec<Run>>,
    restricted: bool,
}

impl ReachSolution {
    /// The solution `X` (`n x m`, column-major).
    #[must_use]
    pub fn solution(&self) -> &DenseMatrix {
        &self.x
    }

    /// Consumes the solution and returns `X` in the requested memory order.
    #[must_use]
    pub fn into_solution(self, order: MemoryOrder) -> DenseMatrix {
        self.x.into_order(order)
    }

    /// `true` if the solve ran restricted to the etree reaches; `false` if a guard
    /// sent it down the dense path (the result is the same either way).
    #[must_use]
    pub fn is_restricted(&self) -> bool {
        self.restricted
    }

    /// The row runs of column `k` of `X` outside of which it is exactly `+0.0`.
    #[must_use]
    pub fn runs(&self, k: usize) -> &[(usize, usize)] {
        &self.runs[k]
    }

    /// `F = Xᵀ X` as a full symmetric `m x m` row-major matrix.
    ///
    /// Bit-for-bit identical to [`blas::reference::syrk`] (upper triangle,
    /// `Transpose::Yes`, `alpha = 1`, `beta = 0` on a zeroed `F`) followed by
    /// [`DenseMatrix::symmetrize_from`]: each inner product keeps one accumulator and
    /// ascending row order, but runs only over the runs of its row — every skipped
    /// product has a `+0.0` factor and is added to an accumulator that is never `-0.0`.
    /// The output is walked in [`blas::kernel_block_size`]-square cache blocks of 1x4
    /// register tiles, each contracting over its row's runs intersected with the union
    /// of its four columns' runs (which skips still more such no-op products); the
    /// block size never changes a bit.
    #[must_use]
    pub fn gram(&self) -> DenseMatrix {
        let (n, m) = (self.x.nrows(), self.x.ncols());
        let x = self.x.as_slice();
        // Padding lanes of a partial tile read zeros and are never stored.
        let pad = vec![0.0; n];
        let col = |k: usize| if k < m { &x[k * n..(k + 1) * n] } else { &pad[..] };
        let mut f = DenseMatrix::zeros(m, m, MemoryOrder::RowMajor);
        let tile_runs: Vec<Vec<Run>> =
            self.runs.chunks(PANEL).map(|lanes| union_runs(lanes.iter())).collect();
        let nb = blas::kernel_block_size().max(PANEL) / PANEL * PANEL;
        let mut common: Vec<Run> = Vec::new();
        for b0 in (0..m).step_by(nb) {
            let b1 = (b0 + nb).min(m);
            // Upper triangle: rows a ≤ b of the column block.
            for a0 in (0..b1).step_by(nb) {
                let a1 = (a0 + nb).min(b1);
                for t0 in (b0..b1).step_by(PANEL) {
                    let lanes = [col(t0), col(t0 + 1), col(t0 + 2), col(t0 + 3)];
                    for a in a0..a1.min(t0 + PANEL) {
                        intersect_runs(&self.runs[a], &tile_runs[t0 / PANEL], &mut common);
                        let acc = dot_tile(col(a), lanes, &common);
                        for (b, &v) in (t0..).zip(&acc) {
                            if a <= b && b < m {
                                // The reference's `alpha * acc + beta * old` with
                                // alpha = 1, beta = 0 and a zeroed output.
                                let v = 1.0 * v + 0.0 * 0.0;
                                f.set(a, b, v);
                                f.set(b, a, v);
                            }
                        }
                    }
                }
            }
        }
        f
    }
}

/// Inner products of one column with [`PANEL`] lanes over `runs`, one accumulator
/// per lane in ascending row order.
fn dot_tile(xa: &[f64], lanes: [&[f64]; PANEL], runs: &[Run]) -> [f64; PANEL] {
    let mut acc = [0.0f64; PANEL];
    for &(lo, hi) in runs {
        let [x0, x1, x2, x3] = lanes.map(|v| &v[lo..hi]);
        let lanes = x0.iter().zip(x1).zip(x2).zip(x3);
        for (&av, (((&v0, &v1), &v2), &v3)) in xa[lo..hi].iter().zip(lanes) {
            acc[0] += av * v0;
            acc[1] += av * v1;
            acc[2] += av * v2;
            acc[3] += av * v3;
        }
    }
    acc
}

/// Solves `L X = R` for a lower-triangular CSC factor `L` (`n x n`, non-unit
/// diagonal) and a sparse right-hand side given as `rhs_t = Rᵀ` in CSR (`m x n`:
/// row `k` holds column `k` of `R`, e.g. the permuted gluing matrix `B̃ Pᵀ`).
///
/// Columns of `R` are solved in interleaved panels of four, gathered in order of
/// their first reach row; each panel visits only the union of its columns' etree
/// reaches, in ascending order.  The result (and [`ReachSolution::gram`]) is
/// bit-for-bit identical to the reference kernels on the densified operands; when a
/// guard of the module docs fails, the dense path computes it instead.
///
/// # Errors
/// Returns [`crate::SparseError::SingularDiagonal`] if `L` has a zero or missing
/// diagonal entry, at the reference's index.
///
/// # Panics
/// Panics if `L` is not square or `rhs_t` does not have `n` columns.
pub fn forward_solve(l: &CscMatrix, rhs_t: &CsrMatrix) -> Result<ReachSolution> {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "forward_solve: L must be square");
    assert_eq!(rhs_t.ncols(), n, "forward_solve: Rᵀ must have n columns");
    let m = rhs_t.nrows();
    let exact_rhs =
        rhs_t.values().iter().all(|&v| v.is_finite() && !(v == 0.0 && v.is_sign_negative()));
    let parent = if exact_rhs { etree_if_exact(l) } else { None };
    let Some(parent) = parent else {
        return dense_forward_solve(l, rhs_t);
    };

    // Per-column reaches: walk the etree from every stored row, stopping at rows
    // already visited for this column.
    let mut mark = vec![NONE; n];
    let mut nodes: Vec<usize> = Vec::new();
    let runs: Vec<Vec<Run>> = (0..m)
        .map(|k| {
            nodes.clear();
            for &r in rhs_t.row_cols(k) {
                let mut i = r;
                while i != NONE && mark[i] != k {
                    mark[i] = k;
                    nodes.push(i);
                    i = parent[i];
                }
            }
            nodes.sort_unstable();
            runs_of(&nodes)
        })
        .collect();

    // Gather order: columns whose reaches start close together share a panel; all-zero
    // columns (empty reach) solve to +0.0 and are skipped.
    let mut order: Vec<usize> = (0..m).filter(|&k| !runs[k].is_empty()).collect();
    order.sort_by_key(|&k| runs[k][0].0);

    let mut x = DenseMatrix::zeros(n, m, MemoryOrder::ColMajor);
    let mut w = vec![[0.0f64; PANEL]; n];
    let (col_ptr, row_idx, values) = (l.col_ptr(), l.row_idx(), l.values());
    for cols in order.chunks(PANEL) {
        let rows = union_runs(cols.iter().map(|&k| &runs[k]));
        for &(lo, hi) in &rows {
            w[lo..hi].fill([0.0; PANEL]);
        }
        for (c, &k) in cols.iter().enumerate() {
            for (&i, &v) in rhs_t.row_cols(k).iter().zip(rhs_t.row_values(k)) {
                w[i][c] = v;
            }
        }
        // Column-oriented forward substitution: divide row j by its diagonal once all
        // earlier columns have been subtracted from it, then push it down column j.
        // Lanes beyond the panel's width stay +0.0 throughout.
        for &(lo, hi) in &rows {
            for j in lo..hi {
                let (s, e) = (col_ptr[j], col_ptr[j + 1]);
                let d = values[s];
                let mut xj = w[j];
                for v in &mut xj {
                    *v /= d;
                }
                w[j] = xj;
                for (&i, &lij) in row_idx[s + 1..e].iter().zip(&values[s + 1..e]) {
                    let wi = &mut w[i];
                    for c in 0..PANEL {
                        wi[c] -= lij * xj[c];
                    }
                }
            }
        }
        if !rows.iter().all(|&(lo, hi)| w[lo..hi].iter().flatten().all(|v| v.is_finite())) {
            // A skipped `0 · x` is a no-op only for finite `x`.
            return dense_forward_solve(l, rhs_t);
        }
        let xs = x.as_mut_slice();
        for (c, &k) in cols.iter().enumerate() {
            for &(lo, hi) in &rows {
                for i in lo..hi {
                    xs[k * n + i] = w[i][c];
                }
            }
        }
    }
    Ok(ReachSolution { x, runs, restricted: true })
}

/// The etree parents of `L` (`NONE` for a root) if every skip guard on the factor
/// holds: each column starts at a positive diagonal, every value is finite, and
/// every off-diagonal row of a column is a row of its parent's column (so each is an
/// etree ancestor).  `None` otherwise.
fn etree_if_exact(l: &CscMatrix) -> Option<Vec<usize>> {
    let n = l.ncols();
    if !l.values().iter().all(|v| v.is_finite()) {
        return None;
    }
    let mut parent = vec![NONE; n];
    for j in 0..n {
        let rows = l.col_rows(j);
        if rows.first() != Some(&j) || l.col_values(j)[0] <= 0.0 {
            return None;
        }
        parent[j] = rows.get(1).copied().unwrap_or(NONE);
    }
    // Children as linked lists, then one pass per parent column with its rows marked.
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for j in (0..n).rev() {
        if parent[j] != NONE {
            next[j] = head[parent[j]];
            head[parent[j]] = j;
        }
    }
    let mut mark = vec![NONE; n];
    for p in 0..n {
        for &i in l.col_rows(p) {
            mark[i] = p;
        }
        let mut j = head[p];
        while j != NONE {
            if l.col_rows(j)[2..].iter().any(|&i| mark[i] != p) {
                return None;
            }
            j = next[j];
        }
    }
    Some(parent)
}

/// The dense path: [`blas::trsm`] on the densified operands, every row of every
/// column treated as possibly nonzero.
fn dense_forward_solve(l: &CscMatrix, rhs_t: &CsrMatrix) -> Result<ReachSolution> {
    let n = l.nrows();
    let dense_l = l.to_dense(MemoryOrder::ColMajor);
    let mut x = DenseMatrix::zeros(n, rhs_t.nrows(), MemoryOrder::ColMajor);
    for (k, i, v) in rhs_t.iter() {
        x.set(i, k, v);
    }
    blas::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &dense_l, &mut x)?;
    let full = if n == 0 { Vec::new() } else { vec![(0, n)] };
    Ok(ReachSolution { x, runs: vec![full; rhs_t.nrows()], restricted: false })
}

/// Coalesces a sorted, duplicate-free row list into runs.
fn runs_of(sorted: &[usize]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for &i in sorted {
        match runs.last_mut() {
            Some(last) if last.1 == i => last.1 = i + 1,
            _ => runs.push((i, i + 1)),
        }
    }
    runs
}

/// The union of several run lists, as ascending disjoint runs.
fn union_runs<'a>(lists: impl Iterator<Item = &'a Vec<Run>>) -> Vec<Run> {
    let mut all: Vec<Run> = lists.flatten().copied().collect();
    all.sort_unstable();
    let mut out: Vec<Run> = Vec::with_capacity(all.len());
    for (lo, hi) in all {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// The intersection of two ascending disjoint run lists, written to `out`.
fn intersect_runs(a: &[Run], b: &[Run], out: &mut Vec<Run>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_lists_coalesce_union_and_intersect() {
        assert_eq!(runs_of(&[0, 1, 2, 5, 7, 8]), vec![(0, 3), (5, 6), (7, 9)]);
        assert!(runs_of(&[]).is_empty());
        let a = vec![(0, 3), (5, 6), (7, 9)];
        let b = vec![(2, 6), (9, 12)];
        assert_eq!(union_runs([&a, &b].into_iter()), vec![(0, 6), (7, 12)]);
        let mut out = Vec::new();
        intersect_runs(&a, &b, &mut out);
        assert_eq!(out, vec![(2, 3), (5, 6)]);
        intersect_runs(&a, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn etree_guard_rejects_structures_not_closed_under_the_etree() {
        // Column 0 reaches row 3 directly, but its etree parent (row 1) does not:
        // the etree path 0 → 1 → 2 would miss row 3.
        let l = CscMatrix::from_raw_parts(
            4,
            4,
            vec![0, 3, 5, 6, 7],
            vec![0, 1, 3, 1, 2, 2, 3],
            vec![2.0, 0.5, 0.25, 2.0, 0.5, 2.0, 2.0],
        );
        assert!(etree_if_exact(&l).is_none());
        let rhs_t = CsrMatrix::from_raw_parts(1, 4, vec![0, 1], vec![0], vec![1.0]);
        let sol = forward_solve(&l, &rhs_t).unwrap();
        assert!(!sol.is_restricted());
        let mut expect = DenseMatrix::zeros(4, 1, MemoryOrder::RowMajor);
        expect.set(0, 0, 1.0);
        let dense_l = l.to_dense(MemoryOrder::RowMajor);
        blas::reference::trsm(
            Triangle::Lower,
            Transpose::No,
            DiagKind::NonUnit,
            1.0,
            &dense_l,
            &mut expect,
        )
        .unwrap();
        for i in 0..4 {
            assert_eq!(sol.solution().get(i, 0).to_bits(), expect.get(i, 0).to_bits());
        }
        // Closing the structure (fill at (3, 1) and (3, 2)) makes the etree reach exact.
        let closed = CscMatrix::from_raw_parts(
            4,
            4,
            vec![0, 3, 6, 8, 9],
            vec![0, 1, 3, 1, 2, 3, 2, 3, 3],
            vec![2.0, 0.5, 0.25, 2.0, 0.5, 0.0, 2.0, 0.0, 2.0],
        );
        assert_eq!(etree_if_exact(&closed), Some(vec![1, 2, 3, NONE]));
        assert!(forward_solve(&closed, &rhs_t).unwrap().is_restricted());
    }
}
