//! Reach-kernel equivalence layer: [`reach::forward_solve`] and
//! [`ReachSolution::gram`] against [`blas::reference::trsm`] and
//! [`blas::reference::syrk`] on the densified operands.
//!
//! The kernel solves `L X = R` over the sparse Cholesky factor, visiting only each
//! right-hand-side column's elimination-tree reach, and contracts `F = Xᵀ X` only over
//! those reaches.  The contract is bit-for-bit identity with the reference for
//! **every** input: on real subdomain factors (3D quadratic heat transfer, 2D and 3D
//! linear elasticity, every fill-reducing ordering) and on random sparse SPD matrices the restricted path must run and match; on the
//! inputs where skipping would not be exact — `-0.0` in the right-hand side, NaN/±Inf
//! in the factor or the right-hand side, a solve that overflows, a non-positive
//! diagonal, a structure not closed under its elimination tree — the kernel must fall
//! back to the dense path and still match (or report the reference's error).

use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_order::OrderingKind;
use feti_solver::cholmod::CholmodLike;
use feti_solver::SolverOptions;
use feti_sparse::reach::{self, ReachSolution};
use feti_sparse::{
    blas, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, DiagKind, MemoryOrder, Permutation,
    Transpose, Triangle,
};

/// The reference solution and Gram matrix on the densified operands, or the
/// reference's error.
fn reference(l: &CscMatrix, rhs_t: &CsrMatrix) -> feti_sparse::Result<(DenseMatrix, DenseMatrix)> {
    let n = l.nrows();
    let m = rhs_t.nrows();
    let dense_l = l.to_dense(MemoryOrder::RowMajor);
    let mut x = DenseMatrix::zeros(n, m, MemoryOrder::RowMajor);
    for (k, i, v) in rhs_t.iter() {
        x.set(i, k, v);
    }
    blas::reference::trsm(
        Triangle::Lower,
        Transpose::No,
        DiagKind::NonUnit,
        1.0,
        &dense_l,
        &mut x,
    )?;
    let mut f = DenseMatrix::zeros(m, m, MemoryOrder::RowMajor);
    blas::reference::syrk(Triangle::Upper, Transpose::Yes, 1.0, &x, 0.0, &mut f);
    f.symmetrize_from(Triangle::Upper);
    Ok((x, f))
}

fn assert_bits(got: &DenseMatrix, expect: &DenseMatrix, context: &str) {
    assert_eq!((got.nrows(), got.ncols()), (expect.nrows(), expect.ncols()), "{context}: shape");
    for i in 0..got.nrows() {
        for j in 0..got.ncols() {
            let (g, e) = (got.get(i, j), expect.get(i, j));
            assert_eq!(g.to_bits(), e.to_bits(), "{context} ({i},{j}): {g:e} vs reference {e:e}");
        }
    }
}

/// Runs the kernel and the reference, asserts identical bits (or the same error)
/// and that every entry outside a column's runs is `+0.0`; returns the solution so
/// callers can check which path ran.
fn check(l: &CscMatrix, rhs_t: &CsrMatrix, context: &str) -> Option<ReachSolution> {
    let got = reach::forward_solve(l, rhs_t);
    let expect = reference(l, rhs_t);
    match (got, expect) {
        (Ok(sol), Ok((x, f))) => {
            assert_bits(sol.solution(), &x, &format!("{context}: X"));
            assert_bits(&sol.gram(), &f, &format!("{context}: F"));
            for k in 0..rhs_t.nrows() {
                let runs = sol.runs(k);
                for i in 0..l.nrows() {
                    if !runs.iter().any(|&(lo, hi)| (lo..hi).contains(&i)) {
                        let v = sol.solution().get(i, k);
                        assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{context}: X({i},{k}) off-run");
                    }
                }
            }
            Some(sol)
        }
        (Err(e1), Err(e2)) => {
            assert_eq!(e1, e2, "{context}: error");
            None
        }
        (got, expect) => panic!(
            "{context}: kernel returned {:?}, reference {:?}",
            got.map(|_| ()),
            expect.map(|_| ())
        ),
    }
}

fn check_restricted(l: &CscMatrix, rhs_t: &CsrMatrix, context: &str) {
    let sol = check(l, rhs_t, context).expect("a valid factor solves");
    assert!(sol.is_restricted(), "{context}: the reach-restricted path must run");
}

fn check_fallback(l: &CscMatrix, rhs_t: &CsrMatrix, context: &str) {
    if let Some(sol) = check(l, rhs_t, context) {
        assert!(!sol.is_restricted(), "{context}: a failed guard must take the dense path");
    }
}

/// Factor of `a` under `opts`, as the explicit assembly extracts it.
fn factor(a: &CsrMatrix, opts: SolverOptions) -> (CscMatrix, Permutation) {
    CholmodLike::analyze(a, opts).factorize(a).expect("SPD").extract_factor()
}

fn all_options() -> Vec<SolverOptions> {
    [
        OrderingKind::Natural,
        OrderingKind::ReverseCuthillMcKee,
        OrderingKind::MinimumDegree,
        OrderingKind::NestedDissection,
    ]
    .into_iter()
    .map(|ordering| SolverOptions { ordering, ..SolverOptions::default() })
    .collect()
}

fn spec(dim: Dim, physics: Physics, order: ElementOrder, elems: usize) -> DecompositionSpec {
    DecompositionSpec {
        dim,
        physics,
        order,
        subdomains_per_side: 2,
        elements_per_subdomain_side: elems,
        subdomains_per_cluster: if dim == Dim::Two { 4 } else { 8 },
    }
}

/// Real subdomain factors and gluing matrices: every subdomain of a 3D quadratic
/// heat problem and of 2D and 3D linear-elasticity problems, under every ordering.
#[test]
fn real_subdomain_factors_match_reference() {
    let problems = [
        ("heat/3D Q2", spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2)),
        ("elasticity/2D", spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 4)),
        ("elasticity/3D", spec(Dim::Three, Physics::LinearElasticity, ElementOrder::Linear, 2)),
    ];
    for (name, spec) in problems {
        let problem = DecomposedProblem::build(&spec);
        for (i, sd) in problem.subdomains.iter().enumerate() {
            for opts in all_options() {
                let (l, perm) = factor(&sd.k_reg, opts);
                let bp = perm.permute_cols(&sd.gluing);
                let context = format!("{name} sd {i} {:?}", opts.ordering);
                check_restricted(&l, &bp, &context);
            }
        }
    }
}

/// Deterministic xorshift stream in `[0, 1)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() * n as f64) as usize % n.max(1)
    }
}

/// A random sparse symmetric positive definite matrix (random pattern, strictly
/// diagonally dominant).
fn random_spd(n: usize, density: f64, rng: &mut Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut diag = vec![1.0; n];
    for i in 0..n {
        for j in 0..i {
            if rng.next() < density {
                let v = rng.next() - 0.5;
                coo.push(i, j, v);
                coo.push(j, i, v);
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
    }
    for (i, d) in diag.into_iter().enumerate() {
        coo.push(i, i, d);
    }
    coo.to_csr()
}

/// A random sparse `Rᵀ` (`m x n`): each row holds up to `per_row` entries, and every
/// third row is empty (a multiplier with no boundary DOF in this subdomain).
fn random_rhs_t(m: usize, n: usize, per_row: usize, rng: &mut Rng) -> CsrMatrix {
    let mut coo = CooMatrix::new(m, n);
    for k in 0..m {
        if k % 3 == 2 || n == 0 {
            continue;
        }
        let mut cols: Vec<usize> = (0..per_row).map(|_| rng.below(n)).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            coo.push(k, c, 2.0 * rng.next() - 1.0);
        }
    }
    coo.to_csr()
}

/// Random SPD factors under every ordering, with right-hand-side widths that are not
/// multiples of the panel width and rows that are empty.
#[test]
fn random_sparse_spd_factors_match_reference() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for (n, density) in [(1, 0.0), (2, 0.5), (7, 0.3), (23, 0.08), (60, 0.04)] {
        let a = random_spd(n, density, &mut rng);
        for opts in all_options() {
            let (l, _) = factor(&a, opts);
            for m in [0, 1, 2, 3, 4, 5, 6, 7, 9, 13] {
                let rhs_t = random_rhs_t(m, n, 1 + m % 4, &mut rng);
                let context = format!("n={n} m={m} {:?}", opts.ordering);
                check_restricted(&l, &rhs_t, &context);
            }
        }
    }
}

/// The degenerate sizes: an empty factor, a 1x1 factor, an all-empty right-hand side.
#[test]
fn empty_and_single_element_shapes_match_reference() {
    let empty = CscMatrix::from_raw_parts(0, 0, vec![0], vec![], vec![]);
    for m in [0, 3] {
        let rhs_t = CsrMatrix::zeros(m, 0);
        check_restricted(&empty, &rhs_t, &format!("n=0 m={m}"));
    }
    let one = CscMatrix::from_raw_parts(1, 1, vec![0, 1], vec![0], vec![2.5]);
    for m in [0, 1, 5] {
        let mut coo = CooMatrix::new(m, 1);
        for k in (0..m).step_by(2) {
            coo.push(k, 0, k as f64 - 1.5);
        }
        check_restricted(&one, &coo.to_csr(), &format!("n=1 m={m}"));
    }
    let mut rng = Rng(7);
    let (l, _) = factor(&random_spd(12, 0.2, &mut rng), SolverOptions::default());
    check_restricted(&l, &CsrMatrix::zeros(6, 12), "all-empty right-hand side");
}

/// A mid-size real factor and right-hand side the guard cases perturb.
fn guard_operands() -> (CscMatrix, CsrMatrix) {
    let spec = spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 4);
    let problem = DecomposedProblem::build(&spec);
    let sd = &problem.subdomains[0];
    let (l, perm) = factor(&sd.k_reg, SolverOptions::default());
    (l, perm.permute_cols(&sd.gluing))
}

fn with_rhs_value(rhs_t: &CsrMatrix, pos: usize, v: f64) -> CsrMatrix {
    let mut r = rhs_t.clone();
    r.values_mut()[pos] = v;
    r
}

fn with_factor_value(l: &CscMatrix, pos: usize, v: f64) -> CscMatrix {
    let mut f = l.clone();
    f.values_mut()[pos] = v;
    f
}

/// Position of the first off-diagonal stored entry of `L`.
fn off_diagonal_pos(l: &CscMatrix) -> usize {
    (0..l.ncols()).find(|&j| l.col_rows(j).len() > 1).map(|j| l.col_ptr()[j] + 1).unwrap()
}

#[test]
fn negative_zero_in_the_rhs_takes_the_dense_path() {
    let (l, rhs_t) = guard_operands();
    for pos in [0, rhs_t.nnz() / 2, rhs_t.nnz() - 1] {
        check_fallback(&l, &with_rhs_value(&rhs_t, pos, -0.0), &format!("-0.0 at {pos}"));
    }
    // A stored +0.0 is exact: it only widens the reach.
    check_restricted(&l, &with_rhs_value(&rhs_t, 0, 0.0), "+0.0 stored");
}

#[test]
fn non_finite_rhs_takes_the_dense_path() {
    let (l, rhs_t) = guard_operands();
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check_fallback(&l, &with_rhs_value(&rhs_t, rhs_t.nnz() / 3, v), &format!("rhs {v}"));
    }
}

#[test]
fn non_finite_factor_takes_the_dense_path() {
    let (l, rhs_t) = guard_operands();
    let off = off_diagonal_pos(&l);
    let last_diag = l.col_ptr()[l.ncols() - 1];
    for pos in [off, last_diag] {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check_fallback(&with_factor_value(&l, pos, v), &rhs_t, &format!("factor[{pos}] = {v}"));
        }
    }
}

#[test]
fn non_positive_diagonal_takes_the_dense_path() {
    let (l, rhs_t) = guard_operands();
    let mid = l.col_ptr()[l.ncols() / 2];
    check_fallback(&with_factor_value(&l, mid, -3.0), &rhs_t, "negative diagonal");
    // A zero diagonal is singular: the reference's error at the reference's index.
    check_fallback(&with_factor_value(&l, mid, 0.0), &rhs_t, "zero diagonal");
    let first_error = reach::forward_solve(&with_factor_value(&l, mid, 0.0), &rhs_t);
    assert!(first_error.is_err());
}

#[test]
fn overflowing_solve_takes_the_dense_path() {
    let (l, rhs_t) = guard_operands();
    // Huge right-hand side and a tiny pivot: the solve overflows to ±Inf (and
    // `0 · Inf` would be NaN), so the restricted result would not be exact.
    let mut big = rhs_t.clone();
    big.values_mut().iter_mut().for_each(|v| *v *= 1e307);
    let mut tiny = l.clone();
    for j in 0..tiny.ncols() {
        let s = tiny.col_ptr()[j];
        tiny.values_mut()[s] *= 1e-10;
    }
    check_fallback(&tiny, &big, "overflow");
}

#[test]
fn structure_not_closed_under_the_etree_takes_the_dense_path() {
    // Column 0 reaches row 3, but its etree parent (row 1) does not: the etree reach
    // 0 → 1 → 2 would miss it.
    let l = CscMatrix::from_raw_parts(
        4,
        4,
        vec![0, 3, 5, 6, 7],
        vec![0, 1, 3, 1, 2, 2, 3],
        vec![2.0, 0.5, 0.25, 2.0, 0.5, 2.0, 2.0],
    );
    let rhs_t = CsrMatrix::from_raw_parts(2, 4, vec![0, 1, 2], vec![0, 2], vec![1.0, -1.0]);
    check_fallback(&l, &rhs_t, "unclosed structure");
    // Entries above the diagonal (not lower triangular) are likewise not skipped.
    let upper = CscMatrix::from_raw_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0, 4.0, 2.0]);
    let rhs_t = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![0], vec![1.0]);
    check_fallback(&upper, &rhs_t, "entry above the diagonal");
}
