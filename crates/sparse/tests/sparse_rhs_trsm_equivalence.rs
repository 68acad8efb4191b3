//! Sparse-operand kernel-equivalence layer: [`blas::trsm`] and [`blas::syrk`] on the
//! operand shapes of the sparsity-aware explicit assembly (arXiv 2509.21037) against
//! the scalar reference loops in [`blas::reference`].
//!
//! The kernels skip every term that provably multiplies an exact zero — a factor
//! row's zero prefix, a right-hand-side column's zero prefix, a SYRK operand row's
//! zero prefix — and fall back to full ranges wherever a skip could change a bit.  So
//! the contract checked here is bit-for-bit identity with the reference for **every**
//! input.  Boundary patterns sweep the edge cases of the assembly: no boundary
//! columns (an all-zero RHS), exactly one, a scattered subset, a trailing half and
//! all of them; shapes sweep the blocking edges — empty, single element,
//! one-below/at/one-above the configured block size.  The guard cases cover the
//! inputs on which a naive skip would not be exact: `-0.0` right-hand-side entries,
//! NaN/±Inf operands, a negative `alpha`, a negative diagonal, a solve that
//! overflows to infinity, and a real Cholesky factor of an assembled subdomain.  The
//! unit tests in `src/blas.rs` pin the rest of the boundary-kernel contract: a
//! singular pivot inside a skipped region is reported at the reference's index, and
//! the SYRK result does not depend on the (internal) block size.

use feti_sparse::{blas, DenseMatrix, DiagKind, MemoryOrder, Transpose, Triangle};
use proptest::prelude::*;

fn assert_bits(got: &DenseMatrix, expect: &DenseMatrix, context: &str) {
    assert_eq!((got.nrows(), got.ncols()), (expect.nrows(), expect.ncols()), "{context}: shape");
    for i in 0..got.nrows() {
        for j in 0..got.ncols() {
            let (g, e) = (got.get(i, j), expect.get(i, j));
            assert_eq!(g.to_bits(), e.to_bits(), "{context} ({i},{j}): {g:e} vs reference {e:e}");
        }
    }
}

fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs [`blas::trsm`] and [`blas::reference::trsm`] on copies of `b` and asserts
/// bit-identical solutions (or the same error).
fn check_trsm(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &DenseMatrix,
    b: &DenseMatrix,
    context: &str,
) -> DenseMatrix {
    let mut got = b.clone();
    let mut expect = b.clone();
    let r1 = blas::trsm(uplo, trans, diag, alpha, a, &mut got);
    let r2 = blas::reference::trsm(uplo, trans, diag, alpha, a, &mut expect);
    assert_eq!(r1, r2, "{context}: result");
    if r1.is_ok() {
        assert_bits(&got, &expect, context);
    }
    got
}

/// Runs [`blas::syrk`] and [`blas::reference::syrk`] on copies of `c` and asserts
/// bit-identical outputs.
fn check_syrk(
    uplo: Triangle,
    trans: Transpose,
    alpha: f64,
    a: &DenseMatrix,
    beta: f64,
    c: &DenseMatrix,
    context: &str,
) {
    let mut got = c.clone();
    let mut expect = c.clone();
    blas::syrk(uplo, trans, alpha, a, beta, &mut got);
    blas::reference::syrk(uplo, trans, alpha, a, beta, &mut expect);
    assert_bits(&got, &expect, context);
}

/// Deterministic dense matrix with values derived from a seed; `diag_boost`
/// conditions triangular solves.
fn filled(rows: usize, cols: usize, order: MemoryOrder, seed: u64, diag_boost: f64) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(rows, cols, order);
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    for i in 0..rows {
        for j in 0..cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let boost = if i == j { diag_boost } else { 0.0 };
            a.set(i, j, 2.0 * u - 1.0 + boost);
        }
    }
    a
}

/// A triangular factor whose rows carry zero prefixes (lower) or zero suffixes
/// (upper) — the structure the factor-row skip exploits — with diagonal `d(i)`.
fn banded(n: usize, uplo: Triangle, seed: u64, d: impl Fn(usize) -> f64) -> DenseMatrix {
    let mut a = filled(n, n, MemoryOrder::ColMajor, seed, 0.0);
    for i in 0..n {
        for j in 0..n {
            let off = i.abs_diff(j);
            if off > 0 && (off > 3 || (i + 2 * j) % 5 == 0) {
                a.set(i, j, 0.0);
            }
        }
        a.set(i, i, d(i));
    }
    match uplo {
        Triangle::Lower => a,
        Triangle::Upper => a.transposed(),
    }
}

/// Zeroes every row of `m` whose index is not in `active`, leaving the boundary
/// structure a gathered `Bᵀ` panel has: nonzero entries only on boundary-DOF rows.
fn keep_rows(m: &mut DenseMatrix, active: &[usize]) {
    for i in 0..m.nrows() {
        if !active.contains(&i) {
            for j in 0..m.ncols() {
                m.set(i, j, 0.0);
            }
        }
    }
}

/// Zeroes every column of `m` whose index is not in `active` (the `Trans::No`
/// orientation, where the contraction dimension runs along columns).
fn keep_cols(m: &mut DenseMatrix, active: &[usize]) {
    for j in 0..m.ncols() {
        if !active.contains(&j) {
            for i in 0..m.nrows() {
                m.set(i, j, 0.0);
            }
        }
    }
}

/// The boundary-DOF patterns exercised per size: none, one, scattered, trailing
/// half, and all (where there is no right-hand-side structure to skip).
fn boundary_patterns(n: usize) -> Vec<Vec<usize>> {
    let mut pats = vec![Vec::new()];
    if n > 0 {
        pats.push(vec![n / 2]);
        pats.push((0..n).step_by(3).collect());
        pats.push((n / 2..n).collect());
        pats.push((0..n).collect());
    }
    pats
}

/// A right-hand side whose column `j` is nonzero only on a window of rows, the dense
/// image of a sparse `B̃ᵀ`.
fn window_rhs(n: usize, ncols: usize, order: MemoryOrder, seed: u64) -> DenseMatrix {
    let mut b = filled(n, ncols, order, seed, 0.0);
    for j in 0..ncols {
        let lo = (j * 5 + seed as usize) % (n + 1);
        let hi = (lo + 1 + j % 4).min(n);
        for i in (0..lo).chain(hi..n) {
            b.set(i, j, 0.0);
        }
    }
    b
}

/// The blocking edge sizes: empty, single, below/at/above the live block size.
fn edge_sizes() -> Vec<usize> {
    let nb = blas::kernel_block_size();
    vec![0, 1, 2, nb - 1, nb, nb + 1]
}

const ORDERS: [MemoryOrder; 2] = [MemoryOrder::RowMajor, MemoryOrder::ColMajor];
const UPLOS: [Triangle; 2] = [Triangle::Upper, Triangle::Lower];
const TRANS: [Transpose; 2] = [Transpose::No, Transpose::Yes];
const DIAGS: [DiagKind; 2] = [DiagKind::NonUnit, DiagKind::Unit];

#[test]
fn sparse_rhs_trsm_matches_reference_on_boundary_patterns() {
    for n in edge_sizes() {
        for nrhs in [0usize, 1, 5] {
            for active in boundary_patterns(n) {
                for order in ORDERS {
                    for uplo in UPLOS {
                        for trans in TRANS {
                            for diag in DIAGS {
                                let a = banded(n, uplo, 19, |i| 4.0 + i as f64);
                                let a = a.into_order(order);
                                let mut b = filled(n, nrhs, order, 23, 0.0);
                                keep_rows(&mut b, &active);
                                check_trsm(
                                    uplo,
                                    trans,
                                    diag,
                                    1.5,
                                    &a,
                                    &b,
                                    &format!(
                                        "trsm n={n} nrhs={nrhs} boundary={}/{n} {order:?} \
                                         {uplo:?} {trans:?} {diag:?}",
                                        active.len()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn boundary_syrk_matches_reference_on_boundary_patterns() {
    for n in edge_sizes() {
        for k in [0usize, 1, 3, 17] {
            for active in boundary_patterns(k) {
                for order in ORDERS {
                    for uplo in UPLOS {
                        for trans in TRANS {
                            let (rows, cols) = match trans {
                                Transpose::No => (n, k),
                                Transpose::Yes => (k, n),
                            };
                            let mut a = filled(rows, cols, order, 7, 0.0);
                            match trans {
                                Transpose::No => keep_cols(&mut a, &active),
                                Transpose::Yes => keep_rows(&mut a, &active),
                            }
                            let c = filled(n, n, order, 13, 0.0);
                            check_syrk(
                                uplo,
                                trans,
                                0.8,
                                &a,
                                0.4,
                                &c,
                                &format!(
                                    "syrk n={n} k={k} boundary={}/{k} {order:?} {uplo:?} {trans:?}",
                                    active.len()
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// With every operand entry nonzero there is no zero structure to exploit, and the
/// kernels must reproduce the dense reference loops bit-for-bit.
#[test]
fn fully_dense_operands_degenerate_to_dense_kernels_bit_for_bit() {
    let nb = blas::kernel_block_size();
    for n in [1usize, 2, nb - 1, nb, nb + 1] {
        for order in ORDERS {
            for uplo in UPLOS {
                for trans in TRANS {
                    let a = filled(n, n, order, 41, 4.0 + n as f64);
                    let b = filled(n, 5, order, 43, 0.0);
                    let ctx = format!("trsm dense n={n} {order:?} {uplo:?} {trans:?}");
                    check_trsm(uplo, trans, DiagKind::NonUnit, 1.0, &a, &b, &ctx);

                    let ga = match trans {
                        Transpose::No => filled(n, 7, order, 47, 0.0),
                        Transpose::Yes => filled(7, n, order, 47, 0.0),
                    };
                    let c = filled(n, n, order, 53, 0.0);
                    let ctx = format!("syrk dense n={n} {order:?} {uplo:?} {trans:?}");
                    check_syrk(uplo, trans, 1.0, &ga, 0.0, &c, &ctx);
                }
            }
        }
    }
}

/// A `-0.0` where the right-hand side is zero starts an accumulator at `-0.0`, and
/// subtracting a zero product can then flip it to `+0.0`: the kernels must not skip.
#[test]
fn negative_zero_rhs_entries_match_reference() {
    let n = 12;
    for uplo in UPLOS {
        for trans in TRANS {
            for diag in DIAGS {
                // Mixed-sign factor entries, so zero products carry both signs.
                let a = banded(n, uplo, 3, |i| 2.0 + i as f64);
                let mut b = window_rhs(n, 6, MemoryOrder::RowMajor, 5);
                for j in 0..6 {
                    for i in 0..n {
                        if b.get(i, j) == 0.0 && (i + j) % 2 == 0 {
                            b.set(i, j, -0.0);
                        }
                    }
                }
                let ctx = format!("-0.0 rhs {uplo:?} {trans:?} {diag:?}");
                check_trsm(uplo, trans, diag, 1.0, &a, &b, &ctx);
            }
        }
    }
}

/// NaN and ±Inf turn a skipped `0 · x` into NaN in the reference: with a non-finite
/// operand anywhere the kernels must take full ranges.
#[test]
fn non_finite_operands_match_reference() {
    let n = 10;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for uplo in UPLOS {
            for trans in TRANS {
                let lower = matches!(
                    (uplo, trans),
                    (Triangle::Lower, Transpose::No) | (Triangle::Upper, Transpose::Yes)
                );
                let b = window_rhs(n, 5, MemoryOrder::ColMajor, 9);
                // In A: a strict-triangle entry of a row the right-hand-side skip
                // would not solve (forward: the first rows; backward: the last ones).
                let mut a = banded(n, uplo, 11, |i| 3.0 + i as f64);
                let (r, c) = if lower { (1, 0) } else { (n - 2, n - 1) };
                match trans {
                    Transpose::No => a.set(r, c, bad),
                    Transpose::Yes => a.set(c, r, bad),
                }
                let ctx = format!("{bad} in A {uplo:?} {trans:?}");
                check_trsm(uplo, trans, DiagKind::NonUnit, 1.0, &a, &b, &ctx);

                // In B: a value inside one column's active window.
                let a = banded(n, uplo, 11, |i| 3.0 + i as f64);
                let mut b_bad = b.clone();
                let j = 2;
                let i = (0..n).find(|&i| b.get(i, j) != 0.0).unwrap_or(0);
                b_bad.set(i, j, bad);
                let ctx = format!("{bad} in B {uplo:?} {trans:?}");
                check_trsm(uplo, trans, DiagKind::NonUnit, 1.0, &a, &b_bad, &ctx);
            }
        }
        // SYRK: a non-finite entry meets the zero prefix of another row.
        for trans in TRANS {
            let mut ops = window_rhs(n, 6, MemoryOrder::RowMajor, 4);
            ops.set(0, 3, bad);
            let a = match trans {
                Transpose::Yes => ops,
                Transpose::No => ops.transposed(),
            };
            let c = filled(6, 6, MemoryOrder::RowMajor, 2, 0.0);
            for uplo in UPLOS {
                check_syrk(uplo, trans, 1.0, &a, 0.5, &c, &format!("{bad} in syrk {trans:?}"));
            }
        }
    }
}

/// A negative `alpha` turns the right-hand side's `+0.0` entries into `-0.0`.
#[test]
fn negative_alpha_matches_reference() {
    let n = 14;
    for uplo in UPLOS {
        for trans in TRANS {
            for diag in DIAGS {
                let a = banded(n, uplo, 21, |i| 1.5 + i as f64);
                let b = window_rhs(n, 7, MemoryOrder::ColMajor, 3);
                let ctx = format!("alpha<0 {uplo:?} {trans:?} {diag:?}");
                check_trsm(uplo, trans, diag, -1.25, &a, &b, &ctx);
            }
        }
    }
}

/// A negative pivot turns a leading zero row's solution into `-0.0`, so the
/// right-hand-side prefix cannot be skipped; the factor-row skip still can.
#[test]
fn negative_diagonal_matches_reference() {
    let n = 13;
    for uplo in UPLOS {
        for trans in TRANS {
            let a =
                banded(n, uplo, 31, |i| if i % 3 == 1 { -2.0 - i as f64 } else { 2.0 + i as f64 });
            for order in ORDERS {
                let b = window_rhs(n, 6, order, 8);
                let ctx = format!("negative diagonal {uplo:?} {trans:?} {order:?}");
                check_trsm(
                    uplo,
                    trans,
                    DiagKind::NonUnit,
                    1.0,
                    &a.clone().into_order(order),
                    &b,
                    &ctx,
                );
            }
        }
    }
}

/// Tiny pivots make the solve overflow to ±Inf; after that a skipped `0 · Inf` would
/// hide the reference's NaN, so the overflowing panel is solved again in full.
#[test]
fn overflowing_solve_matches_reference() {
    let n = 16;
    for uplo in UPLOS {
        for trans in TRANS {
            let a = banded(n, uplo, 17, |_| 1e-90);
            let mut b = window_rhs(n, 9, MemoryOrder::RowMajor, 1);
            for v in b.as_mut_slice() {
                *v *= 1e120;
            }
            let ctx = format!("overflow {uplo:?} {trans:?}");
            let x = check_trsm(uplo, trans, DiagKind::NonUnit, 1.0, &a, &b, &ctx);
            assert!(
                x.as_slice().iter().any(|v| !v.is_finite()),
                "{ctx}: the case must really overflow"
            );
        }
    }
}

/// Dense Cholesky factor `L` (lower, `A = L Lᵀ`) of a symmetric positive-definite
/// matrix, the factor the explicit assembly solves with.
fn cholesky(a: &DenseMatrix) -> DenseMatrix {
    let n = a.nrows();
    let mut l = DenseMatrix::zeros(n, n, MemoryOrder::ColMajor);
    for j in 0..n {
        let mut d = a.get(j, j);
        for p in 0..j {
            d -= l.get(j, p) * l.get(j, p);
        }
        let d = d.sqrt();
        l.set(j, j, d);
        for i in j + 1..n {
            let mut v = a.get(i, j);
            for p in 0..j {
                v -= l.get(i, p) * l.get(j, p);
            }
            l.set(i, j, v / d);
        }
    }
    l
}

/// The explicit-assembly operands of one real subdomain: the Cholesky factor of an
/// assembled trilinear (Q1) heat-transfer stiffness on an `m³`-element cube, with its
/// bottom face held by a penalty, and the dense image of `B̃ᵀ` — one signed unit
/// column per node on the two interface faces `x = m` and `y = m`.
fn assembled_subdomain(m: usize) -> (DenseMatrix, DenseMatrix) {
    let s = m + 1;
    let n = s * s * s;
    let node = |x: usize, y: usize, z: usize| x + s * (y + s * z);
    let mut k = DenseMatrix::zeros(n, n, MemoryOrder::ColMajor);
    for ez in 0..m {
        for ey in 0..m {
            for ex in 0..m {
                let corners: Vec<(usize, [usize; 3])> = (0..8)
                    .map(|c| {
                        let (dx, dy, dz) = (c & 1, (c >> 1) & 1, (c >> 2) & 1);
                        (node(ex + dx, ey + dy, ez + dz), [dx, dy, dz])
                    })
                    .collect();
                for &(p, cp) in &corners {
                    for &(q, cq) in &corners {
                        // Unit-cube Q1 Laplacian: 1/3 on the diagonal, 0 along an
                        // edge, -1/12 across a face or the body diagonal.
                        let differ = (0..3).filter(|&d| cp[d] != cq[d]).count();
                        let v = [4.0, 0.0, -1.0, -1.0][differ] / 12.0;
                        k.add_assign_at(p, q, v);
                    }
                }
            }
        }
    }
    for y in 0..s {
        for x in 0..s {
            k.add_assign_at(node(x, y, 0), node(x, y, 0), 1.0);
        }
    }
    let interface: Vec<usize> = (0..n)
        .filter(|&i| {
            let (x, y) = (i % s, (i / s) % s);
            x == m || y == m
        })
        .collect();
    let mut bt = DenseMatrix::zeros(n, interface.len(), MemoryOrder::RowMajor);
    for (j, &i) in interface.iter().enumerate() {
        bt.set(i, j, if j % 2 == 0 { 1.0 } else { -1.0 });
    }
    (cholesky(&k), bt)
}

/// The assembly's own operands: `X = L⁻¹ B̃ᵀ` and `F̃ = Xᵀ X`, in the memory orders of
/// the paper-scale configuration (column-major factor, row-major right-hand side) and
/// their flips.
#[test]
fn real_subdomain_factor_matches_reference() {
    let (l, bt) = assembled_subdomain(5);
    assert!(l.as_slice().iter().filter(|&&v| v == 0.0).count() > l.len() / 2);
    for factor_order in ORDERS {
        for rhs_order in ORDERS {
            let l = l.clone().into_order(factor_order);
            let bt = bt.clone().into_order(rhs_order);
            let ctx = format!("real factor {factor_order:?}/{rhs_order:?}");
            let x = check_trsm(
                Triangle::Lower,
                Transpose::No,
                DiagKind::NonUnit,
                1.0,
                &l,
                &bt,
                &format!("{ctx} forward"),
            );
            // The backward solve of the TRSM path: Lᵀ Y = X.
            check_trsm(
                Triangle::Lower,
                Transpose::Yes,
                DiagKind::NonUnit,
                1.0,
                &l,
                &x,
                &format!("{ctx} backward"),
            );
            let nl = bt.ncols();
            let f = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
            check_syrk(Triangle::Upper, Transpose::Yes, 1.0, &x, 0.0, &f, &format!("{ctx} syrk"));
            check_syrk(Triangle::Lower, Transpose::Yes, 1.0, &x, 0.0, &f, &format!("{ctx} syrk"));
        }
    }
    // Pin that the operands really are of the skipping kind: a mostly-zero factor
    // (checked above) and a zero prefix in every column of B̃ᵀ.
    let ranges = blas::column_active_ranges(&bt);
    assert!(ranges.iter().all(|&(lo, hi)| lo > 0 && hi == lo + 1));
}

/// Decodes a bitmask into the set of active (boundary) indices below `n`.
fn mask_rows(n: usize, mask: u64) -> Vec<usize> {
    (0..n).filter(|&i| mask >> (i % 64) & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_rhs_trsm_stays_within_ulps_on_random_boundary_masks(
        n in 0usize..32,
        nrhs in 0usize..9,
        seed in 0u64..1000,
        mask in 0u64..u64::MAX,
        uplo_sel in 0usize..2,
        trans_sel in 0usize..2,
        diag_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let trans = TRANS[trans_sel];
        let diag = DIAGS[diag_sel];
        let a = banded(n, uplo, seed, |i| 3.0 + i as f64);
        let mut b0 = filled(n, nrhs, MemoryOrder::ColMajor, seed ^ 5, 0.0);
        keep_rows(&mut b0, &mask_rows(n, mask));
        let mut b_ref = b0.clone();
        let mut b_got = b0;
        blas::reference::trsm(uplo, trans, diag, 0.7, &a, &mut b_ref).unwrap();
        blas::trsm(uplo, trans, diag, 0.7, &a, &mut b_got).unwrap();
        prop_assert!(same_bits(&b_got, &b_ref));
    }

    #[test]
    fn boundary_syrk_stays_within_ulps_on_random_boundary_masks(
        n in 0usize..40,
        k in 0usize..40,
        seed in 0u64..1000,
        mask in 0u64..u64::MAX,
        uplo_sel in 0usize..2,
        trans_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let trans = TRANS[trans_sel];
        let (rows, cols) = match trans {
            Transpose::No => (n, k),
            Transpose::Yes => (k, n),
        };
        let mut a = filled(rows, cols, MemoryOrder::RowMajor, seed, 0.0);
        let active = mask_rows(k, mask);
        match trans {
            Transpose::No => keep_cols(&mut a, &active),
            Transpose::Yes => keep_rows(&mut a, &active),
        }
        let mut c_ref = filled(n, n, MemoryOrder::RowMajor, seed ^ 3, 0.0);
        let mut c_got = c_ref.clone();
        blas::reference::syrk(uplo, trans, 1.0, &a, 0.5, &mut c_ref);
        blas::syrk(uplo, trans, 1.0, &a, 0.5, &mut c_got);
        prop_assert!(same_bits(&c_got, &c_ref));
    }
}
