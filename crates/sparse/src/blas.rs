//! BLAS-like dense kernels operating on [`DenseMatrix`].
//!
//! These are the host-side equivalents of the cuBLAS routines used by the paper's
//! explicit assembly (GEMM, GEMV, SYMV, SYMM, SYRK, TRSM, TRSV).  The simulated GPU
//! device in `feti-gpu` executes these kernels and charges device time for them
//! through its cost model — except the explicit assembly's forward TRSM + SYRK,
//! which run as one fused exact kernel over the sparse factor ([`crate::reach`],
//! bit-identical to [`mod@reference`] on the densified operands).
//!
//! # Blocked kernels and the bit-for-bit contract
//!
//! The hot kernels — [`symv`], [`symm`], [`syrk`] and [`trsm`] — are cache-blocked and
//! register-tiled, but they are constructed to be **bit-for-bit identical** to the
//! scalar reference loops retained in [`mod@reference`]: every output element is produced
//! by a single accumulator whose contraction index runs in the same (ascending) order
//! as the reference, so no floating-point operation is reassociated.  The speed comes
//! from streaming the stored triangle once, replacing per-element layout branches with
//! direct strided slice access, and amortizing loads over small register tiles — not
//! from changing the arithmetic.  As a consequence the results are also invariant
//! under the configured block size (see [`kernel_block_size`]).
//!
//! # Skipping exact zeros
//!
//! [`trsm`] and [`syrk`] also skip every term that provably multiplies an exact zero.
//! That is the shape of the explicit FETI assembly: the right-hand side `B̃ᵀ` touches
//! only a few boundary DOFs per multiplier, and the Cholesky factor is mostly zeros.
//! A skipped term `0 · x` with finite `x` is `±0.0`.  Adding or subtracting `±0.0`
//! leaves an accumulator unchanged unless it is `-0.0`, and a sum is `-0.0` only if
//! it starts there.  So each kernel first proves, with one O(n·m + n²) scan of its
//! operands, that the terms it skips are no-ops — finite operands, no `-0.0` in the
//! (scaled) right-hand side, and a positive diagonal where a solve skips whole leading
//! rows — and takes full ranges otherwise.  A TRSM panel whose skipped solve
//! overflowed is solved again without skipping.  The results therefore stay
//! bit-for-bit identical to [`mod@reference`] for every input.

use crate::dense::DenseMatrix;
use crate::{DiagKind, MemoryOrder, Result, Side, SparseError, Transpose, Triangle};
use std::sync::OnceLock;

#[inline]
fn op_dims(a: &DenseMatrix, trans: Transpose) -> (usize, usize) {
    if trans.is_transposed() {
        (a.ncols(), a.nrows())
    } else {
        (a.nrows(), a.ncols())
    }
}

#[inline]
fn op_get(a: &DenseMatrix, trans: Transpose, i: usize, j: usize) -> f64 {
    if trans.is_transposed() {
        a.get(j, i)
    } else {
        a.get(i, j)
    }
}

// ---------------------------------------------------------------------------------
// Block-size configuration.
// ---------------------------------------------------------------------------------

static BLOCK_SIZE: OnceLock<usize> = OnceLock::new();

/// Cache-block size used unless `FETI_BLOCK_SIZE` overrides it.
const DEFAULT_BLOCK_SIZE: usize = 64;

fn block_size_from_env(raw: &str) -> Option<usize> {
    let v = raw.trim().parse::<usize>().ok()?;
    (v >= 4).then_some(v)
}

/// The cache-block size used by the blocked kernels (currently the SYRK panel width).
///
/// Resolved once per process: the `FETI_BLOCK_SIZE` environment variable wins if it
/// parses to an integer ≥ 4, otherwise the fixed default of 64.  The blocked kernels
/// produce bit-identical results for every block size, so the choice only moves
/// speed, never a numerical output.
pub fn kernel_block_size() -> usize {
    *BLOCK_SIZE.get_or_init(|| {
        std::env::var("FETI_BLOCK_SIZE")
            .ok()
            .and_then(|raw| block_size_from_env(&raw))
            .unwrap_or(DEFAULT_BLOCK_SIZE)
    })
}

/// Copies `op(A)` into a contiguous row-major buffer (`m x k`, `r[i * k + p]`).
///
/// The copy moves values bitwise, so downstream arithmetic is unaffected.
fn materialize_op_rowmajor(a: &DenseMatrix, trans: Transpose) -> Vec<f64> {
    let (m, k) = op_dims(a, trans);
    let mut r = vec![0.0; m * k];
    match (a.order(), trans) {
        // op(A) already has row-major layout in A's storage: straight memcpy.
        (MemoryOrder::RowMajor, Transpose::No) | (MemoryOrder::ColMajor, Transpose::Yes) => {
            r.copy_from_slice(a.as_slice());
        }
        _ => {
            for i in 0..m {
                for p in 0..k {
                    r[i * k + p] = op_get(a, trans, i, p);
                }
            }
        }
    }
    r
}

// ---------------------------------------------------------------------------------
// GEMM / GEMV.
// ---------------------------------------------------------------------------------

/// General matrix-matrix multiplication: `C = alpha * op(A) * op(B) + beta * C`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(
    alpha: f64,
    a: &DenseMatrix,
    transa: Transpose,
    b: &DenseMatrix,
    transb: Transpose,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let (m, k) = op_dims(a, transa);
    let (kb, n) = op_dims(b, transb);
    assert_eq!(k, kb, "gemm: inner dimensions do not match");
    assert_eq!(c.nrows(), m, "gemm: C has wrong row count");
    assert_eq!(c.ncols(), n, "gemm: C has wrong column count");

    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += op_get(a, transa, i, p) * op_get(b, transb, p, j);
            }
            let old = c.get(i, j);
            c.set(i, j, alpha * acc + beta * old);
        }
    }
}

/// General matrix-vector multiplication: `y = alpha * op(A) * x + beta * y`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv(alpha: f64, a: &DenseMatrix, trans: Transpose, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, k) = op_dims(a, trans);
    assert_eq!(x.len(), k, "gemv: x has wrong length");
    assert_eq!(y.len(), m, "gemv: y has wrong length");
    for i in 0..m {
        let mut acc = 0.0;
        for p in 0..k {
            acc += op_get(a, trans, i, p) * x[p];
        }
        y[i] = alpha * acc + beta * y[i];
    }
}

// ---------------------------------------------------------------------------------
// SYMV / SYMM: one-pass streaming over the stored triangle.
// ---------------------------------------------------------------------------------

/// Core of the blocked SYMV/SYMM: accumulates `A * x_c` into `tmp` column `c` for a
/// register panel of `W` right-hand sides, streaming the stored triangle of `A`
/// exactly once.
///
/// `tmp` is `W * n`, column `c` at `tmp[c * n..(c + 1) * n]`, zeroed on entry.  For
/// every output element the contributions arrive in ascending contraction-index order
/// (`j = 0..n`), i.e. in exactly the order of the scalar reference loop, so each
/// output's floating-point sequence is identical to [`reference::symv`] regardless of
/// the panel width.  The streaming direction follows the storage order (rows for
/// row-major, columns for column-major) so the triangle is read contiguously.
fn symv_panel<const W: usize>(uplo: Triangle, a: &DenseMatrix, x: [&[f64]; W], tmp: &mut [f64]) {
    let n = a.nrows();
    let data = a.as_slice();
    debug_assert_eq!(tmp.len(), W * n);
    match (a.order(), uplo) {
        (MemoryOrder::RowMajor, Triangle::Lower) => {
            for i in 0..n {
                let row = &data[i * n..i * n + i + 1];
                let mut acc = [0.0f64; W];
                for j in 0..i {
                    let v = row[j];
                    for c in 0..W {
                        acc[c] += v * x[c][j];
                        tmp[c * n + j] += v * x[c][i];
                    }
                }
                let d = row[i];
                for c in 0..W {
                    tmp[c * n + i] = acc[c] + d * x[c][i];
                }
            }
        }
        (MemoryOrder::RowMajor, Triangle::Upper) => {
            for i in 0..n {
                let row = &data[i * n + i..(i + 1) * n];
                let d = row[0];
                let mut acc = [0.0f64; W];
                for c in 0..W {
                    acc[c] = tmp[c * n + i] + d * x[c][i];
                }
                for j in (i + 1)..n {
                    let v = row[j - i];
                    for c in 0..W {
                        acc[c] += v * x[c][j];
                        tmp[c * n + j] += v * x[c][i];
                    }
                }
                for c in 0..W {
                    tmp[c * n + i] = acc[c];
                }
            }
        }
        (MemoryOrder::ColMajor, Triangle::Upper) => {
            for j in 0..n {
                let colv = &data[j * n..j * n + j + 1];
                let mut acc = [0.0f64; W];
                for i in 0..j {
                    let v = colv[i];
                    for c in 0..W {
                        acc[c] += v * x[c][i];
                        tmp[c * n + i] += v * x[c][j];
                    }
                }
                let d = colv[j];
                for c in 0..W {
                    tmp[c * n + j] = acc[c] + d * x[c][j];
                }
            }
        }
        (MemoryOrder::ColMajor, Triangle::Lower) => {
            for j in 0..n {
                let colv = &data[j * n + j..(j + 1) * n];
                let d = colv[0];
                let mut acc = [0.0f64; W];
                for c in 0..W {
                    acc[c] = tmp[c * n + j] + d * x[c][j];
                }
                for i in (j + 1)..n {
                    let v = colv[i - j];
                    for c in 0..W {
                        acc[c] += v * x[c][i];
                        tmp[c * n + i] += v * x[c][j];
                    }
                }
                for c in 0..W {
                    tmp[c * n + j] = acc[c];
                }
            }
        }
    }
}

/// Symmetric matrix-vector multiplication: `y = alpha * A * x + beta * y`, where only
/// the `uplo` triangle of `A` is referenced.
///
/// Bit-for-bit identical to [`reference::symv`] (see the module docs); roughly halves
/// the memory traffic of the scalar loop by streaming the stored triangle once.
///
/// # Panics
/// Panics on dimension mismatch or if `A` is not square.
pub fn symv(uplo: Triangle, alpha: f64, a: &DenseMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "symv: A must be square");
    assert_eq!(x.len(), n, "symv: x has wrong length");
    assert_eq!(y.len(), n, "symv: y has wrong length");
    let mut tmp = vec![0.0; n];
    symv_panel::<1>(uplo, a, [x], &mut tmp);
    for i in 0..n {
        y[i] = alpha * tmp[i] + beta * y[i];
    }
}

/// Symmetric matrix-matrix multiplication:
/// `C = alpha * A * B + beta * C` ([`Side::Left`]) or
/// `C = alpha * B * A + beta * C` ([`Side::Right`]), with `A` symmetric and only its
/// `uplo` triangle referenced.
///
/// Every output column (left) / row (right) is bit-for-bit identical to a [`symv`]
/// with the corresponding column/row of `B`: the panel evaluation shares loads of `A`
/// across up to four right-hand sides but keeps one accumulator per output in the
/// reference contraction order.
///
/// # Panics
/// Panics on dimension mismatch or if `A` is not square.
pub fn symm(
    side: Side,
    uplo: Triangle,
    alpha: f64,
    a: &DenseMatrix,
    b: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "symm: A must be square");
    // Number of independent symv right-hand sides.
    let m = match side {
        Side::Left => {
            assert_eq!(b.nrows(), n, "symm: B has wrong row count");
            assert_eq!(c.nrows(), n, "symm: C has wrong row count");
            assert_eq!(c.ncols(), b.ncols(), "symm: C has wrong column count");
            b.ncols()
        }
        Side::Right => {
            assert_eq!(b.ncols(), n, "symm: B has wrong column count");
            assert_eq!(c.ncols(), n, "symm: C has wrong column count");
            assert_eq!(c.nrows(), b.nrows(), "symm: C has wrong row count");
            b.nrows()
        }
    };
    // Gather the right-hand sides into contiguous length-n vectors: columns of B for
    // the left-side product, rows of B for the right-side one (B·A = (A·Bᵀ)ᵀ since A
    // is symmetric).
    let mut bx = vec![0.0; n * m];
    for r in 0..m {
        let dst = &mut bx[r * n..(r + 1) * n];
        match side {
            Side::Left => {
                for i in 0..n {
                    dst[i] = b.get(i, r);
                }
            }
            Side::Right => {
                for i in 0..n {
                    dst[i] = b.get(r, i);
                }
            }
        }
    }
    let mut tmp = vec![0.0; n * m];
    let mut r0 = 0;
    while r0 < m {
        let w = (m - r0).min(4);
        let seg = &mut tmp[r0 * n..(r0 + w) * n];
        let col = |c: usize| &bx[(r0 + c) * n..(r0 + c + 1) * n];
        match w {
            4 => symv_panel::<4>(uplo, a, [col(0), col(1), col(2), col(3)], seg),
            3 => symv_panel::<3>(uplo, a, [col(0), col(1), col(2)], seg),
            2 => symv_panel::<2>(uplo, a, [col(0), col(1)], seg),
            _ => symv_panel::<1>(uplo, a, [col(0)], seg),
        }
        r0 += w;
    }
    for r in 0..m {
        let src = &tmp[r * n..(r + 1) * n];
        for i in 0..n {
            let (ci, cj) = match side {
                Side::Left => (i, r),
                Side::Right => (r, i),
            };
            let old = c.get(ci, cj);
            c.set(ci, cj, alpha * src[i] + beta * old);
        }
    }
}

// ---------------------------------------------------------------------------------
// SYRK: cache-blocked panels with a 1x4 register micro-kernel.
// ---------------------------------------------------------------------------------

/// Symmetric rank-k update: `C = alpha * op(A) * op(A)^T + beta * C`, updating only the
/// `uplo` triangle of `C`.
///
/// With `trans == Transpose::No` this computes `A * A^T`; with `Transpose::Yes` it
/// computes `A^T * A`.  This is the second kernel of the paper's SYRK assembly path.
///
/// `op(A)` is first packed into a contiguous row-major buffer; the output triangle is
/// then walked in [`kernel_block_size`]-square cache blocks with a four-accumulator
/// register tile, each output element keeping the reference loop's single-accumulator
/// `p = 0..k` order (bit-for-bit identical to [`reference::syrk`]).  When `op(A)` is
/// finite, the inner product for `C(i, j)` starts at the later of the two rows' first
/// nonzeros (see the module docs): every skipped product is `±0.0` added to an
/// accumulator that is still the literal `+0.0`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn syrk(
    uplo: Triangle,
    trans: Transpose,
    alpha: f64,
    a: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    syrk_with_block(uplo, trans, alpha, a, beta, c, kernel_block_size());
}

fn syrk_with_block(
    uplo: Triangle,
    trans: Transpose,
    alpha: f64,
    a: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
    nb: usize,
) {
    let (n, kdim) = op_dims(a, trans);
    assert_eq!(c.nrows(), n, "syrk: C has wrong row count");
    assert_eq!(c.ncols(), n, "syrk: C has wrong column count");
    let r = materialize_op_rowmajor(a, trans);

    // First nonzero of every row of op(A) along the contraction dimension; with a
    // non-finite operand a skipped `0 · inf` would not be a no-op, so nothing is
    // skipped.
    let starts: Vec<usize> = if r.iter().all(|v| v.is_finite()) {
        (0..n)
            .map(|i| r[i * kdim..(i + 1) * kdim].iter().position(|&v| v != 0.0).unwrap_or(kdim))
            .collect()
    } else {
        vec![0; n]
    };

    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + nb).min(n);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + nb).min(n);
            for i in i0..i1 {
                // Clip the block's column range to the stored triangle of C.
                let (jlo, jhi) = match uplo {
                    Triangle::Upper => (j0.max(i), j1),
                    Triangle::Lower => (j0, j1.min(i + 1)),
                };
                if jlo >= jhi {
                    continue;
                }
                let ri = &r[i * kdim..(i + 1) * kdim];
                let si = starts[i];
                let mut j = jlo;
                while j + 4 <= jhi {
                    let rj0 = &r[j * kdim..(j + 1) * kdim];
                    let rj1 = &r[(j + 1) * kdim..(j + 2) * kdim];
                    let rj2 = &r[(j + 2) * kdim..(j + 3) * kdim];
                    let rj3 = &r[(j + 3) * kdim..(j + 4) * kdim];
                    // The shared start must cover all four columns of the tile; lanes
                    // whose own start is later just add exact zeros to a +0.0
                    // accumulator, which is still bit-identical.
                    let p0 =
                        si.max(starts[j].min(starts[j + 1]).min(starts[j + 2]).min(starts[j + 3]));
                    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                    for p in p0..kdim {
                        let av = ri[p];
                        a0 += av * rj0[p];
                        a1 += av * rj1[p];
                        a2 += av * rj2[p];
                        a3 += av * rj3[p];
                    }
                    for (q, acc) in [a0, a1, a2, a3].into_iter().enumerate() {
                        let old = c.get(i, j + q);
                        c.set(i, j + q, alpha * acc + beta * old);
                    }
                    j += 4;
                }
                while j < jhi {
                    let rj = &r[j * kdim..(j + 1) * kdim];
                    let mut acc = 0.0;
                    for p in si.max(starts[j])..kdim {
                        acc += ri[p] * rj[p];
                    }
                    let old = c.get(i, j);
                    c.set(i, j, alpha * acc + beta * old);
                    j += 1;
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

// ---------------------------------------------------------------------------------
// TRSV / TRSM.
// ---------------------------------------------------------------------------------

/// Triangular solve with a single right-hand side: solves `op(A) * x = b` where `A` is
/// triangular.  `b` is overwritten with the solution.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] if a diagonal entry is zero (and
/// `diag == NonUnit`).
pub fn trsv(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    a: &DenseMatrix,
    b: &mut [f64],
) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "trsv: A must be square");
    assert_eq!(b.len(), n, "trsv: b has wrong length");

    // op(A) lower-triangular  <=>  forward substitution.
    let effective_lower = match (uplo, trans) {
        (Triangle::Lower, Transpose::No) | (Triangle::Upper, Transpose::Yes) => true,
        (Triangle::Upper, Transpose::No) | (Triangle::Lower, Transpose::Yes) => false,
    };
    let get = |i: usize, j: usize| op_get(a, trans, i, j);

    if effective_lower {
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= get(i, j) * b[j];
            }
            b[i] = match diag {
                DiagKind::Unit => acc,
                DiagKind::NonUnit => {
                    let d = get(i, i);
                    if d == 0.0 {
                        return Err(SparseError::SingularDiagonal { index: i });
                    }
                    acc / d
                }
            };
        }
    } else {
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= get(i, j) * b[j];
            }
            b[i] = match diag {
                DiagKind::Unit => acc,
                DiagKind::NonUnit => {
                    let d = get(i, i);
                    if d == 0.0 {
                        return Err(SparseError::SingularDiagonal { index: i });
                    }
                    acc / d
                }
            };
        }
    }
    Ok(())
}

/// Forward substitution over a register panel of `W` right-hand sides stored
/// interleaved in `x` (`x[i * W + c]` is row `i` of column `c`).  Per column the
/// operation sequence is that of [`trsv`] on an effectively-lower `op(A)` (ascending
/// subtraction order, one division per element); the panel only shares the loads of
/// the factor.
///
/// Rows before `lo` are neither read nor written, and row `i` subtracts only from
/// column `first[i].max(lo)` on.  With `lo == 0` and `first == None` this is the full
/// solve; [`trsm`] passes a positive `lo` or `first` only where the skipped terms are
/// proven no-ops.
fn trsm_panel_forward<const W: usize>(
    e: &[f64],
    n: usize,
    lo: usize,
    first: Option<&[usize]>,
    diag: DiagKind,
    x: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * W);
    for i in lo..n {
        let row = &e[i * n..i * n + i + 1];
        let start = first.map_or(lo, |f| f[i].max(lo));
        let mut acc = [0.0f64; W];
        acc.copy_from_slice(&x[i * W..i * W + W]);
        // The interleaved layout makes this one contiguous stream per operand; the zip
        // elides bounds checks and the W accumulator chains are independent, so the
        // lanes vectorize without reassociating any single column's subtraction order.
        for (&l, xs) in row[start..i].iter().zip(x[start * W..].chunks_exact(W)) {
            for c in 0..W {
                acc[c] -= l * xs[c];
            }
        }
        let out = &mut x[i * W..i * W + W];
        match diag {
            DiagKind::Unit => out.copy_from_slice(&acc),
            DiagKind::NonUnit => {
                let d = row[i];
                for c in 0..W {
                    out[c] = acc[c] / d;
                }
            }
        }
    }
}

/// Backward-substitution mirror of [`trsm_panel_forward`]: rows at or after `hi` are
/// neither read nor written, and row `i` subtracts only up to column
/// `last[i].min(hi)` (exclusive).
fn trsm_panel_backward<const W: usize>(
    e: &[f64],
    n: usize,
    hi: usize,
    last: Option<&[usize]>,
    diag: DiagKind,
    x: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * W);
    for i in (0..hi).rev() {
        let end = last.map_or(hi, |l| l[i].min(hi));
        let row = &e[i * n..i * n + end];
        let mut acc = [0.0f64; W];
        acc.copy_from_slice(&x[i * W..i * W + W]);
        for (&l, xs) in row[i + 1..].iter().zip(x[(i + 1) * W..end * W].chunks_exact(W)) {
            for c in 0..W {
                acc[c] -= l * xs[c];
            }
        }
        let out = &mut x[i * W..i * W + W];
        match diag {
            DiagKind::Unit => out.copy_from_slice(&acc),
            DiagKind::NonUnit => {
                let d = e[i * n + i];
                for c in 0..W {
                    out[c] = acc[c] / d;
                }
            }
        }
    }
}

/// Solves one interleaved panel of `w ≤ 4` columns over rows `lo..hi` (see
/// [`trsm_panel_forward`] / [`trsm_panel_backward`]; a forward solve always runs to
/// `n`, a backward one always from row 0).
#[allow(clippy::too_many_arguments)]
fn trsm_panel(
    e: &[f64],
    n: usize,
    lower: bool,
    (lo, hi): (usize, usize),
    bounds: Option<&[usize]>,
    diag: DiagKind,
    w: usize,
    x: &mut [f64],
) {
    match (lower, w) {
        (true, 4) => trsm_panel_forward::<4>(e, n, lo, bounds, diag, x),
        (true, 3) => trsm_panel_forward::<3>(e, n, lo, bounds, diag, x),
        (true, 2) => trsm_panel_forward::<2>(e, n, lo, bounds, diag, x),
        (true, _) => trsm_panel_forward::<1>(e, n, lo, bounds, diag, x),
        (false, 4) => trsm_panel_backward::<4>(e, n, hi, bounds, diag, x),
        (false, 3) => trsm_panel_backward::<3>(e, n, hi, bounds, diag, x),
        (false, 2) => trsm_panel_backward::<2>(e, n, hi, bounds, diag, x),
        (false, _) => trsm_panel_backward::<1>(e, n, hi, bounds, diag, x),
    }
}

/// Per-row bounds of the off-diagonal structural nonzeros of a triangular `op(A)`
/// packed row-major in `e`: for an effectively-lower factor the first nonzero column
/// of each row (`i` if it has none), for an upper one one past the last (`i + 1`).
fn factor_row_bounds(e: &[f64], n: usize, lower: bool) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let row = &e[i * n..(i + 1) * n];
            if lower {
                row[..i].iter().position(|&v| v != 0.0).unwrap_or(i)
            } else {
                row[i + 1..].iter().rposition(|&v| v != 0.0).map_or(i + 1, |p| i + 2 + p)
            }
        })
        .collect()
}

/// Per-column active row ranges of a dense right-hand side: for each column the index
/// of its first nonzero row and one past its last nonzero row (`(n, 0)` for an
/// all-zero column).
///
/// [`trsm`] uses them to gather columns into panels and to skip the rows before
/// (forward) or after (backward) a panel's first possible nonzero.  In the explicit
/// assembly the columns of `B̃ᵀ` are the local multipliers, each touching only a few
/// boundary DOFs, so the active range is a short window of the column.
#[must_use]
pub fn column_active_ranges(b: &DenseMatrix) -> Vec<(usize, usize)> {
    let n = b.nrows();
    (0..b.ncols())
        .map(|j| {
            let start = (0..n).find(|&i| b.get(i, j) != 0.0).unwrap_or(n);
            let end = (0..n).rev().find(|&i| b.get(i, j) != 0.0).map_or(0, |i| i + 1);
            (start, end)
        })
        .collect()
}

/// Triangular solve with a dense right-hand-side matrix (left side):
/// solves `op(A) * X = alpha * B`, overwriting `B` with `X`.  On error the contents
/// of `B` are unspecified.
///
/// This is the TRSM of the paper's explicit assembly.  `op(A)` is packed once into a
/// contiguous row-major buffer and the right-hand sides are solved in four-column
/// interleaved register panels; each column's floating-point sequence is exactly that
/// of a [`trsv`] on that column (bit-for-bit identical to [`reference::trsm`] for every
/// input).  Two kinds of terms are skipped where a scan proves them no-ops (see the
/// module docs):
///
/// * **factor structure** — each row subtracts only from its first off-diagonal
///   structural nonzero on (backward: up to its last), when the scaled `B` is finite
///   and free of `-0.0`;
/// * **right-hand-side structure** — columns are gathered into panels in order of
///   their active bound ([`column_active_ranges`]) and each panel solves only from its
///   first possibly nonzero row (backward: up to its last), when additionally `op(A)`
///   is finite and its diagonal positive (or unit).  Skipped rows keep their `+0.0`.
///
/// A panel whose skipped solve is not finite is solved again in full.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] if a diagonal entry is zero (and
/// `diag == NonUnit`), for the same index as the reference: the diagonal scan covers
/// skipped rows too.
pub fn trsm(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &DenseMatrix,
    b: &mut DenseMatrix,
) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "trsm: A must be square");
    assert_eq!(b.nrows(), n, "trsm: B has wrong row count");
    let ncols = b.ncols();

    if alpha != 1.0 {
        for v in b.as_mut_slice() {
            *v *= alpha;
        }
    }
    if n == 0 || ncols == 0 {
        return Ok(());
    }

    let lower = match (uplo, trans) {
        (Triangle::Lower, Transpose::No) | (Triangle::Upper, Transpose::Yes) => true,
        (Triangle::Upper, Transpose::No) | (Triangle::Lower, Transpose::Yes) => false,
    };
    let e = materialize_op_rowmajor(a, trans);
    // The singularity check is value-only, so it can run up front, in the same scan
    // order as the reference column-by-column solve (which fails at the first zero
    // diagonal element it meets).
    if diag == DiagKind::NonUnit {
        let scan: Box<dyn Iterator<Item = usize>> =
            if lower { Box::new(0..n) } else { Box::new((0..n).rev()) };
        for i in scan {
            if e[i * n + i] == 0.0 {
                return Err(SparseError::SingularDiagonal { index: i });
            }
        }
    }

    // Skip guards (module docs): a row's accumulator starts at its scaled B entry,
    // which must not be -0.0; a skipped leading row must solve to +0.0, which needs a
    // finite factor and a positive (or unit) diagonal.
    let rhs_exact =
        b.as_slice().iter().all(|&v| v.is_finite() && !(v == 0.0 && v.is_sign_negative()));
    let bounds = rhs_exact.then(|| factor_row_bounds(&e, n, lower));
    let triangle =
        |i: usize| if lower { &e[i * n..=i * n + i] } else { &e[i * n + i..(i + 1) * n] };
    let rhs_skip = rhs_exact
        && (0..n).all(|i| triangle(i).iter().all(|v| v.is_finite()))
        && (diag == DiagKind::Unit || (0..n).all(|i| e[i * n + i] > 0.0));
    let ranges = if rhs_skip { column_active_ranges(b) } else { vec![(0, n); ncols] };
    // Gather order: columns with similar active bounds share a panel.
    let mut order: Vec<usize> = (0..ncols).collect();
    if lower {
        order.sort_by_key(|&j| ranges[j].0);
    } else {
        order.sort_by_key(|&j| std::cmp::Reverse(ranges[j].1));
    }

    let mut xbuf = vec![0.0; n * 4];
    for cols in order.chunks(4) {
        let w = cols.len();
        // The panel's row range must cover every member column; the sort makes the
        // widest member come first.
        let mut rows = if lower { (ranges[cols[0]].0, n) } else { (0, ranges[cols[0]].1) };
        if rows.0 >= rows.1 {
            // All-zero columns under the RHS skip: the solution is the zero input.
            continue;
        }
        let seg = &mut xbuf[..w * n];
        let gather = |seg: &mut [f64], (lo, hi): (usize, usize)| {
            for (c, &j) in cols.iter().enumerate() {
                for i in lo..hi {
                    seg[i * w + c] = b.get(i, j);
                }
            }
        };
        gather(seg, rows);
        trsm_panel(&e, n, lower, rows, bounds.as_deref(), diag, w, seg);
        if bounds.is_some() && !seg[rows.0 * w..rows.1 * w].iter().all(|v| v.is_finite()) {
            // A skipped `0 · x` is a no-op only for finite `x`: redo the panel in full.
            rows = (0, n);
            gather(seg, rows);
            trsm_panel(&e, n, lower, rows, None, diag, w, seg);
        }
        for (c, &j) in cols.iter().enumerate() {
            for i in rows.0..rows.1 {
                b.set(i, j, seg[i * w + c]);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------------
// Vector helpers.
// ---------------------------------------------------------------------------------

/// Scales a vector in place: `x *= alpha`.
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dot product of two vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm of a vector.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

// ---------------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------------

/// The scalar reference kernels the blocked implementations are validated against.
///
/// These are the original row-walking loops, retained verbatim: the kernel-equivalence
/// test layer (`crates/sparse/tests/`) asserts that the blocked [`symv`], [`symm`],
/// [`syrk`] and [`trsm`] match them —
/// bit-for-bit by construction, and within 4 ulps as the stated public contract.  The
/// benches also time them as the `scalar_baseline` of the recorded perf trajectory.
pub mod reference {
    use super::{op_dims, op_get, trsv, DenseMatrix, Result, Side, Transpose, Triangle};
    use crate::DiagKind;

    /// Scalar reference SYMV (the original per-element triangle-branching loop).
    ///
    /// # Panics
    /// Panics on dimension mismatch or if `A` is not square.
    pub fn symv(uplo: Triangle, alpha: f64, a: &DenseMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "symv: A must be square");
        assert_eq!(x.len(), n, "symv: x has wrong length");
        assert_eq!(y.len(), n, "symv: y has wrong length");
        let mut tmp = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                let v = match uplo {
                    Triangle::Upper => {
                        if j >= i {
                            a.get(i, j)
                        } else {
                            a.get(j, i)
                        }
                    }
                    Triangle::Lower => {
                        if j <= i {
                            a.get(i, j)
                        } else {
                            a.get(j, i)
                        }
                    }
                };
                tmp[i] += v * x[j];
            }
            y[i] = alpha * tmp[i] + beta * y[i];
        }
    }

    /// Scalar reference SYMM: one reference [`symv`] per column (left) or row (right)
    /// of `B`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if `A` is not square.
    pub fn symm(
        side: Side,
        uplo: Triangle,
        alpha: f64,
        a: &DenseMatrix,
        b: &DenseMatrix,
        beta: f64,
        c: &mut DenseMatrix,
    ) {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "symm: A must be square");
        match side {
            Side::Left => {
                assert_eq!(b.nrows(), n, "symm: B has wrong row count");
                assert_eq!(c.nrows(), n, "symm: C has wrong row count");
                assert_eq!(c.ncols(), b.ncols(), "symm: C has wrong column count");
                for j in 0..b.ncols() {
                    let x = b.col(j);
                    let mut y: Vec<f64> = (0..n).map(|i| c.get(i, j)).collect();
                    symv(uplo, alpha, a, &x, beta, &mut y);
                    for (i, v) in y.iter().enumerate() {
                        c.set(i, j, *v);
                    }
                }
            }
            Side::Right => {
                assert_eq!(b.ncols(), n, "symm: B has wrong column count");
                assert_eq!(c.ncols(), n, "symm: C has wrong column count");
                assert_eq!(c.nrows(), b.nrows(), "symm: C has wrong row count");
                for r in 0..b.nrows() {
                    let x: Vec<f64> = (0..n).map(|j| b.get(r, j)).collect();
                    let mut y: Vec<f64> = (0..n).map(|j| c.get(r, j)).collect();
                    symv(uplo, alpha, a, &x, beta, &mut y);
                    for (j, v) in y.iter().enumerate() {
                        c.set(r, j, *v);
                    }
                }
            }
        }
    }

    /// Scalar reference SYRK (the original boxed-iterator triangle walk).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn syrk(
        uplo: Triangle,
        trans: Transpose,
        alpha: f64,
        a: &DenseMatrix,
        beta: f64,
        c: &mut DenseMatrix,
    ) {
        let (n, k) = op_dims(a, trans);
        assert_eq!(c.nrows(), n, "syrk: C has wrong row count");
        assert_eq!(c.ncols(), n, "syrk: C has wrong column count");
        for i in 0..n {
            let range: Box<dyn Iterator<Item = usize>> = match uplo {
                Triangle::Upper => Box::new(i..n),
                Triangle::Lower => Box::new(0..=i),
            };
            for j in range {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += op_get(a, trans, i, p) * op_get(a, trans, j, p);
                }
                let old = c.get(i, j);
                c.set(i, j, alpha * acc + beta * old);
            }
        }
    }

    /// Scalar reference TRSM: column-by-column [`trsv`].
    ///
    /// # Errors
    /// Returns [`SparseError::SingularDiagonal`](crate::SparseError::SingularDiagonal)
    /// if a diagonal entry is zero (and `diag == NonUnit`).
    pub fn trsm(
        uplo: Triangle,
        trans: Transpose,
        diag: DiagKind,
        alpha: f64,
        a: &DenseMatrix,
        b: &mut DenseMatrix,
    ) -> Result<()> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "trsm: A must be square");
        assert_eq!(b.nrows(), n, "trsm: B has wrong row count");
        let ncols = b.ncols();

        if alpha != 1.0 {
            for v in b.as_mut_slice() {
                *v *= alpha;
            }
        }

        let mut col = vec![0.0; n];
        for j in 0..ncols {
            for i in 0..n {
                col[i] = b.get(i, j);
            }
            trsv(uplo, trans, diag, a, &mut col)?;
            for i in 0..n {
                b.set(i, j, col[i]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryOrder;

    fn m(rows: usize, cols: usize, v: &[f64], order: MemoryOrder) -> DenseMatrix {
        DenseMatrix::from_row_slice(rows, cols, v, order)
    }

    /// Deterministic pseudo-random dense matrix for equivalence tests.
    fn filled(rows: usize, cols: usize, order: MemoryOrder, seed: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(rows, cols, order);
        for i in 0..rows {
            for j in 0..cols {
                let t = (i * 31 + j * 17 + seed * 7) % 29;
                a.set(i, j, t as f64 * 0.37 - 4.9);
            }
        }
        a
    }

    #[test]
    fn gemm_small_known_result() {
        for oa in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for ob in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
                let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], oa);
                let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], ob);
                let mut c = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
                gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
                assert_eq!(c.get(0, 0), 58.0);
                assert_eq!(c.get(0, 1), 64.0);
                assert_eq!(c.get(1, 0), 139.0);
                assert_eq!(c.get(1, 1), 154.0);
            }
        }
    }

    #[test]
    fn gemm_transpose_flags() {
        let a = m(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], MemoryOrder::RowMajor); // = A^T of above
        let b = m(2, 3, &[7.0, 9.0, 11.0, 8.0, 10.0, 12.0], MemoryOrder::ColMajor);
        let mut c = DenseMatrix::zeros(2, 2, MemoryOrder::ColMajor);
        gemm(1.0, &a, Transpose::Yes, &b, Transpose::Yes, 0.0, &mut c);
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = m(1, 1, &[2.0], MemoryOrder::RowMajor);
        let b = m(1, 1, &[3.0], MemoryOrder::RowMajor);
        let mut c = m(1, 1, &[10.0], MemoryOrder::RowMajor);
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        assert_eq!(c.get(0, 0), 2.0 * 6.0 + 0.5 * 10.0);
    }

    #[test]
    fn gemv_and_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], MemoryOrder::ColMajor);
        let x = [1.0, 1.0, 1.0];
        let mut y = vec![0.0; 2];
        gemv(1.0, &a, Transpose::No, &x, 0.0, &mut y);
        assert_eq!(y, vec![6.0, 15.0]);
        let xt = [1.0, 1.0];
        let mut yt = vec![0.0; 3];
        gemv(1.0, &a, Transpose::Yes, &xt, 0.0, &mut yt);
        assert_eq!(yt, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn symv_uses_single_triangle() {
        // Full symmetric matrix [[2,1],[1,3]] but only the upper triangle stored.
        let mut a = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 1, 3.0);
        let x = [1.0, 2.0];
        let mut y = vec![0.0; 2];
        symv(Triangle::Upper, 1.0, &a, &x, 0.0, &mut y);
        assert_eq!(y, vec![4.0, 7.0]);
    }

    #[test]
    fn blocked_symv_is_bit_identical_to_reference() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for n in [0usize, 1, 2, 3, 7, 17] {
                    let a = filled(n, n, order, 3);
                    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin() + 0.4).collect();
                    let mut y1: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 0.7).collect();
                    let mut y2 = y1.clone();
                    symv(uplo, 1.3, &a, &x, -0.6, &mut y1);
                    reference::symv(uplo, 1.3, &a, &x, -0.6, &mut y2);
                    for (v1, v2) in y1.iter().zip(&y2) {
                        assert_eq!(v1.to_bits(), v2.to_bits(), "{order:?} {uplo:?} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_syrk_is_bit_identical_to_reference() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for (n, k) in [(0usize, 3usize), (1, 2), (5, 3), (9, 11)] {
                        let (rows, cols) = if trans.is_transposed() { (k, n) } else { (n, k) };
                        let a = filled(rows, cols, order, 5);
                        let mut c1 = filled(n, n, order.flipped(), 9);
                        let mut c2 = c1.clone();
                        syrk(uplo, trans, 0.9, &a, 0.3, &mut c1);
                        reference::syrk(uplo, trans, 0.9, &a, 0.3, &mut c2);
                        for i in 0..n {
                            for j in 0..n {
                                assert_eq!(
                                    c1.get(i, j).to_bits(),
                                    c2.get(i, j).to_bits(),
                                    "{order:?} {uplo:?} {trans:?} n={n} k={k} ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_trsm_is_bit_identical_to_reference() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for diag in [DiagKind::NonUnit, DiagKind::Unit] {
                        for (n, nrhs) in [(1usize, 1usize), (4, 5), (7, 3), (6, 9)] {
                            let mut a = filled(n, n, order, 2);
                            for i in 0..n {
                                a.set(i, i, 3.0 + i as f64);
                            }
                            let mut b1 = filled(n, nrhs, order.flipped(), 4);
                            let mut b2 = b1.clone();
                            trsm(uplo, trans, diag, 1.7, &a, &mut b1).unwrap();
                            reference::trsm(uplo, trans, diag, 1.7, &a, &mut b2).unwrap();
                            for i in 0..n {
                                for j in 0..nrhs {
                                    assert_eq!(
                                        b1.get(i, j).to_bits(),
                                        b2.get(i, j).to_bits(),
                                        "{order:?} {uplo:?} {trans:?} {diag:?} n={n} ({i},{j})"
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
    fn symm_matches_columnwise_symv_exactly() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                let n = 6;
                let w = 5;
                let a = filled(n, n, MemoryOrder::RowMajor, 1);
                let (brows, bcols) = match side {
                    Side::Left => (n, w),
                    Side::Right => (w, n),
                };
                let b = filled(brows, bcols, MemoryOrder::ColMajor, 8);
                let mut c1 = filled(brows, bcols, MemoryOrder::ColMajor, 6);
                let c0 = c1.clone();
                symm(side, uplo, 1.1, &a, &b, 0.4, &mut c1);
                for r in 0..w {
                    let x: Vec<f64> = match side {
                        Side::Left => b.col(r),
                        Side::Right => (0..n).map(|j| b.get(r, j)).collect(),
                    };
                    let mut y: Vec<f64> = match side {
                        Side::Left => (0..n).map(|i| c0.get(i, r)).collect(),
                        Side::Right => (0..n).map(|j| c0.get(r, j)).collect(),
                    };
                    symv(uplo, 1.1, &a, &x, 0.4, &mut y);
                    for (i, v) in y.iter().enumerate() {
                        let got = match side {
                            Side::Left => c1.get(i, r),
                            Side::Right => c1.get(r, i),
                        };
                        assert_eq!(got.to_bits(), v.to_bits(), "{side:?} {uplo:?} rhs {r} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn symm_left_matches_gemm_on_symmetric_matrix() {
        let n = 5;
        let mut a = filled(n, n, MemoryOrder::RowMajor, 3);
        a.symmetrize_from(Triangle::Upper);
        let b = filled(n, 4, MemoryOrder::RowMajor, 7);
        let mut c_symm = DenseMatrix::zeros(n, 4, MemoryOrder::RowMajor);
        symm(Side::Left, Triangle::Upper, 1.0, &a, &b, 0.0, &mut c_symm);
        let mut c_gemm = DenseMatrix::zeros(n, 4, MemoryOrder::RowMajor);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c_gemm);
        assert!(c_symm.max_abs_diff(&c_gemm) < 1e-12);
    }

    #[test]
    fn syrk_matches_gemm() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], MemoryOrder::RowMajor);
        let mut c_syrk = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        syrk(Triangle::Upper, Transpose::Yes, 1.0, &a, 0.0, &mut c_syrk);
        c_syrk.symmetrize_from(Triangle::Upper);
        let mut c_gemm = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        gemm(1.0, &a, Transpose::Yes, &a, Transpose::No, 0.0, &mut c_gemm);
        assert!(c_syrk.max_abs_diff(&c_gemm) < 1e-12);
    }

    #[test]
    fn syrk_results_do_not_depend_on_the_block_size() {
        let a = filled(37, 23, MemoryOrder::RowMajor, 11);
        let mut expect = filled(37, 37, MemoryOrder::RowMajor, 13);
        reference::syrk(Triangle::Lower, Transpose::No, 1.0, &a, 0.5, &mut expect);
        for nb in [4usize, 16, 36, 37, 38, 128] {
            let mut c = filled(37, 37, MemoryOrder::RowMajor, 13);
            syrk_with_block(Triangle::Lower, Transpose::No, 1.0, &a, 0.5, &mut c, nb);
            for i in 0..37 {
                for j in 0..37 {
                    assert_eq!(c.get(i, j).to_bits(), expect.get(i, j).to_bits(), "nb={nb}");
                }
            }
        }
    }

    #[test]
    fn block_size_env_parser() {
        assert_eq!(block_size_from_env("32"), Some(32));
        assert_eq!(block_size_from_env(" 64 "), Some(64));
        assert_eq!(block_size_from_env("3"), None);
        assert_eq!(block_size_from_env("nope"), None);
        assert!(kernel_block_size() >= 4);
    }

    #[test]
    fn trsv_lower_and_upper() {
        // A = [[2,0],[1,3]] lower triangular, solve A x = [2, 7] -> x = [1, 2]
        let a = m(2, 2, &[2.0, 0.0, 1.0, 3.0], MemoryOrder::RowMajor);
        let mut b = vec![2.0, 7.0];
        trsv(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-14);
        assert!((b[1] - 2.0).abs() < 1e-14);

        // A^T x = b uses the upper triangle of A^T; check against direct computation.
        let mut b2 = vec![4.0, 6.0];
        trsv(Triangle::Lower, Transpose::Yes, DiagKind::NonUnit, &a, &mut b2).unwrap();
        // A^T = [[2,1],[0,3]]; backward substitution: x2 = 2, x1 = (4-2)/2 = 1
        assert!((b2[0] - 1.0).abs() < 1e-14);
        assert!((b2[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn trsv_singular_detected() {
        let a = m(2, 2, &[0.0, 0.0, 1.0, 3.0], MemoryOrder::RowMajor);
        let mut b = vec![1.0, 1.0];
        let err = trsv(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
    }

    #[test]
    fn trsm_singular_detected_at_reference_index() {
        // Upper triangle, no transpose => backward scan meets index 2 first, then 0.
        let mut a = filled(3, 3, MemoryOrder::RowMajor, 1);
        a.set(0, 0, 0.0);
        a.set(2, 2, 0.0);
        let mut b = DenseMatrix::zeros(3, 2, MemoryOrder::RowMajor);
        let err =
            trsm(Triangle::Upper, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 2 });
        let mut b = DenseMatrix::zeros(3, 2, MemoryOrder::RowMajor);
        let err =
            trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
    }

    #[test]
    fn trsm_multi_rhs_matches_trsv() {
        let a = m(3, 3, &[4.0, 0.0, 0.0, 1.0, 5.0, 0.0, 2.0, 3.0, 6.0], MemoryOrder::ColMajor);
        let b_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let mut b = DenseMatrix::from_row_slice(3, 2, &b_vals, order);
            trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap();
            for j in 0..2 {
                let mut col: Vec<f64> = (0..3).map(|i| b_vals[i * 2 + j]).collect();
                trsv(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut col).unwrap();
                for i in 0..3 {
                    assert!((b.get(i, j) - col[i]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn vector_helpers() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-14);
        let mut x = vec![1.0, -2.0];
        scal(-2.0, &mut x);
        assert_eq!(x, vec![-2.0, 4.0]);
    }

    #[test]
    fn trsm_unit_diag_ignores_diagonal() {
        let a = m(2, 2, &[100.0, 0.0, 1.0, 100.0], MemoryOrder::RowMajor);
        let mut b = DenseMatrix::from_row_slice(2, 1, &[1.0, 3.0], MemoryOrder::ColMajor);
        trsm(Triangle::Lower, Transpose::No, DiagKind::Unit, 1.0, &a, &mut b).unwrap();
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(1, 0), 2.0);
    }

    /// A right-hand side whose column `j` is exactly `+0.0` outside its active range
    /// (a rotating window), mimicking the dense image of a sparse `B̃ᵀ`: the shape on
    /// which [`trsm`] and [`syrk`] skip work.
    fn boundary_rhs(n: usize, ncols: usize, order: MemoryOrder, seed: usize) -> DenseMatrix {
        let mut b = DenseMatrix::zeros(n, ncols, order);
        if n == 0 {
            return b;
        }
        for j in 0..ncols {
            let start = (j * 5 + seed) % (n + 1);
            let width = 1 + (j * 3 + seed) % 4;
            for i in start..n.min(start + width) {
                let t = (i * 13 + j * 7 + seed) % 19;
                b.set(i, j, t as f64 * 0.41 - 3.3);
            }
        }
        b
    }

    #[test]
    fn column_active_ranges_finds_first_and_last_nonzeros() {
        let mut b = DenseMatrix::zeros(5, 3, MemoryOrder::RowMajor);
        b.set(2, 0, 1.0);
        b.set(4, 0, -2.0);
        b.set(0, 2, 3.0);
        assert_eq!(column_active_ranges(&b), vec![(2, 5), (5, 0), (0, 1)]);
    }

    #[test]
    fn sparse_rhs_trsm_is_bit_identical_to_trsm_on_boundary_rhs() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for diag in [DiagKind::NonUnit, DiagKind::Unit] {
                        for (n, nrhs) in [(1usize, 1usize), (6, 9), (9, 4), (11, 13)] {
                            // Positive diagonal: the bit-for-bit case of the contract.
                            let mut a = filled(n, n, order, 2);
                            for i in 0..n {
                                a.set(i, i, 3.0 + i as f64);
                            }
                            let mut b1 = boundary_rhs(n, nrhs, order.flipped(), 4);
                            let mut b2 = b1.clone();
                            trsm(uplo, trans, diag, 1.0, &a, &mut b1).unwrap();
                            reference::trsm(uplo, trans, diag, 1.0, &a, &mut b2).unwrap();
                            for i in 0..n {
                                for j in 0..nrhs {
                                    assert_eq!(
                                        b1.get(i, j).to_bits(),
                                        b2.get(i, j).to_bits(),
                                        "{order:?} {uplo:?} {trans:?} {diag:?} n={n} ({i},{j})"
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
    fn sparse_rhs_trsm_detects_singularity_inside_a_skipped_region() {
        // Column active ranges start at row 2, but the zero pivot sits at row 0: the
        // skipping kernel must still report it, at the same index as the reference.
        let mut a = filled(4, 4, MemoryOrder::RowMajor, 1);
        for i in 0..4 {
            a.set(i, i, 2.0 + i as f64);
        }
        a.set(0, 0, 0.0);
        let mut b = DenseMatrix::zeros(4, 2, MemoryOrder::RowMajor);
        b.set(2, 0, 1.0);
        b.set(3, 1, 1.0);
        let mut b_ref = b.clone();
        let err =
            trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
        let expect =
            reference::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b_ref)
                .unwrap_err();
        assert_eq!(err, expect);
    }

    #[test]
    fn boundary_syrk_is_bit_identical_to_syrk_on_boundary_rows() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for (n, k) in [(0usize, 3usize), (1, 2), (7, 11), (13, 9)] {
                        // op(A) rows carry zero prefixes: build the sparse pattern on
                        // the operated shape, then store it under `trans`.
                        let rows_op = boundary_rhs(k, n, order, 6);
                        let a = match trans {
                            Transpose::Yes => rows_op,
                            Transpose::No => {
                                let mut t = DenseMatrix::zeros(n, k, order);
                                for i in 0..n {
                                    for p in 0..k {
                                        t.set(i, p, rows_op.get(p, i));
                                    }
                                }
                                t
                            }
                        };
                        let mut c1 = filled(n, n, order.flipped(), 9);
                        let mut c2 = c1.clone();
                        syrk(uplo, trans, 0.9, &a, 0.3, &mut c1);
                        reference::syrk(uplo, trans, 0.9, &a, 0.3, &mut c2);
                        for i in 0..n {
                            for j in 0..n {
                                assert_eq!(
                                    c1.get(i, j).to_bits(),
                                    c2.get(i, j).to_bits(),
                                    "{order:?} {uplo:?} {trans:?} n={n} k={k} ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_syrk_results_do_not_depend_on_the_block_size() {
        let a = boundary_rhs(23, 37, MemoryOrder::RowMajor, 3);
        let mut expect = filled(37, 37, MemoryOrder::RowMajor, 13);
        reference::syrk(Triangle::Lower, Transpose::Yes, 1.0, &a, 0.5, &mut expect);
        for nb in [4usize, 16, 36, 37, 38, 128] {
            let mut c = filled(37, 37, MemoryOrder::RowMajor, 13);
            syrk_with_block(Triangle::Lower, Transpose::Yes, 1.0, &a, 0.5, &mut c, nb);
            for i in 0..37 {
                for j in 0..37 {
                    assert_eq!(c.get(i, j).to_bits(), expect.get(i, j).to_bits(), "nb={nb}");
                }
            }
        }
    }
}
