//! Elimination-tree utilities shared by the symbolic analysis of both solver facades.
//!
//! The elimination tree of a symmetric matrix drives both the symbolic factorization
//! (nonzero pattern / column counts of the Cholesky factor) and the sparse
//! right-hand-side solves used by the Schur-complement path.

use feti_sparse::CsrMatrix;

/// Sentinel for "no parent" in the elimination tree.
pub const NO_PARENT: usize = usize::MAX;

/// Computes the elimination tree of a symmetric matrix given its full (or upper
/// triangular) CSR pattern.
///
/// `parent[k]` is the parent of column `k`, or [`NO_PARENT`] for roots.
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub fn elimination_tree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "elimination tree requires a square matrix");
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    for k in 0..n {
        // Iterate the entries of row k with column index < k (lower triangle of the
        // symmetric pattern, equivalent to column k of the upper triangle).
        for &i0 in a.row_cols(k) {
            if i0 >= k {
                break;
            }
            let mut i = i0;
            while i != NO_PARENT && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NO_PARENT {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
}

/// Computes the pattern of row `k` of the Cholesky factor `L` using the elimination
/// tree (the "ereach" of CSparse).
///
/// `marker` must be a scratch vector of length `n` whose entries differ from `k`
/// before the call (use a monotonically growing stamp); `stack` must have length `n`.
/// Returns the pattern as indices `stack[top..n]` in topological order and the new top.
pub fn ereach(
    a: &CsrMatrix,
    k: usize,
    parent: &[usize],
    marker: &mut [usize],
    stack: &mut [usize],
) -> usize {
    let n = a.nrows();
    let mut top = n;
    marker[k] = k;
    for &i0 in a.row_cols(k) {
        if i0 >= k {
            break;
        }
        // Walk from i0 up the elimination tree until hitting a marked node.
        let mut len = 0usize;
        let mut i = i0;
        while marker[i] != k {
            stack[len] = i;
            len += 1;
            marker[i] = k;
            i = parent[i];
            if i == NO_PARENT {
                break;
            }
        }
        // Push the path (reversed) onto the output stack.
        while len > 0 {
            len -= 1;
            top -= 1;
            stack[top] = stack[len];
        }
    }
    top
}

/// Computes per-column nonzero counts of the Cholesky factor `L` (diagonal included)
/// by running a symbolic elimination with [`ereach`].
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub fn column_counts(a: &CsrMatrix, parent: &[usize]) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let mut counts = vec![1usize; n]; // diagonal
    let mut marker = vec![usize::MAX; n];
    let mut stack = vec![0usize; n];
    for k in 0..n {
        let top = ereach(a, k, parent, &mut marker, &mut stack);
        for &j in &stack[top..n] {
            counts[j] += 1;
        }
    }
    counts
}

/// Returns a post-ordering of the elimination forest (children before parents).
#[must_use]
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Build child lists.
    let mut head = vec![NO_PARENT; n];
    let mut next = vec![NO_PARENT; n];
    for v in (0..n).rev() {
        let p = parent[v];
        if p != NO_PARENT {
            next[v] = head[p];
            head[p] = v;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in 0..n {
        if parent[root] != NO_PARENT {
            continue;
        }
        // Iterative DFS emitting children before the parent.
        stack.push((root, false));
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
                continue;
            }
            stack.push((v, true));
            let mut c = head[v];
            while c != NO_PARENT {
                stack.push((c, false));
                c = next[c];
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::CooMatrix;

    /// Arrowhead matrix: dense last row/column, diagonal elsewhere.
    fn arrowhead(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for i in 0..n - 1 {
            coo.push(i, n - 1, 1.0);
            coo.push(n - 1, i, 1.0);
        }
        coo.to_csr()
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = tridiag(6);
        let parent = elimination_tree(&a);
        for k in 0..5 {
            assert_eq!(parent[k], k + 1);
        }
        assert_eq!(parent[5], NO_PARENT);
    }

    #[test]
    fn etree_of_arrowhead_points_to_last() {
        let a = arrowhead(5);
        let parent = elimination_tree(&a);
        for k in 0..4 {
            assert_eq!(parent[k], 4, "column {k}");
        }
        assert_eq!(parent[4], NO_PARENT);
    }

    #[test]
    fn column_counts_tridiagonal_no_fill() {
        let a = tridiag(6);
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        // L of a tridiagonal matrix is bidiagonal: 2 entries per column except the last.
        assert_eq!(counts, vec![2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn column_counts_arrowhead_no_fill_when_dense_row_is_last() {
        let a = arrowhead(5);
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        assert_eq!(counts, vec![2, 2, 2, 2, 1]);
    }

    #[test]
    fn postorder_children_before_parents() {
        let a = arrowhead(6);
        let parent = elimination_tree(&a);
        let post = postorder(&parent);
        assert_eq!(post.len(), 6);
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (idx, &v) in post.iter().enumerate() {
                p[v] = idx;
            }
            p
        };
        for v in 0..6 {
            if parent[v] != NO_PARENT {
                assert!(pos[v] < pos[parent[v]], "child {v} must precede its parent");
            }
        }
    }

    #[test]
    fn ereach_pattern_of_tridiagonal() {
        let a = tridiag(4);
        let parent = elimination_tree(&a);
        let mut marker = vec![usize::MAX; 4];
        let mut stack = vec![0usize; 4];
        let top = ereach(&a, 2, &parent, &mut marker, &mut stack);
        let pattern: Vec<usize> = stack[top..4].to_vec();
        assert_eq!(pattern, vec![1]);
    }
}
