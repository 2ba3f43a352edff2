//! Dense linear algebra: matrices, LU factorization, linear solves.
//!
//! [`LuWorkspace`] is the one dense LU with partial pivoting. It serves
//! the small dense systems: the BBD backend's border Schur complement
//! and [`Matrix::solve`]. Circuit (MNA) Jacobians go through the sparse LU
//! in [`crate::sparse`] at every size.

use crate::{Error, Result};

/// A dense, row-major `rows x cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use fefet_numerics::linalg::Matrix;
///
/// # fn main() -> Result<(), fefet_numerics::Error> {
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 4.0;
/// m[(1, 1)] = 2.0;
/// let x = m.solve(&[8.0, 4.0])?;
/// assert_eq!(x, vec![2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `rows` is empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::InvalidArgument("from_rows: no rows"));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(Error::InvalidArgument("from_rows: zero columns"));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(Error::InvalidArgument("from_rows: ragged rows"));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `v` to entry `(r, c)` — the "stamp" operation used by MNA.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                found: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let y = self
            .data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(y)
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Factors a copy of the matrix into `P * A = L * U` and solves
    /// `A x = b`.
    ///
    /// Convenience wrapper over [`LuWorkspace::factor`] +
    /// [`LuWorkspace::solve_into`] for single right-hand sides. Use a
    /// [`LuWorkspace`] directly to reuse the factorization.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] if a pivot is (numerically) zero,
    /// [`Error::DimensionMismatch`] if `b.len() != self.rows()` or the
    /// matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut lu = LuWorkspace::new(self.rows);
        lu.factor(self)?;
        let mut x = b.to_vec();
        lu.solve_into(&mut x)?;
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

/// Pivots smaller than this (relative to the largest entry in the column)
/// are treated as exactly zero.
const PIVOT_EPS: f64 = 1e-300;

/// Gaussian elimination with partial pivoting over row-major storage,
/// recording the row swapped into position at each step (`ipiv[k] == k`
/// when no swap happened). Returns the permutation sign.
///
/// Shared by [`LuWorkspace::factor`] and [`LuWorkspace::factor_in_place`],
/// so the copying and buffer-swapping entry points produce identical
/// factors and pivots bit for bit. The elimination works on whole-row
/// slices so the inner loops carry no per-element bounds checks.
fn eliminate_in_place(data: &mut [f64], n: usize, ipiv: &mut [usize]) -> Result<f64> {
    let mut sign = 1.0;
    for k in 0..n {
        // Find pivot: largest |a[i][k]| for i >= k. Walking whole rows
        // keeps the column scan free of per-access index arithmetic;
        // the strict `>` makes the first maximum win, exactly as a
        // top-down indexed scan would.
        let mut p = k;
        let mut max = 0.0;
        for (i, row) in data[k * n..].chunks_exact(n).enumerate() {
            let v = row[k].abs();
            if v > max {
                max = v;
                p = k + i;
            }
        }
        if max < PIVOT_EPS {
            return Err(Error::Singular { column: k });
        }
        ipiv[k] = p;
        if p != k {
            let (head, tail) = data.split_at_mut(p * n);
            head[k * n..k * n + n].swap_with_slice(&mut tail[..n]);
            sign = -sign;
        }
        let pivot = data[k * n + k];
        let (fixed, active) = data.split_at_mut((k + 1) * n);
        let row_k = &fixed[k * n..];
        for row_i in active.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            for (aic, akc) in row_i[k + 1..n].iter_mut().zip(&row_k[k + 1..n]) {
                *aic -= factor * akc;
            }
        }
    }
    Ok(sign)
}

/// Permutation + triangular substitution on `x` in place, using the
/// factored storage `lu` and the recorded swap sequence `ipiv`.
fn substitute_in_place(lu: &[f64], n: usize, ipiv: &[usize], x: &mut [f64]) {
    // Apply the recorded row swaps in factorization order — the same
    // permutation the elimination applied to the matrix rows.
    for (k, &p) in ipiv.iter().enumerate() {
        if p != k {
            x.swap(k, p);
        }
    }
    // Forward substitution with unit lower triangle.
    for i in 1..n {
        let row = &lu[i * n..i * n + i];
        let (solved, xi) = x.split_at_mut(i);
        let mut s = xi[0];
        for (l, xj) in row.iter().zip(solved.iter()) {
            s -= l * xj;
        }
        xi[0] = s;
    }
    // Back substitution, accumulating in ascending-j order like the
    // indexed form it replaced (the sum order is part of the result's
    // bit pattern).
    for i in (0..n).rev() {
        let row = &lu[i * n..(i + 1) * n];
        let (head, tail) = x.split_at_mut(i + 1);
        let mut s = head[i];
        for (r, xj) in row[i + 1..].iter().zip(&*tail) {
            s -= r * xj;
        }
        head[i] = s / row[i];
    }
}

/// Reusable LU factorization storage: factor a borrowed matrix into the
/// workspace's own buffers, then solve right-hand sides in place.
///
/// A `LuWorkspace` copies (or swaps) the matrix into storage it already
/// owns: re-factoring a same-sized system performs **zero heap
/// allocation**. The BBD backend factors its border Schur complement
/// here on every Newton refactorization.
///
/// # Example
///
/// ```
/// use fefet_numerics::linalg::{LuWorkspace, Matrix};
///
/// # fn main() -> Result<(), fefet_numerics::Error> {
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
/// let mut ws = LuWorkspace::new(2);
/// ws.factor(&a)?; // `a` still usable; no allocation on repeat calls
/// let mut x = [3.0, 7.0];
/// ws.solve_into(&mut x)?;
/// assert_eq!(x, [7.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    lu: Matrix,
    ipiv: Vec<usize>,
    sign: f64,
    factored: bool,
}

impl LuWorkspace {
    /// Creates a workspace sized for `n x n` systems.
    pub fn new(n: usize) -> Self {
        LuWorkspace {
            lu: Matrix::zeros(n, n),
            ipiv: (0..n).collect(),
            sign: 1.0,
            factored: false,
        }
    }

    /// Order of the systems this workspace is currently sized for.
    pub fn order(&self) -> usize {
        self.lu.rows
    }

    /// Whether the workspace holds a successful factorization, i.e.
    /// whether [`LuWorkspace::solve_into`] can run against it without
    /// refactoring. Modified-Newton callers use this to re-solve with a
    /// stale Jacobian instead of paying a fresh elimination.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Factors `a` into the workspace's own storage without consuming or
    /// cloning it. Allocates only if `a`'s order differs from
    /// [`LuWorkspace::order`]; repeated same-size factorizations are
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `a` is not square;
    /// [`Error::Singular`] if elimination finds a zero pivot column (the
    /// workspace is left unfactored).
    pub fn factor(&mut self, a: &Matrix) -> Result<()> {
        if a.rows != a.cols {
            return Err(Error::DimensionMismatch {
                found: (a.rows, a.cols),
                expected: (a.rows, a.rows),
            });
        }
        let n = a.rows;
        if self.lu.rows != n {
            self.lu = Matrix::zeros(n, n);
            self.ipiv = (0..n).collect();
        }
        self.lu.data.copy_from_slice(&a.data);
        self.factored = false;
        self.sign = eliminate_in_place(&mut self.lu.data, n, &mut self.ipiv)?;
        self.factored = true;
        Ok(())
    }

    /// Factors `a` by taking its storage: `a`'s buffer is swapped into
    /// the workspace (an O(1) pointer exchange, no `n x n` copy) and
    /// eliminated there. On return `a` holds the workspace's previous
    /// buffer, resized to `a`'s order with unspecified contents — callers
    /// that refill the matrix from scratch each round (as the Newton
    /// stamping loop does) lose nothing.
    ///
    /// Produces bit-identical factors, pivots, and solutions to
    /// [`LuWorkspace::factor`]; only the memory traffic differs.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `a` is not square;
    /// [`Error::Singular`] if elimination finds a zero pivot column (the
    /// workspace is left unfactored).
    pub fn factor_in_place(&mut self, a: &mut Matrix) -> Result<()> {
        if a.rows != a.cols {
            return Err(Error::DimensionMismatch {
                found: (a.rows, a.cols),
                expected: (a.rows, a.rows),
            });
        }
        let n = a.rows;
        std::mem::swap(&mut self.lu, a);
        if a.rows != n {
            // The returned buffer must stay usable as an `n x n` staging
            // matrix for the caller's next stamping round.
            *a = Matrix::zeros(n, n);
        }
        if self.ipiv.len() != n {
            self.ipiv = (0..n).collect();
        }
        self.factored = false;
        self.sign = eliminate_in_place(&mut self.lu.data, n, &mut self.ipiv)?;
        self.factored = true;
        Ok(())
    }

    /// The packed `L\U` factors from the last successful
    /// [`LuWorkspace::factor`].
    pub fn factors(&self) -> &Matrix {
        &self.lu
    }

    /// The pivot swap sequence from the last successful factorization.
    pub fn pivots(&self) -> &[usize] {
        &self.ipiv
    }

    /// Solves `A x = b` in place against the stored factorization: `b`
    /// holds the right-hand side on entry and the solution on return.
    /// Performs no allocation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if the workspace holds no successful
    /// factorization; [`Error::DimensionMismatch`] if
    /// `b.len() != self.order()`.
    pub fn solve_into(&self, b: &mut [f64]) -> Result<()> {
        if !self.factored {
            return Err(Error::InvalidArgument(
                "solve_into: workspace holds no factorization",
            ));
        }
        let n = self.order();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                found: (b.len(), 1),
                expected: (n, 1),
            });
        }
        substitute_in_place(&self.lu.data, n, &self.ipiv, b);
        Ok(())
    }

    /// Determinant of the last factored matrix (product of pivots times
    /// the permutation sign), or `None` before a successful
    /// [`LuWorkspace::factor`].
    pub fn det(&self) -> Option<f64> {
        if !self.factored {
            return None;
        }
        let mut d = self.sign;
        for i in 0..self.order() {
            d *= self.lu[(i, i)];
        }
        Some(d)
    }
}

/// Infinity norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z[(2, 3)], 0.0);
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        let empty: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty]).is_err());
    }

    #[test]
    fn mul_vec_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let x = a.solve(&[5.0, 1.0, 2.0]).unwrap();
        // x = [1, 2, 1]
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
        assert_close(x[2], 1.0, 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.solve(&[1.0, 2.0]) {
            Err(Error::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_factor_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn det_of_permutation() {
        // Swapping two rows of identity gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let mut lu = LuWorkspace::new(2);
        lu.factor(&a).unwrap();
        assert_close(lu.det().unwrap(), -1.0, 1e-12);
    }

    #[test]
    fn det_of_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let mut lu = LuWorkspace::new(2);
        lu.factor(&a).unwrap();
        assert_close(lu.det().unwrap(), -6.0, 1e-12);
    }

    #[test]
    fn reuse_factorization_for_many_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let mut lu = LuWorkspace::new(2);
        lu.factor(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -3.0]] {
            let mut x = b;
            lu.solve_into(&mut x).unwrap();
            let back = a.mul_vec(&x).unwrap();
            assert_close(back[0], b[0], 1e-12);
            assert_close(back[1], b[1], 1e-12);
        }
    }

    #[test]
    fn solve_wrong_rhs_len() {
        let a = Matrix::identity(2);
        assert!(a.solve(&[1.0]).is_err());
    }

    #[test]
    fn norms() {
        assert_close(norm_inf(&[1.0, -7.0, 3.0]), 7.0, 0.0);
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]).unwrap();
        assert_close(m.norm_inf(), 3.5, 1e-15);
    }

    #[test]
    fn stamp_add() {
        let mut m = Matrix::zeros(2, 2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        assert_eq!(m[(0, 0)], 2.0);
        m.clear();
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn factor_in_place_matches_factor_exactly() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let mut copied = LuWorkspace::new(3);
        copied.factor(&a).unwrap();
        // `a` is untouched by the borrow-based factorization.
        assert_eq!(a[(0, 1)], 2.0);
        let mut swapped = LuWorkspace::new(3);
        let mut staged = a.clone();
        swapped.factor_in_place(&mut staged).unwrap();
        assert_eq!(copied.factors(), swapped.factors());
        assert_eq!(copied.pivots(), swapped.pivots());
        let b = [5.0, 1.0, 2.0];
        let (mut x_copied, mut x_swapped) = (b, b);
        copied.solve_into(&mut x_copied).unwrap();
        swapped.solve_into(&mut x_swapped).unwrap();
        let copied_bits: Vec<u64> = x_copied.iter().map(|v| v.to_bits()).collect();
        let swapped_bits: Vec<u64> = x_swapped.iter().map(|v| v.to_bits()).collect();
        assert_eq!(copied_bits, swapped_bits);
    }

    #[test]
    fn workspace_resizes_and_reuses() {
        let mut ws = LuWorkspace::new(2);
        let a2 = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        ws.factor(&a2).unwrap();
        let mut x = [5.0, 10.0];
        ws.solve_into(&mut x).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
        // Growing to a different order works (with a one-time realloc).
        let a3 =
            Matrix::from_rows(&[&[4.0, 0.0, 0.0], &[0.0, 2.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        ws.factor(&a3).unwrap();
        assert_eq!(ws.order(), 3);
        let mut y = [8.0, 4.0, 5.0];
        ws.solve_into(&mut y).unwrap();
        assert_close(y[0], 2.0, 1e-12);
        assert_close(y[1], 2.0, 1e-12);
        assert_close(y[2], 5.0, 1e-12);
        assert_close(ws.det().unwrap(), 8.0, 1e-12);
    }

    #[test]
    fn workspace_guards_misuse() {
        let mut ws = LuWorkspace::new(2);
        // Unfactored solves are rejected.
        assert!(matches!(
            ws.solve_into(&mut [1.0, 2.0]),
            Err(Error::InvalidArgument(_))
        ));
        assert_eq!(ws.det(), None);
        // Non-square rejected.
        assert!(matches!(
            ws.factor(&Matrix::zeros(2, 3)),
            Err(Error::DimensionMismatch { .. })
        ));
        // A singular matrix leaves the workspace unfactored.
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(ws.factor(&s), Err(Error::Singular { .. })));
        assert!(ws.solve_into(&mut [1.0, 2.0]).is_err());
        // Recovering with a good matrix works.
        let g = Matrix::identity(2);
        ws.factor(&g).unwrap();
        let mut x = [3.0, 4.0];
        ws.solve_into(&mut x).unwrap();
        assert_close(x[0], 3.0, 0.0);
        assert_close(x[1], 4.0, 0.0);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let mut lu = LuWorkspace::new(2);
        lu.factor(&a).unwrap();
        let b = [2.0, -3.0];
        let x = a.solve(&b).unwrap();
        let mut y = b;
        lu.solve_into(&mut y).unwrap();
        assert_eq!(x[0].to_bits(), y[0].to_bits());
        assert_eq!(x[1].to_bits(), y[1].to_bits());
        assert!(lu.solve_into(&mut [1.0]).is_err());
    }

    #[test]
    fn matrix_slice_access() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        m.as_mut_slice()[3] = 5.0;
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    fn solve_hilbert_4() {
        // Hilbert 4x4 is ill-conditioned but still solvable in f64.
        let n = 4;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        // b = A * ones
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let x = a.solve(&b).unwrap();
        for xi in x {
            assert_close(xi, 1.0, 1e-9);
        }
    }
}
