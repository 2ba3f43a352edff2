//! Property-based tests for the numerics kernel.
//!
//! The workspace is std-only (no `proptest` in the offline registry), so
//! each property is exercised over a seeded sweep of random inputs from
//! [`fefet_numerics::rng`] — reproducible, and failures print the case
//! index so a shrunk reproduction is one seed away.

use fefet_numerics::complex::{CMatrix, Complex};
use fefet_numerics::linalg::{norm_inf, LuWorkspace, Matrix};
use fefet_numerics::quad::{trapezoid_samples, RunningIntegral};
use fefet_numerics::rng::Rng;

const CASES: usize = 64;

fn vec_in(rng: &mut Rng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform_in(lo, hi)).collect()
}

/// A diagonally dominant matrix is well conditioned enough for tight
/// round-trip bounds.
fn diag_dominant(n: usize, entries: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut row_sum = 0.0;
        for c in 0..n {
            if r != c {
                let v = entries[r * n + c];
                m[(r, c)] = v;
                row_sum += v.abs();
            }
        }
        m[(r, r)] = row_sum + 1.0 + entries[r * n + r].abs();
    }
    m
}

#[test]
fn lu_solves_diag_dominant_systems() {
    let mut rng = Rng::seed_from_u64(0x1001);
    for case in 0..CASES {
        let n = 1 + rng.below(7) as usize;
        let seed = vec_in(&mut rng, -10.0, 10.0, 64);
        let xs = vec_in(&mut rng, -5.0, 5.0, 8);
        let m = diag_dominant(n, &seed);
        let x_true = &xs[..n];
        let b = m.mul_vec(x_true).unwrap();
        let x = m.solve(&b).unwrap();
        let err: f64 = x
            .iter()
            .zip(x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "case {case}: round-trip error {err}");
    }
}

#[test]
fn in_place_lu_is_bit_identical_to_copying_factorization() {
    // The buffer-swapping factorization must not be "approximately" the
    // copying one: identical pivot choices, identical factor entries,
    // identical determinants and solutions — bit for bit — across
    // random well-conditioned systems, including workspaces that are
    // reused (and resized) across cases. `Matrix::solve` runs the same
    // kernel through a fresh workspace and must agree as well.
    let mut rng = Rng::seed_from_u64(0x1011);
    let mut copied = LuWorkspace::new(1);
    let mut swapped = LuWorkspace::new(1);
    for case in 0..CASES {
        let n = 1 + rng.below(8) as usize;
        let seed = vec_in(&mut rng, -10.0, 10.0, n * n);
        let b = vec_in(&mut rng, -5.0, 5.0, n);
        let m = diag_dominant(n, &seed);

        copied.factor(&m).unwrap();
        let mut staged = m.clone();
        swapped.factor_in_place(&mut staged).unwrap();
        assert_eq!(
            (staged.rows(), staged.cols()),
            (n, n),
            "case {case}: returned staging buffer order"
        );

        assert_eq!(copied.pivots(), swapped.pivots(), "case {case}: pivot rows");
        let a = copied.factors().as_slice();
        let w = swapped.factors().as_slice();
        assert_eq!(a.len(), w.len(), "case {case}");
        for (k, (x, y)) in a.iter().zip(w).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: factor entry {k}: {x:?} vs {y:?}"
            );
        }
        assert_eq!(
            copied.det().unwrap().to_bits(),
            swapped.det().unwrap().to_bits(),
            "case {case}: determinant"
        );

        let x_solve = m.solve(&b).unwrap();
        let mut x_copied = b.clone();
        copied.solve_into(&mut x_copied).unwrap();
        let mut x_swapped = b.clone();
        swapped.solve_into(&mut x_swapped).unwrap();
        for k in 0..n {
            assert_eq!(
                x_solve[k].to_bits(),
                x_copied[k].to_bits(),
                "case {case}: solution entry {k}: {:?} vs {:?}",
                x_solve[k],
                x_copied[k]
            );
            assert_eq!(
                x_copied[k].to_bits(),
                x_swapped[k].to_bits(),
                "case {case}: swap solution entry {k}: {:?} vs {:?}",
                x_copied[k],
                x_swapped[k]
            );
        }
    }
}

#[test]
fn lu_determinant_sign_consistent_with_solvability() {
    let mut rng = Rng::seed_from_u64(0x1002);
    for case in 0..CASES {
        let n = 1 + rng.below(5) as usize;
        let seed = vec_in(&mut rng, -10.0, 10.0, 36);
        let m = diag_dominant(n, &seed);
        let mut lu = LuWorkspace::new(n);
        lu.factor(&m).unwrap();
        let det = lu.det().unwrap();
        // Diagonally dominant with positive diagonal => det > 0.
        assert!(det > 0.0, "case {case}: det {det}");
    }
}

#[test]
fn running_integral_matches_batch() {
    let mut rng = Rng::seed_from_u64(0x100a);
    for case in 0..CASES {
        let n = 2 + rng.below(38) as usize;
        let ys = vec_in(&mut rng, -5.0, 5.0, n);
        let ts: Vec<f64> = (0..ys.len()).map(|i| i as f64 * 0.05).collect();
        let batch = trapezoid_samples(&ts, &ys).unwrap();
        let mut acc = RunningIntegral::new();
        for (t, y) in ts.iter().zip(&ys) {
            acc.push(*t, *y).unwrap();
        }
        assert!(
            (acc.total() - batch).abs() < 1e-12,
            "case {case}: {} vs {batch}",
            acc.total()
        );
    }
}

#[test]
fn complex_field_axioms() {
    let mut rng = Rng::seed_from_u64(0x100b);
    for case in 0..CASES {
        let a = Complex::new(rng.uniform_in(-10.0, 10.0), rng.uniform_in(-10.0, 10.0));
        let b = Complex::new(rng.uniform_in(-10.0, 10.0), rng.uniform_in(-10.0, 10.0));
        // Commutativity and distributivity.
        assert!(((a + b) - (b + a)).abs() < 1e-12, "case {case}");
        assert!((a * b - b * a).abs() < 1e-9, "case {case}");
        let lhs = a * (b + Complex::ONE);
        let rhs = a * b + a;
        assert!((lhs - rhs).abs() < 1e-9, "case {case}");
        // |a·b| = |a|·|b| and conj distributes over products.
        assert!(
            ((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            ((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9,
            "case {case}"
        );
        // Division round-trips when |b| is away from zero.
        if b.abs() > 1e-6 {
            assert!(((a / b) * b - a).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn complex_solve_residual_small() {
    let mut rng = Rng::seed_from_u64(0x100c);
    for case in 0..CASES {
        // Diagonally dominant 3x3 complex system.
        let n = 3;
        let mut m = CMatrix::zeros(n);
        let mut store = vec![vec![Complex::ZERO; n]; n];
        for r in 0..n {
            let mut dom = 0.0;
            for c in 0..n {
                if r != c {
                    let v = Complex::new(rng.uniform_in(-5.0, 5.0), rng.uniform_in(-5.0, 5.0));
                    store[r][c] = v;
                    m.add(r, c, v);
                    dom += v.abs();
                }
            }
            let d = Complex::new(dom + 1.0, 0.5);
            store[r][r] = d;
            m.add(r, r, d);
        }
        let b: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.uniform_in(-5.0, 5.0), rng.uniform_in(-5.0, 5.0)))
            .collect();
        let x = m.solve(&b).unwrap();
        // Residual check.
        for r in 0..n {
            let mut acc = Complex::ZERO;
            for c in 0..n {
                acc += store[r][c] * x[c];
            }
            assert!((acc - b[r]).abs() < 1e-9, "case {case}: row {r} residual");
        }
    }
}

#[test]
fn matrix_vector_residual_small_after_solve() {
    let mut rng = Rng::seed_from_u64(0x100d);
    for case in 0..CASES {
        let n = 2 + rng.below(5) as usize;
        let seed = vec_in(&mut rng, -3.0, 3.0, 49);
        let b = vec_in(&mut rng, -10.0, 10.0, 7);
        let m = diag_dominant(n, &seed);
        let rhs = &b[..n];
        let x = m.solve(rhs).unwrap();
        let back = m.mul_vec(&x).unwrap();
        let res: Vec<f64> = back.iter().zip(rhs).map(|(a, b)| a - b).collect();
        assert!(
            norm_inf(&res) < 1e-9,
            "case {case}: residual {}",
            norm_inf(&res)
        );
    }
}
