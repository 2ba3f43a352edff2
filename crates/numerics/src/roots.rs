//! Root finding: Newton-Raphson (scalar and multidimensional, with damping),
//! bisection, and Brent's method.
//!
//! The circuit simulator uses the multidimensional Newton at every DC and
//! transient solution point; device analysis (coercive field, remnant
//! polarization, load-line intersections) uses the scalar methods.

use crate::linalg::{norm_inf, Matrix};
use crate::{Error, Result};

/// Options controlling Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum number of iterations before giving up.
    pub max_iter: usize,
    /// Absolute tolerance on the residual infinity-norm.
    pub tol_residual: f64,
    /// Absolute tolerance on the update infinity-norm.
    pub tol_step: f64,
    /// Largest allowed infinity-norm of a single Newton update; larger
    /// updates are scaled down (damping). `f64::INFINITY` disables damping.
    pub max_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 100,
            tol_residual: 1e-12,
            tol_step: 1e-12,
            max_step: f64::INFINITY,
        }
    }
}

/// Result of a converged Newton iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual infinity-norm.
    pub residual: f64,
}

/// Scalar Newton-Raphson with analytic derivative.
///
/// `f` returns `(f(x), f'(x))`.
///
/// # Errors
///
/// [`Error::NoConvergence`] if the tolerance is not met within
/// `opts.max_iter` iterations; [`Error::Singular`] if the derivative
/// vanishes at an iterate.
///
/// # Example
///
/// ```
/// use fefet_numerics::roots::{newton_scalar, NewtonOptions};
///
/// # fn main() -> Result<(), fefet_numerics::Error> {
/// // sqrt(2) as root of x^2 - 2
/// let root = newton_scalar(|x| (x * x - 2.0, 2.0 * x), 1.0, NewtonOptions::default())?;
/// assert!((root - 2f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn newton_scalar<F>(mut f: F, x0: f64, opts: NewtonOptions) -> Result<f64>
where
    F: FnMut(f64) -> (f64, f64),
{
    let mut x = x0;
    let mut last_residual = f64::INFINITY;
    for _ in 0..opts.max_iter {
        let (fx, dfx) = f(x);
        last_residual = fx.abs();
        if fx.abs() <= opts.tol_residual {
            return Ok(x);
        }
        if dfx.abs() < 1e-300 {
            return Err(Error::Singular { column: 0 });
        }
        let mut dx = -fx / dfx;
        if dx.abs() > opts.max_step {
            dx = dx.signum() * opts.max_step;
        }
        x += dx;
        if !x.is_finite() {
            return Err(Error::NonFinite {
                context: "newton_scalar update",
            });
        }
        if dx.abs() <= opts.tol_step {
            let (fx2, _) = f(x);
            if fx2.abs() <= opts.tol_residual.max(1e-9 * (1.0 + x.abs())) {
                return Ok(x);
            }
        }
    }
    Err(Error::NoConvergence {
        iterations: opts.max_iter,
        residual: last_residual,
    })
}

/// Multidimensional Newton-Raphson with a user-supplied residual+Jacobian.
///
/// `f(x, r, j)` must write the residual into `r` and the Jacobian
/// `dr_i/dx_j` into `j`.
///
/// # Errors
///
/// [`Error::NoConvergence`] on iteration exhaustion, [`Error::Singular`] if
/// the Jacobian is singular at an iterate.
pub fn newton_system<F>(mut f: F, x0: &[f64], opts: NewtonOptions) -> Result<NewtonSolution>
where
    F: FnMut(&[f64], &mut [f64], &mut Matrix),
{
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut r = vec![0.0; n];
    let mut j = Matrix::zeros(n, n);
    let mut last_res = f64::INFINITY;
    for it in 0..opts.max_iter {
        j.clear();
        f(&x, &mut r, &mut j);
        let res = norm_inf(&r);
        if !res.is_finite() {
            return Err(Error::NonFinite {
                context: "newton_system residual",
            });
        }
        last_res = res;
        if res <= opts.tol_residual {
            return Ok(NewtonSolution {
                x,
                iterations: it,
                residual: res,
            });
        }
        let neg_r: Vec<f64> = r.iter().map(|v| -v).collect();
        let mut dx = j.solve(&neg_r)?;
        let step = norm_inf(&dx);
        if step > opts.max_step {
            let scale = opts.max_step / step;
            for d in &mut dx {
                *d *= scale;
            }
        }
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFinite {
                context: "newton_system update",
            });
        }
        if norm_inf(&dx) <= opts.tol_step && res <= opts.tol_residual.max(1e-9) {
            return Ok(NewtonSolution {
                x,
                iterations: it + 1,
                residual: res,
            });
        }
    }
    Err(Error::NoConvergence {
        iterations: opts.max_iter,
        residual: last_res,
    })
}

/// Bisection on `[a, b]`; requires `f(a)` and `f(b)` to have opposite signs.
///
/// # Errors
///
/// [`Error::NoBracket`] if the interval does not bracket a sign change;
/// [`Error::InvalidArgument`] if `a >= b` or `tol <= 0`.
pub fn bisect<F>(mut f: F, a: f64, b: f64, tol: f64, max_iter: usize) -> Result<f64>
where
    F: FnMut(f64) -> f64,
{
    if !(a < b) {
        return Err(Error::InvalidArgument("bisect: need a < b"));
    }
    if !(tol > 0.0) {
        return Err(Error::InvalidArgument("bisect: need tol > 0"));
    }
    let (mut lo, mut hi) = (a, b);
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(Error::NoBracket);
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 || (hi - lo) * 0.5 < tol {
            return Ok(mid);
        }
        if fm.signum() == flo.signum() {
            lo = mid;
            flo = fm;
        } else {
            hi = mid;
        }
    }
    Err(Error::NoConvergence {
        iterations: max_iter,
        residual: hi - lo,
    })
}

/// Brent's method: robust bracketing root finder combining bisection,
/// secant and inverse quadratic interpolation.
///
/// # Errors
///
/// Same contract as [`bisect`].
pub fn brent<F>(mut f: F, a: f64, b: f64, tol: f64, max_iter: usize) -> Result<f64>
where
    F: FnMut(f64) -> f64,
{
    if !(a < b) {
        return Err(Error::InvalidArgument("brent: need a < b"));
    }
    if !(tol > 0.0) {
        return Err(Error::InvalidArgument("brent: need tol > 0"));
    }
    let (mut xa, mut xb) = (a, b);
    let mut fa = f(xa);
    let mut fb = f(xb);
    if fa == 0.0 {
        return Ok(xa);
    }
    if fb == 0.0 {
        return Ok(xb);
    }
    if fa.signum() == fb.signum() {
        return Err(Error::NoBracket);
    }
    let (mut xc, mut fc) = (xa, fa);
    let mut d = xb - xa;
    let mut e = d;
    for _ in 0..max_iter {
        if fb.abs() > fc.abs() {
            // b should be the best approximation.
            xa = xb;
            xb = xc;
            xc = xa;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * xb.abs() + 0.5 * tol;
        let xm = 0.5 * (xc - xb);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(xb);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt interpolation.
            let s = fb / fa;
            let (mut p, mut q);
            if xa == xc {
                // Secant.
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                // Inverse quadratic.
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (xb - xa) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        xa = xb;
        fa = fb;
        if d.abs() > tol1 {
            xb += d;
        } else {
            xb += tol1.copysign(xm);
        }
        fb = f(xb);
        if fb.signum() == fc.signum() {
            xc = xa;
            fc = fa;
            d = xb - xa;
            e = d;
        }
    }
    Err(Error::NoConvergence {
        iterations: max_iter,
        residual: fb.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newton_scalar_sqrt2() {
        let r = newton_scalar(|x| (x * x - 2.0, 2.0 * x), 1.0, NewtonOptions::default()).unwrap();
        assert!((r - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn newton_scalar_damped_converges_on_steep_function() {
        // tanh-like residual where undamped Newton overshoots from far away.
        let opts = NewtonOptions {
            max_step: 0.5,
            max_iter: 200,
            ..NewtonOptions::default()
        };
        let r = newton_scalar(|x: f64| (x.tanh(), 1.0 / x.cosh().powi(2)), 3.0, opts).unwrap();
        assert!(r.abs() < 1e-9);
    }

    #[test]
    fn newton_scalar_flat_derivative_errors() {
        let res = newton_scalar(|_| (1.0, 0.0), 0.0, NewtonOptions::default());
        assert!(matches!(res, Err(Error::Singular { .. })));
    }

    #[test]
    fn newton_scalar_exhausts_iterations() {
        let opts = NewtonOptions {
            max_iter: 3,
            ..NewtonOptions::default()
        };
        // x^2 + 1 has no real root.
        let res = newton_scalar(|x| (x * x + 1.0, 2.0 * x), 2.0, opts);
        assert!(res.is_err());
    }

    #[test]
    fn newton_system_2d() {
        // x^2 + y^2 = 4, x - y = 0 -> x = y = sqrt(2)
        let sol = newton_system(
            |x, r, j| {
                r[0] = x[0] * x[0] + x[1] * x[1] - 4.0;
                r[1] = x[0] - x[1];
                j[(0, 0)] = 2.0 * x[0];
                j[(0, 1)] = 2.0 * x[1];
                j[(1, 0)] = 1.0;
                j[(1, 1)] = -1.0;
            },
            &[1.0, 0.5],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!((sol.x[0] - 2f64.sqrt()).abs() < 1e-10);
        assert!((sol.x[1] - 2f64.sqrt()).abs() < 1e-10);
        assert!(sol.iterations < 20);
    }

    #[test]
    fn newton_system_linear_converges_in_one_iteration_pair() {
        let sol = newton_system(
            |x, r, j| {
                r[0] = 2.0 * x[0] + x[1] - 5.0;
                r[1] = x[0] + 3.0 * x[1] - 10.0;
                j[(0, 0)] = 2.0;
                j[(0, 1)] = 1.0;
                j[(1, 0)] = 1.0;
                j[(1, 1)] = 3.0;
            },
            &[0.0, 0.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-12);
        assert!((sol.x[1] - 3.0).abs() < 1e-12);
        assert!(sol.iterations <= 2);
    }

    #[test]
    fn bisect_finds_cos_root() {
        let r = bisect(|x| x.cos(), 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((r - std::f64::consts::FRAC_PI_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(Error::NoBracket)
        ));
        assert!(bisect(|x| x, 1.0, 0.0, 1e-12, 100).is_err());
        assert!(bisect(|x| x, 0.0, 1.0, 0.0, 100).is_err());
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
    }

    #[test]
    fn brent_matches_bisect_on_smooth_function() {
        let rb = brent(|x| x.cos(), 0.0, 2.0, 1e-14, 100).unwrap();
        assert!((rb - std::f64::consts::FRAC_PI_2).abs() < 1e-10);
    }

    #[test]
    fn brent_polynomial_root() {
        // x^3 - 2x - 5 has a real root near 2.0945514815.
        let r = brent(|x| x * x * x - 2.0 * x - 5.0, 2.0, 3.0, 1e-14, 100).unwrap();
        assert!((r - 2.094551481542327).abs() < 1e-9);
    }

    #[test]
    fn brent_rejects_bad_inputs() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(Error::NoBracket)
        ));
        assert!(brent(|x| x, 1.0, 0.0, 1e-12, 100).is_err());
    }

    #[test]
    fn brent_endpoint_roots() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
    }
}
