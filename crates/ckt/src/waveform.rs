//! Stimulus waveforms for independent sources.
//!
//! Each waveform can report its *breakpoints* — times at which its slope is
//! discontinuous — so the transient scheduler lands a time step exactly on
//! every corner and never integrates across one.

/// A time-dependent stimulus for voltage and current sources.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Trapezoid-shaped pulse (optionally periodic), SPICE `PULSE(...)` style.
    Pulse(Pulse),
    /// Piecewise-linear `(t, v)` points; constant before the first and
    /// after the last point.
    Pwl(Vec<(f64, f64)>),
    /// `offset + ampl * sin(2π freq (t - delay))`, zero before `delay`.
    Sin {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
    },
}

/// SPICE-style trapezoidal pulse description. Levels are in the
/// source's own units (volts for voltage sources, amperes for current
/// sources); all edge timings are in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pulse {
    /// Initial (and final) level, in volts or amperes per the source
    /// kind.
    pub v0: f64,
    /// Pulsed level, in volts or amperes per the source kind.
    pub v1: f64,
    /// Delay (s) before the first edge.
    pub delay: f64,
    /// Rise time (s); 0 is allowed (a 1 fs minimum is enforced
    /// internally).
    pub rise: f64,
    /// Fall time (s).
    pub fall: f64,
    /// Time (s) spent at `v1`.
    pub width: f64,
    /// Repetition period; `None` for a single pulse.
    pub period: Option<f64>,
}

/// Minimum edge time substituted for zero rise/fall, keeping the waveform
/// continuous for the implicit integrator.
const MIN_EDGE: f64 = 1e-15;

impl Waveform {
    /// Constant waveform at level `v` (volts or amperes, per the
    /// source kind).
    pub fn dc(v: f64) -> Self {
        Waveform::Dc(v)
    }

    /// Single trapezoidal pulse: levels `v0`/`v1` in the source's own
    /// units (volts or amperes), timings `delay`/`rise`/`fall`/`width`
    /// in seconds.
    pub fn pulse(v0: f64, v1: f64, delay: f64, rise: f64, fall: f64, width: f64) -> Self {
        Waveform::Pulse(Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period: None,
        })
    }

    /// Piecewise-linear waveform from `(t, v)` points (must be sorted by
    /// non-decreasing time; this is validated by the circuit builder).
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        Waveform::Pwl(points)
    }

    /// Evaluates the waveform at time `t` (s).
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse(p) => p.eval(t),
            Waveform::Pwl(pts) => eval_pwl(pts, t),
            Waveform::Sin {
                offset,
                ampl,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }

    /// Appends slope-discontinuity times (s) within `[0, t_end]` to
    /// `out`.
    pub fn breakpoints(&self, t_end: f64, out: &mut Vec<f64>) {
        match self {
            Waveform::Dc(_) => {}
            Waveform::Pulse(p) => p.breakpoints(t_end, out),
            Waveform::Pwl(pts) => {
                for (t, _) in pts {
                    if *t >= 0.0 && *t <= t_end {
                        out.push(*t);
                    }
                }
            }
            Waveform::Sin { delay, .. } => {
                if *delay > 0.0 && *delay <= t_end {
                    out.push(*delay);
                }
            }
        }
    }

    /// True if the waveform is identically zero (used to skip energy
    /// metering of grounded references).
    pub fn is_zero(&self) -> bool {
        match self {
            Waveform::Dc(v) => *v == 0.0,
            Waveform::Pwl(pts) => pts.iter().all(|(_, v)| *v == 0.0),
            Waveform::Pulse(p) => p.v0 == 0.0 && p.v1 == 0.0,
            Waveform::Sin { offset, ampl, .. } => *offset == 0.0 && *ampl == 0.0,
        }
    }
}

impl Pulse {
    fn edges(&self) -> (f64, f64) {
        (self.rise.max(MIN_EDGE), self.fall.max(MIN_EDGE))
    }

    fn eval(&self, t: f64) -> f64 {
        let (rise, fall) = self.edges();
        let single = rise + self.width + fall;
        let mut tau = t - self.delay;
        if tau < 0.0 {
            return self.v0;
        }
        if let Some(p) = self.period {
            if p > 0.0 {
                tau %= p;
            }
        }
        if tau < rise {
            self.v0 + (self.v1 - self.v0) * tau / rise
        } else if tau < rise + self.width {
            self.v1
        } else if tau < single {
            self.v1 + (self.v0 - self.v1) * (tau - rise - self.width) / fall
        } else {
            self.v0
        }
    }

    fn breakpoints(&self, t_end: f64, out: &mut Vec<f64>) {
        let (rise, fall) = self.edges();
        let corners = [0.0, rise, rise + self.width, rise + self.width + fall];
        let mut base = self.delay;
        loop {
            let mut any = false;
            for c in corners {
                let t = base + c;
                if t <= t_end {
                    if t >= 0.0 {
                        out.push(t);
                    }
                    any = true;
                }
            }
            match self.period {
                Some(p) if p > 0.0 && any => base += p,
                _ => break,
            }
            if base > t_end {
                break;
            }
        }
    }
}

fn eval_pwl(pts: &[(f64, f64)], t: f64) -> f64 {
    if pts.is_empty() {
        return 0.0;
    }
    if t <= pts[0].0 {
        return pts[0].1;
    }
    let last = pts[pts.len() - 1];
    if t >= last.0 {
        return last.1;
    }
    for w in pts.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        if t >= t0 && t <= t1 {
            if t1 == t0 {
                return v1;
            }
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        }
    }
    last.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_constant() {
        let w = Waveform::dc(3.3);
        assert_eq!(w.eval(0.0), 3.3);
        assert_eq!(w.eval(1e9), 3.3);
        let mut bp = vec![];
        w.breakpoints(1.0, &mut bp);
        assert!(bp.is_empty());
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9);
        assert_eq!(w.eval(0.0), 0.0);
        assert_eq!(w.eval(0.99e-9), 0.0);
        assert!((w.eval(1.05e-9) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.eval(1.5e-9), 1.0); // flat top
        assert!((w.eval(2.15e-9) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.eval(3e-9), 0.0); // back to v0
    }

    #[test]
    fn pulse_zero_edge_times_are_safe() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9);
        assert_eq!(w.eval(0.5e-9), 1.0);
        assert_eq!(w.eval(2e-9), 0.0);
    }

    #[test]
    fn periodic_pulse_repeats() {
        let w = Waveform::Pulse(Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 0.3e-9,
            period: Some(1e-9),
        });
        assert_eq!(w.eval(0.2e-9), 1.0);
        assert_eq!(w.eval(1.2e-9), 1.0);
        assert_eq!(w.eval(0.8e-9), 0.0);
        assert_eq!(w.eval(1.8e-9), 0.0);
    }

    #[test]
    fn pulse_breakpoints_cover_corners() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.2e-9, 1e-9);
        let mut bp = vec![];
        w.breakpoints(10e-9, &mut bp);
        let expect = [1e-9, 1.1e-9, 2.1e-9, 2.3e-9];
        for e in expect {
            assert!(
                bp.iter().any(|b| (b - e).abs() < 1e-18),
                "missing breakpoint {e}"
            );
        }
    }

    #[test]
    fn periodic_breakpoints_bounded() {
        let w = Waveform::Pulse(Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 1e-12,
            fall: 1e-12,
            width: 0.5e-9,
            period: Some(1e-9),
        });
        let mut bp = vec![];
        w.breakpoints(5e-9, &mut bp);
        assert!(bp.iter().all(|t| *t <= 5e-9));
        assert!(bp.len() >= 20); // 4 corners x 5 periods
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(1.0, 0.0), (2.0, 10.0), (3.0, 10.0)]);
        assert_eq!(w.eval(0.0), 0.0);
        assert_eq!(w.eval(1.5), 5.0);
        assert_eq!(w.eval(2.5), 10.0);
        assert_eq!(w.eval(99.0), 10.0);
        let mut bp = vec![];
        w.breakpoints(10.0, &mut bp);
        assert_eq!(bp, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pwl_vertical_step() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (2.0, 5.0)]);
        assert_eq!(w.eval(0.5), 0.0);
        assert_eq!(w.eval(1.5), 5.0);
    }

    #[test]
    fn sin_waveform() {
        let w = Waveform::Sin {
            offset: 1.0,
            ampl: 0.5,
            freq: 1.0,
            delay: 0.25,
        };
        assert_eq!(w.eval(0.0), 1.0); // before delay
        assert!((w.eval(0.5) - 1.5).abs() < 1e-12); // quarter period after delay
    }

    #[test]
    fn is_zero_detection() {
        assert!(Waveform::dc(0.0).is_zero());
        assert!(!Waveform::dc(1.0).is_zero());
        assert!(Waveform::pwl(vec![(0.0, 0.0), (1.0, 0.0)]).is_zero());
        assert!(!Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9).is_zero());
    }
}
