use std::fmt;

use fefet_telemetry::ConvergenceReport;

/// Error type for circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CktError {
    /// The Newton iteration failed to converge at a DC point or time step.
    Convergence {
        /// Simulation time at which convergence failed (0 for DC).
        time: f64,
        /// Details from the solver.
        detail: String,
    },
    /// The Newton iteration exhausted its budget; carries structured
    /// diagnostics (worst-residual node, last damping factor, gmin
    /// trajectory) instead of a pre-formatted string.
    NewtonExhausted {
        /// Simulation time at which the solve gave up (0 for DC).
        time: f64,
        /// Where and how badly the iteration diverged.
        report: ConvergenceReport,
    },
    /// A measurement on a trace is ill-posed (too few samples,
    /// non-monotonic time axis, non-finite data, query out of range).
    Measurement {
        /// The signal being measured.
        signal: String,
        /// Why the measurement is ill-posed.
        reason: String,
    },
    /// The netlist is malformed (duplicate element name, unknown node,
    /// non-positive component value, ...).
    Netlist(String),
    /// A requested signal or element does not exist.
    UnknownSignal(String),
    /// A solution vector or device evaluation went NaN/infinite.
    NonFinite {
        /// Which stage produced the non-finite value.
        context: &'static str,
        /// Simulation time (s) of the offending step (0 for DC).
        step: f64,
    },
    /// Underlying numerical failure (singular matrix etc.).
    Numerics(fefet_numerics::Error),
}

impl fmt::Display for CktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CktError::Convergence { time, detail } => {
                write!(f, "no convergence at t={time:.3e}s: {detail}")
            }
            CktError::NewtonExhausted { time, report } => {
                write!(f, "no convergence at t={time:.3e}s: {report}")
            }
            CktError::Measurement { signal, reason } => {
                write!(f, "ill-posed measurement on {signal}: {reason}")
            }
            CktError::Netlist(msg) => write!(f, "netlist error: {msg}"),
            CktError::UnknownSignal(name) => write!(f, "unknown signal: {name}"),
            CktError::NonFinite { context, step } => {
                write!(f, "non-finite value in {context} at t={step:.3e}s")
            }
            CktError::Numerics(e) => write!(f, "numerical error: {e}"),
        }
    }
}

impl std::error::Error for CktError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CktError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fefet_numerics::Error> for CktError {
    fn from(e: fefet_numerics::Error) -> Self {
        CktError::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CktError::Netlist("dup".into()).to_string().contains("dup"));
        assert!(CktError::UnknownSignal("v(x)".into())
            .to_string()
            .contains("v(x)"));
        let c = CktError::Convergence {
            time: 1e-9,
            detail: "newton stalled".into(),
        };
        assert!(c.to_string().contains("newton stalled"));
        let n = CktError::NonFinite {
            context: "transient accept",
            step: 2e-9,
        };
        assert!(n.to_string().contains("transient accept"));
    }

    #[test]
    fn newton_exhausted_displays_report() {
        let e = CktError::NewtonExhausted {
            time: 3e-9,
            report: ConvergenceReport {
                iterations: 50,
                worst_node: 2,
                worst_node_name: "bl0".into(),
                worst_residual: 4.2e-3,
                last_damping: 0.5,
                gmin: 1e-12,
                gmin_trajectory: vec![],
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("50 iterations"), "{msg}");
        assert!(msg.contains("\"bl0\""), "{msg}");
        assert!(msg.contains("4.200e-3"), "{msg}");
    }

    #[test]
    fn measurement_error_names_signal_and_reason() {
        let e = CktError::Measurement {
            signal: "v(out)".into(),
            reason: "non-monotonic time axis at index 3".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("v(out)"), "{msg}");
        assert!(msg.contains("non-monotonic"), "{msg}");
    }

    #[test]
    fn from_numerics() {
        let e: CktError = fefet_numerics::Error::Singular { column: 0 }.into();
        assert!(matches!(e, CktError::Numerics(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
