//! Companion to `newton_zero_alloc.rs`: the same warm-solve invariant
//! with telemetry **enabled**. Recording is relaxed-atomic counter and
//! histogram updates only, so turning instrumentation on must not cost
//! the hot path a single heap allocation either — the span registry
//! allocates at registration time, and `ConvergenceReport` only on the
//! failure path, neither of which a converging warm solve touches.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::ElemState;
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_ckt::models::MosParams;
use fefet_ckt::waveform::Waveform;
use fefet_telemetry::Instrumentation;

/// A nonlinear RC/MOSFET ladder big enough (> 100 unknowns) that the
/// sparse backend is exercising real fill-in, not a toy diagonal.
fn ladder() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
    let mut prev = vdd;
    for i in 0..60 {
        let n = c.node(&format!("n{i}"));
        c.resistor(&format!("R{i}"), prev, n, 1e3);
        c.capacitor(&format!("C{i}"), n, Circuit::GND, 1e-15);
        if i % 10 == 5 {
            c.mosfet(
                &format!("M{i}"),
                n,
                prev,
                Circuit::GND,
                MosParams::nmos_45nm(),
            );
        }
        prev = n;
    }
    c
}

#[test]
fn instrumented_warm_newton_solves_allocate_nothing() {
    let c = ladder();
    let asm = Assembly::new(&c);
    let n = asm.n_unknowns();
    let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
    let instr = Instrumentation::enabled();

    let backend = SolverBackend::Sparse;
    let opts = SolverOptions {
        backend,
        instr: instr.clone(),
        ..SolverOptions::default()
    };
    for dc in [true, false] {
        let mut ws = NewtonWorkspace::new(n);
        let (h, t) = if dc { (0.0, 0.0) } else { (1e-9, 1e-9) };
        let mut x = vec![0.0; n];
        // Cold solve: builds the backend state; must allocate.
        let (cold, r) = count_allocations(|| {
            asm.solve_point_with(&c, t, h, dc, &opts, &mut x, &states, &mut ws)
        });
        r.unwrap();
        assert!(
            cold > 0,
            "{backend:?} dc={dc}: cold solve should build backend state"
        );
        for trial in 0..3 {
            for v in x.iter_mut() {
                *v += 0.013;
            }
            let (warm, r) = count_allocations(|| {
                asm.solve_point_with(&c, t, h, dc, &opts, &mut x, &states, &mut ws)
            });
            let iters = r.unwrap();
            assert!(iters >= 1);
            assert_eq!(
                warm, 0,
                "{backend:?} dc={dc} trial {trial}: instrumented warm solve \
                 performed {warm} heap allocations"
            );
        }
    }
    // And the recording actually happened: one converged solve per
    // mode per trial plus the cold solves.
    let tel = instr.get().expect("enabled");
    assert_eq!(tel.solver.solves.get(), 8, "2 modes x (1 cold + 3 warm)");
    assert!(tel.solver.newton_iterations.count() == 8);
    assert!(tel.solver.back_substitutions.get() > 0);
}
