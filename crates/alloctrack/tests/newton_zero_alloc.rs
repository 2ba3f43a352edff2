//! Pins the zero-allocation Newton hot-path invariant with a counting
//! global allocator: after the first (cold) solve builds the backend
//! state inside `NewtonWorkspace`, every further solve — DC or
//! transient stamping — must perform exactly zero heap
//! allocations, across stamping, numeric (re)factorization, triangular
//! solves, damping, and convergence checks.
//!
//! This file holds a single `#[test]` on purpose: the allocation
//! counter is process-global, so a concurrently running sibling test
//! would inflate the counts.

use fefet_alloctrack::count_allocations;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::ElemState;
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_ckt::models::MosParams;
use fefet_ckt::waveform::Waveform;

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
fn warm_newton_solves_allocate_nothing() {
    let c = ladder();
    let asm = Assembly::new(&c);
    let n = asm.n_unknowns();
    let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();

    let backend = SolverBackend::Sparse;
    let opts = SolverOptions {
        backend,
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
        // Warm solves: perturb the iterate so Newton has to take
        // several genuine iterations, and demand zero allocations.
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
                "{backend:?} dc={dc} trial {trial}: warm solve performed {warm} heap allocations"
            );
        }
    }
}
