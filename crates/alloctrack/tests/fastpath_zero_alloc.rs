//! Zero-allocation invariant for the transient fast paths: warm solves
//! with modified-Newton Jacobian reuse, device bypass, and telemetry all
//! ON must not touch the heap — the bypass bank is `Cell` slots sized at
//! the cold solve, a fast iteration is a residual-only stamp plus
//! permuted triangular solves against stored factors, and demotion back
//! to exact Newton refactors entirely inside the workspace.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{ElemState, Integration};
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_ckt::models::MosParams;
use fefet_ckt::waveform::Waveform;
use fefet_telemetry::Instrumentation;

/// Same nonlinear RC/MOSFET ladder as the other alloctrack tests:
/// > 100 unknowns so the sparse backend sees real fill-in.
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
fn fastpath_warm_transient_solves_allocate_nothing() {
    let c = ladder();
    let asm = Assembly::new(&c);
    let n = asm.n_unknowns();
    let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
    let instr = Instrumentation::enabled();

    let backend = SolverBackend::Sparse;
    let opts = SolverOptions {
        backend,
        jacobian_reuse: true,
        bypass: true,
        instr: instr.clone(),
        ..SolverOptions::default()
    };
    let mut ws = NewtonWorkspace::new(n);
    let mut x = vec![0.0; n];
    // Cold transient solve: builds backend state, factors, and the
    // bypass bank; must allocate.
    let (cold, r) = count_allocations(|| {
        asm.solve_point_with(
            &c,
            1e-9,
            1e-9,
            Integration::BackwardEuler,
            false,
            &opts,
            &mut x,
            &states,
            &mut ws,
        )
    });
    r.unwrap();
    assert!(cold > 0, "{backend:?}: cold solve should build state");

    // Phase 1 — resolves from the converged point: the stored
    // factorization and the cached operating points both hit, so
    // these ride the fast path end to end.
    for trial in 0..3 {
        let (warm, r) = count_allocations(|| {
            asm.solve_point_with(
                &c,
                1e-9,
                1e-9,
                Integration::BackwardEuler,
                false,
                &opts,
                &mut x,
                &states,
                &mut ws,
            )
        });
        r.unwrap();
        assert_eq!(
            warm, 0,
            "{backend:?} trial {trial}: fast-path warm solve performed \
             {warm} heap allocations"
        );
    }

    // Phase 2 — perturbed warm solves: bypass misses re-evaluate the
    // devices in place, and demotion to exact Newton refactors inside
    // the workspace. Still zero allocations.
    for trial in 0..3 {
        for v in x.iter_mut() {
            *v += 0.013;
        }
        let (warm, r) = count_allocations(|| {
            asm.solve_point_with(
                &c,
                1e-9,
                1e-9,
                Integration::BackwardEuler,
                false,
                &opts,
                &mut x,
                &states,
                &mut ws,
            )
        });
        let iters = r.unwrap();
        assert!(iters >= 1);
        assert_eq!(
            warm, 0,
            "{backend:?} perturbed trial {trial}: warm solve performed \
             {warm} heap allocations"
        );
    }

    // The fast paths actually fired while staying allocation-free.
    let tel = instr.get().expect("enabled");
    assert_eq!(tel.solver.solves.get(), 7, "1 cold + 6 warm");
    assert!(
        tel.solver.jacobian_reuses.get() > 0,
        "warm solves should ride stored factors"
    );
    assert!(
        tel.solver.bypass_hits.get() > 0,
        "resolves from the converged point should hit the bypass cache"
    );
    assert!(
        tel.solver.bypass_misses.get() > 0,
        "perturbed solves should miss the bypass cache"
    );
}
