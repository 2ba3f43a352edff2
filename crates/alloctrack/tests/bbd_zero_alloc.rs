//! Zero-allocation invariant for the BBD/Schur backend: once a
//! workspace has analyzed the bordered-block-diagonal structure and
//! factored it, warm solves — block forward/back solves, the dense
//! border solve, and full numeric refactorization after a Jacobian
//! change — must not touch the heap. Every buffer (per-block LU
//! storage, B/C coupling values, the Schur complement, scatter maps,
//! scratch) is sized during the one-time symbolic analysis.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::ElemState;
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_ckt::plan::BlockPlan;
use fefet_ckt::waveform::Waveform;
use fefet_telemetry::Instrumentation;
use std::sync::Arc;

/// A star of nonlinear RC legs coupled only through the center node:
/// every leg is one diagonal block, the center node and source branch
/// are the border.
fn star(k: usize) -> (Circuit, BlockPlan) {
    let mut c = Circuit::new();
    let center = c.node("c");
    c.vsource("V1", center, Circuit::GND, Waveform::dc(1.0));
    for j in 0..k {
        let a = c.node(&format!("a{j}"));
        let b = c.node(&format!("b{j}"));
        c.resistor(&format!("Ra{j}"), center, a, 1e3);
        c.resistor(&format!("Rab{j}"), a, b, 2e3);
        c.diode(&format!("D{j}"), b, Circuit::GND, 1e-14, 1.0);
        c.capacitor(&format!("Cb{j}"), b, Circuit::GND, 1e-12);
    }
    let mut plan = BlockPlan::for_circuit(&c);
    for j in 0..k {
        plan.assign_node_name(&c, &format!("a{j}"), j).unwrap();
        plan.assign_node_name(&c, &format!("b{j}"), j).unwrap();
    }
    (c, plan)
}

#[test]
fn bbd_warm_solves_allocate_nothing() {
    let (c, plan) = star(40);
    let asm = Assembly::new(&c);
    let n = asm.n_unknowns();
    let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
    let instr = Instrumentation::enabled();
    let opts = SolverOptions {
        backend: SolverBackend::Bbd,
        jacobian_reuse: true,
        bypass: true,
        instr: instr.clone(),
        block_plan: Some(Arc::new(plan)),
        ..SolverOptions::default()
    };
    let mut ws = NewtonWorkspace::new(n);
    let mut x = vec![0.0; n];

    // Cold transient solve: pattern recording, structure analysis,
    // factorization — must allocate.
    let (cold, r) = count_allocations(|| {
        asm.solve_point_with(&c, 1e-9, 1e-9, false, &opts, &mut x, &states, &mut ws)
    });
    r.unwrap();
    assert!(cold > 0, "cold solve should build the BBD state");
    let (blocks, border, classes) = ws.bbd_dims(false).expect("BBD state built");
    assert_eq!(blocks, 40);
    assert!(border >= 2, "center node + source branch");
    assert_eq!(classes, 1, "identical legs share one block analysis");

    // Warm resolves from the converged point: stored factors hit.
    for trial in 0..3 {
        let (warm, r) = count_allocations(|| {
            asm.solve_point_with(&c, 1e-9, 1e-9, false, &opts, &mut x, &states, &mut ws)
        });
        r.unwrap();
        assert_eq!(
            warm, 0,
            "trial {trial}: warm BBD solve performed {warm} heap allocations"
        );
    }

    // Perturbed warm solves: real Newton iterations with numeric
    // refactorization (block LUs + Schur rebuild + border factor), all
    // inside preallocated storage.
    for trial in 0..3 {
        for v in x.iter_mut() {
            *v += 0.017;
        }
        let (warm, r) = count_allocations(|| {
            asm.solve_point_with(&c, 1e-9, 1e-9, false, &opts, &mut x, &states, &mut ws)
        });
        let iters = r.unwrap();
        assert!(iters >= 1);
        assert_eq!(
            warm, 0,
            "perturbed trial {trial}: warm BBD solve performed {warm} heap allocations"
        );
    }

    let tel = instr.get().expect("enabled");
    assert!(tel.solver.bbd_refactors.get() >= 1);
    assert!(tel.solver.bbd_block_solves.get() > 0);
}
