//! Companion to `instrumented_newton_zero_alloc.rs`: the same warm-solve
//! invariant with **full profiling** on — a `TraceRecorder` attached and
//! latency histograms live. The record path is a thread-local lane-cache
//! lookup plus four relaxed atomic stores into a preallocated ring, and
//! histogram recording is a handful of relaxed atomic updates, so a warm
//! converging solve must still not touch the heap. Lane claim (ring
//! allocation, label formatting) happens on the cold solve only.
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

/// Same nonlinear ladder as the other solver pins (> 100 unknowns).
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
fn profiled_warm_newton_solves_allocate_nothing() {
    let c = ladder();
    let asm = Assembly::new(&c);
    let n = asm.n_unknowns();
    let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
    let instr = Instrumentation::enabled();
    let tr = instr
        .get()
        .expect("enabled")
        .attach_trace(fefet_telemetry::trace::DEFAULT_EVENTS_PER_LANE);

    let backend = SolverBackend::Sparse;
    let opts = SolverOptions {
        backend,
        instr: instr.clone(),
        ..SolverOptions::default()
    };
    let mut ws = NewtonWorkspace::new(n);
    let mut x = vec![0.0; n];
    // Cold solve: builds backend state and claims this thread's
    // trace lane; both may (and do) allocate.
    let (cold, r) = count_allocations(|| {
        asm.solve_point_with(
            &c,
            0.0,
            0.0,
            Integration::BackwardEuler,
            true,
            &opts,
            &mut x,
            &states,
            &mut ws,
        )
    });
    r.unwrap();
    assert!(cold > 0, "{backend:?}: cold solve builds backend state");
    for trial in 0..3 {
        for v in x.iter_mut() {
            *v += 0.013;
        }
        let (warm, r) = count_allocations(|| {
            asm.solve_point_with(
                &c,
                0.0,
                0.0,
                Integration::BackwardEuler,
                true,
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
            "{backend:?} trial {trial}: profiled warm solve \
             performed {warm} heap allocations"
        );
    }
    // The profiling actually happened: every solve emitted a Newton
    // complete event and a latency sample, with nothing dropped.
    let tel = instr.get().expect("enabled");
    assert_eq!(tel.solver.solves.get(), 4, "1 cold + 3 warm");
    assert_eq!(tel.latency.solve_ns.count(), 4);
    assert!(tel.latency.solve_ns.p50() <= tel.latency.solve_ns.p99());
    assert!(
        tr.events_recorded() >= 4,
        "newton events plus factor instants"
    );
    assert_eq!(tr.dropped(), 0);
    assert_eq!(tr.lanes_claimed(), 1, "single test thread, single lane");
}
