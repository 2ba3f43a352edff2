//! Probe recording against the full trace: an array row op records
//! only the currents, polarizations and energy it reads back, and must
//! return exactly — bit for bit — what the full-waveform path gives.
//!
//! The reference here is that full path, kept only in this test: build
//! the op's circuit, run [`transient`] with every signal recorded, then
//! pull each result out of the trace by its `format!`ed signal name.

use std::sync::Arc;

use fefet_ckt::circuit::Circuit;
use fefet_ckt::engine::SolverOptions;
use fefet_ckt::plan::{AnalysisCache, BlockPlan};
use fefet_ckt::trace::Trace;
use fefet_ckt::transient::{transient, TransientOptions};
use fefet_mem::array::{ArrayRead, FefetArray, I_SENSE_THRESHOLD_A};
use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::feram_array::FeramArray;
use fefet_numerics::rng::Rng;

/// The arrays' op timing: quiescent lead-in and control-edge time (s).
const T_START: f64 = 0.2e-9;
const T_EDGE: f64 = 50e-12;

/// Same fixture as `fastpath_parity.rs`: an 8×8 array with a seeded bit
/// pattern installed as stored polarizations and a 40 ps step.
fn seeded_8x8() -> FefetArray {
    let mut a = FefetArray::new(8, 8, FefetCell::default());
    a.cell.dt = 40e-12;
    let (p_lo, p_hi) = a.cell.memory_states();
    let mut rng = Rng::seed_from_u64(0x8a_8a);
    for i in 0..8 {
        for j in 0..8 {
            let bit = rng.uniform() > 0.5;
            a.set_polarization(i, j, if bit { p_hi } else { p_lo });
        }
    }
    a
}

/// The options a FEFET array op runs with, node ICs found by name.
fn fefet_opts(a: &FefetArray, c: &Circuit, cache: &AnalysisCache) -> TransientOptions {
    let mut node_ics = Vec::new();
    for i in 0..a.rows {
        for j in 0..a.cols {
            let p0 = a.polarization(i, j);
            let gi = c.find_node(&format!("gi{i}_{j}")).expect("gi node");
            let g = c.find_node(&format!("g{i}_{j}")).expect("g node");
            node_ics.push((gi, a.cell.fefet.v_mos_of(p0)));
            node_ics.push((g, a.cell.fefet.v_gate_static(p0)));
        }
    }
    TransientOptions {
        dt: a.cell.dt,
        node_ics,
        predict: a.fastpaths.predict,
        solver: SolverOptions {
            backend: a.solver_backend,
            jacobian_reuse: a.fastpaths.jacobian_reuse,
            bypass: a.fastpaths.bypass,
            block_plan: Some(Arc::new(a.block_plan(c).expect("plan"))),
            cache: Some(cache.clone()),
            ..SolverOptions::default()
        },
        ..TransientOptions::default()
    }
}

/// Final polarization of every cell, row-major, by signal name.
fn final_polarizations(tr: &Trace, rows: usize, cols: usize, prefix: &str) -> Vec<f64> {
    let mut p = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            p.push(
                tr.last(&format!("p({prefix}{i}_{j})"))
                    .expect("polarization"),
            );
        }
    }
    p
}

/// Largest |ΔP| outside `skip_row`, in the arrays' row-major order.
fn max_disturb(before: &[f64], after: &[f64], cols: usize, skip_row: Option<usize>) -> f64 {
    let mut worst: f64 = 0.0;
    for (k, (b, a)) in before.iter().zip(after).enumerate() {
        if Some(k / cols) != skip_row {
            worst = worst.max((a - b).abs());
        }
    }
    worst
}

fn stored(a: &FefetArray) -> Vec<f64> {
    (0..a.rows)
        .flat_map(|i| (0..a.cols).map(move |j| (i, j)))
        .map(|(i, j)| a.polarization(i, j))
        .collect()
}

/// What a FEFET read reports, by the full-trace path.
struct RefRead {
    currents: Vec<f64>,
    bits: Vec<bool>,
    max_sneak: f64,
    max_disturb: f64,
    energy: f64,
    steps: usize,
}

fn reference_read(a: &FefetArray, row: usize, t_read: f64) -> RefRead {
    let c = a.read_circuit(row, t_read).expect("read circuit");
    let tr = transient(
        &c,
        T_START + t_read + 0.4e-9,
        fefet_opts(a, &c, &AnalysisCache::new()),
    )
    .expect("reference read");
    let t_sample = T_START + t_read - 2.0 * T_EDGE;
    let current = |i: usize, j: usize| {
        tr.value_at(&format!("i(Mfet{i}_{j})"), t_sample)
            .expect("current")
    };
    let currents: Vec<f64> = (0..a.cols).map(|j| current(row, j)).collect();
    let mut max_sneak: f64 = 0.0;
    for i in (0..a.rows).filter(|&i| i != row) {
        for j in 0..a.cols {
            max_sneak = max_sneak.max(current(i, j).abs());
        }
    }
    let after = final_polarizations(&tr, a.rows, a.cols, "Ffe");
    RefRead {
        bits: currents.iter().map(|i| *i > I_SENSE_THRESHOLD_A).collect(),
        currents,
        max_sneak,
        max_disturb: max_disturb(&stored(a), &after, a.cols, None),
        energy: tr.total_source_energy(),
        steps: tr.time().len() - 1,
    }
}

fn assert_read_matches(got: &ArrayRead, want: &RefRead, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.currents),
        bits(&want.currents),
        "{what}: currents"
    );
    assert_eq!(got.bits, want.bits, "{what}: bits");
    assert_eq!(
        got.max_sneak.to_bits(),
        want.max_sneak.to_bits(),
        "{what}: max_sneak"
    );
    assert_eq!(
        got.op.max_disturb.to_bits(),
        want.max_disturb.to_bits(),
        "{what}: max_disturb"
    );
    assert_eq!(
        got.op.energy.to_bits(),
        want.energy.to_bits(),
        "{what}: energy"
    );
    assert_eq!(got.op.steps, want.steps, "{what}: steps");
}

#[test]
fn fefet_read_and_write_match_the_full_trace() {
    let mut a = seeded_8x8();
    let t_read = 0.3e-9;
    for row in [0usize, 5] {
        let want = reference_read(&a, row, t_read);
        let got = a.read_row(row, t_read).expect("probe read");
        assert_read_matches(&got, &want, &format!("read row {row}"));
        assert!(want.currents.iter().any(|i| *i > I_SENSE_THRESHOLD_A));
    }

    let (row, data, t_pulse) = (
        3usize,
        [true, false, true, true, false, false, true, false],
        1e-9,
    );
    let c = a.write_circuit(row, &data, t_pulse).expect("write circuit");
    let tr = transient(
        &c,
        T_START + t_pulse + 0.3e-9 + 0.5e-9,
        fefet_opts(&a, &c, &AnalysisCache::new()),
    )
    .expect("reference write");
    let after = final_polarizations(&tr, a.rows, a.cols, "Ffe");
    let want_disturb = max_disturb(&stored(&a), &after, a.cols, Some(row));
    let op = a.write_row(row, &data, t_pulse).expect("probe write");
    assert_eq!(op.steps, tr.time().len() - 1, "write steps");
    assert_eq!(op.energy.to_bits(), tr.total_source_energy().to_bits());
    assert_eq!(op.max_disturb.to_bits(), want_disturb.to_bits());
    let committed: Vec<u64> = stored(&a).iter().map(|p| p.to_bits()).collect();
    let want: Vec<u64> = after.iter().map(|p| p.to_bits()).collect();
    assert_eq!(committed, want, "committed polarizations");
    for (j, &bit) in data.iter().enumerate() {
        assert_eq!(a.bit(row, j), bit, "written bit {j}");
    }
}

#[test]
fn fefet_read_rows_match_the_full_trace_at_1_and_4_threads() {
    let a = seeded_8x8();
    let t_read = 0.3e-9;
    let rows = [0usize, 3, 7];
    let want: Vec<RefRead> = rows
        .iter()
        .map(|&r| reference_read(&a, r, t_read))
        .collect();
    for threads in [1, 4] {
        let got = a.read_rows(&rows, t_read, threads).expect("sweep");
        for ((g, w), row) in got.iter().zip(&want).zip(rows) {
            assert_read_matches(g, w, &format!("{threads} threads, row {row}"));
        }
    }
}

/// The options a FERAM array op runs with.
fn feram_opts(a: &FeramArray, c: &Circuit, cache: &AnalysisCache) -> TransientOptions {
    let plan: BlockPlan = a.block_plan(c).expect("plan");
    TransientOptions {
        dt: a.cell.dt,
        solver: SolverOptions {
            backend: a.solver_backend,
            block_plan: Some(Arc::new(plan)),
            cache: Some(cache.clone()),
            ..SolverOptions::default()
        },
        ..TransientOptions::default()
    }
}

fn feram_stored(a: &FeramArray) -> Vec<f64> {
    (0..a.rows)
        .flat_map(|i| (0..a.cols).map(move |j| (i, j)))
        .map(|(i, j)| a.polarization(i, j))
        .collect()
}

#[test]
fn feram_write_read_and_commit_match_the_full_trace() {
    let mut a = FeramArray::new(4, 4, FeramCell::default());
    let cache = AnalysisCache::new();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let (row, data, t_pulse) = (1usize, [true, false, true, true], 1.2e-9);
    let c = a.write_circuit(row, &data, t_pulse).expect("write circuit");
    let tr = transient(
        &c,
        T_START + 2.0 * t_pulse + 0.5e-9 + 0.4e-9,
        feram_opts(&a, &c, &cache),
    )
    .expect("reference write");
    let after = final_polarizations(&tr, a.rows, a.cols, "Fcap");
    let want_disturb = max_disturb(&feram_stored(&a), &after, a.cols, Some(row));
    let op = a.write_row(row, &data, t_pulse).expect("probe write");
    assert_eq!(op.steps, tr.time().len() - 1, "write steps");
    assert_eq!(op.energy.to_bits(), tr.total_source_energy().to_bits());
    assert_eq!(op.max_disturb.to_bits(), want_disturb.to_bits());
    assert_eq!(bits(&feram_stored(&a)), bits(&after), "write commit");

    // Destructive read: swings, disturb and the committed (flipped)
    // state all match the full trace.
    let t_dev = 2e-9;
    let c = a.read_circuit(row, t_dev).expect("read circuit");
    let tr = transient(&c, T_START + t_dev + 0.4e-9, feram_opts(&a, &c, &cache))
        .expect("reference read");
    let swings: Vec<f64> = (0..a.cols)
        .map(|j| {
            tr.window_max(&format!("v(bl{j})"), T_START, T_START + t_dev)
                .expect("swing")
        })
        .collect();
    let after = final_polarizations(&tr, a.rows, a.cols, "Fcap");
    let want_disturb = max_disturb(&feram_stored(&a), &after, a.cols, Some(row));
    let (op, got) = a.read_row(row, t_dev).expect("probe read");
    assert_eq!(bits(&got), bits(&swings), "swings");
    assert_eq!(op.steps, tr.time().len() - 1, "read steps");
    assert_eq!(op.energy.to_bits(), tr.total_source_energy().to_bits());
    assert_eq!(op.max_disturb.to_bits(), want_disturb.to_bits());
    assert_eq!(bits(&feram_stored(&a)), bits(&after), "destructive commit");
    assert!(!a.bit(row, 0), "the read destroyed the stored '1'");
}
