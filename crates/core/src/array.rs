//! The m×n FEFET memory array (Fig 7): shared write-select / read-select
//! lines along rows, shared bit / sense lines along columns, Table 1
//! biasing, and the §4 isolation guarantees:
//!
//! - unaccessed rows see −V_DD on their write select, keeping their
//!   access transistors off for either bit-line polarity;
//! - the virtual-ground sense line prevents sneak/reverse currents in
//!   unaccessed cells during reads.

use crate::bias::Operation;
use crate::cell::FefetCell;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::Node;
use fefet_ckt::engine::{Assembly, SolverBackend, SolverOptions};
use fefet_ckt::plan::{AnalysisCache, BlockPlan};
use fefet_ckt::transient::{transient_probes, ProbeRecord, Probes, TransientOptions};
use fefet_ckt::waveform::Waveform;
use fefet_ckt::{CktError, Result};
use fefet_telemetry::{Instrumentation, TraceEvent};
use std::sync::Arc;

/// Edge time for control ramps (s).
const T_EDGE: f64 = 50e-12;
/// Quiescent lead-in (s).
const T_START: f64 = 0.2e-9;
/// Write-select hold past the bit-line pulse (s).
const T_RESTORE: f64 = 0.3e-9;

/// Sense-amp current threshold separating ON from OFF bits (A).
///
/// [`FefetArray::read_row`] digitizes column currents against this
/// value; the serving layer's macro fast path reuses it so guard-band
/// margin checks agree with what an escalated circuit read would do.
pub const I_SENSE_THRESHOLD_A: f64 = 1e-7;

/// Per-array switches for the transient fast paths (modified-Newton
/// Jacobian reuse, device bypass, step prediction). All default **on**;
/// turning one off forces the corresponding exact path, which the parity
/// tests use to bound the fast paths' error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastPathToggles {
    /// Reuse factored Jacobians while the residual contracts.
    pub jacobian_reuse: bool,
    /// Skip model evaluation for elements at an unchanged operating
    /// point.
    pub bypass: bool,
    /// Start each timestep's Newton from an extrapolated node vector.
    pub predict: bool,
}

impl Default for FastPathToggles {
    fn default() -> Self {
        FastPathToggles {
            jacobian_reuse: true,
            bypass: true,
            predict: true,
        }
    }
}

impl FastPathToggles {
    /// Every fast path disabled: the exact PR-3 solver behavior.
    pub fn exact() -> Self {
        FastPathToggles {
            jacobian_reuse: false,
            bypass: false,
            predict: false,
        }
    }
}

/// An m×n array of 2T FEFET cells with explicit stored polarization.
#[derive(Debug, Clone)]
pub struct FefetArray {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Cell/bias template (line capacitances are recomputed from the
    /// array dimensions).
    pub cell: FefetCell,
    /// Linear-solver backend for every simulation this array runs.
    /// `Auto` (the default) runs the pattern-cached sparse LU, promoted
    /// to BBD over the array's block plan at the engine's
    /// `BBD_CROSSOVER`; force `Sparse` or `Bbd` for A/B comparisons.
    pub solver_backend: SolverBackend,
    /// Transient fast-path switches for every simulation this array
    /// runs; defaults to all on.
    pub fastpaths: FastPathToggles,
    /// Telemetry sink for every simulation this array runs. Off by
    /// default; set to [`Instrumentation::enabled`] (or a shared
    /// handle) to aggregate Newton/step/array statistics — the handle
    /// is cloned into worker threads by [`FefetArray::read_rows`], so
    /// one sink collects a whole parallel sweep.
    pub instr: Instrumentation,
    /// Shared symbolic-analysis cache: one analysis per matrix pattern
    /// for this array's lifetime, shared (by `Arc`) into every clone —
    /// including the pooled sweep workers of [`FefetArray::read_rows`]
    /// and [`FefetArray::write_disturb_map`].
    cache: AnalysisCache,
    state: Vec<f64>,
}

/// MNA problem size of an array-level circuit, as reported by
/// [`FefetArray::mna_dims`] / [`crate::feram_array::FeramArray::mna_dims`]
/// — lets benches record how big the system a solver faced actually was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MnaDims {
    /// Non-ground node count (voltage unknowns).
    pub n_nodes: usize,
    /// Total unknowns: node voltages plus source branch currents.
    pub n_unknowns: usize,
}

/// Node and element positions of an array circuit, recorded by the
/// netlist builder as it adds each one, so that an op's initial
/// conditions and results are indexed rather than looked up by name.
/// Per-cell tables are row-major (`i * cols + j`).
#[derive(Debug)]
pub(crate) struct ArrayIndex {
    /// Gate node `g{i}_{j}` of each cell (FE capacitor top plate).
    pub(crate) g: Vec<Node>,
    /// Internal node `gi{i}_{j}` of each cell (FE capacitor bottom
    /// plate, FEFET gate).
    pub(crate) gi: Vec<Node>,
    /// Element position of each cell's FE capacitor `Ffe{i}_{j}`.
    pub(crate) fe: Vec<usize>,
    /// Element position of each cell's read transistor `Mfet{i}_{j}`.
    pub(crate) mfet: Vec<usize>,
    /// Read-select line `rs{i}` of each row.
    pub(crate) rs: Vec<Node>,
    /// Sense line `sl{j}` of each column.
    pub(crate) sl: Vec<Node>,
}

/// Result of an array-level operation.
#[derive(Debug, Clone)]
pub struct ArrayOp {
    /// Accepted transient time steps.
    pub steps: usize,
    /// Total driver energy (J).
    pub energy: f64,
    /// Largest polarization drift of any **unaccessed** cell (C/m²).
    pub max_disturb: f64,
}

/// Result of an array read.
#[derive(Debug, Clone)]
pub struct ArrayRead {
    /// The array-op record.
    pub op: ArrayOp,
    /// Sensed cell currents per column of the accessed row (A).
    pub currents: Vec<f64>,
    /// Digitized data (current above `i_threshold`).
    pub bits: Vec<bool>,
    /// Largest current through any unaccessed cell during the read (A) —
    /// the sneak-path check.
    pub max_sneak: f64,
}

impl FefetArray {
    /// Creates an array with every cell initialized to logic '0'
    /// (the low-polarization state).
    pub fn new(rows: usize, cols: usize, mut cell: FefetCell) -> Self {
        assert!(rows >= 1 && cols >= 1, "array: need at least 1x1");
        // Scale the line parasitics to this array's physical extent.
        let metal_per_m = 0.2e-15 / 1e-6;
        let pitch_x = 20.0 * crate::layout::LAMBDA_45NM;
        let pitch_y = 9.6 * crate::layout::LAMBDA_45NM;
        cell.c_bit_line = metal_per_m * rows as f64 * pitch_y;
        cell.c_sense_line = metal_per_m * rows as f64 * pitch_y;
        cell.c_write_select = metal_per_m * cols as f64 * pitch_x;
        cell.c_read_select = metal_per_m * cols as f64 * pitch_x;
        let (p_lo, _) = cell.memory_states();
        FefetArray {
            rows,
            cols,
            cell,
            solver_backend: SolverBackend::default(),
            fastpaths: FastPathToggles::default(),
            instr: Instrumentation::off(),
            cache: AnalysisCache::new(),
            state: vec![p_lo; rows * cols],
        }
    }

    /// MNA problem size of this array's read-phase circuit (the
    /// representative workload: every write/read builds a circuit of the
    /// same node and branch structure).
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] on an empty array (cannot happen for arrays
    /// from [`FefetArray::new`]).
    pub fn mna_dims(&self) -> Result<MnaDims> {
        let c = self.read_circuit(0, 1e-9)?;
        let asm = Assembly::new(&c);
        Ok(MnaDims {
            n_nodes: asm.n_nodes - 1,
            n_unknowns: asm.n_unknowns(),
        })
    }

    /// Stored polarization of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn polarization(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "cell index out of range"
        );
        self.state[row * self.cols + col]
    }

    /// Logic value of cell `(row, col)` (nearest memory state).
    pub fn bit(&self, row: usize, col: usize) -> bool {
        let (p_lo, p_hi) = self.cell.memory_states();
        let p = self.polarization(row, col);
        (p - p_hi).abs() < (p - p_lo).abs()
    }

    /// Directly sets a stored polarization `p` (C/m²) — test fixture /
    /// initialization.
    pub fn set_polarization(&mut self, row: usize, col: usize, p: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "cell index out of range"
        );
        self.state[row * self.cols + col] = p;
    }

    fn build(
        &self,
        row_waves: &[(Waveform, Waveform)], // (read_select, write_select) per row
        col_waves: &[(Waveform, Waveform)], // (bit_line, sense_line) per column
    ) -> (Circuit, ArrayIndex) {
        let mut c = Circuit::new();
        let n_cells = self.rows * self.cols;
        let mut idx = ArrayIndex {
            g: Vec::with_capacity(n_cells),
            gi: Vec::with_capacity(n_cells),
            fe: Vec::with_capacity(n_cells),
            mfet: Vec::with_capacity(n_cells),
            rs: Vec::with_capacity(self.rows),
            sl: Vec::with_capacity(self.cols),
        };
        let mut ws_nodes = Vec::with_capacity(self.rows);
        let mut bl_nodes = Vec::with_capacity(self.cols);
        for (i, (w_rs, w_ws)) in row_waves.iter().enumerate() {
            let rs = c.node(&format!("rs{i}"));
            let ws = c.node(&format!("ws{i}"));
            let rsd = c.node(&format!("rs{i}_drv"));
            let wsd = c.node(&format!("ws{i}_drv"));
            c.vsource(&format!("Vrs{i}"), rsd, Circuit::GND, w_rs.clone());
            c.resistor(&format!("Rrs{i}"), rsd, rs, self.cell.r_driver);
            c.vsource(&format!("Vws{i}"), wsd, Circuit::GND, w_ws.clone());
            c.resistor(&format!("Rws{i}"), wsd, ws, self.cell.r_driver);
            c.capacitor(
                &format!("Crs{i}"),
                rs,
                Circuit::GND,
                self.cell.c_read_select,
            );
            c.capacitor(
                &format!("Cws{i}"),
                ws,
                Circuit::GND,
                self.cell.c_write_select,
            );
            idx.rs.push(rs);
            ws_nodes.push(ws);
        }
        for (j, (w_bl, w_sl)) in col_waves.iter().enumerate() {
            let bl = c.node(&format!("bl{j}"));
            let sl = c.node(&format!("sl{j}"));
            let bld = c.node(&format!("bl{j}_drv"));
            c.vsource(&format!("Vbl{j}"), bld, Circuit::GND, w_bl.clone());
            c.resistor(&format!("Rbl{j}"), bld, bl, self.cell.r_driver);
            // Sense lines are clamped at virtual ground directly.
            c.vsource(&format!("Vsl{j}"), sl, Circuit::GND, w_sl.clone());
            c.capacitor(&format!("Cbl{j}"), bl, Circuit::GND, self.cell.c_bit_line);
            c.capacitor(&format!("Csl{j}"), sl, Circuit::GND, self.cell.c_sense_line);
            bl_nodes.push(bl);
            idx.sl.push(sl);
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                let g = c.node(&format!("g{i}_{j}"));
                let gi = c.node(&format!("gi{i}_{j}"));
                let p0 = self.state[i * self.cols + j];
                c.mosfet(
                    &format!("Macc{i}_{j}"),
                    bl_nodes[j],
                    ws_nodes[i],
                    g,
                    self.cell.access,
                );
                idx.fe.push(c.elements().len());
                c.fecap(&format!("Ffe{i}_{j}"), g, gi, self.cell.fefet.fe, p0);
                idx.mfet.push(c.elements().len());
                c.mosfet(
                    &format!("Mfet{i}_{j}"),
                    idx.rs[i],
                    gi,
                    idx.sl[j],
                    self.cell.fefet.mos,
                );
                idx.g.push(g);
                idx.gi.push(gi);
            }
        }
        (c, idx)
    }

    /// Initial node voltages for an op: every cell's internal nodes at
    /// the static stack solution of its stored polarization.
    fn node_ics(&self, idx: &ArrayIndex) -> Vec<(Node, f64)> {
        let mut ics = Vec::with_capacity(2 * self.state.len());
        for (k, &p0) in self.state.iter().enumerate() {
            ics.push((idx.gi[k], self.cell.fefet.v_mos_of(p0)));
            ics.push((idx.g[k], self.cell.fefet.v_gate_static(p0)));
        }
        ics
    }

    /// The bordered-block-diagonal partition of an array circuit, for
    /// the engine's BBD backend: one block per column (bit/sense lines,
    /// their drivers, and every cell-internal node down the column — the
    /// cells only talk to each other through the row lines), one tiny
    /// block per row-line driver, and the shared `rs`/`ws` row lines
    /// left unassigned as the coupling border. `c` must be a circuit
    /// built by this array (e.g. [`FefetArray::read_circuit`]); every
    /// simulation this array runs uses this plan automatically — the
    /// public method exists so benches can drive the engine directly.
    ///
    /// # Errors
    ///
    /// [`CktError::UnknownSignal`] if `c` is not an array circuit of
    /// this shape.
    pub fn block_plan(&self, c: &Circuit) -> Result<BlockPlan> {
        let mut plan = BlockPlan::for_circuit(c);
        for j in 0..self.cols {
            plan.assign_node_name(c, &format!("bl{j}"), j)?;
            plan.assign_node_name(c, &format!("sl{j}"), j)?;
            plan.assign_node_name(c, &format!("bl{j}_drv"), j)?;
            plan.assign_element(c, &format!("Vbl{j}"), j)?;
            plan.assign_element(c, &format!("Vsl{j}"), j)?;
            for i in 0..self.rows {
                plan.assign_node_name(c, &format!("g{i}_{j}"), j)?;
                plan.assign_node_name(c, &format!("gi{i}_{j}"), j)?;
            }
        }
        for i in 0..self.rows {
            let b_rs = self.cols + 2 * i;
            let b_ws = b_rs + 1;
            plan.assign_node_name(c, &format!("rs{i}_drv"), b_rs)?;
            plan.assign_element(c, &format!("Vrs{i}"), b_rs)?;
            plan.assign_node_name(c, &format!("ws{i}_drv"), b_ws)?;
            plan.assign_element(c, &format!("Vws{i}"), b_ws)?;
        }
        Ok(plan)
    }

    /// Runs an op's transient on `c` (built with `idx`), recording only
    /// `probes`.
    fn run(
        &self,
        c: &Circuit,
        idx: &ArrayIndex,
        t_end: f64,
        probes: &Probes,
    ) -> Result<ProbeRecord> {
        let plan = self.block_plan(c)?;
        transient_probes(
            c,
            t_end,
            TransientOptions {
                dt: self.cell.dt,
                node_ics: self.node_ics(idx),
                predict: self.fastpaths.predict,
                solver: SolverOptions {
                    backend: self.solver_backend,
                    jacobian_reuse: self.fastpaths.jacobian_reuse,
                    bypass: self.fastpaths.bypass,
                    instr: self.instr.clone(),
                    block_plan: Some(Arc::new(plan)),
                    cache: Some(self.cache.clone()),
                    ..SolverOptions::default()
                },
                ..TransientOptions::default()
            },
            probes,
        )
    }

    /// Largest polarization drift of any cell outside `accessed_row`,
    /// given every cell's polarization after an op (row-major).
    fn max_disturb(&self, after: &[f64], accessed_row: Option<usize>) -> f64 {
        let mut max_disturb: f64 = 0.0;
        for (k, (before, after)) in self.state.iter().zip(after).enumerate() {
            if Some(k / self.cols) != accessed_row {
                max_disturb = max_disturb.max((after - before).abs());
            }
        }
        max_disturb
    }

    /// Writes `data` into `row` (Table 1 write biasing) with a pulse of
    /// width `t_pulse` (s), updating the stored state from the
    /// simulation.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `data.len() != cols`, or a simulator
    /// convergence failure.
    pub fn write_row(&mut self, row: usize, data: &[bool], t_pulse: f64) -> Result<ArrayOp> {
        let (op, polarizations) = self.write_row_trial(row, data, t_pulse)?;
        self.state = polarizations;
        Ok(op)
    }

    /// The simulation core of [`FefetArray::write_row`], without the
    /// state commit: runs the write transient against the stored state
    /// and reports the result with every cell's final polarization
    /// (row-major), leaving the array untouched. This is what lets
    /// [`FefetArray::write_disturb_map`] run per-row trials against one
    /// shared array instead of deep-cloning it per worker.
    fn write_row_trial(
        &self,
        row: usize,
        data: &[bool],
        t_pulse: f64,
    ) -> Result<(ArrayOp, Vec<f64>)> {
        let t0 = self.instr.profile_start();
        let (c, idx) = self.write_netlist(row, data, t_pulse)?;
        let t_end = T_START + t_pulse + T_RESTORE + 0.5e-9;
        let rec = self.run(
            &c,
            &idx,
            t_end,
            &Probes {
                polarizations: idx.fe.clone(),
                ..Probes::default()
            },
        )?;
        let max_disturb = self.max_disturb(&rec.polarizations, Some(row));
        if let Some(tel) = self.instr.get() {
            tel.array.row_writes.inc();
            tel.array.disturb_max.update_max(max_disturb);
        }
        self.instr
            .profile_end(t0, TraceEvent::ArrayWriteRow, row as u64);
        let op = ArrayOp {
            steps: rec.steps,
            energy: rec.energy,
            max_disturb,
        };
        Ok((op, rec.polarizations))
    }

    /// Builds the write-phase circuit for `row` without running it: the
    /// Table 1 write biasing of `data` with a pulse of width `t_pulse`
    /// (s), applied to this array's stored state.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `data.len() != cols` or `row` is out of
    /// range.
    pub fn write_circuit(&self, row: usize, data: &[bool], t_pulse: f64) -> Result<Circuit> {
        self.write_netlist(row, data, t_pulse).map(|(c, _)| c)
    }

    fn write_netlist(
        &self,
        row: usize,
        data: &[bool],
        t_pulse: f64,
    ) -> Result<(Circuit, ArrayIndex)> {
        if data.len() != self.cols {
            return Err(CktError::Netlist(format!(
                "write_row: got {} bits for {} columns",
                data.len(),
                self.cols
            )));
        }
        if row >= self.rows {
            return Err(CktError::Netlist(format!(
                "write_row: row {row} out of range"
            )));
        }
        let b = &self.cell.bias;
        let mut row_waves = Vec::new();
        for i in 0..self.rows {
            let accessed = i == row;
            let bias = b.row_bias(Operation::Write { data: true }, accessed);
            let w_ws = if accessed {
                Waveform::pulse(
                    0.0,
                    bias.write_select,
                    T_START,
                    T_EDGE,
                    T_EDGE,
                    t_pulse + T_RESTORE,
                )
            } else {
                // Negative select for the whole write window.
                Waveform::pulse(
                    0.0,
                    bias.write_select,
                    T_START - 0.1e-9,
                    T_EDGE,
                    T_EDGE,
                    t_pulse + T_RESTORE + 0.2e-9,
                )
            };
            row_waves.push((Waveform::dc(0.0), w_ws));
        }
        let mut col_waves = Vec::new();
        for &bit in data {
            let v_bl = if bit { b.v_write } else { -b.v_write };
            col_waves.push((
                Waveform::pulse(0.0, v_bl, T_START, T_EDGE, T_EDGE, t_pulse),
                Waveform::dc(0.0),
            ));
        }
        Ok(self.build(&row_waves, &col_waves))
    }

    /// Builds the read-phase circuit for `row` without running it: the
    /// Table 1 read biasing applied to this array's stored state over a
    /// window `t_read` (s). Used by the benches to exercise the Newton
    /// kernel at array size.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `row` is out of range.
    pub fn read_circuit(&self, row: usize, t_read: f64) -> Result<Circuit> {
        self.read_netlist(row, t_read).map(|(c, _)| c)
    }

    /// [`FefetArray::read_circuit`] for a read window `t_read` (s),
    /// together with the circuit's [`ArrayIndex`].
    pub(crate) fn read_netlist(&self, row: usize, t_read: f64) -> Result<(Circuit, ArrayIndex)> {
        if row >= self.rows {
            return Err(CktError::Netlist(format!(
                "read_row: row {row} out of range"
            )));
        }
        let b = &self.cell.bias;
        let mut row_waves = Vec::new();
        for i in 0..self.rows {
            let accessed = i == row;
            let bias = b.row_bias(Operation::Read, accessed);
            let w_rs = Waveform::pulse(0.0, bias.read_select, T_START, T_EDGE, T_EDGE, t_read);
            let w_ws = Waveform::pulse(0.0, bias.write_select, T_START, T_EDGE, T_EDGE, t_read);
            row_waves.push((w_rs, w_ws));
        }
        let col_waves = vec![(Waveform::dc(0.0), Waveform::dc(0.0)); self.cols];
        Ok(self.build(&row_waves, &col_waves))
    }

    /// Reads `row` (Table 1 read biasing) over a window `t_read` (s),
    /// reporting per-column cell currents and the sneak-current
    /// maximum.
    ///
    /// Reads are non-destructive (that is the paper's point), so this
    /// takes `&self` and never touches the stored state — which is what
    /// lets [`FefetArray::read_rows`] fan independent row reads out over
    /// threads.
    ///
    /// # Errors
    ///
    /// Row range or convergence errors, as for [`FefetArray::write_row`].
    pub fn read_row(&self, row: usize, t_read: f64) -> Result<ArrayRead> {
        let t0 = self.instr.profile_start();
        let (c, idx) = self.read_netlist(row, t_read)?;
        let t_end = T_START + t_read + 0.4e-9;
        let rec = self.run(
            &c,
            &idx,
            t_end,
            &Probes {
                currents: idx.mfet.clone(),
                t_sample: T_START + t_read - 2.0 * T_EDGE,
                polarizations: idx.fe.clone(),
                ..Probes::default()
            },
        )?;
        // Every cell's read-transistor current, row-major: the accessed
        // row is the sensed data, the rest are sneak paths.
        let currents = rec.currents[row * self.cols..(row + 1) * self.cols].to_vec();
        let mut max_sneak: f64 = 0.0;
        for (k, i_cell) in rec.currents.iter().enumerate() {
            if k / self.cols != row {
                max_sneak = max_sneak.max(i_cell.abs());
            }
        }
        let max_disturb = self.max_disturb(&rec.polarizations, None); // read must disturb nobody
        let bits: Vec<bool> = currents.iter().map(|i| *i > I_SENSE_THRESHOLD_A).collect();
        if let Some(tel) = self.instr.get() {
            tel.array.row_reads.inc();
            tel.array.sneak_current_max.update_max(max_sneak);
            tel.array.disturb_max.update_max(max_disturb);
            // Read margin: smallest ON-bit current over largest OFF-bit
            // current for this row; only meaningful when both states
            // appear, and the worst case across rows is kept.
            let mut i_on_min = f64::INFINITY;
            let mut i_off_max: f64 = 0.0;
            for (i, &bit) in currents.iter().zip(&bits) {
                if bit {
                    i_on_min = i_on_min.min(*i);
                } else {
                    i_off_max = i_off_max.max(i.abs());
                }
            }
            if i_on_min.is_finite() && i_off_max > 0.0 {
                tel.array.read_margin_worst.update_min(i_on_min / i_off_max);
            }
        }
        self.instr
            .profile_end(t0, TraceEvent::ArrayReadRow, row as u64);
        Ok(ArrayRead {
            op: ArrayOp {
                steps: rec.steps,
                energy: rec.energy,
                max_disturb,
            },
            currents,
            bits,
            max_sneak,
        })
    }

    /// Reads several rows, fanning the independent row transients out
    /// over the persistent worker pool ([`fefet_ckt::parallel::pool_map`];
    /// `threads = 0` means one per available hardware thread). Results
    /// are returned in the order of `rows` and are bit-identical to
    /// calling [`FefetArray::read_row`] serially — each read is a
    /// deterministic simulation of the same stored state, and the
    /// fan-out preserves ordering. The array's telemetry handle is
    /// shared into the pool workers, so one sink collects the whole
    /// sweep.
    ///
    /// # Errors
    ///
    /// The first row-range or convergence error, in `rows` order.
    /// `t_read` is the read window (s).
    pub fn read_rows(&self, rows: &[usize], t_read: f64, threads: usize) -> Result<Vec<ArrayRead>> {
        let this = std::sync::Arc::new(self.clone());
        fefet_ckt::parallel::pool_map(rows.to_vec(), threads, &self.instr, move |&row| {
            this.read_row(row, t_read)
        })
        .into_iter()
        .collect()
    }

    /// Reads every row of the array ([`FefetArray::read_rows`] over
    /// `0..rows`) with read window `t_read` (s).
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::read_rows`].
    pub fn read_all_rows(&self, t_read: f64, threads: usize) -> Result<Vec<ArrayRead>> {
        let rows: Vec<usize> = (0..self.rows).collect();
        self.read_rows(&rows, t_read, threads)
    }

    /// Write-disturb sweep: for each row in turn, runs the write
    /// transient against the stored state and records the worst
    /// unaccessed-cell polarization drift, without ever committing. The
    /// array itself is never modified, so the per-row trials are
    /// independent and run on the persistent worker pool (`threads = 0`
    /// = one per available hardware thread) against **one** shared
    /// array — no per-trial deep clone.
    ///
    /// Returns the per-row `max_disturb` values (C/m²), indexed by the
    /// accessed row.
    ///
    /// # Errors
    ///
    /// Dimension or convergence errors, as for [`FefetArray::write_row`].
    pub fn write_disturb_map(
        &self,
        data: &[bool],
        t_pulse: f64,
        threads: usize,
    ) -> Result<Vec<f64>> {
        if data.len() != self.cols {
            return Err(CktError::Netlist(format!(
                "write_disturb_map: got {} bits for {} columns",
                data.len(),
                self.cols
            )));
        }
        let rows: Vec<usize> = (0..self.rows).collect();
        let this = Arc::new(self.clone());
        let data = data.to_vec();
        fefet_ckt::parallel::pool_map(rows, threads, &self.instr, move |&row| {
            this.write_row_trial(row, &data, t_pulse)
                .map(|(op, _)| op.max_disturb)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_array() -> FefetArray {
        // The paper's Fig 7 demonstration array.
        FefetArray::new(2, 3, FefetCell::default())
    }

    #[test]
    fn fig7_write_and_read_back_a_row() {
        let mut a = small_array();
        let data = [true, false, true];
        let w = a.write_row(0, &data, 1.0e-9).unwrap();
        assert!(w.energy > 0.0);
        for (j, &bit) in data.iter().enumerate() {
            assert_eq!(a.bit(0, j), bit, "column {j}");
        }
        let r = a.read_row(0, 3e-9).unwrap();
        assert_eq!(r.bits, vec![true, false, true]);
        // Distinguishability at the array level.
        let i_on = r.currents[0];
        let i_off = r.currents[1].max(1e-30);
        assert!(i_on / i_off > 1e4, "array ratio {:.2e}", i_on / i_off);
    }

    #[test]
    fn unaccessed_rows_undisturbed_by_write() {
        let mut a = small_array();
        // Park row 1 in a known pattern first.
        a.write_row(1, &[true, true, false], 1.0e-9).unwrap();
        let before: Vec<f64> = (0..3).map(|j| a.polarization(1, j)).collect();
        // Hammer row 0 with both polarities.
        let w1 = a.write_row(0, &[true, true, true], 1.0e-9).unwrap();
        let w0 = a.write_row(0, &[false, false, false], 1.0e-9).unwrap();
        assert!(
            w1.max_disturb < 0.01 && w0.max_disturb < 0.01,
            "unaccessed rows disturbed: {} / {}",
            w1.max_disturb,
            w0.max_disturb
        );
        for (j, b) in before.iter().enumerate() {
            assert!((a.polarization(1, j) - b).abs() < 0.02);
        }
    }

    #[test]
    fn read_disturbs_nothing_and_no_sneak_paths() {
        let mut a = small_array();
        a.write_row(0, &[true, false, true], 1.0e-9).unwrap();
        a.write_row(1, &[false, true, false], 1.0e-9).unwrap();
        let r = a.read_row(0, 3e-9).unwrap();
        assert!(
            r.op.max_disturb < 0.02,
            "read disturbed cells by {}",
            r.op.max_disturb
        );
        // §4.2: virtual-ground sense lines avert reverse currents in the
        // unaccessed cells.
        assert!(
            r.max_sneak < 1e-8,
            "sneak current {:.3e} A in unaccessed cells",
            r.max_sneak
        );
    }

    #[test]
    fn both_rows_retain_independent_data() {
        let mut a = small_array();
        a.write_row(0, &[true, true, false], 1.0e-9).unwrap();
        a.write_row(1, &[false, true, true], 1.0e-9).unwrap();
        let r0 = a.read_row(0, 3e-9).unwrap();
        let r1 = a.read_row(1, 3e-9).unwrap();
        assert_eq!(r0.bits, vec![true, true, false]);
        assert_eq!(r1.bits, vec![false, true, true]);
    }

    #[test]
    fn write_row_validates_inputs() {
        let mut a = small_array();
        assert!(a.write_row(0, &[true], 1e-9).is_err());
        assert!(a.write_row(9, &[true, true, true], 1e-9).is_err());
        assert!(a.read_row(9, 1e-9).is_err());
    }

    #[test]
    fn line_capacitance_scales_with_array_size() {
        let small = FefetArray::new(2, 2, FefetCell::default());
        let big = FefetArray::new(8, 2, FefetCell::default());
        assert!(big.cell.c_bit_line > 3.0 * small.cell.c_bit_line);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn polarization_out_of_range_panics() {
        let a = small_array();
        a.polarization(5, 0);
    }

    #[test]
    fn mna_dims_grow_with_the_array() {
        let small = small_array().mna_dims().unwrap();
        assert!(small.n_nodes > 0 && small.n_unknowns > small.n_nodes);
        let big = FefetArray::new(4, 4, FefetCell::default())
            .mna_dims()
            .unwrap();
        assert!(big.n_unknowns > small.n_unknowns);
    }

    /// One enabled handle must collect a whole write + parallel read
    /// sweep: op counters, Newton/step statistics from the engine, and
    /// the read margin. Counters-only handles time nothing; a profiled
    /// handle records one latency sample and one trace event per op.
    #[test]
    fn instrumented_sweep_aggregates_into_one_sink() {
        let sweep = |instr: Instrumentation| {
            let mut a = small_array();
            a.instr = instr;
            a.write_row(0, &[true, false, true], 1.0e-9).unwrap();
            let reads = a.read_all_rows(3e-9, 2).unwrap();
            assert_eq!(reads.len(), 2);
            a.instr
        };
        let counted = sweep(Instrumentation::enabled());
        let tel = counted.get().unwrap();
        assert_eq!(tel.array.row_writes.get(), 1);
        assert_eq!(tel.array.row_reads.get(), 2);
        assert!(tel.solver.solves.get() > 0);
        assert!(tel.solver.newton_iterations.count() > 0);
        assert!(tel.steps.accepted.get() > 0);
        assert!(tel.steps.dt_seconds.count() > 0);
        let margin = tel.array.read_margin_worst.get();
        assert!(margin.is_finite() && margin > 1.0, "margin {margin}");
        assert_eq!(tel.latency.read_row_ns.count(), 0);
        assert_eq!(tel.latency.write_row_ns.count(), 0);
        assert_eq!(tel.latency.transient_ns.count(), 0);

        let profiled = Instrumentation::enabled();
        let tr = profiled.get().unwrap().attach_trace(1 << 16);
        let profiled = sweep(profiled);
        let tel = profiled.get().unwrap();
        assert_eq!(tel.latency.write_row_ns.count(), 1);
        assert_eq!(tel.latency.read_row_ns.count(), 2);
        assert_eq!(tel.latency.transient_ns.count(), 3);
        assert_eq!(tr.dropped(), 0);
        let j = tr.to_chrome_json();
        for (name, n) in [
            ("array.write_row", 1),
            ("array.read_row", 2),
            ("ckt.transient", 3),
        ] {
            let events = j.matches(&format!("\"name\":\"{name}\"")).count();
            assert_eq!(events, n, "{name} events");
        }
    }

    /// The array-supplied column/driver/border partition must be a valid
    /// BBD structure for the real array circuit (no direct coupling
    /// between two blocks), and the BBD backend must agree with the
    /// sparse one on the physics.
    #[test]
    fn bbd_backend_agrees_with_sparse_on_a_read() {
        let mut a = small_array();
        a.write_row(0, &[true, false, true], 1.0e-9).unwrap();
        let mut sparse = a.clone();
        sparse.solver_backend = SolverBackend::Sparse;
        let mut bbd = a;
        bbd.solver_backend = SolverBackend::Bbd;
        bbd.instr = Instrumentation::enabled();
        let rs = sparse.read_row(0, 3e-9).unwrap();
        let rb = bbd.read_row(0, 3e-9).unwrap();
        assert_eq!(rs.bits, rb.bits);
        assert_eq!(
            rs.op.steps, rb.op.steps,
            "backends accepted different step sequences"
        );
        for (s, b) in rs.currents.iter().zip(&rb.currents) {
            let scale = s.abs().max(b.abs()).max(1e-30);
            assert!(
                (s - b).abs() / scale < 1e-6,
                "currents diverge: sparse {s:e} vs bbd {b:e}"
            );
        }
        let tel = bbd.instr.get().unwrap();
        assert!(tel.solver.bbd_refactors.get() > 0, "BBD path not engaged");
        // 2x3 array: one block per column + two driver blocks per row,
        // border = the rs/ws row lines.
        assert_eq!(tel.solver.bbd_blocks.get(), (3 + 2 * 2) as u64);
        assert_eq!(tel.solver.bbd_border_len.get(), (2 * 2) as u64);
    }

    /// Pooled sweep workers share the array's analysis cache: the number
    /// of symbolic analyses is set by the number of distinct matrix
    /// patterns, not by the worker or row count.
    #[test]
    fn pooled_sweep_shares_one_symbolic_analysis_per_pattern() {
        let mut a = small_array();
        a.solver_backend = SolverBackend::Sparse;
        a.instr = Instrumentation::enabled();
        // Warm the cache with one serial read: every pattern analyzed.
        a.read_row(0, 3e-9).unwrap();
        let tel = a.instr.get().unwrap();
        let analyses_one_op = tel.solver.sparse_symbolic_analyses.get();
        assert!(analyses_one_op >= 1);
        // A parallel sweep must add zero analyses — only cache hits.
        a.read_all_rows(3e-9, 2).unwrap();
        assert_eq!(
            tel.solver.sparse_symbolic_analyses.get(),
            analyses_one_op,
            "pooled workers re-analyzed a cached pattern"
        );
        assert!(tel.solver.analysis_cache_hits.get() >= 2);
        // Same story for the no-commit write-disturb trials.
        a.write_disturb_map(&[true, false, true], 1.0e-9, 2)
            .unwrap();
        assert_eq!(tel.solver.sparse_symbolic_analyses.get(), analyses_one_op);
    }
}
