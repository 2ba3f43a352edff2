//! Transient analysis: backward-Euler time stepping at a fixed nominal
//! step with per-step Newton, waveform breakpoint alignment, automatic
//! step halving on convergence failure, and per-source energy metering.
//! One stepping loop feeds one of two recorders: the full-waveform
//! [`Trace`] ([`transient`]) or a probe list ([`transient_probes`]).

use crate::circuit::Circuit;
use crate::elements::{ElemState, Element, EvalCtx, Node};
use crate::engine::{Assembly, NewtonWorkspace, SolverOptions};
use crate::trace::Trace;
use crate::{CktError, Result};
use fefet_numerics::quad::RunningIntegral;
use fefet_telemetry::TraceEvent;

/// The last (up to) two accepted points for step prediction: times and
/// node-voltage parts, held in fixed buffers so that accepting a step
/// never allocates.
#[derive(Debug)]
struct NodeHistory {
    times: [f64; 2],
    bufs: [Vec<f64>; 2],
    len: usize,
}

impl NodeHistory {
    // fefet-lint: allow-item(hot-alloc) -- history buffers are allocated once per run, then rotated in place
    fn new(nv: usize) -> Self {
        NodeHistory {
            times: [0.0; 2],
            bufs: [vec![0.0; nv], vec![0.0; nv]],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Records an accepted point, dropping the oldest once full. Only
    /// the node-voltage prefix of `x` is kept — all the predictor uses.
    fn push(&mut self, t: f64, x: &[f64]) {
        let nv = self.bufs[0].len();
        if self.len == self.bufs.len() {
            self.times.rotate_left(1);
            self.bufs.rotate_left(1);
            self.len -= 1;
        }
        self.times[self.len] = t;
        self.bufs[self.len].copy_from_slice(&x[..nv]);
        self.len += 1;
    }

    /// The last two accepted points, oldest first, or `None` with fewer
    /// than two in history.
    #[allow(clippy::type_complexity)]
    fn last_two(&self) -> Option<((f64, &[f64]), (f64, &[f64]))> {
        if self.len < 2 {
            return None;
        }
        Some((
            (self.times[0], self.bufs[0].as_slice()),
            (self.times[1], self.bufs[1].as_slice()),
        ))
    }
}

/// Options for [`transient`] and [`transient_probes`].
///
/// Every step is backward Euler at the nominal `dt`, shortened only to
/// land on a waveform corner or halved (down to `dt_min`) when Newton
/// fails. The run starts from the node initial conditions (SPICE `UIC`):
/// unlisted nodes at 0 V, capacitors at their node-IC voltage, FE
/// polarizations at their `p0`. Memory simulations start from a
/// quiescent, grounded array; for a settled start, solve
/// [`crate::dc::dc_operating_point`] and pass its node voltages here.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Nominal time step (s); `0.0` selects `t_end / 2000`.
    pub dt: f64,
    /// Smallest step (s) before giving up; `0.0` selects `dt / 1e7`.
    pub dt_min: f64,
    /// Newton solver settings.
    pub solver: SolverOptions,
    /// Initial node voltages; unlisted nodes start at 0 V.
    pub node_ics: Vec<(Node, f64)>,
    /// Step prediction: start each Newton solve from a linear
    /// extrapolation of the last two accepted node vectors instead of
    /// the previous solution. Cuts Newton iterations on smooth segments
    /// and pairs with modified Newton (a better initial guess keeps the
    /// residual contracting under stale factors). Off across waveform
    /// corners, where the derivative is discontinuous. Default on.
    pub predict: bool,
}

impl Default for TransientOptions {
    // fefet-lint: allow-item(hot-alloc) -- options construction happens once per run, before stepping
    fn default() -> Self {
        TransientOptions {
            dt: 0.0,
            dt_min: 0.0,
            solver: SolverOptions::default(),
            node_ics: Vec::new(),
            predict: true,
        }
    }
}

/// Runs a transient analysis of `ckt` from 0 to `t_end` (s), recording
/// the full waveform set: every node voltage (`v(<node>)`), every
/// element current (`i(<element>)`) and every ferroelectric
/// polarization (`p(<element>)`) at every accepted point, plus
/// delivered energy per independent source.
///
/// That record costs O(steps × signals) memory and an evaluation of
/// every element current per step. Callers that read a handful of
/// values back — the array row ops — use [`transient_probes`], which
/// runs the same stepping loop and records only what it is asked for.
///
/// # Errors
///
/// [`CktError::Netlist`] for a non-positive `t_end`;
/// [`CktError::Convergence`] if Newton fails even at the minimum step.
pub fn transient(ckt: &Circuit, t_end: f64, opts: TransientOptions) -> Result<Trace> {
    profiled(&opts, t_end, || {
        run(ckt, t_end, &opts, TraceRecorder::new(ckt))
    })
}

/// What [`transient_probes`] records: element currents at one time,
/// the running maximum of some node voltages over a window, and final
/// ferroelectric polarizations. Elements are named by their position in
/// [`Circuit::elements`] (see [`Circuit::element_position`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probes {
    /// Elements whose currents are sampled at `t_sample`.
    pub currents: Vec<usize>,
    /// Time the currents are sampled at (s). They are evaluated only at
    /// the two accepted points that bracket it and interpolated with
    /// [`Trace::value_at`]'s arithmetic, clamped to the run's ends.
    pub t_sample: f64,
    /// Nodes whose largest voltage over `window` is kept.
    pub window_nodes: Vec<Node>,
    /// Window `(t0, t1)` (s) for `window_nodes`: accepted points with
    /// `t0 <= t <= t1` count, as in [`Trace::window_max`].
    pub window: (f64, f64),
    /// FE capacitors whose final polarization is reported.
    pub polarizations: Vec<usize>,
}

/// The result of [`transient_probes`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    /// Currents of [`Probes::currents`] at [`Probes::t_sample`] (A).
    pub currents: Vec<f64>,
    /// Largest voltage of each of [`Probes::window_nodes`] over the
    /// window (V).
    pub window_max: Vec<f64>,
    /// Final polarization of each of [`Probes::polarizations`] (C/m²).
    pub polarizations: Vec<f64>,
    /// Energy delivered by all independent sources over the run (J).
    pub energy: f64,
    /// Accepted time steps (the `t = 0` point is not a step).
    pub steps: usize,
}

/// Runs the same transient analysis as [`transient`], from 0 to `t_end`
/// (s), and records only `probes`. The values equal, bit for bit, what
/// the full trace would give through [`Trace::value_at`],
/// [`Trace::window_max`], [`Trace::last`] and
/// [`Trace::total_source_energy`]. Memory is O(probes), independent of
/// the step count.
///
/// # Errors
///
/// As for [`transient`]; [`CktError::Netlist`] for a probe naming a
/// missing element or node, a current probe without a finite sample
/// time, or a polarization probe that is not an FE capacitor;
/// [`CktError::Measurement`] when window nodes are probed and no
/// accepted point falls inside the window.
pub fn transient_probes(
    ckt: &Circuit,
    t_end: f64,
    opts: TransientOptions,
    probes: &Probes,
) -> Result<ProbeRecord> {
    profiled(&opts, t_end, || {
        ProbeRecorder::new(ckt, probes).and_then(|rec| run(ckt, t_end, &opts, rec))
    })
}

/// Runs `body` as one profiled operation, failed runs included.
fn profiled<T>(opts: &TransientOptions, t_end: f64, body: impl FnOnce() -> Result<T>) -> Result<T> {
    let t0 = opts.solver.instr.profile_start();
    let out = body();
    opts.solver
        .instr
        .profile_end(t0, TraceEvent::Transient, (t_end * 1e15) as u64);
    out
}

/// One accepted point of a run.
#[derive(Clone, Copy)]
struct Point<'a> {
    t: f64,
    x: &'a [f64],
    states: &'a [ElemState],
}

impl<'a> Point<'a> {
    fn new(t: f64, x: &'a [f64], states: &'a [ElemState]) -> Self {
        Point { t, x, states }
    }
}

/// Element-current evaluation shared by the recorders: every current is
/// evaluated with the nominal step, so both record the same value for
/// the same point.
struct Sampler<'a> {
    ckt: &'a Circuit,
    asm: &'a Assembly,
    h: f64,
}

impl Sampler<'_> {
    fn current(&self, elem: usize, p: Point<'_>) -> f64 {
        let ctx = EvalCtx {
            t: p.t,
            h: self.h,
            dc: false,
            x: p.x,
            state: p.states[elem],
        };
        self.ckt.elements()[elem]
            .1
            .current(self.asm.branch0[elem], &ctx, self.ckt.n_nodes())
            .unwrap_or(0.0)
    }

    /// Currents of `elems` at `p`, into `out`.
    fn currents(&self, elems: &[usize], p: Point<'_>, out: &mut [f64]) {
        for (slot, &i) in out.iter_mut().zip(elems) {
            *slot = self.current(i, p);
        }
    }
}

/// Per-source energy meters: element position and running integral of
/// delivered power.
type Meters = Vec<(usize, RunningIntegral)>;

/// Consumer of the stepping loop's accepted points.
trait Recorder {
    type Output;

    /// Called at `t = 0` and after every accepted step, with the step's
    /// element states already advanced.
    fn accepted(&mut self, s: &Sampler<'_>, p: Point<'_>);

    /// Called once a step to `t_new` is accepted, before element states
    /// advance: `p` is still the previous accepted point.
    fn stepping(&mut self, _s: &Sampler<'_>, _p: Point<'_>, _t_new: f64) {}

    /// Builds the output from the last accepted point, the source
    /// meters and the accepted step count.
    fn finish(
        self,
        s: &Sampler<'_>,
        last: Point<'_>,
        meters: &Meters,
        steps: usize,
    ) -> Result<Self::Output>;
}

/// The full-waveform recorder behind [`transient`].
struct TraceRecorder {
    trace: Trace,
    sample: Vec<f64>,
}

impl TraceRecorder {
    // fefet-lint: allow-item(hot-alloc) -- signal names and the sample buffer are built once per run
    fn new(ckt: &Circuit) -> Self {
        // Signal layout: node voltages, element currents, FE polarizations.
        let mut names: Vec<String> = Vec::new();
        for n in 1..ckt.n_nodes() {
            names.push(format!("v({})", ckt.node_name(Node(n))));
        }
        for (name, _) in ckt.elements() {
            names.push(format!("i({name})"));
        }
        for (name, e) in ckt.elements() {
            if matches!(e, Element::FeCap { .. }) {
                names.push(format!("p({name})"));
            }
        }
        let sample = vec![0.0; names.len()];
        TraceRecorder {
            trace: Trace::new(names),
            sample,
        }
    }
}

impl Recorder for TraceRecorder {
    type Output = Trace;

    fn accepted(&mut self, s: &Sampler<'_>, p: Point<'_>) {
        let nv = s.ckt.n_nodes() - 1;
        self.sample[..nv].copy_from_slice(&p.x[..nv]);
        let mut k = nv;
        for i in 0..s.ckt.elements().len() {
            self.sample[k] = s.current(i, p);
            k += 1;
        }
        for (i, (_, e)) in s.ckt.elements().iter().enumerate() {
            if matches!(e, Element::FeCap { .. }) {
                self.sample[k] = fe_polarization(p.states[i]);
                k += 1;
            }
        }
        self.trace.push_sample(p.t, &self.sample);
    }

    // fefet-lint: allow-item(hot-alloc) -- once per run: names the per-source energies
    fn finish(
        mut self,
        s: &Sampler<'_>,
        _last: Point<'_>,
        meters: &Meters,
        _steps: usize,
    ) -> Result<Trace> {
        self.trace.set_energies(
            meters
                .iter()
                .map(|(idx, acc)| (s.ckt.elements()[*idx].0.clone(), acc.total()))
                .collect(),
        );
        Ok(self.trace)
    }
}

/// Polarization of an FE capacitor state (0 for any other state).
fn fe_polarization(state: ElemState) -> f64 {
    match state {
        ElemState::Fe { p, .. } => p,
        _ => 0.0,
    }
}

/// The probe recorder behind [`transient_probes`].
struct ProbeRecorder<'p> {
    probes: &'p Probes,
    /// Currents at the last accepted point before `t_sample` and its
    /// time, filled only by the step that crosses `t_sample`.
    left: Vec<f64>,
    left_t: Option<f64>,
    currents: Vec<f64>,
    sampled: bool,
    window_max: Vec<f64>,
    window_hits: usize,
}

impl<'p> ProbeRecorder<'p> {
    // fefet-lint: allow-item(hot-alloc) -- probe validation and O(probes) buffers, once per run
    fn new(ckt: &Circuit, probes: &'p Probes) -> Result<Self> {
        let n_elem = ckt.elements().len();
        if let Some(i) = probes.currents.iter().find(|&&i| i >= n_elem) {
            return Err(CktError::Netlist(format!(
                "probes: current probe names element {i} of {n_elem}"
            )));
        }
        if !probes.currents.is_empty() && !probes.t_sample.is_finite() {
            return Err(CktError::Netlist(format!(
                "probes: sample time {:?} is not finite",
                probes.t_sample
            )));
        }
        if let Some(n) = probes
            .window_nodes
            .iter()
            .find(|n| n.index() == 0 || n.index() >= ckt.n_nodes())
        {
            return Err(CktError::Netlist(format!(
                "probes: window node {} is ground or not in the circuit",
                n.index()
            )));
        }
        for &i in &probes.polarizations {
            if !matches!(ckt.elements().get(i), Some((_, Element::FeCap { .. }))) {
                return Err(CktError::Netlist(format!(
                    "probes: polarization probe names element {i}, not an FE capacitor"
                )));
            }
        }
        let n_i = probes.currents.len();
        Ok(ProbeRecorder {
            probes,
            left: vec![0.0; n_i],
            left_t: None,
            currents: vec![0.0; n_i],
            sampled: false,
            window_max: vec![f64::NEG_INFINITY; probes.window_nodes.len()],
            window_hits: 0,
        })
    }
}

impl Recorder for ProbeRecorder<'_> {
    type Output = ProbeRecord;

    fn accepted(&mut self, s: &Sampler<'_>, p: Point<'_>) {
        let (w0, w1) = self.probes.window;
        if p.t >= w0 && p.t <= w1 {
            for (m, node) in self.window_max.iter_mut().zip(&self.probes.window_nodes) {
                *m = f64::max(*m, p.x[node.index() - 1]);
            }
            self.window_hits += 1;
        }
        let t_s = self.probes.t_sample;
        if self.sampled || p.t < t_s {
            return;
        }
        // First accepted point at or after t_sample. `stepping` stored
        // the previous point's currents only when t_sample lies strictly
        // between the two; otherwise (t_sample on this point, or at or
        // before t = 0) this point's value is the answer, as in
        // `Trace::value_at`.
        s.currents(&self.probes.currents, p, &mut self.currents);
        if let Some(t0) = self.left_t {
            let t1 = p.t;
            let frac = if t1 > t0 { (t_s - t0) / (t1 - t0) } else { 0.0 };
            for (y1, y0) in self.currents.iter_mut().zip(&self.left) {
                *y1 = y0 + frac * (*y1 - y0);
            }
        }
        self.sampled = true;
    }

    fn stepping(&mut self, s: &Sampler<'_>, p: Point<'_>, t_new: f64) {
        let t_s = self.probes.t_sample;
        if !self.sampled && p.t < t_s && t_s < t_new {
            s.currents(&self.probes.currents, p, &mut self.left);
            self.left_t = Some(p.t);
        }
    }

    // fefet-lint: allow-item(hot-alloc) -- once per run: gathers the final polarizations
    fn finish(
        mut self,
        s: &Sampler<'_>,
        last: Point<'_>,
        meters: &Meters,
        steps: usize,
    ) -> Result<ProbeRecord> {
        if !self.sampled {
            // t_sample lies past the last point: clamp to it.
            s.currents(&self.probes.currents, last, &mut self.currents);
        }
        if self.window_hits == 0 {
            if let Some(n) = self.probes.window_nodes.first() {
                let (w0, w1) = self.probes.window;
                return Err(CktError::Measurement {
                    signal: format!("v({})", s.ckt.node_name(*n)),
                    reason: format!("no accepted point inside the window [{w0:e}, {w1:e}]"),
                });
            }
        }
        Ok(ProbeRecord {
            currents: self.currents,
            window_max: self.window_max,
            polarizations: self
                .probes
                .polarizations
                .iter()
                .map(|&i| fe_polarization(last.states[i]))
                .collect(),
            energy: meters.iter().map(|(_, acc)| acc.total()).sum(),
            steps,
        })
    }
}

/// The stepping loop shared by [`transient`] and [`transient_probes`]:
/// it feeds every accepted point to `rec`.
// fefet-lint: allow-item(hot-alloc) -- run driver: allocates per-run state up front and on cold error/accept paths; the per-step warm path is solve_point_with, pinned zero-alloc by the alloctrack gate
#[allow(clippy::needless_range_loop)]
fn run<R: Recorder>(
    ckt: &Circuit,
    t_end: f64,
    opts: &TransientOptions,
    mut rec: R,
) -> Result<R::Output> {
    if !(t_end > 0.0) {
        return Err(CktError::Netlist(
            "transient: t_end must be positive".into(),
        ));
    }
    let dt_nom = if opts.dt > 0.0 {
        opts.dt
    } else {
        t_end / 2000.0
    };
    let dt_min = if opts.dt_min > 0.0 {
        opts.dt_min
    } else {
        dt_nom / 1e7
    };
    let asm = Assembly::new(ckt);
    // Corner-snapping tolerance, relative to the nominal step so that it
    // works unchanged on nanosecond-scale write pulses and second-scale
    // retention sweeps alike (an absolute 1e-18 s would be smaller than
    // one ULP of a second-scale time axis and never match).
    let snap_eps = 1e-9 * dt_nom;

    // Breakpoints from source waveforms.
    let mut bps: Vec<f64> = Vec::new();
    for (_, e) in ckt.elements() {
        e.breakpoints(t_end, &mut bps);
    }
    bps.retain(|t| *t > 0.0 && *t < t_end);
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() < snap_eps);

    // Initial solution vector, plus the per-step Newton scratch buffers
    // reused for the whole run.
    let mut ws = NewtonWorkspace::new(asm.n_unknowns());
    let mut x = vec![0.0; asm.n_unknowns()];
    for (node, v) in &opts.node_ics {
        if node.index() > 0 {
            x[node.index() - 1] = *v;
        }
    }

    // Element states at t = 0.
    let mut states: Vec<ElemState> = ckt
        .elements()
        .iter()
        .map(|(_, e)| e.initial_state(&x))
        .collect();

    // Energy meters per independent source.
    let mut meters: Meters = ckt
        .elements()
        .iter()
        .enumerate()
        .filter(|(_, (_, e))| matches!(e, Element::VSource { .. } | Element::ISource { .. }))
        .map(|(i, _)| (i, RunningIntegral::new()))
        .collect();

    let meter_push = |t: f64, x: &[f64], meters: &mut Meters| -> Result<()> {
        for (idx, acc) in meters.iter_mut() {
            let p_del = match &ckt.elements()[*idx].1 {
                Element::VSource { a, b, .. } => {
                    let i_br = x[asm.n_nodes - 1 + asm.branch0[*idx]];
                    let va = if a.index() == 0 {
                        0.0
                    } else {
                        x[a.index() - 1]
                    };
                    let vb = if b.index() == 0 {
                        0.0
                    } else {
                        x[b.index() - 1]
                    };
                    -(va - vb) * i_br
                }
                Element::ISource { a, b, wave } => {
                    let va = if a.index() == 0 {
                        0.0
                    } else {
                        x[a.index() - 1]
                    };
                    let vb = if b.index() == 0 {
                        0.0
                    } else {
                        x[b.index() - 1]
                    };
                    -(va - vb) * wave.eval(t)
                }
                _ => 0.0,
            };
            acc.push(t, p_del).map_err(CktError::from)?;
        }
        Ok(())
    };

    let sampler = Sampler {
        ckt,
        asm: &asm,
        h: dt_nom,
    };
    rec.accepted(&sampler, Point::new(0.0, &x, &states));
    meter_push(0.0, &x, &mut meters)?;
    let mut steps = 0usize;

    let mut t = 0.0;
    let mut bp_cursor = 0usize;
    // True at t = 0 and on a waveform corner, where the derivative is
    // discontinuous and the step is not predicted.
    let mut at_corner = true;
    // Predictor history: the two previous accepted points (time and
    // voltages).
    let nv = ckt.n_nodes() - 1;
    let mut hist = NodeHistory::new(nv);
    hist.push(0.0, &x);
    // Attempt buffer: each trial step solves into `x_new` so a rejected
    // step leaves `x` untouched; on acceptance the two swap pointers.
    let mut x_new = vec![0.0; asm.n_unknowns()];
    while t < t_end * (1.0 - 1e-15) {
        // Profiling: the step timer spans every attempt (rejections
        // included) so the latency distribution reflects what a step
        // actually cost, not just its final successful solve.
        let step_t0 = opts.solver.instr.profile_start();
        while bp_cursor < bps.len() && bps[bp_cursor] <= t * (1.0 + 1e-15) {
            bp_cursor += 1;
        }
        let t_ceiling = if bp_cursor < bps.len() {
            bps[bp_cursor].min(t_end)
        } else {
            t_end
        };
        let mut dt_try = dt_nom.min(t_ceiling - t);
        // Halving from dt_nom to dt_min covers ~23 attempts at the
        // default ratio; the cap turns a pathological reject cycle into
        // a typed error instead of an unbounded retry loop.
        const MAX_STEP_ATTEMPTS: usize = 256;
        let mut accepted: Option<f64> = None;
        for _attempt in 0..MAX_STEP_ATTEMPTS {
            let t_attempt = if (t + dt_try - t_ceiling).abs() < snap_eps {
                t_ceiling
            } else {
                t + dt_try
            };
            x_new.copy_from_slice(&x);
            // Transient prediction: linear extrapolation of the node
            // voltages through the last two accepted points as the
            // Newton initial guess. Branch currents keep their previous
            // values — they are linear consequences of the voltages and
            // converge in the same iteration either way. Skipped on the
            // step after a corner (history was cleared there anyway) and
            // clamped to the damping bound so a wild extrapolation can
            // never fling the iterate further than Newton itself may.
            if let (true, true, Some(((t0, x0), (t1, x1)))) =
                (opts.predict, !at_corner, hist.last_two())
            {
                let h0 = t1 - t0;
                if h0 > 0.0 {
                    let w = (t_attempt - t1) / h0;
                    let bound = opts.solver.max_v_step;
                    for i in 0..nv {
                        x_new[i] = x1[i] + (w * (x1[i] - x0[i])).clamp(-bound, bound);
                    }
                    if let Some(tel) = opts.solver.instr.get() {
                        tel.steps.predicted.inc();
                    }
                }
            }
            let solved = asm.solve_point_with(
                ckt,
                t_attempt,
                t_attempt - t,
                false,
                &opts.solver,
                &mut x_new,
                &states,
                &mut ws,
            );
            match solved {
                Ok(_) => {
                    accepted = Some(t_attempt);
                    break;
                }
                // A non-finite iterate comes from NaN/Inf in the stimulus
                // or model, not from the step size; retrying smaller
                // steps cannot converge it.
                Err(e @ CktError::NonFinite { .. }) => return Err(e),
                Err(e) => {
                    if let Some(tel) = opts.solver.instr.get() {
                        tel.steps.rejected_newton.inc();
                    }
                    dt_try *= 0.5;
                    if dt_try < dt_min {
                        return Err(CktError::Convergence {
                            time: t,
                            detail: format!("step rejected below dt_min={dt_min:.3e}: {e}"),
                        });
                    }
                }
            }
        }
        let t_new = accepted.ok_or_else(|| CktError::Convergence {
            time: t,
            detail: format!("no accepted step within {MAX_STEP_ATTEMPTS} attempts"),
        })?;
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(CktError::NonFinite {
                context: "transient accepted step",
                step: t_new,
            });
        }
        rec.stepping(&sampler, Point::new(t, &x, &states), t_new);
        let h = t_new - t;
        // Advance element states.
        for (i, (_, e)) in ckt.elements().iter().enumerate() {
            let ctx = EvalCtx {
                t: t_new,
                h,
                dc: false,
                x: &x_new,
                state: states[i],
            };
            states[i] = match e.next_state(asm.branch0[i], ckt.n_nodes(), &ctx) {
                ElemState::None => states[i],
                s => s,
            };
        }
        std::mem::swap(&mut x, &mut x_new);
        at_corner = bps.iter().any(|b| (b - t_new).abs() < snap_eps);
        if let Some(tel) = opts.solver.instr.get() {
            tel.steps.accepted.inc();
            tel.steps.dt_seconds.record(h);
            if at_corner {
                tel.steps.corner_snaps.inc();
            }
        }
        // arg: accepted step size in femtoseconds (integral, so it
        // survives the u64 payload; ps would alias sub-ps steps).
        opts.solver
            .instr
            .profile_end(step_t0, TraceEvent::TransientStep, (h * 1e15) as u64);
        if at_corner {
            // No prediction across a stimulus corner.
            hist.clear();
        }
        t = t_new;
        hist.push(t, &x);
        steps += 1;
        rec.accepted(&sampler, Point::new(t, &x, &states));
        meter_push(t, &x, &mut meters)?;
    }
    rec.finish(&sampler, Point::new(t, &x, &states), &meters, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{FeCapParams, MosParams};
    use crate::trace::Edge;
    use crate::waveform::Waveform;

    #[test]
    fn nan_stimulus_is_a_typed_nonfinite_error() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(f64::NAN));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let res = transient(&c, 1e-6, TransientOptions::default());
        assert!(
            matches!(res, Err(CktError::NonFinite { .. })),
            "expected NonFinite, got {res:?}"
        );
    }

    #[test]
    fn rc_step_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let tau = 1e-6;
        let tr = transient(
            &c,
            5.0 * tau,
            TransientOptions {
                dt: tau / 400.0,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // Compare against 1 - e^{-t/tau} at several times.
        for frac in [0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let v = tr.value_at("v(out)", t).unwrap();
            let exact = 1.0 - (-frac).exp();
            assert!(
                (v - exact).abs() < 2e-3,
                "RC mismatch at {frac} tau: {v} vs {exact}"
            );
        }
    }

    #[test]
    fn rc_energy_balance() {
        // Energy delivered by the source into an RC charge = C V² (half in
        // the cap, half dissipated).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let tr = transient(
            &c,
            20e-6, // 20 tau: fully settled
            TransientOptions {
                dt: 10e-9,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let e = tr.energy("V1").unwrap();
        assert!(
            (e - 1e-9).abs() < 0.03e-9,
            "source energy {e:.3e} J, expected C·V² = 1e-9 J"
        );
    }

    #[test]
    fn pulse_breakpoints_are_hit() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(
            "V1",
            a,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9),
        );
        c.resistor("R1", a, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            4e-9,
            TransientOptions {
                dt: 0.3e-9, // deliberately coarse and incommensurate
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // The flat-top must be fully resolved: max exactly 1.0.
        assert!((tr.max("v(a)").unwrap() - 1.0).abs() < 1e-9);
        // Time axis must contain the pulse corners.
        for corner in [1e-9, 1.1e-9, 2.1e-9, 2.2e-9] {
            assert!(
                tr.time().iter().any(|t| (t - corner).abs() < 1e-15),
                "corner {corner} not sampled"
            );
        }
    }

    /// Corner snapping must be scale-relative: the same pulse shape on a
    /// nanosecond axis and on a second-scale (retention-style) axis must
    /// both land time points exactly on the waveform corners. With the
    /// old absolute `1e-18 s` tolerance the second-scale run could miss
    /// the snap (1e-18 is below one ULP of `t ≈ 1 s`) and emit sliver
    /// steps next to each corner instead.
    #[test]
    fn corner_snap_is_scale_invariant() {
        for scale in [1e-9, 1.0] {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.vsource(
                "V1",
                a,
                Circuit::GND,
                Waveform::pulse(0.0, 1.0, scale, 0.1 * scale, 0.1 * scale, scale),
            );
            c.resistor("R1", a, Circuit::GND, 1e3);
            let tr = transient(
                &c,
                4.0 * scale,
                TransientOptions {
                    dt: 0.3 * scale, // coarse and incommensurate with the corners
                    ..TransientOptions::default()
                },
            )
            .unwrap();
            assert!(
                (tr.max("v(a)").unwrap() - 1.0).abs() < 1e-9,
                "scale {scale}: flat-top not resolved"
            );
            for frac in [1.0, 1.1, 2.1, 2.2] {
                let corner = frac * scale;
                assert!(
                    tr.time().iter().any(|t| (t - corner).abs() < 1e-12 * scale),
                    "scale {scale}: corner {corner} not sampled exactly"
                );
            }
            // No sliver steps: consecutive time points never closer than
            // the snap tolerance would allow.
            let dt_nom = 0.3 * scale;
            let times = tr.time();
            for w in times.windows(2) {
                assert!(
                    w[1] - w[0] > 1e-9 * dt_nom,
                    "scale {scale}: sliver step {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn uic_starts_at_zero_then_steps() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GND, 1e3);
        let tr = transient(&c, 1e-9, TransientOptions::default()).unwrap();
        let v = tr.signal("v(a)").unwrap();
        assert_eq!(v[0], 0.0); // UIC
        assert!((v[1] - 1.0).abs() < 1e-6); // snapped to source
    }

    #[test]
    fn node_ics_respected() {
        // Pre-charged capacitor discharging through a resistor.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::GND, 1e-9);
        c.resistor("R1", a, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            3e-6,
            TransientOptions {
                dt: 5e-9,
                node_ics: vec![(a, 1.0)],
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let v1 = tr.value_at("v(a)", 1e-6).unwrap();
        assert!(((v1 - (-1.0f64).exp()).abs()) < 2e-3, "decay: {v1}");
    }

    #[test]
    fn switch_gates_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.switch(
            "S1",
            a,
            b,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 1e-9),
            10.0,
            1e12,
        );
        c.resistor("RL", b, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            3e-9,
            TransientOptions {
                dt: 0.05e-9,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // Before the switch closes, v(b) ~ 0; during: ~ 1V.
        assert!(tr.value_at("v(b)", 0.5e-9).unwrap().abs() < 1e-3);
        assert!((tr.value_at("v(b)", 1.5e-9).unwrap() - 1e3 / 1010.0).abs() < 1e-3);
        assert!(tr.value_at("v(b)", 2.5e-9).unwrap().abs() < 1e-3);
    }

    #[test]
    fn nmos_inverter_switches() {
        // Resistor-load inverter: out high when gate low, pulled low when
        // gate high.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        c.vsource(
            "VG",
            g,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 2e-9, 0.1e-9, 0.1e-9, 4e-9),
        );
        c.resistor("RL", vdd, out, 100e3);
        c.capacitor("CL", out, Circuit::GND, 0.2e-15);
        c.mosfet("M1", out, g, Circuit::GND, MosParams::nmos_45nm());
        let tr = transient(
            &c,
            8e-9,
            TransientOptions {
                dt: 0.02e-9,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let v_before = tr.value_at("v(out)", 1.8e-9).unwrap();
        let v_during = tr.value_at("v(out)", 5.5e-9).unwrap();
        assert!(v_before > 0.9, "output should be high, got {v_before}");
        assert!(
            v_during < 0.2,
            "output should be pulled low, got {v_during}"
        );
        // Falling edge measurable.
        let tf = tr.cross_time("v(out)", 0.5, Edge::Falling, 1.9e-9).unwrap();
        assert!(tf > 2e-9 && tf < 3.5e-9, "fall at {tf}");
    }

    #[test]
    fn fecap_polarization_switches_under_field() {
        // Drive a 1 nm FE cap well beyond its coercive voltage (±1.24 V)
        // and watch the polarization flip sign.
        let mut c = Circuit::new();
        let a = c.node("a");
        let params = FeCapParams::new(1e-9, 65e-9 * 65e-9);
        c.vsource(
            "V1",
            a,
            Circuit::GND,
            Waveform::pwl(vec![
                (0.0, 0.0),
                (2e-9, 2.0),
                (4e-9, 2.0),
                (6e-9, -2.0),
                (8e-9, -2.0),
            ]),
        );
        c.resistor("Rs", a, c.find_node("a").unwrap(), 1.0); // placeholder keeps node count stable
        let f = c.node("f");
        c.resistor("R1", a, f, 100.0);
        c.fecap("F1", f, Circuit::GND, params, -0.4);
        let tr = transient(
            &c,
            8e-9,
            TransientOptions {
                dt: 2e-12,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let p = tr.signal("p(F1)").unwrap();
        assert!(p[0] < 0.0);
        let p_mid = tr.value_at("p(F1)", 4e-9).unwrap();
        assert!(p_mid > 0.3, "P should have switched positive, got {p_mid}");
        let p_end = tr.last("p(F1)").unwrap();
        assert!(p_end < -0.3, "P should have switched back, got {p_end}");
    }

    #[test]
    fn rl_current_rise_matches_analytic() {
        // Series RL step: i(t) = (V/R)(1 - e^{-tR/L}).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", vin, mid, 100.0);
        c.inductor("L1", mid, Circuit::GND, 1e-6);
        let tau = 1e-6 / 100.0; // 10 ns
        let tr = transient(
            &c,
            5.0 * tau,
            TransientOptions {
                dt: tau / 200.0,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        for frac in [1.0, 2.0, 4.0] {
            let i = tr.value_at("i(L1)", frac * tau).unwrap();
            let exact = 0.01 * (1.0 - (-frac).exp());
            assert!(
                (i - exact).abs() < 2e-4 * 0.01 + 2e-5,
                "RL mismatch at {frac} tau: {i} vs {exact}"
            );
        }
    }

    #[test]
    fn lc_tank_oscillates_at_resonance() {
        // Pre-charged C ringing into L: period = 2 pi sqrt(LC).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::GND, 1e-12);
        c.inductor("L1", a, Circuit::GND, 1e-6);
        // Small loss to keep the numerics honest.
        c.resistor("Rp", a, Circuit::GND, 1e6);
        let period = 2.0 * std::f64::consts::PI * (1e-6f64 * 1e-12).sqrt(); // ~6.28 ns
        let tr = transient(
            &c,
            2.0 * period,
            TransientOptions {
                dt: period / 400.0,
                node_ics: vec![(a, 1.0)],
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // First zero crossing at a quarter period.
        let t_zero = tr
            .cross_time("v(a)", 0.0, crate::trace::Edge::Falling, 0.0)
            .unwrap();
        assert!(
            (t_zero - period / 4.0).abs() < 0.03 * period,
            "quarter period {t_zero:.3e} vs {:.3e}",
            period / 4.0
        );
        // Oscillation survives to the second period with modest decay.
        let v_peak2 = tr.window_max("v(a)", 0.9 * period, 1.1 * period).unwrap();
        assert!(v_peak2 > 0.8, "peak after one period {v_peak2}");
    }

    /// A pulsed FE cap behind a MOSFET: nonlinear currents, a
    /// polarization that moves, and source energy to meter.
    fn probe_fixture() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("f");
        let d = c.node("d");
        c.vsource(
            "V1",
            a,
            Circuit::GND,
            Waveform::pulse(0.0, 2.0, 1e-9, 0.1e-9, 0.1e-9, 2e-9),
        );
        c.vsource("VD", d, Circuit::GND, Waveform::dc(0.5));
        c.resistor("R1", a, f, 100.0);
        c.fecap(
            "F1",
            f,
            Circuit::GND,
            FeCapParams::new(1e-9, 65e-9 * 65e-9),
            -0.46,
        );
        c.mosfet("M1", d, f, Circuit::GND, MosParams::nmos_45nm());
        c
    }

    /// The probe recorder returns, bit for bit, what the full trace
    /// gives through its measurement helpers — for sample times between
    /// points, on a point, before the first and past the last.
    #[test]
    fn probes_match_the_full_trace_bit_for_bit() {
        let c = probe_fixture();
        // 37 ps is incommensurate with the pulse corners, so snapping
        // leaves uneven steps around them.
        let opts = || TransientOptions {
            dt: 37e-12,
            ..TransientOptions::default()
        };
        let t_end = 4e-9;
        let tr = transient(&c, t_end, opts()).unwrap();
        let elems: Vec<usize> = (0..c.elements().len()).collect();
        let names: Vec<String> = c
            .elements()
            .iter()
            .map(|(n, _)| format!("i({n})"))
            .collect();
        let on_point = tr.time()[7];
        let between = 0.5 * (tr.time()[20] + tr.time()[21]);
        // Windows whose maximum of v(a) sits inside, on the closing edge
        // (the last point of the rise) and on the opening edge (the
        // first point of the fall): the inclusive rule matters.
        let (t, va) = (tr.time(), tr.signal("v(a)").unwrap());
        let top = va.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rise_end = va.iter().position(|v| *v >= top).unwrap();
        let fall_start = va.iter().rposition(|v| *v >= top).unwrap();
        let windows = [
            (1e-9, 2.5e-9),
            (t[rise_end - 2], t[rise_end]),
            (t[fall_start], t[fall_start + 2]),
        ];
        let samples = [between, on_point, -1.0, 0.0, t_end, 9.0];
        for (t_sample, window) in samples.into_iter().zip(windows.into_iter().cycle()) {
            let probes = Probes {
                currents: elems.clone(),
                t_sample,
                window_nodes: vec![c.find_node("f").unwrap(), c.find_node("a").unwrap()],
                window,
                polarizations: vec![c.element_position("F1").unwrap()],
            };
            let rec = transient_probes(&c, t_end, opts(), &probes).unwrap();
            for (name, got) in names.iter().zip(&rec.currents) {
                let want = tr.value_at(name, t_sample).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{name} at {t_sample:e}");
            }
            for (node, got) in ["v(f)", "v(a)"].iter().zip(&rec.window_max) {
                let want = tr.window_max(node, window.0, window.1).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{node} over {window:?}");
            }
            let p_end = tr.last("p(F1)").unwrap();
            assert_eq!(rec.polarizations[0].to_bits(), p_end.to_bits());
            assert_eq!(rec.energy.to_bits(), tr.total_source_energy().to_bits());
            assert_eq!(rec.steps + 1, tr.time().len());
        }
    }

    #[test]
    fn probes_reject_what_they_cannot_record() {
        let c = probe_fixture();
        let run = |probes: Probes| transient_probes(&c, 1e-9, TransientOptions::default(), &probes);
        let bad_elem = Probes {
            currents: vec![99],
            ..Probes::default()
        };
        assert!(matches!(run(bad_elem), Err(CktError::Netlist(_))));
        let not_fe = Probes {
            polarizations: vec![c.element_position("M1").unwrap()],
            ..Probes::default()
        };
        assert!(matches!(run(not_fe), Err(CktError::Netlist(_))));
        let ground = Probes {
            window_nodes: vec![Circuit::GND],
            ..Probes::default()
        };
        assert!(matches!(run(ground), Err(CktError::Netlist(_))));
        let nan_sample = Probes {
            currents: vec![0],
            t_sample: f64::NAN,
            ..Probes::default()
        };
        assert!(matches!(run(nan_sample), Err(CktError::Netlist(_))));
        // A window no accepted point falls in is a typed error, not a
        // silent default.
        let empty_window = Probes {
            window_nodes: vec![c.find_node("f").unwrap()],
            window: (2e-9, 3e-9),
            ..Probes::default()
        };
        assert!(matches!(
            run(empty_window),
            Err(CktError::Measurement { .. })
        ));
        // Nothing probed still meters energy and counts steps.
        let rec = run(Probes::default()).unwrap();
        assert!(rec.steps > 0 && rec.currents.is_empty());
    }

    #[test]
    fn rejects_bad_t_end() {
        let c = Circuit::new();
        assert!(transient(&c, 0.0, TransientOptions::default()).is_err());
    }
}
