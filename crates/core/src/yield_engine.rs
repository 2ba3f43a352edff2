//! Monte Carlo yield engine: thousands of perturbed array trials with
//! cross-trial solver reuse and fixed-memory streaming statistics.
//!
//! Every trial perturbs the per-cell devices of one read-biased array
//! (threshold voltage, ferroelectric thickness, P_r/E_c landscape,
//! trap-induced V_T shifts — see
//! [`fefet_device::variability::VariationSpec`]) and evaluates three
//! workloads: the read margin of the accessed row, a (write-voltage ×
//! pulse-width) shmoo of the hardest cell, and a read-disturb stress of
//! the easiest cell. The performance substance is what is **shared**
//! across trials:
//!
//! - **One symbolic analysis per pattern, process-wide.** Every trial
//!   solves a structurally identical MNA system (perturbations change
//!   values, never the pattern), so all trials share one
//!   [`AnalysisCache`] entry instead of re-analyzing per trial.
//! - **Reusable per-worker trial workspaces.** Each pooled worker owns a
//!   [`TrialScratch`] (circuit clone, Newton workspace, state/solution
//!   vectors, device scratch) that is re-parameterized in place — the
//!   warm trial loop performs zero heap allocations.
//! - **Warm-started Newton.** Trials start from the converged nominal
//!   read-bias solution rather than from cold initial conditions, and
//!   the per-trial iteration counts recorded in [`TrialOutcome`] prove
//!   the reduction against [`YieldEngine::run_trial_cold`].
//!
//! Trial randomness is drawn **serially** at setup (one sub-seed per
//! trial from the master seed); only the evaluation fans out over the
//! persistent pool ([`fefet_ckt::parallel::pool_map`]). Every outcome is a
//! pure function of its sub-seed, and the pool preserves order, so a
//! pooled run is bit-identical to a serial (`threads = 1`) run.
//!
//! Results stream into fixed-memory accumulators ([`Streaming`] and a
//! [`fefet_telemetry::QuantileHistogram`]) — memory does not grow with the
//! trial count — and condense into a [`YieldReport`] that renders as a
//! self-validating JSON [`RunReport`].

use crate::array::FefetArray;
use crate::cell::FefetCell;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{ElemState, EvalCtx};
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_ckt::parallel::pool_map;
use fefet_ckt::plan::AnalysisCache;
use fefet_ckt::{CktError, Result};
use fefet_device::dynamics::be_step;
use fefet_device::fefet::Fefet;
use fefet_device::variability::{sample_device, VariationSpec};
use fefet_numerics::rng::Rng;
use fefet_telemetry::json::fmt_f64;
use fefet_telemetry::{Instrumentation, QuantileHistogram, RunReport, TraceEvent};
use std::cell::RefCell;
use std::sync::Arc;

/// Read-window bias point (s) at which trials are evaluated — inside
/// the pulse plateau of [`FefetArray::read_circuit`].
const T_BIAS: f64 = 0.5e-9;
/// Pseudo-transient step (s) for the fixed-bias point solves.
const H_STEP: f64 = 50e-12;
/// Relaxation steps from the initial-condition seed to the converged
/// nominal read-bias solution.
const K_BOOT: usize = 12;
/// Pseudo-transient steps per trial (each one Newton point solve).
const K_TRIAL: usize = 3;
/// Integration steps across a shmoo/disturb pulse.
const N_PULSE: usize = 32;
/// Integration steps across the zero-bias settle after a pulse.
const N_HOLD: usize = 8;
/// Zero-bias settle window (s) after a pulse.
const T_HOLD: f64 = 1e-9;
/// Decorrelates the trial sub-seed stream from other engine seeds.
const SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Full specification of a yield run. All knobs have working defaults;
/// `rows`/`cols` size the array, `n_trials` the Monte Carlo depth.
#[derive(Debug, Clone)]
pub struct YieldSpec {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Monte Carlo trials.
    pub n_trials: usize,
    /// Master seed; the per-trial sub-seeds derive from it serially.
    pub seed: u64,
    /// Worker threads for the pooled run; 0 = one per hardware thread,
    /// 1 = serial. Results are bit-identical for every value.
    pub threads: usize,
    /// Trials dispatched to the pool per batch (bounds the in-flight
    /// outcome buffer; statistics stream between batches).
    pub batch: usize,
    /// Per-device variation spread.
    pub variation: VariationSpec,
    /// Read passes when the on/off current ratio (dimensionless) of the
    /// accessed row is at least this.
    pub margin_min: f64,
    /// Shmoo grid: lowest write amplitude (V).
    pub shmoo_v_lo: f64,
    /// Shmoo grid: highest write amplitude (V).
    pub shmoo_v_hi: f64,
    /// Shmoo grid: amplitude points.
    pub shmoo_nv: usize,
    /// Shmoo grid: shortest write pulse (s).
    pub shmoo_t_lo: f64,
    /// Shmoo grid: longest write pulse (s).
    pub shmoo_t_hi: f64,
    /// Shmoo grid: pulse-width points. `shmoo_nv × shmoo_nt` must be
    /// ≤ 64 (pass/fail packs into a `u64` mask).
    pub shmoo_nt: usize,
    /// A write passes when the settled polarization reaches this
    /// fraction of the nominal stored state, with the right sign.
    pub write_frac: f64,
    /// Disturb stress amplitude (V) applied to the easiest cell. The
    /// default sits below the nominal coercive voltage, so the
    /// criterion discriminates between trials instead of switching
    /// every device outright.
    pub disturb_v: f64,
    /// Disturb stress duration (s).
    pub disturb_t: f64,
    /// Disturb passes when the residual polarization shift (C/m²) stays
    /// below this.
    pub disturb_max_dp: f64,
}

impl Default for YieldSpec {
    fn default() -> Self {
        YieldSpec {
            rows: 4,
            cols: 4,
            n_trials: 256,
            seed: 0x5eed,
            threads: 0,
            batch: 256,
            variation: VariationSpec::default(),
            margin_min: 100.0,
            shmoo_v_lo: 0.4,
            shmoo_v_hi: 1.2,
            shmoo_nv: 6,
            shmoo_t_lo: 0.3e-9,
            shmoo_t_hi: 3e-9,
            shmoo_nt: 6,
            write_frac: 0.7,
            disturb_v: 0.10,
            disturb_t: 2e-9,
            disturb_max_dp: 0.05,
        }
    }
}

/// Everything one trial produced. A pure function of the engine and the
/// trial index, so serial and pooled runs agree bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// Trial index.
    pub trial: usize,
    /// False if any Newton point solve of this trial failed to
    /// converge (the trial then fails the read workload).
    pub solver_ok: bool,
    /// Accessed-row read margin: min ON over max OFF cell current
    /// (dimensionless ratio).
    pub margin_ratio: f64,
    /// Smallest ON-cell current (A) on the accessed row.
    pub i_on_min_a: f64,
    /// Largest OFF-cell current (A) on the accessed row.
    pub i_off_max_a: f64,
    /// Newton iterations summed over this trial's warm point solves.
    pub warm_iters: u64,
    /// Shmoo pass/fail bitmask; bit `iv·shmoo_nt + it` is the grid
    /// point at amplitude `iv`, width `it`.
    pub shmoo_pass: u64,
    /// Population count of `shmoo_pass`.
    pub shmoo_npass: u32,
    /// Worst residual polarization shift (C/m²) of the disturb stress.
    pub disturb_dp: f64,
    /// Column of the limiting (weakest ON) cell on the accessed row.
    pub worst_col: usize,
    /// Sampled threshold voltage (V) of that cell's read transistor.
    pub worst_vt0_v: f64,
    /// Sampled ferroelectric thickness (m) of that cell.
    pub worst_t_fe_m: f64,
}

/// Reusable per-worker trial workspace: a circuit clone that is
/// re-parameterized in place, the Newton workspace, solution and state
/// vectors, and per-cell device scratch. After the first (cold) use,
/// [`YieldEngine::run_trial`] performs zero heap allocations on it.
#[derive(Debug)]
pub struct TrialScratch {
    circuit: Circuit,
    ws: NewtonWorkspace,
    x: Vec<f64>,
    states: Vec<ElemState>,
    devices: Vec<Fefet>,
}

/// Streaming (Welford) accumulator: count, mean, variance, min, max in
/// O(1) memory regardless of how many samples are folded in.
#[derive(Debug, Clone)]
pub struct Streaming {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Streaming {
    fn default() -> Self {
        Self::new()
    }
}

impl Streaming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Streaming {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample in. `x` carries whatever units the stream
    /// tracks (a dimensionless ratio for margins, seconds for times);
    /// the summary statistics come out in the same units.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (units of the folded samples; dimensionless for
    /// ratio streams).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (squared sample units; dimensionless for
    /// ratio streams).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation (units of the folded samples).
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample folded (units of the folded samples), or +∞ when
    /// empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample folded (units of the folded samples), or −∞ when
    /// empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Condenses to a plain summary.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            n: self.n,
            mean: self.mean(),
            std: self.std(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Condensed summary of one [`Streaming`] accumulator.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Sample count.
    pub n: u64,
    /// Mean, in the units of the accumulated samples (dimensionless
    /// for ratio streams).
    pub mean: f64,
    /// Standard deviation, in the units of the accumulated samples
    /// (dimensionless for ratio streams).
    pub std: f64,
    /// Minimum, in the units of the accumulated samples (dimensionless
    /// for ratio streams); +∞ when empty.
    pub min: f64,
    /// Maximum, in the units of the accumulated samples (dimensionless
    /// for ratio streams); −∞ when empty.
    pub max: f64,
}

impl StreamStats {
    /// Serializes as one JSON object (non-finite extrema become null).
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                fmt_f64(v)
            } else {
                "null".to_string()
            }
        };
        format!(
            "{{\"n\":{},\"mean\":{},\"std\":{},\"min\":{},\"max\":{}}}",
            self.n,
            num(self.mean),
            num(self.std),
            num(self.min),
            num(self.max)
        )
    }
}

/// The limiting corner over a whole run: the solver-clean trial with
/// the smallest read margin, and the device that set it.
#[derive(Debug, Clone, Copy)]
pub struct WorstCorner {
    /// Trial index of the worst margin.
    pub trial: usize,
    /// That trial's margin (dimensionless ratio).
    pub margin_ratio: f64,
    /// Limiting column on the accessed row.
    pub col: usize,
    /// Sampled threshold voltage (V) of the limiting read transistor.
    pub vt0_v: f64,
    /// Sampled ferroelectric thickness (m) of the limiting cell.
    pub t_fe_m: f64,
}

/// Aggregated result of a yield run; see [`YieldEngine::run`].
#[derive(Debug, Clone)]
pub struct YieldReport {
    /// Trials evaluated.
    pub n_trials: usize,
    /// Trials with a non-converged point solve.
    pub solver_failures: usize,
    /// Fraction of trials passing the read-margin criterion.
    pub read_yield: f64,
    /// Fraction of trials whose best shmoo corner writes successfully.
    pub write_yield: f64,
    /// Fraction of trials passing the disturb criterion.
    pub disturb_yield: f64,
    /// Read-margin distribution (dimensionless ratios).
    pub margin: StreamStats,
    /// Read-margin histogram (half-decade buckets from 10⁻² to 10¹⁰),
    /// serialized JSON.
    pub margin_hist_json: String,
    /// Disturb polarization-shift distribution (C/m² samples) over the
    /// trials whose disturb stress settled; a failed settle (shift
    /// reported as +∞) counts against `disturb_yield` only.
    pub disturb: StreamStats,
    /// Warm Newton iterations per trial (dimensionless counts).
    pub warm_iters: StreamStats,
    /// Newton iterations the nominal bootstrap spent reaching the
    /// shared warm-start solution.
    pub nominal_bootstrap_iters: u64,
    /// Nominal (unperturbed) read margin (dimensionless ratio).
    pub nominal_margin: f64,
    /// Pass counts per shmoo grid point, row-major over
    /// (amplitude × width).
    pub shmoo_pass_counts: Vec<u64>,
    /// Amplitude points of the shmoo grid.
    pub shmoo_nv: usize,
    /// Pulse-width points of the shmoo grid.
    pub shmoo_nt: usize,
    /// The worst solver-clean corner, if any trial was solver-clean.
    pub worst: Option<WorstCorner>,
}

impl YieldReport {
    /// Renders as a self-validating [`RunReport`]: suite `yield`, one
    /// JSON section per workload.
    pub fn to_run_report(&self, spec: &YieldSpec) -> RunReport {
        let mut r = RunReport::new("yield");
        r.meta("rows", &spec.rows.to_string());
        r.meta("cols", &spec.cols.to_string());
        r.meta("trials", &self.n_trials.to_string());
        r.meta("seed", &spec.seed.to_string());
        r.meta("threads", &spec.threads.to_string());
        r.section(
            "yield",
            format!(
                "{{\"read\":{},\"write\":{},\"disturb\":{},\
                 \"solver_failures\":{}}}",
                fmt_f64(self.read_yield),
                fmt_f64(self.write_yield),
                fmt_f64(self.disturb_yield),
                self.solver_failures
            ),
        );
        r.section("read_margin", self.margin.to_json());
        r.section("read_margin_hist", self.margin_hist_json.clone());
        r.section("disturb_dp", self.disturb.to_json());
        let mut shmoo = String::with_capacity(128);
        shmoo.push_str(&format!(
            "{{\"nv\":{},\"nt\":{},\"v_lo\":{},\"v_hi\":{},\
             \"t_lo\":{},\"t_hi\":{},\"pass_counts\":[",
            self.shmoo_nv,
            self.shmoo_nt,
            fmt_f64(spec.shmoo_v_lo),
            fmt_f64(spec.shmoo_v_hi),
            fmt_f64(spec.shmoo_t_lo),
            fmt_f64(spec.shmoo_t_hi)
        ));
        for (g, c) in self.shmoo_pass_counts.iter().enumerate() {
            if g > 0 {
                shmoo.push(',');
            }
            shmoo.push_str(&c.to_string());
        }
        shmoo.push_str("]}");
        r.section("write_shmoo", shmoo);
        r.section(
            "warm_start",
            format!(
                "{{\"nominal_bootstrap_iters\":{},\"nominal_margin\":{},\
                 \"trial_iters\":{}}}",
                self.nominal_bootstrap_iters,
                fmt_f64(self.nominal_margin),
                self.warm_iters.to_json()
            ),
        );
        let worst = match &self.worst {
            Some(w) => format!(
                "{{\"trial\":{},\"margin\":{},\"col\":{},\"vt0_v\":{},\
                 \"t_fe_m\":{}}}",
                w.trial,
                fmt_f64(w.margin_ratio),
                w.col,
                fmt_f64(w.vt0_v),
                fmt_f64(w.t_fe_m)
            ),
            None => "null".to_string(),
        };
        r.section("worst_corner", worst);
        r
    }
}

/// Immutable state shared by every trial: the nominal circuit and its
/// assembly, the solver options carrying the process-wide analysis
/// cache, the converged warm-start solution, cached element/node
/// indices, and the pre-drawn trial sub-seeds.
#[derive(Debug)]
struct EngineCore {
    cell: FefetCell,
    spec: YieldSpec,
    circuit: Circuit,
    asm: Assembly,
    opts: SolverOptions,
    x_boot: Vec<f64>,
    x_nominal: Vec<f64>,
    states_boot: Vec<ElemState>,
    states_nominal: Vec<ElemState>,
    trial_seeds: Vec<u64>,
    fe_idx: Vec<usize>,
    mfet_idx: Vec<usize>,
    gi0_x: Vec<usize>,
    sl_x: Vec<usize>,
    rs0_x: usize,
    pattern_hi: Vec<bool>,
    p_lo: f64,
    p_hi: f64,
    boot_iters: u64,
    nominal_margin: f64,
    instr: Instrumentation,
}

/// The yield engine itself. Cheap to clone (one `Arc`); every clone
/// shares the same analysis cache and warm-start state.
#[derive(Debug, Clone)]
pub struct YieldEngine {
    core: Arc<EngineCore>,
}

thread_local! {
    /// Per-worker trial workspace, keyed by the owning engine core so a
    /// new engine on the same pool thread rebuilds it.
    static SCRATCH: RefCell<Option<(usize, TrialScratch)>> = const { RefCell::new(None) };
}

fn advance_states(
    ckt: &Circuit,
    asm: &Assembly,
    t: f64,
    h: f64,
    x: &[f64],
    states: &mut [ElemState],
) {
    for (k, (_, e)) in ckt.elements().iter().enumerate() {
        let ctx = EvalCtx {
            t,
            h,
            dc: false,
            x,
            state: states[k],
        };
        states[k] = e.next_state(asm.branch0[k], asm.n_nodes, &ctx);
    }
}

/// Closed-form coercive voltage (V) of a ferroelectric film: the
/// extremum of the Landau S-curve at x = P² solving 5γx² + 3βx + α = 0
/// (smaller positive root), times the film thickness. Allocation-free,
/// used only to rank sampled devices.
fn coercive_voltage(fe: &fefet_ckt::models::FeCapParams) -> f64 {
    let (a, b, g) = (fe.lk.alpha, fe.lk.beta, fe.lk.gamma);
    let disc = 9.0 * b * b - 20.0 * g * a;
    if disc < 0.0 || g.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    let x = (-3.0 * b + disc.sqrt()) / (10.0 * g);
    if x > 0.0 {
        (fe.thickness * fe.lk.e_static(x.sqrt())).abs()
    } else {
        0.0
    }
}

/// Integrates the FEFET stack's LK dynamics at fixed gate bias `v_g`
/// over `t_tot` in `n` backward-Euler steps. Allocation-free; `None`
/// if the inner root solve hits a non-finite residual.
fn settle(dev: &Fefet, v_g: f64, p0: f64, t_tot: f64, n: usize) -> Option<f64> {
    let tau = dev.fe.thickness * dev.fe.lk.rho;
    let rate = |_t: f64, p: f64| (v_g - dev.mos.v_gate_of_density(p) - dev.fe.v_static(p)) / tau;
    let h = t_tot / n as f64;
    let mut p = p0;
    let mut t = 0.0;
    for _ in 0..n {
        t += h;
        p = be_step(&rate, t, p, h).ok()?;
    }
    Some(p)
}

impl YieldEngine {
    /// Builds the engine: constructs the checkerboard-patterned array's
    /// read circuit, performs the one-time symbolic analysis and the
    /// nominal warm-start bootstrap, and pre-draws every trial's
    /// sub-seed serially from `spec.seed`.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] on an invalid spec (zero trials, shmoo
    /// grid beyond 64 points); solver errors if the nominal bootstrap
    /// fails to converge.
    pub fn new(cell: FefetCell, spec: YieldSpec, instr: Instrumentation) -> Result<Self> {
        if spec.n_trials == 0 || spec.rows == 0 || spec.cols == 0 || spec.batch == 0 {
            return Err(CktError::Netlist(
                "yield: rows, cols, n_trials and batch must all be >= 1".into(),
            ));
        }
        if spec.shmoo_nv == 0 || spec.shmoo_nt == 0 || spec.shmoo_nv * spec.shmoo_nt > 64 {
            return Err(CktError::Netlist(
                "yield: shmoo grid must have 1..=64 points".into(),
            ));
        }
        let mut array = FefetArray::new(spec.rows, spec.cols, cell);
        let (p_lo, p_hi) = array.cell.memory_states();
        let mut pattern_hi = Vec::with_capacity(spec.rows * spec.cols);
        for i in 0..spec.rows {
            for j in 0..spec.cols {
                let hi = (i + j) % 2 == 1;
                pattern_hi.push(hi);
                array.set_polarization(i, j, if hi { p_hi } else { p_lo });
            }
        }
        let (circuit, idx) = array.read_netlist(0, 3e-9)?;
        let plan = Arc::new(array.block_plan(&circuit)?);
        let asm = Assembly::new(&circuit);
        let opts = SolverOptions {
            backend: SolverBackend::Sparse,
            // Both fast paths carry cross-trial state in a reused worker
            // workspace (factor keys, bypass banks); exact solves keep
            // every trial a pure function of its sub-seed.
            jacobian_reuse: false,
            bypass: false,
            block_plan: Some(plan),
            cache: Some(AnalysisCache::new()),
            instr: instr.clone(),
            ..SolverOptions::default()
        };
        let n = asm.n_unknowns();
        let cell = array.cell;
        // Initial-condition seed: every cell's internal nodes at the
        // static stack solution of its stored polarization.
        let mut x_boot = vec![0.0; n];
        for (k, &hi) in pattern_hi.iter().enumerate() {
            let p0 = if hi { p_hi } else { p_lo };
            x_boot[idx.g[k].index() - 1] = cell.fefet.v_gate_static(p0);
            x_boot[idx.gi[k].index() - 1] = cell.fefet.v_mos_of(p0);
        }
        let gi0_x = idx.gi[..spec.cols].iter().map(|n| n.index() - 1).collect();
        let sl_x = idx.sl.iter().map(|n| n.index() - 1).collect();
        let rs0_x = idx.rs[0].index() - 1;
        let (fe_idx, mfet_idx) = (idx.fe, idx.mfet);
        // Nominal bootstrap: relax the read bias point by pseudo-
        // transient stepping (the FE caps are open in DC, so a pure DC
        // solve cannot see the stored polarization).
        let states_boot: Vec<ElemState> = circuit
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x_boot))
            .collect();
        let mut x = x_boot.clone();
        let mut states = states_boot.clone();
        let mut ws = NewtonWorkspace::new(n);
        let mut boot_iters = 0u64;
        for _ in 0..K_BOOT {
            let iters = asm.solve_point_with(
                &circuit, T_BIAS, H_STEP, false, &opts, &mut x, &states, &mut ws,
            )?;
            boot_iters += iters as u64;
            advance_states(&circuit, &asm, T_BIAS, H_STEP, &x, &mut states);
        }
        let x_nominal = x;
        // Trials restart the FE caps from their stored polarization
        // (`initial_state` resets each to its p0) with node voltages
        // warm-started at the converged read bias.
        let states_nominal: Vec<ElemState> = circuit
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x_nominal))
            .collect();
        let mut rng = Rng::seed_from_u64(spec.seed ^ SEED_SALT);
        let trial_seeds: Vec<u64> = (0..spec.n_trials).map(|_| rng.next_u64()).collect();
        let mut core = EngineCore {
            cell,
            spec,
            circuit,
            asm,
            opts,
            x_boot,
            x_nominal,
            states_boot,
            states_nominal,
            trial_seeds,
            fe_idx,
            mfet_idx,
            gi0_x,
            sl_x,
            rs0_x,
            pattern_hi,
            p_lo,
            p_hi,
            boot_iters,
            nominal_margin: 0.0,
            instr,
        };
        let (margin, _, _, _) = margin_of(&core, &core.x_nominal, |_| &core.cell.fefet);
        core.nominal_margin = margin;
        Ok(YieldEngine {
            core: Arc::new(core),
        })
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &YieldSpec {
        &self.core.spec
    }

    /// MNA unknowns per trial solve.
    pub fn n_unknowns(&self) -> usize {
        self.core.asm.n_unknowns()
    }

    /// Newton iterations the nominal bootstrap spent reaching the
    /// shared warm-start solution.
    pub fn bootstrap_iters(&self) -> u64 {
        self.core.boot_iters
    }

    /// Nominal (unperturbed) read margin (dimensionless ratio).
    pub fn nominal_margin(&self) -> f64 {
        self.core.nominal_margin
    }

    /// Builds a fresh trial workspace. One per worker is enough; after
    /// its first use, [`YieldEngine::run_trial`] reuses it without
    /// allocating.
    pub fn make_scratch(&self) -> TrialScratch {
        let core = &*self.core;
        TrialScratch {
            circuit: core.circuit.clone(),
            ws: NewtonWorkspace::new(core.asm.n_unknowns()),
            x: vec![0.0; core.asm.n_unknowns()],
            states: core.states_nominal.clone(),
            devices: vec![core.cell.fefet; core.spec.rows * core.spec.cols],
        }
    }

    /// Evaluates one trial on a reusable workspace: draws the per-cell
    /// devices from the trial's sub-seed, re-parameterizes the circuit
    /// in place, runs the warm-started read point solves, the shmoo
    /// and the disturb stress. Allocation-free once `scratch` is warm.
    pub fn run_trial(&self, scratch: &mut TrialScratch, trial: usize) -> TrialOutcome {
        trial_body(
            &self.core,
            scratch,
            trial,
            &self.core.opts,
            &self.core.x_nominal,
            &self.core.states_nominal,
        )
    }

    /// The honest cold baseline for the same trial: a fresh workspace,
    /// no shared analysis cache (the symbolic analysis is redone), and
    /// Newton started from the initial-condition seed instead of the
    /// converged nominal solution.
    pub fn run_trial_cold(&self, trial: usize) -> TrialOutcome {
        let core = &*self.core;
        let mut scratch = self.make_scratch();
        let opts = SolverOptions {
            cache: None,
            ..core.opts.clone()
        };
        trial_body(
            core,
            &mut scratch,
            trial,
            &opts,
            &core.x_boot,
            &core.states_boot,
        )
    }

    /// Runs every trial and streams the outcomes into fixed-memory
    /// accumulators. Sub-seeds were drawn serially at construction;
    /// evaluation fans out over the persistent pool in `spec.threads`-
    /// wide batches, and outcomes fold in trial order — the report is
    /// bit-identical for any thread count.
    pub fn run(&self) -> YieldReport {
        let core = &*self.core;
        let spec = &core.spec;
        let nv = spec.shmoo_nv;
        let nt = spec.shmoo_nt;
        let mut margin_s = Streaming::new();
        let mut disturb_s = Streaming::new();
        let mut iters_s = Streaming::new();
        let hist = QuantileHistogram::new(-2, 10, 2);
        let mut shmoo_counts = vec![0u64; nv * nt];
        let mut read_pass = 0usize;
        let mut write_pass = 0usize;
        let mut disturb_pass = 0usize;
        let mut failures = 0usize;
        let mut worst: Option<WorstCorner> = None;
        let mut start = 0usize;
        while start < spec.n_trials {
            let end = (start + spec.batch).min(spec.n_trials);
            let idx: Vec<usize> = (start..end).collect();
            let core_cl = self.core.clone();
            let outcomes = pool_map(idx, spec.threads, &core.instr, move |&i| {
                run_trial_pooled(&core_cl, i)
            });
            for o in &outcomes {
                if o.solver_ok {
                    margin_s.push(o.margin_ratio);
                    hist.record(o.margin_ratio);
                    iters_s.push(o.warm_iters as f64);
                    if o.margin_ratio >= spec.margin_min {
                        read_pass += 1;
                    }
                    let replace = match &worst {
                        Some(w) => o.margin_ratio < w.margin_ratio,
                        None => true,
                    };
                    if replace {
                        worst = Some(WorstCorner {
                            trial: o.trial,
                            margin_ratio: o.margin_ratio,
                            col: o.worst_col,
                            vt0_v: o.worst_vt0_v,
                            t_fe_m: o.worst_t_fe_m,
                        });
                    }
                } else {
                    failures += 1;
                }
                if o.shmoo_pass != 0 {
                    write_pass += 1;
                }
                for (g, c) in shmoo_counts.iter_mut().enumerate() {
                    *c += (o.shmoo_pass >> g) & 1;
                }
                // One +∞ sample (a failed settle) would leave the mean
                // infinite and the variance NaN for the rest of the run.
                if o.disturb_dp.is_finite() {
                    disturb_s.push(o.disturb_dp);
                }
                if o.disturb_dp <= spec.disturb_max_dp {
                    disturb_pass += 1;
                }
            }
            start = end;
        }
        let frac = |k: usize| k as f64 / spec.n_trials as f64;
        YieldReport {
            n_trials: spec.n_trials,
            solver_failures: failures,
            read_yield: frac(read_pass),
            write_yield: frac(write_pass),
            disturb_yield: frac(disturb_pass),
            margin: margin_s.stats(),
            margin_hist_json: hist.to_json(),
            disturb: disturb_s.stats(),
            warm_iters: iters_s.stats(),
            nominal_bootstrap_iters: core.boot_iters,
            nominal_margin: core.nominal_margin,
            shmoo_pass_counts: shmoo_counts,
            shmoo_nv: nv,
            shmoo_nt: nt,
            worst,
        }
    }
}

/// Pool entry point: fetches (or rebuilds) this worker's thread-local
/// scratch and evaluates the trial on it.
fn run_trial_pooled(core: &Arc<EngineCore>, trial: usize) -> TrialOutcome {
    let engine = YieldEngine { core: core.clone() };
    let key = Arc::as_ptr(core) as usize;
    let trial_t0 = core.instr.profile_start();
    let out = SCRATCH.with(|slot| {
        let mut slot = slot.borrow_mut();
        let fresh = !matches!(&*slot, Some((k, _)) if *k == key);
        if fresh {
            *slot = Some((key, engine.make_scratch()));
        }
        if let Some((_, scratch)) = &mut *slot {
            engine.run_trial(scratch, trial)
        } else {
            // The slot was just populated above; this branch only
            // protects against a poisoned borrow pattern.
            let mut scratch = engine.make_scratch();
            engine.run_trial(&mut scratch, trial)
        }
    });
    core.instr
        .profile_end(trial_t0, TraceEvent::YieldTrial, trial as u64);
    out
}

/// Read margin of the accessed row from a solved iterate: smallest ON
/// over largest OFF cell current, plus the limiting ON column.
fn margin_of<'a, F>(core: &EngineCore, x: &[f64], dev_of: F) -> (f64, f64, f64, usize)
where
    F: Fn(usize) -> &'a Fefet,
{
    let v_rs0 = x[core.rs0_x];
    let mut i_on_min = f64::INFINITY;
    let mut i_off_max = 0.0f64;
    let mut worst_col = 0usize;
    for j in 0..core.spec.cols {
        let dev = dev_of(j);
        let v_gs = x[core.gi0_x[j]] - x[core.sl_x[j]];
        let v_ds = v_rs0 - x[core.sl_x[j]];
        let i_d = dev.mos.ids(v_gs, v_ds).0;
        if core.pattern_hi[j] {
            if i_d < i_on_min {
                i_on_min = i_d;
                worst_col = j;
            }
        } else {
            i_off_max = i_off_max.max(i_d.abs());
        }
    }
    let margin = if i_on_min.is_finite() {
        i_on_min / i_off_max.max(1e-30)
    } else {
        0.0
    };
    (margin, i_on_min, i_off_max, worst_col)
}

fn trial_body(
    core: &EngineCore,
    scratch: &mut TrialScratch,
    trial: usize,
    opts: &SolverOptions,
    x0: &[f64],
    states0: &[ElemState],
) -> TrialOutcome {
    let spec = &core.spec;
    let mut rng = Rng::seed_from_u64(core.trial_seeds[trial]);
    for dev in scratch.devices.iter_mut() {
        *dev = sample_device(&core.cell.fefet, &spec.variation, &mut rng);
    }
    let mut solver_ok = true;
    for (k, dev) in scratch.devices.iter().enumerate() {
        solver_ok &= scratch
            .circuit
            .set_fecap_params_at(core.fe_idx[k], dev.fe)
            .is_ok();
        solver_ok &= scratch
            .circuit
            .set_mosfet_params_at(core.mfet_idx[k], dev.mos)
            .is_ok();
    }
    scratch.x.copy_from_slice(x0);
    scratch.states.copy_from_slice(states0);
    let mut warm_iters = 0u64;
    if solver_ok {
        for _ in 0..K_TRIAL {
            match core.asm.solve_point_with(
                &scratch.circuit,
                T_BIAS,
                H_STEP,
                false,
                opts,
                &mut scratch.x,
                &scratch.states,
                &mut scratch.ws,
            ) {
                Ok(iters) => warm_iters += iters as u64,
                Err(_) => {
                    solver_ok = false;
                    break;
                }
            }
            advance_states(
                &scratch.circuit,
                &core.asm,
                T_BIAS,
                H_STEP,
                &scratch.x,
                &mut scratch.states,
            );
        }
    }
    let (margin_ratio, i_on_min, i_off_max, worst_col) = if solver_ok {
        margin_of(core, &scratch.x, |j| &scratch.devices[j])
    } else {
        (0.0, 0.0, 0.0, 0)
    };
    // Shmoo the hardest cell (largest closed-form coercive voltage).
    let mut hard = 0usize;
    let mut easy = 0usize;
    let mut vc_max = f64::NEG_INFINITY;
    let mut vc_min = f64::INFINITY;
    for (k, dev) in scratch.devices.iter().enumerate() {
        let vc = coercive_voltage(&dev.fe);
        if vc > vc_max {
            vc_max = vc;
            hard = k;
        }
        if vc < vc_min {
            vc_min = vc;
            easy = k;
        }
    }
    let dev = &scratch.devices[hard];
    let mut shmoo_pass = 0u64;
    for iv in 0..spec.shmoo_nv {
        let fv = if spec.shmoo_nv > 1 {
            iv as f64 / (spec.shmoo_nv - 1) as f64
        } else {
            0.0
        };
        let v_w = spec.shmoo_v_lo + (spec.shmoo_v_hi - spec.shmoo_v_lo) * fv;
        for it in 0..spec.shmoo_nt {
            let ft = if spec.shmoo_nt > 1 {
                it as f64 / (spec.shmoo_nt - 1) as f64
            } else {
                0.0
            };
            let t_p = spec.shmoo_t_lo + (spec.shmoo_t_hi - spec.shmoo_t_lo) * ft;
            let up = settle(dev, v_w, core.p_lo, t_p, N_PULSE)
                .and_then(|p| settle(dev, 0.0, p, T_HOLD, N_HOLD));
            let down = settle(dev, -v_w, core.p_hi, t_p, N_PULSE)
                .and_then(|p| settle(dev, 0.0, p, T_HOLD, N_HOLD));
            let ok = match (up, down) {
                (Some(p1), Some(p0)) => {
                    p1 >= spec.write_frac * core.p_hi && p0 <= spec.write_frac * core.p_lo
                }
                _ => false,
            };
            if ok {
                shmoo_pass |= 1u64 << (iv * spec.shmoo_nt + it);
            }
        }
    }
    // Disturb-stress the easiest cell (smallest coercive voltage) from
    // both stored states with both stress polarities.
    let dev = &scratch.devices[easy];
    let mut disturb_dp = 0.0f64;
    for &(p0, v) in &[
        (core.p_lo, spec.disturb_v),
        (core.p_lo, -spec.disturb_v),
        (core.p_hi, spec.disturb_v),
        (core.p_hi, -spec.disturb_v),
    ] {
        let p_end = settle(dev, v, p0, spec.disturb_t, N_PULSE)
            .and_then(|p| settle(dev, 0.0, p, T_HOLD, N_HOLD));
        match p_end {
            Some(p) => disturb_dp = disturb_dp.max((p - p0).abs()),
            None => disturb_dp = f64::INFINITY,
        }
    }
    let limiter = &scratch.devices[worst_col];
    TrialOutcome {
        trial,
        solver_ok,
        margin_ratio,
        i_on_min_a: i_on_min,
        i_off_max_a: i_off_max,
        warm_iters,
        shmoo_pass,
        shmoo_npass: shmoo_pass.count_ones(),
        disturb_dp,
        worst_col,
        worst_vt0_v: limiter.mos.vt0,
        worst_t_fe_m: limiter.fe.thickness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fefet_telemetry::json;

    fn small_spec() -> YieldSpec {
        YieldSpec {
            rows: 2,
            cols: 2,
            n_trials: 8,
            seed: 42,
            threads: 1,
            batch: 4,
            shmoo_nv: 2,
            shmoo_nt: 2,
            ..YieldSpec::default()
        }
    }

    fn outcomes_equal(a: &TrialOutcome, b: &TrialOutcome) -> bool {
        a.trial == b.trial
            && a.solver_ok == b.solver_ok
            && a.margin_ratio.to_bits() == b.margin_ratio.to_bits()
            && a.i_on_min_a.to_bits() == b.i_on_min_a.to_bits()
            && a.i_off_max_a.to_bits() == b.i_off_max_a.to_bits()
            && a.warm_iters == b.warm_iters
            && a.shmoo_pass == b.shmoo_pass
            && a.disturb_dp.to_bits() == b.disturb_dp.to_bits()
            && a.worst_col == b.worst_col
            && a.worst_vt0_v.to_bits() == b.worst_vt0_v.to_bits()
            && a.worst_t_fe_m.to_bits() == b.worst_t_fe_m.to_bits()
    }

    #[test]
    fn nominal_bootstrap_separates_the_stored_states() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        assert!(engine.bootstrap_iters() > 0);
        assert!(
            engine.nominal_margin() > 1.0,
            "nominal ON/OFF margin must separate: {}",
            engine.nominal_margin()
        );
    }

    #[test]
    fn serial_and_pooled_runs_are_bit_identical() {
        let cell = FefetCell::default();
        let serial =
            YieldEngine::new(cell, small_spec(), Instrumentation::off()).expect("serial engine");
        let pooled_spec = YieldSpec {
            threads: 4,
            batch: 3, // uneven batches exercise the fold boundaries
            ..small_spec()
        };
        let pooled =
            YieldEngine::new(cell, pooled_spec, Instrumentation::off()).expect("pooled engine");
        // Trial-level identity first: sharper diagnostics than the
        // aggregate comparison when something drifts.
        let mut s1 = serial.make_scratch();
        let mut s2 = pooled.make_scratch();
        for t in 0..serial.spec().n_trials {
            let a = serial.run_trial(&mut s1, t);
            let b = pooled.run_trial(&mut s2, t);
            assert!(outcomes_equal(&a, &b), "trial {t} diverged: {a:?} vs {b:?}");
        }
        let ra = serial.run();
        let rb = pooled.run();
        assert_eq!(
            ra.to_run_report(serial.spec()).to_json(),
            rb.to_run_report(&YieldSpec {
                threads: 1, // normalize the meta line; payloads must match
                batch: serial.spec().batch,
                ..pooled.spec().clone()
            })
            .to_json()
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        let mut reused = engine.make_scratch();
        for t in 0..4 {
            let a = engine.run_trial(&mut reused, t);
            let mut fresh = engine.make_scratch();
            let b = engine.run_trial(&mut fresh, t);
            assert!(
                outcomes_equal(&a, &b),
                "trial {t}: reused scratch diverged from fresh"
            );
        }
    }

    #[test]
    fn warm_start_needs_no_more_iterations_than_cold() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        let mut scratch = engine.make_scratch();
        let mut warm_total = 0u64;
        let mut cold_total = 0u64;
        for t in 0..4 {
            let warm = engine.run_trial(&mut scratch, t);
            let cold = engine.run_trial_cold(t);
            assert!(warm.solver_ok && cold.solver_ok);
            warm_total += warm.warm_iters;
            cold_total += cold.warm_iters;
        }
        assert!(
            warm_total < cold_total,
            "warm start must reduce Newton work: warm {warm_total} vs cold {cold_total}"
        );
    }

    #[test]
    fn streaming_matches_naive_reference() {
        let mut rng = Rng::seed_from_u64(7);
        let mut acc = Streaming::new();
        let mut all = Vec::new();
        for _ in 0..1000 {
            let v = rng.normal() * 3.0 + 1.5;
            acc.push(v);
            all.push(v);
        }
        let n = all.len() as f64;
        let mean = all.iter().sum::<f64>() / n;
        let var = all.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = all.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(acc.count(), 1000);
        assert!((acc.mean() - mean).abs() < 1e-12 * mean.abs().max(1.0));
        assert!((acc.variance() - var).abs() < 1e-10 * var.max(1.0));
        assert!((acc.min() - min).abs() < f64::EPSILON);
        assert!((acc.max() - max).abs() < f64::EPSILON);
    }

    #[test]
    fn report_is_valid_self_describing_json() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        let report = engine.run();
        assert_eq!(report.n_trials, 8);
        for y in [report.read_yield, report.write_yield, report.disturb_yield] {
            assert!((0.0..=1.0).contains(&y), "yield fraction out of range: {y}");
        }
        assert_eq!(report.shmoo_pass_counts.len(), 4);
        assert!(report.margin.n + report.solver_failures as u64 == 8);
        let json_text = report.to_run_report(engine.spec()).to_json();
        json::validate(&json_text).expect("yield report must be valid JSON");
        assert!(json_text.contains("\"write_shmoo\""));
        assert!(json_text.contains("\"worst_corner\""));
    }

    /// A trial whose disturb settle fails reports an infinite shift: it
    /// fails the disturb yield but stays out of the shift statistics.
    #[test]
    fn failed_disturb_settles_do_not_poison_the_disturb_stats() {
        let ok = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine")
            .run();
        assert_eq!(ok.disturb.n, 8);
        // A NaN stress makes every settle fail.
        let spec = YieldSpec {
            disturb_v: f64::NAN,
            ..small_spec()
        };
        let engine =
            YieldEngine::new(FefetCell::default(), spec, Instrumentation::off()).expect("engine");
        let report = engine.run();
        assert_eq!(report.disturb_yield, 0.0);
        assert_eq!(report.disturb.n, 0);
        assert!(report.disturb.mean.is_finite() && report.disturb.std.is_finite());
        let json_text = report.to_run_report(engine.spec()).to_json();
        assert!(
            json_text.contains("\"disturb_dp\": {\"n\":0,\"mean\":0e0,\"std\":0e0,"),
            "{json_text}"
        );
    }

    #[test]
    fn spec_validation_rejects_oversized_shmoo_grids() {
        let bad = YieldSpec {
            shmoo_nv: 9,
            shmoo_nt: 9,
            ..small_spec()
        };
        assert!(YieldEngine::new(FefetCell::default(), bad, Instrumentation::off()).is_err());
        let empty = YieldSpec {
            n_trials: 0,
            ..small_spec()
        };
        assert!(YieldEngine::new(FefetCell::default(), empty, Instrumentation::off()).is_err());
    }

    #[test]
    fn shared_cache_performs_one_symbolic_analysis_across_trials() {
        let instr = Instrumentation::enabled();
        let engine =
            YieldEngine::new(FefetCell::default(), small_spec(), instr.clone()).expect("engine");
        let mut scratch = engine.make_scratch();
        for t in 0..4 {
            engine.run_trial(&mut scratch, t);
        }
        // A second worker workspace joins the same cache.
        let mut scratch2 = engine.make_scratch();
        engine.run_trial(&mut scratch2, 0);
        let tel = instr.get().expect("telemetry");
        assert_eq!(
            tel.solver.sparse_symbolic_analyses.get(),
            1,
            "all trials must share one symbolic analysis"
        );
        assert!(
            tel.solver.analysis_cache_hits.get() >= 1,
            "later workspaces must hit the shared analysis cache"
        );
    }
}
