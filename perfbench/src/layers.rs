//! Per-layer measurement for the traced run: snapshots of the counters
//! and latency histograms `fefet-telemetry` already records, timings of
//! the benchmark's own calls into the `ckt` layer's public functions,
//! and the one function that turns them into per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

use fefet_ckt::engine::Assembly;
use fefet_ckt::CktError;
use fefet_mem::array::FefetArray;
use fefet_telemetry::{Instrumentation, Telemetry};

use crate::report::Metrics;
use crate::stats::median;

/// Trace-event ring slots per lane. Attaching the recorder is what
/// turns on the latency histograms; the events themselves are not
/// exported, so a small ring bounds the recorder's memory.
const TRACE_EVENTS_PER_LANE: usize = 1024;

/// Counters and histogram sums read from one telemetry aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    pub solves: u64,
    pub newton_iters: f64,
    pub jacobian_reuses: u64,
    pub sparse_refactors: u64,
    pub bbd_refactors: u64,
    pub back_substitutions: u64,
    pub symbolic_analyses: u64,
    pub analysis_cache_hits: u64,
    pub bypass_hits: u64,
    pub bypass_misses: u64,
    pub steps_accepted: u64,
    pub steps_rejected: u64,
    /// Sum of accepted transient step wall times (ns).
    pub step_ns: f64,
    /// Sum of Newton point-solve wall times (ns).
    pub solve_ns: f64,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    pub pool_busy_ns: u64,
}

impl Snapshot {
    /// Reads the current totals of `instr` (all zero when it is off).
    pub fn take(instr: &Instrumentation) -> Snapshot {
        let Some(t) = instr.get() else {
            return Snapshot::default();
        };
        let (mut tasks, mut steals, mut busy) = (0, 0, 0);
        for w in &t.pool.workers {
            tasks += w.tasks.get();
            steals += w.steals.get();
            busy += w.busy_ns.get();
        }
        let s = &t.solver;
        Snapshot {
            solves: s.solves.get(),
            newton_iters: s.newton_iterations.sum(),
            jacobian_reuses: s.jacobian_reuses.get(),
            sparse_refactors: s.sparse_refactors.get(),
            bbd_refactors: s.bbd_refactors.get(),
            back_substitutions: s.back_substitutions.get(),
            // The BBD path records no analysis count, only the largest
            // number of block-pattern classes; count it as one analysis.
            symbolic_analyses: s.sparse_symbolic_analyses.get()
                + u64::from(s.bbd_pattern_classes.get() > 0),
            analysis_cache_hits: s.analysis_cache_hits.get(),
            bypass_hits: s.bypass_hits.get(),
            bypass_misses: s.bypass_misses.get(),
            steps_accepted: t.steps.accepted.get(),
            steps_rejected: t.steps.rejected_newton.get() + t.steps.rejected_lte.get(),
            step_ns: t.latency.transient_step_ns.sum(),
            solve_ns: t.latency.solve_ns.sum(),
            pool_tasks: tasks,
            pool_steals: steals,
            pool_busy_ns: busy,
        }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            solves: self.solves - earlier.solves,
            newton_iters: self.newton_iters - earlier.newton_iters,
            jacobian_reuses: self.jacobian_reuses - earlier.jacobian_reuses,
            sparse_refactors: self.sparse_refactors - earlier.sparse_refactors,
            bbd_refactors: self.bbd_refactors - earlier.bbd_refactors,
            back_substitutions: self.back_substitutions - earlier.back_substitutions,
            symbolic_analyses: self.symbolic_analyses - earlier.symbolic_analyses,
            analysis_cache_hits: self.analysis_cache_hits - earlier.analysis_cache_hits,
            bypass_hits: self.bypass_hits - earlier.bypass_hits,
            bypass_misses: self.bypass_misses - earlier.bypass_misses,
            steps_accepted: self.steps_accepted - earlier.steps_accepted,
            steps_rejected: self.steps_rejected - earlier.steps_rejected,
            step_ns: self.step_ns - earlier.step_ns,
            solve_ns: self.solve_ns - earlier.solve_ns,
            pool_tasks: self.pool_tasks - earlier.pool_tasks,
            pool_steals: self.pool_steals - earlier.pool_steals,
            pool_busy_ns: self.pool_busy_ns - earlier.pool_busy_ns,
        }
    }

    /// Accepted transient step time (s).
    pub fn step_s(&self) -> f64 {
        self.step_ns * 1e-9
    }
}

/// Counters on, with a trace recorder attached so that the per-solve
/// and per-step latency histograms record too.
pub fn traced_instrumentation() -> Instrumentation {
    let instr = Instrumentation::enabled();
    if let Some(t) = instr.get() {
        t.attach_trace(TRACE_EVENTS_PER_LANE);
    }
    instr
}

/// p99 of the Newton point-solve latency histogram (s), 0 when empty.
pub fn solve_p99_s(instr: &Instrumentation) -> f64 {
    instr
        .get()
        .and_then(|t: &Telemetry| t.latency.solve_ns.p99())
        .map_or(0.0, |ns| ns * 1e-9)
}

/// Timings of the `ckt`-layer calls a row op makes before it solves:
/// netlist build (`read_circuit`), block plan (`block_plan`) and MNA
/// bookkeeping (`Assembly::new`). The benchmark makes these calls
/// itself, the way the op does, outside the timed op.
#[derive(Debug, Default)]
pub struct CktProbe {
    pub netlist_s: Vec<f64>,
    pub plan_s: Vec<f64>,
    pub assembly_s: Vec<f64>,
}

impl CktProbe {
    /// Times one build of `array`'s read circuit for `row`. A write
    /// builds a circuit of the same node and element structure with
    /// other waveforms, so this stands for writes too.
    pub fn time(&mut self, array: &FefetArray, row: usize, t_read_s: f64) -> Result<(), CktError> {
        let t0 = Instant::now();
        let c = array.read_circuit(row, t_read_s)?;
        let t1 = Instant::now();
        let plan = array.block_plan(&c)?;
        let t2 = Instant::now();
        let asm = Assembly::new(&c);
        let t3 = Instant::now();
        black_box((&c, &plan, &asm));
        self.netlist_s.push((t1 - t0).as_secs_f64());
        self.plan_s.push((t2 - t1).as_secs_f64());
        self.assembly_s.push((t3 - t2).as_secs_f64());
        Ok(())
    }

    /// Total time of every probed call (s).
    pub fn total_s(&self) -> f64 {
        self.netlist_s
            .iter()
            .chain(&self.plan_s)
            .chain(&self.assembly_s)
            .sum()
    }
}

/// Serving-layer figures of a traced `serve_mixed` run.
#[derive(Debug)]
pub struct ServingLayer {
    pub fast_window_p50_s: f64,
    pub escalations: u64,
    pub row_ops: u64,
    pub coalesced: u64,
    pub calibrate_s: f64,
    pub bank_build_s: f64,
}

/// Yield-engine figures of a traced `yield_mc` run.
#[derive(Debug)]
pub struct YieldLayer {
    pub new_s: f64,
    pub trial_p50_s: f64,
    pub warm_iters_mean: f64,
}

/// Everything a traced run measured, per layer.
#[derive(Debug)]
pub struct LayerRun {
    /// Telemetry recorded during the measured phase.
    pub measured: Snapshot,
    /// Symbolic analyses over set-up and measured phase together (they
    /// happen in set-up, which is what they cost).
    pub symbolic_analyses_total: u64,
    pub probe: CktProbe,
    /// Wall time of the timed calls that ran circuit array ops (s).
    pub array_op_wall_s: f64,
    /// Wall time of the measured phase, traced (s).
    pub traced_wall_s: f64,
    /// Wall time of the same work with instrumentation off (s).
    pub untraced_wall_s: f64,
    /// Pool participants (for the busy fraction).
    pub threads: usize,
    pub solve_p99_s: f64,
    pub serving: Option<ServingLayer>,
    pub yield_engine: Option<YieldLayer>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl LayerRun {
    /// Adds every per-layer metric. Layers a workload does not exercise
    /// report zero counts; their time metrics appear in the table only.
    pub fn add_metrics(&self, m: &mut Metrics) {
        let d = &self.measured;
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let n_probe = self.probe.netlist_s.len();
        m.add_key("ckt.netlist_build_s", med(&self.probe.netlist_s), "s")
            .note = format!("median of {n_probe} builds");
        m.add_key("ckt.block_plan_s", med(&self.probe.plan_s), "s")
            .note = format!("median of {n_probe} builds");
        m.add_key("ckt.assembly_s", med(&self.probe.assembly_s), "s")
            .note = format!("median of {n_probe} builds");

        m.add_key(
            "ckt.transient.steps_accepted",
            d.steps_accepted as f64,
            "count",
        );
        m.add_key(
            "ckt.transient.steps_rejected",
            d.steps_rejected as f64,
            "count",
        );
        m.add("ckt.transient.step_s_sum", d.step_s(), "s");

        m.add_key("ckt.engine.solves", d.solves as f64, "count");
        m.add_key("ckt.engine.newton_iters", d.newton_iters, "count");
        m.add_key(
            "ckt.engine.jacobian_reuses",
            d.jacobian_reuses as f64,
            "count",
        );
        m.add_key("ckt.engine.solve_s_sum", d.solve_ns * 1e-9, "s");
        m.add("ckt.engine.solve_p99_s", self.solve_p99_s, "s").note =
            "histogram bucket edge, set-up included".to_string();

        m.add_key(
            "numerics.sparse_refactors",
            d.sparse_refactors as f64,
            "count",
        );
        m.add_key("numerics.bbd_refactors", d.bbd_refactors as f64, "count");
        m.add_key(
            "numerics.back_substitutions",
            d.back_substitutions as f64,
            "count",
        );
        m.add_key(
            "numerics.symbolic_analyses",
            self.symbolic_analyses_total as f64,
            "count",
        )
        .note = "set-up included; BBD counts at most one".to_string();
        m.add_key(
            "numerics.analysis_cache_hits",
            d.analysis_cache_hits as f64,
            "count",
        );

        m.add_key("device.bypass_hits", d.bypass_hits as f64, "count");
        m.add_key("device.bypass_misses", d.bypass_misses as f64, "count");
        m.add_key(
            "device.bypass_hit_frac",
            ratio(
                d.bypass_hits as f64,
                (d.bypass_hits + d.bypass_misses) as f64,
            ),
            "ratio",
        );

        let non_step_s = (self.array_op_wall_s - d.step_s()).max(0.0);
        m.add("core.array.non_step_s", non_step_s, "s");
        m.add_key(
            "core.array.non_step_frac",
            ratio(non_step_s, self.array_op_wall_s),
            "ratio",
        );

        let sv = self.serving.as_ref();
        if let Some(s) = sv {
            m.add("core.serving.fast_window_p50_s", s.fast_window_p50_s, "s");
            m.add("core.serving.calibrate_s", s.calibrate_s, "s");
            m.add("core.macro_model.bank_build_s", s.bank_build_s, "s");
        }
        let esc = sv.map_or(0, |s| s.escalations);
        m.add_key("core.serving.escalations", esc as f64, "count");
        m.add_key(
            "core.serving.escalation_frac",
            sv.map_or(0.0, |s| ratio(s.escalations as f64, s.row_ops as f64)),
            "ratio",
        )
        .note = "escalated row ops over row ops".to_string();
        m.add_key(
            "core.serving.coalesced",
            sv.map_or(0, |s| s.coalesced) as f64,
            "count",
        );

        let yl = self.yield_engine.as_ref();
        if let Some(y) = yl {
            m.add("core.yield_engine.new_s", y.new_s, "s");
            m.add("core.yield_engine.trial_p50_s", y.trial_p50_s, "s");
        }
        m.add_key(
            "core.yield_engine.warm_iters_mean",
            yl.map_or(0.0, |y| y.warm_iters_mean),
            "count",
        );

        m.add_key("ckt.parallel.tasks", d.pool_tasks as f64, "count");
        m.add_key("ckt.parallel.steals", d.pool_steals as f64, "count");
        m.add_key(
            "ckt.parallel.busy_frac",
            ratio(
                d.pool_busy_ns as f64 * 1e-9,
                self.threads as f64 * self.traced_wall_s,
            ),
            "ratio",
        )
        .note = format!("{} threads", self.threads);

        m.add_key(
            "telemetry.overhead_frac",
            ratio(self.traced_wall_s, self.untraced_wall_s) - 1.0,
            "ratio",
        )
        .note = format!(
            "traced {:.4} s over untraced {:.4} s",
            self.traced_wall_s, self.untraced_wall_s
        );
    }
}
