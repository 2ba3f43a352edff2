//! `yield_mc`: a Monte Carlo yield study on a 16×16 array (688 MNA
//! unknowns, so the engine runs its sparse backend) with one pool worker
//! per hardware thread. Trials are warm point solves re-parameterized in
//! place: no transient and no per-op netlist build.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use fefet_ckt::CktError;
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_mem::yield_engine::{YieldEngine, YieldReport, YieldSpec};
use fefet_telemetry::Instrumentation;

use crate::gen::{stream, SplitMix64};
use crate::layers::{self, CktProbe, LayerRun, Snapshot, YieldLayer};
use crate::reference::{Fingerprint, Value};
use crate::stats::median;
use crate::{hardware_threads, peak_rss_mib, Args, RunOutput};

/// Array organization.
pub const ROWS: usize = 16;
pub const COLS: usize = 16;
/// Trials per second of `--seconds` (the work is fixed by the seconds
/// so that a seed's counts are fixed too).
pub const TRIALS_PER_SECOND: usize = 200;
/// Set-ups per thread in the untraced run; `setup_s` is the median over
/// every thread's. A set-up takes milliseconds, so many are cheap.
const SETUP_REPEATS: usize = 12;
/// Studies per untraced run, all on the one engine; `ops_per_s` comes
/// from their median wall time. The pool hands out trials in chunks and
/// waits for the last chunk of every batch, so one study's wall time
/// varies more from run to run than the trials' own times do.
const STUDIES: usize = 2;
/// Builds of the array's read circuit probed in the traced run.
const PROBE_BUILDS: usize = 5;
/// Read window of the engine's array circuit (s).
const T_READ_S: f64 = 3e-9;

/// Trials for a run of `seconds`.
pub fn n_trials(seconds: f64) -> usize {
    ((TRIALS_PER_SECOND as f64 * seconds).ceil() as usize).max(1)
}

fn spec(seed: u64, n_trials: usize) -> YieldSpec {
    YieldSpec {
        rows: ROWS,
        cols: COLS,
        n_trials,
        seed: SplitMix64::new(seed, stream::PROGRAM_SEED).next_u64(),
        threads: 0,
        ..YieldSpec::default()
    }
}

fn setup(spec: &YieldSpec, instr: &Instrumentation) -> Result<(YieldEngine, f64), CktError> {
    let t0 = Instant::now();
    let engine = YieldEngine::new(FefetCell::default(), spec.clone(), instr.clone())?;
    Ok((engine, t0.elapsed().as_secs_f64()))
}

/// `SETUP_REPEATS` set-ups on each of one thread per hardware thread,
/// all at once, each dropped before its thread builds the next. Set up
/// on one thread while the others idle, the time swung with the load of
/// other tenants on a shared host much as lone trials did (see
/// [`trial_times`]). Returns one engine and every set-up time.
fn set_ups(spec: &YieldSpec) -> Result<(YieldEngine, Vec<f64>), CktError> {
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = (0..hardware_threads())
            .map(|_| {
                s.spawn(|| -> Result<(YieldEngine, Vec<f64>), CktError> {
                    let off = Instrumentation::off();
                    let mut times = Vec::with_capacity(SETUP_REPEATS);
                    let mut engine = None;
                    for _ in 0..SETUP_REPEATS {
                        drop(engine.take());
                        let (e, t) = setup(spec, &off)?;
                        times.push(t);
                        engine = Some(e);
                    }
                    Ok((engine.expect("at least one set-up"), times))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("set-up thread panicked"))
            .collect::<Vec<_>>()
    });
    let (mut engine, mut times) = (None, Vec::new());
    for result in results {
        let (e, t) = result?;
        times.extend(t);
        engine.get_or_insert(e);
    }
    Ok((engine.expect("at least one thread"), times))
}

/// Times `trials` of the study again, one `run_trial` call at a time,
/// on one thread per hardware thread (the study's parallelism), each
/// with its own reused scratch; thread `t` takes every `threads`-th
/// trial from the `t`-th on. The median of these times is the per-trial
/// latency. With every hardware thread busy, as in the study, the
/// figure moves less with the load of other tenants on a shared host
/// than trials timed on one thread while the others idle.
fn trial_times(engine: &YieldEngine, trials: Range<usize>) -> Vec<f64> {
    let threads = hardware_threads().min(trials.len()).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let trials = trials.clone();
                s.spawn(move || {
                    let mut scratch = engine.make_scratch();
                    trials
                        .skip(t)
                        .step_by(threads)
                        .map(|i| {
                            let t0 = Instant::now();
                            black_box(engine.run_trial(&mut scratch, i));
                            t0.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("trial timing thread panicked"))
            .collect()
    })
}

/// Pass counts of a report, recovered from its yields.
fn passes(r: &YieldReport, yield_frac: f64) -> u64 {
    (yield_frac * r.n_trials as f64).round() as u64
}

fn check(args: &Args, n: usize, r: &YieldReport, problems: &mut Vec<String>) -> Fingerprint {
    if r.n_trials != n {
        problems.push(format!("report covers {} of {n} trials", r.n_trials));
    }
    let clean = (n - r.solver_failures.min(n)) as u64;
    if r.margin.n != clean {
        problems.push(format!(
            "margin statistics hold {} trials, {clean} were solver-clean",
            r.margin.n
        ));
    }
    for (what, y) in [
        ("read", r.read_yield),
        ("write", r.write_yield),
        ("disturb", r.disturb_yield),
    ] {
        if !(0.0..=1.0).contains(&y) {
            problems.push(format!("{what} yield {y} is outside [0, 1]"));
        }
    }
    Fingerprint {
        workload: "yield_mc",
        seed: args.seed,
        size: n as u64,
        fields: vec![
            ("failures", Value::Exact(r.solver_failures as u64)),
            ("read_pass", Value::Exact(passes(r, r.read_yield))),
            ("write_pass", Value::Exact(passes(r, r.write_yield))),
            ("disturb_pass", Value::Exact(passes(r, r.disturb_yield))),
            ("margin_mean", Value::Approx(r.margin.mean)),
        ],
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<RunOutput, CktError> {
    let n = n_trials(args.seconds);
    let spec = spec(args.seed, n);
    let (engine, setups) = set_ups(&spec)?;
    let mut out = RunOutput::default();
    let mut walls = Vec::with_capacity(STUDIES);
    let mut trial_s = Vec::new();
    let mut first: Option<(YieldReport, Fingerprint)> = None;
    // Each study is followed by the timing of its share of the first
    // half of the trials, so that both metrics sample the whole run.
    let timed = n.div_ceil(2);
    for k in 0..STUDIES {
        let t0 = Instant::now();
        let report = engine.run();
        walls.push(t0.elapsed().as_secs_f64());
        let fingerprint = check(args, n, &report, &mut out.problems);
        match &first {
            None => first = Some((report, fingerprint)),
            // The engine is deterministic: every study reports the same.
            Some((_, f)) if f.line() != fingerprint.line() => out
                .problems
                .push(format!("study {k} reported other results than study 0")),
            Some(_) => {}
        }
        trial_s.extend(trial_times(
            &engine,
            k * timed / STUDIES..(k + 1) * timed / STUDIES,
        ));
    }
    let (report, fingerprint) = first.expect("at least one study");
    let wall_s = median(&walls).unwrap_or(f64::NAN);

    let m = &mut out.metrics;
    m.add_key("setup_s", median(&setups).unwrap_or(0.0), "s")
        .note = format!(
        "median of {}: YieldEngine::new, {SETUP_REPEATS} on each of {} threads",
        setups.len(),
        hardware_threads()
    );
    m.add_key("peak_rss_mib", peak_rss_mib(), "MiB");
    m.add(
        "failed_frac",
        report.solver_failures as f64 / n as f64,
        "ratio",
    )
    .note = format!("{} solver failures in {n} trials", report.solver_failures);
    m.add_keyed("trials_per_s", "ops_per_s", n as f64 / wall_s, "1/s")
        .note = format!(
        "{n} trials on {} threads; median of {STUDIES} studies",
        hardware_threads()
    );
    m.add_keyed(
        "trial_p50_s",
        "latency_s",
        median(&trial_s).unwrap_or(0.0),
        "s",
    )
    .note = format!(
        "median of {} run_trial calls on {} threads",
        trial_s.len(),
        hardware_threads()
    );
    m.add("yield_run_s", wall_s, "s").note =
        format!("time to the yield report, median of {:.3?} s", walls);
    out.attempted = n as u64;
    out.fingerprint = Some(fingerprint);
    Ok(out)
}

/// The traced run: the study untraced, traced and untraced again, each
/// on a fresh engine (the traced one is compared with the mean of the
/// two untraced ones, so that a steady drift in machine speed cancels),
/// plus the trials timed one by one and the array build probed.
pub fn run_traced(args: &Args) -> Result<RunOutput, CktError> {
    let n = n_trials(args.seconds);
    let spec = spec(args.seed, n);
    let untraced_run = || -> Result<f64, CktError> {
        let (plain, _) = setup(&spec, &Instrumentation::off())?;
        let t0 = Instant::now();
        black_box(plain.run());
        Ok(t0.elapsed().as_secs_f64())
    };
    let before_s = untraced_run()?;
    let instr = layers::traced_instrumentation();
    let (engine, new_s) = setup(&spec, &instr)?;
    let after_setup = Snapshot::take(&instr);
    let t0 = Instant::now();
    let report = engine.run();
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let end = Snapshot::take(&instr);
    let untraced_wall_s = 0.5 * (before_s + untraced_run()?);

    let trial_s = trial_times(&engine, 0..n.div_ceil(2));
    // The engine builds its array circuit once, in `new`; probe that
    // build the way `new` makes it.
    let array = FefetArray::new(ROWS, COLS, FefetCell::default());
    let mut probe = CktProbe::default();
    for _ in 0..PROBE_BUILDS {
        probe.time(&array, 0, T_READ_S)?;
    }

    let mut out = RunOutput::default();
    let fingerprint = check(args, n, &report, &mut out.problems);
    let layer = LayerRun {
        measured: end.since(&after_setup),
        symbolic_analyses_total: end.symbolic_analyses,
        probe,
        array_op_wall_s: 0.0,
        traced_wall_s,
        untraced_wall_s,
        threads: hardware_threads(),
        solve_p99_s: layers::solve_p99_s(&instr),
        serving: None,
        yield_engine: Some(YieldLayer {
            new_s,
            trial_p50_s: median(&trial_s).unwrap_or(0.0),
            warm_iters_mean: report.warm_iters.mean,
        }),
    };
    layer.add_metrics(&mut out.metrics);
    out.attempted = n as u64;
    out.fingerprint = Some(fingerprint);
    Ok(out)
}
