//! `array_rows`: circuit-level row writes and reads on a 64×64 FEFET
//! array (8896 MNA unknowns, so the engine runs its BBD backend).
//!
//! Closed loops alternate `write_row(r, pattern)` and `read_row(r)` over
//! rows visited in a seeded order, a number of pairs fixed by the run's
//! seconds (see [`pairs`]). Every read must return the pattern just
//! written. The untraced run has [`CALLERS`] callers, one thread and one
//! array each; the traced run has one.

use std::hint::black_box;
use std::time::Instant;

use fefet_ckt::CktError;
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_telemetry::Instrumentation;

use crate::gen::{stream, SplitMix64};
use crate::layers::{self, CktProbe, LayerRun, Snapshot};
use crate::stats::median;
use crate::{hardware_threads, peak_rss_mib, Args, RunOutput};

/// Array rows.
pub const ROWS: usize = 64;
/// Array columns.
pub const COLS: usize = 64;
/// Read window (s).
pub const T_READ_S: f64 = 3e-9;
/// Write pulse width (s).
pub const T_WRITE_S: f64 = 1e-9;
/// Set-ups per caller in the untraced run; `setup_s` is the median of
/// all callers' set-ups.
const SETUP_REPEATS: usize = 3;
/// Write/read pairs each caller makes at least, whatever the run length.
pub const MIN_PAIRS: usize = 3;
/// Seconds of `--seconds` per write/read pair of each caller.
pub const SECONDS_PER_PAIR: f64 = 2.0;
/// Callers of the untraced run (at most one per hardware thread), each
/// on its own thread, setting up and then driving its own array. An op
/// takes about 2.5 s, so a run holds few of them; two callers double
/// the ops the medians rest on, and keep every hardware thread busy,
/// whose speed on a shared host moved less with the load of other
/// tenants than a lone thread's did.
pub const CALLERS: usize = 2;

/// The seeded inputs: row visiting order and one pattern per pair.
struct Inputs {
    order: Vec<usize>,
    patterns: SplitMix64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Inputs {
            order: SplitMix64::new(seed, stream::ROW_ORDER).permutation(ROWS),
            patterns: SplitMix64::new(seed, stream::ROW_PATTERN),
        }
    }

    /// Row and data of pair `k`: the row is the `k`-th of the visiting
    /// order, the data the `k`-th draw of the pattern stream.
    fn pair(&self, k: usize) -> (usize, Vec<bool>) {
        let mut g = self.patterns.clone();
        for _ in 0..k {
            g.next_u64();
        }
        let bits = g.next_u64();
        let data = (0..COLS).map(|j| (bits >> j) & 1 == 1).collect();
        (self.order[k % ROWS], data)
    }
}

/// A fresh array plus its cold read (the read fills the array's
/// analysis cache). Returns the array and the set-up time (s).
fn setup(seed: u64, instr: &Instrumentation) -> Result<(FefetArray, f64), CktError> {
    let t0 = Instant::now();
    let mut array = FefetArray::new(ROWS, COLS, FefetCell::default());
    array.instr = instr.clone();
    black_box(array.read_row(Inputs::new(seed).order[0], T_READ_S)?);
    Ok((array, t0.elapsed().as_secs_f64()))
}

/// What a sequence of write/read pairs observed.
#[derive(Default)]
struct Loop {
    pairs: usize,
    write_s: Vec<f64>,
    read_s: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
}

impl Loop {
    /// Writes `data` to `row` of `array`, reads it back, times both ops
    /// and checks the read. With a probe, first times the `ckt` calls
    /// the two ops make.
    fn pair(
        &mut self,
        array: &mut FefetArray,
        row: usize,
        data: &[bool],
        probe: Option<&mut CktProbe>,
    ) -> Result<(), CktError> {
        self.pairs += 1;
        if let Some(p) = probe {
            // Once for the write's netlist and once for the read's.
            p.time(array, row, T_READ_S)?;
            p.time(array, row, T_READ_S)?;
        }
        let t0 = Instant::now();
        let written = array.write_row(row, data, T_WRITE_S);
        self.write_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = written {
            self.failed += 1;
            self.problems.push(format!("write_row({row}) failed: {e}"));
            return Ok(());
        }
        let t0 = Instant::now();
        let read = array.read_row(row, T_READ_S);
        self.read_s.push(t0.elapsed().as_secs_f64());
        match read {
            Ok(r) if r.bits == data => {}
            Ok(r) => {
                let wrong = r.bits.iter().zip(data).filter(|(a, b)| a != b).count();
                self.problems.push(format!(
                    "read_row({row}) returned {wrong} bits that differ from the written pattern"
                ));
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("read_row({row}) failed: {e}"));
            }
        }
        Ok(())
    }

    fn ops(&self) -> u64 {
        (self.write_s.len() + self.read_s.len()) as u64
    }

    fn op_wall_s(&self) -> f64 {
        self.write_s.iter().chain(&self.read_s).sum()
    }

    /// Adds another caller's observations to these.
    fn merge(&mut self, other: Loop) {
        self.pairs += other.pairs;
        self.write_s.extend(other.write_s);
        self.read_s.extend(other.read_s);
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// One caller's set-ups: `SETUP_REPEATS` arrays built one after another,
/// each dropped before the next is built (so that the peak resident set
/// holds one per caller). Returns the last array and every set-up time.
fn set_up_caller(seed: u64) -> Result<(FefetArray, Vec<f64>), CktError> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut array = None;
    for _ in 0..SETUP_REPEATS {
        drop(array.take());
        let (a, s) = setup(seed, &Instrumentation::off())?;
        times.push(s);
        array = Some(a);
    }
    Ok((array.expect("at least one set-up"), times))
}

/// Write/read pairs per caller in a run of `seconds`. The work is fixed,
/// not time-boxed: a time box ends on whole pairs of about 5 s, which
/// left the op counts and the callers' finishing times to chance.
pub fn pairs(seconds: f64) -> usize {
    ((seconds / SECONDS_PER_PAIR).ceil() as usize).max(MIN_PAIRS)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<RunOutput, CktError> {
    let inputs = Inputs::new(args.seed);
    let callers = CALLERS.min(hardware_threads()).max(1);
    // All callers set up at once, then all loop at once (two phases, so
    // that a failed set-up cannot leave a caller waiting for the other).
    let set_up = std::thread::scope(|s| {
        let workers: Vec<_> = (0..callers)
            .map(|_| s.spawn(|| set_up_caller(args.seed)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("array set-up thread panicked"))
            .collect::<Vec<_>>()
    });
    let (mut arrays, mut setup_s) = (Vec::with_capacity(callers), Vec::new());
    for caller in set_up {
        let (array, times) = caller?;
        arrays.push(array);
        setup_s.extend(times);
    }
    // Every caller makes the same pairs on its own array. Their ops then
    // run side by side with equal work, so that the peak resident set
    // reliably holds one op's trace per caller: callers making different
    // pairs finished ops at different times, and the peak moved by 15%
    // from run to run. Each caller's rate is its ops over its own loop
    // time, so that a caller waiting for the other's last op does not
    // count as idle throughput.
    let start = Instant::now();
    let loops = std::thread::scope(|s| {
        let workers: Vec<_> = arrays
            .iter_mut()
            .map(|array| {
                let inputs = &inputs;
                s.spawn(move || -> Result<(Loop, f64), CktError> {
                    let mut own = Loop::default();
                    for j in 0..pairs(args.seconds) {
                        let (row, data) = inputs.pair(j);
                        own.pair(array, row, &data, None)?;
                    }
                    Ok((own, start.elapsed().as_secs_f64()))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("array caller thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut lp, mut ops_per_s) = (Loop::default(), 0.0);
    for caller in loops {
        let (own, own_wall_s) = caller?;
        ops_per_s += own.ops() as f64 / own_wall_s;
        lp.merge(own);
    }

    let mut out = RunOutput::default();
    let ops = lp.ops();
    let m = &mut out.metrics;
    m.add_key("setup_s", median(&setup_s).unwrap_or(0.0), "s")
        .note = format!(
        "median of {}: new + cold read_row, {SETUP_REPEATS} by each caller",
        setup_s.len()
    );
    m.add_key("peak_rss_mib", peak_rss_mib(), "MiB");
    m.add("failed_frac", lp.failed as f64 / ops.max(1) as f64, "ratio");
    m.add_keyed("row_ops_per_s", "ops_per_s", ops_per_s, "1/s")
        .note = format!("{ops} row ops in {wall_s:.3} s by {callers} callers, rates summed");
    let all_ops: Vec<f64> = lp.write_s.iter().chain(&lp.read_s).copied().collect();
    m.add_keyed(
        "row_op_p50_s",
        "latency_s",
        median(&all_ops).unwrap_or(0.0),
        "s",
    )
    .note = format!("{ops} row ops");
    m.add("read_row_p50_s", median(&lp.read_s).unwrap_or(0.0), "s")
        .note = format!("{} reads", lp.read_s.len());
    m.add("write_row_p50_s", median(&lp.write_s).unwrap_or(0.0), "s")
        .note = format!("{} writes", lp.write_s.len());
    out.attempted = ops;
    out.failed = lp.failed;
    out.problems = lp.problems;
    Ok(out)
}

/// The traced run: an untraced and a traced array, set up alike, take
/// the same pairs in alternation (so that drift in machine speed falls
/// on both), with the traced array's `ckt` calls probed per op.
pub fn run_traced(args: &Args) -> Result<RunOutput, CktError> {
    let (mut plain, _) = setup(args.seed, &Instrumentation::off())?;
    let instr = layers::traced_instrumentation();
    let (mut array, _) = setup(args.seed, &instr)?;
    let after_setup = Snapshot::take(&instr);
    let inputs = Inputs::new(args.seed);
    let (mut base, mut lp, mut probe) = (Loop::default(), Loop::default(), CktProbe::default());
    for k in 0..pairs(args.seconds) {
        let (row, data) = inputs.pair(k);
        base.pair(&mut plain, row, &data, None)?;
        lp.pair(&mut array, row, &data, Some(&mut probe))?;
    }
    let end = Snapshot::take(&instr);
    let measured = end.since(&after_setup);

    let mut out = RunOutput::default();
    // Reconciliation: the probed calls stand for work inside the ops,
    // and step time is recorded inside them, so together they cannot
    // exceed the ops' wall time without double counting.
    let op_wall = lp.op_wall_s();
    let attributed = probe.total_s() + measured.step_s();
    println!(
        "reconciliation: ckt calls {:.4} s + transient steps {:.4} s = {:.4} s of {:.4} s op wall time",
        probe.total_s(),
        measured.step_s(),
        attributed,
        op_wall
    );
    if attributed > op_wall {
        out.problems.push(format!(
            "layer times {attributed:.4} s exceed the op wall time {op_wall:.4} s: double counting"
        ));
    }
    let layer = LayerRun {
        measured,
        symbolic_analyses_total: end.symbolic_analyses,
        probe,
        array_op_wall_s: op_wall,
        traced_wall_s: op_wall,
        untraced_wall_s: base.op_wall_s(),
        threads: 1,
        solve_p99_s: layers::solve_p99_s(&instr),
        serving: None,
        yield_engine: None,
    };
    layer.add_metrics(&mut out.metrics);
    out.attempted = lp.ops() + base.ops();
    out.failed = lp.failed + base.failed;
    out.problems.extend(base.problems);
    out.problems.extend(lp.problems);
    Ok(out)
}
