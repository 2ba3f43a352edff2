//! `serve_mixed`: a `MemoryService` with a 32×32 FEFET bank (2400 MNA
//! unknowns, BBD backend) and a 16×16 FERAM bank serving a seeded
//! read/write/persist stream, one batching window per `serve` call, on
//! one thread.
//!
//! Escalation comes from the disturb threshold alone (`force_escalate`
//! stays false), and the stream makes it steady. Each bank's lower half
//! of rows takes the random reads, writes and persists; its upper half
//! is a read-mostly table that a periodic scrub reads round-robin, one
//! row every [`SCRUB_EVERY`] ops. Table rows are never written, so they
//! accumulate every write's disturb stress; once a table row is past
//! the threshold its next scrub read escalates to a circuit read, which
//! resets it. With the threshold below one scrub period's stress, every
//! scrub after the first few escalates: the escalation count follows
//! from the stream length, not from chance.
//!
//! The untraced run has [`CALLERS`] callers, each on its own thread with
//! its own service, serving the whole stream; the traced run has one.

use std::time::Instant;

use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::macro_model::MacroConfig;
use fefet_mem::serving::{
    Bank, Fidelity, MemOp, MemoryService, OpResult, ServeError, ServeSpec, ServeSummary,
};
use fefet_telemetry::Instrumentation;

use crate::gen::{stream, SplitMix64};
use crate::layers::{self, CktProbe, LayerRun, ServingLayer, Snapshot};
use crate::reference::{Fingerprint, Value};
use crate::stats::{median, tail, TAIL_MIN_BEYOND};
use crate::{hardware_threads, peak_rss_mib, Args, RunOutput};

/// FEFET bank organization (bank 0).
pub const FEFET_ROWS: usize = 32;
pub const FEFET_COLS: usize = 32;
/// FERAM bank organization (bank 1).
pub const FERAM_ROWS: usize = 16;
pub const FERAM_COLS: usize = 16;
/// Ops per batching window, and per `serve` call.
pub const WINDOW: usize = 64;
/// Disturb-stress threshold (dimensionless accumulator units).
pub const DISTURB_THRESHOLD: f64 = 0.02;
/// Stress per row write to every other row of the bank.
pub const DISTURB_PER_WRITE: f64 = 1e-4;
/// Every this many ops the stream scrub-reads the next table row.
pub const SCRUB_EVERY: u64 = 500;
/// Stream ops per second of `--seconds`: the work is fixed by the
/// seconds so that a seed's escalations and result words are fixed too.
pub const OPS_PER_SECOND: u64 = 1250;
/// Read window and write pulse of escalated ops (s).
pub const T_READ_S: f64 = 3e-9;
pub const T_WRITE_S: f64 = 1e-9;
/// Set-ups per caller in the untraced run; `setup_s` is the median over
/// every caller's. A set-up is mostly the four circuit reads of the two
/// calibrations, about 1.3 s.
const SETUP_REPEATS: usize = 5;
/// Callers of the untraced run (at most one per hardware thread). On a
/// shared host a lone thread's speed swings with the load of other
/// tenants more than that of two busy threads, and two callers give
/// twice the windows.
pub const CALLERS: usize = 2;

/// (rows, column mask) of each bank, by bank id.
const BANKS: [(u32, u64); 2] = [
    (FEFET_ROWS as u32, (1u64 << FEFET_COLS) - 1),
    (FERAM_ROWS as u32, (1u64 << FERAM_COLS) - 1),
];

/// Stream length for a run of `seconds`, in whole windows.
pub fn stream_len(seconds: f64) -> usize {
    let ops = (OPS_PER_SECOND as f64 * seconds).ceil() as usize;
    ops.div_ceil(WINDOW).max(1) * WINDOW
}

/// The seeded op stream.
pub fn op_stream(seed: u64, n: usize) -> Vec<MemOp> {
    let mut rng = SplitMix64::new(seed, stream::SERVE_OPS);
    let table_rows: Vec<(u32, u32)> = BANKS
        .iter()
        .enumerate()
        .flat_map(|(b, &(rows, _))| (rows / 2..rows).map(move |r| (b as u32, r)))
        .collect();
    let mut scrub = table_rows.iter().cycle();
    (0..n as u64)
        .map(|i| {
            if i % SCRUB_EVERY == SCRUB_EVERY - 1 {
                let &(bank, row) = scrub.next().expect("cycle never ends");
                return MemOp::Read { bank, row };
            }
            let bank = u32::from(rng.below(4) == 0); // a quarter to FERAM
            let (rows, mask) = BANKS[bank as usize];
            let row = rng.below(u64::from(rows / 2)) as u32;
            match rng.below(6) {
                0 | 1 => MemOp::Write {
                    bank,
                    row,
                    word: rng.next_u64() & mask,
                },
                2 => MemOp::Persist { bank, row },
                _ => MemOp::Read { bank, row },
            }
        })
        .collect()
}

fn spec(seed: u64) -> ServeSpec {
    ServeSpec {
        window: WINDOW,
        guard_band_decades: 0.25,
        disturb_threshold: DISTURB_THRESHOLD,
        disturb_per_write: DISTURB_PER_WRITE,
        seed: SplitMix64::new(seed, stream::PROGRAM_SEED).next_u64(),
        threads: 1,
        force_escalate: false,
        t_read_s: T_READ_S,
        t_write_s: T_WRITE_S,
        ..ServeSpec::default()
    }
}

/// Set-up times (s).
#[derive(Debug, Default, Clone, Copy)]
struct Setup {
    total_s: f64,
    bank_build_s: f64,
    calibrate_s: f64,
}

fn setup(seed: u64, instr: &Instrumentation) -> Result<(MemoryService, Setup), ServeError> {
    let t0 = Instant::now();
    let mut svc = MemoryService::new(spec(seed), instr.clone())?;
    let tb = Instant::now();
    let fefet = Bank::fefet(
        MacroConfig::fefet(FEFET_ROWS, FEFET_COLS),
        FefetCell::default(),
    )?;
    let feram = Bank::feram(
        MacroConfig::feram(FERAM_ROWS, FERAM_COLS),
        FeramCell::default(),
    )?;
    let bank_build_s = tb.elapsed().as_secs_f64();
    svc.add_bank(fefet);
    svc.add_bank(feram);
    let tc = Instant::now();
    svc.calibrate_bank(0)?;
    svc.calibrate_bank(1)?;
    let calibrate_s = tc.elapsed().as_secs_f64();
    Ok((
        svc,
        Setup {
            total_s: t0.elapsed().as_secs_f64(),
            bank_build_s,
            calibrate_s,
        },
    ))
}

/// Reference model of the served words at window granularity: within a
/// window, each row's last write commits first and every op of that row
/// then observes the committed word.
struct Model {
    words: Vec<Vec<u64>>,
}

impl Model {
    fn from_service(svc: &MemoryService) -> Model {
        let words = (0..svc.bank_count() as u32)
            .map(|b| {
                let bank = svc.bank(b).expect("bank ids are dense");
                (0..bank.rows()).map(|r| bank.word(r)).collect()
            })
            .collect();
        Model { words }
    }

    /// Checks one window's results; returns a description of the first
    /// mismatch.
    fn check(&mut self, first: usize, ops: &[MemOp], res: &[OpResult]) -> Result<(), String> {
        if res.len() != ops.len() {
            return Err(format!(
                "window at op {first}: {} results for {} ops",
                res.len(),
                ops.len()
            ));
        }
        for op in ops {
            if let MemOp::Write { bank, row, word } = *op {
                self.words[bank as usize][row as usize] = word;
            }
        }
        for (k, (op, r)) in ops.iter().zip(res).enumerate() {
            let want = self.words[op.bank() as usize][op.row() as usize];
            if r.class != op.class() || r.word != want {
                return Err(format!(
                    "op {}: {:?} returned {} word {:#x}, expected {} word {want:#x}",
                    first + k,
                    op,
                    r.class.as_str(),
                    r.word,
                    op.class().as_str()
                ));
            }
        }
        Ok(())
    }
}

/// FNV-1a over result words.
fn fold_words(mut h: u64, res: &[OpResult]) -> u64 {
    for r in res {
        for byte in r.word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A service under test with its model and what serving observed.
struct Server {
    svc: MemoryService,
    model: Model,
    out: Vec<OpResult>,
    window_s: Vec<f64>,
    escalated: Vec<bool>,
    summary: ServeSummary,
    words_hash: u64,
    problems: Vec<String>,
}

impl Server {
    fn new(svc: MemoryService) -> Server {
        Server {
            model: Model::from_service(&svc),
            svc,
            out: Vec::with_capacity(WINDOW),
            window_s: Vec::new(),
            escalated: Vec::new(),
            summary: ServeSummary::default(),
            words_hash: 0xcbf2_9ce4_8422_2325,
            problems: Vec::new(),
        }
    }

    /// Serves window `w` (ops `chunk`) with one timed `serve` call and
    /// checks it. With a probe, then times the `ckt` calls of the
    /// window's escalated FEFET rows.
    fn window(
        &mut self,
        w: usize,
        chunk: &[MemOp],
        probe: Option<&mut CktProbe>,
    ) -> Result<(), ServeError> {
        let t0 = Instant::now();
        let summary = self.svc.serve(chunk, &mut self.out)?;
        self.window_s.push(t0.elapsed().as_secs_f64());
        self.summary.merge(&summary);
        if let Err(e) = summary.validate() {
            self.problems
                .push(format!("window {w}: summary invariants: {e}"));
        }
        if let Err(e) = self.model.check(w * WINDOW, chunk, &self.out) {
            self.problems.push(e);
        }
        self.words_hash = fold_words(self.words_hash, &self.out);
        let circuit = |r: &OpResult| matches!(r.fidelity, Fidelity::Circuit(_));
        self.escalated.push(self.out.iter().any(circuit));
        if let Some(p) = probe {
            let array = self
                .svc
                .bank(0)
                .and_then(Bank::as_fefet)
                .expect("bank 0 is the FEFET bank");
            let mut rows: Vec<u32> = chunk
                .iter()
                .zip(&self.out)
                .filter(|(op, r)| op.bank() == 0 && circuit(r))
                .map(|(op, _)| op.row())
                .collect();
            rows.sort_unstable();
            rows.dedup();
            for row in rows {
                p.time(array, row as usize, T_READ_S)?;
            }
        }
        Ok(())
    }

    fn served_s(&self) -> f64 {
        self.window_s.iter().sum()
    }

    /// Adds another caller's window times and problems to these.
    fn absorb(&mut self, other: Server) {
        self.window_s.extend(other.window_s);
        self.escalated.extend(other.escalated);
        self.problems.extend(other.problems);
    }

    /// Median window time over escalated (`true`) or fast windows.
    fn p50_where(&self, escalated: bool) -> f64 {
        let xs: Vec<f64> = self
            .window_s
            .iter()
            .zip(&self.escalated)
            .filter(|(_, e)| **e == escalated)
            .map(|(t, _)| *t)
            .collect();
        median(&xs).unwrap_or(0.0)
    }

    /// Whole-stream checks; returns the reference fingerprint.
    fn finish(&mut self, args: &Args, ops: &[MemOp]) -> Fingerprint {
        let sum = self.summary;
        if let Err(e) = sum.validate() {
            self.problems
                .push(format!("stream summary invariants: {e}"));
        }
        if sum.ops != ops.len() as u64 {
            self.problems
                .push(format!("served {} of {} ops", sum.ops, ops.len()));
        }
        if sum.escalations == 0 || sum.esc_forced != 0 {
            self.problems.push(format!(
                "expected disturb escalations and no forced ones, got {} escalations ({} forced)",
                sum.escalations, sum.esc_forced
            ));
        }
        Fingerprint {
            workload: "serve_mixed",
            seed: args.seed,
            size: ops.len() as u64,
            fields: vec![
                ("escalations", Value::Exact(sum.escalations)),
                ("esc_disturb", Value::Exact(sum.esc_disturb)),
                ("row_ops", Value::Exact(sum.row_ops)),
                ("coalesced", Value::Exact(sum.coalesced)),
                ("words", Value::Exact(self.words_hash)),
            ],
        }
    }
}

/// One caller's set-ups: `SETUP_REPEATS` services built one after
/// another, each dropped before the next is built. Returns the last
/// service and every set-up time.
fn set_up_caller(seed: u64) -> Result<(MemoryService, Vec<f64>), ServeError> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut svc = None;
    for _ in 0..SETUP_REPEATS {
        drop(svc.take());
        let (sv, st) = setup(seed, &Instrumentation::off())?;
        times.push(st.total_s);
        svc = Some(sv);
    }
    Ok((svc.expect("at least one set-up"), times))
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<RunOutput, ServeError> {
    let ops = op_stream(args.seed, stream_len(args.seconds));
    let callers = CALLERS.min(hardware_threads()).max(1);
    // All callers set up at once, then all serve at once (two phases, so
    // that a failed set-up cannot leave a caller waiting for the other).
    let set_up = std::thread::scope(|s| {
        let workers: Vec<_> = (0..callers)
            .map(|_| s.spawn(|| set_up_caller(args.seed)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("service set-up thread panicked"))
            .collect::<Vec<_>>()
    });
    let (mut services, mut setups) = (Vec::with_capacity(callers), Vec::new());
    for caller in set_up {
        let (svc, times) = caller?;
        services.push(svc);
        setups.extend(times);
    }
    let start = Instant::now();
    let served = std::thread::scope(|s| {
        let workers: Vec<_> = services
            .into_iter()
            .map(|svc| {
                let ops = &ops;
                s.spawn(move || -> Result<(Server, f64), ServeError> {
                    let mut sv = Server::new(svc);
                    for (w, chunk) in ops.chunks(WINDOW).enumerate() {
                        sv.window(w, chunk, None)?;
                    }
                    Ok((sv, start.elapsed().as_secs_f64()))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("serving thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = start.elapsed().as_secs_f64();
    // Every caller served the same stream on a service set up alike, so
    // every caller must serve the same results. Each caller's rate is
    // the stream over its own serving time.
    let (mut first, mut ops_per_s): (Option<(Server, Fingerprint)>, f64) = (None, 0.0);
    for (c, caller) in served.into_iter().enumerate() {
        let (mut sv, own_wall_s) = caller?;
        ops_per_s += ops.len() as f64 / own_wall_s;
        let fingerprint = sv.finish(args, &ops);
        match &mut first {
            None => first = Some((sv, fingerprint)),
            Some((sv0, f0)) => {
                if fingerprint != *f0 {
                    sv0.problems
                        .push(format!("caller {c} served other results than caller 0"));
                }
                sv0.absorb(sv);
            }
        }
    }
    let (sv, fingerprint) = first.expect("at least one caller");

    let mut out = RunOutput::default();
    let sum = sv.summary;
    let m = &mut out.metrics;
    m.add_key("setup_s", median(&setups).unwrap_or(0.0), "s")
        .note = format!(
        "median of {}: service, two banks, two calibrations; {SETUP_REPEATS} by each caller",
        setups.len()
    );
    m.add_key("peak_rss_mib", peak_rss_mib(), "MiB");
    m.add("failed_frac", 0.0, "ratio").note = "a serve error aborts the run".to_string();
    m.add_keyed("serve_ops_per_s", "ops_per_s", ops_per_s, "1/s")
        .note = format!(
        "{} ops by each of {callers} callers in {wall_s:.3} s, rates summed; \
         {} escalations in {} row ops ({:.3}%) per caller",
        ops.len(),
        sum.escalations,
        sum.row_ops,
        100.0 * sum.escalations as f64 / sum.row_ops.max(1) as f64
    );
    m.add_keyed(
        "window_p50_s",
        "latency_s",
        median(&sv.window_s).unwrap_or(0.0),
        "s",
    )
    .note = format!("{} windows of {WINDOW} ops", sv.window_s.len());
    match tail(&sv.window_s, TAIL_MIN_BEYOND) {
        Some(t) => {
            m.add("window_tail_s", t.value, "s").note =
                format!("p{:.2} of {} windows, {} beyond", t.pct, t.n, t.beyond);
        }
        None => {
            m.add("window_tail_s", 0.0, "s").note =
                format!("too few windows ({}) for the tail rule", sv.window_s.len());
        }
    }
    let n_esc = sv.escalated.iter().filter(|e| **e).count();
    m.add("escalated_window_p50_s", sv.p50_where(true), "s")
        .note = format!("{n_esc} windows with a circuit op");
    out.attempted = (ops.len() * callers) as u64;
    out.problems = sv.problems;
    out.fingerprint = Some(fingerprint);
    Ok(out)
}

/// The traced run: an untraced and a traced service, set up alike,
/// serve the stream window by window in alternation (so that drift in
/// machine speed falls on both), with the traced service's escalated
/// FEFET rows' `ckt` calls probed.
pub fn run_traced(args: &Args) -> Result<RunOutput, ServeError> {
    let ops = op_stream(args.seed, stream_len(args.seconds));
    let (plain, _) = setup(args.seed, &Instrumentation::off())?;
    let instr = layers::traced_instrumentation();
    let (svc, st) = setup(args.seed, &instr)?;
    let (mut base, mut sv) = (Server::new(plain), Server::new(svc));
    let after_setup = Snapshot::take(&instr);
    let mut probe = CktProbe::default();
    let start = Instant::now();
    for (w, chunk) in ops.chunks(WINDOW).enumerate() {
        base.window(w, chunk, None)?;
        sv.window(w, chunk, Some(&mut probe))?;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let end = Snapshot::take(&instr);
    let base_fingerprint = base.finish(args, &ops);
    let fingerprint = sv.finish(args, &ops);

    let mut out = RunOutput::default();
    if base_fingerprint != fingerprint {
        out.problems
            .push("the traced service served other results than the untraced one".to_string());
    }
    // Reconciliation: the timed serve calls must account for the
    // workload's wall time (the benchmark's own probes excluded).
    let served_s = base.served_s() + sv.served_s();
    let workload_s = wall_s - probe.total_s();
    let coverage = served_s / workload_s;
    println!(
        "reconciliation: serve calls cover {served_s:.4} s of {workload_s:.4} s ({:.2}%)",
        100.0 * coverage
    );
    if coverage < 0.9 {
        out.problems.push(format!(
            "serve calls cover only {:.1}% of the workload wall time",
            100.0 * coverage
        ));
    }
    let escalated_wall: f64 = sv
        .window_s
        .iter()
        .zip(&sv.escalated)
        .filter(|(_, e)| **e)
        .map(|(t, _)| *t)
        .sum();
    let layer = LayerRun {
        measured: end.since(&after_setup),
        symbolic_analyses_total: end.symbolic_analyses,
        probe,
        array_op_wall_s: escalated_wall,
        traced_wall_s: sv.served_s(),
        untraced_wall_s: base.served_s(),
        threads: 1,
        solve_p99_s: layers::solve_p99_s(&instr),
        serving: Some(ServingLayer {
            fast_window_p50_s: sv.p50_where(false),
            escalations: sv.summary.escalations,
            row_ops: sv.summary.row_ops,
            coalesced: sv.summary.coalesced,
            calibrate_s: st.calibrate_s,
            bank_build_s: st.bank_build_s,
        }),
        yield_engine: None,
    };
    layer.add_metrics(&mut out.metrics);
    out.attempted = ops.len() as u64;
    out.problems.extend(base.problems);
    out.problems.extend(sv.problems);
    out.fingerprint = Some(fingerprint);
    Ok(out)
}
