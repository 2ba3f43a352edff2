//! A tiny std-only timing harness standing in for `criterion`, which the
//! offline build cannot fetch.
//!
//! Each bench target is a plain `fn main()` (`harness = false`) calling
//! [`bench()`] per workload, or — when the numbers should be kept — going
//! through a [`Report`] that collects [`Sample`]s and can serialize them
//! to JSON for a committed baseline. The harness warms up, picks an
//! iteration count targeting a fixed measurement window, runs a few
//! batches, and records median/min per-iteration times. No statistics
//! beyond that — these benches exist to catch order-of-magnitude
//! regressions, not to resolve percent-level noise.
//!
//! Setting `TINYBENCH_SMOKE=1` switches every entry point to a
//! run-once smoke mode: no calibration, one iteration, one batch. CI
//! uses it to prove the bench targets still build and run without
//! paying for real measurements.

use fefet_telemetry::json::escape;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Target wall-clock per measurement batch.
const BATCH_TARGET: Duration = Duration::from_millis(100);
/// Number of measured batches.
const BATCHES: usize = 5;

/// Re-export so bench binaries keep optimizer barriers without pulling
/// `std::hint` themselves.
pub fn opaque<T>(v: T) -> T {
    black_box(v)
}

/// True when `TINYBENCH_SMOKE` is set (non-empty): every bench runs its
/// workload exactly once, so a full bench suite finishes in seconds.
pub fn smoke() -> bool {
    std::env::var_os("TINYBENCH_SMOKE").is_some_and(|v| !v.is_empty())
}

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Workload name as printed.
    pub name: String,
    /// Median per-iteration time over the batches (s).
    pub median_s: f64,
    /// Fastest batch's per-iteration time (s).
    pub min_s: f64,
    /// Iterations per batch.
    pub iters: u64,
    /// Batches measured.
    pub batches: usize,
    /// MNA order of the measured system, when the workload is a linear
    /// or Newton solve over a known matrix (see [`Report::annotate`]).
    pub n: Option<u64>,
    /// Nonzeros in the sparse pattern, when a sparse backend was
    /// measured; `None` for dense workloads.
    pub nnz: Option<u64>,
    /// Newton iterations one instrumented run of the workload performed
    /// (see [`Report::attach_telemetry`]); `None` when not measured.
    pub newton_iters: Option<u64>,
    /// LU (re)factorizations of that instrumented run; `None` when not
    /// measured.
    pub refactors: Option<u64>,
}

/// Core measurement: calibrates an iteration count against
/// [`BATCH_TARGET`], then times [`BATCHES`] batches. In smoke mode (or
/// with `once = true`) the workload runs a single iteration in a single
/// batch instead.
fn measure<T, F: FnMut() -> T>(name: &str, mut f: F, once: bool) -> Sample {
    if once || smoke() {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        return Sample {
            name: name.to_string(),
            median_s: dt,
            min_s: dt,
            iters: 1,
            batches: 1,
            n: None,
            nnz: None,
            newton_iters: None,
            refactors: None,
        };
    }

    // Warm-up and calibration: find how many iterations fill the batch
    // window (at least one).
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= BATCH_TARGET / 4 || iters >= 1 << 24 {
            let scale = BATCH_TARGET.as_secs_f64() / dt.as_secs_f64().max(1e-9);
            iters = ((iters as f64 * scale).ceil() as u64).clamp(1, 1 << 24);
            break;
        }
        iters = iters.saturating_mul(4);
    }

    let mut per_iter: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    Sample {
        name: name.to_string(),
        median_s: per_iter[per_iter.len() / 2],
        min_s: per_iter[0],
        iters,
        batches: BATCHES,
        n: None,
        nnz: None,
        newton_iters: None,
        refactors: None,
    }
}

/// Paired measurement: calibrates each workload separately, then
/// alternates their batches (`a, b, a, b, ...`) inside one measurement
/// window. On hosts with drifting CPU availability, back-to-back
/// separate windows can skew an A/B ratio by 2x; interleaving exposes
/// both sides to the same drift so the *ratio* of the medians stays
/// meaningful even when the absolute numbers wander.
fn measure_pair<TA, TB, FA: FnMut() -> TA, FB: FnMut() -> TB>(
    name_a: &str,
    name_b: &str,
    mut a: FA,
    mut b: FB,
) -> (Sample, Sample) {
    if smoke() {
        return (measure(name_a, a, true), measure(name_b, b, true));
    }
    let calibrate = |f: &mut dyn FnMut()| -> u64 {
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt >= BATCH_TARGET / 4 || iters >= 1 << 24 {
                let scale = BATCH_TARGET.as_secs_f64() / dt.as_secs_f64().max(1e-9);
                return ((iters as f64 * scale).ceil() as u64).clamp(1, 1 << 24);
            }
            iters = iters.saturating_mul(4);
        }
    };
    let iters_a = calibrate(&mut || {
        black_box(a());
    });
    let iters_b = calibrate(&mut || {
        black_box(b());
    });
    let mut per_a: Vec<f64> = Vec::with_capacity(BATCHES);
    let mut per_b: Vec<f64> = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters_a {
            black_box(a());
        }
        per_a.push(t0.elapsed().as_secs_f64() / iters_a as f64);
        let t0 = Instant::now();
        for _ in 0..iters_b {
            black_box(b());
        }
        per_b.push(t0.elapsed().as_secs_f64() / iters_b as f64);
    }
    let finish = |name: &str, mut per_iter: Vec<f64>, iters: u64| -> Sample {
        per_iter.sort_by(f64::total_cmp);
        Sample {
            name: name.to_string(),
            median_s: per_iter[per_iter.len() / 2],
            min_s: per_iter[0],
            iters,
            batches: BATCHES,
            n: None,
            nnz: None,
            newton_iters: None,
            refactors: None,
        }
    };
    (
        finish(name_a, per_a, iters_a),
        finish(name_b, per_b, iters_b),
    )
}

fn print_sample(s: &Sample) {
    println!(
        "{:<44} {:>12}/iter (min {:>12}, {} iters x {})",
        s.name,
        fmt_duration(s.median_s),
        fmt_duration(s.min_s),
        s.iters,
        s.batches,
    );
}

/// Times `f`, printing `name` with median and min per-iteration times.
///
/// The closure's return value is passed through [`black_box`] so the
/// workload cannot be optimized away.
pub fn bench<T, F: FnMut() -> T>(name: &str, f: F) {
    print_sample(&measure(name, f, false));
}

/// A collection of bench samples that can be serialized to JSON, so a
/// bench run leaves a committed baseline to diff future runs against.
#[derive(Debug, Default)]
pub struct Report {
    samples: Vec<Sample>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Runs a calibrated multi-batch measurement (like the free
    /// [`bench()`]), printing the result and recording it.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        let s = measure(name, f, false);
        print_sample(&s);
        self.samples.push(s);
    }

    /// Times a single run of `f` — for workloads whose one iteration
    /// already takes seconds (full array sweeps), where calibrated
    /// batching would cost minutes for no extra signal.
    pub fn bench_once<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        let s = measure(name, f, true);
        print_sample(&s);
        self.samples.push(s);
    }

    /// Runs two workloads with their batches interleaved in one
    /// measurement window (each calibrated separately, then their
    /// batches alternated), so the ratio of their medians is robust to
    /// host-load drift. Records and prints both.
    pub fn bench_pair<TA, TB, FA: FnMut() -> TA, FB: FnMut() -> TB>(
        &mut self,
        name_a: &str,
        name_b: &str,
        a: FA,
        b: FB,
    ) {
        let (sa, sb) = measure_pair(name_a, name_b, a, b);
        print_sample(&sa);
        print_sample(&sb);
        self.samples.push(sa);
        self.samples.push(sb);
    }

    /// Attaches problem-size metadata to an already recorded sample:
    /// the MNA order `n` and, for sparse workloads, the pattern nonzero
    /// count. No-op if `name` was never recorded.
    pub fn annotate(&mut self, name: &str, n: u64, nnz: Option<u64>) {
        if let Some(s) = self.samples.iter_mut().find(|s| s.name == name) {
            s.n = Some(n);
            s.nnz = nnz;
        }
    }

    /// Attaches solver-telemetry counts from one instrumented run of an
    /// already recorded workload: Newton iterations and LU
    /// (re)factorizations. The timed batches themselves run with
    /// instrumentation off; callers re-run the workload once against an
    /// enabled handle and attach what it counted. No-op if `name` was
    /// never recorded.
    pub fn attach_telemetry(&mut self, name: &str, newton_iters: u64, refactors: u64) {
        if let Some(s) = self.samples.iter_mut().find(|s| s.name == name) {
            s.newton_iters = Some(newton_iters);
            s.refactors = Some(refactors);
        }
    }

    /// The samples recorded so far, in run order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Median time of a named sample, if it was recorded.
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_s)
    }

    /// Fastest per-iteration time of a named sample, if it was
    /// recorded. The minimum is the noise-robust estimator for A/B
    /// ratios on shared hosts: scheduler interference only ever adds
    /// time, so the fastest batch is the one closest to true cost.
    pub fn min_of(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_s)
    }

    /// Serializes the report as a JSON document.
    pub fn to_json(&self, suite: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape(suite)));
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if smoke() { "smoke" } else { "full" }
        ));
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let mut size = String::new();
            if let Some(n) = s.n {
                size.push_str(&format!(", \"n\": {n}"));
            }
            if let Some(nnz) = s.nnz {
                size.push_str(&format!(", \"nnz\": {nnz}"));
            }
            if let Some(it) = s.newton_iters {
                size.push_str(&format!(", \"newton_iters\": {it}"));
            }
            if let Some(rf) = s.refactors {
                size.push_str(&format!(", \"refactors\": {rf}"));
            }
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_s\": {:e}, \"min_s\": {:e}, \"iters\": {}, \"batches\": {}{}}}{}\n",
                escape(&s.name),
                s.median_s,
                s.min_s,
                s.iters,
                s.batches,
                size,
                if i + 1 < self.samples.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_json(&self, suite: &str, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json(suite).as_bytes())
    }
}

/// Formats a duration in seconds with an engineering suffix.
fn fmt_duration(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(2.5), "2.500 s");
        assert_eq!(fmt_duration(1.5e-3), "1.500 ms");
        assert_eq!(fmt_duration(2e-6), "2.000 us");
        assert_eq!(fmt_duration(3.2e-9), "3.2 ns");
    }

    #[test]
    fn opaque_is_identity() {
        assert_eq!(opaque(42), 42);
    }

    #[test]
    fn report_collects_and_serializes() {
        let mut r = Report::new();
        let mut acc = 0u64;
        r.bench_once("tiny_workload", || {
            acc += 1;
            acc
        });
        assert_eq!(r.samples().len(), 1);
        assert_eq!(r.samples()[0].iters, 1);
        assert!(r.median_of("tiny_workload").is_some());
        assert!(r.median_of("missing").is_none());
        let json = r.to_json("unit");
        assert!(json.contains("\"suite\": \"unit\""));
        assert!(json.contains("\"name\": \"tiny_workload\""));
        // The document must round-trip basic JSON structure: balanced
        // braces/brackets and no trailing comma before the close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn annotate_attaches_problem_size_to_json() {
        let mut r = Report::new();
        r.bench_once("sparse_solve", || 1);
        r.bench_once("dense_solve", || 2);
        r.annotate("sparse_solve", 216, Some(940));
        r.annotate("dense_solve", 216, None);
        r.annotate("missing", 1, None); // silently ignored
        let json = r.to_json("unit");
        assert!(json.contains("\"name\": \"sparse_solve\""));
        assert!(json.contains("\"n\": 216, \"nnz\": 940"));
        // The dense sample records n but no nnz key at all.
        let dense_line = json
            .lines()
            .find(|l| l.contains("dense_solve"))
            .expect("dense sample serialized");
        assert!(dense_line.contains("\"n\": 216"));
        assert!(!dense_line.contains("nnz"));
    }

    #[test]
    fn attach_telemetry_adds_optional_counts_to_json() {
        let mut r = Report::new();
        r.bench_once("instrumented", || 1);
        r.bench_once("plain", || 2);
        r.attach_telemetry("instrumented", 840, 840);
        r.attach_telemetry("missing", 1, 1); // silently ignored
        let json = r.to_json("unit");
        let line = json
            .lines()
            .find(|l| l.contains("\"instrumented\""))
            .expect("sample serialized");
        assert!(line.contains("\"newton_iters\": 840"), "{line}");
        assert!(line.contains("\"refactors\": 840"), "{line}");
        let plain = json
            .lines()
            .find(|l| l.contains("\"plain\""))
            .expect("sample serialized");
        assert!(!plain.contains("newton_iters"), "{plain}");
    }

    #[test]
    fn bench_pair_records_both_sides_in_order() {
        let mut r = Report::new();
        let mut a = 0u64;
        let mut b = 0u64;
        r.bench_pair(
            "pair_a",
            "pair_b",
            || {
                a += 1;
                a
            },
            || {
                b += 2;
                b
            },
        );
        assert_eq!(r.samples().len(), 2);
        assert_eq!(r.samples()[0].name, "pair_a");
        assert_eq!(r.samples()[1].name, "pair_b");
        assert!(r.median_of("pair_a").is_some_and(|m| m > 0.0));
        assert!(r.median_of("pair_b").is_some_and(|m| m > 0.0));
    }
}
