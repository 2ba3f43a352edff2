//! The repository benchmark: three seeded workloads against the public
//! APIs of `fefet-mem`, each printing its metrics by name with their
//! units and checking the program's outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <array_rows|serve_mixed|yield_mc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with instrumentation off;
//! `--trace 1` runs the same work untraced and traced and reports the
//! per-layer metrics. Every run prints its reference line for
//! `reference.txt`. The last line of standard output is the JSON
//! result; the exit code is 0 only when every output check passed.
//! See `README.md` for the metrics and the layer map.

mod array_rows;
mod gen;
mod layers;
mod reference;
mod report;
mod serve_mixed;
mod stats;
mod yield_mc;

use std::process::ExitCode;

use reference::{Fingerprint, Outcome, REFERENCE};
use report::{result_line, Metrics};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["array_rows", "serve_mixed", "yield_mc"];

/// The JSON result of an untraced run: `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_s", "s"),
];

/// The JSON result of a traced run: `BENCHMARK.json`'s `per_layer`.
const PER_LAYER: &[(&str, &str)] = &[
    ("ckt.netlist_build_s", "s"),
    ("ckt.block_plan_s", "s"),
    ("ckt.assembly_s", "s"),
    ("ckt.transient.steps_accepted", "count"),
    ("ckt.transient.steps_rejected", "count"),
    ("ckt.engine.solves", "count"),
    ("ckt.engine.newton_iters", "count"),
    ("ckt.engine.jacobian_reuses", "count"),
    ("ckt.engine.solve_s_sum", "s"),
    ("numerics.sparse_refactors", "count"),
    ("numerics.bbd_refactors", "count"),
    ("numerics.back_substitutions", "count"),
    ("numerics.symbolic_analyses", "count"),
    ("numerics.analysis_cache_hits", "count"),
    ("device.bypass_hits", "count"),
    ("device.bypass_misses", "count"),
    ("device.bypass_hit_frac", "ratio"),
    ("core.array.non_step_frac", "ratio"),
    ("core.serving.escalations", "count"),
    ("core.serving.escalation_frac", "ratio"),
    ("core.serving.coalesced", "count"),
    ("core.yield_engine.warm_iters_mean", "count"),
    ("ckt.parallel.tasks", "count"),
    ("ckt.parallel.steals", "count"),
    ("ckt.parallel.busy_frac", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|e| format!("--seconds {value}: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Outputs to compare with the committed reference, if any.
    pub fingerprint: Option<Fingerprint>,
}

/// Peak resident set of this process (MiB), from `VmHWM`; NaN when the
/// kernel does not report it (the result line then refuses the value).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Hardware threads, as the pool sizes itself.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run(args: &Args) -> Result<RunOutput, String> {
    match (args.workload.as_str(), args.trace) {
        ("array_rows", false) => array_rows::run(args).map_err(|e| e.to_string()),
        ("array_rows", true) => array_rows::run_traced(args).map_err(|e| e.to_string()),
        ("serve_mixed", false) => serve_mixed::run(args).map_err(|e| e.to_string()),
        ("serve_mixed", true) => serve_mixed::run_traced(args).map_err(|e| e.to_string()),
        ("yield_mc", false) => yield_mc::run(args).map_err(|e| e.to_string()),
        ("yield_mc", true) => yield_mc::run_traced(args).map_err(|e| e.to_string()),
        (w, _) => Err(format!("unknown workload {w}")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} hardware threads)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hardware_threads()
    );
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Some(fp) = &out.fingerprint {
        match fp.check(REFERENCE) {
            Outcome::Matched => println!("reference: matched; line: {}", fp.line()),
            Outcome::NoEntry => {
                println!("reference: none committed; line: {}", fp.line());
                eprintln!(
                    "perfbench: warning: no reference for seed {} at size {}; \
                     invariant checks only",
                    fp.seed, fp.size
                );
            }
            Outcome::Mismatch(diffs) => {
                out.problems.extend(
                    diffs
                        .into_iter()
                        .map(|d| format!("reference mismatch: {d}")),
                );
            }
        }
    }
    let title = if args.trace {
        "per-layer metrics:"
    } else {
        "end-to-end metrics:"
    };
    out.metrics.print_table(title);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let json = match out.metrics.json_object(wanted) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &json)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_refuse_bad_input() {
        let a = parse("--workload yield_mc --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("yield_mc", 7, 10.0, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload yield_mc --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload yield_mc --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload yield_mc --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload yield_mc --seconds 1").is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(report::valid_name(name), "{name}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
    }
}
