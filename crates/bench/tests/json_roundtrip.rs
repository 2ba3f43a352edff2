//! Every JSON writer in the workspace reads back through the one
//! parser, `fefet_telemetry::json::parse`, with a known key intact.

use fefet_bench::tinybench::Report;
use fefet_mem::cell::FefetCell;
use fefet_mem::macro_model::MacroConfig;
use fefet_mem::serving::{Bank, MemOp, MemoryService, ServeSpec};
use fefet_mem::yield_engine::{YieldEngine, YieldSpec};
use fefet_telemetry::json::{parse, Json};
use fefet_telemetry::{Instrumentation, Telemetry, TraceEvent, TraceRecorder};

fn num(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_f64)
}

#[test]
fn telemetry_snapshot_roundtrips() {
    let tel = Telemetry::new();
    tel.solver.solves.add(3);
    tel.solver.factors_per_solve.record(0.0);
    let v = parse(&tel.to_json()).unwrap();
    assert_eq!(num(&v, &["solver", "solves"]), Some(3.0));
    assert_eq!(num(&v, &["solver", "factors_per_solve", "min"]), Some(0.0));
}

#[test]
fn yield_report_roundtrips() {
    let spec = YieldSpec {
        rows: 2,
        cols: 2,
        n_trials: 4,
        threads: 1,
        shmoo_nv: 2,
        shmoo_nt: 2,
        ..YieldSpec::default()
    };
    let engine = YieldEngine::new(FefetCell::default(), spec, Instrumentation::off()).unwrap();
    let report = engine.run();
    let v = parse(&report.to_run_report(engine.spec()).to_json()).unwrap();
    assert_eq!(v.get("suite").and_then(Json::as_str), Some("yield"));
    assert_eq!(
        num(&v, &["sections", "read_margin_hist", "count"]),
        Some(report.margin.n as f64)
    );
}

#[test]
fn serving_report_roundtrips() {
    let spec = ServeSpec {
        threads: 1,
        window: 4,
        ..ServeSpec::default()
    };
    let mut svc = MemoryService::new(spec, Instrumentation::enabled()).unwrap();
    svc.add_bank(Bank::fefet(MacroConfig::fefet(2, 4), FefetCell::default()).unwrap());
    let ops = [
        MemOp::Write {
            bank: 0,
            row: 0,
            word: 0b1010,
        },
        MemOp::Read { bank: 0, row: 0 },
    ];
    let mut out = Vec::new();
    let summary = svc.serve(&ops, &mut out).unwrap();
    let v = parse(&svc.report(&summary).to_json()).unwrap();
    assert_eq!(v.get("suite").and_then(Json::as_str), Some("serving"));
}

#[test]
fn tinybench_report_roundtrips() {
    let mut r = Report::new();
    r.bench_once("quoted \"name\"", || 1u64);
    let v = parse(&r.to_json("unit")).unwrap();
    let samples = v.get("samples").and_then(Json::as_arr).unwrap();
    assert_eq!(
        samples[0].get("name").and_then(Json::as_str),
        Some("quoted \"name\"")
    );
}

#[test]
fn chrome_trace_roundtrips() {
    let tr = TraceRecorder::with_capacity(8);
    let t0 = tr.now_ns();
    tr.complete(TraceEvent::ArrayReadRow, t0, 5);
    let v = parse(&tr.to_chrome_json()).unwrap();
    assert_eq!(num(&v, &["otherData", "recorded"]), Some(1.0));
}
