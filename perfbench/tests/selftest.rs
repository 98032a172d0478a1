//! Tiny-size self-test of the benchmark: every workload runs on two-lane
//! designs, untraced and traced, and must pass its own correctness checks
//! and report every metric `BENCHMARK.json` declares for the run. A check
//! that is broken (always failing, or never run) fails here in seconds
//! instead of after a full benchmark run.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use rtlt_perfbench::report::{Better, Decl, Outcome, END_TO_END, PER_LAYER};
use rtlt_perfbench::train::same_prediction;
use rtlt_perfbench::{run, Ctx, Size, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// Tracing is process-wide, so the workload runs take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn ctx(w: Workload, trace: bool) -> Ctx {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}",
        w.name(),
        u8::from(trace)
    ));
    Ctx {
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        threads: 2,
        tmp: dir.join("tmp"),
        trace_file: dir.join("trace.json"),
    }
}

/// `(name, unit, better)` of each metric of one section (`end_to_end` or
/// `per_layer`) of `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let rest = &entry[entry.find(&format!("\"{key}\":")).expect("key present")..];
        rest.split('"').nth(3).expect("quoted value").to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect()
}

fn table(section: &[Decl]) -> Vec<(String, String, String)> {
    section
        .iter()
        .map(|d| {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
        })
        .collect()
}

fn run_checked(w: Workload, trace: bool) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = ctx(w, trace);
    let out = run(w, &c).unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    let _ = std::fs::remove_dir_all(&c.tmp);
    assert!(out.ops.attempted > 0, "{}: no checked operations", w.name());
    assert_eq!(
        out.ops.failed,
        0,
        "{}: checks failed: {:?}",
        w.name(),
        out.ops.failures
    );
    for m in &out.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            w.name(),
            m.decl.name,
            m.value
        );
    }
    if trace {
        assert!(c.trace_file.exists(), "{}: no trace file", w.name());
    }
    out
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(table(&END_TO_END), declared("end_to_end"));
    assert_eq!(table(&PER_LAYER), declared("per_layer"));
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_declared_metric() {
    for trace in [false, true] {
        let section: &[Decl] = if trace { &PER_LAYER } else { &END_TO_END };
        for w in Workload::ALL {
            let out = run_checked(w, trace);
            let got: Vec<&str> = out.metrics.iter().map(|m| m.decl.name).collect();
            let want: Vec<&str> = section.iter().map(|d| d.name).collect();
            assert_eq!(got, want, "{} (trace {trace})", w.name());
            // An end-to-end metric is never 0 (a per-layer one is, for a
            // layer the workload does not call).
            for m in out.metrics.iter().filter(|_| !trace) {
                assert!(m.value != 0.0, "{}: {} = 0", w.name(), m.decl.name);
            }
        }
    }
}

#[test]
fn prediction_check_catches_a_one_bit_difference() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = rtl_timer::pipeline::TimerConfig {
        threads: 2,
        ..Default::default()
    };
    let set = rtl_timer::pipeline::DesignSet::prepare_named(&Size::Tiny.suite(), &cfg)
        .expect("tiny suite prepares");
    let (train, test) = set.split(&["tiny0"]);
    let model = rtl_timer::pipeline::RtlTimer::fit(&train, &cfg);
    let p = model.predict(test[0]);
    assert!(same_prediction(&p, &p.clone()));
    let mut q = p.clone();
    q.signal_pred[0] = f64::from_bits(q.signal_pred[0].to_bits() ^ 1);
    assert!(!same_prediction(&p, &q));
    let mut q = p.clone();
    q.wns_pred = f64::from_bits(q.wns_pred.to_bits() ^ 1);
    assert!(!same_prediction(&p, &q));
}
