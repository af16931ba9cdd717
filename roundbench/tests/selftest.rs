//! Self-tests of the round benchmark: every workload completes a short
//! run, every output check fails when handed a deliberately wrong
//! expectation (so none passes vacuously), and `BENCHMARK.json` names
//! exactly the metrics the benchmark prints.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 3] = ["sim_spatl_r20", "net_dense_r20", "agg_robust_r20"];

struct Run {
    success: bool,
    code: Option<i32>,
    result: Value,
    /// The run's report file (run metadata, every check and its outcome).
    report: Value,
}

/// A directory of the run's own, so runs of tests in parallel never share
/// a report file.
fn out_dir(workload: &str, trace: bool, inject: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("roundbench-selftest")
        .join(format!("{workload}-trace{}-{inject}", trace as u8))
}

/// A short run. Two seconds give the loopback workload some twenty traced
/// rounds, enough for its phase-sum check to hold under a loaded host.
fn bench(workload: &str, trace: bool, inject: &str) -> Run {
    let dir = out_dir(workload, trace, inject);
    let out = Command::new(env!("CARGO_BIN_EXE_roundbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--inject", inject])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("run roundbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {stdout}"));
    let report_path = dir.join(format!("report-{workload}-seed7-trace{}.json", trace as u8));
    let report = std::fs::read_to_string(&report_path).expect("read the run's report");
    Run {
        success: out.status.success(),
        code: out.status.code(),
        result,
        report: serde_json::from_str(&report).expect("report is JSON"),
    }
}

/// `(name, ok)` of every check a run made.
fn checks(run: &Run) -> Vec<(String, bool)> {
    match field(&run.report, "checks") {
        Value::Seq(items) => items
            .iter()
            .map(|c| {
                let name = match field(c, "name") {
                    Value::Str(s) => s.clone(),
                    other => panic!("bad check name {other:?}"),
                };
                (name, field(c, "ok") == &Value::Bool(true))
            })
            .collect(),
        other => panic!("checks is not a list: {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn count(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => *u,
        Value::Int(i) => *i as u64,
        other => panic!("not a count: {other:?}"),
    }
}

fn assert_refused(workload: &str, trace: bool, inject: &str) -> Run {
    let run = bench(workload, trace, inject);
    assert!(
        !run.success && run.code == Some(1),
        "{workload} --inject {inject}: expected exit 1, got {:?}",
        run.code
    );
    assert_eq!(
        field(&run.result, "correct"),
        &Value::Bool(false),
        "{workload} {inject}"
    );
    run
}

/// The benchmark's own definition, as `roundbench describe` prints it.
fn described() -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_roundbench"))
        .arg("describe")
        .output()
        .expect("run roundbench describe");
    assert!(out.status.success());
    serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("describe prints JSON")
}

fn names(list: &Value) -> Vec<String> {
    match list {
        Value::Seq(items) => items
            .iter()
            .map(|i| match field(i, "name") {
                Value::Str(s) => s.clone(),
                other => panic!("bad name {other:?}"),
            })
            .collect(),
        other => panic!("not a list: {other:?}"),
    }
}

#[test]
fn every_workload_completes_a_short_run() {
    let catalogue = described();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let run = bench(workload, trace, "none");
            assert!(run.success, "{workload} trace={trace} failed");
            let r = &run.result;
            assert_eq!(field(r, "correct"), &Value::Bool(true));
            assert!(count(field(r, "attempted")) >= 1);
            assert_eq!(count(field(r, "failed")), 0);
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(
                keys(field(r, "metrics")),
                names(field(&catalogue, section)),
                "{workload} trace={trace} prints exactly the {section} metrics"
            );
        }
    }
}

#[test]
fn a_flipped_reference_bit_fails_every_reference_check() {
    // Every check but the ledger and phase-sum checks compares the run
    // with a reference; each must fail on its own when one bit of its
    // reference is flipped.
    for workload in WORKLOADS {
        for trace in [false, true] {
            let run = assert_refused(workload, trace, "flip-reference");
            let references: Vec<(String, bool)> = checks(&run)
                .into_iter()
                .filter(|(name, _)| {
                    name != "every sampled upload folded" && !name.contains("phases")
                })
                .collect();
            assert!(!references.is_empty(), "{workload}: no reference check");
            for (name, ok) in references {
                assert!(
                    !ok,
                    "{workload} trace={trace}: check {name:?} passed a flipped reference"
                );
            }
        }
    }
}

#[test]
fn a_dropped_upload_fails_the_run() {
    // Simulator: the composed reference rounds skip one fold (digest
    // check), or the traced composed round does (ledger check); net: the
    // generator corrupts one upload; robust: one decoded upload is not
    // folded.
    assert_refused("sim_spatl_r20", false, "drop-upload");
    assert_refused("sim_spatl_r20", true, "drop-upload");
    assert_refused("net_dense_r20", false, "drop-upload");
    assert_refused("agg_robust_r20", false, "drop-upload");
}

#[test]
fn unattributed_round_time_fails_the_phase_sum_check() {
    for workload in ["sim_spatl_r20", "net_dense_r20", "agg_robust_r20"] {
        assert_refused(workload, true, "phase-gap");
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let declared: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let catalogue = described();
    for section in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            names(field(&declared, section)),
            names(field(&catalogue, section)),
            "{section} differ between BENCHMARK.json and roundbench describe"
        );
    }
}
