//! Self-test of the benchmark: a tiny size of every workload, traced and
//! untraced, must emit every metric `BENCHMARK.json` names with its unit;
//! every layer breakdown must split its end-to-end row, measured on its
//! own, into non-negative parts and a non-negative rest; and the
//! correctness checker must reject a wrong reference answer.
//!
//! Run with `cargo test --release --manifest-path zsbench/Cargo.toml`.

use serde_json::Value;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "offline_build",
    "serve_local_cold",
    "serve_remote_hot",
    "serve_multitask_cold",
];

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?} in {value:?}"))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(v) => *v,
        Value::Int(v) => *v as f64,
        Value::UInt(v) => *v as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = serde_json::parse_value(&json).expect("parse BENCHMARK.json");
    field(&spec, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zsbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .args(extra)
        .output()
        .expect("run zsbench")
}

/// The detail line and the result line of a run.
fn lines(output: &Output) -> (Value, Value) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected detail and result lines, got {stdout:?}"
    );
    let detail = serde_json::parse_value(lines[lines.len() - 2]).expect("detail line");
    let result = serde_json::parse_value(lines[lines.len() - 1]).expect("result line");
    (field(&detail, "zsbench_detail").clone(), result)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-9)
}

#[test]
fn every_workload_emits_every_declared_metric_and_consistent_breakdowns() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let output = run(workload, trace, &[]);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} trace={trace} failed: {stderr}"
            );
            let (detail, result) = lines(&output);
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            assert!(number(field(&result, "attempted")) >= 1.0);
            assert_eq!(number(field(&result, "failed")), 0.0);
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

            let list = if trace { "per_layer" } else { "end_to_end" };
            let metrics = field(&result, "metrics");
            let emitted: Vec<(String, String)> = metrics
                .as_object()
                .unwrap()
                .iter()
                .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
                .collect();
            assert_eq!(emitted, declared(list), "{workload} trace={trace}");
            for (name, m) in metrics.as_object().unwrap() {
                let v = number(field(m, "value"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                // End-to-end metrics never read 0; the wire layers are
                // measured on serve_local_cold's traced run.
                let wire = name.starts_with("client.") || name.starts_with("protocol.");
                if !trace || (wire && workload == "serve_local_cold") {
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            }

            if !trace {
                // Timings are scaled to the nominal pace by the reference
                // work timed beside them; the unscaled medians are kept,
                // and the scale is the machine's slowdown, never wild.
                let details = field(&detail, "details");
                assert!(number(field(details, "pace_pass_s")) > 0.0, "{workload}");
                for row in [
                    "setup_s",
                    "build_s",
                    "throughput_qps",
                    "latency_p50_ms",
                    "latency_p99_ms",
                ] {
                    let scaled = number(field(field(metrics, row), "value"));
                    let unscaled = number(field(details, &format!("{row}_unscaled")));
                    let factor = scaled / unscaled;
                    assert!(
                        (0.2..5.0).contains(&factor),
                        "{workload}: {row} scaled by {factor}"
                    );
                }
            }

            if trace && workload == "serve_local_cold" {
                // The hot probe drives the cache's hit and invalidation paths.
                let value = |name: &str| number(field(field(metrics, name), "value"));
                assert!(value("serve.cache_hit_rate") > 0.5, "{workload}");
                assert!(value("serve.cache_invalidations") >= 1.0, "{workload}");
            }

            // Each breakdown's total is the row as measured on its own
            // (the traced build's wall time, the mean of the traced
            // latency samples); the layer parts do not overlap, so
            // neither they nor the unattributed rest are negative; and
            // the rest is the per-layer `*.unattributed_*` metric.
            let details = field(&detail, "details");
            let breakdowns = field(&detail, "breakdowns").as_array().unwrap();
            if trace {
                let rows: Vec<&str> = breakdowns.iter().map(|b| text(field(b, "row"))).collect();
                assert!(rows.contains(&"build_s"), "{workload}: rows {rows:?}");
                if workload != "offline_build" {
                    assert!(
                        rows.contains(&"latency_mean_us"),
                        "{workload}: rows {rows:?}"
                    );
                }
            }
            for b in breakdowns {
                let total = number(field(b, "total"));
                let rest = number(field(b, "unattributed"));
                let measured = match text(field(b, "row")) {
                    "build_s" => number(field(details, "traced_build_s")),
                    _ => {
                        number(field(details, "traced_latency_sum_ms")) * 1e3
                            / number(field(details, "traced_samples"))
                    }
                };
                assert!(close(total, measured), "{workload}: {b:?} vs {measured}");
                let slack = 1e-6 * total;
                for (name, v) in field(b, "parts").as_object().unwrap() {
                    assert!(number(v) >= 0.0, "{workload}: part {name} of {b:?}");
                }
                assert!(rest >= -slack, "{workload}: layer parts overlap: {b:?}");
                let rest_metric = match text(field(b, "row")) {
                    "build_s" => "build.unattributed_s",
                    _ => "serve.unattributed_us",
                };
                let emitted = number(field(field(metrics, rest_metric), "value"));
                assert!(
                    close(emitted, rest),
                    "{workload}: {rest_metric} {emitted} vs {rest}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_reference_answer_fails_the_run() {
    for workload in [
        "serve_local_cold",
        "serve_remote_hot",
        "serve_multitask_cold",
    ] {
        let output = run(workload, false, &["--corrupt-reference"]);
        assert!(
            !output.status.success(),
            "{workload} accepted a wrong reference"
        );
        let (_, result) = lines(&output);
        assert_eq!(field(&result, "correct"), &Value::Bool(false), "{workload}");
        assert!(number(field(&result, "failed")) >= 1.0, "{workload}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "offline_build", "--seed", "1", "--trace", "0"],
        vec![
            "--workload",
            "offline_build",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_zsbench"))
            .args(&args)
            .output()
            .expect("run zsbench");
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
