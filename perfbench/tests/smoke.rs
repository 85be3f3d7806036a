//! Smoke-size runs of every workload, traced and untraced, checked
//! against `BENCHMARK.json`.

use serde::Value;
use std::path::Path;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| match field(m, "name") {
            Value::Str(s) => s.clone(),
            other => panic!("metric name {other:?}"),
        })
        .collect()
}

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON")
}

/// Run one workload at smoke size in a scratch working directory and
/// return the parsed last line of standard output.
fn run(workload: &str, trace: u8) -> Value {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{workload}-{trace}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_geosocial-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--smoke",
        ])
        .env("GEOSOCIAL_LOG", "off")
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{workload}: {stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let leftovers: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(leftovers.is_empty(), "{workload} left {leftovers:?} behind");
    std::fs::remove_dir(&dir).expect("empty scratch dir");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {last}: {e:?}"))
}

#[test]
fn every_workload_runs_correctly_and_prints_exactly_the_declared_metrics() {
    let bench = benchmark();
    let workloads = names(field(&bench, "workloads"));
    assert_eq!(workloads, ["serve-run", "serve-frame"]);
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let mut declared = names(field(&bench, list));
        declared.sort();
        for w in &workloads {
            let result = run(w, trace);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{w} trace {trace}: {result:?}"
            );
            assert_eq!(field(&result, "failed"), &Value::UInt(0), "{w} trace {trace}");
            let metrics = field(&result, "metrics").as_object().expect("metrics object");
            let mut printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            printed.sort();
            assert_eq!(printed, declared, "{w} trace {trace}");
            for (name, m) in metrics {
                assert!(
                    matches!(field(m, "value"), Value::Float(_) | Value::UInt(_) | Value::Int(_)),
                    "{w} {name}: {m:?}"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_geosocial-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
