//! Runs every workload at smoke size, untraced and traced, and checks
//! that each run prints every metric `BENCHMARK.json` names, with its
//! unit, both as a `workload/metric value unit` line and in the result
//! line.

use std::path::{Path, PathBuf};
use std::process::Command;

use funseeker_perfbench::json::{self, Value};
use funseeker_perfbench::Workload;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_owned()
}

/// The `funseeker` CLI: `FUNSEEKER_BIN` if set, else built the way
/// `run.sh` builds it, into this test's own target directory.
fn funseeker() -> PathBuf {
    if let Some(bin) = std::env::var_os("FUNSEEKER_BIN") {
        return bin.into();
    }
    let bench = Path::new(env!("CARGO_BIN_EXE_funseeker-bench"));
    let target = bench.parent().and_then(Path::parent).expect("target/<profile>/funseeker-bench");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "funseeker-server",
            "--bin",
            "funseeker",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the funseeker CLI failed");
    target.join("release").join("funseeker")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn contract(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let funseeker = funseeker();
    let end_to_end = contract("end_to_end");
    let per_layer = contract("per_layer");
    let listed: Vec<(&str, &str)> =
        end_to_end.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect();
    assert_eq!(listed, funseeker_perfbench::END_TO_END, "BENCHMARK.json and the code disagree");
    let listed: Vec<(&str, &str)> =
        per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect();
    assert_eq!(listed, funseeker_perfbench::PER_LAYER, "BENCHMARK.json and the code disagree");

    // Long enough for twenty samples of every workload; an unoptimized
    // build needs longer.
    let seconds = if cfg!(debug_assertions) { "4" } else { "0.6" };
    for workload in Workload::ALL {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_funseeker-bench"))
                .args(["--workload", workload.name(), "--seed", "7", "--seconds", seconds])
                .args(["--trace", trace, "--smoke", "--funseeker"])
                .arg(&funseeker)
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("run funseeker-bench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace={trace} failed: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last =
                json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
            let reported = last.get("metrics").and_then(Value::as_object).expect("metrics");
            assert_eq!(reported.len(), metrics.len());
            for (name, unit) in metrics.iter() {
                let m = reported.iter().find(|(n, _)| n == name).map(|(_, m)| m);
                let m = m.unwrap_or_else(|| panic!("{} lacks {name}", workload.name()));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                let prefix = format!("{}/{name} ", workload.name());
                let line = stdout.lines().find(|l| l.starts_with(&prefix));
                let line = line.unwrap_or_else(|| panic!("no line for {prefix}"));
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
            }
        }
    }
}

#[test]
fn a_wrong_argument_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_funseeker-bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run funseeker-bench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
