//! Smoke tests for the `experiments` binary — the artifact a user runs
//! to regenerate the paper's tables.

use std::process::Command;

fn run_experiments(args: &[&str]) -> (String, String, bool) {
    // cargo test binaries live in target/<profile>/deps; the experiments
    // binary in target/<profile>. Use `cargo run` to be robust to layout.
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "-p", "funseeker-eval", "--bin", "experiments", "--"])
        .args(args)
        .output()
        .expect("spawn cargo run");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table1_markdown_output() {
    let (stdout, stderr, ok) = run_experiments(&["table1", "--scale", "tiny", "--seed", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Table I"), "{stdout}");
    assert!(stdout.contains("Func. Entry %"));
    assert!(stdout.contains("SPEC CPU 2017"));
    assert!(stderr.contains("corpus ready"));
}

#[test]
fn table3_csv_output_is_machine_readable() {
    let (stdout, _, ok) = run_experiments(&["table3", "--scale", "tiny", "--seed", "3", "--csv"]);
    assert!(ok);
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    assert!(header.starts_with("Arch,Suite,FunSeeker P"));
    let n_cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        assert_eq!(line.split(',').count(), n_cols, "ragged CSV row: {line}");
        rows += 1;
    }
    assert!(rows >= 6, "expected per-arch/suite rows + total, got {rows}");
}

#[test]
fn callgraph_reports_edge_scores() {
    let (stdout, stderr, ok) = run_experiments(&["callgraph", "--quick"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Call-edge precision/recall"), "{stdout}");
    assert!(stdout.contains("direct"), "{stdout}");
    assert!(stdout.contains("tail"), "{stdout}");
    assert!(stdout.contains("graph build:"), "{stdout}");
}

#[test]
fn callgraph_appends_then_gates_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("BENCH_callgraph.json");
    let _ = std::fs::remove_file(&doc);
    let doc_arg = doc.to_str().unwrap();
    // Append the fresh run, then gate it against the entry it just wrote.
    let (_, stderr, ok) =
        run_experiments(&["callgraph", "--quick", "--json", doc_arg, "--check", doc_arg]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("appended entry \"run\""), "{stderr}");
    assert!(stderr.contains("callgraph check OK"), "{stderr}");

    // A committed baseline ten times faster than any fresh run must fail.
    let written = std::fs::read_to_string(&doc).unwrap();
    let inflated: String = written
        .lines()
        .map(|line| match line.split_once("\"mb_per_s\": ") {
            Some((head, rest)) => {
                let end = rest.find(',').unwrap();
                let value: f64 = rest[..end].parse().unwrap();
                format!("{head}\"mb_per_s\": {:.1}{}\n", value * 10.0, &rest[end..])
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(inflated, written, "the entry carries an mb_per_s value");
    let faster = dir.join("BENCH_callgraph_x10.json");
    std::fs::write(&faster, inflated).unwrap();
    let (_, stderr, ok) =
        run_experiments(&["callgraph", "--quick", "--check", faster.to_str().unwrap()]);
    assert!(!ok, "a 10x faster baseline must fail the gate; stderr: {stderr}");
    assert!(stderr.contains("callgraph check FAILED"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_exit_nonzero() {
    let (_, _, ok) = run_experiments(&["no-such-table"]);
    assert!(!ok);
    let (_, _, ok) = run_experiments(&["table1", "--scale", "bogus"]);
    assert!(!ok);
}
