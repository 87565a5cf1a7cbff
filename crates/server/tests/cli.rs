//! The `funseeker` CLI as a process: its output must render the library's
//! results exactly, and a reader that goes away (or a full disk) must end
//! the run with a clean exit status, never a panic.

use std::fmt::Write as _;
use std::fs::File;
use std::process::{Command, Output, Stdio};

use funseeker::{CallKind, FunSeeker};

const FUNSEEKER: &str = env!("CARGO_BIN_EXE_funseeker");

/// The input every test analyzes: the CLI binary itself, a real ELF
/// with thousands of functions.
fn input() -> Vec<u8> {
    std::fs::read(FUNSEEKER).unwrap()
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(FUNSEEKER).args(args).output().unwrap();
    assert!(out.status.success(), "funseeker {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn default_output_renders_identify() {
    let analysis = FunSeeker::new().identify(&input()).unwrap();
    let want: String = analysis.functions.iter().map(|a| format!("{a:#x}\n")).collect();
    assert!(analysis.functions.len() > 100);
    assert_eq!(String::from_utf8(run(&[FUNSEEKER]).stdout).unwrap(), want);
}

#[test]
fn callgraph_output_renders_the_call_graph_of_the_identified_entries() {
    let bytes = input();
    let prepared = funseeker::prepare(&bytes).unwrap();
    let analysis = FunSeeker::new().identify_prepared(&prepared);
    let graph = funseeker::build_call_graph(&prepared.index, &analysis.functions);
    let mut want = format!(
        "{} nodes, {} direct edges, {} tail edges\n",
        graph.nodes.len(),
        graph.direct_count(),
        graph.tail_count()
    );
    for e in &graph.edges {
        let kind = match e.kind {
            CallKind::Direct => "call",
            CallKind::Tail => "tail",
        };
        match e.caller {
            Some(c) => writeln!(want, "{c:#x}: {kind} {:#x} -> {:#x}", e.site, e.callee),
            None => writeln!(want, "?: {kind} {:#x} -> {:#x}", e.site, e.callee),
        }
        .unwrap();
    }
    writeln!(
        want,
        "indirect: {} call sites, {} jump sites, {} notrack; {} endbr targets",
        graph.indirect_call_sites.len(),
        graph.indirect_jump_sites.len(),
        graph.notrack_sites,
        graph.indirect_targets.len()
    )
    .unwrap();
    assert!(graph.direct_count() > 100);
    assert_eq!(String::from_utf8(run(&["--callgraph", FUNSEEKER]).stdout).unwrap(), want);
}

#[test]
fn closed_pipe_ends_the_run_quietly() {
    // `--disasm` writes megabytes, far past any pipe buffer, so the
    // write that meets the closed pipe is certain to happen.
    for args in [&["--disasm", FUNSEEKER][..], &[FUNSEEKER][..]] {
        let mut child = Command::new(FUNSEEKER)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(0), "funseeker {args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), "", "funseeker {args:?}");
    }
}

#[test]
fn full_disk_is_one_error_line_and_exit_1() {
    let full = File::options().write(true).open("/dev/full").unwrap();
    let out = Command::new(FUNSEEKER)
        .arg(FUNSEEKER)
        .stdout(Stdio::from(full))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("funseeker: cannot write output:"), "{stderr}");
}
