//! `funseeker-bench`: runs one benchmark workload, or compares two sets
//! of runs.
//!
//! ```text
//! funseeker-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                 [--json OUT] [--funseeker PATH] [--smoke]
//! funseeker-bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints `workload/metric value unit` lines, then one JSON
//! result line last. It exits 1 without a result when any output it
//! checks is wrong, and 2 on a usage error.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use funseeker_perfbench::{self as bench, compare, Opts, Sizes, Workload};

const USAGE: &str = "usage: funseeker-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--json OUT] [--funseeker PATH] [--smoke]\n\
                     \x20      funseeker-bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("funseeker-bench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return cmd_compare(&args[1..]);
    }
    let mut workload = None;
    let mut seed = 2022u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut json_out: Option<PathBuf> = None;
    let mut funseeker: Option<PathBuf> = None;
    let mut sizes = Sizes::FULL;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let parsed = match arg.as_str() {
            "--workload" => value(arg).and_then(|v| {
                Workload::from_name(&v)
                    .map(|w| workload = Some(w))
                    .ok_or(format!("unknown workload {v}"))
            }),
            "--seed" => value(arg)
                .and_then(|v| v.parse().map(|n| seed = n).map_err(|_| format!("bad seed {v}"))),
            "--seconds" => value(arg).and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    seconds = s;
                    Ok(())
                }
                _ => Err(format!("bad --seconds {v}")),
            }),
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => trace = it.next().map(String::as_str) == Some("1"),
                    _ => trace = true,
                }
                Ok(())
            }
            "--json" => value(arg).map(|v| json_out = Some(v.into())),
            "--funseeker" => value(arg).map(|v| funseeker = Some(v.into())),
            "--smoke" => {
                sizes = Sizes::SMOKE;
                Ok(())
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let funseeker = match funseeker {
        Some(p) => p,
        None => match std::env::current_exe() {
            Ok(exe) => exe.with_file_name("funseeker"),
            Err(e) => return usage(&format!("cannot locate this executable: {e}")),
        },
    };
    if !funseeker.is_file() {
        eprintln!("funseeker-bench: no funseeker executable at {}", funseeker.display());
        return ExitCode::FAILURE;
    }

    let opts = Opts { workload, seed, seconds, trace, funseeker, sizes };
    match cmd_run(&opts, json_out.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("funseeker-bench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its metrics, the result line last.
fn cmd_run(opts: &Opts, json_out: Option<&Path>) -> Result<(), String> {
    let host = bench::sys::host();
    let outcome = bench::run(opts)?;
    let line = bench::result_line(&outcome)?;
    let name = opts.workload.name();
    if let Some(path) = json_out {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"host\": {}, \"notes\": {}, {}",
            bench::json::quote(name),
            opts.seed,
            opts.trace,
            opts.seconds,
            host.json(),
            bench::metrics_json(&outcome.notes)?,
            &line[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("append to {}: {e}", path.display()))?;
    }
    println!(
        "{name}/host nproc={} pool_width={} kernel_tier={}",
        host.nproc, host.pool_width, host.kernel_tier
    );
    for m in outcome.notes.iter().chain(&outcome.metrics) {
        println!("{name}/{} {} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    Ok(())
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => benchmark = p.into(),
                None => return usage("--benchmark needs a path"),
            },
            _ => files.push(PathBuf::from(arg)),
        }
    }
    let [a, b] = &files[..] else { return usage("compare takes two run files") };
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
    let result = (|| {
        let bounds = compare::bounds(&read(&benchmark)?)?;
        Ok::<_, String>(compare::compare(
            &compare::runs(&read(a)?)?,
            &compare::runs(&read(b)?)?,
            &bounds,
        ))
    })();
    match result {
        Ok((report, bad)) => {
            print!("{report}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("funseeker-bench compare: {e}");
            ExitCode::FAILURE
        }
    }
}
