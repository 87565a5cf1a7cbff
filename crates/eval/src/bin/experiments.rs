//! Regenerates the paper's tables and figures on a fresh corpus.
//!
//! ```text
//! experiments <table1|table2|table3|fig3|failures|by-opt|manual-endbr|arm|robustness|all> [--seed N] [--scale tiny|default|large] [--csv]
//! experiments perf [--quick] [--json FILE [--label NAME]] [--check FILE]
//! experiments batch [--quick] [--corpus-scale N] [--json FILE [--label NAME]] [--check FILE]
//! experiments analyze [--quick] [--json FILE [--label NAME]] [--check FILE]
//! experiments callgraph [--quick] [--json FILE [--label NAME]] [--check FILE]
//! experiments serve [--quick] [--json FILE [--label NAME]] [--check FILE]
//! experiments io [--quick] [--json FILE [--label NAME]] [--check FILE]
//! experiments multicore [--quick] [--cores N] [--json-sweep FILE] [--json-batch FILE] [--label NAME] [--check FILE]
//! ```
//!
//! The benchmark subcommands (`perf`, `batch`, `analyze`, `callgraph`,
//! `serve`, `io`, `multicore`) build their own inputs instead of the
//! paper corpus, print a report, and share one path: `--quick` shrinks
//! the input for CI smoke use, `--json FILE` appends the run to a
//! trajectory file (`--label NAME` names the entry), and `--check FILE`
//! exits non-zero when the harness's own checks fail or its gated row
//! falls below 70 % of the file's newest committed value (widened by
//! the recorded noise, skipped across pool widths). The writer and the
//! gate are `funseeker_eval::bench`; what each harness measures and
//! gates:
//!
//! | subcommand | trajectory | gated row | own checks |
//! |---|---|---|---|
//! | `perf` | `BENCH_sweep.json` | `sequential` MB/s | — |
//! | `batch` | `BENCH_batch.json` | `cold` binaries/s | — |
//! | `analyze` | `BENCH_batch.json` | `analyze_plan4` binaries/s | plan not slower than re-planning per configuration |
//! | `callgraph` | `BENCH_sweep.json` | `callgraph` MB/s | direct-edge precision ≥ 95 % |
//! | `serve` | `BENCH_batch.json` | `serve_dup` req/s | — |
//! | `io` | `BENCH_io.json` | `decode_v3` records/s | — |
//! | `multicore` | both | top rung's `mc{K}` MB/s, unwidened | identical streams, sharded ≥ 95 % of sequential, one shard on one core |
//!
//! `batch --corpus-scale N` instead runs the paper-scale ingestion
//! measurement: N content-unique binaries (up to ~8,000) written to disk
//! and streamed through mmap ingestion under a small admission budget,
//! with peak RSS asserted bounded by that budget rather than the corpus
//! size.
//!
//! `multicore` walks a power-of-two ladder of worker-pool widths up to
//! `--cores N` (default `available_parallelism`). Rungs other than this
//! process's own pool width re-execute the binary as the hidden
//! `multicore-probe --cores K` subcommand (pool width is fixed at first
//! use). It writes two trajectories, so it takes `--json-sweep` and
//! `--json-batch` in place of `--json`, and `--check` reads
//! `BENCH_sweep.json`.

use std::time::Instant;

use funseeker_corpus::{Dataset, DatasetParams};
use funseeker_eval::bench::{self, Report};
use funseeker_eval::multicore::{self, MulticoreReport};
use funseeker_eval::{analyze, batch, callgraph, io, perf, serve};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|table2|table3|fig3|failures|by-opt|manual-endbr|arm|robustness|all> [--seed N] [--scale tiny|default|large] [--csv]\n\
         \x20      experiments perf [--quick] [--json FILE [--label NAME]] [--check FILE]\n\
         \x20      experiments batch [--quick] [--corpus-scale N] [--json FILE [--label NAME]] [--check FILE]\n\
         \x20      experiments analyze [--quick] [--json FILE [--label NAME]] [--check FILE]\n\
         \x20      experiments callgraph [--quick] [--json FILE [--label NAME]] [--check FILE]\n\
         \x20      experiments serve [--quick] [--json FILE [--label NAME]] [--check FILE]\n\
         \x20      experiments io [--quick] [--json FILE [--label NAME]] [--check FILE]\n\
         \x20      experiments multicore [--quick] [--cores N] [--json-sweep FILE] [--json-batch FILE] [--label NAME] [--check FILE]"
    );
    std::process::exit(2);
}

/// Fraction of the committed baseline a fresh `--check` run must reach
/// on every harness's gated row — fail on a >30 % regression (before
/// the gate's noise widening).
const BENCH_CHECK_MIN_RATIO: f64 = 0.7;

/// The value flags of the single-document benchmark subcommands.
const BENCH_FLAGS: &[&str] = &["--json", "--label", "--check"];

/// Flags shared by every benchmark subcommand: `--quick`, plus the
/// value flags the subcommand accepts. Any other flag is a usage error.
struct BenchFlags {
    quick: bool,
    values: Vec<(String, String)>,
}

impl BenchFlags {
    fn parse(args: &[String], value_flags: &[&str]) -> Self {
        let mut flags = BenchFlags { quick: false, values: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--quick" {
                flags.quick = true;
            } else if value_flags.contains(&arg.as_str()) {
                let value = args.next().cloned().unwrap_or_else(|| usage());
                flags.values.push((arg.clone(), value));
            } else {
                usage();
            }
        }
        flags
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// The numeric value of `flag`; a non-number is a usage error.
    fn number(&self, flag: &str) -> Option<usize> {
        self.value(flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    fn label(&self) -> &str {
        self.value("--label").unwrap_or("run")
    }

    fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Appends this run to the trajectory at `path`, if given.
    fn append(&self, name: &str, path: Option<&str>, append: impl Fn(Option<&str>) -> String) {
        let Some(path) = path else { return };
        let existing = std::fs::read_to_string(path).ok();
        if let Err(e) = std::fs::write(path, append(existing.as_deref())) {
            eprintln!("{name}: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("{name}: appended entry {:?} to {path}", self.label());
    }

    /// Runs the `--check` gate, if asked, then exits with its verdict.
    fn finish(&self, name: &str, gate: impl Fn(&str) -> Result<String, String>) -> ! {
        if let Some(path) = self.value("--check") {
            let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("{name}: cannot read baseline {path}: {e}");
                std::process::exit(1);
            });
            match gate(&committed) {
                Ok(msg) => eprintln!("{name} check OK: {msg}"),
                Err(msg) => {
                    eprintln!("{name} check FAILED: {msg}");
                    std::process::exit(1);
                }
            }
        }
        std::process::exit(0)
    }
}

/// The one path every single-document benchmark subcommand takes:
/// measure, print, append to `--json`, gate on `--check`.
fn run_bench<R: Report>(flags: &BenchFlags, name: &str, run: impl FnOnce(bool) -> R) -> ! {
    eprintln!("{} ({} mode)…", R::DOING, flags.mode());
    let report = run(flags.quick);
    println!("## {}\n", R::TITLE);
    println!("{}", report.render());
    flags.append(name, flags.value("--json"), |existing| report.append_to(existing, flags.label()));
    flags.finish(name, |committed| report.check(committed, BENCH_CHECK_MIN_RATIO))
}

/// `batch --corpus-scale N`: the paper-scale streaming-ingestion
/// measurement instead of the driver comparison.
fn run_corpus_scale(flags: &BenchFlags, scale: usize) -> ! {
    eprintln!(
        "measuring paper-scale ingestion ({} binaries, {} mode)…",
        scale.min(batch::SCALE_CAP),
        flags.mode()
    );
    let report = batch::run_scaled(scale, flags.quick);
    println!("## Paper-scale corpus ingestion\n");
    println!("{}", report.render());
    match report.rss_bounded() {
        Ok(msg) => eprintln!("batch corpus-scale OK: {msg}"),
        Err(msg) => {
            eprintln!("batch corpus-scale FAILED: {msg}");
            std::process::exit(1);
        }
    }
    std::process::exit(0)
}

fn run_multicore(flags: &BenchFlags) -> ! {
    eprintln!("{} ({} mode)…", MulticoreReport::DOING, flags.mode());
    let report = multicore::run(flags.quick, flags.number("--cores"));
    println!("## {}\n", MulticoreReport::TITLE);
    println!("{}", report.render());
    let label = flags.label();
    flags.append("multicore", flags.value("--json-sweep"), |e| report.append_to(e, label));
    flags.append("multicore", flags.value("--json-batch"), |e| {
        bench::append(e, bench::BATCH, report.batch_entry().write(label))
    });
    flags.finish("multicore", |committed| report.check(committed, BENCH_CHECK_MIN_RATIO))
}

/// Hidden helper subcommand: one rung of the scaling ladder, run in a
/// fresh process so the pool can be pinned to `--cores K` before first
/// use. Prints a single `MCPROBE` line for the parent to parse.
fn run_multicore_probe(flags: &BenchFlags) -> ! {
    let k = flags.number("--cores").unwrap_or_else(|| usage());
    if !funseeker_pool::configure_global(k) && funseeker_pool::global().workers() != k {
        eprintln!("multicore-probe: pool already running at a different width");
        std::process::exit(1);
    }
    println!("{}", multicore::probe_line(&multicore::probe(flags.quick)));
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let what = args[0].clone();
    // The benchmark subcommands build their own inputs: none of them
    // needs the corpus generated below.
    let rest = &args[1..];
    let flags = |value_flags: &[&str]| BenchFlags::parse(rest, value_flags);
    match what.as_str() {
        "perf" => run_bench(&flags(BENCH_FLAGS), "perf", perf::run),
        "batch" => {
            let flags = flags(&["--corpus-scale", "--json", "--label", "--check"]);
            if let Some(scale) = flags.number("--corpus-scale") {
                run_corpus_scale(&flags, scale);
            }
            run_bench(&flags, "batch", batch::run)
        }
        "analyze" => run_bench(&flags(BENCH_FLAGS), "analyze", analyze::run),
        "callgraph" => run_bench(&flags(BENCH_FLAGS), "callgraph", callgraph::run),
        "serve" => run_bench(&flags(BENCH_FLAGS), "serve", serve::run),
        "io" => run_bench(&flags(BENCH_FLAGS), "io", io::run),
        "multicore" => {
            let value_flags = ["--cores", "--json-sweep", "--json-batch", "--label", "--check"];
            run_multicore(&flags(&value_flags))
        }
        "multicore-probe" => run_multicore_probe(&flags(&["--cores"])),
        _ => {}
    }
    let mut seed = 2022u64; // the paper's year, for a stable default
    let mut scale = "default".to_owned();
    let mut csv = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--scale" => {
                i += 1;
                scale = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--csv" => csv = true,
            _ => usage(),
        }
        i += 1;
    }

    let mut params = DatasetParams::default();
    match scale.as_str() {
        "tiny" => params.programs = (3, 2, 3),
        "default" => {}
        "large" => params.programs = (27, 8, 12),
        _ => usage(),
    }

    eprintln!(
        "generating corpus: {:?} programs × {} configs (seed {seed})…",
        params.programs,
        params.configs.len()
    );
    let t0 = Instant::now();
    let ds = Dataset::generate(&params, seed);
    let total_functions: usize = ds.binaries.iter().map(|b| b.truth.eval_entries().len()).sum();
    eprintln!(
        "corpus ready: {} binaries, {} ground-truth functions ({:.1}s)",
        ds.len(),
        total_functions,
        t0.elapsed().as_secs_f64()
    );

    let run_one = |name: &str| {
        let t = Instant::now();
        match name {
            "table1" => {
                let t = funseeker_eval::table1::run(&ds);
                if csv {
                    print!("{}", t.render_csv());
                } else {
                    println!("## Table I — end-branch location distribution\n");
                    println!("{}", t.render());
                }
            }
            "fig3" => {
                println!("## Figure 3 — syntactic property relation\n");
                println!("{}", funseeker_eval::fig3::run(&ds).render());
            }
            "table2" => {
                let t = funseeker_eval::table2::run(&ds);
                if csv {
                    print!("{}", t.render_csv());
                } else {
                    println!("## Table II — FunSeeker configurations (1)-(4)\n");
                    println!("{}", t.render());
                }
            }
            "table3" => {
                let t = funseeker_eval::table3::run(&ds);
                if csv {
                    print!("{}", t.render_csv());
                } else {
                    println!("## Table III — tool comparison\n");
                    println!("{}", t.render());
                }
            }
            "by-opt" => {
                println!("## Per-optimization-level breakdown (extension)\n");
                println!("{}", funseeker_eval::by_opt::run(&ds).render());
            }
            "arm" => {
                println!("## ARM BTI extension (Section VI future work)\n");
                println!("{}", funseeker_eval::arm::run(40, seed).render());
            }
            "manual-endbr" => {
                println!("## Section VI — -mmanual-endbr ablation\n");
                println!("{}", funseeker_eval::manual_endbr::run(&params, seed).render());
            }
            "failures" => {
                println!("## Section V-C — failure analysis (configuration (4))\n");
                println!("{}", funseeker_eval::failures::run(&ds).render());
            }
            "robustness" => {
                let t = funseeker_eval::robustness::run(&ds, seed);
                if csv {
                    print!("{}", t.render_csv());
                } else {
                    println!("## Robustness — hostile-input mutation campaign (extension)\n");
                    println!("{}", t.render());
                }
            }
            _ => usage(),
        }
        eprintln!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
    };

    match what.as_str() {
        "all" => {
            for name in [
                "table1",
                "fig3",
                "table2",
                "table3",
                "failures",
                "by-opt",
                "manual-endbr",
                "arm",
                "robustness",
            ] {
                run_one(name);
                println!();
            }
        }
        other => run_one(other),
    }
}
