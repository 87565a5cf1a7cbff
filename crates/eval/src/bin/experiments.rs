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
//! The `perf` subcommand measures sweep throughput and per-stage
//! counters on a deterministic tiled corpus (no full corpus generation):
//! `--json FILE` appends the run to a `BENCH_sweep.json` trajectory,
//! `--check FILE` exits non-zero when sequential throughput drops below
//! 70 % of the file's newest committed entry, and `--quick` shrinks the
//! input for CI smoke use.
//!
//! The `batch` subcommand measures the batch engine — binaries/second
//! through the flat, nocache, cold-cache, warm-cache, and disk-cache
//! drivers over a corpus with duplicated images, plus cache hit rates
//! and peak RSS. Flags mirror `perf` against `BENCH_batch.json`;
//! `--check` gates on the newest committed cold-cache entry.
//! `--corpus-scale N` instead runs the paper-scale ingestion
//! measurement: N content-unique binaries (up to ~8,000; without the
//! flag the corpus keeps its regular 576) written to disk and streamed
//! through mmap ingestion under a small admission budget, with peak
//! RSS asserted bounded by that budget rather than the corpus size.
//!
//! The `analyze` subcommand isolates the back end: every binary of a
//! distinct-heavy corpus is parsed and swept once, then the four
//! Table II configurations are analyzed per binary by re-planning for
//! every configuration (`analyze_replan4`), by one shared
//! `AnalysisPlan` per binary (`analyze_plan4`), and by the full cold
//! batch engine (`analyze_cold`), with per-stage FILTERENDBR /
//! SELECTTAILCALL / candidate-algebra / interprocedural timings on
//! every row. Every plan-derived analysis is asserted bit-identical to
//! `funseeker::reference` before timing starts. Flags mirror `perf`
//! against `BENCH_batch.json`; `--check` gates on the newest committed
//! `analyze_plan4` row and fails outright when the fused plan is slower
//! than re-planning per configuration.
//!
//! The `callgraph` subcommand scores recovered direct/tail call edges
//! against the corpus's emitted call-edge ground truth and times the
//! CFG + call-graph build. Flags mirror `perf` against
//! `BENCH_sweep.json` (a `callgraph` row); `--check` additionally
//! enforces the ≥95 % direct-edge precision floor.
//!
//! The `serve` subcommand load-tests the daemon: it starts an
//! in-process server on a unix socket and drives it with a concurrent
//! client fleet (1,024 connections in full mode) under duplicate-heavy
//! and distinct-heavy traffic, verifying every reply bit-identical to
//! direct analysis. Flags mirror `perf` against `BENCH_batch.json`
//! (rows `serve_dup`/`serve_distinct`); `--check` gates on the newest
//! committed duplicate-heavy throughput.
//!
//! The `io` subcommand measures the zero-copy I/O path: cold mmap vs
//! buffered-read ingestion, the `FSC3` binary cache codec vs the
//! retired v2 text codec, and a duplicate-heavy daemon barrage served
//! from pre-encoded reply bytes. Flags mirror `perf` against
//! `BENCH_io.json`; `--check` gates on the newest committed
//! `decode_v3` throughput and fails outright if the v3 decoder is
//! slower than the v2 one.
//!
//! The `multicore` subcommand measures multi-core scaling: a
//! power-of-two ladder of worker-pool widths up to `--cores N` (default
//! `available_parallelism`), each rung timing the sequential vs
//! morsel-sharded sweep on the tiled text plus the batch engine's
//! corpus aggregate, and one distinct-heavy serving row at the top
//! width. Rungs other than this process's own pool width re-execute the
//! binary as `multicore-probe --cores K` subprocesses (pool width is
//! fixed at first use). `--json-sweep`/`--json-batch` append the run to
//! the two trajectory files; `--check FILE` gates against
//! `BENCH_sweep.json` — sharding slower than sequential on any ≥2-core
//! rung fails, a 1-core host verifies the sequential fallback instead.

use std::time::Instant;

use funseeker_corpus::{Dataset, DatasetParams};

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

/// Fraction of the committed baseline throughput a fresh `--check` run
/// must reach — fail on a >30 % regression. Shared by `perf`
/// (sequential sweep MB/s) and `batch` (cold-cache binaries/s).
const BENCH_CHECK_MIN_RATIO: f64 = 0.7;

/// Flags shared by the `perf` and `batch` benchmark subcommands.
struct BenchFlags {
    quick: bool,
    json: Option<String>,
    check: Option<String>,
    label: String,
}

impl BenchFlags {
    fn parse(args: &[String]) -> Self {
        let mut flags =
            BenchFlags { quick: false, json: None, check: None, label: "run".to_owned() };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => flags.quick = true,
                "--json" => {
                    i += 1;
                    flags.json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
                }
                "--check" => {
                    i += 1;
                    flags.check = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
                }
                "--label" => {
                    i += 1;
                    flags.label = args.get(i).cloned().unwrap_or_else(|| usage());
                }
                _ => usage(),
            }
            i += 1;
        }
        flags
    }

    /// Appends to the trajectory file and/or runs the regression gate,
    /// then exits with the gate's verdict.
    fn finish(
        &self,
        name: &str,
        append: impl Fn(Option<&str>, &str) -> String,
        gate: impl Fn(&str) -> Result<String, String>,
    ) -> ! {
        if let Some(path) = &self.json {
            let existing = std::fs::read_to_string(path).ok();
            let doc = append(existing.as_deref(), &self.label);
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("{name}: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("{name}: appended entry {:?} to {path}", self.label);
        }
        if let Some(path) = &self.check {
            let committed = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{name}: cannot read baseline {path}: {e}");
                    std::process::exit(1);
                }
            };
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

fn run_perf(args: &[String]) -> ! {
    let flags = BenchFlags::parse(args);
    eprintln!("measuring sweep throughput ({} mode)…", if flags.quick { "quick" } else { "full" });
    let report = funseeker_eval::perf::run(flags.quick);
    println!("## Sweep performance\n");
    println!("{}", report.render());
    flags.finish(
        "perf",
        |existing, label| report.append_to_document(existing, label),
        |committed| funseeker_eval::perf::check_against(committed, &report, BENCH_CHECK_MIN_RATIO),
    )
}

fn run_batch(args: &[String]) -> ! {
    // `--corpus-scale N` replaces the driver comparison with the
    // paper-scale streaming-ingestion measurement; pull it (and its
    // value) out before the shared flag parser sees the rest.
    let mut scale: Option<usize> = None;
    let mut rest: Vec<String> = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--corpus-scale" {
            i += 1;
            scale = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let flags = BenchFlags::parse(&rest);
    if let Some(scale) = scale {
        eprintln!(
            "measuring paper-scale ingestion ({} binaries, {} mode)…",
            scale.min(funseeker_eval::batch::SCALE_CAP),
            if flags.quick { "quick" } else { "full" }
        );
        let report = funseeker_eval::batch::run_scaled(scale, flags.quick);
        println!("## Paper-scale corpus ingestion\n");
        println!("{}", report.render());
        match report.rss_bounded() {
            Ok(msg) => eprintln!("batch corpus-scale OK: {msg}"),
            Err(msg) => {
                eprintln!("batch corpus-scale FAILED: {msg}");
                std::process::exit(1);
            }
        }
        std::process::exit(0);
    }
    eprintln!(
        "measuring batch-engine throughput ({} mode)…",
        if flags.quick { "quick" } else { "full" }
    );
    let report = funseeker_eval::batch::run(flags.quick);
    println!("## Batch engine performance\n");
    println!("{}", report.render());
    flags.finish(
        "batch",
        |existing, label| report.append_to_document(existing, label),
        |committed| funseeker_eval::batch::check_against(committed, &report, BENCH_CHECK_MIN_RATIO),
    )
}

fn run_analyze(args: &[String]) -> ! {
    let flags = BenchFlags::parse(args);
    eprintln!(
        "measuring shared-plan analysis ({} mode)…",
        if flags.quick { "quick" } else { "full" }
    );
    let report = funseeker_eval::analyze::run(flags.quick);
    println!("## Shared-plan analysis\n");
    println!("{}", report.render());
    flags.finish(
        "analyze",
        |existing, label| report.append_to_document(existing, label),
        |committed| {
            funseeker_eval::analyze::check_against(committed, &report, BENCH_CHECK_MIN_RATIO)
        },
    )
}

fn run_callgraph(args: &[String]) -> ! {
    let flags = BenchFlags::parse(args);
    eprintln!("scoring call-graph recovery ({} mode)…", if flags.quick { "quick" } else { "full" });
    let report = funseeker_eval::callgraph::run(flags.quick);
    println!("## Call-edge precision/recall and graph-build throughput\n");
    println!("{}", report.render());
    flags.finish(
        "callgraph",
        |existing, label| report.append_to_document(existing, label),
        |committed| {
            funseeker_eval::callgraph::check_against(committed, &report, BENCH_CHECK_MIN_RATIO)
        },
    )
}

fn run_serve(args: &[String]) -> ! {
    let flags = BenchFlags::parse(args);
    eprintln!("load-testing the daemon ({} mode)…", if flags.quick { "quick" } else { "full" });
    let report = funseeker_eval::serve::run(flags.quick);
    println!("## Serving-layer load test\n");
    println!("{}", report.render());
    flags.finish(
        "serve",
        |existing, label| report.append_to_document(existing, label),
        |committed| funseeker_eval::serve::check_against(committed, &report, BENCH_CHECK_MIN_RATIO),
    )
}

fn run_io(args: &[String]) -> ! {
    let flags = BenchFlags::parse(args);
    eprintln!(
        "measuring the zero-copy I/O path ({} mode)…",
        if flags.quick { "quick" } else { "full" }
    );
    let report = funseeker_eval::io::run(flags.quick);
    println!("## Zero-copy I/O path\n");
    println!("{}", report.render());
    flags.finish(
        "io",
        |existing, label| report.append_to_document(existing, label),
        |committed| funseeker_eval::io::check_against(committed, &report, BENCH_CHECK_MIN_RATIO),
    )
}

fn run_multicore(args: &[String]) -> ! {
    let mut quick = false;
    let mut cores: Option<usize> = None;
    let mut json_sweep: Option<String> = None;
    let mut json_batch: Option<String> = None;
    let mut check: Option<String> = None;
    let mut label = "run".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--cores" => {
                i += 1;
                cores = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--json-sweep" => {
                i += 1;
                json_sweep = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json-batch" => {
                i += 1;
                json_batch = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--label" => {
                i += 1;
                label = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    eprintln!("measuring multi-core scaling ({} mode)…", if quick { "quick" } else { "full" });
    let report = funseeker_eval::multicore::run(quick, cores);
    println!("## Multi-core scaling\n");
    println!("{}", report.render());

    let append = |path: &str, doc: String| {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("multicore: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("multicore: appended entry {label:?} to {path}");
    };
    if let Some(path) = &json_sweep {
        let existing = std::fs::read_to_string(path).ok();
        append(path, report.append_to_sweep_document(existing.as_deref(), &label));
    }
    if let Some(path) = &json_batch {
        let existing = std::fs::read_to_string(path).ok();
        append(path, report.append_to_batch_document(existing.as_deref(), &label));
    }
    if let Some(path) = &check {
        let committed = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("multicore: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        match funseeker_eval::multicore::check_against(&committed, &report, BENCH_CHECK_MIN_RATIO) {
            Ok(msg) => eprintln!("multicore check OK: {msg}"),
            Err(msg) => {
                eprintln!("multicore check FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0)
}

/// Hidden helper subcommand: one rung of the scaling ladder, run in a
/// fresh process so the pool can be pinned to `--cores K` before first
/// use. Prints a single `MCPROBE` line for the parent to parse.
fn run_multicore_probe(args: &[String]) -> ! {
    let mut quick = false;
    let mut cores: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--cores" => {
                i += 1;
                cores = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    let k = cores.unwrap_or_else(|| usage());
    if !funseeker_pool::configure_global(k) && funseeker_pool::global().workers() != k {
        eprintln!("multicore-probe: pool already running at a different width");
        std::process::exit(1);
    }
    let point = funseeker_eval::multicore::probe(quick);
    println!("{}", funseeker_eval::multicore::probe_line(&point));
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let what = args[0].clone();
    if what == "perf" {
        // Perf builds its own deterministic tiled input — skip the
        // corpus generation below entirely.
        run_perf(&args[1..]);
    }
    if what == "batch" {
        // Likewise: batch builds its own duplicated corpus.
        run_batch(&args[1..]);
    }
    if what == "analyze" {
        // Likewise: the shared-plan bench reuses the batch benchmark
        // corpus (distinct images only).
        run_analyze(&args[1..]);
    }
    if what == "callgraph" {
        // Likewise: the call-graph evaluation owns its corpus.
        run_callgraph(&args[1..]);
    }
    if what == "serve" {
        // Likewise: the load test reuses the batch benchmark corpus.
        run_serve(&args[1..]);
    }
    if what == "io" {
        // Likewise: the I/O path bench reuses the batch benchmark corpus.
        run_io(&args[1..]);
    }
    if what == "multicore" {
        // Likewise: the scaling bench reuses the perf tiled text and
        // the batch benchmark corpus.
        run_multicore(&args[1..]);
    }
    if what == "multicore-probe" {
        run_multicore_probe(&args[1..]);
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
