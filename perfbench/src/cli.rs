//! `cli_large`: a reverse engineer's run of `funseeker <bin>`.
//!
//! One unit of work is one fresh `funseeker` process on one large
//! stripped binary, with its standard output drained. A single large
//! image makes parse and the sweep dominate (it is large enough for the
//! morsel-parallel sweep, unlike fleet binaries), and process start,
//! worker-pool start and printing show too; batch and server code stay
//! idle. Every invocation's output is compared with the expected list.

use std::fs::File;
use std::io::{LineWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use funseeker::parse::parse;
use funseeker::{Config, FunSeeker, Prepared};
use funseeker_disasm::SweepStats;
use funseeker_elf::Image;

use crate::inputs::{self, Score};
use crate::trace::{Span, Tracer};
use crate::{ms, EndbrKept, Layers, Metric, Opts, Outcome, Workdir};

struct Setup {
    dir: Workdir,
    binary: PathBuf,
    bytes: usize,
    digest: u64,
    /// The output the CLI must print, from an independent analysis.
    expected: Vec<u8>,
    functions: usize,
    score: Score,
}

/// Builds the large binary, writes it, and analyzes it independently.
fn setup(opts: &Opts) -> Result<Setup, String> {
    let dir = Workdir::new(opts.workload.name())?;
    let built = inputs::large_binary(opts.sizes.large_programs, opts.seed);
    let binary = dir.path().join("large.elf");
    crate::write_file(&binary, &built.bytes)?;
    let analysis = FunSeeker::with_config(Config::c4())
        .identify(&built.bytes)
        .map_err(|e| format!("large binary: {e}"))?;
    let mut expected = Vec::new();
    render(&analysis.functions, &mut expected).map_err(|e| e.to_string())?;
    let mut score = Score::default();
    score.add(&analysis.functions, &built.truth);
    Ok(Setup {
        bytes: built.bytes.len(),
        digest: inputs::digest([&built.bytes[..]]),
        dir,
        binary,
        expected,
        functions: analysis.functions.len(),
        score,
    })
}

/// The CLI's default output: one entry address per line, in hex.
fn render(functions: &funseeker::FuncSet, out: &mut impl Write) -> std::io::Result<()> {
    for addr in functions.iter() {
        writeln!(out, "{addr:#x}")?;
    }
    out.flush()
}

/// Runs `funseeker <args>` to completion, draining its output.
fn invoke(funseeker: &Path, arg: &Path) -> Result<(f64, Output), String> {
    let t0 = Instant::now();
    let out = Command::new(funseeker)
        .arg(arg)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("run {}: {e}", funseeker.display()))?;
    Ok((ms(t0.elapsed()), out))
}

/// One checked invocation on the large binary.
fn timed_run(opts: &Opts, setup: &Setup) -> Result<f64, String> {
    let (wall, out) = invoke(&opts.funseeker, &setup.binary)?;
    if !out.status.success() {
        return Err(format!(
            "funseeker exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    if out.stdout != setup.expected {
        return Err("funseeker output differs from the independent analysis".to_owned());
    }
    Ok(wall)
}

/// Runs `cli_large`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (setup, setup_s) = crate::repeated_setup(|| setup(opts))?;
    let score = setup.score;
    for _ in 0..3 {
        timed_run(opts, &setup)?;
    }

    let mut notes = vec![
        Metric::new("binary_mib", setup.bytes as f64 / (1 << 20) as f64, "MiB"),
        Metric::new("functions", setup.functions as f64, "count"),
        Metric::new("input_digest", (setup.digest >> 11) as f64, "hash"),
        Metric::new("c4_precision", score.precision_pct(), "%"),
        Metric::new("c4_recall", score.recall_pct(), "%"),
    ];
    let tail = opts.workload.tail();
    if !opts.trace {
        let mut walls = Vec::new();
        let n = crate::for_seconds(opts.seconds, || {
            walls.push(timed_run(opts, &setup)?);
            Ok(())
        })?;
        notes.extend(crate::sample_notes(&walls, tail));
        return Ok(Outcome {
            attempted: n,
            failed: 0,
            metrics: crate::end_to_end(&setup_s, &walls, tail)?,
            notes,
        });
    }

    // Traced run: half untraced invocations; then invocations each
    // followed by a bare process start (`funseeker` on a missing file)
    // and an in-process replay of what the CLI calls — load → parse →
    // sweep → identify → print — with a span around every call.
    let mut walls = Vec::new();
    let mut attempted = crate::for_seconds(opts.seconds / 2.0, || {
        walls.push(timed_run(opts, &setup)?);
        Ok(())
    })?;
    let tracer = Tracer::new();
    let mut spans = Vec::new();
    let mut replay = Replay::default();
    let missing = setup.dir.path().join("missing.elf");
    let print_path = setup.dir.path().join("print.out");
    let mut unit = 0u64;
    attempted += crate::for_seconds(opts.seconds / 2.0, || {
        let root = tracer.id();
        let start = Instant::now();
        let wall = timed_run(opts, &setup)?;
        tracer.push(&mut spans, root, None, unit, "cli.invocation", start, Instant::now());
        replay.invocations.push(wall);

        let start = Instant::now();
        let (_, out) = invoke(&opts.funseeker, &missing)?;
        if out.status.code() != Some(1) {
            return Err(format!("funseeker on a missing file exited with {}", out.status));
        }
        tracer.push(
            &mut spans,
            tracer.id(),
            Some(root),
            unit,
            "cli.process",
            start,
            Instant::now(),
        );

        let got = replay.once(&tracer, &mut spans, root, unit, &setup.binary, &print_path)?;
        if got != setup.expected {
            return Err("replayed output differs from the independent analysis".to_owned());
        }
        unit += 1;
        Ok(())
    })?;
    crate::write_trace(opts, &spans)?;
    Ok(Outcome { attempted, failed: 0, metrics: replay.layers(&spans, &walls)?.metrics(), notes })
}

/// Counters gathered across traced invocations.
#[derive(Default)]
struct Replay {
    invocations: Vec<f64>,
    sweep: SweepStats,
    endbr: EndbrKept,
}

impl Replay {
    /// Replays one invocation in-process; returns the printed bytes.
    fn once(
        &mut self,
        tracer: &Tracer,
        spans: &mut Vec<Span>,
        invocation: u64,
        unit: u64,
        binary: &Path,
        print_path: &Path,
    ) -> Result<Vec<u8>, String> {
        let root = tracer.id();
        let start = Instant::now();
        let image = tracer
            .time(spans, root, unit, "elf.load", || Image::load(binary))
            .map_err(|e| format!("load {}: {e}", binary.display()))?;
        let parsed = tracer
            .time(spans, root, unit, "core.parse", || parse(&image))
            .map_err(|e| format!("large binary: {e}"))?;
        let prepared =
            tracer.time(spans, root, unit, "disasm.sweep", || Prepared::from_parsed(parsed));
        self.sweep.merge(prepared.sweep_stats());
        let seeker = FunSeeker::with_config(Config::c4());
        let analysis = tracer.time(spans, root, unit, "core.identify_prepared", || {
            seeker.identify_prepared(&prepared)
        });
        self.endbr.add(&analysis);
        // The CLI prints to a line-buffered stdout: one write per line.
        tracer
            .time(spans, root, unit, "cli.print", || {
                render(&analysis.functions, &mut LineWriter::new(File::create(print_path)?))
            })
            .map_err(|e| format!("write {}: {e}", print_path.display()))?;
        tracer.push(spans, root, Some(invocation), unit, "cli.replay", start, Instant::now());
        std::fs::read(print_path).map_err(|e| format!("read {}: {e}", print_path.display()))
    }

    fn layers(&self, spans: &[Span], untraced_ms: &[f64]) -> Result<Layers, String> {
        let t = crate::trace::tally(spans);
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        let invocation = get("cli.invocation");
        let replayed: u64 =
            ["elf.load", "core.parse", "disasm.sweep", "core.identify_prepared", "cli.print"]
                .iter()
                .map(|n| get(n).total_ns)
                .sum();
        let library = replayed - get("cli.print").total_ns;
        let attributed = replayed + get("cli.process").total_ns;
        let units = invocation.count.max(1) as f64;
        Ok(Layers {
            load_ms: get("elf.load").mean_ms(),
            parse_ms: get("core.parse").mean_ms(),
            sweep_ms: get("disasm.sweep").mean_ms(),
            analyze_ms: get("core.identify_prepared").mean_ms(),
            other_ms: invocation.total_ns.saturating_sub(attributed) as f64 / 1e6 / units,
            sweep_mib_per_s: crate::mib_per_s(self.sweep.bytes, get("disasm.sweep").total_ns),
            fast_path_ratio: self.sweep.fast_path_rate(),
            shards: self.sweep.shards as f64 / units,
            endbr_kept_ratio: self.endbr.ratio(),
            // The CLI has no cache.
            hit_ratio: 0.0,
            cache_share: 0.0,
            busy_share: library as f64 / invocation.total_ns.max(1) as f64,
            peak_rss_mib: crate::sys::children_peak_rss_mib().ok_or("getrusage failed")?,
            coverage: attributed as f64 / invocation.total_ns.max(1) as f64,
            overhead_pct: crate::overhead_pct(&self.invocations, untraced_ms),
        })
    }
}
