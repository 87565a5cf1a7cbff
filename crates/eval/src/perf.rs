//! Sweep performance measurement — the `experiments -- perf` subcommand.
//!
//! Builds a deterministic benchmark input (the largest x86-64 GCC binary
//! of a tiny corpus, its `.text` tiled to a few MiB), times the
//! sequential and sharded sweeps plus the full `prepare()` pipeline on
//! it, and reports per-stage counters from [`SweepStats`]. Each run can
//! append an entry to the `BENCH_sweep.json` trajectory, and `--check`
//! fails a run whose sequential throughput regresses against the newest
//! committed entry (through [`crate::bench::ratio_gate`]).

use std::time::Instant;

use funseeker::prepare;
use funseeker_corpus::{Arch, BuildConfig, Compiler, Dataset, DatasetParams};
use funseeker_disasm::{par_sweep, sweep_all, Mode, SweepStats};
use funseeker_elf::Elf;

use crate::bench::{self, Entry, Host, Report, Row, Value};
use crate::report::Table;

/// Seed for the benchmark corpus — fixed so every run times the same
/// bytes (shared with the criterion benches' dataset seed).
const SEED: u64 = 0xBE7C4;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Configuration name (`sequential`, `shard4`, `prepare`, …).
    pub label: String,
    /// Best-of-N wall time in milliseconds.
    pub ms: f64,
    /// Sample standard deviation of the wall time over the reps, in
    /// milliseconds — the run-to-run noise behind `ms`.
    pub sd_ms: f64,
    /// Throughput over the tiled text, MiB per second.
    pub mb_per_s: f64,
    /// Stage counters from the measured run.
    pub stats: SweepStats,
}

/// The full measurement: the input description plus one row per
/// configuration.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Bytes of tiled `.text` swept per measurement.
    pub bytes: usize,
    /// Repetitions per row (the minimum is reported).
    pub reps: usize,
    /// Execution environment of the run (pool width, host cores,
    /// kernel tier) — recorded so trajectories from different hosts are
    /// never gated against each other.
    pub host: Host,
    /// Core-analyzer per-stage counters: the four Table II
    /// configurations analyzed once each over the benchmark binary.
    pub stage: funseeker::StageStats,
    /// Measured configurations.
    pub rows: Vec<PerfRow>,
}

/// Builds the benchmark input: the tiny corpus's largest x86-64 GCC
/// `.text`, tiled up to `target` bytes. Shared with the
/// [`crate::multicore`] scaling bench so every core count sweeps the
/// same bytes.
pub(crate) fn tiled_text(target: usize) -> (Vec<u8>, u64, Mode) {
    let mut params = DatasetParams::tiny();
    params.programs = (3, 2, 3);
    params.configs = BuildConfig::grid();
    let ds = Dataset::generate(&params, SEED);
    let bin = ds
        .binaries
        .into_iter()
        .filter(|b| b.config.arch == Arch::X64 && b.config.compiler == Compiler::Gcc)
        .max_by_key(|b| b.bytes.len())
        .expect("benchmark dataset is non-empty");
    let elf = Elf::parse(&bin.bytes).expect("benchmark binary parses");
    let (_, text) = elf.section_bytes(".text").expect("benchmark binary has .text");
    let mut code = Vec::with_capacity(target + text.len());
    while code.len() < target {
        code.extend_from_slice(text);
    }
    (code, 0x40_1000, bin.config.arch.mode())
}

/// Times `f` `reps` times and returns the minimum wall time and sample
/// standard deviation in seconds, plus the stats of the final run.
fn best_of(reps: usize, mut f: impl FnMut() -> SweepStats) -> (f64, f64, SweepStats) {
    let mut samples = Vec::with_capacity(reps);
    let mut stats = SweepStats::default();
    for _ in 0..reps {
        let t = Instant::now();
        stats = f();
        samples.push(t.elapsed().as_secs_f64());
    }
    let (best, sd) = bench::best_and_sd(&samples);
    (best, sd, stats)
}

/// Runs the measurement. `quick` shrinks the input and repetition count
/// for CI smoke use (a couple of seconds instead of tens).
pub fn run(quick: bool) -> PerfReport {
    let target = if quick { 2 << 20 } else { 4 << 20 };
    let reps = if quick { 3 } else { 7 };
    let (code, base, mode) = tiled_text(target);
    let mb = code.len() as f64 / (1024.0 * 1024.0);

    // Warm-up: fault in the buffer, initialize the worker pool.
    let _ = par_sweep(&code, base, mode, 2).stream.len();

    let mut rows = Vec::new();
    let mut push = |label: &str, best: f64, sd: f64, stats: SweepStats| {
        rows.push(PerfRow {
            label: label.to_owned(),
            ms: best * 1e3,
            sd_ms: sd * 1e3,
            mb_per_s: mb / best,
            stats,
        });
    };

    let (best, sd, stats) = best_of(reps, || {
        let out = sweep_all(&code, base, mode);
        std::hint::black_box(out.stream.len());
        out.stats
    });
    push("sequential", best, sd, stats);

    for shards in [2usize, 4, 8] {
        let (best, sd, stats) = best_of(reps, || {
            let out = par_sweep(&code, base, mode, shards);
            std::hint::black_box(out.stream.len());
            out.stats
        });
        push(&format!("shard{shards}"), best, sd, stats);
    }

    // End-to-end: ELF parse + sweep + index build over a wrapped image.
    // Reuses the corpus binary rather than the tiled buffer (prepare
    // needs a whole ELF), so its MB/s is relative to that binary's text.
    let mut params = DatasetParams::tiny();
    params.programs = (3, 2, 3);
    params.configs = BuildConfig::grid();
    let ds = Dataset::generate(&params, SEED);
    let bin = ds
        .binaries
        .into_iter()
        .filter(|b| b.config.arch == Arch::X64 && b.config.compiler == Compiler::Gcc)
        .max_by_key(|b| b.bytes.len())
        .expect("benchmark dataset is non-empty");
    let text_bytes = {
        let elf = Elf::parse(&bin.bytes).expect("parses");
        elf.section_bytes(".text").map(|(_, t)| t.len()).unwrap_or(0)
    };
    let mut samples = Vec::with_capacity(reps);
    let mut stats = SweepStats::default();
    for _ in 0..reps {
        let t = Instant::now();
        let p = prepare(&bin.bytes).expect("benchmark binary prepares");
        stats = *p.sweep_stats();
        std::hint::black_box(p.sweep_stats().insns);
        samples.push(t.elapsed().as_secs_f64());
    }
    let (best, sd) = bench::best_and_sd(&samples);
    rows.push(PerfRow {
        label: "prepare".to_owned(),
        ms: best * 1e3,
        sd_ms: sd * 1e3,
        mb_per_s: text_bytes as f64 / (1024.0 * 1024.0) / best,
        stats,
    });

    // Parallel end-to-end: the same `prepare` fanned over the pool via
    // the timed runner — the per-binary front-end cost batch callers
    // actually pay when many binaries are in flight at once. Reported
    // **per binary** (wall / 8) so the row is directly comparable with
    // the single `prepare` row above; earlier trajectories recorded the
    // whole batch's wall time here, which read as an 8× "regression"
    // against `prepare` when the two rows were really within noise.
    let copies: Vec<&[u8]> = std::iter::repeat_n(&bin.bytes[..], 8).collect();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let timed = crate::runner::par_map_timed(&copies, |image| {
            let p = prepare(image).expect("benchmark binary prepares");
            std::hint::black_box(p.sweep_stats().insns);
        });
        std::hint::black_box(timed.len());
        samples.push(t.elapsed().as_secs_f64() / copies.len() as f64);
    }
    let (best_par, sd_par) = bench::best_and_sd(&samples);
    rows.push(PerfRow {
        label: "prepare_par8".to_owned(),
        ms: best_par * 1e3,
        sd_ms: sd_par * 1e3,
        mb_per_s: text_bytes as f64 / (1024.0 * 1024.0) / best_par,
        stats,
    });

    // Analyzer stage counters (untimed rows above cover the sweep; this
    // records where the back end spends its time on the same binary):
    // one plan, the four Table II configurations derived from it.
    let p = prepare(&bin.bytes).expect("benchmark binary prepares");
    let mut scratch = funseeker::Scratch::new();
    let mut plan = funseeker::AnalysisPlan::new();
    plan.rebuild(&p.parsed, &p.index, &mut scratch);
    for (_, cfg) in funseeker::Config::table2() {
        let a = plan.derive(&cfg, &p.parsed, &p.index, &mut scratch);
        std::hint::black_box(a.functions.len());
    }
    let stage = scratch.take_stats();

    PerfReport { bytes: code.len(), reps, host: bench::host(), stage, rows }
}

impl Report for PerfReport {
    const SCHEMA: &'static str = bench::SWEEP;
    const DOING: &'static str = "measuring sweep throughput";
    const TITLE: &'static str = "Sweep performance";

    fn entry(&self) -> Entry {
        let rows = self.rows.iter().map(|r| {
            Row::new(
                &r.label,
                vec![
                    ("ms", Value::F3(r.ms)),
                    ("sd_ms", Value::F3(r.sd_ms)),
                    ("mb_per_s", Value::F1(r.mb_per_s)),
                    ("fast_path_rate", Value::F4(r.stats.fast_path_rate())),
                    ("insns", r.stats.insns.into()),
                ],
            )
        });
        Entry {
            header: vec![("bytes", self.bytes.into()), ("reps", self.reps.into())],
            host: self.host.clone(),
            rows: rows.collect(),
        }
    }

    fn render(&self) -> String {
        let mut t = Table::new([
            "config",
            "ms",
            "±sd",
            "MB/s",
            "shards",
            "insns",
            "fast-path",
            "decode",
            "stitch",
        ]);
        for r in &self.rows {
            t.row([
                r.label.clone(),
                format!("{:.2}", r.ms),
                format!("{:.2}", r.sd_ms),
                format!("{:.1}", r.mb_per_s),
                r.stats.shards.to_string(),
                r.stats.insns.to_string(),
                format!("{:.1}%", r.stats.fast_path_rate() * 100.0),
                format!("{:.2}ms", r.stats.decode_ns as f64 / 1e6),
                format!("{:.2}ms", r.stats.stitch_ns as f64 / 1e6),
            ]);
        }
        format!(
            "tiled .text: {:.1} MiB, best of {} runs\n\n{}\nanalyzer stages (4 configs, \
             benchmark binary): filter {:.3}ms, tailcall {:.3}ms, bounds {:.3}ms, interproc \
             {:.3}ms ({} entry / {} tail / {} final candidates)\n",
            self.bytes as f64 / (1024.0 * 1024.0),
            self.reps,
            t.render(),
            self.stage.filter_ns as f64 / 1e6,
            self.stage.tailcall_ns as f64 / 1e6,
            self.stage.boundaries_ns as f64 / 1e6,
            self.stage.interproc_ns as f64 / 1e6,
            self.stage.entry_candidates,
            self.stage.tail_candidates,
            self.stage.final_candidates,
        )
    }

    /// Gates sequential throughput (MB/s) against the newest committed
    /// entry.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        bench::ratio_gate(committed, &self.entry(), "sequential", "mb_per_s", min_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_report() -> PerfReport {
        PerfReport {
            bytes: 2 << 20,
            reps: 3,
            host: bench::host(),
            stage: funseeker::StageStats::default(),
            rows: vec![
                PerfRow {
                    label: "sequential".into(),
                    ms: 10.0,
                    sd_ms: 0.2,
                    mb_per_s: 200.0,
                    stats: SweepStats::default(),
                },
                PerfRow {
                    label: "shard4".into(),
                    ms: 9.0,
                    sd_ms: 0.1,
                    mb_per_s: 222.2,
                    stats: SweepStats::default(),
                },
            ],
        }
    }

    impl PerfReport {
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report();
            r.host.cores_used = g.cores;
            let seq = &mut r.rows[0];
            (seq.mb_per_s, seq.ms, seq.sd_ms) = (g.value, g.ms, g.sd_ms);
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = PerfReport { host: bench::test_host(), ..fake_report() };
        assert_eq!(r.entry().write("golden"), GOLDEN);
    }

    const GOLDEN: &str = r#"    {"label": "golden", "bytes": 2097152, "reps": 3, "cores_used": 2, "avail_par": 8, "tier": "avx2", "rows": [
      {"config": "sequential", "ms": 10.000, "sd_ms": 0.200, "mb_per_s": 200.0, "fast_path_rate": 0.0000, "insns": 0},
      {"config": "shard4", "ms": 9.000, "sd_ms": 0.100, "mb_per_s": 222.2, "fast_path_rate": 0.0000, "insns": 0}
    ]}"#;

    #[test]
    fn quick_measurement_produces_sane_rows() {
        let report = run(true);
        assert!(report.bytes >= 2 << 20);
        let labels: Vec<&str> = report.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["sequential", "shard2", "shard4", "shard8", "prepare", "prepare_par8"]);
        for row in &report.rows {
            assert!(row.ms > 0.0, "{}: no time measured", row.label);
            assert!(row.mb_per_s > 0.0, "{}: no throughput", row.label);
            assert!(row.sd_ms >= 0.0 && row.sd_ms.is_finite(), "{}: bad sd", row.label);
        }
        let seq = &report.rows[0];
        // The adaptive fix: no shard configuration may lose to the
        // sequential sweep (on a one-worker host they run the same code,
        // so the margin only absorbs timer noise).
        for shard in &report.rows[1..4] {
            assert!(
                shard.mb_per_s >= 0.8 * seq.mb_per_s,
                "{} ({:.1} MB/s) slower than sequential ({:.1} MB/s)",
                shard.label,
                shard.mb_per_s,
                seq.mb_per_s
            );
        }
        assert!(seq.stats.insns > 100_000, "tiled text should decode to many insns");
        assert!(seq.stats.fast_path_rate() > 0.1, "compiler code hits the fast path");
        // Small-input regression guard: the benchmark binary's .text is a
        // few KiB — far below the parallel work threshold — so prepare
        // must have swept it sequentially (one shard, no stitch), and the
        // fanned-out prepare must stay within noise of the single one
        // per binary instead of the old 8×-slower reading.
        let prep = report.rows.iter().find(|r| r.label == "prepare").expect("prepare row");
        let par8 = report.rows.iter().find(|r| r.label == "prepare_par8").expect("par8 row");
        assert_eq!(prep.stats.shards, 1, "small binary must take the sequential sweep path");
        assert!(
            par8.ms <= 3.0 * prep.ms,
            "per-binary parallel prepare ({:.3} ms) should track sequential ({:.3} ms)",
            par8.ms,
            prep.ms
        );
        assert!(report.stage.total_ns() > 0, "analyzer stage counters must be charged");
        assert!(report.stage.final_candidates > 0);
        assert!(!report.render().is_empty());
    }
}
