//! Sweep performance measurement — the `experiments -- perf` subcommand.
//!
//! Builds a deterministic benchmark input (the largest x86-64 GCC binary
//! of a tiny corpus, its `.text` tiled to a few MiB), times the
//! sequential and sharded sweeps plus the full `prepare()` pipeline on
//! it, and reports per-stage counters from [`SweepStats`]. The numbers
//! can be emitted as a machine-readable JSON *trajectory* file
//! (`BENCH_sweep.json`): each run appends an entry, so the committed
//! file records how sweep throughput evolved across changes, and CI can
//! fail a run whose throughput regresses against the last committed
//! entry (see [`check_against`]).
//!
//! Everything here is hand-rolled line-oriented JSON — the workspace has
//! no serde — and the parser in [`last_mb_per_s`] only needs to find the
//! newest `"mb_per_s"` value for a label, so it reads the file as lines,
//! not as a JSON tree.

use std::time::Instant;

use funseeker::prepare;
use funseeker_corpus::{Arch, BuildConfig, Compiler, Dataset, DatasetParams};
use funseeker_disasm::{par_sweep, sweep_all, Mode, SweepStats};
use funseeker_elf::Elf;

/// Seed for the benchmark corpus — fixed so every run times the same
/// bytes (shared with the criterion benches' dataset seed).
const SEED: u64 = 0xBE7C4;

/// Trajectory schema tag for `BENCH_sweep.json`.
pub(crate) const SCHEMA: &str = "funseeker-bench-sweep-v1";

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
    pub host: crate::host::Host,
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
    let (best, sd) = crate::variance::best_and_sd(&samples);
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
    let (best, sd) = crate::variance::best_and_sd(&samples);
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
    let (best_par, sd_par) = crate::variance::best_and_sd(&samples);
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

    PerfReport { bytes: code.len(), reps, host: crate::host::host(), stage, rows }
}

impl PerfReport {
    /// Human-readable per-stage report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "tiled .text: {:.1} MiB, best of {} runs\n\n",
            self.bytes as f64 / (1024.0 * 1024.0),
            self.reps
        ));
        s.push_str(&format!(
            "{:<12} {:>9} {:>8} {:>9} {:>7} {:>10} {:>10} {:>9} {:>9}\n",
            "config", "ms", "±sd", "MB/s", "shards", "insns", "fast-path", "decode", "stitch"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<12} {:>9.2} {:>8.2} {:>9.1} {:>7} {:>10} {:>9.1}% {:>8.2}ms {:>7.2}ms\n",
                r.label,
                r.ms,
                r.sd_ms,
                r.mb_per_s,
                r.stats.shards,
                r.stats.insns,
                r.stats.fast_path_rate() * 100.0,
                r.stats.decode_ns as f64 / 1e6,
                r.stats.stitch_ns as f64 / 1e6,
            ));
        }
        s.push_str(&format!(
            "\nanalyzer stages (4 configs, benchmark binary): filter {:.3}ms, tailcall \
             {:.3}ms, bounds {:.3}ms, interproc {:.3}ms ({} entry / {} tail / {} final \
             candidates)\n",
            self.stage.filter_ns as f64 / 1e6,
            self.stage.tailcall_ns as f64 / 1e6,
            self.stage.boundaries_ns as f64 / 1e6,
            self.stage.interproc_ns as f64 / 1e6,
            self.stage.entry_candidates,
            self.stage.tail_candidates,
            self.stage.final_candidates,
        ));
        s
    }

    /// The trajectory entry for this run, as a JSON object literal.
    ///
    /// `label` names the code state being measured (e.g. `pre`, `post`,
    /// a short description of a change).
    pub fn json_entry(&self, label: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "    {{\"label\": {:?}, \"bytes\": {}, \"reps\": {}, {}, \"rows\": [\n",
            label,
            self.bytes,
            self.reps,
            self.host.json_fields()
        ));
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"config\": {:?}, \"ms\": {:.3}, \"sd_ms\": {:.3}, \
                 \"mb_per_s\": {:.1}, \"fast_path_rate\": {:.4}, \"insns\": {}}}{}\n",
                r.label,
                r.ms,
                r.sd_ms,
                r.mb_per_s,
                r.stats.fast_path_rate(),
                r.stats.insns,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("    ]}");
        s
    }

    /// Wraps [`PerfReport::json_entry`] values into a complete
    /// `BENCH_sweep.json` document.
    pub fn json_document(entries: &[String]) -> String {
        crate::trajectory::json_document(SCHEMA, entries)
    }

    /// Appends this run as a new entry to an existing document (or
    /// starts a fresh one when `existing` is `None`/unparsable).
    pub fn append_to_document(&self, existing: Option<&str>, label: &str) -> String {
        crate::trajectory::append_entry(existing, SCHEMA, self.json_entry(label))
    }
}

/// The newest `mb_per_s` recorded for `config` in a committed
/// `BENCH_sweep.json`, if any.
pub fn last_mb_per_s(doc: &str, config: &str) -> Option<f64> {
    crate::trajectory::last_value(doc, config, "mb_per_s")
}

/// CI regression gate: compares the fresh report's sequential throughput
/// against the newest committed entry, failing if it fell below
/// `min_ratio` (e.g. `0.7` = fail on a >30 % regression). The threshold
/// is **tolerance-aware**: it is widened by the run-to-run noise both
/// sides recorded (see [`crate::variance::noise_tolerance`]), so jitter
/// on a loaded machine doesn't trip the gate.
pub fn check_against(
    committed: &str,
    fresh: &PerfReport,
    min_ratio: f64,
) -> Result<String, String> {
    let Some(baseline) = last_mb_per_s(committed, "sequential") else {
        return Err("committed BENCH_sweep.json has no sequential entry".into());
    };
    let Some(now) = fresh.rows.iter().find(|r| r.label == "sequential") else {
        return Err("fresh measurement has no sequential row".into());
    };
    let committed_cores = crate::trajectory::last_row_meta(committed, "sequential", "cores_used");
    if !fresh.host.comparable_with(committed_cores) {
        return Ok(format!(
            "skipped: committed sequential entry was measured with {} cores, this run uses {} — \
             not comparable",
            committed_cores.unwrap_or(0.0),
            fresh.host.cores_used
        ));
    }
    let rel_committed = crate::trajectory::last_value(committed, "sequential", "sd_ms")
        .zip(crate::trajectory::last_value(committed, "sequential", "ms"))
        .map_or(0.0, |(sd, ms)| if ms > 0.0 { sd / ms } else { 0.0 });
    let rel_fresh = if now.ms > 0.0 { now.sd_ms / now.ms } else { 0.0 };
    let tol = crate::variance::noise_tolerance(rel_committed, rel_fresh);
    let threshold = min_ratio * (1.0 - tol);
    let ratio = now.mb_per_s / baseline;
    let msg = format!(
        "sequential sweep: {:.1} MB/s vs committed {:.1} MB/s ({:.0}% of baseline, \
         threshold {:.0}% incl. {:.0}% noise tolerance)",
        now.mb_per_s,
        baseline,
        ratio * 100.0,
        threshold * 100.0,
        tol * 100.0,
    );
    if ratio < threshold {
        Err(msg)
    } else {
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> PerfReport {
        PerfReport {
            bytes: 2 << 20,
            reps: 3,
            host: crate::host::host(),
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

    #[test]
    fn json_round_trip_and_append() {
        let r = fake_report();
        let doc = r.append_to_document(None, "pre");
        assert!(doc.contains("funseeker-bench-sweep-v1"));
        assert_eq!(last_mb_per_s(&doc, "sequential"), Some(200.0));
        // Appending keeps the old entry and the parser sees the newest.
        let mut r2 = fake_report();
        r2.rows[0].mb_per_s = 321.0;
        let doc2 = r2.append_to_document(Some(&doc), "post");
        assert_eq!(crate::trajectory::extract_entries(&doc2).len(), 2);
        assert!(doc2.contains("\"label\": \"pre\""));
        assert_eq!(last_mb_per_s(&doc2, "sequential"), Some(321.0));
        assert_eq!(last_mb_per_s(&doc2, "shard4"), Some(222.2));
        assert_eq!(last_mb_per_s(&doc2, "shard16"), None);
    }

    #[test]
    fn regression_gate_passes_and_fails() {
        let r = fake_report();
        let doc = r.append_to_document(None, "pre");
        assert!(check_against(&doc, &r, 0.7).is_ok());
        let mut slow = fake_report();
        slow.rows[0].mb_per_s = 100.0; // 50% of committed
        assert!(check_against(&doc, &slow, 0.7).is_err());
        let mut fastr = fake_report();
        fastr.rows[0].mb_per_s = 500.0;
        assert!(check_against(&doc, &fastr, 0.7).is_ok());
    }

    #[test]
    fn regression_gate_widens_with_recorded_noise() {
        // A run sitting just below the plain threshold passes once its
        // recorded run-to-run noise is taken into account, and the gate
        // still fails a real regression far outside the noise band.
        let mut noisy = fake_report();
        noisy.rows[0].sd_ms = 0.8; // 8% relative noise
        let doc = noisy.append_to_document(None, "pre");
        let mut fresh = fake_report();
        fresh.rows[0].sd_ms = 0.8;
        fresh.rows[0].mb_per_s = 136.0; // 68% of baseline: < 0.7 plain
        let msg = check_against(&doc, &fresh, 0.7).expect("within noise tolerance");
        assert!(msg.contains("noise tolerance"), "{msg}");
        fresh.rows[0].mb_per_s = 90.0; // 45%: regression beyond any tolerance
        assert!(check_against(&doc, &fresh, 0.7).is_err());
    }

    #[test]
    fn regression_gate_skips_on_core_count_mismatch() {
        let mut wide = fake_report();
        wide.host.cores_used = 8;
        let doc = wide.append_to_document(None, "wide");
        let mut narrow = fake_report();
        narrow.host.cores_used = 1;
        narrow.rows[0].mb_per_s = 50.0; // would fail hard if compared
        let msg = check_against(&doc, &narrow, 0.7).expect("mismatched cores must skip");
        assert!(msg.contains("not comparable"), "{msg}");
        // Same width: the gate compares for real again.
        narrow.host.cores_used = 8;
        assert!(check_against(&doc, &narrow, 0.7).is_err());
    }

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
