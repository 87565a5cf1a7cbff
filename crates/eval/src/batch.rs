//! Batch-engine throughput measurement — the `experiments -- batch`
//! subcommand.
//!
//! Builds a deterministic corpus with the duplicate structure real
//! corpora have (the same binary recurring across optimization sweeps
//! and reruns — each generated image appears several times), then
//! measures binaries/second through five drivers:
//!
//! | row | what it measures |
//! |---|---|
//! | `flat` | the pre-batch driver: one `par_map` task per binary, fresh `prepare` + identify, no cache |
//! | `nocache` | the pipelined scheduler with caching *and dedup off* — isolates pipeline + scratch-arena gains |
//! | `cold` | the full engine, empty cache — dedup + pipeline + scratch |
//! | `warm` | a rerun against the populated in-memory cache — hash, look up, done |
//! | `disk` | a fresh process's view: empty memory cache served by the on-disk layer |
//!
//! Results append to the `BENCH_batch.json` trajectory through
//! [`crate::bench`], and `--check` gates CI on the newest committed
//! `cold` row. Peak RSS comes from `VmHWM` in
//! `/proc/self/status`, covering the whole process including the
//! corpus itself.

use std::sync::Arc;
use std::time::Instant;

use funseeker::{prepare, Analysis, Config, FunSeeker};
use funseeker_batch::{inflight_estimate, Ballast, BatchOptions, ResultCache};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams};
use funseeker_elf::Image;

use crate::bench::{self, Entry, Host, Report, Row, Value};
use crate::runner::par_map_timed;

/// Seed for the benchmark corpus (shared with [`crate::perf`]).
const SEED: u64 = 0xBE7C4;

/// How many times each generated image recurs in the corpus.
const DUPLICATES: usize = 3;

/// One measured driver.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Driver name (`flat`, `nocache`, `cold`, `warm`, `disk`).
    pub label: String,
    /// Best-of-N wall time in milliseconds for the whole corpus.
    pub ms: f64,
    /// Sample standard deviation of the wall time over the reps, in
    /// milliseconds — the run-to-run noise behind `ms`.
    pub sd_ms: f64,
    /// Corpus binaries analyzed per second (each under all four Table II
    /// configurations).
    pub bins_per_s: f64,
    /// Result-cache hit rate observed on the measured run.
    pub hit_rate: f64,
    /// Distinct images the run actually analyzed.
    pub unique_images: usize,
}

/// The full measurement: corpus description plus one row per driver.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Binaries in the corpus (after duplication).
    pub binaries: usize,
    /// Distinct images before duplication.
    pub distinct: usize,
    /// Configurations analyzed per binary.
    pub configs: usize,
    /// Repetitions per row (the minimum is reported).
    pub reps: usize,
    /// `VmHWM` of the process at the end of the measurement, in KiB.
    pub peak_rss_kb: u64,
    /// Execution environment of the run (pool width, host cores,
    /// kernel tier).
    pub host: Host,
    /// Core-analyzer per-stage counters from the cold driver's measured
    /// run (see [`funseeker::StageStats`]).
    pub stage: funseeker::StageStats,
    /// Measured drivers.
    pub rows: Vec<BatchRow>,
}

/// Peak resident set size of this process (`VmHWM`), in KiB; 0 when
/// `/proc` is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// The benchmark corpus: a deterministic dataset with each image
/// repeated [`DUPLICATES`] times, interleaved so duplicates are not
/// adjacent (the scheduler must find them by content, not position).
/// Shared with the [`crate::serve`] load harness so the daemon is
/// measured over exactly the corpus the batch engine is.
pub(crate) fn corpus(quick: bool) -> (Vec<Vec<u8>>, usize) {
    let mut params = DatasetParams::tiny();
    if !quick {
        params.programs = (3, 2, 3);
        params.configs = BuildConfig::grid();
    }
    let ds = Dataset::generate(&params, SEED);
    let distinct = ds.binaries.len();
    let mut images = Vec::with_capacity(distinct * DUPLICATES);
    for round in 0..DUPLICATES {
        for bin in &ds.binaries {
            let _ = round;
            images.push(bin.bytes.clone());
        }
    }
    (images, distinct)
}

fn total_functions(results: &[Vec<Option<Arc<Analysis>>>]) -> usize {
    results
        .iter()
        .flat_map(|per_config| per_config.iter())
        .map(|a| a.as_ref().map_or(0, |a| a.functions.len()))
        .sum()
}

/// Runs the measurement. `quick` shrinks the corpus and repetition
/// count for CI smoke use.
pub fn run(quick: bool) -> BatchReport {
    let (images, distinct) = corpus(quick);
    let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
    // 5 reps in full mode: the first cold repetition pays every
    // worker's scratch/plan arena growth, so best-of needs a couple of
    // steady-state samples behind it.
    let reps = if quick { 2 } else { 5 };
    let n = images.len();
    let mut rows = Vec::new();
    let mut push = |label: &str, samples: &[f64], hit_rate: f64, unique: usize| {
        let (best_s, sd_s) = bench::best_and_sd(samples);
        rows.push(BatchRow {
            label: label.to_owned(),
            ms: best_s * 1e3,
            sd_ms: sd_s * 1e3,
            bins_per_s: n as f64 / best_s,
            hit_rate,
            unique_images: unique,
        });
    };

    // Warm-up: initialize the pool, fault the corpus in.
    let _ = funseeker_batch::hash_bytes(&images[0]);
    let _ = funseeker_pool::global().workers();

    // ---- flat: the pre-batch driver. One task per binary, fresh
    // front end, fresh per-call scratch, no cache, no dedup.
    let mut flat_functions = 0usize;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let outs = par_map_timed(&images, |image| {
            let prepared = match prepare(image) {
                Ok(p) => p,
                Err(_) => return 0usize,
            };
            configs
                .iter()
                .map(|&c| FunSeeker::with_config(c).identify_prepared(&prepared).functions.len())
                .sum()
        });
        samples.push(t.elapsed().as_secs_f64());
        flat_functions = outs.iter().map(|(f, _)| f).sum();
    }
    push("flat", &samples, 0.0, n);

    // ---- nocache: pipeline + scratch arenas only.
    let mut samples = Vec::with_capacity(reps);
    let mut last_stats = None;
    let nocache_opts = BatchOptions { cache: false, ..Default::default() };
    for _ in 0..reps {
        let t = Instant::now();
        let out = funseeker_batch::run(&images, &configs, &nocache_opts);
        samples.push(t.elapsed().as_secs_f64());
        assert_eq!(total_functions(&out.results), flat_functions, "nocache diverged from flat");
        last_stats = Some(out.stats);
    }
    push("nocache", &samples, 0.0, last_stats.expect("ran").unique_images);

    // ---- cold: the full engine from an empty cache, fresh every rep.
    let mut samples = Vec::with_capacity(reps);
    let mut cold_cache = ResultCache::new();
    let mut cold_stats = None;
    for _ in 0..reps {
        let cache = ResultCache::new();
        let t = Instant::now();
        let out =
            funseeker_batch::run_with_cache(&images, &configs, &BatchOptions::default(), &cache);
        samples.push(t.elapsed().as_secs_f64());
        assert_eq!(total_functions(&out.results), flat_functions, "cold diverged from flat");
        cold_stats = Some(out.stats);
        cold_cache = cache;
    }
    let cold_stats = cold_stats.expect("ran");
    push("cold", &samples, cold_stats.hit_rate(), cold_stats.unique_images);
    let cold_stage = cold_stats.stage;

    // ---- warm: rerun against the last cold run's populated cache.
    let mut samples = Vec::with_capacity(reps);
    let mut warm_stats = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = funseeker_batch::run_with_cache(
            &images,
            &configs,
            &BatchOptions::default(),
            &cold_cache,
        );
        samples.push(t.elapsed().as_secs_f64());
        assert_eq!(total_functions(&out.results), flat_functions, "warm diverged from flat");
        warm_stats = Some(out.stats);
    }
    let warm_stats = warm_stats.expect("ran");
    push("warm", &samples, warm_stats.hit_rate(), warm_stats.unique_images);

    // ---- disk: an empty memory cache backed by a populated disk layer
    // (a fresh process rerunning yesterday's corpus).
    let dir = std::env::temp_dir().join(format!("funseeker-batch-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_opts = BatchOptions { disk_cache: Some(dir.clone()), ..Default::default() };
    // Populate the disk layer (untimed).
    let _ = funseeker_batch::run(&images, &configs, &disk_opts);
    let mut samples = Vec::with_capacity(reps);
    let mut disk_stats = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = funseeker_batch::run(&images, &configs, &disk_opts);
        samples.push(t.elapsed().as_secs_f64());
        assert_eq!(total_functions(&out.results), flat_functions, "disk diverged from flat");
        disk_stats = Some(out.stats);
    }
    let disk_stats = disk_stats.expect("ran");
    // On a fresh memory cache every lookup is a "miss"; the disk row's
    // hit rate is the fraction of those misses the disk layer served.
    let disk_rate = if disk_stats.cache_misses == 0 {
        0.0
    } else {
        disk_stats.disk_hits as f64 / disk_stats.cache_misses as f64
    };
    push("disk", &samples, disk_rate, disk_stats.unique_images);
    let _ = std::fs::remove_dir_all(&dir);

    BatchReport {
        binaries: n,
        distinct,
        configs: configs.len(),
        reps,
        peak_rss_kb: peak_rss_kb(),
        host: bench::host(),
        stage: cold_stage,
        rows,
    }
}

impl Report for BatchReport {
    const SCHEMA: &'static str = bench::BATCH;
    const DOING: &'static str = "measuring batch-engine throughput";
    const TITLE: &'static str = "Batch engine performance";

    fn entry(&self) -> Entry {
        let rows = self.rows.iter().map(|r| {
            Row::new(
                &r.label,
                vec![
                    ("ms", Value::F3(r.ms)),
                    ("sd_ms", Value::F3(r.sd_ms)),
                    ("bins_per_s", Value::F1(r.bins_per_s)),
                    ("hit_rate", Value::F4(r.hit_rate)),
                    ("unique", r.unique_images.into()),
                ],
            )
        });
        Entry {
            header: vec![
                ("binaries", self.binaries.into()),
                ("configs", self.configs.into()),
                ("reps", self.reps.into()),
                ("peak_rss_kb", self.peak_rss_kb.into()),
            ],
            host: self.host.clone(),
            rows: rows.collect(),
        }
    }

    fn render(&self) -> String {
        format!(
            "corpus: {} binaries ({} distinct ×{DUPLICATES}), {} configs each, best of {} runs, \
             peak RSS {:.1} MiB\n\n{}\ncold analyze stages: filter {:.2}ms, tailcall {:.2}ms, \
             bounds {:.2}ms, interproc {:.2}ms ({} entry / {} tail / {} final candidates)\n",
            self.binaries,
            self.distinct,
            self.configs,
            self.reps,
            self.peak_rss_kb as f64 / 1024.0,
            self.entry().table().render(),
            self.stage.filter_ns as f64 / 1e6,
            self.stage.tailcall_ns as f64 / 1e6,
            self.stage.boundaries_ns as f64 / 1e6,
            self.stage.interproc_ns as f64 / 1e6,
            self.stage.entry_candidates,
            self.stage.tail_candidates,
            self.stage.final_candidates,
        )
    }

    /// Gates cold-cache throughput (binaries/s) against the newest
    /// committed entry.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        bench::ratio_gate(committed, &self.entry(), "cold", "bins_per_s", min_ratio)
    }
}

// ---------------------------------------------------------------------
// Paper-scale ingestion: the `--corpus-scale N` knob
// ---------------------------------------------------------------------

/// Hard cap on `--corpus-scale` (the paper's evaluation corpus is
/// ~8,000 binaries).
pub const SCALE_CAP: usize = 8000;

/// In-flight byte budget for the scaled run's [`Ballast`]. Deliberately
/// far below the corpus total so the RSS bound below is a real claim
/// about streaming ingestion, not slack.
const SCALE_INFLIGHT_BYTES: usize = 32 << 20;

/// Result of the paper-scale on-disk ingestion measurement: `N`
/// content-unique binaries written to disk, then streamed through the
/// analyzer via memory-mapped [`Image`]s under a [`Ballast`] admission
/// budget far smaller than the corpus.
#[derive(Debug, Clone)]
pub struct ScaledReport {
    /// Binaries written and analyzed.
    pub binaries: usize,
    /// Distinct generated base images the corpus was derived from.
    pub distinct_bases: usize,
    /// Total on-disk corpus size in bytes.
    pub total_bytes: u64,
    /// Wall time for the ingestion sweep, in milliseconds.
    pub ms: f64,
    /// Binaries analyzed per second.
    pub bins_per_s: f64,
    /// Total functions identified (sanity anchor: must be nonzero).
    pub functions: usize,
    /// Fraction of binaries ingested via `mmap` (vs the read fallback).
    pub mapped_fraction: f64,
    /// `VmHWM` immediately before the timed sweep, in KiB.
    pub rss_before_kb: u64,
    /// `VmHWM` after the sweep, in KiB.
    pub peak_rss_kb: u64,
    /// The `Ballast` cap the sweep was admitted under, in bytes.
    pub max_inflight_bytes: usize,
    /// Execution environment.
    pub host: Host,
}

/// Runs the paper-scale ingestion measurement: writes `scale`
/// content-unique binaries (base corpus images made distinct by a
/// trailing tag outside any ELF-described region, so analysis output is
/// unchanged while every content hash differs) to a temp directory,
/// then analyzes all of them from disk. Each worker admits the
/// binary's in-flight estimate against a shared [`Ballast`], maps it
/// with [`Image::load`], analyzes, and unmaps before releasing — so
/// peak RSS tracks the admission budget, not the corpus size.
pub fn run_scaled(scale: usize, quick: bool) -> ScaledReport {
    let scale = scale.clamp(1, SCALE_CAP);
    let mut params = DatasetParams::tiny();
    if !quick {
        params.programs = (3, 2, 3);
        params.configs = BuildConfig::grid();
    }
    let ds = Dataset::generate(&params, SEED);
    let bases: Vec<&[u8]> = ds.binaries.iter().map(|b| b.bytes.as_slice()).collect();

    let dir = std::env::temp_dir().join(format!("funseeker-corpus-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scaled-corpus dir");
    let mut paths = Vec::with_capacity(scale);
    let mut total_bytes = 0u64;
    // One reused buffer: the build phase must not set a high-water mark
    // the streaming claim below would then hide under.
    let mut buf = Vec::new();
    for i in 0..scale {
        let base = bases[i % bases.len()];
        buf.clear();
        buf.extend_from_slice(base);
        buf.extend_from_slice(&(i as u64).to_le_bytes());
        let path = dir.join(format!("{i:05}.bin"));
        std::fs::write(&path, &buf).expect("write scaled-corpus binary");
        total_bytes += buf.len() as u64;
        paths.push(path);
    }
    drop(buf);

    let _ = funseeker_pool::global().workers();
    let rss_before_kb = peak_rss_kb();
    let ballast = Ballast::new(SCALE_INFLIGHT_BYTES);
    let seeker = FunSeeker::with_config(Config::c4());
    let t = Instant::now();
    let outs = par_map_timed(&paths, |path| {
        let len = std::fs::metadata(path).map(|m| m.len() as usize).unwrap_or(0);
        let est = inflight_estimate(len);
        ballast.acquire(est);
        let out = match Image::load(path) {
            Ok(image) => {
                let mapped = image.is_mapped();
                let functions = seeker.identify(&image).map(|a| a.functions.len()).unwrap_or(0);
                (functions, mapped)
            }
            Err(_) => (0, false),
        };
        // `out` dropped the Image already (analysis holds no borrow);
        // release only after the unmap so the budget really bounds
        // resident mapped bytes.
        ballast.release(est);
        out
    });
    let wall = t.elapsed().as_secs_f64();
    let peak_after_kb = peak_rss_kb();
    let _ = std::fs::remove_dir_all(&dir);

    let functions: usize = outs.iter().map(|((f, _), _)| f).sum();
    let mapped = outs.iter().filter(|((_, m), _)| *m).count();
    ScaledReport {
        binaries: scale,
        distinct_bases: bases.len(),
        total_bytes,
        ms: wall * 1e3,
        bins_per_s: scale as f64 / wall,
        functions,
        mapped_fraction: mapped as f64 / scale as f64,
        rss_before_kb,
        peak_rss_kb: peak_after_kb,
        max_inflight_bytes: SCALE_INFLIGHT_BYTES,
        host: bench::host(),
    }
}

impl ScaledReport {
    /// The streaming-ingestion claim: the sweep's RSS growth is bounded
    /// by a small multiple of the admission budget plus fixed process
    /// slack — never by the corpus size. `Err` carries the same message
    /// with the numbers that broke the bound.
    pub fn rss_bounded(&self) -> Result<String, String> {
        // 3× the budget (the in-flight estimate is deliberately rough)
        // plus 128 MiB of fixed slack for the pool, allocator, and
        // page-cache accounting noise.
        let bound_kb = 3 * (self.max_inflight_bytes as u64 / 1024) + (128 << 10);
        let grew_kb = self.peak_rss_kb.saturating_sub(self.rss_before_kb);
        let msg = format!(
            "scaled ingestion: {} binaries ({:.1} MiB on disk), RSS grew {:.1} MiB \
             (bound {:.1} MiB, ballast {:.1} MiB)",
            self.binaries,
            self.total_bytes as f64 / (1 << 20) as f64,
            grew_kb as f64 / 1024.0,
            bound_kb as f64 / 1024.0,
            self.max_inflight_bytes as f64 / (1 << 20) as f64,
        );
        if grew_kb > bound_kb {
            Err(msg)
        } else {
            Ok(msg)
        }
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        format!(
            "corpus-scale: {} binaries ({} bases, {:.1} MiB on disk), {:.0}% mmap-ingested\n\
             {:>10.1} ms, {:.1} binaries/s, {} functions\n\
             RSS: {:.1} MiB before sweep, {:.1} MiB peak, ballast {:.1} MiB\n",
            self.binaries,
            self.distinct_bases,
            self.total_bytes as f64 / (1 << 20) as f64,
            self.mapped_fraction * 100.0,
            self.ms,
            self.bins_per_s,
            self.functions,
            self.rss_before_kb as f64 / 1024.0,
            self.peak_rss_kb as f64 / 1024.0,
            self.max_inflight_bytes as f64 / (1 << 20) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_report() -> BatchReport {
        BatchReport {
            binaries: 20,
            distinct: 10,
            configs: 4,
            reps: 2,
            peak_rss_kb: 100_000,
            host: bench::host(),
            stage: funseeker::StageStats::default(),
            rows: vec![
                BatchRow {
                    label: "flat".into(),
                    ms: 100.0,
                    sd_ms: 2.0,
                    bins_per_s: 200.0,
                    hit_rate: 0.0,
                    unique_images: 20,
                },
                BatchRow {
                    label: "cold".into(),
                    ms: 40.0,
                    sd_ms: 1.0,
                    bins_per_s: 500.0,
                    hit_rate: 0.66,
                    unique_images: 10,
                },
                BatchRow {
                    label: "warm".into(),
                    ms: 2.0,
                    sd_ms: 0.1,
                    bins_per_s: 10_000.0,
                    hit_rate: 1.0,
                    unique_images: 10,
                },
            ],
        }
    }

    impl BatchReport {
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report();
            r.host.cores_used = g.cores;
            let cold = &mut r.rows[1];
            (cold.bins_per_s, cold.ms, cold.sd_ms) = (g.value, g.ms, g.sd_ms);
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = BatchReport { host: bench::test_host(), ..fake_report() };
        assert_eq!(r.entry().write("golden"), GOLDEN);
    }

    const GOLDEN: &str = r#"    {"label": "golden", "binaries": 20, "configs": 4, "reps": 2, "peak_rss_kb": 100000, "cores_used": 2, "avail_par": 8, "tier": "avx2", "rows": [
      {"config": "flat", "ms": 100.000, "sd_ms": 2.000, "bins_per_s": 200.0, "hit_rate": 0.0000, "unique": 20},
      {"config": "cold", "ms": 40.000, "sd_ms": 1.000, "bins_per_s": 500.0, "hit_rate": 0.6600, "unique": 10},
      {"config": "warm", "ms": 2.000, "sd_ms": 0.100, "bins_per_s": 10000.0, "hit_rate": 1.0000, "unique": 10}
    ]}"#;

    #[test]
    fn scaled_ingestion_is_mapped_and_rss_bounded() {
        let report = run_scaled(64, true);
        assert_eq!(report.binaries, 64);
        assert!(report.functions > 0, "scaled corpus must identify functions");
        // The padding tag keeps every binary content-unique.
        assert!(report.total_bytes > 0);
        if std::env::var("FUNSEEKER_MMAP").as_deref() != Ok("0") {
            assert!(
                report.mapped_fraction > 0.99,
                "regular files must ingest via mmap (got {:.0}%)",
                report.mapped_fraction * 100.0
            );
        }
        report.rss_bounded().expect("RSS growth bounded by the admission budget");
        assert!(!report.render().is_empty());
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let kb = peak_rss_kb();
        assert!(kb > 1_000, "a Rust test process uses more than 1 MiB (got {kb} KiB)");
    }

    #[test]
    fn quick_measurement_hits_the_acceptance_bars() {
        let report = run(true);
        let get = |label: &str| {
            report.rows.iter().find(|r| r.label == label).unwrap_or_else(|| {
                panic!("row {label} missing");
            })
        };
        let (flat, nocache) = (get("flat"), get("nocache"));
        let (cold, warm, disk) = (get("cold"), get("warm"), get("disk"));
        assert!(report.binaries > report.distinct, "corpus must contain duplicates");
        assert_eq!(cold.unique_images, report.distinct);
        assert_eq!(nocache.unique_images, report.binaries, "nocache must not dedup");
        assert!(warm.hit_rate > 0.99, "warm rerun hits everything");
        assert!(disk.hit_rate > 0.99, "disk layer serves every fresh-cache miss");
        // The headline acceptance bars (quick mode, so with margin
        // removed: cold strictly faster than flat, warm ≥ 5× flat; the
        // committed full-mode numbers in BENCH_batch.json carry the
        // real ≥1.5×/≥10× evidence).
        assert!(
            cold.bins_per_s > flat.bins_per_s,
            "cold {:.1} <= flat {:.1}",
            cold.bins_per_s,
            flat.bins_per_s
        );
        assert!(
            warm.bins_per_s > 5.0 * flat.bins_per_s,
            "warm {:.1} <= 5x flat {:.1}",
            warm.bins_per_s,
            flat.bins_per_s
        );
        assert!(report.peak_rss_kb > 0);
        assert!(report.stage.total_ns() > 0, "cold run must charge stage counters");
        assert!(report.stage.final_candidates > 0);
        assert!(!report.render().is_empty());
    }
}
