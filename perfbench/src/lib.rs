//! The FunSeeker benchmark: five seeded workloads run against the real
//! library, the real `funseeker` CLI and the real `funseeker serve`
//! daemon, each checking every output it times.
//!
//! | workload | unit of work | tail |
//! |---|---|---|
//! | `fleet_cold` | one batch pass over a corpus fleet, four configurations, no cache | p95 |
//! | `fleet_update` | the same pass after a version update, served from the disk cache the update filled | p99 |
//! | `cli_large` | one `funseeker <bin>` process on a large stripped binary | p95 |
//! | `serve_mixed` | one SDK request on a persistent connection, open loop at two rates | p99 |
//! | `serve_submit` | one submit-style request: connect, analyze, close, closed loop | p95 |
//!
//! An untraced run reports [`END_TO_END`]; a traced run reports
//! [`PER_LAYER`] and writes its spans to `bench-out/`. See `README.md`.

pub mod cli;
pub mod compare;
pub mod fleet;
pub mod inputs;
pub mod json;
pub mod openloop;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use funseeker::Config;

pub use inputs::Sizes;

/// Every end-to-end metric, with its unit, in the order printed.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("latency_mean_ms", "ms"), ("latency_tail_ms", "ms")];

/// Every per-layer metric, with its unit, in the order printed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("elf.load_ms", "ms"),
    ("core.parse_ms", "ms"),
    ("disasm.sweep_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("harness.other_ms", "ms"),
    ("disasm.sweep_mib_per_s", "MiB/s"),
    ("disasm.fast_path_ratio", "ratio"),
    ("disasm.shards", "count"),
    ("core.endbr_kept_ratio", "ratio"),
    ("batch.hit_ratio", "ratio"),
    ("batch.cache_share", "ratio"),
    ("pool.busy_share", "ratio"),
    ("mem.peak_rss_mib", "MiB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// How many times each run sets its workload up; `setup_s` is the
/// median, so a later change that moves work into set-up shows. Five,
/// because `fleet_update`'s set-up is mostly file creation, whose cost
/// on a shared disk jumps from one second to the next.
pub const SETUPS: usize = 5;

/// Where runs write traces and their scratch inputs, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = "bench-out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch analysis of a corpus fleet with every cache layer cold.
    FleetCold,
    /// The fleet after a version update, served from the disk cache the
    /// update filled.
    FleetUpdate,
    /// Fresh `funseeker <bin>` processes on one large binary.
    CliLarge,
    /// Open-loop SDK traffic to the daemon at two fixed rates.
    ServeMixed,
    /// Closed-loop connect–analyze–close requests to the daemon.
    ServeSubmit,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::FleetCold,
        Workload::FleetUpdate,
        Workload::CliLarge,
        Workload::ServeMixed,
        Workload::ServeSubmit,
    ];

    /// The name used on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCold => "fleet_cold",
            Workload::FleetUpdate => "fleet_update",
            Workload::CliLarge => "cli_large",
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeSubmit => "serve_submit",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports: the highest one the
    /// workload's sample count supports with ten samples beyond it.
    pub fn tail(self) -> f64 {
        match self {
            Workload::FleetCold | Workload::CliLarge | Workload::ServeSubmit => 0.95,
            Workload::FleetUpdate | Workload::ServeMixed => 0.99,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `funseeker` executable.
    pub funseeker: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
}

/// The four Table II configurations, in order.
pub fn table2() -> Vec<Config> {
    Config::table2().iter().map(|&(_, c)| c).collect()
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric { name: name.to_owned(), value, unit: unit.to_owned() }
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Units of work attempted in the measured phase.
    pub attempted: u64,
    /// Units refused or failed (a daemon `BUSY` counts as failed).
    pub failed: u64,
    /// The reported metrics: [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Further readings printed for people, not part of the contract.
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Checks that exactly the metrics of `spec` are present, in order,
    /// with their units, and that every value is finite.
    pub fn check_against(&self, spec: &[(&str, &str)]) -> Result<(), String> {
        let got: Vec<(&str, &str)> =
            self.metrics.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        if got != spec {
            return Err(format!("metric set {got:?} differs from {spec:?}"));
        }
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("{} is not finite ({})", m.name, m.value)),
            None => Ok(()),
        }
    }
}

/// The end-to-end metrics every untraced run reports.
///
/// The central value is the mean, not the median: on a shared VM whose
/// CPUs switch between two speeds for a few hundred milliseconds at a
/// time, a mostly single-threaded unit of work has two modes, and a
/// median jumps between them from run to run while a mean moves
/// smoothly with the mix. The median is printed as a note.
pub fn end_to_end(setup_s: &[f64], latencies_ms: &[f64], tail: f64) -> Result<Vec<Metric>, String> {
    let n = latencies_ms.len();
    if !stats::supported(n, 0.5) {
        return Err(format!("only {n} samples measured; at least 20 are needed"));
    }
    let tail_ms = stats::percentile(latencies_ms, tail).expect("non-empty");
    Ok(vec![
        Metric::new("setup_s", stats::median(setup_s).unwrap_or(0.0), "s"),
        Metric::new("latency_mean_ms", stats::mean(latencies_ms), "ms"),
        Metric::new("latency_tail_ms", tail_ms, "ms"),
    ])
}

/// Notes on a latency sample: its median, its size and how many
/// samples lie beyond the reported tail.
pub fn sample_notes(latencies_ms: &[f64], tail: f64) -> Vec<Metric> {
    let n = latencies_ms.len();
    vec![
        Metric::new("latency_p50_ms", stats::percentile(latencies_ms, 0.5).unwrap_or(0.0), "ms"),
        Metric::new("samples", n as f64, "count"),
        Metric::new("tail_percentile", tail * 100.0, "%"),
        Metric::new("samples_beyond_tail", stats::samples_beyond(n, tail) as f64, "count"),
    ]
}

/// A scratch directory for one set-up, removed when dropped.
#[derive(Debug)]
pub struct Workdir {
    path: PathBuf,
}

impl Workdir {
    /// Creates an empty `bench-out/work-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> Result<Workdir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUT_DIR).join(format!("work-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Workdir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes `bytes` to `path`, naming the path on failure.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs `setup` [`SETUPS`] times, dropping each result before the next
/// starts, and returns the last result with every set-up's seconds.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut seconds = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), seconds))
}

/// Runs `step` until `seconds` have passed (at least once); returns how
/// many steps ran.
pub fn for_seconds(
    seconds: f64,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<u64, String> {
    let t0 = Instant::now();
    let mut n = 0u64;
    while n == 0 || t0.elapsed().as_secs_f64() < seconds {
        step()?;
        n += 1;
    }
    Ok(n)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let outcome = match opts.workload {
        Workload::FleetCold => fleet::run(opts, false),
        Workload::FleetUpdate => fleet::run(opts, true),
        Workload::CliLarge => cli::run(opts),
        Workload::ServeMixed => serve::run(opts, false),
        Workload::ServeSubmit => serve::run(opts, true),
    }?;
    outcome.check_against(if opts.trace { PER_LAYER } else { END_TO_END })?;
    Ok(outcome)
}

/// Metrics as a JSON object of `{"value": …, "unit": …}` members.
pub fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let members = metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::number(m.value)?,
                json::quote(&m.unit)
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", members.join(", ")))
}

/// The result line the benchmark prints last.
pub fn result_line(outcome: &Outcome) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)?
    ))
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `elf.load_ms`: mean `Image::load` time per image.
    pub load_ms: f64,
    /// `core.parse_ms`: mean parse time per analyzed image.
    pub parse_ms: f64,
    /// `disasm.sweep_ms`: mean sweep time per analyzed image.
    pub sweep_ms: f64,
    /// `core.analyze_ms`: mean analysis time after the sweep per
    /// analyzed image, all requested configurations together.
    pub analyze_ms: f64,
    /// `harness.other_ms`: mean time per unit outside every library
    /// layer span.
    pub other_ms: f64,
    /// `disasm.sweep_mib_per_s`: code bytes swept per sweep second.
    pub sweep_mib_per_s: f64,
    /// `disasm.fast_path_ratio`: instructions decoded without the full
    /// decoder, over all decoded.
    pub fast_path_ratio: f64,
    /// `disasm.shards`: mean shards per sweep.
    pub shards: f64,
    /// `core.endbr_kept_ratio`: end-branches FILTERENDBR keeps as entry
    /// candidates, over all end-branches found.
    pub endbr_kept_ratio: f64,
    /// `batch.hit_ratio`: cache lookups served, over lookups.
    pub hit_ratio: f64,
    /// `batch.cache_share`: share of layer time spent hashing, probing,
    /// decoding and storing cache entries.
    pub cache_share: f64,
    /// `pool.busy_share`: library-layer busy time over available CPU
    /// time.
    pub busy_share: f64,
    /// `mem.peak_rss_mib`: peak resident set of the analyzing process.
    pub peak_rss_mib: f64,
    /// `trace.coverage`: unit time covered by measured spans.
    pub coverage: f64,
    /// `trace.overhead_pct`: traced over untraced median unit time,
    /// minus one, in percent.
    pub overhead_pct: f64,
}

impl Layers {
    /// The metrics, named and in order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.load_ms,
            self.parse_ms,
            self.sweep_ms,
            self.analyze_ms,
            self.other_ms,
            self.sweep_mib_per_s,
            self.fast_path_ratio,
            self.shards,
            self.endbr_kept_ratio,
            self.hit_ratio,
            self.cache_share,
            self.busy_share,
            self.peak_rss_mib,
            self.coverage,
            self.overhead_pct,
        ];
        PER_LAYER.iter().zip(values).map(|(&(name, unit), v)| Metric::new(name, v, unit)).collect()
    }
}

/// Bytes per second of `ns`, in MiB/s.
pub fn mib_per_s(bytes: u64, ns: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (ns.max(1) as f64 / 1e9)
}

/// End-branches kept by FILTERENDBR, summed over analyses.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndbrKept {
    kept: u64,
    found: u64,
}

impl EndbrKept {
    /// Adds one analysis's counts.
    pub fn add(&mut self, a: &funseeker::Analysis) {
        self.found += a.endbr_count as u64;
        self.kept += a.endbr_count.saturating_sub(a.filtered_endbrs) as u64;
    }

    /// Kept over found.
    pub fn ratio(&self) -> f64 {
        self.kept as f64 / self.found.max(1) as f64
    }
}

/// How much slower the traced median unit is than the untraced one, in
/// percent.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    match (stats::median(traced_ms), stats::median(untraced_ms)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Writes a run's spans to `bench-out/<workload>-<seed>.trace.jsonl`.
pub fn write_trace(opts: &Opts, spans: &[trace::Span]) -> Result<(), String> {
    let path =
        Path::new(OUT_DIR).join(format!("{}-{}.trace.jsonl", opts.workload.name(), opts.seed));
    let header =
        format!("\"workload\": {}, \"seed\": {}", json::quote(opts.workload.name()), opts.seed);
    trace::write_jsonl(&path, &header, spans).map_err(|e| format!("write {}: {e}", path.display()))
}
