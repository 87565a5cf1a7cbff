//! Multi-core scaling bench — the `experiments -- multicore` subcommand.
//!
//! Measures how the three aggregate layers scale with worker-pool
//! width: the morsel-driven sharded sweep over the 4 MiB tiled `.text`
//! (vs the sequential sweep on the same bytes), the batch engine's
//! corpus aggregate throughput, and the serving layer under
//! distinct-heavy traffic.
//!
//! Pool width is fixed at process start (`FUNSEEKER_CORES` is read once
//! when the global pool initializes), so one process cannot honestly
//! measure several widths. The bench therefore re-executes itself: the
//! parent walks a power-of-two ladder up to the requested core count,
//! runs the rung matching its own pool width in-process, and spawns
//! `experiments -- multicore-probe --cores K` subprocesses for every
//! other rung. Each probe prints one machine-readable `MCPROBE` line
//! (see [`probe_line`]) that the parent parses back into a
//! [`ScalePoint`]. On a single-core host the ladder collapses to `[1]`
//! and everything runs in-process.
//!
//! Every probe asserts the morsel-sharded sweep's instruction stream is
//! **bit-identical** to the sequential sweep's before any number is
//! reported — scaling that changes output is a bug, not a speedup.
//!
//! Results append to *both* trajectory files: sweep scaling rows
//! (`mc{K}`) to `BENCH_sweep.json`, aggregate + serve rows to
//! `BENCH_batch.json`. The `--check` gate fails if any ≥2-core rung's
//! morsel sweep is slower than its own sequential sweep; on a 1-core
//! host it instead verifies the sequential fallback engaged (one shard,
//! no stitch) and skips the scaling comparison.

use std::time::Instant;

use funseeker_batch::BatchOptions;
use funseeker_disasm::{par_sweep, sweep_all};

use crate::bench::{self, Entry, Host, Report, Row, Value};
use crate::report::Table;
use crate::serve::ServeRow;

/// One rung of the scaling ladder: every throughput measured with the
/// worker pool fixed at `cores`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Worker-pool width this rung ran with.
    pub cores: usize,
    /// Sequential sweep throughput over the tiled text, MiB/s.
    pub seq_mb_s: f64,
    /// Morsel-driven sharded sweep throughput on the same bytes, MiB/s.
    pub morsel_mb_s: f64,
    /// Median over the interleaved (sequential, morsel) run pairs of
    /// the per-pair morsel/sequential throughput ratio — what the
    /// scaling gate reads, since both runs of a pair see the same host
    /// speed.
    pub pair_ratio: f64,
    /// Shards the adaptive sweep actually dispatched (1 = sequential
    /// fallback engaged).
    pub shards: usize,
    /// Batch-engine corpus aggregate throughput, binaries/s (nocache
    /// driver, so every image costs a full analysis).
    pub bins_per_s: f64,
    /// Whether the sharded stream was bit-identical to the sequential
    /// one (always asserted by [`probe`]; carried so subprocess rungs
    /// report it too).
    pub identical: bool,
}

/// The full measurement: the ladder plus one serving-layer row taken at
/// the widest configuration.
#[derive(Debug, Clone)]
pub struct MulticoreReport {
    /// Bytes of tiled `.text` swept per sweep measurement.
    pub bytes: usize,
    /// Repetitions per measurement (best is reported).
    pub reps: usize,
    /// Execution environment of the parent run (pool width = the
    /// ladder's top rung, host cores, kernel tier).
    pub host: Host,
    /// Measured rungs, ascending by core count.
    pub ladder: Vec<ScalePoint>,
    /// Distinct-heavy serving row measured at the top rung's width
    /// (throughput and latency tail, incl. p99).
    pub serve: ServeRow,
}

/// Measures one rung **in-process** at the current global pool width.
///
/// Asserts the morsel-sharded stream is bit-identical to the sequential
/// stream before reporting any throughput.
///
/// The two sweeps run as alternating (sequential, morsel) pairs, with
/// the side that goes first alternating too, so a host whose speed
/// drifts in blocks slows both runs of a pair alike. The rows report
/// the best run of each side; [`ScalePoint::pair_ratio`] is the median
/// per-pair ratio.
pub fn probe(quick: bool) -> ScalePoint {
    let target = if quick { 2 << 20 } else { 4 << 20 };
    let reps = if quick { 3 } else { 5 };
    let (code, base, mode) = crate::perf::tiled_text(target);
    let mb = code.len() as f64 / (1024.0 * 1024.0);
    let cores = funseeker_pool::global().workers();

    // Warm-up faults the buffer in and spins up the pool.
    let baseline = sweep_all(&code, base, mode);

    let mut seq_best = f64::MAX;
    let mut morsel_best = f64::MAX;
    let mut ratios = Vec::with_capacity(reps);
    let mut shards = 0usize;
    let mut identical = true;
    for rep in 0..reps {
        let (mut seq_dt, mut morsel_dt) = (0.0, 0.0);
        for morsel_turn in [rep % 2 == 1, rep % 2 == 0] {
            let t = Instant::now();
            if morsel_turn {
                let out = par_sweep(&code, base, mode, cores);
                morsel_dt = t.elapsed().as_secs_f64();
                identical &= out.stream == baseline.stream;
                shards = out.stats.shards as usize;
            } else {
                let out = sweep_all(&code, base, mode);
                seq_dt = t.elapsed().as_secs_f64();
                std::hint::black_box(out.stream.len());
            }
        }
        seq_best = seq_best.min(seq_dt);
        morsel_best = morsel_best.min(morsel_dt);
        ratios.push(seq_dt / morsel_dt);
    }
    ratios.sort_by(f64::total_cmp);
    assert!(identical, "morsel-sharded sweep diverged from sequential at {cores} cores");

    // Corpus aggregate: the nocache driver, so throughput reflects real
    // analysis work on every image rather than cache hits.
    let (images, _) = crate::batch::corpus(quick);
    let configs = [funseeker::Config::c4()];
    let opts = BatchOptions { cache: false, ..Default::default() };
    let batch_reps = if quick { 2 } else { 3 };
    let mut batch_best = f64::MAX;
    for _ in 0..batch_reps {
        let t = Instant::now();
        let out = funseeker_batch::run(&images, &configs, &opts);
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(out.results.len());
        batch_best = batch_best.min(dt);
    }

    ScalePoint {
        cores,
        seq_mb_s: mb / seq_best,
        morsel_mb_s: mb / morsel_best,
        pair_ratio: ratios[ratios.len() / 2],
        shards,
        bins_per_s: images.len() as f64 / batch_best,
        identical,
    }
}

/// Renders a rung as the single machine-readable line a probe
/// subprocess prints for its parent.
pub fn probe_line(p: &ScalePoint) -> String {
    format!(
        "MCPROBE cores={} seq_mb_s={:.3} morsel_mb_s={:.3} pair_ratio={:.4} shards={} \
         bins_per_s={:.3} identical={}",
        p.cores,
        p.seq_mb_s,
        p.morsel_mb_s,
        p.pair_ratio,
        p.shards,
        p.bins_per_s,
        u8::from(p.identical),
    )
}

/// Parses a [`probe_line`] back into a rung; `None` for any line that
/// is not a complete `MCPROBE` record.
pub fn parse_probe_line(line: &str) -> Option<ScalePoint> {
    let rest = line.trim().strip_prefix("MCPROBE ")?;
    let mut cores = None;
    let mut seq = None;
    let mut morsel = None;
    let mut pair_ratio = None;
    let mut shards = None;
    let mut bins = None;
    let mut identical = None;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "cores" => cores = value.parse::<usize>().ok(),
            "seq_mb_s" => seq = value.parse::<f64>().ok(),
            "morsel_mb_s" => morsel = value.parse::<f64>().ok(),
            "pair_ratio" => pair_ratio = value.parse::<f64>().ok(),
            "shards" => shards = value.parse::<usize>().ok(),
            "bins_per_s" => bins = value.parse::<f64>().ok(),
            "identical" => identical = value.parse::<u8>().ok().map(|v| v != 0),
            _ => {}
        }
    }
    Some(ScalePoint {
        cores: cores?,
        seq_mb_s: seq?,
        morsel_mb_s: morsel?,
        pair_ratio: pair_ratio?,
        shards: shards?,
        bins_per_s: bins?,
        identical: identical?,
    })
}

/// The power-of-two ladder up to `top` (inclusive; `top` itself is
/// appended when it is not a power of two).
fn ladder(top: usize) -> Vec<usize> {
    let mut rungs = Vec::new();
    let mut k = 1usize;
    while k <= top {
        rungs.push(k);
        k *= 2;
    }
    if *rungs.last().unwrap_or(&0) != top {
        rungs.push(top);
    }
    rungs
}

/// Spawns `experiments -- multicore-probe --cores K` and parses its
/// `MCPROBE` line. `None` when the subprocess fails or prints no record
/// (e.g. the current executable is not the experiments binary).
fn subprocess_probe(k: usize, quick: bool) -> Option<ScalePoint> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("multicore-probe").arg("--cores").arg(k.to_string());
    if quick {
        cmd.arg("--quick");
    }
    // Belt and braces: the probe subcommand configures the pool from
    // --cores before first use, but the env var covers any pool touch
    // that might precede argument parsing in future refactors.
    cmd.env("FUNSEEKER_CORES", k.to_string());
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().rev().find_map(parse_probe_line)
}

/// Runs the full measurement. `cores` caps the ladder (default: the
/// host's `available_parallelism`). The rung matching this process's
/// pool width runs in-process; other rungs run as subprocesses and are
/// skipped (with a note on stderr) if re-execution fails.
pub fn run(quick: bool, cores: Option<usize>) -> MulticoreReport {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let top = cores.unwrap_or(avail).max(1);
    // Pin this process's pool to the top rung. If the pool is already
    // running at another width (library callers, tests), the in-process
    // rung simply lands wherever the pool is.
    let _ = funseeker_pool::configure_global(top);
    let own = funseeker_pool::global().workers();

    let mut points = Vec::new();
    for k in ladder(top) {
        let point = if k == own { Some(probe(quick)) } else { subprocess_probe(k, quick) };
        match point {
            Some(p) => points.push(p),
            None => eprintln!(
                "multicore: skipping {k}-core rung (subprocess probe unavailable from this binary)"
            ),
        }
    }
    points.sort_by_key(|p| p.cores);

    let serve = crate::serve::distinct_probe(quick);

    MulticoreReport {
        bytes: if quick { 2 << 20 } else { 4 << 20 },
        reps: if quick { 3 } else { 5 },
        host: bench::host(),
        ladder: points,
        serve,
    }
}

impl MulticoreReport {
    /// Parallel efficiency of a rung: morsel throughput relative to
    /// `cores ×` the 1-core *sequential* baseline. `None` without a
    /// 1-core rung to anchor it.
    pub fn efficiency(&self, p: &ScalePoint) -> Option<f64> {
        let base = self.ladder.iter().find(|q| q.cores == 1)?.seq_mb_s;
        (base > 0.0).then(|| p.morsel_mb_s / (p.cores as f64 * base))
    }

    /// The aggregate-throughput entry (`BENCH_batch.json` schema): one
    /// `mc{K}` row per rung plus the serving row.
    pub fn batch_entry(&self) -> Entry {
        let mut rows: Vec<Row> = self
            .ladder
            .iter()
            .map(|p| {
                let fields =
                    vec![("cores", p.cores.into()), ("bins_per_s", Value::F1(p.bins_per_s))];
                Row::new(format!("mc{}", p.cores), fields)
            })
            .collect();
        rows.push(Row::new(
            "mc_serve_distinct",
            vec![
                ("req_per_s", Value::F1(self.serve.req_per_s)),
                ("p50_us", self.serve.p50_us.into()),
                ("p99_us", self.serve.p99_us.into()),
                ("busy", self.serve.busy.into()),
                ("requests", self.serve.requests.into()),
            ],
        ));
        Entry { header: vec![("reps", self.reps.into())], host: self.host.clone(), rows }
    }
}

impl Report for MulticoreReport {
    const SCHEMA: &'static str = bench::SWEEP;
    const DOING: &'static str = "measuring multi-core scaling";
    const TITLE: &'static str = "Multi-core scaling";

    /// The sweep-scaling entry: one `mc{K}` row per rung, `mb_per_s`
    /// carrying the morsel throughput.
    fn entry(&self) -> Entry {
        let rows = self.ladder.iter().map(|p| {
            Row::new(
                format!("mc{}", p.cores),
                vec![
                    ("cores", p.cores.into()),
                    ("mb_per_s", Value::F1(p.morsel_mb_s)),
                    ("seq_mb_per_s", Value::F1(p.seq_mb_s)),
                    ("shards", p.shards.into()),
                    ("efficiency", Value::F3(self.efficiency(p).unwrap_or(0.0))),
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
            "cores",
            "seq MB/s",
            "morsel MB/s",
            "shards",
            "speedup",
            "efficiency",
            "bins/s",
        ]);
        for p in &self.ladder {
            let speedup = if p.seq_mb_s > 0.0 { p.morsel_mb_s / p.seq_mb_s } else { 0.0 };
            let eff = self
                .efficiency(p)
                .map_or_else(|| "n/a".to_owned(), |e| format!("{:.0}%", e * 100.0));
            t.row([
                p.cores.to_string(),
                format!("{:.1}", p.seq_mb_s),
                format!("{:.1}", p.morsel_mb_s),
                p.shards.to_string(),
                format!("{speedup:.2}x"),
                eff,
                format!("{:.1}", p.bins_per_s),
            ]);
        }
        format!(
            "tiled .text: {:.1} MiB, best of {} runs, host offers {} core(s), tier {}\n\n{}\n\
             serving (distinct-heavy, {} requests): {:.1} req/s, p50 {} µs, p99 {} µs, {} busy\n",
            self.bytes as f64 / (1024.0 * 1024.0),
            self.reps,
            self.host.available_parallelism,
            self.host.tier,
            t.render(),
            self.serve.requests,
            self.serve.req_per_s,
            self.serve.p50_us,
            self.serve.p99_us,
            self.serve.busy,
        )
    }

    /// CI regression gate over the fresh scaling run, against
    /// `BENCH_sweep.json`.
    ///
    /// * Every rung must have produced a bit-identical stream.
    /// * On a 1-core ladder the scaling comparison is vacuous; the gate
    ///   instead verifies the sequential fallback engaged (one shard).
    /// * Every ≥2-core rung's morsel sweep must at least match its own
    ///   sequential sweep (95 % floor for timer noise) — "sharded slower
    ///   than sequential on a multi-core host" is the regression this
    ///   bench exists to catch. The comparison reads the rung's median
    ///   per-pair ratio, not its best-of rows.
    /// * The top rung's morsel throughput goes through
    ///   [`bench::ratio_gate`] against the newest committed `mc{K}` row;
    ///   the rows record no spread, so the floor is the plain
    ///   `min_ratio`. A document without the row passes.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        let Some(top) = self.ladder.last() else {
            return Err("no scaling rungs measured".into());
        };
        if let Some(p) = self.ladder.iter().find(|p| !p.identical) {
            return Err(format!("{}-core rung produced a divergent stream", p.cores));
        }
        if top.cores == 1 {
            if top.shards != 1 {
                return Err(format!(
                    "single-core rung dispatched {} shards; the sequential fallback must engage",
                    top.shards
                ));
            }
            return Ok(format!(
                "single-core host: scaling gate skipped; sequential fallback verified \
                 ({:.1} MB/s seq, {:.1} MB/s via adaptive path)",
                top.seq_mb_s, top.morsel_mb_s
            ));
        }
        if let Some(p) = self.ladder.iter().find(|p| p.cores >= 2 && p.pair_ratio < 0.95) {
            return Err(format!(
                "{}-core morsel sweep slower than sequential: median pair ratio {:.3} \
                 (best of {:.1} vs {:.1} MB/s)",
                p.cores, p.pair_ratio, p.morsel_mb_s, p.seq_mb_s
            ));
        }
        let config = format!("mc{}", top.cores);
        if bench::last_value(committed, &config, "mb_per_s").is_none() {
            return Ok(format!(
                "scaling invariants hold at {} cores; no committed {config} entry to gate against",
                top.cores
            ));
        }
        bench::ratio_gate(committed, &self.entry(), &config, "mb_per_s", min_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_point(cores: usize, seq: f64, morsel: f64, shards: usize) -> ScalePoint {
        ScalePoint {
            cores,
            seq_mb_s: seq,
            morsel_mb_s: morsel,
            pair_ratio: morsel / seq,
            shards,
            bins_per_s: 40.0 * cores as f64,
            identical: true,
        }
    }

    fn fake_report(top: usize) -> MulticoreReport {
        let ladder = super::ladder(top)
            .into_iter()
            .map(|k| {
                let seq = 250.0;
                let morsel = if k == 1 { 248.0 } else { 250.0 * 0.9 * k as f64 };
                fake_point(k, seq, morsel, if k == 1 { 1 } else { 4 * k })
            })
            .collect();
        MulticoreReport {
            bytes: 2 << 20,
            reps: 3,
            host: Host { cores_used: top, available_parallelism: top, tier: "swar".into() },
            ladder,
            serve: ServeRow {
                label: "mc_serve_distinct".into(),
                ms: 120.0,
                sd_ms: 5.0,
                req_per_s: 533.0,
                p50_us: 1500,
                p99_us: 30_000,
                busy: 12,
                hit_rate: 0.0,
                peak_open: 17,
                requests: 64,
            },
        }
    }

    #[test]
    fn probe_line_round_trips() {
        let p = fake_point(4, 251.337, 901.2, 16);
        let line = probe_line(&p);
        let back = parse_probe_line(&line).expect("round trip");
        assert_eq!(back.cores, 4);
        assert_eq!(back.shards, 16);
        assert!(back.identical);
        assert!((back.seq_mb_s - 251.337).abs() < 1e-6);
        assert!((back.morsel_mb_s - 901.2).abs() < 1e-6);
        assert!((back.pair_ratio - p.pair_ratio).abs() < 1e-4);
        // Garbage and partial records parse to nothing.
        assert!(parse_probe_line("MCPROBE cores=2").is_none());
        assert!(parse_probe_line("something else").is_none());
        assert!(parse_probe_line(
            "MCPROBE cores=x seq_mb_s=1 morsel_mb_s=1 shards=1 \
                                  bins_per_s=1 identical=1"
        )
        .is_none());
    }

    #[test]
    fn ladder_shapes() {
        assert_eq!(super::ladder(1), [1]);
        assert_eq!(super::ladder(2), [1, 2]);
        assert_eq!(super::ladder(8), [1, 2, 4, 8]);
        assert_eq!(super::ladder(6), [1, 2, 4, 6]);
    }

    impl MulticoreReport {
        /// A two-rung ladder whose top rung's morsel sweep reads
        /// `g.value`; the rows record no spread.
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report(2);
            r.host.cores_used = g.cores;
            r.ladder[1].morsel_mb_s = g.value;
            r.ladder[1].pair_ratio = 1.0;
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = fake_report(4);
        assert_eq!(r.entry().write("golden"), GOLDEN_SWEEP);
        assert_eq!(r.batch_entry().write("golden"), GOLDEN_BATCH);
    }

    const GOLDEN_SWEEP: &str = r#"    {"label": "golden", "bytes": 2097152, "reps": 3, "cores_used": 4, "avail_par": 4, "tier": "swar", "rows": [
      {"config": "mc1", "cores": 1, "mb_per_s": 248.0, "seq_mb_per_s": 250.0, "shards": 1, "efficiency": 0.992},
      {"config": "mc2", "cores": 2, "mb_per_s": 450.0, "seq_mb_per_s": 250.0, "shards": 8, "efficiency": 0.900},
      {"config": "mc4", "cores": 4, "mb_per_s": 900.0, "seq_mb_per_s": 250.0, "shards": 16, "efficiency": 0.900}
    ]}"#;

    const GOLDEN_BATCH: &str = r#"    {"label": "golden", "reps": 3, "cores_used": 4, "avail_par": 4, "tier": "swar", "rows": [
      {"config": "mc1", "cores": 1, "bins_per_s": 40.0},
      {"config": "mc2", "cores": 2, "bins_per_s": 80.0},
      {"config": "mc4", "cores": 4, "bins_per_s": 160.0},
      {"config": "mc_serve_distinct", "req_per_s": 533.0, "p50_us": 1500, "p99_us": 30000, "busy": 12, "requests": 64}
    ]}"#;

    #[test]
    fn gate_checks_identity_and_pair_ratios() {
        let r = fake_report(4);
        let doc = r.append_to(None, "multicore");
        assert!(r.check(&doc, 0.7).is_ok());
        // A rung where sharding lost to sequential must fail.
        let mut regressed = fake_report(4);
        regressed.ladder[1].morsel_mb_s = 0.5 * regressed.ladder[1].seq_mb_s;
        regressed.ladder[1].pair_ratio = 0.5;
        assert!(regressed.check(&doc, 0.7).is_err());
        // The gate reads the median pair ratio, not the best-of rows: a
        // drift that made the best morsel run look slow passes when the
        // pairs agree…
        let mut drifted = fake_report(4);
        drifted.ladder[1].morsel_mb_s = 0.9 * drifted.ladder[1].seq_mb_s;
        drifted.ladder[1].pair_ratio = 1.02;
        assert!(drifted.check(&doc, 0.7).is_ok());
        // …and pairs losing to sequential fail under flattering best-ofs.
        let mut lost = fake_report(4);
        lost.ladder[1].pair_ratio = 0.9;
        let err = lost.check(&doc, 0.7).unwrap_err();
        assert!(err.contains("median pair ratio 0.900"), "{err}");
        // A divergent stream fails regardless of throughput.
        let mut divergent = fake_report(4);
        divergent.ladder[2].identical = false;
        assert!(divergent.check(&doc, 0.7).is_err());
    }

    #[test]
    fn gate_single_core_verifies_fallback_and_skips_scaling() {
        let r = fake_report(1);
        let doc = r.append_to(None, "multicore");
        let msg = r.check(&doc, 0.7).expect("1-core run passes via fallback check");
        assert!(msg.contains("scaling gate skipped"), "{msg}");
        let mut bad = fake_report(1);
        bad.ladder[0].shards = 3;
        assert!(bad.check(&doc, 0.7).is_err(), "fallback must engage on 1 core");
    }

    #[test]
    fn quick_probe_measures_and_verifies_identity() {
        let p = probe(true);
        assert!(p.cores >= 1);
        assert!(p.identical);
        assert!(p.seq_mb_s > 0.0 && p.morsel_mb_s > 0.0 && p.bins_per_s > 0.0);
        assert!(p.pair_ratio > 0.0);
        if p.cores == 1 {
            assert_eq!(p.shards, 1, "1-worker pool must take the sequential fallback");
        } else {
            assert!(p.shards >= p.cores, "adaptive sweep should fan out past the pool width");
        }
        // The report renders with the rung and a serve row.
        let r = MulticoreReport {
            bytes: 2 << 20,
            reps: 3,
            host: bench::host(),
            ladder: vec![p],
            serve: fake_report(1).serve,
        };
        assert!(r.render().contains("cores"));
        assert!(r.entry().write("multicore").contains("\"config\": \"mc"));
        assert!(r.batch_entry().write("multicore").contains("mc_serve_distinct"));
    }
}
