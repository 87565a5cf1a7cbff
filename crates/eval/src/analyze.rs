//! Shared-plan analysis measurement — the `experiments -- analyze`
//! subcommand.
//!
//! Measures the back end in isolation: every binary of a distinct-heavy
//! corpus is parsed and swept once (untimed), then the four Table II
//! configurations are analyzed per binary through three drivers:
//!
//! | row | what it measures |
//! |---|---|
//! | `analyze_replan4` | no fusion: four [`AnalysisPlan`] rebuild + derive pairs per binary over one shared scratch arena and plan — what a caller analyzing one configuration at a time pays |
//! | `analyze_plan4` | one [`AnalysisPlan`] rebuild per binary, each configuration derived by set algebra |
//! | `analyze_cold` | the full batch engine, fresh cache, over the same distinct corpus (parse + sweep included) |
//!
//! Before anything is timed, every `(binary, configuration)` pair the
//! plan derives is asserted **bit-identical** to the reference oracle
//! ([`funseeker::reference`]) — the measurement refuses to report
//! numbers for a derivation that changed the output.
//!
//! Each row carries the core analyzer's per-stage counters
//! ([`StageStats`]): FILTERENDBR, SELECTTAILCALL, candidate-set
//! algebra, and interprocedural nanoseconds. Results append to the
//! `BENCH_batch.json` trajectory; `--check` fails outright when the fused
//! plan loses to re-planning per configuration, then gates CI on the
//! newest committed `analyze_plan4` row.

use std::time::Instant;

use funseeker::{prepare, reference, AnalysisPlan, Config, Prepared, Scratch, StageStats};
use funseeker_batch::{BatchOptions, ResultCache};

use crate::bench::{self, Entry, Host, Report, Row, Value};

/// One measured driver.
#[derive(Debug, Clone)]
pub struct AnalyzeRow {
    /// Driver name (`analyze_replan4`, `analyze_plan4`, `analyze_cold`).
    pub label: String,
    /// Best-of-N wall time in milliseconds for the whole corpus.
    pub ms: f64,
    /// Sample standard deviation over the reps, in milliseconds.
    pub sd_ms: f64,
    /// Corpus binaries analyzed per second (each under all four
    /// Table II configurations).
    pub bins_per_s: f64,
    /// Core-analyzer per-stage counters from the measured run.
    pub stage: StageStats,
}

/// The full measurement.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// Distinct binaries analyzed.
    pub binaries: usize,
    /// Configurations analyzed per binary.
    pub configs: usize,
    /// Repetitions per row (the minimum is reported).
    pub reps: usize,
    /// (binary, configuration) pairs verified bit-identical between the
    /// plan derivation and the reference oracle before timing started.
    pub verified: usize,
    /// Execution environment of the run.
    pub host: Host,
    /// Measured drivers.
    pub rows: Vec<AnalyzeRow>,
}

/// Runs the measurement. `quick` shrinks the corpus and repetition
/// count for CI smoke use.
pub fn run(quick: bool) -> AnalyzeReport {
    let (mut images, distinct) = crate::batch::corpus(quick);
    images.truncate(distinct); // distinct-heavy: no duplicates, no dedup wins
    let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
    let reps = if quick { 3 } else { 5 };

    // Front end once, untimed: these rows isolate the analyze stage.
    let prepared: Vec<Prepared<'_>> =
        images.iter().map(|b| prepare(b).expect("benchmark corpus binary prepares")).collect();

    // ---- The contract, before any timing: every plan-derived analysis
    // is bit-identical to the reference oracle.
    let mut plan = AnalysisPlan::new();
    let mut scratch = Scratch::new();
    let mut verified = 0usize;
    for p in &prepared {
        plan.rebuild(&p.parsed, &p.index, &mut scratch);
        for cfg in &configs {
            let fast = plan.derive(cfg, &p.parsed, &p.index, &mut scratch);
            assert_eq!(
                fast,
                reference::identify(cfg, p),
                "plan derivation diverged from reference"
            );
            verified += 1;
        }
    }

    let n = images.len();
    let mut rows = Vec::new();
    let mut push = |label: &str, samples: &[f64], stage: StageStats| {
        let (best_s, sd_s) = bench::best_and_sd(samples);
        rows.push(AnalyzeRow {
            label: label.to_owned(),
            ms: best_s * 1e3,
            sd_ms: sd_s * 1e3,
            bins_per_s: n as f64 / best_s,
            stage,
        });
    };

    // ---- replan4: a rebuild before every derivation, shared scratch
    // and plan (no fusion across configurations).
    let mut samples = Vec::with_capacity(reps);
    let mut replan_functions = 0usize;
    let mut stage = StageStats::default();
    for _ in 0..reps {
        let _ = scratch.take_stats();
        let mut functions = 0usize;
        let t = Instant::now();
        for p in &prepared {
            for cfg in &configs {
                plan.rebuild(&p.parsed, &p.index, &mut scratch);
                let a = plan.derive(cfg, &p.parsed, &p.index, &mut scratch);
                functions += a.functions.len();
            }
        }
        samples.push(t.elapsed().as_secs_f64());
        stage = scratch.take_stats();
        replan_functions = functions;
    }
    push("analyze_replan4", &samples, stage);

    // ---- plan4: one rebuild per binary, four derivations.
    let mut samples = Vec::with_capacity(reps);
    let mut stage = StageStats::default();
    for _ in 0..reps {
        let _ = scratch.take_stats();
        let mut functions = 0usize;
        let t = Instant::now();
        for p in &prepared {
            plan.rebuild(&p.parsed, &p.index, &mut scratch);
            for cfg in &configs {
                let a = plan.derive(cfg, &p.parsed, &p.index, &mut scratch);
                functions += a.functions.len();
            }
        }
        samples.push(t.elapsed().as_secs_f64());
        stage = scratch.take_stats();
        assert_eq!(functions, replan_functions, "plan4 diverged from replan4");
    }
    push("analyze_plan4", &samples, stage);

    // ---- cold: the full batch engine (parse + sweep + plan-derived
    // analyze) from an empty cache over the same distinct corpus.
    let mut samples = Vec::with_capacity(reps);
    let mut stage = StageStats::default();
    let _ = funseeker_pool::global().workers();
    for _ in 0..reps {
        let cache = ResultCache::new();
        let t = Instant::now();
        let out =
            funseeker_batch::run_with_cache(&images, &configs, &BatchOptions::default(), &cache);
        samples.push(t.elapsed().as_secs_f64());
        let functions: usize = out
            .results
            .iter()
            .flat_map(|per_config| per_config.iter())
            .map(|a| a.as_ref().map_or(0, |a| a.functions.len()))
            .sum();
        assert_eq!(functions, replan_functions, "cold batch diverged from replan4");
        stage = out.stats.stage;
    }
    push("analyze_cold", &samples, stage);

    AnalyzeReport { binaries: n, configs: configs.len(), reps, verified, host: bench::host(), rows }
}

impl AnalyzeReport {
    /// The plan-over-replan speedup of this run (1.0 when either row is
    /// missing).
    pub fn speedup(&self) -> f64 {
        let get = |label: &str| self.rows.iter().find(|r| r.label == label).map(|r| r.bins_per_s);
        match (get("analyze_replan4"), get("analyze_plan4")) {
            (Some(replan), Some(plan)) if replan > 0.0 => plan / replan,
            _ => 1.0,
        }
    }
}

impl Report for AnalyzeReport {
    const SCHEMA: &'static str = bench::BATCH;
    const DOING: &'static str = "measuring shared-plan analysis";
    const TITLE: &'static str = "Shared-plan analysis";

    fn entry(&self) -> Entry {
        let ms = |ns: u64| Value::F3(ns as f64 / 1e6);
        let rows = self.rows.iter().map(|r| {
            Row::new(
                &r.label,
                vec![
                    ("ms", Value::F3(r.ms)),
                    ("sd_ms", Value::F3(r.sd_ms)),
                    ("bins_per_s", Value::F1(r.bins_per_s)),
                    ("filter_ms", ms(r.stage.filter_ns)),
                    ("tailcall_ms", ms(r.stage.tailcall_ns)),
                    ("boundaries_ms", ms(r.stage.boundaries_ns)),
                    ("interproc_ms", ms(r.stage.interproc_ns)),
                ],
            )
        });
        Entry {
            header: vec![
                ("binaries", self.binaries.into()),
                ("configs", self.configs.into()),
                ("reps", self.reps.into()),
                ("verified", self.verified.into()),
            ],
            host: self.host.clone(),
            rows: rows.collect(),
        }
    }

    fn render(&self) -> String {
        format!(
            "corpus: {} distinct binaries, {} configs each, best of {} runs, {} (binary, config) \
             pairs verified bit-identical\n\n{}\nplan-over-replan speedup: {:.2}x\n",
            self.binaries,
            self.configs,
            self.reps,
            self.verified,
            self.entry().table().render(),
            self.speedup(),
        )
    }

    /// Fails outright when the fused plan loses to re-planning per
    /// configuration, then gates `analyze_plan4` throughput against the
    /// newest committed entry.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        // A fused plan slower than re-planning is a broken plan,
        // whatever the trajectory says.
        let speedup = self.speedup();
        if speedup < 1.0 {
            return Err(format!(
                "plan-derived analysis is slower than re-planning per configuration \
                 ({speedup:.2}x)"
            ));
        }
        bench::ratio_gate(committed, &self.entry(), "analyze_plan4", "bins_per_s", min_ratio)
            .map(|msg| format!("{msg}; {speedup:.2}x over replan"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_report() -> AnalyzeReport {
        let stage = StageStats {
            filter_ns: 1_000_000,
            tailcall_ns: 2_000_000,
            boundaries_ns: 3_000_000,
            interproc_ns: 0,
            entry_candidates: 100,
            tail_candidates: 10,
            final_candidates: 120,
        };
        AnalyzeReport {
            binaries: 64,
            configs: 4,
            reps: 3,
            verified: 256,
            host: bench::host(),
            rows: vec![
                AnalyzeRow {
                    label: "analyze_replan4".into(),
                    ms: 40.0,
                    sd_ms: 1.0,
                    bins_per_s: 1600.0,
                    stage,
                },
                AnalyzeRow {
                    label: "analyze_plan4".into(),
                    ms: 20.0,
                    sd_ms: 0.5,
                    bins_per_s: 3200.0,
                    stage,
                },
                AnalyzeRow {
                    label: "analyze_cold".into(),
                    ms: 60.0,
                    sd_ms: 2.0,
                    bins_per_s: 1066.0,
                    stage,
                },
            ],
        }
    }

    impl AnalyzeReport {
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report();
            r.host.cores_used = g.cores;
            let plan = &mut r.rows[1];
            (plan.bins_per_s, plan.ms, plan.sd_ms) = (g.value, g.ms, g.sd_ms);
            // Keep the plan ahead of replan so only the ratio gate decides.
            r.rows[0].bins_per_s = g.value / 2.0;
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = AnalyzeReport { host: bench::test_host(), ..fake_report() };
        assert_eq!(r.entry().write("golden"), GOLDEN);
    }

    const GOLDEN: &str = r#"    {"label": "golden", "binaries": 64, "configs": 4, "reps": 3, "verified": 256, "cores_used": 2, "avail_par": 8, "tier": "avx2", "rows": [
      {"config": "analyze_replan4", "ms": 40.000, "sd_ms": 1.000, "bins_per_s": 1600.0, "filter_ms": 1.000, "tailcall_ms": 2.000, "boundaries_ms": 3.000, "interproc_ms": 0.000},
      {"config": "analyze_plan4", "ms": 20.000, "sd_ms": 0.500, "bins_per_s": 3200.0, "filter_ms": 1.000, "tailcall_ms": 2.000, "boundaries_ms": 3.000, "interproc_ms": 0.000},
      {"config": "analyze_cold", "ms": 60.000, "sd_ms": 2.000, "bins_per_s": 1066.0, "filter_ms": 1.000, "tailcall_ms": 2.000, "boundaries_ms": 3.000, "interproc_ms": 0.000}
    ]}"#;

    #[test]
    fn batch_and_analyze_rows_share_one_document() {
        // Both subcommands append to BENCH_batch.json; each gate must
        // keep finding its own rows in the merged history.
        let doc = fake_report().append_to(None, "analyze");
        assert_eq!(bench::last_value(&doc, "analyze_cold", "bins_per_s"), Some(1066.0));
        assert_eq!(bench::last_value(&doc, "cold", "bins_per_s"), None);
    }

    #[test]
    fn plan_slower_than_replan_fails_whatever_the_trajectory() {
        let r = fake_report();
        let doc = r.append_to(None, "pre");
        assert!(r.check(&doc, 0.7).is_ok());
        let mut inverted = fake_report();
        inverted.rows[1].bins_per_s = 1500.0;
        inverted.rows[1].ms = 45.0;
        let err = inverted.check(&doc, 0.1).unwrap_err();
        assert!(err.contains("slower than re-planning"), "{err}");
    }

    #[test]
    fn quick_measurement_verifies_and_reports_stages() {
        let report = run(true);
        let labels: Vec<&str> = report.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["analyze_replan4", "analyze_plan4", "analyze_cold"]);
        assert_eq!(report.verified, report.binaries * report.configs);
        for row in &report.rows {
            assert!(row.ms > 0.0, "{}: no time measured", row.label);
            assert!(row.bins_per_s > 0.0, "{}: no throughput", row.label);
            assert!(row.stage.total_ns() > 0, "{}: no stage counters", row.label);
            assert!(row.stage.final_candidates > 0, "{}: no candidates", row.label);
        }
        assert!(!report.render().is_empty());
    }
}
