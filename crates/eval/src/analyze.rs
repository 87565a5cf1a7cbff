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
//! `BENCH_batch.json` trajectory; `--check` gates CI on the newest
//! committed `analyze_plan4` row and fails outright when the fused plan
//! loses to re-planning per configuration.

use std::time::Instant;

use funseeker::{prepare, reference, AnalysisPlan, Config, Prepared, Scratch, StageStats};
use funseeker_batch::{BatchOptions, ResultCache};

use crate::trajectory;

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
    pub host: crate::host::Host,
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
        let (best_s, sd_s) = crate::variance::best_and_sd(samples);
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

    AnalyzeReport {
        binaries: n,
        configs: configs.len(),
        reps,
        verified,
        host: crate::host::host(),
        rows,
    }
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

    /// Human-readable report with the per-stage breakdown.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "corpus: {} distinct binaries, {} configs each, best of {} runs, \
             {} (binary, config) pairs verified bit-identical\n\n",
            self.binaries, self.configs, self.reps, self.verified,
        ));
        s.push_str(&format!(
            "{:<15} {:>9} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9}\n",
            "driver", "ms", "±sd", "binaries/s", "filter", "tailcall", "bounds", "interproc"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<15} {:>9.2} {:>8.2} {:>12.1} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms\n",
                r.label,
                r.ms,
                r.sd_ms,
                r.bins_per_s,
                r.stage.filter_ns as f64 / 1e6,
                r.stage.tailcall_ns as f64 / 1e6,
                r.stage.boundaries_ns as f64 / 1e6,
                r.stage.interproc_ns as f64 / 1e6,
            ));
        }
        s.push_str(&format!("\nplan-over-replan speedup: {:.2}x\n", self.speedup()));
        s
    }

    /// The trajectory entry for this run, as a JSON object literal
    /// (lands in `BENCH_batch.json` next to the batch and serve rows).
    pub fn json_entry(&self, label: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "    {{\"label\": {:?}, \"binaries\": {}, \"configs\": {}, \"reps\": {}, \
             \"verified\": {}, {}, \"rows\": [\n",
            label,
            self.binaries,
            self.configs,
            self.reps,
            self.verified,
            self.host.json_fields()
        ));
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"config\": {:?}, \"ms\": {:.3}, \"sd_ms\": {:.3}, \
                 \"bins_per_s\": {:.1}, \"filter_ms\": {:.3}, \"tailcall_ms\": {:.3}, \
                 \"boundaries_ms\": {:.3}, \"interproc_ms\": {:.3}}}{}\n",
                r.label,
                r.ms,
                r.sd_ms,
                r.bins_per_s,
                r.stage.filter_ns as f64 / 1e6,
                r.stage.tailcall_ns as f64 / 1e6,
                r.stage.boundaries_ns as f64 / 1e6,
                r.stage.interproc_ns as f64 / 1e6,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("    ]}");
        s
    }

    /// Appends this run as a new entry to an existing `BENCH_batch.json`
    /// document (or starts a fresh one).
    pub fn append_to_document(&self, existing: Option<&str>, label: &str) -> String {
        trajectory::append_entry(existing, crate::batch::SCHEMA, self.json_entry(label))
    }
}

/// CI regression gate: the fresh `analyze_plan4` throughput must reach
/// `min_ratio` of the newest committed entry (noise-tolerance-widened,
/// like every other gate), and the fused plan must not lose to
/// re-planning per configuration.
pub fn check_against(
    committed: &str,
    fresh: &AnalyzeReport,
    min_ratio: f64,
) -> Result<String, String> {
    // The hard half first: a fused plan slower than re-planning is a
    // broken plan, whatever the trajectory says.
    let speedup = fresh.speedup();
    if speedup < 1.0 {
        return Err(format!(
            "plan-derived analysis is slower than re-planning per configuration ({speedup:.2}x)"
        ));
    }
    let Some(baseline) = trajectory::last_value(committed, "analyze_plan4", "bins_per_s") else {
        return Err("committed BENCH_batch.json has no analyze_plan4 entry".into());
    };
    let Some(now) = fresh.rows.iter().find(|r| r.label == "analyze_plan4") else {
        return Err("fresh measurement has no analyze_plan4 row".into());
    };
    let committed_cores = trajectory::last_row_meta(committed, "analyze_plan4", "cores_used");
    if !fresh.host.comparable_with(committed_cores) {
        return Ok(format!(
            "skipped: committed analyze_plan4 entry was measured with {} cores, this run uses \
             {} — not comparable",
            committed_cores.unwrap_or(0.0),
            fresh.host.cores_used
        ));
    }
    let rel_committed = trajectory::last_value(committed, "analyze_plan4", "sd_ms")
        .zip(trajectory::last_value(committed, "analyze_plan4", "ms"))
        .map_or(0.0, |(sd, ms)| if ms > 0.0 { sd / ms } else { 0.0 });
    let rel_fresh = if now.ms > 0.0 { now.sd_ms / now.ms } else { 0.0 };
    let tol = crate::variance::noise_tolerance(rel_committed, rel_fresh);
    let threshold = min_ratio * (1.0 - tol);
    let ratio = now.bins_per_s / baseline;
    let msg = format!(
        "plan-derived analyze: {:.1} binaries/s vs committed {:.1} binaries/s ({:.0}% of \
         baseline, threshold {:.0}% incl. {:.0}% noise tolerance; {speedup:.2}x over replan)",
        now.bins_per_s,
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
            host: crate::host::host(),
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

    #[test]
    fn json_round_trip_and_gate() {
        let r = fake_report();
        let doc = r.append_to_document(None, "pre");
        assert!(doc.contains(crate::batch::SCHEMA));
        assert_eq!(trajectory::last_value(&doc, "analyze_plan4", "bins_per_s"), Some(3200.0));
        assert_eq!(trajectory::last_value(&doc, "analyze_plan4", "filter_ms"), Some(1.0));
        assert!(check_against(&doc, &r, 0.7).is_ok());
        let mut slow = fake_report();
        slow.rows[1].bins_per_s = 1000.0; // below 70% of committed…
        assert!(check_against(&doc, &slow, 0.7).is_err());
        // …and a plan slower than replan fails regardless of history.
        let mut inverted = fake_report();
        inverted.rows[1].bins_per_s = 1500.0;
        inverted.rows[1].ms = 45.0;
        let err = check_against(&doc, &inverted, 0.1).unwrap_err();
        assert!(err.contains("slower than re-planning"), "{err}");
    }

    #[test]
    fn batch_and_analyze_rows_share_one_document() {
        // Both subcommands append to BENCH_batch.json; each gate must
        // keep finding its own rows in the merged history.
        let a = fake_report();
        let doc = a.append_to_document(None, "analyze");
        assert_eq!(trajectory::extract_entries(&doc).len(), 1);
        assert_eq!(trajectory::last_value(&doc, "analyze_cold", "bins_per_s"), Some(1066.0));
        assert_eq!(trajectory::last_value(&doc, "cold", "bins_per_s"), None);
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
