//! Call-graph evaluation — the `experiments -- callgraph` subcommand.
//!
//! Scores the interprocedural layer against the corpus's emitted
//! call-edge ground truth: every `call rel32` / tail-`jmp` the
//! generators produced is recorded at link time
//! ([`funseeker_corpus::CallEdgeTruth`]), so recovered direct and tail
//! edges can be checked pair-by-pair as `(site, callee)` — a far
//! stricter metric than entry-set overlap. The same run times the graph
//! build (per-function CFGs plus the whole-binary call graph over the
//! already-prepared sweep) and reports its throughput, which lands as a
//! `callgraph` row in the committed `BENCH_sweep.json` trajectory so CI
//! can gate both the quality floor (direct-edge precision ≥ 0.95) and
//! throughput regressions.

use std::collections::BTreeSet;
use std::time::Instant;

use funseeker::{build_call_graph, build_cfgs, prepare_with_stream, FunSeeker};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams};

use crate::bench::{self, Entry, Host, Report, Row, Value};
use crate::metrics::Score;
use crate::report::Table;

/// Seed for the evaluation corpus — fixed so every run scores the same
/// binaries.
const SEED: u64 = 0xCA11;

/// The acceptance floor for direct call-edge precision.
pub const MIN_DIRECT_PRECISION: f64 = 0.95;

/// The scored and timed result of one evaluation run.
#[derive(Debug, Clone)]
pub struct CallGraphReport {
    /// Binaries evaluated.
    pub binaries: usize,
    /// `(site, callee)` confusion counts for direct call edges.
    pub direct: Score,
    /// `(site, callee)` confusion counts for tail-call edges.
    pub tail: Score,
    /// Tracked indirect call+jump sites across the corpus.
    pub indirect_sites: usize,
    /// `NOTRACK` sites (exempt from the CET constraint).
    pub notrack_sites: usize,
    /// ENDBR-marked entries — the CET-constrained indirect target pool.
    pub endbr_targets: usize,
    /// Basic blocks across all per-function CFGs.
    pub blocks: usize,
    /// Intra-procedural CFG edges across the corpus.
    pub cfg_edges: usize,
    /// Code bytes the graph build covered per repetition.
    pub bytes: usize,
    /// Timing repetitions (best is reported).
    pub reps: usize,
    /// Best-of-N wall time of the graph build, milliseconds.
    pub ms: f64,
    /// Sample standard deviation of the wall time, milliseconds.
    pub sd_ms: f64,
    /// Graph-build throughput over the corpus text, MiB per second.
    pub mb_per_s: f64,
    /// Execution environment of the run (pool width, host cores,
    /// kernel tier).
    pub host: Host,
}

/// Scores a recovered pair-set against the ground-truth pair-set.
fn score_pairs(found: &BTreeSet<(u64, u64)>, truth: &BTreeSet<(u64, u64)>) -> Score {
    let tp = found.intersection(truth).count();
    Score { tp, fp: found.len() - tp, fn_: truth.len() - tp }
}

/// Runs the evaluation. `quick` shrinks the corpus and repetition count
/// for CI smoke use.
pub fn run(quick: bool) -> CallGraphReport {
    let mut params = DatasetParams::tiny();
    params.programs = if quick { (3, 2, 3) } else { (6, 4, 6) };
    params.configs = BuildConfig::grid();
    let reps = if quick { 3 } else { 7 };
    let ds = Dataset::generate(&params, SEED);

    let seeker = FunSeeker::new();
    let mut report = CallGraphReport {
        binaries: ds.len(),
        direct: Score::default(),
        tail: Score::default(),
        indirect_sites: 0,
        notrack_sites: 0,
        endbr_targets: 0,
        blocks: 0,
        cfg_edges: 0,
        bytes: 0,
        reps,
        ms: 0.0,
        sd_ms: 0.0,
        mb_per_s: 0.0,
        host: bench::host(),
    };

    // Prepare every binary once; both scoring and timing reuse the
    // parsed image + sweep (the graph build is what's being measured,
    // not the front end).
    let prepared: Vec<_> = ds
        .binaries
        .iter()
        .map(|bin| {
            let p = prepare_with_stream(&bin.bytes).expect("corpus binary prepares");
            let entries = seeker.identify_prepared(&p).functions.into_vec();
            (bin, p, entries)
        })
        .collect();

    for (bin, p, entries) in &prepared {
        let graph = build_call_graph(&p.index, entries);
        report.direct += score_pairs(&graph.direct_edge_pairs(), &bin.truth.direct_call_edges());
        report.tail += score_pairs(&graph.tail_edge_pairs(), &bin.truth.tail_call_edges());
        report.indirect_sites += graph.indirect_call_sites.len() + graph.indirect_jump_sites.len();
        report.notrack_sites += graph.notrack_sites;
        report.endbr_targets += graph.indirect_targets.len();
        let cfgs = build_cfgs(&p.index, entries);
        report.blocks += cfgs.iter().map(|c| c.blocks.len()).sum::<usize>();
        report.cfg_edges += cfgs.iter().map(|c| c.edge_count()).sum::<usize>();
        report.bytes += (bin.truth.text_range.1 - bin.truth.text_range.0) as usize;
    }

    // Throughput: CFGs + call graph for the whole corpus, best of N.
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for (_, p, entries) in &prepared {
            let graph = build_call_graph(&p.index, entries);
            std::hint::black_box(graph.edges.len());
            let cfgs = build_cfgs(&p.index, entries);
            std::hint::black_box(cfgs.len());
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    let (best, sd) = bench::best_and_sd(&samples);
    report.ms = best * 1e3;
    report.sd_ms = sd * 1e3;
    report.mb_per_s = report.bytes as f64 / (1024.0 * 1024.0) / best;
    report
}

impl Report for CallGraphReport {
    const SCHEMA: &'static str = bench::SWEEP;
    const DOING: &'static str = "scoring call-graph recovery";
    const TITLE: &'static str = "Call-edge precision/recall and graph-build throughput";

    /// One `callgraph` row in the `BENCH_sweep.json` shape.
    fn entry(&self) -> Entry {
        let row = Row::new(
            "callgraph",
            vec![
                ("ms", Value::F3(self.ms)),
                ("sd_ms", Value::F3(self.sd_ms)),
                ("mb_per_s", Value::F1(self.mb_per_s)),
                ("direct_precision", Value::F4(self.direct.precision())),
                ("direct_recall", Value::F4(self.direct.recall())),
                ("tail_precision", Value::F4(self.tail.precision())),
                ("tail_recall", Value::F4(self.tail.recall())),
                ("blocks", self.blocks.into()),
                ("cfg_edges", self.cfg_edges.into()),
            ],
        );
        Entry {
            header: vec![("bytes", self.bytes.into()), ("reps", self.reps.into())],
            host: self.host.clone(),
            rows: vec![row],
        }
    }

    fn render(&self) -> String {
        let mut t = Table::new(["edges", "tp", "fp", "fn", "precision", "recall", "f1"]);
        for (name, score) in [("direct", self.direct), ("tail", self.tail)] {
            let pct = |v: f64| format!("{:.1}%", v * 100.0);
            t.row([
                name.to_owned(),
                score.tp.to_string(),
                score.fp.to_string(),
                score.fn_.to_string(),
                pct(score.precision()),
                pct(score.recall()),
                pct(score.f1()),
            ]);
        }
        format!(
            "{} binaries, {} blocks, {} CFG edges, best of {} runs\n\n{}\nindirect: {} tracked \
             sites, {} notrack; {} CET-constrained targets\ngraph build: {:.2} ms ±{:.2} ({:.1} \
             MB/s over {:.2} MiB of text)\n",
            self.binaries,
            self.blocks,
            self.cfg_edges,
            self.reps,
            t.render(),
            self.indirect_sites,
            self.notrack_sites,
            self.endbr_targets,
            self.ms,
            self.sd_ms,
            self.mb_per_s,
            self.bytes as f64 / (1024.0 * 1024.0),
        )
    }

    /// Fails below the direct-precision floor
    /// ([`MIN_DIRECT_PRECISION`]), then gates graph-build throughput
    /// against the newest committed `callgraph` entry.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        let precision = self.direct.precision();
        if precision < MIN_DIRECT_PRECISION {
            return Err(format!(
                "direct call-edge precision {:.2}% below the {:.0}% floor",
                precision * 100.0,
                MIN_DIRECT_PRECISION * 100.0,
            ));
        }
        bench::ratio_gate(committed, &self.entry(), "callgraph", "mb_per_s", min_ratio)
            .map(|msg| format!("direct precision {:.1}%; {msg}", precision * 100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_report() -> CallGraphReport {
        CallGraphReport {
            binaries: 10,
            direct: Score { tp: 98, fp: 0, fn_: 0 },
            tail: Score { tp: 7, fp: 0, fn_: 3 },
            indirect_sites: 5,
            notrack_sites: 2,
            endbr_targets: 40,
            blocks: 300,
            cfg_edges: 500,
            bytes: 1 << 20,
            reps: 3,
            ms: 4.0,
            sd_ms: 0.1,
            mb_per_s: 250.0,
            host: bench::host(),
        }
    }

    impl CallGraphReport {
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report();
            r.host.cores_used = g.cores;
            (r.mb_per_s, r.ms, r.sd_ms) = (g.value, g.ms, g.sd_ms);
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = CallGraphReport { host: bench::test_host(), ..fake_report() };
        assert_eq!(r.entry().write("golden"), GOLDEN);
    }

    const GOLDEN: &str = r#"    {"label": "golden", "bytes": 1048576, "reps": 3, "cores_used": 2, "avail_par": 8, "tier": "avx2", "rows": [
      {"config": "callgraph", "ms": 4.000, "sd_ms": 0.100, "mb_per_s": 250.0, "direct_precision": 1.0000, "direct_recall": 1.0000, "tail_precision": 1.0000, "tail_recall": 0.7000, "blocks": 300, "cfg_edges": 500}
    ]}"#;

    #[test]
    fn precision_below_the_floor_fails_at_full_throughput() {
        let r = fake_report();
        let doc = r.append_to(None, "pre");
        assert!(r.check(&doc, 0.7).is_ok());
        let mut sloppy = fake_report();
        sloppy.direct = Score { tp: 90, fp: 10, fn_: 0 };
        let err = sloppy.check(&doc, 0.7).unwrap_err();
        assert!(err.contains("precision"), "{err}");
    }

    #[test]
    fn quick_run_meets_the_acceptance_floor() {
        let r = run(true);
        assert!(r.binaries > 0);
        assert!(r.direct.tp > 0, "corpus must contain direct calls");
        assert!(
            r.direct.precision() >= MIN_DIRECT_PRECISION,
            "direct precision {:.3} below floor",
            r.direct.precision()
        );
        assert!(r.direct.recall() > 0.9, "direct recall {:.3}", r.direct.recall());
        assert!(r.tail.precision() >= 0.9, "tail precision {:.3}", r.tail.precision());
        assert!(r.blocks > 0 && r.cfg_edges > 0);
        assert!(r.ms > 0.0 && r.mb_per_s > 0.0);
        assert!(!r.render().is_empty());
    }
}
