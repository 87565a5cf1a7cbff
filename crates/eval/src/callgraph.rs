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

use crate::metrics::Score;

/// Seed for the evaluation corpus — fixed so every run scores the same
/// binaries.
const SEED: u64 = 0xCA11;

/// Trajectory schema tag — entries append to `BENCH_sweep.json`.
const SCHEMA: &str = "funseeker-bench-sweep-v1";

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
    pub host: crate::host::Host,
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
        host: crate::host::host(),
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
    let (best, sd) = crate::variance::best_and_sd(&samples);
    report.ms = best * 1e3;
    report.sd_ms = sd * 1e3;
    report.mb_per_s = report.bytes as f64 / (1024.0 * 1024.0) / best;
    report
}

impl CallGraphReport {
    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} binaries, {} blocks, {} CFG edges, best of {} runs\n\n",
            self.binaries, self.blocks, self.cfg_edges, self.reps
        ));
        s.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>6} {:>10} {:>8} {:>8}\n",
            "edges", "tp", "fp", "fn", "precision", "recall", "f1"
        ));
        for (name, score) in [("direct", self.direct), ("tail", self.tail)] {
            s.push_str(&format!(
                "{:<8} {:>6} {:>6} {:>6} {:>9.1}% {:>7.1}% {:>7.1}%\n",
                name,
                score.tp,
                score.fp,
                score.fn_,
                score.precision() * 100.0,
                score.recall() * 100.0,
                score.f1() * 100.0,
            ));
        }
        s.push_str(&format!(
            "\nindirect: {} tracked sites, {} notrack; {} CET-constrained targets\n",
            self.indirect_sites, self.notrack_sites, self.endbr_targets
        ));
        s.push_str(&format!(
            "graph build: {:.2} ms ±{:.2} ({:.1} MB/s over {:.2} MiB of text)\n",
            self.ms,
            self.sd_ms,
            self.mb_per_s,
            self.bytes as f64 / (1024.0 * 1024.0),
        ));
        s
    }

    /// The trajectory entry for this run — a `callgraph` row in the
    /// `BENCH_sweep.json` shape.
    pub fn json_entry(&self, label: &str) -> String {
        format!(
            "    {{\"label\": {:?}, \"bytes\": {}, \"reps\": {}, {}, \"rows\": [\n      \
             {{\"config\": \"callgraph\", \"ms\": {:.3}, \"sd_ms\": {:.3}, \"mb_per_s\": {:.1}, \
             \"direct_precision\": {:.4}, \"direct_recall\": {:.4}, \"tail_precision\": {:.4}, \
             \"tail_recall\": {:.4}, \"blocks\": {}, \"cfg_edges\": {}}}\n    ]}}",
            label,
            self.bytes,
            self.reps,
            self.host.json_fields(),
            self.ms,
            self.sd_ms,
            self.mb_per_s,
            self.direct.precision(),
            self.direct.recall(),
            self.tail.precision(),
            self.tail.recall(),
            self.blocks,
            self.cfg_edges,
        )
    }

    /// Appends this run as a new entry to an existing `BENCH_sweep.json`
    /// document (or starts a fresh one).
    pub fn append_to_document(&self, existing: Option<&str>, label: &str) -> String {
        crate::trajectory::append_entry(existing, SCHEMA, self.json_entry(label))
    }
}

/// CI gate: the fresh run must clear the direct-precision floor
/// ([`MIN_DIRECT_PRECISION`]) and its graph-build throughput must stay
/// within `min_ratio` of the newest committed `callgraph` entry
/// (noise-tolerance-widened, as in [`crate::perf::check_against`]).
pub fn check_against(
    committed: &str,
    fresh: &CallGraphReport,
    min_ratio: f64,
) -> Result<String, String> {
    if fresh.direct.precision() < MIN_DIRECT_PRECISION {
        return Err(format!(
            "direct call-edge precision {:.2}% below the {:.0}% floor",
            fresh.direct.precision() * 100.0,
            MIN_DIRECT_PRECISION * 100.0,
        ));
    }
    let Some(baseline) = crate::trajectory::last_value(committed, "callgraph", "mb_per_s") else {
        return Err("committed trajectory has no callgraph entry".into());
    };
    let committed_cores = crate::trajectory::last_row_meta(committed, "callgraph", "cores_used");
    if !fresh.host.comparable_with(committed_cores) {
        return Ok(format!(
            "direct precision {:.1}% passes; throughput skipped: committed callgraph entry was \
             measured with {} cores, this run uses {} — not comparable",
            fresh.direct.precision() * 100.0,
            committed_cores.unwrap_or(0.0),
            fresh.host.cores_used
        ));
    }
    let rel_committed = crate::trajectory::last_value(committed, "callgraph", "sd_ms")
        .zip(crate::trajectory::last_value(committed, "callgraph", "ms"))
        .map_or(0.0, |(sd, ms)| if ms > 0.0 { sd / ms } else { 0.0 });
    let rel_fresh = if fresh.ms > 0.0 { fresh.sd_ms / fresh.ms } else { 0.0 };
    let tol = crate::variance::noise_tolerance(rel_committed, rel_fresh);
    let threshold = min_ratio * (1.0 - tol);
    let ratio = fresh.mb_per_s / baseline;
    let msg = format!(
        "direct precision {:.1}%; graph build {:.1} MB/s vs committed {:.1} MB/s \
         ({:.0}% of baseline, threshold {:.0}% incl. {:.0}% noise tolerance)",
        fresh.direct.precision() * 100.0,
        fresh.mb_per_s,
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
            host: crate::host::host(),
        }
    }

    #[test]
    fn json_entry_appends_to_sweep_trajectory() {
        let r = fake_report();
        let doc = r.append_to_document(None, "pre");
        assert!(doc.contains("funseeker-bench-sweep-v1"));
        assert_eq!(crate::trajectory::last_value(&doc, "callgraph", "mb_per_s"), Some(250.0));
        assert_eq!(crate::trajectory::last_value(&doc, "callgraph", "direct_precision"), Some(1.0));
        // Appending alongside perf entries keeps both readable.
        let doc2 = r.append_to_document(Some(&doc), "post");
        assert_eq!(crate::trajectory::extract_entries(&doc2).len(), 2);
    }

    #[test]
    fn gate_enforces_precision_floor_and_throughput() {
        let r = fake_report();
        let doc = r.append_to_document(None, "pre");
        assert!(check_against(&doc, &r, 0.7).is_ok());
        // Throughput regression fails.
        let mut slow = fake_report();
        slow.mb_per_s = 100.0;
        assert!(check_against(&doc, &slow, 0.7).is_err());
        // Precision below the floor fails even at full throughput.
        let mut sloppy = fake_report();
        sloppy.direct = Score { tp: 90, fp: 10, fn_: 0 };
        let err = check_against(&doc, &sloppy, 0.7).unwrap_err();
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
