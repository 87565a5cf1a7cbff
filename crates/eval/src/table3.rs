//! Table III — FunSeeker vs the state-of-the-art tools: correctness
//! (precision/recall per architecture × suite) and per-binary analysis
//! time for FunSeeker and FETCH (§V-C, §V-D).

use std::collections::BTreeMap;
use std::time::Instant;

use funseeker_baselines::{FetchLike, FunSeekerTool, FunctionIdentifier, GhidraLike, IdaLike};
use funseeker_corpus::{Arch, Dataset, Suite};

use crate::metrics::Score;
use crate::report::{pct, secs, Table};
use crate::runner::par_map;

/// Tools in the paper's column order.
pub const TOOLS: [&str; 4] = ["FunSeeker", "IDA Pro", "Ghidra", "FETCH"];

/// One tool's aggregate in one (arch, suite) group.
#[derive(Debug, Clone, Copy, Default)]
pub struct ToolCell {
    /// Confusion counts.
    pub score: Score,
    /// Total analysis seconds.
    pub seconds: f64,
    /// Binaries analyzed.
    pub binaries: usize,
}

impl ToolCell {
    /// Mean seconds per binary.
    pub fn mean_seconds(&self) -> f64 {
        self.seconds / self.binaries.max(1) as f64
    }
}

/// The Table III grid.
#[derive(Debug, Clone, Default)]
pub struct Table3 {
    /// `(arch, suite) → per-tool cells` (same order as [`TOOLS`]).
    pub groups: BTreeMap<(&'static str, &'static str), [ToolCell; 4]>,
    /// Dataset-wide totals per tool.
    pub total: [ToolCell; 4],
}

/// Runs all four tools over the dataset.
pub fn run(ds: &Dataset) -> Table3 {
    let per_bin = par_map(&ds.binaries, |bin| {
        let truth = bin.truth.eval_entries();
        let tools: [Box<dyn FunctionIdentifier>; 4] = [
            Box::new(FunSeekerTool::new()),
            Box::new(IdaLike),
            Box::new(GhidraLike),
            Box::new(FetchLike),
        ];
        // PARSE + DISASSEMBLE run once per binary; every tool consumes
        // the shared index. Each tool's reported time still includes the
        // shared preparation cost so the per-tool totals stay comparable
        // to the paper's end-to-end measurements.
        let t0 = Instant::now();
        let prepared = funseeker::prepare_with_stream(&bin.bytes).expect("corpus binary parses");
        let prep_seconds = t0.elapsed().as_secs_f64();
        let mut cells = [ToolCell::default(); 4];
        for (i, tool) in tools.iter().enumerate() {
            let t0 = Instant::now();
            let found = tool.identify_prepared(&prepared).expect("corpus binary analyzable");
            let dt = prep_seconds + t0.elapsed().as_secs_f64();
            cells[i] =
                ToolCell { score: Score::from_funcset(&found, &truth), seconds: dt, binaries: 1 };
        }
        (bin.config.arch, bin.suite, cells)
    });

    let mut out = Table3::default();
    for (arch, suite, cells) in per_bin {
        let group = out.groups.entry((arch.label(), suite.label())).or_default();
        for i in 0..4 {
            group[i].score += cells[i].score;
            group[i].seconds += cells[i].seconds;
            group[i].binaries += cells[i].binaries;
            out.total[i].score += cells[i].score;
            out.total[i].seconds += cells[i].seconds;
            out.total[i].binaries += cells[i].binaries;
        }
    }
    out
}

impl Table3 {
    /// Builds the result table (time shown for FunSeeker and FETCH only,
    /// as in the paper).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "Arch",
            "Suite",
            "FunSeeker P",
            "FunSeeker R",
            "FunSeeker t(ms)",
            "IDA P",
            "IDA R",
            "Ghidra P",
            "Ghidra R",
            "FETCH P",
            "FETCH R",
            "FETCH t(ms)",
        ]);
        for arch in [Arch::X86, Arch::X64] {
            for suite in Suite::ALL {
                let Some(g) = self.groups.get(&(arch.label(), suite.label())) else { continue };
                t.row([
                    arch.label().to_owned(),
                    suite.label().to_owned(),
                    pct(g[0].score.precision()),
                    pct(g[0].score.recall()),
                    secs(g[0].mean_seconds() * 1000.0),
                    pct(g[1].score.precision()),
                    pct(g[1].score.recall()),
                    pct(g[2].score.precision()),
                    pct(g[2].score.recall()),
                    pct(g[3].score.precision()),
                    pct(g[3].score.recall()),
                    secs(g[3].mean_seconds() * 1000.0),
                ]);
            }
        }
        let g = &self.total;
        t.row([
            "Total".to_owned(),
            String::new(),
            pct(g[0].score.precision()),
            pct(g[0].score.recall()),
            secs(g[0].mean_seconds() * 1000.0),
            pct(g[1].score.precision()),
            pct(g[1].score.recall()),
            pct(g[2].score.precision()),
            pct(g[2].score.recall()),
            pct(g[3].score.precision()),
            pct(g[3].score.recall()),
            secs(g[3].mean_seconds() * 1000.0),
        ]);
        t
    }

    /// Mean-time ratio FETCH / FunSeeker (the §V-D headline).
    pub fn speedup(&self) -> f64 {
        self.total[3].mean_seconds() / self.total[0].mean_seconds().max(1e-12)
    }

    /// Renders the paper's Table III layout as markdown.
    pub fn render(&self) -> String {
        let mut out = self.to_table().render();
        out.push_str(&format!("\nFunSeeker vs FETCH mean speedup: {:.1}x\n", self.speedup()));
        out
    }

    /// Renders as CSV.
    pub fn render_csv(&self) -> String {
        self.to_table().render_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker_corpus::{BuildConfig, DatasetParams};

    #[test]
    fn funseeker_wins_on_both_metrics() {
        let mut params = DatasetParams::tiny();
        params.programs = (3, 2, 3);
        params.configs = BuildConfig::grid();
        let ds = Dataset::generate(&params, 55);
        let t3 = run(&ds);

        let fun = t3.total[0].score;
        for (i, name) in TOOLS.iter().enumerate().skip(1) {
            let s = t3.total[i].score;
            assert!(
                fun.precision() >= s.precision() - 1e-9,
                "FunSeeker precision {:.4} < {name} {:.4}",
                fun.precision(),
                s.precision()
            );
            assert!(
                fun.recall() > s.recall(),
                "FunSeeker recall {:.4} ≤ {name} {:.4}",
                fun.recall(),
                s.recall()
            );
        }
        assert!(fun.precision() > 0.97);
        assert!(fun.recall() > 0.99);
    }

    #[test]
    fn x86_collapse_for_eh_based_tools() {
        let mut params = DatasetParams::tiny();
        params.programs = (3, 2, 3);
        params.configs = BuildConfig::grid();
        let ds = Dataset::generate(&params, 56);
        let t3 = run(&ds);
        // FETCH on x86: the Clang half has no FDEs, so recall drops far
        // below its x64 figures (paper: ~50% vs ~99%).
        for suite in ["Coreutils", "Binutils"] {
            let x86 = t3.groups[&("x86", suite)][3].score.recall();
            let x64 = t3.groups[&("x64", suite)][3].score.recall();
            assert!(
                x86 < x64 - 0.2,
                "{suite}: FETCH x86 recall {x86:.3} not clearly below x64 {x64:.3}"
            );
        }
        // IDA has the lowest total recall (paper: 76.3%).
        let recalls: Vec<f64> = (0..4).map(|i| t3.total[i].score.recall()).collect();
        let ida = recalls[1];
        assert!(recalls.iter().all(|&r| ida <= r + 1e-9), "IDA should trail: {recalls:?}");
        let rendered = t3.render();
        assert!(rendered.contains("speedup"));
    }
}
