//! ARM BTI evaluation — the §VI future-work experiment, beyond the
//! paper's own tables.
//!
//! Generates BTI-enabled AArch64 binaries and scores the BTI identifier
//! with and without tail-call selection, mirroring the x86 ablation.

use funseeker_aarch64::{generate, ArmParams, BtiConfig, BtiSeeker};

use crate::metrics::Score;
use crate::report::{pct, Table};

/// Aggregate result of the ARM experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmEval {
    /// BTI markers + BL targets only.
    pub without_tails: Score,
    /// Full pipeline with tail-call selection.
    pub full: Score,
    /// Binaries evaluated.
    pub binaries: usize,
}

/// Runs the experiment over `count` seeded binaries.
pub fn run(count: usize, seed: u64) -> ArmEval {
    let mut out = ArmEval::default();
    let no_tails =
        BtiSeeker::with_config(BtiConfig { select_tail_calls: false, min_tail_referers: 2 });
    let full = BtiSeeker::new();
    for s in 0..count as u64 {
        let bin = generate(ArmParams::default(), seed ^ (s.wrapping_mul(0x9e37_79b9)));
        let truth = bin.entries();
        let a = no_tails.identify(&bin.bytes).expect("generated ARM binary analyzable");
        out.without_tails += Score::from_funcset(&a.functions, &truth);
        let b = full.identify(&bin.bytes).expect("generated ARM binary analyzable");
        out.full += Score::from_funcset(&b.functions, &truth);
        out.binaries += 1;
    }
    out
}

impl ArmEval {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["BTI identifier", "Prec. %", "Rec. %"]);
        t.row([
            "BTI ∪ BL-targets".to_owned(),
            pct(self.without_tails.precision()),
            pct(self.without_tails.recall()),
        ]);
        t.row(["+ SELECTTAILCALL".to_owned(), pct(self.full.precision()), pct(self.full.recall())]);
        let mut out = t.render();
        out.push_str(&format!("\n({} AArch64 binaries)\n", self.binaries));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_results_mirror_x86_shape() {
        let r = run(20, 7);
        assert_eq!(r.binaries, 20);
        assert!(r.full.precision() > 0.99);
        assert!(r.full.recall() > 0.99);
        // Tail selection only helps recall, never hurts precision much.
        assert!(r.full.recall() >= r.without_tails.recall());
        let rendered = r.render();
        assert!(rendered.contains("SELECTTAILCALL"));
    }
}
