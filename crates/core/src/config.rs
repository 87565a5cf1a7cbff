//! Analysis configurations (the ablation grid of §V-B).

/// Knobs controlling which stages of Algorithm 1 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Run FILTERENDBR (drop landing-pad and post-`setjmp` end-branches).
    pub filter_endbr: bool,
    /// Include direct jump targets (the set J) as candidates.
    pub include_jump_targets: bool,
    /// Run SELECTTAILCALL (reduce J to tail-call targets J′).
    pub select_tail_calls: bool,
    /// SELECTTAILCALL condition (2): a jump target is kept only when
    /// direct jumps from at least this many *distinct other functions*
    /// reference it ("referenced by multiple functions other than the
    /// current function", §IV-D).
    pub min_tail_referers: usize,
    /// Superset-style end-branch recovery (§VI future work): in addition
    /// to the linear sweep, scan `.text` for the end-branch byte pattern
    /// at *every* offset. Hand-written assembly or inline data can
    /// desynchronize a linear sweep and swallow a following `ENDBR`; the
    /// 4-byte marker pattern is practically self-synchronizing, so a raw
    /// scan recovers those entries. Off by default — the paper's
    /// FunSeeker is purely linear.
    pub endbr_pattern_scan: bool,
    /// Reachability pruning (interprocedural extension): walk the packed
    /// stream from the entry point and every end-branch, following
    /// fallthrough, direct branches, and direct calls, and demote
    /// candidates **that only jump-target evidence supports** when no
    /// walk reaches them. Conservative by construction: end-branch
    /// entries, call targets, and SELECTTAILCALL selections are never
    /// demoted (a closed static call cycle could make them look
    /// unreachable), so only the plain-`J` candidates of configurations
    /// that skip SELECTTAILCALL can be pruned. Off by default; when off,
    /// results are bit-identical to the paper pipeline.
    pub reach_prune: bool,
    /// Interprocedural summaries (extension): after the entry set is
    /// final, build per-function CFGs and the CET-constrained call graph
    /// and record their sizes in [`crate::Analysis::interproc`]. Off by
    /// default — consumers that need the graphs themselves call
    /// [`crate::build_cfgs`] / [`crate::build_call_graph`] directly.
    pub interproc: bool,
}

impl Config {
    /// Whether reachability pruning can demote a candidate: it is on and
    /// plain jump targets are candidates (SELECTTAILCALL's selections are
    /// never demoted).
    pub fn prunes_reach(&self) -> bool {
        self.reach_prune && self.include_jump_targets && !self.select_tail_calls
    }

    /// Whether deriving this configuration reads the sweep's instruction
    /// stream ([`crate::disassemble::SweepIndex::insns`]): reachability
    /// pruning and the interprocedural summary do, Algorithm 1 does not.
    pub fn reads_stream(&self) -> bool {
        self.prunes_reach() || self.interproc
    }

    /// Configuration ① of Table II: `E ∪ C` — raw end-branches plus
    /// direct call targets.
    pub fn c1() -> Config {
        Config {
            filter_endbr: false,
            include_jump_targets: false,
            select_tail_calls: false,
            min_tail_referers: 2,
            endbr_pattern_scan: false,
            reach_prune: false,
            interproc: false,
        }
    }

    /// Configuration ②: `E′ ∪ C` — ① plus FILTERENDBR.
    pub fn c2() -> Config {
        Config { filter_endbr: true, ..Config::c1() }
    }

    /// Configuration ③: `E′ ∪ C ∪ J` — ② plus *all* direct jump targets.
    pub fn c3() -> Config {
        Config { include_jump_targets: true, ..Config::c2() }
    }

    /// Configuration ④ (the full FunSeeker): `E′ ∪ C ∪ J′`.
    pub fn c4() -> Config {
        Config { select_tail_calls: true, ..Config::c3() }
    }

    /// All four configurations with their Table II labels.
    pub fn table2() -> [(&'static str, Config); 4] {
        [("1", Config::c1()), ("2", Config::c2()), ("3", Config::c3()), ("4", Config::c4())]
    }
}

impl Default for Config {
    /// The full algorithm (configuration ④).
    fn default() -> Self {
        Config::c4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_nest() {
        let c1 = Config::c1();
        assert!(!c1.filter_endbr && !c1.include_jump_targets && !c1.select_tail_calls);
        let c2 = Config::c2();
        assert!(c2.filter_endbr && !c2.include_jump_targets);
        let c3 = Config::c3();
        assert!(c3.filter_endbr && c3.include_jump_targets && !c3.select_tail_calls);
        let c4 = Config::c4();
        assert!(c4.filter_endbr && c4.include_jump_targets && c4.select_tail_calls);
        assert_eq!(Config::default(), c4);
        assert_eq!(Config::table2().len(), 4);
    }

    #[test]
    fn extension_stages_default_off_in_every_configuration() {
        // The paper's four configurations never enable the
        // interprocedural extensions — bit-identical to the original
        // pipeline unless a caller opts in explicitly.
        for (_, c) in Config::table2() {
            assert!(!c.reach_prune);
            assert!(!c.interproc);
            assert!(!c.endbr_pattern_scan);
        }
    }
}
