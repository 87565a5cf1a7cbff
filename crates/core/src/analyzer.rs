//! The FunSeeker analyzer — Algorithm 1 end to end.

use crate::config::Config;
use crate::disassemble::{disassemble, disassemble_with_stream, SweepIndex};
use crate::error::Error;
use crate::funcset::FuncSet;
use crate::parse::{parse, Parsed};
use crate::plan::AnalysisPlan;
use crate::scratch::Scratch;

/// A binary with its front-end work done: parsed sections plus the one
/// shared disassembly pass.
///
/// This is the unit of work the evaluation harness and the baseline
/// identifiers share — PARSE and DISASSEMBLE run once per binary here,
/// and every consumer (all four FunSeeker configurations, each baseline
/// tool, the figure/table classifiers) reads the same [`SweepIndex`]
/// instead of re-decoding the image. Its instruction stream is swept
/// once more, on first use, for the consumers that read it.
#[derive(Debug, Clone)]
pub struct Prepared<'a> {
    /// Sections, exception info, PLT map.
    pub parsed: Parsed<'a>,
    /// The shared linear-sweep index over all code regions.
    pub index: SweepIndex<'a>,
}

impl<'a> Prepared<'a> {
    /// Runs the disassembly pass over an already-parsed binary.
    pub fn from_parsed(parsed: Parsed<'a>) -> Self {
        let index = disassemble(&parsed);
        Prepared { parsed, index }
    }

    /// [`Prepared::from_parsed`] that builds the instruction stream in
    /// the same sweep, for callers that will read it (a configuration
    /// that [`Config::reads_stream`], CFGs, the call graph, the
    /// baselines): one decode per region instead of two.
    pub fn from_parsed_with_stream(parsed: Parsed<'a>) -> Self {
        let index = disassemble_with_stream(&parsed);
        Prepared { parsed, index }
    }

    /// Decode-work and timing counters of the shared sweep, merged over
    /// all code regions — what `experiments -- perf` reports.
    pub fn sweep_stats(&self) -> &funseeker_disasm::SweepStats {
        &self.index.stats
    }
}

/// Parses a raw ELF image and runs the shared disassembly pass.
pub fn prepare(bytes: &[u8]) -> Result<Prepared<'_>, Error> {
    Ok(Prepared::from_parsed(parse(bytes)?))
}

/// [`prepare`] with the instruction stream built in the same sweep
/// ([`Prepared::from_parsed_with_stream`]).
pub fn prepare_with_stream(bytes: &[u8]) -> Result<Prepared<'_>, Error> {
    Ok(Prepared::from_parsed_with_stream(parse(bytes)?))
}

/// Sizes of the interprocedural artifacts built over the final entry
/// set — per-function CFGs and the CET-constrained call graph. Recorded
/// in [`Analysis::interproc`] when [`Config::interproc`] is enabled;
/// callers that need the graphs themselves use [`crate::build_cfgs`] and
/// [`crate::build_call_graph`] directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterprocSummary {
    /// Per-function CFGs built (= identified functions).
    pub cfg_count: usize,
    /// Basic blocks across all CFGs.
    pub block_count: usize,
    /// Intra-procedural edges across all CFGs.
    pub cfg_edge_count: usize,
    /// Direct call edges (`CALL rel32` sites).
    pub direct_call_edges: usize,
    /// Tail-call edges (direct jumps to another function's entry).
    pub tail_call_edges: usize,
    /// Indirect call/jump sites (tracked and `NOTRACK`).
    pub indirect_sites: usize,
    /// CET-constrained indirect-target candidates (ENDBR-marked
    /// entries).
    pub indirect_targets: usize,
}

impl InterprocSummary {
    /// Builds the CFGs and the call graph over `functions` and records
    /// their sizes.
    pub(crate) fn of(sweep: &SweepIndex, functions: &[u64]) -> InterprocSummary {
        let cfgs = crate::cfg::build_cfgs(sweep, functions);
        let graph = crate::callgraph::build_call_graph(sweep, functions);
        InterprocSummary {
            cfg_count: cfgs.len(),
            block_count: cfgs.iter().map(|c| c.blocks.len()).sum(),
            cfg_edge_count: cfgs.iter().map(crate::cfg::Cfg::edge_count).sum(),
            direct_call_edges: graph.direct_count(),
            tail_call_edges: graph.tail_count(),
            indirect_sites: graph.indirect_call_sites.len()
                + graph.indirect_jump_sites.len()
                + graph.notrack_sites,
            indirect_targets: graph.indirect_targets.len(),
        }
    }
}

/// Function identification result with per-stage accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Identified function entry addresses — a packed sorted set (one
    /// contiguous allocation, binary-search membership).
    pub functions: FuncSet,
    /// `[start, end)` span of the analyzed code (first region start to
    /// last region end).
    pub text_range: (u64, u64),
    /// |E| — end-branches found by the sweep.
    pub endbr_count: usize,
    /// |E| − |E′| — end-branches removed by FILTERENDBR.
    pub filtered_endbrs: usize,
    /// |C| — direct call targets inside the analyzed code.
    pub call_target_count: usize,
    /// |J| — distinct direct jump targets inside the analyzed code.
    pub jmp_target_count: usize,
    /// |J′| — jump targets kept by SELECTTAILCALL (0 when disabled).
    pub tail_target_count: usize,
    /// Byte positions skipped over decode errors during the sweep.
    pub decode_errors: usize,
    /// Candidates demoted by reachability pruning (0 unless
    /// [`Config::reach_prune`] is enabled and plain jump-target
    /// candidates were in play).
    pub pruned_count: usize,
    /// Interprocedural artifact sizes, when [`Config::interproc`] is
    /// enabled.
    pub interproc: Option<InterprocSummary>,
    /// Whether the binary declares full CET support
    /// (`.note.gnu.property` with IBT and SHSTK — §II's definition of a
    /// CET-enabled binary). End-branch evidence is still used either
    /// way; this flag tells the caller how much to trust it.
    pub cet_enabled: bool,
    /// Warnings recorded while the front end degraded over malformed
    /// optional metadata; empty for a clean image. See
    /// [`crate::Diagnostics`].
    pub diagnostics: crate::Diagnostics,
}

/// The FunSeeker function identifier.
///
/// ```
/// use funseeker::FunSeeker;
/// let bytes = std::fs::read("/proc/self/exe").unwrap();
/// let analysis = FunSeeker::new().identify(&bytes).unwrap();
/// println!("{} functions", analysis.functions.len());
/// ```
///
/// Malformed *optional* metadata (a corrupt `.eh_frame`, property note,
/// or PLT relocation chain) does not fail [`identify`]: the pipeline
/// degrades, records what happened in [`Analysis::diagnostics`], and
/// analyzes the regions it can still read. Opt into rejection instead
/// with [`strict`]:
///
/// ```
/// use funseeker::FunSeeker;
/// let bytes = std::fs::read("/proc/self/exe").unwrap();
/// let analysis = FunSeeker::new().strict(true).identify(&bytes).unwrap();
/// assert!(analysis.diagnostics.is_empty()); // strict Ok implies no warnings
/// ```
///
/// [`identify`]: FunSeeker::identify
/// [`strict`]: FunSeeker::strict
#[derive(Debug, Clone, Default)]
pub struct FunSeeker {
    config: Config,
    strict: bool,
}

impl FunSeeker {
    /// An analyzer running the full algorithm (configuration ④).
    pub fn new() -> Self {
        Self::default()
    }

    /// An analyzer with an explicit [`Config`] (e.g. the Table II
    /// ablations).
    pub fn with_config(config: Config) -> Self {
        FunSeeker { config, strict: false }
    }

    /// The active configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Sets strict mode: when enabled, [`FunSeeker::identify`] turns
    /// front-end degradation warnings into [`Error::Strict`] instead of
    /// returning a degraded [`Analysis`].
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Whether strict mode is enabled.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Identifies function entries in a raw ELF image.
    pub fn identify(&self, bytes: &[u8]) -> Result<Analysis, Error> {
        if self.config.reads_stream() {
            self.identify_checked(&prepare_with_stream(bytes)?)
        } else {
            self.identify_checked(&prepare(bytes)?)
        }
    }

    /// [`identify`](FunSeeker::identify) for an already-prepared binary:
    /// [`identify_prepared`](FunSeeker::identify_prepared) plus the
    /// strict-mode check, for callers that keep the prepared binary for
    /// further passes (call graph, disassembly).
    pub fn identify_checked(&self, prepared: &Prepared<'_>) -> Result<Analysis, Error> {
        let analysis = self.identify_prepared(prepared);
        if self.strict && !analysis.diagnostics.is_empty() {
            return Err(Error::Strict(analysis.diagnostics));
        }
        Ok(analysis)
    }

    /// Identifies function entries in an already-prepared binary,
    /// reusing its shared sweep: one [`AnalysisPlan`] built for this
    /// configuration. Callers deriving several configurations per
    /// binary hold a plan themselves.
    pub fn identify_prepared(&self, prepared: &Prepared<'_>) -> Analysis {
        AnalysisPlan::new().derive(
            &self.config,
            &prepared.parsed,
            &prepared.index,
            &mut Scratch::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    #[test]
    fn identifies_functions_in_own_executable() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let a = FunSeeker::new().identify(&bytes).unwrap();
        // A Rust test binary has thousands of functions; at minimum the
        // direct-call graph should surface plenty.
        assert!(a.functions.len() > 100, "found {}", a.functions.len());
        assert!(a.functions.iter().all(|&f| f >= a.text_range.0 && f < a.text_range.1));
    }

    #[test]
    fn config_monotonicity_on_real_binary() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let c1 = FunSeeker::with_config(Config::c1()).identify_prepared(&prepared);
        let c2 = FunSeeker::with_config(Config::c2()).identify_prepared(&prepared);
        let c3 = FunSeeker::with_config(Config::c3()).identify_prepared(&prepared);
        let c4 = FunSeeker::with_config(Config::c4()).identify_prepared(&prepared);
        // ② ⊆ ①: filtering only removes.
        assert!(c2.functions.is_subset(&c1.functions));
        // ② ⊆ ④ ⊆ ③: tail-call selection keeps a subset of J.
        assert!(c2.functions.is_subset(&c4.functions));
        assert!(c4.functions.is_subset(&c3.functions));
    }

    #[test]
    fn prepared_reuse_matches_direct_identify() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let via_prepared = FunSeeker::new().identify_prepared(&prepared);
        let direct = FunSeeker::new().identify(&bytes).unwrap();
        assert_eq!(via_prepared, direct);
    }

    #[test]
    fn identify_prepared_matches_reference() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        for (label, config) in Config::table2() {
            let scan = Config { endbr_pattern_scan: true, ..config };
            for config in [config, scan] {
                assert_eq!(
                    FunSeeker::with_config(config).identify_prepared(&prepared),
                    crate::reference::identify(&config, &prepared),
                    "config {label} {config:?}"
                );
            }
        }
    }

    #[test]
    fn garbage_input_errors() {
        assert!(FunSeeker::new().identify(b"junk").is_err());
    }

    #[test]
    fn reach_prune_only_demotes_plain_jump_candidates() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        // On ②/④ every candidate is protected: pruning must change
        // nothing but still report zero demotions.
        for base in [Config::c2(), Config::c4()] {
            let plain = FunSeeker::with_config(base).identify_prepared(&prepared);
            let pruned = FunSeeker::with_config(Config { reach_prune: true, ..base })
                .identify_prepared(&prepared);
            assert_eq!(pruned.pruned_count, 0);
            assert_eq!(plain.functions, pruned.functions);
        }
        // On ③ the pruned set is a subset of the unpruned one, and every
        // demoted candidate is a plain jump target (not in ②'s set).
        let c3 = FunSeeker::with_config(Config::c3()).identify_prepared(&prepared);
        let c3p = FunSeeker::with_config(Config { reach_prune: true, ..Config::c3() })
            .identify_prepared(&prepared);
        assert!(c3p.functions.is_subset(&c3.functions));
        assert_eq!(c3.functions.len() - c3p.functions.len(), c3p.pruned_count);
        let c2 = FunSeeker::with_config(Config::c2()).identify_prepared(&prepared);
        for demoted in c3.functions.difference(&c3p.functions) {
            assert!(!c2.functions.contains(demoted), "{demoted:#x} was protected");
        }
    }

    #[test]
    fn disabled_prune_stage_is_bit_identical() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let plain = FunSeeker::with_config(Config::c3()).identify_prepared(&prepared);
        let off = FunSeeker::with_config(Config { reach_prune: false, ..Config::c3() })
            .identify_prepared(&prepared);
        assert_eq!(plain, off);
        assert_eq!(plain.pruned_count, 0);
    }

    #[test]
    fn interproc_summary_is_populated_on_request() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let base = FunSeeker::new().identify_prepared(&prepared);
        assert!(base.interproc.is_none(), "off by default");
        let with = FunSeeker::with_config(Config { interproc: true, ..Config::c4() })
            .identify_prepared(&prepared);
        let s = with.interproc.expect("summary requested");
        assert_eq!(s.cfg_count, with.functions.len());
        assert!(s.block_count >= s.cfg_count, "every function has at least one block");
        assert!(s.cfg_edge_count > 0);
        assert!(s.direct_call_edges > 100, "a real binary has many calls");
        assert!(s.indirect_targets <= with.functions.len());
        // The summary is the only difference from the base analysis.
        assert_eq!(with.functions, base.functions);
    }
}
