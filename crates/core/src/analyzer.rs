//! The FunSeeker analyzer — Algorithm 1 end to end.

use std::time::Instant;

use crate::config::Config;
use crate::disassemble::{disassemble, SweepIndex};
use crate::error::Error;
use crate::filter::filter_endbr_into;
use crate::funcset::FuncSet;
use crate::parse::{parse, Parsed};
use crate::scratch::Scratch;
use crate::tailcall::select_tail_calls_into;

/// A binary with its front-end work done: parsed sections plus the one
/// shared disassembly pass.
///
/// This is the unit of work the evaluation harness and the baseline
/// identifiers share — PARSE and DISASSEMBLE run once per binary here,
/// and every consumer (all four FunSeeker configurations, each baseline
/// tool, the figure/table classifiers) reads the same [`SweepIndex`]
/// instead of re-decoding the image.
#[derive(Debug, Clone)]
pub struct Prepared<'a> {
    /// Sections, exception info, PLT map.
    pub parsed: Parsed<'a>,
    /// The shared linear-sweep index over all code regions.
    pub index: SweepIndex,
}

impl<'a> Prepared<'a> {
    /// Runs the disassembly pass over an already-parsed binary.
    pub fn from_parsed(parsed: Parsed<'a>) -> Self {
        let index = disassemble(&parsed);
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
        self.identify_checked(&prepare(bytes)?)
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
    /// reusing its shared sweep.
    pub fn identify_prepared(&self, prepared: &Prepared<'_>) -> Analysis {
        self.run_stages(&prepared.parsed, &prepared.index)
    }

    /// Runs FILTERENDBR/SELECTTAILCALL over a pre-computed sweep index.
    /// Exposed for the evaluation harness, which reuses one sweep across
    /// all four configurations.
    ///
    /// Allocates a fresh working-set arena per call; batch callers that
    /// analyze many binaries should hold a [`Scratch`] per worker and use
    /// [`run_stages_with`] instead.
    ///
    /// [`run_stages_with`]: FunSeeker::run_stages_with
    pub fn run_stages(&self, parsed: &Parsed<'_>, sweep: &SweepIndex) -> Analysis {
        self.run_stages_with(parsed, sweep, &mut Scratch::new())
    }

    /// [`run_stages`] with caller-provided working-set buffers.
    ///
    /// All intermediate collections live in `scratch`, which is cleared
    /// and refilled — after the arena has grown to the workload's
    /// high-water mark, the per-binary stages allocate nothing beyond
    /// the returned [`Analysis`] itself. The result is identical to
    /// [`run_stages`] regardless of what the arena held before.
    ///
    /// [`run_stages`]: FunSeeker::run_stages
    pub fn run_stages_with(
        &self,
        parsed: &Parsed<'_>,
        sweep: &SweepIndex,
        scratch: &mut Scratch,
    ) -> Analysis {
        // Optional superset pass: recover end-branches the linear sweep
        // may have lost to data-in-text desynchronization. Only the
        // end-branch list is augmented — borrow the rest of the index
        // rather than cloning it.
        let t = Instant::now();
        let endbrs: &[u64] = if self.config.endbr_pattern_scan {
            scratch.endbr_union.clear();
            scratch.endbr_union.extend_from_slice(&sweep.endbrs);
            scratch.endbr_union.extend(crate::disassemble::scan_endbr_pattern(parsed));
            scratch.endbr_union.sort_unstable();
            scratch.endbr_union.dedup();
            &scratch.endbr_union
        } else {
            &sweep.endbrs
        };

        let endbr_count = endbrs.len();

        // E or E′ — sorted and deduplicated either way.
        if self.config.filter_endbr {
            filter_endbr_into(
                parsed,
                &sweep.call_sites,
                endbrs,
                &mut scratch.return_points,
                &mut scratch.entries,
            );
        } else {
            scratch.entries.clear();
            scratch.entries.extend_from_slice(endbrs);
            scratch.entries.sort_unstable();
            scratch.entries.dedup();
        }
        let filtered = endbr_count - scratch.entries.len();
        scratch.stats.filter_ns += t.elapsed().as_nanos() as u64;

        // E′ ∪ C.
        let t = Instant::now();
        scratch.functions.clear();
        scratch.functions.extend_from_slice(&scratch.entries);
        scratch.functions.extend(sweep.call_targets.iter().copied());
        scratch.functions.sort_unstable();
        scratch.functions.dedup();

        // J as a set of distinct targets.
        scratch.jmp_targets.clear();
        scratch.jmp_targets.extend(sweep.jmp_edges.iter().map(|&(_, t)| t));
        scratch.jmp_targets.sort_unstable();
        scratch.jmp_targets.dedup();
        let jmp_target_count = scratch.jmp_targets.len();
        scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;

        // ∪ J or ∪ J′.
        let t = Instant::now();
        let mut tail_count = 0;
        if self.config.include_jump_targets {
            if self.config.select_tail_calls {
                scratch.region_starts.clear();
                scratch.region_starts.extend(sweep.regions.iter().map(|r| r.start));
                select_tail_calls_into(
                    &scratch.functions,
                    &sweep.jmp_edges,
                    self.config.min_tail_referers,
                    &scratch.region_starts,
                    &mut scratch.referers,
                    &mut scratch.tails,
                );
                tail_count = scratch.tails.len();
                scratch.functions.extend_from_slice(&scratch.tails);
            } else {
                scratch.functions.extend_from_slice(&scratch.jmp_targets);
            }
            scratch.functions.sort_unstable();
            scratch.functions.dedup();
        }
        if self.config.select_tail_calls && self.config.include_jump_targets {
            scratch.stats.tailcall_ns += t.elapsed().as_nanos() as u64;
        } else {
            scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;
        }

        // Optional reachability pruning (interprocedural extension).
        // Plain jump-target candidates exist only when J is included
        // unfiltered; every other configuration's candidates carry
        // end-branch, call-target, or SELECTTAILCALL evidence and are
        // never demoted, so the stage short-circuits to a no-op there.
        let mut pruned_count = 0;
        if self.config.reach_prune
            && self.config.include_jump_targets
            && !self.config.select_tail_calls
        {
            let t = Instant::now();
            {
                let Scratch { endbr_union, entries, functions, reach, work, .. } = scratch;
                let endbrs: &[u64] =
                    if self.config.endbr_pattern_scan { endbr_union } else { &sweep.endbrs };
                // Roots: the program entry, every end-branch (landing pads
                // and filtered end-branches are still executed code), and
                // every protected candidate (E′ ∪ C).
                let roots = std::iter::once(parsed.entry)
                    .chain(endbrs.iter().copied())
                    .chain(entries.iter().copied())
                    .chain(sweep.call_targets.iter().copied());
                crate::callgraph::reachable_insns_into(sweep, roots, reach, work);
                let before = functions.len();
                functions.retain(|&f| {
                    entries.binary_search(&f).is_ok()
                        || sweep.call_targets.contains(&f)
                        || f == parsed.entry
                        || sweep.insn_at(f).is_some_and(|i| reach[i / 64] >> (i % 64) & 1 == 1)
                });
                pruned_count = before - functions.len();
            }
            scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;
        }

        // Optional interprocedural summaries over the final entry set.
        let interproc = self.config.interproc.then(|| {
            let t = Instant::now();
            let cfgs = crate::cfg::build_cfgs(sweep, &scratch.functions);
            let graph = crate::callgraph::build_call_graph(sweep, &scratch.functions);
            let summary = InterprocSummary {
                cfg_count: cfgs.len(),
                block_count: cfgs.iter().map(|c| c.blocks.len()).sum(),
                cfg_edge_count: cfgs.iter().map(crate::cfg::Cfg::edge_count).sum(),
                direct_call_edges: graph.direct_count(),
                tail_call_edges: graph.tail_count(),
                indirect_sites: graph.indirect_call_sites.len()
                    + graph.indirect_jump_sites.len()
                    + graph.notrack_sites,
                indirect_targets: graph.indirect_targets.len(),
            };
            scratch.stats.interproc_ns += t.elapsed().as_nanos() as u64;
            summary
        });

        scratch.stats.entry_candidates += scratch.entries.len() as u64;
        scratch.stats.tail_candidates += tail_count as u64;
        scratch.stats.final_candidates += scratch.functions.len() as u64;

        Analysis {
            // One exact-size allocation + memcpy from the sorted run.
            functions: FuncSet::from_sorted_slice(&scratch.functions),
            text_range: parsed.code.bounds(),
            endbr_count,
            filtered_endbrs: filtered,
            call_target_count: sweep.call_targets.len(),
            jmp_target_count,
            tail_target_count: tail_count,
            decode_errors: sweep.decode_errors,
            pruned_count,
            interproc,
            cet_enabled: parsed.cet.full(),
            diagnostics: parsed.diagnostics.clone(),
        }
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
