//! The fused multi-configuration analysis plan.
//!
//! The paper's evaluation runs every binary under four configurations
//! (Table II's ablation of FILTERENDBR / SELECTTAILCALL). PARSE and
//! DISASSEMBLE are already shared via [`crate::Prepared`], but the
//! *stage* pipeline ([`crate::FunSeeker::run_stages_with`]) used to run
//! from scratch per configuration — paying PLT classification,
//! landing-pad filtering, and candidate-set construction four times per
//! binary.
//!
//! [`AnalysisPlan`] materializes every **config-invariant** primitive in
//! one pass over the shared [`SweepIndex`] + [`Parsed`]:
//!
//! | primitive | contents | configs that read it |
//! |---|---|---|
//! | `E` partition | every end-branch classified as *plain*, *PLT-return*, *special-return* (setjmp family), or *landing pad* | all |
//! | `E′` | the kept classes (plain + PLT-return) | ②③④ |
//! | `C` | direct call targets, sorted | all |
//! | `E ∪ C`, `E′ ∪ C` | the two candidate bases, pre-merged | all |
//! | `J` | distinct direct jump targets | ③ (+ count for all) |
//! | tail runs | `(target, distinct referring intervals)` for every jump leaving its interval — `J′` at *any* `min_tail_referers` falls out by thresholding | ④ |
//! | reach bitmap | instructions reachable from the entry ∪ `E` ∪ `C` root set (computed lazily; the root set is config-invariant because `E′ ⊆ E`) | `reach_prune` variants |
//! | CET verdict | the `.note.gnu.property` IBT+SHSTK check | all |
//!
//! [`AnalysisPlan::derive`] then produces each configuration's
//! [`Analysis`] by cheap set algebra over the plan — linear merges of
//! already-sorted runs — instead of a full stage re-run. The output is
//! **bit-identical** to [`crate::FunSeeker::run_stages_with`] for the
//! same `(parsed, sweep)` pair; configurations outside the plan's
//! supported family (see [`AnalysisPlan::supports`]) fall back to the
//! reference pipeline internally, so `derive` is always safe to call.
//!
//! The plan owns its buffers and is rebuilt in place per binary
//! ([`AnalysisPlan::rebuild`] clears and refills, keeping capacity), so
//! a batch worker holding one plan next to its [`Scratch`] stops
//! allocating on the warm path.

use std::time::Instant;

use crate::analyzer::{Analysis, FunSeeker, InterprocSummary};
use crate::config::Config;
use crate::disassemble::SweepIndex;
use crate::filter::is_indirect_return_name;
use crate::funcset::FuncSet;
use crate::parse::Parsed;
use crate::scratch::Scratch;
use crate::tailcall::tail_referer_runs_into;

/// FILTERENDBR evidence class of one end-branch (§III-B / §IV-C).
///
/// The classes partition `E`; FILTERENDBR keeps exactly
/// [`EndbrClass::Plain`] and [`EndbrClass::PltReturn`]. An end-branch
/// matching several classes is assigned the first in the order below —
/// the kept/dropped verdict is unaffected because both dropped classes
/// precede both kept ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndbrClass {
    /// A C++ exception landing pad (from `.gcc_except_table`) —
    /// dropped.
    LandingPad = 0,
    /// The return point of a call to an indirect-return function
    /// (`setjmp` family, GCC's `special_function_p` list) — dropped.
    SpecialReturn = 1,
    /// The instruction after a call to some *other* PLT stub: the
    /// end-branch is a plain return point that happens to carry CET's
    /// marker — kept (only the special functions of §III-B return
    /// indirectly).
    PltReturn = 2,
    /// No non-entry evidence — kept.
    Plain = 3,
}

/// All evidence classes, in classification-precedence order.
pub const ENDBR_CLASSES: [EndbrClass; 4] =
    [EndbrClass::LandingPad, EndbrClass::SpecialReturn, EndbrClass::PltReturn, EndbrClass::Plain];

/// Config-invariant stage primitives for one binary, materialized once;
/// the module-level docs carry the full partition table.
///
/// ```
/// use funseeker::{prepare, AnalysisPlan, Config, FunSeeker, Scratch};
/// let bytes = std::fs::read("/proc/self/exe").unwrap();
/// let prepared = prepare(&bytes).unwrap();
/// let mut plan = AnalysisPlan::new();
/// let mut scratch = Scratch::new();
/// plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
/// for (_, config) in Config::table2() {
///     let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
///     let slow = FunSeeker::with_config(config).identify_prepared(&prepared);
///     assert_eq!(fast, slow); // bit-identical, ~4x less stage work
/// }
/// ```
#[derive(Debug, Default)]
pub struct AnalysisPlan {
    /// Program entry point (identity guard + prune root).
    entry: u64,
    /// `[start, end)` of the analyzed code.
    text_range: (u64, u64),
    /// The `.note.gnu.property` IBT+SHSTK verdict.
    cet_enabled: bool,
    /// Decode errors recorded by the shared sweep.
    decode_errors: usize,
    /// |E| before deduplication (what `run_stages` reports).
    endbr_count: usize,
    /// Members per [`EndbrClass`], indexed by discriminant.
    class_counts: [usize; 4],
    /// `E` sorted and deduplicated.
    entries_all: Vec<u64>,
    /// `E′` — the kept classes, sorted.
    entries_filtered: Vec<u64>,
    /// `E ∪ C`, pre-merged.
    cands_unfiltered: Vec<u64>,
    /// `E′ ∪ C`, pre-merged — the default candidate base.
    cands_filtered: Vec<u64>,
    /// `J` — distinct direct jump targets.
    jmp_targets: Vec<u64>,
    /// SELECTTAILCALL interval structure over `E′ ∪ C`: `(target,
    /// distinct referring intervals)`, sorted by target.
    tail_runs: Vec<(u64, u32)>,
    /// Reachability bitmap (bit per instruction), built on first
    /// `reach_prune` derive.
    reach: Vec<u64>,
    /// Whether `reach` is valid for the current binary.
    reach_built: bool,
}

impl AnalysisPlan {
    /// An empty plan; [`rebuild`](AnalysisPlan::rebuild) before use.
    pub fn new() -> AnalysisPlan {
        AnalysisPlan::default()
    }

    /// Builds a plan for one prepared binary with a private scratch
    /// arena. Batch callers reuse a long-lived plan + arena via
    /// [`rebuild`](AnalysisPlan::rebuild) instead.
    pub fn build(parsed: &Parsed<'_>, sweep: &SweepIndex) -> AnalysisPlan {
        let mut plan = AnalysisPlan::new();
        plan.rebuild(parsed, sweep, &mut Scratch::new());
        plan
    }

    /// Whether [`derive`](AnalysisPlan::derive) can serve `config` from
    /// the plan's primitives. Two families step outside them:
    /// `endbr_pattern_scan` changes `E` itself, and SELECTTAILCALL over
    /// the *unfiltered* base `E ∪ C` (an off-grid combination — every
    /// Table II configuration that selects tail calls also filters)
    /// would need a second interval structure. Both fall back to the
    /// reference pipeline inside `derive`.
    pub fn supports(config: &Config) -> bool {
        if config.endbr_pattern_scan {
            return false;
        }
        !(config.select_tail_calls && config.include_jump_targets && !config.filter_endbr)
    }

    /// Recomputes every primitive for a new binary, reusing the plan's
    /// buffers (and `scratch`'s temporaries) so the warm path allocates
    /// nothing.
    pub fn rebuild(&mut self, parsed: &Parsed<'_>, sweep: &SweepIndex, scratch: &mut Scratch) {
        self.entry = parsed.entry;
        self.text_range = parsed.code.bounds();
        self.cet_enabled = parsed.cet.full();
        self.decode_errors = sweep.decode_errors;
        self.endbr_count = sweep.endbrs.len();
        self.reach_built = false;

        // --- FILTERENDBR evidence, one pass over the call sites. ---
        // Special (setjmp-family) return points are a subset of the
        // PLT return points; both lists come from the same PLT lookup.
        let t = Instant::now();
        scratch.return_points.clear();
        scratch.plt_returns.clear();
        for &(after, target) in &sweep.call_sites {
            if let Some(name) = parsed.plt.name_at(target) {
                scratch.plt_returns.push(after);
                if is_indirect_return_name(name) {
                    scratch.return_points.push(after);
                }
            }
        }
        scratch.return_points.sort_unstable();
        scratch.return_points.dedup();
        scratch.plt_returns.sort_unstable();
        scratch.plt_returns.dedup();

        // `E` sorted+deduped, partitioned by evidence class; `E′` falls
        // out as the kept classes.
        self.entries_all.clear();
        self.entries_all.extend_from_slice(&sweep.endbrs);
        self.entries_all.sort_unstable();
        self.entries_all.dedup();
        self.entries_filtered.clear();
        self.class_counts = [0; 4];
        for &e in &self.entries_all {
            let class = if parsed.landing_pads.contains(&e) {
                EndbrClass::LandingPad
            } else if scratch.return_points.binary_search(&e).is_ok() {
                EndbrClass::SpecialReturn
            } else if scratch.plt_returns.binary_search(&e).is_ok() {
                EndbrClass::PltReturn
            } else {
                EndbrClass::Plain
            };
            self.class_counts[class as usize] += 1;
            if matches!(class, EndbrClass::Plain | EndbrClass::PltReturn) {
                self.entries_filtered.push(e);
            }
        }
        scratch.stats.filter_ns += t.elapsed().as_nanos() as u64;

        // --- Candidate bases and the jump-target set. ---
        let t = Instant::now();
        merge_union_into(&self.entries_all, &sweep.call_targets, &mut self.cands_unfiltered);
        merge_union_into(&self.entries_filtered, &sweep.call_targets, &mut self.cands_filtered);
        self.jmp_targets.clear();
        self.jmp_targets.extend(sweep.jmp_edges.iter().map(|&(_, t)| t));
        self.jmp_targets.sort_unstable();
        self.jmp_targets.dedup();
        scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;

        // --- SELECTTAILCALL interval structure over `E′ ∪ C`. ---
        let t = Instant::now();
        scratch.region_starts.clear();
        scratch.region_starts.extend(sweep.regions.iter().map(|r| r.start));
        tail_referer_runs_into(
            &self.cands_filtered,
            &sweep.jmp_edges,
            &scratch.region_starts,
            &mut scratch.referers,
            &mut self.tail_runs,
        );
        scratch.stats.tailcall_ns += t.elapsed().as_nanos() as u64;
    }

    /// Derives one configuration's [`Analysis`] from the plan — linear
    /// set algebra over the pre-merged runs, bit-identical to
    /// [`crate::FunSeeker::run_stages_with`] on the same `(parsed,
    /// sweep)` the plan was rebuilt from. Unsupported configurations
    /// (see [`supports`](AnalysisPlan::supports)) run the reference
    /// pipeline instead.
    pub fn derive(
        &mut self,
        config: &Config,
        parsed: &Parsed<'_>,
        sweep: &SweepIndex,
        scratch: &mut Scratch,
    ) -> Analysis {
        if !Self::supports(config) {
            return FunSeeker::with_config(*config).run_stages_with(parsed, sweep, scratch);
        }
        debug_assert_eq!(self.entry, parsed.entry, "plan built from a different binary");
        debug_assert_eq!(self.endbr_count, sweep.endbrs.len(), "plan built from a different sweep");

        let entries: &[u64] =
            if config.filter_endbr { &self.entries_filtered } else { &self.entries_all };
        let base: &[u64] =
            if config.filter_endbr { &self.cands_filtered } else { &self.cands_unfiltered };

        // Stage the final run in the arena only when `J` evidence has
        // to be merged in; the `E ∪ C` configurations publish their
        // pre-merged base directly.
        let mut tail_count = 0;
        if config.include_jump_targets {
            if config.select_tail_calls {
                let t = Instant::now();
                tail_count = merge_tails_into(
                    base,
                    &self.tail_runs,
                    config.min_tail_referers,
                    &mut scratch.functions,
                );
                scratch.stats.tailcall_ns += t.elapsed().as_nanos() as u64;
            } else {
                let t = Instant::now();
                merge_union_into(base, &self.jmp_targets, &mut scratch.functions);
                scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;
            }
        }

        // Reachability pruning over the lazily-built, config-invariant
        // bitmap: the roots are the entry ∪ *all* end-branches ∪ call
        // targets, which covers every configuration's `entries` because
        // `E′ ⊆ E`.
        let mut pruned_count = 0;
        if config.reach_prune && config.include_jump_targets && !config.select_tail_calls {
            let t = Instant::now();
            if !self.reach_built {
                let roots = std::iter::once(self.entry)
                    .chain(self.entries_all.iter().copied())
                    .chain(sweep.call_targets.iter().copied());
                crate::callgraph::reachable_insns_into(
                    sweep,
                    roots,
                    &mut self.reach,
                    &mut scratch.work,
                );
                self.reach_built = true;
            }
            let (reach, call_targets) = (&self.reach, &sweep.call_targets);
            let before = scratch.functions.len();
            scratch.functions.retain(|&f| {
                entries.binary_search(&f).is_ok()
                    || call_targets.contains(&f)
                    || f == parsed.entry
                    || sweep.insn_at(f).is_some_and(|i| reach[i / 64] >> (i % 64) & 1 == 1)
            });
            pruned_count = before - scratch.functions.len();
            scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;
        }

        let funcs: &[u64] = if config.include_jump_targets { &scratch.functions } else { base };

        let interproc = config.interproc.then(|| {
            let t = Instant::now();
            let cfgs = crate::cfg::build_cfgs(sweep, funcs);
            let graph = crate::callgraph::build_call_graph(sweep, funcs);
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

        scratch.stats.entry_candidates += entries.len() as u64;
        scratch.stats.tail_candidates += tail_count as u64;
        scratch.stats.final_candidates += funcs.len() as u64;

        Analysis {
            functions: FuncSet::from_sorted_slice(funcs),
            text_range: self.text_range,
            endbr_count: self.endbr_count,
            filtered_endbrs: self.endbr_count - entries.len(),
            call_target_count: sweep.call_targets.len(),
            jmp_target_count: self.jmp_targets.len(),
            tail_target_count: tail_count,
            decode_errors: self.decode_errors,
            pruned_count,
            interproc,
            cet_enabled: self.cet_enabled,
            diagnostics: parsed.diagnostics.clone(),
        }
    }

    /// |E| — end-branches found by the sweep (before deduplication).
    pub fn endbr_count(&self) -> usize {
        self.endbr_count
    }

    /// Members of one FILTERENDBR evidence class.
    pub fn class_count(&self, class: EndbrClass) -> usize {
        self.class_counts[class as usize]
    }

    /// |E′| — entries surviving FILTERENDBR (plain + PLT-return).
    pub fn filtered_entry_count(&self) -> usize {
        self.entries_filtered.len()
    }

    /// |J| — distinct direct jump targets.
    pub fn jmp_target_count(&self) -> usize {
        self.jmp_targets.len()
    }

    /// Targets in the SELECTTAILCALL interval structure (candidates for
    /// `J′` before thresholding).
    pub fn tail_run_count(&self) -> usize {
        self.tail_runs.len()
    }

    /// Whether the binary declares full CET support.
    pub fn cet_enabled(&self) -> bool {
        self.cet_enabled
    }

    /// Total heap capacity retained by the plan's buffers, in bytes —
    /// the counter the no-per-config-allocation assertion watches.
    pub fn capacity_bytes(&self) -> usize {
        let u64s = self.entries_all.capacity()
            + self.entries_filtered.capacity()
            + self.cands_unfiltered.capacity()
            + self.cands_filtered.capacity()
            + self.jmp_targets.capacity()
            + self.reach.capacity();
        u64s * std::mem::size_of::<u64>()
            + self.tail_runs.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

/// Union of two strictly-ascending runs into `out` (cleared first).
fn merge_union_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Union of `base` with the tail-run targets clearing `min_referers`,
/// into `out` (cleared first). Returns the number of selected targets.
/// Relies on SELECTTAILCALL's invariant that run targets are disjoint
/// from the candidate base.
fn merge_tails_into(
    base: &[u64],
    runs: &[(u64, u32)],
    min_referers: usize,
    out: &mut Vec<u64>,
) -> usize {
    out.clear();
    out.reserve(base.len() + runs.len());
    let mut selected = 0;
    let mut bi = 0;
    for &(target, referers) in runs {
        if (referers as usize) < min_referers {
            continue;
        }
        selected += 1;
        while bi < base.len() && base[bi] < target {
            out.push(base[bi]);
            bi += 1;
        }
        debug_assert!(bi >= base.len() || base[bi] != target, "tail target already a candidate");
        out.push(target);
    }
    out.extend_from_slice(&base[bi..]);
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;
    use crate::scratch::StageStats;

    #[test]
    fn merge_union_matches_sort_dedup() {
        let cases: &[(&[u64], &[u64])] = &[
            (&[], &[]),
            (&[1, 3, 5], &[]),
            (&[], &[2, 4]),
            (&[1, 3, 5], &[2, 3, 6]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[10], &[1, 2, 3, 4]),
        ];
        let mut out = Vec::new();
        for (a, b) in cases {
            merge_union_into(a, b, &mut out);
            let mut expect: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(out, expect, "{a:?} ∪ {b:?}");
        }
    }

    #[test]
    fn derive_matches_run_stages_for_every_table2_config() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for (label, config) in Config::table2() {
            let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
            let slow = FunSeeker::with_config(config).identify_prepared(&prepared);
            assert_eq!(fast, slow, "config {label}");
        }
    }

    #[test]
    fn derive_matches_run_stages_for_extension_variants() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for (label, base) in Config::table2() {
            for (reach_prune, interproc) in [(true, false), (false, true), (true, true)] {
                let config = Config { reach_prune, interproc, ..base };
                let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
                let slow = FunSeeker::with_config(config).identify_prepared(&prepared);
                assert_eq!(fast, slow, "config {label} prune={reach_prune} ip={interproc}");
            }
        }
        // Off-plan configurations take the fallback and still match.
        for config in [
            Config { endbr_pattern_scan: true, ..Config::c4() },
            Config { filter_endbr: false, ..Config::c4() },
        ] {
            assert!(!AnalysisPlan::supports(&config));
            let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
            let slow = FunSeeker::with_config(config).identify_prepared(&prepared);
            assert_eq!(fast, slow, "fallback {config:?}");
        }
    }

    #[test]
    fn derive_handles_min_tail_referer_sweep() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for min in [1, 2, 3, 8] {
            let config = Config { min_tail_referers: min, ..Config::c4() };
            let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
            let slow = FunSeeker::with_config(config).identify_prepared(&prepared);
            assert_eq!(fast, slow, "min_tail_referers={min}");
        }
    }

    #[test]
    fn evidence_classes_partition_e() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let plan = AnalysisPlan::build(&prepared.parsed, &prepared.index);
        let total: usize = ENDBR_CLASSES.iter().map(|&c| plan.class_count(c)).sum();
        // The partition covers E after deduplication.
        let mut distinct = prepared.index.endbrs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(total, distinct.len());
        // E′ is exactly the kept classes.
        assert_eq!(
            plan.filtered_entry_count(),
            plan.class_count(EndbrClass::Plain) + plan.class_count(EndbrClass::PltReturn),
        );
        assert!(plan.class_count(EndbrClass::Plain) > 0, "a real binary has plain entries");
    }

    #[test]
    fn rebuild_reuses_capacity_and_derive_allocates_nothing() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        assert_eq!(plan.capacity_bytes(), 0);
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for (_, config) in Config::table2() {
            plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
        }
        let (warm_plan, warm_scratch) = (plan.capacity_bytes(), scratch.capacity_bytes());
        assert!(warm_plan > 0);
        // A second rebuild + four derives over the same binary must not
        // grow either arena: plan-sized buffers are per worker, not per
        // config.
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for (_, config) in Config::table2() {
            plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
        }
        assert_eq!(plan.capacity_bytes(), warm_plan, "warm plan stops growing");
        assert_eq!(scratch.capacity_bytes(), warm_scratch, "warm scratch stops growing");
    }

    #[test]
    fn plan_and_stages_charge_the_same_counters() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        let a = plan.derive(&Config::c4(), &prepared.parsed, &prepared.index, &mut scratch);
        let stats = scratch.take_stats();
        assert!(stats.filter_ns > 0 && stats.boundaries_ns > 0 && stats.tailcall_ns > 0);
        assert_eq!(stats.final_candidates, a.functions.len() as u64);
        assert_eq!(stats.tail_candidates, a.tail_target_count as u64);
        assert_eq!(scratch.take_stats(), StageStats::default(), "take resets");

        let reference =
            FunSeeker::new().run_stages_with(&prepared.parsed, &prepared.index, &mut scratch);
        let ref_stats = scratch.take_stats();
        assert_eq!(ref_stats.final_candidates, reference.functions.len() as u64);
        assert!(ref_stats.filter_ns > 0 && ref_stats.total_ns() > 0);
    }
}
