//! The Algorithm-1 plan — the one implementation of `E′ ∪ C ∪ J′`.
//!
//! The paper's evaluation runs every binary under four configurations
//! (Table II's ablation of FILTERENDBR / SELECTTAILCALL).
//! [`AnalysisPlan`] materializes every **config-invariant** primitive
//! once per binary:
//!
//! | primitive | contents | configs that read it |
//! |---|---|---|
//! | `E` partition | every end-branch classified as *plain*, *PLT-return*, *special-return* (setjmp family), or *landing pad* | all |
//! | `E′` | the kept classes (plain + PLT-return) | ②③④ |
//! | `C` | direct call targets, sorted | all |
//! | `E ∪ C`, `E′ ∪ C` | the two candidate bases, pre-merged | all |
//! | `J` | distinct direct jump targets | ③ (+ count for all) |
//! | tail runs | per candidate base, `(target, distinct referring intervals)` for every jump leaving its interval — `J′` at *any* `min_tail_referers` falls out by thresholding (built lazily) | ④ and its unfiltered variant |
//! | reach bitmap | instructions reachable from the entry ∪ `E` ∪ `C` root set (built lazily; the root set is config-invariant because `E′ ⊆ E`) | `reach_prune` variants |
//! | CET verdict | the `.note.gnu.property` IBT+SHSTK check | all |
//!
//! The build is linear in the evidence. The x86 classification of `E`
//! is one merge walk over `E`, the landing pads and the call sites, all
//! ascending in sweep order, with a PLT lookup only for a call that
//! returns onto an end-branch; the tail runs follow each jump site with
//! a forward interval cursor ([`crate::tailcall`]). An input a hostile
//! image leaves out of order is sorted into a [`Scratch`] copy first.
//! [`AnalysisPlan::derive`] then produces each configuration's
//! [`Analysis`] by linear merges of already-sorted runs.
//! `endbr_pattern_scan` changes `E` itself, to `E ∪`
//! [`scan_endbr_pattern`]: the plan records which `E` it holds and
//! `derive` rebuilds it in place when a configuration asks for the
//! other one. Only the classification of `E` is x86-specific; other
//! ISAs supply an [`Evidence`] instead ([`AnalysisPlan::rebuild_from`]).
//! [`crate::reference`] is the independent transcription the tests
//! hold the plan to.
//!
//! The plan owns its buffers and is rebuilt in place per binary (clear
//! and refill, keeping capacity), so a batch worker holding one plan
//! next to its [`Scratch`] stops allocating on the warm path.

use std::time::Instant;

use crate::analyzer::{Analysis, InterprocSummary};
use crate::config::Config;
use crate::disassemble::{scan_endbr_pattern, SweepIndex};
use crate::filter::is_indirect_return_name;
use crate::funcset::FuncSet;
use crate::parse::Parsed;
use crate::scratch::{Scratch, StageStats};
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
    /// A landing pad that is never a call target — dropped. On x86 a
    /// C++ exception landing pad (from `.gcc_except_table`); on AArch64
    /// a jump-only `BTI j` pad.
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

/// ISA-neutral input of the plan build: everything Algorithm 1's set
/// algebra reads from one binary. A decoder front end fills it;
/// [`AnalysisPlan::rebuild`] is the x86 one.
#[derive(Debug, Clone, Copy)]
pub struct Evidence<'a> {
    /// Program entry point (identity guard and reachability root).
    pub entry: u64,
    /// `[start, end)` of the analyzed code.
    pub text_range: (u64, u64),
    /// `E`, sorted by address without duplicates, each end-branch
    /// tagged with its FILTERENDBR class.
    pub endbrs: &'a [(u64, EndbrClass)],
    /// `C` — direct call targets, sorted without duplicates.
    pub call_targets: &'a [u64],
    /// Direct unconditional jumps as `(site, target)` — `J` with
    /// provenance, which SELECTTAILCALL needs. Any order; ascending by
    /// site is the fast case.
    pub jmp_edges: &'a [(u64, u64)],
    /// Sorted code-region starts: SELECTTAILCALL interval breaks.
    pub region_starts: &'a [u64],
}

/// Config-invariant stage primitives for one binary, materialized once;
/// the module-level docs carry the full partition table.
///
/// ```
/// use funseeker::{prepare, reference, AnalysisPlan, Config, Scratch};
/// let bytes = std::fs::read("/proc/self/exe").unwrap();
/// let prepared = prepare(&bytes).unwrap();
/// let mut plan = AnalysisPlan::new();
/// let mut scratch = Scratch::new();
/// plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
/// for (_, config) in Config::table2() {
///     let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
///     assert_eq!(fast, reference::identify(&config, &prepared));
/// }
/// ```
#[derive(Debug, Default)]
pub struct AnalysisPlan {
    /// Program entry point (identity guard + prune root).
    entry: u64,
    /// `[start, end)` of the analyzed code.
    text_range: (u64, u64),
    /// |E| as reported in [`Analysis::endbr_count`].
    endbr_count: usize,
    /// |C|.
    call_target_count: usize,
    /// Which x86 `E` the primitives hold: `Some(true)` for `E ∪` the
    /// pattern scan, `Some(false)` for the sweep's `E`, `None` before
    /// the first x86 build.
    scanned: Option<bool>,
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
    /// Region starts, the SELECTTAILCALL interval breaks.
    region_starts: Vec<u64>,
    /// SELECTTAILCALL interval structures, `(target, distinct referring
    /// intervals)` sorted by target, over `E ∪ C` (index 0) and
    /// `E′ ∪ C` (index 1) — indexed by `filter_endbr`.
    tail_runs: [Vec<(u64, u32)>; 2],
    /// Whether each `tail_runs` entry is valid for the current binary.
    tail_runs_built: [bool; 2],
    /// Reachability bitmap (bit per instruction), built on first
    /// `reach_prune` derive.
    reach: Vec<u64>,
    /// Whether `reach` is valid for the current binary.
    reach_built: bool,
}

impl AnalysisPlan {
    /// An empty plan. It builds itself on the first
    /// [`derive`](AnalysisPlan::derive); a plan reused for another
    /// binary must be [`rebuild`](AnalysisPlan::rebuild)t first.
    pub fn new() -> AnalysisPlan {
        AnalysisPlan::default()
    }

    /// Recomputes every primitive for a new x86 binary, reusing the
    /// plan's buffers (and `scratch`'s temporaries) so the warm path
    /// allocates nothing.
    pub fn rebuild(&mut self, parsed: &Parsed<'_>, sweep: &SweepIndex, scratch: &mut Scratch) {
        self.rebuild_x86(parsed, sweep, scratch, false);
    }

    /// The x86 evidence adapter: classifies `E` (or `E ∪` the pattern
    /// scan, when `scan`) and feeds the shared build.
    ///
    /// The classification is one merge walk over three ascending lists —
    /// `E`, the landing pads and the call sites — with a PLT lookup only
    /// for a call that returns onto an end-branch. A list that is not
    /// ascending (hostile images, see [`SweepIndex`]; or the scan union,
    /// two sorted runs) is first sorted into a `scratch` copy.
    fn rebuild_x86(
        &mut self,
        parsed: &Parsed<'_>,
        sweep: &SweepIndex,
        scratch: &mut Scratch,
        scan: bool,
    ) {
        let t = Instant::now();
        // PLT stubs in address order, each flagged when it dispatches to
        // an indirect-return (setjmp-family) function.
        scratch.plt_stubs.clear();
        scratch
            .plt_stubs
            .extend(parsed.plt.iter().map(|(addr, name)| (addr, is_indirect_return_name(name))));
        let stubs = &scratch.plt_stubs;

        let endbrs: &[u64] = if scan {
            let union = &mut scratch.sorted_endbrs;
            union.clear();
            union.extend_from_slice(&sweep.endbrs);
            union.extend(scan_endbr_pattern(parsed));
            union.sort(); // merges the two ascending runs
            union
        } else {
            ascending(&sweep.endbrs, &mut scratch.sorted_endbrs, |&e| e)
        };
        let call_sites = ascending(&sweep.call_sites, &mut scratch.sorted_call_sites, |&(a, _)| a);

        let mut pads = parsed.landing_pads.iter().copied().peekable();
        let mut c = 0;
        scratch.endbrs.clear();
        for &e in endbrs {
            if scratch.endbrs.last().is_some_and(|&(last, _)| last == e) {
                continue; // duplicate
            }
            while pads.next_if(|&pad| pad < e).is_some() {}
            while c < call_sites.len() && call_sites[c].0 < e {
                c += 1;
            }
            // Special (setjmp-family) returns are a subset of the PLT
            // returns; both come from the calls returning onto `e`.
            let (mut plt, mut special) = (false, false);
            while c < call_sites.len() && call_sites[c].0 == e {
                if let Ok(k) = stubs.binary_search_by_key(&call_sites[c].1, |&(a, _)| a) {
                    plt = true;
                    special |= stubs[k].1;
                }
                c += 1;
            }
            let class = if pads.peek() == Some(&e) {
                EndbrClass::LandingPad
            } else if special {
                EndbrClass::SpecialReturn
            } else if plt {
                EndbrClass::PltReturn
            } else {
                EndbrClass::Plain
            };
            scratch.endbrs.push((e, class));
        }
        scratch.stats.filter_ns += t.elapsed().as_nanos() as u64;

        scratch.region_starts.clear();
        scratch.region_starts.extend(sweep.regions.iter().map(|r| r.start));
        let evidence = Evidence {
            entry: parsed.entry,
            text_range: parsed.code.bounds(),
            endbrs: &scratch.endbrs,
            call_targets: &sweep.call_targets,
            jmp_edges: &sweep.jmp_edges,
            region_starts: &scratch.region_starts,
        };
        self.load(&evidence, &mut scratch.stats);
        if !scan {
            // The sweep's own |E|; the scan union reports its
            // deduplicated size.
            self.endbr_count = sweep.endbrs.len();
        }
        self.scanned = Some(scan);
    }

    /// Recomputes every primitive from ISA-neutral [`Evidence`] — the
    /// entry point for front ends other than x86. Derive from it with
    /// [`derive_from`](AnalysisPlan::derive_from).
    pub fn rebuild_from(&mut self, evidence: &Evidence<'_>, scratch: &mut Scratch) {
        self.load(evidence, &mut scratch.stats);
    }

    /// The shared build: partition `E`, pre-merge both candidate bases
    /// and `J`, and invalidate the lazy structures.
    fn load(&mut self, ev: &Evidence<'_>, stats: &mut StageStats) {
        self.entry = ev.entry;
        self.text_range = ev.text_range;
        self.endbr_count = ev.endbrs.len();
        self.call_target_count = ev.call_targets.len();
        self.scanned = None;
        self.tail_runs_built = [false; 2];
        self.reach_built = false;
        self.region_starts.clear();
        self.region_starts.extend_from_slice(ev.region_starts);

        // `E` partitioned by evidence class; `E′` falls out as the kept
        // classes.
        let t = Instant::now();
        self.entries_all.clear();
        self.entries_filtered.clear();
        self.class_counts = [0; 4];
        for &(e, class) in ev.endbrs {
            self.entries_all.push(e);
            self.class_counts[class as usize] += 1;
            if matches!(class, EndbrClass::Plain | EndbrClass::PltReturn) {
                self.entries_filtered.push(e);
            }
        }
        stats.filter_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        merge_union_into(&self.entries_all, ev.call_targets, &mut self.cands_unfiltered);
        merge_union_into(&self.entries_filtered, ev.call_targets, &mut self.cands_filtered);
        self.jmp_targets.clear();
        self.jmp_targets.extend(ev.jmp_edges.iter().map(|&(_, t)| t));
        self.jmp_targets.sort_unstable();
        self.jmp_targets.dedup();
        stats.boundaries_ns += t.elapsed().as_nanos() as u64;
    }

    /// Derives one configuration's [`Analysis`] for the x86 binary the
    /// plan was rebuilt from — linear set algebra over the pre-merged
    /// runs, plus the extension stages the configuration asks for. When
    /// the configuration wants the other `E` input (see the module
    /// docs), the plan first rebuilds itself in place.
    pub fn derive(
        &mut self,
        config: &Config,
        parsed: &Parsed<'_>,
        sweep: &SweepIndex,
        scratch: &mut Scratch,
    ) -> Analysis {
        if self.scanned != Some(config.endbr_pattern_scan) {
            self.rebuild_x86(parsed, sweep, scratch, config.endbr_pattern_scan);
        }
        debug_assert_eq!(self.entry, parsed.entry, "plan built from a different binary");
        debug_assert_eq!(
            self.call_target_count,
            sweep.call_targets.len(),
            "plan built from a different sweep"
        );

        let tail_count = self.select(config, &sweep.jmp_edges, scratch);
        let entries: &[u64] =
            if config.filter_endbr { &self.entries_filtered } else { &self.entries_all };

        // Reachability pruning over the lazily-built, config-invariant
        // bitmap: the roots are the entry ∪ *all* end-branches ∪ call
        // targets, which covers every configuration's `entries` because
        // `E′ ⊆ E`. Only plain jump-target candidates can be demoted.
        let mut pruned_count = 0;
        if config.prunes_reach() {
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

        let funcs: &[u64] = self.candidates(config, &scratch.functions);
        let interproc = config.interproc.then(|| {
            let t = Instant::now();
            let summary = InterprocSummary::of(sweep, funcs);
            scratch.stats.interproc_ns += t.elapsed().as_nanos() as u64;
            summary
        });
        Analysis {
            decode_errors: sweep.decode_errors,
            pruned_count,
            interproc,
            cet_enabled: parsed.cet.full(),
            diagnostics: parsed.diagnostics.clone(),
            ..self.finish(config, funcs, tail_count, &mut scratch.stats)
        }
    }

    /// The set-algebra half of [`derive`](AnalysisPlan::derive), for a
    /// plan built by [`rebuild_from`](AnalysisPlan::rebuild_from) from
    /// the same `evidence`. The extension stages (`endbr_pattern_scan`,
    /// `reach_prune`, `interproc`) read x86 bytes or the sweep's
    /// instruction stream, so they are not available here.
    pub fn derive_from(
        &mut self,
        config: &Config,
        evidence: &Evidence<'_>,
        scratch: &mut Scratch,
    ) -> Analysis {
        debug_assert!(
            !(config.endbr_pattern_scan || config.reach_prune || config.interproc),
            "extension stages need a SweepIndex; use derive"
        );
        debug_assert_eq!(self.entry, evidence.entry, "plan built from different evidence");
        let tail_count = self.select(config, evidence.jmp_edges, scratch);
        let funcs = self.candidates(config, &scratch.functions);
        self.finish(config, funcs, tail_count, &mut scratch.stats)
    }

    /// Stages `base ∪ J` or `base ∪ J′` in `scratch.functions` when the
    /// configuration includes jump targets, building the tail-run
    /// structure for `base` on first use. Returns |J′|.
    fn select(
        &mut self,
        config: &Config,
        jmp_edges: &[(u64, u64)],
        scratch: &mut Scratch,
    ) -> usize {
        if !config.include_jump_targets {
            return 0;
        }
        let base: &[u64] =
            if config.filter_endbr { &self.cands_filtered } else { &self.cands_unfiltered };
        let t = Instant::now();
        if !config.select_tail_calls {
            merge_union_into(base, &self.jmp_targets, &mut scratch.functions);
            scratch.stats.boundaries_ns += t.elapsed().as_nanos() as u64;
            return 0;
        }
        let k = usize::from(config.filter_endbr);
        if !self.tail_runs_built[k] {
            tail_referer_runs_into(
                base,
                jmp_edges,
                &self.region_starts,
                &mut scratch.referers,
                &mut self.tail_runs[k],
            );
            self.tail_runs_built[k] = true;
        }
        let min = config.min_tail_referers;
        scratch.tails.clear();
        scratch
            .tails
            .extend(self.tail_runs[k].iter().filter(|&&(_, n)| n as usize >= min).map(|&(t, _)| t));
        merge_union_into(base, &scratch.tails, &mut scratch.functions);
        scratch.stats.tailcall_ns += t.elapsed().as_nanos() as u64;
        scratch.tails.len()
    }

    /// The configuration's final candidate run: the staged one when
    /// jump targets are in play, the pre-merged base otherwise.
    fn candidates<'a>(&'a self, config: &Config, staged: &'a [u64]) -> &'a [u64] {
        match (config.include_jump_targets, config.filter_endbr) {
            (true, _) => staged,
            (false, true) => &self.cands_filtered,
            (false, false) => &self.cands_unfiltered,
        }
    }

    /// The [`Analysis`] for a final candidate run, with the x86-only
    /// fields empty; charges the candidate counters.
    fn finish(
        &self,
        config: &Config,
        funcs: &[u64],
        tail_count: usize,
        stats: &mut StageStats,
    ) -> Analysis {
        let entries =
            if config.filter_endbr { self.entries_filtered.len() } else { self.entries_all.len() };
        stats.entry_candidates += entries as u64;
        stats.tail_candidates += tail_count as u64;
        stats.final_candidates += funcs.len() as u64;
        Analysis {
            functions: FuncSet::from_sorted_slice(funcs),
            text_range: self.text_range,
            endbr_count: self.endbr_count,
            filtered_endbrs: self.endbr_count - entries,
            call_target_count: self.call_target_count,
            jmp_target_count: self.jmp_targets.len(),
            tail_target_count: tail_count,
            decode_errors: 0,
            pruned_count: 0,
            interproc: None,
            cet_enabled: false,
            diagnostics: crate::Diagnostics::default(),
        }
    }

    /// Members of one FILTERENDBR evidence class.
    pub fn class_count(&self, class: EndbrClass) -> usize {
        self.class_counts[class as usize]
    }

    /// |E′| — entries surviving FILTERENDBR (plain + PLT-return).
    pub fn filtered_entry_count(&self) -> usize {
        self.entries_filtered.len()
    }

    /// Total heap capacity retained by the plan's buffers, in bytes —
    /// the counter the no-per-config-allocation assertion watches.
    pub fn capacity_bytes(&self) -> usize {
        let u64s = self.entries_all.capacity()
            + self.entries_filtered.capacity()
            + self.cands_unfiltered.capacity()
            + self.cands_filtered.capacity()
            + self.jmp_targets.capacity()
            + self.region_starts.capacity()
            + self.reach.capacity();
        let runs: usize = self.tail_runs.iter().map(Vec::capacity).sum();
        u64s * std::mem::size_of::<u64>() + runs * std::mem::size_of::<(u64, u32)>()
    }
}

/// `items` when already ascending by `key`, else a copy sorted into
/// `buf` — how the merge walks restore the order a hostile image can
/// break (see [`SweepIndex`]).
fn ascending<'a, T: Copy>(items: &'a [T], buf: &'a mut Vec<T>, key: impl Fn(&T) -> u64) -> &'a [T] {
    if items.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        return items;
    }
    buf.clear();
    buf.extend_from_slice(items);
    buf.sort_by_key(key);
    buf
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, reference, Prepared};

    fn own_exe() -> Vec<u8> {
        std::fs::read("/proc/self/exe").unwrap()
    }

    /// Derives every configuration from one plan and compares each with
    /// the reference oracle.
    fn assert_matches_reference(prepared: &Prepared<'_>, configs: &[Config]) {
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for config in configs {
            let fast = plan.derive(config, &prepared.parsed, &prepared.index, &mut scratch);
            assert_eq!(fast, reference::identify(config, prepared), "{config:?}");
        }
    }

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
    fn derive_matches_reference_for_every_table2_config() {
        let bytes = own_exe();
        let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
        assert_matches_reference(&prepare(&bytes).unwrap(), &configs);
    }

    #[test]
    fn derive_matches_reference_for_extension_variants() {
        let bytes = own_exe();
        let mut configs = Vec::new();
        for (_, base) in Config::table2() {
            for (reach_prune, interproc) in [(true, false), (false, true), (true, true)] {
                configs.push(Config { reach_prune, interproc, ..base });
            }
            configs.push(Config { endbr_pattern_scan: true, ..base });
        }
        // SELECTTAILCALL over the unfiltered base `E ∪ C`.
        configs.push(Config { filter_endbr: false, ..Config::c4() });
        configs.push(Config { filter_endbr: false, interproc: true, ..Config::c4() });
        assert_matches_reference(&prepare(&bytes).unwrap(), &configs);
    }

    #[test]
    fn derive_handles_min_tail_referer_sweep() {
        let bytes = own_exe();
        let configs: Vec<Config> = [1, 2, 3, 8]
            .into_iter()
            .map(|min| Config { min_tail_referers: min, ..Config::c4() })
            .collect();
        assert_matches_reference(&prepare(&bytes).unwrap(), &configs);
    }

    #[test]
    fn pattern_scan_rekeys_the_plan_in_place() {
        // `mov eax, 0xfa1e0ff3; ret`: the immediate hides an endbr64 at
        // 0x1001 that only the pattern scan sees.
        let code = [0xb8, 0xf3, 0x0f, 0x1e, 0xfa, 0xc3];
        let synthetic = Prepared::from_parsed(Parsed::from_region(0x1000, &code, true));
        let bytes = own_exe();
        let own = prepare(&bytes).unwrap();
        for prepared in [&synthetic, &own] {
            let scan = Config { endbr_pattern_scan: true, ..Config::c4() };
            let mut plan = AnalysisPlan::new();
            let mut scratch = Scratch::new();
            // A fresh plan builds itself for whichever `E` the first
            // configuration asks for, and flips back and forth after
            // that.
            for config in [scan, Config::c4(), scan, Config::c3(), scan] {
                let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
                assert_eq!(fast, reference::identify(&config, prepared), "{config:?}");
            }
        }
        let scan = Config { endbr_pattern_scan: true, ..Config::c1() };
        assert!(reference::identify(&scan, &synthetic).functions.contains(&0x1001));
        assert!(!reference::identify(&Config::c1(), &synthetic).functions.contains(&0x1001));
    }

    #[test]
    fn classification_walk_matches_reference_on_hostile_order() {
        use funseeker_elf::PltMap;
        use std::collections::BTreeSet;
        // endbr64 at 0x1000, 0x1009, 0x100d and 0x1011; the `mov`
        // immediate at 0x1004 hides one at 0x1005 that only the pattern
        // scan sees.
        let mut code = vec![0xf3, 0x0f, 0x1e, 0xfa, 0xb8, 0xf3, 0x0f, 0x1e, 0xfa];
        for _ in 0..3 {
            code.extend([0xf3, 0x0f, 0x1e, 0xfa]);
        }
        code.push(0xc3);
        let mut parsed = Parsed::from_region(0x1000, &code, true);
        parsed.plt = PltMap::from_pairs([(0x500, "setjmp"), (0x510, "puts"), (0x520, "_setjmp")]);
        // 0x100d is a landing pad and a PLT return at once.
        parsed.landing_pads = BTreeSet::from([0x100d, 0x1fff]);
        let mut prepared = Prepared::from_parsed(parsed);
        let index = &mut prepared.index;
        assert_eq!(index.endbrs, [0x1000, 0x1009, 0x100d, 0x1011]);
        // `E` out of order with a duplicate, as overlapping sections
        // leave it.
        index.endbrs.push(0x1009);
        // Out of order call sites: two returning onto 0x1009 (one plain
        // PLT call, one setjmp), a repeated PLT return at 0x1011, a
        // setjmp return onto the scan-only 0x1005, a non-PLT call, and a
        // call whose end wrapped to 0.
        index.call_sites = vec![
            (0x1011, 0x510),
            (0x1009, 0x510),
            (0x100d, 0x510),
            (0x1005, 0x520),
            (0x1009, 0x500),
            (0x1011, 0x510),
            (0x1000, 0x1000),
            (0, 0x520),
        ];
        let e: BTreeSet<u64> = index.endbrs.iter().copied().collect();
        let kept = reference::filter_endbr(&prepared.parsed, &prepared.index.call_sites, &e);
        assert_eq!(kept, BTreeSet::from([0x1000, 0x1011]));

        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        assert_eq!(plan.filtered_entry_count(), kept.len());
        let classes = ENDBR_CLASSES.map(|c| plan.class_count(c));
        assert_eq!(classes, [1, 1, 1, 1], "pad, special, PLT return, plain");

        let mut configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
        configs
            .extend(configs.clone().into_iter().map(|c| Config { endbr_pattern_scan: true, ..c }));
        for config in configs {
            let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
            assert_eq!(fast, reference::identify(&config, &prepared), "{config:?}");
        }
        assert_eq!(
            plan.class_count(EndbrClass::SpecialReturn),
            2,
            "the scan union classifies 0x1005 as a setjmp return"
        );
    }

    #[test]
    fn tail_runs_are_built_on_first_use_per_base() {
        let bytes = own_exe();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        for config in [Config::c1(), Config::c2(), Config::c3()] {
            plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
        }
        assert_eq!(plan.tail_runs_built, [false, false], "①–③ never select tail calls");
        plan.derive(&Config::c4(), &prepared.parsed, &prepared.index, &mut scratch);
        assert_eq!(plan.tail_runs_built, [false, true]);
        let unfiltered = Config { filter_endbr: false, ..Config::c4() };
        plan.derive(&unfiltered, &prepared.parsed, &prepared.index, &mut scratch);
        assert_eq!(plan.tail_runs_built, [true, true]);
        plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
        assert_eq!(plan.tail_runs_built, [false, false], "rebuild invalidates both");
    }

    #[test]
    fn evidence_classes_partition_e() {
        let bytes = own_exe();
        let prepared = prepare(&bytes).unwrap();
        let mut plan = AnalysisPlan::new();
        plan.rebuild(&prepared.parsed, &prepared.index, &mut Scratch::new());
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
    fn evidence_input_runs_the_same_algebra() {
        // Two functions at 0x100 and 0x200 with a call target at 0x300
        // and a dropped pad at 0x180. Both functions jump to 0x350; they
        // also jump to 0x190, which only the pad's interval break puts
        // outside 0x100's function.
        let endbrs = [
            (0x100, EndbrClass::Plain),
            (0x180, EndbrClass::LandingPad),
            (0x200, EndbrClass::Plain),
        ];
        let jumps = [(0x110, 0x350), (0x210, 0x350), (0x110, 0x190), (0x210, 0x190)];
        let evidence = Evidence {
            entry: 0x100,
            text_range: (0x100, 0x400),
            endbrs: &endbrs,
            call_targets: &[0x300],
            jmp_edges: &jumps,
            region_starts: &[0x100],
        };
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild_from(&evidence, &mut scratch);
        assert_eq!(plan.class_count(EndbrClass::LandingPad), 1);
        let c4 = plan.derive_from(&Config::c4(), &evidence, &mut scratch);
        assert_eq!(c4.functions.as_slice(), [0x100, 0x200, 0x300, 0x350]);
        assert_eq!((c4.tail_target_count, c4.filtered_endbrs), (1, 1));
        let unfiltered = Config { filter_endbr: false, ..Config::c4() };
        let c4u = plan.derive_from(&unfiltered, &evidence, &mut scratch);
        assert_eq!(c4u.functions.as_slice(), [0x100, 0x180, 0x190, 0x200, 0x300, 0x350]);
        assert_eq!(c4u.tail_target_count, 2);
        let c1 = plan.derive_from(&Config::c1(), &evidence, &mut scratch);
        assert_eq!(c1.functions.as_slice(), [0x100, 0x180, 0x200, 0x300]);
        let c3 = plan.derive_from(&Config::c3(), &evidence, &mut scratch);
        assert_eq!(c3.functions.as_slice(), [0x100, 0x190, 0x200, 0x300, 0x350]);

        // A rebuild drops the tail runs of the previous input.
        let no_jumps = Evidence { jmp_edges: &[], ..evidence };
        plan.rebuild_from(&no_jumps, &mut scratch);
        let c4 = plan.derive_from(&Config::c4(), &no_jumps, &mut scratch);
        assert_eq!(
            (c4.functions.as_slice(), c4.tail_target_count),
            (&[0x100, 0x200, 0x300][..], 0)
        );
    }

    #[test]
    fn rebuild_reuses_capacity_and_derive_allocates_nothing() {
        let bytes = own_exe();
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
    fn derive_charges_the_stage_counters() {
        let bytes = own_exe();
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
    }
}
