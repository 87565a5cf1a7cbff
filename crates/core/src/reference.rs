//! Reference oracle: Algorithm 1 written straight from §IV-C/§IV-D on
//! `BTreeSet`s.
//!
//! [`crate::AnalysisPlan`] is the one production implementation; this
//! module is the independent transcription every identity test compares
//! it with. It favours obviousness over speed — no buffer reuse, no
//! pre-merged runs, no timing — and reads only the shared
//! [`Prepared`] binary and the public [`crate::callgraph`] /
//! [`crate::cfg`] functions.

use std::collections::{BTreeMap, BTreeSet};

use crate::analyzer::{Analysis, InterprocSummary, Prepared};
use crate::config::Config;
use crate::disassemble::scan_endbr_pattern;
use crate::filter::is_indirect_return_name;
use crate::funcset::FuncSet;
use crate::parse::Parsed;

/// Algorithm 1 under `config`: `E′ ∪ C ∪ J′` (or the Table II variant
/// the configuration selects), plus the optional extension stages.
pub fn identify(config: &Config, prepared: &Prepared<'_>) -> Analysis {
    let (parsed, sweep) = (&prepared.parsed, &prepared.index);

    // E, optionally widened by the raw end-branch pattern scan.
    let mut e: BTreeSet<u64> = sweep.endbrs.iter().copied().collect();
    let endbr_count = if config.endbr_pattern_scan {
        e.extend(scan_endbr_pattern(parsed));
        e.len()
    } else {
        sweep.endbrs.len()
    };
    let entries =
        if config.filter_endbr { filter_endbr(parsed, &sweep.call_sites, &e) } else { e.clone() };
    let c: BTreeSet<u64> = sweep.call_targets.iter().copied().collect();
    let j = sweep.jmp_targets();

    let mut functions: BTreeSet<u64> = entries.union(&c).copied().collect();
    let mut tail_count = 0;
    if config.include_jump_targets {
        if config.select_tail_calls {
            let tails = select_tail_calls(
                &functions,
                &sweep.jmp_edges,
                config.min_tail_referers,
                &sweep.region_starts(),
            );
            tail_count = tails.len();
            functions.extend(tails);
        } else {
            functions.extend(&j);
        }
    }

    // Reachability pruning demotes plain jump-target candidates that no
    // walk from the entry, an end-branch or a call target reaches.
    let mut pruned_count = 0;
    if config.reach_prune && config.include_jump_targets && !config.select_tail_calls {
        let roots = std::iter::once(parsed.entry).chain(e.iter().copied()).chain(c.iter().copied());
        let reach = crate::callgraph::reachable_insns(sweep, roots);
        let before = functions.len();
        functions.retain(|f| {
            entries.contains(f)
                || c.contains(f)
                || *f == parsed.entry
                || sweep.insn_at(*f).is_some_and(|i| reach[i / 64] >> (i % 64) & 1 == 1)
        });
        pruned_count = before - functions.len();
    }

    let functions: FuncSet = functions.into_iter().collect();
    let interproc = config.interproc.then(|| InterprocSummary::of(sweep, &functions));
    Analysis {
        text_range: parsed.code.bounds(),
        endbr_count,
        filtered_endbrs: endbr_count - entries.len(),
        call_target_count: c.len(),
        jmp_target_count: j.len(),
        tail_target_count: tail_count,
        decode_errors: sweep.decode_errors,
        pruned_count,
        interproc,
        cet_enabled: parsed.cet.full(),
        diagnostics: parsed.diagnostics.clone(),
        functions,
    }
}

/// FILTERENDBR (§IV-C): `E` minus the return points of calls to
/// indirect-return PLT functions (`setjmp` family) and minus the C++
/// exception landing pads. `call_sites` are `(address_after_call,
/// target)` pairs.
pub fn filter_endbr(
    parsed: &Parsed<'_>,
    call_sites: &[(u64, u64)],
    endbrs: &BTreeSet<u64>,
) -> BTreeSet<u64> {
    let return_points: BTreeSet<u64> = call_sites
        .iter()
        .filter(|&&(_, target)| parsed.plt.name_at(target).is_some_and(is_indirect_return_name))
        .map(|&(after, _)| after)
        .collect();
    endbrs
        .iter()
        .copied()
        .filter(|e| !return_points.contains(e) && !parsed.landing_pads.contains(e))
        .collect()
}

/// SELECTTAILCALL (§IV-D): the jump targets outside `candidates` that
/// lie beyond the referring jump's own function (condition 1) and are
/// referenced from at least `min_referers` distinct functions
/// (condition 2). A function is approximated by the interval starting
/// at the greatest candidate or region start ≤ the address.
pub fn select_tail_calls(
    candidates: &BTreeSet<u64>,
    jmp_edges: &[(u64, u64)],
    min_referers: usize,
    region_starts: &[u64],
) -> BTreeSet<u64> {
    let interval = |addr: u64| {
        let cand = candidates.range(..=addr).next_back().copied();
        let region = region_starts.iter().copied().filter(|&s| s <= addr).max();
        cand.max(region)
    };
    let mut referers: BTreeMap<u64, BTreeSet<Option<u64>>> = BTreeMap::new();
    for &(site, target) in jmp_edges {
        if candidates.contains(&target) || interval(site) == interval(target) {
            continue;
        }
        referers.entry(target).or_default().insert(interval(site));
    }
    referers.into_iter().filter(|(_, r)| r.len() >= min_referers).map(|(t, _)| t).collect()
}
