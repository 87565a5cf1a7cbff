//! SELECTTAILCALL — choose the jump targets that are tail calls
//! (Algorithm 1 line 5, §IV-D).
//!
//! A direct jump target joins `J′` only when:
//!
//! 1. it lies **beyond the boundary** of the function the jump belongs to
//!    (condition suggested by Qiao et al.), and
//! 2. it is **referenced by multiple functions** other than the one it
//!    would fall inside (inspired by FETCH).
//!
//! "Function boundaries" here are approximated by the candidate set
//! `E′ ∪ C`: each candidate starts an interval that runs to the next
//! candidate, exactly the cheap approximation the paper's linear-time
//! budget allows. Region starts are additional interval breaks — a
//! function never spans two executable sections, so a jump target in a
//! candidate-free region (e.g. `.fini`) is not attributed to the last
//! `.text` candidate's interval.
//!
//! The jump edges arrive in site order (the sweep's), so two forward
//! cursors — one over the candidates, one over the region starts — give
//! each site's interval `[break, next break)` without a search. Most
//! jumps stay inside it and are settled by two comparisons; only the
//! rest pay one binary search, for "target ∈ candidates". A site below
//! its predecessor restarts the cursors, so any edge order stays
//! correct. The accumulator is a flat `Vec<(target, interval)>` that is
//! sorted and deduplicated once, then scanned in runs per target,
//! instead of the `BTreeMap<u64, BTreeSet<…>>` of [`crate::reference`],
//! whose per-edge tree inserts dominate at corpus scale. The buffers
//! are reused across binaries via [`crate::Scratch`].
//!
//! # Relation to the call graph
//!
//! This stage only *selects entries*: a `J′` member is the jump
//! **target** — the callee's entry — never the address after the jump.
//! The interprocedural layer ([`crate::callgraph`]) turns the same
//! sites into proper `Tail` call-graph edges with identical semantics
//! (site → callee entry, caller looked up by the same
//! interval-with-region-breaks rule used here), and the CFG layer
//! deliberately drops the out-of-range jump as an intra-procedural
//! edge so the transfer appears exactly once, interprocedurally. The
//! regression test `tail_jump_targets_callee_entry_not_fallthrough`
//! in `callgraph.rs` pins this down.

/// The SELECTTAILCALL interval structure, config-invariant form: for
/// every jump target that passes condition (1), the number of
/// *distinct* referring intervals. `J′` at **any** `min_referers`
/// threshold is the targets whose count clears it — what
/// [`crate::AnalysisPlan`] materializes per candidate base.
///
/// * `candidates` — the current function-start estimate (`E′ ∪ C` or
///   `E ∪ C`) as a **sorted, deduplicated** slice.
/// * `jmp_edges` — `(site, target)` pairs of direct unconditional jumps,
///   in any order; ascending by site (the sweep's order) is the fast case.
/// * `region_starts` — sorted start addresses of the code regions; may
///   be empty for single-interval analyses (tests, synthetic inputs).
///
/// `referers` is a reusable temporary; `runs` comes back sorted by
/// target.
pub(crate) fn tail_referer_runs_into(
    candidates: &[u64],
    jmp_edges: &[(u64, u64)],
    region_starts: &[u64],
    referers: &mut Vec<(u64, Option<u64>)>,
    runs: &mut Vec<(u64, u32)>,
) {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "candidates must be sorted+deduped");

    // The interval of an address runs from the greatest candidate or
    // region start ≤ it (None below all of them) to the next one. For a
    // single region this matches the plain candidate interval: addresses
    // below the first candidate share the region-start interval, which
    // behaves just like sharing `None`.
    //
    // Two cursors follow the site: `ci` candidates and `ri` region starts
    // lie at or below it. A site below the previous one restarts them.
    let (mut ci, mut ri, mut prev_site) = (0, 0, 0);

    // `(target, referring interval)` pairs, excluding the target's own
    // interval; dedup after sorting collapses repeated jumps from the
    // same function into one referer.
    referers.clear();
    for &(site, target) in jmp_edges {
        if site < prev_site {
            (ci, ri) = (0, 0);
        }
        prev_site = site;
        ci = count_at_or_below(candidates, ci, site);
        ri = count_at_or_below(region_starts, ri, site);
        let start = ci
            .checked_sub(1)
            .map(|k| candidates[k])
            .max(ri.checked_sub(1).map(|k| region_starts[k]));
        let end = match (candidates.get(ci), region_starts.get(ri)) {
            (Some(&c), Some(&r)) => Some(c.min(r)),
            (c, r) => c.or(r).copied(),
        };
        // Condition (1): the jump must leave its own function's interval.
        // A target inside it — the interval's own candidate included —
        // is settled here without a search.
        if start.is_none_or(|s| s <= target) && end.is_none_or(|e| target < e) {
            continue;
        }
        if candidates.binary_search(&target).is_ok() {
            continue; // already identified; nothing to decide
        }
        referers.push((target, start));
    }
    referers.sort_unstable();
    referers.dedup();

    // Each run of equal targets holds its distinct referring intervals.
    runs.clear();
    let mut i = 0;
    while i < referers.len() {
        let target = referers[i].0;
        let mut j = i + 1;
        while j < referers.len() && referers[j].0 == target {
            j += 1;
        }
        runs.push((target, (j - i) as u32));
        i = j;
    }
}

/// The number of `sorted` elements ≤ `addr`, given that the first `from`
/// are: gallops forward from `from`, so a cursor that moves `d` places
/// costs O(log d) — O(1) for the common short step.
fn count_at_or_below(sorted: &[u64], from: usize, addr: u64) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= sorted.len() && sorted[lo + step - 1] <= addr {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&x| x <= addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::select_tail_calls;
    use std::collections::BTreeSet;

    fn set(v: &[u64]) -> BTreeSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn intra_function_jumps_are_rejected() {
        // One function at 0x100; jumps inside it never qualify.
        let c = set(&[0x100]);
        let edges = [(0x110u64, 0x150u64), (0x120, 0x150), (0x130, 0x150)];
        assert!(select_tail_calls(&c, &edges, 2, &[]).is_empty());
    }

    #[test]
    fn shared_target_is_selected() {
        // Functions at 0x100, 0x200, 0x300; both 0x100 and 0x200 jump to
        // 0x350 (inside 0x300's interval — a fragment-looking target that
        // is really a tail-called function at 0x350? No: 0x350 is beyond
        // both jump sites' own intervals and referenced by two distinct
        // functions, so it is selected).
        let c = set(&[0x100, 0x200, 0x300]);
        let edges = [(0x110u64, 0x350u64), (0x210, 0x350)];
        assert_eq!(select_tail_calls(&c, &edges, 2, &[]), set(&[0x350]));
    }

    #[test]
    fn single_referer_is_rejected_at_threshold_two() {
        let c = set(&[0x100, 0x200]);
        let edges = [(0x110u64, 0x250u64)];
        assert!(select_tail_calls(&c, &edges, 2, &[]).is_empty());
        // …but accepted when the threshold is relaxed.
        assert_eq!(select_tail_calls(&c, &edges, 1, &[]).len(), 1);
    }

    #[test]
    fn jumps_from_targets_own_interval_do_not_count() {
        // Target 0x250 lives in 0x200's interval; a jump from 0x210
        // (same interval) must not count as a referer.
        let c = set(&[0x100, 0x200]);
        let edges = [(0x210u64, 0x250u64), (0x110, 0x250)];
        let sel = select_tail_calls(&c, &edges, 2, &[]);
        assert!(sel.is_empty(), "only one *other* function refers to 0x250");
        let sel = select_tail_calls(&c, &edges, 1, &[]);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn already_identified_targets_are_skipped() {
        let c = set(&[0x100, 0x200]);
        let edges = [(0x110u64, 0x200u64), (0x150, 0x200)];
        assert!(select_tail_calls(&c, &edges, 2, &[]).is_empty());
    }

    #[test]
    fn multiple_distinct_referers_required_not_multiple_jumps() {
        // Two jumps from the same function are one referer.
        let c = set(&[0x100, 0x200, 0x300]);
        let edges = [(0x110u64, 0x350u64), (0x120, 0x350)];
        assert!(select_tail_calls(&c, &edges, 2, &[]).is_empty());
    }

    #[test]
    fn empty_candidates_use_prelude_interval() {
        // With no candidates at all, every site shares interval None, so
        // nothing distinguishes functions and nothing is selected at
        // threshold 2.
        let c = set(&[]);
        let edges = [(0x10u64, 0x50u64), (0x20, 0x50)];
        assert!(select_tail_calls(&c, &edges, 2, &[]).is_empty());
    }

    #[test]
    fn region_starts_break_intervals() {
        // Candidates only in the first region; the target lives in a
        // second, candidate-free region (say `.fini`). Without the region
        // break, 0x2000 would share 0x180's interval and the jump from
        // 0x190 would look intra-function.
        let c = set(&[0x100, 0x180]);
        let edges = [(0x190u64, 0x2000u64), (0x110, 0x2000)];
        assert!(select_tail_calls(&c, &edges, 2, &[]).is_empty());
        let sel = select_tail_calls(&c, &edges, 2, &[0x100, 0x2000]);
        assert_eq!(sel, set(&[0x2000]));
    }

    #[test]
    fn region_starts_equivalent_to_none_for_single_region() {
        // For single-region inputs the region start must not change any
        // verdict: rerun the scenarios above with the base as the sole
        // region start.
        let c = set(&[0x100, 0x200, 0x300]);
        let edges = [(0x110u64, 0x350u64), (0x210, 0x350)];
        assert_eq!(
            select_tail_calls(&c, &edges, 2, &[]),
            select_tail_calls(&c, &edges, 2, &[0x100]),
        );
        let edges = [(0x10u64, 0x350u64), (0x210, 0x350)];
        assert_eq!(
            select_tail_calls(&c, &edges, 2, &[]),
            select_tail_calls(&c, &edges, 2, &[0x10]),
        );
    }

    #[test]
    fn referer_runs_reproduce_selection_at_every_threshold() {
        // The plan's `(target, distinct referers)` runs must derive the
        // same `J′` as the reference SELECTTAILCALL at any threshold.
        let c = set(&[0x100, 0x200, 0x300]);
        let sorted: Vec<u64> = c.iter().copied().collect();
        let edges =
            [(0x110u64, 0x3f0u64), (0x210, 0x3f0), (0x210, 0x3e0), (0x110, 0x3e0), (0x110, 0x500)];
        for regions in [&[][..], &[0x100, 0x400]] {
            let mut referers = Vec::new();
            let mut runs = Vec::new();
            tail_referer_runs_into(&sorted, &edges, regions, &mut referers, &mut runs);
            assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "runs sorted by target");
            for min in 0..4 {
                let expect = select_tail_calls(&c, &edges, min, regions);
                let derived: BTreeSet<u64> =
                    runs.iter().filter(|&&(_, n)| n as usize >= min).map(|&(t, _)| t).collect();
                assert_eq!(derived, expect, "min_referers={min} regions={regions:?}");
            }
        }
    }

    #[test]
    fn count_at_or_below_gallops_from_any_cursor() {
        let sorted = [2u64, 3, 3, 5, 8, 13, 21, 34, 55];
        for addr in 0..60 {
            let want = sorted.iter().filter(|&&x| x <= addr).count();
            for from in 0..=want {
                assert_eq!(count_at_or_below(&sorted, from, addr), want, "addr={addr} from={from}");
            }
        }
        assert_eq!(count_at_or_below(&[], 0, 7), 0);
    }

    proptest::proptest! {
        /// The cursor walk against the reference SELECTTAILCALL at
        /// thresholds 1–3: edges shuffled and duplicated as well as in
        /// site order, several region starts (some equal to a candidate),
        /// and targets placed exactly on interval breaks.
        #[test]
        fn referer_runs_match_the_reference_in_any_edge_order(
            cands in proptest::collection::vec(0u64..256, 0..40),
            fresh_regions in proptest::collection::vec(0u64..256, 0..4),
            shared_region_stride in 1usize..5,
            picks in proptest::collection::vec((0u64..256, 0u64..256, proptest::prelude::any::<bool>()), 0..60),
            dup_stride in 1usize..4,
        ) {
            let cands: BTreeSet<u64> = cands.into_iter().collect();
            let mut regions = fresh_regions;
            regions.extend(cands.iter().copied().step_by(shared_region_stride));
            regions.sort_unstable();
            let breaks: Vec<u64> = cands.iter().chain(&regions).copied().collect();
            let mut edges: Vec<(u64, u64)> = picks
                .iter()
                .map(|&(site, t, on_break)| match on_break && !breaks.is_empty() {
                    true => (site, breaks[t as usize % breaks.len()]),
                    false => (site, t),
                })
                .collect();
            let dups: Vec<_> = edges.iter().copied().step_by(dup_stride).collect();
            edges.extend(dups);
            let mut by_site = edges.clone();
            by_site.sort_by_key(|&(site, _)| site);

            let sorted: Vec<u64> = cands.iter().copied().collect();
            let (mut referers, mut runs) = (Vec::new(), Vec::new());
            for order in [&edges, &by_site] {
                for regions in [&[][..], &regions] {
                    tail_referer_runs_into(&sorted, order, regions, &mut referers, &mut runs);
                    for min in 1..=3 {
                        let derived: BTreeSet<u64> =
                            runs.iter().filter(|&&(_, n)| n as usize >= min).map(|&(t, _)| t).collect();
                        proptest::prop_assert_eq!(
                            derived,
                            select_tail_calls(&cands, order, min, regions),
                            "min={} regions={:?}", min, regions
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_qualifying_target_is_selected() {
        // Two qualifying targets are both selected, whatever the edge
        // order.
        let c = set(&[0x100, 0x200, 0x300]);
        let edges = [(0x110u64, 0x3f0u64), (0x210, 0x3f0), (0x210, 0x3e0), (0x110, 0x3e0)];
        assert_eq!(select_tail_calls(&c, &edges, 2, &[]), set(&[0x3e0, 0x3f0]));
    }
}
