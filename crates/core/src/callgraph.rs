//! Whole-binary call graph and CET-constrained reachability.
//!
//! The interprocedural layer's second artifact. Nodes are the
//! identified function entries; edges come in two flavors:
//!
//! * **Direct** — a `CALL rel32` site; the callee is recorded verbatim
//!   (it may lie outside the analyzed regions, e.g. a PLT stub).
//! * **Tail** — a direct unconditional jump whose target is an
//!   identified entry of *another* function. This is the call-graph
//!   counterpart of SELECTTAILCALL (see [`crate::tailcall`]): the site
//!   transfers to the callee's **entry**, it does not fall through, so
//!   it must appear as a proper interprocedural edge rather than an
//!   intra-procedural successor (the CFG layer deliberately drops
//!   out-of-range jump edges for exactly this reason).
//!
//! Indirect transfers cannot be resolved statically, but the paper's
//! central observation constrains them: on a CET binary every *tracked*
//! indirect call or jump must land on an `ENDBR` instruction, so the
//! candidate target set of every tracked indirect site is exactly the
//! ENDBR-marked entries ([`CallGraph::indirect_targets`]). `NOTRACK`
//! sites are exempt from the check and stay unconstrained.
//!
//! The same machinery powers the reachability pruning stage
//! ([`reachable_insns`]): an instruction-level BFS over the packed
//! stream from the entry point and every ENDBR root, following
//! fallthrough, branch, and direct-call edges. Superset decodes no walk
//! reaches are demotion candidates for the optional `reach_prune`
//! config stage.

use std::collections::BTreeSet;

use crate::disassemble::SweepIndex;
use funseeker_disasm::Flow;

/// How a call-graph edge transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// `CALL rel32` — pushes a return address, falls through after the
    /// callee returns.
    Direct,
    /// Direct jump to another function's entry — a tail call; the
    /// caller's frame is gone and control never falls back through the
    /// site.
    Tail,
}

/// One resolved call-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Address of the call or jump instruction.
    pub site: u64,
    /// Entry of the function containing the site, when the site falls
    /// inside an identified function of its region.
    pub caller: Option<u64>,
    /// Destination entry address.
    pub callee: u64,
    /// Transfer flavor.
    pub kind: CallKind,
}

/// The whole-binary call graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// Identified function entries, sorted ascending.
    pub nodes: Vec<u64>,
    /// Resolved direct and tail edges, in site order.
    pub edges: Vec<CallEdge>,
    /// Sites of tracked indirect calls (`FF /2` without `NOTRACK`).
    pub indirect_call_sites: Vec<u64>,
    /// Sites of tracked indirect jumps (`FF /4` without `NOTRACK`) —
    /// switch dispatches and indirect tail calls.
    pub indirect_jump_sites: Vec<u64>,
    /// Indirect sites carrying a `NOTRACK` prefix: exempt from CET, so
    /// the ENDBR constraint below does not apply to them.
    pub notrack_sites: usize,
    /// The CET-constrained candidate target set for every tracked
    /// indirect site: identified entries that begin with an `ENDBR`
    /// instruction. A tracked transfer to any other address faults.
    pub indirect_targets: Vec<u64>,
}

impl CallGraph {
    /// Number of direct edges.
    pub fn direct_count(&self) -> usize {
        self.edges.iter().filter(|e| e.kind == CallKind::Direct).count()
    }

    /// Number of tail edges.
    pub fn tail_count(&self) -> usize {
        self.edges.iter().filter(|e| e.kind == CallKind::Tail).count()
    }

    /// `(site, callee)` pairs of the direct edges — the shape the
    /// call-edge precision/recall metric compares against ground truth.
    pub fn direct_edge_pairs(&self) -> BTreeSet<(u64, u64)> {
        self.edges
            .iter()
            .filter(|e| e.kind == CallKind::Direct)
            .map(|e| (e.site, e.callee))
            .collect()
    }

    /// `(site, callee)` pairs of the tail edges.
    pub fn tail_edge_pairs(&self) -> BTreeSet<(u64, u64)> {
        self.edges.iter().filter(|e| e.kind == CallKind::Tail).map(|e| (e.site, e.callee)).collect()
    }
}

/// Builds the call graph over an identified entry set.
///
/// `entries` must be sorted and deduplicated (the natural shape of
/// [`crate::Analysis::functions`] collected into a `Vec`).
pub fn build_call_graph(sweep: &SweepIndex, entries: &[u64]) -> CallGraph {
    debug_assert!(entries.windows(2).all(|w| w[0] < w[1]), "entries must be sorted+deduped");
    let s = sweep.insns();

    // Owning function of an address: the greatest entry at or before it,
    // unless a region boundary intervenes (a function never spans two
    // regions — same interval rule as SELECTTAILCALL).
    let owner = |addr: u64| -> Option<u64> {
        let entry = entries[..entries.partition_point(|&e| e <= addr)].last().copied()?;
        let k = sweep.regions.partition_point(|r| r.start <= addr);
        let region_start = sweep.regions[..k].last().map_or(0, |r| r.start);
        (entry >= region_start).then_some(entry)
    };

    let mut graph = CallGraph { nodes: entries.to_vec(), ..CallGraph::default() };
    for i in 0..s.len() {
        match s.flow_at(i) {
            Flow::Call { target } => {
                let site = s.addr_at(i);
                graph.edges.push(CallEdge {
                    site,
                    caller: owner(site),
                    callee: target,
                    kind: CallKind::Direct,
                });
            }
            // A direct jump to another function's identified entry is a
            // tail call: an edge to the callee ENTRY. Jumps whose target
            // is the site's own entry are loops, not calls.
            Flow::Jump { target } if entries.binary_search(&target).is_ok() => {
                let site = s.addr_at(i);
                let caller = owner(site);
                if caller != Some(target) {
                    graph.edges.push(CallEdge {
                        site,
                        caller,
                        callee: target,
                        kind: CallKind::Tail,
                    });
                }
            }
            Flow::CallInd { notrack } => {
                if notrack {
                    graph.notrack_sites += 1;
                } else {
                    graph.indirect_call_sites.push(s.addr_at(i));
                }
            }
            Flow::JumpInd { notrack } => {
                if notrack {
                    graph.notrack_sites += 1;
                } else {
                    graph.indirect_jump_sites.push(s.addr_at(i));
                }
            }
            _ => {}
        }
    }

    // The CET constraint: tracked indirect transfers can only land on an
    // end-branch, so the candidate set is the ENDBR-marked entries.
    graph.indirect_targets = entries
        .iter()
        .copied()
        .filter(|&e| s.index_of_addr(e).is_some_and(|j| s.kind_at(j).is_endbr()))
        .collect();
    graph
}

/// Instruction-level reachability over the packed stream: a BFS from
/// `roots` following fallthrough, conditional/unconditional direct
/// branches, and direct-call edges, stopping at returns, traps, and
/// indirect jumps. Returns one bit per instruction index, packed into
/// `u64` words (`reach[i / 64] >> (i % 64) & 1`).
///
/// Roots that do not land exactly on a decoded instruction are ignored.
/// Reuses `reach`/`work` buffers across calls (see [`crate::Scratch`]).
pub(crate) fn reachable_insns_into(
    sweep: &SweepIndex,
    roots: impl IntoIterator<Item = u64>,
    reach: &mut Vec<u64>,
    work: &mut Vec<u32>,
) {
    let s = sweep.insns();
    let words = s.len().div_ceil(64);
    reach.clear();
    reach.resize(words, 0);
    work.clear();

    let mark = |reach: &mut Vec<u64>, work: &mut Vec<u32>, i: usize| {
        let (w, b) = (i / 64, i % 64);
        if reach[w] >> b & 1 == 0 {
            reach[w] |= 1 << b;
            work.push(i as u32);
        }
    };

    for root in roots {
        if let Some(i) = s.index_of_addr(root) {
            mark(reach, work, i);
        }
    }

    while let Some(i) = work.pop() {
        let i = i as usize;
        for succ in s.successors(i) {
            if let Some(j) = s.index_of_addr(succ) {
                mark(reach, work, j);
            }
        }
        if let Some(target) = s.flow_at(i).call_target() {
            if let Some(j) = s.index_of_addr(target) {
                mark(reach, work, j);
            }
        }
    }
}

/// `reachable_insns_into` with fresh buffers, returning the packed
/// reachability bitmap.
pub fn reachable_insns(sweep: &SweepIndex, roots: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut reach = Vec::new();
    let mut work = Vec::new();
    reachable_insns_into(sweep, roots, &mut reach, &mut work);
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disassemble::disassemble;
    use crate::parse::Parsed;

    fn sweep(code: &[u8], addr: u64) -> SweepIndex<'_> {
        disassemble(&Parsed::from_region(addr, code, true))
    }

    fn call(rel: i32) -> Vec<u8> {
        let mut v = vec![0xe8];
        v.extend_from_slice(&rel.to_le_bytes());
        v
    }

    fn jmp(rel: i32) -> Vec<u8> {
        let mut v = vec![0xe9];
        v.extend_from_slice(&rel.to_le_bytes());
        v
    }

    #[test]
    fn direct_calls_become_edges_with_owners() {
        // f at 0x100: call g; ret.   g at 0x106: ret
        let mut code = call(1); // at 0x100, target 0x106
        code.push(0xc3);
        code.push(0xc3);
        let s = sweep(&code, 0x100);
        let g = build_call_graph(&s, &[0x100, 0x106]);
        assert_eq!(g.edges.len(), 1);
        let e = g.edges[0];
        assert_eq!(
            (e.site, e.caller, e.callee, e.kind),
            (0x100, Some(0x100), 0x106, CallKind::Direct)
        );
        assert_eq!(g.direct_count(), 1);
        assert_eq!(g.tail_count(), 0);
        assert_eq!(g.direct_edge_pairs().len(), 1);
    }

    #[test]
    fn tail_jump_targets_callee_entry_not_fallthrough() {
        // Regression for the SELECTTAILCALL audit: a tail-call site must
        // surface as a Tail edge whose callee is the jump TARGET (the
        // callee's entry), never the address after the jump.
        // f at 0x100: nop; jmp g (skipping a ret at 0x106).
        // g at 0x107: ret
        let mut code = vec![0x90];
        code.extend(jmp(1)); // at 0x101, len 5 → target 0x107
        code.push(0xc3); // 0x106 — the fallthrough address, NOT the callee
        code.push(0xc3); // 0x107 — g
        let s = sweep(&code, 0x100);
        let g = build_call_graph(&s, &[0x100, 0x107]);
        assert_eq!(g.tail_count(), 1);
        let e = g.edges.iter().find(|e| e.kind == CallKind::Tail).unwrap();
        assert_eq!(e.site, 0x101);
        assert_eq!(e.callee, 0x107, "edge goes to the callee entry");
        assert_ne!(e.callee, e.site + 5, "…not to the fallthrough after the jump");
        assert_eq!(e.caller, Some(0x100));
        // And the caller's CFG has no intra-procedural edge for it.
        let cfg = crate::cfg::build_cfg(&s, 0x100, 0x107);
        let tail_block = cfg.blocks.last().unwrap();
        assert!(tail_block.succs.is_empty(), "tail-call exit is not a CFG edge");
    }

    #[test]
    fn jump_within_own_function_is_not_a_tail_edge() {
        // f at 0x100: jmp 0x100 (self-loop to own entry).
        let code = jmp(-5);
        let s = sweep(&code, 0x100);
        let g = build_call_graph(&s, &[0x100]);
        assert_eq!(g.tail_count(), 0, "loop back to own entry is not a call");
    }

    #[test]
    fn jump_to_unidentified_target_is_not_an_edge() {
        // jmp 0x109 where 0x109 is not an identified entry.
        let mut code = jmp(4);
        code.extend_from_slice(&[0x90, 0x90, 0x90, 0x90, 0xc3]);
        let s = sweep(&code, 0x100);
        let g = build_call_graph(&s, &[0x100]);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn indirect_targets_are_endbr_entries_only() {
        // f at 0x100 (endbr64; ret) and g at 0x105 (plain ret): only f
        // may be targeted by a tracked indirect transfer.
        let code = [0xf3, 0x0f, 0x1e, 0xfa, 0xc3, 0xc3, 0xff, 0xd0];
        let s = sweep(&code, 0x100);
        let g = build_call_graph(&s, &[0x100, 0x105]);
        assert_eq!(g.indirect_targets, vec![0x100], "non-ENDBR entry excluded");
        assert_eq!(g.indirect_call_sites, vec![0x106]);
        assert_eq!(g.notrack_sites, 0);
    }

    #[test]
    fn notrack_sites_are_exempt_from_the_constraint() {
        // notrack jmp rax (3e ff e0) then tracked jmp rax.
        let code = [0x3e, 0xff, 0xe0, 0xff, 0xe0];
        let s = sweep(&code, 0x100);
        let g = build_call_graph(&s, &[0x100]);
        assert_eq!(g.notrack_sites, 1);
        assert_eq!(g.indirect_jump_sites, vec![0x103]);
    }

    #[test]
    fn reachability_walks_calls_branches_and_fallthrough() {
        // 0x100: call 0x10b ; 0x105: jne 0x109 ; 0x107/0x108: nops ;
        // 0x109: ret ; 0x10a: unreachable nop ; 0x10b: callee ret
        let mut code = call(6); // 0x100 → target 0x10b
        code.extend_from_slice(&[0x75, 0x02]); // 0x105: jne 0x109
        code.extend_from_slice(&[0x90, 0x90]); // 0x107, 0x108
        code.push(0xc3); // 0x109
        code.push(0x90); // 0x10a — unreachable filler
        code.push(0xc3); // 0x10b — callee
        let s = sweep(&code, 0x100);
        let reach = reachable_insns(&s, [0x100]);
        let bit = |addr: u64| {
            let i = s.insn_at(addr).unwrap();
            reach[i / 64] >> (i % 64) & 1 == 1
        };
        for addr in [0x100, 0x105, 0x107, 0x108, 0x109, 0x10b] {
            assert!(bit(addr), "{addr:#x} should be reachable");
        }
        assert!(!bit(0x10a), "filler after ret is unreachable");
    }

    #[test]
    fn reachability_stops_at_ret_and_traps() {
        // ret; nop — nothing past the return without another root.
        let code = [0xc3, 0x90];
        let s = sweep(&code, 0x100);
        let reach = reachable_insns(&s, [0x100]);
        assert_eq!(reach[0] & 0b11, 0b01);
        // A second root resurrects the tail.
        let reach = reachable_insns(&s, [0x100, 0x101]);
        assert_eq!(reach[0] & 0b11, 0b11);
    }

    #[test]
    fn roots_off_instruction_boundaries_are_ignored() {
        let code = [0x90, 0xc3];
        let s = sweep(&code, 0x100);
        let reach = reachable_insns(&s, [0x1234]);
        assert!(reach.iter().all(|&w| w == 0));
    }
}
