//! Per-function control-flow graphs over the packed instruction stream.
//!
//! The interprocedural layer's first artifact: given a function entry
//! and the upper bound of its byte range, discover basic blocks by the
//! classic leader algorithm — the entry is a leader, every in-range
//! direct branch target is a leader, and the instruction after any
//! control transfer (or after a decode-error gap) is a leader — then
//! connect consecutive leader-delimited runs with intra-procedural
//! edges read from [`funseeker_disasm::Flow`]. Everything comes from the
//! packed tag/target arrays of [`SweepIndex::insns`], built once per
//! binary on first use.
//!
//! Blocks **exactly tile** the function's slice of the packed stream:
//! every instruction index in `[lo, hi)` belongs to exactly one block,
//! with no gaps and no overlaps (a property the proptest suite checks
//! across hostile mutant corpora). Junk decodes inside the range —
//! superset artifacts, data misread as instructions — still land in
//! some block; reachability over the CFG is what separates them from
//! real code.

use crate::disassemble::SweepIndex;

/// One basic block: a maximal single-entry straight-line run of
/// instructions in the packed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the block's first instruction.
    pub start: u64,
    /// Address one past the block's last instruction.
    pub end: u64,
    /// The block's instruction indices into the shared packed stream.
    pub insns: std::ops::Range<usize>,
    /// Successor blocks, as indices into [`Cfg::blocks`]. Intra-
    /// procedural only: call edges and tail-call exits live in the call
    /// graph, not here.
    pub succs: Vec<usize>,
}

/// The control-flow graph of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// The function entry address.
    pub entry: u64,
    /// The analyzed byte range `[entry, limit)`.
    pub range: (u64, u64),
    /// Basic blocks in address order; block 0 (when any exist) starts
    /// at the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Total number of intra-procedural edges.
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// The block containing instruction index `i`, if any.
    pub fn block_of(&self, i: usize) -> Option<usize> {
        let k = self.blocks.partition_point(|b| b.insns.start <= i);
        k.checked_sub(1).filter(|&k| self.blocks[k].insns.contains(&i))
    }
}

/// Builds the CFG of the function entered at `entry`, bounded above by
/// `limit` (typically `min(next_entry, region_end)` — the same cheap
/// bound [`crate::estimate_bounds`] uses).
///
/// The blocks partition the stream indices `[lo, hi)` where `lo`/`hi`
/// are the partition points of `entry`/`limit`: exact tiling, no gaps,
/// no overlaps. Branch targets that leave `[entry, limit)` or land
/// mid-instruction produce no intra-procedural edge (a jump out of the
/// range is a tail-call exit; a mid-instruction target is junk).
pub fn build_cfg(sweep: &SweepIndex, entry: u64, limit: u64) -> Cfg {
    let s = sweep.insns();
    let lo = s.partition_point_addr(entry);
    let hi = s.partition_point_addr(limit.max(entry));

    // Leader discovery. `leaders` collects in-range instruction indices;
    // index `lo` is always a leader of a non-empty range.
    let mut leaders: Vec<usize> = Vec::new();
    if lo < hi {
        leaders.push(lo);
    }
    for i in lo..hi {
        let flow = s.flow_at(i);
        if flow.ends_block() && i + 1 < hi {
            leaders.push(i + 1);
        }
        if let Some(target) = flow.branch_target() {
            if target >= entry && target < limit {
                if let Some(j) = s.index_of_addr(target) {
                    if j >= lo && j < hi {
                        leaders.push(j);
                    }
                }
            }
        }
        // A decode-error gap breaks the straight line: the next decoded
        // instruction does not follow this one.
        if i + 1 < hi && s.addr_at(i + 1) != s.end_at(i) {
            leaders.push(i + 1);
        }
    }
    leaders.sort_unstable();
    leaders.dedup();

    // Blocks are the runs between consecutive leaders.
    let mut blocks: Vec<BasicBlock> = Vec::with_capacity(leaders.len());
    for (k, &first) in leaders.iter().enumerate() {
        let next = leaders.get(k + 1).copied().unwrap_or(hi);
        let last = next - 1;
        blocks.push(BasicBlock {
            start: s.addr_at(first),
            end: s.end_at(last),
            insns: first..next,
            succs: Vec::new(),
        });
    }

    // Edges from each block's last instruction. `block_at` maps a leader
    // index back to its block position.
    let block_at = |i: usize| -> Option<usize> {
        let k = leaders.partition_point(|&l| l <= i);
        k.checked_sub(1).filter(|&k| leaders[k] == i)
    };
    for block in &mut blocks {
        let last = block.insns.end - 1;
        let flow = s.flow_at(last);
        let mut succs = Vec::new();
        // Fallthrough: only when control continues AND the next decoded
        // instruction really is adjacent (no decode-error gap) and still
        // inside the function.
        if flow.falls_through() && last + 1 < hi && s.addr_at(last + 1) == s.end_at(last) {
            succs.push(block_at(last + 1).expect("instruction after a block is a leader"));
        }
        if let Some(target) = flow.branch_target() {
            if target >= entry && target < limit {
                if let Some(j) = s.index_of_addr(target) {
                    if let Some(b) = block_at(j) {
                        if !succs.contains(&b) {
                            succs.push(b);
                        }
                    }
                }
            }
        }
        block.succs = succs;
    }

    Cfg { entry, range: (entry, limit), blocks }
}

/// Builds CFGs for every entry in a sorted entry list, bounding each
/// function at the next entry or its region end, whichever comes first.
pub fn build_cfgs(sweep: &SweepIndex, entries: &[u64]) -> Vec<Cfg> {
    debug_assert!(entries.windows(2).all(|w| w[0] < w[1]), "entries must be sorted+deduped");
    entries
        .iter()
        .enumerate()
        .map(|(k, &entry)| {
            let region_end = sweep
                .regions
                .iter()
                .find(|r| entry >= r.start && entry < r.end)
                .map_or(u64::MAX, |r| r.end);
            let next = entries.get(k + 1).copied().unwrap_or(u64::MAX);
            build_cfg(sweep, entry, next.min(region_end))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disassemble::disassemble;
    use crate::parse::Parsed;

    fn sweep(code: &[u8], addr: u64) -> SweepIndex<'_> {
        disassemble(&Parsed::from_region(addr, code, true))
    }

    /// Asserts the tiling invariant: blocks cover `[lo, hi)` exactly.
    fn assert_tiles(cfg: &Cfg, lo: usize, hi: usize) {
        let mut at = lo;
        for b in &cfg.blocks {
            assert_eq!(b.insns.start, at, "gap or overlap before block at {:#x}", b.start);
            assert!(b.insns.end > b.insns.start, "empty block at {:#x}", b.start);
            at = b.insns.end;
        }
        assert_eq!(at, hi, "blocks must end at the range bound");
    }

    #[test]
    fn straight_line_is_one_block() {
        // endbr64; push rbp; nop; ret
        let code = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x90, 0xc3];
        let s = sweep(&code, 0x1000);
        let cfg = build_cfg(&s, 0x1000, 0x1007);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].start, 0x1000);
        assert_eq!(cfg.blocks[0].end, 0x1007);
        assert!(cfg.blocks[0].succs.is_empty(), "ret has no successor");
        assert_tiles(&cfg, 0, s.insns().len());
    }

    #[test]
    fn diamond_from_conditional_branch() {
        // 0x100: jne 0x104 ; 0x102: nop; nop ; 0x104: ret
        let code = [0x75, 0x02, 0x90, 0x90, 0xc3];
        let s = sweep(&code, 0x100);
        let cfg = build_cfg(&s, 0x100, 0x105);
        assert_eq!(cfg.blocks.len(), 3);
        // Block 0 = the jne: fallthrough to block 1, taken to block 2.
        assert_eq!(cfg.blocks[0].succs, vec![1, 2]);
        assert_eq!(cfg.blocks[1].succs, vec![2]);
        assert!(cfg.blocks[2].succs.is_empty());
        assert_eq!(cfg.edge_count(), 3);
        assert_tiles(&cfg, 0, s.insns().len());
    }

    #[test]
    fn backedge_creates_loop() {
        // 0x100: nop ; 0x101: jmp 0x100
        let code = [0x90, 0xeb, 0xfd];
        let s = sweep(&code, 0x100);
        let cfg = build_cfg(&s, 0x100, 0x103);
        assert_eq!(cfg.blocks.len(), 1, "target is the entry leader; one block");
        assert_eq!(cfg.blocks[0].succs, vec![0], "self-loop back to the entry block");
    }

    #[test]
    fn call_does_not_end_a_block_and_adds_no_edge() {
        // endbr64; call +0; ret — the call falls through into the ret
        // within one block; the callee edge belongs to the call graph.
        let code = [0xf3, 0x0f, 0x1e, 0xfa, 0xe8, 0, 0, 0, 0, 0xc3];
        let s = sweep(&code, 0x1000);
        let cfg = build_cfg(&s, 0x1000, 0x100a);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn jump_out_of_range_is_an_exit_not_an_edge() {
        // 0x100: nop; 0x101: jmp 0x200 (tail call out of the function)
        let code = [0x90, 0xe9, 0xfa, 0x00, 0x00, 0x00];
        let s = sweep(&code, 0x100);
        let cfg = build_cfg(&s, 0x100, 0x106);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty(), "out-of-range jump has no intra edge");
    }

    #[test]
    fn empty_range_yields_empty_cfg() {
        let code = [0x90, 0xc3];
        let s = sweep(&code, 0x100);
        let cfg = build_cfg(&s, 0x500, 0x600);
        assert!(cfg.blocks.is_empty());
        assert_eq!(cfg.edge_count(), 0);
        assert_eq!(cfg.block_of(0), None);
    }

    #[test]
    fn build_cfgs_bounds_at_next_entry() {
        // Two functions back to back: ret at 0x100, then nop;ret.
        let code = [0xc3, 0x90, 0xc3];
        let s = sweep(&code, 0x100);
        let cfgs = build_cfgs(&s, &[0x100, 0x101]);
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].blocks.len(), 1);
        assert_eq!(cfgs[0].blocks[0].insns, 0..1);
        assert_eq!(cfgs[1].blocks[0].insns, 1..3);
        assert_eq!(cfgs[1].range, (0x101, 0x103));
        // Together they tile the whole stream.
        assert_tiles(&cfgs[0], 0, 1);
        assert_tiles(&cfgs[1], 1, 3);
    }

    #[test]
    fn block_of_maps_indices_to_blocks() {
        let code = [0x75, 0x02, 0x90, 0x90, 0xc3];
        let s = sweep(&code, 0x100);
        let cfg = build_cfg(&s, 0x100, 0x105);
        assert_eq!(cfg.block_of(0), Some(0));
        assert_eq!(cfg.block_of(1), Some(1));
        assert_eq!(cfg.block_of(2), Some(1));
        assert_eq!(cfg.block_of(3), Some(2));
        assert_eq!(cfg.block_of(4), None);
    }
}
