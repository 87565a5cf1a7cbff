//! Packed structure-of-arrays instruction stream.
//!
//! A linear sweep of compiler output is overwhelmingly
//! [`InsnKind::Other`]: the semantic payloads function identification
//! cares about (branch targets, `NOTRACK` flags, pushed registers) ride
//! on a few percent of instructions. Materializing every instruction as
//! a 32-byte [`Insn`] therefore wastes ~5× the memory traffic the data
//! needs — and the sweep is memory-bound in the stitch and in every
//! downstream full-stream pass.
//!
//! [`InsnStream`] stores the stream as three parallel packed arrays —
//! `u32` segment-relative offset, `u8` length, `u8` kind tag — 6 bytes
//! per instruction, plus a sorted side table holding the branch targets
//! for the minority of direct branches (`NOTRACK` and push-register
//! payloads fit in the tag byte). Segments carry the base address, so a
//! stream can span multiple code regions (the per-binary `SweepIndex`)
//! or a single one (a sweep of one region).
//!
//! Consumers that want the old value type iterate with [`InsnStream::iter`],
//! which reconstructs [`Insn`] on the fly in O(1) per item; hot passes
//! scan the packed arrays directly via the indexed accessors
//! ([`InsnStream::addr_at`], [`InsnStream::kind_at`],
//! [`InsnStream::push_reg_indices`], …).

use std::sync::OnceLock;

use crate::bitrank::BitRank;
use crate::insn::{Insn, InsnKind};

// Kind tags. `NOTRACK` and the pushed-register number are folded into
// the tag byte; only direct-branch targets need the side table.
pub(crate) const TAG_OTHER: u8 = 0;
pub(crate) const TAG_ENDBR64: u8 = 1;
pub(crate) const TAG_ENDBR32: u8 = 2;
pub(crate) const TAG_RET: u8 = 3;
pub(crate) const TAG_LEAVE: u8 = 4;
pub(crate) const TAG_NOP: u8 = 5;
pub(crate) const TAG_INT3: u8 = 6;
pub(crate) const TAG_UD2: u8 = 7;
pub(crate) const TAG_HLT: u8 = 8;
pub(crate) const TAG_CALL_IND: u8 = 9;
pub(crate) const TAG_CALL_IND_NOTRACK: u8 = 10;
pub(crate) const TAG_JMP_IND: u8 = 11;
pub(crate) const TAG_JMP_IND_NOTRACK: u8 = 12;
/// Tags `>= TAG_CALL_REL && < TAG_PUSH` carry a side-table target.
pub(crate) const TAG_CALL_REL: u8 = 13;
pub(crate) const TAG_JMP_REL: u8 = 14;
pub(crate) const TAG_JCC: u8 = 15;
/// `TAG_PUSH + reg` for `PushReg { reg }`, reg 0–15.
pub(crate) const TAG_PUSH: u8 = 16;

#[inline]
pub(crate) fn has_target(tag: u8) -> bool {
    (TAG_CALL_REL..TAG_PUSH).contains(&tag)
}

#[inline]
pub(crate) fn tag_of(kind: InsnKind) -> (u8, Option<u64>) {
    match kind {
        InsnKind::Other => (TAG_OTHER, None),
        InsnKind::Endbr64 => (TAG_ENDBR64, None),
        InsnKind::Endbr32 => (TAG_ENDBR32, None),
        InsnKind::Ret => (TAG_RET, None),
        InsnKind::Leave => (TAG_LEAVE, None),
        InsnKind::Nop => (TAG_NOP, None),
        InsnKind::Int3 => (TAG_INT3, None),
        InsnKind::Ud2 => (TAG_UD2, None),
        InsnKind::Hlt => (TAG_HLT, None),
        InsnKind::CallInd { notrack } => {
            (if notrack { TAG_CALL_IND_NOTRACK } else { TAG_CALL_IND }, None)
        }
        InsnKind::JmpInd { notrack } => {
            (if notrack { TAG_JMP_IND_NOTRACK } else { TAG_JMP_IND }, None)
        }
        InsnKind::CallRel { target } => (TAG_CALL_REL, Some(target)),
        InsnKind::JmpRel { target } => (TAG_JMP_REL, Some(target)),
        InsnKind::Jcc { target } => (TAG_JCC, Some(target)),
        InsnKind::PushReg { reg } => (TAG_PUSH + (reg & 0x0f), None),
    }
}

/// Reconstructs the kind; `target` is consulted only for direct-branch
/// tags.
#[inline]
pub(crate) fn kind_from(tag: u8, target: u64) -> InsnKind {
    match tag {
        TAG_OTHER => InsnKind::Other,
        TAG_ENDBR64 => InsnKind::Endbr64,
        TAG_ENDBR32 => InsnKind::Endbr32,
        TAG_RET => InsnKind::Ret,
        TAG_LEAVE => InsnKind::Leave,
        TAG_NOP => InsnKind::Nop,
        TAG_INT3 => InsnKind::Int3,
        TAG_UD2 => InsnKind::Ud2,
        TAG_HLT => InsnKind::Hlt,
        TAG_CALL_IND => InsnKind::CallInd { notrack: false },
        TAG_CALL_IND_NOTRACK => InsnKind::CallInd { notrack: true },
        TAG_JMP_IND => InsnKind::JmpInd { notrack: false },
        TAG_JMP_IND_NOTRACK => InsnKind::JmpInd { notrack: true },
        TAG_CALL_REL => InsnKind::CallRel { target },
        TAG_JMP_REL => InsnKind::JmpRel { target },
        TAG_JCC => InsnKind::Jcc { target },
        t => InsnKind::PushReg { reg: t - TAG_PUSH },
    }
}

/// Control-flow behavior of one instruction, read straight from the
/// packed tag/target arrays — the intra-procedural successor view the
/// CFG and call-graph layers consume without re-decoding any bytes.
///
/// The variants answer two questions per instruction: does control fall
/// through to the next address, and where else can it go? Direct-branch
/// destinations come from the stream's dense side table (`tgt_val`);
/// indirect transfers expose their `NOTRACK` flag so CET-aware
/// consumers can constrain the candidate target set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Control reaches only the next instruction (the default for
    /// arithmetic, moves, `ENDBR`, `NOP`, …).
    Fall,
    /// Direct near call: control falls through after the callee
    /// returns; `target` enters the callee (an interprocedural edge).
    Call {
        /// Absolute callee entry address.
        target: u64,
    },
    /// Indirect call (`FF /2`, `FF /3`): falls through; the callee set
    /// is unknown statically but CET constrains it to `ENDBR` entries
    /// unless `notrack` is set.
    CallInd {
        /// Whether a `NOTRACK` prefix exempts the transfer from CET.
        notrack: bool,
    },
    /// Direct unconditional jump: control moves to `target` only.
    Jump {
        /// Absolute destination address.
        target: u64,
    },
    /// Indirect unconditional jump: no static successor; CET constrains
    /// the destination to `ENDBR` entries unless `notrack` is set.
    JumpInd {
        /// Whether a `NOTRACK` prefix exempts the transfer from CET.
        notrack: bool,
    },
    /// Conditional branch: control reaches `target` or falls through.
    Branch {
        /// Absolute taken-branch destination address.
        target: u64,
    },
    /// Near or far return: no static successor.
    Ret,
    /// Trap (`UD2`, `HLT`, `INT3`): control does not continue.
    Trap,
}

impl Flow {
    /// Whether control can continue at the next address.
    pub fn falls_through(self) -> bool {
        !matches!(self, Flow::Jump { .. } | Flow::JumpInd { .. } | Flow::Ret | Flow::Trap)
    }

    /// The intra-procedural transfer destination — the taken target of
    /// a direct jump or conditional branch. Call destinations are
    /// deliberately excluded: they enter another function.
    pub fn branch_target(self) -> Option<u64> {
        match self {
            Flow::Jump { target } | Flow::Branch { target } => Some(target),
            _ => None,
        }
    }

    /// The direct-call destination, if this is a direct call.
    pub fn call_target(self) -> Option<u64> {
        match self {
            Flow::Call { target } => Some(target),
            _ => None,
        }
    }

    /// Whether a basic block must end after this instruction (any
    /// transfer of control other than a call: jumps, conditional
    /// branches, returns, traps).
    pub fn ends_block(self) -> bool {
        matches!(
            self,
            Flow::Jump { .. } | Flow::JumpInd { .. } | Flow::Branch { .. } | Flow::Ret | Flow::Trap
        )
    }
}

/// Iterator over the (at most two) intra-procedural successor addresses
/// of one instruction — see [`InsnStream::successors`].
#[derive(Debug, Clone)]
pub struct Successors {
    fall: Option<u64>,
    taken: Option<u64>,
}

impl Iterator for Successors {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.fall.take().or_else(|| self.taken.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.fall.is_some()) + usize::from(self.taken.is_some());
        (n, Some(n))
    }
}

impl ExactSizeIterator for Successors {}

/// A contiguous run of instructions sharing one base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg {
    /// Index of the segment's first instruction.
    first: usize,
    /// Address the segment's offsets are relative to.
    base: u64,
}

/// Retired packed-array buffers of one dropped [`InsnStream`], kept for
/// reuse by the next [`InsnStream::with_byte_capacity`] on the thread.
struct SpareBufs {
    offs: Vec<u32>,
    lens: Vec<u8>,
    tags: Vec<u8>,
    tgts: BitRank,
    tgt_val: Vec<u64>,
}

thread_local! {
    /// One spare buffer set per thread, biggest-capacity-wins.
    ///
    /// A multi-MB sweep allocates ~2 bytes of packed arrays per code
    /// byte; at that size the allocator serves them with fresh `mmap`s
    /// and unmaps them on drop, so every one-shot sweep pays the page
    /// faults of touching the arrays all over again — measurably slower
    /// than the decode loop it feeds. Recycling retired buffers keeps
    /// the pages mapped and warm across sweeps (the batch engine does
    /// this at the scheduler level; this covers every consumer,
    /// including the per-shard streams of the parallel sweep).
    static SPARE: std::cell::Cell<Option<Box<SpareBufs>>> =
        const { std::cell::Cell::new(None) };
}

/// Streams below this capacity (in instruction slots) are dropped
/// normally: small allocations are cheap to refault and not worth
/// holding onto.
const RECYCLE_MIN_SLOTS: usize = 64 * 1024;

/// Stashes a retired stream's buffers for reuse if they beat the
/// current spare, clearing them first so reuse starts from empty.
fn recycle(stream: &mut InsnStream) {
    if stream.offs.capacity() < RECYCLE_MIN_SLOTS {
        return;
    }
    let mut bufs = Box::new(SpareBufs {
        offs: std::mem::take(&mut stream.offs),
        lens: std::mem::take(&mut stream.lens),
        tags: std::mem::take(&mut stream.tags),
        tgts: std::mem::take(&mut stream.tgts),
        tgt_val: std::mem::take(&mut stream.tgt_val),
    });
    bufs.offs.clear();
    bufs.lens.clear();
    bufs.tags.clear();
    bufs.tgts.clear();
    bufs.tgt_val.clear();
    SPARE.with(|s| {
        let keep = match s.take() {
            Some(cur) if cur.offs.capacity() >= bufs.offs.capacity() => cur,
            _ => bufs,
        };
        s.set(Some(keep));
    });
}

impl Drop for InsnStream {
    fn drop(&mut self) {
        recycle(self);
    }
}

/// Packed instruction stream — see the module docs for the layout.
///
/// ```
/// use funseeker_disasm::{sweep_all, InsnKind, Mode};
/// // endbr64; push rbp; call +0; ret
/// let code = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0xe8, 0, 0, 0, 0, 0xc3];
/// let stream = sweep_all(&code, 0x1000, Mode::Bits64).stream;
/// assert_eq!(stream.len(), 4);
/// assert_eq!(stream.addr_at(1), 0x1004);
/// assert_eq!(stream.kind_at(2), InsnKind::CallRel { target: 0x100a });
/// let insns: Vec<_> = stream.iter().collect();
/// assert_eq!(insns[3].kind, InsnKind::Ret);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InsnStream {
    /// Byte offset of each instruction, relative to its segment base.
    offs: Vec<u32>,
    /// Instruction lengths (1–15).
    lens: Vec<u8>,
    /// Kind tags.
    tags: Vec<u8>,
    /// Direct-branch membership: bit `i` set iff instruction `i` carries
    /// a side-table target ([`has_target`] of its tag). The rank of bit
    /// `i` is the instruction's position in `tgt_val` — O(1) where the
    /// old sorted index `Vec` needed a binary search per lookup.
    tgts: BitRank,
    /// Absolute branch targets, dense, in instruction order.
    tgt_val: Vec<u64>,
    /// Segments in instruction order; empty iff the stream is empty.
    segs: Vec<Seg>,
    /// Sealed instruction-boundary bitmaps, one per segment (bit = a
    /// segment-relative byte offset where an instruction starts; rank =
    /// instructions before that offset). Filled by the first address
    /// probe or by [`InsnStream::seal`]; an empty `Vec` records that the
    /// stream refused to seal. Any mutation resets it. Derived data —
    /// excluded from equality.
    boundary: OnceLock<Vec<BitRank>>,
}

/// Equality over the logical stream content (packed arrays, targets,
/// segmentation). The rank accelerators (`tgts`, `boundary`) are derived
/// from those fields — `tgts` deterministically so, `boundary` only
/// once the stream is sealed — and are deliberately excluded so a
/// sealed stream still equals its unsealed twin.
impl PartialEq for InsnStream {
    fn eq(&self, other: &Self) -> bool {
        self.offs == other.offs
            && self.lens == other.lens
            && self.tags == other.tags
            && self.tgt_val == other.tgt_val
            && self.segs == other.segs
    }
}

impl Eq for InsnStream {}

impl InsnStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream pre-sized for sweeping `bytes` bytes of code.
    ///
    /// Dense compiler output runs ~3 bytes per instruction (a linear
    /// sweep decodes *everything*, including data misread as short
    /// instructions), so the packed arrays reserve `bytes / 3` slots up
    /// front: a mid-sweep doubling of a multi-MB array costs more than
    /// the slack. The side table reserves for ~12% direct-branch
    /// density.
    pub fn with_byte_capacity(bytes: usize) -> Self {
        let insns = bytes / 3;
        // A retired stream's buffers (see `SPARE`) skip both the
        // allocation and the page faults of first touch.
        if let Some(sp) = SPARE.with(std::cell::Cell::take) {
            if sp.offs.capacity() >= insns {
                let sp = *sp;
                return InsnStream {
                    offs: sp.offs,
                    lens: sp.lens,
                    tags: sp.tags,
                    tgts: sp.tgts,
                    tgt_val: sp.tgt_val,
                    segs: Vec::new(),
                    boundary: OnceLock::new(),
                };
            }
            // Too small for this sweep: leave it for a smaller one.
            SPARE.with(|s| s.set(Some(sp)));
        }
        let mut tgts = BitRank::new();
        tgts.reserve(insns);
        InsnStream {
            offs: Vec::with_capacity(insns),
            lens: Vec::with_capacity(insns),
            tags: Vec::with_capacity(insns),
            tgts,
            tgt_val: Vec::with_capacity(insns / 8),
            segs: Vec::new(),
            boundary: OnceLock::new(),
        }
    }

    /// Reserves room for `additional` more instructions.
    pub fn reserve(&mut self, additional: usize) {
        self.offs.reserve(additional);
        self.lens.reserve(additional);
        self.tags.reserve(additional);
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.offs.len()
    }

    /// Whether the stream holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.offs.is_empty()
    }

    /// Starts a new segment: subsequent pushes store offsets relative to
    /// `base`. Replaces the current segment if it is still empty.
    pub fn begin_segment(&mut self, base: u64) {
        self.boundary.take();
        if let Some(last) = self.segs.last_mut() {
            if last.first == self.offs.len() {
                last.base = base;
                return;
            }
        }
        self.segs.push(Seg { first: self.offs.len(), base });
    }

    /// Offset of `addr` relative to the current segment, opening an
    /// overflow segment when the distance exceeds `u32` (regions larger
    /// than 4 GiB) or when no segment exists yet.
    #[inline]
    fn rel(&mut self, addr: u64) -> u32 {
        if let Some(seg) = self.segs.last() {
            // Wrapping: region bases may sit near u64::MAX; instruction
            // addresses are base + offset modulo 2^64, so the wrapping
            // difference recovers the in-region offset.
            let delta = addr.wrapping_sub(seg.base);
            if delta <= u64::from(u32::MAX) {
                return delta as u32;
            }
        }
        self.segs.push(Seg { first: self.offs.len(), base: addr });
        0
    }

    /// Appends one instruction. The address must be at or after the
    /// current segment's base (streams are built in address order).
    #[inline]
    pub fn push(&mut self, insn: Insn) {
        let (tag, target) = tag_of(insn.kind);
        self.push_parts(insn.addr, insn.len, tag, target.unwrap_or(0));
    }

    /// Appends one instruction already in packed form — the sweep hot
    /// loop's entry point, skipping the [`InsnKind`] round-trip.
    /// `target` is consulted only when the tag carries one.
    #[inline]
    pub(crate) fn push_parts(&mut self, addr: u64, len: u8, tag: u8, target: u64) {
        self.boundary.take();
        let off = self.rel(addr);
        self.push_at(off, len, tag, target);
    }

    /// [`InsnStream::push_parts`] with the segment-relative offset
    /// already computed — the sweep hot loop's entry point (a sweep of
    /// one region pushes `off` directly, skipping the per-instruction
    /// segment lookup, the wrapping subtraction in [`InsnStream::rel`],
    /// and the sealed-state check: callers must only use this on a
    /// stream that was never sealed or probed by address (the sweep
    /// always builds fresh ones).
    ///
    /// The offset must be at or after the last pushed offset of the
    /// current segment (streams are built in address order).
    #[inline]
    pub(crate) fn push_at(&mut self, off: u32, len: u8, tag: u8, target: u64) {
        debug_assert!(self.boundary.get().is_none(), "push_at on a sealed stream");
        self.offs.push(off);
        self.lens.push(len);
        self.tags.push(tag);
        let has = has_target(tag);
        self.tgts.push(has);
        if has {
            self.tgt_val.push(target);
        }
    }

    /// Bulk-appends up to 64 instructions in the [`InsnStream::push_at`]
    /// packed form: element `k` of `batch` is
    /// The columns arrive pre-separated (the sweep scratch mirrors the
    /// stream's own SoA layout), so each lands with one
    /// `extend_from_slice` — a bounds check plus a memcpy per batch
    /// instead of one grow-checked push per instruction. Bit `k` of
    /// `tbits` flags a direct branch whose target is the next value of
    /// `targets` (dense, in batch order). Same sealed-state caveat as
    /// `push_at`.
    pub(crate) fn push_packed(
        &mut self,
        offs: &[u32],
        lens: &[u8],
        tags: &[u8],
        tbits: u64,
        targets: &[u64],
    ) {
        debug_assert!(self.boundary.get().is_none(), "push_packed on a sealed stream");
        debug_assert!(offs.len() <= 64);
        debug_assert!(offs.len() == lens.len() && offs.len() == tags.len());
        debug_assert_eq!(tbits.count_ones() as usize, targets.len());
        debug_assert!(offs.len() == 64 || tbits >> offs.len() == 0);
        self.offs.extend_from_slice(offs);
        self.lens.extend_from_slice(lens);
        self.tags.extend_from_slice(tags);
        self.tgts.append_word(tbits, offs.len());
        self.tgt_val.extend_from_slice(targets);
    }

    /// Bulk-appends a run of `n` one-byte instructions of kind `kind`
    /// starting at `addr` — the padding run-skipper's fast append for
    /// `NOP`/`INT3` pads.
    pub fn push_run(&mut self, addr: u64, n: usize, kind: InsnKind) {
        let (tag, target) = tag_of(kind);
        debug_assert!(target.is_none(), "run kinds carry no payload");
        let off0 = self.rel(addr);
        if let Some(end) = off0.checked_add(u32::try_from(n).unwrap_or(u32::MAX)) {
            self.boundary.take();
            self.offs.extend(off0..end);
            self.lens.extend(std::iter::repeat_n(1, n));
            self.tags.extend(std::iter::repeat_n(tag, n));
            self.tgts.push_zeros(n);
            return;
        }
        // Offsets would cross the u32 segment limit: fall back to the
        // per-instruction path, which opens overflow segments as needed.
        for k in 0..n as u64 {
            self.push(Insn { addr: addr.wrapping_add(k), len: 1, kind });
        }
    }

    /// Segment index owning instruction `i`.
    #[inline]
    fn seg_of(&self, i: usize) -> usize {
        debug_assert!(!self.segs.is_empty());
        self.segs.partition_point(|s| s.first <= i) - 1
    }

    /// Address of instruction `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`, like slice indexing.
    #[inline]
    pub fn addr_at(&self, i: usize) -> u64 {
        let seg = self.segs[self.seg_of(i)];
        seg.base.wrapping_add(u64::from(self.offs[i]))
    }

    /// Length in bytes of instruction `i`.
    #[inline]
    pub fn len_at(&self, i: usize) -> u8 {
        self.lens[i]
    }

    /// Address one past instruction `i` (modulo 2^64).
    #[inline]
    pub fn end_at(&self, i: usize) -> u64 {
        self.addr_at(i).wrapping_add(u64::from(self.lens[i]))
    }

    /// Branch target of instruction `i`, if it is a direct branch — the
    /// rank of the membership bit is the target's dense position.
    #[inline]
    fn target_at(&self, i: usize) -> u64 {
        // invariant: push() records a dense target for every
        // direct-branch tag, so a targetless lookup cannot happen.
        self.tgt_val.get(self.tgts.rank(i)).copied().unwrap_or(0)
    }

    /// Control-flow behavior of instruction `i`, straight from the
    /// packed tag byte and the dense target table — no re-decoding.
    #[inline]
    pub fn flow_at(&self, i: usize) -> Flow {
        match self.tags[i] {
            TAG_RET => Flow::Ret,
            TAG_INT3 | TAG_UD2 | TAG_HLT => Flow::Trap,
            TAG_CALL_IND => Flow::CallInd { notrack: false },
            TAG_CALL_IND_NOTRACK => Flow::CallInd { notrack: true },
            TAG_JMP_IND => Flow::JumpInd { notrack: false },
            TAG_JMP_IND_NOTRACK => Flow::JumpInd { notrack: true },
            TAG_CALL_REL => Flow::Call { target: self.target_at(i) },
            TAG_JMP_REL => Flow::Jump { target: self.target_at(i) },
            TAG_JCC => Flow::Branch { target: self.target_at(i) },
            _ => Flow::Fall,
        }
    }

    /// The intra-procedural successor addresses of instruction `i`: the
    /// fallthrough address (when control can continue) followed by the
    /// taken-branch target (for direct jumps and conditional branches).
    /// Direct-call destinations are *not* successors — they enter
    /// another function; read them from [`InsnStream::flow_at`].
    #[inline]
    pub fn successors(&self, i: usize) -> Successors {
        let flow = self.flow_at(i);
        Successors {
            fall: flow.falls_through().then(|| self.end_at(i)),
            taken: flow.branch_target(),
        }
    }

    /// Classification of instruction `i`.
    #[inline]
    pub fn kind_at(&self, i: usize) -> InsnKind {
        let tag = self.tags[i];
        let target = if has_target(tag) { self.target_at(i) } else { 0 };
        kind_from(tag, target)
    }

    /// Instruction `i` as the legacy value type.
    pub fn get(&self, i: usize) -> Insn {
        Insn { addr: self.addr_at(i), len: self.lens[i], kind: self.kind_at(i) }
    }

    /// Number of instructions whose address is `< addr` — the packed
    /// equivalent of `insns.partition_point(|i| i.addr < addr)`.
    ///
    /// Requires the stream to be address-sorted, which every sweep
    /// product is (regions are swept in address order). The first probe
    /// seals the stream (see [`InsnStream::seal`]); on a sealed stream
    /// this is a rank query on the boundary bitmap, on one that refuses
    /// to seal a binary search.
    pub fn partition_point_addr(&self, addr: u64) -> usize {
        match self.boundary_index() {
            Some(maps) => match self.sealed_locate(maps, addr) {
                SealedHit::Before => 0,
                SealedHit::In { partition, .. } => partition,
            },
            None => self.search_addr(addr),
        }
    }

    /// Index of the instruction starting exactly at `addr`, if any.
    /// Like [`InsnStream::partition_point_addr`], the first probe seals
    /// the stream; sealed, this is one bit test plus one rank query
    /// instead of a binary search.
    pub fn index_of_addr(&self, addr: u64) -> Option<usize> {
        match self.boundary_index() {
            Some(maps) => match self.sealed_locate(maps, addr) {
                SealedHit::Before => None,
                SealedHit::In { partition, starts_insn } => starts_insn.then_some(partition),
            },
            None => {
                let i = self.search_addr(addr);
                (i < self.len() && self.addr_at(i) == addr).then_some(i)
            }
        }
    }

    /// Binary-search form of [`InsnStream::partition_point_addr`], for
    /// streams that refuse to seal.
    fn search_addr(&self, addr: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.addr_at(mid) < addr {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Builds the per-segment instruction-boundary bitmaps that turn
    /// [`InsnStream::index_of_addr`] and [`InsnStream::partition_point_addr`]
    /// (hence [`InsnStream::range`]) into O(1) rank queries.
    ///
    /// The eager form of what the first address probe does anyway: a
    /// stream nobody probes never pays for the index. Any later mutation
    /// drops the bitmaps, and the next probe rebuilds them. Sealing is
    /// skipped (harmlessly) when the stream violates the dense-sorted
    /// layout the rank queries assume: wrapping or overlapping segment
    /// address spans, non-increasing offsets, or a segment so sparse the
    /// bitmap would dwarf the instructions it indexes.
    pub fn seal(&mut self) {
        self.boundary = OnceLock::from(self.build_boundary());
    }

    /// The boundary bitmaps, built on first use; `None` when the stream
    /// refuses to seal (or is empty).
    #[inline]
    fn boundary_index(&self) -> Option<&[BitRank]> {
        let maps = self.boundary.get_or_init(|| self.build_boundary());
        (!maps.is_empty()).then_some(maps.as_slice())
    }

    /// One bitmap per segment, or none when the layout refuses (see
    /// [`InsnStream::seal`]).
    fn build_boundary(&self) -> Vec<BitRank> {
        let mut maps = Vec::with_capacity(self.segs.len());
        let mut prev_end: Option<u64> = None;
        for (j, seg) in self.segs.iter().enumerate() {
            let first = seg.first;
            let next = self.segs.get(j + 1).map_or(self.offs.len(), |s| s.first);
            let offs = &self.offs[first..next];
            if offs.is_empty() {
                // An empty segment never owns a lookup result, but its
                // base ordering is unchecked — refuse to seal around it.
                return Vec::new();
            }
            if !offs.windows(2).all(|w| w[0] < w[1]) {
                return Vec::new(); // duplicate or descending offsets
            }
            let max_off = u64::from(offs[offs.len() - 1]);
            let Some(last_addr) = seg.base.checked_add(max_off) else {
                return Vec::new(); // address span wraps 2^64
            };
            if prev_end.is_some_and(|e| e >= seg.base) {
                return Vec::new(); // segment spans overlap or are out of order
            }
            prev_end = Some(last_addr);
            let universe = max_off as usize + 1;
            if universe > 64 * offs.len() + 4096 {
                return Vec::new(); // too sparse: bitmap memory would exceed ~8x the insns
            }
            maps.push(BitRank::from_sorted(universe, offs));
        }
        maps
    }

    /// Whether the boundary bitmaps are built — by [`InsnStream::seal`]
    /// or by the first address probe, and not dropped by a mutation
    /// since. An empty stream counts as sealed.
    pub fn is_sealed(&self) -> bool {
        self.boundary.get().is_some_and(|maps| !maps.is_empty()) || self.segs.is_empty()
    }

    /// Sealed-path address lookup: segment probe + rank query. `maps`
    /// is the built boundary index (which implies the segment spans are
    /// sorted, disjoint, and non-wrapping).
    #[inline]
    fn sealed_locate(&self, maps: &[BitRank], addr: u64) -> SealedHit {
        debug_assert_eq!(maps.len(), self.segs.len());
        let j = self.segs.partition_point(|s| s.base <= addr);
        if j == 0 {
            return SealedHit::Before;
        }
        let seg = self.segs[j - 1];
        let map = &maps[j - 1];
        let next_first = self.segs.get(j).map_or(self.offs.len(), |s| s.first);
        let delta = addr - seg.base; // no wrap: seg.base <= addr
        if delta >= map.len() as u64 {
            // Past the segment's last instruction start (and before the
            // next segment's base): everything here counts as before.
            return SealedHit::In { partition: next_first, starts_insn: false };
        }
        let delta = delta as usize;
        SealedHit::In { partition: seg.first + map.rank(delta), starts_insn: map.get(delta) }
    }

    /// Iterates the whole stream as [`Insn`] values, O(1) per item.
    pub fn iter(&self) -> Insns<'_> {
        self.iter_from(0)
    }

    /// Iterates from instruction index `start` to the end.
    pub fn iter_from(&self, start: usize) -> Insns<'_> {
        self.slice(start, self.len())
    }

    /// Iterates the instructions whose addresses fall in `[lo, hi)`.
    pub fn range(&self, lo: u64, hi: u64) -> Insns<'_> {
        self.slice(self.partition_point_addr(lo), self.partition_point_addr(hi))
    }

    /// Iterator over `[start, end)` instruction indices.
    fn slice(&self, start: usize, end: usize) -> Insns<'_> {
        let start = start.min(self.len());
        let end = end.clamp(start, self.len());
        Insns {
            stream: self,
            i: start,
            end,
            at: AddrCursor {
                stream: self,
                seg: if start < self.len() { self.seg_of(start) } else { 0 },
            },
            tgt: self.tgts.rank(start),
        }
    }

    /// Indices of `PUSH r` instructions pushing register `reg` — a
    /// tag-array scan touching one byte per instruction, for the
    /// prologue-pattern passes.
    pub fn push_reg_indices(&self, reg: u8) -> impl Iterator<Item = usize> + '_ {
        let tag = TAG_PUSH + (reg & 0x0f);
        self.tags.iter().enumerate().filter(move |&(_, &t)| t == tag).map(|(i, _)| i)
    }

    /// Appends a copy of `other`, preserving its segmentation — used to
    /// concatenate per-region sweeps into one per-binary stream.
    pub fn append(&mut self, other: &InsnStream) {
        self.boundary.take();
        let idx0 = self.offs.len();
        for s in &other.segs {
            self.segs.push(Seg { first: s.first + idx0, base: s.base });
        }
        self.offs.extend_from_slice(&other.offs);
        self.lens.extend_from_slice(&other.lens);
        self.tags.extend_from_slice(&other.tags);
        self.tgts.extend_range(&other.tgts, 0, other.tgts.len());
        self.tgt_val.extend_from_slice(&other.tgt_val);
    }

    /// Collects the stream into the legacy `Vec<Insn>` form (tests,
    /// debugging; the hot paths never do this).
    pub fn to_insns(&self) -> Vec<Insn> {
        self.iter().collect()
    }

    /// Approximate heap footprint in bytes — the packed arrays, the
    /// dense target array with its membership bitmap, the segment list,
    /// and the sealed boundary bitmaps when present.
    pub fn packed_bytes(&self) -> usize {
        self.offs.len() * 6
            + self.tgt_val.len() * 8
            + self.tgts.heap_bytes()
            + self.segs.len() * 16
            + self.boundary.get().map_or(0, |maps| maps.iter().map(BitRank::heap_bytes).sum())
    }

    /// Binary search of the packed offset array within the single-segment
    /// invariant the sharded sweep maintains — used by the stitch to find
    /// the resynchronization point.
    pub(crate) fn search_off(&self, off: u32) -> Result<usize, usize> {
        self.offs.binary_search(&off)
    }

    /// Splices the tail of a single-segment `chain` (from instruction
    /// index `from`) onto `self`. Both streams must share the same single
    /// segment base — the sharded sweep's stitch invariant.
    pub(crate) fn splice_tail(&mut self, chain: &InsnStream, from: usize) {
        debug_assert!(self.segs.len() == 1 && chain.segs.len() == 1);
        debug_assert_eq!(self.segs[0].base, chain.segs[0].base);
        self.boundary.take();
        self.offs.extend_from_slice(&chain.offs[from..]);
        self.lens.extend_from_slice(&chain.lens[from..]);
        self.tags.extend_from_slice(&chain.tags[from..]);
        let t0 = chain.tgts.rank(from);
        self.tgts.extend_range(&chain.tgts, from, chain.tgts.len());
        self.tgt_val.extend_from_slice(&chain.tgt_val[t0..]);
    }
}

/// Address lookup for ascending instruction indices: a segment cursor
/// that only moves forward, where [`InsnStream::addr_at`] binary-searches
/// the segment list on every call.
#[derive(Debug, Clone)]
struct AddrCursor<'a> {
    stream: &'a InsnStream,
    seg: usize,
}

impl AddrCursor<'_> {
    /// Address of instruction `i`; `i` must not decrease between calls.
    #[inline]
    fn addr(&mut self, i: usize) -> u64 {
        let segs = &self.stream.segs;
        while self.seg + 1 < segs.len() && segs[self.seg + 1].first <= i {
            self.seg += 1;
        }
        segs[self.seg].base.wrapping_add(u64::from(self.stream.offs[i]))
    }
}

/// Result of a sealed-path address probe.
enum SealedHit {
    /// The address precedes every segment.
    Before,
    /// The address lands in (or after the instructions of) a segment.
    In {
        /// Count of instructions whose address is strictly below the
        /// probe — the partition point.
        partition: usize,
        /// Whether an instruction starts exactly at the probe address.
        starts_insn: bool,
    },
}

impl<'a> IntoIterator for &'a InsnStream {
    type Item = Insn;
    type IntoIter = Insns<'a>;

    fn into_iter(self) -> Insns<'a> {
        self.iter()
    }
}

/// Iterator reconstructing [`Insn`] values from the packed arrays.
///
/// Keeps an address cursor and a side-table cursor so each step is O(1):
/// no binary searches in the loop.
#[derive(Debug, Clone)]
pub struct Insns<'a> {
    stream: &'a InsnStream,
    i: usize,
    end: usize,
    at: AddrCursor<'a>,
    tgt: usize,
}

impl Iterator for Insns<'_> {
    type Item = Insn;

    fn next(&mut self) -> Option<Insn> {
        if self.i >= self.end {
            return None;
        }
        let s = self.stream;
        let i = self.i;
        let tag = s.tags[i];
        let target = if has_target(tag) {
            // invariant: every direct-branch tag has a dense target at
            // exactly the membership bit's rank, which the cursor tracks.
            debug_assert!(s.tgts.get(i));
            let v = s.tgt_val.get(self.tgt).copied().unwrap_or(0);
            self.tgt += 1;
            v
        } else {
            0
        };
        self.i += 1;
        Some(Insn { addr: self.at.addr(i), len: s.lens[i], kind: kind_from(tag, target) })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Insns<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<Insn>, InsnStream) {
        let insns = vec![
            Insn { addr: 0x1000, len: 4, kind: InsnKind::Endbr64 },
            Insn { addr: 0x1004, len: 1, kind: InsnKind::PushReg { reg: 13 } },
            Insn { addr: 0x1005, len: 5, kind: InsnKind::CallRel { target: 0x2000 } },
            Insn { addr: 0x100a, len: 2, kind: InsnKind::Jcc { target: 0x1000 } },
            Insn { addr: 0x100c, len: 3, kind: InsnKind::Other },
            Insn { addr: 0x100f, len: 2, kind: InsnKind::JmpInd { notrack: true } },
            Insn { addr: 0x1011, len: 1, kind: InsnKind::Ret },
        ];
        let mut s = InsnStream::new();
        s.begin_segment(0x1000);
        for &i in &insns {
            s.push(i);
        }
        (insns, s)
    }

    #[test]
    fn round_trips_every_kind() {
        let (insns, s) = sample();
        assert_eq!(s.len(), insns.len());
        assert_eq!(s.to_insns(), insns);
        for (i, &want) in insns.iter().enumerate() {
            assert_eq!(s.get(i), want, "index {i}");
            assert_eq!(s.addr_at(i), want.addr);
            assert_eq!(s.len_at(i), want.len);
            assert_eq!(s.end_at(i), want.end());
            assert_eq!(s.kind_at(i), want.kind);
        }
    }

    #[test]
    fn tag_payload_round_trip_is_total() {
        // Every InsnKind variant survives the tag encoding.
        let kinds = [
            InsnKind::Other,
            InsnKind::Endbr64,
            InsnKind::Endbr32,
            InsnKind::Ret,
            InsnKind::Leave,
            InsnKind::Nop,
            InsnKind::Int3,
            InsnKind::Ud2,
            InsnKind::Hlt,
            InsnKind::CallInd { notrack: false },
            InsnKind::CallInd { notrack: true },
            InsnKind::JmpInd { notrack: false },
            InsnKind::JmpInd { notrack: true },
            InsnKind::CallRel { target: 0xdead_beef },
            InsnKind::JmpRel { target: 1 },
            InsnKind::Jcc { target: u64::MAX },
        ];
        for kind in kinds.into_iter().chain((0..16).map(|reg| InsnKind::PushReg { reg })) {
            let (tag, t) = tag_of(kind);
            assert_eq!(kind_from(tag, t.unwrap_or(0)), kind, "{kind:?}");
        }
    }

    #[test]
    fn binary_search_accessors() {
        let (insns, s) = sample();
        assert_eq!(s.partition_point_addr(0), 0);
        assert_eq!(s.partition_point_addr(0x1005), 2);
        assert_eq!(s.partition_point_addr(0x1006), 3);
        assert_eq!(s.partition_point_addr(u64::MAX), insns.len());
        assert_eq!(s.index_of_addr(0x100a), Some(3));
        assert_eq!(s.index_of_addr(0x100b), None);
        let mid: Vec<_> = s.range(0x1004, 0x100c).collect();
        assert_eq!(mid, insns[1..4].to_vec());
        let from: Vec<_> = s.iter_from(5).collect();
        assert_eq!(from, insns[5..].to_vec());
    }

    #[test]
    fn flow_classification_covers_every_tag() {
        let insns = [
            (InsnKind::Other, Flow::Fall),
            (InsnKind::Endbr64, Flow::Fall),
            (InsnKind::Endbr32, Flow::Fall),
            (InsnKind::Nop, Flow::Fall),
            (InsnKind::Leave, Flow::Fall),
            (InsnKind::PushReg { reg: 5 }, Flow::Fall),
            (InsnKind::Ret, Flow::Ret),
            (InsnKind::Int3, Flow::Trap),
            (InsnKind::Ud2, Flow::Trap),
            (InsnKind::Hlt, Flow::Trap),
            (InsnKind::CallInd { notrack: false }, Flow::CallInd { notrack: false }),
            (InsnKind::CallInd { notrack: true }, Flow::CallInd { notrack: true }),
            (InsnKind::JmpInd { notrack: false }, Flow::JumpInd { notrack: false }),
            (InsnKind::JmpInd { notrack: true }, Flow::JumpInd { notrack: true }),
            (InsnKind::CallRel { target: 0x42 }, Flow::Call { target: 0x42 }),
            (InsnKind::JmpRel { target: 0x43 }, Flow::Jump { target: 0x43 }),
            (InsnKind::Jcc { target: 0x44 }, Flow::Branch { target: 0x44 }),
        ];
        let mut s = InsnStream::new();
        s.begin_segment(0x1000);
        for (k, (kind, _)) in insns.iter().enumerate() {
            s.push(Insn { addr: 0x1000 + 2 * k as u64, len: 2, kind: *kind });
        }
        for (k, (kind, want)) in insns.iter().enumerate() {
            assert_eq!(s.flow_at(k), *want, "{kind:?}");
        }
    }

    #[test]
    fn successors_yield_fallthrough_then_target() {
        let (insns, s) = sample();
        // Endbr64 at 0x1000: plain fallthrough.
        assert_eq!(s.successors(0).collect::<Vec<_>>(), vec![0x1004]);
        // CallRel at 0x1005: falls through only — the callee entry is
        // not an intra-procedural successor.
        assert_eq!(s.successors(2).collect::<Vec<_>>(), vec![0x100a]);
        assert_eq!(s.flow_at(2).call_target(), Some(0x2000));
        // Jcc at 0x100a: fallthrough then taken target.
        assert_eq!(s.successors(3).collect::<Vec<_>>(), vec![0x100c, 0x1000]);
        // JmpInd at 0x100f and Ret at 0x1011: no static successors.
        assert_eq!(s.successors(5).len(), 0);
        assert_eq!(s.successors(6).len(), 0);
        assert_eq!(insns.len(), 7);
    }

    #[test]
    fn flow_predicates() {
        assert!(Flow::Fall.falls_through());
        assert!(Flow::Call { target: 1 }.falls_through());
        assert!(Flow::CallInd { notrack: false }.falls_through());
        assert!(Flow::Branch { target: 1 }.falls_through());
        assert!(!Flow::Jump { target: 1 }.falls_through());
        assert!(!Flow::JumpInd { notrack: true }.falls_through());
        assert!(!Flow::Ret.falls_through());
        assert!(!Flow::Trap.falls_through());

        assert_eq!(Flow::Jump { target: 9 }.branch_target(), Some(9));
        assert_eq!(Flow::Branch { target: 9 }.branch_target(), Some(9));
        assert_eq!(Flow::Call { target: 9 }.branch_target(), None);
        assert_eq!(Flow::Call { target: 9 }.call_target(), Some(9));

        assert!(Flow::Jump { target: 1 }.ends_block());
        assert!(Flow::Branch { target: 1 }.ends_block());
        assert!(Flow::JumpInd { notrack: false }.ends_block());
        assert!(Flow::Ret.ends_block());
        assert!(Flow::Trap.ends_block());
        assert!(!Flow::Call { target: 1 }.ends_block());
        assert!(!Flow::CallInd { notrack: true }.ends_block());
        assert!(!Flow::Fall.ends_block());
    }

    #[test]
    fn push_reg_scan_finds_only_matching_registers() {
        let (_, s) = sample();
        assert_eq!(s.push_reg_indices(13).collect::<Vec<_>>(), vec![1]);
        assert!(s.push_reg_indices(5).next().is_none());
    }

    #[test]
    fn multi_segment_append_preserves_addresses() {
        let (_, a) = sample();
        let mut b = InsnStream::new();
        b.begin_segment(0x9000);
        b.push(Insn { addr: 0x9000, len: 1, kind: InsnKind::Ret });
        b.push(Insn { addr: 0x9001, len: 5, kind: InsnKind::JmpRel { target: 0x9000 } });
        let mut all = InsnStream::new();
        all.append(&a);
        all.append(&b);
        assert_eq!(all.len(), a.len() + 2);
        assert_eq!(all.addr_at(a.len()), 0x9000);
        assert_eq!(all.kind_at(a.len() + 1), InsnKind::JmpRel { target: 0x9000 });
        assert_eq!(all.index_of_addr(0x9001), Some(a.len() + 1));
        // Iteration crosses the segment boundary seamlessly.
        let got: Vec<_> = all.iter().map(|i| i.addr).collect();
        let mut want: Vec<_> = a.iter().map(|i| i.addr).collect();
        want.extend([0x9000, 0x9001]);
        assert_eq!(got, want);
    }

    #[test]
    fn push_run_matches_individual_pushes() {
        let mut bulk = InsnStream::new();
        bulk.begin_segment(0x500);
        bulk.push(Insn { addr: 0x500, len: 1, kind: InsnKind::Ret });
        bulk.push_run(0x501, 40, InsnKind::Nop);
        let mut single = InsnStream::new();
        single.begin_segment(0x500);
        single.push(Insn { addr: 0x500, len: 1, kind: InsnKind::Ret });
        for k in 0..40 {
            single.push(Insn { addr: 0x501 + k, len: 1, kind: InsnKind::Nop });
        }
        assert_eq!(bulk, single);
    }

    #[test]
    fn wrapping_base_near_u64_max() {
        let mut s = InsnStream::new();
        s.begin_segment(u64::MAX - 1);
        s.push(Insn { addr: u64::MAX - 1, len: 1, kind: InsnKind::Nop });
        s.push(Insn { addr: u64::MAX, len: 1, kind: InsnKind::Nop });
        s.push(Insn { addr: 0, len: 1, kind: InsnKind::Ret }); // wrapped
        assert_eq!(s.addr_at(2), 0);
        assert_eq!(s.get(2).kind, InsnKind::Ret);
    }

    #[test]
    fn empty_stream_is_well_behaved() {
        let s = InsnStream::new();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.partition_point_addr(123), 0);
        assert_eq!(s.index_of_addr(123), None);
        assert_eq!(s.range(0, u64::MAX).count(), 0);
        assert_eq!(s.to_insns(), Vec::new());
    }

    #[test]
    fn packed_layout_is_six_bytes_per_insn() {
        // The headline claim: 6 packed bytes per instruction (plus one
        // membership bit and its rank entries) vs 32 for the value type.
        assert_eq!(std::mem::size_of::<Insn>(), 32);
        let mut s = InsnStream::new();
        s.begin_segment(0);
        for k in 0..1000u64 {
            s.push(Insn { addr: k, len: 1, kind: InsnKind::Other });
        }
        // 6 B/insn arrays + 1000-bit membership bitmap (15 complete
        // words + 2 rank entries = 128 B; the partial tail word is
        // buffered inline) + one 16 B segment.
        assert_eq!(s.packed_bytes(), 1000 * 6 + 128 + 16);
    }

    #[test]
    fn sealed_lookups_match_binary_search() {
        let (_, a) = sample();
        let mut b = InsnStream::new();
        b.begin_segment(0x9000);
        b.push(Insn { addr: 0x9000, len: 1, kind: InsnKind::Ret });
        b.push(Insn { addr: 0x9001, len: 5, kind: InsnKind::JmpRel { target: 0x9000 } });
        let mut all = InsnStream::new();
        all.append(&a);
        all.append(&b);
        let unsealed = all.clone();
        all.seal();
        assert!(all.is_sealed());
        assert!(!unsealed.is_sealed(), "a clone taken before sealing has no index");
        assert_eq!(all, unsealed, "sealing must not change logical content");
        // Probe every interesting address: each instruction start, one
        // byte either side, segment edges, and far outside. The oracle is
        // the binary search the rank queries replace.
        let mut probes: Vec<u64> = (0..unsealed.len())
            .flat_map(|i| {
                let a = unsealed.addr_at(i);
                [a.wrapping_sub(1), a, a + 1]
            })
            .collect();
        probes.extend([0, 0xfff, 0x1013, 0x8fff, 0x9007, u64::MAX]);
        for addr in probes {
            let want = unsealed.search_addr(addr);
            assert_eq!(all.partition_point_addr(addr), want, "partition_point_addr({addr:#x})");
            assert_eq!(
                all.index_of_addr(addr),
                (want < all.len() && all.addr_at(want) == addr).then_some(want),
                "index_of_addr({addr:#x})"
            );
        }
        let sealed_range: Vec<_> = all.range(0x1004, 0x9001).collect();
        let plain_range: Vec<_> =
            unsealed.iter().filter(|i| (0x1004..0x9001).contains(&i.addr)).collect();
        assert_eq!(sealed_range, plain_range);
    }

    #[test]
    fn first_probe_builds_the_index() {
        let (_, s) = sample();
        assert!(!s.is_sealed(), "building a stream builds no index");
        assert_eq!(s.index_of_addr(s.addr_at(3)), Some(3));
        assert!(s.is_sealed(), "the first probe seals");
        let mut t = s.clone();
        assert!(t.is_sealed(), "a clone keeps the built index");
        t.push(Insn { addr: 0x1012, len: 1, kind: InsnKind::Nop });
        assert!(!t.is_sealed(), "mutation resets the index");
        assert_eq!(t.partition_point_addr(0x1012), 7);
        assert!(t.is_sealed());
    }

    #[test]
    fn concurrent_first_probes_agree() {
        // Two threads race to build the index of one shared, unsealed
        // stream (a barrier releases both at once); both must answer
        // every probe like the binary search.
        let (_, s) = sample();
        assert!(!s.is_sealed());
        let probes: Vec<u64> = (0x0ff0..0x1020).collect();
        let start = std::sync::Barrier::new(2);
        let answers: Vec<Vec<(usize, Option<usize>)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        probes
                            .iter()
                            .map(|&a| (s.partition_point_addr(a), s.index_of_addr(a)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(s.is_sealed());
        assert_eq!(answers[0], answers[1]);
        for (&addr, &(partition, index)) in probes.iter().zip(&answers[0]) {
            assert_eq!(partition, s.search_addr(addr), "partition_point_addr({addr:#x})");
            let want = (partition < s.len() && s.addr_at(partition) == addr).then_some(partition);
            assert_eq!(index, want, "index_of_addr({addr:#x})");
        }
    }

    #[test]
    fn mutation_after_seal_falls_back_to_binary_search() {
        let (_, mut s) = sample();
        s.seal();
        assert!(s.is_sealed());
        s.push(Insn { addr: 0x1012, len: 1, kind: InsnKind::Nop });
        assert!(!s.is_sealed());
        assert_eq!(s.index_of_addr(0x1012), Some(7));
        s.seal();
        assert!(s.is_sealed());
        assert_eq!(s.index_of_addr(0x1012), Some(7));
    }

    #[test]
    fn seal_refuses_wrapping_and_sparse_streams() {
        // A segment ending exactly at u64::MAX is fine...
        let mut w = InsnStream::new();
        w.begin_segment(u64::MAX - 1);
        w.push(Insn { addr: u64::MAX - 1, len: 1, kind: InsnKind::Nop });
        w.push(Insn { addr: u64::MAX, len: 1, kind: InsnKind::Nop });
        w.seal();
        assert!(w.is_sealed());
        assert_eq!(w.index_of_addr(u64::MAX), Some(1));
        // ...but one whose max offset carries past u64::MAX must refuse.
        let mut w = InsnStream::new();
        w.begin_segment(u64::MAX - 1);
        w.push_at(0, 1, TAG_NOP, 0);
        w.push_at(2, 1, TAG_NOP, 0);
        w.seal();
        assert!(!w.is_sealed());
        assert_eq!(w.addr_at(0), u64::MAX - 1); // lookups still work unsealed
                                                // Sparse segment: two instructions a megabyte apart.
        let mut sp = InsnStream::new();
        sp.begin_segment(0x1000);
        sp.push(Insn { addr: 0x1000, len: 1, kind: InsnKind::Ret });
        sp.push(Insn { addr: 0x10_0000, len: 1, kind: InsnKind::Ret });
        sp.seal();
        assert!(!sp.is_sealed());
        assert_eq!(sp.index_of_addr(0x10_0000), Some(1));
    }
}
