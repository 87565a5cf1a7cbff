//! Evidence-only sweep: Algorithm 1's DISASSEMBLE without the stream.
//!
//! Line 3 of Algorithm 1 needs three sets from the linear sweep: the
//! end-branches `E`, the direct call targets `C` and the direct jumps
//! `J` with their sites. [`EvidenceSink`] is the sweep sink that keeps
//! exactly those (plus the call sites FILTERENDBR reads) and drops every
//! other instruction after counting it, so the default analysis path
//! never writes the ~6 bytes per instruction of the packed
//! [`crate::InsnStream`], nor copies them again in the stitch.
//!
//! A speculative shard also records a one-bit-per-byte instruction-start
//! bitmap: the stitch tests the true chain's offset against it where the
//! stream sweep binary-searches its offsets, then keeps the shard's
//! evidence at or after that offset (one `partition_point` per list).
//!
//! The lists' buffers are recycled per thread, as the stream's are:
//! [`recycle_evidence`] takes back a retired set and the next sweep on
//! the thread fills it, so a warm process does not refault them.

use crate::insn::InsnKind;
use crate::par::{Batch, Sink};
use crate::stats::SweepStats;
use crate::stream::{TAG_CALL_REL, TAG_ENDBR32, TAG_ENDBR64, TAG_JMP_REL};

/// What Algorithm 1 reads from one region's linear sweep, in sweep
/// order — the output of [`crate::sweep_evidence`].
///
/// Equal, list for list, to filtering [`crate::sweep_all`]'s stream by
/// kind (`proptest_evidence.rs` checks it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepEvidence {
    /// Addresses of the `ENDBR64`/`ENDBR32` instructions.
    pub endbrs: Vec<u64>,
    /// Every direct `CALL rel` as `(address after the call, target)`.
    pub call_sites: Vec<(u64, u64)>,
    /// Every direct `JMP rel` as `(site, target)`; `Jcc` is not here.
    pub jmp_edges: Vec<(u64, u64)>,
    /// Byte positions skipped by the §IV-B "advance one byte" repair rule.
    pub error_count: usize,
    /// The same counters the stream sweep reports for the same bytes.
    pub stats: SweepStats,
}

/// Whether `tag` is one of Algorithm 1's evidence kinds: an end-branch,
/// a direct `CALL` or a direct `JMP`. Branchless: tags are below 32.
#[inline]
fn is_evidence(tag: u8) -> bool {
    const EVIDENCE: u32 =
        1 << TAG_ENDBR64 | 1 << TAG_ENDBR32 | 1 << TAG_CALL_REL | 1 << TAG_JMP_REL;
    EVIDENCE >> (tag & 31) & 1 == 1
}

/// Retired evidence lists kept for the next sweep on this thread.
#[derive(Default)]
struct Lists {
    endbrs: Vec<u64>,
    call_sites: Vec<(u64, u64)>,
    jmp_edges: Vec<(u64, u64)>,
}

thread_local! {
    /// One spare set per thread, biggest-capacity-wins. Fresh lists of a
    /// few hundred KiB come from fresh pages on every sweep (the
    /// allocator returns them on free), which costs a large image's
    /// evidence sweep some hundred page faults.
    static SPARE: std::cell::Cell<Option<Box<Lists>>> = const { std::cell::Cell::new(None) };
}

/// Hands a retired set of evidence lists (a [`SweepEvidence`]'s, or an
/// index built from one) back for reuse by the next evidence sweep on
/// this thread. The lists are cleared; a set smaller than the current
/// spare is dropped.
pub fn recycle_evidence(
    mut endbrs: Vec<u64>,
    mut call_sites: Vec<(u64, u64)>,
    mut jmp_edges: Vec<(u64, u64)>,
) {
    endbrs.clear();
    call_sites.clear();
    jmp_edges.clear();
    let lists = Box::new(Lists { endbrs, call_sites, jmp_edges });
    // `try_with`: an index dropped while the thread's locals are torn
    // down just frees its lists.
    let _ = SPARE.try_with(|s| {
        let keep = match s.take() {
            Some(cur) if cur.call_sites.capacity() >= lists.call_sites.capacity() => cur,
            _ => lists,
        };
        s.set(Some(keep));
    });
}

/// The thread's spare lists, or empty ones.
fn spare_lists() -> Lists {
    SPARE.with(std::cell::Cell::take).map_or_else(Lists::default, |b| *b)
}

/// The evidence sink. Addresses are `base + offset` modulo 2^64, like
/// [`crate::Insn`]'s; the stitch recovers offsets with a wrapping
/// subtraction, which is monotone within one region.
pub(crate) struct EvidenceSink {
    base: u64,
    /// First offset of the chain's shard; bit `i` of `starts` is offset
    /// `lo + i`.
    lo: usize,
    /// Instruction-start bitmap of a speculative shard; empty otherwise.
    starts: Vec<u64>,
    insns: usize,
    endbrs: Vec<u64>,
    call_sites: Vec<(u64, u64)>,
    jmp_edges: Vec<(u64, u64)>,
}

impl EvidenceSink {
    pub(crate) fn finish(self, error_count: usize, stats: SweepStats) -> SweepEvidence {
        let EvidenceSink { endbrs, call_sites, jmp_edges, .. } = self;
        SweepEvidence { endbrs, call_sites, jmp_edges, error_count, stats }
    }

    /// Records instruction starts at `off..off + n` (speculative shards
    /// only).
    #[inline]
    fn mark(&mut self, off: usize, n: usize) {
        if self.starts.is_empty() {
            return;
        }
        let (mut i, end) = (off - self.lo, off - self.lo + n);
        while i < end {
            let take = (64 - (i & 63)).min(end - i);
            self.starts[i >> 6] |= (u64::MAX >> (64 - take)) << (i & 63);
            i += take;
        }
    }

    /// Appends `shard`'s evidence at or after `off`, where `off` starts
    /// an instruction of `shard`'s chain.
    pub(crate) fn splice_lists(&mut self, shard: &Self, off: usize) {
        // No call of that chain straddles `off`, so "site >= off" is
        // "end > off".
        let rel = |a: u64| a.wrapping_sub(shard.base) as usize;
        let e = shard.endbrs.partition_point(|&a| rel(a) < off);
        let c = shard.call_sites.partition_point(|&(end, _)| rel(end) <= off);
        let j = shard.jmp_edges.partition_point(|&(site, _)| rel(site) < off);
        self.endbrs.extend_from_slice(&shard.endbrs[e..]);
        self.call_sites.extend_from_slice(&shard.call_sites[c..]);
        self.jmp_edges.extend_from_slice(&shard.jmp_edges[j..]);
    }

    /// Instruction starts of this chain below `off`.
    fn starts_below(&self, off: usize) -> usize {
        let i = off - self.lo;
        let whole: usize = self.starts[..i >> 6].iter().map(|w| w.count_ones() as usize).sum();
        let part = if i & 63 == 0 { 0 } else { self.starts[i >> 6] & ((1 << (i & 63)) - 1) };
        whole + part.count_ones() as usize
    }
}

impl Sink for EvidenceSink {
    fn chain(base: u64, lo: usize, hi: usize, resync: bool) -> Self {
        let words = if resync { (hi - lo).div_ceil(64) } else { 0 };
        let Lists { endbrs, call_sites, jmp_edges } = spare_lists();
        EvidenceSink { base, lo, starts: vec![0; words], insns: 0, endbrs, call_sites, jmp_edges }
    }

    fn stitched<'s>(base: u64, shards: impl Iterator<Item = &'s Self> + Clone) -> Self {
        let sum = |f: fn(&EvidenceSink) -> usize| shards.clone().map(f).sum();
        let Lists { mut endbrs, mut call_sites, mut jmp_edges } = spare_lists();
        endbrs.reserve(sum(|s| s.endbrs.len()));
        call_sites.reserve(sum(|s| s.call_sites.len()));
        jmp_edges.reserve(sum(|s| s.jmp_edges.len()));
        EvidenceSink { base, lo: 0, starts: Vec::new(), insns: 0, endbrs, call_sites, jmp_edges }
    }

    #[inline]
    fn len(&self) -> usize {
        self.insns
    }

    // Out of line: it runs once per up to 64 instructions, and keeping
    // it out of the decoder loop keeps that loop's body small.
    #[inline(never)]
    fn batch(&mut self, b: Batch<'_>) {
        self.insns += b.offs.len();
        if !self.starts.is_empty() {
            // Gather each bitmap word's bits in a register: one store per
            // word touched instead of a read-modify-write per instruction.
            let (mut word, mut bits) = (usize::MAX, 0u64);
            for &o in b.offs {
                let i = o as usize - self.lo;
                if i >> 6 != word {
                    if word != usize::MAX {
                        self.starts[word] |= bits;
                    }
                    (word, bits) = (i >> 6, 0);
                }
                bits |= 1 << (i & 63);
            }
            if word != usize::MAX {
                self.starts[word] |= bits;
            }
        }
        // The evidence slots, picked out of the tag column here so the
        // shared decoder loop does no per-instruction work for them.
        let mut ebits = 0u64;
        for (k, &tag) in b.tags.iter().enumerate() {
            ebits |= u64::from(is_evidence(tag)) << k;
        }
        // End-branches: evidence that carries no target.
        let mut endbrs = ebits & !b.tbits;
        while endbrs != 0 {
            let k = endbrs.trailing_zeros() as usize;
            endbrs &= endbrs - 1;
            self.endbrs.push(self.base.wrapping_add(u64::from(b.offs[k])));
        }
        // Direct calls and jumps; a branch's target is its rank among
        // the batch's branches (`Jcc`s carry a target but no evidence).
        let mut branches = ebits & b.tbits;
        while branches != 0 {
            let k = branches.trailing_zeros() as usize;
            branches &= branches - 1;
            let target = b.targets[(b.tbits & ((1 << k) - 1)).count_ones() as usize];
            let site = self.base.wrapping_add(u64::from(b.offs[k]));
            // One push into a selected list, instead of a branch per kind.
            let (list, edge) = if b.tags[k] == TAG_CALL_REL {
                (&mut self.call_sites, (site.wrapping_add(u64::from(b.lens[k])), target))
            } else {
                (&mut self.jmp_edges, (site, target))
            };
            list.push(edge);
        }
    }

    #[inline]
    fn run(&mut self, off: usize, n: usize, _kind: InsnKind) {
        self.insns += n;
        self.mark(off, n);
    }

    fn one(&mut self, off: usize, len: u8, tag: u8, target: u64) {
        self.insns += 1;
        self.mark(off, 1);
        let site = self.base.wrapping_add(off as u64);
        match tag {
            TAG_ENDBR64 | TAG_ENDBR32 => self.endbrs.push(site),
            TAG_CALL_REL => self.call_sites.push((site.wrapping_add(u64::from(len)), target)),
            TAG_JMP_REL => self.jmp_edges.push((site, target)),
            _ => {}
        }
    }

    fn starts_at(&self, off: usize) -> bool {
        let i = off - self.lo;
        self.starts[i >> 6] >> (i & 63) & 1 == 1
    }

    fn splice_from(&mut self, shard: &Self, off: usize) {
        self.splice_lists(shard, off);
        self.insns += shard.insns - shard.starts_below(off);
    }
}
