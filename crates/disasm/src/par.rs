//! Sharded parallel linear sweep, bit-identical to [`LinearSweep`](crate::LinearSweep).
//!
//! Linear sweep (§IV-B of the paper) is a deterministic chain: the offset
//! after decoding at `o` depends only on the bytes at `o` (instruction
//! length on success, `o + 1` on a decode error). That makes the sweep
//! parallelizable *without* changing its output: split the section into
//! `N` byte-range shards, decode each shard speculatively from its nominal
//! start, then stitch the shards back together by **resynchronizing** —
//! walking the true chain forward from the previous shard's exit offset
//! until it lands on an offset the speculative shard also decoded at,
//! after which the shard's remaining chain is provably identical to the
//! sequential one and can be spliced wholesale.
//!
//! Self-repairing disassembly resynchronizes quickly in practice (a
//! handful of instructions), so the serial stitching work is tiny compared
//! to the per-shard decoding it replaces. Sharding is **morsel-driven
//! and adaptive**: above the [`PAR_MIN_BYTES`] work threshold the
//! region splits into ~`MORSEL_BYTES` (256 KiB) cache-friendly morsels — at
//! least one per pool worker — that the work-stealing pool drains
//! oldest-first, so a decode-heavy morsel occupies one worker while the
//! rest rebalance; below the threshold, or on a one-worker pool, the
//! speculative + stitch overhead loses to the plain sequential loop and
//! [`adaptive_shards`] picks one shard. [`sweep_sharded`] (the stream)
//! and [`sweep_evidence`] (only Algorithm 1's evidence) take that shard
//! count, or any exact count a test or bench wants, and a pool.
//!
//! Both the sequential and sharded paths, in both products, run the
//! same inner loop ([`sweep_range`], generic over its sink), which
//! layers the [`crate::kernels`] shortcuts over the full decoder:
//!
//! * a **padding run-skipper** ([`kernels::pad_run_end`]) that
//!   bulk-appends runs of `0x90`/`0xCC` bytes — a byte equal to
//!   `90`/`CC` at the start of an instruction always decodes to a
//!   one-byte `NOP`/`INT3` regardless of what follows, so a run of `n`
//!   such bytes is `n` one-byte instructions and can skip the decoder
//!   entirely (inter-function padding makes these runs common and long);
//! * an **8-byte-window fast decoder**
//!   ([`crate::decode`]'s `decode_fast_win`) that decodes the
//!   table-dispatch fast path as a pure function of one unaligned `u64`
//!   load — the same load serves the pad check, so the serial
//!   `off -> bytes -> len -> off` chain carries exactly one load per
//!   instruction — valid whenever 16 lookahead bytes exist; a careful
//!   byte-at-a-time tail loop finishes the last bytes with the same
//!   decoder on a zero-padded window (`decode_fast_slice`, the path
//!   [`crate::decode`] takes);
//! * **batched emission**: decoded instructions accumulate in a
//!   64-slot column scratch (offsets, lengths, tags — mirroring the
//!   stream's own layout, plus a bitmap of the branch slots) and flush
//!   to the sink: the stream sink appends them via
//!   `InsnStream::push_packed` as three memcpy-backed extends plus one
//!   bitmap word append; the evidence sink picks its slots out of the
//!   tag column.
//!
//! The stream sink's results land in a packed [`InsnStream`] (6 bytes
//! per instruction) instead of a `Vec<Insn>` (32); the evidence sink
//! (see [`crate::SweepEvidence`]) keeps a few percent of that and
//! resynchronizes on a start bitmap; [`sweep_with_evidence`] fills both
//! in one pass for callers that will read the stream anyway. Shards run
//! on the persistent
//! [`funseeker_pool`] worker pool rather than per-call spawned threads.

use std::time::Instant;

use crate::decode::{decode, decode_fast_slice, decode_fast_win, decode_full};
use crate::evidence::{EvidenceSink, SweepEvidence};
use crate::insn::{Insn, InsnKind};
use crate::kernels::{self, KernelTier};
use crate::mode::Mode;
use crate::stats::SweepStats;
use crate::stream::{has_target, tag_of, InsnStream};

/// The result of sweeping one code region: the decoded instruction chain
/// plus how many byte positions failed to decode.
#[derive(Debug, Clone, Default)]
pub struct SweepOutput {
    /// Instructions in address order, exactly as [`LinearSweep`](crate::LinearSweep) yields
    /// them, in packed form.
    pub stream: InsnStream,
    /// Byte positions skipped by the §IV-B "advance one byte" repair rule.
    pub error_count: usize,
    /// Where the time and the decode work went.
    pub stats: SweepStats,
}

impl SweepOutput {
    /// The stream as legacy [`Insn`] values (tests and debugging; hot
    /// paths iterate or index [`SweepOutput::stream`] directly).
    pub fn to_insns(&self) -> Vec<Insn> {
        self.stream.to_insns()
    }
}

/// Where [`sweep_range`] puts the instructions it decodes: the packed
/// stream ([`InsnStream`], behind [`SweepOutput`]) or only Algorithm 1's
/// evidence ([`SweepEvidence`]). Offsets are into the region's `code`.
pub(crate) trait Sink: Send + Sized {
    /// An empty sink for one chain over `code[lo..hi]` of a region based
    /// at `base`. `resync` marks a speculative shard (any but the
    /// first): the stitch will ask [`Sink::starts_at`] about it.
    fn chain(base: u64, lo: usize, hi: usize, resync: bool) -> Self;
    /// An empty sink sized to receive the spliced tails of `shards`.
    fn stitched<'s>(base: u64, shards: impl Iterator<Item = &'s Self> + Clone) -> Self
    where
        Self: 's;
    /// Instructions received so far.
    fn len(&self) -> usize;
    /// Up to 64 instructions in packed column form.
    fn batch(&mut self, batch: Batch<'_>);
    /// A run of `n` one-byte `NOP`/`INT3` pads starting at `off`.
    fn run(&mut self, off: usize, n: usize, kind: InsnKind);
    /// One instruction; `target` counts only when the tag carries one.
    fn one(&mut self, off: usize, len: u8, tag: u8, target: u64);
    /// Whether this (speculative) chain decoded an instruction at `off`.
    fn starts_at(&self, off: usize) -> bool;
    /// Appends what `shard` holds at or after `off`, where
    /// `shard.starts_at(off)`.
    fn splice_from(&mut self, shard: &Self, off: usize);
}

/// One flush of [`sweep_range`]'s decoded-instruction scratch: up to 64
/// instructions in the stream's column layout.
#[derive(Clone, Copy)]
pub(crate) struct Batch<'s> {
    pub(crate) offs: &'s [u32],
    pub(crate) lens: &'s [u8],
    pub(crate) tags: &'s [u8],
    /// Bit `k`: instruction `k` is a direct branch whose target is the
    /// next value of `targets`.
    pub(crate) tbits: u64,
    /// The direct-branch targets, dense, in batch order.
    pub(crate) targets: &'s [u64],
}

/// The stream sink: the packed [`InsnStream`] of every instruction.
struct StreamSink {
    stream: InsnStream,
    base: u64,
}

impl Sink for StreamSink {
    fn chain(base: u64, lo: usize, hi: usize, _resync: bool) -> Self {
        // The chain's stream is a single segment based at the *region*
        // base, so its packed offsets are exactly the `code` offsets the
        // instructions were decoded at — which is what the stitch
        // binary-searches.
        let mut stream = InsnStream::with_byte_capacity(hi - lo);
        stream.begin_segment(base);
        StreamSink { stream, base }
    }

    fn stitched<'s>(base: u64, shards: impl Iterator<Item = &'s Self> + Clone) -> Self {
        let mut stream = InsnStream::new();
        stream.begin_segment(base);
        stream.reserve(shards.map(|s| s.stream.len()).sum());
        StreamSink { stream, base }
    }

    #[inline]
    fn len(&self) -> usize {
        self.stream.len()
    }

    #[inline]
    fn batch(&mut self, b: Batch<'_>) {
        self.stream.push_packed(b.offs, b.lens, b.tags, b.tbits, b.targets);
    }

    #[inline]
    fn run(&mut self, off: usize, n: usize, kind: InsnKind) {
        self.stream.push_run(self.base.wrapping_add(off as u64), n, kind);
    }

    #[inline]
    fn one(&mut self, off: usize, len: u8, tag: u8, target: u64) {
        self.stream.push_parts(self.base.wrapping_add(off as u64), len, tag, target);
    }

    fn starts_at(&self, off: usize) -> bool {
        self.stream.search_off(off as u32).is_ok()
    }

    fn splice_from(&mut self, shard: &Self, off: usize) {
        let i = shard.stream.search_off(off as u32).unwrap_or_else(|i| i);
        self.stream.splice_tail(&shard.stream, i);
    }
}

/// Both products of one pass: the stream, and the evidence picked out
/// of the same batches. The stream resynchronizes the stitch, so the
/// evidence half keeps no start bitmap.
struct BothSink {
    stream: StreamSink,
    evidence: EvidenceSink,
}

impl Sink for BothSink {
    fn chain(base: u64, lo: usize, hi: usize, resync: bool) -> Self {
        BothSink {
            stream: StreamSink::chain(base, lo, hi, resync),
            evidence: EvidenceSink::chain(base, lo, hi, false),
        }
    }

    fn stitched<'s>(base: u64, shards: impl Iterator<Item = &'s Self> + Clone) -> Self {
        BothSink {
            stream: StreamSink::stitched(base, shards.clone().map(|s| &s.stream)),
            evidence: EvidenceSink::stitched(base, shards.map(|s| &s.evidence)),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.stream.len()
    }

    #[inline]
    fn batch(&mut self, b: Batch<'_>) {
        self.stream.batch(b);
        self.evidence.batch(b);
    }

    #[inline]
    fn run(&mut self, off: usize, n: usize, kind: InsnKind) {
        self.stream.run(off, n, kind);
        self.evidence.run(off, n, kind);
    }

    #[inline]
    fn one(&mut self, off: usize, len: u8, tag: u8, target: u64) {
        self.stream.one(off, len, tag, target);
        self.evidence.one(off, len, tag, target);
    }

    fn starts_at(&self, off: usize) -> bool {
        self.stream.starts_at(off)
    }

    fn splice_from(&mut self, shard: &Self, off: usize) {
        self.stream.splice_from(&shard.stream, off);
        self.evidence.splice_lists(&shard.evidence, off);
    }
}

/// Shared inner loop of the sequential sweep and of each speculative
/// shard: the windowed hot loop while 16 lookahead bytes exist, then
/// the careful byte-at-a-time loop for the tail. Returns the exit
/// offset (first chain offset at or past `hi`). Generic over the sink,
/// so the stream and the evidence sweeps run one decoder loop.
///
/// Equivalence to driving [`crate::decode`] one instruction at a time:
/// a pad run only covers bytes (`90`/`CC`) whose decode is independent
/// of their suffix, and both loops run the one fast decoder,
/// `decode_fast_win`, which declines or equals `decode_full` whenever
/// its length fits (checked at every truncation length in
/// `decode::tests`). The hot loop's 16 lookahead bytes make every
/// length fit; the tail reaches it through `decode_fast_slice`, the
/// same path [`crate::decode`] takes.
#[allow(clippy::too_many_arguments)]
fn sweep_range<S: Sink>(
    code: &[u8],
    base: u64,
    mode: Mode,
    lo: usize,
    hi: usize,
    tier: KernelTier,
    sink: &mut S,
    mut on_error: impl FnMut(usize),
    stats: &mut SweepStats,
) -> usize {
    let mut off = lo;

    // Hot windowed loop. Requires 16 lookahead bytes for the window
    // decoder and u32-representable offsets for the packed batch (larger
    // regions run the tail loop for everything, matching the old path).
    let hot_end = if code.len() >= 16 && code.len() <= u32::MAX as usize {
        hi.min(code.len() - 15)
    } else {
        lo
    };
    let len0 = sink.len();
    let runs0 = stats.run_insns;
    let mut slow_ok = 0u64;
    // Decoded-instruction scratch: three column arrays mirroring the
    // stream's SoA layout, so a stream flush is three memcpy-backed
    // `extend_from_slice`s (see `InsnStream::push_packed`). `tbits`
    // marks the scratch slots carrying a branch target; the targets
    // themselves sit dense in `tv[..tn]`.
    let mut so = [0u32; 64];
    let mut sl = [0u8; 64];
    let mut st = [0u8; 64];
    let mut tv = [0u64; 64];
    let mut tbits = 0u64;
    let (mut pn, mut tn) = (0usize, 0usize);
    macro_rules! batch {
        () => {
            Batch { offs: &so[..pn], lens: &sl[..pn], tags: &st[..pn], tbits, targets: &tv[..tn] }
        };
    }
    macro_rules! flush {
        () => {
            sink.batch(batch!());
            (pn, tn, tbits) = (0, 0, 0);
        };
    }
    while off < hot_end {
        // One unaligned load serves both the pad check (low byte) and
        // the window decoder — the per-instruction serial chain
        // `off -> load -> len -> off` has exactly one load on it.
        // `off < hot_end <= code.len() - 15` keeps the read in bounds.
        let win = u64::from_le_bytes(code[off..off + 8].try_into().expect("8-byte window"));
        let b = win as u8;
        if b == 0x90 || b == 0xCC {
            flush!();
            let end = kernels::pad_run_end(code, off, hi, b, tier);
            let n = end - off;
            let kind = if b == 0x90 { InsnKind::Nop } else { InsnKind::Int3 };
            sink.run(off, n, kind);
            stats.run_insns += n as u64;
            off = end;
            continue;
        }
        let addr = base.wrapping_add(off as u64);
        if let Some((len, tag, target)) = decode_fast_win(win, addr, mode) {
            so[pn] = off as u32;
            sl[pn] = len;
            st[pn] = tag;
            // Branchless target accept: store unconditionally, advance
            // the cursor only when the tag actually carries one (the
            // branch pattern of real code mispredicts too often).
            let h = usize::from(has_target(tag));
            tv[tn & 63] = target;
            tn += h;
            tbits |= (h as u64) << pn;
            pn += 1;
            if pn == so.len() {
                flush!();
            }
            off += len as usize;
            continue;
        }
        flush!();
        stats.slow_decodes += 1;
        match decode_full(&code[off..], addr, mode) {
            Ok(insn) => {
                let (tag, target) = tag_of(insn.kind);
                sink.one(off, insn.len, tag, target.unwrap_or(0));
                off += insn.len as usize;
                slow_ok += 1;
            }
            Err(_) => {
                on_error(off);
                off += 1;
            }
        }
    }
    sink.batch(batch!());
    // Fast hits of the hot loop, reconciled in one subtraction instead
    // of a per-instruction counter bump: everything received that was
    // neither a run instruction nor a full-decoder success.
    stats.fast_hits += (sink.len() - len0) as u64 - (stats.run_insns - runs0) - slow_ok;

    // Careful tail: the original byte-at-a-time loop, bit-identical to
    // the hot loop where their domains overlap.
    while off < hi {
        let b = code[off];
        if b == 0x90 || b == 0xCC {
            let mut end = off + 1;
            while end < hi && code[end] == b {
                end += 1;
            }
            let n = end - off;
            if n > 1 {
                let kind = if b == 0x90 { InsnKind::Nop } else { InsnKind::Int3 };
                sink.run(off, n, kind);
                stats.run_insns += n as u64;
                off = end;
                continue;
            }
            // A lone pad byte: the dispatch table below handles it.
        }
        let addr = base.wrapping_add(off as u64);
        if let Some((len, tag, target)) = decode_fast_slice(&code[off..], addr, mode) {
            stats.fast_hits += 1;
            sink.one(off, len, tag, target);
            off += len as usize;
            continue;
        }
        stats.slow_decodes += 1;
        match decode_full(&code[off..], addr, mode) {
            Ok(insn) => {
                let (tag, target) = tag_of(insn.kind);
                sink.one(off, insn.len, tag, target.unwrap_or(0));
                off += insn.len as usize;
            }
            Err(_) => {
                on_error(off);
                off += 1;
            }
        }
    }
    off
}

/// Sequential sweep of a whole region, collected, using the process-wide
/// [`KernelTier::active`] kernels.
///
/// The single entry point non-parallel callers should use instead of
/// driving [`LinearSweep`](crate::LinearSweep) by hand; [`par_sweep`] is
/// the parallel equivalent.
pub fn sweep_all(code: &[u8], base: u64, mode: Mode) -> SweepOutput {
    let (sink, error_count, stats) =
        sequential::<StreamSink>(code, base, mode, KernelTier::active());
    SweepOutput { stream: sink.stream, error_count, stats }
}

/// One chain over the whole region: no speculation, no stitch.
fn sequential<S: Sink>(
    code: &[u8],
    base: u64,
    mode: Mode,
    tier: KernelTier,
) -> (S, usize, SweepStats) {
    let t0 = Instant::now();
    let mut sink = S::chain(base, 0, code.len(), false);
    let mut stats = SweepStats { bytes: code.len() as u64, shards: 1, ..SweepStats::default() };
    let mut error_count = 0usize;
    sweep_range(code, base, mode, 0, code.len(), tier, &mut sink, |_| error_count += 1, &mut stats);
    stats.decode_ns = t0.elapsed().as_nanos() as u64;
    stats.insns = sink.len() as u64;
    stats.decode_errors = error_count as u64;
    (sink, error_count, stats)
}

/// Below this size sharding costs more than it saves.
const MIN_SHARD_BYTES: usize = 4096;

/// Nominal morsel size for the adaptive parallel sweep.
///
/// Morsels are the unit of distribution: small enough that a region
/// splits into several times more pieces than workers (so the
/// oldest-task-first stealing in [`funseeker_pool`] load-balances even
/// when one morsel hits a decode-error-dense stretch and runs long),
/// large enough that each morsel's speculative resync overhead — a
/// handful of instructions — is noise, and sized to sit comfortably
/// inside a per-core L2 so the decode loop streams from cache.
const MORSEL_BYTES: usize = 256 * 1024;

/// Below this many bytes no parallel path dispatches — neither the
/// morsel sweep nor parallel `prepare` fan-out. Measured on the 4 MiB
/// tiled-text bench host: forcing two shards on a 64 KiB region costs
/// ~6% in speculation waste + stitch + pool handoff, which two cores
/// win back, but below this the fixed handoff dominates and parallel
/// dispatch loses on any width.
pub const PAR_MIN_BYTES: usize = 64 * 1024;

/// One chain of a sharded sweep: a speculative shard, decoded from its
/// nominal start.
struct Chain<S> {
    /// What the shard decoded.
    sink: S,
    /// Offsets at which decoding failed, sorted.
    errors: Vec<u32>,
    /// First chain offset at or past the shard's end boundary.
    exit: usize,
    /// This shard's decode-work counters.
    stats: SweepStats,
}

/// Adaptive, morsel-driven parallel linear sweep on the [`global`
/// pool](funseeker_pool::global).
///
/// Produces output **bit-identical** to `sweep_all(code, base, mode)` for
/// every input (see the module docs for why; `proptest_par_sweep.rs`
/// checks it on random byte soups and corpus-generated code). `shards`
/// is an upper bound on the parallel width (benches use it to emulate
/// narrower pools); the shard count comes from [`adaptive_shards`], so
/// a one-worker pool or a region below [`PAR_MIN_BYTES`] sweeps
/// sequentially. [`sweep_sharded`] takes an exact shard count instead.
pub fn par_sweep(code: &[u8], base: u64, mode: Mode, shards: usize) -> SweepOutput {
    let pool = funseeker_pool::global();
    let width = pool.workers().min(shards.max(1));
    sweep_sharded(pool, code, base, mode, adaptive_shards(code.len(), width))
}

/// How many shards the adaptive sweep splits a `len`-byte region into
/// on a `width`-worker pool: one (sequential) when the width is one
/// worker or the region is below [`PAR_MIN_BYTES`]; otherwise one
/// morsel per 256 KiB (so stealing can balance), at least one
/// per worker (so no worker idles on mid-size regions), and never so
/// many that a morsel drops below 4 KiB (where resync
/// overhead stops amortizing).
pub fn adaptive_shards(len: usize, width: usize) -> usize {
    if width <= 1 || len < PAR_MIN_BYTES {
        return 1;
    }
    len.div_ceil(MORSEL_BYTES).max(width).min(len / MIN_SHARD_BYTES)
}

/// The kernel tier every sweep dispatched through `pool` decodes
/// with, resolved once per pool: the first sweep publishes
/// [`KernelTier::active`] (the CPUID probe clamped by
/// `FUNSEEKER_KERNEL_TIER`) into the pool's one-byte probe cache, and
/// every later sweep on that pool reads the cached byte. First writer
/// wins, so all shards of all sweeps sharing a pool decode with one
/// tier — a mid-run environment change can never split a stitch across
/// kernel implementations. Tests pin a tier by seeding the cache.
fn pool_tier(pool: &funseeker_pool::Pool) -> KernelTier {
    use std::sync::atomic::Ordering;
    let cache = pool.probe_cache();
    match cache.load(Ordering::Relaxed) {
        u8::MAX => {
            let probed = KernelTier::active() as u8;
            match cache.compare_exchange(u8::MAX, probed, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => KernelTier::from_u8(probed),
                Err(raced) => KernelTier::from_u8(raced),
            }
        }
        v => KernelTier::from_u8(v),
    }
}

/// Linear sweep of `code` in exactly `shards` byte-range shards on
/// `pool`, bit-identical to [`sweep_all`] for every shard count.
///
/// One shard is the sequential loop; more are decoded speculatively on
/// the pool and stitched, even on a one-worker pool or a tiny region
/// (which is what the stitch tests need). The count is clamped only to
/// one shard per byte, and a region past 4 GiB (whose offsets the stitch
/// cannot store) sweeps sequentially. Every path decodes with the
/// pool's kernel tier (see `pool_tier`).
pub fn sweep_sharded(
    pool: &funseeker_pool::Pool,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepOutput {
    let (sink, error_count, stats) = sweep::<StreamSink>(pool, code, base, mode, shards);
    SweepOutput { stream: sink.stream, error_count, stats }
}

/// [`sweep_sharded`] that keeps only Algorithm 1's evidence — the
/// end-branches, direct call sites and direct jumps — instead of the
/// instruction stream. Same decoder loop, same shards, same stitch, same
/// [`SweepStats`] counters; `proptest_evidence.rs` checks it against a
/// filter over [`sweep_all`]'s stream.
pub fn sweep_evidence(
    pool: &funseeker_pool::Pool,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> SweepEvidence {
    let (sink, error_count, stats) = sweep::<EvidenceSink>(pool, code, base, mode, shards);
    sink.finish(error_count, stats)
}

/// [`sweep_sharded`] and [`sweep_evidence`] in one pass, for callers
/// that will read the stream anyway: the evidence is picked out of the
/// same decoded batches instead of decoding the region twice. Both
/// products equal what the two separate sweeps return.
pub fn sweep_with_evidence(
    pool: &funseeker_pool::Pool,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> (InsnStream, SweepEvidence) {
    let (sink, error_count, stats) = sweep::<BothSink>(pool, code, base, mode, shards);
    (sink.stream.stream, sink.evidence.finish(error_count, stats))
}

fn sweep<S: Sink>(
    pool: &funseeker_pool::Pool,
    code: &[u8],
    base: u64,
    mode: Mode,
    shards: usize,
) -> (S, usize, SweepStats) {
    let tier = pool_tier(pool);
    // The stitch stores shard-relative offsets as u32.
    let shards =
        if code.len() > u32::MAX as usize { 1 } else { shards.clamp(1, code.len().max(1)) };
    if shards == 1 {
        return sequential(code, base, mode, tier);
    }

    // Nominal shard boundaries: shard k speculatively decodes the chain
    // starting at starts[k], stopping once it crosses starts[k + 1].
    let starts: Vec<usize> = (0..shards).map(|k| k * code.len() / shards).collect();

    let t_decode = Instant::now();
    let chains: Vec<Chain<S>> = pool.run(
        (0..shards)
            .map(|k| {
                let lo = starts[k];
                let hi = starts.get(k + 1).copied().unwrap_or(code.len());
                move || decode_shard(code, base, mode, lo, hi, tier)
            })
            .collect(),
    );
    let decode_wall_ns = t_decode.elapsed().as_nanos() as u64;

    // Stitch: walk the true chain, splicing in each shard's speculative
    // chain as soon as the true chain reaches an offset the shard decoded
    // at (from there on the two chains are the same function of the same
    // bytes, hence equal).
    let t_stitch = Instant::now();
    let mut stats = SweepStats::default();
    let mut out = S::stitched(base, chains.iter().map(|c| &c.sink));
    let mut error_count = 0usize;
    let mut t = 0usize; // next true-chain offset
    for (k, chain) in chains.iter().enumerate() {
        stats.merge(&chain.stats);
        let hi = starts.get(k + 1).copied().unwrap_or(code.len());
        // An instruction from an earlier shard may straddle this entire
        // shard; if so the speculative work here is dead, skip it.
        while t < hi {
            // The first shard starts where the true chain does: it is not
            // speculative and splices whole.
            if k == 0 || chain.sink.starts_at(t) {
                out.splice_from(&chain.sink, t);
                let first_err = chain.errors.partition_point(|&e| (e as usize) < t);
                error_count += chain.errors.len() - first_err;
                t = chain.exit;
                break;
            }
            // Not an offset this shard visited: decode one true-chain step.
            match decode(&code[t..], base.wrapping_add(t as u64), mode) {
                Ok(insn) => {
                    let (tag, target) = tag_of(insn.kind);
                    out.one(t, insn.len, tag, target.unwrap_or(0));
                    t += insn.len as usize;
                }
                Err(_) => {
                    t += 1;
                    error_count += 1;
                }
            }
        }
    }
    stats.bytes = code.len() as u64;
    stats.shards = shards as u64;
    stats.insns = out.len() as u64;
    stats.decode_errors = error_count as u64;
    // Per-shard decode_ns sums thread time; keep the larger of that and
    // the wall clock so single-core hosts still report real decode time.
    stats.decode_ns = stats.decode_ns.max(decode_wall_ns);
    stats.stitch_ns = t_stitch.elapsed().as_nanos() as u64;
    (out, error_count, stats)
}

fn decode_shard<S: Sink>(
    code: &[u8],
    base: u64,
    mode: Mode,
    lo: usize,
    hi: usize,
    tier: KernelTier,
) -> Chain<S> {
    let t0 = Instant::now();
    let mut sink = S::chain(base, lo, hi, lo > 0);
    let mut errors = Vec::new();
    let mut stats = SweepStats::default();
    let exit = sweep_range(
        code,
        base,
        mode,
        lo,
        hi,
        tier,
        &mut sink,
        |off| errors.push(off as u32),
        &mut stats,
    );
    stats.decode_ns = t0.elapsed().as_nanos() as u64;
    Chain { sink, errors, exit, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::LinearSweep;

    /// One long-lived pool per kernel tier, its probe cache seeded with
    /// that tier: every sweep through it, one shard or many, decodes
    /// with the tier. Workers are detached threads, so pools are built
    /// once per test process.
    fn tier_pool(tier: KernelTier) -> &'static funseeker_pool::Pool {
        use std::sync::atomic::Ordering;
        static POOLS: std::sync::OnceLock<Vec<funseeker_pool::Pool>> = std::sync::OnceLock::new();
        let pools = POOLS.get_or_init(|| {
            KernelTier::ALL
                .iter()
                .map(|&t| {
                    let pool = funseeker_pool::Pool::with_workers(3);
                    pool.probe_cache().store(t as u8, Ordering::Relaxed);
                    pool
                })
                .collect()
        });
        &pools[KernelTier::ALL.iter().position(|&t| t == tier).expect("a listed tier")]
    }

    /// The evidence lists an [`InsnStream`] implies, by kind.
    fn evidence_of(stream: &InsnStream) -> SweepEvidence {
        let mut ev = SweepEvidence::default();
        for insn in stream {
            match insn.kind {
                InsnKind::Endbr64 | InsnKind::Endbr32 => ev.endbrs.push(insn.addr),
                InsnKind::CallRel { target } => ev.call_sites.push((insn.end(), target)),
                InsnKind::JmpRel { target } => ev.jmp_edges.push((insn.addr, target)),
                _ => {}
            }
        }
        ev
    }

    fn assert_equivalent(code: &[u8], base: u64, mode: Mode, shards: usize) {
        let mut reference = LinearSweep::new(code, base, mode);
        let ref_insns: Vec<Insn> = reference.by_ref().collect();
        let seq = sweep_all(code, base, mode);
        // An exact shard count, so stitch coverage survives one-worker
        // hosts where the adaptive path would short-circuit to sequential.
        let pool = funseeker_pool::global();
        let par = sweep_sharded(pool, code, base, mode, shards);
        assert_eq!(seq.to_insns(), ref_insns, "sequential packed vs iterator reference");
        assert_eq!(seq.stream, par.stream, "packed arrays must be bit-identical");
        assert_eq!(seq.error_count, reference.error_count());
        assert_eq!(seq.error_count, par.error_count);
        assert_eq!(seq.stats.insns, seq.stream.len() as u64);
        assert_eq!(par.stats.insns, par.stream.len() as u64);
        let ev = sweep_evidence(pool, code, base, mode, shards);
        let want = evidence_of(&seq.stream);
        assert_eq!(ev.endbrs, want.endbrs);
        assert_eq!(ev.call_sites, want.call_sites);
        assert_eq!(ev.jmp_edges, want.jmp_edges);
        assert_eq!(ev.error_count, seq.error_count);
        let untimed = |s: SweepStats| SweepStats { decode_ns: 0, stitch_ns: 0, ..s };
        assert_eq!(untimed(ev.stats), untimed(par.stats), "evidence counters");
        let (stream, both) = sweep_with_evidence(pool, code, base, mode, shards);
        assert_eq!(stream, par.stream, "one-pass stream");
        assert_eq!(
            SweepEvidence { stats: untimed(both.stats), ..both },
            SweepEvidence { stats: untimed(ev.stats), ..ev }
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_equivalent(&[], 0x1000, Mode::Bits64, 4);
        assert_equivalent(&[0xc3], 0x1000, Mode::Bits64, 4);
    }

    #[test]
    fn straight_line_code_matches() {
        // endbr64; push rbp; nop; ret — repeated past the shard minimum.
        let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x90, 0xc3];
        let code: Vec<u8> = unit.iter().copied().cycle().take(MIN_SHARD_BYTES * 4 + 3).collect();
        for shards in [1, 2, 3, 7] {
            assert_equivalent(&code, 0x40_0000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn misaligned_shard_boundaries_resynchronize() {
        // 15-byte instructions (max length) force shard boundaries to land
        // mid-instruction almost everywhere: 66 repeated data16 prefixes on
        // a mov — decoders reject over-long prefix runs, so mix lengths.
        let mut code = Vec::new();
        while code.len() < MIN_SHARD_BYTES * 3 {
            code.extend_from_slice(&[0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8]); // mov rax, imm64
            code.push(0x90);
            code.extend_from_slice(&[0xe8, 0x00, 0x00, 0x00, 0x00]); // call +0
        }
        for shards in [2, 3, 7] {
            assert_equivalent(&code, 0x1000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn byte_soup_with_decode_errors_matches() {
        // Deterministic pseudo-random bytes (xorshift) — plenty of invalid
        // encodings, exercising the error-offset accounting in the splice.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let code: Vec<u8> = (0..MIN_SHARD_BYTES * 3)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for shards in [2, 3, 7] {
            assert_equivalent(&code, 0, Mode::Bits64, shards);
            assert_equivalent(&code, 0, Mode::Bits32, shards);
        }
    }

    #[test]
    fn shard_count_clamped_to_one_per_byte() {
        let code = [0x55, 0x90, 0xc3, 0x06, 0xcc];
        assert_equivalent(&code, 0, Mode::Bits64, 8);
        let out = sweep_sharded(funseeker_pool::global(), &code, 0, Mode::Bits64, 8);
        assert_eq!(out.stats.shards, code.len() as u64);
        // Tiny shards below the adaptive floor still stitch exactly.
        let code = vec![0x90u8; MIN_SHARD_BYTES - 1];
        assert_equivalent(&code, 0, Mode::Bits64, 8);
    }

    #[test]
    fn adaptive_par_sweep_matches_sequential() {
        // Whatever the adaptive heuristic picks (sequential on this host's
        // pool size / region size, sharded elsewhere), the output contract
        // is unchanged.
        let unit = [0x55, 0x48, 0x89, 0xe5, 0xe8, 0, 0, 0, 0, 0xc9, 0xc3, 0xcc];
        for len in [100usize, MIN_SHARD_BYTES * 3, PAR_MIN_BYTES + 17] {
            let code: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
            let seq = sweep_all(&code, 0x1000, Mode::Bits64);
            let par = par_sweep(&code, 0x1000, Mode::Bits64, 8);
            assert_eq!(seq.stream, par.stream);
            assert_eq!(seq.error_count, par.error_count);
        }
    }

    #[test]
    fn small_inputs_never_dispatch_parallel() {
        // The work threshold is the regression guard for the old
        // "parallel prepare 8× slower on 8 KiB inputs" failure mode: any
        // input below PAR_MIN_BYTES must take the sequential path (one
        // shard, no stitch) on every pool width.
        static WIDE: std::sync::OnceLock<funseeker_pool::Pool> = std::sync::OnceLock::new();
        let wide = WIDE.get_or_init(|| funseeker_pool::Pool::with_workers(8));
        let code = vec![0x90u8; PAR_MIN_BYTES - 1];
        assert_eq!(adaptive_shards(code.len(), wide.workers()), 1);
        for out in [
            par_sweep(&code, 0x1000, Mode::Bits64, 8),
            sweep_sharded(wide, &code, 0x1000, Mode::Bits64, adaptive_shards(code.len(), 8)),
        ] {
            assert_eq!(out.stats.shards, 1, "below-threshold input must not shard");
            assert_eq!(out.stats.stitch_ns, 0, "sequential path has no stitch");
        }
    }

    #[test]
    fn per_pool_tier_cache_forces_the_tier() {
        use std::sync::atomic::Ordering;
        // Byte soup spanning several shard boundaries, so every shard
        // exercises resynchronization under every tier.
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        let code: Vec<u8> = (0..MIN_SHARD_BYTES * 4 + 11)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut reference = LinearSweep::new(&code, 0x1000, Mode::Bits64);
        let ref_insns: Vec<Insn> = reference.by_ref().collect();
        for tier in KernelTier::ALL {
            if !tier.is_supported() {
                continue;
            }
            // Every sweep dispatched through this pool — the one-shard
            // path and every shard of a stitched one — decodes with
            // `tier`, regardless of the process-global resolution.
            let pool = tier_pool(tier);
            assert_eq!(pool_tier(pool), tier);
            let par = sweep_sharded(pool, &code, 0x1000, Mode::Bits64, 7);
            let seq = sweep_sharded(pool, &code, 0x1000, Mode::Bits64, 1);
            assert_eq!(par.to_insns(), ref_insns, "{tier:?} diverged from the reference");
            assert_eq!(seq.stream, par.stream, "{tier:?}: packed arrays must be bit-identical");
            assert_eq!(seq.error_count, par.error_count);
            // First writer wins: the sweeps read the seed, never overwrote it.
            assert_eq!(pool.probe_cache().load(Ordering::Relaxed), tier as u8);
        }
    }

    #[test]
    fn adaptive_shards_track_size_and_width() {
        // One morsel per MORSEL_BYTES once the region is big enough...
        assert_eq!(adaptive_shards(4 * MORSEL_BYTES, 2), 4);
        // ...but at least one morsel per worker on mid-size regions...
        assert_eq!(adaptive_shards(PAR_MIN_BYTES, 8), 8);
        // ...never a morsel smaller than MIN_SHARD_BYTES...
        assert_eq!(adaptive_shards(PAR_MIN_BYTES, 32), PAR_MIN_BYTES / MIN_SHARD_BYTES);
        // ...and sequential on one worker or below the threshold.
        assert_eq!(adaptive_shards(4 * MORSEL_BYTES, 1), 1);
        assert_eq!(adaptive_shards(PAR_MIN_BYTES - 1, 8), 1);
    }

    #[test]
    fn pooled_adaptive_sweep_bit_identical_across_widths() {
        // The adaptive policy itself (thresholds + morsel sizing + stitch)
        // at real pool widths, not just fixed shard counts. Pools are
        // created once — workers are detached threads.
        static POOLS: std::sync::OnceLock<Vec<funseeker_pool::Pool>> = std::sync::OnceLock::new();
        let pools = POOLS.get_or_init(|| {
            [1, 2, 4].iter().map(|&n| funseeker_pool::Pool::with_workers(n)).collect()
        });
        let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0xe8, 0, 0, 0, 0, 0x90, 0xc3, 0xcc];
        let code: Vec<u8> = unit.iter().copied().cycle().take(PAR_MIN_BYTES * 3 + 11).collect();
        let seq = sweep_all(&code, 0x40_0000, Mode::Bits64);
        for pool in pools {
            let shards = adaptive_shards(code.len(), pool.workers());
            let out = sweep_sharded(pool, &code, 0x40_0000, Mode::Bits64, shards);
            assert_eq!(out.stream, seq.stream, "width {}", pool.workers());
            assert_eq!(out.error_count, seq.error_count);
            if pool.workers() > 1 {
                assert!(out.stats.shards >= pool.workers() as u64, "every worker gets a morsel");
            }
        }
    }

    #[test]
    fn padding_runs_crossing_shard_boundaries() {
        // Long NOP and INT3 runs spanning every shard boundary: the bulk
        // run-skipper inside each shard must agree with the sequential
        // bulk skip and with one-at-a-time decoding.
        let mut code = Vec::new();
        while code.len() < MIN_SHARD_BYTES * 4 {
            code.push(0xc3);
            code.extend(std::iter::repeat_n(0x90, MIN_SHARD_BYTES / 2));
            code.push(0xc3);
            code.extend(std::iter::repeat_n(0xcc, MIN_SHARD_BYTES / 2));
        }
        for shards in [2, 3, 7, 8] {
            assert_equivalent(&code, 0x40_0000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn lone_pad_bytes_between_instructions() {
        // Runs of length one take the run path in the hot loop and the
        // dispatch path in the tail loop; both must yield the same stream.
        let unit = [0x90, 0xc3, 0xcc, 0x55, 0x90, 0x90, 0xc3];
        let code: Vec<u8> = unit.iter().copied().cycle().take(MIN_SHARD_BYTES * 3 + 5).collect();
        for shards in [2, 5] {
            assert_equivalent(&code, 0x1000, Mode::Bits64, shards);
        }
    }

    #[test]
    fn tiered_sweeps_are_bit_identical() {
        let mut x: u64 = 0x2545f4914f6cdd1d;
        let mut code: Vec<u8> = (0..9000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        code.extend_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x90, 0x90, 0xc3]);
        for mode in [Mode::Bits64, Mode::Bits32] {
            let reference = sweep_sharded(tier_pool(KernelTier::Scalar), &code, 0x1000, mode, 1);
            for tier in KernelTier::ALL {
                if !tier.is_supported() {
                    continue;
                }
                let out = sweep_sharded(tier_pool(tier), &code, 0x1000, mode, 1);
                assert_eq!(out.stream, reference.stream, "{tier:?} {mode:?}");
                assert_eq!(out.error_count, reference.error_count, "{tier:?} {mode:?}");
            }
        }
    }

    #[test]
    fn stats_account_for_fast_paths() {
        // push rbp (fast dispatch), a bulk NOP run, then mov ax, cx — a
        // 66-prefixed primary-map op, which forces the full decoder (the
        // fast path only follows a 66 into the 0F map) — and ret.
        let mut code = vec![0x55];
        code.extend(std::iter::repeat_n(0x90, 64));
        code.extend_from_slice(&[0x66, 0x89, 0xc8]);
        code.push(0xc3);
        let out = sweep_all(&code, 0x1000, Mode::Bits64);
        assert_eq!(out.stats.bytes, code.len() as u64);
        assert_eq!(out.stats.insns, out.stream.len() as u64);
        assert_eq!(out.stats.run_insns, 64);
        assert!(out.stats.fast_hits >= 2); // push + ret
        assert_eq!(out.stats.slow_decodes, 1);
        assert!(out.stats.fast_path_rate() > 0.9);
        assert_eq!(out.stats.shards, 1);
        let ev = sweep_evidence(funseeker_pool::global(), &code, 0x1000, Mode::Bits64, 1);
        assert_eq!(
            SweepStats { decode_ns: 0, ..ev.stats },
            SweepStats { decode_ns: 0, ..out.stats }
        );
    }
}
