//! DISASSEMBLE — linear sweep producing `(E, C, J)` (Algorithm 1 line 3).
//!
//! The sweep runs **once per binary** and is shared: the resulting
//! [`SweepIndex`] carries the sets FILTERENDBR / SELECTTAILCALL work
//! from, so FunSeeker's configurations, every baseline identifier, and
//! the evaluation harness all consume the same pass instead of
//! re-sweeping the image. Each code region is swept independently (the
//! sweep restarts at every region base) using the sharded parallel sweep,
//! which is bit-identical to the sequential one.
//!
//! The default path keeps only the evidence: the sweep's evidence sink
//! emits `E`, the direct call sites and the direct jumps per shard, and
//! no instruction stream is written. The full packed stream is built on
//! first use by [`SweepIndex::insns`] — for reachability pruning, the
//! interprocedural summary, CFGs and the call graph, function bounds and
//! the baseline identifiers. A caller that knows up front it will read
//! the stream uses [`disassemble_with_stream`], which decodes each region
//! once for both.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use funseeker_disasm::{
    adaptive_shards, kernels, par_sweep, recycle_evidence, sweep_evidence, sweep_with_evidence,
    InsnStream, Insns, KernelTier, Mode, SweepStats,
};

use crate::parse::Parsed;
use crate::FuncSet;

/// Width bound for the parallel sweep: the *actual* pool width — which
/// honors `FUNSEEKER_CORES`/`--cores` — rather than a fresh
/// `available_parallelism` guess that could disagree with the pool the
/// shards actually run on. The shard count itself is derived from
/// region size × this width ([`adaptive_shards`]).
fn sweep_shards() -> usize {
    funseeker_pool::global().workers()
}

/// Instruction streams [`SweepIndex::insns`] has built in this process.
static STREAMS_BUILT: AtomicUsize = AtomicUsize::new(0);

/// How many times this process has built a [`SweepIndex`]'s instruction
/// stream — the guard that the Table II configurations never do.
pub fn streams_built() -> usize {
    STREAMS_BUILT.load(Ordering::Relaxed)
}

/// One stream of the per-region streams, one segment per region.
fn concat(streams: impl IntoIterator<Item = InsnStream>) -> InsnStream {
    STREAMS_BUILT.fetch_add(1, Ordering::Relaxed);
    let mut streams = streams.into_iter();
    // The common single-region case: no copy.
    let mut all = streams.next().unwrap_or_default();
    for stream in streams {
        all.append(&stream);
    }
    all
}

/// One code region of a [`SweepIndex`].
#[derive(Debug, Clone)]
pub struct RegionSpan {
    /// Region start address.
    pub start: u64,
    /// Region end address (exclusive).
    pub end: u64,
    /// Decode errors encountered while sweeping this region.
    pub decode_errors: usize,
}

/// The shared product of the disassembly pass: the sets FILTERENDBR /
/// SELECTTAILCALL work from, plus the decoded instruction stream on
/// demand.
///
/// **Ordering.** Regions are sorted and swept in address order, so
/// `endbrs`, `jmp_edges` (by site) and `call_sites` (by the address
/// after the call) come out ascending. Only hostile images break this: a
/// call whose end wraps past 2^64 puts its `call_sites` entry out of
/// order, and overlapping code sections interleave all three lists.
/// Nothing asserts the order; [`crate::AnalysisPlan`]'s walks check it
/// and sort a copy when it does not hold.
#[derive(Debug, Clone)]
pub struct SweepIndex<'a> {
    /// The instruction stream, built by the first [`SweepIndex::insns`].
    insns: OnceLock<InsnStream>,
    /// Each region's bytes, parallel to `regions`: what the stream is
    /// swept from.
    code: Vec<&'a [u8]>,
    mode: Mode,
    /// One span per code region, in address order.
    pub regions: Vec<RegionSpan>,
    /// `E`: addresses of end-branch instructions in the code, ascending.
    pub endbrs: Vec<u64>,
    /// `C`: direct call targets that land inside the analyzed code,
    /// sorted and deduplicated.
    pub call_targets: FuncSet,
    /// Direct unconditional jumps: `(site, target)` pairs with in-code
    /// targets — the raw `J` with provenance, which SELECTTAILCALL needs.
    /// Ascending by site.
    pub jmp_edges: Vec<(u64, u64)>,
    /// All direct call sites as `(address_after_call, target)` — used to
    /// spot indirect-return call sites whose following end-branch must be
    /// filtered. Targets outside the analyzed code (PLT stubs) are *kept*
    /// here. Ascending by the address after the call, save on hostile
    /// images (see the ordering note above).
    pub call_sites: Vec<(u64, u64)>,
    /// Number of byte positions skipped on decode errors, summed over
    /// regions.
    pub decode_errors: usize,
    /// Decode-work and timing counters, merged over all regions.
    pub stats: SweepStats,
}

/// The evidence lists go back to the thread's next sweep
/// ([`recycle_evidence`]).
impl Drop for SweepIndex<'_> {
    fn drop(&mut self) {
        recycle_evidence(
            std::mem::take(&mut self.endbrs),
            std::mem::take(&mut self.call_sites),
            std::mem::take(&mut self.jmp_edges),
        );
    }
}

impl SweepIndex<'_> {
    /// Every decoded instruction, in address order across all regions,
    /// in packed structure-of-arrays form (6 bytes per instruction), one
    /// segment per region — exactly what [`par_sweep`] yields per region,
    /// concatenated.
    ///
    /// Unless [`disassemble_with_stream`] built it with the index, the
    /// first call sweeps the regions again to build it; later calls
    /// return the same stream. Its boundary index is built by the first
    /// [`SweepIndex::insn_at`] / [`SweepIndex::insns_in`] probe.
    pub fn insns(&self) -> &InsnStream {
        self.insns.get_or_init(|| {
            concat(self.regions.iter().zip(&self.code).map(|(region, bytes)| {
                par_sweep(bytes, region.start, self.mode, sweep_shards()).stream
            }))
        })
    }

    /// Whether [`SweepIndex::insns`] has built the stream.
    pub fn has_stream(&self) -> bool {
        self.insns.get().is_some()
    }

    /// `J` as a plain set of targets.
    pub fn jmp_targets(&self) -> BTreeSet<u64> {
        self.jmp_edges.iter().map(|&(_, t)| t).collect()
    }

    /// The instructions whose addresses fall in `[lo, hi)`.
    ///
    /// Instruction addresses are globally sorted (regions are swept in
    /// address order), so this is a binary-search windowed iterator over
    /// the packed stream.
    pub fn insns_in(&self, lo: u64, hi: u64) -> Insns<'_> {
        self.insns().range(lo, hi)
    }

    /// Index of the instruction starting exactly at `addr`, if any.
    pub fn insn_at(&self, addr: u64) -> Option<usize> {
        self.insns().index_of_addr(addr)
    }

    /// Start addresses of all regions, in order — the interval breaks a
    /// function can never span.
    pub fn region_starts(&self) -> Vec<u64> {
        self.regions.iter().map(|r| r.start).collect()
    }
}

/// Superset-style end-branch recovery: scans the raw bytes of every code
/// region for the 4-byte `ENDBR` pattern at every offset, independent of
/// instruction boundaries. Complements the linear sweep when the code
/// contains data or hand-written assembly that desynchronizes it (§VI
/// future work).
pub fn scan_endbr_pattern(p: &Parsed<'_>) -> Vec<u64> {
    let marker: [u8; 4] = if p.wide {
        [0xf3, 0x0f, 0x1e, 0xfa] // endbr64
    } else {
        [0xf3, 0x0f, 0x1e, 0xfb] // endbr32
    };
    let mut out = Vec::new();
    let tier = KernelTier::active();
    for region in p.code.regions() {
        // Vectorized needle scan: the kernel hunts 0xF3 lead bytes a
        // vector register at a time and verifies the 3-byte tail only at
        // candidates (compiler output contains few 0xF3 bytes, so almost
        // every position is rejected by the wide compare alone). It
        // reports both widths; keep the one matching the image's mode.
        let bytes = region.bytes;
        out.extend(
            kernels::find_endbr(bytes, tier)
                .into_iter()
                .filter(|&off| bytes[off as usize + 3] == marker[3])
                .map(|off| region.addr.wrapping_add(u64::from(off))),
        );
    }
    out
}

/// Sweeps every code region and builds the shared index.
///
/// `E`, `C`, `J` and the call sites come straight from the evidence
/// sweep ([`sweep_evidence`]); no instruction stream is built here.
pub fn disassemble<'a>(p: &Parsed<'a>) -> SweepIndex<'a> {
    index(p, false)
}

/// [`disassemble`] plus the instruction stream, from one sweep per
/// region ([`sweep_with_evidence`]): for callers that will read
/// [`SweepIndex::insns`] anyway, so the regions are not decoded twice.
/// The index equals [`disassemble`]'s after its first `insns()` call.
pub fn disassemble_with_stream<'a>(p: &Parsed<'a>) -> SweepIndex<'a> {
    index(p, true)
}

fn index<'a>(p: &Parsed<'a>, with_stream: bool) -> SweepIndex<'a> {
    let mode = p.mode();
    let pool = funseeker_pool::global();
    let mut out = SweepIndex {
        insns: OnceLock::new(),
        code: Vec::new(),
        mode,
        regions: Vec::new(),
        endbrs: Vec::new(),
        call_targets: FuncSet::default(),
        jmp_edges: Vec::new(),
        call_sites: Vec::new(),
        decode_errors: 0,
        stats: SweepStats::default(),
    };
    let mut call_targets = Vec::new();
    let mut streams = Vec::new();
    for region in p.code.regions() {
        // The shard count `par_sweep` picks, so an eager stream equals a
        // lazy one segment for segment.
        let shards = adaptive_shards(region.bytes.len(), sweep_shards());
        let ev = if with_stream {
            let (stream, ev) = sweep_with_evidence(pool, region.bytes, region.addr, mode, shards);
            streams.push(stream);
            ev
        } else {
            sweep_evidence(pool, region.bytes, region.addr, mode, shards)
        };
        call_targets.extend(ev.call_sites.iter().map(|&(_, t)| t).filter(|&t| p.in_code(t)));
        let mut jmp_edges = ev.jmp_edges;
        jmp_edges.retain(|&(_, t)| p.in_code(t));
        if out.regions.is_empty() {
            // The common single-region case: no copy.
            out.endbrs = ev.endbrs;
            out.call_sites = ev.call_sites;
            out.jmp_edges = jmp_edges;
        } else {
            out.endbrs.extend(ev.endbrs);
            out.call_sites.extend(ev.call_sites);
            out.jmp_edges.extend(jmp_edges);
        }
        out.regions.push(RegionSpan {
            start: region.addr,
            end: region.end(),
            decode_errors: ev.error_count,
        });
        out.code.push(region.bytes);
        out.decode_errors += ev.error_count;
        out.stats.merge(&ev.stats);
    }
    out.call_targets = call_targets.into_iter().collect();
    if with_stream {
        let _ = out.insns.set(concat(streams));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(text: &[u8], addr: u64, wide: bool) -> Parsed<'_> {
        Parsed::from_region(addr, text, wide)
    }

    #[test]
    fn collects_endbr_calls_and_jumps() {
        // 0x1000: endbr64
        // 0x1004: call 0x100e (in text)
        // 0x1009: jmp 0x1000 (in text)
        // 0x100e: call 0x2000 (out of text — PLT-like)
        // 0x1013: ret
        let mut code = vec![0xf3, 0x0f, 0x1e, 0xfa];
        code.push(0xe8);
        code.extend_from_slice(&5i32.to_le_bytes()); // call +5 → 0x100e
        code.push(0xe9);
        code.extend_from_slice(&(-14i32).to_le_bytes()); // jmp → 0x1000
        code.push(0xe8);
        code.extend_from_slice(&0xfedi32.to_le_bytes()); // call → 0x2000
        code.push(0xc3);
        let p = parsed(&code, 0x1000, true);
        let s = disassemble(&p);
        assert_eq!(s.endbrs, vec![0x1000]);
        assert!(s.call_targets.contains(&0x100e));
        assert_eq!(s.call_targets.len(), 1, "out-of-text call target excluded from C");
        assert_eq!(s.jmp_edges, vec![(0x1009, 0x1000)]);
        // But the PLT-bound call site is retained for FILTERENDBR.
        assert!(s.call_sites.iter().any(|&(_, t)| t == 0x2000));
        assert_eq!(s.decode_errors, 0);
        assert!(!s.has_stream(), "the evidence sweep builds no stream");
        assert_eq!(s.insns().len(), 5);
        assert!(s.has_stream());
        assert_eq!(s.regions.len(), 1);
    }

    #[test]
    fn conditional_jumps_are_not_in_j() {
        // jne +2; nop; nop — Jcc targets are never tail-call candidates.
        let code = [0x75, 0x02, 0x90, 0x90];
        let p = parsed(&code, 0, true);
        let s = disassemble(&p);
        assert!(s.jmp_edges.is_empty());
        assert!(s.call_targets.is_empty());
    }

    #[test]
    fn short_jmp_counts_as_j() {
        let code = [0xeb, 0x02, 0x90, 0x90, 0xc3];
        let p = parsed(&code, 0x100, true);
        let s = disassemble(&p);
        assert_eq!(s.jmp_edges, vec![(0x100, 0x104)]);
    }

    #[test]
    fn endbr32_in_32bit_mode() {
        let code = [0xf3, 0x0f, 0x1e, 0xfb, 0xc3];
        let p = parsed(&code, 0x8048000, false);
        let s = disassemble(&p);
        assert_eq!(s.endbrs, vec![0x8048000]);
    }

    #[test]
    fn multi_region_sweep_restarts_per_region() {
        use crate::parse::{CodeRegion, CodeView};
        // Region A ends mid-"instruction" if concatenated with B; separate
        // sweeps must not leak across the gap.
        let a = [0xf3, 0x0f, 0x1e, 0xfa, 0xe8]; // endbr64; dangling call opcode
        let b = [0xf3, 0x0f, 0x1e, 0xfa, 0xc3]; // endbr64; ret
        let mut p = Parsed::from_region(0, &[], true);
        p.code = CodeView::new(vec![
            CodeRegion { name: ".a".into(), addr: 0x1000, bytes: &a },
            CodeRegion { name: ".b".into(), addr: 0x2000, bytes: &b },
        ]);
        let s = disassemble(&p);
        assert_eq!(s.endbrs, vec![0x1000, 0x2000]);
        assert_eq!(s.regions.len(), 2);
        // The dangling `e8` at the end of region A can't pull bytes from
        // region B: it is a decode error, not a call into B.
        assert!(s.call_sites.is_empty());
        assert_eq!(s.regions[0].decode_errors, 1);
        assert_eq!(s.regions[1].decode_errors, 0);
        assert_eq!(s.insns_in(0x2000, 0x2005).len(), 2);
        assert_eq!(s.insn_at(0x2004), Some(s.insns().len() - 1));
        assert_eq!(s.region_starts(), vec![0x1000, 0x2000]);
    }

    #[test]
    fn endbr_pattern_scan_covers_all_regions() {
        use crate::parse::{CodeRegion, CodeView};
        let a = [0x90, 0xf3, 0x0f, 0x1e, 0xfa]; // endbr64 at offset 1
        let b = [0xf3, 0x0f, 0x1e, 0xfa, 0xc3];
        let mut p = Parsed::from_region(0, &[], true);
        p.code = CodeView::new(vec![
            CodeRegion { name: ".a".into(), addr: 0x1000, bytes: &a },
            CodeRegion { name: ".b".into(), addr: 0x2000, bytes: &b },
        ]);
        assert_eq!(scan_endbr_pattern(&p), vec![0x1001, 0x2000]);
    }
}
