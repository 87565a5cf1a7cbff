//! Property tests for the evidence-first sweep.
//!
//! The default path never builds an instruction stream: each sweep
//! shard emits the end-branches, direct call sites and direct jumps, and
//! [`disassemble`] assembles `E`, `C`, `J` from them. The oracle here
//! shares none of that code: it filters the full sequential stream
//! (`sweep_all(..).stream.iter()`) by instruction kind. Checked at three
//! levels:
//!
//! * one region at exact shard counts {1, 2, 3, 7}, both modes: every
//!   list, the decode errors, and the [`SweepStats`] counters (the
//!   stream sweep at the same shard count is the counters' oracle);
//! * [`disassemble`] over byte soups split into one to three regions,
//!   corpus binaries, and hostile layouts (overlapping sections, a call
//!   whose end wraps past 2^64), including the stream built on demand,
//!   which must equal the eager per-region concatenation;
//! * the configurations that read the stream (`reach_prune`,
//!   `interproc`) against [`funseeker::reference::identify`], and the
//!   Table II configurations, which must never build it.

use std::collections::BTreeSet;

use funseeker::disassemble::{disassemble, disassemble_with_stream};
use funseeker::parse::{CodeRegion, CodeView, Parsed};
use funseeker::{prepare, prepare_with_stream, reference, Config, FunSeeker, Prepared};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams};
use funseeker_disasm::{
    sweep_all, sweep_evidence, sweep_sharded, InsnKind, InsnStream, Mode, SweepStats,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// One region's evidence, by kind, from the sequential stream.
#[derive(Debug, PartialEq, Eq)]
struct RegionEvidence {
    endbrs: Vec<u64>,
    call_sites: Vec<(u64, u64)>,
    jmp_edges: Vec<(u64, u64)>,
    error_count: usize,
    insns: u64,
}

fn oracle(code: &[u8], base: u64, mode: Mode) -> (RegionEvidence, InsnStream) {
    let swept = sweep_all(code, base, mode);
    let mut ev = RegionEvidence {
        endbrs: Vec::new(),
        call_sites: Vec::new(),
        jmp_edges: Vec::new(),
        error_count: swept.error_count,
        insns: swept.stream.len() as u64,
    };
    for insn in swept.stream.iter() {
        match insn.kind {
            InsnKind::Endbr64 | InsnKind::Endbr32 => ev.endbrs.push(insn.addr),
            InsnKind::CallRel { target } => ev.call_sites.push((insn.end(), target)),
            InsnKind::JmpRel { target } => ev.jmp_edges.push((insn.addr, target)),
            _ => {}
        }
    }
    (ev, swept.stream)
}

fn untimed(stats: SweepStats) -> SweepStats {
    SweepStats { decode_ns: 0, stitch_ns: 0, ..stats }
}

/// The evidence sweep of one region at every shard count equals the
/// oracle, and reports the stream sweep's counters.
fn assert_region_evidence(code: &[u8], base: u64, mode: Mode) -> Result<(), TestCaseError> {
    let (want, _) = oracle(code, base, mode);
    let pool = funseeker_pool::global();
    for shards in SHARD_COUNTS {
        let ev = sweep_evidence(pool, code, base, mode, shards);
        let got = RegionEvidence {
            endbrs: ev.endbrs,
            call_sites: ev.call_sites,
            jmp_edges: ev.jmp_edges,
            error_count: ev.error_count,
            insns: ev.stats.insns,
        };
        prop_assert_eq!(&got, &want, "{} shards, {} bytes, {:?}", shards, code.len(), mode);
        let stream = sweep_sharded(pool, code, base, mode, shards);
        prop_assert_eq!(untimed(ev.stats), untimed(stream.stats), "counters at {} shards", shards);
        prop_assert_eq!(ev.stats.decode_errors, want.error_count as u64);
    }
    Ok(())
}

/// The index as a per-instruction loop over sequential streams builds
/// it: `C` in a `BTreeSet`, `J` and `C` filtered to in-code targets, and
/// every region's stream appended eagerly.
struct ReferenceIndex {
    endbrs: Vec<u64>,
    call_targets: Vec<u64>,
    jmp_edges: Vec<(u64, u64)>,
    call_sites: Vec<(u64, u64)>,
    regions: Vec<(u64, u64, usize)>,
    insns: InsnStream,
}

fn reference_index(p: &Parsed<'_>) -> ReferenceIndex {
    let mut out = ReferenceIndex {
        endbrs: Vec::new(),
        call_targets: Vec::new(),
        jmp_edges: Vec::new(),
        call_sites: Vec::new(),
        regions: Vec::new(),
        insns: InsnStream::new(),
    };
    let mut call_targets = BTreeSet::new();
    for region in p.code.regions() {
        let (ev, stream) = oracle(region.bytes, region.addr, p.mode());
        out.endbrs.extend(ev.endbrs);
        call_targets.extend(ev.call_sites.iter().map(|&(_, t)| t).filter(|&t| p.in_code(t)));
        out.call_sites.extend(ev.call_sites);
        out.jmp_edges.extend(ev.jmp_edges.into_iter().filter(|&(_, t)| p.in_code(t)));
        out.regions.push((region.addr, region.end(), ev.error_count));
        out.insns.append(&stream);
    }
    out.call_targets = call_targets.into_iter().collect();
    out
}

fn assert_index_matches(p: &Parsed<'_>) -> Result<(), TestCaseError> {
    let got = disassemble(p);
    let want = reference_index(p);
    prop_assert!(!got.has_stream(), "disassemble builds no stream");
    prop_assert_eq!(&got.endbrs, &want.endbrs, "endbrs");
    prop_assert_eq!(got.call_targets.as_slice(), &want.call_targets[..], "call_targets");
    prop_assert_eq!(&got.jmp_edges, &want.jmp_edges, "jmp_edges");
    prop_assert_eq!(&got.call_sites, &want.call_sites, "call_sites");
    let regions: Vec<_> = got.regions.iter().map(|r| (r.start, r.end, r.decode_errors)).collect();
    prop_assert_eq!(&regions, &want.regions, "regions");
    let errors: usize = want.regions.iter().map(|r| r.2).sum();
    prop_assert_eq!(got.decode_errors, errors, "decode_errors");
    prop_assert_eq!(got.stats.insns, want.insns.len() as u64, "stats.insns");
    // The stream built on demand is the eager concatenation, segments
    // included, and its boundary index waits for the first probe.
    prop_assert_eq!(got.insns(), &want.insns, "lazy stream");
    prop_assert!(got.has_stream());
    prop_assert!(!got.insns().is_sealed() || got.insns().is_empty(), "no index before a probe");
    let mut eager = want.insns.clone();
    eager.seal();
    if let Some(first) = got.insns().iter().next() {
        prop_assert_eq!(got.insn_at(first.addr), Some(0), "first probe");
    }
    prop_assert_eq!(got.insns().is_sealed(), eager.is_sealed(), "sealed by the first probe");
    // The one-pass index: the same lists, the stream built with them.
    let both = disassemble_with_stream(p);
    prop_assert!(both.has_stream(), "built with the index");
    prop_assert_eq!(both.insns(), &want.insns, "one-pass stream");
    prop_assert_eq!(&both.endbrs, &got.endbrs, "one-pass endbrs");
    prop_assert_eq!(&both.call_targets, &got.call_targets, "one-pass call_targets");
    prop_assert_eq!(&both.jmp_edges, &got.jmp_edges, "one-pass jmp_edges");
    prop_assert_eq!(&both.call_sites, &got.call_sites, "one-pass call_sites");
    let both_regions: Vec<_> =
        both.regions.iter().map(|r| (r.start, r.end, r.decode_errors)).collect();
    prop_assert_eq!(&both_regions, &regions, "one-pass regions");
    prop_assert_eq!(both.decode_errors, got.decode_errors, "one-pass decode_errors");
    prop_assert_eq!(untimed(both.stats), untimed(got.stats), "one-pass counters");
    Ok(())
}

/// The stream-reading configurations equal the reference oracle on the
/// same prepared binary.
fn assert_stream_configs_match_reference(prepared: &Prepared<'_>) -> Result<(), TestCaseError> {
    for (label, base) in Config::table2() {
        for (reach_prune, interproc) in [(true, false), (false, true), (true, true)] {
            let config = Config { reach_prune, interproc, ..base };
            let got = FunSeeker::with_config(config).identify_prepared(prepared);
            let want = reference::identify(&config, prepared);
            prop_assert_eq!(got, want, "config {} {:?}", label, config);
        }
    }
    Ok(())
}

/// Region `k` starts here; rel32 branches below reach the neighbours.
fn region_base(k: usize) -> u64 {
    0x40_1000 + k as u64 * 0x4_0000
}

/// One byte-soup fragment, biased toward the instructions the evidence
/// keeps (and the `Jcc` it must skip) so every case carries some. rel32
/// branches reach into the neighbouring regions and past them.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    (0u8..12, any::<u64>()).prop_map(|(pick, r)| {
        let rel32 = ((r % 0xc_0000) as i32 - 0x6_0000).to_le_bytes();
        match pick {
            0..=2 => r.to_le_bytes()[..1 + (r >> 61) as usize].to_vec(),
            3 => vec![0xf3, 0x0f, 0x1e, 0xfa],
            4 => vec![0xf3, 0x0f, 0x1e, 0xfb],
            5 | 6 => [&[0xe8][..], &rel32].concat(),
            7 | 8 => [&[0xe9][..], &rel32].concat(),
            9 => vec![0xeb, r as u8],
            10 => vec![0x70 | (r >> 8) as u8 & 0x0f, r as u8],
            _ => vec![0xc3, 0xcc, 0xcc, 0x90],
        }
    })
}

fn soup(max_fragments: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(fragment(), 0..max_fragments).prop_map(|fs| fs.concat())
}

/// A view over `regions`, region `k` at `bases[k]`.
fn parsed_at<'a>(regions: &'a [Vec<u8>], bases: &[u64], wide: bool) -> Parsed<'a> {
    let mut p = Parsed::from_region(0, &[], wide);
    p.code = CodeView::new(
        regions
            .iter()
            .zip(bases)
            .enumerate()
            .map(|(k, (bytes, &addr))| CodeRegion { name: format!(".text{k}"), addr, bytes })
            .collect(),
    );
    p
}

fn parsed_from(regions: &[Vec<u8>], wide: bool) -> Parsed<'_> {
    let bases: Vec<u64> = (0..regions.len()).map(region_base).collect();
    parsed_at(regions, &bases, wide)
}

fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soups long enough that every shard boundary at 2, 3 and 7 shards
    /// lands inside them, mostly mid-instruction.
    #[test]
    fn shard_evidence_matches_the_stream_filter(code in soup(1500), wide in any::<bool>()) {
        let mode = if wide { Mode::Bits64 } else { Mode::Bits32 };
        assert_region_evidence(&code, 0x40_1000, mode)?;
    }

    /// A base near 2^64: addresses, call ends and the stitch's offset
    /// recovery all wrap.
    #[test]
    fn shard_evidence_matches_near_the_top_of_the_address_space(
        code in soup(400),
        back in 0u64..0x800,
    ) {
        assert_region_evidence(&code, u64::MAX - back, Mode::Bits64)?;
    }

    #[test]
    fn index_matches_the_reference_on_byte_soups(
        regions in proptest::collection::vec(soup(300), 1..=3),
        wide in any::<bool>(),
    ) {
        assert_index_matches(&parsed_from(&regions, wide))?;
    }

    /// Overlapping sections, and a region ending in a call whose end
    /// wraps past 2^64 — the layouts that break the lists' ascending
    /// order.
    #[test]
    fn index_matches_the_reference_on_hostile_layouts(
        a in soup(200),
        b in soup(200),
        overlap in 0u64..0x400,
        back in 1u64..0x40,
        target in any::<u32>(),
    ) {
        let overlapping = [a.clone(), b.clone()];
        let p = parsed_at(&overlapping, &[0x1000, 0x1000 + overlap], true);
        assert_index_matches(&p)?;
        assert_stream_configs_match_reference(&Prepared::from_parsed(p))?;

        // A region ending exactly at 2^64 in a `call rel32`, whose end
        // wraps to 0.
        let mut top = vec![0x90u8; back as usize];
        top.push(0xe8);
        top.extend_from_slice(&target.to_le_bytes());
        let base = u64::MAX - top.len() as u64 + 1;
        let wrapping = [b, top];
        let p = parsed_at(&wrapping, &[0x40_1000, base], true);
        assert_index_matches(&p)?;
        prop_assert!(
            disassemble(&p).call_sites.last().is_some_and(|&(end, _)| end < base),
            "the last call's end wraps"
        );
        assert_stream_configs_match_reference(&Prepared::from_parsed(p))?;
    }
}

#[test]
fn index_matches_the_reference_above_the_parallel_threshold() {
    // Big enough that the adaptive sweep shards the regions on a
    // multi-worker pool, so both lists and the moved first stream come
    // out of the stitch.
    let regions = vec![
        xorshift_bytes(0x9e37_79b9_7f4a_7c15, 3 * funseeker_disasm::PAR_MIN_BYTES),
        xorshift_bytes(0x2545_f491_4f6c_dd1d, 70_000),
    ];
    for wide in [true, false] {
        assert_index_matches(&parsed_from(&regions, wide)).unwrap();
        let mode = if wide { Mode::Bits64 } else { Mode::Bits32 };
        assert_region_evidence(&regions[0], region_base(0), mode).unwrap();
    }
}

#[test]
fn corpus_binaries_match_the_reference() {
    let mut params = DatasetParams::tiny();
    params.configs = BuildConfig::grid();
    let ds = Dataset::generate(&params, 0xD15A);
    let mut checked = 0;
    for bin in &ds.binaries {
        let prepared = prepare(&bin.bytes).expect("corpus binary parses");
        let ctx = format!("{} {}", bin.program, bin.config.label());
        assert_index_matches(&prepared.parsed).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
        for region in prepared.parsed.code.regions() {
            assert_region_evidence(region.bytes, region.addr, prepared.parsed.mode())
                .unwrap_or_else(|e| panic!("{ctx} {}: {e:?}", region.name));
        }
        if checked % 8 == 0 {
            assert_stream_configs_match_reference(&prepared)
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            let with_stream = prepare_with_stream(&bin.bytes).expect("corpus binary parses");
            assert_stream_configs_match_reference(&with_stream)
                .unwrap_or_else(|e| panic!("{ctx}, one pass: {e:?}"));
        }
        checked += 1;
    }
    assert!(checked > 50, "expected many corpus binaries, checked {checked}");
}

#[test]
fn table2_configurations_never_build_the_stream() {
    let mut params = DatasetParams::tiny();
    params.configs = BuildConfig::grid();
    let ds = Dataset::generate(&params, 0xE71D);
    for bin in ds.binaries.iter().step_by(5) {
        let prepared = prepare(&bin.bytes).expect("corpus binary parses");
        for (label, config) in Config::table2() {
            FunSeeker::with_config(config).identify_prepared(&prepared);
            assert!(!prepared.index.has_stream(), "{} built the stream under {label}", bin.program);
        }
        // The first stream reader builds it.
        FunSeeker::with_config(Config { reach_prune: true, ..Config::c3() })
            .identify_prepared(&prepared);
        assert!(prepared.index.has_stream(), "reach_prune reads the stream");
    }
}
