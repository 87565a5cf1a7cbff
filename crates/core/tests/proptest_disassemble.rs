//! Property tests for the shared sweep index: [`disassemble`] builds
//! `E`, `C`, `J` and the call sites from column walks of the packed
//! stream, and must agree field for field with the per-instruction
//! reference below — one [`funseeker_disasm::Insn`] rebuilt per decoded
//! instruction, `C` collected in a `BTreeSet`, every region's stream
//! copied into the index — on byte soups split into one to three
//! regions, in both modes, and on corpus binaries.

use std::collections::BTreeSet;

use funseeker::disassemble::{disassemble, RegionSpan, SweepIndex};
use funseeker::parse::{CodeRegion, CodeView, Parsed};
use funseeker::prepare;
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams};
use funseeker_disasm::{sweep_all, InsnKind};
use proptest::prelude::*;

/// The index as the per-instruction loop built it: a sequential sweep
/// per region, a full `Insn` walk, `C` in a `BTreeSet`, a copy of every
/// region's stream.
fn reference(p: &Parsed<'_>) -> SweepIndex {
    let mut out = SweepIndex::default();
    let mut call_targets = BTreeSet::new();
    for region in p.code.regions() {
        let swept = sweep_all(region.bytes, region.addr, p.mode());
        let first = out.insns.len();
        for insn in &swept.stream {
            match insn.kind {
                InsnKind::Endbr64 | InsnKind::Endbr32 => out.endbrs.push(insn.addr),
                InsnKind::CallRel { target } => {
                    out.call_sites.push((insn.end(), target));
                    if p.in_code(target) {
                        call_targets.insert(target);
                    }
                }
                InsnKind::JmpRel { target } if p.in_code(target) => {
                    out.jmp_edges.push((insn.addr, target));
                }
                _ => {}
            }
        }
        out.insns.append(&swept.stream);
        out.regions.push(RegionSpan {
            start: region.addr,
            end: region.end(),
            insn_range: first..out.insns.len(),
            decode_errors: swept.error_count,
        });
        out.decode_errors += swept.error_count;
    }
    out.call_targets = call_targets.into_iter().collect();
    out
}

fn assert_matches_reference(p: &Parsed<'_>) -> Result<(), TestCaseError> {
    let got = disassemble(p);
    let want = reference(p);
    prop_assert_eq!(&got.insns, &want.insns, "insns");
    prop_assert_eq!(&got.endbrs, &want.endbrs, "endbrs");
    prop_assert_eq!(&got.call_targets, &want.call_targets, "call_targets");
    prop_assert_eq!(&got.jmp_edges, &want.jmp_edges, "jmp_edges");
    prop_assert_eq!(&got.call_sites, &want.call_sites, "call_sites");
    prop_assert_eq!(got.decode_errors, want.decode_errors, "decode_errors");
    let spans = |ix: &SweepIndex| -> Vec<_> {
        ix.regions.iter().map(|r| (r.start, r.end, r.insn_range.clone(), r.decode_errors)).collect()
    };
    prop_assert_eq!(spans(&got), spans(&want), "regions");
    // The boundary index is built by the first address probe, and then
    // exactly when an eager seal would build it.
    prop_assert_eq!(got.insns.is_sealed(), want.insns.is_sealed(), "unsealed until probed");
    prop_assert!(!got.insns.is_sealed() || got.insns.is_empty(), "disassemble builds no index");
    let mut eager = want.insns.clone();
    eager.seal();
    if let Some(first) = got.insns.iter().next() {
        prop_assert_eq!(got.insn_at(first.addr), Some(0), "first probe");
    }
    prop_assert_eq!(got.insns.is_sealed(), eager.is_sealed(), "sealed by the first probe");
    Ok(())
}

/// Region `k` starts here; rel32 branches below reach the neighbours.
fn region_base(k: usize) -> u64 {
    0x40_1000 + k as u64 * 0x4_0000
}

/// One byte-soup fragment, biased toward the instructions the walks
/// pick out (and the `Jcc` they must skip) so every case carries some.
/// rel32 branches reach into the neighbouring regions and past them.
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

fn soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(fragment(), 0..300).prop_map(|fs| fs.concat())
}

fn parsed_from<'a>(regions: &'a [Vec<u8>], wide: bool) -> Parsed<'a> {
    let mut p = Parsed::from_region(0, &[], wide);
    p.code = CodeView::new(
        regions
            .iter()
            .enumerate()
            .map(|(k, bytes)| CodeRegion { name: format!(".text{k}"), addr: region_base(k), bytes })
            .collect(),
    );
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn column_walks_match_the_insn_loop_on_byte_soups(
        regions in proptest::collection::vec(soup(), 1..=3),
        wide in any::<bool>(),
    ) {
        assert_matches_reference(&parsed_from(&regions, wide))?;
    }
}

#[test]
fn column_walks_match_the_insn_loop_above_the_parallel_threshold() {
    // Big enough that `par_sweep` shards the regions, so the moved first
    // stream and the appended second one come out of the stitch.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut region = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    };
    let regions = vec![region(3 * funseeker_disasm::PAR_MIN_BYTES), region(70_000)];
    for wide in [true, false] {
        assert_matches_reference(&parsed_from(&regions, wide)).unwrap();
    }
}

#[test]
fn column_walks_match_the_insn_loop_on_corpus_binaries() {
    let mut params = DatasetParams::tiny();
    params.configs = BuildConfig::grid();
    let ds = Dataset::generate(&params, 0xD15A);
    let mut checked = 0;
    for bin in &ds.binaries {
        let prepared = prepare(&bin.bytes).expect("corpus binary parses");
        assert_matches_reference(&prepared.parsed)
            .unwrap_or_else(|e| panic!("{} {}: {e:?}", bin.program, bin.config.label()));
        checked += 1;
    }
    assert!(checked > 50, "expected many corpus binaries, checked {checked}");
}
