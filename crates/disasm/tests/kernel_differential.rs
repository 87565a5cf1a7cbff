//! Differential tests for the vectorized sweep kernels: every supported
//! tier (AVX2 / SSE2 / SWAR) must agree bit-for-bit with the scalar
//! reference on every input — at every alignment phase, across every
//! vector-width boundary straddle, on adversarial needle layouts, and on
//! arbitrary random buffers (proptest). The sealed-stream rank lookups
//! ride along: sealing is a pure accelerator, so a sealed stream must
//! answer every address query exactly like its unsealed twin.

use funseeker_disasm::kernels::{find_endbr, pad_run_end};
use funseeker_disasm::{sweep_all, InsnStream, KernelTier, Mode};
use proptest::prelude::*;

/// The tiers this host can actually run (always includes Swar + Scalar).
fn tiers() -> Vec<KernelTier> {
    KernelTier::ALL.into_iter().filter(|t| t.is_supported()).collect()
}

/// Scalar-reference ENDBR scan.
fn ref_endbr(code: &[u8]) -> Vec<u32> {
    (0..code.len().saturating_sub(3))
        .filter(|&i| {
            code[i] == 0xF3 && code[i + 1] == 0x0F && code[i + 2] == 0x1E && code[i + 3] | 1 == 0xFB
        })
        .map(|i| i as u32)
        .collect()
}

/// Scalar-reference pad-run scan.
fn ref_pad_run(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
    let mut i = start;
    while i < hi && code[i] == byte {
        i += 1;
    }
    i
}

#[test]
fn endbr_scan_every_alignment_and_straddle() {
    // One needle slid across every offset of a buffer long enough that it
    // straddles each 8/16/32-byte chunk boundary of every tier, embedded
    // in F3 noise so candidate filtering is exercised, plus both FA/FB
    // tails and a decoy (F3 0F 1E FC is not an ENDBR).
    for tail in [0xFAu8, 0xFB, 0xFC] {
        for pos in 0..100usize {
            let mut code = vec![0xF3u8; 104];
            code[pos] = 0xF3;
            code[pos + 1] = 0x0F;
            code[pos + 2] = 0x1E;
            code[pos + 3] = tail;
            let want = ref_endbr(&code);
            if tail == 0xFC {
                assert!(!want.contains(&(pos as u32)));
            } else {
                assert!(want.contains(&(pos as u32)));
            }
            for tier in tiers() {
                assert_eq!(find_endbr(&code, tier), want, "{tier:?} pos={pos} tail={tail:#x}");
            }
        }
    }
}

#[test]
fn endbr_scan_truncated_needles_at_buffer_end() {
    // Prefixes of the needle at the very end of the region must never be
    // reported, at every buffer length (vector remainders included).
    let needle = [0xF3u8, 0x0F, 0x1E, 0xFA];
    for pad in 0..70usize {
        for keep in 0..4usize {
            let mut code = vec![0x90u8; pad];
            code.extend_from_slice(&needle[..keep]);
            let want = ref_endbr(&code);
            assert!(want.is_empty());
            for tier in tiers() {
                assert_eq!(find_endbr(&code, tier), want, "{tier:?} pad={pad} keep={keep}");
            }
        }
    }
}

#[test]
fn pad_run_every_start_phase_and_cap() {
    // A long run with a mismatch planted at every distance from every
    // start phase, under caps that land inside, at, and past the run end.
    let n = 140usize;
    for mism in [None, Some(35usize), Some(64), Some(96)] {
        let mut code = vec![0xCCu8; n];
        if let Some(m) = mism {
            code[m] = 0x00;
        }
        for start in 0..48usize {
            for hi in [start, start + 1, start + 17, n - 3, n] {
                let want = ref_pad_run(&code, start, hi, 0xCC);
                for tier in tiers() {
                    assert_eq!(
                        pad_run_end(&code, start, hi, 0xCC, tier),
                        want,
                        "{tier:?} start={start} hi={hi} mism={mism:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sealed_stream_answers_like_unsealed() {
    // Sweep real-ish bytes, seal a copy, and probe every address in and
    // around the region against a linear scan of the decoded
    // instructions: the boundary index must be observationally
    // invisible, whether built eagerly or by the first probe.
    let unit = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x48, 0x89, 0xe5, 0xe8, 0, 0, 0, 0, 0x90, 0xc3];
    let code: Vec<u8> = unit.iter().copied().cycle().take(700).collect();
    let base = 0x40_1000u64;
    let lazy: InsnStream = sweep_all(&code, base, Mode::Bits64).stream;
    let insns: Vec<_> = lazy.iter().collect();
    let mut sealed = lazy.clone();
    sealed.seal();
    assert!(sealed.is_sealed());
    assert!(!lazy.is_sealed(), "a sweep builds no boundary index");
    assert_eq!(lazy, sealed, "sealing must not change stream equality");
    for addr in (base - 4)..(base + code.len() as u64 + 4) {
        let want = insns.iter().position(|i| i.addr == addr);
        assert_eq!(sealed.index_of_addr(addr), want, "sealed index_of {addr:#x}");
        assert_eq!(lazy.index_of_addr(addr), want, "lazy index_of {addr:#x}");
        let below = insns.iter().filter(|i| i.addr < addr).count();
        assert_eq!(sealed.partition_point_addr(addr), below, "partition_point {addr:#x}");
    }
    assert!(lazy.is_sealed(), "the first probe built the index");
    for (lo, hi) in [(base, base + 7), (base - 9, base + 700), (base + 33, base + 34)] {
        let want: Vec<_> = insns.iter().filter(|i| (lo..hi).contains(&i.addr)).copied().collect();
        let got: Vec<_> = sealed.range(lo, hi).collect();
        assert_eq!(got, want, "range {lo:#x}..{hi:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random buffers: both kernels agree with scalar at arbitrary
    /// content, lengths, and subslice phases.
    #[test]
    fn kernels_match_scalar_on_random_buffers(
        code in proptest::collection::vec(any::<u8>(), 0..2500),
        seeds in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..12),
        phase in 0usize..64,
    ) {
        let mut code = code;
        // Plant needles and pad runs so hits are dense enough to matter.
        for (at, fb) in seeds {
            let at = at as usize;
            if at + 8 <= code.len() {
                code[at..at + 4].copy_from_slice(&[0xF3, 0x0F, 0x1E, if fb { 0xFB } else { 0xFA }]);
                code[at + 4..at + 8].fill(if fb { 0x90 } else { 0xCC });
            }
        }
        let code = &code[phase.min(code.len())..];

        let want_endbr = ref_endbr(code);
        for tier in tiers() {
            prop_assert_eq!(&find_endbr(code, tier), &want_endbr, "find_endbr {:?}", tier);
        }
        for start in [0usize, 1, 31].into_iter().filter(|&s| s <= code.len()) {
            for byte in [0x90u8, 0xCC] {
                let want = ref_pad_run(code, start, code.len(), byte);
                for tier in tiers() {
                    prop_assert_eq!(
                        pad_run_end(code, start, code.len(), byte, tier),
                        want,
                        "pad_run_end {:?} start={} byte={:#x}", tier, start, byte
                    );
                }
            }
        }
    }
}
