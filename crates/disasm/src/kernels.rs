//! Vectorized sweep kernels with runtime tier dispatch.
//!
//! The two byte scans of the sweep pipeline outside the decoder — the
//! ENDBR needle search and padding-run skipping — in four
//! implementations selected at runtime:
//!
//! * **AVX2** (`core::arch::x86_64`, 32-byte compares),
//! * **SSE2** (16-byte compares),
//! * **SWAR** (portable `u64` tricks: XOR + trailing-zeros mismatch
//!   scan, bit-folded equality masks),
//! * **Scalar** (the byte-at-a-time reference every other tier is
//!   differentially tested against).
//!
//! The active tier is detected once per process via
//! `is_x86_feature_detected!` and can be forced down with the
//! `FUNSEEKER_KERNEL_TIER` environment variable (`avx2`, `sse2`,
//! `swar`, `scalar`) so portable paths stay covered on wide hosts; every
//! kernel also takes the tier explicitly so tests and benches can pin
//! one. All tiers are bit-identical by construction and by
//! `tests/kernel_differential.rs`.

// The only unsafe code in the crate: SIMD intrinsics guarded by runtime
// feature detection.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Kernel implementation tier, in decreasing capability order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum KernelTier {
    /// 32-byte AVX2 kernels (requires runtime `avx2`).
    Avx2 = 0,
    /// 16-byte SSE2 kernels (baseline on `x86_64`).
    Sse2 = 1,
    /// Portable 8-byte SWAR kernels (any architecture).
    Swar = 2,
    /// Byte-at-a-time reference kernels.
    Scalar = 3,
}

/// Cached [`KernelTier::active`] value; `u8::MAX` = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

impl KernelTier {
    /// Every tier, widest first — the iteration order of the
    /// differential suites and benches.
    pub const ALL: [KernelTier; 4] =
        [KernelTier::Avx2, KernelTier::Sse2, KernelTier::Swar, KernelTier::Scalar];

    /// The widest tier this CPU supports.
    pub fn detect() -> KernelTier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelTier::Avx2;
            }
            // SSE2 is architecturally guaranteed on x86-64.
            KernelTier::Sse2
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelTier::Swar
        }
    }

    /// Whether this tier can run on the current CPU.
    pub fn is_supported(self) -> bool {
        self >= KernelTier::detect()
    }

    /// The tier encoded by `v` (the `repr(u8)` discriminant); values
    /// past the narrowest tier clamp to [`KernelTier::Scalar`]. This is
    /// the decode side of the one-byte caches (`ACTIVE`, the per-pool
    /// probe slot).
    pub fn from_u8(v: u8) -> KernelTier {
        match v {
            0 => KernelTier::Avx2,
            1 => KernelTier::Sse2,
            2 => KernelTier::Swar,
            _ => KernelTier::Scalar,
        }
    }

    /// The tier the sweep uses: [`KernelTier::detect`], clamped down by
    /// the `FUNSEEKER_KERNEL_TIER` environment variable when set
    /// (unknown values are ignored; a request *above* the CPU's
    /// capability is clamped to it). Resolved once per process.
    pub fn active() -> KernelTier {
        match ACTIVE.load(Ordering::Relaxed) {
            u8::MAX => {
                let detected = KernelTier::detect();
                let tier = match std::env::var("FUNSEEKER_KERNEL_TIER").as_deref() {
                    Ok("avx2") => KernelTier::Avx2.max(detected),
                    Ok("sse2") => KernelTier::Sse2.max(detected),
                    Ok("swar") => KernelTier::Swar.max(detected),
                    Ok("scalar") => KernelTier::Scalar.max(detected),
                    _ => detected,
                };
                ACTIVE.store(tier as u8, Ordering::Relaxed);
                tier
            }
            v => KernelTier::from_u8(v),
        }
    }
}

/// All offsets in `code` where an ENDBR encoding (`F3 0F 1E FA` /
/// `F3 0F 1E FB`) begins — the whole-region needle scan that feeds
/// FILTERENDBR's candidate set before the sweep runs.
pub fn find_endbr(code: &[u8], tier: KernelTier) -> Vec<u32> {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only reachable when `is_x86_feature_detected!`
        // confirmed AVX2 (KernelTier::active/is_supported), or when a
        // test/bench pinned it on a CPU that has it.
        KernelTier::Avx2 => unsafe { avx2::find_endbr(code) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => sse2::find_endbr(code),
        KernelTier::Scalar => scalar::find_endbr(code),
        _ => swar::find_endbr(code),
    }
}

/// First index in `start..hi` whose byte differs from `byte` (`hi` when
/// the run covers the rest) — the padding-run skipper.
pub fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8, tier: KernelTier) -> usize {
    debug_assert!(start <= hi && hi <= code.len());
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `find_endbr` — the tier implies CPU support.
        KernelTier::Avx2 => unsafe { avx2::pad_run_end(code, start, hi, byte) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => sse2::pad_run_end(code, start, hi, byte),
        KernelTier::Scalar => scalar::pad_run_end(code, start, hi, byte),
        _ => swar::pad_run_end(code, start, hi, byte),
    }
}

/// Whether a verified ENDBR encoding starts at `i` (the `F3` byte).
#[inline]
fn endbr_at(code: &[u8], i: usize) -> bool {
    i + 4 <= code.len()
        && code[i] == 0xF3
        && code[i + 1] == 0x0F
        && code[i + 2] == 0x1E
        && code[i + 3] & 0xFE == 0xFA
}

/// Byte-at-a-time reference kernels.
mod scalar {
    use super::endbr_at;

    pub(super) fn find_endbr(code: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        for i in 0..code.len().saturating_sub(3) {
            if endbr_at(code, i) {
                out.push(i as u32);
            }
        }
        out
    }

    pub(super) fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
        let mut i = start;
        while i < hi && code[i] == byte {
            i += 1;
        }
        i
    }
}

/// Portable 8-byte SWAR kernels.
mod swar {
    use super::endbr_at;

    /// Splats a byte across a word.
    const fn splat(b: u8) -> u64 {
        b as u64 * 0x0101_0101_0101_0101
    }

    /// Exact per-byte zero mask: bit 0 of each byte set iff that byte
    /// of `x` is zero (OR-fold each byte's bits into its LSB, invert).
    #[inline]
    fn zero_byte_lsbs(x: u64) -> u64 {
        let mut y = x | (x >> 4);
        y |= y >> 2;
        y |= y >> 1;
        !y & splat(0x01)
    }

    #[inline]
    fn load_le(code: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(code[i..i + 8].try_into().expect("8-byte window"))
    }

    pub(super) fn find_endbr(code: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i + 8 <= code.len() {
            let mut hits = zero_byte_lsbs(load_le(code, i) ^ splat(0xF3));
            while hits != 0 {
                let k = i + (hits.trailing_zeros() >> 3) as usize;
                if endbr_at(code, k) {
                    out.push(k as u32);
                }
                hits &= hits - 1;
            }
            i += 8;
        }
        while i + 4 <= code.len() {
            if endbr_at(code, i) {
                out.push(i as u32);
            }
            i += 1;
        }
        out
    }

    pub(super) fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
        let pat = splat(byte);
        let mut i = start;
        while i + 8 <= hi {
            let x = load_le(code, i) ^ pat;
            if x != 0 {
                return i + (x.trailing_zeros() >> 3) as usize;
            }
            i += 8;
        }
        while i < hi && code[i] == byte {
            i += 1;
        }
        i
    }
}

/// 16-byte SSE2 kernels (baseline on x86-64, no runtime gate needed).
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::*;

    use super::endbr_at;

    /// Per-byte equality mask of a 16-byte chunk against a splatted
    /// byte, as 16 packed bits.
    ///
    /// SAFETY of the loads: callers pass `i` with `i + 16 <= code.len()`.
    #[inline]
    fn eq_mask16(code: &[u8], i: usize, pat: __m128i) -> u32 {
        debug_assert!(i + 16 <= code.len());
        // SAFETY: 16 readable bytes at `code[i..]` per the caller
        // contract; loadu has no alignment requirement.
        let v = unsafe { _mm_loadu_si128(code.as_ptr().add(i).cast()) };
        (unsafe { _mm_movemask_epi8(_mm_cmpeq_epi8(v, pat)) }) as u32 & 0xFFFF
    }

    #[inline]
    fn splat(b: u8) -> __m128i {
        // SAFETY: _mm_set1_epi8 is available on every x86-64 CPU (SSE2
        // baseline) and has no memory operands.
        unsafe { _mm_set1_epi8(b as i8) }
    }

    pub(super) fn find_endbr(code: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        let pat = splat(0xF3);
        let mut i = 0usize;
        while i + 16 <= code.len() {
            let mut hits = eq_mask16(code, i, pat);
            while hits != 0 {
                let k = i + hits.trailing_zeros() as usize;
                if endbr_at(code, k) {
                    out.push(k as u32);
                }
                hits &= hits - 1;
            }
            i += 16;
        }
        while i + 4 <= code.len() {
            if endbr_at(code, i) {
                out.push(i as u32);
            }
            i += 1;
        }
        out
    }

    pub(super) fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
        let pat = splat(byte);
        let mut i = start;
        while i + 16 <= hi {
            let eq = eq_mask16(code, i, pat);
            if eq != 0xFFFF {
                return i + (!eq).trailing_zeros() as usize;
            }
            i += 16;
        }
        while i < hi && code[i] == byte {
            i += 1;
        }
        i
    }
}

/// 32-byte AVX2 kernels. Every function is `target_feature(avx2)` —
/// callable only after runtime detection.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    use super::endbr_at;
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn find_endbr(code: &[u8]) -> Vec<u32> {
        let mut out = Vec::new();
        let pat = _mm256_set1_epi8(0xF3u8 as i8);
        let mut i = 0usize;
        while i + 32 <= code.len() {
            // SAFETY: 32 readable bytes at code[i..] by the loop bound.
            let v = _mm256_loadu_si256(code.as_ptr().add(i).cast());
            let mut hits = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, pat)) as u32;
            while hits != 0 {
                let k = i + hits.trailing_zeros() as usize;
                if endbr_at(code, k) {
                    out.push(k as u32);
                }
                hits &= hits - 1;
            }
            i += 32;
        }
        while i + 4 <= code.len() {
            if endbr_at(code, i) {
                out.push(i as u32);
            }
            i += 1;
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pad_run_end(code: &[u8], start: usize, hi: usize, byte: u8) -> usize {
        let pat = _mm256_set1_epi8(byte as i8);
        let mut i = start;
        while i + 32 <= hi {
            // SAFETY: 32 readable bytes at code[i..] by the loop bound.
            let v = _mm256_loadu_si256(code.as_ptr().add(i).cast());
            let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, pat)) as u32;
            if eq != u32::MAX {
                return i + (!eq).trailing_zeros() as usize;
            }
            i += 32;
        }
        while i < hi && code[i] == byte {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn supported_tiers() -> Vec<KernelTier> {
        KernelTier::ALL.into_iter().filter(|t| t.is_supported()).collect()
    }

    #[test]
    fn tier_order_and_detection() {
        assert!(KernelTier::Avx2 < KernelTier::Scalar);
        let d = KernelTier::detect();
        assert!(d.is_supported());
        assert!(KernelTier::Scalar.is_supported());
        assert!(KernelTier::Swar.is_supported());
        // active() resolves and is stable.
        assert_eq!(KernelTier::active(), KernelTier::active());
        assert!(KernelTier::active().is_supported());
    }

    #[test]
    fn find_endbr_tiers_agree_on_synthetic_and_random_input() {
        let mut code = Vec::new();
        // ENDBR at every alignment class, plus bait (F3 without the
        // tail, truncated needles at the very end).
        for k in 0..67usize {
            code.extend(std::iter::repeat_n(0x55, k % 5));
            code.extend_from_slice(&[0xF3, 0x0F, 0x1E, if k % 2 == 0 { 0xFA } else { 0xFB }]);
            code.push(0xF3);
        }
        let mut x = 0x5eedu64;
        code.extend((0..999).map(|_| xorshift(&mut x) as u8));
        code.extend_from_slice(&[0xF3, 0x0F, 0x1E]); // truncated at EOF
        let want = scalar::find_endbr(&code);
        assert!(!want.is_empty());
        for tier in supported_tiers() {
            assert_eq!(find_endbr(&code, tier), want, "{tier:?}");
        }
    }

    #[test]
    fn pad_run_end_tiers_agree_at_every_alignment() {
        let mut code = vec![0xC3u8];
        code.extend(std::iter::repeat_n(0x90u8, 200));
        code.push(0xC3);
        code.extend(std::iter::repeat_n(0xCCu8, 37));
        for start in 1..code.len() {
            for hi in [start, start + 1, code.len().min(start + 33), code.len()] {
                for byte in [0x90u8, 0xCC] {
                    let want = scalar::pad_run_end(&code, start, hi, byte);
                    for tier in supported_tiers() {
                        assert_eq!(
                            pad_run_end(&code, start, hi, byte, tier),
                            want,
                            "{tier:?} start={start} hi={hi} byte={byte:#x}"
                        );
                    }
                }
            }
        }
    }
}
