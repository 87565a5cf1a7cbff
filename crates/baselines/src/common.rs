//! Shared front-end for the baseline identifiers.
//!
//! Every tool consumes the same [`Prepared`] view — one PARSE and one
//! sweep per binary, shared with FunSeeker itself — instead of
//! re-decoding the image per tool. The comparison tools read the
//! instruction stream, so their callers prepare with it
//! ([`prepare_with_stream`]).

use funseeker::{prepare_with_stream, FuncSet, Prepared};
use funseeker_disasm::Mode;

/// A uniform interface over all function identifiers in the comparison
/// (Table III).
pub trait FunctionIdentifier {
    /// Tool name as it appears in result tables.
    fn name(&self) -> &'static str;

    /// Identifies function entry addresses from a prepared binary,
    /// reusing its shared sweep index.
    fn identify_prepared(&self, prepared: &Prepared<'_>) -> Result<FuncSet, funseeker::Error>;

    /// Identifies function entry addresses in a raw ELF image.
    fn identify(&self, bytes: &[u8]) -> Result<FuncSet, funseeker::Error> {
        self.identify_prepared(&prepare_with_stream(bytes)?)
    }
}

/// FDE `pc_begin` values that land inside the analyzed code.
pub fn fde_begins_in_code<'p>(p: &'p Prepared<'_>) -> impl Iterator<Item = u64> + 'p {
    p.parsed.fde_ranges.iter().map(|&(b, _)| b).filter(|&a| p.parsed.in_code(a))
}

/// Up to `max` raw bytes starting at `addr`, clamped to the end of the
/// containing code region.
pub fn window_at<'d>(p: &Prepared<'d>, addr: u64, max: usize) -> Option<&'d [u8]> {
    let region = p.parsed.code.region_of(addr)?;
    let avail = usize::try_from(region.end() - addr).unwrap_or(usize::MAX).min(max);
    p.parsed.code.bytes_at(addr, avail)
}

/// Does `addr` start with a classic frame prologue?
///
/// Matches the byte shapes compilers emit with frame pointers enabled,
/// optionally preceded by an end-branch (tools match the pattern
/// syntactically; they do not interpret the end-branch semantically):
///
/// * x86-64: `[endbr64] push rbp; mov rbp, rsp`
/// * x86:    `[endbr32] push ebp; mov ebp, esp`
pub fn has_frame_prologue(p: &Prepared<'_>, addr: u64) -> bool {
    let Some(head) = window_at(p, addr, 8) else { return false };
    let body = if head.get(..3) == Some(&[0xf3, 0x0f, 0x1e]) && head.len() > 4 {
        &head[4..]
    } else {
        head
    };
    match p.parsed.mode() {
        Mode::Bits64 => body.starts_with(&[0x55, 0x48, 0x89, 0xe5]),
        Mode::Bits32 => body.starts_with(&[0x55, 0x89, 0xe5]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker::parse::Parsed;

    fn prepared_of(text: &'static [u8], wide: bool) -> Prepared<'static> {
        Prepared::from_parsed(Parsed::from_region(0x1000, text, wide))
    }

    #[test]
    fn frame_prologue_detection() {
        // endbr64; push rbp; mov rbp, rsp
        static A: &[u8] = &[0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0x48, 0x89, 0xe5, 0xc3];
        let p = prepared_of(A, true);
        assert!(has_frame_prologue(&p, 0x1000));
        assert!(has_frame_prologue(&p, 0x1004), "bare push rbp; mov rbp,rsp also matches");
        assert!(!has_frame_prologue(&p, 0x1005));

        static B: &[u8] = &[0x55, 0x89, 0xe5, 0xc3, 0x90, 0x90, 0x90, 0x90];
        let p = prepared_of(B, false);
        assert!(has_frame_prologue(&p, 0x1000));
        assert!(!has_frame_prologue(&p, 0x1001));
    }

    #[test]
    fn frameless_entry_is_not_a_prologue() {
        // endbr64; sub rsp, 0x18 — the O2 shape.
        static C: &[u8] = &[0xf3, 0x0f, 0x1e, 0xfa, 0x48, 0x83, 0xec, 0x18, 0xc3];
        let p = prepared_of(C, true);
        assert!(!has_frame_prologue(&p, 0x1000));
    }

    #[test]
    fn prepares_own_executable() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        let p = prepare_with_stream(&bytes).unwrap();
        assert!(!p.parsed.fde_ranges.is_empty(), "rustc emits FDEs");
        assert!(fde_begins_in_code(&p).next().is_some());
        assert!(p.index.has_stream());
        assert!(p.index.insns().len() > 1000);
        assert!(!p.index.call_targets.is_empty());
    }

    #[test]
    fn window_clamps_to_region_end() {
        static D: &[u8] = &[0x90, 0x90, 0x90];
        let p = prepared_of(D, true);
        assert_eq!(window_at(&p, 0x1001, 16), Some(&D[1..]));
        assert_eq!(window_at(&p, 0x1003, 16), None, "one past the end is outside the region");
        assert_eq!(window_at(&p, 0x0fff, 16), None);
    }
}
