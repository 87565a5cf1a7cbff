//! Function *boundary* estimation on top of identified entries.
//!
//! The paper scopes FunSeeker to function **starts** — the metric IDA,
//! Ghidra and FETCH are compared on. Downstream consumers (CFG builders,
//! patchers) usually want `[start, end)` ranges too. This module derives
//! them with the standard convention: a function extends from its entry
//! to the last reachable-by-fallthrough instruction before the next
//! entry, with trailing padding peeled off.

use std::borrow::Borrow;

use funseeker_disasm::InsnKind;

use crate::analyzer::Prepared;

/// One estimated function extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionBounds {
    /// Entry address.
    pub start: u64,
    /// One past the last instruction byte attributed to the function
    /// (padding excluded).
    pub end: u64,
}

impl FunctionBounds {
    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range is empty (an entry with no decodable body).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Derives boundaries for a set of identified entries.
///
/// `entries` is any iterable of entry addresses — the
/// [`crate::Analysis::functions`] set, a sorted slice, an array literal;
/// it is sorted and deduplicated internally.
///
/// Instructions between one entry and the next belong to the earlier
/// function; trailing `NOP`/`INT3` alignment padding is trimmed. A
/// function never extends past the end of its code region: the last
/// entry in `.text` stops at `.text`'s end even when `.fini` follows.
///
/// Reads the instruction stream of the shared [`Prepared::index`],
/// which the first stream reader builds.
pub fn estimate_bounds<I>(prepared: &Prepared<'_>, entries: I) -> Vec<FunctionBounds>
where
    I: IntoIterator,
    I::Item: Borrow<u64>,
{
    let mut starts: Vec<u64> = entries.into_iter().map(|e| *e.borrow()).collect();
    starts.sort_unstable();
    starts.dedup();
    let (_, code_end) = prepared.parsed.code.bounds();

    let mut out = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let region_end = prepared.parsed.code.region_of(start).map(|r| r.end()).unwrap_or(code_end);
        let limit = starts.get(i + 1).copied().unwrap_or(region_end).min(region_end);
        // Walk instructions in [start, limit), remembering the last
        // non-padding one.
        let mut end = start;
        for insn in prepared.index.insns_in(start, limit) {
            match insn.kind {
                InsnKind::Nop | InsnKind::Int3 => {}
                _ => end = insn.end(),
            }
        }
        out.push(FunctionBounds { start, end: end.max(start) });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Parsed;

    fn prepared(text: &[u8], addr: u64) -> Prepared<'_> {
        Prepared::from_parsed(Parsed::from_region(addr, text, true))
    }

    #[test]
    fn bounds_trim_padding() {
        // f0: endbr64; ret; [nop pad ×3] f1: endbr64; xor eax,eax; ret
        let code = [
            0xf3, 0x0f, 0x1e, 0xfa, 0xc3, // 0x1000..0x1005
            0x90, 0x90, 0x90, // padding
            0xf3, 0x0f, 0x1e, 0xfa, 0x31, 0xc0, 0xc3, // 0x1008..
        ];
        let p = prepared(&code, 0x1000);
        let bounds = estimate_bounds(&p, [0x1000u64, 0x1008]);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0], FunctionBounds { start: 0x1000, end: 0x1005 });
        assert_eq!(bounds[1], FunctionBounds { start: 0x1008, end: 0x100f });
        assert_eq!(bounds[0].len(), 5);
        assert!(!bounds[0].is_empty());
    }

    #[test]
    fn last_function_extends_to_region_end() {
        let code = [0xf3, 0x0f, 0x1e, 0xfa, 0x31, 0xc0, 0xc3];
        let p = prepared(&code, 0x2000);
        let bounds = estimate_bounds(&p, [0x2000u64]);
        assert_eq!(bounds[0].end, 0x2007);
    }

    #[test]
    fn bounds_stop_at_region_boundary() {
        use crate::parse::{CodeRegion, CodeView};
        // One entry in region A; region B follows with live code. The
        // function must not absorb region B.
        let a = [0xf3u8, 0x0f, 0x1e, 0xfa, 0xc3];
        let b = [0x31u8, 0xc0, 0xc3];
        let mut parsed = Parsed::from_region(0, &[], true);
        parsed.code = CodeView::new(vec![
            CodeRegion { name: ".a".into(), addr: 0x1000, bytes: &a },
            CodeRegion { name: ".b".into(), addr: 0x1008, bytes: &b },
        ]);
        let p = Prepared::from_parsed(parsed);
        let bounds = estimate_bounds(&p, [0x1000u64]);
        assert_eq!(bounds[0], FunctionBounds { start: 0x1000, end: 0x1005 });
    }

    #[test]
    fn corpus_bounds_cover_ground_truth_sizes() {
        use funseeker_corpus::{Dataset, DatasetParams};
        let ds = Dataset::generate(&DatasetParams::tiny(), 3);
        for bin in ds.binaries.iter().take(4) {
            let prepared = crate::analyzer::prepare(&bin.bytes).unwrap();
            let truth = bin.truth.eval_entries();
            let bounds = estimate_bounds(&prepared, &truth);
            for (b, f) in bounds.iter().zip(bin.truth.functions.iter().filter(|f| !f.is_part)) {
                assert_eq!(b.start, f.addr);
                // The estimate may absorb an adjacent fragment, but never
                // undershoots the function's real code.
                assert!(b.len() >= f.size, "{}: estimated {} < real {}", f.name, b.len(), f.size);
            }
        }
    }
}
