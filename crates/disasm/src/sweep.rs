//! Linear-sweep disassembly (§IV-B of the paper).

use crate::decode::decode_full;
use crate::insn::Insn;
use crate::mode::Mode;

/// Iterator performing linear-sweep disassembly over a code section.
///
/// Decoding starts at the section base and proceeds instruction by
/// instruction. On a decode error the sweep **advances one byte and
/// resumes**, exactly as the paper specifies; such bytes produce no item.
///
/// It decodes with the full table-driven decoder alone, never the fast
/// path, so it is an independent reference for the sweeps that do.
///
/// ```
/// use funseeker_disasm::{LinearSweep, InsnKind, Mode};
/// // endbr64; ret
/// let code = [0xf3, 0x0f, 0x1e, 0xfa, 0xc3];
/// let insns: Vec<_> = LinearSweep::new(&code, 0x1000, Mode::Bits64).collect();
/// assert_eq!(insns.len(), 2);
/// assert_eq!(insns[0].kind, InsnKind::Endbr64);
/// assert_eq!(insns[1].addr, 0x1004);
/// ```
#[derive(Debug, Clone)]
pub struct LinearSweep<'a> {
    code: &'a [u8],
    base: u64,
    offset: usize,
    mode: Mode,
    errors: usize,
}

impl<'a> LinearSweep<'a> {
    /// Sweeps `code`, which is loaded at virtual address `base`.
    pub fn new(code: &'a [u8], base: u64, mode: Mode) -> Self {
        LinearSweep { code, base, offset: 0, mode, errors: 0 }
    }

    /// Number of byte positions skipped due to decode errors so far.
    pub fn error_count(&self) -> usize {
        self.errors
    }

    /// Current offset into the section.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl Iterator for LinearSweep<'_> {
    type Item = Insn;

    fn next(&mut self) -> Option<Insn> {
        while self.offset < self.code.len() {
            // Wrapping: hostile section addresses can sit near u64::MAX;
            // address math is modulo 2^64 like everywhere else.
            let addr = self.base.wrapping_add(self.offset as u64);
            match decode_full(&self.code[self.offset..], addr, self.mode) {
                Ok(insn) => {
                    self.offset += insn.len as usize;
                    return Some(insn);
                }
                Err(_) => {
                    // §IV-B: increase the program counter by one and resume.
                    self.offset += 1;
                    self.errors += 1;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::InsnKind;

    #[test]
    fn sweeps_contiguous_code() {
        // endbr64; push rbp; mov rbp,rsp; call +0; leave; ret
        let code = [
            0xf3, 0x0f, 0x1e, 0xfa, // endbr64
            0x55, // push rbp
            0x48, 0x89, 0xe5, // mov rbp, rsp
            0xe8, 0x00, 0x00, 0x00, 0x00, // call next
            0xc9, // leave
            0xc3, // ret
        ];
        let insns: Vec<_> = LinearSweep::new(&code, 0x4000, Mode::Bits64).collect();
        let kinds: Vec<_> = insns.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                InsnKind::Endbr64,
                InsnKind::PushReg { reg: 5 },
                InsnKind::Other,
                InsnKind::CallRel { target: 0x400d },
                InsnKind::Leave,
                InsnKind::Ret,
            ]
        );
        // Back-to-back coverage: each instruction starts where the
        // previous one ended.
        for pair in insns.windows(2) {
            assert_eq!(pair[0].end(), pair[1].addr);
        }
    }

    #[test]
    fn resyncs_after_bad_byte() {
        // An invalid-in-64-bit opcode (0x06) embedded between valid code.
        let code = [
            0x90, // nop
            0x06, // bad in 64-bit → skipped
            0xc3, // ret
        ];
        let mut sweep = LinearSweep::new(&code, 0, Mode::Bits64);
        let insns: Vec<_> = sweep.by_ref().collect();
        assert_eq!(insns.len(), 2);
        assert_eq!(insns[1].kind, InsnKind::Ret);
        assert_eq!(insns[1].addr, 2);
        assert_eq!(sweep.error_count(), 1);
    }

    #[test]
    fn truncated_tail_is_skipped_byte_by_byte() {
        // A call opcode with no room for its displacement.
        let code = [0xe8, 0x01, 0x02];
        let mut sweep = LinearSweep::new(&code, 0, Mode::Bits64);
        let insns: Vec<_> = sweep.by_ref().collect();
        // 0xE8 fails (truncated), then 0x01 needs a ModRM (truncated at
        // the last byte? 0x01 0x02 = add [rdx], eax — 2 bytes, fits).
        assert!(!insns.is_empty());
        assert!(sweep.error_count() >= 1);
        // Sweep always terminates and never reads past the buffer.
        assert_eq!(sweep.next(), None);
    }

    #[test]
    fn empty_input() {
        assert_eq!(LinearSweep::new(&[], 0, Mode::Bits64).count(), 0);
    }

    #[test]
    fn makes_progress_on_all_byte_values() {
        // Every single-byte buffer either decodes or is skipped — the
        // sweep must terminate for all of them.
        for b in 0..=255u8 {
            for mode in [Mode::Bits32, Mode::Bits64] {
                let code = [b];
                let n = LinearSweep::new(&code, 0, mode).count();
                assert!(n <= 1);
            }
        }
    }
}
