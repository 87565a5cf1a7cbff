//! The instruction decoder.
//!
//! A table-driven x86/x86-64 *length* decoder with semantic classification
//! of the instructions relevant to function identification. It handles
//! legacy prefixes, REX, the `0F`/`0F 38`/`0F 3A` escape maps, VEX
//! (2- and 3-byte) and EVEX encodings, 16-bit addressing via `67` in
//! 32-bit mode, and the hardware 15-byte length limit.

use crate::error::DecodeError;
use crate::insn::{Insn, InsnKind};
use crate::mode::Mode;
use crate::stream::{
    kind_from, TAG_CALL_IND, TAG_CALL_REL, TAG_ENDBR32, TAG_ENDBR64, TAG_HLT, TAG_INT3, TAG_JCC,
    TAG_JMP_IND, TAG_JMP_REL, TAG_LEAVE, TAG_NOP, TAG_OTHER, TAG_PUSH, TAG_RET,
};
use crate::tables::{
    BAD, ENTER, FAR, GRP3, I16, I8, INV64, IV, IZ, M, MOFFS, ONE_BYTE, PFX, TWO_BYTE,
};

/// Hardware limit on total instruction length.
const MAX_LEN: usize = 15;

struct Cursor<'a> {
    code: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Result<u8, DecodeError> {
        if self.pos >= MAX_LEN {
            return Err(DecodeError::TooLong);
        }
        self.code.get(self.pos).copied().ok_or(DecodeError::Truncated)
    }

    fn take(&mut self) -> Result<u8, DecodeError> {
        let b = self.peek()?;
        self.pos += 1;
        Ok(b)
    }

    fn skip(&mut self, n: usize) -> Result<(), DecodeError> {
        if self.pos + n > MAX_LEN {
            return Err(DecodeError::TooLong);
        }
        if self.pos + n > self.code.len() {
            return Err(DecodeError::Truncated);
        }
        self.pos += n;
        Ok(())
    }

    fn take_le(&mut self, n: usize) -> Result<u64, DecodeError> {
        if self.pos + n > MAX_LEN {
            return Err(DecodeError::TooLong);
        }
        let bytes = self.code.get(self.pos..self.pos + n).ok_or(DecodeError::Truncated)?;
        self.pos += n;
        let mut v = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            v |= u64::from(b) << (8 * i);
        }
        Ok(v)
    }
}

fn sign_extend(v: u64, bytes: usize) -> i64 {
    let bits = bytes * 8;
    if bits >= 64 {
        return v as i64;
    }
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

#[derive(Default)]
struct Prefixes {
    opsize16: bool,
    addrsize: bool,
    rep: bool, // F3
    ds: bool,  // 3E — doubles as NOTRACK on indirect branches
    rex: u8,   // 0 when absent
}

impl Prefixes {
    fn rex_w(&self) -> bool {
        self.rex & 0x08 != 0
    }
    fn rex_b(&self) -> bool {
        self.rex & 0x01 != 0
    }
}

/// Consumes ModRM + SIB + displacement, returning the ModRM byte.
fn modrm(cur: &mut Cursor<'_>, addr16: bool) -> Result<u8, DecodeError> {
    let byte = cur.take()?;
    let mode_bits = byte >> 6;
    let rm = byte & 7;
    if mode_bits == 3 {
        return Ok(byte);
    }
    if addr16 {
        // 16-bit addressing (67-prefixed code in 32-bit mode).
        match (mode_bits, rm) {
            (0, 6) => cur.skip(2)?,
            (0, _) => {}
            (1, _) => cur.skip(1)?,
            (2, _) => cur.skip(2)?,
            // invariant: mode_bits = byte >> 6 & 3 and mode 3 returned above.
            _ => unreachable!(),
        }
    } else {
        let has_sib = rm == 4;
        let sib_base = if has_sib { cur.take()? & 7 } else { 0 };
        match mode_bits {
            0 => {
                if (has_sib && sib_base == 5) || (!has_sib && rm == 5) {
                    cur.skip(4)?; // disp32 (RIP-relative in 64-bit mode)
                }
            }
            1 => cur.skip(1)?,
            2 => cur.skip(4)?,
            // invariant: mode_bits = byte >> 6 & 3 and mode 3 returned above.
            _ => unreachable!(),
        }
    }
    Ok(byte)
}

/// Decodes the instruction at the start of `code`, which sits at virtual
/// address `addr`.
///
/// `code` should extend to the end of the section (or at least 15 bytes
/// past the instruction) so length decoding is never artificially cut
/// short.
///
/// ```
/// use funseeker_disasm::{decode, InsnKind, Mode};
/// let insn = decode(&[0xf3, 0x0f, 0x1e, 0xfa], 0x1000, Mode::Bits64).unwrap();
/// assert_eq!(insn.len, 4);
/// assert_eq!(insn.kind, InsnKind::Endbr64);
/// ```
pub fn decode(code: &[u8], addr: u64, mode: Mode) -> Result<Insn, DecodeError> {
    match decode_fast_slice(code, addr, mode) {
        Some((len, tag, target)) => Ok(Insn { addr, len, kind: kind_from(tag, target) }),
        None => decode_full(code, addr, mode),
    }
}

/// [`decode_fast_win`] on a slice of any length: the first (up to) 8
/// bytes of `code`, zero-padded, form the window. Every byte an
/// accepted result depends on sits inside its length, so the result
/// stands when that length fits in `code`; otherwise the fast path
/// declines and [`decode_full`] reports the canonical `Truncated`.
#[inline]
pub(crate) fn decode_fast_slice(code: &[u8], addr: u64, mode: Mode) -> Option<(u8, u8, u64)> {
    let mut win = [0u8; 8];
    let n = code.len().min(8);
    win[..n].copy_from_slice(&code[..n]);
    let fast = decode_fast_win(u64::from_le_bytes(win), addr, mode)?;
    (usize::from(fast.0) <= code.len()).then_some(fast)
}

/// First-byte dispatch classes for the fast path. Every class is a
/// complete, prefix-free encoding whose length and classification are
/// fully determined by the opcode byte (plus ModRM addressing bytes and
/// fixed-width immediates where noted) in *both* operating modes, with
/// at most a single REX prefix in front (64-bit mode only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FastClass {
    /// Not fast-decodable: defer to the full decoder.
    No,
    Nop,
    /// One-byte instruction classified `Other` (`pop r`, `xchg`,
    /// string ops, flag ops, …).
    One,
    /// `40..4F`: `inc`/`dec r` in 32-bit mode, REX in 64-bit mode —
    /// dispatch re-enters on the next byte with the REX recorded.
    RexOrInc,
    /// `66`/`F2`/`F3`: the only legacy prefixes the fast path follows,
    /// and only into the `0F` map (ENDBR, 66-prefixed long NOPs, scalar
    /// SSE). Any other prefixed encoding defers.
    Pfx,
    Ret,
    /// `ret`/`retf imm16` (`C2`/`CA`): imm16 follows, still `Ret`.
    RetImm16,
    Leave,
    Int3,
    Hlt,
    /// `push r` — register number is `byte - 0x50`, + 8 under REX.B.
    Push,
    /// Conditional branch with rel8 (`70..7F` and the `LOOP*`/`JCXZ`
    /// family `E0..E3`, which the classifier folds into `Jcc`).
    Jcc8,
    JmpRel8,
    CallRel32,
    JmpRel32,
    /// Opcode + imm8, classified `Other` (`al`-form ALU, `push imm8`,
    /// `mov r8, imm8`, `int n`, `in`/`out`).
    Imm8,
    /// Opcode + imm32, classified `Other` (`eAX`-form ALU, `push immz`,
    /// `test eAX`). The `z` immediate stays 4 bytes even under REX.W.
    ImmZ,
    /// `mov r, immv` (`B8..BF`): imm width is 4, or 8 under REX.W.
    MovImmV,
    /// Opcode + ModRM (+SIB/disp), no immediate, classified `Other`:
    /// the ALU register forms, `test`/`xchg`/`mov`/`lea`/`pop r/m`,
    /// shift groups, x87 escapes, `movsxd`/`arpl`, grp4.
    Rm,
    /// Opcode + ModRM + imm8, classified `Other` (grp1/grp2 imm8 forms,
    /// `imul imm8`, `mov r/m8, imm8`).
    RmImm8,
    /// Opcode + ModRM + imm32, classified `Other` (grp1 immz, `imul
    /// immz`, `mov r/m, immz`).
    RmImmZ,
    /// `0F` escape: common two-byte-map encodings (long NOPs, rel32
    /// `Jcc`, plain ModRM SSE/`movzx`/… forms) decode inline; the rest
    /// defer to the full decoder.
    Esc0F,
    /// `F6`: grp3 r/m8 — imm8 present iff ModRM.reg is 0 or 1.
    Grp3b,
    /// `F7`: grp3 r/m — imm32 present iff ModRM.reg is 0 or 1.
    Grp3z,
    /// `FF`: grp5 — `inc`/`dec`/`push r/m` plus the indirect branches
    /// (`call`/`jmp r/m`, classified by ModRM.reg; `/7` is undefined).
    Grp5,
}

/// 256-entry first-byte dispatch table.
///
/// An entry is non-[`FastClass::No`] only when the byte, seen as the
/// opcode byte of a prefix-free (or single-REX) instruction, decodes
/// identically to the full decoder: same length, same classification,
/// same error behavior via deferral. Prefix bytes, mode-dependent
/// opcodes (`INV64`, VEX/EVEX escapes), the irregular groups (`F6`/`F7`
/// with their `reg`-dependent immediate, `FF` with its branch
/// classification), and everything with a mode- or prefix-sensitive
/// length stay [`FastClass::No`] and take the slow path.
const FAST: [FastClass; 256] = {
    let mut t = [FastClass::No; 256];
    // 0x00-0x3F ALU block: four ModRM forms, then op al,imm8 / op
    // eAX,immz. Row tails (push/pop seg, BCD, prefixes, the 0F escape)
    // fall outside the six entries the loop fills.
    let mut base = 0;
    while base < 0x40 {
        t[base] = FastClass::Rm;
        t[base + 1] = FastClass::Rm;
        t[base + 2] = FastClass::Rm;
        t[base + 3] = FastClass::Rm;
        t[base + 4] = FastClass::Imm8;
        t[base + 5] = FastClass::ImmZ;
        base += 8;
    }
    t[0x0F] = FastClass::Esc0F;
    let mut b = 0x40;
    while b <= 0x4F {
        t[b] = FastClass::RexOrInc;
        b += 1;
    }
    t[0x66] = FastClass::Pfx;
    t[0xF2] = FastClass::Pfx;
    t[0xF3] = FastClass::Pfx;
    b = 0x50;
    while b <= 0x57 {
        t[b] = FastClass::Push;
        b += 1;
    }
    b = 0x58;
    while b <= 0x5F {
        t[b] = FastClass::One; // pop r
        b += 1;
    }
    t[0x63] = FastClass::Rm; // movsxd / arpl — ModRM in both modes
    t[0x68] = FastClass::ImmZ; // push immz
    t[0x69] = FastClass::RmImmZ; // imul r, r/m, immz
    t[0x6A] = FastClass::Imm8; // push imm8
    t[0x6B] = FastClass::RmImm8; // imul r, r/m, imm8
    b = 0x6C;
    while b <= 0x6F {
        t[b] = FastClass::One; // ins/outs
        b += 1;
    }
    b = 0x70;
    while b <= 0x7F {
        t[b] = FastClass::Jcc8;
        b += 1;
    }
    t[0x80] = FastClass::RmImm8; // grp1 r/m8, imm8
    t[0x81] = FastClass::RmImmZ; // grp1 r/m, immz (0x82 is INV64)
    t[0x83] = FastClass::RmImm8; // grp1 r/m, imm8
    b = 0x84;
    while b <= 0x8F {
        t[b] = FastClass::Rm; // test/xchg/mov family/lea/pop r/m
        b += 1;
    }
    t[0x90] = FastClass::Nop;
    b = 0x91;
    while b <= 0x99 {
        t[b] = FastClass::One; // xchg eAX,r / cwde / cdq
        b += 1;
    }
    b = 0x9B;
    while b <= 0x9F {
        t[b] = FastClass::One; // wait/pushf/popf/sahf/lahf
        b += 1;
    }
    b = 0xA4;
    while b <= 0xA7 {
        t[b] = FastClass::One; // movs/cmps
        b += 1;
    }
    t[0xA8] = FastClass::Imm8; // test al, imm8
    t[0xA9] = FastClass::ImmZ; // test eAX, immz
    b = 0xAA;
    while b <= 0xAF {
        t[b] = FastClass::One; // stos/lods/scas
        b += 1;
    }
    b = 0xB0;
    while b <= 0xB7 {
        t[b] = FastClass::Imm8; // mov r8, imm8
        b += 1;
    }
    b = 0xB8;
    while b <= 0xBF {
        t[b] = FastClass::MovImmV; // mov r, immv
        b += 1;
    }
    t[0xC0] = FastClass::RmImm8; // shift grp2 imm8
    t[0xC1] = FastClass::RmImm8;
    t[0xC2] = FastClass::RetImm16;
    t[0xC3] = FastClass::Ret;
    t[0xC6] = FastClass::RmImm8; // mov r/m8, imm8
    t[0xC7] = FastClass::RmImmZ; // mov r/m, immz
    t[0xC9] = FastClass::Leave;
    t[0xCA] = FastClass::RetImm16;
    t[0xCB] = FastClass::Ret;
    t[0xCC] = FastClass::Int3;
    t[0xCD] = FastClass::Imm8; // int imm8
    t[0xCF] = FastClass::One; // iret
    b = 0xD0;
    while b <= 0xD3 {
        t[b] = FastClass::Rm; // shift grp2
        b += 1;
    }
    t[0xD7] = FastClass::One; // xlat
    b = 0xD8;
    while b <= 0xDF {
        t[b] = FastClass::Rm; // x87 escapes
        b += 1;
    }
    b = 0xE0;
    while b <= 0xE3 {
        t[b] = FastClass::Jcc8;
        b += 1;
    }
    b = 0xE4;
    while b <= 0xE7 {
        t[b] = FastClass::Imm8; // in/out imm8
        b += 1;
    }
    t[0xE8] = FastClass::CallRel32;
    t[0xE9] = FastClass::JmpRel32;
    t[0xEB] = FastClass::JmpRel8;
    b = 0xEC;
    while b <= 0xEF {
        t[b] = FastClass::One; // in/out dx
        b += 1;
    }
    t[0xF1] = FastClass::One; // int1
    t[0xF4] = FastClass::Hlt;
    t[0xF5] = FastClass::One; // cmc
    t[0xF6] = FastClass::Grp3b;
    t[0xF7] = FastClass::Grp3z;
    b = 0xF8;
    while b <= 0xFD {
        t[b] = FastClass::One; // clc/stc/cli/sti/cld/std
        b += 1;
    }
    t[0xFE] = FastClass::Rm; // grp4 inc/dec r/m8
    t[0xFF] = FastClass::Grp5;
    t
};

// Flag bits of the [`win_info`] dispatch byte.
/// The encoding carries a ModRM byte (plus SIB/displacement).
const WI_MODRM: u8 = 1 << 0;
/// Bits 1–3: fixed immediate width in bytes (0, 1, 2, or 4).
const WI_IMM_SHIFT: u8 = 1;
/// `mov r, immv`: the 4-byte immediate widens to 8 under REX.W.
const WI_IMMV: u8 = 1 << 4;
/// grp3 (`F6`/`F7`): the immediate is present only for ModRM.reg 0/1.
const WI_GRP: u8 = 1 << 5;
/// Direct branch: the immediate is a relative displacement (its width
/// is the immediate width) and the decoded tuple carries the target.
const WI_TGT: u8 = 1 << 6;
/// Not arithmetically decodable: take the match-based dispatch.
const WI_SPECIAL: u8 = 1 << 7;

/// Per-first-byte decode recipe for the branchless windowed fast path:
/// the classes whose length is a pure function of (opcode, ModRM, REX)
/// collapse to `base + modrm + imm` driven by the flag bits above, so
/// the hot loop runs with **no data-dependent branch** on the opcode —
/// the 25-way [`FastClass`] jump table mispredicts on nearly every
/// instruction of a real byte mix. The direct rel8/rel32 branches ride
/// along ([`WI_TGT`]): their length is `base + imm` and their target is
/// a masked add. Everything length-irregular and the prefix/escape
/// re-dispatches keep the match path ([`win_special`]). Derived from
/// [`FAST`] so the two dispatchers can never disagree about coverage.
const fn win_info(is64: bool) -> [u8; 256] {
    let mut t = [WI_SPECIAL; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = match FAST[b] {
            FastClass::One
            | FastClass::Nop
            | FastClass::Ret
            | FastClass::Leave
            | FastClass::Int3
            | FastClass::Hlt
            | FastClass::Push => 0,
            // inc/dec r in 32-bit mode; a REX prefix (special) in 64-bit.
            FastClass::RexOrInc => {
                if is64 {
                    WI_SPECIAL
                } else {
                    0
                }
            }
            FastClass::RetImm16 => 2 << WI_IMM_SHIFT,
            FastClass::Imm8 => 1 << WI_IMM_SHIFT,
            FastClass::ImmZ => 4 << WI_IMM_SHIFT,
            FastClass::Jcc8 | FastClass::JmpRel8 => (1 << WI_IMM_SHIFT) | WI_TGT,
            FastClass::CallRel32 | FastClass::JmpRel32 => (4 << WI_IMM_SHIFT) | WI_TGT,
            FastClass::MovImmV => (4 << WI_IMM_SHIFT) | WI_IMMV,
            FastClass::Rm => WI_MODRM,
            FastClass::RmImm8 => WI_MODRM | (1 << WI_IMM_SHIFT),
            FastClass::RmImmZ => WI_MODRM | (4 << WI_IMM_SHIFT),
            FastClass::Grp3b => WI_MODRM | (1 << WI_IMM_SHIFT) | WI_GRP,
            FastClass::Grp3z => WI_MODRM | (4 << WI_IMM_SHIFT) | WI_GRP,
            // No, Pfx, Esc0F, Grp5.
            _ => WI_SPECIAL,
        };
        b += 1;
    }
    t
}

/// Kind tags for the branchless path, indexed by `opcode | (REX.B <<
/// 8)`: the upper index half carries the two REX.B quirks (`push r`
/// gains 8, `REX.B + 90` is `xchg`, not `nop`).
const fn win_tag(b: usize, rexb: bool) -> u8 {
    let tag = match FAST[b] {
        FastClass::Ret | FastClass::RetImm16 => TAG_RET,
        FastClass::Leave => TAG_LEAVE,
        FastClass::Int3 => TAG_INT3,
        FastClass::Hlt => TAG_HLT,
        FastClass::Nop => TAG_NOP,
        FastClass::Push => TAG_PUSH + (b as u8 - 0x50),
        FastClass::Jcc8 => TAG_JCC,
        FastClass::JmpRel8 | FastClass::JmpRel32 => TAG_JMP_REL,
        FastClass::CallRel32 => TAG_CALL_REL,
        _ => TAG_OTHER,
    };
    if rexb {
        match FAST[b] {
            FastClass::Push => TAG_PUSH + (b as u8 - 0x50) + 8,
            FastClass::Nop => TAG_OTHER,
            _ => tag,
        }
    } else {
        tag
    }
}

/// See [`win_info`].
const WIN_INFO_64: [u8; 256] = win_info(true);
/// See [`win_info`].
const WIN_INFO_32: [u8; 256] = win_info(false);

/// [`win_tag`] materialized: indexed by `opcode | (REX.B << 8)`.
const WIN_TAG: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut b = 0usize;
    while b < 256 {
        t[b] = win_tag(b, false);
        t[b + 256] = win_tag(b, true);
        b += 1;
    }
    t
};

/// ModRM + SIB + displacement length under 32/64-bit addressing (the
/// fast path never sees a `67` prefix), table form: total addressing
/// bytes for a ModRM value, or `NEEDS_SIB` when the SIB byte decides.
const NEEDS_SIB: u8 = 0xFF;

/// See [`NEEDS_SIB`].
const MODRM_LEN: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut m = 0usize;
    while m < 256 {
        let mode_bits = (m >> 6) as u8;
        let rm = (m & 7) as u8;
        t[m] = if mode_bits == 3 {
            1
        } else if rm == 4 {
            NEEDS_SIB
        } else {
            1 + match mode_bits {
                0 => {
                    if rm == 5 {
                        4
                    } else {
                        0
                    }
                }
                1 => 1,
                _ => 4,
            }
        };
        m += 1;
    }
    t
};

/// Length of ModRM + SIB + displacement: `rest`'s low byte is the ModRM
/// byte, the next byte the (potential) SIB. One table load for the
/// ~90 % of ModRM bytes without an SIB; a branch-free ALU form measured
/// slower on the sweep (EXPERIMENTS.md, "One fast decoder").
/// `decode::tests` checks all 65 536 pairs against the full decoder.
#[inline]
fn win_modrm_len(rest: u64) -> usize {
    let v = MODRM_LEN[(rest & 0xFF) as usize];
    if v != NEEDS_SIB {
        return v as usize;
    }
    let m = rest as u8;
    let sib = (rest >> 8) as u8;
    2 + match m >> 6 {
        0 => {
            if sib & 7 == 5 {
                4
            } else {
                0
            }
        }
        1 => 1,
        _ => 4,
    }
}

/// The first-byte dispatch fast path, flattened onto an 8-byte window:
/// `(length, kind tag, branch target)`, the form the sweep feeds
/// straight into [`crate::InsnStream`]. The target is meaningful only
/// for the direct-branch tags (0 otherwise).
///
/// `win` holds the first 8 instruction bytes little-endian (byte `k` of
/// the instruction is `win >> (8 * k)`). Contract: the result is `None`
/// (decline) or, whenever its length fits in the bytes that follow,
/// the packed form of what [`decode_full`] returns (`decode::tests`
/// checks it at every truncation length). Every length the table accepts
/// is computed arithmetically (≤ 12) and every byte the result depends
/// on — ModRM, SIB, branch displacement — sits inside that length and
/// within the first 8 bytes. The sweep hot loop runs this form on a
/// plain unaligned load while 16 buffer bytes remain, so every length
/// fits; near the buffer tail [`decode_fast_slice`] feeds it a
/// zero-padded window and checks the length.
///
/// Dispatch is two-level: the [`win_info`] recipe byte resolves the
/// regular classes with branch-free arithmetic on the opcode (one REX
/// fold, the recipe and ModRM-length table loads, ALU), and only the
/// irregular minority — prefixes, the `0F`
/// escape, target-bearing branches, grp5, deferrals — falls through to
/// the match-based [`win_special`].
#[inline]
pub(crate) fn decode_fast_win(win: u64, addr: u64, mode: Mode) -> Option<(u8, u8, u64)> {
    let is64 = mode.is_64();
    let b0 = win as u8;
    let is_rex = is64 && (b0 & 0xF0) == 0x40;
    let w = win >> (8 * u32::from(is_rex));
    let rex = if is_rex { b0 } else { 0 };
    let b = w as u8;
    let info = if is64 { WIN_INFO_64[b as usize] } else { WIN_INFO_32[b as usize] };
    if info & WI_SPECIAL != 0 {
        return win_special(win, addr, mode);
    }
    let rest = w >> 8;
    let reg = (rest as u8 as usize >> 3) & 7;
    let mlen = win_modrm_len(rest) & 0usize.wrapping_sub(usize::from(info & WI_MODRM));
    let mut imm = usize::from(info >> WI_IMM_SHIFT) & 7;
    // grp3 (`F6`/`F7`): no immediate unless ModRM.reg selects `test`.
    imm &= 0usize.wrapping_sub(usize::from((info & WI_GRP == 0) | (reg < 2)));
    // mov r, immv: 4 more immediate bytes under REX.W.
    imm += ((rex as usize & 8) >> 1) & 0usize.wrapping_sub(usize::from(info & WI_IMMV != 0));
    let len = 1 + usize::from(is_rex) + mlen + imm;
    let tag = WIN_TAG[b as usize | ((rex as usize & 1) << 8)];
    // Direct rel8/rel32 branches: the displacement width *is* the
    // immediate width, so one conditional move picks it, and a mask
    // zeroes the speculative target for every non-branch byte.
    let d8 = rest as u8 as i8 as i64 as u64;
    let d32 = rest as u32 as i32 as i64 as u64;
    let disp = if imm == 1 { d8 } else { d32 };
    let target = mode.mask_addr(addr.wrapping_add(len as u64).wrapping_add(disp))
        & 0u64.wrapping_sub(u64::from(info & WI_TGT != 0));
    Some((len as u8, tag, target))
}

/// Match-based windowed dispatch: the irregular-class complement of the
/// branchless path in [`decode_fast_win`] (and a complete dispatcher in
/// its own right — the split is a pure optimization).
fn win_special(win: u64, addr: u64, mode: Mode) -> Option<(u8, u8, u64)> {
    let b0 = win as u8;
    match FAST[b0 as usize] {
        FastClass::RexOrInc => {
            if !mode.is_64() {
                return Some((1, TAG_OTHER, 0));
            }
            let b1 = (win >> 8) as u8;
            let c1 = FAST[b1 as usize];
            if matches!(c1, FastClass::RexOrInc | FastClass::Pfx) {
                return None;
            }
            win_body(c1, win >> 16, addr, mode, b1, b0)
        }
        FastClass::Pfx => {
            let mut i = 1usize;
            let mut b = (win >> 8) as u8;
            if mode.is_64() && matches!(FAST[b as usize], FastClass::RexOrInc) {
                i = 2;
                b = (win >> 16) as u8;
                if matches!(FAST[b as usize], FastClass::RexOrInc) {
                    return None;
                }
            }
            if b != 0x0F {
                return None;
            }
            let op2 = (win >> (8 * (i + 1))) as u8;
            win_map0f(win >> (8 * (i + 2)), addr, mode, i + 2, op2, b0 == 0xF3, b0 == 0x66)
        }
        c => win_body(c, win >> 8, addr, mode, b0, 0),
    }
}

/// Decodes opcode byte `op` (pre-classified as `class`) with `rest`
/// holding the bytes after it. `rex` is the REX prefix byte (0 when
/// absent — a present REX is the only prefix byte the body ever sees).
#[inline]
fn win_body(
    class: FastClass,
    rest: u64,
    addr: u64,
    mode: Mode,
    op: u8,
    rex: u8,
) -> Option<(u8, u8, u64)> {
    let base = 1 + usize::from(rex != 0);
    let fin = |len: usize, tag: u8| Some((len as u8, tag, 0u64));
    match class {
        FastClass::No | FastClass::RexOrInc | FastClass::Pfx => None,
        // REX.B turns 0x90 into `xchg r8, eAX` — no longer a NOP.
        FastClass::Nop => fin(base, if rex & 1 != 0 { TAG_OTHER } else { TAG_NOP }),
        FastClass::One => fin(base, TAG_OTHER),
        FastClass::Ret => fin(base, TAG_RET),
        FastClass::RetImm16 => fin(base + 2, TAG_RET),
        FastClass::Leave => fin(base, TAG_LEAVE),
        FastClass::Int3 => fin(base, TAG_INT3),
        FastClass::Hlt => fin(base, TAG_HLT),
        FastClass::Push => fin(base, TAG_PUSH + (op - 0x50) + ((rex & 1) << 3)),
        FastClass::Jcc8 | FastClass::JmpRel8 => {
            let disp = rest as u8 as i8 as i64;
            let len = base + 1;
            let target = mode.mask_addr(addr.wrapping_add(len as u64).wrapping_add(disp as u64));
            let tag = if op == 0xEB { TAG_JMP_REL } else { TAG_JCC };
            Some((len as u8, tag, target))
        }
        FastClass::CallRel32 | FastClass::JmpRel32 => {
            let disp = rest as u32 as i32 as i64;
            let len = base + 4;
            let target = mode.mask_addr(addr.wrapping_add(len as u64).wrapping_add(disp as u64));
            let tag = if op == 0xE8 { TAG_CALL_REL } else { TAG_JMP_REL };
            Some((len as u8, tag, target))
        }
        FastClass::Imm8 => fin(base + 1, TAG_OTHER),
        FastClass::ImmZ => fin(base + 4, TAG_OTHER),
        FastClass::MovImmV => fin(base + if rex & 8 != 0 { 8 } else { 4 }, TAG_OTHER),
        FastClass::Rm => fin(base + win_modrm_len(rest), TAG_OTHER),
        FastClass::RmImm8 => fin(base + win_modrm_len(rest) + 1, TAG_OTHER),
        FastClass::RmImmZ => fin(base + win_modrm_len(rest) + 4, TAG_OTHER),
        FastClass::Esc0F => {
            let op2 = rest as u8;
            win_map0f(rest >> 8, addr, mode, base + 1, op2, false, false)
        }
        FastClass::Grp3b | FastClass::Grp3z => {
            let m = win_modrm_len(rest);
            // TEST r/m, imm — F6 takes imm8, F7 immz (4 without 66).
            let imm = if (rest as u8 >> 3) & 7 < 2 {
                if op == 0xF6 {
                    1
                } else {
                    4
                }
            } else {
                0
            };
            fin(base + m + imm, TAG_OTHER)
        }
        FastClass::Grp5 => {
            let m = win_modrm_len(rest);
            let tag = match (rest as u8 >> 3) & 7 {
                2 | 3 => TAG_CALL_IND,
                4 | 5 => TAG_JMP_IND,
                // FF /7 is undefined — let the full path produce the error.
                7 => return None,
                _ => TAG_OTHER,
            };
            fin(base + m, tag)
        }
    }
}

/// Fast decode in the two-byte (`0F`) map. `rest` holds the bytes after
/// the second opcode byte `op2`; `base` counts the bytes up to and
/// including it. `rep`/`opsize` reflect an `F3`/`66` prefix.
#[inline]
fn win_map0f(
    rest: u64,
    addr: u64,
    mode: Mode,
    base: usize,
    op2: u8,
    rep: bool,
    opsize: bool,
) -> Option<(u8, u8, u64)> {
    if (0x80..=0x8F).contains(&op2) {
        // Jcc relz — 4 bytes unless a 66 shrinks it (defer that: the
        // 16-bit form also truncates the target).
        if opsize {
            return None;
        }
        let disp = rest as u32 as i32 as i64;
        let len = base + 4;
        let target = mode.mask_addr(addr.wrapping_add(len as u64).wrapping_add(disp as u64));
        return Some((len as u8, TAG_JCC, target));
    }
    if op2 == 0x1E || op2 == 0x1F {
        // The hint-NOP space: multi-byte alignment NOPs, and ENDBR when
        // 0F 1E carries an F3 prefix and a register-form ModRM.
        let m = rest as u8;
        let len = base + win_modrm_len(rest);
        let tag = match (op2, rep, m) {
            (0x1E, true, 0xFA) => TAG_ENDBR64,
            (0x1E, true, 0xFB) => TAG_ENDBR32,
            _ => TAG_NOP,
        };
        return Some((len as u8, tag, 0));
    }
    if (0x20..=0x26).contains(&op2) {
        // mov cr/dr: register-only ModRM with the mod bits ignored —
        // leave the irregular length to the full path.
        return None;
    }
    let a = TWO_BYTE[op2 as usize];
    if a == M {
        Some(((base + win_modrm_len(rest)) as u8, TAG_OTHER, 0))
    } else if a == M | I8 {
        Some(((base + win_modrm_len(rest) + 1) as u8, TAG_OTHER, 0))
    } else {
        None
    }
}

/// The full table-driven decoder — every encoding the fast path declines.
pub(crate) fn decode_full(code: &[u8], addr: u64, mode: Mode) -> Result<Insn, DecodeError> {
    let mut cur = Cursor { code, pos: 0 };
    let mut pfx = Prefixes::default();
    let is64 = mode.is_64();

    // --- prefixes ---
    let opcode = loop {
        let b = cur.peek()?;
        if is64 && (0x40..=0x4F).contains(&b) {
            // REX must immediately precede the opcode; a legacy prefix
            // after it voids it, which re-entering the loop handles.
            cur.take()?;
            pfx.rex = b;
            let next = cur.peek()?;
            if ONE_BYTE[next as usize] & PFX != 0 || (0x40..=0x4F).contains(&next) {
                pfx.rex = 0;
                continue;
            }
            break cur.take()?;
        }
        if ONE_BYTE[b as usize] & PFX != 0 {
            cur.take()?;
            match b {
                0x66 => pfx.opsize16 = true,
                0x67 => pfx.addrsize = true,
                0xF3 => pfx.rep = true,
                0xF2 => pfx.rep = false,
                0x3E => pfx.ds = true,
                _ => {}
            }
            continue;
        }
        break cur.take()?;
    };

    let addr16 = !is64 && pfx.addrsize;

    // --- opcode maps ---
    // (attrs, map, second_opcode)
    let (attrs, map, op) = match opcode {
        0x0F => {
            let b2 = cur.take()?;
            match b2 {
                0x38 => {
                    let b3 = cur.take()?;
                    (M, OpMap::Map38, b3)
                }
                0x3A => {
                    let b3 = cur.take()?;
                    (M | I8, OpMap::Map3A, b3)
                }
                _ => (TWO_BYTE[b2 as usize], OpMap::Map0F, b2),
            }
        }
        0xC5 if is64 || cur.peek()? & 0xC0 == 0xC0 => {
            // Two-byte VEX: implied 0F map.
            cur.take()?; // payload
            let vop = cur.take()?;
            (TWO_BYTE[vop as usize] & !(IZ | BAD), OpMap::Map0F, vop)
        }
        0xC4 if is64 || cur.peek()? & 0xC0 == 0xC0 => {
            // Three-byte VEX: map in mmmmm.
            let p0 = cur.take()?;
            cur.take()?; // p1
            let vop = cur.take()?;
            match p0 & 0x1F {
                1 => (TWO_BYTE[vop as usize] & !(IZ | BAD), OpMap::Map0F, vop),
                2 => (M, OpMap::Map38, vop),
                3 => (M | I8, OpMap::Map3A, vop),
                _ => return Err(DecodeError::BadOpcode),
            }
        }
        0x62 if is64 || cur.peek()? & 0xC0 == 0xC0 => {
            // EVEX: three payload bytes, map in p0's low bits.
            let p0 = cur.take()?;
            cur.take()?;
            cur.take()?;
            let eop = cur.take()?;
            match p0 & 0x07 {
                1 => (TWO_BYTE[eop as usize] & !(IZ | BAD), OpMap::Map0F, eop),
                2 | 5 | 6 => (M, OpMap::Map38, eop),
                3 => (M | I8, OpMap::Map3A, eop),
                _ => return Err(DecodeError::BadOpcode),
            }
        }
        _ => (ONE_BYTE[opcode as usize], OpMap::Primary, opcode),
    };

    if attrs & BAD != 0 {
        return Err(DecodeError::BadOpcode);
    }
    if is64 && attrs & INV64 != 0 {
        return Err(DecodeError::BadOpcode);
    }

    // --- ModRM / SIB / displacement ---
    // MOV to/from control and debug registers (0F 20-23, legacy 0F 24/26)
    // always use the register form: the mod bits are ignored and no
    // SIB/displacement ever follows.
    let reg_only_modrm = map == OpMap::Map0F && matches!(op, 0x20..=0x26);
    let modrm_byte = if attrs & M != 0 {
        if reg_only_modrm {
            Some(cur.take()?)
        } else {
            Some(modrm(&mut cur, addr16)?)
        }
    } else {
        None
    };

    // --- immediates ---
    let mut rel: Option<(i64, usize)> = None; // (displacement, width) for branches
    if attrs & GRP3 != 0 {
        let reg = (modrm_byte.unwrap_or(0) >> 3) & 7;
        if reg < 2 {
            // TEST r/m, imm
            if op == 0xF6 {
                cur.skip(1)?;
            } else {
                let n = if pfx.opsize16 { 2 } else { 4 };
                cur.skip(n)?;
            }
        }
    }
    if attrs & I8 != 0 {
        let v = cur.take_le(1)?;
        rel = Some((sign_extend(v, 1), 1));
    }
    if attrs & IZ != 0 {
        // Near-branch displacement width honors the 66 prefix in every
        // mode. (Intel documents the prefix as ignored for near branches
        // in 64-bit mode while AMD truncates to 16 bits; binutils — our
        // differential oracle — models the AMD/`data16` reading, and no
        // compiler emits the combination, so we follow binutils.)
        let n = if pfx.opsize16 { 2 } else { 4 };
        let v = cur.take_le(n)?;
        rel = Some((sign_extend(v, n), n));
    }
    if attrs & IV != 0 {
        let n = if pfx.rex_w() {
            8
        } else if pfx.opsize16 {
            2
        } else {
            4
        };
        cur.skip(n)?;
    }
    if attrs & I16 != 0 {
        cur.skip(2)?;
    }
    if attrs & MOFFS != 0 {
        let n = if is64 {
            if pfx.addrsize {
                4
            } else {
                8
            }
        } else if pfx.addrsize {
            2
        } else {
            4
        };
        cur.skip(n)?;
    }
    if attrs & ENTER != 0 {
        cur.skip(3)?;
    }
    if attrs & FAR != 0 {
        let n = if pfx.opsize16 { 4 } else { 6 };
        cur.skip(n)?;
    }

    let len = cur.pos;
    debug_assert!(len <= MAX_LEN);
    let end = addr.wrapping_add(len as u64);
    let target = |(disp, width): (i64, usize)| -> u64 {
        let t = end.wrapping_add(disp as u64);
        // A 16-bit operand size truncates the computed IP.
        if width == 2 && pfx.opsize16 {
            t & 0xffff
        } else {
            mode.mask_addr(t)
        }
    };

    // --- classification ---
    let kind = match (map, op) {
        (OpMap::Map0F, 0x1E) if pfx.rep => match modrm_byte {
            Some(0xFA) => InsnKind::Endbr64,
            Some(0xFB) => InsnKind::Endbr32,
            _ => InsnKind::Nop,
        },
        (OpMap::Map0F, 0x1E) | (OpMap::Map0F, 0x1F) => InsnKind::Nop,
        (OpMap::Map0F, 0x0B) => InsnKind::Ud2,
        (OpMap::Map0F, o) if (0x80..=0x8F).contains(&o) => {
            InsnKind::Jcc { target: rel.map(target).unwrap_or(0) }
        }
        (OpMap::Primary, 0xE8) => InsnKind::CallRel { target: rel.map(target).unwrap_or(0) },
        (OpMap::Primary, 0xE9) | (OpMap::Primary, 0xEB) => {
            InsnKind::JmpRel { target: rel.map(target).unwrap_or(0) }
        }
        (OpMap::Primary, o) if (0x70..=0x7F).contains(&o) || (0xE0..=0xE3).contains(&o) => {
            InsnKind::Jcc { target: rel.map(target).unwrap_or(0) }
        }
        (OpMap::Primary, 0xFF) => {
            let reg = (modrm_byte.unwrap_or(0) >> 3) & 7;
            match reg {
                2 | 3 => InsnKind::CallInd { notrack: pfx.ds },
                4 | 5 => InsnKind::JmpInd { notrack: pfx.ds },
                7 => return Err(DecodeError::BadOpcode), // FF /7 undefined
                _ => InsnKind::Other,
            }
        }
        (OpMap::Primary, 0xC3)
        | (OpMap::Primary, 0xC2)
        | (OpMap::Primary, 0xCB)
        | (OpMap::Primary, 0xCA) => InsnKind::Ret,
        (OpMap::Primary, 0xC9) => InsnKind::Leave,
        (OpMap::Primary, 0xCC) => InsnKind::Int3,
        (OpMap::Primary, 0xF4) => InsnKind::Hlt,
        (OpMap::Primary, 0x90) if !pfx.rex_b() => InsnKind::Nop,
        (OpMap::Primary, o) if (0x50..=0x57).contains(&o) => {
            InsnKind::PushReg { reg: (o - 0x50) + if pfx.rex_b() { 8 } else { 0 } }
        }
        _ => InsnKind::Other,
    };

    Ok(Insn { addr, len: len as u8, kind })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpMap {
    Primary,
    Map0F,
    Map38,
    Map3A,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn len64(bytes: &[u8]) -> usize {
        decode(bytes, 0x1000, Mode::Bits64).unwrap().len as usize
    }

    fn len32(bytes: &[u8]) -> usize {
        decode(bytes, 0x1000, Mode::Bits32).unwrap().len as usize
    }

    fn kind64(bytes: &[u8]) -> InsnKind {
        decode(bytes, 0x1000, Mode::Bits64).unwrap().kind
    }

    #[test]
    fn endbr_both_widths() {
        assert_eq!(kind64(&[0xf3, 0x0f, 0x1e, 0xfa]), InsnKind::Endbr64);
        assert_eq!(kind64(&[0xf3, 0x0f, 0x1e, 0xfb]), InsnKind::Endbr32);
        assert_eq!(len64(&[0xf3, 0x0f, 0x1e, 0xfa]), 4);
        // Without the F3 prefix 0F 1E FA is a hint NOP, not an end branch.
        assert_eq!(kind64(&[0x0f, 0x1e, 0xfa]), InsnKind::Nop);
    }

    #[test]
    fn direct_branches_compute_targets() {
        // call +0 → target is the next instruction.
        let i = decode(&[0xe8, 0, 0, 0, 0], 0x1000, Mode::Bits64).unwrap();
        assert_eq!(i.kind, InsnKind::CallRel { target: 0x1005 });
        // jmp rel8 backward.
        let i = decode(&[0xeb, 0xfe], 0x1000, Mode::Bits64).unwrap();
        assert_eq!(i.kind, InsnKind::JmpRel { target: 0x1000 });
        // jne rel32.
        let i = decode(&[0x0f, 0x85, 0x10, 0x00, 0x00, 0x00], 0x2000, Mode::Bits64).unwrap();
        assert_eq!(i.kind, InsnKind::Jcc { target: 0x2016 });
        // jle rel8 (0x7e).
        let i = decode(&[0x7e, 0x02], 0x3000, Mode::Bits64).unwrap();
        assert_eq!(i.kind, InsnKind::Jcc { target: 0x3004 });
    }

    #[test]
    fn branch_rel16_with_66_prefix() {
        // 66 E8 xx xx decodes as rel16 in both modes (the binutils /
        // AMD `data16` reading — see the comment in the decoder; Intel
        // hardware ignores the prefix in long mode, but no compiler emits
        // the combination).
        let i = decode(&[0x66, 0xe8, 0x01, 0x00], 0x1000, Mode::Bits64).unwrap();
        assert_eq!(i.len, 4);
        // rel16 in 32-bit mode truncates EIP.
        let i = decode(&[0x66, 0xe8, 0x01, 0x00], 0x1000, Mode::Bits32).unwrap();
        assert_eq!(i.len, 4);
        assert_eq!(i.kind, InsnKind::CallRel { target: 0x1005 & 0xffff });
    }

    #[test]
    fn indirect_branches_and_notrack() {
        // call rax → FF D0.
        assert_eq!(kind64(&[0xff, 0xd0]), InsnKind::CallInd { notrack: false });
        // jmp rdx → FF E2.
        assert_eq!(kind64(&[0xff, 0xe2]), InsnKind::JmpInd { notrack: false });
        // notrack jmp rdx → 3E FF E2 (the paper's Figure 1b switch).
        assert_eq!(kind64(&[0x3e, 0xff, 0xe2]), InsnKind::JmpInd { notrack: true });
        // call qword ptr [rbp-16] → FF 55 F0.
        let i = decode(&[0xff, 0x55, 0xf0], 0x1000, Mode::Bits64).unwrap();
        assert_eq!(i.len, 3);
        assert_eq!(i.kind, InsnKind::CallInd { notrack: false });
        // jmp [rip+disp32].
        let i = decode(&[0xff, 0x25, 0x10, 0x20, 0x30, 0x00], 0x1000, Mode::Bits64).unwrap();
        assert_eq!(i.len, 6);
        assert_eq!(i.kind, InsnKind::JmpInd { notrack: false });
        // push r/m (FF /6) is not a branch.
        assert_eq!(kind64(&[0xff, 0x75, 0x08]), InsnKind::Other);
    }

    #[test]
    fn returns_and_padding() {
        assert_eq!(kind64(&[0xc3]), InsnKind::Ret);
        let i = decode(&[0xc2, 0x08, 0x00], 0, Mode::Bits64).unwrap();
        assert_eq!(i.kind, InsnKind::Ret);
        assert_eq!(i.len, 3);
        assert_eq!(kind64(&[0xc9]), InsnKind::Leave);
        assert_eq!(kind64(&[0xcc]), InsnKind::Int3);
        assert_eq!(kind64(&[0xf4]), InsnKind::Hlt);
        assert_eq!(kind64(&[0x90]), InsnKind::Nop);
        assert_eq!(kind64(&[0x0f, 0x0b]), InsnKind::Ud2);
        // Multi-byte NOPs as emitted by GCC for alignment.
        assert_eq!(len64(&[0x0f, 0x1f, 0x40, 0x00]), 4);
        assert_eq!(len64(&[0x0f, 0x1f, 0x44, 0x00, 0x00]), 5);
        assert_eq!(len64(&[0x66, 0x0f, 0x1f, 0x84, 0x00, 0, 0, 0, 0]), 9);
        assert_eq!(kind64(&[0x0f, 0x1f, 0x40, 0x00]), InsnKind::Nop);
    }

    #[test]
    fn push_reg_with_rex() {
        assert_eq!(kind64(&[0x55]), InsnKind::PushReg { reg: 5 });
        assert_eq!(kind64(&[0x41, 0x54]), InsnKind::PushReg { reg: 12 });
    }

    #[test]
    fn common_compiler_instructions_length() {
        // mov rbp, rsp → 48 89 E5.
        assert_eq!(len64(&[0x48, 0x89, 0xe5]), 3);
        // sub rsp, 0x20 → 48 83 EC 20.
        assert_eq!(len64(&[0x48, 0x83, 0xec, 0x20]), 4);
        // mov eax, imm32.
        assert_eq!(len64(&[0xb8, 1, 0, 0, 0]), 5);
        // mov rax, imm64 (REX.W).
        assert_eq!(len64(&[0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8]), 10);
        // lea rcx, [rip + disp32] → 48 8D 0D xx xx xx xx.
        assert_eq!(len64(&[0x48, 0x8d, 0x0d, 1, 0, 0, 0]), 7);
        // mov [rbp-16], rcx → 48 89 4D F0.
        assert_eq!(len64(&[0x48, 0x89, 0x4d, 0xf0]), 4);
        // mov dword [rsp+8], 5 → C7 44 24 08 05 00 00 00 (SIB).
        assert_eq!(len64(&[0xc7, 0x44, 0x24, 0x08, 5, 0, 0, 0]), 8);
        // cmp eax, imm8 → 83 F8 05.
        assert_eq!(len64(&[0x83, 0xf8, 0x05]), 3);
        // test al, imm8 / test eax, imm32.
        assert_eq!(len64(&[0xa8, 0x01]), 2);
        assert_eq!(len64(&[0xa9, 1, 0, 0, 0]), 5);
        // movzx eax, byte [rdi] → 0F B6 07.
        assert_eq!(len64(&[0x0f, 0xb6, 0x07]), 3);
        // imul eax, ebx, 0x10 → 6B C3 10.
        assert_eq!(len64(&[0x6b, 0xc3, 0x10]), 3);
        // enter 0x20, 0 → C8 20 00 00.
        assert_eq!(len64(&[0xc8, 0x20, 0x00, 0x00]), 4);
    }

    #[test]
    fn grp3_immediate_presence_depends_on_reg() {
        // test r/m32, imm32 → F7 /0 id.
        assert_eq!(len64(&[0xf7, 0xc0, 1, 0, 0, 0]), 6);
        // not r/m32 → F7 /2, no immediate.
        assert_eq!(len64(&[0xf7, 0xd0]), 2);
        // neg r/m32 → F7 /3.
        assert_eq!(len64(&[0xf7, 0xd8]), 2);
        // test r/m8, imm8 → F6 /0 ib.
        assert_eq!(len64(&[0xf6, 0xc0, 0x7f]), 3);
    }

    #[test]
    fn sib_and_displacement_forms() {
        // mov eax, [ebx+ecx*4] → 8B 04 8B.
        assert_eq!(len32(&[0x8b, 0x04, 0x8b]), 3);
        // mov eax, [disp32] (mod=0, rm=5) → 8B 05 xx xx xx xx.
        assert_eq!(len32(&[0x8b, 0x05, 1, 2, 3, 4]), 6);
        // mov eax, [ebp+8] → 8B 45 08.
        assert_eq!(len32(&[0x8b, 0x45, 0x08]), 3);
        // mov eax, [ebp+disp32] → 8B 85 xx xx xx xx.
        assert_eq!(len32(&[0x8b, 0x85, 1, 2, 3, 4]), 6);
        // SIB with no base (mod=0, base=5): 8B 04 25 xx xx xx xx.
        assert_eq!(len64(&[0x8b, 0x04, 0x25, 1, 2, 3, 4]), 7);
        // 16-bit addressing in 32-bit mode: 67 8B 46 08 → mov eax, [bp+8].
        assert_eq!(len32(&[0x67, 0x8b, 0x46, 0x08]), 4);
        // 67 8B 06 xx xx → mov eax, [disp16].
        assert_eq!(len32(&[0x67, 0x8b, 0x06, 1, 2]), 5);
    }

    #[test]
    fn moffs_widths() {
        // mov al, [moffs64] in 64-bit mode.
        assert_eq!(len64(&[0xa0, 1, 2, 3, 4, 5, 6, 7, 8]), 9);
        // mov eax, [moffs32] in 32-bit mode.
        assert_eq!(len32(&[0xa1, 1, 2, 3, 4]), 5);
        // 67 A1 in 64-bit mode → moffs32.
        assert_eq!(len64(&[0x67, 0xa1, 1, 2, 3, 4]), 6);
    }

    #[test]
    fn vex_lengths() {
        // vzeroupper → C5 F8 77.
        assert_eq!(len64(&[0xc5, 0xf8, 0x77]), 3);
        // vmovdqa ymm0, [rdi] → C5 FD 6F 07.
        assert_eq!(len64(&[0xc5, 0xfd, 0x6f, 0x07]), 4);
        // vpshufd xmm0, xmm1, 0x1b → C5 F9 70 C1 1B (0F map imm8).
        assert_eq!(len64(&[0xc5, 0xf9, 0x70, 0xc1, 0x1b]), 5);
        // 3-byte VEX, 0F38 map: vpermd ymm, ymm, ymm → C4 E2 6D 36 C1.
        assert_eq!(len64(&[0xc4, 0xe2, 0x6d, 0x36, 0xc1]), 5);
        // 3-byte VEX, 0F3A map with imm8: vpblendd → C4 E3 75 02 C2 03.
        assert_eq!(len64(&[0xc4, 0xe3, 0x75, 0x02, 0xc2, 0x03]), 6);
        // In 32-bit mode C5 with mod!=11 is LDS (modrm form).
        let i = decode(&[0xc5, 0x45, 0x08], 0, Mode::Bits32).unwrap();
        assert_eq!(i.len, 3);
        assert_eq!(i.kind, InsnKind::Other);
    }

    #[test]
    fn evex_length() {
        // vmovups zmm0, [rdi] → 62 F1 7C 48 10 07.
        assert_eq!(len64(&[0x62, 0xf1, 0x7c, 0x48, 0x10, 0x07]), 6);
        // In 32-bit mode, 62 with mod!=11 is BOUND.
        let i = decode(&[0x62, 0x45, 0x08], 0, Mode::Bits32).unwrap();
        assert_eq!(i.len, 3);
        // BOUND is invalid in 64-bit mode only when not EVEX — 62 with
        // mod!=11 payload is still consumed as EVEX there.
    }

    #[test]
    fn invalid_in_64bit() {
        for op in [0x06u8, 0x0e, 0x16, 0x1e, 0x27, 0x2f, 0x37, 0x3f, 0x60, 0x61, 0xce, 0xd4, 0xd5] {
            assert_eq!(
                decode(&[op, 0, 0, 0], 0, Mode::Bits64),
                Err(DecodeError::BadOpcode),
                "op {op:#x}"
            );
            assert!(
                decode(&[op, 0, 0, 0, 0, 0, 0], 0, Mode::Bits32).is_ok(),
                "op {op:#x} in 32-bit"
            );
        }
    }

    #[test]
    fn truncation_is_reported() {
        assert_eq!(decode(&[0xe8, 0x01], 0, Mode::Bits64), Err(DecodeError::Truncated));
        assert_eq!(decode(&[], 0, Mode::Bits64), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x48], 0, Mode::Bits64), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x8b, 0x85, 1, 2], 0, Mode::Bits32), Err(DecodeError::Truncated));
    }

    #[test]
    fn prefix_spam_hits_length_limit() {
        let code = [0x66u8; 20];
        assert_eq!(decode(&code, 0, Mode::Bits64), Err(DecodeError::TooLong));
    }

    #[test]
    fn rex_voided_by_following_prefix() {
        // 48 66 ... : REX then a legacy prefix — REX is dropped, 66
        // applies, and the opcode parses.
        let i = decode(&[0x48, 0x66, 0xb8, 0x01, 0x00], 0, Mode::Bits64).unwrap();
        // mov ax, imm16 → 2-byte immediate because REX.W was voided.
        assert_eq!(i.len, 5);
    }

    #[test]
    fn far_branches() {
        // Far call ptr16:32 in 32-bit mode → 9A + 6 bytes.
        assert_eq!(len32(&[0x9a, 1, 2, 3, 4, 5, 6]), 7);
        assert_eq!(decode(&[0x9a, 1, 2, 3, 4, 5, 6], 0, Mode::Bits64), Err(DecodeError::BadOpcode));
    }

    #[test]
    fn x87_and_sse() {
        // fld qword [esp] → DD 04 24.
        assert_eq!(len32(&[0xdd, 0x04, 0x24]), 3);
        // movaps xmm0, [rdi] → 0F 28 07.
        assert_eq!(len64(&[0x0f, 0x28, 0x07]), 3);
        // movsd xmm0, [rax] → F2 0F 10 00.
        assert_eq!(len64(&[0xf2, 0x0f, 0x10, 0x00]), 4);
        // pcmpistri xmm0, xmm1, 0x0c → 66 0F 3A 63 C1 0C.
        assert_eq!(len64(&[0x66, 0x0f, 0x3a, 0x63, 0xc1, 0x0c]), 6);
        // pshufb xmm0, xmm1 → 66 0F 38 00 C1.
        assert_eq!(len64(&[0x66, 0x0f, 0x38, 0x00, 0xc1]), 5);
    }

    #[test]
    fn ff_slash7_is_undefined() {
        assert_eq!(decode(&[0xff, 0xf8], 0, Mode::Bits64), Err(DecodeError::BadOpcode));
    }

    /// `decode` is the slice fast path, else the full decoder, so where
    /// it equals `decode_full` the fast path either declined or agreed.
    /// Checked on every cut `code[..n]`, `n` in `0..=code.len()`, so the
    /// zero-padded window and the length guard meet every truncation. An
    /// uncut buffer of 16 bytes hands `decode_fast_win` exactly the
    /// window the sweep hot loop loads there.
    fn assert_fast_path_sound(code: &[u8], addr: u64, mode: Mode) {
        for n in 0..=code.len() {
            let cut = &code[..n];
            assert_eq!(
                decode(cut, addr, mode),
                decode_full(cut, addr, mode),
                "bytes {cut:x?} addr {addr:#x} {mode:?}"
            );
        }
    }

    #[test]
    fn fast_path_agrees_with_full_decoder() {
        // Every first byte over a spread of displacement tails and
        // addresses, including one where the target wraps.
        let tails: [&[u8]; 5] = [
            &[0x00],
            &[0x7f, 0x80, 0x01, 0xff],
            &[0xff, 0xff, 0xff, 0xff],
            &[0x80, 0x00, 0x00, 0x80],
            &[0xfe, 0xca, 0xad, 0xde, 0x90],
        ];
        for mode in [Mode::Bits64, Mode::Bits32] {
            for b0 in 0u8..=255 {
                for tail in tails {
                    let mut code = vec![b0];
                    code.extend_from_slice(tail);
                    for addr in [0u64, 0x40_1000, u64::MAX - 2] {
                        assert_fast_path_sound(&code, addr, mode);
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_agrees_with_full_decoder_exhaustive_two_bytes() {
        // Every (first byte, second byte) pair — REX + opcode, opcode +
        // ModRM, every prefix + opcode and the whole 0F map — over tails
        // that exercise every ModRM addressing form (register, disp8,
        // disp32, SIB, SIB + disp32) and the bytes the window reads.
        let tails: [&[u8]; 9] = [
            &[0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09],
            &[0xC0, 0xff, 0xff, 0xff, 0xff, 0x90, 0x90, 0x90, 0x90, 0x90],
            &[0x04, 0x25, 1, 2, 3, 4, 5, 6, 7, 8],
            &[0x85, 1, 2, 3, 4, 9, 9, 9, 9, 9],
            &[0x05, 1, 2],
            &[0x00; 14],
            &[0xFF; 14],
            &[0x05, 0x44, 0x24, 0x08, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22],
            &[0x84, 0xC0, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08],
        ];
        for mode in [Mode::Bits64, Mode::Bits32] {
            for b0 in 0u8..=255 {
                for b1 in 0u8..=255 {
                    for tail in tails {
                        let mut code = vec![b0, b1];
                        code.extend_from_slice(tail);
                        assert_fast_path_sound(&code, 0x40_1000, mode);
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_agrees_on_prefixed_two_byte_map() {
        // The prefixed 0F-map fast path: every second opcode byte under
        // each mandatory-prefix-style byte, with and without REX, over
        // ModRM tails covering every addressing form.
        let tails: [&[u8]; 5] = [
            &[0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09],
            &[0xC0, 0xff, 0xff, 0xff, 0xff, 0x90, 0x90, 0x90, 0x90, 0x90],
            &[0x04, 0x25, 1, 2, 3, 4, 5, 6, 7, 8],
            &[0xFA, 0xFB, 0x90, 0x90, 0x90],
            &[0x85, 1, 2], // disp32 form, truncated
        ];
        let heads: [&[u8]; 10] = [
            &[0x0F],
            &[0x48, 0x0F],
            &[0x44, 0x0F],
            &[0x66, 0x0F],
            &[0xF2, 0x0F],
            &[0xF3, 0x0F],
            &[0xF3, 0x48, 0x0F],
            &[0x66, 0x41, 0x0F],
            &[0xF3, 0x44, 0x44, 0x0F],
            &[0xF2, 0x66, 0x0F],
        ];
        for mode in [Mode::Bits64, Mode::Bits32] {
            for head in heads {
                for op2 in 0u8..=255 {
                    for tail in tails {
                        let mut code = head.to_vec();
                        code.push(op2);
                        code.extend_from_slice(tail);
                        assert_fast_path_sound(&code, 0x40_1000, mode);
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_agrees_on_deep_prefix_chains() {
        // Three- and four-byte heads (prefix + REX + 0F + op2) reach the
        // deepest shifts of the window walker.
        let heads: [&[u8]; 6] = [
            &[0xF3, 0x48, 0x0F],
            &[0x66, 0x41, 0x0F],
            &[0xF2, 0x0F],
            &[0x48, 0x0F],
            &[0x3E, 0xFF],
            &[0x48, 0xFF],
        ];
        let tail =
            [0x1E, 0xFA, 0x44, 0x24, 0x08, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x55];
        for mode in [Mode::Bits64, Mode::Bits32] {
            for head in heads {
                for op in 0u8..=255 {
                    let mut code = head.to_vec();
                    code.push(op);
                    code.extend_from_slice(&tail);
                    assert_fast_path_sound(&code, 0x40_1000, mode);
                }
            }
        }
    }

    #[test]
    fn fast_path_agrees_under_rex_with_every_modrm() {
        // The two-byte heads vary the post-REX ModRM byte over only a
        // few tails; the branchless REX fold deserves the full 256. REX
        // values cover W/B set and clear.
        let tail = [0x44u8, 0x24, 0x08, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22];
        for rex in [0x40u8, 0x41, 0x44, 0x48, 0x4F] {
            for op in 0u8..=255 {
                for modrm in 0u8..=255 {
                    let mut code = vec![rex, op, modrm];
                    code.extend_from_slice(&tail);
                    assert_fast_path_sound(&code, 0x40_1000, Mode::Bits64);
                }
            }
        }
    }

    #[test]
    fn modrm_length_agrees_with_full_decoder_for_every_pair() {
        // All 65 536 (ModRM, SIB) byte pairs behind `mov r, r/m` — which
        // the fast path always accepts — including the mod=0 rm=4
        // SIB.base=5 disp32 corner the exhaustive-head tails miss.
        let heads: [(&[u8], Mode); 3] =
            [(&[0x8B], Mode::Bits64), (&[0x48, 0x8B], Mode::Bits64), (&[0x8B], Mode::Bits32)];
        for (head, mode) in heads {
            for m in 0u8..=255 {
                for sib in 0u8..=255 {
                    let mut code = head.to_vec();
                    code.extend_from_slice(&[m, sib, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66]);
                    code.resize(16, 0x90);
                    let (len, tag, target) = decode_fast_slice(&code, 0x40_1000, mode)
                        .unwrap_or_else(|| panic!("{code:x?} {mode:?} left the fast path"));
                    let fast = Insn { addr: 0x40_1000, len, kind: kind_from(tag, target) };
                    assert_eq!(
                        Ok(fast),
                        decode_full(&code, 0x40_1000, mode),
                        "modrm {m:#04x} sib {sib:#04x} {code:x?} {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_declines_truncated_branches() {
        // A rel32 call with only 3 displacement bytes must fall through to
        // the full decoder (which reports Truncated), not mis-decode.
        assert_eq!(decode_fast_slice(&[0xe8, 1, 2, 3], 0, Mode::Bits64), None);
        assert_eq!(decode(&[0xe8, 1, 2, 3], 0, Mode::Bits64), Err(DecodeError::Truncated));
        assert_eq!(decode_fast_slice(&[0x74], 0, Mode::Bits64), None);
        assert_eq!(decode_fast_slice(&[], 0, Mode::Bits64), None);
    }
}
