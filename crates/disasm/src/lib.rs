//! x86 / x86-64 linear-sweep disassembly for function identification.
//!
//! This crate is the disassembly substrate of the FunSeeker reproduction:
//! a from-scratch, table-driven **length decoder** covering legacy
//! prefixes, REX, the `0F`/`0F 38`/`0F 3A` escape maps, VEX and EVEX,
//! plus semantic classification of exactly the instructions function
//! identification needs — end-branch markers (`ENDBR32`/`ENDBR64`),
//! direct and indirect calls and jumps (including the `NOTRACK` prefix),
//! returns, and prologue/padding opcodes.
//!
//! The [`LinearSweep`] iterator implements the paper's disassembly loop:
//! decode from the start of `.text`; on error, advance one byte and
//! resume (§IV-B).
//!
//! ```
//! use funseeker_disasm::{LinearSweep, Mode};
//! // endbr64; push rbp; ret
//! let code = [0xf3, 0x0f, 0x1e, 0xfa, 0x55, 0xc3];
//! let n_endbr = LinearSweep::new(&code, 0x1000, Mode::Bits64)
//!     .filter(|i| i.kind.is_endbr())
//!     .count();
//! assert_eq!(n_endbr, 1);
//! ```

// Unsafe code is confined to the `kernels` module (SIMD intrinsics
// behind runtime feature detection); everything else stays checked.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod bitrank;
mod decode;
mod error;
mod evidence;
mod format;
mod insn;
pub mod kernels;
mod mode;
mod par;
mod stats;
mod stream;
mod sweep;
mod tables;

pub use decode::decode;
pub use error::DecodeError;
pub use evidence::{recycle_evidence, SweepEvidence};
pub use format::format_insn;
pub use insn::{Insn, InsnKind};
pub use kernels::KernelTier;
pub use mode::Mode;
pub use par::{
    adaptive_shards, par_sweep, sweep_all, sweep_evidence, sweep_sharded, sweep_with_evidence,
    SweepOutput, PAR_MIN_BYTES,
};
pub use stats::SweepStats;
pub use stream::{Flow, InsnStream, Insns, Successors};
pub use sweep::LinearSweep;
