//! ARM BTI extension of the FunSeeker reproduction — the paper's §VI
//! future work, implemented.
//!
//! ARMv8.5's Branch Target Identification plays the same role as Intel
//! CET's Indirect Branch Tracking: indirect-branch targets must carry a
//! `BTI` marker (or a `PACIASP`, which doubles as one). This crate
//! transplants FunSeeker's algorithm to AArch64:
//!
//! * [`decode`] — a fixed-width A64 classifier (`BTI c/j/jc`, `PACIASP`,
//!   `BL`/`B`/conditional branches, `BLR`/`BR`/`RET`),
//! * [`emit`] — a seeded BTI-enabled AArch64 corpus generator with exact
//!   ground truth,
//! * [`identify`] — the BTI-based identifier: an evidence adapter that
//!   feeds the core crate's shared Algorithm-1 plan.
//!
//! ```
//! use funseeker_aarch64::{generate, ArmParams, BtiSeeker};
//! let bin = generate(ArmParams::default(), 42);
//! let analysis = BtiSeeker::new().identify(&bin.bytes).unwrap();
//! assert!(!analysis.functions.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod emit;
pub mod format;
pub mod identify;
pub mod note;

pub use decode::{decode_a64, sweep_a64, A64Kind};
pub use emit::{generate, ArmBinary, ArmFunctionTruth, ArmParams, EM_AARCH64};
pub use format::{format_a64, format_region};
pub use identify::{ArmAnalysis, BtiConfig, BtiSeeker};
pub use note::{bti_properties, build_bti_note, BtiProperties};
