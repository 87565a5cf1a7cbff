//! **FunSeeker** — function identification for Intel CET-enabled
//! binaries, reproducing the DSN 2022 paper *"How'd Security Benefit
//! Reverse Engineers? The Implication of Intel CET on Function
//! Identification"*.
//!
//! The algorithm (paper Algorithm 1) is deliberately simple and linear
//! in the binary size:
//!
//! ```text
//! FunSeeker(bin):
//!   txt, exn = PARSE(bin)            // .text, landing pads, PLT map
//!   E, C, J  = DISASSEMBLE(txt)      // endbr addrs, call targets, jmp edges
//!   E′ = FILTERENDBR(E, exn)         // drop non-entry end-branches
//!   J′ = SELECTTAILCALL(J)           // keep only tail-call targets
//!   return E′ ∪ C ∪ J′
//! ```
//!
//! The four Table II configurations (①–④) are exposed via [`Config`].
//! [`AnalysisPlan`] is the one implementation of the set algebra;
//! [`reference`](mod@reference) transcribes the pseudocode on
//! `BTreeSet`s as the tests' oracle.
//!
//! # Quick example
//!
//! ```
//! use funseeker::{Config, FunSeeker};
//!
//! let bytes = std::fs::read("/proc/self/exe").unwrap();
//! let full = FunSeeker::new().identify(&bytes).unwrap();
//! let naive = FunSeeker::with_config(Config::c1()).identify(&bytes).unwrap();
//! println!("full: {} functions, naive: {}", full.functions.len(), naive.functions.len());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analyzer;
pub mod boundaries;
mod config;
pub mod diag;
mod error;
mod funcset;
mod plan;
mod scratch;

pub mod callgraph;
pub mod cfg;
pub mod disassemble;
pub mod filter;
pub mod parse;
pub mod reference;
pub mod tailcall;

pub use analyzer::{prepare, prepare_with_stream, Analysis, FunSeeker, InterprocSummary, Prepared};
pub use boundaries::{estimate_bounds, FunctionBounds};
pub use callgraph::{build_call_graph, reachable_insns, CallEdge, CallGraph, CallKind};
pub use cfg::{build_cfg, build_cfgs, BasicBlock, Cfg};
pub use config::Config;
pub use diag::{Diagnostic, Diagnostics};
pub use error::Error;
pub use filter::{is_indirect_return_name, INDIRECT_RETURN_FUNCTIONS};
pub use funcset::FuncSet;
pub use plan::{AnalysisPlan, EndbrClass, Evidence, ENDBR_CLASSES};
pub use scratch::{Scratch, StageStats};
