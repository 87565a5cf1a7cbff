//! Ghidra-like identifier: `.eh_frame` seeds + recursive call traversal
//! + frame-prologue pattern scan.
//!
//! Models what the paper reports about Ghidra 10.0.4 (§V-A2, §V-C): it
//! "aggressively utilizes `.eh_frame` information to recognize function
//! entries", combines that with call-graph traversal and
//! compiler-specific patterns, and its recall drops on x86 binaries
//! without FDE records. It also creates functions at cross-function
//! direct-jump targets, which turns `.cold`/`.part` fragments into false
//! positives.

use std::collections::BTreeSet;

use funseeker::Prepared;
use funseeker_disasm::InsnKind;

use crate::common::{fde_begins_in_code, has_frame_prologue, FunctionIdentifier};

/// The Ghidra-style identifier.
#[derive(Debug, Clone, Default)]
pub struct GhidraLike;

impl FunctionIdentifier for GhidraLike {
    fn name(&self) -> &'static str {
        "Ghidra"
    }

    fn identify_prepared(&self, p: &Prepared<'_>) -> Result<funseeker::FuncSet, funseeker::Error> {
        // Seed set: the entry point and every FDE begin.
        let mut functions: BTreeSet<u64> = fde_begins_in_code(p).collect();
        if p.parsed.in_code(p.parsed.entry) {
            functions.insert(p.parsed.entry);
        }

        // Call-graph expansion (linear approximation of Ghidra's
        // recursive disassembly: compiler code is exactly the linear
        // sweep, so the reachable call targets coincide with the shared
        // sweep's).
        functions.extend(p.index.call_targets.iter().copied());

        // Cross-function direct-jump targets become functions too (this
        // is what makes Ghidra report fragments as functions).
        let sorted: Vec<u64> = functions.iter().copied().collect();
        let interval = |addr: u64| -> usize { sorted.partition_point(|&s| s <= addr) };
        for &(site, target) in &p.index.jmp_edges {
            if !functions.contains(&target) && interval(site) != interval(target) {
                functions.insert(target);
            }
        }

        // Pattern pass: classic frame prologues in the gaps (Ghidra's
        // "function start patterns" analyzer). The candidate filter runs
        // on the packed tag array — one byte per instruction — instead of
        // materializing every instruction.
        for idx in p.index.insns().push_reg_indices(5) {
            let addr = p.index.insns().addr_at(idx);
            if has_frame_prologue(p, addr) && is_gap_start(p, addr) {
                functions.insert(addr);
            }
        }

        Ok(functions.into_iter().collect())
    }
}

/// A prologue only starts a function when it sits at a plausible start:
/// preceded by padding, a return, or an unconditional transfer. Region
/// starts always qualify.
fn is_gap_start(p: &Prepared<'_>, addr: u64) -> bool {
    if p.parsed.code.is_region_start(addr) {
        return true;
    }
    let insns = p.index.insns();
    let idx = insns.partition_point_addr(addr);
    if idx == 0 {
        return true;
    }
    let prev = insns.get(idx - 1);
    if prev.end() != addr {
        return false;
    }
    matches!(
        prev.kind,
        InsnKind::Ret
            | InsnKind::JmpRel { .. }
            | InsnKind::JmpInd { .. }
            | InsnKind::Nop
            | InsnKind::Int3
            | InsnKind::Hlt
            | InsnKind::Ud2
            | InsnKind::CallRel { .. } // call to noreturn then next function
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker_corpus::{
        compile, BuildConfig, Compiler, FunctionSpec, Lang, Linkage, OptLevel, ProgramSpec,
    };

    fn spec_with_static() -> ProgramSpec {
        let mut main = FunctionSpec::named("main");
        main.calls = vec![1];
        let mut s = FunctionSpec::named("quiet");
        s.linkage = Linkage::Static;
        ProgramSpec { name: "ghidrademo".into(), lang: Lang::C, functions: vec![main, s] }
    }

    #[test]
    fn high_recall_with_fdes() {
        let cfg = BuildConfig {
            compiler: Compiler::Gcc,
            arch: funseeker_corpus::Arch::X64,
            opt: OptLevel::O1,
            pie: false,
        };
        let bin = compile(&spec_with_static(), cfg, 5);
        let found = GhidraLike.identify(&bin.bytes).unwrap();
        for f in bin.truth.eval_entries() {
            assert!(found.contains(&f), "missing {f:#x}");
        }
    }

    #[test]
    fn degrades_without_fdes_but_keeps_called_functions() {
        let cfg = BuildConfig {
            compiler: Compiler::Clang,
            arch: funseeker_corpus::Arch::X86,
            opt: OptLevel::O2,
            pie: false,
        };
        let bin = compile(&spec_with_static(), cfg, 6);
        let found = GhidraLike.identify(&bin.bytes).unwrap();
        // The statically-called helper is still discovered through the
        // call graph even with no FDE records.
        let truth = bin.truth.eval_entries();
        let quiet = bin.truth.functions.iter().find(|f| f.name == "quiet").unwrap().addr;
        assert!(found.contains(&quiet));
        // But not everything is found (main is only referenced by lea).
        assert!(found.len() < truth.len() + 4);
    }
}
