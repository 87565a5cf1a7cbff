//! IDA-like identifier: recursive descent from the entry point plus
//! FLIRT-style prologue signatures.
//!
//! Models what the paper reports about IDA Pro 7.6 (§V-A2, §V-C):
//! "proprietary heuristics as well as FLIRT, a signature-based function
//! identification approach", combining call-graph traversal with
//! compiler-specific pattern matching. Its dominant failure mode in the
//! study — 96% of its false negatives — is *indirect branch targets*:
//! functions only ever reached through pointers, which no call edge or
//! signature reaches. This reimplementation inherits that blindness by
//! construction: it never looks at end-branch instructions.

use std::collections::BTreeSet;

use funseeker::Prepared;
use funseeker_disasm::{decode, InsnKind};

use crate::common::{has_frame_prologue, window_at, FunctionIdentifier};

/// The IDA-style identifier.
#[derive(Debug, Clone, Default)]
pub struct IdaLike;

impl FunctionIdentifier for IdaLike {
    fn name(&self) -> &'static str {
        "IDA Pro"
    }

    fn identify_prepared(&self, p: &Prepared<'_>) -> Result<funseeker::FuncSet, funseeker::Error> {
        let insns = p.index.insns();

        // Seed: entry point, the start-routine's main argument, and
        // every direct call target. (IDA defines code throughout the
        // executable sections and creates a function at every resolved
        // call destination; on compiler output that coincides with the
        // shared sweep's call targets.)
        let mut functions: BTreeSet<u64> = BTreeSet::new();
        if p.parsed.in_code(p.parsed.entry) {
            functions.insert(p.parsed.entry);
            // IDA's start-routine heuristic: `_start` passes `main` to
            // `__libc_start_main` by address (lea/mov immediately before
            // the call); IDA resolves that argument and creates `main`.
            functions.extend(scan_start_args(p));
        }
        functions.extend(p.index.call_targets.iter().copied());

        // Tail-jump heuristic: a direct jump that leaves its function and
        // lands after a code break is treated as a function. This is the
        // behavior that makes the real tool report `.cold`/`.part`
        // fragments as functions (a false-positive class the paper
        // observes for every compared tool).
        let sorted: Vec<u64> = functions.iter().copied().collect();
        let interval = |addr: u64| sorted.partition_point(|&s| s <= addr);
        for &(site, target) in &p.index.jmp_edges {
            if !functions.contains(&target)
                && interval(site) != interval(target)
                && starts_after_break(p, target)
            {
                functions.insert(target);
            }
        }

        // FLIRT-ish signature pass: classic frame prologues in unexplored
        // space become functions. (The real FLIRT matches library
        // signatures; frame prologues are the universal subset.) The
        // candidate filter runs on the packed tag array — one byte per
        // instruction.
        for idx in insns.push_reg_indices(5) {
            let addr = insns.addr_at(idx);
            if has_frame_prologue(p, addr) && starts_after_break(p, addr) {
                functions.insert(addr);
            }
        }

        Ok(functions.into_iter().collect())
    }
}

/// Resolves code addresses `_start` materializes into argument registers
/// before calling into libc — the `__libc_start_main(main, …)` idiom.
/// Scans only the entry routine's first instructions, so pointer-taking
/// anywhere else stays invisible (matching the tool's real blindness).
fn scan_start_args(p: &Prepared<'_>) -> Vec<u64> {
    let mode = p.parsed.mode();
    let mut out = Vec::new();
    let mut addr = p.parsed.entry;
    for _ in 0..12 {
        let Some(w) = window_at(p, addr, 16) else { break };
        let Ok(insn) = decode(w, addr, mode) else { break };
        match mode {
            funseeker_disasm::Mode::Bits64 => {
                // lea r64, [rip+disp32]: 48/4C 8D /r with mod=00, rm=101.
                if insn.len == 7
                    && (w[0] == 0x48 || w[0] == 0x4c)
                    && w[1] == 0x8d
                    && w[2] & 0xc7 == 0x05
                {
                    let disp = i32::from_le_bytes(w[3..7].try_into().unwrap());
                    let target = insn.end().wrapping_add(disp as i64 as u64);
                    if p.parsed.in_code(target) {
                        out.push(target);
                    }
                }
            }
            funseeker_disasm::Mode::Bits32 => {
                // mov r32, imm32 (B8+r) holding a code address.
                if insn.len == 5 && (0xb8..=0xbf).contains(&w[0]) {
                    let imm = u32::from_le_bytes(w[1..5].try_into().unwrap());
                    if p.parsed.in_code(u64::from(imm)) {
                        out.push(u64::from(imm));
                    }
                }
            }
        }
        if insn.kind.is_terminator() || matches!(insn.kind, InsnKind::Ret) {
            break;
        }
        addr = insn.end();
    }
    out
}

/// A signature hit counts only right after padding or a no-fallthrough
/// instruction — mirroring how IDA seeds "sig found" functions in gaps.
/// The first byte of any code region always qualifies.
fn starts_after_break(p: &Prepared<'_>, addr: u64) -> bool {
    if p.parsed.code.is_region_start(addr) {
        return true;
    }
    let insns = p.index.insns();
    let idx = insns.partition_point_addr(addr);
    if idx == 0 {
        return true;
    }
    let prev = insns.get(idx - 1);
    prev.end() == addr
        && matches!(
            prev.kind,
            InsnKind::Ret
                | InsnKind::JmpRel { .. }
                | InsnKind::JmpInd { .. }
                | InsnKind::Nop
                | InsnKind::Int3
                | InsnKind::Hlt
                | InsnKind::Ud2
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker_corpus::{
        compile, BuildConfig, Compiler, FunctionSpec, Lang, Linkage, OptLevel, ProgramSpec,
    };

    fn spec() -> ProgramSpec {
        let mut main = FunctionSpec::named("main");
        main.calls = vec![1];
        let called = FunctionSpec::named("called_fn");
        let mut taken = FunctionSpec::named("only_by_pointer");
        taken.linkage = Linkage::Static;
        taken.address_taken = true;
        ProgramSpec { name: "idademo".into(), lang: Lang::C, functions: vec![main, called, taken] }
    }

    fn cfg(opt: OptLevel) -> BuildConfig {
        BuildConfig { compiler: Compiler::Gcc, arch: funseeker_corpus::Arch::X64, opt, pie: false }
    }

    #[test]
    fn finds_call_graph_reachable_functions() {
        let bin = compile(&spec(), cfg(OptLevel::O0), 3);
        let found = IdaLike.identify(&bin.bytes).unwrap();
        let by_name = |n: &str| bin.truth.functions.iter().find(|f| f.name == n).unwrap().addr;
        assert!(found.contains(&by_name("_start")));
        assert!(found.contains(&by_name("called_fn")), "direct call target");
        assert!(found.contains(&by_name("main")), "frame prologue at O0");
    }

    #[test]
    fn misses_indirect_only_targets_at_high_opt() {
        // At O2 there is no frame prologue, so a function reached only
        // through a pointer is invisible — the paper's 96% FN class.
        let bin = compile(&spec(), cfg(OptLevel::O2), 4);
        let found = IdaLike.identify(&bin.bytes).unwrap();
        let taken = bin.truth.functions.iter().find(|f| f.name == "only_by_pointer").unwrap();
        assert!(!found.contains(&taken.addr), "IDA-like must not see pointer-only functions at O2");
    }
}
