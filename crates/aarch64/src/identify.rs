//! BTI-based function identification — FunSeeker's algorithm transplanted
//! to AArch64 (§VI of the paper: "end-branch instructions in both
//! architectures behave almost the same").
//!
//! The mapping is direct:
//!
//! | x86 concept | AArch64 counterpart |
//! |---|---|
//! | `ENDBR64` at entries | `BTI c` / `BTI jc` / `PACIASP` |
//! | `notrack` switch labels | `BTI j` (jump-only, **not** entries) |
//! | direct `call` targets `C` | `BL` targets |
//! | direct `jmp` targets `J` | `B` targets |
//! | SELECTTAILCALL | identical |
//!
//! Two x86 complications vanish on ARM: fixed-width instructions make
//! the sweep trivially exact, and `BTI j` *syntactically* distinguishes
//! the jump-only landing pads that FILTERENDBR had to infer from LSDAs
//! on x86.
//!
//! The identifier is only an evidence adapter: it tags `BTI c` /
//! `BTI jc` / `PACIASP` as [`EndbrClass::Plain`] and `BTI j` as
//! [`EndbrClass::LandingPad`] (a pad that is never a call target), and
//! the core crate's [`AnalysisPlan`] runs Algorithm 1's set algebra.

use funseeker::{AnalysisPlan, Config, EndbrClass, Evidence, FuncSet, Scratch};
use funseeker_elf::Elf;

use crate::decode::{sweep_a64, A64Kind};
use crate::emit::EM_AARCH64;

/// Analysis result for one AArch64 binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmAnalysis {
    /// Identified function entries.
    pub functions: FuncSet,
    /// Number of call-valid landing pads seen.
    pub landing_count: usize,
    /// Number of jump-only (`BTI j`) pads skipped.
    pub bti_j_count: usize,
    /// Tail-call targets selected from `B` edges.
    pub tail_target_count: usize,
}

/// Configuration for the BTI identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtiConfig {
    /// Include tail-call selection over `B` targets.
    pub select_tail_calls: bool,
    /// Condition (2) threshold, as on x86.
    pub min_tail_referers: usize,
}

impl Default for BtiConfig {
    fn default() -> Self {
        BtiConfig { select_tail_calls: true, min_tail_referers: 2 }
    }
}

impl From<BtiConfig> for Config {
    /// FILTERENDBR always runs (it drops `BTI j`); tail-call selection
    /// brings in `J′`, and without it no jump target is a candidate.
    fn from(c: BtiConfig) -> Config {
        Config {
            filter_endbr: true,
            include_jump_targets: c.select_tail_calls,
            select_tail_calls: c.select_tail_calls,
            min_tail_referers: c.min_tail_referers,
            ..Config::c1()
        }
    }
}

/// The BTI-based identifier.
#[derive(Debug, Clone, Default)]
pub struct BtiSeeker {
    config: BtiConfig,
}

impl BtiSeeker {
    /// Full default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// With an explicit configuration.
    pub fn with_config(config: BtiConfig) -> Self {
        BtiSeeker { config }
    }

    /// Identifies function entries in a raw AArch64 ELF image.
    pub fn identify(&self, bytes: &[u8]) -> Result<ArmAnalysis, funseeker::Error> {
        let elf = Elf::parse(bytes)?;
        if elf.header.machine != funseeker_elf::Machine::Other(EM_AARCH64) {
            // Not ARM — the caller wanted the x86 pipeline.
            return Err(funseeker::Error::NoText);
        }
        let (text_addr, text) = elf.section_bytes(".text").ok_or(funseeker::Error::NoText)?;
        let text_end = text_addr + text.len() as u64;
        let in_text = |a: u64| a >= text_addr && a < text_end;

        // The sweep walks ascending addresses, so `endbrs` comes out
        // sorted and distinct.
        let mut endbrs = Vec::new();
        let mut call_targets = Vec::new();
        let mut jmp_edges = Vec::new();
        for (addr, kind) in sweep_a64(text, text_addr) {
            if kind.is_call_landing() {
                endbrs.push((addr, EndbrClass::Plain));
            } else if kind.is_jump_only_landing() {
                endbrs.push((addr, EndbrClass::LandingPad));
            }
            match kind {
                A64Kind::Bl { target } if in_text(target) => call_targets.push(target),
                A64Kind::B { target } if in_text(target) => jmp_edges.push((addr, target)),
                _ => {}
            }
        }
        call_targets.sort_unstable();
        call_targets.dedup();

        let evidence = Evidence {
            entry: elf.header.entry,
            text_range: (text_addr, text_end),
            endbrs: &endbrs,
            call_targets: &call_targets,
            jmp_edges: &jmp_edges,
            region_starts: &[text_addr],
        };
        let mut plan = AnalysisPlan::new();
        let mut scratch = Scratch::new();
        plan.rebuild_from(&evidence, &mut scratch);
        let analysis = plan.derive_from(&self.config.into(), &evidence, &mut scratch);
        Ok(ArmAnalysis {
            functions: analysis.functions,
            landing_count: plan.class_count(EndbrClass::Plain),
            bti_j_count: plan.class_count(EndbrClass::LandingPad),
            tail_target_count: analysis.tail_target_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{generate, ArmParams};

    #[test]
    fn accuracy_on_generated_bti_binaries() {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for seed in 0..30u64 {
            let bin = generate(ArmParams::default(), seed);
            let truth: FuncSet = bin.entries().into_iter().collect();
            let a = BtiSeeker::new().identify(&bin.bytes).unwrap();
            tp += a.functions.intersection(&truth).count();
            fp += a.functions.difference(&truth).count();
            fn_ += truth.difference(&a.functions).count();
        }
        let prec = tp as f64 / (tp + fp) as f64;
        let rec = tp as f64 / (tp + fn_) as f64;
        assert!(prec > 0.99, "precision {prec:.4}");
        assert!(rec > 0.99, "recall {rec:.4}");
    }

    #[test]
    fn bti_j_labels_are_never_reported() {
        let params = ArmParams { switch_frac: 1.0, ..Default::default() };
        let bin = generate(params, 9);
        let a = BtiSeeker::new().identify(&bin.bytes).unwrap();
        assert!(a.bti_j_count > 0);
        // All reported functions are genuine entries or dead-code misses;
        // no BTI j address sneaks in (they are all non-entries by
        // construction, so precision tells the story).
        let truth = bin.entries();
        for f in &a.functions {
            assert!(truth.contains(f), "false positive at {f:#x}");
        }
    }

    #[test]
    fn residual_misses_are_dead_code() {
        for seed in 0..10u64 {
            let bin = generate(ArmParams::default(), seed);
            let truth: FuncSet = bin.entries().into_iter().collect();
            let a = BtiSeeker::new().identify(&bin.bytes).unwrap();
            for missed in truth.difference(&a.functions) {
                let f = bin.functions.iter().find(|f| f.addr == *missed).unwrap();
                assert!(f.dead, "live function {} missed", f.name);
            }
        }
    }

    #[test]
    fn rejects_x86_images() {
        let bytes = std::fs::read("/proc/self/exe").unwrap();
        assert!(BtiSeeker::new().identify(&bytes).is_err());
    }
}
