//! The plan-backed `BtiSeeker` against a test-local transcription of the
//! BTI identifier's set algebra: BTI landings ∪ `BL` targets, plus
//! SELECTTAILCALL over `B` edges when enabled.

use std::collections::BTreeSet;

use funseeker::reference::select_tail_calls;
use funseeker_aarch64::{generate, sweep_a64, A64Kind, ArmParams, BtiConfig, BtiSeeker};
use funseeker_elf::Elf;

/// `(functions, landing_count, bti_j_count, tail_target_count)` computed
/// directly on sets.
fn transcribed(bytes: &[u8], config: BtiConfig) -> (BTreeSet<u64>, usize, usize, usize) {
    let elf = Elf::parse(bytes).unwrap();
    let (text_addr, text) = elf.section_bytes(".text").unwrap();
    let text_end = text_addr + text.len() as u64;
    let in_text = |a: u64| a >= text_addr && a < text_end;

    let mut landings = BTreeSet::new();
    let mut bti_j = 0;
    let mut call_targets = BTreeSet::new();
    let mut jmp_edges = Vec::new();
    for (addr, kind) in sweep_a64(text, text_addr) {
        if kind.is_call_landing() {
            landings.insert(addr);
        } else if kind.is_jump_only_landing() {
            bti_j += 1;
        }
        match kind {
            A64Kind::Bl { target } if in_text(target) => {
                call_targets.insert(target);
            }
            A64Kind::B { target } if in_text(target) => jmp_edges.push((addr, target)),
            _ => {}
        }
    }
    let landing_count = landings.len();
    let mut functions: BTreeSet<u64> = landings.union(&call_targets).copied().collect();
    let mut tails = 0;
    if config.select_tail_calls {
        let selected =
            select_tail_calls(&functions, &jmp_edges, config.min_tail_referers, &[text_addr]);
        tails = selected.len();
        functions.extend(selected);
    }
    (functions, landing_count, bti_j, tails)
}

#[test]
fn plan_backed_seeker_matches_the_set_transcription() {
    let configs =
        [BtiConfig::default(), BtiConfig { select_tail_calls: false, min_tail_referers: 2 }];
    for seed in 0..30u64 {
        let bin = generate(ArmParams::default(), seed);
        for config in configs {
            let a = BtiSeeker::with_config(config).identify(&bin.bytes).unwrap();
            let (functions, landings, bti_j, tails) = transcribed(&bin.bytes, config);
            let found: BTreeSet<u64> = a.functions.iter().copied().collect();
            assert_eq!(found, functions, "seed {seed} {config:?}");
            assert_eq!(
                (a.landing_count, a.bti_j_count, a.tail_target_count),
                (landings, bti_j, tails),
                "seed {seed} {config:?}"
            );
        }
    }
}
