//! Property tests for the interprocedural layer: CFG block partitions
//! must exactly tile each function's slice of the packed stream — no
//! gaps, no overlaps, every block non-empty — and the CET constraint on
//! indirect-edge candidates must hold, on pristine corpora and across
//! hostile mutants alike.

use funseeker::{build_call_graph, build_cfgs, prepare, FunSeeker};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams, Mutator};
use proptest::prelude::*;

fn dataset(seed: u64) -> Dataset {
    let mut params = DatasetParams::tiny();
    params.programs = (3, 2, 3);
    params.configs = BuildConfig::grid();
    Dataset::generate(&params, seed)
}

/// Checks the tiling invariant for every identified function of one
/// image. Returns the number of CFGs checked (0 when the image does not
/// parse — mutants are allowed to be rejected, never to break tiling).
fn assert_cfgs_tile(bytes: &[u8], ctx: &str) -> usize {
    let Ok(prepared) = prepare(bytes) else { return 0 };
    let analysis = FunSeeker::new().identify_prepared(&prepared);
    let entries: Vec<u64> = analysis.functions.iter().copied().collect();
    let cfgs = build_cfgs(&prepared.index, &entries);
    assert_eq!(cfgs.len(), entries.len(), "{ctx}: one CFG per entry");

    let s = prepared.index.insns();
    for (cfg, &entry) in cfgs.iter().zip(&entries) {
        assert_eq!(cfg.entry, entry);
        let lo = s.partition_point_addr(cfg.range.0);
        let hi = s.partition_point_addr(cfg.range.1.max(cfg.range.0));
        let mut at = lo;
        for b in &cfg.blocks {
            assert_eq!(b.insns.start, at, "{ctx} fn {entry:#x}: gap/overlap at {:#x}", b.start);
            assert!(b.insns.end > b.insns.start, "{ctx} fn {entry:#x}: empty block");
            assert_eq!(s.addr_at(b.insns.start), b.start, "{ctx} fn {entry:#x}: start addr");
            assert_eq!(s.end_at(b.insns.end - 1), b.end, "{ctx} fn {entry:#x}: end addr");
            // Every successor index refers to a real block.
            for &succ in &b.succs {
                assert!(succ < cfg.blocks.len(), "{ctx} fn {entry:#x}: dangling edge");
            }
            at = b.insns.end;
        }
        assert_eq!(at, hi, "{ctx} fn {entry:#x}: blocks must cover the whole range");
    }
    cfgs.len()
}

#[test]
fn cfg_blocks_tile_every_function_of_a_pristine_corpus() {
    let ds = dataset(0xCF60);
    let mut checked = 0;
    for bin in &ds.binaries {
        checked += assert_cfgs_tile(&bin.bytes, &format!("{} {}", bin.program, bin.config.label()));
    }
    assert!(checked > 100, "expected many CFGs, checked {checked}");
}

#[test]
fn indirect_edge_candidates_honor_the_endbr_constraint() {
    // On a pristine corpus every CET-constrained indirect target must be
    // an entry whose ground truth says "starts with an end-branch" —
    // never a plain entry the hardware would fault on.
    let ds = dataset(0xCF61);
    let mut targets = 0;
    for bin in &ds.binaries {
        let prepared = prepare(&bin.bytes).unwrap();
        let analysis = FunSeeker::new().identify_prepared(&prepared);
        let entries: Vec<u64> = analysis.functions.iter().copied().collect();
        let graph = build_call_graph(&prepared.index, &entries);
        for &t in &graph.indirect_targets {
            if let Some(f) = bin.truth.by_addr(t) {
                assert!(
                    f.has_endbr,
                    "{} {}: {:#x} ({}) lacks an end-branch but was offered as an indirect target",
                    bin.program,
                    bin.config.label(),
                    t,
                    f.name
                );
                targets += 1;
            }
        }
    }
    assert!(targets > 50, "constraint checked on only {targets} targets");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("FUNSEEKER_MUTATION_CASES")
            .ok().and_then(|v| v.parse().ok()).unwrap_or(48)
    ))]

    /// Hostile mutants: whatever a corrupted image decodes to, the CFG
    /// partition over it still tiles exactly — junk decodes land in
    /// blocks, they never produce gaps, overlaps, or panics.
    #[test]
    fn cfg_tiling_survives_hostile_mutants(seed in any::<u64>()) {
        let ds = dataset(0xCF62);
        let bin = &ds.binaries[(seed % ds.len() as u64) as usize];
        let mut mutator = Mutator::new(seed);
        let (mutated, corruption) = mutator.mutate(&bin.bytes);
        assert_cfgs_tile(&mutated, &format!("{} under {}", bin.program, corruption.label()));
    }
}
