//! Property tests for the shared [`AnalysisPlan`]: every analysis
//! derived from the plan must be **bit-identical** to the reference
//! oracle ([`funseeker::reference`], Algorithm 1 on `BTreeSet`s) for
//! every Table II configuration and every extension toggle — on
//! pristine corpora and across hostile mutant images alike.
//!
//! This is the contract the batch scheduler relies on when it rebuilds
//! one plan per image and derives each configuration by set algebra.

use funseeker::{prepare, reference, AnalysisPlan, Config, Scratch};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams, Mutator};
use proptest::prelude::*;

fn dataset(seed: u64) -> Dataset {
    let mut params = DatasetParams::tiny();
    params.programs = (3, 2, 3);
    params.configs = BuildConfig::grid();
    Dataset::generate(&params, seed)
}

/// Every configuration the plan must reproduce exactly: the four
/// Table II columns crossed with the extension toggles (reachability
/// pruning, interprocedural summaries) and with the pattern-scan `E`
/// input, SELECTTAILCALL over the unfiltered base `E ∪ C` crossed with
/// the extension toggles, and non-default tail-referer thresholds.
fn config_matrix() -> Vec<Config> {
    let extensions = [(false, false), (true, false), (false, true), (true, true)];
    let mut out = Vec::new();
    for (_, base) in Config::table2() {
        for (reach_prune, interproc) in extensions {
            out.push(Config { reach_prune, interproc, ..base });
        }
        out.push(Config { endbr_pattern_scan: true, ..base });
    }
    for (reach_prune, interproc) in extensions {
        out.push(Config { filter_endbr: false, reach_prune, interproc, ..Config::c4() });
    }
    out.push(Config { min_tail_referers: 1, ..Config::c4() });
    out.push(Config { min_tail_referers: 5, reach_prune: true, ..Config::c4() });
    out
}

/// Rebuilds one plan for `bytes` and checks every matrix configuration
/// against the reference oracle. Returns the number of configurations
/// checked (0 when the image does not parse — mutants may be rejected,
/// never analyzed inconsistently).
fn assert_plan_matches_reference(bytes: &[u8], ctx: &str) -> usize {
    let Ok(prepared) = prepare(bytes) else { return 0 };
    let mut plan = AnalysisPlan::new();
    let mut scratch = Scratch::new();
    plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
    let mut checked = 0;
    for config in config_matrix() {
        let fast = plan.derive(&config, &prepared.parsed, &prepared.index, &mut scratch);
        let slow = reference::identify(&config, &prepared);
        assert_eq!(fast, slow, "{ctx}: plan-derived analysis diverged under {config:?}");
        checked += 1;
    }
    checked
}

#[test]
fn plan_matches_reference_on_a_pristine_corpus() {
    let ds = dataset(0x91A7);
    let mut checked = 0;
    for bin in &ds.binaries {
        checked += assert_plan_matches_reference(
            &bin.bytes,
            &format!("{} {}", bin.program, bin.config.label()),
        );
    }
    assert!(checked > 100, "expected many configurations, checked {checked}");
}

#[test]
fn one_plan_serves_interleaved_derivations() {
    // The batch scheduler derives configurations in arbitrary order from
    // one long-lived plan; interleaving must not let one configuration's
    // scratch state leak into the next, and alternating pattern-scan and
    // sweep-only configurations re-keys the plan's `E` in place.
    let ds = dataset(0x91A8);
    let bin = &ds.binaries[0];
    let prepared = prepare(&bin.bytes).unwrap();
    let mut plan = AnalysisPlan::new();
    let mut scratch = Scratch::new();
    plan.rebuild(&prepared.parsed, &prepared.index, &mut scratch);
    let matrix = config_matrix();
    // Forward, backward, and a shuffled-ish stride through the matrix.
    let order: Vec<usize> = (0..matrix.len())
        .chain((0..matrix.len()).rev())
        .chain((0..matrix.len()).map(|i| (i * 7) % matrix.len()))
        .collect();
    for &i in &order {
        let config = &matrix[i];
        let fast = plan.derive(config, &prepared.parsed, &prepared.index, &mut scratch);
        let slow = reference::identify(config, &prepared);
        assert_eq!(fast, slow, "interleaved derivation diverged under {config:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("FUNSEEKER_MUTATION_CASES")
            .ok().and_then(|v| v.parse().ok()).unwrap_or(32)
    ))]

    /// Hostile mutants: whatever a corrupted image parses to, the plan
    /// derivation and the reference oracle must agree bit-for-bit on
    /// every configuration — corruption may change *what* is found,
    /// never make the two disagree.
    #[test]
    fn plan_matches_reference_on_hostile_mutants(seed in any::<u64>()) {
        let ds = dataset(0x91A9);
        let bin = &ds.binaries[(seed % ds.len() as u64) as usize];
        let mut mutator = Mutator::new(seed);
        let (mutated, corruption) = mutator.mutate(&bin.bytes);
        assert_plan_matches_reference(
            &mutated,
            &format!("{} under {}", bin.program, corruption.label()),
        );
    }
}
