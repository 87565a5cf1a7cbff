//! The batch engine runs the Table II configurations on the evidence
//! sweep alone: over corpus images, no instruction stream is built. A
//! change that makes the default path read the stream would silently
//! sweep every image twice; this catches it.
//!
//! One test in its own binary, so no other test's stream builds can
//! move the process-wide counter in between.

use funseeker::disassemble::streams_built;
use funseeker::Config;
use funseeker_batch::{run, BatchOptions};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams};

#[test]
fn table2_batch_never_builds_the_stream() {
    let mut params = DatasetParams::tiny();
    params.configs = BuildConfig::grid();
    let ds = Dataset::generate(&params, 0xBA7C);
    let images: Vec<&[u8]> = ds.binaries.iter().map(|b| &b.bytes[..]).collect();
    let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
    let out = run(&images, &configs, &BatchOptions::default());
    assert!(out.results.iter().flatten().all(Option::is_some), "every corpus image analyzes");
    assert!(images.len() > 50, "expected many corpus images, got {}", images.len());
    assert_eq!(streams_built(), 0, "a Table II configuration built the instruction stream");
}
