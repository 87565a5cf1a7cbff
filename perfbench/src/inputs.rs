//! Seeded workload inputs. The same seed gives byte-identical inputs;
//! the program under test only ever sees the generated files and bytes.

use std::collections::BTreeSet;

use funseeker::FuncSet;
use funseeker_corpus::{
    compile, compile_with, Arch, BuildConfig, Compiler, Dataset, DatasetParams, EmissionOptions,
    GroundTruth, Lang, OptLevel, ProgramSpec,
};

/// Input sizes of one benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Fleet programs per suite (Coreutils, Binutils, SPEC), each built
    /// under all 48 build configurations.
    pub fleet_programs: (usize, usize, usize),
    /// Function-body instructions (the sum of `FunctionSpec::body_size`)
    /// the fleet's programs hold: a seed's program set is redrawn until
    /// it lands within 2% of this, so every seed gives about the same
    /// work.
    pub fleet_instructions: usize,
    /// Programs per suite merged into the one large CLI binary.
    pub large_programs: (usize, usize, usize),
    /// Distinct hot images the daemon workloads submit.
    pub hot_images: usize,
    /// Programs per suite merged into each hot image.
    pub hot_programs: (usize, usize, usize),
}

impl Sizes {
    /// The benchmark's sizes. The fleet is the paper's suite mix
    /// (108, 15, 47) scaled to six programs, so a fleet pass is short
    /// enough for a tail percentile with ten samples beyond it within
    /// one run. The large binary holds every program of the paper-sized
    /// dataset.
    /// The large binary holds every program of the paper-sized dataset.
    pub const FULL: Sizes = Sizes {
        fleet_programs: (4, 1, 1),
        fleet_instructions: 6_100,
        large_programs: (108, 15, 47),
        hot_images: 16,
        hot_programs: (25, 4, 11),
    };

    /// Minimal sizes for the smoke test: every code path, little work.
    pub const SMOKE: Sizes = Sizes {
        fleet_programs: (1, 1, 1),
        fleet_instructions: 4_500,
        large_programs: (4, 1, 2),
        hot_images: 2,
        hot_programs: (2, 1, 1),
    };
}

/// SplitMix64: the benchmark's own seeded generator, so input choices
/// do not depend on any library's random-number stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One compiled binary with its ground truth.
#[derive(Debug, Clone)]
pub struct Built {
    /// The ELF image.
    pub bytes: Vec<u8>,
    /// Exact function entries and metadata.
    pub truth: GroundTruth,
}

/// A fleet: every program under every build configuration.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Program specs, one per program.
    pub specs: Vec<ProgramSpec>,
    /// `binaries[p * configs + c]` is program `p` under configuration `c`.
    pub binaries: Vec<Built>,
}

fn program_specs(programs: (usize, usize, usize), seed: u64) -> Vec<ProgramSpec> {
    let params = DatasetParams { programs, configs: Vec::new() };
    Dataset::program_specs(&params, seed).into_iter().map(|(_, spec)| spec).collect()
}

fn build_seed(seed: u64, program: usize, config: usize) -> u64 {
    Rng::new(seed, ((program as u64) << 8) | config as u64).next_u64()
}

/// Function-body instructions in `specs`.
fn instructions(specs: &[ProgramSpec]) -> usize {
    specs.iter().flat_map(|s| &s.functions).map(|f| f.body_size).sum()
}

/// The first of the seed's program sets, drawn in turn, whose function
/// bodies come within 2% of `target` (or the closest of a thousand
/// draws). Each draw is a whole suite-mix set, so the C/C++ split stays
/// the generator's.
fn fleet_specs(programs: (usize, usize, usize), target: usize, seed: u64) -> Vec<ProgramSpec> {
    let mut best: Option<(usize, Vec<ProgramSpec>)> = None;
    for draw in 0..1000 {
        let specs = program_specs(programs, Rng::new(seed, 0xf1ee7 + draw).next_u64());
        let off = instructions(&specs).abs_diff(target);
        if off * 50 <= target {
            return specs;
        }
        if best.as_ref().is_none_or(|(b, _)| off < *b) {
            best = Some((off, specs));
        }
    }
    best.expect("at least one draw").1
}

/// Generates the fleet for `sizes` at `seed`.
pub fn fleet(sizes: &Sizes, seed: u64) -> Fleet {
    let specs = fleet_specs(sizes.fleet_programs, sizes.fleet_instructions, seed);
    let grid = BuildConfig::full_grid();
    let mut binaries = Vec::with_capacity(specs.len() * grid.len());
    for (p, spec) in specs.iter().enumerate() {
        for (c, &config) in grid.iter().enumerate() {
            let linked = compile(spec, config, build_seed(seed, p, c));
            binaries.push(Built { bytes: linked.bytes, truth: linked.truth });
        }
    }
    Fleet { specs, binaries }
}

/// The version update of a fleet: a seeded one in ten of its binaries
/// (exactly `len / 10`, at least one), each rebuilt from the same
/// program spec with one function body resized, under the same build
/// configuration and build seed. Returns `(fleet index, new build)`
/// sorted by index.
pub fn fleet_update(fleet: &Fleet, seed: u64) -> Vec<(usize, Built)> {
    let grid = BuildConfig::full_grid();
    let n = fleet.binaries.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, 0x0bda7e);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut chosen: Vec<usize> = order[..(n / 10).max(1)].to_vec();
    chosen.sort_unstable();
    chosen
        .into_iter()
        .map(|i| {
            let (p, c) = (i / grid.len(), i % grid.len());
            let mut spec = fleet.specs[p].clone();
            let main = spec.main_index();
            let candidates: Vec<usize> =
                (0..spec.functions.len()).filter(|&f| Some(f) != main).collect();
            let f = candidates[rng.below(candidates.len())];
            spec.functions[f].body_size += 4 + rng.below(29);
            let linked = compile(&spec, grid[c], build_seed(seed, p, c));
            (i, Built { bytes: linked.bytes, truth: linked.truth })
        })
        .collect()
}

/// Merges programs into one: every function keeps its body and call
/// structure, renamed `p<k>_<name>` so names stay unique, and the
/// first program's `main` stays the entry.
pub fn merge(specs: &[ProgramSpec], name: &str) -> ProgramSpec {
    let mut functions = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let offset = functions.len();
        for f in &spec.functions {
            let mut f = f.clone();
            if k > 0 || f.name != "main" {
                f.name = format!("p{k}_{}", f.name);
            }
            f.calls.iter_mut().for_each(|c| *c += offset);
            if let Some(t) = f.tail_call.as_mut() {
                *t += offset;
            }
            functions.push(f);
        }
    }
    let lang = if specs.iter().any(|s| s.lang == Lang::Cpp) { Lang::Cpp } else { Lang::C };
    ProgramSpec { name: name.to_owned(), lang, functions }
}

/// The one large binary a reverse engineer opens: `programs` merged,
/// built stripped with GCC for x86-64 at -O2 as a PIE.
pub fn large_binary(programs: (usize, usize, usize), seed: u64) -> Built {
    let spec = merge(&program_specs(programs, seed ^ 0x1a26e), "large");
    let config =
        BuildConfig { compiler: Compiler::Gcc, arch: Arch::X64, opt: OptLevel::O2, pie: true };
    let options = EmissionOptions { strip_symbols: true, ..EmissionOptions::default() };
    let linked = compile_with(&spec, config, options, build_seed(seed, usize::MAX, 0));
    Built { bytes: linked.bytes, truth: linked.truth }
}

/// The daemon workloads' hot images: each merges its own seeded
/// program set, built at -O2 as a PIE by both compilers for both
/// architectures in turn.
pub fn hot_images(count: usize, programs: (usize, usize, usize), seed: u64) -> Vec<Built> {
    (0..count)
        .map(|i| {
            let specs = program_specs(programs, Rng::new(seed, 0x407 + i as u64).next_u64());
            let spec = merge(&specs, &format!("hot{i}"));
            let config = BuildConfig {
                compiler: if i % 2 == 0 { Compiler::Gcc } else { Compiler::Clang },
                arch: if i % 4 < 2 { Arch::X64 } else { Arch::X86 },
                opt: OptLevel::O2,
                pie: true,
            };
            let linked = compile(&spec, config, build_seed(seed, i, 1));
            Built { bytes: linked.bytes, truth: linked.truth }
        })
        .collect()
}

/// A content-unique variant of `image`: `tag` is appended past every
/// region the ELF headers describe, so its analysis equals the
/// original's while its content hash, and so every cache key, differs.
pub fn padded(image: &[u8], tag: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(image.len() + 8);
    v.extend_from_slice(image);
    v.extend_from_slice(&tag.to_le_bytes());
    v
}

/// A digest of a sequence of inputs, to show that a seed fixes them.
pub fn digest<'a>(inputs: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = funseeker_batch::Hasher64::new();
    for bytes in inputs {
        h.write(&(bytes.len() as u64).to_le_bytes());
        h.write(bytes);
    }
    h.finish()
}

/// Identification counts against ground truth. Kept here rather than
/// borrowed from the evaluation crate so the benchmark depends on as
/// little of the repository as it can.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Reported entries that are real entries.
    pub tp: usize,
    /// Reported entries that are not.
    pub fp: usize,
    /// Real entries not reported.
    pub fn_: usize,
}

impl Score {
    /// Adds one binary's counts.
    pub fn add(&mut self, found: &FuncSet, truth: &GroundTruth) {
        let entries: BTreeSet<u64> = truth.eval_entries();
        let tp = found.iter().filter(|a| entries.contains(a)).count();
        self.tp += tp;
        self.fp += found.len() - tp;
        self.fn_ += entries.len() - tp;
    }

    /// Precision in percent.
    pub fn precision_pct(&self) -> f64 {
        100.0 * self.tp as f64 / (self.tp + self.fp).max(1) as f64
    }

    /// Recall in percent.
    pub fn recall_pct(&self) -> f64 {
        100.0 * self.tp as f64 / (self.tp + self.fn_).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_digest(seed: u64) -> u64 {
        let f = fleet(&Sizes::SMOKE, seed);
        let update = fleet_update(&f, seed);
        digest(
            f.binaries.iter().map(|b| &b.bytes[..]).chain(update.iter().map(|(_, b)| &b.bytes[..])),
        )
    }

    #[test]
    fn the_seed_fixes_the_inputs() {
        assert_eq!(fleet_digest(2022), fleet_digest(2022));
        assert_ne!(fleet_digest(2022), fleet_digest(2023));
        let s = Sizes::SMOKE;
        let large = |seed| digest([&large_binary(s.large_programs, seed).bytes[..]]);
        assert_eq!(large(5), large(5));
        assert_ne!(large(5), large(6));
        let hot = |seed| {
            let images = hot_images(s.hot_images, s.hot_programs, seed);
            digest(images.iter().map(|b| &b.bytes[..]))
        };
        assert_eq!(hot(5), hot(5));
        assert_ne!(hot(5), hot(6));
    }

    #[test]
    fn an_update_changes_a_tenth_of_the_fleet() {
        let f = fleet(&Sizes::SMOKE, 9);
        let update = fleet_update(&f, 9);
        assert_eq!(update.len(), f.binaries.len() / 10);
        for (i, built) in &update {
            assert_ne!(built.bytes, f.binaries[*i].bytes, "binary {i} unchanged by its update");
        }
        assert!(update.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn fleets_are_sized_in_instructions() {
        let s = Sizes::FULL;
        for seed in [1, 2, 3] {
            let specs = fleet_specs(s.fleet_programs, s.fleet_instructions, seed);
            assert_eq!(specs.len(), 6);
            assert!(
                instructions(&specs).abs_diff(s.fleet_instructions) * 50 <= s.fleet_instructions
            );
        }
    }

    #[test]
    fn merged_programs_keep_every_function() {
        let specs = program_specs((2, 1, 1), 3);
        let merged = merge(&specs, "m");
        assert_eq!(merged.functions.len(), specs.iter().map(|s| s.functions.len()).sum::<usize>());
        merged.validate().expect("merged spec is valid");
        let names: BTreeSet<&str> = merged.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names.len(), merged.functions.len());
        assert_eq!(merged.main_index(), Some(0));
    }

    #[test]
    fn padding_keeps_the_analysis() {
        let image = &hot_images(1, (1, 0, 1), 4)[0].bytes;
        let seeker = funseeker::FunSeeker::new();
        assert_eq!(seeker.identify(&padded(image, 7)).unwrap(), seeker.identify(image).unwrap());
    }
}
