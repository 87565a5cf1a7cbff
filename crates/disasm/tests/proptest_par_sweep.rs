//! Property tests for the sharding invariant: `sweep_sharded` and
//! `par_sweep` must be bit-identical to the sequential sweep — same
//! instructions (address, length, kind), same error count — on
//! arbitrary byte soups and on real corpus-generated code, for every
//! kernel tier, every shard count and both modes.

use std::sync::OnceLock;

use funseeker_corpus::{
    compile, Arch, BuildConfig, Compiler, FunctionSpec, Lang, OptLevel, ProgramSpec,
};
use funseeker_disasm::{
    adaptive_shards, par_sweep, sweep_all, sweep_sharded, KernelTier, LinearSweep, Mode,
};
use funseeker_elf::Elf;
use funseeker_pool::Pool;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// Pool widths the worker-invariance checks sweep. Pools are built once
/// and live for the whole test process: workers are detached threads,
/// so per-case pools would leak a thread per case.
const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn pools() -> &'static [Pool] {
    static POOLS: OnceLock<Vec<Pool>> = OnceLock::new();
    POOLS.get_or_init(|| POOL_WIDTHS.iter().map(|&w| Pool::with_workers(w)).collect())
}

/// One 2-worker pool per supported kernel tier, its probe cache seeded
/// with the tier, so every sweep through it decodes with that tier.
fn tier_pools() -> &'static [(KernelTier, Pool)] {
    static POOLS: OnceLock<Vec<(KernelTier, Pool)>> = OnceLock::new();
    POOLS.get_or_init(|| {
        KernelTier::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .map(|t| {
                let pool = Pool::with_workers(2);
                pool.probe_cache().store(t as u8, std::sync::atomic::Ordering::Relaxed);
                (t, pool)
            })
            .collect()
    })
}

/// Asserts the invariant for one buffer under every shard count, and that
/// the packed [`funseeker_disasm::InsnStream`] round-trips to the exact
/// instruction sequence the reference [`LinearSweep`] iterator yields.
fn assert_shard_invariant(
    code: &[u8],
    base: u64,
    mode: Mode,
) -> Result<(), proptest::TestCaseError> {
    let mut reference = LinearSweep::new(code, base, mode);
    let ref_insns: Vec<_> = reference.by_ref().collect();
    let seq = sweep_all(code, base, mode);
    prop_assert_eq!(
        &seq.to_insns(),
        &ref_insns,
        "packed stream diverges from the LinearSweep reference ({} bytes)",
        code.len()
    );
    prop_assert_eq!(seq.error_count, reference.error_count(), "sequential error count");
    // Every supported kernel tier, sequential and at every shard count,
    // produces the same stream as the process-default one.
    for (tier, pool) in tier_pools() {
        for shards in SHARD_COUNTS {
            let tiered = sweep_sharded(pool, code, base, mode, shards);
            prop_assert_eq!(&tiered.stream, &seq.stream, "tier {:?} x{} diverges", tier, shards);
            prop_assert_eq!(tiered.error_count, seq.error_count, "tier {:?} error count", tier);
        }
    }
    // The adaptive entry point may pick either path; the contract holds
    // regardless.
    let adaptive = par_sweep(code, base, mode, 8);
    prop_assert_eq!(&adaptive.stream, &seq.stream, "adaptive par_sweep diverges");
    for shards in SHARD_COUNTS {
        // An exact count, so the speculative decode + stitch stays covered
        // on one-worker hosts where the adaptive path goes sequential.
        let par = sweep_sharded(funseeker_pool::global(), code, base, mode, shards);
        prop_assert_eq!(
            &par.stream,
            &seq.stream,
            "instruction stream diverges at {} shards ({} bytes)",
            shards,
            code.len()
        );
        prop_assert_eq!(
            par.error_count,
            seq.error_count,
            "error count diverges at {} shards",
            shards
        );
    }
    // Worker-count invariance: the same bytes through pools of width
    // 1, 2, 4, and 8 — both the adaptive morsel path (which sizes its
    // morsel count to the pool) and a fixed shard count — must all
    // produce the sequential stream.
    for pool in pools() {
        let shards = adaptive_shards(code.len(), pool.workers());
        let adaptive = sweep_sharded(pool, code, base, mode, shards);
        prop_assert_eq!(
            &adaptive.stream,
            &seq.stream,
            "adaptive stream diverges on a {}-worker pool",
            pool.workers()
        );
        let fixed = sweep_sharded(pool, code, base, mode, 5);
        prop_assert_eq!(
            &fixed.stream,
            &seq.stream,
            "5-shard stream diverges on a {}-worker pool",
            pool.workers()
        );
        prop_assert_eq!(fixed.error_count, seq.error_count, "pooled error count");
    }
    Ok(())
}

/// Strategy: a small, structurally valid program spec (a reduced version
/// of the corpus proptest's generator — enough to exercise real
/// instruction mixes including switches and tail calls).
fn arb_spec() -> impl Strategy<Value = ProgramSpec> {
    (2usize..10, any::<u64>())
        .prop_map(|(n, bits)| {
            let mut functions = Vec::with_capacity(n);
            for i in 0..n {
                let mut f =
                    FunctionSpec::named(if i == 0 { "main".into() } else { format!("f{i}") });
                let r = bits.rotate_left((i * 9) as u32);
                f.body_size = 2 + (r % 16) as usize;
                if i >= 2 && r & 1 == 1 {
                    f.calls.push((r % (i as u64 - 1)) as usize + 1);
                }
                if r & 2 == 2 {
                    f.switch_cases = 2 + (r % 5) as usize;
                }
                functions.push(f);
            }
            ProgramSpec { name: "shard".into(), lang: Lang::C, functions }
        })
        .prop_filter("valid spec", |spec| spec.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soups: decode errors land everywhere, shard entry
    /// points are desynchronized on purpose.
    #[test]
    fn byte_soup_invariant(code in proptest::collection::vec(any::<u8>(), 0..12_000), wide in any::<bool>()) {
        let mode = if wide { Mode::Bits64 } else { Mode::Bits32 };
        assert_shard_invariant(&code, 0x1000, mode)?;
    }

    /// Corpus-generated code: well-formed instruction streams from the
    /// workspace's own compiler model, both architectures.
    #[test]
    fn corpus_code_invariant(spec in arb_spec(), seed in any::<u64>(), x64 in any::<bool>(), opt in 0usize..6) {
        let arch = if x64 { Arch::X64 } else { Arch::X86 };
        let cfg = BuildConfig {
            compiler: if seed & 1 == 0 { Compiler::Gcc } else { Compiler::Clang },
            arch,
            opt: OptLevel::ALL[opt],
            pie: seed & 2 == 0,
        };
        let built = compile(&spec, cfg, seed);
        let elf = Elf::parse(&built.bytes).expect("corpus binary parses");
        let (text_addr, text) = elf.section_bytes(".text").expect("has .text");
        assert_shard_invariant(text, text_addr, arch.mode())?;
    }
}

// ---------------------------------------------------------------------
// Deterministic adversarial morsel boundaries. `sweep_sharded` puts
// shard k's entry point at `k * len / shards`, so these buffers are
// sized to drop that entry point exactly where resynchronization is
// hardest: inside a multi-byte instruction, inside an ENDBR64, and deep
// inside NOP/INT3 padding runs the bulk skipper handles specially.
// ---------------------------------------------------------------------

/// Asserts the sequential stream is reproduced for `shards` shards on
/// the default pool and on every [`POOL_WIDTHS`] pool.
fn assert_boundary_equivalent(code: &[u8], base: u64, mode: Mode, shards: usize) {
    let seq = sweep_all(code, base, mode);
    let par = sweep_sharded(funseeker_pool::global(), code, base, mode, shards);
    assert_eq!(par.stream, seq.stream, "{shards}-shard stream diverges");
    assert_eq!(par.error_count, seq.error_count, "{shards}-shard error count");
    for pool in pools() {
        let pooled = sweep_sharded(pool, code, base, mode, shards);
        assert_eq!(
            pooled.stream,
            seq.stream,
            "{} shards on a {}-worker pool diverge",
            shards,
            pool.workers()
        );
    }
}

/// Large enough for several shards at the 4 KiB shard-size floor.
const BOUNDARY_LEN: usize = 32 * 1024;

#[test]
fn boundary_splits_endbr_at_every_offset() {
    // A NOP field with one ENDBR64 placed so the 2-shard boundary at
    // len/2 lands 0–3 bytes into it. The second shard's speculative
    // decode starts inside (or exactly at) the marker and must agree
    // with the sequential stream after the stitch. A trailing ret keeps
    // the buffer from being one giant run.
    for offset in 0..4usize {
        let mut code = vec![0x90u8; BOUNDARY_LEN];
        let pos = BOUNDARY_LEN / 2 - offset;
        code[pos..pos + 4].copy_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa]);
        *code.last_mut().unwrap() = 0xc3;
        assert_boundary_equivalent(&code, 0x40_1000, Mode::Bits64, 2);
    }
}

#[test]
fn boundary_splits_long_instruction() {
    // mov rax, imm64 (10 bytes) straddling the 2-shard boundary at every
    // interior offset: the boundary shard begins mid-immediate, where
    // the bytes happen to look like other instructions, and must
    // resynchronize before its splice point.
    let mov = [0x48u8, 0xb8, 0xf3, 0x0f, 0x1e, 0xfa, 0x90, 0xc3, 0xcc, 0xe8];
    for offset in 1..mov.len() {
        let mut code = vec![0x90u8; BOUNDARY_LEN];
        let pos = BOUNDARY_LEN / 2 - offset;
        code[pos..pos + mov.len()].copy_from_slice(&mov);
        *code.last_mut().unwrap() = 0xc3;
        assert_boundary_equivalent(&code, 0x40_1000, Mode::Bits64, 2);
    }
}

#[test]
fn boundary_inside_padding_runs() {
    // Alternating NOP and INT3 runs sized so every 4-shard boundary
    // lands deep inside a run (never on a run edge): the speculative
    // shard starts mid-run and its bulk skipper must slice the run
    // exactly as the sequential bulk skipper does.
    let run = BOUNDARY_LEN / 4; // boundary period == run period, offset by the rets
    let mut code = Vec::with_capacity(BOUNDARY_LEN + 8);
    let mut pad = 0x90u8;
    while code.len() < BOUNDARY_LEN {
        code.push(0xc3);
        code.extend(std::iter::repeat_n(pad, run - 1));
        pad = if pad == 0x90 { 0xcc } else { 0x90 };
    }
    for shards in [2, 4, 8] {
        assert_boundary_equivalent(&code, 0x40_1000, Mode::Bits64, shards);
    }
}
