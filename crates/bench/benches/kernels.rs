//! Per-kernel isolation: each vectorized sweep kernel against its scalar
//! reference, per tier, on identical input.
//!
//! The whole-sweep benchmark (`sweep_shards`) measures the kernels
//! diluted by the decoder; this group isolates the two scans — ENDBR
//! needle search and padding-run skipping — so the per-tier speedups
//! (and the SSE2/SWAR fallbacks' costs) are visible on their own. Inputs
//! are a tiled real `.text` (realistic byte mix: needles rare, no long
//! pad runs) plus a synthetic padded buffer for the run-skipper's best
//! case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use funseeker_bench::single_binary;
use funseeker_disasm::kernels::{find_endbr, pad_run_end};
use funseeker_disasm::KernelTier;
use funseeker_elf::Elf;

/// Tiles one binary's `.text` until the buffer crosses `target` bytes.
fn tiled_text(target: usize) -> Vec<u8> {
    let bin = single_binary();
    let elf = Elf::parse(&bin.bytes).unwrap();
    let (_, text) = elf.section_bytes(".text").unwrap();
    let mut code = Vec::with_capacity(target + text.len());
    while code.len() < target {
        code.extend_from_slice(text);
    }
    code
}

fn supported() -> Vec<KernelTier> {
    KernelTier::ALL.into_iter().filter(|t| t.is_supported()).collect()
}

fn bench(c: &mut Criterion) {
    let code = tiled_text(1 << 20);

    // ENDBR needle scan over realistic bytes (candidates are sparse, so
    // this is dominated by the wide 0xF3 compare).
    let mut g = c.benchmark_group("kernel_endbr_scan");
    g.throughput(Throughput::Bytes(code.len() as u64));
    for tier in supported() {
        g.bench_with_input(BenchmarkId::from_parameter(format!("{tier:?}")), &tier, |b, &t| {
            b.iter(|| std::hint::black_box(find_endbr(&code, t).len()))
        });
    }
    g.finish();

    // Padding-run skip: one maximal NOP run (inter-function padding's
    // best case — the sweep skips it in a handful of wide compares).
    let pad = vec![0x90u8; 64 << 10];
    let mut g = c.benchmark_group("kernel_pad_skip");
    g.throughput(Throughput::Bytes(pad.len() as u64));
    for tier in supported() {
        g.bench_with_input(BenchmarkId::from_parameter(format!("{tier:?}")), &tier, |b, &t| {
            b.iter(|| std::hint::black_box(pad_run_end(&pad, 0, pad.len(), 0x90, t)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
