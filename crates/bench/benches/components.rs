//! Component ablations beyond the paper's tables: substrate throughput
//! (ELF parse, linear sweep, EH parse, PLT resolution) and the
//! SELECTTAILCALL referer-threshold sweep called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use funseeker_bench::single_binary;
use funseeker_disasm::sweep_all;
use funseeker_elf::{Elf, PltMap};

fn bench(c: &mut Criterion) {
    let bin = single_binary();
    let elf = Elf::parse(&bin.bytes).unwrap();
    let (text_addr, text) = elf.section_bytes(".text").unwrap();
    let mode = bin.config.arch.mode();

    let mut g = c.benchmark_group("components");

    g.throughput(Throughput::Bytes(bin.bytes.len() as u64));
    g.bench_function("elf_parse", |b| {
        b.iter(|| std::hint::black_box(Elf::parse(&bin.bytes).unwrap().sections.len()))
    });
    g.bench_function("plt_map", |b| {
        let elf = Elf::parse(&bin.bytes).unwrap();
        b.iter(|| std::hint::black_box(PltMap::from_elf(&elf).unwrap().len()))
    });

    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("linear_sweep", |b| {
        b.iter(|| std::hint::black_box(sweep_all(text, text_addr, mode).stream.len()))
    });

    if let Some((eh_addr, eh)) = elf.section_bytes(".eh_frame") {
        g.throughput(Throughput::Bytes(eh.len() as u64));
        g.bench_function("eh_frame_parse", |b| {
            b.iter(|| {
                std::hint::black_box(
                    funseeker_eh::parse_eh_frame(eh, eh_addr, true).unwrap().fdes.len(),
                )
            })
        });
    }

    // Ablation: SELECTTAILCALL's "multiple referers" threshold.
    let prepared = funseeker::prepare(&bin.bytes).unwrap();
    for min_referers in [1usize, 2, 3] {
        let cfg = funseeker::Config { min_tail_referers: min_referers, ..funseeker::Config::c4() };
        let seeker = funseeker::FunSeeker::with_config(cfg);
        g.bench_with_input(
            BenchmarkId::new("selecttailcall_min_referers", min_referers),
            &min_referers,
            |b, _| {
                b.iter(|| std::hint::black_box(seeker.identify_prepared(&prepared).functions.len()))
            },
        );
    }
    // Corpus generation throughput (binaries/second of the simulator).
    g.bench_function("corpus_generate_tiny", |b| {
        b.iter(|| {
            let ds = funseeker_corpus::Dataset::generate(
                &funseeker_corpus::DatasetParams::tiny(),
                std::hint::black_box(11),
            );
            std::hint::black_box(ds.len())
        })
    });

    // ARM BTI extension: fixed-width sweep + identify.
    let arm = funseeker_aarch64::generate(funseeker_aarch64::ArmParams::default(), 7);
    g.throughput(Throughput::Bytes(arm.bytes.len() as u64));
    g.bench_function("arm_bti_identify", |b| {
        let seeker = funseeker_aarch64::BtiSeeker::new();
        b.iter(|| std::hint::black_box(seeker.identify(&arm.bytes).unwrap().functions.len()))
    });

    // Superset endbr pattern scan vs the plain pipeline.
    let scan_cfg = funseeker::Config { endbr_pattern_scan: true, ..funseeker::Config::c4() };
    let scan_seeker = funseeker::FunSeeker::with_config(scan_cfg);
    g.bench_function("endbr_pattern_scan_pipeline", |b| {
        b.iter(|| std::hint::black_box(scan_seeker.identify(&bin.bytes).unwrap().functions.len()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
