//! Table II bench: the four FunSeeker configurations (1)-(4) per binary —
//! how much each stage (FILTERENDBR, J, SELECTTAILCALL) costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use funseeker::{AnalysisPlan, Config, FunSeeker, Scratch};
use funseeker_bench::single_binary;

fn bench(c: &mut Criterion) {
    let bin = single_binary();
    let mut g = c.benchmark_group("table2");
    for (label, cfg) in Config::table2() {
        let seeker = FunSeeker::with_config(cfg);
        g.bench_with_input(BenchmarkId::new("config", label), &bin.bytes, |b, bytes| {
            b.iter(|| std::hint::black_box(seeker.identify(bytes).unwrap().functions.len()))
        });
    }
    // Stage reuse: parse+sweep once, one plan, all four configurations
    // derived from it.
    g.bench_function("all_four_shared_sweep", |b| {
        b.iter(|| {
            let parsed = funseeker::parse::parse(&bin.bytes).unwrap();
            let sweep = funseeker::disassemble::disassemble(&parsed);
            let mut plan = AnalysisPlan::new();
            let mut scratch = Scratch::new();
            plan.rebuild(&parsed, &sweep, &mut scratch);
            let mut n = 0;
            for (_, cfg) in Config::table2() {
                n += plan.derive(&cfg, &parsed, &sweep, &mut scratch).functions.len();
            }
            std::hint::black_box(n)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
