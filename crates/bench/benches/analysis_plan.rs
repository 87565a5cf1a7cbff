//! Shared-plan analysis: the plan-once four-configuration derivation vs
//! re-planning for every configuration, over the benchmark corpus's
//! prepared images (parse + sweep excluded — this isolates the back
//! end the [`funseeker::AnalysisPlan`] fuses).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use funseeker::{prepare, AnalysisPlan, Config, Prepared, Scratch};
use funseeker_bench::bench_dataset;

fn bench(c: &mut Criterion) {
    let ds = bench_dataset();
    let images: Vec<&[u8]> = ds.binaries.iter().map(|b| b.bytes.as_slice()).collect();
    let prepared: Vec<Prepared<'_>> =
        images.iter().map(|b| prepare(b).expect("bench binary prepares")).collect();
    let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();

    let mut g = c.benchmark_group("analysis_plan");
    g.throughput(Throughput::Elements(prepared.len() as u64));

    // A rebuild before every derivation, shared scratch arena and plan —
    // what a caller analyzing one configuration at a time pays.
    let mut scratch = Scratch::new();
    let mut plan = AnalysisPlan::new();
    g.bench_function("replan_4config", |b| {
        b.iter(|| {
            let mut functions = 0usize;
            for p in &prepared {
                for cfg in &configs {
                    plan.rebuild(&p.parsed, &p.index, &mut scratch);
                    functions +=
                        plan.derive(cfg, &p.parsed, &p.index, &mut scratch).functions.len();
                }
            }
            std::hint::black_box(functions)
        })
    });

    // One plan rebuild per binary, each configuration derived by set
    // algebra.
    g.bench_function("plan_4config", |b| {
        b.iter(|| {
            let mut functions = 0usize;
            for p in &prepared {
                plan.rebuild(&p.parsed, &p.index, &mut scratch);
                for cfg in &configs {
                    let a = plan.derive(cfg, &p.parsed, &p.index, &mut scratch);
                    functions += a.functions.len();
                }
            }
            std::hint::black_box(functions)
        })
    });

    // The plan rebuild alone — what a single-configuration caller pays
    // on top of the sweep before the (near-free) derivation.
    g.bench_function("plan_rebuild", |b| {
        b.iter(|| {
            for p in &prepared {
                plan.rebuild(&p.parsed, &p.index, &mut scratch);
                std::hint::black_box(plan.filtered_entry_count());
            }
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
