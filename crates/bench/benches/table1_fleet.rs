//! Table 1 / Table 2 regeneration benches: fleet sampling, static suite
//! profiling, screening, and the end-to-end campaign at reduced scale.
//! Prints the regenerated rows once so the bench doubles as a checker.

use criterion::{criterion_group, criterion_main, Criterion};
use fleet::screening::StaticSuiteProfile;
use fleet::{run_campaign, FleetConfig, FleetPopulation, StageSpec};
use toolchain::Suite;

fn bench_population(c: &mut Criterion) {
    c.bench_function("fleet/sample_population_100k", |b| {
        b.iter(|| {
            let cfg = FleetConfig {
                total_cpus: 100_000,
                seed: 7,
                threads: 0,
            };
            FleetPopulation::sample(&cfg)
        })
    });
}

fn bench_static_profiles(c: &mut Criterion) {
    let suite = Suite::standard();
    c.bench_function("fleet/static_suite_profile_16c", |b| {
        b.iter(|| StaticSuiteProfile::build(&suite, 16))
    });
}

fn bench_screening(c: &mut Criterion) {
    let suite = Suite::standard();
    let profiles = StaticSuiteProfile::build(&suite, 16);
    let cpu = silicon::catalog::by_name("MIX1")
        .expect("catalog")
        .processor;
    let stage = StageSpec::default_pipeline()[2]; // re-install
    c.bench_function("fleet/stage_detection_probability", |b| {
        b.iter(|| fleet::stage_detection_probability(&cpu, &suite, &profiles, &stage))
    });
}

fn bench_campaign(c: &mut Criterion) {
    let suite = Suite::standard();
    // Print the regenerated Table 1 once (the paper's reference beside it).
    let out = run_campaign(
        &FleetConfig {
            total_cpus: 300_000,
            seed: 2021,
            threads: 0,
        },
        &suite,
    );
    eprintln!("[table1 @300k CPUs] measured vs paper (‱):");
    for ((label, measured), (_, paper)) in out
        .table1()
        .iter()
        .zip(analysis::failure_rates::PAPER_TABLE1_BP)
    {
        eprintln!("  {label:<12} {measured:>7.3} vs {paper:>6.3}");
    }
    let mut group = c.benchmark_group("fleet/campaign");
    group.sample_size(10);
    group.bench_function("300k_cpus", |b| {
        b.iter(|| {
            run_campaign(
                &FleetConfig {
                    total_cpus: 300_000,
                    seed: 2021,
                    threads: 0,
                },
                &suite,
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_population, bench_static_profiles, bench_screening, bench_campaign
}
criterion_main!(benches);
