//! Figure 2–7 / Table 3 pipeline benches: per-case deep study, bitflip
//! histogramming, precision-loss CDFs, and pattern mining. Prints the
//! regenerated Figure 2 proportions once.

use analysis::study::{run_case, StudyConfig, StudyData};
use analysis::{features, precision};
use criterion::{criterion_group, criterion_main, Criterion};
use fleet::screening::StaticSuiteProfile;
use sdc_model::{DataType, Duration};
use silicon::catalog;
use toolchain::Suite;

fn small_study(suite: &Suite) -> StudyData {
    let cfg = StudyConfig {
        per_testcase: Duration::from_secs(60),
        seed: 3,
        max_candidates: Some(20),
        ..StudyConfig::default()
    };
    let mut cases = Vec::new();
    for name in ["MIX1", "SIMD1", "FPU1", "CNST1"] {
        let case = catalog::by_name(name).expect("catalog");
        let profiles = StaticSuiteProfile::build(suite, case.processor.physical_cores as usize);
        cases.push(run_case(&case, suite, &profiles, &cfg));
    }
    StudyData { cases }
}

fn bench_case_study(c: &mut Criterion) {
    let suite = Suite::standard();
    let case = catalog::by_name("FPU1").expect("catalog");
    let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
    let cfg = StudyConfig {
        per_testcase: Duration::from_secs(60),
        seed: 5,
        max_candidates: Some(10),
        ..StudyConfig::default()
    };
    let mut group = c.benchmark_group("study");
    group.sample_size(10);
    group.bench_function("run_case_fpu1", |b| {
        b.iter(|| run_case(&case, &suite, &profiles, &cfg))
    });
    group.finish();
}

fn bench_figure_analyses(c: &mut Criterion) {
    let suite = Suite::standard();
    let study = small_study(&suite);
    eprintln!("[figure 2 @4 CPUs] proportion per feature:");
    for share in features::figure2(&study, &suite) {
        eprintln!("  {:<8} {:.3}", share.feature.label(), share.proportion);
    }
    let records: Vec<_> = study.all_records().cloned().collect();
    let corpus = analysis::RecordCorpus::from_records(&records);
    eprintln!("[corpus] {} records", corpus.len());

    let mut group = c.benchmark_group("figures");
    group.bench_function("corpus_build", |b| {
        b.iter(|| analysis::RecordCorpus::from_records(&records))
    });
    group.bench_function("fig4_bit_histogram_f64", |b| {
        b.iter(|| corpus.bit_histogram(DataType::F64))
    });
    group.bench_function("fig4_loss_cdf_f32", |b| {
        b.iter(|| precision::loss_cdf(records.iter(), DataType::F32))
    });
    group.bench_function("fig6_pattern_mining", |b| b.iter(|| corpus.mine_patterns()));
    group.bench_function("fig7_flip_multiplicity", |b| {
        b.iter(|| corpus.flip_multiplicity(DataType::F32))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_case_study, bench_figure_analyses
}
criterion_main!(benches);
