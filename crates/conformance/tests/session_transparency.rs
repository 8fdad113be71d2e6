//! `repro` runs each computation once per process: the artifact printers
//! and the conformance gate read one campaign, one deep study and the
//! evaluation rows of each distinct config, all on one suite cache and
//! one unit-profile cache. The gate's metrics must not depend on that:
//! assembled from results the printers already read, they equal the
//! metrics of fresh, cache-cold runs bit for bit.

use analysis::study::{run_deep_study, run_deep_study_with};
use analysis::{casebook, features, RecordCorpus};
use conformance::metamorphic::check_transparent;
use conformance::metrics::{
    campaign_config, collect_metrics, eval_config, study_config, table4_config, Metric,
};
use farron::eval::{evaluate, evaluate_with};
use fleet::{run_campaign, SuiteProfileCache};
use std::sync::Arc;
use toolchain::{ProfileCache, Suite};

/// Metric names with their values' bit patterns, so equality is exact
/// (and a `NaN` sentinel compares equal to itself).
fn bits(metrics: &[Metric]) -> Vec<(String, u64)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

/// The quick-mode gate metrics from fresh `run_campaign`,
/// `run_deep_study` and `evaluate` calls, each on its own cold caches.
fn fresh(threads: usize) -> Vec<(String, u64)> {
    let suite = Suite::standard();
    let campaign = run_campaign(&campaign_config(true, threads), &suite);
    let study = run_deep_study(&study_config(true, threads));
    let rows = evaluate(&eval_config(true, threads));
    bits(&collect_metrics(&campaign, &study, &rows, &suite, true))
}

/// The quick-mode gate metrics as `repro all conform --quick` produces
/// them: the study and the Table 4 evaluation run on shared caches and
/// are read by the printers, then the gate evaluates its own config on
/// the same caches and assembles its metrics from those results.
fn session(threads: usize) -> Vec<(String, u64)> {
    let suite = Suite::standard();
    let suite_cache = SuiteProfileCache::new();
    let unit_cache = ProfileCache::shared();
    let campaign = run_campaign(&campaign_config(true, threads), &suite);
    let study = run_deep_study_with(
        &study_config(true, threads),
        &suite_cache,
        Arc::clone(&unit_cache),
    );
    let table4 = evaluate_with(
        &table4_config(true, threads),
        &suite_cache,
        Arc::clone(&unit_cache),
    );

    // What the printers read.
    assert_eq!(
        campaign.table1().len(),
        analysis::failure_rates::PAPER_TABLE1_BP.len()
    );
    assert!(!casebook::table3(&study).is_empty());
    assert!(!features::figure2(&study, &suite).is_empty());
    assert!(!RecordCorpus::collect(study.all_records())
        .mine_patterns()
        .is_empty());
    assert_eq!(table4.len(), farron::eval::EVAL_NAMES.len());

    // The gate re-reads the study and evaluates its own config; every
    // unit profile both need is already in the shared cache.
    let before = unit_cache.stats();
    let rows = evaluate_with(
        &eval_config(true, threads),
        &suite_cache,
        Arc::clone(&unit_cache),
    );
    let metrics = collect_metrics(&campaign, &study, &rows, &suite, true);
    let after = unit_cache.stats();
    assert_eq!(
        after.misses, before.misses,
        "the gate built unit profiles the printers' runs already had (t{threads})"
    );
    assert!(
        after.hits > before.hits,
        "the gate's evaluation reads the cache"
    );
    bits(&metrics)
}

#[test]
fn session_metrics_equal_fresh_runs_at_every_thread_count() {
    let result = check_transparent(
        "gate metrics",
        &["fresh/t1", "session/t1", "fresh/t2", "session/t2"],
        |variant| {
            let (path, threads) = variant.split_once("/t").expect("variant is path/tN");
            let threads = threads.parse().expect("thread count");
            match path {
                "fresh" => fresh(threads),
                "session" => session(threads),
                other => unreachable!("unknown path {other}"),
            }
        },
    );
    if let Err(e) = result {
        panic!("{e}");
    }
}
