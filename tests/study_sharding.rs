//! The deep study's key-sharded schedule is result-transparent: profiling
//! every distinct unit-profile key ahead of the cases, heaviest first,
//! yields exactly what driving the cases one by one on a fresh shared
//! cache yields, at every thread count, and each key is profiled once.

use analysis::study::{run_case_cached, run_deep_study_with, CaseData};
use conformance::metrics::study_config;
use fleet::screening::{StaticSuiteProfile, SuiteProfileCache};
use sdc_model::TestcaseId;
use silicon::catalog;
use std::collections::HashSet;
use toolchain::{CacheStats, ProfileCache, Suite};

/// Asserts two studies agree on everything a case measures.
fn assert_same_cases(label: &str, want: &[CaseData], got: &[CaseData]) {
    assert_eq!(want.len(), got.len(), "{label}");
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w.name, g.name, "{label}");
        assert_eq!(w.tested, g.tested, "{label} {}", w.name);
        assert_eq!(w.failing, g.failing, "{label} {}", w.name);
        assert_eq!(w.records, g.records, "{label} {}: records", w.name);
        assert_eq!(w.freq_per_setting, g.freq_per_setting, "{label} {}", w.name);
    }
}

/// The old shape of the study: cases sharded across workers, each
/// profiling its own testcases through one fresh shared cache as it
/// reaches them.
fn per_case_drive(suite: &Suite) -> Vec<CaseData> {
    let cache = ProfileCache::shared();
    let cfg = study_config(true, 1);
    catalog::deep_study_set()
        .iter()
        .map(|case| {
            let profiles = StaticSuiteProfile::build(suite, case.processor.physical_cores as usize);
            run_case_cached(case, suite, &profiles, &cfg, Some(cache.clone()))
        })
        .collect()
}

/// A key-sharded quick study at `threads` on fresh caches, with the unit
/// cache's counters.
fn keyed_study(threads: usize) -> (Vec<CaseData>, CacheStats) {
    let unit_cache = ProfileCache::shared();
    let study = run_deep_study_with(
        &study_config(true, threads),
        &SuiteProfileCache::new(),
        unit_cache.clone(),
    );
    (study.cases, unit_cache.stats())
}

#[test]
fn keyed_study_matches_per_case_drive() {
    let suite = Suite::standard();
    // Three independent cold studies; run side by side to share the cores.
    let (per_case, keyed) = std::thread::scope(|s| {
        let keyed: Vec<_> = [1, 2]
            .map(|threads| (threads, s.spawn(move || keyed_study(threads))))
            .into_iter()
            .collect();
        let per_case = per_case_drive(&suite);
        let keyed: Vec<_> = keyed
            .into_iter()
            .map(|(threads, h)| (threads, h.join().expect("study thread")))
            .collect();
        (per_case, keyed)
    });
    let keys: HashSet<(usize, TestcaseId)> = per_case
        .iter()
        .flat_map(|c| {
            let cores = c.processor.physical_cores as usize;
            c.tested.iter().map(move |&id| (cores, id))
        })
        .collect();
    let runs: usize = per_case.iter().map(|c| c.tested.len()).sum();
    assert_eq!(
        keys.len(),
        769,
        "distinct unit-profile keys of the quick study"
    );

    for (threads, (cases, stats)) in keyed {
        assert_same_cases(&format!("t{threads}"), &per_case, &cases);
        assert_eq!(
            stats.misses,
            keys.len() as u64,
            "t{threads}: one miss per key"
        );
        assert_eq!(
            stats.hits, runs as u64,
            "t{threads}: every executor run hits"
        );
    }
}
