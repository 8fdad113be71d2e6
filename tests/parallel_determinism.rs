//! Parallel execution is bitwise identical to serial execution.
//!
//! The fleet engine shards defective processors across worker threads,
//! with each processor's randomness forked from `(campaign seed,
//! processor id)` and results reassembled in population order — so a
//! campaign run with any thread count must produce exactly the same
//! `CampaignOutcome`. These tests pin that guarantee at the integration
//! level, for the campaign, the deep study, and the unit-profile cache.

use analysis::study::{run_deep_study, StudyConfig};
use fleet::{run_campaign_on, FleetConfig, FleetPopulation};
use sdc_model::Duration;
use toolchain::Suite;

/// Campaigns at 1 and 8 threads agree bit-for-bit, across seeds.
#[test]
fn campaign_parallel_matches_serial() {
    let suite = Suite::standard();
    for seed in [2021u64, 77] {
        let mut cfg = FleetConfig {
            total_cpus: 150_000,
            seed,
            threads: 1,
        };
        let pop = FleetPopulation::sample(&cfg);
        let serial = run_campaign_on(&cfg, &suite, &pop);
        cfg.threads = 8;
        let parallel = run_campaign_on(&cfg, &suite, &pop);

        assert_eq!(serial.total_cpus, parallel.total_cpus, "seed {seed}");
        assert_eq!(serial.per_arch_total, parallel.per_arch_total);
        assert_eq!(serial.fates, parallel.fates, "seed {seed}");
        assert_eq!(serial.table1(), parallel.table1());
        assert_eq!(serial.table2(), parallel.table2());
        // The suite-profile cache sees the same lookups either way.
        assert_eq!(
            serial.suite_cache.hits + serial.suite_cache.misses,
            parallel.suite_cache.hits + parallel.suite_cache.misses
        );
    }
}

/// The auto knob (`threads: 0` → available parallelism) changes nothing.
#[test]
fn campaign_auto_threads_matches_serial() {
    let suite = Suite::standard();
    let mut cfg = FleetConfig {
        total_cpus: 100_000,
        seed: 13,
        threads: 1,
    };
    let pop = FleetPopulation::sample(&cfg);
    let serial = run_campaign_on(&cfg, &suite, &pop);
    cfg.threads = 0;
    let auto = run_campaign_on(&cfg, &suite, &pop);
    assert_eq!(serial.fates, auto.fates);
}

/// The 27-case deep study — executor runs, records, frequencies — is
/// identical at 1 and 8 threads (shared unit-profile cache included).
#[test]
fn deep_study_parallel_matches_serial() {
    let cfg = |threads: usize| StudyConfig {
        per_testcase: Duration::from_secs(20),
        seed: 27,
        max_candidates: Some(8),
        threads,
        ..StudyConfig::default()
    };
    let serial = run_deep_study(&cfg(1));
    let parallel = run_deep_study(&cfg(8));
    assert_eq!(serial.cases.len(), parallel.cases.len());
    for (s, p) in serial.cases.iter().zip(&parallel.cases) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.tested, p.tested, "{}", s.name);
        assert_eq!(s.failing, p.failing, "{}", s.name);
        assert_eq!(
            s.records, p.records,
            "{}: records are bit-identical",
            s.name
        );
        assert_eq!(s.freq_per_setting, p.freq_per_setting, "{}", s.name);
    }
}
