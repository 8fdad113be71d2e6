//! The unit-profile cache is result-transparent: a series of runs on a
//! cache that already holds every profile it needs is bitwise identical
//! to the same series on a cold cache, because the profiling RNG is
//! derived from the cache key rather than the caller's stream.

use sdc_model::{DetRng, Duration};
use silicon::catalog;
use std::sync::Arc;
use toolchain::{ExecConfig, Executor, ProfileCache, Suite};

/// Five distinct testcases, three of them repeated.
const PICKS: [u32; 8] = [0, 140, 300, 450, 560, 0, 140, 300];

/// Runs [`PICKS`] on SIMD1 with `cache` and returns every run.
fn run_series(cache: Arc<ProfileCache>) -> Vec<toolchain::TestcaseRun> {
    let suite = Suite::standard();
    let simd1 = catalog::by_name("SIMD1").expect("catalog").processor;
    let cores: Vec<u16> = (0..simd1.physical_cores).collect();
    let mut executor = Executor::with_cache(&simd1, ExecConfig::default(), cache);
    let mut rng = DetRng::new(404);
    PICKS
        .iter()
        .map(|&i| {
            let tc = suite.get(sdc_model::TestcaseId(i));
            executor.run(tc, &cores, Duration::from_secs(30), &mut rng)
        })
        .collect()
}

#[test]
fn warm_runs_are_bitwise_identical_to_cold() {
    let cold = ProfileCache::shared();
    let cold_runs = run_series(Arc::clone(&cold));
    let stats = cold.stats();
    // Five distinct testcases, three repeated → 5 misses, 3 hits.
    assert_eq!(stats.misses, 5);
    assert_eq!(stats.hits, 3);
    assert!(stats.hit_rate() > 0.3);

    // Warm a second cache through the direct lookup, in reverse order.
    let suite = Suite::standard();
    let cores = catalog::by_name("SIMD1")
        .expect("catalog")
        .processor
        .physical_cores;
    let warm = ProfileCache::shared();
    for &i in PICKS.iter().rev() {
        warm.profile(suite.get(sdc_model::TestcaseId(i)), cores as usize);
    }
    let warmed = warm.stats();
    assert_eq!((warmed.misses, warmed.entries), (5, 5));
    let warm_runs = run_series(Arc::clone(&warm));
    assert_eq!(warm_runs, cold_runs);
    // Every lookup of the series hit the warmed entries.
    assert_eq!(warm.stats().misses, 5);
    assert_eq!(warm.stats().hits, warmed.hits + PICKS.len() as u64);
}

#[test]
fn cache_is_shared_between_executors() {
    let suite = Suite::standard();
    let simd1 = catalog::by_name("SIMD1").expect("catalog").processor;
    let cores: Vec<u16> = (0..simd1.physical_cores).collect();
    let tc = suite.get(sdc_model::TestcaseId(300));
    let cache = ProfileCache::shared();

    let run_with_fresh_executor = |cache: Arc<ProfileCache>, seed: u64| {
        let mut executor = Executor::with_cache(&simd1, ExecConfig::default(), cache);
        let mut rng = DetRng::new(seed);
        executor.run(tc, &cores, Duration::from_secs(30), &mut rng)
    };
    let a = run_with_fresh_executor(Arc::clone(&cache), 1);
    let b = run_with_fresh_executor(Arc::clone(&cache), 1);
    assert_eq!(a, b);
    // The second executor reused the first one's profile.
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 1);
}
