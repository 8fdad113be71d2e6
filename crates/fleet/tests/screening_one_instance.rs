//! Fleet screening walks one instance per testcase, shares the walks
//! across core counts, caches and campaigns of one suite, and stores
//! steady temperatures per core count; each shortcut must reproduce the
//! all-instances walk, a fresh suite build and the per-call thermal
//! model bit for bit.

use fleet::screening::{walk, ProgramWalk, StaticProfile, StaticSuiteProfile, SuiteProfileCache};
use fleet::{run_campaign, FleetConfig};
use std::sync::{Arc, Barrier};
use thermal::{ThermalConfig, ThermalModel};
use toolchain::{builders, Suite, Testcase};

/// Every package shape of the fleet (micro-architectures M1–M9).
const CORE_COUNTS: [usize; 6] = [8, 16, 24, 32, 48, 64];

/// The all-instances fold: build `tc` on every one of `machine_cores`
/// cores and keep the first program with the most cycles.
fn all_instances_oracle(tc: &Testcase, machine_cores: usize) -> StaticProfile {
    let built = builders::build(tc, machine_cores, 8, 0x57a71c);
    let mut best: Option<ProgramWalk> = None;
    for program in built.programs.iter().flatten() {
        let w = walk(program);
        let better = match &best {
            None => true,
            Some(b) => w.cycles > b.cycles,
        };
        if better {
            best = Some(w);
        }
    }
    StaticProfile::from_walk(tc, best.expect("every testcase builds a program"))
}

fn assert_bit_equal(got: &StaticProfile, want: &StaticProfile, what: &str) {
    assert_eq!(got.multithread, want.multithread, "{what}: multithread");
    assert_eq!(got.power.to_bits(), want.power.to_bits(), "{what}: power");
    assert_eq!(
        got.invalidations_per_cycle.to_bits(),
        want.invalidations_per_cycle.to_bits(),
        "{what}: invalidations"
    );
    assert_eq!(
        got.tx_conflicts_per_cycle.to_bits(),
        want.tx_conflicts_per_cycle.to_bits(),
        "{what}: tx conflicts"
    );
    assert_eq!(
        got.sites_per_cycle.len(),
        want.sites_per_cycle.len(),
        "{what}: site keys"
    );
    for (key, v) in &want.sites_per_cycle {
        let g = got
            .sites_per_cycle
            .get(key)
            .unwrap_or_else(|| panic!("{what}: missing site {key:?}"));
        assert_eq!(g.to_bits(), v.to_bits(), "{what}: site {key:?}");
    }
}

#[test]
fn one_instance_matches_the_all_instances_walk() {
    let suite = Suite::standard();
    for tc in suite.testcases() {
        let own = tc.threads as usize;
        for cores in std::iter::once(own).chain(CORE_COUNTS) {
            let what = format!("{} on {cores} cores", tc.name);
            assert_bit_equal(
                &StaticProfile::of(tc, cores),
                &all_instances_oracle(tc, cores),
                &what,
            );
        }
    }
}

#[test]
fn stored_steady_temperatures_match_the_thermal_model() {
    let suite = Suite::standard();
    for cores in CORE_COUNTS {
        let profiles = StaticSuiteProfile::build(&suite, cores);
        let probe = ThermalModel::new(cores, ThermalConfig::default());
        for idx in 0..suite.len() {
            let mut t = probe.clone();
            t.set_all_powers(profiles.get(idx).power);
            assert_eq!(
                profiles.steady_temp_c(idx).to_bits(),
                t.target_temp(0).to_bits(),
                "testcase {idx} on {cores} cores"
            );
        }
    }
}

/// `CORE_COUNTS` plus a package shape outside the catalog.
fn shapes() -> Vec<usize> {
    CORE_COUNTS.iter().copied().chain([12]).collect()
}

fn assert_suite_bit_equal(got: &StaticSuiteProfile, want: &StaticSuiteProfile, n: usize) {
    assert_eq!(got.cores(), want.cores());
    let cores = want.cores();
    for idx in 0..n {
        let what = format!("testcase {idx} on {cores} cores");
        assert_bit_equal(got.get(idx), want.get(idx), &what);
        assert_eq!(
            got.steady_temp_c(idx).to_bits(),
            want.steady_temp_c(idx).to_bits(),
            "{what}: steady temperature"
        );
    }
}

#[test]
fn cached_profiles_match_fresh_builds_in_any_order() {
    let suite = Suite::standard();
    let fresh: Vec<(usize, StaticSuiteProfile)> = shapes()
        .into_iter()
        .map(|cores| (cores, StaticSuiteProfile::build(&suite, cores)))
        .collect();

    let ascending = SuiteProfileCache::new();
    for (cores, want) in &fresh {
        assert_suite_bit_equal(
            &ascending.get_or_build(&suite, *cores, 1),
            want,
            suite.len(),
        );
    }
    let descending = SuiteProfileCache::new();
    for (cores, want) in fresh.iter().rev() {
        assert_suite_bit_equal(
            &descending.get_or_build(&suite, *cores, 2),
            want,
            suite.len(),
        );
    }
    // Both threads ask for their first core count together, so both
    // race for the one walk.
    let concurrent = SuiteProfileCache::new();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for half in [0, 1] {
            let (suite, fresh, cache, start) = (&suite, &fresh, &concurrent, &start);
            scope.spawn(move || {
                start.wait();
                let mine = fresh.iter().skip(half).step_by(2);
                for (cores, want) in mine {
                    assert_suite_bit_equal(
                        &cache.get_or_build(suite, *cores, 2),
                        want,
                        suite.len(),
                    );
                }
            });
        }
    });
    for cache in [&ascending, &descending, &concurrent] {
        let stats = cache.stats();
        assert_eq!(stats.misses, fresh.len() as u64);
        assert_eq!(stats.entries, fresh.len());
        assert_eq!(stats.hits, 0);
    }
}

#[test]
fn core_counts_of_one_cache_share_one_walk() {
    let suite = Suite::standard();
    let cache = SuiteProfileCache::new();
    let first = cache.get_or_build(&suite, 16, 1);
    let again = cache.get_or_build(&suite, 16, 1);
    assert!(
        Arc::ptr_eq(&first, &again),
        "a hit returns the cached entry"
    );
    for cores in shapes() {
        let other = cache.get_or_build(&suite, cores, 1);
        assert_eq!(other.cores(), cores);
        for idx in [0, suite.len() - 1] {
            assert!(
                std::ptr::eq(first.get(idx), other.get(idx)),
                "{cores} cores re-walked testcase {idx}"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (2, shapes().len() as u64));
    // The walk belongs to the suite, so a second cache reuses it too.
    assert!(std::ptr::eq(
        first.get(0),
        SuiteProfileCache::new().get_or_build(&suite, 16, 1).get(0)
    ));
}

/// The suite's walk, which must already exist.
fn memoized_walk(suite: &Suite) -> Arc<[StaticProfile]> {
    Arc::clone(suite.static_profiles(|_| panic!("the suite was not walked yet")))
}

#[test]
fn campaigns_on_one_suite_share_one_walk() {
    let suite = Suite::standard();
    let mut walks = Vec::new();
    for threads in [1, 2] {
        let cfg = FleetConfig {
            total_cpus: 200_000,
            seed: 2021,
            threads,
        };
        let stats = run_campaign(&cfg, &suite).suite_cache;
        // One lookup per defective processor, one miss per package
        // shape: the counters recorded before the walk moved into the
        // suite, which moving it must not change.
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (66, 5, 5, 0),
            "suite cache at {threads} threads"
        );
        walks.push(memoized_walk(&suite));
    }
    assert!(
        Arc::ptr_eq(&walks[0], &walks[1]),
        "the second campaign re-walked"
    );
}

#[test]
#[should_panic(expected = "fewer cores than testcase threads")]
fn suite_cache_on_too_few_cores_panics() {
    let suite = Suite::standard();
    let cache = SuiteProfileCache::new();
    cache.get_or_build(&suite, 16, 1);
    cache.get_or_build(&suite, 2, 1);
}

#[test]
#[should_panic(expected = "fewer cores than testcase threads")]
fn profiling_on_too_few_cores_panics() {
    let suite = Suite::standard();
    let tc = suite
        .testcases()
        .iter()
        .find(|tc| tc.threads == 4)
        .expect("the suite has 4-thread testcases");
    StaticProfile::of(tc, 2);
}
