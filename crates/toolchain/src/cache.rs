//! A thread-safe memoization cache for unit-run profiles.
//!
//! [`crate::Executor::run`] starts every accelerated run by profiling one
//! unit of the workload in the VM. The unit run's shape is fixed, so the
//! profile is a pure function of (testcase, core count): it does not
//! depend on the processor's defects (profiling runs fault-free), on its
//! thermal state, or on the executor's configuration. Every executor
//! looks its profiles up in a [`ProfileCache`], either a private one or
//! one shared with other executors. Across a fleet campaign, a
//! multi-round evaluation, or the 27-case deep study, a shared cache
//! makes each unique key execute once, with the profiling RNG derived
//! purely from the key so sharing never changes a result.
//!
//! The cache has no bound: the key space is at most the suite's 633
//! testcases × the package and sweep core counts, a few thousand
//! entries.
//!
//! An entry keeps only what the executor reads back: per-core retire
//! rates, power and event rates, and the bit samples of the sites the
//! unit retired. The profiler's per-core count tables (264 sites × 8 B
//! per core) are condensed into the rates and dropped when the unit run
//! ends.

use crate::executor::{
    compute_unit_profile, CoreProfile, ExecConfig, CLOCK_HZ, MAX_UNIT_STEPS, UNIT_ITERS,
};
use crate::profile::SampleTable;
use crate::testcase::Testcase;
use sdc_model::{DetRng, TestcaseId};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything [`crate::Executor::run`] needs from the unit profiling run.
#[derive(Debug)]
pub struct CachedUnitProfile {
    /// Per-machine-core profiles (site rates, power, event rates),
    /// condensed from the profiler's per-core counts.
    pub(crate) profiles: Vec<CoreProfile>,
    /// The unit run's bit samples, which feed record materialization:
    /// one reservoir per retired site, none for the rest.
    pub(crate) samples: SampleTable,
}

/// The memoization key of a unit profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// The testcase profiled.
    pub testcase: TestcaseId,
    /// Machine core count the testcase was instantiated on.
    pub cores: usize,
    /// Loop iterations of the unit run (always the executor's fixed
    /// value).
    pub unit_iters: u32,
    /// [`CLOCK_HZ`], as raw bits (f64 is not `Eq`).
    pub clock_hz_bits: u64,
    /// Step budget of the unit run (always the executor's fixed value).
    pub max_unit_steps: u64,
}

impl ProfileKey {
    /// The key for running `testcase` on `cores` cores. The unit run does
    /// not depend on `_cfg`; the parameter keeps the signature of
    /// callers that pass one.
    pub fn of(testcase: TestcaseId, cores: usize, _cfg: &ExecConfig) -> ProfileKey {
        ProfileKey::unit(testcase, cores)
    }

    /// The key of the executor's unit run of `testcase` on `cores` cores.
    pub(crate) fn unit(testcase: TestcaseId, cores: usize) -> ProfileKey {
        ProfileKey {
            testcase,
            cores,
            unit_iters: UNIT_ITERS,
            clock_hz_bits: CLOCK_HZ.to_bits(),
            max_unit_steps: MAX_UNIT_STEPS,
        }
    }

    /// The profiling RNG for this key — a pure function of the key, so a
    /// profile computed on any thread, in any cache, draws the same
    /// stream.
    pub fn stream(&self) -> DetRng {
        DetRng::new(0x9e0f_11e5_eed5_0bad)
            .fork(self.testcase.0 as u64)
            .fork(self.cores as u64)
            .fork(self.unit_iters as u64)
            .fork(self.clock_hz_bits)
            .fork(self.max_unit_steps)
    }
}

/// Point-in-time counters of a [`ProfileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found the key present (possibly still computing).
    pub hits: u64,
    /// Lookups that created the entry and ran the computation.
    pub misses: u64,
    /// Entries discarded; always 0, since the cache has no bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Slot = Arc<OnceLock<Arc<CachedUnitProfile>>>;

/// Shared, thread-safe unit-profile memoization.
///
/// Concurrency model: the map is guarded by a mutex held only for
/// bookkeeping; the (expensive) profile computation runs outside the lock
/// inside a per-key `OnceLock`, so two threads asking for the *same* key
/// compute it once (the second blocks), while different keys compute in
/// parallel.
#[derive(Default)]
pub struct ProfileCache {
    hits: AtomicU64,
    misses: AtomicU64,
    map: Mutex<HashMap<ProfileKey, Slot>>,
}

impl std::fmt::Debug for ProfileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ProfileCache {
    /// A fresh cache behind an [`Arc`], ready to share between
    /// executors.
    pub fn shared() -> Arc<ProfileCache> {
        Arc::new(ProfileCache::default())
    }

    /// Returns the cached profile for `key`, computing it with `compute`
    /// on first use.
    pub fn get_or_compute<F>(&self, key: ProfileKey, compute: F) -> Arc<CachedUnitProfile>
    where
        F: FnOnce() -> CachedUnitProfile,
    {
        let slot: Slot = match self.map.lock().expect("profile cache poisoned").entry(key) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                e.get().clone()
            }
            Entry::Vacant(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                e.insert(Slot::default()).clone()
            }
        };
        slot.get_or_init(|| Arc::new(compute())).clone()
    }

    /// The unit profile of `tc` on `cores` cores, computed on first use.
    /// This is the lookup every [`crate::Executor`] run makes first;
    /// callers that know their keys ahead (the deep study) make it for
    /// many keys in parallel to warm the cache, so that their executors
    /// then hit on every lookup.
    pub fn profile(&self, tc: &Testcase, cores: usize) -> Arc<CachedUnitProfile> {
        let key = ProfileKey::unit(tc.id, cores);
        self.get_or_compute(key, || compute_unit_profile(tc, key))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            entries: self.map.lock().expect("profile cache poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore as _;

    fn dummy_profile() -> CachedUnitProfile {
        CachedUnitProfile {
            profiles: Vec::new(),
            samples: SampleTable::default(),
        }
    }

    fn key(tc: u32) -> ProfileKey {
        ProfileKey::unit(TestcaseId(tc), 4)
    }

    #[test]
    fn compute_runs_once_per_key() {
        let cache = ProfileCache::default();
        let a = cache.get_or_compute(key(1), dummy_profile);
        let b = cache.get_or_compute(key(1), || panic!("second compute for a cached key"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = ProfileCache::default();
        cache.get_or_compute(key(1), dummy_profile);
        cache.get_or_compute(key(2), dummy_profile);
        cache.get_or_compute(ProfileKey::unit(TestcaseId(1), 8), dummy_profile);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn key_stream_is_pure() {
        let a = key(9).stream().next_u64();
        let b = key(9).stream().next_u64();
        let c = key(10).stream().next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The first two draws of the profiling stream for three keys, pinned
    /// to their recorded values: a change to `stream()` (a dropped or
    /// reordered fork) or to the fixed unit-run shape changes every unit
    /// profile, and with it the reproduction's output.
    #[test]
    fn key_stream_is_pinned() {
        // 450 is the suite's first lock-counter (consistency) testcase.
        let pins = [
            (0, 8, [0x884e_2fc9_2d26_39cf, 0xd6f5_f423_966a_06c0]),
            (300, 24, [0xd711_5867_4da9_05bf, 0x9bdf_04a1_b921_8f0f]),
            (450, 64, [0xe0a0_9339_64fb_bd8c, 0x0e7a_54c3_95f9_ffc5]),
        ];
        for (tc, cores, want) in pins {
            let mut rng = ProfileKey::of(TestcaseId(tc), cores, &ExecConfig::default()).stream();
            assert_eq!(
                [rng.next_u64(), rng.next_u64()],
                want,
                "testcase {tc} at {cores} cores"
            );
        }
    }

    /// The cached sample table answers every site exactly as the live
    /// profiler of the same unit run does, and stores no empty
    /// reservoir.
    #[test]
    fn cached_samples_match_the_live_profiler() {
        use crate::executor::{unit_run, UnitRun};
        use crate::testcase::{WorkloadKind, WorkloadSpec};
        use crate::Suite;
        use sdc_model::DataType;
        use softcore::InstClass;

        let suite = Suite::standard();
        let first = |pred: &dyn Fn(&Testcase) -> bool| {
            suite
                .testcases()
                .iter()
                .find(|tc| pred(tc))
                .expect("the suite has a testcase of each kind")
        };
        let picks = [
            first(&|tc| tc.kind == WorkloadKind::InstLoop),
            first(&|tc| tc.kind == WorkloadKind::Library),
            first(&|tc| tc.kind == WorkloadKind::AppLogic && tc.threads == 1),
            first(&|tc| matches!(tc.spec, WorkloadSpec::LockCounter { .. })),
            first(&|tc| matches!(tc.spec, WorkloadSpec::TxCounter { .. })),
        ];
        let cache = ProfileCache::default();
        for tc in picks {
            for cores in [8, 24, 64] {
                let key = ProfileKey::unit(tc.id, cores);
                let UnitRun {
                    mut machine,
                    profiler: mut live,
                    mut interleave,
                    ..
                } = unit_run(tc, key);
                let out = machine.run(&mut live, &mut interleave, key.max_unit_steps);
                assert!(out.completed);

                let unit = cache.profile(tc, cores);
                let mut retired = 0;
                for class in InstClass::ALL {
                    for dt in DataType::ALL {
                        let want = live.samples(class, dt);
                        assert_eq!(
                            unit.samples.samples(class, dt),
                            want,
                            "{} at {cores} cores, site {class:?}/{dt:?}",
                            tc.name
                        );
                        retired += usize::from(!want.is_empty());
                    }
                }
                assert!(retired > 0, "{} retired nothing", tc.name);
                assert_eq!(unit.samples.reservoirs().count(), retired);
                assert!(unit.samples.reservoirs().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = ProfileCache::shared();
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let computed = computed.clone();
                s.spawn(move || {
                    cache.get_or_compute(key(5), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        dummy_profile()
                    });
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
