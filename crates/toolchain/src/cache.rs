//! A thread-safe memoization cache for unit-run profiles.
//!
//! [`crate::Executor::run`] starts every accelerated run by profiling one
//! unit of the workload in the VM. The profile depends only on the
//! testcase, the core count, and the execution knobs that shape the unit
//! run — not on the processor's defects (profiling runs fault-free) or on
//! its thermal state. Across a fleet campaign, a multi-round evaluation,
//! or the 27-case deep study, the same (testcase × shape) profile is
//! recomputed thousands of times; a [`ProfileCache`] shared between
//! executors makes each unique key execute once, with the profiling RNG
//! derived purely from the key so cached and uncached runs are bitwise
//! identical.
//!
//! An entry keeps only what the executor reads back: per-core retire
//! rates, power and event rates, the unit wall time, and the bit samples
//! of the sites the unit retired. The profiler's per-core count tables
//! (264 sites × 8 B per core) are condensed into the rates and dropped
//! when the unit run ends.

use crate::executor::{compute_unit_profile, CoreProfile, ExecConfig};
use crate::profile::SampleTable;
use crate::testcase::Testcase;
use sdc_model::{DetRng, TestcaseId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything [`crate::Executor::run`] needs from the unit profiling run.
#[derive(Debug)]
pub struct CachedUnitProfile {
    /// Per-machine-core profiles (site rates, power, event rates),
    /// condensed from the profiler's per-core counts.
    pub(crate) profiles: Vec<CoreProfile>,
    /// Unit wall time in seconds.
    pub(crate) unit_secs: f64,
    /// The unit run's bit samples, which feed record materialization:
    /// one reservoir per retired site, none for the rest.
    pub(crate) samples: SampleTable,
}

impl CachedUnitProfile {
    /// Unit wall time in seconds.
    pub fn unit_secs(&self) -> f64 {
        self.unit_secs
    }
}

/// The memoization key: every input that shapes a unit profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// The testcase profiled.
    pub testcase: TestcaseId,
    /// Machine core count the testcase was instantiated on.
    pub cores: usize,
    /// [`ExecConfig::unit_iters`].
    pub unit_iters: u32,
    /// [`ExecConfig::clock_hz`], as raw bits (f64 is not `Eq`).
    pub clock_hz_bits: u64,
    /// [`ExecConfig::max_unit_steps`].
    pub max_unit_steps: u64,
}

impl ProfileKey {
    /// The key for running `testcase` on `cores` cores under `cfg`.
    pub fn of(testcase: TestcaseId, cores: usize, cfg: &ExecConfig) -> ProfileKey {
        ProfileKey {
            testcase,
            cores,
            unit_iters: cfg.unit_iters,
            clock_hz_bits: cfg.clock_hz.to_bits(),
            max_unit_steps: cfg.max_unit_steps,
        }
    }

    /// The profiling RNG for this key — a pure function of the key, so a
    /// profile computed on any thread (or not cached at all) draws the
    /// same stream.
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
    /// Entries discarded to stay within capacity.
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

struct Inner {
    /// Each entry with the stamp of its last use; the smallest stamp is
    /// the least recently used entry.
    map: HashMap<ProfileKey, (Slot, u64)>,
    /// The next use stamp.
    clock: u64,
}

/// Shared, thread-safe unit-profile memoization with LRU eviction.
///
/// Concurrency model: the map is guarded by a mutex held only for
/// bookkeeping; the (expensive) profile computation runs outside the lock
/// inside a per-key `OnceLock`, so two threads asking for the *same* key
/// compute it once (the second blocks), while different keys compute in
/// parallel.
pub struct ProfileCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ProfileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ProfileCache")
            .field("capacity", &self.capacity)
            .field("stats", &s)
            .finish()
    }
}

impl Default for ProfileCache {
    /// A cache sized for a whole standard suite across several package
    /// shapes (633 testcases × ~12 core counts).
    fn default() -> Self {
        ProfileCache::with_capacity(8192)
    }
}

impl ProfileCache {
    /// A cache holding at most `capacity` profiles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity profile cache");
        ProfileCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// A fresh default-capacity cache behind an [`Arc`], ready to share
    /// between executors.
    pub fn shared() -> Arc<ProfileCache> {
        Arc::new(ProfileCache::default())
    }

    /// Returns the cached profile for `key`, computing it with `compute`
    /// on first use.
    pub fn get_or_compute<F>(&self, key: ProfileKey, compute: F) -> Arc<CachedUnitProfile>
    where
        F: FnOnce() -> CachedUnitProfile,
    {
        let slot: Slot = {
            let mut inner = self.inner.lock().expect("profile cache poisoned");
            let stamp = inner.clock;
            inner.clock += 1;
            if let Some((slot, used)) = inner.map.get_mut(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *used = stamp;
                slot.clone()
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if inner.map.len() >= self.capacity {
                    let oldest = *inner
                        .map
                        .iter()
                        .min_by_key(|(_, (_, used))| *used)
                        .expect("a full cache has entries")
                        .0;
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let slot: Slot = Arc::new(OnceLock::new());
                inner.map.insert(key, (slot.clone(), stamp));
                slot
            }
        };
        slot.get_or_init(|| Arc::new(compute())).clone()
    }

    /// The unit profile of `tc` on `cores` cores under `cfg`, computed on
    /// first use. This is the lookup every [`crate::Executor`] run makes
    /// first; callers that know their keys ahead (the deep study) make it
    /// for many keys in parallel to warm the cache, so that their
    /// executors then hit on every lookup.
    pub fn profile(&self, tc: &Testcase, cores: usize, cfg: &ExecConfig) -> Arc<CachedUnitProfile> {
        let key = ProfileKey::of(tc.id, cores, cfg);
        self.get_or_compute(key, || compute_unit_profile(tc, key, cfg))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("profile cache poisoned").map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore as _;

    fn dummy_profile(tag: f64) -> CachedUnitProfile {
        CachedUnitProfile {
            profiles: Vec::new(),
            unit_secs: tag,
            samples: SampleTable::default(),
        }
    }

    fn key(tc: u32) -> ProfileKey {
        ProfileKey::of(TestcaseId(tc), 4, &ExecConfig::default())
    }

    #[test]
    fn compute_runs_once_per_key() {
        let cache = ProfileCache::with_capacity(8);
        let a = cache.get_or_compute(key(1), || dummy_profile(1.0));
        let b = cache.get_or_compute(key(1), || panic!("second compute for a cached key"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = ProfileCache::with_capacity(8);
        cache.get_or_compute(key(1), || dummy_profile(1.0));
        cache.get_or_compute(key(2), || dummy_profile(2.0));
        let mut cfg = ExecConfig::default();
        cfg.unit_iters += 1;
        cache.get_or_compute(ProfileKey::of(TestcaseId(1), 4, &cfg), || {
            dummy_profile(3.0)
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = ProfileCache::with_capacity(2);
        cache.get_or_compute(key(1), || dummy_profile(1.0));
        cache.get_or_compute(key(2), || dummy_profile(2.0));
        // Touch 1 so 2 becomes the eviction victim.
        cache.get_or_compute(key(1), || unreachable!());
        cache.get_or_compute(key(3), || dummy_profile(3.0));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // 1 survived; 2 was evicted and recomputes.
        cache.get_or_compute(key(1), || panic!("1 must still be resident"));
        let mut recomputed = false;
        cache.get_or_compute(key(2), || {
            recomputed = true;
            dummy_profile(2.0)
        });
        assert!(recomputed, "2 must have been evicted");
    }

    #[test]
    fn key_stream_is_pure() {
        let a = key(9).stream().next_u64();
        let b = key(9).stream().next_u64();
        let c = key(10).stream().next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The cached sample table answers every site exactly as the live
    /// profiler of the same unit run does, and stores no empty
    /// reservoir.
    #[test]
    fn cached_samples_match_the_live_profiler() {
        use crate::profile::Profiler;
        use crate::testcase::{WorkloadKind, WorkloadSpec};
        use crate::{builders, Suite};
        use sdc_model::DataType;
        use softcore::{InstClass, Machine};

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
        let cfg = ExecConfig::default();
        let cache = ProfileCache::default();
        for tc in picks {
            for cores in [8, 24, 64] {
                let key = ProfileKey::of(tc.id, cores, &cfg);
                let mut rng = key.stream();
                let built = builders::build(tc, cores, cfg.unit_iters, rng.next_u64());
                let mut machine = Machine::new(cores, built.mem_bytes);
                for &(addr, val) in &built.mem_init {
                    machine.mem.raw_write_u64(addr, val);
                }
                for (c, p) in built.programs.into_iter().enumerate() {
                    if let Some(p) = p {
                        machine.load(c, p);
                    }
                }
                let mut live = Profiler::new(rng.fork(0x9821));
                let mut interleave = rng.fork(0x77aa);
                let out = machine.run(&mut live, &mut interleave, cfg.max_unit_steps);
                assert!(out.completed);

                let unit = cache.profile(tc, cores, &cfg);
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
        let cache = Arc::new(ProfileCache::with_capacity(8));
        let computed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let computed = computed.clone();
                s.spawn(move || {
                    cache.get_or_compute(key(5), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        dummy_profile(5.0)
                    });
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
