//! Stage-level detection probabilities from static workload profiles.
//!
//! Running the full accelerated executor for every (defective CPU ×
//! 633 testcases × stage) would dominate a million-CPU campaign, so
//! fleet screening uses a closed form: for each testcase the programs of
//! *one* instance are *walked* (not executed) to count retire sites per
//! (class, datatype) and cycles per iteration. The walk
//! ([`toolchain::static_profile`], re-exported here) depends on neither
//! the core count nor a seed, so it is memoized per suite
//! ([`Suite::static_profiles`]): every [`SuiteProfileCache`] handed the
//! same suite, and so every campaign of a seed sweep, shares one walk
//! across every package shape. Only each testcase's steady-state package
//! temperature depends on the core count: a cache adds it from the
//! thermal model once per core count and stores it beside the shared
//! walk. The per-stage detection probability is then
//! `1 − Π exp(−λ_tc · D)`.
//!
//! The deep-study analyses use the full executor instead, and no test
//! compares the closed form with it. The closed form is tested for being
//! a probability, for monotonicity in duration and for the order of a
//! few catalog CPUs (`tests/prop.rs` and the unit tests below); the
//! one-instance walk, the cached profiles and the stored temperatures
//! are checked bit for bit against the all-instances walk, a fresh
//! [`StaticSuiteProfile::build`] and the thermal model
//! (`tests/screening_one_instance.rs`), and the closed form, which
//! evaluates each defect's trigger curve once per testcase, against the
//! per-core [`silicon::Defect::rate`] loop (`tests/screening_closed_form.rs`).

use crate::lifecycle::StageSpec;
use silicon::defect::DefectKind;
use silicon::Processor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use thermal::{ThermalConfig, ThermalModel};
use toolchain::{CacheStats, Suite, Testcase, CLOCK_HZ};

pub use toolchain::static_profile::{walk, ProgramWalk, StaticProfile};

/// Static profiles of a whole suite on one core count, shared across
/// every processor of that shape: the suite's walks, which every core
/// count shares, and each testcase's all-cores steady-state temperature
/// on this shape.
#[derive(Debug)]
pub struct StaticSuiteProfile {
    profiles: Arc<[StaticProfile]>,
    steady_temps_c: Vec<f64>,
    cores: usize,
}

/// The walks of `testcases`, sharded across `threads` workers (`0` =
/// available parallelism). Walking has no randomness and no core count,
/// so the result is identical for every thread count and serves every
/// package shape.
fn walk_suite(testcases: &[Testcase], threads: usize) -> Arc<[StaticProfile]> {
    crate::parallel::run_indexed(testcases, threads, |_, tc| {
        StaticProfile::of(tc, tc.threads as usize)
    })
    .into()
}

impl StaticSuiteProfile {
    /// Profiles every testcase of `suite` for `machine_cores` cores from
    /// a fresh walk: neither the suite's memoized walk nor any cache is
    /// read or filled.
    ///
    /// # Panics
    ///
    /// Panics if `machine_cores` is smaller than a testcase's thread
    /// count.
    pub fn build(suite: &Suite, machine_cores: usize) -> StaticSuiteProfile {
        StaticSuiteProfile::on_cores(suite, walk_suite(suite.testcases(), 1), machine_cores)
    }

    /// `walks` of `suite`, with each testcase's steady-state temperature
    /// on `machine_cores` cores.
    fn on_cores(
        suite: &Suite,
        walks: Arc<[StaticProfile]>,
        machine_cores: usize,
    ) -> StaticSuiteProfile {
        assert!(
            suite
                .testcases()
                .iter()
                .all(|tc| machine_cores >= tc.threads as usize),
            "machine has fewer cores than testcase threads"
        );
        // Steady state: every core of the package at the workload's power.
        let probe = ThermalModel::new(machine_cores, ThermalConfig::default());
        let steady_temps_c = walks
            .iter()
            .map(|profile| {
                let mut t = probe.clone();
                t.set_all_powers(profile.power);
                t.target_temp(0)
            })
            .collect();
        StaticSuiteProfile {
            profiles: walks,
            steady_temps_c,
            cores: machine_cores,
        }
    }

    /// The profile of testcase `idx` (suite ids are dense).
    pub fn get(&self, idx: usize) -> &StaticProfile {
        &self.profiles[idx]
    }

    /// The steady-state temperature (°C) of a package of [`Self::cores`]
    /// cores running testcase `idx` on every core.
    pub fn steady_temp_c(&self, idx: usize) -> f64 {
        self.steady_temps_c[idx]
    }

    /// Core count these profiles were built for.
    pub fn cores(&self) -> usize {
        self.cores
    }
}

/// Shared, thread-safe memoization of [`StaticSuiteProfile`]s by core
/// count.
///
/// A campaign's workers all need the suite profile for each package
/// shape. The cache walks nothing itself: it takes the walk the suite
/// memoizes ([`Suite::static_profiles`]), so every cache handed the same
/// suite shares one walk, and each core count adds only its steady
/// temperatures, once — same lock discipline as `toolchain`'s
/// unit-profile cache (mutex for bookkeeping only, the builds run
/// outside the lock in `OnceLock`s). Each core-count lookup counts one
/// hit or miss. Entries are keyed by core count alone, so one cache
/// serves one suite.
#[derive(Default)]
pub struct SuiteProfileCache {
    hits: AtomicU64,
    misses: AtomicU64,
    inner: Mutex<HashMap<usize, Arc<OnceLock<Arc<StaticSuiteProfile>>>>>,
}

impl std::fmt::Debug for SuiteProfileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteProfileCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl SuiteProfileCache {
    /// An empty cache.
    pub fn new() -> SuiteProfileCache {
        SuiteProfileCache::default()
    }

    /// The suite profile for `machine_cores`, built on first use. If
    /// `suite` has not been walked yet, the first build walks it with
    /// `build_threads` workers; every later build, of this cache or any
    /// other, reuses that walk. Concurrent callers asking for the same
    /// core count build once; the rest block on the entry.
    pub fn get_or_build(
        &self,
        suite: &Suite,
        machine_cores: usize,
        build_threads: usize,
    ) -> Arc<StaticSuiteProfile> {
        let slot = {
            let mut inner = self.inner.lock().expect("suite profile cache poisoned");
            match inner.get(&machine_cores) {
                Some(slot) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    slot.clone()
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let slot = Arc::new(OnceLock::new());
                    inner.insert(machine_cores, Arc::clone(&slot));
                    slot
                }
            }
        };
        slot.get_or_init(|| {
            let walks = suite.static_profiles(|tcs| walk_suite(tcs, build_threads));
            Arc::new(StaticSuiteProfile::on_cores(
                suite,
                Arc::clone(walks),
                machine_cores,
            ))
        })
        .clone()
    }

    /// Current counters (evictions are always zero: core counts are
    /// few, so this cache never evicts).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            entries: self
                .inner
                .lock()
                .expect("suite profile cache poisoned")
                .len(),
        }
    }
}

/// Probability that one full pass of `stage` over the suite detects
/// `processor`.
///
/// Temperatures are the steady-state targets of a package running the
/// testcase on every core (the framework tests all cores simultaneously)
/// plus the stage's temperature offset.
///
/// # Panics
///
/// Panics unless `profiles` were built for the processor's core count.
pub fn stage_detection_probability(
    processor: &Processor,
    suite: &Suite,
    profiles: &StaticSuiteProfile,
    stage: &StageSpec,
) -> f64 {
    assert_eq!(
        processor.physical_cores as usize,
        profiles.cores(),
        "suite profiles built for another core count"
    );
    let secs = stage.per_testcase.as_secs_f64();
    let mut log_survive = 0f64;
    for (idx, tc) in suite.testcases().iter().enumerate() {
        if idx % stage.suite_stride.max(1) != 0 {
            continue;
        }
        let profile = profiles.get(idx);
        let temp = profiles.steady_temp_c(idx) + stage.temp_offset_c;
        for defect in &processor.defects {
            if !defect.applies_to(tc.id) {
                continue;
            }
            // Aggregate rate over all cores of the package; a
            // single-threaded testcase triggers computation defects only.
            let mut lambda = 0f64;
            if profile.multithread || defect.kind.is_computation() {
                let events_per_cycle = match &defect.kind {
                    DefectKind::Computation { .. } => profile
                        .sites_per_cycle
                        .iter()
                        .filter(|((class, dt), _)| defect.matches(*class, *dt))
                        .map(|(_, v)| v)
                        .sum::<f64>(),
                    DefectKind::CoherenceDrop => profile.invalidations_per_cycle,
                    DefectKind::TxIsolation => profile.tx_conflicts_per_cycle,
                };
                // `Defect::rate` per core, with the trigger curve (one
                // `powf`) evaluated once for the package temperature.
                let at_temp = defect.trigger.rate_at(temp);
                for core in 0..processor.physical_cores {
                    let scale = defect.scope.core_scale(core);
                    if scale == 0.0 {
                        continue;
                    }
                    let rate = (at_temp * scale).clamp(0.0, 0.5);
                    if rate <= 0.0 {
                        continue;
                    }
                    lambda += events_per_cycle * CLOCK_HZ * rate;
                }
            }
            log_survive += -(lambda * secs);
            if log_survive < -40.0 {
                return 1.0;
            }
        }
    }
    1.0 - log_survive.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_model::Duration;
    use silicon::catalog;

    #[test]
    fn heavyweight_stage_detects_apparent_defect() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let profiles = StaticSuiteProfile::build(&suite, simd1.physical_cores as usize);
        let heavy = StageSpec {
            stage: crate::Stage::Reinstall,
            per_testcase: Duration::from_secs(90),
            temp_offset_c: 6.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let p = stage_detection_probability(&simd1, &suite, &profiles, &heavy);
        assert!(
            p > 0.99,
            "apparent defect must be caught by the burn-in screen: {p}"
        );
    }

    #[test]
    fn healthy_processor_never_detected() {
        let suite = Suite::standard();
        let healthy = Processor::healthy(sdc_model::CpuId(5000), sdc_model::ArchId(2), 1.0);
        let profiles = StaticSuiteProfile::build(&suite, 16);
        let heavy = StageSpec {
            stage: crate::Stage::Reinstall,
            per_testcase: Duration::from_secs(90),
            temp_offset_c: 6.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let p = stage_detection_probability(&healthy, &suite, &profiles, &heavy);
        assert_eq!(p, 0.0);
    }

    #[test]
    #[should_panic(expected = "another core count")]
    fn profiles_of_another_core_count_are_rejected() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let profiles = StaticSuiteProfile::build(&suite, simd1.physical_cores as usize + 8);
        let spec = StageSpec::default_pipeline()[0];
        stage_detection_probability(&simd1, &suite, &profiles, &spec);
    }

    #[test]
    fn weak_stage_detects_less_than_strong_stage() {
        let suite = Suite::standard();
        let fpu2 = catalog::by_name("FPU2").unwrap().processor;
        let profiles = StaticSuiteProfile::build(&suite, fpu2.physical_cores as usize);
        let weak = StageSpec {
            stage: crate::Stage::Datacenter,
            per_testcase: Duration::from_millis(200),
            temp_offset_c: -32.0, // actively cooled bench: near idle temps
            suite_stride: 8,
            age_years: 0.02,
        };
        let strong = StageSpec {
            stage: crate::Stage::Reinstall,
            per_testcase: Duration::from_secs(120),
            temp_offset_c: 8.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let pw = stage_detection_probability(&fpu2, &suite, &profiles, &weak);
        let ps = stage_detection_probability(&fpu2, &suite, &profiles, &strong);
        assert!(ps > pw, "strong {ps} vs weak {pw}");
    }
}
