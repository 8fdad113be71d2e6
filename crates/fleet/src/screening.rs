//! Stage-level detection probabilities from static workload profiles.
//!
//! Running the full accelerated executor for every (defective CPU ×
//! 633 testcases × stage) would dominate a million-CPU campaign, so
//! fleet screening uses a closed form: for each testcase the programs of
//! *one* instance are *walked* (not executed) to count retire sites per
//! (class, datatype) and cycles per iteration. The walk does not depend
//! on the core count (see [`StaticProfile::of`]), so a
//! [`SuiteProfileCache`] walks the suite once and shares the walks across
//! every package shape. Only each testcase's steady-state package
//! temperature depends on the core count: it comes from the thermal
//! model once per core count and is stored beside the shared walks. The
//! per-stage detection probability is then `1 − Π exp(−λ_tc · D)`.
//!
//! The deep-study analyses use the full executor instead, and no test
//! compares the closed form with it. The closed form is tested for being
//! a probability, for monotonicity in duration and for the order of a
//! few catalog CPUs (`tests/prop.rs` and the unit tests below); the
//! one-instance walk, the cached profiles and the stored temperatures
//! are checked bit for bit against the all-instances walk, a fresh
//! [`StaticSuiteProfile::build`] and the thermal model
//! (`tests/screening_one_instance.rs`).

use crate::lifecycle::StageSpec;
use sdc_model::DataType;
use silicon::defect::DefectKind;
use silicon::Processor;
use softcore::{Inst, InstClass, Program};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use thermal::{ThermalConfig, ThermalModel};
use toolchain::{builders, CacheStats, Suite, Testcase, CLOCK_HZ};

/// Static profile of one testcase instantiated on a given core count.
#[derive(Debug, Clone)]
pub struct StaticProfile {
    /// (class, dt) → retire sites per cycle, for the *busiest* program.
    pub sites_per_cycle: HashMap<(InstClass, DataType), f64>,
    /// Energy per cycle (thermal power proxy).
    pub power: f64,
    /// Estimated cache-invalidation deliveries per cycle per core
    /// (multi-threaded testcases only).
    pub invalidations_per_cycle: f64,
    /// Estimated conflicted transactional commits per cycle per core.
    pub tx_conflicts_per_cycle: f64,
    /// Whether the testcase is multi-threaded.
    pub multithread: bool,
}

/// What walking one program counts, loop multipliers applied.
#[derive(Debug)]
pub struct ProgramWalk {
    /// (class, dt) → retire sites per iteration.
    pub sites: HashMap<(InstClass, DataType), f64>,
    /// Cycles per iteration (at least 1).
    pub cycles: f64,
    /// Energy per iteration.
    pub energy: f64,
    /// Shared-memory writes (stores, CAS, lock traffic) per iteration.
    pub shared_writes: f64,
    /// Transactional commits per iteration.
    pub commits: f64,
}

/// Walks a program, accumulating per-(class, dt) site counts, cycles,
/// energy, and shared-memory traffic with loop multipliers.
pub fn walk(program: &Program) -> ProgramWalk {
    let mut sites: HashMap<(InstClass, DataType), f64> = HashMap::new();
    let mut cycles = 0f64;
    let mut energy = 0f64;
    let mut shared_writes = 0f64;
    let mut commits = 0f64;
    let mut mult: Vec<f64> = vec![1.0];
    for inst in program.insts() {
        let m = *mult
            .last()
            .expect("invariant violated: the loop-multiplier stack always keeps its base entry");
        match *inst {
            Inst::LoopStart { count } => {
                cycles += m;
                energy += m * InstClass::Control.energy();
                mult.push(m * count as f64);
                continue;
            }
            Inst::LoopEnd => {
                let inner = mult
                    .pop()
                    .expect("invariant violated: LoopEnd must close a matching LoopStart");
                cycles += inner;
                energy += inner * InstClass::Control.energy();
                continue;
            }
            _ => {}
        }
        let class = inst.class();
        cycles += m * class.cycles() as f64;
        energy += m * class.energy();
        match *inst {
            Inst::IntOp { dt, .. } => {
                *sites.entry((class, dt)).or_insert(0.0) += m;
            }
            Inst::FOp { prec, .. } | Inst::FFma { prec, .. } | Inst::FAtan { prec, .. } => {
                *sites.entry((class, prec.datatype())).or_insert(0.0) += m;
            }
            Inst::XOp { .. } | Inst::XAtan { .. } => {
                *sites.entry((class, DataType::F64X)).or_insert(0.0) += m;
            }
            Inst::VOp { lane, .. } => {
                *sites.entry((class, lane.datatype())).or_insert(0.0) += m * lane.lanes() as f64;
            }
            Inst::Crc32Step { .. } => {
                *sites.entry((class, DataType::Bin32)).or_insert(0.0) += m;
            }
            Inst::HashMix { .. } => {
                *sites.entry((class, DataType::Bin64)).or_insert(0.0) += m;
            }
            Inst::Store { .. }
            | Inst::Cas { .. }
            | Inst::LockAcquire { .. }
            | Inst::LockRelease { .. } => {
                shared_writes += m;
            }
            Inst::TxCommit { .. } => {
                commits += m;
            }
            _ => {}
        }
    }
    ProgramWalk {
        sites,
        cycles: cycles.max(1.0),
        energy,
        shared_writes,
        commits,
    }
}

impl StaticProfile {
    /// Profiles `tc` as instantiated on `machine_cores` cores.
    ///
    /// Walks one instance only: core 0's program, or group 0's threads
    /// for a multi-threaded testcase, keeping the busiest. Every other
    /// instance walks the same, so the result does not depend on
    /// `machine_cores` — instance `k` draws from its own fork of the
    /// testcase's stream, and the builders draw only immediates and
    /// memory contents from it, never program structure. That is why a
    /// [`SuiteProfileCache`] walks each testcase once for every core
    /// count it serves.
    ///
    /// # Panics
    ///
    /// Panics if `machine_cores` is smaller than the testcase's thread
    /// count.
    pub fn of(tc: &Testcase, machine_cores: usize) -> StaticProfile {
        let threads = tc.threads as usize;
        assert!(
            machine_cores >= threads,
            "machine has fewer cores than testcase threads"
        );
        let instance = builders::build(tc, threads, 8, 0x57a71c);
        let mut busiest: Option<ProgramWalk> = None;
        for program in instance.programs.iter().flatten() {
            let w = walk(program);
            if busiest.as_ref().is_none_or(|b| w.cycles > b.cycles) {
                busiest = Some(w);
            }
        }
        StaticProfile::from_walk(
            tc,
            busiest.expect("invariant violated: every testcase builds at least one program"),
        )
    }

    /// The profile of `tc` whose busiest program walked as `walk`.
    pub fn from_walk(tc: &Testcase, walk: ProgramWalk) -> StaticProfile {
        let ProgramWalk {
            sites,
            cycles,
            energy,
            shared_writes,
            commits,
        } = walk;
        let multithread = tc.threads > 1;
        StaticProfile {
            sites_per_cycle: sites.into_iter().map(|(k, v)| (k, v / cycles)).collect(),
            power: energy / cycles,
            // Each shared write invalidates the sharing peers' copies
            // roughly once; conflicts hit a fraction of commits.
            invalidations_per_cycle: if multithread {
                shared_writes / cycles
            } else {
                0.0
            },
            tx_conflicts_per_cycle: if multithread {
                commits * 0.2 / cycles
            } else {
                0.0
            },
            multithread,
        }
    }
}

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

/// The walks of every testcase of `suite`, sharded across `threads`
/// workers (`0` = available parallelism). Walking has no randomness and
/// no core count, so the result is identical for every thread count and
/// serves every package shape.
fn walk_suite(suite: &Suite, threads: usize) -> Arc<[StaticProfile]> {
    crate::parallel::run_indexed(suite.testcases(), threads, |_, tc| {
        StaticProfile::of(tc, tc.threads as usize)
    })
    .into()
}

impl StaticSuiteProfile {
    /// Profiles every testcase of `suite` for `machine_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `machine_cores` is smaller than a testcase's thread
    /// count.
    pub fn build(suite: &Suite, machine_cores: usize) -> StaticSuiteProfile {
        StaticSuiteProfile::on_cores(suite, walk_suite(suite, 1), machine_cores)
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
/// shape. This cache walks the suite once, and each core count adds only
/// its steady temperatures, once — same lock discipline as `toolchain`'s
/// unit-profile cache (mutex for bookkeeping only, the builds run
/// outside the lock in `OnceLock`s). Entries are keyed by core count
/// alone, so one cache serves one suite.
#[derive(Default)]
pub struct SuiteProfileCache {
    hits: AtomicU64,
    misses: AtomicU64,
    walks: OnceLock<Arc<[StaticProfile]>>,
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

    /// The suite profile for `machine_cores`, built on first use. The
    /// first build walks the suite with `build_threads` workers; later
    /// core counts reuse that walk. Concurrent callers asking for the
    /// same core count build once; the rest block on the entry.
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
            let walks = self.walks.get_or_init(|| walk_suite(suite, build_threads));
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
                for core in 0..processor.physical_cores {
                    let rate = defect.rate(core, temp);
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
    fn walk_counts_loop_multiplied_sites() {
        use softcore::{IntOpKind, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        b.loop_start(10);
        b.int_op(IntOpKind::Add, DataType::I32, 1, 0, 0);
        b.loop_end();
        let ProgramWalk {
            sites,
            cycles,
            energy,
            ..
        } = walk(&b.build());
        assert_eq!(sites[&(InstClass::IntArith, DataType::I32)], 10.0);
        assert!(cycles >= 10.0);
        assert!(energy > 0.0);
    }

    #[test]
    fn profiles_distinguish_features() {
        let suite = Suite::standard();
        let atan_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("fpu/atan/f64/"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(atan_id), 4);
        assert!(p
            .sites_per_cycle
            .contains_key(&(InstClass::FloatAtan, DataType::F64)));
        assert!(!p
            .sites_per_cycle
            .contains_key(&(InstClass::VecFma, DataType::F32)));
        assert!(!p.multithread);
    }

    #[test]
    fn multithread_profiles_estimate_events() {
        let suite = Suite::standard();
        let lock_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("cache/lock"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(lock_id), 4);
        assert!(p.multithread);
        assert!(p.invalidations_per_cycle > 0.0);
        let tx_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("trx/"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(tx_id), 4);
        assert!(p.tx_conflicts_per_cycle > 0.0);
    }

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
