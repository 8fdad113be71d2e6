//! The deep-study driver.
//!
//! §2.4: "we have conducted extensive experiments on 27 of them … we have
//! run tens of millions of tests and collected more than ten thousand SDC
//! records." This module drives that study against the simulated catalog:
//! for each case-study processor, candidate testcases are prefiltered with
//! the fleet's static profiles (a testcase that never retires a matching
//! instruction class cannot fail), and the accelerated executor measures
//! errors, records, and per-setting occurrence frequencies.

use fleet::screening::{StaticSuiteProfile, SuiteProfileCache};
use sdc_model::{DetRng, Duration, SdcRecord, SettingId, TestcaseId};
use silicon::catalog::{self, CaseStudy};
use silicon::defect::DefectKind;
use silicon::Processor;
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::Arc;
use toolchain::{ExecConfig, Executor, ProfileCache, Suite};

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Virtual test duration per (processor × testcase).
    pub per_testcase: Duration,
    /// Root seed.
    pub seed: u64,
    /// Optional cap on candidate testcases per processor (keeps unit
    /// tests fast; `None` studies every candidate).
    pub max_candidates: Option<usize>,
    /// Executor configuration (burn-in, temperature hold, clock).
    pub exec: ExecConfig,
    /// Worker threads (`0` = available parallelism). The study shards its
    /// unit profiling by profile key, then its cases by case (see
    /// [`run_deep_study_with`]). Each case's randomness is forked from its
    /// processor id and unit profiles are pure in their key, so results
    /// are identical for every value.
    pub threads: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            per_testcase: Duration::from_mins(2),
            seed: 27,
            max_candidates: None,
            // Cap materialized records per run so prolific settings do not
            // flood the corpus — the paper's whole deep study collected
            // "more than ten thousand SDC records" across 27 processors.
            exec: ExecConfig {
                max_records: 128,
                ..ExecConfig::default()
            },
            threads: 0,
        }
    }
}

/// Everything measured about one case-study processor.
#[derive(Debug, Clone)]
pub struct CaseData {
    /// Study name ("MIX1", …).
    pub name: &'static str,
    /// The processor.
    pub processor: Processor,
    /// Testcases that produced at least one error.
    pub failing: Vec<TestcaseId>,
    /// Candidate testcases that were executed.
    pub tested: Vec<TestcaseId>,
    /// All materialized SDC records.
    pub records: Vec<SdcRecord>,
    /// Measured occurrence frequency (errors per minute) per setting.
    pub freq_per_setting: Vec<(SettingId, f64)>,
}

impl CaseData {
    /// Records of computation SDCs only.
    pub fn computation_records(&self) -> impl Iterator<Item = &SdcRecord> {
        self.records.iter().filter(|r| r.is_computation())
    }
}

/// The full deep-study result.
#[derive(Debug, Clone)]
pub struct StudyData {
    /// One entry per studied processor.
    pub cases: Vec<CaseData>,
}

impl StudyData {
    /// All records across cases.
    pub fn all_records(&self) -> impl Iterator<Item = &SdcRecord> {
        self.cases.iter().flat_map(|c| c.records.iter())
    }

    /// Case lookup by name.
    pub fn case(&self, name: &str) -> Option<&CaseData> {
        self.cases.iter().find(|c| c.name == name)
    }
}

/// True if `tc`'s static profile retires anything a defect of
/// `processor` can act on.
fn is_candidate(
    processor: &Processor,
    profiles: &StaticSuiteProfile,
    suite: &Suite,
    id: TestcaseId,
) -> bool {
    // Note: deliberately *not* gated on `Defect::applies_to` — the real
    // toolchain cannot know which code paths reach a defect; it tests
    // every plausible candidate and discovers that only a subset fails
    // (§4.1).
    let tc = suite.get(id);
    let profile = profiles.get(id.0 as usize);
    processor.defects.iter().any(|d| match &d.kind {
        DefectKind::Computation { .. } => profile
            .sites_per_cycle
            .keys()
            .any(|&(class, dt)| d.matches(class, dt)),
        DefectKind::CoherenceDrop | DefectKind::TxIsolation => tc.threads > 1,
    })
}

/// The candidate testcases of `processor`: every testcase its static
/// profiles say a defect could act on, in suite order, capped at
/// `cfg.max_candidates`.
fn candidates(
    processor: &Processor,
    suite: &Suite,
    profiles: &StaticSuiteProfile,
    cfg: &StudyConfig,
) -> Vec<TestcaseId> {
    let mut candidates: Vec<TestcaseId> = suite
        .testcases()
        .iter()
        .map(|t| t.id)
        .filter(|&id| is_candidate(processor, profiles, suite, id))
        .collect();
    if let Some(cap) = cfg.max_candidates {
        candidates.truncate(cap);
    }
    candidates
}

/// Studies one processor.
pub fn run_case(
    case: &CaseStudy,
    suite: &Suite,
    profiles: &StaticSuiteProfile,
    cfg: &StudyConfig,
) -> CaseData {
    run_case_cached(case, suite, profiles, cfg, None)
}

/// [`run_case`] with an optional shared unit-profile cache (`None` means
/// a fresh one); the study's cases overlap heavily in (testcase × core
/// count), so sharing one cache across cases profiles each shape once.
/// Results do not depend on the cache.
pub fn run_case_cached(
    case: &CaseStudy,
    suite: &Suite,
    profiles: &StaticSuiteProfile,
    cfg: &StudyConfig,
    cache: Option<Arc<ProfileCache>>,
) -> CaseData {
    let tested = candidates(&case.processor, suite, profiles, cfg);
    run_candidates(case, suite, tested, cfg, cache.unwrap_or_default())
}

/// Runs every testcase of `candidates` on `case`'s processor, in order.
fn run_candidates(
    case: &CaseStudy,
    suite: &Suite,
    candidates: Vec<TestcaseId>,
    cfg: &StudyConfig,
    cache: Arc<ProfileCache>,
) -> CaseData {
    let processor = &case.processor;
    let cores: Vec<u16> = (0..processor.physical_cores).collect();
    let mut executor = Executor::with_cache(processor, cfg.exec, cache);
    let mut rng = DetRng::new(cfg.seed).fork(processor.id.0);

    let mut failing = Vec::new();
    let mut records = Vec::new();
    let mut freq = Vec::new();
    for &id in &candidates {
        let tc = suite.get(id);
        let run = executor.run(tc, &cores, cfg.per_testcase, &mut rng);
        if run.detected() {
            failing.push(id);
        }
        for (idx, &count) in run.errors_per_core.iter().enumerate() {
            if count > 0 {
                let setting = SettingId {
                    cpu: processor.id,
                    core: sdc_model::CoreId(cores[idx]),
                    testcase: id,
                };
                freq.push((setting, count as f64 / cfg.per_testcase.as_mins_f64()));
            }
        }
        records.extend(run.records);
    }
    CaseData {
        name: case.name,
        processor: processor.clone(),
        failing,
        tested: candidates,
        records,
        freq_per_setting: freq,
    }
}

/// Runs the whole 27-processor study.
///
/// Unit profiles are sharded across `cfg.threads` workers by profile key,
/// then cases by case (see [`run_deep_study_with`]); each case's
/// randomness is a stream forked from its processor id and the shared
/// caches are result-transparent, so the study is bitwise identical for
/// every thread count.
pub fn run_deep_study(cfg: &StudyConfig) -> StudyData {
    run_deep_study_with(cfg, &SuiteProfileCache::new(), ProfileCache::shared())
}

/// [`run_deep_study`] with caller-owned profile caches. Profiling is the
/// study's dominant fixed cost (the softcore interpreter runs every
/// testcase per package shape); callers that run several studies —
/// sweeps, eval loops, benchmarks — share one suite cache and one unit
/// cache so that cost is paid once. Both caches are result-transparent,
/// so the study is bitwise identical with or without reuse.
///
/// The study runs in two sharded stages. First it builds the static
/// suite profiles and each case's candidate list, collects the distinct
/// (core count, testcase) unit-profile keys, and profiles them on
/// `cfg.threads` workers, most cores first: the 64-core consistency
/// keys are the slowest, and starting them last would leave one worker
/// finishing them alone. Then it runs the cases, sharded by case, on the
/// warm unit cache. A unit profile is a pure function of its key, so
/// profiling ahead of the executor changes no result; on a fresh cache
/// every key misses once and every executor run hits.
pub fn run_deep_study_with(
    cfg: &StudyConfig,
    suite_cache: &SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
) -> StudyData {
    let suite = Suite::standard();
    let set = catalog::deep_study_set();
    let tested: Vec<Vec<TestcaseId>> = set
        .iter()
        .map(|case| {
            let cores = case.processor.physical_cores as usize;
            let profiles = suite_cache.get_or_build(&suite, cores, cfg.threads);
            candidates(&case.processor, &suite, &profiles, cfg)
        })
        .collect();

    let mut seen = HashSet::new();
    let mut keys: Vec<(usize, TestcaseId)> = set
        .iter()
        .zip(&tested)
        .flat_map(|(case, ids)| {
            let cores = case.processor.physical_cores as usize;
            ids.iter().map(move |&id| (cores, id))
        })
        .filter(|&key| seen.insert(key))
        .collect();
    keys.sort_by_key(|&(cores, _)| Reverse(cores));
    fleet::parallel::run_indexed(&keys, cfg.threads, |_, &(cores, id)| {
        unit_cache.profile(suite.get(id), cores);
    });

    let cases = fleet::parallel::run_indexed(&set, cfg.threads, |i, case| {
        run_candidates(
            case,
            &suite,
            tested[i].clone(),
            cfg,
            Arc::clone(&unit_cache),
        )
    });
    StudyData { cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StudyConfig {
        StudyConfig {
            per_testcase: Duration::from_secs(30),
            seed: 7,
            max_candidates: Some(12),
            ..StudyConfig::default()
        }
    }

    #[test]
    fn simd1_fails_a_strict_subset_of_candidates() {
        let suite = Suite::standard();
        let case = catalog::by_name("SIMD1").unwrap();
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let data = run_case(&case, &suite, &profiles, &StudyConfig::default());
        assert!(!data.failing.is_empty(), "SIMD1 fails something");
        assert!(
            data.failing.len() < data.tested.len(),
            "usage stress: not every matching testcase fails ({}/{})",
            data.failing.len(),
            data.tested.len()
        );
        // All failing testcases exercise the f32 vector-FMA path.
        for id in &data.failing {
            let name = &suite.get(*id).name;
            assert!(
                name.contains("matk/l0") || name.contains("axpy/l0"),
                "unexpected failing testcase {name}"
            );
        }
    }

    #[test]
    fn candidate_prefilter_excludes_unrelated_testcases() {
        let suite = Suite::standard();
        let case = catalog::by_name("FPU1").unwrap();
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let data = run_case(&case, &suite, &profiles, &quick_cfg());
        for id in &data.tested {
            let name = &suite.get(*id).name;
            assert!(
                name.contains("atan") || name.contains("x87"),
                "FPU1 candidates must involve arctangent: {name}"
            );
        }
    }

    #[test]
    fn consistency_case_candidates_are_multithreaded() {
        let suite = Suite::standard();
        let case = catalog::by_name("CNST2").unwrap();
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let data = run_case(&case, &suite, &profiles, &quick_cfg());
        for id in &data.tested {
            assert!(suite.get(*id).threads > 1);
        }
    }

    #[test]
    fn frequencies_are_per_setting_and_positive() {
        let suite = Suite::standard();
        let case = catalog::by_name("FPU1").unwrap();
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let data = run_case(&case, &suite, &profiles, &StudyConfig::default());
        assert!(!data.freq_per_setting.is_empty());
        for (setting, f) in &data.freq_per_setting {
            assert!(*f > 0.0);
            assert_eq!(setting.cpu, case.processor.id);
            // FPU1's only defective core is pcore 3.
            assert_eq!(setting.core.0, 3);
        }
    }
}
