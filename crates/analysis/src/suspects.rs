//! Suspect-instruction localization (§4.1).
//!
//! "We have tried to further pinpoint which instructions are problematic…
//! we turn to a statistical approach: we instrument the toolchain to
//! catch the number of times each type of instruction is executed during
//! each testcase via Pin. This method helps us narrow down the scope of
//! suspected instructions."
//!
//! Given a case's failing and passing testcases, this module ranks
//! instruction classes by how strongly their usage separates the two
//! sets: a class heavily used by every failing testcase and lightly used
//! by passing ones is a suspect. The paper's findings reproduce here:
//! the arctangent instruction stands out for FPU1/FPU2, the vector
//! multiply-add for SIMD1 — and CNST1 resists localization, "since cache
//! coherence mechanisms are mostly hidden from a program".

use crate::study::CaseData;
use fleet::screening::StaticSuiteProfile;
use sdc_model::DataType;
use softcore::InstClass;
use std::collections::BTreeMap;
use toolchain::Suite;

/// One ranked suspect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Suspect {
    /// The suspected instruction class.
    pub class: InstClass,
    /// The datatype it operates on in the failing testcases.
    pub datatype: DataType,
    /// Mean per-cycle usage across failing testcases.
    pub usage_in_failing: f64,
    /// Mean per-cycle usage across passing (tested, non-failing)
    /// testcases.
    pub usage_in_passing: f64,
    /// Separation score: failing usage over passing usage (ε-smoothed).
    pub score: f64,
}

/// Ranks instruction classes as suspects for one case study.
///
/// Returns suspects sorted by descending score; classes never used by a
/// failing testcase are omitted. An empty result means no failing
/// testcases — nothing to localize.
pub fn rank_suspects(
    case: &CaseData,
    _suite: &Suite,
    profiles: &StaticSuiteProfile,
) -> Vec<Suspect> {
    if case.failing.is_empty() {
        return Vec::new();
    }
    let failing: std::collections::HashSet<u32> = case.failing.iter().map(|t| t.0).collect();
    // BTreeMaps keep (class, datatype) keys ordered, so equal-score
    // suspects rank deterministically (the sort below is stable).
    let mut fail_usage: BTreeMap<(InstClass, DataType), f64> = BTreeMap::new();
    let mut pass_usage: BTreeMap<(InstClass, DataType), f64> = BTreeMap::new();
    let mut n_fail = 0usize;
    let mut n_pass = 0usize;
    for &id in &case.tested {
        let profile = profiles.get(id.0 as usize);
        let bucket = if failing.contains(&id.0) {
            n_fail += 1;
            &mut fail_usage
        } else {
            n_pass += 1;
            &mut pass_usage
        };
        for (&key, &per_cycle) in &profile.sites_per_cycle {
            *bucket.entry(key).or_insert(0.0) += per_cycle;
        }
    }
    let mut suspects: Vec<Suspect> = fail_usage
        .iter()
        .map(|(&(class, datatype), &total)| {
            let usage_in_failing = total / n_fail.max(1) as f64;
            let usage_in_passing =
                pass_usage.get(&(class, datatype)).copied().unwrap_or(0.0) / n_pass.max(1) as f64;
            Suspect {
                class,
                datatype,
                usage_in_failing,
                usage_in_passing,
                score: usage_in_failing / (usage_in_passing + 1e-9),
            }
        })
        .collect();
    suspects.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    suspects
}

/// The localization bar used by `repro ext` and the tests: the top
/// class must be used 5× more per cycle in failing than in passing
/// testcases. The paper states no numeric bar for §4.1's narrowing-down;
/// 5× is this reproduction's choice, set so the atan/FMA defects clear
/// it decisively while CNST's flat instruction mix never does.
pub const LOCALIZE_MIN_SCORE: f64 = 5.0;

/// True when the ranking cleanly localizes a suspect: the top class is
/// used at least `min_score` times more per cycle in failing testcases
/// than in passing ones. Coherence defects never clear a meaningful bar —
/// failing and passing multi-threaded testcases execute the same
/// instruction mix (§4.1: "a program often does not invoke a specific
/// instruction for cache coherence").
pub fn localizes(suspects: &[Suspect], min_score: f64) -> bool {
    suspects.first().is_some_and(|s| s.score >= min_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{run_case, StudyConfig};
    use sdc_model::Duration;
    use silicon::catalog;

    fn study_case(name: &str) -> (CaseData, Suite, StaticSuiteProfile) {
        let suite = Suite::standard();
        let case = catalog::by_name(name).expect("catalog");
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let data = run_case(
            &case,
            &suite,
            &profiles,
            &StudyConfig {
                per_testcase: Duration::from_mins(2),
                seed: 11,
                max_candidates: None,
                ..StudyConfig::default()
            },
        );
        (data, suite, profiles)
    }

    #[test]
    fn fpu1_suspect_is_the_arctangent() {
        // §4.1: "we find one instruction, which uses the floating-point
        // calculation feature to calculate a complex math function
        // (arctangent), is a suspect in FPU1 and FPU2."
        let (data, suite, profiles) = study_case("FPU1");
        assert!(!data.failing.is_empty(), "FPU1 fails testcases");
        let suspects = rank_suspects(&data, &suite, &profiles);
        assert!(!suspects.is_empty());
        // The statistical method narrows to a set; the arctangent classes
        // must be at its top (alongside the x87 datapath they share).
        assert!(
            suspects
                .iter()
                .take(3)
                .any(|s| matches!(s.class, InstClass::FloatAtan | InstClass::X87Atan)),
            "top suspects {:?} should include an arctangent class",
            suspects.iter().take(3).map(|s| s.class).collect::<Vec<_>>()
        );
        assert!(
            localizes(&suspects, LOCALIZE_MIN_SCORE),
            "FPU1 localizes cleanly"
        );
    }

    #[test]
    fn simd1_suspect_is_the_vector_fma() {
        // §4.1: "in SIMD1, the toolchain reports that a vector instruction
        // that performs multiplication and addition operations
        // simultaneously gives wrong results."
        let (data, suite, profiles) = study_case("SIMD1");
        assert!(!data.failing.is_empty());
        let suspects = rank_suspects(&data, &suite, &profiles);
        let top = &suspects[0];
        assert_eq!(top.class, InstClass::VecFma, "top suspect {:?}", top.class);
        assert_eq!(top.datatype, DataType::F32);
    }

    #[test]
    fn cnst1_resists_localization() {
        // §4.1: "The SDCs in CNST1 causes cache coherence issues and we
        // fail to locate the suspected instructions … a program often does
        // not invoke a specific instruction for cache coherence."
        let (data, suite, profiles) = study_case("CNST1");
        assert!(
            !data.failing.is_empty(),
            "CNST1 fails consistency testcases"
        );
        let suspects = rank_suspects(&data, &suite, &profiles);
        // All consistency testcases share the same lock/load/store mix, so
        // no class separates failing from passing runs strongly.
        assert!(
            !localizes(&suspects, LOCALIZE_MIN_SCORE),
            "coherence defects have no suspect instruction: {:?}",
            suspects.first()
        );
    }

    #[test]
    fn empty_case_yields_no_suspects() {
        let suite = Suite::standard();
        let case = catalog::by_name("FPU1").expect("catalog");
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let empty = CaseData {
            name: "X",
            processor: case.processor.clone(),
            failing: vec![],
            tested: vec![],
            records: vec![],
            freq_per_setting: vec![],
        };
        assert!(rank_suspects(&empty, &suite, &profiles).is_empty());
    }
}
