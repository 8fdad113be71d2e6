//! The closed-form screening evaluates each defect's trigger curve once
//! per (testcase, defect) and scales it per core; it must give the bits
//! of the per-core `Defect::rate` loop it replaced, on every processor a
//! campaign screens, the catalog and triggers at the edges of the curve.

use fleet::screening::{stage_detection_probability, StaticSuiteProfile, SuiteProfileCache};
use fleet::{FleetConfig, FleetPopulation, StageSpec};
use sdc_model::{ArchId, CpuId, DataType, Duration};
use silicon::defect::{Defect, DefectKind, DefectScope, Trigger};
use silicon::{catalog, Processor};
use softcore::InstClass;
use toolchain::{Suite, CLOCK_HZ};

/// The per-core loop before the trigger curve was hoisted: `Defect::rate`
/// (one trigger evaluation) for every core of the package.
fn per_core_reference(
    processor: &Processor,
    suite: &Suite,
    profiles: &StaticSuiteProfile,
    stage: &StageSpec,
) -> f64 {
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

/// Asserts bit equality on every one of `stages` for each of the named
/// `processors`; returns how many processors were compared.
fn assert_matches_reference<'a>(
    processors: impl IntoIterator<Item = (String, &'a Processor)>,
    stages: &[StageSpec],
    suite: &Suite,
    cache: &SuiteProfileCache,
) -> usize {
    let mut compared = 0;
    for (what, processor) in processors {
        let profiles = cache.get_or_build(suite, processor.physical_cores as usize, 1);
        for stage in stages {
            let got = stage_detection_probability(processor, suite, &profiles, stage);
            let want = per_core_reference(processor, suite, &profiles, stage);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} at {:?}: hoisted {got} vs per-core {want}",
                stage.stage
            );
        }
        compared += 1;
    }
    compared
}

#[test]
fn hoisted_rate_matches_per_core_loop_on_quick_fleets() {
    let suite = Suite::standard();
    let cache = SuiteProfileCache::new();
    let stages = StageSpec::default_pipeline();
    for seed in 2021..=2030 {
        let cfg = FleetConfig {
            total_cpus: 200_000,
            seed,
            threads: 1,
        };
        let pop = FleetPopulation::sample(&cfg);
        let named = pop
            .defective
            .iter()
            .map(|p| (format!("seed {seed} cpu {}", p.id.0), p));
        assert!(assert_matches_reference(named, &stages, &suite, &cache) > 0);
    }
}

#[test]
fn hoisted_rate_matches_per_core_loop_on_catalog_cpus() {
    let suite = Suite::standard();
    let cache = SuiteProfileCache::new();
    let cases = catalog::deep_study_set();
    let named = cases
        .iter()
        .map(|case| (case.name.to_string(), &case.processor));
    let stages = StageSpec::default_pipeline();
    assert_eq!(
        assert_matches_reference(named, &stages, &suite, &cache),
        cases.len()
    );
}

/// A computation defect on every site of `class`.
fn computation_defect(class: InstClass, scope: DefectScope, trigger: Trigger) -> Defect {
    Defect::new(
        DefectKind::Computation {
            classes: vec![class],
            datatypes: vec![],
            patterns: vec![],
            pattern_dt: DataType::F64X,
            random_mask_prob: 1.0,
        },
        scope,
        trigger,
    )
}

#[test]
fn hoisted_rate_matches_per_core_loop_at_trigger_edges() {
    let suite = Suite::standard();
    let cache = SuiteProfileCache::new();
    let package = |id: u64, defects: Vec<Defect>| Processor {
        defects,
        ..Processor::healthy(CpuId(id), ArchId(2), 1.0)
    };
    let cores = package(0, vec![]).physical_cores;
    let hot = Trigger {
        base_rate: 1e-9,
        t_ref_c: 50.0,
        log10_slope_per_c: 0.08,
        t_min_c: 45.0,
    };
    // Per-core scales straddle the clamp: a saturated curve scaled above
    // one must clamp after scaling, and a scale of zero must skip the core.
    let spread = DefectScope::AllCores {
        per_core_scale: (0..cores)
            .map(|c| [0.0, 4.0, 0.5, 1.0][c as usize % 4])
            .collect(),
    };
    let edges = [
        package(
            1,
            vec![computation_defect(
                InstClass::X87Atan,
                spread.clone(),
                Trigger::flat(0.3),
            )],
        ),
        package(
            2,
            vec![computation_defect(InstClass::IntArith, spread.clone(), hot)],
        ),
        package(
            3,
            vec![computation_defect(
                InstClass::IntArith,
                DefectScope::SingleCore(3),
                hot,
            )],
        ),
        package(
            4,
            vec![Defect::new(
                DefectKind::CoherenceDrop,
                spread,
                Trigger::flat(1e-7),
            )],
        ),
        // A core outside the package scales to zero, so even a trigger
        // curve that is not a number contributes nothing.
        package(
            5,
            vec![computation_defect(
                InstClass::IntArith,
                DefectScope::SingleCore(cores),
                Trigger::flat(f64::NAN),
            )],
        ),
    ];
    // The shortest stage the clock can express keeps a saturated trigger
    // short of certain detection, so the clamp shows in the result.
    let mut stages = StageSpec::default_pipeline();
    stages.push(StageSpec {
        per_testcase: Duration::from_micros(1),
        ..stages[2]
    });
    let named = edges.iter().map(|p| (format!("edge cpu {}", p.id.0), p));
    assert_eq!(
        assert_matches_reference(named, &stages, &suite, &cache),
        edges.len()
    );
    let profiles = cache.get_or_build(&suite, cores as usize, 1);
    let probe = stages.last().expect("the probe stage");
    let saturated = stage_detection_probability(&edges[0], &suite, &profiles, probe);
    assert!(0.0 < saturated && saturated < 1.0, "{saturated}");
    for stage in &stages {
        let p = stage_detection_probability(&edges[4], &suite, &profiles, stage);
        assert_eq!(p.to_bits(), 0f64.to_bits(), "{:?}: {p}", stage.stage);
    }
}
