//! Property-based tests for fleet screening and campaigns.

use fleet::screening::{stage_detection_probability, StaticProfile, StaticSuiteProfile};
use fleet::{FleetConfig, FleetPopulation, Stage, StageSpec};
use proptest::prelude::*;
use sdc_model::Duration;
use silicon::Processor;
use std::sync::OnceLock;
use toolchain::Suite;

fn suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(Suite::standard)
}

fn profiles16() -> &'static StaticSuiteProfile {
    static P: OnceLock<StaticSuiteProfile> = OnceLock::new();
    P.get_or_init(|| StaticSuiteProfile::build(suite(), 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn detection_probability_is_a_probability(seed in any::<u64>(), secs in 1u64..600) {
        let mut rng = sdc_model::DetRng::new(seed);
        let p = silicon::population::sample_faulty_processor(
            sdc_model::CpuId(1),
            sdc_model::ArchId(2),
            &mut rng,
        );
        let spec = StageSpec {
            stage: Stage::Reinstall,
            per_testcase: Duration::from_secs(secs),
            temp_offset_c: 0.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let prob = stage_detection_probability(&p, suite(), profiles16(), &spec);
        prop_assert!((0.0..=1.0).contains(&prob), "probability {prob}");
    }

    #[test]
    fn longer_stages_detect_at_least_as_much(seed in any::<u64>()) {
        let mut rng = sdc_model::DetRng::new(seed);
        let p = silicon::population::sample_faulty_processor(
            sdc_model::CpuId(2),
            sdc_model::ArchId(2),
            &mut rng,
        );
        let spec = |secs: u64| StageSpec {
            stage: Stage::Regular,
            per_testcase: Duration::from_secs(secs),
            temp_offset_c: 0.0,
            suite_stride: 1,
            age_years: 0.25,
        };
        let short = stage_detection_probability(&p, suite(), profiles16(), &spec(5));
        let long = stage_detection_probability(&p, suite(), profiles16(), &spec(120));
        prop_assert!(long >= short - 1e-12, "long {long} < short {short}");
    }

    #[test]
    fn sparse_strides_detect_no_more_than_the_full_suite(seed in any::<u64>()) {
        let mut rng = sdc_model::DetRng::new(seed);
        let p = silicon::population::sample_faulty_processor(
            sdc_model::CpuId(3),
            sdc_model::ArchId(2),
            &mut rng,
        );
        let spec = |stride: usize| StageSpec {
            stage: Stage::Datacenter,
            per_testcase: Duration::from_secs(30),
            temp_offset_c: 0.0,
            suite_stride: stride,
            age_years: 0.02,
        };
        let full = stage_detection_probability(&p, suite(), profiles16(), &spec(1));
        let sparse = stage_detection_probability(&p, suite(), profiles16(), &spec(8));
        prop_assert!(sparse <= full + 1e-12, "sparse {sparse} > full {full}");
    }

    #[test]
    fn healthy_processors_are_never_detected(secs in 1u64..3600) {
        let healthy = Processor::healthy(sdc_model::CpuId(4), sdc_model::ArchId(2), 1.0);
        let spec = StageSpec {
            stage: Stage::Factory,
            per_testcase: Duration::from_secs(secs),
            temp_offset_c: 10.0,
            suite_stride: 1,
            age_years: 0.0,
        };
        let p = stage_detection_probability(&healthy, suite(), profiles16(), &spec);
        prop_assert_eq!(p, 0.0);
    }

    #[test]
    fn population_scales_with_fleet_size(size in 20_000u64..200_000, seed in any::<u64>()) {
        let pop = FleetPopulation::sample(&FleetConfig { total_cpus: size, seed, threads: 0 });
        prop_assert!(pop.total() >= size * 9 / 10);
        // Prevalence is a few per ten thousand; allow generous slack.
        let rate = pop.defective.len() as f64 / pop.total() as f64;
        prop_assert!(rate < 30e-4, "defective rate {rate}");
    }

    /// Retry/backoff supervision is transparent: whenever a slot run
    /// under a stormy fault plan eventually succeeds, its result is
    /// identical to the same work run once with no supervision at all.
    #[test]
    fn supervision_never_changes_a_successful_slots_result(
        plan_seed in any::<u64>(),
        label in any::<u64>(),
    ) {
        use fleet::{run_slot, FaultPlan, RetryPolicy, SlotError};
        use toolchain::{ExecConfig, Executor};

        let mut prng = sdc_model::DetRng::new(label ^ 0xa5a5);
        let p = silicon::population::sample_faulty_processor(
            sdc_model::CpuId(9),
            sdc_model::ArchId(2),
            &mut prng,
        );
        let tcs = suite().testcases();
        let tc = (0..tcs.len())
            .map(|o| &tcs[(label as usize % tcs.len() + o) % tcs.len()])
            .find(|tc| (tc.threads as u16) <= p.physical_cores)
            .expect("invariant violated: every processor fits some testcase");
        let cores: Vec<u16> = (0..tc.threads.max(1) as u16).collect();
        // Fresh executor and re-forked RNG per attempt: the same recipe
        // the supervised campaign uses to keep retries transparent.
        let run_once = || {
            let mut exec = Executor::new(&p, ExecConfig::default());
            let mut rng = sdc_model::DetRng::new(777).fork(label);
            exec.try_run(tc, &cores, Duration::from_secs(5), &mut rng)
        };
        let unsupervised = run_once().expect("no faults outside the supervisor");

        let plan = FaultPlan {
            seed: plan_seed,
            offline: 0.25,
            crash: 0.15,
            preempt: 0.20,
            read_error: 0.10,
            timeout: 0.10,
        };
        let policy = RetryPolicy::default();
        let slot = run_slot(&policy, &plan, label, || run_once().map_err(SlotError::Exec));
        match slot.result {
            Some(run) => prop_assert_eq!(run, unsupervised, "supervised result drifted"),
            None => prop_assert_eq!(
                slot.report.attempts,
                policy.max_attempts,
                "slot lost before exhausting its attempt budget"
            ),
        }
    }

    #[test]
    fn static_profiles_are_finite_and_nonnegative(idx in 0usize..633) {
        let tc = &suite().testcases()[idx];
        let profile = StaticProfile::of(tc, 4);
        prop_assert!(profile.power.is_finite() && profile.power >= 0.0);
        for &rate in profile.sites_per_cycle.values() {
            prop_assert!(rate.is_finite() && rate >= 0.0);
        }
        prop_assert!(profile.invalidations_per_cycle >= 0.0);
        prop_assert!(profile.tx_conflicts_per_cycle >= 0.0);
        prop_assert_eq!(profile.multithread, tc.threads > 1);
    }
}
