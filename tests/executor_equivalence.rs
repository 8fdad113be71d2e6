//! Differential oracle for the executor fast path: `Executor::try_run`
//! (event-skipping, steady-state memoized) must be bitwise identical to
//! `Executor::try_run_reference` (the seed chunk loop, kept verbatim) in
//! everything observable — the `TestcaseRun` (records, counts, stats),
//! the caller's RNG stream position, the persisted thermal state, and
//! the virtual clock — across seeds, core selections, zero-rate and
//! nonzero-rate defect mixes, and configs.

use rand::RngCore as _;
use sdc_model::{ArchId, CpuId, DataType, DetRng, Duration};
use silicon::{catalog, BitPattern, Defect, DefectKind, DefectScope, Processor, Trigger};
use softcore::InstClass;
use toolchain::{ExecConfig, Executor, ProfileCache, Suite, TestcaseRun};

/// Testcases some defect of `p` applies to, by name prefix.
fn applicable_tc(suite: &Suite, prefix: &str, p: &Processor) -> sdc_model::TestcaseId {
    suite
        .testcases()
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .find(|t| p.defects.iter().any(|d| d.applies_to(t.id)))
        .unwrap_or_else(|| panic!("no applicable testcase with prefix {prefix}"))
        .id
}

fn first_tc(suite: &Suite, prefix: &str) -> sdc_model::TestcaseId {
    suite
        .testcases()
        .iter()
        .find(|t| t.name.starts_with(prefix))
        .unwrap_or_else(|| panic!("no testcase with prefix {prefix}"))
        .id
}

/// Runs the same schedule of `(testcase, cores, duration)` legs through
/// a fast-path executor and a reference executor (persisting thermal and
/// clock state across legs), asserts every observable matches, and
/// returns the fast path's runs.
fn assert_equivalent(
    label: &str,
    processor: &Processor,
    suite: &Suite,
    cfg: ExecConfig,
    seed: u64,
    legs: &[(sdc_model::TestcaseId, &[u16], Duration)],
) -> Vec<TestcaseRun> {
    let cache = ProfileCache::shared();
    let mut fast = Executor::with_cache(processor, cfg, cache.clone());
    let ref_cfg = ExecConfig {
        reference_executor: true,
        ..cfg
    };
    let mut reference = Executor::with_cache(processor, ref_cfg, cache);
    let mut rng_fast = DetRng::new(seed);
    let mut rng_ref = DetRng::new(seed);
    let mut runs = Vec::new();

    for (leg, &(tc_id, cores, duration)) in legs.iter().enumerate() {
        let tc = suite.get(tc_id);
        let a = fast.try_run(tc, cores, duration, &mut rng_fast);
        let b = reference.try_run(tc, cores, duration, &mut rng_ref);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{label}: leg {leg} ({})", tc.name);
                runs.push(a);
            }
            (a, b) => panic!("{label}: leg {leg} errored: fast {a:?} vs reference {b:?}"),
        }
        // RNG stream position: the fast path must consume the caller's
        // randomness draw for draw.
        assert_eq!(
            rng_fast.next_u64(),
            rng_ref.next_u64(),
            "{label}: leg {leg}: RNG streams diverged"
        );
        // Persisted state: remaining heat and virtual time.
        for c in 0..processor.physical_cores as usize {
            assert_eq!(
                fast.thermal.temp(c).to_bits(),
                reference.thermal.temp(c).to_bits(),
                "{label}: leg {leg}: core {c} temp diverged"
            );
        }
        assert_eq!(
            fast.clock.now(),
            reference.clock.now(),
            "{label}: leg {leg}: clocks diverged"
        );
    }
    runs
}

/// A processor mixing provably-zero-rate defects (zero base rate, zero
/// core scales) with a t_min-gated defect (zero only below its floor)
/// and a plain always-active one — every pruning path in one package.
fn zero_rate_mix() -> Processor {
    let mut p = Processor::healthy(CpuId(7001), ArchId(2), 1.0);
    p.physical_cores = 8;
    let comp_kind = |mask: u128| DefectKind::Computation {
        classes: vec![InstClass::IntArith],
        datatypes: vec![DataType::I32],
        patterns: vec![BitPattern { mask, weight: 1.0 }],
        pattern_dt: DataType::I32,
        random_mask_prob: 0.1,
    };
    // Zero trigger base rate: never fires, prunable up front.
    p.defects.push(Defect::new(
        comp_kind(0b1),
        DefectScope::SingleCore(1),
        Trigger::flat(0.0),
    ));
    // All core scales zero: never fires anywhere.
    p.defects.push(Defect::new(
        comp_kind(0b10),
        DefectScope::AllCores {
            per_core_scale: vec![0.0; 8],
        },
        Trigger::flat(1e-2),
    ));
    // Gated far above any reachable temperature: rate is zero every
    // chunk, but only the per-chunk (steady) check can prove it.
    p.defects.push(Defect::new(
        comp_kind(0b100),
        DefectScope::SingleCore(2),
        Trigger {
            base_rate: 0.05,
            t_ref_c: 60.0,
            log10_slope_per_c: 0.05,
            t_min_c: 200.0,
        },
    ));
    // And one that actually fires.
    p.defects.push(Defect::new(
        comp_kind(0b1000),
        DefectScope::SingleCore(2),
        Trigger {
            base_rate: 2e-3,
            t_ref_c: 55.0,
            log10_slope_per_c: 0.04,
            t_min_c: 0.0,
        },
    ));
    p
}

#[test]
fn catalog_processors_match_reference() {
    let suite = Suite::standard();
    for (name, prefix, cores) in [
        ("FPU1", "fpu/atan/f64/", vec![3u16, 0]),
        ("MIX1", "fpu/f64/", vec![0u16, 1, 2, 3]),
        ("CNST1", "cache/", vec![0u16, 1, 2, 3]),
    ] {
        let p = catalog::by_name(name).unwrap().processor;
        let tc = applicable_tc(&suite, prefix, &p);
        for seed in [1u64, 42] {
            assert_equivalent(
                name,
                &p,
                &suite,
                ExecConfig::default(),
                seed,
                &[
                    // Partial-chunk tail, then a longer leg on the same
                    // executor (remaining heat feeds the next start).
                    (tc, &cores, Duration::from_millis(2500)),
                    (tc, &cores, Duration::from_mins(8)),
                ],
            );
        }
    }
}

#[test]
fn zero_rate_and_gated_defects_match_reference() {
    let suite = Suite::standard();
    let p = zero_rate_mix();
    let tc = applicable_tc(&suite, "alu/i32/", &p);
    for seed in [3u64, 9, 77] {
        assert_equivalent(
            "zero-rate mix",
            &p,
            &suite,
            ExecConfig::default(),
            seed,
            &[
                (tc, &[2, 5], Duration::from_mins(6)),
                (tc, &[0], Duration::from_secs(30)),
            ],
        );
    }
}

#[test]
fn healthy_processor_matches_reference() {
    let suite = Suite::standard();
    let p = Processor::healthy(CpuId(7002), ArchId(1), 1.0);
    let tc = first_tc(&suite, "alu/i32/");
    assert_equivalent(
        "healthy",
        &p,
        &suite,
        ExecConfig::default(),
        5,
        &[(tc, &[0, 1, 2, 3], Duration::from_mins(20))],
    );
}

#[test]
fn hold_and_burn_in_configs_match_reference() {
    let suite = Suite::standard();
    let mix1 = catalog::by_name("MIX1").unwrap().processor;
    let tc = applicable_tc(&suite, "fpu/f64/", &mix1);
    let all: Vec<u16> = (0..mix1.physical_cores).collect();
    // Controlled-temperature methodology: held hot (above the tricky
    // defect's t_min floor) and held cold (below it).
    for hold in [75.0, 52.0] {
        assert_equivalent(
            "hold",
            &mix1,
            &suite,
            ExecConfig {
                hold_temp_c: Some(hold),
                ..ExecConfig::default()
            },
            11,
            &[
                (tc, &all, Duration::from_mins(30)),
                (tc, &all, Duration::from_millis(700)),
            ],
        );
    }
    // Farron's burn-in: preheat + stress on idle cores. Every leg starts
    // from the same preheated temperatures; alternating two testcases
    // alternates the power targets, so consecutive legs integrate
    // different thermal curves from one start, and one leg ends on a
    // sub-second partial chunk.
    let other = first_tc(&suite, "alu/i32/");
    let runs = assert_equivalent(
        "burn-in",
        &mix1,
        &suite,
        ExecConfig {
            preheat_c: Some(58.0),
            stress_idle_cores: true,
            max_records: 64,
            ..ExecConfig::default()
        },
        13,
        &[
            (tc, &all, Duration::from_mins(10)),
            (tc, &all, Duration::from_mins(10)),
            (other, &all, Duration::from_mins(10)),
            (tc, &all, Duration::from_mins(10)),
            (other, &all, Duration::from_millis(90_400)),
            (tc, &all, Duration::from_mins(10)),
        ],
    );
    assert_ne!(
        runs[1].max_temp_c.to_bits(),
        runs[2].max_temp_c.to_bits(),
        "the two testcases must heat the package to different temperatures"
    );
}

#[test]
fn long_converged_runs_match_reference() {
    // Long enough that the thermal trajectory reaches its bitwise fixed
    // point and the steady-state memoized path does most of the chunks.
    let suite = Suite::standard();
    let fpu1 = catalog::by_name("FPU1").unwrap().processor;
    let tc = applicable_tc(&suite, "fpu/atan/f64/", &fpu1);
    assert_equivalent(
        "converged",
        &fpu1,
        &suite,
        ExecConfig::default(),
        21,
        &[(tc, &[3], Duration::from_mins(45))],
    );
}

#[test]
fn zero_duration_run_matches_reference() {
    let suite = Suite::standard();
    let fpu1 = catalog::by_name("FPU1").unwrap().processor;
    let tc = applicable_tc(&suite, "fpu/atan/f64/", &fpu1);
    assert_equivalent(
        "zero duration",
        &fpu1,
        &suite,
        ExecConfig {
            preheat_c: Some(58.0),
            hold_temp_c: Some(80.0),
            ..ExecConfig::default()
        },
        8,
        &[
            (tc, &[3], Duration::ZERO),
            (tc, &[3], Duration::from_mins(2)),
        ],
    );
}

/// One catalog processor per package size, with a testcase its defect
/// fires on. Each has a defect on every core, so each tested core is a
/// retained pair.
const PACKAGES: [(&str, &str); 6] = [
    ("COMP12", "fpu/atan/f64/"),
    ("MIX1", "alu/ui32/"),
    ("COMP14", "alu/ui32/"),
    ("COMP16", "fpu/f64/fam0/"),
    ("COMP18", "vec/matk/"),
    ("COMP20", "alu/i32/"),
];

#[test]
fn every_package_size_and_core_selection_matches_reference() {
    let suite = Suite::standard();
    let mut sizes = Vec::new();
    for (name, prefix) in PACKAGES {
        let p = catalog::by_name(name).unwrap().processor;
        let n = p.physical_cores;
        sizes.push(n);
        let tc = applicable_tc(&suite, prefix, &p);
        let all: Vec<u16> = (0..n).collect();
        let subset: Vec<u16> = (1..n).step_by(3).collect();
        let shuffled: Vec<u16> = vec![n - 1, 2, 0, n / 2, 1];
        let repeated: Vec<u16> = vec![3, n - 2, 3, 0];
        let configs = [
            ("idle neighbours", ExecConfig::default()),
            (
                "stressed neighbours",
                ExecConfig {
                    stress_idle_cores: true,
                    ..ExecConfig::default()
                },
            ),
            (
                "held",
                ExecConfig {
                    hold_temp_c: Some(80.0),
                    ..ExecConfig::default()
                },
            ),
        ];
        let mut errors = 0;
        for (selection, cores) in [
            ("all cores", &all),
            ("subset", &subset),
            ("out of order", &shuffled),
            ("repeated core", &repeated),
        ] {
            // Every tested core draws the same power, so only remaining
            // heat from a one-core leg makes one of them the hottest:
            // first the first-listed core, later the last-listed one.
            let first = [cores[0]];
            let last = [cores[cores.len() - 1]];
            for (config, cfg) in configs {
                let runs = assert_equivalent(
                    &format!("{name} {selection} {config}"),
                    &p,
                    &suite,
                    cfg,
                    31,
                    &[
                        (tc, &first, Duration::from_secs(20)),
                        (tc, cores, Duration::from_millis(2500)),
                        (tc, &last, Duration::from_secs(20)),
                        (tc, cores, Duration::from_secs(45)),
                    ],
                );
                errors += runs.iter().map(|r| r.error_count).sum::<u64>();
            }
        }
        assert!(errors > 0, "{name}: no leg drew an event");
    }
    assert_eq!(sizes, [8, 16, 24, 32, 48, 64], "one package per core count");
}
