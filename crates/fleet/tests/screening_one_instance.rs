//! Fleet screening walks one instance per testcase and stores steady
//! temperatures per core count; both shortcuts must reproduce the
//! all-instances walk and the per-call thermal model bit for bit.

use fleet::screening::{walk, ProgramWalk, StaticProfile, StaticSuiteProfile};
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
