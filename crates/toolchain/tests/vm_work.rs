//! Exact VM work of three unit runs: the steps, the contended loop's
//! exits and the coherence probes a profiling run takes are pinned, so a
//! change to the softcore's scheduling or coherence work fails here
//! whatever the host load. A deliberate change re-pins them with its
//! reason.
//!
//! A snooping bus probes every other L1 per coherence transaction,
//! `cores − 1` each; over these runs that is 56, 115,794 and 9,177
//! probes, against the 0, 1,650 and 500 holders the sharer directory
//! visits.

use sdc_model::TestcaseId;
use softcore::VmWork;
use toolchain::testcase::WorkloadSpec;
use toolchain::{unit_run, ExecConfig, ProfileKey, Suite, UnitRun};

/// What one unit run did.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    steps: u64,
    vm: VmWork,
    snoops: u64,
    invalidations: u64,
    misses: u64,
}

/// Runs the unit run of testcase `id` on `cores` cores.
fn unit_work(id: u32, cores: usize) -> Work {
    let suite = Suite::standard();
    let tc = suite.get(TestcaseId(id));
    let key = ProfileKey::of(tc.id, cores, &ExecConfig::default());
    let UnitRun {
        mut machine,
        mut profiler,
        mut interleave,
        ..
    } = unit_run(tc, key);
    let out = machine.run(&mut profiler, &mut interleave, key.max_unit_steps);
    assert!(out.completed);
    let vm = machine.work;
    assert_eq!(vm.exits, vm.dispatched + vm.banked_runs);
    let stats = machine.mem.stats;
    Work {
        steps: out.steps,
        vm,
        snoops: stats.snoops,
        invalidations: stats.invalidations,
        misses: stats.misses,
    }
}

#[test]
fn instruction_loop_at_8_cores() {
    let suite = Suite::standard();
    assert!(matches!(
        suite.get(TestcaseId(0)).spec,
        WorkloadSpec::IntLoop { .. }
    ));
    // Each core loops over its own buffer: 8 misses, nothing shared, so
    // no L1 holds a line another core asks for.
    let want = Work {
        steps: 320,
        vm: VmWork {
            exits: 271,
            dispatched: 231,
            banked_runs: 40,
        },
        snoops: 0,
        invalidations: 0,
        misses: 8,
    };
    assert_eq!(unit_work(0, 8), want);
}

#[test]
fn lock_counter_at_64_cores() {
    let suite = Suite::standard();
    assert!(matches!(
        suite.get(TestcaseId(463)).spec,
        WorkloadSpec::LockCounter { .. }
    ));
    let want = Work {
        steps: 69_689,
        vm: VmWork {
            exits: 3_446,
            dispatched: 2_871,
            banked_runs: 575,
        },
        snoops: 1_650,
        invalidations: 1_154,
        misses: 1_342,
    };
    assert_eq!(unit_work(463, 64), want);
}

#[test]
fn transaction_counter_at_24_cores() {
    let suite = Suite::standard();
    assert!(matches!(
        suite.get(TestcaseId(573)).spec,
        WorkloadSpec::TxCounter { .. }
    ));
    let want = Work {
        steps: 26_280,
        vm: VmWork {
            exits: 1_407,
            dispatched: 1_192,
            banked_runs: 215,
        },
        snoops: 500,
        invalidations: 229,
        misses: 242,
    };
    assert_eq!(unit_work(573, 24), want);
}
