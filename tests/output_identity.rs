//! Output identity for Tables 1–4 and the quick conformance gate:
//! `repro`'s stdout for each run below must hash to the recorded FNV-1a
//! digest. Refactors must not move a byte; a failure names every run
//! whose output moved.
//!
//! The Tables 1–2 digests were recorded on the commit before fleet
//! screening shared one walk per suite and evaluated the trigger curve
//! once per testcase. The `conform --quick` digest was recorded once its
//! `checkpoint_transparency` line printed a fixed item count: a work item
//! that finishes after the simulated kill records nothing. The quick
//! Tables 3–4 digests were recorded on the commit before the softcore's
//! coherence moved from a snooping bus to a sharer directory; they run
//! in release builds only, which keeps the debug test run short.
//!
//! After a deliberate output change, re-record a digest by running the
//! listed command and hashing its stdout with [`fnv1a`].

use std::process::Command;

const CHAOS: &str = "offline=0.05,preempt=0.10,seed=7";

/// (arguments, FNV-1a of stdout).
type Run = (&'static [&'static str], u64);

/// Tables 1–2.
const TABLE_RUNS: [Run; 5] = [
    (
        &["table1", "table2", "--quick", "--threads", "1"],
        0xe583_5d51_59cf_c7b8,
    ),
    (
        &["table1", "table2", "--quick", "--threads", "2"],
        0xe583_5d51_59cf_c7b8,
    ),
    (
        &["table1", "table2", "--threads", "2"],
        0x695c_0c80_65aa_142c,
    ),
    (
        &["table1", "--quick", "--chaos", CHAOS, "--threads", "1"],
        0x027a_c35e_b213_3c08,
    ),
    (
        &["table1", "--quick", "--chaos", CHAOS, "--threads", "2"],
        0x027a_c35e_b213_3c08,
    ),
];

/// The quick conformance gate, which also runs the Farron eval, the
/// metamorphic invariants and the differential softcore oracle.
const CONFORM_RUNS: [Run; 2] = [
    (
        &["conform", "--quick", "--threads", "1"],
        0x6b50_e504_013a_7cde,
    ),
    (
        &["conform", "--quick", "--threads", "2"],
        0x6b50_e504_013a_7cde,
    ),
];

/// The quick deep study (Table 3) and Farron eval (Table 4), the runs
/// that profile testcases in the softcore VM.
#[cfg(not(debug_assertions))]
const STUDY_EVAL_RUNS: [Run; 4] = [
    (
        &["table3", "--quick", "--threads", "1"],
        0x5a59_1028_e733_fffc,
    ),
    (
        &["table3", "--quick", "--threads", "2"],
        0x5a59_1028_e733_fffc,
    ),
    (
        &["table4", "--quick", "--threads", "1"],
        0x5baa_c006_086e_5a33,
    ),
    (
        &["table4", "--quick", "--threads", "2"],
        0x5baa_c006_086e_5a33,
    ),
];

/// 64-bit FNV-1a, with `sdc_model::rng`'s offset basis and prime.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}

/// Runs each of `runs` and asserts none moved, naming every one that
/// did.
fn assert_recorded(runs: &[Run]) {
    let moved: Vec<String> = runs
        .iter()
        .filter_map(|&(args, want)| {
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(args)
                .output()
                .expect("repro starts");
            let cmd = format!("repro {}", args.join(" "));
            assert!(
                out.status.success(),
                "{cmd} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let got = fnv1a(&out.stdout);
            (got != want)
                .then(|| format!("{cmd}: stdout digest {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "output moved:\n{}", moved.join("\n"));
}

#[test]
fn tables_1_and_2_print_the_recorded_bytes() {
    assert_recorded(&TABLE_RUNS);
}

#[test]
fn conform_quick_prints_the_recorded_bytes() {
    assert_recorded(&CONFORM_RUNS);
}

#[cfg(not(debug_assertions))]
#[test]
fn tables_3_and_4_quick_print_the_recorded_bytes() {
    assert_recorded(&STUDY_EVAL_RUNS);
}
