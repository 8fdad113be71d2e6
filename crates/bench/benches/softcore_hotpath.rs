//! Softcore interpreter hot-path throughput: the monomorphized,
//! predecoded fast path ([`Machine::run`]) vs the seed interpreter kept
//! verbatim as [`Machine::run_reference`], for golden (NoFaults) and
//! fault-injected single-core runs, and for the contended multi-core
//! loop (filler-diluted lock counters at 16 and 64 live cores under the
//! toolchain's [`Profiler`], the shape that dominates unit profiling).
//! Every leg alternates its interpreters for a fixed time and reports
//! the fastest repetition of each, which shared-host interference can
//! only slow down.
//!
//! Two modes:
//!
//! * default — measures all paths three times, writes the median
//!   measurement of each leg to `BENCH_softcore.json` at the repo root
//!   (instructions/sec plus the fast-path speedups over the seed
//!   baseline), then runs criterion benches for tracking;
//! * `--quick` — regression gate for tier-1: re-measures the fast paths
//!   and the reference baseline, and fails (exit 1) if the golden or the
//!   contended speedup regressed more than 20% against the checked-in
//!   artifact, or if the artifact or one of those fields is missing. The
//!   gate compares speedup *ratios*, not raw instructions/sec, so it is
//!   meaningful across machines of different absolute speed.

use sdc_model::{ArchId, CpuId, DataType, DetRng};
use silicon::{BitPattern, Defect, DefectKind, DefectScope, Injector, Processor, Trigger};
use softcore::{DecodedProgram, InstClass, IntOpKind, Machine, NoFaults, Program, ProgramBuilder};
use std::time::Instant;
use toolchain::profile::Profiler;
use toolchain::{builders, BuiltTestcase, Suite};

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_softcore.json");

/// The integer hot loop every profiling run is dominated by: two ALU
/// ops per iteration, all three fusion shapes reachable.
fn hot_program(iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 3).mov_imm(1, 5).loop_start(iters);
    b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
    b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
    b.loop_end();
    b.build()
}

/// A lightly defective single-core processor: low flat rate so the
/// injected bench measures retire-path dispatch, not event handling.
fn defective_processor() -> Processor {
    let mut p = Processor::healthy(CpuId(1), ArchId(2), 1.0);
    p.physical_cores = 4;
    p.defects.push(Defect::new(
        DefectKind::Computation {
            classes: vec![InstClass::IntArith],
            datatypes: vec![DataType::I32],
            patterns: vec![BitPattern {
                mask: 0b100,
                weight: 1.0,
            }],
            pattern_dt: DataType::I32,
            random_mask_prob: 0.0,
        },
        DefectScope::SingleCore(0),
        Trigger::flat(1e-4),
    ));
    p
}

#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Fast path (predecode + fusion + monomorphized NoFaults).
    Golden,
    /// Seed interpreter, NoFaults through the same generic entry.
    Reference,
    /// Fast path with a sparse-indexed injector attached.
    Injected,
}

/// One repetition of a single-core path: [`SINGLE_RUNS`] runs of the hot
/// program on one reused machine. Returns the steps executed.
fn single_rep(path: Path, machine: &mut Machine, proc_: &Processor) -> u64 {
    let mut steps = 0;
    for _ in 0..SINGLE_RUNS {
        machine.restart();
        let mut rng = DetRng::new(1);
        let out = match path {
            Path::Golden => machine.run(&mut NoFaults, &mut rng, u64::MAX),
            Path::Reference => machine.run_reference(&mut NoFaults, &mut rng, u64::MAX),
            Path::Injected => {
                let mut injector = Injector::new(proc_, vec![0], 45.0, DetRng::new(0x1f));
                injector.set_temps(&[62.0]);
                machine.run(&mut injector, &mut rng, u64::MAX)
            }
        };
        assert!(out.completed);
        steps += out.steps;
    }
    steps
}

/// Runs of the hot program per single-core repetition (about 0.3M
/// steps, a few milliseconds on the fast path).
const SINGLE_RUNS: usize = 10;

/// Seconds the single-core and the contended leg alternate their paths,
/// the same in both modes: the fastest of more repetitions reads higher,
/// so the gate must draw as many as the recorded value did. A contended
/// reference repetition takes most of a second, so that leg runs longer
/// to draw about five of them.
const SINGLE_BUDGET_SECS: f64 = 1.0;
const CONTENDED_BUDGET_SECS: f64 = 4.0;

/// Instructions/sec of `legs` interpreter paths, where `rep(i)` runs one
/// repetition of path `i` and returns its steps: one untimed warm-up
/// each, then the paths take turns until `budget_secs` elapses (at least
/// three rounds), and each reports its fastest repetition.
fn fastest_ips(budget_secs: f64, legs: usize, mut rep: impl FnMut(usize) -> u64) -> Vec<f64> {
    (0..legs).for_each(|i| {
        rep(i);
    });
    let mut best = vec![0.0f64; legs];
    let mut rounds = 0u32;
    let t = Instant::now();
    while rounds < 3 || t.elapsed().as_secs_f64() < budget_secs {
        for (i, best) in best.iter_mut().enumerate() {
            let start = Instant::now();
            let steps = rep(i);
            *best = best.max(steps as f64 / start.elapsed().as_secs_f64());
        }
        rounds += 1;
    }
    best
}

/// Instructions/sec of the golden, reference and injected single-core
/// paths, alternating.
fn measure_single_ips() -> (f64, f64, f64) {
    const PATHS: [Path; 3] = [Path::Golden, Path::Reference, Path::Injected];
    let proc_ = defective_processor();
    let mut machine = Machine::new(1, 4096);
    machine.load(0, hot_program(10_000));
    let ips = fastest_ips(SINGLE_BUDGET_SECS, PATHS.len(), |i| {
        single_rep(PATHS[i], &mut machine, &proc_)
    });
    (ips[0], ips[1], ips[2])
}

/// The contended leg: suite testcases (their first variants) and the
/// live-core counts each runs at. `cache/lock/t2/r4/d4` is a two-thread
/// lock counter diluted with 4×64 iterations of `Pause` filler per
/// round, one group per core pair; `cache/lock/t4/r8/d64` at 64 cores,
/// with 64×64-iteration fillers, is the study's heaviest unit profile
/// and the shape the banked filler's closed form runs.
const CONTENDED: [(&str, usize); 3] = [
    ("cache/lock/t2/r4/d4", 16),
    ("cache/lock/t2/r4/d4", 64),
    ("cache/lock/t4/r8/d64", 64),
];

/// `testcase` built for `cores` cores, with the profiler's default unit
/// iterations.
fn contended_build(testcase: &str, cores: usize) -> BuiltTestcase {
    let suite = Suite::standard();
    let tc = suite
        .testcases()
        .iter()
        .find(|t| t.name.split('#').next() == Some(testcase))
        .expect("contended testcase is in the standard suite");
    builders::build(tc, cores, 4, 0xc0de)
}

/// Instructions/sec of the fast and of the reference interpreter on the
/// contended leg. A repetition runs every [`CONTENDED`] entry under a
/// fresh [`Profiler`].
fn measure_contended_ips() -> (f64, f64) {
    let mut machines: Vec<(Machine, BuiltTestcase)> = CONTENDED
        .iter()
        .map(|&(testcase, cores)| {
            let built = contended_build(testcase, cores);
            let mut machine = Machine::new(cores, built.mem_bytes);
            for (c, p) in built.programs.iter().enumerate() {
                if let Some(p) = p {
                    machine.load(c, p.clone());
                }
            }
            (machine, built)
        })
        .collect();
    let ips = fastest_ips(CONTENDED_BUDGET_SECS, 2, |i| {
        let reference = i == 1;
        let mut steps = 0;
        for (machine, built) in &mut machines {
            machine.restart();
            for &(addr, val) in &built.mem_init {
                machine.mem.raw_write_u64(addr, val);
            }
            let mut profiler = Profiler::new(DetRng::new(0x9821));
            let mut rng = DetRng::new(0x77aa);
            let out = if reference {
                machine.run_reference(&mut profiler, &mut rng, u64::MAX)
            } else {
                machine.run(&mut profiler, &mut rng, u64::MAX)
            };
            assert!(out.completed);
            steps += out.steps;
        }
        steps
    });
    (ips[0], ips[1])
}

/// Reads a numeric field out of the checked-in artifact (the harness
/// has no JSON parser; the artifact is flat and written by this bench).
fn artifact_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Of [`ARTIFACT_MEASUREMENTS`] measurements, the one whose speedup
/// `speedup` is the median, so that neither a lucky nor an unlucky
/// measurement sets the gate's floor.
fn median_measurement<T>(measure: impl Fn() -> T, speedup: impl Fn(&T) -> f64) -> T {
    let mut runs: Vec<T> = (0..ARTIFACT_MEASUREMENTS).map(|_| measure()).collect();
    runs.sort_by(|a, b| speedup(a).total_cmp(&speedup(b)));
    runs.swap_remove(ARTIFACT_MEASUREMENTS / 2)
}

/// Measurements per leg behind each recorded value.
const ARTIFACT_MEASUREMENTS: usize = 3;

fn artifact() {
    let (golden, reference, injected) = median_measurement(measure_single_ips, |m| m.0 / m.1);
    let (contended, contended_reference) = median_measurement(measure_contended_ips, |m| m.0 / m.1);
    let fused = DecodedProgram::decode(&hot_program(10_000)).fused_pairs();
    let speedup_golden = golden / reference;
    let speedup_injected = injected / reference;
    let speedup_contended = contended / contended_reference;
    eprintln!(
        "[softcore_hotpath] golden {golden:.0} inst/s, reference {reference:.0} inst/s \
         ({speedup_golden:.2}x), injected {injected:.0} inst/s ({speedup_injected:.2}x), \
         {fused} fused pair sites; contended {contended:.0} inst/s, reference \
         {contended_reference:.0} inst/s ({speedup_contended:.2}x)"
    );
    let json = format!(
        "{{\n  \"golden_ips\": {golden:.0},\n  \"reference_ips\": {reference:.0},\n  \
         \"injected_ips\": {injected:.0},\n  \"speedup_golden\": {speedup_golden:.4},\n  \
         \"speedup_injected\": {speedup_injected:.4},\n  \"fused_pair_sites\": {fused},\n  \
         \"contended_ips\": {contended:.0},\n  \
         \"contended_reference_ips\": {contended_reference:.0},\n  \
         \"speedup_contended\": {speedup_contended:.4}\n}}\n"
    );
    std::fs::write(ARTIFACT, json).expect("write BENCH_softcore.json");
    eprintln!("[softcore_hotpath] wrote {ARTIFACT}");
}

/// Exits 1 with a diagnostic: a gate whose baseline is missing fails.
fn fail(msg: &str) -> ! {
    eprintln!("[softcore_hotpath] FAIL: {msg}");
    std::process::exit(1);
}

/// Tier-1 regression gate (`--quick`): exits 1 if the golden or the
/// contended fast path's speedup over the seed interpreter fell more than
/// 20% below the checked-in artifact, or if the artifact or a recorded
/// speedup is missing.
fn quick_gate() {
    let json = std::fs::read_to_string(ARTIFACT).unwrap_or_else(|e| {
        fail(&format!(
            "cannot read {ARTIFACT} ({e}); run without --quick to create it"
        ))
    });
    let recorded = |field: &str| {
        artifact_field(&json, field)
            .unwrap_or_else(|| fail(&format!("{ARTIFACT} has no {field} field")))
    };
    let recorded_golden = recorded("speedup_golden");
    let recorded_contended = recorded("speedup_contended");
    let (golden, reference, _) = measure_single_ips();
    let golden = golden / reference;
    let (contended, contended_reference) = measure_contended_ips();
    let contended = contended / contended_reference;
    let mut failed = false;
    for (name, current, recorded) in [
        ("golden", golden, recorded_golden),
        ("contended", contended, recorded_contended),
    ] {
        eprintln!(
            "[softcore_hotpath] quick gate: {name} speedup {current:.2}x \
             (recorded {recorded:.2}x, floor {:.2}x)",
            recorded * 0.8
        );
        if current < recorded * 0.8 {
            eprintln!("[softcore_hotpath] {name}-run throughput regressed >20%");
            failed = true;
        }
    }
    if failed {
        fail("fast-path speedup below its floor");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_gate();
        return;
    }
    artifact();
    let mut c = criterion::Criterion::default().sample_size(20);
    let mut group = c.benchmark_group("softcore_hotpath");
    let program = hot_program(10_000);
    let steps = program.estimated_steps();
    group.throughput(criterion::Throughput::Elements(steps));
    for (name, path) in [
        ("golden_fast", Path::Golden),
        ("reference", Path::Reference),
        ("injected", Path::Injected),
    ] {
        let proc_ = defective_processor();
        let mut machine = Machine::new(1, 4096);
        machine.load(0, program.clone());
        group.bench_function(name, |b| {
            b.iter(|| {
                machine.restart();
                let mut rng = DetRng::new(1);
                match path {
                    Path::Golden => machine.run(&mut NoFaults, &mut rng, u64::MAX),
                    Path::Reference => machine.run_reference(&mut NoFaults, &mut rng, u64::MAX),
                    Path::Injected => {
                        let mut injector = Injector::new(&proc_, vec![0], 45.0, DetRng::new(0x1f));
                        injector.set_temps(&[62.0]);
                        machine.run(&mut injector, &mut rng, u64::MAX)
                    }
                }
            })
        });
    }
    group.finish();
}
