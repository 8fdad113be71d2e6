//! Fast-path equivalence: the optimized interpreter — predecoded
//! programs, fused instruction pairs, the single-live-core loop, the
//! contended loop's one-at-a-time scheduling picks charged to per-slot
//! countdowns of banked core-local steps, the closed-form filler loops,
//! and monomorphized fault hooks — must emit bits identical to the
//! seed-faithful reference interpreter ([`Machine::run_reference`])
//! under every hook, across seeds, core counts and step budgets, on
//! synthetic workloads and on a sample of the standard suite's real unit
//! profiling runs. A `dyn`-dispatched hook must also match its
//! monomorphized form exactly.

use conformance::metamorphic::assert_transparent;
use conformance::metrics::study_config;
use sdc_model::{ArchId, CpuId, DataType, DetRng};
use silicon::{BitPattern, Defect, DefectKind, DefectScope, Injector, Processor, Trigger};
use softcore::mem::MemStats;
use softcore::regs::{NUM_FLOAT_REGS, NUM_INT_REGS, NUM_VEC_REGS, NUM_X87_REGS};
use softcore::{
    FaultHook, InstClass, IntOpKind, LaneType, Machine, NoFaults, Precision, Program,
    ProgramBuilder, VOpKind,
};
use toolchain::profile::Profiler;
use toolchain::{unit_run, ProfileKey, Suite, UnitRun};

/// Everything observable about a finished run, in comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    completed: bool,
    steps: u64,
    out_cycles: u64,
    events: Vec<(usize, InstClass, DataType, u128, u128)>,
    /// Per core, the count of every class in [`InstClass::ALL`] order.
    usage: Vec<Vec<u64>>,
    cycles: Vec<u64>,
    energy_bits: Vec<u64>,
    tx: Vec<(u64, u64)>,
    mem_words: Vec<u64>,
    mem_stats: MemStats,
    regs: Vec<u64>,
}

/// Every architectural register of every core, as bits.
fn register_bits(m: &Machine) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in 0..m.num_cores() {
        let r = &m.core(c).regs;
        bits.extend((0..NUM_INT_REGS as u8).map(|i| r.int(i)));
        bits.extend((0..NUM_FLOAT_REGS as u8).map(|i| r.float(i).to_bits()));
        for i in 0..NUM_X87_REGS as u8 {
            let x = r.x87(i).encode();
            bits.extend([x as u64, (x >> 64) as u64]);
        }
        for i in 0..NUM_VEC_REGS as u8 {
            bits.extend(r.vec(i));
        }
    }
    bits
}

fn fingerprint(m: &Machine, out: softcore::RunOutcome) -> Fingerprint {
    Fingerprint {
        completed: out.completed,
        steps: out.steps,
        out_cycles: out.cycles,
        events: m
            .events
            .iter()
            .map(|e| (e.core, e.class, e.dt, e.expected, e.actual))
            .collect(),
        usage: (0..m.num_cores())
            .map(|c| {
                InstClass::ALL
                    .iter()
                    .map(|&k| m.usage.count(c, k))
                    .collect()
            })
            .collect(),
        cycles: m.cycles.clone(),
        energy_bits: m.energy.iter().map(|e| e.to_bits()).collect(),
        tx: (0..m.num_cores()).map(|c| m.core(c).tx_stats()).collect(),
        mem_words: (0..m.mem.size_bytes() / 8)
            .map(|i| m.mem.raw_read_u64(i * 8))
            .collect(),
        mem_stats: m.mem.stats,
        regs: register_bits(m),
    }
}

/// A mixed per-core program exercising fusable pairs (`MovImm`+`IntOp`,
/// `IntOp`+`IntOp`, `IntOp`+`LoopEnd`), floats, vectors, CRC, memory
/// traffic, locks, and transactions.
fn mixed_program(core: usize, iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 3 + core as u64).mov_imm(1, 5);
    b.mov_imm(4, 64); // shared counter address
    b.mov_imm(5, 1);
    b.fmov_imm(0, 1.01).fmov_imm(1, 0.93);
    b.loop_start(iters);
    // MovImm+IntOp fusion candidate.
    b.mov_imm(2, 7);
    b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 2);
    // IntOp+IntOp fusion candidate.
    b.int_op(IntOpKind::Xor, DataType::U32, 0, 0, 2);
    b.int_op(IntOpKind::Mul, DataType::I16, 3, 2, 1);
    b.ffma(Precision::F64, 2, 0, 1, 0);
    b.vop(VOpKind::Fma, LaneType::F32x8, 1, 0, 1, 2);
    b.crc32_step(6, 6, 2);
    b.lock_acquire(4);
    b.load(7, 4, 0);
    b.int_op(IntOpKind::Add, DataType::Bin64, 7, 7, 5);
    b.store(7, 4, 0);
    b.lock_release(4);
    b.tx_begin();
    b.store(3, 4, 128 + 8 * core as u64);
    b.tx_commit(8);
    // IntOp+LoopEnd fusion candidate (macro-fused compare+branch).
    b.int_op(IntOpKind::Sub, DataType::I32, 3, 3, 5);
    b.loop_end();
    b.store(0, 4, 256 + 8 * core as u64);
    b.build()
}

/// An integer-only hot loop: the best case for fusion and the
/// single-core fast path.
fn int_loop(iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 3).mov_imm(1, 5).loop_start(iters);
    b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
    b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
    b.loop_end();
    b.mov_imm(3, 512);
    b.store(0, 3, 0);
    b.build()
}

fn defective_processor() -> Processor {
    let mut p = Processor::healthy(CpuId(7), ArchId(2), 1.5);
    p.physical_cores = 8;
    p.defects.push(Defect::new(
        DefectKind::Computation {
            classes: vec![InstClass::IntArith, InstClass::VecFma],
            datatypes: vec![DataType::I32, DataType::F32],
            patterns: vec![BitPattern {
                mask: 0b100,
                weight: 1.0,
            }],
            pattern_dt: DataType::I32,
            random_mask_prob: 0.1,
        },
        DefectScope::SingleCore(0),
        Trigger::flat(0.02),
    ));
    p.defects.push(Defect::new(
        DefectKind::CoherenceDrop,
        DefectScope::SingleCore(1),
        Trigger::flat(0.05),
    ));
    p
}

/// Builds a machine, runs it under the named interpreter variant with
/// the given hook for at most `budget` steps, and fingerprints the
/// result. Fresh identically-seeded RNGs per variant: the interleave
/// stream position after a run is not part of the machine contract.
fn run_variant<H: FaultHook>(
    variant: &str,
    cores: usize,
    seed: u64,
    programs: &[Program],
    hook: &mut H,
    budget: u64,
) -> Fingerprint {
    let mut m = loaded_machine(cores, programs);
    let mut interleave = DetRng::new(seed);
    let out = match variant {
        "fast" => m.run(hook, &mut interleave, budget),
        "dyn" => {
            let dyn_hook: &mut dyn FaultHook = hook;
            m.run(dyn_hook, &mut interleave, budget)
        }
        "reference" => m.run_reference(hook, &mut interleave, budget),
        other => panic!("unknown variant {other}"),
    };
    fingerprint(&m, out)
}

fn loaded_machine(cores: usize, programs: &[Program]) -> Machine {
    let mut m = Machine::new(cores, 1 << 14);
    for (c, p) in programs.iter().enumerate() {
        m.load(c, p.clone());
    }
    m
}

const VARIANTS: [&str; 3] = ["fast", "dyn", "reference"];

/// Everything a [`Profiler`] collected: per-site counts and the bit
/// samples of every site kind.
type ProfilerProducts = (Vec<((usize, InstClass, DataType), u64)>, Vec<Vec<u128>>);

fn profiler_products(profiler: &Profiler) -> ProfilerProducts {
    let counts = profiler.counts().collect();
    let samples = profiler
        .site_kinds()
        .into_iter()
        .map(|(class, dt)| profiler.samples(class, dt).to_vec())
        .collect();
    (counts, samples)
}

#[test]
fn golden_runs_identical_across_interpreters() {
    for cores in [1usize, 2, 4] {
        for seed in [1u64, 7, 42] {
            let programs: Vec<Program> = (0..cores).map(|c| mixed_program(c, 300)).collect();
            assert_transparent(&format!("golden c{cores} s{seed}"), &VARIANTS, |variant| {
                run_variant(variant, cores, seed, &programs, &mut NoFaults, u64::MAX)
            });
        }
    }
}

#[test]
fn injected_runs_identical_across_interpreters() {
    let proc_ = defective_processor();
    for cores in [1usize, 2, 4] {
        for seed in [3u64, 11] {
            let programs: Vec<Program> = (0..cores).map(|c| mixed_program(c, 300)).collect();
            let core_map: Vec<u16> = (0..cores as u16).collect();
            assert_transparent(
                &format!("injected c{cores} s{seed}"),
                &VARIANTS,
                |variant| {
                    // A fresh, identically-seeded injector per variant.
                    let mut injector =
                        Injector::new(&proc_, core_map.clone(), 45.0, DetRng::new(seed ^ 0x1f));
                    injector.set_temps(&vec![62.0; cores]);
                    run_variant(variant, cores, seed, &programs, &mut injector, u64::MAX)
                },
            );
        }
    }
}

#[test]
fn profiled_runs_identical_across_interpreters() {
    for cores in [1usize, 2] {
        let programs: Vec<Program> = (0..cores).map(|c| mixed_program(c, 300)).collect();
        assert_transparent(&format!("profiled c{cores}"), &VARIANTS, |variant| {
            let mut profiler = Profiler::new(DetRng::new(0x9821));
            let fp = run_variant(variant, cores, 5, &programs, &mut profiler, u64::MAX);
            (fp, profiler_products(&profiler))
        });
    }
}

#[test]
fn single_core_hot_loop_identical_and_fused() {
    let program = int_loop(10_000);
    let decoded = softcore::DecodedProgram::decode(&program);
    assert!(
        decoded.fused_pairs() > 0,
        "the integer hot loop must contain fused pairs"
    );
    for seed in [1u64, 9, 1234] {
        assert_transparent(&format!("hot loop s{seed}"), &VARIANTS, |variant| {
            run_variant(
                variant,
                1,
                seed,
                std::slice::from_ref(&program),
                &mut NoFaults,
                u64::MAX,
            )
        });
    }
}

/// The surrounding-code filler the toolchain injects at the top of a
/// workload's outermost loop: a counted `Pause` loop, all core-local.
fn filler(b: &mut ProgramBuilder, iters: u32) {
    b.loop_start(iters);
    b.pause();
    b.loop_end();
}

/// A filler-diluted lock counter (the shape of the toolchain's diluted
/// `LockCounter` testcases): long core-local runs between short critical
/// sections on a lock at `base` and a counter one cache line above it.
fn diluted_lock_counter(base: u64, rounds: u32, dilution: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, base).mov_imm(1, base + 64).mov_imm(2, 1);
    b.loop_start(rounds);
    filler(&mut b, dilution);
    b.lock_acquire(0);
    b.load(3, 1, 0);
    b.int_op(IntOpKind::Add, DataType::Bin64, 3, 3, 2);
    b.store(3, 1, 0);
    b.lock_release(0);
    b.loop_end();
    b.build()
}

/// A filler-diluted transactional counter with a per-core success tally.
fn diluted_tx_counter(core: usize, rounds: u32, dilution: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 128).mov_imm(1, 1).mov_imm(4, 0);
    b.mov_imm(5, 1024 + 8 * core as u64);
    b.loop_start(rounds);
    filler(&mut b, dilution);
    b.tx_begin();
    b.load(2, 0, 0);
    b.int_op(IntOpKind::Add, DataType::Bin64, 2, 2, 1);
    b.store(2, 0, 0);
    b.tx_commit(3);
    b.int_op(IntOpKind::Add, DataType::Bin64, 4, 4, 3);
    b.loop_end();
    b.store(4, 5, 0);
    b.build()
}

/// Every core-local op: register moves, an immediate add, a compare and
/// a float move, a zero-count loop, a flat core-local inner loop, and a
/// core-local tail that runs across the enclosing loop's `LoopEnd` (back
/// to its top, and out of it after the last round).
fn local_mix(core: usize, rounds: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(1, 2048 + 8 * core as u64).mov_imm(2, 3);
    b.loop_start(rounds);
    b.loop_start(0);
    b.store(2, 1, 0); // skipped
    b.loop_end();
    b.mov_imm(4, core as u64).mov(5, 4).add_imm(5, 5, 3);
    b.fmov_imm(2, 1.5 + core as f64).cmp_ne(6, 5, 4);
    b.loop_start(3 + core as u32 % 4);
    b.add_imm(7, 7, 1);
    b.pause();
    b.loop_end();
    b.int_op(IntOpKind::Add, DataType::I32, 9, 9, 7);
    b.store(9, 1, 0);
    b.add_imm(8, 8, 1).mov(10, 8).cmp_ne(11, 10, 5);
    b.loop_end();
    b.add_imm(12, 8, 5).mov(13, 12).fmov_imm(3, 2.5);
    b.build()
}

/// The per-core programs of the banked-step workloads at `cores` cores:
/// lock and transaction groups diluted like the toolchain's consistency
/// testcases, and the core-local mix, interleaved across cores.
fn banked_workload(cores: usize) -> Vec<Program> {
    (0..cores)
        .map(|c| match c % 3 {
            0 => diluted_lock_counter(0, 4, 8 + c as u32),
            1 => diluted_tx_counter(c, 3, 16),
            _ => local_mix(c, 5),
        })
        .collect()
}

/// Smallest step budget after which `reached` holds for the machine the
/// reference interpreter leaves (bisection: `reached` must be monotone
/// in the budget, as it is for anything that only grows over a run,
/// since a shorter run is a prefix of a longer one).
fn first_budget<H: FaultHook>(
    cores: usize,
    seed: u64,
    programs: &[Program],
    make_hook: &impl Fn() -> H,
    reached: impl Fn(&Machine) -> bool,
) -> u64 {
    let run = |budget: u64| {
        let mut m = loaded_machine(cores, programs);
        let out = m.run_reference(&mut make_hook(), &mut DetRng::new(seed), budget);
        (reached(&m), out.steps)
    };
    let (done, total) = run(u64::MAX);
    assert!(done);
    let (mut lo, mut hi) = (0u64, total);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run(mid).0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Smallest step budget after which some core has halted under the
/// reference interpreter.
fn first_halt<H: FaultHook>(
    cores: usize,
    seed: u64,
    programs: &[Program],
    make_hook: &impl Fn() -> H,
) -> u64 {
    first_budget(cores, seed, programs, make_hook, |m| {
        (0..m.num_cores()).any(|c| m.core(c).halted())
    })
}

/// Step budgets that cut the contended phase everywhere the banked path
/// has a seam: early while most cores sit in a filler run (37, 256, 257,
/// 300), on the step that halts the first core and just after it (the
/// live count shrinks there), 256 steps past that halt, and unbounded.
fn budgets(halt: u64) -> Vec<u64> {
    vec![37, 256, 257, 300, halt, halt + 1, halt + 256, u64::MAX]
}

/// Asserts all three variants agree at every budget, for a hook built by
/// `make_hook` and summarized by `observe`.
fn assert_banked_transparent<H, T>(
    label: &str,
    seed: u64,
    make_hook: impl Fn() -> H,
    observe: impl Fn(&H) -> T,
) where
    H: FaultHook,
    T: PartialEq + std::fmt::Debug,
{
    for cores in [2usize, 8, 64] {
        let programs = banked_workload(cores);
        let halt = first_halt(cores, seed, &programs, &make_hook);
        for budget in budgets(halt) {
            assert_transparent(
                &format!("{label} c{cores} budget {budget}"),
                &VARIANTS,
                |variant| {
                    let mut hook = make_hook();
                    let fp = run_variant(variant, cores, seed, &programs, &mut hook, budget);
                    (fp, observe(&hook))
                },
            );
        }
    }
}

#[test]
fn banked_golden_runs_identical_across_interpreters() {
    for seed in [2u64, 19] {
        assert_banked_transparent("banked golden", seed, || NoFaults, |_| ());
    }
}

#[test]
fn banked_profiled_runs_identical_across_interpreters() {
    assert_banked_transparent(
        "banked profiled",
        5,
        || Profiler::new(DetRng::new(0x9821)),
        profiler_products,
    );
}

#[test]
fn banked_injected_runs_identical_across_interpreters() {
    // The shared defective processor with a computation rate high enough
    // to fire on the few ALU retires of these filler-heavy programs.
    let mut proc_ = defective_processor();
    proc_.defects[0].trigger = Trigger::flat(0.3);
    for seed in [3u64, 11] {
        let make_injector = || {
            // Machine cores map onto the processor's 8 physical cores, so
            // the coherence-dropping core 1 recurs at every core count.
            let core_map: Vec<u16> = (0..64).map(|c| c % 8).collect();
            let mut injector = Injector::new(&proc_, core_map, 45.0, DetRng::new(seed ^ 0x1f));
            injector.set_temps(&[62.0; 64]);
            injector
        };
        let fp = run_variant(
            "reference",
            64,
            seed,
            &banked_workload(64),
            &mut make_injector(),
            u64::MAX,
        );
        assert!(
            fp.mem_stats.dropped_invalidations > 0 && !fp.events.is_empty(),
            "the injector must drop invalidations and corrupt results"
        );
        assert_banked_transparent("banked injected", seed, make_injector, |_| ());
    }
}

#[test]
fn capped_local_runs_identical_across_interpreters() {
    // Filler runs of 9001 steps, longer than one dry walk measures, so
    // the contended phase banks each run in pieces that start mid-loop.
    let programs = vec![diluted_lock_counter(0, 2, 4500); 2];
    let halt = first_halt(2, 4, &programs, &|| NoFaults);
    for budget in [5_000, 9_000, 9_001, halt, halt + 1, u64::MAX] {
        assert_transparent(
            &format!("capped runs budget {budget}"),
            &VARIANTS,
            |variant| {
                let mut profiler = Profiler::new(DetRng::new(0x9821));
                let fp = run_variant(variant, 2, 4, &programs, &mut profiler, budget);
                (fp, profiler.counts().collect::<Vec<_>>())
            },
        );
    }
}

/// Threads per lock group, rounds per thread and the filler of the
/// closed-form workload: the suite's `cache/lock/t4/r8/d64` with its
/// 4096-iteration `Pause` filler scaled down so every cut stays cheap.
const GROUP: usize = 4;
const ROUNDS: u32 = 8;
const FILLER: u32 = 24;

/// `cache/lock/t4/r8` lock groups at `cores` cores: every four cores share
/// a lock and a counter, and each round opens with a `Pause` filler loop,
/// the shape the closed form jumps.
fn lock_groups(cores: usize) -> Vec<Program> {
    (0..cores)
        .map(|c| diluted_lock_counter(256 * (c / GROUP) as u64, ROUNDS, FILLER))
        .collect()
}

/// Where a budget cut some core's filler loop (see [`filler_cuts`]).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct FillerCuts {
    /// Between a `Pause` and its `LoopEnd`, after whole iterations.
    inside_span: bool,
    /// On an iteration boundary, after at least one back-edge.
    on_boundary: bool,
    /// Inside the loop's last iteration.
    in_last: bool,
}

/// Classifies where the run left each core of a [`lock_groups`] machine,
/// from its per-core usage. In round `r` (its `Load` count) a core inside
/// the filler has retired `5 + r·(FILLER + 2)` `Control` ops before the
/// filler's `LoopEnd`s, `r·FILLER` `Pause`s before the filler's, and has
/// retired `j` `Pause`s and `i` `LoopEnd`s of the current filler.
fn filler_cuts(fp: &Fingerprint) -> FillerCuts {
    let index = |class| InstClass::ALL.iter().position(|&k| k == class).unwrap();
    let mut cuts = FillerCuts::default();
    for counts in &fp.usage {
        let f = i64::from(FILLER);
        let r = counts[index(InstClass::Load)] as i64;
        let j = counts[index(InstClass::Pause)] as i64 - r * f;
        let i = counts[index(InstClass::Control)] as i64 - 5 - r * (f + 2);
        cuts.inside_span |= i == j - 1 && (2..f).contains(&j);
        cuts.on_boundary |= i == j && (1..f - 1).contains(&j);
        cuts.in_last |= i == f - 1 && (j == f - 1 || j == f);
    }
    cuts
}

/// Budgets for the closed-form workload: every budget up to the end of
/// the run at two cores, which cuts each core's filler at every step,
/// and a stride through the run plus the first-halt seams at 16 and 64.
fn closed_form_budgets<H: FaultHook>(
    cores: usize,
    seed: u64,
    programs: &[Program],
    make_hook: &impl Fn() -> H,
) -> Vec<u64> {
    let mut m = loaded_machine(cores, programs);
    let total = m
        .run_reference(&mut make_hook(), &mut DetRng::new(seed), u64::MAX)
        .steps;
    if cores == 2 {
        return (1..=total + 1).collect();
    }
    let halt = first_halt(cores, seed, programs, make_hook);
    let mut cuts: Vec<u64> = (0..total).step_by(1_009).skip(1).collect();
    cuts.extend(budgets(halt));
    cuts
}

/// Asserts all three interpreters agree on the lock groups at 2, 16 and
/// 64 cores for every [`closed_form_budgets`] budget, and that the
/// budgets cut some filler inside a jumped span, on an iteration
/// boundary and in its last iteration.
fn assert_closed_form_transparent<H, T>(
    label: &str,
    seed: u64,
    make_hook: impl Fn() -> H,
    observe: impl Fn(&H) -> T,
) where
    H: FaultHook,
    T: PartialEq + std::fmt::Debug,
{
    for cores in [2usize, 16, 64] {
        let programs = lock_groups(cores);
        let mut seen = FillerCuts::default();
        for budget in closed_form_budgets(cores, seed, &programs, &make_hook) {
            assert_transparent(
                &format!("{label} c{cores} budget {budget}"),
                &VARIANTS,
                |variant| {
                    let mut hook = make_hook();
                    let fp = run_variant(variant, cores, seed, &programs, &mut hook, budget);
                    let cuts = filler_cuts(&fp);
                    seen.inside_span |= cuts.inside_span;
                    seen.on_boundary |= cuts.on_boundary;
                    seen.in_last |= cuts.in_last;
                    (fp, observe(&hook))
                },
            );
        }
        let all = FillerCuts {
            inside_span: true,
            on_boundary: true,
            in_last: true,
        };
        assert_eq!(seen, all, "{label} c{cores}: budgets miss a filler cut");
    }
}

#[test]
fn closed_form_golden_runs_identical_across_interpreters() {
    assert_closed_form_transparent("closed-form golden", 6, || NoFaults, |_| ());
}

#[test]
fn closed_form_profiled_runs_identical_across_interpreters() {
    assert_closed_form_transparent(
        "closed-form profiled",
        8,
        || Profiler::new(DetRng::new(0x9821)),
        profiler_products,
    );
}

#[test]
fn closed_form_injected_runs_identical_across_interpreters() {
    let proc_ = defective_processor();
    let make_injector = || {
        let core_map: Vec<u16> = (0..64).map(|c| c % 8).collect();
        let mut injector = Injector::new(&proc_, core_map, 45.0, DetRng::new(0x2e));
        injector.set_temps(&[62.0; 64]);
        injector
    };
    let fp = run_variant(
        "reference",
        64,
        9,
        &lock_groups(64),
        &mut make_injector(),
        u64::MAX,
    );
    assert!(
        fp.mem_stats.dropped_invalidations > 0,
        "the injector must drop invalidations"
    );
    assert_closed_form_transparent("closed-form injected", 9, make_injector, |_| ());
}

#[test]
fn bank_starting_at_loop_end_identical_across_interpreters() {
    // A filler of 3000 iterations at pc 0: its local run of 6001 steps is
    // longer than one dry walk measures (4096), so it is banked in two
    // pieces. The first starts at the `LoopStart` and has even length,
    // so the second starts at the `LoopEnd`.
    let mut b = ProgramBuilder::new();
    filler(&mut b, 3_000);
    b.mov_imm(1, 64).store(1, 1, 0);
    let programs = vec![b.build(); 2];
    for budget in [4_097, 6_000, 6_001, 9_000, u64::MAX] {
        assert_transparent(
            &format!("bank at LoopEnd budget {budget}"),
            &VARIANTS,
            |variant| run_variant(variant, 2, 12, &programs, &mut NoFaults, budget),
        );
    }
}

/// A short program with no local run longer than one op: it halts after
/// five steps, while the cores around it still sit in their first filler.
fn early_halter() -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 4096);
    b.store(0, 0, 0).store(0, 0, 8).store(0, 0, 16);
    b.build()
}

/// `rounds` rounds of a `dilution`-iteration filler, each closed by one
/// store: every store is the pick that ends a banked local run, and no
/// op spins, so the reference's store count marks those picks.
fn filler_then_store(core: usize, rounds: u32, dilution: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 4096 + 64 * core as u64).mov_imm(1, 1);
    b.loop_start(rounds);
    filler(&mut b, dilution);
    b.store(1, 0, 0);
    b.loop_end();
    b.build()
}

/// Core 0 is an [`early_halter`]; every other core runs
/// [`filler_then_store`] with a first local run of over 80 steps.
fn halt_amid_banks(cores: usize) -> Vec<Program> {
    (0..cores)
        .map(|c| match c {
            0 => early_halter(),
            _ => filler_then_store(c, 3, 40 + c as u32 % 7),
        })
        .collect()
}

/// Stores retired by every core together.
fn stores(m: &Machine) -> u64 {
    (0..m.num_cores())
        .map(|c| m.usage.count(c, InstClass::Store))
        .sum()
}

const HALT_AMID_BANKS_CORES: [usize; 3] = [3, 24, 64];

#[test]
fn halt_amid_open_banks_identical_across_interpreters() {
    // Core 0 halts while every other slot holds an open bank, so the
    // last slot, which `swap_remove` moves into the halted core's slot,
    // carries its bank and countdown along.
    for cores in HALT_AMID_BANKS_CORES {
        let programs = halt_amid_banks(cores);
        let seed = 31 + cores as u64;
        let halt = first_halt(cores, seed, &programs, &|| NoFaults);
        let at_halt = run_variant("reference", cores, seed, &programs, &mut NoFaults, halt);
        let store = InstClass::ALL
            .iter()
            .position(|&k| k == InstClass::Store)
            .unwrap();
        for (c, usage) in at_halt.usage.iter().enumerate().skip(1) {
            assert!(
                usage.iter().sum::<u64>() > 0 && usage[store] == 0,
                "c{cores}: core {c} holds no open bank at the halt"
            );
        }
        for budget in [halt - 1, halt, halt + 1, halt + cores as u64, u64::MAX] {
            assert_transparent(
                &format!("halt amid banks c{cores} budget {budget}"),
                &VARIANTS,
                |variant| {
                    let mut profiler = Profiler::new(DetRng::new(0x9821));
                    let fp = run_variant(variant, cores, seed, &programs, &mut profiler, budget);
                    (fp, profiler_products(&profiler))
                },
            );
        }
    }
}

#[test]
fn budget_ending_on_pick_past_a_run_identical_across_interpreters() {
    // The budget's last step is the store that ends some core's banked
    // filler run: the fast path executes that bank and then the store.
    for cores in HALT_AMID_BANKS_CORES {
        let programs = halt_amid_banks(cores);
        let seed = 47 + cores as u64;
        let total_stores = 3 + 3 * (cores as u64 - 1);
        for nth in [1, 4, cores as u64, total_stores] {
            let budget = first_budget(cores, seed, &programs, &|| NoFaults, |m| stores(m) >= nth);
            assert_transparent(
                &format!("pick past a run c{cores} store {nth} budget {budget}"),
                &VARIANTS,
                |variant| run_variant(variant, cores, seed, &programs, &mut NoFaults, budget),
            );
        }
    }
}

/// Every `REAL_STRIDE`-th testcase of the standard suite is sampled at
/// each core count, from an offset that differs per count.
const REAL_STRIDE: usize = 37;

#[test]
fn real_traffic_identical_across_interpreters() {
    // Unit profiling runs exactly as the toolchain draws them: the
    // testcase built from its profile key's stream under the quick
    // study's config, run under a profiler. Live counts fall from the
    // package core count (powers of two and not) to one as cores halt.
    let suite = Suite::standard();
    let exec = study_config(true, 1).exec;
    let counts = [8usize, 16, 24, 32, 48, 64];
    for (i, cores) in counts.into_iter().enumerate() {
        let offset = i * REAL_STRIDE / counts.len();
        for tc in suite.testcases().iter().skip(offset).step_by(REAL_STRIDE) {
            let key = ProfileKey::of(tc.id, cores, &exec);
            assert_transparent(
                &format!("{} c{cores}", tc.name),
                &["fast", "reference"],
                |variant| {
                    let UnitRun {
                        machine: mut m,
                        mut profiler,
                        mut interleave,
                        ..
                    } = unit_run(tc, key);
                    let out = match variant {
                        "fast" => m.run(&mut profiler, &mut interleave, key.max_unit_steps),
                        _ => m.run_reference(&mut profiler, &mut interleave, key.max_unit_steps),
                    };
                    assert!(out.completed, "{} c{cores}", tc.name);
                    (fingerprint(&m, out), profiler_products(&profiler))
                },
            );
        }
    }
}
