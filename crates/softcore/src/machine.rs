//! The multi-core machine: cores, shared memory, and a deterministic
//! random interleaver.

use crate::cpu::Core;
use crate::decode::DecodedProgram;
use crate::hooks::FaultHook;
use crate::inst::InstClass;
use crate::mem::MemSystem;
use crate::program::Program;
use crate::usage::UsageCounters;
use sdc_model::{DataType, DetRng};

/// Ground-truth log entry: the fault hook replaced a result.
///
/// This is the *injector's* view, used to validate detection machinery;
/// the toolchain detects SDCs independently, by comparing outputs against
/// a golden run (it never reads this log).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionEvent {
    /// Core that retired the corrupted instruction.
    pub core: usize,
    /// Instruction class.
    pub class: InstClass,
    /// Result datatype.
    pub dt: DataType,
    /// Correct bits.
    pub expected: u128,
    /// Corrupted bits.
    pub actual: u128,
}

/// Outcome of a machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// True if every core halted within the step budget.
    pub completed: bool,
    /// Total instructions executed across cores.
    pub steps: u64,
    /// Maximum per-core cycle count (wall-clock proxy for the run).
    pub cycles: u64,
}

/// Work of the contended phase of [`Machine::run`], counted once per
/// slow-path exit (a pick past its slot's banked run), never per draw.
/// [`Machine::run_reference`] counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmWork {
    /// Picks that left the draw loop. Each one either banked a local run
    /// or dispatched one op, so `exits == banked_runs + dispatched`.
    pub exits: u64,
    /// Exits that stepped one op through the interpreter: a memory op,
    /// a retire through the hook, or a halt.
    pub dispatched: u64,
    /// Exits that measured a core-local run by a dry walk and banked it.
    pub banked_runs: u64,
}

/// Longest local run one dry walk measures. A longer run (an unbounded
/// `Pause` loop, say) is banked in pieces, so a walk never outruns the
/// picks that consume it by much.
const MAX_LOCAL_RUN: u64 = 4096;

/// A multi-core machine executing one program per core.
#[derive(Debug)]
pub struct Machine {
    /// The shared memory system.
    pub mem: MemSystem,
    cores: Vec<Core>,
    programs: Vec<Option<Program>>,
    decoded: Vec<Option<DecodedProgram>>,
    /// Instruction-usage counters (the Pin-instrumentation equivalent).
    pub usage: UsageCounters,
    /// Ground-truth corruption log.
    pub events: Vec<CorruptionEvent>,
    /// Cycles consumed per core.
    pub cycles: Vec<u64>,
    /// Energy consumed per core (feeds the thermal model).
    pub energy: Vec<f64>,
    /// Contended-phase work since construction or the last restart.
    pub work: VmWork,
}

impl Machine {
    /// A machine with `cores` cores sharing `mem_bytes` of memory.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, mem_bytes: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        Machine {
            mem: MemSystem::new(cores, mem_bytes),
            cores: (0..cores).map(Core::new).collect(),
            programs: vec![None; cores],
            decoded: vec![None; cores],
            usage: UsageCounters::new(cores),
            events: Vec::new(),
            cycles: vec![0; cores],
            energy: vec![0.0; cores],
            work: VmWork::default(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Loads `program` onto `core` and predecodes it. Cores without a
    /// program stay halted.
    pub fn load(&mut self, core: usize, program: Program) {
        self.decoded[core] = Some(DecodedProgram::decode(&program));
        self.programs[core] = Some(program);
        self.cores[core].restart();
    }

    /// Read access to a core's registers (for result extraction in tests).
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Runs until every loaded core halts or `max_steps` instructions have
    /// executed, interleaving cores uniformly at random (deterministic
    /// under `rng`). Flushes caches on completion so raw memory reads see
    /// final state.
    ///
    /// Execution is bit-identical to [`Machine::run_reference`] in every
    /// observable product: hook call sequence, corruption events, usage
    /// counters, cycles, energy, memory, registers, transaction stats, and
    /// the returned outcome. It runs in two phases:
    ///
    /// * while more than one core is live, every step draws the same
    ///   scheduling pick the reference draws, and steps of core-local ops
    ///   (no memory, no hook, no halt) are banked per core and executed
    ///   straight-line later, which no other core and no hook can observe
    ///   (see `run_contended`);
    /// * once one core is left, the schedule is forced: no draws, and
    ///   fused pairs execute straight-line.
    ///
    /// Afterwards `rng` stands where one draw per contended step leaves
    /// it; the single-core phase draws nothing, unlike the reference. That
    /// stream position is not part of the contract (forks are
    /// seed-derived and unaffected).
    pub fn run<H: FaultHook + ?Sized>(
        &mut self,
        hook: &mut H,
        rng: &mut DetRng,
        max_steps: u64,
    ) -> RunOutcome {
        let mut live: Vec<usize> = (0..self.cores.len())
            .filter(|&i| self.programs[i].is_some())
            .collect();
        if live.is_empty() {
            return RunOutcome {
                completed: true,
                steps: 0,
                cycles: 0,
            };
        }
        live.retain(|&i| !self.cores[i].halted());
        let mut steps = self.run_contended(hook, rng, &mut live, max_steps);

        // Single-live-core phase (the whole run for single-threaded
        // workloads): the schedule is forced, so no draws, and fused
        // pairs execute straight-line when the step budget allows both
        // micro-ops. Costs accumulate per micro-op in original order —
        // f64 addition is not associative, so the energy sums must not
        // be folded.
        if let [core_idx] = live[..] {
            let prog = self.decoded[core_idx].as_ref().expect("loaded");
            let core = &mut self.cores[core_idx];
            let cycles = &mut self.cycles[core_idx];
            let energy = &mut self.energy[core_idx];
            while !core.halted && steps < max_steps {
                if steps + 2 <= max_steps {
                    if let Some(fused) = prog.fused_at(core.pc) {
                        let (c1, c2) =
                            core.exec_fused(fused, hook, &mut self.usage, &mut self.events);
                        *cycles += c1.cycles;
                        *energy += c1.energy;
                        *cycles += c2.cycles;
                        *energy += c2.energy;
                        steps += 2;
                        continue;
                    }
                }
                let cost =
                    core.step_decoded(prog, &mut self.mem, hook, &mut self.usage, &mut self.events);
                *cycles += cost.cycles;
                *energy += cost.energy;
                steps += 1;
            }
            if core.halted {
                live.clear();
            }
        }

        self.mem.flush_all();
        RunOutcome {
            completed: live.is_empty(),
            steps,
            cycles: self.cycles.iter().copied().max().unwrap_or(0),
        }
    }

    /// The contended phase of [`Machine::run`]: runs while more than one
    /// core in `live` is live and fewer than `max_steps` steps have run;
    /// returns the steps taken. On return every step is executed and `rng`
    /// stands where one `below(live.len())` per step leaves it.
    ///
    /// A picked core whose next op is core-local (see
    /// [`DecodedProgram::local_run`]) has its local run measured by a dry
    /// walk, and its next picks up to the run's length only count into a
    /// bank. The banked steps execute straight-line when the core is
    /// picked again after the run, and for every core when the phase
    /// ends. Local steps touch only their own core's registers, pc, loop
    /// counters, usage, cycles and energy, and no hook sees them, so
    /// deferring them commutes with every other core's steps; and the
    /// bank holds exactly the picks taken, so a budget that cuts a run
    /// short executes the same prefix the reference does.
    ///
    /// Picks are drawn one attempt of `below`'s rejection loop at a time
    /// ([`DetRng::try_below`]) and charged to a countdown per live slot:
    /// the picks the slot's current local run still absorbs. A rejected
    /// attempt charges nothing, so the only exit from the draw loop is a
    /// pick past its slot's run (`countdown < accepted`) or the budget.
    /// Every attempt is consumed in order, so a halt needs no restore of
    /// the stream. The slot arrays `swap_remove` together with `live`.
    ///
    /// At a pick whose op is not core-local the walk would measure 0, so
    /// the op is dispatched without copying the loop stack for a walk.
    fn run_contended<H: FaultHook + ?Sized>(
        &mut self,
        hook: &mut H,
        rng: &mut DetRng,
        live: &mut Vec<usize>,
        max_steps: u64,
    ) -> u64 {
        if live.len() < 2 {
            return 0;
        }
        // Per live slot: the length of its current local run, and the
        // picks that run still absorbs; its bank is their difference.
        let mut run = vec![0u64; live.len()];
        let mut countdown = vec![0u64; live.len()];
        let mut steps = 0u64;
        let mut loops = Vec::new();
        'picks: while live.len() > 1 && steps < max_steps {
            let n = live.len() as u64;
            let slot = loop {
                let (pick, accepted) = rng.try_below(n);
                let slot = pick as usize;
                let accepted = u64::from(accepted);
                if countdown[slot] < accepted {
                    break slot;
                }
                countdown[slot] -= accepted;
                steps += accepted;
                if steps == max_steps {
                    break 'picks;
                }
            };
            steps += 1;
            self.work.exits += 1;
            let core_idx = live[slot];
            let banked = std::mem::take(&mut run[slot]);
            if banked > 0 {
                self.exec_banked(core_idx, banked);
            }
            let prog = self.decoded[core_idx].as_ref().expect("loaded");
            let core = &mut self.cores[core_idx];
            if prog.is_local(core.pc) {
                loops.clone_from(&core.loop_stack);
                let local = prog.local_run(core.pc, &mut loops, MAX_LOCAL_RUN);
                if local > 0 {
                    self.work.banked_runs += 1;
                    run[slot] = local;
                    countdown[slot] = local - 1;
                    continue;
                }
            }
            self.work.dispatched += 1;
            let cost =
                core.step_decoded(prog, &mut self.mem, hook, &mut self.usage, &mut self.events);
            self.cycles[core_idx] += cost.cycles;
            self.energy[core_idx] += cost.energy;
            if core.halted() {
                live.swap_remove(slot);
                run.swap_remove(slot);
                countdown.swap_remove(slot);
            }
        }
        for (slot, &core_idx) in live.iter().enumerate() {
            let banked = run[slot] - countdown[slot];
            if banked > 0 {
                self.exec_banked(core_idx, banked);
            }
        }
        steps
    }

    /// Executes `n` banked local steps of core `core_idx` straight-line.
    fn exec_banked(&mut self, core_idx: usize, n: u64) {
        let prog = self.decoded[core_idx].as_ref().expect("loaded");
        self.cores[core_idx].exec_local_run(
            prog,
            n,
            &mut self.usage,
            &mut self.cycles[core_idx],
            &mut self.energy[core_idx],
        );
    }

    /// The seed interpreter loop, kept verbatim: un-predecoded dispatch
    /// and one scheduling draw per step regardless of live-core count.
    /// The conformance gate and `tests/fastpath_equivalence.rs` compare
    /// [`Machine::run`] against this to prove the fast path emits
    /// identical bits.
    pub fn run_reference<H: FaultHook + ?Sized>(
        &mut self,
        hook: &mut H,
        rng: &mut DetRng,
        max_steps: u64,
    ) -> RunOutcome {
        let mut steps = 0u64;
        let runnable: Vec<usize> = (0..self.cores.len())
            .filter(|&i| self.programs[i].is_some())
            .collect();
        if runnable.is_empty() {
            return RunOutcome {
                completed: true,
                steps: 0,
                cycles: 0,
            };
        }
        let mut live: Vec<usize> = runnable
            .iter()
            .copied()
            .filter(|&i| !self.cores[i].halted())
            .collect();
        while !live.is_empty() && steps < max_steps {
            let pick = rng.below(live.len() as u64) as usize;
            let core_idx = live[pick];
            let prog = self.programs[core_idx].as_ref().expect("loaded");
            let cost = self.cores[core_idx].step(
                prog,
                &mut self.mem,
                hook,
                &mut self.usage,
                &mut self.events,
            );
            self.cycles[core_idx] += cost.cycles;
            self.energy[core_idx] += cost.energy;
            steps += 1;
            if self.cores[core_idx].halted() {
                live.swap_remove(pick);
            }
        }
        self.mem.flush_all();
        RunOutcome {
            completed: live.is_empty(),
            steps,
            cycles: self.cycles.iter().copied().max().unwrap_or(0),
        }
    }

    /// Cold restart: zeroed memory, fresh caches and stats, zeroed
    /// registers, cleared run products — indistinguishable from a newly
    /// constructed machine except that loaded programs (and their decoded
    /// images) are kept. Lets callers reuse one `Machine` across unit
    /// iterations instead of reallocating memory and re-decoding.
    pub fn restart(&mut self) {
        self.mem.reset();
        for c in &mut self.cores {
            *c = Core::new(c.id);
        }
        self.usage.reset();
        self.events.clear();
        self.cycles.iter_mut().for_each(|c| *c = 0);
        self.energy.iter_mut().for_each(|e| *e = 0.0);
        self.work = VmWork::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoFaults;
    use crate::inst::IntOpKind;
    use crate::program::ProgramBuilder;
    use sdc_model::DataType;

    fn counter_program(lock_addr: u64, counter_addr: u64, rounds: u32) -> Program {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, lock_addr);
        b.mov_imm(1, counter_addr);
        b.mov_imm(2, 1);
        b.loop_start(rounds);
        b.lock_acquire(0);
        b.load(3, 1, 0);
        b.int_op(IntOpKind::Add, DataType::Bin64, 3, 3, 2);
        b.store(3, 1, 0);
        b.lock_release(0);
        b.loop_end();
        b.build()
    }

    #[test]
    fn single_core_runs_to_halt() {
        let mut m = Machine::new(1, 4096);
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 7);
        m.load(0, b.build());
        let mut rng = DetRng::new(1);
        let out = m.run(&mut NoFaults, &mut rng, 1_000);
        assert!(out.completed);
        assert_eq!(m.core(0).regs.int(0), 7);
        assert!(out.cycles > 0);
    }

    #[test]
    fn unloaded_cores_do_not_block_completion() {
        let mut m = Machine::new(4, 4096);
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        m.load(2, b.build());
        let mut rng = DetRng::new(2);
        let out = m.run(&mut NoFaults, &mut rng, 1_000);
        assert!(out.completed);
    }

    #[test]
    fn step_budget_stops_runaway() {
        let mut m = Machine::new(1, 4096);
        let mut b = ProgramBuilder::new();
        b.loop_start(u32::MAX);
        b.mov_imm(0, 1);
        b.loop_end();
        m.load(0, b.build());
        let mut rng = DetRng::new(3);
        let out = m.run(&mut NoFaults, &mut rng, 10_000);
        assert!(!out.completed);
        assert_eq!(out.steps, 10_000);
    }

    #[test]
    fn step_budget_is_exact_with_fused_pairs() {
        // The runaway body is IntOp+LoopEnd, a fused pair; odd budgets
        // force the fast path to fall back to single-step dispatch for
        // the final instruction.
        let mut m = Machine::new(1, 4096);
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        b.loop_start(u32::MAX);
        b.int_op(IntOpKind::Add, DataType::Bin64, 0, 0, 0);
        b.loop_end();
        m.load(0, b.build());
        let mut rng = DetRng::new(3);
        let out = m.run(&mut NoFaults, &mut rng, 10_001);
        assert!(!out.completed);
        assert_eq!(out.steps, 10_001);
    }

    #[test]
    fn lock_counter_is_exact_with_healthy_coherence() {
        let mut m = Machine::new(4, 1 << 16);
        for c in 0..4 {
            m.load(c, counter_program(0, 64, 25));
        }
        let mut rng = DetRng::new(4);
        let out = m.run(&mut NoFaults, &mut rng, 10_000_000);
        assert!(out.completed, "all cores finish");
        assert_eq!(m.mem.raw_read_u64(64), 100, "no lost updates");
    }

    #[test]
    fn interleaving_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut m = Machine::new(2, 1 << 16);
            for c in 0..2 {
                m.load(c, counter_program(0, 64, 10));
            }
            let mut rng = DetRng::new(seed);
            let out = m.run(&mut NoFaults, &mut rng, 1_000_000);
            (out.steps, m.mem.raw_read_u64(64))
        };
        assert_eq!(run(7), run(7));
        // Different seeds interleave differently but are equally correct.
        assert_eq!(run(7).1, run(8).1);
    }

    #[test]
    fn energy_and_cycles_accumulate() {
        let mut m = Machine::new(2, 4096);
        let mut b = ProgramBuilder::new();
        b.fmov_imm(0, 1.0);
        b.fatan(crate::inst::Precision::F64, 1, 0);
        m.load(0, b.build());
        let mut rng = DetRng::new(5);
        m.run(&mut NoFaults, &mut rng, 1_000);
        assert!(m.energy[0] > 0.0);
        assert!(m.cycles[0] >= InstClass::FloatAtan.cycles());
        assert_eq!(m.cycles[1], 0, "idle core consumes nothing");
    }

    #[test]
    fn restart_matches_fresh_machine() {
        let program = counter_program(0, 64, 10);
        let mut reused = Machine::new(1, 1 << 16);
        reused.load(0, program.clone());
        let mut rng = DetRng::new(9);
        reused.run(&mut NoFaults, &mut rng, 1_000_000);
        reused.restart();
        let mut rng = DetRng::new(9);
        let out_reused = reused.run(&mut NoFaults, &mut rng, 1_000_000);

        let mut fresh = Machine::new(1, 1 << 16);
        fresh.load(0, program);
        let mut rng = DetRng::new(9);
        let out_fresh = fresh.run(&mut NoFaults, &mut rng, 1_000_000);

        assert_eq!(out_reused, out_fresh);
        assert_eq!(reused.mem.raw_read_u64(64), fresh.mem.raw_read_u64(64));
        assert_eq!(reused.cycles, fresh.cycles);
        assert_eq!(
            reused.core(0).regs.int(3),
            fresh.core(0).regs.int(3),
            "registers match after restart"
        );
    }

    /// [`counter_program`] with a `Pause` filler loop of `filler`
    /// iterations opening each round, which the contended loop banks.
    fn filler_counter_program(
        lock_addr: u64,
        counter_addr: u64,
        rounds: u32,
        filler: u32,
    ) -> Program {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, lock_addr);
        b.mov_imm(1, counter_addr);
        b.mov_imm(2, 1);
        b.loop_start(rounds);
        b.loop_start(filler);
        b.pause();
        b.loop_end();
        b.lock_acquire(0);
        b.load(3, 1, 0);
        b.int_op(IntOpKind::Add, DataType::Bin64, 3, 3, 2);
        b.store(3, 1, 0);
        b.lock_release(0);
        b.loop_end();
        b.build()
    }

    /// While more than one core stays live, the contended loop leaves the
    /// interleave stream exactly where the reference's one draw per step
    /// does, at power-of-two live counts (where about half the draws are
    /// rejected) and others, and also after a halt amid banked runs.
    #[test]
    fn contended_draws_match_reference_stream_position() {
        use rand::RngCore as _;

        for cores in [3usize, 8, 16, 24, 64] {
            let build = || {
                let mut m = Machine::new(cores, 1 << 16);
                m.load(0, counter_program(128, 192, 2)); // halts early
                for c in 1..cores {
                    m.load(c, filler_counter_program(0, 64, 1_000, 5 + c as u32 % 4));
                }
                m
            };
            let budgets = [100u64, 256, 1_000, 5_000, 40 * cores as u64];
            for budget in budgets {
                let mut fast_rng = DetRng::new(11);
                let out = build().run(&mut NoFaults, &mut fast_rng, budget);
                let mut ref_rng = DetRng::new(11);
                let mut reference = build();
                assert_eq!(
                    out,
                    reference.run_reference(&mut NoFaults, &mut ref_rng, budget)
                );
                assert_eq!(out.steps, budget, "two cores stay live");
                let label = format!("c{cores} budget {budget}");
                assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "{label}");
                if budget == *budgets.iter().max().unwrap() {
                    assert!(reference.core(0).halted(), "{label}: core 0 halted mid-run");
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_interpreter() {
        for cores in [1usize, 2, 4] {
            for seed in [1u64, 7, 42] {
                let build = || {
                    let mut m = Machine::new(cores, 1 << 16);
                    for c in 0..cores {
                        m.load(c, counter_program(0, 64, 12));
                    }
                    m
                };
                let mut fast = build();
                let mut rng = DetRng::new(seed);
                let out_fast = fast.run(&mut NoFaults, &mut rng, 5_000_000);
                let mut reference = build();
                let mut rng = DetRng::new(seed);
                let out_ref = reference.run_reference(&mut NoFaults, &mut rng, 5_000_000);
                assert_eq!(out_fast, out_ref, "cores={cores} seed={seed}");
                assert_eq!(fast.mem.raw_read_u64(64), reference.mem.raw_read_u64(64));
                assert_eq!(fast.cycles, reference.cycles);
                assert_eq!(fast.usage.profile(), reference.usage.profile());
            }
        }
    }
}
