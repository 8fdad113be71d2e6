//! Predecoded programs: the interpreter fast path's flattened form.
//!
//! `DecodedProgram::decode` runs once per loaded program and precomputes
//! everything `Core::step` otherwise rederives on every retire:
//!
//! * per-instruction class, cycle and energy costs;
//! * the `loop_end + 1` skip target of every `LoopStart`, flattening the
//!   `HashMap` lookup out of zero-count loop entry;
//! * per-`IntOp` datatype masks and shift widths;
//! * superinstruction marks fusing common adjacent pairs
//!   (`MovImm`+`IntOp`, `IntOp`+`IntOp`, and the compare-and-branch
//!   analogue `IntOp`+`LoopEnd`) for the single-live-core execution
//!   phase;
//! * core-local marks on the ops that touch no memory, call no hook and
//!   cannot halt, whose steps the contended phase banks instead of
//!   dispatching (see [`crate::machine::Machine::run`]);
//! * closed-form marks on the bodies of flat loops that write no
//!   register, whose banked iterations execute all at once (see
//!   `Core::exec_local_run`).
//!
//! The decoded form keeps a strict 1:1 pc mapping with the source
//! program — fusion is a per-pc mark consulted at dispatch, not a
//! rewrite — so control transfers (loop back-edges, zero-count skips,
//! lock spins) land on exactly the same pcs as undecoded execution.

use crate::cpu::{local_next_pc, LoopStack, StepCost};
use crate::inst::{Inst, InstClass, IntOpKind};
use crate::program::Program;
use sdc_model::DataType;

/// One predecoded instruction: the original `Inst` plus everything the
/// dispatch loop needs without recomputation.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    pub(crate) inst: Inst,
    pub(crate) class: InstClass,
    pub(crate) cycles: u64,
    pub(crate) energy: f64,
    /// For `LoopStart`: the pc after the matching `LoopEnd` (taken when
    /// the trip count is zero). Unused for every other instruction.
    pub(crate) skip_to: u32,
    /// Core-local: the op touches no memory, calls no hook and cannot
    /// halt, so its step commutes with every other core's step and no
    /// hook ever sees it (see [`is_core_local`]).
    pub(crate) local: bool,
    /// For a `LoopEnd` whose body is core-local and holds no nested loop:
    /// the body's length, which lets [`DecodedProgram::local_run`] measure
    /// the loop's remaining iterations without walking them. `NO_FLAT_BODY`
    /// otherwise.
    pub(crate) flat_body: u32,
    /// On the first op of a flat loop body that writes no register (today
    /// that means a body of `Pause` ops only, the toolchain's filler): the
    /// iteration length, body plus `LoopEnd`. Whole iterations of such a
    /// loop change only its counter, usage, cycles and energy, so a banked
    /// run jumps them in closed form. `NO_CLOSED_FORM` otherwise.
    pub(crate) closed_iter: u32,
}

const NO_FLAT_BODY: u32 = u32::MAX;
pub(crate) const NO_CLOSED_FORM: u32 = u32::MAX;

/// The core-local instructions: register moves, immediate adds, the
/// compare, `Pause`, and loop control. `IntOp` is not among them — it
/// retires through the fault hook, and a profiling hook's reservoir
/// depends on the global retire order.
fn is_core_local(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::AddImm { .. }
            | Inst::FMovImm { .. }
            | Inst::CmpNe { .. }
            | Inst::Pause
            | Inst::LoopStart { .. }
            | Inst::LoopEnd
    )
}

/// A predecoded `IntOp` with its datatype mask and shift width resolved.
#[derive(Debug, Clone)]
pub(crate) struct AluOp {
    pub(crate) op: IntOpKind,
    pub(crate) dt: DataType,
    pub(crate) mask: u64,
    pub(crate) width: u64,
    pub(crate) dst: u8,
    pub(crate) a: u8,
    pub(crate) b: u8,
    pub(crate) class: InstClass,
}

/// The fusable pair shapes. All operands stay in registers and neither
/// micro-op can transfer control out of the pair except the trailing
/// `LoopEnd`, which is exactly the macro-fused decrement-compare-branch.
#[derive(Debug, Clone)]
pub(crate) enum FusedKind {
    MovImmIntOp { imm_dst: u8, imm: u64, alu: AluOp },
    IntOpIntOp { first: AluOp, second: AluOp },
    IntOpLoopEnd { alu: AluOp },
}

/// A fused pair with both micro-op costs kept separate so the executor
/// accumulates energy in the same f64 addition order as unfused runs.
#[derive(Debug, Clone)]
pub(crate) struct FusedOp {
    pub(crate) kind: FusedKind,
    pub(crate) cost1: StepCost,
    pub(crate) cost2: StepCost,
}

/// The decoded image of one `Program`.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<DecodedOp>,
    /// Per-pc index into `fused`, `u32::MAX` when the pair starting at
    /// that pc is not fusable. A jump landing mid-pair simply uses the
    /// landing pc's own entry.
    fuse_idx: Vec<u32>,
    fused: Vec<FusedOp>,
    /// Per-pc energy of `ops`, contiguous so that one iteration of a
    /// closed-form loop hands its adds over as one slice.
    energy: Vec<f64>,
}

const NO_FUSE: u32 = u32::MAX;

fn alu_of(inst: &Inst) -> Option<AluOp> {
    if let Inst::IntOp { op, dt, dst, a, b } = *inst {
        Some(AluOp {
            op,
            dt,
            mask: dt.mask() as u64,
            width: dt.bits() as u64,
            dst,
            a,
            b,
            class: op.class(),
        })
    } else {
        None
    }
}

impl DecodedProgram {
    /// Decodes a program. Pure: depends only on the instruction stream.
    pub fn decode(program: &Program) -> Self {
        let insts = program.insts();
        let mut ops = insts
            .iter()
            .enumerate()
            .map(|(pc, &inst)| {
                let class = inst.class();
                let skip_to = match inst {
                    Inst::LoopStart { .. } => (program.loop_end_of(pc) + 1) as u32,
                    _ => 0,
                };
                DecodedOp {
                    inst,
                    class,
                    cycles: class.cycles(),
                    energy: class.energy(),
                    skip_to,
                    local: is_core_local(&inst),
                    flat_body: NO_FLAT_BODY,
                    closed_iter: NO_CLOSED_FORM,
                }
            })
            .collect::<Vec<_>>();
        for (start, inst) in insts.iter().enumerate() {
            if let Inst::LoopStart { .. } = inst {
                let end = program.loop_end_of(start);
                let body = &insts[start + 1..end];
                if body
                    .iter()
                    .all(|i| is_core_local(i) && !matches!(i, Inst::LoopStart { .. }))
                {
                    ops[end].flat_body = body.len() as u32;
                    if body.iter().all(|i| matches!(i, Inst::Pause)) {
                        ops[start + 1].closed_iter = body.len() as u32 + 1;
                    }
                }
            }
        }

        let mut fuse_idx = vec![NO_FUSE; insts.len()];
        let mut fused = Vec::new();
        for pc in 0..insts.len().saturating_sub(1) {
            let kind = match (&insts[pc], &insts[pc + 1]) {
                (&Inst::MovImm { dst, imm }, second @ &Inst::IntOp { .. }) => {
                    Some(FusedKind::MovImmIntOp {
                        imm_dst: dst,
                        imm,
                        alu: alu_of(second).expect("IntOp"),
                    })
                }
                (first @ &Inst::IntOp { .. }, second @ &Inst::IntOp { .. }) => {
                    Some(FusedKind::IntOpIntOp {
                        first: alu_of(first).expect("IntOp"),
                        second: alu_of(second).expect("IntOp"),
                    })
                }
                (first @ &Inst::IntOp { .. }, &Inst::LoopEnd) => Some(FusedKind::IntOpLoopEnd {
                    alu: alu_of(first).expect("IntOp"),
                }),
                _ => None,
            };
            if let Some(kind) = kind {
                let (c1, c2) = (ops[pc].class, ops[pc + 1].class);
                fuse_idx[pc] = fused.len() as u32;
                fused.push(FusedOp {
                    kind,
                    cost1: StepCost {
                        cycles: c1.cycles(),
                        energy: c1.energy(),
                    },
                    cost2: StepCost {
                        cycles: c2.cycles(),
                        energy: c2.energy(),
                    },
                });
            }
        }
        let energy = ops.iter().map(|op| op.energy).collect();
        DecodedProgram {
            ops,
            fuse_idx,
            fused,
            energy,
        }
    }

    #[inline]
    pub(crate) fn op(&self, pc: usize) -> Option<&DecodedOp> {
        self.ops.get(pc)
    }

    /// Whether the op at `pc` is core-local (false past the program end).
    #[inline]
    pub(crate) fn is_local(&self, pc: usize) -> bool {
        self.ops.get(pc).is_some_and(|op| op.local)
    }

    /// The fused pair starting at `pc`, if the decoder marked one.
    #[inline]
    pub(crate) fn fused_at(&self, pc: usize) -> Option<&FusedOp> {
        match self.fuse_idx.get(pc) {
            Some(&i) if i != NO_FUSE => Some(&self.fused[i as usize]),
            _ => None,
        }
    }

    /// The `len` ops starting at `pc` and their energies: one iteration
    /// of a closed-form loop whose body starts at `pc` (see
    /// `DecodedOp::closed_iter`).
    #[inline]
    pub(crate) fn iteration(&self, pc: usize, len: u32) -> (&[DecodedOp], &[f64]) {
        let span = pc..pc + len as usize;
        (&self.ops[span.clone()], &self.energy[span])
    }

    /// Length of the run of core-local ops a core at `pc` with loop
    /// counters `loops` executes next, capped at `cap`.
    ///
    /// A dry walk: core-local control flow depends only on the pc and the
    /// loop counters, so the walk advances `pc` and `loops` (a scratch
    /// copy of the core's, which it clobbers) and executes nothing. At the
    /// `LoopEnd` of a flat core-local loop it counts the remaining
    /// iterations at once. The run ends before the first op that is not
    /// core-local, past the program end, or at a `LoopEnd` with no open
    /// loop.
    pub(crate) fn local_run(&self, mut pc: usize, loops: &mut LoopStack, cap: u64) -> u64 {
        let mut len = 0;
        while len < cap {
            let Some(op) = self.ops.get(pc).filter(|op| op.local) else {
                break;
            };
            if op.flat_body != NO_FLAT_BODY {
                let Some((_, left)) = loops.pop() else {
                    break;
                };
                // This `LoopEnd`, then `left - 1` more body passes, each
                // closed by the `LoopEnd` again.
                len += 1 + u64::from(left - 1) * (u64::from(op.flat_body) + 1);
                pc += 1;
                continue;
            }
            let Some(next) = local_next_pc(op.inst, pc, op.skip_to as usize, loops) else {
                break;
            };
            pc = next;
            len += 1;
        }
        len.min(cap)
    }

    /// Number of predecoded instructions (same as the program length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of fusable pair marks found (diagnostics and benches).
    pub fn fused_pairs(&self) -> usize {
        self.fused.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn decode_preserves_pc_mapping_and_costs() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 3).mov_imm(1, 5).loop_start(10);
        b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
        b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
        b.loop_end();
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(d.len(), prog.len());
        for (pc, inst) in prog.insts().iter().enumerate() {
            let op = d.op(pc).expect("1:1 mapping");
            assert_eq!(op.class, inst.class());
            assert_eq!(op.cycles, inst.class().cycles());
        }
    }

    #[test]
    fn loop_start_skip_targets_match_program() {
        let mut b = ProgramBuilder::new();
        b.loop_start(0);
        b.mov_imm(0, 1);
        b.loop_end();
        b.mov_imm(0, 2);
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(
            d.op(0).expect("pc 0").skip_to as usize,
            prog.loop_end_of(0) + 1
        );
    }

    #[test]
    fn fusion_marks_expected_pairs() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 3); // pc 0: MovImm followed by IntOp -> fused
        b.int_op(IntOpKind::Add, DataType::I32, 1, 0, 0); // pc 1: IntOp+IntOp -> fused
        b.int_op(IntOpKind::Xor, DataType::I32, 2, 1, 0); // pc 2: IntOp before fmov -> not fused
        b.fmov_imm(0, 1.0); // pc 3
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert!(d.fused_at(0).is_some(), "MovImm+IntOp fuses");
        assert!(d.fused_at(1).is_some(), "IntOp+IntOp fuses");
        assert!(d.fused_at(2).is_none(), "IntOp+FMovImm does not fuse");
        assert_eq!(d.fused_pairs(), 2);
    }

    /// `local_run` must count exactly the core-local steps a core takes
    /// before its next other op, from every pc a real run visits (mid
    /// flat loop, at nested loop ends, across an enclosing `LoopEnd`),
    /// and stop at the cap.
    #[test]
    fn local_run_matches_stepping() {
        use crate::cpu::Core;
        use crate::hooks::NoFaults;
        use crate::mem::MemSystem;
        use crate::usage::UsageCounters;

        let mut b = ProgramBuilder::new();
        b.mov_imm(1, 64).loop_start(3);
        b.loop_start(0).store(1, 1, 0).loop_end();
        b.loop_start(5).pause().add_imm(2, 2, 1).loop_end();
        b.loop_start(2);
        b.loop_start(2).mov(3, 2).loop_end();
        b.cmp_ne(4, 3, 2);
        b.loop_end();
        b.store(2, 1, 0);
        b.fmov_imm(0, 1.0).loop_end();
        b.loop_start(7).pause().loop_end();
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        let mut core = Core::new(0);
        let mut mem = MemSystem::new(1, 4096);
        let mut usage = UsageCounters::new(1);
        let mut trace = Vec::new();
        while !core.halted() {
            trace.push((
                core.pc,
                core.loop_stack.clone(),
                d.op(core.pc).is_some_and(|o| o.local),
            ));
            core.step_decoded(&d, &mut mem, &mut NoFaults, &mut usage, &mut Vec::new());
        }
        for (i, (pc, loops, _)) in trace.iter().enumerate() {
            let expect = trace[i..].iter().take_while(|t| t.2).count() as u64;
            for cap in [1, 3, u64::MAX] {
                let got = d.local_run(*pc, &mut loops.clone(), cap);
                assert_eq!(got, expect.min(cap), "step {i} pc {pc} cap {cap}");
            }
        }
    }

    #[test]
    fn int_loop_body_fuses_with_loop_end() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1).loop_start(4);
        b.int_op(IntOpKind::Add, DataType::Bin64, 0, 0, 0);
        b.loop_end();
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        let f = d.fused_at(2).expect("IntOp+LoopEnd fuses");
        assert!(matches!(f.kind, FusedKind::IntOpLoopEnd { .. }));
        assert_eq!(f.cost2.cycles, InstClass::Control.cycles());
    }
}
