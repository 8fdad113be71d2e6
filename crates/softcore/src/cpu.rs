//! Single-core instruction execution.
//!
//! The interpreter is generic over the fault hook so the golden/profiling
//! path (`NoFaults`) monomorphizes to straight-line code with no virtual
//! call per retire; callers holding a `&mut dyn FaultHook` still compile
//! against the same functions with `H = dyn FaultHook`.

use crate::decode::{AluOp, DecodedOp, DecodedProgram, FusedKind, FusedOp, NO_CLOSED_FORM};
use crate::hooks::{FaultHook, RetireInfo};
use crate::inst::{FOpKind, Inst, InstClass, IntOpKind, LaneType, Precision, VOpKind, XOpKind};
use crate::machine::CorruptionEvent;
use crate::mem::MemSystem;
use crate::program::Program;
use crate::regs::{
    f32_as_vec, f64_as_vec, i32_as_vec, vec_as_f32, vec_as_f64, vec_as_i32, RegFile,
};
use crate::tx::TxState;
use crate::usage::UsageCounters;
use sdc_model::DataType;
use softfloat::{atan as x87_atan, F80};

/// Cost of one executed instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Cycles consumed.
    pub cycles: u64,
    /// Energy consumed (arbitrary units; feeds the thermal model).
    pub energy: f64,
}

impl StepCost {
    pub(crate) const ZERO: StepCost = StepCost {
        cycles: 0,
        energy: 0.0,
    };
}

/// Open counted loops, innermost last: the `LoopStart` pc and the
/// iterations left.
pub(crate) type LoopStack = Vec<(usize, u32)>;

/// Control transfer of a core-local op (see
/// [`crate::decode::DecodedProgram::local_run`]): the pc after the op at
/// `pc`, pushing, decrementing or popping `loops` as loop control does.
/// `skip_to` is the zero-count `LoopStart` target. `None` for a `LoopEnd`
/// with no open loop, which validated programs cannot reach.
#[inline]
pub(crate) fn local_next_pc(
    inst: Inst,
    pc: usize,
    skip_to: usize,
    loops: &mut LoopStack,
) -> Option<usize> {
    Some(match inst {
        Inst::LoopStart { count: 0 } => skip_to,
        Inst::LoopStart { count } => {
            loops.push((pc, count));
            pc + 1
        }
        Inst::LoopEnd => {
            let top = loops.last_mut()?;
            top.1 -= 1;
            if top.1 > 0 {
                top.0 + 1
            } else {
                loops.pop();
                pc + 1
            }
        }
        _ => pc + 1,
    })
}

/// One simulated physical core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Machine-local index of this core.
    pub id: usize,
    /// Architectural registers.
    pub regs: RegFile,
    pub(crate) pc: usize,
    pub(crate) loop_stack: LoopStack,
    pub(crate) halted: bool,
    tx: TxState,
}

impl Core {
    /// A fresh core with the given machine-local index.
    pub fn new(id: usize) -> Self {
        Core {
            id,
            regs: RegFile::new(),
            pc: 0,
            loop_stack: Vec::new(),
            halted: false,
            tx: TxState::new(),
        }
    }

    /// Whether the core has executed `Halt` (or run off the program end).
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Transaction commit/abort counts for this core.
    pub fn tx_stats(&self) -> (u64, u64) {
        (self.tx.commits, self.tx.aborts)
    }

    /// Resets control state for a new program (registers persist; callers
    /// that need a cold start create a new `Core`).
    pub fn restart(&mut self) {
        self.pc = 0;
        self.loop_stack.clear();
        self.halted = false;
        self.tx = TxState::new();
    }

    /// Runs a scalar result through the fault hook, logging a corruption
    /// event if the hook fires.
    #[inline]
    fn retire<H: FaultHook + ?Sized>(
        &self,
        class: InstClass,
        dt: DataType,
        bits: u128,
        hook: &mut H,
        events: &mut Vec<CorruptionEvent>,
    ) -> u128 {
        let bits = bits & dt.mask();
        let info = RetireInfo {
            core: self.id,
            class,
            dt,
            bits,
        };
        match hook.corrupt(&info) {
            Some(corrupted) => {
                let corrupted = corrupted & dt.mask();
                events.push(CorruptionEvent {
                    core: self.id,
                    class,
                    dt,
                    expected: bits,
                    actual: corrupted,
                });
                corrupted
            }
            None => bits,
        }
    }

    /// Executes one instruction. Returns its cost; a halted core returns a
    /// zero-cost step.
    pub fn step<H: FaultHook + ?Sized>(
        &mut self,
        prog: &Program,
        mem: &mut MemSystem,
        hook: &mut H,
        usage: &mut UsageCounters,
        events: &mut Vec<CorruptionEvent>,
    ) -> StepCost {
        if self.halted {
            return StepCost::ZERO;
        }
        let Some(&inst) = prog.insts().get(self.pc) else {
            self.halted = true;
            return StepCost::ZERO;
        };
        let class = inst.class();
        usage.record(self.id, class);
        let skip_to = match inst {
            Inst::LoopStart { count: 0 } => prog.loop_end_of(self.pc) + 1,
            _ => 0,
        };
        self.exec_inst(inst, class, skip_to, mem, hook, events);
        StepCost {
            cycles: class.cycles(),
            energy: class.energy(),
        }
    }

    /// `step` against a predecoded program: class, costs and zero-count
    /// loop skip targets come from the decode pass instead of per-step
    /// recomputation. Bit-identical to `step` on the same state.
    pub(crate) fn step_decoded<H: FaultHook + ?Sized>(
        &mut self,
        prog: &DecodedProgram,
        mem: &mut MemSystem,
        hook: &mut H,
        usage: &mut UsageCounters,
        events: &mut Vec<CorruptionEvent>,
    ) -> StepCost {
        if self.halted {
            return StepCost::ZERO;
        }
        let Some(op) = prog.op(self.pc) else {
            self.halted = true;
            return StepCost::ZERO;
        };
        usage.record(self.id, op.class);
        self.exec_inst(op.inst, op.class, op.skip_to as usize, mem, hook, events);
        StepCost {
            cycles: op.cycles,
            energy: op.energy,
        }
    }

    /// Executes a fused instruction pair straight-line, preserving the
    /// exact per-instruction order of usage recording, retires and cost
    /// accounting. Only legal for pairs the decoder marked (no memory, no
    /// control transfer out of the pair other than the trailing
    /// `LoopEnd`). Returns the two per-instruction costs separately so the
    /// caller can accumulate energy in the same f64 order as unfused
    /// execution.
    pub(crate) fn exec_fused<H: FaultHook + ?Sized>(
        &mut self,
        fused: &FusedOp,
        hook: &mut H,
        usage: &mut UsageCounters,
        events: &mut Vec<CorruptionEvent>,
    ) -> (StepCost, StepCost) {
        match fused.kind {
            FusedKind::MovImmIntOp {
                imm_dst,
                imm,
                ref alu,
            } => {
                usage.record(self.id, InstClass::Control);
                self.regs.set_int(imm_dst, imm);
                usage.record(self.id, alu.class);
                self.exec_alu(alu, hook, events);
                self.pc += 2;
            }
            FusedKind::IntOpIntOp {
                ref first,
                ref second,
            } => {
                usage.record(self.id, first.class);
                self.exec_alu(first, hook, events);
                usage.record(self.id, second.class);
                self.exec_alu(second, hook, events);
                self.pc += 2;
            }
            FusedKind::IntOpLoopEnd { ref alu } => {
                usage.record(self.id, alu.class);
                self.exec_alu(alu, hook, events);
                usage.record(self.id, InstClass::Control);
                self.pc += 1;
                self.exec_local(Inst::LoopEnd, 0);
            }
        }
        (fused.cost1, fused.cost2)
    }

    /// The predecoded `IntOp` body (mask/width precomputed by the
    /// decoder). Mirrors the `Inst::IntOp` arm of `exec_inst` exactly.
    #[inline]
    fn exec_alu<H: FaultHook + ?Sized>(
        &mut self,
        alu: &AluOp,
        hook: &mut H,
        events: &mut Vec<CorruptionEvent>,
    ) {
        let x = self.regs.int(alu.a) & alu.mask;
        let y = self.regs.int(alu.b) & alu.mask;
        let raw = match alu.op {
            IntOpKind::Add => x.wrapping_add(y),
            IntOpKind::Sub => x.wrapping_sub(y),
            IntOpKind::Mul => x.wrapping_mul(y),
            IntOpKind::Div => x.checked_div(y).unwrap_or(0),
            IntOpKind::And => x & y,
            IntOpKind::Or => x | y,
            IntOpKind::Xor => x ^ y,
            IntOpKind::Shl => x << (y % alu.width),
            IntOpKind::Shr => x >> (y % alu.width),
        };
        let out = self.retire(alu.class, alu.dt, raw as u128, hook, events);
        self.regs.set_int(alu.dst, out as u64);
    }

    /// The interpreter body shared by `step` and `step_decoded`. `skip_to`
    /// is the precomputed `LoopEnd`+1 target consumed by zero-count
    /// `LoopStart` (unused for every other instruction).
    fn exec_inst<H: FaultHook + ?Sized>(
        &mut self,
        inst: Inst,
        class: InstClass,
        skip_to: usize,
        mem: &mut MemSystem,
        hook: &mut H,
        events: &mut Vec<CorruptionEvent>,
    ) {
        let mut next_pc = self.pc + 1;
        match inst {
            Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::AddImm { .. }
            | Inst::FMovImm { .. }
            | Inst::CmpNe { .. }
            | Inst::Pause
            | Inst::LoopStart { .. }
            | Inst::LoopEnd => return self.exec_local(inst, skip_to),
            Inst::IntOp { op, dt, dst, a, b } => {
                let mask = dt.mask() as u64;
                let x = self.regs.int(a) & mask;
                let y = self.regs.int(b) & mask;
                let width = dt.bits() as u64;
                let raw = match op {
                    IntOpKind::Add => x.wrapping_add(y),
                    IntOpKind::Sub => x.wrapping_sub(y),
                    IntOpKind::Mul => x.wrapping_mul(y),
                    IntOpKind::Div => x.checked_div(y).unwrap_or(0),
                    IntOpKind::And => x & y,
                    IntOpKind::Or => x | y,
                    IntOpKind::Xor => x ^ y,
                    IntOpKind::Shl => x << (y % width),
                    IntOpKind::Shr => x >> (y % width),
                };
                let out = self.retire(class, dt, raw as u128, hook, events);
                self.regs.set_int(dst, out as u64);
            }
            Inst::FOp {
                op,
                prec,
                dst,
                a,
                b,
            } => {
                let out = match prec {
                    Precision::F32 => {
                        let x = self.regs.float(a) as f32;
                        let y = self.regs.float(b) as f32;
                        let r = match op {
                            FOpKind::Add => x + y,
                            FOpKind::Sub => x - y,
                            FOpKind::Mul => x * y,
                            FOpKind::Div => x / y,
                        };
                        let bits =
                            self.retire(class, DataType::F32, r.to_bits() as u128, hook, events);
                        f32::from_bits(bits as u32) as f64
                    }
                    Precision::F64 => {
                        let x = self.regs.float(a);
                        let y = self.regs.float(b);
                        let r = match op {
                            FOpKind::Add => x + y,
                            FOpKind::Sub => x - y,
                            FOpKind::Mul => x * y,
                            FOpKind::Div => x / y,
                        };
                        let bits =
                            self.retire(class, DataType::F64, r.to_bits() as u128, hook, events);
                        f64::from_bits(bits as u64)
                    }
                };
                self.regs.set_float(dst, out);
            }
            Inst::FFma { prec, dst, a, b, c } => {
                let out = match prec {
                    Precision::F32 => {
                        let r = (self.regs.float(a) as f32)
                            .mul_add(self.regs.float(b) as f32, self.regs.float(c) as f32);
                        let bits =
                            self.retire(class, DataType::F32, r.to_bits() as u128, hook, events);
                        f32::from_bits(bits as u32) as f64
                    }
                    Precision::F64 => {
                        let r = self
                            .regs
                            .float(a)
                            .mul_add(self.regs.float(b), self.regs.float(c));
                        let bits =
                            self.retire(class, DataType::F64, r.to_bits() as u128, hook, events);
                        f64::from_bits(bits as u64)
                    }
                };
                self.regs.set_float(dst, out);
            }
            Inst::FAtan { prec, dst, a } => {
                let out = match prec {
                    Precision::F32 => {
                        let r = (self.regs.float(a) as f32).atan();
                        let bits =
                            self.retire(class, DataType::F32, r.to_bits() as u128, hook, events);
                        f32::from_bits(bits as u32) as f64
                    }
                    Precision::F64 => {
                        let r = self.regs.float(a).atan();
                        let bits =
                            self.retire(class, DataType::F64, r.to_bits() as u128, hook, events);
                        f64::from_bits(bits as u64)
                    }
                };
                self.regs.set_float(dst, out);
            }
            Inst::XFromF { dst, src } => {
                let v = F80::from_f64(self.regs.float(src));
                self.regs.set_x87(dst, v);
            }
            Inst::XToF { dst, src } => {
                let v = self.regs.x87(src).to_f64();
                self.regs.set_float(dst, v);
            }
            Inst::XOp { op, dst, a, b } => {
                let x = self.regs.x87(a);
                let y = self.regs.x87(b);
                let r = match op {
                    XOpKind::Add => x + y,
                    XOpKind::Sub => x - y,
                    XOpKind::Mul => x * y,
                    XOpKind::Div => x / y,
                };
                let bits = self.retire(class, DataType::F64X, r.encode(), hook, events);
                self.regs.set_x87(dst, F80::decode(bits));
            }
            Inst::XAtan { dst, a } => {
                let r = x87_atan(self.regs.x87(a));
                let bits = self.retire(class, DataType::F64X, r.encode(), hook, events);
                self.regs.set_x87(dst, F80::decode(bits));
            }
            Inst::VOp {
                op,
                lane,
                dst,
                a,
                b,
                c,
            } => {
                let out = self.exec_vector(op, lane, a, b, c, class, hook, events);
                self.regs.set_vec(dst, out);
            }
            Inst::Crc32Step { dst, acc, data } => {
                let r = crc32_step(self.regs.int(acc) as u32, self.regs.int(data));
                let bits = self.retire(class, DataType::Bin32, r as u128, hook, events);
                self.regs.set_int(dst, bits as u64);
            }
            Inst::HashMix { dst, acc, data } => {
                let r = hash_mix(self.regs.int(acc), self.regs.int(data));
                let bits = self.retire(class, DataType::Bin64, r as u128, hook, events);
                self.regs.set_int(dst, bits as u64);
            }
            Inst::Load { dst, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let v = if self.tx.active() {
                    self.tx.read(self.id, a, mem, hook)
                } else {
                    mem.read_u64(self.id, a, hook)
                };
                self.regs.set_int(dst, v);
            }
            Inst::Store { src, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let v = self.regs.int(src);
                if self.tx.active() {
                    self.tx.write(a, v);
                } else {
                    mem.write_u64(self.id, a, v, hook);
                }
            }
            Inst::LoadF { dst, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let v = mem.read_u64(self.id, a, hook);
                self.regs.set_float(dst, f64::from_bits(v));
            }
            Inst::StoreF { src, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                mem.write_u64(self.id, a, self.regs.float(src).to_bits(), hook);
            }
            Inst::LoadV { dst, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let mut v = [0u64; 4];
                for (i, w) in v.iter_mut().enumerate() {
                    *w = mem.read_u64(self.id, a + 8 * i as u64, hook);
                }
                self.regs.set_vec(dst, v);
            }
            Inst::StoreV { src, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let v = self.regs.vec(src);
                for (i, w) in v.iter().enumerate() {
                    mem.write_u64(self.id, a + 8 * i as u64, *w, hook);
                }
            }
            Inst::StoreX { src, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let bits = self.regs.x87(src).encode();
                mem.write_u64(self.id, a, bits as u64, hook);
                mem.write_u64(self.id, a + 8, (bits >> 64) as u64, hook);
            }
            Inst::LoadX { dst, addr, offset } => {
                let a = self.regs.int(addr).wrapping_add(offset);
                let lo = mem.read_u64(self.id, a, hook) as u128;
                let hi = mem.read_u64(self.id, a + 8, hook) as u128;
                self.regs.set_x87(dst, F80::decode(lo | (hi << 64)));
            }
            Inst::Cas {
                dst,
                addr,
                expected,
                new,
            } => {
                let a = self.regs.int(addr);
                let ok = mem.cas_u64(
                    self.id,
                    a,
                    self.regs.int(expected),
                    self.regs.int(new),
                    hook,
                );
                self.regs.set_int(dst, ok as u64);
            }
            Inst::LockAcquire { addr } => {
                let a = self.regs.int(addr);
                if !mem.cas_u64(self.id, a, 0, 1, hook) {
                    // Spin: retry this instruction on the next step.
                    next_pc = self.pc;
                }
            }
            Inst::LockRelease { addr } => {
                let a = self.regs.int(addr);
                mem.write_u64(self.id, a, 0, hook);
            }
            Inst::TxBegin => self.tx.begin(),
            Inst::TxCommit { dst } => {
                let ok = self.tx.commit(self.id, mem, hook);
                self.regs.set_int(dst, ok as u64);
            }
            Inst::Halt => {
                self.halted = true;
                next_pc = self.pc;
            }
        }
        self.pc = next_pc;
    }

    /// Executes one core-local op (see
    /// [`crate::decode::DecodedProgram::local_run`]): its register effect,
    /// then its control transfer.
    #[inline]
    fn exec_local(&mut self, inst: Inst, skip_to: usize) {
        match inst {
            Inst::MovImm { dst, imm } => self.regs.set_int(dst, imm),
            Inst::Mov { dst, src } => {
                let v = self.regs.int(src);
                self.regs.set_int(dst, v);
            }
            Inst::AddImm { dst, src, imm } => {
                let v = self.regs.int(src).wrapping_add(imm);
                self.regs.set_int(dst, v);
            }
            Inst::FMovImm { dst, imm } => self.regs.set_float(dst, imm),
            Inst::CmpNe { dst, a, b } => {
                let v = (self.regs.int(a) != self.regs.int(b)) as u64;
                self.regs.set_int(dst, v);
            }
            Inst::Pause | Inst::LoopStart { .. } | Inst::LoopEnd => {}
            other => unreachable!("{other:?} is not core-local"),
        }
        self.pc = local_next_pc(inst, self.pc, skip_to, &mut self.loop_stack)
            .expect("LoopEnd without LoopStart (validated programs cannot reach this)");
    }

    /// Executes the next `n` ops, which the caller measured with
    /// [`DecodedProgram::local_run`] to be core-local, straight-line.
    /// Usage is recorded per op, and cycles and energy are added per op in
    /// program order — f64 addition is not associative, so the energy sum
    /// is never folded. At the body start of a closed-form loop (see
    /// `DecodedOp::closed_iter`) the whole iterations the run covers are
    /// jumped at once by [`Core::jump_iterations`], whose energy adds
    /// [`repeat_adds`] closes per binade with the same bits.
    pub(crate) fn exec_local_run(
        &mut self,
        prog: &DecodedProgram,
        n: u64,
        usage: &mut UsageCounters,
        cycles: &mut u64,
        energy: &mut f64,
    ) {
        let mut left = n;
        while left > 0 {
            let op = prog
                .op(self.pc)
                .expect("a local run stays inside the program");
            if op.closed_iter != NO_CLOSED_FORM {
                let (iteration, adds) = prog.iteration(self.pc, op.closed_iter);
                let jumped = self.jump_iterations(iteration, adds, left, usage, cycles, energy);
                if jumped > 0 {
                    left -= jumped;
                    continue;
                }
            }
            usage.record(self.id, op.class);
            self.exec_local(op.inst, op.skip_to as usize);
            *cycles += op.cycles;
            *energy += op.energy;
            left -= 1;
        }
    }

    /// Executes in closed form the `k` whole iterations of a register-free
    /// flat loop that fit in `n` steps, where `iteration` is the loop's
    /// body plus its `LoopEnd`, `adds` their energies, and the core stands
    /// at the body start. `k` stops one short of the loop's last
    /// iteration, so the back-edge is taken every time and the core ends
    /// where it started: only the loop counter, usage, cycles and energy
    /// change. Counter, usage and cycles move by `k` times one
    /// iteration's share; the energy sum moves by [`repeat_adds`], the
    /// bits of `k · len` adds in program order. Returns the steps jumped,
    /// `0` when no whole iteration fits.
    fn jump_iterations(
        &mut self,
        iteration: &[DecodedOp],
        adds: &[f64],
        n: u64,
        usage: &mut UsageCounters,
        cycles: &mut u64,
        energy: &mut f64,
    ) -> u64 {
        let len = iteration.len() as u64;
        let Some(top) = self
            .loop_stack
            .last_mut()
            .filter(|top| top.0 + 1 == self.pc)
        else {
            return 0;
        };
        let k = (n / len).min(u64::from(top.1.saturating_sub(1)));
        if k == 0 {
            return 0;
        }
        top.1 -= k as u32;
        let mut iteration_cycles = 0;
        for op in iteration {
            usage.record_n(self.id, op.class, k);
            iteration_cycles += op.cycles;
        }
        *cycles += k * iteration_cycles;
        *energy = repeat_adds(*energy, adds, k);
        k * len
    }

    /// Vector execution with per-lane fault-hook retirement.
    #[allow(clippy::too_many_arguments)]
    fn exec_vector<H: FaultHook + ?Sized>(
        &mut self,
        op: VOpKind,
        lane: LaneType,
        a: u8,
        b: u8,
        c: u8,
        class: InstClass,
        hook: &mut H,
        events: &mut Vec<CorruptionEvent>,
    ) -> [u64; 4] {
        let va = self.regs.vec(a);
        let vb = self.regs.vec(b);
        let vc = self.regs.vec(c);
        match lane {
            LaneType::F32x8 => {
                let (xa, xb, xc) = (vec_as_f32(&va), vec_as_f32(&vb), vec_as_f32(&vc));
                let mut out = [0f32; 8];
                for i in 0..8 {
                    let r = match op {
                        VOpKind::Add => xa[i] + xb[i],
                        VOpKind::Mul => xa[i] * xb[i],
                        VOpKind::Fma => xa[i].mul_add(xb[i], xc[i]),
                        VOpKind::Xor => f32::from_bits(xa[i].to_bits() ^ xb[i].to_bits()),
                    };
                    let bits = self.retire(class, DataType::F32, r.to_bits() as u128, hook, events);
                    out[i] = f32::from_bits(bits as u32);
                }
                f32_as_vec(&out)
            }
            LaneType::F64x4 => {
                let (xa, xb, xc) = (vec_as_f64(&va), vec_as_f64(&vb), vec_as_f64(&vc));
                let mut out = [0f64; 4];
                for i in 0..4 {
                    let r = match op {
                        VOpKind::Add => xa[i] + xb[i],
                        VOpKind::Mul => xa[i] * xb[i],
                        VOpKind::Fma => xa[i].mul_add(xb[i], xc[i]),
                        VOpKind::Xor => f64::from_bits(xa[i].to_bits() ^ xb[i].to_bits()),
                    };
                    let bits = self.retire(class, DataType::F64, r.to_bits() as u128, hook, events);
                    out[i] = f64::from_bits(bits as u64);
                }
                f64_as_vec(&out)
            }
            LaneType::I32x8 => {
                let (xa, xb, xc) = (vec_as_i32(&va), vec_as_i32(&vb), vec_as_i32(&vc));
                let mut out = [0i32; 8];
                for i in 0..8 {
                    let r = match op {
                        VOpKind::Add => xa[i].wrapping_add(xb[i]),
                        VOpKind::Mul => xa[i].wrapping_mul(xb[i]),
                        VOpKind::Fma => xa[i].wrapping_mul(xb[i]).wrapping_add(xc[i]),
                        VOpKind::Xor => xa[i] ^ xb[i],
                    };
                    let bits = self.retire(class, DataType::I32, r as u32 as u128, hook, events);
                    out[i] = bits as u32 as i32;
                }
                i32_as_vec(&out)
            }
        }
    }
}

/// The bits that `k` rounds of the f64 adds `adds`, in order, leave on
/// `sum`: `for _ in 0..k { for &c in adds { sum += c } }`, in closed form
/// per binade.
///
/// Every value of the binade `[2^E, 2^(E+1))` that holds a positive
/// normal sum is a multiple of its ulp `u`. So while the sum stays inside
/// that binade, each `fl(x + c)` adds exactly `round(c / u) · u`, unless
/// `c / u` is an exact tie, which rounds to even and so depends on `x`.
/// The whole rounds that provably stay inside are jumped at once in
/// integer units of `u` (see `binade_jump`). A round at a tie or at the
/// binade's upper edge runs per op, and so does every round from a sum
/// that is not positive and normal or with an add that is negative.
pub fn repeat_adds(mut sum: f64, adds: &[f64], mut k: u64) -> f64 {
    while k > 0 {
        if let Some((rounds, after)) = binade_jump(sum, adds, k) {
            sum = after;
            k -= rounds;
            continue;
        }
        for &c in adds {
            sum += c;
        }
        k -= 1;
    }
    sum
}

/// The longest run of at most `k` whole rounds of the non-negative
/// `adds` from the positive normal `sum` in which no add is an exact tie
/// at the ulp of the binade of `sum` and every add ends below that
/// binade's upper edge, as `(rounds, sum after them)`; `None` when not
/// even one round qualifies.
fn binade_jump(sum: f64, adds: &[f64], k: u64) -> Option<(u64, f64)> {
    const LOW: u64 = 1 << 52;
    const HIGH: u64 = 1 << 53;
    if !(sum > 0.0 && sum.is_normal()) {
        return None;
    }
    let bits = sum.to_bits();
    let biased = bits >> 52;
    // The binade's ulp, `2^(biased - 1075)`: subnormal below `biased` 53.
    let ulp = if biased > 52 {
        f64::from_bits((biased - 52) << 52)
    } else {
        f64::from_bits(1 << (biased - 1))
    };
    // The sum as an integer count of ulps, in [LOW, HIGH).
    let start = (bits & (LOW - 1)) | LOW;
    // One round's adds, each rounded to whole ulps. The quotients are
    // exact: `ulp` is a power of two, and one that overflowed fails the
    // range check (as does NaN).
    let mut step = 0;
    for &c in adds {
        let q = c / ulp;
        if !(0.0..HIGH as f64).contains(&q) || q.fract() == 0.5 {
            return None;
        }
        step += q.round() as u64;
        if start + step >= HIGH {
            return None;
        }
    }
    // Round `j` (from 0) ends at `start + (j + 1)·step`, its highest
    // partial sum, which must stay below HIGH.
    let rounds = match step {
        0 => k,
        s => ((HIGH - 1 - start) / s).min(k),
    };
    Some((rounds, (start + rounds * step) as f64 * ulp))
}

/// One CRC-32 (IEEE, reflected) accumulation step over 8 data bytes.
pub fn crc32_step(mut crc: u32, data: u64) -> u32 {
    const POLY: u32 = 0xedb8_8320;
    for byte in data.to_le_bytes() {
        crc ^= byte as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb == 1 {
                crc ^= POLY;
            }
        }
    }
    crc
}

/// One 64-bit avalanche mixing step (xx-hash style).
pub fn hash_mix(acc: u64, data: u64) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let mut h = acc.wrapping_add(data.wrapping_mul(P1));
    h = h.rotate_left(31).wrapping_mul(P2);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoFaults;
    use crate::program::ProgramBuilder;

    fn run_one(prog: &Program) -> (Core, MemSystem) {
        let mut core = Core::new(0);
        let mut mem = MemSystem::new(1, 1 << 16);
        let mut hook = NoFaults;
        let mut usage = UsageCounters::new(1);
        let mut events = Vec::new();
        let mut steps = 0;
        while !core.halted() {
            core.step(prog, &mut mem, &mut hook, &mut usage, &mut events);
            steps += 1;
            assert!(steps < 1_000_000, "runaway program");
        }
        (core, mem)
    }

    #[test]
    fn int_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 20);
        b.mov_imm(1, 22);
        b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
        b.int_op(IntOpKind::Mul, DataType::I32, 3, 2, 1);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(2), 42);
        assert_eq!(core.regs.int(3), 42 * 22);
    }

    #[test]
    fn int_width_masking() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 0xffff);
        b.mov_imm(1, 1);
        b.int_op(IntOpKind::Add, DataType::I16, 2, 0, 1);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(2), 0, "i16 wraps at 16 bits");
    }

    #[test]
    fn int_div_by_zero_is_zero() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 10);
        b.mov_imm(1, 0);
        b.int_op(IntOpKind::Div, DataType::U32, 2, 0, 1);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(2), 0);
    }

    #[test]
    fn float_ops() {
        let mut b = ProgramBuilder::new();
        b.fmov_imm(0, 1.5);
        b.fmov_imm(1, 2.0);
        b.fop(FOpKind::Mul, Precision::F64, 2, 0, 1);
        b.ffma(Precision::F64, 3, 0, 1, 2);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.float(2), 3.0);
        assert_eq!(core.regs.float(3), 1.5f64.mul_add(2.0, 3.0));
    }

    #[test]
    fn f32_precision_rounds() {
        let mut b = ProgramBuilder::new();
        b.fmov_imm(0, 0.1);
        b.fmov_imm(1, 0.2);
        b.fop(FOpKind::Add, Precision::F32, 2, 0, 1);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.float(2), (0.1f32 + 0.2f32) as f64);
    }

    #[test]
    fn x87_pipeline() {
        let mut b = ProgramBuilder::new();
        b.fmov_imm(0, 1.0);
        b.push(Inst::XFromF { dst: 0, src: 0 });
        b.push(Inst::XAtan { dst: 1, a: 0 });
        b.push(Inst::XToF { dst: 2, src: 1 });
        let (core, _) = run_one(&b.build());
        assert!((core.regs.float(2) - std::f64::consts::FRAC_PI_4).abs() < 1e-15);
    }

    #[test]
    fn vector_fma_f32() {
        // Lane data is seeded directly into memory; the program loads the
        // blocks, fuses them, and stores the result.
        let prog = {
            let mut b = ProgramBuilder::new();
            b.mov_imm(0, 0); // base address 0: a
            b.mov_imm(1, 32); // base address 32: b
            b.mov_imm(2, 64); // base address 64: c
            b.load_v(0, 0, 0);
            b.load_v(1, 1, 0);
            b.load_v(2, 2, 0);
            b.vop(VOpKind::Fma, LaneType::F32x8, 3, 0, 1, 2);
            b.mov_imm(3, 96);
            b.store_v(3, 3, 0);
            b.build()
        };
        let mut core = Core::new(0);
        let mut mem = MemSystem::new(1, 4096);
        let a: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let bb: Vec<f32> = (0..8).map(|i| (i * 2) as f32).collect();
        let cc: Vec<f32> = (0..8).map(|i| 0.5 + i as f32).collect();
        for i in 0..4 {
            let pack = |s: &[f32], i: usize| {
                s[2 * i].to_bits() as u64 | ((s[2 * i + 1].to_bits() as u64) << 32)
            };
            mem.raw_write_u64(i as u64 * 8, pack(&a, i));
            mem.raw_write_u64(32 + i as u64 * 8, pack(&bb, i));
            mem.raw_write_u64(64 + i as u64 * 8, pack(&cc, i));
        }
        let mut hook = NoFaults;
        let mut usage = UsageCounters::new(1);
        let mut events = Vec::new();
        while !core.halted() {
            core.step(&prog, &mut mem, &mut hook, &mut usage, &mut events);
        }
        mem.flush_all();
        for i in 0..8usize {
            let word = mem.raw_read_u64(96 + (i / 2) as u64 * 8);
            let bits = ((word >> ((i % 2) * 32)) & 0xffff_ffff) as u32;
            let got = f32::from_bits(bits);
            let want = (i as f32).mul_add((i * 2) as f32, 0.5 + i as f32);
            assert_eq!(got, want, "lane {i}");
        }
    }

    #[test]
    fn loops_nest() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 0);
        b.mov_imm(1, 1);
        b.loop_start(3);
        b.loop_start(4);
        b.int_op(IntOpKind::Add, DataType::Bin64, 0, 0, 1);
        b.loop_end();
        b.loop_end();
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(0), 12);
    }

    #[test]
    fn zero_iteration_loop_skips_body() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 7);
        b.loop_start(0);
        b.mov_imm(0, 99);
        b.loop_end();
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(0), 7);
    }

    #[test]
    fn memory_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 512);
        b.mov_imm(1, 0xabcd);
        b.store(1, 0, 8);
        b.load(2, 0, 8);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(2), 0xabcd);
    }

    #[test]
    fn crc_and_hash_steps() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 0xffff_ffff);
        b.mov_imm(1, 0x0123_4567_89ab_cdef);
        b.push(Inst::Crc32Step {
            dst: 2,
            acc: 0,
            data: 1,
        });
        b.push(Inst::HashMix {
            dst: 3,
            acc: 0,
            data: 1,
        });
        let (core, _) = run_one(&b.build());
        assert_eq!(
            core.regs.int(2),
            crc32_step(0xffff_ffff, 0x0123_4567_89ab_cdef) as u64
        );
        assert_eq!(
            core.regs.int(3),
            hash_mix(0xffff_ffff, 0x0123_4567_89ab_cdef)
        );
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" == 0xCBF43926 (classic check value).
        let mut crc = 0xffff_ffffu32;
        let data = b"123456789";
        // Process one byte at a time by placing it in the low byte and
        // checking against a manual bytewise implementation.
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb == 1 {
                    crc ^= 0xedb8_8320;
                }
            }
        }
        assert_eq!(crc ^ 0xffff_ffff, 0xcbf4_3926);
    }

    #[test]
    fn cas_instruction() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 128); // address
        b.mov_imm(1, 0); // expected
        b.mov_imm(2, 77); // new
        b.push(Inst::Cas {
            dst: 3,
            addr: 0,
            expected: 1,
            new: 2,
        });
        b.load(4, 0, 0);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(3), 1);
        assert_eq!(core.regs.int(4), 77);
    }

    #[test]
    fn tx_commit_publishes() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 256);
        b.mov_imm(1, 5);
        b.push(Inst::TxBegin);
        b.store(1, 0, 0);
        b.push(Inst::TxCommit { dst: 2 });
        b.load(3, 0, 0);
        let (core, _) = run_one(&b.build());
        assert_eq!(core.regs.int(2), 1, "commit succeeds");
        assert_eq!(core.regs.int(3), 5);
    }

    #[test]
    fn halt_is_sticky() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        let prog = b.build();
        let mut core = Core::new(0);
        let mut mem = MemSystem::new(1, 4096);
        let mut hook = NoFaults;
        let mut usage = UsageCounters::new(1);
        let mut events = Vec::new();
        for _ in 0..10 {
            core.step(&prog, &mut mem, &mut hook, &mut usage, &mut events);
        }
        assert!(core.halted());
        let cost = core.step(&prog, &mut mem, &mut hook, &mut usage, &mut events);
        assert_eq!(cost.cycles, 0);
    }

    #[test]
    fn usage_counters_track_classes() {
        let mut b = ProgramBuilder::new();
        b.fmov_imm(0, 1.0);
        b.fop(FOpKind::Add, Precision::F64, 1, 0, 0);
        b.fop(FOpKind::Add, Precision::F64, 1, 1, 0);
        let prog = b.build();
        let mut core = Core::new(0);
        let mut mem = MemSystem::new(1, 4096);
        let mut hook = NoFaults;
        let mut usage = UsageCounters::new(1);
        let mut events = Vec::new();
        while !core.halted() {
            core.step(&prog, &mut mem, &mut hook, &mut usage, &mut events);
        }
        assert_eq!(usage.count(0, InstClass::FloatAdd), 2);
        assert!(usage.count(0, InstClass::Control) >= 2);
    }

    /// A flat loop of `count` iterations over `body`, entered once at the
    /// top level and twice inside an outer loop, between core-local
    /// register ops and a store that ends every local run.
    fn filler_program(count: u32, body: &[Inst]) -> Program {
        let mut b = ProgramBuilder::new();
        let filler = |b: &mut ProgramBuilder| {
            b.loop_start(count);
            for &inst in body {
                b.push(inst);
            }
            b.loop_end();
        };
        b.mov_imm(1, 64);
        filler(&mut b);
        b.loop_start(2);
        b.add_imm(2, 2, 1);
        filler(&mut b);
        b.store(2, 1, 0);
        b.loop_end();
        b.mov_imm(3, 1);
        b.build()
    }

    /// The closed-form jump must leave exactly the state the per-op path
    /// leaves: from every pc a real run visits (a sample of them for the
    /// long loop), for every bank length up to the local run's end (the
    /// first and last few and the middle ones for long runs), for loop
    /// counts 0–5 and a large one, and for empty, one-op and three-op
    /// `Pause` bodies and a body that writes a register (never jumped).
    #[test]
    fn closed_form_matches_per_op_path() {
        let add = Inst::AddImm {
            dst: 2,
            src: 2,
            imm: 1,
        };
        let bodies: [&[Inst]; 4] = [&[], &[Inst::Pause], &[Inst::Pause; 3], &[Inst::Pause, add]];
        let mut jumpable = 0;
        for count in (0..=5).chain([1_000]) {
            for body in bodies {
                let prog = DecodedProgram::decode(&filler_program(count, body));
                let mut core = Core::new(0);
                let mut mem = MemSystem::new(1, 4096);
                let mut usage = UsageCounters::new(1);
                let mut trace = Vec::new();
                while !core.halted() {
                    trace.push(core.clone());
                    core.step_decoded(&prog, &mut mem, &mut NoFaults, &mut usage, &mut Vec::new());
                }
                let sampled = trace.len() < 500;
                for (i, start) in trace.iter().enumerate() {
                    if !sampled && i % 61 >= 3 {
                        continue;
                    }
                    let run = prog.local_run(start.pc, &mut start.loop_stack.clone(), u64::MAX);
                    let lengths: Vec<u64> = if run <= 64 {
                        (0..=run).collect()
                    } else {
                        (0..=8)
                            .chain(run / 2 - 2..=run / 2 + 2)
                            .chain(run - 8..=run)
                            .collect()
                    };
                    for n in lengths {
                        let run_with = |closed: bool| {
                            let mut core = start.clone();
                            let mut usage = UsageCounters::new(1);
                            let (mut cycles, mut energy) = (7u64, 0.1f64);
                            if closed {
                                core.exec_local_run(&prog, n, &mut usage, &mut cycles, &mut energy);
                            } else {
                                for _ in 0..n {
                                    let op = prog.op(core.pc).expect("in program");
                                    usage.record(0, op.class);
                                    core.exec_local(op.inst, op.skip_to as usize);
                                    cycles += op.cycles;
                                    energy += op.energy;
                                }
                            }
                            let regs: Vec<u64> = (0..4).map(|r| core.regs.int(r)).collect();
                            let counts: Vec<u64> =
                                InstClass::ALL.iter().map(|&c| usage.count(0, c)).collect();
                            (
                                core.pc,
                                core.loop_stack,
                                regs,
                                counts,
                                cycles,
                                energy.to_bits(),
                            )
                        };
                        let label = format!("count {count} body {body:?} step {i} n {n}");
                        assert_eq!(run_with(true), run_with(false), "{label}");
                        let op = prog.op(start.pc).expect("in program");
                        let iteration = body.len() as u64 + 1;
                        if op.closed_iter != NO_CLOSED_FORM
                            && start.loop_stack.last().is_some_and(|top| top.1 > 1)
                            && n >= iteration
                        {
                            jumpable += 1;
                        }
                    }
                }
            }
        }
        assert!(
            jumpable > 1_000,
            "too few banks reach a closed-form jump ({jumpable})"
        );
    }

    #[test]
    fn step_decoded_matches_step() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 3);
        b.mov_imm(1, 5);
        b.loop_start(100);
        b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
        b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
        b.loop_end();
        let prog = b.build();
        let decoded = DecodedProgram::decode(&prog);

        let (ref_core, _) = run_one(&prog);

        let mut core = Core::new(0);
        let mut mem = MemSystem::new(1, 1 << 16);
        let mut hook = NoFaults;
        let mut usage = UsageCounters::new(1);
        let mut events = Vec::new();
        let mut total = StepCost::ZERO;
        while !core.halted() {
            let c = core.step_decoded(&decoded, &mut mem, &mut hook, &mut usage, &mut events);
            total.cycles += c.cycles;
            total.energy += c.energy;
        }
        assert_eq!(core.regs.int(0), ref_core.regs.int(0));
        assert_eq!(core.regs.int(2), ref_core.regs.int(2));
        assert!(total.cycles > 0);
    }
}
