//! An independent, pure-Rust reference semantics for the softcore ISA.
//!
//! The reference machine executes the *same* [`softcore::Program`] as
//! the real [`softcore::Machine`], but shares none of its machinery: a
//! flat word-addressed memory instead of MESI-coherent L1 caches, direct
//! sequential execution instead of the cycle/energy pipeline model, and
//! independently formulated integer, CRC and hash arithmetic (nibble
//! tables and widened-arithmetic forms instead of the softcore's bitwise
//! loops and wrapping ops). Floating-point and x87 operations delegate
//! to the same IEEE semantics (`f32`/`f64` hardware ops and
//! [`softfloat::F80`]) — reimplementing IEEE-754 from scratch would test
//! the test, not the softcore; what the oracle checks there is the
//! plumbing: lane packing, widening, masking and retirement.
//!
//! Single-core only: the oracle's differential streams run one core, so
//! lock acquisition always succeeds against a free lock word and a
//! transaction can only conflict with itself (an untracked direct store
//! to an address in its own read set — which the softcore permits, and
//! the reference mirrors).

use softcore::{FOpKind, Inst, IntOpKind, LaneType, Precision, Program, VOpKind, XOpKind};
use softfloat::F80;
use std::collections::BTreeMap;

/// CRC32 nibble table for the reflected polynomial 0xEDB88320 — a
/// different formulation from the softcore's per-bit loop.
fn crc32_nibble_table() -> [u32; 16] {
    let mut table = [0u32; 16];
    for (n, slot) in table.iter_mut().enumerate() {
        let mut c = n as u32;
        for _ in 0..4 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    table
}

/// Reference CRC32 step over one little-endian u64.
pub fn ref_crc32_step(crc: u32, data: u64) -> u32 {
    let table = crc32_nibble_table();
    let mut c = crc;
    for byte in data.to_le_bytes() {
        c ^= byte as u32;
        c = table[(c & 0xf) as usize] ^ (c >> 4);
        c = table[(c & 0xf) as usize] ^ (c >> 4);
    }
    c
}

/// Reference hash mix (same constants as the softcore — they define the
/// function — but with the rotate spelled as shifts).
pub fn ref_hash_mix(acc: u64, data: u64) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let h = acc.wrapping_add(data.wrapping_mul(P1));
    // Deliberately spelled as shifts, not `rotate_left`, to stay
    // textually independent of the softcore's implementation.
    #[allow(clippy::manual_rotate)]
    let rotated = (h << 31) | (h >> 33);
    let h = rotated.wrapping_mul(P2);
    h ^ (h >> 29)
}

/// Reference integer ALU: operands pre-masked to the datatype width,
/// computed in widened `u128` arithmetic, result masked back.
fn ref_int_op(op: IntOpKind, x: u64, y: u64, width: u32, mask: u64) -> u64 {
    let xw = x as u128;
    let yw = y as u128;
    let wide_mask = mask as u128;
    let r = match op {
        IntOpKind::Add => (xw + yw) & wide_mask,
        // Two's-complement subtraction via addition of the complement.
        IntOpKind::Sub => (xw + ((!y as u128) & wide_mask) + 1) & wide_mask,
        IntOpKind::Mul => (xw * yw) & wide_mask,
        IntOpKind::Div => {
            if y == 0 {
                0
            } else {
                (xw / yw) & wide_mask
            }
        }
        IntOpKind::And => xw & yw,
        IntOpKind::Or => xw | yw,
        IntOpKind::Xor => xw ^ yw,
        IntOpKind::Shl => (xw << (y % width as u64)) & wide_mask,
        IntOpKind::Shr => (xw >> (y % width as u64)) & wide_mask,
    };
    r as u64
}

/// A pending single-core transaction.
#[derive(Debug, Default, Clone)]
struct RefTx {
    active: bool,
    /// First-read-wins read set: address → value seen.
    reads: BTreeMap<u64, u64>,
    /// Buffered writes: address → value.
    writes: BTreeMap<u64, u64>,
}

/// Architectural state of the reference machine.
#[derive(Debug, Clone)]
pub struct RefMachine {
    /// Integer registers.
    pub int: [u64; 32],
    /// Scalar float registers.
    pub float: [f64; 32],
    /// x87 extended-precision stack slots.
    pub x87: [F80; 8],
    /// Vector registers, four words each.
    pub vec: [[u64; 4]; 16],
    /// Flat word-addressed memory.
    mem: Vec<u64>,
    tx: RefTx,
    pc: usize,
    loops: Vec<(usize, u32)>,
    /// Whether the program ran to a `Halt` within the step budget.
    pub completed: bool,
    /// Retired instruction count.
    pub steps: u64,
}

impl RefMachine {
    /// A reference machine with `words` words of zeroed memory.
    pub fn new(words: usize) -> Self {
        RefMachine {
            int: [0; 32],
            float: [0.0; 32],
            x87: [F80::ZERO; 8],
            vec: [[0; 4]; 16],
            mem: vec![0; words],
            tx: RefTx::default(),
            pc: 0,
            loops: Vec::new(),
            completed: false,
            steps: 0,
        }
    }

    /// Writes a memory word before the run (mirrors the machine-side
    /// `raw_write_u64` pre-initialization).
    pub fn poke(&mut self, addr: u64, value: u64) {
        let idx = self.word(addr);
        self.mem[idx] = value;
    }

    /// Reads a memory word after the run.
    pub fn peek(&self, addr: u64) -> u64 {
        self.mem[self.word(addr)]
    }

    fn word(&self, addr: u64) -> usize {
        assert!(
            addr.is_multiple_of(8),
            "reference: unaligned access at {addr:#x}"
        );
        let idx = (addr / 8) as usize;
        assert!(idx < self.mem.len(), "reference: OOB access at {addr:#x}");
        idx
    }

    /// Transactional read: write set, then memory with first-read-wins
    /// read-set recording — only `Load`/`Store` are transactional, like
    /// the softcore.
    fn tx_read(&mut self, addr: u64) -> u64 {
        if let Some(&v) = self.tx.writes.get(&addr) {
            return v;
        }
        let v = self.mem[self.word(addr)];
        self.tx.reads.entry(addr).or_insert(v);
        v
    }

    fn read(&mut self, addr: u64) -> u64 {
        if self.tx.active {
            self.tx_read(addr)
        } else {
            self.mem[self.word(addr)]
        }
    }

    fn write(&mut self, addr: u64, value: u64) {
        if self.tx.active {
            self.word(addr); // validate even when buffered
            self.tx.writes.insert(addr, value);
        } else {
            let idx = self.word(addr);
            self.mem[idx] = value;
        }
    }

    /// Non-transactional word access (float/vector/x87 loads and stores,
    /// CAS, locks — the softcore routes none of these through the
    /// transaction).
    fn direct_read(&self, addr: u64) -> u64 {
        self.mem[self.word(addr)]
    }

    fn direct_write(&mut self, addr: u64, value: u64) {
        let idx = self.word(addr);
        self.mem[idx] = value;
    }

    fn vec_f32(&self, r: u8, lane: usize) -> f32 {
        let word = self.vec[r as usize][lane / 2];
        f32::from_bits((word >> ((lane % 2) * 32)) as u32)
    }

    fn set_vec_f32(&mut self, r: u8, lane: usize, v: f32) {
        let word = &mut self.vec[r as usize][lane / 2];
        let shift = (lane % 2) * 32;
        *word = (*word & !(0xffff_ffffu64 << shift)) | ((v.to_bits() as u64) << shift);
    }

    fn vec_i32(&self, r: u8, lane: usize) -> u32 {
        let word = self.vec[r as usize][lane / 2];
        (word >> ((lane % 2) * 32)) as u32
    }

    fn set_vec_i32(&mut self, r: u8, lane: usize, v: u32) {
        let word = &mut self.vec[r as usize][lane / 2];
        let shift = (lane % 2) * 32;
        *word = (*word & !(0xffff_ffffu64 << shift)) | ((v as u64) << shift);
    }

    fn vec_f64(&self, r: u8, lane: usize) -> f64 {
        f64::from_bits(self.vec[r as usize][lane])
    }

    fn set_vec_f64(&mut self, r: u8, lane: usize, v: f64) {
        self.vec[r as usize][lane] = v.to_bits();
    }

    fn vop(&mut self, op: VOpKind, lane: LaneType, dst: u8, a: u8, b: u8, c: u8) {
        match lane {
            LaneType::F32x8 => {
                let mut out = [0f32; 8];
                for (i, slot) in out.iter_mut().enumerate() {
                    let (xa, xb, xc) = (self.vec_f32(a, i), self.vec_f32(b, i), self.vec_f32(c, i));
                    *slot = match op {
                        VOpKind::Add => xa + xb,
                        VOpKind::Mul => xa * xb,
                        VOpKind::Fma => xa.mul_add(xb, xc),
                        VOpKind::Xor => f32::from_bits(xa.to_bits() ^ xb.to_bits()),
                    };
                }
                for (i, v) in out.into_iter().enumerate() {
                    self.set_vec_f32(dst, i, v);
                }
            }
            LaneType::F64x4 => {
                let mut out = [0f64; 4];
                for (i, slot) in out.iter_mut().enumerate() {
                    let (xa, xb, xc) = (self.vec_f64(a, i), self.vec_f64(b, i), self.vec_f64(c, i));
                    *slot = match op {
                        VOpKind::Add => xa + xb,
                        VOpKind::Mul => xa * xb,
                        VOpKind::Fma => xa.mul_add(xb, xc),
                        VOpKind::Xor => f64::from_bits(xa.to_bits() ^ xb.to_bits()),
                    };
                }
                for (i, v) in out.into_iter().enumerate() {
                    self.set_vec_f64(dst, i, v);
                }
            }
            LaneType::I32x8 => {
                let mut out = [0u32; 8];
                for (i, slot) in out.iter_mut().enumerate() {
                    let (xa, xb, xc) = (
                        self.vec_i32(a, i) as i32,
                        self.vec_i32(b, i) as i32,
                        self.vec_i32(c, i) as i32,
                    );
                    *slot = match op {
                        VOpKind::Add => xa.wrapping_add(xb),
                        VOpKind::Mul => xa.wrapping_mul(xb),
                        VOpKind::Fma => xa.wrapping_mul(xb).wrapping_add(xc),
                        VOpKind::Xor => xa ^ xb,
                    } as u32;
                }
                for (i, v) in out.into_iter().enumerate() {
                    self.set_vec_i32(dst, i, v);
                }
            }
        }
    }

    /// Runs `program` until `Halt` or until `max_steps` retire.
    pub fn run(&mut self, program: &Program, max_steps: u64) {
        while self.steps < max_steps {
            if self.pc >= program.insts().len() {
                self.completed = true;
                return;
            }
            let inst = program.insts()[self.pc];
            if matches!(inst, Inst::Halt) {
                self.completed = true;
                return;
            }
            self.step(program, &inst);
            self.steps += 1;
        }
    }

    fn step(&mut self, program: &Program, inst: &Inst) {
        let mut next_pc = self.pc + 1;
        match *inst {
            Inst::MovImm { dst, imm } => self.int[dst as usize] = imm,
            Inst::Mov { dst, src } => self.int[dst as usize] = self.int[src as usize],
            Inst::AddImm { dst, src, imm } => {
                self.int[dst as usize] = self.int[src as usize].wrapping_add(imm)
            }
            Inst::IntOp { op, dt, dst, a, b } => {
                let mask = dt.mask() as u64;
                let x = self.int[a as usize] & mask;
                let y = self.int[b as usize] & mask;
                self.int[dst as usize] = ref_int_op(op, x, y, dt.bits(), mask);
            }
            Inst::FMovImm { dst, imm } => self.float[dst as usize] = imm,
            Inst::FOp {
                op,
                prec,
                dst,
                a,
                b,
            } => {
                self.float[dst as usize] = match prec {
                    Precision::F32 => {
                        let x = self.float[a as usize] as f32;
                        let y = self.float[b as usize] as f32;
                        let r = match op {
                            FOpKind::Add => x + y,
                            FOpKind::Sub => x - y,
                            FOpKind::Mul => x * y,
                            FOpKind::Div => x / y,
                        };
                        r as f64
                    }
                    Precision::F64 => {
                        let x = self.float[a as usize];
                        let y = self.float[b as usize];
                        match op {
                            FOpKind::Add => x + y,
                            FOpKind::Sub => x - y,
                            FOpKind::Mul => x * y,
                            FOpKind::Div => x / y,
                        }
                    }
                };
            }
            Inst::FFma { prec, dst, a, b, c } => {
                self.float[dst as usize] = match prec {
                    Precision::F32 => {
                        let r = (self.float[a as usize] as f32)
                            .mul_add(self.float[b as usize] as f32, self.float[c as usize] as f32);
                        r as f64
                    }
                    Precision::F64 => self.float[a as usize]
                        .mul_add(self.float[b as usize], self.float[c as usize]),
                };
            }
            Inst::FAtan { prec, dst, a } => {
                self.float[dst as usize] = match prec {
                    Precision::F32 => (self.float[a as usize] as f32).atan() as f64,
                    Precision::F64 => self.float[a as usize].atan(),
                };
            }
            Inst::XFromF { dst, src } => {
                self.x87[dst as usize] = F80::from_f64(self.float[src as usize])
            }
            Inst::XToF { dst, src } => self.float[dst as usize] = self.x87[src as usize].to_f64(),
            Inst::XOp { op, dst, a, b } => {
                let x = self.x87[a as usize];
                let y = self.x87[b as usize];
                let r = match op {
                    XOpKind::Add => x + y,
                    XOpKind::Sub => x - y,
                    XOpKind::Mul => x * y,
                    XOpKind::Div => x / y,
                };
                // The softcore retires the 80-bit encoding and decodes it
                // back into the register; encode∘decode is identity on
                // F80 values, so assigning directly is equivalent.
                self.x87[dst as usize] = r;
            }
            Inst::XAtan { dst, a } => {
                self.x87[dst as usize] = softfloat::atan(self.x87[a as usize])
            }
            Inst::VOp {
                op,
                lane,
                dst,
                a,
                b,
                c,
            } => self.vop(op, lane, dst, a, b, c),
            Inst::Crc32Step { dst, acc, data } => {
                self.int[dst as usize] =
                    ref_crc32_step(self.int[acc as usize] as u32, self.int[data as usize]) as u64;
            }
            Inst::HashMix { dst, acc, data } => {
                self.int[dst as usize] =
                    ref_hash_mix(self.int[acc as usize], self.int[data as usize]);
            }
            Inst::Load { dst, addr, offset } => {
                let a = self.int[addr as usize].wrapping_add(offset);
                self.int[dst as usize] = self.read(a);
            }
            Inst::Store { src, addr, offset } => {
                let a = self.int[addr as usize].wrapping_add(offset);
                let v = self.int[src as usize];
                self.write(a, v);
            }
            Inst::LoadF { dst, addr, offset } => {
                let a = self.int[addr as usize].wrapping_add(offset);
                self.float[dst as usize] = f64::from_bits(self.direct_read(a));
            }
            Inst::StoreF { src, addr, offset } => {
                let a = self.int[addr as usize].wrapping_add(offset);
                let v = self.float[src as usize].to_bits();
                self.direct_write(a, v);
            }
            Inst::LoadV { dst, addr, offset } => {
                let base = self.int[addr as usize].wrapping_add(offset);
                for i in 0..4 {
                    self.vec[dst as usize][i] = self.direct_read(base + 8 * i as u64);
                }
            }
            Inst::StoreV { src, addr, offset } => {
                let base = self.int[addr as usize].wrapping_add(offset);
                for i in 0..4 {
                    self.direct_write(base + 8 * i as u64, self.vec[src as usize][i]);
                }
            }
            Inst::StoreX { src, addr, offset } => {
                let base = self.int[addr as usize].wrapping_add(offset);
                let bits = self.x87[src as usize].encode();
                self.direct_write(base, bits as u64);
                self.direct_write(base + 8, (bits >> 64) as u64);
            }
            Inst::LoadX { dst, addr, offset } => {
                let base = self.int[addr as usize].wrapping_add(offset);
                let lo = self.direct_read(base) as u128;
                let hi = self.direct_read(base + 8) as u128;
                self.x87[dst as usize] = F80::decode(lo | (hi << 64));
            }
            Inst::Cas {
                dst,
                addr,
                expected,
                new,
            } => {
                let a = self.int[addr as usize];
                let ok = self.direct_read(a) == self.int[expected as usize];
                if ok {
                    let v = self.int[new as usize];
                    self.direct_write(a, v);
                }
                self.int[dst as usize] = ok as u64;
            }
            Inst::LockAcquire { addr } => {
                let a = self.int[addr as usize];
                if self.direct_read(a) == 0 {
                    self.direct_write(a, 1);
                } else {
                    next_pc = self.pc; // spin
                }
            }
            Inst::LockRelease { addr } => {
                let a = self.int[addr as usize];
                self.direct_write(a, 0);
            }
            Inst::TxBegin => {
                self.tx.active = true;
                self.tx.reads.clear();
                self.tx.writes.clear();
            }
            Inst::TxCommit { dst } => {
                let ok = if self.tx.active {
                    // Validate: every first-read value must still be in
                    // memory (a direct store inside the transaction can
                    // self-conflict, as on the softcore).
                    let valid = self
                        .tx
                        .reads
                        .iter()
                        .all(|(&a, &v)| self.mem[(a / 8) as usize] == v);
                    if valid {
                        let writes: Vec<(u64, u64)> =
                            self.tx.writes.iter().map(|(&a, &v)| (a, v)).collect();
                        for (a, v) in writes {
                            self.direct_write(a, v);
                        }
                    }
                    valid
                } else {
                    false
                };
                self.tx.active = false;
                self.tx.reads.clear();
                self.tx.writes.clear();
                self.int[dst as usize] = ok as u64;
            }
            Inst::LoopStart { count } => {
                if count == 0 {
                    next_pc = self.loop_end(program) + 1;
                } else {
                    self.loops.push((self.pc, count));
                }
            }
            Inst::LoopEnd => {
                let top = self
                    .loops
                    .last_mut()
                    .expect("reference: LoopEnd without LoopStart");
                top.1 -= 1;
                if top.1 > 0 {
                    next_pc = top.0 + 1;
                } else {
                    self.loops.pop();
                }
            }
            Inst::Pause => {}
            Inst::CmpNe { dst, a, b } => {
                self.int[dst as usize] = (self.int[a as usize] != self.int[b as usize]) as u64;
            }
            Inst::Halt => unreachable!("run() returns before stepping Halt"),
        }
        self.pc = next_pc;
    }

    /// Finds the matching `LoopEnd` of the `LoopStart` at `self.pc` by
    /// forward scan with a depth counter (independent of the softcore's
    /// precomputed `loop_end_of` table).
    fn loop_end(&self, program: &Program) -> usize {
        let insts = program.insts();
        let mut depth = 0usize;
        for (i, inst) in insts.iter().enumerate().skip(self.pc) {
            match inst {
                Inst::LoopStart { .. } => depth += 1,
                Inst::LoopEnd => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        panic!("reference: unmatched LoopStart at {}", self.pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcore::ProgramBuilder;

    #[test]
    fn reference_crc_and_hash_match_softcore() {
        // The reference formulations must agree with the softcore's on
        // arbitrary inputs — this is the one place the two arithmetic
        // styles are compared directly.
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut crc = 0xffff_ffffu32;
        let mut h = 7u64;
        for _ in 0..64 {
            assert_eq!(ref_crc32_step(crc, x), softcore::cpu::crc32_step(crc, x));
            assert_eq!(ref_hash_mix(h, x), softcore::cpu::hash_mix(h, x));
            crc = ref_crc32_step(crc, x);
            h = ref_hash_mix(h, x);
            x = x.rotate_left(13) ^ h;
        }
    }

    #[test]
    fn skipped_zero_loop_and_nested_loops_execute() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 0);
        b.loop_start(0); // skipped entirely
        b.add_imm(0, 0, 1000);
        b.loop_end();
        b.loop_start(3);
        b.loop_start(2);
        b.add_imm(0, 0, 1);
        b.loop_end();
        b.loop_end();
        let p = b.build();
        let mut m = RefMachine::new(8);
        m.run(&p, 10_000);
        assert!(m.completed);
        assert_eq!(m.int[0], 6);
    }

    #[test]
    fn tx_self_conflict_aborts() {
        // A direct (non-transactional) store to an address in the
        // transaction's own read set invalidates the commit.
        let mut b = ProgramBuilder::new();
        b.mov_imm(1, 0);
        b.fmov_imm(0, 1.5);
        b.tx_begin();
        b.load(3, 1, 0);
        b.store_f(0, 1, 0); // direct write changes word 0
        b.tx_commit(5);
        let p = b.build();
        let mut m = RefMachine::new(8);
        m.run(&p, 1000);
        assert!(m.completed);
        assert_eq!(m.int[5], 0, "self-conflicting tx must abort");
        assert_eq!(m.peek(0), 1.5f64.to_bits(), "direct store persists");
    }
}
