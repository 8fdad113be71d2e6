//! The instruction set and its classification.
//!
//! Every instruction carries enough typing information to (1) execute, and
//! (2) classify the result for fault matching: an [`InstClass`] that maps
//! onto the paper's five vulnerable features, and a result [`DataType`]
//! used for bit-level SDC records.

use sdc_model::{DataType, Feature};

/// Integer ALU operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOpKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields zero (no trap — a trap
    /// would be a *detected* error, not a silent one).
    Div,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `b mod width`).
    Shl,
    /// Logical shift right (by `b mod width`).
    Shr,
}

impl IntOpKind {
    /// The instruction class this operation belongs to.
    pub fn class(self) -> InstClass {
        match self {
            IntOpKind::Add | IntOpKind::Sub => InstClass::IntArith,
            IntOpKind::Mul | IntOpKind::Div => InstClass::IntMulDiv,
            IntOpKind::And | IntOpKind::Or | IntOpKind::Xor => InstClass::IntLogic,
            IntOpKind::Shl | IntOpKind::Shr => InstClass::IntShift,
        }
    }
}

/// Scalar floating-point precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
}

impl Precision {
    /// The result datatype of operations at this precision.
    pub fn datatype(self) -> DataType {
        match self {
            Precision::F32 => DataType::F32,
            Precision::F64 => DataType::F64,
        }
    }
}

/// Scalar floating-point operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FOpKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl FOpKind {
    /// The instruction class this operation belongs to.
    pub fn class(self) -> InstClass {
        match self {
            FOpKind::Add | FOpKind::Sub => InstClass::FloatAdd,
            FOpKind::Mul => InstClass::FloatMul,
            FOpKind::Div => InstClass::FloatDiv,
        }
    }
}

/// x87 extended-precision operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XOpKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Vector lane interpretation of a 256-bit register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneType {
    /// Eight `f32` lanes.
    F32x8,
    /// Four `f64` lanes.
    F64x4,
    /// Eight `i32` lanes.
    I32x8,
}

impl LaneType {
    /// Number of lanes.
    pub fn lanes(self) -> usize {
        match self {
            LaneType::F32x8 | LaneType::I32x8 => 8,
            LaneType::F64x4 => 4,
        }
    }

    /// The per-lane datatype.
    pub fn datatype(self) -> DataType {
        match self {
            LaneType::F32x8 => DataType::F32,
            LaneType::F64x4 => DataType::F64,
            LaneType::I32x8 => DataType::I32,
        }
    }
}

/// Vector operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOpKind {
    /// Lane-wise addition.
    Add,
    /// Lane-wise multiplication.
    Mul,
    /// Lane-wise fused multiply-add (`dst = a*b + c`); the SIMD1 case study
    /// reports "a vector instruction that performs multiplication and
    /// addition operations simultaneously gives wrong results".
    Fma,
    /// Lane-wise XOR (integer lanes only in practice, but defined for all).
    Xor,
}

impl VOpKind {
    /// The instruction class this operation belongs to.
    pub fn class(self, lane: LaneType) -> InstClass {
        match (self, lane) {
            (VOpKind::Fma, _) => InstClass::VecFma,
            (VOpKind::Xor, _) => InstClass::VecLogic,
            (_, LaneType::I32x8) => InstClass::VecIntArith,
            _ => InstClass::VecFloatArith,
        }
    }
}

/// One instruction of the softcore ISA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// Load an immediate into an integer register.
    MovImm {
        /// Destination integer register.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// Copy one integer register to another.
    Mov {
        /// Destination integer register.
        dst: u8,
        /// Source integer register.
        src: u8,
    },
    /// Add an immediate to an integer register (address arithmetic).
    AddImm {
        /// Destination integer register.
        dst: u8,
        /// Source integer register.
        src: u8,
        /// Immediate addend.
        imm: u64,
    },
    /// Integer ALU operation at a given datatype width.
    IntOp {
        /// Operation kind.
        op: IntOpKind,
        /// Result datatype; operands and result are masked to its width.
        dt: DataType,
        /// Destination integer register.
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
    },
    /// Load a float immediate into a float register.
    FMovImm {
        /// Destination float register.
        dst: u8,
        /// Immediate value.
        imm: f64,
    },
    /// Scalar float operation.
    FOp {
        /// Operation kind.
        op: FOpKind,
        /// Precision (f32 ops round through `f32`).
        prec: Precision,
        /// Destination float register.
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
    },
    /// Scalar fused multiply-add `dst = a*b + c`.
    FFma {
        /// Precision.
        prec: Precision,
        /// Destination float register.
        dst: u8,
        /// Multiplicand.
        a: u8,
        /// Multiplier.
        b: u8,
        /// Addend.
        c: u8,
    },
    /// Scalar arctangent (the complex math function of FPU1/FPU2).
    FAtan {
        /// Precision.
        prec: Precision,
        /// Destination float register.
        dst: u8,
        /// Operand register.
        a: u8,
    },
    /// Move a float register into an x87 extended register.
    XFromF {
        /// Destination x87 register.
        dst: u8,
        /// Source float register.
        src: u8,
    },
    /// Round an x87 extended register into a float register.
    XToF {
        /// Destination float register.
        dst: u8,
        /// Source x87 register.
        src: u8,
    },
    /// x87 extended-precision arithmetic.
    XOp {
        /// Operation kind.
        op: XOpKind,
        /// Destination x87 register.
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
    },
    /// x87 extended-precision arctangent.
    XAtan {
        /// Destination x87 register.
        dst: u8,
        /// Operand register.
        a: u8,
    },
    /// Vector operation over 256-bit registers.
    VOp {
        /// Operation kind.
        op: VOpKind,
        /// Lane interpretation.
        lane: LaneType,
        /// Destination vector register.
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
        /// Third operand register (FMA addend; ignored otherwise).
        c: u8,
    },
    /// CRC32 accumulation step over the 8 bytes of `data`.
    Crc32Step {
        /// Destination integer register (new CRC, datatype `Bin32`).
        dst: u8,
        /// Accumulator register (current CRC).
        acc: u8,
        /// Data register.
        data: u8,
    },
    /// 64-bit hash mixing step (xx-style avalanche).
    HashMix {
        /// Destination integer register (datatype `Bin64`).
        dst: u8,
        /// Accumulator register.
        acc: u8,
        /// Data register.
        data: u8,
    },
    /// Load a 64-bit word through the cache hierarchy.
    Load {
        /// Destination integer register.
        dst: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset (must keep the access 8-byte aligned).
        offset: u64,
    },
    /// Store a 64-bit word through the cache hierarchy.
    Store {
        /// Source integer register.
        src: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Load a float register (64-bit pattern) from memory.
    LoadF {
        /// Destination float register.
        dst: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Store a float register to memory.
    StoreF {
        /// Source float register.
        src: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Load a 256-bit vector register from memory (4 aligned words).
    LoadV {
        /// Destination vector register.
        dst: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Store a 256-bit vector register to memory.
    StoreV {
        /// Source vector register.
        src: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Store an x87 register's 80-bit encoding to memory (16 bytes).
    StoreX {
        /// Source x87 register.
        src: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Load an x87 register from its 80-bit encoding in memory.
    LoadX {
        /// Destination x87 register.
        dst: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset.
        offset: u64,
    },
    /// Atomic compare-and-swap of a 64-bit word; `dst` receives 1 on
    /// success, 0 on failure.
    Cas {
        /// Success flag destination.
        dst: u8,
        /// Address base register.
        addr: u8,
        /// Register holding the expected value.
        expected: u8,
        /// Register holding the replacement value.
        new: u8,
    },
    /// Spin until the word at `addr` can be CAS'd from 0 to 1.
    LockAcquire {
        /// Address base register.
        addr: u8,
    },
    /// Store 0 to the lock word at `addr`.
    LockRelease {
        /// Address base register.
        addr: u8,
    },
    /// Begin a hardware transaction.
    TxBegin,
    /// Commit the current transaction; `dst` receives 1 on commit, 0 on
    /// abort.
    TxCommit {
        /// Success flag destination.
        dst: u8,
    },
    /// Begin a counted loop body repeated `count` times (nestable).
    LoopStart {
        /// Iteration count.
        count: u32,
    },
    /// End the innermost loop body.
    LoopEnd,
    /// A long-latency, low-power no-op standing in for surrounding
    /// application code (page walks, pointer chasing, syscalls): burns 64
    /// cycles at low energy without touching architectural state.
    Pause,
    /// `dst ← (a != b)` — branch-free comparison used by testcase
    /// checkers (class `Control`, so a defective ALU cannot corrupt the
    /// check itself).
    CmpNe {
        /// Destination integer register (receives 0 or 1).
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
    },
    /// Stop this core.
    Halt,
}

/// Coarse instruction classes used for fault matching, usage counting, and
/// the cycle/energy model. Each class maps to one of the paper's five
/// vulnerable features (or to `None` for control instructions that cannot
/// silently corrupt data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstClass {
    /// Integer add/sub.
    IntArith,
    /// Integer mul/div.
    IntMulDiv,
    /// Integer and/or/xor.
    IntLogic,
    /// Integer shifts.
    IntShift,
    /// Scalar float add/sub.
    FloatAdd,
    /// Scalar float multiply.
    FloatMul,
    /// Scalar float divide.
    FloatDiv,
    /// Scalar fused multiply-add.
    FloatFma,
    /// Scalar arctangent.
    FloatAtan,
    /// x87 extended arithmetic.
    X87Arith,
    /// x87 extended arctangent.
    X87Atan,
    /// Vector integer arithmetic.
    VecIntArith,
    /// Vector float arithmetic.
    VecFloatArith,
    /// Vector fused multiply-add.
    VecFma,
    /// Vector logic.
    VecLogic,
    /// CRC accumulation.
    Crc,
    /// Hash mixing.
    Hash,
    /// Cached loads.
    Load,
    /// Cached stores.
    Store,
    /// Atomic compare-and-swap.
    Cas,
    /// Lock acquire/release.
    Lock,
    /// Transaction begin/commit.
    Tx,
    /// Register moves, loop control, halt.
    Control,
    /// Long-latency low-power filler (surrounding application code).
    Pause,
}

/// Number of distinct `(InstClass, DataType)` retire sites — the size of
/// flat per-site tables indexed by [`InstClass::site_index`].
pub const NUM_SITES: usize = InstClass::ALL.len() * DataType::ALL.len();

impl InstClass {
    /// Dense class-major index of the `(self, dt)` retire site into a
    /// [`NUM_SITES`]-entry table. Ascending index order equals ascending
    /// `(InstClass, DataType)` `Ord` order, so iterating a flat table is
    /// already sorted by site.
    #[inline]
    pub fn site_index(self, dt: DataType) -> usize {
        self as usize * DataType::ALL.len() + dt as usize
    }

    /// All classes (for exhaustive usage tables).
    pub const ALL: [InstClass; 24] = [
        InstClass::IntArith,
        InstClass::IntMulDiv,
        InstClass::IntLogic,
        InstClass::IntShift,
        InstClass::FloatAdd,
        InstClass::FloatMul,
        InstClass::FloatDiv,
        InstClass::FloatFma,
        InstClass::FloatAtan,
        InstClass::X87Arith,
        InstClass::X87Atan,
        InstClass::VecIntArith,
        InstClass::VecFloatArith,
        InstClass::VecFma,
        InstClass::VecLogic,
        InstClass::Crc,
        InstClass::Hash,
        InstClass::Load,
        InstClass::Store,
        InstClass::Cas,
        InstClass::Lock,
        InstClass::Tx,
        InstClass::Control,
        InstClass::Pause,
    ];

    /// The vulnerable feature this class exercises, if any.
    pub fn feature(self) -> Option<Feature> {
        match self {
            InstClass::IntArith
            | InstClass::IntMulDiv
            | InstClass::IntLogic
            | InstClass::IntShift
            | InstClass::Crc
            | InstClass::Hash => Some(Feature::Alu),
            InstClass::FloatAdd
            | InstClass::FloatMul
            | InstClass::FloatDiv
            | InstClass::FloatFma
            | InstClass::FloatAtan
            | InstClass::X87Arith
            | InstClass::X87Atan => Some(Feature::Fpu),
            InstClass::VecIntArith
            | InstClass::VecFloatArith
            | InstClass::VecFma
            | InstClass::VecLogic => Some(Feature::VecUnit),
            InstClass::Load | InstClass::Store | InstClass::Cas | InstClass::Lock => {
                Some(Feature::Cache)
            }
            InstClass::Tx => Some(Feature::TrxMem),
            InstClass::Control | InstClass::Pause => None,
        }
    }

    /// Nominal execution latency in cycles (drives virtual time).
    #[inline]
    pub fn cycles(self) -> u64 {
        match self {
            InstClass::Control => 1,
            InstClass::Pause => 64,
            InstClass::IntArith | InstClass::IntLogic | InstClass::IntShift => 1,
            InstClass::IntMulDiv => 4,
            InstClass::FloatAdd | InstClass::FloatMul => 4,
            InstClass::FloatDiv => 14,
            InstClass::FloatFma => 5,
            InstClass::FloatAtan | InstClass::X87Atan => 60,
            InstClass::X87Arith => 6,
            InstClass::VecIntArith | InstClass::VecLogic => 2,
            InstClass::VecFloatArith => 4,
            InstClass::VecFma => 5,
            InstClass::Crc => 3,
            InstClass::Hash => 3,
            InstClass::Load | InstClass::Store => 4,
            InstClass::Cas | InstClass::Lock => 20,
            InstClass::Tx => 30,
        }
    }

    /// Nominal energy per execution, in arbitrary units.
    ///
    /// The thermal model consumes *energy per cycle* (a power proxy), so
    /// these values are chosen relative to [`InstClass::cycles`]: heavy
    /// functional units (vector FMA, arctangent microcode) burn the most
    /// per cycle, matching the observation that stressful testcases heat
    /// the core (Observation 10).
    #[inline]
    pub fn energy(self) -> f64 {
        match self {
            InstClass::Control => 0.2,
            InstClass::Pause => 9.6, // 0.15 per cycle: cooler than compute
            InstClass::IntArith | InstClass::IntLogic | InstClass::IntShift => 0.5,
            InstClass::IntMulDiv => 3.2,
            InstClass::FloatAdd | InstClass::FloatMul => 2.8,
            InstClass::FloatDiv => 11.0,
            InstClass::FloatFma => 4.5,
            InstClass::FloatAtan | InstClass::X87Atan => 60.0,
            InstClass::X87Arith => 6.0,
            InstClass::VecIntArith | InstClass::VecLogic => 2.2,
            InstClass::VecFloatArith => 4.4,
            InstClass::VecFma => 6.5,
            InstClass::Crc => 2.4,
            InstClass::Hash => 3.0,
            InstClass::Load | InstClass::Store => 2.0,
            InstClass::Cas | InstClass::Lock => 10.0,
            InstClass::Tx => 12.0,
        }
    }
}

impl Inst {
    /// The class of this instruction.
    pub fn class(self) -> InstClass {
        match self {
            Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::AddImm { .. }
            | Inst::FMovImm { .. }
            | Inst::XFromF { .. }
            | Inst::XToF { .. }
            | Inst::LoopStart { .. }
            | Inst::LoopEnd
            | Inst::CmpNe { .. }
            | Inst::Halt => InstClass::Control,
            Inst::Pause => InstClass::Pause,
            Inst::IntOp { op, .. } => op.class(),
            Inst::FOp { op, .. } => op.class(),
            Inst::FFma { .. } => InstClass::FloatFma,
            Inst::FAtan { .. } => InstClass::FloatAtan,
            Inst::XOp { .. } => InstClass::X87Arith,
            Inst::XAtan { .. } => InstClass::X87Atan,
            Inst::VOp { op, lane, .. } => op.class(lane),
            Inst::Crc32Step { .. } => InstClass::Crc,
            Inst::HashMix { .. } => InstClass::Hash,
            Inst::Load { .. } | Inst::LoadF { .. } | Inst::LoadV { .. } | Inst::LoadX { .. } => {
                InstClass::Load
            }
            Inst::Store { .. }
            | Inst::StoreF { .. }
            | Inst::StoreV { .. }
            | Inst::StoreX { .. } => InstClass::Store,
            Inst::Cas { .. } => InstClass::Cas,
            Inst::LockAcquire { .. } | Inst::LockRelease { .. } => InstClass::Lock,
            Inst::TxBegin | Inst::TxCommit { .. } => InstClass::Tx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_feature_mapping_covers_all_five() {
        let mut feats = std::collections::HashSet::new();
        for c in InstClass::ALL {
            if let Some(f) = c.feature() {
                feats.insert(f);
            }
        }
        assert_eq!(feats.len(), 5);
    }

    #[test]
    fn control_has_no_feature() {
        assert_eq!(InstClass::Control.feature(), None);
        assert_eq!(Inst::Halt.class(), InstClass::Control);
        assert_eq!(Inst::LoopStart { count: 3 }.class(), InstClass::Control);
    }

    #[test]
    fn int_ops_classify() {
        assert_eq!(IntOpKind::Add.class(), InstClass::IntArith);
        assert_eq!(IntOpKind::Mul.class(), InstClass::IntMulDiv);
        assert_eq!(IntOpKind::Xor.class(), InstClass::IntLogic);
        assert_eq!(IntOpKind::Shl.class(), InstClass::IntShift);
    }

    #[test]
    fn vector_fma_class_is_fma_for_all_lanes() {
        for lane in [LaneType::F32x8, LaneType::F64x4, LaneType::I32x8] {
            assert_eq!(VOpKind::Fma.class(lane), InstClass::VecFma);
        }
        assert_eq!(VOpKind::Add.class(LaneType::I32x8), InstClass::VecIntArith);
        assert_eq!(
            VOpKind::Add.class(LaneType::F64x4),
            InstClass::VecFloatArith
        );
    }

    #[test]
    fn lanes_and_datatypes() {
        assert_eq!(LaneType::F32x8.lanes(), 8);
        assert_eq!(LaneType::F64x4.lanes(), 4);
        assert_eq!(LaneType::F32x8.datatype(), DataType::F32);
        assert_eq!(LaneType::I32x8.datatype(), DataType::I32);
    }

    #[test]
    fn cycles_and_energy_positive() {
        for c in InstClass::ALL {
            assert!(c.cycles() >= 1);
            assert!(c.energy() > 0.0);
        }
    }

    #[test]
    fn atan_is_expensive() {
        assert!(InstClass::X87Atan.cycles() > InstClass::X87Arith.cycles());
        assert!(InstClass::FloatAtan.energy() > InstClass::FloatAdd.energy());
    }
}
