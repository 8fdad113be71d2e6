//! The execution substrate: a deterministic multi-core register VM.
//!
//! The paper's toolchain testcases "simulate cloud workloads … carefully
//! crafted with consideration of both software behaviors and hardware
//! features" (§2.3). To run those testcases against *simulated* defective
//! silicon, this crate provides a small but real machine:
//!
//! * a register VM with integer ALU, scalar `f32`/`f64` floating point,
//!   80-bit x87 extended precision (via the [`softfloat`] crate), 256-bit
//!   vector lanes, CRC and hash mixing instructions — each tagged with an
//!   [`InstClass`] that maps onto the paper's five vulnerable features;
//! * per-core L1 caches kept coherent by MESI over a sharer directory,
//!   whose invalidation messages a fault hook may *drop* (the
//!   cache-coherence defects of processors CNST1/MIX-class);
//! * hardware transactional memory with read/write-set conflict detection,
//!   whose commit decision a fault hook may override (CNST2's defective
//!   transactional region management);
//! * deterministic random interleaving of cores, instruction-usage counters
//!   (the equivalent of the paper's Pin-based instrumentation, §4.1), and a
//!   cycle/energy model that feeds the thermal simulator.
//!
//! Fault injection happens at instruction *retire*: the hook sees the
//! correct result bits and may replace them, exactly the level at which a
//! defective arithmetic unit corrupts architectural state.

pub mod cpu;
pub mod decode;
pub mod hooks;
pub mod inst;
pub mod machine;
pub mod mem;
pub mod program;
pub mod regs;
pub mod tx;
pub mod usage;

pub use decode::DecodedProgram;
pub use hooks::{FaultHook, NoFaults, RetireInfo};
pub use inst::{
    FOpKind, Inst, InstClass, IntOpKind, LaneType, Precision, VOpKind, XOpKind, NUM_SITES,
};
pub use machine::{CorruptionEvent, Machine, RunOutcome, VmWork};
pub use mem::MemSystem;
pub use program::{Program, ProgramBuilder};
