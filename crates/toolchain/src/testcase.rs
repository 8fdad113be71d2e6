//! Testcase descriptors.

use sdc_model::{DataType, Feature, TestcaseId};
use softcore::Program;

/// Workload complexity tiers (§2.3: "Some execute a specific instruction
/// within a loop. Some call functions in libraries. Some invoke
/// application logics.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// A specific instruction executed within a loop.
    InstLoop,
    /// A library-style kernel (CRC, hashing, AXPY, arctangent).
    Library,
    /// Application logic (producer/consumer, counters, metadata checks).
    AppLogic,
}

/// The concrete workload recipe of a testcase.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Integer ALU loop on one datatype.
    IntLoop {
        /// Operand/result datatype.
        dt: DataType,
        /// 0 = add/sub, 1 = mul/div, 2 = logic, 3 = shift.
        family: u8,
        /// Ops per loop iteration.
        unroll: u8,
    },
    /// Multi-word ("large integer") arithmetic on u32 limbs.
    BigInt {
        /// Number of 32-bit limbs.
        limbs: u8,
    },
    /// Byte-wise string scanning/transforming.
    StringScan {
        /// Words per iteration.
        words: u8,
    },
    /// CRC32 checksum over a buffer.
    Crc {
        /// Buffer words per iteration.
        words: u8,
    },
    /// 64-bit hash mixing over a buffer.
    Hash {
        /// Buffer words per iteration.
        words: u8,
    },
    /// Scalar float loop.
    FloatLoop {
        /// Precision (f32 or f64).
        f32_prec: bool,
        /// 0 = add/sub, 1 = mul, 2 = div, 3 = fma mix.
        family: u8,
        /// Ops per loop iteration.
        unroll: u8,
    },
    /// Scalar arctangent (math-function library).
    AtanLoop {
        /// Precision (f32 or f64).
        f32_prec: bool,
    },
    /// x87 extended-precision loop.
    X87Loop {
        /// Include the arctangent instruction.
        atan: bool,
    },
    /// Vector matrix-kernel (rows of fused multiply-adds).
    MatKernel {
        /// 0 = f32x8, 1 = f64x4, 2 = i32x8.
        lane: u8,
        /// Rows per iteration.
        rows: u8,
    },
    /// Vector AXPY over a buffer.
    Axpy {
        /// 0 = f32x8, 1 = f64x4, 2 = i32x8.
        lane: u8,
        /// Blocks per iteration.
        blocks: u8,
    },
    /// Erasure-coding-style XOR parity over vector blocks.
    VecParity {
        /// Data blocks XOR'd into one parity block.
        blocks: u8,
    },
    /// Multi-threaded lock-protected shared counter.
    LockCounter {
        /// Increments per thread per iteration.
        rounds: u8,
        /// Surrounding-code dilution level (0 = tight loop; each level
        /// adds ~4k filler cycles per iteration).
        dilution: u8,
    },
    /// Producer/consumer sharing a checksummed buffer under a lock
    /// (the CNST1 case study shape).
    ProducerConsumer {
        /// Payload words.
        words: u8,
        /// Surrounding-code dilution level.
        dilution: u8,
    },
    /// Transactional shared counter.
    TxCounter {
        /// Transactions per thread per iteration.
        rounds: u8,
        /// Surrounding-code dilution level.
        dilution: u8,
    },
}

/// One toolchain testcase.
#[derive(Debug, Clone, PartialEq)]
pub struct Testcase {
    /// Stable identity within the suite.
    pub id: TestcaseId,
    /// Human-readable name.
    pub name: String,
    /// The processor feature this testcase targets.
    pub feature: Feature,
    /// Complexity tier.
    pub kind: WorkloadKind,
    /// Number of threads (1 for computation testcases; ≥2 for consistency
    /// testcases, which "can only be detected with multi-threaded tests").
    pub threads: u8,
    /// The workload recipe.
    pub spec: WorkloadSpec,
}

/// An output region to compare against a golden run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputRegion {
    /// Byte address of element 0.
    pub addr: u64,
    /// Byte stride between elements (8, or 16 for f64x).
    pub stride: u64,
    /// Element count.
    pub count: u64,
    /// Element datatype.
    pub dt: DataType,
}

/// Consistency invariants checked after a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Invariant {
    /// The word at `addr` must equal `value`.
    Equals {
        /// Byte address.
        addr: u64,
        /// Required value.
        value: u64,
    },
    /// The word at `addr` must be zero (mismatch counters).
    Zero {
        /// Byte address.
        addr: u64,
    },
    /// The shared counter must equal the sum of per-thread success counts
    /// (transactional workloads: forced commits break this).
    CounterMatchesSuccesses {
        /// Counter byte address.
        counter: u64,
        /// Per-thread success-count byte addresses.
        success_addrs: Vec<u64>,
    },
}

/// How SDCs are detected for a testcase.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckKind {
    /// Compare output regions against a golden (fault-free) run.
    GoldenCompare,
    /// Check consistency invariants on final memory.
    Invariants(Vec<Invariant>),
}

/// A testcase instantiated for a specific machine shape.
#[derive(Debug, Clone)]
pub struct BuiltTestcase {
    /// One program per machine core (cores beyond the instance count run
    /// nothing and stay halted).
    pub programs: Vec<Option<Program>>,
    /// Initial memory words.
    pub mem_init: Vec<(u64, u64)>,
    /// Output regions for golden comparison (computation testcases).
    pub outputs: Vec<OutputRegion>,
    /// Detection method.
    pub check: CheckKind,
    /// Required memory size in bytes.
    pub mem_bytes: u64,
}

impl Testcase {
    /// True for testcases that detect consistency SDCs (multi-threaded).
    pub fn is_consistency(&self) -> bool {
        self.threads > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_iff_multithreaded() {
        let tc = Testcase {
            id: TestcaseId(0),
            name: "x".into(),
            feature: Feature::Cache,
            kind: WorkloadKind::AppLogic,
            threads: 2,
            spec: WorkloadSpec::LockCounter {
                rounds: 4,
                dilution: 0,
            },
        };
        assert!(tc.is_consistency());
        let tc2 = Testcase { threads: 1, ..tc };
        assert!(!tc2.is_consistency());
    }
}
