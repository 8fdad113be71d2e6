//! The SDC test toolchain (§2.3).
//!
//! The paper's manufacturer-provided toolchain has two parts, both
//! reproduced here:
//!
//! * **633 testcases** ([`suite`]) that "simulate cloud workloads,
//!   carefully crafted with consideration of both software behaviors and
//!   hardware features": per-feature instruction loops, library-style
//!   kernels (CRC, hashing, arctangent, AXPY, matrix kernels) and
//!   app-logic workloads (producer/consumer with checksums, lock counters,
//!   transactional counters);
//! * **a framework** ([`framework`]) that "drives these testcases and
//!   checks for the occurrence of SDCs", selecting testcases, controlling
//!   execution order and resource allocation, and collecting
//!   [`sdc_model::SdcRecord`]s.
//!
//! Execution ([`executor`]) is two-mode: a full-VM *execute* mode used to
//! validate detection end to end, and an *accelerated* mode that profiles
//! one unit of the workload in the VM and then advances a discrete-event
//! model of (defect × temperature × instruction-throughput) over the
//! requested virtual duration — the only way to observe a 0.01-errors-per-
//! minute defect over simulated weeks.
//!
//! Fleet-scale screening cannot afford either mode for every testcase of
//! every defective processor, so [`static_profile`] *walks* the built
//! programs instead, and each [`Suite`] memoizes its testcases' walks.

pub mod builders;
pub mod cache;
pub mod error;
pub mod executor;
pub mod framework;
pub mod profile;
pub mod static_profile;
pub mod suite;
pub mod testcase;

pub use cache::{CacheStats, ProfileCache, ProfileKey};
pub use error::ExecError;
pub use executor::{unit_run, ExecConfig, Executor, TestcaseRun, UnitRun, CLOCK_HZ};
pub use framework::{run_plan, run_plan_cached, PlanEntry, TestPlan, TestReport};
pub use suite::Suite;
pub use testcase::{BuiltTestcase, CheckKind, Invariant, OutputRegion, Testcase, WorkloadKind};
