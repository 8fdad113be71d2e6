//! Typed errors for the fallible executor surface.
//!
//! The executor is deterministic, so these errors are permanent: the
//! same run fails the same way on every attempt. Operational faults
//! (machines offline, preemptions, profile-read errors, …) are injected
//! and retried by the fleet supervisor, not raised here; caller bugs stay
//! panics naming the violated invariant.

use sdc_model::TestcaseId;

/// Why a testcase execution could not produce a [`crate::TestcaseRun`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The caller selected no cores to run on.
    NoCores,
    /// A selected core does not exist on the package.
    CoreOutOfRange {
        /// The offending core id.
        core: u16,
        /// Physical cores on the package.
        physical_cores: u16,
    },
    /// The plan names a core count smaller than the testcase's threads.
    TooFewCores {
        /// Cores supplied.
        cores: usize,
        /// Threads the testcase needs.
        threads: usize,
    },
    /// A VM run exceeded its step budget (spin-heavy interleaving or an
    /// injected runner fault).
    StepBudget {
        /// The testcase whose run overran.
        testcase: TestcaseId,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NoCores => write!(f, "no cores selected"),
            ExecError::CoreOutOfRange {
                core,
                physical_cores,
            } => write!(f, "core {core} out of range (package has {physical_cores})"),
            ExecError::TooFewCores { cores, threads } => {
                write!(f, "{cores} cores for a {threads}-thread testcase")
            }
            ExecError::StepBudget { testcase, budget } => {
                write!(f, "testcase {} exceeded {budget} VM steps", testcase.0)
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ExecError::CoreOutOfRange {
            core: 9,
            physical_cores: 8,
        };
        assert!(e.to_string().contains("core 9"));
    }
}
