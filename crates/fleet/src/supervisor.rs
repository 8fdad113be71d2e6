//! Retry/backoff supervision for fault-exposed work slots.
//!
//! A slot is one unit of campaign work (one defective processor's
//! lifecycle walk, one eval test window). Under a [`FaultPlan`] a slot
//! attempt can be hit by an injected infrastructure fault, which fails
//! the attempt before its work runs; the supervisor retries with
//! exponential backoff + jitter — *accounted*, never slept, since
//! campaign time is simulated — and gives up after a bounded number of
//! attempts, marking the slot lost instead of panicking. An
//! [`ExecError`] from the work itself is permanent and loses the slot at
//! once. Because every attempt re-forks the slot's RNG from scratch, a
//! slot that eventually succeeds produces exactly the result an
//! unsupervised run would have: supervision is transparent to outcomes
//! (the property test in `crates/fleet/tests/prop.rs`).

use crate::chaos::{FaultPlan, OpFault};
use sdc_model::DetRng;
use toolchain::ExecError;

/// Why a slot attempt produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotError {
    /// An injected operational fault hit the attempt.
    Fault(OpFault),
    /// The work itself failed; the executor is deterministic, so a
    /// retry would fail the same way.
    Exec(ExecError),
}

impl SlotError {
    /// True when a later attempt can succeed: injected infrastructure
    /// faults are transient by definition (the machine comes back, the
    /// runner restarts).
    pub fn is_retryable(&self) -> bool {
        matches!(self, SlotError::Fault(_))
    }
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::Fault(fault) => write!(f, "injected fault: {fault}"),
            SlotError::Exec(e) => write!(f, "executor error: {e}"),
        }
    }
}

/// Bounded-retry policy with exponential backoff + jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per slot before it is marked lost (≥ 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in seconds.
    pub base_backoff_secs: f64,
    /// Backoff ceiling, in seconds.
    pub max_backoff_secs: f64,
    /// Jitter fraction: the accounted backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// Six attempts, 30 s base doubling to a 10 min ceiling, ±25%
    /// jitter — the shape of a fleet scanner's slot scheduler.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_secs: 30.0,
            max_backoff_secs: 600.0,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The accounted backoff after failed attempt `attempt` (0-based).
    ///
    /// Deterministic: the jitter stream is forked from `(plan seed,
    /// slot label, attempt)`, never from wall-clock or shared state.
    pub fn backoff_secs(&self, plan: &FaultPlan, label: u64, attempt: u32) -> f64 {
        let exp = (self.base_backoff_secs * 2f64.powi(attempt as i32)).min(self.max_backoff_secs);
        if self.jitter <= 0.0 {
            return exp;
        }
        let mut rng = DetRng::new(plan.seed)
            .fork_str("backoff")
            .fork(label)
            .fork(attempt as u64);
        exp * rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter)
    }
}

/// Per-slot supervision accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotReport {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Faults observed, by [`OpFault::index`].
    pub faults_by_kind: [u64; OpFault::ALL.len()],
    /// Accounted (not slept) backoff seconds.
    pub backoff_secs: f64,
    /// The error that exhausted the attempt budget, if the slot was
    /// lost.
    pub lost: Option<SlotError>,
}

impl Default for SlotReport {
    fn default() -> Self {
        SlotReport {
            attempts: 0,
            faults_by_kind: [0; OpFault::ALL.len()],
            backoff_secs: 0.0,
            lost: None,
        }
    }
}

/// The supervised result of one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome<R> {
    /// The slot's result; `None` when the slot was lost.
    pub result: Option<R>,
    /// Supervision accounting.
    pub report: SlotReport,
}

/// Runs one slot under `policy` and `plan`.
///
/// Each attempt first draws its injected fault from `plan` at `(label,
/// attempt)`; a fault fails the attempt without calling `work`, is
/// counted under its kind, accrues backoff and is retried. Otherwise
/// `work` runs; it must be a pure function — in particular it must
/// re-fork any RNG it uses from scratch, so a retried success is
/// bitwise identical to a first-attempt success. An error from `work`
/// or an exhausted attempt budget loses the slot (graceful degradation
/// — the caller gets `None` plus accounting, not a panic).
pub fn run_slot<R>(
    policy: &RetryPolicy,
    plan: &FaultPlan,
    label: u64,
    mut work: impl FnMut() -> Result<R, SlotError>,
) -> SlotOutcome<R> {
    assert!(policy.max_attempts >= 1, "retry policy with zero attempts");
    let mut report = SlotReport::default();
    for index in 0..policy.max_attempts {
        report.attempts += 1;
        let err = match plan.draw(label, index) {
            Some(fault) => SlotError::Fault(fault),
            None => match work() {
                Ok(result) => {
                    return SlotOutcome {
                        result: Some(result),
                        report,
                    }
                }
                Err(e) => e,
            },
        };
        if let SlotError::Fault(kind) = err {
            report.faults_by_kind[kind.index()] += 1;
        }
        if !err.is_retryable() || index + 1 == policy.max_attempts {
            report.lost = Some(err);
            return SlotOutcome {
                result: None,
                report,
            };
        }
        report.backoff_secs += policy.backoff_secs(plan, label, index);
    }
    unreachable!("attempt loop returns on success, loss, or exhaustion");
}

/// Aggregated supervision accounting over a whole campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttritionStats {
    /// Slots supervised.
    pub items: u64,
    /// Slots that produced a result.
    pub completed: u64,
    /// Slots lost after exhausting retries (or a permanent error).
    pub lost: u64,
    /// Extra attempts beyond the first, summed over slots.
    pub retries: u64,
    /// Faults observed, by [`OpFault::index`].
    pub faults_by_kind: [u64; OpFault::ALL.len()],
    /// Accounted backoff seconds, summed over slots.
    pub backoff_secs: f64,
}

impl Default for AttritionStats {
    fn default() -> Self {
        AttritionStats {
            items: 0,
            completed: 0,
            lost: 0,
            retries: 0,
            faults_by_kind: [0; OpFault::ALL.len()],
            backoff_secs: 0.0,
        }
    }
}

impl AttritionStats {
    /// Folds one slot's accounting in.
    pub fn record(&mut self, completed: bool, report: &SlotReport) {
        self.record_counts(
            completed,
            report.attempts,
            &report.faults_by_kind,
            report.backoff_secs,
        );
    }

    /// Folds one slot's counters in: its attempts, its faults by
    /// [`OpFault::index`] and its backoff seconds (what a checkpoint
    /// persists of a [`SlotReport`]).
    pub(crate) fn record_counts(
        &mut self,
        completed: bool,
        attempts: u32,
        faults_by_kind: &[u64],
        backoff_secs: f64,
    ) {
        self.items += 1;
        if completed {
            self.completed += 1;
        } else {
            self.lost += 1;
        }
        self.retries += (attempts.saturating_sub(1)) as u64;
        for (acc, n) in self.faults_by_kind.iter_mut().zip(faults_by_kind) {
            *acc += n;
        }
        self.backoff_secs += backoff_secs;
    }

    /// Folds another aggregate in (e.g. per-row stats into a run-wide
    /// total).
    pub fn merge(&mut self, other: &AttritionStats) {
        self.items += other.items;
        self.completed += other.completed;
        self.lost += other.lost;
        self.retries += other.retries;
        for (acc, n) in self.faults_by_kind.iter_mut().zip(other.faults_by_kind) {
            *acc += n;
        }
        self.backoff_secs += other.backoff_secs;
    }

    /// Fraction of slots that completed (1.0 for an empty campaign).
    pub fn coverage(&self) -> f64 {
        if self.items == 0 {
            1.0
        } else {
            self.completed as f64 / self.items as f64
        }
    }

    /// Total faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults_by_kind.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        FaultPlan {
            seed: 7,
            offline: 0.05,
            crash: 0.03,
            preempt: 0.10,
            read_error: 0.04,
            timeout: 0.02,
        }
    }

    #[test]
    fn quiet_plan_is_single_attempt_passthrough() {
        let plan = FaultPlan::default();
        let mut calls = 0;
        let out = run_slot(&RetryPolicy::default(), &plan, 1, || {
            calls += 1;
            Ok::<_, SlotError>(42u32)
        });
        assert_eq!(calls, 1);
        assert_eq!(out.result, Some(42));
        assert_eq!(out.report.attempts, 1);
        assert_eq!(out.report.backoff_secs, 0.0);
        assert!(out.report.lost.is_none());
    }

    #[test]
    fn faulted_attempts_retry_and_account_backoff() {
        let plan = storm();
        // Find a slot whose first attempt is faulted but which succeeds
        // within the budget.
        let policy = RetryPolicy::default();
        let label = (0..5000u64)
            .find(|&l| plan.draw(l, 0).is_some() && plan.draw(l, 1).is_none())
            .expect("a fault-then-clear slot exists");
        let mut calls = 0;
        let out = run_slot(&policy, &plan, label, || {
            calls += 1;
            Ok::<_, SlotError>(7u32)
        });
        assert_eq!(calls, 1, "the faulted attempt never reaches the work");
        assert_eq!(out.result, Some(7));
        assert_eq!(out.report.attempts, 2);
        assert_eq!(
            out.report.backoff_secs,
            policy.backoff_secs(&plan, label, 0)
        );
        assert_eq!(out.report.faults_by_kind.iter().sum::<u64>(), 1);
    }

    #[test]
    fn work_runs_once_per_unfaulted_attempt() {
        let plan = storm();
        let policy = RetryPolicy::default();
        let (mut retried, mut lost) = (0, 0);
        for label in 0..2000u64 {
            // Work that fails permanently on its first call, so every
            // slot exercises both a fault-free attempt and the loss path.
            for fail in [false, true] {
                let mut calls = 0u32;
                let out = run_slot(&policy, &plan, label, || {
                    calls += 1;
                    if fail {
                        Err(SlotError::Exec(ExecError::NoCores))
                    } else {
                        Ok(label)
                    }
                });
                let clean = (0..out.report.attempts)
                    .filter(|&a| plan.draw(label, a).is_none())
                    .count() as u32;
                assert_eq!(calls, clean, "label {label}, fail {fail}");
                assert!(calls <= 1, "the first clean attempt ends the slot");
                assert_eq!(
                    out.report.faults_by_kind.iter().sum::<u64>(),
                    (out.report.attempts - calls) as u64
                );
                assert_eq!(out.result.is_some(), !fail && calls == 1);
                retried += u32::from(out.report.attempts > 1);
                lost += u32::from(out.result.is_none() && calls == 0);
            }
        }
        assert!(retried > 0 && lost > 0, "storm too weak: {retried} {lost}");
    }

    #[test]
    fn profile_read_faults_count_and_retry_like_preemption() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let only = |read_error, preempt| FaultPlan {
            seed: 4,
            read_error,
            preempt,
            ..FaultPlan::default()
        };
        let run = |plan: &FaultPlan, label| {
            let mut calls = 0;
            let out = run_slot(&policy, plan, label, || {
                calls += 1;
                Ok::<_, SlotError>(())
            });
            (out, calls)
        };
        // Every attempt faulted: both kinds exhaust the same budget with
        // the same backoff, each counted under its own kind.
        let (read, read_calls) = run(&only(1.0, 0.0), 9);
        let (pre, pre_calls) = run(&only(0.0, 1.0), 9);
        assert_eq!((read_calls, pre_calls), (0, 0));
        assert_eq!(read.report.attempts, 3);
        assert_eq!(read.report.attempts, pre.report.attempts);
        assert_eq!(read.report.backoff_secs, pre.report.backoff_secs);
        assert_eq!(read.report.faults_by_kind, [0, 0, 0, 3, 0]);
        assert_eq!(pre.report.faults_by_kind, [0, 0, 3, 0, 0]);
        assert_eq!(
            read.report.lost,
            Some(SlotError::Fault(OpFault::ProfileRead))
        );
        // A read error then a clean attempt: retried, then the work runs.
        let plan = only(0.5, 0.0);
        let label = (0..5000u64)
            .find(|&l| plan.draw(l, 0) == Some(OpFault::ProfileRead) && plan.draw(l, 1).is_none())
            .expect("a read-error-then-clear slot exists");
        let (out, calls) = run(&plan, label);
        assert_eq!(calls, 1);
        assert_eq!(out.result, Some(()));
        assert_eq!(out.report.attempts, 2);
        assert_eq!(out.report.faults_by_kind[OpFault::ProfileRead.index()], 1);
    }

    #[test]
    fn exhausted_budget_loses_the_slot() {
        let plan = FaultPlan {
            seed: 1,
            preempt: 1.0,
            ..FaultPlan::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let out = run_slot(&policy, &plan, 9, || -> Result<u32, SlotError> {
            panic!("every attempt is faulted; the work never runs")
        });
        assert_eq!(out.result, None);
        assert_eq!(out.report.attempts, 3);
        assert_eq!(out.report.lost, Some(SlotError::Fault(OpFault::Preempted)));
        assert_eq!(out.report.faults_by_kind[OpFault::Preempted.index()], 3);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let plan = FaultPlan::default();
        let mut calls = 0;
        let out = run_slot(&RetryPolicy::default(), &plan, 2, || {
            calls += 1;
            Err::<u32, _>(SlotError::Exec(ExecError::NoCores))
        });
        assert_eq!(calls, 1, "permanent errors must not retry");
        assert_eq!(out.result, None);
        assert_eq!(out.report.lost, Some(SlotError::Exec(ExecError::NoCores)));
        assert_eq!(out.report.faults_by_kind.iter().sum::<u64>(), 0);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let plan = storm();
        let policy = RetryPolicy::default();
        let a = policy.backoff_secs(&plan, 5, 0);
        let b = policy.backoff_secs(&plan, 5, 0);
        assert_eq!(a, b, "jitter must come from the forked stream");
        // Jitter bounds.
        assert!(a >= policy.base_backoff_secs * 0.75 && a <= policy.base_backoff_secs * 1.25);
        // Exponential growth up to the cap.
        let far = policy.backoff_secs(&plan, 5, 20);
        assert!(far <= policy.max_backoff_secs * 1.25);
        assert!(far >= policy.max_backoff_secs * 0.75);
    }

    #[test]
    fn attrition_stats_aggregate() {
        let mut stats = AttritionStats::default();
        let mut r1 = SlotReport {
            attempts: 3,
            backoff_secs: 60.0,
            ..SlotReport::default()
        };
        r1.faults_by_kind[OpFault::Preempted.index()] = 2;
        stats.record(true, &r1);
        let r2 = SlotReport {
            attempts: 6,
            lost: Some(SlotError::Fault(OpFault::MachineOffline)),
            ..SlotReport::default()
        };
        stats.record(false, &r2);
        assert_eq!(stats.items, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.retries, 2 + 5);
        assert_eq!(stats.total_faults(), 2);
        assert!((stats.coverage() - 0.5).abs() < 1e-12);
    }
}
