//! Chaos-aware test rounds: interrupted windows are retried.
//!
//! Farron's regular tests run *opportunistically on production machines*
//! (§5), so a test window can be preempted by workload pressure, lose
//! its runner, or hit a transient profile-read error mid-round. This
//! module runs a [`TestPlan`] under the fleet supervisor: each window is
//! one [`run_slot`] slot, supervised in plan order. Every window gets
//! its own RNG stream forked from `(round root, slot label)` — never
//! from the sequential position in the round — and a fresh executor, so
//! a window retried after a fault produces the *identical*
//! [`toolchain::TestcaseRun`] a fault-free attempt would have, wherever
//! in the round the retry happens.

use fleet::chaos::FaultPlan;
use fleet::supervisor::{run_slot, AttritionStats, RetryPolicy, SlotError};
use sdc_model::DetRng;
use silicon::Processor;
use std::sync::Arc;
use toolchain::{ExecConfig, Executor, ProfileCache, Suite, TestPlan, TestReport};

/// The fault-plan slot label of entry `idx` in the round labelled
/// `round_label`. Golden-ratio mixing keeps labels distinct per entry
/// without colliding across rounds.
fn slot_label(round_label: u64, idx: usize) -> u64 {
    round_label ^ (idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A round label for the fault plan, derived from a processor name, a
/// round index, and a stream tag (distinct plans running in the same
/// round — Farron vs. baseline — use distinct tags). FNV-1a over the
/// name, then multiplicative mixing, so labels never collide by
/// accident across the evaluation grid.
pub fn round_label(name: &str, round: u64, stream: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// The outcome of one chaos-exposed round.
#[derive(Debug)]
pub struct RequeueReport {
    /// Completed runs, in *plan* order (lost windows omitted).
    pub report: TestReport,
    /// Plan indices of windows lost after exhausting retries.
    pub lost: Vec<usize>,
    /// Per-window supervision accounting, aggregated.
    pub attrition: AttritionStats,
}

/// Runs `plan` against `processor`, each window as one supervised
/// slot.
///
/// Faults are drawn from `chaos` per `(slot label, attempt)` by
/// [`run_slot`]; a faulted attempt is retried with accounted backoff,
/// and a window that exhausts `policy` is lost. The window runs on a
/// fresh executor with its own RNG `root.fork(slot label)`:
/// supervision is transparent to results.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_requeue(
    processor: &Processor,
    suite: &Suite,
    plan: &TestPlan,
    cfg: ExecConfig,
    root: &DetRng,
    cache: Arc<ProfileCache>,
    round_label: u64,
    chaos: &FaultPlan,
    policy: &RetryPolicy,
) -> RequeueReport {
    let cores: Vec<u16> = (0..processor.physical_cores).collect();
    let mut runs = Vec::with_capacity(plan.entries.len());
    let mut lost = Vec::new();
    let mut attrition = AttritionStats::default();
    for (idx, entry) in plan.entries.iter().enumerate() {
        let label = slot_label(round_label, idx);
        let tc = suite.get(entry.testcase);
        let slot = run_slot(policy, chaos, label, || {
            // A fresh executor per window: thermal and clock state must
            // not leak between windows.
            let mut executor = Executor::with_cache(processor, cfg, Arc::clone(&cache));
            let mut rng = root.fork(label);
            executor
                .try_run(tc, &cores, entry.duration, &mut rng)
                .map_err(SlotError::Exec)
        });
        attrition.record(slot.result.is_some(), &slot.report);
        match slot.result {
            Some(run) => runs.push(run),
            None => lost.push(idx),
        }
    }
    RequeueReport {
        report: TestReport {
            cpu: processor.id,
            runs,
        },
        lost,
        attrition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_model::{Duration, TestcaseId};
    use silicon::catalog;
    use toolchain::PlanEntry;

    fn mini_plan(_suite: &Suite) -> TestPlan {
        let picks = [0u32, 140, 300, 450, 560];
        TestPlan {
            entries: picks
                .iter()
                .map(|&i| PlanEntry {
                    testcase: TestcaseId(i),
                    duration: Duration::from_secs(20),
                })
                .collect(),
        }
    }

    fn storm() -> FaultPlan {
        FaultPlan {
            seed: 13,
            offline: 0.10,
            crash: 0.05,
            preempt: 0.15,
            read_error: 0.10,
            timeout: 0.05,
        }
    }

    #[test]
    fn quiet_round_matches_plain_per_entry_execution() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let plan = mini_plan(&suite);
        let root = DetRng::new(55);
        let out = run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &root,
            ProfileCache::shared(),
            0xabc,
            &FaultPlan::default(),
            &RetryPolicy::default(),
        );
        assert!(out.lost.is_empty());
        assert_eq!(out.report.runs.len(), plan.entries.len());
        assert_eq!(out.attrition.retries, 0);
        assert_eq!(out.attrition.coverage(), 1.0);
        // Plan order is preserved.
        for (run, entry) in out.report.runs.iter().zip(&plan.entries) {
            assert_eq!(run.testcase, entry.testcase);
        }
    }

    #[test]
    fn stormy_round_is_deterministic_and_requeues() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let plan = mini_plan(&suite);
        let root = DetRng::new(55);
        let run = || {
            run_plan_requeue(
                &simd1,
                &suite,
                &plan,
                ExecConfig::default(),
                &root,
                ProfileCache::shared(),
                0xabc,
                &storm(),
                &RetryPolicy::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.attrition, b.attrition);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.report.runs.len(), b.report.runs.len());
        for (ra, rb) in a.report.runs.iter().zip(&b.report.runs) {
            assert_eq!(ra.testcase, rb.testcase);
            assert_eq!(ra.error_count, rb.error_count);
        }
    }

    #[test]
    fn empty_plan_round_is_a_clean_noop() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let out = run_plan_requeue(
            &simd1,
            &suite,
            &TestPlan { entries: vec![] },
            ExecConfig::default(),
            &DetRng::new(55),
            ProfileCache::shared(),
            0xabc,
            &storm(),
            &RetryPolicy::default(),
        );
        assert!(out.report.runs.is_empty());
        assert!(out.lost.is_empty());
        assert_eq!(out.attrition.retries, 0);
        assert_eq!(out.attrition.total_faults(), 0);
        // An empty round covers everything it was asked to cover.
        assert_eq!(out.attrition.coverage(), 1.0);
    }

    #[test]
    fn zero_duration_window_completes_without_panicking() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let plan = TestPlan {
            entries: vec![PlanEntry {
                testcase: TestcaseId(0),
                duration: Duration::from_secs(0),
            }],
        };
        let out = run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &DetRng::new(55),
            ProfileCache::shared(),
            0xabc,
            &FaultPlan::default(),
            &RetryPolicy::default(),
        );
        assert!(out.lost.is_empty());
        assert_eq!(out.report.runs.len(), 1);
        assert!(out.report.runs[0].records.is_empty());
    }

    #[test]
    fn interruption_at_the_last_slot_is_requeued_transparently() {
        // A fault plan crafted (by seed search) to hit ONLY the round's
        // final window on its first attempt: the retried window must
        // reproduce the quiet round's run bit for bit, which an RNG or
        // executor carried across attempts or windows would not.
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let plan = mini_plan(&suite);
        let last = plan.entries.len() - 1;
        let policy = RetryPolicy::default();
        let chaos = (0..20_000u64)
            .map(|seed| FaultPlan {
                seed,
                preempt: 0.05,
                ..FaultPlan::default()
            })
            .find(|fp| {
                (0..plan.entries.len()).all(|idx| {
                    let label = slot_label(0xabc, idx);
                    (0..policy.max_attempts).all(|attempt| {
                        let faulted = fp.draw(label, attempt).is_some();
                        // Last slot faults on attempt 0 only; the rest
                        // never fault.
                        faulted == (idx == last && attempt == 0)
                    })
                })
            })
            .expect("some seed interrupts exactly the last slot");
        let root = DetRng::new(55);
        let quiet = run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &root,
            ProfileCache::shared(),
            0xabc,
            &FaultPlan::default(),
            &RetryPolicy::default(),
        );
        let stormy = run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &root,
            ProfileCache::shared(),
            0xabc,
            &chaos,
            &policy,
        );
        assert!(stormy.lost.is_empty(), "one retry wins the window back");
        assert_eq!(stormy.attrition.retries, 1);
        assert_eq!(stormy.attrition.total_faults(), 1);
        assert_eq!(stormy.report.runs.len(), quiet.report.runs.len());
        for (idx, (q, s)) in quiet
            .report
            .runs
            .iter()
            .zip(&stormy.report.runs)
            .enumerate()
        {
            assert_eq!(q.testcase, s.testcase, "window {idx}");
            assert_eq!(q.error_count, s.error_count, "window {idx}");
            assert_eq!(q.records, s.records, "window {idx}");
        }
    }

    #[test]
    fn interruption_is_transparent_to_completed_windows() {
        // The same round under a quiet plan and under a storm must agree
        // on every window the storm eventually completed.
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let plan = mini_plan(&suite);
        let root = DetRng::new(55);
        let quiet = run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &root,
            ProfileCache::shared(),
            0xabc,
            &FaultPlan::default(),
            &RetryPolicy::default(),
        );
        let stormy = run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &root,
            ProfileCache::shared(),
            0xabc,
            &storm(),
            &RetryPolicy::default(),
        );
        let mut qi = 0usize;
        for (idx, _) in plan.entries.iter().enumerate() {
            let q = &quiet.report.runs[idx];
            if stormy.lost.contains(&idx) {
                continue;
            }
            let s = &stormy.report.runs[qi];
            qi += 1;
            assert_eq!(q.testcase, s.testcase);
            assert_eq!(q.error_count, s.error_count, "window {idx}");
            assert_eq!(q.records, s.records, "window {idx}");
        }
        assert!(
            stormy.attrition.total_faults() > 0,
            "storm must actually interrupt something"
        );
    }
}
