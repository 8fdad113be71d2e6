//! The test framework: plans, execution, reports.
//!
//! "According to a user's specification, the framework selects the
//! testcases to be performed and controls their execution order, resource
//! allocation (such as CPU time and concurrency) during testing" (§2.3).
//! A [`TestPlan`] is that specification; [`run_plan`] drives it through
//! the executor and produces a [`TestReport`].

use crate::executor::{ExecConfig, Executor, TestcaseRun};
use crate::suite::Suite;
use sdc_model::{CpuId, DetRng, Duration, SdcRecord, TestcaseId};
use silicon::Processor;

/// One scheduled testcase execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEntry {
    /// Which testcase.
    pub testcase: TestcaseId,
    /// How long it runs.
    pub duration: Duration,
}

/// An ordered test schedule.
#[derive(Debug, Clone, Default)]
pub struct TestPlan {
    /// Entries, executed in order.
    pub entries: Vec<PlanEntry>,
}

impl TestPlan {
    /// The paper's baseline schedule: "all testcases are executed
    /// sequentially and allocated with equal testing resources".
    pub fn equal_allocation(suite: &Suite, total: Duration) -> TestPlan {
        let n = suite.len() as u64;
        let per = total / n.max(1);
        TestPlan {
            entries: suite
                .testcases()
                .iter()
                .map(|tc| PlanEntry {
                    testcase: tc.id,
                    duration: per,
                })
                .collect(),
        }
    }

    /// Total scheduled duration.
    pub fn total_duration(&self) -> Duration {
        self.entries
            .iter()
            .fold(Duration::ZERO, |acc, e| acc + e.duration)
    }
}

/// The outcome of running a plan against one processor.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// The processor tested.
    pub cpu: CpuId,
    /// Per-testcase results, in plan order.
    pub runs: Vec<TestcaseRun>,
}

impl TestReport {
    /// True if any testcase detected an SDC.
    pub fn detected(&self) -> bool {
        self.runs.iter().any(|r| r.detected())
    }

    /// Testcases that detected at least one SDC.
    pub fn failing_testcases(&self) -> Vec<TestcaseId> {
        let mut v: Vec<TestcaseId> = self
            .runs
            .iter()
            .filter(|r| r.detected())
            .map(|r| r.testcase)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Total SDC events across all runs.
    pub fn total_errors(&self) -> u64 {
        self.runs.iter().map(|r| r.error_count).sum()
    }

    /// All materialized records.
    pub fn all_records(&self) -> impl Iterator<Item = &SdcRecord> {
        self.runs.iter().flat_map(|r| r.records.iter())
    }

    /// Total executed duration.
    pub fn total_duration(&self) -> Duration {
        self.runs
            .iter()
            .fold(Duration::ZERO, |acc, r| acc + r.duration)
    }
}

/// Runs `plan` against `processor` on all its physical cores.
pub fn run_plan(
    processor: &Processor,
    suite: &Suite,
    plan: &TestPlan,
    cfg: ExecConfig,
    rng: &mut DetRng,
) -> TestReport {
    run_plan_cached(processor, suite, plan, cfg, rng, None)
}

/// [`run_plan`] with an optional shared unit-profile cache (`None` means
/// a fresh one); repeated rounds of the same plan then profile each
/// (testcase × shape) once. Results do not depend on the cache.
///
/// # Panics
///
/// Panics where [`Executor::run`] would: the plan's entries always fit
/// the processor's cores, so that is an invariant violation.
pub fn run_plan_cached(
    processor: &Processor,
    suite: &Suite,
    plan: &TestPlan,
    cfg: ExecConfig,
    rng: &mut DetRng,
    cache: Option<std::sync::Arc<crate::cache::ProfileCache>>,
) -> TestReport {
    let cores: Vec<u16> = (0..processor.physical_cores).collect();
    let mut executor = Executor::with_cache(processor, cfg, cache.unwrap_or_default());
    let runs = plan
        .entries
        .iter()
        .map(|entry| executor.run(suite.get(entry.testcase), &cores, entry.duration, rng))
        .collect();
    TestReport {
        cpu: processor.id,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_model::ArchId;
    use silicon::catalog;

    fn mini_suite() -> (Suite, TestPlan) {
        let suite = Suite::standard();
        // A small plan touching every feature once keeps tests fast.
        let picks = [0u32, 140, 300, 450, 560];
        let plan = TestPlan {
            entries: picks
                .iter()
                .map(|&i| PlanEntry {
                    testcase: TestcaseId(i),
                    duration: Duration::from_secs(20),
                })
                .collect(),
        };
        (suite, plan)
    }

    #[test]
    fn equal_allocation_covers_whole_suite() {
        let suite = Suite::standard();
        let plan = TestPlan::equal_allocation(&suite, Duration::from_hours(10));
        assert_eq!(plan.entries.len(), 633);
        let per = plan.entries[0].duration;
        assert!(plan.entries.iter().all(|e| e.duration == per));
        // 10h / 633 ≈ 56.87 s.
        assert!((per.as_secs_f64() - 56.87).abs() < 0.5);
    }

    #[test]
    fn healthy_processor_reports_clean() {
        let (suite, plan) = mini_suite();
        let healthy = Processor::healthy(CpuId(1000), ArchId(2), 1.0);
        let mut rng = DetRng::new(21);
        let report = run_plan(&healthy, &suite, &plan, ExecConfig::default(), &mut rng);
        assert!(!report.detected());
        assert_eq!(report.total_errors(), 0);
        assert_eq!(report.runs.len(), 5);
    }

    #[test]
    fn highly_reproducible_defect_is_detected() {
        let suite = Suite::standard();
        // SIMD1 fails f32 vector-FMA workloads at ~errors/min rates.
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        // Pick f32 matrix-kernel testcases whose paths reach the defect
        // (§4.1 selectivity).
        let plan = TestPlan {
            entries: suite
                .testcases()
                .iter()
                .filter(|t| t.name.starts_with("vec/matk/l0"))
                .filter(|t| simd1.defects.iter().any(|d| d.applies_to(t.id)))
                .take(3)
                .map(|t| PlanEntry {
                    testcase: t.id,
                    duration: Duration::from_mins(3),
                })
                .collect(),
        };
        assert!(!plan.entries.is_empty());
        let mut rng = DetRng::new(22);
        let report = run_plan(&simd1, &suite, &plan, ExecConfig::default(), &mut rng);
        assert!(report.detected(), "SIMD1 must fail f32 FMA testcases");
        for r in &report.runs {
            for rec in &r.records {
                assert_eq!(rec.datatype, sdc_model::DataType::F32);
                assert_eq!(rec.setting.cpu, simd1.id);
            }
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let plan = TestPlan {
            entries: vec![
                PlanEntry {
                    testcase: TestcaseId(0),
                    duration: Duration::from_secs(10),
                },
                PlanEntry {
                    testcase: suite.by_feature(sdc_model::Feature::VecUnit)[0],
                    duration: Duration::from_mins(2),
                },
            ],
        };
        let mut rng = DetRng::new(23);
        let report = run_plan(&simd1, &suite, &plan, ExecConfig::default(), &mut rng);
        assert_eq!(report.total_duration(), plan.total_duration());
        let failing = report.failing_testcases();
        assert_eq!(report.detected(), !failing.is_empty());
    }
}
