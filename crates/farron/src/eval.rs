//! The Farron evaluation (§7.2): Figure 11 and Table 4.
//!
//! Per faulty processor:
//!
//! 1. **Known errors** come from an adequate reference study (long
//!    burn-in testing of every candidate testcase) — the paper's "total
//!    known errors in the faulty processor".
//! 2. The reference results seed the [`PriorityBook`] (adequate
//!    pre-production testing accumulates the suspected set, §7.1).
//! 3. One **Farron regular round** (prioritized slots, burn-in
//!    environment) and one **baseline round** (equal 60 s slots, no
//!    burn-in) each measure coverage = detected / known (Figure 11).
//! 4. Overheads (Table 4): testing = round duration over the three-month
//!    cadence; control = the online simulation's backoff fraction.

use crate::baseline::Baseline;
use crate::online::{simulate_online, AppProfile, OnlineConfig};
use crate::priority::PriorityBook;
use crate::requeue::{round_label, run_plan_requeue};
use crate::schedule::FarronScheduler;
use analysis::study::{run_case_cached, StudyConfig};
use fleet::chaos::FaultPlan;
use fleet::checkpoint::{
    run_checkpointed, Checkpoint, CheckpointError, CheckpointStore, Fingerprint, ResumableRun,
};
use fleet::screening::SuiteProfileCache;
use fleet::supervisor::{AttritionStats, RetryPolicy};
use sdc_model::{DetRng, Duration, Feature, TestcaseId};
use silicon::catalog;
use std::sync::Arc;
use toolchain::{framework, ExecConfig, ProfileCache, Suite, TestPlan};

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Reference ("adequate") per-testcase duration.
    pub reference_per_testcase: Duration,
    /// Seed.
    pub seed: u64,
    /// Online simulation length for control overhead.
    pub online_duration: Duration,
    /// Independent regular rounds averaged into each coverage figure.
    pub rounds: usize,
    /// Worker threads across evaluated processors (`0` = available
    /// parallelism). Each processor's randomness is forked from its name,
    /// so rows are identical for every value.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            reference_per_testcase: Duration::from_mins(10),
            seed: 711,
            online_duration: Duration::from_hours(6),
            rounds: 4,
            threads: 0,
        }
    }
}

/// One Figure 11 / Table 4 row.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Processor name.
    pub name: &'static str,
    /// Known errors (failing testcases in the reference study).
    pub known_errors: usize,
    /// Farron one-round coverage (Figure 11).
    pub farron_coverage: f64,
    /// Baseline one-round coverage (Figure 11).
    pub baseline_coverage: f64,
    /// Farron round duration, hours (paper average: 1.02 h).
    pub farron_round_hours: f64,
    /// Baseline round duration, hours (paper: 10.55 h).
    pub baseline_round_hours: f64,
    /// Farron testing overhead (Table 4 "Test").
    pub farron_test_overhead: f64,
    /// Farron temperature-control overhead (Table 4 "Control").
    pub farron_control_overhead: f64,
    /// Baseline testing overhead (Table 4 baseline column, 0.488%).
    pub baseline_test_overhead: f64,
    /// Backoff seconds per hour in the online simulation.
    pub backoff_secs_per_hour: f64,
    /// Online SDC events under Farron protection (paper: none).
    pub protected_sdc_events: u64,
}

/// The six processors of Figure 11 / Table 4.
pub const EVAL_NAMES: [&str; 6] = ["MIX1", "SIMD1", "FPU1", "FPU2", "CNST1", "CNST2"];

/// The burn-in environment of Farron's regular tests: every core busy,
/// package preheated ("Farron initiates the testing by running burn-in
/// workloads and tests every core in a processor simultaneously").
fn burn_in_exec() -> ExecConfig {
    ExecConfig {
        preheat_c: Some(58.0),
        stress_idle_cores: true,
        ..ExecConfig::default()
    }
}

/// Shared per-evaluation context: the suite, both schedulers, and the
/// caller's result-transparent profile caches.
struct EvalCtx<'a> {
    suite: Suite,
    baseline: Baseline,
    scheduler: FarronScheduler,
    suite_cache: &'a SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
}

impl EvalCtx<'_> {
    fn new(suite_cache: &SuiteProfileCache, unit_cache: Arc<ProfileCache>) -> EvalCtx<'_> {
        EvalCtx {
            suite: Suite::standard(),
            baseline: Baseline::default(),
            scheduler: FarronScheduler::default(),
            suite_cache,
            unit_cache,
        }
    }
}

/// Which plan runner the regular rounds of one evaluation row use.
#[derive(Clone, Copy)]
enum RoundMode<'a> {
    /// In-order execution of every window on one sequential stream
    /// ([`framework::run_plan_cached`]) — the seed-pinned Figure 11
    /// path; its numbers must never change.
    Plain,
    /// Chaos-exposed execution: each window is a supervised slot with
    /// its own stream, and faulted windows are retried
    /// ([`run_plan_requeue`]).
    Chaos {
        plan: &'a FaultPlan,
        policy: &'a RetryPolicy,
    },
}

/// Evaluates one processor row. Pure in `(cfg, name, mode)`: randomness
/// is forked from the name, caches only memoize pure functions.
fn eval_row(
    cfg: &EvalConfig,
    name: &'static str,
    mode: RoundMode<'_>,
    ctx: &EvalCtx<'_>,
) -> (EvalRow, AttritionStats) {
    let suite = &ctx.suite;
    let case = catalog::by_name(name).expect("catalog name");
    let processor = &case.processor;
    let n_cores = processor.physical_cores as usize;
    let profiles = ctx.suite_cache.get_or_build(suite, n_cores, cfg.threads);

    // 1. Adequate reference study → known errors.
    let reference = run_case_cached(
        &case,
        suite,
        &profiles,
        &StudyConfig {
            per_testcase: cfg.reference_per_testcase,
            seed: cfg.seed,
            max_candidates: None,
            exec: burn_in_exec(),
            threads: 1,
        },
        Some(Arc::clone(&ctx.unit_cache)),
    );
    let known: Vec<TestcaseId> = reference.failing.clone();

    // 2. Seed priorities from the adequate testing.
    let mut book = PriorityBook::new();
    for &id in &known {
        book.record_processor_detection(processor.id.0, id);
    }
    // The protected application engages the implicated features.
    let app_features: Vec<Feature> = {
        let mut v: Vec<Feature> = known.iter().map(|&id| suite.get(id).feature).collect();
        v.sort();
        v.dedup();
        if v.is_empty() {
            vec![Feature::Alu]
        } else {
            v
        }
    };

    // 3. Regular rounds, averaged: Farron (prioritized + burn-in)
    // vs. baseline (equal slots, no burn-in).
    let boundary_c = 58.0;
    let farron_plan = ctx
        .scheduler
        .plan(suite, &book, processor.id, &app_features, boundary_c);
    let baseline_plan = ctx.baseline.plan(suite);
    let known_n = known.len().max(1);
    let mut attrition = AttritionStats::default();
    // One regular round of `plan` from the stream `root`, returning its
    // coverage; `stream` tells the Farron and baseline rounds apart in
    // the fault plan.
    let mut run_round = |plan: &TestPlan, exec, mut root: DetRng, round, stream| {
        let cache = Arc::clone(&ctx.unit_cache);
        let report = match mode {
            RoundMode::Plain => {
                framework::run_plan_cached(processor, suite, plan, exec, &mut root, Some(cache))
            }
            RoundMode::Chaos {
                plan: chaos,
                policy,
            } => {
                let label = round_label(name, round, stream);
                let out = run_plan_requeue(
                    processor, suite, plan, exec, &root, cache, label, chaos, policy,
                );
                attrition.merge(&out.attrition);
                out.report
            }
        };
        report
            .failing_testcases()
            .iter()
            .filter(|t| known.contains(t))
            .count() as f64
            / known_n as f64
    };
    let (mut farron_cov_sum, mut baseline_cov_sum) = (0.0, 0.0);
    for round in 0..cfg.rounds.max(1) as u64 {
        let root = DetRng::new(cfg.seed + round).fork_str(name);
        farron_cov_sum += run_round(&farron_plan, burn_in_exec(), root, round, 0);
        let root = DetRng::new(cfg.seed ^ 0xb ^ round).fork_str(name);
        baseline_cov_sum += run_round(&baseline_plan, ExecConfig::default(), root, round, 1);
    }
    let rounds = cfg.rounds.max(1) as f64;

    // 4. Online control overhead: the impacted workload simulated with
    // the toolchain (§7.2) at production-like utilization; among the
    // known failing testcases pick the coolest profile (applications
    // are diluted relative to instruction loops).
    let app_testcase = known
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let pa = profiles.get(a.0 as usize).power;
            let pb = profiles.get(b.0 as usize).power;
            pa.partial_cmp(&pb).expect("finite power")
        })
        .unwrap_or(TestcaseId(0));
    // Run the hottest impacted workload at moderate utilization so the
    // die sits near the learned boundary; occasional request storms
    // (spikes) push past it and trigger the rare backoffs of Table 4.
    let app = AppProfile {
        testcase: app_testcase,
        utilization: 0.25,
        burst_amplitude: 0.12,
        burst_period: Duration::from_secs(120),
        spike_prob: 0.002,
    };
    let cores: Vec<u16> = (0..processor.physical_cores).collect();
    let mut rng_o = DetRng::new(cfg.seed).fork_str(name);
    let online = simulate_online(
        processor,
        suite,
        &app,
        &cores,
        &OnlineConfig {
            duration: cfg.online_duration,
            ..OnlineConfig::default()
        },
        &mut rng_o,
    );

    let cadence_secs = ctx.baseline.cadence.as_secs_f64();
    let row = EvalRow {
        name,
        known_errors: known.len(),
        farron_coverage: farron_cov_sum / rounds,
        baseline_coverage: baseline_cov_sum / rounds,
        farron_round_hours: farron_plan.total_duration().as_hours_f64(),
        baseline_round_hours: baseline_plan.total_duration().as_hours_f64(),
        farron_test_overhead: farron_plan.total_duration().as_secs_f64() / cadence_secs,
        farron_control_overhead: online.backoff_fraction,
        baseline_test_overhead: ctx.baseline.test_overhead(suite),
        backoff_secs_per_hour: online.backoff_secs_per_hour,
        protected_sdc_events: online.sdc_events,
    };
    (row, attrition)
}

/// Runs the full evaluation on fresh profile caches.
///
/// Processors are sharded across `cfg.threads` workers; each one's
/// randomness is forked from its name and the shared caches are
/// result-transparent, so the rows are identical for every thread count.
pub fn evaluate(cfg: &EvalConfig) -> Vec<EvalRow> {
    evaluate_with(cfg, &SuiteProfileCache::new(), ProfileCache::shared())
}

/// [`evaluate`] with caller-owned profile caches, as
/// [`analysis::study::run_deep_study_with`] is for the study: a process
/// that also runs the study, or several evaluations, shares one suite
/// cache and one unit cache so each profile is built once. Both caches
/// are result-transparent, so the rows are bitwise identical with or
/// without reuse.
pub fn evaluate_with(
    cfg: &EvalConfig,
    suite_cache: &SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
) -> Vec<EvalRow> {
    let ctx = EvalCtx::new(suite_cache, unit_cache);
    fleet::parallel::run_indexed(&EVAL_NAMES, cfg.threads, |_, &name| {
        eval_row(cfg, name, RoundMode::Plain, &ctx).0
    })
}

/// One completed evaluation row plus its attrition accounting, in a
/// serializable shape (`name` travels as a string and is mapped back to
/// the [`EVAL_NAMES`] entry on restore).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRowRecord {
    /// Processor name (must be one of [`EVAL_NAMES`]).
    pub name: String,
    /// [`EvalRow::known_errors`].
    pub known_errors: u64,
    /// [`EvalRow::farron_coverage`].
    pub farron_coverage: f64,
    /// [`EvalRow::baseline_coverage`].
    pub baseline_coverage: f64,
    /// [`EvalRow::farron_round_hours`].
    pub farron_round_hours: f64,
    /// [`EvalRow::baseline_round_hours`].
    pub baseline_round_hours: f64,
    /// [`EvalRow::farron_test_overhead`].
    pub farron_test_overhead: f64,
    /// [`EvalRow::farron_control_overhead`].
    pub farron_control_overhead: f64,
    /// [`EvalRow::baseline_test_overhead`].
    pub baseline_test_overhead: f64,
    /// [`EvalRow::backoff_secs_per_hour`].
    pub backoff_secs_per_hour: f64,
    /// [`EvalRow::protected_sdc_events`].
    pub protected_sdc_events: u64,
    /// Attrition: test windows supervised across this row's rounds.
    pub att_items: u64,
    /// Attrition: windows that completed.
    pub att_completed: u64,
    /// Attrition: windows lost after exhausting retries.
    pub att_lost: u64,
    /// Attrition: extra attempts beyond the first.
    pub att_retries: u64,
    /// Attrition: faults by [`fleet::chaos::OpFault::index`] (length 5).
    pub att_faults: Vec<u64>,
    /// Attrition: accounted backoff seconds.
    pub att_backoff_secs: f64,
}

serde::impl_json_struct!(EvalRowRecord {
    name,
    known_errors,
    farron_coverage,
    baseline_coverage,
    farron_round_hours,
    baseline_round_hours,
    farron_test_overhead,
    farron_control_overhead,
    baseline_test_overhead,
    backoff_secs_per_hour,
    protected_sdc_events,
    att_items,
    att_completed,
    att_lost,
    att_retries,
    att_faults,
    att_backoff_secs,
});

impl EvalRowRecord {
    /// Captures one completed row.
    pub fn of(row: &EvalRow, attrition: &AttritionStats) -> EvalRowRecord {
        EvalRowRecord {
            name: row.name.to_string(),
            known_errors: row.known_errors as u64,
            farron_coverage: row.farron_coverage,
            baseline_coverage: row.baseline_coverage,
            farron_round_hours: row.farron_round_hours,
            baseline_round_hours: row.baseline_round_hours,
            farron_test_overhead: row.farron_test_overhead,
            farron_control_overhead: row.farron_control_overhead,
            baseline_test_overhead: row.baseline_test_overhead,
            backoff_secs_per_hour: row.backoff_secs_per_hour,
            protected_sdc_events: row.protected_sdc_events,
            att_items: attrition.items,
            att_completed: attrition.completed,
            att_lost: attrition.lost,
            att_retries: attrition.retries,
            att_faults: attrition.faults_by_kind.to_vec(),
            att_backoff_secs: attrition.backoff_secs,
        }
    }

    /// Restores the row; `None` when the stored name is not an
    /// evaluation processor.
    pub fn to_row(&self) -> Option<EvalRow> {
        let name = *EVAL_NAMES.iter().find(|&&n| n == self.name)?;
        Some(EvalRow {
            name,
            known_errors: self.known_errors as usize,
            farron_coverage: self.farron_coverage,
            baseline_coverage: self.baseline_coverage,
            farron_round_hours: self.farron_round_hours,
            baseline_round_hours: self.baseline_round_hours,
            farron_test_overhead: self.farron_test_overhead,
            farron_control_overhead: self.farron_control_overhead,
            baseline_test_overhead: self.baseline_test_overhead,
            backoff_secs_per_hour: self.backoff_secs_per_hour,
            protected_sdc_events: self.protected_sdc_events,
        })
    }

    /// Restores the row's attrition accounting.
    pub fn attrition(&self) -> AttritionStats {
        let mut stats = AttritionStats {
            items: self.att_items,
            completed: self.att_completed,
            lost: self.att_lost,
            retries: self.att_retries,
            backoff_secs: self.att_backoff_secs,
            ..AttritionStats::default()
        };
        for (acc, &n) in stats.faults_by_kind.iter_mut().zip(self.att_faults.iter()) {
            *acc = n;
        }
        stats
    }
}

/// Identity of a chaos evaluation for checkpoint validation: seed,
/// round count (in the fingerprint's capacity seat — the evaluation has
/// no fleet), and the canonical fault-plan spec.
pub fn eval_fingerprint(cfg: &EvalConfig, plan: &FaultPlan) -> Fingerprint {
    Fingerprint {
        seed: cfg.seed,
        total_cpus: cfg.rounds as u64,
        plan: plan.spec(),
    }
}

/// Runs the evaluation on the caller's profile caches (see
/// [`evaluate_with`]) with every regular round exposed to `plan`:
/// interrupted test windows are retried ([`run_plan_requeue`]), lost
/// windows are dropped from coverage, and the aggregated attrition is
/// returned alongside the rows (in [`EVAL_NAMES`] order).
///
/// Rows are checkpointed like campaign slots ([`run_checkpointed`]):
/// rows in `resume` (a snapshot the caller loaded against
/// [`eval_fingerprint`]) are restored instead of re-evaluated, so
/// interrupt-plus-resume returns exactly what an uninterrupted run
/// would; a restored row whose name is not in [`EVAL_NAMES`] is
/// [`CheckpointError::Corrupt`]. With a `store`, a snapshot is written
/// every `store.every` rows and at the end.
///
/// Note the quiet-plan rows differ from [`evaluate`]'s: the supervised
/// path forks each window's RNG from its slot label (so a retried window
/// reproduces its fault-free run), while the plain path draws
/// sequentially. Within the chaos path, supervision is transparent — see
/// the requeue tests.
pub fn evaluate_resumable(
    cfg: &EvalConfig,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    store: Option<&CheckpointStore>,
    resume: Option<&Checkpoint<EvalRowRecord>>,
    suite_cache: &SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
) -> Result<ResumableRun<(Vec<EvalRow>, AttritionStats)>, CheckpointError> {
    let ctx = EvalCtx::new(suite_cache, unit_cache);
    let snapshot = resume
        .cloned()
        .unwrap_or_else(|| Checkpoint::empty(eval_fingerprint(cfg, plan)));
    let run = run_checkpointed(
        &EVAL_NAMES,
        cfg.threads,
        store,
        snapshot,
        |record| EVAL_NAMES.iter().position(|&n| n == record.name),
        |_, &name| {
            let (row, attrition) = eval_row(cfg, name, RoundMode::Chaos { plan, policy }, &ctx);
            EvalRowRecord::of(&row, &attrition)
        },
    )?;
    Ok(run.map(|records| {
        let mut total = AttritionStats::default();
        let rows = records
            .iter()
            .map(|record| {
                total.merge(&record.attrition());
                record
                    .to_row()
                    .expect("invariant violated: run_checkpointed placed every row by its name")
            })
            .collect();
        (rows, total)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::study::run_case;
    use fleet::screening::StaticSuiteProfile;

    /// One processor end to end (the full six run in the bench harness).
    #[test]
    fn simd1_round_beats_baseline() {
        let suite = Suite::standard();
        let case = catalog::by_name("SIMD1").unwrap();
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let reference = run_case(
            &case,
            &suite,
            &profiles,
            &StudyConfig {
                per_testcase: Duration::from_mins(10),
                seed: 5,
                max_candidates: None,
                exec: burn_in_exec(),
                threads: 1,
            },
        );
        assert!(!reference.failing.is_empty());
        let mut book = PriorityBook::new();
        for &id in &reference.failing {
            book.record_processor_detection(case.processor.id.0, id);
        }
        let plan = FarronScheduler::default().plan(
            &suite,
            &book,
            case.processor.id,
            &[Feature::VecUnit],
            58.0,
        );
        // Farron's round is far shorter than the 10.55 h baseline.
        assert!(plan.total_duration().as_hours_f64() < 3.0);
        let mut rng = DetRng::new(6);
        let report = framework::run_plan(&case.processor, &suite, &plan, burn_in_exec(), &mut rng);
        let farron_detected = report
            .failing_testcases()
            .iter()
            .filter(|t| reference.failing.contains(t))
            .count();
        let farron_coverage = farron_detected as f64 / reference.failing.len() as f64;

        let mut rng_b = DetRng::new(7);
        let baseline_report = framework::run_plan(
            &case.processor,
            &suite,
            &Baseline::default().plan(&suite),
            ExecConfig::default(),
            &mut rng_b,
        );
        let baseline_detected = baseline_report
            .failing_testcases()
            .iter()
            .filter(|t| reference.failing.contains(t))
            .count();
        let baseline_coverage = baseline_detected as f64 / reference.failing.len() as f64;
        assert!(
            farron_coverage >= baseline_coverage,
            "farron {farron_coverage} vs baseline {baseline_coverage}"
        );
        assert!(
            farron_coverage > 0.55,
            "farron one-round coverage {farron_coverage}"
        );
    }

    /// Small enough to evaluate all six processors a few times in a test.
    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            reference_per_testcase: Duration::from_mins(1),
            seed: 909,
            online_duration: Duration::from_mins(15),
            rounds: 1,
            threads: 0,
        }
    }

    fn storm() -> FaultPlan {
        FaultPlan {
            seed: 21,
            offline: 0.05,
            crash: 0.03,
            preempt: 0.10,
            read_error: 0.05,
            timeout: 0.02,
        }
    }

    /// [`evaluate_resumable`] on fresh caches.
    fn resumable(
        cfg: &EvalConfig,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        store: Option<&CheckpointStore>,
        resume: Option<&Checkpoint<EvalRowRecord>>,
    ) -> Result<ResumableRun<(Vec<EvalRow>, AttritionStats)>, CheckpointError> {
        evaluate_resumable(
            cfg,
            plan,
            policy,
            store,
            resume,
            &SuiteProfileCache::new(),
            ProfileCache::shared(),
        )
    }

    /// Unwraps a run that had no kill hook.
    fn completed(
        run: Result<ResumableRun<(Vec<EvalRow>, AttritionStats)>, CheckpointError>,
    ) -> (Vec<EvalRow>, AttritionStats) {
        match run {
            Ok(ResumableRun::Completed(result)) => result,
            other => panic!("run without a kill hook must complete, got {other:?}"),
        }
    }

    #[test]
    fn quiet_chaos_eval_loses_nothing() {
        let (rows, attrition) = completed(resumable(
            &tiny_cfg(),
            &FaultPlan::default(),
            &RetryPolicy::default(),
            None,
            None,
        ));
        assert_eq!(rows.len(), EVAL_NAMES.len());
        assert_eq!(attrition.lost, 0);
        assert_eq!(attrition.retries, 0);
        assert_eq!(attrition.total_faults(), 0);
        assert_eq!(attrition.coverage(), 1.0);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.farron_coverage), "{}", row.name);
        }
    }

    #[test]
    fn checkpointed_eval_interrupt_resume_matches_uninterrupted() {
        let cfg = tiny_cfg();
        let policy = RetryPolicy::default();
        let dir = std::env::temp_dir().join("sdc-eval-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let fingerprint = eval_fingerprint(&cfg, &storm());

        let full_store = CheckpointStore::new(dir.join("full.json"), 1);
        let (full_rows, full_att) =
            completed(resumable(&cfg, &storm(), &policy, Some(&full_store), None));
        assert_eq!(full_rows.len(), EVAL_NAMES.len());
        // The exact accounting: a change in fault counting or retry
        // order moves it. Faults are [offline, crash, preempt,
        // profile-read, timeout].
        assert_eq!(
            full_att,
            AttritionStats {
                items: 7596,
                completed: 7581,
                lost: 15,
                retries: 2784,
                faults_by_kind: [1061, 294, 878, 416, 150],
                backoff_secs: f64::from_bits(0x4104_68c9_9fec_2e17),
            }
        );

        // Kill after two new rows, then resume from the snapshot.
        let mut killer = CheckpointStore::new(dir.join("killed.json"), 1);
        killer.kill_after = Some(2);
        assert!(matches!(
            resumable(&cfg, &storm(), &policy, Some(&killer), None).unwrap(),
            ResumableRun::Interrupted
        ));
        let resume_store = CheckpointStore::new(dir.join("killed.json"), 1);
        let snapshot = Checkpoint::load(resume_store.path(), &fingerprint).unwrap();
        let (rows, attrition) = completed(resumable(
            &cfg,
            &storm(),
            &policy,
            Some(&resume_store),
            Some(&snapshot),
        ));
        assert_eq!(rows, full_rows);
        assert_eq!(attrition, full_att);

        // A snapshot never resumes the wrong evaluation.
        let mut other = cfg;
        other.seed ^= 1;
        assert!(matches!(
            Checkpoint::<EvalRowRecord>::load(
                resume_store.path(),
                &eval_fingerprint(&other, &storm())
            ),
            Err(CheckpointError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_snapshot_prefixes_and_unknown_rows_are_corrupt() {
        // A real snapshot: one thread, killed after its first row.
        let cfg = EvalConfig {
            threads: 1,
            ..tiny_cfg()
        };
        let policy = RetryPolicy::default();
        let fingerprint = eval_fingerprint(&cfg, &storm());
        let dir = std::env::temp_dir().join("sdc-eval-ck-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let mut killer = CheckpointStore::new(dir.join("ck.json"), 1);
        killer.kill_after = Some(1);
        assert!(matches!(
            resumable(&cfg, &storm(), &policy, Some(&killer), None).unwrap(),
            ResumableRun::Interrupted
        ));
        let text = std::fs::read_to_string(killer.path()).unwrap();
        let snapshot = Checkpoint::<EvalRowRecord>::load(killer.path(), &fingerprint).unwrap();
        assert_eq!(snapshot.items.len(), 1);

        // Every strict prefix is a typed Corrupt error, never Ok or a panic.
        let cut = dir.join("cut.json");
        for end in 0..text.len() {
            std::fs::write(&cut, &text[..end]).unwrap();
            match Checkpoint::<EvalRowRecord>::load(&cut, &fingerprint) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("prefix of {end}/{} bytes: {other:?}", text.len()),
            }
        }

        // A row that is not one of the evaluation processors is Corrupt.
        let mut foreign = snapshot.clone();
        foreign.items[0].name = "NOPE1".to_string();
        assert!(matches!(
            resumable(&cfg, &storm(), &policy, None, Some(&foreign)),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot exactly as [`evaluate_resumable`] writes it: the first
    /// two rows of [`tiny_cfg`] at one thread under [`storm`], killed
    /// after its second row. Both rows lost windows.
    const EVAL_SNAPSHOT: &str = concat!(
        r#"{"version":1,"fingerprint":{"seed":909,"total_cpus":1,"#,
        r#""plan":"offline=0.05,crash=0.03,preempt=0.1,read_error=0.05,timeout=0.02,seed=21"},"#,
        r#""items":[{"name":"MIX1","known_errors":30,"farron_coverage":0.8666666666666667,"#,
        r#""baseline_coverage":0.8,"farron_round_hours":1.00125,"baseline_round_hours":10.55,"#,
        r#""farron_test_overhead":0.0004635416666666667,"#,
        r#""farron_control_overhead":0.028888888888888888,"#,
        r#""baseline_test_overhead":0.004884259259259259,"backoff_secs_per_hour":104.0,"#,
        r#""protected_sdc_events":0,"att_items":1266,"att_completed":1264,"att_lost":2,"#,
        r#""att_retries":467,"att_faults":[169,63,147,64,26],"#,
        r#""att_backoff_secs":25575.5946195543},"#,
        r#"{"name":"SIMD1","known_errors":2,"farron_coverage":1.0,"baseline_coverage":1.0,"#,
        r#""farron_round_hours":0.4295833333333333,"baseline_round_hours":10.55,"#,
        r#""farron_test_overhead":0.00019888117283950617,"farron_control_overhead":0.0,"#,
        r#""baseline_test_overhead":0.004884259259259259,"backoff_secs_per_hour":0.0,"#,
        r#""protected_sdc_events":13,"att_items":1266,"att_completed":1265,"att_lost":1,"#,
        r#""att_retries":467,"att_faults":[171,49,158,70,20],"#,
        r#""att_backoff_secs":28990.591814202468}]}"#,
    );

    #[test]
    fn eval_snapshot_loads_and_rewrites_identically() {
        let dir = std::env::temp_dir().join("sdc-eval-ck-pinned");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        std::fs::write(&path, EVAL_SNAPSHOT).unwrap();
        let fingerprint = eval_fingerprint(&tiny_cfg(), &storm());
        let ck = Checkpoint::<EvalRowRecord>::load(&path, &fingerprint).unwrap();
        let rows: Vec<EvalRow> = ck.items.iter().map(|r| r.to_row().unwrap()).collect();
        assert_eq!(
            rows,
            [
                EvalRow {
                    name: "MIX1",
                    known_errors: 30,
                    farron_coverage: 0.8666666666666667,
                    baseline_coverage: 0.8,
                    farron_round_hours: 1.00125,
                    baseline_round_hours: 10.55,
                    farron_test_overhead: 0.0004635416666666667,
                    farron_control_overhead: 0.028888888888888888,
                    baseline_test_overhead: 0.004884259259259259,
                    backoff_secs_per_hour: 104.0,
                    protected_sdc_events: 0,
                },
                EvalRow {
                    name: "SIMD1",
                    known_errors: 2,
                    farron_coverage: 1.0,
                    baseline_coverage: 1.0,
                    farron_round_hours: 0.4295833333333333,
                    baseline_round_hours: 10.55,
                    farron_test_overhead: 0.00019888117283950617,
                    farron_control_overhead: 0.0,
                    baseline_test_overhead: 0.004884259259259259,
                    backoff_secs_per_hour: 0.0,
                    protected_sdc_events: 13,
                },
            ]
        );
        let attrition: Vec<AttritionStats> = ck.items.iter().map(|r| r.attrition()).collect();
        assert_eq!(
            attrition,
            [
                AttritionStats {
                    items: 1266,
                    completed: 1264,
                    lost: 2,
                    retries: 467,
                    faults_by_kind: [169, 63, 147, 64, 26],
                    backoff_secs: 25575.5946195543,
                },
                AttritionStats {
                    items: 1266,
                    completed: 1265,
                    lost: 1,
                    retries: 467,
                    faults_by_kind: [171, 49, 158, 70, 20],
                    backoff_secs: 28990.591814202468,
                },
            ]
        );
        // Same field names, same order, same number formatting.
        CheckpointStore::new(&path, 1).write(&ck).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), EVAL_SNAPSHOT);
        std::fs::remove_dir_all(&dir).ok();
    }
}
