//! The chaos-hardened campaign is deterministic end to end.
//!
//! Under a seeded fault plan, every slot's fate — including whether and
//! when faults hit it, how often it retried, and whether it was lost —
//! is a pure function of `(campaign seed, fault plan, item index)`. So
//! a stormy campaign must produce bitwise-identical partial results at
//! any thread count, and a run killed at an arbitrary item and resumed
//! from its checkpoint must be indistinguishable from one that was
//! never interrupted.

use fleet::{
    campaign_fingerprint, run_campaign_resumable, AttritionStats, Checkpoint, CheckpointStore,
    FaultPlan, FleetConfig, FleetPopulation, ItemRecord, ResumableRun, RetryPolicy,
    SupervisedCampaign,
};
use toolchain::Suite;

fn storm() -> FaultPlan {
    FaultPlan {
        seed: 7,
        offline: 0.05,
        crash: 0.02,
        preempt: 0.10,
        read_error: 0.04,
        timeout: 0.02,
    }
}

fn cfg(threads: usize) -> FleetConfig {
    FleetConfig {
        total_cpus: 120_000,
        seed: 2021,
        threads,
    }
}

fn run_plain(
    cfg: &FleetConfig,
    suite: &Suite,
    pop: &FleetPopulation,
    store: Option<&CheckpointStore>,
    resume: Option<&Checkpoint<ItemRecord>>,
) -> ResumableRun<SupervisedCampaign> {
    run_campaign_resumable(
        cfg,
        suite,
        pop,
        &storm(),
        &RetryPolicy::default(),
        store,
        resume,
    )
    .expect("checkpoint plumbing")
}

fn completed(run: ResumableRun<SupervisedCampaign>) -> SupervisedCampaign {
    match run {
        ResumableRun::Completed(run) => run,
        ResumableRun::Interrupted => panic!("run without a kill hook cannot be interrupted"),
    }
}

fn assert_same(a: &SupervisedCampaign, b: &SupervisedCampaign, what: &str) {
    assert_eq!(a.outcome.fates, b.outcome.fates, "{what}: fates");
    assert_eq!(a.outcome.table1(), b.outcome.table1(), "{what}: table1");
    assert_eq!(a.outcome.table2(), b.outcome.table2(), "{what}: table2");
    assert_eq!(a.attrition, b.attrition, "{what}: attrition");
    assert_eq!(a.lost, b.lost, "{what}: lost items");
}

/// Same seed + same fault plan ⇒ identical partial results at 1 vs 8
/// worker threads.
#[test]
fn stormy_campaign_identical_across_thread_counts() {
    let suite = Suite::standard();
    let pop = FleetPopulation::sample(&cfg(1));
    let serial = completed(run_plain(&cfg(1), &suite, &pop, None, None));
    let parallel = completed(run_plain(&cfg(8), &suite, &pop, None, None));
    assert_same(&serial, &parallel, "threads 1 vs 8");
    // The exact accounting: a change in fault counting or retry order
    // moves it. Faults are [offline, crash, preempt, profile-read,
    // timeout]; every slot is won back within its attempt budget.
    assert_eq!(
        serial.attrition,
        AttritionStats {
            items: 46,
            completed: 46,
            lost: 0,
            retries: 17,
            faults_by_kind: [4, 3, 8, 2, 0],
            backoff_secs: f64::from_bits(0x4086_154a_ecaa_b847),
        }
    );
    assert!(serial.lost.is_empty());
}

/// A storm heavy enough to lose slots, on the quick fleet: the lost
/// population indices and the accounting are pinned, and identical at
/// one and two threads.
#[test]
fn slot_losing_storm_is_pinned() {
    let plan = FaultPlan {
        seed: 13,
        offline: 0.10,
        crash: 0.05,
        preempt: 0.15,
        read_error: 0.20,
        timeout: 0.05,
    };
    let quick = |threads| FleetConfig {
        total_cpus: 200_000,
        seed: 2021,
        threads,
    };
    let suite = Suite::standard();
    let pop = FleetPopulation::sample(&quick(1));
    let run = |threads| {
        completed(
            run_campaign_resumable(
                &quick(threads),
                &suite,
                &pop,
                &plan,
                &RetryPolicy::default(),
                None,
                None,
            )
            .expect("checkpoint plumbing"),
        )
    };
    let serial = run(1);
    assert_same(&serial, &run(2), "threads 1 vs 2");
    assert_eq!(
        serial.attrition,
        AttritionStats {
            items: 71,
            completed: 68,
            lost: 3,
            retries: 75,
            faults_by_kind: [32, 8, 22, 13, 3],
            backoff_secs: f64::from_bits(0x40bc_db78_8715_1058),
        }
    );
    assert_eq!(serial.lost, [1, 63, 66]);
}

/// Kill at item k, resume from the snapshot: bitwise identical to an
/// uninterrupted run, at one and at eight threads.
#[test]
fn kill_and_resume_matches_uninterrupted() {
    let suite = Suite::standard();
    let pop = FleetPopulation::sample(&cfg(1));
    let uninterrupted = completed(run_plain(&cfg(1), &suite, &pop, None, None));
    let fingerprint = campaign_fingerprint(&cfg(1), &storm());

    let dir = std::env::temp_dir().join("sdc-chaos-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    for threads in [1usize, 8] {
        let path = dir.join(format!("ck-{threads}.json"));
        std::fs::remove_file(&path).ok();
        let mut store = CheckpointStore::new(&path, 4);
        store.kill_after = Some(15);
        assert!(matches!(
            run_plain(&cfg(threads), &suite, &pop, Some(&store), None),
            ResumableRun::Interrupted
        ));

        // The snapshot is genuinely partial: some items, not all.
        let snapshot: Checkpoint<ItemRecord> =
            Checkpoint::load(&path, &fingerprint).expect("snapshot on disk");
        assert!(!snapshot.items.is_empty(), "threads {threads}: no progress");
        assert!(
            snapshot.items.len() < pop.defective.len(),
            "threads {threads}: kill fired after the campaign finished"
        );

        let store = CheckpointStore::new(&path, 4);
        let resumed = completed(run_plain(
            &cfg(threads),
            &suite,
            &pop,
            Some(&store),
            Some(&snapshot),
        ));
        assert_same(
            &resumed,
            &uninterrupted,
            &format!("kill+resume at {threads} threads"),
        );

        // The final snapshot now covers every item; a second resume does
        // zero new work and still reports the same campaign.
        let full: Checkpoint<ItemRecord> =
            Checkpoint::load(&path, &fingerprint).expect("final snapshot");
        assert_eq!(full.items.len(), pop.defective.len());
        let replayed = completed(run_plain(&cfg(threads), &suite, &pop, None, Some(&full)));
        assert_same(&replayed, &uninterrupted, "resume from a complete snapshot");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from one campaign can never resume another.
#[test]
fn checkpoint_fingerprint_guards_resume() {
    let suite = Suite::standard();
    let pop = FleetPopulation::sample(&cfg(1));
    let dir = std::env::temp_dir().join("sdc-chaos-fingerprint");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ck.json");
    let store = CheckpointStore::new(&path, 4);
    completed(run_plain(&cfg(0), &suite, &pop, Some(&store), None));

    let mut other = cfg(0);
    other.seed ^= 1;
    let load = |fingerprint| Checkpoint::<ItemRecord>::load(&path, &fingerprint);
    assert!(load(campaign_fingerprint(&other, &storm())).is_err());
    assert!(load(campaign_fingerprint(&cfg(0), &FaultPlan::default())).is_err());
    assert!(load(campaign_fingerprint(&cfg(0), &storm())).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
