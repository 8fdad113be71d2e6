//! Versioned checkpoints and supervised, resumable execution: interrupt
//! anywhere, resume exactly.
//!
//! Every campaign slot is a pure function of `(campaign seed, fault
//! plan, item index)`, and every Farron evaluation row of `(config,
//! plan, processor)`, so a checkpoint only needs the *set of completed
//! per-item records* — no RNG positions, no partial state. One
//! [`Checkpoint`] type carries either record kind. The store writes a
//! snapshot every N completions via the atomic tmp-file-then-rename
//! dance, [`Checkpoint::load`] validates a fingerprint (seed, scale,
//! fault-plan spec) so a checkpoint can never resume the wrong run, and
//! a format version guards forward evolution. [`run_checkpointed`]
//! recomputes only the missing items and merges by index; the assembled
//! outcome is bitwise identical to an uninterrupted run at any thread
//! count.

use crate::campaign::Fate;
use crate::lifecycle::Stage;
use crate::supervisor::SlotReport;
use sdc_model::ArchId;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// Identity of the campaign a checkpoint belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Campaign seed.
    pub seed: u64,
    /// Fleet size.
    pub total_cpus: u64,
    /// Canonical fault-plan spec ([`crate::chaos::FaultPlan::spec`]).
    pub plan: String,
}

serde::impl_json_struct!(Fingerprint {
    seed,
    total_cpus,
    plan,
});

/// One completed slot: everything needed to reassemble the campaign
/// outcome and its attrition stats without re-running the item.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemRecord {
    /// Population index of the defective processor.
    pub index: u64,
    /// Its architecture (raw [`ArchId`]).
    pub arch: u8,
    /// `Some(stage)` when caught, `None` when escaped or lost.
    pub stage: Option<Stage>,
    /// Regular-round index when caught at `Stage::Regular`; 0 otherwise.
    pub round: u32,
    /// True when the slot exhausted its retries and produced no fate.
    pub lost: bool,
    /// Attempts made.
    pub attempts: u32,
    /// Faults observed, by [`crate::chaos::OpFault::index`] (length 5).
    pub faults: Vec<u64>,
    /// Accounted backoff seconds.
    pub backoff_secs: f64,
}

serde::impl_json_struct!(ItemRecord {
    index,
    arch,
    stage,
    round,
    lost,
    attempts,
    faults,
    backoff_secs,
});

impl ItemRecord {
    /// Builds a record from one supervised slot.
    pub fn of(index: usize, arch: ArchId, fate: Option<Fate>, report: &SlotReport) -> ItemRecord {
        let (stage, round) = match fate {
            Some(Fate::Caught(s, r)) => (Some(s), r),
            Some(Fate::Escaped) | None => (None, 0),
        };
        ItemRecord {
            index: index as u64,
            arch: arch.0,
            stage,
            round,
            lost: fate.is_none(),
            attempts: report.attempts,
            faults: report.faults_by_kind.to_vec(),
            backoff_secs: report.backoff_secs,
        }
    }

    /// The fate this record encodes (`None` when the slot was lost).
    pub fn fate(&self) -> Option<Fate> {
        if self.lost {
            None
        } else {
            match self.stage {
                Some(s) => Some(Fate::Caught(s, self.round)),
                None => Some(Fate::Escaped),
            }
        }
    }
}

/// A versioned, fingerprinted snapshot of completed work items: campaign
/// [`ItemRecord`]s, or the Farron evaluation's row records.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<R> {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Which run this snapshot belongs to.
    pub fingerprint: Fingerprint,
    /// Completed items, in completion (not index) order.
    pub items: Vec<R>,
}

serde::impl_json_struct!(Checkpoint<R> {
    version,
    fingerprint,
    items,
});

/// Why a checkpoint could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(String),
    /// The file did not parse as a checkpoint.
    Corrupt(String),
    /// The file is a checkpoint of a different format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The checkpoint belongs to a different campaign.
    Mismatch {
        /// Fingerprint found in the file.
        found: Fingerprint,
        /// Fingerprint of the campaign being resumed.
        expected: Fingerprint,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Version { found, expected } => {
                write!(
                    f,
                    "checkpoint format v{found}, this build reads v{expected}"
                )
            }
            CheckpointError::Mismatch { found, expected } => write!(
                f,
                "checkpoint is for campaign (seed={}, cpus={}, plan={}), \
                 not (seed={}, cpus={}, plan={})",
                found.seed,
                found.total_cpus,
                found.plan,
                expected.seed,
                expected.total_cpus,
                expected.plan
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl<R> Checkpoint<R> {
    /// An empty snapshot for `fingerprint`.
    pub fn empty(fingerprint: Fingerprint) -> Checkpoint<R> {
        Checkpoint {
            version: FORMAT_VERSION,
            fingerprint,
            items: Vec::new(),
        }
    }
}

impl<R: Deserialize> Checkpoint<R> {
    /// Loads and validates a snapshot against the expected fingerprint.
    /// The version is checked first: the fingerprint fields of a foreign
    /// format may not even mean the same thing.
    pub fn load(path: &Path, expected: &Fingerprint) -> Result<Checkpoint<R>, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let ck: Checkpoint<R> =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        if ck.version != FORMAT_VERSION {
            return Err(CheckpointError::Version {
                found: ck.version,
                expected: FORMAT_VERSION,
            });
        }
        if ck.fingerprint != *expected {
            return Err(CheckpointError::Mismatch {
                found: ck.fingerprint,
                expected: expected.clone(),
            });
        }
        Ok(ck)
    }
}

/// Writes snapshots every `every` completions, atomically.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    /// Completions between snapshot writes.
    pub every: usize,
    /// Testing hook simulating SIGKILL: [`run_checkpointed`] stops
    /// claiming work after this many *new* completions, leaving the last
    /// written snapshot on disk — exactly the state a killed process
    /// would leave behind.
    pub kill_after: Option<usize>,
}

impl CheckpointStore {
    /// A store writing to `path` every `every` completions.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> CheckpointStore {
        CheckpointStore {
            path: path.into(),
            every: every.max(1),
            kill_after: None,
        }
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replaces the snapshot on disk: write to a sibling tmp
    /// file, fsync-free rename over the target (rename is atomic on the
    /// platforms we run on; a torn write can only ever leave the old
    /// snapshot or the new one, never a hybrid).
    pub fn write<R: Serialize>(&self, ck: &Checkpoint<R>) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(ck).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, json).map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(())
    }
}

/// How a checkpointed run ended.
#[derive(Debug)]
pub enum ResumableRun<T> {
    /// Every item was driven to completion (or restored).
    Completed(T),
    /// The simulated kill fired ([`CheckpointStore::kill_after`]); the
    /// last written snapshot is on disk, ready for resume.
    Interrupted,
}

impl<T> ResumableRun<T> {
    /// Maps the completed result.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> ResumableRun<U> {
        match self {
            ResumableRun::Completed(t) => ResumableRun::Completed(f(t)),
            ResumableRun::Interrupted => ResumableRun::Interrupted,
        }
    }
}

/// Runs `work` over `items` on `threads` workers
/// ([`crate::parallel::run_indexed`]) under checkpoint supervision.
///
/// `snapshot` is the prior snapshot to resume from (or an empty one):
/// its items are placed by `index_of` and returned instead of recomputed,
/// so `work` must be a pure function of `(index, item)` for a resumed run
/// to equal an uninterrupted one. An item that `index_of` cannot place
/// makes the snapshot [`CheckpointError::Corrupt`]. With a `store`, every
/// new record is appended to the snapshot, which is written atomically
/// every [`CheckpointStore::every`] completions and once more at the end;
/// `store.kill_after` simulates SIGKILL. Records come back in item order.
pub fn run_checkpointed<T, R>(
    items: &[T],
    threads: usize,
    store: Option<&CheckpointStore>,
    snapshot: Checkpoint<R>,
    index_of: impl Fn(&R) -> Option<usize>,
    work: impl Fn(usize, &T) -> R + Sync,
) -> Result<ResumableRun<Vec<R>>, CheckpointError>
where
    T: Sync,
    R: Clone + Send + Sync + Serialize,
{
    let mut done: Vec<Option<R>> = vec![None; items.len()];
    for (n, rec) in snapshot.items.iter().enumerate() {
        let slot = index_of(rec).and_then(|i| done.get_mut(i)).ok_or_else(|| {
            CheckpointError::Corrupt(format!("snapshot item {n} is not an item of this run"))
        })?;
        *slot = Some(rec.clone());
    }

    struct Sink<R> {
        snapshot: Checkpoint<R>,
        since_write: usize,
        new_done: usize,
        error: Option<CheckpointError>,
    }
    // Set by the kill hook or a failed write: workers stop claiming work.
    // Relaxed suffices: the flag publishes no data (the snapshot is behind
    // the mutex, and the final reads follow the workers' join).
    let stop = AtomicBool::new(false);
    let sink = Mutex::new(Sink {
        snapshot,
        since_write: 0,
        new_done: 0,
        error: None,
    });

    let records = crate::parallel::run_indexed(items, threads, |i, item| {
        if let Some(rec) = &done[i] {
            return Some(rec.clone());
        }
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        let rec = work(i, item);
        if let Some(store) = store {
            let mut s = sink.lock().expect("checkpoint sink");
            // The stop flag is only set under this lock, so an item that
            // finishes after the kill (or a failed write) sees it here
            // and records nothing, as after a real SIGKILL.
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            s.snapshot.items.push(rec.clone());
            s.since_write += 1;
            s.new_done += 1;
            if s.since_write >= store.every && s.error.is_none() {
                if let Err(e) = store.write(&s.snapshot) {
                    s.error = Some(e);
                    stop.store(true, Ordering::Relaxed);
                }
                s.since_write = 0;
            }
            if store.kill_after.is_some_and(|k| s.new_done >= k) {
                stop.store(true, Ordering::Relaxed);
            }
        }
        Some(rec)
    });

    let sink = sink.into_inner().expect("checkpoint workers joined");
    if let Some(e) = sink.error {
        return Err(e);
    }
    if stop.load(Ordering::Relaxed) {
        return Ok(ResumableRun::Interrupted);
    }
    if let Some(store) = store {
        // Leave a complete snapshot behind so a finished run can be
        // "resumed" into an instant replay.
        store.write(&sink.snapshot)?;
    }
    let records = records
        .into_iter()
        .map(|rec| {
            rec.expect("invariant violated: every item completes when nothing stopped the run")
        })
        .collect();
    Ok(ResumableRun::Completed(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::OpFault;
    use crate::supervisor::SlotReport;

    fn fp() -> Fingerprint {
        Fingerprint {
            seed: 2021,
            total_cpus: 400_000,
            plan: "offline=0.05,crash=0,preempt=0.1,read_error=0,timeout=0,seed=7".into(),
        }
    }

    fn record(index: usize, fate: Option<Fate>) -> ItemRecord {
        let mut report = SlotReport {
            attempts: 2,
            backoff_secs: 31.5,
            ..SlotReport::default()
        };
        report.faults_by_kind[OpFault::Preempted.index()] = 1;
        ItemRecord::of(index, ArchId(3), fate, &report)
    }

    #[test]
    fn fate_round_trips_through_record() {
        for fate in [
            Some(Fate::Caught(Stage::Reinstall, 0)),
            Some(Fate::Caught(Stage::Regular, 7)),
            Some(Fate::Escaped),
            None,
        ] {
            assert_eq!(record(4, fate).fate(), fate);
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("sdc-ck-test-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 10);
        let mut ck = Checkpoint::<ItemRecord>::empty(fp());
        ck.items.push(record(0, Some(Fate::Escaped)));
        ck.items
            .push(record(3, Some(Fate::Caught(Stage::Factory, 0))));
        ck.items.push(record(1, None));
        store.write(&ck).unwrap();
        let back = Checkpoint::<ItemRecord>::load(store.path(), &fp()).unwrap();
        assert_eq!(back, ck);
        let third = back.items.iter().find(|r| r.index == 3).unwrap();
        assert_eq!(third.fate(), Some(Fate::Caught(Stage::Factory, 0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_wrong_fingerprint_and_version() {
        let dir = std::env::temp_dir().join("sdc-ck-test-fp");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        let ck = Checkpoint::<ItemRecord>::empty(fp());
        store.write(&ck).unwrap();
        let mut other = fp();
        other.seed = 9;
        assert!(matches!(
            Checkpoint::<ItemRecord>::load(store.path(), &other),
            Err(CheckpointError::Mismatch { .. })
        ));
        let mut stale = ck.clone();
        stale.version = FORMAT_VERSION + 1;
        store.write(&stale).unwrap();
        assert!(matches!(
            Checkpoint::<ItemRecord>::load(store.path(), &fp()),
            Err(CheckpointError::Version { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_check_precedes_fingerprint_check() {
        // A snapshot that is wrong in both ways reports the format
        // mismatch: fingerprint fields of a foreign format may not even
        // mean the same thing, so comparing them first would mislead.
        let dir = std::env::temp_dir().join("sdc-ck-test-prec");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        let mut ck = Checkpoint::<ItemRecord>::empty(fp());
        ck.version = FORMAT_VERSION + 7;
        ck.fingerprint.seed = 999;
        store.write(&ck).unwrap();
        assert!(matches!(
            Checkpoint::<ItemRecord>::load(store.path(), &fp()),
            Err(CheckpointError::Version {
                found,
                expected: FORMAT_VERSION,
            }) if found == FORMAT_VERSION + 7
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join("sdc-ck-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert!(matches!(
            Checkpoint::<ItemRecord>::load(&missing, &fp()),
            Err(CheckpointError::Io(_))
        ));
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{\"version\":").unwrap();
        assert!(matches!(
            Checkpoint::<ItemRecord>::load(&garbled, &fp()),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot exactly as the campaign wrote it before the checkpoint
    /// type became generic (three items of a real `repro table1 --quick
    /// --chaos offline=0.05,preempt=0.10,seed=7` snapshot).
    const LEGACY_CAMPAIGN_SNAPSHOT: &str = concat!(
        r#"{"version":1,"fingerprint":{"seed":2021,"total_cpus":200000,"#,
        r#""plan":"offline=0.05,crash=0,preempt=0.1,read_error=0,timeout=0,seed=7"},"#,
        r#""items":[{"index":1,"arch":1,"stage":"Reinstall","round":0,"lost":false,"#,
        r#""attempts":3,"faults":[0,0,2,0,0],"backoff_secs":78.74181851598422},"#,
        r#"{"index":41,"arch":8,"stage":"Regular","round":2,"lost":false,"#,
        r#""attempts":1,"faults":[0,0,0,0,0],"backoff_secs":0.0},"#,
        r#"{"index":9,"arch":3,"stage":null,"round":0,"lost":false,"#,
        r#""attempts":1,"faults":[0,0,0,0,0],"backoff_secs":0.0}]}"#,
    );

    fn legacy_fp() -> Fingerprint {
        Fingerprint {
            seed: 2021,
            total_cpus: 200_000,
            plan: "offline=0.05,crash=0,preempt=0.1,read_error=0,timeout=0,seed=7".into(),
        }
    }

    #[test]
    fn legacy_campaign_snapshot_still_loads_and_rewrites_identically() {
        let dir = std::env::temp_dir().join("sdc-ck-test-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        std::fs::write(&path, LEGACY_CAMPAIGN_SNAPSHOT).unwrap();
        let ck = Checkpoint::<ItemRecord>::load(&path, &legacy_fp()).unwrap();
        let fates: Vec<_> = ck.items.iter().map(|r| (r.index, r.fate())).collect();
        assert_eq!(
            fates,
            [
                (1, Some(Fate::Caught(Stage::Reinstall, 0))),
                (41, Some(Fate::Caught(Stage::Regular, 2))),
                (9, Some(Fate::Escaped)),
            ]
        );
        assert_eq!(ck.items[0].faults[OpFault::Preempted.index()], 2);
        // Same field names, same order, same number formatting.
        CheckpointStore::new(&path, 1).write(&ck).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            LEGACY_CAMPAIGN_SNAPSHOT
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_strict_prefix_of_a_real_campaign_snapshot_is_corrupt() {
        // A real snapshot, written by the campaign under a storm.
        let cfg = crate::population::FleetConfig {
            total_cpus: 30_000,
            seed: 2021,
            threads: 1,
        };
        let plan = crate::chaos::FaultPlan {
            seed: 7,
            offline: 0.05,
            preempt: 0.10,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join("sdc-ck-test-prefix");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        let pop = crate::population::FleetPopulation::sample(&cfg);
        let run = crate::campaign::run_campaign_resumable(
            &cfg,
            &toolchain::Suite::standard(),
            &pop,
            &plan,
            &crate::supervisor::RetryPolicy::default(),
            Some(&store),
            None,
        );
        assert!(matches!(run, Ok(ResumableRun::Completed(_))));
        let text = std::fs::read_to_string(store.path()).unwrap();
        let fingerprint = crate::campaign::campaign_fingerprint(&cfg, &plan);
        let full = Checkpoint::<ItemRecord>::load(store.path(), &fingerprint).unwrap();
        assert!(!full.items.is_empty());

        let cut = dir.join("cut.json");
        for end in 0..text.len() {
            std::fs::write(&cut, &text[..end]).unwrap();
            match Checkpoint::<ItemRecord>::load(&cut, &fingerprint) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("prefix of {end}/{} bytes: {other:?}", text.len()),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn straggler_finishing_after_the_kill_records_nothing() {
        // Two workers, a kill after one completion and a snapshot per
        // completion: item 0 holds its worker until item 1's snapshot is
        // on disk, so it finishes after the kill fired.
        let dir =
            std::env::temp_dir().join(format!("sdc-ck-test-straggler-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        std::fs::remove_file(&path).ok();
        let mut store = CheckpointStore::new(&path, 1);
        store.kill_after = Some(1);
        let run = run_checkpointed(
            &[(); 2],
            2,
            Some(&store),
            Checkpoint::empty(fp()),
            |r: &ItemRecord| Some(r.index as usize),
            |i, _| {
                if i == 0 {
                    let start = std::time::Instant::now();
                    while !path.exists() {
                        assert!(
                            start.elapsed().as_secs() < 60,
                            "item 1's snapshot never appeared"
                        );
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                record(i, None)
            },
        );
        assert!(matches!(run, Ok(ResumableRun::Interrupted)));
        let snapshot = Checkpoint::<ItemRecord>::load(&path, &fp()).unwrap();
        let indices: Vec<u64> = snapshot.items.iter().map(|r| r.index).collect();
        assert_eq!(indices, [1], "the straggler must not be recorded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_checkpointed_rejects_snapshot_items_it_cannot_place() {
        let mut ck = Checkpoint::<ItemRecord>::empty(fp());
        ck.items.push(record(7, Some(Fate::Escaped)));
        let run = run_checkpointed(
            &[(); 3],
            1,
            None,
            ck,
            |r| Some(r.index as usize),
            |i, _| record(i, None),
        );
        assert!(matches!(run, Err(CheckpointError::Corrupt(_))));
    }
}
