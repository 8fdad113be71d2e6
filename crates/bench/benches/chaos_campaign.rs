//! Cost of chaos: what a fault storm and checkpointing add on top of the
//! quiet campaign.
//!
//! Two parts:
//!
//! * a one-shot comparison at ~2.6M CPUs (≈1k defective processors):
//!   the quiet campaign ([`run_campaign_on`], the supervised campaign
//!   under an all-zero fault plan), a storm (5% offline + 10% preempt plus
//!   crash/read/timeout noise), and the storm with a checkpoint
//!   snapshot every 64 completions. The checkpointed storm is
//!   cross-checked for bitwise equality with the plain storm, and the
//!   results land in `BENCH_chaos.json` at the repo root;
//! * criterion benches of the quiet and stormy campaign at 300k CPUs for
//!   regression tracking.

use criterion::{criterion_group, criterion_main, Criterion};
use fleet::parallel::resolve_threads;
use fleet::{
    run_campaign_on, run_campaign_resumable, CheckpointStore, FaultPlan, FleetConfig,
    FleetPopulation, ResumableRun, RetryPolicy, SupervisedCampaign,
};
use std::time::Instant;
use toolchain::Suite;

/// ~2.6M CPUs materialize ≈1k defective processors at the paper's
/// prevalence of a few per ten thousand.
const ARTIFACT_FLEET: u64 = 2_600_000;

/// The acceptance-scenario storm: 5% machine-offline + 10% slot
/// preemption, with crash/profile-read/timeout noise on top.
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

fn stormy(
    cfg: &FleetConfig,
    suite: &Suite,
    pop: &FleetPopulation,
    store: Option<&CheckpointStore>,
) -> SupervisedCampaign {
    match run_campaign_resumable(
        cfg,
        suite,
        pop,
        &storm(),
        &RetryPolicy::default(),
        store,
        None,
    ) {
        Ok(ResumableRun::Completed(run)) => run,
        Ok(ResumableRun::Interrupted) => unreachable!("bench runs have no kill hook"),
        Err(e) => panic!("checkpoint I/O failed: {e}"),
    }
}

fn artifact(suite: &Suite) {
    let cfg = FleetConfig {
        total_cpus: ARTIFACT_FLEET,
        seed: 2021,
        threads: resolve_threads(0),
    };
    let pop = FleetPopulation::sample(&cfg);

    let t = Instant::now();
    run_campaign_on(&cfg, suite, &pop);
    let quiet_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let storm_run = stormy(&cfg, suite, &pop, None);
    let storm_secs = t.elapsed().as_secs_f64();

    let ck_path = std::env::temp_dir().join("sdc-bench-chaos-ck.json");
    std::fs::remove_file(&ck_path).ok();
    let store = CheckpointStore::new(&ck_path, 64);
    let t = Instant::now();
    let checkpointed = stormy(&cfg, suite, &pop, Some(&store));
    let ck_secs = t.elapsed().as_secs_f64();
    std::fs::remove_file(&ck_path).ok();
    assert_eq!(
        checkpointed.outcome.fates, storm_run.outcome.fates,
        "checkpoint writes must not perturb the storm's results"
    );

    let att = &storm_run.attrition;
    eprintln!(
        "[chaos_campaign] {} defective CPUs, {} threads: quiet {quiet_secs:.2}s, \
         storm {storm_secs:.2}s, +checkpointing {ck_secs:.2}s; \
         storm coverage {:.4} ({} lost, {} retries, {} faults)",
        pop.defective.len(),
        cfg.threads,
        att.coverage(),
        att.lost,
        att.retries,
        att.total_faults(),
    );

    let json = format!(
        "{{\n  \"fleet_cpus\": {},\n  \"defective_cpus\": {},\n  \"threads\": {},\n  \"quiet_secs\": {:.4},\n  \"storm_secs\": {:.4},\n  \"storm_checkpointed_secs\": {:.4},\n  \"checkpointed_identical_to_storm\": true,\n  \"storm\": {{\n    \"plan\": \"{}\",\n    \"coverage\": {:.6},\n    \"completed\": {},\n    \"lost\": {},\n    \"retries\": {},\n    \"faults\": {},\n    \"accounted_backoff_secs\": {:.1}\n  }}\n}}\n",
        pop.total(),
        pop.defective.len(),
        cfg.threads,
        quiet_secs,
        storm_secs,
        ck_secs,
        storm().spec(),
        att.coverage(),
        att.completed,
        att.lost,
        att.retries,
        att.total_faults(),
        att.backoff_secs,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    std::fs::write(path, json).expect("write BENCH_chaos.json");
    eprintln!("[chaos_campaign] wrote {path}");
}

fn bench_chaos_modes(c: &mut Criterion) {
    let suite = Suite::standard();
    artifact(&suite);

    let cfg = FleetConfig {
        total_cpus: 300_000,
        seed: 2021,
        threads: resolve_threads(0),
    };
    let pop = FleetPopulation::sample(&cfg);
    let mut group = c.benchmark_group("fleet/chaos_campaign_300k");
    group.sample_size(10);
    group.bench_function("quiet", |b| b.iter(|| run_campaign_on(&cfg, &suite, &pop)));
    group.bench_function("storm", |b| b.iter(|| stormy(&cfg, &suite, &pop, None)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_chaos_modes
}
criterion_main!(benches);
