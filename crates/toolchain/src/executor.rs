//! The two-mode testcase executor.
//!
//! **Accelerated mode** ([`Executor::run`]) is how all long-horizon
//! studies run: one unit of the workload executes in the VM under a
//! [`Profiler`], yielding per-core retire-site rates, per-core power and
//! coherence/transaction event rates; the executor then advances a
//! discrete-event model in time chunks — thermal state first, then
//! Poisson-sampled defect firings at the current temperatures. This is
//! the only practical way to observe a 0.01-errors-per-minute defect
//! (Observation 9's low end) over simulated weeks of testing. The unit
//! profile is a pure function of (testcase, core count): the unit run's
//! shape is fixed ([`CLOCK_HZ`], `UNIT_ITERS`, `MAX_UNIT_STEPS`), its RNG
//! comes from [`ProfileKey::stream`], and every executor looks it up in
//! a [`ProfileCache`], private or shared.
//!
//! The chunk loop's package-wide work runs as single passes over the
//! cores, each pinned to the reference loop's bits
//! (`tests/executor_equivalence.rs`): every core's target temperature
//! once per run ([`ThermalModel::target_temps`]), then per chunk one
//! branch-free thermal step and one masked max for the hottest tested
//! core. [`Executor::try_run`] gives the bit-identity argument for each.
//! A steady-state memo takes over once the temperatures stop changing,
//! but with τ = 15 s that bitwise fixed point lies hundreds of chunks
//! out, past a study run's 30 s (quick) or 2 min (full): no quick study
//! or quick Farron eval run reaches it, and 4 of 3,268 full study runs
//! do. The transient chunk is the hot path; the memo serves held
//! temperatures (steady from the first chunk) and long windows.
//!
//! **Execute mode** ([`Executor::run_vm`]) runs the whole workload in the
//! VM against both a golden machine and a fault-injected machine and
//! derives SDC records from output differences and invariant violations —
//! the ground-truth path used to validate the accelerated model.

use crate::builders;
use crate::cache::{CachedUnitProfile, ProfileCache, ProfileKey};
use crate::error::ExecError;
use crate::profile::{Profiler, SampleTable};
use crate::testcase::{CheckKind, Invariant, OutputRegion, Testcase};
use rand::RngCore as _;
use sdc_model::{CoreId, DataType, DetRng, Duration, SdcRecord, SdcType, SettingId, VirtualClock};
use silicon::defect::{Defect, DefectKind};
use silicon::{Injector, Processor};
use softcore::{InstClass, Machine, NoFaults};
use std::sync::Arc;
use thermal::{ThermalConfig, ThermalModel};

/// Discrete-event time chunk of the accelerated run: temperatures step
/// and defect firings are drawn once per chunk (a run's last chunk is
/// shorter when the duration is not a whole number of chunks).
pub(crate) const CHUNK: Duration = Duration::from_secs(1);

/// Simulated core clock in Hz: virtual time is cycles / `CLOCK_HZ`, and
/// per-cycle event rates become per-second rates through it.
pub const CLOCK_HZ: f64 = 1e7;

/// Loop iterations of the profiling unit run.
pub(crate) const UNIT_ITERS: u32 = 4;

/// Step budget for VM runs (guards against spin-heavy interleavings).
pub(crate) const MAX_UNIT_STEPS: u64 = 40_000_000;

/// Executor configuration: the test environment of a run. The unit run
/// that profiles a testcase is fixed ([`CLOCK_HZ`], `UNIT_ITERS`,
/// `MAX_UNIT_STEPS`), and so is the accelerated run's 1 s time step
/// (`CHUNK`).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Cap on materialized SDC records per testcase run (the error *count*
    /// is exact; only record materialization is capped).
    pub max_records: usize,
    /// Preheat all cores to this temperature before each run (burn-in).
    pub preheat_c: Option<f64>,
    /// Hold the whole package at this temperature for the entire run —
    /// the paper's controlled-temperature methodology (§5: stress-tool
    /// preheating to a desired temperature while measuring occurrence
    /// frequency). Overrides thermal dynamics.
    pub hold_temp_c: Option<f64>,
    /// Keep non-tested cores busy with stress load during the run
    /// (Farron's whole-package heating; also the paper's §5 method to
    /// separate utilization from temperature).
    pub stress_idle_cores: bool,
    /// Run accelerated mode through the seed chunk loop
    /// ([`Executor::try_run_reference`]) instead of the event-skipping
    /// fast path. Results are bitwise identical either way (proven by
    /// `tests/executor_equivalence.rs`); the reference path exists for
    /// differential testing and the campaign bench baseline. Not part of
    /// the profile cache key — both paths see identical unit profiles.
    pub reference_executor: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_records: 2048,
            preheat_c: None,
            hold_temp_c: None,
            stress_idle_cores: false,
            reference_executor: false,
        }
    }
}

/// Result of one testcase run on one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct TestcaseRun {
    /// The testcase executed.
    pub testcase: sdc_model::TestcaseId,
    /// Physical cores the workload ran on.
    pub cores: Vec<u16>,
    /// Allotted virtual duration.
    pub duration: Duration,
    /// Materialized SDC records (capped at `max_records`).
    pub records: Vec<SdcRecord>,
    /// Exact number of SDC events.
    pub error_count: u64,
    /// Exact SDC events per entry of `cores` (same indexing).
    pub errors_per_core: Vec<u64>,
    /// Mean of per-chunk hottest-tested-core temperatures.
    pub mean_temp_c: f64,
    /// Hottest temperature any tested core reached.
    pub max_temp_c: f64,
}

impl TestcaseRun {
    /// True if the run detected at least one SDC.
    pub fn detected(&self) -> bool {
        self.error_count > 0
    }

    /// Errors per virtual minute — the paper's occurrence frequency.
    pub fn occurrence_frequency(&self) -> f64 {
        let mins = self.duration.as_mins_f64();
        if mins == 0.0 {
            0.0
        } else {
            self.error_count as f64 / mins
        }
    }
}

/// Per-(class, datatype) site rates for one machine core.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreProfile {
    /// (class, dt) → retired results per second.
    site_rates: Vec<((InstClass, DataType), f64)>,
    /// Average energy per cycle (thermal power proxy).
    power: f64,
    /// Cache invalidations received per second.
    invalidations_per_sec: f64,
    /// Conflicted transactional commits per second.
    tx_conflicts_per_sec: f64,
}

/// Precomputed computation-site weights for one (defect, tested core):
/// which sites the defect can corrupt, their sampling weights, and the
/// weights' sum. All three are temperature-independent, so the
/// accelerated run builds them once instead of once per time chunk.
struct CompSites {
    keys: Vec<(InstClass, DataType)>,
    weights: Vec<f64>,
    total_rate: f64,
}

/// Event source of one retained (defect, tested core) pair in the fast
/// path: the per-second base rate the trigger rate multiplies into a
/// chunk's Poisson mean.
enum PairEvents {
    /// Computation defect with its precomputed corruptible sites.
    Comp(CompSites),
    /// Coherence drop at this core's invalidation rate.
    Coherence(f64),
    /// Transaction-isolation violation at this core's conflict rate.
    Tx(f64),
}

impl PairEvents {
    /// Events per second before the trigger rate is applied.
    fn base_per_sec(&self) -> f64 {
        match self {
            PairEvents::Comp(sites) => sites.total_rate,
            PairEvents::Coherence(per) | PairEvents::Tx(per) => *per,
        }
    }
}

/// One (defect, tested core) pair the fast path keeps, in the seed
/// loop's draw order (defect-major, tested-core-minor). Pairs whose
/// rate is provably zero at every temperature — zero core scale, zero
/// trigger base rate, or zero event base rate — are pruned at build
/// time: the reference loop `continue`s (Poisson with a non-positive
/// mean draws nothing), so skipping them consumes no randomness.
struct ActivePair<'d> {
    defect: &'d Defect,
    /// Index into `cores` / `errors_per_core`.
    idx: usize,
    pcore: u16,
    /// `defect.scope.core_scale(pcore)`, nonzero for a kept pair.
    scale: f64,
    events: PairEvents,
}

/// The last trigger-curve value a chunk computed: (defect, temperature
/// bits, `rate_at`). A defect's pairs are adjacent, and the cores of a
/// symmetric workload share a temperature, so most pairs repeat the
/// previous pair's `rate_at` input; a pure function of equal inputs
/// needs no second `powf`.
type CurveMemo<'d> = Option<(&'d Defect, u64, f64)>;

impl<'d> ActivePair<'d> {
    /// [`Defect::rate`] at `temp` with the core scale hoisted: for a
    /// nonzero scale it is this very expression.
    fn rate(&self, temp: f64, memo: &mut CurveMemo<'d>) -> f64 {
        let at_temp = match *memo {
            Some((d, bits, at)) if std::ptr::eq(d, self.defect) && bits == temp.to_bits() => at,
            _ => {
                let at = self.defect.trigger.rate_at(temp);
                *memo = Some((self.defect, temp.to_bits(), at));
                at
            }
        };
        (at_temp * self.scale).clamp(0.0, 0.5)
    }
}

/// Per-pair memo once the thermal trajectory reaches its fixed point:
/// temperatures stop changing, so the chunk's Poisson mean (and its
/// `exp(-lambda)`) are constants.
struct SteadyPair {
    /// Index into the run's `ActivePair` list.
    active_i: usize,
    temp: f64,
    lambda: f64,
    exp_neg_lambda: f64,
}

/// Steady-state snapshot of a run's chunk loop: reached when the
/// integrated temperatures stop changing bitwise (or immediately under
/// `hold_temp_c`).
struct SteadyState {
    hottest: f64,
    pairs: Vec<SteadyPair>,
}

/// Running totals of one fast-path run: the reference loop's
/// accumulators, gathered so the chunk helpers can share them.
struct Tally {
    records: Vec<SdcRecord>,
    error_count: u64,
    errors_per_core: Vec<u64>,
    temp_sum: f64,
    temp_chunks: u64,
    max_temp: f64,
}

impl Tally {
    fn new(cores: usize) -> Self {
        Tally {
            records: Vec::new(),
            error_count: 0,
            errors_per_core: vec![0; cores],
            temp_sum: 0.0,
            temp_chunks: 0,
            max_temp: f64::NEG_INFINITY,
        }
    }

    /// Accounts one chunk whose hottest tested core sits at `hottest`.
    fn chunk(&mut self, hottest: f64) {
        self.temp_sum += hottest;
        self.temp_chunks += 1;
        self.max_temp = self.max_temp.max(hottest);
    }
}

/// Advances `temps` by one chunk in place with the exact
/// [`thermal::ThermalModel::advance`] arithmetic; returns `true` when
/// nothing changed bitwise (the trajectory's fixed point).
///
/// Relaxation `t += (target - t) * alpha` with `alpha < 0.5` moves each
/// core monotonically toward its target without overshoot, so in f64
/// the per-core sequence is monotone over a finite value set and lands
/// on an exact fixed point, after which every further chunk is a no-op.
/// Changes are found by ORing the XOR of old and new bits, so the loop
/// has no branch.
fn step_temps(temps: &mut [f64], targets: &[f64], alpha: f64) -> bool {
    let mut changed = 0u64;
    for (t, &target) in temps.iter_mut().zip(targets) {
        let next = *t + (target - *t) * alpha;
        changed |= next.to_bits() ^ t.to_bits();
        *t = next;
    }
    changed == 0
}

/// The hottest tested core: the max of `temps[c] + mask[c]`, where the
/// mask is −0.0 on tested cores and −∞ elsewhere, over four
/// accumulators.
///
/// It equals the reference's left fold of `f64::max` over the tested
/// cores in list order: `t + (−0.0)` is `t` bit for bit (also for
/// `t = −0.0`, which `t + 0.0` would turn into +0.0), an untested core
/// adds −∞, the fold's own start value, and max over finite values does
/// not depend on their order or on repeats (only a tie of +0.0 against
/// −0.0 could go either way, and the executor never mixes the two).
/// Temperatures are finite, so the max is a plain comparison, without
/// `f64::max`'s NaN handling, and compiles to packed max instructions.
fn hottest(temps: &[f64], mask: &[f64]) -> f64 {
    let max = |a: f64, b: f64| if b > a { b } else { a };
    let mut acc = [f64::NEG_INFINITY; 4];
    let (t4, m4) = (temps.chunks_exact(4), mask.chunks_exact(4));
    for (&t, &m) in t4.remainder().iter().zip(m4.remainder()) {
        acc[0] = max(acc[0], t + m);
    }
    for (t, m) in t4.zip(m4) {
        for ((a, &t), &m) in acc.iter_mut().zip(t).zip(m) {
            *a = max(*a, t + m);
        }
    }
    max(max(acc[0], acc[1]), max(acc[2], acc[3]))
}

/// Materializes up to `max_records − records.len()` computation records
/// for `k` events of one pair — the same draws, in the same order, as
/// the seed loop's materialization block.
#[allow(clippy::too_many_arguments)]
fn materialize_computation(
    sites: &CompSites,
    defect: &Defect,
    sampler_samples: &SampleTable,
    setting: SettingId,
    temp: f64,
    at: Duration,
    k: u64,
    max_records: usize,
    records: &mut Vec<SdcRecord>,
    rng: &mut DetRng,
) {
    let materialize = (k as usize).min(max_records.saturating_sub(records.len()));
    for _ in 0..materialize {
        let (class, dt_) = sites.keys[rng.weighted(&sites.weights)];
        let samples = sampler_samples.samples(class, dt_);
        let expected = if samples.is_empty() {
            0
        } else {
            samples[rng.below(samples.len() as u64) as usize]
        };
        let mask = defect.choose_mask(dt_, rng);
        records.push(SdcRecord {
            setting,
            kind: SdcType::Computation,
            datatype: dt_,
            expected,
            actual: expected ^ mask,
            temp_c: temp,
            at,
        });
    }
}

/// Executes testcases against one (possibly defective) processor.
pub struct Executor<'p> {
    /// The processor under test.
    pub processor: &'p Processor,
    /// Package thermal state (persists across runs: remaining heat).
    pub thermal: ThermalModel,
    /// Virtual wall clock (persists across runs).
    pub clock: VirtualClock,
    cfg: ExecConfig,
    /// Unit-profile memoization, private or shared with other executors.
    cache: Arc<ProfileCache>,
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("processor", &self.processor.id)
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl<'p> Executor<'p> {
    /// A fresh executor for `processor` at idle temperature, with a
    /// private unit-profile cache.
    pub fn new(processor: &'p Processor, cfg: ExecConfig) -> Self {
        Executor::with_cache(processor, cfg, ProfileCache::shared())
    }

    /// A fresh executor sharing `cache` for unit profiles. A profile is a
    /// pure function of (testcase, core count), so sharing changes what
    /// is computed, never a result.
    pub fn with_cache(processor: &'p Processor, cfg: ExecConfig, cache: Arc<ProfileCache>) -> Self {
        Executor {
            processor,
            thermal: ThermalModel::new(processor.physical_cores as usize, ThermalConfig::default()),
            clock: VirtualClock::new(),
            cfg,
            cache,
        }
    }

    /// Validates the core selection shared by both run modes.
    fn check_cores(&self, tc: &Testcase, cores: &[u16]) -> Result<(), ExecError> {
        if cores.is_empty() {
            return Err(ExecError::NoCores);
        }
        if let Some(&bad) = cores.iter().find(|&&c| c >= self.processor.physical_cores) {
            return Err(ExecError::CoreOutOfRange {
                core: bad,
                physical_cores: self.processor.physical_cores,
            });
        }
        if cores.len() < tc.threads as usize {
            return Err(ExecError::TooFewCores {
                cores: cores.len(),
                threads: tc.threads as usize,
            });
        }
        Ok(())
    }

    /// Accelerated run of `tc` on physical `cores` for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if the core selection violates [`Executor::try_run`]'s
    /// invariants.
    pub fn run(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        duration: Duration,
        rng: &mut DetRng,
    ) -> TestcaseRun {
        self.try_run(tc, cores, duration, rng)
            .unwrap_or_else(|e| panic!("invariant violated: executor run of {}: {e}", tc.name))
    }

    /// Fallible accelerated run: validates the core selection instead of
    /// panicking, so a supervised caller loses the slot with a typed
    /// error.
    ///
    /// This is the event-skipping fast path. It is bitwise identical to
    /// [`Executor::try_run_reference`] — same [`TestcaseRun`], same RNG
    /// stream consumption, same final thermal/clock state — via these
    /// draw-equivalent shortcuts:
    ///
    /// * **zero-rate pruning** — (defect, core) pairs whose rate is zero
    ///   at every temperature (zero core scale, zero trigger base rate,
    ///   zero event base rate) never reach a Poisson draw in the seed
    ///   loop (`continue`, or a non-positive mean that returns before
    ///   consuming randomness), so they are dropped up front;
    /// * **per-pair constants hoisted** — a kept pair stores its core
    ///   scale, so a chunk computes `(rate_at(temp) * scale).clamp(0.0,
    ///   0.5)`, the expression [`Defect::rate`] returns for a nonzero
    ///   scale; a pair whose (defect, temperature) repeats the previous
    ///   pair's reuses that `rate_at` value;
    /// * **live thermal integration** — the chunk loop steps a local
    ///   copy of the temperatures with the exact `advance` arithmetic
    ///   ([`ThermalModel::step_alpha`]) against targets computed once
    ///   per run by [`ThermalModel::target_temps`] (each core's
    ///   index-order fold of the others' powers, skipping its own term,
    ///   which is adding −0.0, the additive identity), and writes them
    ///   back at the end; the step ORs the XOR of old and new bits, and
    ///   the first chunk that changes no temperature bit is the curve's
    ///   fixed point;
    /// * **hottest tested core as one masked max** — `max(t + mask)`
    ///   over all cores, the mask −0.0 on tested cores and −∞ elsewhere:
    ///   `t + (−0.0)` is `t`, an untested core adds the reference
    ///   fold's own −∞ start, and max over finite values is order-free;
    /// * **steady-state memoization** — past the fixed point every
    ///   chunk's Poisson mean is a constant, so the trigger's `powf`
    ///   and `exp(-lambda)` are hoisted and draws go through
    ///   [`DetRng::poisson_with_exp`], which consumes the identical
    ///   uniform stream.
    pub fn try_run(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        duration: Duration,
        rng: &mut DetRng,
    ) -> Result<TestcaseRun, ExecError> {
        if self.cfg.reference_executor {
            return self.try_run_reference(tc, cores, duration, rng);
        }
        self.check_cores(tc, cores)?;
        let unit = self.cache.profile(tc, cores.len());
        let profiles = &unit.profiles;
        let sampler_samples = &unit.samples;
        let processor = self.processor;

        if let Some(t) = self.cfg.preheat_c {
            self.thermal.preheat(t);
        }
        // Package power and the `hottest` mask (−0.0 on tested cores,
        // −∞ elsewhere) in one pass over `cores`, backwards so the first
        // listing of a repeated core wins, as the reference's `position`
        // scan does. Untested cores idle or run stress load.
        let phys = processor.physical_cores as usize;
        self.thermal
            .set_all_powers(if self.cfg.stress_idle_cores { 1.2 } else { 0.0 });
        let mut mask = vec![f64::NEG_INFINITY; phys];
        for (idx, &c) in cores.iter().enumerate().rev() {
            self.thermal.set_power(c as usize, profiles[idx].power);
            mask[c as usize] = -0.0;
        }

        // Retained (defect, tested core) pairs in the seed loop's draw
        // order (defect-major, core-minor); see `ActivePair` for the
        // pruning argument.
        let mut active: Vec<ActivePair<'_>> = Vec::new();
        for defect in processor.defects.iter().filter(|d| d.applies_to(tc.id)) {
            if defect.trigger.base_rate <= 0.0 {
                continue;
            }
            for (idx, &pcore) in cores.iter().enumerate() {
                let scale = defect.scope.core_scale(pcore);
                if scale <= 0.0 {
                    continue;
                }
                let events = match &defect.kind {
                    DefectKind::Computation { .. } => {
                        let (keys, weights): (Vec<_>, Vec<f64>) = profiles[idx]
                            .site_rates
                            .iter()
                            .filter(|((class, dt_), _)| defect.matches(*class, *dt_))
                            .copied()
                            .unzip();
                        let total_rate = weights.iter().sum();
                        if total_rate <= 0.0 {
                            continue;
                        }
                        PairEvents::Comp(CompSites {
                            keys,
                            weights,
                            total_rate,
                        })
                    }
                    DefectKind::CoherenceDrop => {
                        let per = profiles[idx].invalidations_per_sec;
                        if per <= 0.0 {
                            continue;
                        }
                        PairEvents::Coherence(per)
                    }
                    DefectKind::TxIsolation => {
                        let per = profiles[idx].tx_conflicts_per_sec;
                        if per <= 0.0 {
                            continue;
                        }
                        PairEvents::Tx(per)
                    }
                };
                active.push(ActivePair {
                    defect,
                    idx,
                    pcore,
                    scale,
                    events,
                });
            }
        }

        let start = self.clock.now();
        let mut elapsed = Duration::ZERO;
        let mut tally = Tally::new(cores.len());

        let full_chunks = duration.as_micros() / CHUNK.as_micros();
        let partial = Duration::from_micros(duration.as_micros() % CHUNK.as_micros());
        let any_chunk = full_chunks > 0 || partial > Duration::ZERO;

        let hold = self.cfg.hold_temp_c;
        if let (Some(h), true) = (hold, any_chunk) {
            self.thermal.preheat(h);
        }
        let mut temps = self.thermal.temps().to_vec();
        // Targets are fixed while powers are fixed: one `target_temps`
        // pass per run (cores² vectorized adds), outside the chunk loop.
        let targets: Vec<f64> = match hold {
            Some(_) => Vec::new(),
            None => self.thermal.target_temps(),
        };
        let alpha = self.thermal.step_alpha(CHUNK);
        // Records the `k` events one pair fired in a chunk: the same
        // draws, in the same order, as the reference loop.
        let record = |tally: &mut Tally,
                      pair: &ActivePair<'_>,
                      k: u64,
                      temp: f64,
                      at: Duration,
                      rng: &mut DetRng| {
            if k == 0 {
                return;
            }
            tally.error_count += k;
            tally.errors_per_core[pair.idx] += k;
            match &pair.events {
                PairEvents::Comp(sites) => materialize_computation(
                    sites,
                    pair.defect,
                    sampler_samples,
                    SettingId {
                        cpu: processor.id,
                        core: CoreId(pair.pcore),
                        testcase: tc.id,
                    },
                    temp,
                    at,
                    k,
                    self.cfg.max_records,
                    &mut tally.records,
                    rng,
                ),
                PairEvents::Coherence(_) | PairEvents::Tx(_) => {
                    self.push_consistency(&mut tally.records, k, pair.pcore, tc, temp, at)
                }
            }
        };
        // One chunk of length `dt` at `temps` with the reference loop's
        // per-chunk arithmetic: rate, Poisson draw, records.
        let transient =
            |tally: &mut Tally, temps: &[f64], dt: Duration, at: Duration, rng: &mut DetRng| {
                let dt_secs = dt.as_secs_f64();
                tally.chunk(hottest(temps, &mask));
                let mut memo = None;
                for pair in &active {
                    let temp = temps[pair.pcore as usize];
                    let rate = pair.rate(temp, &mut memo);
                    if rate <= 0.0 {
                        continue;
                    }
                    let k = rng.poisson(pair.events.base_per_sec() * rate * dt_secs);
                    record(tally, pair, k, temp, at, rng);
                }
            };
        // Rates, means and exp(-mean) memoized at a temperature fixed
        // point. Pairs whose rate is zero *at these temperatures* (e.g.
        // below the trigger's t_min floor) are dropped drawlessly, the
        // same way the reference loop `continue`s on them every chunk.
        let make_steady = |temps: &[f64]| -> SteadyState {
            let mut pairs = Vec::new();
            let mut memo = None;
            for (active_i, pair) in active.iter().enumerate() {
                let temp = temps[pair.pcore as usize];
                let rate = pair.rate(temp, &mut memo);
                if rate <= 0.0 {
                    continue;
                }
                let lambda = pair.events.base_per_sec() * rate * CHUNK.as_secs_f64();
                if lambda <= 0.0 {
                    continue;
                }
                let exp_neg_lambda = if lambda <= 64.0 { (-lambda).exp() } else { 0.0 };
                pairs.push(SteadyPair {
                    active_i,
                    temp,
                    lambda,
                    exp_neg_lambda,
                });
            }
            SteadyState {
                hottest: hottest(temps, &mask),
                pairs,
            }
        };

        // Held temperatures are constant from the first chunk on: the
        // run is steady throughout.
        let mut steady = match hold {
            Some(_) if full_chunks > 0 => Some(make_steady(&temps)),
            _ => None,
        };

        for _ in 0..full_chunks {
            if steady.is_none() && step_temps(&mut temps, &targets, alpha) {
                steady = Some(make_steady(&temps));
            }
            let at = start + elapsed;
            match &steady {
                Some(st) => {
                    tally.chunk(st.hottest);
                    for sp in &st.pairs {
                        let k = rng.poisson_with_exp(sp.lambda, sp.exp_neg_lambda);
                        record(&mut tally, &active[sp.active_i], k, sp.temp, at, rng);
                    }
                }
                None => transient(&mut tally, &temps, CHUNK, at, rng),
            }
            elapsed += CHUNK;
        }

        // Final partial chunk (if the duration is not a whole number of
        // chunks): a different dt means a different alpha and Poisson
        // mean, so it is stepped and drawn exactly like the reference.
        if partial > Duration::ZERO {
            if hold.is_none() {
                step_temps(&mut temps, &targets, self.thermal.step_alpha(partial));
            }
            transient(&mut tally, &temps, partial, start + elapsed, rng);
            elapsed += partial;
        }
        debug_assert_eq!(elapsed, duration);

        // Write the integrated temperatures back so remaining heat
        // persists across runs exactly as the reference leaves it.
        if any_chunk && hold.is_none() {
            self.thermal.set_temps(&temps);
        }
        // Workload ends: power returns to idle, remaining heat persists.
        // Every core not set to 0.0 at the start was tested or stressed,
        // so zeroing all of them is the reference's selective reset.
        self.thermal.set_all_powers(0.0);
        self.clock.advance(duration);
        Ok(TestcaseRun {
            testcase: tc.id,
            cores: cores.to_vec(),
            duration,
            records: tally.records,
            error_count: tally.error_count,
            errors_per_core: tally.errors_per_core,
            mean_temp_c: if tally.temp_chunks > 0 {
                tally.temp_sum / tally.temp_chunks as f64
            } else {
                0.0
            },
            max_temp_c: if tally.max_temp.is_finite() {
                tally.max_temp
            } else {
                0.0
            },
        })
    }

    /// The seed chunk loop, kept verbatim for differential testing: the
    /// oracle `tests/executor_equivalence.rs` (and the campaign bench
    /// baseline via [`ExecConfig::reference_executor`]) compare
    /// [`Executor::try_run`] against this path bit for bit.
    pub fn try_run_reference(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        duration: Duration,
        rng: &mut DetRng,
    ) -> Result<TestcaseRun, ExecError> {
        self.check_cores(tc, cores)?;
        let unit = self.cache.profile(tc, cores.len());
        let profiles = &unit.profiles;
        let sampler_samples = &unit.samples;

        if let Some(t) = self.cfg.preheat_c {
            self.thermal.preheat(t);
        }
        // Set package power: tested cores burn the workload's power, the
        // rest idle or run stress load.
        let tested: std::collections::HashSet<u16> = cores.iter().copied().collect();
        for pc in 0..self.processor.physical_cores {
            let power = if let Some(idx) = cores.iter().position(|&c| c == pc) {
                profiles[idx].power
            } else if self.cfg.stress_idle_cores {
                1.2
            } else {
                0.0
            };
            self.thermal.set_power(pc as usize, power);
        }

        // The defect loop below runs every chunk of a possibly weeks-long
        // virtual duration; everything temperature-independent — which
        // defects apply, and which sites each can corrupt on each tested
        // core — is hoisted out of it.
        let applicable: Vec<(&Defect, Option<Vec<CompSites>>)> = self
            .processor
            .defects
            .iter()
            .filter(|d| d.applies_to(tc.id))
            .map(|defect| {
                let sites = match &defect.kind {
                    DefectKind::Computation { .. } => Some(
                        (0..cores.len())
                            .map(|idx| {
                                let matching: Vec<((InstClass, DataType), f64)> = profiles[idx]
                                    .site_rates
                                    .iter()
                                    .filter(|((class, dt_), _)| defect.matches(*class, *dt_))
                                    .copied()
                                    .collect();
                                CompSites {
                                    keys: matching.iter().map(|&(k, _)| k).collect(),
                                    weights: matching.iter().map(|&(_, v)| v).collect(),
                                    total_rate: matching.iter().map(|&(_, v)| v).sum(),
                                }
                            })
                            .collect(),
                    ),
                    _ => None,
                };
                (defect, sites)
            })
            .collect();

        let start = self.clock.now();
        let mut elapsed = Duration::ZERO;
        let mut records = Vec::new();
        let mut error_count = 0u64;
        let mut errors_per_core = vec![0u64; cores.len()];
        let mut temp_sum = 0.0;
        let mut temp_chunks = 0u64;
        let mut max_temp = f64::NEG_INFINITY;

        while elapsed < duration {
            let dt = std::cmp::min(CHUNK, duration - elapsed);
            if let Some(hold) = self.cfg.hold_temp_c {
                self.thermal.preheat(hold);
            } else {
                self.thermal.advance(dt);
            }
            let dt_secs = dt.as_secs_f64();
            let hottest_tested = cores
                .iter()
                .map(|&c| self.thermal.temp(c as usize))
                .fold(f64::NEG_INFINITY, f64::max);
            temp_sum += hottest_tested;
            temp_chunks += 1;
            max_temp = max_temp.max(hottest_tested);

            for &(defect, ref comp_sites) in &applicable {
                for (idx, &pcore) in cores.iter().enumerate() {
                    let temp = self.thermal.temp(pcore as usize);
                    let rate = defect.rate(pcore, temp);
                    if rate <= 0.0 {
                        continue;
                    }
                    match &defect.kind {
                        DefectKind::Computation { .. } => {
                            let sites =
                                &comp_sites.as_ref().expect("computation defect has sites")[idx];
                            if sites.total_rate <= 0.0 {
                                continue;
                            }
                            let lambda = sites.total_rate * rate * dt_secs;
                            let k = rng.poisson(lambda);
                            error_count += k;
                            errors_per_core[idx] += k;
                            let materialize = (k as usize)
                                .min(self.cfg.max_records.saturating_sub(records.len()));
                            for _ in 0..materialize {
                                let (class, dt_) = sites.keys[rng.weighted(&sites.weights)];
                                let samples = sampler_samples.samples(class, dt_);
                                let expected = if samples.is_empty() {
                                    0
                                } else {
                                    samples[rng.below(samples.len() as u64) as usize]
                                };
                                let mask = defect.choose_mask(dt_, rng);
                                records.push(SdcRecord {
                                    setting: SettingId {
                                        cpu: self.processor.id,
                                        core: CoreId(pcore),
                                        testcase: tc.id,
                                    },
                                    kind: SdcType::Computation,
                                    datatype: dt_,
                                    expected,
                                    actual: expected ^ mask,
                                    temp_c: temp,
                                    at: start + elapsed,
                                });
                            }
                        }
                        DefectKind::CoherenceDrop => {
                            let lambda = profiles[idx].invalidations_per_sec * rate * dt_secs;
                            let k = rng.poisson(lambda);
                            error_count += k;
                            errors_per_core[idx] += k;
                            self.push_consistency(
                                &mut records,
                                k,
                                pcore,
                                tc,
                                temp,
                                start + elapsed,
                            );
                        }
                        DefectKind::TxIsolation => {
                            let lambda = profiles[idx].tx_conflicts_per_sec * rate * dt_secs;
                            let k = rng.poisson(lambda);
                            error_count += k;
                            errors_per_core[idx] += k;
                            self.push_consistency(
                                &mut records,
                                k,
                                pcore,
                                tc,
                                temp,
                                start + elapsed,
                            );
                        }
                    }
                }
            }
            elapsed += dt;
        }
        // Workload ends: power returns to idle, remaining heat persists.
        for pc in 0..self.processor.physical_cores {
            if tested.contains(&pc) || self.cfg.stress_idle_cores {
                self.thermal.set_power(pc as usize, 0.0);
            }
        }
        self.clock.advance(duration);
        Ok(TestcaseRun {
            testcase: tc.id,
            cores: cores.to_vec(),
            duration,
            records,
            error_count,
            errors_per_core,
            mean_temp_c: if temp_chunks > 0 {
                temp_sum / temp_chunks as f64
            } else {
                0.0
            },
            max_temp_c: if max_temp.is_finite() { max_temp } else { 0.0 },
        })
    }

    fn push_consistency(
        &self,
        records: &mut Vec<SdcRecord>,
        k: u64,
        pcore: u16,
        tc: &Testcase,
        temp: f64,
        at: Duration,
    ) {
        let materialize = (k as usize).min(self.cfg.max_records.saturating_sub(records.len()));
        for _ in 0..materialize {
            records.push(SdcRecord {
                setting: SettingId {
                    cpu: self.processor.id,
                    core: CoreId(pcore),
                    testcase: tc.id,
                },
                kind: SdcType::Consistency,
                datatype: DataType::Bin64,
                expected: 0,
                actual: 0,
                temp_c: temp,
                at,
            });
        }
    }

    /// Full-VM validation run: executes `iters` iterations on both a
    /// golden and a fault-injected machine and derives SDC records from
    /// output mismatches (computation testcases) or invariant violations
    /// (consistency testcases). Temperatures are taken from the current
    /// thermal state and held for the (short) run.
    ///
    /// # Panics
    ///
    /// Panics where [`Executor::try_run_vm`] would return an error.
    pub fn run_vm(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        iters: u32,
        rng: &mut DetRng,
    ) -> TestcaseRun {
        self.try_run_vm(tc, cores, iters, rng)
            .unwrap_or_else(|e| panic!("invariant violated: VM run of {}: {e}", tc.name))
    }

    /// Fallible full-VM validation run: a spin-heavy interleaving that
    /// exceeds the step budget surfaces as [`ExecError::StepBudget`]
    /// instead of a panic, so supervised suites can retry or skip it.
    pub fn try_run_vm(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        iters: u32,
        rng: &mut DetRng,
    ) -> Result<TestcaseRun, ExecError> {
        self.check_cores(tc, cores)?;
        let seed = rng.next_u64();
        let built = builders::build(tc, cores.len(), iters, seed);

        // Only the defects whose trigger paths this testcase reaches
        // participate (§4.1's selectivity). Cloned once per testcase, not
        // once per machine run.
        let mut gated = self.processor.clone();
        gated.defects.retain(|d| d.applies_to(tc.id));

        // One machine serves both runs: programs are loaded (and
        // predecoded) once, and `restart` rewinds architectural state
        // between the golden and faulty executions.
        let mut machine = Machine::new(cores.len(), built.mem_bytes);
        for (c, p) in built.programs.iter().enumerate() {
            if let Some(p) = p {
                machine.load(c, p.clone());
            }
        }
        let budget_exceeded = |out: &softcore::RunOutcome| {
            if out.completed {
                Ok(())
            } else {
                Err(ExecError::StepBudget {
                    testcase: tc.id,
                    budget: MAX_UNIT_STEPS,
                })
            }
        };

        // Golden run.
        let golden_rng = rng.fork(1);
        for &(addr, val) in &built.mem_init {
            machine.mem.raw_write_u64(addr, val);
        }
        let mut interleave = golden_rng.fork(0x5150);
        let out = machine.run(&mut NoFaults, &mut interleave, MAX_UNIT_STEPS);
        budget_exceeded(&out)?;
        // Capture everything the comparison needs from the golden machine
        // before it is restarted for the faulty run.
        let golden_cycles = machine.cycles.iter().copied().max().unwrap_or(0);
        let golden_elems: Vec<Vec<u128>> = match &built.check {
            CheckKind::GoldenCompare => built
                .outputs
                .iter()
                .map(|region| {
                    (0..region.count)
                        .map(|i| read_element(&machine, region, i))
                        .collect()
                })
                .collect(),
            CheckKind::Invariants(_) => Vec::new(),
        };

        // Faulty run on the same (restarted) machine.
        machine.restart();
        let faulty_rng = rng.fork(2);
        for &(addr, val) in &built.mem_init {
            machine.mem.raw_write_u64(addr, val);
        }
        let mut interleave = faulty_rng.fork(0x5150);
        let temps: Vec<f64> = cores
            .iter()
            .map(|&c| self.thermal.temp(c as usize))
            .collect();
        let mut injector = Injector::new(&gated, cores.to_vec(), 45.0, faulty_rng.fork(0x1f));
        injector.set_temps(&temps);
        let out = machine.run(&mut injector, &mut interleave, MAX_UNIT_STEPS);
        budget_exceeded(&out)?;
        let faulty = machine;

        let mut records = Vec::new();
        let temp = self.thermal.max_temp();
        match &built.check {
            CheckKind::GoldenCompare => {
                for (ri, region) in built.outputs.iter().enumerate() {
                    // Attribute the region to the machine core that owns
                    // it (regions were appended per instance in order).
                    let per_instance = built.outputs.len() / cores.len().max(1);
                    let instance = ri.checked_div(per_instance).unwrap_or(0);
                    let pcore = cores[instance.min(cores.len() - 1)];
                    for i in 0..region.count {
                        let e = golden_elems[ri][i as usize];
                        let a = read_element(&faulty, region, i);
                        if e != a {
                            records.push(SdcRecord {
                                setting: SettingId {
                                    cpu: self.processor.id,
                                    core: CoreId(pcore),
                                    testcase: tc.id,
                                },
                                kind: SdcType::Computation,
                                datatype: region.dt,
                                expected: e,
                                actual: a,
                                temp_c: temp,
                                at: self.clock.now(),
                            });
                        }
                    }
                }
            }
            CheckKind::Invariants(invs) => {
                let violations = count_violations(&faulty, invs);
                for _ in 0..violations {
                    records.push(SdcRecord {
                        setting: SettingId {
                            cpu: self.processor.id,
                            core: CoreId(cores[0]),
                            testcase: tc.id,
                        },
                        kind: SdcType::Consistency,
                        datatype: DataType::Bin64,
                        expected: 0,
                        actual: 0,
                        temp_c: temp,
                        at: self.clock.now(),
                    });
                }
            }
        }
        let error_count = records.len() as u64;
        let mut errors_per_core = vec![0u64; cores.len()];
        for r in &records {
            if let Some(idx) = cores.iter().position(|&c| c == r.setting.core.0) {
                errors_per_core[idx] += 1;
            }
        }
        let duration = Duration::from_secs_f64(golden_cycles as f64 / CLOCK_HZ);
        self.clock.advance(duration);
        Ok(TestcaseRun {
            testcase: tc.id,
            cores: cores.to_vec(),
            duration,
            records,
            error_count,
            errors_per_core,
            mean_temp_c: temp,
            max_temp_c: temp,
        })
    }
}

/// The unit run of a testcase, set up and not yet started.
pub struct UnitRun {
    /// The machine, with the testcase's memory image and programs loaded.
    pub machine: Machine,
    /// The profiler hook, on its fork of [`ProfileKey::stream`].
    pub profiler: Profiler,
    /// The scheduling stream, on its fork of [`ProfileKey::stream`].
    pub interleave: DetRng,
    /// Cores that received a program.
    pub loaded: usize,
}

/// Sets up the unit run of `tc` for `key`, `tc`'s profile key: the
/// testcase built from the key's stream, loaded into a fresh machine,
/// with the profiler and interleave streams forked from the same
/// stream. Running `machine` for `key.max_unit_steps` under `profiler`
/// and `interleave` replays exactly the traffic a [`ProfileCache`]
/// profiles.
pub fn unit_run(tc: &Testcase, key: ProfileKey) -> UnitRun {
    let mut rng = key.stream();
    let built = builders::build(tc, key.cores, key.unit_iters, rng.next_u64());
    let mut machine = Machine::new(key.cores, built.mem_bytes);
    for &(addr, val) in &built.mem_init {
        machine.mem.raw_write_u64(addr, val);
    }
    let mut loaded = 0usize;
    for (c, p) in built.programs.into_iter().enumerate() {
        if let Some(p) = p {
            machine.load(c, p);
            loaded += 1;
        }
    }
    UnitRun {
        machine,
        profiler: Profiler::new(rng.fork(0x9821)),
        interleave: rng.fork(0x77aa),
        loaded,
    }
}

/// Runs one unit of `tc` in the VM under a profiler and condenses the
/// result into a [`CachedUnitProfile`]: the profiler's per-core counts
/// become per-core site rates, and its bit samples move into a sparse
/// sample table. All randomness comes from
/// [`ProfileKey::stream`], making the result a pure function of
/// `(tc, key)`.
pub(crate) fn compute_unit_profile(tc: &Testcase, key: ProfileKey) -> CachedUnitProfile {
    let UnitRun {
        mut machine,
        mut profiler,
        mut interleave,
        loaded,
    } = unit_run(tc, key);
    let out = machine.run(&mut profiler, &mut interleave, key.max_unit_steps);
    assert!(
        out.completed,
        "unit run of {} exceeded the step budget",
        tc.name
    );
    let unit_secs = (out.cycles.max(1)) as f64 / CLOCK_HZ;
    let mut profiles = vec![CoreProfile::default(); key.cores];
    for ((core, class, dt), count) in profiler.counts() {
        profiles[core]
            .site_rates
            .push(((class, dt), count as f64 / unit_secs));
    }
    for (c, profile) in profiles.iter_mut().enumerate() {
        profile.site_rates.sort_by_key(|a| a.0);
        profile.power = match machine.cycles[c] {
            0 => 0.0,
            cycles => machine.energy[c] / cycles as f64,
        };
        let (commits, aborts) = machine.core(c).tx_stats();
        // Conflicted-commit opportunities: observed aborts, floored at
        // a small share of commits (conflicts the golden interleaving
        // happened to miss).
        let conflicts = (aborts as f64).max(commits as f64 * 0.05);
        profile.tx_conflicts_per_sec = conflicts / unit_secs;
        profile.invalidations_per_sec = if loaded > 0 {
            machine.mem.stats.invalidations as f64 / loaded as f64 / unit_secs
        } else {
            0.0
        };
    }
    CachedUnitProfile {
        profiles,
        samples: profiler.into_samples(),
    }
}

/// Reads one element of an output region from flushed machine memory.
fn read_element(machine: &Machine, region: &OutputRegion, i: u64) -> u128 {
    let addr = region.addr + i * region.stride;
    match (region.dt.bits(), region.stride) {
        (80, _) => machine.mem.raw_read_u128(addr) & region.dt.mask(),
        (32, 4) => {
            // Packed 32-bit lanes inside 64-bit words.
            let word = machine.mem.raw_read_u64(addr & !7);
            let shift = (addr & 7) * 8;
            ((word >> shift) & 0xffff_ffff) as u128
        }
        (32, _) if region.dt == DataType::F32 => {
            // Scalar f32 results are stored widened to f64.
            let word = machine.mem.raw_read_u64(addr);
            (f64::from_bits(word) as f32).to_bits() as u128
        }
        _ => machine.mem.raw_read_u64(addr) as u128 & region.dt.mask(),
    }
}

/// Counts invariant violations on a halted machine.
fn count_violations(machine: &Machine, invs: &[Invariant]) -> u64 {
    let mut violations = 0;
    for inv in invs {
        match inv {
            Invariant::Equals { addr, value } => {
                let got = machine.mem.raw_read_u64(*addr);
                if got != *value {
                    violations += got.abs_diff(*value).min(16);
                }
            }
            Invariant::Zero { addr } => {
                violations += machine.mem.raw_read_u64(*addr).min(16);
            }
            Invariant::CounterMatchesSuccesses {
                counter,
                success_addrs,
            } => {
                let total: u64 = success_addrs
                    .iter()
                    .map(|a| machine.mem.raw_read_u64(*a))
                    .sum();
                let got = machine.mem.raw_read_u64(*counter);
                if got != total {
                    violations += got.abs_diff(total).min(16);
                }
            }
        }
    }
    violations
}
