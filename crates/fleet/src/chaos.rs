//! Deterministic operational-fault injection for campaign runs.
//!
//! Fleet scanning runs opportunistically on production machines (§5):
//! hosts go offline mid-suite, test runners crash, workload pressure
//! preempts test slots, profile reads fail transiently, and the harness
//! kills runs that overrun their wall-clock budget. A [`FaultPlan`]
//! models all five as a *seeded, pure* process: whether a fault hits a
//! given slot attempt is a function of `(plan, slot label, attempt)`
//! only — independent of thread count, execution order, and whether the
//! run was interrupted and resumed — which is what lets the chaos
//! determinism tests demand bitwise-identical outcomes.

use sdc_model::DetRng;

/// The operational faults the plan can inject into a slot attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpFault {
    /// The machine hosting the slot is in an offline epoch (persists
    /// across consecutive attempts — a host that drops stays down for a
    /// while).
    MachineOffline,
    /// The test runner crashed mid-suite; the attempt produced nothing.
    RunnerCrash,
    /// Production workload pressure preempted the test slot.
    Preempted,
    /// A transient profile-read error (the suite profile is a pure
    /// function of its key, so a retry reads the identical profile).
    ProfileRead,
    /// The attempt exceeded its wall-clock budget and was killed.
    Timeout,
}

impl OpFault {
    /// Every fault kind, in [`OpFault::index`] order.
    pub const ALL: [OpFault; 5] = [
        OpFault::MachineOffline,
        OpFault::RunnerCrash,
        OpFault::Preempted,
        OpFault::ProfileRead,
        OpFault::Timeout,
    ];

    /// Dense index for per-kind counters.
    pub fn index(self) -> usize {
        match self {
            OpFault::MachineOffline => 0,
            OpFault::RunnerCrash => 1,
            OpFault::Preempted => 2,
            OpFault::ProfileRead => 3,
            OpFault::Timeout => 4,
        }
    }

    /// Human-readable label for attrition reports.
    pub fn label(self) -> &'static str {
        match self {
            OpFault::MachineOffline => "machine-offline",
            OpFault::RunnerCrash => "runner-crash",
            OpFault::Preempted => "preempted",
            OpFault::ProfileRead => "profile-read",
            OpFault::Timeout => "timeout",
        }
    }
}

impl std::fmt::Display for OpFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Longest offline epoch, in consecutive slot attempts.
const MAX_OFFLINE_EPOCH: u64 = 3;

/// A seeded operational-fault plan: per-attempt probabilities for each
/// fault kind. `FaultPlan::default()` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault process (independent of the campaign seed, so
    /// the same fleet can be replayed under different weather).
    pub seed: u64,
    /// P(machine-offline epoch starts) per attempt.
    pub offline: f64,
    /// P(runner crash) per attempt.
    pub crash: f64,
    /// P(slot preemption) per attempt.
    pub preempt: f64,
    /// P(transient profile-read error) per attempt.
    pub read_error: f64,
    /// P(wall-clock timeout) per attempt.
    pub timeout: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            offline: 0.0,
            crash: 0.0,
            preempt: 0.0,
            read_error: 0.0,
            timeout: 0.0,
        }
    }
}

impl FaultPlan {
    /// True when no fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.offline == 0.0
            && self.crash == 0.0
            && self.preempt == 0.0
            && self.read_error == 0.0
            && self.timeout == 0.0
    }

    /// Parses a `key=value` comma list, e.g.
    /// `"offline=0.05,preempt=0.1,seed=7"`. Unknown or repeated keys and
    /// out-of-range probabilities are errors; omitted keys default to
    /// zero (seed defaults to 0).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry '{part}' is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(format!("fault plan: key '{key}' given twice"));
            }
            seen.push(key);
            let prob = || -> Result<f64, String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("fault plan '{key}': bad probability '{value}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault plan '{key}': probability {p} not in [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault plan seed: bad integer '{value}'"))?;
                }
                "offline" => plan.offline = prob()?,
                "crash" => plan.crash = prob()?,
                "preempt" => plan.preempt = prob()?,
                "read_error" => plan.read_error = prob()?,
                "timeout" => plan.timeout = prob()?,
                other => return Err(format!("fault plan: unknown key '{other}'")),
            }
        }
        Ok(plan)
    }

    /// Canonical spec string; `parse(spec()) == self`. Used as the
    /// checkpoint fingerprint component for the fault plan.
    pub fn spec(&self) -> String {
        format!(
            "offline={},crash={},preempt={},read_error={},timeout={},seed={}",
            self.offline, self.crash, self.preempt, self.read_error, self.timeout, self.seed
        )
    }

    /// The fault stream for one `(slot, attempt)` — a pure function of
    /// the plan and its arguments.
    fn stream(&self, label: u64, attempt: u32) -> DetRng {
        DetRng::new(self.seed)
            .fork_str("chaos")
            .fork(label)
            .fork(attempt as u64)
    }

    /// Draws the fault (if any) hitting attempt `attempt` of the slot
    /// labelled `label`.
    ///
    /// Pure in `(self, label, attempt)`: the same triple always yields
    /// the same answer, on any thread, before or after a resume.
    /// Machine-offline epochs persist — an epoch starting at attempt
    /// `a` covers attempts `a .. a + len` — so the offline process is
    /// replayed from attempt 0 (attempt counts are tiny: bounded by the
    /// retry policy).
    pub fn draw(&self, label: u64, attempt: u32) -> Option<OpFault> {
        if self.is_quiet() {
            return None;
        }
        let mut offline_until = 0u64; // exclusive end of the current epoch
        for a in 0..=attempt {
            let mut rng = self.stream(label, a);
            let offline = if (a as u64) < offline_until {
                true
            } else if rng.chance(self.offline) {
                offline_until = a as u64 + 1 + rng.below(MAX_OFFLINE_EPOCH);
                true
            } else {
                false
            };
            if a < attempt {
                continue;
            }
            if offline {
                return Some(OpFault::MachineOffline);
            }
            // Independent per-attempt faults, drawn in a fixed order so
            // the stream layout is part of the format.
            if rng.chance(self.crash) {
                return Some(OpFault::RunnerCrash);
            }
            if rng.chance(self.preempt) {
                return Some(OpFault::Preempted);
            }
            if rng.chance(self.read_error) {
                return Some(OpFault::ProfileRead);
            }
            if rng.chance(self.timeout) {
                return Some(OpFault::Timeout);
            }
        }
        None
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
    fn parse_round_trips_canonical_spec() {
        let plan = storm();
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        let sparse = FaultPlan::parse("offline=0.05,preempt=0.1,seed=7").unwrap();
        assert_eq!(sparse.offline, 0.05);
        assert_eq!(sparse.preempt, 0.1);
        assert_eq!(sparse.seed, 7);
        assert_eq!(sparse.crash, 0.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("offline").is_err());
        assert!(FaultPlan::parse("gremlins=0.5").is_err());
        assert!(FaultPlan::parse("offline=1.5").is_err());
        assert!(FaultPlan::parse("offline=-0.1").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("offline=0.05,offline=0.5").is_err());
        assert!(FaultPlan::parse("seed=1, seed =2").is_err());
    }

    /// Every truncation of `spec` (at each char boundary) is an error or
    /// a plan with valid probabilities, never a panic.
    fn assert_prefixes_parse_or_fail(spec: &str) {
        for end in (0..=spec.len()).filter(|&i| spec.is_char_boundary(i)) {
            if let Ok(plan) = FaultPlan::parse(&spec[..end]) {
                assert_valid(&plan, &spec[..end]);
            }
        }
    }

    fn assert_valid(plan: &FaultPlan, spec: &str) {
        let probs = [
            plan.offline,
            plan.crash,
            plan.preempt,
            plan.read_error,
            plan.timeout,
        ];
        assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "{spec:?}: {plan:?}"
        );
        assert_eq!(FaultPlan::parse(&plan.spec()), Ok(*plan), "{spec:?}");
    }

    /// Spec fragments that recombine into near-valid and hostile plans.
    #[rustfmt::skip]
    const FRAGMENTS: &[&str] = &[
        "seed", "offline", "crash", "preempt", "read_error", "timeout", "gremlins",
        "=", "=", ",", ",", " ", "0", "1", "0.5", ".", "-", "e", "E9", "1e-3", "NaN",
        "inf", "+", "18446744073709551616", "\u{0}", "é", "\t",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn hostile_specs_parse_or_fail(
            parts in proptest::collection::vec(proptest::sample::select(FRAGMENTS.to_vec()), 0..24)
        ) {
            let spec = parts.concat();
            if let Ok(plan) = FaultPlan::parse(&spec) {
                assert_valid(&plan, &spec);
            }
            assert_prefixes_parse_or_fail(&spec);
        }

        #[test]
        fn truncated_canonical_specs_parse_or_fail(
            seed in proptest::any::<u64>(),
            probs in proptest::collection::vec(0.0f64..1.0, 5..6)
        ) {
            let plan = FaultPlan {
                seed,
                offline: probs[0],
                crash: probs[1],
                preempt: probs[2],
                read_error: probs[3],
                timeout: probs[4],
            };
            proptest::prop_assert_eq!(FaultPlan::parse(&plan.spec()), Ok(plan));
            assert_prefixes_parse_or_fail(&plan.spec());
        }
    }

    #[test]
    fn draw_is_pure() {
        let plan = storm();
        for label in 0..50u64 {
            for attempt in 0..6u32 {
                assert_eq!(plan.draw(label, attempt), plan.draw(label, attempt));
            }
        }
    }

    #[test]
    fn quiet_plan_never_fires() {
        let plan = FaultPlan::default();
        assert!(plan.is_quiet());
        for label in 0..100 {
            assert_eq!(plan.draw(label, 0), None);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan {
            seed: 3,
            preempt: 0.2,
            ..FaultPlan::default()
        };
        let hits = (0..5000u64)
            .filter(|&l| plan.draw(l, 0) == Some(OpFault::Preempted))
            .count();
        let rate = hits as f64 / 5000.0;
        assert!((0.15..0.25).contains(&rate), "preempt rate {rate}");
    }

    #[test]
    fn offline_epochs_persist() {
        let plan = FaultPlan {
            seed: 11,
            offline: 0.2,
            ..FaultPlan::default()
        };
        // Find a slot whose first attempt starts an offline epoch longer
        // than one attempt, then check persistence.
        let mut saw_persistence = false;
        for label in 0..2000u64 {
            if plan.draw(label, 0) == Some(OpFault::MachineOffline)
                && plan.draw(label, 1) == Some(OpFault::MachineOffline)
            {
                saw_persistence = true;
                break;
            }
        }
        assert!(
            saw_persistence,
            "no multi-attempt offline epoch in 2000 slots"
        );
    }

    #[test]
    fn fault_kinds_have_dense_indices() {
        for (i, f) in OpFault::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }
}
