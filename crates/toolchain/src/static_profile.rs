//! Static profiles: what a testcase's programs retire per cycle, counted
//! by *walking* the programs the [`builders`] emit instead of executing
//! them.
//!
//! A walk has no randomness and no core count (see
//! [`StaticProfile::of`]), so each [`Suite`](crate::Suite) memoizes the
//! walks of its testcases once
//! ([`Suite::static_profiles`](crate::Suite::static_profiles)) and every
//! reader — fleet screening on any package shape, in any campaign —
//! shares them.

use crate::builders;
use crate::testcase::Testcase;
use sdc_model::DataType;
use softcore::{Inst, InstClass, Program};
use std::collections::HashMap;

/// Static profile of one testcase instantiated on a given core count.
#[derive(Debug, Clone)]
pub struct StaticProfile {
    /// (class, dt) → retire sites per cycle, for the *busiest* program.
    pub sites_per_cycle: HashMap<(InstClass, DataType), f64>,
    /// Energy per cycle (thermal power proxy).
    pub power: f64,
    /// Estimated cache-invalidation deliveries per cycle per core
    /// (multi-threaded testcases only).
    pub invalidations_per_cycle: f64,
    /// Estimated conflicted transactional commits per cycle per core.
    pub tx_conflicts_per_cycle: f64,
    /// Whether the testcase is multi-threaded.
    pub multithread: bool,
}

/// What walking one program counts, loop multipliers applied.
#[derive(Debug)]
pub struct ProgramWalk {
    /// (class, dt) → retire sites per iteration.
    pub sites: HashMap<(InstClass, DataType), f64>,
    /// Cycles per iteration (at least 1).
    pub cycles: f64,
    /// Energy per iteration.
    pub energy: f64,
    /// Shared-memory writes (stores, CAS, lock traffic) per iteration.
    pub shared_writes: f64,
    /// Transactional commits per iteration.
    pub commits: f64,
}

/// Walks a program, accumulating per-(class, dt) site counts, cycles,
/// energy, and shared-memory traffic with loop multipliers.
pub fn walk(program: &Program) -> ProgramWalk {
    let mut sites: HashMap<(InstClass, DataType), f64> = HashMap::new();
    let mut cycles = 0f64;
    let mut energy = 0f64;
    let mut shared_writes = 0f64;
    let mut commits = 0f64;
    let mut mult: Vec<f64> = vec![1.0];
    for inst in program.insts() {
        let m = *mult
            .last()
            .expect("invariant violated: the loop-multiplier stack always keeps its base entry");
        match *inst {
            Inst::LoopStart { count } => {
                cycles += m;
                energy += m * InstClass::Control.energy();
                mult.push(m * count as f64);
                continue;
            }
            Inst::LoopEnd => {
                let inner = mult
                    .pop()
                    .expect("invariant violated: LoopEnd must close a matching LoopStart");
                cycles += inner;
                energy += inner * InstClass::Control.energy();
                continue;
            }
            _ => {}
        }
        let class = inst.class();
        cycles += m * class.cycles() as f64;
        energy += m * class.energy();
        match *inst {
            Inst::IntOp { dt, .. } => {
                *sites.entry((class, dt)).or_insert(0.0) += m;
            }
            Inst::FOp { prec, .. } | Inst::FFma { prec, .. } | Inst::FAtan { prec, .. } => {
                *sites.entry((class, prec.datatype())).or_insert(0.0) += m;
            }
            Inst::XOp { .. } | Inst::XAtan { .. } => {
                *sites.entry((class, DataType::F64X)).or_insert(0.0) += m;
            }
            Inst::VOp { lane, .. } => {
                *sites.entry((class, lane.datatype())).or_insert(0.0) += m * lane.lanes() as f64;
            }
            Inst::Crc32Step { .. } => {
                *sites.entry((class, DataType::Bin32)).or_insert(0.0) += m;
            }
            Inst::HashMix { .. } => {
                *sites.entry((class, DataType::Bin64)).or_insert(0.0) += m;
            }
            Inst::Store { .. }
            | Inst::Cas { .. }
            | Inst::LockAcquire { .. }
            | Inst::LockRelease { .. } => {
                shared_writes += m;
            }
            Inst::TxCommit { .. } => {
                commits += m;
            }
            _ => {}
        }
    }
    ProgramWalk {
        sites,
        cycles: cycles.max(1.0),
        energy,
        shared_writes,
        commits,
    }
}

impl StaticProfile {
    /// Profiles `tc` as instantiated on `machine_cores` cores.
    ///
    /// Walks one instance only: core 0's program, or group 0's threads
    /// for a multi-threaded testcase, keeping the busiest. Every other
    /// instance walks the same, so the result does not depend on
    /// `machine_cores` — instance `k` draws from its own fork of the
    /// testcase's stream, and the builders draw only immediates and
    /// memory contents from it, never program structure. That is why a
    /// suite walks each testcase once for every core count it serves.
    ///
    /// # Panics
    ///
    /// Panics if `machine_cores` is smaller than the testcase's thread
    /// count.
    pub fn of(tc: &Testcase, machine_cores: usize) -> StaticProfile {
        let threads = tc.threads as usize;
        assert!(
            machine_cores >= threads,
            "machine has fewer cores than testcase threads"
        );
        let instance = builders::build(tc, threads, 8, 0x57a71c);
        let mut busiest: Option<ProgramWalk> = None;
        for program in instance.programs.iter().flatten() {
            let w = walk(program);
            if busiest.as_ref().is_none_or(|b| w.cycles > b.cycles) {
                busiest = Some(w);
            }
        }
        StaticProfile::from_walk(
            tc,
            busiest.expect("invariant violated: every testcase builds at least one program"),
        )
    }

    /// The profile of `tc` whose busiest program walked as `walk`.
    pub fn from_walk(tc: &Testcase, walk: ProgramWalk) -> StaticProfile {
        let ProgramWalk {
            sites,
            cycles,
            energy,
            shared_writes,
            commits,
        } = walk;
        let multithread = tc.threads > 1;
        StaticProfile {
            sites_per_cycle: sites.into_iter().map(|(k, v)| (k, v / cycles)).collect(),
            power: energy / cycles,
            // Each shared write invalidates the sharing peers' copies
            // roughly once; conflicts hit a fraction of commits.
            invalidations_per_cycle: if multithread {
                shared_writes / cycles
            } else {
                0.0
            },
            tx_conflicts_per_cycle: if multithread {
                commits * 0.2 / cycles
            } else {
                0.0
            },
            multithread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suite;

    #[test]
    fn walk_counts_loop_multiplied_sites() {
        use softcore::{IntOpKind, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        b.loop_start(10);
        b.int_op(IntOpKind::Add, DataType::I32, 1, 0, 0);
        b.loop_end();
        let ProgramWalk {
            sites,
            cycles,
            energy,
            ..
        } = walk(&b.build());
        assert_eq!(sites[&(InstClass::IntArith, DataType::I32)], 10.0);
        assert!(cycles >= 10.0);
        assert!(energy > 0.0);
    }

    #[test]
    fn profiles_distinguish_features() {
        let suite = Suite::standard();
        let atan_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("fpu/atan/f64/"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(atan_id), 4);
        assert!(p
            .sites_per_cycle
            .contains_key(&(InstClass::FloatAtan, DataType::F64)));
        assert!(!p
            .sites_per_cycle
            .contains_key(&(InstClass::VecFma, DataType::F32)));
        assert!(!p.multithread);
    }

    #[test]
    fn multithread_profiles_estimate_events() {
        let suite = Suite::standard();
        let lock_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("cache/lock"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(lock_id), 4);
        assert!(p.multithread);
        assert!(p.invalidations_per_cycle > 0.0);
        let tx_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("trx/"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(tx_id), 4);
        assert!(p.tx_conflicts_per_cycle > 0.0);
    }
}
