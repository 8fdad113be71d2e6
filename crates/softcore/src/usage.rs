//! Instruction-usage counters.
//!
//! Section 4.1 of the paper: "we instrument the toolchain to catch the
//! number of times each type of instruction is executed during each
//! testcase via Pin. This method helps us narrow down the scope of
//! suspected instructions." These counters are the simulator's equivalent,
//! and also drive the usage-stress triggering condition of Observation 10.

use crate::inst::InstClass;

/// Per-core, per-class execution counts.
#[derive(Debug, Clone)]
pub struct UsageCounters {
    counts: Vec<[u64; InstClass::ALL.len()]>,
}

impl UsageCounters {
    /// Counters for `cores` cores, all zero.
    pub fn new(cores: usize) -> Self {
        UsageCounters {
            counts: vec![[0; InstClass::ALL.len()]; cores],
        }
    }

    /// Records one execution of `class` on `core`.
    #[inline]
    pub fn record(&mut self, core: usize, class: InstClass) {
        self.counts[core][class as usize] += 1;
    }

    /// Records `n` executions of `class` on `core`.
    #[inline]
    pub fn record_n(&mut self, core: usize, class: InstClass, n: u64) {
        self.counts[core][class as usize] += n;
    }

    /// Executions of `class` on `core`.
    #[inline]
    pub fn count(&self, core: usize, class: InstClass) -> u64 {
        self.counts[core][class as usize]
    }

    /// Total executions of `class` across all cores.
    pub fn total(&self, class: InstClass) -> u64 {
        self.counts.iter().map(|c| c[class as usize]).sum()
    }

    /// Total executions of all classes on `core`.
    pub fn core_total(&self, core: usize) -> u64 {
        self.counts[core].iter().sum()
    }

    /// The classes executed at least once, with totals, descending.
    pub fn profile(&self) -> Vec<(InstClass, u64)> {
        let mut v: Vec<(InstClass, u64)> = InstClass::ALL
            .into_iter()
            .map(|c| (c, self.total(c)))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        for c in &mut self.counts {
            *c = [0; InstClass::ALL.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut u = UsageCounters::new(2);
        u.record(0, InstClass::IntArith);
        u.record(0, InstClass::IntArith);
        u.record(1, InstClass::FloatMul);
        u.record_n(1, InstClass::FloatMul, 3);
        u.record_n(1, InstClass::Load, 0);
        assert_eq!(u.count(1, InstClass::FloatMul), 4);
        assert_eq!(u.count(0, InstClass::IntArith), 2);
        assert_eq!(u.count(1, InstClass::IntArith), 0);
        assert_eq!(u.total(InstClass::IntArith), 2);
        assert_eq!(u.core_total(1), 4);
    }

    #[test]
    fn profile_sorted_and_sparse() {
        let mut u = UsageCounters::new(1);
        for _ in 0..5 {
            u.record(0, InstClass::VecFma);
        }
        u.record(0, InstClass::Load);
        let p = u.profile();
        assert_eq!(p[0], (InstClass::VecFma, 5));
        assert_eq!(p[1], (InstClass::Load, 1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn reset_zeroes() {
        let mut u = UsageCounters::new(1);
        u.record(0, InstClass::Crc);
        u.reset();
        assert_eq!(u.core_total(0), 0);
    }
}
