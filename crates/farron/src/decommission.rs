//! Fine-grained processor decommission (§7.1).
//!
//! "If more than two cores within a processor are found defective, Farron
//! deprecates the entire processor … Conversely, Farron masks that
//! particular defective core and continues utilizing the other cores as
//! normal." Masked-core packages live in the reliable resource pool.

use sdc_model::{CoreId, CpuId};
use std::collections::{BTreeMap, BTreeSet};

/// The decommission decision for a faulty processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecommissionDecision {
    /// Mask these cores, keep the rest serving.
    MaskCores(Vec<CoreId>),
    /// Too many defective cores: deprecate the whole package.
    DeprecateProcessor,
}

/// Applies the paper's rule to a set of defective cores.
pub fn decide(defective_cores: &[CoreId]) -> DecommissionDecision {
    let distinct: BTreeSet<CoreId> = defective_cores.iter().copied().collect();
    if distinct.len() > 2 {
        DecommissionDecision::DeprecateProcessor
    } else {
        DecommissionDecision::MaskCores(distinct.into_iter().collect())
    }
}

/// The reliable resource pool: which cores of which processors may run
/// user applications.
#[derive(Debug, Clone, Default)]
pub struct ReliablePool {
    /// cpu → masked cores (absent cpu = fully available).
    masked: BTreeMap<u64, BTreeSet<u16>>,
    /// Deprecated processors.
    deprecated: BTreeSet<u64>,
}

impl ReliablePool {
    /// An empty pool bookkeeping structure.
    pub fn new() -> ReliablePool {
        ReliablePool::default()
    }

    /// Applies a decommission decision for `cpu`.
    pub fn apply(&mut self, cpu: CpuId, decision: &DecommissionDecision) {
        match decision {
            DecommissionDecision::MaskCores(cores) => {
                let entry = self.masked.entry(cpu.0).or_default();
                for c in cores {
                    entry.insert(c.0);
                }
            }
            DecommissionDecision::DeprecateProcessor => {
                self.deprecated.insert(cpu.0);
            }
        }
    }

    /// Whether `cpu` may serve at all.
    pub fn is_serving(&self, cpu: CpuId) -> bool {
        !self.deprecated.contains(&cpu.0)
    }

    /// Whether a specific core may run application work.
    pub fn core_available(&self, cpu: CpuId, core: CoreId) -> bool {
        self.is_serving(cpu) && !self.masked.get(&cpu.0).is_some_and(|m| m.contains(&core.0))
    }

    /// Cores still serving on `cpu`, out of `total` physical cores.
    pub fn available_cores(&self, cpu: CpuId, total: u16) -> Vec<CoreId> {
        if !self.is_serving(cpu) {
            return Vec::new();
        }
        (0..total)
            .map(CoreId)
            .filter(|&c| self.core_available(cpu, c))
            .collect()
    }

    /// Fraction of `total` cores retained by the pool for `cpu` —
    /// the capacity advantage over whole-processor decommission.
    pub fn retained_capacity(&self, cpu: CpuId, total: u16) -> f64 {
        self.available_cores(cpu, total).len() as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_or_two_cores_are_masked() {
        assert_eq!(
            decide(&[CoreId(3)]),
            DecommissionDecision::MaskCores(vec![CoreId(3)])
        );
        assert_eq!(
            decide(&[CoreId(3), CoreId(7)]),
            DecommissionDecision::MaskCores(vec![CoreId(3), CoreId(7)])
        );
    }

    #[test]
    fn duplicates_do_not_trigger_deprecation() {
        assert_eq!(
            decide(&[CoreId(3), CoreId(3), CoreId(3)]),
            DecommissionDecision::MaskCores(vec![CoreId(3)])
        );
    }

    #[test]
    fn three_distinct_cores_deprecate() {
        assert_eq!(
            decide(&[CoreId(0), CoreId(1), CoreId(2)]),
            DecommissionDecision::DeprecateProcessor
        );
    }

    #[test]
    fn pool_masks_and_retains_capacity() {
        let mut pool = ReliablePool::new();
        pool.apply(CpuId(1), &decide(&[CoreId(4)]));
        assert!(pool.is_serving(CpuId(1)));
        assert!(!pool.core_available(CpuId(1), CoreId(4)));
        assert!(pool.core_available(CpuId(1), CoreId(5)));
        assert_eq!(pool.available_cores(CpuId(1), 16).len(), 15);
        assert!((pool.retained_capacity(CpuId(1), 16) - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn pool_deprecation_removes_everything() {
        let mut pool = ReliablePool::new();
        pool.apply(CpuId(2), &DecommissionDecision::DeprecateProcessor);
        assert!(!pool.is_serving(CpuId(2)));
        assert!(pool.available_cores(CpuId(2), 16).is_empty());
        assert_eq!(pool.retained_capacity(CpuId(2), 16), 0.0);
    }

    #[test]
    fn untouched_processor_fully_available() {
        let pool = ReliablePool::new();
        assert_eq!(pool.available_cores(CpuId(9), 8).len(), 8);
    }
}
