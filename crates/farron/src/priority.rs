//! Testcase priorities (§7.1).
//!
//! "We designate targeted features and priorities for testcases,
//! establishing three distinct priority levels: basic, active, suspected.
//! The 'basic' priority is assigned to testcases that, despite being
//! designed for a particular feature, fail to detect faults in our
//! large-scale tests. The 'active' priority is designated for testcases
//! with proven track records of successfully identifying defective
//! features. Lastly, the 'suspected' priority is only assigned to
//! testcases that have detected errors on the core(s) of the current
//! processor."

use sdc_model::TestcaseId;
use std::collections::{HashMap, HashSet};

/// The three priority levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TestPriority {
    /// Never detected anything in fleet history.
    Basic,
    /// Has detected defects somewhere in the fleet.
    Active,
    /// Has detected errors on *this* processor.
    Suspected,
}

/// Per-processor priority assignment backed by fleet-wide history.
#[derive(Debug, Clone, Default)]
pub struct PriorityBook {
    /// Testcases with fleet-wide detection history.
    fleet_active: HashSet<TestcaseId>,
    /// Per-processor suspected testcases (keyed by CPU id).
    suspected: HashMap<u64, HashSet<TestcaseId>>,
}

impl PriorityBook {
    /// An empty book (everything `Basic`).
    pub fn new() -> PriorityBook {
        PriorityBook::default()
    }

    /// Records that `testcase` detected an SDC somewhere in the fleet
    /// (pre-production or earlier regular tests).
    pub fn record_fleet_detection(&mut self, testcase: TestcaseId) {
        self.fleet_active.insert(testcase);
    }

    /// Records that `testcase` detected an SDC on processor `cpu`.
    pub fn record_processor_detection(&mut self, cpu: u64, testcase: TestcaseId) {
        self.suspected.entry(cpu).or_default().insert(testcase);
        self.fleet_active.insert(testcase);
    }

    /// The priority of `testcase` when testing processor `cpu`.
    pub fn priority(&self, cpu: u64, testcase: TestcaseId) -> TestPriority {
        if self
            .suspected
            .get(&cpu)
            .is_some_and(|s| s.contains(&testcase))
        {
            TestPriority::Suspected
        } else if self.fleet_active.contains(&testcase) {
            TestPriority::Active
        } else {
            TestPriority::Basic
        }
    }

    /// Suspected testcases for `cpu`.
    pub fn suspected_of(&self, cpu: u64) -> Vec<TestcaseId> {
        let mut v: Vec<TestcaseId> = self
            .suspected
            .get(&cpu)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_priority_is_basic() {
        let book = PriorityBook::new();
        assert_eq!(book.priority(1, TestcaseId(5)), TestPriority::Basic);
    }

    #[test]
    fn fleet_history_promotes_to_active() {
        let mut book = PriorityBook::new();
        book.record_fleet_detection(TestcaseId(5));
        assert_eq!(book.priority(1, TestcaseId(5)), TestPriority::Active);
        assert_eq!(book.priority(2, TestcaseId(5)), TestPriority::Active);
    }

    #[test]
    fn processor_history_promotes_to_suspected_locally() {
        let mut book = PriorityBook::new();
        book.record_processor_detection(1, TestcaseId(7));
        assert_eq!(book.priority(1, TestcaseId(7)), TestPriority::Suspected);
        // Other processors only see it as fleet-active.
        assert_eq!(book.priority(2, TestcaseId(7)), TestPriority::Active);
        assert_eq!(book.suspected_of(1), vec![TestcaseId(7)]);
        assert!(book.suspected_of(2).is_empty());
    }

    #[test]
    fn priorities_are_ordered() {
        assert!(TestPriority::Suspected > TestPriority::Active);
        assert!(TestPriority::Active > TestPriority::Basic);
    }
}
