//! Identifiers for processors, cores, testcases, and study settings.

use std::fmt;

/// Identifier of a processor (a physical CPU package) in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u64);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Identifier of a physical core within a processor.
///
/// Multiple hardware threads (logical cores) may share one physical core;
/// the study attributes defects to physical cores (Observation 4), so this
/// is the granularity used throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcore{}", self.0)
    }
}

/// Identifier of a testcase in the toolchain (the paper's toolchain has 633).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TestcaseId(pub u32);

impl fmt::Display for TestcaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tc{}", self.0)
    }
}

/// A micro-architecture generation, `M1`–`M9` in the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchId(pub u8);

impl ArchId {
    /// Number of micro-architectures in the studied fleet (Table 2).
    pub const COUNT: usize = 9;

    /// All micro-architectures `M1..=M9`.
    pub fn all() -> impl Iterator<Item = ArchId> {
        (1..=Self::COUNT as u8).map(ArchId)
    }
}

impl fmt::Display for ArchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A *setting*: the combination of a processor, one of its cores, and a
/// testcase.
///
/// The paper measures occurrence frequency and bitflip patterns per setting
/// (Section 5): "Since the occurrence frequency depends on both the CPU and
/// the workload (i.e., testcase), we record the occurrence frequency per
/// setting."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SettingId {
    /// The processor under test.
    pub cpu: CpuId,
    /// The physical core under test.
    pub core: CoreId,
    /// The testcase being executed.
    pub testcase: TestcaseId,
}

impl fmt::Display for SettingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.cpu, self.core, self.testcase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(CoreId(1).to_string(), "pcore1");
        assert_eq!(TestcaseId(10).to_string(), "tc10");
        assert_eq!(ArchId(2).to_string(), "M2");
        let s = SettingId {
            cpu: CpuId(1),
            core: CoreId(0),
            testcase: TestcaseId(7),
        };
        assert_eq!(s.to_string(), "cpu1/pcore0/tc7");
    }

    #[test]
    fn arch_all_covers_table2() {
        let archs: Vec<_> = ArchId::all().collect();
        assert_eq!(archs.len(), 9);
        assert_eq!(archs[0], ArchId(1));
        assert_eq!(archs[8], ArchId(9));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(CpuId(1) < CpuId(2));
        assert!(TestcaseId(632) > TestcaseId(0));
    }
}
