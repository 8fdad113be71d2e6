//! Processor packages.

use crate::arch;
use crate::defect::Defect;
use sdc_model::{ArchId, CoreId, CpuId, Feature, SdcType};
use std::collections::BTreeSet;

/// A processor package in the fleet, possibly defective.
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    /// Fleet-wide identity.
    pub id: CpuId,
    /// Micro-architecture generation.
    pub arch: ArchId,
    /// Age in years at study time (Table 3's `age(Y)` column).
    pub age_years: f64,
    /// Physical core count.
    pub physical_cores: u16,
    /// Hardware threads per physical core.
    pub smt: u8,
    /// Manufacturing defects (empty for a healthy processor).
    pub defects: Vec<Defect>,
}

impl Processor {
    /// A healthy processor of the given architecture.
    pub fn healthy(id: CpuId, arch_id: ArchId, age_years: f64) -> Processor {
        let info = arch::info(arch_id);
        Processor {
            id,
            arch: arch_id,
            age_years,
            physical_cores: info.physical_cores,
            smt: info.smt,
            defects: Vec::new(),
        }
    }

    /// True if the processor carries at least one defect.
    pub fn is_faulty(&self) -> bool {
        !self.defects.is_empty()
    }

    /// The set of defective physical cores (union over defects).
    pub fn defective_cores(&self) -> Vec<CoreId> {
        let mut set = BTreeSet::new();
        for d in &self.defects {
            for c in d.scope.affected_cores(self.physical_cores) {
                set.insert(c);
            }
        }
        set.into_iter().map(CoreId).collect()
    }

    /// The SDC type of this processor's defects.
    ///
    /// The paper observes that when one processor has multiple defective
    /// features they always belong to one type; the catalog and samplers
    /// uphold that invariant, and this method reports it (`None` for a
    /// healthy processor).
    pub fn sdc_type(&self) -> Option<SdcType> {
        self.defects.first().map(|d| {
            if d.kind.is_computation() {
                SdcType::Computation
            } else {
                SdcType::Consistency
            }
        })
    }

    /// The vulnerable features touched by this processor's defects.
    pub fn defective_features(&self) -> Vec<Feature> {
        let mut set = BTreeSet::new();
        for d in &self.defects {
            match &d.kind {
                crate::defect::DefectKind::Computation { classes, .. } => {
                    for c in classes {
                        if let Some(f) = c.feature() {
                            set.insert(f);
                        }
                    }
                }
                crate::defect::DefectKind::CoherenceDrop => {
                    set.insert(Feature::Cache);
                }
                crate::defect::DefectKind::TxIsolation => {
                    set.insert(Feature::TrxMem);
                }
            }
        }
        set.into_iter().collect()
    }

    /// Logical core count (hardware threads).
    pub fn logical_cores(&self) -> u16 {
        self.physical_cores * self.smt as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::{DefectKind, DefectScope, Trigger};
    use sdc_model::DataType;
    use softcore::InstClass;

    fn comp_defect(core: u16, class: InstClass) -> Defect {
        Defect::new(
            DefectKind::Computation {
                classes: vec![class],
                datatypes: vec![DataType::F32],
                patterns: vec![],
                pattern_dt: DataType::Bin64,
                random_mask_prob: 1.0,
            },
            DefectScope::SingleCore(core),
            Trigger::flat(0.01),
        )
    }

    #[test]
    fn healthy_processor() {
        let p = Processor::healthy(CpuId(1), ArchId(2), 1.0);
        assert!(!p.is_faulty());
        assert_eq!(p.sdc_type(), None);
        assert!(p.defective_cores().is_empty());
        assert_eq!(p.physical_cores, 16);
        assert_eq!(p.logical_cores(), 32);
    }

    #[test]
    fn defective_cores_union() {
        let mut p = Processor::healthy(CpuId(1), ArchId(2), 1.0);
        p.defects.push(comp_defect(3, InstClass::VecFma));
        p.defects.push(comp_defect(3, InstClass::FloatMul));
        p.defects.push(comp_defect(7, InstClass::FloatAdd));
        assert_eq!(p.defective_cores(), vec![CoreId(3), CoreId(7)]);
    }

    #[test]
    fn sdc_type_and_features() {
        let mut p = Processor::healthy(CpuId(1), ArchId(3), 1.0);
        p.defects.push(Defect::new(
            DefectKind::TxIsolation,
            DefectScope::SingleCore(0),
            Trigger::flat(0.05),
        ));
        assert_eq!(p.sdc_type(), Some(SdcType::Consistency));
        assert_eq!(p.defective_features(), vec![Feature::TrxMem]);
    }

    #[test]
    fn computation_features_derive_from_classes() {
        let mut p = Processor::healthy(CpuId(1), ArchId(2), 1.0);
        p.defects.push(comp_defect(0, InstClass::VecFma));
        p.defects.push(comp_defect(0, InstClass::FloatAtan));
        assert_eq!(p.defective_features(), vec![Feature::VecUnit, Feature::Fpu]);
        assert_eq!(p.sdc_type(), Some(SdcType::Computation));
    }
}
