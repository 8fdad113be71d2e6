//! Figure 3: the proportion of faulty processors per affected datatype.
//!
//! A processor counts toward a datatype when its collected computation
//! SDC records include a corrupted operation result of that datatype.

use crate::corpus::StudyCorpus;
use crate::study::StudyData;
use sdc_model::DataType;

/// One Figure 3 bar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatatypeShare {
    /// The operation datatype.
    pub datatype: DataType,
    /// Fraction of studied faulty processors with records of it.
    pub proportion: f64,
}

/// Computes Figure 3 from study data (builds [`StudyData::corpus`] on
/// the fly; use [`figure3_from`] when a [`StudyCorpus`] is already in
/// hand).
pub fn figure3(study: &StudyData) -> Vec<DatatypeShare> {
    figure3_from(&study.corpus())
}

/// [`figure3`] from an already-built [`StudyCorpus`]: reads the
/// per-case datatype bitmasks, touching no records at all.
pub fn figure3_from(corpus: &StudyCorpus) -> Vec<DatatypeShare> {
    let n = corpus.cases.len().max(1) as f64;
    DataType::ALL
        .iter()
        .map(|&datatype| {
            let count = corpus
                .cases
                .iter()
                .filter(|c| c.has_comp_datatype(datatype))
                .count();
            DatatypeShare {
                datatype,
                proportion: count as f64 / n,
            }
        })
        .collect()
}

/// The affected datatypes of one case (Table 3's "impacted datatypes").
pub fn datatypes_of_case(case: &crate::study::CaseData) -> Vec<DataType> {
    let mut seen = 0u16;
    for r in case.computation_records() {
        seen |= 1u16 << r.datatype as u16;
    }
    let mut v: Vec<DataType> = DataType::ALL
        .iter()
        .copied()
        .filter(|&dt| seen & (1u16 << dt as u16) != 0)
        .collect();
    v.sort();
    v
}

/// Observation 6's headline: float datatypes implicate more processors
/// than others. Returns (mean float proportion, mean non-float numeric
/// proportion).
pub fn float_vs_other_share(shares: &[DatatypeShare]) -> (f64, f64) {
    let float: Vec<f64> = shares
        .iter()
        .filter(|s| s.datatype.is_float())
        .map(|s| s.proportion)
        .collect();
    let other: Vec<f64> = shares
        .iter()
        .filter(|s| !s.datatype.is_float())
        .map(|s| s.proportion)
        .collect();
    (
        float.iter().sum::<f64>() / float.len().max(1) as f64,
        other.iter().sum::<f64>() / other.len().max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::CaseData;
    use sdc_model::{CoreId, CpuId, Duration, SdcRecord, SdcType, SettingId, TestcaseId};
    use silicon::catalog;

    fn record(dt: DataType) -> SdcRecord {
        SdcRecord {
            setting: SettingId {
                cpu: CpuId(1),
                core: CoreId(0),
                testcase: TestcaseId(0),
            },
            kind: SdcType::Computation,
            datatype: dt,
            expected: 1,
            actual: 2,
            temp_c: 50.0,
            at: Duration::ZERO,
        }
    }

    fn case_with(dts: &[DataType]) -> CaseData {
        CaseData {
            name: "X",
            processor: catalog::by_name("SIMD1").unwrap().processor,
            failing: vec![],
            tested: vec![],
            records: dts.iter().map(|&dt| record(dt)).collect(),
            freq_per_setting: vec![],
        }
    }

    #[test]
    fn figure3_counts_processors_not_records() {
        let study = StudyData {
            cases: vec![
                case_with(&[DataType::F64, DataType::F64, DataType::I32]),
                case_with(&[DataType::F64]),
            ],
        };
        let f3 = figure3(&study);
        let share = |dt: DataType| f3.iter().find(|s| s.datatype == dt).unwrap().proportion;
        assert_eq!(share(DataType::F64), 1.0, "both processors affected");
        assert_eq!(share(DataType::I32), 0.5);
        assert_eq!(share(DataType::Bin64), 0.0);
    }

    #[test]
    fn consistency_records_do_not_count() {
        let mut c = case_with(&[]);
        c.records.push(SdcRecord {
            kind: SdcType::Consistency,
            ..record(DataType::Bin64)
        });
        let study = StudyData { cases: vec![c] };
        let f3 = figure3(&study);
        assert!(f3.iter().all(|s| s.proportion == 0.0));
    }

    #[test]
    fn float_share_helper() {
        let study = StudyData {
            cases: vec![case_with(&[DataType::F32, DataType::F64, DataType::F64X])],
        };
        let (f, o) = float_vs_other_share(&figure3(&study));
        assert_eq!(f, 1.0);
        assert_eq!(o, 0.0);
    }

    #[test]
    fn figure3_from_counts_each_case_once() {
        let study = StudyData {
            cases: vec![
                case_with(&[DataType::F64, DataType::F64, DataType::I32]),
                case_with(&[DataType::Byte]),
                case_with(&[]),
            ],
        };
        let f3 = figure3_from(&study.corpus());
        let share = |dt: DataType| f3.iter().find(|s| s.datatype == dt).unwrap().proportion;
        for dt in [DataType::F64, DataType::I32, DataType::Byte] {
            assert_eq!(share(dt), 1.0 / 3.0, "{dt:?}");
        }
        assert_eq!(f3.iter().filter(|s| s.proportion > 0.0).count(), 3);
        assert_eq!(f3.len(), DataType::ALL.len());
    }

    #[test]
    fn datatypes_of_case_sorted_and_deduped() {
        let c = case_with(&[DataType::F64, DataType::I16, DataType::F64]);
        assert_eq!(datatypes_of_case(&c), vec![DataType::I16, DataType::F64]);
    }
}
