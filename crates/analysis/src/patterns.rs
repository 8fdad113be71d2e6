//! Figures 6 and 7: bitflip patterns.
//!
//! Observation 8: "bitflips tend to manifest at fixed position(s) within
//! the number representations." A *bitflip pattern* of a setting is a
//! mask (XOR of expected and actual) carried by at least 5% of the
//! setting's SDC records. Figure 6 reports, per (testcase × processor),
//! the proportion of records matching some pattern; Figure 7 the number
//! of flipped bits among pattern records per datatype.
//!
//! Both are computed on a record corpus:
//! [`RecordCorpus::mine_patterns`] groups computation records per
//! setting and mines mask patterns, and
//! [`RecordCorpus::flip_multiplicity`] computes Figure 7.
//!
//! [`RecordCorpus::mine_patterns`]: crate::corpus::RecordCorpus::mine_patterns
//! [`RecordCorpus::flip_multiplicity`]: crate::corpus::RecordCorpus::flip_multiplicity

use sdc_model::{DataType, SettingId};

/// The paper's pattern threshold (§4.3, Figure 6 / Observation 8): a
/// mask is a pattern if ≥5% of the setting's records carry it.
pub const PATTERN_THRESHOLD: f64 = 0.05;

/// Pattern analysis of one setting.
#[derive(Debug, Clone)]
pub struct SettingPatterns {
    /// The setting (CPU × core × testcase).
    pub setting: SettingId,
    /// Records in the setting.
    pub n_records: usize,
    /// The pattern masks (≥5% of records each).
    pub patterns: Vec<u128>,
    /// Fraction of records carrying some pattern (a Figure 6 cell).
    pub pattern_share: f64,
}

/// Figure 7: distribution of flipped-bit counts (1, 2, >2) among records
/// whose mask is one of their setting's patterns, for one datatype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipMultiplicity {
    /// The datatype.
    pub datatype: DataType,
    /// Share with exactly one flipped bit.
    pub one: f64,
    /// Share with exactly two flipped bits.
    pub two: f64,
    /// Share with more than two flipped bits.
    pub more: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::RecordCorpus;
    use sdc_model::{CoreId, CpuId, Duration, SdcRecord, SdcType, TestcaseId};

    fn mine_patterns(records: &[SdcRecord]) -> Vec<SettingPatterns> {
        RecordCorpus::from_records(records).mine_patterns()
    }

    fn rec(setting_tc: u32, expected: u128, actual: u128) -> SdcRecord {
        SdcRecord {
            setting: SettingId {
                cpu: CpuId(1),
                core: CoreId(0),
                testcase: TestcaseId(setting_tc),
            },
            kind: SdcType::Computation,
            datatype: DataType::I32,
            expected,
            actual,
            temp_c: 50.0,
            at: Duration::ZERO,
        }
    }

    #[test]
    fn dominant_mask_becomes_a_pattern() {
        let mut records = Vec::new();
        // 90 records with mask 0b100, 10 with unique random-ish masks.
        for i in 0..90u128 {
            records.push(rec(1, i, i ^ 0b100));
        }
        for i in 0..10u128 {
            records.push(rec(1, i, i ^ (1 << (10 + i))));
        }
        let mined = mine_patterns(&records);
        assert_eq!(mined.len(), 1);
        let s = &mined[0];
        assert!(s.patterns.contains(&0b100));
        assert!(
            (s.pattern_share - 0.9).abs() < 0.02,
            "share {}",
            s.pattern_share
        );
    }

    #[test]
    fn rare_masks_are_not_patterns() {
        // 100 distinct masks, 1% each: below the 5% threshold.
        let records: Vec<SdcRecord> = (0..100u128).map(|i| rec(2, 0, 1u128 << (i % 30))).collect();
        let mined = mine_patterns(&records);
        // Each distinct mask has ~3 occurrences out of 100 → under 5%.
        assert!(
            mined[0].pattern_share < 0.5,
            "share {}",
            mined[0].pattern_share
        );
    }

    #[test]
    fn settings_are_separate() {
        let mut records = Vec::new();
        for i in 0..20u128 {
            records.push(rec(1, i, i ^ 0b1));
            records.push(rec(2, i, i ^ 0b10));
        }
        let mined = mine_patterns(&records);
        assert_eq!(mined.len(), 2);
        assert_ne!(mined[0].patterns, mined[1].patterns);
    }

    #[test]
    fn multiplicity_counts_flips_of_pattern_records() {
        let mut records = Vec::new();
        for i in 0..50u128 {
            records.push(rec(1, i, i ^ 0b1)); // 1 bit
        }
        for i in 0..50u128 {
            records.push(rec(1, i, i ^ 0b110)); // 2 bits
        }
        let m = RecordCorpus::from_records(&records).flip_multiplicity(DataType::I32);
        assert!((m.one - 0.5).abs() < 1e-12);
        assert!((m.two - 0.5).abs() < 1e-12);
        assert_eq!(m.more, 0.0);
    }

    #[test]
    fn single_record_settings_have_no_patterns() {
        let records = vec![rec(9, 0, 1)];
        let mined = mine_patterns(&records);
        assert!(mined[0].patterns.is_empty());
        assert_eq!(mined[0].pattern_share, 0.0);
    }
}
