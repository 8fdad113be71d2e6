//! Figures 4(a–d) and 5: bitflip position histograms.
//!
//! For each bit index of a datatype, the proportion of (record, bit)
//! flips landing on it, split by direction. The paper's headline findings
//! (Observation 7): numerical datatypes rarely flip in the most
//! significant bits, floats flip overwhelmingly in the fraction part, and
//! non-numerical data flips roughly uniformly (Figure 5). About half of
//! all flips go 0→1.
//!
//! The histograms and direction shares are computed on a record corpus:
//! [`RecordCorpus::bit_histogram`], [`RecordCorpus::zero_to_one_share`]
//! and [`RecordCorpus::fraction_part_share`].
//!
//! [`RecordCorpus::bit_histogram`]: crate::corpus::RecordCorpus::bit_histogram
//! [`RecordCorpus::zero_to_one_share`]: crate::corpus::RecordCorpus::zero_to_one_share
//! [`RecordCorpus::fraction_part_share`]: crate::corpus::RecordCorpus::fraction_part_share

/// One histogram bin of Figure 4/5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitBin {
    /// Bit index (0 = least significant).
    pub index: u32,
    /// Fraction of flips at this index going 0→1.
    pub zero_to_one: f64,
    /// Fraction of flips at this index going 1→0.
    pub one_to_zero: f64,
}

/// Fraction of flips landing in the top `k` most significant bits.
pub fn msb_share(hist: &[BitBin], k: u32) -> f64 {
    let bits = hist.len() as u32;
    hist.iter()
        .filter(|b| b.index >= bits.saturating_sub(k))
        .map(|b| b.zero_to_one + b.one_to_zero)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::RecordCorpus;
    use sdc_model::{CoreId, CpuId, DataType, Duration, SdcRecord, SdcType, SettingId, TestcaseId};

    fn bit_histogram(records: &[SdcRecord], dt: DataType) -> Vec<BitBin> {
        RecordCorpus::from_records(records).bit_histogram(dt)
    }

    fn rec(dt: DataType, expected: u128, actual: u128) -> SdcRecord {
        SdcRecord {
            setting: SettingId {
                cpu: CpuId(1),
                core: CoreId(0),
                testcase: TestcaseId(0),
            },
            kind: SdcType::Computation,
            datatype: dt,
            expected,
            actual,
            temp_c: 50.0,
            at: Duration::ZERO,
        }
    }

    #[test]
    fn histogram_counts_positions_and_directions() {
        let records = vec![
            rec(DataType::Byte, 0b0000_0001, 0b0000_0011), // bit 1: 0→1
            rec(DataType::Byte, 0b0000_0010, 0b0000_0000), // bit 1: 1→0
        ];
        let h = bit_histogram(&records, DataType::Byte);
        assert_eq!(h.len(), 8);
        assert_eq!(h[1].zero_to_one, 0.5);
        assert_eq!(h[1].one_to_zero, 0.5);
        assert_eq!(h[0].zero_to_one + h[0].one_to_zero, 0.0);
    }

    #[test]
    fn histogram_filters_datatype_and_kind() {
        let mut other = rec(DataType::I32, 0, 1);
        other.kind = SdcType::Consistency;
        let records = vec![rec(DataType::Byte, 0, 1), rec(DataType::I32, 0, 1), other];
        let h = bit_histogram(&records, DataType::Byte);
        let total: f64 = h.iter().map(|b| b.zero_to_one + b.one_to_zero).sum();
        assert!((total - 1.0).abs() < 1e-12, "only the byte record counts");
    }

    #[test]
    fn direction_share() {
        let records = vec![
            rec(DataType::Byte, 0b01, 0b00), // 1→0
            rec(DataType::Byte, 0b00, 0b01), // 0→1
            rec(DataType::Byte, 0b00, 0b10), // 0→1
        ];
        let share = RecordCorpus::from_records(&records).zero_to_one_share();
        assert!((share - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_share_of_pure_fraction_flips_is_one() {
        // Flip bit 10 of an f64: well inside the 52-bit fraction.
        let e = 1.5f64.to_bits() as u128;
        let records = vec![rec(DataType::F64, e, e ^ (1 << 10))];
        let corpus = RecordCorpus::from_records(&records);
        assert_eq!(corpus.fraction_part_share(DataType::F64), 1.0);
    }

    #[test]
    fn msb_share_detects_high_flips() {
        let records = vec![rec(DataType::I32, 0, 1u128 << 31)];
        let h = bit_histogram(&records, DataType::I32);
        assert_eq!(msb_share(&h, 4), 1.0);
        assert_eq!(msb_share(&h, 1), 1.0);
    }
}
