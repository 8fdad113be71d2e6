//! The columnar record corpus: the study's `Vec<SdcRecord>` re-shaped
//! once into struct-of-arrays columns, sorted and indexed by setting.
//!
//! Every figure module used to re-walk the record vector per call,
//! rebuilding a `HashMap<SettingId, Vec<&SdcRecord>>` each time. A
//! [`RecordCorpus`] is built once per study and the passes in
//! [`crate::patterns`], [`crate::bitflips`], [`crate::datatypes`] and
//! [`crate::observations`] run over its columns: contiguous scans, no
//! per-call grouping, and deterministic setting-sorted output for free.
//!
//! Every statistic computed here is value-identical to the record-slice
//! implementation it replaced (the slice entry points now delegate to a
//! corpus, so the unit tests in each figure module pin both layers).

use crate::bitflips::BitBin;
use crate::patterns::{FlipMultiplicity, SettingPatterns, PATTERN_THRESHOLD};
use crate::study::StudyData;
use sdc_model::{DataType, Duration, SdcRecord, SdcType, SettingId};
use std::ops::Range;

/// Column-oriented view of a set of SDC records, sorted by setting.
///
/// Rows are stable-sorted by [`SettingId`]; `groups` holds one
/// `(setting, row-range)` per distinct setting, in ascending order.
/// The `masks` column stores the width-masked XOR of expected and
/// actual (exactly [`SdcRecord::mask`]), so flip statistics never
/// touch the raw values again.
#[derive(Debug, Clone, Default)]
pub struct RecordCorpus {
    settings: Vec<SettingId>,
    kinds: Vec<SdcType>,
    datatypes: Vec<DataType>,
    /// Width-masked flip mask per row ([`SdcRecord::mask`]).
    masks: Vec<u128>,
    /// Expected value per row (flip directions need its bits).
    expecteds: Vec<u128>,
    temps: Vec<f64>,
    ats: Vec<Duration>,
    /// Per-setting row ranges, ascending by setting.
    groups: Vec<(SettingId, Range<usize>)>,
}

impl RecordCorpus {
    /// Builds a corpus from a record slice.
    pub fn from_records(records: &[SdcRecord]) -> Self {
        Self::collect(records)
    }

    /// Builds a corpus from any record iterator (e.g.
    /// [`StudyData::all_records`]).
    pub fn collect<'a>(records: impl IntoIterator<Item = &'a SdcRecord>) -> Self {
        let refs: Vec<&SdcRecord> = records.into_iter().collect();
        let mut order: Vec<u32> = (0..refs.len() as u32).collect();
        // Stable: rows of one setting keep their original order.
        order.sort_by_key(|&i| refs[i as usize].setting);

        let n = refs.len();
        let mut c = RecordCorpus {
            settings: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            datatypes: Vec::with_capacity(n),
            masks: Vec::with_capacity(n),
            expecteds: Vec::with_capacity(n),
            temps: Vec::with_capacity(n),
            ats: Vec::with_capacity(n),
            groups: Vec::new(),
        };
        for &i in &order {
            let r = refs[i as usize];
            c.settings.push(r.setting);
            c.kinds.push(r.kind);
            c.datatypes.push(r.datatype);
            c.masks.push(r.mask());
            c.expecteds.push(r.expected);
            c.temps.push(r.temp_c);
            c.ats.push(r.at);
        }
        let mut start = 0usize;
        while start < n {
            let setting = c.settings[start];
            let mut end = start + 1;
            while end < n && c.settings[end] == setting {
                end += 1;
            }
            c.groups.push((setting, start..end));
            start = end;
        }
        c
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.settings.len()
    }

    /// True when the corpus has no rows.
    pub fn is_empty(&self) -> bool {
        self.settings.is_empty()
    }

    /// Per-setting `(setting, row-range)` index, ascending by setting.
    pub fn groups(&self) -> &[(SettingId, Range<usize>)] {
        &self.groups
    }

    /// The setting column (sorted).
    pub fn settings(&self) -> &[SettingId] {
        &self.settings
    }

    /// The temperature column, row-aligned with [`Self::settings`].
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// The virtual-time column, row-aligned with [`Self::settings`].
    pub fn ats(&self) -> &[Duration] {
        &self.ats
    }

    fn is_computation(&self, row: usize) -> bool {
        self.kinds[row] == SdcType::Computation
    }

    /// Figures 6–7 pattern mining (see [`crate::patterns`]): groups
    /// computation records per setting and mines mask patterns.
    ///
    /// One entry per setting with at least one computation record, in
    /// ascending setting order; `patterns` masks are ascending (the
    /// slice implementation's hash order was arbitrary — every derived
    /// statistic is set-based, so values are unchanged).
    pub fn mine_patterns(&self) -> Vec<SettingPatterns> {
        let mut out = Vec::new();
        let mut scratch: Vec<u128> = Vec::new();
        for (setting, range) in &self.groups {
            scratch.clear();
            scratch.extend(
                range
                    .clone()
                    .filter(|&row| self.is_computation(row))
                    .map(|row| self.masks[row]),
            );
            let n = scratch.len();
            if n == 0 {
                continue;
            }
            scratch.sort_unstable();
            // Run-length counting over the sorted masks replaces the
            // per-setting HashMap<u128, usize>.
            let threshold = (n as f64 * PATTERN_THRESHOLD).max(1.0);
            let mut patterns: Vec<u128> = Vec::new();
            let mut matched = 0usize;
            let mut i = 0usize;
            while i < n {
                let mask = scratch[i];
                let mut j = i + 1;
                while j < n && scratch[j] == mask {
                    j += 1;
                }
                let count = j - i;
                if count as f64 >= threshold && n > 1 {
                    patterns.push(mask);
                    matched += count;
                }
                i = j;
            }
            out.push(SettingPatterns {
                setting: *setting,
                n_records: n,
                patterns,
                pattern_share: matched as f64 / n.max(1) as f64,
            });
        }
        out
    }

    /// Figure 7 for `dt` (see [`crate::patterns`]): the distribution of
    /// flipped-bit counts among records carrying a pattern.
    pub fn flip_multiplicity(&self, dt: DataType) -> FlipMultiplicity {
        self.flip_multiplicity_with(&self.mine_patterns(), dt)
    }

    /// [`Self::flip_multiplicity`] reusing already-mined patterns (they
    /// must come from this corpus's [`Self::mine_patterns`]).
    pub fn flip_multiplicity_with(
        &self,
        mined: &[SettingPatterns],
        dt: DataType,
    ) -> FlipMultiplicity {
        let mut counts = [0u64; 3];
        // Both `groups` and `mined` ascend by setting; `mined` skips
        // settings without computation records, so walk them in step.
        let mut m = mined.iter().peekable();
        for (setting, range) in &self.groups {
            while m.next_if(|s| s.setting < *setting).is_some() {}
            let Some(s) = m.peek().filter(|s| s.setting == *setting) else {
                continue;
            };
            for row in range.clone() {
                if !self.is_computation(row) || self.datatypes[row] != dt {
                    continue;
                }
                if !s.patterns.contains(&self.masks[row]) {
                    continue;
                }
                match self.masks[row].count_ones() {
                    0 => {}
                    1 => counts[0] += 1,
                    2 => counts[1] += 1,
                    _ => counts[2] += 1,
                }
            }
        }
        let total = (counts[0] + counts[1] + counts[2]).max(1) as f64;
        FlipMultiplicity {
            datatype: dt,
            one: counts[0] as f64 / total,
            two: counts[1] as f64 / total,
            more: counts[2] as f64 / total,
        }
    }

    /// Figure 4/5 per-bit flip histogram for computation records of
    /// `dt` (see [`crate::bitflips`]).
    pub fn bit_histogram(&self, dt: DataType) -> Vec<BitBin> {
        let bits = dt.bits();
        let mut up = vec![0u64; bits as usize];
        let mut down = vec![0u64; bits as usize];
        let mut total = 0u64;
        for row in 0..self.len() {
            if !self.is_computation(row) || self.datatypes[row] != dt {
                continue;
            }
            // The stored mask is width-masked, so every set bit is a
            // flip at an index below `bits`.
            let mut mask = self.masks[row];
            let expected = self.expecteds[row];
            while mask != 0 {
                let idx = mask.trailing_zeros();
                if (expected >> idx) & 1 == 0 {
                    up[idx as usize] += 1;
                } else {
                    down[idx as usize] += 1;
                }
                total += 1;
                mask &= mask - 1;
            }
        }
        let total = total.max(1) as f64;
        (0..bits)
            .map(|index| BitBin {
                index,
                zero_to_one: up[index as usize] as f64 / total,
                one_to_zero: down[index as usize] as f64 / total,
            })
            .collect()
    }

    /// Fraction of all computation flips going 0→1 (the paper reports
    /// 51.08%; see [`crate::bitflips`]).
    pub fn zero_to_one_share(&self) -> f64 {
        let mut up = 0u64;
        let mut total = 0u64;
        for row in 0..self.len() {
            if !self.is_computation(row) {
                continue;
            }
            let mask = self.masks[row];
            total += u64::from(mask.count_ones());
            up += u64::from((mask & !self.expecteds[row]).count_ones());
        }
        up as f64 / total.max(1) as f64
    }

    /// Fraction of `dt` flips landing in the float fraction part
    /// (Observation 7's "bitflips predominantly occur in the fraction";
    /// see [`crate::bitflips`]).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not a float format.
    pub fn fraction_part_share(&self, dt: DataType) -> f64 {
        let frac_bits = dt.fraction_bits().expect("float datatype");
        self.bit_histogram(dt)
            .iter()
            .filter(|b| b.index < frac_bits)
            .map(|b| b.zero_to_one + b.one_to_zero)
            .sum()
    }
}

/// Per-case facts the record columns cannot answer: test fixtures (and
/// in principle re-used CPU ids) allow distinct cases to share a
/// [`sdc_model::CpuId`], so "processors affected" statistics must count
/// cases, not settings.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseSummary {
    /// Bitmask of computation-record datatypes, bit = discriminant.
    pub comp_datatypes: u16,
    /// The case has at least one computation record.
    pub has_computation: bool,
    /// The case has at least one consistency record.
    pub has_consistency: bool,
}

impl CaseSummary {
    /// True when the case has a computation record of `dt`.
    pub fn has_comp_datatype(&self, dt: DataType) -> bool {
        self.comp_datatypes & (1u16 << dt as u16) != 0
    }
}

/// A whole study, columnarized: every record in one [`RecordCorpus`]
/// plus one [`CaseSummary`] per studied processor (in case order).
#[derive(Debug, Clone, Default)]
pub struct StudyCorpus {
    /// All records across cases, setting-sorted.
    pub records: RecordCorpus,
    /// One summary per case, in [`StudyData::cases`] order.
    pub cases: Vec<CaseSummary>,
}

impl StudyData {
    /// Builds the columnar corpus: one pass over every case's records.
    pub fn corpus(&self) -> StudyCorpus {
        let records = RecordCorpus::collect(self.all_records());
        let cases = self
            .cases
            .iter()
            .map(|case| {
                let mut s = CaseSummary::default();
                for r in &case.records {
                    if r.is_computation() {
                        s.has_computation = true;
                        s.comp_datatypes |= 1u16 << r.datatype as u16;
                    } else {
                        s.has_consistency = true;
                    }
                }
                s
            })
            .collect();
        StudyCorpus { records, cases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_model::{CoreId, CpuId, TestcaseId};

    fn rec(tc: u32, kind: SdcType, dt: DataType, expected: u128, actual: u128) -> SdcRecord {
        SdcRecord {
            setting: SettingId {
                cpu: CpuId(1),
                core: CoreId(0),
                testcase: TestcaseId(tc),
            },
            kind,
            datatype: dt,
            expected,
            actual,
            temp_c: 50.0,
            at: Duration::ZERO,
        }
    }

    #[test]
    fn groups_are_sorted_and_cover_all_rows() {
        let records = vec![
            rec(3, SdcType::Computation, DataType::I32, 0, 1),
            rec(1, SdcType::Computation, DataType::I32, 0, 2),
            rec(3, SdcType::Consistency, DataType::Bin64, 0, 4),
            rec(1, SdcType::Computation, DataType::F64, 0, 8),
        ];
        let c = RecordCorpus::from_records(&records);
        assert_eq!(c.len(), 4);
        assert_eq!(c.groups().len(), 2);
        assert!(c.groups()[0].0 < c.groups()[1].0);
        let covered: usize = c.groups().iter().map(|(_, r)| r.len()).sum();
        assert_eq!(covered, 4);
        // Stable within a setting: testcase 1's rows keep insertion order.
        let (_, r1) = &c.groups()[0];
        assert_eq!(c.datatypes[r1.start], DataType::I32);
        assert_eq!(c.datatypes[r1.start + 1], DataType::F64);
    }

    /// The pre-corpus `mine_patterns`: per-call `HashMap` grouping over
    /// a record slice. Kept here as the differential reference.
    fn mine_patterns_reference(records: &[SdcRecord]) -> Vec<SettingPatterns> {
        use std::collections::HashMap;
        let mut by_setting: HashMap<SettingId, Vec<&SdcRecord>> = HashMap::new();
        for r in records {
            if r.is_computation() {
                by_setting.entry(r.setting).or_default().push(r);
            }
        }
        let mut out: Vec<SettingPatterns> = by_setting
            .into_iter()
            .map(|(setting, rs)| {
                let n = rs.len();
                let mut mask_counts: HashMap<u128, usize> = HashMap::new();
                for r in &rs {
                    *mask_counts.entry(r.mask()).or_insert(0) += 1;
                }
                let threshold = (n as f64 * PATTERN_THRESHOLD).max(1.0);
                let patterns: Vec<u128> = mask_counts
                    .iter()
                    .filter(|&(_, &c)| c as f64 >= threshold && n > 1)
                    .map(|(&m, _)| m)
                    .collect();
                let matched: usize = mask_counts
                    .iter()
                    .filter(|(m, _)| patterns.contains(m))
                    .map(|(_, &c)| c)
                    .sum();
                SettingPatterns {
                    setting,
                    n_records: n,
                    patterns,
                    pattern_share: matched as f64 / n.max(1) as f64,
                }
            })
            .collect();
        out.sort_by_key(|s| s.setting);
        out
    }

    #[test]
    fn corpus_passes_match_reference_passes() {
        // A mixed corpus: dominant mask, noise masks, a consistency
        // record and a second setting.
        let mut records = Vec::new();
        for i in 0..40u128 {
            records.push(rec(1, SdcType::Computation, DataType::I32, i, i ^ 0b100));
        }
        for i in 0..4u128 {
            records.push(rec(
                1,
                SdcType::Computation,
                DataType::I32,
                i,
                i ^ (1 << (8 + i)),
            ));
        }
        records.push(rec(1, SdcType::Consistency, DataType::Bin64, 0, 1));
        for i in 0..10u128 {
            records.push(rec(2, SdcType::Computation, DataType::F64, i, i ^ 0b11));
        }
        let c = RecordCorpus::from_records(&records);

        let mined_ref = mine_patterns_reference(&records);
        let mined = c.mine_patterns();
        assert_eq!(mined.len(), mined_ref.len());
        for (a, b) in mined.iter().zip(&mined_ref) {
            assert_eq!(a.setting, b.setting);
            assert_eq!(a.n_records, b.n_records);
            assert_eq!(a.pattern_share, b.pattern_share);
            let mut bp = b.patterns.clone();
            bp.sort_unstable();
            assert_eq!(a.patterns, bp, "patterns ascend");
        }

        // Flip counting against the record-level iterator API.
        let hist = c.bit_histogram(DataType::I32);
        let mut up = vec![0u64; DataType::I32.bits() as usize];
        let mut down = vec![0u64; DataType::I32.bits() as usize];
        let mut total = 0u64;
        let mut up_all = 0u64;
        let mut total_all = 0u64;
        for r in records.iter().filter(|r| r.is_computation()) {
            for (idx, dir) in r.flips() {
                let is_up = dir == sdc_model::FlipDirection::ZeroToOne;
                if r.datatype == DataType::I32 {
                    if is_up {
                        up[idx as usize] += 1;
                    } else {
                        down[idx as usize] += 1;
                    }
                    total += 1;
                }
                up_all += u64::from(is_up);
                total_all += 1;
            }
        }
        for b in &hist {
            assert_eq!(b.zero_to_one, up[b.index as usize] as f64 / total as f64);
            assert_eq!(b.one_to_zero, down[b.index as usize] as f64 / total as f64);
        }
        assert_eq!(c.zero_to_one_share(), up_all as f64 / total_all as f64);
        assert!(c.fraction_part_share(DataType::F64) > 0.0);
    }

    #[test]
    fn empty_corpus_is_safe() {
        let c = RecordCorpus::from_records(&[]);
        assert!(c.is_empty());
        assert!(c.mine_patterns().is_empty());
        assert_eq!(c.zero_to_one_share(), 0.0);
        let m = c.flip_multiplicity(DataType::F64);
        assert_eq!((m.one, m.two, m.more), (0.0, 0.0, 0.0));
    }

    #[test]
    fn case_summary_tracks_datatypes_per_case() {
        use crate::study::CaseData;
        let case = |records: Vec<SdcRecord>| CaseData {
            name: "X",
            processor: silicon::catalog::by_name("SIMD1").unwrap().processor,
            failing: vec![],
            tested: vec![],
            records,
            freq_per_setting: vec![],
        };
        let study = StudyData {
            cases: vec![
                case(vec![rec(1, SdcType::Computation, DataType::F64, 0, 1)]),
                case(vec![rec(1, SdcType::Consistency, DataType::Bin64, 0, 1)]),
            ],
        };
        let sc = study.corpus();
        assert_eq!(sc.cases.len(), 2);
        assert!(sc.cases[0].has_comp_datatype(DataType::F64));
        assert!(!sc.cases[0].has_comp_datatype(DataType::I32));
        assert!(sc.cases[0].has_computation && !sc.cases[0].has_consistency);
        assert!(sc.cases[1].has_consistency && !sc.cases[1].has_computation);
        // Both cases share CpuId(1): the merged record corpus sees one
        // setting, but per-case stats still see two cases.
        assert_eq!(sc.records.len(), 2);
    }
}
