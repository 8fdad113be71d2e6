//! Coverage and attrition reporting for supervised campaigns.
//!
//! A chaos-exposed campaign ends with partial results: some defective
//! processors completed their lifecycle walk (possibly after retries),
//! some were lost to operational faults. This module shapes the
//! supervision accounting into the summary block the repro binary
//! prints next to Table 1 — how much of the fleet the campaign actually
//! covered, what interrupted it, and how much backoff it accrued.

use fleet::chaos::OpFault;
use fleet::supervisor::AttritionStats;
use fleet::SupervisedCampaign;

/// Coverage/attrition of one supervised run, shaped for display.
#[derive(Debug, Clone, PartialEq)]
pub struct AttritionReport {
    /// Aggregated supervision accounting.
    pub stats: AttritionStats,
    /// Population indices of the lost slots, ascending.
    pub lost_items: Vec<u64>,
}

impl AttritionReport {
    /// Builds the report from a supervised campaign outcome.
    pub fn of(campaign: &SupervisedCampaign) -> AttritionReport {
        AttritionReport::from_parts(campaign.attrition, campaign.lost.clone())
    }

    /// Builds the report from raw parts (the Farron evaluation tracks
    /// window-level attrition without item indices).
    pub fn from_parts(stats: AttritionStats, mut lost_items: Vec<u64>) -> AttritionReport {
        lost_items.sort_unstable();
        AttritionReport { stats, lost_items }
    }

    /// Fraction of slots that completed.
    pub fn coverage(&self) -> f64 {
        self.stats.coverage()
    }

    /// Fault kinds observed at least once, with their counts, in
    /// [`OpFault::index`] order.
    pub fn faults(&self) -> Vec<(OpFault, u64)> {
        OpFault::ALL
            .iter()
            .map(|&f| (f, self.stats.faults_by_kind[f.index()]))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

impl std::fmt::Display for AttritionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "coverage: {}/{} slots completed ({:.2}%)",
            s.completed,
            s.items,
            self.coverage() * 100.0
        )?;
        writeln!(
            f,
            "retries:  {} extra attempts, {:.1} s accounted backoff",
            s.retries, s.backoff_secs
        )?;
        let faults = self.faults();
        if faults.is_empty() {
            writeln!(f, "faults:   none")?;
        } else {
            write!(f, "faults:   ")?;
            for (i, (kind, n)) in faults.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{kind} x{n}")?;
            }
            writeln!(f)?;
        }
        if s.lost == 0 {
            write!(f, "lost:     none")?;
        } else if self.lost_items.is_empty() {
            // Window-level attrition (the Farron evaluation) has no
            // population indices to name.
            write!(f, "lost:     {} slot(s)", s.lost)?;
        } else {
            write!(f, "lost:     {} slot(s), population indices ", s.lost)?;
            for (i, idx) in self.lost_items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{idx}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> AttritionStats {
        let mut s = AttritionStats {
            items: 400,
            completed: 398,
            lost: 2,
            retries: 37,
            backoff_secs: 1843.25,
            ..AttritionStats::default()
        };
        s.faults_by_kind[OpFault::MachineOffline.index()] = 12;
        s.faults_by_kind[OpFault::Preempted.index()] = 25;
        s
    }

    #[test]
    fn report_orders_lost_items_and_filters_faults() {
        let report = AttritionReport::from_parts(stats(), vec![388, 113]);
        assert_eq!(report.lost_items, vec![113, 388]);
        assert_eq!(
            report.faults(),
            vec![(OpFault::MachineOffline, 12), (OpFault::Preempted, 25)]
        );
        assert!((report.coverage() - 0.995).abs() < 1e-12);
    }

    #[test]
    fn display_names_every_section() {
        let text = AttritionReport::from_parts(stats(), vec![388, 113]).to_string();
        assert!(text.contains("398/400"), "{text}");
        assert!(text.contains("machine-offline x12"), "{text}");
        assert!(text.contains("113, 388"), "{text}");
        let quiet = AttritionReport::from_parts(AttritionStats::default(), Vec::new()).to_string();
        assert!(quiet.contains("faults:   none"), "{quiet}");
        assert!(quiet.contains("lost:     none"), "{quiet}");
        // Window-level attrition: lost slots counted even without indices.
        let indexless = AttritionReport::from_parts(stats(), Vec::new()).to_string();
        assert!(indexless.contains("lost:     2 slot(s)"), "{indexless}");
    }
}
