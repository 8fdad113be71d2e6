//! The test-timing lifecycle of Figure 1.

use sdc_model::Duration;

/// The four test timings of Figure 1 / Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// After the manufactured chip is shipped to the cloud provider.
    Factory,
    /// After delivery to the datacenter.
    Datacenter,
    /// After system re-installation, right before production.
    Reinstall,
    /// Periodic in-production rounds (every three months, in groups).
    Regular,
}

serde::impl_json_unit_enum!(Stage {
    Factory,
    Datacenter,
    Reinstall,
    Regular,
});

impl Stage {
    /// Pre-production stages in lifecycle order, followed by `Regular`.
    pub const ORDER: [Stage; 4] = [
        Stage::Factory,
        Stage::Datacenter,
        Stage::Reinstall,
        Stage::Regular,
    ];

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Factory => "Factory",
            Stage::Datacenter => "Datacenter",
            Stage::Reinstall => "Re-install",
            Stage::Regular => "Regular",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Intensity of one stage's toolchain pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// The stage this spec describes.
    pub stage: Stage,
    /// Equal per-testcase duration (the baseline policy: "each testcase is
    /// allocated with equal test duration specified by the administrator").
    pub per_testcase: Duration,
    /// Package temperature offset against the workload's natural steady
    /// state: negative for actively cooled test benches (factory testers),
    /// positive for burn-in environments.
    pub temp_offset_c: f64,
    /// Test every `suite_stride`-th testcase (1 = the full suite); quick
    /// smoke passes use a sparse stride.
    pub suite_stride: usize,
    /// Fleet age (years since factory delivery) when this stage runs;
    /// defects that have not yet *activated* (early-life degradation) are
    /// silent — the mechanism behind processors that pass pre-production
    /// tests and "even several rounds of regular tests" (Observation 2).
    pub age_years: f64,
}

impl StageSpec {
    /// The calibrated default pipeline.
    ///
    /// Relative intensities are tuned so the *detected* share per stage
    /// approximates Table 1: a quick factory screen, a cursory datacenter
    /// sanity pass, a heavyweight burn-in screen at re-installation (the
    /// dominant catcher, 2.306‱ of 3.61‱), and periodic moderate
    /// regular rounds that pick up what escaped.
    pub fn default_pipeline() -> Vec<StageSpec> {
        vec![
            StageSpec {
                stage: Stage::Factory,
                per_testcase: Duration::from_secs(6),
                temp_offset_c: -20.0, // actively cooled test bench
                suite_stride: 1,
                age_years: 0.0,
            },
            StageSpec {
                stage: Stage::Datacenter,
                per_testcase: Duration::from_millis(1500),
                temp_offset_c: -10.0, // staging racks, light load
                suite_stride: 4,      // quick smoke pass
                age_years: 0.02,
            },
            StageSpec {
                stage: Stage::Reinstall,
                per_testcase: Duration::from_secs(120),
                temp_offset_c: 6.0, // burn-in
                suite_stride: 1,
                age_years: 0.12,
            },
            StageSpec {
                stage: Stage::Regular,
                per_testcase: Duration::from_secs(15),
                temp_offset_c: 2.0, // production ambient
                suite_stride: 1,
                age_years: 0.25, // first round; subsequent rounds every 3 months
            },
        ]
    }

    /// Number of regular rounds a processor of `age_years` has been
    /// through (one round every three months).
    pub fn regular_rounds(age_years: f64) -> u32 {
        (age_years * 4.0).floor().max(0.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_labels() {
        assert_eq!(Stage::ORDER[0], Stage::Factory);
        assert_eq!(Stage::ORDER[3], Stage::Regular);
        assert_eq!(Stage::Reinstall.label(), "Re-install");
    }

    #[test]
    fn default_pipeline_covers_all_stages() {
        let p = StageSpec::default_pipeline();
        assert_eq!(p.len(), 4);
        for (spec, stage) in p.iter().zip(Stage::ORDER) {
            assert_eq!(spec.stage, stage);
        }
        // Re-install is the heavyweight screen.
        assert!(p[2].per_testcase > p[0].per_testcase * 10);
        assert!(p[1].per_testcase < p[0].per_testcase);
    }

    #[test]
    fn regular_rounds_follow_age() {
        assert_eq!(StageSpec::regular_rounds(0.1), 0);
        assert_eq!(StageSpec::regular_rounds(1.0), 4);
        assert_eq!(StageSpec::regular_rounds(2.7), 10);
    }
}
