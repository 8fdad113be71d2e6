//! Figures 8 and 9: temperature structure of SDC occurrence.
//!
//! Figure 8 sweeps controlled die temperatures for one setting and fits
//! `log10(frequency)` against temperature (the paper reports Pearson
//! correlations above 0.75 for six processors). Figure 9 scans each
//! setting's *minimum triggering temperature* and correlates it with the
//! frequency observed at that threshold (paper: r = −0.8272).

use sdc_model::stats::{linear_fit, pearson, LinFit};
use sdc_model::{DetRng, Duration, SettingId, TestcaseId};
use silicon::{Defect, Processor};
use std::sync::Arc;
use toolchain::{ExecConfig, Executor, ProfileCache, Suite};

/// The cores a sweep runs on: the setting's core, plus enough neighbours
/// to satisfy a multi-threaded (consistency) testcase.
fn sweep_cores(processor: &Processor, suite: &Suite, testcase: TestcaseId, core: u16) -> Vec<u16> {
    let threads = suite.get(testcase).threads as u16;
    if threads <= 1 {
        vec![core]
    } else {
        (0..threads)
            .map(|i| (core + i) % processor.physical_cores)
            .collect()
    }
}

/// The setting a Figure 8 panel sweeps for `defect` of `processor`: the
/// defect's hottest-rate core at 70 ℃, and the first testcase named
/// `prefix…` that the defect's code paths reach (§4.1 selectivity), or
/// `None` when the defect reaches no such testcase.
pub fn panel_setting(
    processor: &Processor,
    defect: &Defect,
    suite: &Suite,
    prefix: &str,
) -> (u16, Option<TestcaseId>) {
    let core = (0..processor.physical_cores)
        .max_by(|&a, &b| {
            defect
                .rate(a, 70.0)
                .partial_cmp(&defect.rate(b, 70.0))
                .expect("invariant violated: defect rates are finite")
        })
        .unwrap_or(0);
    let testcase = suite
        .testcases()
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .find(|t| defect.applies_to(t.id))
        .map(|t| t.id);
    (core, testcase)
}

/// One Figure 8 panel: the setting a sweep measures and the held
/// temperatures it measures at. Each reader picks its own window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Panel {
    /// Catalog name of the processor.
    pub processor: &'static str,
    /// Index of the defect driving the panel.
    pub defect: usize,
    /// The swept core, or `None` for the defect's hottest core
    /// ([`panel_setting`]).
    pub core: Option<u16>,
    /// Workload-name prefix the panel testcase is chosen from.
    pub prefix: &'static str,
    /// Lowest and highest held temperature, ℃ (swept in 2 ℃ steps).
    pub range_c: (u8, u8),
}

impl Fig8Panel {
    /// The held temperatures of the sweep, ascending.
    pub fn temps(&self) -> Vec<f64> {
        (self.range_c.0..=self.range_c.1)
            .step_by(2)
            .map(f64::from)
            .collect()
    }
}

/// The panels of Figure 8, in print order. `repro fig8` sweeps all
/// three; the conformance gate and `repro ext`'s cooling comparison read
/// [`MIX1_PANEL`].
pub const FIG8_PANELS: [Fig8Panel; 3] = [
    Fig8Panel {
        processor: "MIX1",
        defect: 1,
        core: None,
        prefix: "fpu/f64/fam2",
        range_c: (60, 76),
    },
    Fig8Panel {
        processor: "MIX2",
        defect: 1,
        core: None,
        prefix: "fpu/f64/fam1",
        range_c: (56, 68),
    },
    Fig8Panel {
        processor: "FPU2",
        defect: 0,
        core: Some(8),
        prefix: "fpu/atan/f64/",
        range_c: (48, 56),
    },
];

/// The MIX1 panel of Figure 8.
pub const MIX1_PANEL: Fig8Panel = FIG8_PANELS[0];

/// The seed of every Figure 8 sweep.
pub const FIG8_SEED: u64 = 88;

/// One measured (temperature, frequency) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Held die temperature, ℃.
    pub temp_c: f64,
    /// Errors per minute at that temperature.
    pub freq_per_min: f64,
}

/// A Figure 8 panel: sweep points and the log-linear fit.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The setting swept.
    pub setting: SettingId,
    /// Measured points (including zero-frequency temperatures).
    pub points: Vec<SweepPoint>,
    /// Fit of `log10(freq)` against temperature over nonzero points.
    pub fit: Option<LinFit>,
}

/// Sweeps `testcase` on one `core` of `processor` across held
/// temperatures, measuring occurrence frequency at each (Figure 8).
pub fn temperature_sweep(
    processor: &Processor,
    suite: &Suite,
    testcase: TestcaseId,
    core: u16,
    temps: &[f64],
    window: Duration,
    seed: u64,
) -> SweepResult {
    let tc = suite.get(testcase);
    let cores = sweep_cores(processor, suite, testcase, core);
    let mut points = Vec::with_capacity(temps.len());
    // The unit profile is temperature-independent (the cache key has no
    // hold field), so every grid point shares one cached profile.
    let cache = ProfileCache::shared();
    for (i, &t) in temps.iter().enumerate() {
        let cfg = ExecConfig {
            hold_temp_c: Some(t),
            ..ExecConfig::default()
        };
        let mut ex = Executor::with_cache(processor, cfg, Arc::clone(&cache));
        let mut rng = DetRng::new(seed).fork(i as u64);
        let run = ex.run(tc, &cores, window, &mut rng);
        points.push(SweepPoint {
            temp_c: t,
            freq_per_min: run.error_count as f64 / window.as_mins_f64(),
        });
    }
    let xs: Vec<f64> = points
        .iter()
        .filter(|p| p.freq_per_min > 0.0)
        .map(|p| p.temp_c)
        .collect();
    let ys: Vec<f64> = points
        .iter()
        .filter(|p| p.freq_per_min > 0.0)
        .map(|p| p.freq_per_min.log10())
        .collect();
    let fit = linear_fit(&xs, &ys);
    SweepResult {
        setting: SettingId {
            cpu: processor.id,
            core: sdc_model::CoreId(core),
            testcase,
        },
        points,
        fit,
    }
}

/// A Figure 9 scatter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerPoint {
    /// The setting.
    pub setting: SettingId,
    /// Lowest held temperature at which the setting produced errors.
    pub min_trigger_temp_c: f64,
    /// Frequency observed at that threshold temperature.
    pub freq_at_min: f64,
}

/// Finds the minimum triggering temperature of one setting by scanning
/// `grid` (ascending) with a fixed observation `window` per temperature.
pub fn min_trigger_temp(
    processor: &Processor,
    suite: &Suite,
    testcase: TestcaseId,
    core: u16,
    grid: &[f64],
    window: Duration,
    seed: u64,
) -> Option<TriggerPoint> {
    let tc = suite.get(testcase);
    let cores = sweep_cores(processor, suite, testcase, core);
    // As in `temperature_sweep`: one profile serves the whole scan.
    let cache = ProfileCache::shared();
    for (i, &t) in grid.iter().enumerate() {
        let cfg = ExecConfig {
            hold_temp_c: Some(t),
            ..ExecConfig::default()
        };
        let mut ex = Executor::with_cache(processor, cfg, Arc::clone(&cache));
        let mut rng = DetRng::new(seed).fork(i as u64);
        let run = ex.run(tc, &cores, window, &mut rng);
        if run.error_count > 0 {
            return Some(TriggerPoint {
                setting: SettingId {
                    cpu: processor.id,
                    core: sdc_model::CoreId(core),
                    testcase,
                },
                min_trigger_temp_c: t,
                freq_at_min: run.error_count as f64 / window.as_mins_f64(),
            });
        }
    }
    None
}

/// Figure 9's scan, shared by `repro fig9` and the conformance gate: the
/// grid 46–80 ℃ in 2 ℃ steps, and the window per grid point (10
/// minutes in quick mode, 30 otherwise).
pub fn figure9_scan(quick: bool) -> (Vec<f64>, Duration) {
    let grid = (46..=80).step_by(2).map(f64::from).collect();
    (grid, Duration::from_mins(if quick { 10 } else { 30 }))
}

/// Pearson correlation between minimum triggering temperature and
/// `log10(frequency at threshold)` over a set of trigger points —
/// Figure 9's r = −0.8272.
pub fn figure9_correlation(points: &[TriggerPoint]) -> Option<f64> {
    // Zero-frequency points carry no log value.
    let (xs, ys): (Vec<f64>, Vec<f64>) = points
        .iter()
        .filter(|p| p.freq_at_min > 0.0)
        .map(|p| (p.min_trigger_temp_c, p.freq_at_min.log10()))
        .unzip();
    pearson(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silicon::catalog;

    /// First testcase with `prefix` that the processor's defects actually
    /// apply to (§4.1 selectivity: not every matching testcase triggers).
    fn find_applicable(suite: &Suite, prefix: &str, p: &silicon::Processor) -> TestcaseId {
        suite
            .testcases()
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .find(|t| p.defects.iter().any(|d| d.applies_to(t.id)))
            .unwrap_or_else(|| panic!("no applicable testcase with prefix {prefix}"))
            .id
    }

    #[test]
    fn fpu2_sweep_shows_exponential_dependence() {
        // Figure 8(c): FPU2 pcore 8, ~48–56 ℃.
        let suite = Suite::standard();
        let fpu2 = catalog::by_name("FPU2").unwrap().processor;
        let tc = find_applicable(&suite, "fpu/atan/f64/", &fpu2);
        let temps: Vec<f64> = (48..=56).step_by(2).map(|t| t as f64).collect();
        let sweep = temperature_sweep(&fpu2, &suite, tc, 8, &temps, Duration::from_mins(20), 42);
        let fit = sweep.fit.expect("enough nonzero points to fit");
        assert!(
            fit.slope > 0.05,
            "positive exponential slope, got {}",
            fit.slope
        );
        assert!(fit.r > 0.75, "paper-grade correlation, got {}", fit.r);
    }

    #[test]
    fn flat_defect_shows_no_temperature_trend() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let tc = find_applicable(&suite, "vec/matk/l0", &simd1);
        let temps = [48.0, 56.0, 64.0, 72.0];
        let sweep = temperature_sweep(&simd1, &suite, tc, 0, &temps, Duration::from_mins(5), 43);
        let fit = sweep.fit.expect("always fires");
        assert!(fit.slope.abs() < 0.02, "flat trigger, slope {}", fit.slope);
    }

    #[test]
    fn min_trigger_found_above_gate() {
        let suite = Suite::standard();
        let mix1 = catalog::by_name("MIX1").unwrap().processor;
        // The tricky defect gates at 59 ℃ on FloatDiv; pick a float-div
        // testcase its paths reach.
        // Pick a float-division testcase whose paths reach the *tricky*
        // (temperature-gated) defect, and that defect's hottest core —
        // the all-core rates spread over orders of magnitude (Obs. 4).
        let tricky = &mix1.defects[1];
        assert_eq!(tricky.trigger.t_min_c, 59.0);
        let tc = suite
            .testcases()
            .iter()
            .filter(|t| t.name.starts_with("fpu/f64/fam2"))
            .find(|t| tricky.applies_to(t.id))
            .expect("an applicable float-div testcase")
            .id;
        let core = (0..mix1.physical_cores)
            .max_by(|&a, &b| {
                tricky
                    .rate(a, 70.0)
                    .partial_cmp(&tricky.rate(b, 70.0))
                    .expect("finite")
            })
            .expect("cores");
        let grid: Vec<f64> = (46..=80).step_by(2).map(|t| t as f64).collect();
        let p = min_trigger_temp(&mix1, &suite, tc, core, &grid, Duration::from_hours(3), 44)
            .expect("fires somewhere on the grid");
        assert!(
            p.min_trigger_temp_c >= 59.0,
            "gate respected: {}",
            p.min_trigger_temp_c
        );
        assert!(p.freq_at_min > 0.0);
    }

    #[test]
    fn correlation_helper_handles_degenerate_inputs() {
        assert_eq!(figure9_correlation(&[]), None);
        let one = TriggerPoint {
            setting: SettingId {
                cpu: sdc_model::CpuId(1),
                core: sdc_model::CoreId(0),
                testcase: TestcaseId(0),
            },
            min_trigger_temp_c: 50.0,
            freq_at_min: 1.0,
        };
        assert_eq!(figure9_correlation(&[one]), None);
    }
}
