//! Lumped-RC thermal simulation of a multi-core package.
//!
//! Observation 10 of the paper hinges on temperature phenomenology:
//!
//! * SDC occurrence frequency grows **exponentially** with core
//!   temperature, and some SDCs have a **minimum triggering temperature**
//!   well above idle (e.g. testcase C on MIX1 only fails above 59 ℃
//!   against a ~45 ℃ idle);
//! * a defective core fails more when **other cores are busy**, because
//!   the cores "share cooling devices";
//! * **remaining heat** from a previous stressful testcase changes the
//!   outcome of the next one (test-order effects);
//! * stress tools can **preheat** a processor to a target temperature.
//!
//! This crate reproduces all four with a first-order (lumped RC) model:
//! each core's temperature relaxes toward a target set by its own power,
//! the power of the other cores through the shared heatsink, and the
//! ambient/idle baseline. The model is deliberately simple — the paper's
//! analyses need the *shape* of the thermal response, not board-level
//! fidelity.

use sdc_model::Duration;

/// Static parameters of the package thermal model.
#[derive(Debug, Clone, Copy)]
pub struct ThermalConfig {
    /// Core temperature at idle (the paper quotes ~45 ℃ idle for MIX1).
    pub idle_temp_c: f64,
    /// Temperature rise per unit of the core's own power (℃ / power unit).
    pub r_self: f64,
    /// Temperature rise per unit of *another* core's power, through the
    /// shared heatsink (℃ / power unit).
    pub r_share: f64,
    /// First-order time constant of the package (seconds).
    pub tau_secs: f64,
    /// Maximum junction temperature; targets clamp here (thermal limit).
    pub max_temp_c: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        // Power is measured in average energy-per-cycle units from the
        // softcore model (~0.2 idle … ~1.5 for heavy vector/microcode
        // loads), so r_self = 25 maps a fully stressed core to ≈ +30 ℃
        // over idle and r_share spreads a further ≈ +1 ℃ per busy
        // neighbour at full load.
        ThermalConfig {
            idle_temp_c: 45.0,
            r_self: 25.0,
            r_share: 0.8,
            tau_secs: 15.0,
            max_temp_c: 100.0,
        }
    }
}

/// Dynamic thermal state of a package.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    cfg: ThermalConfig,
    temps: Vec<f64>,
    powers: Vec<f64>,
    /// Multiplier on both R values; a value below 1.0 models boosted
    /// cooling devices (the ACPI-style control the paper mentions).
    cooling_factor: f64,
}

impl ThermalModel {
    /// A package of `cores` cores at idle temperature.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, cfg: ThermalConfig) -> Self {
        assert!(cores > 0, "need at least one core");
        // Heatsink capacity scales with package size: normalize the
        // shared-path resistance so a fully loaded package adds the same
        // total neighbour heating regardless of core count (calibrated at
        // a 16-core package).
        let mut cfg = cfg;
        cfg.r_share *= 16.0 / cores as f64;
        ThermalModel {
            cfg,
            temps: vec![cfg.idle_temp_c; cores],
            powers: vec![0.0; cores],
            cooling_factor: 1.0,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.temps.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &ThermalConfig {
        &self.cfg
    }

    /// Current temperature of `core` in ℃.
    pub fn temp(&self, core: usize) -> f64 {
        self.temps[core]
    }

    /// Hottest core temperature in the package.
    pub fn max_temp(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sets the instantaneous power draw of `core` (average energy per
    /// cycle from the softcore run, scaled by utilization).
    pub fn set_power(&mut self, core: usize, power: f64) {
        assert!(power >= 0.0 && power.is_finite(), "invalid power {power}");
        self.powers[core] = power;
    }

    /// Sets every core's power at once.
    pub fn set_all_powers(&mut self, power: f64) {
        for c in 0..self.powers.len() {
            self.set_power(c, power);
        }
    }

    /// Current power draw of `core`.
    pub fn power(&self, core: usize) -> f64 {
        self.powers[core]
    }

    /// Adjusts the cooling devices: `factor < 1` cools harder (reduces
    /// both R values), `factor = 1` is nominal.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor ≤ 1`.
    pub fn set_cooling_factor(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "cooling factor {factor} out of (0, 1]"
        );
        self.cooling_factor = factor;
    }

    /// The steady-state temperature `core` would reach if powers stayed
    /// fixed.
    pub fn target_temp(&self, core: usize) -> f64 {
        let own = self.cfg.r_self * self.powers[core];
        let others: f64 = self
            .powers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != core)
            .map(|(_, &p)| p)
            .sum::<f64>()
            * self.cfg.r_share;
        (self.cfg.idle_temp_c + self.cooling_factor * (own + others)).min(self.cfg.max_temp_c)
    }

    /// Every core's [`Self::target_temp`], bit for bit, in one pass.
    ///
    /// Each core's "others" sum keeps `target_temp`'s index-order fold,
    /// but the folds run side by side: power `i` is added to every
    /// core's running sum except core `i`'s. Skipping that add is the
    /// same as adding −0.0, the additive identity for every f64, so no
    /// bit differs from the filtered fold, and the inner loops carry no
    /// branch.
    pub fn target_temps(&self) -> Vec<f64> {
        // `Iterator::sum`'s start value, whichever zero the standard
        // library picks.
        let mut others = vec![std::iter::empty::<f64>().sum::<f64>(); self.powers.len()];
        for (i, &p) in self.powers.iter().enumerate() {
            let (before, rest) = others.split_at_mut(i);
            for o in before {
                *o += p;
            }
            for o in &mut rest[1..] {
                *o += p;
            }
        }
        self.powers
            .iter()
            .zip(others)
            .map(|(&p, others)| {
                let own = self.cfg.r_self * p;
                let others = others * self.cfg.r_share;
                (self.cfg.idle_temp_c + self.cooling_factor * (own + others))
                    .min(self.cfg.max_temp_c)
            })
            .collect()
    }

    /// The relaxation fraction for one step of `dt`: a temperature moves
    /// `alpha` of the way toward its target per [`Self::advance`] call.
    ///
    /// Exposed so callers integrating temperatures outside the model
    /// (the executor's chunk loop) use the *same* `alpha` arithmetic and
    /// stay bit-identical with `advance`.
    pub fn step_alpha(&self, dt: Duration) -> f64 {
        1.0 - (-dt.as_secs_f64() / self.cfg.tau_secs).exp()
    }

    /// All per-core temperatures, indexed by core.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Overwrites every core temperature — the write-back half of an
    /// external integration (see [`Self::step_alpha`]).
    ///
    /// # Panics
    ///
    /// Panics if `temps.len()` differs from the core count or any value
    /// is non-finite.
    pub fn set_temps(&mut self, temps: &[f64]) {
        assert_eq!(temps.len(), self.temps.len(), "core count mismatch");
        assert!(temps.iter().all(|t| t.is_finite()), "non-finite temp");
        self.temps.copy_from_slice(temps);
    }

    /// Advances the model by `dt`: each core relaxes exponentially toward
    /// its target with time constant `tau_secs`.
    pub fn advance(&mut self, dt: Duration) {
        let alpha = self.step_alpha(dt);
        for core in 0..self.temps.len() {
            let target = self.target_temp(core);
            self.temps[core] += (target - self.temps[core]) * alpha;
        }
    }

    /// Forces every core to `temp_c` immediately — the "stress toolchain
    /// preheat" of §5 ("we use stress toolchains (e.g., Linux 'stress' cmd
    /// tool) to preheat the processor to the desired temperature").
    pub fn preheat(&mut self, temp_c: f64) {
        assert!(temp_c.is_finite(), "invalid preheat target");
        let t = temp_c.min(self.cfg.max_temp_c);
        for temp in &mut self.temps {
            *temp = t;
        }
    }

    /// Resets to idle: zero power, idle temperature, nominal cooling.
    pub fn reset(&mut self) {
        for p in &mut self.powers {
            *p = 0.0;
        }
        for t in &mut self.temps {
            *t = self.cfg.idle_temp_c;
        }
        self.cooling_factor = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cores: usize) -> ThermalModel {
        ThermalModel::new(cores, ThermalConfig::default())
    }

    /// Advance long enough to be effectively at steady state.
    fn settle(m: &mut ThermalModel) {
        for _ in 0..600 {
            m.advance(Duration::from_secs(1));
        }
    }

    #[test]
    fn starts_at_idle() {
        let m = model(4);
        for c in 0..4 {
            assert_eq!(m.temp(c), 45.0);
        }
    }

    #[test]
    fn converges_to_target_under_load() {
        let mut m = model(1);
        m.set_power(0, 1.0);
        settle(&mut m);
        assert!(
            (m.temp(0) - 70.0).abs() < 0.1,
            "45 + 25·1 = 70, got {}",
            m.temp(0)
        );
    }

    #[test]
    fn relaxation_is_monotone_and_bounded() {
        let mut m = model(1);
        m.set_power(0, 1.2);
        let mut prev = m.temp(0);
        for _ in 0..100 {
            m.advance(Duration::from_secs(1));
            let t = m.temp(0);
            assert!(t >= prev, "heating is monotone");
            assert!(t <= m.target_temp(0) + 1e-9);
            prev = t;
        }
    }

    #[test]
    fn busy_neighbours_heat_an_idle_core() {
        let mut m = model(16);
        // Core 0 idle, all others busy — the paper's surprising case where
        // a defective core only fails when other cores are busy.
        for c in 1..16 {
            m.set_power(c, 1.2);
        }
        settle(&mut m);
        let idle_with_neighbours = m.temp(0);
        assert!(
            idle_with_neighbours > 45.0 + 10.0,
            "15 busy neighbours × 1.2 × 0.8 ≈ +14.4 ℃, got {idle_with_neighbours}"
        );
        assert!(
            idle_with_neighbours < m.temp(1),
            "busy cores are hotter still"
        );
    }

    #[test]
    fn remaining_heat_decays_after_stress() {
        let mut m = model(2);
        m.set_all_powers(1.4);
        settle(&mut m);
        let hot = m.temp(0);
        m.set_all_powers(0.0);
        m.advance(Duration::from_secs(5));
        let warm = m.temp(0);
        assert!(warm < hot, "cooling after stress");
        assert!(
            warm > 45.0 + 5.0,
            "remaining heat persists for a while: {warm}"
        );
        settle(&mut m);
        assert!((m.temp(0) - 45.0).abs() < 0.1, "eventually back to idle");
    }

    #[test]
    fn preheat_jumps_to_target() {
        let mut m = model(4);
        m.preheat(62.0);
        for c in 0..4 {
            assert_eq!(m.temp(c), 62.0);
        }
    }

    #[test]
    fn preheat_clamps_to_max() {
        let mut m = model(1);
        m.preheat(150.0);
        assert_eq!(m.temp(0), 100.0);
    }

    #[test]
    fn target_clamps_to_max() {
        let mut m = model(1);
        m.set_power(0, 100.0);
        assert_eq!(m.target_temp(0), 100.0);
        settle(&mut m);
        assert!(m.temp(0) <= 100.0 + 1e-9);
    }

    #[test]
    fn cooling_boost_lowers_target() {
        let mut m = model(1);
        m.set_power(0, 1.0);
        let nominal = m.target_temp(0);
        m.set_cooling_factor(0.5);
        let boosted = m.target_temp(0);
        assert!(boosted < nominal);
        assert!((boosted - 57.5).abs() < 1e-9, "45 + 0.5·25 = 57.5");
    }

    #[test]
    fn reset_restores_idle() {
        let mut m = model(2);
        m.set_all_powers(1.0);
        settle(&mut m);
        m.reset();
        assert_eq!(m.temp(0), 45.0);
        assert_eq!(m.power(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn rejects_negative_power() {
        let mut m = model(1);
        m.set_power(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn rejects_bad_cooling_factor() {
        let mut m = model(1);
        m.set_cooling_factor(0.0);
    }

    #[test]
    fn external_integration_matches_advance_bitwise() {
        // Integrating with step_alpha/target_temp outside the model and
        // writing back with set_temps must reproduce advance exactly —
        // the contract the executor's live chunk-loop integration relies
        // on.
        let mut a = model(3);
        let mut b = model(3);
        for m in [&mut a, &mut b] {
            m.set_power(0, 1.3);
            m.set_power(2, 0.4);
        }
        let dt = Duration::from_secs(1);
        let alpha = b.step_alpha(dt);
        let targets: Vec<f64> = (0..3).map(|c| b.target_temp(c)).collect();
        let mut temps = b.temps().to_vec();
        for _ in 0..50 {
            a.advance(dt);
            for (t, &target) in temps.iter_mut().zip(&targets) {
                *t += (target - *t) * alpha;
            }
        }
        b.set_temps(&temps);
        for c in 0..3 {
            assert_eq!(a.temp(c).to_bits(), b.temp(c).to_bits(), "core {c}");
        }
    }

    #[test]
    fn target_temps_match_target_temp_bitwise() {
        let mut rng = sdc_model::DetRng::new(0x7e4);
        for cores in 1..=64 {
            // Random powers; zeros of both signs; runs of equal powers
            // (tested cores amid idle or stressed neighbours); powers
            // large enough to clamp at `max_temp_c`.
            let random: Vec<f64> = (0..cores).map(|_| rng.range_f64(0.0, 1.6)).collect();
            let zeros: Vec<f64> = (0..cores)
                .map(|c| match c % 3 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range_f64(0.0, 1.6),
                })
                .collect();
            let runs: Vec<f64> = (0..cores)
                .map(|c| if c % 7 < 4 { 1.2 } else { 0.3 + (c / 7) as f64 })
                .collect();
            let hot: Vec<f64> = (0..cores).map(|_| rng.range_f64(1.0, 8.0)).collect();
            for powers in [random, zeros, runs, hot] {
                for cooling in [1.0, 0.35] {
                    let mut m = model(cores);
                    for (c, &p) in powers.iter().enumerate() {
                        m.set_power(c, p);
                    }
                    m.set_cooling_factor(cooling);
                    let all = m.target_temps();
                    assert_eq!(all.len(), cores);
                    for (c, t) in all.iter().enumerate() {
                        assert_eq!(
                            t.to_bits(),
                            m.target_temp(c).to_bits(),
                            "{cores} cores, core {c}, cooling {cooling}, powers {powers:?}"
                        );
                    }
                }
            }
        }
        // The clamp is reached: a package of hot cores targets max_temp_c.
        let mut m = model(4);
        m.set_all_powers(8.0);
        assert!(m.target_temps().iter().all(|&t| t == 100.0));
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn set_temps_rejects_wrong_length() {
        let mut m = model(2);
        m.set_temps(&[50.0]);
    }

    #[test]
    fn advance_is_time_step_consistent() {
        // Two half-steps land where one full step lands (exponential decay
        // composes exactly).
        let mut a = model(1);
        let mut b = model(1);
        a.set_power(0, 1.0);
        b.set_power(0, 1.0);
        a.advance(Duration::from_secs(10));
        b.advance(Duration::from_secs(5));
        b.advance(Duration::from_secs(5));
        assert!((a.temp(0) - b.temp(0)).abs() < 1e-9);
    }
}
