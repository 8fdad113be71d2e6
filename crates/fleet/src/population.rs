//! Fleet population sampling.
//!
//! Healthy packages are never materialized — only counted per
//! architecture; defective packages are drawn from the `silicon`
//! samplers. At the paper's prevalence (a few per ten thousand) a
//! million-CPU fleet materializes only a few hundred processors.

use sdc_model::{ArchId, CpuId, DetRng};
use silicon::{arch, population, Processor};

/// Fleet generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Total processors in the fleet (the paper studies >1M).
    pub total_cpus: u64,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for the campaign (`0` = available parallelism).
    /// Results are bitwise identical for every value.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            total_cpus: 1_050_000,
            seed: 2021,
            threads: 0,
        }
    }
}

/// A sampled fleet.
#[derive(Debug)]
pub struct FleetPopulation {
    /// Total packages per architecture (healthy + defective).
    pub per_arch_total: Vec<(ArchId, u64)>,
    /// The materialized defective processors.
    pub defective: Vec<Processor>,
}

impl FleetPopulation {
    /// Samples a fleet.
    pub fn sample(cfg: &FleetConfig) -> FleetPopulation {
        let mut rng = DetRng::new(cfg.seed).fork_str("fleet-population");
        let mut per_arch_total = Vec::new();
        let mut defective = Vec::new();
        let mut next_id = 0u64;
        for a in ArchId::all() {
            let total = (cfg.total_cpus as f64 * arch::fleet_share(a)).round() as u64;
            per_arch_total.push((a, total));
            let n_def = rng.binomial(total, arch::info(a).prevalence);
            for _ in 0..n_def {
                defective.push(population::sample_faulty_processor(
                    CpuId(1_000_000 + next_id),
                    a,
                    &mut rng,
                ));
                next_id += 1;
            }
        }
        FleetPopulation {
            per_arch_total,
            defective,
        }
    }

    /// Total packages in the fleet.
    pub fn total(&self) -> u64 {
        self.per_arch_total.iter().map(|&(_, n)| n).sum()
    }

    /// Defective packages of one architecture.
    pub fn defective_of(&self, a: ArchId) -> usize {
        self.defective.iter().filter(|p| p.arch == a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_scale_is_plausible() {
        let pop = FleetPopulation::sample(&FleetConfig::default());
        let total = pop.total();
        assert!(total > 1_000_000);
        // ~3.8 per 10k true prevalence → roughly 300–500 defective.
        let d = pop.defective.len();
        assert!((250..600).contains(&d), "defective count {d}");
    }

    #[test]
    fn worst_arch_has_most_defects_per_capita() {
        let pop = FleetPopulation::sample(&FleetConfig::default());
        let rate = |a: u8| {
            let total = pop
                .per_arch_total
                .iter()
                .find(|&&(ar, _)| ar == ArchId(a))
                .unwrap()
                .1;
            pop.defective_of(ArchId(a)) as f64 / total as f64
        };
        // M8 (9.29‱) dwarfs M4 (0.082‱).
        assert!(rate(8) > rate(4) * 5.0, "M8 {} vs M4 {}", rate(8), rate(4));
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = FleetPopulation::sample(&FleetConfig::default());
        let b = FleetPopulation::sample(&FleetConfig::default());
        assert_eq!(a.defective.len(), b.defective.len());
        assert_eq!(a.defective.first(), b.defective.first());
    }

    #[test]
    fn smaller_fleet_scales_down() {
        let cfg = FleetConfig {
            total_cpus: 100_000,
            seed: 7,
            threads: 0,
        };
        let pop = FleetPopulation::sample(&cfg);
        assert!(pop.total() < 150_000);
        assert!(pop.defective.len() < 120);
    }
}
