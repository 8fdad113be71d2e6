//! The defect model.
//!
//! A [`Defect`] describes *where* a fault lives (scope), *what* it breaks
//! (kind) and *when* it fires (trigger). The parameters encode the paper's
//! empirical structure:
//!
//! * **Scope** (Observation 4): about half of faulty processors have one
//!   defective physical core; the other half are defective on every core —
//!   sometimes at per-core rates spread over orders of magnitude.
//! * **Kind** (Observation 5): computation defects corrupt results of
//!   specific instruction classes and datatypes via bitflip masks;
//!   consistency defects drop cache invalidations or break transactional
//!   isolation and have "no deterministic pattern".
//! * **Bitflip masks** (Observations 7–8): a defect owns a small set of
//!   fixed [`BitPattern`]s (the per-setting patterns of Figure 6) plus a
//!   residual probability of a fresh random mask; mask generation is
//!   biased away from the most significant bits, and toward the fraction
//!   part for floats.
//! * **Trigger** (Observations 9–10): occurrence is per matching retired
//!   instruction, scaled exponentially in core temperature above a
//!   reference, gated by a minimum triggering temperature.

use sdc_model::{DataType, DetRng};
use softcore::InstClass;

/// A fixed bitflip pattern with a selection weight.
#[derive(Debug, Clone, PartialEq)]
pub struct BitPattern {
    /// XOR mask applied to the correct result (within the datatype width).
    pub mask: u128,
    /// Relative selection weight among the defect's patterns.
    pub weight: f64,
}

/// Where in the package the defect lives.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectScope {
    /// A single defective physical core.
    SingleCore(u16),
    /// Every physical core is defective, each with its own rate scale
    /// (the paper observed per-core frequencies differing by orders of
    /// magnitude under the same test setting).
    AllCores {
        /// Multiplier on the trigger rate, one entry per physical core.
        per_core_scale: Vec<f64>,
    },
}

impl DefectScope {
    /// Rate multiplier for `core` (0 = not affected).
    pub fn core_scale(&self, core: u16) -> f64 {
        match self {
            DefectScope::SingleCore(c) => {
                if *c == core {
                    1.0
                } else {
                    0.0
                }
            }
            DefectScope::AllCores { per_core_scale } => {
                per_core_scale.get(core as usize).copied().unwrap_or(0.0)
            }
        }
    }

    /// The physical cores affected by this defect.
    pub fn affected_cores(&self, total_cores: u16) -> Vec<u16> {
        match self {
            DefectScope::SingleCore(c) => vec![*c],
            DefectScope::AllCores { per_core_scale } => (0..total_cores)
                .filter(|&c| per_core_scale.get(c as usize).copied().unwrap_or(0.0) > 0.0)
                .collect(),
        }
    }
}

/// What the defect breaks.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectKind {
    /// Wrong results from specific instruction classes on specific
    /// datatypes.
    Computation {
        /// Instruction classes whose results can be corrupted.
        classes: Vec<InstClass>,
        /// Result datatypes that can be corrupted (empty = any).
        datatypes: Vec<DataType>,
        /// Fixed bitflip patterns of this defect (valid for results of
        /// `pattern_dt`; other datatypes draw fresh masks).
        patterns: Vec<BitPattern>,
        /// The datatype the fixed patterns were mined on.
        pattern_dt: DataType,
        /// Probability that a firing uses a fresh random mask instead of
        /// a fixed pattern.
        random_mask_prob: f64,
    },
    /// Cache-coherence defect: invalidation messages are lost.
    CoherenceDrop,
    /// Transactional-memory defect: conflicted transactions commit.
    TxIsolation,
}

impl DefectKind {
    /// True for a computation defect.
    pub fn is_computation(&self) -> bool {
        matches!(self, DefectKind::Computation { .. })
    }

    /// The instruction classes this defect can act on.
    pub fn classes(&self) -> Vec<InstClass> {
        match self {
            DefectKind::Computation { classes, .. } => classes.clone(),
            DefectKind::CoherenceDrop => {
                vec![
                    InstClass::Load,
                    InstClass::Store,
                    InstClass::Cas,
                    InstClass::Lock,
                ]
            }
            DefectKind::TxIsolation => vec![InstClass::Tx],
        }
    }
}

/// When the defect fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trigger {
    /// Corruption probability per matching event at the reference
    /// temperature (before per-core scaling).
    pub base_rate: f64,
    /// Reference temperature for `base_rate`, ℃.
    pub t_ref_c: f64,
    /// Exponential temperature sensitivity: each +1 ℃ multiplies the rate
    /// by `10^log10_slope_per_c` (0 = temperature-insensitive).
    pub log10_slope_per_c: f64,
    /// Minimum triggering temperature, ℃; below it the defect never
    /// fires. Use 0.0 for "fires at any temperature".
    pub t_min_c: f64,
}

impl Trigger {
    /// A temperature-insensitive trigger.
    pub fn flat(base_rate: f64) -> Trigger {
        Trigger {
            base_rate,
            t_ref_c: 50.0,
            log10_slope_per_c: 0.0,
            t_min_c: 0.0,
        }
    }

    /// Per-event firing probability at `temp_c`, clamped to `[0, 0.5]`.
    pub fn rate_at(&self, temp_c: f64) -> f64 {
        if temp_c < self.t_min_c {
            return 0.0;
        }
        let factor = 10f64.powf(self.log10_slope_per_c * (temp_c - self.t_ref_c));
        (self.base_rate * factor).clamp(0.0, 0.5)
    }
}

/// One silicon defect.
#[derive(Debug, Clone, PartialEq)]
pub struct Defect {
    /// What the defect breaks.
    pub kind: DefectKind,
    /// Where it lives.
    pub scope: DefectScope,
    /// When it fires.
    pub trigger: Trigger,
    /// Fraction of *matching* testcases whose code paths actually trigger
    /// the defect (§4.1: "we find a defective instruction is used in seven
    /// testcases, but only two of them generate errors" — a defective unit
    /// corrupts only specific operand patterns and micro-op sequences, so
    /// workloads that nominally use the instruction may never hit them).
    pub selectivity: f64,
    /// Seed of the deterministic testcase gate.
    pub sel_seed: u64,
}

impl Defect {
    /// A defect that fires on every matching testcase (selectivity 1).
    pub fn new(kind: DefectKind, scope: DefectScope, trigger: Trigger) -> Defect {
        Defect {
            kind,
            scope,
            trigger,
            selectivity: 1.0,
            sel_seed: 0,
        }
    }

    /// Restricts the defect to a deterministic `selectivity` fraction of
    /// matching testcases, keyed by `seed`.
    pub fn with_selectivity(mut self, selectivity: f64, seed: u64) -> Defect {
        self.selectivity = selectivity.clamp(0.0, 1.0);
        self.sel_seed = seed;
        self
    }

    /// Whether this defect's trigger paths are reachable from `testcase`.
    pub fn applies_to(&self, testcase: sdc_model::TestcaseId) -> bool {
        if self.selectivity >= 1.0 {
            return true;
        }
        // SplitMix finalizer over (seed, testcase) → uniform gate.
        let mut x = self.sel_seed ^ (testcase.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x as f64 / u64::MAX as f64) < self.selectivity
    }
    /// Firing probability for one matching event on `core` at `temp_c`.
    pub fn rate(&self, core: u16, temp_c: f64) -> f64 {
        let scale = self.scope.core_scale(core);
        if scale == 0.0 {
            return 0.0;
        }
        (self.trigger.rate_at(temp_c) * scale).clamp(0.0, 0.5)
    }

    /// Whether this computation defect matches a retiring instruction.
    pub fn matches(&self, class: InstClass, dt: DataType) -> bool {
        match &self.kind {
            DefectKind::Computation {
                classes, datatypes, ..
            } => classes.contains(&class) && (datatypes.is_empty() || datatypes.contains(&dt)),
            _ => false,
        }
    }

    /// Chooses the corruption mask for a firing: one of the fixed
    /// patterns, or a fresh random mask with probability
    /// `random_mask_prob`.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-computation defect.
    pub fn choose_mask(&self, dt: DataType, rng: &mut DetRng) -> u128 {
        let DefectKind::Computation {
            patterns,
            pattern_dt,
            random_mask_prob,
            ..
        } = &self.kind
        else {
            panic!("choose_mask on a consistency defect")
        };
        // Fixed positions are physical only for the datatype they were
        // mined on; a different representation draws a fresh mask with
        // that datatype's location preferences.
        if patterns.is_empty() || dt != *pattern_dt || rng.chance(*random_mask_prob) {
            return gen_mask(dt, rng);
        }
        let weights: Vec<f64> = patterns.iter().map(|p| p.weight).collect();
        let idx = rng.weighted(&weights);
        patterns[idx].mask & dt.mask()
    }
}

/// Number of bits to flip in a fresh mask: 1 (≈90%), 2 (≈8%), 3 (≈2%) —
/// the Figure 7 shape.
fn flip_count(rng: &mut DetRng) -> u32 {
    let x = rng.unit();
    if x < 0.90 {
        1
    } else if x < 0.98 {
        2
    } else {
        3
    }
}

/// Draws a random bit position for `dt` with the paper's location
/// preferences (Observation 7):
///
/// * floats: ~94% in the fraction part with a centre-heavy distribution,
///   ~5% exponent, ~1% sign;
/// * integers: weight decreasing toward the most significant bits;
/// * binary data: uniform (Figure 5).
fn gen_bit_position(dt: DataType, rng: &mut DetRng) -> u32 {
    let bits = dt.bits();
    if let Some(frac) = dt.fraction_bits() {
        let x = rng.unit();
        if x < 0.94 {
            // Centre-heavy over the fraction: average two uniforms
            // (triangular distribution peaked at the middle).
            let u = (rng.unit() + rng.unit()) / 2.0;
            ((u * frac as f64) as u32).min(frac - 1)
        } else if x < 0.99 {
            // Exponent field (above the fraction, below the sign).
            frac + (rng.below((bits - frac - 1) as u64) as u32)
        } else {
            bits - 1 // sign
        }
    } else if dt.is_numeric() {
        // Integers: triangular weight decreasing toward the MSB.
        let u = rng.unit() * rng.unit(); // density ∝ -ln u, concentrated low
        ((u * bits as f64) as u32).min(bits - 1)
    } else {
        rng.below(bits as u64) as u32
    }
}

/// Generates a fresh random mask for `dt` honouring the location and
/// multiplicity preferences.
pub fn gen_mask(dt: DataType, rng: &mut DetRng) -> u128 {
    let n = flip_count(rng).min(dt.bits());
    let mut mask = 0u128;
    let mut guard = 0;
    while mask.count_ones() < n && guard < 64 {
        mask |= 1u128 << gen_bit_position(dt, rng);
        guard += 1;
    }
    mask & dt.mask()
}

/// Generates a fraction-part-only mask for float datatypes (fixed defect
/// patterns sit in the datapath's fraction logic — Observation 7; the
/// exponent/sign tail of the histograms comes from the residual random
/// masks).
fn gen_fraction_mask(dt: DataType, rng: &mut DetRng) -> u128 {
    let frac = dt.fraction_bits().expect("float datatype");
    loop {
        let mask = gen_mask(dt, rng) & ((1u128 << frac) - 1);
        if mask != 0 {
            return mask;
        }
    }
}

/// Generates `n` fixed patterns for a new computation defect.
pub fn gen_patterns(dt: DataType, n: usize, rng: &mut DetRng) -> Vec<BitPattern> {
    (0..n)
        .map(|i| BitPattern {
            mask: if dt.is_float() {
                gen_fraction_mask(dt, rng)
            } else {
                gen_mask(dt, rng)
            },
            weight: 1.0 / (i + 1) as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_scope() {
        let s = DefectScope::SingleCore(3);
        assert_eq!(s.core_scale(3), 1.0);
        assert_eq!(s.core_scale(2), 0.0);
        assert_eq!(s.affected_cores(8), vec![3]);
    }

    #[test]
    fn all_cores_scope_with_scales() {
        let s = DefectScope::AllCores {
            per_core_scale: vec![1.0, 0.001, 0.0, 10.0],
        };
        assert_eq!(s.core_scale(0), 1.0);
        assert_eq!(s.core_scale(1), 0.001);
        assert_eq!(s.core_scale(7), 0.0);
        assert_eq!(s.affected_cores(4), vec![0, 1, 3]);
    }

    #[test]
    fn trigger_gates_on_t_min() {
        let t = Trigger {
            base_rate: 0.01,
            t_ref_c: 50.0,
            log10_slope_per_c: 0.1,
            t_min_c: 59.0,
        };
        assert_eq!(t.rate_at(58.9), 0.0);
        assert!(t.rate_at(59.0) > 0.0);
    }

    #[test]
    fn trigger_is_exponential_in_temperature() {
        let t = Trigger {
            base_rate: 1e-6,
            t_ref_c: 50.0,
            log10_slope_per_c: 0.1,
            t_min_c: 0.0,
        };
        let r50 = t.rate_at(50.0);
        let r60 = t.rate_at(60.0);
        // +10 ℃ at slope 0.1 → ×10.
        assert!((r60 / r50 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn trigger_rate_clamps() {
        let t = Trigger {
            base_rate: 0.4,
            t_ref_c: 50.0,
            log10_slope_per_c: 0.5,
            t_min_c: 0.0,
        };
        assert_eq!(t.rate_at(90.0), 0.5);
    }

    #[test]
    fn flat_trigger_ignores_temperature() {
        let t = Trigger::flat(0.01);
        assert_eq!(t.rate_at(45.0), t.rate_at(95.0));
    }

    #[test]
    fn defect_matching() {
        let d = Defect::new(
            DefectKind::Computation {
                classes: vec![InstClass::VecFma],
                datatypes: vec![DataType::F32],
                patterns: vec![],
                pattern_dt: DataType::Bin64,
                random_mask_prob: 1.0,
            },
            DefectScope::SingleCore(0),
            Trigger::flat(0.1),
        );
        assert!(d.matches(InstClass::VecFma, DataType::F32));
        assert!(!d.matches(InstClass::VecFma, DataType::F64));
        assert!(!d.matches(InstClass::FloatMul, DataType::F32));
    }

    #[test]
    fn empty_datatypes_match_anything() {
        let d = Defect::new(
            DefectKind::Computation {
                classes: vec![InstClass::IntArith],
                datatypes: vec![],
                patterns: vec![],
                pattern_dt: DataType::Bin64,
                random_mask_prob: 1.0,
            },
            DefectScope::SingleCore(0),
            Trigger::flat(0.1),
        );
        assert!(d.matches(InstClass::IntArith, DataType::I16));
        assert!(d.matches(InstClass::IntArith, DataType::Bin64));
    }

    #[test]
    fn fixed_patterns_dominate_when_random_prob_zero() {
        let mut rng = DetRng::new(1);
        let pattern = BitPattern {
            mask: 0b100,
            weight: 1.0,
        };
        let d = Defect::new(
            DefectKind::Computation {
                classes: vec![InstClass::IntArith],
                datatypes: vec![DataType::I32],
                patterns: vec![pattern],
                pattern_dt: DataType::I32,
                random_mask_prob: 0.0,
            },
            DefectScope::SingleCore(0),
            Trigger::flat(0.1),
        );
        for _ in 0..20 {
            assert_eq!(d.choose_mask(DataType::I32, &mut rng), 0b100);
        }
    }

    #[test]
    fn float_masks_prefer_fraction_bits() {
        let mut rng = DetRng::new(2);
        let mut fraction_hits = 0;
        let total = 2000;
        for _ in 0..total {
            let mask = gen_mask(DataType::F64, &mut rng);
            assert_ne!(mask, 0);
            assert_eq!(mask & !DataType::F64.mask(), 0);
            if mask & ((1u128 << 52) - 1) == mask {
                fraction_hits += 1;
            }
        }
        let frac = fraction_hits as f64 / total as f64;
        assert!(frac > 0.85, "fraction share {frac}");
    }

    #[test]
    fn int_masks_avoid_most_significant_bits() {
        let mut rng = DetRng::new(3);
        let mut msb_hits = 0;
        let total = 2000;
        for _ in 0..total {
            let mask = gen_mask(DataType::I32, &mut rng);
            if mask >> 28 != 0 {
                msb_hits += 1;
            }
        }
        assert!(
            (msb_hits as f64 / total as f64) < 0.15,
            "MSB share too high: {msb_hits}"
        );
    }

    #[test]
    fn binary_masks_are_roughly_uniform() {
        let mut rng = DetRng::new(4);
        let mut hi = 0;
        let total = 4000;
        for _ in 0..total {
            let mask = gen_mask(DataType::Bin32, &mut rng);
            if mask >> 16 != 0 {
                hi += 1;
            }
        }
        let share = hi as f64 / total as f64;
        assert!((share - 0.5).abs() < 0.08, "upper-half share {share}");
    }

    #[test]
    fn flip_counts_follow_figure7_shape() {
        let mut rng = DetRng::new(5);
        let mut ones = 0;
        let total = 5000;
        for _ in 0..total {
            if gen_mask(DataType::Bin64, &mut rng).count_ones() == 1 {
                ones += 1;
            }
        }
        let share = ones as f64 / total as f64;
        assert!(share > 0.85 && share < 0.95, "single-flip share {share}");
    }

    #[test]
    fn gen_patterns_produces_n_weighted_masks() {
        let mut rng = DetRng::new(6);
        let ps = gen_patterns(DataType::F32, 3, &mut rng);
        assert_eq!(ps.len(), 3);
        assert!(ps[0].weight > ps[1].weight && ps[1].weight > ps[2].weight);
        for p in &ps {
            assert_ne!(p.mask, 0);
        }
    }

    #[test]
    #[should_panic(expected = "choose_mask on a consistency defect")]
    fn choose_mask_rejects_consistency() {
        let d = Defect::new(
            DefectKind::CoherenceDrop,
            DefectScope::SingleCore(0),
            Trigger::flat(0.1),
        );
        let mut rng = DetRng::new(7);
        let _ = d.choose_mask(DataType::I32, &mut rng);
    }
}
