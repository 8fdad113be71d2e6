//! Statistics toolbox for the analyses.
//!
//! The paper fits `log10(occurrence frequency)` against temperature with
//! least squares and reports Pearson correlation coefficients (Figures 8–9),
//! plots CDFs of precision losses (Figure 4e–h) and per-bit histograms
//! (Figures 4–5). This module provides those primitives.

/// Arithmetic mean. Returns `None` on an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance. Returns `None` on an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation. Returns `None` on an empty slice.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Result of an ordinary-least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Pearson correlation coefficient of the inputs.
    pub r: f64,
}

impl LinFit {
    /// Predicted y at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least-squares fit. Returns `None` with fewer than two points
/// or a degenerate x spread.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r = if syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    };
    Some(LinFit {
        slope,
        intercept,
        r: r.clamp(-1.0, 1.0),
    })
}

/// Pearson correlation coefficient. Returns `None` with fewer than two
/// points or zero variance on either axis.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (non-finite samples are dropped; note
    /// that infinities would otherwise dominate quantiles — the paper's
    /// log-scale plots likewise exclude them).
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Cdf { sorted }
    }

    /// Number of retained (finite) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx]
    }

    /// (x, F(x)) points suitable for plotting, subsampled to at most
    /// `max_points`.
    pub fn points(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n / max_points).max(1);
        let mut pts: Vec<(f64, f64)> = (0..n)
            .step_by(step)
            .map(|i| (self.sorted[i], (i + 1) as f64 / n as f64))
            .collect();
        if pts.last().map(|p| p.1) != Some(1.0) {
            pts.push((self.sorted[n - 1], 1.0));
        }
        pts
    }
}

/// A fixed-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && lo < hi, "bad histogram shape");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds a sample; out-of-range samples clamp into the edge bins.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin proportions (each count over the total).
    pub fn proportions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Safe base-10 logarithm for strictly positive values.
pub fn log10_pos(x: f64) -> Option<f64> {
    if x > 0.0 && x.is_finite() {
        Some(x.log10())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        assert_eq!(variance(&[0.0, 2.0]), Some(1.0));
        assert_eq!(stddev(&[0.0, 2.0]), Some(1.0));
    }

    #[test]
    fn perfect_line_fit() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r - 1.0).abs() < 1e-12);
        assert!((fit.predict(10.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn anti_correlated_fit() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [4.0, 2.0, 0.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 2.0).abs() < 1e-12);
        assert!((fit.r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_degenerate_cases() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn pearson_matches_fit_r() {
        let xs = [1.0, 2.0, 3.0, 5.0, 8.0];
        let ys = [1.2, 1.9, 3.4, 4.6, 8.3];
        let r1 = pearson(&xs, &ys).unwrap();
        let r2 = linear_fit(&xs, &ys).unwrap().r;
        assert!((r1 - r2).abs() < 1e-12);
        assert!(r1 > 0.98);
    }

    #[test]
    fn pearson_zero_variance_is_none() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0, 3.0]), None);
    }

    #[test]
    fn cdf_basic() {
        let cdf = Cdf::from_samples([3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.5);
        assert_eq!(cdf.fraction_at_most(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
    }

    #[test]
    fn cdf_drops_nonfinite() {
        let cdf = Cdf::from_samples([1.0, f64::INFINITY, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_points_end_at_one() {
        let cdf = Cdf::from_samples((0..100).map(|i| i as f64));
        let pts = cdf.points(10);
        assert!(pts.len() <= 12);
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(9.5);
        h.add(-3.0); // clamps into bin 0
        h.add(42.0); // clamps into bin 9
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 4);
        let p = h.proportions();
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log10_pos_filters() {
        assert_eq!(log10_pos(100.0), Some(2.0));
        assert_eq!(log10_pos(0.0), None);
        assert_eq!(log10_pos(-1.0), None);
        assert_eq!(log10_pos(f64::INFINITY), None);
    }
}
