//! The adaptive temperature boundary (§7.1).
//!
//! "Farron employs a window to track recent temperature monitoring
//! records, raising the temperature boundary for workload backoff if more
//! than a half of temperature records within the window exceed current
//! boundary … If less than half of the temperature records exceed current
//! boundary, workload backoff will be triggered, until the temperature is
//! below the boundary." The boundary thus converges onto the
//! application's standard working temperature, keeping backoff rare.

use std::collections::VecDeque;

/// What the controller should do after a temperature observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Temperature within bounds; run at full speed.
    Proceed,
    /// Temperature above the learned boundary; back the workload off.
    Backoff,
}

/// The adaptive boundary controller.
///
/// # Examples
///
/// ```
/// use farron::boundary::{AdaptiveBoundary, BoundaryAction};
///
/// let mut b = AdaptiveBoundary::new(50.0, 4, 70.0);
/// // The application's normal range is learned…
/// for _ in 0..20 {
///     b.observe(55.0);
/// }
/// assert!(b.boundary_c() >= 55.0);
/// // …and a genuine excursion still triggers backoff.
/// assert_eq!(b.observe(70.0), BoundaryAction::Backoff);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveBoundary {
    boundary_c: f64,
    window: VecDeque<f64>,
    window_size: usize,
    raise_step_c: f64,
    max_boundary_c: f64,
    /// Hysteresis: backoff engages only beyond `boundary + margin`,
    /// preventing limit cycles when the learned boundary sits exactly at
    /// the application's natural peak ("minimizing the frequent use of
    /// workload backoff").
    backoff_margin_c: f64,
}

impl AdaptiveBoundary {
    /// A controller starting at `initial_c`, learning over windows of
    /// `window_size` observations, never exceeding `max_boundary_c` (the
    /// hard limit protects against learning a dangerous normal).
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero or the bounds are inverted.
    pub fn new(initial_c: f64, window_size: usize, max_boundary_c: f64) -> AdaptiveBoundary {
        assert!(window_size > 0, "empty window");
        assert!(
            initial_c <= max_boundary_c,
            "initial boundary above maximum"
        );
        AdaptiveBoundary {
            boundary_c: initial_c,
            window: VecDeque::with_capacity(window_size),
            window_size,
            raise_step_c: 1.0,
            max_boundary_c,
            backoff_margin_c: 0.5,
        }
    }

    /// Current boundary, ℃.
    pub fn boundary_c(&self) -> f64 {
        self.boundary_c
    }

    /// Feeds one temperature record; returns the action to take.
    pub fn observe(&mut self, temp_c: f64) -> BoundaryAction {
        if self.window.len() == self.window_size {
            self.window.pop_front();
        }
        self.window.push_back(temp_c);
        let above = self.window.iter().filter(|&&t| t > self.boundary_c).count();
        if above * 2 > self.window.len() && self.window.len() == self.window_size {
            // The majority of recent records exceed the boundary: this is
            // the application's normal range — learn it (bounded by the
            // hard maximum; beyond that, backoff still applies).
            self.boundary_c = (self.boundary_c + self.raise_step_c).min(self.max_boundary_c);
        }
        if temp_c > self.boundary_c + self.backoff_margin_c {
            BoundaryAction::Backoff
        } else {
            BoundaryAction::Proceed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_quiet_below_boundary() {
        let mut b = AdaptiveBoundary::new(59.0, 10, 80.0);
        for _ in 0..100 {
            assert_eq!(b.observe(52.0), BoundaryAction::Proceed);
        }
        assert_eq!(b.boundary_c(), 59.0, "boundary untouched");
    }

    #[test]
    fn learns_a_hotter_normal() {
        let mut b = AdaptiveBoundary::new(55.0, 10, 80.0);
        // The application normally runs at 62 ℃: after enough windows the
        // boundary converges above it and backoff stops.
        let mut backoffs = 0;
        for _ in 0..200 {
            if b.observe(62.0) == BoundaryAction::Backoff {
                backoffs += 1;
            }
        }
        assert!(
            b.boundary_c() >= 62.0,
            "boundary learned: {}",
            b.boundary_c()
        );
        assert!(backoffs < 30, "backoff stops once learned: {backoffs}");
        for _ in 0..50 {
            assert_eq!(b.observe(62.0), BoundaryAction::Proceed);
        }
    }

    #[test]
    fn transient_spikes_trigger_backoff_without_learning() {
        let mut b = AdaptiveBoundary::new(59.0, 10, 80.0);
        for _ in 0..20 {
            b.observe(50.0);
        }
        // A lone excursion: minority of the window → backoff, no raise.
        assert_eq!(b.observe(65.0), BoundaryAction::Backoff);
        assert_eq!(b.boundary_c(), 59.0);
    }

    #[test]
    fn boundary_respects_hard_maximum_and_keeps_backing_off() {
        let mut b = AdaptiveBoundary::new(70.0, 4, 72.0);
        let mut last = BoundaryAction::Proceed;
        for _ in 0..100 {
            last = b.observe(95.0);
        }
        assert_eq!(b.boundary_c(), 72.0);
        assert_eq!(
            last,
            BoundaryAction::Backoff,
            "a capped boundary still backs off"
        );
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn rejects_zero_window() {
        let _ = AdaptiveBoundary::new(59.0, 0, 80.0);
    }
}
