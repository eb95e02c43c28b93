//! Idle-period length prediction.

use simkit::SimDuration;

/// Predicts the length of the next idle period from the lengths of recent
/// ones.
///
/// The paper's prediction-based and history-based strategies "assume that
/// successive idle periods exhibit similar behavior as far as their
/// duration is concerned" (§II). This predictor generalizes the last-value
/// assumption to an exponentially weighted moving average: with
/// `alpha = 1.0` it degenerates to pure last-value prediction; smaller
/// values smooth over noise.
///
/// # Example
///
/// ```
/// use sdds_power::IdlePredictor;
/// use simkit::SimDuration;
///
/// let mut p = IdlePredictor::new(1.0);
/// assert_eq!(p.predict(), None); // no history yet
/// p.observe(SimDuration::from_millis(40));
/// assert_eq!(p.predict(), Some(SimDuration::from_millis(40)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IdlePredictor {
    alpha: f64,
    estimate_us: Option<f64>,
    observations: u64,
}

impl IdlePredictor {
    /// Creates a predictor with EWMA weight `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        IdlePredictor {
            alpha,
            estimate_us: None,
            observations: 0,
        }
    }

    /// Feeds the measured length of a completed idle period.
    pub fn observe(&mut self, length: SimDuration) {
        let x = length.as_micros() as f64;
        self.estimate_us = Some(match self.estimate_us {
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
            None => x,
        });
        self.observations += 1;
    }

    /// The predicted length of the next idle period, or `None` before any
    /// observation.
    pub fn predict(&self) -> Option<SimDuration> {
        self.estimate_us
            .map(|us| SimDuration::from_micros(us.round() as u64))
    }

    /// Number of idle periods observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn last_value_mode() {
        let mut p = IdlePredictor::new(1.0);
        p.observe(ms(10));
        p.observe(ms(30));
        assert_eq!(p.predict(), Some(ms(30)));
        assert_eq!(p.observations(), 2);
    }

    #[test]
    fn ewma_smooths() {
        let mut p = IdlePredictor::new(0.5);
        p.observe(ms(100));
        p.observe(ms(0)); // a zero-length outlier
        let predicted = p.predict().unwrap();
        assert_eq!(predicted, ms(50));
    }

    #[test]
    fn converges_to_stable_input() {
        let mut p = IdlePredictor::new(0.3);
        for _ in 0..100 {
            p.observe(ms(75));
        }
        let predicted = p.predict().unwrap();
        assert!(predicted.as_micros().abs_diff(75_000) < 500);
    }

    #[test]
    fn empty_predicts_none() {
        assert_eq!(IdlePredictor::new(0.5).predict(), None);
    }

    #[test]
    #[should_panic(expected = "EWMA alpha")]
    fn zero_alpha_panics() {
        let _ = IdlePredictor::new(0.0);
    }

    #[test]
    #[should_panic(expected = "EWMA alpha")]
    fn large_alpha_panics() {
        let _ = IdlePredictor::new(1.5);
    }
}
