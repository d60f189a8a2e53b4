//! Cycle/wall-clock conversion helpers.

/// Converts between core cycles and wall-clock time for a given clock
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    ghz: f64,
}

impl Clock {
    /// Creates a clock running at `ghz` GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not positive.
    pub fn new(ghz: f64) -> Self {
        assert!(ghz > 0.0, "clock frequency must be positive");
        Clock { ghz }
    }

    /// The clock frequency in GHz.
    pub fn ghz(&self) -> f64 {
        self.ghz
    }

    /// Converts cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.ghz
    }

    /// Converts cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        self.cycles_to_ns(cycles) / 1_000_000.0
    }

    /// Converts microseconds to cycles (rounded).
    pub fn us_to_cycles(&self, us: f64) -> u64 {
        (us * 1_000.0 * self.ghz).round() as u64
    }

    /// Converts milliseconds to cycles (rounded).
    pub fn ms_to_cycles(&self, ms: f64) -> u64 {
        self.us_to_cycles(ms * 1_000.0)
    }
}

impl Default for Clock {
    /// A 1 GHz clock.
    fn default() -> Self {
        Clock::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_at_one_ghz() {
        let c = Clock::new(1.0);
        assert_eq!(c.cycles_to_ns(1_000), 1_000.0);
        assert_eq!(c.cycles_to_ms(1_000_000), 1.0);
        assert_eq!(c.us_to_cycles(5.0), 5_000);
        assert_eq!(c.ms_to_cycles(15.0), 15_000_000);
    }

    #[test]
    fn conversions_scale_with_frequency() {
        let c = Clock::new(2.0);
        assert_eq!(c.cycles_to_ns(1_000), 500.0);
        assert_eq!(c.us_to_cycles(1.0), 2_000);
    }

    #[test]
    fn roundtrip() {
        let c = Clock::new(1.2);
        let cycles = c.ms_to_cycles(0.19);
        assert!((c.cycles_to_ms(cycles) - 0.19).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        Clock::new(0.0);
    }
}
