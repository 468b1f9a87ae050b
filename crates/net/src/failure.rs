//! Fail-stop failure schedules.
//!
//! The paper's failure-mode experiments kill peers at a configurable rate
//! (Figure 23 sweeps 0–12 failures per 100 seconds). [`FailureSchedule`]
//! generates a deterministic sequence of kill times at a given rate over a
//! given horizon so the same failure pattern can be replayed against both the
//! naive and the PEPPER configurations.

use std::time::Duration;

use rand::Rng;

use crate::time::SimTime;

/// A deterministic schedule of fail-stop times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureSchedule {
    times: Vec<SimTime>,
}

impl FailureSchedule {
    /// Builds a schedule with `failures_per_100s` failures per 100 seconds of
    /// virtual time, spread over `[start, start + horizon]` with uniform
    /// jitter around the nominal inter-failure gap.
    pub fn poisson_like(
        failures_per_100s: f64,
        start: SimTime,
        horizon: Duration,
        rng: &mut impl Rng,
    ) -> Self {
        if failures_per_100s <= 0.0 {
            return FailureSchedule::default();
        }
        let rate_per_sec = failures_per_100s / 100.0;
        let expected = (horizon.as_secs_f64() * rate_per_sec).floor() as usize;
        if expected == 0 {
            return FailureSchedule::default();
        }
        let gap = horizon.as_secs_f64() / expected as f64;
        let mut times = Vec::with_capacity(expected);
        for i in 0..expected {
            let nominal = gap * (i as f64 + 0.5);
            let jitter = rng.gen_range(-0.4..0.4) * gap;
            let at = (nominal + jitter).max(0.0);
            times.push(start + Duration::from_secs_f64(at));
        }
        times.sort_unstable();
        FailureSchedule { times }
    }

    /// The scheduled failure times, in increasing order.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` when no failures are scheduled.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rate_has_no_failures() {
        let mut rng = StdRng::seed_from_u64(1);
        let s =
            FailureSchedule::poisson_like(0.0, SimTime::ZERO, Duration::from_secs(100), &mut rng);
        assert!(s.is_empty());
    }

    #[test]
    fn rate_determines_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = FailureSchedule::poisson_like(
            10.0,
            SimTime::from_secs(5),
            Duration::from_secs(100),
            &mut rng,
        );
        assert_eq!(s.len(), 10);
        // All times fall within the horizon (with start offset).
        for &t in s.times() {
            assert!(t >= SimTime::from_secs(5));
            assert!(t <= SimTime::from_secs(5) + Duration::from_secs(100));
        }
        // Sorted.
        let mut sorted = s.times().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, s.times());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            FailureSchedule::poisson_like(6.0, SimTime::ZERO, Duration::from_secs(200), &mut rng)
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn count_tracks_rate_times_horizon() {
        // count = floor(horizon_secs · rate_per_sec) across a rate sweep,
        // including fractional expectations.
        let mut rng = StdRng::seed_from_u64(11);
        for (rate, horizon_s, expected) in [
            (4.0, 50, 2),  // 0.04/s · 50 s
            (12.0, 30, 3), // 0.12/s · 30 s → 3.6 → 3
            (1.0, 99, 0),  // 0.01/s · 99 s → 0.99 → 0 (below one failure)
            (100.0, 10, 10),
        ] {
            let s = FailureSchedule::poisson_like(
                rate,
                SimTime::ZERO,
                Duration::from_secs(horizon_s),
                &mut rng,
            );
            assert_eq!(s.len(), expected, "rate {rate} over {horizon_s}s");
            for &t in s.times() {
                assert!(t <= SimTime::from_secs(horizon_s));
            }
            let mut sorted = s.times().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, s.times(), "times must come out sorted");
        }
    }

    #[test]
    fn negative_rate_is_treated_as_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let s =
            FailureSchedule::poisson_like(-5.0, SimTime::ZERO, Duration::from_secs(100), &mut rng);
        assert!(s.is_empty());
    }
}
