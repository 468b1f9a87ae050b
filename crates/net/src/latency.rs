//! Message latency models.

use std::time::Duration;

use rand::Rng;

/// How long a message takes to travel between two peers.
///
/// The paper's cluster is a local area network; the default model reproduces
/// a LAN-like profile (a fraction of a millisecond, lightly jittered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Duration),
    /// Latency is drawn uniformly from `[min, max]` per message.
    Uniform {
        /// Minimum one-way latency.
        min: Duration,
        /// Maximum one-way latency.
        max: Duration,
    },
}

impl LatencyModel {
    /// LAN profile: 100–400 µs one-way, matching the paper's cluster.
    pub fn lan() -> Self {
        LatencyModel::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_micros(400),
        }
    }

    /// Zero latency (useful for pure logic tests).
    pub fn zero() -> Self {
        LatencyModel::Constant(Duration::ZERO)
    }

    /// Samples a one-way delivery latency.
    pub fn sample(&self, rng: &mut impl Rng) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                if max <= min {
                    return min;
                }
                let span = (max - min).as_nanos() as u64;
                min + Duration::from_nanos(rng.gen_range(0..=span))
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::lan()
    }
}

/// Network-level configuration for the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// One-way message latency model.
    pub latency: LatencyModel,
    /// Fixed per-message processing delay charged at the receiver before the
    /// handler runs (models (de)serialization and scheduling costs).
    pub processing_delay: Duration,
    /// Seed for the simulator's deterministic random number generator.
    pub seed: u64,
}

impl NetworkConfig {
    /// LAN defaults with a fixed seed.
    pub fn lan(seed: u64) -> Self {
        NetworkConfig {
            latency: LatencyModel::lan(),
            processing_delay: Duration::from_micros(50),
            seed,
        }
    }

    /// Zero-latency profile (for protocol logic tests).
    pub fn instant(seed: u64) -> Self {
        NetworkConfig {
            latency: LatencyModel::zero(),
            processing_delay: Duration::ZERO,
            seed,
        }
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_latency_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant(Duration::from_millis(3));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_millis(3));
        }
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let min = Duration::from_micros(100);
        let max = Duration::from_micros(400);
        let m = LatencyModel::Uniform { min, max };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= min && d <= max, "{d:?} out of bounds");
        }
    }

    #[test]
    fn degenerate_uniform_returns_min() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyModel::Uniform {
            min: Duration::from_millis(5),
            max: Duration::from_millis(5),
        };
        assert_eq!(m.sample(&mut rng), Duration::from_millis(5));
    }

    #[test]
    fn presets() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(LatencyModel::lan().sample(&mut rng) < Duration::from_millis(1));
        assert_eq!(LatencyModel::zero().sample(&mut rng), Duration::ZERO);
        let cfg = NetworkConfig::default();
        assert_eq!(cfg.latency, LatencyModel::lan());
        assert_eq!(NetworkConfig::instant(7).processing_delay, Duration::ZERO);
    }
}
