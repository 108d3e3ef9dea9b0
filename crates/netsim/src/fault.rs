//! Deterministic fault injection for links.
//!
//! The LLC's replay machinery only matters if frames can be lost or
//! damaged; this module decides the fate of each frame from a seeded RNG
//! so failure scenarios replay identically across runs.

use serde::{Deserialize, Serialize};
use simkit::rng::DetRng;

/// Fault probabilities for a link direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability an individual frame is silently lost.
    pub drop_prob: f64,
    /// Probability an individual frame arrives with a CRC error.
    pub corrupt_prob: f64,
}

impl FaultSpec {
    /// A lossless link.
    pub const LOSSLESS: FaultSpec = FaultSpec {
        drop_prob: 0.0,
        corrupt_prob: 0.0,
    };

    /// Builds a spec, validating probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` or their sum
    /// exceeds 1.
    pub fn new(drop_prob: f64, corrupt_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob) && (0.0..=1.0).contains(&corrupt_prob),
            "probabilities must be in [0, 1]"
        );
        assert!(
            drop_prob + corrupt_prob <= 1.0,
            "drop + corrupt cannot exceed 1"
        );
        FaultSpec {
            drop_prob,
            corrupt_prob,
        }
    }

    /// Whether any fault can occur.
    pub(crate) fn is_lossless(&self) -> bool {
        // Probabilities are validated non-negative, so ≤ 0 means exactly 0
        // without an exact float comparison.
        self.drop_prob <= 0.0 && self.corrupt_prob <= 0.0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::LOSSLESS
    }
}

/// The fate of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered intact.
    Intact,
    /// Delivered with a CRC error.
    Corrupt,
    /// Never delivered.
    Lost,
}

/// Stateful fault roller.
///
/// # Example
///
/// ```
/// use netsim::fault::{Fate, FaultInjector, FaultSpec};
///
/// let mut inj = FaultInjector::new(FaultSpec::LOSSLESS, 1);
/// assert_eq!(inj.roll(), Fate::Intact);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: DetRng,
    drops: u64,
    corruptions: u64,
    frames: u64,
}

impl FaultInjector {
    /// Creates an injector with its own RNG stream.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultInjector {
            spec,
            rng: DetRng::new(seed),
            drops: 0,
            corruptions: 0,
            frames: 0,
        }
    }

    /// Decides the fate of the next frame.
    pub fn roll(&mut self) -> Fate {
        self.frames += 1;
        if self.spec.is_lossless() {
            return Fate::Intact;
        }
        let x = self.rng.f64();
        if x < self.spec.drop_prob {
            self.drops += 1;
            Fate::Lost
        } else if x < self.spec.drop_prob + self.spec.corrupt_prob {
            self.corruptions += 1;
            Fate::Corrupt
        } else {
            Fate::Intact
        }
    }

    /// The configured probabilities.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Frames lost so far.
    pub(crate) fn drops(&self) -> u64 {
        self.drops
    }

    /// Frames corrupted so far.
    pub(crate) fn corruptions(&self) -> u64 {
        self.corruptions
    }

    /// Frames examined so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_never_faults() {
        let mut inj = FaultInjector::new(FaultSpec::LOSSLESS, 42);
        for _ in 0..10_000 {
            assert_eq!(inj.roll(), Fate::Intact);
        }
        assert_eq!(inj.drops(), 0);
        assert_eq!(inj.corruptions(), 0);
    }

    #[test]
    fn rates_are_respected() {
        let mut inj = FaultInjector::new(FaultSpec::new(0.1, 0.2), 7);
        let n = 100_000;
        for _ in 0..n {
            inj.roll();
        }
        let drop_rate = inj.drops() as f64 / n as f64;
        let corrupt_rate = inj.corruptions() as f64 / n as f64;
        assert!((drop_rate - 0.1).abs() < 0.01, "drop {drop_rate}");
        assert!((corrupt_rate - 0.2).abs() < 0.01, "corrupt {corrupt_rate}");
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = FaultInjector::new(FaultSpec::new(0.3, 0.3), 99);
        let mut b = FaultInjector::new(FaultSpec::new(0.3, 0.3), 99);
        for _ in 0..1000 {
            assert_eq!(a.roll(), b.roll());
        }
    }

    #[test]
    #[should_panic(expected = "cannot exceed 1")]
    fn overfull_spec_panics() {
        FaultSpec::new(0.7, 0.7);
    }
}
