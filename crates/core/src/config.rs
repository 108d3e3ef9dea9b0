//! The five experimental system configurations (paper §VI-A, Fig. 4).

use serde::{Deserialize, Serialize};

/// How the application server's memory (and CPUs) are provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemConfig {
    /// All memory served locally on the node running the server
    /// (Fig. 4a).
    Local,
    /// All memory stolen from the neighbour node over **one** 100 Gbit/s
    /// ThymesisFlow channel (Fig. 4b).
    SingleDisaggregated,
    /// Like single, but both channels (200 Gbit/s) in bonding mode
    /// (Fig. 4b).
    BondingDisaggregated,
    /// Pages round-robin interleaved 50/50 between local and
    /// disaggregated memory (Fig. 4c).
    Interleaved,
    /// The traditional baseline: the server scales out over both nodes
    /// with purely local memory, synchronising over 100 Gbit/s Ethernet
    /// (Fig. 4d).
    ScaleOut,
}

impl SystemConfig {
    /// Every configuration, in the paper's presentation order.
    pub const ALL: [SystemConfig; 5] = [
        SystemConfig::Local,
        SystemConfig::SingleDisaggregated,
        SystemConfig::BondingDisaggregated,
        SystemConfig::Interleaved,
        SystemConfig::ScaleOut,
    ];

    /// The configurations that exercise the ThymesisFlow datapath.
    pub const THYMESISFLOW: [SystemConfig; 3] = [
        SystemConfig::SingleDisaggregated,
        SystemConfig::BondingDisaggregated,
        SystemConfig::Interleaved,
    ];

    /// Fraction of the server's memory accesses that cross the
    /// interconnect.
    pub fn remote_fraction(self) -> f64 {
        match self {
            SystemConfig::Local | SystemConfig::ScaleOut => 0.0,
            SystemConfig::SingleDisaggregated | SystemConfig::BondingDisaggregated => 1.0,
            SystemConfig::Interleaved => 0.5,
        }
    }

    /// ThymesisFlow channels in use.
    pub fn channels(self) -> u32 {
        match self {
            SystemConfig::BondingDisaggregated => 2,
            SystemConfig::SingleDisaggregated | SystemConfig::Interleaved => 1,
            SystemConfig::Local | SystemConfig::ScaleOut => 0,
        }
    }

    /// Whether the configuration spreads the server across two nodes
    /// (doubling compute, adding network synchronisation).
    pub fn is_scale_out(self) -> bool {
        self == SystemConfig::ScaleOut
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemConfig::Local => "local",
            SystemConfig::SingleDisaggregated => "single-disaggregated",
            SystemConfig::BondingDisaggregated => "bonding-disaggregated",
            SystemConfig::Interleaved => "interleaved",
            SystemConfig::ScaleOut => "scale-out",
        }
    }
}

impl std::fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // exact: the fractions are the constants 0, 1 and 1/2
    fn fractions_and_channels() {
        assert_eq!(SystemConfig::Local.remote_fraction(), 0.0);
        assert_eq!(SystemConfig::SingleDisaggregated.remote_fraction(), 1.0);
        assert_eq!(SystemConfig::Interleaved.remote_fraction(), 0.5);
        assert_eq!(SystemConfig::BondingDisaggregated.channels(), 2);
        assert_eq!(SystemConfig::ScaleOut.channels(), 0);
        assert!(SystemConfig::ScaleOut.is_scale_out());
    }

    #[test]
    fn labels_match_figures() {
        let labels: Vec<&str> = SystemConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "local",
                "single-disaggregated",
                "bonding-disaggregated",
                "interleaved",
                "scale-out"
            ]
        );
    }
}
