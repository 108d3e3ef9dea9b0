//! Scheduled failure injection and typed fault resolution.
//!
//! Statistical loss ([`netsim::fault::FaultSpec`]) exercises the LLC
//! replay protocol; this module injects the failures replay *cannot*
//! mask: cut cables, dead lanes, crashed donors and failed switch
//! ports, each scheduled at an exact simulated instant on the fabric's
//! own event queue. A [`ChaosPlan`] is a deterministic script — the
//! same plan on the same topology yields the same trajectory, so chaos
//! runs sweep and replay exactly like healthy ones.
//!
//! Failures target links by *topology name* ([`LinkRef::Name`], e.g.
//! `"h0x1-h0x2"` on a torus) so a scenario file survives re-wiring; the
//! raw slot-index form ([`LinkRef::Slot`]) addresses one endpoint slot,
//! which is how the engine restores a link after a switch reroute.
//! Downing a named link that a route merely *crosses* (an interior hop)
//! exercises adaptive re-route around the failure rather than endpoint
//! death.
//!
//! The contract the fabric upholds under a plan is *exactly-once or
//! typed fault*: every load in flight when a failure lands either
//! completes normally (the outage was shorter than the detection
//! window, or a surviving bonded lane carried it) or resolves to one
//! [`LoadFault`] naming the failure — never both, and never silence.

use std::fmt;

use simkit::time::SimTime;

use netsim::switch::PortId;

use crate::fabric::engine::PathId;

/// How a chaos event names the link it targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkRef {
    /// A raw endpoint link-slot index (= channel id). Slot numbering is
    /// an artifact of attach order, so scenarios that must survive
    /// re-wiring name topology links instead.
    Slot(usize),
    /// A topology link name (e.g. `"h0-hub"`, `"h1x2-h2x2"`). An
    /// endpoint link resolves to every slot riding it; an interior link
    /// downs the matching forwarding segments and triggers adaptive
    /// re-route. A `"name#k"` suffix selects only the `k`-th riding
    /// slot (bonded endpoints).
    Name(String),
}

impl LinkRef {
    /// A name reference.
    pub fn named(name: &str) -> Self {
        LinkRef::Name(name.to_string())
    }
}

impl From<usize> for LinkRef {
    fn from(slot: usize) -> Self {
        LinkRef::Slot(slot)
    }
}

impl From<&str> for LinkRef {
    fn from(name: &str) -> Self {
        LinkRef::Name(name.to_string())
    }
}

impl From<String> for LinkRef {
    fn from(name: String) -> Self {
        LinkRef::Name(name)
    }
}

impl fmt::Display for LinkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkRef::Slot(i) => write!(f, "link {i}"),
            LinkRef::Name(n) => write!(f, "link \"{n}\""),
        }
    }
}

/// One scheduled failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Hard-down a link's both physical channels (a cut cable).
    LinkDown {
        /// The targeted link.
        link: LinkRef,
    },
    /// Restore a hard-downed link. Scheduled automatically by
    /// [`ChaosEvent::LinkFlap`]; may also be scripted directly.
    LinkUp {
        /// The targeted link.
        link: LinkRef,
    },
    /// Down then up: the link is dark for `down_for`, then restored.
    /// Shorter than the detection window, a flap costs only replays.
    LinkFlap {
        /// The targeted link.
        link: LinkRef,
        /// How long the link stays dark.
        down_for: SimTime,
    },
    /// Fail one bonded serDES lane on both directions of a link: the
    /// channel keeps running at `N-1` lanes and proportionally reduced
    /// bandwidth. Failing the last lane is a [`ChaosEvent::LinkDown`].
    LaneFail {
        /// The targeted link.
        link: LinkRef,
    },
    /// The donor host dies mid-service: every path it serves loses all
    /// its links, and every in-flight load on them resolves to a fault.
    DonorCrash {
        /// Donor index (see [`crate::fabric::Fabric::path_donor`]).
        donor: usize,
    },
    /// A circuit-switch port fails. The switch re-programs the affected
    /// circuit around it (one reconfiguration latency of darkness) or,
    /// with no free ports left, the link riding it dies.
    SwitchPortFail {
        /// The failing switch port.
        port: PortId,
    },
}

/// A deterministic failure script: `(instant, event)` pairs handed to
/// [`crate::fabric::Fabric::schedule_chaos`].
///
/// # Example
///
/// ```
/// use thymesisflow_core::fabric::{ChaosPlan, ChaosEvent};
/// use simkit::time::SimTime;
///
/// let plan = ChaosPlan::new()
///     .link_flap_named(SimTime::from_us(5), "h0-h1", SimTime::from_us(10))
///     .donor_crash(SimTime::from_us(40), 0);
/// assert_eq!(plan.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    events: Vec<(SimTime, ChaosEvent)>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Schedules an arbitrary event.
    pub fn at(mut self, at: SimTime, event: ChaosEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Cuts the topology link `name` at `at`.
    pub fn link_down_named(self, at: SimTime, name: &str) -> Self {
        self.at(at, ChaosEvent::LinkDown { link: LinkRef::named(name) })
    }

    /// Darkens the topology link `name` at `at` for `down_for`.
    pub fn link_flap_named(self, at: SimTime, name: &str, down_for: SimTime) -> Self {
        self.at(
            at,
            ChaosEvent::LinkFlap { link: LinkRef::named(name), down_for },
        )
    }

    /// Fails one bonded lane of the topology link `name` at `at`.
    pub fn lane_fail_named(self, at: SimTime, name: &str) -> Self {
        self.at(at, ChaosEvent::LaneFail { link: LinkRef::named(name) })
    }

    /// Crashes donor `donor` at `at`.
    pub fn donor_crash(self, at: SimTime, donor: usize) -> Self {
        self.at(at, ChaosEvent::DonorCrash { donor })
    }

    /// The scripted `(instant, event)` pairs, in insertion order (the
    /// queue's FIFO tie-break keeps coincident events in this order).
    pub fn events(&self) -> &[(SimTime, ChaosEvent)] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// How the fabric detects dead links once a [`ChaosPlan`] is armed.
///
/// A per-link watchdog samples the link's LLC progress counters every
/// `watchdog_period`; each silent sample while work is outstanding is a
/// strike (and re-kicks tail replay, the keepalive), and `dead_after`
/// consecutive strikes declare the link dead. An outage shorter than
/// `watchdog_period × dead_after` is therefore survivable; a longer one
/// resolves every stranded load to a typed [`LoadFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Interval between watchdog samples of a suspect link.
    pub watchdog_period: SimTime,
    /// Consecutive progress-free samples before the link is declared
    /// dead.
    pub dead_after: u32,
}

impl RecoveryConfig {
    /// The detection window: silence longer than this kills the link.
    pub fn detection_window(&self) -> SimTime {
        let mut w = SimTime::ZERO;
        for _ in 0..self.dead_after {
            w = w + self.watchdog_period;
        }
        w
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            watchdog_period: SimTime::from_us(5),
            dead_after: 4,
        }
    }
}

/// Why a load (or a lease) faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The link went silent past the detection window and was declared
    /// dead.
    LinkDead {
        /// The dead link.
        link: usize,
    },
    /// The donor host crashed.
    DonorCrash {
        /// The crashed donor's index.
        donor: usize,
    },
    /// The circuit-switch port failed and no spare circuit existed.
    SwitchPortFail {
        /// The failed port.
        port: PortId,
    },
    /// An interior topology link died and no detour route survived.
    RouteLost {
        /// The downed topology link (index into the topology's links).
        topo_link: usize,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::LinkDead { link } => write!(f, "link {link} declared dead"),
            FaultKind::DonorCrash { donor } => write!(f, "donor {donor} crashed"),
            FaultKind::SwitchPortFail { port } => {
                write!(f, "switch port {} failed", port.0)
            }
            FaultKind::RouteLost { topo_link } => {
                write!(f, "no surviving route around topology link {topo_link}")
            }
        }
    }
}

/// The typed resolution of one in-flight load that could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadFault {
    /// The load's tag.
    pub tag: u64,
    /// The path it was issued on.
    pub path: PathId,
    /// When the fault was resolved.
    pub at: SimTime,
    /// Why.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_preserves_script_order() {
        let plan = ChaosPlan::new()
            .link_flap_named(SimTime::from_us(5), "h0-h1", SimTime::from_us(2))
            .lane_fail_named(SimTime::from_us(5), "h1-h2")
            .donor_crash(SimTime::from_us(9), 0);
        let evs = plan.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs[0],
            (
                SimTime::from_us(5),
                ChaosEvent::LinkFlap {
                    link: LinkRef::named("h0-h1"),
                    down_for: SimTime::from_us(2)
                }
            )
        );
        assert_eq!(
            evs[1],
            (
                SimTime::from_us(5),
                ChaosEvent::LaneFail { link: LinkRef::named("h1-h2") }
            )
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn link_refs_convert_and_render() {
        assert_eq!(LinkRef::from(3), LinkRef::Slot(3));
        assert_eq!(LinkRef::from("h0-h1"), LinkRef::named("h0-h1"));
        assert_eq!(LinkRef::Slot(2).to_string(), "link 2");
        assert_eq!(LinkRef::named("h0-h1").to_string(), "link \"h0-h1\"");
    }

    #[test]
    fn detection_window_is_period_times_strikes() {
        let cfg = RecoveryConfig {
            watchdog_period: SimTime::from_us(3),
            dead_after: 5,
        };
        assert_eq!(cfg.detection_window(), SimTime::from_us(15));
        let dflt = RecoveryConfig::default();
        assert_eq!(dflt.detection_window(), SimTime::from_us(20));
    }

    #[test]
    fn fault_kinds_render_their_component() {
        assert_eq!(
            FaultKind::LinkDead { link: 3 }.to_string(),
            "link 3 declared dead"
        );
        assert_eq!(
            FaultKind::DonorCrash { donor: 1 }.to_string(),
            "donor 1 crashed"
        );
        assert_eq!(
            FaultKind::SwitchPortFail { port: PortId(7) }.to_string(),
            "switch port 7 failed"
        );
        assert_eq!(
            FaultKind::RouteLost { topo_link: 9 }.to_string(),
            "no surviving route around topology link 9"
        );
    }
}
