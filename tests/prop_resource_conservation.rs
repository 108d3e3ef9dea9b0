//! Property tests across the whole stack: arbitrary attach/detach
//! sequences never leak or double-book resources.

use proptest::prelude::*;
use thymesisflow::core::attach::{AttachRequest, Lease};
use thymesisflow::core::rack::{NodeConfig, Rack, RackBuilder};
use thymesisflow::simkit::units::GIB;

fn rack() -> Rack {
    RackBuilder::new()
        .node(NodeConfig::ac922("a"))
        .node(NodeConfig::ac922("b"))
        .cable("a", "b")
        .build()
        .expect("rack builds")
}

#[derive(Debug, Clone)]
enum Action {
    Attach { sections: u64, bonded: bool, flip: bool },
    DetachOldest,
    DetachNewest,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    // Every other attach is 4 sections, so one donor often serves two
    // leases of the same size.
    let sections = prop_oneof![1u64..16, Just(4u64)];
    prop_oneof![
        (sections, any::<bool>(), any::<bool>()).prop_map(|(sections, bonded, flip)| {
            Action::Attach {
                sections,
                bonded,
                flip,
            }
        }),
        Just(Action::DetachOldest),
        Just(Action::DetachNewest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn attach_detach_sequences_conserve_resources(
        actions in prop::collection::vec(action_strategy(), 1..24)
    ) {
        let mut rack = rack();
        let mut live: Vec<Lease> = Vec::new();
        for action in actions {
            match action {
                Action::Attach { sections, bonded, flip } => {
                    let bytes = sections * (256 << 20);
                    let (c, m) = if flip { ("b", "a") } else { ("a", "b") };
                    let mut req = AttachRequest::new(c, m, bytes);
                    if bonded {
                        req = req.bonded();
                    }
                    // Capacity/path exhaustion is legal.
                    if let Ok(lease) = rack.attach(req) {
                        live.push(lease);
                    }
                }
                Action::DetachOldest => {
                    if !live.is_empty() {
                        let lease = live.remove(0);
                        rack.detach(lease.id()).expect("live lease detaches");
                    }
                }
                Action::DetachNewest => {
                    if let Some(lease) = live.pop() {
                        rack.detach(lease.id()).expect("live lease detaches");
                    }
                }
            }
            for host in ["a", "b"] {
                // Each host's remote bytes equal the sum of its live
                // leases.
                let expect: u64 = live
                    .iter()
                    .filter(|l| l.compute() == host)
                    .map(Lease::bytes)
                    .sum();
                prop_assert_eq!(
                    rack.host(host).expect("host").remote_bytes(),
                    expect,
                    "host {} leaks",
                    host
                );
                // Each donor's pinned PASIDs are exactly its live leases'.
                let mut pinned: Vec<u32> =
                    rack.pinned(host).expect("host").iter().map(|p| p.pasid).collect();
                pinned.sort_unstable();
                let mut served: Vec<u32> =
                    live.iter().filter(|l| l.memory() == host).map(Lease::pasid).collect();
                served.sort_unstable();
                prop_assert_eq!(pinned, served, "donor {} pins", host);
            }
            // No cabled pair carries more channels than it has cables.
            for link in rack.control_plane().links() {
                prop_assert!(link.held <= link.cables, "{:?}", link);
            }
        }
        // Full teardown always succeeds and restores the pristine state.
        for lease in live {
            rack.detach(lease.id()).expect("teardown");
        }
        for host in ["a", "b"] {
            let h = rack.host(host).expect("host");
            prop_assert_eq!(h.remote_bytes(), 0);
            prop_assert_eq!(h.numa().nodes().len(), 2);
            prop_assert_eq!(h.local_bytes(), 512 * GIB);
            prop_assert!(rack.pinned(host).expect("host").is_empty());
        }
        prop_assert!(rack.control_plane().links().iter().all(|l| l.held == 0));
        prop_assert_eq!(rack.leases().count(), 0);
    }
}
