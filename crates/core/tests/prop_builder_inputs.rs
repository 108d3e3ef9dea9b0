//! Property test over the public `FabricBuilder` entry points: any
//! channel count, attachment size, device window, donor count and
//! address placement yields a fabric or a typed `FabricError`, never a
//! panic.
//!
//! Windows stay at or below 1 TiB: the RMMU section table holds one
//! entry per 256 MiB of window, so a window near 2^64 bytes would ask
//! for billions of entries. Windows and donor ranges may still *sit*
//! near the top of the address space.

use proptest::prelude::*;
use routing::topology::{Line, NodeId};
use thymesisflow_core::fabric::{FabricBuilder, FabricError, PathSpec, WindowSpec};
use thymesisflow_core::params::DatapathParams;

const SECTION: u64 = 256 << 20;

/// A builder over a 2-node line, compute on node 0.
fn line2() -> FabricBuilder {
    let line = Line::new(2).expect("a 2-node line");
    FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
}

/// Base address `pick` (0..=5) for a `len`-byte range: 0 is
/// `ordinary`, 1..=4 is 2^64 − pick·128 (the range wraps), and 5 is
/// 2^64 − `len` (the range ends exactly at 2^64).
fn placement(pick: u64, ordinary: u64, len: u64) -> u64 {
    match pick {
        0 => ordinary,
        1..=4 => 0u64.wrapping_sub(pick * 128),
        _ => 0u64.wrapping_sub(len),
    }
}

/// Sizes from {0, 1000, k·128 B, k·256 MiB}, at most 64 GiB.
fn size() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1000u64),
        (1u64..=1024).prop_map(|k| k * 128),
        (1u64..=256).prop_map(|k| k * SECTION),
    ]
}

/// A build refusal is one of the typed configuration errors.
fn typed(e: &FabricError) -> bool {
    matches!(
        e,
        FabricError::Config(_) | FabricError::WindowExhausted { .. } | FabricError::Topology(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn point_to_point_builds_or_refuses(channels in 0usize..=8, bytes in size()) {
        match FabricBuilder::point_to_point(DatapathParams::prototype(), channels, bytes) {
            Ok(_) => prop_assert!(channels > 0 && bytes > 0 && bytes.is_multiple_of(SECTION)),
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }

    #[test]
    fn fan_out_builds_or_refuses(donors in 0usize..=4, share in size()) {
        match FabricBuilder::fan_out(DatapathParams::prototype(), donors, share) {
            Ok((_, paths)) => prop_assert_eq!(paths.len(), donors),
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }

    #[test]
    fn windowed_builds_or_refuse(
        offset in prop_oneof![(0u64..4096).prop_map(|k| k * 128), 1u64..128],
        bytes in prop_oneof![size(), (1u64..=4096).prop_map(|k| k * SECTION)],
        path_bytes in size(),
        channels in 0usize..=8,
    ) {
        let window = WindowSpec { base: 0x1000_0000_0000 + offset, bytes };
        let built = line2()
            .window(window)
            .path_to(NodeId(1), PathSpec::reference(path_bytes, channels))
            .build();
        match built {
            Ok(_) => {
                prop_assert!(offset.is_multiple_of(128) && bytes.is_multiple_of(SECTION));
                prop_assert!(path_bytes <= bytes);
            }
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }

    #[test]
    fn ranges_near_the_top_of_the_address_space_build_or_refuse(
        sections in 1u64..=4,
        base_pick in 0u64..=5,
        ea_pick in 0u64..=5,
    ) {
        let bytes = sections * SECTION;
        let base = placement(base_pick, 0x1000_0000_0000, bytes);
        let donor_ea = placement(ea_pick, 0x7000_0000_0000, bytes);
        let mut spec = PathSpec::reference(bytes, 1);
        spec.donor_ea = donor_ea;
        let built = line2()
            .window(WindowSpec { base, bytes })
            .path_to(NodeId(1), spec)
            .build();
        let fits = base.checked_add(bytes).is_some() && donor_ea.checked_add(bytes).is_some();
        match built {
            Ok((mut fabric, paths)) => {
                prop_assert!(fits, "{base:#x}/{donor_ea:#x}+{bytes:#x} wraps but built");
                let tags: Vec<u64> =
                    (0..3).map(|_| fabric.issue_read(paths[0]).expect("issues")).collect();
                let mut done = Vec::new();
                while let Some(batch) = fabric.step().expect("drains clean") {
                    done.extend(batch.iter().map(|c| c.tag));
                }
                done.sort_unstable();
                prop_assert_eq!(done, tags);
            }
            Err(e) => {
                prop_assert!(!fits, "a fitting range was refused: {e:?}");
                prop_assert!(matches!(e, FabricError::Config(_)), "untyped refusal {e:?}");
            }
        }
    }
}
