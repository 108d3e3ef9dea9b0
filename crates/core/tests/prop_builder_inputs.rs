//! Property test over the public `FabricBuilder` entry points: any
//! channel count, attachment size, device window and donor count yields
//! a fabric or a typed `FabricError`, never a panic.
//!
//! Windows stay at or below 1 TiB: the RMMU section table holds one
//! entry per 256 MiB of window, so a window near 2^64 bytes would ask
//! for billions of entries.

use proptest::prelude::*;
use thymesisflow_core::fabric::{FabricBuilder, FabricError, PathSpec, WindowSpec};
use thymesisflow_core::params::DatapathParams;

const SECTION: u64 = 256 << 20;

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
        let built = FabricBuilder::new(DatapathParams::prototype())
            .window(window)
            .path(PathSpec::reference(path_bytes, channels))
            .build();
        match built {
            Ok(_) => {
                prop_assert!(offset.is_multiple_of(128) && bytes.is_multiple_of(SECTION));
                prop_assert!(path_bytes <= bytes);
            }
            Err(e) => prop_assert!(typed(&e), "untyped refusal {e:?}"),
        }
    }
}
