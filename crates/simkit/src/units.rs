//! Size constants and the float-to-integer gate shared by the whole workspace.

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;

/// Saturating conversion from `f64` to `u64`: negative and NaN inputs
/// map to 0, values beyond `u64::MAX` map to `u64::MAX`.
///
/// This is the one blessed float→integer gate for unit-bearing values;
/// the rest of the workspace routes through it instead of casting
/// directly (tflint TF005 flags raw `as` casts on time/byte quantities).
///
/// ```
/// use simkit::units::f64_to_u64_saturating;
/// assert_eq!(f64_to_u64_saturating(2494.0), 2494);
/// assert_eq!(f64_to_u64_saturating(-1.0), 0);
/// assert_eq!(f64_to_u64_saturating(f64::NAN), 0);
/// assert_eq!(f64_to_u64_saturating(1e300), u64::MAX);
/// ```
pub fn f64_to_u64_saturating(x: f64) -> u64 {
    // Float→int `as` saturates by definition in Rust (NaN → 0), so this
    // single audited cast is safe by construction.
    // (The one blessed float→integer gate; TF005 audits casts elsewhere.)
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constants() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1024 * KIB);
        assert_eq!(GIB, 1024 * MIB);
    }
}
