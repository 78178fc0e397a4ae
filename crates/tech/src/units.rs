//! Unit conventions and conversion helpers.
//!
//! The whole workspace uses one consistent internal unit system chosen so
//! that Elmore delays come out of resistance × capacitance products without
//! any scaling factors:
//!
//! | Quantity    | Unit | Notes |
//! |-------------|------|-------|
//! | length      | µm   | wire segment lengths, repeater positions |
//! | resistance  | Ω    | device output resistance, wire resistance |
//! | capacitance | fF   | device pin caps, wire capacitance |
//! | time        | fs   | 1 Ω · 1 fF = 10⁻¹⁵ s = 1 fs |
//! | width       | u    | multiples of the minimum repeater width |
//! | power       | W    | reported absolute power |
//!
//! Times are converted to ns only at display boundaries via
//! [`ns_from_fs`]/[`fs_from_ns`].

/// Femtoseconds per nanosecond (10⁶).
pub const FS_PER_NS: f64 = 1.0e6;

/// Farads per femtofarad (10⁻¹⁵).
pub const FARAD_PER_FF: f64 = 1.0e-15;

/// Converts a time in femtoseconds (the internal unit) to nanoseconds.
///
/// # Examples
///
/// ```
/// assert_eq!(rip_tech::units::ns_from_fs(2.5e6), 2.5);
/// ```
#[inline]
pub fn ns_from_fs(fs: f64) -> f64 {
    fs / FS_PER_NS
}

/// Converts a time in nanoseconds to femtoseconds (the internal unit).
///
/// # Examples
///
/// ```
/// assert_eq!(rip_tech::units::fs_from_ns(1.5), 1.5e6);
/// ```
#[inline]
pub fn fs_from_ns(ns: f64) -> f64 {
    ns * FS_PER_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        let t_ns = 3.7;
        assert!((ns_from_fs(fs_from_ns(t_ns)) - t_ns).abs() < 1e-12);
    }

    #[test]
    fn one_ohm_times_one_ff_is_one_fs() {
        // The invariant that motivates the unit system: R [Ω] * C [fF]
        // directly yields fs, i.e. the same product in Ω·F is 1e-15 s.
        let r_ohm = 1.0;
        let c_ff = 1.0;
        let tau_s = r_ohm * (c_ff * FARAD_PER_FF);
        assert!((tau_s - 1e-15).abs() < 1e-30);
    }
}
