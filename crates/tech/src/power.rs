//! Repeater power model (Section 4.1, Eqs. 3–4 of the paper).
//!
//! Short-circuit power is neglected (following [5] in the paper); total
//! repeater power is dynamic + leakage:
//!
//! ```text
//! P = α · V²dd · f · C_total_load + Σᵢ β · wᵢ           (Eq. 3)
//!   = c + γ · Σᵢ wᵢ                                      (Eq. 4)
//! ```
//!
//! where `C_total_load` is linear in the total repeater width (each
//! repeater's gate cap is `Co · wᵢ`), so minimizing repeater power is
//! equivalent to minimizing the **total repeater width** `p = Σ wᵢ`.
//! The constant `c` collects the wire and receiver capacitance switching
//! power, which repeater insertion cannot change.

use crate::device::RepeaterDevice;
use crate::error::{ensure_non_negative, ensure_positive, ensure_unit_range, TechError};
use crate::units::FARAD_PER_FF;

/// Parameters of the dynamic + leakage power model.
///
/// # Examples
///
/// ```
/// use rip_tech::{PowerParams, RepeaterDevice};
///
/// # fn main() -> Result<(), rip_tech::TechError> {
/// let dev = RepeaterDevice::new(6000.0, 1.8, 1.4)?;
/// let power = PowerParams::new(1.8, 500.0e6, 0.15, 20.0e-9)?;
/// // gamma is the power cost per unit of repeater width (W/u): Eq. (4).
/// let gamma = power.gamma(&dev);
/// assert!(gamma > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    vdd: f64,
    freq: f64,
    activity: f64,
    leak_per_width: f64,
}

impl PowerParams {
    /// Creates a power model.
    ///
    /// * `vdd` — supply voltage, in V.
    /// * `freq` — clock frequency, in Hz.
    /// * `activity` — switching activity factor `α` in `[0, 1]`.
    /// * `leak_per_width` — leakage power per unit repeater width `β`,
    ///   in W/u.
    ///
    /// # Errors
    ///
    /// Returns an error if `vdd` or `freq` is not strictly positive,
    /// `activity` is outside `[0, 1]`, or `leak_per_width` is negative.
    pub fn new(vdd: f64, freq: f64, activity: f64, leak_per_width: f64) -> Result<Self, TechError> {
        Ok(Self {
            vdd: ensure_positive("supply voltage vdd", vdd)?,
            freq: ensure_positive("clock frequency", freq)?,
            activity: ensure_unit_range("switching activity", activity)?,
            leak_per_width: ensure_non_negative("leakage per width", leak_per_width)?,
        })
    }

    /// Supply voltage, in V.
    #[inline]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Clock frequency, in Hz.
    #[inline]
    pub fn freq(&self) -> f64 {
        self.freq
    }

    /// Switching activity factor `α`.
    #[inline]
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Leakage power per unit repeater width `β`, in W/u.
    #[inline]
    pub fn leak_per_width(&self) -> f64 {
        self.leak_per_width
    }

    /// Dynamic power of switching `cap_ff` femtofarads: `α·V²·f·C`, in W.
    #[inline]
    pub fn dynamic_power(&self, cap_ff: f64) -> f64 {
        self.activity * self.vdd * self.vdd * self.freq * cap_ff * FARAD_PER_FF
    }

    /// The per-unit-width power coefficient `γ` of Eq. (4), in W/u.
    ///
    /// `γ = α·V²·f·Co·(1 fF→F) + β`: each unit of repeater width adds
    /// `Co` fF of switched gate capacitance plus `β` of leakage.
    #[inline]
    pub fn gamma(&self, device: &RepeaterDevice) -> f64 {
        self.dynamic_power(device.co()) + self.leak_per_width
    }

    /// Total repeater power for a given total width `Σwᵢ` (Eq. 4, the
    /// width-dependent part): `γ · Σw`, in W.
    ///
    /// The constant `c` of Eq. (4) — switching of the wire and receiver
    /// capacitance — is independent of the repeater solution; obtain it
    /// from [`PowerParams::dynamic_power`] with the wire capacitance when
    /// reporting absolute net power.
    #[inline]
    pub fn repeater_power(&self, device: &RepeaterDevice, total_width: f64) -> f64 {
        self.gamma(device) * total_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> RepeaterDevice {
        RepeaterDevice::new(6000.0, 1.8, 1.4).unwrap()
    }

    fn params() -> PowerParams {
        PowerParams::new(1.8, 500.0e6, 0.15, 20.0e-9).unwrap()
    }

    #[test]
    fn power_is_linear_in_total_width() {
        // This linearity is exactly why Eq. (4) reduces power minimization
        // to total-width minimization.
        let p = params();
        let d = dev();
        let p100 = p.repeater_power(&d, 100.0);
        let p200 = p.repeater_power(&d, 200.0);
        assert!((p200 - 2.0 * p100).abs() < 1e-18);
    }

    #[test]
    fn gamma_combines_dynamic_and_leakage() {
        let p = params();
        let d = dev();
        let dynamic_only = PowerParams::new(1.8, 500.0e6, 0.15, 0.0).unwrap();
        assert!(p.gamma(&d) > dynamic_only.gamma(&d));
        assert!((p.gamma(&d) - dynamic_only.gamma(&d) - 20.0e-9).abs() < 1e-15);
    }

    #[test]
    fn dynamic_power_magnitude_is_plausible() {
        // 2000 fF of wire at 500 MHz, alpha=0.15, 1.8 V:
        // 0.15 * 3.24 * 5e8 * 2e-12 = ~0.5 mW.
        let p = params();
        let w = p.dynamic_power(2000.0);
        assert!(w > 1e-4 && w < 1e-2, "P = {w} W");
    }

    #[test]
    fn zero_leakage_is_allowed() {
        assert!(PowerParams::new(1.8, 1e9, 0.2, 0.0).is_ok());
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PowerParams::new(0.0, 1e9, 0.2, 0.0).is_err());
        assert!(PowerParams::new(1.8, -1.0, 0.2, 0.0).is_err());
        assert!(PowerParams::new(1.8, 1e9, 1.5, 0.0).is_err());
        assert!(PowerParams::new(1.8, 1e9, 0.2, -1e-9).is_err());
    }
}
