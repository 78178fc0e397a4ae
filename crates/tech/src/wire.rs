//! Wire layer models: per-unit-length RC characteristics of routing layers.
//!
//! The paper routes its global nets on metal4 and metal5 of a 0.18 µm
//! process. The presets here use synthetic-but-realistic values for such a
//! process (global layers: tens of mΩ/µm, ~0.2 fF/µm); see DESIGN.md §2 for
//! the substitution rationale.

use crate::error::{ensure_positive, TechError};

/// Per-unit-length electrical model of a routing layer.
///
/// # Examples
///
/// ```
/// use rip_tech::WireLayer;
///
/// let m4 = WireLayer::metal4_180nm();
/// // Resistance of a 1 mm wire on metal4, in Ω.
/// let r = m4.r_per_um() * 1000.0;
/// assert!(r > 10.0 && r < 1000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WireLayer {
    name: String,
    r_per_um: f64,
    c_per_um: f64,
}

impl WireLayer {
    /// Creates a wire layer model.
    ///
    /// * `name` — layer name (e.g. `"metal4"`).
    /// * `r_per_um` — resistance per micrometre, in Ω/µm.
    /// * `c_per_um` — capacitance per micrometre, in fF/µm.
    ///
    /// # Errors
    ///
    /// Returns an error if either electrical parameter is not strictly
    /// positive and finite.
    pub fn new(name: impl Into<String>, r_per_um: f64, c_per_um: f64) -> Result<Self, TechError> {
        Ok(Self {
            name: name.into(),
            r_per_um: ensure_positive("wire resistance per um", r_per_um)?,
            c_per_um: ensure_positive("wire capacitance per um", c_per_um)?,
        })
    }

    /// Synthetic metal4 model for a generic 0.18 µm process.
    ///
    /// Slightly more resistive and capacitive than metal5, as is typical
    /// for the lower of two global routing layers.
    pub fn metal4_180nm() -> Self {
        Self::new("metal4", 0.080, 0.200).expect("preset constants are valid")
    }

    /// Synthetic metal5 model for a generic 0.18 µm process.
    pub fn metal5_180nm() -> Self {
        Self::new("metal5", 0.060, 0.180).expect("preset constants are valid")
    }

    /// Layer name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resistance per micrometre, in Ω/µm.
    #[inline]
    pub fn r_per_um(&self) -> f64 {
        self.r_per_um
    }

    /// Capacitance per micrometre, in fF/µm.
    #[inline]
    pub fn c_per_um(&self) -> f64 {
        self.c_per_um
    }

    /// Total resistance of `length_um` micrometres of this layer, in Ω.
    #[inline]
    pub fn resistance(&self, length_um: f64) -> f64 {
        self.r_per_um * length_um
    }

    /// Total capacitance of `length_um` micrometres of this layer, in fF.
    #[inline]
    pub fn capacitance(&self, length_um: f64) -> f64 {
        self.c_per_um * length_um
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_as_expected() {
        let m4 = WireLayer::metal4_180nm();
        let m5 = WireLayer::metal5_180nm();
        assert!(m4.r_per_um() > m5.r_per_um());
        assert!(m4.c_per_um() > m5.c_per_um());
        assert_eq!(m4.name(), "metal4");
        assert_eq!(m5.name(), "metal5");
    }

    #[test]
    fn lumped_quantities_scale_linearly() {
        let m4 = WireLayer::metal4_180nm();
        assert!((m4.resistance(2000.0) - 2.0 * m4.resistance(1000.0)).abs() < 1e-12);
        assert!((m4.capacitance(2000.0) - 2.0 * m4.capacitance(1000.0)).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_rc() {
        assert!(WireLayer::new("m", 0.0, 0.2).is_err());
        assert!(WireLayer::new("m", 0.08, -0.2).is_err());
    }
}
