//! Complete technology descriptions bundling device, wire and power models.

use crate::device::RepeaterDevice;
use crate::error::TechError;
use crate::power::PowerParams;
use crate::wire::WireLayer;

/// A process technology: the repeater device model, the available routing
/// layers, and the power-model parameters.
///
/// The paper evaluates on an (unnamed) 0.18 µm process with global nets on
/// metal4/metal5; [`Technology::generic_180nm`] is the synthetic equivalent
/// used throughout this reproduction (see DESIGN.md §2).
///
/// # Examples
///
/// ```
/// use rip_tech::Technology;
///
/// let tech = Technology::generic_180nm();
/// assert_eq!(tech.layers().len(), 2);
/// assert!(tech.device().rs() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    name: String,
    device: RepeaterDevice,
    layers: Vec<WireLayer>,
    power: PowerParams,
}

impl Technology {
    /// Creates a technology from its constituent models.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Empty`] if `layers` is empty.
    pub fn new(
        name: impl Into<String>,
        device: RepeaterDevice,
        layers: Vec<WireLayer>,
        power: PowerParams,
    ) -> Result<Self, TechError> {
        if layers.is_empty() {
            return Err(TechError::Empty {
                what: "technology layer list",
            });
        }
        Ok(Self {
            name: name.into(),
            device,
            layers,
            power,
        })
    }

    /// Synthetic 0.18 µm technology used for all paper-reproduction
    /// experiments.
    ///
    /// Parameter choices (all in the published range for 180 nm; the
    /// reference width `u` is the paper's "minimal repeater width"):
    ///
    /// * unit repeater: `Rs = 9 kΩ·u`, `Co = 0.43 fF/u`, `Cp = 0.35 fF/u`;
    /// * metal4: 0.080 Ω/µm, 0.200 fF/µm; metal5: 0.060 Ω/µm, 0.180 fF/µm;
    /// * power: 1.8 V, 500 MHz, activity 0.15, leakage 20 nW/u.
    ///
    /// Calibration rationale (DESIGN.md §2): the classic uniform-wire
    /// optimal repeater width comes out ≈ 230u — inside the paper's fine
    /// library range (10u, 400u) but **well above** the Table 1 baseline
    /// library's 100u ceiling at `g = 10u`, which is what produces the
    /// paper's zone-I timing violations (`V_DP`); the optimal spacing is
    /// ≈ 0.9 mm, giving the paper's 4–25 mm nets a realistic 4–25
    /// repeaters.
    pub fn generic_180nm() -> Self {
        let device = RepeaterDevice::new(9000.0, 0.43, 0.35).expect("preset constants");
        let layers = vec![WireLayer::metal4_180nm(), WireLayer::metal5_180nm()];
        let power = PowerParams::new(1.8, 500.0e6, 0.15, 20.0e-9).expect("preset constants");
        Self::new("generic-180nm", device, layers, power).expect("preset layers non-empty")
    }

    /// Technology name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit-width repeater device model.
    #[inline]
    pub fn device(&self) -> &RepeaterDevice {
        &self.device
    }

    /// The available routing layers.
    #[inline]
    pub fn layers(&self) -> &[WireLayer] {
        &self.layers
    }

    /// Looks up a layer by name.
    pub fn layer(&self, name: &str) -> Option<&WireLayer> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// The power-model parameters.
    #[inline]
    pub fn power(&self) -> &PowerParams {
        &self.power
    }
}

impl Default for Technology {
    /// The default technology is [`Technology::generic_180nm`], matching
    /// the paper's experimental setup.
    fn default() -> Self {
        Self::generic_180nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_has_two_global_layers() {
        let t = Technology::generic_180nm();
        assert!(t.layer("metal4").is_some());
        assert!(t.layer("metal5").is_some());
        assert!(t.layer("metal6").is_none());
    }

    #[test]
    fn default_is_the_paper_preset() {
        assert_eq!(Technology::default(), Technology::generic_180nm());
    }

    #[test]
    fn preset_optimum_matches_paper_library_scale() {
        // Cross-check the calibration described in DESIGN.md §2: the
        // classical optimal width must lie inside the paper's fine
        // library range (10u, 400u) but clearly above the 100u ceiling of
        // the Table 1 baseline library at g = 10u - that gap is what
        // reproduces the paper's zone-I timing violations.
        let t = Technology::generic_180nm();
        let m4 = t.layer("metal4").unwrap();
        let w_opt = t
            .device()
            .optimal_width_uniform(m4.r_per_um(), m4.c_per_um());
        assert!(w_opt > 150.0 && w_opt < 400.0, "w_opt = {w_opt}");
        let l_opt = t
            .device()
            .optimal_spacing_uniform(m4.r_per_um(), m4.c_per_um());
        assert!(l_opt > 500.0 && l_opt < 2000.0, "l_opt = {l_opt}");
    }

    #[test]
    fn rejects_empty_layer_list() {
        let t = Technology::generic_180nm();
        let result = Technology::new("x", *t.device(), vec![], *t.power());
        assert!(result.is_err());
    }
}
