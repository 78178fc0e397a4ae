//! Fixed-position chain view with analytic sensitivities.
//!
//! [`ChainView`] freezes the repeater *positions* of a candidate solution
//! and exposes the quantities the paper's analysis needs as functions of
//! the *widths*:
//!
//! * the total Elmore delay `τ_total(w)` (Eq. 2),
//! * the width derivatives `∂τ_total/∂wᵢ` appearing in the KKT condition
//!   Eq. (8),
//! * the one-sided location derivatives `(∂τ_total/∂xᵢ)₊` and
//!   `(∂τ_total/∂xᵢ)₋` of Eqs. (17)–(18) that drive repeater movement.
//!
//! REFINE alternates between solving widths on a `ChainView` and moving
//! positions (producing a new `ChainView`).

use crate::error::DelayError;
use crate::stage::stage_delay;
use rip_net::{IntervalRc, RcProfile, Side, TwoPinNet};
use rip_tech::RepeaterDevice;

/// A two-pin net with `n` repeaters at fixed positions, widths left free.
///
/// Node indexing follows the paper: node `0` is the driver (width `w_d`),
/// nodes `1..=n` are repeaters, node `n+1` is the receiver (width `w_r`).
/// Public methods take 0-based repeater indices `j ∈ 0..n` (repeater
/// `j` is the paper's repeater `i = j+1`).
///
/// # Examples
///
/// ```
/// use rip_delay::ChainView;
/// use rip_net::{NetBuilder, Segment};
/// use rip_tech::Technology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::generic_180nm();
/// let net = NetBuilder::new()
///     .segment(Segment::new(6000.0, 0.08, 0.2))
///     .build()?;
/// let view = ChainView::new(&net, tech.device(), vec![2000.0, 4000.0])?;
/// let delay = view.total_delay(&[100.0, 100.0]);
/// assert!(delay > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChainView<'a> {
    profile: &'a RcProfile,
    device: &'a RepeaterDevice,
    driver_width: f64,
    receiver_width: f64,
    positions: Vec<f64>,
    /// `intervals[i]` is the wire between node `i` and node `i+1`
    /// (length `n+1`).
    intervals: Vec<IntervalRc>,
}

impl<'a> ChainView<'a> {
    /// Creates a view of `net` with repeaters at `positions` (strictly
    /// ascending, strictly inside `(0, L)`).
    ///
    /// Forbidden zones are *not* checked here: REFINE legitimately
    /// evaluates trial positions during movement; zone legality is
    /// enforced where solutions are committed.
    ///
    /// # Errors
    ///
    /// * [`DelayError::PositionOutOfSpan`] for positions outside `(0, L)`;
    /// * [`DelayError::DuplicatePosition`] for non-increasing positions.
    pub fn new(
        net: &'a TwoPinNet,
        device: &'a RepeaterDevice,
        positions: Vec<f64>,
    ) -> Result<Self, DelayError> {
        let profile = net.profile();
        let total = profile.total_length();
        for (i, &x) in positions.iter().enumerate() {
            if !x.is_finite() || x <= 0.0 || x >= total {
                return Err(DelayError::PositionOutOfSpan {
                    index: i,
                    position: x,
                    net_length: total,
                });
            }
        }
        for pair in positions.windows(2) {
            if pair[1] <= pair[0] {
                return Err(DelayError::DuplicatePosition { position: pair[1] });
            }
        }
        let intervals = Self::build_intervals(profile, &positions, total);
        Ok(Self {
            profile,
            device,
            driver_width: net.driver_width(),
            receiver_width: net.receiver_width(),
            positions,
            intervals,
        })
    }

    fn build_intervals(profile: &RcProfile, positions: &[f64], total: f64) -> Vec<IntervalRc> {
        let mut intervals = Vec::with_capacity(positions.len() + 1);
        let mut prev = 0.0;
        for &x in positions {
            intervals.push(profile.interval(prev, x));
            prev = x;
        }
        intervals.push(profile.interval(prev, total));
        intervals
    }

    /// Number of repeaters `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when the chain carries no repeaters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Repeater positions, ascending, µm.
    #[inline]
    pub fn positions(&self) -> &[f64] {
        &self.positions
    }

    /// Driver width `w_d`, u.
    #[inline]
    pub fn driver_width(&self) -> f64 {
        self.driver_width
    }

    /// Receiver width `w_r`, u.
    #[inline]
    pub fn receiver_width(&self) -> f64 {
        self.receiver_width
    }

    /// The device model used by this view.
    #[inline]
    pub fn device(&self) -> &RepeaterDevice {
        self.device
    }

    /// Wire resistance `R_{i−1}` of the paper: between repeater `j`
    /// (paper's `i = j+1`) and its upstream neighbour, Ω.
    #[inline]
    pub fn upstream_wire_resistance(&self, j: usize) -> f64 {
        self.intervals[j].resistance
    }

    /// Wire capacitance `C_i` of the paper: between repeater `j` and its
    /// downstream neighbour, fF.
    #[inline]
    pub fn downstream_wire_capacitance(&self, j: usize) -> f64 {
        self.intervals[j + 1].capacitance
    }

    /// Width of the node upstream of repeater `j` (`w_{i−1}`): another
    /// repeater's width or the driver width, u.
    #[inline]
    pub fn upstream_width(&self, widths: &[f64], j: usize) -> f64 {
        if j == 0 {
            self.driver_width
        } else {
            widths[j - 1]
        }
    }

    /// Width of the node downstream of repeater `j` (`w_{i+1}`): another
    /// repeater's width or the receiver width, u.
    #[inline]
    pub fn downstream_width(&self, widths: &[f64], j: usize) -> f64 {
        if j + 1 < widths.len() {
            widths[j + 1]
        } else {
            self.receiver_width
        }
    }

    /// Total Elmore delay `τ_total(w)` of Eq. (2), fs.
    ///
    /// # Panics
    ///
    /// Panics if `widths.len() != self.len()`.
    pub fn total_delay(&self, widths: &[f64]) -> f64 {
        assert_eq!(widths.len(), self.len(), "one width per repeater");
        let n = self.len();
        let node_width = |i: usize| -> f64 {
            if i == 0 {
                self.driver_width
            } else if i <= n {
                widths[i - 1]
            } else {
                self.receiver_width
            }
        };
        let mut total = 0.0;
        for i in 0..=n {
            let load = self.device.input_cap(node_width(i + 1));
            total += stage_delay(self.device, self.intervals[i], node_width(i), load);
        }
        total
    }

    /// Analytic `∂τ_total/∂w_j` — the inner derivative of the KKT
    /// condition Eq. (8):
    ///
    /// ```text
    /// ∂τ/∂wᵢ = Co·(R_{i−1} + Rs/w_{i−1}) − Rs·(Cᵢ + Co·w_{i+1}) / wᵢ²
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `widths.len() != self.len()` or `j` is out of range.
    pub fn dtau_dw(&self, widths: &[f64], j: usize) -> f64 {
        assert_eq!(widths.len(), self.len(), "one width per repeater");
        let rs = self.device.rs();
        let co = self.device.co();
        let w = widths[j];
        let w_up = self.upstream_width(widths, j);
        let w_down = self.downstream_width(widths, j);
        let r_up = self.upstream_wire_resistance(j);
        let c_down = self.downstream_wire_capacitance(j);
        co * (r_up + rs / w_up) - rs * (c_down + co * w_down) / (w * w)
    }

    /// Analytic one-sided location derivative `(∂τ_total/∂x_j)±` of
    /// Eqs. (17)–(18):
    ///
    /// ```text
    /// (∂τ/∂xᵢ)± = Co·r±·(wᵢ − w_{i+1}) + Rs·c±·(1/w_{i−1} − 1/wᵢ)
    ///             + c±·R_{i−1} − r±·Cᵢ
    /// ```
    ///
    /// where `(r±, c±)` are the per-unit-length wire parameters
    /// immediately downstream (`Side::Downstream`, Eq. 17) or upstream
    /// (`Side::Upstream`, Eq. 18) of the repeater.
    ///
    /// # Panics
    ///
    /// Panics if `widths.len() != self.len()` or `j` is out of range.
    pub fn dtau_dx(&self, widths: &[f64], j: usize, side: Side) -> f64 {
        assert_eq!(widths.len(), self.len(), "one width per repeater");
        let rs = self.device.rs();
        let co = self.device.co();
        let x = self.positions[j];
        let r_side = self.profile.r_at(x, side);
        let c_side = self.profile.c_at(x, side);
        let w = widths[j];
        let w_up = self.upstream_width(widths, j);
        let w_down = self.downstream_width(widths, j);
        let r_up = self.upstream_wire_resistance(j);
        let c_down = self.downstream_wire_capacitance(j);
        co * r_side * (w - w_down) + rs * c_side * (1.0 / w_up - 1.0 / w) + c_side * r_up
            - r_side * c_down
    }

    /// Rebuilds the view with new positions, keeping net and device.
    ///
    /// # Errors
    ///
    /// Same as [`ChainView::new`].
    pub fn with_positions(&self, positions: Vec<f64>) -> Result<Self, DelayError> {
        let total = self.profile.total_length();
        for (i, &x) in positions.iter().enumerate() {
            if !x.is_finite() || x <= 0.0 || x >= total {
                return Err(DelayError::PositionOutOfSpan {
                    index: i,
                    position: x,
                    net_length: total,
                });
            }
        }
        for pair in positions.windows(2) {
            if pair[1] <= pair[0] {
                return Err(DelayError::DuplicatePosition { position: pair[1] });
            }
        }
        let intervals = Self::build_intervals(self.profile, &positions, total);
        Ok(Self {
            positions,
            intervals,
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{evaluate, Repeater, RepeaterAssignment};
    use rip_net::{NetBuilder, Segment};
    use rip_tech::Technology;

    fn tech() -> Technology {
        Technology::generic_180nm()
    }

    fn net() -> TwoPinNet {
        NetBuilder::new()
            .segment(Segment::new(2000.0, 0.08, 0.20))
            .segment(Segment::new(2500.0, 0.06, 0.18))
            .segment(Segment::new(1800.0, 0.08, 0.20))
            .driver_width(120.0)
            .receiver_width(60.0)
            .build()
            .unwrap()
    }

    #[test]
    fn total_delay_agrees_with_assignment_evaluation() {
        let tech = tech();
        let net = net();
        let positions = vec![1500.0, 3600.0, 5200.0];
        let widths = vec![90.0, 130.0, 70.0];
        let view = ChainView::new(&net, tech.device(), positions.clone()).unwrap();
        let via_view = view.total_delay(&widths);
        let asg = RepeaterAssignment::new(
            positions
                .iter()
                .zip(&widths)
                .map(|(&x, &w)| Repeater::new(x, w))
                .collect(),
        )
        .unwrap();
        let via_eval = evaluate(&net, tech.device(), &asg).total_delay;
        assert!((via_view - via_eval).abs() < 1e-9);
    }

    #[test]
    fn dtau_dw_matches_central_finite_difference() {
        let tech = tech();
        let net = net();
        let view = ChainView::new(&net, tech.device(), vec![1500.0, 3600.0, 5200.0]).unwrap();
        let widths = vec![90.0, 130.0, 70.0];
        let h = 1e-4;
        for j in 0..3 {
            let analytic = view.dtau_dw(&widths, j);
            let mut up = widths.clone();
            up[j] += h;
            let mut dn = widths.clone();
            dn[j] -= h;
            let numeric = (view.total_delay(&up) - view.total_delay(&dn)) / (2.0 * h);
            assert!(
                (analytic - numeric).abs() < 1e-3 * numeric.abs().max(1.0),
                "j={j}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn dtau_dx_matches_one_sided_finite_difference() {
        let tech = tech();
        let net = net();
        let positions = vec![1500.0, 3600.0, 5200.0];
        let widths = vec![90.0, 130.0, 70.0];
        let view = ChainView::new(&net, tech.device(), positions.clone()).unwrap();
        let h = 1e-3;
        for j in 0..positions.len() {
            for (side, sign) in [(Side::Downstream, 1.0), (Side::Upstream, -1.0)] {
                let analytic = view.dtau_dx(&widths, j, side);
                let mut moved = positions.clone();
                moved[j] += sign * h;
                let shifted = view.with_positions(moved).unwrap();
                let numeric = sign * (shifted.total_delay(&widths) - view.total_delay(&widths)) / h;
                assert!(
                    (analytic - numeric).abs() < 1e-2 * numeric.abs().max(1.0),
                    "j={j} {side:?}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn dtau_dx_sides_differ_across_segment_boundary() {
        // Repeater exactly on the metal4/metal5 boundary at x = 2000:
        // the one-sided derivatives use different (r, c) and must differ.
        let tech = tech();
        let net = net();
        let view = ChainView::new(&net, tech.device(), vec![2000.0]).unwrap();
        let widths = vec![100.0];
        let plus = view.dtau_dx(&widths, 0, Side::Downstream);
        let minus = view.dtau_dx(&widths, 0, Side::Upstream);
        assert!((plus - minus).abs() > 1e-9);
    }

    #[test]
    fn dtau_dx_sides_agree_inside_segment() {
        let tech = tech();
        let net = net();
        let view = ChainView::new(&net, tech.device(), vec![1000.0]).unwrap();
        let widths = vec![100.0];
        let plus = view.dtau_dx(&widths, 0, Side::Downstream);
        let minus = view.dtau_dx(&widths, 0, Side::Upstream);
        assert!((plus - minus).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_positions() {
        let tech = tech();
        let net = net();
        assert!(matches!(
            ChainView::new(&net, tech.device(), vec![-1.0]),
            Err(DelayError::PositionOutOfSpan { .. })
        ));
        assert!(matches!(
            ChainView::new(&net, tech.device(), vec![1000.0, 1000.0]),
            Err(DelayError::DuplicatePosition { .. })
        ));
        assert!(matches!(
            ChainView::new(&net, tech.device(), vec![3000.0, 1000.0]),
            Err(DelayError::DuplicatePosition { .. })
        ));
    }

    #[test]
    fn empty_chain_is_just_the_driver_stage() {
        let tech = tech();
        let net = net();
        let view = ChainView::new(&net, tech.device(), vec![]).unwrap();
        assert!(view.is_empty());
        let d = view.total_delay(&[]);
        let asg_delay = evaluate(&net, tech.device(), &RepeaterAssignment::empty()).total_delay;
        assert!((d - asg_delay).abs() < 1e-9);
    }

    #[test]
    fn with_positions_rebuilds_intervals() {
        let tech = tech();
        let net = net();
        let view = ChainView::new(&net, tech.device(), vec![2000.0]).unwrap();
        let moved = view.with_positions(vec![3000.0]).unwrap();
        assert!(
            (moved.upstream_wire_resistance(0) - net.profile().interval(0.0, 3000.0).resistance)
                .abs()
                < 1e-12
        );
    }
}
