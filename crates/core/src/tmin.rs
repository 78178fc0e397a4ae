//! Minimum achievable delay `τ_min` of a net.
//!
//! The paper's experiments sweep timing targets from `1.05·τ_min` to
//! `2.05·τ_min`, where "`τ_min` is the minimum delay of the net"
//! (Section 6). We compute it with the min-delay DP over a fine library —
//! min-delay solutions are insensitive to width granularity (the paper's
//! observation [9]/[2]), so this is a robust anchor for both RIP and the
//! baselines.

use rip_dp::{solve_min_delay, CandidateSet};
use rip_net::TwoPinNet;
use rip_tech::{RepeaterDevice, RepeaterLibrary};

/// Minimum Elmore delay achievable with the given library and candidate
/// step, fs.
pub fn tau_min(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidate_step_um: f64,
) -> f64 {
    let cands = CandidateSet::uniform(net, candidate_step_um);
    solve_min_delay(net, device, library, &cands).delay_fs
}

/// The paper's `τ_min` library: width range (10u, 400u) at 10u
/// granularity. Chain and tree `τ_min` both use it.
pub(crate) fn paper_library() -> RepeaterLibrary {
    RepeaterLibrary::range_step(10.0, 400.0, 10.0).expect("paper library constants are valid")
}

/// `τ_min` under the paper's experimental setup: width range (10u, 400u)
/// at 10u granularity, 200 µm candidate grid.
pub fn tau_min_paper(net: &TwoPinNet, device: &RepeaterDevice) -> f64 {
    tau_min(net, device, &paper_library(), 200.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_delay::{evaluate, RepeaterAssignment};
    use rip_net::{NetBuilder, Segment};
    use rip_tech::Technology;

    fn net() -> TwoPinNet {
        NetBuilder::new()
            .segment(Segment::new(6000.0, 0.08, 0.2))
            .segment(Segment::new(6000.0, 0.06, 0.18))
            .build()
            .unwrap()
    }

    #[test]
    fn tau_min_is_below_unbuffered_delay() {
        let tech = Technology::generic_180nm();
        let net = net();
        let tmin = tau_min_paper(&net, tech.device());
        let unbuffered = evaluate(&net, tech.device(), &RepeaterAssignment::empty()).total_delay;
        assert!(tmin < unbuffered);
        assert!(tmin > 0.0);
    }

    #[test]
    fn tau_min_improves_with_finer_grid() {
        let tech = Technology::generic_180nm();
        let net = net();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        let coarse = tau_min(&net, tech.device(), &lib, 400.0);
        let fine = tau_min(&net, tech.device(), &lib, 200.0); // superset grid
        assert!(fine <= coarse + 1e-6);
    }

    #[test]
    fn tau_min_insensitive_to_width_granularity() {
        // The claim the paper builds on: delay-optimal solutions barely
        // care about width granularity (unlike power-optimal ones).
        let tech = Technology::generic_180nm();
        let net = net();
        let fine_lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        let coarse_lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let fine = tau_min(&net, tech.device(), &fine_lib, 200.0);
        let coarse = tau_min(&net, tech.device(), &coarse_lib, 200.0);
        assert!(
            (coarse - fine) / fine < 0.02,
            "width granularity moved tau_min by {:.2}%",
            (coarse - fine) / fine * 100.0
        );
    }
}
