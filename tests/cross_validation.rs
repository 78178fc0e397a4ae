//! Cross-validation: independent implementations must agree.
//!
//! * chain DP vs the exhaustive brute-force oracle;
//! * tree DP vs chain DP on path-shaped trees;
//! * both on a zoned net too, and on infeasible and invalid targets;
//! * RC-profile interval algebra vs the paper's pi-ladder double sum;
//! * analytic sensitivities vs finite differences (random nets).

use rip_core::prelude::*;
use rip_delay::{evaluate, stage_delay, ChainView};
use rip_dp::{brute_min_delay, brute_min_power, solve_min_delay, solve_min_power, DpError};
use rip_net::Side;
use rip_tech::{RepeaterLibrary, Technology};

fn tech() -> Technology {
    Technology::generic_180nm()
}

/// A 6 mm two-layer net whose middle third forbids repeaters.
fn zoned_net() -> TwoPinNet {
    NetBuilder::new()
        .segment(Segment::new(3000.0, 0.08, 0.20))
        .segment(Segment::new(3000.0, 0.06, 0.18))
        .forbidden_zone(2000.0, 4000.0)
        .unwrap()
        .build()
        .unwrap()
}

/// Power-mode target multiples of `τ_min`: feasible ones, an
/// infeasible one, and an invalid (negative) one.
const TARGET_MULTS: [f64; 5] = [1.1, 1.5, 2.0, 0.5, -1.0];

/// Both engines answered alike: the same width, or the same error kind,
/// and a solution exactly when the target is at least `τ_min`.
fn assert_same_power_outcome(
    what: &str,
    a: Result<f64, DpError>,
    b: Result<f64, DpError>,
    mult: f64,
) {
    assert_eq!(
        a.is_ok(),
        mult >= 1.0,
        "{what}: feasibility at {mult}: {a:?}"
    );
    match (a, b) {
        (Ok(a), Ok(b)) => assert!(
            (a - b).abs() < 1e-9,
            "{what}: min-power width mismatch at {mult}: {a} vs {b}"
        ),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(&a),
            std::mem::discriminant(&b),
            "{what}: error kinds differ at {mult}: {a:?} vs {b:?}"
        ),
        (a, b) => panic!("{what}: feasibility disagreement at {mult}: {a:?} vs {b:?}"),
    }
}

#[test]
fn chain_dp_equals_brute_force_on_random_tiny_instances() {
    let tech = tech();
    let config = RandomNetConfig {
        segment_count: (2, 3),
        segment_length_um: (800.0, 1500.0),
        ..RandomNetConfig::default()
    };
    let mut nets = NetGenerator::suite(config, 31, 4).unwrap();
    nets.push(zoned_net());
    let lib = RepeaterLibrary::from_widths([60.0, 160.0, 320.0]).unwrap();
    for net in &nets {
        // <= 5 candidates keeps brute force tractable: (3+1)^5 = 1024.
        let step = net.total_length() / 5.5;
        let cands = CandidateSet::uniform(net, step);
        assert!(cands.len() <= 5);

        let dp = solve_min_delay(net, tech.device(), &lib, &cands);
        let brute = brute_min_delay(net, tech.device(), &lib, &cands);
        assert!(
            (dp.delay_fs - brute.delay_fs).abs() < 1e-6,
            "min-delay mismatch: dp {} vs brute {}",
            dp.delay_fs,
            brute.delay_fs
        );
        dp.assignment.validate_on(net).unwrap();

        for mult in TARGET_MULTS {
            let target = brute.delay_fs * mult;
            assert_same_power_outcome(
                "chain dp vs brute",
                solve_min_power(net, tech.device(), &lib, &cands, target).map(|s| s.total_width),
                brute_min_power(net, tech.device(), &lib, &cands, target).map(|s| s.total_width),
                mult,
            );
        }
    }
}

#[test]
fn tree_dp_agrees_with_chain_dp_on_path_topologies() {
    let tech = tech();
    let mut nets = NetGenerator::suite(RandomNetConfig::default(), 33, 3).unwrap();
    nets.push(zoned_net());
    let lib = RepeaterLibrary::from_widths([50.0, 120.0, 250.0]).unwrap();
    for net in &nets {
        let cands = CandidateSet::uniform(net, 1000.0);
        // Path tree mirroring the candidate structure.
        let mut tree = rip_delay::RcTree::with_root();
        let mut prev_pos = 0.0;
        let mut prev_node = 0;
        for &x in cands.positions() {
            let wire = net.profile().interval(prev_pos, x);
            prev_node = tree.add_child(prev_node, wire, 0.0).unwrap();
            prev_pos = x;
        }
        let wire = net.profile().interval(prev_pos, net.total_length());
        let sink = tree.add_child(prev_node, wire, 0.0).unwrap();
        tree.set_sink_cap(sink, tech.device().input_cap(net.receiver_width()))
            .unwrap();

        let chain = solve_min_delay(net, tech.device(), &lib, &cands);
        let tree_sol =
            rip_dp::tree_min_delay(&tree, tech.device(), net.driver_width(), &lib, None).unwrap();
        assert!(
            (chain.delay_fs - tree_sol.delay_fs).abs() < 1e-6,
            "path-tree min-delay mismatch: {} vs {}",
            chain.delay_fs,
            tree_sol.delay_fs
        );

        for mult in TARGET_MULTS {
            let target = chain.delay_fs * mult;
            assert_same_power_outcome(
                "chain dp vs path tree dp",
                solve_min_power(net, tech.device(), &lib, &cands, target).map(|s| s.total_width),
                rip_dp::tree_min_power(
                    &tree,
                    tech.device(),
                    net.driver_width(),
                    &lib,
                    None,
                    target,
                )
                .map(|s| s.total_width),
                mult,
            );
        }
    }
}

#[test]
fn profile_interval_matches_pi_ladder_on_random_nets() {
    // Eq. (1)'s double sum computed naively over full segments must equal
    // the closed-form prefix-integral interval query.
    let nets = NetGenerator::suite(RandomNetConfig::default(), 35, 5).unwrap();
    for net in &nets {
        let mut ladder = 0.0;
        let segs = net.segments();
        for j in 0..segs.len() {
            let (lj, rj, cj) = (segs[j].length_um(), segs[j].r_per_um(), segs[j].c_per_um());
            let mut downstream = cj * lj / 2.0;
            for s in &segs[j + 1..] {
                downstream += s.capacitance();
            }
            ladder += rj * lj * downstream;
        }
        let iv = net.profile().interval(0.0, net.total_length());
        assert!(
            (iv.elmore - ladder).abs() <= 1e-9 * ladder,
            "profile {} vs ladder {}",
            iv.elmore,
            ladder
        );
    }
}

#[test]
fn stage_delay_composition_matches_full_evaluation_on_random_nets() {
    let tech = tech();
    let nets = NetGenerator::suite(RandomNetConfig::default(), 37, 3).unwrap();
    for net in &nets {
        let l = net.total_length();
        let positions = [0.31 * l, 0.54 * l, 0.78 * l];
        let widths = [90.0, 140.0, 70.0];
        let asg = RepeaterAssignment::new(
            positions
                .iter()
                .zip(&widths)
                .map(|(&x, &w)| Repeater::new(x, w))
                .collect(),
        )
        .unwrap();
        let timing = evaluate(net, tech.device(), &asg);
        // Manual Eq. (2) re-composition.
        let p = net.profile();
        let mut nodes = vec![(0.0, net.driver_width())];
        nodes.extend(positions.iter().zip(&widths).map(|(&x, &w)| (x, w)));
        nodes.push((l, net.receiver_width()));
        let mut manual = 0.0;
        for pair in nodes.windows(2) {
            let ((a, wa), (b, wb)) = (pair[0], pair[1]);
            manual += stage_delay(
                tech.device(),
                p.interval(a, b),
                wa,
                tech.device().input_cap(wb),
            );
        }
        assert!((timing.total_delay - manual).abs() < 1e-6);
    }
}

#[test]
fn analytic_derivatives_match_finite_differences_on_random_nets() {
    let tech = tech();
    let nets = NetGenerator::suite(RandomNetConfig::default(), 39, 3).unwrap();
    for net in &nets {
        let l = net.total_length();
        let positions: Vec<f64> = vec![0.27 * l, 0.52 * l, 0.81 * l];
        let widths = vec![110.0, 95.0, 150.0];
        let view = ChainView::new(net, tech.device(), positions.clone()).unwrap();

        // Width derivatives (Eq. 8 inner term) vs central differences.
        for j in 0..3 {
            let h = 1e-4;
            let analytic = view.dtau_dw(&widths, j);
            let mut up = widths.clone();
            up[j] += h;
            let mut dn = widths.clone();
            dn[j] -= h;
            let numeric = (view.total_delay(&up) - view.total_delay(&dn)) / (2.0 * h);
            assert!(
                (analytic - numeric).abs() <= 1e-3 * numeric.abs().max(1.0),
                "dtau/dw mismatch at {j}: {analytic} vs {numeric}"
            );
        }

        // Location derivatives (Eqs. 17-18) vs one-sided differences.
        for j in 0..3 {
            let h = 0.5;
            for (side, sign) in [(Side::Downstream, 1.0), (Side::Upstream, -1.0)] {
                let analytic = view.dtau_dx(&widths, j, side);
                let mut moved = positions.clone();
                moved[j] += sign * h;
                let numeric = sign
                    * (view.with_positions(moved).unwrap().total_delay(&widths)
                        - view.total_delay(&widths))
                    / h;
                assert!(
                    (analytic - numeric).abs() <= 1e-2 * numeric.abs().max(1.0),
                    "dtau/dx mismatch at {j} ({side:?}): {analytic} vs {numeric}"
                );
            }
        }
    }
}
