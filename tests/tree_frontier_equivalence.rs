//! The SoA tree DP must give the same answers as the frozen pre-SoA
//! engine (`rip_dp::reference::tree`) across a 50-tree determinism
//! corpus: the same buffer on every node, delay and width, bit for bit
//! (`reference::same_tree_solution`).
//!
//! Work counters are not compared for equality: they measure how an
//! engine reached the answer, and the production engine's lazy traces
//! are meant to record fewer trace nodes. If any pruning decision or
//! tie-break diverges, these tests name the tree and target that
//! exposed it. Trees are generated from the paper-distribution tree
//! suite, subdivided into candidate buffer sites, and solved both
//! unmasked and under each net's forbidden-node mask (on the raw
//! topology, where the mask indices align).

use rip_delay::RcTree;
use rip_dp::{reference, tree_min_delay, tree_min_power, DpError};
use rip_net::{RandomTreeConfig, TreeNet, TreeNetGenerator};
use rip_tech::{RepeaterLibrary, Technology};

fn corpus() -> Vec<TreeNet> {
    TreeNetGenerator::suite(RandomTreeConfig::default(), 2005, 50).unwrap()
}

#[test]
fn min_delay_is_byte_identical_to_reference_on_50_tree_corpus() {
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    for (i, net) in corpus().iter().enumerate() {
        let (sites, _) = RcTree::from_tree_net(net, tech.device()).subdivided(200.0);
        let new = tree_min_delay(&sites, tech.device(), net.driver_width(), &lib, None).unwrap();
        let old =
            reference::tree::tree_min_delay(&sites, tech.device(), net.driver_width(), &lib, None)
                .unwrap();
        assert!(
            reference::same_tree_solution(&new, &old),
            "tree {i}: min-delay solution diverged from the reference engine:\n{new:?}\n{old:?}"
        );
    }
}

#[test]
fn min_power_is_byte_identical_to_reference_on_50_tree_corpus() {
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    let mut fewer_trace_nodes = false;
    for (i, net) in corpus().iter().enumerate() {
        let (sites, _) = RcTree::from_tree_net(net, tech.device()).subdivided(200.0);
        let tau_min =
            reference::tree::tree_min_delay(&sites, tech.device(), net.driver_width(), &lib, None)
                .unwrap()
                .delay_fs;
        for mult in [1.25, 1.6] {
            let target = tau_min * mult;
            let new = tree_min_power(
                &sites,
                tech.device(),
                net.driver_width(),
                &lib,
                None,
                target,
            )
            .unwrap();
            let old = reference::tree::tree_min_power(
                &sites,
                tech.device(),
                net.driver_width(),
                &lib,
                None,
                target,
            )
            .unwrap();
            assert!(
                reference::same_tree_solution(&new, &old),
                "tree {i} mult {mult}: min-power solution diverged from the reference engine:\n{new:?}\n{old:?}"
            );
            // Traces are joined only for survivors, never more often
            // than the reference's eager arena.
            assert!(
                new.stats.trace_nodes <= old.stats.trace_nodes,
                "tree {i} mult {mult}: {} trace nodes vs the reference's {}",
                new.stats.trace_nodes,
                old.stats.trace_nodes
            );
            fewer_trace_nodes |= new.stats.trace_nodes < old.stats.trace_nodes;
        }
    }
    assert!(
        fewer_trace_nodes,
        "lazy traces saved no trace node on any tree"
    );
}

#[test]
fn masked_solves_stay_byte_identical() {
    // The forbidden-node masks exercise the buffer_ok gate on the raw
    // topologies, where the generator's mask aligns index-for-index.
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    for (i, net) in corpus().iter().take(15).enumerate() {
        let tree = RcTree::from_tree_net(net, tech.device());
        let mask = net.allowed_mask();
        let new =
            tree_min_delay(&tree, tech.device(), net.driver_width(), &lib, Some(&mask)).unwrap();
        let old = reference::tree::tree_min_delay(
            &tree,
            tech.device(),
            net.driver_width(),
            &lib,
            Some(&mask),
        )
        .unwrap();
        assert!(
            reference::same_tree_solution(&new, &old),
            "tree {i}: masked min-delay diverged from the reference engine:\n{new:?}\n{old:?}"
        );
        for (v, ok) in mask.iter().enumerate() {
            assert!(
                *ok || new.buffer_widths[v].is_none(),
                "tree {i}: buffer placed on forbidden node {v}"
            );
        }
    }
}

#[test]
fn infeasible_targets_report_identical_achievable_delays() {
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    for (i, net) in corpus().iter().take(10).enumerate() {
        let (sites, _) = RcTree::from_tree_net(net, tech.device()).subdivided(200.0);
        let tau_min =
            reference::tree::tree_min_delay(&sites, tech.device(), net.driver_width(), &lib, None)
                .unwrap()
                .delay_fs;
        let target = tau_min * 0.5;
        let new = tree_min_power(
            &sites,
            tech.device(),
            net.driver_width(),
            &lib,
            None,
            target,
        )
        .unwrap_err();
        let old = reference::tree::tree_min_power(
            &sites,
            tech.device(),
            net.driver_width(),
            &lib,
            None,
            target,
        )
        .unwrap_err();
        match (&new, &old) {
            (
                DpError::InfeasibleTarget {
                    achievable_fs: a, ..
                },
                DpError::InfeasibleTarget {
                    achievable_fs: b, ..
                },
            ) => {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tree {i}: achievable delay diverged"
                );
            }
            other => panic!("tree {i}: unexpected error pair {other:?}"),
        }
    }
}
