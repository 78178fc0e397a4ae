//! The sorted struct-of-arrays frontier pruner must give the same
//! answers as the seed pruner (`rip_dp::reference`) across a 50-net
//! determinism corpus: the same repeaters, delay and width, bit for bit
//! (`reference::same_solution`).
//!
//! Work counters are not compared: they measure how an engine reached
//! the answer. If any pruning decision or tie-break diverges, these
//! tests name the net and target that exposed it.

use rip_dp::{reference, solve_min_delay, solve_min_power, CandidateSet, DpError};
use rip_net::{NetGenerator, RandomNetConfig, TwoPinNet};
use rip_tech::{RepeaterLibrary, Technology};

fn corpus() -> Vec<TwoPinNet> {
    NetGenerator::suite(RandomNetConfig::default(), 2005, 50).unwrap()
}

#[test]
fn min_delay_is_byte_identical_to_reference_on_50_net_corpus() {
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    for (i, net) in corpus().iter().enumerate() {
        let cands = CandidateSet::uniform(net, 200.0);
        let new = solve_min_delay(net, tech.device(), &lib, &cands);
        let old = reference::solve_min_delay(net, tech.device(), &lib, &cands);
        assert!(
            reference::same_solution(&new, &old),
            "net {i}: min-delay solution diverged from the seed pruner:\n{new:?}\n{old:?}"
        );
    }
}

#[test]
fn min_power_is_byte_identical_to_reference_on_50_net_corpus() {
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    for (i, net) in corpus().iter().enumerate() {
        let cands = CandidateSet::uniform(net, 200.0);
        let tau_min = reference::solve_min_delay(net, tech.device(), &lib, &cands).delay_fs;
        for mult in [1.25, 1.6] {
            let target = tau_min * mult;
            let new = solve_min_power(net, tech.device(), &lib, &cands, target).unwrap();
            let old = reference::solve_min_power(net, tech.device(), &lib, &cands, target).unwrap();
            assert!(
                reference::same_solution(&new, &old),
                "net {i} mult {mult}: min-power solution diverged from the seed pruner:\n{new:?}\n{old:?}"
            );
        }
    }
}

#[test]
fn infeasible_targets_report_identical_achievable_delays() {
    let tech = Technology::generic_180nm();
    let lib = RepeaterLibrary::paper_coarse();
    for (i, net) in corpus().iter().take(10).enumerate() {
        let cands = CandidateSet::uniform(net, 200.0);
        let tau_min = reference::solve_min_delay(net, tech.device(), &lib, &cands).delay_fs;
        let target = tau_min * 0.5;
        let new = solve_min_power(net, tech.device(), &lib, &cands, target).unwrap_err();
        let old = reference::solve_min_power(net, tech.device(), &lib, &cands, target).unwrap_err();
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
                    "net {i}: achievable delay diverged"
                );
            }
            other => panic!("net {i}: unexpected error pair {other:?}"),
        }
    }
}
