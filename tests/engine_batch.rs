//! Batch-engine guarantees: `Engine::solve_batch` is byte-identical to
//! sequential `rip()` calls, and a session's `τ_min` memo actually gets reused.

use rip_core::{rip, BatchTarget, Engine, RipConfig, RipOutcome};
use rip_net::{NetBuilder, NetGenerator, RandomNetConfig, Segment, TwoPinNet};
use rip_tech::Technology;

fn suite(seed: u64, count: usize) -> Vec<TwoPinNet> {
    NetGenerator::suite(RandomNetConfig::default(), seed, count).unwrap()
}

/// Everything except wall-clock runtimes must match exactly; the Debug
/// rendering pins every float bit of the solutions.
fn assert_outcomes_identical(batch: &RipOutcome, sequential: &RipOutcome, net_index: usize) {
    assert_eq!(
        format!("{:?}", batch.solution),
        format!("{:?}", sequential.solution),
        "net {net_index}: batch solution diverged from sequential rip()"
    );
    assert_eq!(
        batch.coarse, sequential.coarse,
        "net {net_index}: coarse seed diverged"
    );
    assert_eq!(
        batch.refined, sequential.refined,
        "net {net_index}: refinement diverged"
    );
    assert_eq!(
        batch.library, sequential.library,
        "net {net_index}: library diverged"
    );
    assert_eq!(
        batch.candidate_count, sequential.candidate_count,
        "net {net_index}: candidate count diverged"
    );
}

#[test]
fn batch_of_50_nets_is_byte_identical_to_sequential_rip() {
    let tech = Technology::generic_180nm();
    let config = RipConfig::paper();
    let nets = suite(2005, 50);

    let engine = Engine::new(tech.clone(), config.clone());
    let targets: Vec<f64> = nets.iter().map(|net| engine.tau_min(net) * 1.4).collect();
    let batch = engine.solve_batch(&nets, &BatchTarget::PerNetFs(targets.clone()));

    for (i, (net, (outcome, &target_fs))) in nets.iter().zip(batch.iter().zip(&targets)).enumerate()
    {
        let sequential = rip(net, &tech, target_fs, &config).unwrap();
        let batched = outcome.as_ref().unwrap();
        assert_outcomes_identical(batched, &sequential, i);
        assert!(
            batched.solution.meets(target_fs),
            "net {i} missed its target"
        );
        batched.solution.assignment.validate_on(net).unwrap();
    }
}

#[test]
fn tau_min_multiple_targets_match_per_net_resolution() {
    let engine = Engine::paper(Technology::generic_180nm());
    let nets = suite(17, 8);
    let by_multiple = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.45));
    let targets: Vec<f64> = nets.iter().map(|net| engine.tau_min(net) * 1.45).collect();
    let by_explicit = engine.solve_batch(&nets, &BatchTarget::PerNetFs(targets));
    for (i, (a, b)) in by_multiple.iter().zip(&by_explicit).enumerate() {
        assert_eq!(
            a.as_ref().unwrap().solution,
            b.as_ref().unwrap().solution,
            "net {i}: target resolution paths disagree"
        );
    }
}

#[test]
fn second_identical_batch_reuses_the_session_cache() {
    let engine = Engine::paper(Technology::generic_180nm());
    let nets = suite(42, 10);
    let target = BatchTarget::TauMinMultiple(1.4);

    let _ = engine.solve_batch(&nets, &target);
    let first = engine.stats();
    assert!(first.misses() > 0, "first batch must populate the cache");
    assert_eq!(first.nets_solved, nets.len() as u64);

    let _ = engine.solve_batch(&nets, &target);
    let second = engine.stats();
    assert_eq!(
        second.misses(),
        first.misses(),
        "second identical batch recomputed cached state"
    );
    assert!(
        second.hits() > first.hits(),
        "second identical batch should be served from the cache"
    );
    assert_eq!(second.nets_solved, 2 * nets.len() as u64);
}

/// Width variants of one geometry (same segments and zones, different
/// drivers) solve in one batch exactly as each would alone.
#[test]
fn width_variants_of_one_geometry_match_standalone_rip() {
    let engine = Engine::paper(Technology::generic_180nm());
    let variants: Vec<TwoPinNet> = [100.0, 115.0, 130.0, 145.0, 160.0]
        .iter()
        .map(|&driver| {
            NetBuilder::new()
                .segment(Segment::new(6000.0, 0.08, 0.20))
                .segment(Segment::new(6000.0, 0.06, 0.18))
                .forbidden_zone(4000.0, 7000.0)
                .unwrap()
                .driver_width(driver)
                .receiver_width(60.0)
                .build()
                .unwrap()
        })
        .collect();
    let outs = engine.solve_batch(&variants, &BatchTarget::TauMinMultiple(1.4));
    for (i, out) in outs.iter().enumerate() {
        assert!(out.is_ok(), "variant {i} failed: {:?}", out.as_ref().err());
    }
    // Each variant matches its standalone solve.
    let tech = Technology::generic_180nm();
    let config = RipConfig::paper();
    for (i, (net, out)) in variants.iter().zip(&outs).enumerate() {
        let target = engine.tau_min(net) * 1.4;
        let standalone = rip(net, &tech, target, &config).unwrap();
        assert_eq!(
            format!("{:?}", out.as_ref().unwrap().solution),
            format!("{:?}", standalone.solution),
            "variant {i}: batch solve diverged from standalone rip()"
        );
    }
}

#[test]
fn fresh_engines_do_not_share_state() {
    let nets = suite(9, 3);
    let a = Engine::paper(Technology::generic_180nm());
    let _ = a.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.5));
    let b = Engine::paper(Technology::generic_180nm());
    assert_eq!(b.stats().hits(), 0);
    assert_eq!(b.stats().misses(), 0);
}
