//! Bench for the batch [`Engine`]: warm-session single-net solves vs
//! cold one-shot solves, and parallel batch throughput. `rip bench` runs
//! the larger 100-net version and records it in `BENCH_batch.json`.

use rip_bench::harness::run_case;
use rip_core::{rip, BatchTarget, Engine, RipConfig};
use rip_net::{NetGenerator, RandomNetConfig};
use rip_tech::Technology;

fn main() {
    let tech = Technology::generic_180nm();
    let config = RipConfig::paper();
    let nets = NetGenerator::suite(RandomNetConfig::default(), 2005, 10).expect("valid config");
    let engine = Engine::new(tech.clone(), config.clone());
    let targets: Vec<f64> = nets.iter().map(|net| engine.tau_min(net) * 1.4).collect();
    let batch_target = BatchTarget::PerNetFs(targets.clone());

    run_case("engine/solve_cached_single_net", || {
        engine.solve(&nets[0], targets[0]).expect("feasible");
    });

    run_case("free_fn/rip_cold_single_net", || {
        rip(&nets[0], &tech, targets[0], &config).expect("feasible");
    });

    run_case("engine/solve_batch_10", || {
        let outs = engine.solve_batch(&nets, &batch_target);
        assert!(outs.iter().all(Result::is_ok));
    });

    run_case("free_fn/sequential_10", || {
        for (net, &t) in nets.iter().zip(&targets) {
            rip(net, &tech, t, &config).expect("feasible");
        }
    });
}
