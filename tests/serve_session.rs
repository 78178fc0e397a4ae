//! Service-level determinism: a running `rip_serve` server under
//! concurrent clients must answer byte-identically to sequential
//! in-process [`Engine`] solves, shut down cleanly on request, and keep
//! answering identically when its LRU caches are squeezed hard enough
//! to evict constantly.
//!
//! This is the serving analogue of `tests/engine_batch.rs`: the caches
//! and the transport may reorder *work*, never *answers*.

use rip_core::Engine;
use rip_net::{NetGenerator, RandomNetConfig};
use rip_serve::{
    net_to_json, parse_json, run_loadgen, start_server, tree_pool, tree_to_json, Client, FaultPlan,
    Json, LoadgenConfig, ServeConfig, ServeState,
};
use rip_tech::Technology;

fn engine() -> Engine {
    Engine::paper(Technology::generic_180nm())
}

#[test]
fn concurrent_clients_get_byte_identical_answers_and_a_clean_shutdown() {
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let addr = server.addr();

    // The reference: an identically-configured engine driven in-process
    // and sequentially. Every deterministic response from the server
    // must match its rendering byte for byte.
    let reference = ServeState::new(engine());
    let loadgen = LoadgenConfig {
        connections: 4,
        requests_per_conn: 12,
        nets: 5,
        ..LoadgenConfig::default()
    };
    let outcome = run_loadgen(addr, Some(&reference), &loadgen).unwrap();
    assert_eq!(outcome.requests, 48);
    assert!(outcome.verified > 30, "most requests are deterministic");
    assert_eq!(
        outcome.mismatches, 0,
        "responses diverged from in-process engine"
    );
    assert_eq!(outcome.errors, 0, "some responses were not ok");

    // The shared engine amortized across connections: the repeated
    // scripts must be served mostly from cache, with LRU promotions
    // recorded.
    let stats = server.state().engine().stats();
    assert!(
        stats.hits() > stats.misses(),
        "warm repeated scripts must hit more than miss ({stats:?})"
    );
    assert!(stats.promotions > 0, "cache hits must promote ({stats:?})");

    // One explicit spot check straight through a raw client, no loadgen.
    let net = NetGenerator::suite(RandomNetConfig::default(), 5, 1)
        .unwrap()
        .remove(0);
    let expected = {
        let reference_engine = engine();
        let tau = reference_engine.tau_min(&net);
        reference_engine.solve(&net, 1.4 * tau).unwrap()
    };
    let mut client = Client::connect(addr).unwrap();
    let request = Json::obj([
        ("cmd", Json::from("solve")),
        ("net", net_to_json(&net)),
        ("target_mult", Json::Num(1.4)),
    ]);
    let response = client.request_value(&request).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        response
            .get("delay_fs")
            .unwrap()
            .as_f64()
            .unwrap()
            .to_bits(),
        expected.solution.delay_fs.to_bits(),
        "served delay must be bit-identical to the in-process solve"
    );
    assert_eq!(
        response
            .get("total_width")
            .unwrap()
            .as_f64()
            .unwrap()
            .to_bits(),
        expected.solution.total_width.to_bits()
    );

    // Clean shutdown: the server acknowledges, all workers join.
    let goodbye = client
        .request_line(r#"{"id":99,"cmd":"shutdown"}"#)
        .unwrap();
    let goodbye = parse_json(&goodbye).unwrap();
    assert_eq!(goodbye.get("stopping"), Some(&Json::Bool(true)));
    server.join();
}

#[test]
fn masked_tree_solves_round_trip_and_answer_identically_warm_vs_cold() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let addr = server.addr();

    // A loadgen mix with masked solve_tree requests (both the
    // blocked-flag and the explicit-`allowed` spellings): every
    // deterministic response must match the in-process reference byte
    // for byte, exactly like the chain commands.
    let reference = ServeState::new(engine());
    let loadgen = LoadgenConfig {
        connections: 2,
        requests_per_conn: 16,
        nets: 4,
        trees: 3,
        ..LoadgenConfig::default()
    };
    let outcome = run_loadgen(addr, Some(&reference), &loadgen).unwrap();
    assert_eq!(outcome.errors, 0, "some responses were not ok");
    assert_eq!(
        outcome.mismatches, 0,
        "masked tree responses diverged from the in-process engine"
    );

    // Warm vs cold: repeating one masked solve_tree verbatim must
    // return byte-identical lines, and the `allowed`-override spelling
    // of the same mask must answer byte-identically too (modulo the
    // echoed id, which we hold fixed).
    let pool = tree_pool(&loadgen);
    let tree = pool
        .iter()
        .find(|t| t.allowed_mask().iter().any(|ok| !ok))
        .expect("the compact pool must provide a genuinely masked tree");
    let mut client = Client::connect(addr).unwrap();
    let blocked_spelling = format!(
        r#"{{"id":7,"cmd":"solve_tree","tree":{},"target_mult":1.4}}"#,
        tree_to_json(tree)
    );
    let cold = client.request_line(&blocked_spelling).unwrap();
    assert_eq!(
        parse_json(&cold).unwrap().get("ok"),
        Some(&Json::Bool(true)),
        "{cold}"
    );
    let warm = client.request_line(&blocked_spelling).unwrap();
    assert_eq!(cold, warm, "a warm masked solve must not change bytes");
    let allowed: Vec<String> = tree
        .allowed_mask()
        .iter()
        .map(|ok| ok.to_string())
        .collect();
    let override_spelling = format!(
        r#"{{"id":7,"cmd":"solve_tree","tree":{},"target_mult":1.4,"allowed":[{}]}}"#,
        tree_to_json(tree),
        allowed.join(",")
    );
    let via_override = client.request_line(&override_spelling).unwrap();
    assert_eq!(
        cold, via_override,
        "the explicit allowed override must be the same request"
    );
    server.shutdown();
}

#[test]
fn reset_stats_rezeroes_server_counters_mid_session() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let net = NetGenerator::suite(RandomNetConfig::default(), 3, 1)
        .unwrap()
        .remove(0);
    let solve = format!(
        r#"{{"id":1,"cmd":"solve","net":{},"target_mult":1.4}}"#,
        net_to_json(&net)
    );
    let cold = client.request_line(&solve).unwrap();
    let reset = parse_json(
        &client
            .request_line(r#"{"id":2,"cmd":"reset_stats"}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(reset.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reset.get("reset"), Some(&Json::Bool(true)));
    assert!(reset.get("requests").unwrap().as_f64().unwrap() >= 2.0);
    // Counters restart; cached answers survive byte-identically.
    let stats = parse_json(&client.request_line(r#"{"id":3,"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(stats.get("requests").unwrap().as_f64(), Some(1.0));
    assert_eq!(stats.get("nets_solved").unwrap().as_f64(), Some(0.0));
    let warm = client.request_line(&solve).unwrap();
    assert_eq!(cold, warm, "reset_stats must not drop cache contents");
    server.shutdown();
}

#[test]
fn tight_lru_caps_change_hit_rates_but_never_answers() {
    // Caps small enough that the 6-net script evicts constantly.
    let config = ServeConfig {
        workers: 2,
        value_cache_cap: 2,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let reference = ServeState::new(engine());
    let loadgen = LoadgenConfig {
        connections: 2,
        requests_per_conn: 10,
        nets: 6,
        ..LoadgenConfig::default()
    };
    let outcome = run_loadgen(server.addr(), Some(&reference), &loadgen).unwrap();
    assert_eq!(outcome.mismatches, 0, "eviction must never change answers");
    assert_eq!(outcome.errors, 0);
    let stats = server.state().engine().stats();
    assert!(
        stats.evictions > 0,
        "the tight caps must actually evict ({stats:?})"
    );
    assert_eq!(server.state().engine().value_cache_cap(), 2);
    server.shutdown();
}

/// Pulls one histogram's count out of a rendered `metrics` response.
fn histogram_count(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metrics response lacks histogram {name}: {metrics:?}"))
        as u64
}

#[test]
fn metrics_histogram_counts_exactly_match_request_counters() {
    // The tentpole's exactness claim: the edge observes its queue-wait
    // and solve histograms once per request line, `metrics` counts
    // itself before snapshotting, and `reset_stats` is skipped (its
    // counter increment is zeroed during handling) — so the histogram
    // counts always equal the `stats` request counter, in every reset
    // epoch.
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let nets = NetGenerator::suite(RandomNetConfig::default(), 21, 3).unwrap();
    for (i, net) in nets.iter().enumerate() {
        let line = format!(
            r#"{{"id":{i},"cmd":"solve","net":{},"target_mult":1.4}}"#,
            net_to_json(net)
        );
        let response = parse_json(&client.request_line(&line).unwrap()).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    }

    // 3 solves + this metrics line itself = 4 observed lines.
    let metrics =
        parse_json(&client.request_line(r#"{"id":10,"cmd":"metrics"}"#).unwrap()).unwrap();
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
    let queue_count = histogram_count(&metrics, "serve_request_queue_wait_ns");
    let solve_count = histogram_count(&metrics, "serve_request_solve_ns");
    assert_eq!(queue_count, 4);
    assert_eq!(solve_count, 4);
    // There is no server-side queue: every observed wait is zero.
    assert_eq!(
        metrics
            .get("histograms")
            .and_then(|h| h.get("serve_request_queue_wait_ns"))
            .and_then(|h| h.get("sum"))
            .and_then(Json::as_f64),
        Some(0.0)
    );
    // The engine-side stage histograms rode along in the merge.
    assert!(
        histogram_count(&metrics, "engine_chain_coarse_dp_ns") >= 3,
        "{metrics:?}"
    );

    // The stats line right after sees the metrics line + itself.
    let stats = parse_json(&client.request_line(r#"{"id":11,"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(
        stats.get("requests").unwrap().as_f64(),
        Some((queue_count + 1) as f64),
        "stats must lead the last metrics snapshot by exactly its own line"
    );

    // Across a reset epoch the equality holds from zero again.
    let reset = parse_json(
        &client
            .request_line(r#"{"id":12,"cmd":"reset_stats"}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(reset.get("ok"), Some(&Json::Bool(true)));
    let metrics =
        parse_json(&client.request_line(r#"{"id":13,"cmd":"metrics"}"#).unwrap()).unwrap();
    assert_eq!(
        histogram_count(&metrics, "serve_request_queue_wait_ns"),
        1,
        "post-reset counts restart at this metrics line"
    );
    assert_eq!(histogram_count(&metrics, "serve_request_solve_ns"), 1);
    let stats = parse_json(&client.request_line(r#"{"id":14,"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(stats.get("requests").unwrap().as_f64(), Some(2.0));
    server.shutdown();
}

#[test]
fn metrics_interleaving_never_changes_solver_bytes() {
    // Determinism rider: snapshotting and resetting the observability
    // layer must never change an answer byte. Cold solve, metrics,
    // reset_stats, warm solve — cold and warm must match exactly.
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let net = NetGenerator::suite(RandomNetConfig::default(), 31, 1)
        .unwrap()
        .remove(0);
    let solve = format!(
        r#"{{"id":1,"cmd":"solve","net":{},"target_mult":1.4}}"#,
        net_to_json(&net)
    );
    let cold = client.request_line(&solve).unwrap();
    let metrics = parse_json(&client.request_line(r#"{"id":2,"cmd":"metrics"}"#).unwrap()).unwrap();
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
    client
        .request_line(r#"{"id":3,"cmd":"reset_stats"}"#)
        .unwrap();
    let warm = client.request_line(&solve).unwrap();
    assert_eq!(
        cold, warm,
        "metrics/reset interleaving must not perturb solver output"
    );

    // Engine-level spelling of the same claim: an engine whose registry
    // was swapped for a foreign, pre-populated one still solves
    // bit-identically to a fresh engine.
    let fresh = engine();
    let expected = {
        let tau = fresh.tau_min(&net);
        fresh.solve(&net, 1.4 * tau).unwrap()
    };
    let mut adopted = engine();
    let foreign = std::sync::Arc::new(rip_obs::MetricsRegistry::new());
    foreign.histogram("engine_chain_coarse_dp_ns").observe(999);
    adopted.adopt_metrics(foreign);
    let tau = adopted.tau_min(&net);
    let got = adopted.solve(&net, 1.4 * tau).unwrap();
    assert_eq!(
        got.solution.delay_fs.to_bits(),
        expected.solution.delay_fs.to_bits()
    );
    assert_eq!(
        got.solution.total_width.to_bits(),
        expected.solution.total_width.to_bits()
    );
    server.shutdown();
}

#[test]
fn over_limit_connections_get_a_typed_busy_rejection() {
    let config = ServeConfig {
        // More workers than allowed connections: the spare workers are
        // what deliver the rejection line (documented in rip_serve).
        workers: 3,
        max_conns: 1,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let addr = server.addr();
    let net = NetGenerator::suite(RandomNetConfig::default(), 11, 1)
        .unwrap()
        .remove(0);
    let solve = format!(
        r#"{{"id":1,"cmd":"solve","net":{},"target_mult":1.4}}"#,
        net_to_json(&net)
    );

    // A full round trip pins the first connection to a worker before
    // anything else dials in.
    let mut occupant = Client::connect(addr).unwrap();
    let accepted = parse_json(&occupant.request_line(&solve).unwrap()).unwrap();
    assert_eq!(accepted.get("ok"), Some(&Json::Bool(true)));

    // The second connection is over the limit: it gets one typed busy
    // line without sending anything, then the socket closes.
    let mut rejected = Client::connect(addr).unwrap();
    let line = rejected.read_line().unwrap();
    let busy = parse_json(&line).unwrap();
    assert_eq!(busy.get("ok"), Some(&Json::Bool(false)), "{line}");
    assert_eq!(busy.get("code"), Some(&Json::from("busy")), "{line}");
    assert_eq!(busy.get("id"), Some(&Json::Null), "{line}");
    let error = busy.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("connection limit (1)"),
        "the busy line must name the limit: {line}"
    );
    assert!(
        rejected.read_line().is_err(),
        "the rejected socket must close after the busy line"
    );
    assert_eq!(server.rejected_conns(), 1);

    // The occupant is unaffected — and once it hangs up, its slot frees
    // for a new connection.
    let warm = parse_json(&occupant.request_line(&solve).unwrap()).unwrap();
    assert_eq!(warm.get("ok"), Some(&Json::Bool(true)));
    drop(occupant);
    let mut successor = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        // The freed slot is visible only after the server notices the
        // hangup; retry the dial until it lands or the deadline passes.
        match parse_json(&successor.request_line(&solve).unwrap()).unwrap() {
            ref ok if ok.get("ok") == Some(&Json::Bool(true)) => break,
            rejected_again => {
                assert_eq!(
                    rejected_again.get("code"),
                    Some(&Json::from("busy")),
                    "only busy rejections are acceptable while the slot drains"
                );
                assert!(
                    std::time::Instant::now() < deadline,
                    "the connection slot never freed after the occupant hung up"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
                successor = Client::connect(addr).unwrap();
            }
        }
    }
    server.shutdown();
}

#[test]
fn host_initiated_shutdown_drains_idle_workers() {
    let config = ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let addr = server.addr();
    // A connected but idle client must not block the drain.
    let _idle = Client::connect(addr).unwrap();
    server.shutdown();
}

#[test]
fn over_long_request_lines_get_a_typed_bad_request_before_close() {
    // A line past the cap must surface as a typed `bad_request` the
    // client can actually read — not a silent close (whose unread input
    // would turn into a TCP reset destroying the error line in flight).
    let config = ServeConfig {
        workers: 2,
        max_line_bytes: 256,
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_line(&"a".repeat(8192)).unwrap();
    let line = client.read_line().unwrap();
    let response = parse_json(&line).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{line}");
    assert_eq!(
        response.get("code"),
        Some(&Json::from("bad_request")),
        "{line}"
    );
    let error = response.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("exceeds 256 bytes"),
        "the error must name the cap: {line}"
    );
    assert!(
        client.read_line().is_err(),
        "the connection must close after the typed error"
    );
    server.shutdown();
}

#[test]
fn drain_finishes_in_flight_work_and_rejects_new_requests() {
    // Every eligible request is held in flight by an injected delay, and
    // the drain is sent only once the batch's delay has begun, so the
    // batch is still running when the drain lands however the threads
    // are scheduled and however fast the solver is. Control requests and
    // drain-rejected work are never delayed.
    let config = ServeConfig {
        workers: 4,
        drain_deadline_secs: 30,
        faults: FaultPlan {
            delay_every: 1,
            delay_ms: 2_000,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let addr = server.addr();

    // An in-flight batch on its own connection: drain must let it
    // finish, not cut it off.
    let in_flight = std::thread::spawn(move || {
        let nets = NetGenerator::suite(RandomNetConfig::default(), 77, 4)
            .unwrap()
            .iter()
            .map(|n| net_to_json(n).to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut client = Client::connect(addr).unwrap();
        client
            .request_line(&format!(
                r#"{{"id":1,"cmd":"batch","nets":[{nets}],"target_mult":1.4}}"#
            ))
            .unwrap()
    });
    // The delay is counted before it starts, so once the counter reads 1
    // the batch is in flight.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while server.faults().injected_delays() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the batch never reached the server"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // A control connection pipelines `drain` plus one more request in a
    // single write: the drain is acknowledged, and everything behind it
    // on the same connection is already too late.
    let mut ctl = Client::connect(addr).unwrap();
    ctl.send_line(concat!(
        r#"{"id":10,"cmd":"drain","deadline_ms":30000}"#,
        "\n",
        r#"{"id":11,"cmd":"tau_min","net":{"segments":[[3000,0.08,0.2]]}}"#
    ))
    .unwrap();
    let ack = parse_json(&ctl.read_line().unwrap()).unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(ack.get("draining"), Some(&Json::Bool(true)));
    assert!(ack.get("deadline_ms").unwrap().as_f64().unwrap() >= 30000.0);
    let late_line = ctl.read_line().unwrap();
    let late = parse_json(&late_line).unwrap();
    assert_eq!(
        late.get("code"),
        Some(&Json::from("shutting_down")),
        "work behind the drain must be rejected, typed: {late_line}"
    );
    drop(ctl);

    // A late dial gets one typed `shutting_down` line, then close.
    let mut late_dial = Client::connect(addr).unwrap();
    let reject_line = late_dial.read_line().unwrap();
    let reject = parse_json(&reject_line).unwrap();
    assert_eq!(reject.get("ok"), Some(&Json::Bool(false)), "{reject_line}");
    assert_eq!(
        reject.get("code"),
        Some(&Json::from("shutting_down")),
        "{reject_line}"
    );
    drop(late_dial);

    // The in-flight batch still completed, ok and in full.
    let response = parse_json(&in_flight.join().unwrap()).unwrap();
    assert_eq!(
        response.get("ok"),
        Some(&Json::Bool(true)),
        "drain must not cut in-flight work"
    );
    assert_eq!(
        server.faults().injected_delays(),
        1,
        "only the batch may have been delayed"
    );

    // With every connection gone, the drain concludes well before its
    // deadline and the server joins cleanly.
    let t0 = std::time::Instant::now();
    server.join();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(20),
        "drain took {:?} — it must conclude once idle, not sit on the deadline",
        t0.elapsed()
    );
}
