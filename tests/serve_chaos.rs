//! The chaos suite: deterministic fault injection against a running
//! `rip_serve` server. Injected panics must surface as typed `internal`
//! errors (never dropped connections or wrong bytes), supervised
//! workers must respawn with permanent capacity, client retries must
//! converge to byte-identical answers under every fault kind, and the
//! `stats` wire view must account for the injected faults exactly.
//!
//! Every fault fires from a seeded [`FaultPlan`] whose ordinals count
//! per connection, so each test sees the same schedule on every run,
//! however the connections interleave — chaos here is an input, not a
//! dice roll.

use rip_core::Engine;
use rip_net::{NetGenerator, RandomNetConfig};
use rip_serve::{
    net_to_json, parse_json, run_loadgen, start_server, Client, FaultPlan, Json, LoadgenConfig,
    RetryPolicy, ServeConfig, ServeState,
};
use rip_tech::Technology;

fn engine() -> Engine {
    Engine::paper(Technology::generic_180nm())
}

#[test]
fn injected_panics_become_typed_internal_errors_and_respawns_restore_capacity() {
    let config = ServeConfig {
        workers: 2,
        faults: FaultPlan {
            panic_every: 3,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let addr = server.addr();

    // Round 1, fault plan armed, no retries: every injected panic must
    // surface as exactly one typed `internal` error — nothing else may
    // fail, and no connection may drop.
    let loadgen = LoadgenConfig {
        connections: 2,
        requests_per_conn: 16,
        nets: 6,
        ..LoadgenConfig::default()
    };
    let outcome = run_loadgen(addr, None, &loadgen).unwrap();
    assert_eq!(outcome.requests, 32);
    assert!(outcome.errors > 0, "the fault plan must actually fire");
    assert_eq!(
        outcome.errors, outcome.internal_errors,
        "under panic faults the only acceptable failure is a typed internal error"
    );

    // The supervision ledger must match the injector's schedule exactly:
    // one caught panic and one respawn per injected fault, visible both
    // on the handle and on the wire.
    let injected = server.faults().injected_panics();
    assert_eq!(outcome.internal_errors as u64, injected);
    assert_eq!(server.panics_total(), injected);
    assert_eq!(server.respawns_total(), injected);
    let mut client = Client::connect(addr).unwrap();
    let stats = parse_json(&client.request_line(r#"{"id":1,"cmd":"stats"}"#).unwrap()).unwrap();
    assert_eq!(
        stats.get("panics").unwrap().as_f64(),
        Some(injected as f64),
        "the stats wire view must report the injected panic count exactly"
    );
    assert_eq!(
        stats.get("respawns").unwrap().as_f64(),
        Some(injected as f64)
    );

    // Round 2, faults disarmed: a full byte-checked round must come
    // back spotless — the respawned workers carry permanent capacity,
    // not a degraded pool.
    server.faults().set_armed(false);
    let reference = ServeState::new(engine());
    let recovered = run_loadgen(addr, Some(&reference), &loadgen).unwrap();
    assert_eq!(
        recovered.errors, 0,
        "a post-fault round must run clean: the pool must fully recover"
    );
    assert_eq!(recovered.internal_errors, 0);
    assert_eq!(
        recovered.mismatches, 0,
        "respawned engines must answer byte-identically"
    );
    assert!(recovered.verified > 0);
    server.shutdown();
}

#[test]
fn client_retries_converge_to_byte_identical_answers_under_panic_faults() {
    let config = ServeConfig {
        workers: 2,
        faults: FaultPlan {
            panic_every: 4,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();

    // Retries on, byte-checking on: every injected panic is retried
    // into the correct answer, so the outcome is indistinguishable from
    // a fault-free run — except for the retry counters, which must show
    // the faults actually fired.
    let reference = ServeState::new(engine());
    let loadgen = LoadgenConfig {
        connections: 2,
        requests_per_conn: 16,
        nets: 6,
        retry: RetryPolicy::new(4, 1),
        ..LoadgenConfig::default()
    };
    let outcome = run_loadgen(server.addr(), Some(&reference), &loadgen).unwrap();
    assert_eq!(
        outcome.errors, 0,
        "retries must absorb every injected panic"
    );
    assert_eq!(
        outcome.mismatches, 0,
        "a retried answer must be byte-identical to the reference"
    );
    assert_eq!(outcome.gave_up, 0, "no request may exhaust its retries");
    assert!(outcome.retries > 0, "the fault plan must actually fire");
    assert!(outcome.attempts > outcome.requests as u64);
    assert!(server.panics_total() > 0);
    assert_eq!(server.panics_total(), server.respawns_total());
    server.shutdown();
}

#[test]
fn delay_and_drop_faults_are_transparent_behind_retries() {
    // The other two fault kinds: injected delays slow requests without corrupting them, and injected
    // connection drops cut responses mid-line — which retries must turn
    // back into clean byte-identical answers.
    let config = ServeConfig {
        workers: 3,
        faults: FaultPlan {
            delay_every: 5,
            delay_ms: 10,
            drop_every: 7,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let reference = ServeState::new(engine());
    let loadgen = LoadgenConfig {
        connections: 2,
        requests_per_conn: 16,
        nets: 6,
        retry: RetryPolicy::new(4, 1),
        ..LoadgenConfig::default()
    };
    let outcome = run_loadgen(server.addr(), Some(&reference), &loadgen).unwrap();
    assert_eq!(outcome.errors, 0, "{outcome:?}");
    assert_eq!(outcome.mismatches, 0, "{outcome:?}");
    assert_eq!(outcome.gave_up, 0, "{outcome:?}");
    assert!(
        server.faults().injected_delays() > 0,
        "the delay fault must actually fire"
    );
    assert!(
        server.faults().injected_drops() > 0,
        "the drop fault must actually fire"
    );
    assert!(
        outcome.retries > 0,
        "dropped responses must have forced retries"
    );
    // No worker panicked: delays and drops exercise the transport, not
    // the supervision path.
    assert_eq!(server.panics_total(), 0);
    server.shutdown();
}

#[test]
fn a_panicked_worker_answers_the_next_request_on_the_same_connection() {
    // The smallest possible supervision story, on one sequential
    // connection: request 1 succeeds, request 2 hits the
    // injected panic and gets a typed `internal` error with its id
    // echoed, request 3 — same connection, same bytes as request 1 —
    // succeeds again off the respawned engine.
    let config = ServeConfig {
        workers: 1,
        faults: FaultPlan {
            panic_every: 2,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let net = NetGenerator::suite(RandomNetConfig::default(), 9, 1)
        .unwrap()
        .remove(0);
    let solve = format!(
        r#"{{"id":5,"cmd":"solve","net":{},"target_mult":1.4}}"#,
        net_to_json(&net)
    );
    let mut client = Client::connect(server.addr()).unwrap();

    let first = client.request_line(&solve).unwrap();
    assert_eq!(
        parse_json(&first).unwrap().get("ok"),
        Some(&Json::Bool(true)),
        "{first}"
    );

    let second_line = client.request_line(&solve).unwrap();
    let second = parse_json(&second_line).unwrap();
    assert_eq!(second.get("ok"), Some(&Json::Bool(false)), "{second_line}");
    assert_eq!(
        second.get("code"),
        Some(&Json::from("internal")),
        "{second_line}"
    );
    assert_eq!(
        second.get("id"),
        Some(&Json::Num(5.0)),
        "the internal error must echo the request id: {second_line}"
    );
    let error = second.get("error").and_then(Json::as_str).unwrap();
    assert!(
        error.contains("respawned"),
        "the error must say the worker recovered: {second_line}"
    );

    let third = client.request_line(&solve).unwrap();
    assert_eq!(
        first, third,
        "the respawned engine must answer byte-identically on the same connection"
    );
    assert_eq!(server.panics_total(), 1);
    assert_eq!(server.respawns_total(), 1);
    server.shutdown();
}

#[test]
fn metrics_histograms_survive_injected_panics_and_respawns() {
    // Observability under chaos: the edge's request histograms live at
    // the edge and the engine's stage timings in an `Arc`-shared
    // registry that respawned engines adopt, so counts observed before
    // a panic must still be visible afterwards — and must only ever
    // grow across respawns.
    let config = ServeConfig {
        workers: 2,
        faults: FaultPlan {
            panic_every: 3,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    let server = start_server(engine(), &config).unwrap();
    let loadgen = LoadgenConfig {
        connections: 2,
        requests_per_conn: 12,
        nets: 6,
        retry: RetryPolicy::new(4, 1),
        ..LoadgenConfig::default()
    };

    let first = run_loadgen(server.addr(), None, &loadgen).unwrap();
    assert_eq!(first.errors, 0, "retries must absorb every injected panic");
    assert!(
        server.respawns_total() > 0,
        "the fault plan must force at least one respawn"
    );

    let mut client = Client::connect(server.addr()).unwrap();
    let histogram_count = |client: &mut Client, name: &str| -> f64 {
        let metrics =
            parse_json(&client.request_line(r#"{"id":7,"cmd":"metrics"}"#).unwrap()).unwrap();
        assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)));
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let waits =
        |client: &mut Client| -> f64 { histogram_count(client, "serve_request_queue_wait_ns") };

    // Every request line — including the attempts that panicked —
    // observed its queue wait, and those observations survived the
    // respawns that followed.
    let waits_after_first = waits(&mut client);
    assert!(
        waits_after_first >= first.requests as f64,
        "queue-wait observations must survive respawn: saw {waits_after_first}, \
         served {} requests",
        first.requests
    );
    let stages_after_first = histogram_count(&mut client, "engine_chain_coarse_dp_ns");
    assert!(
        stages_after_first > 0.0,
        "engine stage timings must survive respawn"
    );

    // A second faulted round must only add to the histograms: if a
    // respawn swapped in a fresh registry, the counts would shrink.
    let respawns_after_first = server.respawns_total();
    let second = run_loadgen(server.addr(), None, &loadgen).unwrap();
    assert_eq!(second.errors, 0);
    assert!(
        server.respawns_total() > respawns_after_first,
        "the second round must force more respawns"
    );
    let waits_after_second = waits(&mut client);
    assert!(
        waits_after_second >= waits_after_first + second.requests as f64,
        "histograms must grow monotonically across respawns: \
         {waits_after_first} then {waits_after_second}"
    );
    assert!(histogram_count(&mut client, "engine_chain_coarse_dp_ns") >= stages_after_first);
    server.shutdown();
}
