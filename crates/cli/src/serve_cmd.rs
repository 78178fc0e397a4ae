//! `rip serve` / `rip client`: the CLI face of the resident solver
//! service (`rip_serve`).
//!
//! `rip serve` starts the TCP server — `--workers` connection workers
//! over one shared [`Engine`] session — and blocks until a client sends
//! `shutdown`. The edge flags (`--bind`, `--max-conns`,
//! `--timeout-secs`) harden it for
//! non-loopback traffic. `rip client` connects to a running server and
//! either relays raw JSON request lines from stdin, wraps a local
//! `.net`/`.tree` file into a protocol request (`--file`), runs the
//! built-in `--smoke` script (the mixed-command health check CI uses),
//! or sends a single `--shutdown`.

use crate::commands::{CliError, Target};
use rip_core::Engine;
use rip_serve::{
    net_to_json, parse_json, start_server, Client, FaultPlan, Json, Request, RetryPolicy,
    ServeConfig, ServerHandle, TreeEntry,
};
use rip_tech::units::fs_from_ns;
use rip_tech::Technology;
use std::fmt::Write as _;
use std::io::BufRead;

/// Options for `rip serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Interface to bind (`--bind`); loopback unless told otherwise.
    pub bind: String,
    /// TCP port (0 picks an ephemeral port and prints it).
    pub port: u16,
    /// Connection worker threads.
    pub workers: usize,
    /// Concurrent-connection cap (`--max-conns`); 0 = unlimited.
    pub max_conns: usize,
    /// Idle-connection timeout, seconds (`--timeout-secs`); 0 = never.
    pub timeout_secs: u64,
    /// `τ_min` memo LRU bound (entries; 0 = unbounded).
    pub value_cache_cap: usize,
    /// Default drain deadline, seconds (`--drain-secs`), used when a
    /// `drain` request carries no `deadline_ms`.
    pub drain_secs: u64,
    /// Slow-request stderr log threshold, ms (`--log-slow-ms`); 0 =
    /// off.
    pub log_slow_ms: u64,
    /// Deterministic fault injection (the hidden `--fault-*` flags);
    /// chaos testing only.
    pub faults: FaultPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let defaults = ServeConfig::default();
        Self {
            bind: "127.0.0.1".to_string(),
            port: 4817,
            workers: defaults.workers,
            max_conns: defaults.max_conns,
            timeout_secs: 0,
            value_cache_cap: defaults.value_cache_cap,
            drain_secs: defaults.drain_deadline_secs,
            log_slow_ms: defaults.log_slow_ms,
            faults: FaultPlan::none(),
        }
    }
}

/// Starts the server (printing the bound address on stdout immediately)
/// and blocks until a client sends `shutdown`. Returns the session
/// summary.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the bind fails (e.g. port in use).
pub fn cmd_serve(opts: &ServeOptions) -> Result<String, CliError> {
    let config = ServeConfig {
        addr: format!("{}:{}", opts.bind, opts.port),
        workers: opts.workers,
        value_cache_cap: opts.value_cache_cap,
        max_conns: opts.max_conns,
        read_timeout_ms: opts.timeout_secs.saturating_mul(1000),
        drain_deadline_secs: opts.drain_secs,
        log_slow_ms: opts.log_slow_ms,
        faults: opts.faults,
        ..ServeConfig::default()
    };
    let engine = Engine::paper(Technology::generic_180nm());
    let server: ServerHandle = start_server(engine, &config)?;
    // The banner must appear before the (indefinite) blocking join, so
    // scripts can discover the port; everything else the command prints
    // goes through the returned summary as usual.
    println!(
        "rip serve: listening on {} ({} worker(s), 1 shared engine, value cache cap {}, \
         max conns {})",
        server.addr(),
        config.workers,
        config.value_cache_cap,
        if opts.max_conns == 0 {
            "unlimited".to_string()
        } else {
            opts.max_conns.to_string()
        },
    );
    if opts.faults.is_active() {
        println!(
            "rip serve: FAULT INJECTION ACTIVE (panic every {}, delay every {} by {} ms, \
             drop every {}, seed {}) — chaos testing only",
            opts.faults.panic_every,
            opts.faults.delay_every,
            opts.faults.delay_ms,
            opts.faults.drop_every,
            opts.faults.seed,
        );
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let monitor = server.monitor();
    server.join();
    let stats = monitor.state().engine().stats();
    Ok(format!(
        "rip serve: shut down after {} request(s) over {} connection(s) ({} rejected); \
         {} caught panic(s), {} respawn(s); engine cache hit rate {:.1}% \
         ({} promotion(s), {} eviction(s))\n",
        monitor.requests_total(),
        monitor.connections_total(),
        monitor.rejected_conns(),
        monitor.panics_total(),
        monitor.respawns_total(),
        stats.hit_rate() * 100.0,
        stats.promotions,
        stats.evictions,
    ))
}

/// Options for `rip client`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClientOptions {
    /// Run the built-in mixed-command smoke script and fail unless every
    /// response is `ok`.
    pub smoke: bool,
    /// Send a single `metrics` request and print the server's registry
    /// as Prometheus-style text (`--metrics`).
    pub metrics: bool,
    /// Send a single `shutdown` request.
    pub shutdown: bool,
    /// Wrap a local `.net`/`.tree` file into a protocol request
    /// (`--file`); requires a target.
    pub file: Option<String>,
    /// Timing target for `--file` requests.
    pub target: Option<Target>,
    /// Retries per request for transient failures (`--retries`); 0 =
    /// fail fast.
    pub retries: u32,
    /// Base retry backoff, ms (`--backoff-ms`), doubling per retry with
    /// deterministic jitter.
    pub backoff_ms: u64,
}

/// Connects to a running server. Relays JSON request lines from `input`
/// unless `--smoke`, `--shutdown` or `--file` was given.
///
/// # Errors
///
/// Returns [`CliError::Io`] for transport failures,
/// [`CliError::Usage`]/[`CliError::Parse`] for a bad `--file` request,
/// and [`CliError::Protocol`] when a smoke-script or `--file` response
/// is not `ok`.
pub fn cmd_client(
    addr: &str,
    opts: &ClientOptions,
    input: &mut dyn BufRead,
) -> Result<String, CliError> {
    let mut client = Client::connect(addr)?;
    if opts.retries > 0 {
        client = client.with_retry(RetryPolicy::new(opts.retries, opts.backoff_ms));
    }
    if opts.shutdown {
        let response = client.request_line(r#"{"id":0,"cmd":"shutdown"}"#)?;
        return Ok(format!("{response}\n"));
    }
    if opts.metrics {
        return fetch_metrics(&mut client);
    }
    if opts.smoke {
        return run_smoke(&mut client);
    }
    if let Some(path) = &opts.file {
        return send_file(&mut client, path, opts.target);
    }
    // Relay mode streams: each response is printed as it arrives, so an
    // interactive session sees its answer immediately and a transport
    // error later in the stream cannot discard earlier responses.
    use std::io::Write as _;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = client.request_line(line.trim())?;
        println!("{response}");
        let _ = std::io::stdout().flush();
    }
    Ok(String::new())
}

/// Builds the protocol request line for a local `.net`/`.tree` file —
/// the same typed [`Request`] encoding the server parses, so the wire
/// round trip is exact.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a missing target or unrecognized
/// extension, [`CliError::Parse`] for a malformed file.
pub fn file_request_line(path: &str, target: Option<Target>) -> Result<String, CliError> {
    let target = target.ok_or_else(|| {
        CliError::Usage("client --file needs --target-ns or --target-mult".into())
    })?;
    let target = match target {
        Target::Ns(ns) => rip_serve::Target::AbsoluteFs(fs_from_ns(ns)),
        Target::Multiplier(m) => rip_serve::Target::TauMinMultiple(m),
    };
    if !path.ends_with(".tree") && !path.ends_with(".net") {
        return Err(CliError::Usage(format!(
            "client --file needs a .net or .tree path, got {path:?}"
        )));
    }
    let text = std::fs::read_to_string(path)?;
    let request = if path.ends_with(".tree") {
        Request::SolveTree {
            entry: TreeEntry {
                tree: crate::treefile::parse_tree_file(&text)?,
                allowed: None,
            },
            target,
        }
    } else {
        Request::Solve {
            net: crate::netfile::parse_net(&text)?,
            target,
        }
    };
    Ok(request.to_json(Some(&Json::from(1u64))).to_string())
}

/// `rip client --file`: one request wrapping the file, one response
/// line; non-`ok` responses exit nonzero with the server's error.
fn send_file(client: &mut Client, path: &str, target: Option<Target>) -> Result<String, CliError> {
    let line = file_request_line(path, target)?;
    let response = client.request_line(&line)?;
    let value = parse_json(&response)
        .map_err(|e| CliError::Protocol(format!("unparseable response: {e}")))?;
    if value.get("ok") != Some(&Json::Bool(true)) {
        return Err(CliError::Protocol(format!(
            "server rejected {path}: {response}"
        )));
    }
    Ok(format!("{response}\n"))
}

/// `rip client --metrics`: one `metrics` request, rendered as
/// Prometheus-style exposition text (counters and gauges as plain
/// samples; histograms as `_count`/`_sum` plus `quantile`-labelled p50,
/// p90 and p99 samples — log2-bucket upper bounds, see the README's
/// observability section).
fn fetch_metrics(client: &mut Client) -> Result<String, CliError> {
    let response = client.request_line(r#"{"id":0,"cmd":"metrics"}"#)?;
    let value = parse_json(&response)
        .map_err(|e| CliError::Protocol(format!("unparseable response: {e}")))?;
    if value.get("ok") != Some(&Json::Bool(true)) {
        return Err(CliError::Protocol(format!(
            "metrics request failed: {response}"
        )));
    }
    let fields = |key: &str| -> Result<Vec<(String, Json)>, CliError> {
        match value.get(key) {
            Some(Json::Obj(fields)) => Ok(fields.clone()),
            _ => Err(CliError::Protocol(format!(
                "metrics response missing {key:?} object: {response}"
            ))),
        }
    };
    let num = |v: &Json| v.as_f64().unwrap_or(0.0);
    let mut out = String::new();
    for (name, v) in fields("counters")? {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", num(&v));
    }
    for (name, v) in fields("gauges")? {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", num(&v));
    }
    for (name, h) in fields("histograms")? {
        let _ = writeln!(out, "# TYPE {name} summary");
        for q in ["p50", "p90", "p99"] {
            let quantile = format!("0.{}", &q[1..]);
            let _ = writeln!(
                out,
                "{name}{{quantile=\"{quantile}\"}} {}",
                h.get(q).map(num).unwrap_or(0.0)
            );
        }
        let _ = writeln!(out, "{name}_sum {}", h.get("sum").map(num).unwrap_or(0.0));
        let _ = writeln!(
            out,
            "{name}_count {}",
            h.get("count").map(num).unwrap_or(0.0)
        );
    }
    Ok(out)
}

/// The built-in smoke script: one of every command (a `hello`
/// capability check, a small masked `solve_tree`, a `reset_stats` whose
/// follow-up `stats` must report exactly one request, and a final
/// `shutdown`), each response required to be `ok`.
///
/// The middle of the script is padded with extra solves so ten
/// fault-eligible requests flow before the reset: CI's chaos smoke runs
/// this same script against `--fault-panic-every 7` with `--retries 3`
/// and must converge — the injected panic lands on an eligible ordinal
/// the retry path then re-runs. All cross-request assertions
/// (warm-vs-cold, post-reset count) hold across retried connections,
/// because responses are byte-identical wherever they are answered and
/// control requests are never injected.
fn run_smoke(client: &mut Client) -> Result<String, CliError> {
    let nets: Vec<Json> = rip_net::NetGenerator::suite(rip_net::RandomNetConfig::default(), 7, 3)
        .expect("default net distribution is valid")
        .iter()
        .map(net_to_json)
        .collect();
    let solve = |id: u64, net: &Json| {
        Json::obj([
            ("id", Json::from(id)),
            ("cmd", Json::from("solve")),
            ("net", net.clone()),
            ("target_mult", Json::Num(1.4)),
        ])
        .to_string()
    };
    // A deliberately small tree: the hybrid tree pipeline is the most
    // expensive command, and the smoke test gates CI wall-clock.
    let tree = r#"{"driver":120,"nodes":[[0,0.08,0.2,1200,null,false],[1,0.06,0.18,1500,60,false],[1,0.08,0.2,1000,50,true]]}"#;
    let script = vec![
        Json::obj([("id", Json::from(0u64)), ("cmd", Json::from("hello"))]).to_string(),
        Json::obj([("id", Json::from(1u64)), ("cmd", Json::from("stats"))]).to_string(),
        Json::obj([
            ("id", Json::from(2u64)),
            ("cmd", Json::from("tau_min")),
            ("net", nets[0].clone()),
        ])
        .to_string(),
        solve(3, &nets[0]),
        Json::obj([
            ("id", Json::from(4u64)),
            ("cmd", Json::from("batch")),
            ("nets", Json::Arr(nets.clone())),
            ("target_mult", Json::Num(1.4)),
        ])
        .to_string(),
        Json::obj([
            ("id", Json::from(5u64)),
            ("cmd", Json::from("compare")),
            ("nets", Json::Arr(vec![nets[1].clone()])),
            ("target_mult", Json::Num(1.5)),
            ("granularity", Json::Num(20.0)),
        ])
        .to_string(),
        format!(r#"{{"id":6,"cmd":"solve_tree","tree":{tree},"target_mult":1.4}}"#),
        // Repeat the first solve: the warm path must serve from cache.
        solve(7, &nets[0]),
        // Warm padding solves: enough eligible traffic for the chaos
        // smoke's periodic fault to land (and be retried) pre-reset.
        solve(8, &nets[1]),
        solve(9, &nets[2]),
        Json::obj([
            ("id", Json::from(10u64)),
            ("cmd", Json::from("tau_min")),
            ("net", nets[1].clone()),
        ])
        .to_string(),
        solve(11, &nets[2]),
        Json::obj([("id", Json::from(12u64)), ("cmd", Json::from("stats"))]).to_string(),
        // Counter reset: the follow-up stats must report exactly one
        // request (itself). Like the warm-vs-cold check, this assumes a
        // quiet server — the smoke script drives the only connection.
        Json::obj([
            ("id", Json::from(13u64)),
            ("cmd", Json::from("reset_stats")),
        ])
        .to_string(),
        Json::obj([("id", Json::from(14u64)), ("cmd", Json::from("stats"))]).to_string(),
        Json::obj([("id", Json::from(15u64)), ("cmd", Json::from("shutdown"))]).to_string(),
    ];
    let mut out = String::new();
    let mut solve_first = None;
    for line in &script {
        let response = client.request_line(line)?;
        let value = parse_json(&response)
            .map_err(|e| CliError::Protocol(format!("unparseable response: {e}")))?;
        if value.get("ok") != Some(&Json::Bool(true)) {
            return Err(CliError::Protocol(format!(
                "smoke request failed: {line} -> {response}"
            )));
        }
        // Every response carries the protocol version.
        if value.get("proto").and_then(Json::as_f64) != Some(rip_serve::PROTO_VERSION as f64) {
            return Err(CliError::Protocol(format!(
                "response missing proto version: {response}"
            )));
        }
        // Id tokens include the trailing comma so e.g. ":1" never
        // matches ":12".
        // hello must advertise the full command set.
        if line.contains("\"id\":0,")
            && value
                .get("commands")
                .and_then(Json::as_arr)
                .map(<[Json]>::len)
                != Some(rip_serve::COMMANDS.len())
        {
            return Err(CliError::Protocol(format!(
                "hello did not list the command set: {response}"
            )));
        }
        // The warm repeat (id 7) must answer byte-identically to the
        // cold solve (id 3) modulo the echoed id.
        if line.contains("\"id\":3,") {
            solve_first = Some(response.replace("\"id\":3", ""));
        }
        if line.contains("\"id\":7,") {
            let warm = response.replace("\"id\":7", "");
            if solve_first.as_deref() != Some(warm.as_str()) {
                return Err(CliError::Protocol(
                    "warm solve diverged from cold solve".into(),
                ));
            }
        }
        if line.contains("\"id\":13,") && value.get("reset") != Some(&Json::Bool(true)) {
            return Err(CliError::Protocol(
                "reset_stats did not acknowledge the reset".into(),
            ));
        }
        if line.contains("\"id\":14,") && value.get("requests").and_then(Json::as_f64) != Some(1.0)
        {
            return Err(CliError::Protocol(format!(
                "stats after reset_stats should report 1 request, got: {response}"
            )));
        }
        let _ = writeln!(out, "{response}");
    }
    let _ = writeln!(
        out,
        "smoke: {} request(s), all ok ({} attempt(s), {} retrie(s), {} gave up)",
        script.len(),
        client.attempts(),
        client.retries(),
        client.gave_up(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_serve::start_server;

    fn smoke_against(config: &ServeConfig) -> String {
        let server = start_server(Engine::paper(Technology::generic_180nm()), config).unwrap();
        let addr = server.addr().to_string();
        let opts = ClientOptions {
            smoke: true,
            ..ClientOptions::default()
        };
        let out = cmd_client(&addr, &opts, &mut std::io::empty()).unwrap();
        // The smoke script ends in shutdown, so the server drains.
        server.join();
        out
    }

    #[test]
    fn smoke_script_passes_against_an_in_process_server() {
        // The same script CI drives over a real socket: every command
        // (hello, masked solve_tree and reset_stats included) must be
        // ok, the warm solve byte-identical, and the post-reset stats
        // at 1 request.
        let out = smoke_against(&ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        assert!(out.contains("all ok"), "{out}");
        assert!(out.contains("\"reset\":true"), "{out}");
        assert!(out.contains("\"server\":\"rip-serve\""), "{out}");
    }

    #[test]
    fn chaos_smoke_converges_with_retries_under_injected_panics() {
        // CI's chaos step: the same smoke script against a server that
        // panics every 7th eligible request of a connection, driven with
        // --retries 3. The injected panic must surface as a typed
        // internal error, get retried, and the script still end all-ok
        // with its byte-identity and post-reset assertions intact.
        let server = start_server(
            Engine::paper(Technology::generic_180nm()),
            &ServeConfig {
                workers: 2,
                faults: FaultPlan {
                    panic_every: 7,
                    ..FaultPlan::none()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let opts = ClientOptions {
            smoke: true,
            retries: 3,
            backoff_ms: 1,
            ..ClientOptions::default()
        };
        let out = cmd_client(&addr, &opts, &mut std::io::empty()).unwrap();
        assert!(out.contains("all ok"), "{out}");
        // The script is sized so the periodic fault fires: a clean run
        // here would mean the chaos step stopped testing anything.
        assert!(!out.contains("0 retrie(s)"), "no retry happened: {out}");
        assert!(out.contains("0 gave up"), "{out}");
        server.join();
    }

    #[test]
    fn client_file_round_trips_against_rip_solve() {
        // `rip client --file net.net` must answer exactly what the
        // local `rip solve` pipeline computes for the same net and
        // target: same engine semantics through the wire.
        let dir = std::env::temp_dir().join(format!("rip_client_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("chain.net");
        let net_text = "driver 140\nreceiver 60\nsegment 4000 0.08 0.2\nsegment 3000 0.06 0.18\n";
        std::fs::write(&net_path, net_text).unwrap();

        let server = start_server(
            Engine::paper(Technology::generic_180nm()),
            &ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let opts = ClientOptions {
            file: Some(net_path.to_string_lossy().into_owned()),
            target: Some(Target::Multiplier(1.4)),
            ..ClientOptions::default()
        };
        let out = cmd_client(&addr, &opts, &mut std::io::empty()).unwrap();
        let response = parse_json(out.trim()).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{out}");

        // The local solve of the same file.
        let net = crate::netfile::parse_net(net_text).unwrap();
        let engine = Engine::paper(Technology::generic_180nm());
        let target_fs = 1.4 * engine.tau_min(&net);
        let expected = engine.solve(&net, target_fs).unwrap();
        assert_eq!(
            response
                .get("delay_fs")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            expected.solution.delay_fs.to_bits(),
            "wire solve diverged from local rip solve"
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

        // A tree file takes the solve_tree path.
        let tree_path = dir.join("fork.tree");
        std::fs::write(
            &tree_path,
            "driver 120\nnode 0 0.08 0.2 1200\nnode 1 0.06 0.18 1500 sink 60\nnode 1 0.08 0.2 1000 sink 50\n",
        )
        .unwrap();
        let opts = ClientOptions {
            file: Some(tree_path.to_string_lossy().into_owned()),
            target: Some(Target::Multiplier(1.4)),
            ..ClientOptions::default()
        };
        let out = cmd_client(&addr, &opts, &mut std::io::empty()).unwrap();
        let response = parse_json(out.trim()).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{out}");
        assert!(response.get("buffers").is_some(), "{out}");

        // Missing target and unknown extensions are usage errors.
        let opts = ClientOptions {
            file: Some(net_path.to_string_lossy().into_owned()),
            ..ClientOptions::default()
        };
        assert!(matches!(
            cmd_client(&addr, &opts, &mut std::io::empty()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            file_request_line("nets.csv", Some(Target::Multiplier(1.4))),
            Err(CliError::Usage(_))
        ));

        let shutdown = ClientOptions {
            shutdown: true,
            ..ClientOptions::default()
        };
        cmd_client(&addr, &shutdown, &mut std::io::empty()).unwrap();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
