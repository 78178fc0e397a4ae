//! `serve_mixed`: the `rip serve` binary with its default topology,
//! driven over the wire protocol by two closed-loop connections (one
//! per core), each cycling through the benchmark's own request script.
//! Nothing here goes through `rip_serve`'s server, client or loadgen
//! code: the server is a child process, the client is a plain
//! `TcpStream`, and later serve refactors are measured, not broken.

use crate::corpus;
use crate::measure::{
    cpu_ms, host_speed_ms, median, ms, peak_rss_mb, quantile, ratio, Metrics, Report,
    CALIBRATION_REFERENCE_MS,
};
use crate::Spec;
use rip_core::Engine;
use rip_net::{TreeNet, TwoPinNet};
use rip_serve::{net_to_json, parse_json, tree_to_json, Json, ServeState};
use rip_tech::Technology;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop connections (the host's core count).
const CONNECTIONS: usize = 2;
/// Relative timing target of every solve request.
const TARGET_MULT: f64 = 1.4;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Commands of the script, in report order.
const COMMANDS: [&str; 5] = ["solve", "batch", "solve_tree", "tau_min", "stats"];
/// Error codes of the wire protocol, counted separately.
const ERROR_CODES: [&str; 8] = [
    "bad_request",
    "unknown_cmd",
    "solve_failed",
    "busy",
    "backpressure",
    "timeout",
    "internal",
    "shutting_down",
];

struct Scripted {
    line: String,
    cmd: &'static str,
}

/// One connection's script: one round of eight requests per net. A
/// round holds four chain `solve`s, one 3-net `batch`, one masked
/// compact `solve_tree`, one `tau_min` (warm: set-up resolved every
/// net's `τ_min`) and one `stats`. With 7 nets (prime to 3 and 4),
/// every net is solved 4 times, batched 3 times and `tau_min`ed once
/// per cycle whatever the seeded net order, so the order moves the
/// pairing of requests but not the work. Ids are per script slot, so
/// every cycle sends byte-identical lines.
fn script(conn: usize, nets: &[TwoPinNet], trees: &[TreeNet]) -> Vec<Scripted> {
    let n = nets.len();
    (0..8 * n)
        .map(|k| {
            let (round, slot) = (k / 8 + conn, k % 8);
            let id = Json::from((conn * 1000 + k) as u64);
            let net = |i: usize| net_to_json(&nets[i % n]);
            let target = ("target_mult", Json::Num(TARGET_MULT));
            let (cmd, fields) = match slot {
                3 => {
                    let batch = (0..3).map(|j| net(3 * round + j)).collect();
                    ("batch", vec![("nets", Json::Arr(batch)), target])
                }
                5 => {
                    let tree = &trees[round % trees.len()];
                    ("solve_tree", vec![("tree", tree_to_json(tree)), target])
                }
                6 => ("tau_min", vec![("net", net(round))]),
                7 => ("stats", vec![]),
                // Slots 0, 1, 2 and 4: the q-th solve of the round.
                _ => {
                    let q = [0, 1, 2, 0, 3][slot];
                    ("solve", vec![("net", net(4 * round + q)), target])
                }
            };
            let mut all = vec![("id", id), ("cmd", Json::from(cmd))];
            all.extend(fields);
            Scripted {
                line: Json::obj(all).to_string(),
                cmd,
            }
        })
        .collect()
}

/// A running `rip serve` child: killed and reaped on drop, so no error
/// path can leave it behind.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(rip: &Path) -> Result<Server, String> {
        let mut child = Command::new(rip)
            .args(["serve", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rip.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let addr = banner
            .split_once("listening on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .map(str::to_string);
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        server.addr = addr.ok_or_else(|| format!("unexpected serve banner {banner:?}"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self, conns: &mut [Conn]) -> Result<(), String> {
        conns[0].request(r#"{"cmd":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let mut rest = String::new();
                let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("rip serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("rip serve did not exit after shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One protocol connection: newline-delimited JSON over TCP.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One answered request of the timed phase.
struct Answer {
    slot: usize,
    ms: f64,
    /// Completion time, seconds into the phase.
    done_s: f64,
    response: String,
}

/// Closed loop: every connection sends its next scripted request as
/// soon as the previous answer arrives, cycling its script, until
/// `seconds` have passed. Returns each connection's answers and the
/// timed wall-clock.
fn drive(
    conns: &mut [Conn],
    scripts: &[Vec<Scripted>],
    seconds: f64,
) -> Result<(Vec<Vec<Answer>>, f64), String> {
    let start = Instant::now();
    let answers = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(scripts)
            .map(|(conn, script)| {
                s.spawn(move || -> Result<Vec<Answer>, String> {
                    let mut answers = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let slot = answers.len() % script.len();
                        let t = Instant::now();
                        let response = conn.request(&script[slot].line)?;
                        answers.push(Answer {
                            slot,
                            ms: ms(t.elapsed()),
                            done_s: start.elapsed().as_secs_f64(),
                            response,
                        });
                    }
                    Ok(answers)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((answers, start.elapsed().as_secs_f64()))
}

/// [`drive`] between two host calibrations; also returns their mean.
fn calibrated_drive(
    conns: &mut [Conn],
    scripts: &[Vec<Scripted>],
    seconds: f64,
) -> Result<(Vec<Vec<Answer>>, f64, f64), String> {
    let before = host_speed_ms()?;
    let (answers, elapsed) = drive(conns, scripts, seconds)?;
    Ok((answers, elapsed, (before + host_speed_ms()?) / 2.0))
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, key| d.get(key))
}

pub fn serve_mixed(spec: &Spec, rip: &Path) -> Result<Report, String> {
    let panel = corpus::net_panel()?;
    let order = corpus::shuffled(panel.len(), spec.seed);
    let nets: Vec<TwoPinNet> = order.iter().map(|&i| panel[i].clone()).collect();
    let trees = corpus::compact_trees()?;
    let scripts: Vec<Vec<Scripted>> = (0..CONNECTIONS).map(|c| script(c, &nets, &trees)).collect();
    let mut h = corpus::Fnv::default();
    scripts
        .iter()
        .flatten()
        .for_each(|r| h.bytes(r.line.as_bytes()));
    spec.announce(&h.hex(), &order);

    let mut setup = Vec::new();
    let mut setup_peak_mb = Vec::new();
    let mut live: Option<SetUp> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, mut conns, _, _)) = live.take() {
            Server::stop(server, &mut conns)?;
        }
        let t = Instant::now();
        let up = set_up(rip, &nets)?;
        setup.push(t.elapsed().as_secs_f64());
        setup_peak_mb.push(up.3);
        live = Some(up);
    }
    let (mut server, mut conns, _, _) = live.expect("at least one set-up");

    // A traced run splits its time between an untraced and a traced
    // phase.
    let seconds = if spec.trace {
        spec.seconds / 2.0
    } else {
        spec.seconds
    };
    let (answers, elapsed, calib_ms) = calibrated_drive(&mut conns, &scripts, seconds)?;
    let slowdown = calib_ms / CALIBRATION_REFERENCE_MS;
    let mut metrics = Metrics::default();
    let mut phases = Vec::new();
    if spec.trace {
        // The traced phase runs on a fresh server, so its caches start
        // as cold as the untraced phase's.
        let untraced_tput = median(&slices(&answers, elapsed).rates) * slowdown;
        Server::stop(server, &mut conns)?;
        let tau_ms;
        (server, conns, tau_ms, _) = set_up(rip, &nets)?;
        let cpu_before = cpu_ms(server.pid());
        let (traced, elapsed, calib_ms) = calibrated_drive(&mut conns, &scripts, seconds)?;
        let cpu = cpu_ms(server.pid()) - cpu_before;
        let snapshot = parse_json(&conns[0].request(r#"{"cmd":"metrics"}"#)?)
            .map_err(|e| format!("metrics response: {e}"))?;
        let stats = parse_json(&conns[0].request(r#"{"cmd":"stats"}"#)?)
            .map_err(|e| format!("stats response: {e}"))?;
        let layers = Layers {
            scripts: &scripts,
            answers: &traced,
            snapshot: &snapshot,
            stats: &stats,
            server_cpu_ms: cpu,
            tau_ms: median(&tau_ms),
            untraced_tput,
            elapsed,
            slowdown: calib_ms / CALIBRATION_REFERENCE_MS,
            peak_mb: peak_rss_mb(Some(server.pid())),
        };
        layers.report(&mut metrics);
        phases.push(traced);
    } else {
        let slices = slices(&answers, elapsed);
        eprintln!(
            "raw: throughput {:.4}/s, p50 {:.3} ms, calibration {calib_ms:.1} ms",
            median(&slices.rates),
            median(&slices.p50s)
        );
        metrics.put("setup_s", median(&setup) / slowdown, "s");
        metrics.put("throughput_per_s", median(&slices.rates) * slowdown, "1/s");
        metrics.put("latency_p50_ms", median(&slices.p50s) / slowdown, "ms");
        metrics.put("latency_p95_ms", median(&slices.p95s) / slowdown, "ms");
        metrics.put("peak_rss_mb", median(&setup_peak_mb), "MB");
        eprintln!(
            "set-up peak RSS {setup_peak_mb:?} MB; after load {:.1} MB",
            peak_rss_mb(Some(server.pid()))
        );
    }
    phases.push(answers);
    Server::stop(server, &mut conns)?;

    // Correctness, outside every timing: byte-compare each deterministic
    // answer with an in-process engine's rendering of the same line.
    let oracle = ServeState::new(Engine::paper(Technology::generic_180nm()));
    let mut expected: HashMap<&str, String> = HashMap::new();
    for script in &scripts {
        for req in script.iter().filter(|r| r.cmd != "stats") {
            expected.insert(&req.line, oracle.handle_line(&req.line).0.to_string());
        }
    }
    // Σ width over the distinct solves (every net and tree of the panel
    // is solved in every script), so the seeded order cannot move it.
    let target = || ("target_mult", Json::Num(TARGET_MULT));
    let distinct = nets
        .iter()
        .map(|n| {
            Json::obj([
                ("cmd", Json::from("solve")),
                ("net", net_to_json(n)),
                target(),
            ])
        })
        .chain(trees.iter().map(|t| {
            Json::obj([
                ("cmd", Json::from("solve_tree")),
                ("tree", tree_to_json(t)),
                target(),
            ])
        }));
    let total_width: f64 = distinct
        .map(|line| oracle.handle_line(&line.to_string()).0)
        .filter_map(|doc| doc.get("total_width").and_then(Json::as_f64))
        .sum();
    let (mut attempted, mut failed, mut error) = (0u64, 0u64, None);
    for phase in &phases {
        for (script, a) in scripts
            .iter()
            .zip(phase)
            .flat_map(|(s, p)| p.iter().map(move |a| (s, a)))
        {
            attempted += 1;
            let req = &script[a.slot];
            let ok = a.response.contains(r#""ok":true"#);
            let matches = expected
                .get(req.line.as_str())
                .map_or(ok, |e| *e == a.response);
            if !ok {
                failed += 1;
            }
            if !matches && error.is_none() {
                error = Some(format!("{} response differs: {}", req.cmd, a.response));
            }
        }
    }
    if let Some(e) = &error {
        eprintln!("correctness check failed: {e}");
    }
    if spec.trace {
        metrics.put(
            "run.error_rate",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
    } else {
        metrics.put("total_width_u", total_width, "u");
    }
    Ok(Report {
        correct: error.is_none() && failed == 0,
        attempted,
        failed,
        metrics,
        calib_ms,
    })
}

/// Set-up: server start, connections, `hello`, a warm `τ_min` for
/// every net, and one batch of every net sent on both connections at
/// once, which fills the engine's caches and its DP scratch pool. Ends
/// with `reset_stats`, so the server's counters cover only what
/// follows. The server's peak RSS is read here: under the timed load it
/// grows by an amount that depends on how requests and batch threads
/// interleave.
fn set_up(rip: &Path, nets: &[TwoPinNet]) -> Result<SetUp, String> {
    let server = Server::start(rip)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    expect_ok(&conns[0].request(r#"{"id":0,"cmd":"hello"}"#)?)?;
    let mut tau_ms = Vec::new();
    for net in nets {
        let line = Json::obj([("cmd", Json::from("tau_min")), ("net", net_to_json(net))]);
        let t = Instant::now();
        expect_ok(&conns[0].request(&line.to_string())?)?;
        tau_ms.push(ms(t.elapsed()));
    }
    let batch = Json::obj([
        ("cmd", Json::from("batch")),
        ("nets", Json::Arr(nets.iter().map(net_to_json).collect())),
        ("target_mult", Json::Num(TARGET_MULT)),
    ])
    .to_string();
    std::thread::scope(|s| {
        let sent: Vec<_> = conns
            .iter_mut()
            .map(|conn| s.spawn(|| conn.request(&batch)))
            .collect();
        sent.into_iter()
            .try_for_each(|h| expect_ok(&h.join().expect("client thread panicked")?))
    })?;
    expect_ok(&conns[0].request(r#"{"cmd":"reset_stats"}"#)?)?;
    let peak_mb = peak_rss_mb(Some(server.pid()));
    Ok((server, conns, tau_ms, peak_mb))
}

/// A set-up server, its connections, each `τ_min`'s client-side time
/// and the server's peak RSS after set-up.
type SetUp = (Server, Vec<Conn>, Vec<f64>, f64);

/// Time slices the timed phase is cut into; each figure is the median
/// over slices, so one slow stretch of a shared host moves one slice,
/// not the figure.
const SLICES: usize = 3;

/// Per-slice request rate and exact client-side p50 and p95.
struct Slices {
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p95s: Vec<f64>,
}

fn slices(answers: &[Vec<Answer>], elapsed: f64) -> Slices {
    let width = elapsed / SLICES as f64;
    let mut out = Slices {
        rates: Vec::new(),
        p50s: Vec::new(),
        p95s: Vec::new(),
    };
    for k in 0..SLICES {
        let in_slice = |a: &&Answer| ((a.done_s / width) as usize).min(SLICES - 1) == k;
        let ms: Vec<f64> = answers
            .iter()
            .flatten()
            .filter(in_slice)
            .map(|a| a.ms)
            .collect();
        out.rates.push(ms.len() as f64 / width);
        out.p50s.push(median(&ms));
        out.p95s.push(quantile(&ms, 0.95));
    }
    out
}

fn expect_ok(response: &str) -> Result<(), String> {
    if response.contains(r#""ok":true"#) {
        Ok(())
    } else {
        Err(format!("set-up request failed: {response}"))
    }
}

/// Zeros for the serve figures on a workload that bypasses `rip_serve`.
pub fn serve_absent(metrics: &mut Metrics) {
    for cmd in COMMANDS {
        metrics.put(format!("serve.rtt_ms.{cmd}"), 0.0, "ms");
    }
    for name in [
        "serve.queue_wait_ms",
        "serve.solve_ms",
        "serve.encode_write_ms",
        "serve.edge_self_ms",
        "serve.server_cpu_ms_per_request",
    ] {
        metrics.put(name, 0.0, "ms");
    }
    metrics.put("serve.requests", 0.0, "count");
    metrics.put("serve.errors", 0.0, "count");
    for code in ERROR_CODES {
        metrics.put(format!("serve.errors.{code}"), 0.0, "count");
    }
}

/// Everything the traced serve run reads: client timings, the server's
/// `metrics` and `stats` answers, and `/proc/<pid>`.
struct Layers<'a> {
    scripts: &'a [Vec<Scripted>],
    answers: &'a [Vec<Answer>],
    snapshot: &'a Json,
    stats: &'a Json,
    server_cpu_ms: f64,
    tau_ms: f64,
    untraced_tput: f64,
    elapsed: f64,
    /// The traced phase's host calibration over the reference.
    slowdown: f64,
    peak_mb: f64,
}

impl Layers<'_> {
    /// Exact total of one server histogram, ms.
    fn hist_ms(&self, name: &str) -> f64 {
        field(self.snapshot, &["histograms", name, "sum"])
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            / 1e6
    }

    fn hist_mean_ns(&self, name: &str) -> f64 {
        let get = |k| {
            field(self.snapshot, &["histograms", name, k])
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        ratio(get("sum"), get("count"))
    }

    fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn report(&self, metrics: &mut Metrics) {
        let rtts: Vec<(&str, f64)> = self
            .scripts
            .iter()
            .zip(self.answers)
            .flat_map(|(script, answers)| answers.iter().map(|a| (script[a.slot].cmd, a.ms)))
            .collect();
        let requests = rtts.len() as f64;
        let per = |x: f64| ratio(x, requests);
        let all: Vec<f64> = rtts.iter().map(|r| r.1).collect();

        let chain_fine = self.hist_ms("engine_chain_fine_ns");
        let chain_coarse = self.hist_ms("engine_chain_coarse_dp_ns");
        let chain_refine = self.hist_ms("engine_chain_refine_ns");
        let grid = self.hist_ms("engine_chain_grid_ns");
        let tree_fine = self.hist_ms("engine_tree_fine_dp_ns");
        let tree_coarse = self.hist_ms("engine_tree_coarse_dp_ns");
        let trim = self.hist_ms("engine_tree_trim_ns");
        let subdivide = self.hist_ms("engine_tree_subdivide_coarse_ns");
        let window = self.hist_ms("engine_tree_window_gen_ns");
        for (name, value, unit) in [
            ("dp.tree_fine_ms", per(tree_fine), "ms"),
            ("dp.tree_coarse_ms", per(tree_coarse), "ms"),
            ("dp.tree_options_created", 0.0, "count"),
            ("dp.tree_options_peak", 0.0, "count"),
            ("dp.tree_options_per_s", 0.0, "1/s"),
            ("dp.tree_trace_nodes", 0.0, "count"),
            ("dp.tree_trace_per_option", 0.0, "ratio"),
            ("dp.chain_fine_ms", per(chain_fine), "ms"),
            ("dp.chain_coarse_ms", per(chain_coarse), "ms"),
            ("dp.chain_options_created", 0.0, "count"),
            ("dp.chain_trace_nodes", 0.0, "count"),
            ("dp.chain_options_per_s", 0.0, "1/s"),
            ("refine.chain_ms", per(chain_refine), "ms"),
            ("refine.iterations", 0.0, "count"),
            ("refine.moves_applied", 0.0, "count"),
            ("refine.tree_trim_ms", per(trim), "ms"),
            ("delay.grid_ms", per(grid), "ms"),
            ("delay.tree_subdivide_ms", per(subdivide), "ms"),
        ] {
            metrics.put(name, value, unit);
        }
        let solve = self.hist_ms("serve_request_solve_ns");
        let stages = chain_fine
            + chain_coarse
            + chain_refine
            + grid
            + tree_fine
            + tree_coarse
            + trim
            + subdivide
            + window;
        metrics.put("core.solve_ms", per(solve), "ms");
        metrics.put("core.self_ms", per(solve - stages), "ms");
        metrics.put("core.stage_coverage_pct", 100.0 * ratio(stages, solve), "%");
        metrics.put("core.tau_min_ms", self.tau_ms, "ms");
        metrics.put("core.cache_hit_rate", self.stat("hit_rate"), "ratio");
        metrics.put("core.cache_hits", per(self.stat("hits")), "count");
        metrics.put("core.cache_misses", per(self.stat("misses")), "count");
        metrics.put("core.evictions", per(self.stat("evictions")), "count");
        metrics.put(
            "core.cache_hit_ns_mean",
            self.hist_mean_ns("engine_cache_hit_ns"),
            "ns",
        );
        metrics.put(
            "core.cache_miss_ns_mean",
            self.hist_mean_ns("engine_cache_miss_ns"),
            "ns",
        );
        metrics.put("core.window_gen_ms", per(window), "ms");
        metrics.put("core.fine_candidates", 0.0, "count");
        metrics.put("core.fine_library_widths", 0.0, "count");

        for cmd in COMMANDS {
            let of_cmd: Vec<f64> = rtts.iter().filter(|r| r.0 == cmd).map(|r| r.1).collect();
            metrics.put(format!("serve.rtt_ms.{cmd}"), median(&of_cmd), "ms");
        }
        let queue = self.hist_mean_ns("serve_request_queue_wait_ns") / 1e6;
        let server_solve = self.hist_mean_ns("serve_request_solve_ns") / 1e6;
        let encode = self.hist_mean_ns("serve_encode_write_ns") / 1e6;
        metrics.put("serve.queue_wait_ms", queue, "ms");
        metrics.put("serve.solve_ms", server_solve, "ms");
        metrics.put("serve.encode_write_ms", encode, "ms");
        let rtt_mean = per(all.iter().sum());
        metrics.put(
            "serve.edge_self_ms",
            rtt_mean - queue - server_solve - encode,
            "ms",
        );
        metrics.put(
            "serve.server_cpu_ms_per_request",
            per(self.server_cpu_ms),
            "ms",
        );
        metrics.put("serve.requests", requests, "count");
        let codes: Vec<&str> = self
            .answers
            .iter()
            .flatten()
            .filter_map(|a| a.response.split_once(r#""code":""#))
            .filter_map(|(_, rest)| rest.split('"').next())
            .collect();
        metrics.put("serve.errors", codes.len() as f64, "count");
        for code in ERROR_CODES {
            let n = codes.iter().filter(|c| **c == code).count();
            metrics.put(format!("serve.errors.{code}"), n as f64, "count");
        }

        metrics.put("mem.item_peak_rss_mb_max", self.peak_mb, "MB");
        metrics.put("item.slowest_ms", quantile(&all, 1.0), "ms");
        metrics.put("item.p90_ms", quantile(&all, 0.9), "ms");
        let traced_tput = median(&slices(self.answers, self.elapsed).rates) * self.slowdown;
        metrics.put(
            "trace.overhead_pct",
            100.0 * ratio(self.untraced_tput - traced_tput, self.untraced_tput),
            "%",
        );
    }
}
