//! The service protocol: newline-delimited JSON requests parsed into
//! typed [`Request`] values, dispatched over an [`Engine`], and
//! answered as typed [`Response`] values.
//!
//! One request per line, one response per line. Every request is a JSON
//! object with a `cmd` field and an optional `id` (echoed back
//! verbatim, so clients can pipeline). Nets and trees travel as
//! structured JSON — the service layer deliberately does not depend on
//! the CLI's `.net`/`.tree` text formats:
//!
//! ```text
//! NET  = {"driver":140,"receiver":60,"segments":[[len_um,r,c],...],"zones":[[s,e],...]}
//! TREE = {"driver":120,"nodes":[[parent,r,c,len_um,sink_w|null,blocked],...]}
//! ```
//!
//! (`driver`/`receiver`/`zones` are optional; `nodes` excludes the
//! implicit root 0 and appends nodes 1, 2, ... in order, parents before
//! children.) A tree node's `blocked` flag is **binding**: the hybrid
//! tree pipeline never places a buffer on a blocked node, and
//! `target_mult` resolves against the *masked* tree `τ_min`. Wherever a
//! tree appears — `solve_tree`, or a `batch`/`compare` tree entry — an
//! optional `allowed` field (an array of booleans with one entry per
//! node *including* the root; the root entry is ignored) overrides the
//! per-node `blocked` flags for that request, so clients can sweep
//! masks without re-encoding the tree; the two spellings of one mask
//! answer byte-identically. Exactly one of `target_fs`, `target_ns` or
//! `target_mult` selects the timing target; `target_mult` multiplies
//! the net's cached `τ_min`.
//!
//! `id` may be any JSON value and is echoed back. Note that JSON
//! numbers travel as `f64`, so integral numeric ids beyond 2^53 lose
//! precision on the echo — clients needing wider ids should send them
//! as strings.
//!
//! | `cmd`        | request fields                  | response fields                   |
//! |--------------|---------------------------------|-----------------------------------|
//! | `solve`      | `net`, target                   | `target_fs`, `delay_fs`, `total_width`, `repeaters: [[x_um, w_u], ...]` |
//! | `solve_tree` | `tree`, target, opt. `allowed`  | `target_fs`, `delay_fs`, `total_width`, `buffers: [[node, w_u], ...]` |
//! | `batch`      | `nets` and/or `trees`, target   | `results: [per-net result or error, ...]`, `tree_results: [...]` |
//! | `compare`    | `nets`/`trees`, target, `granularity` | `rows`/`tree_rows: [[base_w\|null, rip_w], ...]`, savings summary |
//! | `tau_min`    | `net`                           | `tau_min_fs`                      |
//! | `hello`      | —                               | server capabilities (workers, caps, version, commands) |
//! | `stats`      | —                               | engine + server counters          |
//! | `metrics`    | —                               | `histograms: {name: {count, sum, p50, p90, p99, buckets}}` |
//! | `reset_stats`| —                               | the pre-reset counters, `reset: true`; counters rezero |
//! | `drain`      | opt. `deadline_ms`              | `draining: true`, `deadline_ms`; the server stops taking work, answers what is in flight, then stops |
//! | `shutdown`   | —                               | `stopping: true`, then the server drains |
//!
//! A `batch`/`compare` tree entry is either a bare `TREE` object or
//! `{"tree": TREE, "allowed": [...]}` with the per-request mask
//! override.
//!
//! Every response carries `ok` and `proto` (the protocol version,
//! [`PROTO_VERSION`]); failures carry a machine-readable `code`
//! ([`ErrorCode`]) next to the human-readable `error`. Responses are
//! rendered deterministically — same request, same engine
//! configuration, same bytes — which is what the loadgen's
//! byte-identity check relies on ([`crate::loadgen`]).

use crate::json::{parse_json, Json};
use rip_core::{
    summarize_savings, BaselineConfig, BatchTarget, DpError, Engine, SavingsSummary, TreeRipConfig,
};
use rip_delay::RcTree;
use rip_net::{NetBuilder, Segment, TreeNet, TreeNetNode, TwoPinNet};
use rip_tech::units::fs_from_ns;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the wire protocol, carried as `proto` in every response.
/// Bumped when a response shape changes incompatibly.
pub const PROTO_VERSION: u64 = 1;

/// Every command the protocol knows, sorted — rendered into `hello`
/// responses and unknown-command errors.
pub const COMMANDS: &[&str] = &[
    "batch",
    "compare",
    "drain",
    "hello",
    "metrics",
    "reset_stats",
    "shutdown",
    "solve",
    "solve_tree",
    "stats",
    "tau_min",
];

/// Machine-readable failure category of an error response (`code`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse or validate.
    BadRequest,
    /// The `cmd` is not one of [`COMMANDS`].
    UnknownCmd,
    /// The request was valid but the solver failed (e.g. infeasible
    /// target).
    SolveFailed,
    /// The server is at its connection limit (`--max-conns`); retry
    /// later or against another replica.
    Busy,
    /// The connection sat idle past the server's read timeout.
    Timeout,
    /// The handler panicked; the worker was respawned with a fresh
    /// engine and the request may be retried.
    Internal,
    /// The server is draining (a `drain` request or shutdown is in
    /// progress); no new work is accepted.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownCmd => "unknown_cmd",
            ErrorCode::SolveFailed => "solve_failed",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// Parses a wire spelling back into the typed code (inverse of
    /// [`ErrorCode::as_str`]) — how the client's retry policy reads a
    /// server rejection.
    pub fn from_wire(code: &str) -> Option<Self> {
        match code {
            "bad_request" => Some(ErrorCode::BadRequest),
            "unknown_cmd" => Some(ErrorCode::UnknownCmd),
            "solve_failed" => Some(ErrorCode::SolveFailed),
            "busy" => Some(ErrorCode::Busy),
            "timeout" => Some(ErrorCode::Timeout),
            "internal" => Some(ErrorCode::Internal),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            _ => None,
        }
    }

    /// `true` when a client may retry the identical request and expect
    /// it to succeed: transient capacity (`busy`), pacing (`timeout`)
    /// and supervised crashes (`internal`). Request
    /// defects (`bad_request`, `unknown_cmd`, `solve_failed`) and a
    /// draining server (`shutting_down`) are final.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Busy | ErrorCode::Timeout | ErrorCode::Internal
        )
    }
}

/// Why a request line failed to parse into a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// [`ErrorCode::BadRequest`] or [`ErrorCode::UnknownCmd`].
    pub code: ErrorCode,
    /// Human-readable reason, rendered as the response's `error`.
    pub reason: String,
}

impl RequestError {
    fn bad(reason: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::BadRequest,
            reason: reason.into(),
        }
    }
}

impl From<String> for RequestError {
    fn from(reason: String) -> Self {
        RequestError::bad(reason)
    }
}

impl From<&str> for RequestError {
    fn from(reason: &str) -> Self {
        RequestError::bad(reason)
    }
}

/// A request-level timing target (resolved against the engine's cached
/// `τ_min` when relative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Absolute target, fs (`target_fs`, or `target_ns` × 10⁶).
    AbsoluteFs(f64),
    /// Multiplier over the net's (masked) `τ_min` (`target_mult`).
    TauMinMultiple(f64),
}

/// One tree in a `batch`/`compare` request: the tree plus an optional
/// request-level `allowed` override of its `blocked` flags (exactly the
/// `solve_tree` override, per entry).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeEntry {
    /// The tree (its `blocked` flags are the default mask).
    pub tree: TreeNet,
    /// Validated mask override (one entry per node including the root),
    /// or `None` to use the tree's own `blocked` flags.
    pub allowed: Option<Vec<bool>>,
}

impl TreeEntry {
    /// The binding buffer-legality mask of this entry: the override
    /// when present, the tree's own `blocked` flags otherwise. The two
    /// spellings of one mask produce byte-identical responses.
    pub fn mask(&self) -> Vec<bool> {
        self.allowed
            .clone()
            .unwrap_or_else(|| self.tree.allowed_mask())
    }
}

/// A parsed, validated protocol request — what the server dispatches;
/// no JSON survives past this point.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `solve`: hybrid pipeline on one chain net.
    Solve {
        /// The net to solve.
        net: TwoPinNet,
        /// The timing target.
        target: Target,
    },
    /// `solve_tree`: hybrid tree pipeline on one (possibly masked) tree.
    SolveTree {
        /// The tree to solve and its optional mask override (the
        /// tree's `blocked` flags are binding otherwise).
        entry: TreeEntry,
        /// The timing target (`target_mult` resolves against the masked
        /// `τ_min`).
        target: Target,
    },
    /// `batch`: many nets and/or trees, one target rule, per-item
    /// results.
    Batch {
        /// Chain nets (possibly empty when `trees` is not).
        nets: Vec<TwoPinNet>,
        /// Tree entries (possibly empty when `nets` is not).
        trees: Vec<TreeEntry>,
        /// The shared target rule.
        target: Target,
    },
    /// `compare`: RIP vs the fixed-library baseline DP over a batch.
    Compare {
        /// Chain nets (possibly empty when `trees` is not).
        nets: Vec<TwoPinNet>,
        /// Tree entries (possibly empty when `nets` is not).
        trees: Vec<TreeEntry>,
        /// The shared target rule.
        target: Target,
        /// Baseline library granularity, u (paper Table 1).
        granularity: f64,
    },
    /// `tau_min`: minimum achievable delay of one net.
    TauMin {
        /// The net.
        net: TwoPinNet,
    },
    /// `hello`: server capabilities.
    Hello,
    /// `stats`: engine + server counters.
    Stats,
    /// `metrics`: the full metrics registry (stage-latency and
    /// request-latency histograms) as JSON.
    Metrics,
    /// `reset_stats`: render the counters, then rezero them.
    ResetStats,
    /// `drain`: stop accepting work, answer what is in flight, then
    /// stop — bounded by a deadline.
    Drain {
        /// Drain deadline override, ms (`deadline_ms`); `None` uses the
        /// server's configured `--drain-secs`.
        deadline_ms: Option<u64>,
    },
    /// `shutdown`: acknowledge, then drain the server.
    Shutdown,
}

impl Request {
    /// The wire `cmd` of this request.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Solve { .. } => "solve",
            Request::SolveTree { .. } => "solve_tree",
            Request::Batch { .. } => "batch",
            Request::Compare { .. } => "compare",
            Request::TauMin { .. } => "tau_min",
            Request::Hello => "hello",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::ResetStats => "reset_stats",
            Request::Drain { .. } => "drain",
            Request::Shutdown => "shutdown",
        }
    }

    /// `true` for control-plane requests: `hello`, `stats`, `metrics`,
    /// `reset_stats`, `drain` and `shutdown`. The edge answers these
    /// itself (even while draining) and the fault injector never
    /// targets them — operators must be able to observe and stop a
    /// degraded server.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Request::Hello
                | Request::Stats
                | Request::Metrics
                | Request::ResetStats
                | Request::Drain { .. }
                | Request::Shutdown
        )
    }

    /// Parses a request object (one decoded line) into a typed request.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] naming the offending field; unknown
    /// commands get [`ErrorCode::UnknownCmd`] with the received command
    /// and the list of known ones.
    pub fn from_json(request: &Json) -> Result<Request, RequestError> {
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request needs a string 'cmd'")?;
        match cmd {
            "solve" => Ok(Request::Solve {
                net: net_from_json(request.get("net").ok_or("solve needs a 'net'")?)?,
                target: parse_target(request)?,
            }),
            "tau_min" => Ok(Request::TauMin {
                net: net_from_json(request.get("net").ok_or("tau_min needs a 'net'")?)?,
            }),
            "solve_tree" => Ok(Request::SolveTree {
                entry: tree_entry_from_json(
                    request.get("tree").ok_or("solve_tree needs a 'tree'")?,
                    request.get("allowed"),
                )?,
                target: parse_target(request)?,
            }),
            "batch" => {
                let (nets, trees) = nets_and_trees(request, "batch")?;
                Ok(Request::Batch {
                    nets,
                    trees,
                    target: parse_target(request)?,
                })
            }
            "compare" => {
                let (nets, trees) = nets_and_trees(request, "compare")?;
                let granularity = request
                    .get("granularity")
                    .and_then(Json::as_f64)
                    .unwrap_or(20.0);
                if !(granularity.is_finite() && granularity > 0.0) {
                    return Err("granularity must be positive".into());
                }
                Ok(Request::Compare {
                    nets,
                    trees,
                    target: parse_target(request)?,
                    granularity,
                })
            }
            "hello" => Ok(Request::Hello),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "reset_stats" => Ok(Request::ResetStats),
            "drain" => {
                let deadline_ms = match request.get("deadline_ms") {
                    None => None,
                    Some(value) => {
                        let ms = value
                            .as_f64()
                            .filter(|ms| ms.is_finite() && *ms >= 0.0)
                            .ok_or("deadline_ms must be a non-negative number")?;
                        Some(ms as u64)
                    }
                };
                Ok(Request::Drain { deadline_ms })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(RequestError {
                code: ErrorCode::UnknownCmd,
                reason: format!(
                    "unknown cmd {other:?}; known commands: {}",
                    COMMANDS.join(", ")
                ),
            }),
        }
    }

    /// Encodes the request back into its wire object (inverse of
    /// [`Request::from_json`] — the encode/decode round trip is
    /// property-tested). Targets encode canonically (`target_fs` /
    /// `target_mult`; a parsed `target_ns` re-encodes as `target_fs`).
    pub fn to_json(&self, id: Option<&Json>) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(id) = id {
            fields.push(("id".to_string(), id.clone()));
        }
        fields.push(("cmd".to_string(), Json::from(self.cmd())));
        let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
        match self {
            Request::Solve { net, target } => {
                push("net", net_to_json(net));
                push_target(&mut push, *target);
            }
            Request::TauMin { net } => push("net", net_to_json(net)),
            Request::SolveTree { entry, target } => {
                push("tree", tree_to_json(&entry.tree));
                push_target(&mut push, *target);
                if let Some(mask) = &entry.allowed {
                    push(
                        "allowed",
                        Json::Arr(mask.iter().copied().map(Json::Bool).collect()),
                    );
                }
            }
            Request::Batch {
                nets,
                trees,
                target,
            } => {
                push_nets_and_trees(&mut push, nets, trees);
                push_target(&mut push, *target);
            }
            Request::Compare {
                nets,
                trees,
                target,
                granularity,
            } => {
                push_nets_and_trees(&mut push, nets, trees);
                push_target(&mut push, *target);
                push("granularity", Json::Num(*granularity));
            }
            Request::Drain { deadline_ms } => {
                if let Some(ms) = deadline_ms {
                    push("deadline_ms", Json::from(*ms));
                }
            }
            Request::Hello
            | Request::Stats
            | Request::Metrics
            | Request::ResetStats
            | Request::Shutdown => {}
        }
        Json::Obj(fields)
    }
}

fn push_target(push: &mut impl FnMut(&str, Json), target: Target) {
    match target {
        Target::AbsoluteFs(fs) => push("target_fs", Json::Num(fs)),
        Target::TauMinMultiple(m) => push("target_mult", Json::Num(m)),
    }
}

fn push_nets_and_trees(push: &mut impl FnMut(&str, Json), nets: &[TwoPinNet], trees: &[TreeEntry]) {
    if !nets.is_empty() {
        push("nets", Json::Arr(nets.iter().map(net_to_json).collect()));
    }
    if !trees.is_empty() {
        push(
            "trees",
            Json::Arr(
                trees
                    .iter()
                    .map(|entry| {
                        let mut fields = vec![("tree", tree_to_json(&entry.tree))];
                        if let Some(mask) = &entry.allowed {
                            fields.push((
                                "allowed",
                                Json::Arr(mask.iter().copied().map(Json::Bool).collect()),
                            ));
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        );
    }
}

/// Splits one raw request line into its echoed `id` and the typed
/// parse result — the server's front door ([`ServeState::handle_line`]
/// is exactly this followed
/// by [`ServeState::handle_request`] and [`Response::render`]).
pub fn parse_line(line: &str) -> (Json, Result<Request, RequestError>) {
    let request = match parse_json(line) {
        Ok(request) => request,
        Err(e) => return (Json::Null, Err(RequestError::bad(e.to_string()))),
    };
    let id = request.get("id").cloned().unwrap_or(Json::Null);
    (id, Request::from_json(&request))
}

/// One solved chain net, as rendered into `solve` responses and
/// `batch` result entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The resolved absolute target, fs.
    pub target_fs: f64,
    /// Achieved source-to-sink Elmore delay, fs.
    pub delay_fs: f64,
    /// Total repeater width, u.
    pub total_width: f64,
    /// `(position_um, width_u)` per inserted repeater.
    pub repeaters: Vec<(f64, f64)>,
}

/// One solved tree, as rendered into `solve_tree` responses and
/// `batch` tree-result entries.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSolveResult {
    /// The resolved absolute target, fs.
    pub target_fs: f64,
    /// Achieved worst source-to-sink Elmore delay, fs.
    pub delay_fs: f64,
    /// Total buffer width, u.
    pub total_width: f64,
    /// `(fine_node_index, width_u)` per inserted buffer.
    pub buffers: Vec<(usize, f64)>,
}

/// Server capabilities rendered into a `hello` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerInfo {
    /// Connection worker threads.
    pub workers: usize,
    /// Concurrent-connection cap (0 = unlimited).
    pub max_conns: usize,
}

/// A typed protocol response; [`Response::render`] is the only place
/// response JSON is produced, so every transport (connection worker,
/// in-process reference) renders byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `solve` succeeded.
    Solve(SolveResult),
    /// `solve_tree` succeeded.
    SolveTree(TreeSolveResult),
    /// `batch` ran (individual items may still have failed).
    Batch {
        /// Per-net outcome, in request order (`Err` carries the
        /// per-item failure reason).
        results: Vec<Result<SolveResult, String>>,
        /// Per-tree outcome, in request order.
        tree_results: Vec<Result<TreeSolveResult, String>>,
    },
    /// `compare` ran.
    Compare {
        /// Per-net `(baseline width, RIP width)` rows (`None` baseline
        /// = the paper's `V_DP` timing violation).
        rows: Vec<(Option<f64>, f64)>,
        /// Per-tree rows, same convention.
        tree_rows: Vec<(Option<f64>, f64)>,
        /// Savings summary over all rows (nets then trees).
        summary: SavingsSummary,
    },
    /// `tau_min` succeeded.
    TauMin {
        /// The minimum achievable delay, fs.
        tau_min_fs: f64,
    },
    /// `hello`: capabilities plus the engine's `τ_min` memo cap.
    Hello {
        /// Server topology and limits.
        info: ServerInfo,
        /// `τ_min` memo LRU bound (0 = unbounded).
        value_cache_cap: usize,
    },
    /// `stats` / `reset_stats` counters (pre-rendered: the values are
    /// captured when the request is handled, not when rendered).
    Stats {
        /// Counter fields, in render order.
        fields: Vec<(&'static str, Json)>,
        /// `true` for `reset_stats` (the counters were rezeroed after
        /// capture).
        reset: bool,
    },
    /// `metrics`: a point-in-time copy of the metrics registry (on a
    /// server, the edge request-latency histograms merged with the
    /// engine's stage-latency histograms).
    Metrics {
        /// The merged registry snapshot.
        snapshot: rip_obs::RegistrySnapshot,
    },
    /// `drain` acknowledged; the server stops taking work and answers
    /// what is in flight, bounded by the echoed deadline.
    Draining {
        /// The resolved drain deadline, ms.
        deadline_ms: u64,
    },
    /// `shutdown` acknowledged; the server drains after responding.
    Shutdown,
    /// The request failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable reason.
        error: String,
    },
}

impl Response {
    /// An [`ErrorCode::SolveFailed`] error response.
    pub fn solve_error(reason: impl Into<String>) -> Self {
        Response::Error {
            code: ErrorCode::SolveFailed,
            error: reason.into(),
        }
    }

    /// `true` when this response reports a failure (`ok: false`).
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// Renders the response line for an echoed `id`:
    /// `{"id":…,"ok":…,"proto":…, …}`.
    pub fn render(&self, id: &Json) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("id".to_string(), id.clone()),
            ("ok".to_string(), Json::Bool(!self.is_error())),
            ("proto".to_string(), Json::from(PROTO_VERSION)),
        ];
        let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
        match self {
            Response::Solve(result) => push_solve_fields(&mut push, result),
            Response::SolveTree(result) => push_tree_fields(&mut push, result),
            Response::Batch {
                results,
                tree_results,
            } => {
                push(
                    "results",
                    Json::Arr(results.iter().map(render_batch_item).collect()),
                );
                push(
                    "tree_results",
                    Json::Arr(tree_results.iter().map(render_tree_batch_item).collect()),
                );
            }
            Response::Compare {
                rows,
                tree_rows,
                summary,
            } => {
                push("rows", render_rows(rows));
                push("tree_rows", render_rows(tree_rows));
                push("max_percent", Json::Num(summary.max_percent));
                push("mean_percent", Json::Num(summary.mean_percent));
                push(
                    "baseline_violations",
                    Json::from(summary.baseline_violations),
                );
                push("compared", Json::from(summary.compared));
            }
            Response::TauMin { tau_min_fs } => push("tau_min_fs", Json::Num(*tau_min_fs)),
            Response::Hello {
                info,
                value_cache_cap,
            } => {
                push("server", Json::from("rip-serve"));
                push("version", Json::from(env!("CARGO_PKG_VERSION")));
                push("workers", Json::from(info.workers));
                push("max_conns", Json::from(info.max_conns));
                push("value_cache_cap", Json::from(*value_cache_cap));
                push(
                    "commands",
                    Json::Arr(COMMANDS.iter().map(|c| Json::from(*c)).collect()),
                );
            }
            Response::Stats { fields, reset } => {
                for (k, v) in fields {
                    push(k, v.clone());
                }
                if *reset {
                    push("reset", Json::Bool(true));
                }
            }
            Response::Metrics { snapshot } => {
                push(
                    "histograms",
                    Json::Obj(
                        snapshot
                            .histograms
                            .iter()
                            .map(|(name, h)| (name.clone(), render_histogram(h)))
                            .collect(),
                    ),
                );
            }
            Response::Draining { deadline_ms } => {
                push("draining", Json::Bool(true));
                push("deadline_ms", Json::from(*deadline_ms));
            }
            Response::Shutdown => push("stopping", Json::Bool(true)),
            Response::Error { code, error } => {
                push("code", Json::from(code.as_str()));
                push("error", Json::Str(error.clone()));
            }
        }
        Json::Obj(fields)
    }
}

fn push_solve_fields(push: &mut impl FnMut(&str, Json), result: &SolveResult) {
    push("target_fs", Json::Num(result.target_fs));
    push("delay_fs", Json::Num(result.delay_fs));
    push("total_width", Json::Num(result.total_width));
    push(
        "repeaters",
        Json::Arr(
            result
                .repeaters
                .iter()
                .map(|(x, w)| Json::Arr(vec![Json::Num(*x), Json::Num(*w)]))
                .collect(),
        ),
    );
}

fn push_tree_fields(push: &mut impl FnMut(&str, Json), result: &TreeSolveResult) {
    push("target_fs", Json::Num(result.target_fs));
    push("delay_fs", Json::Num(result.delay_fs));
    push("total_width", Json::Num(result.total_width));
    push(
        "buffers",
        Json::Arr(
            result
                .buffers
                .iter()
                .map(|(v, w)| Json::Arr(vec![Json::Num(*v as f64), Json::Num(*w)]))
                .collect(),
        ),
    );
}

fn render_batch_item(item: &Result<SolveResult, String>) -> Json {
    match item {
        Ok(result) => {
            let mut fields = vec![("ok".to_string(), Json::Bool(true))];
            let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
            push_solve_fields(&mut push, result);
            Json::Obj(fields)
        }
        Err(e) => Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(e.clone()))]),
    }
}

fn render_tree_batch_item(item: &Result<TreeSolveResult, String>) -> Json {
    match item {
        Ok(result) => {
            let mut fields = vec![("ok".to_string(), Json::Bool(true))];
            let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
            push_tree_fields(&mut push, result);
            Json::Obj(fields)
        }
        Err(e) => Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(e.clone()))]),
    }
}

/// Renders one histogram snapshot as
/// `{"count":…,"sum":…,"p50":…,"p90":…,"p99":…,"buckets":[[upper,count],…]}`
/// (only non-empty buckets are listed; values are nanoseconds).
fn render_histogram(h: &rip_obs::HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::from(h.count)),
        ("sum", Json::from(h.sum)),
        ("p50", Json::from(h.quantile(0.50))),
        ("p90", Json::from(h.quantile(0.90))),
        ("p99", Json::from(h.quantile(0.99))),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(upper, count)| Json::Arr(vec![Json::from(upper), Json::from(count)]))
                    .collect(),
            ),
        ),
    ])
}

fn render_rows(rows: &[(Option<f64>, f64)]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|(base, rip)| {
                Json::Arr(vec![
                    base.map(Json::Num).unwrap_or(Json::Null),
                    Json::Num(*rip),
                ])
            })
            .collect(),
    )
}

/// Shared state of a running engine worker: the long-lived [`Engine`]
/// plus server-level counters. The server shares one instance across
/// every connection worker. [`ServeState::handle_line`] is the whole request
/// router, so tests and the load generator can drive it without a
/// socket.
#[derive(Debug)]
pub struct ServeState {
    engine: Engine,
    tree_config: TreeRipConfig,
    info: Mutex<ServerInfo>,
    requests: AtomicU64,
    connections: AtomicU64,
}

impl ServeState {
    /// Wraps an engine session for serving.
    pub fn new(engine: Engine) -> Self {
        Self {
            engine,
            tree_config: TreeRipConfig::paper(),
            info: Mutex::new(ServerInfo::default()),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        }
    }

    /// The shared engine session.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Sets the topology this state reports in `hello` responses
    /// (called by the server at startup; in-process states report the
    /// all-zero default).
    pub fn set_server_info(&self, info: ServerInfo) {
        *self
            .info
            .lock()
            .expect("server info lock is never poisoned") = info;
    }

    /// The topology this state reports in `hello` responses — what a
    /// supervised respawn copies onto the replacement state.
    pub fn server_info(&self) -> ServerInfo {
        *self
            .info
            .lock()
            .expect("server info lock is never poisoned")
    }

    /// Overwrites the request/connection counters — how a respawned
    /// state carries the monitoring history of the engine it replaces
    /// (engine cache stats restart cold with the fresh engine).
    pub fn restore_counters(&self, requests: u64, connections: u64) {
        self.requests.store(requests, Ordering::Relaxed);
        self.connections.store(connections, Ordering::Relaxed);
    }

    /// Requests handled so far (all commands, including malformed ones).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Counts one handled request. [`ServeState::handle_line`] calls
    /// this itself; a caller dispatching typed requests directly
    /// ([`ServeState::handle_request`]) counts separately, so parse
    /// failures that never become typed requests still show up.
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Counts one accepted connection (called by the server loop).
    pub fn count_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one request line: parses ([`parse_line`]), dispatches
    /// ([`ServeState::handle_request`]), and renders
    /// ([`Response::render`]). The second return is `true` when the
    /// request asks the server to shut down (the caller responds first,
    /// then stops).
    pub fn handle_line(&self, line: &str) -> (Json, bool) {
        self.count_request();
        let (id, parsed) = parse_line(line);
        match parsed {
            Ok(request) => {
                let response = self.handle_request(&request);
                (response.render(&id), matches!(request, Request::Shutdown))
            }
            Err(e) => (
                Response::Error {
                    code: e.code,
                    error: e.reason,
                }
                .render(&id),
                false,
            ),
        }
    }

    /// Dispatches one typed request — a pure match, no JSON. This is
    /// what a connection worker runs under supervision; the caller is
    /// responsible for [`ServeState::count_request`].
    pub fn handle_request(&self, request: &Request) -> Response {
        match request {
            Request::Solve { net, target } => match self.run_solve(net, *target) {
                Ok(result) => Response::Solve(result),
                Err(e) => Response::solve_error(e),
            },
            Request::SolveTree { entry, target } => match self.run_solve_tree(entry, *target) {
                Ok(result) => Response::SolveTree(result),
                Err(e) => Response::solve_error(e),
            },
            Request::Batch {
                nets,
                trees,
                target,
            } => Response::Batch {
                results: self.run_net_batch(nets, *target),
                tree_results: self.run_tree_batch(trees, *target),
            },
            Request::Compare {
                nets,
                trees,
                target,
                granularity,
            } => match self.run_compare(nets, trees, *target, *granularity) {
                Ok(response) => response,
                Err(e) => Response::solve_error(e),
            },
            Request::TauMin { net } => Response::TauMin {
                tau_min_fs: self.engine.tau_min(net),
            },
            Request::Hello => Response::Hello {
                info: *self
                    .info
                    .lock()
                    .expect("server info lock is never poisoned"),
                value_cache_cap: self.engine.value_cache_cap(),
            },
            Request::Stats => Response::Stats {
                fields: self.stats_fields(),
                reset: false,
            },
            // A bare state reports its own engine's registry; the TCP
            // edge intercepts `metrics` and merges its request-latency
            // registry on top.
            Request::Metrics => Response::Metrics {
                snapshot: self.engine.metrics_registry().snapshot(),
            },
            Request::ResetStats => {
                // Render the pre-reset counters (including this very
                // request), then rezero. Cache *contents* are untouched
                // — only the monitoring counters restart, which is what
                // long-lived dashboards want at the start of a
                // measurement window.
                let fields = self.stats_fields();
                self.engine.reset_stats();
                self.requests.store(0, Ordering::Relaxed);
                self.connections.store(0, Ordering::Relaxed);
                Response::Stats {
                    fields,
                    reset: true,
                }
            }
            // A bare state acknowledges the drain with the requested
            // (or zero) deadline; the TCP edge intercepts `drain` and
            // substitutes its configured default before this arm runs,
            // so the zero here only shows up in in-process use.
            Request::Drain { deadline_ms } => Response::Draining {
                deadline_ms: deadline_ms.unwrap_or(0),
            },
            Request::Shutdown => Response::Shutdown,
        }
    }

    fn run_solve(&self, net: &TwoPinNet, target: Target) -> Result<SolveResult, String> {
        let target_fs = self.resolve_target(net, target);
        let outcome = self
            .engine
            .solve(net, target_fs)
            .map_err(|e| e.to_string())?;
        Ok(solve_result(target_fs, &outcome.solution))
    }

    /// Resolves one tree entry for the engine: the solver-side tree,
    /// its driver width, the binding buffer-legality mask (the tree's
    /// own `blocked` flags unless overridden by an explicit `allowed`
    /// array) and the absolute target (`target_mult` against the masked
    /// `τ_min`). An all-true mask normalizes away inside the engine, so
    /// unblocked trees take the unmasked pipeline, byte for byte.
    fn resolve_tree(
        &self,
        entry: &TreeEntry,
        target: Target,
    ) -> Result<(RcTree, f64, Vec<bool>, f64), String> {
        let tree = RcTree::from_tree_net(&entry.tree, self.engine.technology().device());
        let driver = entry.tree.driver_width();
        let allowed = entry.mask();
        let target_fs = match target {
            Target::AbsoluteFs(fs) => fs,
            Target::TauMinMultiple(m) => {
                m * self
                    .engine
                    .tree_tau_min_masked(&tree, driver, &self.tree_config, Some(&allowed))
                    .map_err(|e| e.to_string())?
            }
        };
        Ok((tree, driver, allowed, target_fs))
    }

    fn run_solve_tree(&self, entry: &TreeEntry, target: Target) -> Result<TreeSolveResult, String> {
        let (tree, driver, allowed, target_fs) = self.resolve_tree(entry, target)?;
        let outcome = self
            .engine
            .solve_tree_masked(&tree, driver, target_fs, &self.tree_config, Some(&allowed))
            .map_err(|e| e.to_string())?;
        Ok(tree_solve_result(target_fs, &outcome.solution))
    }

    fn run_net_batch(
        &self,
        nets: &[TwoPinNet],
        target: Target,
    ) -> Vec<Result<SolveResult, String>> {
        if nets.is_empty() {
            return Vec::new();
        }
        self.engine
            .solve_batch(nets, &batch_target(target))
            .into_iter()
            .map(|outcome| match outcome {
                Ok(out) => Ok(solve_result(out.target_fs, &out.solution)),
                Err(e) => Err(e.to_string()),
            })
            .collect()
    }

    fn run_tree_batch(
        &self,
        trees: &[TreeEntry],
        target: Target,
    ) -> Vec<Result<TreeSolveResult, String>> {
        if trees.is_empty() {
            return Vec::new();
        }
        let device = self.engine.technology().device();
        let entries: Vec<(RcTree, f64, Option<Vec<bool>>)> = trees
            .iter()
            .map(|entry| {
                (
                    RcTree::from_tree_net(&entry.tree, device),
                    entry.tree.driver_width(),
                    Some(entry.mask()),
                )
            })
            .collect();
        self.engine
            .solve_tree_batch_masked(&entries, &batch_target(target), &self.tree_config)
            .into_iter()
            .map(|outcome| match outcome {
                Ok(out) => Ok(tree_solve_result(out.target_fs, &out.solution)),
                Err(e) => Err(e.to_string()),
            })
            .collect()
    }

    fn run_compare(
        &self,
        nets: &[TwoPinNet],
        trees: &[TreeEntry],
        target: Target,
        granularity: f64,
    ) -> Result<Response, String> {
        let baseline = BaselineConfig::paper_table1(granularity);
        let rows: Vec<(Option<f64>, f64)> = if nets.is_empty() {
            Vec::new()
        } else {
            self.engine
                .compare_batch(nets, &batch_target(target), &baseline)
                .map_err(|e| e.to_string())?
                .0
        };
        let tree_rows = self.run_tree_compare(trees, target, &baseline)?;
        // One summary over every row (nets first, then trees), computed
        // from the rows themselves.
        let mut all = rows.clone();
        all.extend(tree_rows.iter().copied());
        let summary = summarize_savings(&all);
        Ok(Response::Compare {
            rows,
            tree_rows,
            summary,
        })
    }

    fn run_tree_compare(
        &self,
        trees: &[TreeEntry],
        target: Target,
        baseline: &BaselineConfig,
    ) -> Result<Vec<(Option<f64>, f64)>, String> {
        let mut rows = Vec::with_capacity(trees.len());
        for entry in trees {
            let (tree, driver, allowed, target_fs) = self.resolve_tree(entry, target)?;
            let rip = self
                .engine
                .solve_tree_masked(&tree, driver, target_fs, &self.tree_config, Some(&allowed))
                .map_err(|e| e.to_string())?
                .solution
                .total_width;
            let base = match self.engine.tree_baseline_masked(
                &tree,
                driver,
                baseline,
                target_fs,
                Some(&allowed),
            ) {
                Ok(sol) => Some(sol.total_width),
                // The paper's V_DP event: the fixed library misses the
                // target. A `None` row, not a request failure.
                Err(DpError::InfeasibleTarget { .. }) => None,
                Err(e) => return Err(e.to_string()),
            };
            rows.push((base, rip));
        }
        Ok(rows)
    }

    fn stats_fields(&self) -> Vec<(&'static str, Json)> {
        let stats = self.engine.stats();
        vec![
            ("requests", Json::from(self.requests())),
            ("connections", Json::from(self.connections())),
            ("nets_solved", Json::from(stats.nets_solved)),
            ("trees_solved", Json::from(stats.trees_solved)),
            ("hits", Json::from(stats.hits())),
            ("misses", Json::from(stats.misses())),
            ("hit_rate", Json::Num(stats.hit_rate())),
            ("promotions", Json::from(stats.promotions)),
            ("evictions", Json::from(stats.evictions)),
            ("value_cache_cap", Json::from(self.engine.value_cache_cap())),
        ]
    }

    fn resolve_target(&self, net: &TwoPinNet, target: Target) -> f64 {
        match target {
            Target::AbsoluteFs(fs) => fs,
            Target::TauMinMultiple(m) => m * self.engine.tau_min(net),
        }
    }
}

fn batch_target(target: Target) -> BatchTarget {
    match target {
        Target::AbsoluteFs(fs) => BatchTarget::AbsoluteFs(fs),
        Target::TauMinMultiple(m) => BatchTarget::TauMinMultiple(m),
    }
}

fn parse_target(request: &Json) -> Result<Target, RequestError> {
    let fs = request.get("target_fs").and_then(Json::as_f64);
    let ns = request.get("target_ns").and_then(Json::as_f64);
    let mult = request.get("target_mult").and_then(Json::as_f64);
    let target = match (fs, ns, mult) {
        (Some(fs), None, None) => Target::AbsoluteFs(fs),
        (None, Some(ns), None) => Target::AbsoluteFs(fs_from_ns(ns)),
        (None, None, Some(m)) => Target::TauMinMultiple(m),
        (None, None, None) => {
            return Err("one of target_fs / target_ns / target_mult is required".into())
        }
        _ => return Err("target_fs / target_ns / target_mult are mutually exclusive".into()),
    };
    let value = match &target {
        Target::AbsoluteFs(v) | Target::TauMinMultiple(v) => *v,
    };
    if !(value.is_finite() && value > 0.0) {
        return Err("the timing target must be positive and finite".into());
    }
    Ok(target)
}

fn allowed_from_json(value: &Json, tree: &TreeNet) -> Result<Vec<bool>, String> {
    let items = value
        .as_arr()
        .ok_or("'allowed' must be an array of booleans")?;
    if items.len() != tree.len() {
        return Err(format!(
            "'allowed' needs one entry per node including the root \
             (expected {}, got {})",
            tree.len(),
            items.len()
        ));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_bool()
                .ok_or_else(|| format!("allowed[{i}] must be a boolean"))
        })
        .collect()
}

fn nets_and_trees(
    request: &Json,
    cmd: &str,
) -> Result<(Vec<TwoPinNet>, Vec<TreeEntry>), RequestError> {
    let nets = match request.get("nets") {
        Some(value) => nets_from_json(value)?,
        None => Vec::new(),
    };
    let trees = match request.get("trees") {
        Some(value) => tree_entries_from_json(value)?,
        None => Vec::new(),
    };
    if nets.is_empty() && trees.is_empty() {
        return Err(format!("{cmd} needs a 'nets' or 'trees' array").into());
    }
    Ok((nets, trees))
}

fn solve_result(target_fs: f64, solution: &rip_core::prelude::DpSolution) -> SolveResult {
    SolveResult {
        target_fs,
        delay_fs: solution.delay_fs,
        total_width: solution.total_width,
        repeaters: solution
            .assignment
            .repeaters()
            .iter()
            .map(|r| (r.position, r.width))
            .collect(),
    }
}

fn tree_solve_result(target_fs: f64, solution: &rip_core::TreeSolution) -> TreeSolveResult {
    TreeSolveResult {
        target_fs,
        delay_fs: solution.delay_fs,
        total_width: solution.total_width,
        buffers: solution
            .buffer_widths
            .iter()
            .enumerate()
            .filter_map(|(v, w)| w.map(|w| (v, w)))
            .collect(),
    }
}

/// Decodes a structured JSON net (see the module docs for the schema).
///
/// # Errors
///
/// Returns a human-readable reason when the shape or the net itself is
/// invalid.
pub fn net_from_json(value: &Json) -> Result<TwoPinNet, String> {
    let mut builder = NetBuilder::new();
    if let Some(d) = value.get("driver") {
        builder = builder.driver_width(d.as_f64().ok_or("driver must be a number")?);
    }
    if let Some(r) = value.get("receiver") {
        builder = builder.receiver_width(r.as_f64().ok_or("receiver must be a number")?);
    }
    let segments = value
        .get("segments")
        .and_then(Json::as_arr)
        .ok_or("net needs a 'segments' array")?;
    for (i, segment) in segments.iter().enumerate() {
        let nums = fixed_numbers::<3>(segment)
            .ok_or_else(|| format!("segment {i} must be [length_um, r_per_um, c_per_um]"))?;
        builder = builder.segment(Segment::new(nums[0], nums[1], nums[2]));
    }
    if let Some(zones) = value.get("zones") {
        let zones = zones.as_arr().ok_or("zones must be an array")?;
        for (i, zone) in zones.iter().enumerate() {
            let nums = fixed_numbers::<2>(zone)
                .ok_or_else(|| format!("zone {i} must be [start_um, end_um]"))?;
            builder = builder
                .forbidden_zone(nums[0], nums[1])
                .map_err(|e| e.to_string())?;
        }
    }
    builder.build().map_err(|e| e.to_string())
}

/// Encodes a net into the protocol's structured JSON (inverse of
/// [`net_from_json`]).
pub fn net_to_json(net: &TwoPinNet) -> Json {
    let segments: Vec<Json> = net
        .segments()
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Num(s.length_um()),
                Json::Num(s.r_per_um()),
                Json::Num(s.c_per_um()),
            ])
        })
        .collect();
    let zones: Vec<Json> = net
        .zones()
        .iter()
        .map(|z| Json::Arr(vec![Json::Num(z.start()), Json::Num(z.end())]))
        .collect();
    Json::obj([
        ("driver", Json::Num(net.driver_width())),
        ("receiver", Json::Num(net.receiver_width())),
        ("segments", Json::Arr(segments)),
        ("zones", Json::Arr(zones)),
    ])
}

/// Decodes a structured JSON tree (see the module docs for the schema).
///
/// # Errors
///
/// Returns a human-readable reason when the shape or the tree itself is
/// invalid.
pub fn tree_from_json(value: &Json) -> Result<TreeNet, String> {
    let driver = value
        .get("driver")
        .and_then(Json::as_f64)
        .ok_or("tree needs a numeric 'driver'")?;
    let entries = value
        .get("nodes")
        .and_then(Json::as_arr)
        .ok_or("tree needs a 'nodes' array")?;
    let mut nodes = vec![TreeNetNode {
        parent: None,
        r_per_um: 0.0,
        c_per_um: 0.0,
        length_um: 0.0,
        sink_width: None,
        buffer_ok: true,
    }];
    for (i, entry) in entries.iter().enumerate() {
        let fields = entry.as_arr().filter(|f| f.len() == 6).ok_or_else(|| {
            format!(
                "node {i} must be [parent, r_per_um, c_per_um, length_um, sink_w|null, blocked]"
            )
        })?;
        let parent = fields[0]
            .as_usize()
            .ok_or_else(|| format!("node {i}: parent must be a node index"))?;
        let num = |j: usize, what: &str| {
            fields[j]
                .as_f64()
                .ok_or_else(|| format!("node {i}: {what} must be a number"))
        };
        let sink_width = match &fields[4] {
            Json::Null => None,
            w => Some(
                w.as_f64()
                    .ok_or_else(|| format!("node {i}: sink width must be a number or null"))?,
            ),
        };
        let blocked = fields[5]
            .as_bool()
            .ok_or_else(|| format!("node {i}: blocked must be a boolean"))?;
        nodes.push(TreeNetNode {
            parent: Some(parent),
            r_per_um: num(1, "r_per_um")?,
            c_per_um: num(2, "c_per_um")?,
            length_um: num(3, "length_um")?,
            sink_width,
            buffer_ok: !blocked,
        });
    }
    TreeNet::from_nodes(nodes, driver).map_err(|e| e.to_string())
}

/// Encodes a tree into the protocol's structured JSON (inverse of
/// [`tree_from_json`]).
pub fn tree_to_json(tree: &TreeNet) -> Json {
    let nodes: Vec<Json> = tree
        .nodes()
        .iter()
        .skip(1)
        .map(|n| {
            Json::Arr(vec![
                Json::Num(n.parent.expect("non-root") as f64),
                Json::Num(n.r_per_um),
                Json::Num(n.c_per_um),
                Json::Num(n.length_um),
                n.sink_width.map(Json::Num).unwrap_or(Json::Null),
                Json::Bool(!n.buffer_ok),
            ])
        })
        .collect();
    Json::obj([
        ("driver", Json::Num(tree.driver_width())),
        ("nodes", Json::Arr(nodes)),
    ])
}

fn nets_from_json(value: &Json) -> Result<Vec<TwoPinNet>, String> {
    let items = value.as_arr().ok_or("'nets' must be an array")?;
    if items.is_empty() {
        return Err("'nets' must not be empty".into());
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| net_from_json(item).map_err(|e| format!("net {i}: {e}")))
        .collect()
}

/// One tree plus its optional `allowed` override, validated against it.
fn tree_entry_from_json(tree: &Json, allowed: Option<&Json>) -> Result<TreeEntry, String> {
    let tree = tree_from_json(tree)?;
    let allowed = match allowed {
        None => None,
        Some(value) => Some(allowed_from_json(value, &tree)?),
    };
    Ok(TreeEntry { tree, allowed })
}

fn tree_entries_from_json(value: &Json) -> Result<Vec<TreeEntry>, String> {
    let items = value.as_arr().ok_or("'trees' must be an array")?;
    if items.is_empty() {
        return Err("'trees' must not be empty".into());
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            // A wrapped entry `{"tree": …, "allowed": […]}` or a bare
            // tree object (no override) — both spellings are one entry.
            let (tree_value, allowed_value) = match item.get("tree") {
                Some(tree) => (tree, item.get("allowed")),
                None => (item, None),
            };
            tree_entry_from_json(tree_value, allowed_value).map_err(|e| format!("tree {i}: {e}"))
        })
        .collect::<Result<_, String>>()
        .map_err(RequestError::bad)
        .map_err(|e| e.reason)
}

fn fixed_numbers<const N: usize>(value: &Json) -> Option<[f64; N]> {
    let items = value.as_arr()?;
    if items.len() != N {
        return None;
    }
    let mut out = [0.0; N];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_f64()?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_net::{NetGenerator, RandomNetConfig, RandomTreeConfig, TreeNetGenerator};
    use rip_tech::Technology;

    fn state() -> ServeState {
        ServeState::new(Engine::paper(Technology::generic_180nm()))
    }

    fn request(line: &str) -> (Json, bool) {
        state().handle_line(line)
    }

    #[test]
    fn net_json_round_trips() {
        for net in NetGenerator::suite(RandomNetConfig::default(), 7, 5).unwrap() {
            let encoded = net_to_json(&net).to_string();
            let back = net_from_json(&parse_json(&encoded).unwrap()).unwrap();
            assert_eq!(net, back, "net JSON encode/decode must be lossless");
        }
    }

    #[test]
    fn tree_json_round_trips() {
        for tree in TreeNetGenerator::suite(RandomTreeConfig::default(), 7, 5).unwrap() {
            let encoded = tree_to_json(&tree).to_string();
            let back = tree_from_json(&parse_json(&encoded).unwrap()).unwrap();
            assert_eq!(tree, back, "tree JSON encode/decode must be lossless");
        }
    }

    /// A generated sample of every request shape — the property-test
    /// corpus for the typed encode/decode round trip.
    fn request_corpus() -> Vec<Request> {
        let nets = NetGenerator::suite(RandomNetConfig::default(), 31, 4).unwrap();
        let trees = TreeNetGenerator::suite(RandomTreeConfig::compact(), 32, 3).unwrap();
        let entry = |i: usize, with_mask: bool| TreeEntry {
            tree: trees[i].clone(),
            allowed: with_mask.then(|| trees[i].allowed_mask()),
        };
        vec![
            Request::Solve {
                net: nets[0].clone(),
                target: Target::TauMinMultiple(1.4),
            },
            Request::Solve {
                net: nets[1].clone(),
                target: Target::AbsoluteFs(2.5e6),
            },
            Request::SolveTree {
                entry: entry(0, false),
                target: Target::TauMinMultiple(1.2),
            },
            Request::SolveTree {
                entry: entry(1, true),
                target: Target::AbsoluteFs(3.0e6),
            },
            Request::Batch {
                nets: nets.clone(),
                trees: vec![entry(0, false), entry(1, true)],
                target: Target::TauMinMultiple(1.35),
            },
            Request::Batch {
                nets: Vec::new(),
                trees: vec![entry(2, true)],
                target: Target::AbsoluteFs(4.0e6),
            },
            Request::Compare {
                nets: nets[..2].to_vec(),
                trees: vec![entry(0, true)],
                target: Target::TauMinMultiple(1.5),
                granularity: 20.0,
            },
            Request::TauMin {
                net: nets[2].clone(),
            },
            Request::Hello,
            Request::Stats,
            Request::Metrics,
            Request::ResetStats,
            Request::Drain { deadline_ms: None },
            Request::Drain {
                deadline_ms: Some(2500),
            },
            Request::Shutdown,
        ]
    }

    #[test]
    fn typed_requests_round_trip_through_the_wire_encoding() {
        for (k, request) in request_corpus().into_iter().enumerate() {
            // Encode → serialize → parse → decode must reproduce the
            // typed request exactly, with the id echoed.
            let id = Json::from(k as u64);
            let line = request.to_json(Some(&id)).to_string();
            let (echoed, parsed) = parse_line(&line);
            assert_eq!(echoed, id, "id must round-trip: {line}");
            assert_eq!(parsed.as_ref(), Ok(&request), "round trip broke: {line}");
            // And the encoding is a fixed point: encode(decode(encode))
            // is byte-identical, so a re-encoded request never drifts.
            assert_eq!(
                parsed.unwrap().to_json(Some(&id)).to_string(),
                line,
                "re-encoding must be byte-stable"
            );
            // Without an id the parse echoes null.
            let (echoed, parsed) = parse_line(&request.to_json(None).to_string());
            assert_eq!(echoed, Json::Null);
            assert!(parsed.is_ok());
        }
    }

    #[test]
    fn target_ns_parses_to_the_absolute_spelling() {
        let (_, parsed) =
            parse_line(r#"{"cmd":"solve","net":{"segments":[[3000,0.08,0.2]]},"target_ns":1.5}"#);
        match parsed.unwrap() {
            Request::Solve { target, .. } => {
                assert_eq!(target, Target::AbsoluteFs(fs_from_ns(1.5)));
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn responses_carry_the_protocol_version() {
        let state = state();
        for line in [
            r#"{"id":1,"cmd":"stats"}"#,
            r#"{"id":2,"cmd":"hello"}"#,
            r#"{"id":3,"cmd":"warp"}"#,
        ] {
            let (response, _) = state.handle_line(line);
            assert_eq!(
                response.get("proto").and_then(Json::as_f64),
                Some(PROTO_VERSION as f64),
                "{response}"
            );
        }
    }

    #[test]
    fn hello_reports_capabilities_and_commands() {
        let state = state();
        state.set_server_info(ServerInfo {
            workers: 8,
            max_conns: 64,
        });
        let (response, stop) = state.handle_line(r#"{"id":1,"cmd":"hello"}"#);
        assert!(!stop);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            response.get("server").and_then(Json::as_str),
            Some("rip-serve")
        );
        assert_eq!(response.get("workers").and_then(Json::as_f64), Some(8.0));
        assert_eq!(response.get("max_conns").and_then(Json::as_f64), Some(64.0));
        assert_eq!(
            response.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        let commands = response.get("commands").unwrap().as_arr().unwrap();
        assert_eq!(commands.len(), COMMANDS.len());
        for (got, want) in commands.iter().zip(COMMANDS) {
            assert_eq!(got.as_str(), Some(*want));
        }
    }

    #[test]
    fn unknown_commands_name_the_cmd_and_list_known_ones() {
        let (response, _) = request(r#"{"id":3,"cmd":"warp"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            Some("unknown_cmd")
        );
        let error = response.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("warp"), "{error}");
        for cmd in COMMANDS {
            assert!(error.contains(cmd), "missing {cmd} in {error}");
        }
    }

    #[test]
    fn solve_matches_the_engine_and_is_deterministic() {
        let state = state();
        let net = NetGenerator::suite(RandomNetConfig::default(), 11, 1)
            .unwrap()
            .remove(0);
        let line = format!(
            r#"{{"id":1,"cmd":"solve","net":{},"target_mult":1.4}}"#,
            net_to_json(&net)
        );
        let (a, stop) = state.handle_line(&line);
        assert!(!stop);
        assert_eq!(a.get("ok"), Some(&Json::Bool(true)));
        // Byte-identical on repeat (same engine, warm cache).
        let (b, _) = state.handle_line(&line);
        assert_eq!(a.to_string(), b.to_string());
        // And equal to the in-process engine answer.
        let expected = state
            .engine()
            .solve(&net, 1.4 * state.engine().tau_min(&net))
            .unwrap();
        assert_eq!(
            a.get("delay_fs").unwrap().as_f64().unwrap().to_bits(),
            expected.solution.delay_fs.to_bits()
        );
        assert_eq!(
            a.get("total_width").unwrap().as_f64().unwrap().to_bits(),
            expected.solution.total_width.to_bits()
        );
        assert_eq!(
            a.get("repeaters").unwrap().as_arr().unwrap().len(),
            expected.solution.assignment.len()
        );
    }

    #[test]
    fn batch_reports_per_net_results() {
        let state = state();
        let nets = NetGenerator::suite(RandomNetConfig::default(), 3, 2).unwrap();
        let encoded: Vec<String> = nets.iter().map(|n| net_to_json(n).to_string()).collect();
        let line = format!(
            r#"{{"id":4,"cmd":"batch","nets":[{}],"target_mult":1.4}}"#,
            encoded.join(",")
        );
        let (response, _) = state.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let results = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        for r in results {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        }
        assert_eq!(
            response
                .get("tree_results")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            0,
            "a nets-only batch renders an empty tree_results"
        );
        // An impossible absolute target yields per-net errors, not a
        // request-level failure.
        let line = format!(
            r#"{{"id":5,"cmd":"batch","nets":[{}],"target_fs":1}}"#,
            encoded.join(",")
        );
        let (response, _) = state.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        for r in response.get("results").unwrap().as_arr().unwrap() {
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
            assert!(r.get("error").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn a_batch_looks_up_each_items_tau_min_once() {
        // The engine resolves every `target_mult` once, inside the
        // batch; rendering the answers must not look `τ_min` up again.
        let state = state();
        let nets = NetGenerator::suite(RandomNetConfig::default(), 41, 3).unwrap();
        let trees = TreeNetGenerator::suite(RandomTreeConfig::compact(), 42, 2).unwrap();
        let request = Request::Batch {
            nets,
            trees: trees
                .into_iter()
                .map(|tree| TreeEntry {
                    tree,
                    allowed: None,
                })
                .collect(),
            target: Target::TauMinMultiple(1.4),
        };
        let Response::Batch {
            results,
            tree_results,
        } = state.handle_request(&request)
        else {
            panic!("a batch request answers with a batch response");
        };
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert!(tree_results.iter().all(Result::is_ok), "{tree_results:?}");
        let stats = state.engine().stats();
        assert_eq!(stats.hits() + stats.misses(), 5, "{stats:?}");
        assert_eq!(stats.misses(), 5, "{stats:?}");
    }

    /// A small masked tree: node 2 (the mid node) is blocked.
    fn masked_tree_json() -> String {
        r#"{"driver":120,"nodes":[[0,0.08,0.2,1400,null,false],[1,0.06,0.18,1200,null,true],[2,0.08,0.2,1100,60,false],[1,0.08,0.2,1000,50,false]]}"#
            .to_string()
    }

    #[test]
    fn solve_tree_masks_are_binding_and_allowed_overrides_blocked_flags() {
        let state = state();
        let tree = masked_tree_json();
        let line = format!(r#"{{"id":1,"cmd":"solve_tree","tree":{tree},"target_mult":1.2}}"#);
        let (response, _) = state.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        // No buffer may sit on a blocked fine-tree node: `buffers`
        // indexes the fine subdivision, so project the mask the same
        // way the engine does and check every reported site.
        let tree_net_parsed = tree_from_json(&parse_json(&tree).unwrap()).unwrap();
        let rc = RcTree::from_tree_net(&tree_net_parsed, state.engine().technology().device());
        let (fine, map) = rc.subdivided(TreeRipConfig::paper().fine_step_um);
        let projected = rc.project_allowed(&fine, &map, &tree_net_parsed.allowed_mask());
        for buffer in response.get("buffers").unwrap().as_arr().unwrap() {
            let node = buffer.as_arr().unwrap()[0].as_usize().unwrap();
            assert!(
                projected[node],
                "buffer on a blocked fine node {node}: {response}"
            );
        }
        // An explicit `allowed` equal to the tree's own mask answers
        // byte-identically: the two spellings are one request.
        let line_override = format!(
            r#"{{"id":1,"cmd":"solve_tree","tree":{tree},"target_mult":1.2,"allowed":[true,true,false,true,true]}}"#
        );
        let (override_response, _) = state.handle_line(&line_override);
        assert_eq!(response.to_string(), override_response.to_string());
        // A misaligned or non-boolean override is a request error.
        let (bad, _) = state.handle_line(&format!(
            r#"{{"cmd":"solve_tree","tree":{tree},"target_mult":1.2,"allowed":[true,true]}}"#
        ));
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(bad.get("code").and_then(Json::as_str), Some("bad_request"));
        assert!(bad
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("allowed"));
        let (bad, _) = state.handle_line(&format!(
            r#"{{"cmd":"solve_tree","tree":{tree},"target_mult":1.2,"allowed":[true,1,false,true,true]}}"#
        ));
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(bad
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("boolean"));
    }

    #[test]
    fn batch_tree_entries_honor_masks_in_both_spellings() {
        let state = state();
        let tree = masked_tree_json();
        // The tree's own blocked flags vs the equivalent explicit
        // `allowed` override, and a bare entry vs a wrapped one: all
        // one request, so `tree_results` must be byte-identical.
        let blocked = format!(r#"{{"id":1,"cmd":"batch","trees":[{tree}],"target_mult":1.2}}"#);
        let wrapped =
            format!(r#"{{"id":1,"cmd":"batch","trees":[{{"tree":{tree}}}],"target_mult":1.2}}"#);
        let overridden = format!(
            r#"{{"id":1,"cmd":"batch","trees":[{{"tree":{tree},"allowed":[true,true,false,true,true]}}]}}"#
        );
        let overridden = overridden.replace("]}]}", r#"]}],"target_mult":1.2}"#);
        let (a, _) = state.handle_line(&blocked);
        assert_eq!(a.get("ok"), Some(&Json::Bool(true)), "{a}");
        let (b, _) = state.handle_line(&wrapped);
        let (c, _) = state.handle_line(&overridden);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), c.to_string());
        let tree_results = a.get("tree_results").unwrap().as_arr().unwrap();
        assert_eq!(tree_results.len(), 1);
        assert_eq!(tree_results[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(a.get("results").unwrap().as_arr().unwrap().len(), 0);
        // The solved tree matches a standalone solve_tree of the same
        // request (same engine-session semantics).
        let (solo, _) = state.handle_line(&format!(
            r#"{{"id":1,"cmd":"solve_tree","tree":{tree},"target_mult":1.2}}"#
        ));
        assert_eq!(
            tree_results[0].get("total_width"),
            solo.get("total_width"),
            "batch tree entries must solve exactly like solve_tree"
        );
        // A misaligned entry override is a request error naming the entry.
        let (bad, _) = state.handle_line(&format!(
            r#"{{"cmd":"batch","trees":[{{"tree":{tree},"allowed":[true]}}],"target_mult":1.2}}"#
        ));
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        let error = bad.get("error").unwrap().as_str().unwrap();
        assert!(
            error.contains("tree 0") && error.contains("allowed"),
            "{error}"
        );
    }

    #[test]
    fn compare_handles_tree_entries_and_summarizes_over_all_rows() {
        let state = state();
        let nets = NetGenerator::suite(RandomNetConfig::default(), 3, 2).unwrap();
        let encoded: Vec<String> = nets.iter().map(|n| net_to_json(n).to_string()).collect();
        let tree = masked_tree_json();
        let line = format!(
            r#"{{"id":1,"cmd":"compare","nets":[{}],"trees":[{tree}],"target_mult":1.5,"granularity":20}}"#,
            encoded.join(",")
        );
        let (response, _) = state.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        let rows = response.get("rows").unwrap().as_arr().unwrap();
        let tree_rows = response.get("tree_rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(tree_rows.len(), 1);
        // The summary counts every row, nets and trees alike.
        let compared = response.get("compared").unwrap().as_f64().unwrap();
        let violations = response
            .get("baseline_violations")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(compared + violations, 3.0, "{response}");
        // A nets-only compare is unchanged semantically: its summary
        // equals the engine's own compare_batch summary.
        let nets_only = format!(
            r#"{{"id":2,"cmd":"compare","nets":[{}],"target_mult":1.5,"granularity":20}}"#,
            encoded.join(",")
        );
        let (response, _) = state.handle_line(&nets_only);
        let (_, summary) = state
            .engine()
            .compare_batch(
                &nets,
                &BatchTarget::TauMinMultiple(1.5),
                &BaselineConfig::paper_table1(20.0),
            )
            .unwrap();
        assert_eq!(
            response
                .get("mean_percent")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            summary.mean_percent.to_bits()
        );
    }

    #[test]
    fn reset_stats_rezeroes_counters_without_dropping_caches() {
        let state = state();
        let net = NetGenerator::suite(RandomNetConfig::default(), 11, 1)
            .unwrap()
            .remove(0);
        let solve = format!(
            r#"{{"id":1,"cmd":"solve","net":{},"target_mult":1.4}}"#,
            net_to_json(&net)
        );
        let (cold, _) = state.handle_line(&solve);
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)));
        let (reset, stop) = state.handle_line(r#"{"id":2,"cmd":"reset_stats"}"#);
        assert!(!stop);
        assert_eq!(reset.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(reset.get("reset"), Some(&Json::Bool(true)));
        // The response carries the pre-reset counters (2 requests so far).
        assert_eq!(reset.get("requests").unwrap().as_f64(), Some(2.0));
        assert!(reset.get("misses").unwrap().as_f64().unwrap() > 0.0);
        // After the reset the counters restart…
        let (stats, _) = state.handle_line(r#"{"id":3,"cmd":"stats"}"#);
        assert_eq!(stats.get("requests").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("nets_solved").unwrap().as_f64(), Some(0.0));
        assert_eq!(stats.get("misses").unwrap().as_f64(), Some(0.0));
        // …but the caches survive: a warm repeat answers byte-identically
        // and counts only hits.
        let (warm, _) = state.handle_line(&solve);
        assert_eq!(cold.to_string(), warm.to_string());
        let (stats, _) = state.handle_line(r#"{"id":4,"cmd":"stats"}"#);
        assert_eq!(stats.get("misses").unwrap().as_f64(), Some(0.0));
        assert!(stats.get("hits").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn error_codes_round_trip_and_classify_retryability() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownCmd,
            ErrorCode::SolveFailed,
            ErrorCode::Busy,
            ErrorCode::Timeout,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("made_up"), None);
        assert!(ErrorCode::Busy.retryable());
        assert!(ErrorCode::Timeout.retryable());
        assert!(ErrorCode::Internal.retryable());
        assert!(!ErrorCode::BadRequest.retryable());
        assert!(!ErrorCode::SolveFailed.retryable());
        assert!(!ErrorCode::ShuttingDown.retryable());
    }

    #[test]
    fn drain_acknowledges_with_the_deadline_and_does_not_stop_the_state() {
        let state = state();
        let (response, stop) = state.handle_line(r#"{"id":7,"cmd":"drain","deadline_ms":1500}"#);
        assert!(!stop, "drain is edge-managed; only shutdown stops");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("draining"), Some(&Json::Bool(true)));
        assert_eq!(
            response.get("deadline_ms").and_then(Json::as_f64),
            Some(1500.0)
        );
        // Without a deadline the bare state echoes zero (the edge
        // substitutes its configured default before rendering).
        let (response, _) = state.handle_line(r#"{"id":8,"cmd":"drain"}"#);
        assert_eq!(
            response.get("deadline_ms").and_then(Json::as_f64),
            Some(0.0)
        );
        // A negative deadline is a request error.
        let (bad, _) = state.handle_line(r#"{"cmd":"drain","deadline_ms":-4}"#);
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(bad.get("code").and_then(Json::as_str), Some("bad_request"));
    }

    #[test]
    fn control_plane_requests_are_exactly_the_engine_free_ones() {
        for request in request_corpus() {
            let expect = matches!(
                request,
                Request::Hello
                    | Request::Stats
                    | Request::Metrics
                    | Request::ResetStats
                    | Request::Drain { .. }
                    | Request::Shutdown
            );
            assert_eq!(request.is_control(), expect, "{:?}", request.cmd());
        }
    }

    #[test]
    fn stats_and_shutdown_respond() {
        let state = state();
        let (response, stop) = state.handle_line(r#"{"id":9,"cmd":"stats"}"#);
        assert!(!stop);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("requests").unwrap().as_f64(), Some(1.0));
        assert_eq!(response.get("hit_rate").unwrap().as_f64(), Some(0.0));
        let (response, stop) = state.handle_line(r#"{"id":10,"cmd":"shutdown"}"#);
        assert!(stop);
        assert_eq!(response.get("stopping"), Some(&Json::Bool(true)));
    }

    #[test]
    fn metrics_snapshots_stage_histograms_and_reset_clears_them() {
        let state = state();
        let (solve, _) = state.handle_line(
            r#"{"cmd":"solve","net":{"segments":[[3000,0.08,0.2]]},"target_mult":1.4}"#,
        );
        assert_eq!(solve.get("ok"), Some(&Json::Bool(true)), "{solve}");
        let (response, stop) = state.handle_line(r#"{"id":7,"cmd":"metrics"}"#);
        assert!(!stop);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        // Histograms are the registry's only instrument kind: no empty
        // `counters`/`gauges` objects ride along.
        assert!(matches!(response.get("histograms"), Some(Json::Obj(_))));
        assert_eq!(response.get("counters"), None);
        assert_eq!(response.get("gauges"), None);
        let histograms = response.get("histograms").expect("histograms object");
        let coarse = histograms
            .get("engine_chain_coarse_dp_ns")
            .expect("chain coarse DP histogram");
        assert_eq!(coarse.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(coarse.get("p50").and_then(Json::as_f64).is_some());
        assert!(coarse.get("buckets").is_some());
        // The fine chain DP's work is exported alongside its time.
        let options = histograms
            .get("engine_chain_fine_options")
            .expect("chain fine-DP options histogram");
        assert_eq!(options.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(options.get("sum").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        // `reset_stats` rezeroes the histograms along with the counters.
        let _ = state.handle_line(r#"{"cmd":"reset_stats"}"#);
        let (response, _) = state.handle_line(r#"{"cmd":"metrics"}"#);
        let histograms = response.get("histograms").expect("histograms object");
        let coarse = histograms
            .get("engine_chain_coarse_dp_ns")
            .expect("histogram names survive a reset");
        assert_eq!(coarse.get("count").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn malformed_requests_get_error_responses() {
        let (response, stop) = request("not json at all");
        assert!(!stop);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            Some("bad_request")
        );
        let (response, _) = request(r#"{"id":3}"#);
        assert!(response
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("cmd"));
        assert_eq!(response.get("id").unwrap().as_f64(), Some(3.0));
        let (response, _) = request(r#"{"id":3,"cmd":"warp"}"#);
        assert!(response
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("warp"));
        let (response, _) = request(r#"{"cmd":"solve","net":{"segments":[[1000,0.08,0.2]]}}"#);
        assert!(response
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("target"));
        let (response, _) = request(
            r#"{"cmd":"solve","net":{"segments":[[1000,0.08,0.2]]},"target_ns":1,"target_mult":2}"#,
        );
        assert!(response
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("mutually exclusive"));
        let (response, _) = request(r#"{"cmd":"solve","net":{"segments":[]},"target_mult":1.4}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        let (response, _) = request(r#"{"cmd":"batch","target_mult":1.4}"#);
        assert!(response
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("'nets' or 'trees'"));
    }

    #[test]
    fn infeasible_solves_are_errors_with_the_reason() {
        let state = state();
        let net = NetGenerator::suite(RandomNetConfig::default(), 11, 1)
            .unwrap()
            .remove(0);
        let line = format!(
            r#"{{"id":2,"cmd":"solve","net":{},"target_fs":1}}"#,
            net_to_json(&net)
        );
        let (response, _) = state.handle_line(&line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("code").and_then(Json::as_str),
            Some("solve_failed")
        );
        assert!(response.get("error").unwrap().as_str().unwrap().len() > 4);
    }
}
