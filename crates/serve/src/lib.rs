//! # rip-serve — a resident solver service over one shared [`Engine`]
//!
//! The paper's pitch is that hybrid repeater insertion is cheap enough
//! to sit inside an optimization loop; this crate is the subsystem that
//! makes the reproduction *servable*: a std-only multi-threaded TCP
//! server speaking a newline-delimited JSON protocol, with every
//! request routed through long-lived [`Engine`] sessions so each net's
//! `τ_min` — the min-delay DP behind every `target_mult` request — is
//! computed once across requests and connections (LRU-bounded — see
//! [`Engine::set_value_cache_cap`] — so memory stays flat on unbounded
//! request streams). There is one topology: N connection workers
//! solving in place against one supervised engine session, so every
//! connection warms the same memo.
//!
//! Layers, bottom up:
//!
//! * [`json`] — a tiny JSON value (parser + exact-`f64` writer; the
//!   workspace builds offline without serde);
//! * [`protocol`] — the typed request API: every line parses into a
//!   [`Request`], dispatch is a match over it, every answer is a
//!   [`Response`] rendered in exactly one place (`solve`, `solve_tree`,
//!   `batch`/`compare` with binding blocked-node masks and per-entry
//!   `allowed` overrides, `tau_min`, `hello`, `stats`, `reset_stats`,
//!   `shutdown` over a [`ServeState`]);
//! * [`fault`] — supervision (`catch_unwind` → typed `internal` error +
//!   engine respawn) and the seeded deterministic fault-injection plan
//!   behind the chaos suite, counted per connection;
//! * [`server`] — the edge: connection workers, `--bind`/`--max-conns`
//!   with typed `busy` rejection, per-connection timeouts, graceful
//!   drain (`drain` → typed `shutting_down` rejections → clean stop);
//! * [`client`] — a blocking line client with an optional
//!   [`RetryPolicy`] (capped exponential backoff, deterministic
//!   jitter) for transient `busy`/`timeout`/`internal`
//!   errors and connection resets;
//! * [`loadgen`] — deterministic concurrent load with **byte-identity**
//!   verification against an in-process reference engine (the service
//!   analogue of the DP frozen-reference equivalence suites; the serve
//!   integration and chaos suites drive the server with it).
//!
//! ```
//! use rip_core::Engine;
//! use rip_serve::{start_server, Client, Json, ServeConfig};
//! use rip_tech::Technology;
//!
//! let config = ServeConfig { workers: 2, ..ServeConfig::default() };
//! let server = start_server(Engine::paper(Technology::generic_180nm()), &config).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let response = client
//!     .request_line(r#"{"id":1,"cmd":"solve","net":{"segments":[[3000,0.08,0.2]]},"target_mult":1.5}"#)
//!     .unwrap();
//! let value = rip_serve::parse_json(&response).unwrap();
//! assert_eq!(value.get("ok"), Some(&Json::Bool(true)));
//! client.send_line(r#"{"cmd":"shutdown"}"#).unwrap();
//! server.join();
//! ```
//!
//! [`Engine`]: rip_core::Engine
//! [`Engine::set_value_cache_cap`]: rip_core::Engine::set_value_cache_cap

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod fault;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use fault::{FaultInjector, FaultPlan};
pub use json::{parse_json, Json, JsonError};
pub use loadgen::{
    connection_script, net_pool, run_loadgen, tree_pool, LoadgenConfig, LoadgenOutcome,
    ScriptedRequest,
};
pub use protocol::{
    net_from_json, net_to_json, parse_line, tree_from_json, tree_to_json, ErrorCode, Request,
    RequestError, Response, ServeState, ServerInfo, Target, TreeEntry, COMMANDS, PROTO_VERSION,
};
pub use server::{start_server, ServeConfig, ServerHandle, ServerMonitor};
