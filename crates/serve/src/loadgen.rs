//! Deterministic load generation for the service: N concurrent
//! connections each firing a fixed, seeded mix of `solve` / `batch` /
//! `tau_min` / `stats` requests, with every deterministic response
//! checked **byte-identical** against an in-process reference
//! [`ServeState`] running the same engine configuration.
//!
//! The identity check is the service analogue of the DP engines'
//! frozen-reference equivalence suites: serving must never change an
//! answer, no matter how warm the caches are or how many connections
//! interleave. `stats` responses are inherently racy (they read live
//! counters) and are only checked for `ok: true`.

use crate::client::{Client, RetryPolicy};
use crate::json::{parse_json, Json};
use crate::protocol::{net_to_json, tree_to_json, ServeState};
use rip_net::{
    NetGenerator, RandomNetConfig, RandomTreeConfig, TreeNet, TreeNetGenerator, TwoPinNet,
};
use std::io;
use std::net::SocketAddr;

/// Workload shape of one loadgen run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenConfig {
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Requests sent per connection.
    pub requests_per_conn: usize,
    /// Distinct nets in the request pool (requests cycle through them,
    /// so smaller pools produce warmer caches).
    pub nets: usize,
    /// Distinct masked trees in the request pool
    /// ([`RandomTreeConfig::compact`], so every topology carries a
    /// forbidden run and solves fast). `0` — the default — disables
    /// `solve_tree` requests and leaves the classic chain-only mix
    /// byte-for-byte unchanged.
    pub trees: usize,
    /// Net-suite seed (the tree pool derives its own seed from this).
    pub seed: u64,
    /// Relative timing target sent with every solve.
    pub target_mult: f64,
    /// Retry policy attached to every loadgen connection
    /// ([`RetryPolicy::none`] by default; the chaos suite turns it on
    /// to prove convergence under injected faults).
    pub retry: RetryPolicy,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            requests_per_conn: 32,
            nets: 12,
            trees: 0,
            seed: 2005,
            target_mult: 1.4,
            retry: RetryPolicy::none(),
        }
    }
}

/// Result of one loadgen run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadgenOutcome {
    /// Requests sent (across all connections).
    pub requests: usize,
    /// Responses that failed (`ok: false`, unparseable, or transport
    /// errors surfaced as mismatching lines).
    pub errors: usize,
    /// Deterministic responses whose bytes differed from the reference.
    pub mismatches: usize,
    /// Deterministic responses that were byte-checked.
    pub verified: usize,
    /// Failed responses whose typed code was `internal` (caught server
    /// panics) — the chaos suite's capacity-recovery gate demands this
    /// reaches zero on a post-fault round.
    pub internal_errors: usize,
    /// Request attempts across every connection, including retries.
    pub attempts: u64,
    /// Retries across every connection.
    pub retries: u64,
    /// Requests that exhausted their retries.
    pub gave_up: u64,
}

impl LoadgenOutcome {
    /// `true` when every byte-checked response matched the reference
    /// and nothing errored.
    pub fn clean(&self) -> bool {
        self.errors == 0 && self.mismatches == 0
    }
}

/// One scripted request: the raw line plus whether its response is
/// deterministic (and therefore byte-checked against the reference).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedRequest {
    /// The request line (one JSON document, no newline).
    pub line: String,
    /// Whether the response is deterministic given the engine
    /// configuration (everything except `stats`).
    pub deterministic: bool,
}

/// Builds the deterministic request script of one connection.
///
/// The mix cycles solves over the net pool with periodic `tau_min`,
/// 3-net `batch` and `stats` requests mixed in — connections start at
/// different pool offsets so concurrent connections hit overlapping
/// but not identical sequences. With a non-empty tree pool, every
/// eighth request is a masked `solve_tree` (the generated trees carry
/// forbidden runs), alternating between the tree's own `blocked` flags
/// and an equivalent explicit `allowed` override so both request
/// spellings stay covered.
pub fn connection_script(
    connection: usize,
    nets: &[TwoPinNet],
    trees: &[TreeNet],
    config: &LoadgenConfig,
) -> Vec<ScriptedRequest> {
    (0..config.requests_per_conn)
        .map(|k| {
            let id = (connection * 100_000 + k) as u64;
            let pick = |offset: usize| &nets[(connection + k + offset) % nets.len()];
            match k % 8 {
                1 if !trees.is_empty() => {
                    // Cycle by the tree-request ordinal (k / 8), not k
                    // itself: k is always ≡ 1 (mod 8) in this arm, so
                    // indexing by k would stick pool sizes sharing a
                    // factor with 8 on one entry per connection.
                    let tree = &trees[(connection + k / 8) % trees.len()];
                    let mut fields = vec![
                        ("id", Json::from(id)),
                        ("cmd", Json::from("solve_tree")),
                        ("tree", tree_to_json(tree)),
                        ("target_mult", Json::Num(config.target_mult)),
                    ];
                    // Odd rounds spell the mask as an explicit override
                    // (same bits — the responses must not care).
                    if (k / 8) % 2 == 1 {
                        fields.push((
                            "allowed",
                            Json::Arr(tree.allowed_mask().into_iter().map(Json::Bool).collect()),
                        ));
                    }
                    ScriptedRequest {
                        line: Json::obj(fields).to_string(),
                        deterministic: true,
                    }
                }
                5 => ScriptedRequest {
                    line: Json::obj([("id", Json::from(id)), ("cmd", Json::from("stats"))])
                        .to_string(),
                    deterministic: false,
                },
                7 => ScriptedRequest {
                    line: Json::obj([
                        ("id", Json::from(id)),
                        ("cmd", Json::from("tau_min")),
                        ("net", net_to_json(pick(0))),
                    ])
                    .to_string(),
                    deterministic: true,
                },
                3 => ScriptedRequest {
                    line: Json::obj([
                        ("id", Json::from(id)),
                        ("cmd", Json::from("batch")),
                        (
                            "nets",
                            Json::Arr(vec![
                                net_to_json(pick(0)),
                                net_to_json(pick(1)),
                                net_to_json(pick(2)),
                            ]),
                        ),
                        ("target_mult", Json::Num(config.target_mult)),
                    ])
                    .to_string(),
                    deterministic: true,
                },
                _ => ScriptedRequest {
                    line: Json::obj([
                        ("id", Json::from(id)),
                        ("cmd", Json::from("solve")),
                        ("net", net_to_json(pick(0))),
                        ("target_mult", Json::Num(config.target_mult)),
                    ])
                    .to_string(),
                    deterministic: true,
                },
            }
        })
        .collect()
}

/// The deterministic net pool of a loadgen configuration.
///
/// # Panics
///
/// Panics when `config.nets` is 0 (an empty pool cannot script
/// requests).
pub fn net_pool(config: &LoadgenConfig) -> Vec<TwoPinNet> {
    assert!(config.nets > 0, "the loadgen needs at least one net");
    NetGenerator::suite(RandomNetConfig::default(), config.seed, config.nets)
        .expect("the default net distribution is valid")
}

/// The deterministic masked-tree pool of a loadgen configuration
/// (empty when `config.trees` is 0 — the chain-only mix).
pub fn tree_pool(config: &LoadgenConfig) -> Vec<TreeNet> {
    TreeNetGenerator::suite(
        RandomTreeConfig::compact(),
        config.seed.wrapping_add(1),
        config.trees,
    )
    .expect("the compact tree distribution is valid")
}

/// Runs one load: builds the scripts for `config`, renders the
/// expected responses through `reference` (a [`ServeState`] over an
/// identically-configured engine; pass `None` to skip verification,
/// e.g. under injected faults), then opens one connection per script,
/// sends every request, and byte-checks the responses that carry an
/// expectation.
///
/// # Errors
///
/// Returns the first transport-level error (connect/read/write); a
/// response-level failure is counted in
/// [`LoadgenOutcome::errors`] instead.
pub fn run_loadgen(
    addr: SocketAddr,
    reference: Option<&ServeState>,
    config: &LoadgenConfig,
) -> io::Result<LoadgenOutcome> {
    let nets = net_pool(config);
    let trees = tree_pool(config);
    let scripts: Vec<Vec<ScriptedRequest>> = (0..config.connections.max(1))
        .map(|c| connection_script(c, &nets, &trees, config))
        .collect();
    // Per-script expected response lines (`None` for unverified
    // requests: non-deterministic ones, or all without a reference).
    let expected: Vec<Vec<Option<String>>> = scripts
        .iter()
        .map(|script| {
            script
                .iter()
                .map(|req| {
                    reference
                        .filter(|_| req.deterministic)
                        .map(|r| r.handle_line(&req.line).0.to_string())
                })
                .collect()
        })
        .collect();
    let results: Vec<io::Result<LoadgenOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(&expected)
            .enumerate()
            .map(|(i, (script, expected))| {
                scope.spawn(move || -> io::Result<LoadgenOutcome> {
                    // Per-connection jitter seed: identical policies on
                    // every thread must not back off in lockstep.
                    let mut policy = config.retry;
                    policy.seed ^= (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut client = Client::connect(addr)?.with_retry(policy);
                    let mut tally = LoadgenOutcome {
                        requests: script.len(),
                        ..LoadgenOutcome::default()
                    };
                    for (req, expect) in script.iter().zip(expected) {
                        let response = client.request_line(&req.line)?;
                        let parsed = parse_json(&response).ok();
                        let ok = parsed
                            .as_ref()
                            .and_then(|v| v.get("ok").and_then(Json::as_bool))
                            .unwrap_or(false);
                        if !ok {
                            tally.errors += 1;
                            if parsed.as_ref().and_then(|v| v.get("code"))
                                == Some(&Json::Str("internal".to_string()))
                            {
                                tally.internal_errors += 1;
                            }
                        }
                        if let Some(expect) = expect {
                            tally.verified += 1;
                            if &response != expect {
                                tally.mismatches += 1;
                            }
                        }
                    }
                    tally.attempts = client.attempts();
                    tally.retries = client.retries();
                    tally.gave_up = client.gave_up();
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection threads do not panic"))
            .collect()
    });
    let mut outcome = LoadgenOutcome::default();
    for result in results {
        let tally = result?;
        outcome.requests += tally.requests;
        outcome.errors += tally.errors;
        outcome.mismatches += tally.mismatches;
        outcome.verified += tally.verified;
        outcome.internal_errors += tally.internal_errors;
        outcome.attempts += tally.attempts;
        outcome.retries += tally.retries;
        outcome.gave_up += tally.gave_up;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_mixed() {
        let config = LoadgenConfig::default();
        let nets = net_pool(&config);
        let trees = tree_pool(&config);
        assert!(trees.is_empty(), "the default mix stays chain-only");
        let a = connection_script(0, &nets, &trees, &config);
        let b = connection_script(0, &nets, &trees, &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), config.requests_per_conn);
        let stats = a.iter().filter(|r| r.line.contains("\"stats\"")).count();
        let batches = a.iter().filter(|r| r.line.contains("\"batch\"")).count();
        let taus = a.iter().filter(|r| r.line.contains("\"tau_min\"")).count();
        assert!(stats > 0 && batches > 0 && taus > 0, "mix covers commands");
        assert!(a.iter().filter(|r| r.line.contains("\"solve\"")).count() > stats);
        assert!(
            !a.iter().any(|r| r.line.contains("solve_tree")),
            "an empty tree pool must leave the classic mix untouched"
        );
        // Different connections script different sequences.
        assert_ne!(a, connection_script(1, &nets, &trees, &config));
        // stats is the only non-deterministic request.
        for req in &a {
            assert_eq!(req.deterministic, !req.line.contains("\"stats\""));
        }
    }

    #[test]
    fn tree_mix_scripts_masked_solves_in_both_spellings() {
        let config = LoadgenConfig {
            trees: 2,
            ..LoadgenConfig::default()
        };
        let nets = net_pool(&config);
        let trees = tree_pool(&config);
        assert_eq!(trees.len(), 2);
        assert!(
            trees.iter().any(|t| t.allowed_mask().iter().any(|ok| !ok)),
            "the compact pool must carry real masks"
        );
        let script = connection_script(0, &nets, &trees, &config);
        let tree_reqs: Vec<_> = script
            .iter()
            .filter(|r| r.line.contains("solve_tree"))
            .collect();
        assert_eq!(tree_reqs.len(), config.requests_per_conn / 8);
        assert!(tree_reqs.iter().all(|r| r.deterministic));
        // Both spellings of the mask appear: blocked flags only, and
        // the explicit `allowed` override.
        assert!(tree_reqs.iter().any(|r| r.line.contains("\"allowed\"")));
        assert!(tree_reqs.iter().any(|r| !r.line.contains("\"allowed\"")));
        // The non-tree arms are untouched relative to the chain mix.
        let chain_only = connection_script(0, &nets, &[], &config);
        for (with_trees, chains) in script.iter().zip(&chain_only) {
            if !with_trees.line.contains("solve_tree") {
                assert_eq!(with_trees, chains);
            }
        }
    }
}
