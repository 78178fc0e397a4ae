//! A small blocking client for the service protocol: one line out, one
//! line back. Used by the CLI's `rip client`, the load generator, the
//! integration tests, and CI's smoke test.
//!
//! With a [`RetryPolicy`] attached ([`Client::with_retry`]), transient
//! failures — typed `busy`/`timeout`/`internal` errors,
//! connection resets, and truncated (unparseable) response lines — are
//! retried over a **fresh connection** with capped exponential backoff
//! and deterministic [`SplitMix64`] jitter. Reconnecting before every
//! retry is what makes retrying safe: a half-written request or a
//! half-read response can never corrupt the framing of the next
//! attempt.

use crate::json::{parse_json, Json};
use crate::protocol::ErrorCode;
use rip_net::SplitMix64;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// When and how a [`Client`] retries transient failures: up to
/// `retries` extra attempts, sleeping a capped exponential backoff with
/// deterministic jitter between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail fast, the default).
    pub retries: u32,
    /// Base backoff before the first retry, milliseconds; doubles per
    /// retry. 0 = retry immediately (tests).
    pub backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> Self {
        Self {
            retries: 0,
            backoff_ms: 0,
            max_backoff_ms: 0,
            seed: 2005,
        }
    }

    /// `retries` extra attempts starting at `backoff_ms` (ceiling
    /// 16× the base).
    pub fn new(retries: u32, backoff_ms: u64) -> Self {
        Self {
            retries,
            backoff_ms,
            max_backoff_ms: backoff_ms.saturating_mul(16),
            seed: 2005,
        }
    }

    /// The sleep before retry number `attempt` (0-based): the base
    /// doubled per attempt, capped, then jittered into `[0.5, 1.0]` of
    /// itself so synchronized clients fan out.
    fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        if self.backoff_ms == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff_ms.max(self.backoff_ms));
        Duration::from_millis(((exp as f64) * (0.5 + 0.5 * rng.next_f64())) as u64)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: SplitMix64,
    attempts: u64,
    retries: u64,
    gave_up: u64,
}

impl Client {
    /// Connects to a running server (no retries — see
    /// [`Client::with_retry`]).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Solves can take a while on cold caches, but nothing should
        // take minutes; a generous timeout keeps a dead server from
        // hanging scripts forever.
        stream.set_read_timeout(Some(Duration::from_secs(300)))?;
        Ok(Self {
            // The peer address (not the input, which may resolve to
            // many) is what a retry reconnects to.
            addr: stream.peer_addr()?,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            policy: RetryPolicy::none(),
            rng: SplitMix64::new(RetryPolicy::none().seed),
            attempts: 0,
            retries: 0,
            gave_up: 0,
        })
    }

    /// Attaches a retry policy (and reseeds the backoff jitter from
    /// it).
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self.rng = SplitMix64::new(policy.seed);
        self
    }

    /// Request attempts made, including retries.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Retries performed (attempts beyond each request's first).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests that exhausted every retry and surfaced their last
    /// failure.
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    /// Replaces the connection with a fresh one to the same peer.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(300)))?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// Sends one raw request line (newline appended) without waiting
    /// for a response — use before dropping the connection (e.g.
    /// `shutdown`) or followed by [`Client::read_line`]. Never retried.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads one response line (without the trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::UnexpectedEof`] when the server closed
    /// the connection.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one raw request line and returns the raw response line —
    /// the byte-exact round trip the loadgen's identity check compares.
    /// With a [`RetryPolicy`] attached, transient failures retry over a
    /// fresh connection; a returned `Ok` line may still be a typed
    /// error (the last one, after retries ran out).
    ///
    /// # Errors
    ///
    /// Propagates the final socket error once retries are exhausted.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        if self.policy.retries == 0 {
            self.attempts += 1;
            self.send_line(line)?;
            return self.read_line();
        }
        let mut last: Option<io::Result<String>> = None;
        for attempt in 0..=self.policy.retries {
            if attempt > 0 {
                self.retries += 1;
                let backoff = self.policy.backoff(attempt - 1, &mut self.rng);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                // A fresh connection per retry: the old one may hold a
                // half-written request or half-read response, and a
                // drain-cut socket is dead anyway.
                if let Err(e) = self.reconnect() {
                    last = Some(Err(e));
                    continue;
                }
            }
            self.attempts += 1;
            let result = self.send_line(line).and_then(|()| self.read_line());
            match result {
                Ok(response) if response_retryable(&response) => last = Some(Ok(response)),
                Ok(response) => return Ok(response),
                Err(e) if io_retryable(&e) => last = Some(Err(e)),
                Err(e) => return Err(e),
            }
        }
        self.gave_up += 1;
        last.expect("at least one attempt ran")
    }

    /// Sends a request value and parses the response (retrying per the
    /// policy, like [`Client::request_line`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; an unparseable response becomes
    /// [`io::ErrorKind::InvalidData`].
    pub fn request_value(&mut self, request: &Json) -> io::Result<Json> {
        let response = self.request_line(&request.to_string())?;
        parse_json(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// `true` when a response line is worth retrying: a typed error whose
/// code is transient ([`ErrorCode::retryable`]), or a line that does
/// not parse at all — which is exactly what a connection cut
/// mid-response leaves behind.
fn response_retryable(line: &str) -> bool {
    let Ok(value) = parse_json(line) else {
        return true;
    };
    if value.get("ok") == Some(&Json::Bool(true)) {
        return false;
    }
    match value.get("code") {
        Some(Json::Str(code)) => ErrorCode::from_wire(code).is_some_and(|c| c.retryable()),
        _ => false,
    }
}

/// `true` for the transport errors a reconnect can cure: resets, EOFs
/// (the server cut the connection), timeouts, and refused dials (the
/// server may still be coming up between retries).
fn io_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionRefused
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_doubling_with_bounded_jitter() {
        let policy = RetryPolicy::new(5, 100);
        assert_eq!(policy.max_backoff_ms, 1600);
        let mut rng = SplitMix64::new(policy.seed);
        let mut previous_cap = 0;
        for attempt in 0..8 {
            let sleep = policy.backoff(attempt, &mut rng).as_millis() as u64;
            let cap = (100u64 << attempt).min(1600);
            assert!(sleep <= cap, "attempt {attempt}: {sleep} > {cap}");
            assert!(sleep >= cap / 2, "attempt {attempt}: {sleep} < {}", cap / 2);
            assert!(cap >= previous_cap, "caps must not shrink");
            previous_cap = cap;
        }
        // Zero base means immediate retries, deterministically.
        let zero = RetryPolicy::new(3, 0);
        assert_eq!(zero.backoff(2, &mut rng), Duration::ZERO);
    }

    #[test]
    fn retryability_classification_matches_the_protocol() {
        // Transient typed errors retry.
        assert!(response_retryable(
            r#"{"ok":false,"code":"busy","error":"x"}"#
        ));
        assert!(response_retryable(
            r#"{"ok":false,"code":"timeout","error":"x"}"#
        ));
        assert!(response_retryable(
            r#"{"ok":false,"code":"internal","error":"x"}"#
        ));
        // Permanent typed errors do not.
        assert!(!response_retryable(
            r#"{"ok":false,"code":"bad_request","error":"x"}"#
        ));
        assert!(!response_retryable(
            r#"{"ok":false,"code":"shutting_down","error":"x"}"#
        ));
        // So do codes this client does not know.
        assert!(!response_retryable(
            r#"{"ok":false,"code":"made_up","error":"x"}"#
        ));
        // Successes do not.
        assert!(!response_retryable(r#"{"ok":true,"tau_min_ps":1.0}"#));
        // A truncated line (the drop fault's signature) does.
        assert!(response_retryable(r#"{"ok":true,"tau_m"#));
    }
}
