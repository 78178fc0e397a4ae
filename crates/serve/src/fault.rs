//! Supervision and deterministic fault injection for the serve stack.
//!
//! Two halves, one module:
//!
//! * **Supervision** — [`supervised_handle`] wraps request dispatch in
//!   [`catch_unwind`], so a panic anywhere inside the engine becomes a
//!   typed `internal` error response (carrying the request id, because
//!   the caller still renders it) instead of a dead worker thread. The
//!   server's supervised engine slot then replaces the panicked state
//!   with a fresh engine built from an identical recipe — its `τ_min`
//!   memo restarts cold, but correctness is untouched because memoizing
//!   never changes results.
//! * **Fault injection** — a seeded [`FaultPlan`] drives three fault
//!   families from inside the serving path: panic every Nth eligible
//!   request, delay every Nth by a fixed amount, and cut the connection
//!   mid-response every Nth reply. The plan is deterministic: ordinals
//!   count per connection ([`FaultOrdinals`]) and drop points come from
//!   [`SplitMix64`] jitter off the seed. Whether a request draws a fault
//!   depends only on its position in its own connection, never on how
//!   connections interleave, which is what lets the chaos suite assert
//!   *exact* panic/respawn counts and byte-identity of every
//!   successfully answered request against a fault-free server.
//!
//! Only non-control requests are fault-eligible
//! ([`Request::is_control`] exempts `hello`, `stats`, `reset_stats`,
//! `drain` and `shutdown`): operators must be able to observe and drain
//! a degraded server, so the monitoring and lifecycle plane never
//! injects faults into itself.

use crate::protocol::{ErrorCode, Request, Response, ServeState};
use rip_core::{Engine, RipConfig};
use rip_net::SplitMix64;
use rip_tech::Technology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A deterministic fault schedule. All periods count *eligible*
/// (non-control) requests of one connection; `0` disables that fault
/// family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside the handler on every Nth eligible request (0 = off).
    pub panic_every: u64,
    /// Delay the handler on every Nth eligible request (0 = off).
    pub delay_every: u64,
    /// How long an injected delay sleeps, milliseconds.
    pub delay_ms: u64,
    /// Cut the connection mid-response on every Nth eligible reply
    /// (0 = off). The cut point is seeded, strictly inside the JSON
    /// text, so the client always sees a truncated (unparseable) line.
    pub drop_every: u64,
    /// Seed for the drop-point jitter.
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        Self {
            panic_every: 0,
            delay_every: 0,
            delay_ms: 0,
            drop_every: 0,
            seed: 2005,
        }
    }

    /// `true` when any fault family is enabled.
    pub fn is_active(&self) -> bool {
        self.panic_every > 0 || self.delay_every > 0 || self.drop_every > 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// One connection's fault ordinals: the eligible requests it has had
/// handled and the eligible replies it has been sent. The server keeps
/// one per connection, so a client retry — which reconnects — starts
/// counting from 1 again.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultOrdinals {
    handled: u64,
    sent: u64,
}

/// The shared fault-injection state of one server: the plan plus the
/// tallies of every fault actually fired (what the chaos suite
/// reconciles `stats` against).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    armed: AtomicBool,
    panics: AtomicU64,
    delays: AtomicU64,
    drops: AtomicU64,
}

impl FaultInjector {
    /// An injector executing `plan` (armed immediately).
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            armed: AtomicBool::new(true),
            panics: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        }
    }

    /// An injector that never fires (the production default).
    pub fn disabled() -> Self {
        Self::new(FaultPlan::none())
    }

    /// The schedule this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Arms or disarms the injector at runtime. Disarming stops new
    /// faults without touching the tallies — how the chaos suite runs
    /// its post-fault clean round against the same server.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// `true` while faults fire.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Called by a supervised handler before dispatching one eligible
    /// request of the connection counted by `ordinals`: fires the delay
    /// and/or panic fault when the request's ordinal matches the plan.
    ///
    /// # Panics
    ///
    /// Panics deliberately on every `panic_every`th eligible request
    /// while armed — that is the injected fault.
    pub fn before_handle(&self, ordinals: &mut FaultOrdinals) {
        if !self.plan.is_active() {
            return;
        }
        ordinals.handled += 1;
        let ordinal = ordinals.handled;
        if !self.armed() {
            return;
        }
        if self.plan.delay_every > 0 && ordinal % self.plan.delay_every == 0 {
            self.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.plan.delay_ms));
        }
        if self.plan.panic_every > 0 && ordinal % self.plan.panic_every == 0 {
            let n = self.panics.fetch_add(1, Ordering::Relaxed) + 1;
            panic!("injected fault: panic #{n} (eligible request ordinal {ordinal})");
        }
    }

    /// Called by the transport before writing one eligible response of
    /// `len` bytes (JSON text plus the trailing newline) on the
    /// connection counted by `ordinals`: returns the byte offset to cut
    /// the connection at, or `None` to send it whole. A cut is always
    /// strictly inside the JSON text, so the client can never mistake
    /// the truncation for a complete response.
    pub fn drop_response(&self, ordinals: &mut FaultOrdinals, len: usize) -> Option<usize> {
        if self.plan.drop_every == 0 {
            return None;
        }
        ordinals.sent += 1;
        let ordinal = ordinals.sent;
        if !self.armed() || ordinal % self.plan.drop_every != 0 || len < 3 {
            return None;
        }
        self.drops.fetch_add(1, Ordering::Relaxed);
        let mut rng = SplitMix64::new(self.plan.seed ^ ordinal);
        Some(rng.range_usize(1, len - 2))
    }

    /// Panics injected so far.
    pub fn injected_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Delays injected so far.
    pub fn injected_delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// Mid-response connection cuts injected so far.
    pub fn injected_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }
}

/// Dispatches one typed request under supervision: injected faults fire
/// first (non-control requests only, counted on the connection's
/// `ordinals`), then [`ServeState::handle_request`] runs inside
/// [`catch_unwind`]. A panic — injected or real — comes back as `Err`
/// with the panic message; the caller answers with [`internal_error`]
/// and respawns the state.
pub fn supervised_handle(
    state: &ServeState,
    request: &Request,
    faults: &FaultInjector,
    ordinals: &mut FaultOrdinals,
) -> Result<Response, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if !request.is_control() {
            faults.before_handle(ordinals);
        }
        state.handle_request(request)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// The typed `internal` error a caught panic renders to the client. The
/// caller renders it with the request's echoed id, so a pipelining
/// client knows exactly which request died.
pub fn internal_error(cmd: &str, panic_msg: &str) -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        error: format!(
            "'{cmd}' hit a server panic ({panic_msg}); the worker was respawned with a fresh \
             engine — the request may be retried"
        ),
    }
}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` payloads; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The recipe a respawn rebuilds the engine from: technology,
/// configuration, `τ_min` memo cap and scratch-pool size, captured once at
/// startup (the engine itself is not retained).
#[derive(Debug)]
struct EngineTemplate {
    tech: Technology,
    config: RipConfig,
    value_cache_cap: usize,
    scratch_cap: usize,
}

impl EngineTemplate {
    fn of(engine: &Engine, scratch_cap: usize) -> Self {
        Self {
            tech: engine.technology().clone(),
            config: engine.config().clone(),
            value_cache_cap: engine.value_cache_cap(),
            scratch_cap,
        }
    }

    /// A fresh state replacing `old` after a panic: cold caches (the
    /// engine is new), but the serving counters, server info **and
    /// metrics registry** carry over so monitoring history
    /// survives the respawn — the replacement engine adopts the old
    /// engine's registry, keeping every previously resolved histogram
    /// handle valid.
    fn respawn_state(&self, old: &ServeState) -> Arc<ServeState> {
        let mut engine = Engine::new(self.tech.clone(), self.config.clone());
        engine.set_value_cache_cap(self.value_cache_cap);
        engine.set_scratch_cap(self.scratch_cap);
        engine.adopt_metrics(Arc::clone(old.engine().metrics_registry()));
        let state = Arc::new(ServeState::new(engine));
        state.set_server_info(old.server_info());
        state.restore_counters(old.requests(), old.connections());
        state
    }
}

/// The server's supervised engine slot: the shared [`ServeState`] every
/// connection worker solves in (swapped on respawn after a caught
/// panic), the recipe that rebuilds it, and the supervision tallies.
#[derive(Debug)]
pub(crate) struct EngineSlot {
    live: Mutex<Arc<ServeState>>,
    template: EngineTemplate,
    panics: AtomicU64,
    respawns: AtomicU64,
}

impl EngineSlot {
    /// Wraps `state`, whose engine the respawn recipe is captured from
    /// (`scratch_cap` is the scratch-pool size a fresh engine gets).
    pub(crate) fn new(state: ServeState, scratch_cap: usize) -> Self {
        Self {
            template: EngineTemplate::of(state.engine(), scratch_cap),
            live: Mutex::new(Arc::new(state)),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
        }
    }

    /// The live state (post-respawn reads see the replacement).
    pub(crate) fn state(&self) -> Arc<ServeState> {
        Arc::clone(
            &self
                .live
                .lock()
                .expect("engine slot lock is never poisoned"),
        )
    }

    /// Dispatches `request` under supervision: a caught panic answers
    /// with a typed `internal` error and the shared state respawns from
    /// its recipe (cold caches, counters carried over).
    pub(crate) fn handle(
        &self,
        request: &Request,
        faults: &FaultInjector,
        ordinals: &mut FaultOrdinals,
    ) -> Response {
        let state = self.state();
        match supervised_handle(&state, request, faults, ordinals) {
            Ok(response) => response,
            Err(panic_msg) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                *self
                    .live
                    .lock()
                    .expect("engine slot lock is never poisoned") =
                    self.template.respawn_state(&state);
                self.respawns.fetch_add(1, Ordering::Relaxed);
                internal_error(request.cmd(), &panic_msg)
            }
        }
    }

    /// Supervision tallies: `(panics, respawns)`.
    pub(crate) fn tallies(&self) -> (u64, u64) {
        (
            self.panics.load(Ordering::Relaxed),
            self.respawns.load(Ordering::Relaxed),
        )
    }

    /// Rezeroes the supervision tallies (`reset_stats`).
    pub(crate) fn reset_tallies(&self) {
        self.panics.store(0, Ordering::Relaxed);
        self.respawns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServeState {
        ServeState::new(Engine::paper(Technology::generic_180nm()))
    }

    fn tau_min_request() -> Request {
        Request::TauMin {
            net: rip_net::NetGenerator::suite(rip_net::RandomNetConfig::default(), 7, 1)
                .unwrap()
                .remove(0),
        }
    }

    #[test]
    fn an_inactive_plan_never_counts_or_fires() {
        let faults = FaultInjector::disabled();
        let mut ordinals = FaultOrdinals::default();
        for _ in 0..50 {
            faults.before_handle(&mut ordinals);
            assert_eq!(faults.drop_response(&mut ordinals, 100), None);
        }
        assert_eq!(ordinals, FaultOrdinals::default());
        assert_eq!(faults.injected_panics(), 0);
        assert_eq!(faults.injected_delays(), 0);
        assert_eq!(faults.injected_drops(), 0);
    }

    #[test]
    fn panics_are_caught_and_counted_exactly() {
        let state = state();
        let faults = FaultInjector::new(FaultPlan {
            panic_every: 3,
            ..FaultPlan::none()
        });
        let mut ordinals = FaultOrdinals::default();
        let mut internal = 0;
        for _ in 0..9 {
            match supervised_handle(&state, &Request::Shutdown, &faults, &mut ordinals) {
                Ok(_) => {}
                Err(_) => internal += 1,
            }
        }
        // Shutdown is control-plane: never eligible, never panics.
        assert_eq!(internal, 0);
        let solve = tau_min_request();
        for k in 1..=9u64 {
            let result = supervised_handle(&state, &solve, &faults, &mut ordinals);
            if k % 3 == 0 {
                let msg = result.expect_err("every 3rd eligible request must panic");
                assert!(msg.contains("injected fault"), "{msg}");
            } else {
                assert!(result.is_ok(), "ordinal {k} should have survived");
            }
        }
        assert_eq!(faults.injected_panics(), 3);
        let error = internal_error("tau_min", "injected fault: panic #1");
        match &error {
            Response::Error { code, error } => {
                assert_eq!(*code, ErrorCode::Internal);
                assert!(error.contains("tau_min"), "{error}");
                assert!(error.contains("respawned"), "{error}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn ordinals_count_per_connection() {
        // Two connections interleaved request by request: each panics on
        // its own 2nd eligible request, whatever the other one did.
        let state = state();
        let faults = FaultInjector::new(FaultPlan {
            panic_every: 2,
            ..FaultPlan::none()
        });
        let solve = tau_min_request();
        let (mut a, mut b) = (FaultOrdinals::default(), FaultOrdinals::default());
        assert!(supervised_handle(&state, &solve, &faults, &mut a).is_ok());
        assert!(supervised_handle(&state, &solve, &faults, &mut b).is_ok());
        assert!(supervised_handle(&state, &solve, &faults, &mut a).is_err());
        assert!(supervised_handle(&state, &solve, &faults, &mut b).is_err());
        // A fresh connection (a retry reconnects) starts over at 1.
        let mut retry = FaultOrdinals::default();
        assert!(supervised_handle(&state, &solve, &faults, &mut retry).is_ok());
        assert_eq!(faults.injected_panics(), 2);
    }

    #[test]
    fn drop_points_are_deterministic_and_strictly_inside_the_text() {
        let plan = FaultPlan {
            drop_every: 4,
            seed: 99,
            ..FaultPlan::none()
        };
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let (mut conn_a, mut conn_b) = (FaultOrdinals::default(), FaultOrdinals::default());
        let mut cuts = 0;
        for k in 1..=32u64 {
            let cut_a = a.drop_response(&mut conn_a, 64);
            let cut_b = b.drop_response(&mut conn_b, 64);
            assert_eq!(cut_a, cut_b, "drop schedule must be deterministic");
            if let Some(cut) = cut_a {
                assert!(k % 4 == 0);
                // Inside the JSON text: never offset 0 (nothing sent)
                // and never the full line or the newline boundary.
                assert!((1..=62).contains(&cut), "cut {cut} out of range");
                cuts += 1;
            }
        }
        assert_eq!(cuts, 8);
        assert_eq!(a.injected_drops(), 8);
        // Tiny lines are never cut (no room strictly inside).
        let mut fresh = FaultOrdinals::default();
        for _ in 0..8 {
            assert_eq!(a.drop_response(&mut fresh, 2), None);
        }
    }

    #[test]
    fn disarming_stops_faults_without_clearing_tallies() {
        let faults = FaultInjector::new(FaultPlan {
            panic_every: 1,
            drop_every: 1,
            ..FaultPlan::none()
        });
        let state = state();
        let solve = tau_min_request();
        let mut ordinals = FaultOrdinals::default();
        assert!(supervised_handle(&state, &solve, &faults, &mut ordinals).is_err());
        assert!(faults.drop_response(&mut ordinals, 64).is_some());
        faults.set_armed(false);
        assert!(supervised_handle(&state, &solve, &faults, &mut ordinals).is_ok());
        assert_eq!(faults.drop_response(&mut ordinals, 64), None);
        assert_eq!(faults.injected_panics(), 1);
        assert_eq!(faults.injected_drops(), 1);
    }
}
