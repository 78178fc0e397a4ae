//! The batch [`Engine`]: a long-lived session that owns a
//! [`Technology`] + [`RipConfig`] pair, memoizes `τ_min`, and solves
//! many nets in parallel.
//!
//! The free functions [`rip`](crate::rip), [`tree_rip`](crate::tree_rip)
//! and [`baseline_dp`](crate::baseline_dp) are thin wrappers over a
//! one-shot engine; anything that solves more than one net — the CLI
//! `batch` command, the experiment grids, the benchmarks — should hold an
//! engine so that:
//!
//! * `τ_min` — the chain min-delay DP and the tree min-delay DP behind
//!   every relative target — is computed once per net (tree: per
//!   `(topology, driver, coarse step, mask)`) across a whole target
//!   sweep. It is the engine's one memo: candidate grids, fine windows,
//!   synthesized libraries and tree subdivisions cost about as much to
//!   key as to rebuild, so every solve builds them directly;
//! * every DP stage solves on its thread's reusable scratch memory
//!   (owned by `rip_dp`, one chain and one tree scratch per thread), and
//!   a batch's calling thread works beside the threads it spawns, so a
//!   long-lived caller keeps its scratch warm from solve to solve;
//! * blocked tree nodes are binding: every tree entry point
//!   ([`Engine::solve_tree_masked`], [`Engine::solve_tree_batch_masked`],
//!   [`Engine::tree_tau_min_masked`], [`Engine::tree_baseline_masked`])
//!   takes an optional buffer-legality mask and threads it through every
//!   stage, the tree `τ_min` memo keys on the mask bits (masked and
//!   unmasked variants never alias), and an all-true mask normalizes to
//!   `None`, the unmasked pipeline, byte for byte;
//! * independent nets run on all available cores with deterministic,
//!   input-ordered output ([`Engine::solve_batch`],
//!   [`Engine::solve_tree_batch_masked`]).
//!
//! Memoizing never changes results: a cached `τ_min` is exactly the
//! value the DP would recompute, which the batch-determinism test suite
//! pins (`tests/engine_batch.rs`). The memo is a `HashMap` from key to
//! `(τ_min, use stamp)`. It can be bounded with
//! [`Engine::set_value_cache_cap`]: beyond the cap the *least recently
//! used* entry (the smallest stamp, found by a linear scan on the miss
//! that overflows) is evicted. Hits re-stamp their entry, counted in
//! [`EngineStats::promotions`]; drops count in
//! [`EngineStats::evictions`]. The bound trades recomputation for flat
//! memory on unbounded streams of distinct nets — the sizing knob of a
//! resident solver service (`rip_serve`).

use crate::baseline::BaselineConfig;
use crate::compare::{summarize_savings, SavingsSummary};
use crate::config::RipConfig;
use crate::error::RipError;
use crate::pipeline::{RipOutcome, RipRuntime};
use crate::tmin;
use crate::tree_pipeline::{TreeRipConfig, TreeRipOutcome};
use rip_delay::RcTree;
use rip_dp::{
    solve_min_delay, solve_min_power, tree_min_delay, tree_min_power, CandidateSet, DpError,
    DpSolution, DpStats,
};
use rip_net::TwoPinNet;
use rip_obs::{Histogram, MetricsRegistry};
use rip_refine::{refine, trim_tree_widths, RefineError, RefineOutcome, TreeTrimOutcome};
use rip_tech::{RepeaterLibrary, TechError, Technology};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a batch maps nets to timing targets.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BatchTarget {
    /// One absolute target for every net, fs.
    AbsoluteFs(f64),
    /// A per-net multiplier over that net's `τ_min` (computed once per
    /// net through the engine's memo) — the paper's target convention.
    TauMinMultiple(f64),
    /// Explicit per-net absolute targets, fs. Must have one entry per
    /// net.
    PerNetFs(Vec<f64>),
}

/// Memo-effectiveness counters of an [`Engine`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// `τ_min` lookups (chain and tree) served from the memo.
    pub tau_min_hits: u64,
    /// `τ_min` lookups that had to run the min-delay DP.
    pub tau_min_misses: u64,
    /// Chain solves completed (successful or not).
    pub nets_solved: u64,
    /// Tree solves completed (successful or not).
    pub trees_solved: u64,
    /// Memo hits that moved an entry to the most-recently-used position
    /// (LRU hit-promotes; a hit on the already-hottest entry is not
    /// counted).
    pub promotions: u64,
    /// Memo entries dropped by the LRU bound
    /// ([`Engine::set_value_cache_cap`]).
    pub evictions: u64,
}

impl EngineStats {
    /// Total lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.tau_min_hits
    }

    /// Total lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.tau_min_misses
    }

    /// Fraction of lookups served from the memo (0.0 when nothing has been
    /// looked up yet) — the service's headline amortization metric.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits() + self.misses();
        if lookups > 0 {
            self.hits() as f64 / lookups as f64
        } else {
            0.0
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    tau_min_hits: AtomicU64,
    tau_min_misses: AtomicU64,
    nets_solved: AtomicU64,
    trees_solved: AtomicU64,
    evictions: AtomicU64,
    promotions: AtomicU64,
}

/// An exact in-memory cache key: the `Debug` rendering of the inputs.
///
/// Rust's `{:?}` for `f64` prints the shortest representation that
/// round-trips, so distinct parameter values yield distinct keys — and
/// because the full string is the `HashMap` key (not a digest of it),
/// hash collisions are resolved by equality and can never serve a stale
/// or wrong cached value.
fn cache_key(value: &impl fmt::Debug) -> String {
    format!("{value:?}")
}

/// The `τ_min` memo key of a chain: the parts a [`TwoPinNet`] is built
/// from (segments, zones, driver and receiver width). The net's derived
/// `RcProfile` is `RcProfile::new(&segments)`, so it adds nothing to the
/// key, and its six vectors made up most of the cost of rendering one.
fn net_key(net: &TwoPinNet) -> String {
    cache_key(&(
        net.segments(),
        net.zones(),
        net.driver_width(),
        net.receiver_width(),
    ))
}

/// Validates a caller-supplied tree buffer-legality mask and normalizes
/// the trivial case: a mask that allows every *non-root* node is the
/// unmasked problem (the root entry is ignored throughout — the root
/// hosts the driver, never a buffer), so it collapses to `None` and
/// shares the unmasked memo entries, keeping trivially-masked solves
/// byte-identical to unmasked ones.
///
/// # Errors
///
/// Returns [`DpError::BadAllowedMask`] when the mask length does not
/// match the tree's node count.
fn effective_mask<'a>(
    tree: &RcTree,
    allowed: Option<&'a [bool]>,
) -> Result<Option<&'a [bool]>, DpError> {
    let Some(mask) = allowed else { return Ok(None) };
    if mask.len() != tree.len() {
        return Err(DpError::BadAllowedMask {
            got: mask.len(),
            expected: tree.len(),
        });
    }
    Ok(if mask[1..].iter().all(|&ok| ok) {
        None
    } else {
        Some(mask)
    })
}

/// Extends a memo key with the legality-mask bits — the ONE rule that
/// keeps masked and unmasked tree `τ_min` entries from ever aliasing.
/// `None` returns the base key unchanged, so unmasked lookups keep
/// their historical keys bit for bit.
fn masked_key(base: String, mask: Option<&[bool]>) -> String {
    match mask {
        None => base,
        Some(mask) => {
            let bits: String = mask.iter().map(|&ok| if ok { '1' } else { '0' }).collect();
            format!("{base}|mask:{bits}")
        }
    }
}

/// The `step_um` edge subdivision of a tree — its candidate buffer
/// sites — plus, for a masked solve, the buffer-legality mask (given on
/// the *original* node indexing) projected onto the subdivided
/// topology: inserted Steiner points inherit the legality of their
/// covering original edge ([`RcTree::project_allowed`]). `allowed`
/// must already be validated/normalized ([`effective_mask`]); `None`
/// yields `None`.
fn subdivide(tree: &RcTree, step_um: f64, allowed: Option<&[bool]>) -> (RcTree, Option<Vec<bool>>) {
    let (sub, map) = tree.subdivided(step_um);
    let projected = allowed.map(|mask| tree.project_allowed(&sub, &map, mask));
    (sub, projected)
}

/// Stage-3 library synthesis: every rounded width plus `steps` grid
/// neighbours — on both sides, or wider only when `upward_only` (the
/// chain's infeasibility-retry library).
fn synthesized_library(
    rounded: &RepeaterLibrary,
    grid: f64,
    steps: usize,
    upward_only: bool,
) -> Result<RepeaterLibrary, TechError> {
    let mut widths: Vec<f64> = Vec::new();
    for &w in rounded.widths() {
        widths.push(w);
        for k in 1..=steps {
            widths.push(w + grid * k as f64);
            if !upward_only {
                let below = w - grid * k as f64;
                if below >= grid - 1e-9 {
                    widths.push(below);
                }
            }
        }
    }
    RepeaterLibrary::from_widths(widths)
}

/// The `τ_min` memo: key → `(τ_min, stamp)`, where `stamp` is the use
/// clock's reading at the entry's last use. Stamps are unique and grow
/// with every insert and every promoting hit, so they order the entries
/// by recency exactly as a linked LRU list would: a hit re-stamps its
/// entry (a promotion, unless it already holds the newest stamp), and an
/// insert past the cap evicts the smallest stamp. That eviction is a
/// linear scan, run only by a miss at the cap, which has just paid for a
/// min-delay DP that costs far more than the scan. Eviction never
/// changes results: a dropped entry is recomputed to the same bits on
/// its next lookup, because every value is a pure function of its key.
#[derive(Debug, Default)]
struct TauMinMemo {
    entries: HashMap<String, (f64, u64)>,
    /// The newest stamp handed out (0 before the first insert).
    clock: u64,
}

impl TauMinMemo {
    /// Entry count.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up `key`; a hit re-stamps the entry as most recently used
    /// (counted in `promotions` unless it already held the newest
    /// stamp — a hit on the hottest entry is free and uncounted).
    fn get_promote(&mut self, key: &str, promotions: &AtomicU64) -> Option<f64> {
        let (value, stamp) = self.entries.get_mut(key)?;
        if *stamp != self.clock {
            self.clock += 1;
            *stamp = self.clock;
            promotions.fetch_add(1, Ordering::Relaxed);
        }
        Some(*value)
    }

    /// Completes a lookup whose value was computed outside the lock:
    /// returns the existing value when another worker won the race
    /// (`false` = hit, promoting it), otherwise inserts `value` with the
    /// newest stamp, evicts the smallest stamps down to `cap` (0 =
    /// unbounded, counting drops into `evictions`), and returns it
    /// (`true` = miss).
    fn finish(
        &mut self,
        key: String,
        value: f64,
        cap: usize,
        evictions: &AtomicU64,
        promotions: &AtomicU64,
    ) -> (f64, bool) {
        if let Some(existing) = self.get_promote(&key, promotions) {
            return (existing, false);
        }
        self.clock += 1;
        self.entries.insert(key, (value, self.clock));
        while cap > 0 && self.entries.len() > cap {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, stamp))| stamp)
                .map(|(key, _)| key.clone())
                .expect("an over-cap memo is not empty");
            self.entries.remove(&victim);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
        (value, true)
    }

    /// Keys from most- to least-recently-used.
    #[cfg(test)]
    fn recency_order(&self) -> Vec<String> {
        let mut by_stamp: Vec<(u64, &String)> = self
            .entries
            .iter()
            .map(|(key, &(_, stamp))| (stamp, key))
            .collect();
        by_stamp.sort_unstable_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
        by_stamp.into_iter().map(|(_, key)| key.clone()).collect()
    }
}

/// Deterministic parallel map over the available cores: the calling
/// thread works as one of the workers beside the `threads − 1` it
/// spawns, items are taken in turn, and results come back in input
/// order. The caller's warm DP scratch keeps serving, and a one-core
/// host or a one-item batch spawns nothing.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let result = f(i, item);
        collected
            .lock()
            .expect("no poisoned worker")
            .push((i, result));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    let mut tagged = collected.into_inner().expect("workers joined");
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// A solving session: one technology, one configuration, a shared
/// `τ_min` memo, parallel batch entry points.
///
/// The memo is unbounded by default: reuse within a batch, a target
/// sweep, or a bounded working set is the design point. A long-lived
/// process solving an unbounded stream of *distinct* nets bounds it
/// with [`Engine::set_value_cache_cap`] to keep memory flat.
///
/// # Examples
///
/// ```
/// use rip_core::{BatchTarget, Engine, RipConfig};
/// use rip_net::{NetGenerator, RandomNetConfig};
/// use rip_tech::Technology;
///
/// let engine = Engine::new(Technology::generic_180nm(), RipConfig::paper());
/// let nets = NetGenerator::suite(RandomNetConfig::default(), 7, 4).unwrap();
/// let outcomes = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.4));
/// assert_eq!(outcomes.len(), nets.len());
/// for out in &outcomes {
///     assert!(out.as_ref().unwrap().solution.delay_fs > 0.0);
/// }
/// // A second pass over the same nets reuses the memoized τ_min values.
/// let before = engine.stats();
/// let _ = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.4));
/// assert!(engine.stats().hits() > before.hits());
/// ```
#[derive(Debug)]
pub struct Engine {
    tech: Technology,
    config: RipConfig,
    tau_mins: Mutex<TauMinMemo>,
    value_cache_cap: AtomicUsize,
    counters: Counters,
    metrics: EngineMetrics,
}

/// Pre-resolved handles into the engine's metrics registry: the shared
/// [`MetricsRegistry`] plus one [`Histogram`] per pipeline stage, so hot
/// paths observe through a pointer instead of a by-name lookup. The
/// registry is get-or-create, so handles resolved from it stay valid
/// across [`Engine::adopt_metrics`] — a supervisor can hand one
/// registry from a crashed engine to its replacement and external
/// holders keep observing the same histograms.
#[derive(Debug)]
struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    chain_grid: Arc<Histogram>,
    chain_coarse_dp: Arc<Histogram>,
    chain_refine: Arc<Histogram>,
    chain_fine: Arc<Histogram>,
    chain_fine_options: Arc<Histogram>,
    tree_subdivide_coarse: Arc<Histogram>,
    tree_coarse_dp: Arc<Histogram>,
    tree_trim: Arc<Histogram>,
    tree_window_gen: Arc<Histogram>,
    tree_fine_dp: Arc<Histogram>,
    tree_fine_options: Arc<Histogram>,
    tree_merge_products_max: Arc<Histogram>,
    cache_hit: Arc<Histogram>,
    cache_miss: Arc<Histogram>,
}

impl EngineMetrics {
    /// Resolves every stage handle against `registry` (creating the
    /// histograms on first use).
    fn resolve(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            chain_grid: registry.histogram("engine_chain_grid_ns"),
            chain_coarse_dp: registry.histogram("engine_chain_coarse_dp_ns"),
            chain_refine: registry.histogram("engine_chain_refine_ns"),
            chain_fine: registry.histogram("engine_chain_fine_ns"),
            chain_fine_options: registry.histogram("engine_chain_fine_options"),
            tree_subdivide_coarse: registry.histogram("engine_tree_subdivide_coarse_ns"),
            tree_coarse_dp: registry.histogram("engine_tree_coarse_dp_ns"),
            tree_trim: registry.histogram("engine_tree_trim_ns"),
            tree_window_gen: registry.histogram("engine_tree_window_gen_ns"),
            tree_fine_dp: registry.histogram("engine_tree_fine_dp_ns"),
            tree_fine_options: registry.histogram("engine_tree_fine_options"),
            tree_merge_products_max: registry.histogram("engine_tree_merge_products_max"),
            cache_hit: registry.histogram("engine_cache_hit_ns"),
            cache_miss: registry.histogram("engine_cache_miss_ns"),
            registry,
        }
    }
}

impl Engine {
    /// Creates a session over a technology and pipeline configuration.
    pub fn new(tech: Technology, config: RipConfig) -> Self {
        Self {
            tech,
            config,
            tau_mins: Mutex::new(TauMinMemo::default()),
            value_cache_cap: AtomicUsize::new(0),
            counters: Counters::default(),
            metrics: EngineMetrics::resolve(Arc::new(MetricsRegistry::new())),
        }
    }

    /// A session with the paper's Section 6 configuration.
    pub fn paper(tech: Technology) -> Self {
        Self::new(tech, RipConfig::paper())
    }

    /// The session's technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The session's pipeline configuration.
    pub fn config(&self) -> &RipConfig {
        &self.config
    }

    /// Bounds the `τ_min` memo (chain and tree entries together) to at
    /// most `cap` entries, evicting the *least recently used* entries as
    /// new ones arrive (every hit promotes its entry, counted in
    /// [`EngineStats::promotions`]); `0` (the default) means unbounded.
    /// The memo holds one scalar per distinct net, so the bound only
    /// matters at service lifetimes: a resident server solving an
    /// unbounded stream of distinct nets sets it to keep memory flat
    /// forever. Evicted entries are recomputed on their next lookup, so
    /// results never change — only [`EngineStats::evictions`] and the
    /// hit rate do.
    pub fn set_value_cache_cap(&self, cap: usize) {
        self.value_cache_cap.store(cap, Ordering::Relaxed);
    }

    /// The current value-cache bound (`0` = unbounded).
    pub fn value_cache_cap(&self) -> usize {
        self.value_cache_cap.load(Ordering::Relaxed)
    }

    /// The engine's metrics registry: per-stage latency histograms for
    /// the chain pipeline (`engine_chain_*_ns`), the tree pipeline
    /// (`engine_tree_*_ns`), and `τ_min` memo lookup latency
    /// (`engine_cache_{hit,miss}_ns`, a miss including its DP), all in
    /// nanoseconds; plus the fine DPs' work per solve, as counts:
    /// options made (`engine_chain_fine_options`,
    /// `engine_tree_fine_options`, counted as `DpStats::options_created`)
    /// and the tree's largest branch-merge
    /// staging (`engine_tree_merge_products_max`).
    /// Observation never changes solver results — the determinism suite
    /// pins that solve bytes are identical with metrics read or reset at
    /// any point.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Re-points the engine at an existing metrics registry, rebuilding
    /// the per-stage histogram handles. A supervisor replacing a crashed
    /// engine calls this with the old engine's registry so latency
    /// history survives the respawn; handles previously resolved from
    /// that registry stay valid because the registry is get-or-create.
    pub fn adopt_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = EngineMetrics::resolve(registry);
    }

    /// Resets every statistics counter to zero, keeping the memo and
    /// its contents untouched — the monitoring reset behind the
    /// service's `reset_stats` command. Counter reads/writes are
    /// `Relaxed`, so a reset concurrent with in-flight solves may lose
    /// a few increments; results are never affected.
    pub fn reset_stats(&self) {
        let c = &self.counters;
        for counter in [
            &c.tau_min_hits,
            &c.tau_min_misses,
            &c.nets_solved,
            &c.trees_solved,
            &c.evictions,
            &c.promotions,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        self.metrics.registry.reset();
    }

    /// Memo-effectiveness counters so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            tau_min_hits: self.counters.tau_min_hits.load(Ordering::Relaxed),
            tau_min_misses: self.counters.tau_min_misses.load(Ordering::Relaxed),
            nets_solved: self.counters.nets_solved.load(Ordering::Relaxed),
            trees_solved: self.counters.trees_solved.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
        }
    }

    // ---- τ_min memo ------------------------------------------------------

    /// Looks `key()` up in the `τ_min` memo, promoting it on a hit, and
    /// otherwise runs `compute` *outside* the lock and inserts its
    /// value (LRU-bounded by [`Engine::set_value_cache_cap`]). The
    /// lookup histograms time the key build too. Two workers can
    /// compute the same key concurrently; only the one whose insert
    /// lands counts a miss, keeping the counters exact even under
    /// parallel batches (the hit-rate tests assert equality). A failed
    /// `compute` is returned and not memoized.
    fn memo_tau_min<E>(
        &self,
        key: impl FnOnce() -> String,
        compute: impl FnOnce() -> Result<f64, E>,
    ) -> Result<f64, E> {
        let t = Instant::now();
        let key = key();
        let c = &self.counters;
        let cached = self
            .tau_mins
            .lock()
            .expect("tau_min memo")
            .get_promote(&key, &c.promotions);
        if let Some(tmin) = cached {
            c.tau_min_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.cache_hit.observe_since(t);
            return Ok(tmin);
        }
        let computed = compute()?;
        let (tmin, was_miss) = self.tau_mins.lock().expect("tau_min memo").finish(
            key,
            computed,
            self.value_cache_cap.load(Ordering::Relaxed),
            &c.evictions,
            &c.promotions,
        );
        let counter = if was_miss {
            &c.tau_min_misses
        } else {
            &c.tau_min_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.metrics.cache_miss.observe_since(t);
        Ok(tmin)
    }

    /// `τ_min` of a net under the paper's experimental setup, computed at
    /// most once per session (LRU-bounded by
    /// [`Engine::set_value_cache_cap`]).
    pub fn tau_min(&self, net: &TwoPinNet) -> f64 {
        self.memo_tau_min(
            || net_key(net),
            || Ok::<_, Infallible>(tmin::tau_min_paper(net, self.tech.device())),
        )
        .unwrap_or_else(|never| match never {})
    }

    // ---- chain solving ---------------------------------------------------

    /// Runs algorithm RIP (Fig. 6) on one two-pin net. Semantics are
    /// identical to [`rip`](crate::rip); see there for the stage
    /// walkthrough and the robustness extensions.
    ///
    /// # Errors
    ///
    /// * [`RipError::Infeasible`] when no stage can meet the target;
    /// * [`RipError::Dp`] / [`RipError::Refine`] for invalid inputs.
    pub fn solve(&self, net: &TwoPinNet, target_fs: f64) -> Result<RipOutcome, RipError> {
        self.counters.nets_solved.fetch_add(1, Ordering::Relaxed);
        let device = self.tech.device();
        let config = &self.config;
        let mut runtime = RipRuntime::default();

        // ---- Stage 1: coarse DP (Fig. 6, Line 1).
        let t0 = Instant::now();
        let coarse_cands = CandidateSet::uniform(net, config.coarse.candidate_step_um);
        self.metrics.chain_grid.observe_since(t0);
        let t0_dp = Instant::now();
        let coarse = match solve_min_power(
            net,
            device,
            &config.coarse.library,
            &coarse_cands,
            target_fs,
        ) {
            Ok(sol) => sol,
            // Coarse library can't meet the target: seed REFINE from the
            // fastest coarse placement instead.
            Err(DpError::InfeasibleTarget { .. }) => {
                solve_min_delay(net, device, &config.coarse.library, &coarse_cands)
            }
            Err(e) => return Err(e.into()),
        };
        self.metrics.chain_coarse_dp.observe_since(t0_dp);
        runtime.coarse = t0.elapsed();

        // ---- Stage 2: REFINE (Fig. 6, Line 2).
        let t1 = Instant::now();
        let refined = match refine(
            net,
            device,
            &coarse.assignment.positions(),
            target_fs,
            &config.refine,
        ) {
            Ok(out) => out,
            Err(RefineError::InfeasibleTarget { achievable_fs, .. }) => {
                return Err(RipError::Infeasible {
                    target_fs,
                    achievable_fs,
                });
            }
            Err(e) => return Err(e.into()),
        };
        self.metrics.chain_refine.observe_since(t1);
        runtime.refine = t1.elapsed();

        // Degenerate loose-target case: no repeaters needed at all.
        if refined.positions.is_empty() {
            let t2 = Instant::now();
            let empty_cands = CandidateSet::from_positions(net, vec![])?;
            let solution =
                solve_min_power(net, device, &config.coarse.library, &empty_cands, target_fs)?;
            self.metrics.chain_fine.observe_since(t2);
            self.metrics
                .chain_fine_options
                .observe(solution.stats.options_created);
            runtime.fine = t2.elapsed();
            return Ok(RipOutcome {
                target_fs,
                solution,
                coarse,
                refined: Some(refined),
                library: None,
                candidate_count: 0,
                runtime,
            });
        }

        // ---- Stages 3-4 on the n-repeater branch.
        let t2 = Instant::now();
        let mut best = self.finish_from_refined(net, &refined, target_fs);

        // Extension (`FineDpConfig::try_fewer_repeaters`): REFINE cannot
        // change the repeater *count* it inherited from the coarse DP, and
        // a coarse library whose minimum width exceeds the loose-target
        // optimum systematically over-counts. Re-refine with one repeater
        // dropped (each of the up-to-3 narrowest tried — removal can
        // strand the survivors behind a forbidden zone, so a single
        // heuristic pick is not enough) and keep whichever branch the fine
        // DP likes better. Over-counting only happens in the
        // small-repeater regime: when the refined widths sit well above
        // the coarse library's minimum, the count was not forced by the
        // library floor and dropping can only lose. The gate keeps
        // tight-target runs (big widths, big DP frontiers) free of
        // pointless extra branches.
        let mean_refined_width = refined.total_width / refined.widths.len().max(1) as f64;
        let small_width_regime = mean_refined_width < 1.5 * config.coarse.library.min_width();
        if config.fine.try_fewer_repeaters && refined.positions.len() >= 2 && small_width_regime {
            let mut by_width: Vec<usize> = (0..refined.widths.len()).collect();
            by_width.sort_by(|&a, &b| {
                refined.widths[a]
                    .partial_cmp(&refined.widths[b])
                    .expect("finite widths")
            });
            for &drop in by_width.iter().take(3) {
                let mut fewer_positions = refined.positions.clone();
                fewer_positions.remove(drop);
                let Ok(fewer) = refine(net, device, &fewer_positions, target_fs, &config.refine)
                else {
                    continue;
                };
                // The continuous width lower-bounds this branch's discrete
                // outcome (modulo one grid step); skip branches that
                // cannot beat the incumbent.
                if let Ok((incumbent, _, _)) = &best {
                    if fewer.total_width >= incumbent.total_width + config.fine.width_grid_u {
                        continue;
                    }
                }
                let alt = self.finish_from_refined(net, &fewer, target_fs);
                let better = match (&best, &alt) {
                    (Ok(b), Ok(a)) => a.0.total_width < b.0.total_width,
                    (Err(_), Ok(_)) => true,
                    _ => false,
                };
                if better {
                    best = alt;
                }
            }
        }
        self.metrics.chain_fine.observe_since(t2);
        if let Ok((solution, _, _)) = &best {
            self.metrics
                .chain_fine_options
                .observe(solution.stats.options_created);
        }
        runtime.fine = t2.elapsed();

        let (solution, final_lib, candidate_count) = match best {
            Ok(parts) => parts,
            Err(achievable_fs) => {
                // Final fallback: the coarse solution, if it met the
                // target.
                if coarse.meets(target_fs) {
                    (coarse.clone(), config.coarse.library.clone(), 0)
                } else {
                    return Err(RipError::Infeasible {
                        target_fs,
                        achievable_fs: achievable_fs.min(coarse.delay_fs),
                    });
                }
            }
        };

        Ok(RipOutcome {
            target_fs,
            solution,
            coarse,
            refined: Some(refined),
            library: Some(final_lib),
            candidate_count,
            runtime,
        })
    }

    /// Stages 3-4 for one refined branch: synthesize the design-specific
    /// library `B` (rounded + neighbouring grid steps — see
    /// [`crate::FineDpConfig::enrich_steps`]) and candidate set `S`, then
    /// run the fine DP with an infeasibility retry on a further-enriched
    /// library.
    ///
    /// Returns the minimum achievable delay on failure so the caller can
    /// report how far off the target was.
    fn finish_from_refined(
        &self,
        net: &TwoPinNet,
        refined: &RefineOutcome,
        target_fs: f64,
    ) -> Result<(DpSolution, RepeaterLibrary, usize), f64> {
        let device = self.tech.device();
        let config = &self.config;
        let grid = config.fine.width_grid_u;
        let rounded = RepeaterLibrary::from_refined_widths(refined.widths.iter().copied(), grid)
            .expect("refined widths are positive");
        let cands = CandidateSet::windows(
            net,
            &refined.positions,
            config.fine.window_half_slots,
            config.fine.window_step_um,
        );
        let mut final_lib = synthesized_library(&rounded, grid, config.fine.enrich_steps, false)
            .expect("enriched widths are positive");
        let mut solution = solve_min_power(net, device, &final_lib, &cands, target_fs);
        if matches!(solution, Err(DpError::InfeasibleTarget { .. })) {
            // Infeasible after rounding: only *wider* fallbacks can help,
            // so the retry enriches upward only (keeps the library small -
            // the fine DP's cost is sensitive to |B| at tight targets).
            final_lib =
                synthesized_library(&rounded, grid, config.fine.enrich_steps.max(1) * 3, true)
                    .expect("positive widths");
            solution = solve_min_power(net, device, &final_lib, &cands, target_fs);
        }
        match solution {
            Ok(sol) => Ok((sol, final_lib, cands.len())),
            Err(DpError::InfeasibleTarget { achievable_fs, .. }) => Err(achievable_fs),
            Err(e) => unreachable!("windowed candidates and targets are pre-validated: {e}"),
        }
    }

    /// Resolves a [`BatchTarget`] for net `index`.
    fn resolve_target(&self, net: &TwoPinNet, target: &BatchTarget, index: usize) -> f64 {
        match target {
            BatchTarget::AbsoluteFs(fs) => *fs,
            BatchTarget::TauMinMultiple(mult) => mult * self.tau_min(net),
            BatchTarget::PerNetFs(all) => all[index],
        }
    }

    /// Solves a batch of nets in parallel over the available cores.
    ///
    /// The output is input-ordered and deterministic: entry `i` is
    /// exactly what `self.solve(&nets[i], target_i)` returns, regardless
    /// of thread interleaving (the caches only memoize values the
    /// pipeline would recompute identically).
    ///
    /// # Panics
    ///
    /// Panics when a [`BatchTarget::PerNetFs`] list length differs from
    /// `nets.len()`.
    pub fn solve_batch(
        &self,
        nets: &[TwoPinNet],
        target: &BatchTarget,
    ) -> Vec<Result<RipOutcome, RipError>> {
        if let BatchTarget::PerNetFs(all) = target {
            assert_eq!(all.len(), nets.len(), "one target per net");
        }
        par_map(nets, |i, net| {
            let target_fs = self.resolve_target(net, target, i);
            self.solve(net, target_fs)
        })
    }

    // ---- baseline + comparison ------------------------------------------

    /// Runs the Lillis-style baseline DP.
    ///
    /// # Errors
    ///
    /// Propagates [`DpError::InfeasibleTarget`] — the paper's `V_DP`
    /// timing-violation event.
    pub fn baseline(
        &self,
        net: &TwoPinNet,
        config: &BaselineConfig,
        target_fs: f64,
    ) -> Result<DpSolution, DpError> {
        let cands = CandidateSet::uniform(net, config.candidate_step_um);
        solve_min_power(net, self.tech.device(), &config.library, &cands, target_fs)
    }

    /// Runs the Lillis-style baseline power DP on a tree — one uniform
    /// fixed-width library over a uniform candidate subdivision
    /// (`config.candidate_step_um`), no hybrid stages — under an
    /// optional buffer-legality mask. The tree analogue of
    /// [`Engine::baseline`], and what tree entries in a `compare`
    /// request are measured against.
    ///
    /// # Errors
    ///
    /// Propagates [`DpError::InfeasibleTarget`] (the paper's `V_DP`
    /// timing-violation event) and [`DpError::BadAllowedMask`] for a
    /// mask whose length does not match the tree.
    pub fn tree_baseline_masked(
        &self,
        tree: &RcTree,
        driver_width: f64,
        config: &BaselineConfig,
        target_fs: f64,
        allowed: Option<&[bool]>,
    ) -> Result<rip_dp::TreeSolution, DpError> {
        let allowed = effective_mask(tree, allowed)?;
        let (sites, sites_allowed) = subdivide(tree, config.candidate_step_um, allowed);
        tree_min_power(
            &sites,
            self.tech.device(),
            driver_width,
            &config.library,
            sites_allowed.as_deref(),
            target_fs,
        )
    }

    /// RIP vs baseline over a batch, in parallel: per-net
    /// `(baseline width, RIP width)` rows plus the paper's Table 1 summary
    /// metrics. A baseline timing violation becomes a `None` row entry
    /// (counted in [`SavingsSummary::baseline_violations`]).
    ///
    /// # Errors
    ///
    /// Fails when RIP itself fails on any net, or when the baseline
    /// reports anything other than an infeasible target.
    ///
    /// # Panics
    ///
    /// Panics when a [`BatchTarget::PerNetFs`] list length differs from
    /// `nets.len()`.
    #[allow(clippy::type_complexity)]
    pub fn compare_batch(
        &self,
        nets: &[TwoPinNet],
        target: &BatchTarget,
        baseline: &BaselineConfig,
    ) -> Result<(Vec<(Option<f64>, f64)>, SavingsSummary), RipError> {
        if let BatchTarget::PerNetFs(all) = target {
            assert_eq!(all.len(), nets.len(), "one target per net");
        }
        let rows: Vec<Result<(Option<f64>, f64), RipError>> = par_map(nets, |i, net| {
            let target_fs = self.resolve_target(net, target, i);
            let rip_width = self.solve(net, target_fs)?.solution.total_width;
            let base = match self.baseline(net, baseline, target_fs) {
                Ok(sol) => Some(sol.total_width),
                Err(DpError::InfeasibleTarget { .. }) => None,
                Err(e) => return Err(e.into()),
            };
            Ok((base, rip_width))
        });
        let rows: Vec<(Option<f64>, f64)> = rows.into_iter().collect::<Result<_, _>>()?;
        let summary = summarize_savings(&rows);
        Ok((rows, summary))
    }

    // ---- tree solving ----------------------------------------------------

    /// The minimum achievable delay of a tree under `config`'s coarse
    /// sites with the paper's fine-granularity width range, computed at
    /// most once per `(topology, driver, config, mask)` per session — the
    /// tree analogue of [`Engine::tau_min`], and what
    /// [`BatchTarget::TauMinMultiple`] resolves against in
    /// [`Engine::solve_tree_batch_masked`].
    ///
    /// `allowed` is an optional buffer-legality mask aligned to `tree`'s
    /// node indexing (the indexing [`RcTree::from_tree_net`] preserves,
    /// so a [`rip_net::TreeNet::allowed_mask`] can be passed straight
    /// through): buffers may only occupy allowed coarse sites. A `None`
    /// or all-true mask is the unmasked `τ_min`, and both share one
    /// memo entry.
    ///
    /// # Errors
    ///
    /// Returns [`RipError::Dp`] ([`DpError::BadAllowedMask`]) when the
    /// mask length does not match the tree; a `None` mask cannot fail.
    pub fn tree_tau_min_masked(
        &self,
        tree: &RcTree,
        driver_width: f64,
        config: &TreeRipConfig,
        allowed: Option<&[bool]>,
    ) -> Result<f64, RipError> {
        let allowed = effective_mask(tree, allowed)?;
        let key = || {
            masked_key(
                cache_key(&(
                    "tree_tau_min",
                    tree,
                    driver_width.to_bits(),
                    config.coarse_step_um.to_bits(),
                )),
                allowed,
            )
        };
        self.memo_tau_min(key, || {
            let (sites, sites_allowed) = subdivide(tree, config.coarse_step_um, allowed);
            tree_min_delay(
                &sites,
                self.tech.device(),
                driver_width,
                &tmin::paper_library(),
                sites_allowed.as_deref(),
            )
            .map(|sol| sol.delay_fs)
            .map_err(RipError::from)
        })
    }

    /// Runs the hybrid RIP pipeline on an RC tree. Semantics are
    /// identical to [`tree_rip`](crate::tree_rip); the chain knobs are
    /// taken from `config.base` (not the engine's chain configuration,
    /// which governs two-pin solves only).
    ///
    /// `allowed` is an optional buffer-legality mask: `allowed[v]` says
    /// whether a buffer may occupy node `v` of the **original** tree
    /// indexing (the indexing [`RcTree::from_tree_net`] preserves, so a
    /// [`rip_net::TreeNet::allowed_mask`] — e.g. the `blocked`
    /// attributes of a `.tree` file — passes straight through). The
    /// mask is binding end to end:
    ///
    /// * the coarse DP (stage 1) and its min-delay fallback only see
    ///   coarse sites whose projection is legal — inserted Steiner
    ///   points inherit the legality of their covering original edge
    ///   ([`RcTree::project_allowed`]);
    /// * the width trim (stage 2) keeps the coarse stage's legal sites
    ///   fixed, so it cannot re-legalize a blocked node;
    /// * the fine DP (stage 4) intersects its windowed candidate sites
    ///   with the projected fine mask before solving.
    ///
    /// An all-true mask normalizes to `None`: **byte-identical**
    /// answers. A real mask never places a buffer on a blocked node —
    /// the masked-tree conformance suite pins both.
    ///
    /// # Errors
    ///
    /// * [`RipError::Dp`] ([`DpError::BadAllowedMask`]) when the mask
    ///   length does not match the tree;
    /// * [`RipError::Infeasible`] when even min-delay buffering over the
    ///   legal coarse sites cannot meet the target — an all-blocked
    ///   region degrades to bufferless buffering and surfaces here as a
    ///   typed infeasibility, never a panic;
    /// * other [`RipError`] variants for invalid inputs.
    pub fn solve_tree_masked(
        &self,
        tree: &RcTree,
        driver_width: f64,
        target_fs: f64,
        config: &TreeRipConfig,
        allowed: Option<&[bool]>,
    ) -> Result<TreeRipOutcome, RipError> {
        let allowed = effective_mask(tree, allowed)?;
        self.counters.trees_solved.fetch_add(1, Ordering::Relaxed);
        let device = self.tech.device();
        let mut runtime = RipRuntime::default();

        // ---- Stage 1: coarse tree DP (over the legal coarse sites
        // only, when a mask is in force).
        let t0 = Instant::now();
        let (coarse_tree, coarse_allowed) = subdivide(tree, config.coarse_step_um, allowed);
        self.metrics.tree_subdivide_coarse.observe_since(t0);
        let coarse_mask = coarse_allowed.as_deref();
        let t0_dp = Instant::now();
        let coarse = match tree_min_power(
            &coarse_tree,
            device,
            driver_width,
            &config.base.coarse.library,
            coarse_mask,
            target_fs,
        ) {
            Ok(sol) => sol,
            Err(DpError::InfeasibleTarget { .. }) => {
                // Seed from the fastest coarse buffering, as on chains.
                let fastest = tree_min_delay(
                    &coarse_tree,
                    device,
                    driver_width,
                    &config.base.coarse.library,
                    coarse_mask,
                )?;
                if fastest.delay_fs > target_fs {
                    return Err(RipError::Infeasible {
                        target_fs,
                        achievable_fs: fastest.delay_fs,
                    });
                }
                fastest
            }
            Err(e) => return Err(e.into()),
        };
        self.metrics.tree_coarse_dp.observe_since(t0_dp);
        runtime.coarse = t0.elapsed();

        // ---- Stage 2: continuous width trim at the chosen sites.
        let t1 = Instant::now();
        let trim: TreeTrimOutcome = match trim_tree_widths(
            &coarse_tree,
            device,
            driver_width,
            &coarse.buffer_widths,
            target_fs,
            &config.trim,
        ) {
            Ok(out) => out,
            Err(RefineError::InfeasibleTarget { achievable_fs, .. }) => {
                return Err(RipError::Infeasible {
                    target_fs,
                    achievable_fs,
                });
            }
            Err(e) => return Err(e.into()),
        };
        self.metrics.tree_trim.observe_since(t1);
        runtime.refine = t1.elapsed();

        // Degenerate loose case: no buffers at all.
        let trimmed_widths: Vec<f64> = trim.buffer_widths.iter().flatten().copied().collect();
        let t2 = Instant::now();
        if trimmed_widths.is_empty() {
            let (fine_tree, _) = tree.subdivided(config.fine_step_um);
            let unbuffered = tree_min_power(
                &fine_tree,
                device,
                driver_width,
                &config.base.coarse.library,
                Some(&vec![false; fine_tree.len()]),
                target_fs,
            )?;
            self.metrics.tree_fine_dp.observe_since(t2);
            self.observe_fine_work(&unbuffered.stats);
            runtime.fine = t2.elapsed();
            return Ok(TreeRipOutcome {
                target_fs,
                solution: unbuffered,
                fine_tree,
                coarse_width: coarse.total_width,
                trimmed_width: 0.0,
                library: config.base.coarse.library.clone(),
                candidate_count: 0,
                runtime,
            });
        }

        // ---- Stage 3: synthesized library + windowed fine sites.
        let t_win = Instant::now();
        let grid = config.base.fine.width_grid_u;
        let rounded = RepeaterLibrary::from_refined_widths(trimmed_widths.iter().copied(), grid)?;

        // Buffer positions measured as coarse-tree root distances; fine
        // sites within the window of any buffer (path distance via
        // root-distance frame of the *original* tree is approximated on
        // the fine tree, which shares its geometry).
        let window_um = config.base.fine.window_half_slots as f64 * config.base.fine.window_step_um;
        let (fine_tree, fine_allowed) = subdivide(tree, config.fine_step_um, allowed);
        let fine_mask = fine_allowed.as_deref();
        let buffer_sites: Vec<usize> = (0..coarse_tree.len())
            .filter(|&v| trim.buffer_widths[v].is_some())
            .collect();
        let mut windowed = vec![false; fine_tree.len()];
        let mut candidate_count = 0usize;
        // Both subdivisions preserve geometry, so match sites by root
        // distance + subtree identity via nearest fine node on the same
        // monotone path. A conservative and simple criterion that works
        // for the common case: allow fine nodes whose root distance is
        // within the window of some chosen buffer's root distance.
        // (Branches at equal depth admit a few extra candidates; the DP
        // simply ignores unhelpful ones.) Under a mask, the window is
        // intersected with the projected fine legality before the DP
        // ever sees it.
        let buffer_dists: Vec<f64> = buffer_sites
            .iter()
            .map(|&v| coarse_tree.root_distance(v))
            .collect();
        for (v, slot) in windowed.iter_mut().enumerate().skip(1) {
            if fine_mask.is_some_and(|m| !m[v]) {
                continue;
            }
            let d = fine_tree.root_distance(v);
            if buffer_dists.iter().any(|&bd| (d - bd).abs() <= window_um) {
                *slot = true;
                candidate_count += 1;
            }
        }
        self.metrics.tree_window_gen.observe_since(t_win);

        // ---- Stage 4: fine tree DP with enrichment retry.
        let t_fine = Instant::now();
        let mut library =
            synthesized_library(&rounded, grid, config.base.fine.enrich_steps, false)?;
        let mut solution = tree_min_power(
            &fine_tree,
            device,
            driver_width,
            &library,
            Some(&windowed),
            target_fs,
        );
        if matches!(solution, Err(DpError::InfeasibleTarget { .. })) {
            library = synthesized_library(
                &rounded,
                grid,
                config.base.fine.enrich_steps.max(1) * 3,
                false,
            )?;
            solution = tree_min_power(
                &fine_tree,
                device,
                driver_width,
                &library,
                Some(&windowed),
                target_fs,
            );
        }
        self.metrics.tree_fine_dp.observe_since(t_fine);
        runtime.fine = t2.elapsed();

        let solution = match solution {
            Ok(sol) => sol,
            Err(DpError::InfeasibleTarget { achievable_fs, .. }) => {
                return Err(RipError::Infeasible {
                    target_fs,
                    achievable_fs,
                });
            }
            Err(e) => return Err(e.into()),
        };
        self.observe_fine_work(&solution.stats);

        Ok(TreeRipOutcome {
            target_fs,
            solution,
            fine_tree,
            coarse_width: coarse.total_width,
            trimmed_width: trim.total_width,
            library,
            candidate_count,
            runtime,
        })
    }

    /// Records the work of one successful fine tree DP.
    fn observe_fine_work(&self, stats: &DpStats) {
        self.metrics
            .tree_fine_options
            .observe(stats.options_created);
        self.metrics
            .tree_merge_products_max
            .observe(stats.merge_products_max);
    }

    /// Solves a batch of `(tree, driver width, allowed)` entries in
    /// parallel over the available cores — the tree counterpart of
    /// [`Engine::solve_batch`]. `allowed` follows
    /// [`Engine::solve_tree_masked`]'s conventions (`None` = unmasked;
    /// aligned to the tree's original indexing), and one batch may mix
    /// masked and unmasked entries.
    ///
    /// The output is input-ordered and deterministic: entry `i` is
    /// exactly what `self.solve_tree_masked(..)` returns for that entry,
    /// regardless of thread interleaving.
    /// [`BatchTarget::TauMinMultiple`] resolves against each tree's
    /// cached **masked** `τ_min` ([`Engine::tree_tau_min_masked`]), so
    /// relative targets stay achievable under the mask.
    ///
    /// # Panics
    ///
    /// Panics when a [`BatchTarget::PerNetFs`] list length differs from
    /// `trees.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rip_core::{BatchTarget, Engine, RipConfig, TreeRipConfig};
    /// use rip_delay::RcTree;
    /// use rip_net::{RandomTreeConfig, TreeNetGenerator};
    /// use rip_tech::Technology;
    ///
    /// let engine = Engine::new(Technology::generic_180nm(), RipConfig::paper());
    /// let config = TreeRipConfig::paper();
    /// let nets = TreeNetGenerator::suite(RandomTreeConfig::default(), 7, 3).unwrap();
    /// let trees: Vec<(RcTree, f64, Option<Vec<bool>>)> = nets
    ///     .iter()
    ///     .map(|n| {
    ///         let tree = RcTree::from_tree_net(n, engine.technology().device());
    ///         (tree, n.driver_width(), Some(n.allowed_mask()))
    ///     })
    ///     .collect();
    /// let target = BatchTarget::TauMinMultiple(1.4);
    /// let outcomes = engine.solve_tree_batch_masked(&trees, &target, &config);
    /// assert_eq!(outcomes.len(), trees.len());
    /// ```
    #[allow(clippy::type_complexity)]
    pub fn solve_tree_batch_masked(
        &self,
        trees: &[(RcTree, f64, Option<Vec<bool>>)],
        target: &BatchTarget,
        config: &TreeRipConfig,
    ) -> Vec<Result<TreeRipOutcome, RipError>> {
        if let BatchTarget::PerNetFs(all) = target {
            assert_eq!(all.len(), trees.len(), "one target per tree");
        }
        par_map(trees, |i, (tree, driver_width, allowed)| {
            let allowed = allowed.as_deref();
            let target_fs = match target {
                BatchTarget::AbsoluteFs(fs) => *fs,
                BatchTarget::TauMinMultiple(mult) => {
                    mult * self.tree_tau_min_masked(tree, *driver_width, config, allowed)?
                }
                BatchTarget::PerNetFs(all) => all[i],
            };
            self.solve_tree_masked(tree, *driver_width, target_fs, config, allowed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_net::{NetGenerator, RandomNetConfig, RandomTreeConfig, TreeNetGenerator};

    fn engine() -> Engine {
        Engine::paper(Technology::generic_180nm())
    }

    fn nets(seed: u64, count: usize) -> Vec<TwoPinNet> {
        NetGenerator::suite(RandomNetConfig::default(), seed, count).unwrap()
    }

    fn trees(seed: u64, count: usize) -> Vec<(RcTree, f64)> {
        let device = *Technology::generic_180nm().device();
        TreeNetGenerator::suite(RandomTreeConfig::default(), seed, count)
            .unwrap()
            .iter()
            .map(|net| (RcTree::from_tree_net(net, &device), net.driver_width()))
            .collect()
    }

    #[test]
    fn engine_solve_matches_free_function() {
        let engine = engine();
        let nets = nets(11, 3);
        for net in &nets {
            let target = engine.tau_min(net) * 1.4;
            let from_engine = engine.solve(net, target).unwrap();
            let from_free = crate::rip(net, engine.technology(), target, engine.config()).unwrap();
            assert_eq!(from_engine.solution, from_free.solution);
            assert_eq!(from_engine.coarse, from_free.coarse);
            assert_eq!(from_engine.library, from_free.library);
            assert_eq!(from_engine.candidate_count, from_free.candidate_count);
        }
    }

    #[test]
    fn batch_is_input_ordered_and_deterministic() {
        let engine = engine();
        let nets = nets(23, 6);
        let a = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.35));
        let b = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.35));
        assert_eq!(a.len(), nets.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap().solution, y.as_ref().unwrap().solution);
        }
    }

    #[test]
    fn second_identical_batch_hits_the_cache() {
        let engine = engine();
        let nets = nets(5, 4);
        let _ = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.4));
        let first = engine.stats();
        assert!(first.misses() > 0);
        let _ = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.4));
        let second = engine.stats();
        assert_eq!(
            second.misses(),
            first.misses(),
            "a second identical batch must not recompute anything"
        );
        assert!(second.hits() > first.hits());
        assert_eq!(second.nets_solved, 2 * nets.len() as u64);
    }

    #[test]
    fn per_net_targets_are_respected() {
        let engine = engine();
        let nets = nets(31, 2);
        let targets: Vec<f64> = nets.iter().map(|n| engine.tau_min(n) * 1.5).collect();
        let outs = engine.solve_batch(&nets, &BatchTarget::PerNetFs(targets.clone()));
        for (out, &t) in outs.iter().zip(&targets) {
            assert!(out.as_ref().unwrap().solution.meets(t));
        }
    }

    #[test]
    #[should_panic(expected = "one target per net")]
    fn per_net_target_length_mismatch_panics() {
        let engine = engine();
        let nets = nets(1, 2);
        let _ = engine.solve_batch(&nets, &BatchTarget::PerNetFs(vec![1.0e6]));
    }

    #[test]
    fn infeasible_nets_error_without_poisoning_the_batch() {
        let engine = engine();
        let nets = nets(3, 3);
        // Net 1 gets an impossible absolute target; the others are fine.
        let targets = vec![
            engine.tau_min(&nets[0]) * 1.4,
            1.0,
            engine.tau_min(&nets[2]) * 1.4,
        ];
        let outs = engine.solve_batch(&nets, &BatchTarget::PerNetFs(targets));
        assert!(outs[0].is_ok());
        assert!(matches!(outs[1], Err(RipError::Infeasible { .. })));
        assert!(outs[2].is_ok());
    }

    #[test]
    fn compare_batch_summarizes_savings() {
        let engine = engine();
        let nets = nets(2005, 3);
        let (rows, summary) = engine
            .compare_batch(
                &nets,
                &BatchTarget::TauMinMultiple(1.5),
                &BaselineConfig::paper_table1(20.0),
            )
            .unwrap();
        assert_eq!(rows.len(), nets.len());
        assert_eq!(summary.compared + summary.baseline_violations, nets.len());
    }

    #[test]
    fn cache_cap_evicts_lru_and_rebuilds_identically() {
        let engine = engine();
        engine.set_value_cache_cap(2);
        let nets = nets(77, 4);
        for net in &nets {
            let _ = engine.tau_min(net);
        }
        let stats = engine.stats();
        assert_eq!(stats.tau_min_misses, 4);
        assert_eq!(
            stats.evictions, 2,
            "the two least recently used τ_min entries must have been dropped"
        );
        assert!(engine.tau_mins.lock().unwrap().len() <= 2);
        // The newest entries survived...
        let _ = engine.tau_min(&nets[3]);
        assert_eq!(engine.stats().tau_min_hits, 1);
        // ...and an evicted τ_min is recomputed to the same bits.
        let again = engine.tau_min(&nets[0]);
        let fresh = tmin::tau_min_paper(&nets[0], engine.tech.device());
        assert_eq!(again.to_bits(), fresh.to_bits());
        assert_eq!(engine.stats().evictions, 3);
    }

    #[test]
    fn tau_min_key_tells_nets_apart_by_their_parts() {
        let engine = engine();
        let net = |length: f64| {
            rip_net::NetBuilder::new()
                .segment(rip_net::Segment::new(4000.0, 0.08, 0.2))
                .segment(rip_net::Segment::new(length, 0.06, 0.18))
                .forbidden_zone(1000.0, 2000.0)
                .unwrap()
                .build()
                .unwrap()
        };
        let counts = || (engine.stats().tau_min_hits, engine.stats().tau_min_misses);
        let a = engine.tau_min(&net(6000.0));
        let b = engine.tau_min(&net(6000.0));
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(counts(), (1, 1));
        // One bit of one segment's length apart: a different net.
        let _ = engine.tau_min(&net(f64::from_bits(6000.0f64.to_bits() + 1)));
        assert_eq!(counts(), (1, 2));
    }

    #[test]
    fn lru_hit_promotes_and_changes_the_eviction_victim() {
        // Under FIFO, touching nets[0] before inserting a fourth τ_min
        // would not save it; under LRU it must survive while nets[1]
        // (the actual least recently used) is evicted.
        let engine = engine();
        engine.set_value_cache_cap(3);
        let nets = nets(41, 4);
        for net in &nets[..3] {
            let _ = engine.tau_min(net);
        }
        // Promote the oldest entry...
        let _ = engine.tau_min(&nets[0]);
        let stats = engine.stats();
        assert_eq!(stats.tau_min_hits, 1);
        assert_eq!(
            stats.promotions, 1,
            "the hit must have moved nets[0] to most-recently-used"
        );
        // ...then overflow the cap: nets[1] is now the LRU victim.
        let _ = engine.tau_min(&nets[3]);
        assert_eq!(engine.stats().evictions, 1);
        let before = engine.stats();
        let _ = engine.tau_min(&nets[0]); // still cached
        let _ = engine.tau_min(&nets[2]); // still cached
        assert_eq!(engine.stats().tau_min_hits, before.tau_min_hits + 2);
        assert_eq!(engine.stats().tau_min_misses, before.tau_min_misses);
        let _ = engine.tau_min(&nets[1]); // evicted: a fresh miss
        assert_eq!(engine.stats().tau_min_misses, before.tau_min_misses + 1);
    }

    #[test]
    fn lru_recency_order_tracks_hits_and_inserts() {
        let mut cache = TauMinMemo::default();
        let evictions = AtomicU64::new(0);
        let promotions = AtomicU64::new(0);
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            cache.finish(key.to_string(), i as f64, 0, &evictions, &promotions);
        }
        assert_eq!(cache.recency_order(), ["c", "b", "a"]);
        // A hit promotes; a hit on the newest entry is free.
        assert_eq!(cache.get_promote("a", &promotions), Some(0.0));
        assert_eq!(cache.recency_order(), ["a", "c", "b"]);
        assert_eq!(promotions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.get_promote("a", &promotions), Some(0.0));
        assert_eq!(promotions.load(Ordering::Relaxed), 1, "head hit is free");
        // Capacity is respected and the oldest stamp ("b") is the victim.
        cache.finish("d".to_string(), 3.0, 3, &evictions, &promotions);
        assert_eq!(cache.recency_order(), ["d", "a", "c"]);
        assert_eq!(evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.get_promote("b", &promotions), None);
        // A lost insert race is a hit that promotes the survivor.
        let (v, miss) = cache.finish("c".to_string(), 99.0, 3, &evictions, &promotions);
        assert_eq!((v, miss), (2.0, false), "existing value wins the race");
        assert_eq!(cache.recency_order(), ["c", "d", "a"]);
        assert_eq!(promotions.load(Ordering::Relaxed), 2);
        // Every insert past the cap evicts: len never exceeds it.
        for key in ["e", "f", "g"] {
            cache.finish(key.to_string(), 7.0, 3, &evictions, &promotions);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(evictions.load(Ordering::Relaxed), 4);
        assert_eq!(cache.recency_order(), ["g", "f", "e"]);
    }

    #[test]
    fn cap_one_memo_alternating_two_nets_only_misses() {
        // CI's chaos smoke runs the service at `--value-cache-cap 1`:
        // two nets taking turns evict each other on every lookup, and a
        // miss is never a promotion.
        let engine = engine();
        engine.set_value_cache_cap(1);
        let nets = nets(61, 2);
        let lookups = 6;
        for i in 0..lookups {
            let _ = engine.tau_min(&nets[i % 2]);
        }
        let stats = engine.stats();
        assert_eq!(stats.tau_min_hits, 0);
        assert_eq!(stats.tau_min_misses, lookups as u64);
        assert_eq!(stats.evictions, lookups as u64 - 1);
        assert_eq!(stats.promotions, 0);
        assert_eq!(engine.tau_mins.lock().unwrap().len(), 1);
    }

    #[test]
    fn value_cache_cap_bounds_the_tau_min_memo() {
        let engine = engine();
        engine.set_value_cache_cap(2);
        assert_eq!(engine.value_cache_cap(), 2);
        let nets = nets(9, 4);
        for net in &nets {
            let _ = engine.tau_min(net);
        }
        assert_eq!(engine.stats().tau_min_misses, 4);
        assert!(engine.tau_mins.lock().unwrap().len() <= 2);
        assert!(engine.stats().evictions >= 2);
        // An evicted τ_min is recomputed to exactly the same value.
        let again = engine.tau_min(&nets[0]);
        assert_eq!(
            again.to_bits(),
            tmin::tau_min_paper(&nets[0], engine.tech.device()).to_bits()
        );
    }

    #[test]
    fn tree_batch_is_deterministic_and_reuses_the_tau_min_memo() {
        let engine = engine();
        let config = crate::TreeRipConfig::paper();
        // One batch mixing an unmasked entry, an all-true mask (which
        // normalizes to the unmasked pipeline) and a real mask.
        let mut jobs: Vec<(RcTree, f64, Option<Vec<bool>>)> = trees(5, 3)
            .into_iter()
            .map(|(tree, driver)| (tree, driver, None))
            .collect();
        jobs[1].2 = Some(vec![true; jobs[1].0.len()]);
        let mut real = vec![true; jobs[2].0.len()];
        real[1] = false;
        jobs[2].2 = Some(real);
        let target = BatchTarget::TauMinMultiple(1.4);
        let a = engine.solve_tree_batch_masked(&jobs, &target, &config);
        let first = engine.stats();
        assert!(first.tau_min_misses > 0);
        assert_eq!(a.len(), jobs.len());
        // Entry i is exactly the one-at-a-time solve.
        for (i, ((tree, driver, allowed), out)) in jobs.iter().zip(&a).enumerate() {
            let allowed = allowed.as_deref();
            let solo_target = 1.4
                * engine
                    .tree_tau_min_masked(tree, *driver, &config, allowed)
                    .unwrap();
            let solo = engine
                .solve_tree_masked(tree, *driver, solo_target, &config, allowed)
                .unwrap();
            assert_eq!(
                format!("{:?}", solo.solution),
                format!("{:?}", out.as_ref().unwrap().solution),
                "tree {i}: batch diverged from the sequential solve"
            );
        }
        let b = engine.solve_tree_batch_masked(&jobs, &target, &config);
        let second = engine.stats();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                format!("{:?}", x.as_ref().unwrap().solution),
                format!("{:?}", y.as_ref().unwrap().solution),
                "tree {i}: repeated batch diverged"
            );
        }
        assert_eq!(
            second.misses(),
            first.misses(),
            "sequential re-solves and a second identical tree batch must not recompute anything"
        );
        assert!(second.tau_min_hits > first.tau_min_hits);
        assert_eq!(second.trees_solved, 3 * jobs.len() as u64);
    }

    #[test]
    fn trivial_masks_are_byte_identical_to_unmasked_solves() {
        let engine = engine();
        let config = crate::TreeRipConfig::paper();
        let (tree, driver) = trees(5, 1).remove(0);
        let tmin = engine.tree_tau_min_masked(&tree, driver, &config, None);
        let target = 1.4 * tmin.unwrap();
        let unmasked = engine
            .solve_tree_masked(&tree, driver, target, &config, None)
            .unwrap();
        // All-true mask (and one that only blocks the ignored root
        // entry) normalize away entirely: same memo keys, same bytes.
        let before = engine.stats();
        for mask in [vec![true; tree.len()], {
            let mut m = vec![true; tree.len()];
            m[0] = false;
            m
        }] {
            let masked = engine
                .solve_tree_masked(&tree, driver, target, &config, Some(&mask))
                .unwrap();
            assert_eq!(
                format!("{:?}", masked.solution),
                format!("{:?}", unmasked.solution)
            );
            assert_eq!(
                engine
                    .tree_tau_min_masked(&tree, driver, &config, Some(&mask))
                    .unwrap()
                    .to_bits(),
                engine
                    .tree_tau_min_masked(&tree, driver, &config, None)
                    .unwrap()
                    .to_bits()
            );
        }
        let after = engine.stats();
        assert_eq!(
            after.misses(),
            before.misses(),
            "trivially-masked τ_min lookups must be served from the unmasked memo entry"
        );
    }

    #[test]
    fn masked_and_unmasked_tau_min_never_alias() {
        let engine = engine();
        let config = crate::TreeRipConfig::paper();
        let (tree, driver) = trees(9, 1).remove(0);
        let mut mask = vec![true; tree.len()];
        mask[1] = false;
        let tmin = engine.tree_tau_min_masked(&tree, driver, &config, None);
        let target = 1.5 * tmin.unwrap();
        let _ = engine
            .solve_tree_masked(&tree, driver, target, &config, None)
            .unwrap();
        let misses_unmasked = engine.stats().tau_min_misses;
        // The masked τ_min must run its own (masked) DP…
        let masked_target = 1.5
            * engine
                .tree_tau_min_masked(&tree, driver, &config, Some(&mask))
                .unwrap();
        let _ = engine
            .solve_tree_masked(&tree, driver, masked_target, &config, Some(&mask))
            .unwrap();
        let misses_masked = engine.stats().tau_min_misses;
        assert!(
            misses_masked > misses_unmasked,
            "a real mask must not be served from the unmasked τ_min entry"
        );
        // …and a repeat of both is fully warm.
        let hits = engine.stats().tau_min_hits;
        for allowed in [None, Some(mask.as_slice())] {
            let _ = engine
                .tree_tau_min_masked(&tree, driver, &config, allowed)
                .unwrap();
        }
        assert_eq!(engine.stats().tau_min_misses, misses_masked);
        assert_eq!(engine.stats().tau_min_hits, hits + 2);
    }

    #[test]
    fn bad_masks_are_typed_errors_and_all_blocked_is_infeasible_or_bufferless() {
        let engine = engine();
        let config = crate::TreeRipConfig::paper();
        let (tree, driver) = trees(13, 1).remove(0);
        // Misaligned mask: typed error from every masked entry point.
        let short = vec![true; tree.len() - 1];
        assert!(matches!(
            engine.solve_tree_masked(&tree, driver, 1.0e6, &config, Some(&short)),
            Err(RipError::Dp(rip_dp::DpError::BadAllowedMask { .. }))
        ));
        assert!(matches!(
            engine.tree_tau_min_masked(&tree, driver, &config, Some(&short)),
            Err(RipError::Dp(rip_dp::DpError::BadAllowedMask { .. }))
        ));
        // An all-blocked mask degrades to bufferless buffering: a tight
        // target is a typed infeasibility (never a panic)…
        let blocked = vec![false; tree.len()];
        let unbuffered = engine
            .tree_tau_min_masked(&tree, driver, &config, Some(&blocked))
            .unwrap();
        let err = engine
            .solve_tree_masked(&tree, driver, unbuffered * 0.5, &config, Some(&blocked))
            .unwrap_err();
        assert!(matches!(err, RipError::Infeasible { .. }));
        // …while a loose target solves without placing any buffer.
        let out = engine
            .solve_tree_masked(&tree, driver, unbuffered * 2.0, &config, Some(&blocked))
            .unwrap();
        assert!(out.solution.buffer_widths.iter().all(Option::is_none));
        assert_eq!(out.solution.total_width, 0.0);
    }

    #[test]
    fn reset_stats_rezeroes_every_counter() {
        let engine = engine();
        let nets = nets(17, 2);
        let _ = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.4));
        let before = engine.stats();
        assert!(before.misses() > 0 && before.nets_solved == 2);
        engine.reset_stats();
        assert_eq!(engine.stats(), EngineStats::default());
        // The memo itself survives a stats reset: a repeated batch is
        // all hits, no misses.
        let _ = engine.solve_batch(&nets, &BatchTarget::TauMinMultiple(1.4));
        let after = engine.stats();
        assert_eq!(after.misses(), 0, "reset must not drop memo contents");
        assert!(after.hits() > 0);
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineStats>();
        assert_send_sync::<BatchTarget>();
    }
}
