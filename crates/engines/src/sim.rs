//! Load drift and noise — the "variance of a cloud federation".
//!
//! Section 1 of the paper: estimation is hard because the environment varies
//! — physical machines differ, load evolves, tenants come and go. We model
//! each site's effective slowdown as a multiplicative *load factor* that
//! performs a bounded random walk punctuated by regime shifts (a noisy
//! neighbour arrives, a cluster is rescaled), plus per-execution noise.
//! Estimators never see the load factor, only its effect on observed costs —
//! exactly the situation DREAM is designed for: old observations come from
//! an expired regime.

use crate::lock_recover;
use midas_cloud::SiteId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Derives an independent RNG stream from a base seed (SplitMix64 mix).
///
/// Concurrent components — per-tenant workload generators, per-site load
/// models, per-worker jitter — must not share one RNG sequence, or the
/// values any one of them observes would depend on thread interleaving.
/// Splitting the seed instead gives every `stream` its own deterministic
/// sequence: a fixed `(seed, stream)` pair always produces the same draws
/// no matter how many other streams run beside it.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How strongly a site's load evolves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftIntensity {
    /// Perfectly stationary (ablation baseline).
    None,
    /// Gentle random walk, rare regime shifts.
    Mild,
    /// Pronounced walk and frequent regime shifts — the federated setting.
    Strong,
}

impl DriftIntensity {
    fn params(self) -> DriftParams {
        match self {
            DriftIntensity::None => DriftParams {
                walk_sigma: 0.0,
                regime_prob: 0.0,
                regime_range: (1.0, 1.0),
                noise_sigma: 0.02,
            },
            DriftIntensity::Mild => DriftParams {
                walk_sigma: 0.008,
                regime_prob: 0.004,
                regime_range: (0.7, 1.8),
                noise_sigma: 0.05,
            },
            // Calibrated so regimes shift every ~15-20 executed queries
            // (≈ 6 ticks per query in the MRE protocol): trackable by an
            // adaptive window, punishing for an unbounded history.
            DriftIntensity::Strong => DriftParams {
                walk_sigma: 0.006,
                regime_prob: 0.012,
                regime_range: (0.4, 3.0),
                noise_sigma: 0.15,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DriftParams {
    walk_sigma: f64,
    regime_prob: f64,
    regime_range: (f64, f64),
    noise_sigma: f64,
}

/// The evolving load of one site.
#[derive(Debug, Clone)]
pub struct LoadModel {
    rng: StdRng,
    params: DriftParams,
    load: f64,
}

/// Hard bounds keeping the walk physical.
const LOAD_MIN: f64 = 0.3;
const LOAD_MAX: f64 = 4.0;

impl LoadModel {
    /// A load model starting at multiplier 1.0.
    pub fn new(seed: u64, intensity: DriftIntensity) -> Self {
        LoadModel {
            rng: StdRng::seed_from_u64(seed),
            params: intensity.params(),
            load: 1.0,
        }
    }

    /// Current load multiplier (1.0 = nominal speed).
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Advances one tick: random-walk step plus a possible regime shift.
    pub fn tick(&mut self) {
        if self.params.regime_prob > 0.0 && self.rng.gen_bool(self.params.regime_prob) {
            let (lo, hi) = self.params.regime_range;
            self.load = self.rng.gen_range(lo..=hi);
        } else if self.params.walk_sigma > 0.0 {
            self.load += self.normal() * self.params.walk_sigma;
        }
        self.load = self.load.clamp(LOAD_MIN, LOAD_MAX);
    }

    /// Per-execution multiplicative noise around 1.0, clamped to stay
    /// positive.
    pub fn noise(&mut self) -> f64 {
        (1.0 + self.normal() * self.params.noise_sigma).max(0.2)
    }

    /// Standard normal via Box–Muller.
    fn normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// The clock and per-site load models of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimulationEnv {
    loads: HashMap<SiteId, LoadModel>,
    /// Simulated wall-clock in seconds since the run began.
    pub clock_s: f64,
}

impl SimulationEnv {
    /// An empty environment.
    pub fn new() -> Self {
        SimulationEnv::default()
    }

    /// Registers a site's load model (seed is mixed with the site id so
    /// sites drift independently).
    pub fn register_site(&mut self, site: SiteId, seed: u64, intensity: DriftIntensity) {
        self.loads.insert(
            site,
            LoadModel::new(seed.wrapping_mul(0x9e3779b9).wrapping_add(site.0 as u64), intensity),
        );
    }

    /// Load multiplier of a site (1.0 for unregistered sites).
    pub fn load(&self, site: SiteId) -> f64 {
        self.loads.get(&site).map_or(1.0, |m| m.load())
    }

    /// Per-execution noise draw for a site (1.0 for unregistered sites).
    pub fn noise(&mut self, site: SiteId) -> f64 {
        self.loads.get_mut(&site).map_or(1.0, |m| m.noise())
    }

    /// Advances every site one tick and moves the clock by `dt` seconds.
    pub fn tick(&mut self, dt: f64) {
        for m in self.loads.values_mut() {
            m.tick();
        }
        self.clock_s += dt;
    }
}

/// A half-open interval over *fault positions*.
///
/// Faults are keyed by position in admission-sequence space, not by the
/// simulated clock: a job's fault position is its admission sequence plus
/// its retry attempt. That makes every injected failure a pure function of
/// the workload — replayable bit-for-bit for a fixed plan no matter how
/// many workers race, which is what lets the differential harnesses pin
/// fault outcomes across worker counts. It also gives retries an escape
/// hatch: an attempt at `sequence + attempt` can step past the end of a
/// window, modelling a transient outage that heals while the job backs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First covered position.
    pub from: u64,
    /// First position past the window.
    pub until: u64,
}

impl FaultWindow {
    /// Whether `position` falls inside the window.
    pub fn covers(&self, position: u64) -> bool {
        position >= self.from && position < self.until
    }
}

/// The injected faults of one site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteFaults {
    /// Windows during which every fragment bound to the site fails with
    /// [`crate::error::EngineError::SiteUnavailable`].
    pub outages: Vec<FaultWindow>,
    /// Windows during which the site's load is multiplied by the paired
    /// factor (a degraded-but-alive site). Overlapping windows compound.
    pub slowdowns: Vec<(FaultWindow, f64)>,
    /// Windows during which the site's admission gate flaps down to a
    /// single slot (capacity loss without failure).
    pub flaps: Vec<FaultWindow>,
}

/// Deterministic parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-position probability that an outage window starts.
    pub outage_prob: f64,
    /// Outage window length in positions (`1..=max`).
    pub max_outage_len: u64,
    /// Per-position probability that a slowdown window starts.
    pub slowdown_prob: f64,
    /// Slowdown factor range drawn uniformly.
    pub slowdown_range: (f64, f64),
    /// Per-position probability that an admission flap starts.
    pub flap_prob: f64,
    /// Slowdown/flap window length in positions (`1..=max`).
    pub max_fault_len: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            outage_prob: 0.05,
            max_outage_len: 2,
            slowdown_prob: 0.08,
            slowdown_range: (1.5, 4.0),
            flap_prob: 0.05,
            max_fault_len: 4,
        }
    }
}

/// A deterministic, seedable per-site fault schedule (see the
/// [`FaultWindow`] docs for the position model). Built either explicitly —
/// [`FaultPlan::outage`] / [`FaultPlan::slowdown`] / [`FaultPlan::flap`] —
/// or randomly from a seed with [`FaultPlan::generate`]; either way the
/// plan is a pure value, so a fixed plan replays the exact same failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    sites: HashMap<SiteId, SiteFaults>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds an outage window at `site` (builder style).
    pub fn outage(mut self, site: SiteId, from: u64, until: u64) -> Self {
        self.sites
            .entry(site)
            .or_default()
            .outages
            .push(FaultWindow { from, until });
        self
    }

    /// Adds a slowdown window at `site` (builder style); `factor < 1` is
    /// clamped to 1 (a fault never speeds a site up).
    pub fn slowdown(mut self, site: SiteId, from: u64, until: u64, factor: f64) -> Self {
        self.sites
            .entry(site)
            .or_default()
            .slowdowns
            .push((FaultWindow { from, until }, factor.max(1.0)));
        self
    }

    /// Adds an admission-flap window at `site` (builder style).
    pub fn flap(mut self, site: SiteId, from: u64, until: u64) -> Self {
        self.sites
            .entry(site)
            .or_default()
            .flaps
            .push(FaultWindow { from, until });
        self
    }

    /// Generates a random plan over `positions` fault positions for the
    /// given sites. Each site draws from its own [`split_seed`] stream, so
    /// the plan is a pure function of `(seed, sites, spec)` — and adding a
    /// site never perturbs another site's schedule.
    pub fn generate(
        seed: u64,
        sites: impl IntoIterator<Item = SiteId>,
        positions: u64,
        spec: &FaultSpec,
    ) -> Self {
        let mut plan = FaultPlan::default();
        for site in sites {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x0fa1_7000 ^ site.0 as u64));
            let faults = plan.sites.entry(site).or_default();
            let mut pos = 0u64;
            while pos < positions {
                if spec.outage_prob > 0.0 && rng.gen_bool(spec.outage_prob.clamp(0.0, 1.0)) {
                    let len = rng.gen_range(1..=spec.max_outage_len.max(1));
                    faults.outages.push(FaultWindow {
                        from: pos,
                        until: (pos + len).min(positions),
                    });
                    pos += len;
                    continue;
                }
                if spec.slowdown_prob > 0.0 && rng.gen_bool(spec.slowdown_prob.clamp(0.0, 1.0)) {
                    let len = rng.gen_range(1..=spec.max_fault_len.max(1));
                    let (lo, hi) = spec.slowdown_range;
                    let factor = rng.gen_range(lo.min(hi)..=hi.max(lo)).max(1.0);
                    faults.slowdowns.push((
                        FaultWindow {
                            from: pos,
                            until: (pos + len).min(positions),
                        },
                        factor,
                    ));
                }
                if spec.flap_prob > 0.0 && rng.gen_bool(spec.flap_prob.clamp(0.0, 1.0)) {
                    let len = rng.gen_range(1..=spec.max_fault_len.max(1));
                    faults.flaps.push(FaultWindow {
                        from: pos,
                        until: (pos + len).min(positions),
                    });
                }
                pos += 1;
            }
        }
        plan
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.sites
            .values()
            .all(|f| f.outages.is_empty() && f.slowdowns.is_empty() && f.flaps.is_empty())
    }

    /// Whether `site` is down at `position`.
    pub fn site_down(&self, site: SiteId, position: u64) -> bool {
        self.sites
            .get(&site)
            .is_some_and(|f| f.outages.iter().any(|w| w.covers(position)))
    }

    /// Compound slowdown multiplier of `site` at `position` (1.0 = none).
    pub fn slowdown_factor(&self, site: SiteId, position: u64) -> f64 {
        self.sites.get(&site).map_or(1.0, |f| {
            f.slowdowns
                .iter()
                .filter(|(w, _)| w.covers(position))
                .map(|(_, factor)| factor)
                .product()
        })
    }

    /// Whether `site`'s admission gate is flapped down to one slot at
    /// `position`.
    pub fn admission_capped(&self, site: SiteId, position: u64) -> bool {
        self.sites
            .get(&site)
            .is_some_and(|f| f.flaps.iter().any(|w| w.covers(position)))
    }

    /// Sites the plan ever touches, sorted (for reporting).
    pub fn affected_sites(&self) -> Vec<SiteId> {
        let mut out: Vec<SiteId> = self.sites.keys().copied().collect();
        out.sort_unstable();
        out
    }
}

/// Aggregate contention statistics of one site's admission gate.
///
/// The first three fields are monotone counters; `in_use` and `waiting`
/// are instantaneous gauges snapshotted when the stats were read — the
/// raw observations behind [`SiteAdmission::pressure`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionStats {
    /// Fragments admitted so far.
    pub admitted: u64,
    /// Total wall-clock seconds fragments spent queued for a slot.
    pub total_wait_s: f64,
    /// Largest number of fragments ever waiting at once.
    pub peak_queue: u32,
    /// Execution slots occupied at the moment the stats were sampled.
    pub in_use: u32,
    /// Fragments queued for a slot at the moment the stats were sampled.
    pub waiting: u32,
}

#[derive(Debug, Default)]
struct GateState {
    in_use: u32,
    waiting: u32,
    /// Next ticket to hand out; tickets admit strictly in order.
    next_ticket: u64,
    /// Ticket currently allowed to take a slot.
    serving: u64,
    stats: AdmissionStats,
}

#[derive(Debug)]
struct Gate {
    capacity: u32,
    state: Mutex<GateState>,
    freed: Condvar,
}

/// Per-site admission queues: the concurrency counterpart of the load model.
///
/// A cloud site hosts a bounded number of concurrently executing query
/// fragments (its resource pool is finite); a concurrent federation runtime
/// must therefore *queue* fragments bound for a busy site rather than
/// pretending the site scales without limit. Each site gets a slot gate
/// sized from its capacity metadata (`ResourcePool::admission_slots` in
/// `midas-cloud`); acquiring blocks the calling worker until a slot frees,
/// and the permit releases on drop. Sites without a registered gate are
/// unmetered.
///
/// The gate bounds per-site concurrency; it does not serialize the
/// simulation RNG. A site's noise draws are consumed in env-lock
/// acquisition order, which with capacity > 1 (and with ticks from other
/// sites' fragments interleaving) still depends on thread scheduling — so
/// multi-worker simulated costs are scheduling-dependent, exactly like load
/// assignment on a real federation. Only the single-worker configuration is
/// fully deterministic (and bit-identical to the sequential executor).
#[derive(Debug, Default)]
pub struct SiteAdmission {
    gates: HashMap<SiteId, Gate>,
}

impl SiteAdmission {
    /// Builds gates from `(site, slot-count)` pairs; a zero slot count is
    /// promoted to one (a site that exists can always run *something*).
    pub fn new(capacities: impl IntoIterator<Item = (SiteId, u32)>) -> Self {
        SiteAdmission {
            gates: capacities
                .into_iter()
                .map(|(site, slots)| {
                    (
                        site,
                        Gate {
                            capacity: slots.max(1),
                            state: Mutex::new(GateState::default()),
                            freed: Condvar::new(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// An admission layer that never queues (every site unmetered).
    pub fn unmetered() -> Self {
        SiteAdmission::default()
    }

    /// Blocks until the site has a free execution slot; the returned permit
    /// holds the slot until dropped. Unmetered sites admit immediately.
    ///
    /// Admission is FIFO: each caller takes a ticket, and a slot goes to
    /// the lowest outstanding ticket — a late arrival can never barge past
    /// a queued waiter, so per-fragment wait times reflect arrival order,
    /// not OS scheduling luck.
    pub fn acquire(&self, site: SiteId) -> AdmissionPermit<'_> {
        self.acquire_capped(site, false)
    }

    /// [`SiteAdmission::acquire`] with an optional *flap cap*: when `capped`
    /// is true the caller treats the gate as having a single slot, modelling
    /// a site whose resource pool flapped down (see
    /// [`FaultPlan::admission_capped`]). The cap is per-caller — fragments
    /// outside the flap window still see full capacity — and it only delays
    /// wall-clock admission; permits, FIFO tickets and release behave
    /// exactly as for an uncapped acquire.
    pub fn acquire_capped(&self, site: SiteId, capped: bool) -> AdmissionPermit<'_> {
        let Some(gate) = self.gates.get(&site) else {
            return AdmissionPermit { gate: None };
        };
        let capacity = if capped { 1 } else { gate.capacity };
        // LINT: wall-clock — measures the real thread-blocking queue wait
        // for the AdmissionStats gauges; simulated outcomes never read it.
        let queued_at = Instant::now();
        let mut state = lock_recover(&gate.state);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        if state.in_use >= capacity || state.serving != ticket {
            state.waiting += 1;
            state.stats.peak_queue = state.stats.peak_queue.max(state.waiting);
            while state.in_use >= capacity || state.serving != ticket {
                state = gate
                    .freed
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            state.waiting -= 1;
        }
        state.serving += 1;
        state.in_use += 1;
        state.stats.admitted += 1;
        state.stats.total_wait_s += queued_at.elapsed().as_secs_f64();
        drop(state);
        // The next ticket holder may be any of the waiters; wake them all so
        // it re-checks (notify_one could wake the wrong one and stall).
        gate.freed.notify_all();
        AdmissionPermit { gate: Some(gate) }
    }

    /// Slot capacity of a site (`None` when unmetered).
    pub fn capacity(&self, site: SiteId) -> Option<u32> {
        self.gates.get(&site).map(|g| g.capacity)
    }

    /// Contention statistics per metered site. The counter fields are
    /// cumulative; the `in_use`/`waiting` gauges are snapshotted at the
    /// moment of this call.
    pub fn stats(&self) -> Vec<(SiteId, AdmissionStats)> {
        let mut out: Vec<(SiteId, AdmissionStats)> = self
            .gates
            .iter()
            .map(|(site, gate)| {
                let state = lock_recover(&gate.state);
                let mut stats = state.stats;
                stats.in_use = state.in_use;
                stats.waiting = state.waiting;
                (*site, stats)
            })
            .collect();
        out.sort_by_key(|(site, _)| *site);
        out
    }

    /// Instantaneous congestion score per metered site, sorted by site id:
    /// `(in_use + waiting) / capacity` — `0.0` for an idle gate, `1.0` when
    /// every slot is occupied with nobody queued, and `> 1.0` once a queue
    /// has formed (a backlog of 2×capacity scores `3.0`). This is the load
    /// signal the planner's continuous pressure penalty consumes
    /// (`PlanCostModel::with_site_pressure` in `midas-ires`): a pure read
    /// of the gate gauges, no tickets drawn, no waiters woken.
    pub fn pressure(&self) -> Vec<(SiteId, f64)> {
        let mut out: Vec<(SiteId, f64)> = self
            .gates
            .iter()
            .map(|(site, gate)| {
                let state = lock_recover(&gate.state);
                let backlog = state.in_use + state.waiting;
                (*site, f64::from(backlog) / f64::from(gate.capacity.max(1)))
            })
            .collect();
        out.sort_by_key(|(site, _)| *site);
        out
    }
}

/// A held execution slot; dropping it wakes one queued waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: Option<&'a Gate>,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            let mut state = lock_recover(&gate.state);
            state.in_use -= 1;
            drop(state);
            gate.freed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_streams_are_distinct_and_stable() {
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        let c = split_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, split_seed(42, 0), "streams are pure functions");
        // Streams feed independent generators.
        let mut ra = StdRng::seed_from_u64(a);
        let mut rb = StdRng::seed_from_u64(b);
        assert_ne!(ra.gen_range(0..u64::MAX), rb.gen_range(0..u64::MAX));
    }

    #[test]
    fn admission_serializes_beyond_capacity() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let admission = SiteAdmission::new([(SiteId(0), 2)]);
        let running = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let _permit = admission.acquire(SiteId(0));
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "capacity violated");
        let stats = admission.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.admitted, 6);
    }

    #[test]
    fn unmetered_sites_admit_immediately() {
        let admission = SiteAdmission::unmetered();
        let _a = admission.acquire(SiteId(7));
        let _b = admission.acquire(SiteId(7));
        assert_eq!(admission.capacity(SiteId(7)), None);
        assert!(admission.stats().is_empty());
        let metered = SiteAdmission::new([(SiteId(1), 0)]);
        assert_eq!(metered.capacity(SiteId(1)), Some(1), "zero promotes to 1");
    }

    #[test]
    fn stationary_model_never_moves() {
        let mut m = LoadModel::new(1, DriftIntensity::None);
        for _ in 0..100 {
            m.tick();
        }
        assert_eq!(m.load(), 1.0);
    }

    #[test]
    fn strong_drift_actually_drifts() {
        let mut m = LoadModel::new(7, DriftIntensity::Strong);
        let mut seen = Vec::new();
        for _ in 0..300 {
            m.tick();
            seen.push(m.load());
        }
        let min = seen.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = seen.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.3, "load range [{min}, {max}] too tight");
        assert!(min >= LOAD_MIN && max <= LOAD_MAX);
    }

    #[test]
    fn noise_is_near_one() {
        let mut m = LoadModel::new(3, DriftIntensity::Mild);
        let draws: Vec<f64> = (0..500).map(|_| m.noise()).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "noise mean {mean}");
        assert!(draws.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = LoadModel::new(11, DriftIntensity::Strong);
        let mut b = LoadModel::new(11, DriftIntensity::Strong);
        for _ in 0..50 {
            a.tick();
            b.tick();
        }
        assert_eq!(a.load(), b.load());
    }

    #[test]
    fn fault_plan_windows_cover_positions_half_open() {
        let site = SiteId(3);
        let plan = FaultPlan::none()
            .outage(site, 2, 4)
            .slowdown(site, 0, 10, 2.0)
            .slowdown(site, 5, 6, 3.0)
            .flap(site, 1, 2);
        assert!(!plan.site_down(site, 1));
        assert!(plan.site_down(site, 2) && plan.site_down(site, 3));
        assert!(!plan.site_down(site, 4), "windows are half-open");
        // Overlapping slowdowns compound; outside all windows it is 1.0.
        assert_eq!(plan.slowdown_factor(site, 5), 6.0);
        assert_eq!(plan.slowdown_factor(site, 9), 2.0);
        assert_eq!(plan.slowdown_factor(site, 10), 1.0);
        assert!(plan.admission_capped(site, 1));
        assert!(!plan.admission_capped(site, 2));
        // Untouched sites are healthy.
        let other = SiteId(9);
        assert!(!plan.site_down(other, 2));
        assert_eq!(plan.slowdown_factor(other, 2), 1.0);
        assert_eq!(plan.affected_sites(), vec![site]);
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn generated_fault_plans_are_pure_functions_of_the_seed() {
        let sites = [SiteId(0), SiteId(1)];
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(7, sites, 64, &spec);
        let b = FaultPlan::generate(7, sites, 64, &spec);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::generate(8, sites, 64, &spec);
        assert_ne!(a, c, "different seed, different plan");
        // Adding a site never perturbs an existing site's schedule.
        let wider = FaultPlan::generate(7, [SiteId(0), SiteId(1), SiteId(2)], 64, &spec);
        for pos in 0..64 {
            assert_eq!(a.site_down(SiteId(0), pos), wider.site_down(SiteId(0), pos));
            assert_eq!(
                a.slowdown_factor(SiteId(1), pos),
                wider.slowdown_factor(SiteId(1), pos)
            );
        }
        // A default-spec plan over 64 positions injects *something*.
        assert!(!a.is_empty());
    }

    #[test]
    fn capped_acquire_serializes_to_one_slot() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let admission = SiteAdmission::new([(SiteId(0), 4)]);
        let running = AtomicU32::new(0);
        let peak = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..5 {
                scope.spawn(|| {
                    let _permit = admission.acquire_capped(SiteId(0), true);
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1, "flap cap violated");
        // Uncapped acquires on the same gate still see full capacity.
        let _a = admission.acquire(SiteId(0));
        let _b = admission.acquire(SiteId(0));
        assert_eq!(admission.stats()[0].1.admitted, 7);
    }

    #[test]
    fn pressure_tracks_occupancy_and_queue_depth() {
        let admission = SiteAdmission::new([(SiteId(0), 2), (SiteId(1), 4)]);
        // Idle gates read zero on every site.
        assert_eq!(admission.pressure(), vec![(SiteId(0), 0.0), (SiteId(1), 0.0)]);

        // One of two slots held: pressure 0.5; the other site stays idle.
        let p0 = admission.acquire(SiteId(0));
        assert_eq!(admission.pressure(), vec![(SiteId(0), 0.5), (SiteId(1), 0.0)]);

        // Both slots held: full occupancy scores exactly 1.0.
        let p1 = admission.acquire(SiteId(0));
        assert_eq!(admission.pressure()[0], (SiteId(0), 1.0));
        // The gauges behind the score surface in the stats snapshot too.
        let stats = admission.stats();
        assert_eq!((stats[0].1.in_use, stats[0].1.waiting), (2, 0));

        // A queued waiter pushes the score past 1.0: (2 in use + 1
        // waiting) / 2 slots = 1.5.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| drop(admission.acquire(SiteId(0))));
            while admission.stats()[0].1.waiting == 0 {
                std::thread::yield_now();
            }
            assert_eq!(admission.pressure()[0], (SiteId(0), 1.5));
            drop(p0);
            waiter.join().unwrap();
        });

        // Draining the gate drains the score — pressure is a gauge, not a
        // counter.
        drop(p1);
        assert_eq!(admission.pressure()[0], (SiteId(0), 0.0));
        // Unmetered federations report no gauges at all.
        assert!(SiteAdmission::unmetered().pressure().is_empty());
    }

    #[test]
    fn env_tracks_sites_independently() {
        let mut env = SimulationEnv::new();
        let s1 = SiteId(0);
        let s2 = SiteId(1);
        env.register_site(s1, 5, DriftIntensity::Strong);
        env.register_site(s2, 5, DriftIntensity::Strong);
        for _ in 0..100 {
            env.tick(1.0);
        }
        // Same base seed, different site ids: loads diverge.
        assert_ne!(env.load(s1), env.load(s2));
        assert_eq!(env.clock_s, 100.0);
        // Unregistered site reports nominal load.
        assert_eq!(env.load(SiteId(9)), 1.0);
    }
}
