//! The serving loop: admission control, deadline-aware dynamic batching,
//! heterogeneous dispatch, and fault-aware failover — all on the `desim`
//! virtual clock.
//!
//! The simulation is event-driven but needs no explicit event queue:
//! arrivals are known up front (open loop), and every worker
//! self-serializes through its own timeline, so at any instant the only
//! two candidate events are *the next arrival* and *the earliest batch
//! dispatch the policy can plan* for the current queue. The loop always
//! executes the earlier of the two (arrivals win ties, so a request
//! landing exactly at a dispatch instant still joins the batch).
//!
//! A batch closes when the queue holds `max_batch` requests **or** the
//! oldest queued request has waited `max_wait`, whichever comes first —
//! and is handed to a worker no earlier than the policy allows, so under
//! overload the bounded queue fills and the admission controller sheds.
//!
//! ## Fault tolerance
//!
//! Dispatch goes through the fallible [`ServiceHook::try_serve_obs`], so
//! fault-injection wrappers (`ncsw-faults`) can make any worker fail. A
//! failed batch is detected at the error instant (capped by the
//! per-batch [`RobustConfig::dispatch_timeout`]), its members are
//! re-enqueued *at the queue head* — preserving arrival order and their
//! SLO deadlines — with a seeded exponential-backoff-plus-jitter floor
//! on their next dispatch, and bounded by
//! [`RobustConfig::max_attempts`]; exhausted requests are shed with
//! [`ShedCause::RetriesExhausted`], so every admitted request either
//! completes exactly once or is shed with a recorded cause.
//!
//! A per-worker health tracker runs a closed/open/half-open circuit
//! breaker: consecutive failures (fewer under queue pressure — the same
//! queue-depth signal the `ncsw-obs` sampler exports) open the circuit,
//! routing avoids open workers, and after a cooldown the next planned
//! dispatch becomes the half-open probe. While circuits are open the
//! admission controller *degrades gracefully*: the effective queue
//! capacity shrinks with the surviving fraction of fleet capacity
//! ([`crate::fleet::live_capacity_rps`]), and the batcher's fill target
//! adapts to the survivors' preferred batch.

use crate::fleet::{live_capacity_rps, live_preferred_batch, worker_rps};
use crate::workload::ArrivalProcess;
use desim::{Duration, SimTime};
use ncsw::service::{FailureKind, ServeError, ServiceHook};
use ncsw_ctrl::{PrimeContext, ScaleDecision, ScaleSignals, ScalingPolicy};
use ncsw_obs::{
    prof, BatchObs, Ctx, EnergyMeter, Event, EventLog, FlightConfig, FlightRecorder, Lane,
    NullRecorder, Phase, ProfiledRecorder, Recorder, Registry, SamplePolicy, SampleStats,
    SamplingRecorder, Tee, TimeSeries, TimeSeriesBuilder,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What to do with an arrival when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Refuse the arriving request (classic tail drop).
    Reject,
    /// Admit the newcomer and evict the oldest queued request — the one
    /// that has burned most of its latency budget already.
    DropOldest,
    /// Reject on a full queue, and *additionally* reject any arrival
    /// that cannot meet the SLO given the current backlog and surviving
    /// fleet capacity — don't admit work that is already hopeless.
    DeadlineAware,
}

impl ShedPolicy {
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s {
            "reject" => Some(ShedPolicy::Reject),
            "drop-oldest" => Some(ShedPolicy::DropOldest),
            "deadline-aware" => Some(ShedPolicy::DeadlineAware),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::DeadlineAware => "deadline-aware",
        }
    }
}

/// How formed batches are routed across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through the workers regardless of their backlog.
    RoundRobin,
    /// Route to the worker whose outstanding work drains earliest.
    LeastOutstanding,
    /// Route to the worker with the earliest *estimated completion*
    /// (backlog + calibrated cost model) — fast devices absorb bursts
    /// even while briefly busy, slow ones serve steady load.
    CostAware,
}

impl DispatchPolicy {
    pub fn parse(s: &str) -> Option<DispatchPolicy> {
        match s {
            "round-robin" => Some(DispatchPolicy::RoundRobin),
            "least-outstanding" => Some(DispatchPolicy::LeastOutstanding),
            "cost-aware" => Some(DispatchPolicy::CostAware),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
            DispatchPolicy::CostAware => "cost-aware",
        }
    }
}

/// Retry, timeout and circuit-breaker knobs of the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// A batch whose results have not landed this long after dispatch
    /// is declared failed (bounds failure detection; generous enough
    /// that healthy service never trips it).
    pub dispatch_timeout: Duration,
    /// Maximum dispatch attempts per request before it is shed with
    /// [`ShedCause::RetriesExhausted`].
    pub max_attempts: u32,
    /// Exponential backoff floor before a failed batch's members may be
    /// re-dispatched: `base * factor^(attempt-1)`, capped at `max`.
    pub backoff_base: Duration,
    pub backoff_factor: f64,
    pub backoff_max: Duration,
    /// Uniform jitter fraction added on top of the backoff (seeded via
    /// `vpu_num::rng`, drawn only when a failure actually happens).
    pub jitter_frac: f64,
    /// Consecutive failures that open a worker's circuit. Under queue
    /// pressure (depth at half the configured capacity — the same
    /// queue-depth signal the `ncsw-obs` sampler exports) the breaker
    /// trips one failure earlier.
    pub breaker_threshold: u32,
    /// Cooldown before an open circuit admits a half-open probe;
    /// escalates by `breaker_backoff` on every reopen, up to
    /// `breaker_cooldown_max`.
    pub breaker_cooldown: Duration,
    pub breaker_backoff: f64,
    pub breaker_cooldown_max: Duration,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            dispatch_timeout: Duration::from_secs(5.0),
            max_attempts: 4,
            backoff_base: Duration::from_millis(4.0),
            backoff_factor: 2.0,
            backoff_max: Duration::from_millis(100.0),
            jitter_frac: 0.25,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250.0),
            breaker_backoff: 2.0,
            breaker_cooldown_max: Duration::from_secs(2.0),
        }
    }
}

/// Latency-outlier quarantine knobs — the defense against *fail-slow*
/// workers, which complete every batch (no error, so the circuit
/// breakers never trip) while silently inflating its span. A worker
/// whose observed service span exceeds `outlier_factor` × its
/// calibrated estimate for `threshold` consecutive batches is
/// quarantined: taken out of the dispatch pool for `window`, then
/// re-admitted *on probation* — the next outlier re-quarantines it
/// immediately with the window escalated by `backoff` (capped at
/// `window_max`), while a clean batch clears probation and resets the
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantineConfig {
    /// Span / estimate ratio above which a batch counts as an outlier.
    pub outlier_factor: f64,
    /// Consecutive outliers that quarantine a (non-probation) worker.
    pub threshold: u32,
    /// Initial quarantine window.
    pub window: Duration,
    /// Window escalation factor on every probation failure.
    pub backoff: f64,
    pub window_max: Duration,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            outlier_factor: 2.5,
            threshold: 3,
            window: Duration::from_millis(500.0),
            backoff: 2.0,
            window_max: Duration::from_secs(4.0),
        }
    }
}

/// Hedged-dispatch knobs: once a batch's primary service span blows
/// past the hedge delay — the observed `quantile` of the span/estimate
/// ratio, learned online from at least `min_samples` completed batches
/// — a duplicate of the batch is speculatively dispatched to a second
/// worker. Whichever copy completes first wins; the loser's span is
/// charged to the energy ledger as *wasted* (exact pJ, reported in
/// [`GrayStats::hedge_wasted_pj`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// Ratio quantile that sets the hedge delay (e.g. 0.95 hedges the
    /// slowest ~5% of batches).
    pub quantile: f64,
    /// Completed batches observed fleet-wide before hedging arms.
    pub min_samples: u64,
    /// Floor on the hedge delay, so near-zero estimates cannot hedge
    /// every batch.
    pub min_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { quantile: 0.95, min_samples: 16, min_delay: Duration::from_millis(1.0) }
    }
}

/// Gray-failure defenses of the serving loop. `Default` turns every
/// defense off, and the all-off path is bit-identical to a pre-gray
/// run — the defenses only read the wire metadata `ncsw-faults`
/// attaches to a `BatchRun` and the spans the loop already observes;
/// they never perturb RNG streams or healthy-path timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GrayConfig {
    /// Verify results on completion (per-request sequence tags plus
    /// result checksums): corrupted or dropped completions are rejected
    /// and retried instead of surfacing to the client. Duplicate
    /// completions are deduplicated by sequence tag either way.
    pub verify: bool,
    /// Fail-slow quarantine (`None` = off).
    pub quarantine: Option<QuarantineConfig>,
    /// Hedged dispatch (`None` = off).
    pub hedge: Option<HedgeConfig>,
}

impl GrayConfig {
    /// Every defense on with default tuning — what `repro chaos` and
    /// the E22 "defended" arm run.
    pub fn defended() -> GrayConfig {
        GrayConfig {
            verify: true,
            quarantine: Some(QuarantineConfig::default()),
            hedge: Some(HedgeConfig::default()),
        }
    }
}

/// Serving-loop parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Bounded request-queue capacity (admission control).
    pub queue_capacity: usize,
    pub shed: ShedPolicy,
    /// A batch closes at this many requests...
    pub max_batch: usize,
    /// ...or once the oldest member has waited this long.
    pub max_wait: Duration,
    pub policy: DispatchPolicy,
    /// Latency objective used for goodput accounting (p99 target).
    pub slo: Duration,
    /// Seed of the arrival streams (and of the backoff jitter).
    pub seed: u64,
    /// Retry / timeout / circuit-breaker behavior.
    pub robust: RobustConfig,
    /// Gray-failure defenses (verify-on-complete, fail-slow quarantine,
    /// hedged dispatch). `Default` turns everything off.
    pub gray: GrayConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            shed: ShedPolicy::Reject,
            max_batch: 8,
            max_wait: Duration::from_millis(40.0),
            policy: DispatchPolicy::LeastOutstanding,
            slo: Duration::from_millis(500.0),
            seed: vpu_num::rng::DEFAULT_SEED,
            robust: RobustConfig::default(),
            gray: GrayConfig::default(),
        }
    }
}

/// Fate of one generated request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    pub id: u64,
    pub arrival: SimTime,
    /// Instant the batch containing this request closed and was routed
    /// (the *successful* dispatch, after any failovers).
    pub dispatched: SimTime,
    /// Instant the device began serving the batch.
    pub service_start: SimTime,
    /// Instant this request's result returned to the host.
    pub completed: SimTime,
    pub worker: usize,
    pub batch: usize,
    /// Dispatch attempts it took (1 = served on the first try).
    pub attempts: u32,
}

impl RequestRecord {
    /// Deadline-aware batching delay: arrival -> batch close.
    pub fn formation_wait(&self) -> Duration {
        self.dispatched - self.arrival
    }

    /// Dispatch -> device start (worker backlog the policy accepted).
    pub fn queue_wait(&self) -> Duration {
        self.service_start - self.dispatched
    }

    pub fn service_time(&self) -> Duration {
        self.completed - self.service_start
    }

    pub fn latency(&self) -> Duration {
        self.completed - self.arrival
    }
}

/// Why the admission controller (or the failover path) shed a request.
/// Defined in `ncsw-obs` so `Shed` events carry it into exported
/// traces; re-exported here because the serving loop is what decides.
pub use ncsw_obs::ShedCause;

/// A request shed by the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedRecord {
    pub id: u64,
    pub arrival: SimTime,
    /// Instant the decision was made (eviction and retry exhaustion
    /// happen after arrival).
    pub shed_at: SimTime,
    pub cause: ShedCause,
}

impl ShedRecord {
    /// Queue time burned before the shedding decision (zero for rejects).
    pub fn wait(&self) -> Duration {
        self.shed_at - self.arrival
    }
}

/// Per-worker accounting of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStats {
    pub label: String,
    pub batches: u64,
    pub images: u64,
    /// Virtual time the device spent busy (sum of service spans,
    /// including work wasted by timed-out batches).
    pub busy: Duration,
    /// Boot/allocation completion of the device at epoch.
    pub ready_at: SimTime,
    /// Failed dispatch attempts charged to this worker.
    pub failures: u64,
}

/// One worker outage as seen by the circuit breaker: opened at `from`,
/// closed at `until` when the breaker re-admitted traffic (`None` =
/// still open when the run ended).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageRecord {
    pub worker: usize,
    pub from: SimTime,
    pub until: Option<SimTime>,
}

impl OutageRecord {
    /// Time to recovery, measuring an unclosed outage to `end`.
    pub fn ttr(&self, end: SimTime) -> Duration {
        self.until.unwrap_or(end).max(self.from) - self.from
    }
}

/// Fault/failover accounting of one run (all zero on a healthy run).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Failed batch dispatches (worker faults plus dispatch timeouts).
    pub injected: u64,
    /// Requests re-enqueued for another attempt after a batch failure.
    pub retries: u64,
    /// Requests shed because they exhausted their attempts.
    pub exhausted: u64,
    /// Circuit-breaker outage windows, in open order.
    pub outages: Vec<OutageRecord>,
}

/// Gray-failure accounting of one run (all zero on a clean wire with
/// the defenses off — the struct exists even then so reports stay
/// structurally stable).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GrayStats {
    /// Result slots the wire corrupted, whether or not verification
    /// caught them.
    pub corrupted_wire: u64,
    /// Completions rejected by verify-on-complete (corrupt checksum or
    /// sequence-tag gap); each is followed by a retry or a shed.
    pub integrity_fails: u64,
    /// Corrupted results that reached the client (verification off) —
    /// the chaos harness asserts this stays zero when defenses are on.
    pub corrupt_surfaced: u64,
    /// Duplicate completions suppressed by exactly-once sequence-tag
    /// dedup.
    pub dups_suppressed: u64,
    /// Dropped completions detected as sequence-tag gaps (verification
    /// on; each is also counted in `integrity_fails`).
    pub drops_detected: u64,
    /// Dropped completions surfaced as batch-horizon completions
    /// (verification off).
    pub drops_surfaced: u64,
    /// Hedged dispatches issued.
    pub hedges: u64,
    /// Hedges whose duplicate finished first.
    pub hedge_wins: u64,
    /// Hedges outlived by the primary (or whose duplicate failed).
    pub hedge_cancels: u64,
    /// Exact busy-energy cost of hedging — every losing span, in pJ.
    pub hedge_wasted_pj: u64,
    /// Fail-slow quarantine entries.
    pub quarantines: u64,
    /// Probation re-entries after a quarantine window elapsed.
    pub probations: u64,
}

/// Raw outcome of one serving run (aggregate with [`crate::metrics`]).
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Fleet-ready instant the arrival clock started from.
    pub epoch: SimTime,
    pub generated: usize,
    pub completed: Vec<RequestRecord>,
    pub shed: Vec<ShedRecord>,
    pub workers: Vec<WorkerStats>,
    pub faults: FaultStats,
    /// Gray-failure accounting (wire corruption, integrity rejections,
    /// hedging, quarantine).
    pub gray: GrayStats,
    /// Integrated per-worker energy ledger. Purely passive — charging
    /// never influences timing, routing or RNG state, so a metered run
    /// is byte-identical to an unmetered one. Failed attempts are
    /// charged as *wasted* energy even though their latency is never
    /// attributed to a request.
    pub energy: EnergyMeter,
    /// Autoscaling accounting; `None` on a static-fleet run (the
    /// controller-disabled paths are bit-identical to pre-controller
    /// behavior).
    pub scaling: Option<ScalingStats>,
    /// Simulator loop events processed (arrivals, dispatches,
    /// controller ticks — every decision point of the event loop). A
    /// deterministic function of the run, so it feeds the
    /// [`ncsw_obs::Throughput`] meter without a profiler attached.
    pub sim_events: u64,
}

impl ServeOutcome {
    /// Last completion (or the epoch when nothing completed).
    pub fn end(&self) -> SimTime {
        self.completed.iter().map(|r| r.completed).max().unwrap_or(self.epoch)
    }

    /// Integration horizon for energy accounting: a timed-out batch can
    /// keep the device busy past the last completion, so the horizon is
    /// the later of [`ServeOutcome::end`] and the charged ledger's own
    /// high-water mark (idle time can never integrate negative).
    pub fn energy_horizon(&self) -> SimTime {
        SimTime::max_of(self.end(), self.energy.busy_horizon())
    }
}

struct Pending {
    id: u64,
    arrival: SimTime,
    /// Failed dispatch attempts so far (0 = never dispatched).
    attempts: u32,
    /// Backoff floor: the request may not be re-dispatched before this.
    earliest: SimTime,
}

/// Observability options for [`serve_observed`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Time-series sampling interval (virtual time).
    pub sample_every: Duration,
    /// Tail-based trace sampling policy. `None` (and the all-keep
    /// policy) capture the full event log, byte-identical to each
    /// other; a 1-in-N policy keeps anomalous request chains in full
    /// and drops most of the happy path (see
    /// [`ncsw_obs::SamplingRecorder`]).
    pub sample: Option<SamplePolicy>,
    /// Bounds of the always-on [`FlightRecorder`] incident ring.
    pub flight: FlightConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_every: Duration::from_millis(10.0),
            sample: None,
            flight: FlightConfig::default(),
        }
    }
}

/// Everything an observed run captured beyond the [`ServeOutcome`].
#[derive(Debug)]
pub struct ServeObservation {
    /// Structured event stream — the full log, or the sampled one when
    /// [`ObsConfig::sample`] names a dropping policy (export with
    /// [`ncsw_obs::chrome_trace`]).
    pub events: EventLog,
    /// Periodic samples of queue/worker state (export with
    /// [`TimeSeries::csv`]).
    pub series: TimeSeries,
    /// Counters, gauges and latency histograms of the run. Always
    /// full-fidelity: metrics see every request even under sampling.
    pub registry: Registry,
    /// Keep/drop ledger of the sampling recorder (`None` when
    /// [`ObsConfig::sample`] is `None`).
    pub sample: Option<SampleStats>,
    /// The always-on incident flight recorder: its ring holds the
    /// run's final trace window, and `incidents()` any snapshots taken
    /// when `CircuitOpen`/`IntegrityFail` fired mid-run. The bench
    /// layer adds burn-rate-alert snapshots post-run.
    pub flight: FlightRecorder,
}

/// The metric registry of an observed run, derived from its finished
/// outcome. Every counter is a field of the outcome and histograms are
/// order-independent, so this equals recording each outcome as it
/// happened; only the queue's high-water mark (`depth_peak`) has to be
/// tracked in the loop.
fn registry_of(outcome: &ServeOutcome, depth_peak: usize) -> Registry {
    let mut reg = Registry::new();
    let shed = |cause| outcome.shed.iter().filter(move |s| s.cause == cause);
    let counters = [
        ("requests.arrived", outcome.generated as u64),
        ("requests.completed", outcome.completed.len() as u64),
        ("requests.shed.rejected", shed(ShedCause::Rejected).count() as u64),
        ("requests.shed.evicted", shed(ShedCause::Evicted).count() as u64),
        ("requests.shed.deadline", shed(ShedCause::Deadline).count() as u64),
        ("requests.shed.retries_exhausted", shed(ShedCause::RetriesExhausted).count() as u64),
        ("batches.dispatched", outcome.workers.iter().map(|w| w.batches).sum()),
        ("faults.injected", outcome.faults.injected),
        ("faults.retries", outcome.faults.retries),
        ("faults.circuit_opens", outcome.faults.outages.len() as u64),
    ];
    for (name, v) in counters {
        let id = reg.counter(name);
        reg.add(id, v);
    }
    let peak = reg.gauge("queue.depth.peak");
    reg.set(peak, depth_peak as f64);
    let evicted_wait = reg.histogram("shed.evicted.wait");
    for r in shed(ShedCause::Evicted) {
        reg.observe(evicted_wait, r.wait());
    }
    let latency =
        ["latency.e2e", "latency.formation_wait", "latency.queue_wait", "latency.service"]
            .map(|name| reg.histogram(name));
    for r in &outcome.completed {
        let parts = [r.latency(), r.formation_wait(), r.queue_wait(), r.service_time()];
        for (&id, d) in latency.iter().zip(parts) {
            reg.observe(id, d);
        }
    }
    reg
}

/// Drives the [`TimeSeriesBuilder`] from the serving loop's in-order
/// events while re-ordering *completions*, which land after the batch
/// dispatch that produced them, back into their true sample windows.
struct SamplerDrive {
    b: TimeSeriesBuilder,
    /// Not-yet-sampled completions as `(completion ns, latency ns)`.
    pending: BinaryHeap<Reverse<(u64, u64)>>,
}

impl SamplerDrive {
    fn advance(&mut self, now: SimTime, queue_depth: usize) {
        while let Some(&Reverse((done, lat))) = self.pending.peek() {
            if done > now.nanos() {
                break;
            }
            self.pending.pop();
            self.b.advance(SimTime(done), queue_depth);
            self.b.on_complete(Duration::from_nanos(lat));
        }
        self.b.advance(now, queue_depth);
    }

    fn complete_later(&mut self, done: SimTime, latency: Duration) {
        self.pending.push(Reverse((done.nanos(), latency.nanos())));
    }

    fn finish(mut self, end: SimTime) -> TimeSeries {
        // The queue is empty once the loop exits; only straggling
        // completions remain.
        self.advance(end, 0);
        self.b.finish(end, 0)
    }
}

/// Live observability state threaded through [`serve_core`].
struct ObsAccum {
    sampler: SamplerDrive,
    /// Queue high-water mark, the one metric the outcome cannot give.
    depth_peak: usize,
}

/// Every sink a request outcome or a burned device span is reported
/// to: the outcome vectors and energy ledger, the trace recorder, the
/// series sampler (observed runs) and the controller's outcome buckets
/// (autoscaled runs). Each kind of outcome has one method here, so the
/// serving loop reports it once.
struct Sinks<'a, 'c> {
    rec: &'a mut dyn Recorder,
    obs: Option<&'a mut ObsAccum>,
    ctrl: Option<&'a mut CtrlState<'c>>,
    meter: EnergyMeter,
    completed: Vec<RequestRecord>,
    shed: Vec<ShedRecord>,
}

impl Sinks<'_, '_> {
    /// Trace `ev` when the recorder is on (the per-request hot path
    /// guards on [`Recorder::enabled`] itself, before building events).
    fn record(&mut self, ev: Event) {
        if self.rec.enabled() {
            self.rec.record(ev);
        }
    }

    /// Worker `w`'s circuit opened (or let traffic back) at `at`.
    fn circuit(&mut self, w: usize, open: bool, at: SimTime, ctx: Ctx) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.sampler.b.circuit_event(w, if open { 1.0 } else { 0.0 }, at);
        }
        let phase = if open { Phase::CircuitOpen } else { Phase::CircuitClose };
        self.record(Event::instant(phase, Lane::Worker(w as u32), at, ctx));
    }

    /// Request `id` arrived at `at`, finding `depth` requests queued.
    fn arrive(&mut self, id: u64, at: SimTime, depth: usize) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.sampler.advance(at, depth);
            o.sampler.b.on_arrival();
        }
        if let Some(c) = self.ctrl.as_deref_mut() {
            c.cur.arrived += 1;
        }
        if self.rec.enabled() {
            self.rec.record(Event::instant(Phase::Arrive, Lane::Server, at, Ctx::request(id)));
        }
    }

    /// A request's result reached the client; `batch` served it.
    fn complete(&mut self, r: RequestRecord, batch: u64, slo: Duration) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.sampler.complete_later(r.completed, r.latency());
        }
        if let Some(c) = self.ctrl.as_deref_mut() {
            c.outcome(r.completed, if r.latency() > slo { OUTCOME_MISS } else { OUTCOME_GOOD });
        }
        if self.rec.enabled() {
            let ctx = Ctx::request(r.id).with_batch(batch).with_worker(r.worker as u32);
            self.rec.record(Event::instant(Phase::Complete, Lane::Server, r.completed, ctx));
        }
        self.completed.push(r);
    }

    /// A request was shed. The cause fixes the trace shape: a refused
    /// arrival is an instant on the server lane; an eviction or an
    /// exhausted retry is a queue-lane span from arrival — its length
    /// is the wait burned — tagged with the failed `batch`, if any.
    fn shed(&mut self, r: ShedRecord, batch: Option<u64>) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.sampler.b.on_shed();
        }
        if let Some(c) = self.ctrl.as_deref_mut() {
            c.outcome(r.shed_at, OUTCOME_SHED);
        }
        let ctx = Ctx::request(r.id);
        let ev = match r.cause {
            ShedCause::Rejected | ShedCause::Deadline => {
                Event::instant(Phase::Shed, Lane::Server, r.shed_at, ctx)
            }
            ShedCause::Evicted | ShedCause::RetriesExhausted => {
                let ctx = batch.map_or(ctx, |b| ctx.with_batch(b));
                Event::span(Phase::Shed, Lane::Queue, r.arrival, r.shed_at, ctx)
            }
        };
        self.record(ev.with_cause(r.cause));
        self.shed.push(r);
    }

    /// Member `m` of `batch` failed at `at`: retry it no earlier than
    /// `earliest`, returning the request to re-enqueue, or shed it once
    /// it is out of attempts.
    fn retry_or_shed(
        &mut self,
        m: &Pending,
        at: SimTime,
        earliest: SimTime,
        batch: u64,
        max_attempts: u32,
        faults: &mut FaultStats,
    ) -> Option<Pending> {
        let attempts = m.attempts + 1;
        if attempts >= max_attempts {
            faults.exhausted += 1;
            let cause = ShedCause::RetriesExhausted;
            self.shed(ShedRecord { id: m.id, arrival: m.arrival, shed_at: at, cause }, Some(batch));
            return None;
        }
        faults.retries += 1;
        let ctx = Ctx::request(m.id).with_batch(batch);
        self.record(Event::instant(Phase::RetryAttempt, Lane::Server, at, ctx));
        Some(Pending { id: m.id, arrival: m.arrival, attempts, earliest })
    }

    /// Bill `from..to`, a span worker `w` really burned on `batch`, to
    /// the energy ledger and the series' power columns. Returns the
    /// busy energy charged, in pJ (zero when earlier charges already
    /// cover the span).
    fn charge(&mut self, w: usize, from: SimTime, to: SimTime, batch: u64, wasted: bool) -> u64 {
        let Some(sp) = self.meter.charge(w as u32, from, to, batch, wasted) else {
            return 0;
        };
        if let Some(o) = self.obs.as_deref_mut() {
            o.sampler.b.on_energy_span(w, sp.start, sp.end);
        }
        self.meter.profiles()[w].energy_pj(sp.end.nanos() - sp.start.nanos(), 0)
    }
}

// ---------------------------------------------------------------------
// Autoscaling: the actuation half of the `ncsw-ctrl` closed loop
// ---------------------------------------------------------------------

/// Actuator parameters of an autoscaled run ([`serve_autoscaled`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingConfig {
    /// Controller tick interval: the policy sees fresh signals and may
    /// act this often. The first tick fires at the epoch.
    pub tick: Duration,
    /// Virtual delay between a scale-up decision and the stick being
    /// dispatchable (plug/enumerate/boot of an NCS device).
    pub provision_delay: Duration,
    /// Floor on live-plus-provisioning elastic sticks — the actuator
    /// never drains below it regardless of what the policy asks.
    pub min_live: usize,
    /// Worker indices the controller may drain and power-gate
    /// (typically [`crate::fleet::FleetSpec::elastic_workers`]).
    pub elastic: Vec<usize>,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            tick: Duration::from_millis(50.0),
            provision_delay: Duration::from_millis(200.0),
            min_live: 1,
            elastic: Vec::new(),
        }
    }
}

/// Controller-side accounting of one autoscaled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingStats {
    /// Policy that drove the run ([`ScalingPolicy::name`]).
    pub policy: String,
    pub ticks: u64,
    /// Sticks powered on (each is one `ScaleUp` span in the trace).
    pub scale_ups: u64,
    /// Sticks drained and power-gated (`Drain` + `ScaleDown` events).
    pub scale_downs: u64,
    /// Scale-ups issued while live circuits were open — replacements
    /// spun up during an `ncsw-faults` outage.
    pub replacements: u64,
    /// The elastic pool the controller was allowed to act on.
    pub elastic: Vec<usize>,
}

/// Lifecycle of one elastic stick as the actuator tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScaleState {
    Live,
    /// Powered on at the decision tick, dispatchable from `ready_at`.
    Provisioning {
        ready_at: SimTime,
    },
    /// Drained; power-gated from `since` (the instant its last
    /// in-flight batch finished).
    Gated {
        since: SimTime,
    },
}

/// One controller-tick window of outcome counts, the raw material of
/// the burn-rate and shed-rate signals.
#[derive(Debug, Clone, Copy, Default)]
struct TickBucket {
    arrived: u64,
    completed: u64,
    /// Completions over the SLO.
    missed: u64,
    shed: u64,
}

/// Burn-window lengths in ticks, mirroring `ncsw-analyze`'s two-window
/// alert defaults (fast 3 samples, slow 12).
const FAST_WINDOW: usize = 3;
const SLOW_WINDOW: usize = 12;

/// Outcome kinds binned into [`TickBucket`]s by instant.
const OUTCOME_GOOD: u8 = 0;
const OUTCOME_MISS: u8 = 1;
const OUTCOME_SHED: u8 = 2;

/// Controller state threaded through [`serve_core`] on autoscaled runs.
/// `None` everywhere else — the static-fleet paths never construct one,
/// which is what keeps them bit-identical to pre-controller behavior.
struct CtrlState<'a> {
    cfg: ScalingConfig,
    policy: &'a mut dyn ScalingPolicy,
    /// Per-worker lifecycle; non-elastic workers stay `Live` forever.
    state: Vec<ScaleState>,
    next_tick: SimTime,
    /// Nameplate capacity of one elastic stick / of the always-on rest.
    stick_rps: f64,
    base_rps: f64,
    /// Completions and sheds not yet binned, as `(instant ns, kind)` —
    /// a min-heap because completions land after the dispatch that
    /// produced them, possibly several ticks out.
    outcomes: BinaryHeap<Reverse<(u64, u8)>>,
    /// The bucket accumulating the current tick window.
    cur: TickBucket,
    /// Closed per-tick buckets, most recent last (capped at the slow
    /// burn window).
    hist: VecDeque<TickBucket>,
    stats: ScalingStats,
}

impl<'a> CtrlState<'a> {
    fn new(
        scaling: &ScalingConfig,
        workers: &[Box<dyn ServiceHook>],
        policy: &'a mut dyn ScalingPolicy,
    ) -> CtrlState<'a> {
        assert!(scaling.tick > Duration::ZERO, "controller tick must be positive");
        assert!(scaling.elastic.iter().all(|&w| w < workers.len()), "elastic index out of range");
        let mut cfg = scaling.clone();
        cfg.elastic.sort_unstable();
        cfg.elastic.dedup();
        // If the whole fleet is elastic, at least one stick must stay
        // up or the dispatcher would have nowhere to route.
        if cfg.elastic.len() == workers.len() {
            cfg.min_live = cfg.min_live.max(1);
        }
        let stick_rps = cfg.elastic.first().map_or(0.0, |&w| worker_rps(workers[w].as_ref()));
        let base_rps = (0..workers.len())
            .filter(|i| !cfg.elastic.contains(i))
            .map(|i| worker_rps(workers[i].as_ref()))
            .sum();
        let policy_name = policy.name().to_string();
        let elastic = cfg.elastic.clone();
        CtrlState {
            cfg,
            policy,
            state: vec![ScaleState::Live; workers.len()],
            next_tick: SimTime::ZERO,
            stick_rps,
            base_rps,
            outcomes: BinaryHeap::new(),
            cur: TickBucket::default(),
            hist: VecDeque::with_capacity(SLOW_WINDOW),
            stats: ScalingStats {
                policy: policy_name,
                ticks: 0,
                scale_ups: 0,
                scale_downs: 0,
                replacements: 0,
                elastic,
            },
        }
    }

    /// Hand the policy its allowed foresight and schedule the first
    /// tick at the epoch (so the oracle can gate from the very start).
    fn prime(&mut self, arrivals: &[SimTime], epoch: SimTime) {
        self.next_tick = epoch;
        let ctx = PrimeContext {
            epoch,
            tick: self.cfg.tick,
            provision_delay: self.cfg.provision_delay,
            stick_rps: self.stick_rps,
            base_rps: self.base_rps,
            total_sticks: self.cfg.elastic.len(),
            min_live: self.cfg.min_live,
        };
        self.policy.prime(arrivals, &ctx);
    }

    fn outcome(&mut self, at: SimTime, kind: u8) {
        self.outcomes.push(Reverse((at.nanos(), kind)));
    }

    /// Sum a field over the trailing `window` closed buckets.
    fn window_sum(&self, window: usize, f: impl Fn(&TickBucket) -> u64) -> (u64, usize) {
        let k = self.hist.len().min(window);
        (self.hist.iter().rev().take(k).map(f).sum(), k)
    }

    fn signals(&self, tk: SimTime, queue_depth: usize, fo: &FailoverState) -> ScaleSignals {
        let (mut live, mut provisioning, mut gated, mut open_circuits) = (0, 0, 0, 0);
        let mut quarantined = 0;
        for &w in &self.cfg.elastic {
            match self.state[w] {
                ScaleState::Live => {
                    live += 1;
                    if fo.health[w].is_open() {
                        open_circuits += 1;
                    }
                    if fo.quarantined[w].is_some() {
                        quarantined += 1;
                    }
                }
                ScaleState::Provisioning { .. } => provisioning += 1,
                ScaleState::Gated { .. } => gated += 1,
            }
        }
        let (fast_miss, fast_k) = self.window_sum(FAST_WINDOW, |b| b.missed);
        let (fast_done, _) = self.window_sum(FAST_WINDOW, |b| b.completed);
        let (slow_miss, _) = self.window_sum(SLOW_WINDOW, |b| b.missed);
        let (slow_done, _) = self.window_sum(SLOW_WINDOW, |b| b.completed);
        let (shed, _) = self.window_sum(FAST_WINDOW, |b| b.shed);
        let (arrived, _) = self.window_sum(FAST_WINDOW, |b| b.arrived);
        let frac = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        let window_s = self.cfg.tick.as_secs() * fast_k.max(1) as f64;
        ScaleSignals {
            now: tk,
            queue_depth,
            queue_capacity: fo.eff_capacity,
            fast_burn: frac(fast_miss, fast_done),
            slow_burn: frac(slow_miss, slow_done),
            shed_rate: frac(shed, arrived),
            arrival_rps: arrived as f64 / window_s,
            live,
            provisioning,
            gated,
            open_circuits,
            quarantined,
            stick_rps: self.stick_rps,
            base_rps: self.base_rps,
        }
    }
}

/// Process one controller tick: flip provisioned sticks live, close the
/// outcome bucket, ask the policy, and actuate its decision. Dispatch
/// is synchronous, so at drain time every worker's `busy_until` is
/// final — the power-gate instant is computable eagerly.
fn ctrl_tick(
    ctrl: &mut CtrlState,
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    fo: &mut FailoverState,
    queue_depth: usize,
    out: &mut Sinks,
) {
    let tk = ctrl.next_tick;
    ctrl.next_tick = tk + ctrl.cfg.tick;
    ctrl.stats.ticks += 1;

    // Provisioning sticks whose delay elapsed become dispatchable.
    let mut changed = false;
    for &w in &ctrl.cfg.elastic {
        if let ScaleState::Provisioning { ready_at } = ctrl.state[w] {
            if ready_at <= tk {
                ctrl.state[w] = ScaleState::Live;
                fo.not_ready[w] = None;
                changed = true;
            }
        }
    }
    if changed {
        fo.recompute_degradation(workers, cfg);
    }

    // Close the tick's outcome bucket.
    while let Some(&Reverse((at, kind))) = ctrl.outcomes.peek() {
        if at > tk.nanos() {
            break;
        }
        ctrl.outcomes.pop();
        match kind {
            OUTCOME_SHED => ctrl.cur.shed += 1,
            OUTCOME_MISS => {
                ctrl.cur.completed += 1;
                ctrl.cur.missed += 1;
            }
            _ => ctrl.cur.completed += 1,
        }
    }
    ctrl.hist.push_back(ctrl.cur);
    if ctrl.hist.len() > SLOW_WINDOW {
        ctrl.hist.pop_front();
    }
    ctrl.cur = TickBucket::default();

    let signals = ctrl.signals(tk, queue_depth, fo);
    let wctx = |w: usize| Ctx::NONE.with_worker(w as u32);
    match ctrl.policy.decide(&signals) {
        ScaleDecision::Hold => {}
        ScaleDecision::Down(k) => {
            // Drain the highest-index live sticks, never below the
            // floor. Dispatches stop now; the gate lands when the
            // stick's (already final) backlog does.
            let committed = signals.live + signals.provisioning;
            let allowed = committed.saturating_sub(ctrl.cfg.min_live).min(k);
            let victims: Vec<usize> = ctrl
                .cfg
                .elastic
                .iter()
                .rev()
                .copied()
                .filter(|&w| ctrl.state[w] == ScaleState::Live)
                .take(allowed)
                .collect();
            for &w in &victims {
                let gate_at = SimTime::max_of(tk, workers[w].busy_until());
                ctrl.state[w] = ScaleState::Gated { since: gate_at };
                fo.gated[w] = true;
                out.meter.power_off(w as u32, gate_at);
                ctrl.stats.scale_downs += 1;
                let lane = Lane::Worker(w as u32);
                out.record(Event::instant(Phase::Drain, lane, tk, wctx(w)));
                out.record(Event::instant(Phase::ScaleDown, lane, gate_at, wctx(w)));
                if let Some(o) = out.obs.as_deref_mut() {
                    o.sampler.b.power_event(w, gate_at, false);
                }
            }
            if !victims.is_empty() {
                if let Some(o) = out.obs.as_deref_mut() {
                    o.sampler.b.scale_event(tk, -(victims.len() as i64), 1);
                }
                fo.recompute_degradation(workers, cfg);
            }
        }
        ScaleDecision::Up(k) => {
            // Power the lowest-index gated sticks back on. Sticks still
            // draining (gate instant ahead of this tick) are skipped —
            // re-upping one inside its own drain window would be flap,
            // and skipping keeps every power window strictly ordered.
            let picks: Vec<(usize, SimTime)> = ctrl
                .cfg
                .elastic
                .iter()
                .copied()
                .filter_map(|w| match ctrl.state[w] {
                    ScaleState::Gated { since } if since < tk => Some((w, since)),
                    _ => None,
                })
                .take(k)
                .collect();
            for &(w, _) in &picks {
                let ready_at = tk + ctrl.cfg.provision_delay;
                ctrl.state[w] = ScaleState::Provisioning { ready_at };
                fo.gated[w] = false;
                fo.not_ready[w] = Some(ready_at);
                fo.ready_floor[w] = ready_at;
                // Provisioning draws idle power from the decision on.
                out.meter.power_on(w as u32, tk);
                ctrl.stats.scale_ups += 1;
                if signals.open_circuits > 0 {
                    ctrl.stats.replacements += 1;
                }
                out.record(Event::span(
                    Phase::ScaleUp,
                    Lane::Worker(w as u32),
                    tk,
                    ready_at,
                    wctx(w),
                ));
                if let Some(o) = out.obs.as_deref_mut() {
                    o.sampler.b.power_event(w, tk, true);
                    o.sampler.b.scale_event(ready_at, 1, 0);
                }
            }
            if !picks.is_empty() {
                if let Some(o) = out.obs.as_deref_mut() {
                    o.sampler.b.scale_event(tk, 0, 1);
                }
                fo.recompute_degradation(workers, cfg);
            }
        }
    }
}

/// Circuit-breaker state of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Circuit {
    Closed,
    Open {
        until: SimTime,
    },
    /// Cooldown elapsed and a probe batch is in flight; the probe's
    /// outcome closes or reopens the circuit.
    HalfOpen,
}

/// Per-worker health as the dispatcher sees it.
struct Health {
    circuit: Circuit,
    consecutive_failures: u32,
    cooldown: Duration,
}

impl Health {
    fn new(robust: &RobustConfig) -> Health {
        Health {
            circuit: Circuit::Closed,
            consecutive_failures: 0,
            cooldown: robust.breaker_cooldown,
        }
    }

    fn is_open(&self) -> bool {
        matches!(self.circuit, Circuit::Open { .. })
    }

    /// Earliest instant this worker may receive a dispatch (half-open
    /// probes included); `None` while closed/half-open.
    fn open_until(&self) -> Option<SimTime> {
        match self.circuit {
            Circuit::Open { until } => Some(until),
            _ => None,
        }
    }
}

/// Online histogram of observed service-span / estimate ratios, in
/// 1/256 fixed point (integer-only, so the hedge delay it yields is
/// deterministic and byte-stable across platforms). Normalizing by the
/// calibrated estimate folds batch-size and device-speed differences
/// into one distribution — exactly the quantity a fail-slow stretch
/// inflates.
struct RatioHist {
    /// Linear buckets of width 1/256, saturating at a 16× ratio.
    buckets: Vec<u32>,
    n: u64,
}

const RATIO_FP: u64 = 256;
const RATIO_BUCKETS: usize = 4096;

impl RatioHist {
    fn new() -> RatioHist {
        RatioHist { buckets: vec![0; RATIO_BUCKETS], n: 0 }
    }

    fn record(&mut self, span_ns: u64, est_ns: u64) {
        if est_ns == 0 {
            return;
        }
        let fp = (span_ns.saturating_mul(RATIO_FP) / est_ns).min(RATIO_BUCKETS as u64 - 1);
        self.buckets[fp as usize] += 1;
        self.n += 1;
    }

    /// Upper edge of the `q`-quantile bucket as a ×256 fixed-point
    /// ratio; `None` until `min_samples` ratios were recorded.
    fn quantile_fp(&self, q: f64, min_samples: u64) -> Option<u64> {
        if self.n < min_samples.max(1) {
            return None;
        }
        let target = (((self.n as f64) * q).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return Some(i as u64 + 1);
            }
        }
        Some(RATIO_BUCKETS as u64)
    }
}

/// Mutable failover state of one run, kept out of `serve_core`'s way.
struct FailoverState {
    health: Vec<Health>,
    /// Power-gated by the autoscaler: never routable until a `ScaleUp`
    /// clears the flag. All-false on static runs.
    gated: Vec<bool>,
    /// Provisioning floor: dispatches may not land before this instant
    /// (autoscaled runs only; all-`None` on static runs).
    not_ready: Vec<Option<SimTime>>,
    /// Monotone routing floor left behind by every `ScaleUp`: replanning
    /// may move a dispatch instant into the past (a queue head whose
    /// deadline already lapsed), and `not_ready` is cleared once the
    /// controller counts the stick live again — this watermark keeps any
    /// such dispatch from being stamped before the stick finished
    /// provisioning. All-zero on static runs.
    ready_floor: Vec<SimTime>,
    /// Nameplate fleet capacity, measured once at start.
    nameplate_rps: f64,
    /// Live capacity across non-open workers (== nameplate while all
    /// circuits are closed).
    live_rps: f64,
    /// Queue capacity after graceful degradation.
    eff_capacity: usize,
    /// Batch fill target after degradation.
    fill_limit: usize,
    stats: FaultStats,
    /// Fail-slow quarantine: the instant each worker's window ends
    /// (`None` = not quarantined). A quarantined worker is blocked like
    /// an open circuit; once the window elapses the next planned
    /// dispatch to it becomes the probation probe.
    quarantined: Vec<Option<SimTime>>,
    probation: Vec<bool>,
    /// Consecutive latency-outlier batches per worker.
    outlier_run: Vec<u32>,
    /// Next quarantine window per worker (escalates on probation
    /// failures, resets on a clean probe).
    quar_window: Vec<Duration>,
    /// Span/estimate ratios feeding the hedge delay (populated only
    /// when a gray defense is on). Fleet-wide on purpose: normalizing
    /// by each worker's own estimate folds out device speed (healthy
    /// ratios sit near 1.0 for every device class), and pooling lets a
    /// slow minority worker — which may serve only a handful of batches
    /// all run — inherit an armed hedge delay from the rest of the
    /// fleet instead of never reaching `min_samples` on its own.
    hist: RatioHist,
    gray: GrayStats,
}

impl FailoverState {
    fn new(workers: &[Box<dyn ServiceHook>], cfg: &ServeConfig) -> FailoverState {
        let nameplate_rps: f64 = workers.iter().map(|w| worker_rps(w.as_ref())).sum();
        let base_window = cfg.gray.quarantine.map_or(Duration::ZERO, |q| q.window);
        FailoverState {
            health: workers.iter().map(|_| Health::new(&cfg.robust)).collect(),
            gated: vec![false; workers.len()],
            not_ready: vec![None; workers.len()],
            ready_floor: vec![SimTime::ZERO; workers.len()],
            nameplate_rps,
            live_rps: nameplate_rps,
            eff_capacity: cfg.queue_capacity,
            fill_limit: cfg.max_batch,
            stats: FaultStats::default(),
            quarantined: vec![None; workers.len()],
            probation: vec![false; workers.len()],
            outlier_run: vec![0; workers.len()],
            quar_window: vec![base_window; workers.len()],
            hist: RatioHist::new(),
            gray: GrayStats::default(),
        }
    }

    /// Worker `i` is out of the dispatch pool right now: circuit open,
    /// power-gated, still provisioning, or quarantined as fail-slow.
    fn blocked(&self, i: usize) -> bool {
        self.health[i].is_open()
            || self.gated[i]
            || self.not_ready[i].is_some()
            || self.quarantined[i].is_some()
    }

    /// Earliest instant worker `i` may receive a dispatch (`None` = no
    /// floor): breaker cooldown, provisioning delay and quarantine
    /// window all gate it.
    fn floor_of(&self, i: usize) -> Option<SimTime> {
        match (
            self.health[i].open_until(),
            self.not_ready[i],
            self.quarantined[i],
            self.ready_floor[i],
        ) {
            (None, None, None, SimTime::ZERO) => None,
            (a, b, q, f) => Some(SimTime::max_of(
                SimTime::max_of(
                    SimTime::max_of(a.unwrap_or(SimTime::ZERO), b.unwrap_or(SimTime::ZERO)),
                    q.unwrap_or(SimTime::ZERO),
                ),
                f,
            )),
        }
    }

    /// Worker `i` may be handed a batch at `at` (gates never clear on
    /// their own; floors do once elapsed).
    fn routable_at(&self, i: usize, at: SimTime) -> bool {
        !self.gated[i] && self.floor_of(i).is_none_or(|until| until <= at)
    }

    fn any_blocked(&self) -> bool {
        (0..self.health.len()).any(|i| self.blocked(i))
    }

    /// Recompute surviving capacity and the degraded admission/batching
    /// limits after a circuit or scaling state change. With every
    /// circuit closed and no sticks gated this restores the configured
    /// limits exactly.
    fn recompute_degradation(&mut self, workers: &[Box<dyn ServiceHook>], cfg: &ServeConfig) {
        if !self.any_blocked() {
            self.live_rps = self.nameplate_rps;
            self.eff_capacity = cfg.queue_capacity;
            self.fill_limit = cfg.max_batch;
            return;
        }
        let dead: Vec<bool> = (0..workers.len()).map(|i| self.blocked(i)).collect();
        self.live_rps = live_capacity_rps(workers, &dead);
        let frac = if self.nameplate_rps > 0.0 { self.live_rps / self.nameplate_rps } else { 0.0 };
        self.eff_capacity = ((cfg.queue_capacity as f64 * frac).floor() as usize).max(1);
        self.fill_limit = cfg.max_batch.min(live_preferred_batch(workers, &dead)).max(1);
    }

    /// Estimated completion instant of a fresh arrival at `at`, given
    /// the backlog ahead of it and the fastest surviving worker.
    fn deadline_estimate(
        &self,
        at: SimTime,
        backlog: usize,
        workers: &[Box<dyn ServiceHook>],
    ) -> Option<SimTime> {
        if self.live_rps <= 0.0 {
            return None; // no surviving capacity: hopeless
        }
        let queue_wait = Duration::from_secs(backlog as f64 / self.live_rps);
        let service = (0..workers.len())
            .filter(|&i| !self.blocked(i))
            .map(|i| workers[i].estimate(1))
            .min()?;
        Some(at + queue_wait + service)
    }
}

/// Dispatch plan: worker index plus the instant the batch is handed
/// over. Pure — the round-robin cursor only advances when a plan is
/// executed. Open-circuit workers are skipped unless their cooldown has
/// elapsed by `ready` (making them probe candidates); provisioning
/// sticks likewise become routable once their `not_ready` floor passes.
/// Power-gated sticks are never candidates — only a controller
/// `ScaleUp` brings them back. When *every* worker is blocked the plan
/// waits for the earliest floor among the non-gated ones.
fn choose_worker(
    policy: DispatchPolicy,
    ready: SimTime,
    batch: usize,
    workers: &[Box<dyn ServiceHook>],
    rr_cursor: usize,
    fo: &FailoverState,
) -> (usize, SimTime) {
    // Breaker cooldown, provisioning delay and quarantine windows all
    // floor a worker's next dispatch ([`FailoverState::floor_of`]).
    let routable = |i: usize| -> bool { fo.routable_at(i, ready) };
    if !(0..workers.len()).any(&routable) {
        // Everyone is blocked: wait for the earliest floor and probe.
        let w = (0..workers.len())
            .filter(|&i| !fo.gated[i])
            .min_by_key(|&i| (fo.floor_of(i).expect("blocked worker has a floor"), i))
            .expect("min_live keeps at least one worker un-gated");
        let until = fo.floor_of(w).expect("blocked");
        return (w, SimTime::max_of(SimTime::max_of(ready, until), workers[w].busy_until()));
    }
    match policy {
        DispatchPolicy::RoundRobin => {
            let w = (0..workers.len())
                .map(|k| (rr_cursor + k) % workers.len())
                .find(|&i| routable(i))
                .expect("some worker is routable");
            (w, SimTime::max_of(ready, workers[w].busy_until()))
        }
        DispatchPolicy::LeastOutstanding => {
            let w = (0..workers.len())
                .filter(|&i| routable(i))
                .min_by_key(|&i| (workers[i].busy_until(), i))
                .expect("some worker is routable");
            (w, SimTime::max_of(ready, workers[w].busy_until()))
        }
        DispatchPolicy::CostAware => {
            let w = (0..workers.len())
                .filter(|&i| routable(i))
                .min_by_key(|&i| {
                    let b = clamp_batch(batch, workers[i].as_ref());
                    let start = SimTime::max_of(ready, workers[i].busy_until());
                    (start + workers[i].estimate(b), i)
                })
                .expect("some worker is routable");
            (w, SimTime::max_of(ready, workers[w].busy_until()))
        }
    }
}

fn clamp_batch(batch: usize, worker: &dyn ServiceHook) -> usize {
    let cap = worker.max_batch().unwrap_or(usize::MAX).min(worker.preferred_batch());
    batch.min(cap).max(1)
}

/// `t + d` without overflow (the dispatch-timeout horizon).
fn saturating_add(t: SimTime, d: Duration) -> SimTime {
    SimTime(t.nanos().saturating_add(d.nanos()))
}

/// Run the serving loop: `n` open-loop arrivals from `process` against
/// `workers`, under `cfg`. Arrivals start at the fleet-ready epoch (the
/// latest worker boot instant), so cold-start time is not billed to the
/// first requests.
pub fn serve(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
) -> ServeOutcome {
    let mut null = NullRecorder;
    serve_core(workers, cfg, process, n, &mut null, None, None)
}

/// [`serve`] with a closed-loop autoscaler: every `scaling.tick` of
/// virtual time the `policy` sees a [`ScaleSignals`] snapshot and may
/// drain (power-gate) or re-provision the elastic sticks in
/// `scaling.elastic`. A policy that always holds yields the exact
/// static-fleet outcome — actuation, not observation, is the only way
/// the controller touches the run.
pub fn serve_autoscaled(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    scaling: &ScalingConfig,
    policy: &mut dyn ScalingPolicy,
) -> ServeOutcome {
    let mut null = NullRecorder;
    let mut ctrl = CtrlState::new(scaling, workers, policy);
    serve_core(workers, cfg, process, n, &mut null, None, Some(&mut ctrl))
}

/// [`serve`] with observability: identical outcome (the recorder never
/// influences timing or RNG state), plus the captured event stream,
/// sampled time series and metric registry.
pub fn serve_observed(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    ocfg: &ObsConfig,
) -> (ServeOutcome, ServeObservation) {
    observed_core(workers, cfg, process, n, ocfg, None)
}

/// [`serve_autoscaled`] with observability. The exported time series
/// carries the `live_sticks` / `scale_events` columns (static runs omit
/// them, byte-for-byte), and the trace gains `Drain` / `ScaleDown` /
/// `ScaleUp` events plus power lanes that go dark while a stick is
/// gated.
pub fn serve_autoscaled_observed(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    scaling: &ScalingConfig,
    policy: &mut dyn ScalingPolicy,
    ocfg: &ObsConfig,
) -> (ServeOutcome, ServeObservation) {
    let mut ctrl = CtrlState::new(scaling, workers, policy);
    observed_core(workers, cfg, process, n, ocfg, Some(&mut ctrl))
}

fn observed_core(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    ocfg: &ObsConfig,
    ctrl: Option<&mut CtrlState>,
) -> (ServeOutcome, ServeObservation) {
    assert!(!workers.is_empty(), "need at least one worker");
    let epoch = workers.iter().map(|w| w.busy_until()).max().unwrap();
    let labels = workers.iter().map(|w| w.label()).collect();
    let mut builder = TimeSeriesBuilder::new(labels, epoch, ocfg.sample_every, cfg.slo);
    builder.set_power(
        workers
            .iter()
            .map(|w| {
                let p = w.energy_profile();
                (p.busy_mw, p.idle_mw)
            })
            .collect(),
    );
    if ctrl.is_some() {
        // Every worker starts live; scale events adjust from there.
        builder.enable_scaling(workers.len());
    }
    let mut obs = ObsAccum {
        sampler: SamplerDrive { b: builder, pending: BinaryHeap::new() },
        depth_peak: 0,
    };
    // Recorder stack, all passive: the base sink is either the full
    // event log or a tail-sampling recorder, teed into the always-on
    // flight-recorder ring; with the profiler on, the stack is wrapped
    // to meter the record() path (events forwarded + wall ns). None of
    // the layers influence timing or RNG state, so the outcome is
    // identical whichever stack is active.
    let mut full_log: Option<EventLog> = None;
    let mut sampler: Option<SamplingRecorder> = None;
    let mut flight = FlightRecorder::new(ocfg.flight.clone());
    let outcome = {
        let base: &mut dyn Recorder = match &ocfg.sample {
            Some(policy) => {
                sampler.insert(SamplingRecorder::new(policy.clone(), cfg.seed, cfg.slo))
            }
            None => full_log.insert(EventLog::new()),
        };
        let mut tee = Tee { a: base, b: &mut flight };
        if prof::enabled() {
            let mut profiled = ProfiledRecorder::new(&mut tee);
            serve_core(workers, cfg, process, n, &mut profiled, Some(&mut obs), ctrl)
        } else {
            serve_core(workers, cfg, process, n, &mut tee, Some(&mut obs), ctrl)
        }
    };
    let (mut events, sample) = match sampler {
        Some(s) => {
            let (log, stats) = s.finish();
            (log, Some(stats))
        }
        None => (full_log.unwrap_or_default(), None),
    };
    let series = obs.sampler.finish(outcome.end());
    let mut registry = registry_of(&outcome, obs.depth_peak);
    // Power lanes + energy counters come straight off the run's ledger,
    // so the exported trace alone re-integrates the exact same
    // picojoule totals the server reports.
    let horizon = outcome.energy_horizon();
    outcome.energy.record_into(&mut events, horizon);
    outcome.energy.register(&mut registry, horizon);
    (outcome, ServeObservation { events, series, registry, sample, flight })
}

fn serve_core(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    rec: &mut dyn Recorder,
    obs: Option<&mut ObsAccum>,
    mut ctrl: Option<&mut CtrlState>,
) -> ServeOutcome {
    assert!(!workers.is_empty(), "need at least one worker");
    assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
    assert!(cfg.max_batch > 0, "max_batch must be positive");
    assert!(cfg.robust.max_attempts > 0, "max_attempts must be positive");

    let epoch = workers.iter().map(|w| w.busy_until()).max().unwrap();
    let arrivals = process.arrivals(n, epoch, cfg.seed);
    if let Some(c) = ctrl.as_deref_mut() {
        c.prime(&arrivals, epoch);
    }

    let mut stats: Vec<WorkerStats> = workers
        .iter()
        .map(|w| WorkerStats {
            label: w.label(),
            batches: 0,
            images: 0,
            busy: Duration::ZERO,
            ready_at: w.busy_until(),
            failures: 0,
        })
        .collect();

    let mut out = Sinks {
        rec,
        obs,
        ctrl,
        // Passive energy ledger: one power profile per worker, charged
        // for every span a device actually burns (served batches,
        // timed-out work, fail-fast probes). Charges are clipped, so a
        // probe span overlapping the next dispatch never double-counts.
        meter: EnergyMeter::new(workers.iter().map(|w| w.energy_profile()).collect(), epoch),
        completed: Vec::with_capacity(n),
        shed: Vec::new(),
    };

    let mut fo = FailoverState::new(workers, cfg);
    // Jitter stream: created eagerly (pure), drawn from only on failure,
    // so a fault-free run's RNG state is untouched.
    let mut jitter_rng = vpu_num::rng::stream(cfg.seed, "serve-backoff");

    let mut queue: VecDeque<Pending> = VecDeque::new();
    let mut next = 0usize; // next arrival index
    let mut rr_cursor = 0usize;
    let mut batch_seq = 0u64;

    // Host-side self-observability: every loop iteration handles
    // exactly one event (arrival, dispatch or controller tick), so the
    // iteration count *is* the sim-event count — deterministic, and the
    // numerator of the events/sec throughput meter. The prof scopes are
    // wall-clock only and cost one thread-local boolean when disabled.
    let mut sim_events = 0u64;
    let _prof_loop = prof::scope("serve.loop");

    loop {
        // Earliest instant the current queue head could be dispatched:
        // batch-full close (the arrival that filled it) or the oldest
        // member's deadline, whichever fires first — floored by the
        // head's retry backoff.
        let plan = {
            let _sp = prof::scope("serve.plan");
            if queue.is_empty() {
                None
            } else {
                let front = queue.front().unwrap();
                let deadline = front.arrival + cfg.max_wait;
                // Full-close fires at the arrival that filled the batch.
                let ready = if queue.len() >= fo.fill_limit {
                    queue[fo.fill_limit - 1].arrival.min(deadline)
                } else {
                    deadline
                };
                let ready = SimTime::max_of(ready, front.earliest);
                let hint = queue.len().min(fo.fill_limit);
                Some(choose_worker(cfg.policy, ready, hint, workers, rr_cursor, &fo))
            }
        };

        // Controller tick: fires before any arrival or dispatch at or
        // after it (ties go to the tick), then the plan is recomputed
        // against the post-tick fleet. Once the run is out of work the
        // controller stops with it.
        // The controller is lent out of `out` for the tick, which
        // reports through the other sinks.
        if let Some(c) = out.ctrl.take() {
            let next_event = match (arrivals.get(next), plan) {
                (Some(&at), Some((_, t))) => Some(at.min(t)),
                (Some(&at), None) => Some(at),
                (None, Some((_, t))) => Some(t),
                (None, None) => None,
            };
            let due = next_event.is_some_and(|e| c.next_tick <= e);
            if due {
                let _sc = prof::scope("serve.ctrl_tick");
                sim_events += 1;
                ctrl_tick(c, workers, cfg, &mut fo, queue.len(), &mut out);
            }
            out.ctrl = Some(c);
            if due {
                continue;
            }
        }

        match (arrivals.get(next), plan) {
            // Admit the next arrival when it precedes (or ties) the
            // planned dispatch.
            (Some(&at), p) if p.is_none() || at <= p.unwrap().1 => {
                let _sa = prof::scope("serve.arrival");
                sim_events += 1;
                let id = next as u64;
                next += 1;
                out.arrive(id, at, queue.len());
                if queue.len() >= fo.eff_capacity {
                    match cfg.shed {
                        ShedPolicy::Reject | ShedPolicy::DeadlineAware => {
                            let cause = ShedCause::Rejected;
                            out.shed(ShedRecord { id, arrival: at, shed_at: at, cause }, None);
                            continue;
                        }
                        ShedPolicy::DropOldest => {
                            let old = queue.pop_front().unwrap();
                            let (old_id, arrival) = (old.id, old.arrival);
                            let cause = ShedCause::Evicted;
                            out.shed(ShedRecord { id: old_id, arrival, shed_at: at, cause }, None);
                        }
                    }
                }
                // Deadline-aware admission: don't accept work that is
                // already hopeless given backlog + surviving capacity.
                if cfg.shed == ShedPolicy::DeadlineAware {
                    let hopeless = match fo.deadline_estimate(at, queue.len(), workers) {
                        Some(est) => est > at + cfg.slo,
                        None => true,
                    };
                    if hopeless {
                        let cause = ShedCause::Deadline;
                        out.shed(ShedRecord { id, arrival: at, shed_at: at, cause }, None);
                        continue;
                    }
                }
                queue.push_back(Pending { id, arrival: at, attempts: 0, earliest: at });
                if let Some(o) = out.obs.as_deref_mut() {
                    o.depth_peak = o.depth_peak.max(queue.len());
                }
                if out.rec.enabled() {
                    let ctx = Ctx::request(id);
                    out.rec.record(Event::instant(Phase::Admit, Lane::Server, at, ctx));
                    out.rec.record(Event::instant(Phase::Enqueue, Lane::Queue, at, ctx));
                }
            }
            (_, Some((w, t))) => {
                let _sd = prof::scope("serve.dispatch");
                sim_events += 1;
                if cfg.policy == DispatchPolicy::RoundRobin {
                    rr_cursor += 1;
                }
                // Half-open transition: the cooldown elapsed and this
                // dispatch is the probe. The circuit counts as closed
                // from here — a failed probe reopens it.
                if fo.health[w].is_open() {
                    fo.health[w].circuit = Circuit::HalfOpen;
                    if let Some(o) = fo
                        .stats
                        .outages
                        .iter_mut()
                        .rev()
                        .find(|o| o.worker == w && o.until.is_none())
                    {
                        o.until = Some(t);
                    }
                    fo.recompute_degradation(workers, cfg);
                    out.circuit(w, false, t, Ctx::NONE.with_worker(w as u32));
                }
                // Quarantine expiry: this dispatch is the probation
                // probe. The worker re-enters the pool; its next
                // latency outlier re-quarantines it immediately with an
                // escalated window, while a clean batch clears
                // probation and resets the window.
                if fo.quarantined[w].is_some() {
                    fo.quarantined[w] = None;
                    fo.probation[w] = true;
                    fo.gray.probations += 1;
                    fo.recompute_degradation(workers, cfg);
                    let ctx = Ctx::NONE.with_worker(w as u32);
                    out.record(Event::instant(Phase::Probation, Lane::Worker(w as u32), t, ctx));
                }
                // Replanning can move the dispatch instant *earlier* than a
                // previously admitted arrival (e.g. cost-aware estimates
                // shift as the queue grows), so a batch closing at `t` may
                // only take members that had arrived by `t`. The front
                // always qualifies: every close instant is >= its arrival
                // and >= its backoff floor.
                let mut eligible = 0;
                while eligible < queue.len().min(fo.fill_limit)
                    && queue[eligible].arrival <= t
                    && queue[eligible].earliest <= t
                {
                    eligible += 1;
                }
                debug_assert!(eligible >= 1, "batch closed before its oldest member was ready");
                let size = clamp_batch(eligible, workers[w].as_ref());
                if let Some(o) = out.obs.as_deref_mut() {
                    o.sampler.advance(t, queue.len());
                }
                let members: Vec<Pending> = queue.drain(..size).collect();
                let bid = batch_seq;
                batch_seq += 1;
                let mut ids = Vec::new();
                if out.rec.enabled() {
                    ids.extend(members.iter().map(|m| m.id));
                    for m in &members {
                        let ctx = Ctx::request(m.id).with_batch(bid).with_worker(w as u32);
                        let lane = Lane::Worker(w as u32);
                        out.rec.record(Event::instant(Phase::BatchClose, Lane::Queue, t, ctx));
                        out.rec.record(Event::instant(Phase::Dispatch, lane, t, ctx));
                    }
                }
                let timeout_at = saturating_add(t, cfg.robust.dispatch_timeout);
                let run = workers[w].try_serve_obs(
                    size,
                    t,
                    &mut BatchObs {
                        rec: &mut *out.rec,
                        batch_id: bid,
                        worker: w as u32,
                        ids: &ids,
                    },
                );
                // Gray-failure defenses on a successful primary: hedge
                // a span that blew past the learned quantile delay onto
                // a second worker (first completion wins, the loser's
                // span is charged as wasted energy), then score the
                // primary's span for the fail-slow quarantine. Both are
                // off — and this block is a no-op — without `cfg.gray`.
                let (w, run) = if cfg.gray.hedge.is_some() || cfg.gray.quarantine.is_some() {
                    let mut w = w;
                    let mut run = run;
                    if let Some((pstart, pend)) = run.as_ref().ok().map(|r| (r.start, r.end)) {
                        let pw = w; // the primary, even if the hedge wins
                        let est = workers[pw].estimate(size);
                        // The hedge decision may only use ratios from
                        // *earlier* batches; this span is recorded after.
                        let hedge_at = cfg.gray.hedge.and_then(|h| {
                            let fp = fo.hist.quantile_fp(h.quantile, h.min_samples)?;
                            let delay_ns = (fp.saturating_mul(est.nanos()) / RATIO_FP)
                                .max(h.min_delay.nanos());
                            let fire = pstart + Duration::from_nanos(delay_ns);
                            (pend > fire).then_some(fire)
                        });
                        // Only a fully healthy worker may serve the
                        // duplicate: an open-circuit or quarantined
                        // worker past its cooldown is `routable_at` as
                        // a half-open/probation *probe*, but that
                        // transition is the primary dispatch path's job
                        // — a hedge must beat the primary's tail, not
                        // gamble it on an unproven device.
                        let pick = hedge_at.and_then(|at| {
                            (0..workers.len())
                                .filter(|&i| i != pw && !fo.blocked(i) && fo.routable_at(i, at))
                                .min_by_key(|&i| (workers[i].busy_until(), i))
                        });
                        if let (Some(hat), Some(h)) = (hedge_at, pick) {
                            fo.gray.hedges += 1;
                            let hctx = Ctx::NONE.with_batch(bid).with_worker(h as u32);
                            let hlane = Lane::Worker(h as u32);
                            let hres = workers[h].try_serve_obs(
                                size,
                                hat,
                                &mut BatchObs {
                                    rec: &mut *out.rec,
                                    batch_id: bid,
                                    worker: h as u32,
                                    ids: &ids,
                                },
                            );
                            let hend = match &hres {
                                Ok(hrun) => hrun.end,
                                Err(e) => SimTime::max_of(hat, e.at),
                            };
                            // Either copy's span really ran on a device:
                            // busy time and energy are charged for both,
                            // the loser's as wasted.
                            let (verdict, at, loser, from, to) = match hres {
                                // The duplicate wins: take its results
                                // (and its wire faults), waste the
                                // primary's span.
                                Ok(hrun) if hrun.end < pend => {
                                    fo.gray.hedge_wins += 1;
                                    w = h;
                                    run = Ok(hrun);
                                    (Phase::HedgeWin, hend, pw, pstart, pend)
                                }
                                Ok(hrun) => {
                                    fo.gray.hedge_cancels += 1;
                                    (Phase::HedgeCancel, pend, h, hrun.start, hrun.end)
                                }
                                // A failed hedge never hurts the primary
                                // (its result is in hand) and never feeds
                                // the breaker; the probe's detection span
                                // is wasted energy.
                                Err(_) => {
                                    fo.gray.hedge_cancels += 1;
                                    (Phase::HedgeCancel, hend, h, hat, hend)
                                }
                            };
                            out.record(Event::span(Phase::Hedge, hlane, hat, hend, hctx));
                            out.record(Event::instant(verdict, hlane, at, hctx));
                            stats[loser].busy += to - from;
                            fo.gray.hedge_wasted_pj += out.charge(loser, from, to, bid, true);
                        }
                        fo.hist.record((pend - pstart).nanos(), est.nanos());
                        // Fail-slow scoring on the *primary*: enough
                        // consecutive outliers (or one while on
                        // probation) quarantine it from `pend`, which is
                        // causally safe — its backlog already extends to
                        // `pend`, so no earlier dispatch can exist.
                        if let Some(qc) = cfg.gray.quarantine {
                            if est > Duration::ZERO && pend - pstart > est * qc.outlier_factor {
                                fo.outlier_run[pw] += 1;
                                if fo.probation[pw] || fo.outlier_run[pw] >= qc.threshold {
                                    let window = fo.quar_window[pw];
                                    fo.quarantined[pw] = Some(pend + window);
                                    fo.quar_window[pw] = (window * qc.backoff).min(qc.window_max);
                                    fo.probation[pw] = false;
                                    fo.outlier_run[pw] = 0;
                                    fo.gray.quarantines += 1;
                                    fo.recompute_degradation(workers, cfg);
                                    out.record(Event::instant(
                                        Phase::Quarantine,
                                        Lane::Worker(pw as u32),
                                        pend,
                                        Ctx::NONE.with_batch(bid).with_worker(pw as u32),
                                    ));
                                }
                            } else {
                                fo.outlier_run[pw] = 0;
                                if fo.probation[pw] {
                                    fo.probation[pw] = false;
                                    fo.quar_window[pw] = qc.window;
                                }
                            }
                        }
                    }
                    (w, run)
                } else {
                    (w, run)
                };
                // Per-batch dispatch timeout: a batch whose results land
                // too late is declared failed (the work — and its
                // energy — is wasted; the device really ran the span).
                let run = match run {
                    Ok(r) if r.end > timeout_at => {
                        stats[w].busy += r.end - r.start;
                        out.charge(w, r.start, r.end, bid, true);
                        Err(ServeError { at: timeout_at, kind: FailureKind::Timeout })
                    }
                    other => other,
                };
                match run {
                    Ok(run) => {
                        debug_assert!(run.start >= t && run.done.len() == size);
                        stats[w].batches += 1;
                        stats[w].images += size as u64;
                        stats[w].busy += run.end - run.start;
                        let probe = fo.health[w].circuit == Circuit::HalfOpen;
                        fo.health[w].consecutive_failures = 0;
                        fo.health[w].circuit = Circuit::Closed;
                        if probe {
                            fo.health[w].cooldown = cfg.robust.breaker_cooldown;
                        }
                        out.charge(w, run.start, run.end, bid, false);
                        if let Some(o) = out.obs.as_deref_mut() {
                            o.sampler.b.on_batch(w, run.start, run.end);
                        }
                        // Wire-integrity processing: the device may have
                        // corrupted, duplicated or dropped individual
                        // result slots ([`ncsw::service::WireReport`]).
                        // With verification on, per-request sequence
                        // tags + checksums reject bad completions — the
                        // request retries (or sheds once out of
                        // attempts) instead of surfacing garbage. With
                        // it off, corrupt results reach the client and
                        // dropped slots surface at the batch horizon.
                        // Duplicates are idempotent either way: the
                        // host keys results by sequence tag, so the
                        // second copy lands on the first.
                        let wire = run.wire.clone().unwrap_or_default();
                        let mut requeue: Vec<Pending> = Vec::new();
                        for (slot, (m, &done)) in members.iter().zip(&run.done).enumerate() {
                            let corrupted = wire.corrupted.contains(&slot);
                            let dropped = wire.dropped.contains(&slot);
                            if corrupted {
                                fo.gray.corrupted_wire += 1;
                            }
                            if wire.duplicated.contains(&slot) {
                                fo.gray.dups_suppressed += 1;
                            }
                            if cfg.gray.verify && (corrupted || dropped) {
                                // A drop is only detectable once the
                                // whole batch lands and the tag gap
                                // shows; a bad checksum fails on its
                                // own completion.
                                let at = if dropped { run.end } else { done };
                                fo.gray.integrity_fails += 1;
                                if dropped {
                                    fo.gray.drops_detected += 1;
                                }
                                out.record(Event::instant(
                                    Phase::IntegrityFail,
                                    Lane::Worker(w as u32),
                                    at,
                                    Ctx::request(m.id).with_batch(bid).with_worker(w as u32),
                                ));
                                let max = cfg.robust.max_attempts;
                                requeue.extend(out.retry_or_shed(
                                    m,
                                    at,
                                    at,
                                    bid,
                                    max,
                                    &mut fo.stats,
                                ));
                                continue;
                            }
                            let done = if dropped {
                                // Unverified drop: the client only sees
                                // this result when the batch-horizon
                                // flush resends it.
                                fo.gray.drops_surfaced += 1;
                                run.end
                            } else {
                                done
                            };
                            if corrupted {
                                fo.gray.corrupt_surfaced += 1;
                            }
                            let record = RequestRecord {
                                id: m.id,
                                arrival: m.arrival,
                                dispatched: t,
                                service_start: run.start,
                                completed: done,
                                worker: w,
                                batch: size,
                                attempts: m.attempts + 1,
                            };
                            out.complete(record, bid, cfg.slo);
                        }
                        // Integrity-rejected members re-enter at the
                        // queue head, oldest first — the same contract
                        // as batch failover.
                        for p in requeue.into_iter().rev() {
                            queue.push_front(p);
                        }
                    }
                    Err(err) => {
                        let detect = SimTime::max_of(t, err.at.min(timeout_at));
                        // Device-originated failures (unplug probes,
                        // mid-execution deaths) burn the host-visible
                        // detection span at busy power. Timeouts were
                        // already charged for the span the device ran.
                        if err.kind != FailureKind::Timeout {
                            out.charge(w, t, detect, bid, true);
                        }
                        let wctx = Ctx::NONE.with_batch(bid).with_worker(w as u32);
                        fo.stats.injected += 1;
                        stats[w].failures += 1;
                        let lane = Lane::Worker(w as u32);
                        out.record(Event::instant(Phase::Failover, lane, detect, wctx));
                        // Health: a failed probe reopens immediately with
                        // an escalated cooldown; otherwise consecutive
                        // failures trip the breaker — one failure earlier
                        // when the queue is under pressure (the same
                        // depth signal the obs sampler exports).
                        let was_probe = fo.health[w].circuit == Circuit::HalfOpen;
                        fo.health[w].consecutive_failures += 1;
                        let threshold = if queue.len() * 2 >= cfg.queue_capacity {
                            cfg.robust.breaker_threshold.saturating_sub(1).max(1)
                        } else {
                            cfg.robust.breaker_threshold
                        };
                        let trip = was_probe
                            || (fo.health[w].circuit == Circuit::Closed
                                && fo.health[w].consecutive_failures >= threshold);
                        if trip {
                            let cooldown = fo.health[w].cooldown;
                            fo.health[w].circuit = Circuit::Open { until: detect + cooldown };
                            fo.health[w].cooldown = (cooldown * cfg.robust.breaker_backoff)
                                .min(cfg.robust.breaker_cooldown_max);
                            fo.stats.outages.push(OutageRecord {
                                worker: w,
                                from: detect,
                                until: None,
                            });
                            fo.recompute_degradation(workers, cfg);
                            out.circuit(w, true, detect, wctx);
                        }
                        // Failover: re-enqueue the members at the queue
                        // head (they are the oldest admitted requests, so
                        // arrival order is preserved) behind a seeded
                        // exponential backoff with jitter; requests out
                        // of attempts are shed with a recorded cause.
                        let max_attempt = members.iter().map(|m| m.attempts).max().unwrap_or(0) + 1;
                        let exp = cfg.robust.backoff_factor.powi(max_attempt as i32 - 1);
                        let backoff = (cfg.robust.backoff_base * exp).min(cfg.robust.backoff_max);
                        let jitter = backoff * (cfg.robust.jitter_frac * jitter_rng.gen::<f64>());
                        let earliest = detect + backoff + jitter;
                        let max = cfg.robust.max_attempts;
                        for m in members.iter().rev() {
                            if let Some(p) =
                                out.retry_or_shed(m, detect, earliest, bid, max, &mut fo.stats)
                            {
                                queue.push_front(p);
                            }
                        }
                    }
                }
            }
            (None, None) => break,
            // The first arm's guard always accepts (Some, None).
            (Some(_), None) => unreachable!(),
        }
    }

    ServeOutcome {
        epoch,
        generated: n,
        completed: out.completed,
        shed: out.shed,
        workers: stats,
        faults: fo.stats,
        gray: fo.gray,
        energy: out.meter,
        scaling: out.ctrl.map(|c| c.stats.clone()),
        sim_events,
    }
}
