//! Acceptance tests for fault injection + fault-aware failover.
//!
//! The contract, end to end through the umbrella crate:
//! (1) a mid-run stick unplug on a redundant VPU fleet loses nothing —
//! every admitted request completes after failover/retry or is shed
//! with a recorded cause, exactly once; (2) wrapping a fleet with the
//! *empty* fault plan is byte-identical to not wrapping it at all
//! (report JSON and exported trace); (3) the same seed and the same
//! fault plan replay the identical run; (4) the fault report carries
//! MTTR and the p99-during-failover tail.

use vpu_coprocessor::faults::{FaultEvent, FaultPlan};
use vpu_coprocessor::framework::ModelBundle;
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::obs::chrome_trace;
use vpu_coprocessor::serving::{
    serve, serve_observed, ArrivalProcess, FleetSpec, ObsConfig, ServeConfig, ServeOutcome,
    ServeReport, ShedCause,
};
use vpu_coprocessor::sim::Duration;

const FLEET: &str = "vpu+vpu+vpu+vpu";
const REQUESTS: usize = 300;
const RATE: f64 = 28.0; // ~0.65x of the 4-stick nameplate capacity

fn model() -> ModelBundle {
    ModelBundle::googlenet_untrained(Variant::Tiny, 1)
}

fn faulted_run(plan: &FaultPlan) -> (ServeOutcome, ServeConfig) {
    let cfg = ServeConfig::default();
    let mut workers = FleetSpec::parse(FLEET).unwrap().build(&model());
    workers = plan.apply(workers, cfg.seed);
    let load = ArrivalProcess::Poisson { rate_per_sec: RATE };
    let outcome = serve(&mut workers, &cfg, &load, REQUESTS);
    (outcome, cfg)
}

/// An unplug landing mid-run for the tiny-model fleet at `RATE`
/// (horizon ~10s), healing two seconds later.
fn mid_run_unplug() -> FaultPlan {
    let mut plan = FaultPlan::empty();
    plan.push(
        Some(1),
        FaultEvent::StickUnplug {
            at: Duration::from_secs(2.0),
            reconnect_after: Some(Duration::from_secs(2.0)),
        },
    );
    plan
}

#[test]
fn mid_run_unplug_loses_no_admitted_request() {
    let (outcome, cfg) = faulted_run(&mid_run_unplug());

    // Conservation: every generated request completed or was shed with
    // a recorded cause — nothing silently lost.
    assert_eq!(outcome.completed.len() + outcome.shed.len(), REQUESTS);

    // Exactly once: no id appears twice across completions and sheds.
    let mut ids: Vec<u64> =
        outcome.completed.iter().map(|r| r.id).chain(outcome.shed.iter().map(|s| s.id)).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), REQUESTS, "a request completed or shed more than once");

    // The failure actually fired and the failover machinery engaged.
    assert!(outcome.faults.injected > 0, "unplug never hit a dispatch");
    assert!(outcome.faults.retries > 0, "no batch was retried");
    assert!(outcome.completed.iter().any(|r| r.attempts > 1), "no request survived a retry");
    assert!(!outcome.faults.outages.is_empty(), "circuit breaker never opened");

    // The report carries the failover metrics.
    let report = ServeReport::of(&outcome, &cfg);
    assert!(report.faults.mttr_ms > 0.0, "{:?}", report.faults);
    assert!(report.faults.p99_during_failover_ms > 0.0, "{:?}", report.faults);
    assert!(report.faults.retries_per_request > 0.0);

    // Anything shed by the failover path carries the dedicated cause.
    for s in &outcome.shed {
        assert!(
            matches!(
                s.cause,
                ShedCause::Rejected
                    | ShedCause::Evicted
                    | ShedCause::Deadline
                    | ShedCause::RetriesExhausted
            ),
            "{s:?}"
        );
    }
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    let cfg = ServeConfig::default();
    let load = ArrivalProcess::Poisson { rate_per_sec: RATE };
    let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };

    let mut plain = FleetSpec::parse(FLEET).unwrap().build(&model());
    let (plain_outcome, plain_obs) = serve_observed(&mut plain, &cfg, &load, REQUESTS, &ocfg);

    let mut wrapped = FleetSpec::parse(FLEET).unwrap().build(&model());
    wrapped = FaultPlan::empty().apply(wrapped, cfg.seed);
    let (wrapped_outcome, wrapped_obs) = serve_observed(&mut wrapped, &cfg, &load, REQUESTS, &ocfg);

    // Reports serialize byte-identically...
    let a = serde_json::to_string(&ServeReport::of(&plain_outcome, &cfg)).unwrap();
    let b = serde_json::to_string(&ServeReport::of(&wrapped_outcome, &cfg)).unwrap();
    assert_eq!(a, b, "empty fault plan changed the report");
    // ...and so does the full event trace.
    assert_eq!(
        chrome_trace(&plain_obs.events),
        chrome_trace(&wrapped_obs.events),
        "empty fault plan changed the trace"
    );
    // A healthy run reports zero fault activity.
    assert_eq!(wrapped_outcome.faults.injected, 0);
    assert!(wrapped_outcome.faults.outages.is_empty());
}

#[test]
fn same_seed_and_plan_replay_byte_identically() {
    let run = || {
        let cfg = ServeConfig::default();
        let mut workers = FleetSpec::parse(FLEET).unwrap().build(&model());
        workers = mid_run_unplug().apply(workers, cfg.seed);
        let load = ArrivalProcess::Poisson { rate_per_sec: RATE };
        let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };
        let (outcome, obs) = serve_observed(&mut workers, &cfg, &load, REQUESTS, &ocfg);
        (
            serde_json::to_string(&ServeReport::of(&outcome, &cfg)).unwrap(),
            chrome_trace(&obs.events),
        )
    };
    let (report_a, trace_a) = run();
    let (report_b, trace_b) = run();
    assert_eq!(report_a, report_b, "faulted report is not deterministic");
    assert_eq!(trace_a, trace_b, "faulted trace is not deterministic");
}

#[test]
fn deadline_aware_shedding_degrades_more_gracefully_than_reject() {
    // Kill three of four sticks without reconnect while offering 70% of
    // the *healthy* nameplate: the survivor sees ~2.8x its capacity, so
    // admission *must* shed. Deadline-aware shedding refuses hopeless
    // work at arrival instead of letting it rot in the queue.
    let spec = FleetSpec::parse(FLEET).unwrap();
    let probe = spec.build(&model());
    let rate = spec.capacity_rps(&probe) * 0.7;
    drop(probe);
    let n = 4_000usize;
    let horizon_secs = n as f64 / rate;

    let mut plan = FaultPlan::empty();
    for w in [0usize, 1, 2] {
        plan.push(
            Some(w),
            FaultEvent::StickUnplug {
                at: Duration::from_secs(horizon_secs * 0.25),
                reconnect_after: None,
            },
        );
    }
    let run = |shed| {
        // A deep queue makes the policies diverge: Reject lets admitted
        // work rot for seconds; DeadlineAware refuses it at arrival once
        // the backlog alone exceeds the SLO on surviving capacity.
        let cfg = ServeConfig {
            shed,
            queue_capacity: 4096,
            slo: Duration::from_millis(500.0),
            ..ServeConfig::default()
        };
        let mut workers = spec.build(&model());
        workers = plan.apply(workers, cfg.seed);
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        let outcome = serve(&mut workers, &cfg, &load, n);
        (outcome.completed.len() + outcome.shed.len(), ServeReport::of(&outcome, &cfg))
    };
    let (total_r, reject) = run(vpu_coprocessor::serving::ShedPolicy::Reject);
    let (total_d, deadline) = run(vpu_coprocessor::serving::ShedPolicy::DeadlineAware);
    assert_eq!(total_r, n);
    assert_eq!(total_d, n);
    assert!(reject.shed > 0 && deadline.shed > 0, "quartered capacity must shed");
    assert!(
        deadline.shed_by_policy.deadline > 0,
        "deadline-aware never used its cause: {:?} (reject side: {:?})",
        deadline.shed_by_policy,
        reject.shed_by_policy
    );
    // Refusing hopeless work keeps the completed tail no worse.
    assert!(
        deadline.latency.p99_ms <= reject.latency.p99_ms * 1.05,
        "deadline-aware p99 {} vs reject p99 {}",
        deadline.latency.p99_ms,
        reject.latency.p99_ms
    );
}

/// FNV-1a over every completed and shed record plus the fleet energy in
/// picojoules: the whole virtual outcome of a run in one word.
fn outcome_digest(o: &ServeOutcome) -> u64 {
    let mut words = vec![o.completed.len() as u64];
    for r in &o.completed {
        words.extend([
            r.id,
            r.arrival.nanos(),
            r.dispatched.nanos(),
            r.service_start.nanos(),
            r.completed.nanos(),
            r.worker as u64,
            r.batch as u64,
            u64::from(r.attempts),
        ]);
    }
    words.push(o.shed.len() as u64);
    for s in &o.shed {
        words.extend([s.id, s.arrival.nanos(), s.shed_at.nanos(), s.cause as u64]);
    }
    words.push(o.energy.totals(o.energy_horizon()).fleet_pj());
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    vpu_coprocessor::num::rng::fnv1a(&bytes)
}

#[test]
fn faulted_vpu_fleet_outcome_is_pinned() {
    // Full-geometry GoogLeNet on the elastic eight-stick fleet, with an
    // unplug that heals and a fail-slow window: every device-layer
    // shortcut (memoized chip runs, the kept host-jitter stream) must
    // leave this digest unchanged.
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse("8*vpu").unwrap();
    let probe = spec.build(&model);
    let rate = spec.capacity_rps(&probe) * 0.6;
    drop(probe);
    let mut plan = FaultPlan::empty();
    plan.push(
        Some(2),
        FaultEvent::StickUnplug {
            at: Duration::from_secs(1.0),
            reconnect_after: Some(Duration::from_secs(1.5)),
        },
    );
    plan.push(
        Some(5),
        FaultEvent::FailSlow {
            at: Duration::from_secs(2.0),
            duration: Duration::from_secs(2.0),
            factor: 6.0,
        },
    );
    let cfg = ServeConfig {
        max_batch: spec.preferred_batch(&spec.build(&model)),
        ..ServeConfig::default()
    };
    let mut workers = plan.apply(spec.build(&model), cfg.seed);
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let outcome = serve(&mut workers, &cfg, &load, 600);
    assert!(outcome.faults.injected > 0, "no fault hit a dispatch");
    assert_eq!(outcome.completed.len() + outcome.shed.len(), 600);
    assert_eq!(outcome_digest(&outcome), 0xeab1_5a2b_a982_01fb, "faulted 8*vpu outcome drifted");
}
