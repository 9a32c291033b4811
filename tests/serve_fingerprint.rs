//! Byte pins of the observed serving loop's exported artifacts.
//!
//! The determinism tests compare two runs of the same build, so they
//! cannot notice a change that reorders trace events or drops a metric
//! consistently. These tests pin the exact bytes instead: for three
//! small observed runs that together exercise every outcome path of the
//! loop, an FNV-1a digest of the Chrome trace, of the series CSV and of
//! the registry summary. Each run also asserts that the paths it is
//! meant to cover really fired, so a digest can never pin a run that
//! silently stopped exercising them.

use std::collections::BTreeMap;
use vpu_coprocessor::ctrl;
use vpu_coprocessor::faults::FaultPlan;
use vpu_coprocessor::framework::ModelBundle;
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::num::rng::fnv1a;
use vpu_coprocessor::obs::{chrome_trace, Event, Phase, SamplePolicy, ShedCause};
use vpu_coprocessor::serving::{
    serve_autoscaled_observed, serve_observed, ArrivalProcess, FleetSpec, GrayConfig, ObsConfig,
    RobustConfig, ScalingConfig, ServeConfig, ServeObservation, ShedPolicy,
};
use vpu_coprocessor::sim::Duration;

/// Digests of one observed run: Chrome trace, series CSV, registry
/// summary.
fn digests(obs: &ServeObservation) -> [u64; 3] {
    [
        fnv1a(chrome_trace(&obs.events).as_bytes()),
        fnv1a(obs.series.csv().as_bytes()),
        fnv1a(obs.registry.summary().as_bytes()),
    ]
}

/// Recorded events per phase, with `Shed` split by cause.
fn event_counts(obs: &ServeObservation) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for ev in obs.events.events() {
        let key = match ev.cause {
            Some(cause) => format!("{:?}/{:?}", ev.phase, cause),
            None => format!("{:?}", ev.phase),
        };
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

fn assert_fired(obs: &ServeObservation, kinds: &[&str]) {
    let counts = event_counts(obs);
    for kind in kinds {
        assert!(counts.get(*kind).copied().unwrap_or(0) > 0, "no {kind} event: {counts:?}");
    }
}

fn model() -> ModelBundle {
    ModelBundle::googlenet_untrained(Variant::Full, 1)
}

/// One observed static-fleet run of `n` Poisson arrivals at `load`×
/// nameplate, batching at the fleet's preferred size.
fn static_run(
    fleet: &str,
    cfg: ServeConfig,
    plan: Option<&FaultPlan>,
    load: f64,
    n: usize,
) -> ServeObservation {
    let model = model();
    let spec = FleetSpec::parse(fleet).unwrap();
    let probe = spec.build(&model);
    let rate = spec.capacity_rps(&probe) * load;
    let cfg = ServeConfig { max_batch: spec.preferred_batch(&probe), ..cfg };
    drop(probe);
    let mut workers = spec.build(&model);
    if let Some(plan) = plan {
        workers = plan.apply(workers, cfg.seed);
    }
    let arrivals = ArrivalProcess::Poisson { rate_per_sec: rate };
    serve_observed(&mut workers, &cfg, &arrivals, n, &ObsConfig::default()).1
}

#[test]
fn static_mixed_fleet_shedding_is_pinned() {
    // On a healthy static fleet the deadline-aware estimate is monotone
    // in queue depth, so a tight SLO sheds by deadline and a loose one
    // rejects on a full queue.
    let overloaded = |shed, slo_ms| ServeConfig {
        shed,
        slo: Duration::from_millis(slo_ms),
        ..ServeConfig::default()
    };
    let run = |cfg| static_run("cpu+gpu+2xvpu", cfg, None, 2.0, 400);
    let evict = run(overloaded(ShedPolicy::DropOldest, 500.0));
    assert_fired(&evict, &["Shed/Evicted", "Complete"]);
    let deadline = run(overloaded(ShedPolicy::DeadlineAware, 150.0));
    assert_fired(&deadline, &["Shed/Deadline", "Complete"]);
    let reject = run(overloaded(ShedPolicy::DeadlineAware, 500.0));
    assert_fired(&reject, &["Shed/Rejected", "Complete"]);
    assert_eq!(
        [digests(&evict), digests(&deadline), digests(&reject)],
        [
            [0x7650_d63c_0485_8941, 0x46a5_723e_7e00_ae1b, 0x69d0_4bed_a788_5def],
            [0xa8ab_1321_b9d4_9de9, 0x71a2_1e87_0b88_d251, 0x8247_c442_7a78_7c78],
            [0x5625_bfc3_c629_49c2, 0x3ae5_24c1_7147_2d50, 0xd973_5ceb_aed2_6f69],
        ],
        "static-fleet trace / series / registry bytes drifted"
    );
}

/// A `RetriesExhausted` shed whose span ends at an event of `phase`
/// carrying the same request (integrity reject) or batch (failover).
fn exhausted_after(obs: &ServeObservation, phase: Phase) -> bool {
    let events = obs.events.events();
    let matches = |shed: &Event, e: &Event| {
        e.phase == phase
            && Some(e.start) == shed.end
            && match phase {
                Phase::IntegrityFail => e.ctx.request_id == shed.ctx.request_id,
                _ => e.ctx.batch_id == shed.ctx.batch_id,
            }
    };
    events.iter().any(|shed| {
        shed.cause == Some(ShedCause::RetriesExhausted) && events.iter().any(|e| matches(shed, e))
    })
}

#[test]
fn faulted_gray_defended_run_is_pinned() {
    let plan = FaultPlan::parse(
        "w1:unplug@1s:reconnect@2500ms,w2:failslow@500ms:for@6s:slow@3,\
         w3:corrupt@0.2,w3:dup@0.05,w3:drop@0.1,w4:corrupt@0.2,w0:execerr@0.1",
    )
    .unwrap();
    let cfg = ServeConfig {
        gray: GrayConfig::defended(),
        robust: RobustConfig { max_attempts: 2, ..RobustConfig::default() },
        ..ServeConfig::default()
    };
    let obs = static_run("5*vpu", cfg, Some(&plan), 0.7, 600);
    assert_fired(
        &obs,
        &[
            "Hedge",
            "HedgeWin",
            "HedgeCancel",
            "Quarantine",
            "Probation",
            "IntegrityFail",
            "RetryAttempt",
            "Failover",
            "CircuitOpen",
            "CircuitClose",
            "Shed/Rejected",
            "Shed/RetriesExhausted",
        ],
    );
    assert!(exhausted_after(&obs, Phase::IntegrityFail), "no shed after an integrity reject");
    assert!(exhausted_after(&obs, Phase::Failover), "no shed after a failed batch");
    assert_eq!(
        digests(&obs),
        [0xcdd1_3855_b2ee_b44a, 0x4cbc_b6dd_fe05_02b5, 0x3570_9ce6_5e20_3f9a],
        "faulted gray run trace / series / registry bytes drifted"
    );
}

#[test]
fn sampled_autoscaled_run_is_pinned() {
    let model = model();
    let spec = FleetSpec::parse("8*vpu").unwrap();
    let probe = spec.build(&model);
    let rate = spec.capacity_rps(&probe) * 0.2;
    let cfg = ServeConfig { max_batch: spec.preferred_batch(&probe), ..ServeConfig::default() };
    drop(probe);
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
    let mut policy = ctrl::policy("reactive").unwrap();
    let mut workers = spec.build(&model);
    let arrivals = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig { sample: Some(SamplePolicy::one_in(25)), ..ObsConfig::default() };
    let (_, obs) = serve_autoscaled_observed(
        &mut workers,
        &cfg,
        &arrivals,
        400,
        &scaling,
        policy.as_mut(),
        &ocfg,
    );
    assert!(obs.sample.as_ref().is_some_and(|s| !s.keeps_all()), "run was not sampled");
    assert_fired(&obs, &["Drain", "ScaleDown", "ScaleUp", "Complete"]);
    assert_eq!(
        digests(&obs),
        [0xfe85_4c60_9032_68d7, 0x11d8_67bd_e735_0263, 0x1748_4056_44ce_f475],
        "autoscaled sampled trace / series / registry bytes drifted"
    );
}
