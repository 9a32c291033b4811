//! The four workloads and one operation of each: build a fresh fleet,
//! serve `n` seeded open-loop Poisson arrivals, and run whatever export
//! and analysis stages the workload has.
//!
//! An operation is a pure function of `(workload, seed, n)` in virtual
//! time; only its host time varies.

use crate::alloc;
use crate::trace::{self, Layer, Shared, TimedHook, TimedPolicy};
use desim::Duration;
use ncsw::service::ServiceHook;
use ncsw::ModelBundle;
use ncsw_analyze::{parse_chrome_trace, Analysis};
use ncsw_ctrl::ScalingPolicy;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_serve::{
    serve, serve_autoscaled, serve_autoscaled_observed, serve_observed, ArrivalProcess,
    DispatchPolicy, FleetSpec, GrayConfig, ObsConfig, SamplePolicy, ScalingConfig, ServeConfig,
    ServeObservation, ServeOutcome, WorkerSpec,
};
use std::time::Instant;
use vpu_nn::googlenet::Variant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MixedSteady,
    HostCostaware,
    HostTraced,
    ElasticChaos,
}

/// Scaling policy of `elastic-chaos`.
pub const CTRL_POLICY: &str = "reactive";
/// Tail-sampling policy of `elastic-chaos`.
pub const SAMPLE_SPEC: &str = "1-in-100+top40";

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MixedSteady,
        Workload::HostCostaware,
        Workload::HostTraced,
        Workload::ElasticChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedSteady => "mixed-steady",
            Workload::HostCostaware => "host-costaware",
            Workload::HostTraced => "host-traced",
            Workload::ElasticChaos => "elastic-chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn fleet(self) -> &'static str {
        match self {
            Workload::MixedSteady => "cpu+gpu+8xvpu",
            Workload::HostCostaware | Workload::HostTraced => "cpu+gpu",
            Workload::ElasticChaos => "8*vpu",
        }
    }

    /// Offered load as a fraction of fleet nameplate capacity.
    pub fn load(self) -> f64 {
        match self {
            Workload::ElasticChaos => 0.5,
            _ => 0.8,
        }
    }

    pub fn policy(self) -> DispatchPolicy {
        match self {
            Workload::HostCostaware => DispatchPolicy::CostAware,
            _ => DispatchPolicy::LeastOutstanding,
        }
    }

    /// Requests per full-size operation. The short operation of the
    /// growth ratio is an eighth of this.
    pub fn requests(self) -> usize {
        match self {
            Workload::MixedSteady => 24_000,
            Workload::HostCostaware => 160_000,
            Workload::HostTraced => 8_000,
            Workload::ElasticChaos => 8_000,
        }
    }

    /// Whether the serve call records events (otherwise `NullRecorder`).
    pub fn observed(self) -> bool {
        matches!(self, Workload::HostTraced | Workload::ElasticChaos)
    }

    /// Whether the run is followed by export, parse and attribution.
    pub fn analyzed(self) -> bool {
        self == Workload::HostTraced
    }

    pub fn has_vpu(self) -> bool {
        matches!(self, Workload::MixedSteady | Workload::ElasticChaos)
    }
}

/// Everything built once per workload: model, fleet shape, serving
/// configuration and, for `elastic-chaos`, the fault plans.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub model: ModelBundle,
    pub spec: FleetSpec,
    pub cfg: ServeConfig,
    pub load: ArrivalProcess,
    pub ocfg: ObsConfig,
    pub scaling: ScalingConfig,
    rate_rps: f64,
}

impl Setup {
    /// Build the model and serving configuration, and probe the fleet
    /// for its nameplate capacity.
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
        let spec = FleetSpec::parse(workload.fleet()).expect("valid fleet spec");
        let probe = spec.build(&model);
        let rate_rps = spec.capacity_rps(&probe) * workload.load();
        let cfg = ServeConfig {
            max_batch: spec.preferred_batch(&probe),
            policy: workload.policy(),
            seed,
            gray: if workload == Workload::ElasticChaos {
                GrayConfig::defended()
            } else {
                GrayConfig::default()
            },
            ..ServeConfig::default()
        };
        drop(probe);
        let ocfg = ObsConfig {
            sample: (workload == Workload::ElasticChaos)
                .then(|| SamplePolicy::parse(SAMPLE_SPEC).expect("valid sample spec")),
            ..ObsConfig::default()
        };
        let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
        let load = ArrivalProcess::Poisson { rate_per_sec: rate_rps };
        Setup { workload, seed, model, spec, cfg, load, ocfg, scaling, rate_rps }
    }

    /// The `elastic-chaos` fault cocktail, placed at fixed shares of the
    /// expected virtual horizon of an `n`-request run so the full and
    /// short operations see the same fault mix.
    pub fn fault_plan(&self, n: usize) -> Option<FaultPlan> {
        if self.workload != Workload::ElasticChaos {
            return None;
        }
        let horizon = n as f64 / self.rate_rps;
        let at = |share: f64| Duration::from_secs(horizon * share);
        let mut plan = FaultPlan::empty();
        plan.push(
            Some(7),
            FaultEvent::StickUnplug { at: at(0.10), reconnect_after: Some(at(0.10)) },
        );
        plan.push(Some(0), FaultEvent::TransientExecError { per_batch_prob: 0.02 });
        plan.push(Some(3), FaultEvent::FailSlow { at: at(0.40), duration: at(0.15), factor: 6.0 });
        plan.push(Some(1), FaultEvent::ResultCorrupt { per_image_prob: 0.01 });
        plan.push(Some(5), FaultEvent::DuplicateCompletion { per_image_prob: 0.01 });
        Some(plan)
    }

    /// A fresh fleet (workers are stateful, so every operation gets its
    /// own). With a tracer, each device is wrapped in a timing decorator,
    /// and on `elastic-chaos` each fault wrapper in another.
    pub fn fleet(&self, n: usize, tracer: Option<&Shared>) -> Vec<Box<dyn ServiceHook>> {
        let mut workers = self.spec.build(&self.model);
        if let Some(t) = tracer {
            workers = workers
                .into_iter()
                .zip(&self.spec.0)
                .map(|(w, ws)| TimedHook::wrap(w, device_layer(*ws), t))
                .collect();
        }
        if let Some(plan) = self.fault_plan(n) {
            workers = plan.apply(workers, self.seed);
            if let Some(t) = tracer {
                workers =
                    workers.into_iter().map(|w| TimedHook::wrap(w, Layer::Faults, t)).collect();
            }
        }
        workers
    }

    pub fn ctrl_policy(&self, tracer: Option<&Shared>) -> Box<dyn ScalingPolicy> {
        let p = ncsw_ctrl::policy(CTRL_POLICY).expect("known scaling policy");
        match tracer {
            Some(t) => TimedPolicy::wrap(p, t),
            None => p,
        }
    }
}

fn device_layer(ws: WorkerSpec) -> Layer {
    match ws {
        WorkerSpec::Cpu => Layer::Cpu,
        WorkerSpec::Gpu => Layer::Gpu,
        WorkerSpec::Stick | WorkerSpec::Vpu { devices: 1 } => Layer::Vpu1,
        WorkerSpec::Vpu { .. } => Layer::Vpu8,
    }
}

/// What the export and analysis stages produced.
#[derive(Debug, Clone, Default)]
pub struct Analyzed {
    /// Operation-wide heap peak up to the parse, whose own peak window
    /// restarts the counter.
    pub peak_before_parse: usize,
    pub trace_bytes: u64,
    pub series_bytes: u64,
    /// Heap the parse needed above what was live when it started.
    pub parse_peak_bytes: usize,
    pub breakdowns: usize,
    pub inexact: usize,
    /// Why the exported trace did not parse back, if it did not.
    pub parse_error: Option<String>,
}

/// Observation summary of an observed serve call.
#[derive(Debug, Clone, Default)]
pub struct ObsSummary {
    /// Events offered to the recorder.
    pub events_seen: u64,
    /// Events kept in the log.
    pub events_kept: u64,
    pub incidents: usize,
}

/// Host nanoseconds of each stage of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub serve_ns: u64,
    pub chrome_ns: u64,
    pub series_ns: u64,
    pub parse_ns: u64,
    pub attribute_ns: u64,
}

impl Stages {
    pub fn total_ns(&self) -> u64 {
        self.serve_ns + self.chrome_ns + self.series_ns + self.parse_ns + self.attribute_ns
    }
}

pub struct Op {
    pub n: usize,
    pub outcome: ServeOutcome,
    pub stages: Stages,
    /// Peak live heap during the timed pipeline.
    pub peak_heap_bytes: usize,
    pub obs: Option<ObsSummary>,
    pub analyzed: Option<Analyzed>,
}

fn timed<T>(tracer: Option<&Shared>, name: &'static str, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => trace::scoped(t, name, f),
        None => f(),
    };
    *ns = t0.elapsed().as_nanos() as u64;
    out
}

/// Run one operation of `n` requests. `observe: false` swaps the
/// workload's recorder for the `NullRecorder` on the same inputs (the
/// baseline of `obs.record_s`) and skips the export stages.
pub fn run_op(setup: &Setup, n: usize, tracer: Option<&Shared>, observe: bool) -> Op {
    let w = setup.workload;
    let mut workers = setup.fleet(n, tracer);
    let mut policy = (w == Workload::ElasticChaos).then(|| setup.ctrl_policy(tracer));
    let mut stages = Stages::default();
    let observe = observe && w.observed();

    alloc::reset_peak();
    let (cfg, load, ocfg) = (&setup.cfg, &setup.load, &setup.ocfg);
    let (outcome, observation): (ServeOutcome, Option<ServeObservation>) =
        timed(tracer, "serve", &mut stages.serve_ns, || match (policy.as_deref_mut(), observe) {
            (None, false) => (serve(&mut workers, cfg, load, n), None),
            (None, true) => {
                let (o, obs) = serve_observed(&mut workers, cfg, load, n, ocfg);
                (o, Some(obs))
            }
            (Some(p), false) => {
                (serve_autoscaled(&mut workers, cfg, load, n, &setup.scaling, p), None)
            }
            (Some(p), true) => {
                let (o, obs) =
                    serve_autoscaled_observed(&mut workers, cfg, load, n, &setup.scaling, p, ocfg);
                (o, Some(obs))
            }
        });

    let obs = observation.as_ref().map(|o| match &o.sample {
        Some(s) => ObsSummary {
            events_seen: s.events_seen,
            events_kept: s.events_kept,
            incidents: o.flight.incidents().len(),
        },
        None => ObsSummary {
            events_seen: o.events.len() as u64,
            events_kept: o.events.len() as u64,
            incidents: o.flight.incidents().len(),
        },
    });

    let analyzed = match observation {
        Some(o) if w.analyzed() => Some(export_and_analyze(&o, tracer, &mut stages)),
        _ => None,
    };
    let peak_heap_bytes = alloc::peak().max(analyzed.as_ref().map_or(0, |a| a.peak_before_parse));
    Op { n, outcome, stages, peak_heap_bytes, obs, analyzed }
}

/// Chrome export, series CSV, parse back and nine-segment attribution.
fn export_and_analyze(o: &ServeObservation, tracer: Option<&Shared>, st: &mut Stages) -> Analyzed {
    let mut chrome = Vec::new();
    let cstats = timed(tracer, "export.chrome", &mut st.chrome_ns, || {
        ncsw_obs::chrome_trace_to(&o.events, &mut chrome).expect("Vec sink never fails")
    });
    let mut csv = Vec::new();
    let sstats = timed(tracer, "export.series", &mut st.series_ns, || {
        o.series.csv_to(&mut csv).expect("Vec sink never fails")
    });
    drop(csv);
    let json = String::from_utf8(chrome).expect("Chrome export is UTF-8");
    let live_before = alloc::live();
    let peak_before_parse = alloc::peak();
    alloc::reset_peak();
    let parsed = timed(tracer, "analyze.parse", &mut st.parse_ns, || parse_chrome_trace(&json));
    let mut a = Analyzed {
        peak_before_parse,
        trace_bytes: cstats.bytes,
        series_bytes: sstats.bytes,
        parse_peak_bytes: alloc::peak() - live_before,
        ..Analyzed::default()
    };
    match parsed {
        Ok(log) => {
            let analysis =
                timed(tracer, "analyze.attribute", &mut st.attribute_ns, || Analysis::of(&log));
            a.breakdowns = analysis.breakdowns.len();
            a.inexact = analysis.breakdowns.iter().filter(|b| !b.exact()).count();
        }
        Err(e) => a.parse_error = Some(e),
    }
    a
}
