//! E24 — causal what-if profiling: analytic counterfactuals validated
//! against actually-rescaled re-simulations.
//!
//! For each (component, factor, load) arm the experiment produces two
//! numbers for the same question — *"what if `component` ran `factor`×
//! as long?"*:
//!
//! - **predicted**: [`ncsw_analyze::whatif::predict`] replays the
//!   baseline trace's nine-segment attribution with the component's
//!   segment virtually scaled. Queue-blind by construction.
//! - **measured**: the deterministic simulator re-runs with the same
//!   component's *service model* actually scaled via [`ScalePlan`]
//!   (chip clocks, USB wire time, host forward calls, batch deadline —
//!   whichever knob the component names), same seed, same arrivals
//!   pinned to the *baseline* fleet's capacity.
//!
//! Where the two agree, sensitivity is schedule-linear and the trace
//! alone ranks bottlenecks truthfully. Where they disagree, the arm is
//! classified by what actually moved in the re-run (batch formation,
//! queueing, the service segment itself, or tail-only reshuffling) —
//! the *queueing blind spot* the analytic model cannot see. The E24
//! gate requires the f=1.0 arm byte-identical to the baseline and every
//! disagreement classified.

use crate::report;
use crate::scale::Scale;
use crate::serve_bench::TRACED_FLEET;
use desim::Duration;
use ncsw::{ModelBundle, ScaleComponent, ScalePlan};
use ncsw_analyze::whatif::{self, Component};
use ncsw_analyze::{Analysis, E2e, Segment};
use ncsw_serve::{serve_observed, ArrivalProcess, FleetSpec, ObsConfig, ServeConfig};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// How far (percent, relative) predicted mean/p99 may sit from the
/// re-simulated ones before an arm counts as a disagreement.
pub const TOLERANCE_PCT: f64 = 10.0;

/// A segment-mean shift must clear both an absolute floor and a share
/// of the baseline end-to-end mean to count as a real transition (not
/// deterministic re-scheduling noise).
const SHIFT_MS: f64 = 0.5;
const SHIFT_PCT: f64 = 2.0;

/// Offered loads the sweep accepts, as fractions of capacity: from a
/// nearly idle fleet to ten times overload. The E24 grid runs 0.55 and
/// 0.85; below the floor a run of any useful size spans an absurd
/// virtual horizon.
pub const LOAD_RANGE: std::ops::RangeInclusive<f64> = 0.01..=10.0;

/// The sweep grid. [`Default`] is the full E24 grid: every component ×
/// {0.9, 0.75, 0.5} × {uncongested, congested}.
#[derive(Debug, Clone)]
pub struct WhatIfConfig {
    pub components: Vec<ScaleComponent>,
    pub factors: Vec<f64>,
    /// Offered load as fractions of the baseline fleet's estimated
    /// capacity. Arrival rates are pinned to the *baseline* capacity in
    /// every arm so the offered stream is identical across the sweep.
    pub loads: Vec<f64>,
    /// Agreement tolerance, percent (`--tol-pct`).
    pub tolerance_pct: f64,
}

impl Default for WhatIfConfig {
    fn default() -> Self {
        WhatIfConfig {
            components: ScaleComponent::ALL.to_vec(),
            factors: vec![0.9, 0.75, 0.5],
            loads: vec![0.55, 0.85],
            tolerance_pct: TOLERANCE_PCT,
        }
    }
}

/// One baseline run (per load): the trace every prediction replays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfBaseline {
    pub load_fraction: f64,
    pub offered_rps: f64,
    pub completed: usize,
    pub e2e: E2e,
    pub rps: f64,
    pub j_per_inference: Option<f64>,
}

/// One (component, factor, load) arm: prediction vs re-simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfPoint {
    pub component: String,
    pub factor: f64,
    pub load_fraction: f64,
    /// Requests the component touches in the baseline trace.
    pub affected: usize,
    pub seg_share: f64,
    pub critical_share: f64,
    pub base_mean_ms: f64,
    pub base_p99_ms: f64,
    pub predicted_mean_ms: f64,
    pub predicted_p99_ms: f64,
    pub measured_mean_ms: f64,
    pub measured_p99_ms: f64,
    pub predicted_rps: f64,
    pub measured_rps: f64,
    pub predicted_j_per_inference: Option<f64>,
    pub measured_j_per_inference: Option<f64>,
    /// |predicted − measured| / measured × 100.
    pub mean_err_pct: f64,
    pub p99_err_pct: f64,
    /// Mean shift of the batch-formation segment vs the baseline, ms
    /// (net of the direct effect when `batch-wait` itself is scaled).
    pub formation_shift_ms: f64,
    /// Mean shift of the *unscaled* waiting segments (retry-stall,
    /// dispatch-queue, exec-wait, read-wait, completion) vs baseline.
    pub queue_shift_ms: f64,
    /// Mean deviation of the scaled segment itself from its expected
    /// `factor × baseline` value, ms.
    pub service_shift_ms: f64,
    /// `agree` | `batch-shift` | `queueing` | `service-shift` |
    /// `tail-only` | `unexplained`.
    pub verdict: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfExp {
    pub scale: Scale,
    pub requests: usize,
    pub fleet: String,
    pub slo_ms: f64,
    pub tolerance_pct: f64,
    pub components: Vec<String>,
    pub factors: Vec<f64>,
    pub baselines: Vec<WhatIfBaseline>,
    pub points: Vec<WhatIfPoint>,
    /// The f=1.0 arm's Chrome trace is byte-identical to the baseline's.
    pub identity_ok: bool,
    /// Top-ranked component at the headline arm (min factor, max load),
    /// by analytic prediction and by actual re-simulation.
    pub top_predicted: String,
    pub top_measured: String,
    pub rank_agrees: bool,
    /// The E24 gate: identity passivity holds and every
    /// predicted-vs-measured disagreement is classified (no
    /// `unexplained` arms).
    pub whatif_ok: bool,
}

/// Everything `whatif_exp` produced, plus the traces CI diffs
/// byte-for-byte (kept out of the serialized report: they are large
/// and exactly reproducible from the seed).
pub struct WhatIfOutput {
    pub exp: WhatIfExp,
    /// Baseline Chrome trace of the *first* configured load.
    pub baseline_trace: String,
    /// Chrome trace of the `exec@1.0` identity arm at the same load.
    pub identity_trace: String,
}

fn requests_for(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 600,
        Scale::Small => 2_500,
        Scale::Paper => 8_000,
    }
}

/// Mean of one segment over all completed requests, ms.
fn seg_mean_ms(a: &Analysis, s: Segment) -> f64 {
    if a.breakdowns.is_empty() {
        return 0.0;
    }
    let sum: u64 = a.breakdowns.iter().map(|b| b.seg(s).nanos()).sum();
    sum as f64 / 1e6 / a.breakdowns.len() as f64
}

fn rel_err_pct(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (predicted - measured).abs() / measured * 100.0
    }
}

struct Arm {
    analysis: Analysis,
    chrome: Option<String>,
}

pub fn whatif_exp(scale: Scale) -> WhatIfExp {
    whatif_run(scale, &WhatIfConfig::default()).exp
}

pub fn whatif_run(scale: Scale, grid: &WhatIfConfig) -> WhatIfOutput {
    let slo = Duration::from_millis(500.0);
    let n = requests_for(scale);
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse(TRACED_FLEET).expect("valid fleet spec");
    // Capacity and batch limits are probed once on the *unscaled* fleet
    // and pinned: every arm sees the identical offered stream and serve
    // config, so the only difference is the component's service model.
    let probe = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);

    let run = |plan: &ScalePlan, load: f64, chrome: bool| -> Arm {
        let mut cfg = ServeConfig { max_batch, slo, ..ServeConfig::default() };
        cfg.max_wait = plan.max_wait(cfg.max_wait);
        let mut workers = spec.build_scaled(&model, plan);
        let arrivals = ArrivalProcess::Poisson { rate_per_sec: capacity_rps * load };
        let (_outcome, obs) =
            serve_observed(&mut workers, &cfg, &arrivals, n, &ObsConfig::default());
        Arm {
            analysis: Analysis::of(&obs.events),
            chrome: chrome.then(|| ncsw_obs::chrome_trace(&obs.events)),
        }
    };
    // Identity stats of a run, through the same nearest-rank math the
    // predictions use (an f=1.0 "prediction" is a pure read-out).
    let stats = |a: &Analysis| whatif::predict(a, Component::Exec, 1.0);

    let mut baselines = Vec::new();
    let mut base_arms = Vec::new();
    for &load in &grid.loads {
        let arm = run(&ScalePlan::identity(), load, base_arms.is_empty());
        let s = stats(&arm.analysis);
        baselines.push(WhatIfBaseline {
            load_fraction: load,
            offered_rps: capacity_rps * load,
            completed: s.completed,
            e2e: s.base,
            rps: s.base_rps,
            j_per_inference: s.base_j_per_inference,
        });
        base_arms.push(arm);
    }

    // Passivity: an explicit `exec@1.0` plan must reproduce the first
    // baseline byte-for-byte (the scaling knobs all guard f == 1.0).
    let identity_arm = run(&ScalePlan::new(ScaleComponent::Exec, 1.0), grid.loads[0], true);
    let baseline_trace = base_arms[0].chrome.clone().unwrap_or_default();
    let identity_trace = identity_arm.chrome.unwrap_or_default();
    let identity_ok = baseline_trace == identity_trace;

    let mut points = Vec::new();
    for (li, &load) in grid.loads.iter().enumerate() {
        let base = &base_arms[li].analysis;
        let base_mean = stats(base).base.mean_ms;
        for &sc in &grid.components {
            let c = Component::parse(sc.name()).expect("component names are shared");
            for &factor in &grid.factors {
                let predicted = whatif::predict(base, c, factor);
                let arm = run(&ScalePlan::new(sc, factor), load, false);
                let measured = stats(&arm.analysis);

                let direct = c.segment();
                let dev = |s: Segment, expected: f64| seg_mean_ms(&arm.analysis, s) - expected;
                let formation_shift = if direct == Segment::Formation {
                    dev(direct, factor * seg_mean_ms(base, direct))
                } else {
                    dev(Segment::Formation, seg_mean_ms(base, Segment::Formation))
                };
                let queue_shift: f64 = [
                    Segment::RetryStall,
                    Segment::DispatchQueue,
                    Segment::ExecWait,
                    Segment::ReadWait,
                    Segment::Completion,
                ]
                .into_iter()
                .filter(|&s| s != direct)
                .map(|s| dev(s, seg_mean_ms(base, s)))
                .sum();
                let service_shift = if direct == Segment::Formation {
                    0.0
                } else {
                    dev(direct, factor * seg_mean_ms(base, direct))
                };

                let mean_err = rel_err_pct(predicted.predicted.mean_ms, measured.base.mean_ms);
                let p99_err = rel_err_pct(predicted.predicted.p99_ms, measured.base.p99_ms);
                let tol = grid.tolerance_pct;
                let significant =
                    |x: f64| x.abs() >= SHIFT_MS && x.abs() >= base_mean * SHIFT_PCT / 100.0;
                let verdict = if mean_err <= tol && p99_err <= tol {
                    "agree"
                } else {
                    // Largest significant transition explains the miss.
                    let shifts = [
                        ("batch-shift", formation_shift),
                        ("queueing", queue_shift),
                        ("service-shift", service_shift),
                    ];
                    shifts
                        .iter()
                        .filter(|(_, x)| significant(*x))
                        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                        .map(|(name, _)| *name)
                        .unwrap_or(if mean_err <= tol { "tail-only" } else { "unexplained" })
                };

                points.push(WhatIfPoint {
                    component: sc.name().to_string(),
                    factor,
                    load_fraction: load,
                    affected: predicted.affected,
                    seg_share: predicted.seg_share,
                    critical_share: predicted.critical_share,
                    base_mean_ms: predicted.base.mean_ms,
                    base_p99_ms: predicted.base.p99_ms,
                    predicted_mean_ms: predicted.predicted.mean_ms,
                    predicted_p99_ms: predicted.predicted.p99_ms,
                    measured_mean_ms: measured.base.mean_ms,
                    measured_p99_ms: measured.base.p99_ms,
                    predicted_rps: predicted.predicted_rps,
                    measured_rps: measured.base_rps,
                    predicted_j_per_inference: predicted.predicted_j_per_inference,
                    measured_j_per_inference: measured.base_j_per_inference,
                    mean_err_pct: mean_err,
                    p99_err_pct: p99_err,
                    formation_shift_ms: formation_shift,
                    queue_shift_ms: queue_shift,
                    service_shift_ms: service_shift,
                    verdict: verdict.to_string(),
                });
            }
        }
    }

    // Headline ranking: hardest speedup at the heaviest load.
    let headline_factor = grid.factors.iter().copied().fold(f64::INFINITY, f64::min);
    let headline_load = grid.loads.iter().copied().fold(0.0, f64::max);
    let headline: Vec<&WhatIfPoint> = points
        .iter()
        .filter(|p| p.factor == headline_factor && p.load_fraction == headline_load)
        .collect();
    // Rank by p99 gain, mean gain as tie-break (a component that only
    // helps requests outside the tail still beats a pure no-op).
    let top_by = |key: fn(&WhatIfPoint) -> (f64, f64)| {
        headline
            .iter()
            .max_by(|a, b| {
                let (ka, kb) = (key(a), key(b));
                ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
            })
            .map(|p| p.component.clone())
            .unwrap_or_default()
    };
    let top_predicted =
        top_by(|p| (p.base_p99_ms - p.predicted_p99_ms, p.base_mean_ms - p.predicted_mean_ms));
    let top_measured =
        top_by(|p| (p.base_p99_ms - p.measured_p99_ms, p.base_mean_ms - p.measured_mean_ms));
    let rank_agrees = top_predicted == top_measured;

    let whatif_ok = identity_ok && points.iter().all(|p| p.verdict != "unexplained");
    let exp = WhatIfExp {
        scale,
        requests: n,
        fleet: TRACED_FLEET.to_string(),
        slo_ms: slo.as_millis(),
        tolerance_pct: grid.tolerance_pct,
        components: grid.components.iter().map(|c| c.name().to_string()).collect(),
        factors: grid.factors.clone(),
        baselines,
        points,
        identity_ok,
        top_predicted,
        top_measured,
        rank_agrees,
        whatif_ok,
    };
    WhatIfOutput { exp, baseline_trace, identity_trace }
}

/// Per-arm virtual-speedup curves as CSV (`--csv` artifact).
pub fn whatif_csv(e: &WhatIfExp) -> String {
    let mut s = String::from(
        "component,factor,load,affected,seg_share,critical_share,\
         base_mean_ms,predicted_mean_ms,measured_mean_ms,mean_err_pct,\
         base_p99_ms,predicted_p99_ms,measured_p99_ms,p99_err_pct,\
         predicted_rps,measured_rps,verdict\n",
    );
    for p in &e.points {
        s.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{:.3},{:.3},{:.3},{:.2},{:.3},{:.3},{:.3},{:.2},{:.2},{:.2},{}\n",
            p.component,
            p.factor,
            p.load_fraction,
            p.affected,
            p.seg_share,
            p.critical_share,
            p.base_mean_ms,
            p.predicted_mean_ms,
            p.measured_mean_ms,
            p.mean_err_pct,
            p.base_p99_ms,
            p.predicted_p99_ms,
            p.measured_p99_ms,
            p.p99_err_pct,
            p.predicted_rps,
            p.measured_rps,
            p.verdict,
        ));
    }
    s
}

impl WhatIfExp {
    pub fn print(&self) {
        report::header(&format!(
            "E24 — causal what-if profiling: {} on {} requests/arm, SLO {} ms, scale {}",
            self.fleet,
            self.requests,
            self.slo_ms,
            self.scale.name()
        ));
        for b in &self.baselines {
            println!(
                "baseline @ load {:.2}: {} completed, mean {:.1} ms, p99 {:.1} ms, {:.1} req/s{}",
                b.load_fraction,
                b.completed,
                b.e2e.mean_ms,
                b.e2e.p99_ms,
                b.rps,
                b.j_per_inference.map_or(String::new(), |j| format!(", {:.3} J/inference", j)),
            );
        }
        println!(
            "{:<11} {:>6} {:>5} {:>5} {:>6} {:>19} {:>9} {:>19} {:>9}  verdict",
            "component",
            "factor",
            "load",
            "seg%",
            "crit%",
            "p99 pred/meas ms",
            "err%",
            "mean pred/meas ms",
            "err%",
        );
        for p in &self.points {
            println!(
                "{:<11} {:>6.2} {:>5.2} {:>5.1} {:>6.1} {:>9.1} /{:>8.1} {:>9.2} {:>9.1} /{:>8.1} {:>9.2}  {}",
                p.component,
                p.factor,
                p.load_fraction,
                p.seg_share * 100.0,
                p.critical_share * 100.0,
                p.predicted_p99_ms,
                p.measured_p99_ms,
                p.p99_err_pct,
                p.predicted_mean_ms,
                p.measured_mean_ms,
                p.mean_err_pct,
                p.verdict,
            );
        }
        println!(
            "headline ranking (factor {:.2}, heaviest load): predicted '{}', measured '{}' ({})",
            self.factors.iter().copied().fold(f64::INFINITY, f64::min),
            self.top_predicted,
            self.top_measured,
            if self.rank_agrees { "agree" } else { "DISAGREE" }
        );
        println!(
            "gate (f=1.0 byte-identical: {}; every disagreement classified, tol {:.0}%): {}",
            if self.identity_ok { "yes" } else { "NO" },
            self.tolerance_pct,
            if self.whatif_ok { "ok" } else { "VIOLATED" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> WhatIfConfig {
        WhatIfConfig {
            components: vec![ScaleComponent::Exec, ScaleComponent::UsbRead],
            factors: vec![0.5],
            loads: vec![0.85],
            tolerance_pct: TOLERANCE_PCT,
        }
    }

    #[test]
    fn tiny_whatif_holds_the_gate() {
        let out = whatif_run(Scale::Tiny, &tiny_grid());
        let e = &out.exp;
        assert_eq!(e.points.len(), 2);
        assert!(e.identity_ok, "exec@1.0 must be byte-identical to the baseline");
        assert!(!out.baseline_trace.is_empty());
        assert_eq!(out.baseline_trace, out.identity_trace);
        assert!(e.whatif_ok, "{e:#?}");
        let exec = e.points.iter().find(|p| p.component == "exec").unwrap();
        assert!(exec.affected > 0, "VPU-class requests must exist on {TRACED_FLEET}");
        // Halving exec must predict *and* measure a faster fleet.
        assert!(exec.predicted_mean_ms < exec.base_mean_ms, "{exec:#?}");
        assert!(exec.measured_mean_ms < exec.base_mean_ms, "{exec:#?}");
    }

    #[test]
    fn measured_exec_segment_shrinks_monotonically() {
        // Satellite: monotonicity on the *measured* side — the actual
        // re-simulated exec segment mean is non-increasing in f.
        let grid = WhatIfConfig {
            components: vec![ScaleComponent::Exec],
            factors: vec![0.75, 0.5],
            loads: vec![0.55],
            tolerance_pct: TOLERANCE_PCT,
        };
        let out = whatif_run(Scale::Tiny, &grid);
        let base = &out.exp.baselines[0];
        let p75 = out.exp.points.iter().find(|p| p.factor == 0.75).unwrap();
        let p50 = out.exp.points.iter().find(|p| p.factor == 0.5).unwrap();
        // Mean latency orders with the exec speedup at light load.
        assert!(p50.measured_mean_ms <= p75.measured_mean_ms + 0.5, "{p50:#?} vs {p75:#?}");
        assert!(p75.measured_mean_ms <= base.e2e.mean_ms + 0.5);
    }
}
