//! E21 — sim-throughput benchmark: how fast the simulator simulates.
//!
//! Every other experiment measures the *simulated* fleet; E21 measures
//! the *simulator*, because the ROADMAP's million-request sweeps need a
//! perf trajectory before the hot loop can be refactored safely. A
//! fixed matrix of serving cells — the unobserved loop, the fully
//! observed loop, a faulted run, a closed-loop autoscaled run, and the
//! unobserved loop again at [`LARGE_REQUESTS`] whatever the scale —
//! each reports a **deterministic** `virt` block (requests, sim events,
//! virtual horizon, exporter bytes: byte-identical across machines) and
//! a **machine-dependent** `wall` block (wall-clock, events/sec,
//! req/sec, virtual-seconds per wall-second, recorder overhead %).
//!
//! `repro bench-sim --json BENCH_sim.json` emits the file; `repro
//! bench-diff OLD NEW` gates on events/sec with a generous
//! wall-noise-tolerant threshold while treating any `virt` drift as a
//! loudly reported (but non-gating) determinism alarm.

use crate::report;
use crate::scale::Scale;
use crate::serve_bench::{TRACED_FLEET, TRACED_LOAD_FRACTION};
use ncsw::ModelBundle;
use ncsw_obs::{prof, OverheadLedger, Throughput};
use ncsw_serve::{
    serve, serve_autoscaled_observed, serve_observed, ArrivalProcess, FleetSpec, ObsConfig,
    ScalingConfig, ServeConfig, ServeOutcome,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use vpu_nn::googlenet::Variant;

/// Fault plan injected into the `serve/faulted` cell: an early unplug
/// with reconnect (inside even the tiny cell's ~1 s virtual horizon)
/// plus a background execution-error rate, so the
/// failover/backoff/circuit machinery is part of what's timed.
pub const FAULTED_SPEC: &str = "unplug@0.3s:reconnect@0.7s,execerr@0.1";

/// Scaling policy of the `autoscale/reactive` cell.
pub const AUTOSCALE_POLICY: &str = "reactive";

/// Deterministic (virtual-clock) half of a cell: a pure function of the
/// seeded config — byte-identical across runs and machines, which is
/// exactly what CI asserts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtBlock {
    pub requests: usize,
    pub completed: u64,
    pub shed: u64,
    /// Simulator loop events (arrivals + dispatches + controller ticks).
    pub sim_events: u64,
    /// Virtual horizon of the run (epoch → last completion).
    pub virtual_ms: f64,
    /// Observability volume (zero on the unobserved cell).
    pub events_recorded: u64,
    pub trace_bytes: u64,
    pub series_bytes: u64,
}

/// Machine-dependent half of a cell. Never compared for equality —
/// only gated with a generous tolerance by [`sim_bench_diff`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallBlock {
    pub wall_ms: f64,
    pub events_per_sec: f64,
    pub req_per_sec: f64,
    /// Virtual seconds simulated per wall second.
    pub virtual_per_wall: f64,
    /// Recorder-path cost in ns per recorded event (profiled cells).
    pub recorder_ns_per_event: f64,
    /// Wall-clock cost of full observability vs the unobserved loop at
    /// the same config: `(wall_observed − wall_null) / wall_null`, in
    /// percent. Present only on the observed serve cell.
    pub recorder_overhead_pct: Option<f64>,
}

/// One cell of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimBenchCell {
    pub name: String,
    pub virt: VirtBlock,
    pub wall: WallBlock,
}

/// The whole `BENCH_sim.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimBench {
    /// Bump when the cell set or block fields change shape.
    pub schema_version: u32,
    pub scale: Scale,
    pub fleet: String,
    pub load_fraction: f64,
    pub cells: Vec<SimBenchCell>,
}

pub const SCHEMA_VERSION: u32 = 2;

/// Requests of the `serve/large` cell at every scale: enough that a
/// per-request cost growing with run length shows in its wall block.
pub const LARGE_REQUESTS: usize = 200_000;

fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 160,
        Scale::Small => 1_500,
        Scale::Paper => 10_000,
    }
}

struct Measured {
    outcome: ServeOutcome,
    wall_ns: u64,
    ledger: OverheadLedger,
}

fn virt_of(m: &Measured, n: usize) -> VirtBlock {
    VirtBlock {
        requests: n,
        completed: m.outcome.completed.len() as u64,
        shed: m.outcome.shed.len() as u64,
        sim_events: m.outcome.sim_events,
        virtual_ms: (m.outcome.end() - m.outcome.epoch).as_millis(),
        events_recorded: m.ledger.events_recorded,
        trace_bytes: m.ledger.trace_bytes,
        series_bytes: m.ledger.series_bytes,
    }
}

fn wall_of(m: &Measured) -> WallBlock {
    let t = Throughput {
        sim_events: m.outcome.sim_events,
        requests: (m.outcome.completed.len() + m.outcome.shed.len()) as u64,
        virtual_ns: (m.outcome.end() - m.outcome.epoch).nanos(),
        wall_ns: m.wall_ns,
    };
    WallBlock {
        wall_ms: m.wall_ns as f64 / 1e6,
        events_per_sec: t.events_per_sec(),
        req_per_sec: t.req_per_sec(),
        virtual_per_wall: t.virtual_per_wall(),
        recorder_ns_per_event: m.ledger.ns_per_event(),
        recorder_overhead_pct: None,
    }
}

/// Run an observed serving closure under the profiler, streaming the
/// exports through counting sinks so the ledger carries exact byte
/// counts.
fn observed_cell(run: impl FnOnce() -> (ServeOutcome, ncsw_serve::ServeObservation)) -> Measured {
    prof::start();
    let t = Instant::now();
    let (outcome, obs) = run();
    let wall_ns = t.elapsed().as_nanos() as u64;
    let report = prof::stop();
    let mut trace = Vec::new();
    let trace_stats = ncsw_obs::chrome_trace_to(&obs.events, &mut trace).expect("Vec sink");
    let mut series = Vec::new();
    let series_stats = obs.series.csv_to(&mut series).expect("Vec sink");
    let ledger = OverheadLedger {
        events_recorded: obs.events.len() as u64,
        trace_bytes: trace_stats.bytes,
        series_bytes: series_stats.bytes,
        peak_buffered_bytes: trace_stats.peak_buffered.max(series_stats.peak_buffered),
        recorder_ns: report.counter(prof::RECORDER_NS),
    };
    Measured { outcome, wall_ns, ledger }
}

/// Run the fixed matrix at `scale`. The `virt` blocks are deterministic
/// (same bytes every run); the `wall` blocks are whatever this machine
/// did this time.
pub fn sim_bench(scale: Scale) -> SimBench {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests(scale);
    let spec = FleetSpec::parse(TRACED_FLEET).expect("valid fleet spec");
    let probe = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);
    let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
    let rate = capacity_rps * TRACED_LOAD_FRACTION;
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig::default();

    // Cell 1: the unobserved loop — NullRecorder, no sampler, the
    // fastest the simulator goes today.
    let unobserved = |n| {
        let mut workers = spec.build(&model);
        let t = Instant::now();
        let outcome = serve(&mut workers, &cfg, &load, n);
        Measured {
            outcome,
            wall_ns: t.elapsed().as_nanos() as u64,
            ledger: OverheadLedger::default(),
        }
    };
    let null = unobserved(n);

    // Cell 2: the same run fully observed (event log + sampler +
    // registry), exports streamed and metered.
    let mut workers = spec.build(&model);
    let observed = observed_cell(|| serve_observed(&mut workers, &cfg, &load, n, &ocfg));

    // Cell 3: observed run with faults injected — failover, backoff and
    // breaker machinery on the clock.
    let plan = ncsw_faults::FaultPlan::parse(FAULTED_SPEC).expect("valid fault spec");
    let workers = spec.build(&model);
    let mut workers = plan.apply(workers, cfg.seed);
    let faulted = observed_cell(|| serve_observed(&mut workers, &cfg, &load, n, &ocfg));

    // Cell 4: closed-loop autoscaled run on the elastic fleet.
    let aspec = FleetSpec::parse(crate::autoscale_bench::AUTOSCALE_FLEET).expect("valid fleet");
    let aprobe = aspec.build(&model);
    let acap = aspec.capacity_rps(&aprobe);
    let amax = aspec.preferred_batch(&aprobe);
    drop(aprobe);
    let acfg = ServeConfig { max_batch: amax, ..ServeConfig::default() };
    let aload =
        ArrivalProcess::Poisson { rate_per_sec: acap * crate::autoscale_bench::AUTOSCALE_LOADS[0] };
    let scaling = ScalingConfig { elastic: aspec.elastic_workers(), ..ScalingConfig::default() };
    let mut policy = ncsw_ctrl::policy(AUTOSCALE_POLICY).expect("known policy");
    let mut aworkers = aspec.build(&model);
    let autoscale = observed_cell(|| {
        serve_autoscaled_observed(&mut aworkers, &acfg, &aload, n, &scaling, policy.as_mut(), &ocfg)
    });

    // Cell 5: the unobserved loop at a fixed large size.
    let large = unobserved(LARGE_REQUESTS);

    let mut observed_wall = wall_of(&observed);
    if null.wall_ns > 0 {
        observed_wall.recorder_overhead_pct =
            Some((observed.wall_ns as f64 - null.wall_ns as f64) / null.wall_ns as f64 * 100.0);
    }

    SimBench {
        schema_version: SCHEMA_VERSION,
        scale,
        fleet: TRACED_FLEET.to_string(),
        load_fraction: TRACED_LOAD_FRACTION,
        cells: vec![
            SimBenchCell {
                name: "serve/null".into(),
                virt: virt_of(&null, n),
                wall: wall_of(&null),
            },
            SimBenchCell {
                name: "serve/observed".into(),
                virt: virt_of(&observed, n),
                wall: observed_wall,
            },
            SimBenchCell {
                name: "serve/faulted".into(),
                virt: virt_of(&faulted, n),
                wall: wall_of(&faulted),
            },
            SimBenchCell {
                name: format!("autoscale/{AUTOSCALE_POLICY}"),
                virt: virt_of(&autoscale, n),
                wall: wall_of(&autoscale),
            },
            SimBenchCell {
                name: "serve/large".into(),
                virt: virt_of(&large, LARGE_REQUESTS),
                wall: wall_of(&large),
            },
        ],
    }
}

impl SimBench {
    pub fn cell(&self, name: &str) -> Option<&SimBenchCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    pub fn print(&self) {
        report::header(&format!(
            "E21 — sim throughput: fleet {} at {:.1}x load, scale {} (schema v{})",
            self.fleet,
            self.load_fraction,
            self.scale.name(),
            self.schema_version
        ));
        println!(
            "{:>20} {:>9} {:>11} {:>11} {:>10} {:>11} {:>10} {:>9}",
            "cell", "sim evts", "events/s", "req/s", "virt/wall", "wall ms", "rec ns/ev", "obs %"
        );
        for c in &self.cells {
            println!(
                "{:>20} {:>9} {:>11.0} {:>11.0} {:>10.1} {:>11.2} {:>10.0} {:>9}",
                c.name,
                c.virt.sim_events,
                c.wall.events_per_sec,
                c.wall.req_per_sec,
                c.wall.virtual_per_wall,
                c.wall.wall_ms,
                c.wall.recorder_ns_per_event,
                c.wall
                    .recorder_overhead_pct
                    .map_or_else(|| "-".to_string(), |p| format!("{p:+.1}")),
            );
        }
        for c in &self.cells {
            if c.virt.events_recorded > 0 {
                println!(
                    "{:>20}: {} events recorded, {} trace B + {} series B",
                    c.name, c.virt.events_recorded, c.virt.trace_bytes, c.virt.series_bytes
                );
            }
        }
    }
}

/// One cell's comparison in a [`SimBenchDiff`].
#[derive(Debug, Clone, Serialize)]
pub struct CellDiff {
    pub name: String,
    pub base_events_per_sec: f64,
    pub cand_events_per_sec: f64,
    /// Candidate vs baseline events/sec, in percent (negative = slower).
    pub delta_pct: f64,
    /// Whether the slowdown exceeded the tolerance.
    pub regressed: bool,
    /// Whether the deterministic `virt` blocks matched exactly.
    pub virt_identical: bool,
}

/// Gated verdict comparing two `BENCH_sim.json` documents.
#[derive(Debug, Clone, Serialize)]
pub struct SimBenchDiff {
    /// Allowed events/sec slowdown before the gate trips, in percent.
    pub tolerance_pct: f64,
    pub cells: Vec<CellDiff>,
    /// Cells present in only one document (schema drift — gates).
    pub unmatched: Vec<String>,
    /// Any cell's events/sec regressed beyond tolerance, the schema
    /// versions differ, or the cell sets don't line up.
    pub regression: bool,
    /// Deterministic `virt` drift somewhere — loudly reported but NOT
    /// gating here: byte-identity belongs to the determinism tests, and
    /// a bench baseline from an older seed config would otherwise wedge
    /// the perf gate.
    pub virt_drift: bool,
}

/// Compare `cand` against `base`, gating on events/sec only. Wall
/// clocks are noisy — CI runners especially — so `tolerance_pct` should
/// stay generous (50+ for cross-machine comparisons).
pub fn sim_bench_diff(base: &SimBench, cand: &SimBench, tolerance_pct: f64) -> SimBenchDiff {
    let mut cells = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for b in &base.cells {
        match cand.cell(&b.name) {
            Some(c) => {
                let delta_pct = if b.wall.events_per_sec > 0.0 {
                    (c.wall.events_per_sec - b.wall.events_per_sec) / b.wall.events_per_sec * 100.0
                } else {
                    0.0
                };
                cells.push(CellDiff {
                    name: b.name.clone(),
                    base_events_per_sec: b.wall.events_per_sec,
                    cand_events_per_sec: c.wall.events_per_sec,
                    delta_pct,
                    regressed: delta_pct < -tolerance_pct,
                    virt_identical: b.virt == c.virt,
                });
            }
            None => unmatched.push(b.name.clone()),
        }
    }
    for c in &cand.cells {
        if base.cell(&c.name).is_none() {
            unmatched.push(c.name.clone());
        }
    }
    let regression = !unmatched.is_empty()
        || base.schema_version != cand.schema_version
        || cells.iter().any(|c| c.regressed);
    let virt_drift = cells.iter().any(|c| !c.virt_identical);
    SimBenchDiff { tolerance_pct, cells, unmatched, regression, virt_drift }
}

impl SimBenchDiff {
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sim-throughput diff (gate: events/sec slowdown > {:.0}%)",
            self.tolerance_pct
        );
        let _ = writeln!(
            out,
            "{:>20} {:>12} {:>12} {:>9}  verdict",
            "cell", "base ev/s", "cand ev/s", "delta"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:>20} {:>12.0} {:>12.0} {:>+8.1}%  {}{}",
                c.name,
                c.base_events_per_sec,
                c.cand_events_per_sec,
                c.delta_pct,
                if c.regressed { "REGRESSED" } else { "ok" },
                if c.virt_identical { "" } else { "  [VIRT DRIFT]" }
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "{name:>20} {:>12} — present in only one document", "");
        }
        if self.virt_drift {
            let _ = writeln!(
                out,
                "WARNING: deterministic virt blocks drifted — the simulated runs differ, \
                 not just the machine speed (check seeds/config before trusting deltas)"
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.regression { "REGRESSION" } else { "no regression" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, eps: f64, sim_events: u64) -> SimBenchCell {
        SimBenchCell {
            name: name.to_string(),
            virt: VirtBlock {
                requests: 100,
                completed: 90,
                shed: 10,
                sim_events,
                virtual_ms: 1000.0,
                events_recorded: 0,
                trace_bytes: 0,
                series_bytes: 0,
            },
            wall: WallBlock {
                wall_ms: 5.0,
                events_per_sec: eps,
                req_per_sec: eps / 2.0,
                virtual_per_wall: 100.0,
                recorder_ns_per_event: 0.0,
                recorder_overhead_pct: None,
            },
        }
    }

    fn doc(cells: Vec<SimBenchCell>) -> SimBench {
        SimBench {
            schema_version: SCHEMA_VERSION,
            scale: Scale::Tiny,
            fleet: "cpu+gpu+8xvpu".into(),
            load_fraction: 0.8,
            cells,
        }
    }

    #[test]
    fn diff_gates_on_events_per_sec_only() {
        let base = doc(vec![cell("serve/null", 1000.0, 42)]);
        // 30% slower with 50% tolerance: fine.
        let ok = doc(vec![cell("serve/null", 700.0, 42)]);
        let d = sim_bench_diff(&base, &ok, 50.0);
        assert!(!d.regression, "{}", d.render());
        assert!(!d.virt_drift);
        // 60% slower: gate trips.
        let slow = doc(vec![cell("serve/null", 400.0, 42)]);
        let d = sim_bench_diff(&base, &slow, 50.0);
        assert!(d.regression, "{}", d.render());
        assert!(d.render().contains("REGRESSED"));
        // Faster never gates.
        let fast = doc(vec![cell("serve/null", 9000.0, 42)]);
        assert!(!sim_bench_diff(&base, &fast, 50.0).regression);
    }

    #[test]
    fn virt_drift_is_reported_but_not_gated() {
        let base = doc(vec![cell("serve/null", 1000.0, 42)]);
        let drifted = doc(vec![cell("serve/null", 1000.0, 43)]);
        let d = sim_bench_diff(&base, &drifted, 50.0);
        assert!(d.virt_drift);
        assert!(!d.regression, "virt drift alone must not trip the perf gate");
        assert!(d.render().contains("VIRT DRIFT"));
    }

    #[test]
    fn cell_set_and_schema_mismatches_gate() {
        let base = doc(vec![cell("serve/null", 1000.0, 42)]);
        let renamed = doc(vec![cell("serve/observed", 1000.0, 42)]);
        assert!(sim_bench_diff(&base, &renamed, 50.0).regression);
        let mut newschema = base.clone();
        newschema.schema_version += 1;
        assert!(sim_bench_diff(&base, &newschema, 50.0).regression);
    }

    #[test]
    fn tiny_matrix_is_deterministic_on_the_virtual_clock() {
        let a = sim_bench(Scale::Tiny);
        let b = sim_bench(Scale::Tiny);
        assert_eq!(a.cells.len(), 5);
        let names: Vec<&str> = a.cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serve/null",
                "serve/observed",
                "serve/faulted",
                "autoscale/reactive",
                "serve/large"
            ]
        );
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.virt, cb.virt, "virt block of {} must be run-invariant", ca.name);
            let v = serde_json::to_string(&ca.virt).unwrap();
            assert_eq!(v, serde_json::to_string(&cb.virt).unwrap());
        }
        // The unobserved cell records nothing; observed cells do.
        let null = a.cell("serve/null").unwrap();
        assert_eq!(null.virt.events_recorded, 0);
        assert_eq!(null.virt.trace_bytes, 0);
        let obs = a.cell("serve/observed").unwrap();
        assert!(obs.virt.events_recorded > 0);
        assert!(obs.virt.trace_bytes > 0);
        assert!(obs.virt.series_bytes > 0);
        assert!(obs.wall.recorder_overhead_pct.is_some());
        assert!(obs.wall.recorder_ns_per_event > 0.0);
        // Null and observed simulate the *same* run.
        assert_eq!(null.virt.sim_events, obs.virt.sim_events);
        assert_eq!(null.virt.completed, obs.virt.completed);
        // Faults and autoscaling change the run but still count events:
        // every cell processes at least its arrivals plus dispatches.
        assert!(a.cell("serve/faulted").unwrap().virt.sim_events > null.virt.requests as u64);
        assert!(
            a.cell("autoscale/reactive").unwrap().virt.sim_events > null.virt.requests as u64,
            "arrivals + dispatches + controller ticks must all count"
        );
        // The large cell runs its fixed size to completion, unobserved.
        let large = a.cell("serve/large").unwrap();
        assert_eq!(large.virt.requests, LARGE_REQUESTS);
        assert_eq!(large.virt.completed + large.virt.shed, LARGE_REQUESTS as u64);
        assert_eq!(large.virt.events_recorded, 0);
        // Self-diff is clean at any tolerance.
        let d = sim_bench_diff(&a, &b, 1000.0);
        assert!(!d.regression && !d.virt_drift, "{}", d.render());
    }
}
