//! The two kinds of run: the untraced run that measures the end-to-end
//! metrics, and the traced run that wraps every layer and reports the
//! per-layer metrics.

use crate::alloc;
use crate::calib;
use crate::check::{self, DEFAULT_SEED, HELD_OUT_SEED};
use crate::trace::{self, Fate, Layer, Span, Tracer};
use crate::workload::{run_op, Op, Setup, Workload};
use desim::SimTime;
use ncsw::multivpu::MultiVpuConfig;
use ncsw::MultiVpu;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Full-size operations per run at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Short operations (an eighth of the size) per full one.
const SHORTS: usize = 8;

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Full-size requests per operation (the workload's own size, or a
    /// smaller one for the self-test).
    pub requests: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        Plan { workload, seed, seconds, requests: workload.requests() }
    }

    fn short(&self) -> usize {
        (self.requests / SHORTS).max(1)
    }

    /// Digest pinning applies to the full-size operation of the default
    /// seed only.
    fn pinned(&self) -> Option<u64> {
        (self.seed == DEFAULT_SEED && self.requests == self.workload.requests())
            .then(|| check::pinned(self.workload))
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures beyond single operations (traced-run passivity, span
    /// nesting).
    pub run_errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_errors.is_empty()
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Run the checks of one operation and count it.
    fn count(&mut self, plan: &Plan, op: &Op) -> u64 {
        let mut violations = check::check(plan.workload, op);
        let digest = check::digest(&op.outcome);
        if op.n == plan.requests {
            if let Some(pin) = plan.pinned().filter(|&p| p != digest) {
                violations.push(format!("digest: {digest:#018x} != pinned {pin:#018x}"));
            }
        }
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            for v in violations {
                self.notes.push(format!("FAILED {} n={}: {v}", plan.workload.name(), op.n));
            }
        }
        digest
    }
}

pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Everything `setup_s` covers: model build, fleet build and fault-plan
/// and scaling-policy construction.
fn timed_setup(plan: &Plan) -> (Setup, f64) {
    let t = Instant::now();
    let setup = Setup::new(plan.workload, plan.seed);
    black_box(setup.fleet(plan.requests, None));
    black_box(setup.ctrl_policy(None));
    (setup, t.elapsed().as_secs_f64())
}

/// Repeat rounds until `plan.seconds` have passed (and at least
/// [`MIN_ROUNDS`] ran).
fn rounds(plan: &Plan, mut round: impl FnMut()) {
    let t0 = Instant::now();
    let mut done = 0;
    while done < MIN_ROUNDS || t0.elapsed().as_secs_f64() < plan.seconds {
        round();
        done += 1;
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(plan: &Plan) -> Report {
    let mut report = Report::default();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut setup = None;
    for _ in 0..SETUPS {
        let ((s, t), scale) = calib::scaled(|| timed_setup(plan));
        setup_s.push(t * scale);
        setup_raw_s.push(t);
        setup = Some(s);
    }
    let setup = setup.expect("at least one setup");
    // Outside both the timed pipeline and setup: the model's error
    // against the paper, reported next to every speed-up.
    let anchor_pct = vpu_bench::anchors::anchors(vpu_bench::Scale::Tiny).worst_deviation() * 100.0;

    let (full, short) = (plan.requests, plan.short());
    // Host ns of each operation's timed pipeline: at the reference speed,
    // and raw.
    let (mut full_ns, mut short_ns) = (Vec::new(), Vec::new());
    let (mut full_raw_ns, mut short_raw_ns, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    rounds(plan, || {
        let (op, scale) = calib::scaled(|| run_op(&setup, full, None, true));
        let digest = report.count(plan, &op);
        let raw = op.stages.total_ns() as f64;
        full_ns.push(raw * scale);
        full_raw_ns.push(raw);
        peaks.push(alloc::mb(op.peak_heap_bytes));
        first.get_or_insert_with(|| (check::p99_ms(&op.outcome), digest));
        drop(op);
        for _ in 0..SHORTS {
            let (op, scale) = calib::scaled(|| run_op(&setup, short, None, true));
            report.count(plan, &op);
            let raw = op.stages.total_ns() as f64;
            short_ns.push(raw * scale);
            short_raw_ns.push(raw);
        }
    });

    let (p99, digest) = first.expect("at least one full op");
    report.notes.push(format!(
        "virtual digest {digest:#018x} (seed {}, {full} requests; pinned for seed \
         {DEFAULT_SEED}: {:#018x}; held-out seed {HELD_OUT_SEED})",
        plan.seed,
        check::pinned(plan.workload)
    ));
    let full_med = median(&full_ns);
    let short_med = median(&short_ns);
    report.notes.push(format!(
        "{} full ops of {full} requests, {} short ops of {short}",
        full_ns.len(),
        short_ns.len(),
    ));
    let (full_raw, short_raw) = (median(&full_raw_ns), median(&short_raw_ns));
    report.notes.push(format!(
        "raw host time: sim_req_per_s {} 1/s, growth_ratio {}, setup_s {} s; \
         reference-speed factor {}",
        full as f64 / secs(full_raw as u64).max(1e-9),
        (full_raw / full as f64) / (short_raw / short as f64),
        median(&setup_raw_s),
        full_med / full_raw,
    ));
    report.notes.push(format!(
        "{} failed_frac = {} frac ({} of {} ops failed; gated as pass_frac)",
        plan.workload.name(),
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    ));
    report.push("sim_req_per_s", full as f64 / secs(full_med as u64).max(1e-9), "1/s");
    report.push("growth_ratio", (full_med / full as f64) / (short_med / short as f64), "ratio");
    report.push("setup_s", median(&setup_s), "s");
    report.push("peak_heap_mb", median(&peaks), "MB");
    report.push(
        "pass_frac",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
        "frac",
    );
    report.push("virt_p99_ms", p99, "ms");
    report.push("anchor_max_dev_pct", anchor_pct, "%");
    report
}

/// Per-operation layer figures from one traced operation.
#[derive(Debug, Clone, Default)]
struct LayerTimes {
    serve_self_s: f64,
    faults_self_s: f64,
    ctrl_decide_s: f64,
    device_serve_s: [f64; 4],
    device_p50_ns: [f64; 4],
    device_p99_ns: [f64; 4],
    device_first8_ns: [f64; 4],
    device_last8_ns: [f64; 4],
    device_estimate_s: [f64; 4],
    gpu_max_batch_s: f64,
    chrome_s: f64,
    series_s: f64,
    parse_s: f64,
    attribute_s: f64,
}

/// Deterministic counts of one traced operation.
#[derive(Debug, Clone, Default)]
struct LayerCounts {
    dispatch_calls: u64,
    useful_dispatches: u64,
    device_serve_calls: [u64; 4],
    device_images: [u64; 4],
    device_estimate_calls: [u64; 4],
    gpu_max_batch_calls: u64,
    faults_errors: u64,
    faults_injected: u64,
    ctrl_decide_calls: u64,
}

fn mean_ns(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

fn layer_figures(spans: &[Span]) -> (LayerTimes, LayerCounts) {
    let mut t = LayerTimes::default();
    let mut c = LayerCounts::default();
    let sum_s = |name: &str| secs(spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum());
    let calls = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    t.serve_self_s = secs(spans.iter().filter(|s| s.name == "serve").map(Span::self_ns).sum());
    t.faults_self_s =
        secs(spans.iter().filter(|s| s.name.starts_with("faults.")).map(Span::self_ns).sum());
    t.ctrl_decide_s = sum_s("ctrl.decide");
    c.ctrl_decide_calls = calls("ctrl.decide");
    t.gpu_max_batch_s = sum_s(Layer::Gpu.max_batch_span());
    c.gpu_max_batch_calls = calls(Layer::Gpu.max_batch_span());
    t.chrome_s = sum_s("export.chrome");
    t.series_s = sum_s("export.series");
    t.parse_s = sum_s("analyze.parse");
    t.attribute_s = sum_s("analyze.attribute");
    for (i, layer) in Layer::DEVICES.into_iter().enumerate() {
        let serves: Vec<&Span> = spans.iter().filter(|s| s.name == layer.serve_span()).collect();
        let durs: Vec<u64> = serves.iter().map(|s| s.dur_ns()).collect();
        let mut sorted = durs.clone();
        sorted.sort_unstable();
        let eighth = durs.len().div_ceil(8);
        c.device_serve_calls[i] = durs.len() as u64;
        c.device_images[i] = serves.iter().map(|s| u64::from(s.images)).sum();
        t.device_serve_s[i] = secs(durs.iter().sum());
        t.device_p50_ns[i] = check::nearest_rank(&sorted, 0.50) as f64;
        t.device_p99_ns[i] = check::nearest_rank(&sorted, 0.99) as f64;
        t.device_first8_ns[i] = mean_ns(&durs[..eighth]);
        t.device_last8_ns[i] = mean_ns(&durs[durs.len() - eighth..]);
        t.device_estimate_s[i] = sum_s(layer.estimate_span());
        c.device_estimate_calls[i] = calls(layer.estimate_span());
    }
    // Dispatch attempts are the outermost batch submissions: direct
    // children of the serve span.
    let root: BTreeSet<u32> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve")
        .map(|(i, _)| i as u32)
        .collect();
    let mut useful = BTreeSet::new();
    for s in
        spans.iter().filter(|s| s.fate != Fate::None && s.parent.is_some_and(|p| root.contains(&p)))
    {
        c.dispatch_calls += 1;
        if s.fate == Fate::Ok {
            useful.insert(s.batch);
        }
    }
    c.useful_dispatches = useful.len() as u64;
    for s in spans.iter().filter(|s| s.name == Layer::Faults.serve_span()) {
        c.faults_errors += u64::from(s.fate == Fate::Err);
        c.faults_injected += u64::from(matches!(s.fate, Fate::Err | Fate::Wire));
    }
    (t, c)
}

/// Standalone timings of the layers below the VPU worker, on instances
/// built from the workload's model and VPU configuration.
struct BelowDevice {
    myriad2_run_cost_ns: f64,
    ncs_usb_transfer_ns: f64,
    multivpu_ns_per_image: f64,
}

const STANDALONE_CALLS: usize = 1_000;

fn below_device(setup: &Setup) -> BelowDevice {
    let devices = if setup.workload == Workload::MixedSteady { 8 } else { 1 };
    let cfg = MultiVpuConfig::paper_testbed(devices);
    let cost = &setup.model.cost16;

    let mut chip = myriad2::Myriad2::new(cfg.ncs.chip.clone());
    let t = Instant::now();
    for _ in 0..STANDALONE_CALLS {
        black_box(chip.run_cost(cost, SimTime::ZERO));
    }
    let myriad2_run_cost_ns = t.elapsed().as_nanos() as f64 / STANDALONE_CALLS as f64;

    let (ports, hubs) = cfg.topology.ports(devices);
    let port = *ports.last().expect("at least one device");
    let mut bus = ncs_platform::usb::UsbBus::new(cfg.usb.clone(), hubs);
    let (inb, outb) = (cost.input_bytes(), cost.output_bytes());
    let t = Instant::now();
    for i in 0..STANDALONE_CALLS {
        black_box(bus.transfer(port, SimTime::ZERO, if i % 2 == 0 { inb } else { outb }));
    }
    let ncs_usb_transfer_ns = t.elapsed().as_nanos() as f64 / STANDALONE_CALLS as f64;

    let mut pipe = MultiVpu::new(cfg, &setup.model);
    let batches = STANDALONE_CALLS / devices;
    let t = Instant::now();
    for _ in 0..batches {
        black_box(pipe.run_pipeline_at(devices, SimTime::ZERO));
    }
    let multivpu_ns_per_image = t.elapsed().as_nanos() as f64 / (batches * devices) as f64;
    BelowDevice { myriad2_run_cost_ns, ncs_usb_transfer_ns, multivpu_ns_per_image }
}

/// Where the traced run writes its spans: inside the benchmark's own
/// directory of the checkout it was built in.
fn spans_path(plan: &Plan) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", plan.workload.name()))
}

/// The traced run: every per-layer metric.
pub fn traced(plan: &Plan) -> Report {
    let mut report = Report::default();
    let setup = Setup::new(plan.workload, plan.seed);
    let w = plan.workload;
    let n = plan.requests;
    let tracer = Tracer::shared();

    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut record_s = Vec::new();
    let mut times = Vec::new();
    let mut last: Option<(Op, LayerCounts, Vec<Span>)> = None;
    rounds(plan, || {
        let plain = run_op(&setup, n, None, true);
        let plain_digest = report.count(plan, &plain);
        untraced_ns.push(plain.stages.total_ns() as f64);

        let op = run_op(&setup, n, Some(&tracer), true);
        let digest = report.count(plan, &op);
        traced_ns.push(op.stages.total_ns() as f64);
        if digest != plain_digest {
            report.run_errors.push(format!(
                "passivity: traced digest {digest:#018x} != untraced {plain_digest:#018x}"
            ));
        }
        let spans = tracer.borrow_mut().take();
        let overfull = trace::overfull(&spans);
        if overfull > 0 {
            report.run_errors.push(format!("nesting: {overfull} spans' children exceed them"));
        }
        let (t, c) = layer_figures(&spans);
        times.push(t);

        if w.observed() {
            let null = run_op(&setup, n, None, false);
            report.count(plan, &null);
            record_s.push(secs(plain.stages.serve_ns) - secs(null.stages.serve_ns));
        }
        last = Some((op, c, spans));
    });
    let (op, c, spans) = last.expect("at least one round");

    std::fs::create_dir_all(spans_path(plan).parent().expect("has a parent"))
        .and_then(|()| std::fs::File::create(spans_path(plan)))
        .and_then(|f| trace::write_tsv(&spans, std::io::BufWriter::new(f)))
        .unwrap_or_else(|e| report.notes.push(format!("spans not written: {e}")));
    report.notes.push(format!(
        "{} spans of the last traced op in {}",
        spans.len(),
        spans_path(plan).display()
    ));

    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let o = &op.outcome;

    let serve_self = med(&|t| t.serve_self_s);
    report.push("serve.self_s", serve_self, "s");
    report.push("serve.sim_events", o.sim_events as f64, "count");
    report.push("serve.self_ns_per_event", serve_self * 1e9 / o.sim_events.max(1) as f64, "ns");
    report.push("serve.dispatch_calls", c.dispatch_calls as f64, "count");
    report.push(
        "serve.useful_dispatch_ratio",
        c.useful_dispatches as f64 / c.dispatch_calls.max(1) as f64,
        "ratio",
    );

    for (i, layer) in Layer::DEVICES.into_iter().enumerate() {
        let k = layer.class();
        report.push(format!("device.{k}.serve_calls"), c.device_serve_calls[i] as f64, "count");
        report.push(format!("device.{k}.serve_s"), med(&|t| t.device_serve_s[i]), "s");
        report.push(format!("device.{k}.serve_ns_p50"), med(&|t| t.device_p50_ns[i]), "ns");
        report.push(format!("device.{k}.serve_ns_p99"), med(&|t| t.device_p99_ns[i]), "ns");
        report.push(format!("device.{k}.images"), c.device_images[i] as f64, "count");
        report.push(
            format!("device.{k}.estimate_calls"),
            c.device_estimate_calls[i] as f64,
            "count",
        );
        report.push(format!("device.{k}.estimate_s"), med(&|t| t.device_estimate_s[i]), "s");
    }
    report.push("device.gpu.max_batch_calls", c.gpu_max_batch_calls as f64, "count");
    report.push("device.gpu.max_batch_s", med(&|t| t.gpu_max_batch_s), "s");
    let v8 = Layer::DEVICES.iter().position(|&l| l == Layer::Vpu8).expect("vpu8 is a device");
    report.push("device.vpu8.serve_ns_first8th", med(&|t| t.device_first8_ns[v8]), "ns");
    report.push("device.vpu8.serve_ns_last8th", med(&|t| t.device_last8_ns[v8]), "ns");

    report.push("faults.self_s", med(&|t| t.faults_self_s), "s");
    report.push("faults.errors_returned", c.faults_errors as f64, "count");
    report.push("faults.injected", c.faults_injected as f64, "count");

    let scaling = o.scaling.as_ref();
    report.push("ctrl.decide_calls", c.ctrl_decide_calls as f64, "count");
    report.push("ctrl.decide_s", med(&|t| t.ctrl_decide_s), "s");
    report.push("ctrl.scale_ups", scaling.map_or(0, |s| s.scale_ups) as f64, "count");
    report.push("ctrl.scale_downs", scaling.map_or(0, |s| s.scale_downs) as f64, "count");

    let below = w.has_vpu().then(|| below_device(&setup));
    report.push("myriad2.run_cost_ns", below.as_ref().map_or(0.0, |b| b.myriad2_run_cost_ns), "ns");
    report.push("ncs.usb_transfer_ns", below.as_ref().map_or(0.0, |b| b.ncs_usb_transfer_ns), "ns");
    report.push(
        "multivpu.run_pipeline_ns_per_image",
        below.as_ref().map_or(0.0, |b| b.multivpu_ns_per_image),
        "ns",
    );

    let obs = op.obs.clone().unwrap_or_default();
    let rec_s = if record_s.is_empty() { 0.0 } else { median(&record_s) };
    report.push("obs.record_s", rec_s, "s");
    report.push("obs.events_recorded", obs.events_seen as f64, "count");
    report.push("obs.record_ns_per_event", rec_s * 1e9 / obs.events_seen.max(1) as f64, "ns");
    report.push(
        "obs.sample_kept_frac",
        obs.events_kept as f64 / obs.events_seen.max(1) as f64,
        "frac",
    );
    report.push("obs.incidents", obs.incidents as f64, "count");

    let a = op.analyzed.clone().unwrap_or_default();
    let (chrome_s, parse_s) = (med(&|t| t.chrome_s), med(&|t| t.parse_s));
    let mb = |bytes: u64| alloc::mb(bytes as usize);
    report.push("export.chrome_s", chrome_s, "s");
    report.push("export.chrome_mb_per_s", rate(mb(a.trace_bytes), chrome_s), "MB/s");
    report.push("export.trace_bytes", a.trace_bytes as f64, "B");
    report.push("export.series_s", med(&|t| t.series_s), "s");
    report.push("export.series_bytes", a.series_bytes as f64, "B");
    report.push("analyze.parse_s", parse_s, "s");
    report.push("analyze.parse_mb_per_s", rate(mb(a.trace_bytes), parse_s), "MB/s");
    report.push("analyze.parse_peak_heap_mb", alloc::mb(a.parse_peak_bytes), "MB");
    report.push("analyze.attribute_s", med(&|t| t.attribute_s), "s");

    let (u, t) = (median(&untraced_ns), median(&traced_ns));
    report.push("trace.overhead_pct", (t - u) / u * 100.0, "%");
    report.push("trace.untraced_sim_req_per_s", n as f64 / secs(u as u64).max(1e-9), "1/s");
    report.push("trace.traced_sim_req_per_s", n as f64 / secs(t as u64).max(1e-9), "1/s");
    report
}

fn rate(mb: f64, s: f64) -> f64 {
    if s > 0.0 {
        mb / s
    } else {
        0.0
    }
}
