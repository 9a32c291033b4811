//! Target devices (paper Fig. 3, right side).

use crate::metrics::ThroughputReport;
use crate::model::ModelBundle;
use crate::multivpu::{MultiVpu, MultiVpuConfig};
use desim::{Duration, SimTime};
use hostsim::{CpuConfig, CpuDevice, GpuConfig, GpuDevice};
use vpu_tensor::Tensor;

/// Abstract inference target — `TargetDevice` in the paper's class
/// diagram. A target can (a) *simulate* the time to chew through a
/// stream of images at a given batch size and (b) *classify* an image
/// for real at its native precision.
pub trait TargetDevice {
    fn name(&self) -> &str;

    /// TDP charged in Eq. (1) at a given batch size (the VPU's scales
    /// with the number of active sticks).
    fn tdp_w(&self, batch: usize) -> f64;

    /// Process `images` inputs in batches of `batch`; returns the
    /// throughput report with per-window samples for error bars.
    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport;

    /// Classify one preprocessed f32 image; returns the probability
    /// vector widened to f32 (the VPU computes in binary16 internally).
    fn classify(&self, image: &Tensor<f32>) -> Vec<f32>;
}

/// The Caffe-MKL CPU target.
pub struct IntelCpu {
    dev: CpuDevice,
    model: ModelBundle,
}

impl IntelCpu {
    pub fn new(model: ModelBundle) -> Self {
        IntelCpu { dev: CpuDevice::new(CpuConfig::default()), model }
    }

    pub fn with_config(model: ModelBundle, cfg: CpuConfig) -> Self {
        IntelCpu { dev: CpuDevice::new(cfg), model }
    }

    pub fn device(&self) -> &CpuDevice {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut CpuDevice {
        &mut self.dev
    }

    pub fn model(&self) -> &ModelBundle {
        &self.model
    }
}

impl TargetDevice for IntelCpu {
    fn name(&self) -> &str {
        "cpu"
    }

    fn tdp_w(&self, _batch: usize) -> f64 {
        self.dev.config().tdp_w
    }

    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport {
        host_throughput("cpu", images, batch, |b, ready| {
            let run = self.dev.run_batch(&self.model.cost32, b, ready);
            (run.start, run.end)
        })
    }

    fn classify(&self, image: &Tensor<f32>) -> Vec<f32> {
        self.model.net32.forward(image).into_vec()
    }
}

/// The Caffe-cuDNN GPU target.
pub struct NvGpu {
    dev: GpuDevice,
    model: ModelBundle,
}

impl NvGpu {
    pub fn new(model: ModelBundle) -> Self {
        NvGpu { dev: GpuDevice::new(GpuConfig::default()), model }
    }

    pub fn with_config(model: ModelBundle, cfg: GpuConfig) -> Self {
        NvGpu { dev: GpuDevice::new(cfg), model }
    }

    pub fn device(&self) -> &GpuDevice {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut GpuDevice {
        &mut self.dev
    }

    pub fn model(&self) -> &ModelBundle {
        &self.model
    }
}

impl TargetDevice for NvGpu {
    fn name(&self) -> &str {
        "gpu"
    }

    fn tdp_w(&self, _batch: usize) -> f64 {
        self.dev.config().tdp_w
    }

    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport {
        host_throughput("gpu", images, batch, |b, ready| {
            let run = self.dev.run_batch(&self.model.cost32, b, ready);
            (run.start, run.end)
        })
    }

    fn classify(&self, image: &Tensor<f32>) -> Vec<f32> {
        // cuDNN is IEEE f32 like MKL; the paper confirms the GPU's
        // confidences match the CPU's (§IV-B footnote).
        self.model.net32.forward(image).into_vec()
    }
}

/// The multi-stick VPU target. The paper couples the number of active
/// sticks to the batch size, so `run_throughput` requires
/// `batch == devices`.
pub struct IntelVpu {
    mv: MultiVpu,
    model: ModelBundle,
    /// Calibrated latency model for online dispatch: makespan of one
    /// pipeline wave (`devices` images) and the marginal cost of each
    /// further wave, measured on a throwaway pipeline at construction.
    svc_first_wave: Duration,
    svc_per_wave: Duration,
}

impl IntelVpu {
    pub fn new(model: ModelBundle, devices: usize) -> Self {
        IntelVpu::with_config(model, MultiVpuConfig::paper_testbed(devices))
    }

    pub fn with_config(model: ModelBundle, cfg: MultiVpuConfig) -> Self {
        let n = cfg.devices;
        // Calibrate the dispatch-time estimate on throwaway pipelines so
        // the served instance's virtual clock stays untouched: one wave
        // gives the fill latency, three waves give the steady-state
        // marginal wave cost.
        let one = MultiVpu::new(cfg.clone(), &model).run_pipeline_at(n, SimTime::ZERO).makespan();
        let three =
            MultiVpu::new(cfg.clone(), &model).run_pipeline_at(3 * n, SimTime::ZERO).makespan();
        let per_wave = if three > one { (three - one) / 2 } else { one };
        let mv = MultiVpu::new(cfg, &model);
        IntelVpu { mv, model, svc_first_wave: one, svc_per_wave: per_wave }
    }

    pub fn devices(&self) -> usize {
        self.mv.devices()
    }

    pub fn pipeline_mut(&mut self) -> &mut MultiVpu {
        &mut self.mv
    }

    pub fn pipeline(&self) -> &MultiVpu {
        &self.mv
    }

    /// `(first_wave, per_wave)` of the calibrated latency model.
    pub fn service_latency_model(&self) -> (Duration, Duration) {
        (self.svc_first_wave, self.svc_per_wave)
    }
}

impl TargetDevice for IntelVpu {
    fn name(&self) -> &str {
        "vpu"
    }

    fn tdp_w(&self, batch: usize) -> f64 {
        // One stick's peak TDP per active VPU (Fig. 8a's accounting).
        self.mv.api().fleet().devices[0].config().peak_power_w * batch as f64
    }

    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport {
        assert_eq!(
            batch,
            self.mv.devices(),
            "the paper couples batch size to the number of active VPUs"
        );
        let report = self.mv.run_pipeline(images);
        // Windows of `batch` results give the per-window samples.
        let mut windows = Vec::new();
        let mut window_start = report.start;
        let mut i = 0;
        while i + batch <= images {
            let end =
                (i..i + batch).map(|k| report.result_times[k]).max().expect("non-empty window");
            windows.push(end - window_start);
            window_start = end;
            i += batch;
        }
        if windows.is_empty() {
            windows.push(report.end - report.start);
        }
        ThroughputReport::from_window_times("vpu", batch, batch, &windows)
    }

    fn classify(&self, image: &Tensor<f32>) -> Vec<f32> {
        let input = image.quantize_fp16();
        self.model.net16.forward(&input).as_slice().iter().map(|v| v.to_f32()).collect()
    }
}

/// Shared host-device throughput loop: serial batches, window = batch.
fn host_throughput(
    name: &str,
    images: usize,
    batch: usize,
    mut run: impl FnMut(usize, SimTime) -> (SimTime, SimTime),
) -> ThroughputReport {
    assert!(images >= batch, "need at least one full batch");
    let full_batches = images / batch;
    let mut windows: Vec<Duration> = Vec::with_capacity(full_batches);
    let mut t = SimTime::ZERO;
    for _ in 0..full_batches {
        let (start, end) = run(batch, t);
        windows.push(end - start);
        t = end;
    }
    ThroughputReport::from_window_times(name, batch, batch, &windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::googlenet::Variant;

    fn model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Full, 1)
    }

    fn tiny_model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Tiny, 1)
    }

    #[test]
    fn cpu_throughput_matches_anchor() {
        let mut cpu = IntelCpu::new(model());
        let r = cpu.run_throughput(80, 8);
        // Paper: 44.0 img/s at batch 8.
        let ips = r.images_per_sec();
        assert!((42.0..46.0).contains(&ips), "CPU {ips} img/s");
        assert!(r.samples.stddev > 0.0, "expected jittered error bars");
    }

    #[test]
    fn gpu_throughput_matches_anchor() {
        let mut gpu = NvGpu::new(model());
        let r = gpu.run_throughput(80, 8);
        // Paper: 74.2 img/s at batch 8.
        let ips = r.images_per_sec();
        assert!((71.0..78.0).contains(&ips), "GPU {ips} img/s");
    }

    #[test]
    fn vpu_throughput_matches_anchor() {
        let mut vpu = IntelVpu::new(model(), 8);
        let r = vpu.run_throughput(64, 8);
        // Paper: 77.2 img/s at 8 sticks.
        let ips = r.images_per_sec();
        assert!((71.0..84.0).contains(&ips), "VPU {ips} img/s");
    }

    #[test]
    #[should_panic(expected = "couples batch size")]
    fn vpu_batch_must_equal_devices() {
        IntelVpu::new(model(), 4).run_throughput(16, 8);
    }

    #[test]
    fn tdp_accounting() {
        let cpu = IntelCpu::new(tiny_model());
        let gpu = NvGpu::new(tiny_model());
        let vpu = IntelVpu::new(tiny_model(), 2);
        assert_eq!(cpu.tdp_w(8), 80.0);
        assert_eq!(gpu.tdp_w(8), 80.0);
        assert_eq!(vpu.tdp_w(1), 2.5);
        assert_eq!(vpu.tdp_w(8), 20.0);
    }

    #[test]
    fn classify_agrees_between_hosts_and_differs_on_vpu() {
        use vpu_tensor::Shape;
        let m = tiny_model();
        let cpu = IntelCpu::new(m.clone());
        let gpu = NvGpu::new(m.clone());
        let vpu = IntelVpu::new(m, 1);
        let img = Tensor::<f32>::full(Shape::chw(3, 32, 32), 0.23);
        let pc = cpu.classify(&img);
        let pg = gpu.classify(&img);
        let pv = vpu.classify(&img);
        assert_eq!(pc, pg, "CPU and GPU share f32 numerics");
        assert_eq!(pc.len(), pv.len());
        let diff: f32 = pc.iter().zip(&pv).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.0, "fp16 must differ from fp32");
        assert!(diff < 0.1, "fp16 drift too large: {diff}");
    }

    #[test]
    fn names() {
        assert_eq!(IntelCpu::new(tiny_model()).name(), "cpu");
        assert_eq!(NvGpu::new(tiny_model()).name(), "gpu");
        assert_eq!(IntelVpu::new(tiny_model(), 1).name(), "vpu");
    }
}
