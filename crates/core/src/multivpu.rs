//! The parallel multi-VPU execution pipeline (paper §III, Fig. 4).
//!
//! One (virtual) host thread per NCS device; images are assigned
//! round-robin; each thread keeps its device's FIFO full (depth 2) by
//! interleaving `load_tensor` and `get_result` in queueing order. The
//! interleaving across threads is event-driven: at every step the thread
//! whose next API call can start earliest executes it, which is how OS
//! scheduling resolves competing USB submissions in the real framework.

use crate::model::ModelBundle;
use desim::{Duration, SimTime, TraceLog};
use ncs_platform::usb::UsbConfig;
use ncs_platform::{Fleet, GraphHandle, Ncapi, NcsConfig, Topology};
use ncsw_obs::{BatchObs, Event, GanttRecorder, Lane, Phase};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use vpu_num::{f16, rng};
use vpu_tensor::Tensor;

/// Pipeline construction parameters.
#[derive(Debug, Clone)]
pub struct MultiVpuConfig {
    pub devices: usize,
    pub topology: Topology,
    pub ncs: NcsConfig,
    /// USB fabric parameters (bandwidths, hub latency, fault injection).
    pub usb: UsbConfig,
    /// OpenMP thread spawn/wake overhead charged when the pipeline
    /// starts, per thread (the paper's "thread-management overhead").
    pub thread_spawn: Duration,
    /// Host scheduling jitter bound per API call (uniform 0..bound).
    pub host_jitter: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl MultiVpuConfig {
    pub fn paper_testbed(devices: usize) -> Self {
        MultiVpuConfig {
            devices,
            topology: Topology::PaperTestbed,
            ncs: NcsConfig::default(),
            usb: UsbConfig::default(),
            thread_spawn: Duration::from_micros(60.0),
            host_jitter: Duration::from_micros(120.0),
            seed: rng::DEFAULT_SEED,
        }
    }
}

/// Result of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub images: usize,
    pub devices: usize,
    /// First load call.
    pub start: SimTime,
    /// Last result returned to the host.
    pub end: SimTime,
    /// Host-return instant of each image's result, in image order.
    pub result_times: Vec<SimTime>,
    /// Real FP16 outputs when numerics were supplied.
    pub outputs: Vec<Option<Tensor<f16>>>,
    /// Joules consumed across all chips.
    pub energy_j: f64,
    /// Host + device execution spans for the Fig. 4 timeline, built only
    /// by the offline entry points ([`MultiVpu::run_pipeline`],
    /// [`MultiVpu::run_pipeline_with`]); empty on the serving path.
    pub trace: TraceLog,
}

impl PipelineReport {
    pub fn makespan(&self) -> Duration {
        self.end - self.start
    }

    pub fn per_image(&self) -> Duration {
        self.makespan() / self.images.max(1) as u64
    }

    pub fn images_per_sec(&self) -> f64 {
        self.images as f64 / self.makespan().as_secs()
    }
}

/// The multi-stick pipeline (owned NCAPI + per-device graph handles).
pub struct MultiVpu {
    api: Ncapi,
    handles: Vec<GraphHandle>,
    cfg: MultiVpuConfig,
    /// All devices opened and graphs allocated by this instant.
    ready: SimTime,
    /// Completion instant of the previous pipeline run (host threads of a
    /// later run cannot start before it).
    last_end: SimTime,
    /// Host scheduling jitter, one draw per API call, continuing across
    /// runs so back-to-back batches see fresh but deterministic jitter.
    jitter: ChaCha8Rng,
}

impl MultiVpu {
    /// Open `cfg.devices` sticks, upload the model's FP16 graph to each.
    pub fn new(cfg: MultiVpuConfig, model: &ModelBundle) -> Self {
        assert!(cfg.devices > 0, "need at least one device");
        let fleet =
            Fleet::with_usb(cfg.devices, cfg.topology.clone(), cfg.ncs.clone(), cfg.usb.clone());
        let mut api = Ncapi::new(fleet);
        let mut handles = Vec::with_capacity(cfg.devices);
        let mut ready = SimTime::ZERO;
        for d in 0..cfg.devices {
            api.open_device(d, SimTime::ZERO).expect("open device");
            let (h, t) =
                api.alloc_graph(d, model.cost16.clone(), SimTime::ZERO).expect("alloc graph");
            handles.push(h);
            ready = SimTime::max_of(ready, t);
        }
        let jitter = rng::stream(cfg.seed, "host-jitter");
        MultiVpu { api, handles, cfg, ready, last_end: ready, jitter }
    }

    pub fn devices(&self) -> usize {
        self.cfg.devices
    }

    /// Instant the fleet finished booting/allocating.
    pub fn ready_at(&self) -> SimTime {
        self.ready
    }

    pub fn api(&self) -> &Ncapi {
        &self.api
    }

    /// Instant all previously submitted pipeline work completes (equals
    /// [`Self::ready_at`] before the first run).
    pub fn busy_until(&self) -> SimTime {
        self.last_end
    }

    pub fn config(&self) -> &MultiVpuConfig {
        &self.cfg
    }

    /// Run `count` inferences with no numerics (timing only), with the
    /// Fig. 4 timeline in [`PipelineReport::trace`].
    pub fn run_pipeline(&mut self, count: usize) -> PipelineReport {
        self.run_pipeline_with(count, |_| None)
    }

    /// Timing-only run whose host threads start no earlier than
    /// `not_before` — the incremental entry point an online batcher uses
    /// to submit a formed batch at its (virtual) dispatch instant. It
    /// records nothing: [`PipelineReport::trace`] stays empty.
    pub fn run_pipeline_at(&mut self, count: usize, not_before: SimTime) -> PipelineReport {
        let mut null = ncsw_obs::NullRecorder;
        self.run_pipeline_obs(count, not_before, |_| None, &mut BatchObs::disabled(&mut null))
    }

    /// Run `count` inferences; `numerics(i)` may supply the real FP16
    /// output of image `i` (computed by `vpu-nn` — bit-exact device
    /// arithmetic), which rides through the device queue. The Fig. 4
    /// timeline lands in [`PipelineReport::trace`].
    pub fn run_pipeline_with(
        &mut self,
        count: usize,
        numerics: impl FnMut(usize) -> Option<Tensor<f16>>,
    ) -> PipelineReport {
        let mut gantt = GanttRecorder::new();
        let mut obs = BatchObs { rec: &mut gantt, batch_id: 0, worker: 0, ids: &[] };
        let report = self.run_pipeline_obs(count, SimTime::ZERO, numerics, &mut obs);
        PipelineReport { trace: gantt.into_log(), ..report }
    }

    /// Instrumented form: identical timing, but every host `load`/`read`
    /// span, on-chip `exec` span and USB-fabric leg is also emitted as a
    /// structured [`Event`] (with `obs`'s request context) through
    /// `obs.rec` (pass a [`GanttRecorder`] for the Fig. 4 timeline). With
    /// a disabled recorder this path builds no events at all, so timing
    /// and RNG consumption are bit-identical.
    pub fn run_pipeline_obs(
        &mut self,
        count: usize,
        not_before: SimTime,
        mut numerics: impl FnMut(usize) -> Option<Tensor<f16>>,
        obs: &mut BatchObs<'_>,
    ) -> PipelineReport {
        assert!(count > 0, "need at least one image");
        let recording = obs.enabled();
        if recording {
            self.api.fleet_mut().bus.set_tap(true);
        }
        let worker = obs.worker;
        let n = self.cfg.devices;

        // Per-thread state.
        struct Thread {
            device: usize,
            images: Vec<usize>,
            next_load: usize,
            next_get: usize,
            cursor: SimTime,
        }
        let mut threads: Vec<Thread> = (0..n)
            .map(|d| Thread {
                device: d,
                images: (d..count).step_by(n).collect(),
                next_load: 0,
                next_get: 0,
                cursor: SimTime::max_of(not_before, SimTime::max_of(self.ready, self.last_end))
                    + self.cfg.thread_spawn * (d as u64 + 1),
            })
            .collect();

        let start = threads.iter().map(|t| t.cursor).min().unwrap();
        let mut result_times = vec![SimTime::ZERO; count];
        let mut outputs: Vec<Option<Tensor<f16>>> = (0..count).map(|_| None).collect();
        let depth = self.cfg.ncs.fifo_depth;
        let mut energy = 0.0f64;

        fn usb_lane(worker: u32, hub: Option<usize>) -> Lane {
            match hub {
                None => Lane::UsbRoot { worker },
                Some(h) => Lane::UsbHub { worker, hub: h as u32 },
            }
        }

        // Event-driven interleaving: always advance the thread whose next
        // API call can begin earliest.
        loop {
            let candidate = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.next_get < t.images.len())
                .min_by_key(|(i, t)| (t.cursor, *i));
            let Some((ti, _)) = candidate else { break };
            let t = &mut threads[ti];
            let h = self.handles[t.device];
            // Keep the device FIFO full: load while slots remain and
            // images remain; otherwise collect the oldest result.
            let want_load = t.next_load < t.images.len() && t.next_load - t.next_get < depth;
            let dev = t.device as u32;
            if want_load {
                let img = t.images[t.next_load];
                let j =
                    Duration::from_nanos(self.jitter.gen_range(0..=self.cfg.host_jitter.nanos()));
                let call_at = t.cursor + j;
                let returned =
                    self.api.load_tensor(h, call_at, numerics(img)).expect("load_tensor");
                if recording {
                    let ctx = obs.ctx(img);
                    obs.rec.record(Event::span(
                        Phase::UsbWrite,
                        Lane::Host { worker, dev },
                        call_at,
                        returned,
                        ctx,
                    ));
                    for s in self.api.fleet_mut().bus.take_tap() {
                        obs.rec.record(Event::span(
                            Phase::UsbWrite,
                            usb_lane(worker, s.hub),
                            s.start,
                            s.end,
                            ctx,
                        ));
                    }
                }
                t.cursor = returned;
                t.next_load += 1;
            } else {
                let img = t.images[t.next_get];
                let j =
                    Duration::from_nanos(self.jitter.gen_range(0..=self.cfg.host_jitter.nanos()));
                let call_at = t.cursor + j;
                let res = self.api.get_result(h, call_at).expect("get_result");
                if recording {
                    let ctx = obs.ctx(img);
                    obs.rec.record(Event::span(
                        Phase::UsbRead,
                        Lane::Host { worker, dev },
                        res.completion,
                        res.returned_at,
                        ctx,
                    ));
                    obs.rec.record(Event::span(
                        Phase::Exec,
                        Lane::Vpu { worker, dev },
                        res.run.start,
                        res.run.end,
                        ctx,
                    ));
                    for s in self.api.fleet_mut().bus.take_tap() {
                        obs.rec.record(Event::span(
                            Phase::UsbRead,
                            usb_lane(worker, s.hub),
                            s.start,
                            s.end,
                            ctx,
                        ));
                    }
                }
                energy += res.run.energy_j;
                result_times[img] = res.returned_at;
                outputs[img] = res.output;
                t.cursor = res.returned_at;
                t.next_get += 1;
            }
        }

        if recording {
            self.api.fleet_mut().bus.set_tap(false);
        }
        let end = *result_times.iter().max().unwrap();
        self.last_end = end;
        PipelineReport {
            images: count,
            devices: n,
            start,
            end,
            result_times,
            outputs,
            energy_j: energy,
            trace: TraceLog::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::googlenet::Variant;

    fn model() -> ModelBundle {
        // Timing-only tests: untrained full-geometry GoogLeNet.
        ModelBundle::googlenet_untrained(Variant::Full, 1)
    }

    #[test]
    fn single_vpu_matches_serial_latency() {
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(1), &model());
        let r = mv.run_pipeline(4);
        // Serial on one stick: ~100.7 ms per image.
        let per = r.per_image().as_millis();
        assert!((98.0..104.0).contains(&per), "1-VPU per-image {per} ms");
    }

    #[test]
    fn eight_vpus_reach_paper_throughput() {
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(8), &model());
        let r = mv.run_pipeline(64);
        let per = r.per_image().as_millis();
        // Paper: 12.9 ms per inference (77.2 img/s) at 8 sticks.
        assert!((12.0..14.2).contains(&per), "8-VPU per-image {per} ms");
        let ips = r.images_per_sec();
        assert!((70.0..84.0).contains(&ips), "8-VPU {ips} img/s");
    }

    #[test]
    fn scaling_is_near_ideal() {
        let m = model();
        let per_1 = {
            let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(1), &m);
            mv.run_pipeline(8).per_image().as_millis()
        };
        let per_8 = {
            let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(8), &m);
            mv.run_pipeline(64).per_image().as_millis()
        };
        let scaling = per_1 / per_8;
        // Paper: "close to 8x" with a small transfer/thread penalty.
        assert!((7.0..8.0).contains(&scaling), "scaling {scaling}");
    }

    #[test]
    fn results_arrive_in_round_robin_queue_order_per_device() {
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(4), &model());
        let r = mv.run_pipeline(16);
        // Image i and i+4 run on the same device; FIFO order holds.
        for d in 0..4 {
            let mut prev = SimTime::ZERO;
            for img in (d..16).step_by(4) {
                assert!(r.result_times[img] > prev, "device {d} out of order");
                prev = r.result_times[img];
            }
        }
    }

    #[test]
    fn trace_shows_overlap_between_devices() {
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(4), &model());
        let r = mv.run_pipeline(8);
        let lanes = r.trace.lanes();
        assert!(lanes.iter().filter(|l| l.starts_with("vpu")).count() == 4);
        // Execs on different devices must overlap in time.
        let v0 = r.trace.lane_spans("vpu0");
        let v3 = r.trace.lane_spans("vpu3");
        assert!(!v0.is_empty() && !v3.is_empty());
        assert!(
            v0[0].start < v3[0].end && v3[0].start < v0[0].end,
            "no overlap between vpu0 and vpu3 first execs"
        );
    }

    #[test]
    fn energy_accumulates_per_inference() {
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(2), &model());
        let r2 = mv.run_pipeline(2);
        let mut mv2 = MultiVpu::new(MultiVpuConfig::paper_testbed(2), &model());
        let r8 = mv2.run_pipeline(8);
        assert!(r8.energy_j > r2.energy_j * 3.0);
        // Per-inference energy ~0.07 J on the chip.
        let per = r8.energy_j / 8.0;
        assert!((0.02..0.15).contains(&per), "energy {per} J/inference");
    }

    #[test]
    fn numerics_ride_through_the_pipeline() {
        use vpu_tensor::Shape;
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(2), &model());
        let r = mv.run_pipeline_with(4, |i| {
            Some(Tensor::<f16>::full(Shape::vector(1, 4), f16::from_f32(i as f32)))
        });
        for (i, out) in r.outputs.iter().enumerate() {
            let out = out.as_ref().expect("output present");
            assert_eq!(out.as_slice()[0].to_f32(), i as f32);
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_emits_request_spans() {
        let m = model();
        let plain = MultiVpu::new(MultiVpuConfig::paper_testbed(4), &m).run_pipeline(8);
        let mut log = ncsw_obs::EventLog::new();
        let mut gantt = GanttRecorder::new();
        let ids: Vec<u64> = (100..108).collect();
        let mut tee = ncsw_obs::Tee { a: &mut gantt, b: &mut log };
        let mut obs = BatchObs { rec: &mut tee, batch_id: 7, worker: 1, ids: &ids };
        let observed = MultiVpu::new(MultiVpuConfig::paper_testbed(4), &m).run_pipeline_obs(
            8,
            SimTime::ZERO,
            |_| None,
            &mut obs,
        );
        assert_eq!(plain.result_times, observed.result_times, "instrumentation changed timing");
        assert!(observed.trace.is_empty(), "the serving path builds no Gantt");
        assert_eq!(plain.trace, gantt.into_log(), "legacy Fig. 4 trace must be preserved");
        // Every image gets a write/exec/read triple tagged with its id.
        for id in 100..108u64 {
            let evs = log.for_request(id);
            assert!(!evs.is_empty(), "no events for request {id}");
            for phase in [Phase::UsbWrite, Phase::Exec, Phase::UsbRead] {
                assert!(evs.iter().any(|e| e.phase == phase), "request {id} missing {phase:?}");
            }
        }
        // USB fabric occupancy surfaced: root always, hub at 4 sticks.
        assert!(log.events().iter().any(|e| matches!(e.lane, Lane::UsbRoot { .. })));
        assert!(log.events().iter().any(|e| matches!(e.lane, Lane::UsbHub { .. })));
        // Batch context propagates to every event.
        assert!(log.events().iter().all(|e| e.ctx.batch_id == Some(7) && e.ctx.worker == Some(1)));
    }

    #[test]
    fn back_to_back_batches_keep_the_pinned_jitter_stream() {
        // 64 serving-style batches on one pipeline draw the host-jitter
        // stream across batch boundaries; the fingerprint of every
        // result instant pins the draw order.
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(8), &model());
        let mut words = Vec::new();
        for b in 0..64u64 {
            let r = mv.run_pipeline_at(8, SimTime::ZERO + Duration::from_millis(50.0 * b as f64));
            words.extend(r.result_times.iter().map(|t| t.nanos()));
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(rng::fnv1a(&bytes), 0x0c41_013e_ece7_df54, "host-jitter draws moved");
    }

    #[test]
    fn jitter_makes_runs_differ_but_reruns_identical() {
        let m = model();
        let r1 = MultiVpu::new(MultiVpuConfig::paper_testbed(2), &m).run_pipeline(8);
        let r2 = MultiVpu::new(MultiVpuConfig::paper_testbed(2), &m).run_pipeline(8);
        assert_eq!(r1.result_times, r2.result_times, "same seed must reproduce");
        let mut cfg = MultiVpuConfig::paper_testbed(2);
        cfg.seed = 999;
        let r3 = MultiVpu::new(cfg, &m).run_pipeline(8);
        assert_ne!(r1.result_times, r3.result_times, "different seed must differ");
    }
}
