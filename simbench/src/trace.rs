//! Span tracing for the traced run: timing decorators around each
//! layer's public entry points, recorded by the benchmark itself.
//!
//! A span has a name, a host-time start and end, its parent span and,
//! for batch submissions, the dispatched batch id its siblings share. A
//! span's self time is its duration minus the time its direct children
//! cover. Spans stay in memory during the run and are written out as
//! TSV at the end.

use desim::{Duration, SimTime};
use ncsw::service::{BatchRun, ServeError, ServiceHook};
use ncsw_ctrl::{PrimeContext, ScaleDecision, ScaleSignals, ScalingPolicy};
use ncsw_obs::{BatchObs, EnergyProfile};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// How a batch submission ended, as seen at the wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Not a batch submission (estimates, policy calls, pipeline stages).
    None,
    Ok,
    /// Succeeded, but the wire report carries corrupted, duplicated or
    /// dropped slots.
    Wire,
    Err,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Dispatched batch id (shared by a batch's primary, hedge and
    /// nested wrapper spans).
    pub batch: Option<u64>,
    /// Images submitted (batch submissions only).
    pub images: u32,
    pub fate: Fate,
    /// Host time covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns() - self.child_ns
    }
}

/// In-memory span store with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, batch: Option<u64>, images: usize) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            batch,
            images: images as u32,
            fate: Fate::None,
            child_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32, fate: Fate) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.fate = fate;
        let (dur, parent) = (span.dur_ns(), span.parent);
        if let Some(p) = parent {
            self.spans[p as usize].child_ns += dur;
        }
    }

    /// Drop the recorded spans, keeping the time origin.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "cannot take spans while one is open");
        std::mem::take(&mut self.spans)
    }
}

/// Run `f` inside a span named `name`.
pub fn scoped<T>(tracer: &Shared, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tracer.borrow_mut().enter(name, None, 0);
    let out = f();
    tracer.borrow_mut().exit(id, Fate::None);
    out
}

/// Spans whose direct children cover more than their own duration
/// (impossible for properly nested timing; a non-empty result fails the
/// traced run).
pub fn overfull(spans: &[Span]) -> usize {
    spans.iter().filter(|s| s.child_ns > s.dur_ns()).count()
}

/// Write spans as TSV: `id name start_ns end_ns parent batch images fate`.
pub fn write_tsv(spans: &[Span], mut out: impl Write) -> io::Result<()> {
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tbatch\timages\tfate")?;
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{:?}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(u64::from)),
            opt(s.batch),
            s.images,
            s.fate
        )?;
    }
    out.flush()
}

/// The wrapped layer a [`TimedHook`] reports as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cpu,
    Gpu,
    /// The eight-stick `8xvpu` pipeline worker.
    Vpu8,
    /// One elastic single-stick worker.
    Vpu1,
    /// The `ncsw-faults` wrapper around a device.
    Faults,
}

impl Layer {
    pub const DEVICES: [Layer; 4] = [Layer::Cpu, Layer::Gpu, Layer::Vpu8, Layer::Vpu1];

    pub fn class(self) -> &'static str {
        match self {
            Layer::Cpu => "cpu",
            Layer::Gpu => "gpu",
            Layer::Vpu8 => "vpu8",
            Layer::Vpu1 => "vpu1",
            Layer::Faults => "faults",
        }
    }

    pub fn serve_span(self) -> &'static str {
        match self {
            Layer::Cpu => "device.cpu.serve",
            Layer::Gpu => "device.gpu.serve",
            Layer::Vpu8 => "device.vpu8.serve",
            Layer::Vpu1 => "device.vpu1.serve",
            Layer::Faults => "faults.serve",
        }
    }

    pub fn estimate_span(self) -> &'static str {
        match self {
            Layer::Cpu => "device.cpu.estimate",
            Layer::Gpu => "device.gpu.estimate",
            Layer::Vpu8 => "device.vpu8.estimate",
            Layer::Vpu1 => "device.vpu1.estimate",
            Layer::Faults => "faults.estimate",
        }
    }

    pub fn max_batch_span(self) -> &'static str {
        match self {
            Layer::Cpu => "device.cpu.max_batch",
            Layer::Gpu => "device.gpu.max_batch",
            Layer::Vpu8 => "device.vpu8.max_batch",
            Layer::Vpu1 => "device.vpu1.max_batch",
            Layer::Faults => "faults.max_batch",
        }
    }
}

/// Timing decorator over a [`ServiceHook`]. Every trait method is
/// forwarded explicitly: a method left to its default would run the
/// default body on the wrapper instead of the inner device's override
/// (the VPU's `serve_obs`, a fault wrapper's `try_serve_obs`), silently
/// changing what is simulated.
pub struct TimedHook {
    inner: Box<dyn ServiceHook>,
    layer: Layer,
    tracer: Shared,
}

impl TimedHook {
    pub fn wrap(
        inner: Box<dyn ServiceHook>,
        layer: Layer,
        tracer: &Shared,
    ) -> Box<dyn ServiceHook> {
        Box::new(TimedHook { inner, layer, tracer: Rc::clone(tracer) })
    }

    fn submit(
        &mut self,
        batch: usize,
        id: Option<u64>,
        f: impl FnOnce(&mut dyn ServiceHook) -> Result<BatchRun, ServeError>,
    ) -> Result<BatchRun, ServeError> {
        let span = self.tracer.borrow_mut().enter(self.layer.serve_span(), id, batch);
        let out = f(self.inner.as_mut());
        let fate = match &out {
            Ok(run) if run.wire.as_ref().is_some_and(|w| !w.is_clean()) => Fate::Wire,
            Ok(_) => Fate::Ok,
            Err(_) => Fate::Err,
        };
        self.tracer.borrow_mut().exit(span, fate);
        out
    }
}

impl ServiceHook for TimedHook {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun {
        self.submit(batch, None, |w| Ok(w.serve(batch, ready))).expect("serve is infallible")
    }

    fn estimate(&self, batch: usize) -> Duration {
        let span = self.tracer.borrow_mut().enter(self.layer.estimate_span(), None, 0);
        let d = self.inner.estimate(batch);
        self.tracer.borrow_mut().exit(span, Fate::None);
        d
    }

    fn busy_until(&self) -> SimTime {
        self.inner.busy_until()
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn max_batch(&self) -> Option<usize> {
        let span = self.tracer.borrow_mut().enter(self.layer.max_batch_span(), None, 0);
        let b = self.inner.max_batch();
        self.tracer.borrow_mut().exit(span, Fate::None);
        b
    }

    fn energy_profile(&self) -> EnergyProfile {
        self.inner.energy_profile()
    }

    fn serve_obs(&mut self, batch: usize, ready: SimTime, obs: &mut BatchObs<'_>) -> BatchRun {
        let id = obs.batch_id;
        self.submit(batch, Some(id), |w| Ok(w.serve_obs(batch, ready, obs)))
            .expect("serve_obs is infallible")
    }

    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError> {
        let id = obs.batch_id;
        self.submit(batch, Some(id), |w| w.try_serve_obs(batch, ready, obs))
    }
}

/// Timing decorator over a [`ScalingPolicy`]; forwards all three
/// methods explicitly (a defaulted `prime` would drop the inner
/// policy's foresight).
pub struct TimedPolicy {
    inner: Box<dyn ScalingPolicy>,
    tracer: Shared,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn ScalingPolicy>, tracer: &Shared) -> Box<dyn ScalingPolicy> {
        Box::new(TimedPolicy { inner, tracer: Rc::clone(tracer) })
    }
}

impl ScalingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prime(&mut self, arrivals: &[SimTime], ctx: &PrimeContext) {
        let span = self.tracer.borrow_mut().enter("ctrl.prime", None, 0);
        self.inner.prime(arrivals, ctx);
        self.tracer.borrow_mut().exit(span, Fate::None);
    }

    fn decide(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        let span = self.tracer.borrow_mut().enter("ctrl.decide", None, 0);
        let d = self.inner.decide(signals);
        self.tracer.borrow_mut().exit(span, Fate::None);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw::service::FailureKind;
    use ncsw_obs::NullRecorder;

    /// Overrides every method with a value the trait default would not
    /// give, so a wrapper that falls back to a default is caught.
    struct Distinct;

    fn run(ready: SimTime, extra: u64) -> BatchRun {
        let end = SimTime(ready.0 + extra);
        BatchRun { start: ready, end, done: vec![end], wire: None }
    }

    impl ServiceHook for Distinct {
        fn label(&self) -> String {
            "distinct".into()
        }
        fn serve(&mut self, _batch: usize, ready: SimTime) -> BatchRun {
            run(ready, 1)
        }
        fn estimate(&self, batch: usize) -> Duration {
            Duration::from_nanos(7 * batch as u64)
        }
        fn busy_until(&self) -> SimTime {
            SimTime(42)
        }
        fn preferred_batch(&self) -> usize {
            5
        }
        fn max_batch(&self) -> Option<usize> {
            Some(3)
        }
        fn energy_profile(&self) -> EnergyProfile {
            EnergyProfile::new("distinct", 1, 2, 3)
        }
        fn serve_obs(
            &mut self,
            _batch: usize,
            ready: SimTime,
            _obs: &mut BatchObs<'_>,
        ) -> BatchRun {
            run(ready, 2)
        }
        fn try_serve_obs(
            &mut self,
            _batch: usize,
            ready: SimTime,
            _obs: &mut BatchObs<'_>,
        ) -> Result<BatchRun, ServeError> {
            Err(ServeError { at: ready, kind: FailureKind::Timeout })
        }
    }

    #[test]
    fn timed_hook_forwards_every_method() {
        let t = Tracer::shared();
        let mut w = TimedHook::wrap(Box::new(Distinct), Layer::Cpu, &t);
        let mut null = NullRecorder;
        assert_eq!(w.label(), "distinct");
        assert_eq!(w.serve(1, SimTime(10)).end, SimTime(11));
        assert_eq!(w.estimate(2), Duration::from_nanos(14));
        assert_eq!(w.busy_until(), SimTime(42));
        assert_eq!(w.preferred_batch(), 5);
        assert_eq!(w.max_batch(), Some(3));
        assert_eq!(w.energy_profile(), EnergyProfile::new("distinct", 1, 2, 3));
        assert_eq!(
            w.serve_obs(1, SimTime(10), &mut BatchObs::disabled(&mut null)).end,
            SimTime(12)
        );
        let err = w.try_serve_obs(1, SimTime(10), &mut BatchObs::disabled(&mut null));
        assert_eq!(
            err.map(|r| r.end),
            Err(ServeError { at: SimTime(10), kind: FailureKind::Timeout })
        );
        let fates: Vec<Fate> = t.borrow_mut().take().iter().map(|s| s.fate).collect();
        assert_eq!(fates, [Fate::Ok, Fate::None, Fate::None, Fate::Ok, Fate::Err]);
    }

    #[test]
    fn self_time_excludes_direct_children_only() {
        let t = Tracer::shared();
        scoped(&t, "outer", || {
            scoped(&t, "mid", || scoped(&t, "leaf", || std::hint::black_box(1 + 1)));
        });
        let s = t.borrow_mut().take();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[0].child_ns, s[1].dur_ns());
        assert_eq!(s[1].child_ns, s[2].dur_ns());
        assert_eq!(overfull(&s), 0);
    }
}
