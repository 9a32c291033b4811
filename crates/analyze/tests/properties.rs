//! Property tests of the attribution math and the diff verdict laws,
//! over randomized synthetic event streams shaped like what the
//! serving loop emits (per-image device spans, host batch spans,
//! failover retries, sheds, fabric-tap mirrors).

use desim::SimTime;
use ncsw_analyze::{diff, Analysis, DiffConfig, Segment, Verdict};
use ncsw_obs::{Ctx, Event, EventLog, Lane, Phase, Recorder, ShedCause};
use proptest::prelude::*;

/// Randomized timing of one request; all fields are nanosecond deltas.
#[derive(Debug, Clone)]
struct ReqPlan {
    arrive: u64,
    formation: u64,
    /// One failed attempt before the successful one when set: adds a
    /// retry stall and a timed-out attempt's device spans to the log.
    retry_stall: Option<u64>,
    dispatch_gap: u64,
    write: u64,
    exec_wait: u64,
    exec: u64,
    read_wait: u64,
    read: u64,
    completion: u64,
    /// VPU-style per-image spans vs host-style batch exec.
    vpu: bool,
    shed: Option<ShedCause>,
}

/// Raw tuple shape the (shrink-free) strategy machinery can generate;
/// decoded into [`ReqPlan`] by [`plan_of`]. `retry` 0 = no failed
/// attempt; `shed_sel < 15` sheds with cause `shed_sel % 4`.
type RawPlan = ((u64, u64, u64), (u64, u64, u64, u64), (u64, u64, u64), (bool, u8));

fn raw_plan() -> impl Strategy<Value = RawPlan> {
    (
        (0u64..1_000_000, 0u64..500_000, 0u64..300_000),
        (0u64..10_000, 0u64..50_000, 0u64..20_000, 1u64..400_000),
        (0u64..20_000, 0u64..50_000, 0u64..10_000),
        (any::<bool>(), 0u8..100),
    )
}

fn plan_of(raw: &RawPlan) -> ReqPlan {
    let ((arrive, formation, retry), (dispatch_gap, write, exec_wait, exec), rest, flags) = *raw;
    let (read_wait, read, completion) = rest;
    let (vpu, shed_sel) = flags;
    ReqPlan {
        arrive,
        formation,
        retry_stall: if retry == 0 { None } else { Some(retry) },
        dispatch_gap,
        write,
        exec_wait,
        exec,
        read_wait,
        read,
        completion,
        vpu,
        shed: if shed_sel < 15 { Some(ShedCause::ALL[(shed_sel % 4) as usize]) } else { None },
    }
}

/// Emit one request's events the way the serving loop would.
fn emit(log: &mut EventLog, id: u64, p: &ReqPlan, batch_seq: &mut u64) {
    let r = Ctx::request(id);
    let t0 = SimTime(p.arrive);
    log.record(Event::instant(Phase::Arrive, Lane::Server, t0, r));
    if let Some(cause) = p.shed {
        log.record(Event::instant(Phase::Shed, Lane::Server, t0, r).with_cause(cause));
        return;
    }
    log.record(Event::instant(Phase::Admit, Lane::Server, t0, r));
    let close = t0 + desim::Duration(p.formation);
    let w = if p.vpu { 2u32 } else { 0u32 };
    // Optional failed first attempt: full device spans under an old
    // batch id that must NOT be attributed.
    let mut dispatch = close;
    if let Some(stall) = p.retry_stall {
        let bid = *batch_seq;
        *batch_seq += 1;
        let a = r.with_batch(bid).with_worker(w);
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, close, a));
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(w), close, a));
        log.record(Event::span(
            Phase::UsbWrite,
            Lane::Host { worker: w, dev: 0 },
            close,
            close + desim::Duration(p.write + 17),
            a,
        ));
        log.record(Event::instant(Phase::RetryAttempt, Lane::Server, close, a));
        dispatch = close + desim::Duration(stall);
    }
    let bid = *batch_seq;
    *batch_seq += 1;
    let a = r.with_batch(bid).with_worker(w);
    if p.retry_stall.is_none() {
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, close, a));
    }
    log.record(Event::instant(Phase::Dispatch, Lane::Worker(w), dispatch, a));
    let d = desim::Duration;
    let done = if p.vpu {
        let uw0 = dispatch + d(p.dispatch_gap);
        let uw1 = uw0 + d(p.write);
        let ex0 = uw1 + d(p.exec_wait);
        let ex1 = ex0 + d(p.exec);
        let ur0 = ex1 + d(p.read_wait);
        let ur1 = ur0 + d(p.read);
        log.record(Event::span(Phase::UsbWrite, Lane::Host { worker: w, dev: 0 }, uw0, uw1, a));
        // Fabric-tap mirror: same ctx, USB lane — must be ignored.
        log.record(Event::span(Phase::UsbWrite, Lane::UsbRoot { worker: w }, uw0, uw1, a));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: w, dev: 0 }, ex0, ex1, a));
        log.record(Event::span(Phase::UsbRead, Lane::Host { worker: w, dev: 0 }, ur0, ur1, a));
        ur1 + d(p.completion)
    } else {
        let ex0 = dispatch + d(p.dispatch_gap);
        let ex1 = ex0 + d(p.exec);
        log.record(Event::span(
            Phase::Exec,
            Lane::Worker(w),
            ex0,
            ex1,
            Ctx { request_id: None, batch_id: Some(bid), worker: Some(w) },
        ));
        ex1 + d(p.completion)
    };
    log.record(Event::instant(Phase::Complete, Lane::Server, done, a));
}

/// Raw shape of one arbitrary event: (kind, phase, lane, cause)
/// selectors, (start, dur) in ns, (which ctx fields are set, request,
/// batch, worker) and a counter reading; decoded by [`event_of`].
type RawEvent = ((u8, u8, u8, u8), (u64, u64), (u8, u64, u64, u32), u64);

/// Timestamps and durations reach 10^13 ns (about 2.8 virtual hours).
const MAX_NS: u64 = 10_000_000_000_000;

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        (0u8..3, 0u8..Phase::ALL.len() as u8, 0u8..9, 0u8..8),
        (0u64..=MAX_NS, 0u64..=MAX_NS),
        (0u8..8, 0u64..1 << 40, 0u64..1 << 40, 0u32..64),
        0u64..1 << 40,
    )
}

/// Kind 0 (and any `PowerSample`) is a counter, 1 an instant, 2 a span;
/// non-counters carry a shed cause half the time.
fn event_of(raw: &RawEvent) -> Event {
    let ((kind, phase, lane, cause), (start, dur), (set, request, batch, worker), mw) = *raw;
    let lane = [
        Lane::Server,
        Lane::Queue,
        Lane::Alerts,
        Lane::Worker(3),
        Lane::Host { worker: 1, dev: 2 },
        Lane::Vpu { worker: 2, dev: 7 },
        Lane::UsbRoot { worker: 2 },
        Lane::UsbHub { worker: 2, hub: 1 },
        Lane::Power(1),
    ][lane as usize];
    let ctx = Ctx {
        request_id: (set & 1 != 0).then_some(request),
        batch_id: (set & 2 != 0).then_some(batch),
        worker: (set & 4 != 0).then_some(worker),
    };
    let (phase, start) = (Phase::ALL[phase as usize], SimTime(start));
    if kind == 0 || phase == Phase::PowerSample {
        return Event::counter(lane, start, mw, ctx);
    }
    let ev = match kind {
        1 => Event::instant(phase, lane, start, ctx),
        _ => Event::span(phase, lane, start, SimTime(start.nanos() + dur), ctx),
    };
    match ShedCause::ALL.get(cause as usize) {
        Some(&c) => ev.with_cause(c),
        None => ev,
    }
}

fn log_of(events: impl IntoIterator<Item = Event>) -> EventLog {
    let mut log = EventLog::new();
    for ev in events {
        log.record(ev);
    }
    log
}

#[test]
fn chrome_round_trip_is_lossless_at_the_extremes() {
    let r = Ctx::request(u64::from(u32::MAX)).with_batch(1 << 40).with_worker(u32::MAX);
    let log = log_of([
        Event::instant(Phase::Arrive, Lane::Server, SimTime(0), Ctx::NONE),
        Event::span(Phase::Exec, Lane::Worker(0), SimTime(MAX_NS), SimTime(2 * MAX_NS), r),
        Event::span(Phase::Shed, Lane::Queue, SimTime(999), SimTime(1_000), r)
            .with_cause(ShedCause::RetriesExhausted),
        Event::counter(Lane::Power(0), SimTime(MAX_NS - 1), 1 << 52, Ctx::NONE),
    ]);
    let back = ncsw_analyze::parse_chrome_trace(&ncsw_obs::chrome_trace(&log)).unwrap();
    assert_eq!(back, log);
}

fn build_log(plans: &[ReqPlan]) -> EventLog {
    let mut log = EventLog::new();
    let mut batch_seq = 0u64;
    for (id, p) in plans.iter().enumerate() {
        emit(&mut log, id as u64, p, &mut batch_seq);
    }
    log
}

proptest! {
    /// Per-segment sums equal end-to-end latency EXACTLY for every
    /// completed request — no lost or double-counted time — and every
    /// segment is non-negative with the expected values.
    #[test]
    fn attribution_is_exact(raw in proptest::collection::vec(raw_plan(), 1..40)) {
        let plans: Vec<ReqPlan> = raw.iter().map(plan_of).collect();
        let log = build_log(&plans);
        let analysis = Analysis::of(&log);
        let completed = plans.iter().filter(|p| p.shed.is_none()).count();
        prop_assert_eq!(analysis.breakdowns.len(), completed);
        for b in &analysis.breakdowns {
            prop_assert!(b.exact(), "request {} lost time: {:?}", b.id, b);
            let p = &plans[b.id as usize];
            prop_assert_eq!(b.seg(Segment::Formation).nanos(), p.formation);
            prop_assert_eq!(
                b.seg(Segment::RetryStall).nanos(),
                p.retry_stall.unwrap_or(0)
            );
            prop_assert_eq!(b.seg(Segment::Exec).nanos(), p.exec);
            if p.vpu {
                prop_assert_eq!(b.seg(Segment::UsbWrite).nanos(), p.write);
                prop_assert_eq!(b.seg(Segment::UsbRead).nanos(), p.read);
            } else {
                prop_assert_eq!(b.seg(Segment::UsbWrite).nanos(), 0);
            }
            prop_assert_eq!(b.seg(Segment::Completion).nanos(), p.completion);
        }
        // The shed side holds its causes.
        let shed = plans.iter().filter(|p| p.shed.is_some()).count();
        prop_assert_eq!(analysis.shed.total(), shed);
        prop_assert_eq!(analysis.shed.unknown, 0);
    }

    /// `diff(a, a)` is all-neutral and never a regression.
    #[test]
    fn diff_with_self_is_neutral(raw in proptest::collection::vec(raw_plan(), 1..25)) {
        let plans: Vec<ReqPlan> = raw.iter().map(plan_of).collect();
        let a = Analysis::of(&build_log(&plans));
        let d = diff(&a, &a, &DiffConfig::default());
        prop_assert!(!d.regression);
        prop_assert_eq!(d.only_a, 0);
        prop_assert_eq!(d.only_b, 0);
        for m in d.metrics.iter().chain(&d.segments) {
            prop_assert_eq!(m.verdict, Verdict::Neutral, "{}", m.metric.clone());
            prop_assert_eq!(m.delta, 0.0);
        }
        prop_assert_eq!(d.per_request.regressed, 0);
        prop_assert_eq!(d.per_request.improved, 0);
        prop_assert_eq!(d.per_request.mean_delta_ms, 0.0);
    }

    /// `diff(a, b)` mirrors `diff(b, a)`: deltas negate and the
    /// verdicts swap Improved <-> Regressed.
    #[test]
    fn diff_is_symmetric(
        ra in proptest::collection::vec(raw_plan(), 1..25),
        rb in proptest::collection::vec(raw_plan(), 1..25),
    ) {
        let pa: Vec<ReqPlan> = ra.iter().map(plan_of).collect();
        let pb: Vec<ReqPlan> = rb.iter().map(plan_of).collect();
        let a = Analysis::of(&build_log(&pa));
        let b = Analysis::of(&build_log(&pb));
        let cfg = DiffConfig::default();
        let fwd = diff(&a, &b, &cfg);
        let rev = diff(&b, &a, &cfg);
        prop_assert_eq!(fwd.joined, rev.joined);
        prop_assert_eq!(fwd.only_a, rev.only_b);
        prop_assert_eq!(fwd.only_b, rev.only_a);
        let mirror = |v: Verdict| match v {
            Verdict::Improved => Verdict::Regressed,
            Verdict::Regressed => Verdict::Improved,
            Verdict::Neutral => Verdict::Neutral,
        };
        for (f, r) in fwd.metrics.iter().zip(&rev.metrics) {
            prop_assert_eq!(f.delta, -r.delta, "{}", f.metric.clone());
            prop_assert_eq!(f.verdict, mirror(r.verdict), "{}", f.metric.clone());
        }
        for (f, r) in fwd.segments.iter().zip(&rev.segments) {
            prop_assert_eq!(f.verdict, mirror(r.verdict), "{}", f.metric.clone());
        }
        prop_assert_eq!(fwd.per_request.improved, rev.per_request.regressed);
        prop_assert_eq!(fwd.per_request.regressed, rev.per_request.improved);
        prop_assert_eq!(fwd.per_request.neutral, rev.per_request.neutral);
        prop_assert_eq!(
            fwd.per_request.max_regression_ms,
            rev.per_request.max_improvement_ms
        );
    }

    /// Export → parse gives back the very event log: every phase, lane,
    /// counter reading, shed cause and context field, with timestamps
    /// and durations up to 10^13 ns.
    #[test]
    fn chrome_round_trip_is_lossless_on_the_event_log(
        raw in proptest::collection::vec(raw_event(), 1..60),
    ) {
        let log = log_of(raw.iter().map(event_of));
        let back = ncsw_analyze::parse_chrome_trace(&ncsw_obs::chrome_trace(&log));
        prop_assert_eq!(back, Ok(log));
    }

    /// Export → parse → analyze gives byte-identical attribution to
    /// analyzing the in-memory log directly.
    #[test]
    fn chrome_round_trip_preserves_the_analysis(
        raw in proptest::collection::vec(raw_plan(), 1..15),
    ) {
        let plans: Vec<ReqPlan> = raw.iter().map(plan_of).collect();
        let log = build_log(&plans);
        let direct = Analysis::of(&log);
        let parsed = Analysis::from_chrome(&ncsw_obs::chrome_trace(&log)).unwrap();
        prop_assert_eq!(direct.table, parsed.table);
        prop_assert_eq!(direct.e2e, parsed.e2e);
        prop_assert_eq!(direct.shed, parsed.shed);
        prop_assert_eq!(ncsw_analyze::folded(&direct), ncsw_analyze::folded(&parsed));
    }
}
