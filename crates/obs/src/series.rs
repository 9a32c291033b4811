//! Periodic time-series sampling on the virtual clock.
//!
//! End-of-run percentiles hide the shape of a run: a queue that spikes
//! and drains, a worker that saturates halfway through a burst. The
//! [`TimeSeriesBuilder`] is fed by the serving loop as it processes
//! events and emits one row per sampling interval: queue depth,
//! in-flight batches, cumulative completions/sheds, the SLO burn rate
//! over the window, and per-worker utilization since epoch.
//!
//! The series is stored by column: one `Vec` per scalar column plus
//! flat row-major per-worker columns, so emitting a row is a handful of
//! pushes and never allocates per row.

use crate::prof::WriteStats;
use desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;

/// A complete sampled series with its worker column labels, one `Vec`
/// per column. Row `i` of a per-worker column (`util`, `circuit`,
/// `power`) is the slice `[i * w .. (i + 1) * w]` for `w` workers; the
/// `*_row` accessors return it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    pub epoch: SimTime,
    pub interval: Duration,
    pub worker_labels: Vec<String>,
    /// True when the run carried an autoscaler: the CSV then appends
    /// `live_sticks,scale_events` columns. Controller-less runs keep
    /// the exact pre-autoscaling column set, byte for byte.
    pub scaling: bool,
    /// Sample boundary of each row.
    pub t: Vec<SimTime>,
    /// Requests waiting in the bounded queue.
    pub queue_depth: Vec<usize>,
    /// Batches dispatched but not yet fully returned.
    pub inflight_batches: Vec<usize>,
    /// Cumulative completions so far.
    pub completed: Vec<u64>,
    /// Cumulative shed requests so far.
    pub shed: Vec<u64>,
    /// Fraction of the window's completions that missed the SLO
    /// (error-budget burn rate; 0 when the window saw no completions).
    pub slo_burn: Vec<f64>,
    /// Fraction of the window's arrivals that were shed (0 when the
    /// window saw no arrivals).
    pub shed_rate: Vec<f64>,
    /// Per-worker busy fraction of the epoch→t interval.
    pub util: Vec<f64>,
    /// Per-worker circuit-breaker state as of the boundary: 0.0 closed,
    /// 1.0 open (matches the CircuitOpen/CircuitClose events).
    pub circuit: Vec<f64>,
    /// Per-worker average power draw in watts over epoch→t (busy spans
    /// at the busy rate, the rest gated/idle; zero until the builder is
    /// given power profiles).
    pub power: Vec<f64>,
    /// Cumulative fleet energy in joules since the epoch.
    pub energy_j: Vec<f64>,
    /// Cumulative completions per joule — numerically identical to
    /// img/s/W, the paper's Eq. 1 axis, but over *integrated* energy
    /// rather than nameplate TDP.
    pub img_per_watt: Vec<f64>,
    /// Workers currently dispatchable (not drained, not provisioning).
    /// Constant at the fleet size unless an autoscaler is attached.
    pub live_sticks: Vec<usize>,
    /// Cumulative autoscaling decisions applied so far.
    pub scale_events: Vec<u64>,
}

impl TimeSeries {
    /// An empty series (no rows) over `worker_labels`.
    fn empty(
        epoch: SimTime,
        interval: Duration,
        worker_labels: Vec<String>,
        scaling: bool,
    ) -> TimeSeries {
        TimeSeries {
            epoch,
            interval,
            worker_labels,
            scaling,
            t: Vec::new(),
            queue_depth: Vec::new(),
            inflight_batches: Vec::new(),
            completed: Vec::new(),
            shed: Vec::new(),
            slo_burn: Vec::new(),
            shed_rate: Vec::new(),
            util: Vec::new(),
            circuit: Vec::new(),
            power: Vec::new(),
            energy_j: Vec::new(),
            img_per_watt: Vec::new(),
            live_sticks: Vec::new(),
            scale_events: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    fn row<'a>(&self, col: &'a [f64], i: usize) -> &'a [f64] {
        let w = self.worker_labels.len();
        &col[i * w..(i + 1) * w]
    }

    /// Row `i` of the per-worker utilization column.
    pub fn util_row(&self, i: usize) -> &[f64] {
        self.row(&self.util, i)
    }

    /// Row `i` of the per-worker circuit column.
    pub fn circuit_row(&self, i: usize) -> &[f64] {
        self.row(&self.circuit, i)
    }

    /// Row `i` of the per-worker power column.
    pub fn power_row(&self, i: usize) -> &[f64] {
        self.row(&self.power, i)
    }

    /// CSV export: `time_ms,queue_depth,inflight_batches,completed,shed,
    /// slo_burn,shed_rate,util_<worker>...,circuit_<worker>...,
    /// power_<worker>...,energy_j,img_per_watt`, times relative to the
    /// epoch.
    ///
    /// Buffered convenience over [`TimeSeries::csv_to`]: the bytes come
    /// from the same streaming writer.
    pub fn csv(&self) -> String {
        let mut buf = Vec::new();
        self.csv_to(&mut buf).expect("Vec<u8> sink cannot fail");
        String::from_utf8(buf).expect("series CSV is ASCII")
    }

    /// Stream the CSV row-at-a-time into `sink` with bounded memory
    /// (one scratch row, reused). Byte-identical to [`TimeSeries::csv`].
    pub fn csv_to<W: io::Write>(&self, mut sink: W) -> io::Result<WriteStats> {
        let mut stats = WriteStats::default();
        let mut row = String::from("time_ms,queue_depth,inflight_batches,completed,shed,slo_burn");
        row.push_str(",shed_rate");
        for prefix in ["util", "circuit", "power"] {
            for label in &self.worker_labels {
                let _ = write!(row, ",{prefix}_{}", label.replace([' ', ','], "_"));
            }
        }
        row.push_str(",energy_j,img_per_watt");
        if self.scaling {
            row.push_str(",live_sticks,scale_events");
        }
        row.push('\n');
        stats.peak_buffered = stats.peak_buffered.max(row.len() as u64);
        sink.write_all(row.as_bytes())?;
        stats.bytes += row.len() as u64;
        for i in 0..self.len() {
            row.clear();
            let _ = write!(
                row,
                "{:.3},{},{},{},{},{:.6},{:.6}",
                (self.t[i] - self.epoch).as_millis(),
                self.queue_depth[i],
                self.inflight_batches[i],
                self.completed[i],
                self.shed[i],
                self.slo_burn[i],
                self.shed_rate[i]
            );
            for u in self.util_row(i) {
                let _ = write!(row, ",{u:.6}");
            }
            for c in self.circuit_row(i) {
                let _ = write!(row, ",{c:.1}");
            }
            for p in self.power_row(i) {
                let _ = write!(row, ",{p:.6}");
            }
            let _ = write!(row, ",{:.6},{:.6}", self.energy_j[i], self.img_per_watt[i]);
            if self.scaling {
                let _ = write!(row, ",{},{}", self.live_sticks[i], self.scale_events[i]);
            }
            row.push('\n');
            stats.peak_buffered = stats.peak_buffered.max(row.len() as u64);
            sink.write_all(row.as_bytes())?;
            stats.bytes += row.len() as u64;
        }
        sink.flush()?;
        Ok(stats)
    }

    /// Parse a CSV produced by [`TimeSeries::csv`] back into a series
    /// (epoch-relative, so the reconstructed epoch is `SimTime::ZERO`).
    /// Lets `repro analyze` derive burn-rate alerts from a series file
    /// without re-running the simulation.
    pub fn from_csv(csv: &str) -> Result<TimeSeries, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty CSV")?;
        let cols: Vec<&str> = header.split(',').collect();
        const FIXED: [&str; 7] = [
            "time_ms",
            "queue_depth",
            "inflight_batches",
            "completed",
            "shed",
            "slo_burn",
            "shed_rate",
        ];
        for (i, want) in FIXED.iter().enumerate() {
            match cols.get(i) {
                Some(got) if got == want => {}
                Some(got) => {
                    return Err(format!(
                        "header (line 1) column {}: {got:?}, expected {want:?}",
                        i + 1
                    ));
                }
                None => {
                    return Err(format!(
                        "header (line 1): only {} columns, column {} should be {want:?}",
                        cols.len(),
                        i + 1
                    ));
                }
            }
        }
        let labels: Vec<String> = cols
            .iter()
            .skip(FIXED.len())
            .take_while(|c| c.starts_with("util_"))
            .map(|c| c["util_".len()..].to_string())
            .collect();
        let w = labels.len();
        // Pre-energy CSVs stop after the circuit columns; current ones
        // add `power_<worker>...,energy_j,img_per_watt`, and autoscaled
        // runs append `live_sticks,scale_events`. Accept all three so
        // archived series files keep parsing (absent columns read as
        // zero).
        let old_shape = FIXED.len() + 2 * w;
        let new_shape = FIXED.len() + 3 * w + 2;
        let scaled_shape = new_shape + 2;
        let power_cols = |cols: &[&str]| {
            cols.get(old_shape..old_shape + w)
                .is_some_and(|s| s.iter().all(|c| c.starts_with("power_")))
        };
        let has_scaling = cols.len() == scaled_shape
            && power_cols(&cols)
            && cols[new_shape - 2..] == ["energy_j", "img_per_watt", "live_sticks", "scale_events"];
        let has_energy = has_scaling
            || (cols.len() == new_shape
                && power_cols(&cols)
                && cols[new_shape - 2..] == ["energy_j", "img_per_watt"]);
        let expect = if has_scaling {
            scaled_shape
        } else if has_energy {
            new_shape
        } else {
            old_shape
        };
        if cols.len() != expect {
            return Err(format!(
                "header (line 1): {} columns, expected {expect} for a {w}-worker series",
                cols.len(),
            ));
        }
        let mut ts = TimeSeries::empty(SimTime::ZERO, Duration::ZERO, labels, has_scaling);
        let mut f: Vec<&str> = Vec::with_capacity(expect);
        for (ln, line) in lines.enumerate() {
            // 1-based file line number: the header is line 1.
            let ln = ln + 2;
            f.clear();
            f.extend(line.split(','));
            if f.len() != expect {
                return Err(format!("line {ln}: {} fields, expected {expect}", f.len()));
            }
            let num = |i: usize| {
                f[i].parse::<f64>().map_err(|_| {
                    format!("line {ln} column {} ({}): {:?} is not a number", i + 1, cols[i], f[i])
                })
            };
            let int = |i: usize| {
                f[i].parse::<u64>().map_err(|_| {
                    format!(
                        "line {ln} column {} ({}): {:?} is not an integer",
                        i + 1,
                        cols[i],
                        f[i]
                    )
                })
            };
            ts.t.push(SimTime::ZERO + Duration::from_millis(num(0)?));
            ts.queue_depth.push(int(1)? as usize);
            ts.inflight_batches.push(int(2)? as usize);
            ts.completed.push(int(3)?);
            ts.shed.push(int(4)?);
            ts.slo_burn.push(num(5)?);
            ts.shed_rate.push(num(6)?);
            for i in FIXED.len()..FIXED.len() + w {
                ts.util.push(num(i)?);
            }
            for i in FIXED.len() + w..old_shape {
                ts.circuit.push(num(i)?);
            }
            for i in old_shape..old_shape + w {
                ts.power.push(if has_energy { num(i)? } else { 0.0 });
            }
            ts.energy_j.push(if has_energy { num(new_shape - 2)? } else { 0.0 });
            ts.img_per_watt.push(if has_energy { num(new_shape - 1)? } else { 0.0 });
            ts.live_sticks.push(if has_scaling { int(scaled_shape - 2)? as usize } else { 0 });
            ts.scale_events.push(if has_scaling { int(scaled_shape - 1)? } else { 0 });
        }
        let interval = match ts.t.as_slice() {
            [a, b, ..] => *b - *a,
            [a] => *a - SimTime::ZERO,
            [] => Duration::from_millis(1.0),
        };
        ts.interval = if interval > Duration::ZERO { interval } else { Duration::from_millis(1.0) };
        Ok(ts)
    }

    /// Fold another shard's series into this one, the time-series leg
    /// of the sharded-sweep reduction (counterpart of
    /// [`crate::Registry::merge`]). Both series must share the same
    /// epoch, interval, worker labels and scaling-ness — shards of one
    /// sweep cell do by construction.
    ///
    /// Column semantics per boundary:
    /// - fleet totals add: queue depth, in-flight batches, cumulative
    ///   completed/shed/scale events, energy, live sticks;
    /// - health ratios keep the worst shard: SLO burn, shed rate,
    ///   per-worker utilization/power/circuit (alerting on the merged
    ///   series can only under-state, never hide, a shard on fire);
    /// - `img_per_watt` is recomputed from merged completions/energy.
    ///
    /// If one shard ran longer, the shorter shard's final cumulative
    /// values carry through the tail.
    pub fn merge(&mut self, other: &TimeSeries) -> Result<(), String> {
        if self.epoch != other.epoch {
            return Err("series merge: mismatched epochs".to_string());
        }
        if self.interval != other.interval {
            return Err(format!(
                "series merge: interval {} ms vs {} ms",
                self.interval.as_millis(),
                other.interval.as_millis()
            ));
        }
        if self.worker_labels.len() != other.worker_labels.len() {
            return Err(format!(
                "series merge: {} worker labels, expected {}",
                other.worker_labels.len(),
                self.worker_labels.len()
            ));
        }
        if let Some((i, (want, got))) = self
            .worker_labels
            .iter()
            .zip(&other.worker_labels)
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            // Name the first offending column, `from_csv` style —
            // sixteen-shard fleets make whole-vector dumps unreadable.
            return Err(format!("series merge: worker label {i}: {got:?}, expected {want:?}"));
        }
        if self.scaling != other.scaling {
            return Err("series merge: one series has autoscaling columns".to_string());
        }
        // Extend self with the tail of a longer other; tail rows carry
        // self's cumulative columns only.
        let w = self.worker_labels.len();
        while self.len() < other.len() {
            let last = self.len().checked_sub(1);
            let carry = |col: &[u64]| last.map_or(0, |l| col[l]);
            self.t.push(other.t[self.len()]);
            self.queue_depth.push(0);
            self.inflight_batches.push(0);
            self.completed.push(carry(&self.completed));
            self.shed.push(carry(&self.shed));
            self.slo_burn.push(0.0);
            self.shed_rate.push(0.0);
            self.util.extend(std::iter::repeat_n(0.0, w));
            self.circuit.extend(std::iter::repeat_n(0.0, w));
            self.power.extend(std::iter::repeat_n(0.0, w));
            self.energy_j.push(last.map_or(0.0, |l| self.energy_j[l]));
            self.img_per_watt.push(0.0);
            self.live_sticks.push(0);
            self.scale_events.push(carry(&self.scale_events));
        }
        for i in 0..self.len() {
            // Past other's end, its final cumulative values carry on.
            let live = i < other.len();
            let Some(o) = (if live { Some(i) } else { other.len().checked_sub(1) }) else {
                continue;
            };
            if live {
                self.queue_depth[i] += other.queue_depth[o];
                self.inflight_batches[i] += other.inflight_batches[o];
                self.slo_burn[i] = self.slo_burn[i].max(other.slo_burn[o]);
                self.shed_rate[i] = self.shed_rate[i].max(other.shed_rate[o]);
                let rows = i * w..(i + 1) * w;
                for (mine, theirs) in [
                    (&mut self.util, &other.util),
                    (&mut self.circuit, &other.circuit),
                    (&mut self.power, &other.power),
                ] {
                    for (a, b) in mine[rows.clone()].iter_mut().zip(&theirs[rows.clone()]) {
                        *a = a.max(*b);
                    }
                }
                self.live_sticks[i] += other.live_sticks[o];
            }
            self.completed[i] += other.completed[o];
            self.shed[i] += other.shed[o];
            self.energy_j[i] += other.energy_j[o];
            self.scale_events[i] += other.scale_events[o];
            self.img_per_watt[i] = if self.energy_j[i] > 0.0 {
                self.completed[i] as f64 / self.energy_j[i]
            } else {
                0.0
            };
        }
        Ok(())
    }
}

/// Per-worker state of the [`TimeSeriesBuilder`].
#[derive(Debug)]
struct WorkerState {
    /// Service spans not yet fully behind the last boundary, in
    /// dispatch order (each worker self-serializes, so spans are
    /// non-overlapping and time-ordered), and the busy time of the
    /// spans already consumed.
    spans: VecDeque<(SimTime, SimTime)>,
    busy: Duration,
    /// The same for *charged* busy spans (clipped, so disjoint and
    /// time-ordered) — unlike `spans`, these include failed attempts,
    /// whose energy is real even though they serve nothing.
    espans: VecDeque<(SimTime, SimTime)>,
    ebusy: Duration,
    /// `(busy_mw, idle_mw)` power rates; zero until
    /// [`TimeSeriesBuilder::set_power`] is called.
    rates: (u64, u64),
    /// Powered state, the instant it last changed, and the powered
    /// nanoseconds accumulated before that instant — drives the energy
    /// columns for workers that are dark for part of the run.
    powered: bool,
    pmark: SimTime,
    pconsumed: u64,
    /// Circuit state (0.0 closed, 1.0 open).
    circuit: f64,
}

/// Busy time over `epoch..s` of a time-ordered span ledger: spans
/// ending by `s` are folded into `busy` and dropped, and the span
/// straddling `s` (if any) adds partial credit. Returns the total and
/// the start of the first span still open.
fn busy_through(
    spans: &mut VecDeque<(SimTime, SimTime)>,
    busy: &mut Duration,
    s: SimTime,
) -> (Duration, Option<SimTime>) {
    while let Some(&(start, end)) = spans.front() {
        if end > s {
            break;
        }
        *busy += end - start;
        spans.pop_front();
    }
    let open = spans.front().map(|&(start, _)| start);
    let partial = open.filter(|&start| start < s).map_or(Duration::ZERO, |start| s - start);
    (*busy + partial, open)
}

/// Buffered future transitions, kept ordered by instant on insert;
/// same-instant transitions keep their insertion order.
#[derive(Debug)]
struct Pending<T>(VecDeque<(SimTime, T)>);

impl<T: Copy> Pending<T> {
    fn new() -> Self {
        Pending(VecDeque::new())
    }

    fn insert(&mut self, at: SimTime, v: T) {
        let i = self.0.partition_point(|&(t, _)| t <= at);
        self.0.insert(i, (at, v));
    }

    /// The next transition at or before `s`, removed.
    fn pop_due(&mut self, s: SimTime) -> Option<(SimTime, T)> {
        let &(at, v) = self.0.front().filter(|&&(at, _)| at <= s)?;
        self.0.pop_front();
        Some((at, v))
    }
}

/// Incremental builder the serving loop drives. `advance` must be
/// called with non-decreasing instants (the loop's event times); each
/// crossing of a sample boundary emits a row using the state as of
/// that boundary. Memory is the rows plus what is still in flight: a
/// span is dropped once a boundary passes its end.
#[derive(Debug)]
pub struct TimeSeriesBuilder {
    slo: Duration,
    next: SimTime,
    workers: Vec<WorkerState>,
    completed: u64,
    shed: u64,
    win_done: u64,
    win_miss: u64,
    win_arrived: u64,
    win_shed: u64,
    /// Future circuit transitions `(at, (worker, state))` — failure
    /// detection lands after the loop instant that dispatched the
    /// batch, so transitions are buffered and applied in time order as
    /// sample boundaries pass them (mirrors completion buffering in the
    /// serving loop).
    circuit_pending: Pending<(usize, f64)>,
    /// Future power transitions `(at, (worker, powered))` — a drain's
    /// power-off lands when its in-flight batches finish.
    power_pending: Pending<(usize, bool)>,
    /// `Some` once an autoscaler attached: current live-worker count
    /// and cumulative decisions, with buffered future transitions
    /// `(at, (live_delta, decision_delta))` — a scale-up's live
    /// increment lands at the end of its provisioning delay, past the
    /// tick that decided it.
    scaling: Option<ScalingCols>,
    ts: TimeSeries,
}

#[derive(Debug)]
struct ScalingCols {
    live: usize,
    events: u64,
    pending: Pending<(i64, u64)>,
}

impl TimeSeriesBuilder {
    pub fn new(labels: Vec<String>, epoch: SimTime, interval: Duration, slo: Duration) -> Self {
        assert!(interval > Duration::ZERO, "sampling interval must be positive");
        let workers = labels
            .iter()
            .map(|_| WorkerState {
                spans: VecDeque::new(),
                busy: Duration::ZERO,
                espans: VecDeque::new(),
                ebusy: Duration::ZERO,
                rates: (0, 0),
                powered: true,
                pmark: epoch,
                pconsumed: 0,
                circuit: 0.0,
            })
            .collect();
        TimeSeriesBuilder {
            slo,
            next: epoch + interval,
            workers,
            completed: 0,
            shed: 0,
            win_done: 0,
            win_miss: 0,
            win_arrived: 0,
            win_shed: 0,
            circuit_pending: Pending::new(),
            power_pending: Pending::new(),
            scaling: None,
            ts: TimeSeries::empty(epoch, interval, labels, false),
        }
    }

    /// Attach autoscaling columns: samples carry `live_sticks` (from
    /// `initial_live`) and cumulative `scale_events`. Without this call
    /// the series keeps the exact pre-autoscaling CSV shape.
    pub fn enable_scaling(&mut self, initial_live: usize) {
        self.scaling = Some(ScalingCols { live: initial_live, events: 0, pending: Pending::new() });
        self.ts.scaling = true;
    }

    /// An autoscaling transition: at `at`, the live-worker count moves
    /// by `live_delta` and the cumulative decision count by
    /// `decisions`. Buffered and applied in time order at sample
    /// boundaries, like circuit transitions.
    pub fn scale_event(&mut self, at: SimTime, live_delta: i64, decisions: u64) {
        if let Some(sc) = self.scaling.as_mut() {
            sc.pending.insert(at, (live_delta, decisions));
        }
    }

    /// Worker `worker` powered off (`false`) or back on (`true`) at
    /// `at`: from that instant its energy column integrates zero draw
    /// (respectively its idle/busy rates again).
    pub fn power_event(&mut self, worker: usize, at: SimTime, powered: bool) {
        self.power_pending.insert(at, (worker, powered));
    }

    /// A batch was dispatched to `worker`, occupying it over
    /// `start..end`. Each worker's spans must be time-ordered and
    /// non-overlapping.
    pub fn on_batch(&mut self, worker: usize, start: SimTime, end: SimTime) {
        self.workers[worker].spans.push_back((start, end));
    }

    /// Provide per-worker `(busy_mw, idle_mw)` rates so samples carry
    /// power/energy columns (zero otherwise).
    pub fn set_power(&mut self, rates: Vec<(u64, u64)>) {
        assert_eq!(rates.len(), self.workers.len(), "one power rate per worker");
        for (w, r) in self.workers.iter_mut().zip(rates) {
            w.rates = r;
        }
    }

    /// Energy was charged to `worker` over `start..end` (an already
    /// clipped meter span — includes failed attempts, which don't count
    /// toward utilization but do burn joules).
    pub fn on_energy_span(&mut self, worker: usize, start: SimTime, end: SimTime) {
        self.workers[worker].espans.push_back((start, end));
    }

    /// A request completed with end-to-end `latency`.
    pub fn on_complete(&mut self, latency: Duration) {
        self.completed += 1;
        self.win_done += 1;
        if latency > self.slo {
            self.win_miss += 1;
        }
    }

    /// A request arrived (drives the windowed shed-rate denominator).
    pub fn on_arrival(&mut self) {
        self.win_arrived += 1;
    }

    /// A request was shed.
    pub fn on_shed(&mut self) {
        self.shed += 1;
        self.win_shed += 1;
    }

    /// Worker `worker`'s circuit breaker transitioned to `state` (1.0
    /// open, 0.0 closed) at instant `at`, which may lie beyond the
    /// loop's current time — applied when a sample boundary passes it.
    pub fn circuit_event(&mut self, worker: usize, state: f64, at: SimTime) {
        self.circuit_pending.insert(at, (worker, state));
    }

    /// Emit any samples whose boundary falls at or before `now`, using
    /// `queue_depth` as the queue state (constant between loop events).
    pub fn advance(&mut self, now: SimTime, queue_depth: usize) {
        while self.next <= now {
            let s = self.next;
            self.next += self.ts.interval;
            self.emit(s, queue_depth);
        }
    }

    fn emit(&mut self, s: SimTime, queue_depth: usize) {
        // Row emission runs once per sampling interval whether or not
        // anything happened, so on long sparse horizons it is a visible
        // share of an observed run; `--prof` names it.
        let _prof = crate::prof::scope("series.emit");
        // Apply the transitions up to this boundary in time order.
        while let Some((_, (w, state))) = self.circuit_pending.pop_due(s) {
            self.workers[w].circuit = state;
        }
        // Power transitions accumulate each worker's powered time
        // piecewise.
        while let Some((at, (w, powered))) = self.power_pending.pop_due(s) {
            let ws = &mut self.workers[w];
            if ws.powered {
                ws.pconsumed += (at - ws.pmark).nanos();
            }
            ws.pmark = at;
            ws.powered = powered;
        }
        if let Some(sc) = self.scaling.as_mut() {
            while let Some((_, (live_delta, decisions))) = sc.pending.pop_due(s) {
                sc.live = (sc.live as i64 + live_delta).max(0) as usize;
                sc.events += decisions;
            }
        }
        let ts = &mut self.ts;
        let horizon = (s - ts.epoch).as_secs();
        // Energy: integrate each worker's charged-span ledger to this
        // boundary (integer pJ = mW × ns, same discipline as the
        // EnergyMeter, so the last row agrees with the meter exactly).
        let elapsed_ns = (s - ts.epoch).nanos();
        let mut fleet_pj = 0u64;
        let mut inflight = 0;
        for ws in &mut self.workers {
            let (busy, open) = busy_through(&mut ws.spans, &mut ws.busy, s);
            // Spans on one worker never overlap, so at most the first
            // open span can have started: that is the worker's batch
            // in flight at the boundary.
            inflight += usize::from(open.is_some_and(|start| start <= s));
            ts.util.push(if horizon <= 0.0 { 0.0 } else { busy.as_secs() / horizon });
            let (ebusy, _) = busy_through(&mut ws.espans, &mut ws.ebusy, s);
            let busy_ns = ebusy.nanos().min(elapsed_ns);
            let (busy_mw, idle_mw) = ws.rates;
            // Idle draw accrues only over powered time: a gated
            // worker's lane is dark, exactly as in the EnergyMeter.
            let powered_ns = ws.pconsumed + if ws.powered { (s - ws.pmark).nanos() } else { 0 };
            let pj = busy_mw * busy_ns + idle_mw * (powered_ns.saturating_sub(busy_ns));
            fleet_pj += pj;
            ts.power.push(if elapsed_ns == 0 { 0.0 } else { pj as f64 / elapsed_ns as f64 / 1e3 });
            ts.circuit.push(ws.circuit);
        }
        let energy_j = fleet_pj as f64 / 1e12;
        let burn =
            if self.win_done == 0 { 0.0 } else { self.win_miss as f64 / self.win_done as f64 };
        let shed_rate = if self.win_arrived == 0 {
            0.0
        } else {
            self.win_shed as f64 / self.win_arrived as f64
        };
        self.win_done = 0;
        self.win_miss = 0;
        self.win_arrived = 0;
        self.win_shed = 0;
        ts.t.push(s);
        ts.queue_depth.push(queue_depth);
        ts.inflight_batches.push(inflight);
        ts.completed.push(self.completed);
        ts.shed.push(self.shed);
        ts.slo_burn.push(burn);
        ts.shed_rate.push(shed_rate);
        ts.energy_j.push(energy_j);
        ts.img_per_watt.push(if energy_j > 0.0 { self.completed as f64 / energy_j } else { 0.0 });
        ts.live_sticks.push(self.scaling.as_ref().map_or(self.workers.len(), |sc| sc.live));
        ts.scale_events.push(self.scaling.as_ref().map_or(0, |sc| sc.events));
    }

    /// Sample through `end` and return the finished series.
    pub fn finish(mut self, end: SimTime, queue_depth: usize) -> TimeSeries {
        self.advance(end, queue_depth);
        self.ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: f64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn samples_fall_on_interval_boundaries() {
        let mut b = TimeSeriesBuilder::new(vec!["cpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.advance(at(35.0), 2);
        let ts = b.finish(at(50.0), 0);
        let times: Vec<f64> = ts.t.iter().map(|t| t.as_millis()).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(ts.queue_depth[0], 2);
        assert_eq!(ts.queue_depth[4], 0);
    }

    #[test]
    fn utilization_counts_busy_time_up_to_the_boundary() {
        let mut b = TimeSeriesBuilder::new(vec!["w".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        // Busy 0..15 ms: util at 10 ms = 1.0, at 20 ms = 0.75.
        b.on_batch(0, at(0.0), at(15.0));
        let ts = b.finish(at(20.0), 0);
        assert!((ts.util_row(0)[0] - 1.0).abs() < 1e-9);
        assert!((ts.util_row(1)[0] - 0.75).abs() < 1e-9);
        assert_eq!(ts.inflight_batches[0], 1);
        assert_eq!(ts.inflight_batches[1], 0);
    }

    #[test]
    fn burn_rate_is_windowed() {
        let mut b = TimeSeriesBuilder::new(vec![], SimTime::ZERO, ms(10.0), ms(5.0));
        b.on_complete(ms(2.0)); // within SLO
        b.on_complete(ms(9.0)); // miss
        b.advance(at(10.0), 0);
        b.on_complete(ms(9.0)); // miss, second window
        let ts = b.finish(at(20.0), 0);
        assert!((ts.slo_burn[0] - 0.5).abs() < 1e-9);
        assert!((ts.slo_burn[1] - 1.0).abs() < 1e-9);
        assert_eq!(ts.completed[1], 3);
    }

    #[test]
    fn csv_has_stable_header_and_rows() {
        let mut b =
            TimeSeriesBuilder::new(vec!["vpu x8".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.on_batch(0, at(0.0), at(4.0));
        let ts = b.finish(at(10.0), 3);
        let csv = ts.csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_ms,queue_depth,inflight_batches,completed,shed,slo_burn,shed_rate,\
             util_vpu_x8,circuit_vpu_x8,power_vpu_x8,energy_j,img_per_watt"
        );
        assert_eq!(
            lines.next().unwrap(),
            "10.000,3,0,0,0,0.000000,0.000000,0.400000,0.0,0.000000,0.000000,0.000000"
        );
    }

    #[test]
    fn power_columns_integrate_charged_spans() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.set_power(vec![(900, 172)]);
        // Charged 0..5 ms, gated 5..10 ms.
        b.on_energy_span(0, at(0.0), at(5.0));
        let ts = b.finish(at(10.0), 0);
        // Average power: (900 mW × 5 ms + 172 mW × 5 ms) / 10 ms = 536 mW.
        assert!((ts.power_row(0)[0] - 0.536).abs() < 1e-12, "{}", ts.power_row(0)[0]);
        let want_j = (900u64 * 5_000_000 + 172 * 5_000_000) as f64 / 1e12;
        assert!((ts.energy_j[0] - want_j).abs() < 1e-15, "{}", ts.energy_j[0]);
        // No completions yet, so img/W stays zero rather than NaN.
        assert_eq!(ts.img_per_watt[0], 0.0);
        // Utilization is untouched by energy-only spans.
        assert_eq!(ts.util_row(0)[0], 0.0);
    }

    #[test]
    fn shed_rate_is_windowed_over_arrivals() {
        let mut b = TimeSeriesBuilder::new(vec![], SimTime::ZERO, ms(10.0), ms(100.0));
        for _ in 0..4 {
            b.on_arrival();
        }
        b.on_shed();
        b.advance(at(10.0), 0);
        b.on_arrival();
        let ts = b.finish(at(20.0), 0);
        assert!((ts.shed_rate[0] - 0.25).abs() < 1e-9);
        assert_eq!(ts.shed_rate[1], 0.0, "window resets");
        assert_eq!(ts.shed[1], 1, "cumulative column unaffected");
    }

    #[test]
    fn circuit_transitions_apply_at_their_own_instant() {
        let mut b = TimeSeriesBuilder::new(
            vec!["a".into(), "b".into()],
            SimTime::ZERO,
            ms(10.0),
            ms(100.0),
        );
        // Buffered out of order; each must land in its own sample.
        b.circuit_event(1, 1.0, at(25.0));
        b.circuit_event(0, 1.0, at(5.0));
        b.circuit_event(0, 0.0, at(15.0));
        let ts = b.finish(at(30.0), 0);
        assert_eq!(ts.circuit_row(0), vec![1.0, 0.0]); // t=10
        assert_eq!(ts.circuit_row(1), vec![0.0, 0.0]); // t=20
        assert_eq!(ts.circuit_row(2), vec![0.0, 1.0]); // t=30
    }

    #[test]
    fn csv_round_trips_through_from_csv() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(5.0));
        b.set_power(vec![(900, 172)]);
        b.on_batch(0, at(0.0), at(4.0));
        b.on_energy_span(0, at(0.0), at(4.0));
        b.on_arrival();
        b.on_complete(ms(9.0));
        b.circuit_event(0, 1.0, at(12.0));
        let ts = b.finish(at(20.0), 2);
        let csv = ts.csv();
        let back = TimeSeries::from_csv(&csv).expect("own CSV must parse");
        assert_eq!(back.worker_labels, ts.worker_labels);
        assert_eq!(back.len(), ts.len());
        assert_eq!(back.interval, ts.interval);
        for i in 0..ts.len() {
            assert_eq!(back.t[i], ts.t[i]);
            assert_eq!(back.completed[i], ts.completed[i]);
            assert!((back.slo_burn[i] - ts.slo_burn[i]).abs() < 1e-6);
            assert_eq!(back.circuit_row(i), ts.circuit_row(i));
            assert!((back.power_row(i)[0] - ts.power_row(i)[0]).abs() < 1e-6);
            assert!((back.energy_j[i] - ts.energy_j[i]).abs() < 1e-6);
            let ipw = ts.img_per_watt[i];
            assert!((back.img_per_watt[i] - ipw).abs() < 1e-3 * (1.0 + ipw));
        }
        assert!(back.energy_j.iter().any(|&e| e > 0.0), "energy column survived");
        assert!(TimeSeries::from_csv("nope\n1,2").is_err());
    }

    #[test]
    fn scaling_columns_appear_only_when_enabled_and_round_trip() {
        // Without an autoscaler the header is byte-identical to the
        // pre-autoscaling shape.
        let b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        let ts = b.finish(at(10.0), 0);
        assert!(ts.csv().lines().next().unwrap().ends_with(",energy_j,img_per_watt"));

        let mut b = TimeSeriesBuilder::new(
            vec!["a".into(), "b".into(), "c".into()],
            SimTime::ZERO,
            ms(10.0),
            ms(100.0),
        );
        b.enable_scaling(3);
        // Drain c at 5 ms (decision + live drop), power it back with a
        // provisioning delay ending at 25 ms (decision at 12 ms).
        b.scale_event(at(5.0), -1, 1);
        b.scale_event(at(12.0), 0, 1);
        b.scale_event(at(25.0), 1, 0);
        let ts = b.finish(at(30.0), 0);
        let header = ts.csv().lines().next().unwrap().to_string();
        assert!(header.ends_with(",energy_j,img_per_watt,live_sticks,scale_events"));
        assert_eq!(ts.live_sticks, vec![2, 2, 3]);
        assert_eq!(ts.scale_events, vec![1, 2, 2]);

        let back = TimeSeries::from_csv(&ts.csv()).expect("scaled CSV must parse");
        assert!(back.scaling);
        assert_eq!((&back.live_sticks, &back.scale_events), (&ts.live_sticks, &ts.scale_events));
        assert_eq!(back.csv(), ts.csv(), "scaled CSV round-trips byte-identically");
    }

    #[test]
    fn energy_column_goes_dark_while_a_worker_is_gated() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.set_power(vec![(900, 172)]);
        // Powered idle 0..5 ms, gated 5..10 ms: only 5 ms of idle draw.
        b.power_event(0, at(5.0), false);
        let ts = b.finish(at(10.0), 0);
        let want_j = (172u64 * 5_000_000) as f64 / 1e12;
        assert!((ts.energy_j[0] - want_j).abs() < 1e-15, "{}", ts.energy_j[0]);
        // Power back on at 12 ms: the second window adds idle draw again.
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.set_power(vec![(900, 172)]);
        b.power_event(0, at(5.0), false);
        b.power_event(0, at(12.0), true);
        let ts = b.finish(at(20.0), 0);
        let want_j = (172u64 * (5_000_000 + 8_000_000)) as f64 / 1e12;
        assert!((ts.energy_j[1] - want_j).abs() < 1e-15, "{}", ts.energy_j[1]);
    }

    #[test]
    fn csv_to_streams_byte_identically_with_bounded_buffer() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(5.0));
        b.set_power(vec![(900, 172)]);
        b.on_batch(0, at(0.0), at(4.0));
        b.on_energy_span(0, at(0.0), at(4.0));
        b.on_arrival();
        b.on_complete(ms(9.0));
        let ts = b.finish(at(50.0), 2);
        let buffered = ts.csv();
        let mut sink = Vec::new();
        let stats = ts.csv_to(&mut sink).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), buffered);
        assert_eq!(stats.bytes, buffered.len() as u64);
        assert!(stats.peak_buffered > 0);
        assert!(
            stats.peak_buffered < buffered.len() as u64,
            "scratch buffer must stay below the whole document: {} vs {}",
            stats.peak_buffered,
            buffered.len()
        );
    }

    #[test]
    fn from_csv_errors_name_the_line_and_column() {
        // Wrong header column name.
        let err = TimeSeries::from_csv("time_ms,queue_depth,oops\n").unwrap_err();
        assert!(err.contains("header (line 1)") && err.contains("\"oops\""), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err}");
        // Truncated header.
        let err = TimeSeries::from_csv("time_ms,queue_depth\n").unwrap_err();
        assert!(err.contains("only 2 columns"), "{err}");
        // Header whose column count matches no known shape.
        let err = TimeSeries::from_csv(
            "time_ms,queue_depth,inflight_batches,completed,shed,slo_burn,shed_rate,util_v\n",
        )
        .unwrap_err();
        assert!(err.contains("expected 9 for a 1-worker series"), "{err}");
        // A row with the wrong field count names its 1-based line.
        let good_header = "time_ms,queue_depth,inflight_batches,completed,shed,slo_burn,\
                           shed_rate,util_v,circuit_v\n";
        let err = TimeSeries::from_csv(&format!("{good_header}1,2,3\n")).unwrap_err();
        assert!(err.contains("line 2: 3 fields, expected 9"), "{err}");
        // A non-numeric cell names line, column number and header name.
        let err = TimeSeries::from_csv(&format!(
            "{good_header}0.0,1,0,2,0,0.0,0.0,0.1,0.0\n0.0,1,0,xyz,0,0.0,0.0,0.1,0.0\n"
        ))
        .unwrap_err();
        assert!(err.contains("line 3 column 4 (completed)"), "{err}");
        assert!(err.contains("\"xyz\" is not an integer"), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err}");
    }

    #[test]
    fn merge_adds_totals_and_keeps_worst_shard_health() {
        let mk = |busy_ms: f64, miss: bool| {
            let mut b =
                TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(5.0));
            b.set_power(vec![(900, 172)]);
            b.on_batch(0, at(0.0), at(busy_ms));
            b.on_energy_span(0, at(0.0), at(busy_ms));
            b.on_arrival();
            b.on_complete(if miss { ms(9.0) } else { ms(1.0) });
            b.finish(at(20.0), 1)
        };
        let mut a = mk(4.0, true);
        let b = mk(8.0, false);
        let (burn_a, util_b) = (a.slo_burn[0], b.util_row(0)[0]);
        let energy_want = a.energy_j[1] + b.energy_j[1];
        a.merge(&b).expect("same-shape merge");
        assert_eq!(a.completed[0], 2, "completions add");
        assert_eq!(a.queue_depth[0], 2, "queue depths add");
        assert_eq!(a.slo_burn[0], burn_a, "burn keeps the worst shard");
        assert_eq!(a.util_row(0)[0], util_b, "util keeps the busiest shard");
        assert!((a.energy_j[1] - energy_want).abs() < 1e-15, "energy adds");
        let ipw = a.completed[1] as f64 / a.energy_j[1];
        assert!((a.img_per_watt[1] - ipw).abs() < 1e-9, "img/W recomputed");
        // The merged series still exports and re-parses.
        let back = TimeSeries::from_csv(&a.csv()).expect("merged CSV parses");
        assert_eq!(back.len(), a.len());
    }

    #[test]
    fn merge_handles_unequal_lengths_and_rejects_mismatched_shapes() {
        let mk = |end_ms: f64| {
            let mut b =
                TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(5.0));
            b.on_arrival();
            b.on_complete(ms(1.0));
            b.finish(at(end_ms), 0)
        };
        // Longer other: self grows a tail carrying its own finals.
        let mut a = mk(10.0);
        let b = mk(30.0);
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.completed[2], 2, "both shards' finals in the tail");
        // Shorter other: its final cumulative values carry through.
        let mut c = mk(30.0);
        c.merge(&mk(10.0)).unwrap();
        assert_eq!(c.completed[2], 2);
        assert_eq!(c.queue_depth[2], 0, "instantaneous columns don't carry");

        let mut d = mk(10.0);
        let other = TimeSeriesBuilder::new(vec!["x".into()], SimTime::ZERO, ms(10.0), ms(5.0))
            .finish(at(10.0), 0);
        let err = d.merge(&other).unwrap_err();
        assert_eq!(err, "series merge: worker label 0: \"x\", expected \"vpu\"");
        let other = TimeSeriesBuilder::new(
            vec!["vpu".into(), "gpu".into()],
            SimTime::ZERO,
            ms(10.0),
            ms(5.0),
        )
        .finish(at(10.0), 0);
        let err = d.merge(&other).unwrap_err();
        assert_eq!(err, "series merge: 2 worker labels, expected 1");
        let other = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(20.0), ms(5.0))
            .finish(at(20.0), 0);
        let err = d.merge(&other).unwrap_err();
        assert!(err.contains("interval"), "{err}");
    }

    #[test]
    fn from_csv_accepts_pre_energy_shape() {
        let csv = "time_ms,queue_depth,inflight_batches,completed,shed,slo_burn,shed_rate,\
                   util_vpu,circuit_vpu\n\
                   10.000,1,0,2,0,0.000000,0.000000,0.400000,0.0\n";
        let ts = TimeSeries::from_csv(csv).expect("archived pre-energy CSV must parse");
        assert_eq!(ts.worker_labels, vec!["vpu".to_string()]);
        assert_eq!(ts.power_row(0), vec![0.0]);
        assert_eq!(ts.energy_j[0], 0.0);
        assert_eq!(ts.img_per_watt[0], 0.0);
    }

    #[test]
    fn emit_is_a_named_profiler_scope() {
        crate::prof::start();
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(5.0));
        b.on_batch(0, at(0.0), at(4.0));
        b.advance(at(35.0), 1);
        let ts = b.finish(at(70.0), 0);
        let r = crate::prof::stop();
        let emit = r.scopes.iter().find(|s| s.name == "series.emit");
        assert_eq!(emit.map(|s| s.calls), Some(ts.len() as u64), "one call per row: {r:#?}");
    }

    /// Spans and pending transitions the builder still holds.
    fn retained(b: &TimeSeriesBuilder) -> usize {
        let spans: usize = b.workers.iter().map(|w| w.spans.len() + w.espans.len()).sum();
        spans + b.circuit_pending.0.len() + b.power_pending.0.len()
    }

    /// Feed `n` back-to-back requests (one 3 ms batch each, round-robin
    /// over four workers, a circuit flap every 1000th) and return the
    /// most state the builder ever held.
    fn peak_retained(n: u64) -> usize {
        let mut b = TimeSeriesBuilder::new(
            (0..4).map(|w| format!("w{w}")).collect(),
            SimTime::ZERO,
            ms(10.0),
            ms(5.0),
        );
        let mut peak = 0;
        for id in 0..n {
            let t = at(id as f64);
            b.advance(t, 1);
            b.on_arrival();
            let w = (id % 4) as usize;
            b.on_batch(w, t, t + ms(3.0));
            b.on_energy_span(w, t, t + ms(3.0));
            b.on_complete(ms(3.0));
            if id % 1000 == 0 {
                b.circuit_event(w, 1.0, t + ms(2.0));
                b.power_event(w, t + ms(2.0), false);
                b.power_event(w, t + ms(4.0), true);
                b.circuit_event(w, 0.0, t + ms(4.0));
            }
            peak = peak.max(retained(&b));
        }
        let ts = b.finish(at(n as f64 + 10.0), 0);
        assert_eq!(ts.completed.last(), Some(&n));
        peak
    }

    #[test]
    fn retained_spans_stay_bounded_independent_of_run_length() {
        let (short, long) = (peak_retained(10_000), peak_retained(100_000));
        assert!(long <= 64, "builder state grew with the run: {long} entries");
        assert_eq!(short, long, "peak state must not depend on n");
    }
}
