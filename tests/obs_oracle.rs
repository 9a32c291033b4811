//! The columnar time-series builder and the arena-backed tail sampler
//! against the implementations they replaced, kept here unchanged as
//! test oracles (apart from imports and serde derives).
//!
//! - Series: both builders are fed one call script — replayed from the
//!   full trace of real runs, or random — and must write byte-equal CSV;
//!   `from_csv` and `merge` of both types must agree. The real runs'
//!   own series bytes are pinned by digests taken from the old builder.
//! - Sampler: both recorders are fed one event stream — the full log of
//!   real runs, or random serve-shaped streams — and must return equal
//!   `EventLog`s and `SampleStats`; the sampled real runs' own output
//!   must equal the old sampler's on their twin run's stream.

/// The row-of-`Vec`s series and its builder, verbatim.
#[allow(dead_code)]
mod row_oracle {
    use desim::{Duration, SimTime};
    use ncsw_obs::prof::WriteStats;
    use std::fmt::Write as _;
    use std::io;

    /// One sampled row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Sample {
        pub t: SimTime,
        /// Requests waiting in the bounded queue.
        pub queue_depth: usize,
        /// Batches dispatched but not yet fully returned.
        pub inflight_batches: usize,
        /// Cumulative completions so far.
        pub completed: u64,
        /// Cumulative shed requests so far.
        pub shed: u64,
        /// Fraction of the window's completions that missed the SLO
        /// (error-budget burn rate; 0 when the window saw no completions).
        pub slo_burn: f64,
        /// Fraction of the window's arrivals that were shed (0 when the
        /// window saw no arrivals).
        pub shed_rate: f64,
        /// Per-worker busy fraction of the epoch→t interval.
        pub worker_util: Vec<f64>,
        /// Per-worker circuit-breaker state as of this boundary: 0.0
        /// closed, 1.0 open (matches the CircuitOpen/CircuitClose events).
        pub circuit: Vec<f64>,
        /// Per-worker average power draw in watts over epoch→t (busy spans
        /// at the busy rate, the rest gated/idle; zero until the builder is
        /// given power profiles).
        pub worker_power: Vec<f64>,
        /// Cumulative fleet energy in joules since the epoch.
        pub energy_j: f64,
        /// Cumulative completions per joule — numerically identical to
        /// img/s/W, the paper's Eq. 1 axis, but over *integrated* energy
        /// rather than nameplate TDP.
        pub img_per_watt: f64,
        /// Workers currently dispatchable (not drained, not provisioning).
        /// Constant at the fleet size unless an autoscaler is attached.
        pub live_sticks: usize,
        /// Cumulative autoscaling decisions applied so far.
        pub scale_events: u64,
    }

    /// A complete sampled series with its worker column labels.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TimeSeries {
        pub epoch: SimTime,
        pub interval: Duration,
        pub worker_labels: Vec<String>,
        pub samples: Vec<Sample>,
        /// True when the run carried an autoscaler: the CSV then appends
        /// `live_sticks,scale_events` columns. Controller-less runs keep
        /// the exact pre-autoscaling column set, byte for byte.
        pub scaling: bool,
    }

    impl TimeSeries {
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
            let mut row =
                String::from("time_ms,queue_depth,inflight_batches,completed,shed,slo_burn");
            row.push_str(",shed_rate");
            for label in &self.worker_labels {
                let _ = write!(row, ",util_{}", label.replace([' ', ','], "_"));
            }
            for label in &self.worker_labels {
                let _ = write!(row, ",circuit_{}", label.replace([' ', ','], "_"));
            }
            for label in &self.worker_labels {
                let _ = write!(row, ",power_{}", label.replace([' ', ','], "_"));
            }
            row.push_str(",energy_j,img_per_watt");
            if self.scaling {
                row.push_str(",live_sticks,scale_events");
            }
            row.push('\n');
            stats.peak_buffered = stats.peak_buffered.max(row.len() as u64);
            sink.write_all(row.as_bytes())?;
            stats.bytes += row.len() as u64;
            for s in &self.samples {
                row.clear();
                let _ = write!(
                    row,
                    "{:.3},{},{},{},{},{:.6},{:.6}",
                    (s.t - self.epoch).as_millis(),
                    s.queue_depth,
                    s.inflight_batches,
                    s.completed,
                    s.shed,
                    s.slo_burn,
                    s.shed_rate
                );
                for u in &s.worker_util {
                    let _ = write!(row, ",{u:.6}");
                }
                for c in &s.circuit {
                    let _ = write!(row, ",{c:.1}");
                }
                for p in &s.worker_power {
                    let _ = write!(row, ",{p:.6}");
                }
                let _ = write!(row, ",{:.6},{:.6}", s.energy_j, s.img_per_watt);
                if self.scaling {
                    let _ = write!(row, ",{},{}", s.live_sticks, s.scale_events);
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
            // Pre-energy CSVs stop after the circuit columns; current ones
            // add `power_<worker>...,energy_j,img_per_watt`, and autoscaled
            // runs append `live_sticks,scale_events`. Accept all three so
            // archived series files keep parsing (absent columns read as
            // zero).
            let old_shape = FIXED.len() + 2 * labels.len();
            let new_shape = FIXED.len() + 3 * labels.len() + 2;
            let scaled_shape = new_shape + 2;
            let power_cols = |cols: &[&str]| {
                cols.get(old_shape..old_shape + labels.len())
                    .is_some_and(|s| s.iter().all(|c| c.starts_with("power_")))
            };
            let has_scaling = cols.len() == scaled_shape
                && power_cols(&cols)
                && cols[new_shape - 2..]
                    == ["energy_j", "img_per_watt", "live_sticks", "scale_events"];
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
                    "header (line 1): {} columns, expected {expect} for a {}-worker series",
                    cols.len(),
                    labels.len()
                ));
            }
            let mut samples = Vec::new();
            for (ln, line) in lines.enumerate() {
                // 1-based file line number: the header is line 1.
                let ln = ln + 2;
                let f: Vec<&str> = line.split(',').collect();
                if f.len() != expect {
                    return Err(format!("line {ln}: {} fields, expected {expect}", f.len()));
                }
                let num = |i: usize| {
                    f[i].parse::<f64>().map_err(|_| {
                        format!(
                            "line {ln} column {} ({}): {:?} is not a number",
                            i + 1,
                            cols[i],
                            f[i]
                        )
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
                samples.push(Sample {
                    t: SimTime::ZERO + Duration::from_millis(num(0)?),
                    queue_depth: int(1)? as usize,
                    inflight_batches: int(2)? as usize,
                    completed: int(3)?,
                    shed: int(4)?,
                    slo_burn: num(5)?,
                    shed_rate: num(6)?,
                    worker_util: (0..labels.len())
                        .map(|w| num(FIXED.len() + w))
                        .collect::<Result<_, _>>()?,
                    circuit: (0..labels.len())
                        .map(|w| num(FIXED.len() + labels.len() + w))
                        .collect::<Result<_, _>>()?,
                    worker_power: if has_energy {
                        (0..labels.len()).map(|w| num(old_shape + w)).collect::<Result<_, _>>()?
                    } else {
                        vec![0.0; labels.len()]
                    },
                    energy_j: if has_energy { num(new_shape - 2)? } else { 0.0 },
                    img_per_watt: if has_energy { num(new_shape - 1)? } else { 0.0 },
                    live_sticks: if has_scaling { int(scaled_shape - 2)? as usize } else { 0 },
                    scale_events: if has_scaling { int(scaled_shape - 1)? } else { 0 },
                });
            }
            let interval = match samples.as_slice() {
                [a, b, ..] => b.t - a.t,
                [a] => a.t - SimTime::ZERO,
                [] => Duration::from_millis(1.0),
            };
            Ok(TimeSeries {
                epoch: SimTime::ZERO,
                interval: if interval > Duration::ZERO {
                    interval
                } else {
                    Duration::from_millis(1.0)
                },
                worker_labels: labels,
                samples,
                scaling: has_scaling,
            })
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
            // Extend self with the tail of a longer other; tail rows start
            // from a copy that keeps other's cumulative columns only.
            while self.samples.len() < other.samples.len() {
                let last = self.samples.last().cloned();
                let t = other.samples[self.samples.len()].t;
                let n = self.worker_labels.len();
                let mut s = Sample {
                    t,
                    queue_depth: 0,
                    inflight_batches: 0,
                    completed: 0,
                    shed: 0,
                    slo_burn: 0.0,
                    shed_rate: 0.0,
                    worker_util: vec![0.0; n],
                    circuit: vec![0.0; n],
                    worker_power: vec![0.0; n],
                    energy_j: 0.0,
                    img_per_watt: 0.0,
                    live_sticks: 0,
                    scale_events: 0,
                };
                if let Some(last) = last {
                    s.completed = last.completed;
                    s.shed = last.shed;
                    s.energy_j = last.energy_j;
                    s.scale_events = last.scale_events;
                }
                self.samples.push(s);
            }
            for (i, s) in self.samples.iter_mut().enumerate() {
                // Past other's end, its final cumulative values carry on.
                let (o, live) = match other.samples.get(i) {
                    Some(o) => (Some(o), true),
                    None => (other.samples.last(), false),
                };
                let Some(o) = o else { continue };
                if live {
                    s.queue_depth += o.queue_depth;
                    s.inflight_batches += o.inflight_batches;
                    s.slo_burn = s.slo_burn.max(o.slo_burn);
                    s.shed_rate = s.shed_rate.max(o.shed_rate);
                    for (a, b) in s.worker_util.iter_mut().zip(&o.worker_util) {
                        *a = a.max(*b);
                    }
                    for (a, b) in s.circuit.iter_mut().zip(&o.circuit) {
                        *a = a.max(*b);
                    }
                    for (a, b) in s.worker_power.iter_mut().zip(&o.worker_power) {
                        *a = a.max(*b);
                    }
                    s.live_sticks += o.live_sticks;
                }
                s.completed += o.completed;
                s.shed += o.shed;
                s.energy_j += o.energy_j;
                s.scale_events += o.scale_events;
                s.img_per_watt =
                    if s.energy_j > 0.0 { s.completed as f64 / s.energy_j } else { 0.0 };
            }
            Ok(())
        }
    }

    /// Incremental builder the serving loop drives. `advance` must be
    /// called with non-decreasing instants (the loop's event times); each
    /// crossing of a sample boundary emits a row using the state as of
    /// that boundary.
    #[derive(Debug)]
    pub struct TimeSeriesBuilder {
        epoch: SimTime,
        interval: Duration,
        slo: Duration,
        labels: Vec<String>,
        next: SimTime,
        /// Per-worker service spans in dispatch order (each worker
        /// self-serializes, so spans are non-overlapping and time-ordered).
        spans: Vec<Vec<(SimTime, SimTime)>>,
        /// Per-worker cursor + busy time of fully consumed spans.
        cursor: Vec<usize>,
        consumed: Vec<Duration>,
        /// Per-worker `(busy_mw, idle_mw)` power rates; all-zero until
        /// [`TimeSeriesBuilder::set_power`] is called.
        power: Vec<(u64, u64)>,
        /// Per-worker *charged* busy spans (clipped, so disjoint and
        /// time-ordered) — unlike `spans`, these include failed attempts,
        /// whose energy is real even though they serve nothing.
        espans: Vec<Vec<(SimTime, SimTime)>>,
        ecursor: Vec<usize>,
        econsumed: Vec<Duration>,
        /// Outstanding batch spans (pruned as samples pass their end).
        active: Vec<(SimTime, SimTime)>,
        completed: u64,
        shed: u64,
        win_done: u64,
        win_miss: u64,
        win_arrived: u64,
        win_shed: u64,
        /// Current per-worker circuit state (0.0 closed, 1.0 open).
        circuit: Vec<f64>,
        /// Future circuit transitions `(at, worker, state)` — failure
        /// detection lands after the loop instant that dispatched the
        /// batch, so transitions are buffered and applied in time order as
        /// sample boundaries pass them (mirrors completion buffering in the
        /// serving loop).
        circuit_pending: Vec<(SimTime, usize, f64)>,
        /// `Some` once an autoscaler attached: current live-worker count
        /// and cumulative decisions, with buffered future transitions
        /// `(at, live_delta, decision_delta)` — a scale-up's live increment
        /// lands at the end of its provisioning delay, past the tick that
        /// decided it.
        scaling: Option<ScalingCols>,
        /// Per-worker powered state, the instant it last changed, and the
        /// powered nanoseconds accumulated before that instant — drives the
        /// energy columns for workers that are dark for part of the run.
        pstate: Vec<bool>,
        pmark: Vec<SimTime>,
        pconsumed: Vec<u64>,
        /// Buffered future power transitions `(at, worker, powered)` — a
        /// drain's power-off lands when its in-flight batches finish.
        power_pending: Vec<(SimTime, usize, bool)>,
        samples: Vec<Sample>,
    }

    #[derive(Debug)]
    struct ScalingCols {
        live: usize,
        events: u64,
        pending: Vec<(SimTime, i64, u64)>,
    }

    impl TimeSeriesBuilder {
        pub fn new(labels: Vec<String>, epoch: SimTime, interval: Duration, slo: Duration) -> Self {
            assert!(interval > Duration::ZERO, "sampling interval must be positive");
            let n = labels.len();
            TimeSeriesBuilder {
                epoch,
                interval,
                slo,
                labels,
                next: epoch + interval,
                spans: vec![Vec::new(); n],
                cursor: vec![0; n],
                consumed: vec![Duration::ZERO; n],
                power: vec![(0, 0); n],
                espans: vec![Vec::new(); n],
                ecursor: vec![0; n],
                econsumed: vec![Duration::ZERO; n],
                active: Vec::new(),
                completed: 0,
                shed: 0,
                win_done: 0,
                win_miss: 0,
                win_arrived: 0,
                win_shed: 0,
                circuit: vec![0.0; n],
                circuit_pending: Vec::new(),
                scaling: None,
                pstate: vec![true; n],
                pmark: vec![epoch; n],
                pconsumed: vec![0; n],
                power_pending: Vec::new(),
                samples: Vec::new(),
            }
        }

        /// Attach autoscaling columns: samples carry `live_sticks` (from
        /// `initial_live`) and cumulative `scale_events`. Without this call
        /// the series keeps the exact pre-autoscaling CSV shape.
        pub fn enable_scaling(&mut self, initial_live: usize) {
            self.scaling = Some(ScalingCols { live: initial_live, events: 0, pending: Vec::new() });
        }

        /// An autoscaling transition: at `at`, the live-worker count moves
        /// by `live_delta` and the cumulative decision count by
        /// `decisions`. Buffered and applied in time order at sample
        /// boundaries, like circuit transitions.
        pub fn scale_event(&mut self, at: SimTime, live_delta: i64, decisions: u64) {
            if let Some(sc) = self.scaling.as_mut() {
                sc.pending.push((at, live_delta, decisions));
            }
        }

        /// Worker `worker` powered off (`false`) or back on (`true`) at
        /// `at`: from that instant its energy column integrates zero draw
        /// (respectively its idle/busy rates again).
        pub fn power_event(&mut self, worker: usize, at: SimTime, powered: bool) {
            self.power_pending.push((at, worker, powered));
        }

        /// A batch was dispatched to `worker`, occupying it over
        /// `start..end`.
        pub fn on_batch(&mut self, worker: usize, start: SimTime, end: SimTime) {
            self.spans[worker].push((start, end));
            self.active.push((start, end));
        }

        /// Provide per-worker `(busy_mw, idle_mw)` rates so samples carry
        /// power/energy columns (zero otherwise).
        pub fn set_power(&mut self, rates: Vec<(u64, u64)>) {
            assert_eq!(rates.len(), self.power.len(), "one power rate per worker");
            self.power = rates;
        }

        /// Energy was charged to `worker` over `start..end` (an already
        /// clipped meter span — includes failed attempts, which don't count
        /// toward utilization but do burn joules).
        pub fn on_energy_span(&mut self, worker: usize, start: SimTime, end: SimTime) {
            self.espans[worker].push((start, end));
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
            self.circuit_pending.push((at, worker, state));
        }

        /// Emit any samples whose boundary falls at or before `now`, using
        /// `queue_depth` as the queue state (constant between loop events).
        pub fn advance(&mut self, now: SimTime, queue_depth: usize) {
            while self.next <= now {
                let s = self.next;
                self.next += self.interval;
                self.emit(s, queue_depth);
            }
        }

        fn emit(&mut self, s: SimTime, queue_depth: usize) {
            // Apply circuit transitions up to this boundary in time order
            // (stable sort keeps same-instant transitions in push order).
            self.circuit_pending.sort_by_key(|&(at, _, _)| at);
            let mut applied = 0;
            for &(at, w, state) in self.circuit_pending.iter() {
                if at > s {
                    break;
                }
                self.circuit[w] = state;
                applied += 1;
            }
            self.circuit_pending.drain(..applied);
            // Apply power transitions up to this boundary, accumulating
            // each worker's powered time piecewise.
            self.power_pending.sort_by_key(|&(at, _, _)| at);
            let mut applied = 0;
            for &(at, w, powered) in self.power_pending.iter() {
                if at > s {
                    break;
                }
                if self.pstate[w] {
                    self.pconsumed[w] += (at - self.pmark[w]).nanos();
                }
                self.pmark[w] = at;
                self.pstate[w] = powered;
                applied += 1;
            }
            self.power_pending.drain(..applied);
            // Apply scaling transitions up to this boundary.
            if let Some(sc) = self.scaling.as_mut() {
                sc.pending.sort_by_key(|&(at, _, _)| at);
                let mut applied = 0;
                for &(at, live_delta, decisions) in sc.pending.iter() {
                    if at > s {
                        break;
                    }
                    sc.live = (sc.live as i64 + live_delta).max(0) as usize;
                    sc.events += decisions;
                    applied += 1;
                }
                sc.pending.drain(..applied);
            }
            let horizon = (s - self.epoch).as_secs();
            let util: Vec<f64> = (0..self.labels.len())
                .map(|w| {
                    let spans = &self.spans[w];
                    let (mut cur, mut busy) = (self.cursor[w], self.consumed[w]);
                    while cur < spans.len() && spans[cur].1 <= s {
                        busy += spans[cur].1 - spans[cur].0;
                        cur += 1;
                    }
                    self.cursor[w] = cur;
                    self.consumed[w] = busy;
                    // Partial credit for the span straddling the boundary.
                    if cur < spans.len() && spans[cur].0 < s {
                        busy += s - spans[cur].0;
                    }
                    if horizon <= 0.0 {
                        0.0
                    } else {
                        busy.as_secs() / horizon
                    }
                })
                .collect();
            // Energy: integrate each worker's charged-span ledger to this
            // boundary (integer pJ = mW × ns, same discipline as the
            // EnergyMeter, so the last row agrees with the meter exactly).
            let elapsed_ns = (s - self.epoch).nanos();
            let mut fleet_pj = 0u64;
            let worker_power: Vec<f64> = (0..self.labels.len())
                .map(|w| {
                    let spans = &self.espans[w];
                    let (mut cur, mut busy) = (self.ecursor[w], self.econsumed[w]);
                    while cur < spans.len() && spans[cur].1 <= s {
                        busy += spans[cur].1 - spans[cur].0;
                        cur += 1;
                    }
                    self.ecursor[w] = cur;
                    self.econsumed[w] = busy;
                    if cur < spans.len() && spans[cur].0 < s {
                        busy += s - spans[cur].0;
                    }
                    let busy_ns = busy.nanos().min(elapsed_ns);
                    let (busy_mw, idle_mw) = self.power[w];
                    // Idle draw accrues only over powered time: a gated
                    // worker's lane is dark, exactly as in the EnergyMeter.
                    let powered_ns = self.pconsumed[w]
                        + if self.pstate[w] { (s - self.pmark[w]).nanos() } else { 0 };
                    let pj = busy_mw * busy_ns + idle_mw * (powered_ns.saturating_sub(busy_ns));
                    fleet_pj += pj;
                    if elapsed_ns == 0 {
                        0.0
                    } else {
                        pj as f64 / elapsed_ns as f64 / 1e3
                    }
                })
                .collect();
            let energy_j = fleet_pj as f64 / 1e12;
            self.active.retain(|&(_, end)| end > s);
            let inflight = self.active.iter().filter(|&&(start, _)| start <= s).count();
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
            self.samples.push(Sample {
                t: s,
                queue_depth,
                inflight_batches: inflight,
                completed: self.completed,
                shed: self.shed,
                slo_burn: burn,
                shed_rate,
                worker_util: util,
                circuit: self.circuit.clone(),
                worker_power,
                energy_j,
                img_per_watt: if energy_j > 0.0 { self.completed as f64 / energy_j } else { 0.0 },
                live_sticks: self.scaling.as_ref().map_or(self.labels.len(), |sc| sc.live),
                scale_events: self.scaling.as_ref().map_or(0, |sc| sc.events),
            });
        }

        /// Sample through `end` and return the finished series.
        pub fn finish(mut self, end: SimTime, queue_depth: usize) -> TimeSeries {
            self.advance(end, queue_depth);
            TimeSeries {
                epoch: self.epoch,
                interval: self.interval,
                worker_labels: self.labels,
                samples: self.samples,
                scaling: self.scaling.is_some(),
            }
        }
    }
}

/// The per-request-`Vec` tail sampler, verbatim.
mod sampler_oracle {
    use desim::Duration;
    use ncsw_obs::{Event, EventLog, Phase, Recorder, SamplePolicy, SampleStats};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// Why a kept request survived sampling — the breakdown reported by
    /// [`SampleStats`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum KeepReason {
        Slo,
        Shed,
        Fault,
        Hedge,
        Quarantine,
    }

    /// Buffered state of one not-yet-terminal request.
    #[derive(Default)]
    struct PendingReq {
        events: Vec<(u64, Event)>,
        arrive_ns: Option<u64>,
        flag: Option<KeepReason>,
        batches: Vec<u64>,
    }

    /// Per-batch trigger state: a batch-scoped anomaly (hedge, failover,
    /// quarantine) marks every member request as keep-worthy.
    #[derive(Default)]
    struct BatchState {
        flag: Option<KeepReason>,
        members: Vec<u64>,
    }

    /// SplitMix64 finalizer over `(seed, id)` — a deterministic,
    /// order-independent per-request coin for the uniform 1-in-N decision.
    fn mix(seed: u64, id: u64) -> u64 {
        let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A [`Recorder`] implementing tail-based sampling (see the module
    /// docs). Feed it a run, then call [`SamplingRecorder::finish`] to get
    /// the sampled [`EventLog`] plus the keep/drop ledger.
    pub struct SamplingRecorder {
        policy: SamplePolicy,
        seed: u64,
        slo_ns: u64,
        seq: u64,
        kept: Vec<(u64, Event)>,
        pending: HashMap<u64, PendingReq>,
        batches: HashMap<u64, BatchState>,
        /// Min-heap of reservoir candidates by `(latency, id)`; ties break
        /// on the id, so eviction is fully deterministic.
        reservoir: BinaryHeap<Reverse<(u64, u64)>>,
        held: HashMap<u64, Vec<(u64, Event)>>,
        stats: SampleStats,
    }

    impl SamplingRecorder {
        /// `seed` drives the uniform hash (use the run's serve seed so the
        /// sampled trace is as reproducible as the run); `slo` is the
        /// latency above which a request is an always-keep SLO violation.
        pub fn new(policy: SamplePolicy, seed: u64, slo: Duration) -> SamplingRecorder {
            let stats = SampleStats { spec: policy.spec(), ..SampleStats::default() };
            SamplingRecorder {
                policy,
                seed,
                slo_ns: slo.nanos(),
                seq: 0,
                kept: Vec::new(),
                pending: HashMap::new(),
                batches: HashMap::new(),
                reservoir: BinaryHeap::new(),
                held: HashMap::new(),
                stats,
            }
        }

        /// Trigger classification of a batch-scoped anomaly phase.
        fn batch_trigger(phase: Phase) -> Option<KeepReason> {
            match phase {
                Phase::Hedge | Phase::HedgeWin | Phase::HedgeCancel => Some(KeepReason::Hedge),
                Phase::Failover => Some(KeepReason::Fault),
                Phase::Quarantine => Some(KeepReason::Quarantine),
                _ => None,
            }
        }

        fn decide(&mut self, id: u64, terminal: &Event) {
            // E23 hot path: one decision per terminated request — the
            // sampler's whole overhead story lives here and in the ring
            // appends, so `--prof` runs break it out by name.
            let _prof = ncsw_obs::prof::scope("sample.decide");
            let Some(mut req) = self.pending.remove(&id) else { return };
            self.stats.requests_seen += 1;
            let end_ns = terminal.finish().nanos();
            let arrive = req.arrive_ns.unwrap_or(end_ns);
            let latency = end_ns.saturating_sub(arrive);

            // Fold in batch-scoped triggers from every batch that carried
            // this request (hedges and failovers land before their members'
            // terminal events, so the flags are already set here).
            if req.flag.is_none() {
                for b in &req.batches {
                    if let Some(f) = self.batches.get(b).and_then(|s| s.flag) {
                        req.flag = Some(f);
                        break;
                    }
                }
            }
            let reason = if terminal.phase == Phase::Shed {
                Some(KeepReason::Shed)
            } else if latency > self.slo_ns {
                Some(KeepReason::Slo)
            } else {
                req.flag
            };
            if let Some(reason) = reason {
                match reason {
                    KeepReason::Slo => self.stats.slo += 1,
                    KeepReason::Shed => self.stats.shed += 1,
                    KeepReason::Fault => self.stats.fault += 1,
                    KeepReason::Hedge => self.stats.hedge += 1,
                    KeepReason::Quarantine => self.stats.quarantine += 1,
                }
                self.stats.requests_kept += 1;
                self.kept.append(&mut req.events);
                return;
            }
            if mix(self.seed, id).is_multiple_of(self.policy.one_in) {
                self.stats.uniform += 1;
                self.stats.requests_kept += 1;
                self.kept.append(&mut req.events);
                return;
            }
            if self.policy.top_k > 0 {
                // Tentative keep: the K slowest candidates survive the run.
                self.reservoir.push(Reverse((latency, id)));
                self.held.insert(id, req.events);
                if self.reservoir.len() > self.policy.top_k {
                    let Reverse((_, evicted)) = self.reservoir.pop().expect("non-empty reservoir");
                    self.held.remove(&evicted);
                }
            }
        }
    }

    impl Recorder for SamplingRecorder {
        fn record(&mut self, ev: Event) {
            let seq = self.seq;
            self.seq += 1;
            self.stats.events_seen += 1;
            if self.policy.keep_all {
                self.stats.requests_kept +=
                    u64::from(matches!(ev.phase, Phase::Complete | Phase::Shed));
                self.stats.requests_seen +=
                    u64::from(matches!(ev.phase, Phase::Complete | Phase::Shed));
                self.kept.push((seq, ev));
                return;
            }
            let Some(id) = ev.ctx.request_id else {
                // Worker / batch / power events always survive — they are
                // what keeps the sampled trace grammatically complete.
                if let Some(reason) = Self::batch_trigger(ev.phase) {
                    if let Some(b) = ev.ctx.batch_id {
                        let state = self.batches.entry(b).or_default();
                        state.flag.get_or_insert(reason);
                        // Retro-flag members already buffered.
                        for m in state.members.clone() {
                            if let Some(req) = self.pending.get_mut(&m) {
                                req.flag.get_or_insert(reason);
                            }
                        }
                    }
                }
                self.kept.push((seq, ev));
                return;
            };
            let req = self.pending.entry(id).or_default();
            if let Some(b) = ev.ctx.batch_id {
                if !req.batches.contains(&b) {
                    req.batches.push(b);
                    let state = self.batches.entry(b).or_default();
                    state.members.push(id);
                    if let Some(f) = state.flag {
                        self.pending.get_mut(&id).expect("just inserted").flag.get_or_insert(f);
                    }
                }
            }
            let req = self.pending.get_mut(&id).expect("present");
            if ev.phase == Phase::Arrive {
                req.arrive_ns.get_or_insert(ev.start.nanos());
            }
            if matches!(ev.phase, Phase::RetryAttempt | Phase::IntegrityFail | Phase::Failover) {
                req.flag.get_or_insert(KeepReason::Fault);
            }
            req.events.push((seq, ev));
            if matches!(ev.phase, Phase::Complete | Phase::Shed) {
                self.decide(id, &ev);
            }
        }
    }

    impl SamplingRecorder {
        /// Resolve the reservoir, restore global event order and return the
        /// sampled log plus the keep/drop ledger.
        pub fn finish(mut self) -> (EventLog, SampleStats) {
            // Reservoir survivors: the K slowest non-triggered requests.
            let mut survivors: Vec<u64> = self.held.keys().copied().collect();
            survivors.sort_unstable();
            for id in survivors {
                let mut evs = self.held.remove(&id).expect("held");
                self.stats.reservoir += 1;
                self.stats.requests_kept += 1;
                self.kept.append(&mut evs);
            }
            // Requests with no terminal event by the end of the run are
            // anomalies in their own right: keep them.
            let mut open: Vec<u64> = self.pending.keys().copied().collect();
            open.sort_unstable();
            for id in open {
                let mut req = self.pending.remove(&id).expect("pending");
                self.stats.requests_seen += 1;
                self.stats.requests_kept += 1;
                self.stats.unterminated += 1;
                self.kept.append(&mut req.events);
            }
            self.kept.sort_unstable_by_key(|&(seq, _)| seq);
            self.stats.events_kept = self.kept.len() as u64;
            let mut log = EventLog::new();
            for (_, ev) in self.kept {
                log.record(ev);
            }
            (log, self.stats)
        }
    }
}

// ---------------------------------------------------------------------
// Series: one call script, fed to both builders
// ---------------------------------------------------------------------

use desim::{Duration, SimTime};
use ncsw::ModelBundle;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_obs::{
    Ctx, Event, EventLog, Lane, Phase, Recorder, SamplePolicy, SampleStats, SamplingRecorder,
    ShedCause, TimeSeries, TimeSeriesBuilder,
};
use ncsw_serve::{
    serve_autoscaled_observed, serve_observed, ArrivalProcess, FleetSpec, GrayConfig, ObsConfig,
    ScalingConfig, ServeConfig, ServeObservation, ShedPolicy,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use vpu_nn::googlenet::Variant;
use vpu_num::rng::fnv1a;

/// One builder input, as the serving loop makes them.
#[derive(Debug, Clone, Copy)]
enum Call {
    Advance(SimTime, usize),
    Arrival,
    Shed,
    Complete(Duration),
    Batch(usize, SimTime, SimTime),
    Energy(usize, SimTime, SimTime),
    Circuit(usize, f64, SimTime),
    Power(usize, SimTime, bool),
    Scale(SimTime, i64, u64),
}

/// A builder's whole life: construction, options, calls, finish.
#[derive(Debug, Clone)]
struct Script {
    labels: Vec<String>,
    interval: Duration,
    slo: Duration,
    rates: Option<Vec<(u64, u64)>>,
    scaling: bool,
    calls: Vec<Call>,
    end: SimTime,
    end_depth: usize,
}

/// Run `script` through a builder type with the shared method set.
macro_rules! build {
    ($builder:ty, $script:expr) => {{
        let s: &Script = $script;
        let mut b = <$builder>::new(s.labels.clone(), SimTime::ZERO, s.interval, s.slo);
        if let Some(rates) = &s.rates {
            b.set_power(rates.clone());
        }
        if s.scaling {
            b.enable_scaling(s.labels.len());
        }
        for call in &s.calls {
            match *call {
                Call::Advance(t, depth) => b.advance(t, depth),
                Call::Arrival => b.on_arrival(),
                Call::Shed => b.on_shed(),
                Call::Complete(latency) => b.on_complete(latency),
                Call::Batch(w, start, end) => b.on_batch(w, start, end),
                Call::Energy(w, start, end) => b.on_energy_span(w, start, end),
                Call::Circuit(w, state, at) => b.circuit_event(w, state, at),
                Call::Power(w, at, powered) => b.power_event(w, at, powered),
                Call::Scale(at, live, decisions) => b.scale_event(at, live, decisions),
            }
        }
        b.finish(s.end, s.end_depth)
    }};
}

fn new_series(s: &Script) -> TimeSeries {
    build!(TimeSeriesBuilder, s)
}

fn oracle_series(s: &Script) -> row_oracle::TimeSeries {
    build!(row_oracle::TimeSeriesBuilder, s)
}

/// Equal CSV documents, or a panic naming the first differing line.
fn assert_same_csv(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
    match line {
        Some(i) => panic!(
            "{what}: CSV line {} differs:\n  got  {}\n  want {}",
            i + 1,
            got.lines().nth(i).unwrap(),
            want.lines().nth(i).unwrap()
        ),
        None => panic!(
            "{what}: CSV lengths differ: {} vs {} lines",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

fn assert_same_series(s: &Script, what: &str) -> String {
    let want = oracle_series(s).csv();
    assert_same_csv(&new_series(s).csv(), &want, what);
    want
}

/// `from_csv` of both types: the same accept/reject, the same message,
/// and re-exported bytes equal to each other.
fn assert_same_parse(csv: &str, what: &str) {
    match (TimeSeries::from_csv(csv), row_oracle::TimeSeries::from_csv(csv)) {
        (Ok(a), Ok(b)) => assert_same_csv(&a.csv(), &b.csv(), what),
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: different parse errors"),
        (a, b) => panic!("{what}: accept/reject differs: {:?} vs {:?}", a.err(), b.err()),
    }
}

/// `a.merge(b)` of both types gives the same result (or error).
fn assert_same_merge(a: &str, b: &str, what: &str) {
    let (mut na, nb) = (TimeSeries::from_csv(a).unwrap(), TimeSeries::from_csv(b).unwrap());
    let mut oa = row_oracle::TimeSeries::from_csv(a).unwrap();
    let ob = row_oracle::TimeSeries::from_csv(b).unwrap();
    match (na.merge(&nb), oa.merge(&ob)) {
        (Ok(()), Ok(())) => assert_same_csv(&na.csv(), &oa.csv(), what),
        (got, want) => assert_eq!(got, want, "{what}"),
    }
}

/// Replay a run's full trace as builder calls: the loop clock moves on
/// arrivals and dispatches, completions are re-ordered into their own
/// instants (as the serving loop does), device spans become busy and
/// energy spans, and breaker / scaling events become transitions that
/// land at their own instants — often behind the clock.
fn replay(log: &EventLog, workers: usize, scaling: bool) -> Script {
    let mut calls = Vec::new();
    let (mut now, mut depth) = (SimTime::ZERO, 0usize);
    let mut arrived: HashMap<u64, SimTime> = HashMap::new();
    let mut pending: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let (mut busy_end, mut energy_end) =
        (vec![SimTime::ZERO; workers], vec![SimTime::ZERO; workers]);
    let mut clock = |to: SimTime,
                     depth: usize,
                     calls: &mut Vec<Call>,
                     pending: &mut BinaryHeap<Reverse<(u64, u64)>>| {
        while let Some(&Reverse((done, lat))) = pending.peek() {
            if done > to.nanos() {
                break;
            }
            pending.pop();
            now = now.max(SimTime(done));
            calls.push(Call::Advance(now, depth));
            calls.push(Call::Complete(Duration(lat)));
        }
        now = now.max(to);
        calls.push(Call::Advance(now, depth));
    };
    for ev in log.events() {
        let w = ev.ctx.worker.map(|w| w as usize).filter(|&w| w < workers);
        match ev.phase {
            Phase::Arrive => {
                clock(ev.start, depth, &mut calls, &mut pending);
                arrived.insert(ev.ctx.request_id.unwrap(), ev.start);
                calls.push(Call::Arrival);
                depth += 1;
            }
            Phase::Dispatch => {
                clock(ev.start, depth, &mut calls, &mut pending);
                depth = depth.saturating_sub(1);
            }
            Phase::Shed => {
                calls.push(Call::Shed);
                depth = depth.saturating_sub(1);
            }
            Phase::Complete => {
                let id = ev.ctx.request_id.unwrap();
                let lat = ev.start - arrived[&id];
                pending.push(Reverse((ev.start.nanos(), lat.nanos())));
            }
            Phase::Exec | Phase::Hedge => {
                let (Some(w), Some(end)) = (w, ev.end) else { continue };
                if ev.phase == Phase::Exec && ev.start >= busy_end[w] {
                    calls.push(Call::Batch(w, ev.start, end));
                    busy_end[w] = end;
                }
                if ev.start >= energy_end[w] {
                    calls.push(Call::Energy(w, ev.start, end));
                    energy_end[w] = end;
                }
            }
            Phase::CircuitOpen | Phase::CircuitClose => {
                let Some(w) = w else { continue };
                let state = if ev.phase == Phase::CircuitOpen { 1.0 } else { 0.0 };
                calls.push(Call::Circuit(w, state, ev.start));
            }
            Phase::Drain => calls.push(Call::Scale(ev.start, -1, 1)),
            Phase::ScaleDown => {
                let Some(w) = w else { continue };
                calls.push(Call::Power(w, ev.start, false));
            }
            Phase::ScaleUp => {
                let Some(w) = w else { continue };
                calls.push(Call::Power(w, ev.start, true));
                calls.push(Call::Scale(ev.start, 0, 1));
                calls.push(Call::Scale(ev.finish(), 1, 0));
            }
            _ => {}
        }
    }
    let end = log.horizon();
    clock(end, 0, &mut calls, &mut pending);
    Script {
        labels: (0..workers).map(|w| format!("w{w}")).collect(),
        interval: Duration::from_millis(10.0),
        slo: Duration::from_millis(200.0),
        rates: Some((0..workers as u64).map(|w| (900 + 10 * w, 172)).collect()),
        scaling,
        calls,
        end,
        end_depth: 0,
    }
}

// ---------------------------------------------------------------------
// Real runs
// ---------------------------------------------------------------------

fn model() -> ModelBundle {
    ModelBundle::googlenet_untrained(Variant::Full, 1)
}

/// An elastic `8*vpu` fleet at half load under the reactive controller,
/// gray-defended, with a five-kind fault cocktail.
fn chaos_run(seed: u64, sample: Option<SamplePolicy>) -> ServeObservation {
    let n = 1_500;
    let model = model();
    let spec = FleetSpec::parse("8*vpu").unwrap();
    let probe = spec.build(&model);
    let rate = spec.capacity_rps(&probe) * 0.5;
    let cfg = ServeConfig {
        max_batch: spec.preferred_batch(&probe),
        seed,
        gray: GrayConfig::defended(),
        ..ServeConfig::default()
    };
    drop(probe);
    let horizon = n as f64 / rate;
    let at = |share: f64| Duration::from_secs(horizon * share);
    let mut plan = FaultPlan::empty();
    plan.push(Some(7), FaultEvent::StickUnplug { at: at(0.1), reconnect_after: Some(at(0.1)) });
    plan.push(Some(0), FaultEvent::TransientExecError { per_batch_prob: 0.05 });
    plan.push(Some(3), FaultEvent::FailSlow { at: at(0.4), duration: at(0.15), factor: 6.0 });
    plan.push(Some(1), FaultEvent::ResultCorrupt { per_image_prob: 0.02 });
    plan.push(Some(5), FaultEvent::DuplicateCompletion { per_image_prob: 0.02 });
    let mut workers = plan.apply(spec.build(&model), seed);
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
    let mut policy = ncsw_ctrl::policy("reactive").unwrap();
    let ocfg = ObsConfig { sample, ..ObsConfig::default() };
    let arrivals = ArrivalProcess::Poisson { rate_per_sec: rate };
    serve_autoscaled_observed(&mut workers, &cfg, &arrivals, n, &scaling, policy.as_mut(), &ocfg).1
}

const SHEDDING_SLO: Duration = Duration(150_000_000);

/// `cpu+gpu+2xvpu` at twice nameplate with a short deadline-aware
/// queue: rejects, deadline sheds and completions.
fn shedding_run(seed: u64, sample: Option<SamplePolicy>) -> ServeObservation {
    let model = model();
    let spec = FleetSpec::parse("cpu+gpu+2xvpu").unwrap();
    let probe = spec.build(&model);
    let rate = spec.capacity_rps(&probe) * 2.0;
    let cfg = ServeConfig {
        max_batch: spec.preferred_batch(&probe),
        seed,
        shed: ShedPolicy::DeadlineAware,
        slo: SHEDDING_SLO,
        ..ServeConfig::default()
    };
    drop(probe);
    let mut workers = spec.build(&model);
    let ocfg = ObsConfig { sample, ..ObsConfig::default() };
    let arrivals = ArrivalProcess::Poisson { rate_per_sec: rate };
    serve_observed(&mut workers, &cfg, &arrivals, 1_200, &ocfg).1
}

fn chaos_policy() -> SamplePolicy {
    SamplePolicy::parse("1-in-100+top40").unwrap()
}

fn shedding_policy() -> SamplePolicy {
    SamplePolicy::parse("1-in-10+top8").unwrap()
}

fn has(log: &EventLog, phase: Phase) -> bool {
    log.events().iter().any(|e| e.phase == phase)
}

/// The real runs' series CSV bytes are the row-of-`Vec`s builder's:
/// FNV-1a digests taken from it, on the runs below.
#[test]
fn real_run_series_bytes_equal_the_row_builders() {
    let chaos = chaos_run(2012, Some(chaos_policy()));
    for phase in [Phase::Hedge, Phase::Quarantine, Phase::Failover, Phase::ScaleDown] {
        assert!(has(&chaos.events, phase), "chaos run should carry {phase:?}");
    }
    let shedding = shedding_run(7, None);
    assert!(has(&shedding.events, Phase::Shed), "shedding run should shed");
    assert_eq!(
        [fnv1a(chaos.series.csv().as_bytes()), fnv1a(shedding.series.csv().as_bytes())],
        [0x8c5b_2b77_ec40_9420, 0x9b52_2b0d_85d7_87d5],
        "real-run series bytes drifted from the row builder's"
    );
}

/// Both builders fed the same call script, replayed from the full trace
/// of each real run, write the same CSV; `from_csv` and `merge` of the
/// two types agree on it too.
#[test]
fn replayed_real_runs_give_byte_equal_series() {
    let chaos = [chaos_run(2012, None), chaos_run(2013, None)];
    let chaos_csv: Vec<String> = chaos
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let script = replay(&o.events, 8, true);
            assert!(script.calls.iter().any(|c| matches!(c, Call::Circuit(..))));
            assert!(script.calls.iter().any(|c| matches!(c, Call::Power(..))));
            assert_same_series(&script, &format!("8*vpu chaos replay {i}"))
        })
        .collect();
    let shedding = shedding_run(7, None);
    let shed_csv = assert_same_series(&replay(&shedding.events, 4, false), "shedding replay");
    for (csv, what) in chaos_csv.iter().chain([&shed_csv]).zip(["chaos 0", "chaos 1", "shed"]) {
        assert_same_parse(csv, &format!("{what} from_csv"));
    }
    assert_same_merge(&chaos_csv[0], &chaos_csv[1], "chaos shard merge");
    assert_same_merge(&chaos_csv[1], &chaos_csv[0], "chaos shard merge, reversed");
    assert_same_merge(&chaos_csv[0], &shed_csv, "mismatched merge");
    // The real runs' own series round-trip the same way.
    for o in chaos.iter().chain([&shedding]) {
        assert_same_parse(&o.series.csv(), "real series from_csv");
    }
    assert_same_merge(&chaos[0].series.csv(), &chaos[1].series.csv(), "real chaos shard merge");
}

#[test]
fn from_csv_accepts_and_rejects_like_the_row_builder() {
    let base = replay(&shedding_run(3, None).events, 4, false);
    let csv = oracle_series(&base).csv();
    let header_end = csv.find('\n').unwrap();
    let mutations = [
        csv.clone(),
        csv[..header_end].to_string(),
        csv.replacen("util_w0", "util w0", 1),
        csv.replacen(",energy_j,img_per_watt", "", 1),
        csv.replacen("\n10.000,", "\n10.000,x", 1),
        csv.replacen("\n20.000,", "\n20.000,1,", 1),
        format!("{csv}1,2,3\n"),
        csv.lines().take(3).map(|l| format!("{l}\n")).collect(),
        String::new(),
    ];
    for (i, m) in mutations.iter().enumerate() {
        assert_same_parse(m, &format!("mutation {i}"));
    }
}

/// The sampled run's own output (its log ahead of the appended energy
/// events, and its ledger) equals the old sampler fed the same stream,
/// which is the unsampled twin run's log up to the ledger's
/// `events_seen`; the new sampler fed that stream agrees too.
fn assert_sampler_matches_on(
    sampled: &ServeObservation,
    full: &ServeObservation,
    sampling: &Sampling,
    what: &str,
) {
    let stats = sampled.sample.clone().expect("sampled run has a ledger");
    let seen = stats.events_seen as usize;
    let stream = &full.events.events()[..seen];
    let (want_log, want_stats) = oracle_sample(sampling, stream);
    assert_eq!(stats, want_stats, "{what}: sample ledger differs from the old sampler's");
    let kept = want_log.len();
    assert!(
        sampled.events.events()[..kept] == *want_log.events(),
        "{what}: sampled log differs from the old sampler's"
    );
    assert!(
        sampled.events.events()[kept..] == full.events.events()[seen..],
        "{what}: appended energy events differ"
    );
    assert_eq!(new_sample(sampling, stream), (want_log, want_stats), "{what}: direct feed");
}

#[test]
fn real_sampled_runs_equal_the_old_sampler() {
    let sampled = chaos_run(2012, Some(chaos_policy()));
    let full = chaos_run(2012, None);
    let stats = sampled.sample.clone().unwrap();
    assert!(stats.hedge + stats.fault + stats.quarantine > 0, "{stats:?}");
    assert!(stats.reservoir > 0 && stats.requests_dropped() > 0, "{stats:?}");
    let chaos = Sampling { policy: chaos_policy(), seed: 2012, slo: ServeConfig::default().slo };
    assert_sampler_matches_on(&sampled, &full, &chaos, "8*vpu chaos");
    let sampled = shedding_run(7, Some(shedding_policy()));
    let full = shedding_run(7, None);
    assert!(sampled.sample.as_ref().unwrap().shed > 0);
    let shedding = Sampling { policy: shedding_policy(), seed: 7, slo: SHEDDING_SLO };
    assert_sampler_matches_on(&sampled, &full, &shedding, "shedding cpu+gpu+2xvpu");
}

/// Seven policies over the chaos stream, all-keep included.
#[test]
fn every_policy_matches_the_old_sampler_on_a_real_stream() {
    let full = chaos_run(2013, None);
    for spec in [
        "all",
        "1-in-1",
        "1-in-3+top0",
        "1-in-25",
        "1-in-100+top40",
        "1-in-1000+top1",
        "1-in-7+top500",
    ] {
        let policy = SamplePolicy::parse(spec).unwrap();
        let s = Sampling { policy, seed: 2013, slo: ServeConfig::default().slo };
        let events = full.events.events();
        assert_eq!(new_sample(&s, events), oracle_sample(&s, events), "policy {spec}");
    }
}

// ---------------------------------------------------------------------
// Random streams
// ---------------------------------------------------------------------

/// How a run samples: policy, seed of the uniform hash, SLO.
#[derive(Debug, Clone)]
struct Sampling {
    policy: SamplePolicy,
    seed: u64,
    slo: Duration,
}

impl Sampling {
    /// The random streams' sampling: a 250 ms SLO on their 100 ms
    /// latency grid.
    fn random(one_in: u64, top_k: usize) -> Sampling {
        let policy = SamplePolicy { keep_all: false, one_in, top_k };
        Sampling { policy, seed: 2012, slo: Duration::from_millis(250.0) }
    }
}

fn oracle_sample(s: &Sampling, events: &[Event]) -> (EventLog, SampleStats) {
    let mut rec = sampler_oracle::SamplingRecorder::new(s.policy.clone(), s.seed, s.slo);
    for &ev in events {
        rec.record(ev);
    }
    rec.finish()
}

fn new_sample(s: &Sampling, events: &[Event]) -> (EventLog, SampleStats) {
    let mut rec = SamplingRecorder::new(s.policy.clone(), s.seed, s.slo);
    for &ev in events {
        rec.record(ev);
    }
    rec.finish()
}

/// A random call script over `workers` workers. Each op is
/// `(kind, a, b, c)`: the clock steps by `a` ms (zero steps repeat an
/// instant); spans start at or after the worker's previous span and may
/// be empty; transitions land up to 20 ms behind or 30 ms ahead of the
/// clock, so they arrive out of order and at equal instants.
fn script_of(ops: &[(u8, u8, u8, u8)], workers: usize, scaling: bool, power: bool) -> Script {
    let ms = |v: u64| Duration::from_millis(v as f64);
    let (mut now, mut calls) = (SimTime::ZERO, Vec::new());
    let (mut busy_end, mut energy_end) =
        (vec![SimTime::ZERO; workers], vec![SimTime::ZERO; workers]);
    let mut power_at = vec![SimTime::ZERO; workers];
    let mut end_depth = 0;
    for &(kind, a, b, c) in ops {
        let w = b as usize % workers;
        let (a, c) = (u64::from(a), u64::from(c));
        let at = SimTime((now + ms(a)).nanos().saturating_sub(ms(20).nanos()));
        match kind % 9 {
            0 => {
                now += ms(a % 25);
                calls.push(Call::Advance(now, b as usize));
            }
            1 => calls.push(Call::Arrival),
            2 => calls.push(Call::Shed),
            3 => calls.push(Call::Complete(ms(a % 40))),
            4 | 5 => {
                let ends = if kind % 9 == 4 { &mut busy_end } else { &mut energy_end };
                let start = ends[w].max(now) + ms(a % 3);
                let end = start + ms(c % 4);
                ends[w] = end;
                calls.push(if kind % 9 == 4 {
                    Call::Batch(w, start, end)
                } else {
                    Call::Energy(w, start, end)
                });
            }
            6 => calls.push(Call::Circuit(w, (c % 2) as f64, at)),
            7 => {
                // A worker's own power transitions never go back in time.
                power_at[w] = power_at[w].max(at);
                calls.push(Call::Power(w, power_at[w], c % 2 == 0));
            }
            _ => calls.push(Call::Scale(at, (c % 3) as i64 - 1, a % 2)),
        }
        end_depth = c as usize % 5;
    }
    Script {
        labels: (0..workers).map(|w| format!("w {w},x")).collect(),
        interval: ms(10),
        slo: ms(20),
        rates: power.then(|| (0..workers as u64).map(|w| (900 + w, 172 + w)).collect()),
        scaling,
        calls,
        end: now + ms(25),
        end_depth,
    }
}

/// Trigger phases of the sampler, cycled by a parameter.
const TRIGGERS: [Phase; 5] =
    [Phase::Hedge, Phase::HedgeWin, Phase::HedgeCancel, Phase::Failover, Phase::Quarantine];

/// A random serve-shaped event stream. Ops `(kind, a, b, c)`:
/// arrivals; batch episodes, in which every member joins before any
/// terminates (the first one sometimes at a fault event of its own), a
/// trigger may fire before the first join, between joins, after the
/// joins or after the first outcome, and each member
/// completes (latencies on a 100 ms grid, so reservoir ties), retries
/// (re-joining a later batch) or is shed; sheds and fault events
/// outside batches; batch-less events, including a trigger on an
/// already finished batch. Requests still open at the end never
/// terminate.
fn stream_of(ops: &[(u8, u8, u8, u8)]) -> Vec<Event> {
    let t = |ms: u64| SimTime(ms * 1_000_000);
    let mut out = Vec::new();
    let (mut clock, mut next_id, mut next_bid) = (0u64, 0u64, 0u64);
    let mut open: Vec<(u64, u64)> = Vec::new(); // (id, arrival ms)
    for &(kind, a, b, c) in ops {
        clock += u64::from(a % 7);
        let w = u32::from(b % 4);
        let trigger = |bid: u64, at: u64| {
            let ctx = Ctx::NONE.with_batch(bid).with_worker(w);
            Event::span(TRIGGERS[c as usize % 5], Lane::Worker(w), t(at), t(at + 1), ctx)
        };
        match kind % 8 {
            0..=2 => {
                out.push(Event::instant(
                    Phase::Arrive,
                    Lane::Server,
                    t(clock),
                    Ctx::request(next_id),
                ));
                open.push((next_id, clock));
                next_id += 1;
            }
            3 | 4 if !open.is_empty() => {
                let k = (1 + b as usize % 4).min(open.len());
                let members: Vec<(u64, u64)> = open.drain(..k).collect();
                let bid = next_bid;
                next_bid += 1;
                let when = c / 5 % 5; // 0 before, 1 between, 2 after joins, 3 after an outcome
                if when == 0 {
                    out.push(trigger(bid, clock));
                }
                for (i, &(id, _)) in members.iter().enumerate() {
                    let ctx = Ctx::request(id).with_batch(bid).with_worker(w);
                    if i == 0 && a % 3 == 0 {
                        // Joining the batch at a fault event of its own:
                        // a batch flag and a fault flag at one event.
                        out.push(Event::instant(Phase::RetryAttempt, Lane::Server, t(clock), ctx));
                    }
                    out.push(Event::instant(Phase::BatchClose, Lane::Queue, t(clock), ctx));
                    if when == 1 && i == 1 {
                        out.push(trigger(bid, clock));
                    }
                    out.push(Event::instant(Phase::Dispatch, Lane::Worker(w), t(clock), ctx));
                    if a % 2 == 0 {
                        let lane = Lane::Vpu { worker: w, dev: 0 };
                        out.push(Event::span(Phase::Exec, lane, t(clock), t(clock + 2), ctx));
                    }
                }
                if when == 2 {
                    out.push(trigger(bid, clock + 1));
                }
                for (i, &(id, arrive)) in members.iter().enumerate() {
                    let ctx = Ctx::request(id).with_batch(bid).with_worker(w);
                    let roll = (u64::from(a) + 3 * i as u64 + u64::from(b)) % 8;
                    let done = (clock + 3).max(arrive + 100 * ((id + u64::from(c)) % 5));
                    match roll {
                        0 => {
                            out.push(Event::instant(
                                Phase::RetryAttempt,
                                Lane::Server,
                                t(clock + 2),
                                ctx,
                            ));
                            open.push((id, arrive));
                        }
                        1 => {
                            out.push(Event::instant(
                                Phase::IntegrityFail,
                                Lane::Worker(w),
                                t(clock + 2),
                                ctx,
                            ));
                            out.push(Event::instant(
                                Phase::RetryAttempt,
                                Lane::Server,
                                t(clock + 2),
                                ctx,
                            ));
                            open.push((id, arrive));
                        }
                        2 => out.push(
                            Event::span(Phase::Shed, Lane::Queue, t(arrive), t(clock + 2), ctx)
                                .with_cause(ShedCause::RetriesExhausted),
                        ),
                        _ => out.push(Event::instant(Phase::Complete, Lane::Server, t(done), ctx)),
                    }
                    if when == 3 && i == 0 {
                        out.push(trigger(bid, clock + 2));
                    }
                }
                clock += 3;
            }
            5 if !open.is_empty() => {
                let (id, _) = open.remove(b as usize % open.len());
                out.push(
                    Event::instant(Phase::Shed, Lane::Server, t(clock), Ctx::request(id))
                        .with_cause(ShedCause::Rejected),
                );
            }
            6 if !open.is_empty() => {
                // A request-scoped fault outside any batch.
                let (id, _) = open[b as usize % open.len()];
                let phase = [Phase::RetryAttempt, Phase::Failover][c as usize % 2];
                out.push(Event::instant(phase, Lane::Server, t(clock), Ctx::request(id)));
            }
            _ => {
                let ctx = Ctx::NONE.with_worker(w);
                out.push(match c % 3 {
                    0 => Event::counter(Lane::Power(w), t(clock), u64::from(a) * 10, ctx),
                    1 => Event::instant(Phase::CircuitOpen, Lane::Worker(w), t(clock), ctx),
                    _ => trigger(next_bid.saturating_sub(1), clock),
                });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_scripts_give_byte_equal_series(
        ops in prop::collection::vec((0u8..9, 0u8..60, 0u8..8, 0u8..8), 1..160),
        workers in 1usize..4,
        scaling in any::<bool>(),
        power in any::<bool>(),
    ) {
        let script = script_of(&ops, workers, scaling, power);
        let csv = assert_same_series(&script, "random script");
        assert_same_parse(&csv, "random script from_csv");
        // A second shard: the same ops, reversed.
        let rev: Vec<_> = ops.iter().rev().copied().collect();
        let other = assert_same_series(&script_of(&rev, workers, scaling, power), "reversed");
        assert_same_merge(&csv, &other, "random shard merge");
    }

    #[test]
    fn random_streams_sample_like_the_old_sampler(
        ops in prop::collection::vec((0u8..8, 0u8..30, 0u8..16, 0u8..40), 1..120),
        one_in in 1u64..6,
        top_k in 0usize..5,
    ) {
        let events = stream_of(&ops);
        let s = Sampling::random(one_in, top_k);
        let got = new_sample(&s, &events);
        let want = oracle_sample(&s, &events);
        prop_assert_eq!(&got.1, &want.1);
        prop_assert!(got.0 == want.0, "sampled logs differ on {} events", events.len());
    }
}

/// The random streams reach every case they are meant to.
#[test]
fn random_streams_cover_triggers_ties_and_open_requests() {
    let mut rng = proptest::TestRng::new(9);
    let (mut hedge, mut fault, mut quarantine, mut reservoir, mut open) = (0, 0, 0, 0, 0);
    for _ in 0..200 {
        let ops: Vec<(u8, u8, u8, u8)> = (0..80)
            .map(|_| {
                let r = rng.next_u64();
                ((r % 8) as u8, (r >> 8) as u8 % 30, (r >> 16) as u8 % 16, (r >> 24) as u8 % 40)
            })
            .collect();
        let (_, s) = oracle_sample(&Sampling::random(4, 2), &stream_of(&ops));
        hedge += s.hedge;
        fault += s.fault;
        quarantine += s.quarantine;
        reservoir += s.reservoir;
        open += s.unterminated;
    }
    for (name, n) in [
        ("hedge", hedge),
        ("fault", fault),
        ("quarantine", quarantine),
        ("reservoir", reservoir),
        ("unterminated", open),
    ] {
        assert!(n > 0, "no {name} keeps in 200 random streams");
    }
}
