//! Chrome trace-event JSON exporter.
//!
//! Emits the JSON Array-with-metadata flavour of the [Trace Event
//! Format] that both `chrome://tracing` and [Perfetto] load directly:
//! one track (`tid`) per lane, complete spans as `ph:"X"` events,
//! instants as `ph:"i"`, and the request context under `args` so the
//! viewer's flow/search tools can follow one `request_id` across
//! tracks. The output is built byte-by-byte from integers only, so two
//! runs of the same seeded config serialize identically.
//!
//! Two entry points share one serializer:
//!
//! - [`ChromeWriter`] streams event-at-a-time into any [`io::Write`]
//!   sink with bounded memory (one scratch row, reused), for runs too
//!   large to buffer;
//! - [`chrome_trace`] buffers the whole document into a `String` by
//!   delegating to the same writer, so the buffered and streamed bytes
//!   are identical by construction.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::event::{Event, Lane, Phase};
use crate::prof::WriteStats;
use crate::recorder::EventLog;
use std::io::{self, Write as _};

/// Append `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Microseconds with fixed 3-decimal nanosecond remainder — exact and
/// deterministic (no float formatting).
fn push_us(out: &mut Vec<u8>, ns: u64) {
    push_u64(out, ns / 1_000);
    let rem = (ns % 1_000) as u16;
    let digit = |d: u16| b'0' + d as u8;
    out.extend_from_slice(&[b'.', digit(rem / 100), digit(rem / 10 % 10), digit(rem % 10)]);
}

#[cfg(test)]
fn us(ns: u64) -> String {
    let mut out = Vec::new();
    push_us(&mut out, ns);
    String::from_utf8(out).expect("digits are ASCII")
}

/// Append the `args` object: request context, shed cause, counter value.
fn push_args(out: &mut Vec<u8>, ev: &Event) {
    let open = out.len();
    let ctx = [
        (&b",\"request_id\":"[..], ev.ctx.request_id),
        (b",\"batch_id\":", ev.ctx.batch_id),
        (b",\"worker\":", ev.ctx.worker.map(u64::from)),
    ];
    for (key, value) in ctx {
        if let Some(v) = value {
            out.extend_from_slice(key);
            push_u64(out, v);
        }
    }
    if let Some(c) = ev.cause {
        out.extend_from_slice(b",\"cause\":\"");
        out.extend_from_slice(c.name().as_bytes());
        out.push(b'"');
    }
    if let Some(v) = ev.value {
        out.extend_from_slice(b",\"mw\":");
        push_u64(out, v);
    }
    // The first field's separator becomes the opening brace.
    match out.get_mut(open) {
        Some(sep) => *sep = b'{',
        None => out.push(b'{'),
    }
    out.push(b'}');
}

/// Incremental Chrome-trace serializer over any [`io::Write`] sink.
///
/// Construction writes the document header and one metadata row per
/// lane; [`event`](Self::event) appends one row per call through a
/// reused scratch buffer (memory stays bounded by the longest single
/// row, not the run length); [`finish`](Self::finish) closes the JSON
/// and returns the [`WriteStats`] ledger.
pub struct ChromeWriter<W: io::Write> {
    sink: W,
    lanes: Vec<Lane>,
    /// `lanes[tid].name()`, rendered once.
    names: Vec<String>,
    row: Vec<u8>,
    stats: WriteStats,
}

impl<W: io::Write> ChromeWriter<W> {
    /// Start a trace document over `sink` for the given lane set (track
    /// order and `tid` assignment follow `lanes`; use
    /// [`EventLog::lanes`] for first-appearance order).
    pub fn new(sink: W, lanes: &[Lane]) -> io::Result<ChromeWriter<W>> {
        let names: Vec<String> = lanes.iter().map(|l| l.name()).collect();
        let mut w = ChromeWriter {
            sink,
            lanes: lanes.to_vec(),
            names,
            row: Vec::new(),
            stats: WriteStats::default(),
        };
        w.row.extend_from_slice(
            b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
              {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
              \"args\":{\"name\":\"ncsw\"}}",
        );
        for (tid, (lane, name)) in lanes.iter().zip(&w.names).enumerate() {
            write!(
                w.row,
                ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}\
                 ,\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                lane.sort_rank()
            )?;
        }
        w.flush_row()?;
        Ok(w)
    }

    /// Write the scratch row to the sink and account for it.
    fn flush_row(&mut self) -> io::Result<()> {
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.row.len() as u64);
        self.sink.write_all(&self.row)?;
        self.stats.bytes += self.row.len() as u64;
        Ok(())
    }

    /// Append one event row. Events must belong to a lane passed at
    /// construction; an unknown lane is an error (the document header
    /// with its track metadata is already on the wire).
    pub fn event(&mut self, ev: &Event) -> io::Result<()> {
        let tid = self.lanes.iter().position(|&l| l == ev.lane).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("lane {} not declared to ChromeWriter", ev.lane.name()),
            )
        })?;
        // Counter events: Perfetto keys counter tracks by (pid, name), so
        // the lane's own name doubles as the counter name.
        let (ph, name) = if ev.phase == Phase::PowerSample {
            (b'C', self.names[tid].as_str())
        } else if ev.end.is_some() {
            (b'X', ev.phase.name())
        } else {
            (b'i', ev.phase.name())
        };
        let row = &mut self.row;
        row.clear();
        row.extend_from_slice(b",\n{\"ph\":\"");
        row.push(ph);
        row.extend_from_slice(b"\",\"pid\":0,\"tid\":");
        push_u64(row, tid as u64);
        row.extend_from_slice(b",\"ts\":");
        push_us(row, ev.start.nanos());
        match (ph, ev.end) {
            (b'X', Some(end)) => {
                row.extend_from_slice(b",\"dur\":");
                push_us(row, end.nanos() - ev.start.nanos());
            }
            (b'i', _) => row.extend_from_slice(b",\"s\":\"t\""),
            _ => {}
        }
        row.extend_from_slice(b",\"name\":\"");
        row.extend_from_slice(name.as_bytes());
        row.extend_from_slice(b"\",\"args\":");
        push_args(row, ev);
        row.push(b'}');
        self.flush_row()
    }

    /// Append a `sampling` metadata row carrying the tail-sampling
    /// keep/drop ledger, so `validate-trace` can report what a sampled
    /// trace kept. Only sampled documents carry this row — all-keep and
    /// unsampled exports must stay byte-identical.
    pub fn sampling(&mut self, stats: &crate::sample::SampleStats) -> io::Result<()> {
        self.row.clear();
        write!(
            self.row,
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"sampling\",\"args\":{{\
             \"spec\":\"{}\",\"requests_seen\":{},\"requests_kept\":{},\
             \"slo\":{},\"shed\":{},\"fault\":{},\"hedge\":{},\"quarantine\":{},\
             \"uniform\":{},\"reservoir\":{},\"unterminated\":{},\
             \"events_seen\":{},\"events_kept\":{}}}}}",
            stats.spec,
            stats.requests_seen,
            stats.requests_kept,
            stats.slo,
            stats.shed,
            stats.fault,
            stats.hedge,
            stats.quarantine,
            stats.uniform,
            stats.reservoir,
            stats.unterminated,
            stats.events_seen,
            stats.events_kept,
        )?;
        self.flush_row()
    }

    /// Close the JSON document, flush, and return the write ledger.
    pub fn finish(mut self) -> io::Result<WriteStats> {
        let tail = "\n]}\n";
        self.sink.write_all(tail.as_bytes())?;
        self.stats.bytes += tail.len() as u64;
        self.sink.flush()?;
        Ok(self.stats)
    }
}

/// Stream `log` as a Chrome trace-event JSON document into `sink`.
pub fn chrome_trace_to<W: io::Write>(log: &EventLog, sink: W) -> io::Result<WriteStats> {
    let mut w = ChromeWriter::new(sink, &log.lanes())?;
    for ev in log.events() {
        w.event(ev)?;
    }
    w.finish()
}

/// Serialize `log` as a Chrome trace-event JSON document.
///
/// Buffered convenience over [`chrome_trace_to`]: the bytes are
/// produced by the same streaming writer.
pub fn chrome_trace(log: &EventLog) -> String {
    let mut buf = Vec::new();
    chrome_trace_to(log, &mut buf).expect("Vec<u8> sink cannot fail");
    String::from_utf8(buf).expect("chrome trace is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Ctx, Lane, Phase};
    use crate::recorder::Recorder;
    use desim::SimTime;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1_500), Ctx::request(0)));
        log.record(Event::span(
            Phase::Exec,
            Lane::Vpu { worker: 0, dev: 2 },
            SimTime(2_000),
            SimTime(102_500),
            Ctx::request(0).with_batch(1).with_worker(0),
        ));
        log
    }

    #[test]
    fn exports_tracks_spans_and_instants() {
        let json = chrome_trace(&sample_log());
        assert!(json.contains("\"displayTimeUnit\":\"ms\""), "{json}");
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"server\"}"), "{json}");
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"w0.vpu2\"}"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"ts\":2.000,\"dur\":100.500"), "{json}");
        assert!(json.contains("\"args\":{\"request_id\":0,\"batch_id\":1,\"worker\":0}"), "{json}");
    }

    #[test]
    fn shed_cause_lands_in_args() {
        use crate::event::ShedCause;
        let mut log = EventLog::new();
        log.record(
            Event::instant(Phase::Shed, Lane::Server, SimTime(10), Ctx::request(3))
                .with_cause(ShedCause::Deadline),
        );
        let json = chrome_trace(&log);
        assert!(json.contains("\"args\":{\"request_id\":3,\"cause\":\"deadline\"}"), "{json}");
    }

    #[test]
    fn power_samples_export_as_counter_events() {
        let mut log = EventLog::new();
        log.record(Event::counter(Lane::Power(0), SimTime(0), 172, Ctx::NONE));
        log.record(Event::counter(Lane::Power(0), SimTime(2_000), 900, Ctx::NONE.with_batch(4)));
        let json = chrome_trace(&log);
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"w0.power\"}"), "{json}");
        assert!(
            json.contains("\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"name\":\"w0.power\",\"args\":{\"mw\":172}"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"ts\":2.000,\"name\":\"w0.power\",\"args\":{\"batch_id\":4,\"mw\":900}"
            ),
            "{json}"
        );
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(12_345_678), "12345.678");
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace(&sample_log()), chrome_trace(&sample_log()));
    }

    #[test]
    fn streaming_event_at_a_time_matches_buffered() {
        let log = sample_log();
        let buffered = chrome_trace(&log);
        // Drive the writer one event per call, through a sink that only
        // accepts one byte per write() to exercise short writes too.
        struct OneByte(Vec<u8>);
        impl std::io::Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = OneByte(Vec::new());
        let mut w = ChromeWriter::new(&mut sink, &log.lanes()).unwrap();
        for ev in log.events() {
            w.event(ev).unwrap();
        }
        let stats = w.finish().unwrap();
        let streamed = String::from_utf8(sink.0).unwrap();
        assert_eq!(streamed, buffered);
        assert_eq!(stats.bytes, buffered.len() as u64);
        assert!(stats.peak_buffered > 0);
        assert!(stats.peak_buffered < buffered.len() as u64);
    }

    #[test]
    fn sampling_metadata_row_round_trips_the_ledger() {
        use crate::sample::SampleStats;
        let log = sample_log();
        let stats = SampleStats {
            spec: "1-in-100".into(),
            requests_seen: 200,
            requests_kept: 9,
            slo: 1,
            shed: 2,
            uniform: 3,
            reservoir: 3,
            events_seen: 1000,
            events_kept: 45,
            ..SampleStats::default()
        };
        let mut buf = Vec::new();
        let mut w = ChromeWriter::new(&mut buf, &log.lanes()).unwrap();
        w.sampling(&stats).unwrap();
        for ev in log.events() {
            w.event(ev).unwrap();
        }
        w.finish().unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("\"name\":\"sampling\",\"args\":{\"spec\":\"1-in-100\""), "{json}");
        assert!(json.contains("\"requests_seen\":200,\"requests_kept\":9"), "{json}");
        assert!(json.contains("\"events_seen\":1000,\"events_kept\":45"), "{json}");
    }

    #[test]
    fn unknown_lane_is_an_error() {
        let mut w = ChromeWriter::new(Vec::new(), &[Lane::Server]).unwrap();
        let err = w
            .event(&Event::instant(Phase::Arrive, Lane::Queue, SimTime(0), Ctx::NONE))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
