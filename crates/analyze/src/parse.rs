//! Chrome trace-event JSON → [`EventLog`].
//!
//! The exporter in `ncsw-obs` is lossless for what the analyzer needs:
//! lanes live in `thread_name` metadata, phases are event names,
//! timestamps are exact microseconds with a 3-decimal nanosecond
//! remainder, and the request context rides in `args`. This module
//! inverts it so `repro analyze` / `repro diff` work from trace files
//! alone — no access to the run that produced them.
//!
//! The parser streams: a byte cursor walks the `traceEvents` array row
//! by row and builds each [`Event`] directly, with no JSON tree in
//! between. Strings are borrowed from the input (owned only when they
//! carry an escape), and only the fields the analyzer reads are
//! decoded — `ph`, `name`, `tid`, `ts`, `dur` and `args.{request_id,
//! batch_id, worker, mw, cause, name}`. Every other value is skipped
//! but still validated, so the whole document must be valid JSON: key
//! order and whitespace are free, a duplicated key keeps its first
//! value, and trailing characters are an error.

use desim::SimTime;
use ncsw_obs::{Ctx, Event, EventLog, Lane, Phase, Recorder, ShedCause};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Exported timestamps are `<us>.<ns%1000>` — exact nanoseconds.
fn ns_of(us: f64) -> u64 {
    (us * 1_000.0).round() as u64
}

/// Parse an exported Chrome trace back into an [`EventLog`]. Strict:
/// unknown phase names, unnamed tracks or malformed timestamps are
/// errors, not skips — a trace that parses here is one the analyzer
/// fully understands.
///
/// Errors rank as a whole-document reader would report them: a JSON
/// syntax error anywhere (`not valid JSON: …`) first, then a missing
/// `traceEvents` array, then the first bad `thread_name` row
/// (`metadata event {i}: …`), then the first bad event row
/// (`event {i}: …`).
pub fn parse_chrome_trace(json: &str) -> Result<EventLog, String> {
    let _prof = ncsw_obs::prof::scope("analyze.parse");
    let first = Builder::default().walk(json)?;
    if first.meta_err.is_some() || !first.late_lanes {
        return first.finish();
    }
    // A `thread_name` row followed an event row, so some events were
    // resolved against an incomplete track table. Replay the events
    // against the final table; every `thread_name` row in it was valid.
    let replay = Builder { lanes: first.lanes, frozen: true, ..Builder::default() };
    replay.walk(json)?.finish()
}

/// Event construction over the decoded rows, in document order.
#[derive(Default)]
struct Builder {
    /// `tid` → lane, with the lane's name cached for the counter check.
    lanes: BTreeMap<u64, (Lane, String)>,
    /// Lanes are final (a replay): `thread_name` rows are not re-read.
    frozen: bool,
    /// Some event row has looked a lane up.
    resolved_any: bool,
    /// A `thread_name` row came after a lane lookup.
    late_lanes: bool,
    meta_err: Option<String>,
    event_err: Option<String>,
    log: EventLog,
}

impl Builder {
    fn walk(mut self, json: &str) -> Result<Builder, String> {
        let mut cur = Cursor { src: json, pos: 0 };
        let found = cur.document(&mut self).map_err(|e| format!("not valid JSON: {e}"))?;
        if !found {
            return Err("missing traceEvents array".to_string());
        }
        Ok(self)
    }

    fn finish(self) -> Result<EventLog, String> {
        match self.meta_err.or(self.event_err) {
            Some(e) => Err(e),
            None => Ok(self.log),
        }
    }

    fn row(&mut self, i: usize, r: &Row<'_>) {
        if r.ph.str() == Some("M") && r.name.str() == Some("thread_name") {
            if !self.frozen && self.meta_err.is_none() {
                if let Err(e) = self.thread_name(i, r) {
                    self.meta_err = Some(e);
                }
            }
            return;
        }
        if self.meta_err.is_none() && self.event_err.is_none() {
            if let Err(e) = self.event(i, r) {
                self.event_err = Some(e);
            }
        }
    }

    fn thread_name(&mut self, i: usize, r: &Row<'_>) -> Result<(), String> {
        let tid =
            r.tid.num().ok_or_else(|| format!("metadata event {i}: missing tid"))?.f64() as u64;
        let name = r
            .args
            .name
            .str()
            .ok_or_else(|| format!("metadata event {i}: thread_name without a name"))?;
        let lane = Lane::parse(name)
            .ok_or_else(|| format!("metadata event {i}: unknown lane {name:?}"))?;
        self.lanes.insert(tid, (lane, lane.name()));
        self.late_lanes |= self.resolved_any;
        Ok(())
    }

    fn event(&mut self, i: usize, r: &Row<'_>) -> Result<(), String> {
        let ph = r.ph.str().ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            return Ok(());
        }
        if ph != "X" && ph != "i" && ph != "C" {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        let tid = r.tid.num().ok_or_else(|| format!("event {i}: missing tid"))?.f64() as u64;
        self.resolved_any = true;
        let (lane, lane_name) = self
            .lanes
            .get(&tid)
            .ok_or_else(|| format!("event {i}: tid {tid} has no thread_name"))?;
        let lane = *lane;
        let ts = r.ts.num().ok_or_else(|| format!("event {i}: missing ts"))?;
        let start = SimTime(ts.ns());
        let a = &r.args;
        let ctx = Ctx {
            request_id: a.request_id.num().map(|v| v.f64() as u64),
            batch_id: a.batch_id.num().map(|v| v.f64() as u64),
            worker: a.worker.num().map(|v| v.f64() as u32),
        };
        let name = r.name.str().ok_or_else(|| format!("event {i}: missing name"))?;
        if ph == "C" {
            // Counter sample: the exporter names it after its own lane
            // and carries the reading in args.mw.
            if name != lane_name {
                return Err(format!("event {i}: counter name {name:?} != lane {lane_name:?}"));
            }
            let mw = a.mw.num().ok_or_else(|| format!("event {i}: counter without args.mw"))?;
            self.log.record(Event::counter(lane, start, mw.f64() as u64, ctx));
            return Ok(());
        }
        let phase =
            Phase::parse(name).ok_or_else(|| format!("event {i}: unknown phase {name:?}"))?;
        let end = if ph == "X" {
            let dur = r.dur.num().ok_or_else(|| format!("event {i}: span without dur"))?;
            if dur.negative() {
                return Err(format!("event {i}: negative dur"));
            }
            let end = start.nanos().checked_add(dur.ns());
            Some(SimTime(end.ok_or_else(|| format!("event {i}: span ends past u64 ns"))?))
        } else {
            None
        };
        let cause = match a.cause.str() {
            Some(c) => {
                Some(ShedCause::parse(c).ok_or_else(|| format!("event {i}: unknown cause {c:?}"))?)
            }
            None => None,
        };
        self.log.record(Event { phase, lane, start, end, ctx, cause, value: None });
        Ok(())
    }
}

/// A validated JSON number, in the three shapes a JSON reader keeps:
/// unsigned and negative integers, and anything else as float text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Num<'a> {
    U64(u64),
    I64(i64),
    F64(&'a str),
}

impl Num<'_> {
    fn f64(self) -> f64 {
        match self {
            Num::U64(u) => u as f64,
            Num::I64(i) => i as f64,
            Num::F64(text) => text.parse().expect("float text was validated when scanned"),
        }
    }

    /// `self.f64() < 0.0`, reading float text only when it has a sign.
    fn negative(self) -> bool {
        match self {
            Num::U64(_) => false,
            Num::I64(i) => i < 0,
            Num::F64(text) => text.starts_with('-') && self.f64() < 0.0,
        }
    }

    /// Microseconds → nanoseconds, exactly `ns_of(self.f64())`. The
    /// exporter's `<us>.<ddd>` form is read as an integer: below 2^50 ns
    /// the float path's two roundings stay within half a nanosecond of
    /// the true value, so rounding it gives back the same integer.
    fn ns(self) -> u64 {
        const EXACT: u64 = 1 << 50;
        let fast = match self {
            Num::U64(us) => us.checked_mul(1_000),
            Num::I64(_) => None,
            Num::F64(text) => decimal_ns(text),
        };
        match fast {
            Some(ns) if ns < EXACT => ns,
            _ => ns_of(self.f64()),
        }
    }
}

/// `<digits>[.<1 to 3 digits>]` microseconds as integer nanoseconds.
fn decimal_ns(text: &str) -> Option<u64> {
    let (int, frac) = text.split_once('.').unwrap_or((text, ""));
    if int.is_empty() || int.len() > 15 || frac.len() > 3 {
        return None;
    }
    let mut ns = 0u64;
    for d in int.bytes().chain(frac.bytes()) {
        if !d.is_ascii_digit() {
            return None;
        }
        ns = ns * 10 + u64::from(d - b'0');
    }
    Some(ns * 10u64.pow(3 - frac.len() as u32))
}

/// One decoded scalar; a value of any other kind is `Other`.
enum Scalar<'a> {
    Str(Cow<'a, str>),
    Num(Num<'a>),
    Other,
}

/// A field of interest: `None` when the key is absent. The first
/// occurrence of a key wins.
#[derive(Default)]
struct Field<'a>(Option<Scalar<'a>>);

impl<'a> Field<'a> {
    fn str(&self) -> Option<&str> {
        match &self.0 {
            Some(Scalar::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<Num<'a>> {
        match self.0 {
            Some(Scalar::Num(n)) => Some(n),
            _ => None,
        }
    }

    fn fill(&mut self, cur: &mut Cursor<'a>) -> Result<(), String> {
        match self.0 {
            Some(_) => cur.skip(),
            None => {
                self.0 = Some(cur.scalar()?);
                Ok(())
            }
        }
    }
}

/// The `args` fields the analyzer reads.
#[derive(Default)]
struct Args<'a> {
    request_id: Field<'a>,
    batch_id: Field<'a>,
    worker: Field<'a>,
    mw: Field<'a>,
    cause: Field<'a>,
    name: Field<'a>,
}

/// One `traceEvents` row: the fields the analyzer reads. A row that is
/// not an object has none of them.
#[derive(Default)]
struct Row<'a> {
    ph: Field<'a>,
    name: Field<'a>,
    tid: Field<'a>,
    ts: Field<'a>,
    dur: Field<'a>,
    /// `args` was present (first occurrence wins, even if it was not an
    /// object — then it carries no fields).
    has_args: bool,
    args: Args<'a>,
}

/// Byte cursor over the document. It accepts exactly the JSON dialect
/// of the workspace's `serde_json` reader, so a document is rejected
/// here iff that reader rejects it.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes().get(self.pos).copied().ok_or_else(|| "unexpected end of JSON input".into())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// The top-level value. Feeds every row of the first `traceEvents`
    /// member to `b` when it is an array; returns whether it was.
    fn document(&mut self, b: &mut Builder) -> Result<bool, String> {
        let mut found = None;
        if self.peek()? == b'{' {
            self.members(|cur, key| {
                if key != "traceEvents" || found.is_some() {
                    return cur.skip();
                }
                found = Some(cur.peek()? == b'[');
                match found {
                    Some(true) => cur.rows(b),
                    _ => cur.skip(),
                }
            })?;
        } else {
            self.skip()?;
        }
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(found == Some(true))
    }

    fn rows(&mut self, b: &mut Builder) -> Result<(), String> {
        let mut i = 0;
        self.elements(|cur| {
            let mut row = Row::default();
            if cur.peek()? == b'{' {
                cur.members(|cur, key| match &*key {
                    "ph" => row.ph.fill(cur),
                    "name" => row.name.fill(cur),
                    "tid" => row.tid.fill(cur),
                    "ts" => row.ts.fill(cur),
                    "dur" => row.dur.fill(cur),
                    "args" if !row.has_args => {
                        row.has_args = true;
                        if cur.peek()? != b'{' {
                            return cur.skip();
                        }
                        let a = &mut row.args;
                        cur.members(|cur, key| match &*key {
                            "request_id" => a.request_id.fill(cur),
                            "batch_id" => a.batch_id.fill(cur),
                            "worker" => a.worker.fill(cur),
                            "mw" => a.mw.fill(cur),
                            "cause" => a.cause.fill(cur),
                            "name" => a.name.fill(cur),
                            _ => cur.skip(),
                        })
                    }
                    _ => cur.skip(),
                })?;
            } else {
                cur.skip()?;
            }
            b.row(i, &row);
            i += 1;
            Ok(())
        })
    }

    /// `[ … ]`, calling `each` with the cursor on every element.
    fn elements(
        &mut self,
        mut each: impl FnMut(&mut Cursor<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            each(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(());
                }
                c => return Err(format!("expected `,` or `]`, found `{}`", c as char)),
            }
        }
    }

    /// `{ … }`, calling `each` with every key and the cursor on its
    /// value; `each` must consume the value.
    fn members(
        &mut self,
        mut each: impl FnMut(&mut Cursor<'a>, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            each(self, key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(());
                }
                c => return Err(format!("expected `,` or `}}`, found `{}`", c as char)),
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek()? {
            b'"' => Ok(Scalar::Str(self.string()?)),
            b'n' | b't' | b'f' | b'[' | b'{' => self.skip().map(|()| Scalar::Other),
            _ => Ok(Scalar::Num(self.number()?)),
        }
    }

    /// Consume and validate one value of any kind.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            b'n' => self.keyword("null"),
            b't' => self.keyword("true"),
            b'f' => self.keyword("false"),
            b'"' => self.string().map(drop),
            b'[' => self.elements(Cursor::skip),
            b'{' => self.members(|cur, _| cur.skip()),
            _ => self.number().map(drop),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// End of the unescaped run starting at `from`: the next `"` or
    /// `\\`, or the end of input.
    fn run_end(&self, from: usize) -> usize {
        let bytes = &self.bytes()[from..];
        from + bytes.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(bytes.len())
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let (start, bytes) = (self.pos, self.bytes());
        let end = self.run_end(start);
        if bytes.get(end) == Some(&b'"') {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&self.src[start..end]));
        }
        // Escaped (or unterminated): build an owned copy.
        let mut out = String::new();
        loop {
            let from = self.pos;
            self.pos = self.run_end(from);
            out.push_str(&self.src[from..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex =
                                bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("invalid \\u escape")?;
                            // Surrogates (never produced by the exporter)
                            // read as U+FFFD.
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        c => return Err(format!("invalid escape `\\{}`", c as char)),
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Num<'a>, String> {
        let start = self.pos;
        if self.bytes().get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.bytes().get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(format!("invalid JSON value at byte {start}"));
        }
        let invalid = || format!("invalid number `{text}`");
        if is_float {
            // `<digits>.<digits>` is always valid float text; anything
            // else is checked by the float reader itself.
            let plain =
                text.strip_prefix('-').unwrap_or(text).split_once('.').is_some_and(|(i, f)| {
                    !i.is_empty()
                        && !f.is_empty()
                        && i.bytes().chain(f.bytes()).all(|d| d.is_ascii_digit())
                });
            if plain || text.parse::<f64>().is_ok() {
                Ok(Num::F64(text))
            } else {
                Err(invalid())
            }
        } else if text.starts_with('-') {
            text.parse().map(Num::I64).map_err(|_| invalid())
        } else {
            text.parse().map(Num::U64).map_err(|_| invalid())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw_obs::chrome_trace;

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

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
        log.record(
            Event::span(Phase::Shed, Lane::Queue, t(1), t(5), Ctx::request(9))
                .with_cause(ShedCause::Evicted),
        );
        log.record(Event::counter(
            Lane::Power(0),
            SimTime(2_000),
            900,
            Ctx::NONE.with_batch(1).with_worker(0),
        ));
        log
    }

    #[test]
    fn export_parse_round_trip_is_lossless() {
        let log = sample_log();
        let back = parse_chrome_trace(&chrome_trace(&log)).expect("own export must parse");
        assert_eq!(back.events(), log.events());
    }

    #[test]
    fn strict_about_unknown_names() {
        let json = chrome_trace(&sample_log());
        let bad = json.replace("\"name\":\"Arrive\"", "\"name\":\"Arrived\"");
        assert!(parse_chrome_trace(&bad).unwrap_err().contains("unknown phase"));
        let bad = json.replace("\"cause\":\"evicted\"", "\"cause\":\"vibes\"");
        assert!(parse_chrome_trace(&bad).unwrap_err().contains("unknown cause"));
        // A span ending past 2^64 ns is rejected, not wrapped.
        let bad = json.replace("\"dur\":100.500", "\"dur\":18446744073709551.615");
        assert_eq!(parse_chrome_trace(&bad).unwrap_err(), "event 10: span ends past u64 ns");
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
    }

    #[test]
    fn integer_ns_path_matches_the_float_path() {
        // The exporter's `<us>.<ddd>` text read as an integer must give
        // the very nanosecond count `ns_of(f64)` gives, up to the 2^50
        // cut-over and across it.
        let mut cases: Vec<u64> = (0..5_000).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for shift in [20, 30, 40, 44, 47, 49, 50, 51, 53, 60] {
            for _ in 0..2_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                cases.push(x >> (64 - shift));
            }
            cases.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        for ns in cases {
            for text in [
                format!("{}.{:03}", ns / 1_000, ns % 1_000),
                format!("{}.{}", ns / 1_000, (ns % 1_000) / 100),
                format!("{}", ns / 1_000),
            ] {
                let mut cur = Cursor { src: &text, pos: 0 };
                let num = cur.number().unwrap();
                let want = ns_of(text.parse::<f64>().unwrap());
                assert_eq!(num.ns(), want, "{text}");
            }
        }
    }

    #[test]
    fn numbers_keep_the_json_readers_shapes() {
        fn num(s: &str) -> Result<Num<'_>, String> {
            Cursor { src: s, pos: 0 }.number()
        }
        assert_eq!(num("17"), Ok(Num::U64(17)));
        assert_eq!(num("-17"), Ok(Num::I64(-17)));
        assert_eq!(num("1.5"), Ok(Num::F64("1.5")));
        assert_eq!(num("1e3").map(Num::f64), Ok(1000.0));
        assert_eq!(num("+1").map(Num::f64), Ok(1.0));
        assert!(num("18446744073709551616").is_err());
        assert!(num("1.2.3").is_err());
        assert!(num("-").is_err());
        assert_eq!(num("-0.5").map(Num::ns), Ok(0));
        assert_eq!(num("1e-3").map(Num::ns), Ok(1));
    }
}
