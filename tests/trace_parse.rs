//! The streaming Chrome-trace parser against the DOM-walking reader it
//! replaced, kept here unchanged as a test oracle. On real exported
//! traces — and on whitespace-reformatted and key-reordered copies of
//! them — both must build equal `EventLog`s; on a corpus of single-fault
//! mutations both must accept or reject together, with the oracle's
//! exact message for every semantic error.

use desim::Duration;
use ncsw::ModelBundle;
use ncsw_analyze::parse_chrome_trace;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_obs::{ChromeWriter, EventLog};
use ncsw_serve::{
    serve_autoscaled_observed, serve_observed, ArrivalProcess, DispatchPolicy, FleetSpec,
    GrayConfig, ObsConfig, SamplePolicy, ScalingConfig, ServeConfig, ServeObservation,
};
use serde_json::Value;
use vpu_nn::googlenet::Variant;

/// The tree-building reader `parse_chrome_trace` used before it
/// streamed, verbatim.
mod dom_oracle {
    use desim::SimTime;
    use ncsw_obs::{Ctx, Event, EventLog, Lane, Phase, Recorder, ShedCause};
    use serde_json::Value;
    use std::collections::BTreeMap;

    fn number(v: &Value) -> Option<f64> {
        match v {
            Value::U64(u) => Some(*u as f64),
            Value::I64(i) => Some(*i as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// Exported timestamps are `<us>.<ns%1000>` — exact nanoseconds.
    fn ns_of(us: f64) -> u64 {
        (us * 1_000.0).round() as u64
    }

    /// Parse an exported Chrome trace back into an [`EventLog`]. Strict:
    /// unknown phase names, unnamed tracks or malformed timestamps are
    /// errors, not skips — a trace that parses here is one the analyzer
    /// fully understands.
    pub fn parse_chrome_trace(json: &str) -> Result<EventLog, String> {
        let _prof = ncsw_obs::prof::scope("analyze.parse");
        let doc: Value =
            serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_seq)
            .ok_or("missing traceEvents array".to_string())?;

        // First pass: tid → lane from thread_name metadata.
        let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            if ev.get("ph").and_then(Value::as_str) != Some("M")
                || ev.get("name").and_then(Value::as_str) != Some("thread_name")
            {
                continue;
            }
            let tid =
                ev.get("tid").and_then(number).ok_or(format!("metadata event {i}: missing tid"))?
                    as u64;
            let name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .ok_or(format!("metadata event {i}: thread_name without a name"))?;
            let lane =
                Lane::parse(name).ok_or(format!("metadata event {i}: unknown lane {name:?}"))?;
            lanes.insert(tid, lane);
        }

        let mut log = EventLog::new();
        for (i, ev) in events.iter().enumerate() {
            let ph =
                ev.get("ph").and_then(Value::as_str).ok_or(format!("event {i}: missing ph"))?;
            if ph == "M" {
                continue;
            }
            if ph != "X" && ph != "i" && ph != "C" {
                return Err(format!("event {i}: unexpected ph {ph:?}"));
            }
            let tid =
                ev.get("tid").and_then(number).ok_or(format!("event {i}: missing tid"))? as u64;
            let lane =
                *lanes.get(&tid).ok_or(format!("event {i}: tid {tid} has no thread_name"))?;
            let ts = ev.get("ts").and_then(number).ok_or(format!("event {i}: missing ts"))?;
            let start = SimTime(ns_of(ts));
            let args = ev.get("args");
            let arg = |k: &str| args.and_then(|a| a.get(k)).and_then(number);
            if ph == "C" {
                // Counter sample: the exporter names it after its own lane
                // and carries the reading in args.mw.
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or(format!("event {i}: missing name"))?;
                if name != lane.name() {
                    return Err(format!(
                        "event {i}: counter name {name:?} != lane {:?}",
                        lane.name()
                    ));
                }
                let mw = arg("mw").ok_or(format!("event {i}: counter without args.mw"))?;
                let ctx = Ctx {
                    request_id: arg("request_id").map(|v| v as u64),
                    batch_id: arg("batch_id").map(|v| v as u64),
                    worker: arg("worker").map(|v| v as u32),
                };
                log.record(Event::counter(lane, start, mw as u64, ctx));
                continue;
            }
            let name =
                ev.get("name").and_then(Value::as_str).ok_or(format!("event {i}: missing name"))?;
            let phase = Phase::parse(name).ok_or(format!("event {i}: unknown phase {name:?}"))?;
            let end = if ph == "X" {
                let dur =
                    ev.get("dur").and_then(number).ok_or(format!("event {i}: span without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                Some(SimTime(start.nanos() + ns_of(dur)))
            } else {
                None
            };
            let ctx = Ctx {
                request_id: arg("request_id").map(|v| v as u64),
                batch_id: arg("batch_id").map(|v| v as u64),
                worker: arg("worker").map(|v| v as u32),
            };
            let cause = match args.and_then(|a| a.get("cause")).and_then(Value::as_str) {
                Some(c) => {
                    Some(ShedCause::parse(c).ok_or(format!("event {i}: unknown cause {c:?}"))?)
                }
                None => None,
            };
            let mut event = Event { phase, lane, start, end, ctx, cause: None, value: None };
            if let Some(c) = cause {
                event = event.with_cause(c);
            }
            log.record(event);
        }
        Ok(log)
    }
}

/// Export an observation the way `repro` does: the sampling metadata
/// row rides along when the run was tail-sampled.
fn export(obs: &ServeObservation) -> String {
    let mut buf = Vec::new();
    let mut w = ChromeWriter::new(&mut buf, &obs.events.lanes()).unwrap();
    for ev in obs.events.events() {
        w.event(ev).unwrap();
    }
    if let Some(stats) = obs.sample.as_ref().filter(|s| !s.keeps_all()) {
        w.sampling(stats).unwrap();
    }
    w.finish().unwrap();
    String::from_utf8(buf).unwrap()
}

/// An observed run of `n` seeded Poisson arrivals at `load` × the
/// fleet's nameplate capacity.
fn observed_trace(fleet: &str, load: f64, n: usize) -> String {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse(fleet).unwrap();
    let mut workers = spec.build(&model);
    let rate_per_sec = spec.capacity_rps(&workers) * load;
    let cfg = ServeConfig {
        max_batch: spec.preferred_batch(&workers),
        policy: DispatchPolicy::LeastOutstanding,
        seed: 2012,
        ..ServeConfig::default()
    };
    let process = ArrivalProcess::Poisson { rate_per_sec };
    let (_, obs) = serve_observed(&mut workers, &cfg, &process, n, &ObsConfig::default());
    export(&obs)
}

/// An elastic `8*vpu` fleet under a reactive controller, with gray
/// defenses, a five-kind fault cocktail and 1-in-25 tail sampling, with
/// a queue short enough that admission control sheds.
fn chaos_trace() -> String {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse("8*vpu").unwrap();
    let probe = spec.build(&model);
    let rate_per_sec = spec.capacity_rps(&probe) * 0.6;
    let cfg = ServeConfig {
        max_batch: spec.preferred_batch(&probe),
        seed: 2012,
        gray: GrayConfig::defended(),
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let ms = Duration::from_millis;
    let mut plan = FaultPlan::empty();
    plan.push(Some(7), FaultEvent::StickUnplug { at: ms(100.0), reconnect_after: Some(ms(200.0)) });
    plan.push(Some(0), FaultEvent::TransientExecError { per_batch_prob: 0.05 });
    plan.push(Some(3), FaultEvent::FailSlow { at: ms(100.0), duration: ms(2_000.0), factor: 6.0 });
    plan.push(Some(1), FaultEvent::ResultCorrupt { per_image_prob: 0.05 });
    plan.push(Some(5), FaultEvent::DuplicateCompletion { per_image_prob: 0.05 });
    let mut workers = plan.apply(spec.build(&model), cfg.seed);
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
    let mut policy = ncsw_ctrl::policy("reactive").unwrap();
    let ocfg =
        ObsConfig { sample: Some(SamplePolicy::parse("1-in-25").unwrap()), ..ObsConfig::default() };
    let process = ArrivalProcess::Poisson { rate_per_sec };
    let (_, obs) = serve_autoscaled_observed(
        &mut workers,
        &cfg,
        &process,
        1_500,
        &scaling,
        policy.as_mut(),
        &ocfg,
    );
    export(&obs)
}

/// `v` with the keys of every object in reverse order.
fn reversed_keys(v: Value) -> Value {
    match v {
        Value::Map(entries) => {
            Value::Map(entries.into_iter().rev().map(|(k, v)| (k, reversed_keys(v))).collect())
        }
        Value::Seq(items) => Value::Seq(items.into_iter().map(reversed_keys).collect()),
        other => other,
    }
}

/// The same document laid out two other ways: pretty-printed with
/// every kind of JSON whitespace (floats re-rendered shortest-form, so
/// `2.000` reads back as `2.0`), and compact with every object's keys
/// reversed.
fn relayouts(json: &str) -> [String; 2] {
    let doc: Value = serde_json::from_str(json).unwrap();
    let spaced = serde_json::to_string_pretty(&doc).unwrap().replace('\n', "\r\n\t");
    let reordered = serde_json::to_string(&reversed_keys(doc)).unwrap();
    [spaced, reordered]
}

fn assert_same_log(json: &str, want: &EventLog, what: &str) {
    match parse_chrome_trace(json) {
        Ok(log) => assert!(log == *want, "{what}: streaming parse differs from the oracle"),
        Err(e) => panic!("{what}: streaming parse failed: {e}"),
    }
}

/// Both parsers, and both again on the two re-laid-out copies.
fn assert_differential(json: &str, what: &str) {
    let want = dom_oracle::parse_chrome_trace(json).expect("oracle parses the export");
    assert!(!want.events().is_empty(), "{what}: empty trace");
    assert_same_log(json, &want, what);
    for (variant, name) in relayouts(json).iter().zip(["whitespace", "key-reordered"]) {
        assert_ne!(variant, json);
        let oracle = dom_oracle::parse_chrome_trace(variant).expect("oracle parses the variant");
        assert!(oracle == want, "{what}/{name}: the oracle itself is layout-dependent");
        assert_same_log(variant, &want, &format!("{what}/{name}"));
    }
}

#[test]
fn streaming_parse_equals_the_dom_oracle_on_host_fleet_traces() {
    let json = observed_trace("cpu+gpu", 0.8, 8_000);
    assert!(json.contains("\"ph\":\"C\""), "power counters expected");
    assert_differential(&json, "cpu+gpu");
}

#[test]
fn streaming_parse_equals_the_dom_oracle_on_mixed_vpu_fleet_traces() {
    let json = observed_trace("cpu+gpu+8xvpu", 0.8, 2_000);
    assert!(json.contains("\"name\":\"UsbWrite\""), "VPU device spans expected");
    assert_differential(&json, "cpu+gpu+8xvpu");
}

#[test]
fn streaming_parse_equals_the_dom_oracle_on_a_chaos_sampled_trace() {
    let json = chaos_trace();
    for name in ["sampling", "Shed", "Hedge", "IntegrityFail", "Failover", "ScaleDown"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "chaos trace should carry {name}");
    }
    assert_differential(&json, "8*vpu chaos");
}

/// `base` with the first match of `at` replaced by `with`.
fn edit(base: &str, at: &str, with: &str) -> String {
    assert!(base.contains(at), "mutation anchor {at:?} not in trace");
    base.replacen(at, with, 1)
}

/// How the oracle is expected to take a mutation.
enum Want {
    Ok,
    Syntax,
    /// A semantic error whose message starts with this.
    Semantic(&'static str),
}

#[test]
fn both_parsers_accept_and_reject_the_same_mutations() {
    // A small overloaded host run: spans, instants, counters and sheds.
    let base = observed_trace("cpu+gpu", 2.0, 300);
    assert!(base.contains("\"cause\":\"") && base.contains("\"ph\":\"C\""));
    let row_at = |at: usize| {
        let from = base[..at].rfind('\n').unwrap() + 1;
        &base[from..from + base[from..].find('\n').unwrap()]
    };
    let span = row_at(base.find("{\"ph\":\"X\"").unwrap()).trim_end_matches(',');
    let counter = row_at(base.find("{\"ph\":\"C\"").unwrap()).trim_end_matches(',');
    let meta = |tid: u32, lane: &str| {
        format!("{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{lane}\"}}}}")
    };
    let append = |row: &str| base.replacen("\n]}", &format!(",\n{row}\n]}}"), 1);
    let late = edit(&append(&meta(1, "queue")), &format!(",\n{}", meta(1, "queue")), "");
    let ts = {
        let from = span.find("\"ts\":").unwrap();
        &span[from..from + span[from..].find(',').unwrap()]
    };
    let dur_at = span.find("\"dur\":").unwrap() + 6;
    let with_span = |new: String| edit(&base, span, &new);
    let with_counter = |new: String| edit(&base, counter, &new);

    let cases: Vec<(&str, String, Want)> = vec![
        ("unchanged", base.clone(), Want::Ok),
        ("truncated", base[..base.len() / 2].to_string(), Want::Syntax),
        ("trailing garbage", format!("{base}x"), Want::Syntax),
        ("second document", format!("{base}{{}}"), Want::Syntax),
        ("empty input", String::new(), Want::Syntax),
        ("not a document", "[1, 2]".into(), Want::Semantic("missing traceEvents array")),
        (
            "missing traceEvents",
            edit(&base, "traceEvents", "traceEventz"),
            Want::Semantic("missing"),
        ),
        ("traceEvents not an array", "{\"traceEvents\":{}}".into(), Want::Semantic("missing")),
        (
            "first traceEvents wins",
            edit(&base, "{\"displayTimeUnit", "{\"traceEvents\":7,\"displayTimeUnit"),
            Want::Semantic("missing"),
        ),
        (
            "later traceEvents ignored",
            base.replacen("\n]}", "\n],\"traceEvents\":[{}]}", 1),
            Want::Ok,
        ),
        ("non-object row", edit(&base, span, &format!("42,\n{span}")), Want::Semantic("event ")),
        (
            "ts as a string",
            with_span(
                span.replacen(ts, &ts.replacen(':', ":\"", 1), 1).replacen(",\"dur", "\",\"dur", 1),
            ),
            Want::Semantic("event "),
        ),
        (
            "negative dur",
            with_span(format!("{}-{}", &span[..dur_at], &span[dur_at..])),
            Want::Semantic("event "),
        ),
        (
            "negative zero dur",
            with_span(format!("{}-0.0,\"dur\":{}", &span[..dur_at], &span[dur_at..])),
            Want::Ok,
        ),
        (
            "unknown phase",
            with_span(span.replacen("\"name\":\"", "\"name\":\"Zz", 1)),
            Want::Semantic("event "),
        ),
        ("unexpected ph", with_span(span.replacen("\"X\"", "\"B\"", 1)), Want::Semantic("event ")),
        ("missing ph", with_span(span.replacen("\"ph\":", "\"pH\":", 1)), Want::Semantic("event ")),
        (
            "ph not a string",
            with_span(span.replacen("\"X\"", "[\"X\"]", 1)),
            Want::Semantic("event "),
        ),
        ("unknown cause", edit(&base, "\"cause\":\"", "\"cause\":\"zz"), Want::Semantic("event ")),
        (
            "unknown lane",
            edit(&base, "{\"name\":\"queue\"}", "{\"name\":\"qeue\"}"),
            Want::Semantic("metadata event "),
        ),
        (
            "thread_name without a name",
            edit(&base, "{\"name\":\"queue\"}", "{\"nam\":\"queue\"}"),
            Want::Semantic("metadata event "),
        ),
        (
            "counter name != lane",
            with_counter(counter.replacen("\"name\":\"w", "\"name\":\"w9", 1)),
            Want::Semantic("event "),
        ),
        (
            "counter without mw",
            with_counter(counter.replacen("\"mw\":", "\"mW\":", 1)),
            Want::Semantic("event "),
        ),
        (
            "tid without thread_name",
            with_span(span.replacen("\"tid\":", "\"tid\":900", 1)),
            Want::Semantic("event "),
        ),
        ("thread_name after its events", late, Want::Ok),
        ("thread_name redefined after its events", append(&meta(1, "alerts")), Want::Ok),
        (
            "late thread_name of an unknown lane",
            append(&meta(1, "nope")),
            Want::Semantic("metadata"),
        ),
        (
            "a metadata error outranks an earlier event error",
            edit(&append(&meta(1, "nope")), span, &span.replacen("\"X\"", "\"B\"", 1)),
            Want::Semantic("metadata"),
        ),
        (
            "the first of two event errors wins",
            edit(&append("{\"ph\":\"Q\"}"), span, &span.replacen("\"X\"", "\"B\"", 1)),
            Want::Semantic("event "),
        ),
        (
            "escaped strings",
            with_span(span.replacen("\"name\":\"", "\"n\\u0061me\":\"\\u0020", 1)).replacen(
                "\"ph\":\"M\"",
                "\"ph\":\"\\u004d\"",
                3,
            ),
            Want::Semantic("event "),
        ),
        (
            "escaped name that still reads as the phase",
            with_span({
                let at = span.find("\"name\":\"").unwrap() + 8;
                format!("{}\\u{:04x}{}", &span[..at], span.as_bytes()[at], &span[at + 1..])
            }),
            Want::Ok,
        ),
        (
            "invalid escape",
            with_span(span.replacen("\"name\":\"", "\"name\":\"\\q", 1)),
            Want::Syntax,
        ),
        (
            "duplicated key, first wins",
            with_span(span.replacen("\"ph\":\"X\"", "\"ph\":\"X\",\"ph\":\"Q\"", 1)),
            Want::Ok,
        ),
        (
            "duplicated key, bad first",
            with_span(span.replacen("\"ph\":\"X\"", "\"ph\":\"Q\",\"ph\":\"X\"", 1)),
            Want::Semantic("event "),
        ),
        (
            "duplicated args, first wins",
            with_span(span.replacen("\"args\":", "\"args\":7,\"args\":", 1)),
            Want::Ok,
        ),
        (
            "nested junk in a skipped field",
            with_span(span.replacen(
                "\"pid\":0",
                "\"pid\":{\"a\":[1,-2,{\"b\":null}],\"c\":true}",
                1,
            )),
            Want::Ok,
        ),
        ("bad literal", with_span(span.replacen("\"pid\":0", "\"pid\":nul", 1)), Want::Syntax),
        (
            "u64 overflow",
            with_span(span.replacen("\"pid\":0", "\"pid\":18446744073709551616", 1)),
            Want::Syntax,
        ),
        (
            "exponent and sign forms",
            with_span(span.replacen(ts, "\"ts\":+1e3", 1).replacen(
                "\"pid\":0",
                "\"pid\":-0.0e0",
                1,
            )),
            Want::Ok,
        ),
        ("malformed float", with_span(span.replacen(ts, "\"ts\":1.2.3", 1)), Want::Syntax),
        ("missing colon", with_span(span.replacen("\"pid\":0", "\"pid\"0", 1)), Want::Syntax),
        ("double comma", with_span(span.replacen("\"pid\":0", "\"pid\":0,", 1)), Want::Syntax),
    ];
    for (what, json, want) in cases {
        let old = dom_oracle::parse_chrome_trace(&json);
        let new = parse_chrome_trace(&json);
        match (&want, &old) {
            (Want::Ok, Ok(_)) => {}
            (Want::Syntax, Err(e)) if e.starts_with("not valid JSON") => {}
            (Want::Semantic(p), Err(e)) if e.starts_with(p) && !e.starts_with("not valid") => {}
            _ => panic!("{what}: the mutation did not do what it meant to: oracle gave {old:?}"),
        }
        match (old, new) {
            (Ok(a), Ok(b)) => assert!(a == b, "{what}: logs differ"),
            (Err(a), Err(b)) if a.starts_with("not valid JSON") => {
                assert!(b.starts_with("not valid JSON"), "{what}: {b:?} for oracle {a:?}")
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
            (a, b) => panic!("{what}: oracle {:?} vs streaming {:?}", a.map(|_| ()), b.map(|_| ())),
        }
    }
}
