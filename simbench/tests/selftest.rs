//! Small-size self-test: every workload runs once, untraced and traced,
//! and every metric `BENCHMARK.json` names is printed with its unit.

use serde_json::Value;
use simbench::bench::{self, Plan, Report};
use simbench::workload::Workload;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, key: &str| -> Option<Value> {
        match v {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
            _ => None,
        }
    };
    let string = |v: Option<Value>| match v {
        Some(Value::Str(s)) => s,
        other => panic!("expected a string, got {other:?}"),
    };
    match field(&doc, section) {
        Some(Value::Seq(items)) => {
            items.iter().map(|m| (string(field(m, "name")), string(field(m, "unit")))).collect()
        }
        other => panic!("section {section} is not a list: {other:?}"),
    }
}

/// A plan a fortieth of the workload's size, one round long.
fn small(w: Workload) -> Plan {
    Plan { requests: w.requests() / 40, seconds: 0.0, ..Plan::new(w, 7, 0.0) }
}

fn assert_prints(report: &Report, declared: &[(String, String)]) {
    assert!(report.correct(), "{:?}", report.notes);
    assert!(report.attempted > 0);
    let printed: Vec<(String, String)> =
        report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    assert_eq!(printed, declared, "printed metrics differ from BENCHMARK.json");
    let json: Value = serde_json::from_str(&simbench::result_json(report)).expect("result parses");
    let Value::Map(top) = json else { panic!("result is not an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        assert_prints(&bench::end_to_end(&small(w)), &end_to_end);
        assert_prints(&bench::traced(&small(w)), &per_layer);
    }
}
