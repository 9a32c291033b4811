//! Host-time benchmark of the simulator.
//!
//! Four workloads each stress a different layer of the stack (see
//! `README.md`). The untraced run reports the end-to-end metrics; the
//! traced run wraps every layer's public entry points in timing
//! decorators and reports per-layer metrics. Only host time is
//! measured: every virtual-time outcome is checked, never traded.

pub mod alloc;
pub mod args;
pub mod bench;
pub mod calib;
pub mod check;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The result line: one JSON object, printed last.
pub fn result_json(report: &bench::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
