//! Bad numeric flags die at the parse boundary: one line on stderr and
//! exit code 2, never a panic or a backtrace.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("run repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_numeric_flags_print_one_line_and_exit_2() {
    for (cmd, flag, value) in [
        ("whatif", "--factors", "inf"),
        ("whatif", "--factors", "NaN"),
        ("whatif", "--factors", "1e-300"),
        ("whatif", "--factors", "0.5,-1"),
        ("whatif", "--factors", "1e6"),
        ("whatif", "--loads", "inf"),
        ("whatif", "--loads", "1e-300"),
        ("whatif", "--loads", "0"),
        ("serve", "--slo-ms", "-1"),
        ("serve", "--slo-ms", "NaN"),
        ("serve", "--slo-ms", "inf"),
        ("serve", "--slo-ms", "0"),
        ("serve", "--sample-ms", "0"),
        ("serve", "--sample-ms", "NaN"),
        ("serve", "--sample-ms", "1e-300"),
        ("serve", "--sample-ms", "x"),
        ("diff", "--abs-ms", "-1"),
        ("diff", "--abs-ms", "inf"),
        ("diff", "--rel-pct", "NaN"),
        ("diff", "--rel-pct", "-5"),
        ("bench-diff", "--tol-pct", "NaN"),
        ("bench-diff", "--tol-pct", "inf"),
        ("whatif", "--tol-pct", "-1"),
    ] {
        let (code, stderr) = repro(&[cmd, "--scale", "tiny", flag, value]);
        assert_eq!(code, Some(2), "{cmd} {flag} {value}: exit {code:?}, stderr {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{cmd} {flag} {value}: stderr {stderr}");
        assert!(stderr.starts_with(&format!("bad {flag} '{value}'")), "{stderr}");
        assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
    }
}
