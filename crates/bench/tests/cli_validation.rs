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
fn whatif_rejects_bad_factors_and_loads_with_one_line_and_exit_2() {
    for (flag, value) in [
        ("--factors", "inf"),
        ("--factors", "NaN"),
        ("--factors", "1e-300"),
        ("--factors", "0.5,-1"),
        ("--factors", "1e6"),
        ("--loads", "inf"),
        ("--loads", "1e-300"),
        ("--loads", "0"),
    ] {
        let (code, stderr) = repro(&["whatif", "--scale", "tiny", flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: exit {code:?}, stderr {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: stderr {stderr}");
        assert!(stderr.starts_with(&format!("bad {flag} '{value}'")), "{stderr}");
        assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
    }
}
