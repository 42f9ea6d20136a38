//! The harness binaries keep the shared command-line contract: an
//! unknown flag or a malformed value is a usage error (exit 2, message
//! and usage on stderr, nothing run), and `--help` prints the usage on
//! stdout and exits 0. `paper` and `ablations` used to ignore both.

use std::process::Command;

/// Exit code, stdout and stderr of `bin args…`.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn paper_rejects_an_unknown_flag_instead_of_running_nothing() {
    let (code, out, err) = run(env!("CARGO_BIN_EXE_paper"), &["--frobnicate"]);
    assert_eq!(code, Some(2), "{out}{err}");
    assert!(err.contains("unknown option --frobnicate") && err.contains("USAGE"), "{err}");
    assert!(out.is_empty(), "a usage error runs nothing: {out}");
}

#[test]
fn paper_rejects_a_malformed_scale_instead_of_running_at_paper_scale() {
    let (code, out, err) = run(env!("CARGO_BIN_EXE_paper"), &["--scale", "nope", "table4"]);
    assert_eq!(code, Some(2), "{out}{err}");
    assert!(err.contains("--scale") && err.contains("USAGE"), "{err}");
    assert!(out.is_empty(), "a usage error runs nothing: {out}");
    let (code, _, err) = run(env!("CARGO_BIN_EXE_paper"), &["fig99"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown section fig99"), "{err}");
}

#[test]
fn paper_help_lists_the_sections() {
    let (code, out, _) = run(env!("CARGO_BIN_EXE_paper"), &["--help"]);
    assert_eq!(code, Some(0));
    assert!(out.contains("USAGE") && out.contains("fig16") && out.contains("calibrate"), "{out}");
}

#[test]
fn ablations_rejects_a_malformed_scale() {
    let (code, out, err) = run(env!("CARGO_BIN_EXE_ablations"), &["--scale", "nope"]);
    assert_eq!(code, Some(2), "{out}{err}");
    assert!(err.contains("--scale") && err.contains("USAGE"), "{err}");
    assert!(out.is_empty(), "a usage error runs nothing: {out}");
}
