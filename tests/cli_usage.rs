//! CLI hardening regression: every binary must reject unknown or
//! malformed flags with a nonzero exit and a usage string on stderr —
//! and `--help` must succeed. `ir32` used to silently ignore unknown
//! `--flags`; these tests pin the hardened behavior.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fleetbench_rejects_unknown_and_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_fleetbench");
    let (ok, _, err) = run(bin, &["--frobnicate"]);
    assert!(!ok, "unknown flag must exit nonzero");
    assert!(err.contains("unknown option --frobnicate") && err.contains("USAGE"), "{err}");
    let (ok, _, err) = run(bin, &["--shards", "zero"]);
    assert!(!ok && err.contains("--shards"), "{err}");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("USAGE"), "{out}");
}

#[test]
fn fleetbench_validates_replica_flags() {
    let bin = env!("CARGO_BIN_EXE_fleetbench");
    for k in ["0", "4", "-1", "three"] {
        let (ok, _, err) = run(bin, &["--replicas", k]);
        assert!(!ok, "--replicas {k} must exit nonzero");
        assert!(err.contains("--replicas") && err.contains("USAGE"), "{err}");
    }
    for n in ["0", "1000001", "soon"] {
        let (ok, _, err) = run(bin, &["--rejuvenate-every", n]);
        assert!(!ok, "--rejuvenate-every {n} must exit nonzero");
        assert!(err.contains("--rejuvenate-every") && err.contains("USAGE"), "{err}");
    }
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("--replicas K"), "usage must document replication: {out}");
}

#[test]
fn fleetd_validates_replica_flags() {
    let bin = env!("CARGO_BIN_EXE_fleetd");
    for k in ["0", "4", "-1"] {
        let (ok, _, err) = run(bin, &["--state", "d", "--replicas", k]);
        assert!(!ok, "--replicas {k} must exit nonzero");
        assert!(err.contains("--replicas") && err.contains("USAGE"), "{err}");
    }
    for n in ["0", "1000001"] {
        let (ok, _, err) = run(bin, &["--state", "d", "--rejuvenate-every", n]);
        assert!(!ok, "--rejuvenate-every {n} must exit nonzero");
        assert!(err.contains("[1, 1000000]") && err.contains("USAGE"), "{err}");
    }
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("--replicas K"), "usage must document replication: {out}");
}

/// `--no-superblocks` must parse on both fleet CLIs and be documented
/// in their usage strings (it is persisted to the run metadata, so a
/// typo silently running the wrong engine would poison replay).
#[test]
fn fleet_clis_accept_no_superblocks() {
    let bin = env!("CARGO_BIN_EXE_fleetbench");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("--no-superblocks"), "fleetbench usage must document it: {out}");
    let (ok, _, err) = run(bin, &["--no-superblocks", "--shards", "zero"]);
    assert!(!ok && err.contains("--shards"), "flag must parse, later error still trips: {err}");

    let bin = env!("CARGO_BIN_EXE_fleetd");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("--no-superblocks"), "fleetd usage must document it: {out}");
    let (ok, _, err) = run(bin, &["--no-superblocks", "--port", "1"]);
    assert!(!ok && err.contains("--state"), "flag must parse, later error still trips: {err}");
}

/// `--no-compartments` must parse on every CLI that persists or
/// measures the compartment setting: the flag travels through run
/// metadata (fleetbench/fleetd) and labels benchmark output
/// (compartmentbench), so all three must know it.
#[test]
fn fleet_clis_accept_no_compartments() {
    let bin = env!("CARGO_BIN_EXE_fleetbench");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("--no-compartments"), "fleetbench usage must document it: {out}");
    let (ok, _, err) = run(bin, &["--no-compartments", "--shards", "zero"]);
    assert!(!ok && err.contains("--shards"), "flag must parse, later error still trips: {err}");

    let bin = env!("CARGO_BIN_EXE_fleetd");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("--no-compartments"), "fleetd usage must document it: {out}");
    let (ok, _, err) = run(bin, &["--no-compartments", "--port", "1"]);
    assert!(!ok && err.contains("--state"), "flag must parse, later error still trips: {err}");
}

#[test]
fn compartmentbench_rejects_unknown_and_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_compartmentbench");
    let (ok, _, err) = run(bin, &["--frobnicate"]);
    assert!(!ok, "unknown flag must exit nonzero");
    assert!(err.contains("unknown option --frobnicate") && err.contains("USAGE"), "{err}");
    let (ok, _, err) = run(bin, &["--assert-discards-min", "lots"]);
    assert!(!ok && err.contains("--assert-discards-min"), "{err}");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("USAGE") && out.contains("--assert-benign-lost-max"), "{out}");
}

#[test]
fn fleetd_rejects_unknown_and_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_fleetd");
    let (ok, _, err) = run(bin, &["--state", "d", "--bogus"]);
    assert!(!ok, "unknown flag must exit nonzero");
    assert!(err.contains("unknown option --bogus") && err.contains("USAGE"), "{err}");
    let (ok, _, err) = run(bin, &["--port", "1"]);
    assert!(!ok && err.contains("--state"), "missing --state must fail: {err}");
    let (ok, _, err) = run(bin, &["--state", "d", "--app", "notepad"]);
    assert!(!ok && err.contains("unknown service"), "{err}");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("USAGE"), "{out}");
}

#[test]
fn loadgen_rejects_unknown_and_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_loadgen");
    let (ok, _, err) = run(bin, &["--addr", "x", "--frobnicate"]);
    assert!(!ok, "unknown flag must exit nonzero");
    assert!(err.contains("unknown option --frobnicate") && err.contains("USAGE"), "{err}");
    let (ok, _, err) = run(bin, &[]);
    assert!(!ok && err.contains("--addr"), "missing --addr must fail: {err}");
    let (ok, _, err) = run(bin, &["--addr", "x", "--rates", "0"]);
    assert!(!ok && err.contains("--rates"), "{err}");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("USAGE"), "{out}");
}

#[test]
fn ir32_rejects_unknown_flags_instead_of_ignoring_them() {
    let bin = env!("CARGO_BIN_EXE_ir32");
    let (ok, _, err) = run(bin, &["lint", "--app", "httpd", "--bogus"]);
    assert!(!ok, "unknown flag must exit nonzero");
    assert!(err.contains("unknown option --bogus") && err.contains("usage"), "{err}");
    let (ok, _, err) = run(bin, &["run", "prog.s", "--req"]);
    assert!(!ok && err.contains("--req needs a value"), "{err}");
    let (ok, _, err) = run(bin, &["asm", "prog.s", "--json"]);
    assert!(!ok && err.contains("unknown option --json"), "--json is lint-only: {err}");
    let (ok, _, err) = run(bin, &[]);
    assert!(!ok && err.contains("usage"), "{err}");
}

/// Raw exit code of `bin args…` (None if killed by a signal).
fn code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin).args(args).output().expect("spawn binary").status.code()
}

#[test]
fn ir32_exit_codes_distinguish_findings_errors_and_usage() {
    // The audited contract: 0 = clean, 1 = findings present (lint /
    // gadgets only), 2 = usage error, 3 = analysis error. Scripts gate
    // on these; renumbering is a breaking change.
    let bin = env!("CARGO_BIN_EXE_ir32");
    // Usage errors: no args, unknown command, unknown flag, missing input.
    assert_eq!(code(bin, &[]), Some(2));
    assert_eq!(code(bin, &["frobnicate"]), Some(2));
    assert_eq!(code(bin, &["lint", "--bogus"]), Some(2));
    assert_eq!(code(bin, &["gadgets"]), Some(2));
    // Analysis errors: unreadable file, unknown app / fixture, bad scale.
    assert_eq!(code(bin, &["lint", "/nonexistent/prog.s"]), Some(3));
    assert_eq!(code(bin, &["lint", "--app", "warpcored"]), Some(3));
    assert_eq!(code(bin, &["gadgets", "--fixture", "nope"]), Some(3));
    assert_eq!(code(bin, &["gadgets", "--app", "httpd", "--scale", "lots"]), Some(3));
    // Findings present: lint and gadgets report via exit 1…
    assert_eq!(code(bin, &["lint", "--fixture", "recursive"]), Some(1));
    assert_eq!(code(bin, &["gadgets", "--fixture", "gadget_chain"]), Some(1));
    assert_eq!(code(bin, &["gadgets", "--app", "httpd", "--scale", "20"]), Some(1));
    // …while `analyze` always reports cleanly (exit 0), and a
    // surface-free image is a clean gadgets run.
    assert_eq!(code(bin, &["analyze", "--fixture", "recursive"]), Some(0));
    assert_eq!(code(bin, &["gadgets", "--fixture", "recursive"]), Some(0));
}

#[test]
fn redteambench_rejects_unknown_and_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_redteambench");
    let (ok, _, err) = run(bin, &["--frobnicate"]);
    assert!(!ok, "unknown flag must exit nonzero");
    assert!(err.contains("unknown option --frobnicate") && err.contains("USAGE"), "{err}");
    assert_eq!(code(bin, &["--frobnicate"]), Some(2), "usage errors exit 2");
    let (ok, _, err) = run(bin, &["--seed", "entropy"]);
    assert!(!ok && err.contains("--seed"), "{err}");
    let (ok, _, err) = run(bin, &["--assert-detections-min"]);
    assert!(!ok && err.contains("--assert-detections-min needs a value"), "{err}");
    let (ok, out, _) = run(bin, &["--help"]);
    assert!(ok && out.contains("USAGE") && out.contains("--seed"), "{out}");
}

/// A network echo server: answers each request with its own bytes.
const ECHO: &str = "
main:
    la   s0, rxbuf
serve:
    mv   a0, s0
    li   a1, 64
    syscall 1            # net_recv -> a0 = length
    mv   a1, a0
    mv   a0, s0
    syscall 2            # net_send
    j    serve

.data
rxbuf: .space 64
";

#[test]
fn ir32_run_accepts_flags_before_the_file() {
    // `--req` used to be taken for the file name when it came first.
    let bin = env!("CARGO_BIN_EXE_ir32");
    let dir = indra::persist::ScratchDir::new("cli-echo").expect("scratch dir");
    let prog = dir.path().join("echo.s");
    std::fs::write(&prog, ECHO).expect("write the program");
    let prog = prog.to_str().expect("utf-8 path");
    let (ok, out, err) = run(bin, &["run", "--req", "hi", prog]);
    assert!(ok, "{err}");
    assert!(out.contains(r#"response 0: 2 bytes: "hi""#), "{out}");
}
