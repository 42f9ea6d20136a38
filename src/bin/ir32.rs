//! `ir32` — the IR32 toolchain driver: a small assembler, disassembler,
//! runner and static analyzer for the reproduction's ISA, so programs
//! can be developed against the simulated machine directly. `ir32
//! --help` lists the commands, flags and exit codes.

use std::process::ExitCode;

use indra::analyze::{analyze_image, enumerate_gadgets, fixtures, PolicyReport, SurfaceReport};
use indra::bench::cli::{self, Args, Cli, EXIT_USAGE};
use indra::bench::help_text;
use indra::core::json::{json_array, JsonObject};
use indra::isa::{assemble, disassemble_image, Image};
use indra::os::{Os, SyscallEffect};
use indra::sim::{CoreStep, Machine, MachineConfig, TraceEvent};
use indra::workloads::{build_app_scaled, ServiceApp};

/// The commands that take one source file.
const FILE_CLI: Cli = Cli {
    about: "ir32 — the IR32 toolchain driver",
    tool: "ir32 <asm|disasm|run|trace>",
    flags: &[("--req", "DATA")],
    operands: "FILE.s",
    prose: "\
asm prints sections and symbols, disasm the full listing; run runs the
program to completion on the kernel-lite and trace dumps its first
trace events under the INDRA monitor. Each --req DATA queues one
request for a net_recv server.",
};
const FILE_USAGE: &str = help_text!(FILE_CLI);

/// The static-analysis commands.
const ANALYSIS_CLI: Cli = Cli {
    about: "",
    tool: "ir32 <analyze|lint|gadgets>",
    flags: &[("--app", "NAME"), ("--scale", "N"), ("--fixture", "NAME"), ("--json", "")],
    operands: "[FILE.s]",
    prose: "\
The image is FILE.s, a built-in workload (--app NAME, work divided by
--scale N) or an analyzer fixture (--fixture NAME). analyze prints the
static CFG and CFI policy report, lint the same report judged, gadgets
the CFI-aware gadget catalog and attack-surface score.

Exit codes: 0 clean; 1 findings present (lint and gadgets only);
2 usage error; 3 analysis error (unreadable or unassemblable file,
unknown app or fixture, bad --scale).",
};
const ANALYSIS_USAGE: &str = help_text!(ANALYSIS_CLI);

/// Findings present (`lint`/`gadgets` only).
const EXIT_FINDINGS: u8 = 1;
/// The input could not be analyzed: unreadable file, assembly error,
/// unknown app or fixture, bad scale.
const EXIT_ANALYSIS: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let both = format!("{FILE_USAGE}\n\n{ANALYSIS_USAGE}");
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{both}");
        return ExitCode::from(EXIT_USAGE);
    };
    let rest = rest.iter().cloned();
    let (outcome, help) = match cmd.as_str() {
        "analyze" | "lint" | "gadgets" => {
            let outcome = ANALYSIS_CLI.parse(ANALYSIS_USAGE, rest, |a| {
                if a.operands.is_empty() && !a.has("--app") && !a.has("--fixture") {
                    return Err("missing input: give a FILE.s, --app NAME or --fixture NAME".into());
                }
                Ok(cmd_analyze(cmd, a))
            });
            (outcome, ANALYSIS_USAGE)
        }
        "asm" | "disasm" | "run" | "trace" => {
            let outcome = FILE_CLI.parse(FILE_USAGE, rest, |a| {
                let [path] = a.operands.as_slice() else {
                    return Err("give exactly one FILE.s".into());
                };
                Ok(cmd_file(cmd, path, a.all("--req").map(|r| r.as_bytes().to_vec()).collect()))
            });
            (outcome, FILE_USAGE)
        }
        "--help" | "-h" | "help" => return cli::exit(&both, &both),
        other => return cli::exit(&format!("ir32: unknown command `{other}`\n{both}"), &both),
    };
    outcome.unwrap_or_else(|msg| cli::exit(&msg, help))
}

/// `ir32 asm|disasm|run|trace FILE.s`: assemble, then act on the image.
fn cmd_file(cmd: &str, path: &str, requests: Vec<Vec<u8>>) -> ExitCode {
    let image = match read_image(path) {
        Ok(img) => img,
        Err(e) => {
            eprintln!("ir32: {e}");
            return ExitCode::from(EXIT_ANALYSIS);
        }
    };
    match cmd {
        "asm" => cmd_asm(&image),
        "disasm" => cmd_disasm(&image),
        "run" => cmd_run(&image, &requests),
        _ => cmd_trace(&image, &requests),
    }
}

/// Reads and assembles a `.s` file; the image is named after it.
fn read_image(path: &str) -> Result<Image, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = path.rsplit('/').next().unwrap_or(path).trim_end_matches(".s");
    assemble(name, &source).map_err(|e| format!("{path}: {e}"))
}

/// Resolves the image for `analyze`/`lint`/`gadgets`: a built-in
/// workload (`--app NAME [--scale N]`), an analyzer fixture
/// (`--fixture NAME`) or a `.s` file on disk. Every error is an
/// analysis error.
fn analysis_image(a: &Args) -> Result<Image, String> {
    if let Some(name) = a.get("--app") {
        let app =
            ServiceApp::ALL.into_iter().find(|app| format!("{app}") == name).ok_or_else(|| {
                format!("unknown app `{name}` (try ftpd, httpd, bind, sendmail, imap, nfs)")
            })?;
        let scale: u32 = a.num("--scale", .., 1)?;
        return Ok(build_app_scaled(app, scale.max(1)));
    }
    if let Some(name) = a.get("--fixture") {
        return fixtures::fixture(name).ok_or_else(|| {
            format!("unknown fixture `{name}` (available: {})", fixtures::FIXTURE_NAMES.join(", "))
        });
    }
    read_image(&a.operands[0])
}

/// `ir32 analyze` / `ir32 lint` / `ir32 gadgets` — run the static
/// pipeline and print the report. `lint` and `gadgets` exit
/// [`EXIT_FINDINGS`] when there are findings.
fn cmd_analyze(cmd: &str, args: &Args) -> ExitCode {
    let image = match analysis_image(args) {
        Ok(img) => img,
        Err(e) => {
            eprintln!("ir32 {cmd}: {e}");
            return ExitCode::from(EXIT_ANALYSIS);
        }
    };
    let json = args.has("--json");
    let clean = if cmd == "gadgets" {
        let report = enumerate_gadgets(&image);
        if json {
            println!("{}", surface_json(&report));
        } else {
            print_surface(&report);
        }
        report.clean()
    } else {
        let report = analyze_image(&image);
        if json {
            println!("{}", report_json(&report));
        } else {
            print_report(&report);
        }
        report.clean()
    };
    if cmd != "analyze" && !clean {
        return ExitCode::from(EXIT_FINDINGS);
    }
    ExitCode::SUCCESS
}

/// Renders a `truncated` map (`kind → total occurrences`) as a JSON
/// object; `{}` when nothing was capped.
fn truncated_json(truncated: &std::collections::BTreeMap<&'static str, u64>) -> String {
    let mut o = JsonObject::new();
    for (&kind, &total) in truncated {
        o.u64(kind, total);
    }
    o.finish()
}

fn findings_json(findings: &[indra::analyze::Finding]) -> String {
    json_array(findings.iter().map(|f| {
        let mut o = JsonObject::new();
        o.str("kind", f.kind.as_str());
        match f.addr {
            Some(a) => o.u64("addr", u64::from(a)),
            None => o.raw("addr", "null"),
        };
        o.str("detail", &f.detail);
        o.finish()
    }))
}

fn report_json(report: &PolicyReport) -> String {
    let findings = findings_json(&report.findings);
    let s = &report.stats;
    let mut stats = JsonObject::new();
    stats
        .u64("insns", s.insns)
        .u64("blocks", s.blocks)
        .u64("cfg_edges", s.cfg_edges)
        .u64("functions", s.functions)
        .u64("call_edges", s.call_edges)
        .u64("declared_indirect", s.declared_indirect)
        .u64("proven_indirect", s.proven_indirect)
        .u64("registered_indirect", s.registered_indirect)
        .u64("executable_pages", s.executable_pages);
    match s.max_call_depth {
        Some(d) => stats.u64("max_call_depth", u64::from(d)),
        None => stats.raw("max_call_depth", "null"),
    };
    let mut out = JsonObject::new();
    out.str("image", &report.image)
        .raw("findings", &findings)
        .raw("truncated", &truncated_json(&report.truncated))
        .raw("stats", &stats.finish());
    out.finish()
}

fn surface_json(report: &SurfaceReport) -> String {
    let gadgets = json_array(report.gadgets.iter().map(|g| {
        let mut o = JsonObject::new();
        o.u64("entry", u64::from(g.entry))
            .u64("insns", u64::from(g.insns))
            .u64("transfer_at", u64::from(g.transfer_at))
            .str("kind", g.kind.as_str())
            .raw("targets", &json_array(g.targets.iter().map(|t| u64::from(*t).to_string())))
            .u64("regs_clobbered", u64::from(g.effects.regs_clobbered))
            .u64("mem_writes", u64::from(g.effects.mem_writes))
            .u64("mem_reads", u64::from(g.effects.mem_reads))
            .bool("syscall_reachable", g.effects.syscall_reachable);
        o.finish()
    }));
    let slots = json_array(report.writable_slots.iter().map(|s| {
        let mut o = JsonObject::new();
        o.u64("addr", u64::from(s.addr))
            .u64("target", u64::from(s.target))
            .str("segment", &s.segment);
        o.finish()
    }));
    let chain = json_array(report.chain.iter().map(|a| u64::from(*a).to_string()));
    let s = &report.stats;
    let mut stats = JsonObject::new();
    stats
        .u64("registered_targets", s.registered_targets)
        .u64("dispatch_sites", s.dispatch_sites)
        .u64("in_policy_pairs", s.in_policy_pairs)
        .u64("gadgets", s.gadgets)
        .u64("chainable_gadgets", s.chainable_gadgets)
        .u64("writable_slots", s.writable_slots)
        .u64("syscall_reachable_targets", s.syscall_reachable_targets)
        .u64("attack_surface", s.attack_surface);
    let mut out = JsonObject::new();
    out.str("image", &report.image)
        .raw("gadgets", &gadgets)
        .raw("writable_slots", &slots)
        .raw("chain", &chain)
        .raw("findings", &findings_json(&report.findings))
        .raw("truncated", &truncated_json(&report.truncated))
        .raw("stats", &stats.finish());
    out.finish()
}

fn print_surface(report: &SurfaceReport) {
    let s = &report.stats;
    println!("image `{}`: CFI-aware gadget catalog (tightened policy)", report.image);
    println!(
        "  {} registered target(s), {} dispatch site(s), {} in-policy transfer pair(s)",
        s.registered_targets, s.dispatch_sites, s.in_policy_pairs
    );
    println!(
        "  {} gadget(s) ({} chainable), {} writable code-pointer slot(s), {} syscall-reachable target(s)",
        s.gadgets, s.chainable_gadgets, s.writable_slots, s.syscall_reachable_targets
    );
    println!("  attack surface score: {}", s.attack_surface);
    for g in &report.gadgets {
        println!(
            "    gadget {:#010x}: {} insn(s) to {} at {:#010x} ({} target(s), {} write(s), {} read(s){})",
            g.entry,
            g.insns,
            g.kind.as_str(),
            g.transfer_at,
            g.targets.len(),
            g.effects.mem_writes,
            g.effects.mem_reads,
            if g.effects.syscall_reachable { ", syscall reachable" } else { "" }
        );
    }
    if report.findings.is_empty() {
        println!("  findings: none");
    } else {
        println!("  findings ({}):", report.findings.len());
        for f in &report.findings {
            println!("    {f}");
        }
    }
    for (kind, total) in &report.truncated {
        println!("  (capped: {total} {kind} occurrence(s) total, first 32 listed)");
    }
}

fn print_report(report: &PolicyReport) {
    let s = &report.stats;
    println!("image `{}`: static CFG + CFI policy report", report.image);
    println!(
        "  {} insns in {} blocks ({} cfg edges), {} functions ({} call edges)",
        s.insns, s.blocks, s.cfg_edges, s.functions, s.call_edges
    );
    match s.max_call_depth {
        Some(d) => println!("  max static call depth: {d} frames"),
        None => println!("  max static call depth: unbounded (recursion)"),
    }
    println!(
        "  indirect targets: {} declared, {} proven, {} registered under strict policy",
        s.declared_indirect, s.proven_indirect, s.registered_indirect
    );
    println!("  executable pages: {}", s.executable_pages);
    if report.findings.is_empty() {
        println!("  findings: none");
    } else {
        println!("  findings ({}):", report.findings.len());
        for f in &report.findings {
            println!("    {f}");
        }
    }
    for (kind, total) in &report.truncated {
        println!("  (capped: {total} {kind} occurrence(s) total, first 32 listed)");
    }
}

fn cmd_asm(image: &Image) -> ExitCode {
    println!("image `{}`  entry {:#010x}", image.name, image.entry);
    println!("\nsegments:");
    for seg in &image.segments {
        println!(
            "  {:<10} {:#010x}..{:#010x}  {}  ({} bytes initialized)",
            seg.name,
            seg.vaddr,
            seg.end(),
            seg.perms,
            seg.data.len()
        );
    }
    println!("\nsymbols:");
    for sym in &image.symbols {
        println!(
            "  {:#010x}  {:<9} {:<5} {}",
            sym.addr,
            format!("{:?}", sym.kind).to_lowercase(),
            if sym.exported { "glob" } else { "local" },
            sym.name
        );
    }
    println!("\n{} valid indirect-branch targets registered", image.indirect_targets.len());
    ExitCode::SUCCESS
}

fn cmd_disasm(image: &Image) -> ExitCode {
    for line in disassemble_image(image) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// Run functionally (no monitoring) on a fresh machine + kernel-lite.
fn cmd_run(image: &Image, requests: &[Vec<u8>]) -> ExitCode {
    let mut machine = Machine::new(MachineConfig::default());
    machine.boot_asymmetric();
    machine.set_monitoring(false);
    let mut os = Os::new();
    let pid = match os.spawn_service(&mut machine, 1, image) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ir32 run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in requests {
        os.push_request(pid, r.clone(), false);
    }

    for _ in 0..2_000_000_000u64 {
        match machine.step_core_simple(1) {
            CoreStep::Executed => {}
            CoreStep::Halted => {
                finish_run(&machine, &mut os, pid, "halt");
                return ExitCode::SUCCESS;
            }
            CoreStep::Syscall { code } => {
                let effect = os.handle_syscall(&mut machine, 1, code);
                if let SyscallEffect::Exited { code, .. } = effect {
                    finish_run(&machine, &mut os, pid, &format!("exit({code})"));
                    return ExitCode::SUCCESS;
                }
                if matches!(effect, SyscallEffect::BlockedOnRecv { .. })
                    && os.try_deliver(&mut machine, pid).is_none()
                {
                    finish_run(&machine, &mut os, pid, "blocked on net_recv (inbox empty)");
                    return ExitCode::SUCCESS;
                }
            }
            CoreStep::Fault(f) => {
                eprintln!("fault: {f}");
                finish_run(&machine, &mut os, pid, "faulted");
                return ExitCode::FAILURE;
            }
            other => {
                eprintln!("unexpected core state: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("ir32 run: instruction budget exhausted (infinite loop?)");
    ExitCode::FAILURE
}

fn finish_run(machine: &Machine, os: &mut Os, pid: indra::os::Pid, how: &str) {
    let core = machine.core(1);
    println!("stopped: {how}");
    println!(
        "retired {} instructions in {} cycles (a0 = {:#x})",
        core.retired(),
        core.cycles(),
        core.reg(indra::isa::Reg::A0)
    );
    let responses = os.take_responses(pid);
    for (i, r) in responses.iter().enumerate() {
        println!("response {i}: {} bytes: {:?}", r.data.len(), String::from_utf8_lossy(&r.data));
    }
    if !os.audit_log().is_empty() {
        println!("audit log:");
        for line in os.audit_log() {
            println!("  {line}");
        }
    }
}

/// Run with the trace hardware live and dump the monitor's event stream.
fn cmd_trace(image: &Image, requests: &[Vec<u8>]) -> ExitCode {
    const MAX_EVENTS: usize = 200;
    let mut machine = Machine::new(MachineConfig::default());
    machine.boot_asymmetric();
    let mut os = Os::new();
    let pid = match os.spawn_service(&mut machine, 1, image) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ir32 trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in requests {
        os.push_request(pid, r.clone(), false);
    }

    let mut shown = 0usize;
    for _ in 0..5_000_000u64 {
        let step = machine.step_core_simple(1);
        while let Some(ev) = machine.fifo_mut().pop() {
            if shown < MAX_EVENTS {
                shown += 1;
                print_event(shown, &ev.event, ev.cycle);
            }
        }
        match step {
            CoreStep::Executed | CoreStep::FifoStalled => {}
            CoreStep::Halted => break,
            CoreStep::Syscall { code } => {
                let effect = os.handle_syscall(&mut machine, 1, code);
                if matches!(effect, SyscallEffect::Exited { .. }) {
                    break;
                }
                if matches!(effect, SyscallEffect::BlockedOnRecv { .. })
                    && os.try_deliver(&mut machine, pid).is_none()
                {
                    break;
                }
            }
            CoreStep::Fault(f) => {
                println!("-- fault: {f}");
                break;
            }
            CoreStep::Stalled => break,
        }
        if shown >= MAX_EVENTS {
            break;
        }
    }
    println!("-- {shown} trace events shown (cap {MAX_EVENTS})");
    ExitCode::SUCCESS
}

fn print_event(i: usize, ev: &TraceEvent, cycle: u64) {
    let text = match ev {
        TraceEvent::Call { pc, target, return_addr, .. } => {
            format!("call      {pc:#010x} -> {target:#010x} (ret to {return_addr:#010x})")
        }
        TraceEvent::IndirectCall { pc, target, .. } => {
            format!("call.ind  {pc:#010x} -> {target:#010x}")
        }
        TraceEvent::Return { pc, target, .. } => {
            format!("return    {pc:#010x} -> {target:#010x}")
        }
        TraceEvent::IndirectJump { pc, target } => {
            format!("jump.ind  {pc:#010x} -> {target:#010x}")
        }
        TraceEvent::CodeFill { page_vaddr, pc } => {
            format!("codefill  page {page_vaddr:#010x} (pc {pc:#010x})")
        }
        TraceEvent::SyscallSync { pc, code } => {
            format!("syscall   #{code} at {pc:#010x} (sync point)")
        }
    };
    println!("{i:>4} @{cycle:>8}  {text}");
}
