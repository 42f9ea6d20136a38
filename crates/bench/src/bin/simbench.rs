//! simbench — host-side simulator throughput (MIPS) benchmark.
//!
//! Measures how many *simulated* instructions the interpreter retires
//! per wall-clock second on three deterministic workloads:
//!
//! * `compute` — a tight ALU/branch loop on a bare resurrectee core
//!   with monitoring off: the pure per-instruction stepping cost
//!   (decode, translate, fetch, execute, retire accounting).
//! * `memory`  — a strided load/store sweep over a buffer larger than
//!   the DL1, exercising the TLB/cache hierarchy and the physical
//!   memory word paths on every instruction.
//! * `attack_mix` — a full [`IndraSystem`] cell (monitoring on, delta
//!   backup) serving seeded open-loop traffic with an exploit mix:
//!   the end-to-end fleet-shard hot path including trace FIFO,
//!   CAM filtering and the monitor model.
//!
//! The simulated instruction counts are pure functions of the flags,
//! so runs are comparable across hosts and revisions; only the wall
//! time (and hence MIPS) varies. Results go to
//! `results/BENCH_simcore.json` for the repo's perf trajectory.
//!
//! `--min-mips X` turns the run into a regression gate: the process
//! exits non-zero if the compute workload lands below the floor.

use std::process::ExitCode;
use std::time::Instant;

use indra_bench::cli::{self, Cli};
use indra_bench::help_text;
use indra_core::json::JsonObject;
use indra_core::{IndraSystem, RunState, SchemeKind, SystemConfig};
use indra_isa::assemble;
use indra_sim::{CoreStep, Machine, MachineConfig};
use indra_workloads::{build_app_scaled, detectable_attack_suite, OpenLoopTraffic, ServiceApp};

struct Args {
    /// Scale factor for all iteration counts (1 = full run).
    quick: bool,
    /// Output JSON path.
    out: String,
    /// Optional MIPS floor for the compute workload (CI gate).
    min_mips: Option<f64>,
    /// Superblock execution engine (on by default; `--no-superblocks`
    /// measures the one-instruction reference dispatch loop).
    superblocks: bool,
    /// Per-request compartments (on by default; `--no-compartments`
    /// measures the global-rollback baseline in attack_mix).
    compartments: bool,
}

const SIMBENCH: Cli = Cli {
    about: "simbench — INDRA host-side simulator MIPS benchmark",
    tool: "simbench",
    flags: &[
        ("--quick", ""),
        ("--out", "PATH"),
        ("--min-mips", "X"),
        ("--no-superblocks", ""),
        ("--no-compartments", ""),
    ],
    operands: "",
    prose: "\
Runs the compute / memory / attack_mix workloads, prints a MIPS table
and writes results/BENCH_simcore.json. --quick shrinks the iteration
counts for CI smoke use; --min-mips X exits non-zero if the compute
workload falls below the floor; --no-superblocks measures the
one-instruction reference dispatch loop (the simulated instruction
counts are identical either way); --no-compartments measures the
attack_mix workload without per-request compartment tracking.",
};
const USAGE: &str = help_text!(SIMBENCH);

fn parse_args() -> Result<Args, String> {
    SIMBENCH.parse(USAGE, std::env::args().skip(1), |a| {
        Ok(Args {
            quick: a.has("--quick"),
            out: a.get("--out").unwrap_or("results/BENCH_simcore.json").to_owned(),
            min_mips: a.opt("--min-mips", ..)?,
            superblocks: !a.has("--no-superblocks"),
            compartments: !a.has("--no-compartments"),
        })
    })
}

/// One workload's measurement.
struct Sample {
    name: &'static str,
    insns: u64,
    wall_seconds: f64,
}

impl Sample {
    fn mips(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.insns as f64 / self.wall_seconds / 1.0e6
        } else {
            0.0
        }
    }
}

/// Builds a bare machine with one program on the resurrectee core and
/// runs it to halt, returning (instructions, wall seconds).
fn run_bare(src: &str, max_steps: u64, superblocks: bool) -> Sample {
    let mut m = Machine::new(MachineConfig { superblocks, ..MachineConfig::default() });
    m.boot_asymmetric();
    m.set_monitoring(false);
    let img = assemble("simbench", src).expect("simbench asm");
    let asid = 10;
    m.create_space(asid);
    m.load_image(asid, &img).expect("simbench load");
    m.core_mut(1).set_asid(asid);
    m.core_mut(1).set_pc(img.entry);
    m.core_mut(1).set_reg(indra_isa::Reg::SP, img.initial_sp);

    let start = Instant::now();
    let mut halted = false;
    let mut steps = 0u64;
    while steps < max_steps {
        let (step, executed) = m.step_core_batch_simple(1, max_steps - steps);
        steps += executed.max(1);
        match step {
            CoreStep::Executed => {}
            CoreStep::Halted => {
                halted = true;
                break;
            }
            other => panic!("simbench workload faulted: {other:?}"),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    assert!(halted, "simbench workload did not halt within {max_steps} steps");
    Sample { name: "", insns: m.core(1).retired(), wall_seconds: wall }
}

/// Pure ALU/branch loop: the per-instruction stepping floor.
fn compute_workload(iters: u32, superblocks: bool) -> Sample {
    let src = format!(
        "main:
    li   s0, {iters}
    li   t0, 0x1234
    li   t1, 0x4321
    li   t2, 7
loop:
    add  t3, t0, t1
    xor  t0, t3, t0
    slli t4, t0, 3
    srli t5, t1, 2
    or   t1, t4, t5
    sub  t3, t3, t2
    and  t4, t3, t0
    addi t2, t2, 1
    slt  t5, t4, t1
    add  t0, t0, t5
    xori t1, t1, 0x55
    srai t3, t3, 1
    add  t4, t4, t3
    sltu t5, t0, t4
    sub  t1, t1, t5
    subi s0, s0, 1
    bnez s0, loop
    halt
"
    );
    let mut s = run_bare(&src, u64::from(iters) * 24 + 1000, superblocks);
    s.name = "compute";
    s
}

/// Strided load/store sweep over a 64 KiB buffer (misses the DL1).
fn memory_workload(passes: u32, superblocks: bool) -> Sample {
    let src = format!(
        "main:
    li   s0, {passes}
pass:
    la   t0, buf
    li   t1, 1024
fill:
    lw   t2, 0(t0)
    addi t2, t2, 1
    sw   t2, 0(t0)
    lw   t3, 32(t0)
    add  t2, t2, t3
    sw   t2, 32(t0)
    addi t0, t0, 64
    subi t1, t1, 1
    bnez t1, fill
    subi s0, s0, 1
    bnez s0, pass
    halt
.data
buf: .space 65600
"
    );
    let mut s = run_bare(&src, u64::from(passes) * 1024 * 12 + 1000, superblocks);
    s.name = "memory";
    s
}

/// Full INDRA cell under seeded traffic with an exploit mix — the
/// fleet-shard hot path (monitor, FIFO, CAM, delta backup included).
fn attack_mix_workload(requests: u32, superblocks: bool, compartments: bool) -> Sample {
    let cfg = SystemConfig {
        machine: MachineConfig { superblocks, ..MachineConfig::default() },
        scheme: SchemeKind::Delta,
        monitoring: true,
        compartments,
        ..SystemConfig::default()
    };
    let cores = cfg.machine.cores.len();
    let mut sys = IndraSystem::new(cfg);
    let image = build_app_scaled(ServiceApp::Httpd, 20);
    sys.deploy(&image).expect("simbench deploy");
    let attacks = detectable_attack_suite(&image);
    let schedule = OpenLoopTraffic::with_attack_mix(requests, attacks, 120, 40_000, 0x51_3BE9)
        .generate(&image);

    let start = Instant::now();
    let mut queue = schedule.into_iter().peekable();
    let mut budget = u64::from(requests.max(1)) * 4_000_000;
    loop {
        let now = sys.service_cycles();
        let mut delivered = false;
        while queue.peek().is_some_and(|r| r.arrival_cycle <= now) {
            let r = queue.next().expect("peeked");
            sys.push_request(r.data, r.malicious);
            delivered = true;
        }
        let state = sys.run(20_000.min(budget.max(1)));
        budget = budget.saturating_sub(20_000);
        match state {
            RunState::Idle => match queue.peek() {
                Some(_) if !delivered => {
                    let r = queue.next().expect("peeked");
                    sys.push_request(r.data, r.malicious);
                }
                Some(_) => {}
                None => break,
            },
            RunState::Halted => break,
            RunState::BudgetExhausted => {
                if budget == 0 {
                    break;
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let insns: u64 = (0..cores).map(|c| sys.machine().core(c).retired()).sum();
    Sample { name: "attack_mix", insns, wall_seconds: wall }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return cli::exit(&msg, USAGE),
    };
    let (compute_iters, memory_passes, requests) =
        if args.quick { (40_000, 40, 12) } else { (400_000, 400, 60) };

    println!(
        "simbench: {} mode, superblocks {}",
        if args.quick { "quick" } else { "full" },
        if args.superblocks { "on" } else { "off" }
    );
    println!("{:>12} {:>12} {:>10} {:>10}", "workload", "insns", "wall_s", "mips");
    let samples = [
        compute_workload(compute_iters, args.superblocks),
        memory_workload(memory_passes, args.superblocks),
        attack_mix_workload(requests, args.superblocks, args.compartments),
    ];
    for s in &samples {
        println!("{:>12} {:>12} {:>10.3} {:>10.3}", s.name, s.insns, s.wall_seconds, s.mips());
    }

    let mut obj = JsonObject::new();
    obj.str("bench", "simcore")
        .bool("quick", args.quick)
        .bool("superblocks", args.superblocks)
        .bool("compartments", args.compartments);
    let items = samples.iter().map(|s| {
        JsonObject::new()
            .str("name", s.name)
            .u64("insns", s.insns)
            .f64("wall_seconds", s.wall_seconds)
            .f64("mips", s.mips())
            .finish()
    });
    obj.raw("workloads", &indra_core::json::json_array(items));
    let json = obj.finish();
    cli::write_out(&args.out, &format!("{json}\n")).expect("write results json");
    println!("wrote {}", args.out);

    if let Err(msg) = cli::floor("compute MIPS", samples[0].mips(), args.min_mips) {
        eprintln!("simbench: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
