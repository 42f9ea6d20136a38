//! compartmentbench — per-request compartment rewind-and-discard
//! benchmark.
//!
//! Measures what the compartment machinery buys across Table 2's
//! attack families: for each family, an interleaved benign/attack
//! request stream is served twice — compartments off (global-rollback
//! baseline) and on — and the run reports
//!
//! * **benign requests lost**: benign requests that never produced a
//!   response because a recovery episode swallowed them. With
//!   compartments on, a detection discards only the guilty
//!   compartment's pages and arena and requeues the innocent in-flight
//!   request, so this should be zero.
//! * **compartment discards**: recovery episodes that attributed the
//!   fault to a sealed compartment and surgically discarded it.
//! * **checkpoint volume**: WAL bytes/pages written by a fixed-cadence
//!   checkpoint discipline against a scratch store (host-side
//!   observation; the sim stats never see it).
//!
//! Results go to `results/BENCH_compartment.json`.
//! `--assert-discards-min N` / `--assert-benign-lost-max N` turn the
//! run into a self-checking smoke test over the compartments-on leg.

use std::process::ExitCode;
use std::time::Instant;

use indra_bench::cli::{self, Cli};
use indra_bench::help_text;
use indra_core::json::{json_array, JsonObject};
use indra_core::{IndraSystem, RunState, SchemeKind, SystemConfig};
use indra_persist::{CheckpointReceipt, SnapshotStore};
use indra_workloads::{
    attack_request, benign_request, build_app_scaled, Attack, ServiceApp, UNMAPPED_ADDR,
};

struct Args {
    quick: bool,
    out: String,
    assert_discards_min: Option<u64>,
    assert_benign_lost_max: Option<u64>,
}

const COMPARTMENTBENCH: Cli = Cli {
    about: "compartmentbench — per-request compartment rewind-and-discard benchmark",
    tool: "compartmentbench",
    flags: &[
        ("--quick", ""),
        ("--out", "PATH"),
        ("--assert-discards-min", "N"),
        ("--assert-benign-lost-max", "N"),
    ],
    operands: "",
    prose: "\
Serves an interleaved benign/attack stream per Table 2 attack family,
compartments off vs on, and reports benign requests lost, compartment
discards and checkpoint WAL volume. Writes
results/BENCH_compartment.json. The assert flags exit non-zero when
the compartments-on leg discards fewer than N compartments or loses
more than N benign requests.",
};
const USAGE: &str = help_text!(COMPARTMENTBENCH);

fn parse_args() -> Result<Args, String> {
    COMPARTMENTBENCH.parse(USAGE, std::env::args().skip(1), |a| {
        Ok(Args {
            quick: a.has("--quick"),
            out: a.get("--out").unwrap_or("results/BENCH_compartment.json").to_owned(),
            assert_discards_min: a.opt("--assert-discards-min", ..)?,
            assert_benign_lost_max: a.opt("--assert-benign-lost-max", ..)?,
        })
    })
}

/// Table 2's attack families, each paired with its payload builder.
fn families(image: &indra_isa::Image) -> Vec<(&'static str, Attack)> {
    let mid_function = image.addr_of("handler_0").expect("service image has handler_0") + 8;
    vec![
        ("stack_smash", Attack::StackSmash { target: mid_function }),
        ("code_injection", Attack::CodeInjection),
        ("handler_hijack", Attack::HandlerHijack { target: mid_function }),
        ("injected_handler", Attack::InjectedHandler),
        ("wild_write", Attack::WildWrite { addr: UNMAPPED_ADDR }),
        ("format_string", Attack::FormatString { value: mid_function }),
        ("dormant", Attack::Dormant { addr: UNMAPPED_ADDR }),
    ]
}

/// One leg's measured outcome.
struct Outcome {
    benign_sent: u64,
    benign_served: u64,
    attacks_sent: u64,
    detections: u64,
    discards: u64,
    retried: u64,
    wal: CheckpointReceipt,
    wall_seconds: f64,
}

impl Outcome {
    fn benign_lost(&self) -> u64 {
        self.benign_sent.saturating_sub(self.benign_served)
    }
}

/// Serves `requests` requests (every 4th an attack of `attack`'s
/// family) through one INDRA cell, checkpointing every 4 requests to a
/// scratch store, and collapses the run report into an [`Outcome`].
fn run_family(attack: Attack, requests: u32, compartments: bool, tag: &str) -> Outcome {
    let cfg = SystemConfig {
        scheme: SchemeKind::Delta,
        monitoring: true,
        compartments,
        ..SystemConfig::default()
    };
    let mut sys = IndraSystem::new(cfg);
    let image = build_app_scaled(ServiceApp::Httpd, 40);
    sys.deploy(&image).expect("compartmentbench deploy");

    let dir =
        std::env::temp_dir().join(format!("indra-compartmentbench-{}-{tag}", std::process::id()));
    let store = SnapshotStore::create(&dir).expect("scratch checkpoint store");
    let mut writer = store.shard_writer(0).expect("scratch shard writer");
    let mut wal = CheckpointReceipt::default();

    let started = Instant::now();
    let mut benign_sent = 0u64;
    let mut attacks_sent = 0u64;
    for i in 0..requests {
        // Position 1 of every group of 4 is the attack; for the
        // dormant family the following benign request is the victim.
        let malicious = i % 4 == 1;
        let data = if malicious {
            attacks_sent += 1;
            attack_request(attack, &image)
        } else {
            benign_sent += 1;
            benign_request(i as u8, 0x20 + (i % 64) as u8)
        };
        sys.push_request(data, malicious);
        let mut budget = 4_000_000u64;
        loop {
            match sys.run(20_000) {
                RunState::Idle | RunState::Halted => break,
                RunState::BudgetExhausted => {
                    budget = budget.saturating_sub(20_000);
                    if budget == 0 {
                        break;
                    }
                }
            }
        }
        let _ = sys.take_responses();
        if (i + 1) % 4 == 0 {
            let receipt = writer
                .checkpoint(&sys.freeze(), &u64::from(i + 1).to_le_bytes())
                .expect("scratch checkpoint");
            wal.absorb(receipt);
        }
    }
    let report = sys.report();
    let out = Outcome {
        benign_sent,
        benign_served: report.benign_served,
        attacks_sent,
        detections: report.detections.len() as u64,
        discards: report.detections.iter().filter(|d| d.discarded.is_some()).count() as u64,
        retried: report.detections.iter().filter(|d| d.retried).count() as u64,
        wal,
        wall_seconds: started.elapsed().as_secs_f64(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn leg_json(o: &Outcome) -> String {
    JsonObject::new()
        .u64("benign_sent", o.benign_sent)
        .u64("benign_served", o.benign_served)
        .u64("benign_lost", o.benign_lost())
        .u64("attacks_sent", o.attacks_sent)
        .u64("detections", o.detections)
        .u64("discards", o.discards)
        .u64("retried", o.retried)
        .u64("wal_bytes", o.wal.bytes)
        .u64("wal_pages", o.wal.pages)
        .f64("wall_seconds", o.wall_seconds)
        .finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return cli::exit(&msg, USAGE),
    };
    let requests = if args.quick { 12 } else { 32 };
    let image = build_app_scaled(ServiceApp::Httpd, 40);

    println!("compartmentbench: {} requests/family, attacks every 4th request", requests);
    println!(
        "{:>16} {:>4} {:>7} {:>7} {:>6} {:>7} {:>8} {:>7} {:>10} {:>8}",
        "family",
        "cmp",
        "benign",
        "served",
        "lost",
        "detect",
        "discard",
        "retried",
        "wal KB",
        "wal pg"
    );

    let mut rows = Vec::new();
    let mut lost_on = 0u64;
    let mut lost_off = 0u64;
    let mut discards_on = 0u64;
    let mut detections_on = 0u64;
    for (name, attack) in families(&image) {
        let off = run_family(attack, requests, false, &format!("{name}-off"));
        let on = run_family(attack, requests, true, &format!("{name}-on"));
        for (label, o) in [("off", &off), ("on", &on)] {
            println!(
                "{:>16} {:>4} {:>7} {:>7} {:>6} {:>7} {:>8} {:>7} {:>10.1} {:>8}",
                name,
                label,
                o.benign_sent,
                o.benign_served,
                o.benign_lost(),
                o.detections,
                o.discards,
                o.retried,
                o.wal.bytes as f64 / 1024.0,
                o.wal.pages,
            );
        }
        lost_off += off.benign_lost();
        lost_on += on.benign_lost();
        discards_on += on.discards;
        detections_on += on.detections;
        rows.push(
            JsonObject::new()
                .str("family", name)
                .raw("off", &leg_json(&off))
                .raw("on", &leg_json(&on))
                .finish(),
        );
    }

    let lost_per_detection_on =
        if detections_on > 0 { lost_on as f64 / detections_on as f64 } else { 0.0 };
    println!(
        "totals: benign lost off {lost_off}, on {lost_on} \
         ({lost_per_detection_on:.3}/detection), compartment discards {discards_on}"
    );

    let json = JsonObject::new()
        .str("bench", "compartment")
        .bool("quick", args.quick)
        .u64("requests_per_family", u64::from(requests))
        .raw("families", &json_array(rows))
        .u64("benign_lost_off", lost_off)
        .u64("benign_lost_on", lost_on)
        .f64("benign_lost_per_detection_on", lost_per_detection_on)
        .u64("discards_on", discards_on)
        .finish();
    cli::write_out(&args.out, &format!("{json}\n")).expect("write results json");
    println!("wrote {}", args.out);

    if let Err(msg) = cli::floor("discards", discards_on, args.assert_discards_min) {
        eprintln!("compartmentbench: {msg}");
        return ExitCode::FAILURE;
    }
    if let Some(max) = args.assert_benign_lost_max {
        if lost_on > max {
            eprintln!("compartmentbench: lost {lost_on} benign requests, above cap {max}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
