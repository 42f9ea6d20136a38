//! Ablation studies over INDRA's design choices — the knobs the paper
//! fixes (64 B delta granularity, 32-entry CAM, one resurrectee, a
//! 3-failure hybrid threshold) swept to show *why* those are the right
//! points.
//!
//! ```text
//! cargo run --release -p indra-bench --bin ablations [--scale N]
//! ```

use std::process::ExitCode;

use indra_bench::cli::{self, Cli};
use indra_bench::{build_image, help_text, run, RunOptions};
use indra_core::{DeltaConfig, IndraSystem, RunState, SchemeKind, SystemConfig};
use indra_sim::CoreRole;
use indra_workloads::{attack_request, benign_request, Attack, ServiceApp, Traffic, UNMAPPED_ADDR};

const ABLATIONS: Cli = Cli {
    about: "ablations — INDRA's fixed design points swept to show why they hold",
    tool: "ablations",
    flags: &[("--scale", "N")],
    operands: "",
    prose: "--scale N divides each workload's work by N (default 4).",
};
const USAGE: &str = help_text!(ABLATIONS);

fn main() -> ExitCode {
    let scale = match ABLATIONS.parse(USAGE, std::env::args().skip(1), |a| a.num("--scale", 1.., 4))
    {
        Ok(scale) => scale,
        Err(msg) => return cli::exit(&msg, USAGE),
    };
    println!("== INDRA ablations (scale 1/{scale}) ==\n");
    ablate_line_size(scale);
    ablate_cam(scale);
    ablate_fleet(scale);
    ablate_hybrid_threshold(scale);
    ExitCode::SUCCESS
}

/// Delta backup granularity: the paper picks the 64 B L2 line. Smaller
/// lines copy less per backup but bookkeep more; larger lines approach
/// page-copy behaviour.
fn ablate_line_size(scale: u32) {
    println!("-- delta line size (bind, rollback every other request) --");
    println!("{:<10} {:>12} {:>14} {:>10}", "line", "line copies", "bytes backed", "slowdown");
    let mut base = RunOptions::paper(ServiceApp::Bind);
    base.scale = scale;
    base.requests = 8;
    base.warmup = 2;
    base.monitoring = false;
    base.scheme = SchemeKind::None;
    let baseline = run(&base).cycles_per_benign;

    for line_size in [32u32, 64, 128] {
        let image = build_image(&base);
        let cfg = SystemConfig {
            delta: DeltaConfig { line_size, ..DeltaConfig::default() },
            ..SystemConfig::default()
        };
        let mut sys = IndraSystem::new(cfg);
        sys.deploy(&image).unwrap();
        let script =
            Traffic::with_attacks(8, Attack::WildWrite { addr: UNMAPPED_ADDR }, 2, base.seed)
                .generate(&image);
        for r in &script {
            sys.push_request(r.data.clone(), r.malicious);
        }
        let start = sys.service_cycles();
        let state = sys.run(2_000_000_000);
        assert_eq!(state, RunState::Idle);
        let span = sys.service_cycles() - start;
        let stats = sys.scheme().stats();
        println!(
            "{:<10} {:>12} {:>14} {:>9.2}x",
            format!("{line_size}B"),
            stats.line_copies,
            stats.line_copies * u64::from(line_size),
            span as f64 / sys.report().benign_served as f64 / baseline,
        );
    }
    println!("(64B balances copy volume against per-line bookkeeping)\n");
}

/// CAM filter size beyond the paper's 32/64 pair.
fn ablate_cam(scale: u32) {
    println!("-- code-origin CAM size (httpd) --");
    println!("{:<10} {:>16} {:>14}", "entries", "checks sent", "sent %");
    for entries in [0usize, 8, 16, 32, 64, 128] {
        let mut o = RunOptions::paper(ServiceApp::Httpd);
        o.scale = scale;
        o.requests = 6;
        o.warmup = 2;
        o.cam_entries = entries;
        let m = run(&o);
        let sent = m.cam.lookups - m.cam.hits;
        println!(
            "{:<10} {:>16} {:>13.1}%",
            if entries == 0 { "disabled".to_owned() } else { entries.to_string() },
            sent,
            m.cam.sent_fraction() * 100.0
        );
    }
    println!("(returns diminish past 32 entries — the paper's choice)\n");
}

/// One resurrector, N resurrectees: monitor contention as the fleet
/// grows (the paper's design extension, Fig. 2's topology).
fn ablate_fleet(scale: u32) {
    println!("-- resurrectees per resurrector (httpd each, same traffic) --");
    println!(
        "{:<14} {:>14} {:>16} {:>14}",
        "resurrectees", "benign served", "monitor events", "fifo stalls"
    );
    for n in [1usize, 2, 3] {
        let mut cfg = SystemConfig::default();
        cfg.machine.cores = std::iter::once(CoreRole::Resurrector)
            .chain(std::iter::repeat_n(CoreRole::Resurrectee, n))
            .collect();
        let mut sys = IndraSystem::new(cfg);
        let mut o = RunOptions::paper(ServiceApp::Httpd);
        o.scale = scale;
        let image = build_image(&o);
        for _ in 0..n {
            sys.deploy(&image).unwrap();
        }
        for core in sys.service_cores() {
            for i in 0..4u8 {
                sys.push_request_to(core, benign_request(i, 0x10 + i), false);
            }
        }
        let state = sys.run(3_000_000_000);
        assert_eq!(state, RunState::Idle);
        println!(
            "{:<14} {:>14} {:>16} {:>14}",
            n,
            sys.report().benign_served,
            sys.monitor().stats().events,
            sys.machine().fifo().stats().full_stalls,
        );
    }
    println!("(one monitor absorbs several services; the shared FIFO is the pressure point)\n");
}

/// Hybrid escalation threshold under a dormant attack: lower thresholds
/// sacrifice fewer benign victims before the macro restore.
fn ablate_hybrid_threshold(scale: u32) {
    println!("-- hybrid failure threshold (dormant attack, 10 benign followers) --");
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "threshold", "benign served", "micro tries", "macro used"
    );
    for threshold in [1u32, 2, 3, 5] {
        let mut o = RunOptions::paper(ServiceApp::Httpd);
        o.scale = scale;
        let image = build_image(&o);
        let mut cfg = SystemConfig::default();
        cfg.hybrid.macro_interval = 2;
        cfg.hybrid.failure_threshold = threshold;
        let mut sys = IndraSystem::new(cfg);
        sys.deploy(&image).unwrap();
        for i in 0..3u8 {
            sys.push_request(benign_request(i, i + 1), false);
        }
        sys.push_request(attack_request(Attack::Dormant { addr: UNMAPPED_ADDR }, &image), true);
        for i in 0..10u8 {
            sys.push_request(benign_request(i, 0x21 + i), false);
        }
        let state = sys.run(3_000_000_000);
        assert_ne!(state, RunState::BudgetExhausted);
        let h = sys.hybrid().stats();
        println!(
            "{:<12} {:>11}/13 {:>14} {:>14}",
            threshold,
            sys.report().benign_served,
            h.micro_recoveries,
            h.macro_recoveries,
        );
    }
    println!("(each extra micro attempt costs one benign victim under dormant corruption)");
}
