//! Regenerates every table and figure of the paper's evaluation (§4):
//! `cargo run --release -p indra-bench --bin paper -- --help` lists the
//! sections.

use std::process::ExitCode;

use indra_bench::cli::{self, Cli};
use indra_bench::{help_text, run, CsvSink, RunOptions};
use indra_core::{FailureCause, MonitorConfig, SchemeKind, ViolationKind};
use indra_sim::MachineConfig;
use indra_workloads::{Attack, ServiceApp, UNMAPPED_ADDR};

/// A section: prints its table or figure at a work scale, mirroring any
/// series to the CSV sink.
type Section = fn(u32, &CsvSink);

/// Every section, in run order; all but `calibrate` run by default.
const SECTIONS: [(&str, Section); 13] = [
    ("table4", table4),
    ("table2", table2),
    ("table3", table3),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("security", security),
    ("calibrate", calibrate),
];

const PAPER: Cli = Cli {
    about: "paper — regenerates every table and figure of the paper's evaluation (§4)",
    tool: "paper",
    flags: &[("--scale", "N"), ("--csv", "DIR")],
    operands: "[SECTION]...",
    prose: "\
SECTION is one of table2 table3 table4 fig9 fig10 fig11 fig12 fig13
fig14 fig15 fig16 security calibrate. With none, every section but
calibrate runs. --scale N divides each workload's work by N (default
1: the full paper-scale run, minutes of simulation). --csv DIR writes
each figure's series to DIR/<figure>.csv. calibrate prints each app's
measured profile next to the targets its workload spec is tuned to.",
};
const USAGE: &str = help_text!(PAPER);

struct Args {
    scale: u32,
    sections: Vec<String>,
    csv: CsvSink,
}

fn parse_args() -> Result<Args, String> {
    PAPER.parse(USAGE, std::env::args().skip(1), |a| {
        if let Some(s) = a.operands.iter().find(|s| SECTIONS.iter().all(|(name, _)| name != s)) {
            return Err(format!("unknown section {s}"));
        }
        Ok(Args {
            scale: a.num("--scale", 1.., 1)?,
            sections: a.operands.clone(),
            csv: a.get("--csv").map_or_else(CsvSink::disabled, CsvSink::to_dir),
        })
    })
}

fn wants(args: &Args, name: &str) -> bool {
    if args.sections.is_empty() {
        name != "calibrate"
    } else {
        args.sections.iter().any(|s| s == name)
    }
}

fn base_opts(app: ServiceApp, scale: u32) -> RunOptions {
    let mut o = RunOptions::paper(app);
    o.scale = scale;
    o.requests = 8;
    o.warmup = 2;
    o
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return cli::exit(&msg, USAGE),
    };
    println!("== INDRA reproduction: evaluation harness (scale 1/{}) ==\n", args.scale);
    for (name, section) in SECTIONS {
        if wants(&args, name) {
            section(args.scale, &args.csv);
        }
    }
    ExitCode::SUCCESS
}

/// Table 4: processor model parameters actually in force.
fn table4(_: u32, _: &CsvSink) {
    let m = MachineConfig::default();
    println!("-- Table 4: processor model parameters --");
    println!("fetch/decode width        {}", m.core.fetch_width);
    println!("issue/commit width        {}", m.core.issue_width);
    println!("L1 I-cache                DM, {}KB, {}B line", m.mem.il1.size / 1024, m.mem.il1.line);
    println!("L1 D-cache                DM, {}KB, {}B line", m.mem.dl1.size / 1024, m.mem.dl1.line);
    println!(
        "L2 cache                  {}-way, unified, {}B line, WB, {}KB per core",
        m.mem.l2.ways,
        m.mem.l2.line,
        m.mem.l2.size / 1024
    );
    println!(
        "L1/L2 latency             {} cycle / {} cycles",
        m.mem.il1.hit_latency, m.mem.l2.hit_latency
    );
    println!("I-TLB                     {}-way, {} entries", m.mem.itlb.ways, m.mem.itlb.entries);
    println!("D-TLB                     {}-way, {} entries", m.mem.dtlb.ways, m.mem.dtlb.entries);
    println!(
        "memory bus                {}B wide, 1:{} core clock ratio",
        m.dram.bus_bytes_per_clock, m.dram.core_clock_ratio
    );
    println!("CAS latency               {} mem bus clocks", m.dram.cas);
    println!("precharge (RP)            {} mem bus clocks", m.dram.precharge);
    println!("RAS-to-CAS (RCD)          {} mem bus clocks\n", m.dram.ras_to_cas);
}

/// Table 2: which inspection detects which exploit. Each cell runs the
/// attack with ONLY that inspection enabled.
fn table2(scale: u32, _: &CsvSink) {
    println!("-- Table 2: remote exploit inspection (detected = ✓) --");
    let app = ServiceApp::Httpd;
    let image = indra_bench::build_image(&base_opts(app, scale.max(8)));
    let handler0 = image.addr_of("handler_0").expect("handler_0");
    let attacks: [(&str, Attack); 3] = [
        ("stack smash", Attack::StackSmash { target: handler0 + 8 }),
        ("injected code", Attack::InjectedHandler),
        ("fn-pointer overwrite", Attack::HandlerHijack { target: UNMAPPED_ADDR }),
    ];
    let policies: [(&str, MonitorConfig); 3] = [
        (
            "call/return",
            MonitorConfig {
                check_code_origin: false,
                check_control_transfer: false,
                ..MonitorConfig::default()
            },
        ),
        (
            "code origin",
            MonitorConfig {
                check_call_return: false,
                check_control_transfer: false,
                ..MonitorConfig::default()
            },
        ),
        (
            "control transfer",
            MonitorConfig {
                check_call_return: false,
                check_code_origin: false,
                ..MonitorConfig::default()
            },
        ),
    ];
    println!(
        "{:<22} {:>12} {:>12} {:>17}",
        "inspection \\ exploit", "stack smash", "inj. code", "fn-ptr overwrite"
    );
    for (pname, policy) in policies {
        let mut row = format!("{pname:<22}");
        for (_aname, attack) in attacks {
            let mut o = base_opts(app, scale.max(8));
            o.requests = 3;
            o.monitor = policy;
            o.attack = Some((attack, 3));
            let m = run(&o);
            let detected = m
                .report
                .detections
                .iter()
                .any(|d| d.was_malicious && matches!(d.cause, FailureCause::Violation(_)));
            row.push_str(&format!(" {:>12}", if detected { "✓" } else { "-" }));
        }
        println!("{row}");
    }
    println!();
}

/// Table 3: measured backup/recovery cost classes of the four schemes.
fn table3(scale: u32, _: &CsvSink) {
    println!("-- Table 3: memory backup approaches (measured, httpd, attack every 2nd request) --");
    println!(
        "{:<22} {:>16} {:>16} {:>12}",
        "scheme", "backup cyc/req", "recovery cyc/rb", "slowdown"
    );
    let schemes = [
        SchemeKind::SoftwareCheckpoint,
        SchemeKind::UndoLog,
        SchemeKind::VirtualCheckpoint,
        SchemeKind::Delta,
    ];
    let mut base = base_opts(ServiceApp::Httpd, scale.max(4));
    base.monitoring = false;
    base.scheme = SchemeKind::None;
    let baseline = run(&base).cycles_per_benign;
    for scheme in schemes {
        let mut o = base_opts(ServiceApp::Httpd, scale.max(4));
        o.scheme = scheme;
        o.attack = Some((Attack::WildWrite { addr: UNMAPPED_ADDR }, 2));
        let m = run(&o);
        let reqs = m.report.served.max(1);
        let rollbacks = m.scheme.rollbacks.max(1);
        // Backup work charged while requests execute: everything except
        // recovery cycles.
        let hook_cycles = m.scheme.boundary_cycles
            + u64::from(indra_core::PAGE_COPY_CYCLES) * m.scheme.page_copies
            + 25 * m.scheme.line_copies
            + u64::from(indra_core::LOG_APPEND_CYCLES) * m.scheme.log_entries;
        println!(
            "{:<22} {:>16} {:>16} {:>12.2}",
            format!("{:?}", scheme),
            hook_cycles / reqs,
            m.scheme.recovery_cycles / rollbacks,
            m.cycles_per_benign / baseline,
        );
    }
    println!("(paper: page-copy schemes back up slowly; the update log recovers slowly;\n INDRA's delta is fast on both axes)\n");
}

/// Fig. 9: IL1 instruction cache miss rate.
fn fig9(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 9: L1 instruction cache miss rate (paper: ~1-5%, avg ~2%) --");
    let mut sum = 0.0;
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let m = run(&base_opts(app, scale));
        let rate = m.il1.miss_rate() * 100.0;
        sum += rate;
        rows.push(vec![app.name().to_owned(), format!("{rate:.3}")]);
        println!("{:<10} {:>6.2}%", app.name(), rate);
    }
    println!("{:<10} {:>6.2}%\n", "average", sum / 6.0);
    csv.write("fig9_il1_miss", &["app", "miss_pct"], &rows);
}

/// Fig. 10: % of code-origin checks surviving the CAM filter.
fn fig10(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 10: code-origin checks after CAM filtering (paper: ~8% @32, ~5% @64) --");
    println!("{:<10} {:>10} {:>10}", "app", "32-entry", "64-entry");
    let (mut s32, mut s64) = (0.0, 0.0);
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let mut o = base_opts(app, scale);
        let m32 = run(&o);
        o.cam_entries = 64;
        let m64 = run(&o);
        let (f32_, f64_) = (m32.cam.sent_fraction() * 100.0, m64.cam.sent_fraction() * 100.0);
        s32 += f32_;
        s64 += f64_;
        rows.push(vec![app.name().to_owned(), format!("{f32_:.3}"), format!("{f64_:.3}")]);
        println!("{:<10} {:>9.1}% {:>9.1}%", app.name(), f32_, f64_);
    }
    println!("{:<10} {:>9.1}% {:>9.1}%\n", "average", s32 / 6.0, s64 / 6.0);
    csv.write("fig10_cam", &["app", "sent_pct_cam32", "sent_pct_cam64"], &rows);
}

/// Fig. 11: service response time overhead of monitoring.
fn fig11(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 11: monitoring overhead (paper: small, < 10%) --");
    let mut sum = 0.0;
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let mut on = base_opts(app, scale);
        on.scheme = SchemeKind::None;
        let mut off = on.clone();
        off.monitoring = false;
        let ovh = (run(&on).cycles_per_benign / run(&off).cycles_per_benign - 1.0) * 100.0;
        sum += ovh;
        rows.push(vec![app.name().to_owned(), format!("{ovh:.3}")]);
        println!("{:<10} {:>6.2}%", app.name(), ovh);
    }
    println!("{:<10} {:>6.2}%\n", "average", sum / 6.0);
    csv.write("fig11_monitor_overhead", &["app", "overhead_pct"], &rows);
}

/// Fig. 12: normalized response time vs trace FIFO size.
fn fig12(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 12: impact of shared queue size (paper: 16 too small, >=32 saturates) --");
    let apps = [ServiceApp::Httpd, ServiceApp::Sendmail, ServiceApp::Nfs];
    let sizes = [8usize, 12, 16, 24, 32, 40, 48, 56, 64];
    let mut base = [0.0f64; 3];
    for (i, app) in apps.iter().enumerate() {
        let mut o = base_opts(*app, scale);
        o.fifo_entries = 64;
        base[i] = run(&o).cycles_per_benign;
    }
    let mut rows = Vec::new();
    for entries in sizes {
        let mut norm = 0.0;
        for (i, app) in apps.iter().enumerate() {
            let mut o = base_opts(*app, scale);
            o.fifo_entries = entries;
            norm += run(&o).cycles_per_benign / base[i];
        }
        let avg = norm / apps.len() as f64;
        rows.push(vec![entries.to_string(), format!("{avg:.4}")]);
        println!("queue entries {:>3}: {:.3}", entries, avg);
    }
    println!();
    csv.write("fig12_fifo", &["entries", "normalized_response"], &rows);
}

/// Fig. 13: instructions between service requests.
fn fig13(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 13: instructions between requests (paper: bind ~150K ... imap ~2.3M) --");
    let mut sum = 0.0;
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let m = run(&base_opts(app, scale));
        sum += m.insns_per_request;
        let full = m.insns_per_request * f64::from(scale);
        rows.push(vec![app.name().to_owned(), format!("{full:.0}")]);
        println!("{:<10} {:>12.0}", app.name(), full);
    }
    println!(
        "{:<10} {:>12.0}  (scaled back to full size)\n",
        "average",
        sum / 6.0 * f64::from(scale)
    );
    csv.write("fig13_insns_per_request", &["app", "instructions"], &rows);
}

/// Fig. 14: slowdown under conventional virtual checkpointing.
fn fig14(scale: u32, csv: &CsvSink) {
    println!(
        "-- Fig. 14: slowdown with page-copy virtual checkpointing (paper: ~2-14x, bind worst) --"
    );
    let mut sum = 0.0;
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let mut base = base_opts(app, scale);
        base.monitoring = false;
        base.scheme = SchemeKind::None;
        let b = run(&base).cycles_per_benign;
        let mut vc = base_opts(app, scale);
        vc.scheme = SchemeKind::VirtualCheckpoint;
        let s = run(&vc).cycles_per_benign / b;
        sum += s;
        rows.push(vec![app.name().to_owned(), format!("{s:.3}")]);
        println!("{:<10} {:>6.2}x", app.name(), s);
    }
    println!("{:<10} {:>6.2}x\n", "average", sum / 6.0);
    csv.write("fig14_virtual_ckpt_slowdown", &["app", "slowdown"], &rows);
}

/// Fig. 15: percentage of stores that needed a line backup.
fn fig15(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 15: backed-up dirty lines over all stores (paper: small; bind ~45%) --");
    let mut sum = 0.0;
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let m = run(&base_opts(app, scale));
        let f = m.scheme.backup_fraction() * 100.0;
        sum += f;
        rows.push(vec![app.name().to_owned(), format!("{f:.3}")]);
        println!("{:<10} {:>6.1}%", app.name(), f);
    }
    println!("{:<10} {:>6.1}%\n", "average", sum / 6.0);
    csv.write("fig15_backup_fraction", &["app", "backup_pct"], &rows);
}

/// Fig. 16: INDRA's slowdown — monitor+backup, and with a rollback every
/// other request.
fn fig16(scale: u32, csv: &CsvSink) {
    println!("-- Fig. 16: INDRA slowdown (paper: M+B ~1.1-1.6; +rollback ~1.3-1.5, bind >2x) --");
    println!("{:<10} {:>14} {:>22}", "app", "monitor+backup", "monitor+backup+rollback");
    let (mut s1, mut s2) = (0.0, 0.0);
    let mut rows = Vec::new();
    for app in ServiceApp::ALL {
        let mut base = base_opts(app, scale);
        base.monitoring = false;
        base.scheme = SchemeKind::None;
        let b = run(&base).cycles_per_benign;
        let mb = run(&base_opts(app, scale)).cycles_per_benign / b;
        let mut r = base_opts(app, scale);
        r.attack = Some((Attack::WildWrite { addr: UNMAPPED_ADDR }, 1));
        let mbr = run(&r).cycles_per_benign / b;
        s1 += mb;
        s2 += mbr;
        rows.push(vec![app.name().to_owned(), format!("{mb:.3}"), format!("{mbr:.3}")]);
        println!("{:<10} {:>13.2}x {:>21.2}x", app.name(), mb, mbr);
    }
    println!("{:<10} {:>13.2}x {:>21.2}x\n", "average", s1 / 6.0, s2 / 6.0);
    csv.write("fig16_indra_slowdown", &["app", "monitor_backup", "monitor_backup_rollback"], &rows);
}

/// §4.1: detection + recovery across every attack class and every app.
fn security(scale: u32, _: &CsvSink) {
    println!("-- §4.1: security evaluation: detect & recover, all apps x all attack classes --");
    println!(
        "{:<10} {:<22} {:>9} {:>10} {:>13}",
        "app", "attack", "detected", "recovered", "benign served"
    );
    let scale = scale.max(8);
    for app in ServiceApp::ALL {
        let image = indra_bench::build_image(&base_opts(app, scale));
        let handler0 = image.addr_of("handler_0").expect("symbol");
        let attacks: [(&str, Attack); 7] = [
            ("stack-smash", Attack::StackSmash { target: handler0 + 8 }),
            ("code-injection", Attack::CodeInjection),
            ("injected-handler", Attack::InjectedHandler),
            ("fn-ptr-hijack", Attack::HandlerHijack { target: UNMAPPED_ADDR }),
            ("format-string", Attack::FormatString { value: UNMAPPED_ADDR }),
            ("wild-write (DoS)", Attack::WildWrite { addr: UNMAPPED_ADDR }),
            ("dormant", Attack::Dormant { addr: UNMAPPED_ADDR }),
        ];
        for (name, attack) in attacks {
            let mut o = base_opts(app, scale);
            o.requests = 6;
            o.attack = Some((attack, 3));
            // Dormant corruption defeats micro recovery by design; it
            // needs the hybrid's macro checkpoint. Use a short cadence in
            // this compressed run (the paper's is every 10,000 requests)
            // and one dormant plant followed by a stream of benign
            // requests, whose failures escalate to the macro restore.
            if matches!(attack, Attack::Dormant { .. }) {
                o.macro_interval = Some(2);
                o.requests = 10;
                o.attack = Some((attack, 5));
            }
            let m = run(&o);
            let detected = !m.report.detections.is_empty();
            let label = m
                .report
                .detections
                .first()
                .map(|d| match d.cause {
                    FailureCause::Violation(ViolationKind::ReturnMismatch) => "ret-mismatch",
                    FailureCause::Violation(ViolationKind::CodeInjection) => "code-origin",
                    FailureCause::Violation(ViolationKind::InvalidIndirectTarget) => "bad-target",
                    FailureCause::Violation(ViolationKind::ShadowStackUnderflow) => "underflow",
                    FailureCause::Violation(ViolationKind::Custom) => "custom-policy",
                    FailureCause::Fault => "hw-fault",
                    FailureCause::Timeout => "timeout",
                })
                .unwrap_or("-");
            let total = if matches!(attack, Attack::Dormant { .. }) { 10 } else { 6 };
            // "Recovered" = the service survived to answer the final
            // benign request of the script (dormant scenarios sacrifice
            // the requests served between the plant and the escalation).
            let last_served = m
                .report
                .samples
                .iter()
                .filter(|s| !s.malicious)
                .map(|s| s.request_id)
                .max()
                .unwrap_or(0);
            let expected_last = m.requests_sent as u64 - 1;
            let recovered =
                m.report.benign_served == total || last_served >= expected_last.saturating_sub(1);
            println!(
                "{:<10} {:<22} {:>9} {:>10} {:>7}/{}",
                app.name(),
                name,
                if detected { label } else { "MISSED" },
                if recovered { "yes" } else { "partial" },
                m.report.benign_served,
                total,
            );
        }
    }
    println!("\n(every attack is detected and the service keeps serving all benign clients)");
}

/// Workload calibration: each app's measured profile next to the
/// targets its spec is tuned to (runs only when named).
fn calibrate(scale: u32, _: &CsvSink) {
    println!("-- calibration: measured profile vs tuning targets --");
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>9} {:>9} {:>10}",
        "app", "insns/req", "IL1%", "tgtIL1%", "backup%", "tgtbk%", "mon ovh%"
    );
    let targets = [
        (ServiceApp::Ftpd, 1.5, 15.0),
        (ServiceApp::Httpd, 2.0, 20.0),
        (ServiceApp::Bind, 4.5, 45.0),
        (ServiceApp::Sendmail, 2.5, 20.0),
        (ServiceApp::Imap, 1.2, 12.0),
        (ServiceApp::Nfs, 1.8, 18.0),
    ];
    for (app, tgt_il1, tgt_bk) in targets {
        let mut opts = base_opts(app, scale);
        opts.requests = 6;
        let m = run(&opts);
        let mut on = opts.clone();
        on.scheme = SchemeKind::None;
        let mut off = on.clone();
        off.monitoring = false;
        let ovh = (run(&on).cycles_per_benign / run(&off).cycles_per_benign - 1.0) * 100.0;
        println!(
            "{:<10} {:>12.0} {:>8.2} {:>8.1} {:>9.1} {:>9.1} {:>10.2}",
            app.name(),
            m.insns_per_request,
            m.il1.miss_rate() * 100.0,
            tgt_il1,
            m.scheme.backup_fraction() * 100.0,
            tgt_bk,
            ovh,
        );
    }
    println!();
}
