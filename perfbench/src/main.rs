//! End-to-end benchmark and per-layer ledger for the INDRA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_bind --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_httpd_k3`, `serve_bind` (an in-process `fleetd`
//! driven closed-loop over loopback, then replayed and restarted from
//! its state dir) and `fleet_paper` (batch `run_fleet` jobs at paper
//! scale). `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the traced ledger and prints the per-layer metrics. The last line of
//! standard output is one JSON object; a failed correctness check makes
//! the exit code 1.

mod fleet;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

use indra_workloads::ServiceApp;

use crate::serve::ServeSpec;

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("tput_rps", "req/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("replay_rps", "req/s"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mips", "MIPS"),
    ("sim_cycles_per_req", "cycles"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer a workload
/// bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.requests", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("layers.ms_per_req", "ms"),
    ("serve.front_ms", "ms"),
    ("ingress.append_us", "us"),
    ("ingress.sync_ms", "ms"),
    ("ingress.bytes", "bytes"),
    ("ingress.share_pct", "%"),
    ("engine.admit_ms", "ms"),
    ("engine.admits", "count"),
    ("engine.share_pct", "%"),
    ("ckpt.freeze_ms", "ms"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.count", "count"),
    ("ckpt.bytes_first", "bytes"),
    ("ckpt.bytes_last", "bytes"),
    ("ckpt.pages", "count"),
    ("ckpt.share_pct", "%"),
    ("digest.ms", "ms"),
    ("digest.calls", "count"),
    ("digest.ms_first_tenth", "ms"),
    ("digest.ms_last_tenth", "ms"),
    ("digest.share_pct", "%"),
    ("recover.load_ms", "ms"),
    ("recover.log_read_ms", "ms"),
    ("recover.rebuild_ms", "ms"),
    ("fleet.shard0_wall_s", "s"),
    ("fleet.shard1_wall_s", "s"),
    ("fleet.straggler", "ratio"),
    ("sim.insns", "insns"),
    ("sim.cycles", "cycles"),
    ("sim.sb_coverage", "ratio"),
    ("sim.predecode_hit", "ratio"),
    ("mem.il1_miss", "count"),
    ("mem.dl1_miss", "count"),
    ("mem.l2_miss", "count"),
    ("mem.dtlb_miss", "count"),
    ("mem.dram_row_hit", "ratio"),
    ("monitor.checks", "count"),
    ("monitor.busy_cycles", "cycles"),
    ("fifo.full_stalls", "count"),
    ("delta.line_copies", "count"),
    ("delta.rollbacks", "count"),
    ("delta.lazy_restores", "count"),
    ("recovery.detections", "count"),
    ("recovery.detect_insns_mean", "insns"),
    ("compartment.discards", "count"),
];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_httpd_k3|serve_bind|fleet_paper> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The serve workloads; `timed` is the fixed episode length.
fn serve_spec(name: &str) -> Option<ServeSpec> {
    match name {
        "serve_httpd_k3" => Some(ServeSpec {
            app: ServiceApp::Httpd,
            scale: 30,
            replicas: 3,
            attack_per_mille: 120,
            timed: 400,
        }),
        "serve_bind" => Some(ServeSpec {
            app: ServiceApp::Bind,
            scale: 30,
            replicas: 1,
            attack_per_mille: 0,
            timed: 500,
        }),
        _ => None,
    }
}

/// Temporary state dirs under the working directory, removed on drop.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's dir is left in it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = RunDir(PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    let result = match (serve_spec(&args.workload), args.workload.as_str(), args.trace) {
        (Some(spec), _, false) => serve::run(&spec, &args, &dir.0),
        (Some(spec), _, true) => serve::run_traced(&spec, &args, &dir.0),
        (None, "fleet_paper", false) => fleet::run(&args, &dir.0),
        (None, "fleet_paper", true) => fleet::run_traced(&args),
        _ => {
            eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
            std::process::exit(2);
        }
    };
    drop(dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &outcome.metrics {
        let unit = table.iter().find(|(n, _)| n == name).map(|(_, u)| *u);
        let Some(unit) = unit else {
            eprintln!("perfbench: metric {name} is missing from the metric table");
            std::process::exit(1);
        };
        println!("{:<28} {value:>16.6} {unit}", name);
    }
    for p in &outcome.problems {
        eprintln!("perfbench: correctness: {p}");
    }
    println!("{}", outcome.to_json(table));
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}
