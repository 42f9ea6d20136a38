//! `fleetd` — the INDRA fleet service daemon. All logic lives in
//! [`indra_serve`]; this wrapper parses flags, installs the signal
//! handlers and runs the serve-or-replay loop so `cargo run --release
//! --bin fleetd` works from the workspace root.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use indra::bench::cli;
use indra::serve::{
    install_shutdown_handler, parse_fleetd_args, replay_state_dir, Daemon, FleetdArgs, FLEETD_USAGE,
};

fn main() -> ExitCode {
    match parse_fleetd_args(std::env::args().skip(1)) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => cli::exit(&msg, FLEETD_USAGE),
    }
}

fn run(args: FleetdArgs) -> Result<(), String> {
    if let Some(dir) = &args.replay {
        let outcome = replay_state_dir(dir).map_err(|e| format!("fleetd: replay: {e}"))?;
        let json = outcome.stats.to_json();
        println!("{json}");
        if let Some(path) = &args.out {
            std::fs::write(path, json + "\n").map_err(|e| format!("fleetd: write --out: {e}"))?;
        }
        eprintln!(
            "fleetd: replayed {} requests across {} shards",
            outcome.requests_replayed, outcome.shards
        );
        return Ok(());
    }

    let shutdown = install_shutdown_handler();
    let daemon = Daemon::start(args.serve.clone()).map_err(|e| format!("fleetd: {e}"))?;
    println!("fleetd listening on {}", daemon.addr());
    while !shutdown.load(Ordering::SeqCst) && !daemon.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fleetd: draining shards and flushing final checkpoints");
    let report = daemon.stop().map_err(|e| format!("fleetd: {e}"))?;
    let json = report.stats.to_json();
    let out = args.out.clone().unwrap_or_else(|| args.serve.state_dir.join("FLEET_stats.json"));
    std::fs::write(&out, json.clone() + "\n")
        .map_err(|e| format!("fleetd: write {}: {e}", out.display()))?;
    println!("{json}");
    eprintln!(
        "fleetd: served {} requests ({} rejected at admission) in {:.1}s -> {}",
        report.stats.served,
        report.rejected,
        report.wall_seconds,
        out.display()
    );
    Ok(())
}
