//! `fleetbench` — shard-count scaling sweep over the parallel fleet
//! executor. All logic lives in [`indra_fleet::sweep`]; this wrapper
//! installs the graceful-shutdown signal handlers, dispatches the
//! replica modes (`--replicas`, `--rejuvenate-every`,
//! `--replica-bench` — the voting executor lives above `indra-fleet`
//! in `indra-replica`) and exists so `cargo run --release --bin
//! fleetbench` works from the workspace root.

use std::process::ExitCode;
use std::sync::atomic::Ordering;

use indra_bench::cli;
use indra_fleet::sweep::{parse_args, run_sweep, SweepArgs, USAGE};
use indra_fleet::{ChaosConfig, FleetConfig};
use indra_replica::{replica_bench_json, run_fleet_replicated, ReplicaOptions};
use indra_serve::install_shutdown_handler;

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(mut args) => {
            // SIGINT/SIGTERM drain every shard at the next run-slice
            // boundary and flush a final checkpoint, so an interrupted
            // checkpointing run resumes byte-identically.
            let shutdown = install_shutdown_handler();
            args.base.shutdown = Some(shutdown);
            let outcome = if args.replica_bench {
                run_replica_bench(&args)
            } else if args.replicas > 1 || args.rejuvenate_every.is_some() {
                run_replicated(&args)
            } else {
                run_sweep(&args).map(|_| ())
            };
            match outcome {
                Ok(()) => {
                    if shutdown.load(Ordering::SeqCst) {
                        if let Some(store) = &args.base.store_dir {
                            eprintln!("fleetbench: interrupted; resume with --resume {store}");
                        } else {
                            eprintln!("fleetbench: interrupted (no --store, nothing to resume)");
                        }
                        return ExitCode::from(130);
                    }
                    ExitCode::SUCCESS
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(msg) => cli::exit(&msg, USAGE),
    }
}

/// One replicated run at the largest `--shards` point, with the chosen
/// chaos profile's stealth leg (host-level chaos belongs to the
/// supervisor, not the voting executor).
fn run_replicated(args: &SweepArgs) -> Result<(), String> {
    let shards = *args.shard_counts.last().expect("parse_args rejects empty --shards");
    let cfg = FleetConfig { shards, ..args.base.clone() };
    let chaos = match &args.chaos {
        Some(name) => ChaosConfig::profile(name).map_err(|e| format!("--chaos: {e}"))?,
        None => ChaosConfig::off(),
    };
    let opts =
        ReplicaOptions { replicas: args.replicas, rejuvenate_every: args.rejuvenate_every, chaos };
    let report = run_fleet_replicated(&cfg, &opts)?;
    let s = &report.stats;
    let sup = report.supervision.as_ref().expect("replicated runs carry supervision stats");
    println!(
        "replicated fleet: {} shards x {} replicas, served {}, benign {:.1}%, \
         detections {}, divergences {} ({} masked), rejuvenations {}, wall {:.2}s",
        s.shards,
        args.replicas,
        s.served,
        s.benign_service_ratio * 100.0,
        s.true_detections,
        sup.divergences,
        sup.divergent_masked,
        sup.rejuvenations,
        report.wall_seconds,
    );
    if args.json {
        println!("{}", report.to_json());
    }
    // --chaos-out in a replicated run saves the deterministic stats
    // alone, so CI can `cmp` a stealth run against a chaos-free one.
    if let Some(path) = &args.chaos_out {
        cli::write_out(path, &report.stats.to_json())?;
    }
    cli::floor("divergences caught", sup.divergences, args.assert_divergences_min)?;
    let revived = sup.divergent_masked + sup.rejuvenations;
    cli::floor("replica revivals", revived, args.assert_revivals_min)?;
    cli::floor("availability", sup.availability, args.assert_availability_min)?;
    Ok(())
}

/// The K=1/2/3 detection/overhead sweep; writes `--chaos-out PATH` or
/// `results/BENCH_replica.json`.
fn run_replica_bench(args: &SweepArgs) -> Result<(), String> {
    let doc = replica_bench_json(args.quick)?;
    let path = args.chaos_out.clone().unwrap_or_else(|| "results/BENCH_replica.json".to_string());
    cli::write_out(&path, &doc)?;
    println!("replica bench: wrote {path}");
    Ok(())
}
