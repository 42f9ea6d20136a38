//! The replica benchmark: detection rate and overhead across K.
//!
//! Produces `results/BENCH_replica.json` with three run families:
//!
//! * `overhead` — clean runs at K = 1/2/3: wall ratio vs K = 1 (the
//!   replication tax; sim stats are identical by construction).
//! * `stealth` — seeded silent-corruption runs at K = 1/2/3: detection
//!   rate (divergences over strikes applied) and whether the final
//!   deterministic stats matched the clean run byte-for-byte. K = 1
//!   cannot vote, so its rate is 0 — that row *is* the paper's case
//!   for replication.
//! * `rejuvenation` — K = 3 with a cadence sweep: scheduled restarts
//!   performed, mean revive wall ms (the MTTR proxy) and wall overhead
//!   vs the no-rejuvenation K = 3 run.

use indra_core::json::{json_array, JsonObject};
use indra_fleet::{run_fleet_replicated, ChaosConfig, FleetConfig, FleetReport, ReplicaOptions};

/// The fleet shape the bench sweeps (kept small: every run is K full
/// deterministic fleets on a possibly single-CPU host).
fn bench_config(quick: bool) -> FleetConfig {
    let mut cfg = FleetConfig::quick();
    cfg.shards = 2;
    if quick {
        cfg.requests_per_shard = 8;
    }
    cfg
}

fn run(
    cfg: &FleetConfig,
    replicas: usize,
    rejuvenate: Option<u64>,
    chaos: &ChaosConfig,
) -> Result<FleetReport, String> {
    run_fleet_replicated(
        cfg,
        &ReplicaOptions { replicas, rejuvenate_every: rejuvenate, chaos: *chaos },
    )
}

/// Runs the sweep and returns the `BENCH_replica.json` document.
///
/// # Errors
///
/// Propagates any run failure as a message.
pub fn replica_bench_json(quick: bool) -> Result<String, String> {
    let cfg = bench_config(quick);
    let off = ChaosConfig::off();
    let stealth = ChaosConfig::profile("stealth").expect("stealth profile exists");

    let mut runs: Vec<String> = Vec::new();

    // Family 1: clean overhead vs K=1.
    let mut clean_stats_json: Vec<String> = Vec::new();
    let mut base_wall = 0.0f64;
    for k in 1..=3usize {
        let report = run(&cfg, k, None, &off)?;
        if k == 1 {
            base_wall = report.wall_seconds.max(1e-9);
        }
        clean_stats_json.push(report.stats.to_json());
        runs.push(
            JsonObject::new()
                .str("kind", "overhead")
                .u64("replicas", k as u64)
                .f64("wall_seconds", report.wall_seconds)
                .f64("wall_x", report.wall_seconds / base_wall)
                .u64("sim_cycles", report.stats.max_shard_cycles)
                .u64("served", report.stats.served)
                .finish(),
        );
    }

    // Family 2: stealth detection at each K.
    for k in 1..=3usize {
        let report = run(&cfg, k, None, &stealth)?;
        let sup = report.supervision.as_ref().expect("replicated runs report supervision");
        let strikes = sup.per_shard.len() as u64; // the profile plans one strike per shard
        let rate = if strikes == 0 { 0.0 } else { sup.divergences as f64 / strikes as f64 };
        let identical = report.stats.to_json() == clean_stats_json[k - 1];
        runs.push(
            JsonObject::new()
                .str("kind", "stealth")
                .u64("replicas", k as u64)
                .u64("strikes", strikes)
                .u64("divergences", sup.divergences)
                .f64("detection_rate", rate)
                .u64("divergent_masked", sup.divergent_masked)
                .bool("stats_identical_to_clean", identical)
                .finish(),
        );
    }

    // Family 3: rejuvenation cadence sweep at K=3.
    let k3_wall = run(&cfg, 3, None, &off)?.wall_seconds.max(1e-9);
    for every in [4u64, 8, 16] {
        let report = run(&cfg, 3, Some(every), &off)?;
        let sup = report.supervision.as_ref().expect("replicated runs report supervision");
        runs.push(
            JsonObject::new()
                .str("kind", "rejuvenation")
                .u64("replicas", 3)
                .u64("every", every)
                .u64("rejuvenations", sup.rejuvenations)
                .f64("mean_revive_ms", sup.mean_time_to_revive_ms)
                .f64("wall_seconds", report.wall_seconds)
                .f64("wall_x_vs_k3", report.wall_seconds / k3_wall)
                .finish(),
        );
    }

    Ok(JsonObject::new()
        .str("bench", "replica")
        .str("mode", if quick { "quick" } else { "full" })
        .u64("shards", bench_config(quick).shards as u64)
        .u64("requests_per_shard", u64::from(bench_config(quick).requests_per_shard))
        .raw("runs", &json_array(runs))
        .finish())
}
