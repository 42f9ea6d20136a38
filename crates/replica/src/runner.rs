//! The replicated fleet runner: one [`ReplicaGroup`] per shard.
//!
//! Mirrors [`indra_fleet::run_fleet`]'s aggregation exactly — leader
//! outputs fold through [`indra_fleet::aggregate_stats`] in shard
//! order — so [`indra_fleet::FleetStats`] keeps its determinism
//! contract: for K ≥ 2 a stealth-corrupted run's stats are
//! byte-identical to an undisturbed run's, because every corrupted
//! replica is revived onto the majority trajectory before it can steer
//! the group. Replication/rejuvenation counters are wall-clock-ish
//! host observations and live in [`SupervisionStats`] on the outer
//! [`FleetReport`], never inside `stats`.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Instant;

use indra_bench::Histogram;
use indra_fleet::{
    aggregate_stats, plan_for_shard, ChaosConfig, FleetConfig, FleetReport, ShardOutput,
    ShardSupervision, SupervisionStats,
};
use indra_persist::{ScratchDir, SnapshotStore};

use crate::group::{GroupCounters, ReplicaGroup};

/// Replication knobs layered on top of a [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Replicas per shard (K). 1 disables voting (baseline), 2
    /// detects-and-quarantines, 3 masks via majority.
    pub replicas: usize,
    /// Proactively rejuvenate each replica every N admitted requests
    /// (staggered across the group); `None` disables.
    pub rejuvenate_every: Option<u64>,
    /// Chaos plan source — only the `stealth` leg is consumed here; the
    /// host-level legs (kills, stalls, tears) belong to the supervisor.
    pub chaos: ChaosConfig,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions { replicas: 3, rejuvenate_every: None, chaos: ChaosConfig::off() }
    }
}

/// Runs the fleet with K replicas per shard and per-request divergence
/// voting. Returns the standard [`FleetReport`] with `supervision`
/// populated (divergence/rejuvenation counters, availability).
///
/// # Errors
///
/// Returns a message when the checkpoint store cannot be created or a
/// group's persistence fails.
///
/// # Panics
///
/// Panics if `opts.replicas == 0` or a shard worker thread dies outside
/// the group's own panic containment.
pub fn run_fleet_replicated(
    cfg: &FleetConfig,
    opts: &ReplicaOptions,
) -> Result<FleetReport, String> {
    assert!(opts.replicas >= 1, "--replicas must be at least 1");
    let started = Instant::now();

    // Groups need durable checkpoints for revival; default a cadence
    // when the config doesn't set one, and a scratch store when the
    // config names no directory. The scratch guard lives to the end of
    // the run and removes the store on every return path.
    let checkpoint_every = if cfg.checkpoint_every > 0 { cfg.checkpoint_every } else { 4 };
    let (store_dir, _scratch) = match &cfg.store_dir {
        Some(dir) => (PathBuf::from(dir), None),
        None => {
            let scratch = ScratchDir::new("replica").map_err(|e| format!("scratch store: {e}"))?;
            (scratch.path().to_path_buf(), Some(scratch))
        }
    };

    let (tx, rx) = mpsc::channel::<Result<(ShardOutput, GroupCounters), String>>();
    std::thread::scope(|scope| {
        for shard in 0..cfg.shards {
            let tx = tx.clone();
            let store_dir = store_dir.clone();
            scope.spawn(move || {
                let run = || -> Result<(ShardOutput, GroupCounters), String> {
                    let store = SnapshotStore::create(&store_dir)
                        .map_err(|e| format!("shard {shard}: store: {e}"))?;
                    let plan = cfg.plan(shard);
                    let stealth = plan_for_shard(&opts.chaos, cfg, shard).stealth;
                    let mut group = ReplicaGroup::new(
                        cfg,
                        plan,
                        opts.replicas,
                        checkpoint_every,
                        opts.rejuvenate_every,
                        store,
                        stealth,
                    )
                    .map_err(|e| format!("shard {shard}: {e}"))?;
                    let completed = group.run().map_err(|e| format!("shard {shard}: {e}"))?;
                    Ok(group.finish(completed))
                };
                tx.send(run()).expect("aggregator outlives shard workers");
            });
        }
        drop(tx);
    });

    let mut rows: Vec<(ShardOutput, GroupCounters)> = Vec::with_capacity(cfg.shards);
    for msg in rx {
        rows.push(msg?);
    }
    rows.sort_by_key(|(out, _)| out.plan.shard);
    let (outputs, counters): (Vec<ShardOutput>, Vec<GroupCounters>) = rows.into_iter().unzip();

    let mut latency = Histogram::new();
    for out in &outputs {
        for s in &out.report.samples {
            latency.record(s.cycles);
        }
    }
    let stats = aggregate_stats(&outputs, latency);
    let shard_host = outputs.iter().map(ShardOutput::host_perf).collect();

    let mut sup = SupervisionStats {
        per_shard: Vec::with_capacity(outputs.len()),
        ..SupervisionStats::default()
    };
    let mut revive_ms = 0.0;
    let mut revive_events = 0u64;
    let mut disposed = 0u64;
    let mut scheduled = 0u64;
    for (out, counters) in outputs.iter().zip(&counters) {
        sup.divergences += counters.divergences;
        sup.divergent_masked += counters.divergent_masked;
        sup.rejuvenations += counters.rejuvenations;
        sup.quarantined_requests += counters.quarantined;
        revive_ms += counters.revive_wall_ms;
        revive_events += counters.revive_events;
        disposed += out.report.served + out.report.detections.len() as u64;
        scheduled += out.benign_sent + out.attacks_sent;
        sup.per_shard.push(ShardSupervision {
            shard: out.plan.shard,
            quarantined: out.report.quarantined.clone(),
            divergences: u32::try_from(counters.divergences).unwrap_or(u32::MAX),
            divergent_masked: u32::try_from(counters.divergent_masked).unwrap_or(u32::MAX),
            rejuvenations: u32::try_from(counters.rejuvenations).unwrap_or(u32::MAX),
            ..ShardSupervision::default()
        });
    }
    sup.availability = if scheduled == 0 { 1.0 } else { disposed as f64 / scheduled as f64 };
    sup.mean_time_to_revive_ms =
        if revive_events == 0 { 0.0 } else { revive_ms / revive_events as f64 };

    let wall_seconds = started.elapsed().as_secs_f64();
    let wall_req_per_sec =
        if wall_seconds > 0.0 { stats.served as f64 / wall_seconds } else { 0.0 };
    Ok(FleetReport { stats, wall_seconds, wall_req_per_sec, shard_host, supervision: Some(sup) })
}
