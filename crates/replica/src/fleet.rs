//! The replicated fleet runner: one replicated [`ShardRunner`] per
//! shard, fed the shard's deterministic schedule.
//!
//! Mirrors [`indra_fleet::run_fleet`]'s aggregation exactly — primary
//! outputs fold through [`indra_fleet::aggregate_stats`] in shard
//! order — so [`indra_fleet::FleetStats`] keeps its determinism
//! contract: for K ≥ 2 a stealth-corrupted run's stats are
//! byte-identical to an undisturbed run's, because every corrupted
//! cell is revived onto the trusted trajectory before it can steer the
//! shard. Replication/rejuvenation counters are host observations and
//! live in [`SupervisionStats`] on the outer [`FleetReport`], never
//! inside `stats`.

use std::path::PathBuf;
use std::time::Instant;

use indra_bench::Histogram;
use indra_fleet::{
    aggregate_stats, availability, plan_for_shard, shard_schedule, ChaosConfig, FleetConfig,
    FleetReport, ShardOutput, ShardSupervision, SupervisionStats,
};
use indra_persist::{IngressKind, IngressRecord, ScratchDir, SnapshotStore};

use crate::runner::{GroupCounters, ShardRunner};

/// Replication knobs layered on top of a [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Replicas per shard (K). 1 disables voting (baseline), 2
    /// detects-and-retries, 3 masks via majority.
    pub replicas: usize,
    /// Proactively rejuvenate each replica every N admitted requests
    /// (staggered across the shard's cells); `None` disables.
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

/// Drives one shard's schedule through a replicated runner: stealth
/// strikes due before each request, the voted admission, then a
/// checkpoint every `checkpoint_every` admitted requests.
fn run_shard(
    cfg: &FleetConfig,
    opts: &ReplicaOptions,
    shard: usize,
    store: &SnapshotStore,
    checkpoint_every: u32,
) -> Result<(ShardOutput, GroupCounters), String> {
    let plan = cfg.plan(shard);
    let mut writer = store.shard_writer(shard).map_err(|e| format!("shard {shard}: {e}"))?;
    let (mut runner, _) = ShardRunner::replicated(
        cfg.engine(plan.app),
        shard,
        opts.replicas,
        opts.rejuvenate_every,
        Vec::new(),
        None,
    )
    .map_err(|e| format!("shard {shard}: {e}"))?;
    let mut stealth = plan_for_shard(&opts.chaos, cfg, shard).stealth.into_iter().peekable();
    for (seq, req) in (0u64..).zip(shard_schedule(cfg, &plan)) {
        while let Some(ev) = stealth.next_if(|ev| ev.at_served <= seq) {
            let cells = runner.cells_mut();
            let victim = usize::try_from(ev.replica_salt % cells.len() as u64).expect("fits");
            cells[victim].corrupt_bit(ev.frame_salt, ev.byte_salt, ev.bit);
        }
        runner.admit(IngressRecord {
            seq,
            kind: IngressKind::Request,
            request_id: seq,
            malicious: req.malicious,
            data: req.data,
        });
        if runner.next_seq().is_multiple_of(u64::from(checkpoint_every)) {
            runner.checkpoint(&mut writer).map_err(|e| format!("shard {shard}: {e}"))?;
        }
    }
    let counters = runner.counters;
    Ok((runner.finish(true), counters))
}

/// Runs the fleet with K replicas per shard and per-request divergence
/// voting. Returns the standard [`FleetReport`] with `supervision`
/// populated (divergence/rejuvenation counters, availability).
///
/// # Errors
///
/// Returns a message when the checkpoint store cannot be created or a
/// shard's checkpoint write fails.
///
/// # Panics
///
/// Panics if `opts.replicas == 0` or a shard worker thread dies outside
/// the runner's own panic containment.
pub fn run_fleet_replicated(
    cfg: &FleetConfig,
    opts: &ReplicaOptions,
) -> Result<FleetReport, String> {
    assert!(opts.replicas >= 1, "--replicas must be at least 1");
    let started = Instant::now();

    // Runners trust only checkpoints they wrote themselves; default a
    // cadence when the config doesn't set one, and a scratch store when
    // the config names no directory. The scratch guard lives to the end
    // of the run and removes the store on every return path.
    let checkpoint_every = if cfg.checkpoint_every > 0 { cfg.checkpoint_every } else { 4 };
    let (store_dir, _scratch) = match &cfg.store_dir {
        Some(dir) => (PathBuf::from(dir), None),
        None => {
            let scratch = ScratchDir::new("replica").map_err(|e| format!("scratch store: {e}"))?;
            (scratch.path().to_path_buf(), Some(scratch))
        }
    };
    let store = SnapshotStore::create(&store_dir).map_err(|e| format!("store: {e}"))?;

    let rows: Vec<Result<(ShardOutput, GroupCounters), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.shards)
            .map(|shard| {
                let store = &store;
                scope.spawn(move || run_shard(cfg, opts, shard, store, checkpoint_every))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
    });
    let (outputs, counters): (Vec<ShardOutput>, Vec<GroupCounters>) =
        rows.into_iter().collect::<Result<Vec<_>, String>>()?.into_iter().unzip();

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
    for (out, counters) in outputs.iter().zip(&counters) {
        sup.divergences += counters.divergences;
        sup.divergent_masked += counters.divergent_masked;
        sup.rejuvenations += counters.rejuvenations;
        sup.quarantined_requests += out.report.quarantined.len() as u64;
        revive_ms += counters.revive_wall_ms;
        revive_events += counters.revive_events;
        sup.per_shard.push(ShardSupervision {
            shard: out.plan.shard,
            quarantined: out.report.quarantined.clone(),
            divergences: u32::try_from(counters.divergences).unwrap_or(u32::MAX),
            divergent_masked: u32::try_from(counters.divergent_masked).unwrap_or(u32::MAX),
            rejuvenations: u32::try_from(counters.rejuvenations).unwrap_or(u32::MAX),
            ..ShardSupervision::default()
        });
    }
    sup.availability =
        availability(&outputs, cfg.shards as u64 * u64::from(cfg.requests_per_shard));
    sup.mean_time_to_revive_ms =
        if revive_events == 0 { 0.0 } else { revive_ms / revive_events as f64 };

    let wall_seconds = started.elapsed().as_secs_f64();
    let wall_req_per_sec =
        if wall_seconds > 0.0 { stats.served as f64 / wall_seconds } else { 0.0 };
    Ok(FleetReport { stats, wall_seconds, wall_req_per_sec, shard_host, supervision: Some(sup) })
}
