//! The fleet entry points: one OS thread per shard, each running the
//! one shard driver ([`crate::shard`]), and one aggregation.
//!
//! Shards run under [`std::thread::scope`] so they may borrow the
//! config. Every entry point folds its shards' final outputs through
//! [`fleet_report`]: latency samples come from each shard's final run
//! report and per-shard summaries are slotted by shard index, so the
//! [`FleetStats`] are schedule-independent — and identical whether a
//! shard ran straight through, was resumed from disk, or was revived.

use std::collections::BTreeSet;
use std::time::Instant;

use indra_bench::Histogram;
use indra_core::SystemState;
use indra_persist::{PersistError, SnapshotStore};

use crate::chaos::{plan_for_shard, ChaosConfig, ChaosRuntime, ShardChaosPlan};
use crate::persist::encode_meta;
use crate::report::{ShardSupervision, SupervisionStats};
use crate::runner::GroupCounters;
use crate::shard::{drive_shard, Driven, ShardDrive, ShardOutput};
use crate::{FleetConfig, FleetReport, FleetStats};

/// Runs the whole fleet and aggregates the result.
///
/// # Panics
///
/// Panics if `cfg.shards == 0`, `cfg.apps` is empty, the checkpoint
/// store cannot be written, or a shard thread panics (shard panics
/// propagate — a broken shard must not silently vanish from the
/// aggregate).
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_from(cfg, (0..cfg.shards).map(|_| None).collect())
}

/// [`run_fleet`], with some shards thawed from checkpoints (state plus
/// the cursor it was cut at; `None` entries start fresh).
pub(crate) fn run_fleet_from(
    cfg: &FleetConfig,
    restored: Vec<Option<(SystemState, u64)>>,
) -> FleetReport {
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    assert_eq!(restored.len(), cfg.shards, "one restore slot per shard");
    let started = Instant::now();
    let store = durable_store(cfg).expect("checkpoint store");
    let drive = ShardDrive {
        replicas: 1,
        rejuvenate_every: None,
        cut_every: if store.is_some() { cfg.checkpoint_every } else { 0 },
        store: store.as_ref(),
        chaos: None,
        cancel: None,
        beat: &|_| {},
    };
    let outputs = drive_fleet(cfg, drive, &[], restored)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .map(|(out, _)| out)
        .collect();
    fleet_report(cfg, outputs, None, started)
}

/// Drives every shard through `drive` on its own scoped thread: shard
/// `i` gets `chaos[i]` (when given) and starts from `restored[i]`.
fn drive_fleet(
    cfg: &FleetConfig,
    drive: ShardDrive<'_>,
    chaos: &[ChaosRuntime],
    restored: Vec<Option<(SystemState, u64)>>,
) -> Result<Vec<Driven>, String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = restored
            .into_iter()
            .enumerate()
            .map(|(shard, thawed)| {
                let drive = ShardDrive { chaos: chaos.get(shard), ..drive };
                scope.spawn(move || {
                    drive_shard(cfg, shard, &drive, thawed)
                        .map(|driven| driven.expect("an uncancellable shard finishes"))
                        .map_err(|e| format!("shard {shard}: {e}"))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("shard thread panicked")).collect()
    })
}

/// The store a checkpointing config writes to, with `fleet.meta`
/// written before any shard starts so a crash at any later point leaves
/// a resumable directory. `None` when the config does not checkpoint to
/// disk.
pub(crate) fn durable_store(cfg: &FleetConfig) -> Result<Option<SnapshotStore>, PersistError> {
    match (&cfg.store_dir, cfg.checkpoint_every) {
        (Some(dir), every) if every > 0 => {
            let store = SnapshotStore::create(dir.as_str())?;
            store.write_meta(&encode_meta(cfg))?;
            Ok(Some(store))
        }
        _ => Ok(None),
    }
}

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

/// Runs the fleet with K replicas per shard and per-request divergence
/// voting. Returns the standard [`FleetReport`] with `supervision`
/// populated (divergence/rejuvenation counters, availability).
///
/// Every shard cuts a checkpoint every `checkpoint_every` served
/// requests (4 when the config sets none) for revivals to restore. The
/// cuts go to disk only when the config names a store and a cadence;
/// otherwise they are in-memory freezes. For K ≥ 2 a stealth-corrupted
/// run's [`FleetStats`] are byte-identical to an undisturbed run's,
/// because every corrupted cell is revived onto the trusted trajectory
/// before it can steer the shard.
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
    let store = durable_store(cfg).map_err(|e| format!("store: {e}"))?;
    let stealth: Vec<ChaosRuntime> = (0..cfg.shards)
        .map(|shard| {
            let stealth = plan_for_shard(&opts.chaos, cfg, shard).stealth;
            ChaosRuntime::new(ShardChaosPlan { stealth, ..ShardChaosPlan::default() }, 0, None)
        })
        .collect();
    let drive = ShardDrive {
        replicas: opts.replicas,
        rejuvenate_every: opts.rejuvenate_every,
        cut_every: if cfg.checkpoint_every > 0 { cfg.checkpoint_every } else { 4 },
        store: store.as_ref(),
        chaos: None,
        cancel: None,
        beat: &|_| {},
    };
    let rows = drive_fleet(cfg, drive, &stealth, (0..cfg.shards).map(|_| None).collect())?;
    let (outputs, sup_rows): (Vec<ShardOutput>, Vec<_>) = rows
        .into_iter()
        .map(|(out, counters)| {
            let row = shard_supervision(&out, &counters, ShardSupervision::default(), &[]);
            (out, row)
        })
        .unzip();
    let sup = supervision(cfg, &outputs, sup_rows, 0);
    Ok(fleet_report(cfg, outputs, Some(sup), started))
}

/// One shard's supervision row: the supervisor's thread counters in
/// `threads` (with `revive_ms`, the wall time of each thread revival)
/// plus what the shard's runner saw. Runner-caught deaths count as
/// crashes. Returns the row with the shard's total revive wall time and
/// revival count, for the fleet-wide mean.
pub(crate) fn shard_supervision(
    out: &ShardOutput,
    counters: &GroupCounters,
    threads: ShardSupervision,
    revive_ms: &[f64],
) -> (ShardSupervision, f64, u64) {
    let n = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
    let events = revive_ms.len() as u64 + counters.revive_events;
    let total_ms = revive_ms.iter().sum::<f64>() + counters.revive_wall_ms;
    let row = ShardSupervision {
        shard: out.plan.shard,
        crashes: threads.crashes.saturating_add(n(counters.deaths)),
        quarantined: out.report.quarantined.clone(),
        mean_time_to_revive_ms: if events == 0 { 0.0 } else { total_ms / events as f64 },
        divergences: n(counters.divergences),
        divergent_masked: n(counters.divergent_masked),
        rejuvenations: n(counters.rejuvenations),
        ..threads
    };
    (row, total_ms, events)
}

/// Folds [`shard_supervision`] rows into the fleet-wide
/// [`SupervisionStats`]; `host_events` counts chaos host events fired.
pub(crate) fn supervision(
    cfg: &FleetConfig,
    outputs: &[ShardOutput],
    rows: Vec<(ShardSupervision, f64, u64)>,
    host_events: u64,
) -> SupervisionStats {
    let (revive_ms, revive_events) =
        rows.iter().fold((0.0, 0), |(ms, n), (_, row_ms, row_n)| (ms + row_ms, n + row_n));
    let per_shard: Vec<ShardSupervision> = rows.into_iter().map(|(row, _, _)| row).collect();
    let sum =
        |f: fn(&ShardSupervision) -> u32| per_shard.iter().map(|s| u64::from(f(s))).sum::<u64>();
    SupervisionStats {
        revivals: sum(|s| s.revivals),
        crashes: sum(|s| s.crashes),
        hangs: sum(|s| s.hangs),
        harness_errors: sum(|s| s.harness_errors),
        chaos_host_events: host_events,
        quarantined_requests: per_shard.iter().map(|s| s.quarantined.len() as u64).sum(),
        abandoned_shards: per_shard.iter().filter(|s| s.abandoned).count() as u64,
        availability: availability(outputs, cfg.shards as u64 * u64::from(cfg.requests_per_shard)),
        mean_time_to_revive_ms: if revive_events == 0 {
            0.0
        } else {
            revive_ms / revive_events as f64
        },
        divergences: sum(|s| s.divergences),
        divergent_masked: sum(|s| s.divergent_masked),
        rejuvenations: sum(|s| s.rejuvenations),
        per_shard,
    }
}

/// The one aggregation every entry point ends in: shard outputs (in
/// shard order) into a [`FleetReport`].
pub(crate) fn fleet_report(
    cfg: &FleetConfig,
    outputs: Vec<ShardOutput>,
    supervision: Option<SupervisionStats>,
    started: Instant,
) -> FleetReport {
    debug_assert_eq!(outputs.len(), cfg.shards);
    let mut latency = Histogram::new();
    for out in &outputs {
        for s in &out.report.samples {
            latency.record(s.cycles);
        }
    }
    let stats = aggregate_stats(&outputs, latency);
    let shard_host = outputs.iter().map(ShardOutput::host_perf).collect();
    let wall_seconds = started.elapsed().as_secs_f64();
    let wall_req_per_sec =
        if wall_seconds > 0.0 { stats.served as f64 / wall_seconds } else { 0.0 };
    FleetReport { stats, wall_seconds, wall_req_per_sec, shard_host, supervision }
}

/// Folds shard outputs (already in shard order) into fleet-wide
/// [`FleetStats`]. Public because the service daemon (`indra-serve`)
/// aggregates its live and replayed shards through the exact same fold
/// — byte-identity of the two paths depends on sharing this code.
#[must_use]
pub fn aggregate_stats(outputs: &[ShardOutput], latency: Histogram) -> FleetStats {
    let per_shard: Vec<_> = outputs.iter().map(ShardOutput::summary).collect();
    let sum = |f: fn(&crate::ShardSummary) -> u64| per_shard.iter().map(f).sum::<u64>();
    let served = sum(|s| s.served);
    let benign_sent = sum(|s| s.benign_sent);
    let benign_served = sum(|s| s.benign_served);
    let max_shard_cycles = per_shard.iter().map(|s| s.sim_cycles).max().unwrap_or(0);
    FleetStats {
        shards: outputs.len(),
        served,
        benign_sent,
        benign_served,
        attacks_sent: sum(|s| s.attacks_sent),
        detections: sum(|s| s.detections),
        true_detections: sum(|s| s.true_detections),
        detection_latency_insns: sum(|s| s.detection_latency_insns),
        micro_recoveries: sum(|s| s.micro_recoveries),
        macro_recoveries: sum(|s| s.macro_recoveries),
        faults_injected: sum(|s| s.faults_injected),
        benign_service_ratio: if benign_sent == 0 {
            1.0
        } else {
            benign_served as f64 / benign_sent as f64
        },
        max_shard_cycles,
        total_shard_cycles: sum(|s| s.sim_cycles),
        served_per_mcycle: if max_shard_cycles == 0 {
            0.0
        } else {
            served as f64 * 1_000_000.0 / max_shard_cycles as f64
        },
        latency: latency.summary(),
        per_shard,
    }
}

/// [`crate::SupervisionStats::availability`]: the share of `scheduled`
/// requests the fleet disposed of, counting each request at most once —
/// a distinct request id a shard served or detected as a true attack.
/// A dormant plant that is served and later caught still counts once,
/// so the figure stays in `[0, 1]`. Every supervising runner reports
/// availability through this one function.
#[must_use]
pub fn availability(outputs: &[ShardOutput], scheduled: u64) -> f64 {
    if scheduled == 0 {
        return 1.0;
    }
    let disposed: usize = outputs
        .iter()
        .map(|out| {
            let served = out.report.samples.iter().map(|s| s.request_id);
            let caught = out.report.detections.iter().filter(|d| d.was_malicious);
            served.chain(caught.filter_map(|d| d.request_id)).collect::<BTreeSet<u64>>().len()
        })
        .sum();
    disposed as f64 / scheduled as f64
}
