//! The parallel fleet executor: one OS thread per shard, one channel
//! into the aggregator.
//!
//! Shards run under [`std::thread::scope`] so they may borrow the
//! config; each sends [`ShardMsg`]s through an [`std::sync::mpsc`]
//! channel. The aggregator (the calling thread) folds latency samples
//! into a [`Histogram`] *while shards are still running* — arrival
//! order varies with the OS scheduler, but histogram recording is
//! commutative and per-shard summaries are slotted by shard index, so
//! the final [`FleetStats`] is schedule-independent.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Instant;

use indra_bench::Histogram;
use indra_persist::SnapshotStore;

use crate::persist::{encode_meta, RestoredShard};
use crate::shard::{run_shard_inner, ShardHarness, ShardMsg, ShardOutput};
use crate::{FleetConfig, FleetReport, FleetStats};

/// Runs the whole fleet and aggregates the result.
///
/// # Panics
///
/// Panics if `cfg.shards == 0`, `cfg.apps` is empty, or a shard thread
/// panics (shard panics propagate — a broken shard must not silently
/// vanish from the aggregate).
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let mut fresh: Vec<Option<RestoredShard>> = Vec::new();
    fresh.resize_with(cfg.shards, || None);
    run_fleet_with(cfg, fresh)
}

/// [`run_fleet`], with some shards thawed from checkpoints (`None`
/// entries start fresh). When `cfg.store_dir` is set the fleet config
/// is persisted to `fleet.meta` before any shard starts, so a crash at
/// any later point leaves a resumable directory.
pub(crate) fn run_fleet_with(
    cfg: &FleetConfig,
    restored: Vec<Option<RestoredShard>>,
) -> FleetReport {
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    assert_eq!(restored.len(), cfg.shards, "one restore slot per shard");
    let started = Instant::now();
    let plans = cfg.plans();

    if let Some(dir) = &cfg.store_dir {
        if cfg.checkpoint_every > 0 {
            let store = SnapshotStore::create(dir.as_str()).expect("checkpoint store");
            store.write_meta(&encode_meta(cfg)).expect("checkpoint meta");
        }
    }

    let mut outputs: Vec<Option<ShardOutput>> = Vec::new();
    outputs.resize_with(cfg.shards, || None);
    let mut latency = Histogram::new();

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<ShardMsg>();
        for (plan, thawed) in plans.into_iter().zip(restored) {
            let tx = tx.clone();
            scope.spawn(move || {
                let shard = plan.shard;
                run_shard_inner(cfg, plan, thawed, ShardHarness::default(), |msg| {
                    // The aggregator outlives every shard; a send can
                    // only fail if it panicked, and then the scope is
                    // already unwinding.
                    let _ = tx.send(msg);
                })
                .unwrap_or_else(|e| panic!("shard {shard}: {e}"));
            });
        }
        drop(tx);
        // Live aggregation: the loop ends once every shard has dropped
        // its sender (i.e. finished).
        for msg in rx {
            match msg {
                ShardMsg::Sample(s) => latency.record(s.cycles),
                ShardMsg::Beat(_) => {} // heartbeats matter only under supervision
                ShardMsg::Done(out) => {
                    let slot = out.plan.shard;
                    outputs[slot] = Some(*out);
                }
            }
        }
    });

    let outputs: Vec<ShardOutput> = outputs
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("shard {i} never reported")))
        .collect();
    let stats = aggregate_stats(&outputs, latency);
    let shard_host = outputs.iter().map(ShardOutput::host_perf).collect();

    let wall_seconds = started.elapsed().as_secs_f64();
    let wall_req_per_sec =
        if wall_seconds > 0.0 { stats.served as f64 / wall_seconds } else { 0.0 };
    FleetReport { stats, wall_seconds, wall_req_per_sec, shard_host, supervision: None }
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
