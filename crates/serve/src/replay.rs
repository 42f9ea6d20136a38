//! Deterministic offline replay of a `fleetd` state directory.
//!
//! Replay is strictly read-only: it opens the store, decodes the
//! persisted [`EngineConfig`] from `serve.meta`, and re-runs every
//! shard's ingress log from a fresh engine — no checkpoints are read
//! (they are an *optimization* for live resume; replay is the ground
//! truth they are checked against) and nothing is written back. The
//! resulting [`indra_fleet::FleetStats`] is byte-identical to what the
//! live daemon reported, including runs that went through revivals,
//! quarantines, scale-ups and kill -9.

use std::path::Path;

use indra_bench::Histogram;
use indra_fleet::{aggregate_stats, FleetStats, ShardOutput};
use indra_persist::{read_ingress_log, PersistError, SnapshotStore, INGRESS_FILE};

use crate::daemon::{discover_shards, ServeError};
use crate::{decode_engine_meta, ShardRunner};

/// Outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Deterministic fleet stats rebuilt from the ingress logs.
    pub stats: FleetStats,
    /// Requests replayed across all shards.
    pub requests_replayed: u64,
    /// Shards replayed.
    pub shards: usize,
}

/// Replays every shard of a state directory and folds the fleet stats
/// exactly like [`crate::daemon::Daemon::stop`] does (shard order,
/// histogram over per-request cycles).
///
/// # Errors
///
/// Store/meta corruption, a foreign or non-dense ingress log, or a
/// shard whose image fails to deploy.
pub fn replay_state_dir(dir: impl AsRef<Path>) -> Result<ReplayOutcome, ServeError> {
    let store = SnapshotStore::open(dir.as_ref())?;
    let engine_cfg = decode_engine_meta(&store.read_meta()?)?;
    let shard_ids = discover_shards(store.root())?;
    let mut outputs: Vec<ShardOutput> = Vec::new();
    let mut requests_replayed = 0u64;
    for shard in shard_ids {
        let log_path = store.shard_dir(shard).join(INGRESS_FILE);
        let records = match std::fs::read(&log_path) {
            Ok(bytes) => {
                let contents = read_ingress_log(&bytes)?;
                if contents.shard != shard as u32 {
                    return Err(ServeError::Persist(PersistError::Corrupt {
                        context: "ingress log belongs to a different shard",
                    }));
                }
                contents.records
            }
            // A shard dir without a log admitted nothing (e.g. created
            // by a scale-up that never received traffic).
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        requests_replayed +=
            records.iter().filter(|r| r.kind == indra_persist::IngressKind::Request).count() as u64;
        // Replay-derived tombstones are discarded: the same deaths
        // already happened live and are in the log; a fresh one here
        // would mean live/replay divergence, which from_log's dense-seq
        // and positional-tombstone rules make impossible for logs this
        // daemon wrote.
        let (runner, _fresh) = ShardRunner::from_log(engine_cfg.clone(), shard, records, None)?;
        outputs.push(runner.finish(true));
    }
    let shards = outputs.len();
    let mut latency = Histogram::new();
    for out in &outputs {
        for s in &out.report.samples {
            latency.record(s.cycles);
        }
    }
    Ok(ReplayOutcome { stats: aggregate_stats(&outputs, latency), requests_replayed, shards })
}
