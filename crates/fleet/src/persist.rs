//! Fleet-level durability: checkpoint metadata and crash-safe resume.
//!
//! The snapshot machinery in `indra-persist` captures a frozen
//! [`indra_core::SystemState`]; this module adds the two pieces the
//! *fleet* needs on top:
//!
//! * `fleet.meta` — the [`FleetConfig`] that produced the run, so
//!   `--resume <dir>` needs no other flags. Determinism makes this
//!   sufficient: the schedule, images and seeds are all pure functions
//!   of the config.
//! * [`load_checkpoint`] — a shard's last valid checkpoint as the state
//!   plus the runner cursor stored as its progress blob. The cursor is
//!   all the driver needs: the fault count and checkpoint mark follow
//!   from the restored served count. A store written before fleet
//!   shards ran through the shard runner carries a 48-byte loop-state
//!   blob instead; it is rejected as [`PersistError::Corrupt`].
//!
//! [`resume_fleet`] reopens a store, rebuilds the config, restores
//! every shard that managed to checkpoint (shards that never reached
//! their first checkpoint simply start over — same result, by
//! determinism) and runs the fleet to the original quota. The stats of
//! a killed-and-resumed run are byte-identical to an uninterrupted one.

use std::path::Path;

use indra_core::SystemState;
use indra_persist::{PersistError, SnapshotStore, WireReader, WireWriter};
use indra_workloads::ServiceApp;

use crate::engine::{from_tag, tag_of, SCHEMES};
use crate::executor::run_fleet_from;
use crate::runner::read_cursor;
use crate::{FleetConfig, FleetReport};

/// Serializes the deterministic portion of a [`FleetConfig`] for
/// `fleet.meta`. `store_dir` and `halt_after_checkpoints` are excluded
/// on purpose: the first is supplied by `--resume <dir>` itself, the
/// second is a crash-simulation knob that must not survive a resume.
pub(crate) fn encode_meta(cfg: &FleetConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.usize(cfg.shards);
    w.seq(cfg.apps.len());
    for &app in &cfg.apps {
        w.u8(tag_of(&ServiceApp::ALL, &app));
    }
    w.u32(cfg.requests_per_shard);
    w.u32(cfg.scale);
    w.u32(cfg.attack_per_mille);
    w.u64(cfg.mean_gap_cycles);
    w.u64(cfg.seed);
    w.u8(tag_of(&SCHEMES, &cfg.scheme));
    w.usize(cfg.fifo_entries);
    w.usize(cfg.cam_entries);
    w.opt_u32(cfg.fault_every);
    w.u64(cfg.run_slice_steps);
    w.bool(cfg.include_dormant_attacks);
    w.u32(cfg.checkpoint_every);
    w.bool(cfg.fast_paths);
    w.bool(cfg.superblocks);
    w.bool(cfg.compartments);
    w.finish()
}

pub(crate) fn decode_meta(bytes: &[u8]) -> Result<FleetConfig, PersistError> {
    let mut r = WireReader::new(bytes);
    let shards = r.usize("meta shards")?;
    let n = r.seq(1, "meta apps")?;
    let mut apps = Vec::with_capacity(n);
    for _ in 0..n {
        apps.push(from_tag(&ServiceApp::ALL, r.u8("meta app")?, "unknown service app")?);
    }
    let cfg = FleetConfig {
        shards,
        apps,
        requests_per_shard: r.u32("meta requests")?,
        scale: r.u32("meta scale")?,
        attack_per_mille: r.u32("meta attack rate")?,
        mean_gap_cycles: r.u64("meta gap")?,
        seed: r.u64("meta seed")?,
        scheme: from_tag(&SCHEMES, r.u8("meta scheme")?, "unknown scheme kind")?,
        fifo_entries: r.usize("meta fifo")?,
        cam_entries: r.usize("meta cam")?,
        fault_every: r.opt_u32("meta fault every")?,
        run_slice_steps: r.u64("meta slice")?,
        include_dormant_attacks: r.bool("meta dormant")?,
        checkpoint_every: r.u32("meta ckpt every")?,
        store_dir: None,
        halt_after_checkpoints: None,
        fast_paths: r.bool("meta fast paths")?,
        superblocks: r.bool("meta superblocks")?,
        compartments: r.bool("meta compartments")?,
        shutdown: None,
    };
    r.expect_exhausted("meta trailing bytes")?;
    Ok(cfg)
}

/// Shard `shard`'s last valid checkpoint in `store` (base snapshot +
/// journal replay) as the state and the runner cursor it was cut at;
/// `None` when the shard never checkpointed. Resume and the
/// supervisor's revival both start a shard from here.
pub(crate) fn load_checkpoint(
    store: &SnapshotStore,
    shard: usize,
) -> Result<Option<(SystemState, u64)>, PersistError> {
    store
        .load_shard(shard)?
        .map(|loaded| Ok((loaded.state, read_cursor(&loaded.progress)?)))
        .transpose()
}

/// Resumes a fleet from a checkpoint directory and runs it to the
/// original quota.
///
/// Reads `fleet.meta`, recovers every shard's last valid checkpoint
/// (`load_checkpoint`), and re-runs the fleet with those shards
/// thawed mid-flight; shards with no checkpoint on disk start from
/// scratch. Because every shard is deterministic, the resulting
/// [`FleetStats`](crate::FleetStats) — and its JSON — are byte-identical
/// to the run that was killed, had it been left to finish.
///
/// # Errors
///
/// Typed [`PersistError`] when the directory, metadata, a base
/// snapshot or a progress blob is unreadable or corrupt — a progress
/// blob that is not a runner cursor included. A torn journal tail is
/// *not* an error (that is the normal crash shape); a config whose
/// shard count disagrees with the on-disk layout is.
///
/// # Panics
///
/// Panics only where [`crate::run_fleet`] does (zero shards, shard
/// thread panic).
pub fn resume_fleet(dir: impl AsRef<Path>) -> Result<FleetReport, PersistError> {
    let dir = dir.as_ref();
    let store = SnapshotStore::open(dir)?;
    let mut cfg = decode_meta(&store.read_meta()?)?;
    cfg.store_dir = Some(dir.to_string_lossy().into_owned());

    let restored =
        (0..cfg.shards).map(|shard| load_checkpoint(&store, shard)).collect::<Result<_, _>>()?;
    Ok(run_fleet_from(&cfg, restored))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let cfg = FleetConfig {
            shards: 3,
            apps: vec![ServiceApp::Bind, ServiceApp::Imap],
            fault_every: Some(5),
            checkpoint_every: 4,
            store_dir: Some("/tmp/x".into()),
            halt_after_checkpoints: Some(2),
            fast_paths: false,
            superblocks: false,
            compartments: false,
            ..FleetConfig::quick()
        };
        let back = decode_meta(&encode_meta(&cfg)).unwrap();
        assert_eq!(back.shards, 3);
        assert_eq!(back.apps, vec![ServiceApp::Bind, ServiceApp::Imap]);
        assert_eq!(back.fault_every, Some(5));
        assert_eq!(back.checkpoint_every, 4);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.scheme, cfg.scheme);
        assert!(!back.fast_paths, "fast_paths must survive the meta roundtrip");
        assert!(!back.superblocks, "superblocks must survive the meta roundtrip");
        assert!(!back.compartments, "compartments must survive the meta roundtrip");
        // Resume-supplied fields never travel through the meta file.
        assert_eq!(back.store_dir, None);
        assert_eq!(back.halt_after_checkpoints, None);
    }

    /// `fleet.meta` bytes for one fixed config: the format is on disk,
    /// so any change to the field order or the tag tables shows here.
    #[test]
    fn meta_bytes_are_pinned() {
        let cfg = FleetConfig {
            shards: 3,
            apps: vec![ServiceApp::Bind, ServiceApp::Nfs],
            scheme: indra_core::SchemeKind::UndoLog,
            fault_every: Some(5),
            checkpoint_every: 4,
            ..FleetConfig::quick()
        };
        let hex: String = encode_meta(&cfg).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "03000000000000000200000002050c000000280000007d00000050c3000000000000eef17a1d00000000\
             04200000000000000020000000000000000105000000400d0300000000000004000000010101"
        );
    }
}
