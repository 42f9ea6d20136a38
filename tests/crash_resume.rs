//! Crash-safe fleet resume: the durable-checkpoint subsystem's headline
//! property is that a run killed mid-flight and resumed from disk
//! produces **byte-identical** deterministic stats to the run that was
//! never interrupted — and that no shape of on-disk damage short of a
//! corrupted base snapshot can make recovery panic.

use indra_core::SchemeKind;
use indra_fleet::{resume_fleet, run_fleet, FleetConfig};
use indra_persist::{PersistError, ScratchDir, SnapshotStore, WireWriter};
use indra_workloads::ServiceApp;

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(tag).expect("scratch dir")
}

fn small_fleet() -> FleetConfig {
    FleetConfig {
        shards: 2,
        apps: vec![ServiceApp::Bind, ServiceApp::Httpd],
        requests_per_shard: 10,
        fault_every: Some(4),
        scheme: SchemeKind::Delta,
        ..FleetConfig::quick()
    }
}

#[test]
fn killed_and_resumed_run_matches_uninterrupted() {
    let guard = scratch("crash-resume");
    let dir = guard.path();
    let clean = run_fleet(&small_fleet());
    let clean_json = clean.stats.to_json();
    assert!(clean.stats.per_shard.iter().all(|s| s.completed), "baseline must finish");

    // Same fleet, checkpointing every 3 requests, each shard killed
    // dead right after its first durable checkpoint.
    let killed = run_fleet(&FleetConfig {
        checkpoint_every: 3,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        halt_after_checkpoints: Some(1),
        ..small_fleet()
    });
    assert!(
        killed.stats.per_shard.iter().all(|s| !s.completed),
        "every shard must die mid-flight for the test to mean anything"
    );
    assert!(killed.stats.served < clean.stats.served);

    let resumed = resume_fleet(dir).expect("resume");
    assert_eq!(
        resumed.stats.to_json(),
        clean_json,
        "resumed stats must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn checkpointing_overhead_is_invisible_in_sim_time() {
    // `freeze` never mutates the system, so a checkpointed run must be
    // cycle-for-cycle identical to `--checkpoint-every 0` — stronger
    // than the <5% budget the acceptance criteria ask for.
    let guard = scratch("ckpt-overhead");
    let dir = guard.path();
    let plain = run_fleet(&small_fleet());
    let checkpointed = run_fleet(&FleetConfig {
        checkpoint_every: 2,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..small_fleet()
    });
    assert_eq!(checkpointed.stats.to_json(), plain.stats.to_json());
}

#[test]
fn resume_of_a_finished_run_replays_to_the_same_stats() {
    // A run that completed normally leaves its last checkpoint behind;
    // resuming it just replays the tail and lands on identical stats.
    let guard = scratch("finished-resume");
    let dir = guard.path();
    let full = run_fleet(&FleetConfig {
        checkpoint_every: 4,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..small_fleet()
    });
    assert!(full.stats.per_shard.iter().all(|s| s.completed));
    let resumed = resume_fleet(dir).expect("resume");
    assert_eq!(resumed.stats.to_json(), full.stats.to_json());
}

#[test]
fn resume_of_a_missing_directory_is_a_typed_error() {
    let guard = scratch("no-such-store");
    let dir = guard.path().join("missing");
    let err = resume_fleet(&dir).expect_err("must not invent a fleet");
    // Any typed PersistError is acceptable; panicking is not.
    let _ = err.to_string();
}

#[test]
fn resume_with_a_missing_shard_directory_is_a_typed_error() {
    // A store whose fleet.meta promises N shards but whose shard-NNNN/
    // directory was deleted (partial copy, botched cleanup) must fail
    // with a typed, actionable error — not a panic, and not a silent
    // from-scratch rerun of the amputated shard.
    let guard = scratch("amputated-resume");
    let dir = guard.path();
    let killed = run_fleet(&FleetConfig {
        checkpoint_every: 3,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        halt_after_checkpoints: Some(1),
        ..small_fleet()
    });
    assert!(killed.stats.served > 0);
    std::fs::remove_dir_all(dir.join("shard-0001")).expect("amputate shard 1");

    let err = resume_fleet(dir).expect_err("a missing shard directory must be an error");
    assert!(
        matches!(err, indra_persist::PersistError::MissingShard { shard: 1 }),
        "expected MissingShard for shard 1, got: {err}"
    );
    assert!(err.to_string().contains("shard 1"), "the message names the missing shard: {err}");
}

#[test]
fn resume_rejects_a_store_with_the_old_loop_state_progress_blob() {
    // Fleet checkpoints carry the shard runner's cursor as their
    // progress blob. A store from the former slice loop carries six u64s
    // of loop state instead; resume refuses it with a typed error rather
    // than guessing where that loop stood.
    let guard = scratch("old-progress-blob");
    let dir = guard.path();
    let _ = run_fleet(&FleetConfig {
        checkpoint_every: 3,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        halt_after_checkpoints: Some(1),
        ..small_fleet()
    });
    let store = SnapshotStore::open(dir).expect("open store");
    let loaded = store.load_shard(0).expect("load shard 0").expect("shard 0 checkpointed");
    let mut old_blob = WireWriter::new();
    for field in [4u64, 1, 4, 1_000_000, 3, 0] {
        old_blob.u64(field);
    }
    let old_blob = old_blob.finish();
    assert_eq!(old_blob.len(), 48);
    store.shard_writer(0).expect("writer").checkpoint(&loaded.state, &old_blob).expect("rewrite");

    let err = resume_fleet(dir).expect_err("an old progress blob must not resume");
    assert!(matches!(err, PersistError::Corrupt { .. }), "expected Corrupt, got: {err}");
}
