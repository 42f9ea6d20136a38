//! Graceful shutdown of the batch fleet: a SIGINT/SIGTERM-style flag
//! raised mid-run drains every shard at a run-slice (= checkpoint)
//! boundary, and the interrupted run resumes byte-identically — the
//! same property the serve daemon gets from its ingress log, here for
//! `fleetbench`'s schedule-driven executor.

use std::sync::atomic::{AtomicBool, Ordering};

use indra_fleet::{resume_fleet, run_fleet, FleetConfig};
use indra_persist::ScratchDir;

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(tag).expect("scratch dir")
}

fn shutdown_fleet(dir: &std::path::Path, shutdown: &'static AtomicBool) -> FleetConfig {
    FleetConfig {
        shards: 2,
        checkpoint_every: 2,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        shutdown: Some(shutdown),
        ..FleetConfig::quick()
    }
}

#[test]
fn pre_raised_shutdown_flag_stops_at_the_first_boundary_and_resumes() {
    let guard = scratch("serve-shutdown-pre");
    let dir = guard.path();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));

    let baseline = run_fleet(&FleetConfig { shutdown: None, ..shutdown_fleet(dir, flag) });
    let _ = std::fs::remove_dir_all(dir); // baseline checkpoints discarded
    let baseline_json = baseline.stats.to_json();

    let interrupted = run_fleet(&shutdown_fleet(dir, flag));
    assert!(
        interrupted.stats.per_shard.iter().all(|s| !s.completed),
        "a pre-raised flag must stop every shard before it finishes"
    );
    assert_eq!(interrupted.stats.served, 0, "stopped at the first slice boundary");

    // The flag is a property of this process, never of the store: the
    // resumed run must go to quota and match the uninterrupted bytes.
    flag.store(false, Ordering::SeqCst);
    let resumed = resume_fleet(dir).expect("resume after graceful shutdown");
    assert!(resumed.stats.per_shard.iter().all(|s| s.completed));
    assert_eq!(resumed.stats.to_json(), baseline_json);
}

#[test]
fn mid_run_shutdown_resumes_byte_identically() {
    let guard = scratch("serve-shutdown-mid");
    let dir = guard.path();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));

    let baseline = run_fleet(&FleetConfig { shutdown: None, ..shutdown_fleet(dir, flag) });
    let _ = std::fs::remove_dir_all(dir);
    let baseline_json = baseline.stats.to_json();

    // Raise the flag from another thread while the fleet runs. Where
    // exactly it lands is timing-dependent; correctness must not be:
    // whatever prefix completed, the resume runs to quota and the bytes
    // must match the uninterrupted run.
    let raiser = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(150));
        flag.store(true, Ordering::SeqCst);
    });
    let interrupted = run_fleet(&shutdown_fleet(dir, flag));
    raiser.join().expect("raiser thread");

    if interrupted.stats.per_shard.iter().any(|s| !s.completed) {
        let resumed = resume_fleet(dir).expect("resume after mid-run shutdown");
        assert_eq!(resumed.stats.to_json(), baseline_json);
    } else {
        // The run outpaced the timer — it must then already match.
        assert_eq!(interrupted.stats.to_json(), baseline_json);
    }
}
