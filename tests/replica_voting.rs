//! Acceptance lock for the replica subsystem's headline property:
//! a stealth guest-memory corruption that the monitoring layer never
//! sees IS detected by divergence voting at K >= 2, the divergent
//! replica is revived from the majority checkpoint, and the final
//! deterministic `FleetStats` are byte-identical to a chaos-free run —
//! replication masks the fault completely instead of merely reporting
//! it.
//!
//! Also pins the first stealth payload itself (the exact monitor-blind
//! bit flip the quick profile draws) as a regression fixture, so a
//! future change to the chaos planner or the monitor that would make
//! the payload visible — or voting blind — fails loudly here.

use indra_fleet::{
    plan_for_shard, run_fleet, shard_schedule, ChaosConfig, FleetConfig, FleetReport,
};
use indra_persist::ScratchDir;
use indra_replica::{run_fleet_replicated, ReplicaCell, ReplicaOptions};

fn tiny() -> FleetConfig {
    FleetConfig { shards: 2, requests_per_shard: 6, ..FleetConfig::quick() }
}

fn run(replicas: usize, rejuvenate_every: Option<u64>, chaos: ChaosConfig) -> FleetReport {
    let opts = ReplicaOptions { replicas, rejuvenate_every, chaos };
    run_fleet_replicated(&tiny(), &opts).expect("replicated run")
}

fn stealth() -> ChaosConfig {
    ChaosConfig::profile("stealth").expect("stealth profile")
}

#[test]
fn stealth_corruption_is_masked_at_k3_with_byte_identical_stats() {
    let clean = run(3, None, ChaosConfig::off());
    let struck = run(3, None, stealth());
    let sup = struck.supervision.as_ref().expect("supervision stats");
    assert!(sup.divergences >= 1, "voting must notice the silent corruption: {sup:?}");
    assert!(sup.divergent_masked >= 1, "the minority replica must be masked: {sup:?}");
    assert_eq!(
        struck.stats.to_json(),
        clean.stats.to_json(),
        "a masked fault must leave the deterministic stats byte-identical"
    );
}

#[test]
fn stealth_corruption_is_detected_and_absorbed_at_k2() {
    // Two-way voting cannot out-vote the liar, but it still detects the
    // split, revives both replicas from the checkpoint and retries —
    // the transient corruption is gone on replay, so stats still match.
    let clean = run(2, None, ChaosConfig::off());
    let struck = run(2, None, stealth());
    let sup = struck.supervision.as_ref().expect("supervision stats");
    assert!(sup.divergences >= 1, "K=2 must still detect the divergence: {sup:?}");
    assert_eq!(
        struck.stats.to_json(),
        clean.stats.to_json(),
        "revive-and-retry must absorb the transient corruption"
    );
}

#[test]
fn rejuvenation_rides_along_without_disturbing_the_outcome() {
    let clean = run(3, None, ChaosConfig::off());
    let renewed = run(3, Some(3), stealth());
    let sup = renewed.supervision.as_ref().expect("supervision stats");
    assert!(sup.rejuvenations >= 2, "cadence 3 over 6 requests x 3 replicas: {sup:?}");
    assert!(sup.divergences >= 1, "stealth strike still caught: {sup:?}");
    assert_eq!(renewed.stats.to_json(), clean.stats.to_json());
}

/// The regression fixture: the exact first stealth payload the quick
/// profile draws for shard 0. Applied to a live cell it must be
/// invisible to the monitoring layer (no new detections for the rest of
/// the run) while flipping the state digest immediately — undetected by
/// the monitor, caught by voting.
#[test]
fn first_stealth_payload_is_monitor_blind_but_digest_visible() {
    let cfg = tiny();
    let plan = cfg.plan(0);
    let chaos_plan = plan_for_shard(&stealth(), &cfg, 0);
    let ev = *chaos_plan.stealth.first().expect("stealth profile plans one strike");

    let schedule = shard_schedule(&cfg, &plan);
    let mut victim = ReplicaCell::new(&cfg.engine(plan.app)).expect("victim cell");
    let mut witness = ReplicaCell::new(&cfg.engine(plan.app)).expect("witness cell");
    let mut struck = false;
    for (seq, req) in schedule.into_iter().enumerate() {
        if !struck && ev.at_served <= seq as u64 {
            struck = true;
            assert!(
                victim.corrupt_bit(ev.frame_salt, ev.byte_salt, ev.bit),
                "a deployed cell always has resident frames"
            );
            assert_ne!(
                victim.digest().value,
                witness.digest().value,
                "the flip must be visible to the voting digest at once"
            );
        }
        let vv = victim.deliver(req.data.clone(), req.malicious);
        let vw = witness.deliver(req.data, req.malicious);
        // Monitor-blind: the corrupted cell's verdicts never differ from
        // the clean twin's — the monitoring layer reports nothing new.
        assert_eq!(vv, vw, "payload went monitor-visible at request {seq}");
    }
    assert!(struck, "the strike threshold must fall inside the schedule");
    assert_eq!(
        victim.report().detections.len(),
        witness.report().detections.len(),
        "the monitor must stay blind for the whole run"
    );
}

/// `tiny`, checkpointing into `dir`.
fn stored(dir: &std::path::Path) -> FleetConfig {
    FleetConfig { store_dir: Some(dir.to_string_lossy().into_owned()), ..tiny() }
}

#[test]
fn a_reused_store_dir_does_not_leak_into_revivals() {
    // A second identical run on the same directory finds the first
    // run's checkpoints there. A revival must restore only what this
    // run wrote, so both runs report the same bytes.
    let guard = ScratchDir::new("replica-reuse").expect("scratch dir");
    let opts = ReplicaOptions { replicas: 3, rejuvenate_every: None, chaos: stealth() };
    let first = run_fleet_replicated(&stored(guard.path()), &opts).expect("first run");
    let second = run_fleet_replicated(&stored(guard.path()), &opts).expect("second run");
    assert_eq!(second.stats.to_json(), first.stats.to_json());
    let (a, b) = (first.supervision.expect("sup"), second.supervision.expect("sup"));
    assert_eq!((a.divergences, a.divergent_masked), (b.divergences, b.divergent_masked));
}

#[test]
fn a_store_written_by_the_plain_fleet_is_not_trusted_by_revivals() {
    // The plain fleet's progress blobs are not runner cursors; a
    // replicated run over its directory must neither decode them nor
    // panic, and ends with the stats of a run on a fresh store.
    let guard = ScratchDir::new("replica-plain-store").expect("scratch dir");
    let _ = run_fleet(&FleetConfig { checkpoint_every: 3, ..stored(guard.path()) });
    let fresh = run(3, Some(3), stealth());
    let opts = ReplicaOptions { replicas: 3, rejuvenate_every: Some(3), chaos: stealth() };
    let reused = run_fleet_replicated(&stored(guard.path()), &opts).expect("replicated run");
    assert_eq!(reused.stats.to_json(), fresh.stats.to_json());
}

#[test]
fn replicated_fleet_injects_periodic_faults_like_the_plain_fleet() {
    // `fault_every` reaches the replicated fleet too: at K = 1 it runs
    // the plain fleet's driver, so it injects the same faults after the
    // same requests.
    let cfg = FleetConfig { fault_every: Some(3), ..tiny() };
    let opts = ReplicaOptions { replicas: 1, rejuvenate_every: None, chaos: ChaosConfig::off() };
    let replicated = run_fleet_replicated(&cfg, &opts).expect("replicated run");
    assert!(replicated.stats.faults_injected > 0, "fault_every must inject faults");
    assert_eq!(replicated.stats.to_json(), run_fleet(&cfg).stats.to_json());
}
