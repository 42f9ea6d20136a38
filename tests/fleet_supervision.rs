//! Self-healing fleet supervision: chaos-injected crashes, hangs, WAL
//! tears and poison requests must all be survived — and every revival
//! must replay from its checkpoint so exactly that the deterministic
//! fleet stats come out **byte-identical** to a run nothing ever
//! touched.

use indra_fleet::{
    run_fleet, run_fleet_supervised, ChaosConfig, FleetConfig, FleetReport, SupervisorConfig,
};
use indra_persist::ScratchDir;
use indra_replica::{run_fleet_replicated, ReplicaOptions};
use indra_workloads::ServiceApp;

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(tag).expect("scratch dir")
}

fn small_fleet() -> FleetConfig {
    FleetConfig {
        shards: 2,
        apps: vec![ServiceApp::Bind, ServiceApp::Httpd],
        requests_per_shard: 10,
        ..FleetConfig::quick()
    }
}

/// `small_fleet`, checkpointing into `dir` so revival really replays
/// from disk.
fn checkpointed_fleet(dir: &std::path::Path) -> FleetConfig {
    FleetConfig {
        checkpoint_every: 3,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..small_fleet()
    }
}

fn supervised(cfg: &FleetConfig, profile: &str) -> FleetReport {
    let sup = SupervisorConfig {
        chaos: ChaosConfig::profile(profile).expect("known profile"),
        ..SupervisorConfig::default()
    };
    run_fleet_supervised(cfg, &sup)
}

#[test]
fn chaos_kills_revive_to_byte_identical_stats() {
    let baseline = run_fleet(&small_fleet()).stats.to_json();

    let guard = scratch("sup-kills");
    let dir = guard.path();
    let report = supervised(&checkpointed_fleet(dir), "kills");
    let sup = report.supervision.as_ref().expect("supervised run");

    assert!(sup.revivals > 0, "the kills profile must actually kill something");
    assert_eq!(sup.crashes, sup.revivals, "every chaos kill dies by panic");
    assert_eq!(sup.hangs, 0);
    assert_eq!(sup.abandoned_shards, 0);
    assert_eq!(sup.quarantined_requests, 0);
    assert!((sup.availability - 1.0).abs() < 1e-12, "nothing may be lost to revival");
    assert_eq!(
        report.stats.to_json(),
        baseline,
        "checkpoint revival must replay to byte-identical deterministic stats"
    );
}

#[test]
fn wal_tear_recovers_from_the_valid_journal_prefix() {
    let baseline = run_fleet(&small_fleet()).stats.to_json();

    let guard = scratch("sup-wal");
    let dir = guard.path();
    let report = supervised(&checkpointed_fleet(dir), "wal");
    let sup = report.supervision.as_ref().expect("supervised run");

    assert!(sup.revivals > 0, "the wal profile must tear at least one journal");
    assert_eq!(sup.abandoned_shards, 0, "a torn tail must never strand a shard");
    assert_eq!(
        report.stats.to_json(),
        baseline,
        "longest-valid-prefix recovery plus deterministic replay must reconverge"
    );
}

#[test]
fn hung_shard_is_cancelled_and_revived() {
    let baseline = run_fleet(&small_fleet()).stats.to_json();

    let guard = scratch("sup-stall");
    let dir = guard.path();
    let sup_cfg = SupervisorConfig {
        chaos: ChaosConfig::profile("stalls").expect("known profile"),
        // Short deadline so the test stays fast; still far beyond one
        // debug-build run slice, so healthy shards never false-trip it.
        deadline_ms: 2_000,
        ..SupervisorConfig::default()
    };
    let report = run_fleet_supervised(&checkpointed_fleet(dir), &sup_cfg);
    let sup = report.supervision.as_ref().expect("supervised run");

    assert!(sup.hangs > 0, "the stalls profile must hang at least one shard");
    assert_eq!(sup.crashes, 0, "stalls never panic");
    assert_eq!(sup.abandoned_shards, 0);
    assert_eq!(
        report.stats.to_json(),
        baseline,
        "a cancelled zombie must be replaced by an exact checkpoint replay"
    );
}

#[test]
fn poison_request_is_quarantined_and_reproducible() {
    let guard_a = scratch("sup-poison-a");
    let dir_a = guard_a.path();
    let a = supervised(&checkpointed_fleet(dir_a), "poison");
    let guard_b = scratch("sup-poison-b");
    let dir_b = guard_b.path();
    let b = supervised(&checkpointed_fleet(dir_b), "poison");

    let sup = a.supervision.as_ref().expect("supervised run");
    assert_eq!(sup.quarantined_requests, 1, "the poison request must be quarantined");
    assert_eq!(sup.per_shard[0].quarantined.len(), 1, "poison targets shard 0");
    assert_eq!(
        sup.per_shard[0].crashes, 2,
        "exactly two strikes before the repeat offender is identified"
    );
    assert!(sup.availability < 1.0, "a quarantined request counts against availability");
    assert!(
        a.stats.per_shard.iter().all(|s| s.completed),
        "quarantine must unblock the shard, not strand it"
    );

    // Same seeds, fresh store: byte-identical stats and identical
    // supervision counts — the whole point of planned chaos.
    assert_eq!(a.stats.to_json(), b.stats.to_json());
    let bs = b.supervision.as_ref().expect("supervised run");
    assert_eq!(sup.revivals, bs.revivals);
    assert_eq!(sup.crashes, bs.crashes);
    assert_eq!(sup.quarantined_requests, bs.quarantined_requests);
    assert_eq!(sup.per_shard[0].quarantined, bs.per_shard[0].quarantined);
}

#[test]
fn exhausted_revival_budget_abandons_the_shard_but_finishes_the_fleet() {
    let sup_cfg = SupervisorConfig {
        chaos: ChaosConfig::profile("kills").expect("known profile"),
        max_revivals: 0,
        ..SupervisorConfig::default()
    };
    // No checkpoint store: abandonment salvage must degrade to an
    // empty report without panicking.
    let report = run_fleet_supervised(&small_fleet(), &sup_cfg);
    let sup = report.supervision.as_ref().expect("supervised run");

    assert!(sup.abandoned_shards > 0, "a zero budget must abandon the first death");
    assert_eq!(sup.revivals, 0);
    assert!(sup.availability < 1.0, "abandonment loses that shard's remaining requests");
    assert!(
        report
            .stats
            .per_shard
            .iter()
            .zip(&sup.per_shard)
            .all(|(s, p)| !p.abandoned || !s.completed),
        "abandoned shards must stay visible as incomplete, never silently dropped"
    );
}

#[test]
fn supervision_without_chaos_matches_the_plain_executor() {
    let cfg = small_fleet();
    let plain = run_fleet(&cfg);
    let report = run_fleet_supervised(&cfg, &SupervisorConfig::default());
    let sup = report.supervision.as_ref().expect("supervised run");

    assert_eq!(report.stats.to_json(), plain.stats.to_json());
    assert_eq!(sup.revivals + sup.crashes + sup.hangs + sup.harness_errors, 0);
    assert!((sup.availability - 1.0).abs() < 1e-12);
    // The supervision block shows up in the outer report JSON; the
    // plain executor's stays null.
    assert!(report.to_json().contains("\"supervision\":{"));
    assert!(plain.to_json().contains("\"supervision\":null"));
}

#[test]
fn availability_counts_each_request_once_in_both_runners() {
    // A dormant plant is served and caught later: it still counts as
    // one disposed request, and both runners count it the same way.
    let cfg = FleetConfig {
        shards: 2,
        requests_per_shard: 24,
        attack_per_mille: 700,
        include_dormant_attacks: true,
        ..FleetConfig::quick()
    };
    let opts = ReplicaOptions { replicas: 1, rejuvenate_every: None, chaos: ChaosConfig::off() };
    let replicated = run_fleet_replicated(&cfg, &opts).expect("replicated run");
    let supervised = run_fleet_supervised(&cfg, &SupervisorConfig::default());
    let r = replicated.supervision.expect("replicated supervision").availability;
    let s = supervised.supervision.expect("supervised supervision").availability;
    assert!(r <= 1.0 && s <= 1.0, "availability must stay in [0, 1]: {r} / {s}");
    assert_eq!(r, s, "both runners must count availability the same way");
}
