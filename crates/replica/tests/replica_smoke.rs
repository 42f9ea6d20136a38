//! Crate-level smoke: the replicated runner's determinism contract.

use indra_fleet::{ChaosConfig, FleetConfig};
use indra_replica::{run_fleet_replicated, ReplicaOptions};

fn tiny() -> FleetConfig {
    FleetConfig { shards: 2, requests_per_shard: 6, ..FleetConfig::quick() }
}

#[test]
fn clean_stats_are_identical_across_k() {
    let cfg = tiny();
    let base = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 1, rejuvenate_every: None, chaos: ChaosConfig::off() },
    )
    .expect("k=1 run");
    for k in 2..=3 {
        let rep = run_fleet_replicated(
            &cfg,
            &ReplicaOptions { replicas: k, rejuvenate_every: None, chaos: ChaosConfig::off() },
        )
        .expect("replicated run");
        assert_eq!(rep.stats.to_json(), base.stats.to_json(), "k={k} diverged from k=1");
        let sup = rep.supervision.expect("replicated runs report supervision");
        assert_eq!(sup.divergences, 0, "clean k={k} run must not diverge");
    }
}

#[test]
fn stealth_is_caught_and_masked_at_k3_and_stats_match_clean() {
    let cfg = tiny();
    let clean = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 3, rejuvenate_every: None, chaos: ChaosConfig::off() },
    )
    .expect("clean run");
    let hit = run_fleet_replicated(
        &cfg,
        &ReplicaOptions {
            replicas: 3,
            rejuvenate_every: None,
            chaos: ChaosConfig::profile("stealth").expect("profile"),
        },
    )
    .expect("stealth run");
    let sup = hit.supervision.expect("supervision");
    assert!(sup.divergences >= 1, "voting must catch the silent corruption");
    assert!(sup.divergent_masked >= 1, "k=3 masks the divergent replica");
    assert_eq!(
        hit.stats.to_json(),
        clean.stats.to_json(),
        "masking must leave deterministic stats byte-identical"
    );
}

#[test]
fn rejuvenation_fires_and_preserves_stats() {
    let cfg = tiny();
    let base = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 2, rejuvenate_every: None, chaos: ChaosConfig::off() },
    )
    .expect("base run");
    let rej = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 2, rejuvenate_every: Some(3), chaos: ChaosConfig::off() },
    )
    .expect("rejuvenated run");
    let sup = rej.supervision.expect("supervision");
    assert!(sup.rejuvenations >= 2, "cadence 3 over 6 requests must fire");
    assert_eq!(rej.stats.to_json(), base.stats.to_json(), "rejuvenation is stats-neutral");
}

#[test]
fn concurrent_same_seed_runs_keep_separate_scratch_stores() {
    // Two runs in one process with one seed must not share a scratch
    // checkpoint store, or one run's cleanup deletes the other's files.
    let cfg = tiny();
    let opts = ReplicaOptions { replicas: 2, rejuvenate_every: Some(2), chaos: ChaosConfig::off() };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run_fleet_replicated(&cfg, &opts));
        let b = s.spawn(|| run_fleet_replicated(&cfg, &opts));
        (a.join().expect("run a"), b.join().expect("run b"))
    });
    let (a, b) = (a.expect("run a"), b.expect("run b"));
    assert_eq!(a.stats.to_json(), b.stats.to_json(), "same seed, same stats");
}
