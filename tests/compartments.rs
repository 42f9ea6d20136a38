//! Per-request compartments: fine-grained rewind-and-discard with zero
//! collateral rollback.
//!
//! The tentpole contract under test: every in-flight request runs in
//! its own compartment (a per-request heap arena plus compartment-
//! tagged dirty lines in the delta engine), so when a dormant
//! corruption fells a *later* benign request, recovery discards only
//! the guilty compartment's pages and arena, requeues the innocent
//! victim, and every benign request completes with correct output —
//! instead of the global-rollback baseline that loses the victim (and,
//! on escalation, replays the whole service).

use indra::core::{
    IndraSystem, RecoveryLevel, RunState, SchemeKind, SchemeState, SystemConfig, SystemState,
};
use indra::fleet::{run_fleet, FleetConfig};
use indra::os::ARENA_BASE;
use indra::persist::{decode_snapshot, encode_snapshot, IngressKind, IngressRecord};
use indra::serve::{EngineConfig, ShardRunner};
use indra::workloads::{
    attack_request, benign_request, build_app_scaled, Attack, ServiceApp, UNMAPPED_ADDR,
};
use indra_replica::{run_fleet_replicated, ReplicaOptions};

const SCALE: u32 = 40;

fn system(compartments: bool) -> (IndraSystem, indra::isa::Image) {
    let cfg = SystemConfig {
        scheme: SchemeKind::Delta,
        monitoring: true,
        compartments,
        ..SystemConfig::default()
    };
    let image = build_app_scaled(ServiceApp::Httpd, SCALE);
    let mut sys = IndraSystem::new(cfg);
    sys.deploy(&image).unwrap();
    (sys, image)
}

/// Delivers one request and runs the system to idle (serialized, like
/// the serve engine's drive discipline).
fn deliver(sys: &mut IndraSystem, data: Vec<u8>, malicious: bool) -> u64 {
    let id = sys.push_request(data, malicious);
    let mut budget = 200u32;
    loop {
        match sys.run(100_000) {
            RunState::Idle | RunState::Halted => break,
            RunState::BudgetExhausted => {
                budget -= 1;
                assert!(budget > 0, "request hung past the step budget");
            }
        }
    }
    id
}

/// Asserts the compartment machinery left no residue behind: every
/// per-request arena is torn down (pages unmapped, brk reset) and every
/// compartment tag on a dirty line belongs to a sealed (still
/// discardable) compartment or the current interval — a tag pointing at
/// a vanished compartment would be unreclaimable garbage.
fn assert_no_residue(state: &SystemState) {
    for p in &state.os.procs {
        assert!(p.arena_pages.is_empty(), "pid {}: leaked arena pages {:?}", p.pid, p.arena_pages);
        assert_eq!(p.arena_brk, ARENA_BASE, "pid {}: arena brk not reset", p.pid);
    }
    let SchemeState::Delta(d) = &state.scheme else {
        panic!("expected the delta scheme state");
    };
    for proc in &d.procs {
        let sealed: Vec<u64> = proc.seals.iter().map(|s| s.gts).collect();
        for page in &proc.pages {
            for &(gts, bits) in &page.hist {
                assert!(bits != 0, "vpn {:#x}: empty hist entry for gts {gts}", page.vpn);
                assert!(
                    sealed.contains(&gts) || gts == proc.gts,
                    "vpn {:#x}: line tags for gts {gts} outlive their compartment \
                     (sealed: {sealed:?}, current gts {})",
                    page.vpn,
                    proc.gts
                );
            }
        }
    }
}

#[test]
fn dormant_attack_is_discarded_with_zero_benign_loss() {
    let (mut sys, image) = system(true);
    let planter = attack_request(Attack::Dormant { addr: UNMAPPED_ADDR }, &image);

    let mut benign_sent = 0u64;
    let mut planter_id = 0u64;
    for i in 0..8u8 {
        if i == 2 {
            planter_id = deliver(&mut sys, planter.clone(), true);
        } else {
            benign_sent += 1;
            deliver(&mut sys, benign_request(i, 0x30 + i), false);
        }
    }

    let report = sys.report();
    assert_eq!(report.benign_served, benign_sent, "zero collateral loss: every benign served");
    let discard = report
        .detections
        .iter()
        .find(|d| d.discarded.is_some())
        .expect("the victim's fault must be attributed to a sealed compartment");
    assert_eq!(discard.discarded, Some(planter_id), "the planter's compartment is the suspect");
    assert!(discard.discarded_was_malicious, "ground truth agrees");
    assert!(discard.retried, "the innocent victim must be requeued, not dropped");
    assert_eq!(discard.level, RecoveryLevel::Micro, "healed without macro escalation");
    assert_no_residue(&sys.freeze());
}

#[test]
fn global_rollback_baseline_loses_the_benign_victim() {
    // The "before" picture the tentpole fixes: identical traffic with
    // compartments off loses at least the victim request.
    let (mut sys, image) = system(false);
    let planter = attack_request(Attack::Dormant { addr: UNMAPPED_ADDR }, &image);
    let mut benign_sent = 0u64;
    for i in 0..8u8 {
        if i == 2 {
            deliver(&mut sys, planter.clone(), true);
        } else {
            benign_sent += 1;
            deliver(&mut sys, benign_request(i, 0x30 + i), false);
        }
    }
    let report = sys.report();
    assert!(
        report.benign_served < benign_sent,
        "without compartments the dormant corruption must cost benign requests \
         ({} of {benign_sent} served)",
        report.benign_served
    );
    assert!(report.detections.iter().all(|d| d.discarded.is_none() && !d.retried));
}

#[test]
fn in_flight_attack_discards_nothing_and_neighbors_complete_correctly() {
    // A wild write faults inside the offending request itself; its own
    // writes are purged before suspect lookup, so no sealed compartment
    // may be blamed — and the benign neighbors' outputs stay correct.
    let (mut sys, image) = system(true);
    let wild = attack_request(Attack::WildWrite { addr: UNMAPPED_ADDR }, &image);
    let mut benign = 0u64;
    for i in 0..6u8 {
        if i == 3 {
            deliver(&mut sys, wild.clone(), true);
        } else {
            benign += 1;
            deliver(&mut sys, benign_request(i, 0x41), false);
        }
    }
    let report = sys.report();
    assert_eq!(report.benign_served, benign);
    assert!(!report.detections.is_empty(), "the wild write must be detected");
    for d in &report.detections {
        assert_eq!(d.discarded, None, "self-inflicted faults must not blame a neighbor");
    }
    for resp in sys.take_responses() {
        assert!(!resp.data.is_empty());
        assert_eq!(resp.data[1], 1, "txbuf fill pattern byte 1 survives recovery traffic");
    }
    assert_no_residue(&sys.freeze());
}

#[test]
fn attack_free_responses_and_cycles_identical_compartments_on_vs_off() {
    // Equivalence bar, single-cell flavor: compartment tracking costs
    // zero modelled cycles, so an attack-free run is indistinguishable.
    let run = |compartments: bool| {
        let (mut sys, _) = system(compartments);
        for i in 0..6u8 {
            deliver(&mut sys, benign_request(i, 0x22 + i), false);
        }
        let cycles = sys.service_cycles();
        let served = sys.report().served;
        let responses: Vec<Vec<u8>> = sys.take_responses().into_iter().map(|r| r.data).collect();
        (cycles, served, responses)
    };
    assert_eq!(run(true), run(false), "attack-free behavior must be bit-equal");
}

#[test]
fn attack_free_fleet_stats_byte_identical_compartments_on_vs_off() {
    // Equivalence bar, fleet flavor: the deterministic FleetStats JSON
    // must be byte-identical across the on/off matrix when no attacks
    // and no faults are injected.
    let base = FleetConfig {
        shards: 2,
        attack_per_mille: 0,
        fault_every: None,
        include_dormant_attacks: false,
        ..FleetConfig::quick()
    };
    let on = run_fleet(&FleetConfig { compartments: true, ..base.clone() });
    let off = run_fleet(&FleetConfig { compartments: false, ..base });
    assert_eq!(
        on.stats.to_json(),
        off.stats.to_json(),
        "attack-free fleet stats must not move when compartments toggle"
    );
}

#[test]
fn replicated_fleet_honours_the_compartments_knob_like_the_plain_fleet() {
    // Under dormant attacks the compartment path changes outcomes by
    // design, so toggling it must move the deterministic stats — for
    // the replicated runner exactly as for the plain executor. A
    // replica that ignored the knob would run compartments on either
    // way and report identical stats.
    let base = FleetConfig {
        shards: 2,
        requests_per_shard: 12,
        attack_per_mille: 400,
        include_dormant_attacks: true,
        ..FleetConfig::quick()
    };
    let cfg = |compartments| FleetConfig { compartments, ..base.clone() };
    let plain = |compartments| run_fleet(&cfg(compartments)).stats.to_json();
    let replicated = |compartments| {
        let opts = ReplicaOptions { replicas: 1, ..ReplicaOptions::default() };
        run_fleet_replicated(&cfg(compartments), &opts).expect("replicated run").stats.to_json()
    };
    assert_ne!(plain(true), plain(false), "the plain fleet must feel the compartments knob");
    assert_ne!(
        replicated(true),
        replicated(false),
        "the replicated fleet must feel the compartments knob"
    );
}

#[test]
fn tombstoned_poison_request_leaves_no_tagged_pages_or_leaked_arena() {
    // Serve-engine quarantine × compartments: a tombstoned seq is never
    // delivered, and the surrounding traffic (attacks included) must
    // leave the engine with every arena torn down and no orphan
    // compartment tags.
    let cfg = EngineConfig { scale: 60, ..EngineConfig::default() };
    let image = build_app_scaled(cfg.app, cfg.scale);
    let dormant = attack_request(Attack::Dormant { addr: UNMAPPED_ADDR }, &image);
    let mut records = Vec::new();
    for seq in 0..6u64 {
        let malicious = seq == 1;
        let data =
            if malicious { dormant.clone() } else { benign_request(seq as u8, 0x55 + seq as u8) };
        records.push(IngressRecord {
            seq,
            kind: IngressKind::Request,
            request_id: seq,
            malicious,
            data,
        });
    }
    // Seq 3 was found poisonous on an earlier life: durable tombstone.
    records.push(IngressRecord {
        seq: 3,
        kind: IngressKind::Quarantine,
        request_id: 0,
        malicious: false,
        data: Vec::new(),
    });

    let (runner, fresh) = ShardRunner::from_log(cfg, 0, records, None).unwrap();
    assert!(fresh.is_empty(), "replayed traffic must not create new tombstones");
    let (state, cursor) = runner.freeze();
    assert_eq!(cursor, 6);
    assert_no_residue(&state);
    let out = runner.finish(true);
    assert_eq!(out.report.quarantined, vec![3], "the tombstone must be honored");
    assert_eq!(
        out.report.benign_served, 4,
        "all benign requests except the quarantined one are served"
    );
}

#[test]
fn frozen_compartment_state_roundtrips_through_the_snapshot_codec() {
    // Freeze mid-run with populated compartment fields (hist tags,
    // seals, last-load provenance, a live arena) and require the
    // persist codec to invert exactly.
    let (mut sys, image) = system(true);
    let planter = attack_request(Attack::Dormant { addr: UNMAPPED_ADDR }, &image);
    for i in 0..4u8 {
        if i == 1 {
            deliver(&mut sys, planter.clone(), true);
        } else {
            deliver(&mut sys, benign_request(i, 0x66), false);
        }
    }
    let state = sys.freeze();
    let SchemeState::Delta(d) = &state.scheme else { panic!("delta scheme") };
    assert!(
        d.procs.iter().any(|p| !p.seals.is_empty() && p.pages.iter().any(|pg| !pg.hist.is_empty())),
        "scenario must actually populate seals and hist tags"
    );
    let bytes = encode_snapshot(&state, b"compartments");
    let (back, progress) = decode_snapshot(&bytes).expect("decode");
    assert_eq!(back, state, "decode must invert encode on compartment state");
    assert_eq!(progress, b"compartments");
}
