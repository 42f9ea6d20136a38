//! Acceptance for the serve subsystem's headline property: a fleet that
//! served *live socket traffic* — including exploit payloads, a
//! scale-up, a checkpoint-backed drain, and a daemon restart — is
//! byte-identically reproducible from its per-shard ingress logs alone.

use std::net::TcpStream;

use indra_persist::ScratchDir;
use indra_serve::proto::{read_frame, write_frame};
use indra_serve::{
    replay_state_dir, Daemon, EngineConfig, Frame, HealthReply, ServeConfig, Verdict,
};
use indra_workloads::{benign_request, build_app_scaled, detectable_attack_suite, ServiceApp};

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(tag).expect("scratch dir")
}

fn test_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig { app: ServiceApp::Httpd, scale: 60, ..EngineConfig::default() },
        shards: 2,
        queue_depth: 8,
        checkpoint_every: 3,
        state_dir: dir.to_path_buf(),
        port: 0,
        replicas: 1,
        rejuvenate_every: None,
    }
}

/// Sends `n` requests (every third one a real exploit) and waits for
/// every response. Returns (responses, detections seen).
fn drive(stream: &mut TcpStream, base_id: u64, n: u64) -> (u64, u64) {
    let engine = EngineConfig { app: ServiceApp::Httpd, scale: 60, ..EngineConfig::default() };
    let image = build_app_scaled(engine.app, engine.scale);
    let attacks = detectable_attack_suite(&image);
    for i in 0..n {
        let malicious = i % 3 == 2;
        let data = if malicious {
            indra_workloads::attack_request(attacks[i as usize % attacks.len()], &image)
        } else {
            benign_request(i as u8, 0x30 + (i % 64) as u8)
        };
        let frame = Frame::Request { id: base_id + i, malicious, data };
        write_frame(stream, &frame).expect("send request");
    }
    let mut responses = 0;
    let mut detections = 0;
    while responses < n {
        match read_frame(stream).expect("read response") {
            Frame::Response { verdict, .. } => {
                responses += 1;
                if matches!(verdict, Verdict::DetectedMicro | Verdict::DetectedMacro) {
                    detections += 1;
                }
            }
            Frame::Rejected { .. } => panic!("queue_depth 8 x 2 shards must admit serial sends"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    (responses, detections)
}

fn control(stream: &mut TcpStream, frame: &Frame) -> Frame {
    write_frame(stream, frame).expect("send control");
    read_frame(stream).expect("control reply")
}

fn health(stream: &mut TcpStream) -> HealthReply {
    match control(stream, &Frame::Health) {
        Frame::HealthReply(h) => h,
        other => panic!("expected HealthReply, got {other:?}"),
    }
}

#[test]
fn live_served_fleet_replays_byte_identically() {
    let guard = scratch("serve-replay");
    let dir = guard.path();
    let daemon = Daemon::start(test_config(dir)).expect("start daemon");
    let addr = daemon.addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    let h = health(&mut conn);
    assert!(h.ok && h.shards_live == 2, "fresh daemon: {h:?}");

    let (_, det) = drive(&mut conn, 0, 9);
    assert!(det >= 2, "exploit payloads must be detected live, saw {det}");

    // Live scale-up: shard 2 joins and takes traffic.
    match control(&mut conn, &Frame::Scale { shards: 3 }) {
        Frame::ControlOk { .. } => {}
        other => panic!("scale refused: {other:?}"),
    }
    let (_, _) = drive(&mut conn, 100, 6);
    let h = health(&mut conn);
    assert_eq!(h.shards_live, 3, "after scale-up: {h:?}");

    // Checkpoint-backed drain of shard 0; traffic keeps flowing.
    match control(&mut conn, &Frame::Drain { shard: 0 }) {
        Frame::ControlOk { .. } => {}
        other => panic!("drain refused: {other:?}"),
    }
    let (_, _) = drive(&mut conn, 200, 4);
    let stats_json = match control(&mut conn, &Frame::Stats) {
        Frame::StatsReply { json } => json,
        other => panic!("expected StatsReply, got {other:?}"),
    };
    assert!(stats_json.contains("\"served\":"), "live stats: {stats_json}");
    drop(conn);

    let report = daemon.stop().expect("stop daemon");
    assert_eq!(report.stats.served + report.stats.detections, 19, "9 + 6 + 4 requests answered");
    assert!(report.stats.per_shard.iter().all(|s| s.completed), "drained shards complete");
    let live_json = report.stats.to_json();

    // Acceptance: replay from the ingress logs alone, byte-identical.
    let replayed = replay_state_dir(dir).expect("replay");
    assert_eq!(replayed.stats.to_json(), live_json, "replay must reproduce the live bytes");
    assert_eq!(replayed.requests_replayed, 19);

    // Restart on the same state dir (daemon resume path), serve a bit
    // more, and check replay still matches the grown history.
    let daemon = Daemon::start(test_config(dir)).expect("restart daemon");
    let mut conn = TcpStream::connect(daemon.addr()).expect("reconnect");
    // Workers recover checkpoint + log asynchronously; poll until the
    // counters reflect the full admitted history (13 benign + 6 attacks).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let h = health(&mut conn);
        if h.served + h.detections >= 19 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "recovery never caught up: {h:?}");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let (_, _) = drive(&mut conn, 300, 4);
    drop(conn);
    let report2 = daemon.stop().expect("stop resumed daemon");
    let replayed2 = replay_state_dir(dir).expect("replay grown history");
    assert_eq!(replayed2.stats.to_json(), report2.stats.to_json());
    assert_eq!(replayed2.requests_replayed, 23);
}

#[test]
fn replicated_daemon_reports_replica_health_and_replays_identically() {
    let guard = scratch("serve-replica");
    let dir = guard.path();
    let cfg = ServeConfig { replicas: 3, rejuvenate_every: Some(3), ..test_config(dir) };
    let daemon = Daemon::start(cfg).expect("start replicated daemon");
    let mut conn = TcpStream::connect(daemon.addr()).expect("connect");

    let h = health(&mut conn);
    assert_eq!(h.replicas, 3, "health must carry the replica-group extension: {h:?}");

    let (_, det) = drive(&mut conn, 0, 9);
    assert!(det >= 2, "exploits detected through the replicated path, saw {det}");
    let h = health(&mut conn);
    assert_eq!(h.divergences, 0, "healthy followers never diverge: {h:?}");
    assert!(h.rejuvenations >= 1, "cadence 3 over 9 requests must rejuvenate: {h:?}");
    drop(conn);

    let report = daemon.stop().expect("stop replicated daemon");
    assert_eq!(report.stats.served + report.stats.detections, 9);

    // Replication is invisible to durable history: replay (which knows
    // nothing about replicas) reproduces the live bytes.
    let replayed = replay_state_dir(dir).expect("replay");
    assert_eq!(replayed.stats.to_json(), report.stats.to_json());
    assert_eq!(replayed.requests_replayed, 9);
}

#[test]
fn torn_ingress_log_tail_replays_the_valid_prefix() {
    let guard = scratch("serve-torn");
    let dir = guard.path();
    let daemon = Daemon::start(test_config(dir)).expect("start daemon");
    let mut conn = TcpStream::connect(daemon.addr()).expect("connect");
    let (_, _) = drive(&mut conn, 0, 6);
    drop(conn);
    let report = daemon.stop().expect("stop");
    assert_eq!(report.stats.served + report.stats.detections, 6);

    // Tear the tail of one shard's ingress log mid-record (a SIGKILL
    // mid-append). Replay must not panic and must reproduce a valid
    // prefix of history, not garbage.
    let log_path = dir.join("shard-0000").join("ingress.log");
    let bytes = std::fs::read(&log_path).expect("read log");
    assert!(bytes.len() > 20, "shard 0 must have taken traffic");
    std::fs::write(&log_path, &bytes[..bytes.len() - 7]).expect("tear log");

    let replayed = replay_state_dir(dir).expect("torn tail must still replay");
    assert!(replayed.requests_replayed < 6, "the torn record must be dropped");
    assert_eq!(replayed.stats.served + replayed.stats.detections, replayed.requests_replayed);
}

#[test]
fn overload_is_rejected_with_typed_frames_not_buffering() {
    let guard = scratch("serve-overload");
    let dir = guard.path();
    // One shard, tiny queue: serial round-trips can never overload it,
    // so fire a burst without reading responses.
    let cfg = ServeConfig { shards: 1, queue_depth: 2, ..test_config(dir) };
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut conn = TcpStream::connect(daemon.addr()).expect("connect");
    let burst = 40u64;
    for i in 0..burst {
        let frame = Frame::Request { id: i, malicious: false, data: benign_request(0, 0x41) };
        write_frame(&mut conn, &frame).expect("send burst");
    }
    let mut rejected = 0u64;
    let mut answered = 0u64;
    while answered + rejected < burst {
        match read_frame(&mut conn).expect("read burst reply") {
            Frame::Rejected { reason, .. } => {
                rejected += 1;
                assert_eq!(reason, indra_serve::RejectReason::QueueFull);
            }
            Frame::Response { .. } => answered += 1,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(rejected > 0, "a 40-deep burst into a depth-2 queue must shed load");
    drop(conn);

    let report = daemon.stop().expect("stop");
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.stats.served + report.stats.detections, answered);

    // Rejected requests never reach the log: replay sees only admitted.
    let replayed = replay_state_dir(dir).expect("replay");
    assert_eq!(replayed.requests_replayed, answered);
    assert_eq!(replayed.stats.to_json(), report.stats.to_json());
}
