//! Crash-recovery torture: no shape of journal damage — truncation at
//! any byte offset of the tail record, or a flipped CRC-covered byte —
//! may ever panic recovery. It must either resume from the last valid
//! record or return a typed [`indra_persist::PersistError`].

use std::fs;

use indra_core::{IndraSystem, SchemeKind, SystemConfig, SystemState};
use indra_persist::{read_journal, PersistError, ScratchDir, SnapshotStore};
use indra_workloads::{build_app_scaled, detectable_attack_suite, OpenLoopTraffic, ServiceApp};

const SCALE: u32 = 40;

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(tag).expect("scratch dir")
}

/// Three successive frozen states of one real system, each separated by
/// served requests (so the deltas between them are non-trivial).
fn three_real_states() -> Vec<SystemState> {
    let image = build_app_scaled(ServiceApp::Bind, SCALE);
    let schedule = OpenLoopTraffic::with_attack_mix(
        6,
        detectable_attack_suite(&image),
        250,
        10_000,
        0x7041_73e5,
    )
    .generate(&image);

    // A deliberately tiny cache hierarchy: the wire format is identical,
    // but the small-state blob shrinks from ~270 KB to a few KB, which
    // keeps the truncate-at-every-byte-offset loop fast.
    let mem = indra_mem::CoreMemConfig {
        il1: indra_mem::CacheConfig { size: 1024, line: 32, ways: 1, hit_latency: 1 },
        dl1: indra_mem::CacheConfig { size: 1024, line: 32, ways: 1, hit_latency: 1 },
        l2: indra_mem::CacheConfig { size: 4096, line: 64, ways: 2, hit_latency: 8 },
        itlb: indra_mem::TlbConfig { entries: 16, ways: 2, miss_penalty: 30 },
        dtlb: indra_mem::TlbConfig { entries: 16, ways: 2, miss_penalty: 30 },
    };
    let mut sys = IndraSystem::new(SystemConfig {
        machine: indra_sim::MachineConfig { mem, ..indra_sim::MachineConfig::default() },
        scheme: SchemeKind::Delta,
        monitoring: true,
        ..SystemConfig::default()
    });
    sys.deploy(&image).expect("deploy");

    let mut states = Vec::new();
    let mut queue = schedule.into_iter();
    for _ in 0..3 {
        for r in queue.by_ref().take(2) {
            sys.push_request(r.data, r.malicious);
        }
        let _ = sys.run(2_000_000);
        states.push(sys.freeze());
    }
    assert!(states[2].report.served > 0, "the system must actually serve requests");
    assert_ne!(states[0], states[1]);
    assert_ne!(states[1], states[2]);
    states
}

/// Byte offset where the journal's tail record starts (header is 16
/// bytes; each record is an 8-byte length+CRC prefix plus its payload).
fn tail_record_start(journal: &[u8], records: usize) -> usize {
    let mut off = 16;
    for _ in 0..records - 1 {
        let len = u32::from_le_bytes(journal[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
    }
    off
}

#[test]
fn journal_survives_truncation_at_every_tail_byte_and_crc_flips() {
    let guard = scratch("persist-torture");
    let dir = guard.path();
    let states = three_real_states();

    let store = SnapshotStore::create(dir).expect("store");
    let mut w = store.shard_writer(0).expect("writer");
    for (i, s) in states.iter().enumerate() {
        w.checkpoint(s, &[i as u8]).expect("checkpoint");
    }

    let shard_dir = store.shard_dir(0);
    let base_bytes = fs::read(shard_dir.join("base.snap")).expect("base");
    let journal = fs::read(shard_dir.join("journal.wal")).expect("journal");
    let base_id = indra_persist::crc32(&base_bytes);

    let full = read_journal(&journal, base_id).expect("intact journal");
    assert_eq!(full.len(), 2, "base + two delta records");
    let tail_start = tail_record_start(&journal, 2);
    assert!(tail_start < journal.len());

    // 1. Truncate at EVERY byte offset of the tail record: recovery must
    //    come back with exactly the first record, never panic, never err.
    for cut in tail_start..journal.len() {
        let recs =
            read_journal(&journal[..cut], base_id).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(recs.len(), 1, "cut at {cut} must fall back to the first record");
        assert_eq!(recs[0].seq, 1);
    }

    // 2. Flip a CRC-covered byte in the tail record's payload: the scan
    //    must stop at the last good record.
    let mut flipped = journal.clone();
    let mid = tail_start + 8 + (journal.len() - tail_start - 8) / 2;
    flipped[mid] ^= 0x40;
    let recs = read_journal(&flipped, base_id).expect("flip must not error the prefix");
    assert_eq!(recs.len(), 1);

    // 3. Same flip, end-to-end through the store: recovery lands on the
    //    middle checkpoint (state 1), not garbage and not a panic.
    fs::write(shard_dir.join("journal.wal"), &flipped).expect("write damaged journal");
    let loaded = store.load_shard(0).expect("load").expect("present");
    assert_eq!(loaded.seq, 1);
    assert_eq!(loaded.state, states[1]);
    assert_eq!(loaded.progress, vec![1]);

    // 4. Truncation end-to-end at a few representative offsets,
    //    including mid-prefix and mid-payload.
    for cut in [tail_start, tail_start + 3, tail_start + 8, mid, journal.len() - 1] {
        fs::write(shard_dir.join("journal.wal"), &journal[..cut]).expect("write torn journal");
        let loaded = store.load_shard(0).expect("load").expect("present");
        assert_eq!(loaded.seq, 1, "cut at {cut}");
        assert_eq!(loaded.state, states[1], "cut at {cut}");
    }

    // 5. A missing journal falls back to the base snapshot.
    fs::remove_file(shard_dir.join("journal.wal")).expect("rm journal");
    let loaded = store.load_shard(0).expect("load").expect("present");
    assert_eq!(loaded.seq, 0);
    assert_eq!(loaded.state, states[0]);

    // 6. A flipped byte in the base snapshot is a typed checksum error —
    //    the base is written atomically, so damage there is real
    //    corruption, not a crash artifact.
    let mut bad_base = base_bytes.clone();
    let idx = bad_base.len() / 2;
    bad_base[idx] ^= 0x01;
    fs::write(shard_dir.join("base.snap"), &bad_base).expect("write damaged base");
    match store.load_shard(0) {
        Err(PersistError::ChecksumMismatch { .. }) => {}
        other => panic!("damaged base must be a checksum error, got {other:?}"),
    }
}

#[test]
fn stale_journal_from_an_older_base_is_ignored() {
    // Crash between rewriting base.snap and resetting the journal: the
    // journal's base_id no longer matches, so its records must NOT be
    // replayed onto the new base.
    let guard = scratch("persist-stale");
    let dir = guard.path();
    let states = three_real_states();

    let store = SnapshotStore::create(dir).expect("store");
    let mut w = store.shard_writer(0).expect("writer");
    for s in &states {
        w.checkpoint(s, b"x").expect("checkpoint");
    }
    let shard_dir = store.shard_dir(0);
    let old_journal = fs::read(shard_dir.join("journal.wal")).expect("journal");

    // Simulate the torn rewrite: a fresh writer rewrites the base, then
    // "crashes" before its journal reset survives — restore the old one.
    let mut w2 = store.shard_writer(0).expect("writer 2");
    w2.checkpoint(&states[2], b"y").expect("rewrite base");
    fs::write(shard_dir.join("journal.wal"), &old_journal).expect("restore stale journal");

    let loaded = store.load_shard(0).expect("load").expect("present");
    assert_eq!(loaded.seq, 0, "stale records must be ignored");
    assert_eq!(loaded.state, states[2]);
    assert_eq!(loaded.progress, b"y");
}
