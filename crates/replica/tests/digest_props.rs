//! Property tests for the voting digest.
//!
//! The two properties the voting layer leans on:
//!
//! 1. **Determinism** — two cells built from the same plan and fed the
//!    identical request stream produce identical digests after every
//!    delivery (this is what makes agreement the only correct vote).
//! 2. **Sensitivity** — flipping any single byte of any small-state
//!    section, or any bit of any resident physical frame, changes the
//!    digest. For the word fold over equal-length inputs this is
//!    structural (each step is a bijection of the state and injective
//!    in its input word), so the forall never flakes.

use indra_fleet::{shard_schedule, FleetConfig};
use indra_replica::{word_fold, ReplicaCell, FOLD_SEED};
use indra_rng::forall;

fn tiny() -> FleetConfig {
    FleetConfig { shards: 1, requests_per_shard: 5, ..FleetConfig::quick() }
}

#[test]
fn same_seed_same_stream_means_identical_digests() {
    let cfg = tiny();
    let plan = cfg.plan(0);
    let schedule = shard_schedule(&cfg, &plan);
    let mut a = ReplicaCell::new(&cfg.engine(plan.app)).expect("cell a");
    let mut b = ReplicaCell::new(&cfg.engine(plan.app)).expect("cell b");
    assert_eq!(a.digest(), b.digest(), "fresh cells must digest alike");
    for (i, req) in schedule.into_iter().enumerate() {
        let va = a.deliver(req.data.clone(), req.malicious);
        let vb = b.deliver(req.data, req.malicious);
        assert_eq!(va, vb, "verdicts split at request {i}");
        let da = a.digest();
        let db = b.digest();
        assert_eq!(da, db, "digests split at request {i}");
    }
}

#[test]
fn any_single_byte_section_corruption_changes_the_digest() {
    let cfg = tiny();
    let plan = cfg.plan(0);
    let schedule = shard_schedule(&cfg, &plan);
    let mut cell = ReplicaCell::new(&cfg.engine(plan.app)).expect("cell");
    for req in schedule.into_iter().take(2) {
        let _ = cell.deliver(req.data, req.malicious);
    }
    let digest = cell.digest();
    // Take the exact section blobs the digest hashed and corrupt them:
    // for every section, a random byte/bit flip must move that
    // section's digest — and therefore the chained whole-state value.
    let state = cell.small_state_sections();
    assert_eq!(digest.sections.len(), state.len(), "digest covers every codec section");
    forall("replica.section_corruption", 64, |rng| {
        for (i, (name, bytes)) in state.iter().enumerate() {
            if bytes.is_empty() {
                continue;
            }
            let pos = usize::try_from(rng.range_u64(0, bytes.len() as u64 - 1)).expect("fits");
            let bit = rng.gen_u8() % 8;
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            let clean_hash = word_fold(FOLD_SEED, bytes);
            let corrupt_hash = word_fold(FOLD_SEED, &corrupt);
            assert_eq!(clean_hash, digest.sections[i].1, "section {name} hash is the digest's");
            assert_ne!(
                clean_hash, corrupt_hash,
                "flip at {name}[{pos}].{bit} must change the section digest"
            );
        }
    });
}

#[test]
fn any_resident_frame_bit_flip_changes_the_digest() {
    let cfg = tiny();
    let plan = cfg.plan(0);
    forall("replica.phys_corruption", 12, |rng| {
        let mut cell = ReplicaCell::new(&cfg.engine(plan.app)).expect("cell");
        let schedule = shard_schedule(&cfg, &plan);
        for req in schedule.into_iter().take(1) {
            let _ = cell.deliver(req.data, req.malicious);
        }
        let before = cell.digest();
        let struck = cell.corrupt_bit(rng.next_u64(), rng.next_u64(), rng.gen_u8() % 8);
        assert!(struck, "a deployed cell always has resident frames");
        let after = cell.digest();
        assert_ne!(before.phys, after.phys, "frame flip must move the phys digest");
        assert_ne!(before.value, after.value, "frame flip must move the chained value");
        assert_eq!(before.sections, after.sections, "small state is untouched");
    });
}
