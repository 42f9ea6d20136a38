//! One replica: a [`ShardEngine`] plus its digest cache.
//!
//! A cell is the unit the voting layer replicates: a [`ShardEngine`]
//! built from the shard's [`EngineConfig`], driven one request at a
//! time so the runner can vote between deliveries. Replicas of one shard are built identically and fed the
//! identical admitted stream; any ballot disagreement is therefore
//! evidence of corruption, not of scheduling.

use indra_core::{IndraSystem, RunReport, SystemState};
use indra_mem::{PAGE_SHIFT, PAGE_SIZE};

use crate::digest::{word_fold, DigestCache, StateDigest, FOLD_SEED};
use crate::engine::{DeliverOutcome, EngineConfig, ShardEngine};
use crate::ShardError;

/// One deterministic replica of a logical shard: a [`ShardEngine`] plus
/// the [`DigestCache`] it votes with.
#[derive(Debug)]
pub struct ReplicaCell {
    engine: ShardEngine,
    cache: DigestCache,
}

impl ReplicaCell {
    /// Builds and deploys a fresh cell.
    ///
    /// # Errors
    ///
    /// [`ShardError::Deploy`] when the service image fails to load.
    pub fn new(cfg: &EngineConfig) -> Result<ReplicaCell, ShardError> {
        Ok(ReplicaCell { engine: ShardEngine::new(cfg)?, cache: DigestCache::new() })
    }

    /// Delivers one request and runs the system to idle. Returns the
    /// outcome plus a [`word_fold`] digest over the drained response
    /// bytes (the "output" leg of the ballot).
    pub fn deliver(&mut self, data: Vec<u8>, malicious: bool) -> (DeliverOutcome, u64) {
        let (outcome, responses) = self.engine.deliver(data, malicious);
        let mut output_hash = FOLD_SEED;
        for r in &responses {
            output_hash = word_fold(output_hash, &r.request_id.to_le_bytes());
            output_hash = word_fold(output_hash, &r.data);
        }
        (outcome, output_hash)
    }

    /// Incrementally digests the cell's current state.
    pub fn digest(&mut self) -> StateDigest {
        self.cache.digest(self.engine.system())
    }

    /// The per-section small-state blobs the digest hashes (frames
    /// excluded) — what the property tests corrupt byte-by-byte.
    #[must_use]
    pub fn small_state_sections(&self) -> Vec<(&'static str, Vec<u8>)> {
        indra_persist::encode_state_sections(&self.engine.system().freeze_sans_phys())
    }

    /// Full restorable freeze (frames included) for checkpointing.
    #[must_use]
    pub fn freeze(&self) -> SystemState {
        self.engine.freeze()
    }

    /// Overwrites the cell with a frozen capture. The phys generation
    /// bump invalidates the digest cache automatically.
    pub fn restore(&mut self, state: &SystemState) {
        self.engine.restore(state);
    }

    /// Records a quarantined schedule index in the cell's report.
    pub fn quarantine(&mut self, seq: u64) {
        self.engine.quarantine(seq);
    }

    /// Injects `n` hardware faults into the service core; each runs the
    /// system's fault recovery at once.
    pub(crate) fn inject_faults(&mut self, n: u32) {
        let sys = self.engine.system_mut();
        let core = sys.service_cores()[0];
        for _ in 0..n {
            sys.inject_fault(core);
        }
    }

    /// Flips one bit of one resident physical frame, selected by the
    /// salts — the stealth-chaos strike. Goes through the ordinary
    /// phys write path, so *no* trace record, fault event, or panic is
    /// produced: the trace monitor is structurally blind to it and only
    /// divergence voting can catch it. Returns `false` if no frame is
    /// resident yet (the strike is dropped).
    pub fn corrupt_bit(&mut self, frame_salt: u64, byte_salt: u64, bit: u8) -> bool {
        let phys = self.engine.system_mut().machine_mut().phys_mut();
        let ppns = phys.resident_ppns();
        if ppns.is_empty() {
            return false;
        }
        let ppn = ppns[usize::try_from(frame_salt % ppns.len() as u64).expect("index fits")];
        let offset = u32::try_from(byte_salt % u64::from(PAGE_SIZE)).expect("offset fits");
        let paddr = (ppn << PAGE_SHIFT) | offset;
        let old = phys.read_u8(paddr);
        phys.write_u8(paddr, old ^ (1 << (bit % 8)));
        true
    }

    /// Mutable access to the cell's simulated system.
    pub(crate) fn system_mut(&mut self) -> &mut IndraSystem {
        self.engine.system_mut()
    }

    /// The cell's run report.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        self.engine.system().report()
    }

    /// The cell's engine (what the runner collapses into its output).
    #[must_use]
    pub fn engine(&self) -> &ShardEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shard_schedule, FleetConfig};

    #[test]
    fn warm_digest_equals_a_cold_rebuild_through_exploits_and_restores() {
        let cfg = FleetConfig {
            shards: 1,
            requests_per_shard: 10,
            attack_per_mille: 400,
            ..FleetConfig::quick()
        };
        let plan = cfg.plan(0);
        let schedule = shard_schedule(&cfg, &plan);
        assert!(schedule.iter().any(|r| r.malicious), "the stream must carry exploits");
        let mut cell = ReplicaCell::new(&cfg.engine(plan.app)).expect("cell");
        let mut saved = None;
        let mut detections = 0;
        for (i, req) in schedule.into_iter().enumerate() {
            let (outcome, _) = cell.deliver(req.data, req.malicious);
            detections += usize::from(matches!(outcome, DeliverOutcome::Detected { .. }));
            // One stealth strike per restore cycle: the cache trusts
            // frame epochs, so it must also see writes no delivery made.
            if i % 4 == 2 {
                let salt = i as u64;
                assert!(
                    cell.corrupt_bit(salt * 7919, salt * 104_729, i as u8),
                    "no frame to strike"
                );
            }
            let warm = cell.digest();
            let cold = DigestCache::new().digest(cell.engine.system());
            assert_eq!(warm, cold, "warm digest went stale after request {i}");
            // Roll the whole cell back every few requests, as a revival
            // does, so the cache must notice the restore.
            if i % 4 == 1 {
                saved = Some(cell.freeze());
            } else if i % 4 == 3 {
                cell.restore(saved.as_ref().expect("saved two requests ago"));
                let warm = cell.digest();
                let cold = DigestCache::new().digest(cell.engine.system());
                assert_eq!(warm, cold, "warm digest went stale after the restore at {i}");
            }
        }
        assert!(detections > 0, "an exploit must be detected and rolled back");
    }
}
