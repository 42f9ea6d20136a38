//! One replica: a complete [`IndraSystem`] cell plus its digest cache.
//!
//! A cell is the unit the voting layer replicates — the same shape as a
//! fleet shard (same config, same deployed image, both pure functions
//! of the [`ShardPlan`]), driven closed-loop one request at a time so
//! the group can vote between deliveries. Replicas of one group are
//! built identically and fed the identical admitted stream; any ballot
//! disagreement is therefore evidence of corruption, not of scheduling.

use std::time::Instant;

use indra_core::{IndraSystem, RecoveryLevel, RunReport, RunState, SystemConfig, SystemState};
use indra_fleet::{FleetConfig, ShardError, ShardPlan};
use indra_mem::{PAGE_SHIFT, PAGE_SIZE};
use indra_workloads::{build_app_scaled, WorkloadSpec};

use crate::digest::{word_fold, DigestCache, StateDigest, FOLD_SEED};

/// Ballot verdict tag: request served.
pub const TAG_SERVED: u8 = 0;
/// Ballot verdict tag: attack detected and recovered.
pub const TAG_DETECTED: u8 = 1;
/// Ballot verdict tag: request quarantined by the group protocol.
pub const TAG_QUARANTINED: u8 = 2;
/// Ballot verdict tag: the cell died (halt, budget, or panic).
pub const TAG_DEAD: u8 = 255;

/// What one replica concluded about one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// Served; payload is the response latency in resurrectee cycles.
    Served {
        /// Delivery-to-response resurrectee cycles.
        cycles: u64,
    },
    /// The monitor fired and recovery ran at `level`.
    Detected {
        /// The recovery level applied.
        level: RecoveryLevel,
    },
    /// The cell halted or exhausted its instruction budget.
    Dead,
}

impl CellVerdict {
    /// Collapses the verdict into the `(tag, value)` pair a ballot
    /// carries. Latency cycles are deterministic, so they vote too.
    #[must_use]
    pub fn key(self) -> (u8, u64) {
        match self {
            CellVerdict::Served { cycles } => (TAG_SERVED, cycles),
            CellVerdict::Detected { level: RecoveryLevel::Micro } => (TAG_DETECTED, 0),
            CellVerdict::Detected { level: RecoveryLevel::Macro } => (TAG_DETECTED, 1),
            CellVerdict::Dead => (TAG_DEAD, 0),
        }
    }
}

/// One deterministic replica of a logical shard.
#[derive(Debug)]
pub struct ReplicaCell {
    sys: IndraSystem,
    slice: u64,
    budget_slices: u64,
    cache: DigestCache,
    started: Instant,
}

impl ReplicaCell {
    /// Builds a fresh cell for `plan`: same system config and deployed
    /// image as a fleet shard, with phys dirty tracking enabled so
    /// digests are incremental from the first request.
    pub fn build(cfg: &FleetConfig, plan: &ShardPlan) -> Result<ReplicaCell, ShardError> {
        let image = build_app_scaled(plan.app, cfg.scale);
        let sys_cfg = SystemConfig {
            machine: indra_sim::MachineConfig {
                fifo_entries: cfg.fifo_entries,
                cam_entries: cfg.cam_entries,
                fast_paths: cfg.fast_paths,
                superblocks: cfg.superblocks,
                ..indra_sim::MachineConfig::default()
            },
            scheme: cfg.scheme,
            monitoring: true,
            ..SystemConfig::default()
        };
        let mut sys = IndraSystem::new(sys_cfg);
        sys.deploy(&image).map_err(ShardError::Deploy)?;
        sys.machine_mut().phys_mut().enable_dirty_tracking();
        let per_request = WorkloadSpec::for_app(plan.app)
            .scaled_down(cfg.scale.max(1))
            .approx_insns_per_request()
            .max(50_000);
        let slice = cfg.run_slice_steps.max(1);
        let budget_slices = (per_request * 16).div_ceil(slice) + 2;
        Ok(ReplicaCell {
            sys,
            slice,
            budget_slices,
            cache: DigestCache::new(),
            started: Instant::now(),
        })
    }

    /// Delivers one request and runs the system to idle. Returns the
    /// verdict plus a [`word_fold`] digest over the drained response
    /// bytes (the "output" leg of the ballot).
    pub fn deliver(&mut self, data: Vec<u8>, malicious: bool) -> (CellVerdict, u64) {
        let s0 = self.sys.report().samples.len();
        let d0 = self.sys.report().detections.len();
        let rid = self.sys.push_request(data, malicious);
        let mut slices_left = self.budget_slices;
        loop {
            match self.sys.run(self.slice) {
                RunState::Idle => break,
                RunState::Halted => return (CellVerdict::Dead, 0),
                RunState::BudgetExhausted => {
                    slices_left -= 1;
                    if slices_left == 0 {
                        return (CellVerdict::Dead, 0);
                    }
                }
            }
        }
        let mut output_hash = FOLD_SEED;
        for r in &self.sys.take_responses() {
            output_hash = word_fold(output_hash, &r.request_id.to_le_bytes());
            output_hash = word_fold(output_hash, &r.data);
        }
        let report = self.sys.report();
        if let Some(s) = report.samples[s0..].iter().find(|s| s.request_id == rid) {
            return (CellVerdict::Served { cycles: s.cycles }, output_hash);
        }
        if let Some(d) = report.detections[d0..].last() {
            return (CellVerdict::Detected { level: d.level }, output_hash);
        }
        (CellVerdict::Dead, output_hash)
    }

    /// Incrementally digests the cell's current state.
    pub fn digest(&mut self) -> StateDigest {
        self.cache.digest(&mut self.sys)
    }

    /// The per-section small-state blobs the digest hashes (frames
    /// excluded) — what the property tests corrupt byte-by-byte.
    #[must_use]
    pub fn small_state_sections(&self) -> Vec<(&'static str, Vec<u8>)> {
        indra_persist::encode_state_sections(&self.sys.freeze_sans_phys())
    }

    /// Full restorable freeze (frames included) for checkpointing.
    #[must_use]
    pub fn freeze(&self) -> SystemState {
        self.sys.freeze()
    }

    /// Overwrites the cell with a frozen capture. The phys generation
    /// bump invalidates the digest cache automatically.
    pub fn restore(&mut self, state: &SystemState) {
        self.sys.restore_state(state);
    }

    /// Records a quarantined schedule index in the cell's report.
    pub fn quarantine(&mut self, seq: u64) {
        self.sys.note_quarantined(seq);
    }

    /// Flips one bit of one resident physical frame, selected by the
    /// salts — the stealth-chaos strike. Goes through the ordinary
    /// phys write path, so *no* trace record, fault event, or panic is
    /// produced: the trace monitor is structurally blind to it and only
    /// divergence voting can catch it. Returns `false` if no frame is
    /// resident yet (the strike is dropped).
    pub fn corrupt_bit(&mut self, frame_salt: u64, byte_salt: u64, bit: u8) -> bool {
        let ppns = self.sys.machine().phys().resident_ppns();
        if ppns.is_empty() {
            return false;
        }
        let ppn = ppns[usize::try_from(frame_salt % ppns.len() as u64).expect("index fits")];
        let offset = u32::try_from(byte_salt % u64::from(PAGE_SIZE)).expect("offset fits");
        let paddr = (ppn << PAGE_SHIFT) | offset;
        let phys = self.sys.machine_mut().phys_mut();
        let old = phys.read_u8(paddr);
        phys.write_u8(paddr, old ^ (1 << (bit % 8)));
        true
    }

    /// The cell's run report.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        self.sys.report()
    }

    /// Resurrectee cycles consumed by the service.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.sys.service_cycles()
    }

    /// Instructions retired across every core of the cell machine.
    #[must_use]
    pub fn insns(&self) -> u64 {
        let machine = self.sys.machine();
        (0..machine.num_cores()).map(|c| machine.core(c).retired()).sum()
    }

    /// Host wall-clock seconds since the cell was built.
    #[must_use]
    pub fn wall_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Superblock-engine counters summed over the cell machine's cores.
    #[must_use]
    pub fn superblock_stats(&self) -> indra_sim::SuperblockStats {
        let machine = self.sys.machine();
        let mut out = indra_sim::SuperblockStats::default();
        for c in 0..machine.num_cores() {
            out += machine.superblock_stats(c);
        }
        out
    }

    /// Predecode-cache counters summed over the cell machine's cores.
    #[must_use]
    pub fn predecode_stats(&self) -> indra_sim::PredecodeStats {
        let machine = self.sys.machine();
        let mut out = indra_sim::PredecodeStats::default();
        for c in 0..machine.num_cores() {
            out += machine.predecode_stats(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use indra_fleet::shard_schedule;

    use super::*;

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
        let mut cell = ReplicaCell::build(&cfg, &plan).expect("cell");
        let mut saved = None;
        let mut detections = 0;
        for (i, req) in schedule.into_iter().enumerate() {
            let (verdict, _) = cell.deliver(req.data, req.malicious);
            detections += usize::from(matches!(verdict, CellVerdict::Detected { .. }));
            let warm = cell.digest();
            let cold = DigestCache::new().digest(&mut cell.sys);
            assert_eq!(warm, cold, "warm digest went stale after request {i}");
            // Roll the whole cell back every few requests, as a revival
            // does, so the cache must notice the restore.
            if i % 4 == 1 {
                saved = Some(cell.freeze());
            } else if i % 4 == 3 {
                cell.restore(saved.as_ref().expect("saved two requests ago"));
                let warm = cell.digest();
                let cold = DigestCache::new().digest(&mut cell.sys);
                assert_eq!(warm, cold, "warm digest went stale after the restore at {i}");
            }
        }
        assert!(detections > 0, "an exploit must be detected and rolled back");
    }
}
