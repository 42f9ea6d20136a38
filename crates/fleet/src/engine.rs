//! The one shard engine: a deployed [`IndraSystem`] cell plus the fixed
//! drive discipline every driver shares.
//!
//! Every replica cell of the [`crate::ShardRunner`] — which drives each
//! fleet shard and each `fleetd` shard — builds its system here, from an
//! [`EngineConfig`], delivers through [`ShardEngine::deliver`] (deliver
//! one request, run the system to idle under a fixed slice size and
//! per-request step budget, drain the responses) and collapses into a
//! [`ShardOutput`] through [`ShardEngine::output`].
//!
//! An engine's trajectory is a pure function of the ordered delivered
//! byte sequence (plus any injected faults) and the [`EngineConfig`] —
//! no sim arrival clock is involved — which is what makes the daemon's
//! record/replay, a fleet resume and the replicas' voting
//! byte-identical by construction.

use std::time::Instant;

use indra_core::{IndraSystem, RecoveryLevel, RunState, SchemeKind, SystemConfig, SystemState};
use indra_os::Response;
use indra_persist::{CheckpointReceipt, PersistError, WireReader, WireWriter};
use indra_workloads::{build_app_scaled, ServiceApp, WorkloadSpec};

use crate::{ShardError, ShardOutput, ShardPlan};

/// Everything that determines a shard engine's simulated behavior.
/// Persisted to `serve.meta` so `--replay` needs no other flags; all
/// fields are sim-deterministic knobs (host-side concerns like queue
/// depth and checkpoint cadence deliberately live elsewhere).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// The service the engine runs. One app for the whole daemon:
    /// attack payloads embed image-specific addresses, and admission
    /// routes round-robin, so heterogeneous shards would misroute
    /// exploits.
    pub app: ServiceApp,
    /// Work-scale divisor (1 = paper scale).
    pub scale: u32,
    /// Checkpoint scheme the engine deploys.
    pub scheme: SchemeKind,
    /// Trace FIFO entries per shard machine.
    pub fifo_entries: usize,
    /// CAM filter entries per shard machine.
    pub cam_entries: usize,
    /// Host-side fast paths (sim-identical either way).
    pub fast_paths: bool,
    /// Run-slice granularity of the deliver loop.
    pub run_slice_steps: u64,
    /// Master seed (only labels [`ShardPlan`]s — live traffic comes
    /// from clients, not from a seeded schedule).
    pub seed: u64,
    /// Superblock execution engine (sim-identical either way, like
    /// `fast_paths`; only the host's speed moves).
    pub superblocks: bool,
    /// Per-request compartments: fine-grained rewind-and-discard on
    /// detection. Sim-identical on attack-free fault-free traffic; under
    /// attack it changes recovery outcomes by design, so it is a
    /// deterministic knob and must travel through `serve.meta`.
    pub compartments: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            app: ServiceApp::Httpd,
            scale: 40,
            scheme: SchemeKind::Delta,
            fifo_entries: 32,
            cam_entries: 32,
            fast_paths: true,
            run_slice_steps: 200_000,
            seed: 0x5e71_ce00,
            superblocks: true,
            compartments: true,
        }
    }
}

/// Checkpoint schemes in meta tag order (apps use the order of
/// [`ServiceApp::ALL`]). `serve.meta` and `fleet.meta` share both tables.
pub(crate) const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::None,
    SchemeKind::Delta,
    SchemeKind::VirtualCheckpoint,
    SchemeKind::SoftwareCheckpoint,
    SchemeKind::UndoLog,
];

/// The meta tag of `value`: its index in `all`.
pub(crate) fn tag_of<T: PartialEq>(all: &[T], value: &T) -> u8 {
    all.iter().position(|v| v == value).expect("every variant has a tag") as u8
}

/// The entry of `all` a meta tag names.
pub(crate) fn from_tag<T: Copy>(
    all: &[T],
    tag: u8,
    unknown: &'static str,
) -> Result<T, PersistError> {
    all.get(usize::from(tag)).copied().ok_or(PersistError::Corrupt { context: unknown })
}

/// Serializes an [`EngineConfig`] for `serve.meta`.
#[must_use]
pub fn encode_engine_meta(cfg: &EngineConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(tag_of(&ServiceApp::ALL, &cfg.app));
    w.u32(cfg.scale);
    w.u8(tag_of(&SCHEMES, &cfg.scheme));
    w.usize(cfg.fifo_entries);
    w.usize(cfg.cam_entries);
    w.bool(cfg.fast_paths);
    w.u64(cfg.run_slice_steps);
    w.u64(cfg.seed);
    w.bool(cfg.superblocks);
    w.bool(cfg.compartments);
    w.finish()
}

/// Deserializes `serve.meta` back into an [`EngineConfig`].
///
/// # Errors
///
/// Typed [`PersistError`] on truncation or unknown tags.
pub fn decode_engine_meta(bytes: &[u8]) -> Result<EngineConfig, PersistError> {
    let mut r = WireReader::new(bytes);
    let cfg = EngineConfig {
        app: from_tag(&ServiceApp::ALL, r.u8("serve meta app")?, "unknown service app")?,
        scale: r.u32("serve meta scale")?,
        scheme: from_tag(&SCHEMES, r.u8("serve meta scheme")?, "unknown scheme kind")?,
        fifo_entries: r.usize("serve meta fifo")?,
        cam_entries: r.usize("serve meta cam")?,
        fast_paths: r.bool("serve meta fast paths")?,
        run_slice_steps: r.u64("serve meta slice")?,
        seed: r.u64("serve meta seed")?,
        superblocks: r.bool("serve meta superblocks")?,
        compartments: r.bool("serve meta compartments")?,
    };
    r.expect_exhausted("serve meta trailing bytes")?;
    Ok(cfg)
}

/// What one closed-loop delivery produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// Response produced.
    Served {
        /// Delivery-to-response resurrectee cycles.
        cycles: u64,
    },
    /// The monitor fired and recovery ran at `level`.
    Detected {
        /// Micro (per-request rollback) or macro recovery.
        level: RecoveryLevel,
    },
    /// The engine is no longer trustworthy: the service halted, ran
    /// past the step budget, or the request vanished without a sample
    /// or a detection.
    Dead,
}

/// One shard's simulated system plus the fixed drive discipline.
pub struct ShardEngine {
    sys: IndraSystem,
    slice: u64,
    budget_slices: u64,
    started: Instant,
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine").field("slice", &self.slice).finish_non_exhaustive()
    }
}

impl ShardEngine {
    /// Builds and deploys a fresh engine.
    ///
    /// # Errors
    ///
    /// [`ShardError::Deploy`] when the service image fails to load.
    pub fn new(cfg: &EngineConfig) -> Result<ShardEngine, ShardError> {
        let image = build_app_scaled(cfg.app, cfg.scale);
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
            compartments: cfg.compartments,
            ..SystemConfig::default()
        };
        let mut sys = IndraSystem::new(sys_cfg);
        sys.deploy(&image).map_err(ShardError::Deploy)?;
        let per_request_insns = WorkloadSpec::for_app(cfg.app)
            .scaled_down(cfg.scale.max(1))
            .approx_insns_per_request()
            .max(50_000);
        // A generous multiple of the workload's nominal per-request
        // work: recoveries and restarts all fit; only a harness bug (or
        // an undetected kill) exhausts it.
        let slice = cfg.run_slice_steps.max(1);
        let budget_slices = (per_request_insns * 16).div_ceil(slice) + 2;
        Ok(ShardEngine { sys, slice, budget_slices, started: Instant::now() })
    }

    /// Delivers one request and runs the system to idle under the fixed
    /// per-request step budget. Returns the outcome plus the responses
    /// drained from the system; a [`DeliverOutcome::Dead`] from a halt
    /// or an exhausted budget drains nothing. Draining is part of the
    /// deterministic op sequence, so every driver drains through here.
    pub fn deliver(&mut self, data: Vec<u8>, malicious: bool) -> (DeliverOutcome, Vec<Response>) {
        let s0 = self.sys.report().samples.len();
        let d0 = self.sys.report().detections.len();
        let rid = self.sys.push_request(data, malicious);
        let mut slices_left = self.budget_slices;
        loop {
            match self.sys.run(self.slice) {
                RunState::Idle => break,
                RunState::Halted => return (DeliverOutcome::Dead, Vec::new()),
                RunState::BudgetExhausted => {
                    slices_left -= 1;
                    if slices_left == 0 {
                        return (DeliverOutcome::Dead, Vec::new());
                    }
                }
            }
        }
        let responses = self.sys.take_responses();
        let report = self.sys.report();
        let outcome = if let Some(s) = report.samples[s0..].iter().find(|s| s.request_id == rid) {
            DeliverOutcome::Served { cycles: s.cycles }
        } else if let Some(d) = report.detections[d0..].last() {
            DeliverOutcome::Detected { level: d.level }
        } else {
            DeliverOutcome::Dead
        };
        (outcome, responses)
    }

    /// Records a quarantined request seq in the run report.
    pub fn quarantine(&mut self, seq: u64) {
        self.sys.note_quarantined(seq);
    }

    /// Freezes the full system state (for checkpointing).
    #[must_use]
    pub fn freeze(&self) -> SystemState {
        self.sys.freeze()
    }

    /// Overwrites the system with a frozen capture.
    pub fn restore(&mut self, state: &SystemState) {
        self.sys.restore_state(state);
    }

    /// The simulated system — what the replica layer digests.
    #[must_use]
    pub fn system(&self) -> &IndraSystem {
        &self.sys
    }

    /// Mutable access to the simulated system, for fault injection and
    /// stealth corruption.
    pub fn system_mut(&mut self) -> &mut IndraSystem {
        &mut self.sys
    }

    /// Collapses the engine into the [`ShardOutput`] the aggregator
    /// consumes. `malicious` holds one flag per request the driver sent
    /// (quarantined ones included — they were sent). Fault and WAL
    /// counters start at zero for the driver to fill in.
    #[must_use]
    pub fn output(
        &self,
        plan: ShardPlan,
        malicious: impl IntoIterator<Item = bool>,
        completed: bool,
    ) -> ShardOutput {
        let sent: Vec<bool> = malicious.into_iter().collect();
        let attacks_sent = sent.iter().filter(|&&m| m).count() as u64;
        let machine = self.sys.machine();
        let mut superblocks = indra_sim::SuperblockStats::default();
        let mut predecode = indra_sim::PredecodeStats::default();
        for c in 0..machine.num_cores() {
            superblocks += machine.superblock_stats(c);
            predecode += machine.predecode_stats(c);
        }
        ShardOutput {
            plan,
            report: self.sys.report().clone(),
            benign_sent: sent.len() as u64 - attacks_sent,
            attacks_sent,
            faults_injected: 0,
            sim_cycles: self.sys.service_cycles(),
            completed,
            insns: (0..machine.num_cores()).map(|c| machine.core(c).retired()).sum(),
            wall_seconds: self.started.elapsed().as_secs_f64(),
            superblocks,
            predecode,
            wal: CheckpointReceipt::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let cfg = EngineConfig {
            app: ServiceApp::Bind,
            scale: 17,
            scheme: SchemeKind::UndoLog,
            fast_paths: false,
            superblocks: false,
            compartments: false,
            ..EngineConfig::default()
        };
        assert_eq!(decode_engine_meta(&encode_engine_meta(&cfg)).unwrap(), cfg);
        assert!(decode_engine_meta(&[9, 9]).is_err());
    }
}
