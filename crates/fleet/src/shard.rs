//! One shard: a complete Fig. 2 cell (resurrector + resurrectee running
//! one service) fed its deterministic schedule to a request quota, and
//! the one driver every fleet entry point runs it through.
//!
//! A shard is deliberately a *whole* [`IndraSystem`](indra_core::IndraSystem)
//! rather than one core of a shared machine: the paper's consolidation
//! topology puts several resurrectees under one resurrector, and the
//! fleet replicates that cell per OS thread so cells never contend on
//! simulated state. Everything a shard does is a pure function of its
//! [`ShardPlan`] (derived seed, app, quota), which is what makes the
//! fleet aggregate reproducible under any thread schedule.
//!
//! [`drive_shard`] feeds the schedule to a [`ShardRunner`] in seq order.
//! The schedule's arrival cycles never reach the trajectory: a sample's
//! cycles start when the service takes the request, and an idle core
//! collapses any gap, so the runner's one-request-at-a-time delivery is
//! the same trajectory an open-loop arrival clock would give. Between
//! requests the driver checks every cadence against the primary's served
//! count: faults and guest bursts (injected right after the request that
//! reaches their threshold), checkpoints, `halt_after_checkpoints`, the
//! shutdown flag and host chaos events.

use std::sync::atomic::{AtomicBool, Ordering};

use indra_core::{RunReport, SystemState};
use indra_persist::{CheckpointReceipt, IngressKind, IngressRecord, PersistError, SnapshotStore};
use indra_workloads::{
    build_app_scaled, detectable_attack_suite, standard_attack_suite, OpenLoopTraffic, ServiceApp,
    TimedRequest,
};

use crate::chaos::{ChaosRuntime, GuestBurst};
use crate::runner::{GroupCounters, ShardRunner};
use crate::{FleetConfig, ShardHostPerf, ShardSummary};

/// A typed failure of the shard *harness* itself — as opposed to a
/// failure of the simulated service (which the system handles) or a
/// panic (which the supervisor handles). Keeping these typed matters
/// under supervision: a stray `expect` inside `catch_unwind` would be
/// indistinguishable from a chaos-injected crash.
#[derive(Debug)]
pub enum ShardError {
    /// Deploying the service image into the fresh system failed.
    Deploy(indra_sim::LoadError),
    /// The durable checkpoint store failed.
    Persist(PersistError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Deploy(e) => write!(f, "service deploy failed: {e:?}"),
            ShardError::Persist(e) => write!(f, "checkpoint store failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<PersistError> for ShardError {
    fn from(e: PersistError) -> ShardError {
        ShardError::Persist(e)
    }
}

/// Everything that determines one shard's behavior.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard index.
    pub shard: usize,
    /// The service this shard runs.
    pub app: ServiceApp,
    /// This shard's traffic seed (derived from the fleet seed).
    pub seed: u64,
}

/// What one shard hands the aggregator when it finishes.
#[derive(Debug)]
pub struct ShardOutput {
    /// The plan that produced this output.
    pub plan: ShardPlan,
    /// The system's full run report.
    pub report: RunReport,
    /// Benign requests the schedule queued.
    pub benign_sent: u64,
    /// Attack requests the schedule queued.
    pub attacks_sent: u64,
    /// Hardware faults injected by the harness.
    pub faults_injected: u64,
    /// Resurrectee cycles consumed.
    pub sim_cycles: u64,
    /// Whether the schedule was fully delivered and drained.
    pub completed: bool,
    /// Instructions retired across every core of the shard machine
    /// (deterministic, but only reported host-side).
    pub insns: u64,
    /// Host wall-clock seconds this shard's loop ran. Wall-clock only —
    /// never folded into [`ShardSummary`] or [`crate::FleetStats`].
    pub wall_seconds: f64,
    /// Superblock-engine counters summed over the shard machine's cores
    /// (host-side observability — never folded into [`crate::FleetStats`]).
    pub superblocks: indra_sim::SuperblockStats,
    /// Predecode-cache counters summed over the shard machine's cores.
    pub predecode: indra_sim::PredecodeStats,
    /// Accumulated WAL-delta cost of every durable checkpoint this shard
    /// wrote (zero when checkpointing is off). Host-side observability —
    /// never folded into [`crate::FleetStats`].
    pub wal: CheckpointReceipt,
}

impl ShardOutput {
    /// Collapses the output into its aggregate summary row.
    #[must_use]
    pub fn summary(&self) -> ShardSummary {
        let benign_served = self.report.benign_served;
        ShardSummary {
            shard: self.plan.shard,
            app: self.plan.app,
            served: self.report.served,
            benign_sent: self.benign_sent,
            benign_served,
            attacks_sent: self.attacks_sent,
            detections: self.report.detections.len() as u64,
            true_detections: self.report.true_detections() as u64,
            detection_latency_insns: self
                .report
                .detections
                .iter()
                .map(|d| d.insns_into_request)
                .sum(),
            micro_recoveries: self
                .report
                .detections
                .iter()
                .filter(|d| d.level == indra_core::RecoveryLevel::Micro)
                .count() as u64,
            macro_recoveries: self
                .report
                .detections
                .iter()
                .filter(|d| d.level == indra_core::RecoveryLevel::Macro)
                .count() as u64,
            faults_injected: self.faults_injected,
            sim_cycles: self.sim_cycles,
            benign_service_ratio: if self.benign_sent == 0 {
                1.0
            } else {
                benign_served as f64 / self.benign_sent as f64
            },
            completed: self.completed,
        }
    }

    /// The output's host-side performance row (wall-clock data, kept
    /// out of the deterministic stats).
    #[must_use]
    pub fn host_perf(&self) -> ShardHostPerf {
        ShardHostPerf {
            shard: self.plan.shard,
            insns: self.insns,
            wall_seconds: self.wall_seconds,
            superblocks: self.superblocks,
            predecode: self.predecode,
            wal_bytes: self.wal.bytes,
            wal_pages: self.wal.pages,
        }
    }
}

/// Builds the deterministic traffic schedule for `plan`.
#[must_use]
pub fn shard_schedule(cfg: &FleetConfig, plan: &ShardPlan) -> Vec<TimedRequest> {
    let image = build_app_scaled(plan.app, cfg.scale);
    let attacks = if cfg.include_dormant_attacks {
        standard_attack_suite(&image)
    } else {
        detectable_attack_suite(&image)
    };
    OpenLoopTraffic::with_attack_mix(
        cfg.requests_per_shard,
        attacks,
        cfg.attack_per_mille,
        cfg.mean_gap_cycles,
        plan.seed,
    )
    .generate(&image)
}

/// Faults a shard has injected once its primary has served `served`
/// requests: one per `fault_every` served, plus every guest burst whose
/// threshold is reached. Served grows by at most one per request and the
/// driver injects right after each request, so the count at any request
/// boundary — a checkpoint's included — is this function of the served
/// count alone.
pub(crate) fn faults_through(cfg: &FleetConfig, bursts: &[GuestBurst], served: u64) -> u64 {
    let periodic = cfg.fault_every.filter(|&n| n > 0).map_or(0, |n| served / u64::from(n));
    let burst: u64 =
        bursts.iter().filter(|b| b.at_served <= served).map(|b| u64::from(b.faults)).sum();
    periodic + burst
}

/// How an entry point drives its shards: the knobs that are not part of
/// the deterministic [`FleetConfig`].
#[derive(Clone, Copy)]
pub(crate) struct ShardDrive<'a> {
    /// Replica cells per shard (1 = no vote).
    pub replicas: usize,
    /// Proactive rejuvenation cadence, in admitted requests.
    pub rejuvenate_every: Option<u64>,
    /// Checkpoint cadence in served requests (0 = none).
    pub cut_every: u32,
    /// Where checkpoints go; `None` keeps them as in-memory freezes.
    pub store: Option<&'a SnapshotStore>,
    /// This shard's chaos plan and one-shot flags.
    pub chaos: Option<&'a ChaosRuntime>,
    /// Cooperative cancellation of this incarnation.
    pub cancel: Option<&'a AtomicBool>,
    /// Called before every request with the deaths the runner has
    /// caught so far: the supervisor's heartbeat.
    pub beat: &'a (dyn Fn(u64) + Sync),
}

/// What a finished shard hands its entry point.
pub(crate) type Driven = (ShardOutput, GroupCounters);

/// The one shard driver: feeds shard `shard`'s schedule, from the
/// `restored` checkpoint (state + cursor) or from genesis, to a
/// [`ShardRunner`] in seq order. Returns `None` when `drive.cancel` was
/// raised — a newer incarnation owns the result.
///
/// A restored shard rebuilds the same system (same config, same deployed
/// image — both pure functions of the plan) and overwrites it with the
/// frozen capture; the fault count and checkpoint mark follow from the
/// restored served count, so execution from there is cycle-for-cycle
/// identical to the run that was killed.
pub(crate) fn drive_shard(
    cfg: &FleetConfig,
    shard: usize,
    drive: &ShardDrive<'_>,
    restored: Option<(SystemState, u64)>,
) -> Result<Option<Driven>, ShardError> {
    let plan = cfg.plan(shard);
    let mut records: Vec<IngressRecord> = (0u64..)
        .zip(shard_schedule(cfg, &plan))
        .map(|(seq, r)| IngressRecord {
            seq,
            kind: IngressKind::Request,
            request_id: seq,
            malicious: r.malicious,
            data: r.data,
        })
        .collect();
    let quota = records.len() as u64;
    let attacks_sent = records.iter().filter(|r| r.malicious).count() as u64;
    let start = restored.as_ref().map_or(0, |(_, cursor)| (*cursor).min(quota));
    let tail = records.split_off(usize::try_from(start).expect("cursor fits"));
    let (mut runner, _) = ShardRunner::replicated(
        cfg.engine(plan.app),
        shard,
        drive.replicas,
        drive.rejuvenate_every,
        records,
        restored,
    )?;
    let chaos = drive.chaos.map(|c| &c.plan);
    runner.poison = chaos.and_then(|p| p.poison);
    let bursts = chaos.map_or(&[][..], |p| &p.bursts[..]);
    let mut stealth = chaos.map_or(&[][..], |p| &p.stealth[..]).iter().peekable();
    let mut writer = drive.store.map(|s| s.shard_writer(shard)).transpose()?;

    let mut last_cut = runner.report().served;
    let mut faults = faults_through(cfg, bursts, last_cut);
    let mut cuts = 0u64;
    for rec in tail {
        if drive.cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
            return Ok(None);
        }
        // Graceful shutdown: stop between two requests, where every
        // checkpoint already written is consistent.
        if cfg.shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
            break;
        }
        (drive.beat)(runner.counters.deaths);
        if let Some(c) = drive.chaos {
            // Kills and tears panic out of here (the supervisor's
            // catch_unwind picks them up); a stall burns wall clock
            // until the heartbeat deadline cancels it.
            if c.fire_host(runner.report().served, drive.cancel) {
                return Ok(None);
            }
        }
        while let Some(ev) = stealth.next_if(|ev| ev.at_served <= rec.seq) {
            let cells = runner.cells_mut();
            let victim = usize::try_from(ev.replica_salt % cells.len() as u64).expect("fits");
            cells[victim].corrupt_bit(ev.frame_salt, ev.byte_salt, ev.bit);
        }
        runner.admit(rec);

        let served = runner.report().served;
        let due = faults_through(cfg, bursts, served).saturating_sub(faults);
        if due > 0 {
            runner.inject_faults(u32::try_from(due).expect("a request's faults fit u32"));
            faults += due;
        }
        if drive.cut_every > 0 && served.saturating_sub(last_cut) >= u64::from(drive.cut_every) {
            last_cut = served;
            if let Some(w) = writer.as_mut() {
                runner.checkpoint(w)?;
                cuts += 1;
                if cfg.halt_after_checkpoints.is_some_and(|halt| cuts >= halt) {
                    // Simulated crash: die between two requests, exactly
                    // where a real kill -9 would land.
                    break;
                }
            } else {
                runner.cut();
            }
        }
        runner.rejuvenate();
    }

    let completed = runner.next_seq() == quota;
    let counters = runner.counters;
    let mut output = runner.finish(completed);
    // A halted shard still queued its whole schedule.
    output.benign_sent = quota - attacks_sent;
    output.attacks_sent = attacks_sent;
    output.faults_injected = faults;
    Ok(Some((output, counters)))
}
