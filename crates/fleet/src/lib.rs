#![warn(missing_docs)]
//! # indra-fleet — sharded parallel fleet execution
//!
//! The paper's consolidation argument (§3.5, Fig. 2) is that one
//! physical multicore hosts *many* resurrector/resurrectee cells, each
//! running an independent network service. This crate scales the
//! simulator to that shape: a fleet of shards — each a complete
//! [`indra_core::IndraSystem`] — runs across OS threads, each fed its
//! own deterministic traffic schedule (benign requests with a
//! configurable fraction of real exploit payloads), optionally under
//! periodic hardware-fault injection.
//!
//! Every shard runs through one driver (`shard::drive_shard`) over one
//! [`ShardRunner`] ([`runner`]): K ≥ 1 [`ReplicaCell`]s ([`cell`]) on
//! the one [`ShardEngine`] ([`engine`]), one vote and one revival
//! routine, with [`DigestCache`] ([`digest`]) state digests for the
//! vote. [`run_fleet`], [`resume_fleet`], [`run_fleet_supervised`] and
//! [`run_fleet_replicated`] are entry points over that driver, and all
//! end in one aggregation: each shard's latency samples fold into a
//! log-bucketed [`indra_bench::Histogram`] and a fleet-wide
//! [`FleetReport`]: throughput (requests per million simulated cycles
//! and wall-clock requests per second), benign-service ratio, detection
//! and recovery counts, and latency percentiles. `fleetd` drives the
//! same runner over its ingress log.
//!
//! ## Determinism contract
//!
//! [`FleetStats`] is a pure function of [`FleetConfig`]. Each shard's
//! traffic comes from a seed derived with
//! [`indra_rng::derive_seed`]`(fleet_seed, shard_index)`; shards never
//! share simulated state; the aggregator folds shard summaries in shard
//! index order and histogram merging is commutative. Run the same
//! config on 1 thread or 16, today or tomorrow — `stats` (and its JSON)
//! is byte-identical. Wall-clock figures live outside `stats` in
//! [`FleetReport`].
//!
//! ```no_run
//! use indra_fleet::{run_fleet, FleetConfig};
//!
//! let report = run_fleet(&FleetConfig { shards: 6, ..FleetConfig::quick() });
//! println!("{}", report.stats);
//! assert_eq!(report.stats.true_detections, report.stats.attacks_sent);
//! ```

pub mod cell;
mod chaos;
pub mod digest;
pub mod engine;
mod executor;
mod persist;
mod report;
pub mod runner;
mod shard;
mod supervisor;
pub mod sweep;

pub use cell::ReplicaCell;
pub use chaos::{
    plan_for_shard, ChaosConfig, GuestBurst, HostEvent, HostEventKind, ShardChaosPlan, StealthEvent,
};
pub use digest::{word_fold, word_fold_u64, DigestCache, StateDigest, FOLD_SEED};
pub use engine::{DeliverOutcome, EngineConfig, ShardEngine};
pub use executor::{
    aggregate_stats, availability, run_fleet, run_fleet_replicated, ReplicaOptions,
};
pub use persist::resume_fleet;
pub use report::{
    FleetReport, FleetStats, ShardHostPerf, ShardSummary, ShardSupervision, SupervisionStats,
};
pub use runner::{read_cursor, Disposition, GroupCounters, ShardRunner};
pub use shard::{shard_schedule, ShardError, ShardOutput, ShardPlan};
pub use supervisor::{run_fleet_supervised, SupervisorConfig};

use indra_core::SchemeKind;
use indra_rng::derive_seed;
use indra_workloads::ServiceApp;

/// Everything that determines a fleet run.
///
/// The deterministic portion of the result ([`FleetStats`]) depends on
/// nothing else — see the crate docs for the contract.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (independent resurrector/resurrectee cells).
    pub shards: usize,
    /// Services assigned round-robin to shards (shard `i` runs
    /// `apps[i % apps.len()]`).
    pub apps: Vec<ServiceApp>,
    /// Request quota per shard.
    pub requests_per_shard: u32,
    /// Work-scale divisor applied to every workload (1 = paper scale).
    pub scale: u32,
    /// Attack probability per request, in ‰ (0–1000).
    pub attack_per_mille: u32,
    /// Mean inter-arrival gap of the traffic schedule, in resurrectee
    /// cycles. The gap draws share the schedule's RNG, so the value
    /// still seeds which requests the schedule holds; the arrival cycles
    /// themselves never reach [`FleetStats`] — a shard takes each
    /// request when the previous one is done, and an idle core would
    /// collapse any gap anyway.
    pub mean_gap_cycles: u64,
    /// Master seed; shard `i` derives its own via
    /// [`indra_rng::derive_seed`].
    pub seed: u64,
    /// Checkpoint scheme every shard deploys.
    pub scheme: SchemeKind,
    /// Trace FIFO entries per shard machine.
    pub fifo_entries: usize,
    /// CAM filter entries per shard machine.
    pub cam_entries: usize,
    /// Inject a hardware fault right after the request that brings the
    /// served count to each multiple of N (`None` = no fault injection).
    pub fault_every: Option<u32>,
    /// Instruction-budget granularity of the engine's deliver loop.
    pub run_slice_steps: u64,
    /// Include the dormant-pointer attack in the mix. Off by default:
    /// dormant plants are (by design) detected only when a *later*
    /// benign request trips the planted pointer, which breaks the
    /// "every injected attack is detected" accounting the fleet report
    /// asserts on.
    pub include_dormant_attacks: bool,
    /// Durably checkpoint each shard after every N served requests
    /// (0 = no checkpointing). Checkpointing never touches simulated
    /// state, so [`FleetStats`] is identical with it on or off.
    pub checkpoint_every: u32,
    /// Checkpoint directory (required for `checkpoint_every > 0`; see
    /// [`resume_fleet`]).
    pub store_dir: Option<String>,
    /// Crash simulation: each shard stops dead (reports `completed =
    /// false`) after writing this many checkpoints. Never persisted —
    /// a resumed run always runs to quota.
    pub halt_after_checkpoints: Option<u64>,
    /// Host-side fast paths (predecode cache, translation micro-cache)
    /// in every shard machine. [`FleetStats`] is byte-identical either
    /// way; the flag exists so equivalence tests can force the slow
    /// reference path.
    pub fast_paths: bool,
    /// Superblock execution engine in every shard machine: hot basic
    /// blocks run as pre-validated micro-op traces with batched
    /// accounting. Host-side only — [`FleetStats`] is byte-identical
    /// either way; independent of `fast_paths`.
    pub superblocks: bool,
    /// Per-request compartments in every shard system: page-group
    /// tagging by request, sealed-compartment discard on attributed
    /// faults, and victim-request retry. [`FleetStats`] is
    /// byte-identical either way on attack-free, fault-free runs; under
    /// attack the compartment path *changes* outcomes (that is its
    /// job — benign requests that would be dropped are retried).
    pub compartments: bool,
    /// Graceful-shutdown flag (e.g. raised by a SIGINT/SIGTERM handler).
    /// Checked between requests — where checkpoints are cut — so a
    /// shutdown drains cleanly: the store is never torn mid-write and
    /// the run is resumable. The interrupted run reports `completed =
    /// false` on unfinished shards. Never persisted to `fleet.meta`
    /// (like `halt_after_checkpoints`, it describes this process, not
    /// the run).
    pub shutdown: Option<&'static std::sync::atomic::AtomicBool>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            apps: ServiceApp::ALL.to_vec(),
            requests_per_shard: 32,
            scale: 20,
            attack_per_mille: 125,
            mean_gap_cycles: 50_000,
            seed: 0x1d7a_f1ee,
            scheme: SchemeKind::Delta,
            fifo_entries: 32,
            cam_entries: 32,
            fault_every: None,
            run_slice_steps: 200_000,
            include_dormant_attacks: false,
            checkpoint_every: 0,
            store_dir: None,
            halt_after_checkpoints: None,
            fast_paths: true,
            superblocks: true,
            compartments: true,
            shutdown: None,
        }
    }
}

impl FleetConfig {
    /// A configuration small enough for tests: fewer requests at a
    /// deeper work-scale reduction.
    #[must_use]
    pub fn quick() -> FleetConfig {
        FleetConfig { requests_per_shard: 12, scale: 40, ..FleetConfig::default() }
    }

    /// The plan for shard `shard` (app round-robin, derived seed).
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    #[must_use]
    pub fn plan(&self, shard: usize) -> ShardPlan {
        assert!(!self.apps.is_empty(), "fleet needs at least one app");
        ShardPlan {
            shard,
            app: self.apps[shard % self.apps.len()],
            seed: derive_seed(self.seed, shard as u64),
        }
    }

    /// The engine knobs every shard running `app` is built from — the
    /// only mapping from fleet knobs to [`EngineConfig`].
    #[must_use]
    pub fn engine(&self, app: ServiceApp) -> EngineConfig {
        EngineConfig {
            app,
            scale: self.scale,
            scheme: self.scheme,
            fifo_entries: self.fifo_entries,
            cam_entries: self.cam_entries,
            fast_paths: self.fast_paths,
            run_slice_steps: self.run_slice_steps,
            seed: self.seed,
            superblocks: self.superblocks,
            compartments: self.compartments,
        }
    }

    /// Plans for every shard, in shard order.
    #[must_use]
    pub fn plans(&self) -> Vec<ShardPlan> {
        (0..self.shards).map(|s| self.plan(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_robin_apps_and_vary_seeds() {
        let cfg = FleetConfig { shards: 8, ..FleetConfig::quick() };
        let plans = cfg.plans();
        assert_eq!(plans.len(), 8);
        assert_eq!(plans[0].app, ServiceApp::Ftpd);
        assert_eq!(plans[6].app, ServiceApp::Ftpd); // 6 apps wrap
        let mut seeds: Vec<u64> = plans.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "derived seeds must be distinct");
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_plan() {
        let cfg = FleetConfig::quick();
        let a = shard_schedule(&cfg, &cfg.plan(2));
        let b = shard_schedule(&cfg, &cfg.plan(2));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_cycle, y.arrival_cycle);
            assert_eq!(x.malicious, y.malicious);
            assert_eq!(x.data, y.data);
        }
    }
}
