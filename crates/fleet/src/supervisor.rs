//! The self-healing executor: shard threads under supervision, with
//! checkpoint-based revival.
//!
//! [`run_fleet_supervised`] runs every shard's driver inside
//! [`std::panic::catch_unwind`] and watches a heartbeat the driver sends
//! before every request. Three thread-death shapes are handled:
//!
//! * **crash** — the shard thread panicked (a chaos kill or WAL tear).
//! * **hang** — no heartbeat within the configured wall-clock deadline;
//!   the zombie incarnation is cancelled cooperatively and replaced.
//! * **harness error** — the driver returned a typed
//!   [`ShardError`](crate::shard::ShardError) (deploy or checkpoint-store
//!   failure).
//!
//! A dead shard is revived after a bounded exponential backoff through
//! the path [`crate::resume_fleet`] uses: its latest durable checkpoint
//! when the fleet checkpoints, a fresh start otherwise — determinism
//! makes both converge on the same [`crate::FleetStats`]. A shard that
//! keeps dying is *abandoned* once it exhausts
//! [`SupervisorConfig::max_revivals`]: the fleet degrades but finishes,
//! salvaging the abandoned shard's last checkpointed report.
//!
//! Deaths *inside* a delivery never reach the supervisor: the shard
//! runner catches them, revives and retries, and tombstones a request
//! that dies twice (the chaos poison request). Those deaths still count
//! in [`crate::SupervisionStats::crashes`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use indra_core::RunReport;
use indra_persist::{SnapshotStore, JOURNAL_FILE};

use crate::chaos::{install_chaos_panic_hook, plan_for_shard, ChaosConfig, ChaosRuntime};
use crate::executor::{durable_store, fleet_report, shard_supervision, supervision};
use crate::persist::load_checkpoint;
use crate::report::ShardSupervision;
use crate::runner::GroupCounters;
use crate::shard::{drive_shard, faults_through, shard_schedule, Driven, ShardDrive, ShardOutput};
use crate::{FleetConfig, FleetReport};

/// Supervision policy: how patiently shards are watched and how hard
/// the supervisor tries before giving up on one.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Revivals allowed per shard before it is abandoned (the fleet
    /// then finishes degraded instead of crash-looping forever).
    pub max_revivals: u32,
    /// Heartbeat deadline in wall milliseconds: a shard that sends no
    /// heartbeat (one per request) for this long is declared hung.
    pub deadline_ms: u64,
    /// First revival backoff in wall milliseconds (doubles per revival
    /// of the same shard).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in wall milliseconds.
    pub backoff_cap_ms: u64,
    /// The chaos schedule to inject (see [`ChaosConfig`]);
    /// [`ChaosConfig::off`] for plain supervision.
    pub chaos: ChaosConfig,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_revivals: 10,
            deadline_ms: 5_000,
            backoff_base_ms: 5,
            backoff_cap_ms: 100,
            chaos: ChaosConfig::off(),
        }
    }
}

impl SupervisorConfig {
    /// The revival delay before revival number `n` (1-based), doubling
    /// from the base and saturating at the cap.
    fn backoff(&self, n: u32) -> Duration {
        let exp = n.saturating_sub(1).min(20);
        Duration::from_millis(
            self.backoff_base_ms.saturating_mul(1 << exp).min(self.backoff_cap_ms),
        )
    }
}

/// What a shard incarnation can report upward.
enum SupEvent {
    /// A heartbeat: the driver is about to take the next request; the
    /// deaths its runner has caught so far.
    Beat(u64),
    /// The shard finished; its output and runner counters.
    Done(Box<Driven>),
    /// The incarnation panicked.
    Crashed,
    /// The incarnation failed with a typed harness error.
    Fault,
    /// The incarnation's thread is gone (always the last message).
    Exited,
}

struct SupMsg {
    shard: usize,
    gen: u64,
    event: SupEvent,
}

enum SlotState {
    /// An incarnation is (believed) alive.
    Running,
    /// Death observed; waiting for the incarnation's `Exited` so the
    /// checkpoint store has exactly one writer per shard.
    Draining,
    /// Dead and drained; respawn when the backoff elapses.
    Backoff {
        until: Instant,
    },
    Done,
    Abandoned,
}

/// The supervisor's per-shard bookkeeping.
struct Slot {
    gen: u64,
    state: SlotState,
    cancel: Arc<AtomicBool>,
    /// Revival, crash, hang and harness-error counts, and `abandoned`.
    threads: ShardSupervision,
    last_beat: Instant,
    /// Runner-caught deaths the running incarnation last reported; they
    /// count as crashes if it dies before it finishes.
    beat_deaths: u64,
    died_at: Option<Instant>,
    revive_ms: Vec<f64>,
    done: Option<Box<Driven>>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            gen: 0,
            state: SlotState::Running,
            cancel: Arc::new(AtomicBool::new(false)),
            threads: ShardSupervision::default(),
            last_beat: Instant::now(),
            beat_deaths: 0,
            died_at: None,
            revive_ms: Vec::new(),
            done: None,
        }
    }

    fn finished(&self) -> bool {
        matches!(self.state, SlotState::Done | SlotState::Abandoned)
    }

    /// Records a death observed while the incarnation was running.
    fn died(&mut self) {
        let runner_deaths = std::mem::take(&mut self.beat_deaths);
        self.threads.crashes += u32::try_from(runner_deaths).unwrap_or(u32::MAX);
        self.died_at = Some(Instant::now());
        self.state = SlotState::Draining;
    }
}

/// Shared per-fleet context the spawn path needs.
struct Ctx<'a> {
    cfg: &'a FleetConfig,
    store: Option<SnapshotStore>,
    chaos: Vec<ChaosRuntime>,
}

fn spawn_incarnation<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: &'scope Ctx<'_>,
    tx: mpsc::Sender<SupMsg>,
    shard: usize,
    slot: &Slot,
) {
    let (gen, cancel) = (slot.gen, slot.cancel.clone());
    scope.spawn(move || {
        let send = |event| {
            let _ = tx.send(SupMsg { shard, gen, event });
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            // A revival starts where `resume_fleet` would: the latest
            // checkpoint, or genesis when there is none (or it is
            // unreadable — determinism converges either way).
            let restored = if gen == 0 {
                None
            } else {
                ctx.store.as_ref().and_then(|s| load_checkpoint(s, shard).ok().flatten())
            };
            let drive = ShardDrive {
                replicas: 1,
                rejuvenate_every: None,
                cut_every: if ctx.store.is_some() { ctx.cfg.checkpoint_every } else { 0 },
                store: ctx.store.as_ref(),
                chaos: Some(&ctx.chaos[shard]),
                cancel: Some(&cancel),
                beat: &|deaths| send(SupEvent::Beat(deaths)),
            };
            drive_shard(ctx.cfg, shard, &drive, restored)
        }));
        match result {
            Ok(Ok(Some(driven))) => send(SupEvent::Done(Box::new(driven))),
            Ok(Ok(None)) => {} // cancelled: a newer incarnation owns the result
            Ok(Err(_)) => send(SupEvent::Fault),
            Err(_) => send(SupEvent::Crashed),
        }
        send(SupEvent::Exited);
    });
}

/// Runs the fleet under supervision: crashes, hangs and harness errors
/// are detected, the dead shard is revived from its latest checkpoint
/// (or from scratch) with bounded exponential backoff, and shards that
/// exhaust their revival budget are abandoned so the fleet finishes
/// degraded rather than not at all.
///
/// The returned report carries [`FleetReport::supervision`]. The
/// deterministic [`crate::FleetStats`] inside is byte-identical to an
/// unsupervised run of the same config whenever nothing was quarantined
/// or abandoned — revival replays from checkpoints are exact.
///
/// # Panics
///
/// Panics if `cfg.shards == 0`, `cfg.apps` is empty, or the checkpoint
/// store cannot be created — everything *after* setup is handled, not
/// propagated.
#[must_use]
pub fn run_fleet_supervised(cfg: &FleetConfig, sup: &SupervisorConfig) -> FleetReport {
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    let started = Instant::now();
    if !sup.chaos.is_off() {
        install_chaos_panic_hook();
    }

    let store = durable_store(cfg).expect("checkpoint store");
    // A stall must outlive the supervisor's deadline or it would never
    // be seen as a hang; resolve `stall_ms == 0` to safely past it.
    let stall_ms =
        if sup.chaos.stall_ms > 0 { sup.chaos.stall_ms } else { sup.deadline_ms * 2 + 250 };
    // Stealth strikes are for voting replicas; an unreplicated shard
    // cannot see them, so the supervised fleet leaves them out.
    let chaos = (0..cfg.shards)
        .map(|shard| {
            let plan = plan_for_shard(&sup.chaos, cfg, shard);
            let wal = store.as_ref().map(|s| s.shard_dir(shard).join(JOURNAL_FILE));
            ChaosRuntime::new(crate::ShardChaosPlan { stealth: Vec::new(), ..plan }, stall_ms, wal)
        })
        .collect();
    let ctx = Ctx { cfg, store, chaos };

    let deadline = Duration::from_millis(sup.deadline_ms.max(1));
    let mut slots: Vec<Slot> = (0..cfg.shards).map(|_| Slot::new()).collect();

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<SupMsg>();
        for (shard, slot) in slots.iter().enumerate() {
            spawn_incarnation(scope, &ctx, tx.clone(), shard, slot);
        }

        while !slots.iter().all(Slot::finished) {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(m) => handle(&mut slots[m.shard], m, sup),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while we hold `tx`, but never spin on it.
                Err(RecvTimeoutError::Disconnected) => break,
            }

            let now = Instant::now();
            for (shard, slot) in slots.iter_mut().enumerate() {
                match slot.state {
                    SlotState::Running if now.duration_since(slot.last_beat) > deadline => {
                        // Hung: cancel the zombie; its `Exited` (the
                        // stall loop polls the flag) triggers revival.
                        slot.threads.hangs += 1;
                        slot.cancel.store(true, Ordering::SeqCst);
                        slot.died();
                    }
                    SlotState::Backoff { until } if now >= until => {
                        slot.gen += 1;
                        slot.threads.revivals += 1;
                        slot.cancel = Arc::new(AtomicBool::new(false));
                        if let Some(d) = slot.died_at.take() {
                            slot.revive_ms.push(d.elapsed().as_secs_f64() * 1e3);
                        }
                        slot.last_beat = now;
                        slot.state = SlotState::Running;
                        spawn_incarnation(scope, &ctx, tx.clone(), shard, slot);
                    }
                    _ => {}
                }
            }
        }

        // Belt and braces: no live incarnations should remain, but a
        // raised flag costs nothing and guarantees the scope join.
        for slot in &slots {
            slot.cancel.store(true, Ordering::SeqCst);
        }
    });

    let (outputs, rows): (Vec<ShardOutput>, Vec<_>) = slots
        .into_iter()
        .enumerate()
        .map(|(shard, slot)| {
            let (out, counters) = match slot.done {
                Some(done) => *done,
                None => (salvage_output(&ctx, shard), GroupCounters::default()),
            };
            let row = shard_supervision(&out, &counters, slot.threads, &slot.revive_ms);
            (out, row)
        })
        .unzip();
    let host_events = ctx.chaos.iter().map(ChaosRuntime::fired_count).sum();
    let supervision = supervision(cfg, &outputs, rows, host_events);
    fleet_report(cfg, outputs, Some(supervision), started)
}

/// Applies one incarnation message to its shard's slot.
fn handle(slot: &mut Slot, m: SupMsg, sup: &SupervisorConfig) {
    if m.gen != slot.gen {
        // A previous incarnation's leftover (it cannot outlive its
        // `Exited`, which revival waits for — but be safe, not sorry).
        return;
    }
    let running = matches!(slot.state, SlotState::Running);
    match m.event {
        SupEvent::Beat(deaths) => {
            slot.last_beat = Instant::now();
            slot.beat_deaths = deaths;
        }
        SupEvent::Done(done) => {
            slot.done = Some(done);
            slot.state = SlotState::Done;
        }
        SupEvent::Crashed if running => {
            slot.threads.crashes += 1;
            slot.died();
        }
        SupEvent::Fault if running => {
            slot.threads.harness_errors += 1;
            slot.died();
        }
        SupEvent::Crashed | SupEvent::Fault => {}
        SupEvent::Exited => match slot.state {
            SlotState::Draining => schedule_revival(slot, sup),
            SlotState::Running => {
                // Exited with no Done and no death report: treat as a
                // crash-shaped death so the shard is not lost silently.
                slot.threads.crashes += 1;
                slot.died();
                schedule_revival(slot, sup);
            }
            _ => {}
        },
    }
}

/// The dead incarnation has fully exited: either queue a revival after
/// backoff or abandon the shard.
fn schedule_revival(slot: &mut Slot, sup: &SupervisorConfig) {
    if slot.threads.revivals >= sup.max_revivals {
        slot.died_at = None;
        slot.threads.abandoned = true;
        slot.state = SlotState::Abandoned;
    } else {
        let until = Instant::now() + sup.backoff(slot.threads.revivals + 1);
        slot.state = SlotState::Backoff { until };
    }
}

/// Best-effort stand-in for an abandoned shard: its last checkpointed
/// report (served counts, detections, samples — all real history), or
/// an empty one if it never checkpointed. `completed: false` keeps the
/// degradation visible in the aggregate.
fn salvage_output(ctx: &Ctx<'_>, shard: usize) -> ShardOutput {
    let plan = ctx.cfg.plan(shard);
    let schedule = shard_schedule(ctx.cfg, &plan);
    let benign_sent = schedule.iter().filter(|r| !r.malicious).count() as u64;
    let attacks_sent = schedule.len() as u64 - benign_sent;
    let report = match ctx.store.as_ref().and_then(|s| load_checkpoint(s, shard).ok().flatten()) {
        Some((state, _)) => state.report,
        None => RunReport::default(),
    };
    let faults_injected = faults_through(ctx.cfg, &ctx.chaos[shard].plan.bursts, report.served);
    let sim_cycles = report.samples.last().map_or(0, |s| s.completed_at);
    ShardOutput {
        plan,
        report,
        benign_sent,
        attacks_sent,
        faults_injected,
        sim_cycles,
        completed: false,
        insns: 0,
        wall_seconds: 0.0,
        superblocks: indra_sim::SuperblockStats::default(),
        predecode: indra_sim::PredecodeStats::default(),
        wal: indra_persist::CheckpointReceipt::default(),
    }
}
