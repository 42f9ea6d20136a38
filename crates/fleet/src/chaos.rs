//! Deterministic chaos injection: seeded host-level fault schedules
//! that exercise the supervisor's revival machinery.
//!
//! Chaos is *planned*, never random at run time: a [`ChaosConfig`]
//! (seed included) expands into one [`ShardChaosPlan`] per shard via
//! [`indra_rng::derive_seed`], exactly the way traffic schedules are
//! derived. Every event fires at a deterministic point in *simulated*
//! progress (a served-request threshold or a schedule index), so the
//! same chaos seed reproduces the same crash sites — and the same
//! [`crate::SupervisionStats`] counts — on every run.
//!
//! Four fault families, mirroring what a real fleet suffers:
//!
//! * **kills** — the shard thread panics between two requests
//!   (`panic_any` with a [`ChaosPanic`] payload the supervisor's panic
//!   hook silences).
//! * **stalls** — the shard thread stops heartbeating and sleeps; the
//!   supervisor's wall-clock deadline must catch it, cancel the zombie
//!   and revive from the checkpoint.
//! * **WAL tears** — the tail of `journal.wal` is truncated and
//!   bit-flipped *before* the kill, exercising persist's
//!   longest-valid-prefix recovery end-to-end.
//! * **guest bursts** — `IndraSystem::inject_fault` volleys against the
//!   simulated service, injected right after the request that brings
//!   the served count to the burst's threshold. Bursts are part of the
//!   *simulated* history: the runner logs them, and the count already
//!   absorbed is a function of the served count, so a revival replays
//!   exactly the ones its checkpoint lacks.
//!
//! A **poison** request is the fifth family: every guarded delivery of
//! one fixed schedule index panics. The shard runner's vote catches
//! both deaths and tombstones it — the fleet analogue of the paper's
//! rollback *past* the malicious request (§3.3.2).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use indra_rng::{derive_seed, Rng};

use crate::FleetConfig;

/// Per-shard chaos intensity. All counts are *per shard*; the poison
/// request (at most one per fleet) targets shard 0 so its two extra
/// deaths stay bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Chaos master seed; shard `i` draws its plan from
    /// `derive_seed(seed, i)`. Independent of the traffic seed.
    pub seed: u64,
    /// Forced panics per shard.
    pub kills: u32,
    /// Heartbeat stalls per shard.
    pub stalls: u32,
    /// Stall duration in wall milliseconds; 0 = auto (the supervisor
    /// picks a duration safely past its own deadline).
    pub stall_ms: u64,
    /// Journal-tail corruptions (truncate + bit-flip, then die) per
    /// shard. Degrades to a plain kill when the shard has no journal
    /// yet.
    pub wal_tears: u32,
    /// Guest-level fault bursts per shard.
    pub guest_bursts: u32,
    /// `IndraSystem::inject_fault` calls per burst.
    pub burst_faults: u32,
    /// Plant one poison request (on shard 0) whose delivery kills the
    /// shard until the supervisor quarantines it.
    pub poison: bool,
    /// Silent guest-memory corruptions per shard: a seeded bit flip in
    /// a resident physical frame with **no monitor-visible event** — no
    /// trace record, no fault injection, no panic. The trace monitor is
    /// structurally blind to these; only the replica layer's divergence
    /// voting detects them (the plain fleet path carries the events in
    /// its plan but never applies them).
    pub stealth: u32,
}

impl ChaosConfig {
    /// No chaos at all (the supervised executor still runs, so the
    /// "off" profile measures pure supervision overhead).
    #[must_use]
    pub fn off() -> ChaosConfig {
        ChaosConfig {
            seed: 0xc4a0_5eed,
            kills: 0,
            stalls: 0,
            stall_ms: 0,
            wal_tears: 0,
            guest_bursts: 0,
            burst_faults: 0,
            poison: false,
            stealth: 0,
        }
    }

    /// Whether this configuration injects anything.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.kills == 0
            && self.stalls == 0
            && self.wal_tears == 0
            && self.guest_bursts == 0
            && !self.poison
            && self.stealth == 0
    }

    /// Resolves a named profile.
    ///
    /// Profiles: `off`, `light` (1 kill), `kills` (2 kills), `stalls`
    /// (1 stall), `wal` (1 journal tear), `poison` (1 poison request),
    /// `stealth` (1 silent memory corruption — monitor-blind, replica
    /// voting only), `default` (1 kill + 1 tear + 1 guest burst),
    /// `heavy` (2 kills + 1 stall + 1 tear + 2 bursts + poison).
    ///
    /// # Errors
    ///
    /// The list of known profiles, when `name` is not one of them.
    pub fn profile(name: &str) -> Result<ChaosConfig, String> {
        let base = ChaosConfig::off();
        Ok(match name {
            "off" => base,
            "light" => ChaosConfig { kills: 1, ..base },
            "kills" => ChaosConfig { kills: 2, ..base },
            "stalls" => ChaosConfig { stalls: 1, ..base },
            "wal" => ChaosConfig { wal_tears: 1, ..base },
            "poison" => ChaosConfig { poison: true, ..base },
            "stealth" => ChaosConfig { stealth: 1, ..base },
            "default" => {
                ChaosConfig { kills: 1, wal_tears: 1, guest_bursts: 1, burst_faults: 2, ..base }
            }
            "heavy" => ChaosConfig {
                kills: 2,
                stalls: 1,
                wal_tears: 1,
                guest_bursts: 2,
                burst_faults: 2,
                poison: true,
                ..base
            },
            other => {
                return Err(format!(
                    "unknown chaos profile {other:?} (try off, light, kills, stalls, wal, \
                     poison, stealth, default, heavy)"
                ))
            }
        })
    }
}

/// What a host-level chaos event does to the shard thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEventKind {
    /// Panic before the next request.
    Kill,
    /// Stop heartbeating (sleep) until the supervisor cancels us.
    Stall,
    /// Corrupt the journal tail, then panic.
    WalTear,
}

/// One host-level event, triggered the first time the shard's served
/// count has reached `at_served` when the next request is due. One-shot:
/// the trigger flag survives revival, so a replayed trajectory does not
/// re-fire it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEvent {
    /// Served-request threshold.
    pub at_served: u64,
    /// The fault to inject.
    pub kind: HostEventKind,
}

/// One guest-level fault volley, fired when the served count reaches
/// `at_served`. Unlike host events, bursts re-fire on replay because
/// they are part of the simulated history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestBurst {
    /// Served-request threshold.
    pub at_served: u64,
    /// `inject_fault` calls in this volley.
    pub faults: u32,
}

/// One silent memory corruption, fired by the *replica runner only*
/// when the targeted replica's delivered count reaches `at_served`:
/// a single bit flip in a seeded resident physical frame, with no trace
/// event, no injected fault and no panic. The monitor never sees it —
/// divergence voting is the only detector. Salts (not concrete targets)
/// are planned so the choice adapts to whatever is resident at strike
/// time while staying a pure function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealthEvent {
    /// Delivered-request threshold on the victim replica.
    pub at_served: u64,
    /// Selects the victim replica (`replica_salt % K`).
    pub replica_salt: u64,
    /// Selects the resident frame (`frame_salt % resident count`).
    pub frame_salt: u64,
    /// Selects the byte offset within the frame (`byte_salt % 4096`).
    pub byte_salt: u64,
    /// Selects the bit to flip (`bit % 8`).
    pub bit: u8,
}

/// A shard's complete chaos schedule — a pure function of
/// `(chaos seed, fleet config, shard index)`.
#[derive(Debug, Clone, Default)]
pub struct ShardChaosPlan {
    /// Host events, sorted by threshold.
    pub events: Vec<HostEvent>,
    /// Guest bursts, sorted by threshold.
    pub bursts: Vec<GuestBurst>,
    /// Schedule index whose every delivery panics (the runner
    /// tombstones it).
    pub poison: Option<u64>,
    /// Silent corruptions, sorted by threshold (replica runner only).
    pub stealth: Vec<StealthEvent>,
}

/// Expands the chaos config into shard `shard`'s plan.
///
/// Host-event thresholds are sampled *without replacement* from the
/// interior of the quota so two one-shot events never share a trigger
/// point on one shard.
#[must_use]
pub fn plan_for_shard(chaos: &ChaosConfig, cfg: &FleetConfig, shard: usize) -> ShardChaosPlan {
    let mut rng = Rng::seed_from_u64(derive_seed(chaos.seed, shard as u64));
    let quota = u64::from(cfg.requests_per_shard);
    if quota < 4 || chaos.is_off() {
        return ShardChaosPlan::default();
    }

    // Candidate thresholds 1..quota-1, partially Fisher-Yates shuffled;
    // the first k become the host-event trigger points.
    let host_kinds: Vec<HostEventKind> = std::iter::empty()
        .chain(std::iter::repeat_n(HostEventKind::Kill, chaos.kills as usize))
        .chain(std::iter::repeat_n(HostEventKind::Stall, chaos.stalls as usize))
        .chain(std::iter::repeat_n(HostEventKind::WalTear, chaos.wal_tears as usize))
        .collect();
    let mut candidates: Vec<u64> = (1..quota).collect();
    let picks = host_kinds.len().min(candidates.len());
    for i in 0..picks {
        let j = i + rng.range_u64(0, (candidates.len() - i) as u64) as usize;
        candidates.swap(i, j);
    }
    let mut events: Vec<HostEvent> = host_kinds
        .into_iter()
        .take(picks)
        .enumerate()
        .map(|(i, kind)| HostEvent { at_served: candidates[i], kind })
        .collect();
    events.sort_by_key(|e| e.at_served);

    let mut bursts: Vec<GuestBurst> = (0..chaos.guest_bursts)
        .map(|_| GuestBurst {
            at_served: rng.range_u64(1, quota),
            faults: chaos.burst_faults.max(1),
        })
        .collect();
    bursts.sort_by_key(|b| b.at_served);
    bursts.dedup_by_key(|b| b.at_served);

    let poison = (chaos.poison && shard == 0).then(|| rng.range_u64(quota / 3, 2 * quota / 3));

    let mut stealth: Vec<StealthEvent> = (0..chaos.stealth)
        .map(|_| StealthEvent {
            at_served: rng.range_u64(1, quota),
            replica_salt: rng.next_u64(),
            frame_salt: rng.next_u64(),
            byte_salt: rng.next_u64(),
            bit: rng.gen_u8() % 8,
        })
        .collect();
    stealth.sort_by_key(|s| s.at_served);
    stealth.dedup_by_key(|s| s.at_served);

    ShardChaosPlan { events, bursts, poison, stealth }
}

/// The panic payload of a chaos-injected death. The supervisor installs
/// a panic hook that suppresses these (dozens of intentional panics
/// must not spam stderr) while delegating every *real* panic to the
/// previous hook.
#[derive(Debug)]
pub(crate) struct ChaosPanic;

/// Installs the [`ChaosPanic`]-filtering panic hook, once per process.
pub(crate) fn install_chaos_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// One shard's chaos plan plus the *shared* one-shot trigger flags
/// that survive revival.
#[derive(Debug)]
pub(crate) struct ChaosRuntime {
    pub plan: ShardChaosPlan,
    /// One flag per host event, shared across every incarnation of the
    /// shard so a revived trajectory never re-fires a one-shot fault.
    pub fired: Vec<AtomicBool>,
    /// Resolved stall duration (the supervisor substitutes its own
    /// deadline-derived default for `stall_ms == 0`).
    pub stall_ms: u64,
    /// The shard's `journal.wal`, when checkpointing is on.
    pub wal_path: Option<PathBuf>,
}

impl ChaosRuntime {
    pub fn new(plan: ShardChaosPlan, stall_ms: u64, wal_path: Option<PathBuf>) -> ChaosRuntime {
        let fired = plan.events.iter().map(|_| AtomicBool::new(false)).collect();
        ChaosRuntime { plan, fired, stall_ms, wal_path }
    }

    /// Host events that have fired.
    pub fn fired_count(&self) -> u64 {
        self.fired.iter().filter(|f| f.load(Ordering::SeqCst)).count() as u64
    }

    /// Fires every due, unfired host event. Kills and tears panic (the
    /// caller is expected to run under `catch_unwind`); a stall sleeps
    /// in short slices until it elapses or `cancel` is raised. Returns
    /// `true` when the incarnation was cancelled mid-stall and should
    /// exit quietly.
    pub fn fire_host(&self, served: u64, cancel: Option<&AtomicBool>) -> bool {
        for (i, ev) in self.plan.events.iter().enumerate() {
            if served < ev.at_served || self.fired[i].swap(true, Ordering::SeqCst) {
                continue;
            }
            match ev.kind {
                HostEventKind::Kill => std::panic::panic_any(ChaosPanic),
                HostEventKind::WalTear => {
                    if let Some(path) = &self.wal_path {
                        tear_wal_tail(path);
                    }
                    std::panic::panic_any(ChaosPanic)
                }
                HostEventKind::Stall => {
                    let until = Instant::now() + Duration::from_millis(self.stall_ms);
                    loop {
                        if cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                            return true;
                        }
                        let now = Instant::now();
                        if now >= until {
                            break;
                        }
                        std::thread::sleep((until - now).min(Duration::from_millis(10)));
                    }
                }
            }
        }
        false
    }
}

/// Corrupts the journal tail the way a dying disk would: truncate a few
/// bytes, flip one more. Persist's longest-valid-prefix recovery must
/// shrug this off and fall back to the previous checkpoint. A journal
/// too short to hold a record (header only, or absent) is left alone —
/// the event degrades to a plain kill.
fn tear_wal_tail(path: &std::path::Path) {
    let Ok(mut bytes) = std::fs::read(path) else { return };
    const HEADER: usize = 16;
    if bytes.len() <= HEADER + 8 {
        return;
    }
    let cut = bytes.len() - 5;
    bytes.truncate(cut);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    let _ = std::fs::write(path, &bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig::quick()
    }

    #[test]
    fn plans_are_a_pure_function_of_seed_and_shard() {
        let chaos = ChaosConfig::profile("heavy").unwrap();
        let a = plan_for_shard(&chaos, &cfg(), 1);
        let b = plan_for_shard(&chaos, &cfg(), 1);
        assert_eq!(a.events, b.events);
        assert_eq!(a.bursts, b.bursts);
        assert_eq!(a.poison, b.poison);
        let c = plan_for_shard(&chaos, &cfg(), 2);
        assert!(a.events != c.events || a.bursts != c.bursts, "shards draw distinct plans");
    }

    #[test]
    fn host_event_thresholds_are_distinct_and_interior() {
        let chaos = ChaosConfig::profile("heavy").unwrap();
        let quota = u64::from(cfg().requests_per_shard);
        for shard in 0..8 {
            let plan = plan_for_shard(&chaos, &cfg(), shard);
            let mut seen: Vec<u64> = plan.events.iter().map(|e| e.at_served).collect();
            let n = seen.len();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n, "shard {shard}: duplicate trigger points");
            assert!(seen.iter().all(|&t| t >= 1 && t < quota));
        }
    }

    #[test]
    fn poison_targets_shard_zero_only() {
        let chaos = ChaosConfig::profile("poison").unwrap();
        let p0 = plan_for_shard(&chaos, &cfg(), 0);
        let quota = u64::from(cfg().requests_per_shard);
        let idx = p0.poison.expect("shard 0 gets the poison request");
        assert!(idx >= quota / 3 && idx < 2 * quota / 3, "poison sits mid-schedule");
        assert_eq!(plan_for_shard(&chaos, &cfg(), 1).poison, None);
        assert!(p0.events.is_empty() && p0.bursts.is_empty());
    }

    #[test]
    fn profiles_resolve_and_unknown_names_error() {
        let names = ["off", "light", "kills", "stalls", "wal", "poison", "stealth", "default"];
        for name in names.iter().chain(&["heavy"]) {
            assert!(ChaosConfig::profile(name).is_ok(), "profile {name}");
        }
        assert!(ChaosConfig::profile("off").unwrap().is_off());
        assert!(!ChaosConfig::profile("default").unwrap().is_off());
        assert!(!ChaosConfig::profile("stealth").unwrap().is_off());
        let err = ChaosConfig::profile("frobnicate").unwrap_err();
        assert!(err.contains("unknown chaos profile"));
    }

    #[test]
    fn tiny_quotas_disable_chaos_instead_of_panicking() {
        let chaos = ChaosConfig::profile("heavy").unwrap();
        let tiny = FleetConfig { requests_per_shard: 2, ..FleetConfig::quick() };
        let plan = plan_for_shard(&chaos, &tiny, 0);
        assert!(plan.events.is_empty() && plan.bursts.is_empty() && plan.poison.is_none());
        assert!(plan.stealth.is_empty());
    }

    #[test]
    fn stealth_plans_are_interior_silent_and_deterministic() {
        let chaos = ChaosConfig::profile("stealth").unwrap();
        let quota = u64::from(cfg().requests_per_shard);
        for shard in 0..4 {
            let plan = plan_for_shard(&chaos, &cfg(), shard);
            assert_eq!(plan.stealth.len(), 1);
            let ev = plan.stealth[0];
            assert!(ev.at_served >= 1 && ev.at_served < quota);
            assert_eq!(ev.bit, ev.bit % 8);
            // Stealth injects *nothing* the monitor or supervisor sees.
            assert!(plan.events.is_empty() && plan.bursts.is_empty() && plan.poison.is_none());
            assert_eq!(plan.stealth, plan_for_shard(&chaos, &cfg(), shard).stealth);
        }
    }

    #[test]
    fn wal_tear_damages_only_the_tail() {
        let dir = indra_persist::ScratchDir::new("chaos-tear").unwrap();
        let path = dir.path().join("journal.wal");
        let body: Vec<u8> = (0..200u16).map(|b| b as u8).collect();
        std::fs::write(&path, &body).unwrap();
        tear_wal_tail(&path);
        let torn = std::fs::read(&path).unwrap();
        assert_eq!(torn.len(), 195, "five bytes truncated");
        assert_eq!(torn[..190], body[..190], "prefix untouched");
        // Header-only journals are left alone.
        std::fs::write(&path, [0u8; 20]).unwrap();
        tear_wal_tail(&path);
        assert_eq!(std::fs::read(&path).unwrap().len(), 20);
    }
}
