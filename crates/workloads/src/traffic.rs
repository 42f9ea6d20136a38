//! Request traffic scripting — the analogue of the paper's client
//! scripts (wget loops, ftp upload/download scripts, mail senders).
//!
//! Two generators live here:
//!
//! * [`Traffic`] — the original closed scripts used by the figure
//!   experiments: `n` benign requests with an attack interleaved at a
//!   fixed cadence.
//! * [`OpenLoopTraffic`] — the fleet's traffic schedule: requests
//!   stamped with arrival cycles on their own clock (uniformly jittered
//!   inter-arrival gaps), with a configurable benign/attack mix drawn
//!   over an arbitrary set of [`Attack`] variants. The fleet feeds the
//!   requests to each shard in order; the arrival cycles cannot change
//!   its stats, because a request's latency starts when the service
//!   takes it and an idle simulated core collapses any gap.

use indra_isa::Image;
use indra_rng::Rng;

use crate::{attack_request, benign_request, Attack};

/// One scripted request with its ground-truth tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedRequest {
    /// Wire bytes.
    pub data: Vec<u8>,
    /// Ground truth: is this an exploit?
    pub malicious: bool,
}

/// A deterministic traffic script.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Number of benign requests.
    pub benign: u32,
    /// Inject `attack` after every `attack_every` benign requests
    /// (`None` = clean run).
    pub attack_every: Option<u32>,
    /// The attack to inject.
    pub attack: Option<Attack>,
    /// RNG seed (scripts are reproducible).
    pub seed: u64,
}

impl Traffic {
    /// A clean, all-benign script.
    #[must_use]
    pub fn benign(n: u32, seed: u64) -> Traffic {
        Traffic { benign: n, attack_every: None, attack: None, seed }
    }

    /// A script interleaving `attack` after every `every` benign requests.
    #[must_use]
    pub fn with_attacks(n: u32, attack: Attack, every: u32, seed: u64) -> Traffic {
        Traffic { benign: n, attack_every: Some(every), attack: Some(attack), seed }
    }

    /// Materializes the request sequence against `image`.
    #[must_use]
    pub fn generate(&self, image: &Image) -> Vec<ScriptedRequest> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        for i in 0..self.benign {
            let opcode = rng.range_u32(0, 4) as u8;
            let fill = rng.gen_u8();
            out.push(ScriptedRequest { data: benign_request(opcode, fill), malicious: false });
            if let (Some(every), Some(attack)) = (self.attack_every, self.attack) {
                if every > 0 && (i + 1) % every == 0 {
                    out.push(ScriptedRequest {
                        data: attack_request(attack, image),
                        malicious: true,
                    });
                }
            }
        }
        out
    }
}

/// One request of an open-loop schedule: wire bytes, ground truth, and
/// the client-side cycle at which it arrives at the service's inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedRequest {
    /// Wire bytes.
    pub data: Vec<u8>,
    /// Ground truth: is this an exploit?
    pub malicious: bool,
    /// Which attack produced it (None for benign traffic).
    pub attack: Option<Attack>,
    /// Arrival time in resurrectee cycles since the schedule's start.
    pub arrival_cycle: u64,
}

/// An open-loop arrival process: `total` requests arriving at a mean
/// inter-arrival gap, each independently an attack with probability
/// `attack_per_mille`/1000, the attack drawn uniformly from `attacks`.
///
/// The schedule is a pure function of the configuration (notably `seed`),
/// so a fleet shard replaying it under any thread interleaving sees
/// byte-identical traffic — the determinism contract the fleet
/// aggregation tests pin down.
#[derive(Debug, Clone)]
pub struct OpenLoopTraffic {
    /// Total requests in the schedule (benign + attacks).
    pub total: u32,
    /// Per-request attack probability in per-mille (0 = clean run,
    /// 1000 = every request is an exploit).
    pub attack_per_mille: u32,
    /// The attack mix to draw from (ignored when `attack_per_mille` is 0;
    /// must be non-empty otherwise).
    pub attacks: Vec<Attack>,
    /// Mean inter-arrival gap in resurrectee cycles; actual gaps are
    /// uniform in `[gap/2, 3*gap/2)`.
    pub mean_gap_cycles: u64,
    /// Schedule seed.
    pub seed: u64,
}

impl OpenLoopTraffic {
    /// A clean open-loop schedule.
    #[must_use]
    pub fn benign(total: u32, mean_gap_cycles: u64, seed: u64) -> OpenLoopTraffic {
        OpenLoopTraffic { total, attack_per_mille: 0, attacks: Vec::new(), mean_gap_cycles, seed }
    }

    /// A schedule mixing attacks in at `per_mille`/1000 probability.
    #[must_use]
    pub fn with_attack_mix(
        total: u32,
        attacks: Vec<Attack>,
        per_mille: u32,
        mean_gap_cycles: u64,
        seed: u64,
    ) -> OpenLoopTraffic {
        OpenLoopTraffic { total, attack_per_mille: per_mille, attacks, mean_gap_cycles, seed }
    }

    /// Materializes the arrival schedule against `image`.
    ///
    /// # Panics
    ///
    /// Panics when an attack mix is requested with an empty attack set.
    #[must_use]
    pub fn generate(&self, image: &Image) -> Vec<TimedRequest> {
        assert!(
            self.attack_per_mille == 0 || !self.attacks.is_empty(),
            "attack mix requested with no attack variants"
        );
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.total as usize);
        let mut clock = 0u64;
        for _ in 0..self.total {
            let gap = if self.mean_gap_cycles == 0 {
                0
            } else {
                let half = (self.mean_gap_cycles / 2).max(1);
                rng.range_u64(half, self.mean_gap_cycles + half + 1)
            };
            clock += gap;
            let is_attack = self.attack_per_mille > 0 && rng.ratio(self.attack_per_mille, 1000);
            if is_attack {
                let attack = *rng.pick(&self.attacks);
                out.push(TimedRequest {
                    data: attack_request(attack, image),
                    malicious: true,
                    attack: Some(attack),
                    arrival_cycle: clock,
                });
            } else {
                let opcode = rng.range_u32(0, 4) as u8;
                let fill = rng.gen_u8();
                out.push(TimedRequest {
                    data: benign_request(opcode, fill),
                    malicious: false,
                    attack: None,
                    arrival_cycle: clock,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_app_scaled, detectable_attack_suite, ServiceApp};

    #[test]
    fn benign_script_is_clean_and_deterministic() {
        let img = build_app_scaled(ServiceApp::Ftpd, 20);
        let a = Traffic::benign(10, 42).generate(&img);
        let b = Traffic::benign(10, 42).generate(&img);
        assert_eq!(a, b, "same seed, same script");
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|r| !r.malicious));
        let c = Traffic::benign(10, 43).generate(&img);
        assert_ne!(a, c, "different seed, different script");
    }

    #[test]
    fn attacks_interleave_at_the_requested_rate() {
        let img = build_app_scaled(ServiceApp::Ftpd, 20);
        let script =
            Traffic::with_attacks(6, Attack::WildWrite { addr: crate::UNMAPPED_ADDR }, 2, 1)
                .generate(&img);
        assert_eq!(script.len(), 9, "6 benign + 3 attacks");
        let flags: Vec<bool> = script.iter().map(|r| r.malicious).collect();
        assert_eq!(flags, [false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn open_loop_schedule_is_deterministic_and_monotone() {
        let img = build_app_scaled(ServiceApp::Httpd, 20);
        let mix = detectable_attack_suite(&img);
        let spec = OpenLoopTraffic::with_attack_mix(200, mix, 150, 10_000, 7);
        let a = spec.generate(&img);
        let b = spec.generate(&img);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        let attacks = a.iter().filter(|r| r.malicious).count();
        assert!((10..60).contains(&attacks), "15% mix gave {attacks}/200 attacks");
        assert!(a.iter().filter(|r| r.malicious).all(|r| r.attack.is_some()));
    }

    #[test]
    fn open_loop_gaps_follow_the_mean() {
        let img = build_app_scaled(ServiceApp::Bind, 20);
        let spec = OpenLoopTraffic::benign(100, 1_000, 3);
        let script = spec.generate(&img);
        let span = script.last().unwrap().arrival_cycle;
        assert!(
            (60_000..140_000).contains(&span),
            "100 arrivals at mean gap 1000 span {span} cycles"
        );
        let zero_gap = OpenLoopTraffic::benign(10, 0, 3).generate(&img);
        assert!(zero_gap.iter().all(|r| r.arrival_cycle == 0), "gap 0 = all at once");
    }
}
