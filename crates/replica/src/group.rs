//! A replica group: K cells of one logical shard, voted per request.
//!
//! The group feeds every cell the identical admitted request stream and
//! votes on the resulting [`Ballot`]s — (verdict, output hash, state
//! digest). Byte-for-byte determinism (the repo's standing contract)
//! means agreement is the *only* correct outcome, so any disagreement
//! is a detection:
//!
//! * **K ≥ 3, strict majority** — the minority replicas are *masked*:
//!   revived from the durable majority checkpoint and replayed through
//!   the admitted tail (including the divergent request), after which
//!   their state matches the majority bit-for-bit. Service continues
//!   uninterrupted.
//! * **K = 2, or no majority** — divergence is *detected* but cannot be
//!   attributed. Every replica is revived to the pre-request checkpoint
//!   state and the request is retried once; transient corruption (the
//!   stealth-chaos case) is gone after revival, so the retry agrees. A
//!   repeat disagreement marks the request poison: it is quarantined on
//!   all replicas and the group moves on.
//!
//! Proactive rejuvenation restarts one replica at a time from the base
//! snapshot + WAL (the existing [`SnapshotStore`] path) on a staggered
//! cadence — replica `r` of `K` fires `r·N/K` requests out of phase —
//! so the group never loses its voting quorum to maintenance.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use indra_fleet::{shard_schedule, FleetConfig, ShardOutput, ShardPlan, StealthEvent};
use indra_persist::{CheckpointReceipt, PersistError, ShardCheckpointWriter, SnapshotStore};

use crate::cell::{ballot_key, ReplicaCell, TAG_DEAD, TAG_QUARANTINED};

/// What one replica submits to the vote for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ballot {
    /// Verdict tag (see the `TAG_*` constants).
    pub verdict_tag: u8,
    /// Verdict payload (latency cycles when served, recovery level
    /// when detected).
    pub verdict_val: u64,
    /// [`word_fold`](crate::word_fold) digest over the drained response bytes.
    pub output_hash: u64,
    /// Whole-state digest after the delivery.
    pub digest: u64,
}

/// Group-level counters surfaced into the fleet's supervision stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCounters {
    /// Requests on which any ballot disagreed.
    pub divergences: u64,
    /// Divergent replicas masked and revived from a majority checkpoint.
    pub divergent_masked: u64,
    /// Scheduled proactive rejuvenations performed.
    pub rejuvenations: u64,
    /// Requests quarantined after a persistent (post-retry) divergence.
    pub quarantined: u64,
    /// Stealth corruption strikes actually applied to a replica.
    pub stealth_applied: u64,
    /// Total wall milliseconds spent in revivals (masking, retries and
    /// rejuvenations).
    pub revive_wall_ms: f64,
    /// Number of revive events behind `revive_wall_ms`.
    pub revive_events: u64,
}

/// Returns the ballot held by a strict majority (> K/2), if any.
fn majority(ballots: &[Ballot]) -> Option<Ballot> {
    for b in ballots {
        if ballots.iter().filter(|o| *o == b).count() * 2 > ballots.len() {
            return Some(*b);
        }
    }
    None
}

fn all_equal(ballots: &[Ballot]) -> bool {
    ballots.windows(2).all(|w| w[0] == w[1])
}

/// K replicas of one logical shard plus the voting/revival protocol.
#[derive(Debug)]
pub struct ReplicaGroup {
    cfg: FleetConfig,
    plan: ShardPlan,
    k: usize,
    cells: Vec<ReplicaCell>,
    /// The full deterministic schedule; `cursor` admitted so far.
    schedule: Vec<(Vec<u8>, bool)>,
    tombstones: BTreeSet<u64>,
    cursor: u64,
    store: SnapshotStore,
    writer: ShardCheckpointWriter,
    checkpoint_every: u32,
    rejuvenate_every: Option<u64>,
    stealth: Vec<StealthEvent>,
    stealth_next: usize,
    wal: CheckpointReceipt,
    /// Counters the runner folds into [`indra_fleet::SupervisionStats`].
    pub counters: GroupCounters,
}

impl ReplicaGroup {
    /// Builds a K-cell group for `plan` over the store at `store`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        cfg: &FleetConfig,
        plan: ShardPlan,
        k: usize,
        checkpoint_every: u32,
        rejuvenate_every: Option<u64>,
        store: SnapshotStore,
        stealth: Vec<StealthEvent>,
    ) -> Result<ReplicaGroup, PersistError> {
        assert!(k >= 1, "a replica group needs at least one cell");
        let cells = (0..k)
            .map(|_| ReplicaCell::build(cfg, &plan).expect("replica cell builds from a valid plan"))
            .collect();
        let writer = store.shard_writer(plan.shard)?;
        let schedule =
            shard_schedule(cfg, &plan).into_iter().map(|t| (t.data, t.malicious)).collect();
        Ok(ReplicaGroup {
            cfg: cfg.clone(),
            plan,
            k,
            cells,
            schedule,
            tombstones: BTreeSet::new(),
            cursor: 0,
            store,
            writer,
            checkpoint_every,
            rejuvenate_every,
            stealth,
            stealth_next: 0,
            wal: CheckpointReceipt::default(),
            counters: GroupCounters::default(),
        })
    }

    /// Drives the whole schedule through the group. Returns whether the
    /// run completed (false = a majority of replicas died, which under
    /// determinism means the service itself deterministically dies).
    pub fn run(&mut self) -> Result<bool, PersistError> {
        for seq in 0..self.schedule.len() as u64 {
            if !self.step(seq)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// One request: stealth strikes due now, parallel delivery on every
    /// replica, the vote, then checkpoint/rejuvenation bookkeeping.
    fn step(&mut self, seq: u64) -> Result<bool, PersistError> {
        while let Some(ev) = self.stealth.get(self.stealth_next).copied() {
            if ev.at_served > seq {
                break;
            }
            let victim = usize::try_from(ev.replica_salt % self.k as u64).expect("index fits");
            if self.cells[victim].corrupt_bit(ev.frame_salt, ev.byte_salt, ev.bit) {
                self.counters.stealth_applied += 1;
            }
            self.stealth_next += 1;
        }

        let mut ballots = self.deliver_all(seq);
        if self.k >= 2 && !all_equal(&ballots) {
            self.counters.divergences += 1;
            ballots = self.resolve_divergence(seq, ballots)?;
        }
        self.cursor = seq + 1;
        let alive = match majority(&ballots) {
            Some(b) => b.verdict_tag != TAG_DEAD,
            None => false,
        };
        if !alive {
            return Ok(false);
        }
        self.maybe_checkpoint()?;
        self.maybe_rejuvenate()?;
        Ok(true)
    }

    /// Delivers request `seq` on every replica in parallel (one scoped
    /// worker thread per cell) and collects ballots. A panicking cell
    /// votes Dead.
    fn deliver_all(&mut self, seq: u64) -> Vec<Ballot> {
        let (data, malicious) = self.schedule[usize::try_from(seq).expect("seq fits")].clone();
        let mut ballots = vec![Ballot::default(); self.k];
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .cells
                .iter_mut()
                .map(|cell| {
                    let data = data.clone();
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            let (outcome, output_hash) = cell.deliver(data, malicious);
                            let (verdict_tag, verdict_val) = ballot_key(outcome);
                            let digest = cell.digest().value;
                            Ballot { verdict_tag, verdict_val, output_hash, digest }
                        }))
                        .unwrap_or(Ballot { verdict_tag: TAG_DEAD, ..Ballot::default() })
                    })
                })
                .collect();
            for (slot, worker) in ballots.iter_mut().zip(workers) {
                *slot = worker.join().expect("replica worker never panics past catch_unwind");
            }
        });
        ballots
    }

    /// The divergence protocol (see the module docs for the policy).
    fn resolve_divergence(
        &mut self,
        seq: u64,
        mut ballots: Vec<Ballot>,
    ) -> Result<Vec<Ballot>, PersistError> {
        if self.k >= 3 {
            if let Some(maj) = majority(&ballots) {
                // Mask-and-revive: replay *through* the divergent
                // request so the minority lands on the majority state.
                #[allow(clippy::needless_range_loop)] // r indexes both ballots and cells
                for r in 0..self.k {
                    if ballots[r] != maj {
                        self.revive_replica(r, seq + 1)?;
                        self.counters.divergent_masked += 1;
                        let healed = self.cells[r].digest().value;
                        debug_assert_eq!(healed, maj.digest, "revived replica must match majority");
                        ballots[r] = maj;
                    }
                }
                return Ok(ballots);
            }
        }
        // K = 2 (or a K-way split): rewind everyone to the pre-request
        // state and retry once — transient corruption dies in revival.
        for r in 0..self.k {
            self.revive_replica(r, seq)?;
        }
        let retry = self.deliver_all(seq);
        if all_equal(&retry) {
            return Ok(retry);
        }
        // Persistent divergence: the request itself is poison for the
        // vote. Quarantine it everywhere and move on.
        for r in 0..self.k {
            self.revive_replica(r, seq)?;
        }
        self.tombstones.insert(seq);
        for cell in &mut self.cells {
            cell.quarantine(seq);
        }
        self.counters.quarantined += 1;
        Ok(vec![Ballot { verdict_tag: TAG_QUARANTINED, ..Ballot::default() }; self.k])
    }

    /// Revives replica `r` from the durable majority checkpoint (base
    /// snapshot + WAL via [`SnapshotStore::load_shard`]; a fresh cell if
    /// nothing was checkpointed yet) and replays the admitted stream up
    /// to — excluding — `upto`, honoring tombstones.
    fn revive_replica(&mut self, r: usize, upto: u64) -> Result<(), PersistError> {
        let t0 = Instant::now();
        let mut from = 0u64;
        match self.store.load_shard(self.plan.shard)? {
            Some(loaded) => {
                self.cells[r].restore(&loaded.state);
                let bytes: [u8; 8] =
                    loaded.progress.as_slice().try_into().expect("progress blob is a u64 cursor");
                from = u64::from_le_bytes(bytes);
            }
            None => {
                self.cells[r] = ReplicaCell::build(&self.cfg, &self.plan)
                    .expect("replica cell rebuilds from the same plan");
            }
        }
        for seq in from..upto {
            if self.tombstones.contains(&seq) {
                self.cells[r].quarantine(seq);
            } else {
                let (data, malicious) =
                    self.schedule[usize::try_from(seq).expect("seq fits")].clone();
                let _ = self.cells[r].deliver(data, malicious);
            }
        }
        self.counters.revive_events += 1;
        self.counters.revive_wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }

    /// Checkpoints the leader's (post-agreement) state every
    /// `checkpoint_every` admitted requests, cursor in the progress
    /// blob. Any replica would do — they agree — the leader is just the
    /// canonical pick.
    fn maybe_checkpoint(&mut self) -> Result<(), PersistError> {
        if self.checkpoint_every == 0
            || !self.cursor.is_multiple_of(u64::from(self.checkpoint_every))
        {
            return Ok(());
        }
        let state = self.cells[0].freeze();
        self.wal.absorb(self.writer.checkpoint(&state, &self.cursor.to_le_bytes())?);
        Ok(())
    }

    /// Fires due scheduled rejuvenations. Replica `r` restarts when
    /// `cursor + r·N/K ≡ 0 (mod N)` — the offsets interleave restarts
    /// so at most one replica is down per request boundary and the
    /// group keeps its quorum.
    fn maybe_rejuvenate(&mut self) -> Result<(), PersistError> {
        let Some(n) = self.rejuvenate_every else { return Ok(()) };
        for r in 0..self.k {
            let offset = (r as u64 * n) / self.k as u64;
            if (self.cursor + offset).is_multiple_of(n) {
                self.revive_replica(r, self.cursor)?;
                self.counters.rejuvenations += 1;
            }
        }
        Ok(())
    }

    /// Collapses the group into the leader's [`ShardOutput`] (the same
    /// shape an unreplicated shard emits) plus the group counters.
    #[must_use]
    pub fn finish(self, completed: bool) -> (ShardOutput, GroupCounters) {
        let malicious = self.schedule.iter().map(|(_, m)| *m);
        let mut output = self.cells[0].engine().output(self.plan, malicious, completed);
        output.wal = self.wal;
        (output, self.counters)
    }
}
