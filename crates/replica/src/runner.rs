//! The one shard runner: K ≥ 1 replica cells over one admitted log,
//! one vote and one revival routine.
//!
//! Every closed-loop caller — the `fleetd` shard worker, its offline
//! replay and the replicated fleet ([`crate::run_fleet_replicated`]) —
//! drives a [`ShardRunner`]. Its trajectory is a pure function of the
//! [`EngineConfig`] and the ordered admitted log: admit one request, or
//! quarantine a seq. Replay applies logged tombstones at the same
//! positional point, so live and replayed trajectories stay identical
//! even through deaths, and every cell of one runner sees the same
//! operation sequence, so honest cells always agree.
//!
//! One policy decides each request:
//!
//! * **Deliver.** Every cell gets the request — followers on scoped
//!   threads, the primary (`cells[0]`) on the caller's — and returns a
//!   [`Ballot`]. At K = 1 there is no digest and no thread.
//! * **Trusted.** A strict majority of ballots agrees on a live outcome:
//!   at K = 1 the cell did not die, at K = 2 both agree, at K ≥ 3 the
//!   majority masks any faulty cell, the primary included. Out-voted
//!   cells are revived *through* the request onto the majority's state.
//! * **Untrusted.** Anything else: a death at K = 1, a K = 2 split, no
//!   majority, a dead majority. Every cell is revived to just before the
//!   request and the request is retried once; a second failure
//!   tombstones it (the caller makes the tombstone durable in its log).
//! * **Revive.** Restore the latest checkpoint this runner wrote through
//!   [`ShardRunner::checkpoint`] or recovered from at start — never
//!   whatever a store directory happens to hold — or build a fresh cell
//!   when there is none, then replay the admitted tail, honouring
//!   tombstones. Death-retry, masking, the K = 2 retry and rejuvenation
//!   all revive through this one routine.
//! * **Rejuvenate.** Every `N` admitted requests, staggered: cell `r` of
//!   `K` is revived when `(cursor + r·N/K) % N == 0`, so at most one
//!   cell per boundary is down and the runner keeps its quorum. Drivers
//!   fire it ([`ShardRunner::rejuvenate`]) after their checkpoint at the
//!   same cursor, so a coincident revival restores that checkpoint and
//!   replays nothing.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use indra_core::{IndraSystem, RecoveryLevel, RunReport, SystemState};
use indra_fleet::{DeliverOutcome, EngineConfig, ShardError, ShardOutput, ShardPlan};
use indra_persist::{
    CheckpointReceipt, IngressKind, IngressRecord, PersistError, ShardCheckpointWriter, WireReader,
    WireWriter,
};
use indra_rng::derive_seed;

use crate::cell::ReplicaCell;

/// What one guarded delivery produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Response produced.
    Served {
        /// Delivery-to-response resurrectee cycles.
        cycles: u64,
    },
    /// A recovery episode fired on this request.
    Detected {
        /// Micro (per-request rollback) or macro recovery.
        level: RecoveryLevel,
    },
    /// The request failed the vote twice and was quarantined.
    Quarantined,
}

/// What one cell submits to the vote for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ballot {
    /// The delivery's outcome. Latency cycles are deterministic, so
    /// they vote too.
    outcome: DeliverOutcome,
    /// [`word_fold`](crate::word_fold) digest over the drained response
    /// bytes.
    output_hash: u64,
    /// Whole-state digest after the delivery (0 at K = 1 and for a dead
    /// cell).
    digest: u64,
}

/// The ballot of a cell that panicked.
const DEAD: Ballot = Ballot { outcome: DeliverOutcome::Dead, output_hash: 0, digest: 0 };

/// Replication counters: host-side observations surfaced in
/// [`indra_fleet::SupervisionStats`] and `HEALTH`, never in the
/// deterministic stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCounters {
    /// Requests on which any ballot disagreed.
    pub divergences: u64,
    /// Out-voted cells revived through the request.
    pub divergent_masked: u64,
    /// Scheduled proactive rejuvenations performed.
    pub rejuvenations: u64,
    /// Untrusted deliveries; each revived every cell.
    pub revivals: u64,
    /// Total wall milliseconds spent reviving cells.
    pub revive_wall_ms: f64,
    /// Cell revivals behind `revive_wall_ms`.
    pub revive_events: u64,
    /// Admitted requests those revivals replayed onto a restored or
    /// fresh cell.
    pub revive_replayed: u64,
}

/// The ballot a strict majority holds, if it is live — the one rule
/// that makes a delivery trusted at every K.
fn vote(ballots: &[Ballot]) -> Option<Ballot> {
    ballots.iter().copied().find(|b| {
        b.outcome != DeliverOutcome::Dead
            && ballots.iter().filter(|o| *o == b).count() * 2 > ballots.len()
    })
}

/// The progress blob a runner checkpoint carries: its cursor.
fn cursor_blob(cursor: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(cursor);
    w.finish()
}

/// Reads the cursor back out of a runner checkpoint's progress blob.
///
/// # Errors
///
/// Typed [`PersistError`] when the blob is not exactly one cursor.
pub fn read_cursor(progress: &[u8]) -> Result<u64, PersistError> {
    let mut r = WireReader::new(progress);
    let cursor = r.u64("serve progress cursor")?;
    r.expect_exhausted("serve progress trailing bytes")?;
    Ok(cursor)
}

/// Drives one shard's K cells through its admitted-request history,
/// live or replayed, under the vote and revival policy above.
#[derive(Debug)]
pub struct ShardRunner {
    cfg: EngineConfig,
    shard: usize,
    /// `cells[0]` is the primary: its report is the shard's output.
    cells: Vec<ReplicaCell>,
    /// Request records in seq order (`requests[i].seq == i`).
    requests: Vec<IngressRecord>,
    tombstones: BTreeSet<u64>,
    /// Requests with `seq < cursor` are already part of every cell's
    /// history.
    cursor: u64,
    rejuvenate_every: Option<u64>,
    /// The only checkpoint a revival trusts, and the cursor it was
    /// taken at.
    base: Option<(SystemState, u64)>,
    /// Vote and revival counters.
    pub counters: GroupCounters,
    /// WAL-delta volume this shard's checkpoints wrote. Host-side
    /// observation: it flows to [`ShardOutput::wal`], never into the
    /// deterministic stats.
    pub wal: CheckpointReceipt,
}

impl ShardRunner {
    /// A fresh single-cell runner with no history.
    ///
    /// # Errors
    ///
    /// [`ShardError::Deploy`] when the service image fails to load.
    pub fn new(cfg: EngineConfig, shard: usize) -> Result<ShardRunner, ShardError> {
        Ok(ShardRunner::replicated(cfg, shard, 1, None, Vec::new(), None)?.0)
    }

    /// A single-cell runner rebuilt from a parsed ingress log; see
    /// [`ShardRunner::replicated`].
    ///
    /// # Errors
    ///
    /// As [`ShardRunner::replicated`].
    pub fn from_log(
        cfg: EngineConfig,
        shard: usize,
        records: Vec<IngressRecord>,
        checkpoint: Option<(SystemState, u64)>,
    ) -> Result<(ShardRunner, Vec<u64>), ShardError> {
        ShardRunner::replicated(cfg, shard, 1, None, records, checkpoint)
    }

    /// A runner of `replicas` cells rebuilt from a parsed ingress log,
    /// optionally starting every cell from one checkpoint (`state` + the
    /// cursor it was taken at) instead of from genesis. A checkpoint
    /// whose cursor lies past the log's end cannot be a state this log
    /// reduces to, and is not used. The log tail runs through the
    /// ordinary vote, so an entry that deterministically kills the
    /// engine is quarantined exactly as it would have been live; the
    /// newly created tombstone seqs are returned so a live caller can
    /// append them to the log (offline replay ignores them — the log is
    /// read-only there). `rejuvenate_every` sets the cadence of
    /// proactive rejuvenation for requests admitted later.
    ///
    /// # Errors
    ///
    /// [`ShardError`] from cell construction, or a corrupt log whose
    /// request seqs are not dense.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn replicated(
        cfg: EngineConfig,
        shard: usize,
        replicas: usize,
        rejuvenate_every: Option<u64>,
        records: Vec<IngressRecord>,
        checkpoint: Option<(SystemState, u64)>,
    ) -> Result<(ShardRunner, Vec<u64>), ShardError> {
        assert!(replicas >= 1, "a shard runner needs at least one cell");
        let mut requests = Vec::new();
        let mut tombstones = BTreeSet::new();
        for rec in records {
            match rec.kind {
                IngressKind::Request => {
                    if rec.seq != requests.len() as u64 {
                        return Err(ShardError::Persist(PersistError::Corrupt {
                            context: "ingress log seqs are not dense",
                        }));
                    }
                    requests.push(rec);
                }
                IngressKind::Quarantine => {
                    tombstones.insert(rec.seq);
                }
            }
        }
        let base = checkpoint.filter(|(_, cursor)| *cursor <= requests.len() as u64);
        let mut cells = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let mut cell = ReplicaCell::new(&cfg)?;
            if let Some((state, _)) = &base {
                cell.restore(state);
            }
            cells.push(cell);
        }
        let mut runner = ShardRunner {
            cursor: base.as_ref().map_or(0, |(_, cursor)| *cursor),
            cfg,
            shard,
            cells,
            requests,
            tombstones,
            rejuvenate_every,
            base,
            counters: GroupCounters::default(),
            wal: CheckpointReceipt::default(),
        };
        let mut fresh = Vec::new();
        while runner.cursor < runner.requests.len() as u64 {
            fresh.extend(runner.process_next().1);
        }
        Ok((runner, fresh))
    }

    /// The next admission seq this runner will assign.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.requests.len() as u64
    }

    /// Mutable access to the primary's simulated system.
    pub fn system_mut(&mut self) -> &mut IndraSystem {
        self.cells[0].system_mut()
    }

    /// The cells, primary first — for fault injection.
    pub(crate) fn cells_mut(&mut self) -> &mut [ReplicaCell] {
        &mut self.cells
    }

    /// Admits one already-logged request record and decides it under
    /// the vote. Returns its disposition plus any tombstone seq newly
    /// created (at most one — this request's own, if it failed the vote
    /// twice).
    ///
    /// # Panics
    ///
    /// Panics when `rec` is not the next dense request seq — the caller
    /// logs before admitting, so a gap is a harness bug.
    pub fn admit(&mut self, rec: IngressRecord) -> (Disposition, Vec<u64>) {
        assert_eq!(rec.kind, IngressKind::Request, "admit takes request records");
        assert_eq!(rec.seq, self.next_seq(), "admission seqs must be dense");
        self.requests.push(rec);
        self.process_next()
    }

    /// Revives every cell whose rejuvenation is due at the current
    /// cursor; returns whether any was. Call it after any checkpoint
    /// taken at this cursor, so the revival restores that checkpoint
    /// instead of replaying a whole interval.
    pub fn rejuvenate(&mut self) -> bool {
        let Some(n) = self.rejuvenate_every else { return false };
        let k = self.cells.len() as u64;
        let mut fired = false;
        for r in 0..self.cells.len() {
            if (self.cursor + r as u64 * n / k).is_multiple_of(n) {
                self.revive(r, self.cursor);
                self.counters.rejuvenations += 1;
                fired = true;
            }
        }
        fired
    }

    /// Processes the request at `cursor`: a logged tombstone is honoured,
    /// anything else is decided by the vote.
    fn process_next(&mut self) -> (Disposition, Vec<u64>) {
        let seq = self.cursor;
        let mut fresh = Vec::new();
        let disposition = if self.tombstones.contains(&seq) {
            Disposition::Quarantined
        } else {
            self.decide(seq).unwrap_or_else(|| {
                fresh.push(seq);
                Disposition::Quarantined
            })
        };
        if disposition == Disposition::Quarantined {
            for cell in &mut self.cells {
                cell.quarantine(seq);
            }
        }
        self.cursor += 1;
        (disposition, fresh)
    }

    /// Delivers `seq` to every cell and votes, retrying once when the
    /// result is untrusted. `None` means it was untrusted twice: every
    /// cell is back to just before `seq`, which is now tombstoned.
    fn decide(&mut self, seq: u64) -> Option<Disposition> {
        let mut diverged = false;
        for _ in 0..2 {
            let ballots = self.deliver_all(seq);
            if !diverged && ballots.iter().any(|b| *b != ballots[0]) {
                diverged = true;
                self.counters.divergences += 1;
            }
            if let Some(winner) = vote(&ballots) {
                for (r, ballot) in ballots.iter().enumerate() {
                    if *ballot != winner {
                        self.revive(r, seq + 1);
                        self.counters.divergent_masked += 1;
                        debug_assert_eq!(
                            self.cells[r].digest().value,
                            winner.digest,
                            "a revived cell must land on the majority state"
                        );
                    }
                }
                return Some(match winner.outcome {
                    DeliverOutcome::Served { cycles } => Disposition::Served { cycles },
                    DeliverOutcome::Detected { level } => Disposition::Detected { level },
                    DeliverOutcome::Dead => unreachable!("the vote never trusts a dead ballot"),
                });
            }
            self.counters.revivals += 1;
            for r in 0..self.cells.len() {
                self.revive(r, seq);
            }
        }
        self.tombstones.insert(seq);
        None
    }

    /// One guarded delivery of `requests[seq]` on every cell. A cell
    /// that panics votes dead.
    fn deliver_all(&mut self, seq: u64) -> Vec<Ballot> {
        let rec = &self.requests[usize::try_from(seq).expect("seq fits")];
        let digest = self.cells.len() > 1;
        let ballot = &|cell: &mut ReplicaCell| {
            catch_unwind(AssertUnwindSafe(|| {
                let (outcome, output_hash) = cell.deliver(rec.data.clone(), rec.malicious);
                let digest =
                    if digest && outcome != DeliverOutcome::Dead { cell.digest().value } else { 0 };
                Ballot { outcome, output_hash, digest }
            }))
            .unwrap_or(DEAD)
        };
        let (primary, followers) = self.cells.split_first_mut().expect("at least one cell");
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                followers.iter_mut().map(|cell| scope.spawn(move || ballot(cell))).collect();
            let mut ballots = vec![ballot(primary)];
            ballots.extend(
                workers.into_iter().map(|w| w.join().expect("a cell's panic is caught in it")),
            );
            ballots
        })
    }

    /// The one revival routine: cell `r` ends up holding the state after
    /// the first `upto` requests — the trusted checkpoint (or a fresh
    /// cell), then the admitted tail replayed, honouring tombstones.
    /// Unguarded: every replayed entry already succeeded on an identical
    /// trajectory.
    fn revive(&mut self, r: usize, upto: u64) {
        let t0 = Instant::now();
        let from = match &self.base {
            Some((state, cursor)) if *cursor <= upto => {
                self.cells[r].restore(state);
                *cursor
            }
            _ => {
                self.cells[r] =
                    ReplicaCell::new(&self.cfg).expect("a cell rebuilds from its first config");
                0
            }
        };
        let cell = &mut self.cells[r];
        for seq in from..upto {
            if self.tombstones.contains(&seq) {
                cell.quarantine(seq);
            } else {
                let rec = &self.requests[usize::try_from(seq).expect("seq fits")];
                let _ = cell.deliver(rec.data.clone(), rec.malicious);
            }
        }
        self.counters.revive_events += 1;
        self.counters.revive_replayed += upto - from;
        self.counters.revive_wall_ms += t0.elapsed().as_secs_f64() * 1e3;
    }

    /// The primary's run report (for live counters).
    #[must_use]
    pub fn report(&self) -> &RunReport {
        self.cells[0].report()
    }

    /// Quarantined request count so far.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Freezes the primary's state, paired with the cursor it was taken
    /// at.
    #[must_use]
    pub fn freeze(&self) -> (SystemState, u64) {
        (self.cells[0].freeze(), self.cursor)
    }

    /// Durably checkpoints the primary through `writer`, the cursor as
    /// the progress blob (read back with [`read_cursor`]), and makes that
    /// checkpoint the one every later revival restores.
    ///
    /// # Errors
    ///
    /// The writer's I/O failure; the previous trusted checkpoint stays.
    pub fn checkpoint(&mut self, writer: &mut ShardCheckpointWriter) -> Result<(), PersistError> {
        let (state, cursor) = self.freeze();
        self.wal.absorb(writer.checkpoint(&state, &cursor_blob(cursor))?);
        self.base = Some((state, cursor));
        Ok(())
    }

    /// Collapses the runner into the primary's [`ShardOutput`].
    /// `benign_sent`/`attacks_sent` count every admitted request
    /// (quarantined ones included — they were sent).
    #[must_use]
    pub fn finish(self, completed: bool) -> ShardOutput {
        let plan = ShardPlan {
            shard: self.shard,
            app: self.cfg.app,
            seed: derive_seed(self.cfg.seed, self.shard as u64),
        };
        let malicious = self.requests.iter().map(|r| r.malicious);
        let mut output = self.cells[0].engine().output(plan, malicious, completed);
        output.wal = self.wal;
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indra_bench::Histogram;
    use indra_fleet::aggregate_stats;
    use indra_isa::{Instruction, Reg};
    use indra_persist::{ScratchDir, SnapshotStore};
    use indra_workloads::{benign_request, build_app_scaled, detectable_attack_suite};

    fn quick_cfg() -> EngineConfig {
        EngineConfig { scale: 60, ..EngineConfig::default() }
    }

    fn req(seq: u64, malicious: bool, data: Vec<u8>) -> IngressRecord {
        IngressRecord { seq, kind: IngressKind::Request, request_id: seq, malicious, data }
    }

    #[test]
    fn live_and_replayed_runners_agree_byte_for_byte() {
        let cfg = quick_cfg();
        let image = build_app_scaled(cfg.app, cfg.scale);
        let attacks = detectable_attack_suite(&image);
        let mut records = Vec::new();
        for seq in 0..6u64 {
            let malicious = seq == 2;
            let data = if malicious {
                indra_workloads::attack_request(attacks[0], &image)
            } else {
                benign_request(seq as u8, 0x20 + seq as u8)
            };
            records.push(req(seq, malicious, data));
        }

        // Live path: admit one by one.
        let mut live = ShardRunner::new(cfg.clone(), 0).unwrap();
        for rec in &records {
            let (_disp, tombs) = live.admit(rec.clone());
            assert!(tombs.is_empty(), "benign+detectable traffic must not quarantine");
        }
        let live_out = live.finish(true);

        // Replay path: whole log at once.
        let (replayed, fresh) = ShardRunner::from_log(cfg, 0, records, None).unwrap();
        assert!(fresh.is_empty());
        let replay_out = replayed.finish(true);

        assert_eq!(live_out.summary().to_json(), replay_out.summary().to_json());
        assert_eq!(live_out.report.samples, replay_out.report.samples);
        assert_eq!(live_out.sim_cycles, replay_out.sim_cycles);
    }

    #[test]
    fn checkpoint_resume_matches_straight_replay() {
        let cfg = quick_cfg();
        let records: Vec<IngressRecord> =
            (0..5u64).map(|s| req(s, false, benign_request(s as u8, 0x11))).collect();

        // Straight replay.
        let (straight, _) = ShardRunner::from_log(cfg.clone(), 1, records.clone(), None).unwrap();
        let straight_out = straight.finish(true);

        // Run half live, freeze, then resume from the checkpoint.
        let mut half = ShardRunner::new(cfg.clone(), 1).unwrap();
        for rec in &records[..3] {
            half.admit(rec.clone());
        }
        let (state, cursor) = half.freeze();
        assert_eq!(cursor, 3);
        let (resumed, _) = ShardRunner::from_log(cfg, 1, records, Some((state, cursor))).unwrap();
        let resumed_out = resumed.finish(true);

        assert_eq!(straight_out.summary().to_json(), resumed_out.summary().to_json());
        assert_eq!(straight_out.report.samples, resumed_out.report.samples);
    }

    #[test]
    fn tombstoned_seq_is_skipped_and_counted() {
        let cfg = quick_cfg();
        let mut records: Vec<IngressRecord> =
            (0..3u64).map(|s| req(s, false, benign_request(s as u8, 0x22))).collect();
        records.push(IngressRecord {
            seq: 1,
            kind: IngressKind::Quarantine,
            request_id: 0,
            malicious: false,
            data: Vec::new(),
        });
        let (runner, fresh) = ShardRunner::from_log(cfg, 0, records, None).unwrap();
        assert!(fresh.is_empty());
        assert_eq!(runner.quarantined(), 1);
        let out = runner.finish(true);
        assert_eq!(out.report.served, 2);
        assert_eq!(out.report.quarantined, vec![1]);
        assert_eq!(out.benign_sent, 3, "quarantined requests still count as sent");
    }

    fn stats_json(out: &ShardOutput) -> String {
        let mut latency = Histogram::new();
        for s in &out.report.samples {
            latency.record(s.cycles);
        }
        aggregate_stats(std::slice::from_ref(out), latency).to_json()
    }

    #[test]
    fn k3_outvotes_a_struck_primary_and_finishes_like_an_unstruck_k1() {
        let cfg = quick_cfg();
        let records: Vec<IngressRecord> =
            (0..6u64).map(|s| req(s, false, benign_request(s as u8, 0x33))).collect();
        let (clean, _) = ShardRunner::from_log(cfg.clone(), 0, records.clone(), None).unwrap();

        let guard = ScratchDir::new("runner-k3").unwrap();
        let mut writer = SnapshotStore::create(guard.path()).unwrap().shard_writer(0).unwrap();
        let (mut struck, _) = ShardRunner::replicated(cfg, 0, 3, None, Vec::new(), None).unwrap();
        for rec in records {
            if rec.seq == 3 {
                assert!(struck.cells_mut()[0].corrupt_bit(7919, 104_729, 5), "no frame to strike");
            }
            struck.admit(rec);
            // A checkpoint after seq 1, so the masking revival restores
            // it and replays only the tail.
            if struck.next_seq() == 2 {
                struck.checkpoint(&mut writer).unwrap();
            }
        }
        assert_eq!(struck.counters.divergences, 1, "the struck primary must split the vote");
        assert_eq!(struck.counters.divergent_masked, 1, "the two followers out-vote it");
        assert_eq!(struck.counters.revivals, 0, "a majority is trusted without a retry");
        assert_eq!(stats_json(&clean.finish(true)), stats_json(&struck.finish(true)));
    }

    #[test]
    fn k2_split_revives_both_cells_and_retries_once() {
        let cfg = quick_cfg();
        let records: Vec<IngressRecord> =
            (0..4u64).map(|s| req(s, false, benign_request(s as u8, 0x44))).collect();
        let (clean, _) = ShardRunner::from_log(cfg.clone(), 0, records.clone(), None).unwrap();
        let (mut struck, _) = ShardRunner::replicated(cfg, 0, 2, None, Vec::new(), None).unwrap();
        for rec in records {
            if rec.seq == 2 {
                assert!(struck.cells_mut()[1].corrupt_bit(31, 4099, 1), "no frame to strike");
            }
            let (disposition, tombstones) = struck.admit(rec);
            assert!(matches!(disposition, Disposition::Served { .. }), "{disposition:?}");
            assert!(tombstones.is_empty(), "the retry on revived cells must agree");
        }
        assert_eq!(struck.counters.divergences, 1);
        assert_eq!(struck.counters.divergent_masked, 0, "two cells cannot out-vote each other");
        assert_eq!(struck.counters.revivals, 1, "one untrusted delivery, one retry");
        assert_eq!(stats_json(&clean.finish(true)), stats_json(&struck.finish(true)));
    }

    #[test]
    fn a_rejuvenation_at_a_checkpoint_replays_nothing() {
        let cfg = quick_cfg();
        let records: Vec<IngressRecord> =
            (0..8u64).map(|s| req(s, false, benign_request(s as u8, 0x55))).collect();
        let (clean, _) = ShardRunner::from_log(cfg.clone(), 0, records.clone(), None).unwrap();
        let guard = ScratchDir::new("runner-rejuvenate").unwrap();
        let mut writer = SnapshotStore::create(guard.path()).unwrap().shard_writer(0).unwrap();
        let (mut runner, _) =
            ShardRunner::replicated(cfg, 0, 1, Some(4), Vec::new(), None).unwrap();
        for rec in records {
            runner.admit(rec);
            if runner.next_seq().is_multiple_of(4) {
                runner.checkpoint(&mut writer).unwrap();
            }
            runner.rejuvenate();
        }
        assert_eq!(runner.counters.rejuvenations, 2);
        assert_eq!(runner.counters.revive_replayed, 0, "each restores the checkpoint just taken");
        assert_eq!(stats_json(&clean.finish(true)), stats_json(&runner.finish(true)));
    }

    #[test]
    fn a_revival_replays_the_tail_honouring_logged_tombstones() {
        let cfg = quick_cfg();
        let mut records: Vec<IngressRecord> =
            (0..4u64).map(|s| req(s, false, benign_request(s as u8, 0x99))).collect();
        records.push(tombstone(1));
        let (straight, _) = ShardRunner::from_log(cfg.clone(), 0, records.clone(), None).unwrap();
        let last = records.remove(3);
        let (mut runner, _) = ShardRunner::replicated(cfg, 0, 1, Some(4), records, None).unwrap();
        runner.admit(last);
        assert!(runner.rejuvenate(), "cursor 4 is a rejuvenation point");
        assert_eq!(runner.counters.revive_replayed, 4, "no checkpoint: a fresh cell replays all");
        let revived = runner.finish(true);
        assert_eq!(revived.report.quarantined, vec![1]);
        assert_eq!(stats_json(&straight.finish(true)), stats_json(&revived));
    }

    /// Plants a jump-to-self at `parse`, which every request calls,
    /// through the loader's privileged write (the code page unprotected
    /// for the write alone): no trace event, so the monitor never sees
    /// it. Every later delivery spins out its step budget and the cell
    /// votes dead.
    fn plant_spin(cell: &mut ReplicaCell, cfg: &EngineConfig) {
        let parse = build_app_scaled(cfg.app, cfg.scale).addr_of("parse").expect("parse symbol");
        let spin = Instruction::Jal { rd: Reg::ZERO, offset: 0 }.encode().expect("encodes");
        let vpn = parse >> indra_mem::PAGE_SHIFT;
        let sys = cell.system_mut();
        let core = sys.service_cores()[0];
        let machine = sys.machine_mut();
        let asid = machine.core(core).asid();
        let space = machine.space_mut(asid).expect("service address space");
        let pte = space.pte(vpn).expect("parse is mapped");
        space.protect(vpn, pte.read, true, pte.execute);
        assert!(machine.write_virtual_u32(asid, parse, spin), "the plant must land");
        let space = machine.space_mut(asid).expect("service address space");
        space.protect(vpn, pte.read, pte.write, pte.execute);
    }

    fn tombstone(seq: u64) -> IngressRecord {
        IngressRecord {
            seq,
            kind: IngressKind::Quarantine,
            request_id: 0,
            malicious: false,
            data: Vec::new(),
        }
    }

    #[test]
    fn k1_death_is_retried_on_a_revived_cell() {
        let cfg = quick_cfg();
        let records: Vec<IngressRecord> =
            (0..4u64).map(|s| req(s, false, benign_request(s as u8, 0x66))).collect();
        let (clean, _) = ShardRunner::from_log(cfg.clone(), 0, records.clone(), None).unwrap();
        let mut live = ShardRunner::new(cfg.clone(), 0).unwrap();
        let mut cycles = Vec::new();
        for rec in records {
            if rec.seq == 2 {
                plant_spin(&mut live.cells_mut()[0], &cfg);
            }
            let (disposition, fresh) = live.admit(rec);
            let Disposition::Served { cycles: c } = disposition else {
                panic!("the retry must serve: {disposition:?}");
            };
            cycles.push(c);
            assert!(fresh.is_empty(), "the revived cell has no plant, so the retry serves");
        }
        assert_eq!(live.counters.revivals, 1, "one death, one retry");
        let live = live.finish(true);
        let sampled: Vec<u64> = live.report.samples.iter().map(|s| s.cycles).collect();
        assert_eq!(cycles, sampled, "each reply carries its request's latency");
        assert_eq!(stats_json(&clean.finish(true)), stats_json(&live));
    }

    #[test]
    fn k1_death_twice_tombstones_and_replays_byte_for_byte() {
        let cfg = quick_cfg();
        let guard = ScratchDir::new("runner-k1-death").unwrap();
        let mut writer = SnapshotStore::create(guard.path()).unwrap().shard_writer(0).unwrap();
        let mut live = ShardRunner::new(cfg.clone(), 0).unwrap();
        let mut log = Vec::new();
        let mut planted = None;
        for rec in (0..3u64).map(|s| req(s, false, benign_request(s as u8, 0x77))) {
            if rec.seq == 2 {
                // Checkpointed, the plant survives the revival: the
                // retry dies too.
                plant_spin(&mut live.cells_mut()[0], &cfg);
                live.checkpoint(&mut writer).unwrap();
                planted = Some(live.freeze());
            }
            log.push(rec.clone());
            let (disposition, fresh) = live.admit(rec.clone());
            assert_eq!(disposition == Disposition::Quarantined, rec.seq == 2, "{disposition:?}");
            log.extend(fresh.into_iter().map(tombstone));
        }
        assert_eq!(live.counters.revivals, 2, "death, revival, death again");
        assert_eq!(live.quarantined(), 1);
        let live_stats = stats_json(&live.finish(true));

        // The logged tombstone is honoured without a delivery.
        let (replayed, fresh) = ShardRunner::from_log(cfg.clone(), 0, log.clone(), None).unwrap();
        assert!(fresh.is_empty(), "a logged tombstone is not decided again");
        let replayed = replayed.finish(true);
        assert_eq!(replayed.report.quarantined, vec![2]);
        assert_eq!(stats_json(&replayed), live_stats);

        // Without it, the vote quarantines the killer again from the
        // planted checkpoint and hands the new tombstone back.
        log.retain(|r| r.kind == IngressKind::Request);
        let (recovered, fresh) = ShardRunner::from_log(cfg, 0, log, planted).unwrap();
        assert_eq!(fresh, vec![2]);
        assert_eq!(stats_json(&recovered.finish(true)), live_stats);
    }

    #[test]
    fn k3_dead_majority_is_untrusted_and_tombstoned() {
        let cfg = quick_cfg();
        let guard = ScratchDir::new("runner-k3-dead").unwrap();
        let mut writer = SnapshotStore::create(guard.path()).unwrap().shard_writer(0).unwrap();
        let (mut runner, _) =
            ShardRunner::replicated(cfg.clone(), 0, 3, None, Vec::new(), None).unwrap();
        for rec in (0..2u64).map(|s| req(s, false, benign_request(s as u8, 0x88))) {
            runner.admit(rec);
        }
        for cell in &mut runner.cells_mut()[..2] {
            plant_spin(cell, &cfg);
        }
        runner.checkpoint(&mut writer).unwrap();
        let (disposition, fresh) = runner.admit(req(2, false, benign_request(2, 0x88)));
        assert_eq!(disposition, Disposition::Quarantined);
        assert_eq!(fresh, vec![2]);
        assert_eq!(runner.counters.divergences, 1, "the live minority votes apart");
        assert_eq!(runner.counters.divergent_masked, 0, "a dead majority masks nothing");
        assert_eq!(runner.counters.revivals, 2, "untrusted, revived, untrusted again");
    }
}
