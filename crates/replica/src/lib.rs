#![warn(missing_docs)]
//! # indra-replica — replicated cells, divergence voting, rejuvenation
//!
//! The paper's architecture detects *monitored* failure modes: the
//! trace monitor sees control-flow and pointer violations because they
//! pass through instrumented paths. A corruption that never crosses a
//! monitored path — a flipped bit in a resident page, silently planted
//! — is invisible to it. This crate adds the classic systems answer,
//! adapted to the repo's determinism contract: run K byte-for-byte
//! deterministic replicas of each logical shard, feed them the
//! identical admitted request stream, and vote after every request on
//! (verdict, output hash, state digest). Under determinism, *any*
//! disagreement is a detection.
//!
//! * [`digest`] — incremental state digests (a word-at-a-time fold
//!   chained per persist-codec section + per resident frame, each frame
//!   re-hashed only when its write epoch moves).
//! * [`cell`] — one replica: an [`indra_fleet::ShardEngine`] plus its
//!   digest cache, driven closed-loop, one request per ballot.
//! * [`runner`] — [`ShardRunner`], the one closed-loop shard runner:
//!   K ≥ 1 cells over one admitted log, one vote (a live strict
//!   majority is trusted; anything else revives every cell and retries
//!   once, then tombstones) and one revival routine (the checkpoint the
//!   runner itself wrote, then the log tail) shared by death-retry,
//!   masking, rejuvenation and startup. `fleetd` and its replay drive
//!   it too.
//! * [`fleet`] — the fleet-shaped entry point
//!   ([`run_fleet_replicated`]) whose [`indra_fleet::FleetStats`]
//!   remain a pure function of the config: stealth corruption at
//!   K ≥ 2 leaves them byte-identical to an undisturbed run.
//! * [`bench`] — the `BENCH_replica.json` sweep: detection rate and
//!   wall overhead at K = 1/2/3 and a rejuvenation-cadence sweep.

pub mod bench;
pub mod cell;
pub mod digest;
pub mod fleet;
pub mod runner;

pub use bench::replica_bench_json;
pub use cell::ReplicaCell;
pub use digest::{word_fold, word_fold_u64, DigestCache, StateDigest, FOLD_SEED};
pub use fleet::{run_fleet_replicated, ReplicaOptions};
pub use runner::{read_cursor, Disposition, GroupCounters, ShardRunner};
