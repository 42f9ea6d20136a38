#![warn(missing_docs)]
//! # indra-replica — replicated cells, divergence voting, rejuvenation
//!
//! The paper's architecture detects *monitored* failure modes: the
//! trace monitor sees control-flow and pointer violations because they
//! pass through instrumented paths. A corruption that never crosses a
//! monitored path — a flipped bit in a resident page, silently planted
//! — is invisible to it. The classic systems answer, adapted to the
//! repo's determinism contract: run K byte-for-byte deterministic
//! replicas of each logical shard, feed them the identical admitted
//! request stream, and vote after every request on (verdict, output
//! hash, state digest). Under determinism, *any* disagreement is a
//! detection.
//!
//! The machinery lives in `indra-fleet`, because every fleet shard runs
//! through it: [`ShardRunner`] (K ≥ 1 [`ReplicaCell`]s over one admitted
//! log, one vote, one revival routine), the [`DigestCache`] state
//! digests, and [`run_fleet_replicated`], whose
//! [`indra_fleet::FleetStats`] stay byte-identical to an undisturbed run
//! under stealth corruption at K ≥ 2. This crate re-exports them and
//! adds [`mod@bench`], the `BENCH_replica.json` sweep: detection rate and
//! wall overhead at K = 1/2/3 and a rejuvenation-cadence sweep.

pub mod bench;

pub use bench::replica_bench_json;
pub use indra_fleet::{
    read_cursor, run_fleet_replicated, word_fold, word_fold_u64, DigestCache, Disposition,
    GroupCounters, ReplicaCell, ReplicaOptions, ShardRunner, StateDigest, FOLD_SEED,
};
