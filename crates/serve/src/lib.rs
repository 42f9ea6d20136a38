#![warn(missing_docs)]
//! # indra-serve — a live control-plane daemon over the INDRA fleet
//!
//! The paper frames INDRA as infrastructure for *network services*:
//! resurrector cores supervising resurrectee cores that face real,
//! possibly hostile, traffic. The batch fleet (`indra-fleet`) drives
//! that shape from a pre-computed schedule; this crate closes the loop
//! with an actual server. `fleetd` owns a supervised fleet of shards —
//! each a complete [`indra_core::IndraSystem`] — and serves requests
//! arriving over a TCP socket in a length-prefixed, CRC-guarded binary
//! protocol ([`proto`]). An acceptor thread validates frames into typed
//! requests and routes them to per-shard bounded ingress queues;
//! admission control rejects (with a typed frame, never by buffering
//! unboundedly) when every queue is at its high-water mark. Control
//! frames (`STATS`, `HEALTH`, `DRAIN`, `SCALE`, `SHUTDOWN`) expose and
//! steer supervision state while traffic is in flight.
//!
//! ## Determinism contract (record/replay)
//!
//! A live service cannot be a pure function of a seed — clients decide
//! what arrives and when. Instead, every *admitted* request is appended
//! to a durable per-shard ingress log (`indra-persist` journal framing)
//! **before** it is delivered to the simulated system, and each shard's
//! simulated trajectory is, by construction, a pure function of that
//! ordered log ([`ShardRunner`], the one shard runner, which lives in
//! `indra-fleet` and also runs the `--replicas K` vote).
//! `fleetd --replay <state-dir>` therefore
//! reproduces the live run's [`indra_fleet::FleetStats`] byte for byte
//! — including runs interrupted by `kill -9`, revived shards, and
//! quarantined poison requests — which is what makes a production
//! incident on this architecture *debuggable after the fact*.
//!
//! The open-loop [`loadgen`] drives a daemon at swept offered loads
//! with a benign + exploit mix and records the latency-vs-load curve,
//! saturation knee and rejection rates.

pub mod args;
pub mod daemon;
pub mod loadgen;
pub mod proto;
pub mod replay;
pub mod signal;

pub use args::{
    parse_fleetd_args, parse_loadgen_args, FleetdArgs, LoadgenArgs, FLEETD_USAGE, LOADGEN_USAGE,
};
pub use daemon::{Daemon, ServeConfig, ServeError, ServeReport};
pub use indra_fleet::engine::{decode_engine_meta, encode_engine_meta, EngineConfig, ShardEngine};
pub use indra_fleet::{Disposition, ShardRunner};
pub use loadgen::{run_loadgen, LoadgenReport, SweepPoint};
pub use proto::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, FrameError, HealthReply,
    RejectReason, Verdict, MAX_FRAME, MAX_REQUEST_DATA,
};
pub use replay::{replay_state_dir, ReplayOutcome};
pub use signal::install_shutdown_handler;
