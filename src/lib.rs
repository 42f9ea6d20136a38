#![warn(missing_docs)]
//! # indra — a dependable and revivable multicore architecture framework
//!
//! A comprehensive Rust reproduction of *"An Integrated Framework for
//! Dependable and Revivable Architectures Using Multicore Processors"*
//! (Shi, Lee, Falk & Ghosh — ISCA 2006).
//!
//! INDRA configures a multicore asymmetrically: a high-privilege
//! **resurrector** core runs a software monitor insulated from the network,
//! while low-privilege **resurrectee** cores run services. The resurrector
//! inspects execution traces streamed over an on-chip FIFO (function
//! call/return pairing, code-origin checks at IL1 fill, control-transfer
//! policy) and, on detecting corruption, triggers a **delta-page rollback**
//! that undoes everything the malicious request wrote — without copying
//! pages and without dropping the requests of well-behaved clients.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — the IR32 instruction set, assembler and program builder.
//! * [`analyze`] — static CFG recovery, CFI policy verification and the
//!   guest-binary lint pass; [`analyze::tighten`] derives the
//!   declared-∩-proven policy the loader registers with the monitor.
//! * [`mem`] — caches, TLBs, SDRAM timing, physical memory.
//! * [`sim`] — cycle-accounting cores, the asymmetric machine, trace FIFO,
//!   CAM filter, memory watchdog.
//! * [`os`] — the kernel-lite: syscalls, processes, network queue,
//!   resource tracking.
//! * [`core`] — the paper's contribution: monitor, delta backup engine,
//!   baseline checkpointing schemes, hybrid recovery, the [`core::IndraSystem`]
//!   top-level driver.
//! * [`workloads`] — the six synthetic network services and the exploit
//!   generators used by the evaluation.
//! * [`redteam`] — the coverage-guided offensive campaign: seeded
//!   mutation of CFI-respecting attack payloads (JOP plants, smashed
//!   returns, dormant corruption, exhaustion) scored by detection
//!   latency, with minimized winners pinned as the regression corpus
//!   under `corpus/redteam/`.
//! * [`fleet`] — the sharded parallel fleet executor: many independent
//!   INDRA cells across OS threads, each fed a deterministic traffic
//!   schedule through the one shard runner (K ≥ 1 voting replicas),
//!   aggregated into one fleet-wide report.
//! * [`serve`] — the live control plane: the `fleetd` daemon serving
//!   fleet traffic over a real TCP socket (bounded admission, live
//!   scale/drain, graceful shutdown) with deterministic record/replay
//!   from per-shard ingress logs, plus the open-loop `loadgen`.
//! * [`persist`] — the durable snapshot store and write-ahead delta
//!   journal: crash-safe checkpointing of whole frozen systems, and
//!   byte-identical fleet resume after a kill (see
//!   [`fleet::resume_fleet`]).
//! * [`bench`] — the experiment harness regenerating the paper's
//!   tables and figures, plus the shared latency [`bench::Histogram`].
//! * [`rng`] — the in-tree deterministic PRNG (seed-derivation,
//!   property-test driver) the workspace uses instead of external
//!   `rand`/`proptest`.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete tour: build a service, boot
//! the asymmetric machine, serve requests, survive an exploit — and
//! `examples/fleet_parallel.rs` for a six-app fleet surviving an attack
//! wave.

pub use indra_analyze as analyze;
pub use indra_bench as bench;
pub use indra_core as core;
pub use indra_fleet as fleet;
pub use indra_isa as isa;
pub use indra_mem as mem;
pub use indra_os as os;
pub use indra_persist as persist;
pub use indra_redteam as redteam;
pub use indra_rng as rng;
pub use indra_serve as serve;
pub use indra_sim as sim;
pub use indra_workloads as workloads;
