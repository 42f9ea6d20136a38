//! `indra-persist` — durable snapshot store and write-ahead delta
//! journal for crash-safe fleet resume.
//!
//! The INDRA determinism contract makes a run's `FleetStats` a pure
//! function of its `FleetConfig`; this crate extends that contract
//! across process death. A frozen [`indra_core::SystemState`] is a
//! *total* capture — cache and TLB warmth, DRAM open rows, trace FIFO,
//! monitor shadow stacks, backup-scheme bitvectors, OS tables, the run
//! report — so a system thawed from a checkpoint replays the remaining
//! requests cycle-for-cycle identically to the uninterrupted run.
//!
//! Three layers:
//!
//! * **wire / codec** — a length-checked little-endian encoding of the
//!   full system state, deterministic byte-for-byte (equal states →
//!   equal bytes), with the physical page frames split out so they can
//!   be delta-journaled.
//! * **snapshot / journal** — the file formats: a versioned, per-section
//!   CRC-protected full snapshot (`base.snap`, magic `INDRASNP`) and an
//!   append-only record journal (`journal.wal`, magic `INDRAJNL`) that
//!   tolerates a torn tail after a crash.
//! * **store** — the on-disk layout (`fleet.meta` + `shard-NNNN/`
//!   directories), the atomic temp-file-and-rename protocol, the
//!   frame-diff checkpoint writer and journal-replay recovery.
//!
//! Everything is in-tree: no serialization or checksum crates, matching
//! the fully-offline container build.

#![warn(missing_docs)]

mod codec;
mod crc;
mod error;
mod ingress;
mod journal;
mod scratch;
mod snapshot;
mod store;
mod wire;

pub use codec::{decode_small_state, encode_small_state, encode_state_sections};
pub use crc::crc32;
pub use error::PersistError;
pub use ingress::{
    encode_ingress_header, encode_ingress_record, read_ingress_log, IngressKind,
    IngressLogContents, IngressRecord, IngressWriter, INGRESS_FILE, MAGIC_INGRESS,
};
pub use journal::{
    encode_journal_header, encode_record, read_journal, JournalRecord, MAGIC_JOURNAL,
};
pub use scratch::ScratchDir;
pub use snapshot::{decode_snapshot, encode_snapshot, Frame, FORMAT_VERSION, MAGIC_SNAPSHOT};
pub use store::{
    CheckpointReceipt, LoadedShard, ShardCheckpointWriter, SnapshotStore, BASE_FILE, JOURNAL_FILE,
    MAGIC_META, META_FILE,
};
pub use wire::{WireReader, WireResult, WireWriter};
