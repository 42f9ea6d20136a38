//! Append-only per-shard ingress log for the service daemon.
//!
//! The live control plane (`crates/serve`) admits requests that arrive
//! over a socket — traffic that, unlike the batch executor's schedules,
//! is *not* a pure function of any seed. Determinism is recovered by
//! write-ahead logging: every admitted request is appended here
//! *before* it is delivered into the simulated system, so the log is
//! the authoritative replayable history. Feeding the same log back
//! through the same engine reproduces the run byte-for-byte.
//!
//! Layout (same framing discipline as the delta journal):
//!
//! ```text
//! "INDRAILG"        8-byte magic
//! version: u32      FORMAT_VERSION
//! shard: u32        owning shard index
//! record*           u32 payload_len | u32 crc32(payload) | payload
//! ```
//!
//! A crash mid-append leaves a torn tail; [`read_ingress_log`] stops at
//! the first record whose length runs past the end of the file or whose
//! CRC fails, and returns the valid prefix. A torn tail is the expected
//! shape of a killed daemon, not an error — the torn request was never
//! answered, so dropping it keeps the at-most-once admission contract.

use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::path::Path;

use crate::snapshot::{read_header, FORMAT_VERSION};
use crate::{crc32, PersistError, WireReader, WireWriter};

/// Magic bytes opening every ingress log file.
pub const MAGIC_INGRESS: &[u8; 8] = b"INDRAILG";

/// Default file name of a shard's ingress log.
pub const INGRESS_FILE: &str = "ingress.log";

/// What one ingress record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressKind {
    /// An admitted client request (the payload bytes follow).
    Request,
    /// A quarantine tombstone: the request at `seq` proved poisonous
    /// (killed its shard twice) and replay must skip it.
    Quarantine,
}

/// One entry of a shard's admitted-request history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngressRecord {
    /// Admission sequence number. `Request` records carry their own
    /// (strictly increasing) seq; a `Quarantine` tombstone names the
    /// seq of the request it retroactively poisons.
    pub seq: u64,
    /// Record type.
    pub kind: IngressKind,
    /// Wire-protocol request id (client-chosen; echoing only).
    pub request_id: u64,
    /// Ground-truth malicious tag as declared by the load generator.
    pub malicious: bool,
    /// Raw request payload (empty for tombstones).
    pub data: Vec<u8>,
}

/// Encodes the log file header.
#[must_use]
pub fn encode_ingress_header(shard: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(MAGIC_INGRESS);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out
}

/// Encodes one record (length prefix + CRC + payload), ready to append.
#[must_use]
pub fn encode_ingress_record(rec: &IngressRecord) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(rec.seq);
    w.u8(match rec.kind {
        IngressKind::Request => 0,
        IngressKind::Quarantine => 1,
    });
    w.u64(rec.request_id);
    w.bool(rec.malicious);
    w.bytes(&rec.data);
    let payload = w.finish();

    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&u32::try_from(payload.len()).expect("record too large").to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8]) -> Result<IngressRecord, PersistError> {
    let mut r = WireReader::new(payload);
    let seq = r.u64("ingress seq")?;
    let kind = match r.u8("ingress kind")? {
        0 => IngressKind::Request,
        1 => IngressKind::Quarantine,
        _ => return Err(PersistError::Corrupt { context: "unknown ingress kind" }),
    };
    let request_id = r.u64("ingress request id")?;
    let malicious = r.bool("ingress malicious")?;
    let data = r.bytes("ingress data")?.to_vec();
    r.expect_exhausted("ingress trailing bytes")?;
    Ok(IngressRecord { seq, kind, request_id, malicious, data })
}

/// A parsed ingress log: its records plus the byte length of the valid
/// prefix (so a recovering writer can truncate a torn tail away before
/// appending).
#[derive(Debug)]
pub struct IngressLogContents {
    /// Shard index from the header.
    pub shard: u32,
    /// The longest valid record prefix, in append order.
    pub records: Vec<IngressRecord>,
    /// Bytes of `header + records` — everything past this is torn.
    pub valid_len: u64,
}

/// Parses an ingress log, tolerating a torn tail.
///
/// Mirrors [`crate::read_journal`]: a record that is truncated, fails
/// its CRC, or does not decode ends the scan cleanly and everything
/// before it is returned. A file shorter than the header is an empty
/// log (the header write itself may have been torn).
///
/// # Errors
///
/// [`PersistError::BadMagic`] / [`PersistError::UnsupportedVersion`]
/// only when the header bytes are present but foreign or damaged.
pub fn read_ingress_log(bytes: &[u8]) -> Result<IngressLogContents, PersistError> {
    if bytes.len() < 16 {
        if bytes.len() >= 8 && &bytes[..8] != MAGIC_INGRESS {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[..8]);
            return Err(PersistError::BadMagic { expected: MAGIC_INGRESS, found });
        }
        return Ok(IngressLogContents { shard: 0, records: Vec::new(), valid_len: 0 });
    }
    let mut r = WireReader::new(bytes);
    read_header(&mut r, MAGIC_INGRESS)?;
    let shard = r.u32("ingress shard")?;

    let mut records = Vec::new();
    let mut valid_len = (bytes.len() - r.remaining()) as u64;
    loop {
        if r.remaining() < 8 {
            break; // torn length/CRC prefix
        }
        let len = r.u32("ingress record length")? as usize;
        let stored = r.u32("ingress record crc")?;
        if len > r.remaining() {
            break; // torn payload
        }
        let payload = r.raw(len, "ingress record payload")?;
        if crc32(payload) != stored {
            break; // bit rot — stop at the last good record
        }
        match decode_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break, // CRC passed but the payload is malformed
        }
        valid_len = (bytes.len() - r.remaining()) as u64;
    }
    Ok(IngressLogContents { shard, records, valid_len })
}

/// Append-only writer for one shard's ingress log.
///
/// Records are written with `write_all` per append (no buffering), so a
/// process kill never loses an admitted request — only machine-level
/// power loss can, and the torn-tail reader absorbs that too.
/// [`IngressWriter::sync`] forces the file to disk at checkpoint and
/// drain boundaries.
#[derive(Debug)]
pub struct IngressWriter {
    file: File,
}

impl IngressWriter {
    /// Opens (or creates) the log at `path` for shard `shard`,
    /// truncating any torn tail so appends continue from the last valid
    /// record. Returns the writer plus the valid prefix already logged.
    ///
    /// # Errors
    ///
    /// I/O failure, or a foreign/corrupt header (wrong magic, wrong
    /// shard index, unsupported version).
    pub fn recover(
        path: &Path,
        shard: u32,
    ) -> Result<(IngressWriter, Vec<IngressRecord>), PersistError> {
        let existing = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        if existing.len() < 16 {
            // Fresh (or torn-header) log: rewrite the header from scratch.
            let mut file = File::create(path)?;
            file.write_all(&encode_ingress_header(shard))?;
            file.sync_all()?;
            return Ok((IngressWriter { file }, Vec::new()));
        }
        let contents = read_ingress_log(&existing)?;
        if contents.shard != shard {
            return Err(PersistError::Corrupt { context: "ingress log belongs to another shard" });
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(contents.valid_len)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok((IngressWriter { file }, contents.records))
    }

    /// Appends one record. Not synced — pair with [`IngressWriter::sync`]
    /// at durability boundaries.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn append(&mut self, rec: &IngressRecord) -> Result<(), PersistError> {
        self.file.write_all(&encode_ingress_record(rec))?;
        Ok(())
    }

    /// Forces everything appended so far to disk.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64) -> IngressRecord {
        IngressRecord {
            seq,
            kind: IngressKind::Request,
            request_id: 100 + seq,
            malicious: seq.is_multiple_of(3),
            data: vec![seq as u8; 5],
        }
    }

    fn log_with(records: &[IngressRecord], shard: u32) -> Vec<u8> {
        let mut bytes = encode_ingress_header(shard);
        for rec in records {
            bytes.extend_from_slice(&encode_ingress_record(rec));
        }
        bytes
    }

    #[test]
    fn roundtrip() {
        let recs = vec![
            req(0),
            IngressRecord {
                seq: 0,
                kind: IngressKind::Quarantine,
                request_id: 0,
                malicious: false,
                data: Vec::new(),
            },
            req(1),
        ];
        let bytes = log_with(&recs, 7);
        let got = read_ingress_log(&bytes).unwrap();
        assert_eq!(got.shard, 7);
        assert_eq!(got.records, recs);
        assert_eq!(got.valid_len, bytes.len() as u64);
    }

    #[test]
    fn torn_tail_returns_valid_prefix() {
        let recs = vec![req(0), req(1)];
        let full = log_with(&recs, 0);
        let first_len = log_with(&recs[..1], 0).len();
        for cut in first_len..full.len() {
            let got = read_ingress_log(&full[..cut]).unwrap();
            assert_eq!(got.records, recs[..1], "cut at {cut}");
            assert_eq!(got.valid_len, first_len as u64, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_record_stops_scan() {
        let recs = vec![req(0), req(1)];
        let mut bytes = log_with(&recs, 0);
        let first_len = log_with(&recs[..1], 0).len();
        bytes[first_len + 10] ^= 0xFF;
        assert_eq!(read_ingress_log(&bytes).unwrap().records, recs[..1]);
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        let err = read_ingress_log(b"NOTANILGxxxxxxxx").unwrap_err();
        assert!(matches!(err, PersistError::BadMagic { .. }));
    }

    #[test]
    fn recover_truncates_torn_tail_and_appends_cleanly() {
        let dir = crate::ScratchDir::new("ingress").unwrap();
        let path = dir.path().join(INGRESS_FILE);

        let (mut w, prior) = IngressWriter::recover(&path, 3).unwrap();
        assert!(prior.is_empty());
        w.append(&req(0)).unwrap();
        w.append(&req(1)).unwrap();
        w.sync().unwrap();
        drop(w);

        // Tear the tail: chop 3 bytes off the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut w, prior) = IngressWriter::recover(&path, 3).unwrap();
        assert_eq!(prior, vec![req(0)]);
        w.append(&req(1)).unwrap();
        w.sync().unwrap();
        drop(w);

        let got = read_ingress_log(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(got.records, vec![req(0), req(1)]);

        // Wrong shard is a typed error.
        assert!(IngressWriter::recover(&path, 4).is_err());
    }
}
