//! The append-only, CRC-framed write-ahead commit log.
//!
//! On disk the log is a sequence of frames:
//!
//! ```text
//! u32 LE  body length
//! u32 LE  CRC-32 over the body
//! ..      body = Wire encoding of one CommitRecord (leading version byte)
//! ```
//!
//! A record is appended (and fsynced) *before* the round it describes is
//! acknowledged to anyone — announced to peers or replied to a client —
//! so every acknowledged round is recoverable after a crash.
//!
//! Recovery is tolerant of the failure modes an append-only file actually
//! has: a torn final frame (crash mid-write), a truncated tail, and
//! bit rot anywhere — scanning stops at the first frame whose length is
//! implausible, whose CRC mismatches, or whose body fails to decode, and
//! the file is repaired by truncating back to the last valid frame. The
//! recovered prefix is exactly "the last valid round" the node can trust.

use crate::crc::crc32;
use csm_transport::{Wire, WireReader};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Format version carried at the head of every record body. Only this
/// version decodes: no log written under versions 1 or 2 (before the
/// `protocol` byte and `batch_cap`) was ever deployed, so they are
/// rejected like any other unknown version.
pub const RECORD_VERSION: u8 = 3;

/// [`CommitRecord::protocol`]: the batch was agreed by the leader-echo
/// `Stage` quorum.
pub const PROTOCOL_LEADER_ECHO: u8 = 0;
/// [`CommitRecord::protocol`]: the batch was agreed by Dolev–Strong
/// authenticated broadcast.
pub const PROTOCOL_DOLEV_STRONG: u8 = 1;
/// [`CommitRecord::protocol`]: the batch was agreed by the PBFT
/// three-phase protocol.
pub const PROTOCOL_PBFT: u8 = 2;

/// Upper bound on one record body; larger length prefixes are treated as
/// corruption (64 MiB, matching the transport's frame cap).
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// One committed round, as logged before acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committed round number.
    pub round: u64,
    /// The round's commit digest (what honest nodes gossip).
    pub digest: u64,
    /// The agreed command batch, in `Stage`-row wire form
    /// (`[client, seq, shard, sig_tag, command...]` per row).
    pub batch: Vec<Vec<u64>>,
    /// Canonical encoding of this node's coded-state delta for the round:
    /// `new_coded_state − old_coded_state`, coordinate-wise in the field.
    pub state_delta: Vec<u64>,
    /// Which batch-consensus backend agreed the batch
    /// ([`PROTOCOL_LEADER_ECHO`] / [`PROTOCOL_DOLEV_STRONG`] /
    /// [`PROTOCOL_PBFT`]) — an audit can tell which agreement path every
    /// acknowledged round took, and a recovery can flag rounds committed
    /// under a weaker synchrony assumption than the cluster now runs.
    pub protocol: u8,
    /// The per-shard program cap (`batch_cap`) the gateway was agreeing
    /// batches under when this round committed. The batch rows carry the
    /// full agreed program; the cap lets an audit check every logged
    /// round respected the configured bound.
    pub batch_cap: u32,
}

impl Wire for CommitRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        RECORD_VERSION.encode(out);
        self.round.encode(out);
        self.digest.encode(out);
        self.batch.encode(out);
        self.state_delta.encode(out);
        self.protocol.encode(out);
        self.batch_cap.encode(out);
    }

    fn encoded_len(&self) -> usize {
        RECORD_VERSION.encoded_len()
            + self.round.encoded_len()
            + self.digest.encoded_len()
            + self.batch.encoded_len()
            + self.state_delta.encoded_len()
            + self.protocol.encoded_len()
            + self.batch_cap.encoded_len()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, csm_transport::WireError> {
        let version = u8::decode(r)?;
        if version != RECORD_VERSION {
            return Err(csm_transport::WireError::UnknownTag(version));
        }
        Ok(CommitRecord {
            round: u64::decode(r)?,
            digest: u64::decode(r)?,
            batch: Vec::<Vec<u64>>::decode(r)?,
            state_delta: Vec::<u64>::decode(r)?,
            protocol: u8::decode(r)?,
            batch_cap: u32::decode(r)?,
        })
    }
}

/// An open write-ahead log positioned for appends.
#[derive(Debug)]
pub struct WriteAheadLog {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
}

/// What [`WriteAheadLog::recover`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// The valid record prefix, in append order.
    pub records: Vec<CommitRecord>,
    /// Whether trailing bytes were discarded (torn/corrupt tail repaired
    /// by truncation).
    pub torn_tail: bool,
}

impl WriteAheadLog {
    /// Opens (creating if absent) the log at `path`, scans the valid
    /// record prefix, and repairs a torn or corrupt tail by truncating
    /// back to the last valid frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; corruption is *not* an error — it is
    /// repaired and reported via [`WalRecovery::torn_tail`].
    pub fn recover(path: &Path) -> io::Result<(Self, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut valid = 0usize;
        loop {
            let rest = &bytes[valid..];
            if rest.is_empty() {
                break;
            }
            let Some(frame_len) = frame_at(rest) else {
                break; // torn or corrupt: stop at the last valid frame
            };
            let body = &rest[8..frame_len];
            match CommitRecord::from_bytes(body) {
                Ok(rec) => {
                    records.push(rec);
                    valid += frame_len;
                }
                Err(_) => break,
            }
        }
        let torn_tail = valid < bytes.len();
        if torn_tail {
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        let wal = WriteAheadLog {
            file,
            path: path.to_path_buf(),
            bytes: valid as u64,
            records: records.len() as u64,
        };
        Ok((wal, WalRecovery { records, torn_tail }))
    }

    /// Appends one record and fsyncs, so the round it describes survives
    /// a crash the instant this returns.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures, and refuses a record encoding
    /// past [`MAX_RECORD_BYTES`] — recovery treats such a frame as
    /// corruption, so logging it would mean acknowledging a round the
    /// next recovery silently truncates away. Either way the caller must
    /// not acknowledge the round.
    pub fn append(&mut self, rec: &CommitRecord) -> io::Result<()> {
        let body = rec.to_bytes();
        if body.len() > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "commit record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap recovery enforces",
                    body.len()
                ),
            ));
        }
        let mut frame = Vec::with_capacity(8 + body.len());
        u32::try_from(body.len())
            .expect("record fits u32")
            .encode(&mut frame);
        crc32(&body).encode(&mut frame);
        frame.extend_from_slice(&body);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Truncates the log to empty — called after a snapshot covering every
    /// logged round has been durably installed.
    ///
    /// # Errors
    ///
    /// Propagates truncate/fsync failures.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(0))?;
        self.bytes = 0;
        self.records = 0;
        Ok(())
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended since the last reset (or recovered at open).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// If `rest` starts with one complete, CRC-valid frame, its total length
/// (header + body); `None` on truncation, an implausible length, or a CRC
/// mismatch.
fn frame_at(rest: &[u8]) -> Option<usize> {
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_BYTES || rest.len() < 8 + len {
        return None;
    }
    let stored_crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    let body = &rest[8..8 + len];
    if crc32(body) != stored_crc {
        return None;
    }
    Some(8 + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u64) -> CommitRecord {
        CommitRecord {
            round,
            digest: round.wrapping_mul(0x9E37),
            batch: vec![vec![8, round, 0, 1, 42]],
            state_delta: vec![round + 1, round + 2],
            protocol: PROTOCOL_LEADER_ECHO,
            batch_cap: 1,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csm-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.csm")
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = tmp("roundtrip");
        let (mut wal, r0) = WriteAheadLog::recover(&path).unwrap();
        assert!(r0.records.is_empty() && !r0.torn_tail);
        for round in 0..5 {
            wal.append(&rec(round)).unwrap();
        }
        drop(wal);
        let (wal, r1) = WriteAheadLog::recover(&path).unwrap();
        assert_eq!(r1.records, (0..5).map(rec).collect::<Vec<_>>());
        assert!(!r1.torn_tail);
        assert_eq!(wal.records(), 5);
    }

    #[test]
    fn torn_tail_is_repaired_and_appendable() {
        let path = tmp("torn");
        let (mut wal, _) = WriteAheadLog::recover(&path).unwrap();
        for round in 0..3 {
            wal.append(&rec(round)).unwrap();
        }
        let full = wal.bytes();
        drop(wal);
        // tear the last frame in half
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let (mut wal, r) = WriteAheadLog::recover(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records, vec![rec(0), rec(1)]);
        // the repaired log accepts new appends and recovers them
        wal.append(&rec(2)).unwrap();
        drop(wal);
        let (_, r2) = WriteAheadLog::recover(&path).unwrap();
        assert_eq!(r2.records, vec![rec(0), rec(1), rec(2)]);
        assert!(!r2.torn_tail);
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_last_valid_round() {
        let path = tmp("flip");
        let (mut wal, _) = WriteAheadLog::recover(&path).unwrap();
        for round in 0..4 {
            wal.append(&rec(round)).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2; // lands inside record 1 or 2
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, r) = WriteAheadLog::recover(&path).unwrap();
        assert!(r.torn_tail);
        assert!(r.records.len() < 4);
        for (i, got) in r.records.iter().enumerate() {
            assert_eq!(*got, rec(i as u64));
        }
    }

    #[test]
    fn oversized_record_refused_not_logged() {
        // a record recovery would discard as corruption must be refused
        // at append time — never fsynced and then silently truncated
        let path = tmp("oversize");
        let (mut wal, _) = WriteAheadLog::recover(&path).unwrap();
        let huge = CommitRecord {
            round: 0,
            digest: 0,
            batch: vec![],
            state_delta: vec![0u64; MAX_RECORD_BYTES / 8 + 1],
            protocol: PROTOCOL_LEADER_ECHO,
            batch_cap: 1,
        };
        let err = wal.append(&huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(wal.bytes(), 0, "nothing was written");
        wal.append(&rec(1)).unwrap();
        drop(wal);
        let (_, r) = WriteAheadLog::recover(&path).unwrap();
        assert_eq!(r.records, vec![rec(1)]);
        assert!(!r.torn_tail);
    }

    #[test]
    fn older_record_versions_are_rejected() {
        // a v2 body is the v3 encoding minus the trailing batch_cap u32,
        // a v1 body additionally drops the protocol byte: neither was
        // ever deployed, so both are corruption like any unknown version
        let modern = rec(3);
        let mut v2_body = modern.to_bytes();
        assert_eq!(v2_body[0], RECORD_VERSION);
        v2_body[0] = 2;
        v2_body.truncate(v2_body.len() - 4);
        let mut v1_body = v2_body.clone();
        v1_body[0] = 1;
        v1_body.pop();
        let mut v9 = modern.to_bytes();
        v9[0] = 9;
        for (version, body) in [(2, v2_body), (1, v1_body), (9, v9)] {
            assert!(
                matches!(
                    CommitRecord::from_bytes(&body),
                    Err(csm_transport::WireError::UnknownTag(v)) if v == version
                ),
                "version {version} must be rejected as an unknown tag"
            );
        }
    }

    #[test]
    fn reset_truncates() {
        let path = tmp("reset");
        let (mut wal, _) = WriteAheadLog::recover(&path).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(&rec(9)).unwrap();
        drop(wal);
        let (_, r) = WriteAheadLog::recover(&path).unwrap();
        assert_eq!(r.records, vec![rec(9)]);
    }
}
