//! Coded-state snapshots: the full coded word at a round boundary, bound
//! to the coded machine's codebook fingerprint.
//!
//! A snapshot file is one CRC-framed record (`[u32 len][u32 crc][body]`,
//! like a WAL frame) written **atomically**: the bytes go to a temp file,
//! are fsynced, and are renamed over the live snapshot — a crash leaves
//! either the old snapshot or the new one, never a torn mix. Only after
//! the rename (and a best-effort directory fsync) may the write-ahead log
//! be truncated, so `snapshot + log` always covers every acknowledged
//! round.

use crate::crc::crc32;
use csm_transport::{Wire, WireReader};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Format version carried at the head of the snapshot body.
pub const SNAPSHOT_VERSION: u8 = 1;

/// A durable coded-state checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the coded machine + node identity + genesis states
    /// this state was encoded under; a store opened against a different
    /// machine refuses to load.
    pub fingerprint: u64,
    /// The next round to execute: every round `< round` is folded into
    /// `coded_state`.
    pub round: u64,
    /// Canonical encoding of the node's coded state `u(α_i)`.
    pub coded_state: Vec<u64>,
    /// Per-client dedup horizons `(client, highest committed seq)` as of
    /// the snapshot round. Without these, a cluster-wide restart would
    /// forget which client commands already executed and a retry could
    /// re-execute — the coded state alone is not the whole durable state.
    pub horizons: Vec<(u64, u64)>,
}

impl Wire for Snapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        SNAPSHOT_VERSION.encode(out);
        self.fingerprint.encode(out);
        self.round.encode(out);
        self.coded_state.encode(out);
        self.horizons.encode(out);
    }

    fn encoded_len(&self) -> usize {
        SNAPSHOT_VERSION.encoded_len()
            + self.fingerprint.encoded_len()
            + self.round.encoded_len()
            + self.coded_state.encoded_len()
            + self.horizons.encoded_len()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, csm_transport::WireError> {
        let version = u8::decode(r)?;
        if version != SNAPSHOT_VERSION {
            return Err(csm_transport::WireError::UnknownTag(version));
        }
        Ok(Snapshot {
            fingerprint: u64::decode(r)?,
            round: u64::decode(r)?,
            coded_state: Vec::<u64>::decode(r)?,
            horizons: Vec::<(u64, u64)>::decode(r)?,
        })
    }
}

impl Snapshot {
    /// Writes the snapshot atomically to `path` (temp file + fsync +
    /// rename) and fsyncs the parent directory best-effort.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the previous snapshot (if any)
    /// is still intact.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let body = self.to_bytes();
        let mut frame = Vec::with_capacity(8 + body.len());
        u32::try_from(body.len())
            .expect("snapshot fits u32")
            .encode(&mut frame);
        crc32(&body).encode(&mut frame);
        frame.extend_from_slice(&body);

        let tmp = path.with_extension("tmp");
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&frame)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // directory fsync makes the rename itself durable; failure is
            // tolerated (not all filesystems support opening a directory)
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads the snapshot at `path`. `Ok(None)` when the file does not
    /// exist (a fresh store).
    ///
    /// # Errors
    ///
    /// A present-but-corrupt snapshot is an error (`InvalidData`): unlike
    /// a torn WAL tail, a bad snapshot cannot be safely skipped — the log
    /// it anchored was truncated, so silently restarting from genesis
    /// would fork the node's history.
    pub fn load(path: &Path) -> io::Result<Option<Snapshot>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => f.read_to_end(&mut bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let corrupt = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot {}: {what}", path.display()),
            )
        };
        if bytes.len() < 8 {
            return Err(corrupt("shorter than the frame header"));
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if bytes.len() != 8 + len {
            return Err(corrupt("frame length mismatch"));
        }
        let body = &bytes[8..];
        if crc32(body) != stored_crc {
            return Err(corrupt("CRC mismatch"));
        }
        let snap = Snapshot::from_bytes(body).map_err(|e| corrupt(&e.to_string()))?;
        Ok(Some(snap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csm-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snapshot.csm")
    }

    fn snap() -> Snapshot {
        Snapshot {
            fingerprint: 0xF1F2,
            round: 17,
            coded_state: vec![3, 1, 4, 1, 5],
            horizons: vec![(8, 3), (9, 0)],
        }
    }

    #[test]
    fn roundtrip_and_missing() {
        let path = tmp("roundtrip");
        assert_eq!(Snapshot::load(&path).unwrap(), None);
        snap().write(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), Some(snap()));
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let path = tmp("overwrite");
        snap().write(&path).unwrap();
        let newer = Snapshot {
            round: 40,
            ..snap()
        };
        newer.write(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), Some(newer));
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn corruption_is_an_error_not_a_silent_reset() {
        let path = tmp("corrupt");
        snap().write(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
