//! The Byzantine flight recorder: a fixed-size ring of recent
//! [`EventRecord`]s, dumped to a timestamped JSON file when something
//! goes wrong (fail-stop, digest divergence, resync, first detection of
//! a Byzantine peer).
//!
//! The dump schema is stable and parseable ([`FlightDump::from_json`]);
//! see `docs/OBSERVABILITY.md` for the field-by-field contract.

use crate::event::EventRecord;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Distinguishes dump files created within the same millisecond
/// (e.g. several nodes of an in-process cluster detecting the same
/// equivocator at once).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A bounded ring of the most recent events on one node.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<EventRecord>,
    /// Events pushed past capacity (so a dump can say how much history
    /// was lost).
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn push(&mut self, record: EventRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(record);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.ring.iter().copied().collect()
    }

    /// How many events have been evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Builds the dump document for the current ring contents.
    pub fn dump(&self, node: usize, round: u64, reason: &str) -> FlightDump {
        FlightDump {
            node: node as u64,
            round,
            reason: reason.to_string(),
            evicted: self.evicted,
            events: self.ring.iter().map(DumpRecord::from_record).collect(),
        }
    }
}

/// One event as it appears in a dump file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumpRecord {
    /// Microseconds since the recording sink's epoch.
    pub at_us: u64,
    /// The observing node.
    pub node: u64,
    /// The round the observation belongs to.
    pub round: u64,
    /// The attributed peer, `null` when the event has no culprit.
    pub peer: Option<u64>,
    /// The event's schema name ([`crate::Event::name`]).
    pub event: String,
    /// The event's scalar detail (client id or view number), `null`
    /// when the event kind carries none.
    pub detail: Option<u64>,
}

impl DumpRecord {
    fn from_record(r: &EventRecord) -> Self {
        DumpRecord {
            at_us: r.at_us,
            node: r.node as u64,
            round: r.round,
            peer: r.peer.map(|p| p as u64),
            event: r.event.name().to_string(),
            detail: r.event.detail(),
        }
    }
}

/// A complete flight-recorder dump: the incident plus the event history
/// leading up to it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// The dumping node's id.
    pub node: u64,
    /// The node's round when the dump was triggered.
    pub round: u64,
    /// Why the dump was written (`"desync"`, `"resync"`,
    /// `"decode-failure"`, `"byzantine-detected"`, …).
    pub reason: String,
    /// Events lost to ring eviction before this dump.
    pub evicted: u64,
    /// The retained events, oldest first.
    pub events: Vec<DumpRecord>,
}

impl FlightDump {
    /// Writes the dump to a uniquely-named, timestamped JSON file in `dir`
    /// (created if missing) and returns the file's path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let millis = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{millis}-{seq}-node{}.json", self.node));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.sync_all()?;
        Ok(path)
    }

    /// Serializes to the dump-file JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("dump serialization is infallible")
    }

    /// Parses a dump file's contents.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a schema mismatch.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Every peer named by an event in this dump, deduplicated.
    pub fn implicated_peers(&self) -> Vec<u64> {
        let mut peers: Vec<u64> = self.events.iter().filter_map(|e| e.peer).collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn record(at_us: u64, round: u64, peer: Option<usize>, event: Event) -> EventRecord {
        EventRecord {
            at_us,
            node: 2,
            round,
            peer,
            event,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.push(record(i, i, None, Event::EmptyRound));
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_us, 2);
        assert_eq!(events[2].at_us, 4);
        assert_eq!(rec.evicted(), 2);
    }

    #[test]
    fn dump_roundtrips_and_names_peers() {
        let mut rec = FlightRecorder::new(8);
        rec.push(record(10, 0, Some(0), Event::EquivocationDetected));
        rec.push(record(20, 1, Some(1), Event::MacRejected));
        rec.push(record(30, 1, None, Event::ViewChange { view: 2 }));
        let dump = rec.dump(2, 1, "byzantine-detected");
        assert_eq!(dump.node, 2);
        assert_eq!(dump.reason, "byzantine-detected");
        assert_eq!(dump.implicated_peers(), vec![0, 1]);
        assert_eq!(dump.events[2].event, "view_change");
        assert_eq!(dump.events[2].detail, Some(2));
        assert_eq!(dump.events[2].peer, None);
        let back = FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(back, dump);
    }

    #[test]
    fn write_to_writes_parseable_unique_files() {
        let dir = std::env::temp_dir().join(format!("csm-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rec = FlightRecorder::new(4);
        rec.push(record(1, 0, Some(3), Event::EquivocationDetected));
        let dump = rec.dump(2, 0, "resync");
        let (a, b) = (dump.write_to(&dir).unwrap(), dump.write_to(&dir).unwrap());
        assert_ne!(a, b, "dump names must be unique");
        let parsed = FlightDump::from_json(&std::fs::read_to_string(&a).unwrap()).unwrap();
        assert_eq!(parsed.reason, "resync");
        assert_eq!(parsed.implicated_peers(), vec![3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
