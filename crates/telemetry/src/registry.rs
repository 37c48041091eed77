//! Lock-cheap named metrics: counters, gauges, and latency histograms
//! behind handles.
//!
//! A handle is resolved once (one `Mutex`-guarded map lookup) and then
//! updated with a single atomic op — the hot path never touches the map
//! again, so concurrent recorders on separate handles never contend.
//! Histograms bucket under a per-handle mutex ([`LatencyHistogram`] is
//! not atomic), which is still cheap at round granularity.

use csm_core::metrics::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonic counter handle (clones share the slot).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle (clones share the slot).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared latency histogram handle (clones share the buckets).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        self.0.lock().expect("histogram poisoned").record(d);
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

/// A registry of named metrics. Handle resolution locks the name map;
/// recording through a resolved handle does not.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Every counter's `(name, value)`, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let map = self.counters.lock().expect("registry poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handles_share_slots_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.counter("y").get(), 0);
        reg.gauge("g").set(7);
        assert_eq!(reg.gauge("g").get(), 7);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // the satellite concurrency test: many threads hammering the same
        // and different names must sum exactly
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    let shared = reg.counter("shared");
                    let own = reg.counter(&format!("own.{t}"));
                    let h = reg.histogram("lat");
                    for i in 0..per_thread {
                        shared.inc();
                        own.inc();
                        if i % 100 == 0 {
                            h.record(Duration::from_micros(i));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("metrics thread");
        }
        assert_eq!(reg.counter("shared").get(), threads as u64 * per_thread);
        for t in 0..threads {
            assert_eq!(reg.counter(&format!("own.{t}")).get(), per_thread);
        }
        let lat = reg.histogram("lat").snapshot();
        assert_eq!(lat.count(), threads as u64 * (per_thread / 100));
        assert_eq!(reg.counter_values().len(), threads + 1);
    }
}
