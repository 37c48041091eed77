//! Sinks: where phases and events go.
//!
//! The runtime layer owns a [`SharedSink`] and reports into it; the
//! sans-I/O engines never see one. Three implementations cover the three
//! uses:
//!
//! * [`NullSink`] — the zero-cost default ([`Sink::enabled`] returns
//!   `false`, so [`RoundSpan`] skips its clock reads entirely).
//! * [`ReplaySink`] — appends phases and events to in-memory logs
//!   *without timestamps*, so two runs with the same seed produce
//!   bit-identical sequences (the determinism tests compare these).
//! * [`RecordingSink`] — the production aggregator: phases bucket into
//!   per-phase [`LatencyHistogram`]s, events count into a
//!   [`MetricsRegistry`] (with bounded per-peer attribution) and ring
//!   through a [`FlightRecorder`], and the whole state folds into a
//!   [`TelemetrySnapshot`] on demand.
//!
//! [`TeeSink`] fans one stream out to several sinks (e.g. a recording
//! sink for scraping plus a replay sink for a determinism assertion).

use crate::event::{Event, EventRecord, Phase};
use crate::recorder::{FlightDump, FlightRecorder};
use crate::registry::MetricsRegistry;
use crate::snapshot::{CounterStat, PhaseStat, TelemetrySnapshot, ValueStat};
use csm_core::metrics::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A sink shared across threads (the runtime holds one per node).
pub type SharedSink = Arc<dyn Sink>;

/// Receives phase durations and events from the runtime layer.
pub trait Sink: Send + Sync + std::fmt::Debug {
    /// Whether callers should bother timing phases at all. `false` lets
    /// [`RoundSpan`] skip every clock read (the [`NullSink`] fast path).
    fn enabled(&self) -> bool {
        true
    }

    /// One timed phase of `round` on `node` took `elapsed`.
    fn phase(&self, node: usize, round: u64, phase: Phase, elapsed: Duration);

    /// A discrete incident on `node` during `round`, attributed to
    /// `peer` where one is responsible. The sink stamps the time.
    fn event(&self, node: usize, round: u64, peer: Option<usize>, event: Event);

    /// One sample of a named dimensionless value distribution observed
    /// on `node` during `round` (e.g. `batch_size`, or the `slack.*`
    /// window-headroom measurements in microseconds). Defaults to a
    /// no-op: only aggregating sinks care, and the deterministic
    /// [`ReplaySink`] must never see timing-dependent samples.
    fn value(&self, node: usize, round: u64, name: &str, value: u64) {
        let _ = (node, round, name, value);
    }
}

/// The zero-cost default sink: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn phase(&self, _: usize, _: u64, _: Phase, _: Duration) {}

    fn event(&self, _: usize, _: u64, _: Option<usize>, _: Event) {}
}

/// A deterministic log sink for tests: sequences without timestamps.
#[derive(Debug, Default)]
pub struct ReplaySink {
    phases: Mutex<Vec<(usize, u64, Phase)>>,
    events: Mutex<Vec<(usize, u64, Option<usize>, Event)>>,
}

impl ReplaySink {
    /// An empty replay sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The phase sequence recorded so far, in arrival order.
    pub fn phase_log(&self) -> Vec<(usize, u64, Phase)> {
        self.phases.lock().expect("replay sink poisoned").clone()
    }

    /// The event sequence recorded so far, in arrival order.
    pub fn event_log(&self) -> Vec<(usize, u64, Option<usize>, Event)> {
        self.events.lock().expect("replay sink poisoned").clone()
    }
}

impl Sink for ReplaySink {
    fn phase(&self, node: usize, round: u64, phase: Phase, _elapsed: Duration) {
        self.phases
            .lock()
            .expect("replay sink poisoned")
            .push((node, round, phase));
    }

    fn event(&self, node: usize, round: u64, peer: Option<usize>, event: Event) {
        self.events
            .lock()
            .expect("replay sink poisoned")
            .push((node, round, peer, event));
    }
}

/// The production sink: aggregates phases into histograms, events into
/// counters and the flight-recorder ring.
#[derive(Debug)]
pub struct RecordingSink {
    epoch: Instant,
    metrics: MetricsRegistry,
    phases: Mutex<BTreeMap<Phase, LatencyHistogram>>,
    values: Mutex<BTreeMap<String, LatencyHistogram>>,
    recorder: Mutex<FlightRecorder>,
}

impl Default for RecordingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingSink {
    /// Default ring capacity of the embedded flight recorder.
    pub const RING_CAPACITY: usize = 1024;

    /// A fresh sink; the epoch for event timestamps is now.
    pub fn new() -> Self {
        Self::with_capacity(Self::RING_CAPACITY)
    }

    /// A fresh sink whose flight-recorder ring holds `capacity` events
    /// (clamped to at least 1); the epoch for event timestamps is now.
    pub fn with_capacity(capacity: usize) -> Self {
        RecordingSink {
            epoch: Instant::now(),
            metrics: MetricsRegistry::new(),
            phases: Mutex::new(BTreeMap::new()),
            values: Mutex::new(BTreeMap::new()),
            recorder: Mutex::new(FlightRecorder::new(capacity)),
        }
    }

    /// Records one sample of the named dimensionless value distribution
    /// (e.g. the per-round `batch_size`). Samples share the HDR-style
    /// histogram buckets of phase latencies but are unitless integers.
    pub fn record_value(&self, name: &str, value: u64) {
        self.values
            .lock()
            .expect("recording sink poisoned")
            .entry(name.to_string())
            .or_default()
            .record_us(value);
    }

    /// A point-in-time copy of one value distribution's histogram (empty
    /// if never recorded). Quantiles read back via the `Duration` API in
    /// whole "microseconds" — one unit per integer sample.
    pub fn value_histogram(&self, name: &str) -> LatencyHistogram {
        self.values
            .lock()
            .expect("recording sink poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// The value of the event counter named `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name).get()
    }

    /// A point-in-time copy of one phase's histogram (empty if the phase
    /// was never recorded).
    pub fn phase_histogram(&self, phase: Phase) -> LatencyHistogram {
        self.phases
            .lock()
            .expect("recording sink poisoned")
            .get(&phase)
            .cloned()
            .unwrap_or_default()
    }

    /// The recent-event ring, oldest first.
    pub fn recent_events(&self) -> Vec<EventRecord> {
        self.recorder
            .lock()
            .expect("recording sink poisoned")
            .events()
    }

    /// The recent-event ring as a flight-recorder dump; writing it
    /// ([`FlightDump::write_to`]) is the caller's I/O.
    pub fn dump(&self, node: usize, round: u64, reason: &str) -> FlightDump {
        self.recorder
            .lock()
            .expect("recording sink poisoned")
            .dump(node, round, reason)
    }

    /// Folds everything into a [`TelemetrySnapshot`], merging in
    /// `extra_counters` from outside the sink (gateway and transport
    /// stats), which win on name collision.
    pub fn snapshot(
        &self,
        node: usize,
        round: u64,
        extra_counters: &[(String, u64)],
    ) -> TelemetrySnapshot {
        let phases = self
            .phases
            .lock()
            .expect("recording sink poisoned")
            .iter()
            .map(|(phase, h)| PhaseStat {
                phase: phase.as_str().to_string(),
                count: h.count(),
                p50_us: h.p50().as_micros() as u64,
                p99_us: h.p99().as_micros() as u64,
                mean_us: h.mean().as_micros() as u64,
                max_us: h.max().as_micros() as u64,
            })
            .collect();
        let values = self
            .values
            .lock()
            .expect("recording sink poisoned")
            .iter()
            .map(|(name, h)| ValueStat {
                name: name.clone(),
                count: h.count(),
                p50: h.p50().as_micros() as u64,
                p99: h.p99().as_micros() as u64,
                mean: h.mean().as_micros() as u64,
                max: h.max().as_micros() as u64,
            })
            .collect();
        let mut merged: BTreeMap<String, u64> = self.metrics.counter_values().into_iter().collect();
        for (name, value) in extra_counters {
            merged.insert(name.clone(), *value);
        }
        TelemetrySnapshot {
            node: node as u64,
            round,
            phases,
            counters: merged
                .into_iter()
                .map(|(name, value)| CounterStat { name, value })
                .collect(),
            values,
        }
    }
}

impl Sink for RecordingSink {
    fn phase(&self, _node: usize, _round: u64, phase: Phase, elapsed: Duration) {
        self.phases
            .lock()
            .expect("recording sink poisoned")
            .entry(phase)
            .or_default()
            .record(elapsed);
    }

    fn event(&self, node: usize, round: u64, peer: Option<usize>, event: Event) {
        self.metrics.counter(event.name()).inc();
        if event.per_peer() {
            if let Some(p) = peer {
                self.metrics
                    .counter(&format!("{}.peer{p}", event.name()))
                    .inc();
            }
        }
        self.recorder
            .lock()
            .expect("recording sink poisoned")
            .push(EventRecord {
                at_us: self.epoch.elapsed().as_micros() as u64,
                node,
                round,
                peer,
                event,
            });
    }

    fn value(&self, _node: usize, _round: u64, name: &str, value: u64) {
        self.record_value(name, value);
    }
}

/// Fans one stream out to several sinks.
#[derive(Debug, Clone, Default)]
pub struct TeeSink {
    sinks: Vec<SharedSink>,
}

impl TeeSink {
    /// Tees to `sinks` in order.
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        TeeSink { sinks }
    }
}

impl Sink for TeeSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn phase(&self, node: usize, round: u64, phase: Phase, elapsed: Duration) {
        for s in &self.sinks {
            s.phase(node, round, phase, elapsed);
        }
    }

    fn event(&self, node: usize, round: u64, peer: Option<usize>, event: Event) {
        for s in &self.sinks {
            s.event(node, round, peer, event);
        }
    }

    fn value(&self, node: usize, round: u64, name: &str, value: u64) {
        for s in &self.sinks {
            s.value(node, round, name, value);
        }
    }
}

/// Times the phases of one round against a sink. Phases are measured as
/// the gap between consecutive [`RoundSpan::mark`] calls; the span's
/// whole lifetime is reported as [`Phase::Round`] by
/// [`RoundSpan::finish`]. When the sink is disabled the span never reads
/// the clock after construction.
#[derive(Debug)]
pub struct RoundSpan<'a> {
    sink: &'a dyn Sink,
    node: usize,
    round: u64,
    enabled: bool,
    started: Instant,
    last: Instant,
}

impl<'a> RoundSpan<'a> {
    /// Starts timing `round` on `node`.
    pub fn start(sink: &'a dyn Sink, node: usize, round: u64) -> Self {
        let now = Instant::now();
        RoundSpan {
            sink,
            node,
            round,
            enabled: sink.enabled(),
            started: now,
            last: now,
        }
    }

    /// Ends the current segment, attributing it to `phase`.
    pub fn mark(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        self.sink
            .phase(self.node, self.round, phase, now.duration_since(self.last));
        self.last = now;
    }

    /// Records an explicitly-measured duration for `phase` without
    /// touching the segment clock (for durations measured elsewhere,
    /// e.g. inside a consensus driver).
    pub fn lap(&self, phase: Phase, elapsed: Duration) {
        if self.enabled {
            self.sink.phase(self.node, self.round, phase, elapsed);
        }
    }

    /// Discards the current segment (untimed gap between phases).
    pub fn skip(&mut self) {
        if self.enabled {
            self.last = Instant::now();
        }
    }

    /// Finishes the span, reporting its whole lifetime as
    /// [`Phase::Round`].
    pub fn finish(self) {
        self.finish_after(Duration::ZERO);
    }

    /// Finishes a span that covers only the tail of its round: reports
    /// `earlier` (the part measured elsewhere, e.g. the gateway core's
    /// waiting phases on its driver's clock) plus the span's lifetime as
    /// [`Phase::Round`].
    pub fn finish_after(self, earlier: Duration) {
        if self.enabled {
            self.sink.phase(
                self.node,
                self.round,
                Phase::Round,
                earlier + self.started.elapsed(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        let mut span = RoundSpan::start(&sink, 0, 0);
        span.mark(Phase::Execute);
        span.finish();
    }

    #[test]
    fn replay_sink_logs_sequences_without_time() {
        let sink = ReplaySink::new();
        let mut span = RoundSpan::start(&sink, 2, 7);
        span.mark(Phase::Consensus);
        span.mark(Phase::Execute);
        sink.event(2, 7, Some(0), Event::EquivocationDetected);
        span.finish();
        assert_eq!(
            sink.phase_log(),
            vec![
                (2, 7, Phase::Consensus),
                (2, 7, Phase::Execute),
                (2, 7, Phase::Round)
            ]
        );
        assert_eq!(
            sink.event_log(),
            vec![(2, 7, Some(0), Event::EquivocationDetected)]
        );
    }

    #[test]
    fn recording_sink_aggregates_phases_and_counters() {
        let sink = RecordingSink::new();
        for round in 0..10u64 {
            sink.phase(1, round, Phase::Exchange, Duration::from_millis(40));
            sink.event(1, round, Some(0), Event::EquivocationDetected);
        }
        sink.event(1, 3, Some(5), Event::MacRejected);
        sink.event(1, 4, None, Event::EmptyRound);
        let h = sink.phase_histogram(Phase::Exchange);
        assert_eq!(h.count(), 10);
        assert_eq!(sink.counter("equivocation_detected"), 10);
        assert_eq!(sink.counter("equivocation_detected.peer0"), 10);
        assert_eq!(sink.counter("mac_rejected.peer5"), 1);
        assert_eq!(sink.counter("empty_round"), 1);
        assert_eq!(sink.recent_events().len(), 12);

        for size in [1u64, 7, 32] {
            sink.record_value("batch_size", size);
        }
        assert_eq!(sink.value_histogram("batch_size").count(), 3);

        let snap = sink.snapshot(1, 10, &[("extra".to_string(), 42)]);
        assert_eq!(snap.node, 1);
        assert_eq!(snap.counter("extra"), 42);
        let batch = snap.value("batch_size").expect("batch_size recorded");
        assert_eq!(batch.count, 3);
        assert_eq!(batch.max, 32);
        assert_eq!(batch.mean, (1 + 7 + 32) / 3);
        assert_eq!(snap.counter_by_peer("equivocation_detected"), vec![(0, 10)]);
        let exchange = snap.phase("exchange").expect("exchange recorded");
        assert_eq!(exchange.count, 10);
        assert!(exchange.p50_us >= 37_000 && exchange.p50_us <= 40_000);
        // roundtrips through the wire form
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn value_samples_flow_through_the_trait() {
        // the trait method routes into the named distributions; the
        // replay sink's default no-op keeps determinism logs clean
        let recording = Arc::new(RecordingSink::new());
        let replay = Arc::new(ReplaySink::new());
        let tee = TeeSink::new(vec![
            Arc::clone(&replay) as SharedSink,
            Arc::clone(&recording) as SharedSink,
        ]);
        tee.value(0, 3, "slack.exchange", 12_000);
        tee.value(0, 4, "slack.exchange", 14_000);
        assert_eq!(recording.value_histogram("slack.exchange").count(), 2);
        assert!(replay.phase_log().is_empty() && replay.event_log().is_empty());
    }

    #[test]
    fn ring_capacity_is_configurable() {
        let sink = RecordingSink::with_capacity(2);
        for round in 0..5u64 {
            sink.event(0, round, None, Event::EmptyRound);
        }
        assert_eq!(sink.recent_events().len(), 2);
        assert_eq!(sink.counter("empty_round"), 5);
    }

    #[test]
    fn tee_fans_out() {
        let replay = Arc::new(ReplaySink::new());
        let recording = Arc::new(RecordingSink::new());
        let tee = TeeSink::new(vec![
            Arc::clone(&replay) as SharedSink,
            Arc::clone(&recording) as SharedSink,
        ]);
        assert!(tee.enabled());
        tee.phase(0, 1, Phase::Decode, Duration::from_micros(500));
        tee.event(0, 1, None, Event::StageFallback);
        assert_eq!(replay.phase_log().len(), 1);
        assert_eq!(recording.phase_histogram(Phase::Decode).count(), 1);
        assert_eq!(recording.counter("stage_fallback"), 1);
    }

    #[test]
    fn span_measures_consecutive_segments() {
        let sink = RecordingSink::new();
        let mut span = RoundSpan::start(&sink, 0, 0);
        std::thread::sleep(Duration::from_millis(20));
        span.mark(Phase::Consensus);
        std::thread::sleep(Duration::from_millis(5));
        span.skip(); // untimed gap
        span.mark(Phase::Execute);
        span.finish();
        let consensus = sink.phase_histogram(Phase::Consensus);
        assert!(consensus.max() >= Duration::from_millis(18));
        let execute = sink.phase_histogram(Phase::Execute);
        assert!(execute.max() < Duration::from_millis(5));
        let total = sink.phase_histogram(Phase::Round);
        assert!(total.max() >= Duration::from_millis(24));
    }
}
