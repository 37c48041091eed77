//! The bench's own spans: recorded around its calls into each layer, kept
//! in memory, written to `benchmark/out/trace_<workload>.json` at exit.
//! Spans inside the program are a later issue (ROADMAP 5).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: which layer call, for which round or command
/// (`id`), caused by which enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log. `Tracer::off()` records nothing and reads no
/// clock, so untraced blocks pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle (meaningless when off).
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, handle: usize) {
        if self.on {
            self.spans[handle].end_ns = self.now_ns();
        }
    }

    /// Records a span whose endpoints were measured by the caller
    /// (offsets from [`Tracer::epoch`]), e.g. a command's due time and
    /// its accept time.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                id,
                parent: None,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    /// Total self time per span name in nanoseconds: a span's duration
    /// minus the part its direct children cover.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *totals.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        totals
    }

    /// Call count per span name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.name).or_insert(0) += 1;
        }
        counts
    }

    /// Sum of the durations of the spans that have no parent.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The span log as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::on();
        t.spans = vec![
            span("round", None, 0, 100),
            span("decode", Some(0), 10, 70),
            span("commit", Some(0), 70, 90),
        ];
        let selfs = t.self_times_ns();
        assert_eq!(selfs["round"], 20);
        assert_eq!(selfs["decode"], 60);
        assert_eq!(selfs["commit"], 20);
        assert_eq!(selfs.values().sum::<u64>(), t.root_ns());
        assert_eq!(t.counts()["decode"], 1);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let h = t.begin("round", 0, None);
        t.end(h);
        t.record("request", 1, Instant::now(), Instant::now());
        assert!(t.spans.is_empty() && !t.is_on());
    }

    #[test]
    fn span_file_is_json() {
        let mut t = Tracer::on();
        let r = t.begin("round", 3, None);
        let d = t.begin("decode", 3, Some(r));
        t.end(d);
        t.end(r);
        let doc = crate::json::parse(&t.to_json("coded_clean")).expect("span file parses");
        let spans = doc.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("round"));
    }
}
