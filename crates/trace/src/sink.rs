//! Sinks and the zero-cost [`Tracer`] handle.
//!
//! Instrumented code holds a [`Tracer`], a `Copy` pair of optional sink
//! references: the *primary* sink receives the deterministic record
//! stream (events, counters, gauges, non-timing observations) and the
//! *timing* sink — when wall-clock profiling is enabled — receives
//! spans and `*_us`/`*_ns`/`*_ms` metric observations. The split is the
//! determinism contract made structural: the primary JSONL stream is
//! bit-identical whether timing is on or off, because a wall-clock
//! record can never reach it. With the default [`Tracer::noop`], every
//! call site reduces to a branch on `None` — no event is constructed,
//! no clock is read, no lock is taken. Event payloads are built inside
//! closures so the disabled path never allocates; spans and timers read
//! the clock only when a timing sink is attached.
//!
//! Two sinks ship with the crate:
//!
//! * [`Collector`] — the terminal sink: aggregates events, metrics, and
//!   span statistics, and renders JSONL plus the end-of-run summary.
//! * [`BufferSink`] — a per-worker buffer for parallel sections. Each
//!   worker records into its own buffer; after joining, the caller
//!   replays the buffers in a fixed order (chip index) into the main
//!   sink, making the merged stream independent of thread count and
//!   schedule.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use crate::artifact::write_atomic;
use crate::event::Event;
use crate::json::JsonObject;
use crate::metrics::{is_timing_metric, MetricUpdate, Registry};
use crate::names;
use crate::span::{span_report, SpanGuard, SpanStat, TimerGuard};

/// One trace record, as delivered to a [`TraceSink`].
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A structured event — fully deterministic payload.
    Event(Event),
    /// A metric mutation.
    Metric(MetricUpdate),
    /// A completed span (wall-clock; excluded from the golden contract).
    Span {
        /// `/`-joined span path.
        path: String,
        /// Elapsed nanoseconds.
        nanos: u128,
    },
}

/// Receives trace records. Implementations must be `Sync`: the campaign
/// fans chips out across scoped threads and each worker holds the same
/// sink reference (or its own [`BufferSink`]).
pub trait TraceSink: Sync {
    /// Accepts one record.
    fn record(&self, rec: Record);

    /// Flushes buffered output to its backing store. In-memory sinks
    /// have nothing to do; streaming sinks push pending bytes to disk.
    /// Called at the end of every [`Tracer::replay`], i.e. once per
    /// committed chip, so a crash loses at most the chip in flight.
    fn flush(&self) {}
}

/// A cheap, copyable handle to an optional primary sink plus an
/// optional timing sink (see the module docs for the split).
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
    timing: Option<&'a dyn TraceSink>,
}

impl<'a> Tracer<'a> {
    /// The disabled tracer — every operation is a no-op.
    pub fn noop() -> Self {
        Self {
            sink: None,
            timing: None,
        }
    }

    /// A tracer forwarding deterministic records to `sink`, with
    /// wall-clock profiling off (spans and timers are inert).
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Self {
            sink: Some(sink),
            timing: None,
        }
    }

    /// A tracer with a wall-clock `timing` sink attached: spans, timers
    /// and `*_us`/`*_ns`/`*_ms` observations route there, everything
    /// else to the primary `sink`.
    pub fn with_timing(sink: &'a dyn TraceSink, timing: &'a dyn TraceSink) -> Self {
        Self {
            sink: Some(sink),
            timing: Some(timing),
        }
    }

    /// A copy of this tracer whose *primary* records go to `sink` (a
    /// per-worker [`BufferSink`]) while timing records keep streaming
    /// to the shared timing sink. This is how the campaign keeps
    /// wall-clock samples out of the deterministic replay buffers.
    pub fn buffered<'b>(&self, sink: &'b dyn TraceSink) -> Tracer<'b>
    where
        'a: 'b,
    {
        Tracer {
            sink: Some(sink),
            timing: self.timing,
        }
    }

    /// A copy of this tracer with the primary sink detached (timing
    /// records still flow). Used where the primary stream is disabled
    /// but profiling should keep sampling.
    pub fn without_sink(&self) -> Tracer<'a> {
        Tracer {
            sink: None,
            timing: self.timing,
        }
    }

    /// Whether deterministic records are being collected. Use to skip
    /// expensive evidence-gathering (e.g. retune probe lists) when
    /// disabled.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether a wall-clock timing sink is attached.
    pub fn timing_enabled(&self) -> bool {
        self.timing.is_some()
    }

    /// Emits an event; `build` runs only when enabled.
    pub fn event(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = self.sink {
            sink.record(Record::Event(build()));
        }
    }

    /// Increments a counter by 1.
    pub fn count(&self, name: &'static str) {
        self.count_n(name, 1);
    }

    /// Increments a counter by `n`.
    pub fn count_n(&self, name: &'static str, n: u64) {
        if let Some(sink) = self.sink {
            sink.record(Record::Metric(MetricUpdate::CounterAdd(name.into(), n)));
        }
    }

    /// Sets a gauge.
    pub fn gauge(&self, name: &'static str, v: f64) {
        if let Some(sink) = self.sink {
            sink.record(Record::Metric(MetricUpdate::GaugeSet(name.into(), v)));
        }
    }

    /// Records one histogram observation. Timing-named metrics
    /// (`*_us`/`*_ns`/`*_ms`, see [`is_timing_metric`]) go to the
    /// timing sink (dropped when none is attached); everything else
    /// goes to the primary sink.
    pub fn observe(&self, name: &'static str, v: f64) {
        let target = if is_timing_metric(name) {
            self.timing
        } else {
            self.sink
        };
        if let Some(sink) = target {
            sink.record(Record::Metric(MetricUpdate::Observe(name.into(), v)));
        }
    }

    /// Increments a counter on the *timing* sink only (dropped when
    /// timing is off). For wall-clock-adjacent bookkeeping — e.g.
    /// postmortem dumps — that must never perturb the primary stream.
    pub fn timing_count(&self, name: &'static str) {
        if let Some(sink) = self.timing {
            sink.record(Record::Metric(MetricUpdate::CounterAdd(name.into(), 1)));
        }
    }

    /// Opens a hierarchical span; its wall time lands in the timing
    /// sink on drop. Without a timing sink the guard is inert — no
    /// clock read, no stack push, no record.
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        match self.timing {
            Some(sink) => SpanGuard::enter(sink, name),
            None => SpanGuard::noop(),
        }
    }

    /// Starts a latency timer that observes its elapsed microseconds
    /// into the `name` histogram (on the timing sink) on drop. Name it
    /// `*_us` so consumers recognize it as wall-clock. Inert without a
    /// timing sink.
    pub fn timer(&self, name: &'static str) -> TimerGuard<'a> {
        match self.timing {
            Some(sink) => TimerGuard::start(sink, name),
            None => TimerGuard::noop(),
        }
    }

    /// Forwards pre-recorded records (from a [`BufferSink`]) in order —
    /// spans and timing metrics to the timing sink, the rest to the
    /// primary sink — then flushes both so streaming sinks persist the
    /// batch.
    pub fn replay(&self, records: Vec<Record>) {
        for rec in records {
            let target = match &rec {
                Record::Span { .. } => self.timing,
                Record::Metric(u) if is_timing_metric(u.name()) => self.timing,
                _ => self.sink,
            };
            if let Some(sink) = target {
                sink.record(rec);
            }
        }
        if let Some(sink) = self.sink {
            sink.flush();
        }
        if let Some(timing) = self.timing {
            timing.flush();
        }
    }
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("timing", &self.timing_enabled())
            .finish()
    }
}

#[derive(Debug, Default)]
struct CollectorInner {
    events: Vec<Event>,
    registry: Registry,
    spans: BTreeMap<String, SpanStat>,
}

/// The terminal sink: aggregates everything in memory, then renders
/// JSONL and a human-readable summary.
#[derive(Debug, Default)]
pub struct Collector {
    inner: Mutex<CollectorInner>,
}

/// Bucket boundaries for the chosen-frequency histogram
/// ([`names::DECISION_F_GHZ`]): the f ladder the retuning loop walks, in
/// 250 MHz steps over the plausible range.
pub const DECISION_F_GHZ_BOUNDS: [f64; 13] = [
    2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0,
];

/// Bucket boundaries for error rates at the chosen point
/// ([`names::DECISION_PE_PER_INSTRUCTION`]): decades around the
/// PEMAX=1e-4 constraint.
pub const DECISION_PE_BOUNDS: [f64; 8] = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];

/// The registry every *primary* terminal sink starts from: the
/// EVAL-specific deterministic histograms pre-registered with their
/// fixed boundaries. Shared by [`Collector`] and
/// [`crate::stream::StreamingJsonl`] so both render byte-identical
/// metric snapshot lines (pre-registered-but-empty histograms appear in
/// the snapshot). The wall-clock latency histograms live in
/// [`crate::timing::timing_registry`] — they belong to the timing
/// sidecar, never to the primary trace.
pub fn default_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register_histogram(names::DECISION_F_GHZ, &DECISION_F_GHZ_BOUNDS);
    registry.register_histogram(names::DECISION_PE_PER_INSTRUCTION, &DECISION_PE_BOUNDS);
    registry
}

/// Renders one `"kind":"event"` JSONL line (no trailing newline).
pub(crate) fn render_event_line(e: &Event) -> String {
    JsonObject::new()
        .str("kind", "event")
        .str("event", e.kind())
        .raw("payload", &e.payload_json())
        .finish()
}

/// Renders the non-event tail of the JSONL stream: metric snapshot lines
/// (sorted by name), then span lines (sorted by path). Shared by
/// [`Collector::jsonl`] and the streaming sink's `finish` so the two
/// outputs stay byte-identical.
pub(crate) fn render_tail_lines(
    registry: &Registry,
    spans: &BTreeMap<String, SpanStat>,
) -> Vec<String> {
    let mut lines = registry.jsonl_lines();
    for (path, stat) in spans {
        lines.push(
            JsonObject::new()
                .str("kind", "span")
                .str("path", path)
                .u64("count", stat.count)
                .u128("total_ns", stat.total_ns)
                .finish(),
        );
    }
    lines
}

impl Collector {
    /// A collector with the EVAL-specific histograms pre-registered.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(CollectorInner {
                events: Vec::new(),
                registry: default_registry(),
                spans: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CollectorInner> {
        // A poisoned lock only means another thread panicked mid-record;
        // the aggregate state is still usable for reporting.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A clone of the collected events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.clone()
    }

    /// A snapshot of the metric registry.
    pub fn registry(&self) -> Registry {
        self.lock().registry.clone()
    }

    /// A snapshot of the per-path span statistics.
    pub fn spans(&self) -> BTreeMap<String, SpanStat> {
        self.lock().spans.clone()
    }

    /// The event lines of the JSONL stream — exactly the lines covered
    /// by the golden determinism contract (`"kind":"event"`).
    pub fn event_lines(&self) -> Vec<String> {
        let inner = self.lock();
        inner.events.iter().map(render_event_line).collect()
    }

    /// The full JSONL stream: event lines (deterministic, in emission
    /// order), then metric snapshot lines (sorted by name), then span
    /// lines (sorted by path; wall-clock, non-deterministic).
    pub fn jsonl(&self) -> String {
        let mut lines = self.event_lines();
        let inner = self.lock();
        lines.extend(render_tail_lines(&inner.registry, &inner.spans));
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL stream to `path` atomically (temp file + rename).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.jsonl().as_bytes())
    }

    /// The end-of-run summary: event counts by kind, span self/total
    /// table, and the metric summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.lock();
        let mut out = String::new();
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &inner.events {
            *by_kind.entry(e.kind()).or_insert(0) += 1;
        }
        if !by_kind.is_empty() {
            let _ = writeln!(out, "{:<44} {:>12}", "event", "count");
            for (kind, n) in &by_kind {
                let _ = writeln!(out, "{kind:<44} {n:>12}");
            }
        }
        let spans = span_report(&inner.spans);
        if !spans.is_empty() {
            out.push('\n');
            out.push_str(&spans);
        }
        let metrics = inner.registry.summary();
        if !metrics.is_empty() {
            out.push('\n');
            out.push_str(&metrics);
        }
        out
    }
}

impl TraceSink for Collector {
    fn record(&self, rec: Record) {
        let mut inner = self.lock();
        match rec {
            Record::Event(e) => inner.events.push(e),
            Record::Metric(u) => inner.registry.apply(&u),
            Record::Span { path, nanos } => {
                inner.spans.entry(path).or_default().add(nanos);
            }
        }
    }
}

/// A buffering sink for one parallel worker. Records are kept verbatim;
/// the owner extracts them after `join` and replays them into the main
/// sink in a deterministic order.
#[derive(Debug, Default)]
pub struct BufferSink {
    records: Mutex<Vec<Record>>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the buffer, returning records in recording order.
    pub fn into_records(self) -> Vec<Record> {
        self.records
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Drains the buffer in place, returning records in recording order
    /// and leaving it empty. Lets the campaign commit a finished chip's
    /// records while the worker scope still borrows the sink.
    pub fn drain(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl TraceSink for BufferSink {
    fn record(&self, rec: Record) {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_skips_payload_construction() {
        let t = Tracer::noop();
        assert!(!t.enabled());
        assert!(!t.timing_enabled());
        t.event(|| panic!("must not run")); // lint:allow panic-safety (asserting the disabled path)
        t.count("x");
        let _span = t.span("root");
        let _timer = t.timer("lat_us");
    }

    #[test]
    fn spans_and_timing_metrics_route_to_the_timing_sink_only() {
        let primary = Collector::new();
        let timing = Collector::new();
        let t = Tracer::with_timing(&primary, &timing);
        assert!(t.enabled());
        assert!(t.timing_enabled());
        t.event(|| Event::PhaseDetected {
            phase_id: 1,
            recurring: false,
        });
        t.count("cache.miss");
        t.count("cache.miss");
        t.gauge("g", 2.5);
        t.observe("decision.f_ghz", 4.0);
        t.observe("decision.latency_us", 17.0);
        t.timing_count("campaign.postmortems");
        {
            let _outer = t.span("campaign");
            let _inner = t.span("chip");
        }
        // Primary: deterministic records only.
        assert_eq!(primary.events().len(), 1);
        let reg = primary.registry();
        assert_eq!(reg.counter("cache.miss"), 2);
        assert_eq!(reg.gauge("g"), Some(2.5));
        assert!(reg.histogram("decision.f_ghz").is_some_and(|h| h.count() == 1));
        assert!(primary.spans().is_empty(), "span leaked into primary");
        assert!(
            reg.histogram("decision.latency_us").is_none_or(|h| h.count() == 0),
            "timing observation leaked into primary"
        );
        assert_eq!(reg.counter("campaign.postmortems"), 0);
        // Timing: spans and wall-clock metrics.
        let spans = timing.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.contains_key("campaign/chip"));
        let treg = timing.registry();
        assert!(treg.histogram("decision.latency_us").is_some_and(|h| h.count() == 1));
        assert_eq!(treg.counter("campaign.postmortems"), 1);
        let summary = timing.summary();
        assert!(summary.contains("campaign/chip"));
    }

    #[test]
    fn spans_are_inert_without_a_timing_sink() {
        let c = Collector::new();
        let t = Tracer::new(&c);
        {
            let _outer = t.span("campaign");
            let _inner = t.span("chip");
            let _timer = t.timer("decision.latency_us");
        }
        t.observe("decision.latency_us", 9.0);
        assert!(c.spans().is_empty());
        assert!(c
            .registry()
            .histogram("decision.latency_us")
            .is_none_or(|h| h.count() == 0));
    }

    #[test]
    fn buffered_rebases_the_primary_sink_and_keeps_the_timing_sink() {
        let timing = Collector::new();
        let main = Collector::new();
        let t = Tracer::with_timing(&main, &timing);
        let buf = BufferSink::new();
        let worker = t.buffered(&buf);
        worker.count("cache.hit");
        {
            let _s = worker.span("unit");
        }
        // The buffer holds only the deterministic record; the span went
        // straight to the shared timing sink.
        assert_eq!(buf.drain().len(), 1);
        assert_eq!(timing.spans().len(), 1);
        let detached = t.without_sink();
        assert!(!detached.enabled());
        assert!(detached.timing_enabled());
    }

    #[test]
    fn jsonl_orders_events_then_metrics() {
        let c = Collector::new();
        let t = Tracer::new(&c);
        t.event(|| Event::CampaignStart {
            chips: 1,
            workloads: 1,
            cells: 1,
        });
        t.count("a");
        let jsonl = c.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"kind\":\"event\""), "{lines:?}");
        assert!(lines[1].contains("\"kind\":\"counter\""), "{lines:?}");
    }

    #[test]
    fn buffered_replay_preserves_record_order() {
        let collector = Collector::new();
        let main = Tracer::new(&collector);
        let buf = BufferSink::new();
        {
            let t = Tracer::new(&buf);
            t.event(|| Event::PhaseDetected {
                phase_id: 7,
                recurring: true,
            });
            t.count("cache.hit");
        }
        main.replay(buf.into_records());
        assert_eq!(collector.events().len(), 1);
        assert_eq!(collector.registry().counter("cache.hit"), 1);
    }

    #[test]
    fn timer_observes_into_the_timing_sink_histogram() {
        let primary = Collector::new();
        let timing = Collector::new();
        let t = Tracer::with_timing(&primary, &timing);
        {
            let _timer = t.timer("decision.latency_us");
        }
        let reg = timing.registry();
        let h = reg.histogram("decision.latency_us");
        assert!(h.is_some_and(|h| h.count() == 1));
        assert!(primary
            .registry()
            .histogram("decision.latency_us")
            .is_none_or(|h| h.count() == 0));
    }
}
