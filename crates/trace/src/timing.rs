//! The sanctioned wall-clock module and the timing-sidecar writer.
//!
//! Everything in the workspace that reads a clock for *observability* —
//! span durations, latency timers, progress heartbeats, provenance
//! timestamps — routes through [`clock_now`] / [`unix_time_secs`] here.
//! The `eval-lint` rule EVL013 (`wall-clock-in-deterministic-path`)
//! flags `Instant::now` / `SystemTime::now` in any other library
//! module, so a wall-clock read can never silently leak into the
//! deterministic simulation or trace-payload path.
//!
//! [`TimingSidecar`] is the streaming writer behind `--timing`: spans
//! and wall-clock histogram samples land in a *separate*
//! `<trace>.timing.jsonl` file, one `"kind":"span-sample"` line per
//! completed span as it happens (crash forensics), followed by an
//! aggregated tail (timing histograms, per-path span statistics) on
//! [`TimingSidecar::finish`]. The primary trace never sees any of it:
//! the two-sink [`crate::Tracer`] routes `Record::Span` and
//! `*_us`/`*_ns`/`*_ms` metric updates exclusively here, which is what
//! keeps the primary JSONL stream bit-identical whether timing is on
//! or off.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonObject;
use crate::metrics::Registry;
use crate::names;
use crate::sink::{render_tail_lines, Record, TraceSink};
use crate::span::SpanStat;

/// The sanctioned monotonic clock read (span/timer durations, progress
/// heartbeats). The only library-code `Instant::now` in the workspace.
pub fn clock_now() -> Instant {
    Instant::now()
}

/// The sanctioned wall-clock read, as seconds since the Unix epoch
/// (provenance journal timestamps). Saturates to 0 before the epoch.
pub fn unix_time_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Bucket boundaries for the decision-latency timers, microseconds:
/// 1-2.5-5 steps over the observed 10 µs – 100 ms range, fine enough for
/// meaningful p50/p95/p99 interpolation in `eval-obs analyze`.
pub(crate) const LATENCY_US_BOUNDS: [f64; 13] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
    50_000.0, 100_000.0,
];

/// The registry a timing-side sink starts from: every decision-latency
/// histogram (the aggregate plus one per scheme, each named under
/// [`names::DECISION_LATENCY_PREFIX`]) pre-registered with the
/// `LATENCY_US_BOUNDS` buckets, so two sidecars that observe the same
/// values render byte-identical tail lines.
pub fn timing_registry() -> Registry {
    let mut registry = Registry::new();
    for name in names::ALL_METRICS
        .iter()
        .filter(|name| name.starts_with(names::DECISION_LATENCY_PREFIX))
    {
        registry.register_histogram(*name, &LATENCY_US_BOUNDS);
    }
    registry
}

/// `<trace>.timing.jsonl` next to the trace file — where `--timing`
/// streams the wall-clock sidecar.
pub fn timing_sidecar_path(trace: &Path) -> PathBuf {
    trace.with_extension("timing.jsonl")
}

struct SidecarInner {
    file: File,
    pending: String,
    registry: Registry,
    spans: BTreeMap<String, SpanStat>,
    io_error: Option<io::Error>,
}

/// A streaming [`TraceSink`] for the wall-clock sidecar.
///
/// Accepts the timing half of the record stream (spans, `*_us` metric
/// observations): each completed span is appended as one
/// `"kind":"span-sample"` JSONL line on the next [`flush`], and every
/// record also folds into the aggregated tail ([`finish`] writes the
/// timing histograms, the per-path span statistics, and a
/// `timing.span_samples` counter). Workers on different threads share
/// one sidecar; sample order is scheduling-dependent by design — the
/// determinism contract covers the *primary* trace only.
///
/// I/O errors are sticky: the first failure is kept and re-surfaced by
/// [`finish`], matching [`crate::StreamingJsonl`].
///
/// [`flush`]: TraceSink::flush
/// [`finish`]: TimingSidecar::finish
pub struct TimingSidecar {
    inner: Mutex<SidecarInner>,
}

impl TimingSidecar {
    /// Creates (truncating) the sidecar file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure.
    pub fn create(path: &Path) -> io::Result<Self> {
        // lint:allow(atomic-artifacts): the sidecar is an append-mode
        // stream for the whole run, not a final artifact; truncating
        // here is the stream's open, and a torn tail is tolerated by
        // the profile reader.
        let file = File::create(path)?;
        Ok(Self {
            inner: Mutex::new(SidecarInner {
                file,
                pending: String::new(),
                registry: timing_registry(),
                spans: BTreeMap::new(),
                io_error: None,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SidecarInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the timing metric registry so far.
    pub fn registry(&self) -> Registry {
        self.lock().registry.clone()
    }

    /// A snapshot of the per-path span statistics so far.
    pub fn spans(&self) -> BTreeMap<String, SpanStat> {
        self.lock().spans.clone()
    }

    /// Completes the sidecar: flushes pending sample lines, appends the
    /// aggregated tail (metric snapshot + span statistics), and syncs.
    ///
    /// # Errors
    ///
    /// Surfaces the first sticky I/O error, or any failure while
    /// writing the tail.
    pub fn finish(self) -> io::Result<()> {
        let mut inner = self.inner.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(err) = inner.io_error.take() {
            return Err(err);
        }
        let mut tail = std::mem::take(&mut inner.pending);
        for line in render_tail_lines(&inner.registry, &inner.spans) {
            tail.push_str(&line);
            tail.push('\n');
        }
        inner.file.write_all(tail.as_bytes())?;
        inner.file.sync_all()
    }
}

impl TraceSink for TimingSidecar {
    fn record(&self, rec: Record) {
        let mut inner = self.lock();
        match rec {
            Record::Span { path, nanos } => {
                let line = JsonObject::new()
                    .str("kind", "span-sample")
                    .str("path", &path)
                    .u128("nanos", nanos)
                    .finish();
                inner.pending.push_str(&line);
                inner.pending.push('\n');
                inner.spans.entry(path).or_default().add(nanos);
                inner.registry.apply(&crate::metrics::MetricUpdate::CounterAdd(
                    names::TIMING_SPAN_SAMPLES.into(),
                    1,
                ));
            }
            Record::Metric(u) => inner.registry.apply(&u),
            // Deterministic events belong to the primary trace; a stray
            // one here is dropped rather than contaminating the sidecar.
            Record::Event(_) => {}
        }
    }

    fn flush(&self) {
        let mut inner = self.lock();
        if inner.io_error.is_some() || inner.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut inner.pending);
        if let Err(e) = inner
            .file
            .write_all(pending.as_bytes())
            .and_then(|()| inner.file.flush())
        {
            inner.io_error = Some(e);
        }
    }
}

impl std::fmt::Debug for TimingSidecar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingSidecar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricUpdate;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("eval-timing-{}-{name}", std::process::id()))
    }

    #[test]
    fn sidecar_streams_samples_and_aggregates_a_tail() {
        let path = tmp("roundtrip.jsonl");
        let sidecar = TimingSidecar::create(&path).expect("creates");
        sidecar.record(Record::Span {
            path: "campaign/chip".into(),
            nanos: 1_500,
        });
        sidecar.record(Record::Span {
            path: "campaign/chip".into(),
            nanos: 500,
        });
        sidecar.record(Record::Metric(MetricUpdate::Observe(
            names::DECISION_LATENCY_US.into(),
            42.0,
        )));
        sidecar.flush();
        let streamed = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(streamed.matches("\"kind\":\"span-sample\"").count(), 2);
        sidecar.finish().expect("finishes");
        let full = std::fs::read_to_string(&path).expect("readable");
        assert!(full.contains("\"kind\":\"span\""), "{full}");
        assert!(full.contains("\"total_ns\":2000"), "{full}");
        assert!(full.contains(names::DECISION_LATENCY_US), "{full}");
        assert!(full.contains(names::TIMING_SPAN_SAMPLES), "{full}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn events_never_reach_the_sidecar() {
        let path = tmp("events.jsonl");
        let sidecar = TimingSidecar::create(&path).expect("creates");
        sidecar.record(Record::Event(crate::Event::ChipStart { chip: 0 }));
        sidecar.finish().expect("finishes");
        let full = std::fs::read_to_string(&path).expect("readable");
        assert!(!full.contains("chip-start"), "{full}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_decision_latency_histogram_gets_the_latency_bounds() {
        let registry = timing_registry();
        let latency: Vec<&str> = names::ALL_METRICS
            .iter()
            .copied()
            .filter(|name| name.starts_with(names::DECISION_LATENCY_PREFIX))
            .collect();
        // The aggregate, six schemes (three hand-written, three learned)
        // and the catch-all `other`.
        assert_eq!(latency.len(), 8);
        for name in latency {
            let hist = registry
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} is not pre-registered"));
            assert_eq!(hist.bounds(), LATENCY_US_BOUNDS, "{name}");
        }
    }

    #[test]
    fn sidecar_path_is_derived_from_the_trace_path() {
        assert_eq!(
            timing_sidecar_path(Path::new("out/run.jsonl")),
            Path::new("out/run.timing.jsonl")
        );
    }
}
