//! The crash-safe streaming JSONL sink.
//!
//! [`StreamingJsonl`] writes the trace file *incrementally*: event lines
//! accumulate in a pending buffer and are pushed to disk on every
//! [`TraceSink::flush`] — which [`crate::Tracer::replay`] calls once per
//! committed chip — so the on-disk file grows one complete chip segment
//! at a time. Metrics and spans aggregate in memory (their snapshot is a
//! *summary*, not a log) and are appended as the standard tail by
//! [`StreamingJsonl::finish`]. The finished file is byte-identical to
//! [`crate::Collector::jsonl`] over the same records: both render event
//! lines with the same helper, share the default registry, and emit the
//! same tail renderer.
//!
//! On resume, [`StreamingJsonl::resume`] reconciles an interrupted file
//! against the checkpoint's committed-chip frontier: complete event lines
//! belonging to committed chips are kept, anything beyond the frontier
//! (a chip segment past the last checkpoint record, a torn final line
//! from the crash, or a stale end-of-run tail) is truncated away, and
//! writing continues from there. A quarantined chip leaves no segment,
//! so the frontier is counted in segments, not chip indices.

use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Mutex;

use crate::metrics::Registry;
use crate::sink::{default_registry, render_event_line, render_tail_lines, Record, TraceSink};
use crate::span::{span_report, SpanStat};

/// Every event line starts with this (field order is fixed by the
/// emitter), so anything else in the file is tail or corruption.
const EVENT_PREFIX: &str = "{\"kind\":\"event\"";

/// The exact prefix of a chip-start event line, up to the chip index.
const CHIP_START_PREFIX: &str =
    "{\"kind\":\"event\",\"event\":\"chip-start\",\"payload\":{\"chip\":";

#[derive(Debug)]
struct StreamInner {
    file: std::fs::File,
    /// Rendered event lines not yet written to the file.
    pending: String,
    registry: Registry,
    spans: std::collections::BTreeMap<String, SpanStat>,
    events_by_kind: std::collections::BTreeMap<&'static str, u64>,
    /// First I/O failure, held until [`StreamingJsonl::finish`] so the
    /// `TraceSink` record path stays infallible.
    io_error: Option<std::io::Error>,
}

/// An append-as-you-go JSONL trace sink (see the module docs).
#[derive(Debug)]
pub struct StreamingJsonl {
    inner: Mutex<StreamInner>,
}

impl StreamingJsonl {
    /// Opens `path` fresh (truncating any previous content) for a new
    /// streaming run.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::from_file(file))
    }

    /// Opens an interrupted trace at `path` for resumption, keeping the
    /// prologue and the first `committed_segments` chip segments — one
    /// per committed chip that completed; a quarantined chip leaves none —
    /// and truncating everything past that frontier: later chip
    /// segments, a torn (newline-less) final line, or a stale non-event
    /// tail left by a previously *completed* run. The tail is re-rendered
    /// from the rebuilt registry at [`StreamingJsonl::finish`].
    ///
    /// # Errors
    ///
    /// Any I/O error reading, truncating, or reopening the file — or
    /// `InvalidData` when the trace holds *fewer* complete chip segments
    /// than the checkpoint committed. The sink flushes each chip before
    /// its checkpoint record is appended, so a trace behind its sidecar
    /// means external truncation or data loss; resuming would silently
    /// drop part of a committed chip.
    pub fn resume(path: &Path, committed_segments: usize) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut keep = 0usize;
        let mut pos = 0usize;
        let mut chips_kept = 0usize;
        while pos < text.len() {
            // A final line without a newline is torn mid-write: drop it.
            let Some(nl) = text[pos..].find('\n') else { break };
            let line = &text[pos..pos + nl];
            let line_end = pos + nl + 1;
            if !line.starts_with(EVENT_PREFIX) {
                // Metric/span tail from a completed run (or foreign
                // content): everything from here on is re-renderable.
                break;
            }
            if line.starts_with(CHIP_START_PREFIX) {
                if chips_kept == committed_segments {
                    break;
                }
                chips_kept += 1;
            }
            keep = line_end;
            pos = line_end;
        }
        if chips_kept < committed_segments {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "cannot resume: trace {} holds {chips_kept} complete chip segments but \
                     the checkpoint committed {committed_segments}; delete the trace and its \
                     sidecar to restart",
                    path.display()
                ),
            ));
        }
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.seek(SeekFrom::Start(keep as u64))?;
        Ok(Self::from_file(file))
    }

    fn from_file(file: std::fs::File) -> Self {
        Self {
            inner: Mutex::new(StreamInner {
                file,
                pending: String::new(),
                registry: default_registry(),
                spans: std::collections::BTreeMap::new(),
                events_by_kind: std::collections::BTreeMap::new(),
                io_error: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StreamInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the metric registry aggregated so far.
    pub fn registry(&self) -> Registry {
        self.lock().registry.clone()
    }

    /// The end-of-run summary: event counts by kind (events *streamed
    /// this process* — resumed chips live on disk only), span table, and
    /// the metric summary. Mirrors [`crate::Collector::summary`].
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.lock();
        let mut out = String::new();
        if !inner.events_by_kind.is_empty() {
            let _ = writeln!(out, "{:<44} {:>12}", "event", "count");
            for (kind, n) in &inner.events_by_kind {
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

    /// Flushes remaining event lines, appends the metric/span tail, and
    /// syncs the file. Consumes the sink: the file is complete after
    /// this and matches `Collector::jsonl` byte-for-byte.
    ///
    /// # Errors
    ///
    /// The first I/O error from any earlier flush (held sticky), or from
    /// this final write/sync.
    pub fn finish(self) -> std::io::Result<()> {
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

impl TraceSink for StreamingJsonl {
    fn record(&self, rec: Record) {
        let mut inner = self.lock();
        match rec {
            Record::Event(e) => {
                *inner.events_by_kind.entry(e.kind()).or_insert(0) += 1;
                let line = render_event_line(&e);
                inner.pending.push_str(&line);
                inner.pending.push('\n');
            }
            Record::Metric(u) => inner.registry.apply(&u),
            Record::Span { path, nanos } => {
                inner.spans.entry(path).or_default().add(nanos);
            }
        }
    }

    fn flush(&self) {
        let mut inner = self.lock();
        if inner.io_error.is_some() || inner.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut inner.pending);
        let res = inner
            .file
            .write_all(pending.as_bytes())
            .and_then(|()| inner.file.flush());
        if let Err(err) = res {
            inner.io_error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::sink::{Collector, Tracer};
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "eval-trace-stream-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn chip_records(chip: u64) -> Vec<Record> {
        vec![
            Record::Event(Event::ChipStart { chip }),
            Record::Event(Event::PhaseDetected {
                phase_id: chip as u32,
                recurring: false,
            }),
            Record::Metric(crate::MetricUpdate::CounterAdd("chips".into(), 1)),
        ]
    }

    #[test]
    fn finished_stream_matches_collector_byte_for_byte() {
        let path = temp_path("match");
        let stream = StreamingJsonl::create(&path).expect("creates");
        let collector = Collector::new();
        for chip in 0..3 {
            Tracer::new(&stream).replay(chip_records(chip));
            Tracer::new(&collector).replay(chip_records(chip));
        }
        stream.finish().expect("finishes");
        let streamed = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(streamed, collector.jsonl());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_grows_one_flushed_chip_at_a_time() {
        let path = temp_path("grow");
        let stream = StreamingJsonl::create(&path).expect("creates");
        Tracer::new(&stream).replay(chip_records(0));
        let after_one = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(after_one.lines().count(), 2, "{after_one}");
        assert!(after_one.ends_with('\n'), "complete lines only");
        Tracer::new(&stream).replay(chip_records(1));
        let after_two = std::fs::read_to_string(&path).expect("readable");
        assert!(after_two.starts_with(&after_one), "append-only");
        stream.finish().expect("finishes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_uncommitted_chips_torn_lines_and_stale_tails() {
        let path = temp_path("resume");
        // Full run: 3 chips + tail.
        let stream = StreamingJsonl::create(&path).expect("creates");
        let collector = Collector::new();
        for chip in 0..3 {
            Tracer::new(&stream).replay(chip_records(chip));
            Tracer::new(&collector).replay(chip_records(chip));
        }
        stream.finish().expect("finishes");
        let full = std::fs::read_to_string(&path).expect("readable");

        // Interrupted after chip 1 committed, mid-chip-2, torn line.
        let upto_chip2 = full.find("\"chip\":2").and_then(|p| full[..p].rfind('\n'));
        let cut = upto_chip2.expect("chip 2 segment exists") + 1;
        let torn = format!("{}{}", &full[..cut + 30], "{\"kind\":\"event\",\"ev");
        std::fs::write(&path, &torn).expect("writable");

        let resumed = StreamingJsonl::resume(&path, 2).expect("resumes");
        let kept = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(kept, full[..cut], "kept exactly the committed chips");
        // Replay chip 2 plus the metric state of chips 0-1 (as the
        // campaign resume path does), then finish: identical full file.
        let t = Tracer::new(&resumed);
        t.replay(vec![
            Record::Metric(crate::MetricUpdate::CounterAdd("chips".into(), 2)),
        ]);
        t.replay(chip_records(2));
        resumed.finish().expect("finishes");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), full);

        // Resuming a *completed* run keeps events, drops the tail.
        std::fs::write(&path, &full).expect("writable");
        let reopened = StreamingJsonl::resume(&path, 3).expect("resumes");
        let kept = std::fs::read_to_string(&path).expect("readable");
        assert!(kept.lines().all(|l| l.starts_with(EVENT_PREFIX)), "{kept}");
        assert_eq!(kept.lines().count(), 6);
        drop(reopened);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_counts_segments_not_chip_indices() {
        // Chip 1 was quarantined and left no segment: two committed
        // segments are chips 0 and 2, and chip 3's is beyond the frontier.
        let path = temp_path("gap");
        let stream = StreamingJsonl::create(&path).expect("creates");
        for chip in [0, 2, 3] {
            Tracer::new(&stream).replay(chip_records(chip));
        }
        drop(stream);
        let full = std::fs::read_to_string(&path).expect("readable");
        let cut = full.find("\"chip\":3").and_then(|p| full[..p].rfind('\n'));
        let cut = cut.expect("chip 3 segment exists") + 1;
        drop(StreamingJsonl::resume(&path, 2).expect("resumes"));
        let kept = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(kept, full[..cut], "kept chips 0 and 2");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_trace_behind_its_checkpoint() {
        let path = temp_path("behind");
        let stream = StreamingJsonl::create(&path).expect("creates");
        Tracer::new(&stream).replay(chip_records(0));
        drop(stream);
        // The sidecar claims 2 committed chips, but only chip 0 made it
        // to disk: the trace lost data and resuming must not paper over
        // the missing segment.
        let err = StreamingJsonl::resume(&path, 2).expect_err("refuses");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1 complete chip segments"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
