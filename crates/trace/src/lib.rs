//! # eval-trace — structured tracing, metrics, and profiling
//!
//! Observability layer for the EVAL reproduction: typed events for
//! controller decisions, retuning probes, phase detection, tester
//! measurements, and training; a deterministic metric registry
//! (counters, gauges, fixed-bucket histograms); hierarchical wall-clock
//! spans streaming to a separate timing sidecar; and the postmortem
//! bundle a quarantined chip's buffered decisions render into.
//!
//! ## Design
//!
//! Instrumented crates accept a [`Tracer`], a `Copy` handle over an
//! optional primary [`TraceSink`] plus an optional *timing* sink. The
//! default [`Tracer::noop`] makes every instrumentation site a branch
//! on `None` — callers that do not opt in pay nothing, and existing
//! APIs keep their signatures via `*_traced` wrappers.
//!
//! ## Determinism contract
//!
//! Every `"kind":"event"` line in the primary JSONL stream is
//! **bit-identical** across runs and thread counts for the same seeds
//! and configuration: payloads carry only model-derived values, floats
//! render via the shortest-roundtrip formatter, objects preserve field
//! order, and parallel sections buffer per-worker records
//! ([`BufferSink`]) and replay them in a fixed order. Wall-clock data
//! never enters the primary stream at all: spans, timers, and metrics
//! suffixed `_us`/`_ns`/`_ms` ([`metrics::is_timing_metric`]) route to
//! the timing sink — normally a [`TimingSidecar`] streaming
//! `<trace>.timing.jsonl` — so the primary trace is byte-identical
//! whether profiling is enabled or not. The only sanctioned wall-clock
//! reads in library code live in [`timing`], enforced by `eval-lint`
//! rule EVL013.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod names;
pub mod provenance;
pub mod sink;
pub mod span;
pub mod stream;
pub mod timing;

pub use artifact::{ensure_parent_dir, write_atomic};
pub use event::{DecisionEvent, Event, RejectedCandidate};
pub use flight::{PostmortemHeader, POSTMORTEM_DECISIONS};
pub use json::{Json, JsonError};
pub use metrics::{Histogram, HistogramMismatch, MetricName, MetricUpdate, Registry};
pub use provenance::Provenance;
pub use sink::{
    default_registry, BufferSink, Collector, Record, TraceSink, Tracer, DECISION_F_GHZ_BOUNDS,
    DECISION_PE_BOUNDS,
};
pub use span::{span_report, SpanGuard, SpanStat, TimerGuard};
pub use stream::StreamingJsonl;
pub use timing::{timing_registry, timing_sidecar_path, TimingSidecar};
