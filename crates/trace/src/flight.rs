//! Fault postmortem bundles: a quarantined chip's last operating-point
//! decisions, rendered from the records its campaign worker buffered.
//!
//! Every chip of a campaign traces into its own buffer, and every
//! controller decision lands there as an [`Event::Decision`]. When a chip
//! faults, the campaign drops the buffer from the primary trace and, with
//! a postmortem directory set, renders the last [`POSTMORTEM_DECISIONS`]
//! decisions it holds as `<trace>.postmortem/chip-<idx>.jsonl`: one
//! `"kind":"postmortem"` header line, then one `"kind":"flight"` line per
//! decision, oldest first, read back by `eval-obs postmortem`. The buffer
//! holds exactly what a serial sweep would have traced up to the fault,
//! so the bundle is the same for any worker count. A campaign traced into
//! a disabled tracer buffers nothing and writes a header-only bundle.

use crate::event::{DecisionEvent, Event};
use crate::json::JsonObject;
use crate::sink::Record;

/// How many of a chip's most recent decisions a postmortem bundle keeps.
pub const POSTMORTEM_DECISIONS: usize = 64;

/// Renders one `"kind":"flight"` JSONL line: decision `seq` of its chip
/// (counted from 0 in trace order).
pub fn render_flight_line(seq: u64, d: &DecisionEvent) -> String {
    JsonObject::new()
        .str("kind", "flight")
        .u64("seq", seq)
        .str("scheme", d.scheme)
        .str("env", d.env)
        .str("workload", d.workload)
        .u64("phase", d.phase)
        .f64("f_ghz", d.f_ghz)
        .f64("pe_per_instruction", d.pe_per_instruction)
        .f64("power_w", d.power_w)
        .str("binding", d.binding)
        .str("outcome", d.outcome)
        .finish()
}

/// Identity of a postmortem bundle: which chip failed, why, and under
/// which campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostmortemHeader<'a> {
    /// Index of the quarantined chip.
    pub chip: u64,
    /// Its deterministic seed.
    pub seed: u64,
    /// The fault that quarantined it.
    pub error: &'a str,
    /// The campaign's checkpoint-grade config fingerprint.
    pub config_fingerprint: &'a str,
}

/// Renders a postmortem bundle from a chip's buffered `records` (no
/// provenance footer — callers stamp the written artifact): one
/// `"kind":"postmortem"` header line whose `recorded` field counts the
/// chip's decisions, then its last [`POSTMORTEM_DECISIONS`] decisions
/// oldest first as `"kind":"flight"` lines.
pub fn render_postmortem(header: &PostmortemHeader<'_>, records: &[Record]) -> String {
    let decisions: Vec<&DecisionEvent> = records
        .iter()
        .filter_map(|rec| match rec {
            Record::Event(Event::Decision(d)) => Some(&**d),
            _ => None,
        })
        .collect();
    let mut out = JsonObject::new()
        .str("kind", "postmortem")
        .u64("chip", header.chip)
        .u64("seed", header.seed)
        .str("error", header.error)
        .str("config_fingerprint", header.config_fingerprint)
        .u64("capacity", POSTMORTEM_DECISIONS as u64)
        .u64("recorded", decisions.len() as u64)
        .finish();
    out.push('\n');
    let first = decisions.len().saturating_sub(POSTMORTEM_DECISIONS);
    for (seq, d) in decisions.iter().enumerate().skip(first) {
        out.push_str(&render_flight_line(seq as u64, d));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricUpdate;

    fn decision(phase: u64) -> Record {
        Record::Event(Event::Decision(Box::new(DecisionEvent {
            scheme: "exhaustive",
            env: "TS+ASV",
            workload: "gzip",
            phase,
            f_ghz: 4.0 + phase as f64 * 0.001,
            settings: vec![(1.0, 0.0)],
            int_fu: "normal",
            fp_fu: "normal",
            int_queue: "full",
            fp_queue: "full",
            outcome: "adapt",
            binding: "error-rate",
            retune_steps: 0,
            rejected: Vec::new(),
            pe_per_instruction: 1e-5,
            power_w: 70.0,
            max_t_c: 80.0,
            perf_bips: 3.0,
            cpi_comp: 0.5,
            cpi_mem: 0.2,
            cpi_recovery: 0.0,
        })))
    }

    const HEADER: PostmortemHeader<'static> = PostmortemHeader {
        chip: 1,
        seed: 42,
        error: "injected chip fault (fail_chip)",
        config_fingerprint: "deadbeef",
    };

    #[test]
    fn postmortem_renders_header_then_decisions_in_trace_order() {
        // Non-decision records are skipped, and do not count as decisions.
        let records = vec![
            Record::Event(Event::ChipStart { chip: 1 }),
            decision(0),
            Record::Metric(MetricUpdate::CounterAdd("decision.count".into(), 1)),
            decision(1),
        ];
        let bundle = render_postmortem(&HEADER, &records);
        let lines: Vec<&str> = bundle.lines().collect();
        assert_eq!(lines.len(), 3, "{bundle}");
        assert!(lines[0].contains("\"kind\":\"postmortem\""), "{bundle}");
        assert!(lines[0].contains("\"capacity\":64"), "{bundle}");
        assert!(lines[0].contains("\"recorded\":2"), "{bundle}");
        assert!(
            lines[1].starts_with("{\"kind\":\"flight\",\"seq\":0,"),
            "{bundle}"
        );
        assert!(
            lines[2].starts_with("{\"kind\":\"flight\",\"seq\":1,"),
            "{bundle}"
        );
        assert!(lines[2].contains("\"binding\":\"error-rate\""), "{bundle}");
        assert!(!bundle.contains("\"unit\""), "{bundle}");
    }

    #[test]
    fn postmortem_keeps_the_last_decisions_of_a_long_sweep() {
        let total = POSTMORTEM_DECISIONS as u64 + 6;
        let records: Vec<Record> = (0..total).map(decision).collect();
        let bundle = render_postmortem(&HEADER, &records);
        let lines: Vec<&str> = bundle.lines().collect();
        assert!(
            lines[0].contains(&format!("\"recorded\":{total}")),
            "{bundle}"
        );
        let flights = &lines[1..];
        assert_eq!(flights.len(), POSTMORTEM_DECISIONS);
        // The tail survives, numbered by its place in the chip's trace:
        // the oldest six decisions are dropped, the newest is last.
        assert!(
            flights[0].starts_with("{\"kind\":\"flight\",\"seq\":6,"),
            "{bundle}"
        );
        assert!(flights[0].contains("\"phase\":6,"), "{bundle}");
        let last = flights.last().unwrap();
        assert!(
            last.starts_with(&format!("{{\"kind\":\"flight\",\"seq\":{},", total - 1)),
            "{bundle}"
        );
        assert!(
            last.contains(&format!("\"phase\":{},", total - 1)),
            "{bundle}"
        );
    }
}
