//! Rendering fault flight-recorder bundles (`eval-obs postmortem`).
//!
//! When a chip faults mid-campaign, the quarantine path dumps the
//! chip's [`eval_trace::FlightRecorder`] ring — the last N
//! operating-point decisions — as an atomic
//! `<trace>.postmortem/<chip>.jsonl` bundle: one `"kind":"postmortem"`
//! header line, the ring's entries oldest-first as `"kind":"flight"`
//! lines, and a provenance footer. This module is the read side: parse
//! one bundle (or every `chip-*.jsonl` in a bundle directory) and
//! render the flight table, ending on the failing operating point.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use eval_trace::json::Json;
use eval_trace::provenance::Provenance;

/// One parsed `"kind":"flight"` line.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightLine {
    /// Monotonic sequence number across the chip.
    pub seq: u64,
    /// Unit index within the chip's sweep.
    pub unit: u64,
    /// Scheme label.
    pub scheme: String,
    /// Environment name.
    pub env: String,
    /// Workload name.
    pub workload: String,
    /// Phase index.
    pub phase: u64,
    /// Chosen core frequency, GHz.
    pub f_ghz: f64,
    /// Error rate at the chosen point.
    pub pe_per_instruction: f64,
    /// Total power at the chosen point, W.
    pub power_w: f64,
    /// Constraint that bound the final frequency.
    pub binding: String,
    /// Retuning outcome label.
    pub outcome: String,
}

/// One parsed postmortem bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// Index of the quarantined chip.
    pub chip: u64,
    /// Its deterministic seed.
    pub seed: u64,
    /// The fault that quarantined it.
    pub error: String,
    /// The campaign's config fingerprint at dump time.
    pub config_fingerprint: String,
    /// Ring capacity.
    pub capacity: u64,
    /// Total decisions ever recorded (≥ entries held).
    pub recorded: u64,
    /// The held entries, oldest first.
    pub entries: Vec<FlightLine>,
    /// The bundle's provenance footer, when stamped.
    pub provenance: Option<Provenance>,
}

impl Bundle {
    /// The failing operating point: the newest recorded decision.
    pub fn last_entry(&self) -> Option<&FlightLine> {
        self.entries.last()
    }

    /// How many decisions wrapped out of the ring before the dump.
    pub fn wrapped_away(&self) -> u64 {
        self.recorded.saturating_sub(self.entries.len() as u64)
    }
}

/// Parses one bundle's JSONL text.
///
/// # Errors
///
/// A missing/malformed header, a malformed flight line, or an unknown
/// record kind — bundles are written atomically, so unlike traces
/// there is no torn-tail tolerance.
pub fn parse_bundle(text: &str) -> Result<Bundle, String> {
    let mut bundle: Option<Bundle> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("bundle line {}: {msg}", i + 1);
        let v = Json::parse(line).map_err(|e| at(&e.to_string()))?;
        match v.str_field("kind") {
            Some("postmortem") => {
                bundle = Some(Bundle {
                    chip: v.u64_field("chip").ok_or_else(|| at("header without chip"))?,
                    seed: v.u64_field("seed").unwrap_or(0),
                    error: v.str_field("error").unwrap_or("unknown").to_string(),
                    config_fingerprint: v
                        .str_field("config_fingerprint")
                        .unwrap_or("-")
                        .to_string(),
                    capacity: v.u64_field("capacity").unwrap_or(0),
                    recorded: v.u64_field("recorded").unwrap_or(0),
                    entries: Vec::new(),
                    provenance: None,
                });
            }
            Some("flight") => {
                let b = bundle
                    .as_mut()
                    .ok_or_else(|| at("flight line before the postmortem header"))?;
                b.entries.push(FlightLine {
                    seq: v.u64_field("seq").ok_or_else(|| at("flight without seq"))?,
                    unit: v.u64_field("unit").unwrap_or(0),
                    scheme: v.str_field("scheme").unwrap_or("?").to_string(),
                    env: v.str_field("env").unwrap_or("?").to_string(),
                    workload: v.str_field("workload").unwrap_or("?").to_string(),
                    phase: v.u64_field("phase").unwrap_or(0),
                    f_ghz: v.f64_field("f_ghz").ok_or_else(|| at("flight without f_ghz"))?,
                    pe_per_instruction: v.f64_field("pe_per_instruction").unwrap_or(0.0),
                    power_w: v.f64_field("power_w").unwrap_or(0.0),
                    binding: v.str_field("binding").unwrap_or("?").to_string(),
                    outcome: v.str_field("outcome").unwrap_or("?").to_string(),
                });
            }
            Some("provenance") => {
                let b = bundle
                    .as_mut()
                    .ok_or_else(|| at("provenance before the postmortem header"))?;
                b.provenance = Provenance::from_json(&v);
            }
            Some(other) => return Err(at(&format!("unknown record kind `{other}`"))),
            None => return Err(at("record without `kind`")),
        }
    }
    bundle.ok_or_else(|| "no postmortem header in bundle".to_string())
}

/// Resolves the CLI operand: a bundle file renders alone; a directory
/// renders every `chip-*.jsonl` inside, sorted by name.
///
/// # Errors
///
/// I/O errors reading the directory, or a directory with no bundles.
pub fn bundle_paths(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("chip-") && n.ends_with(".jsonl"))
        })
        .collect();
    out.sort();
    if out.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no chip-*.jsonl bundles in {}", path.display()),
        ));
    }
    Ok(out)
}

/// Renders one bundle as the human-readable postmortem report.
pub fn render_text(b: &Bundle) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "postmortem — chip {} (seed {})", b.chip, b.seed);
    let _ = writeln!(w, "  error:              {}", b.error);
    let _ = writeln!(w, "  config_fingerprint: {}", b.config_fingerprint);
    let _ = writeln!(
        w,
        "  flight ring:        {} of {} slot(s) held, {} decision(s) recorded, {} wrapped away",
        b.entries.len(),
        b.capacity,
        b.recorded,
        b.wrapped_away()
    );
    if let Some(p) = &b.provenance {
        let _ = writeln!(
            w,
            "  provenance:         {} addr={} rev={}",
            p.artifact,
            p.content_address.as_deref().unwrap_or("-"),
            p.git_revision
        );
    }
    if b.entries.is_empty() {
        let _ = writeln!(w, "  (ring empty: the chip faulted before any decision)");
        return out;
    }
    let _ = writeln!(
        w,
        "\n{:>5} {:>5} {:<11} {:<8} {:<10} {:>5} {:>7} {:>10} {:>8}  {:<13} outcome",
        "seq", "unit", "scheme", "env", "workload", "phase", "f_ghz", "pe", "power_w", "binding",
    );
    for e in &b.entries {
        let _ = writeln!(
            w,
            "{:>5} {:>5} {:<11} {:<8} {:<10} {:>5} {:>7.3} {:>10.3e} {:>8.1}  {:<13} {}",
            e.seq,
            e.unit,
            e.scheme,
            e.env,
            e.workload,
            phase_label(e.phase),
            e.f_ghz,
            e.pe_per_instruction,
            e.power_w,
            e.binding,
            e.outcome
        );
    }
    if let Some(last) = b.last_entry() {
        let _ = writeln!(
            w,
            "\nfailing operating point (seq {}): {} {}/{} phase {} at {:.3} GHz, \
             pe={:.3e}, {:.1} W, bound by {}",
            last.seq,
            last.scheme,
            last.env,
            last.workload,
            phase_label(last.phase),
            last.f_ghz,
            last.pe_per_instruction,
            last.power_w,
            last.binding
        );
    }
    out
}

/// Phase column label: `u64::MAX` is the whole-workload sentinel
/// (static-scheme decisions), shown as `-` like the analyze report.
fn phase_label(phase: u64) -> String {
    if phase == u64::MAX {
        "-".to_string()
    } else {
        phase.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_trace::{FlightEntry, FlightRecorder, PostmortemHeader};

    fn rendered_bundle() -> String {
        let mut ring = FlightRecorder::new(2);
        for unit in 0..3u64 {
            ring.push(FlightEntry {
                seq: 0,
                unit,
                scheme: "exhaustive",
                env: "TS+ASV",
                workload: "gzip",
                phase: unit,
                f_ghz: 4.0 + unit as f64 * 0.25,
                pe_per_instruction: 1e-5,
                power_w: 70.0,
                binding: "error-rate",
                outcome: "adapt",
            });
        }
        eval_trace::flight::render_postmortem(
            &PostmortemHeader {
                chip: 1,
                seed: 42,
                error: "injected chip fault (fail_chip)",
                config_fingerprint: "deadbeefdeadbeef",
            },
            &ring,
        )
    }

    #[test]
    fn parse_round_trips_the_emitter_format() {
        let b = parse_bundle(&rendered_bundle()).expect("parses");
        assert_eq!(b.chip, 1);
        assert_eq!(b.seed, 42);
        assert_eq!(b.capacity, 2);
        assert_eq!(b.recorded, 3);
        assert_eq!(b.wrapped_away(), 1);
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.entries[0].seq, 1, "oldest survivor first");
        let last = b.last_entry().expect("entries held");
        assert_eq!(last.seq, 2);
        assert!((last.f_ghz - 4.5).abs() < 1e-12);
        assert_eq!(last.binding, "error-rate");
    }

    #[test]
    fn render_names_the_failing_operating_point() {
        let text = render_text(&parse_bundle(&rendered_bundle()).expect("parses"));
        for needle in [
            "postmortem — chip 1 (seed 42)",
            "injected chip fault (fail_chip)",
            "deadbeefdeadbeef",
            "2 of 2 slot(s) held, 3 decision(s) recorded, 1 wrapped away",
            "failing operating point (seq 2): exhaustive TS+ASV/gzip phase 2 at 4.500 GHz",
            "bound by error-rate",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn malformed_bundles_error_with_line_numbers() {
        assert!(parse_bundle("").unwrap_err().contains("no postmortem header"));
        let orphan = r#"{"kind":"flight","seq":0,"f_ghz":4.0}"#;
        assert!(parse_bundle(orphan)
            .unwrap_err()
            .contains("before the postmortem header"));
        let unknown = format!(
            "{}\n{{\"kind\":\"mystery\"}}\n",
            r#"{"kind":"postmortem","chip":0,"seed":1,"error":"x","config_fingerprint":"y","capacity":1,"recorded":0}"#
        );
        let err = parse_bundle(&unknown).unwrap_err();
        assert!(err.contains("line 2") && err.contains("mystery"), "{err}");
    }

    #[test]
    fn bundle_paths_lists_a_directory_of_chips() {
        let dir = std::env::temp_dir().join(format!(
            "eval-obs-postmortem-paths-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["chip-2.jsonl", "chip-0.jsonl", "notes.txt"] {
            std::fs::write(dir.join(name), "x").unwrap();
        }
        let paths = bundle_paths(&dir).expect("lists");
        let names: Vec<_> = paths
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["chip-0.jsonl", "chip-2.jsonl"]);
        // A single file passes through untouched.
        let single = bundle_paths(&dir.join("chip-0.jsonl")).expect("single");
        assert_eq!(single.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
