//! Rendering fault postmortem bundles (`eval-obs postmortem`).
//!
//! When a chip faults mid-campaign, it is quarantined and its buffered
//! trace records never reach the primary trace. With a postmortem
//! directory set, the campaign renders the last
//! [`eval_trace::POSTMORTEM_DECISIONS`] `Decision` events among them as
//! an atomic `<trace>.postmortem/chip-<idx>.jsonl` bundle
//! ([`eval_trace::flight::render_postmortem`]): one `"kind":"postmortem"`
//! header line, one `"kind":"flight"` line per decision in trace order,
//! and a provenance footer. A campaign run under a disabled tracer
//! buffers nothing, so its bundles hold the header only. This module is
//! the read side: parse one bundle (or every `chip-*.jsonl` in a bundle
//! directory) and render the flight table, ending on the failing
//! operating point.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use eval_trace::json::Json;
use eval_trace::provenance::Provenance;

/// One parsed `"kind":"flight"` line.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightLine {
    /// The decision's index among its chip's traced decisions.
    pub seq: u64,
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
    /// How many of the chip's last decisions a bundle keeps.
    pub capacity: u64,
    /// The chip's traced decisions (≥ entries held).
    pub recorded: u64,
    /// The kept decisions, oldest first.
    pub entries: Vec<FlightLine>,
    /// The bundle's provenance footer, when stamped.
    pub provenance: Option<Provenance>,
}

impl Bundle {
    /// The failing operating point: the newest recorded decision.
    pub fn last_entry(&self) -> Option<&FlightLine> {
        self.entries.last()
    }

    /// How many of the chip's earlier decisions the bundle dropped.
    pub fn dropped(&self) -> u64 {
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
        "  decisions:          {} of {} traced held (last {} kept), {} earlier dropped",
        b.entries.len(),
        b.recorded,
        b.capacity,
        b.dropped()
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
        let _ = writeln!(
            w,
            "  (no decisions: the chip faulted before its first one, or ran untraced)"
        );
        return out;
    }
    // The env column is as wide as its longest name (`TS+ASV+Q+FU` is
    // 11 characters), and never narrower than 8.
    let env_w = b.entries.iter().map(|e| e.env.len()).fold(8, usize::max);
    let _ = writeln!(
        w,
        "\n{:>5} {:<11} {:<env_w$} {:<10} {:>5} {:>7} {:>10} {:>8}  {:<13} outcome",
        "seq", "scheme", "env", "workload", "phase", "f_ghz", "pe", "power_w", "binding",
    );
    for e in &b.entries {
        let _ = writeln!(
            w,
            "{:>5} {:<11} {:<env_w$} {:<10} {:>5} {:>7.3} {:>10.3e} {:>8.1}  {:<13} {}",
            e.seq,
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
    use eval_trace::{DecisionEvent, Event, PostmortemHeader, Record};

    /// One traced decision, as a chip buffer holds it.
    fn decision(
        scheme: &'static str,
        phase: u64,
        f_ghz: f64,
        pe: f64,
        power_w: f64,
        binding: &'static str,
    ) -> Record {
        Record::Event(Event::Decision(Box::new(DecisionEvent {
            scheme,
            env: "TS+ASV",
            workload: "gzip",
            phase,
            f_ghz,
            settings: vec![(1.0, 0.0)],
            int_fu: "normal",
            fp_fu: "normal",
            int_queue: "full",
            fp_queue: "full",
            outcome: "adapt",
            binding,
            retune_steps: 1,
            rejected: Vec::new(),
            pe_per_instruction: pe,
            power_w,
            max_t_c: 80.0,
            perf_bips: 3.0,
            cpi_comp: 0.5,
            cpi_mem: 0.2,
            cpi_recovery: 0.0,
        })))
    }

    fn render(records: &[Record]) -> String {
        eval_trace::flight::render_postmortem(
            &PostmortemHeader {
                chip: 1,
                seed: 42,
                error: "injected chip fault (fail_chip)",
                config_fingerprint: "deadbeefdeadbeef",
            },
            records,
        )
    }

    /// Two more decisions than a bundle keeps, so the oldest two drop.
    fn rendered_bundle() -> String {
        let n = eval_trace::POSTMORTEM_DECISIONS as u64 + 2;
        let records: Vec<Record> = (0..n)
            .map(|i| {
                decision(
                    "exhaustive",
                    i,
                    4.0 + i as f64 * 0.25,
                    1e-5,
                    70.0,
                    "error-rate",
                )
            })
            .collect();
        render(&records)
    }

    #[test]
    fn parse_round_trips_the_emitter_format() {
        let b = parse_bundle(&rendered_bundle()).expect("parses");
        assert_eq!(b.chip, 1);
        assert_eq!(b.seed, 42);
        assert_eq!(b.capacity, 64);
        assert_eq!(b.recorded, 66);
        assert_eq!(b.dropped(), 2);
        assert_eq!(b.entries.len(), 64);
        assert_eq!(b.entries[0].seq, 2, "oldest kept decision first");
        let last = b.last_entry().expect("entries held");
        assert_eq!(last.seq, 65);
        assert_eq!(last.phase, 65);
        assert!((last.f_ghz - 20.25).abs() < 1e-12);
        assert_eq!(last.binding, "error-rate");
    }

    #[test]
    fn render_names_the_failing_operating_point() {
        let text = render_text(&parse_bundle(&rendered_bundle()).expect("parses"));
        for needle in [
            "postmortem — chip 1 (seed 42)",
            "injected chip fault (fail_chip)",
            "deadbeefdeadbeef",
            "64 of 66 traced held (last 64 kept), 2 earlier dropped",
            "failing operating point (seq 65): exhaustive TS+ASV/gzip phase 65 at 20.250 GHz",
            "bound by error-rate",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn table_columns_align_for_the_longest_environment_name() {
        let records: Vec<Record> = ["TS", "TS+ASV+Q+FU", "TS+ASV"]
            .into_iter()
            .enumerate()
            .map(|(i, env)| {
                let mut r = decision("exhaustive", i as u64, 4.0, 1e-5, 70.0, "power");
                if let Record::Event(Event::Decision(d)) = &mut r {
                    d.env = env;
                }
                r
            })
            .collect();
        let text = render_text(&parse_bundle(&render(&records)).expect("parses"));
        let header = text
            .lines()
            .find(|l| l.trim_start().starts_with("seq"))
            .expect("table header");
        let col = header.find("workload").expect("workload column");
        let rows: Vec<&str> = text.lines().filter(|l| l.contains(" gzip ")).collect();
        assert_eq!(rows.len(), 3, "{text}");
        for row in rows {
            assert_eq!(row.find("gzip"), Some(col), "misaligned row {row:?} in:\n{text}");
        }
    }

    #[test]
    fn header_only_bundle_renders_without_a_table() {
        let b = parse_bundle(&render(&[])).expect("parses");
        assert_eq!((b.recorded, b.entries.len()), (0, 0));
        let text = render_text(&b);
        assert!(text.contains("no decisions"), "{text}");
        assert!(!text.contains("failing operating point"), "{text}");
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

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        const SCHEMES: [&str; 4] = ["static", "fuzzy", "exhaustive", "mlp"];
        const BINDINGS: [&str; 4] = ["error-rate", "temperature", "power", "ladder-top"];
        /// Characters a damaged or foreign line is drawn from: JSON
        /// punctuation, digits, letters of the record kinds, and a
        /// multi-byte character.
        const ALPHABET: &[char] = &[
            '{', '}', '[', ']', '"', ':', ',', '.', '-', '+', 'e', 'E', '0', '1', '9', ' ', '\\',
            'k', 'i', 'n', 'd', 'f', 'l', 'g', 'h', 't', 'p', 'o', 's', 'm', 'r', 'u', 'é',
        ];

        /// One decision per seed: finite floats over many magnitudes
        /// (subnormals included) and the static-scheme phase sentinel.
        fn decisions(seeds: &[u64]) -> Vec<Record> {
            seeds
                .iter()
                .map(|&x| {
                    let phase = if x % 5 == 0 { u64::MAX } else { x % 97 };
                    decision(
                        SCHEMES[(x % 4) as usize],
                        phase,
                        f64::from_bits(x >> 2),
                        f64::from_bits(x.rotate_left(21) >> 2),
                        f64::from_bits(x.rotate_left(42) >> 2),
                        BINDINGS[((x >> 8) % 4) as usize],
                    )
                })
                .collect()
        }

        fn text(chars: &[usize]) -> String {
            chars
                .iter()
                .map(|&i| ALPHABET[i % ALPHABET.len()])
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn rendered_bundles_parse_back_to_their_decisions(
                seeds in proptest::collection::vec(0u64..u64::MAX, 0..80),
            ) {
                let records = decisions(&seeds);
                let b = parse_bundle(&render(&records));
                prop_assert!(b.is_ok(), "{b:?}");
                let b = b.unwrap();
                let kept = seeds.len().min(eval_trace::POSTMORTEM_DECISIONS);
                prop_assert_eq!(b.recorded, seeds.len() as u64);
                prop_assert_eq!(b.entries.len(), kept);
                let first = seeds.len() - kept;
                for (line, (seq, rec)) in b.entries.iter().zip(records.iter().enumerate().skip(first)) {
                    let Record::Event(Event::Decision(d)) = rec else { unreachable!() };
                    prop_assert_eq!(line.seq, seq as u64);
                    prop_assert_eq!(
                        (line.scheme.as_str(), line.env.as_str(), line.workload.as_str()),
                        (d.scheme, d.env, d.workload)
                    );
                    prop_assert_eq!(line.phase, d.phase);
                    prop_assert_eq!(line.f_ghz.to_bits(), d.f_ghz.to_bits());
                    prop_assert_eq!(line.pe_per_instruction.to_bits(), d.pe_per_instruction.to_bits());
                    prop_assert_eq!(line.power_w.to_bits(), d.power_w.to_bits());
                    prop_assert_eq!((line.binding.as_str(), line.outcome.as_str()), (d.binding, d.outcome));
                }
            }

            #[test]
            fn a_line_cut_short_is_an_error(
                seeds in proptest::collection::vec(0u64..u64::MAX, 0..6),
                at in 0usize..usize::MAX,
            ) {
                // Cut inside a line: after its first character, before its
                // newline.
                let bundle = render(&decisions(&seeds));
                let cuts: Vec<usize> = (1..bundle.len())
                    .filter(|&i| bundle.is_char_boundary(i))
                    .filter(|&i| bundle.as_bytes()[i - 1] != b'\n' && bundle.as_bytes()[i] != b'\n')
                    .collect();
                let cut = cuts[at % cuts.len()];
                prop_assert!(parse_bundle(&bundle[..cut]).is_err(), "cut at {cut}");
            }

            #[test]
            fn a_foreign_line_is_an_error(
                seeds in proptest::collection::vec(0u64..u64::MAX, 0..6),
                chars in proptest::collection::vec(0usize..64, 0..40),
                at in 0usize..usize::MAX,
            ) {
                let bundle = render(&decisions(&seeds));
                let mut lines: Vec<String> = bundle.lines().map(str::to_string).collect();
                let line = text(&chars);
                lines.insert(at % (lines.len() + 1), line.clone());
                let parsed = parse_bundle(&lines.join("\n"));
                // A blank line is skipped; anything else is not a record.
                prop_assert!(parsed.is_err() || line.trim().is_empty(), "{line:?}: {parsed:?}");
            }

            #[test]
            fn damaged_bundles_never_panic(
                seeds in proptest::collection::vec(0u64..u64::MAX, 0..6),
                edits in proptest::collection::vec(0usize..usize::MAX, 1..6),
                chars in proptest::collection::vec(0usize..64, 0..40),
            ) {
                // Characters overwritten, then arbitrary text alone: every
                // outcome is `Ok` or `Err`.
                let mut bundle: Vec<char> = render(&decisions(&seeds)).chars().collect();
                for e in &edits {
                    let i = e % bundle.len();
                    bundle[i] = ALPHABET[(e >> 32) % ALPHABET.len()];
                }
                let damaged: String = bundle.into_iter().collect();
                let _ = parse_bundle(&damaged);
                let _ = parse_bundle(&text(&chars));
            }
        }
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
