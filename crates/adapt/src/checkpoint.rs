//! Chip-level campaign checkpointing.
//!
//! After each chip's buffered records are committed to the trace sink,
//! the campaign appends one compact record to a sidecar `*.ckpt.jsonl`
//! file: the chip index, its RNG stream seed, the merged per-cell
//! results and each cell's per-workload results (f64s as raw bit
//! patterns, so resume is bit-exact), and the chip's metric
//! contributions. A header line carries a fingerprint of
//! the campaign configuration plus the requested environment/scheme
//! sets; resume refuses a sidecar whose fingerprint does not match.
//!
//! The sidecar is append-only and flushed per record, and the campaign
//! appends a chip's checkpoint record only *after* replaying that chip's
//! trace records, so at any crash point the trace file is at most one
//! chip ahead of the sidecar — never behind. The resume path truncates
//! the trace back to the sidecar's committed frontier, replays the
//! checkpointed metric state, and re-runs only the remaining chips,
//! producing a merged [`crate::CampaignResult`] bit-identical to an
//! uninterrupted run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use eval_trace::json::{array, push_str_literal, Json, JsonObject};
use eval_trace::provenance::{self, fnv1a64, Provenance};
use eval_trace::{MetricUpdate, Record};

use crate::campaign::{Campaign, CellResult, OutcomeCounts, Scheme, Tally};
use crate::teacher::TEACHER_CONTRACT;
use eval_core::Environment;

/// Sidecar format version (the `version` field of the header line).
/// Version 2 added the per-workload cells of each chip record.
const VERSION: u64 = 2;

/// Where the campaign checkpoints to, and whether to resume from it.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Sidecar path (conventionally `<trace>.ckpt.jsonl`).
    pub path: PathBuf,
    /// Resume from an existing sidecar instead of starting fresh. A
    /// missing sidecar is not an error — the run starts from chip 0 —
    /// so drivers can pass `--resume` unconditionally.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoint to `path`, starting fresh.
    pub fn fresh(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            resume: false,
        }
    }

    /// Checkpoint to `path`, resuming from it when it exists.
    pub fn resuming(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            resume: true,
        }
    }
}

/// A checkpoint could not be written, read, or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The sidecar was written by a differently-configured campaign;
    /// resuming would merge incompatible chips.
    FingerprintMismatch {
        /// Fingerprint of the campaign requesting the resume.
        expected: u64,
        /// Fingerprint recorded in the sidecar header.
        found: u64,
    },
    /// A sidecar line (other than a torn final line) failed to parse or
    /// violated the record structure.
    Corrupt {
        /// 1-based line number within the sidecar.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// An I/O failure on the sidecar (message keeps the error clonable).
    Io {
        /// The sidecar path.
        path: String,
        /// Rendered `std::io::Error`.
        message: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: campaign is {expected:016x}, \
                 sidecar was written by {found:016x}"
            ),
            CheckpointError::Corrupt { line, message } => {
                write!(f, "corrupt checkpoint at line {line}: {message}")
            }
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error on {path}: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, err: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

/// FNV-1a 64-bit over a canonical rendering of everything that shapes a
/// chip's results: the campaign configuration (config, chip count, base
/// seed, profile budget, workload list, training budget, cores per
/// chip), the teacher's seeding contract (`teacher::TEACHER_CONTRACT`: the same
/// budget trains other controllers under another contract) and the
/// requested environment/scheme sets. Execution-only knobs
/// (`threads`, `intra_chip_threads`, `fail_chip`, `postmortem_dir`) are
/// deliberately excluded — they do not change results, so a resume may
/// use a different thread count or observability setup.
pub fn fingerprint(campaign: &Campaign, envs: &[Environment], schemes: &[Scheme]) -> u64 {
    let mut canon = String::new();
    let _ = write!(
        canon,
        "config={:?};chips={};base_seed={};profile_budget={};cores_per_chip={};training={:?};",
        campaign.config,
        campaign.chips,
        campaign.base_seed,
        campaign.profile_budget,
        campaign.cores_per_chip,
        campaign.training,
    );
    let _ = write!(canon, "teacher={TEACHER_CONTRACT};workloads=[");
    for w in &campaign.workloads {
        let _ = write!(canon, "{},", w.name);
    }
    let _ = write!(canon, "];envs=[");
    for e in envs {
        let _ = write!(canon, "{:?},", e);
    }
    let _ = write!(canon, "];schemes=[");
    for s in schemes {
        let _ = write!(canon, "{},", s.trace_label());
    }
    let _ = write!(canon, "];");
    fnv1a64(canon.as_bytes())
}

/// One chip's metric contribution, captured from its buffered records at
/// commit time. Counters sum, gauges keep the last value, histogram
/// observations keep per-name order (f64 addition order determines the
/// bit pattern of the histogram sum, so replay must preserve it).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CapturedMetrics {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub observes: Vec<(String, Vec<f64>)>,
}

/// Extracts the metric state of one chip from its drained records.
pub(crate) fn capture_metrics(records: &[Record]) -> CapturedMetrics {
    let mut counters: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    let mut gauges: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    let mut observes: std::collections::BTreeMap<&str, Vec<f64>> =
        std::collections::BTreeMap::new();
    for rec in records {
        if let Record::Metric(update) = rec {
            // Wall-clock metrics never reach chip buffers (the tracer
            // routes them to the timing sink), but keep checkpoints
            // deterministic even if one slips through.
            if eval_trace::metrics::is_timing_metric(update.name()) {
                continue;
            }
            match update {
                MetricUpdate::CounterAdd(name, n) => {
                    *counters.entry(name.as_ref()).or_insert(0) += n;
                }
                MetricUpdate::GaugeSet(name, v) => {
                    gauges.insert(name.as_ref(), *v);
                }
                MetricUpdate::Observe(name, v) => {
                    observes.entry(name.as_ref()).or_default().push(*v);
                }
            }
        }
    }
    CapturedMetrics {
        counters: counters
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        gauges: gauges.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        observes: observes
            .into_iter()
            .map(|(n, vs)| (n.to_string(), vs))
            .collect(),
    }
}

impl CapturedMetrics {
    /// The captured state as replayable updates (owned names). Counter /
    /// gauge order across names is irrelevant (the registry is keyed);
    /// per-name observation order is preserved.
    pub(crate) fn to_updates(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for (name, v) in &self.counters {
            out.push(Record::Metric(MetricUpdate::CounterAdd(
                name.clone().into(),
                *v,
            )));
        }
        for (name, v) in &self.gauges {
            out.push(Record::Metric(MetricUpdate::GaugeSet(
                name.clone().into(),
                *v,
            )));
        }
        for (name, vs) in &self.observes {
            for v in vs {
                out.push(Record::Metric(MetricUpdate::Observe(
                    name.clone().into(),
                    *v,
                )));
            }
        }
        out
    }
}

/// A committed chip as persisted in (and restored from) the sidecar.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChipRecord {
    pub chip: usize,
    pub seed: u64,
    pub outcome: RecordedOutcome,
    pub metrics: CapturedMetrics,
}

/// What happened to one chip of the Monte Carlo sweep, as the sweep
/// merges it and the sidecar persists it. A chip that diverged is
/// quarantined as `Failed`: excluded from the merged averages and
/// reported through [`crate::CampaignResult::chips_failed`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RecordedOutcome {
    Ok {
        baseline: CellResult,
        /// One tally per requested (environment, scheme) pair.
        cells: Vec<Tally>,
    },
    Failed {
        error: String,
    },
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn render_cell(cell: &CellResult) -> String {
    JsonObject::new()
        .str("freq", &f64_hex(cell.freq_rel))
        .str("perf", &f64_hex(cell.perf_rel))
        .str("power", &f64_hex(cell.power_w))
        .raw(
            "outcomes",
            &eval_trace::json::u64_array(&cell.outcomes.as_array()),
        )
        .finish()
}

fn render_pairs_u64(pairs: &[(String, u64)]) -> String {
    array(pairs, |(name, v)| {
        let mut s = String::from("[");
        push_str_literal(&mut s, name);
        let _ = write!(s, ",{v}]");
        s
    })
}

fn render_pairs_hex(pairs: &[(String, f64)]) -> String {
    array(pairs, |(name, v)| {
        let mut s = String::from("[");
        push_str_literal(&mut s, name);
        s.push(',');
        push_str_literal(&mut s, &f64_hex(*v));
        s.push(']');
        s
    })
}

fn render_observes(pairs: &[(String, Vec<f64>)]) -> String {
    array(pairs, |(name, vs)| {
        let mut s = String::from("[");
        push_str_literal(&mut s, name);
        s.push_str(",[");
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str_literal(&mut s, &f64_hex(*v));
        }
        s.push_str("]]");
        s
    })
}

fn render_record(rec: &ChipRecord) -> String {
    let mut obj = JsonObject::new()
        .str("kind", "chip")
        .u64("chip", rec.chip as u64)
        .u64("seed", rec.seed);
    match &rec.outcome {
        RecordedOutcome::Ok { baseline, cells } => {
            obj = obj
                .str("status", "ok")
                .raw("baseline", &render_cell(baseline))
                .raw("cells", &array(cells, |t| render_cell(&t.suite)))
                .raw(
                    "workloads",
                    &array(cells, |t| array(&t.workloads, render_cell)),
                );
        }
        RecordedOutcome::Failed { error } => {
            obj = obj.str("status", "failed").str("error", error);
        }
    }
    obj.raw("counters", &render_pairs_u64(&rec.metrics.counters))
        .raw("gauges", &render_pairs_hex(&rec.metrics.gauges))
        .raw("observes", &render_observes(&rec.metrics.observes))
        .finish()
}

fn cell_from_json(v: &Json) -> Option<CellResult> {
    let outcomes_json = v.get("outcomes")?.as_arr()?;
    if outcomes_json.len() != 5 {
        return None;
    }
    let mut outcomes = [0u64; 5];
    for (slot, item) in outcomes.iter_mut().zip(outcomes_json) {
        *slot = item.as_u64()?;
    }
    Some(CellResult {
        freq_rel: parse_f64_hex(v.str_field("freq")?)?,
        perf_rel: parse_f64_hex(v.str_field("perf")?)?,
        power_w: parse_f64_hex(v.str_field("power")?)?,
        outcomes: OutcomeCounts::from_array(outcomes),
    })
}

fn cells_from_json(v: &Json) -> Option<Vec<CellResult>> {
    v.as_arr()?.iter().map(cell_from_json).collect()
}

fn record_from_json(v: &Json) -> Option<ChipRecord> {
    if v.str_field("kind") != Some("chip") {
        return None;
    }
    let chip = v.u64_field("chip")? as usize;
    let seed = v.u64_field("seed")?;
    let outcome = match v.str_field("status")? {
        "ok" => {
            let suites = cells_from_json(v.get("cells")?)?;
            let workloads = v.get("workloads")?.as_arr()?;
            if workloads.len() != suites.len() {
                return None;
            }
            RecordedOutcome::Ok {
                baseline: cell_from_json(v.get("baseline")?)?,
                cells: suites
                    .into_iter()
                    .zip(workloads)
                    .map(|(suite, w)| {
                        Some(Tally {
                            suite,
                            workloads: cells_from_json(w)?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?,
            }
        }
        "failed" => RecordedOutcome::Failed {
            error: v.str_field("error")?.to_string(),
        },
        _ => return None,
    };
    let mut metrics = CapturedMetrics::default();
    for (name, v) in pair_entries(v.get("counters")?)? {
        metrics.counters.push((name, v.as_u64()?));
    }
    for (name, v) in pair_entries(v.get("gauges")?)? {
        metrics.gauges.push((name, parse_f64_hex(v.as_str()?)?));
    }
    for (name, v) in pair_entries(v.get("observes")?)? {
        let vs = v
            .as_arr()?
            .iter()
            .map(|x| x.as_str().and_then(parse_f64_hex))
            .collect::<Option<Vec<_>>>()?;
        metrics.observes.push((name, vs));
    }
    Some(ChipRecord {
        chip,
        seed,
        outcome,
        metrics,
    })
}

/// Decodes `[["name", value], ...]` into (name, value) pairs.
fn pair_entries(v: &Json) -> Option<Vec<(String, &Json)>> {
    v.as_arr()?
        .iter()
        .map(|pair| {
            let items = pair.as_arr()?;
            if items.len() != 2 {
                return None;
            }
            Some((items[0].as_str()?.to_string(), &items[1]))
        })
        .collect()
}

/// An open sidecar the campaign appends committed chips to. Every append
/// writes one complete line and flushes, so a crash tears at most the
/// final line (which the loader drops).
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Starts a fresh sidecar: truncates `path` and writes the header.
    pub fn create(
        path: &Path,
        fingerprint: u64,
        chips: usize,
    ) -> Result<Self, CheckpointError> {
        // The sidecar is an incremental append log, not a final artifact:
        // its crash-consistency comes from one-line-per-write + flush and
        // the loader's torn-tail tolerance, not from atomic replacement.
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        let mut writer = Self {
            file,
            path: path.to_path_buf(),
        };
        // The sidecar grows after the header, so the stamp carries the
        // config fingerprint but no content address (append logs have
        // none until finished).
        let prov = Provenance::capture("campaign-ckpt").with_config_fingerprint(fingerprint);
        let header = JsonObject::new()
            .str("kind", "campaign-ckpt")
            .u64("version", VERSION)
            .str("fingerprint", &format!("{fingerprint:016x}"))
            .u64("chips", chips as u64)
            .raw("provenance", &prov.to_json())
            .finish();
        writer.write_line(&header)?;
        provenance::append_journal(path, &prov).map_err(|e| io_err(path, &e))?;
        Ok(writer)
    }

    /// Appends one committed chip.
    pub fn append(&mut self, rec: &ChipRecord) -> Result<(), CheckpointError> {
        self.write_line(&render_record(rec))
    }

    fn write_line(&mut self, line: &str) -> Result<(), CheckpointError> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.file
            .write_all(&bytes)
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err(&self.path, &e))
    }
}

/// One committed chip of a sidecar, as [`committed_cells`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedChip {
    /// The chip's RNG stream seed.
    pub seed: u64,
    /// The chip's per-cell results in request order; `None` when the
    /// chip was quarantined.
    pub cells: Option<Vec<CellResult>>,
}

/// The committed chips of the sidecar at `path`, indexed by chip. Two
/// sidecars of the same population pair up chip by chip, so a change's
/// effect on each cell can be measured over chips (the `ckpt-stats`
/// binary). On resume, the chips with cells are the ones that left a
/// trace segment to reconcile. Empty when the file is missing or holds
/// no complete header line.
///
/// # Errors
///
/// [`CheckpointError`] on unreadable or corrupt (beyond a torn final
/// line) sidecars.
pub fn committed_cells(path: &Path) -> Result<Vec<CommittedChip>, CheckpointError> {
    Ok(load(path)?.map_or_else(Vec::new, |l| {
        l.records
            .into_iter()
            .map(|rec| CommittedChip {
                seed: rec.seed,
                cells: match rec.outcome {
                    RecordedOutcome::Ok { cells, .. } => {
                        Some(cells.into_iter().map(|t| t.suite).collect())
                    }
                    RecordedOutcome::Failed { .. } => None,
                },
            })
            .collect()
    }))
}

/// A successfully loaded sidecar: the header plus the contiguous prefix
/// of committed chips.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadedCheckpoint {
    pub fingerprint: u64,
    pub chips: usize,
    pub records: Vec<ChipRecord>,
}

/// Loads a sidecar. `Ok(None)` when the file does not exist or holds no
/// complete header (e.g. a crash tore the very first line) — both mean
/// "start fresh". A torn *final* line is dropped; anything malformed
/// before that is [`CheckpointError::Corrupt`]. Committed chips must be
/// the contiguous prefix `0..K` in order.
pub(crate) fn load(path: &Path) -> Result<Option<LoadedCheckpoint>, CheckpointError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, &e)),
    };
    // A final line without a trailing newline is torn mid-write.
    let complete_len = text.rfind('\n').map(|p| p + 1).unwrap_or(0);
    let lines: Vec<&str> = text[..complete_len].lines().collect();
    let parsed: Vec<Json> = {
        let mut parsed = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match Json::parse(line) {
                Ok(v) => parsed.push(v),
                Err(e) => {
                    return Err(CheckpointError::Corrupt {
                        line: i + 1,
                        message: e.to_string(),
                    })
                }
            }
        }
        parsed
    };
    let Some(header) = parsed.first() else {
        return Ok(None);
    };
    if header.str_field("kind") != Some("campaign-ckpt") {
        return Err(CheckpointError::Corrupt {
            line: 1,
            message: "missing campaign-ckpt header".to_string(),
        });
    }
    if header.u64_field("version") != Some(VERSION) {
        return Err(CheckpointError::Corrupt {
            line: 1,
            message: format!("unsupported checkpoint version (want {VERSION})"),
        });
    }
    let fingerprint = header
        .str_field("fingerprint")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| CheckpointError::Corrupt {
            line: 1,
            message: "bad fingerprint field".to_string(),
        })?;
    let chips = header
        .u64_field("chips")
        .ok_or_else(|| CheckpointError::Corrupt {
            line: 1,
            message: "bad chips field".to_string(),
        })? as usize;
    let mut records = Vec::with_capacity(parsed.len().saturating_sub(1));
    for (i, v) in parsed.iter().enumerate().skip(1) {
        let Some(rec) = record_from_json(v) else {
            return Err(CheckpointError::Corrupt {
                line: i + 1,
                message: "malformed chip record".to_string(),
            });
        };
        if rec.chip != records.len() {
            return Err(CheckpointError::Corrupt {
                line: i + 1,
                message: format!(
                    "non-contiguous chip records: expected chip {}, found {}",
                    records.len(),
                    rec.chip
                ),
            });
        }
        records.push(rec);
    }
    if records.len() > chips {
        return Err(CheckpointError::Corrupt {
            line: lines.len(),
            message: "more chip records than the header's chip count".to_string(),
        });
    }
    Ok(Some(LoadedCheckpoint {
        fingerprint,
        chips,
        records,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_trace::Event;

    fn sample_record(chip: usize) -> ChipRecord {
        ChipRecord {
            chip,
            seed: 2008 + chip as u64,
            outcome: RecordedOutcome::Ok {
                baseline: CellResult {
                    freq_rel: 0.87,
                    perf_rel: 0.91,
                    power_w: 23.5,
                    outcomes: OutcomeCounts::from_array([1, 2, 3, 4, 5]),
                },
                cells: vec![
                    Tally::new(2),
                    Tally {
                        suite: CellResult {
                            freq_rel: -0.0,
                            perf_rel: f64::MIN_POSITIVE,
                            power_w: 1.0 / 3.0,
                            outcomes: OutcomeCounts::default(),
                        },
                        workloads: vec![
                            CellResult {
                                freq_rel: 1.1,
                                perf_rel: f64::EPSILON,
                                power_w: -0.0,
                                outcomes: OutcomeCounts::from_array([0, 1, 0, 0, 9]),
                            },
                            CellResult::default(),
                        ],
                    },
                ],
            },
            metrics: CapturedMetrics {
                counters: vec![("cache.hit".to_string(), 7)],
                gauges: vec![("campaign.chips_total".to_string(), 2.0)],
                observes: vec![("decision.f_ghz".to_string(), vec![4.0, 4.25])],
            },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "eval-adapt-ckpt-{tag}-{}.ckpt.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let rec = sample_record(0);
        let line = render_record(&rec);
        let back = record_from_json(&Json::parse(&line).expect("parses")).expect("decodes");
        assert_eq!(back, rec);
    }

    #[test]
    fn failed_records_round_trip() {
        let rec = ChipRecord {
            chip: 3,
            seed: 9,
            outcome: RecordedOutcome::Failed {
                error: "worst-case-provisioned static configuration: diverged".to_string(),
            },
            metrics: CapturedMetrics::default(),
        };
        let back = record_from_json(&Json::parse(&render_record(&rec)).expect("parses"))
            .expect("decodes");
        assert_eq!(back, rec);
    }

    #[test]
    fn writer_and_loader_round_trip_with_torn_tail_tolerance() {
        let path = temp_path("roundtrip");
        let mut w = CheckpointWriter::create(&path, 0xdead_beef, 3).expect("creates");
        w.append(&sample_record(0)).expect("appends");
        w.append(&sample_record(1)).expect("appends");
        drop(w);
        // Tear the sidecar mid-line: the loader drops the torn record.
        let full = std::fs::read_to_string(&path).expect("readable");
        let torn = &full[..full.len() - 17];
        std::fs::write(&path, torn).expect("writable");
        let loaded = load(&path).expect("loads").expect("present");
        assert_eq!(loaded.fingerprint, 0xdead_beef);
        assert_eq!(loaded.chips, 3);
        assert_eq!(loaded.records, vec![sample_record(0)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_cells_reads_ok_and_quarantined_chips_in_order() {
        let path = temp_path("cells");
        let mut w = CheckpointWriter::create(&path, 5, 3).expect("creates");
        w.append(&sample_record(0)).expect("appends");
        w.append(&ChipRecord {
            chip: 1,
            seed: 11,
            outcome: RecordedOutcome::Failed {
                error: "diverged".to_string(),
            },
            metrics: CapturedMetrics::default(),
        })
        .expect("appends");
        drop(w);
        let RecordedOutcome::Ok { cells, .. } = sample_record(0).outcome else {
            unreachable!("sample records complete");
        };
        assert_eq!(
            committed_cells(&path).expect("reads"),
            vec![
                CommittedChip {
                    seed: 2008,
                    cells: Some(cells.into_iter().map(|t| t.suite).collect()),
                },
                CommittedChip {
                    seed: 11,
                    cells: None,
                },
            ]
        );
        std::fs::remove_file(&path).ok();
        assert_eq!(committed_cells(&path).expect("missing reads"), vec![]);
    }

    #[test]
    fn loader_errors_on_mid_file_corruption_and_gaps() {
        let path = temp_path("corrupt");
        let mut w = CheckpointWriter::create(&path, 1, 3).expect("creates");
        w.append(&sample_record(0)).expect("appends");
        w.append(&sample_record(1)).expect("appends");
        drop(w);
        let full = std::fs::read_to_string(&path).expect("readable");
        // Corrupt a *middle* line: hard error with its line number.
        let broken = full.replacen("\"kind\":\"chip\"", "\"kind\":\"ch", 1);
        std::fs::write(&path, &broken).expect("writable");
        match load(&path) {
            Err(CheckpointError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        // A gap in chip indices is also corruption.
        let gap = full.replace("\"chip\":1", "\"chip\":2");
        std::fs::write(&path, &gap).expect("writable");
        assert!(matches!(
            load(&path),
            Err(CheckpointError::Corrupt { line: 3, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loader_refuses_version_1_sidecars_and_unpaired_workload_rows() {
        let path = temp_path("version");
        let mut w = CheckpointWriter::create(&path, 1, 3).expect("creates");
        w.append(&sample_record(0)).expect("appends");
        drop(w);
        let full = std::fs::read_to_string(&path).expect("readable");
        // A version-1 sidecar has no per-workload cells to resume from.
        let old = full.replacen("\"version\":2", "\"version\":1", 1);
        assert_ne!(old, full);
        std::fs::write(&path, &old).expect("writable");
        match load(&path) {
            Err(CheckpointError::Corrupt { line: 1, message }) => {
                assert!(
                    message.contains("unsupported checkpoint version"),
                    "{message}"
                );
            }
            other => panic!("expected Corrupt at line 1, got {other:?}"),
        }
        // One per-workload row per cell: a record with one row for its
        // two cells is malformed.
        let line = render_record(&sample_record(0));
        let at = line.find(",\"workloads\":").expect("rendered");
        let rest = &line[at + line[at..].find(",\"counters\":").expect("rendered")..];
        let header = full.lines().next().expect("header");
        let unpaired = format!("{header}\n{},\"workloads\":[[]]{rest}\n", &line[..at]);
        std::fs::write(&path, &unpaired).expect("writable");
        match load(&path) {
            Err(CheckpointError::Corrupt { line: 2, message }) => {
                assert_eq!(message, "malformed chip record");
            }
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_headerless_sidecars_mean_start_fresh() {
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        assert_eq!(load(&path).expect("loads"), None);
        // A torn header (single line, no newline) also means fresh.
        std::fs::write(&path, "{\"kind\":\"campaign-ck").expect("writable");
        assert_eq!(load(&path).expect("loads"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capture_preserves_per_name_observation_order_and_sums_counters() {
        let records = vec![
            Record::Metric(MetricUpdate::CounterAdd("c".into(), 2)),
            Record::Event(Event::ChipStart { chip: 0 }),
            Record::Metric(MetricUpdate::Observe("h".into(), 2.0)),
            Record::Metric(MetricUpdate::CounterAdd("c".into(), 3)),
            Record::Metric(MetricUpdate::GaugeSet("g".into(), 1.0)),
            Record::Metric(MetricUpdate::GaugeSet("g".into(), 4.0)),
            Record::Metric(MetricUpdate::Observe("h".into(), 1.0)),
        ];
        let m = capture_metrics(&records);
        assert_eq!(m.counters, vec![("c".to_string(), 5)]);
        assert_eq!(m.gauges, vec![("g".to_string(), 4.0)]);
        assert_eq!(m.observes, vec![("h".to_string(), vec![2.0, 1.0])]);
        assert_eq!(m.to_updates().len(), 4);
    }

    #[test]
    fn fingerprint_tracks_configuration_not_thread_count() {
        let mut a = Campaign::new(2);
        let envs = [Environment::TS];
        let schemes = [Scheme::ExhDyn];
        let base = fingerprint(&a, &envs, &schemes);
        a.threads = 7;
        assert_eq!(fingerprint(&a, &envs, &schemes), base, "threads excluded");
        a.intra_chip_threads = 3;
        assert_eq!(
            fingerprint(&a, &envs, &schemes),
            base,
            "intra-chip threads excluded"
        );
        a.postmortem_dir = Some(std::path::PathBuf::from("target/pm"));
        assert_eq!(
            fingerprint(&a, &envs, &schemes),
            base,
            "postmortem dir excluded"
        );
        a.base_seed = 1;
        assert_ne!(fingerprint(&a, &envs, &schemes), base, "seed included");
        a.base_seed = 2008;
        assert_ne!(
            fingerprint(&a, &envs, &[Scheme::Static]),
            base,
            "schemes included"
        );
        assert_ne!(
            fingerprint(&a, &[Environment::TS_ASV], &schemes),
            base,
            "envs included"
        );
    }

    #[test]
    fn fingerprint_pins_the_teacher_contract() {
        // A fixed Fuzzy-Dyn campaign. Its sidecars from before per-bank
        // teacher seeding carried `BEFORE`; resuming one must be refused,
        // because the same budget now trains other controllers.
        const BEFORE: u64 = 0x6e9d_fb16_cc08_2d46;
        let c = Campaign::new(3);
        let fp = fingerprint(&c, &Environment::FIGURE10, &Scheme::ALL);
        assert_ne!(fp, BEFORE);
        assert_eq!(fp, 0xae37_61ca_3ac3_584e, "{fp:#018x}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// The records of the damage test's sidecar: three committed
        /// chips, the last one quarantined.
        fn records() -> Vec<ChipRecord> {
            let failed = ChipRecord {
                chip: 2,
                seed: 77,
                outcome: RecordedOutcome::Failed {
                    error: "diverged".to_string(),
                },
                metrics: CapturedMetrics::default(),
            };
            vec![sample_record(0), sample_record(1), failed]
        }

        /// The bytes of a complete sidecar holding [`records`], written
        /// once through the campaign's writer.
        fn sidecar() -> &'static [u8] {
            static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
            BYTES.get_or_init(|| {
                let path = temp_path("damage-source");
                let mut w = CheckpointWriter::create(&path, 0x5eed, 4).expect("creates");
                for rec in records() {
                    w.append(&rec).expect("appends");
                }
                drop(w);
                let bytes = std::fs::read(&path).expect("readable");
                std::fs::remove_file(&path).ok();
                bytes
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A damaged sidecar (truncated at any byte, one byte
            /// flipped, one line dropped or one line duplicated) loads
            /// as `Ok` or fails with a typed `CheckpointError`; `load`
            /// never panics. The undamaged sidecar gives back the
            /// records it was written from.
            #[test]
            fn prop_damaged_sidecars_load_or_fail_typed(
                damage in 0usize..4,
                at in 0.0f64..1.0,
                mask in 1u32..256,
            ) {
                let clean = sidecar();
                let path = temp_path("damaged");
                std::fs::write(&path, clean).expect("writable");
                let loaded = load(&path).expect("loads").expect("present");
                prop_assert_eq!(loaded.fingerprint, 0x5eed);
                prop_assert_eq!(loaded.records, records());

                let mut lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
                let line = ((at * lines.len() as f64) as usize).min(lines.len() - 1);
                let byte = ((at * clean.len() as f64) as usize).min(clean.len() - 1);
                let damaged: Vec<u8> = match damage {
                    0 => clean[..byte].to_vec(),
                    1 => {
                        let mut d = clean.to_vec();
                        d[byte] ^= mask as u8;
                        d
                    }
                    2 => {
                        lines.remove(line);
                        lines.concat()
                    }
                    _ => {
                        lines.insert(line, lines[line]);
                        lines.concat()
                    }
                };
                std::fs::write(&path, &damaged).expect("writable");
                let outcome = std::panic::catch_unwind(|| load(&path));
                std::fs::remove_file(&path).ok();
                prop_assert!(outcome.is_ok(), "load panicked on damage {} at {}", damage, byte);
            }
        }
    }
}
