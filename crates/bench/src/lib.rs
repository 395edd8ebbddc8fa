//! # eval-bench
//!
//! Experiment drivers for the EVAL reproduction: one binary per table or
//! figure of the paper's evaluation (§6), plus the `hotpath` benchmark of
//! the operating-point fast path.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1` | Figure 1: path-delay distributions and `PE(f)` curves |
//! | `fig2` | Figure 2: tolerate / tilt / shift / reshape / adapt |
//! | `fig8` | Figure 8: subsystem `PE` and processor `Perf` vs `f` |
//! | `fig9` | Figure 9: power vs error rate vs frequency/performance |
//! | `fig10` | Figures 10–12: relative frequency, relative performance and power per environment, from one campaign |
//! | `fig13` | Figure 13: controller outcome mix |
//! | `table2` | Table 2: fuzzy-vs-exhaustive selection error |
//! | `headline` | §6 headline numbers, paper vs measured |
//! | `breakdown` | per-workload detail behind the averages (`--trace`, `--checkpoint`, `--resume`) |
//! | `retiming` | §7 baseline: EVAL vs ReCycle-style time borrowing |
//! | `ablation` | σ/μ, φ, rule-count and DVFS-granularity sensitivity |
//! | `varmap` | ASCII view of sampled variation maps |
//! | `ckpt_stats` | paired shift of two checkpoint sidecars over chips |
//!
//! Scale knobs come from the environment so the full protocol
//! (`EVAL_CHIPS=100`) and quick looks (`EVAL_CHIPS=5`) use the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use eval_adapt::{Campaign, CampaignResult, CheckpointOptions, Scheme};
use eval_core::Environment;
use eval_obs::ProgressSink;
use eval_trace::{
    ensure_parent_dir, timing_sidecar_path, Collector, Registry, StreamingJsonl, TimingSidecar,
    Tracer,
};

/// The collecting side of a [`TraceSession`]: an in-memory [`Collector`]
/// (trace written atomically at end-of-run) or a crash-safe
/// [`StreamingJsonl`] (one complete chip segment flushed per commit; used
/// whenever checkpointing is on), either optionally wrapped in a
/// [`ProgressSink`] heartbeating to stderr. The decorator forwards every
/// record verbatim, so the traced JSONL stream is bit-identical either
/// way.
enum SessionSink {
    Plain(Collector),
    Progress(ProgressSink<Collector, std::io::Stderr>),
    Stream(StreamingJsonl),
    StreamProgress(ProgressSink<StreamingJsonl, std::io::Stderr>),
}

/// An optional telemetry session for the experiment binaries, enabled by
/// any of:
///
/// * `--trace <path>` (or `--trace=<path>`, or `EVAL_TRACE`) — write the
///   JSONL trace stream;
/// * `--progress` (or `EVAL_PROGRESS=1`) — heartbeat live campaign
///   progress (chips done/total, chips/sec, ETA, solver counters) to
///   stderr while the run executes;
/// * `--checkpoint <path>` (or `--checkpoint=<path>`, or
///   `EVAL_CHECKPOINT`) — checkpoint campaign progress chip-by-chip to a
///   sidecar, and stream the trace (when requested) one committed chip
///   at a time instead of buffering it to end-of-run;
/// * `--resume` (or `EVAL_RESUME=1`) — resume from the sidecar (which
///   defaults to `<trace basename>.ckpt.jsonl` when only `--trace` is
///   given), skipping chips it already holds;
/// * `--timing` (or `EVAL_TIMING=1`; requires `--trace`) — profile the
///   run: stream spans and wall-clock latency samples to a
///   `<trace>.timing.jsonl` sidecar, consumable by `eval-obs profile`.
///
/// Flags win over environment variables. Output paths are validated (and
/// parent directories created, and the streaming trace/timing sidecar
/// opened) up front, so a bad path fails before hours of chip work
/// instead of after. [`TraceSession::finish`] completes all outputs.
/// The `"kind":"event"` lines are bit-deterministic across runs and
/// thread counts, and the primary trace is byte-identical whether
/// `--timing` is on or off: spans and `*_us` metrics only ever reach the
/// timing sidecar.
pub struct TraceSession {
    trace_path: Option<PathBuf>,
    checkpoint: Option<CheckpointOptions>,
    sink: SessionSink,
    timing: Option<TimingSidecar>,
}

/// `<trace>.ckpt.jsonl` next to the trace file (the default sidecar when
/// `--resume`/`--checkpoint` is used with only a trace path).
fn derived_checkpoint_path(trace: &Path) -> PathBuf {
    trace.with_extension("ckpt.jsonl")
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

impl TraceSession {
    /// Builds a session from `std::env::args` / environment variables,
    /// or `None` when no telemetry was requested.
    ///
    /// # Errors
    ///
    /// Fails fast on unusable output paths, on `--resume` without any way
    /// to locate a sidecar, on a trace file that cannot be reconciled
    /// with the sidecar's committed frontier, or on a corrupt sidecar.
    pub fn from_env() -> std::io::Result<Option<TraceSession>> {
        let mut args = std::env::args();
        let mut trace_path: Option<PathBuf> = None;
        let mut checkpoint_path: Option<PathBuf> = None;
        let mut progress = false;
        let mut resume = false;
        let mut timing = false;
        while let Some(arg) = args.next() {
            if arg == "--trace" {
                trace_path = args.next().map(Into::into);
            } else if let Some(p) = arg.strip_prefix("--trace=") {
                trace_path = Some(p.into());
            } else if arg == "--checkpoint" {
                checkpoint_path = args.next().map(Into::into);
            } else if let Some(p) = arg.strip_prefix("--checkpoint=") {
                checkpoint_path = Some(p.into());
            } else if arg == "--progress" {
                progress = true;
            } else if arg == "--resume" {
                resume = true;
            } else if arg == "--timing" {
                timing = true;
            }
        }
        let trace_path = trace_path.or_else(|| std::env::var_os("EVAL_TRACE").map(Into::into));
        let checkpoint_path =
            checkpoint_path.or_else(|| std::env::var_os("EVAL_CHECKPOINT").map(Into::into));
        let truthy = |var: &str| std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0");
        let progress = progress || truthy("EVAL_PROGRESS");
        let resume = resume || truthy("EVAL_RESUME");
        let timing = timing || truthy("EVAL_TIMING");
        if timing && trace_path.is_none() {
            return Err(invalid(
                "--timing needs --trace <path> to derive the <trace>.timing.jsonl sidecar from"
                    .to_string(),
            ));
        }

        let checkpoint = match (checkpoint_path, resume) {
            (Some(path), resume) => Some(CheckpointOptions { path, resume }),
            (None, true) => {
                let trace = trace_path.as_ref().ok_or_else(|| {
                    invalid(
                        "--resume needs --checkpoint <path>, or --trace <path> to derive \
                         the sidecar from"
                            .to_string(),
                    )
                })?;
                Some(CheckpointOptions {
                    path: derived_checkpoint_path(trace),
                    resume: true,
                })
            }
            (None, false) => None,
        };
        if trace_path.is_none() && checkpoint.is_none() && !progress {
            return Ok(None);
        }

        // Fail-fast output validation: surface path problems when flags
        // are parsed, not after hours of chip work.
        for path in trace_path
            .iter()
            .chain(checkpoint.as_ref().map(|o| &o.path))
        {
            ensure_parent_dir(path)
                .map_err(|e| invalid(format!("cannot create parent of {}: {e}", path.display())))?;
        }

        let sink = match (&trace_path, &checkpoint) {
            // Checkpointed trace: stream it, so the on-disk file is
            // always a complete prefix the sidecar can reconcile with.
            (Some(trace), Some(opts)) => {
                let committed = if opts.resume {
                    eval_adapt::committed_cells(&opts.path)
                        .map_err(|e| invalid(e.to_string()))?
                } else {
                    Vec::new()
                };
                let stream = if opts.resume && trace.exists() {
                    // A quarantined chip (no cells) left no trace segment.
                    let segments = committed.iter().filter(|c| c.cells.is_some()).count();
                    StreamingJsonl::resume(trace, segments)?
                } else if !committed.is_empty() {
                    return Err(invalid(format!(
                        "cannot resume: sidecar {} holds {} chips but the trace \
                         file {} is missing (remove the sidecar to start fresh)",
                        opts.path.display(),
                        committed.len(),
                        trace.display()
                    )));
                } else {
                    StreamingJsonl::create(trace)?
                };
                if progress {
                    SessionSink::StreamProgress(ProgressSink::stderr(stream))
                } else {
                    SessionSink::Stream(stream)
                }
            }
            _ => {
                let collector = Collector::new();
                if progress {
                    SessionSink::Progress(ProgressSink::stderr(collector))
                } else {
                    SessionSink::Plain(collector)
                }
            }
        };
        // The timing sidecar streams, so it is created (truncating) up
        // front like the checkpointed trace.
        let timing = match (timing, &trace_path) {
            (true, Some(trace)) => Some(TimingSidecar::create(&timing_sidecar_path(trace))?),
            _ => None,
        };
        Ok(Some(TraceSession {
            trace_path,
            checkpoint,
            sink,
            timing,
        }))
    }

    /// A tracer recording into this session: two-sink when `--timing` is
    /// on, so spans and wall-clock metrics reach the sidecar and the
    /// primary stream stays byte-identical either way.
    pub fn tracer(&self) -> Tracer<'_> {
        let primary: &dyn eval_trace::TraceSink = match &self.sink {
            SessionSink::Plain(c) => c,
            SessionSink::Progress(p) => p,
            SessionSink::Stream(s) => s,
            SessionSink::StreamProgress(p) => p,
        };
        match &self.timing {
            Some(sidecar) => Tracer::with_timing(primary, sidecar),
            None => Tracer::new(primary),
        }
    }

    /// The checkpoint sidecar configuration, when `--checkpoint` or
    /// `--resume` was requested.
    fn checkpoint_options(&self) -> Option<&CheckpointOptions> {
        self.checkpoint.as_ref()
    }

    /// The trace output path, when `--trace` was requested.
    fn trace_path(&self) -> Option<&Path> {
        self.trace_path.as_deref()
    }

    /// A snapshot of the session's metric registry so far.
    pub fn registry(&self) -> Registry {
        match &self.sink {
            SessionSink::Plain(c) => c.registry(),
            SessionSink::Progress(p) => p.inner().registry(),
            SessionSink::Stream(s) => s.registry(),
            SessionSink::StreamProgress(p) => p.inner().registry(),
        }
    }

    /// Flushes the session: completes the JSONL stream (`--trace`),
    /// stamps it with provenance (content address + appended trace
    /// footer + run-journal entry when `EVAL_RUNS_JOURNAL` is set), and
    /// prints the end-of-run span/metric summary.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if an output file cannot be written.
    pub fn finish(self) -> std::io::Result<()> {
        if self.trace_path.is_some() {
            self.tracer().count(eval_trace::names::PROVENANCE_ARTIFACTS);
        }
        if self.timing.is_some() {
            // The sidecar is a stamped artifact too, but its provenance
            // counter must stay off the primary stream (byte-identity
            // with `--timing` off), so it lands on the timing side only.
            self.tracer()
                .timing_count(eval_trace::names::PROVENANCE_ARTIFACTS);
        }
        let summary = match self.sink {
            SessionSink::Plain(c) => {
                if let Some(path) = &self.trace_path {
                    c.write_jsonl(path)?;
                }
                c.summary()
            }
            SessionSink::Progress(p) => {
                let c = p.into_inner();
                if let Some(path) = &self.trace_path {
                    c.write_jsonl(path)?;
                }
                c.summary()
            }
            SessionSink::Stream(s) => {
                let summary = s.summary();
                s.finish()?;
                summary
            }
            SessionSink::StreamProgress(p) => {
                let s = p.into_inner();
                let summary = s.summary();
                s.finish()?;
                summary
            }
        };
        if let Some(path) = &self.trace_path {
            eval_trace::provenance::stamp_trace(path)?;
        }
        let timing_path = match (self.timing, &self.trace_path) {
            (Some(sidecar), Some(trace)) => {
                sidecar.finish()?;
                let path = timing_sidecar_path(trace);
                eval_trace::provenance::stamp_jsonl_artifact(&path, "timing-jsonl", None)?;
                Some(path)
            }
            _ => None,
        };
        println!();
        println!("{summary}");
        if let Some(path) = &self.trace_path {
            eprintln!("# trace written to {}", path.display());
        }
        if let Some(path) = &timing_path {
            eprintln!("# timing sidecar written to {}", path.display());
        }
        if let Some(opts) = &self.checkpoint {
            eprintln!("# checkpoint sidecar at {}", opts.path.display());
        }
        Ok(())
    }
}

/// The tracer of an optional session ([`Tracer::noop`] when absent).
pub fn session_tracer(session: &Option<TraceSession>) -> Tracer<'_> {
    session.as_ref().map_or(Tracer::noop(), TraceSession::tracer)
}

/// `<trace>.postmortem/` next to the trace file — where the campaign
/// writes a quarantined chip's last traced decisions (`chip-<n>.jsonl`),
/// rendered by `eval-obs postmortem`.
pub fn postmortem_dir_for_trace(trace: &Path) -> PathBuf {
    trace.with_extension("postmortem")
}

/// Runs one campaign through an optional session: checkpointed when the
/// session carries `--checkpoint`/`--resume`, plainly traced otherwise.
/// When the session has a trace path, the campaign's postmortems are
/// armed with [`postmortem_dir_for_trace`] so a quarantined chip leaves
/// a bundle of its last traced decisions (without `--trace` there is
/// neither a trace nor a bundle). Quarantined chips are reported as
/// warnings on stderr; only a sweep with *no* surviving chips is an
/// error.
///
/// # Errors
///
/// Everything [`Campaign::run_checkpointed`] /
/// [`Campaign::run_traced`] can return.
pub fn run_campaign(
    campaign: &Campaign,
    envs: &[Environment],
    schemes: &[Scheme],
    session: &Option<TraceSession>,
) -> Result<CampaignResult, eval_adapt::CampaignError> {
    let tracer = session_tracer(session);
    let mut campaign = campaign.clone();
    if campaign.postmortem_dir.is_none() {
        campaign.postmortem_dir = session
            .as_ref()
            .and_then(TraceSession::trace_path)
            .map(postmortem_dir_for_trace);
    }
    let result = match session.as_ref().and_then(TraceSession::checkpoint_options) {
        Some(opts) => campaign.run_checkpointed(envs, schemes, tracer, opts)?,
        None => campaign.run_traced(envs, schemes, tracer)?,
    };
    for failure in &result.chips_failed {
        eprintln!(
            "# WARNING: chip {} quarantined and excluded from averages: {}",
            failure.chip, failure.error
        );
        if let Some(dir) = &campaign.postmortem_dir {
            eprintln!(
                "#          postmortem bundle: {} (render with `eval-obs postmortem`)",
                dir.join(format!("chip-{}.jsonl", failure.chip)).display()
            );
        }
    }
    Ok(result)
}

/// An `EVAL_*` variable set to a value the binaries cannot use.
#[derive(Clone, PartialEq, Eq)]
pub struct BadEnv {
    /// The environment variable.
    pub var: &'static str,
    /// The offending value (for `EVAL_WORKLOADS`, the first bad entry).
    pub value: String,
    /// What the variable accepts.
    pub expected: String,
}

// A binary's `main` prints a returned error with `Debug`: show the
// message.
impl std::fmt::Debug for BadEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::fmt::Display for BadEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: expected {}, got \"{}\"",
            self.var, self.expected, self.value
        )
    }
}

impl std::error::Error for BadEnv {}

/// Reads the integer knob `var`: `None` when it is unset, else its value.
///
/// # Errors
///
/// Returns [`BadEnv`] when `var` is set to anything but an integer of at
/// least `min`.
pub fn usize_from_env(var: &'static str, min: usize) -> Result<Option<usize>, BadEnv> {
    let Some(raw) = std::env::var_os(var) else {
        return Ok(None);
    };
    let value = raw.to_string_lossy().into_owned();
    match value.parse() {
        Ok(n) if n >= min => Ok(Some(n)),
        _ => Err(BadEnv {
            var,
            value,
            expected: format!("an integer >= {min}"),
        }),
    }
}

/// Fault-injection knob for quarantine/crash testing: `EVAL_FAIL_CHIP=<n>`
/// makes chip `n` of a `chips`-chip population fail instead of running
/// (see `Campaign::fail_chip`).
///
/// # Errors
///
/// Returns [`BadEnv`] when the variable is set but is not an integer, or
/// names no chip of the population (a fault-injection run must not pass
/// without its fault).
pub fn fail_chip_from_env(chips: usize) -> Result<Option<usize>, BadEnv> {
    match usize_from_env("EVAL_FAIL_CHIP", 0)? {
        Some(n) if n >= chips => Err(BadEnv {
            var: "EVAL_FAIL_CHIP",
            value: n.to_string(),
            expected: format!("a chip index below the population size {chips}"),
        }),
        chip => Ok(chip),
    }
}

/// Number of chips for campaign binaries: `EVAL_CHIPS` env var, else
/// `default`. The paper's protocol is 100.
///
/// # Errors
///
/// Returns [`BadEnv`] when the variable is set but is not a positive
/// integer.
pub fn chips_from_env(default: usize) -> Result<usize, BadEnv> {
    Ok(usize_from_env("EVAL_CHIPS", 1)?.unwrap_or(default))
}

/// Workload subset for campaign binaries: `EVAL_WORKLOADS` (comma-separated
/// names); unset or empty means all 16.
///
/// # Errors
///
/// Returns [`BadEnv`] for the first entry that names no workload; its
/// message lists the valid names.
pub fn workloads_from_env() -> Result<Vec<eval_uarch::Workload>, BadEnv> {
    let list = std::env::var("EVAL_WORKLOADS").unwrap_or_default();
    let ws = list
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(|n| {
            eval_uarch::Workload::by_name(n).ok_or_else(|| {
                let valid: Vec<&str> = eval_uarch::Workload::extended()
                    .iter()
                    .map(|w| w.name)
                    .collect();
                BadEnv {
                    var: "EVAL_WORKLOADS",
                    value: n.to_string(),
                    expected: format!("a workload name ({})", valid.join(", ")),
                }
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(if ws.is_empty() {
        eval_uarch::Workload::all()
    } else {
        ws
    })
}

/// Builds the paper-protocol campaign the experiment binaries share,
/// sized by `EVAL_CHIPS` (else `default_chips`), `EVAL_WORKLOADS` and
/// `EVAL_FAIL_CHIP`.
///
/// # Errors
///
/// Returns [`BadEnv`] when `EVAL_WORKLOADS`, `EVAL_CHIPS` or
/// `EVAL_FAIL_CHIP` holds a value it cannot use.
pub fn standard_campaign(default_chips: usize) -> Result<Campaign, BadEnv> {
    let mut c = Campaign::new(chips_from_env(default_chips)?);
    c.workloads = workloads_from_env()?;
    c.fail_chip = fail_chip_from_env(c.chips)?;
    Ok(c)
}

/// Runs the Figures 10–12 campaign (six environments, three schemes) and
/// returns the result. This is the expensive shared computation.
pub fn run_figure10_campaign(
    default_chips: usize,
    session: &Option<TraceSession>,
) -> Result<CampaignResult, Box<dyn std::error::Error>> {
    let campaign = standard_campaign(default_chips)?;
    eprintln!(
        "# campaign: {} chips x {} workloads x 6 environments x 3 schemes",
        campaign.chips,
        campaign.workloads.len()
    );
    Ok(run_campaign(
        &campaign,
        &Environment::FIGURE10,
        &Scheme::ALL,
        session,
    )?)
}

/// Prints a row-per-environment matrix with `Static`, `Fuzzy-Dyn` and
/// `Exh-Dyn` columns plus the Baseline/NoVar reference lines.
pub fn print_environment_matrix<F: Fn(&eval_adapt::CellResult) -> f64>(
    title: &str,
    unit: &str,
    result: &CampaignResult,
    metric: F,
) {
    println!("# {title}");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "environment", "Static", "Fuzzy-Dyn", "Exh-Dyn"
    );
    for env in Environment::FIGURE10 {
        let get = |s: Scheme| {
            result
                .cell(env, s)
                .map(&metric)
                .map(|v| format!("{v:10.3}"))
                .unwrap_or_else(|| format!("{:>10}", "-"))
        };
        println!(
            "{:<14} {} {} {}",
            env.name,
            get(Scheme::Static),
            get(Scheme::FuzzyDyn),
            get(Scheme::ExhDyn)
        );
    }
    println!(
        "{:<14} {:>10.3}   (reference, {unit})",
        "Baseline",
        metric(&result.baseline)
    );
    println!(
        "{:<14} {:>10.3}   (reference, {unit})",
        "NoVar",
        metric(&result.novar)
    );
}

/// Emits a CSV block (machine-readable mirror of the printed table).
pub fn print_environment_csv<F: Fn(&eval_adapt::CellResult) -> f64>(
    metric_name: &str,
    result: &CampaignResult,
    metric: F,
) {
    println!("csv,environment,scheme,{metric_name}");
    println!("csv,Baseline,-,{:.6}", metric(&result.baseline));
    println!("csv,NoVar,-,{:.6}", metric(&result.novar));
    for (env, scheme, cell) in &result.cells {
        println!("csv,{},{},{:.6}", env.name, scheme.label(), metric(cell));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chips_env_parsing_defaults() {
        // Unset: default.
        std::env::remove_var("EVAL_CHIPS");
        assert_eq!(chips_from_env(7), Ok(7));
        std::env::set_var("EVAL_CHIPS", "12");
        assert_eq!(chips_from_env(7), Ok(12));
        // Zero, text and negatives are errors naming the variable and
        // the value, not a silent fallback to the default.
        for bad in ["0", "abc", "-3"] {
            std::env::set_var("EVAL_CHIPS", bad);
            let err = chips_from_env(7).expect_err(bad);
            assert_eq!((err.var, err.value.as_str()), ("EVAL_CHIPS", bad));
            let msg = err.to_string();
            assert!(msg.contains("EVAL_CHIPS") && msg.contains(bad), "{msg}");
            assert_eq!(format!("{err:?}"), msg, "binaries print errors with Debug");
        }
        std::env::remove_var("EVAL_CHIPS");
        // EVAL_FAIL_CHIP: unset is no fault, 0 is chip 0, text is an error
        // (a fault-injection smoke must not run without its fault).
        std::env::remove_var("EVAL_FAIL_CHIP");
        assert_eq!(fail_chip_from_env(2), Ok(None));
        std::env::set_var("EVAL_FAIL_CHIP", "0");
        assert_eq!(fail_chip_from_env(2), Ok(Some(0)));
        std::env::set_var("EVAL_FAIL_CHIP", "x");
        assert_eq!(fail_chip_from_env(2).expect_err("x").var, "EVAL_FAIL_CHIP");
        // So is a chip past the end of the population, which no chip
        // would ever match.
        std::env::set_var("EVAL_FAIL_CHIP", "2");
        let err = fail_chip_from_env(2).expect_err("chip 2 of 2");
        assert_eq!((err.var, err.value.as_str()), ("EVAL_FAIL_CHIP", "2"));
        assert_eq!(fail_chip_from_env(3), Ok(Some(2)));
        std::env::remove_var("EVAL_FAIL_CHIP");
    }

    #[test]
    fn workload_env_parsing() {
        std::env::set_var("EVAL_WORKLOADS", "swim, mcf");
        let ws = workloads_from_env().expect("known names");
        assert_eq!(ws.len(), 2);
        // An unknown name is an error naming the bad token and the valid
        // ones, not a silent fallback to the full suite.
        std::env::set_var("EVAL_WORKLOADS", "swm");
        let err = workloads_from_env().expect_err("unknown name");
        assert_eq!(err.value, "swm");
        let msg = err.to_string();
        assert!(
            msg.contains("\"swm\"") && msg.contains("swim") && msg.contains("mcf"),
            "{msg}"
        );
        assert_eq!(format!("{err:?}"), msg, "binaries print errors with Debug");
        // One bad entry in a mixed list fails the whole list.
        std::env::set_var("EVAL_WORKLOADS", "swim,doom,mcf");
        assert_eq!(workloads_from_env().expect_err("mixed list").value, "doom");
        // Unset or empty: all 16.
        std::env::set_var("EVAL_WORKLOADS", "");
        assert_eq!(workloads_from_env().expect("empty").len(), 16);
        std::env::remove_var("EVAL_WORKLOADS");
        assert_eq!(workloads_from_env().expect("unset").len(), 16);
    }
}
