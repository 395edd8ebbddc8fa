//! The experiment harness behind Figures 10–13: environments x adaptation
//! schemes over a chip population and the 16-workload suite.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use eval_trace::flight::render_postmortem;
use eval_trace::provenance;
use eval_trace::{names, Event, PostmortemHeader, Record, Tracer};
use eval_units::GHz;

use eval_core::{
    ChipFactory, CoreModel, Environment, EvalConfig, InfeasibleConfig, PerfModel,
    VariantSelection, N_SUBSYSTEMS,
};
use eval_uarch::profile::{PhaseProfile, WorkloadProfile};
use eval_uarch::{ActivityVector, QueueSize, Workload};

use crate::checkpoint::{
    self, capture_metrics, CheckpointError, CheckpointOptions, CheckpointWriter, ChipRecord,
    RecordedOutcome,
};
use crate::controller::{queue_size, AdaptationTimeline};
use crate::exhaustive::ExhaustiveOptimizer;
use crate::fan_out;
use crate::fuzzy_ctl::{FuzzyOptimizer, TrainingBudget};
use crate::memo::{MemoOptimizer, SceneMemo};
use crate::optimizer::Optimizer;
use crate::retune::Outcome;
use crate::zoo::{Controller, OptimizerController, StaticController};

/// How configurations are chosen (the three bars per environment in
/// Figures 10–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// One conservative configuration per chip, provisioned for worst-case
    /// activity; never re-tuned at run time.
    Static,
    /// Per-phase adaptation driven by the trained fuzzy controllers.
    FuzzyDyn,
    /// Per-phase adaptation driven by the exhaustive oracle.
    ExhDyn,
}

impl Scheme {
    /// All schemes in plot order.
    pub const ALL: [Scheme; 3] = [Scheme::Static, Scheme::FuzzyDyn, Scheme::ExhDyn];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Static => "Static",
            Scheme::FuzzyDyn => "Fuzzy-Dyn",
            Scheme::ExhDyn => "Exh-Dyn",
        }
    }

    /// Trace label (matches the per-scheme decision counter names).
    pub fn trace_label(&self) -> &'static str {
        match self {
            Scheme::Static => "static",
            Scheme::FuzzyDyn => "fuzzy",
            Scheme::ExhDyn => "exhaustive",
        }
    }
}

/// Error from a campaign run.
///
/// The reference machines and the statically provisioned configurations
/// are *supposed* to be feasible at every chip and phase; if one is not,
/// the campaign surfaces the divergence instead of panicking so batch
/// drivers (and the test harness) can report which configuration failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// A fixed (non-adaptive) operating point hit thermal runaway.
    Infeasible {
        /// Which fixed configuration was being evaluated.
        context: &'static str,
        /// The underlying per-subsystem divergence.
        source: InfeasibleConfig,
    },
    /// An internal fault: a sweep worker panicked, or the injected
    /// [`Campaign::fail_chip`] fault fired.
    Internal(&'static str),
    /// The checkpoint sidecar could not be written, read, or trusted.
    Checkpoint(CheckpointError),
    /// Every chip in the population was quarantined; there is nothing to
    /// merge into a result.
    AllChipsFailed {
        /// The first quarantined chip's rendered error.
        first: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Infeasible { context, source } => {
                write!(f, "{context}: {source}")
            }
            CampaignError::Internal(what) => write!(f, "internal campaign error: {what}"),
            CampaignError::Checkpoint(source) => write!(f, "{source}"),
            CampaignError::AllChipsFailed { first } => {
                write!(f, "every chip failed; first error: {first}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Infeasible { source, .. } => Some(source),
            CampaignError::Checkpoint(source) => Some(source),
            CampaignError::Internal(_) | CampaignError::AllChipsFailed { .. } => None,
        }
    }
}

/// One quarantined chip, as reported by [`CampaignResult::chips_failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipFailure {
    /// The chip's index in the population.
    pub chip: usize,
    /// The rendered [`CampaignError`] that quarantined it.
    pub error: String,
}

/// Outcome histogram over controller invocations (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    counts: [u64; 5],
}

impl OutcomeCounts {
    /// Records one outcome.
    pub fn add(&mut self, o: Outcome) {
        self.counts[o.index()] += 1;
    }

    /// Total invocations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of invocations with outcome `o` (0 if nothing recorded).
    pub fn fraction(&self, o: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.counts[o.index()] as f64 / self.total() as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        for i in 0..5 {
            self.counts[i] += other.counts[i];
        }
    }

    /// The raw histogram, in [`Outcome`] index order (checkpoint
    /// serialization).
    pub fn as_array(&self) -> [u64; 5] {
        self.counts
    }

    /// Rebuilds a histogram from [`OutcomeCounts::as_array`].
    pub fn from_array(counts: [u64; 5]) -> Self {
        Self { counts }
    }
}

/// Averages for one (environment, scheme) cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellResult {
    /// Mean core frequency relative to `NoVar`'s nominal.
    pub freq_rel: f64,
    /// Mean performance relative to `NoVar`.
    pub perf_rel: f64,
    /// Mean processor power (core + L1 + L2 [+ checker when present]), W.
    pub power_w: f64,
    /// Controller outcomes (dynamic schemes only).
    pub outcomes: OutcomeCounts,
}

impl CellResult {
    fn accumulate(&mut self, cell: &CellResult) {
        self.freq_rel += cell.freq_rel;
        self.perf_rel += cell.perf_rel;
        self.power_w += cell.power_w;
        self.outcomes.merge(&cell.outcomes);
    }

    fn normalize(&mut self, samples: usize) {
        let n = samples as f64;
        self.freq_rel /= n;
        self.perf_rel /= n;
        self.power_w /= n;
    }
}

/// The sums for one (environment, scheme) pair: the suite cell, each
/// phase weighted `ph.weight / workloads`, and one cell per workload,
/// each phase weighted `ph.weight` — what a one-workload campaign sums
/// into its suite cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tally {
    pub suite: CellResult,
    pub workloads: Vec<CellResult>,
}

impl Tally {
    pub(crate) fn new(workloads: usize) -> Self {
        Self {
            suite: CellResult::default(),
            workloads: vec![CellResult::default(); workloads],
        }
    }

    /// Adds one phase of workload `w`, measured once: `add(cell, weight)`
    /// runs for the suite cell and for `w`'s cell.
    fn add_phase(&mut self, w: usize, ph_weight: f64, add: impl Fn(&mut CellResult, f64)) {
        add(&mut self.suite, ph_weight / self.workloads.len() as f64);
        add(&mut self.workloads[w], ph_weight);
    }

    fn accumulate(&mut self, other: &Tally) {
        self.suite.accumulate(&other.suite);
        for (acc, cell) in self.workloads.iter_mut().zip(&other.workloads) {
            acc.accumulate(cell);
        }
    }

    fn normalize(&mut self, samples: usize) {
        for cell in std::iter::once(&mut self.suite).chain(&mut self.workloads) {
            cell.normalize(samples);
        }
    }
}

/// A full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// `Baseline` reference (no error tolerance: clocked at `fvar`).
    pub baseline: CellResult,
    /// `NoVar` reference (no variation: nominal frequency).
    pub novar: CellResult,
    /// One cell per requested (environment, scheme) pair, in request order.
    pub cells: Vec<(Environment, Scheme, CellResult)>,
    /// Per entry of `cells`, one cell per workload in
    /// [`Campaign::workloads`] order: the workload's mean over the chip
    /// population (the per-application detail behind the suite average).
    per_workload: Vec<Vec<CellResult>>,
    /// Chips quarantined by per-chip faults, in chip order (empty on a
    /// clean run). Quarantined chips are excluded from the averages
    /// above, which normalize by the number of *completed* chips.
    pub chips_failed: Vec<ChipFailure>,
}

impl CampaignResult {
    /// Looks up a cell.
    pub fn cell(&self, env: Environment, scheme: Scheme) -> Option<&CellResult> {
        self.pair_index(env, scheme).map(|i| &self.cells[i].2)
    }

    /// Looks up a pair's per-workload cells, in [`Campaign::workloads`]
    /// order.
    pub fn workload_cells(&self, env: Environment, scheme: Scheme) -> Option<&[CellResult]> {
        self.pair_index(env, scheme)
            .map(|i| self.per_workload[i].as_slice())
    }

    fn pair_index(&self, env: Environment, scheme: Scheme) -> Option<usize> {
        self.cells
            .iter()
            .position(|(e, s, _)| *e == env && *s == scheme)
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// System configuration.
    pub config: EvalConfig,
    /// Number of chips in the Monte Carlo population (the paper uses 100).
    pub chips: usize,
    /// Base RNG seed for the population.
    pub base_seed: u64,
    /// Instructions per phase measurement in the profiler.
    pub profile_budget: u64,
    /// Workloads to run (defaults to all 16).
    pub workloads: Vec<Workload>,
    /// Fuzzy-controller training budget. Each teacher bank key trains
    /// once per (chip, core) and serves every Fuzzy-Dyn environment that
    /// holds it.
    pub training: TrainingBudget,
    /// Cores exercised per chip (the paper runs each app on all 4; 1 is
    /// statistically close at a quarter of the cost).
    pub cores_per_chip: usize,
    /// Worker threads for the chip-parallel Monte Carlo (0 = all cores).
    pub threads: usize,
    /// Worker threads *inside* each chip's sweep (0 = all cores): the
    /// chip's cores are claimed off a shared counter, each running all
    /// its (environment, scheme) cells in pair order, and merged in core
    /// order (Fuzzy-Dyn training runs before them, serially per core),
    /// so results and traces are bit-identical for any setting. The unit
    /// is a core, not a cell, because a core's Static and Exh-Dyn cells
    /// share one memo of oracle answers; with one core per chip, more
    /// than one worker here finds nothing to run in parallel.
    /// Execution-only — excluded from the checkpoint fingerprint, like
    /// [`Campaign::threads`].
    pub intra_chip_threads: usize,
    /// Fault-injection hook for crash/quarantine tests: the chip at this
    /// index runs its sweep, then fails where a real fault would, so it
    /// is quarantined and leaves no trace output. Execution-only —
    /// excluded from the checkpoint fingerprint, like
    /// [`Campaign::threads`].
    pub fail_chip: Option<usize>,
    /// Directory for fault postmortem bundles. When set, a quarantined
    /// chip's last [`eval_trace::POSTMORTEM_DECISIONS`] traced decisions
    /// are written atomically to `<dir>/chip-<idx>.jsonl` (stamped
    /// `postmortem-jsonl`); under a disabled tracer the bundle holds the
    /// header only. Execution-only — diagnostics never affect results,
    /// so it is excluded from the checkpoint fingerprint, like
    /// [`Campaign::threads`].
    pub postmortem_dir: Option<PathBuf>,
}

impl Campaign {
    /// A campaign with the paper's protocol but a configurable chip count.
    pub fn new(chips: usize) -> Self {
        Self {
            config: EvalConfig::micro08(),
            chips,
            base_seed: 2008,
            profile_budget: 8_000,
            workloads: Workload::all(),
            training: TrainingBudget::default(),
            cores_per_chip: 1,
            threads: 0,
            intra_chip_threads: 1,
            fail_chip: None,
            postmortem_dir: None,
        }
    }

    /// The RNG stream seed for one chip of the population (recorded in
    /// checkpoint records and verified on resume).
    pub fn chip_seed(&self, chip_idx: usize) -> u64 {
        self.base_seed.wrapping_add(chip_idx as u64 * 0x9E37)
    }

    /// Runs the campaign over the given environments and schemes, tracing
    /// into `tracer`: emits a `campaign-start` event,
    /// per-chip `chip-start` markers plus tester/training/decision events,
    /// a live `campaign.chips_done` counter (recorded as each chip
    /// commits, for progress decorators), and span timings into
    /// `tracer`.
    ///
    /// Workers record into per-chip buffers that are replayed into the
    /// caller's sink *incrementally, in chip-index order*: as soon as the
    /// commit frontier reaches a finished chip it is replayed (and the
    /// sink flushed), so a streaming sink grows one complete chip at a
    /// time while the event stream stays identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] if a reference operating point turns out
    /// to be thermally infeasible, or if *every* chip was quarantined.
    /// Individual chip faults do not abort the sweep: a failed chip is
    /// excluded from the averages and reported in
    /// [`CampaignResult::chips_failed`] and the `campaign.chips_failed`
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if `chips`, `workloads` or `cores_per_chip` is empty/zero.
    pub fn run_traced(
        &self,
        envs: &[Environment],
        schemes: &[Scheme],
        tracer: Tracer<'_>,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_core(envs, schemes, tracer, None)
    }

    /// [`Campaign::run_traced`] with chip-level checkpointing: after each
    /// chip's trace records are committed, a compact record of its
    /// results and metric contributions is appended (and flushed) to the
    /// sidecar at [`CheckpointOptions::path`]. With
    /// [`CheckpointOptions::resume`], a sidecar left by an interrupted
    /// run is verified against this campaign's fingerprint, its completed
    /// chips are skipped, and the merged [`CampaignResult`] is
    /// bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Everything [`Campaign::run_traced`] returns, plus
    /// [`CampaignError::Checkpoint`] for sidecar I/O failures, corruption
    /// before the final line, or a fingerprint mismatch on resume.
    ///
    /// # Panics
    ///
    /// Panics if `chips`, `workloads` or `cores_per_chip` is empty/zero.
    pub fn run_checkpointed(
        &self,
        envs: &[Environment],
        schemes: &[Scheme],
        tracer: Tracer<'_>,
        opts: &CheckpointOptions,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_core(envs, schemes, tracer, Some(opts))
    }

    fn run_core(
        &self,
        envs: &[Environment],
        schemes: &[Scheme],
        tracer: Tracer<'_>,
        ckpt: Option<&CheckpointOptions>,
    ) -> Result<CampaignResult, CampaignError> {
        assert!(self.chips > 0, "need at least one chip");
        assert!(!self.workloads.is_empty(), "need at least one workload");
        assert!(self.cores_per_chip >= 1, "need at least one core");

        let pairs: Vec<(Environment, Scheme)> = envs
            .iter()
            .flat_map(|e| schemes.iter().map(move |s| (*e, *s)))
            .collect();

        // --- checkpoint reconciliation ---
        // Before any trace output, so a refused resume leaves the sink
        // untouched. On resume the sidecar is rewritten from the loaded
        // records: this drops a torn final line and keeps every append
        // below landing on a clean line boundary.
        let resumed = self.load_resumable(envs, schemes, pairs.len(), ckpt)?;
        let mut writer = match ckpt {
            Some(opts) => {
                let fp = checkpoint::fingerprint(self, envs, schemes);
                let mut w = CheckpointWriter::create(&opts.path, fp, self.chips)
                    .map_err(CampaignError::Checkpoint)?;
                for rec in &resumed {
                    w.append(rec).map_err(CampaignError::Checkpoint)?;
                }
                Some(w)
            }
            None => None,
        };
        let start_at = resumed.len();

        let _campaign_span = tracer.span("campaign");
        let factory = ChipFactory::new(self.config.clone());
        let profiles = fan_out::profiles(
            &self.workloads,
            self.profile_budget,
            self.base_seed,
            self.threads,
        );

        // --- NoVar reference ---
        let novar_chip = factory.no_variation();
        let novar_perf: Vec<f64> = profiles
            .iter()
            .map(|p| self.novar_perf(p))
            .collect();
        let novar = self.reference_cell(
            novar_chip.core(0),
            GHz::raw(self.config.f_nominal_ghz),
            &profiles,
            &novar_perf,
            tracer,
        )?;

        // --- population cells ---
        // Chips are independent Monte Carlo samples, so they run in
        // parallel; `fan_out::ordered` commits them in chip order, keeping
        // the result bit-identical to a serial run.
        if start_at == 0 {
            // On resume the campaign-start event (and the resumed chips'
            // event lines) already live in the on-disk trace.
            tracer.event(|| Event::CampaignStart {
                chips: self.chips as u64,
                workloads: self.workloads.len() as u64,
                cells: pairs.len() as u64,
            });
        }
        if start_at > 0 {
            tracer.count_n(names::CAMPAIGN_CHIPS_RESUMED, start_at as u64);
            tracer.count_n(names::CAMPAIGN_CHIPS_DONE, start_at as u64);
        }

        // Sums run in chip order: the resumed prefix, then each chip as
        // it commits.
        let mut baseline = CellResult::default();
        let mut sums = vec![Tally::new(profiles.len()); pairs.len()];
        let mut chips_failed: Vec<ChipFailure> = Vec::new();
        let mut merge = |chip: usize, outcome: &RecordedOutcome| match outcome {
            RecordedOutcome::Ok {
                baseline: chip_baseline,
                cells: chip_cells,
            } => {
                baseline.accumulate(chip_baseline);
                for (acc, cell) in sums.iter_mut().zip(chip_cells) {
                    acc.accumulate(cell);
                }
            }
            RecordedOutcome::Failed { error } => {
                tracer.count(names::CAMPAIGN_CHIPS_FAILED);
                chips_failed.push(ChipFailure {
                    chip,
                    error: error.clone(),
                });
            }
        };
        // Replaying each resumed chip's captured metrics (counters,
        // gauges, per-name-ordered observations) rebuilds the registry
        // bit-identically to having run those chips in this process.
        for (chip_idx, rec) in resumed.iter().enumerate() {
            tracer.replay(rec.metrics.to_updates());
            merge(chip_idx, &rec.outcome);
        }

        // Resolve the postmortem destination once: the bundle header
        // carries the same config fingerprint as the checkpoint sidecar,
        // so a postmortem can be matched to the campaign that produced it.
        let postmortem = self.postmortem_dir.as_deref().map(|dir| PostmortemSink {
            dir,
            fingerprint: checkpoint::fingerprint(self, envs, schemes),
        });

        let mut ckpt_error = None;
        let swept = fan_out::ordered(
            start_at..self.chips,
            self.threads,
            tracer,
            |chip_idx, chip_tracer| {
                match self.run_one_chip(
                    &factory,
                    chip_idx,
                    &pairs,
                    &profiles,
                    &novar_perf,
                    chip_tracer,
                ) {
                    Ok((baseline, cells)) => RecordedOutcome::Ok { baseline, cells },
                    Err(error) => RecordedOutcome::Failed {
                        error: error.to_string(),
                    },
                }
            },
            |chip_idx, outcome, records| {
                // Replay (which flushes a streaming sink) *before* the
                // checkpoint append: a chip in the sidecar is always
                // complete in the trace. A quarantined chip's records
                // never reach the trace; they only feed its postmortem.
                let mut metrics = checkpoint::CapturedMetrics::default();
                match &outcome {
                    RecordedOutcome::Ok { .. } => {
                        if writer.is_some() {
                            metrics = capture_metrics(&records);
                        }
                        tracer.replay(records);
                    }
                    RecordedOutcome::Failed { error } => {
                        if let Some(sink) = &postmortem {
                            sink.dump(self, chip_idx, error, &records, tracer);
                        }
                    }
                }
                merge(chip_idx, &outcome);
                if let Some(writer) = writer.as_mut() {
                    let rec = ChipRecord {
                        chip: chip_idx,
                        seed: self.chip_seed(chip_idx),
                        outcome,
                        metrics,
                    };
                    if let Err(err) = writer.append(&rec) {
                        ckpt_error = Some(err);
                        return ControlFlow::Break(());
                    }
                }
                // Live progress signal for progress decorators; counter
                // adds commute, so the end-of-run snapshot is unchanged.
                tracer.count(names::CAMPAIGN_CHIPS_DONE);
                ControlFlow::Continue(())
            },
        );
        if swept.is_err() {
            return Err(CampaignError::Internal("worker thread panicked"));
        }
        if let Some(err) = ckpt_error {
            return Err(CampaignError::Checkpoint(err));
        }

        let ok_chips = self.chips - chips_failed.len();
        if ok_chips == 0 {
            return Err(CampaignError::AllChipsFailed {
                first: chips_failed
                    .first()
                    .map(|f| f.error.clone())
                    .unwrap_or_default(),
            });
        }
        // Quarantined chips contribute nothing, so the averages normalize
        // by the chips that actually completed.
        let samples = ok_chips * self.cores_per_chip;
        baseline.normalize(samples);
        for sum in &mut sums {
            sum.normalize(samples);
        }
        Ok(CampaignResult {
            baseline,
            novar,
            cells: pairs
                .iter()
                .zip(&sums)
                .map(|((e, s), t)| (*e, *s, t.suite))
                .collect(),
            per_workload: sums.into_iter().map(|t| t.workloads).collect(),
            chips_failed,
        })
    }

    /// Loads and validates the resumable prefix of the checkpoint sidecar
    /// (empty when not checkpointing, not resuming, or no usable sidecar
    /// exists).
    fn load_resumable(
        &self,
        envs: &[Environment],
        schemes: &[Scheme],
        cells_per_chip: usize,
        ckpt: Option<&CheckpointOptions>,
    ) -> Result<Vec<ChipRecord>, CampaignError> {
        let Some(opts) = ckpt.filter(|o| o.resume) else {
            return Ok(Vec::new());
        };
        let Some(loaded) = checkpoint::load(&opts.path).map_err(CampaignError::Checkpoint)?
        else {
            return Ok(Vec::new());
        };
        let expected = checkpoint::fingerprint(self, envs, schemes);
        if loaded.fingerprint != expected {
            return Err(CampaignError::Checkpoint(
                CheckpointError::FingerprintMismatch {
                    expected,
                    found: loaded.fingerprint,
                },
            ));
        }
        for (i, rec) in loaded.records.iter().enumerate() {
            // Header line is line 1, chip `i` is line `i + 2`.
            let corrupt = |message: String| {
                CampaignError::Checkpoint(CheckpointError::Corrupt {
                    line: i + 2,
                    message,
                })
            };
            if rec.seed != self.chip_seed(i) {
                return Err(corrupt(format!(
                    "chip {i} seed {} does not match the campaign's stream seed {}",
                    rec.seed,
                    self.chip_seed(i)
                )));
            }
            if let RecordedOutcome::Ok { cells, .. } = &rec.outcome {
                if cells.len() != cells_per_chip {
                    return Err(corrupt(format!(
                        "chip {i} has {} cells, campaign requests {cells_per_chip}",
                        cells.len(),
                    )));
                }
                let workloads = self.workloads.len();
                if let Some(cell) = cells.iter().find(|c| c.workloads.len() != workloads) {
                    return Err(corrupt(format!(
                        "chip {i} has {} per-workload cells, campaign runs {workloads} workloads",
                        cell.workloads.len(),
                    )));
                }
            }
        }
        Ok(loaded.records)
    }

    /// All measurements for one chip: the baseline reference plus one
    /// cell per requested (environment, scheme) pair, summed over the
    /// chip's cores. An error here quarantines the chip (the sweep records
    /// it as failed and carries on).
    ///
    /// The chip marker, characterization, per-core reference baselines
    /// and Fuzzy-Dyn training run serially into the chip tracer: each
    /// core trains one teacher sweep over the chip's Fuzzy-Dyn
    /// environments, so a bank key shared by several environments is
    /// trained once and its `ControllerTrained` event lands in key order
    /// whatever the worker count. The remaining work is one unit per
    /// core — the core's (environment, scheme) cells in pair order, see
    /// [`Campaign::run_unit`] — fanned out over
    /// [`Campaign::intra_chip_threads`] workers by `fan_out::ordered`,
    /// which replays and sums them in core order, so the chip's event
    /// stream and every f64 sum are bit-identical for any thread count.
    /// On a fault the unit stops after the failing pair and the replay
    /// stops after that unit — exactly what a serial sweep would have
    /// traced — and the chip is quarantined. The injected
    /// [`Campaign::fail_chip`] fault fires after the sweep, so it leaves
    /// the buffer a real fault would.
    fn run_one_chip(
        &self,
        factory: &ChipFactory,
        chip_idx: usize,
        pairs: &[(Environment, Scheme)],
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
        tracer: Tracer<'_>,
    ) -> Result<(CellResult, Vec<Tally>), CampaignError> {
        let _chip_span = tracer.span("chip");
        tracer.event(|| Event::ChipStart {
            chip: chip_idx as u64,
        });
        let chip = factory.chip_traced(self.chip_seed(chip_idx), tracer);
        let mut baseline = CellResult::default();
        for core_idx in 0..self.cores_per_chip {
            // Baseline: clocked at fvar, error free.
            let core = chip.core(core_idx);
            let fvar = core.fvar_nominal(&self.config);
            let cell = self.reference_cell(core, fvar, profiles, novar_perf, tracer)?;
            baseline.accumulate(&cell);
        }

        let fuzzy_envs: Vec<Environment> = pairs
            .iter()
            .filter(|(_, scheme)| *scheme == Scheme::FuzzyDyn)
            .map(|(env, _)| *env)
            .collect();
        let fuzzy: Vec<Vec<FuzzyOptimizer>> = if fuzzy_envs.is_empty() {
            Vec::new()
        } else {
            (0..self.cores_per_chip)
                .map(|core_idx| {
                    FuzzyOptimizer::train_envs(
                        &self.config,
                        &chip,
                        core_idx,
                        &fuzzy_envs,
                        &self.training,
                        tracer,
                    )
                })
                .collect()
        };

        let mut cells = vec![Tally::new(profiles.len()); pairs.len()];
        let mut fault = None;
        fan_out::ordered(
            0..self.cores_per_chip,
            self.intra_chip_threads,
            tracer,
            |core_idx, unit_tracer| {
                let fuzzy = fuzzy.get(core_idx).map_or(&[][..], Vec::as_slice);
                self.run_unit(
                    chip.core(core_idx),
                    fuzzy,
                    pairs,
                    profiles,
                    novar_perf,
                    unit_tracer,
                )
            },
            |_, outcome, records| {
                tracer.replay(records);
                match outcome {
                    Ok(tallies) => {
                        for (cell, tally) in cells.iter_mut().zip(&tallies) {
                            cell.accumulate(tally);
                        }
                        ControlFlow::Continue(())
                    }
                    Err(error) => {
                        fault = Some(error);
                        ControlFlow::Break(())
                    }
                }
            },
        )
        // A unit panic surfaces where a chip panic does.
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        match fault {
            Some(error) => Err(error),
            None if self.fail_chip == Some(chip_idx) => {
                Err(CampaignError::Internal("injected chip fault (fail_chip)"))
            }
            None => Ok((baseline, cells)),
        }
    }

    /// One core's share of a chip's sweep: its (environment, scheme)
    /// cells in pair order, one tally each. `fuzzy` holds the core's
    /// trained optimizers, one per Fuzzy-Dyn pair in pair order. The
    /// Static and Exh-Dyn pairs ask the exhaustive oracle through one
    /// [`SceneMemo`], so a scene an earlier pair has solved — the
    /// Figure-10 environments nest — is answered without a search. Each
    /// pair gets a fresh [`ExhaustiveOptimizer`], so its solve cache
    /// (and the `solver.*` counters it flushes) stays per pair: one
    /// cache for all of a core's pairs would hold every point they
    /// solve. On a fault the remaining pairs do not run.
    fn run_unit(
        &self,
        core: &CoreModel,
        fuzzy: &[FuzzyOptimizer],
        pairs: &[(Environment, Scheme)],
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
        tracer: Tracer<'_>,
    ) -> Result<Vec<Tally>, CampaignError> {
        let memo = SceneMemo::default();
        let mut fuzzy_slot = 0;
        let mut tallies = Vec::with_capacity(pairs.len());
        for &(env, scheme) in pairs {
            let oracle = ExhaustiveOptimizer::new();
            let exhaustive = MemoOptimizer::new(&oracle, &memo);
            tallies.push(match scheme {
                Scheme::Static => {
                    self.run_static(core, env, &exhaustive, profiles, novar_perf, tracer)?
                }
                Scheme::FuzzyDyn => {
                    let fuzzy = &fuzzy[fuzzy_slot];
                    fuzzy_slot += 1;
                    self.run_dynamic(core, env, fuzzy, scheme, profiles, novar_perf, tracer)
                }
                Scheme::ExhDyn => {
                    self.run_dynamic(core, env, &exhaustive, scheme, profiles, novar_perf, tracer)
                }
            });
        }
        Ok(tallies)
    }

    /// NoVar performance of one workload (nominal f, no errors), weighted
    /// over phases.
    fn novar_perf(&self, profile: &WorkloadProfile) -> f64 {
        profile.weighted(|ph| {
            PerfModel::new(
                ph.cpi_comp(QueueSize::Full),
                ph.mr,
                ph.mp_ns,
                profile.rp_cycles,
            )
            .perf(self.config.f_nominal_ghz, 0.0)
        })
    }

    /// A non-adaptive reference cell (Baseline or NoVar): fixed frequency,
    /// nominal voltages, no checker, no errors.
    fn reference_cell(
        &self,
        core: &CoreModel,
        f: GHz,
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
        tracer: Tracer<'_>,
    ) -> Result<CellResult, CampaignError> {
        let settings = vec![(1.0, 0.0); N_SUBSYSTEMS];
        let mut cell = CellResult::default();
        for (profile, &ref_perf) in profiles.iter().zip(novar_perf) {
            for ph in &profile.phases {
                let weight = ph.weight / profiles.len() as f64;
                let eval = core
                    .evaluate(
                        &self.config,
                        self.config.th_c,
                        f,
                        &settings,
                        &ph.activity.alpha_f,
                        &ph.activity.rho,
                        &VariantSelection::default(),
                    )
                    .map_err(|source| {
                        let context = "reference machine at nominal voltages";
                        tracer.event(|| Event::Infeasible {
                            context,
                            subsystem: source.subsystem.to_string(),
                        });
                        CampaignError::Infeasible { context, source }
                    })?;
                let perf = PerfModel::new(
                    ph.cpi_comp(QueueSize::Full),
                    ph.mr,
                    ph.mp_ns,
                    profile.rp_cycles,
                )
                .perf(f.get(), 0.0);
                cell.freq_rel += weight * f.get() / self.config.f_nominal_ghz;
                cell.perf_rel += weight * perf / ref_perf;
                // No checker in the reference machines.
                cell.power_w += weight * (eval.total_power_w - self.config.checker_w);
            }
        }
        Ok(cell)
    }

    /// Dynamic adaptation: the controller runs at every phase.
    #[allow(clippy::too_many_arguments)]
    fn run_dynamic(
        &self,
        core: &CoreModel,
        env: Environment,
        optimizer: &dyn Optimizer,
        scheme: Scheme,
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
        tracer: Tracer<'_>,
    ) -> Tally {
        let controller = OptimizerController::new(scheme.trace_label(), optimizer);
        let timeline = AdaptationTimeline::micro08();
        let mut tally = Tally::new(profiles.len());
        for (w, (profile, &ref_perf)) in profiles.iter().zip(novar_perf).enumerate() {
            for ph in &profile.phases {
                let d = controller.decide(
                    &self.config,
                    core,
                    env,
                    ph,
                    profile.class,
                    profile.rp_cycles,
                    self.config.th_c,
                    profile.name,
                    ph.index as u64,
                    tracer,
                );
                let overhead = timeline.overhead_fraction(d.retune_steps);
                let power_w = self.billed_power(env, d.evaluation.total_power_w);
                tally.add_phase(w, ph.weight, |cell, weight| {
                    cell.freq_rel += weight * d.f_ghz / self.config.f_nominal_ghz;
                    cell.perf_rel += weight * d.perf_bips * (1.0 - overhead) / ref_perf;
                    cell.power_w += weight * power_w;
                    cell.outcomes.add(d.outcome);
                });
            }
        }
        // Metrics only (never golden event lines): solver cache counters.
        controller.flush_metrics(tracer);
        tally
    }

    /// Static scheme: one conservative configuration per (chip, workload),
    /// chosen by `oracle` for worst-case activity at the hottest heat sink
    /// the spec allows ([`StaticController`] provisions for `TH_MAX`),
    /// then held for the whole run.
    fn run_static(
        &self,
        core: &CoreModel,
        env: Environment,
        oracle: &dyn Optimizer,
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
        tracer: Tracer<'_>,
    ) -> Result<Tally, CampaignError> {
        let controller = StaticController::new(oracle);
        let mut tally = Tally::new(profiles.len());
        for (w, (profile, &ref_perf)) in profiles.iter().zip(novar_perf).enumerate() {
            let worst = synthetic_worst_phase(profile);
            let d = controller.decide(
                &self.config,
                core,
                env,
                &worst,
                profile.class,
                profile.rp_cycles,
                self.config.th_c,
                profile.name,
                worst.index as u64,
                tracer,
            );
            // Hold (f, settings, variants) fixed; per-phase consequences.
            for ph in &profile.phases {
                let eval = core
                    .evaluate(
                        &self.config,
                        self.config.th_c,
                        GHz::raw(d.f_ghz),
                        &d.settings,
                        &ph.activity.alpha_f,
                        &ph.activity.rho,
                        &d.variants,
                    )
                    .map_err(|source| {
                        let context = "worst-case-provisioned static configuration";
                        tracer.event(|| Event::Infeasible {
                            context,
                            subsystem: source.subsystem.to_string(),
                        });
                        CampaignError::Infeasible { context, source }
                    })?;
                let perf = PerfModel::new(
                    ph.cpi_comp(queue_size(profile.class, &d.variants)),
                    ph.mr,
                    ph.mp_ns,
                    profile.rp_cycles,
                )
                .perf(d.f_ghz, eval.pe_per_instruction.clamp(0.0, 1.0));
                let power_w = self.billed_power(env, eval.total_power_w);
                tally.add_phase(w, ph.weight, |cell, weight| {
                    cell.freq_rel += weight * d.f_ghz / self.config.f_nominal_ghz;
                    cell.perf_rel += weight * perf / ref_perf;
                    cell.power_w += weight * power_w;
                });
            }
        }
        // Metrics only (never golden event lines): solver cache counters.
        controller.flush_metrics(tracer);
        Ok(tally)
    }

    /// Checker power is only billed when the environment has a checker.
    fn billed_power(&self, env: Environment, total_w: f64) -> f64 {
        if env.checker {
            total_w
        } else {
            total_w - self.config.checker_w
        }
    }
}

/// The conservative aggregate a static configuration is provisioned for:
/// worst-case activity/exercise rates and instruction-weighted CPI/miss
/// behaviour.
fn synthetic_worst_phase(profile: &WorkloadProfile) -> PhaseProfile {
    let worst: ActivityVector = profile.worst_case_activity();
    PhaseProfile {
        index: usize::MAX,
        weight: 1.0,
        cpi_comp_full: profile.weighted(|p| p.cpi_comp_full),
        cpi_comp_small: profile.weighted(|p| p.cpi_comp_small),
        mr: profile.weighted(|p| p.mr),
        mp_ns: profile.weighted(|p| p.mp_ns),
        activity: worst,
    }
}

/// Resolved postmortem destination for one campaign run.
struct PostmortemSink<'a> {
    dir: &'a Path,
    fingerprint: u64,
}

impl PostmortemSink<'_> {
    /// Writes one quarantined chip's bundle — rendered from the
    /// `records` its sweep buffered — atomically, stamps it
    /// (`postmortem-jsonl`), and bumps the timing-sidecar-only
    /// `campaign.postmortems` counter. Best-effort: a dump failure is
    /// reported on stderr but never changes the campaign outcome —
    /// the postmortem is diagnostics, not results.
    fn dump(
        &self,
        campaign: &Campaign,
        chip_idx: usize,
        error: &str,
        records: &[Record],
        tracer: Tracer<'_>,
    ) {
        let body = render_postmortem(
            &PostmortemHeader {
                chip: chip_idx as u64,
                seed: campaign.chip_seed(chip_idx),
                error,
                config_fingerprint: &provenance::hex64(self.fingerprint),
            },
            records,
        );
        let path = self.dir.join(format!("chip-{chip_idx}.jsonl"));
        let written = std::fs::create_dir_all(self.dir)
            .and_then(|()| eval_trace::write_atomic(&path, body.as_bytes()))
            .and_then(|()| {
                provenance::stamp_jsonl_artifact(&path, "postmortem-jsonl", Some(self.fingerprint))
            });
        match written {
            Ok(_) => tracer.timing_count(names::CAMPAIGN_POSTMORTEMS),
            // lint:allow(no-println): the chip already faulted; a dump
            // failure must not abort the campaign, so warn best-effort.
            Err(e) => eprintln!(
                "warning: postmortem dump for chip {chip_idx} failed: {e}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        let mut c = Campaign::new(2);
        c.profile_budget = 4_000;
        c.workloads = vec![
            Workload::by_name("swim").unwrap(),
            Workload::by_name("crafty").unwrap(),
        ];
        c.training = TrainingBudget {
            examples: 60,
            ..TrainingBudget::default()
        };
        c
    }

    #[test]
    fn baseline_is_slower_than_novar_and_ts_beats_baseline() {
        let c = tiny_campaign();
        let r = c
            .run_traced(&[Environment::TS], &[Scheme::ExhDyn], Tracer::noop())
            .expect("campaign runs");
        assert!(r.baseline.freq_rel < 0.95, "baseline {}", r.baseline.freq_rel);
        assert!((r.novar.freq_rel - 1.0).abs() < 1e-9);
        let ts = r.cell(Environment::TS, Scheme::ExhDyn).unwrap();
        assert!(
            ts.freq_rel > r.baseline.freq_rel,
            "TS {} vs baseline {}",
            ts.freq_rel,
            r.baseline.freq_rel
        );
    }

    #[test]
    fn asv_improves_on_ts_and_power_stays_within_pmax() {
        let c = tiny_campaign();
        let r = c
            .run_traced(
                &[Environment::TS, Environment::TS_ASV],
                &[Scheme::ExhDyn],
                Tracer::noop(),
            )
            .expect("campaign runs");
        let ts = r.cell(Environment::TS, Scheme::ExhDyn).unwrap();
        let asv = r.cell(Environment::TS_ASV, Scheme::ExhDyn).unwrap();
        assert!(asv.freq_rel > ts.freq_rel);
        assert!(asv.power_w <= c.config.constraints.p_max_w + 1e-6);
        assert!(asv.power_w > ts.power_w);
    }

    #[test]
    fn static_is_no_faster_than_dynamic() {
        let c = tiny_campaign();
        let r = c
            .run_traced(&[Environment::TS_ASV], &[Scheme::Static, Scheme::ExhDyn], Tracer::noop())
            .expect("campaign runs");
        let st = r.cell(Environment::TS_ASV, Scheme::Static).unwrap();
        let dy = r.cell(Environment::TS_ASV, Scheme::ExhDyn).unwrap();
        assert!(
            dy.freq_rel >= st.freq_rel - 0.02,
            "dyn {} vs static {}",
            dy.freq_rel,
            st.freq_rel
        );
    }

    #[test]
    fn traced_campaign_matches_untraced_and_buffers_deterministically() {
        use eval_trace::Collector;
        let c = tiny_campaign();
        let envs = [Environment::TS];
        let schemes = [Scheme::Static, Scheme::ExhDyn];
        let plain = c.run_traced(&envs, &schemes, Tracer::noop()).expect("campaign runs");

        let sink_a = Collector::new();
        let timing_a = Collector::new();
        let traced = c
            .run_traced(&envs, &schemes, Tracer::with_timing(&sink_a, &timing_a))
            .expect("traced campaign runs");
        assert_eq!(plain, traced, "tracing must not perturb results");

        // Start event, per-chip tester events, and one decision per
        // (chip, scheme, workload[, phase]) cell all present.
        let events = sink_a.events();
        assert!(matches!(events[0], Event::CampaignStart { chips: 2, .. }));
        let decisions = events
            .iter()
            .filter(|e| matches!(e, Event::Decision(_)))
            .count();
        // Static: 1 decision/workload/chip; ExhDyn: 1/phase/workload/chip.
        assert!(decisions >= 2 * (2 + 2), "decisions {decisions}");
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::TesterMeasurement { .. })));

        // Same campaign on one thread, profiling off: byte-identical
        // event payloads — the primary stream never sees wall-clock data.
        let mut serial = c.clone();
        serial.threads = 1;
        let sink_b = Collector::new();
        serial
            .run_traced(&envs, &schemes, Tracer::new(&sink_b))
            .expect("serial traced campaign runs");
        assert_eq!(sink_a.event_lines(), sink_b.event_lines());

        // Spans land on the timing sink only. A chip span roots its own
        // path on a worker thread and nests under `campaign` when the
        // sweep runs on the calling thread (one core).
        assert!(sink_a.spans().is_empty(), "span leaked into primary sink");
        assert!(timing_a
            .spans()
            .keys()
            .any(|path| path.starts_with("chip") || path.starts_with("campaign/chip")));
        assert!(timing_a
            .registry()
            .histogram("decision.latency_us")
            .is_some_and(|h| h.count() > 0));
    }

    #[test]
    fn injected_fault_dumps_a_rendered_postmortem_bundle() {
        use eval_trace::Collector;
        let dir = std::env::temp_dir().join(format!(
            "eval-adapt-postmortem-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut c = tiny_campaign();
        c.fail_chip = Some(1);
        c.postmortem_dir = Some(dir.clone());
        let timing = Collector::new();
        let primary = Collector::new();
        let r = c
            .run_traced(
                &[Environment::TS],
                &[Scheme::ExhDyn],
                Tracer::with_timing(&primary, &timing),
            )
            .expect("the other chip completes");
        assert_eq!(r.chips_failed.len(), 1);

        let text = std::fs::read_to_string(dir.join("chip-1.jsonl"))
            .expect("postmortem bundle written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"kind\":\"postmortem\""), "{text}");
        assert!(lines[0].contains("injected chip fault"), "{text}");
        assert!(lines[0].contains("\"config_fingerprint\""), "{text}");
        let flights: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"flight\""))
            .collect();
        // The injected fault fires after the sweep, so the bundle holds
        // all four of the chip's decisions (two phases per workload), in
        // trace order, each with an operating point and its binding
        // constraint.
        assert!(lines[0].contains("\"recorded\":4"), "{text}");
        assert_eq!(flights.len(), 4, "{text}");
        for (seq, line) in flights.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{seq},")), "{text}");
        }
        assert!(flights.iter().all(|l| l.contains("\"f_ghz\":")), "{text}");
        assert!(flights.iter().all(|l| l.contains("\"binding\":")), "{text}");
        // Stamped artifact: provenance footer is the last line.
        assert!(
            lines.last().unwrap().contains("\"kind\":\"provenance\""),
            "{text}"
        );
        // The dump is visible on the timing side only.
        assert_eq!(timing.registry().counter("campaign.postmortems"), 1);
        assert_eq!(primary.registry().counter("campaign.postmortems"), 0);
        // The quarantined chip still left no trace output.
        assert!(primary.events().iter().all(|e| !matches!(
            e,
            eval_trace::Event::ChipStart { chip: 1 }
        )));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn intra_chip_threads_do_not_perturb_results_or_traces() {
        use eval_trace::Collector;
        // The Fuzzy-Dyn pair shares its 15 normal banks, so the shared
        // training must land identically whatever the worker count.
        let setups: [(&[Environment], &[Scheme]); 2] = [
            (
                &[Environment::TS, Environment::TS_ASV],
                &[Scheme::Static, Scheme::ExhDyn],
            ),
            (
                &[Environment::TS_ASV, Environment::TS_ASV_Q],
                &[Scheme::FuzzyDyn],
            ),
        ];
        for (envs, schemes) in setups {
            let mut serial = tiny_campaign();
            serial.chips = 1;
            serial.intra_chip_threads = 1;
            let sink_serial = Collector::new();
            let r_serial = serial
                .run_traced(envs, schemes, Tracer::new(&sink_serial))
                .expect("serial intra-chip campaign runs");
            for workers in [2usize, 0] {
                let mut par = serial.clone();
                par.intra_chip_threads = workers;
                let sink_par = Collector::new();
                let r_par = par
                    .run_traced(envs, schemes, Tracer::new(&sink_par))
                    .expect("parallel intra-chip campaign runs");
                assert_eq!(r_serial, r_par, "results drifted at {workers} workers");
                assert_eq!(
                    sink_serial.event_lines(),
                    sink_par.event_lines(),
                    "trace drifted at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn figure10_scene_memo_decides_as_a_fresh_oracle_per_pair() {
        use eval_trace::Collector;
        let mut c = tiny_campaign();
        c.cores_per_chip = 2;
        let envs = Environment::FIGURE10;
        let schemes = [Scheme::Static, Scheme::ExhDyn];
        let pairs: Vec<(Environment, Scheme)> = envs
            .iter()
            .flat_map(|e| schemes.iter().map(move |s| (*e, *s)))
            .collect();
        let profiles = fan_out::profiles(&c.workloads, c.profile_budget, c.base_seed, 1);
        let novar_perf: Vec<f64> = profiles.iter().map(|p| c.novar_perf(p)).collect();
        let factory = ChipFactory::new(c.config.clone());
        let decisions = |sink: &Collector| -> Vec<String> {
            let lines = sink.event_lines();
            lines
                .into_iter()
                .filter(|l| l.contains("\"event\":\"decision\""))
                .collect()
        };
        let timing = Collector::new();
        for chip_idx in 0..c.chips {
            let memoized = Collector::new();
            let (_, tallies) = c
                .run_one_chip(
                    &factory,
                    chip_idx,
                    &pairs,
                    &profiles,
                    &novar_perf,
                    Tracer::with_timing(&memoized, &timing),
                )
                .expect("chip runs");
            // The same cells, core-major, each pair with a fresh oracle
            // and no memo: what every pair asked before the memo.
            let chip = factory.chip(c.chip_seed(chip_idx));
            let fresh = Collector::new();
            let tracer = Tracer::with_timing(&fresh, &timing);
            let mut expected = vec![Tally::new(profiles.len()); pairs.len()];
            for core_idx in 0..c.cores_per_chip {
                let core = chip.core(core_idx);
                for (cell, &(env, scheme)) in expected.iter_mut().zip(&pairs) {
                    let oracle = ExhaustiveOptimizer::new();
                    let tally = match scheme {
                        Scheme::Static => c
                            .run_static(core, env, &oracle, &profiles, &novar_perf, tracer)
                            .expect("static cell runs"),
                        _ => c.run_dynamic(
                            core,
                            env,
                            &oracle,
                            scheme,
                            &profiles,
                            &novar_perf,
                            tracer,
                        ),
                    };
                    cell.accumulate(&tally);
                }
            }
            assert_eq!(tallies, expected, "chip {chip_idx}: cells drifted");
            assert_eq!(decisions(&memoized), decisions(&fresh), "chip {chip_idx}");
            let hits = memoized.registry().counter(names::DECISION_MEMO_HITS);
            assert!(
                hits > 0,
                "chip {chip_idx}: the nested environments never hit"
            );
        }

        let run = |workers: usize| {
            let mut par = c.clone();
            par.intra_chip_threads = workers;
            let primary = Collector::new();
            let r = par
                .run_traced(&envs, &schemes, Tracer::with_timing(&primary, &timing))
                .expect("campaign runs");
            (r, primary.jsonl())
        };
        let (r1, trace1) = run(1);
        let (r2, trace2) = run(2);
        assert_eq!(r1, r2, "results drifted at 2 intra-chip workers");
        assert_eq!(
            trace1, trace2,
            "trace bytes drifted at 2 intra-chip workers"
        );
    }

    #[test]
    fn figure10_fuzzy_dyn_trains_each_bank_key_once_per_core() {
        use eval_trace::Collector;
        let mut c = tiny_campaign();
        c.chips = 1;
        c.cores_per_chip = 2;
        c.workloads.truncate(1);
        c.training.examples = 30;
        let sink = Collector::new();
        c.run_traced(
            &Environment::FIGURE10,
            &[Scheme::FuzzyDyn],
            Tracer::new(&sink),
        )
        .expect("campaign runs");
        // 102 bank slots per core over the six environments, 53 distinct
        // keys: TS 15, the ASV family 19, the ASV+ABB family 19.
        let reg = sink.registry();
        assert_eq!(reg.counter(names::FUZZY_CONTROLLERS_TRAINED), 2 * 53);
        assert_eq!(reg.counter(names::FUZZY_BANKS_REUSED), 2 * 49);
        let trained = sink
            .event_lines()
            .into_iter()
            .filter(|l| l.contains("\"event\":\"controller-trained\""))
            .collect::<Vec<_>>();
        assert_eq!(trained.len(), 2 * 53);
        for (family, n) in [
            ("\"asv\":false,\"abb\":false", 15),
            ("\"asv\":true,\"abb\":false", 19),
            ("\"asv\":true,\"abb\":true", 19),
        ] {
            assert_eq!(
                trained.iter().filter(|l| l.contains(family)).count(),
                2 * n,
                "{family}"
            );
        }
    }

    #[test]
    fn figure13_variants_in_one_campaign_match_their_own_campaigns() {
        use eval_trace::Collector;
        let mut c = tiny_campaign();
        c.workloads.truncate(1);
        c.training.examples = 30;
        // TS+ABB with no opt and with FU+Queue share every ABB bank key;
        // TS+ASV with Queue shares none with them.
        let variants = [
            Environment::FIGURE13[1],
            Environment::FIGURE13[13],
            Environment::FIGURE13[10],
        ];
        let sink = Collector::new();
        let joint = c
            .run_traced(&variants, &[Scheme::FuzzyDyn], Tracer::new(&sink))
            .expect("joint campaign runs");
        let mut trained_alone = 0;
        for env in variants {
            let alone_sink = Collector::new();
            let alone = c
                .run_traced(&[env], &[Scheme::FuzzyDyn], Tracer::new(&alone_sink))
                .expect("one-environment campaign runs");
            trained_alone += alone_sink
                .registry()
                .counter(names::FUZZY_CONTROLLERS_TRAINED);
            assert_eq!(
                joint.cell(env, Scheme::FuzzyDyn),
                alone.cell(env, Scheme::FuzzyDyn),
                "{}",
                env.name
            );
            assert_eq!(joint.baseline, alone.baseline);
        }
        // The shared keys are trained once per chip, not once per variant.
        let trained = sink.registry().counter(names::FUZZY_CONTROLLERS_TRAINED);
        assert!(trained < trained_alone, "{trained} vs {trained_alone}");
    }

    #[test]
    fn per_workload_cells_equal_one_workload_campaigns_bit_for_bit() {
        // Three chips of two cores: chip and core sums have three or more
        // terms, so a change in their order shows in the bits.
        let mut c = tiny_campaign();
        c.workloads.push(Workload::by_name("gzip").unwrap());
        c.chips = 3;
        c.cores_per_chip = 2;
        c.training.examples = 30;
        let env = Environment::TS_ASV;
        let joint = c
            .run_traced(&[env], &Scheme::ALL, Tracer::noop())
            .expect("joint campaign runs");
        for (w, workload) in c.workloads.iter().enumerate() {
            let mut alone = c.clone();
            alone.workloads = vec![workload.clone()];
            let r = alone
                .run_traced(&[env], &Scheme::ALL, Tracer::noop())
                .expect("one-workload campaign runs");
            for scheme in Scheme::ALL {
                let cells = joint.workload_cells(env, scheme).expect("pair requested");
                assert_eq!(cells.len(), 3);
                let (got, want) = (cells[w], *r.cell(env, scheme).expect("pair requested"));
                assert_eq!(
                    [got.freq_rel, got.perf_rel, got.power_w].map(f64::to_bits),
                    [want.freq_rel, want.perf_rel, want.power_w].map(f64::to_bits),
                    "{} {}",
                    workload.name,
                    scheme.label()
                );
                assert_eq!(got.outcomes, want.outcomes);
            }
        }
    }

    #[test]
    fn resume_refuses_a_record_with_the_wrong_workload_count() {
        use crate::checkpoint::{CapturedMetrics, CheckpointOptions, CheckpointWriter, ChipRecord};
        let c = tiny_campaign();
        let (envs, schemes) = ([Environment::TS], [Scheme::Static]);
        let path = std::env::temp_dir().join(format!(
            "eval-adapt-workload-count-{}.ckpt.jsonl",
            std::process::id()
        ));
        // Chip 0 committed one per-workload cell; the campaign runs two.
        let fp = checkpoint::fingerprint(&c, &envs, &schemes);
        let mut writer = CheckpointWriter::create(&path, fp, c.chips).expect("creates");
        writer
            .append(&ChipRecord {
                chip: 0,
                seed: c.chip_seed(0),
                outcome: RecordedOutcome::Ok {
                    baseline: CellResult::default(),
                    cells: vec![Tally::new(1)],
                },
                metrics: CapturedMetrics::default(),
            })
            .expect("appends");
        drop(writer);
        let err = c
            .run_checkpointed(
                &envs,
                &schemes,
                Tracer::noop(),
                &CheckpointOptions::resuming(&path),
            )
            .expect_err("refused");
        match err {
            CampaignError::Checkpoint(CheckpointError::Corrupt { line: 2, message }) => {
                assert!(message.contains("1 per-workload cells"), "{message}");
            }
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_cells_record_outcomes() {
        let c = tiny_campaign();
        let r = c
            .run_traced(&[Environment::TS], &[Scheme::ExhDyn], Tracer::noop())
            .expect("campaign runs");
        let ts = r.cell(Environment::TS, Scheme::ExhDyn).unwrap();
        assert!(ts.outcomes.total() > 0);
    }
}
