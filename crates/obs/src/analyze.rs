//! Streaming analysis of a campaign trace (`*.jsonl`).
//!
//! [`Analyzer`] folds a JSONL trace line-by-line — it never holds the
//! whole file — into per-scheme, per-chip, and per-phase rollups:
//!
//! * decision counts, chosen-frequency statistics, and error-rate digest
//!   quantiles per scheme (rebuilt from the deterministic decision
//!   events with the same fixed bucket boundaries the collector uses);
//! * decision-latency p50/p95/p99 per scheme, reconstructed from the
//!   trace's own histogram snapshot lines via
//!   [`Histogram::from_parts`] (wall-clock data: deterministic given
//!   the file, not across re-runs of the producer);
//! * fuzzy-vs-exhaustive frequency deltas, joined on
//!   `(chip, env, workload, phase)`;
//! * binding-constraint and retune-outcome breakdowns;
//! * teacher banks trained per ASV/ABB ladder family, with the count of
//!   bank slots shared instead of retrained (`fuzzy.banks_reused`);
//! * `SolveCache` hit rates and the full counter/gauge snapshot.
//!
//! Every container is a `BTreeMap`, so the rendered report is a pure
//! function of the input bytes — the golden test relies on this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

use eval_trace::json::{Json, JsonObject};
use eval_trace::provenance::Provenance;
use eval_trace::{names, Histogram, DECISION_F_GHZ_BOUNDS, DECISION_PE_BOUNDS};

/// A malformed trace line (bad JSON or a record missing required fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    /// 1-based line number in the input stream.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AnalyzeError {}

/// Rollup for one decision scheme (`static`, `fuzzy`, `exhaustive`, ...).
#[derive(Debug, Clone)]
pub struct SchemeRollup {
    /// Decisions observed.
    pub decisions: u64,
    /// Sum of chosen frequencies (for the mean).
    pub f_sum: f64,
    /// Minimum chosen frequency.
    pub f_min: f64,
    /// Maximum chosen frequency.
    pub f_max: f64,
    /// Chosen-frequency digest over the retuning ladder (the collector's
    /// `decision.f_ghz` buckets).
    pub f_digest: Histogram,
    /// Error-rate digest, decades around `PEMAX` (the collector's
    /// `decision.pe_per_instruction` buckets).
    pub pe_digest: Histogram,
    /// Decisions by binding constraint at the chosen point.
    pub bindings: BTreeMap<String, u64>,
    /// Decisions by retune outcome (Figure 13 label).
    pub outcomes: BTreeMap<String, u64>,
    /// Total retune steps across decisions.
    pub retune_steps: u64,
    /// Total rejected retune probes across decisions.
    pub rejected: u64,
}

impl Default for SchemeRollup {
    fn default() -> Self {
        Self {
            decisions: 0,
            f_sum: 0.0,
            f_min: f64::INFINITY,
            f_max: f64::NEG_INFINITY,
            f_digest: Histogram::new(&DECISION_F_GHZ_BOUNDS),
            pe_digest: Histogram::new(&DECISION_PE_BOUNDS),
            bindings: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            retune_steps: 0,
            rejected: 0,
        }
    }
}

impl SchemeRollup {
    /// Mean chosen frequency (0 when no decisions).
    pub fn f_mean(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.f_sum / self.decisions as f64
        }
    }
}

/// Rollup keyed by chip index or phase index: decision count and mean
/// chosen frequency.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupRollup {
    /// Decisions in the group.
    pub decisions: u64,
    /// Sum of chosen frequencies.
    pub f_sum: f64,
}

impl GroupRollup {
    /// Mean chosen frequency (0 when no decisions).
    pub fn f_mean(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.f_sum / self.decisions as f64
        }
    }
}

/// Fuzzy-vs-exhaustive chosen-frequency comparison, joined on
/// `(chip, env, workload, phase)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreqDelta {
    /// Decision pairs present under both schemes.
    pub pairs: u64,
    /// Sum of `f_fuzzy - f_exhaustive` (signed).
    pub delta_sum: f64,
    /// Sum of `|f_fuzzy - f_exhaustive|`.
    pub abs_sum: f64,
    /// Largest `|f_fuzzy - f_exhaustive|`.
    pub abs_max: f64,
}

impl FreqDelta {
    /// Mean signed delta, GHz.
    pub fn mean(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.delta_sum / self.pairs as f64
        }
    }

    /// Mean absolute delta, GHz.
    pub fn mean_abs(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.abs_sum / self.pairs as f64
        }
    }
}

/// One scheme's controller-tournament scorecard, folded from
/// `tournament-score` events. The fields are already aggregates (means
/// and rates over a chip population), so a repeated event for the same
/// scheme replaces the previous one — last stamp wins, like provenance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TournamentRollup {
    /// Decisions scored on the training population.
    pub decisions: u64,
    /// Mean `|f - f_exhaustive|` on the training population, GHz.
    pub mean_abs_fdelta_ghz: f64,
    /// Fraction of decisions matching the oracle's frequency exactly.
    pub exact_rate: f64,
    /// Mean performance relative to the oracle's decision.
    pub mean_perf_rel: f64,
    /// Decisions scored on the held-out population.
    pub holdout_decisions: u64,
    /// Mean `|f - f_exhaustive|` on held-out chips, GHz.
    pub holdout_mean_abs_fdelta_ghz: f64,
    /// Exact-match rate on held-out chips.
    pub holdout_exact_rate: f64,
}

/// The folded trace: everything the report renders.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// `campaign-start` payload, when present: (chips, workloads, cells).
    pub campaign: Option<(u64, u64, u64)>,
    /// `chip-start` markers observed.
    pub chips_seen: u64,
    /// Total event lines.
    pub events: u64,
    /// Event counts by kind tag.
    pub events_by_kind: BTreeMap<String, u64>,
    /// Per-scheme rollups.
    pub schemes: BTreeMap<String, SchemeRollup>,
    /// Controller-tournament scorecards (`tournament-score` events),
    /// keyed by scheme.
    pub tournament: BTreeMap<String, TournamentRollup>,
    /// Teacher banks trained (`controller-trained` events) per ladder
    /// family: `none`, `asv`, `abb` or `asv+abb`. Events without the
    /// `asv`/`abb` fields are not counted here.
    pub teacher_banks: BTreeMap<&'static str, u64>,
    /// Per-chip rollups (keyed by chip index).
    pub chips: BTreeMap<u64, GroupRollup>,
    /// Per-phase rollups (keyed by phase index).
    pub phases: BTreeMap<u64, GroupRollup>,
    /// Fuzzy-vs-exhaustive comparison.
    pub freq_delta: FreqDelta,
    /// Counter snapshot lines.
    pub counters: BTreeMap<String, u64>,
    /// Gauge snapshot lines.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshot lines, reconstructed as digests.
    pub digests: BTreeMap<String, Histogram>,
    /// Span lines: path -> (count, total nanoseconds).
    pub spans: BTreeMap<String, (u64, u128)>,
    /// Streamed `span-sample` lines (timing sidecar), aggregated the
    /// same way. Kept separate from [`Analysis::spans`] so a sidecar
    /// with both samples and an aggregated tail is not double-counted.
    pub span_samples: BTreeMap<String, (u64, u128)>,
    /// The file ended in one unparseable final line — the signature of a
    /// write torn by a crash. The rest of the analysis is still valid.
    pub truncated_tail: bool,
    /// The trace's provenance footer, when the producer stamped one
    /// (`"kind":"provenance"`; last stamp wins).
    pub provenance: Option<Provenance>,
}

impl Analysis {
    /// `SolveCache` hit rate from the `solver.cache.*` counters, if the
    /// trace recorded any cache traffic.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = *self.counters.get(names::SOLVER_CACHE_HITS)?;
        let misses = self.counters.get(names::SOLVER_CACHE_MISSES).copied().unwrap_or(0);
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Bank slots filled from an already-trained teacher bank
    /// (`fuzzy.banks_reused`; 0 when the trace never shared one).
    pub fn banks_reused(&self) -> u64 {
        self.counters.get(names::FUZZY_BANKS_REUSED).copied().unwrap_or(0)
    }

    /// Decision-latency digests (`decision.latency*_us`) with data, in
    /// name order.
    pub fn latency_digests(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.digests
            .iter()
            .filter(|(name, h)| name.starts_with(names::DECISION_LATENCY_PREFIX) && h.count() > 0)
            .map(|(name, h)| (name.as_str(), h))
    }

    /// Folds a timing-sidecar analysis into this one: wall-clock
    /// digests, span statistics, and streamed span samples only.
    /// Counters, gauges, events, and provenance stay untouched — the
    /// sidecar's bookkeeping (`timing.span_samples`, its own stamp)
    /// must not contaminate the primary trace's snapshot.
    ///
    /// # Errors
    ///
    /// A digest present on both sides with different bucket boundaries.
    pub fn merge_timing(&mut self, timing: &Analysis) -> Result<(), String> {
        for (name, digest) in &timing.digests {
            match self.digests.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(digest.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut()
                        .merge(digest)
                        .map_err(|e| format!("timing digest `{name}`: {e}"))?;
                }
            }
        }
        for (path, (count, total)) in &timing.spans {
            let entry = self.spans.entry(path.clone()).or_insert((0, 0));
            entry.0 += count;
            entry.1 += total;
        }
        for (path, (count, total)) in &timing.span_samples {
            let entry = self.span_samples.entry(path.clone()).or_insert((0, 0));
            entry.0 += count;
            entry.1 += total;
        }
        Ok(())
    }

    /// Renders the human-readable report (deterministic for a given
    /// trace file — the golden test pins it).
    pub fn report_text(&self) -> String {
        let mut out = String::new();
        let w = &mut out;

        let _ = writeln!(w, "EVAL trace analysis");
        let _ = writeln!(w, "===================");
        match self.campaign {
            Some((chips, workloads, cells)) => {
                let _ = writeln!(
                    w,
                    "campaign: chips={chips} workloads={workloads} cells={cells} (chip markers: {})",
                    self.chips_seen
                );
            }
            None => {
                let _ = writeln!(w, "campaign: no campaign-start event (chip markers: {})", self.chips_seen);
            }
        }
        if let Some(resumed) = self.counters.get(names::CAMPAIGN_CHIPS_RESUMED) {
            let _ = writeln!(w, "resumed: {resumed} chips restored from a checkpoint sidecar");
        }
        if let Some(failed) = self.counters.get(names::CAMPAIGN_CHIPS_FAILED) {
            let _ = writeln!(w, "quarantined: {failed} chips failed and were excluded from averages");
        }
        if self.truncated_tail {
            let _ = writeln!(w, "WARNING: trace ends in a torn final line (crashed mid-write); tail dropped");
        }
        // Provenance lines render only for stamped traces, so reports
        // over pre-stamp golden traces are byte-identical.
        if let Some(p) = &self.provenance {
            let _ = writeln!(
                w,
                "provenance: {} addr={} rev={} host={}",
                p.artifact,
                p.content_address.as_deref().unwrap_or("-"),
                p.git_revision,
                p.host
            );
        }
        if let Some(stamped) = self.counters.get(names::PROVENANCE_ARTIFACTS) {
            let _ = writeln!(w, "provenance-stamped artifacts: {stamped}");
        }
        let _ = writeln!(w, "events: {}", self.events);
        for (kind, n) in &self.events_by_kind {
            let _ = writeln!(w, "  {kind:<28} {n:>10}");
        }

        if !self.schemes.is_empty() {
            let _ = writeln!(w, "\nscheme rollups");
            let _ = writeln!(w, "--------------");
            let _ = writeln!(
                w,
                "{:<12} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
                "scheme", "decisions", "f_mean", "f_min", "f_max", "f_p50", "retune", "rejected"
            );
            for (scheme, r) in &self.schemes {
                let p50 = r.f_digest.quantile(0.5).unwrap_or(0.0);
                let _ = writeln!(
                    w,
                    "{scheme:<12} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8} {:>9}",
                    r.decisions, r.f_mean(), r.f_min, r.f_max, p50, r.retune_steps, r.rejected
                );
            }

            let _ = writeln!(w, "\nerror-rate digest (errors/instruction)");
            let _ = writeln!(
                w,
                "{:<12} {:>12} {:>12} {:>12}",
                "scheme", "pe_p50", "pe_p95", "pe_p99"
            );
            for (scheme, r) in &self.schemes {
                let q = |q: f64| r.pe_digest.quantile(q).unwrap_or(0.0);
                let _ = writeln!(
                    w,
                    "{scheme:<12} {:>12.3e} {:>12.3e} {:>12.3e}",
                    q(0.5),
                    q(0.95),
                    q(0.99)
                );
            }

            let _ = writeln!(w, "\nbinding constraints");
            for (scheme, r) in &self.schemes {
                for (binding, n) in &r.bindings {
                    let _ = writeln!(w, "  {:<28} {n:>10}", format!("{scheme}/{binding}"));
                }
            }

            let _ = writeln!(w, "\nretune outcomes");
            for (scheme, r) in &self.schemes {
                for (outcome, n) in &r.outcomes {
                    let _ = writeln!(w, "  {:<28} {n:>10}", format!("{scheme}/{outcome}"));
                }
            }
        }

        if !self.tournament.is_empty() {
            let _ = writeln!(w, "\ncontroller tournament (scored against exhaustive)");
            let _ = writeln!(
                w,
                "{:<12} {:>9} {:>8} {:>7} {:>9} {:>10} {:>9}",
                "scheme", "decisions", "fdelta", "exact", "perf_rel", "ho_fdelta", "ho_exact"
            );
            for (scheme, t) in &self.tournament {
                let _ = writeln!(
                    w,
                    "{scheme:<12} {:>9} {:>8.4} {:>6.1}% {:>9.4} {:>10.4} {:>8.1}%",
                    t.decisions,
                    t.mean_abs_fdelta_ghz,
                    100.0 * t.exact_rate,
                    t.mean_perf_rel,
                    t.holdout_mean_abs_fdelta_ghz,
                    100.0 * t.holdout_exact_rate
                );
            }
        }

        if !self.teacher_banks.is_empty() {
            let _ = writeln!(w, "\nteacher banks by ladder family");
            for (family, n) in &self.teacher_banks {
                let _ = writeln!(w, "  {family:<28} {n:>10}");
            }
            let _ = writeln!(w, "  {:<28} {:>10}", "reused slots", self.banks_reused());
        }

        let latencies: Vec<_> = self.latency_digests().collect();
        if !latencies.is_empty() {
            let _ = writeln!(w, "\ndecision latency (us, wall-clock digests)");
            let _ = writeln!(
                w,
                "{:<32} {:>7} {:>9} {:>9} {:>9}",
                "digest", "n", "p50", "p95", "p99"
            );
            for (name, h) in latencies {
                let q = |q: f64| h.quantile(q).unwrap_or(0.0);
                let _ = writeln!(
                    w,
                    "{name:<32} {:>7} {:>9.1} {:>9.1} {:>9.1}",
                    h.count(),
                    q(0.5),
                    q(0.95),
                    q(0.99)
                );
            }
        }

        if self.freq_delta.pairs > 0 {
            let d = &self.freq_delta;
            let _ = writeln!(w, "\nfuzzy vs exhaustive frequency");
            let _ = writeln!(w, "  matched decisions: {}", d.pairs);
            let _ = writeln!(w, "  mean delta (fuzzy - exhaustive): {:+.4} GHz", d.mean());
            let _ = writeln!(
                w,
                "  mean |delta|: {:.4} GHz   max |delta|: {:.4} GHz",
                d.mean_abs(),
                d.abs_max
            );
        }

        match self.cache_hit_rate() {
            Some(rate) => {
                let hits = self.counters.get(names::SOLVER_CACHE_HITS).copied().unwrap_or(0);
                let misses = self.counters.get(names::SOLVER_CACHE_MISSES).copied().unwrap_or(0);
                let _ = writeln!(
                    w,
                    "\nsolver cache: hits={hits} misses={misses} hit_rate={:.1}%",
                    rate * 100.0
                );
                if let Some(iters) = self.counters.get(names::SOLVER_ITERATIONS) {
                    let _ = writeln!(w, "solver iterations: {iters}");
                }
            }
            None => {
                let _ = writeln!(w, "\nsolver cache: no data");
            }
        }

        if !self.chips.is_empty() {
            let _ = writeln!(w, "\nper-chip");
            let _ = writeln!(w, "{:<8} {:>9} {:>8}", "chip", "decisions", "f_mean");
            for (chip, r) in &self.chips {
                let _ = writeln!(w, "{chip:<8} {:>9} {:>8.3}", r.decisions, r.f_mean());
            }
        }

        if !self.phases.is_empty() {
            let _ = writeln!(w, "\nper-phase");
            let _ = writeln!(w, "{:<8} {:>9} {:>8}", "phase", "decisions", "f_mean");
            for (phase, r) in &self.phases {
                // u64::MAX is the "no phase" sentinel (whole-workload
                // decisions from the static scheme).
                let label = if *phase == u64::MAX {
                    "-".to_string()
                } else {
                    phase.to_string()
                };
                let _ = writeln!(w, "{label:<8} {:>9} {:>8.3}", r.decisions, r.f_mean());
            }
        }

        if !self.counters.is_empty() {
            let _ = writeln!(w, "\ncounters");
            for (name, v) in &self.counters {
                let _ = writeln!(w, "  {name:<40} {v:>12}");
            }
        }

        out
    }

    /// Renders the report as a single JSON object (one line, stable
    /// field order).
    pub fn report_json(&self) -> String {
        let schemes = {
            let mut o = JsonObject::new();
            for (scheme, r) in &self.schemes {
                let bindings = map_u64_json(&r.bindings);
                let outcomes = map_u64_json(&r.outcomes);
                let cell = JsonObject::new()
                    .u64("decisions", r.decisions)
                    .f64("f_mean", r.f_mean())
                    .f64("f_min", if r.decisions == 0 { 0.0 } else { r.f_min })
                    .f64("f_max", if r.decisions == 0 { 0.0 } else { r.f_max })
                    .f64("f_p50", r.f_digest.quantile(0.5).unwrap_or(0.0))
                    .f64("pe_p50", r.pe_digest.quantile(0.5).unwrap_or(0.0))
                    .f64("pe_p95", r.pe_digest.quantile(0.95).unwrap_or(0.0))
                    .f64("pe_p99", r.pe_digest.quantile(0.99).unwrap_or(0.0))
                    .u64("retune_steps", r.retune_steps)
                    .u64("rejected", r.rejected)
                    .raw("bindings", &bindings)
                    .raw("outcomes", &outcomes)
                    .finish();
                o = o.raw(scheme, &cell);
            }
            o.finish()
        };

        let tournament = {
            let mut o = JsonObject::new();
            for (scheme, t) in &self.tournament {
                let cell = JsonObject::new()
                    .u64("decisions", t.decisions)
                    .f64("mean_abs_fdelta_ghz", t.mean_abs_fdelta_ghz)
                    .f64("exact_rate", t.exact_rate)
                    .f64("mean_perf_rel", t.mean_perf_rel)
                    .u64("holdout_decisions", t.holdout_decisions)
                    .f64("holdout_mean_abs_fdelta_ghz", t.holdout_mean_abs_fdelta_ghz)
                    .f64("holdout_exact_rate", t.holdout_exact_rate)
                    .finish();
                o = o.raw(scheme, &cell);
            }
            o.finish()
        };

        let teacher_banks = {
            let mut o = JsonObject::new();
            for (family, n) in &self.teacher_banks {
                o = o.u64(family, *n);
            }
            o.u64("reused", self.banks_reused()).finish()
        };

        let latency = {
            let mut o = JsonObject::new();
            for (name, h) in self.latency_digests() {
                let cell = JsonObject::new()
                    .u64("count", h.count())
                    .f64("p50", h.quantile(0.5).unwrap_or(0.0))
                    .f64("p95", h.quantile(0.95).unwrap_or(0.0))
                    .f64("p99", h.quantile(0.99).unwrap_or(0.0))
                    .finish();
                o = o.raw(name, &cell);
            }
            o.finish()
        };

        let chips = {
            let mut o = JsonObject::new();
            for (chip, r) in &self.chips {
                let cell = JsonObject::new()
                    .u64("decisions", r.decisions)
                    .f64("f_mean", r.f_mean())
                    .finish();
                o = o.raw(&chip.to_string(), &cell);
            }
            o.finish()
        };

        let delta = JsonObject::new()
            .u64("pairs", self.freq_delta.pairs)
            .f64("mean", self.freq_delta.mean())
            .f64("mean_abs", self.freq_delta.mean_abs())
            .f64("max_abs", self.freq_delta.abs_max)
            .finish();

        let cache = match self.cache_hit_rate() {
            Some(rate) => JsonObject::new()
                .u64("hits", self.counters.get(names::SOLVER_CACHE_HITS).copied().unwrap_or(0))
                .u64("misses", self.counters.get(names::SOLVER_CACHE_MISSES).copied().unwrap_or(0))
                .f64("hit_rate", rate)
                .finish(),
            None => "null".to_string(),
        };

        let campaign = match self.campaign {
            Some((chips, workloads, cells)) => JsonObject::new()
                .u64("chips", chips)
                .u64("workloads", workloads)
                .u64("cells", cells)
                .finish(),
            None => "null".to_string(),
        };

        let provenance = match &self.provenance {
            Some(p) => p.to_json(),
            None => "null".to_string(),
        };

        JsonObject::new()
            .raw("campaign", &campaign)
            .u64("chips_seen", self.chips_seen)
            .u64("events", self.events)
            .raw("events_by_kind", &map_u64_json(&self.events_by_kind))
            .raw("schemes", &schemes)
            .raw("tournament", &tournament)
            .raw("teacher_banks", &teacher_banks)
            .raw("decision_latency", &latency)
            .raw("freq_delta", &delta)
            .raw("solver_cache", &cache)
            .raw("chips", &chips)
            .raw("counters", &map_u64_json(&self.counters))
            // Resume/quarantine accounting and the torn-tail flag are
            // always present in JSON (unlike the text report, which
            // keeps them conditional) so downstream consumers never
            // need existence checks.
            .u64(
                "chips_resumed",
                self.counters.get(names::CAMPAIGN_CHIPS_RESUMED).copied().unwrap_or(0),
            )
            .u64(
                "chips_failed",
                self.counters.get(names::CAMPAIGN_CHIPS_FAILED).copied().unwrap_or(0),
            )
            .raw("provenance", &provenance)
            .bool("truncated_tail", self.truncated_tail)
            .finish()
    }
}

fn map_u64_json(map: &BTreeMap<String, u64>) -> String {
    let mut o = JsonObject::new();
    for (k, v) in map {
        o = o.u64(k, *v);
    }
    o.finish()
}

/// Join key for the fuzzy-vs-exhaustive comparison.
type DecisionKey = (Option<u64>, String, String, u64);

/// The streaming folder. Feed lines, then [`Analyzer::finish`].
#[derive(Debug, Default)]
pub struct Analyzer {
    analysis: Analysis,
    line: usize,
    current_chip: Option<u64>,
    fuzzy_f: BTreeMap<DecisionKey, f64>,
    exhaustive_f: BTreeMap<DecisionKey, f64>,
}

impl Analyzer {
    /// An empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    fn err(&self, message: impl Into<String>) -> AnalyzeError {
        AnalyzeError {
            line: self.line,
            message: message.into(),
        }
    }

    /// Folds one JSONL line (blank lines are ignored).
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] on malformed JSON or a record missing
    /// required fields.
    pub fn feed_line(&mut self, line: &str) -> Result<(), AnalyzeError> {
        self.line += 1;
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let v = Json::parse(line).map_err(|e| self.err(e.to_string()))?;
        match v.str_field("kind") {
            Some("event") => self.fold_event(&v),
            Some("counter") => {
                let name = v.str_field("name").ok_or_else(|| self.err("counter without name"))?;
                let value = v.u64_field("value").ok_or_else(|| self.err("counter without value"))?;
                *self.analysis.counters.entry(name.to_string()).or_insert(0) += value;
                Ok(())
            }
            Some("gauge") => {
                let name = v.str_field("name").ok_or_else(|| self.err("gauge without name"))?;
                let value = v.f64_field("value").ok_or_else(|| self.err("gauge without value"))?;
                self.analysis.gauges.insert(name.to_string(), value);
                Ok(())
            }
            Some("histogram") => self.fold_histogram(&v),
            Some("span") => {
                let path = v.str_field("path").ok_or_else(|| self.err("span without path"))?;
                let count = v.u64_field("count").unwrap_or(0);
                let total = v.u64_field("total_ns").unwrap_or(0) as u128;
                let entry = self.analysis.spans.entry(path.to_string()).or_insert((0, 0));
                entry.0 += count;
                entry.1 += total;
                Ok(())
            }
            Some("span-sample") => {
                let path = v.str_field("path").ok_or_else(|| self.err("span-sample without path"))?;
                let nanos = v.u64_field("nanos").unwrap_or(0) as u128;
                let entry = self
                    .analysis
                    .span_samples
                    .entry(path.to_string())
                    .or_insert((0, 0));
                entry.0 += 1;
                entry.1 += nanos;
                Ok(())
            }
            Some("provenance") => {
                let prov = Provenance::from_json(&v)
                    .ok_or_else(|| self.err("provenance record without artifact"))?;
                self.analysis.provenance = Some(prov);
                Ok(())
            }
            Some(other) => Err(self.err(format!("unknown record kind `{other}`"))),
            None => Err(self.err("record without `kind`")),
        }
    }

    fn fold_histogram(&mut self, v: &Json) -> Result<(), AnalyzeError> {
        let name = v.str_field("name").ok_or_else(|| self.err("histogram without name"))?;
        let bounds: Vec<f64> = v
            .get("bounds")
            .and_then(Json::as_arr)
            .ok_or_else(|| self.err("histogram without bounds"))?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let counts: Vec<u64> = v
            .get("counts")
            .and_then(Json::as_arr)
            .ok_or_else(|| self.err("histogram without counts"))?
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        let sum = v.f64_field("sum").unwrap_or(0.0);
        let digest = Histogram::from_parts(&bounds, &counts, sum)
            .map_err(|e| self.err(format!("histogram `{name}`: {e}")))?;
        match self.analysis.digests.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(digest);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                // Same metric from a second snapshot (concatenated
                // traces): digests merge.
                e.get_mut()
                    .merge(&digest)
                    .map_err(|e| self.err(format!("histogram `{name}`: {e}")))?;
            }
        }
        Ok(())
    }

    fn fold_event(&mut self, v: &Json) -> Result<(), AnalyzeError> {
        let kind = v.str_field("event").ok_or_else(|| self.err("event without `event` tag"))?;
        self.analysis.events += 1;
        *self
            .analysis
            .events_by_kind
            .entry(kind.to_string())
            .or_insert(0) += 1;
        let payload = v.get("payload").ok_or_else(|| self.err("event without payload"))?;
        match kind {
            "campaign-start" => {
                self.analysis.campaign = Some((
                    payload.u64_field("chips").unwrap_or(0),
                    payload.u64_field("workloads").unwrap_or(0),
                    payload.u64_field("cells").unwrap_or(0),
                ));
            }
            "chip-start" => {
                let chip = payload.u64_field("chip").ok_or_else(|| self.err("chip-start without chip"))?;
                self.analysis.chips_seen += 1;
                self.current_chip = Some(chip);
                self.analysis.chips.entry(chip).or_default();
            }
            "decision" => self.fold_decision(payload)?,
            "controller-trained" => {
                let ladder = |key| payload.get(key).and_then(Json::as_bool);
                if let (Some(asv), Some(abb)) = (ladder("asv"), ladder("abb")) {
                    let family = match (asv, abb) {
                        (false, false) => "none",
                        (true, false) => "asv",
                        (false, true) => "abb",
                        (true, true) => "asv+abb",
                    };
                    *self.analysis.teacher_banks.entry(family).or_insert(0) += 1;
                }
            }
            "tournament-score" => {
                let scheme = payload
                    .str_field("scheme")
                    .ok_or_else(|| self.err("tournament-score without scheme"))?
                    .to_string();
                let rollup = TournamentRollup {
                    decisions: payload.u64_field("decisions").unwrap_or(0),
                    mean_abs_fdelta_ghz: payload.f64_field("mean_abs_fdelta_ghz").unwrap_or(0.0),
                    exact_rate: payload.f64_field("exact_rate").unwrap_or(0.0),
                    mean_perf_rel: payload.f64_field("mean_perf_rel").unwrap_or(0.0),
                    holdout_decisions: payload.u64_field("holdout_decisions").unwrap_or(0),
                    holdout_mean_abs_fdelta_ghz: payload
                        .f64_field("holdout_mean_abs_fdelta_ghz")
                        .unwrap_or(0.0),
                    holdout_exact_rate: payload.f64_field("holdout_exact_rate").unwrap_or(0.0),
                };
                self.analysis.tournament.insert(scheme, rollup);
            }
            _ => {}
        }
        Ok(())
    }

    fn fold_decision(&mut self, payload: &Json) -> Result<(), AnalyzeError> {
        let scheme = payload
            .str_field("scheme")
            .ok_or_else(|| self.err("decision without scheme"))?
            .to_string();
        let f_ghz = payload
            .f64_field("f_ghz")
            .ok_or_else(|| self.err("decision without f_ghz"))?;
        let pe = payload.f64_field("pe_per_instruction").unwrap_or(0.0);
        let phase = payload.u64_field("phase").unwrap_or(0);
        let binding = payload.str_field("binding").unwrap_or("unknown").to_string();
        let outcome = payload.str_field("outcome").unwrap_or("unknown").to_string();
        let retune_steps = payload.u64_field("retune_steps").unwrap_or(0);
        let rejected = payload
            .get("rejected")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64);

        let r = self.analysis.schemes.entry(scheme.clone()).or_default();
        r.decisions += 1;
        r.f_sum += f_ghz;
        r.f_min = r.f_min.min(f_ghz);
        r.f_max = r.f_max.max(f_ghz);
        r.f_digest.observe(f_ghz);
        r.pe_digest.observe(pe);
        *r.bindings.entry(binding).or_insert(0) += 1;
        *r.outcomes.entry(outcome).or_insert(0) += 1;
        r.retune_steps += retune_steps;
        r.rejected += rejected;

        if let Some(chip) = self.current_chip {
            let c = self.analysis.chips.entry(chip).or_default();
            c.decisions += 1;
            c.f_sum += f_ghz;
        }
        let p = self.analysis.phases.entry(phase).or_default();
        p.decisions += 1;
        p.f_sum += f_ghz;

        if scheme == "fuzzy" || scheme == "exhaustive" {
            let key: DecisionKey = (
                self.current_chip,
                payload.str_field("env").unwrap_or("").to_string(),
                payload.str_field("workload").unwrap_or("").to_string(),
                phase,
            );
            let side = if scheme == "fuzzy" {
                &mut self.fuzzy_f
            } else {
                &mut self.exhaustive_f
            };
            side.insert(key, f_ghz);
        }
        Ok(())
    }

    /// Completes the fold (joins the fuzzy-vs-exhaustive sides) and
    /// returns the analysis.
    pub fn finish(mut self) -> Analysis {
        for (key, fuzzy) in &self.fuzzy_f {
            if let Some(exhaustive) = self.exhaustive_f.get(key) {
                let d = fuzzy - exhaustive;
                self.analysis.freq_delta.pairs += 1;
                self.analysis.freq_delta.delta_sum += d;
                self.analysis.freq_delta.abs_sum += d.abs();
                self.analysis.freq_delta.abs_max = self.analysis.freq_delta.abs_max.max(d.abs());
            }
        }
        self.analysis
    }
}

/// Folds a whole JSONL stream from a reader.
///
/// A single malformed **final** line is tolerated: that is the signature
/// of a write torn by a crash, so the line is dropped and the analysis
/// is returned with [`Analysis::truncated_tail`] set. A malformed line
/// *followed by more content* is mid-file corruption and stays an error.
///
/// # Errors
///
/// Returns [`AnalyzeError`] on I/O failure or mid-file corruption.
pub fn analyze_reader(reader: impl BufRead) -> Result<Analysis, AnalyzeError> {
    let mut analyzer = Analyzer::new();
    let mut pending: Option<AnalyzeError> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| AnalyzeError {
            line: i + 1,
            message: format!("read failed: {e}"),
        })?;
        if let Some(err) = pending.take() {
            if line.trim().is_empty() {
                // Trailing blanks don't prove the bad line was mid-file.
                pending = Some(err);
                continue;
            }
            return Err(err);
        }
        if let Err(err) = analyzer.feed_line(&line) {
            pending = Some(err);
        }
    }
    let mut analysis = analyzer.finish();
    analysis.truncated_tail = pending.is_some();
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_digests_merge_into_the_collectors_decision_histograms() {
        let registry = eval_trace::default_registry();
        let rollup = SchemeRollup::default();
        for (name, digest) in [
            (names::DECISION_F_GHZ, &rollup.f_digest),
            (names::DECISION_PE_PER_INSTRUCTION, &rollup.pe_digest),
        ] {
            let mut collected = registry.histogram(name).expect("pre-registered").clone();
            assert_eq!(collected.merge(digest), Ok(()), "{name}");
        }
    }

    fn mini_trace() -> String {
        let decision = |scheme: &str, chipless: bool, f: f64, binding: &str| {
            format!(
                concat!(
                    r#"{{"kind":"event","event":"decision","payload":{{"scheme":"{}","env":"TS+ASV","#,
                    r#""workload":"swim","phase":{},"f_ghz":{:?},"settings":[],"int_fu":"normal","#,
                    r#""fp_fu":"normal","int_queue":"full","fp_queue":"full","outcome":"NoChange","#,
                    r#""binding":"{}","retune_steps":2,"rejected":[{{"f_ghz":4.5,"violation":"Error"}}],"#,
                    r#""pe_per_instruction":2e-05,"power_w":30.0,"max_t_c":80.0,"perf_bips":3.0,"#,
                    r#""cpi_comp":1.0,"cpi_mem":0.2,"cpi_recovery":0.01}}}}"#
                ),
                scheme,
                if chipless { 9 } else { 1 },
                f,
                binding
            )
        };
        let mut lines = vec![
            r#"{"kind":"event","event":"campaign-start","payload":{"chips":2,"workloads":1,"cells":3}}"#.to_string(),
            r#"{"kind":"event","event":"chip-start","payload":{"chip":0}}"#.to_string(),
            decision("fuzzy", false, 4.0, "error-rate"),
            decision("exhaustive", false, 4.25, "temperature"),
            r#"{"kind":"event","event":"chip-start","payload":{"chip":1}}"#.to_string(),
            decision("fuzzy", false, 4.5, "error-rate"),
            decision("exhaustive", false, 4.5, "error-rate"),
            decision("static", false, 3.75, "ladder-top"),
            r#"{"kind":"counter","name":"solver.cache.hits","value":90}"#.to_string(),
            r#"{"kind":"counter","name":"solver.cache.misses","value":10}"#.to_string(),
            r#"{"kind":"histogram","name":"decision.latency.fuzzy_us","timing":true,"bounds":[10.0,100.0,1000.0],"counts":[0,3,1,0],"count":4,"sum":500.0}"#.to_string(),
            r#"{"kind":"span","path":"campaign","count":1,"total_ns":12345}"#.to_string(),
        ];
        lines.push(String::new()); // blank lines are tolerated
        lines.join("\n")
    }

    #[test]
    fn folds_schemes_chips_cache_and_deltas() {
        let a = analyze_reader(mini_trace().as_bytes()).expect("parses");
        assert_eq!(a.campaign, Some((2, 1, 3)));
        assert_eq!(a.chips_seen, 2);
        assert_eq!(a.schemes.len(), 3);
        let fuzzy = &a.schemes["fuzzy"];
        assert_eq!(fuzzy.decisions, 2);
        assert!((fuzzy.f_mean() - 4.25).abs() < 1e-12);
        assert_eq!(fuzzy.bindings["error-rate"], 2);
        assert_eq!(fuzzy.rejected, 2);
        assert_eq!(a.chips[&0].decisions, 2);
        assert_eq!(a.chips[&1].decisions, 3);
        // chip 0: fuzzy 4.0 vs exhaustive 4.25; chip 1: 4.5 vs 4.5.
        assert_eq!(a.freq_delta.pairs, 2);
        assert!((a.freq_delta.mean() - (-0.125)).abs() < 1e-12);
        assert!((a.freq_delta.abs_max - 0.25).abs() < 1e-12);
        assert_eq!(a.cache_hit_rate(), Some(0.9));
        assert_eq!(a.spans["campaign"], (1, 12345));
        let (name, h) = a.latency_digests().next().expect("latency digest");
        assert_eq!(name, "decision.latency.fuzzy_us");
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn report_text_is_deterministic_and_mentions_the_acceptance_fields() {
        let a = analyze_reader(mini_trace().as_bytes()).expect("parses");
        let t1 = a.report_text();
        let t2 = analyze_reader(mini_trace().as_bytes()).unwrap().report_text();
        assert_eq!(t1, t2);
        for needle in [
            "scheme rollups",
            "decision latency",
            "p99",
            "exhaustive/temperature",
            "solver cache: hits=90 misses=10 hit_rate=90.0%",
            "fuzzy vs exhaustive frequency",
        ] {
            assert!(t1.contains(needle), "missing {needle:?} in:\n{t1}");
        }
    }

    #[test]
    fn report_json_parses_back_and_carries_the_rollups() {
        let a = analyze_reader(mini_trace().as_bytes()).expect("parses");
        let json = a.report_json();
        let v = Json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("schemes").and_then(|s| s.get("fuzzy")).and_then(|f| f.u64_field("decisions")), Some(2));
        assert_eq!(v.get("solver_cache").and_then(|c| c.f64_field("hit_rate")), Some(0.9));
        assert_eq!(v.u64_field("chips_seen"), Some(2));
        assert!(v.get("decision_latency").and_then(|l| l.get("decision.latency.fuzzy_us")).is_some());
    }

    #[test]
    fn tournament_scores_fold_and_surface_in_both_reports() {
        let score = |scheme: &str, fdelta: f64, exact: f64| {
            format!(
                concat!(
                    r#"{{"kind":"event","event":"tournament-score","payload":{{"scheme":"{}","#,
                    r#""decisions":24,"mean_abs_fdelta_ghz":{:?},"exact_rate":{:?},"#,
                    r#""mean_perf_rel":0.97,"holdout_decisions":12,"#,
                    r#""holdout_mean_abs_fdelta_ghz":{:?},"holdout_exact_rate":{:?}}}}}"#
                ),
                scheme,
                fdelta,
                exact,
                fdelta * 1.5,
                exact * 0.5
            )
        };
        let trace = format!(
            "{}\n{}\n",
            score("exhaustive", 0.0, 1.0),
            score("mlp", 0.25, 0.5)
        );
        let a = analyze_reader(trace.as_bytes()).expect("parses");
        assert_eq!(a.tournament.len(), 2);
        let mlp = &a.tournament["mlp"];
        assert_eq!(mlp.decisions, 24);
        assert_eq!(mlp.holdout_decisions, 12);
        assert!((mlp.mean_abs_fdelta_ghz - 0.25).abs() < 1e-12);
        assert!((mlp.holdout_exact_rate - 0.25).abs() < 1e-12);

        let text = a.report_text();
        assert!(text.contains("controller tournament"), "{text}");
        assert!(text.contains("ho_exact"), "{text}");
        let v = Json::parse(&a.report_json()).expect("valid JSON");
        let t = v.get("tournament").and_then(|t| t.get("mlp")).expect("mlp cell");
        assert_eq!(t.u64_field("decisions"), Some(24));
        assert_eq!(t.f64_field("mean_perf_rel"), Some(0.97));

        // A scheme-less score line is corruption, not data.
        let bad = r#"{"kind":"event","event":"tournament-score","payload":{"decisions":1}}"#;
        assert!(analyze_reader(format!("{bad}\n{bad}\n").as_bytes()).is_err());

        // Traces without tournament events keep the old text report shape.
        let a = analyze_reader(mini_trace().as_bytes()).expect("parses");
        assert!(!a.report_text().contains("controller tournament"));
    }

    #[test]
    fn teacher_banks_roll_up_per_ladder_family_with_the_reuse_count() {
        let trained = |asv: bool, abb: bool| {
            format!(
                r#"{{"kind":"event","event":"controller-trained","payload":{{"subsystem":"dcache","variant":"normal","asv":{asv},"abb":{abb},"examples":40,"freq_rms":0.1}}}}"#
            )
        };
        let trace = [
            trained(false, false),
            trained(true, false),
            trained(true, false),
            trained(true, true),
            // A trace from before the ladder fields: counted as an
            // event, not as a family.
            r#"{"kind":"event","event":"controller-trained","payload":{"subsystem":"dcache","variant":"normal","examples":40,"freq_rms":0.1}}"#.to_string(),
            r#"{"kind":"counter","name":"fuzzy.banks_reused","value":5}"#.to_string(),
        ]
        .join("\n");
        let a = analyze_reader(trace.as_bytes()).expect("parses");
        assert_eq!(a.events_by_kind["controller-trained"], 5);
        let families: Vec<_> = a.teacher_banks.iter().map(|(f, n)| (*f, *n)).collect();
        assert_eq!(families, [("asv", 2), ("asv+abb", 1), ("none", 1)]);
        assert_eq!(a.banks_reused(), 5);
        let text = a.report_text();
        assert!(text.contains("teacher banks by ladder family"), "{text}");
        assert!(
            text.contains("  reused slots                          5"),
            "{text}"
        );
        let v = Json::parse(&a.report_json()).expect("json");
        let banks = v.get("teacher_banks").expect("teacher_banks");
        assert_eq!(banks.u64_field("asv+abb"), Some(1));
        assert_eq!(banks.u64_field("reused"), Some(5));
        // Traces without teacher banks keep the old text report shape.
        let plain = analyze_reader(mini_trace().as_bytes()).expect("parses");
        assert!(!plain.report_text().contains("teacher banks"));
    }

    #[test]
    fn mid_file_corruption_stays_an_error_with_its_line_number() {
        let counter = r#"{"kind":"counter","name":"a","value":1}"#;
        // The bad line is followed by more content: corruption, not a
        // torn tail.
        let bad = format!("{{\"kind\":\"event\"}}\n{counter}\n");
        let e = analyze_reader(bad.as_bytes()).unwrap_err();
        assert_eq!(e.line, 1);
        let bad2 = format!("{counter}\nnot json\n{counter}\n");
        let e2 = analyze_reader(bad2.as_bytes()).unwrap_err();
        assert_eq!(e2.line, 2);
    }

    #[test]
    fn a_single_torn_final_line_is_tolerated_and_flagged() {
        let counter = r#"{"kind":"counter","name":"a","value":1}"#;
        // A crash mid-write leaves one incomplete final line.
        let torn = format!("{counter}\n{{\"kind\":\"coun");
        let a = analyze_reader(torn.as_bytes()).expect("tolerated");
        assert!(a.truncated_tail);
        assert_eq!(a.counters["a"], 1);
        assert!(a.report_text().contains("torn final line"), "{}", a.report_text());
        let v = Json::parse(&a.report_json()).expect("valid JSON");
        assert_eq!(v.get("truncated_tail").and_then(Json::as_bool), Some(true));

        // An intact trace reports the field as false.
        let a = analyze_reader(mini_trace().as_bytes()).expect("parses");
        assert!(!a.truncated_tail);
        let v = Json::parse(&a.report_json()).expect("valid JSON");
        assert_eq!(v.get("truncated_tail").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn resumed_and_quarantined_counters_surface_in_the_report() {
        let trace = concat!(
            r#"{"kind":"counter","name":"campaign.chips_resumed","value":3}"#,
            "\n",
            r#"{"kind":"counter","name":"campaign.chips_failed","value":1}"#,
            "\n",
        );
        let report = analyze_reader(trace.as_bytes()).expect("parses").report_text();
        assert!(report.contains("resumed: 3 chips"), "{report}");
        assert!(report.contains("quarantined: 1 chips"), "{report}");
        // Traces without those counters keep the old report shape.
        let report = analyze_reader(mini_trace().as_bytes()).unwrap().report_text();
        assert!(!report.contains("resumed:"), "{report}");
        assert!(!report.contains("quarantined:"), "{report}");
    }

    #[test]
    fn repeated_histogram_snapshots_merge() {
        let line = r#"{"kind":"histogram","name":"decision.latency_us","timing":true,"bounds":[10.0,100.0],"counts":[0,2,0],"count":2,"sum":60.0}"#;
        let two = format!("{line}\n{line}\n");
        let a = analyze_reader(two.as_bytes()).expect("parses");
        assert_eq!(a.digests["decision.latency_us"].count(), 4);
    }

    #[test]
    fn provenance_footer_surfaces_in_both_reports() {
        let footer = concat!(
            r#"{"kind":"provenance","artifact":"trace-jsonl","#,
            r#""content_address":"00aa11bb22cc33dd","git_revision":"deadbeef","#,
            r#""host":"aabbccdd00112233","config_fingerprint":null,"#,
            r#""schema_hash":"1234567812345678"}"#,
        );
        let stamped = concat!(
            r#"{"kind":"counter","name":"provenance.artifacts","value":2}"#,
            "\n",
        );
        let trace = format!("{}{stamped}{footer}\n", mini_trace());
        let a = analyze_reader(trace.as_bytes()).expect("parses");
        let p = a.provenance.as_ref().expect("footer folded");
        assert_eq!(p.artifact, "trace-jsonl");
        let text = a.report_text();
        assert!(text.contains("provenance: trace-jsonl addr=00aa11bb22cc33dd"), "{text}");
        assert!(text.contains("provenance-stamped artifacts: 2"), "{text}");
        let v = Json::parse(&a.report_json()).expect("valid JSON");
        assert_eq!(
            v.get("provenance").and_then(|p| p.str_field("git_revision")),
            Some("deadbeef")
        );
    }

    #[test]
    fn json_report_always_carries_resume_accounting_and_provenance() {
        // Unstamped, un-resumed trace: fields still present with
        // explicit zero/null values.
        let a = analyze_reader(mini_trace().as_bytes()).expect("parses");
        let text = a.report_text();
        assert!(!text.contains("provenance"), "{text}");
        let v = Json::parse(&a.report_json()).expect("valid JSON");
        assert_eq!(v.u64_field("chips_resumed"), Some(0));
        assert_eq!(v.u64_field("chips_failed"), Some(0));
        assert!(matches!(v.get("provenance"), Some(Json::Null)));

        let trace = format!(
            "{}\n{}\n",
            r#"{"kind":"counter","name":"campaign.chips_resumed","value":3}"#,
            r#"{"kind":"counter","name":"campaign.chips_failed","value":1}"#,
        );
        let v = Json::parse(&analyze_reader(trace.as_bytes()).unwrap().report_json())
            .expect("valid JSON");
        assert_eq!(v.u64_field("chips_resumed"), Some(3));
        assert_eq!(v.u64_field("chips_failed"), Some(1));
    }

    #[test]
    fn span_samples_fold_separately_from_aggregated_spans() {
        let sidecar = concat!(
            r#"{"kind":"span-sample","path":"campaign/chip0","nanos":1500}"#,
            "\n",
            r#"{"kind":"span-sample","path":"campaign/chip0","nanos":500}"#,
            "\n",
            r#"{"kind":"span","path":"campaign/chip0","count":2,"total_ns":2000}"#,
            "\n",
        );
        let a = analyze_reader(sidecar.as_bytes()).expect("parses");
        assert_eq!(a.span_samples["campaign/chip0"], (2, 2000));
        // The aggregated tail is not double-counted into the samples.
        assert_eq!(a.spans["campaign/chip0"], (2, 2000));
    }

    #[test]
    fn merge_timing_folds_digests_and_spans_but_not_counters() {
        let mut primary = analyze_reader(mini_trace().as_bytes()).expect("parses");
        let sidecar = concat!(
            r#"{"kind":"histogram","name":"decision.latency.fuzzy_us","timing":true,"bounds":[10.0,100.0,1000.0],"counts":[0,1,0,0],"count":1,"sum":50.0}"#,
            "\n",
            r#"{"kind":"histogram","name":"decision.latency_us","timing":true,"bounds":[10.0,100.0],"counts":[1,0,0],"count":1,"sum":5.0}"#,
            "\n",
            r#"{"kind":"span","path":"campaign","count":1,"total_ns":55}"#,
            "\n",
            r#"{"kind":"counter","name":"timing.span_samples","value":7}"#,
            "\n",
        );
        let timing = analyze_reader(sidecar.as_bytes()).expect("parses");
        primary.merge_timing(&timing).expect("merges");
        // Same-name digest merged, new digest added.
        assert_eq!(primary.digests["decision.latency.fuzzy_us"].count(), 5);
        assert_eq!(primary.digests["decision.latency_us"].count(), 1);
        // Spans accumulate; sidecar bookkeeping counters stay out.
        assert_eq!(primary.spans["campaign"], (2, 12400));
        assert!(!primary.counters.contains_key("timing.span_samples"));

        // Bound mismatch is an error, not a silent mis-merge.
        let clash = analyze_reader(
            concat!(
                r#"{"kind":"histogram","name":"decision.latency_us","timing":true,"bounds":[1.0,2.0],"counts":[1,0,0],"count":1,"sum":1.5}"#,
                "\n",
            )
            .as_bytes(),
        )
        .expect("parses");
        assert!(primary.merge_timing(&clash).is_err());
    }

    #[test]
    fn malformed_provenance_record_is_an_error() {
        // Followed by more content so it can't be excused as a torn tail.
        let bad = concat!(
            "{\"kind\":\"provenance\",\"host\":\"x\"}\n",
            "{\"kind\":\"counter\",\"name\":\"solver.cache.hits\",\"value\":1}\n",
        );
        let e = analyze_reader(bad.as_bytes()).unwrap_err();
        assert!(e.message.contains("provenance"), "{}", e.message);
        assert_eq!(e.line, 1);
    }

    mod reader_properties {
        use super::*;
        use crate::damage;
        use eval_trace::{MetricUpdate, Registry};
        use proptest::prelude::*;

        /// Metric-name characters, JSON's escapes and a non-ASCII one
        /// included.
        const NAME_CHARS: [char; 8] = ['a', 'b', '.', '_', '"', '\\', '\n', 'µ'];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The counters and gauges a registry writes read back
            /// exactly: counter sums below 2^53 (where JSON numbers are
            /// exact) and every gauge's last value bit for bit.
            #[test]
            fn prop_metric_lines_round_trip(
                names in proptest::collection::vec(
                    proptest::collection::vec(0usize..NAME_CHARS.len(), 1..6),
                    1..5,
                ),
                updates in proptest::collection::vec(0usize..64, 0..24),
                adds in proptest::collection::vec(0u64..1 << 40, 24),
                values in proptest::collection::vec(-1e12f64..1e12, 24),
            ) {
                let names: Vec<String> = names
                    .iter()
                    .map(|chars| chars.iter().map(|&c| NAME_CHARS[c]).collect())
                    .collect();
                let mut registry = Registry::new();
                let mut counters = BTreeMap::new();
                let mut gauges = BTreeMap::new();
                for (i, &u) in updates.iter().enumerate() {
                    let name = names[u % names.len()].clone();
                    if u % 2 == 0 {
                        registry.apply(&MetricUpdate::CounterAdd(name.clone().into(), adds[i]));
                        *counters.entry(name).or_insert(0) += adds[i];
                    } else {
                        registry.apply(&MetricUpdate::GaugeSet(name.clone().into(), values[i]));
                        gauges.insert(name, values[i].to_bits());
                    }
                }
                let text = registry.jsonl_lines().join("\n");
                let a = analyze_reader(text.as_bytes()).expect("a written trace reads back");
                prop_assert!(!a.truncated_tail);
                prop_assert_eq!(a.counters, counters);
                let read: BTreeMap<String, u64> =
                    a.gauges.iter().map(|(n, v)| (n.clone(), v.to_bits())).collect();
                prop_assert_eq!(read, gauges);
            }

            /// A damaged trace never panics the reader. A cut or
            /// reordered trace still reads; an error names a line that
            /// the damage produced, never one of the trace's own lines.
            /// Reordered lines leave every counter and span sum as it
            /// was.
            #[test]
            fn prop_damaged_traces_fail_only_on_damaged_lines(
                kind in 0usize..damage::KINDS,
                at in 0.0f64..1.0,
                ascii in 0u32..128,
            ) {
                let clean = mini_trace();
                let whole: Vec<&str> = clean.lines().collect();
                let reference = analyze_reader(clean.as_bytes()).expect("the clean trace reads");

                let damaged = damage::apply(&clean, kind, at, ascii as u8);
                let read = std::panic::catch_unwind(|| analyze_reader(damaged.as_bytes()));
                prop_assert!(read.is_ok(), "analyze panicked on damage {} at {}", kind, at);
                match read.unwrap() {
                    Ok(a) => {
                        if kind == 4 {
                            prop_assert_eq!(&a.counters, &reference.counters);
                            prop_assert_eq!(&a.spans, &reference.spans);
                        }
                    }
                    Err(err) => {
                        prop_assert!(kind == 1, "damage {} at {} failed: {}", kind, at, err);
                        let line = damaged.lines().nth(err.line - 1).unwrap_or("");
                        prop_assert!(
                            !whole.contains(&line),
                            "error names the undamaged line {}: {}", err.line, err
                        );
                    }
                }
            }
        }
    }
}
