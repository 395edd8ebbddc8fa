//! The bench regression gate (`eval-obs bench-check`).
//!
//! Compares a freshly generated `BENCH_hotpath.json` against the
//! committed baseline and the pooled `BENCH_history.jsonl` distribution.
//! Two gates exist:
//!
//! * **quantile gate (v2, default)** — when the fresh file carries
//!   per-benchmark sample vectors (`hotpath --samples N`), each
//!   benchmark's nine deciles are compared against the pooled history
//!   samples from the *same host* (falling back to the baseline file's
//!   own samples when history is thin). The verdict reports effect
//!   sizes — the worst decile shift in ns and as a fraction of baseline
//!   spread — and fires only when the shift is both statistically
//!   significant (permutation test, bounded false-positive rate α) and
//!   material (≥ a configurable fraction of the baseline median). See
//!   [`crate::stats`].
//! * **legacy ratio gate (v1)** — `fresh_ns ≤ baseline_ns × (1 + tol)`,
//!   used for v1 records without samples, for hosts with no history,
//!   and always under `--legacy-tolerance`.
//!
//! Either way:
//!
//! * every baseline benchmark must still exist (a missing benchmark is
//!   a coverage regression);
//! * the end-of-run `solver.cache.hit_rate` metric must not drop more
//!   than two points below the baseline, *and* must clear the absolute
//!   [`MIN_HIT_RATE`] floor — a perf win that silently loses the cache
//!   is still a regression;
//! * every run appends one JSONL line to `BENCH_history.jsonl` (v2
//!   lines carry the full sample vectors and a provenance stamp), so
//!   the distribution the next run gates against keeps growing.
//!
//! Wired onto tier-1 (see `ROADMAP.md`): the gate exits nonzero on any
//! regression.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use eval_trace::json::{f64_array, Json, JsonObject};
use eval_trace::names;
use eval_trace::provenance::Provenance;

use crate::stats::{effect_size, quantile_gate, GateConfig, MIN_SAMPLES};

/// Allowed `solver.cache.hit_rate` drop before the gate fails.
pub const HIT_RATE_SLACK: f64 = 0.02;

/// Absolute `solver.cache.hit_rate` floor: with anchor seeding the
/// ladder sweep should answer well over half its lookups from the
/// cache, so a fresh run below this is a regression no matter what the
/// committed baseline says (a bad baseline must not grandfather a cold
/// cache in).
pub const MIN_HIT_RATE: f64 = 0.60;

/// Minimum pooled same-host history samples per benchmark before the
/// history distribution (rather than the baseline file's samples) is
/// the comparison population.
pub const MIN_HISTORY_SAMPLES: usize = 12;

/// Per-benchmark slowdown tolerances. For the legacy gate these are
/// ratio tolerances (`0.15` allows +15%); for the quantile gate the
/// same per-benchmark overrides act as materiality floors (a benchmark
/// noisy enough to need a 50% ratio tolerance also needs a 50% shift
/// before a statistically-significant result matters).
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Applied when no per-benchmark override matches.
    pub default: f64,
    /// Overrides by benchmark name.
    pub per_bench: BTreeMap<String, f64>,
}

impl Default for Tolerances {
    fn default() -> Self {
        let mut per_bench = BTreeMap::new();
        // The end-to-end campaign row is dominated by scheduling noise
        // at 2 chips; gate it loosely (it exists to catch order-of-
        // magnitude cliffs, not percent drift).
        per_bench.insert("campaign_exhdyn_2chips".to_string(), 0.5);
        Self {
            default: 0.15,
            per_bench,
        }
    }
}

impl Tolerances {
    /// The legacy ratio tolerance applied to `name`.
    pub fn for_bench(&self, name: &str) -> f64 {
        self.per_bench.get(name).copied().unwrap_or(self.default)
    }
}

/// One parsed `BENCH_*.json` file.
#[derive(Debug, Clone, Default)]
pub struct BenchFile {
    /// `fast_ns` by benchmark name.
    pub benches: BTreeMap<String, f64>,
    /// Full sample vectors by benchmark name (v2 files written with
    /// `hotpath --samples`), collection order.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// End-of-run metrics (`solver.cache.hit_rate`, ...), when present.
    pub metrics: BTreeMap<String, f64>,
    /// The provenance stamp (v2 files).
    pub provenance: Option<Provenance>,
    /// Declared format version (1 when the file predates the field).
    pub format: u64,
}

/// A bench file could not be read or parsed.
#[derive(Debug)]
pub struct BenchFileError {
    /// The offending path.
    pub path: std::path::PathBuf,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BenchFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for BenchFileError {}

impl BenchFile {
    /// Parses the JSON text of a bench file (v1 or v2).
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not the expected shape.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let mut out = BenchFile {
            format: v.u64_field("format").unwrap_or(1),
            ..BenchFile::default()
        };
        let rows = v
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or("missing `benchmarks` array")?;
        for row in rows {
            let name = row.str_field("name").ok_or("benchmark without name")?;
            let fast = row.f64_field("fast_ns").ok_or("benchmark without fast_ns")?;
            out.benches.insert(name.to_string(), fast);
            if let Some(arr) = row.get("samples_ns").and_then(Json::as_arr) {
                let samples: Vec<f64> = arr.iter().filter_map(Json::as_f64).collect();
                if !samples.is_empty() {
                    out.samples.insert(name.to_string(), samples);
                }
            }
        }
        if let Some(Json::Obj(fields)) = v.get("metrics") {
            for (k, m) in fields {
                if let Some(x) = m.as_f64() {
                    out.metrics.insert(k.clone(), x);
                }
            }
        }
        out.provenance = v.get("provenance").and_then(Provenance::from_json);
        Ok(out)
    }

    /// Loads and parses a bench file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`BenchFileError`] on I/O or parse failure.
    pub fn load(path: &Path) -> Result<BenchFile, BenchFileError> {
        let text = std::fs::read_to_string(path).map_err(|e| BenchFileError {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        BenchFile::parse(&text).map_err(|message| BenchFileError {
            path: path.to_path_buf(),
            message,
        })
    }
}

/// One parsed `BENCH_history.jsonl` record, as much of it as the gate
/// needs: v1 lines contribute nothing to the pooled distribution but
/// still parse (`samples` empty).
#[derive(Debug, Clone, Default)]
pub struct HistoryRecord {
    /// Declared line format (1 when absent).
    pub format: u64,
    /// Host fingerprint of the recording run, when stamped.
    pub host: Option<String>,
    /// Sample vectors by benchmark name (v2 lines only).
    pub samples: BTreeMap<String, Vec<f64>>,
}

/// Parses history text: one JSON record per line, `#` comment lines and
/// blanks skipped, unparsable lines dropped (history is append-only
/// telemetry, not a load-bearing input — a corrupt line must not brick
/// the gate).
pub fn parse_history(text: &str) -> Vec<HistoryRecord> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Ok(v) = Json::parse(line) else { continue };
        let mut rec = HistoryRecord {
            format: v.u64_field("format").unwrap_or(1),
            host: v.str_field("host").map(str::to_string),
            ..HistoryRecord::default()
        };
        if rec.host.is_none() {
            rec.host = v
                .get("provenance")
                .and_then(|p| p.str_field("host"))
                .map(str::to_string);
        }
        if let Some(Json::Obj(rows)) = v.get("benchmarks") {
            for (name, row) in rows {
                if let Some(arr) = row.get("samples_ns").and_then(Json::as_arr) {
                    let samples: Vec<f64> = arr.iter().filter_map(Json::as_f64).collect();
                    if !samples.is_empty() {
                        rec.samples.insert(name.clone(), samples);
                    }
                }
            }
        }
        out.push(rec);
    }
    out
}

/// Loads and parses a history file; a missing file is an empty history.
///
/// # Errors
///
/// Any I/O error other than the file not existing.
pub fn load_history(path: &Path) -> std::io::Result<Vec<HistoryRecord>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(parse_history(&text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Which gate judged a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Fixed-ratio gate (v1 records, thin data, or `--legacy-tolerance`).
    Legacy,
    /// Quantile gate against pooled same-host history samples.
    QuantileHistory,
    /// Quantile gate against the baseline file's own samples.
    QuantileBaseline,
}

impl GateMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            GateMode::Legacy => "legacy",
            GateMode::QuantileHistory => "quantile:history",
            GateMode::QuantileBaseline => "quantile:baseline",
        }
    }
}

/// Everything `check_distribution` needs beyond the two bench files.
#[derive(Debug, Clone, Default)]
pub struct GateOptions {
    /// Ratio tolerances (legacy) / materiality floors (quantile).
    pub tolerances: Tolerances,
    /// Quantile-gate tuning (α, trials, default materiality, seed).
    pub gate: GateConfig,
    /// Force the legacy ratio gate everywhere (`--legacy-tolerance`).
    pub force_legacy: bool,
    /// How many most-recent matching-host history records pool into the
    /// comparison distribution.
    pub history_window: usize,
}

impl GateOptions {
    /// Defaults: quantile gating with an 8-record history window.
    pub fn new() -> GateOptions {
        GateOptions {
            tolerances: Tolerances::default(),
            gate: GateConfig::default(),
            force_legacy: false,
            history_window: 8,
        }
    }

    /// The quantile materiality floor for `name`: the per-benchmark
    /// tolerance override when present, the gate default otherwise.
    fn min_effect_for(&self, name: &str) -> f64 {
        self.tolerances
            .per_bench
            .get(name)
            .copied()
            .unwrap_or(self.gate.min_effect_frac)
    }
}

/// One benchmark's verdict.
#[derive(Debug, Clone)]
pub struct BenchVerdict {
    /// Benchmark name.
    pub name: String,
    /// Baseline `fast_ns`.
    pub baseline_ns: f64,
    /// Fresh `fast_ns` (`None`: the benchmark disappeared).
    pub fresh_ns: Option<f64>,
    /// `fresh / baseline` when both exist.
    pub ratio: Option<f64>,
    /// The tolerance applied (ratio tolerance for legacy rows, the
    /// materiality floor for quantile rows).
    pub tolerance: f64,
    /// Which gate judged this row.
    pub mode: GateMode,
    /// Worst decile shift in ns (quantile rows).
    pub shift_ns: Option<f64>,
    /// Worst decile shift in units of baseline spread (quantile rows).
    pub shift_frac_of_spread: Option<f64>,
    /// Permutation-test significance bar the statistic had to clear
    /// (quantile rows).
    pub threshold: Option<f64>,
    /// Within tolerance?
    pub ok: bool,
}

impl BenchVerdict {
    fn legacy(name: &str, baseline_ns: f64, fresh_ns: Option<f64>, tolerance: f64) -> Self {
        let ratio = fresh_ns.map(|f| f / baseline_ns);
        // A missing benchmark is a coverage regression, not a pass.
        let ok = ratio.is_some_and(|r| r <= 1.0 + tolerance);
        BenchVerdict {
            name: name.to_string(),
            baseline_ns,
            fresh_ns,
            ratio,
            tolerance,
            mode: GateMode::Legacy,
            shift_ns: None,
            shift_frac_of_spread: None,
            threshold: None,
            ok,
        }
    }
}

/// The whole gate's verdict.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Per-benchmark rows, baseline order.
    pub rows: Vec<BenchVerdict>,
    /// `(baseline, fresh, ok)` for `solver.cache.hit_rate`, when both
    /// files carry it.
    pub hit_rate: Option<(f64, f64, bool)>,
    /// Benchmarks present only in the fresh file (informational).
    pub new_benches: Vec<String>,
    /// The fresh file's sample vectors, carried for the history line.
    pub fresh_samples: BTreeMap<String, Vec<f64>>,
    /// The fresh file's provenance stamp, carried for the history line.
    pub fresh_provenance: Option<Provenance>,
}

impl CheckReport {
    /// Whether the gate passes.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| r.ok) && self.hit_rate.is_none_or(|(_, _, ok)| ok)
    }

    /// Human-readable verdict table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>14} {:>8} {:>7} {:>18} {:>12} {:>6}",
            "benchmark", "baseline_ns", "fresh_ns", "ratio", "tol", "mode", "shift", "ok"
        );
        for r in &self.rows {
            let fresh = r
                .fresh_ns
                .map_or_else(|| "missing".to_string(), |v| format!("{v:.1}"));
            let ratio = r
                .ratio
                .map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
            let shift = match (r.shift_ns, r.shift_frac_of_spread) {
                (Some(ns), Some(frac)) => format!("{ns:+.1}({frac:+.1}s)"),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<28} {:>14.1} {:>14} {:>8} {:>6.0}% {:>18} {:>12} {:>6}",
                r.name,
                r.baseline_ns,
                fresh,
                ratio,
                r.tolerance * 100.0,
                r.mode.label(),
                shift,
                if r.ok { "ok" } else { "FAIL" }
            );
        }
        if let Some((base, fresh, ok)) = self.hit_rate {
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:>14.4} {:>8} {:>7} {:>18} {:>12} {:>6}",
                names::SOLVER_CACHE_HIT_RATE,
                base,
                fresh,
                "-",
                "-",
                "-",
                "-",
                if ok { "ok" } else { "FAIL" }
            );
        }
        for name in &self.new_benches {
            let _ = writeln!(out, "note: new benchmark `{name}` (not gated)");
        }
        let _ = writeln!(out, "verdict: {}", if self.pass() { "PASS" } else { "FAIL" });
        out
    }

    /// One JSONL history line for this comparison: a v2 line (format,
    /// host, provenance, per-benchmark sample vectors and effect sizes)
    /// when the fresh file carried samples, the original v1 shape
    /// otherwise.
    pub fn history_line(&self, unix_secs: u64) -> String {
        if self.fresh_samples.is_empty() {
            return self.history_line_v1(unix_secs);
        }
        let rows = {
            let mut o = JsonObject::new();
            for r in &self.rows {
                let mut cell = JsonObject::new();
                cell = match r.fresh_ns {
                    Some(v) => cell.f64("fast_ns", v),
                    None => cell.raw("fast_ns", "null"),
                };
                if let Some(samples) = self.fresh_samples.get(&r.name) {
                    cell = cell.raw("samples_ns", &f64_array(samples));
                }
                cell = match r.shift_ns {
                    Some(v) => cell.f64("shift_ns", v),
                    None => cell.raw("shift_ns", "null"),
                };
                cell = match r.shift_frac_of_spread {
                    Some(v) => cell.f64("shift_frac", v),
                    None => cell.raw("shift_frac", "null"),
                };
                o = o.raw(&r.name, &cell.bool("ok", r.ok).finish());
            }
            o.finish()
        };
        let mut line = JsonObject::new()
            .u64("format", 2)
            .u64("unix_secs", unix_secs)
            .bool("pass", self.pass());
        line = match &self.fresh_provenance {
            Some(p) => line.str("host", &p.host).raw("provenance", &p.to_json()),
            None => line.raw("host", "null").raw("provenance", "null"),
        };
        line.raw("benchmarks", &rows)
            .raw("hit_rate", &self.hit_rate_json())
            .finish()
    }

    fn hit_rate_json(&self) -> String {
        match self.hit_rate {
            Some((base, fresh, ok)) => JsonObject::new()
                .f64("baseline", base)
                .f64("fresh", fresh)
                .bool("ok", ok)
                .finish(),
            None => "null".to_string(),
        }
    }

    fn history_line_v1(&self, unix_secs: u64) -> String {
        let rows = {
            let mut o = JsonObject::new();
            for r in &self.rows {
                let mut cell = JsonObject::new().f64("baseline_ns", r.baseline_ns);
                cell = match r.fresh_ns {
                    Some(v) => cell.f64("fresh_ns", v),
                    None => cell.raw("fresh_ns", "null"),
                };
                cell = match r.ratio {
                    Some(v) => cell.f64("ratio", v),
                    None => cell.raw("ratio", "null"),
                };
                o = o.raw(&r.name, &cell.bool("ok", r.ok).finish());
            }
            o.finish()
        };
        JsonObject::new()
            .u64("unix_secs", unix_secs)
            .bool("pass", self.pass())
            .raw("benchmarks", &rows)
            .raw("hit_rate", &self.hit_rate_json())
            .finish()
    }
}

/// Compares `fresh` against `baseline` with the legacy ratio gate only
/// (the v1 entry point; `--legacy-tolerance` routes here, and
/// [`check_distribution`] falls back here per benchmark when samples
/// are missing).
pub fn check(baseline: &BenchFile, fresh: &BenchFile, tol: &Tolerances) -> CheckReport {
    let mut report = CheckReport::default();
    for (name, &baseline_ns) in &baseline.benches {
        report.rows.push(BenchVerdict::legacy(
            name,
            baseline_ns,
            fresh.benches.get(name).copied(),
            tol.for_bench(name),
        ));
    }
    finish_report(&mut report, baseline, fresh);
    report
}

/// The distribution-aware gate. Per benchmark, in order of preference:
///
/// 1. **quantile vs history** — fresh samples ≥ [`MIN_SAMPLES`] and the
///    pooled same-host history holds ≥ [`MIN_HISTORY_SAMPLES`] samples;
/// 2. **quantile vs baseline** — fresh and baseline files both carry
///    enough samples;
/// 3. **legacy ratio** — anything thinner (v1 files, new hosts with no
///    history yet, or a baseline stamped by a different machine). This
///    makes the gate self-healing: a brand-new machine gates by ratio
///    until its own history accumulates.
///
/// In history mode the significance bar is additionally floored at the
/// worst between-run drift the window has already demonstrated (see
/// `between_run_drift`): a shift inside the machine's documented
/// wobble is noise, not a regression.
pub fn check_distribution(
    baseline: &BenchFile,
    fresh: &BenchFile,
    history: &[HistoryRecord],
    opts: &GateOptions,
) -> CheckReport {
    if opts.force_legacy {
        return check(baseline, fresh, &opts.tolerances);
    }
    let fresh_host = fresh.provenance.as_ref().map(|p| p.host.as_str());
    let baseline_host = baseline.provenance.as_ref().map(|p| p.host.as_str());
    // A baseline recorded on another machine is not a comparison
    // population: its sample distribution encodes that machine's
    // timings, so quantile-gating against it would flag every
    // cross-machine difference. Only a *known, differing* host pair
    // disqualifies — unstamped files (tests, hand-built fixtures) are
    // assumed local.
    let cross_machine_baseline = matches!(
        (baseline_host, fresh_host),
        (Some(b), Some(f)) if b != f
    );
    let mut report = CheckReport::default();
    for (name, &baseline_ns) in &baseline.benches {
        let fresh_ns = fresh.benches.get(name).copied();
        let fresh_samples = fresh.samples.get(name);
        let verdict = match fresh_samples {
            Some(samples) if samples.len() >= MIN_SAMPLES => {
                let groups = history_groups(history, name, fresh_host, opts.history_window);
                let pooled_len: usize = groups.iter().map(Vec::len).sum();
                let (population, mode) = if pooled_len >= MIN_HISTORY_SAMPLES {
                    (groups.concat(), GateMode::QuantileHistory)
                } else if !cross_machine_baseline
                    && baseline
                        .samples
                        .get(name)
                        .is_some_and(|s| s.len() >= MIN_SAMPLES)
                {
                    (baseline.samples[name].clone(), GateMode::QuantileBaseline)
                } else {
                    (Vec::new(), GateMode::Legacy)
                };
                if mode == GateMode::Legacy {
                    None
                } else {
                    let drift = if mode == GateMode::QuantileHistory {
                        between_run_drift(&groups)
                    } else {
                        None
                    };
                    quantile_verdict(
                        name, baseline_ns, fresh_ns, samples, &population, mode, drift, opts,
                    )
                }
            }
            _ => None,
        };
        report.rows.push(verdict.unwrap_or_else(|| {
            BenchVerdict::legacy(
                name,
                baseline_ns,
                fresh_ns,
                opts.tolerances.for_bench(name),
            )
        }));
    }
    finish_report(&mut report, baseline, fresh);
    report
}

/// The per-record sample vectors for `bench` over the most recent
/// `window` history records whose host matches `fresh_host`, oldest
/// first. No host on the fresh side means no pooling — distributions
/// from unknown origins are not comparable. Record boundaries are kept
/// so [`between_run_drift`] can see run-level structure.
fn history_groups(
    history: &[HistoryRecord],
    bench: &str,
    fresh_host: Option<&str>,
    window: usize,
) -> Vec<Vec<f64>> {
    let Some(host) = fresh_host else {
        return Vec::new();
    };
    let matching: Vec<&HistoryRecord> = history
        .iter()
        .filter(|r| r.host.as_deref() == Some(host) && r.samples.contains_key(bench))
        .collect();
    let start = matching.len().saturating_sub(window.max(1));
    matching[start..]
        .iter()
        .map(|rec| rec.samples[bench].clone())
        .collect()
}

/// The worst "one run vs the rest" statistic over the history window:
/// the between-run drift this machine has already demonstrated.
///
/// Samples within a run share machine state (turbo, cache residency,
/// co-tenants), so the pooled permutation null — which shuffles
/// individual samples — underestimates run-to-run variance. The fresh
/// run must stick out farther than any past run did before its shift
/// counts as significant.
fn between_run_drift(groups: &[Vec<f64>]) -> Option<f64> {
    if groups.len() < 2 {
        return None;
    }
    let mut worst: Option<f64> = None;
    for (i, held_out) in groups.iter().enumerate() {
        let rest: Vec<f64> = groups
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .flat_map(|(_, g)| g.iter().copied())
            .collect();
        if let Some(e) = effect_size(&rest, held_out) {
            let s = e.shift_frac_of_spread;
            worst = Some(worst.map_or(s, |w| w.max(s)));
        }
    }
    worst
}

#[allow(clippy::too_many_arguments)]
fn quantile_verdict(
    name: &str,
    baseline_ns: f64,
    fresh_ns: Option<f64>,
    fresh_samples: &[f64],
    population: &[f64],
    mode: GateMode,
    drift_floor: Option<f64>,
    opts: &GateOptions,
) -> Option<BenchVerdict> {
    let cfg = GateConfig {
        min_effect_frac: opts.min_effect_for(name),
        ..opts.gate
    };
    let mut v = quantile_gate(population, fresh_samples, &cfg)?;
    if let Some(floor) = drift_floor {
        if floor > v.threshold {
            v.threshold = floor;
            v.significant = v.statistic > floor;
            v.regression = v.significant && v.material;
        }
    }
    Some(BenchVerdict {
        name: name.to_string(),
        baseline_ns,
        fresh_ns,
        ratio: fresh_ns.map(|f| f / baseline_ns),
        tolerance: cfg.min_effect_frac,
        mode,
        shift_ns: Some(v.effect.max_shift_ns),
        shift_frac_of_spread: Some(v.effect.shift_frac_of_spread),
        threshold: Some(v.threshold),
        ok: !v.regression,
    })
}

/// The parts shared by both gates: new-benchmark notes, the hit-rate
/// gate, and the fresh-side carry-over for the history line.
fn finish_report(report: &mut CheckReport, baseline: &BenchFile, fresh: &BenchFile) {
    for name in fresh.benches.keys() {
        if !baseline.benches.contains_key(name) {
            report.new_benches.push(name.clone());
        }
    }
    if let (Some(&base), Some(&new)) = (
        baseline.metrics.get(names::SOLVER_CACHE_HIT_RATE),
        fresh.metrics.get(names::SOLVER_CACHE_HIT_RATE),
    ) {
        let ok = new >= base - HIT_RATE_SLACK && new >= MIN_HIT_RATE;
        report.hit_rate = Some((base, new, ok));
    }
    report.fresh_samples = fresh.samples.clone();
    report.fresh_provenance = fresh.provenance.clone();
}

/// Appends the comparison's history line to `path` (created when
/// missing).
///
/// # Errors
///
/// Propagates the I/O error.
pub fn append_history(path: &Path, report: &CheckReport) -> std::io::Result<()> {
    let unix_secs = eval_trace::timing::unix_time_secs();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", report.history_line(unix_secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(campaign_ns: f64, hit_rate: f64) -> String {
        format!(
            concat!(
                "{{\n  \"benchmarks\": [\n",
                "    {{\"name\": \"solve_thermal\", \"fast_ns\": 250.0, \"reference_ns\": 2000.0, \"speedup\": 8.00}},\n",
                "    {{\"name\": \"campaign_exhdyn_2chips\", \"fast_ns\": {:.1}, \"reference_ns\": null, \"speedup\": null}}\n",
                "  ],\n",
                "  \"metrics\": {{\"solver.cache.hits\": 90.0, \"solver.cache.hit_rate\": {:.4}}}\n}}\n"
            ),
            campaign_ns, hit_rate
        )
    }

    fn samples(center: f64, n: usize) -> Vec<f64> {
        // ±2% deterministic jitter around `center`.
        (0..n)
            .map(|i| center * (1.0 + 0.02 * f64::from(i as u32 % 5) / 4.0 - 0.01))
            .collect()
    }

    fn v2_file(name: &str, center: f64, host: &str) -> BenchFile {
        let mut f = BenchFile {
            format: 2,
            ..BenchFile::default()
        };
        f.benches.insert(name.to_string(), center);
        f.samples.insert(name.to_string(), samples(center, 9));
        f.provenance = Some(Provenance {
            artifact: "bench-json".to_string(),
            content_address: None,
            git_revision: "test".to_string(),
            host: host.to_string(),
            config_fingerprint: None,
            schema_hash: String::new(),
        });
        f
    }

    fn history_for(name: &str, center: f64, host: &str, records: usize) -> Vec<HistoryRecord> {
        (0..records)
            .map(|_| {
                let mut rec = HistoryRecord {
                    format: 2,
                    host: Some(host.to_string()),
                    ..HistoryRecord::default()
                };
                rec.samples.insert(name.to_string(), samples(center, 9));
                rec
            })
            .collect()
    }

    #[test]
    fn parses_benchmarks_and_metrics() {
        let f = BenchFile::parse(&bench_json(1e9, 0.91)).expect("parses");
        assert_eq!(f.benches["solve_thermal"], 250.0);
        assert_eq!(f.metrics["solver.cache.hit_rate"], 0.91);
        assert_eq!(f.format, 1);
        assert!(f.samples.is_empty());
        assert!(f.provenance.is_none());
    }

    #[test]
    fn parses_v2_samples_and_provenance() {
        let text = concat!(
            "{\"format\": 2, \"benchmarks\": [",
            "{\"name\": \"a\", \"fast_ns\": 10.0, \"reference_ns\": null, ",
            "\"speedup\": null, \"samples_ns\": [9.0, 10.0, 11.0]}],",
            "\"metrics\": {},",
            "\"provenance\": {\"artifact\": \"bench-json\", ",
            "\"content_address\": \"abcd\", \"git_revision\": \"r\", ",
            "\"host\": \"h\", \"config_fingerprint\": null, ",
            "\"schema_hash\": \"s\"}}"
        );
        let f = BenchFile::parse(text).expect("parses");
        assert_eq!(f.format, 2);
        assert_eq!(f.samples["a"], vec![9.0, 10.0, 11.0]);
        let p = f.provenance.expect("stamped");
        assert_eq!(p.host, "h");
        assert_eq!(p.content_address.as_deref(), Some("abcd"));
    }

    #[test]
    fn within_tolerance_passes_and_over_fails() {
        let baseline = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
        let tol = Tolerances::default();

        // +10% on a 15%-gated row: pass.
        let mut fresh = baseline.clone();
        fresh.benches.insert("solve_thermal".into(), 275.0);
        assert!(check(&baseline, &fresh, &tol).pass());

        // +20%: fail, and the verdict names the row.
        fresh.benches.insert("solve_thermal".into(), 300.0);
        let report = check(&baseline, &fresh, &tol);
        assert!(!report.pass());
        let row = report.rows.iter().find(|r| r.name == "solve_thermal").unwrap();
        assert!(!row.ok);
        assert_eq!(row.mode, GateMode::Legacy);
        assert!(report.render_text().contains("FAIL"));
    }

    #[test]
    fn noisy_campaign_row_gets_its_wider_tolerance() {
        let baseline = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
        let tol = Tolerances::default();
        // +40% on the end-to-end row is inside its 50% override.
        let mut fresh = baseline.clone();
        fresh.benches.insert("campaign_exhdyn_2chips".into(), 1.4e9);
        assert!(check(&baseline, &fresh, &tol).pass());
        // +60% is not.
        fresh.benches.insert("campaign_exhdyn_2chips".into(), 1.6e9);
        assert!(!check(&baseline, &fresh, &tol).pass());
    }

    #[test]
    fn missing_benchmark_is_a_regression() {
        let baseline = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
        let mut fresh = baseline.clone();
        fresh.benches.remove("solve_thermal");
        let report = check(&baseline, &fresh, &Tolerances::default());
        assert!(!report.pass());
        assert!(report.render_text().contains("missing"));
    }

    #[test]
    fn hit_rate_gate_allows_slack_but_not_a_real_drop() {
        let baseline = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
        let fresh_ok = BenchFile::parse(&bench_json(1e9, 0.90)).unwrap();
        assert!(check(&baseline, &fresh_ok, &Tolerances::default()).pass());
        let fresh_bad = BenchFile::parse(&bench_json(1e9, 0.80)).unwrap();
        let report = check(&baseline, &fresh_bad, &Tolerances::default());
        assert!(!report.pass());
        assert_eq!(report.hit_rate, Some((0.91, 0.80, false)));
    }

    #[test]
    fn hit_rate_below_the_absolute_floor_fails_even_with_a_bad_baseline() {
        // A baseline that itself sits under the floor must not
        // grandfather a cold cache in: slack-relative comparison passes,
        // the absolute floor does not.
        let baseline = BenchFile::parse(&bench_json(1e9, 0.40)).unwrap();
        let fresh = BenchFile::parse(&bench_json(1e9, 0.45)).unwrap();
        let report = check(&baseline, &fresh, &Tolerances::default());
        assert!(!report.pass());
        assert_eq!(report.hit_rate, Some((0.40, 0.45, false)));
        // At or above the floor (and within slack) passes.
        let baseline = BenchFile::parse(&bench_json(1e9, 0.61)).unwrap();
        let fresh = BenchFile::parse(&bench_json(1e9, 0.60)).unwrap();
        assert!(check(&baseline, &fresh, &Tolerances::default()).pass());
    }

    #[test]
    fn history_line_is_one_valid_json_object() {
        let baseline = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
        let report = check(&baseline, &baseline, &Tolerances::default());
        let line = report.history_line(1_700_000_000);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("pass").and_then(Json::as_bool), Some(true));
        assert_eq!(v.u64_field("unix_secs"), Some(1_700_000_000));
        assert!(v.get("benchmarks").and_then(|b| b.get("solve_thermal")).is_some());
    }

    #[test]
    fn legacy_files_without_metrics_skip_the_hit_rate_gate() {
        let legacy = r#"{"benchmarks": [{"name": "solve_thermal", "fast_ns": 250.0, "reference_ns": null, "speedup": null}]}"#;
        let f = BenchFile::parse(legacy).expect("parses");
        assert!(f.metrics.is_empty());
        let report = check(&f, &f, &Tolerances::default());
        assert!(report.pass());
        assert!(report.hit_rate.is_none());
    }

    #[test]
    fn distribution_gate_uses_history_when_thick_enough() {
        let baseline = v2_file("a", 1000.0, "host-1");
        let fresh = v2_file("a", 1000.0, "host-1");
        let history = history_for("a", 1000.0, "host-1", 3);
        let report = check_distribution(&baseline, &fresh, &history, &GateOptions::new());
        assert_eq!(report.rows[0].mode, GateMode::QuantileHistory);
        assert!(report.pass());
    }

    #[test]
    fn distribution_gate_ignores_other_hosts_history() {
        let baseline = v2_file("a", 1000.0, "host-1");
        let fresh = v2_file("a", 1000.0, "host-1");
        // Plenty of history — all from a different machine.
        let history = history_for("a", 5000.0, "host-2", 10);
        let report = check_distribution(&baseline, &fresh, &history, &GateOptions::new());
        // Falls back to the baseline file's own samples, and passes
        // (identical distribution), instead of comparing against the
        // 5x-slower foreign host.
        assert_eq!(report.rows[0].mode, GateMode::QuantileBaseline);
        assert!(report.pass());
    }

    #[test]
    fn between_run_drift_raises_the_significance_bar() {
        let baseline = v2_file("a", 1000.0, "host-1");
        let fresh = v2_file("a", 1100.0, "host-1");
        // This machine's history already wobbles ±10% run to run, so a
        // fresh run at +10% is inside its demonstrated drift.
        let mut wobbly = history_for("a", 1000.0, "host-1", 1);
        wobbly.extend(history_for("a", 1100.0, "host-1", 1));
        wobbly.extend(history_for("a", 950.0, "host-1", 1));
        let report = check_distribution(&baseline, &fresh, &wobbly, &GateOptions::new());
        assert_eq!(report.rows[0].mode, GateMode::QuantileHistory);
        assert!(report.pass(), "a shift inside the observed wobble is noise");
        // The same +10% on a rock-steady machine is a regression.
        let steady = history_for("a", 1000.0, "host-1", 3);
        let report = check_distribution(&baseline, &fresh, &steady, &GateOptions::new());
        assert_eq!(report.rows[0].mode, GateMode::QuantileHistory);
        assert!(!report.pass(), "steady history keeps the gate sharp");
    }

    #[test]
    fn cross_machine_baseline_falls_back_to_legacy() {
        // Fresh machine, no history yet: the committed baseline's
        // sample distribution belongs to another host, so the quantile
        // gate must stand down rather than flag the hardware delta.
        let baseline = v2_file("a", 1000.0, "host-1");
        let fresh = v2_file("a", 1120.0, "host-2");
        let mut opts = GateOptions::new();
        opts.tolerances.default = 0.35;
        let report = check_distribution(&baseline, &fresh, &[], &opts);
        assert_eq!(report.rows[0].mode, GateMode::Legacy);
        assert!(report.pass(), "+12% is inside the legacy 0.35 ratio");
        // Same-host history still wins over the mismatch when present.
        let history = history_for("a", 1000.0, "host-2", 3);
        let report = check_distribution(&baseline, &fresh, &history, &opts);
        assert_eq!(report.rows[0].mode, GateMode::QuantileHistory);
    }

    #[test]
    fn distribution_gate_falls_back_to_legacy_without_samples() {
        let baseline = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
        let fresh = baseline.clone();
        let report = check_distribution(&baseline, &fresh, &[], &GateOptions::new());
        assert!(report.rows.iter().all(|r| r.mode == GateMode::Legacy));
        assert!(report.pass());
    }

    #[test]
    fn force_legacy_overrides_samples() {
        let baseline = v2_file("a", 1000.0, "host-1");
        let fresh = v2_file("a", 1000.0, "host-1");
        let opts = GateOptions {
            force_legacy: true,
            ..GateOptions::new()
        };
        let report = check_distribution(&baseline, &fresh, &[], &opts);
        assert_eq!(report.rows[0].mode, GateMode::Legacy);
        assert!(report.pass());
    }

    #[test]
    fn v2_history_line_round_trips_through_parse_history() {
        let baseline = v2_file("a", 1000.0, "host-1");
        let fresh = v2_file("a", 1000.0, "host-1");
        let report = check_distribution(&baseline, &fresh, &[], &GateOptions::new());
        let line = report.history_line(1_700_000_000);
        let records = parse_history(&format!("# comment header\n\n{line}\n"));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].format, 2);
        assert_eq!(records[0].host.as_deref(), Some("host-1"));
        assert_eq!(records[0].samples["a"].len(), 9);
    }

    #[test]
    fn parse_history_tolerates_junk_lines() {
        let text = "# header\nnot json\n{\"unix_secs\": 1, \"pass\": true, \"benchmarks\": {}, \"hit_rate\": null}\n";
        let records = parse_history(text);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].format, 1);
        assert!(records[0].samples.is_empty());
    }

    mod proptests {
        use super::*;
        use crate::damage;
        use proptest::prelude::*;

        /// The committed bench baseline, the file tier-1 gates against.
        const BASELINE: &str = include_str!("../../../BENCH_hotpath.json");

        /// A history file as `bench-check` grows it: a comment header,
        /// two v2 lines from different hosts and a v1 line.
        fn history() -> String {
            let v2 = |name: &str, center: f64, host: &str| {
                let file = v2_file(name, center, host);
                check_distribution(&file, &file, &[], &GateOptions::new()).history_line(7)
            };
            let legacy = BenchFile::parse(&bench_json(1e9, 0.91)).unwrap();
            let v1 = check(&legacy, &legacy, &Tolerances::default()).history_line(8);
            format!(
                "# bench history\n{}\n{}\n{v1}\n",
                v2("a", 1000.0, "host-1"),
                v2("b", 2500.0, "host-2")
            )
        }

        fn same(a: &HistoryRecord, b: &HistoryRecord) -> bool {
            a.format == b.format && a.host == b.host && a.samples == b.samples
        }

        proptest! {
            // Enough cases that replaced bytes land on the few bytes of
            // the keys the readers look up, not only on values.
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// A damaged bench file parses to `Ok` or `Err`, never a
            /// panic; the undamaged file gives back every benchmark.
            #[test]
            fn prop_damaged_bench_files_parse_or_fail(
                kind in 0usize..damage::KINDS,
                at in 0.0f64..1.0,
                ascii in 0u32..128,
            ) {
                let clean = BenchFile::parse(BASELINE).expect("the baseline parses");
                prop_assert_eq!(clean.format, 2);
                prop_assert!(!clean.benches.is_empty());
                prop_assert_eq!(clean.samples.len(), clean.benches.len());
                prop_assert!(clean.provenance.is_some());

                let damaged = damage::apply(BASELINE, kind, at, ascii as u8);
                let parsed = std::panic::catch_unwind(|| BenchFile::parse(&damaged).is_ok());
                prop_assert!(parsed.is_ok(), "parse panicked on damage {} at {}", kind, at);
            }

            /// A damaged history never panics its reader, which drops
            /// only the damaged lines: every line left whole still
            /// gives back its record, in order.
            #[test]
            fn prop_damaged_history_drops_only_the_damaged_lines(
                kind in 0usize..damage::KINDS,
                at in 0.0f64..1.0,
                ascii in 0u32..128,
            ) {
                let clean = history();
                let lines: Vec<&str> = clean.lines().skip(1).collect();
                let records = parse_history(&clean);
                prop_assert_eq!(records.len(), 3);
                for (rec, (host, name, center)) in
                    records.iter().zip([("host-1", "a", 1000.0), ("host-2", "b", 2500.0)])
                {
                    prop_assert_eq!(rec.format, 2);
                    prop_assert_eq!(rec.host.as_deref(), Some(host));
                    prop_assert_eq!(&rec.samples[name], &samples(center, 9));
                }

                let damaged = damage::apply(&clean, kind, at, ascii as u8);
                let parsed = std::panic::catch_unwind(|| parse_history(&damaged));
                prop_assert!(parsed.is_ok(), "parse_history panicked on damage {} at {}", kind, at);
                let got = parsed.unwrap();
                let mut rest = got.iter();
                for whole in damaged.lines() {
                    if let Some(k) = lines.iter().position(|l| *l == whole) {
                        prop_assert!(
                            rest.any(|rec| same(rec, &records[k])),
                            "line {} lost its record after damage {} at {}", k, kind, at
                        );
                    }
                }
            }
        }
    }
}
