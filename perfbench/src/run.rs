//! The two kinds of run: `measure` (tracing off, end-to-end metrics) and
//! `traced` (one traced call plus the layer pass, per-layer metrics and
//! the ledger).

use std::time::Instant;

use eval_trace::{names, Collector, TimingSidecar, Tracer};

use crate::layers::{
    chip_spans, expected_banks, layer_pass, scratch_dir, solver_ratios, solves, DECIDE,
};
use crate::spans::Recorder;
use crate::workload::{self, check, quality, run, setup, Inputs, Job, Output, Size, Workload};
use crate::{median, peak_rss_mb, quantile};

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds to keep repeating the timed call.
    pub seconds: f64,
    /// Worker threads (already clamped to `1..=nproc`).
    pub workers: usize,
    /// Population size.
    pub size: Size,
}

/// The outcome of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Chips simulated.
    pub attempted: u64,
    /// Chips quarantined or covered by a failed check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line.
    pub fn result_line(&self) -> String {
        crate::report::result_line(self.correct(), self.attempted, self.failed, &self.metrics)
    }

    fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Records a metric, failing the run when it is not a finite number.
    fn metric(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.failures
                .push(format!("metric {name} is not finite ({value})"));
        }
        let unit = crate::report::def(name).map_or("", |d| d.unit);
        self.lines.push(format!("{name:<38} {value:>14.6} {unit}"));
        self.metrics.push((name, value));
    }

    /// Checks one output of the timed call and accounts its chips.
    fn account(&mut self, inputs: &Inputs, output: &Output, first_digest: Option<u64>) {
        let chips = inputs.chips() as u64;
        self.attempted += chips;
        let mut failures = check(inputs, output);
        // `check` reports each quarantined chip on its own line; any other
        // failure condemns the whole call.
        let quarantined = output.quarantined();
        if first_digest.is_some_and(|d| d != output.digest()) {
            failures.push(format!(
                "result digest {:#018x} differs from the first call's {:#018x}",
                output.digest(),
                first_digest.unwrap_or_default()
            ));
        }
        self.failed += if failures.len() == quarantined {
            quarantined as u64
        } else {
            chips
        };
        self.failures.extend(failures);
    }
}

fn describe(inputs: &Inputs) -> String {
    let s = inputs.seeds;
    let shape = match &inputs.job {
        Job::Campaign {
            campaign,
            envs,
            schemes,
        } => format!(
            "Campaign::run: {} chips x {} apps x {} envs x {} schemes, {} teacher examples",
            campaign.chips,
            campaign.workloads.len(),
            envs.len(),
            schemes.len(),
            campaign.training.examples
        ),
        Job::Tournament(t) => format!(
            "Tournament::run in {}: {} training + {} held-out chips x {} apps, {} teacher examples",
            t.env.name,
            t.chips,
            t.holdout_chips,
            t.workloads.len(),
            t.training.examples
        ),
    };
    format!(
        "# {shape}; seeds population {:#x} training {:#x} profile {:#x}",
        s.population, s.training, s.profile
    )
}

fn header(opts: &Options, mode: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "# perfbench {} seed {} ({mode}); workers {} of nproc {nproc}",
        opts.workload.name(),
        opts.seed,
        opts.workers
    )
}

/// Runs the workload's timed call repeatedly for `opts.seconds` with
/// tracing off and reports the end-to-end metrics. `setup_probe` returns
/// further cold set-up times (in seconds) to pool with this process's own.
pub fn measure(opts: &Options, setup_probe: impl FnOnce() -> Result<Vec<f64>, String>) -> Report {
    let mut report = Report::default();
    report.line(header(opts, "end to end, tracing off"));
    let t0 = Instant::now();
    let inputs = setup(opts.workload, opts.seed, opts.size, opts.workers);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    match setup_probe() {
        Ok(more) => setup_s.extend(more),
        Err(e) => report.failures.push(format!("set-up probe failed: {e}")),
    }
    report.line(describe(&inputs));

    let mut run_s = Vec::new();
    let mut first: Option<Output> = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let out = run(&inputs, Tracer::noop());
        let dt = t.elapsed().as_secs_f64();
        run_s.push(dt);
        match out {
            Err(e) => {
                report.attempted += inputs.chips() as u64;
                report.failed += inputs.chips() as u64;
                report.failures.push(format!("timed call failed: {e}"));
                break;
            }
            Ok(out) => {
                report.account(&inputs, &out, first.as_ref().map(Output::digest));
                first.get_or_insert(out);
            }
        }
        if start.elapsed().as_secs_f64() + dt > opts.seconds {
            break;
        }
    }

    report.line(format!(
        "# run_s: median of n={} calls (min {:.4}, max {:.4}); setup_s: median of n={} cold set-ups",
        run_s.len(),
        quantile(&run_s, 0.0),
        quantile(&run_s, 1.0),
        setup_s.len()
    ));
    report.metric("run_s", median(&run_s));
    report.metric("setup_s", median(&setup_s));
    match peak_rss_mb() {
        Ok(mb) => report.metric("peak_rss_mb", mb),
        Err(e) => report.failures.push(format!("peak RSS unavailable: {e}")),
    }
    if let Some(out) = &first {
        let q = quality(&inputs, out);
        report.metric("controller_perf_ratio", q.controller_perf_ratio);
        let optional = [
            ("controller_holdout_fdelta_ghz", q.holdout_fdelta_ghz),
            ("freq_gap_paper", q.freq_gap_paper),
            ("perf_gap_paper", q.perf_gap_paper),
        ];
        let extra: String = optional
            .iter()
            .filter_map(|(name, v)| v.map(|v| format!("; {name} {v:.6}")))
            .collect();
        report.line(format!(
            "# reported only: fail_frac {}/{} chips{extra}; result digest {:#018x}",
            report.failed,
            report.attempted,
            out.digest()
        ));
    }
    report
}

/// Times one untraced and one traced call, checks that both return the
/// same result bits, runs the layer pass, and reports the per-layer
/// metrics and the ledger. Spans are written to the scratch directory.
pub fn traced(opts: &Options) -> Report {
    let mut report = Report::default();
    report.line(header(opts, "traced run and layer pass"));
    let rec = Recorder::new();
    let inputs = rec.span("setup", 1, || {
        setup(opts.workload, opts.seed, opts.size, opts.workers)
    });
    report.line(describe(&inputs));

    let t = Instant::now();
    let untraced = rec.span("run.untraced", 1, || run(&inputs, Tracer::noop()));
    let untraced_s = t.elapsed().as_secs_f64();

    let dir = scratch_dir();
    let sidecar_path = dir.join(format!(
        "timing-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let collector = Collector::new();
    let sidecar = std::fs::create_dir_all(&dir).and_then(|()| TimingSidecar::create(&sidecar_path));
    let sidecar = match sidecar {
        Ok(s) => s,
        Err(e) => {
            report
                .failures
                .push(format!("cannot create {}: {e}", sidecar_path.display()));
            return report;
        }
    };
    let t = Instant::now();
    let traced_out = rec.span("run.traced", 1, || {
        run(&inputs, Tracer::with_timing(&collector, &sidecar))
    });
    let traced_s = t.elapsed().as_secs_f64();
    let sidecar_text = sidecar
        .finish()
        .and_then(|()| std::fs::read_to_string(&sidecar_path));
    std::fs::remove_file(&sidecar_path).ok();
    let registry = collector.registry();

    let (untraced, traced_out) = match (untraced, traced_out) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                report.failures.push(format!("timed call failed: {e}"));
            }
            report.attempted = 2 * inputs.chips() as u64;
            report.failed = report.attempted;
            return report;
        }
    };
    report.account(&inputs, &untraced, None);
    report.account(&inputs, &traced_out, Some(untraced.digest()));
    report.line(format!(
        "# result digest {:#018x} untraced, {:#018x} traced",
        untraced.digest(),
        traced_out.digest()
    ));
    let chip_leaf = match inputs.job {
        Job::Campaign { .. } => "chip",
        Job::Tournament(_) => "train-zoo",
    };
    let chip_s = match &sidecar_text {
        Ok(text) => chip_spans(text, chip_leaf),
        Err(e) => {
            report
                .failures
                .push(format!("timing sidecar unreadable: {e}"));
            Vec::new()
        }
    };

    let decision_samples = layer_pass(&rec, &inputs);
    let spans_path = dir.join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    if let Err(e) = rec.write_jsonl(&spans_path) {
        report
            .failures
            .push(format!("cannot write {}: {e}", spans_path.display()));
    }

    let ms = |name: &str| rec.layer(name).quantile_ns(0.5) / 1e6;
    let us = |name: &str, q: f64| rec.layer(name).quantile_ns(q) / 1e3;
    let ns = |name: &str| rec.layer(name).quantile_ns(0.5);
    let (hit_rate, iterations_per_solve, batch_width) = solver_ratios(&registry);
    let decisions = registry.counter(names::DECISION_COUNT);
    let per_decision = |n: u64| {
        if decisions > 0 {
            n as f64 / decisions as f64
        } else {
            0.0
        }
    };
    let workers = opts.workers as f64;

    report.line(format!(
        "# per layer: median self time per call over the layer pass (decisions: {})",
        decision_samples
            .iter()
            .map(|(s, n)| format!("{s} n={n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.metric("variation.chip_ms", ms("variation.chip"));
    report.metric("uarch.profile_ms", ms("uarch.profile"));
    report.metric("timing.pe_check_ns", ns("timing.pe_check"));
    report.metric("power.solve_ns", ns("power.solve"));
    report.metric("power.cache_hit_rate", hit_rate);
    report.metric("power.iterations_per_solve", iterations_per_solve);
    report.metric("power.batch_width", batch_width);
    report.metric(
        "exhaustive.freq_max_us.cold",
        us("exhaustive.freq_max.cold", 0.5),
    );
    report.metric(
        "exhaustive.freq_max_us.warm",
        us("exhaustive.freq_max.warm", 0.5),
    );
    report.metric(
        "exhaustive.power_settings_us.abb",
        us("exhaustive.power_settings.abb", 0.5),
    );
    report.metric(
        "exhaustive.power_settings_us.noabb",
        us("exhaustive.power_settings.noabb", 0.5),
    );
    report.metric("teacher.bank_ms.abb", ms("teacher.bank.abb"));
    report.metric("teacher.bank_ms.noabb", ms("teacher.bank.noabb"));
    let banks = registry.counter(names::FUZZY_CONTROLLERS_TRAINED);
    report.metric("teacher.banks", banks as f64);
    report.metric("fuzzy.fit_ms", ms("fuzzy.fit"));
    report.metric("learned.fit_ms.nn", ms("learned.fit.nn"));
    report.metric("learned.fit_ms.tree", ms("learned.fit.tree"));
    report.metric("learned.fit_ms.mlp", ms("learned.fit.mlp"));
    for (k, p50, p99) in [
        (
            0,
            "controller.decide_us.static.p50",
            "controller.decide_us.static.p99",
        ),
        (
            1,
            "controller.decide_us.exhaustive.p50",
            "controller.decide_us.exhaustive.p99",
        ),
        (
            2,
            "controller.decide_us.fuzzy.p50",
            "controller.decide_us.fuzzy.p99",
        ),
        (
            5,
            "controller.decide_us.mlp.p50",
            "controller.decide_us.mlp.p99",
        ),
    ] {
        report.metric(p50, us(DECIDE[k].1, 0.5));
        report.metric(p99, us(DECIDE[k].1, 0.99));
    }
    report.metric("controller.decisions", decisions as f64);
    report.metric(
        "retune.probes_per_decision",
        per_decision(registry.counter(names::RETUNE_PROBES)),
    );
    let chip_mean = chip_s.iter().sum::<f64>() / chip_s.len().max(1) as f64;
    report.line(format!(
        "# campaign: n={} `{chip_leaf}` spans from the traced call ({traced_s:.4} s): {}",
        chip_s.len(),
        chip_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.metric("campaign.chip_s.p50", median(&chip_s));
    report.metric(
        "campaign.chip_imbalance",
        quantile(&chip_s, 1.0) / chip_mean,
    );
    report.metric(
        "campaign.parallel_eff",
        chip_s.iter().sum::<f64>() / (traced_s * workers),
    );
    report.metric("trace.overhead_ratio", traced_s / untraced_s);

    let unexplained = ledger(&mut report, &inputs, &rec, &registry, untraced_s);
    report.metric("ledger.unexplained_frac", unexplained);
    report.line(format!("# spans written to {}", spans_path.display()));
    report
}

/// Prints the ledger (mean layer time per call × calls in the timed call,
/// against `run_s` × workers) and returns the unexplained share.
fn ledger(
    report: &mut Report,
    inputs: &Inputs,
    rec: &Recorder,
    registry: &eval_trace::Registry,
    run_s: f64,
) -> f64 {
    let (abb, noabb) = expected_banks(inputs);
    let banks = registry.counter(names::FUZZY_CONTROLLERS_TRAINED);
    let learned_banks = registry.counter(names::CONTROLLER_ZOO_TRAINED) / 3;
    let mut rows: Vec<(&'static str, u64)> = vec![
        ("variation.chip", inputs.chips() as u64),
        ("uarch.profile", inputs.apps().len() as u64),
        ("teacher.bank.abb", abb),
        ("teacher.bank.noabb", noabb),
        ("fuzzy.fit", banks),
        ("learned.fit.nn", learned_banks),
        ("learned.fit.tree", learned_banks),
        ("learned.fit.mlp", learned_banks),
    ];
    for (_, span, counter) in DECIDE {
        rows.push((span, registry.counter(counter)));
    }
    let budget = run_s * inputs.workers as f64;
    report.line(format!(
        "# ledger ({}): run_s {run_s:.4} s x {} workers = {budget:.4} worker-s",
        inputs.workload.name(),
        inputs.workers
    ));
    report.line(format!(
        "# {:<32} {:>14} {:>10} {:>12} {:>8}",
        "layer", "per call", "calls", "total s", "share"
    ));
    let mut explained = 0.0;
    for (name, calls) in rows {
        let per_call_s = rec.layer(name).mean_ns() / 1e9;
        let total = per_call_s * calls as f64;
        explained += total;
        report.line(format!(
            "# {name:<32} {:>12.6} s {calls:>10} {total:>12.4} {:>7.1}%",
            per_call_s,
            100.0 * total / budget
        ));
    }
    let unexplained = 1.0 - explained / budget;
    report.line(format!(
        "# {:<32} {:>14} {:>10} {explained:>12.4} {:>7.1}%  (unexplained {:.1}%)",
        "sum",
        "",
        "",
        100.0 * explained / budget,
        100.0 * unexplained
    ));
    if abb + noabb != banks {
        report.line(format!(
            "# note: {banks} banks counted by fuzzy.controllers_trained, {} expected",
            abb + noabb
        ));
    }
    let lookups =
        registry.counter(names::SOLVER_CACHE_HITS) + registry.counter(names::SOLVER_CACHE_MISSES);
    report.line("# nested inside the rows above (not summed):".to_string());
    for (name, calls, what) in [
        (
            "power.solve",
            solves(registry),
            "solves the cache ran, at cold-solve cost: an upper bound",
        ),
        (
            "timing.pe_check",
            lookups,
            "cache lookups, about one check each",
        ),
    ] {
        let per_call_s = rec.layer(name).mean_ns() / 1e9;
        report.line(format!(
            "# {name:<32} {:>12.9} s {calls:>10} {:>12.4} {:>7.1}%  (x {what})",
            per_call_s,
            per_call_s * calls as f64,
            100.0 * per_call_s * calls as f64 / budget
        ));
    }
    report.line(format!(
        "# retune.probes {} over {} decisions",
        registry.counter(names::RETUNE_PROBES),
        registry.counter(names::DECISION_COUNT)
    ));
    unexplained
}

/// The in-process set-up times of `n` fresh set-ups (warm after the first;
/// the command line measures cold ones in child processes instead).
pub fn in_process_setups(opts: &Options, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(workload::setup(
                opts.workload,
                opts.seed,
                opts.size,
                opts.workers,
            ));
            t.elapsed().as_secs_f64()
        })
        .collect()
}
