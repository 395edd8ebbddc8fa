//! Hot-path smoke benchmark: times the anchor-seeded operating-point fast path
//! against the reference implementations it replaced, prints a comparison
//! table, and (with `--bench-json <path>`) writes the results as JSON.
//!
//! ```text
//! cargo run --release -p eval-bench --bin hotpath -- --bench-json BENCH_hotpath.json
//! ```
//!
//! Each benchmark is self-timed: the body is repeated until a sample takes
//! at least a few milliseconds, several samples are collected, and the
//! median per-iteration time is reported. With `--samples N` every
//! benchmark collects exactly N samples and the full per-benchmark sample
//! vector is recorded in the JSON (`samples_ns`), which is what the
//! quantile gate in `eval-obs bench-check` consumes. The JSON carries a
//! provenance header (content address, git revision, host fingerprint,
//! metric-schema hash). The committed `BENCH_hotpath.json` at the
//! workspace root is this binary's output.

use std::hint::black_box;
use std::ops::RangeInclusive;
use std::time::Instant;

use eval_adapt::{
    sample_bank, Campaign, ControllerZoo, ExhaustiveOptimizer, Optimizer, Scheme, SubsystemScene,
    TrainingBudget,
};
use eval_bench::{fail_chip_from_env, flag_value, run_campaign, TraceSession};
use eval_core::{
    ChipFactory, ChipModel, Environment, EvalConfig, OperatingConditions, SubsystemId,
    VariantSelection, N_SUBSYSTEMS,
};
use eval_power::{solve_thermal, solve_thermal_reference, OperatingPoint, ThermalEnvironment};
use eval_rng::ChaCha12Rng;
use eval_trace::{names, Tracer};
use eval_uarch::Workload;
use eval_units::{GHz, Volts};

/// Per-iteration nanoseconds for `body`, one entry per sample in
/// collection order, self-calibrated so each sample runs for at least
/// `min_sample_ms`.
fn time_samples<F: FnMut()>(mut body: F, min_sample_ms: u64, samples: usize) -> Vec<f64> {
    // Calibrate: grow the iteration count until one sample is long enough
    // to drown out timer quantization.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_sample_ms || iters > 1_000_000_000 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    // One untimed warmup pass at the calibrated iteration count, so the
    // first recorded sample sees the same warm caches (solver anchors,
    // branch predictors, allocator arenas) as the rest and the sample
    // distribution is not skewed by a cold first entry.
    for _ in 0..iters {
        body();
    }
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                body();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// The median of a sample vector (the vector is left untouched).
fn median_ns(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[sorted.len() / 2]
}

/// Median per-iteration nanoseconds for `body` (see [`time_samples`]).
fn time_ns<F: FnMut()>(body: F, min_sample_ms: u64, samples: usize) -> f64 {
    median_ns(&time_samples(body, min_sample_ms, samples))
}

struct Row {
    name: &'static str,
    /// All fast-path samples, collection order.
    samples_ns: Vec<f64>,
    fast_ns: f64,
    reference_ns: Option<f64>,
}

impl Row {
    fn new(name: &'static str, samples_ns: Vec<f64>, reference_ns: Option<f64>) -> Row {
        let fast_ns = median_ns(&samples_ns);
        Row {
            name,
            samples_ns,
            fast_ns,
            reference_ns,
        }
    }

    fn speedup(&self) -> Option<f64> {
        self.reference_ns.map(|r| r / self.fast_ns)
    }
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn scene<'a>(config: &EvalConfig, chip: &'a ChipModel, id: SubsystemId) -> SubsystemScene<'a> {
    SubsystemScene {
        state: chip.core(0).subsystem(id),
        variants: VariantSelection::default(),
        th_c: 60.0,
        alpha_f: 0.5,
        rho: 0.6,
        pe_budget: config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
        env: Environment::TS_ASV,
    }
}

/// Examples in the `teacher_sample_bank_abb` row's bank: the per-bank
/// budget of the `fig10-train` benchmark workload.
const TEACHER_BANK_EXAMPLES: usize = 65;

/// The exhaustive oracle with its `Power` search replaced by the
/// full-grid [`ExhaustiveOptimizer::power_settings_reference`] — the
/// reference side of the `teacher_sample_bank_abb` row. Both `Freq`
/// queries forward, so the bracketed labels are the same on both sides.
struct FullGridPowerOracle(ExhaustiveOptimizer);

impl Optimizer for FullGridPowerOracle {
    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        self.0.freq_max(config, scene)
    }

    fn freq_max_within(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        bracket: RangeInclusive<usize>,
    ) -> f64 {
        self.0.freq_max_within(config, scene, bracket)
    }

    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        self.0.power_settings_reference(config, scene, f_core)
    }
}

/// Labels one TS+ASV+ABB teacher bank for the Dcache of `chip` with a
/// fixed seed, so every call does the same work.
fn teacher_bank_abb(oracle: &dyn Optimizer, config: &EvalConfig, chip: &ChipModel) {
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    black_box(sample_bank(
        oracle,
        config,
        chip.core(0).subsystem(SubsystemId::Dcache),
        VariantSelection::default(),
        Environment::TS_ASV_ABB,
        config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
        TEACHER_BANK_EXAMPLES,
        &mut rng,
    ));
}

/// The 2-chip, one-workload (`gzip`) campaign every campaign row runs,
/// serial over chips.
fn two_chip_campaign() -> Campaign {
    let mut campaign = Campaign::new(2);
    campaign.profile_budget = 3_000;
    campaign.workloads = vec![Workload::by_name("gzip").expect("workload exists")];
    campaign.threads = 1;
    campaign
}

/// The 2-chip ExhDyn campaign: the body of the `campaign_exhdyn_2chips`
/// rows (untraced, serial or with intra-chip workers) and of the
/// `trace_overhead` row, which compares `--timing` on (spans + latency
/// samples streaming to a real sidecar) against tracing alone.
fn small_campaign(intra_chip_threads: usize, tracer: Tracer<'_>) {
    let mut campaign = two_chip_campaign();
    campaign.intra_chip_threads = intra_chip_threads;
    black_box(
        campaign
            .run_traced(&[Environment::TS_ASV], &[Scheme::ExhDyn], tracer)
            .expect("campaign runs"),
    );
}

/// Teacher examples per bank in the `campaign_fuzzydyn_2chips` row: a
/// few above the 25-rule floor, so one sample stays near half a second.
const FUZZYDYN_BANK_EXAMPLES: usize = 30;

/// The 2-chip Fuzzy-Dyn campaign in TS+ASV+ABB and ALL, training
/// included: the body of the `campaign_fuzzydyn_2chips` row. The two
/// environments share 15 of their 19 ABB-family teacher banks per core.
fn small_fuzzy_campaign() {
    let mut campaign = two_chip_campaign();
    campaign.training.examples = FUZZYDYN_BANK_EXAMPLES;
    black_box(
        campaign
            .run_traced(
                &[Environment::TS_ASV_ABB, Environment::ALL],
                &[Scheme::FuzzyDyn],
                Tracer::noop(),
            )
            .expect("campaign runs"),
    );
}

/// Runs the same small campaign once under a tracer and returns the
/// end-of-run `solver.*` counters as `(name, value)` pairs — flushed
/// into the JSON so `eval-obs bench-check` can gate on cache hit-rate
/// alongside raw latency. When the binary carries a [`TraceSession`]
/// (`--trace`/`--checkpoint`/...), the campaign runs through it so the
/// session's trace and sidecar cover this run too.
fn campaign_metrics(
    session: &Option<TraceSession>,
) -> Result<Vec<(&'static str, f64)>, Box<dyn std::error::Error>> {
    let mut campaign = two_chip_campaign();
    campaign.fail_chip = fail_chip_from_env(campaign.chips)?;
    let local;
    let registry = match session {
        Some(s) => {
            run_campaign(&campaign, &[Environment::TS_ASV], &[Scheme::ExhDyn], session)?;
            s.registry()
        }
        None => {
            local = eval_trace::Collector::new();
            campaign.run_traced(
                &[Environment::TS_ASV],
                &[Scheme::ExhDyn],
                Tracer::new(&local),
            )?;
            local.registry()
        }
    };
    let hits = registry.counter(names::SOLVER_CACHE_HITS);
    let misses = registry.counter(names::SOLVER_CACHE_MISSES);
    let cross_phase = registry.counter(names::SOLVER_CACHE_HITS_CROSS_PHASE);
    let mut out = vec![
        (names::SOLVER_CACHE_HITS, hits as f64),
        (names::SOLVER_CACHE_MISSES, misses as f64),
        (
            names::SOLVER_CACHE_HITS_CROSS_CANDIDATE,
            registry.counter(names::SOLVER_CACHE_HITS_CROSS_CANDIDATE) as f64,
        ),
        (names::SOLVER_CACHE_HITS_CROSS_PHASE, cross_phase as f64),
        (names::SOLVER_ITERATIONS, registry.counter(names::SOLVER_ITERATIONS) as f64),
        (names::DECISION_COUNT, registry.counter(names::DECISION_COUNT) as f64),
        (
            names::CAMPAIGN_INTRA_CHIP_THREADS,
            campaign.intra_chip_threads as f64,
        ),
    ];
    if hits + misses > 0 {
        let lookups = (hits + misses) as f64;
        out.push((names::SOLVER_CACHE_HIT_RATE, hits as f64 / lookups));
        out.push((
            names::SOLVER_CACHE_HIT_RATE_CROSS_PHASE,
            cross_phase as f64 / lookups,
        ));
    }
    Ok(out)
}

/// This binary's command line: the session flags
/// ([`TraceSession::from_args`]), `--samples N` and `--bench-json
/// <path>`, in any order.
struct Args {
    session: Option<TraceSession>,
    samples: Option<usize>,
    json_path: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, Box<dyn std::error::Error>> {
    let (session, rest) = TraceSession::from_args(args)?;
    let (mut samples, mut json_path) = (None, None);
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        if let Some(count) = flag_value("--samples", &arg, &mut rest)? {
            samples = Some(parse_samples(&count)?);
        } else if let Some(path) = flag_value("--bench-json", &arg, &mut rest)? {
            json_path = Some(path);
        } else {
            return Err(format!("unknown argument {arg}").into());
        }
    }
    Ok(Args {
        session,
        samples,
        json_path,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args(std::env::args().skip(1))?;

    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let chip = factory.chip(42);
    let state = chip.core(0).subsystem(SubsystemId::Dcache);
    let params = state.power_params(&VariantSelection::default());
    let timing = state.timing(&VariantSelection::default());
    let tenv = ThermalEnvironment {
        th_c: 60.0,
        alpha_f: 0.5,
    };
    let op = OperatingPoint::raw(4.0, 1.0, 0.0);
    let cond = OperatingConditions {
        vdd: Volts::raw(1.0),
        vbb: Volts::raw(0.0),
        t_c: 65.0,
    };
    let budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
    let sc = scene(&config, &chip, SubsystemId::Dcache);

    let mut rows = Vec::new();
    let n = |default: usize| args.samples.unwrap_or(default);

    rows.push(Row::new(
        "solve_thermal",
        time_samples(
            || {
                black_box(solve_thermal(&params, &tenv, black_box(&op), &config.device)).ok();
            },
            5,
            n(7),
        ),
        Some(time_ns(
            || {
                black_box(solve_thermal_reference(
                    &params,
                    &tenv,
                    black_box(&op),
                    &config.device,
                ))
                .ok();
            },
            5,
            7,
        )),
    ));

    rows.push(Row::new(
        "pe_access_bounded",
        time_samples(
            || {
                black_box(timing.pe_access_bounded(GHz::raw(4.0), black_box(&cond), 0.6, budget));
            },
            5,
            n(7),
        ),
        Some(time_ns(
            || {
                black_box(eval_timing::reference::pe_access(
                    timing,
                    GHz::raw(4.0),
                    black_box(&cond),
                ));
            },
            5,
            7,
        )),
    ));

    rows.push(Row::new(
        "freq_max_ladder_sweep",
        time_samples(
            || {
                let opt = ExhaustiveOptimizer::new();
                black_box(opt.freq_max(&config, black_box(&sc)));
            },
            20,
            n(7),
        ),
        Some(time_ns(
            || {
                let opt = ExhaustiveOptimizer::new();
                black_box(opt.freq_max_reference(&config, black_box(&sc)));
            },
            20,
            7,
        )),
    ));

    let warm = ExhaustiveOptimizer::new();
    rows.push(Row::new(
        "freq_max_warm_reuse",
        time_samples(
            || {
                black_box(warm.freq_max(&config, black_box(&sc)));
            },
            20,
            n(7),
        ),
        None,
    ));

    // One teacher bank as controller training labels it (fresh oracle,
    // 65 examples, off-ladder core frequencies): the pruned searches vs
    // the same bank with the full-grid power search.
    rows.push(Row::new(
        "teacher_sample_bank_abb",
        time_samples(
            || teacher_bank_abb(&ExhaustiveOptimizer::new(), &config, &chip),
            20,
            n(7),
        ),
        Some(time_ns(
            || {
                teacher_bank_abb(
                    &FullGridPowerOracle(ExhaustiveOptimizer::new()),
                    &config,
                    &chip,
                )
            },
            20,
            7,
        )),
    ));

    // A trained fixed-point MLP's ladder decision vs the warm anchor-seeded
    // exhaustive sweep on the same scene — the per-decision inference
    // cost a learned controller pays at runtime (zoo training happens
    // once, untimed, on a deliberately small budget).
    let zoo_budget = TrainingBudget {
        examples: 160,
        config: eval_fuzzy::TrainingConfig {
            epochs: 3,
            ..eval_fuzzy::TrainingConfig::micro08()
        },
        ..TrainingBudget::default()
    };
    let train_zoo = || ControllerZoo::train(&config, &chip, 0, Environment::TS_ASV, &zoo_budget);
    let zoo = train_zoo();
    rows.push(Row::new(
        "learned_mlp_freq_max",
        time_samples(
            || {
                black_box(zoo.mlp.freq_max(&config, black_box(&sc)));
            },
            5,
            n(7),
        ),
        Some(time_ns(
            || {
                black_box(warm.freq_max(&config, black_box(&sc)));
            },
            5,
            7,
        )),
    ));

    // Training one chip core's whole zoo in TS+ASV on the same budget:
    // teacher labelling plus the fuzzy, nearest-neighbor, tree and MLP
    // fits of every bank.
    rows.push(Row::new(
        "zoo_train_chip",
        time_samples(
            || {
                black_box(train_zoo());
            },
            1,
            n(3),
        ),
        None,
    ));

    rows.push(Row::new(
        "campaign_exhdyn_2chips",
        time_samples(|| small_campaign(1, Tracer::noop()), 1, n(3)),
        None,
    ));

    // The same campaign with the intra-chip unit sweep split across all
    // available cores (identical results and traces by construction).
    rows.push(Row::new(
        "campaign_exhdyn_2chips_par",
        time_samples(|| small_campaign(0, Tracer::noop()), 1, n(3)),
        None,
    ));

    // Controller training inside a campaign: teacher banks shared
    // between the two environments, fuzzy fits, and the decisions.
    rows.push(Row::new(
        "campaign_fuzzydyn_2chips",
        time_samples(small_fuzzy_campaign, 1, n(3)),
        None,
    ));

    // `--timing` cost: the traced 2-chip campaign with spans and latency
    // samples streaming to a real sidecar file (fast) vs tracing alone
    // (reference). speedup < 1 here IS the profiling overhead factor.
    let timing_tmp = std::env::temp_dir().join(format!(
        "eval-hotpath-timing-{}.jsonl",
        std::process::id()
    ));
    let timing_sidecar = eval_trace::TimingSidecar::create(&timing_tmp)?;
    rows.push(Row::new(
        "trace_overhead",
        time_samples(
            || {
                let primary = eval_trace::Collector::new();
                small_campaign(1, Tracer::with_timing(&primary, &timing_sidecar));
            },
            1,
            n(3),
        ),
        Some(time_ns(
            || {
                let primary = eval_trace::Collector::new();
                small_campaign(1, Tracer::new(&primary));
            },
            1,
            3,
        )),
    ));
    drop(timing_sidecar);
    std::fs::remove_file(&timing_tmp).ok();

    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "benchmark", "fast", "reference", "speedup"
    );
    for row in &rows {
        println!(
            "{:<28} {:>14} {:>14} {:>9}",
            row.name,
            human(row.fast_ns),
            row.reference_ns.map_or_else(|| "-".to_string(), human),
            row.speedup()
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        );
    }

    if let Some(path) = args.json_path {
        let mut metrics = campaign_metrics(&args.session)?;
        if let Some(count) = args.samples {
            metrics.push((names::BENCH_SAMPLES, count as f64));
        }
        // The content address covers the document *without* its own
        // stamp, so bit-identical measurements hash identically even
        // when produced by different revisions or hosts.
        let record_samples = args.samples.is_some();
        let body = render_bench_json(&rows, &metrics, record_samples, None);
        let prov = eval_trace::Provenance::capture("bench-json")
            .with_content_address(body.as_bytes());
        let out = render_bench_json(&rows, &metrics, record_samples, Some(&prov));
        eval_trace::write_atomic(std::path::Path::new(&path), out.as_bytes())?;
        eval_trace::provenance::append_journal(std::path::Path::new(&path), &prov)?;
        println!("\nwrote {path}");
    }
    if let Some(session) = args.session {
        session.finish()?;
    }
    Ok(())
}

/// Renders the bench JSON document (format 2: provenance header, plus
/// per-benchmark sample vectors when `--samples` is active). Pass
/// `provenance: None` for the content-address pass — the address covers
/// exactly that rendering.
fn render_bench_json(
    rows: &[Row],
    metrics: &[(&'static str, f64)],
    record_samples: bool,
    provenance: Option<&eval_trace::Provenance>,
) -> String {
    let mut out = String::from("{\n  \"format\": 2,\n  \"benchmarks\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"fast_ns\": {:.1}, \"reference_ns\": {}, \"speedup\": {}",
            row.name,
            row.fast_ns,
            row.reference_ns
                .map_or_else(|| "null".to_string(), |r| format!("{r:.1}")),
            row.speedup()
                .map_or_else(|| "null".to_string(), |s| format!("{s:.2}")),
        ));
        if record_samples {
            out.push_str(", \"samples_ns\": [");
            for (j, s) in row.samples_ns.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{s:.1}"));
            }
            out.push(']');
        }
        out.push_str(&format!("}}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    out.push_str("  ],\n  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            name,
            if value.fract() == 0.0 {
                format!("{value:.1}")
            } else {
                format!("{value:.6}")
            },
            if i + 1 < metrics.len() { "," } else { "" },
        ));
    }
    out.push_str("  }");
    if let Some(prov) = provenance {
        out.push_str(",\n  \"provenance\": ");
        out.push_str(&prov.to_json());
    }
    out.push_str("\n}\n");
    out
}

/// Parses the `--samples` count (at least 2 — one sample has no
/// distribution).
fn parse_samples(text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(count) if count >= 2 => Ok(count),
        _ => Err(format!("--samples needs an integer count >= 2, got {text}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, Box<dyn std::error::Error>> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn own_and_session_flags_parse_in_any_order() {
        let dir = std::env::temp_dir().join(format!("eval-hotpath-args-{}", std::process::id()));
        let trace = dir.join("t.jsonl");
        let trace = trace.to_str().expect("utf-8 temp path");
        let orders: [[&str; 6]; 3] = [
            ["--samples", "9", "--bench-json", "p", "--trace", trace],
            ["--trace", trace, "--samples", "9", "--bench-json", "p"],
            ["--bench-json", "p", "--trace", trace, "--samples", "9"],
        ];
        for args in orders {
            let parsed = parse(&args).expect("parses");
            assert_eq!(parsed.samples, Some(9), "{args:?}");
            assert_eq!(parsed.json_path.as_deref(), Some("p"), "{args:?}");
            assert!(parsed.session.is_some(), "{args:?}");
        }
        let parsed = parse(&["--samples=3", "--bench-json=q"]).expect("parses");
        assert_eq!(
            (parsed.samples, parsed.json_path.as_deref()),
            (Some(3), Some("q"))
        );
        assert!(parsed.session.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_arguments_are_errors_naming_them() {
        for (args, named) in [
            (&["--samples"][..], "--samples"),
            (&["--samples", "--bench-json", "p"][..], "--samples"),
            (&["--bench-json"][..], "--bench-json"),
            (&["--samples", "1"][..], "--samples"),
            (&["--trace", "--samples", "9"][..], "--trace"),
            (&["--bogus"][..], "--bogus"),
        ] {
            let err = parse(args).err().expect("refused").to_string();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }
}
