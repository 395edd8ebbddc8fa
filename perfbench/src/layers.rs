//! The traced run and the layer pass.
//!
//! The traced run repeats the workload's timed call under
//! `Tracer::with_timing` into an in-memory `Collector` and a temporary
//! `TimingSidecar`: the collector's counters say how often each layer ran,
//! the sidecar's chip spans say how the chips shared the workers. The
//! layer pass then calls each layer's public function on the workload's
//! own inputs (chip 0 of its seed, its profiles, environments and
//! schemes) inside benchmark-side spans, which say what one call costs.
//! Cost × count per layer, set against `run_s` × workers, is the ledger.

use std::path::Path;

use eval::adapt::{
    sample_bank, Controller, ControllerZoo, ExhaustiveOptimizer, LearnedBank, MlpQ16, NnTable,
    Optimizer, OptimizerController, RegressionTree, StaticController, SubsystemScene,
    TeacherExamples, TrainingBudget,
};
use eval::core::{
    ChipModel, Environment, EvalConfig, FuChoice, OperatingConditions, QueueChoice, SubsystemId,
    VariantSelection, FREQ_LADDER, N_SUBSYSTEMS,
};
use eval::fuzzy::{FuzzyController, Normalizer};
use eval::power::{solve_thermal, OperatingPoint, ThermalEnvironment};
use eval::uarch::{profile_workload, WorkloadProfile};
use eval::units::{GHz, Volts};
use eval_rng::ChaCha12Rng;
use eval_trace::{names, Registry};

use crate::spans::Recorder;
use crate::workload::Inputs;

/// Decisions timed per controller scheme in the layer pass (enough for a
/// p99 with ten samples beyond it).
pub const DECISION_SAMPLES: usize = 1_000;

/// Wall-time cap on the static and exhaustive decision passes, which
/// cost milliseconds per decision in ABB environments; at least one
/// full pass always runs, and the sample count is printed.
const ORACLE_DECISION_SECONDS: f64 = 4.0;

/// Per-phase operating points probed by the solve and `PE` batches.
const PROBE_FREQ_STEPS: usize = 8;

/// Reads the per-chip span samples out of a finished timing sidecar.
pub fn chip_spans(sidecar: &str, leaf: &str) -> Vec<f64> {
    sidecar
        .lines()
        .filter_map(|line| eval_trace::Json::parse(line).ok())
        .filter(|j| j.str_field("kind") == Some("span-sample"))
        .filter(|j| {
            j.str_field("path")
                .is_some_and(|p| p.rsplit('/').next() == Some(leaf))
        })
        .filter_map(|j| j.get("nanos").and_then(|n| n.as_f64()))
        .map(|ns| ns / 1e9)
        .collect()
}

/// Whether subsystem `id` trains a second (alternate-structure) bank in `env`.
fn alt_bank(id: SubsystemId, env: Environment) -> bool {
    (id.is_replicable_fu() || id.is_issue_queue()) && (env.fu_replication || env.queue)
}

/// (Subsystem, variant) banks one controller training sweeps in `env`.
fn banks_per_training(env: Environment) -> usize {
    SubsystemId::ALL
        .iter()
        .map(|id| if alt_bank(*id, env) { 2 } else { 1 })
        .sum()
}

fn variant_for(id: SubsystemId, alt: bool) -> VariantSelection {
    let mut v = VariantSelection::default();
    if alt {
        match id {
            SubsystemId::IntAlu => v.int_fu = FuChoice::LowSlope,
            SubsystemId::FpUnit => v.fp_fu = FuChoice::LowSlope,
            SubsystemId::IntQueue => v.int_queue = QueueChoice::Small,
            SubsystemId::FpQueue => v.fp_queue = QueueChoice::Small,
            _ => {}
        }
    }
    v
}

/// Expected teacher banks of the timed call, split (ABB, non-ABB).
pub fn expected_banks(inputs: &Inputs) -> (u64, u64) {
    if !inputs.trains() {
        return (0, 0);
    }
    let per_chip = match &inputs.job {
        crate::workload::Job::Campaign { campaign, .. } => campaign.chips * campaign.cores_per_chip,
        crate::workload::Job::Tournament(t) => t.chips,
    } as u64;
    let mut abb = 0;
    let mut noabb = 0;
    for env in inputs.envs() {
        let n = banks_per_training(env) as u64 * per_chip;
        if env.abb {
            abb += n;
        } else {
            noabb += n;
        }
    }
    (abb, noabb)
}

/// The controller schemes the decision pass times: scheme label, span
/// name, and the decision counter of the timed call.
pub const DECIDE: [(&str, &str, &str); 6] = [
    (
        "static",
        "controller.decide.static",
        names::DECISION_COUNT_STATIC,
    ),
    (
        "exhaustive",
        "controller.decide.exhaustive",
        names::DECISION_COUNT_EXHAUSTIVE,
    ),
    (
        "fuzzy",
        "controller.decide.fuzzy",
        names::DECISION_COUNT_FUZZY,
    ),
    (
        "nn-table",
        "controller.decide.nn-table",
        names::DECISION_COUNT_NN_TABLE,
    ),
    ("tree", "controller.decide.tree", names::DECISION_COUNT_TREE),
    ("mlp", "controller.decide.mlp", names::DECISION_COUNT_MLP),
];

fn scene<'a>(
    config: &EvalConfig,
    chip: &'a ChipModel,
    id: SubsystemId,
    variants: VariantSelection,
    env: Environment,
    phase: &eval::uarch::PhaseProfile,
) -> SubsystemScene<'a> {
    SubsystemScene {
        state: chip.core(0).subsystem(id),
        variants,
        th_c: config.th_c,
        alpha_f: phase.activity.alpha_f[id.index()],
        rho: phase.activity.rho[id.index()].max(1e-3),
        pe_budget: config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
        env,
    }
}

/// One teacher sweep of chip 0, core 0 in `env` (every bank), each bank
/// sampled inside a `teacher.bank.<kind>` span.
fn teacher_sweep(
    rec: &Recorder,
    config: &EvalConfig,
    chip: &ChipModel,
    env: Environment,
    budget: &TrainingBudget,
    span: &'static str,
) -> Vec<(SubsystemId, bool, TeacherExamples)> {
    let oracle = ExhaustiveOptimizer::new();
    let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
    let mut rng = ChaCha12Rng::seed_from_u64(budget.seed ^ chip.seed());
    let mut banks = Vec::new();
    for id in SubsystemId::ALL {
        let alts: &[bool] = if alt_bank(id, env) {
            &[false, true]
        } else {
            &[false]
        };
        for &alt in alts {
            let ex = rec.span(span, 1, || {
                sample_bank(
                    &oracle,
                    config,
                    chip.core(0).subsystem(id),
                    variant_for(id, alt),
                    env,
                    pe_budget,
                    budget.examples,
                    &mut rng,
                )
            });
            banks.push((id, alt, ex));
        }
    }
    banks
}

/// Runs every layer's public function on the workload's inputs, inside
/// spans on `rec`; returns the decisions timed per scheme, in
/// [`DECIDE`] order.
pub fn layer_pass(rec: &Recorder, inputs: &Inputs) -> Vec<(&'static str, usize)> {
    let config = inputs.config().clone();
    let budget = inputs.training();
    rec.span("layer-pass", 1, || {
        // variation: fabricate the workload's chips (up to four).
        let chips: Vec<ChipModel> = (0..inputs.chips().min(4))
            .map(|i| {
                rec.span("variation.chip", 1, || {
                    inputs.factory.chip(inputs.chip_seed(i))
                })
            })
            .collect();
        let chip = &chips[0];

        // uarch: profile every application of the workload.
        let (profile_budget, profile_seed) = inputs.profile_args();
        let profiles: Vec<WorkloadProfile> = inputs
            .apps()
            .iter()
            .map(|w| {
                rec.span("uarch.profile", 1, || {
                    profile_workload(w, profile_budget, profile_seed)
                })
            })
            .collect();
        let phases: Vec<&eval::uarch::PhaseProfile> =
            profiles.iter().flat_map(|p| p.phases.iter()).collect();

        // power + timing: the thermal fixed point and the bounded PE check
        // at a spread of ladder points, per subsystem over every phase.
        let base = VariantSelection::default();
        let freqs: Vec<f64> = (0..PROBE_FREQ_STEPS)
            .map(|k| FREQ_LADDER.at(k * (FREQ_LADDER.len() - 1) / (PROBE_FREQ_STEPS - 1)))
            .collect();
        let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let batch = (phases.len() * freqs.len()) as u64;
        for id in SubsystemId::ALL {
            let state = chip.core(0).subsystem(id);
            let params = state.power_params(&base);
            rec.span("power.solve", batch, || {
                for ph in &phases {
                    let env = ThermalEnvironment {
                        th_c: config.th_c,
                        alpha_f: ph.activity.alpha_f[id.index()],
                    };
                    for &f in &freqs {
                        let op = OperatingPoint::raw(f, 1.0, 0.0);
                        std::hint::black_box(
                            solve_thermal(&params, &env, &op, &config.device).ok(),
                        );
                    }
                }
            });
            let timing = state.timing(&base);
            let cond = OperatingConditions {
                vdd: Volts::raw(1.0),
                vbb: Volts::raw(0.0),
                t_c: config.th_c + 15.0,
            };
            rec.span("timing.pe_check", batch, || {
                for ph in &phases {
                    let rho = ph.activity.rho[id.index()].max(1e-3);
                    for &f in &freqs {
                        std::hint::black_box(timing.pe_access_bounded(
                            GHz::raw(f),
                            &cond,
                            rho,
                            pe_budget,
                        ));
                    }
                }
            });
        }

        // adapt::exhaustive: the Freq and Power algorithms on workload scenes.
        for id in SubsystemId::ALL {
            for ph in &phases {
                let sc = scene(&config, chip, id, base, Environment::TS_ASV, ph);
                let warm = ExhaustiveOptimizer::new();
                rec.span("exhaustive.freq_max.cold", 1, || {
                    warm.freq_max(&config, &sc)
                });
                rec.span("exhaustive.freq_max.warm", 1, || {
                    warm.freq_max(&config, &sc)
                });
                for (env, name) in [
                    (Environment::TS_ASV_ABB, "exhaustive.power_settings.abb"),
                    (Environment::TS_ASV, "exhaustive.power_settings.noabb"),
                ] {
                    let sc = scene(&config, chip, id, base, env, ph);
                    let oracle = ExhaustiveOptimizer::new();
                    let f = oracle.freq_max(&config, &sc);
                    rec.span(name, 1, || oracle.power_settings(&config, &sc, f));
                }
            }
        }

        // adapt::teacher + fuzzy + adapt::learned: one full teacher sweep
        // in an ABB and a non-ABB environment, then every family fitted on
        // the non-ABB banks.
        teacher_sweep(
            rec,
            &config,
            chip,
            Environment::TS_ASV_ABB,
            &budget,
            "teacher.bank.abb",
        );
        let banks = teacher_sweep(
            rec,
            &config,
            chip,
            Environment::TS_ASV,
            &budget,
            "teacher.bank.noabb",
        );
        for (id, alt, ex) in &banks {
            let salt = budget.seed ^ ((id.index() as u64) << 8);
            rec.span("fuzzy.fit", 1, || {
                for (set, role) in [(&ex.freq, 0x11u64), (&ex.vdd, 0x22), (&ex.vbb, 0x33)] {
                    let norm = Normalizer::fit(set);
                    let normalized = norm.apply(set);
                    let fc = FuzzyController::train(&normalized, &budget.config, salt ^ role);
                    std::hint::black_box((norm, fc.ok()));
                }
            });
            let seed = salt ^ ((*alt as u64) << 16);
            rec.span("learned.fit.nn", 1, || {
                std::hint::black_box(LearnedBank::<NnTable>::train(ex, seed))
            });
            rec.span("learned.fit.tree", 1, || {
                std::hint::black_box(LearnedBank::<RegressionTree>::train(ex, seed))
            });
            rec.span("learned.fit.mlp", 1, || {
                std::hint::black_box(LearnedBank::<MlpQ16>::train(ex, seed))
            });
        }

        // adapt::controller + retune: every phase decided by each scheme;
        // static and exhaustive in each of the workload's environments, the
        // trained families in TS+ASV. A pass uses fresh oracles, as one
        // campaign cell does; passes repeat until each scheme has its samples.
        let zoo = rec.span("zoo.train", 1, || {
            ControllerZoo::train(&config, chip, 0, Environment::TS_ASV, &budget)
        });
        let fuzzy = OptimizerController::new("fuzzy", &zoo.fuzzy);
        let nn = OptimizerController::new("nn-table", &zoo.nn);
        let tree = OptimizerController::new("tree", &zoo.tree);
        let mlp = OptimizerController::new("mlp", &zoo.mlp);
        let learned: [&dyn Controller; 4] = [&fuzzy, &nn, &tree, &mlp];
        let envs = inputs.envs();
        let mut counts = [0usize; DECIDE.len()];
        let decide = |c: &dyn Controller, env: Environment, span: &'static str| {
            for p in &profiles {
                for ph in &p.phases {
                    rec.span(span, 1, || {
                        c.decide(
                            &config,
                            chip.core(0),
                            env,
                            ph,
                            p.class,
                            p.rp_cycles,
                            config.th_c,
                            p.name,
                            ph.index as u64,
                            eval_trace::Tracer::noop(),
                        )
                    });
                }
            }
        };
        let started = std::time::Instant::now();
        while counts[1] < DECISION_SAMPLES
            && (counts[1] == 0 || started.elapsed().as_secs_f64() < ORACLE_DECISION_SECONDS)
        {
            let oracle = ExhaustiveOptimizer::new();
            let static_c = StaticController::new(&oracle);
            let exh_c = OptimizerController::new("exhaustive", &oracle);
            for &env in &envs {
                decide(&static_c, env, DECIDE[0].1);
                decide(&exh_c, env, DECIDE[1].1);
                counts[0] += phases.len();
                counts[1] += phases.len();
            }
        }
        while counts[2] < DECISION_SAMPLES {
            for (k, c) in learned.iter().enumerate() {
                decide(*c, Environment::TS_ASV, DECIDE[2 + k].1);
                counts[2 + k] += phases.len();
            }
        }
        DECIDE.iter().map(|d| d.0).zip(counts).collect()
    })
}

/// Scratch location for traced-run files inside the checkout: the cargo
/// target directory (`CARGO_TARGET_DIR`, else `target`) under `perfbench/`.
pub fn scratch_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("perfbench")
}

/// Thermal solves the traced run's solve cache ran: every lookup except
/// same-point hits, plus one anchor solve per miss.
pub fn solves(registry: &Registry) -> u64 {
    let hits = registry.counter(names::SOLVER_CACHE_HITS);
    let misses = registry.counter(names::SOLVER_CACHE_MISSES);
    let same_point = registry.counter(names::SOLVER_CACHE_HITS_SAME_POINT);
    hits - same_point.min(hits) + 2 * misses
}

/// The traced run's solver counters as the `power.*` ratios:
/// (cache hit rate, fixed-point iterations per solve, batch width).
pub fn solver_ratios(registry: &Registry) -> (f64, f64, f64) {
    let hits = registry.counter(names::SOLVER_CACHE_HITS) as f64;
    let misses = registry.counter(names::SOLVER_CACHE_MISSES) as f64;
    let iterations = registry.counter(names::SOLVER_ITERATIONS) as f64;
    let calls = registry.counter(names::SOLVER_BATCH_CALLS) as f64;
    let lanes = registry.counter(names::SOLVER_BATCH_LANES) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    (
        ratio(hits, hits + misses),
        ratio(iterations, solves(registry) as f64),
        ratio(lanes, calls),
    )
}
