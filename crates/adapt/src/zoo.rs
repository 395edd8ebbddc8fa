//! The controller zoo: a common [`Controller`] abstraction over every
//! per-phase operating-point decision maker, plus one-stop training of
//! all learned families from a single teacher sweep.
//!
//! A [`Controller`] is an [`Optimizer`] plus decision policy: which
//! scheme label it traces under and which heat-sink temperature it
//! provisions for. [`Controller::decide`] is the one public way to decide
//! a phase: the campaign, the tournament and the runtime loop
//! ([`AdaptiveSystem`](crate::runtime::AdaptiveSystem)) all call it. The
//! existing backends slot straight in —
//! [`OptimizerController`] wraps any optimizer at the sensed
//! temperature, [`StaticController`] wraps the exhaustive oracle at
//! worst-case `TH_MAX` (a static configuration cannot react to
//! conditions). The four trained families — fuzzy, nearest-neighbor,
//! tree, MLP — are each a [`LearnedOptimizer`] over the same bank type
//! and arrive via [`ControllerZoo::train_traced`], which runs the fuzzy
//! trainer's own teacher sweep and fits the nearest-neighbor, tree, and
//! MLP banks from each bank's examples as it goes — so every family
//! sees an identical curriculum and the fuzzy controllers stay
//! bit-identical to [`FuzzyOptimizer::train`].

use eval_core::{ChipModel, CoreModel, Environment, EvalConfig, N_SUBSYSTEMS};
use eval_trace::Tracer;
use eval_uarch::profile::PhaseProfile;
use eval_uarch::WorkloadClass;

use crate::controller::{decide_phase, DecisionContext, PhaseDecision};
use crate::fuzzy_ctl::{FuzzyOptimizer, TrainingBudget};
use crate::learned::{LearnedBank, LearnedOptimizer, MlpQ16, NnTable, RegressionTree, Trainable};
use crate::optimizer::Optimizer;
use crate::teacher::TeacherExamples;

/// A per-phase operating-point decision maker: the scheme label it
/// traces under, the optimizer backend it consults, and the heat-sink
/// temperature it provisions for. `decide` is a provided method, so
/// every implementation runs the same §4.2 procedure and traces under
/// its own [`scheme`](Controller::scheme) label.
pub trait Controller {
    /// Stable scheme label for traces and rollups.
    fn scheme(&self) -> &'static str;

    /// The optimizer backend consulted per subsystem.
    fn optimizer(&self) -> &dyn Optimizer;

    /// The heat-sink temperature the decision provisions for; the
    /// default is the sensed temperature passed in.
    fn provision_th_c(&self, _config: &EvalConfig, sensed_th_c: f64) -> f64 {
        sensed_th_c
    }

    /// Decides one phase, fully traced under this controller's scheme
    /// label (span, per-scheme latency timer and counter, `Decision`
    /// event).
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        config: &EvalConfig,
        core: &CoreModel,
        env: Environment,
        phase: &PhaseProfile,
        class: WorkloadClass,
        rp_cycles: f64,
        sensed_th_c: f64,
        workload: &'static str,
        phase_idx: u64,
        tracer: Tracer<'_>,
    ) -> PhaseDecision {
        let ctx = DecisionContext {
            scheme: self.scheme(),
            workload,
            phase: phase_idx,
        };
        decide_phase(
            config,
            core,
            self.optimizer(),
            env,
            phase,
            class,
            rp_cycles,
            self.provision_th_c(config, sensed_th_c),
            &ctx,
            tracer,
        )
    }

    /// Drains any accumulated optimizer counters into metrics.
    fn flush_metrics(&self, tracer: Tracer<'_>) {
        self.optimizer().flush_metrics(tracer);
    }
}

/// Any optimizer as a controller, deciding at the sensed temperature
/// under an explicit scheme label.
#[derive(Clone, Copy)]
pub struct OptimizerController<'a> {
    scheme: &'static str,
    optimizer: &'a dyn Optimizer,
}

impl std::fmt::Debug for OptimizerController<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizerController")
            .field("scheme", &self.scheme)
            .finish_non_exhaustive()
    }
}

impl<'a> OptimizerController<'a> {
    /// Wraps `optimizer` under `scheme`.
    pub fn new(scheme: &'static str, optimizer: &'a dyn Optimizer) -> Self {
        Self { scheme, optimizer }
    }
}

impl Controller for OptimizerController<'_> {
    fn scheme(&self) -> &'static str {
        self.scheme
    }

    fn optimizer(&self) -> &dyn Optimizer {
        self.optimizer
    }
}

/// The static scheme as a controller: the exhaustive oracle provisioned
/// for the hottest heat sink the spec allows (`TH_MAX`), because a
/// fixed configuration cannot react to the sensed temperature.
#[derive(Clone, Copy)]
pub struct StaticController<'a> {
    optimizer: &'a dyn Optimizer,
}

impl std::fmt::Debug for StaticController<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticController").finish_non_exhaustive()
    }
}

impl<'a> StaticController<'a> {
    /// Wraps the exhaustive oracle: an
    /// [`ExhaustiveOptimizer`](crate::ExhaustiveOptimizer), or the
    /// campaign's per-core memo in front of one.
    pub fn new(optimizer: &'a dyn Optimizer) -> Self {
        Self { optimizer }
    }
}

impl Controller for StaticController<'_> {
    fn scheme(&self) -> &'static str {
        "static"
    }

    fn optimizer(&self) -> &dyn Optimizer {
        self.optimizer
    }

    fn provision_th_c(&self, config: &EvalConfig, _sensed_th_c: f64) -> f64 {
        config.constraints.th_max_c
    }
}

/// Every trainable controller family for one core in one environment,
/// trained from one shared teacher sweep.
#[derive(Debug, Clone)]
pub struct ControllerZoo {
    /// The paper's fuzzy controller (bit-identical to
    /// [`FuzzyOptimizer::train`] with the same budget).
    pub fuzzy: FuzzyOptimizer,
    /// Nearest-neighbor table over the teacher examples.
    pub nn: LearnedOptimizer<NnTable>,
    /// Greedy regression tree.
    pub tree: LearnedOptimizer<RegressionTree>,
    /// Fixed-point Q16.16 MLP.
    pub mlp: LearnedOptimizer<MlpQ16>,
}

impl ControllerZoo {
    /// [`ControllerZoo::train_traced`] without tracing.
    pub fn train(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
    ) -> Self {
        Self::train_traced(config, chip, core_index, env, budget, Tracer::noop())
    }

    /// Trains all four families for `core` under `env` from one
    /// [`FuzzyOptimizer`] teacher sweep, under a `train-zoo` span. The
    /// fuzzy member is therefore bit-identical to a standalone
    /// [`FuzzyOptimizer::train`] at the same budget; the learned
    /// families fit the same examples with per-bank seeds. Emits the
    /// sweep's `ControllerTrained` events plus a `controller.zoo.trained`
    /// count of 3 learned banks per (subsystem, variant).
    pub fn train_traced(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
    ) -> Self {
        let _span = tracer.span("train-zoo");
        fn slots<T>() -> Vec<[Option<T>; 2]> {
            (0..N_SUBSYSTEMS).map(|_| [None, None]).collect()
        }
        let (mut nn, mut tree, mut mlp) = (slots(), slots(), slots());
        let mut fuzzy = FuzzyOptimizer::sweep(
            config,
            chip,
            core_index,
            &[env],
            budget,
            tracer,
            |key, ex| {
                // Models with no stochastic training ignore the seed.
                let seed =
                    budget.seed ^ ((key.id.index() as u64) << 8) ^ (u64::from(key.alt) << 16);
                let (i, a) = (key.id.index(), usize::from(key.alt));
                nn[i][a] = fit("fit-nn-table", ex, env, seed, tracer);
                tree[i][a] = fit("fit-tree", ex, env, seed, tracer);
                mlp[i][a] = fit("fit-mlp", ex, env, seed, tracer);
                tracer.count_n(eval_trace::names::CONTROLLER_ZOO_TRAINED, 3);
            },
        );
        Self {
            fuzzy: fuzzy.swap_remove(0),
            nn: LearnedOptimizer::from_banks(env, nn),
            tree: LearnedOptimizer::from_banks(env, tree),
            mlp: LearnedOptimizer::from_banks(env, mlp),
        }
    }
}

/// Trains one family's bank for `env`'s ladders under the timing-only
/// `span` (`fit-<family>`), a child of the sweep's `bank` span.
fn fit<M: Trainable>(
    span: &'static str,
    ex: &TeacherExamples,
    env: Environment,
    seed: u64,
    tracer: Tracer<'_>,
) -> Option<LearnedBank<M>> {
    let _fit_span = tracer.span(span);
    Some(LearnedBank::fit(ex, env.asv, env.abb, |normalized, salt| {
        M::train(normalized, seed ^ salt)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveOptimizer;
    use crate::optimizer::SubsystemScene;
    use crate::test_support::{factory, small_budget};
    use eval_core::{SubsystemId, VariantSelection, FREQ_LADDER, VBB_LADDER, VDD_LADDER};
    use eval_uarch::{profile_workload, Workload};

    #[test]
    fn zoo_fuzzy_is_bit_identical_to_standalone_fuzzy_training() {
        let cfg = factory().config().clone();
        let chip = factory().chip(5);
        let budget = small_budget();
        let zoo = ControllerZoo::train(&cfg, &chip, 0, Environment::TS_ASV, &budget);
        let standalone =
            FuzzyOptimizer::train(&cfg, &chip, 0, Environment::TS_ASV, &budget, Tracer::noop());
        // Identical RNG stream and training seeds mean identical
        // controllers; compare through inference on a grid of scenes.
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        for id in SubsystemId::ALL {
            for th in [48.0, 60.0, 70.0] {
                for alpha in [0.2, 0.8] {
                    let scene = SubsystemScene {
                        state: chip.core(0).subsystem(id),
                        variants: VariantSelection::default(),
                        th_c: th,
                        alpha_f: alpha,
                        rho: 0.7,
                        pe_budget,
                        env: Environment::TS_ASV,
                    };
                    assert_eq!(
                        zoo.fuzzy.freq_max(&cfg, &scene).to_bits(),
                        standalone.freq_max(&cfg, &scene).to_bits()
                    );
                    let a = zoo.fuzzy.power_settings(&cfg, &scene, 4.0);
                    let b = standalone.power_settings(&cfg, &scene, 4.0);
                    assert_eq!((a.0.to_bits(), a.1.to_bits()), (b.0.to_bits(), b.1.to_bits()));
                }
            }
        }
    }

    #[test]
    fn learned_members_land_on_ladders_and_track_the_oracle() {
        let cfg = factory().config().clone();
        let chip = factory().chip(6);
        let zoo = ControllerZoo::train(&cfg, &chip, 0, Environment::TS_ASV, &small_budget());
        let oracle = ExhaustiveOptimizer::new();
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let members: [(&str, &dyn Optimizer); 3] =
            [("nn-table", &zoo.nn), ("tree", &zoo.tree), ("mlp", &zoo.mlp)];
        for (label, opt) in members {
            let mut err_sum = 0.0;
            let mut scenes = 0u32;
            for id in [SubsystemId::Dcache, SubsystemId::IntAlu] {
                for th in [50.0, 58.0, 66.0] {
                    for alpha in [0.3, 0.7] {
                        let scene = SubsystemScene {
                            state: chip.core(0).subsystem(id),
                            variants: VariantSelection::default(),
                            th_c: th,
                            alpha_f: alpha,
                            rho: 0.8,
                            pe_budget,
                            env: Environment::TS_ASV,
                        };
                        let f = opt.freq_max(&cfg, &scene);
                        assert!(FREQ_LADDER.contains(f), "{label} off ladder: {f}");
                        let (vdd, vbb) = opt.power_settings(&cfg, &scene, f);
                        assert!(VDD_LADDER.contains(vdd), "{label} vdd off ladder");
                        assert!(VBB_LADDER.contains(vbb), "{label} vbb off ladder");
                        err_sum += (f - oracle.freq_max(&cfg, &scene)).abs();
                        scenes += 1;
                    }
                }
            }
            let mean_err = err_sum / f64::from(scenes);
            assert!(
                mean_err <= 0.8,
                "{label} mean oracle gap {mean_err} GHz over tolerance"
            );
        }
    }

    #[test]
    fn controllers_decide_under_their_own_scheme_labels() {
        let cfg = factory().config().clone();
        let chip = factory().chip(7);
        let zoo = ControllerZoo::train(&cfg, &chip, 0, Environment::TS_ASV, &small_budget());
        let exh = ExhaustiveOptimizer::new();
        let w = Workload::by_name("swim").unwrap();
        let profile = profile_workload(&w, 6_000, 5);
        let static_c = StaticController::new(&exh);
        let exh_c = OptimizerController::new("exhaustive", &exh);
        let mlp_c = OptimizerController::new("mlp", &zoo.mlp);
        let contestants: [&dyn Controller; 3] = [&static_c, &exh_c, &mlp_c];
        let collector = eval_trace::Collector::new();
        for c in contestants {
            let tracer = eval_trace::Tracer::new(&collector);
            let d = c.decide(
                &cfg,
                chip.core(0),
                Environment::TS_ASV,
                &profile.phases[0],
                w.class,
                profile.rp_cycles,
                cfg.th_c,
                "swim",
                0,
                tracer,
            );
            assert!(d.perf_bips > 0.0, "{} produced no performance", c.scheme());
        }
        let reg = collector.registry();
        assert_eq!(reg.counter("decision.count"), 3);
        assert_eq!(reg.counter("decision.count.static"), 1);
        assert_eq!(reg.counter("decision.count.exhaustive"), 1);
        assert_eq!(reg.counter("decision.count.mlp"), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::exhaustive::ExhaustiveOptimizer;
    use crate::test_support::factory;
    use eval_core::{FREQ_LADDER, VBB_LADDER, VDD_LADDER};
    use eval_fuzzy::TrainingConfig;
    use eval_uarch::{profile_workload, Workload};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Over random chips, phases and Figure-10 environments, Static,
        /// Exh-Dyn and Fuzzy-Dyn decisions put `f` on the frequency
        /// ladder and every subsystem's `(Vdd, Vbb)` on the environment's
        /// ladders, or at exactly `1.0`/`0.0` where it lacks the knob.
        #[test]
        fn prop_decisions_land_on_the_environment_ladders(
            chip_seed in 1u64..60,
            env_idx in 0usize..Environment::FIGURE10.len(),
            workload_idx in 0usize..16,
            phase_pick in 0usize..64,
        ) {
            let cfg = factory().config().clone();
            let chip = factory().chip(chip_seed);
            let env = Environment::FIGURE10[env_idx];
            let workloads = Workload::all();
            let w = &workloads[workload_idx % workloads.len()];
            let profile = profile_workload(w, 3_000, chip_seed);
            let phase = &profile.phases[phase_pick % profile.phases.len()];
            // The smallest budget that still seeds the paper's 25 rules.
            let budget = TrainingBudget {
                examples: 30,
                config: TrainingConfig {
                    epochs: 1,
                    ..TrainingConfig::micro08()
                },
                seed: chip_seed,
            };
            let fuzzy = FuzzyOptimizer::train(&cfg, &chip, 0, env, &budget, Tracer::noop());
            let oracle = ExhaustiveOptimizer::new();
            let static_c = StaticController::new(&oracle);
            let exh_c = OptimizerController::new("exhaustive", &oracle);
            let fuzzy_c = OptimizerController::new("fuzzy", &fuzzy);
            let controllers: [&dyn Controller; 3] = [&static_c, &exh_c, &fuzzy_c];
            for c in controllers {
                let d = c.decide(
                    &cfg,
                    chip.core(0),
                    env,
                    phase,
                    w.class,
                    profile.rp_cycles,
                    cfg.th_c,
                    w.name,
                    phase.index as u64,
                    Tracer::noop(),
                );
                let who = format!("{} in {}", c.scheme(), env.name);
                prop_assert!(FREQ_LADDER.contains(d.f_ghz), "{}: f {} off the ladder", who, d.f_ghz);
                for &(vdd, vbb) in &d.settings {
                    if env.asv {
                        prop_assert!(VDD_LADDER.contains(vdd), "{}: Vdd {} off the ladder", who, vdd);
                    } else {
                        prop_assert_eq!(vdd, 1.0, "{}: Vdd without ASV", who);
                    }
                    if env.abb {
                        prop_assert!(VBB_LADDER.contains(vbb), "{}: Vbb {} off the ladder", who, vbb);
                    } else {
                        prop_assert_eq!(vbb, 0.0, "{}: Vbb without ABB", who);
                    }
                }
            }
        }
    }
}
