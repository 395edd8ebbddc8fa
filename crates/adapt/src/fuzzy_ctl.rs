//! The fuzzy-controller implementation of the `Freq`/`Power` algorithms
//! (§4.3.1): per-subsystem controllers trained against the exhaustive
//! oracle at "manufacturing test" time, then deployed as the runtime
//! optimizer.
//!
//! Per the paper there is one `Freq` controller per subsystem and two
//! `Power` controllers (for `Vdd` and `Vbb`). Subsystems with structure
//! variants (replicated FUs, resizable queues) get a controller per
//! variant — the variant changes both the timing model and `Kdyn`, so it
//! is part of the function being learned.
//!
//! The fuzzy controller is one [`PhaseModel`] family among four:
//! [`FuzzyOptimizer`] is `LearnedOptimizer<FuzzyController>`, so bank
//! lookup, ladder snapping and `asv`/`abb` gating are the same code the
//! learned families use. What this module adds is the fit, which needs a
//! [`TrainingConfig`], and the one teacher sweep that every family trains
//! from.
//!
//! Of the paper's six inputs, `Rth`, `Kdyn`, `Ksta` and `Vt0` are constants
//! for a given subsystem on a given chip, so the trained controllers take
//! the inputs that actually vary at run time: the sensed heat-sink
//! temperature, the counter-measured activity factor and exercise rate,
//! and (for the `Power` controllers) the core frequency.

use eval_core::{ChipModel, Environment, EvalConfig, N_SUBSYSTEMS};
use eval_fuzzy::{FuzzyController, TrainingConfig};
use eval_rng::ChaCha12Rng;
use eval_trace::Tracer;

use crate::exhaustive::ExhaustiveOptimizer;
use crate::learned::{LearnedBank, LearnedOptimizer, PhaseModel};
use crate::optimizer::Optimizer;
use crate::teacher::{self, BankKey, TeacherExamples};

/// How much offline training to give each fuzzy controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingBudget {
    /// Training examples per controller. The paper uses 10 000 with 25
    /// rules; the default here is smaller because training happens per
    /// chip inside the experiment loop, and accuracy saturates well below
    /// the paper's budget on the three-to-four input functions involved.
    pub examples: usize,
    /// Rule count / learning rate / epochs.
    pub config: TrainingConfig,
    /// RNG seed for example sampling and initialization.
    pub seed: u64,
}

impl Default for TrainingBudget {
    fn default() -> Self {
        Self {
            examples: 260,
            config: TrainingConfig::micro08(),
            seed: 0xF022,
        }
    }
}

/// The paper's controller as a [`PhaseModel`] family: inference
/// forwards to `eval_fuzzy`.
impl PhaseModel for FuzzyController {
    fn infer_norm(&self, x: &[f64]) -> f64 {
        self.infer(x)
    }
}

/// The deployable fuzzy optimizer for one core in one environment.
pub type FuzzyOptimizer = LearnedOptimizer<FuzzyController>;

impl LearnedOptimizer<FuzzyController> {
    /// Trains the per-subsystem controllers for `core` under `env` by
    /// querying the exhaustive oracle on randomly sampled sensed inputs
    /// (heat-sink temperature, activity, exercise rate, core frequency),
    /// under a `train` span.
    ///
    /// This models the manufacturer-site training of §4.3.1; it is the
    /// expensive step (seconds per core), after which deployment queries
    /// cost microseconds. Emits one
    /// [`ControllerTrained`](eval_trace::Event::ControllerTrained) event
    /// per (subsystem, variant) bank with the `Freq` controller's RMS
    /// error on its normalized training set. The result equals `env`'s
    /// optimizer from `FuzzyOptimizer::train_envs` over any list that
    /// holds `env`.
    pub fn train(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
    ) -> Self {
        let mut one = Self::train_envs(config, chip, core_index, &[env], budget, tracer);
        one.swap_remove(0)
    }

    /// [`FuzzyOptimizer::train`] for several environments of one core at
    /// once, under one `train` span: each distinct bank key is trained
    /// once and shared by every environment that holds it. Returns one
    /// optimizer per environment, in `envs` order.
    pub(crate) fn train_envs(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        envs: &[Environment],
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
    ) -> Vec<Self> {
        let _span = tracer.span("train");
        Self::sweep(config, chip, core_index, envs, budget, tracer, |_, _| {})
    }

    /// The teacher sweep every trained family shares. Collects the
    /// distinct [`BankKey`]s the environments need and, in key order and
    /// under one `bank` span each, labels the bank with the exhaustive
    /// oracle from its own RNG stream ([`teacher::bank_seed`]) in the two
    /// passes of [`teacher::sample_bank`], under a `label-freq` and a
    /// `label-power` span, fits the fuzzy bank under `fit-fuzzy`, emits its
    /// `ControllerTrained` event, then hands the examples to `on_bank`
    /// (the controller zoo fits its other families there, each under its
    /// own `fit-<family>` span) — once per key. Each bank gets a fresh
    /// oracle, whose cache counters are drained as metrics once it is
    /// labelled. Each environment's optimizer is then assembled from the
    /// shared banks;
    /// every slot filled from a bank an earlier environment already
    /// holds counts as `fuzzy.banks_reused`.
    pub(crate) fn sweep(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        envs: &[Environment],
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
        mut on_bank: impl FnMut(BankKey, &TeacherExamples),
    ) -> Vec<Self> {
        let core = chip.core(core_index);
        let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let mut keys: Vec<BankKey> = envs.iter().flat_map(|env| BankKey::for_env(*env)).collect();
        keys.sort_unstable();
        keys.dedup();

        let mut trained = Vec::with_capacity(keys.len());
        for &key in &keys {
            let _bank_span = tracer.span("bank");
            // A fresh oracle per bank: banks share no solves worth caching
            // (each labels another subsystem or variant), so a longer-lived
            // cache only holds memory.
            let oracle = ExhaustiveOptimizer::new();
            let mut rng = ChaCha12Rng::seed_from_u64(teacher::bank_seed(
                budget.seed,
                chip.seed(),
                core_index,
                key,
            ));
            // Timing-only child spans split the bank's time between the
            // two labelling passes and each family's fit (the timing sink
            // alone sees spans, so event lines do not change).
            let ex = teacher::label_bank(
                &oracle,
                config,
                core.subsystem(key.id),
                teacher::variant_selection_for(key.id, key.alt),
                key.teacher_env(),
                pe_budget,
                budget.examples,
                &mut rng,
                tracer,
            );
            // Metrics only (never golden event lines): the oracle's cache
            // counters.
            oracle.flush_metrics(tracer);
            let seed = budget.seed ^ ((key.id.index() as u64) << 8);
            let bank = {
                let _fit_span = tracer.span("fit-fuzzy");
                LearnedBank::fit(&ex, key.asv, key.abb, |normalized, salt| {
                    FuzzyController::train(normalized, &budget.config, seed ^ salt)
                        // lint:allow(panic-safety): TrainingBudget::default
                        // sizes the example set well above the rule count,
                        // and train() only fails when it is smaller.
                        .expect("training set is larger than the rule count")
                })
            };
            tracer.count(eval_trace::names::FUZZY_CONTROLLERS_TRAINED);
            tracer.event(|| eval_trace::Event::ControllerTrained {
                subsystem: key.id.to_string(),
                variant: if key.alt { "alt" } else { "normal" },
                asv: key.asv,
                abb: key.abb,
                examples: budget.examples as u64,
                freq_rms: bank.freq.model.rms_error(&bank.freq.norm.apply(&ex.freq)),
            });
            on_bank(key, &ex);
            trained.push(bank);
        }

        let mut used = vec![false; keys.len()];
        envs.iter()
            .map(|&env| {
                let mut banks: Vec<[Option<LearnedBank<FuzzyController>>; 2]> =
                    (0..N_SUBSYSTEMS).map(|_| [None, None]).collect();
                for key in BankKey::for_env(env) {
                    // lint:allow(panic-safety): `keys` holds every key of
                    // every environment in `envs`.
                    let k = keys.binary_search(&key).expect("every key was trained");
                    if std::mem::replace(&mut used[k], true) {
                        tracer.count(eval_trace::names::FUZZY_BANKS_REUSED);
                    }
                    banks[key.id.index()][usize::from(key.alt)] = Some(trained[k].clone());
                }
                Self::from_banks(env, banks)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SubsystemScene;
    use crate::test_support::{factory, small_budget};
    use eval_core::{FuChoice, SubsystemId, VariantSelection, FREQ_LADDER, VBB_LADDER, VDD_LADDER};

    fn train(chip: &ChipModel, env: Environment) -> FuzzyOptimizer {
        FuzzyOptimizer::train(factory().config(), chip, 0, env, &small_budget(), Tracer::noop())
    }

    #[test]
    fn fuzzy_tracks_exhaustive_frequency_within_a_few_steps() {
        let cfg = factory().config().clone();
        let chip = factory().chip(1);
        let fuzzy = train(&chip, Environment::TS_ASV);
        let oracle = ExhaustiveOptimizer::new();
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let mut worst = 0.0f64;
        let mut rng = ChaCha12Rng::seed_from_u64(99);
        for _ in 0..20 {
            let id = SubsystemId::from_index(rng.gen_range(0..N_SUBSYSTEMS));
            let scene = SubsystemScene {
                state: chip.core(0).subsystem(id),
                variants: VariantSelection::default(),
                th_c: rng.gen_range(50.0..68.0),
                alpha_f: rng.gen_range(0.1..0.9),
                rho: rng.gen_range(0.1..2.0),
                pe_budget,
                env: Environment::TS_ASV,
            };
            let f_fuzzy = fuzzy.freq_max(&cfg, &scene);
            let f_exh = oracle.freq_max(&cfg, &scene);
            worst = worst.max((f_fuzzy - f_exh).abs());
        }
        // Paper (Table 2): mean frequency errors are a few percent of
        // nominal; allow the worst case a few ladder steps.
        assert!(worst <= 0.65, "worst fuzzy-vs-exhaustive gap {worst} GHz");
    }

    #[test]
    fn outputs_land_on_ladders() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let fuzzy = train(&chip, Environment::TS_ABB_ASV);
        let scene = SubsystemScene {
            state: chip.core(0).subsystem(SubsystemId::Dcache),
            variants: VariantSelection::default(),
            th_c: 60.0,
            alpha_f: 0.4,
            rho: 0.5,
            pe_budget: cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
            env: Environment::TS_ABB_ASV,
        };
        let f = fuzzy.freq_max(&cfg, &scene);
        assert!(FREQ_LADDER.contains(f));
        let (vdd, vbb) = fuzzy.power_settings(&cfg, &scene, f);
        assert!(VDD_LADDER.contains(vdd));
        assert!(VBB_LADDER.contains(vbb));
    }

    #[test]
    fn banks_depend_only_on_their_key() {
        // A bank's function is (subsystem, variant, ASV, ABB): across
        // Figure 10's six environments, slots with equal keys hold equal
        // banks, so e.g. TS+ASV's banks are the normal banks of Q and
        // Q+FU, and TS+ASV+ABB's are ALL's normal banks. Any Fuzzy-Dyn
        // difference between such columns comes from `decide_phase`,
        // not from training.
        let cfg = factory().config().clone();
        let chip = factory().chip(3);
        let budget = TrainingBudget {
            examples: 40,
            ..small_budget()
        };
        let envs = Environment::FIGURE10;
        let collector = eval_trace::Collector::new();
        let all =
            FuzzyOptimizer::train_envs(&cfg, &chip, 0, &envs, &budget, Tracer::new(&collector));
        let slot = |opt: &FuzzyOptimizer, key: BankKey| {
            opt.banks[key.id.index()][usize::from(key.alt)].clone()
        };
        let mut shared = 0;
        for (a, opt_a) in envs.iter().zip(&all) {
            assert_eq!(opt_a.environment(), *a);
            for (b, opt_b) in envs.iter().zip(&all) {
                for key in BankKey::for_env(*a).filter(|k| BankKey::for_env(*b).any(|m| m == *k)) {
                    assert!(slot(opt_a, key).is_some());
                    assert_eq!(slot(opt_a, key), slot(opt_b, key), "{a} vs {b} at {key:?}");
                    shared += usize::from(a != b);
                }
            }
        }
        // TS+ASV (15 slots) with Q and Q+FU, Q with Q+FU (19), and
        // TS+ASV+ABB with ALL (15), each pair counted both ways.
        assert_eq!(shared, 2 * (15 + 15 + 19 + 15));
        // Different ladders are different functions.
        let ts_asv_key = BankKey::for_env(Environment::TS_ASV).next().unwrap();
        let abb_key = BankKey::for_env(Environment::TS_ASV_ABB).next().unwrap();
        assert_ne!(slot(&all[1], ts_asv_key), slot(&all[2], abb_key));
        // 53 distinct keys train; the other 49 of 102 slots are shared.
        let reg = collector.registry();
        assert_eq!(
            reg.counter(eval_trace::names::FUZZY_CONTROLLERS_TRAINED),
            53
        );
        assert_eq!(reg.counter(eval_trace::names::FUZZY_BANKS_REUSED), 49);
        // A one-environment training equals the same environment
        // assembled by the multi-environment sweep.
        for (i, env) in [(3, Environment::TS_ASV_Q), (5, Environment::ALL)] {
            let one = FuzzyOptimizer::train(&cfg, &chip, 0, env, &budget, Tracer::noop());
            assert_eq!(one, all[i], "{env}");
        }
    }

    #[test]
    fn variant_controllers_differ_for_replicated_fus() {
        let cfg = factory().config().clone();
        let chip = factory().chip(3);
        let fuzzy = train(&chip, Environment::TS_ASV_Q_FU);
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let mk = |fu: FuChoice| SubsystemScene {
            state: chip.core(0).subsystem(SubsystemId::IntAlu),
            variants: VariantSelection {
                int_fu: fu,
                ..VariantSelection::default()
            },
            th_c: 58.0,
            alpha_f: 0.6,
            rho: 0.8,
            pe_budget,
            env: Environment::TS_ASV_Q_FU,
        };
        // The variant is part of the learned function: each (subsystem,
        // variant) pair has its own controller, and each must track the
        // exhaustive oracle for *its* variant. (Whether low-slope beats
        // normal at any given scene is chip-dependent — tilt trades mean
        // delay for variance — so that is not asserted.) Averaged over a
        // grid of scenes, the per-variant tracking error should stay
        // within a couple of ladder steps.
        let oracle = ExhaustiveOptimizer::new();
        let mut err = [0.0f64; 2];
        let mut diverged = false;
        let mut scenes = 0u32;
        for th in [50.0, 58.0, 66.0] {
            for alpha in [0.3, 0.6, 0.9] {
                for rho in [0.4, 0.8, 1.6] {
                    let at = |fu: FuChoice| {
                        let mut s = mk(fu);
                        s.th_c = th;
                        s.alpha_f = alpha;
                        s.rho = rho;
                        (fuzzy.freq_max(&cfg, &s), oracle.freq_max(&cfg, &s))
                    };
                    let (f_normal, o_normal) = at(FuChoice::Normal);
                    let (f_low, o_low) = at(FuChoice::LowSlope);
                    err[0] += (f_normal - o_normal).abs();
                    err[1] += (f_low - o_low).abs();
                    diverged |= f_normal != f_low;
                    scenes += 1;
                }
            }
        }
        let mean_err_normal = err[0] / scenes as f64;
        let mean_err_low = err[1] / scenes as f64;
        assert!(
            mean_err_normal <= 0.3 && mean_err_low <= 0.3,
            "mean tracking error: normal {mean_err_normal} GHz, low-slope {mean_err_low} GHz"
        );
        assert!(diverged, "variant controllers never disagreed — not variant-specific");
    }
}
