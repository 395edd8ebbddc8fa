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
//! lookup, ladder snapping, `asv`/`abb` gating and persistence are the
//! same code the learned families use. What this module adds is the
//! fit, which needs a [`TrainingConfig`], and the one teacher sweep that
//! every family trains from.
//!
//! Of the paper's six inputs, `Rth`, `Kdyn`, `Ksta` and `Vt0` are constants
//! for a given subsystem on a given chip, so the trained controllers take
//! the inputs that actually vary at run time: the sensed heat-sink
//! temperature, the counter-measured activity factor and exercise rate,
//! and (for the `Power` controllers) the core frequency.

use eval_core::{ChipModel, Environment, EvalConfig, SubsystemId, N_SUBSYSTEMS};
use eval_fuzzy::{FuzzyController, PersistError, TrainingConfig};
use eval_rng::ChaCha12Rng;
use eval_trace::Tracer;

use crate::exhaustive::ExhaustiveOptimizer;
use crate::learned::{LearnedBank, LearnedOptimizer, PhaseModel};
use crate::optimizer::Optimizer;
use crate::teacher::{self, TeacherExamples};

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

/// The paper's controller as a [`PhaseModel`] family: inference and
/// persistence forward to `eval_fuzzy` (inherent methods win over the
/// trait's in path resolution, so these calls do not recurse).
impl PhaseModel for FuzzyController {
    const KIND: &'static str = "fuzzy";

    fn infer_norm(&self, x: &[f64]) -> f64 {
        self.infer(x)
    }

    fn inputs(&self) -> usize {
        FuzzyController::inputs(self)
    }

    fn to_text(&self) -> String {
        FuzzyController::to_text(self)
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        FuzzyController::from_text(text)
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
    /// error on its normalized training set.
    pub fn train(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
    ) -> Self {
        let _span = tracer.span("train");
        Self::sweep(config, chip, core_index, env, budget, tracer, |_, _, _| {})
    }

    /// The teacher sweep every trained family shares: seeds the teacher
    /// RNG from `budget.seed ^ chip.seed()`, labels each (subsystem,
    /// variant) bank with the exhaustive oracle in a fixed order, fits
    /// the fuzzy bank, emits its `ControllerTrained` event, then hands
    /// the examples to `on_bank` (the controller zoo fits its other
    /// families there). Drains the oracle's cache counters at the end.
    pub(crate) fn sweep(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
        mut on_bank: impl FnMut(SubsystemId, bool, &TeacherExamples),
    ) -> Self {
        let oracle = ExhaustiveOptimizer::new();
        let core = chip.core(core_index);
        let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let mut rng = ChaCha12Rng::seed_from_u64(budget.seed ^ chip.seed());

        let mut banks = Vec::with_capacity(N_SUBSYSTEMS);
        for id in SubsystemId::ALL {
            let state = core.subsystem(id);
            let variants: &[bool] = if teacher::has_variant(id) && (env.fu_replication || env.queue)
            {
                &[false, true]
            } else {
                &[false]
            };
            let seed = budget.seed ^ ((id.index() as u64) << 8);
            let mut slot = [None, None];
            for &alt in variants {
                let vsel = teacher::variant_selection_for(id, alt);
                let ex = teacher::sample_bank(
                    &oracle,
                    config,
                    state,
                    vsel,
                    env,
                    pe_budget,
                    budget.examples,
                    &mut rng,
                );
                let bank = LearnedBank::fit(&ex, |normalized, salt| {
                    FuzzyController::train(normalized, &budget.config, seed ^ salt)
                        // lint:allow(panic-safety): TrainingBudget::default
                        // sizes the example set well above the rule count, and
                        // train() only fails when it is smaller.
                        .expect("training set is larger than the rule count")
                });
                tracer.count(eval_trace::names::FUZZY_CONTROLLERS_TRAINED);
                tracer.event(|| eval_trace::Event::ControllerTrained {
                    subsystem: id.to_string(),
                    variant: if alt { "alt" } else { "normal" },
                    examples: budget.examples as u64,
                    freq_rms: bank.freq.model.rms_error(&bank.freq.norm.apply(&ex.freq)),
                });
                slot[alt as usize] = Some(bank);
                on_bank(id, alt, &ex);
            }
            banks.push(slot);
        }
        // Metrics only (never golden event lines): oracle cache counters
        // accumulated across the whole training sweep.
        oracle.flush_metrics(tracer);
        Self::from_banks(env, banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SubsystemScene;
    use crate::test_support::{factory, small_budget};
    use eval_core::{FuChoice, VariantSelection, FREQ_LADDER, VBB_LADDER, VDD_LADDER};

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
    fn q_and_q_fu_train_identical_banks() {
        // Both environments train the alternate-structure banks (queue
        // resizing or FU replication enables them), the teacher RNG is
        // seeded from `budget.seed ^ chip.seed()` alone, and the oracle
        // sees only the ladders (ASV, no ABB in either) and the variant
        // list. So the banks are the same; any Fuzzy-Dyn difference
        // between the two Figure 10 columns comes from `decide_phase`'s
        // FU rule, not from training.
        let cfg = factory().config().clone();
        let chip = factory().chip(3);
        let budget = TrainingBudget {
            examples: 40,
            ..small_budget()
        };
        let q =
            FuzzyOptimizer::train(&cfg, &chip, 0, Environment::TS_ASV_Q, &budget, Tracer::noop());
        let q_fu = FuzzyOptimizer::train(
            &cfg,
            &chip,
            0,
            Environment::TS_ASV_Q_FU,
            &budget,
            Tracer::noop(),
        );
        assert_ne!(q.environment(), q_fu.environment());
        assert_eq!(q.banks, q_fu.banks);
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
