//! Offline teacher sampling shared by every learned controller.
//!
//! Each controller family in the zoo — fuzzy, nearest-neighbor table,
//! regression tree, fixed-point MLP — is trained at "manufacturing
//! test" time against the same teacher: the [`ExhaustiveOptimizer`]
//! queried on randomly sampled sensed inputs (§4.3.1). This module owns
//! what one bank is: its `BankKey`, its RNG seed, and the per-bank
//! sampling step. The one sweep over banks that calls it (key order,
//! the fuzzy fit, assembly per environment) is `FuzzyOptimizer::sweep`,
//! which `FuzzyOptimizer::train`, the campaign and
//! `ControllerZoo::train_traced` share, so one oracle sweep labels one
//! [`TeacherExamples`] set per key that every family trains from.
//!
//! A bank is a pure function of its key. The oracle reads only the
//! ASV/ABB ladders of an environment, so the key is (subsystem,
//! variant, `asv`, `abb`), and `bank_seed` gives every bank its own
//! RNG stream: draws never cross bank boundaries, and environments that
//! share a key share the bank. `TEACHER_CONTRACT` names this seeding
//! contract for checkpoint fingerprints.
//!
//! The RNG draw order inside [`sample_bank`] is part of the
//! trained-artifact contract: golden traces pin the resulting
//! controllers. Do not reorder the draws.
//!
//! [`ExhaustiveOptimizer`]: crate::exhaustive::ExhaustiveOptimizer

use std::ops::RangeInclusive;

use eval_core::{
    Environment, EvalConfig, FuChoice, QueueChoice, SubsystemId, SubsystemState, VariantSelection,
    FREQ_LADDER,
};
use eval_rng::{splitmix64, ChaCha12Rng};
use eval_trace::Tracer;

use crate::optimizer::{Optimizer, SubsystemScene};

/// The teacher's seeding contract, folded into checkpoint fingerprints:
/// one RNG per bank, seeded by [`bank_seed`] from the bank's key. A
/// checkpoint written under another contract holds other controllers.
pub(crate) const TEACHER_CONTRACT: &str = "bank-seed-v1";

/// What one teacher bank is a function of (besides the chip, core and
/// budget): the ladders the oracle searches and the (subsystem,
/// variant) it labels. The derived order — TS family, then ABB without
/// ASV, then ASV, then ASV+ABB; subsystems in index order; normal
/// before alternate — is the order a sweep trains keys in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BankKey {
    /// Adaptive supply voltage: the oracle searches the `Vdd` ladder.
    pub asv: bool,
    /// Adaptive body bias: the oracle searches the `Vbb` ladder.
    pub abb: bool,
    /// The subsystem.
    pub id: SubsystemId,
    /// The alternate structure (low-slope FU, small queue).
    pub alt: bool,
}

impl BankKey {
    /// The banks an optimizer for `env` holds, in key order.
    pub(crate) fn for_env(env: Environment) -> impl Iterator<Item = BankKey> {
        let alts: &'static [bool] = if env.fu_replication || env.queue {
            &[false, true]
        } else {
            &[false]
        };
        SubsystemId::ALL.into_iter().flat_map(move |id| {
            alts.iter()
                .filter(move |&&alt| !alt || has_variant(id))
                .map(move |&alt| BankKey {
                    asv: env.asv,
                    abb: env.abb,
                    id,
                    alt,
                })
        })
    }

    /// The environment the bank's training scenes run in: TS with this
    /// key's ladders. The oracle reads nothing else of an environment.
    pub(crate) fn teacher_env(&self) -> Environment {
        Environment {
            asv: self.asv,
            abb: self.abb,
            ..Environment::TS
        }
    }
}

/// The teacher RNG seed of one bank: a SplitMix64 chain over the
/// budget seed, the chip seed, the core and the bank's key.
pub(crate) fn bank_seed(budget_seed: u64, chip_seed: u64, core: usize, key: BankKey) -> u64 {
    [
        chip_seed,
        core as u64,
        key.id.index() as u64,
        u64::from(key.alt),
        u64::from(key.asv),
        u64::from(key.abb),
    ]
    .into_iter()
    .fold(budget_seed, |acc, part| splitmix64(&mut (acc ^ part)))
}

/// Sensed heat-sink temperature range used to sample training scenes,
/// Celsius.
pub const TH_RANGE: (f64, f64) = (45.0, 72.0);
/// Activity-factor range (accesses/cycle).
pub const ALPHA_RANGE: (f64, f64) = (0.0, 1.0);
/// Exercise-rate range (accesses/instruction).
pub const RHO_RANGE: (f64, f64) = (0.0, 2.5);

/// Teacher-labeled example sets for one (subsystem, variant) bank:
/// `freq` maps `[th, alpha, rho]` to the oracle's maximum frequency;
/// `vdd`/`vbb` map `[th, alpha, rho, f_core]` to the oracle's power
/// settings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TeacherExamples {
    /// `Freq` algorithm examples.
    pub freq: Vec<(Vec<f64>, f64)>,
    /// `Power` algorithm `Vdd` examples.
    pub vdd: Vec<(Vec<f64>, f64)>,
    /// `Power` algorithm `Vbb` examples.
    pub vbb: Vec<(Vec<f64>, f64)>,
}

/// Samples `examples` teacher-labeled scenes for one (subsystem,
/// variant) bank by querying `oracle` on sensed inputs drawn from
/// `rng`. The draw order per example — `th`, `alpha`, `rho`, then
/// `f_core` after the frequency query — matches the original fuzzy
/// training loop bit for bit.
///
/// It runs in two passes: the first makes every draw and every `Freq`
/// label, the second labels the `Power` examples and draws nothing.
/// The labels are those of one interleaved pass, because the oracle's
/// answers do not depend on what it was asked before (its solve cache
/// returns canonical values).
///
/// `f_core` is drawn continuously from `[FREQ_LADDER.min, fmax]`, so it
/// (almost surely) falls between ladder points and the exhaustive oracle
/// labels the `Power` examples on its uncached path
/// (`SceneEval::check_free`, one cold thermal solve per `(Vdd, Vbb)`
/// point it visits, in the supply rows before its dynamic-power cut);
/// only the `Freq` query goes through the oracle's solve cache.
///
/// Each `Freq` query carries the bracket that the bank's earlier labels
/// put on it (`label_bracket`), which the exhaustive oracle searches
/// inside; the labels are the same as unbracketed queries give.
#[allow(clippy::too_many_arguments)]
pub fn sample_bank(
    oracle: &dyn Optimizer,
    config: &EvalConfig,
    state: &SubsystemState,
    variants: VariantSelection,
    env: Environment,
    pe_budget: f64,
    examples: usize,
    rng: &mut ChaCha12Rng,
) -> TeacherExamples {
    label_bank(
        oracle,
        config,
        state,
        variants,
        env,
        pe_budget,
        examples,
        rng,
        Tracer::noop(),
    )
}

/// [`sample_bank`] with its two passes timed under a `label-freq` and a
/// `label-power` span on `tracer`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn label_bank(
    oracle: &dyn Optimizer,
    config: &EvalConfig,
    state: &SubsystemState,
    variants: VariantSelection,
    env: Environment,
    pe_budget: f64,
    examples: usize,
    rng: &mut ChaCha12Rng,
    tracer: Tracer<'_>,
) -> TeacherExamples {
    let scene = |[th, alpha, rho]: [f64; 3]| SubsystemScene {
        state,
        variants,
        th_c: th,
        alpha_f: alpha,
        rho,
        pe_budget,
        env,
    };
    let mut out = TeacherExamples {
        freq: Vec::with_capacity(examples),
        vdd: Vec::with_capacity(examples),
        vbb: Vec::with_capacity(examples),
    };
    // Each example's sensed inputs and drawn `f_core`, for the second pass.
    let mut draws: Vec<([f64; 3], f64)> = Vec::with_capacity(examples);
    let freq_span = tracer.span("label-freq");
    let mut labelled: Vec<([f64; 3], usize)> = Vec::with_capacity(examples);
    for _ in 0..examples {
        let th = rng.gen_range(TH_RANGE.0..TH_RANGE.1);
        let alpha = rng.gen_range(ALPHA_RANGE.0..ALPHA_RANGE.1);
        let rho = rng.gen_range(RHO_RANGE.0..RHO_RANGE.1).max(1e-3);
        let x = [th, alpha, rho];
        let fmax = oracle.freq_max_within(config, &scene(x), label_bracket(&labelled, x));
        // An off-ladder answer (an oracle other than the exhaustive
        // search) bounds nothing.
        if let Some(idx) = FREQ_LADDER.index_of(fmax) {
            labelled.push((x, idx));
        }
        out.freq.push((x.to_vec(), fmax));
        let f_core = rng.gen_range(FREQ_LADDER.min..=fmax.max(FREQ_LADDER.min));
        draws.push((x, f_core));
    }
    drop(freq_span);
    let _power_span = tracer.span("label-power");
    for ([th, alpha, rho], f_core) in draws {
        let (vdd, vbb) = oracle.power_settings(config, &scene([th, alpha, rho]), f_core);
        out.vdd.push((vec![th, alpha, rho, f_core], vdd));
        out.vbb.push((vec![th, alpha, rho, f_core], vbb));
    }
    out
}

/// The ladder-index bracket that earlier labels of one bank put on the
/// `Freq` label of a scene with sensed inputs `x = [th, alpha, rho]`.
/// Within a bank the oracle's `fmax` never rises when an input rises
/// (see the `exhaustive` module doc), so a labelled scene that
/// dominates `x` (every input `>=`) bounds the label from below, and one
/// that `x` dominates bounds it from above.
fn label_bracket(labelled: &[([f64; 3], usize)], x: [f64; 3]) -> RangeInclusive<usize> {
    let (mut lo, mut hi) = (0, FREQ_LADDER.len() - 1);
    for (y, idx) in labelled {
        if y.iter().zip(&x).all(|(a, b)| a >= b) {
            lo = lo.max(*idx);
        }
        if y.iter().zip(&x).all(|(a, b)| a <= b) {
            hi = hi.min(*idx);
        }
    }
    lo..=hi
}

/// The variant selection that enables (or not) subsystem `id`'s
/// alternate structure, for building training scenes.
pub(crate) fn variant_selection_for(id: SubsystemId, alt: bool) -> VariantSelection {
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

/// Whether `id` has an alternate structure worth a second bank.
pub(crate) fn has_variant(id: SubsystemId) -> bool {
    id.is_replicable_fu() || id.is_issue_queue()
}

/// Whether `scene` selects subsystem `id`'s alternate structure —
/// the bank-slot lookup shared by every trained optimizer.
pub(crate) fn scene_alt(scene: &SubsystemScene<'_>) -> bool {
    match scene.state.id() {
        SubsystemId::IntAlu => scene.variants.int_fu == FuChoice::LowSlope,
        SubsystemId::FpUnit => scene.variants.fp_fu == FuChoice::LowSlope,
        SubsystemId::IntQueue => scene.variants.int_queue == QueueChoice::Small,
        SubsystemId::FpQueue => scene.variants.fp_queue == QueueChoice::Small,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveOptimizer;
    use eval_core::{ChipFactory, N_SUBSYSTEMS};

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let factory = ChipFactory::new(EvalConfig::micro08());
        let cfg = factory.config().clone();
        let chip = factory.chip(4);
        let state = chip.core(0).subsystem(SubsystemId::Dcache);
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let draw = |seed: u64| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            sample_bank(
                &ExhaustiveOptimizer::new(),
                &cfg,
                state,
                VariantSelection::default(),
                Environment::TS_ASV,
                pe_budget,
                12,
                &mut rng,
            )
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same examples");
        assert_ne!(a, draw(8), "different seed, different examples");
        assert_eq!(a.freq.len(), 12);
        assert_eq!(a.vdd.len(), 12);
        assert_eq!(a.vbb.len(), 12);
        for (x, fmax) in &a.freq {
            assert_eq!(x.len(), 3);
            assert!(FREQ_LADDER.contains(*fmax));
        }
        for (x, _) in &a.vdd {
            assert_eq!(x.len(), 4);
        }
    }

    /// The two passes give bit for bit what one interleaved pass gives:
    /// per example the three draws, the `Freq` label, the `f_core` draw
    /// and the `Power` label, all from one oracle whose cache the
    /// `Freq` and `Power` queries share.
    #[test]
    fn two_pass_bank_equals_interleaved_labels() {
        let factory = ChipFactory::new(EvalConfig::micro08());
        let cfg = factory.config().clone();
        let chip = factory.chip(2);
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let env = Environment::TS_ASV_ABB;
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let examples = 65;
        let two_pass = sample_bank(
            &ExhaustiveOptimizer::new(),
            &cfg,
            state,
            VariantSelection::default(),
            env,
            pe_budget,
            examples,
            &mut ChaCha12Rng::seed_from_u64(5),
        );
        let oracle = ExhaustiveOptimizer::new();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut interleaved = TeacherExamples::default();
        let mut labelled = Vec::new();
        for _ in 0..examples {
            let th = rng.gen_range(TH_RANGE.0..TH_RANGE.1);
            let alpha = rng.gen_range(ALPHA_RANGE.0..ALPHA_RANGE.1);
            let rho = rng.gen_range(RHO_RANGE.0..RHO_RANGE.1).max(1e-3);
            let scene = SubsystemScene {
                state,
                variants: VariantSelection::default(),
                th_c: th,
                alpha_f: alpha,
                rho,
                pe_budget,
                env,
            };
            let x = [th, alpha, rho];
            let fmax = oracle.freq_max_within(&cfg, &scene, label_bracket(&labelled, x));
            labelled.push((x, FREQ_LADDER.index_of(fmax).expect("on the ladder")));
            interleaved.freq.push((x.to_vec(), fmax));
            let f_core = rng.gen_range(FREQ_LADDER.min..=fmax.max(FREQ_LADDER.min));
            let (vdd, vbb) = oracle.power_settings(&cfg, &scene, f_core);
            interleaved.vdd.push((vec![th, alpha, rho, f_core], vdd));
            interleaved.vbb.push((vec![th, alpha, rho, f_core], vbb));
        }
        assert_eq!(two_pass, interleaved);
    }

    /// The exhaustive oracle with the trait's default `freq_max_within`,
    /// which ignores the bracket: every label is a plain `freq_max`.
    struct Unbracketed(ExhaustiveOptimizer);

    impl Optimizer for Unbracketed {
        fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
            self.0.freq_max(config, scene)
        }

        fn power_settings(
            &self,
            config: &EvalConfig,
            scene: &SubsystemScene<'_>,
            f_core: f64,
        ) -> (f64, f64) {
            self.0.power_settings(config, scene, f_core)
        }
    }

    #[test]
    fn bracketed_bank_equals_plain_freq_max_labels() {
        let factory = ChipFactory::new(EvalConfig::micro08());
        let cfg = factory.config().clone();
        let chip = factory.chip(3);
        let state = chip.core(0).subsystem(SubsystemId::IntQueue);
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let label = |oracle: &dyn Optimizer| {
            let mut rng = ChaCha12Rng::seed_from_u64(11);
            sample_bank(
                oracle,
                &cfg,
                state,
                VariantSelection::default(),
                Environment::TS_ASV_ABB,
                pe_budget,
                260,
                &mut rng,
            )
        };
        let bracketed = label(&ExhaustiveOptimizer::new());
        let plain = label(&Unbracketed(ExhaustiveOptimizer::new()));
        assert_eq!(bracketed, plain);
        let distinct: std::collections::BTreeSet<u64> =
            plain.freq.iter().map(|(_, f)| f.to_bits()).collect();
        assert!(distinct.len() > 3, "labels span the ladder: {distinct:?}");
    }
}
