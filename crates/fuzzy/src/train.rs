//! Training phase (Appendix A of the paper): rule seeding from the
//! examples, then shuffled stochastic-gradient epochs in the fit kernel
//! (`crate::kernel`).

use std::fmt;

use eval_rng::ChaCha12Rng;

use crate::controller::FuzzyController;
use crate::kernel;

/// Hyper-parameters of the training phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Number of fuzzy rules (matrix rows).
    pub rules: usize,
    /// Learning rate `alpha` of Equation 13.
    pub learning_rate: f64,
    /// Passes over the training set.
    pub epochs: usize,
}

impl TrainingConfig {
    /// The paper's settings: 25 rules, `alpha` = 0.04. The paper streams
    /// 10 000 examples once; with the smaller synthetic training sets used
    /// here we take a few passes, which is equivalent in update count.
    pub fn micro08() -> Self {
        Self {
            rules: 25,
            learning_rate: 0.04,
            epochs: 6,
        }
    }
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self::micro08()
    }
}

/// Training failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Fewer examples than rules: the rule matrix cannot be seeded.
    NotEnoughExamples {
        /// Examples provided.
        got: usize,
        /// Rules requested.
        need: usize,
    },
    /// Examples disagree on input dimensionality.
    DimensionMismatch,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NotEnoughExamples { got, need } => {
                write!(f, "need at least {need} training examples, got {got}")
            }
            TrainError::DimensionMismatch => {
                write!(f, "training examples have inconsistent input dimensions")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl FuzzyController {
    /// Trains a controller on `(input, output)` examples.
    ///
    /// Initialization follows the paper: the first `rules` examples seed
    /// `mu` with their inputs and `y` with their outputs, `sigma` gets small
    /// random values (< 0.1); the remaining examples run the gradient
    /// update, for `config.epochs` passes. Deterministic in `seed`.
    ///
    /// Each pass visits every example once, in an order shuffled from the
    /// seed's stream, and takes one stochastic-gradient step per example
    /// (Equation 13). The steps run in the crate's fit kernel on
    /// input-major copies of `mu` and `sigma`, with every buffer
    /// allocated once per fit; the result is bit-identical to applying
    /// the per-example update in the same order on the row-major
    /// controller.
    ///
    /// Inputs should be normalized to roughly `[0, 1]` (see
    /// [`crate::Normalizer`]) so that the sigma initialization is sensible.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if there are fewer examples than rules or the
    /// example dimensions are inconsistent.
    pub fn train(
        examples: &[(Vec<f64>, f64)],
        config: &TrainingConfig,
        seed: u64,
    ) -> Result<FuzzyController, TrainError> {
        let (mut fc, mut rng) = Self::seed_rules(examples, config, seed)?;
        let (rules, inputs) = (fc.rules(), fc.inputs());

        // Gradient passes in a shuffled order, on input-major working
        // copies of the membership matrices.
        let mut mu = vec![0.0; rules * inputs];
        let mut sigma = vec![0.0; rules * inputs];
        kernel::transpose_into(&fc.mu, rules, inputs, &mut mu);
        kernel::transpose_into(&fc.sigma, rules, inputs, &mut sigma);
        let mut scratch = vec![0.0; 3 * rules];
        let mut order: Vec<usize> = (0..examples.len()).collect();
        for _ in 0..config.epochs {
            shuffle(&mut order, &mut rng);
            kernel::fit_pass(
                &mut mu,
                &mut sigma,
                &mut fc.y,
                &mut scratch,
                examples,
                &order,
                config.learning_rate,
            );
        }
        kernel::transpose_into(&mu, inputs, rules, &mut fc.mu);
        kernel::transpose_into(&sigma, inputs, rules, &mut fc.sigma);
        Ok(fc)
    }

    /// Validates the examples and seeds the rule matrices; returns the
    /// untrained controller and the stream the epochs shuffle with.
    fn seed_rules(
        examples: &[(Vec<f64>, f64)],
        config: &TrainingConfig,
        seed: u64,
    ) -> Result<(FuzzyController, ChaCha12Rng), TrainError> {
        if examples.len() < config.rules {
            return Err(TrainError::NotEnoughExamples {
                got: examples.len(),
                need: config.rules,
            });
        }
        let inputs = examples[0].0.len();
        if inputs == 0 || examples.iter().any(|(x, _)| x.len() != inputs) {
            return Err(TrainError::DimensionMismatch);
        }
        let mut rng = ChaCha12Rng::seed_from_u64(seed);

        // Seed rules spread across the example set (striding rather than
        // taking a prefix avoids seeding all rules from one corner when the
        // examples are sorted).
        let stride = examples.len() / config.rules;
        let mut mu = Vec::with_capacity(config.rules * inputs);
        let mut sigma = Vec::with_capacity(config.rules * inputs);
        let mut y = Vec::with_capacity(config.rules);
        for r in 0..config.rules {
            let (x, t) = &examples[r * stride];
            mu.extend_from_slice(x);
            for _ in 0..inputs {
                sigma.push(rng.gen_range(0.05..0.1));
            }
            y.push(*t);
        }
        Ok((FuzzyController::from_parts(inputs, mu, sigma, y), rng))
    }
}

/// One Fisher-Yates shuffle of `order` with the deterministic stream.
fn shuffle(order: &mut [usize], rng: &mut ChaCha12Rng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::controller::tests::reference_update;

    /// [`FuzzyController::train`] with the per-example update the fit
    /// kernel replaced: same seeding, same shuffles, one
    /// `reference_update` per example on the row-major controller.
    pub(crate) fn fuzzy_fit_reference(
        examples: &[(Vec<f64>, f64)],
        config: &TrainingConfig,
        seed: u64,
    ) -> FuzzyController {
        let (mut fc, mut rng) =
            FuzzyController::seed_rules(examples, config, seed).expect("valid examples");
        let mut order: Vec<usize> = (0..examples.len()).collect();
        for _ in 0..config.epochs {
            shuffle(&mut order, &mut rng);
            for &k in &order {
                let (x, t) = &examples[k];
                reference_update(&mut fc, x, *t, config.learning_rate);
            }
        }
        fc
    }

    /// The first `(matrix, index)` at which the `mu`, `sigma` or `y`
    /// bits of two controllers differ.
    pub(crate) fn first_difference(
        a: &FuzzyController,
        b: &FuzzyController,
    ) -> Option<(&'static str, usize)> {
        let matrices = [
            ("mu", &a.mu, &b.mu),
            ("sigma", &a.sigma, &b.sigma),
            ("y", &a.y, &b.y),
        ];
        for (name, p, q) in matrices {
            assert_eq!(p.len(), q.len(), "{name} sizes");
            if let Some(i) = p
                .iter()
                .zip(q)
                .position(|(u, v)| u.to_bits() != v.to_bits())
            {
                return Some((name, i));
            }
        }
        None
    }

    fn grid_examples<F: Fn(f64, f64) -> f64>(f: F) -> Vec<(Vec<f64>, f64)> {
        let mut out = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                let x0 = i as f64 / 39.0;
                let x1 = j as f64 / 39.0;
                out.push((vec![x0, x1], f(x0, x1)));
            }
        }
        out
    }

    #[test]
    fn learns_a_linear_function() {
        let ex = grid_examples(|a, b| 2.0 * a - b + 0.5);
        let fc = FuzzyController::train(&ex, &TrainingConfig::micro08(), 1).unwrap();
        assert!(fc.rms_error(&ex) < 0.08, "rms = {}", fc.rms_error(&ex));
    }

    #[test]
    fn learns_a_nonlinear_function() {
        // The motivating case for fuzzy control: outputs that are not a
        // linear function of the inputs (Appendix A).
        let ex = grid_examples(|a, b| (3.0 * a).sin() * 0.5 + b * b);
        let fc = FuzzyController::train(&ex, &TrainingConfig::micro08(), 2).unwrap();
        assert!(fc.rms_error(&ex) < 0.10, "rms = {}", fc.rms_error(&ex));
    }

    #[test]
    fn training_reduces_error_versus_seed_rules_only() {
        let ex = grid_examples(|a, b| a * b);
        let cfg = TrainingConfig::micro08();
        let untrained =
            FuzzyController::train(&ex, &TrainingConfig { epochs: 0, ..cfg }, 3).unwrap();
        let trained = FuzzyController::train(&ex, &cfg, 3).unwrap();
        assert!(trained.rms_error(&ex) < untrained.rms_error(&ex));
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let ex = grid_examples(|a, b| a + b);
        let cfg = TrainingConfig::micro08();
        let a = FuzzyController::train(&ex, &cfg, 9).unwrap();
        let b = FuzzyController::train(&ex, &cfg, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_few_examples_is_an_error() {
        let ex = vec![(vec![0.0], 0.0); 10];
        let err = FuzzyController::train(&ex, &TrainingConfig::micro08(), 0).unwrap_err();
        assert!(matches!(
            err,
            TrainError::NotEnoughExamples { got: 10, need: 25 }
        ));
    }

    #[test]
    fn inconsistent_dimensions_are_an_error() {
        let mut ex = vec![(vec![0.0, 0.0], 0.0); 30];
        ex[7] = (vec![0.0], 0.0);
        let err = FuzzyController::train(&ex, &TrainingConfig::micro08(), 0).unwrap_err();
        assert_eq!(err, TrainError::DimensionMismatch);
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::tests::{first_difference, fuzzy_fit_reference};
    use super::*;
    use crate::controller::tests::assert_infer_matches_reference;
    use proptest::prelude::*;

    // Case shapes for the kernel-vs-reference property. Shape 0 draws
    // inputs in the unit cube and targets near a linear function.

    /// Every target equal, as for a bank without body bias, whose
    /// `Vbb` role is always 0.
    const CONSTANT_TARGETS: usize = 1;
    /// Inputs that are often `+0.0` or `-0.0`.
    const SIGNED_ZEROS: usize = 2;
    /// Inputs far outside the unit cube, where most rule weights
    /// underflow to exactly 0 during the fit.
    const OUT_OF_CUBE: usize = 3;
    /// A learning rate large enough to pin sigmas at `SIGMA_FLOOR`.
    const FLOOR: usize = 4;

    fn examples(shape: usize, inputs: usize, rows: usize, seed: u64) -> Vec<(Vec<f64>, f64)> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x6b65_726e_656c);
        let constant = rng.gen_range(-2.0..2.0);
        (0..rows)
            .map(|_| {
                let x: Vec<f64> = (0..inputs)
                    .map(|_| match shape {
                        SIGNED_ZEROS => match rng.gen_range(0usize..3) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(0.0..1.0),
                        },
                        OUT_OF_CUBE => rng.gen_range(-20.0..20.0),
                        _ => rng.gen_range(0.0..1.0),
                    })
                    .collect();
                let t = match shape {
                    CONSTANT_TARGETS => constant,
                    FLOOR => rng.gen_range(-100.0..100.0),
                    _ => {
                        x.iter()
                            .enumerate()
                            .map(|(j, v)| (j + 1) as f64 * v)
                            .sum::<f64>()
                            + rng.gen_range(-0.1..0.1)
                    }
                };
                (x, t)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The fit kernel and the per-example loop it replaced produce
        /// the same `mu`, `sigma` and `y` bits, and the forward pass
        /// answers the trained controller's queries, far ones included,
        /// with the reference pass's bits.
        #[test]
        fn prop_fuzzy_kernel_matches_the_reference_loop_bit_for_bit(
            inputs in 1usize..7,
            rules in 1usize..31,
            extra in 0usize..271,
            epochs in 0usize..7,
            shape in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            // Row counts from the rule count up to 300.
            let rows = rules + extra % (301 - rules);
            let ex = examples(shape, inputs, rows, seed);
            let config = TrainingConfig {
                rules,
                learning_rate: if shape == FLOOR { 40.0 } else { 0.04 },
                epochs,
            };
            let fc = FuzzyController::train(&ex, &config, seed).expect("trains");
            let reference = fuzzy_fit_reference(&ex, &config, seed);
            prop_assert_eq!(first_difference(&fc, &reference), None);
            for q in [0.5, -0.0, 60.0, -1e3] {
                assert_infer_matches_reference(&fc, &vec![q; inputs]);
            }
            assert_infer_matches_reference(&fc, &ex[seed as usize % rows].0);
        }
    }

    /// The edge cases the property draws do occur: the floor shape pins
    /// sigmas at `SIGMA_FLOOR`, and far queries give rule weights of
    /// exactly 0, with the kernel still equal to the reference.
    #[test]
    fn the_property_reaches_floor_sigmas_and_zero_weights() {
        let ex = examples(FLOOR, 3, 120, 11);
        let config = TrainingConfig {
            rules: 25,
            learning_rate: 40.0,
            epochs: 3,
        };
        let fc = FuzzyController::train(&ex, &config, 11).expect("trains");
        assert_eq!(
            first_difference(&fc, &fuzzy_fit_reference(&ex, &config, 11)),
            None
        );
        assert!(fc.sigma.contains(&FuzzyController::SIGMA_FLOOR));

        let ex = examples(OUT_OF_CUBE, 2, 80, 12);
        let config = TrainingConfig::micro08();
        let fc = FuzzyController::train(&ex, &config, 12).expect("trains");
        assert_eq!(
            first_difference(&fc, &fuzzy_fit_reference(&ex, &config, 12)),
            None
        );
        let far = [60.0, 60.0];
        let (_, w) = fc.infer_with_strengths(&far);
        assert!(w.contains(&0.0), "{w:?}");
        assert_infer_matches_reference(&fc, &far);
    }
}
