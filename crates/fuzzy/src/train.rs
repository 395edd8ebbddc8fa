//! Training phase (Appendix A of the paper).

use std::fmt;

use eval_rng::ChaCha12Rng;

use crate::controller::FuzzyController;

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
        let mut fc = FuzzyController::from_parts(inputs, mu, sigma, y);

        // Gradient passes in a shuffled order.
        let mut order: Vec<usize> = (0..examples.len()).collect();
        for _ in 0..config.epochs {
            // Fisher-Yates with the deterministic stream.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &k in &order {
                let (x, t) = &examples[k];
                fc.update(x, *t, config.learning_rate);
            }
        }
        Ok(fc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let untrained = FuzzyController::train(
            &ex,
            &TrainingConfig {
                epochs: 0,
                ..cfg
            },
            3,
        )
        .unwrap();
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
        assert!(matches!(err, TrainError::NotEnoughExamples { got: 10, need: 25 }));
    }

    #[test]
    fn inconsistent_dimensions_are_an_error() {
        let mut ex = vec![(vec![0.0, 0.0], 0.0); 30];
        ex[7] = (vec![0.0], 0.0);
        let err = FuzzyController::train(&ex, &TrainingConfig::micro08(), 0).unwrap_err();
        assert_eq!(err, TrainError::DimensionMismatch);
    }
}
