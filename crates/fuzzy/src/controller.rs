//! The fuzzy-controller data structure and its deployment phase.

/// A trained fuzzy controller: `rules x inputs` Gaussian membership
/// parameters plus one output per rule (Figure 5(a) of the paper).
///
/// Deployment implements Equations 10–12:
///
/// ```text
/// W_ij = exp(-((x_j - mu_ij)/sigma_ij)^2)        (membership)
/// W_i  = prod_j W_ij                             (rule firing strength)
/// z    = sum_i W_i y_i / sum_i W_i               (weighted average)
/// ```
///
/// Inference is performed in log space so that queries far from every rule
/// center degrade gracefully to nearest-rule behaviour instead of dividing
/// zero by zero.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyController {
    inputs: usize,
    /// Row-major `rules × inputs` membership centers.
    pub(crate) mu: Vec<f64>,
    /// Row-major `rules × inputs` membership widths.
    pub(crate) sigma: Vec<f64>,
    y: Vec<f64>,
}

impl FuzzyController {
    /// Minimum sigma kept after training updates (avoids degenerate spikes).
    pub const SIGMA_FLOOR: f64 = 1e-3;

    /// Assembles a controller from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent, `inputs` is zero, there
    /// are no rules, or any sigma is not positive.
    pub fn from_parts(inputs: usize, mu: Vec<f64>, sigma: Vec<f64>, y: Vec<f64>) -> Self {
        assert!(inputs > 0, "controller needs at least one input");
        assert!(!y.is_empty(), "controller needs at least one rule");
        assert_eq!(mu.len(), y.len() * inputs, "mu must be rules x inputs");
        assert_eq!(sigma.len(), y.len() * inputs, "sigma must be rules x inputs");
        assert!(
            sigma.iter().all(|&s| s > 0.0),
            "sigmas must be positive"
        );
        Self {
            inputs,
            mu,
            sigma,
            y,
        }
    }

    /// Number of rules.
    pub fn rules(&self) -> usize {
        self.y.len()
    }

    /// Number of inputs per rule.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Rule outputs.
    pub fn outputs(&self) -> &[f64] {
        &self.y
    }

    /// Membership center of rule `i`, input `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn mu_at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rules() && j < self.inputs, "rule/input out of range");
        self.mu[i * self.inputs + j]
    }

    /// Membership width of rule `i`, input `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn sigma_at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rules() && j < self.inputs, "rule/input out of range");
        self.sigma[i * self.inputs + j]
    }

    /// Log firing strength of rule `i` on input `x` (sum of squared
    /// normalized distances, negated).
    fn log_strength(&self, i: usize, x: &[f64]) -> f64 {
        let base = i * self.inputs;
        let mut acc = 0.0;
        for (j, &xj) in x.iter().enumerate().take(self.inputs) {
            let d = (xj - self.mu[base + j]) / self.sigma[base + j];
            acc -= d * d;
        }
        acc
    }

    /// Estimates the output for input vector `x` (the deployment phase).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.inputs()`.
    pub fn infer(&self, x: &[f64]) -> f64 {
        let (z, _) = self.infer_with_strengths(x);
        z
    }

    /// Like [`FuzzyController::infer`] but also returns the normalized rule
    /// weights (useful for training and introspection).
    pub fn infer_with_strengths(&self, x: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        let logs: Vec<f64> = (0..self.rules())
            .map(|i| self.log_strength(i, x))
            .collect();
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut weights: Vec<f64> = logs.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= sum;
        }
        let z = weights
            .iter()
            .zip(self.y.iter())
            .map(|(w, y)| w * y)
            .sum();
        (z, weights)
    }

    /// One stochastic-gradient update toward target `t` for input `x`
    /// (Equation 13 with the gradients of the weighted-average model).
    /// Returns the pre-update squared error.
    pub fn update(&mut self, x: &[f64], t: f64, learning_rate: f64) -> f64 {
        let (d, w) = self.infer_with_strengths(x);
        let err = d - t;
        for (i, &wi) in w.iter().enumerate().take(self.rules()) {
            let base = i * self.inputs;
            let common = 2.0 * err * wi;
            // dE/dy_i = 2 (d - t) * W_i / S
            self.y[i] -= learning_rate * common;
            let spread = self.y[i] - d;
            for (j, &xj) in x.iter().enumerate().take(self.inputs) {
                let mu = self.mu[base + j];
                let sg = self.sigma[base + j];
                let dx = xj - mu;
                // dE/dmu = 2 (d-t) (y_i - d)/S * W_i * 2 dx / sigma^2
                let g_mu = common * spread * 2.0 * dx / (sg * sg);
                // dE/dsigma = same * dx / sigma (extra factor dx/sigma)
                let g_sg = g_mu * dx / sg;
                self.mu[base + j] -= learning_rate * g_mu;
                self.sigma[base + j] =
                    (sg - learning_rate * g_sg).max(Self::SIGMA_FLOOR);
            }
        }
        err * err
    }

    /// Root-mean-square inference error over a labeled set.
    pub fn rms_error(&self, examples: &[(Vec<f64>, f64)]) -> f64 {
        assert!(!examples.is_empty(), "need at least one example");
        let sse: f64 = examples
            .iter()
            .map(|(x, t)| {
                let d = self.infer(x) - t;
                d * d
            })
            .sum();
        (sse / examples.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_rule(mu: f64, y: f64) -> FuzzyController {
        FuzzyController::from_parts(1, vec![mu], vec![0.5], vec![y])
    }

    #[test]
    fn one_rule_always_answers_its_output() {
        let fc = single_rule(0.3, 7.5);
        assert!((fc.infer(&[0.3]) - 7.5).abs() < 1e-12);
        assert!((fc.infer(&[100.0]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn two_rules_interpolate() {
        let fc = FuzzyController::from_parts(
            1,
            vec![0.0, 1.0],
            vec![0.3, 0.3],
            vec![0.0, 10.0],
        );
        let mid = fc.infer(&[0.5]);
        assert!((mid - 5.0).abs() < 1e-9, "midpoint = {mid}");
        assert!(fc.infer(&[0.1]) < 2.0);
        assert!(fc.infer(&[0.9]) > 8.0);
    }

    #[test]
    fn far_query_snaps_to_nearest_rule() {
        let fc = FuzzyController::from_parts(
            1,
            vec![0.0, 1.0],
            vec![0.05, 0.05],
            vec![-1.0, 1.0],
        );
        // 50 sigmas away from both centers: log-space evaluation must not NaN.
        let z = fc.infer(&[3.5]);
        assert!(z.is_finite());
        assert!((z - 1.0).abs() < 1e-6, "nearest rule should dominate: {z}");
    }

    #[test]
    fn update_reduces_error_on_repeated_presentation() {
        let mut fc = FuzzyController::from_parts(
            2,
            vec![0.2, 0.2, 0.8, 0.8],
            vec![0.2, 0.2, 0.2, 0.2],
            vec![0.0, 0.0],
        );
        let x = vec![0.5, 0.5];
        let first = fc.update(&x, 4.0, 0.04);
        for _ in 0..200 {
            fc.update(&x, 4.0, 0.04);
        }
        let last = (fc.infer(&x) - 4.0).powi(2);
        assert!(last < first * 0.01, "first {first}, last {last}");
    }

    #[test]
    fn sigma_never_collapses() {
        let mut fc = single_rule(0.5, 0.0);
        for _ in 0..10_000 {
            fc.update(&[0.500001], 100.0, 0.5);
        }
        // All sigmas still at or above the floor.
        assert!(fc.sigma.iter().all(|&s| s >= FuzzyController::SIGMA_FLOOR));
    }

    #[test]
    #[should_panic(expected = "rules x inputs")]
    fn dimension_mismatch_is_rejected() {
        FuzzyController::from_parts(2, vec![0.0; 3], vec![1.0; 4], vec![0.0; 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Inference is always finite and within the convex hull of the
        /// rule outputs (a weighted average cannot extrapolate).
        #[test]
        fn prop_inference_is_bounded_by_rule_outputs(
            mu in proptest::collection::vec(-2.0f64..2.0, 6),
            sigma in proptest::collection::vec(0.01f64..1.0, 6),
            y in proptest::collection::vec(-10.0f64..10.0, 3),
            x in proptest::collection::vec(-5.0f64..5.0, 2),
        ) {
            let fc = FuzzyController::from_parts(2, mu, sigma, y.clone());
            let z = fc.infer(&x);
            prop_assert!(z.is_finite());
            let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(z >= lo - 1e-9 && z <= hi + 1e-9, "{z} outside [{lo}, {hi}]");
        }

        /// Normalized rule weights sum to one.
        #[test]
        fn prop_weights_are_a_distribution(
            mu in proptest::collection::vec(-1.0f64..1.0, 8),
            x in proptest::collection::vec(-3.0f64..3.0, 2),
        ) {
            let fc = FuzzyController::from_parts(
                2, mu, vec![0.3; 8], vec![0.0, 1.0, 2.0, 3.0],
            );
            let (_, w) = fc.infer_with_strengths(&x);
            let sum: f64 = w.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|&wi| (0.0..=1.0 + 1e-12).contains(&wi)));
        }
    }
}
