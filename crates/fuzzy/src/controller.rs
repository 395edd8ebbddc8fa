//! The fuzzy-controller data structure and its deployment phase.

use std::cell::RefCell;

use crate::kernel::{self, RuleView};

thread_local! {
    /// The rule weights [`FuzzyController::infer`] works in, one buffer
    /// per thread. It grows to the largest controller the thread has
    /// queried and is then reused, so a query allocates nothing.
    static WEIGHTS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

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
    /// Rule outputs.
    pub(crate) y: Vec<f64>,
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
        assert_eq!(
            sigma.len(),
            y.len() * inputs,
            "sigma must be rules x inputs"
        );
        assert!(sigma.iter().all(|&s| s > 0.0), "sigmas must be positive");
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

    /// The controller's matrices as the forward pass reads them.
    fn view(&self) -> RuleView<'_> {
        RuleView::row_major(&self.mu, &self.sigma, &self.y, self.inputs)
    }

    /// Estimates the output for input vector `x` (the deployment phase).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.inputs()`.
    pub fn infer(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        let rules = self.rules();
        WEIGHTS.with_borrow_mut(|w| {
            if w.len() < rules {
                w.resize(rules, 0.0);
            }
            kernel::forward(self.view(), x, &mut w[..rules])
        })
    }

    /// Like [`FuzzyController::infer`] but also returns the normalized rule
    /// weights (useful for introspection).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.inputs()`.
    pub fn infer_with_strengths(&self, x: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        let mut weights = vec![0.0; self.rules()];
        let z = kernel::forward(self.view(), x, &mut weights);
        (z, weights)
    }

    /// Root-mean-square inference error over a labeled set.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or an input has the wrong length.
    pub fn rms_error(&self, examples: &[(Vec<f64>, f64)]) -> f64 {
        assert!(!examples.is_empty(), "need at least one example");
        let mut weights = vec![0.0; self.rules()];
        let sse: f64 = examples
            .iter()
            .map(|(x, t)| {
                assert_eq!(x.len(), self.inputs, "input dimension mismatch");
                let d = kernel::forward(self.view(), x, &mut weights) - t;
                d * d
            })
            .sum();
        (sse / examples.len() as f64).sqrt()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The per-example deployment pass the fit kernel replaced: one
    /// rule at a time in row-major order, collecting the log strengths
    /// and the weights into fresh vectors.
    fn reference_infer_with_strengths(fc: &FuzzyController, x: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(x.len(), fc.inputs, "input dimension mismatch");
        let logs: Vec<f64> = (0..fc.rules())
            .map(|i| {
                let base = i * fc.inputs;
                let mut acc = 0.0;
                for (j, &xj) in x.iter().enumerate().take(fc.inputs) {
                    let d = (xj - fc.mu[base + j]) / fc.sigma[base + j];
                    acc -= d * d;
                }
                acc
            })
            .collect();
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut weights: Vec<f64> = logs.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= sum;
        }
        let z = weights.iter().zip(fc.y.iter()).map(|(w, y)| w * y).sum();
        (z, weights)
    }

    /// The per-example stochastic-gradient update the fit kernel
    /// replaced (Equation 13 with the gradients of the weighted-average
    /// model), kept as the kernel's reference. Returns the pre-update
    /// squared error.
    pub(crate) fn reference_update(
        fc: &mut FuzzyController,
        x: &[f64],
        t: f64,
        learning_rate: f64,
    ) -> f64 {
        let (d, w) = reference_infer_with_strengths(fc, x);
        let err = d - t;
        for (i, &wi) in w.iter().enumerate().take(fc.rules()) {
            let base = i * fc.inputs;
            let common = 2.0 * err * wi;
            // dE/dy_i = 2 (d - t) * W_i / S
            fc.y[i] -= learning_rate * common;
            let spread = fc.y[i] - d;
            for (j, &xj) in x.iter().enumerate().take(fc.inputs) {
                let mu = fc.mu[base + j];
                let sg = fc.sigma[base + j];
                let dx = xj - mu;
                // dE/dmu = 2 (d-t) (y_i - d)/S * W_i * 2 dx / sigma^2
                let g_mu = common * spread * 2.0 * dx / (sg * sg);
                // dE/dsigma = same * dx / sigma (extra factor dx/sigma)
                let g_sg = g_mu * dx / sg;
                fc.mu[base + j] -= learning_rate * g_mu;
                fc.sigma[base + j] = (sg - learning_rate * g_sg).max(FuzzyController::SIGMA_FLOOR);
            }
        }
        err * err
    }

    /// The reference pass's output, bit for bit, equals the kernel's
    /// forward pass on the row-major controller.
    pub(crate) fn assert_infer_matches_reference(fc: &FuzzyController, x: &[f64]) {
        let (z, w) = fc.infer_with_strengths(x);
        let (z_ref, w_ref) = reference_infer_with_strengths(fc, x);
        assert_eq!(z.to_bits(), z_ref.to_bits(), "output at {x:?}");
        assert_eq!(fc.infer(x).to_bits(), z_ref.to_bits(), "infer at {x:?}");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w), bits(&w_ref), "weights at {x:?}");
    }

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
        let fc = FuzzyController::from_parts(1, vec![0.0, 1.0], vec![0.3, 0.3], vec![0.0, 10.0]);
        let mid = fc.infer(&[0.5]);
        assert!((mid - 5.0).abs() < 1e-9, "midpoint = {mid}");
        assert!(fc.infer(&[0.1]) < 2.0);
        assert!(fc.infer(&[0.9]) > 8.0);
    }

    #[test]
    fn far_query_snaps_to_nearest_rule() {
        let fc = FuzzyController::from_parts(1, vec![0.0, 1.0], vec![0.05, 0.05], vec![-1.0, 1.0]);
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
        let first = reference_update(&mut fc, &x, 4.0, 0.04);
        for _ in 0..200 {
            reference_update(&mut fc, &x, 4.0, 0.04);
        }
        let last = (fc.infer(&x) - 4.0).powi(2);
        assert!(last < first * 0.01, "first {first}, last {last}");
    }

    #[test]
    fn sigma_never_collapses() {
        let mut fc = single_rule(0.5, 0.0);
        for _ in 0..10_000 {
            reference_update(&mut fc, &[0.500001], 100.0, 0.5);
        }
        // All sigmas still at or above the floor.
        assert!(fc.sigma.iter().all(|&s| s >= FuzzyController::SIGMA_FLOOR));

        // The fit kernel keeps the floor too (one rule, one input: the
        // input-major copies are the row-major matrices).
        let mut fc = single_rule(0.5, 0.0);
        let examples = vec![(vec![0.500001], 100.0)];
        let mut scratch = vec![0.0; 3];
        kernel::fit_pass(
            &mut fc.mu,
            &mut fc.sigma,
            &mut fc.y,
            &mut scratch,
            &examples,
            &vec![0; 10_000],
            0.5,
        );
        assert!(fc.sigma.iter().all(|&s| s >= FuzzyController::SIGMA_FLOOR));
    }

    #[test]
    fn infer_reuses_its_buffer_across_controller_sizes_bit_for_bit() {
        // Large, small, large again: the thread's weight buffer grows
        // once, then a smaller controller reads only its own prefix.
        let sized = |rules: usize| {
            let mu: Vec<f64> = (0..2 * rules).map(|k| (k as f64 * 0.37).sin()).collect();
            let y: Vec<f64> = (0..rules).map(|i| i as f64 - 1.5).collect();
            FuzzyController::from_parts(2, mu, vec![0.4; 2 * rules], y)
        };
        for rules in [25, 3, 25, 1, 40, 7] {
            let fc = sized(rules);
            for x in [[0.1, -0.4], [0.9, 0.2], [-3.0, 5.0]] {
                assert_infer_matches_reference(&fc, &x);
            }
        }
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
