//! The forward pass (Equations 10–12) and the fit kernel (Equation 13).
//!
//! [`forward`] is the one implementation of deployment: every inference
//! ([`FuzzyController::infer`](crate::FuzzyController::infer),
//! `infer_with_strengths`, `rms_error`) and every training step runs it.
//! It reads the rule matrices through a [`RuleView`], so it serves both
//! the controller's row-major matrices and the fit's input-major copies.
//!
//! [`fit_pass`] is one epoch of stochastic gradient descent over the
//! examples in a given order. It works on input-major copies of `mu` and
//! `sigma`: column `j` holds input `j`'s parameter of every rule, `rules`
//! values in a row, so the rules are the SIMD lanes of both its loops.
//! SGD is sequential over examples, so the lanes cannot be the examples.
//!
//! The kernel keeps every floating-point operation of the per-example
//! update and its order, so a fit is bit-identical to that loop (kept as
//! `fuzzy_fit_reference` in the tests):
//!
//! - a rule's log strength starts at `0.0` and subtracts `d * d` input by
//!   input; walking the inputs in the outer loop leaves each rule's own
//!   chain of subtractions as it was;
//! - `max` is folded in rule order, `exp` is the scalar call per rule,
//!   and both sums are `Iterator::sum` in rule order;
//! - `y[i]` is stepped before `spread = y[i] - d`;
//! - `g_mu = common * spread * 2.0 * dx / (s * s)` and
//!   `g_sg = g_mu * dx / s` stay divisions (no reciprocal, no `mul_add`),
//!   and the sigma step is clamped at
//!   [`SIGMA_FLOOR`](crate::FuzzyController::SIGMA_FLOOR) as before.
//!
//! Swapping the update's loops (inputs outside, rules inside) is exact
//! because rule `i`'s step reads only rule `i`'s parameters and the
//! example's output `d` and error, which are fixed before any step.
//
// lint:hot-path — the fit runs once per example per epoch; the
// no-alloc-in-check rule forbids Vec construction outside tests here.
// The caller allocates every buffer once per fit.

use crate::controller::FuzzyController;

/// Read access to `rules x inputs` membership matrices: entry `(i, j)`
/// of `mu` and `sigma` sits at `i * rule_stride + j * input_stride`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RuleView<'a> {
    /// Membership centers.
    pub mu: &'a [f64],
    /// Membership widths.
    pub sigma: &'a [f64],
    /// Rule outputs; their count is the rule count.
    pub y: &'a [f64],
    /// Distance between rules `i` and `i + 1` of one input.
    pub rule_stride: usize,
    /// Distance between inputs `j` and `j + 1` of one rule.
    pub input_stride: usize,
}

impl<'a> RuleView<'a> {
    /// Row-major matrices (the controller's layout): rule `i` is
    /// `inputs` contiguous values.
    pub fn row_major(mu: &'a [f64], sigma: &'a [f64], y: &'a [f64], inputs: usize) -> Self {
        Self {
            mu,
            sigma,
            y,
            rule_stride: inputs,
            input_stride: 1,
        }
    }

    /// Input-major matrices (the fit's layout): input `j` is `rules`
    /// contiguous values.
    pub fn input_major(mu: &'a [f64], sigma: &'a [f64], y: &'a [f64]) -> Self {
        Self {
            mu,
            sigma,
            y,
            rule_stride: 1,
            input_stride: y.len(),
        }
    }
}

/// Equations 10–12 for input `x`: leaves the normalized rule weights in
/// `w` (one per rule) and returns the weighted-average output.
///
/// Strengths are taken in log space, shifted by their maximum before
/// `exp`, so a query far from every rule center degrades to the nearest
/// rules instead of dividing zero by zero; weights that underflow are
/// exactly `0.0`.
pub(crate) fn forward<'a>(v: RuleView<'a>, x: &[f64], w: &mut [f64]) -> f64 {
    w.fill(0.0);
    for (j, &xj) in x.iter().enumerate() {
        let at = j * v.input_stride;
        if v.rule_stride == 1 {
            let rules = w.len();
            subtract_squared_distances(w, xj, &v.mu[at..at + rules], &v.sigma[at..at + rules]);
        } else {
            let column = |m: &'a [f64]| m[at..].iter().step_by(v.rule_stride);
            subtract_squared_distances(w, xj, column(v.mu), column(v.sigma));
        }
    }
    let max = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for wi in w.iter_mut() {
        *wi = (*wi - max).exp();
    }
    let sum: f64 = w.iter().sum();
    for wi in w.iter_mut() {
        *wi /= sum;
    }
    w.iter().zip(v.y).map(|(w, y)| w * y).sum()
}

/// Equations 10–11 in log space for one input: subtracts each rule's
/// squared normalized distance `((x_j - mu_ij) / sigma_ij)^2` from its
/// log strength. `mu` and `sigma` yield column `j` in rule order; a
/// contiguous column is one the compiler vectorizes across rules.
fn subtract_squared_distances<'a>(
    w: &mut [f64],
    xj: f64,
    mu: impl IntoIterator<Item = &'a f64>,
    sigma: impl IntoIterator<Item = &'a f64>,
) {
    for ((wi, &m), &s) in w.iter_mut().zip(mu).zip(sigma) {
        let d = (xj - m) / s;
        *wi -= d * d;
    }
}

/// Copies the `rows x cols` row-major matrix `src` into `dst` as its
/// `cols x rows` transpose.
pub(crate) fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    for (r, row) in src.chunks_exact(cols).take(rows).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// One epoch of Equation 13: a stochastic-gradient step toward each
/// example `examples[k]`, `k` taken from `order` in turn.
///
/// `mu` and `sigma` are input-major (`inputs x rules`), `y` holds one
/// output per rule, and `scratch` is `3 * rules` values the kernel
/// overwrites (the weights, and each rule's `common` and `spread`
/// factors). Every example must have `mu.len() / y.len()` inputs.
pub(crate) fn fit_pass(
    mu: &mut [f64],
    sigma: &mut [f64],
    y: &mut [f64],
    scratch: &mut [f64],
    examples: &[(Vec<f64>, f64)],
    order: &[usize],
    learning_rate: f64,
) {
    let rules = y.len();
    let (w, rest) = scratch.split_at_mut(rules);
    let (common, spread) = rest.split_at_mut(rules);
    let spread = &mut spread[..rules];
    for &k in order {
        let (x, t) = &examples[k];
        let d = forward(RuleView::input_major(mu, sigma, y), x, w);
        let err = d - t;
        for (((yi, &wi), c), s) in y
            .iter_mut()
            .zip(w.iter())
            .zip(common.iter_mut())
            .zip(spread.iter_mut())
        {
            // dE/dy_i = 2 (d - t) * W_i / S
            *c = 2.0 * err * wi;
            *yi -= learning_rate * *c;
            *s = *yi - d;
        }
        for ((&xj, mu), sigma) in x
            .iter()
            .zip(mu.chunks_exact_mut(rules))
            .zip(sigma.chunks_exact_mut(rules))
        {
            for (((m, sg), &c), &s) in mu
                .iter_mut()
                .zip(sigma.iter_mut())
                .zip(common.iter())
                .zip(spread.iter())
            {
                let dx = xj - *m;
                // dE/dmu = 2 (d-t) (y_i - d)/S * W_i * 2 dx / sigma^2
                let g_mu = c * s * 2.0 * dx / (*sg * *sg);
                // dE/dsigma = same * dx / sigma (extra factor dx/sigma)
                let g_sg = g_mu * dx / *sg;
                *m -= learning_rate * g_mu;
                *sg = (*sg - learning_rate * g_sg).max(FuzzyController::SIGMA_FLOOR);
            }
        }
    }
}
