//! Input/output normalization for fuzzy training.
//!
//! The controller's Gaussian memberships are initialized with sigmas below
//! 0.1, which presumes inputs on a unit-ish scale. Raw EVAL inputs span
//! wildly different units (Celsius, C/W, watts, volts), so both sides are
//! mapped to `[0, 1]` before training and inference.

/// An affine `[min, max] -> [0, 1]` mapper for input vectors (plus the
/// scalar output).
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
    out_min: f64,
    out_max: f64,
}

impl Normalizer {
    /// Fits the ranges of a labeled example set.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or dimensions are inconsistent.
    pub fn fit(examples: &[(Vec<f64>, f64)]) -> Self {
        assert!(!examples.is_empty(), "cannot fit an empty example set");
        let dim = examples[0].0.len();
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        let mut out_min = f64::INFINITY;
        let mut out_max = f64::NEG_INFINITY;
        for (x, t) in examples {
            assert_eq!(x.len(), dim, "inconsistent example dimensions");
            for (j, &v) in x.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
            out_min = out_min.min(*t);
            out_max = out_max.max(*t);
        }
        Self {
            mins,
            maxs,
            out_min,
            out_max,
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Maps an input vector into the unit cube, writing it to `out`
    /// (constant dimensions map to 0.5). Values outside the fitted range
    /// extrapolate linearly.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differs from `self.dim()`.
    pub fn normalize_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "input dimension mismatch");
        assert_eq!(out.len(), self.dim(), "output dimension mismatch");
        for (j, (o, &v)) in out.iter_mut().zip(x).enumerate() {
            let span = self.maxs[j] - self.mins[j];
            *o = if span <= 0.0 {
                0.5
            } else {
                (v - self.mins[j]) / span
            };
        }
    }

    /// Maps a raw output into `[0, 1]`.
    pub fn normalize_output(&self, t: f64) -> f64 {
        let span = self.out_max - self.out_min;
        if span <= 0.0 {
            0.5
        } else {
            (t - self.out_min) / span
        }
    }

    /// Inverse of [`Normalizer::normalize_output`].
    pub fn denormalize_output(&self, z: f64) -> f64 {
        let span = self.out_max - self.out_min;
        if span <= 0.0 {
            self.out_min
        } else {
            self.out_min + z * span
        }
    }

    /// Applies normalization to a whole example set.
    pub fn apply(&self, examples: &[(Vec<f64>, f64)]) -> Vec<(Vec<f64>, f64)> {
        examples
            .iter()
            .map(|(x, t)| {
                let mut normalized = vec![0.0; x.len()];
                self.normalize_into(x, &mut normalized);
                (normalized, self.normalize_output(*t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<(Vec<f64>, f64)> {
        vec![
            (vec![50.0, 0.001], 2.4),
            (vec![70.0, 0.009], 5.6),
            (vec![60.0, 0.004], 4.0),
        ]
    }

    fn normalize(n: &Normalizer, x: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::NAN; x.len()];
        n.normalize_into(x, &mut out);
        out
    }

    #[test]
    fn normalization_maps_extremes_to_unit_interval() {
        let n = Normalizer::fit(&examples());
        assert_eq!(normalize(&n, &[50.0, 0.001]), vec![0.0, 0.0]);
        assert_eq!(normalize(&n, &[70.0, 0.009]), vec![1.0, 1.0]);
        assert_eq!(n.normalize_output(2.4), 0.0);
        assert_eq!(n.normalize_output(5.6), 1.0);
    }

    #[test]
    fn output_roundtrips() {
        let n = Normalizer::fit(&examples());
        for t in [2.4, 3.3, 5.6] {
            let back = n.denormalize_output(n.normalize_output(t));
            assert!((back - t).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_dimension_maps_to_half() {
        let ex = vec![(vec![3.0, 1.0], 0.0), (vec![3.0, 2.0], 1.0)];
        let n = Normalizer::fit(&ex);
        assert_eq!(normalize(&n, &[3.0, 1.5])[0], 0.5);
    }

    #[test]
    fn apply_normalizes_everything() {
        let n = Normalizer::fit(&examples());
        let out = n.apply(&examples());
        for (x, t) in out {
            assert!(x.iter().all(|v| (-1e-9..=1.0 + 1e-9).contains(v)));
            assert!((-1e-9..=1.0 + 1e-9).contains(&t));
        }
    }
}
