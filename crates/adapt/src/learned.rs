//! Trained per-phase controllers: one bank type and one optimizer type
//! for every model family fitted against the exhaustive teacher.
//!
//! Four model families implement [`PhaseModel`]:
//!
//! * [`FuzzyController`](eval_fuzzy::FuzzyController) — the paper's
//!   controller (fitted in [`crate::fuzzy_ctl`], since its fit needs a
//!   [`TrainingConfig`](eval_fuzzy::TrainingConfig));
//! * [`NnTable`] — a nearest-neighbor table over the normalized teacher
//!   examples (no training beyond memorization; inference is a scan);
//! * [`RegressionTree`] — a small greedy variance-reduction tree
//!   (branchy integer-comparison inference, no floating multiply);
//! * [`MlpQ16`] — a one-hidden-layer perceptron trained in `f64` and
//!   quantized to `i32` Q16.16 fixed point, so deployed inference is
//!   integer-only and bitwise reproducible on any host.
//!
//! The last three also implement [`Trainable`] (fit from examples and a
//! seed alone). A [`LearnedBank`] pairs each of a (subsystem, variant)'s
//! three models with the [`Normalizer`] it was trained under, and
//! [`LearnedOptimizer`] assembles banks into a deployable [`Optimizer`].
//! Every family is trained in the process that deploys it, so no model
//! has a stored form.

use eval_core::{Environment, EvalConfig, FREQ_LADDER, VBB_LADDER, VDD_LADDER};
use eval_fuzzy::Normalizer;
use eval_rng::ChaCha12Rng;

use crate::optimizer::{Optimizer, SubsystemScene};
use crate::teacher::{self, TeacherExamples};

/// A regression model over normalized inputs.
/// Models map the unit cube to a normalized output in `[0, 1]`-ish
/// range; the surrounding [`LearnedBank`] owns denormalization.
pub trait PhaseModel: std::fmt::Debug + Clone + PartialEq + Send + Sync {
    /// Predicts the normalized output for a normalized input.
    fn infer_norm(&self, x: &[f64]) -> f64;
}

/// A [`PhaseModel`] that fits from normalized examples and a seed
/// alone. (The fuzzy controller also needs a
/// [`TrainingConfig`](eval_fuzzy::TrainingConfig), so it is fitted
/// through [`crate::FuzzyOptimizer::train`] instead.)
pub trait Trainable: PhaseModel {
    /// Fits the model to normalized `(input, target)` examples.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or dimensions are inconsistent.
    fn train(examples: &[(Vec<f64>, f64)], seed: u64) -> Self;
}

// ---------------------------------------------------------------------
// Nearest-neighbor table
// ---------------------------------------------------------------------

/// The teacher's examples, memorized: inference returns the target of
/// the closest stored input by squared Euclidean distance (ties go to
/// the lowest row index, so inference is fully deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct NnTable {
    dim: usize,
    /// Row-major `rows × dim` inputs.
    points: Vec<f64>,
    outputs: Vec<f64>,
}

impl Trainable for NnTable {
    fn train(examples: &[(Vec<f64>, f64)], _seed: u64) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let dim = examples[0].0.len();
        let mut points = Vec::with_capacity(examples.len() * dim);
        let mut outputs = Vec::with_capacity(examples.len());
        for (x, t) in examples {
            assert_eq!(x.len(), dim, "inconsistent example dimensions");
            points.extend_from_slice(x);
            outputs.push(*t);
        }
        Self { dim, points, outputs }
    }
}

impl PhaseModel for NnTable {
    fn infer_norm(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut best = f64::INFINITY;
        let mut best_row = 0;
        for (row, p) in self.points.chunks_exact(self.dim).enumerate() {
            let d2: f64 = p.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
            if d2 < best {
                best = d2;
                best_row = row;
            }
        }
        self.outputs[best_row]
    }
}

// ---------------------------------------------------------------------
// Regression tree
// ---------------------------------------------------------------------

/// One node of a [`RegressionTree`], stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    /// `x[feature] <= threshold` goes left, else right.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A small greedy regression tree: splits minimize the summed squared
/// error of the two children, features scanned in index order and
/// strict improvement required, so construction is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    dim: usize,
    nodes: Vec<TreeNode>,
}

const TREE_MAX_DEPTH: usize = 6;
const TREE_MIN_LEAF: usize = 4;

impl RegressionTree {
    fn grow(
        nodes: &mut Vec<TreeNode>,
        examples: &[(Vec<f64>, f64)],
        indices: &[usize],
        depth: usize,
    ) -> usize {
        let n = indices.len();
        let mean = indices.iter().map(|&i| examples[i].1).sum::<f64>() / n as f64;
        if depth >= TREE_MAX_DEPTH || n < 2 * TREE_MIN_LEAF {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        }
        let dim = examples[0].0.len();
        let mut best: Option<(f64, usize, f64, usize)> = None; // (sse, feature, threshold, left_count_in_sorted)
        let mut sorted: Vec<usize> = indices.to_vec();
        for feature in 0..dim {
            // Sort by (value, index) so equal feature values order
            // deterministically.
            sorted.sort_by(|&a, &b| {
                examples[a].0[feature]
                    .total_cmp(&examples[b].0[feature])
                    .then(a.cmp(&b))
            });
            let mut sum_l = 0.0f64;
            let mut sumsq_l = 0.0f64;
            let total: f64 = sorted.iter().map(|&i| examples[i].1).sum();
            let totalsq: f64 = sorted.iter().map(|&i| examples[i].1 * examples[i].1).sum();
            for p in 1..n {
                let t = examples[sorted[p - 1]].1;
                sum_l += t;
                sumsq_l += t * t;
                if p < TREE_MIN_LEAF || n - p < TREE_MIN_LEAF {
                    continue;
                }
                let v_lo = examples[sorted[p - 1]].0[feature];
                let v_hi = examples[sorted[p]].0[feature];
                if v_lo >= v_hi {
                    continue; // no strict boundary: threshold would be ambiguous
                }
                let nl = p as f64;
                let nr = (n - p) as f64;
                let sum_r = total - sum_l;
                let sumsq_r = totalsq - sumsq_l;
                let sse = (sumsq_l - sum_l * sum_l / nl) + (sumsq_r - sum_r * sum_r / nr);
                if best.is_none_or(|(b, _, _, _)| sse < b) {
                    best = Some((sse, feature, (v_lo + v_hi) / 2.0, p));
                }
            }
        }
        let Some((_, feature, threshold, _)) = best else {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .copied()
            .partition(|&i| examples[i].0[feature] <= threshold);
        // Reserve the split slot before recursing so node 0 is the root.
        let slot = nodes.len();
        nodes.push(TreeNode::Leaf { value: mean });
        let left = Self::grow(nodes, examples, &left_idx, depth + 1);
        let right = Self::grow(nodes, examples, &right_idx, depth + 1);
        nodes[slot] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }
}

impl Trainable for RegressionTree {
    fn train(examples: &[(Vec<f64>, f64)], _seed: u64) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let dim = examples[0].0.len();
        for (x, _) in examples {
            assert_eq!(x.len(), dim, "inconsistent example dimensions");
        }
        let indices: Vec<usize> = (0..examples.len()).collect();
        let mut nodes = Vec::new();
        Self::grow(&mut nodes, examples, &indices, 0);
        Self { dim, nodes }
    }
}

impl PhaseModel for RegressionTree {
    fn infer_norm(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fixed-point MLP
// ---------------------------------------------------------------------

/// Q16.16 scale factor.
const Q16: f64 = 65536.0;
/// Hidden-layer width.
const MLP_HIDDEN: usize = 8;
const MLP_EPOCHS: usize = 300;
const MLP_LR: f64 = 0.5;

/// A one-hidden-layer ReLU perceptron quantized to `i32` Q16.16.
/// Training runs in `f64` (seeded full-batch gradient descent) and takes
/// 3 or 4 inputs, the widths of a bank's roles; the deployed weights and
/// inference are integer-only, so the same model produces the same bits
/// on every host and thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpQ16 {
    inputs: usize,
    /// Row-major `hidden × inputs` first-layer weights, Q16.16.
    w1: Vec<i32>,
    b1: Vec<i32>,
    w2: Vec<i32>,
    b2: i32,
}

fn quantize(v: f64) -> i32 {
    let q = (v * Q16).round();
    q.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}

impl Trainable for MlpQ16 {
    fn train(examples: &[(Vec<f64>, f64)], seed: u64) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        // The two bank-role widths (`Freq` 3, `Power` 4); any other
        // width fails the 3-input kernel's row check.
        if examples[0].0.len() == 4 {
            fit_mlp::<4>(examples, seed).quantize()
        } else {
            fit_mlp::<3>(examples, seed).quantize()
        }
    }
}

/// One value per hidden unit: the kernel's lane vector.
type Lanes = [f64; MLP_HIDDEN];

/// Trained `f64` weights, before quantization.
struct MlpWeights {
    inputs: usize,
    /// Row-major `hidden × inputs`.
    w1: Vec<f64>,
    b1: Lanes,
    w2: Lanes,
    b2: f64,
}

impl MlpWeights {
    fn quantize(&self) -> MlpQ16 {
        MlpQ16 {
            inputs: self.inputs,
            w1: self.w1.iter().map(|&v| quantize(v)).collect(),
            b1: self.b1.iter().map(|&v| quantize(v)).collect(),
            w2: self.w2.iter().map(|&v| quantize(v)).collect(),
            b2: quantize(self.b2),
        }
    }
}

/// Seeded full-batch gradient descent for `M` inputs, with the hidden
/// units as lanes. Its weights equal, bit for bit, those of the scalar
/// loop in the test module (`mlp_fit_reference`), because each unit
/// sums its inputs in index order from `Iterator::sum`'s neutral
/// element, a ReLU-masked gradient add selects between the product and
/// `-0.0` (adding `-0.0` leaves every value as it is, signed zeros
/// included; adding `0.0` would turn a `-0.0` into `0.0`), nothing fuses
/// a multiply into an add, and the draws run `w1` row-major, then `w2`.
fn fit_mlp<const M: usize>(examples: &[(Vec<f64>, f64)], seed: u64) -> MlpWeights {
    let mut rows: Vec<[f64; M]> = Vec::with_capacity(examples.len());
    let mut targets: Vec<f64> = Vec::with_capacity(examples.len());
    for (x, t) in examples {
        assert_eq!(x.len(), M, "inconsistent example dimensions");
        let mut row = [0.0; M];
        row.copy_from_slice(x);
        rows.push(row);
        targets.push(*t);
    }
    // Where `Iterator::sum` starts (`-0.0`), so a unit's sum of
    // products starts there too.
    let zero: f64 = std::iter::empty::<f64>().sum();

    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    // Transposed: `w1[j][i]` weighs input `j` into unit `i`.
    let mut w1 = [[0.0f64; MLP_HIDDEN]; M];
    for i in 0..MLP_HIDDEN {
        for col in &mut w1 {
            col[i] = rng.gen_range(-0.5..0.5);
        }
    }
    let mut b1: Lanes = [0.0; MLP_HIDDEN];
    let mut w2: Lanes = [0.0; MLP_HIDDEN];
    for w in &mut w2 {
        *w = rng.gen_range(-0.5..0.5);
    }
    let mut b2 = targets.iter().sum::<f64>() / targets.len() as f64;

    let step = MLP_LR * (1.0 / targets.len() as f64);
    // Each example's hidden activations and output error. The weights
    // are fixed within an epoch, so the forward pass has no dependency
    // from one example to the next; the backward pass then accumulates
    // the gradients in example order.
    let mut forward: Vec<(Lanes, f64)> = vec![([0.0; MLP_HIDDEN], 0.0); rows.len()];
    for _ in 0..MLP_EPOCHS {
        for ((x, &t), (hidden, err)) in rows.iter().zip(&targets).zip(&mut forward) {
            let mut z: Lanes = [zero; MLP_HIDDEN];
            for (col, &v) in w1.iter().zip(x) {
                for (z, &w) in z.iter_mut().zip(col) {
                    *z += w * v;
                }
            }
            for ((h, &z), &b) in hidden.iter_mut().zip(&z).zip(&b1) {
                *h = (z + b).max(0.0);
            }
            let y: f64 = w2
                .iter()
                .zip(hidden.iter())
                .map(|(w, h)| w * h)
                .sum::<f64>()
                + b2;
            *err = y - t;
        }
        let mut g_w1 = [[0.0f64; MLP_HIDDEN]; M];
        let mut g_b1: Lanes = [0.0; MLP_HIDDEN];
        let mut g_w2: Lanes = [0.0; MLP_HIDDEN];
        let mut g_b2 = 0.0f64;
        for (x, &(hidden, err)) in rows.iter().zip(&forward) {
            g_b2 += err;
            // A unit that is off adds `-0.0`, the exact identity of `+`.
            let mut back: Lanes = [0.0; MLP_HIDDEN];
            for i in 0..MLP_HIDDEN {
                g_w2[i] += err * hidden[i];
                back[i] = err * w2[i];
                g_b1[i] += if hidden[i] > 0.0 { back[i] } else { -0.0 };
            }
            for (g_col, &v) in g_w1.iter_mut().zip(x) {
                for i in 0..MLP_HIDDEN {
                    g_col[i] += if hidden[i] > 0.0 { back[i] * v } else { -0.0 };
                }
            }
        }
        for (col, g_col) in w1.iter_mut().zip(&g_w1) {
            for (w, g) in col.iter_mut().zip(g_col) {
                *w -= step * g;
            }
        }
        for (b, g) in b1.iter_mut().zip(&g_b1) {
            *b -= step * g;
        }
        for (w, g) in w2.iter_mut().zip(&g_w2) {
            *w -= step * g;
        }
        b2 -= step * g_b2;
    }

    MlpWeights {
        inputs: M,
        w1: (0..MLP_HIDDEN)
            .flat_map(|i| w1.iter().map(move |col| col[i]))
            .collect(),
        b1,
        w2,
        b2,
    }
}

impl PhaseModel for MlpQ16 {
    fn infer_norm(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        let m = self.inputs;
        // Inputs quantize once; everything below is integer arithmetic
        // (Q16.16 products accumulate in i64 as Q32.32, shifted back).
        let mut xq = [0i64; 16];
        for (q, v) in xq.iter_mut().zip(x) {
            *q = (v * Q16).round() as i64;
        }
        let mut acc_out = i64::from(self.b2) << 16; // Q32.32
        for i in 0..MLP_HIDDEN {
            let mut acc = 0i64; // Q32.32
            for (w, q) in self.w1[i * m..(i + 1) * m].iter().zip(&xq) {
                acc += i64::from(*w) * q;
            }
            let h = ((acc >> 16) + i64::from(self.b1[i])).max(0); // Q16.16
            acc_out += i64::from(self.w2[i]) * h;
        }
        (acc_out >> 16) as f64 / Q16
    }
}

// ---------------------------------------------------------------------
// Banks and the deployable optimizer
// ---------------------------------------------------------------------

/// One role of a bank (`Freq`, `Vdd` or `Vbb`): a model and the
/// normalizer it was fitted under.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fitted<M> {
    pub(crate) norm: Normalizer,
    pub(crate) model: M,
}

impl<M: PhaseModel> Fitted<M> {
    /// The model's raw output for the raw inputs `raw` (at most four:
    /// `[th, alpha, rho]` for `Freq`, plus `f_core` for `Power`),
    /// normalized in a buffer on the stack.
    fn infer(&self, raw: &[f64]) -> f64 {
        let mut buf = [0.0; 4];
        let x = &mut buf[..raw.len()];
        self.norm.normalize_into(raw, x);
        self.norm.denormalize_output(self.model.infer_norm(x))
    }
}

/// One (subsystem, variant) bank: a `Freq` model and up to two `Power`
/// models, each with the normalizer it was trained under. A bank for an
/// environment without ASV (ABB) holds no `Vdd` (`Vbb`) model: its
/// optimizer never reads one.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedBank<M> {
    pub(crate) freq: Fitted<M>,
    vdd: Option<Fitted<M>>,
    vbb: Option<Fitted<M>>,
}

impl<M: PhaseModel> LearnedBank<M> {
    /// Fits each role's normalizer to its teacher examples, then the
    /// model via `fit_model(normalized, salt)`, with salts `0x11`,
    /// `0x22`, `0x33` for `Freq`, `Vdd`, `Vbb`. `Vdd` is fitted only
    /// when `asv`, `Vbb` only when `abb`.
    pub(crate) fn fit(
        ex: &TeacherExamples,
        asv: bool,
        abb: bool,
        mut fit_model: impl FnMut(&[(Vec<f64>, f64)], u64) -> M,
    ) -> Self {
        let mut role = |examples: &[(Vec<f64>, f64)], salt: u64| {
            let norm = Normalizer::fit(examples);
            let model = fit_model(&norm.apply(examples), salt);
            Fitted { norm, model }
        };
        Self {
            freq: role(&ex.freq, 0x11),
            vdd: asv.then(|| role(&ex.vdd, 0x22)),
            vbb: abb.then(|| role(&ex.vbb, 0x33)),
        }
    }
}

impl<M: Trainable> LearnedBank<M> {
    /// Trains all three models of one bank from a teacher example set.
    pub fn train(ex: &TeacherExamples, seed: u64) -> Self {
        Self::fit(ex, true, true, |normalized, salt| M::train(normalized, seed ^ salt))
    }
}

/// A deployable trained optimizer: one [`LearnedBank`] per (subsystem,
/// variant), with ladder snapping, `asv`/`abb` gating and the slot-0
/// fallback shared by every [`PhaseModel`] family.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedOptimizer<M> {
    env: Environment,
    /// `[subsystem][variant_enabled]`; the variant slot is `None` for
    /// subsystems without an alternate structure.
    pub(crate) banks: Vec<[Option<LearnedBank<M>>; 2]>,
}

impl<M: PhaseModel> LearnedOptimizer<M> {
    /// Assembles an optimizer from pre-trained banks (one teacher sweep
    /// trains them for every family).
    pub(crate) fn from_banks(
        env: Environment,
        banks: Vec<[Option<LearnedBank<M>>; 2]>,
    ) -> Self {
        Self { env, banks }
    }

    /// The environment these banks were trained for.
    pub fn environment(&self) -> Environment {
        self.env
    }

    fn lookup(&self, scene: &SubsystemScene<'_>) -> &LearnedBank<M> {
        let id = scene.state.id();
        let alt = teacher::scene_alt(scene);
        self.banks[id.index()][alt as usize]
            .as_ref()
            .or(self.banks[id.index()][0].as_ref())
            // lint:allow(panic-safety): training fills slot 0 for every
            // subsystem id.
            .expect("bank trained for every subsystem")
    }
}

impl<M: PhaseModel> Optimizer for LearnedOptimizer<M> {
    fn freq_max(&self, _config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        let raw = self.lookup(scene).freq.infer(&[scene.th_c, scene.alpha_f, scene.rho]);
        FREQ_LADDER.nearest(raw)
    }

    fn power_settings(
        &self,
        _config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let bank = self.lookup(scene);
        let inputs = [scene.th_c, scene.alpha_f, scene.rho, f_core];
        // A role the environment does not use answers its neutral
        // setting; a bank fitted for the environment has every other.
        let vdd = match &bank.vdd {
            Some(role) if scene.env.asv => VDD_LADDER.nearest(role.infer(&inputs)),
            _ => 1.0,
        };
        let vbb = match &bank.vbb {
            Some(role) if scene.env.abb => VBB_LADDER.nearest(role.infer(&inputs)),
            _ => 0.0,
        };
        (vdd, vbb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy_ctl::{FuzzyOptimizer, TrainingBudget};
    use crate::test_support::factory;
    use eval_fuzzy::{FuzzyController, TrainingConfig};
    use eval_trace::Tracer;

    /// The MLP fit as one scalar loop over row-major `Vec` weights: the
    /// reference whose unquantized weights the lane kernel must match
    /// bit for bit.
    pub(super) fn mlp_fit_reference(examples: &[(Vec<f64>, f64)], seed: u64) -> MlpWeights {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let m = examples[0].0.len();
        for (x, _) in examples {
            assert_eq!(x.len(), m, "inconsistent example dimensions");
        }
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut w1: Vec<f64> = (0..MLP_HIDDEN * m).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut b1 = [0.0f64; MLP_HIDDEN];
        let mut w2: Vec<f64> = (0..MLP_HIDDEN).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut b2 = examples.iter().map(|(_, t)| t).sum::<f64>() / examples.len() as f64;

        let inv_n = 1.0 / examples.len() as f64;
        let mut hidden = vec![0.0f64; MLP_HIDDEN];
        let mut g_w1 = vec![0.0f64; MLP_HIDDEN * m];
        let mut g_b1 = vec![0.0f64; MLP_HIDDEN];
        let mut g_w2 = vec![0.0f64; MLP_HIDDEN];
        for _ in 0..MLP_EPOCHS {
            g_w1.iter_mut().for_each(|g| *g = 0.0);
            g_b1.iter_mut().for_each(|g| *g = 0.0);
            g_w2.iter_mut().for_each(|g| *g = 0.0);
            let mut g_b2 = 0.0f64;
            for (x, t) in examples {
                for (i, h) in hidden.iter_mut().enumerate() {
                    let z: f64 =
                        w1[i * m..(i + 1) * m].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
                            + b1[i];
                    *h = z.max(0.0);
                }
                let y: f64 = w2.iter().zip(&hidden).map(|(w, h)| w * h).sum::<f64>() + b2;
                let err = y - t;
                g_b2 += err;
                for i in 0..MLP_HIDDEN {
                    g_w2[i] += err * hidden[i];
                    if hidden[i] > 0.0 {
                        let back = err * w2[i];
                        g_b1[i] += back;
                        for (g, v) in g_w1[i * m..(i + 1) * m].iter_mut().zip(x) {
                            *g += back * v;
                        }
                    }
                }
            }
            let step = MLP_LR * inv_n;
            for (w, g) in w1.iter_mut().zip(&g_w1) {
                *w -= step * g;
            }
            for (b, g) in b1.iter_mut().zip(&g_b1) {
                *b -= step * g;
            }
            for (w, g) in w2.iter_mut().zip(&g_w2) {
                *w -= step * g;
            }
            b2 -= step * g_b2;
        }

        MlpWeights {
            inputs: m,
            w1,
            b1,
            w2: w2.try_into().expect("one weight per hidden unit"),
            b2,
        }
    }

    fn toy_examples(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let a = (i % 16) as f64 / 15.0;
                let b = ((i / 16) % 11) as f64 / 10.0;
                let c = ((i * 7) % 13) as f64 / 12.0;
                (vec![a, b, c], 0.2 + 0.5 * a - 0.3 * b + 0.4 * c * c)
            })
            .collect()
    }

    fn check_fit<M: Trainable>(tol: f64) {
        let ex = toy_examples(200);
        let model = M::train(&ex, 42);
        let mut sse = 0.0;
        for (x, t) in &ex {
            let err = model.infer_norm(x) - t;
            sse += err * err;
        }
        let rms = (sse / ex.len() as f64).sqrt();
        let family = std::any::type_name::<M>();
        assert!(rms < tol, "{family} rms {rms} over tolerance {tol}");
    }

    #[test]
    fn nn_table_memorizes_training_set() {
        check_fit::<NnTable>(1e-9); // exact recall on its own inputs
    }

    #[test]
    fn tree_fits_smooth_function() {
        check_fit::<RegressionTree>(0.12);
    }

    #[test]
    fn mlp_fits_smooth_function() {
        check_fit::<MlpQ16>(0.12);
    }

    #[test]
    fn mlp_training_is_deterministic_and_inference_is_integer_only() {
        let ex = toy_examples(150);
        let a = MlpQ16::train(&ex, 99);
        let b = MlpQ16::train(&ex, 99);
        assert_eq!(a, b, "same seed must give identical quantized weights");
        assert_ne!(a, MlpQ16::train(&ex, 100), "seed must matter");
        // Bitwise-stable inference, including slightly out-of-cube
        // inputs (normalizers extrapolate linearly).
        for x in [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-0.1, 0.5, 1.2]] {
            assert_eq!(a.infer_norm(&x).to_bits(), b.infer_norm(&x).to_bits());
        }
    }

    /// §5 puts the whole controller system in a reserved memory area of
    /// about 120 KB. `PAPER.md` carries only the abstract, so this test
    /// reads that figure as the store of one core: the `f64` values of
    /// one core's trained `ALL` fuzzy optimizer must fit in it. A role
    /// holds each rule's `mu` and `sigma` per input and its output, plus
    /// its normalizer's input and output ranges.
    #[test]
    fn one_cores_fuzzy_controllers_fit_the_papers_controller_store() {
        // The smallest budget that still seeds the paper's 25 rules.
        let budget = TrainingBudget {
            examples: 30,
            config: TrainingConfig {
                epochs: 1,
                ..TrainingConfig::micro08()
            },
            seed: 3,
        };
        let chip = factory().chip(3);
        let opt = FuzzyOptimizer::train(
            factory().config(),
            &chip,
            0,
            Environment::ALL,
            &budget,
            Tracer::noop(),
        );
        let role = |f: Option<&Fitted<FuzzyController>>| {
            let f = f.expect("an ALL bank fits every role");
            let (rules, inputs) = (f.model.rules(), f.model.inputs());
            rules * (2 * inputs + 1) + 2 * f.norm.dim() + 2
        };
        let banks: Vec<&LearnedBank<FuzzyController>> =
            opt.banks.iter().flatten().flatten().collect();
        assert_eq!(banks.len(), 19);
        for bank in &banks {
            // 25 rules at 3, 4 and 4 inputs, and 8 + 10 + 10 ranges.
            assert_eq!(
                [role(Some(&bank.freq)), role(bank.vdd.as_ref()), role(bank.vbb.as_ref())],
                [175 + 8, 225 + 10, 225 + 10]
            );
        }
        let values: usize = banks
            .iter()
            .map(|b| role(Some(&b.freq)) + role(b.vdd.as_ref()) + role(b.vbb.as_ref()))
            .sum();
        assert_eq!(values, 12_407);
        let bytes = 8 * values;
        assert!(bytes < 120_000, "one core's controllers hold {bytes} bytes");
    }

    /// A bank fits the `Power` roles its environment's ladders use and
    /// no other: TS holds no power model, TS+ASV no `Vbb` model, and
    /// `ALL` all three.
    #[test]
    fn banks_fit_only_the_roles_their_ladders_use() {
        let budget = TrainingBudget {
            examples: 30,
            config: TrainingConfig {
                epochs: 1,
                ..TrainingConfig::micro08()
            },
            seed: 3,
        };
        let envs = [Environment::TS, Environment::TS_ASV, Environment::ALL];
        let opts = FuzzyOptimizer::sweep(
            factory().config(),
            &factory().chip(4),
            0,
            &envs,
            &budget,
            Tracer::noop(),
            |_, _| {},
        );
        for (opt, (asv, abb)) in opts.iter().zip([(false, false), (true, false), (true, true)]) {
            let banks: Vec<_> = opt.banks.iter().flatten().flatten().collect();
            assert!(!banks.is_empty());
            for bank in banks {
                assert_eq!(bank.vdd.is_some(), asv, "{}", opt.environment().name);
                assert_eq!(bank.vbb.is_some(), abb, "{}", opt.environment().name);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A `rows × m` example set for the MLP kernel in one of four
    /// shapes: unit-cube inputs with a smooth target, a constant target,
    /// negative targets, and inputs outside the cube. Any shape mixes in
    /// all-zero rows (of either sign).
    fn mlp_set(m: usize, rows: usize, shape: usize, seed: u64) -> Vec<(Vec<f64>, f64)> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x6d6c70);
        let constant = [0.0, -0.25, 0.6][(seed % 3) as usize];
        (0..rows)
            .map(|_| {
                let x: Vec<f64> = match rng.gen_range(0..8) {
                    0 => vec![0.0; m],
                    1 => vec![-0.0; m],
                    _ if shape == 3 => (0..m).map(|_| rng.gen_range(-1.0..2.0)).collect(),
                    _ => (0..m).map(|_| rng.gen_range(0.0..1.0)).collect(),
                };
                let smooth = 0.2 + 0.5 * x[0] - 0.3 * x[1] + 0.4 * x[m - 1] * x[m - 1];
                let t = match shape {
                    1 => constant,
                    2 => -smooth - 0.1,
                    _ => smooth,
                };
                (x, t)
            })
            .collect()
    }

    fn weight_bits(w: &MlpWeights) -> Vec<u64> {
        let tail = [w.b1.as_slice(), w.w2.as_slice(), &[w.b2]];
        w.w1.iter()
            .chain(tail.into_iter().flatten())
            .map(|v| v.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_mlp_kernel_matches_the_reference_loop_bit_for_bit(
            seed in 0u64..1_000_000, rows in 25usize..301, wide in proptest::bool::ANY,
            shape in 0usize..4,
        ) {
            let m = if wide { 4 } else { 3 };
            let ex = mlp_set(m, rows, shape, seed);
            let lanes = if wide { fit_mlp::<4>(&ex, seed) } else { fit_mlp::<3>(&ex, seed) };
            let reference = super::tests::mlp_fit_reference(&ex, seed);
            prop_assert_eq!(weight_bits(&lanes), weight_bits(&reference));
            prop_assert_eq!(MlpQ16::train(&ex, seed), reference.quantize());
        }
    }
}
