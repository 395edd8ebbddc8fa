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
//! Everything persists through versioned text formats built on the row
//! helpers of [`eval_fuzzy::persist`], and a whole optimizer
//! fingerprints via FNV-1a for provenance.

use eval_core::{Environment, EvalConfig, FREQ_LADDER, N_SUBSYSTEMS, VBB_LADDER, VDD_LADDER};
use eval_fuzzy::persist::{dump_floats, expect_header, parse_row, read_dims, read_row};
use eval_fuzzy::{Normalizer, PersistError};
use eval_rng::ChaCha12Rng;
use eval_trace::provenance::{fnv1a64, hex64};

use crate::optimizer::{Optimizer, SubsystemScene};
use crate::teacher::{self, TeacherExamples};

/// A persistable regression model over normalized inputs.
/// Models map the unit cube to a normalized output in `[0, 1]`-ish
/// range; the surrounding [`LearnedBank`] owns denormalization.
pub trait PhaseModel: std::fmt::Debug + Clone + PartialEq + Send + Sync + Sized {
    /// Stable family label (`fuzzy`, `nn-table`, `tree`, `mlp`): the
    /// persist header's `scheme` line.
    const KIND: &'static str;

    /// Predicts the normalized output for a normalized input.
    fn infer_norm(&self, x: &[f64]) -> f64;

    /// The input dimension [`PhaseModel::infer_norm`] expects.
    fn inputs(&self) -> usize;

    /// Serializes to the model's versioned text format.
    fn to_text(&self) -> String;

    /// Parses the model's versioned text format.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    fn from_text(text: &str) -> Result<Self, PersistError>;
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

fn parse_usize(token: Option<&str>) -> Result<usize, PersistError> {
    token
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or(PersistError::BadDimensions)
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
    const KIND: &'static str = "nn-table";

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

    fn inputs(&self) -> usize {
        self.dim
    }

    fn to_text(&self) -> String {
        let n = self.outputs.len();
        let m = self.dim;
        let mut out = String::with_capacity(48 + n * (m + 1) * 26);
        out.push_str("nn-table v1\n");
        out.push_str(&format!("rows {n} inputs {m}\n"));
        for row in self.points.chunks_exact(m) {
            dump_floats(&mut out, "x", row);
        }
        dump_floats(&mut out, "y", &self.outputs);
        out
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        expect_header(&mut lines, "nn-table v1")?;
        let (n, m) = read_dims(&mut lines, "rows", "inputs")?;
        let mut points = Vec::new();
        for _ in 0..n {
            points.extend(read_row::<f64>(&mut lines, "x", m)?);
        }
        let outputs = read_row(&mut lines, "y", n)?;
        Ok(Self {
            dim: m,
            points,
            outputs,
        })
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
    const KIND: &'static str = "tree";

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

    fn inputs(&self) -> usize {
        self.dim
    }

    fn to_text(&self) -> String {
        let mut out = String::with_capacity(48 + self.nodes.len() * 40);
        out.push_str("tree v1\n");
        out.push_str(&format!("nodes {} inputs {}\n", self.nodes.len(), self.dim));
        for node in &self.nodes {
            match node {
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => out.push_str(&format!("split {feature} {threshold:e} {left} {right}\n")),
                TreeNode::Leaf { value } => out.push_str(&format!("leaf {value:e}\n")),
            }
        }
        out
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        expect_header(&mut lines, "tree v1")?;
        let (n, m) = read_dims(&mut lines, "nodes", "inputs")?;
        let mut nodes = Vec::new();
        for at in 0..n {
            let line = lines
                .next()
                .ok_or(PersistError::UnexpectedEnd { expected: "node" })?;
            let mut tok = line.split_whitespace();
            let node = match tok.next() {
                Some("split") => {
                    let feature = parse_usize(tok.next())?;
                    let threshold = parse_row(tok.next().unwrap_or(""), 1)?[0];
                    let left = parse_usize(tok.next())?;
                    let right = parse_usize(tok.next())?;
                    // Children follow their parent (`grow` writes nodes
                    // in preorder), so inference always reaches a leaf.
                    if feature >= m || left.min(right) <= at || left.max(right) >= n {
                        return Err(PersistError::BadDimensions);
                    }
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    }
                }
                Some("leaf") => TreeNode::Leaf {
                    value: parse_row(tok.next().unwrap_or(""), 1)?[0],
                },
                _ => return Err(PersistError::UnexpectedEnd { expected: "node" }),
            };
            nodes.push(node);
        }
        Ok(Self { dim: m, nodes })
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
        // The two bank-role widths of `ROLE_INPUTS`; any other width
        // fails the 3-input kernel's row check.
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
    const KIND: &'static str = "mlp";

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

    fn inputs(&self) -> usize {
        self.inputs
    }

    fn to_text(&self) -> String {
        let m = self.inputs;
        let mut out = String::with_capacity(64 + MLP_HIDDEN * (m + 2) * 12);
        out.push_str("mlp v1\n");
        out.push_str(&format!("inputs {m} hidden {MLP_HIDDEN}\n"));
        let dump_ints = |out: &mut String, prefix: &str, vals: &[i32]| {
            out.push_str(prefix);
            for v in vals {
                out.push_str(&format!(" {v}"));
            }
            out.push('\n');
        };
        for row in self.w1.chunks_exact(m) {
            dump_ints(&mut out, "w1", row);
        }
        dump_ints(&mut out, "b1", &self.b1);
        dump_ints(&mut out, "w2", &self.w2);
        dump_ints(&mut out, "b2", &[self.b2]);
        out
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        expect_header(&mut lines, "mlp v1")?;
        let (m, h) = read_dims(&mut lines, "inputs", "hidden")?;
        if h != MLP_HIDDEN {
            return Err(PersistError::BadDimensions);
        }
        let mut w1 = Vec::new();
        for _ in 0..h {
            w1.extend(read_row::<i32>(&mut lines, "w1", m)?);
        }
        let b1 = read_row(&mut lines, "b1", h)?;
        let w2 = read_row(&mut lines, "w2", h)?;
        let b2 = read_row(&mut lines, "b2", 1)?[0];
        Ok(Self {
            inputs: m,
            w1,
            b1,
            w2,
            b2,
        })
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
    fn infer(&self, raw: &[f64]) -> f64 {
        let x = self.norm.normalize(raw);
        self.norm.denormalize_output(self.model.infer_norm(&x))
    }
}

/// One (subsystem, variant) bank: a `Freq` model and two `Power`
/// models, each with the normalizer it was trained under.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedBank<M> {
    pub(crate) freq: Fitted<M>,
    vdd: Fitted<M>,
    vbb: Fitted<M>,
}

/// Section separator inside serialized banks.
const SECTION_MARK: &str = "%%";

/// Inputs per bank role, in `Freq`, `Vdd`, `Vbb` order: the `Freq`
/// model sees `(th, alpha_f, rho)`, the `Power` models add `f_core`.
const ROLE_INPUTS: [usize; 3] = [3, 4, 4];

fn split_sections(text: &str, want: usize) -> Result<Vec<String>, PersistError> {
    let mut out = Vec::with_capacity(want);
    let mut cur = String::new();
    for line in text.lines() {
        if line.trim() == SECTION_MARK {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    if out.len() != want {
        return Err(PersistError::UnexpectedEnd { expected: "section" });
    }
    Ok(out)
}

impl<M: PhaseModel> LearnedBank<M> {
    /// Fits each role's normalizer to its teacher examples, then the
    /// model via `fit_model(normalized, salt)`, with salts `0x11`,
    /// `0x22`, `0x33` for `Freq`, `Vdd`, `Vbb`.
    pub(crate) fn fit(
        ex: &TeacherExamples,
        mut fit_model: impl FnMut(&[(Vec<f64>, f64)], u64) -> M,
    ) -> Self {
        let mut role = |examples: &[(Vec<f64>, f64)], salt: u64| {
            let norm = Normalizer::fit(examples);
            let model = fit_model(&norm.apply(examples), salt);
            Fitted { norm, model }
        };
        Self {
            freq: role(&ex.freq, 0x11),
            vdd: role(&ex.vdd, 0x22),
            vbb: role(&ex.vbb, 0x33),
        }
    }

    /// Serializes the bank: six `%%`-terminated sections (normalizer
    /// then model, for `Freq`, `Vdd`, `Vbb`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for role in [&self.freq, &self.vdd, &self.vbb] {
            for section in [role.norm.to_text(), role.model.to_text()] {
                out.push_str(&section);
                out.push_str(SECTION_MARK);
                out.push('\n');
            }
        }
        out
    }

    /// Parses a serialized bank.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input, including a role
    /// whose normalizer or model does not take that role's inputs.
    pub fn from_text(text: &str) -> Result<Self, PersistError> {
        let s = split_sections(text, 6)?;
        let role = |i: usize| -> Result<Fitted<M>, PersistError> {
            let norm = Normalizer::from_text(&s[2 * i])?;
            let model = M::from_text(&s[2 * i + 1])?;
            if norm.dim() != ROLE_INPUTS[i] || model.inputs() != ROLE_INPUTS[i] {
                return Err(PersistError::BadDimensions);
            }
            Ok(Fitted { norm, model })
        };
        Ok(Self {
            freq: role(0)?,
            vdd: role(1)?,
            vbb: role(2)?,
        })
    }
}

impl<M: Trainable> LearnedBank<M> {
    /// Trains all three models of one bank from a teacher example set.
    pub fn train(ex: &TeacherExamples, seed: u64) -> Self {
        Self::fit(ex, |normalized, salt| M::train(normalized, seed ^ salt))
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
            // lint:allow(panic-safety): training and `from_text` both
            // fill slot 0 for every subsystem id.
            .expect("bank trained for every subsystem")
    }

    /// Serializes the whole optimizer: a header naming the scheme and
    /// environment, then each bank slot as `present` + bank body or
    /// `absent`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("learned-optimizer v1\n");
        out.push_str(&format!("scheme {}\n", M::KIND));
        out.push_str(&format!("env {}\n", self.env.name));
        out.push_str(&format!("banks {}\n", self.banks.len()));
        for (i, slots) in self.banks.iter().enumerate() {
            for (s, slot) in slots.iter().enumerate() {
                match slot {
                    Some(bank) => {
                        out.push_str(&format!("bank {i} {s} present\n"));
                        out.push_str(&bank.to_text());
                    }
                    None => out.push_str(&format!("bank {i} {s} absent\n")),
                }
            }
        }
        out
    }

    /// Parses a serialized optimizer. `env` must match the recorded
    /// environment name (the environment table is compiled in; the text
    /// format only records which one was used). The file must hold
    /// exactly one bank row per subsystem and nothing after the last.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input or an environment
    /// mismatch.
    pub fn from_text(env: Environment, text: &str) -> Result<Self, PersistError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        expect_header(&mut lines, "learned-optimizer v1")?;
        expect_header(&mut lines, &format!("scheme {}", M::KIND))?;
        expect_header(&mut lines, &format!("env {}", env.name))?;
        let banks_line = lines.next().ok_or(PersistError::UnexpectedEnd {
            expected: "bank count",
        })?;
        let n = match banks_line.trim().strip_prefix("banks ") {
            Some(rest) => rest
                .parse::<usize>()
                .map_err(|_| PersistError::BadDimensions)?,
            None => return Err(PersistError::BadDimensions),
        };
        if n != N_SUBSYSTEMS {
            return Err(PersistError::BadDimensions);
        }
        let mut banks: Vec<[Option<LearnedBank<M>>; 2]> = Vec::with_capacity(N_SUBSYSTEMS);
        for i in 0..n {
            let mut slots: [Option<LearnedBank<M>>; 2] = [None, None];
            for (s, slot) in slots.iter_mut().enumerate() {
                let marker = lines.next().ok_or(PersistError::UnexpectedEnd {
                    expected: "bank marker",
                })?;
                let mut tok = marker.split_whitespace();
                let ok = tok.next() == Some("bank")
                    && tok.next() == Some(i.to_string().as_str())
                    && tok.next() == Some(s.to_string().as_str());
                if !ok {
                    return Err(PersistError::UnexpectedEnd {
                        expected: "bank marker",
                    });
                }
                match tok.next() {
                    Some("absent") => {}
                    Some("present") => {
                        // A bank body is exactly six %%-terminated
                        // sections; collect them and parse.
                        let mut body = String::new();
                        let mut marks = 0;
                        while marks < 6 {
                            let line = lines.next().ok_or(PersistError::UnexpectedEnd {
                                expected: "bank body",
                            })?;
                            if line.trim() == SECTION_MARK {
                                marks += 1;
                            }
                            body.push_str(line);
                            body.push('\n');
                        }
                        *slot = Some(LearnedBank::from_text(&body)?);
                    }
                    _ => {
                        return Err(PersistError::UnexpectedEnd {
                            expected: "bank marker",
                        })
                    }
                }
            }
            banks.push(slots);
        }
        if lines.next().is_some() || banks.iter().any(|s| s[0].is_none()) {
            return Err(PersistError::BadDimensions);
        }
        Ok(Self { env, banks })
    }

    /// FNV-1a fingerprint of the serialized optimizer, for provenance
    /// journaling and artifact diffing.
    pub fn fingerprint(&self) -> String {
        hex64(fnv1a64(self.to_text().as_bytes()))
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
        let vdd = if scene.env.asv {
            VDD_LADDER.nearest(bank.vdd.infer(&inputs))
        } else {
            1.0
        };
        let vbb = if scene.env.abb {
            VBB_LADDER.nearest(bank.vbb.infer(&inputs))
        } else {
            0.0
        };
        (vdd, vbb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_fuzzy::FuzzyController;

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
        assert!(rms < tol, "{} rms {rms} over tolerance {tol}", M::KIND);
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

    fn check_round_trip<M: Trainable>() {
        let ex = toy_examples(120);
        let model = M::train(&ex, 7);
        let back = M::from_text(&model.to_text()).expect("parses");
        assert_eq!(model, back, "{} round trip drifted", M::KIND);
        for (x, _) in ex.iter().take(20) {
            assert_eq!(
                model.infer_norm(x).to_bits(),
                back.infer_norm(x).to_bits(),
                "{} inference drifted after round trip",
                M::KIND
            );
        }
    }

    #[test]
    fn all_models_round_trip_bit_exactly() {
        check_round_trip::<NnTable>();
        check_round_trip::<RegressionTree>();
        check_round_trip::<MlpQ16>();
    }

    #[test]
    fn models_reject_malformed_text() {
        assert_eq!(NnTable::from_text("nn-table v9\n"), Err(PersistError::BadHeader));
        assert_eq!(RegressionTree::from_text(""), Err(PersistError::BadHeader));
        assert_eq!(
            MlpQ16::from_text("mlp v1\ninputs 0 hidden 8\n"),
            Err(PersistError::BadDimensions)
        );
        let good = RegressionTree::train(&toy_examples(60), 1).to_text();
        let cut = &good[..good.len() / 2];
        assert!(RegressionTree::from_text(cut).is_err());
        // Out-of-range node links are rejected, not trusted.
        let bad = good.replacen("split 0", "split 9", 1);
        if bad != good {
            assert_eq!(RegressionTree::from_text(&bad), Err(PersistError::BadDimensions));
        }
        // So are links back up the tree, which would loop inference.
        let cyclic = "tree v1\nnodes 2 inputs 1\nsplit 0 5e-1 0 1\nleaf 1e0\n";
        assert_eq!(RegressionTree::from_text(cyclic), Err(PersistError::BadDimensions));
        // A forged count fails as a short read, never as an allocation.
        let huge = "2305843009213693952";
        assert!(NnTable::from_text(&format!("nn-table v1\nrows {huge} inputs 1\n")).is_err());
        assert!(RegressionTree::from_text(&format!("tree v1\nnodes {huge} inputs 1\n")).is_err());
        let fuzzy = format!("fuzzy-controller v1\nrules {huge} inputs 1\n");
        assert!(<FuzzyController as PhaseModel>::from_text(&fuzzy).is_err());
        assert!(MlpQ16::from_text(&format!("mlp v1\ninputs {huge} hidden 8\n")).is_err());
        // A bank role must take that role's inputs, in its normalizer and
        // its model alike: a 4-input normalizer over the 3-input `Freq`
        // model, a 4-input `Freq` role, and a 3-input `Vdd` role.
        let bank = LearnedBank::<MlpQ16>::train(&toy_teacher(), 5);
        let sections = split_sections(&bank.to_text(), 6).expect("six sections");
        for order in [[2, 1, 2, 3, 4, 5], [2, 3, 0, 1, 4, 5], [0, 1, 0, 1, 4, 5]] {
            let text: String = order
                .iter()
                .map(|&k| format!("{}{SECTION_MARK}\n", sections[k]))
                .collect();
            assert_eq!(
                LearnedBank::<MlpQ16>::from_text(&text),
                Err(PersistError::BadDimensions),
                "sections {order:?}"
            );
        }
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

    /// Teacher-shaped toy examples: 3 inputs for `Freq`, 4 for `Power`.
    fn toy_teacher() -> TeacherExamples {
        TeacherExamples {
            freq: toy_examples(80),
            vdd: toy_examples(80)
                .into_iter()
                .map(|(mut x, t)| {
                    x.push(2.0 + t);
                    (x, 1.0 - t * 0.2)
                })
                .collect(),
            vbb: toy_examples(80)
                .into_iter()
                .map(|(mut x, t)| {
                    x.push(2.0 + t);
                    (x, t * 0.1 - 0.3)
                })
                .collect(),
        }
    }

    #[test]
    fn bank_round_trips_through_sections() {
        let bank = LearnedBank::<MlpQ16>::train(&toy_teacher(), 5);
        let back = LearnedBank::<MlpQ16>::from_text(&bank.to_text()).expect("parses");
        assert_eq!(bank, back);
        assert!(LearnedBank::<MlpQ16>::from_text("junk\n%%\n").is_err());
    }
}

#[cfg(test)]
mod proptests {
    use std::panic::catch_unwind;

    use super::*;
    use eval_fuzzy::{FuzzyController, TrainingConfig};
    use proptest::prelude::*;

    /// Tokens a damaged file may carry: a count too large to allocate, a
    /// negative, a non-finite value and a non-number.
    const BAD_TOKENS: [&str; 4] = ["2305843009213693952", "-1", "nan", "x"];

    /// Damaged copies of `text` at one drawn line and at one of its
    /// first four lines (where the counts live): cut before the line,
    /// one token of it replaced by each of [`BAD_TOKENS`], the line
    /// duplicated, the line dropped.
    fn damage(text: &str, line: usize, token: usize) -> Vec<String> {
        let lines: Vec<&str> = text.lines().collect();
        let mut out = Vec::new();
        for at in [line % lines.len(), line % lines.len().min(4)] {
            let edit = |f: &dyn Fn(&mut Vec<String>)| {
                let mut copy: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                f(&mut copy);
                copy.join("\n")
            };
            out.push(edit(&|c| c.truncate(at)));
            for bad in BAD_TOKENS {
                out.push(edit(&|c| {
                    let mut toks: Vec<&str> = lines[at].split_whitespace().collect();
                    let k = token % toks.len().max(1);
                    if k < toks.len() {
                        toks[k] = bad;
                    }
                    c[at] = toks.join(" ");
                }));
            }
            out.push(edit(&|c| c.insert(at, lines[at].to_string())));
            out.push(edit(&|c| {
                c.remove(at);
            }));
        }
        out
    }

    /// Seeded teacher-shaped examples: 3 inputs for `Freq`, 4 for the
    /// `Power` roles, smooth targets on raw (unnormalized) scales.
    fn examples(seed: u64) -> TeacherExamples {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut set = |dim: usize, scale: f64| -> Vec<(Vec<f64>, f64)> {
            (0..32)
                .map(|_| {
                    let x: Vec<f64> = (0..dim)
                        .map(|j| rng.gen_range(0.0..1.0) * (j + 1) as f64)
                        .collect();
                    let t = scale * (0.2 + 0.5 * x[0] - 0.3 * x[1] + 0.1 * x[dim - 1] * x[dim - 1]);
                    (x, t)
                })
                .collect()
        };
        TeacherExamples {
            freq: set(3, 5.0),
            vdd: set(4, 1.2),
            vbb: set(4, -0.4),
        }
    }

    /// Checks `from_text(to_text(x)) == x` for one model and for an
    /// optimizer built from its banks, then requires every damaged copy
    /// of each text to parse to `Ok` or `Err`, never a panic.
    fn check_family<M: PhaseModel>(
        seed: u64,
        fit: impl Fn(&[(Vec<f64>, f64)], u64) -> M,
        line: usize,
        token: usize,
    ) -> Result<(), TestCaseError> {
        let bank = LearnedBank::fit(&examples(seed), &fit);
        let model = bank.freq.model.clone();
        let text = model.to_text();
        prop_assert_eq!(M::from_text(&text), Ok(model.clone()));
        for damaged in damage(&text, line, token) {
            let parsed = catch_unwind(|| M::from_text(&damaged).is_ok());
            let head: Vec<&str> = damaged.lines().take(3).collect();
            prop_assert!(parsed.is_ok(), "{} parser panicked on {head:?}", M::KIND);
        }

        let mut banks: Vec<[Option<LearnedBank<M>>; 2]> =
            (0..N_SUBSYSTEMS).map(|_| [Some(bank.clone()), None]).collect();
        banks[0][1] = Some(bank);
        let opt = LearnedOptimizer::from_banks(Environment::TS_ASV, banks);
        let text = opt.to_text();
        let parse = |t: &str| LearnedOptimizer::<M>::from_text(Environment::TS_ASV, t);
        prop_assert!(parse(&text) == Ok(opt), "{} optimizer round trip drifted", M::KIND);
        for damaged in damage(&text, line, token) {
            let parsed = catch_unwind(|| parse(&damaged).is_ok());
            prop_assert!(parsed.is_ok(), "{} optimizer parser panicked", M::KIND);
        }
        Ok(())
    }

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
        fn prop_fuzzy_text_round_trips_and_survives_damage(
            seed in 0u64..1_000_000, line in 0usize..100_000, token in 0usize..64,
        ) {
            let config = TrainingConfig { rules: 6, epochs: 2, ..TrainingConfig::micro08() };
            let fit = |n: &[(Vec<f64>, f64)], s: u64| {
                FuzzyController::train(n, &config, s).expect("more examples than rules")
            };
            check_family(seed, fit, line, token)?;
        }

        #[test]
        fn prop_nn_table_text_round_trips_and_survives_damage(
            seed in 0u64..1_000_000, line in 0usize..100_000, token in 0usize..64,
        ) {
            check_family(seed, NnTable::train, line, token)?;
        }

        #[test]
        fn prop_tree_text_round_trips_and_survives_damage(
            seed in 0u64..1_000_000, line in 0usize..100_000, token in 0usize..64,
        ) {
            check_family(seed, RegressionTree::train, line, token)?;
        }

        #[test]
        fn prop_mlp_text_round_trips_and_survives_damage(
            seed in 0u64..1_000_000, line in 0usize..100_000, token in 0usize..64,
        ) {
            check_family(seed, MlpQ16::train, line, token)?;
        }

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
