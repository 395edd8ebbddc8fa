//! Per-subsystem timing under variation and operating conditions.

use eval_units::{GHz, UnitRangeError, Volts};
use eval_variation::device::KELVIN;
use eval_variation::{ChipMap, DeviceParams};

use crate::paths::PathDistribution;
use crate::kind::PathClass;

/// Voltage and temperature conditions applied to one subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingConditions {
    /// Supply voltage (ASV knob).
    pub vdd: Volts,
    /// Body-bias voltage (ABB knob; positive = forward bias).
    pub vbb: Volts,
    /// Subsystem temperature in Celsius.
    pub t_c: f64,
}

impl OperatingConditions {
    /// Nominal conditions: 1 V supply, zero body bias, the reference 100 C.
    pub fn nominal() -> Self {
        Self {
            vdd: Volts::raw(1.0),
            vbb: Volts::raw(0.0),
            t_c: 100.0,
        }
    }

    /// Range-validated constructor: `vdd` must be a legal supply voltage
    /// and `vbb` a legal body bias (see [`eval_units::Volts`]).
    // lint:allow(unit-safety): validating boundary constructor — raw
    // numbers in, range-checked newtypes out.
    pub fn new(vdd: f64, vbb: f64, t_c: f64) -> Result<Self, UnitRangeError> {
        Ok(Self {
            vdd: Volts::vdd(vdd)?,
            vbb: Volts::vbb(vbb)?,
            t_c,
        })
    }
}

impl Default for OperatingConditions {
    fn default() -> Self {
        Self::nominal()
    }
}

/// One grid cell's process parameters under a subsystem footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellDevice {
    /// Reference threshold voltage (volts, at reference temperature).
    vt0: f64,
    /// Normalized effective channel length.
    leff: f64,
    /// `delay_factor`'s channel-length term `(leff / leff_nominal)^leff_exp`,
    /// which depends on nothing but the cell.
    leff_term: f64,
}

impl CellDevice {
    fn new(vt0: f64, leff: f64, device: &DeviceParams) -> Self {
        Self {
            vt0,
            leff,
            leff_term: (leff / device.leff_nominal).powf(device.leff_exp),
        }
    }
}

/// The per-call invariants of `delay_factor` at one operating condition:
/// everything but the cell's own `Vt0` and channel-length term.
#[derive(Debug, Clone, Copy)]
struct CondTerms {
    vdd: f64,
    /// `Vt` shifts from temperature, supply (DIBL) and body bias, in
    /// `DeviceParams::vt_at`'s summation order.
    vt_shift_t: f64,
    vt_shift_vdd: f64,
    vt_shift_vbb: f64,
    /// `vdd / vdd_nominal`.
    vdd_ratio: f64,
    /// `(T_k / T_ref_k)^mu_exp`.
    mobility: f64,
}

/// Relative margin by which a lower bound on `PE` must exceed the error
/// budget before [`StageTiming::pe_access_bounded`] or
/// [`StageTiming::pe_exceeds_over`] rejects on it; rounding in the bound
/// is many orders of magnitude smaller.
const SCREEN_MARGIN: f64 = 1e-6;

/// `ln(1 - cap * (1 + SCREEN_MARGIN) / scale)`: a running `ln(1 - PE)`
/// below it proves `scale * PE > cap` with the margin to spare. It is
/// `-inf` (nothing is proven) unless `cap` and the scaled cap are normal
/// numbers and the scaled cap is below 1, where the margin dwarfs every
/// rounding in the bound; that covers `scale <= 0`, `cap <= 0` and NaN.
fn log_cap(scale: f64, cap: f64) -> f64 {
    let scaled = cap * (1.0 + SCREEN_MARGIN) / scale;
    if cap >= f64::MIN_POSITIVE && (f64::MIN_POSITIVE..1.0).contains(&scaled) {
        (-scaled).ln_1p()
    } else {
        f64::NEG_INFINITY
    }
}

/// The timing model of one pipeline stage (subsystem) on a specific chip:
/// a nominal path-delay distribution plus the systematic variation of the
/// grid cells the subsystem's floorplan covers.
///
/// Evaluating `PE` mixes the per-cell delay-scaled distributions: paths are
/// assumed uniformly spread over the footprint, so each cell contributes
/// `paths / n_cells` independent paths scaled by that cell's local
/// process/voltage/temperature delay factor.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    dist: PathDistribution,
    cells: Vec<CellDevice>,
    device: DeviceParams,
    /// `(vdd_nominal - vt_nominal)^alpha`, the nominal overdrive term.
    overdrive_nom: f64,
}

impl StageTiming {
    /// Builds the stage model from a chip map and a footprint.
    ///
    /// * `class` — nominal path statistics for the subsystem kind.
    /// * `t_nom_ns` — nominal (no-variation) clock period in ns.
    /// * `chip` — the chip's variation maps.
    /// * `cells` — flat grid-cell indices of the subsystem's floorplan.
    /// * `device` — shared device-physics constants.
    /// * `gates_per_path` — logic depth used to average the random
    ///   variation component along a path (VARIUS: random variation of a
    ///   path is the per-gate sigma divided by `sqrt(depth)`).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, contains out-of-range indices, or
    /// `gates_per_path` is zero.
    pub fn from_chip(
        class: &PathClass,
        t_nom_ns: f64,
        chip: &ChipMap,
        cells: &[usize],
        device: DeviceParams,
        gates_per_path: usize,
    ) -> Self {
        assert!(!cells.is_empty(), "subsystem footprint must be non-empty");
        assert!(gates_per_path > 0, "paths must contain at least one gate");

        // Random component: widen the path distribution by the per-path
        // relative sigma implied by random Vt/Leff variation.
        let dlnt_dvt = device.alpha / (device.vdd_nominal - device.vt_nominal);
        let rel_from_vt = dlnt_dvt * chip.vt_sigma_ran;
        let rel_from_leff = device.leff_exp * chip.leff_sigma_ran / device.leff_nominal;
        let rel_rand =
            (rel_from_vt * rel_from_vt + rel_from_leff * rel_from_leff).sqrt()
                / (gates_per_path as f64).sqrt();

        let dist = class.nominal_distribution(t_nom_ns).widened(rel_rand);
        let cells = cells
            .iter()
            .map(|&c| CellDevice::new(chip.vt.at(c), chip.leff.at(c), &device))
            .collect();
        Self::with_cells(dist, cells, device)
    }

    fn with_cells(dist: PathDistribution, cells: Vec<CellDevice>, device: DeviceParams) -> Self {
        Self {
            dist,
            cells,
            overdrive_nom: (device.vdd_nominal - device.vt_nominal).powf(device.alpha),
            device,
        }
    }

    /// Builds a stage with explicit per-cell parameters (mainly for tests
    /// and for the no-variation reference processor).
    ///
    /// # Panics
    ///
    /// Panics if `vt0_leff_pairs` is empty.
    pub fn from_parts(
        dist: PathDistribution,
        vt0_leff_pairs: &[(f64, f64)],
        device: DeviceParams,
    ) -> Self {
        assert!(!vt0_leff_pairs.is_empty(), "at least one cell required");
        let cells = vt0_leff_pairs
            .iter()
            .map(|&(vt0, leff)| CellDevice::new(vt0, leff, &device))
            .collect();
        Self::with_cells(dist, cells, device)
    }

    /// The underlying nominal path-delay distribution.
    pub fn distribution(&self) -> PathDistribution {
        self.dist
    }

    /// Replaces the path-delay distribution (used by the tilt/shift
    /// mitigation transforms), keeping the footprint and device physics.
    pub fn with_distribution(&self, dist: PathDistribution) -> Self {
        Self {
            dist,
            ..self.clone()
        }
    }

    /// Number of grid cells under this subsystem.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Mean reference threshold voltage over the footprint (arithmetic;
    /// see `eval-core`'s tester module for the leakage-based measurement
    /// the manufacturer actually performs, §4.1 of the paper).
    pub fn measured_vt0(&self) -> f64 {
        self.cells.iter().map(|c| c.vt0).sum::<f64>() / self.cells.len() as f64
    }

    /// Per-cell `(Vt0, Leff)` pairs of the footprint, for tester-style
    /// leakage measurements.
    pub fn cell_params(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.cells.iter().map(|c| (c.vt0, c.leff))
    }

    /// The footprint's device-physics constants.
    pub(crate) fn device(&self) -> &DeviceParams {
        &self.device
    }

    /// `delay_factor`'s per-call terms at `(vdd, vbb, t_c)`.
    fn cond_terms(&self, vdd: f64, vbb: f64, t_c: f64) -> CondTerms {
        let d = &self.device;
        CondTerms {
            vdd,
            vt_shift_t: d.k1_vt_per_kelvin * (t_c - d.t_ref_c),
            vt_shift_vdd: d.k2_vt_per_vdd * (vdd - d.vdd_nominal),
            vt_shift_vbb: d.k3_vt_per_vbb * vbb,
            vdd_ratio: vdd / d.vdd_nominal,
            mobility: ((t_c + KELVIN) / (d.t_ref_c + KELVIN)).powf(d.mu_exp),
        }
    }

    /// The cell's local threshold voltage, summed in
    /// `DeviceParams::vt_at`'s order.
    fn cell_vt(cell: &CellDevice, terms: &CondTerms) -> f64 {
        cell.vt0 + terms.vt_shift_t + terms.vt_shift_vdd + terms.vt_shift_vbb
    }

    /// The cell's delay factor (relative to nominal) from hoisted terms:
    /// `delay_factor`'s operands multiplied in its order, so bit-identical
    /// to it, with one `powf` per cell instead of four.
    fn hoisted_factor(&self, cell: &CellDevice, terms: &CondTerms) -> f64 {
        let vt = Self::cell_vt(cell, terms);
        assert!(
            terms.vdd > vt,
            "supply voltage {} V must exceed threshold {vt} V",
            terms.vdd
        );
        terms.vdd_ratio
            * cell.leff_term
            * terms.mobility
            * (self.overdrive_nom / (terms.vdd - vt).powf(self.device.alpha))
    }

    /// The largest per-cell delay factor at `cond` (the slowest spot).
    pub fn worst_cell_factor(&self, cond: &OperatingConditions) -> f64 {
        let terms = self.cond_terms(cond.vdd.get(), cond.vbb.get(), cond.t_c);
        self.cells
            .iter()
            .map(|c| self.hoisted_factor(c, &terms))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The one per-cell `PE` loop: `ln(1 - PE)` at `f` under `cond`,
    /// summed over the cells in footprint order, each contributing
    /// `paths / n_cells` independent paths. A cell that misses with
    /// certainty (`q >= 1`) ends the loop at `-inf` (`PE = 1`). `None`
    /// as soon as the running sum falls below `log_cap`: each cell only
    /// lowers it, so it then stays below.
    fn log_ok(&self, f: GHz, cond: &OperatingConditions, log_cap: f64) -> Option<f64> {
        assert!(f.get() > 0.0, "frequency must be positive");
        let t = f.period_ns();
        let per_cell_paths = self.dist.paths() / self.cells.len() as f64;
        let terms = self.cond_terms(cond.vdd.get(), cond.vbb.get(), cond.t_c);
        let mut log_ok = 0.0f64;
        for cell in &self.cells {
            let q = self
                .dist
                .scaled(self.hoisted_factor(cell, &terms))
                .single_path_miss(t);
            if q >= 1.0 {
                return Some(f64::NEG_INFINITY);
            }
            log_ok += per_cell_paths * (-q).ln_1p();
            if log_ok < log_cap {
                return None;
            }
        }
        Some(log_ok)
    }

    /// Error probability **per access** at frequency `f` under `cond`.
    ///
    /// # Panics
    ///
    /// Panics if `f <= 0` or if `cond.vdd` does not exceed the local
    /// threshold voltage (an invalid operating point).
    pub fn pe_access(&self, f: GHz, cond: &OperatingConditions) -> f64 {
        // With no cap the loop never stops early.
        let log_ok = self.log_ok(f, cond, f64::NEG_INFINITY);
        -log_ok.unwrap_or(f64::NEG_INFINITY).exp_m1()
    }

    /// Budget-aware variant of [`pe_access`] for the hot path: `None`
    /// exactly when `scale * pe_access(f, cond) > cap` (the caller's
    /// `rho * PE > budget` test), else `Some` of `pe_access`'s bits.
    ///
    /// The cell loop is `pe_access`'s, stopped early once the partial
    /// product proves the budget broken with a relative margin of `1e-6`
    /// to spare; the partial product is a lower bound on the
    /// final `PE`, so such an exit implies the final test. A point that
    /// does not exit early is decided by that same final test, so both
    /// answers are exact.
    ///
    /// [`pe_access`]: StageTiming::pe_access
    ///
    /// # Panics
    ///
    /// Panics if `f <= 0` or if `cond.vdd` does not exceed the local
    /// threshold voltage (an invalid operating point).
    pub fn pe_access_bounded(
        &self,
        f: GHz,
        cond: &OperatingConditions,
        scale: f64,
        cap: f64,
    ) -> Option<f64> {
        // A saturated cell gives `PE = 1`: the test is then `scale > cap`.
        let pe = -self.log_ok(f, cond, log_cap(scale, cap))?.exp_m1();
        if scale * pe > cap {
            None
        } else {
            Some(pe)
        }
    }

    /// Whether `scale * PE(f) > cap` at **every** temperature in
    /// `[t_lo_c, t_hi_c]` at supply `vdd` and body bias `vbb`, proven
    /// from a lower bound on `PE` without any thermal solve. `false`
    /// means "not proven", never "within budget".
    ///
    /// Each cell's `ln D(T)` has the derivative
    /// `(mu_exp * od(T) + alpha * k1 * T_k) / (T_k * od(T))`, where
    /// `od = Vdd - Vt` is the overdrive. The numerator is linear in `T`,
    /// so when it has the same sign at both ends the cell's delay factor
    /// is monotone over the range and smallest at the end that sign
    /// picks (`TH` when non-negative, `TMAX` when non-positive). `PE`
    /// rises with every cell's factor, so the product over those minima
    /// bounds `PE` from below over the whole range. When the signs differ
    /// (an interior minimum is possible) or `od <= 0` at either end (the
    /// delay model is undefined there) the method gives no verdict.
    ///
    /// The comparison keeps a relative margin of `1e-6` on `cap`, far
    /// above the rounding of the bound, so a point the method rejects
    /// fails the exact `scale * pe_access(f, cond) > cap` test at every
    /// temperature in the range. It never panics.
    pub fn pe_exceeds_over(
        &self,
        f: GHz,
        vdd: Volts,
        vbb: Volts,
        (t_lo_c, t_hi_c): (f64, f64),
        scale: f64,
        cap: f64,
    ) -> bool {
        let t = f.period_ns();
        // Also rejects `f <= 0` (and NaN): no verdict.
        if !(t > 0.0 && t.is_finite()) {
            return false;
        }
        let d = &self.device;
        let per_cell_paths = self.dist.paths() / self.cells.len() as f64;
        let (vdd, vbb) = (vdd.get(), vbb.get());
        let lo = self.cond_terms(vdd, vbb, t_lo_c);
        let hi = self.cond_terms(vdd, vbb, t_hi_c);
        let (slope_lo, slope_hi) = (
            d.alpha * d.k1_vt_per_kelvin * (t_lo_c + KELVIN),
            d.alpha * d.k1_vt_per_kelvin * (t_hi_c + KELVIN),
        );
        let log_cap = log_cap(scale, cap);
        let mut log_ok = 0.0f64;
        for cell in &self.cells {
            let (od_lo, od_hi) = (
                vdd - Self::cell_vt(cell, &lo),
                vdd - Self::cell_vt(cell, &hi),
            );
            if !(od_lo > 0.0 && od_hi > 0.0) {
                return false;
            }
            let (g_lo, g_hi) = (d.mu_exp * od_lo + slope_lo, d.mu_exp * od_hi + slope_hi);
            let min_end = if g_lo >= 0.0 && g_hi >= 0.0 {
                &lo
            } else if g_lo <= 0.0 && g_hi <= 0.0 {
                &hi
            } else {
                return false;
            };
            let q = self
                .dist
                .scaled(self.hoisted_factor(cell, min_end))
                .single_path_miss(t);
            if q >= 1.0 {
                return log_cap > f64::NEG_INFINITY;
            }
            log_ok += per_cell_paths * (-q).ln_1p();
            // Later cells only lower `log_ok`.
            if log_ok < log_cap {
                return true;
            }
        }
        false
    }

    /// Maximum frequency at which the per-access error probability stays at
    /// or below `pe_threshold`, under `cond`. Solved by bisection; `PE` is
    /// monotone in `f`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pe_threshold < 1`.
    pub fn max_frequency(&self, cond: &OperatingConditions, pe_threshold: f64) -> GHz {
        assert!(
            pe_threshold > 0.0 && pe_threshold < 1.0,
            "threshold must be a probability in (0, 1)"
        );
        let (mut lo, mut hi) = (0.25f64, 40.0f64);
        // Ensure bracketing: at `lo` we expect no errors.
        if self.pe_access(GHz::raw(lo), cond) > pe_threshold {
            return GHz::raw(lo);
        }
        for _ in 0..70 {
            let mid = 0.5 * (lo + hi);
            if self.pe_access(GHz::raw(mid), cond) <= pe_threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        GHz::raw(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{PathClass, SubsystemKind};
    use crate::reference;
    use eval_variation::{ChipGrid, VariationModel, VariationParams};

    fn test_stage(kind: SubsystemKind, seed: u64) -> StageTiming {
        let model = VariationModel::new(ChipGrid::square(8), VariationParams::micro08());
        let chip = model.sample_chip(seed);
        let cells: Vec<usize> = (0..8).collect();
        StageTiming::from_chip(
            &PathClass::for_kind(kind),
            0.25,
            &chip,
            &cells,
            DeviceParams::micro08(),
            12,
        )
    }

    #[test]
    fn bounded_pe_matches_unbounded_classification_and_bits() {
        let stage = test_stage(SubsystemKind::Logic, 7);
        let cond = OperatingConditions {
            vdd: Volts::raw(1.0),
            vbb: Volts::raw(0.0),
            t_c: 65.0,
        };
        let (scale, cap) = (0.6, 1e-4);
        for i in 0..33 {
            let f = GHz::raw(2.4 + 0.1 * i as f64);
            let full = reference::pe_access(&stage, f, &cond);
            let bounded = stage.pe_access_bounded(f, &cond, scale, cap);
            if scale * full > cap {
                assert!(bounded.is_none(), "f={f:?}: expected early None");
            } else {
                let pe = bounded.expect("within budget");
                assert_eq!(pe.to_bits(), full.to_bits(), "f={f:?}");
            }
        }
    }

    #[test]
    fn variation_lowers_max_frequency_below_nominal_on_average() {
        let mut below = 0;
        let n = 20;
        for seed in 0..n {
            let stage = test_stage(SubsystemKind::Memory, seed);
            let f = stage.max_frequency(&OperatingConditions::nominal(), 1e-12);
            if f.get() < 4.0 {
                below += 1;
            }
        }
        assert!(
            below > n / 2,
            "most chips should lose frequency to variation ({below}/{n})"
        );
    }

    #[test]
    fn pe_monotone_in_frequency_under_variation() {
        let stage = test_stage(SubsystemKind::Mixed, 3);
        let cond = OperatingConditions::nominal();
        let mut prev = 0.0;
        for k in 0..60 {
            let f = GHz::raw(3.0 + 0.05 * k as f64);
            let pe = stage.pe_access(f, &cond);
            assert!(pe >= prev - 1e-18);
            prev = pe;
        }
    }

    #[test]
    fn higher_vdd_raises_max_frequency() {
        let stage = test_stage(SubsystemKind::Logic, 5);
        let base = stage.max_frequency(&OperatingConditions::nominal(), 1e-12);
        let boosted = stage.max_frequency(
            &OperatingConditions {
                vdd: Volts::raw(1.2),
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        assert!(boosted.get() > base.get(), "boosted={boosted} base={base}");
    }

    #[test]
    fn forward_body_bias_raises_max_frequency() {
        let stage = test_stage(SubsystemKind::Logic, 5);
        let base = stage.max_frequency(&OperatingConditions::nominal(), 1e-12);
        let fbb = stage.max_frequency(
            &OperatingConditions {
                vbb: Volts::raw(0.5),
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        assert!(fbb.get() > base.get());
    }

    #[test]
    fn cooler_subsystem_is_faster() {
        let stage = test_stage(SubsystemKind::Mixed, 9);
        let hot = stage.max_frequency(
            &OperatingConditions {
                t_c: 100.0,
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        let cool = stage.max_frequency(
            &OperatingConditions {
                t_c: 60.0,
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        assert!(cool.get() > hot.get());
    }

    #[test]
    fn memory_onset_is_sharper_than_logic() {
        // Measure the frequency span between PE = 1e-8 and PE = 1e-2 per
        // access; memory should cross it in a narrower relative band.
        let cond = OperatingConditions::nominal();
        let span = |stage: &StageTiming| {
            let f_lo = stage.max_frequency(&cond, 1e-8).get();
            let f_hi = stage.max_frequency(&cond, 1e-2).get();
            (f_hi - f_lo) / f_lo
        };
        let mem = span(&test_stage(SubsystemKind::Memory, 11));
        let logic = span(&test_stage(SubsystemKind::Logic, 11));
        assert!(
            mem < logic,
            "memory span {mem} should be narrower than logic span {logic}"
        );
    }

    #[test]
    fn measured_vt0_tracks_footprint_mean() {
        let stage = test_stage(SubsystemKind::Memory, 2);
        let vt0 = stage.measured_vt0();
        assert!(vt0 > 0.05 && vt0 < 0.30, "vt0={vt0}");
    }

    #[test]
    fn screen_gives_no_verdict_where_the_delay_model_is_undefined() {
        // A supply at the threshold: `delay_factor` would assert, the
        // screen must answer "not proven" instead.
        let stage = test_stage(SubsystemKind::Logic, 4);
        let vdd = Volts::raw(0.05);
        for range in [(60.0, 85.0), (85.0, 85.0)] {
            assert!(!stage.pe_exceeds_over(GHz::raw(5.6), vdd, Volts::raw(0.0), range, 1.0, 1e-9));
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A random stage and condition, at the frequency where `PE`
        /// crosses `10^log10_pe`.
        fn scenario(
            seed: u64,
            kind: usize,
            vdd: f64,
            vbb: f64,
            t_c: f64,
            log10_pe: f64,
        ) -> (StageTiming, OperatingConditions, GHz) {
            let stage = test_stage(SubsystemKind::ALL[kind], seed);
            let cond = OperatingConditions {
                vdd: Volts::raw(vdd),
                vbb: Volts::raw(vbb),
                t_c,
            };
            let f = stage.max_frequency(&cond, 10f64.powf(log10_pe));
            (stage, cond, f)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The hoisted kernel's `PE` is the unhoisted reference's,
            /// bit for bit: at the crossing frequency, at frequencies
            /// where some cell misses with certainty (`q >= 1`), and with
            /// the supply just above the footprint's highest threshold.
            #[test]
            fn prop_pe_access_matches_the_reference_bit_for_bit(
                seed in 0u64..40,
                kind in 0usize..3,
                vdd in 0.8f64..1.2,
                vbb in -0.5f64..0.5,
                t_c in 40.0f64..130.0,
                log10_pe in -16.0f64..-0.1,
                overclock in 1.0f64..4.0,
                log10_headroom in -9.0f64..-0.5,
            ) {
                let (stage, cond, f) = scenario(seed, kind, vdd, vbb, t_c, log10_pe);
                let same = |f: GHz, cond: &OperatingConditions| {
                    let kernel = stage.pe_access(f, cond);
                    let witness = reference::pe_access(&stage, f, cond);
                    (kernel.to_bits(), witness.to_bits())
                };
                let (kernel, witness) = same(f, &cond);
                prop_assert_eq!(kernel, witness);
                // Far past the crossing every cell saturates.
                let (kernel, witness) = same(GHz::raw(f.get() * 4.0 * overclock), &cond);
                prop_assert_eq!(kernel, witness);
                prop_assert_eq!(f64::from_bits(kernel), 1.0);
                // The supply that leaves the highest-`Vt0` cell an
                // overdrive of `headroom` (`Vt` itself moves with `Vdd`).
                let d = DeviceParams::micro08();
                let vt0 = stage
                    .cell_params()
                    .map(|(vt0, _)| vt0)
                    .fold(f64::NEG_INFINITY, f64::max);
                let vt_rest = vt0 + d.k1_vt_per_kelvin * (t_c - d.t_ref_c)
                    - d.k2_vt_per_vdd * d.vdd_nominal
                    + d.k3_vt_per_vbb * vbb;
                let vdd_low = (10f64.powf(log10_headroom) + vt_rest) / (1.0 - d.k2_vt_per_vdd);
                let low = OperatingConditions {
                    vdd: Volts::raw(vdd_low),
                    ..cond
                };
                let od = low.vdd.get() - d.vt_at(vt0, t_c, low.vdd.get(), vbb);
                prop_assert!(od > 0.0, "overdrive {od:e}");
                for f in [GHz::raw(0.25), f] {
                    let (kernel, witness) = same(f, &low);
                    prop_assert_eq!(kernel, witness);
                }
            }

            /// The hoisted kernel answers `None` exactly when `scale`
            /// times the reference `PE` exceeds `cap`, and otherwise
            /// returns the reference's bits, also at caps of
            /// `scale * pe` and one ulp either side of it, at the
            /// crossing frequency and where every cell saturates.
            #[test]
            fn prop_hoisted_bounded_kernel_matches_pe_access(
                seed in 0u64..40,
                kind in 0usize..3,
                vdd in 0.8f64..1.2,
                vbb in -0.5f64..0.5,
                t_c in 40.0f64..130.0,
                log10_pe in -16.0f64..-0.1,
                scale in 0.05f64..2.5,
                log10_cap in -14.0f64..-1.0,
            ) {
                let (stage, cond, f) = scenario(seed, kind, vdd, vbb, t_c, log10_pe);
                for f in [f, GHz::raw(f.get() * 16.0)] {
                    let pe = reference::pe_access(&stage, f, &cond);
                    let exact = scale * pe;
                    for cap in [10f64.powf(log10_cap), exact, exact.next_down(), exact.next_up()] {
                        let bounded = stage.pe_access_bounded(f, &cond, scale, cap);
                        if scale * pe > cap {
                            prop_assert!(bounded.is_none(), "cap {cap:e}: want None, pe {pe:e}");
                        } else {
                            prop_assert_eq!(bounded.map(f64::to_bits), Some(pe.to_bits()));
                        }
                    }
                }
            }

            /// On a one-temperature range the screen's bound is the exact
            /// `PE` there (same factors, same accumulation), so only the
            /// margin on `cap` keeps rounding from rejecting a point the
            /// exact test accepts: at `cap = scale * pe`, one ulp above,
            /// or any cap the exact test meets, the screen must not
            /// reject. Well over budget it must.
            #[test]
            fn prop_screen_on_one_temperature_never_rejects_a_within_budget_point(
                seed in 0u64..40,
                kind in 0usize..3,
                vdd in 0.8f64..1.2,
                vbb in -0.5f64..0.5,
                t_c in 40.0f64..130.0,
                log10_pe in -16.0f64..-0.1,
                scale in 0.05f64..2.5,
                log10_cap in -14.0f64..-1.0,
            ) {
                let (stage, cond, f) = scenario(seed, kind, vdd, vbb, t_c, log10_pe);
                let pe = reference::pe_access(&stage, f, &cond);
                let exact = scale * pe;
                let range = (t_c, t_c);
                for cap in [10f64.powf(log10_cap), exact, exact.next_up()] {
                    if stage.pe_exceeds_over(f, cond.vdd, cond.vbb, range, scale, cap) {
                        prop_assert!(scale * pe > cap, "cap {cap:e}: rejected, pe {pe:e}");
                    }
                }
                if pe > 1e-300 {
                    prop_assert!(stage.pe_exceeds_over(f, cond.vdd, cond.vbb, range, scale, 0.5 * exact));
                }
            }
        }
    }
}
