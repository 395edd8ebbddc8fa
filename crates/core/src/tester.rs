//! The manufacturer's tester flow (§4.1): "Vt0 is variation-dependent, and
//! is measured on a tester at a known T by suspending the clocks and
//! individually powering on each of the subsystems. The current flowing in
//! is the leakage of that subsystem, from which Vt0 can be computed
//! according to Equation 8."
//!
//! Because leakage is a convex (exponential) function of `-Vt`, the
//! leakage-implied effective `Vt0` sits slightly *below* the footprint's
//! arithmetic mean — the leaky cells dominate the measured current. Using
//! the implied value (as the real flow would) makes the stored power
//! constants reproduce the subsystem's true leakage exactly at the test
//! point.

use eval_timing::StageTiming;
use eval_variation::{leakage_factor, DeviceParams};

/// Simulated tester measurement: powers the subsystem at a known
/// temperature/voltage, observes its leakage, and inverts Equation 8 for
/// the effective `Vt0`.
///
/// The returned value satisfies
/// `leakage_factor(vt0_eff) = mean_cells(leakage_factor(vt0_cell))`.
///
/// # Panics
///
/// Panics if the stage has no cells (cannot happen for stages built by
/// this workspace).
pub fn measure_vt0(timing: &StageTiming, device: &DeviceParams) -> f64 {
    let t_test = device.t_ref_c;
    let vdd_test = device.vdd_nominal;
    let mut total = 0.0;
    let mut n = 0usize;
    for (vt0, _leff) in timing.cell_params() {
        total += leakage_factor(device, vt0, vdd_test, t_test);
        n += 1;
    }
    assert!(n > 0, "stage must have at least one cell");
    let observed = total / n as f64;

    // Invert the monotone leakage(Vt) relation by bisection.
    let (mut lo, mut hi) = (0.0f64, 1.0f64); // volts
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if leakage_factor(device, mid, vdd_test, t_test) > observed {
            // Too leaky: threshold is higher than mid.
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipFactory;
    use crate::config::EvalConfig;
    use crate::chip::VariantSelection;
    use eval_uarch::SubsystemId;
    use std::sync::OnceLock;

    fn factory() -> &'static ChipFactory {
        static F: OnceLock<ChipFactory> = OnceLock::new();
        F.get_or_init(|| ChipFactory::new(EvalConfig::micro08()))
    }

    #[test]
    fn implied_vt0_reproduces_observed_leakage() {
        let cfg = factory().config().clone();
        let chip = factory().chip(21);
        let timing = chip
            .core(0)
            .subsystem(SubsystemId::Dcache)
            .timing(&VariantSelection::default());
        let vt0 = measure_vt0(timing, &cfg.device);
        // Round trip: the implied Vt0's leakage equals the mean cell leakage.
        let mean_leak = timing
            .cell_params()
            .map(|(v, _)| eval_variation::leakage_factor(&cfg.device, v, 1.0, cfg.device.t_ref_c))
            .sum::<f64>()
            / timing.cell_count() as f64;
        let implied = eval_variation::leakage_factor(&cfg.device, vt0, 1.0, cfg.device.t_ref_c);
        assert!(
            (implied / mean_leak - 1.0).abs() < 1e-9,
            "implied {implied} vs observed {mean_leak}"
        );
    }

    #[test]
    fn implied_vt0_sits_at_or_below_the_arithmetic_mean() {
        // Jensen: exp is convex, so the leakage-weighted effective Vt is
        // pulled toward the leaky (low-Vt) cells.
        let cfg = factory().config().clone();
        for seed in [22, 23, 24] {
            let chip = factory().chip(seed);
            for id in [SubsystemId::Dcache, SubsystemId::IntAlu, SubsystemId::Icache] {
                let timing = chip.core(0).subsystem(id).timing(&VariantSelection::default());
                let implied = measure_vt0(timing, &cfg.device);
                let mean = timing.measured_vt0();
                assert!(
                    implied <= mean + 1e-12,
                    "{id}: implied {implied} above mean {mean}"
                );
                // ...but within a few sigma of it.
                assert!(mean - implied < 0.02, "{id}: gap {}", mean - implied);
            }
        }
    }

    #[test]
    fn uniform_footprint_measures_exactly() {
        // On the no-variation chip every cell is nominal, so the tester
        // recovers the nominal threshold exactly.
        let cfg = factory().config().clone();
        let chip = factory().no_variation();
        let timing = chip
            .core(0)
            .subsystem(SubsystemId::Decode)
            .timing(&VariantSelection::default());
        let vt0 = measure_vt0(timing, &cfg.device);
        assert!((vt0 - cfg.device.vt_nominal).abs() < 1e-9);
    }
}
