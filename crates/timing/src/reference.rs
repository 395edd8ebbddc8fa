//! Independent witnesses of the hoisted `PE` kernel, for equivalence
//! tests and the `hotpath` benchmark's reference column.
//!
//! [`pe_access`] evaluates a stage's error probability the unhoisted way:
//! every cell's threshold voltage from [`DeviceParams::vt_at`] and its
//! delay factor from [`delay_factor`], so it shares no loop and no
//! hoisted term with [`StageTiming::pe_access`]. The kernel must match
//! it bit for bit.
//!
//! [`DeviceParams::vt_at`]: eval_variation::DeviceParams::vt_at

use eval_units::GHz;
use eval_variation::delay_factor;

use crate::stage::{OperatingConditions, StageTiming};

/// [`StageTiming::pe_access`] computed cell by cell through
/// `delay_factor`: four `powf` per cell.
///
/// # Panics
///
/// Panics if `f <= 0` or if `cond.vdd` does not exceed a cell's
/// threshold voltage.
pub fn pe_access(stage: &StageTiming, f: GHz, cond: &OperatingConditions) -> f64 {
    assert!(f.get() > 0.0, "frequency must be positive");
    let t = f.period_ns();
    let dist = stage.distribution();
    let device = stage.device();
    let (vdd, vbb) = (cond.vdd.get(), cond.vbb.get());
    let per_cell_paths = dist.paths() / stage.cell_count() as f64;
    let mut log_ok = 0.0f64;
    for (vt0, leff) in stage.cell_params() {
        let vt = device.vt_at(vt0, cond.t_c, vdd, vbb);
        let q = dist
            .scaled(delay_factor(device, vt, leff, vdd, cond.t_c))
            .single_path_miss(t);
        if q >= 1.0 {
            return 1.0;
        }
        log_ok += per_cell_paths * (-q).ln_1p();
    }
    -log_ok.exp_m1()
}
