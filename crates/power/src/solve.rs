//! Fixed-point solvers for the thermal/leakage feedback loop
//! (Equations 6–9).
//!
//! Two solvers share one epilogue:
//!
//! * [`solve_thermal`] / [`solve_thermal_seeded`] — the production path.
//!   It iterates the *undamped* map `T -> TH + Rth * P(T)`. Because the
//!   map's slope `g' = Rth * dPsta/dT` is small (leakage e-folds every
//!   ~30 °C, so `g'` is typically 0.01–0.3), the undamped iteration
//!   contracts at ratio `g'` and needs ~5–7 evaluations from a cold start
//!   and 2–4 from a warm one — versus ~25–30 for the historical 0.5-damped
//!   stepping, whose ratio is pinned near 0.5 regardless of the start.
//!   If a step ever grows (a non-contracting corner of parameter space),
//!   the loop falls back permanently to 0.5 damping — a deterministic
//!   rule, so results stay reproducible. The seeded entry point powers the
//!   warm-started ladder sweeps of `eval_power::cache`.
//! * [`solve_thermal_reference`] — the original damped iteration, kept
//!   verbatim as the independent witness for equivalence tests and as the
//!   "before" side of the hot-path benchmarks.
//!
//! The production solver converges the step to `1e-7` °C (tighter than
//! the reference's `1e-6` damped step) so that the *choice of starting
//! guess* cannot move the answer beyond ulp scale: the remaining error is
//! bounded by `g'/(1-g') * 1e-7`, far below every decision threshold in
//! the system.
//
// lint:hot-path — this module is on the operating-point fast path; the
// no-alloc-in-check rule forbids Vec construction outside tests here.

use std::fmt;

use eval_variation::{leakage_factor, DeviceParams};

use crate::op::OperatingPoint;
use crate::params::{SubsystemPowerParams, ThermalEnvironment};

/// The converged operating state of one subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSolution {
    /// Steady-state subsystem temperature, Celsius.
    pub t_c: f64,
    /// Threshold voltage at that temperature and the applied biases, volts.
    pub vt: f64,
    /// Dynamic power, watts.
    pub pdyn_w: f64,
    /// Static (leakage) power, watts.
    pub psta_w: f64,
}

impl ThermalSolution {
    /// Total subsystem power in watts.
    pub fn total_w(&self) -> f64 {
        self.pdyn_w + self.psta_w
    }
}

/// Error: the leakage/temperature feedback diverged (thermal runaway) or
/// the operating point is electrically invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalRunaway {
    /// Temperature reached when the solver gave up, Celsius.
    pub t_c: f64,
}

impl fmt::Display for ThermalRunaway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thermal runaway: temperature diverged past {:.0} C",
            self.t_c
        )
    }
}

impl std::error::Error for ThermalRunaway {}

/// Temperature ceiling beyond which the iteration is declared divergent.
pub(crate) const T_RUNAWAY_C: f64 = 250.0;

/// Iteration budget shared by both solvers.
const MAX_ITERS: u32 = 200;

/// Step tolerance of the production (undamped) solver, Celsius.
const FAST_TOL_C: f64 = 1e-7;

/// Per-solve effort accounting, accumulated into the caller's counters
/// (flushed as `solver.*` metrics through eval-trace by the cache layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Fixed-point map evaluations performed.
    pub iterations: u32,
    /// Whether any solve exhausted the iteration budget and accepted the
    /// last iterate (bounded, slow convergence).
    pub slow_convergence: bool,
}

/// `(Vt, Psta)` at one temperature — the body of the fixed-point map.
#[inline]
fn vt_psta(
    params: &SubsystemPowerParams,
    op: &OperatingPoint,
    device: &DeviceParams,
    t_c: f64,
) -> (f64, f64) {
    let vt = device.vt_at(params.vt0, t_c, op.vdd.get(), op.vbb.get());
    let psta = params.ksta_nom_w * leakage_factor(device, vt, op.vdd.get(), t_c);
    (vt, psta)
}

/// The shared solver epilogue: re-derives `Vt` and `Psta` at the accepted
/// temperature exactly once and packages the solution. Every exit of both
/// solvers funnels through here, so no exit recomputes the pair twice.
#[inline]
fn finish(
    params: &SubsystemPowerParams,
    op: &OperatingPoint,
    device: &DeviceParams,
    pdyn_w: f64,
    t_c: f64,
) -> ThermalSolution {
    let (vt, psta_w) = vt_psta(params, op, device, t_c);
    ThermalSolution {
        t_c,
        vt,
        pdyn_w,
        psta_w,
    }
}

/// The canonical cold-start temperature: what every unseeded solve begins
/// from. Warm-start seeds must be derived from canonically solved points
/// (see `eval_power::cache`) so results never depend on query order.
pub fn cold_start_c(env: &ThermalEnvironment, device: &DeviceParams) -> f64 {
    env.th_c.max(device.t_ref_c * 0.5)
}

/// Solves the feedback system of Equations 6–9 for one subsystem from the
/// canonical cold start.
///
/// # Errors
///
/// Returns [`ThermalRunaway`] if the temperature diverges past 250 C —
/// callers treat such operating points as violating `TMAX` by a wide margin.
pub fn solve_thermal(
    params: &SubsystemPowerParams,
    env: &ThermalEnvironment,
    op: &OperatingPoint,
    device: &DeviceParams,
) -> Result<ThermalSolution, ThermalRunaway> {
    let mut stats = SolveStats::default();
    solve_thermal_seeded(params, env, op, device, cold_start_c(env, device), &mut stats)
}

/// [`solve_thermal`] from an explicit starting temperature `t0_c`,
/// accumulating effort into `stats`.
///
/// The undamped map `g(T) = TH + Rth * (Pdyn + Psta(T))` is increasing in
/// `T`, so iterates approach the stable fixed point monotonically from
/// either side — a seed below the answer (a colder ladder point) ascends,
/// a seed above it descends; neither overshoots. The converged value is a
/// property of the operating point alone (to the `1e-7` step tolerance),
/// not of the seed.
///
/// # Errors
///
/// Returns [`ThermalRunaway`] if the temperature diverges past 250 C.
pub fn solve_thermal_seeded(
    params: &SubsystemPowerParams,
    env: &ThermalEnvironment,
    op: &OperatingPoint,
    device: &DeviceParams,
    t0_c: f64,
    stats: &mut SolveStats,
) -> Result<ThermalSolution, ThermalRunaway> {
    let pdyn = params.pdyn_w(env.alpha_f, op.vdd, op.f);
    let mut t_c = t0_c;
    let mut prev_step = f64::INFINITY;
    let mut damped = false;
    for iter in 1..=MAX_ITERS {
        let t_next = env.th_c + params.rth_c_per_w * (pdyn + vt_psta(params, op, device, t_c).1);
        if t_next > T_RUNAWAY_C || !t_next.is_finite() {
            stats.iterations += iter;
            return Err(ThermalRunaway { t_c: t_next.min(1e6) });
        }
        let step = (t_next - t_c).abs();
        // Contraction guard: if a step ever grows, the undamped map is not
        // contracting here — drop to the reference damping for the rest of
        // this solve. The rule is deterministic, so repeated solves of the
        // same point take the same path.
        if step > prev_step {
            damped = true;
        }
        prev_step = step;
        let t_new = if damped { 0.5 * (t_c + t_next) } else { t_next };
        if (t_new - t_c).abs() < FAST_TOL_C {
            stats.iterations += iter;
            return Ok(finish(params, op, device, pdyn, t_new));
        }
        t_c = t_new;
    }
    stats.iterations += MAX_ITERS;
    stats.slow_convergence = true;
    // Slow but bounded convergence: accept the last iterate.
    Ok(finish(params, op, device, pdyn, t_c))
}

/// The original 0.5-damped fixed-point iteration, unchanged: iterates
/// `T -> Vt(T) -> Psta(T, Vt) -> T` with 0.5 damping until the temperature
/// moves by less than 1e-6 C (typically < 30 iterations).
///
/// Kept as the independent reference implementation for the grid
/// equivalence tests (`tests/hotpath_equivalence.rs`) and the "before"
/// side of the hot-path benchmarks; production code uses [`solve_thermal`].
///
/// # Errors
///
/// Returns [`ThermalRunaway`] if the temperature diverges past 250 C.
pub fn solve_thermal_reference(
    params: &SubsystemPowerParams,
    env: &ThermalEnvironment,
    op: &OperatingPoint,
    device: &DeviceParams,
) -> Result<ThermalSolution, ThermalRunaway> {
    let pdyn = params.pdyn_w(env.alpha_f, op.vdd, op.f);
    let mut t_c = cold_start_c(env, device);
    for _ in 0..MAX_ITERS {
        let t_next = env.th_c + params.rth_c_per_w * (pdyn + vt_psta(params, op, device, t_c).1);
        if t_next > T_RUNAWAY_C || !t_next.is_finite() {
            return Err(ThermalRunaway { t_c: t_next.min(1e6) });
        }
        let t_new = 0.5 * t_c + 0.5 * t_next;
        if (t_new - t_c).abs() < 1e-6 {
            return Ok(finish(params, op, device, pdyn, t_new));
        }
        t_c = t_new;
    }
    // Slow but bounded convergence: accept the last iterate.
    Ok(finish(params, op, device, pdyn, t_c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SubsystemPowerParams {
        SubsystemPowerParams {
            kdyn_w: 0.4,
            ksta_nom_w: 0.15,
            rth_c_per_w: 6.0,
            vt0: 0.150,
        }
    }

    fn env() -> ThermalEnvironment {
        ThermalEnvironment {
            th_c: 55.0,
            alpha_f: 0.8,
        }
    }

    #[test]
    fn solution_satisfies_equation_6() {
        let device = DeviceParams::micro08();
        let op = OperatingPoint::nominal();
        let sol = solve_thermal(&params(), &env(), &op, &device).expect("solver converges");
        let rhs = env().th_c + params().rth_c_per_w * sol.total_w();
        assert!(
            (sol.t_c - rhs).abs() < 1e-4,
            "T = {} but TH + Rth*P = {}",
            sol.t_c,
            rhs
        );
    }

    #[test]
    fn fast_and_reference_solvers_agree() {
        let device = DeviceParams::micro08();
        for (f, vdd, vbb) in [
            (2.4, 0.8, -0.5),
            (4.0, 1.0, 0.0),
            (4.8, 1.1, 0.3),
            (5.6, 1.2, 0.5),
        ] {
            let op = OperatingPoint::raw(f, vdd, vbb);
            let fast = solve_thermal(&params(), &env(), &op, &device).expect("fast converges");
            let reference =
                solve_thermal_reference(&params(), &env(), &op, &device).expect("ref converges");
            assert!(
                (fast.t_c - reference.t_c).abs() < 1e-4,
                "fast {} vs reference {}",
                fast.t_c,
                reference.t_c
            );
            assert!((fast.total_w() - reference.total_w()).abs() < 1e-5);
        }
    }

    #[test]
    fn fast_solver_needs_few_iterations() {
        let device = DeviceParams::micro08();
        let op = OperatingPoint::nominal();
        let mut stats = SolveStats::default();
        let sol = solve_thermal_seeded(
            &params(),
            &env(),
            &op,
            &device,
            cold_start_c(&env(), &device),
            &mut stats,
        )
        .expect("solver converges");
        assert!(
            stats.iterations <= 15,
            "cold undamped solve took {} iterations",
            stats.iterations
        );
        assert!(!stats.slow_convergence);

        // Warm start from the converged answer: nearly free.
        let mut warm = SolveStats::default();
        let again =
            solve_thermal_seeded(&params(), &env(), &op, &device, sol.t_c, &mut warm)
                .expect("solver converges");
        assert!(warm.iterations <= 3, "warm solve took {}", warm.iterations);
        assert!((again.t_c - sol.t_c).abs() < 1e-6);
    }

    #[test]
    fn seed_above_the_fixed_point_descends_to_the_same_answer() {
        let device = DeviceParams::micro08();
        let op = OperatingPoint::nominal();
        let cold = solve_thermal(&params(), &env(), &op, &device).expect("solver converges");
        let mut stats = SolveStats::default();
        let from_above = solve_thermal_seeded(
            &params(),
            &env(),
            &op,
            &device,
            cold.t_c + 40.0,
            &mut stats,
        )
        .expect("solver converges");
        assert!((from_above.t_c - cold.t_c).abs() < 1e-6);
    }

    #[test]
    fn higher_vdd_runs_hotter_and_leaks_more() {
        let device = DeviceParams::micro08();
        let base = solve_thermal(&params(), &env(), &OperatingPoint::nominal(), &device).expect("solver converges");
        let boosted = solve_thermal(
            &params(),
            &env(),
            &OperatingPoint {
                vdd: eval_units::Volts::raw(1.2),
                ..OperatingPoint::nominal()
            },
            &device,
        )
        .expect("solver converges");
        assert!(boosted.t_c > base.t_c);
        assert!(boosted.psta_w > base.psta_w);
        assert!(boosted.pdyn_w > base.pdyn_w);
    }

    #[test]
    fn forward_bias_increases_leakage() {
        let device = DeviceParams::micro08();
        let base = solve_thermal(&params(), &env(), &OperatingPoint::nominal(), &device).expect("solver converges");
        let fbb = solve_thermal(
            &params(),
            &env(),
            &OperatingPoint {
                vbb: eval_units::Volts::raw(0.5),
                ..OperatingPoint::nominal()
            },
            &device,
        )
        .expect("solver converges");
        assert!(fbb.psta_w > base.psta_w);
        assert!(fbb.vt < base.vt);
    }

    #[test]
    fn reverse_bias_cuts_leakage() {
        let device = DeviceParams::micro08();
        let base = solve_thermal(&params(), &env(), &OperatingPoint::nominal(), &device).expect("solver converges");
        let rbb = solve_thermal(
            &params(),
            &env(),
            &OperatingPoint {
                vbb: eval_units::Volts::raw(-0.5),
                ..OperatingPoint::nominal()
            },
            &device,
        )
        .expect("solver converges");
        assert!(rbb.psta_w < base.psta_w);
    }

    #[test]
    fn idle_subsystem_sits_near_heat_sink_temperature() {
        let device = DeviceParams::micro08();
        let quiet = ThermalEnvironment {
            th_c: 45.0,
            alpha_f: 0.0,
        };
        let tiny = SubsystemPowerParams {
            kdyn_w: 0.4,
            ksta_nom_w: 0.001,
            rth_c_per_w: 2.0,
            vt0: 0.150,
        };
        let sol = solve_thermal(&tiny, &quiet, &OperatingPoint::nominal(), &device).expect("solver converges");
        assert!(sol.pdyn_w == 0.0);
        assert!(sol.t_c - quiet.th_c < 0.5);
    }

    #[test]
    fn runaway_is_detected_by_both_solvers() {
        let device = DeviceParams::micro08();
        // Huge thermal resistance + strong leakage: diverges.
        let bad = SubsystemPowerParams {
            kdyn_w: 2.0,
            ksta_nom_w: 5.0,
            rth_c_per_w: 80.0,
            vt0: 0.10,
        };
        let tenv = ThermalEnvironment {
            th_c: 70.0,
            alpha_f: 1.0,
        };
        let op = OperatingPoint::raw(5.0, 1.2, 0.5);
        assert!(solve_thermal(&bad, &tenv, &op, &device).is_err());
        assert!(solve_thermal_reference(&bad, &tenv, &op, &device).is_err());
    }

    #[test]
    fn fixed_point_is_stable_across_restarts() {
        // Solving twice gives the same answer (deterministic).
        let device = DeviceParams::micro08();
        let a = solve_thermal(&params(), &env(), &OperatingPoint::nominal(), &device).expect("solver converges");
        let b = solve_thermal(&params(), &env(), &OperatingPoint::nominal(), &device).expect("solver converges");
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The returned state always satisfies Equation 6 to solver
        /// tolerance, for any plausible subsystem and operating point.
        #[test]
        fn prop_equation_6_residual(
            kdyn in 0.1f64..1.5,
            ksta in 0.01f64..0.8,
            rth in 0.5f64..9.0,
            vt0 in 0.18f64..0.32,
            th in 40.0f64..70.0,
            alpha in 0.0f64..1.0,
            f in 2.4f64..5.6,
            vdd in 0.8f64..1.2,
            vbb in -0.5f64..0.5,
        ) {
            let device = eval_variation::DeviceParams::micro08();
            let params = SubsystemPowerParams { kdyn_w: kdyn, ksta_nom_w: ksta, rth_c_per_w: rth, vt0 };
            let env = ThermalEnvironment { th_c: th, alpha_f: alpha };
            let op = OperatingPoint::raw(f, vdd, vbb);
            if let Ok(sol) = solve_thermal(&params, &env, &op, &device) {
                let rhs = th + rth * sol.total_w();
                prop_assert!((sol.t_c - rhs).abs() < 1e-3,
                    "residual {} at T={}", (sol.t_c - rhs).abs(), sol.t_c);
                prop_assert!(sol.t_c >= th - 1e-9);
                prop_assert!(sol.pdyn_w >= 0.0 && sol.psta_w >= 0.0);
            }
        }

        /// More activity never cools the subsystem down.
        #[test]
        fn prop_monotone_in_activity(
            alpha_lo in 0.0f64..0.5,
            delta in 0.01f64..0.5,
            vdd in 0.8f64..1.2,
        ) {
            let device = eval_variation::DeviceParams::micro08();
            let params = SubsystemPowerParams {
                kdyn_w: 0.6, ksta_nom_w: 0.3, rth_c_per_w: 6.0, vt0: device.vt_nominal,
            };
            let op = OperatingPoint::raw(4.0, vdd, 0.0);
            let lo = solve_thermal(&params,
                &ThermalEnvironment { th_c: 60.0, alpha_f: alpha_lo }, &op, &device);
            let hi = solve_thermal(&params,
                &ThermalEnvironment { th_c: 60.0, alpha_f: alpha_lo + delta }, &op, &device);
            if let (Ok(lo), Ok(hi)) = (lo, hi) {
                prop_assert!(hi.t_c >= lo.t_c - 1e-6);
                prop_assert!(hi.total_w() >= lo.total_w() - 1e-9);
            }
        }

        /// The production solver lands on the reference solver's answer for
        /// any plausible operating point where both converge.
        #[test]
        fn prop_fast_matches_reference(
            kdyn in 0.1f64..1.5,
            ksta in 0.01f64..0.8,
            rth in 0.5f64..9.0,
            th in 40.0f64..70.0,
            alpha in 0.0f64..1.0,
            f in 2.4f64..5.6,
            vdd in 0.8f64..1.2,
            vbb in -0.5f64..0.5,
        ) {
            let device = eval_variation::DeviceParams::micro08();
            let params = SubsystemPowerParams { kdyn_w: kdyn, ksta_nom_w: ksta, rth_c_per_w: rth, vt0: 0.25 };
            let env = ThermalEnvironment { th_c: th, alpha_f: alpha };
            let op = OperatingPoint::raw(f, vdd, vbb);
            if let (Ok(fast), Ok(reference)) = (
                solve_thermal(&params, &env, &op, &device),
                solve_thermal_reference(&params, &env, &op, &device),
            ) {
                prop_assert!((fast.t_c - reference.t_c).abs() < 1e-4,
                    "fast {} vs reference {}", fast.t_c, reference.t_c);
            }
        }
    }
}
