//! The power vs error-rate vs frequency/performance surfaces of Figure 9:
//! for one subsystem, the minimum realizable `PE` at each (power budget,
//! frequency) point under per-subsystem ASV/ABB.

use eval_core::{
    Environment, EvalConfig, OperatingConditions, PerfModel, SubsystemState, VariantSelection,
};
use eval_power::{SolveCache, ThermalEnvironment};
use eval_units::{GHz, Volts};

/// One sample of the Figure 9(a) surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfacePoint {
    /// Relative frequency (`f / f_nominal`).
    pub f_rel: f64,
    /// Subsystem power, watts.
    pub power_w: f64,
    /// Minimum achievable error probability per access at that (f, P).
    pub pe: f64,
    /// Relative processor performance at that point (Figure 9(b)), using
    /// the supplied phase model.
    pub perf_rel: f64,
}

/// Sweeps the `(Vdd, Vbb)` settings of `state` over the frequency grid and
/// returns, for each `(power bin, f)`, the minimum achievable `PE`
/// (the surface of Figure 9(a)) plus the corresponding relative
/// performance (Figure 9(b)).
///
/// * `perf` — the phase's Equation-5 model (for the performance axis).
/// * `rho` — the subsystem's exercise rate (weights `PE` into err/inst).
/// * `novar_perf` — the reference performance normalizing `perf_rel`.
#[allow(clippy::too_many_arguments)]
pub fn pe_power_frequency_surface(
    config: &EvalConfig,
    state: &SubsystemState,
    env: Environment,
    th_c: f64,
    alpha_f: f64,
    rho: f64,
    perf: &PerfModel,
    novar_perf: f64,
) -> Vec<SurfacePoint> {
    let variants = VariantSelection::default();
    let vdds: &[f64] = if env.asv { eval_power::vdd_steps() } else { &[1.0] };
    let vbbs: &[f64] = if env.abb { eval_power::vbb_steps() } else { &[0.0] };

    // Per-sweep invariants, hoisted out of the candidate loops; thermal
    // solves are memoized and warm-started across the frequency ladder.
    let params = state.power_params(&variants);
    let timing = state.timing(&variants);
    let tenv = ThermalEnvironment { th_c, alpha_f };
    let mut cache = SolveCache::new();

    let mut points = Vec::new();
    for f_idx in 0..eval_core::FREQ_LADDER.len() {
        let f = eval_core::FREQ_LADDER.at(f_idx);
        // Minimum PE for each power level: collect feasible (power, pe)
        // pairs and keep the Pareto-minimal PE per power bin.
        let mut candidates: Vec<(f64, f64)> = Vec::new();
        for &vdd in vdds {
            for &vbb in vbbs {
                let Ok(sol) = cache.solve_ladder(
                    &params,
                    &tenv,
                    &config.device,
                    f_idx,
                    Volts::raw(vdd),
                    Volts::raw(vbb),
                ) else {
                    continue;
                };
                if sol.t_c > config.constraints.t_max_c {
                    continue;
                }
                let cond = OperatingConditions {
                    vdd: Volts::raw(vdd),
                    vbb: Volts::raw(vbb),
                    t_c: sol.t_c,
                };
                let pe = timing.pe_access(GHz::raw(f), &cond);
                candidates.push((sol.total_w(), pe));
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Pareto front: as power increases, keep the best (lowest) PE so far.
        let mut best_pe = f64::INFINITY;
        for (p, pe) in candidates {
            if pe < best_pe {
                best_pe = pe;
                let pe_inst = (rho * pe).clamp(0.0, 1.0);
                points.push(SurfacePoint {
                    f_rel: f / config.f_nominal_ghz,
                    power_w: p,
                    pe,
                    perf_rel: perf.perf(f, pe_inst) / novar_perf,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::factory;
    use eval_core::SubsystemId;

    fn surface() -> Vec<SurfacePoint> {
        let cfg = factory().config().clone();
        let chip = factory().chip(1);
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let perf = PerfModel::new(1.0, 0.004, 52.0, 21.0);
        let novar = perf.perf(4.0, 0.0);
        pe_power_frequency_surface(
            &cfg,
            state,
            Environment::TS_ABB_ASV,
            60.0,
            0.6,
            0.6,
            &perf,
            novar,
        )
    }

    #[test]
    fn surface_is_nonempty_and_sane() {
        let pts = surface();
        assert!(pts.len() > 50);
        for p in &pts {
            assert!((0.0..=1.0).contains(&p.pe));
            assert!(p.power_w > 0.0);
            assert!(p.perf_rel > 0.0);
        }
    }

    #[test]
    fn more_power_buys_lower_pe_at_fixed_frequency() {
        // Line (2) of Figure 9(a): at a fixed f with errors present, the
        // Pareto points must show PE falling as power rises.
        let pts = surface();
        // Group by f_rel and check monotonicity.
        let mut by_f: std::collections::BTreeMap<u64, Vec<&SurfacePoint>> =
            std::collections::BTreeMap::new();
        for p in &pts {
            by_f.entry((p.f_rel * 1000.0) as u64).or_default().push(p);
        }
        let mut checked = false;
        for (_, group) in by_f {
            if group.len() < 2 {
                continue;
            }
            for pair in group.windows(2) {
                assert!(pair[1].power_w >= pair[0].power_w);
                assert!(pair[1].pe <= pair[0].pe);
            }
            checked = true;
        }
        assert!(checked, "no frequency had multiple Pareto points");
    }

    #[test]
    fn pe_grows_with_frequency_at_the_cheapest_setting() {
        let pts = surface();
        // First Pareto point per frequency = cheapest power; PE should be
        // non-decreasing with f overall (allow small wobble from the
        // discrete voltage grid).
        let mut firsts: Vec<&SurfacePoint> = Vec::new();
        let mut last_f = -1.0;
        for p in &pts {
            if p.f_rel > last_f {
                firsts.push(p);
                last_f = p.f_rel;
            }
        }
        let low = firsts.first().unwrap();
        let high = firsts.last().unwrap();
        assert!(high.pe >= low.pe);
    }
}
