//! Hot-path equivalence: the memoized, warm-started operating-point
//! evaluator (`SceneEval::check_at` over a `SolveCache`) must be
//! bit-identical to a cold evaluation of the same ladder point, must agree
//! (as must the uncached off-ladder `SceneEval::check_free`) with the
//! damped reference solver path to physical tolerance, and must return
//! values that do not depend on query order.

use eval::adapt::SceneEval;
use eval::power::cache::{CANONICAL_ALPHA, CANONICAL_TH_C};
use eval::power::{
    freq_steps, solve_thermal, solve_thermal_reference, vbb_steps, vdd_steps, OperatingPoint,
    SolveCache, SubsystemPowerParams, ThermalEnvironment, ThermalRunaway, ThermalSolution,
};
use eval::prelude::*;
use eval::units::Volts;
use std::sync::OnceLock;

fn factory() -> &'static ChipFactory {
    static F: OnceLock<ChipFactory> = OnceLock::new();
    F.get_or_init(|| ChipFactory::new(EvalConfig::micro08()))
}

fn scene(state: &eval::core::chip::SubsystemState, env: Environment) -> SubsystemScene<'_> {
    SubsystemScene {
        state,
        variants: VariantSelection::default(),
        th_c: 60.0,
        alpha_f: 0.5,
        rho: 0.6,
        pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
        env,
    }
}

/// A grid point `(f_idx, Vdd, Vbb)` with the voltages as raw bits.
type PointBits = (usize, u64, u64);

/// A `check_at` answer as raw bits: `(power, temperature, feasible)`.
type ResultBits = (u64, u64, bool);

fn result_bits(r: Option<(f64, f64)>) -> ResultBits {
    match r {
        Some((p, t)) => (p.to_bits(), t.to_bits(), true),
        None => (0, 0, false),
    }
}

/// A thermal solve as raw bits: `Ok([t_c, vt, pdyn_w, psta_w])`, or
/// the runaway temperature.
fn solve_bits(r: Result<ThermalSolution, ThermalRunaway>) -> Result<[u64; 4], u64> {
    r.map(|s| [s.t_c, s.vt, s.pdyn_w, s.psta_w].map(f64::to_bits))
        .map_err(|e| e.t_c.to_bits())
}

/// Warm shared-cache evaluation over the full `(f, Vdd, Vbb)` grid is
/// bitwise identical to evaluating each point with its own fresh cache, on
/// four different chips. One more input is the canonical environment at
/// the mid-ladder index, where every anchor is solved: there each
/// subsystem's `solve_ladder` must equal `solve_thermal` bit for bit,
/// whether that lookup built its group's anchor or an earlier
/// non-canonical lookup did.
#[test]
fn warm_cache_matches_fresh_cache_bitwise_across_the_grid() {
    let cfg = factory().config().clone();
    let cases = [
        (1u64, SubsystemId::IntAlu),
        (2, SubsystemId::Dcache),
        (3, SubsystemId::IntQueue),
        (4, SubsystemId::FpUnit),
    ];
    for (seed, id) in cases {
        let chip = factory().chip(seed);
        let state = chip.core(0).subsystem(id);
        let sc = scene(state, Environment::TS_ABB_ASV);
        let eval = SceneEval::new(&cfg, &sc);
        let mut warm = SolveCache::new();
        for f_idx in 0..freq_steps().len() {
            for &vdd in vdd_steps() {
                for &vbb in vbb_steps() {
                    let shared = eval.check_at(&mut warm, f_idx, vdd, vbb);
                    let mut fresh = SolveCache::new();
                    let cold = eval.check_at(&mut fresh, f_idx, vdd, vbb);
                    assert_eq!(
                        result_bits(shared),
                        result_bits(cold),
                        "chip {seed} {id} f_idx={f_idx} vdd={vdd} vbb={vbb}"
                    );
                }
            }
        }

        let canonical = ThermalEnvironment {
            th_c: CANONICAL_TH_C,
            alpha_f: CANONICAL_ALPHA,
        };
        let sensed = ThermalEnvironment {
            th_c: sc.th_c,
            alpha_f: sc.alpha_f,
        };
        let mid = freq_steps().len() / 2;
        for sub in SubsystemId::ALL {
            let params = chip.core(0).subsystem(sub).power_params(&sc.variants);
            for &vdd in vdd_steps() {
                for &vbb in vbb_steps() {
                    let (v, b) = (Volts::raw(vdd), Volts::raw(vbb));
                    let op = OperatingPoint::raw(freq_steps()[mid], vdd, vbb);
                    let cold = solve_bits(solve_thermal(&params, &canonical, &op, &cfg.device));
                    let mut fresh = SolveCache::new();
                    let built = fresh.solve_ladder(&params, &canonical, &cfg.device, mid, v, b);
                    let _ = warm.solve_ladder(&params, &sensed, &cfg.device, 0, v, b);
                    let misses = warm.stats().misses;
                    let found = warm.solve_ladder(&params, &canonical, &cfg.device, mid, v, b);
                    assert_eq!(warm.stats().misses, misses, "the anchor was built earlier");
                    let at = format!("chip {seed} {sub} vdd={vdd} vbb={vbb}");
                    assert_eq!(solve_bits(built), cold, "anchor build, {at}");
                    assert_eq!(solve_bits(found), cold, "earlier anchor, {at}");
                }
            }
        }
    }
}

/// The fast path agrees with the independent reference implementation
/// (damped solver + unbounded error-rate evaluation): identical
/// feasibility classification away from constraint boundaries, and tight
/// numeric agreement whenever both sides are feasible. Both the cached
/// ladder-point check and the uncached off-ladder check are compared.
#[test]
fn fast_path_matches_reference_solver_across_the_grid() {
    let cfg = factory().config().clone();
    let chip = factory().chip(2);
    let state = chip.core(0).subsystem(SubsystemId::IntAlu);
    let sc = scene(state, Environment::TS_ABB_ASV);
    let eval = SceneEval::new(&cfg, &sc);
    let params = state.power_params(&sc.variants);
    let timing = state.timing(&sc.variants);
    let tenv = ThermalEnvironment {
        th_c: sc.th_c,
        alpha_f: sc.alpha_f,
    };
    let mut cache = SolveCache::new();
    let mut compared = 0usize;
    for f_idx in 0..freq_steps().len() {
        let ladder_f = freq_steps()[f_idx];
        // The midpoint to the next ladder step is off-ladder, so the
        // uncached `check_free` answers it (as it does for every teacher
        // `Power` label and for `SubsystemScene::check`).
        let midpoint = freq_steps().get(f_idx + 1).map(|next| 0.5 * (ladder_f + next));
        for &vdd in vdd_steps() {
            for &vbb in vbb_steps() {
                let mut probes = vec![(ladder_f, eval.check_at(&mut cache, f_idx, vdd, vbb))];
                if let Some(f_mid) = midpoint {
                    probes.push((f_mid, eval.check_free(f_mid, vdd, vbb)));
                }
                for (f_ghz, fast) in probes {
                    let reference = sc.check_reference(&cfg, f_ghz, vdd, vbb);
                    // Near a constraint boundary the two solvers' tolerance
                    // difference (1e-7 vs 1e-6) may legitimately flip the
                    // classification; skip only those points.
                    let op = OperatingPoint::raw(f_ghz, vdd, vbb);
                    let solved = solve_thermal_reference(&params, &tenv, &op, &cfg.device);
                    let boundary = match solved {
                        Err(_) => false,
                        Ok(sol) => {
                            let cond = OperatingConditions {
                                vdd: eval::units::Volts::raw(vdd),
                                vbb: eval::units::Volts::raw(vbb),
                                t_c: sol.t_c,
                            };
                            let pe = sc.rho
                                * timing.pe_access(eval::units::GHz::raw(f_ghz), &cond);
                            (sol.t_c - cfg.constraints.t_max_c).abs() < 1e-3
                                || (pe - sc.pe_budget).abs() < 0.01 * sc.pe_budget
                        }
                    };
                    if boundary {
                        continue;
                    }
                    compared += 1;
                    assert_eq!(
                        fast.is_some(),
                        reference.is_some(),
                        "classification differs at f={f_ghz} vdd={vdd} vbb={vbb}: \
                         fast {fast:?} vs reference {reference:?}"
                    );
                    if let (Some((p_f, t_f)), Some((p_r, t_r))) = (fast, reference) {
                        assert!(
                            (p_f - p_r).abs() < 1e-3 && (t_f - t_r).abs() < 1e-3,
                            "fast ({p_f}, {t_f}) vs reference ({p_r}, {t_r}) \
                             at f={f_ghz} vdd={vdd} vbb={vbb}"
                        );
                    }
                }
            }
        }
    }
    assert!(compared > 1000, "only {compared} grid points compared");
}

/// `freq_max` via the cached guess-verify search equals the uncached
/// reference bisection for every environment that exposes a ladder.
#[test]
fn freq_max_fast_equals_reference() {
    let cfg = factory().config().clone();
    for seed in [1u64, 4] {
        let chip = factory().chip(seed);
        let opt = ExhaustiveOptimizer::new();
        for id in [SubsystemId::Dcache, SubsystemId::LdStQueue] {
            let state = chip.core(0).subsystem(id);
            for env in [Environment::TS, Environment::TS_ASV, Environment::TS_ABB_ASV] {
                let sc = scene(state, env);
                assert_eq!(
                    opt.freq_max(&cfg, &sc),
                    opt.freq_max_reference(&cfg, &sc),
                    "chip {seed} {id} {}",
                    env.name
                );
            }
        }
    }
}

/// Cached values are a pure function of the key: sweeping the grid
/// forward, backward, or frequency-major vs voltage-major returns the same
/// bits for every point.
#[test]
fn query_order_does_not_change_cached_answers() {
    let cfg = factory().config().clone();
    let chip = factory().chip(3);
    let state = chip.core(0).subsystem(SubsystemId::IntReg);
    let sc = scene(state, Environment::TS_ABB_ASV);
    let eval = SceneEval::new(&cfg, &sc);

    let mut points = Vec::new();
    for f_idx in 0..freq_steps().len() {
        for &vdd in vdd_steps() {
            for &vbb in vbb_steps() {
                points.push((f_idx, vdd, vbb));
            }
        }
    }
    let sweep = |order: &[(usize, f64, f64)]| -> Vec<(PointBits, ResultBits)> {
        let mut cache = SolveCache::new();
        let mut out: Vec<_> = order
            .iter()
            .map(|&(f_idx, vdd, vbb)| {
                (
                    (f_idx, vdd.to_bits(), vbb.to_bits()),
                    result_bits(eval.check_at(&mut cache, f_idx, vdd, vbb)),
                )
            })
            .collect();
        out.sort_by_key(|(point, _)| *point);
        out
    };

    let forward = sweep(&points);
    let mut reversed = points.clone();
    reversed.reverse();
    assert_eq!(forward, sweep(&reversed), "reverse order changed answers");
    // A deterministic interleave: odd indices first, then even.
    let mut interleaved: Vec<_> = points.iter().copied().skip(1).step_by(2).collect();
    interleaved.extend(points.iter().copied().step_by(2));
    assert_eq!(forward, sweep(&interleaved), "interleaved order changed answers");
}

/// Splitting one chip's sweep across intra-chip worker threads returns
/// a `CampaignResult` that is bit-identical to the serial sweep, for
/// any worker count: the per-cell units are merged in the serial loop
/// nest's order, so every f64 accumulation happens in the same
/// sequence.
#[test]
fn intra_chip_parallel_sweep_is_bit_identical_to_serial() {
    let mut serial = Campaign::new(2);
    serial.profile_budget = 2_000;
    serial.workloads = vec![Workload::by_name("gzip").expect("workload exists")];
    serial.cores_per_chip = 2;
    serial.threads = 1;
    serial.intra_chip_threads = 1;
    let envs = [Environment::TS, Environment::TS_ABB_ASV];
    let schemes = [Scheme::Static, Scheme::ExhDyn];
    let base = serial.run_traced(&envs, &schemes, Tracer::noop()).expect("serial campaign runs");
    for workers in [2usize, 3, 0] {
        let mut par = serial.clone();
        par.intra_chip_threads = workers;
        let r = par.run_traced(&envs, &schemes, Tracer::noop()).expect("parallel campaign runs");
        assert_eq!(base, r, "results drifted at {workers} intra-chip workers");
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For random thermal environments and operating points, the fast
        /// solver's fixed point sits within 1e-4 of the reference
        /// solver's whenever both converge.
        #[test]
        fn prop_fast_solver_tracks_reference_over_random_environments(
            kdyn in 0.1f64..1.2,
            ksta in 0.02f64..0.6,
            rth in 1.0f64..8.0,
            th in 40.0f64..75.0,
            alpha in 0.0f64..1.0,
            f in 2.4f64..5.6,
            vdd in 0.8f64..1.2,
            vbb in -0.5f64..0.5,
        ) {
            let device = eval::variation::DeviceParams::micro08();
            let params = SubsystemPowerParams {
                kdyn_w: kdyn,
                ksta_nom_w: ksta,
                rth_c_per_w: rth,
                vt0: device.vt_nominal,
            };
            let env = ThermalEnvironment { th_c: th, alpha_f: alpha };
            let op = OperatingPoint::raw(f, vdd, vbb);
            let fast = solve_thermal(&params, &env, &op, &device);
            let reference = solve_thermal_reference(&params, &env, &op, &device);
            if let (Ok(fast), Ok(reference)) = (fast, reference) {
                prop_assert!(
                    (fast.t_c - reference.t_c).abs() < 1e-4,
                    "fast {} vs reference {}", fast.t_c, reference.t_c
                );
                prop_assert!((fast.total_w() - reference.total_w()).abs() < 1e-4);
            }
        }
    }
}
