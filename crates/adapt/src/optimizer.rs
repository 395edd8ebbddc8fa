//! The optimizer interface shared by the exhaustive oracle and the fuzzy
//! controller, plus [`SceneEval`] — the hoisted, cache-backed evaluation
//! of one scene that forms the operating-point fast path.
//
// lint:hot-path — this module is on the operating-point fast path; the
// no-alloc-in-check rule forbids Vec construction outside tests here.

use std::ops::RangeInclusive;

use eval_core::{
    Environment, EvalConfig, OperatingConditions, SubsystemState, VariantSelection,
};
use eval_power::{
    solve_thermal, solve_thermal_reference, OperatingPoint, SolveCache, SubsystemPowerParams,
    ThermalEnvironment, ThermalRunaway, ThermalSolution, FREQ_LADDER,
};
use eval_timing::StageTiming;
use eval_trace::Tracer;
use eval_units::{GHz, Volts};
use eval_variation::DeviceParams;

/// Everything the per-subsystem `Freq`/`Power` algorithms see about one
/// subsystem in one phase (the paper's `{TH, Rth, Kdyn, alpha_f, Ksta,
/// Vt0}` inputs of Figure 3, carried alongside the subsystem's timing
/// model and error budget).
#[derive(Debug, Clone)]
pub struct SubsystemScene<'a> {
    /// The subsystem's per-chip state (timing + power parameters).
    pub state: &'a SubsystemState,
    /// Structure variants currently enabled.
    pub variants: VariantSelection,
    /// Heat-sink temperature, Celsius (sensed).
    pub th_c: f64,
    /// Activity factor, accesses/cycle (sensed via counters).
    pub alpha_f: f64,
    /// Exercise rate, accesses/instruction (weights PE into err/inst).
    pub rho: f64,
    /// This subsystem's share of `PEMAX` (errors/instruction).
    pub pe_budget: f64,
    /// The environment's capability set (which ladders are usable).
    pub env: Environment,
}

impl<'a> SubsystemScene<'a> {
    /// Whether `(f, vdd, vbb)` meets the temperature and error-rate
    /// constraints for this subsystem, and if so at what cost.
    /// Returns `Some((power_w, t_c))` when feasible.
    pub fn check(&self, config: &EvalConfig, f_ghz: f64, vdd: f64, vbb: f64) -> Option<(f64, f64)> {
        SceneEval::new(config, self).check_free(f_ghz, vdd, vbb)
    }

    /// [`check`] evaluated with the original damped reference solver and
    /// the unhoisted error-rate reference: the independent "before"
    /// implementation kept for equivalence tests and benchmarks.
    ///
    /// [`check`]: SubsystemScene::check
    pub fn check_reference(
        &self,
        config: &EvalConfig,
        f_ghz: f64,
        vdd: f64,
        vbb: f64,
    ) -> Option<(f64, f64)> {
        let op = OperatingPoint::raw(f_ghz, vdd, vbb);
        let env = ThermalEnvironment {
            th_c: self.th_c,
            alpha_f: self.alpha_f,
        };
        let params = self.state.power_params(&self.variants);
        let sol = solve_thermal_reference(&params, &env, &op, &config.device).ok()?;
        if sol.t_c > config.constraints.t_max_c {
            return None;
        }
        let cond = OperatingConditions {
            vdd: Volts::raw(vdd),
            vbb: Volts::raw(vbb),
            t_c: sol.t_c,
        };
        let timing = self.state.timing(&self.variants);
        let pe = self.rho * eval_timing::reference::pe_access(timing, GHz::raw(f_ghz), &cond);
        if pe > self.pe_budget {
            return None;
        }
        Some((sol.total_w(), sol.t_c))
    }

    /// The supply-voltage settings this environment may use.
    pub fn vdd_options(&self) -> &'static [f64] {
        if self.env.asv {
            eval_power::vdd_steps()
        } else {
            &[1.0]
        }
    }

    /// The body-bias settings this environment may use.
    pub fn vbb_options(&self) -> &'static [f64] {
        if self.env.abb {
            eval_power::vbb_steps()
        } else {
            &[0.0]
        }
    }
}

/// One scene with its per-candidate invariants hoisted: the
/// variant-resolved power parameters, the timing model, the thermal
/// environment, and the constraint thresholds are all resolved once per
/// scene instead of once per `(f, Vdd, Vbb)` candidate. Ladder-indexed
/// candidates additionally route through a [`SolveCache`] for
/// anchor-seeded, warm-started thermal solves.
#[derive(Debug, Clone)]
pub struct SceneEval<'a> {
    params: SubsystemPowerParams,
    timing: &'a StageTiming,
    tenv: ThermalEnvironment,
    device: &'a DeviceParams,
    t_max_c: f64,
    rho: f64,
    pe_budget: f64,
}

impl<'a> SceneEval<'a> {
    /// Hoists the scene's invariants out of the candidate loops.
    pub fn new(config: &'a EvalConfig, scene: &SubsystemScene<'a>) -> Self {
        SceneEval {
            params: scene.state.power_params(&scene.variants),
            timing: scene.state.timing(&scene.variants),
            tenv: ThermalEnvironment {
                th_c: scene.th_c,
                alpha_f: scene.alpha_f,
            },
            device: &config.device,
            t_max_c: config.constraints.t_max_c,
            rho: scene.rho,
            pe_budget: scene.pe_budget,
        }
    }

    /// [`SubsystemScene::check`] for the frequency-ladder point `f_idx`,
    /// solved through `cache`. Feasibility classification matches the
    /// uncached check; the returned `(power_w, t_c)` are the cache's
    /// canonical values (a pure function of the operating point — see
    /// `eval_power::cache`).
    pub fn check_at(
        &self,
        cache: &mut SolveCache,
        f_idx: usize,
        vdd: f64,
        vbb: f64,
    ) -> Option<(f64, f64)> {
        self.probe_at(cache, f_idx, vdd, vbb).feasible()
    }

    /// [`check_at`] with the reason a rejected point failed.
    ///
    /// [`check_at`]: SceneEval::check_at
    pub(crate) fn probe_at(
        &self,
        cache: &mut SolveCache,
        f_idx: usize,
        vdd: f64,
        vbb: f64,
    ) -> Probe {
        let sol = cache.solve_ladder(
            &self.params,
            &self.tenv,
            self.device,
            f_idx,
            Volts::raw(vdd),
            Volts::raw(vbb),
        );
        self.admit(sol, FREQ_LADDER.at(f_idx), vdd, vbb)
    }

    /// Whether `(f, vdd, vbb)` is proven infeasible by the error-rate
    /// constraint alone, with no thermal solve and no cache access:
    /// `rho * PE(f)` exceeds the budget at every temperature in
    /// `[TH, TMAX]` (see [`StageTiming::pe_exceeds_over`]). Every feasible
    /// point lies in that range — the solved temperature is
    /// `TH + Rth * P` with `P >= 0`, and the checks reject anything above
    /// `TMAX` — so a `true` here means [`check_at`], [`check_free`] and
    /// [`SubsystemScene::check`] all return `None`. `false` decides
    /// nothing.
    ///
    /// At fixed temperature the bound falls as `vbb` rises (forward bias
    /// lowers `Vt`: `k3_vt_per_vbb < 0`), so a rejection also proves every
    /// lower body bias of the same `(f, vdd)` row infeasible.
    ///
    /// [`check_at`]: SceneEval::check_at
    /// [`check_free`]: SceneEval::check_free
    pub fn pe_screen_rejects(&self, f: GHz, vdd: Volts, vbb: Volts) -> bool {
        self.timing.pe_exceeds_over(
            f,
            vdd,
            vbb,
            (self.tenv.th_c, self.t_max_c),
            self.rho,
            self.pe_budget,
        )
    }

    /// The dynamic power (W) at `(f, vdd)`, from the same hoisted
    /// parameters and activity, with the same operands, as the `Pdyn` term
    /// of every solve at that point. It does not depend on `Vbb` or the
    /// temperature, and every total a check admits is `Pdyn + Psta` with
    /// `Psta >= 0`, so it bounds the admitted power of the whole `(f, vdd)`
    /// row from below. It is a product of non-negative factors, so it
    /// never falls as `vdd` rises.
    pub(crate) fn pdyn_w(&self, f_ghz: f64, vdd: f64) -> f64 {
        self.params
            .pdyn_w(self.tenv.alpha_f, Volts::raw(vdd), GHz::raw(f_ghz))
    }

    /// [`SubsystemScene::check`] for an arbitrary (possibly off-ladder)
    /// frequency: a direct canonical cold-start solve, no cache.
    pub fn check_free(&self, f_ghz: f64, vdd: f64, vbb: f64) -> Option<(f64, f64)> {
        self.probe_free(f_ghz, vdd, vbb).feasible()
    }

    /// [`check_free`] with the reason a rejected point failed.
    ///
    /// [`check_free`]: SceneEval::check_free
    pub(crate) fn probe_free(&self, f_ghz: f64, vdd: f64, vbb: f64) -> Probe {
        // Candidates come off the actuator ladders (validated once at
        // construction), so the unchecked constructor is safe here.
        let op = OperatingPoint::raw(f_ghz, vdd, vbb);
        let sol = solve_thermal(&self.params, &self.tenv, &op, self.device);
        self.admit(sol, f_ghz, vdd, vbb)
    }

    /// The one classifier of a solved point, shared by every check: it
    /// is too hot when the solve ran away or settled above `TMAX`, over
    /// budget when `rho * PE` exceeds the error-rate budget at the solved
    /// temperature, and feasible otherwise.
    fn admit(
        &self,
        sol: Result<ThermalSolution, ThermalRunaway>,
        f_ghz: f64,
        vdd: f64,
        vbb: f64,
    ) -> Probe {
        let sol = match sol {
            Ok(sol) if sol.t_c > self.t_max_c => return Probe::TooHot,
            Ok(sol) => sol,
            Err(_) => return Probe::TooHot,
        };
        let cond = OperatingConditions {
            vdd: Volts::raw(vdd),
            vbb: Volts::raw(vbb),
            t_c: sol.t_c,
        };
        match self
            .timing
            .pe_access_bounded(GHz::raw(f_ghz), &cond, self.rho, self.pe_budget)
        {
            Some(_) => Probe::Feasible {
                power_w: sol.total_w(),
                t_c: sol.t_c,
            },
            None => Probe::OverBudget,
        }
    }
}

/// What one check of a `(f, Vdd, Vbb)` point found ([`SceneEval::admit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Probe {
    /// Feasible, at this total power (W) and temperature (Celsius).
    Feasible { power_w: f64, t_c: f64 },
    /// The thermal solve ran away or settled above `TMAX`.
    TooHot,
    /// Within `TMAX`, but `rho * PE` exceeds the error-rate budget.
    OverBudget,
}

impl Probe {
    /// `(power_w, t_c)` of a feasible point.
    pub(crate) fn feasible(self) -> Option<(f64, f64)> {
        match self {
            Probe::Feasible { power_w, t_c } => Some((power_w, t_c)),
            Probe::TooHot | Probe::OverBudget => None,
        }
    }
}

/// A `Freq`/`Power` algorithm backend (Figure 3): one box per subsystem.
pub trait Optimizer {
    /// The `Freq` algorithm for one subsystem: the maximum ladder frequency
    /// at which the subsystem can cycle using any permitted `(Vdd, Vbb)`
    /// without violating its temperature or error-rate constraints.
    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64;

    /// [`freq_max`] given a bracket of ladder indices known to hold the
    /// answer: `bracket.start() <= index_of(fmax) <= bracket.end()`. The
    /// bracket is only a hint that lets a search skip work; the answer
    /// must not depend on it. The default ignores it. An empty
    /// (inverted) bracket carries no information.
    ///
    /// [`freq_max`]: Optimizer::freq_max
    fn freq_max_within(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        _bracket: RangeInclusive<usize>,
    ) -> f64 {
        self.freq_max(config, scene)
    }

    /// The `Power` algorithm for one subsystem: the `(Vdd, Vbb)` that
    /// minimizes subsystem power at core frequency `f_core` without
    /// violating constraints. When nothing on the ladders is feasible the
    /// exhaustive oracle returns the nominal setting `(1.0, 0.0)`, and
    /// retuning then lowers `f`; trained controllers return their
    /// prediction unchecked and leave infeasibility to retuning as well.
    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64);

    /// Drains any accumulated solver/cache counters into eval-trace
    /// metrics. Drivers call this at natural boundaries (end of a
    /// campaign cell, end of training); the default does nothing.
    fn flush_metrics(&self, _tracer: Tracer<'_>) {}
}
