//! The `Exhaustive` algorithm (§4.3.1): grid search over the actuator
//! ladders. Too slow to run on-the-fly in a real processor — here it is
//! both the oracle the fuzzy controllers are trained against and the
//! `Exh-Dyn` comparison scheme of Figures 10–12.
//!
//! The search runs on the operating-point fast path: scene invariants are
//! hoisted once per query ([`SceneEval`]), ladder-point thermal solves are
//! memoized and warm-started through a per-optimizer [`SolveCache`], and
//! both searches prune with the model's monotonicities instead of
//! evaluating the whole grid:
//!
//! - `freq_max` probes each `(Vdd, Vbb)` pair at the pruning floor (one
//!   step above the best frequency so far) first; only a pair that clears
//!   the floor goes on to the previous pair's answer, the ladder top, or
//!   bisection.
//! - `power_settings` scans each supply row in ascending body bias and
//!   stops at the first feasible point, which is the row's cheapest.
//! - `power_settings` scans the supply rows in ascending `Vdd` and stops
//!   before the first row whose dynamic power `Pdyn(f, Vdd)`
//!   (`SceneEval::pdyn_w`) is at or above the best total so far. The
//!   cut is exact: `Pdyn = Kdyn * alpha_f * Vdd^2 * f` depends on neither
//!   `Vbb` nor the temperature, and it is computed from the same operands
//!   as the solves (the ladder point on the cached path, `f_core`
//!   off it). Every admitted total is `Pdyn + Psta` with `Psta >= 0`, so
//!   no point of the row costs less than `Pdyn`. The product of
//!   non-negative factors never falls as `Vdd` rises, so every later row
//!   is bounded by at least the same value. The search keeps a point
//!   only when it is strictly cheaper, so no row at or after the cut can
//!   replace the best point.
//! - Where a supply row has more than one body bias, both start its
//!   scan past the body biases that the error-rate screen
//!   ([`SceneEval::pe_screen_rejects`]) proves infeasible, found by
//!   binary search: the screen bounds `PE` from below over every
//!   temperature a feasible point can have, without a thermal solve or
//!   a cache access, and that bound falls as `Vbb` rises, so one
//!   rejection clears the whole lower part of the row.
//! - `freq_max` also takes a bracket of ladder indices
//!   ([`Optimizer::freq_max_within`]): it starts from the lower end, so
//!   no pair is probed at or below it, caps every pair's search at the
//!   upper end, and stops once the answer reaches it. The teacher
//!   builds the bracket from the labels a bank already holds. The
//!   bracket rests on one monotonicity: for a fixed subsystem, variant
//!   and environment, `fmax(TH, alpha_f, rho)` never rises when any
//!   input rises. A hotter sink or more activity raises the solved
//!   temperature, and the temperature and `rho` both raise the error
//!   rate, so each only shrinks the feasible `(f, Vdd, Vbb)` set. A
//!   scene that dominates another (all three inputs `>=`) therefore has
//!   a label no higher than it.
//!
//! Every feasibility check that could change the answer is kept, so
//! both return (`freq_max` given a bracket that holds the answer)
//! exactly what the full-grid searches
//! ([`ExhaustiveOptimizer::freq_max_reference`],
//! [`ExhaustiveOptimizer::power_settings_reference`]) return.
//
// lint:hot-path — this module is on the operating-point fast path; the
// no-alloc-in-check rule forbids Vec construction outside tests here.

use std::cell::{Cell, RefCell};
use std::ops::RangeInclusive;

use eval_core::{EvalConfig, FREQ_LADDER};
use eval_power::SolveCache;
use eval_trace::{names, Tracer};
use eval_units::{GHz, Volts};

use crate::optimizer::{Optimizer, SceneEval, SubsystemScene};

/// Exhaustive grid search over `(f, Vdd, Vbb)`.
///
/// For each `(Vdd, Vbb)` pair the feasible frequency set is a prefix of
/// the ladder (both the error rate and the temperature grow with `f`),
/// so the frequency search probes the pruning floor first and then
/// verifies the previous pair's answer as a guess, falling back to
/// binary search. For each `(f, Vdd)` row, power rises strictly with
/// `Vbb` (see [`Optimizer::power_settings`] below), so the power search
/// stops at the row's first feasible body bias, and it skips every row
/// whose dynamic power alone reaches the best point so far.
///
/// Each optimizer instance owns a [`SolveCache`]; cached values are pure
/// functions of the operating point, so sharing or not sharing an
/// instance cannot change any result — only the hit rate. The `RefCell`
/// keeps the query methods `&self`; instances are per-thread by
/// construction (one per campaign cell or training run).
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveOptimizer {
    cache: RefCell<SolveCache>,
    /// Uncached off-ladder solves (`SceneEval::check_free`) since the
    /// last [`Optimizer::flush_metrics`].
    free_solves: Cell<u64>,
}

impl ExhaustiveOptimizer {
    /// Creates the optimizer with an empty solve cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the first body bias in `vbbs` that the error-rate screen
    /// does not reject at `(f, vdd)`; every body bias before it is proven
    /// infeasible at `f` and at any higher frequency. Binary search: the
    /// lower end only moves past a probed index the screen rejected,
    /// which proves that index and all below it infeasible, so the result
    /// is sound even where the screen gives no verdict.
    ///
    /// A row with one body bias is not screened: a rejection there saves
    /// at most one check, usually a warm cache hit, while the screen
    /// always pays a pass over the cells. Screening those rows too made
    /// the TS+ASV `tournament` benchmark about 8 % slower.
    fn first_unscreened(eval: &SceneEval<'_>, f: f64, vdd: f64, vbbs: &[f64]) -> usize {
        if vbbs.len() < 2 {
            return 0;
        }
        let (mut lo, mut hi) = (0, vbbs.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if eval.pe_screen_rejects(GHz::raw(f), Volts::raw(vdd), Volts::raw(vbbs[mid])) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Bisects for the feasibility frontier given the invariant that `lo`
    /// is feasible and `hi` is infeasible.
    fn bisect(
        eval: &SceneEval<'_>,
        cache: &mut SolveCache,
        vdd: f64,
        vbb: f64,
        mut lo: usize,
        mut hi: usize,
    ) -> usize {
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if eval.check_at(cache, mid, vdd, vbb).is_some() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Largest feasible ladder index at fixed `(vdd, vbb)` in
    /// `[floor_idx, top]`, or `None` when `floor_idx` is infeasible.
    /// Exploits monotonicity: error rate and temperature both grow with
    /// `f`, so feasibility is a prefix of the ladder. Callers prune by
    /// passing one step above the best index found so far as the floor,
    /// so the floor is probed first: once a good pair has been seen, most
    /// pairs fail it and cost one check. A pair that clears the floor
    /// verifies the previous pair's answer `hint` and its successor
    /// (adjacent pairs usually share their frontier), then `top`, and
    /// only a genuinely moved frontier falls back to bisection. `top` is
    /// the ladder's last index or a proven upper bound on the answer, so
    /// nothing above it is ever probed.
    fn fmax_index_at(
        eval: &SceneEval<'_>,
        cache: &mut SolveCache,
        vdd: f64,
        vbb: f64,
        floor_idx: usize,
        top: usize,
        hint: Option<usize>,
    ) -> Option<usize> {
        let ok = |cache: &mut SolveCache, i: usize| eval.check_at(cache, i, vdd, vbb).is_some();
        if !ok(cache, floor_idx) {
            return None;
        }
        let lo = match hint.map(|h| h.clamp(floor_idx, top)) {
            // Infeasible guess: the frontier is in `[floor_idx, h)`.
            Some(h) if h > floor_idx && !ok(cache, h) => {
                return Some(Self::bisect(eval, cache, vdd, vbb, floor_idx, h));
            }
            // Feasible guess with an infeasible successor: `h` is it.
            Some(h) if h == top || !ok(cache, h + 1) => return Some(h),
            // The frontier moved up past the guess.
            Some(h) => h + 1,
            None => floor_idx,
        };
        if lo == top || ok(cache, top) {
            return Some(top);
        }
        Some(Self::bisect(eval, cache, vdd, vbb, lo, top))
    }

    /// [`Optimizer::freq_max`] computed with the original uncached,
    /// cold-start reference check — the "before" implementation, kept for
    /// the grid equivalence test and the hot-path benchmarks.
    pub fn freq_max_reference(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        let n = FREQ_LADDER.len();
        let mut best: Option<usize> = None;
        for &vdd in scene.vdd_options() {
            for &vbb in scene.vbb_options() {
                let floor = best.map_or(0, |b| (b + 1).min(n - 1));
                let feasible =
                    |i: usize| scene.check_reference(config, FREQ_LADDER.at(i), vdd, vbb).is_some();
                if !feasible(floor) {
                    continue;
                }
                let (mut lo, mut hi) = (floor, n - 1);
                let idx = if feasible(hi) {
                    hi
                } else {
                    while hi - lo > 1 {
                        let mid = (lo + hi) / 2;
                        if feasible(mid) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                };
                if best.is_none_or(|b| idx > b) {
                    best = Some(idx);
                }
            }
        }
        FREQ_LADDER.at(best.unwrap_or(0))
    }

    /// [`Optimizer::power_settings`] without the early exit: every
    /// `(Vdd, Vbb)` point is checked and the cheapest feasible one kept —
    /// the "before" implementation, kept for the exactness tests and the
    /// hot-path benchmarks. It uses the same checks as the pruned search
    /// through a cache of its own, so the two agree bit for bit exactly
    /// when the pruning is exact.
    pub fn power_settings_reference(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let eval = SceneEval::new(config, scene);
        let mut cache = SolveCache::new();
        let f_idx = FREQ_LADDER.index_of(f_core);
        let mut best: Option<(f64, f64, f64)> = None; // (power, vdd, vbb)
        for &vdd in scene.vdd_options() {
            for &vbb in scene.vbb_options() {
                let checked = match f_idx {
                    Some(i) => eval.check_at(&mut cache, i, vdd, vbb),
                    None => eval.check_free(f_core, vdd, vbb),
                };
                if let Some((p, _t)) = checked {
                    if best.is_none_or(|(bp, _, _)| p < bp) {
                        best = Some((p, vdd, vbb));
                    }
                }
            }
        }
        best.map_or((1.0, 0.0), |(_, vdd, vbb)| (vdd, vbb))
    }
}

impl Optimizer for ExhaustiveOptimizer {
    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        self.freq_max_within(config, scene, 0..=FREQ_LADDER.len() - 1)
    }

    /// The one frequency search. It starts from `best = lo`, so the first
    /// floor it probes is `lo + 1`, probes nothing above `hi`, and stops
    /// scanning pairs once `best` reaches `hi`; `lo == hi` needs no
    /// solve at all. Both ends are exact only when the bracket holds the
    /// answer, which is the caller's promise (see the module doc). An
    /// inverted bracket searches the whole ladder.
    fn freq_max_within(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        bracket: RangeInclusive<usize>,
    ) -> f64 {
        let last = FREQ_LADDER.len() - 1;
        let (lo, hi) = match (*bracket.start(), (*bracket.end()).min(last)) {
            (lo, hi) if lo <= hi => (lo, hi),
            _ => (0, last),
        };
        if lo == hi {
            return FREQ_LADDER.at(lo);
        }
        let eval = SceneEval::new(config, scene);
        let cache = &mut *self.cache.borrow_mut();
        let mut best = lo;
        let mut hint: Option<usize> = None;
        // Scan the supply ladder from the top: the highest Vdd usually
        // holds the highest feasible frequency, so the first pair sets a
        // `best` that rejects most remaining pairs on a single floor
        // probe. The result is a max over all pairs either way — scan
        // order only affects how much work pruning saves.
        // Pairs the screen rejects at a row's starting floor fail every
        // later (higher) floor too, and a failed floor probe changes
        // neither `best` nor `hint`, so skipping them is exact.
        'rows: for &vdd in scene.vdd_options().iter().rev() {
            let vbbs = scene.vbb_options();
            let start = Self::first_unscreened(&eval, FREQ_LADDER.at(best + 1), vdd, vbbs);
            for &vbb in &vbbs[start..] {
                if let Some(idx) = Self::fmax_index_at(&eval, cache, vdd, vbb, best + 1, hi, hint) {
                    hint = Some(idx);
                    best = idx;
                    if best == hi {
                        break 'rows;
                    }
                }
            }
        }
        FREQ_LADDER.at(best)
    }

    /// Scans each supply row in ascending body bias and keeps only the
    /// row's first feasible point. This is exact: positive `Vbb` is
    /// forward bias and lowers `Vt` (`k3_vt_per_vbb` < 0), which raises
    /// leakage and the thermal fixed point while dynamic power does not
    /// depend on `Vbb` — so at fixed `(f, Vdd)` total power rises
    /// strictly with `Vbb` and the first feasible point is the row's
    /// minimum. Across rows the strict `<` keeps the earliest of equal
    /// powers, as the full-grid scan does. The scan starts past the body
    /// biases the error-rate screen proves infeasible at `f_core`, and
    /// stops at the first supply row whose dynamic power alone reaches
    /// the best point so far (the cut of the module doc).
    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let eval = SceneEval::new(config, scene);
        let cache = &mut *self.cache.borrow_mut();
        let f_idx = FREQ_LADDER.index_of(f_core);
        // The frequency operand every check of this query solves at.
        let f_solved = f_idx.map_or(f_core, |i| FREQ_LADDER.at(i));
        let mut best: Option<(f64, f64, f64)> = None; // (power, vdd, vbb)
        let vbbs = scene.vbb_options();
        for &vdd in scene.vdd_options() {
            if best.is_some_and(|(bp, _, _)| eval.pdyn_w(f_solved, vdd) >= bp) {
                break;
            }
            let start = Self::first_unscreened(&eval, f_core, vdd, vbbs);
            let row_min = vbbs[start..].iter().find_map(|&vbb| {
                let checked = match f_idx {
                    Some(i) => eval.check_at(cache, i, vdd, vbb),
                    // Off-ladder core frequencies (every teacher label
                    // draws `f_core` continuously) are solved uncached.
                    None => {
                        self.free_solves.set(self.free_solves.get() + 1);
                        eval.check_free(f_core, vdd, vbb)
                    }
                };
                checked.map(|(p, _t)| (p, vbb))
            });
            if let Some((p, vbb)) = row_min {
                if best.is_none_or(|(bp, _, _)| p < bp) {
                    best = Some((p, vdd, vbb));
                }
            }
        }
        match best {
            Some((_, vdd, vbb)) => (vdd, vbb),
            // Nothing feasible at f_core: fall back to the nominal setting
            // (always electrically safe) and let retuning walk the
            // frequency down. Aggressive voltages would only deepen the
            // leakage/temperature feedback that made f_core infeasible.
            None => (1.0, 0.0),
        }
    }

    fn flush_metrics(&self, tracer: Tracer<'_>) {
        let free_solves = self.free_solves.take();
        if free_solves > 0 {
            tracer.count_n(names::SOLVER_FREE_SOLVES, free_solves);
        }
        let stats = self.cache.borrow_mut().take_stats();
        if stats.hits + stats.misses == 0 {
            return;
        }
        tracer.count_n(names::SOLVER_CACHE_HITS, stats.hits);
        tracer.count_n(names::SOLVER_CACHE_MISSES, stats.misses);
        tracer.count_n(names::SOLVER_CACHE_HITS_SAME_POINT, stats.same_point);
        tracer.count_n(names::SOLVER_CACHE_HITS_CROSS_CANDIDATE, stats.cross_candidate);
        tracer.count_n(names::SOLVER_CACHE_HITS_CROSS_PHASE, stats.cross_phase);
        tracer.count_n(names::SOLVER_ITERATIONS, stats.iterations);
        if stats.slow_convergence > 0 {
            tracer.count_n(names::SOLVER_SLOW_CONVERGENCE, stats.slow_convergence);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::factory;
    use eval_core::{Environment, SubsystemId, VariantSelection, N_SUBSYSTEMS};

    fn scene<'a>(
        state: &'a eval_core::SubsystemState,
        env: Environment,
    ) -> SubsystemScene<'a> {
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

    #[test]
    fn asv_raises_fmax_over_ts() {
        let cfg = factory().config().clone();
        let chip = factory().chip(1);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let f_ts = opt.freq_max(&cfg, &scene(state, Environment::TS));
        let f_asv = opt.freq_max(&cfg, &scene(state, Environment::TS_ASV));
        assert!(f_asv > f_ts, "ASV {f_asv} should beat TS {f_ts}");
    }

    #[test]
    fn fast_freq_max_matches_reference_search() {
        let cfg = factory().config().clone();
        for chip_seed in [1, 2, 3] {
            let chip = factory().chip(chip_seed);
            let opt = ExhaustiveOptimizer::new();
            for id in [SubsystemId::IntAlu, SubsystemId::Dcache, SubsystemId::IntQueue] {
                let state = chip.core(0).subsystem(id);
                for env in [Environment::TS, Environment::TS_ASV, Environment::TS_ABB_ASV] {
                    let sc = scene(state, env);
                    let fast = opt.freq_max(&cfg, &sc);
                    let reference = opt.freq_max_reference(&cfg, &sc);
                    assert_eq!(
                        fast, reference,
                        "chip {chip_seed} {id} {}: fast {fast} vs reference {reference}",
                        env.name
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ASV);
        let f1 = opt.freq_max(&cfg, &sc);
        let after_first = opt.cache.borrow().stats();
        let f2 = opt.freq_max(&cfg, &sc);
        let after_second = opt.cache.borrow().stats();
        assert_eq!(f1, f2);
        assert_eq!(
            after_second.misses, after_first.misses,
            "second identical query must not solve anything new"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn freq_result_is_on_the_ladder_and_feasible() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let opt = ExhaustiveOptimizer::new();
        for id in [SubsystemId::Dcache, SubsystemId::FpUnit, SubsystemId::IntQueue] {
            let state = chip.core(0).subsystem(id);
            let sc = scene(state, Environment::TS_ASV);
            let f = opt.freq_max(&cfg, &sc);
            assert!(FREQ_LADDER.contains(f), "{id}: off-ladder {f}");
            // Feasible at some voltage setting.
            let feasible = sc
                .vdd_options()
                .iter()
                .any(|&vdd| sc.check(&cfg, f, vdd, 0.0).is_some());
            assert!(feasible, "{id}: fmax {f} infeasible everywhere");
        }
    }

    #[test]
    fn power_settings_meet_constraints_when_feasible() {
        let cfg = factory().config().clone();
        let chip = factory().chip(3);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntQueue);
        let sc = scene(state, Environment::TS_ASV);
        let fmax = opt.freq_max(&cfg, &sc);
        // At a core frequency below this subsystem's max, the power
        // algorithm must pick something feasible.
        let f_core = (fmax - 0.3).max(FREQ_LADDER.min);
        let (vdd, vbb) = opt.power_settings(&cfg, &sc, f_core);
        assert!(sc.check(&cfg, f_core, vdd, vbb).is_some());
    }

    #[test]
    fn power_algorithm_relaxes_voltage_at_lower_frequency() {
        // At a low core frequency the subsystem should not need the
        // highest supply.
        let cfg = factory().config().clone();
        let chip = factory().chip(4);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ASV);
        let (vdd_low, _) = opt.power_settings(&cfg, &sc, 2.4);
        let fmax = opt.freq_max(&cfg, &sc);
        let (vdd_high, _) = opt.power_settings(&cfg, &sc, fmax);
        assert!(
            vdd_low <= vdd_high,
            "low-f vdd {vdd_low} vs max-f vdd {vdd_high}"
        );
        assert!(vdd_low <= 0.95, "2.4 GHz should not need {vdd_low} V");
    }

    /// The dynamic-power cut at work: in TS+ASV+ABB at a low core
    /// frequency the cheapest point costs no more than the top supply
    /// row's dynamic power alone, so the scan stops before that row, and
    /// the answer is still the full grid's, on and off the ladder.
    #[test]
    fn dynamic_power_cut_skips_the_top_row_and_keeps_the_answer() {
        let cfg = factory().config().clone();
        let chip = factory().chip(1);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ASV_ABB);
        let eval = SceneEval::new(&cfg, &sc);
        let top_vdd = *sc.vdd_options().last().expect("a supply ladder");
        for (f_idx, f_core) in [
            (Some(2), FREQ_LADDER.at(2)),
            (None, FREQ_LADDER.at(2) + 0.35 * FREQ_LADDER.step),
        ] {
            let reference = opt.power_settings_reference(&cfg, &sc, f_core);
            let checked = match f_idx {
                Some(i) => eval.check_at(&mut SolveCache::new(), i, reference.0, reference.1),
                None => eval.check_free(f_core, reference.0, reference.1),
            };
            let (best_w, _) = checked.expect("the reference's point is feasible");
            // A point of the top row costs more than that row's dynamic
            // power, so the best point lies in an earlier row, and the
            // scan reaches the top row with this `best` and cuts there.
            let top_pdyn = eval.pdyn_w(f_core, top_vdd);
            assert!(
                best_w <= top_pdyn,
                "f {f_core}: best {best_w} W above the top row's Pdyn {top_pdyn} W"
            );
            let pruned = opt.power_settings(&cfg, &sc, f_core);
            assert_eq!(
                (pruned.0.to_bits(), pruned.1.to_bits()),
                (reference.0.to_bits(), reference.1.to_bits()),
                "f {f_core}"
            );
        }
    }

    #[test]
    fn no_voltage_control_means_nominal_settings() {
        let cfg = factory().config().clone();
        let chip = factory().chip(5);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::Decode);
        let sc = scene(state, Environment::TS);
        let (vdd, vbb) = opt.power_settings(&cfg, &sc, 3.0);
        assert_eq!((vdd, vbb), (1.0, 0.0));
    }

    mod proptests {
        use super::*;
        use crate::teacher::{variant_selection_for, ALPHA_RANGE, RHO_RANGE, TH_RANGE};
        use eval_core::SubsystemState;
        use proptest::prelude::*;

        /// The environments whose search the pruning touches: ASV alone,
        /// and every environment that adds the body-bias ladder.
        const ENVS: [Environment; 4] = [
            Environment::TS_ASV,
            Environment::TS_ASV_ABB,
            Environment::ALL,
            Environment::TS_ABB_ASV,
        ];

        /// A sensed scene for any subsystem, either variant, in `env`.
        fn random_scene(
            state: &SubsystemState,
            alt: bool,
            env: Environment,
            th: f64,
            alpha: f64,
            rho: f64,
        ) -> SubsystemScene<'_> {
            SubsystemScene {
                state,
                variants: variant_selection_for(state.id(), alt),
                th_c: th,
                alpha_f: alpha,
                rho,
                pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
                env,
            }
        }

        /// Ladder point `idx` (cached path) or, `off_ladder`, a point a
        /// fraction `frac` of a step below it — above it at the ladder's
        /// bottom — as the teacher draws them (uncached path).
        fn core_freq(idx: usize, off_ladder: bool, frac: f64) -> f64 {
            let f = FREQ_LADDER.at(idx);
            match (off_ladder, idx) {
                (false, _) => f,
                (true, 0) => f + frac * FREQ_LADDER.step,
                (true, _) => f - frac * FREQ_LADDER.step,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The cached, floor-first `freq_max` lands on exactly the
            /// frequency the uncached cold-start reference search finds,
            /// for any subsystem, variant, environment and sensed inputs
            /// — i.e. neither the cache nor the probe order can move an
            /// answer.
            #[test]
            fn prop_cached_freq_max_matches_uncached_reference(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in 0.05f64..0.95,
                rho in 0.05f64..2.5,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                env in 0usize..ENVS.len(),
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let opt = ExhaustiveOptimizer::new();
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                let sc = random_scene(state, alt, ENVS[env], th, alpha, rho);
                let fast = opt.freq_max(&cfg, &sc);
                let reference = opt.freq_max_reference(&cfg, &sc);
                prop_assert_eq!(fast.to_bits(), reference.to_bits());
            }

            /// The pruned power search (first feasible `Vbb` per row,
            /// dynamic-power cut across rows) returns bit for bit the
            /// setting the full-grid scan returns, on and off the
            /// frequency ladder, from the scene's `fmax` (where few
            /// points are feasible) down to the ladder's bottom (where
            /// the teacher's `f_core` draws often land and the cut fires
            /// most).
            #[test]
            fn prop_pruned_power_settings_match_full_grid_reference(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in 0.05f64..0.95,
                rho in 0.05f64..2.5,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                env in 0usize..ENVS.len(),
                steps_below_fmax in 0usize..FREQ_LADDER.len(),
                off_ladder in proptest::bool::ANY,
                frac in 0.01f64..0.99,
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let opt = ExhaustiveOptimizer::new();
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                let sc = random_scene(state, alt, ENVS[env], th, alpha, rho);
                let fmax_idx = FREQ_LADDER.index_of(opt.freq_max(&cfg, &sc)).unwrap_or(0);
                let f_idx = fmax_idx.saturating_sub(steps_below_fmax);
                let f_core = core_freq(f_idx, off_ladder, frac);
                let pruned = opt.power_settings(&cfg, &sc, f_core);
                let reference = opt.power_settings_reference(&cfg, &sc, f_core);
                prop_assert_eq!(
                    (pruned.0.to_bits(), pruned.1.to_bits()),
                    (reference.0.to_bits(), reference.1.to_bits())
                );
            }

            /// The premise of the dynamic-power cut: every total that the
            /// cached or the uncached check admits is at least the
            /// dynamic power at its `(f, Vdd)`, on and off the ladder,
            /// and that bound never falls along the supply ladder.
            #[test]
            fn prop_dynamic_power_bounds_every_solved_total(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in 0.05f64..0.95,
                rho in 0.05f64..2.5,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                env in 0usize..ENVS.len(),
                f_idx in 0usize..FREQ_LADDER.len(),
                off_ladder in proptest::bool::ANY,
                frac in 0.01f64..0.99,
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                let sc = random_scene(state, alt, ENVS[env], th, alpha, rho);
                let eval = SceneEval::new(&cfg, &sc);
                let mut cache = SolveCache::new();
                let f = core_freq(f_idx, off_ladder, frac);
                let mut prev_pdyn = 0.0;
                for &vdd in sc.vdd_options() {
                    let pdyn = eval.pdyn_w(f, vdd);
                    prop_assert!(pdyn >= prev_pdyn, "f {}: Pdyn({}) = {} falls", f, vdd, pdyn);
                    prev_pdyn = pdyn;
                    for &vbb in sc.vbb_options() {
                        // Off the ladder only the uncached path applies.
                        let cached = match off_ladder {
                            false => eval.check_at(&mut cache, f_idx, vdd, vbb),
                            true => None,
                        };
                        let free = eval.check_free(f, vdd, vbb);
                        for (p, _t) in [free, cached].into_iter().flatten() {
                            prop_assert!(
                                p >= pdyn,
                                "f {} vdd {} vbb {}: total {} < Pdyn {}",
                                f, vdd, vbb, p, pdyn
                            );
                        }
                    }
                }
            }

            /// The premise of the row search: wherever the error-rate
            /// screen rejects a point, the uncached check finds that
            /// point and every lower body bias of its `(f, Vdd)` row
            /// infeasible — on and off the ladder, across the whole
            /// frequency ladder. Evaluating the screen everywhere also
            /// pins that it never panics.
            #[test]
            fn prop_screen_rejections_are_infeasible_down_the_row(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in 0.05f64..0.95,
                rho in 0.05f64..2.5,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                env in 0usize..ENVS.len(),
                f_idx in 0usize..FREQ_LADDER.len(),
                off_ladder in proptest::bool::ANY,
                frac in 0.01f64..0.99,
                vdd_pick in 0.0f64..1.0,
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                let sc = random_scene(state, alt, ENVS[env], th, alpha, rho);
                let eval = SceneEval::new(&cfg, &sc);
                let f = core_freq(f_idx, off_ladder, frac);
                let vdds = sc.vdd_options();
                let vdd = vdds[((vdd_pick * vdds.len() as f64) as usize).min(vdds.len() - 1)];
                let vbbs = sc.vbb_options();
                let mut checked_infeasible = 0;
                for (j, &vbb) in vbbs.iter().enumerate() {
                    if !eval.pe_screen_rejects(GHz::raw(f), Volts::raw(vdd), Volts::raw(vbb)) {
                        continue;
                    }
                    for &lower in &vbbs[checked_infeasible..=j] {
                        prop_assert!(
                            sc.check(&cfg, f, vdd, lower).is_none(),
                            "screen rejects f {} vdd {} vbb {} but vbb {} is feasible",
                            f, vdd, vbb, lower
                        );
                    }
                    checked_infeasible = j + 1;
                }
            }

            /// The premise of the teacher's label brackets: within one
            /// bank (chip, subsystem, variant, ladders), `fmax` never
            /// rises when `th`, `alpha` or `rho` rises. `raise` picks
            /// which inputs rise; each rises part of the way to the top
            /// of the teacher's sampling range.
            #[test]
            fn prop_fmax_never_rises_with_th_alpha_or_rho(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in ALPHA_RANGE.0..ALPHA_RANGE.1,
                rho in 1e-3..RHO_RANGE.1,
                up_th in 0.0f64..1.0,
                up_alpha in 0.0f64..1.0,
                up_rho in 0.0f64..1.0,
                raise in 1u32..8,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                family in 0usize..Environment::TABLE2.len(),
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let opt = ExhaustiveOptimizer::new();
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                let env = Environment::TABLE2[family];
                let rise = |bit: u32, x: f64, top: f64, frac: f64| {
                    if raise & bit != 0 { x + frac * (top - x) } else { x }
                };
                let (th2, alpha2, rho2) = (
                    rise(1, th, TH_RANGE.1, up_th),
                    rise(2, alpha, ALPHA_RANGE.1, up_alpha),
                    rise(4, rho, RHO_RANGE.1, up_rho),
                );
                let cool = opt.freq_max(&cfg, &random_scene(state, alt, env, th, alpha, rho));
                let hot = opt.freq_max(&cfg, &random_scene(state, alt, env, th2, alpha2, rho2));
                prop_assert!(
                    hot <= cool,
                    "{}: fmax({}, {}, {}) = {} > fmax({}, {}, {}) = {}",
                    env.name, th2, alpha2, rho2, hot, th, alpha, rho, cool
                );
            }

            /// Any bracket that holds the answer, `lo <= fmax <= hi`
            /// (`hi` may run past the ladder top), gives the
            /// reference's answer bit for bit, and so does an inverted
            /// bracket.
            #[test]
            fn prop_bracketed_freq_max_matches_reference(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in ALPHA_RANGE.0..ALPHA_RANGE.1,
                rho in 1e-3..RHO_RANGE.1,
                lo_pick in 0.0f64..1.0,
                hi_pick in 0.0f64..1.0,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                family in 0usize..Environment::TABLE2.len(),
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let opt = ExhaustiveOptimizer::new();
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                let sc = random_scene(state, alt, Environment::TABLE2[family], th, alpha, rho);
                let reference = opt.freq_max_reference(&cfg, &sc);
                let truth = FREQ_LADDER.index_of(reference).expect("on the ladder");
                let past_top = FREQ_LADDER.len() + 1;
                let lo = (lo_pick * (truth + 1) as f64) as usize;
                let hi = truth + (hi_pick * (past_top - truth + 1) as f64) as usize;
                let bracketed = opt.freq_max_within(&cfg, &sc, lo..=hi);
                prop_assert_eq!(bracketed.to_bits(), reference.to_bits(), "bracket {}..={}", lo, hi);
                let inverted = opt.freq_max_within(&cfg, &sc, hi + 1..=lo);
                prop_assert_eq!(inverted.to_bits(), reference.to_bits(), "inverted {}..={}", hi + 1, lo);
            }

            /// The premise of the early exit: at fixed `(f, Vdd)`, power
            /// rises strictly with `Vbb` across the feasible points.
            #[test]
            fn prop_feasible_power_rises_strictly_with_vbb(
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in 0.05f64..0.95,
                rho in 0.05f64..2.5,
                chip_seed in 1u64..40,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                f_idx in 0usize..20,
                off_ladder in proptest::bool::ANY,
                frac in 0.01f64..0.99,
                vdd_idx in 0usize..9,
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let state = chip.core(0).subsystem(SubsystemId::ALL[sub]);
                // ALL exposes both ladders; only the (f, Vdd) row matters.
                let sc = random_scene(state, alt, Environment::ALL, th, alpha, rho);
                let f = core_freq(f_idx, off_ladder, frac);
                let vdd = sc.vdd_options()[vdd_idx];
                let mut prev: Option<(f64, f64)> = None;
                for &vbb in sc.vbb_options() {
                    if let Some((p, _t)) = sc.check(&cfg, f, vdd, vbb) {
                        if let Some((prev_vbb, prev_p)) = prev {
                            prop_assert!(
                                p > prev_p,
                                "f {} vdd {} : P({}) = {} <= P({}) = {}",
                                f, vdd, vbb, p, prev_vbb, prev_p
                            );
                        }
                        prev = Some((vbb, p));
                    }
                }
            }
        }
    }
}
