//! Retuning cycles (§4.3.3): sensor-driven frequency correction after the
//! controller picks a configuration, and the five outcomes of Figure 13.

use eval_trace::{names, Event, Tracer};
use eval_units::GHz;

use eval_core::{
    CoreEvaluation, CoreModel, EvalConfig, VariantSelection, FREQ_LADDER, N_SUBSYSTEMS,
};

/// What happened after the controller's configuration was deployed
/// (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// No constraint violated and the first attempt at increasing `f`
    /// failed — the controller's output was near optimal.
    NoChange,
    /// No constraint violated but retuning could raise `f` further.
    LowFreq,
    /// The configuration violated `PEMAX`; `f` had to come down.
    Error,
    /// The configuration violated `TMAX`.
    Temp,
    /// The configuration violated `PMAX`.
    Power,
}

impl Outcome {
    /// All outcomes in Figure 13's legend order.
    pub const ALL: [Outcome; 5] = [
        Outcome::NoChange,
        Outcome::LowFreq,
        Outcome::Error,
        Outcome::Temp,
        Outcome::Power,
    ];

    /// Position of this outcome in [`Outcome::ALL`] (histogram slot).
    pub const fn index(self) -> usize {
        match self {
            Outcome::NoChange => 0,
            Outcome::LowFreq => 1,
            Outcome::Error => 2,
            Outcome::Temp => 3,
            Outcome::Power => 4,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::NoChange => "NoChange",
            Outcome::LowFreq => "LowFreq",
            Outcome::Error => "Error",
            Outcome::Temp => "Temp",
            Outcome::Power => "Power",
        }
    }
}

/// One frequency the retuning loop probed, with its direction and (if
/// rejected) the violated constraint. Recorded only when tracing is
/// enabled — [`RetuneResult::probes`] stays empty on the untraced path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetuneProbe {
    /// `initial`, `down`, or `up`.
    pub direction: &'static str,
    /// The probed frequency.
    pub f_ghz: f64,
    /// The violated constraint, when the probe was rejected.
    pub violation: Option<Outcome>,
}

/// The result of the retuning cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneResult {
    /// The final, violation-free core frequency.
    pub f_ghz: f64,
    /// How the initial configuration fared.
    pub outcome: Outcome,
    /// Frequency steps moved during retuning (for overhead accounting).
    pub steps: u32,
    /// Evaluation of the final configuration.
    pub evaluation: CoreEvaluation,
    /// The constraint that bound the final frequency: the last rejected
    /// probe's violation (`error-rate`, `temperature`, `power`), or
    /// `ladder-top` when no probe was rejected. Unlike
    /// [`RetuneResult::probes`], this is tracked on the untraced path
    /// too, so decisions carry it deterministically.
    pub binding: &'static str,
    /// The probe history (empty unless tracing is enabled).
    pub probes: Vec<RetuneProbe>,
}

/// Renders the binding constraint from the last rejected probe's
/// violation; no rejection means retuning ran out of ladder.
fn binding_label(last_violation: Option<Outcome>) -> &'static str {
    match last_violation {
        Some(Outcome::Error) => "error-rate",
        Some(Outcome::Temp) => "temperature",
        Some(Outcome::Power) => "power",
        _ => "ladder-top",
    }
}

/// Which constraint (if any) an evaluation violates, in the order sensors
/// report them in the paper: error-rate overruns are seen soonest, thermal
/// and power violations within a thermal time constant.
fn violation(config: &EvalConfig, eval: &CoreEvaluation) -> Option<Outcome> {
    if eval.pe_per_instruction > config.constraints.pe_max {
        Some(Outcome::Error)
    } else if eval.max_t_c > config.constraints.t_max_c {
        Some(Outcome::Temp)
    } else if eval.total_power_w > config.constraints.p_max_w {
        Some(Outcome::Power)
    } else {
        None
    }
}

/// One probed operating point, classified. Binding the evaluation into the
/// variant (instead of checking a separate `Option`) is what lets the
/// retuning loops below stay free of `unwrap`/`expect`.
enum Checked {
    /// Feasible and violation-free.
    Clean(CoreEvaluation),
    /// Feasible but violating a constraint.
    Violating(Outcome, CoreEvaluation),
    /// Thermal runaway (counts as a `Temp` violation).
    Runaway,
}

fn evaluate(
    config: &EvalConfig,
    plan: &eval_core::CoreEvalPlan<'_>,
    th_c: f64,
    f_ghz: f64,
    settings: &[(f64, f64)],
    alpha: &[f64; N_SUBSYSTEMS],
    rho: &[f64; N_SUBSYSTEMS],
) -> Option<CoreEvaluation> {
    plan.evaluate(config, th_c, GHz::raw(f_ghz), settings, alpha, rho)
        .ok()
}

/// Runs the retuning cycles on a chosen configuration.
///
/// If the configuration violates a constraint, `f` is decreased
/// exponentially — "first by 1 100 MHz step, then by 2 steps, 4, and 8
/// without running the controller — until the configuration causes no
/// violation"; then `f` ramps up in single steps to just below the first
/// violating frequency. If the configuration is clean, a single +1-step
/// probe distinguishes `NoChange` from `LowFreq`.
///
/// A thermally infeasible (runaway) point counts as a `Temp` violation.
///
/// With an enabled `tracer`, every frequency the loop checks is recorded
/// in [`RetuneResult::probes`] and emitted as a
/// [`RetuneStep`](Event::RetuneStep) event; with a disabled one the
/// probe history stays empty and nothing extra is allocated. The result
/// is otherwise the same either way.
#[allow(clippy::too_many_arguments)]
pub fn retune(
    config: &EvalConfig,
    core: &CoreModel,
    th_c: f64,
    f0_ghz: f64,
    settings: &[(f64, f64)],
    alpha: &[f64; N_SUBSYSTEMS],
    rho: &[f64; N_SUBSYSTEMS],
    variants: &VariantSelection,
    tracer: Tracer<'_>,
) -> RetuneResult {
    let mut probes: Vec<RetuneProbe> = Vec::new();
    // The last rejected probe's violation — the binding constraint — is
    // tracked unconditionally (a Copy write, no allocation) so the
    // untraced decision carries the same binding as the traced one.
    let last_violation = std::cell::Cell::new(None);
    // Variant-selected params/timing are invariant across the probe loop;
    // resolve them once instead of once per probed frequency.
    let plan = core.evaluation_plan(variants);
    let check = |f: f64, direction: &'static str, probes: &mut Vec<RetuneProbe>| -> Checked {
        let state = match evaluate(config, &plan, th_c, f, settings, alpha, rho) {
            Some(e) => match violation(config, &e) {
                None => Checked::Clean(e),
                Some(v) => Checked::Violating(v, e),
            },
            None => Checked::Runaway,
        };
        let probe_violation = match &state {
            Checked::Clean(_) => None,
            Checked::Violating(v, _) => Some(*v),
            Checked::Runaway => Some(Outcome::Temp),
        };
        if probe_violation.is_some() {
            last_violation.set(probe_violation);
        }
        if tracer.enabled() {
            probes.push(RetuneProbe {
                direction,
                f_ghz: f,
                violation: probe_violation,
            });
            tracer.count(names::RETUNE_PROBES);
            tracer.event(|| Event::RetuneStep {
                direction,
                f_ghz: f,
                violation: probe_violation.map(|v| v.label()),
            });
        }
        state
    };

    let mut steps = 0u32;
    match check(f0_ghz, "initial", &mut probes) {
        Checked::Clean(mut eval) => {
            // Clean: probe upward.
            let mut f = f0_ghz;
            let mut raised = false;
            loop {
                let next = FREQ_LADDER.step_by(f, 1);
                if next <= f {
                    break; // already at the top of the ladder
                }
                match check(next, "up", &mut probes) {
                    Checked::Clean(e) => {
                        f = next;
                        eval = e;
                        raised = true;
                        steps += 1;
                    }
                    _ => break,
                }
            }
            RetuneResult {
                f_ghz: f,
                outcome: if raised {
                    Outcome::LowFreq
                } else {
                    Outcome::NoChange
                },
                steps,
                evaluation: eval,
                binding: binding_label(last_violation.get()),
                probes,
            }
        }
        first => {
            let initial_violation = match &first {
                Checked::Violating(v, _) => *v,
                _ => Outcome::Temp,
            };
            // Exponential back-off: 1, 2, 4, 8, 8, ... steps.
            let mut f = f0_ghz;
            let mut back = 1i64;
            let eval = loop {
                let next = FREQ_LADDER.step_by(f, -back);
                steps += back.unsigned_abs() as u32;
                f = next;
                match check(f, "down", &mut probes) {
                    Checked::Clean(e) => break e,
                    state if f <= FREQ_LADDER.min + 1e-9 => {
                        // Even the ladder floor violates with these settings;
                        // report the floor — the next controller invocation
                        // will pick different voltages.
                        return RetuneResult {
                            f_ghz: f,
                            outcome: initial_violation,
                            steps,
                            evaluation: floor_evaluation(
                                state, config, &plan, th_c, settings, alpha, rho,
                            ),
                            binding: binding_label(last_violation.get()),
                            probes,
                        };
                    }
                    _ => {}
                }
                back = (back * 2).min(8);
            };
            // Ramp back up in single steps to just below the violation.
            let mut best = eval;
            loop {
                let next = FREQ_LADDER.step_by(f, 1);
                if next <= f || next >= f0_ghz {
                    break;
                }
                match check(next, "up", &mut probes) {
                    Checked::Clean(e) => {
                        f = next;
                        best = e;
                        steps += 1;
                    }
                    _ => break,
                }
            }
            RetuneResult {
                f_ghz: f,
                outcome: initial_violation,
                steps,
                evaluation: best,
                binding: binding_label(last_violation.get()),
                probes,
            }
        }
    }
}

/// The evaluation reported when retuning bottoms out at the ladder floor:
/// the floor point itself if it at least converged, otherwise a probe at
/// the floor with nominal voltages so callers still get numbers.
#[allow(clippy::too_many_arguments)]
fn floor_evaluation(
    state: Checked,
    config: &EvalConfig,
    plan: &eval_core::CoreEvalPlan<'_>,
    th_c: f64,
    settings: &[(f64, f64)],
    alpha: &[f64; N_SUBSYSTEMS],
    rho: &[f64; N_SUBSYSTEMS],
) -> CoreEvaluation {
    match state {
        Checked::Clean(e) | Checked::Violating(_, e) => e,
        Checked::Runaway => {
            let floor_settings: Vec<(f64, f64)> = settings.iter().map(|_| (1.0, 0.0)).collect();
            evaluate(
                config,
                plan,
                th_c,
                FREQ_LADDER.min,
                &floor_settings,
                alpha,
                rho,
            )
            // lint:allow(panic-safety): the 2.4 GHz floor at nominal
            // voltages converges for every chip the variation model can
            // produce; a runaway here means the thermal model itself broke.
            .expect("nominal floor operating point is feasible")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::factory;

    fn run(f0: f64, vdd: f64) -> RetuneResult {
        let cfg = factory().config().clone();
        let chip = factory().chip(6);
        let settings = vec![(vdd, 0.0); N_SUBSYSTEMS];
        retune(
            &cfg,
            chip.core(0),
            cfg.th_c,
            f0,
            &settings,
            &[0.5; N_SUBSYSTEMS],
            &[0.5; N_SUBSYSTEMS],
            &VariantSelection::default(),
            Tracer::noop(),
        )
    }

    #[test]
    fn overclocked_start_is_flagged_and_corrected() {
        // 5.6 GHz at nominal voltage is far past the error onset.
        let r = run(5.6, 1.0);
        assert_eq!(r.outcome, Outcome::Error);
        assert!(r.f_ghz < 5.6);
        let cfg = factory().config().clone();
        assert!(r.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
    }

    #[test]
    fn underclocked_start_ramps_up() {
        let r = run(2.4, 1.0);
        assert_eq!(r.outcome, Outcome::LowFreq);
        assert!(r.f_ghz > 2.4);
    }

    #[test]
    fn final_state_never_violates() {
        let cfg = factory().config().clone();
        for f0 in [2.4, 3.2, 4.0, 4.8, 5.6] {
            let r = run(f0, 1.1);
            assert!(r.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
            assert!(r.evaluation.max_t_c <= cfg.constraints.t_max_c);
            assert!(r.evaluation.total_power_w <= cfg.constraints.p_max_w);
        }
    }

    #[test]
    fn near_optimal_start_is_nochange() {
        // Find the equilibrium, then restart there: must be NoChange.
        let r1 = run(4.0, 1.0);
        let r2 = run(r1.f_ghz, 1.0);
        assert_eq!(r2.outcome, Outcome::NoChange);
        assert!((r2.f_ghz - r1.f_ghz).abs() < 1e-9);
    }

    #[test]
    fn untraced_probes_are_empty_traced_probes_match_events() {
        let cfg = factory().config().clone();
        let chip = factory().chip(6);
        let settings = vec![(1.0, 0.0); N_SUBSYSTEMS];
        let plain = retune(
            &cfg,
            chip.core(0),
            cfg.th_c,
            5.6,
            &settings,
            &[0.5; N_SUBSYSTEMS],
            &[0.5; N_SUBSYSTEMS],
            &VariantSelection::default(),
            Tracer::noop(),
        );
        assert!(plain.probes.is_empty());

        let collector = eval_trace::Collector::new();
        let traced = retune(
            &cfg,
            chip.core(0),
            cfg.th_c,
            5.6,
            &settings,
            &[0.5; N_SUBSYSTEMS],
            &[0.5; N_SUBSYSTEMS],
            &VariantSelection::default(),
            eval_trace::Tracer::new(&collector),
        );
        // Same numeric result either way.
        assert_eq!(plain.f_ghz, traced.f_ghz);
        assert_eq!(plain.outcome, traced.outcome);
        assert_eq!(plain.steps, traced.steps);
        // Probe history starts with the rejected initial point and has one
        // RetuneStep event per probe.
        assert!(!traced.probes.is_empty());
        assert_eq!(traced.probes[0].direction, "initial");
        assert_eq!(traced.probes[0].violation, Some(Outcome::Error));
        assert_eq!(collector.events().len(), traced.probes.len());
        assert_eq!(
            collector.registry().counter("retune.probes"),
            traced.probes.len() as u64
        );
    }

    #[test]
    fn retuning_is_monotone_in_start_frequency() {
        // Wherever it starts, retuning converges to the same ceiling
        // (within one step, because the ramp stops below f0).
        let lo = run(2.4, 1.0);
        let hi = run(5.6, 1.0);
        assert!((lo.f_ghz - hi.f_ghz).abs() <= FREQ_LADDER.step + 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::test_support::factory;
    use eval_core::{FuChoice, QueueChoice};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Whatever the chip, core, starting frequency, voltages and
        /// variants, retuning ends on the ladder and (except at the
        /// unreachable ladder floor) in a state that satisfies every
        /// constraint.
        #[test]
        fn prop_retune_ends_clean_and_on_ladder(
            chip_seed in 1u64..40,
            core in 0usize..4,
            f_idx in 0usize..33,
            vdd_idx in 0usize..9,
            alpha in 0.05f64..0.9,
            lowslope in proptest::bool::ANY,
            small_q in proptest::bool::ANY,
        ) {
            let cfg = factory().config().clone();
            let chip = factory().chip(chip_seed);
            let f0 = FREQ_LADDER.at(f_idx);
            let vdd = eval_core::VDD_LADDER.at(vdd_idx);
            let settings = vec![(vdd, 0.0); N_SUBSYSTEMS];
            let variants = VariantSelection {
                int_fu: if lowslope { FuChoice::LowSlope } else { FuChoice::Normal },
                int_queue: if small_q { QueueChoice::Small } else { QueueChoice::Full },
                ..VariantSelection::default()
            };
            let r = retune(
                &cfg, chip.core(core), cfg.th_c, f0, &settings,
                &[alpha; N_SUBSYSTEMS], &[alpha; N_SUBSYSTEMS], &variants, Tracer::noop(),
            );
            prop_assert!(FREQ_LADDER.contains(r.f_ghz), "off-ladder {}", r.f_ghz);
            if r.f_ghz > FREQ_LADDER.min + 1e-9 {
                prop_assert!(r.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
                prop_assert!(r.evaluation.max_t_c <= cfg.constraints.t_max_c);
                prop_assert!(r.evaluation.total_power_w <= cfg.constraints.p_max_w);
            }
        }
    }
}
