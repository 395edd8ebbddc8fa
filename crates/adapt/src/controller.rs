//! The controller system (§4.3.2–4.3.3): per-phase decision making that
//! glues the `Freq`/`Power` algorithms, the structure-choice rules and the
//! retuning cycles together, plus the adaptation timeline of Figure 6.

use eval_core::{
    CoreEvaluation, CoreModel, Environment, EvalConfig, FuChoice, PerfModel, QueueChoice,
    SubsystemId, VariantSelection, N_SUBSYSTEMS,
};
use eval_uarch::profile::PhaseProfile;
use eval_uarch::{QueueSize, WorkloadClass};

use eval_trace::{names, DecisionEvent, Event, RejectedCandidate, Tracer};

use crate::choice::{choose_fu, choose_queue};
use crate::optimizer::{Optimizer, SubsystemScene};
use crate::retune::{retune, Outcome};

/// The chosen configuration for one phase and its measured consequences.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDecision {
    /// Final core frequency after retuning, GHz.
    pub f_ghz: f64,
    /// Per-subsystem `(Vdd, Vbb)`, indexed by [`SubsystemId::index`].
    pub settings: Vec<(f64, f64)>,
    /// Enabled structure variants.
    pub variants: VariantSelection,
    /// Retuning outcome (Figure 13).
    pub outcome: Outcome,
    /// Which constraint bound the final frequency (`error-rate`,
    /// `temperature`, `power`, or `ladder-top`), derived from the retune
    /// probe history. Identical in traced and untraced runs; the
    /// `Decision` event and the postmortem bundle carry it.
    pub binding: &'static str,
    /// Retuning frequency steps taken.
    pub retune_steps: u32,
    /// Evaluation at the final configuration.
    pub evaluation: CoreEvaluation,
    /// The Equation-5 model used for this phase (with the chosen queue's
    /// `CPIcomp`).
    pub perf_model: PerfModel,
    /// Performance in billions of instructions per second.
    pub perf_bips: f64,
}

/// Identifying context for a traced decision: which scheme is deciding,
/// for which workload, at which phase index. Purely observational — the
/// decision itself never reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecisionContext {
    /// Scheme label (`static`, `fuzzy`, `exhaustive`, `nn-table`, `tree`,
    /// `mlp`).
    pub(crate) scheme: &'static str,
    /// Workload name, or `runtime` for the deployed adaptation loop.
    pub(crate) workload: &'static str,
    /// Phase index within the workload (detector id at run time).
    pub(crate) phase: u64,
}

/// Full static counter names per scheme (the registry keys are
/// `&'static str`, so names cannot be concatenated at runtime).
fn scheme_counter(scheme: &str) -> &'static str {
    match scheme {
        "static" => names::DECISION_COUNT_STATIC,
        "fuzzy" => names::DECISION_COUNT_FUZZY,
        "exhaustive" => names::DECISION_COUNT_EXHAUSTIVE,
        "nn-table" => names::DECISION_COUNT_NN_TABLE,
        "tree" => names::DECISION_COUNT_TREE,
        "mlp" => names::DECISION_COUNT_MLP,
        _ => names::DECISION_COUNT_OTHER,
    }
}

/// Per-scheme decision-latency timer names. The `_us` suffix marks them
/// wall-clock (outside the golden determinism contract); `eval-obs
/// analyze` folds them into per-scheme p50/p95/p99 latency digests.
fn scheme_latency(scheme: &str) -> &'static str {
    match scheme {
        "static" => names::DECISION_LATENCY_STATIC_US,
        "fuzzy" => names::DECISION_LATENCY_FUZZY_US,
        "exhaustive" => names::DECISION_LATENCY_EXHAUSTIVE_US,
        "nn-table" => names::DECISION_LATENCY_NN_TABLE_US,
        "tree" => names::DECISION_LATENCY_TREE_US,
        "mlp" => names::DECISION_LATENCY_MLP_US,
        _ => names::DECISION_LATENCY_OTHER_US,
    }
}

fn fu_label(choice: FuChoice) -> &'static str {
    match choice {
        FuChoice::Normal => "normal",
        FuChoice::LowSlope => "low-slope",
    }
}

fn queue_label(choice: QueueChoice) -> &'static str {
    match choice {
        QueueChoice::Full => "full",
        QueueChoice::Small => "small",
    }
}

/// The issue-queue size `variants` give a workload of `class`: three
/// quarters when the class's own queue runs its small variant.
pub(crate) fn queue_size(class: WorkloadClass, variants: &VariantSelection) -> QueueSize {
    match (class, variants.int_queue, variants.fp_queue) {
        (WorkloadClass::Int, QueueChoice::Small, _)
        | (WorkloadClass::Fp, _, QueueChoice::Small) => QueueSize::ThreeQuarters,
        _ => QueueSize::Full,
    }
}

/// Runs the full §4.2 decision procedure for one phase. Callers outside
/// this crate decide through [`Controller::decide`], which supplies the
/// context and the provisioned heat-sink temperature.
///
/// 1. Run the `Freq` algorithm per subsystem (via `optimizer`).
/// 2. Apply the FU-replication rule of Figure 4 (if the environment has
///    replicated FUs) for the FU matching the application class.
/// 3. Apply the issue-queue rule (estimated Equation-5 performance with
///    the counter-measured `CPIcomp` of each size).
/// 4. `f_core` = min over subsystems; run the `Power` algorithm at
///    `f_core`.
/// 5. Run the retuning cycles and return the final configuration.
///
/// With an enabled `tracer` the decision also records a `decide` span,
/// aggregate and per-scheme `decision.latency*_us` timers, per-scheme
/// decision counters, frequency/error-rate histogram observations, and
/// one [`Decision`](Event::Decision) event carrying the chosen operating
/// point, the binding constraint, the rejected retune candidates, and
/// the Equation-5 CPI breakdown, all labelled from `ctx`. The decision
/// itself never depends on the tracer or on `ctx`.
///
/// [`Controller::decide`]: crate::zoo::Controller::decide
// The argument list mirrors the controller's inputs (§4.1).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_phase(
    config: &EvalConfig,
    core: &CoreModel,
    optimizer: &dyn Optimizer,
    env: Environment,
    phase: &PhaseProfile,
    class: WorkloadClass,
    rp_cycles: f64,
    th_c: f64,
    ctx: &DecisionContext,
    tracer: Tracer<'_>,
) -> PhaseDecision {
    let _span = tracer.span("decide");
    let _latency = tracer.timer(names::DECISION_LATENCY_US);
    let _scheme_latency = tracer.timer(scheme_latency(ctx.scheme));
    let alpha = phase.activity.alpha_f;
    let rho = phase.activity.rho;
    let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);

    let scene = |id: SubsystemId, variants: VariantSelection| SubsystemScene {
        state: core.subsystem(id),
        variants,
        th_c,
        alpha_f: alpha[id.index()],
        rho: rho[id.index()].max(1e-3),
        pe_budget,
        env,
    };
    let fmax = |id: SubsystemId, variants: VariantSelection| {
        optimizer.freq_max(config, &scene(id, variants))
    };

    let fu_id = match class {
        WorkloadClass::Int => SubsystemId::IntAlu,
        WorkloadClass::Fp => SubsystemId::FpUnit,
    };
    let queue_id = match class {
        WorkloadClass::Int => SubsystemId::IntQueue,
        WorkloadClass::Fp => SubsystemId::FpQueue,
    };

    let base = VariantSelection::default();
    let mut fmax_base: [f64; N_SUBSYSTEMS] = [0.0; N_SUBSYSTEMS];
    for id in SubsystemId::ALL {
        fmax_base[id.index()] = fmax(id, base);
    }

    // --- FU replication rule (Figure 4) ---
    let mut variants = base;
    if env.fu_replication {
        let f_normal = fmax_base[fu_id.index()];
        let with_low = match fu_id {
            SubsystemId::IntAlu => VariantSelection {
                int_fu: FuChoice::LowSlope,
                ..base
            },
            _ => VariantSelection {
                fp_fu: FuChoice::LowSlope,
                ..base
            },
        };
        let f_low = fmax(fu_id, with_low).max(f_normal);
        let min_rest = SubsystemId::ALL
            .iter()
            .filter(|id| **id != fu_id)
            .map(|id| fmax_base[id.index()])
            .fold(f64::INFINITY, f64::min);
        if choose_fu(f_normal, f_low, min_rest) {
            variants = with_low;
            fmax_base[fu_id.index()] = f_low;
        }
    }

    // --- Issue-queue rule ---
    if env.queue {
        let with_small = match queue_id {
            SubsystemId::IntQueue => VariantSelection {
                int_queue: QueueChoice::Small,
                ..variants
            },
            _ => VariantSelection {
                fp_queue: QueueChoice::Small,
                ..variants
            },
        };
        let f_queue_small = fmax(queue_id, with_small);
        let min_core = |queue_fmax: f64| {
            SubsystemId::ALL
                .iter()
                .map(|id| {
                    if *id == queue_id {
                        queue_fmax
                    } else {
                        fmax_base[id.index()]
                    }
                })
                .fold(f64::INFINITY, f64::min)
        };
        let f_core_full = min_core(fmax_base[queue_id.index()]);
        let f_core_small = min_core(f_queue_small);
        let model_full = PerfModel::new(
            phase.cpi_comp(QueueSize::Full),
            phase.mr,
            phase.mp_ns,
            rp_cycles,
        );
        let model_small = PerfModel::new(
            phase.cpi_comp(QueueSize::ThreeQuarters),
            phase.mr,
            phase.mp_ns,
            rp_cycles,
        );
        if choose_queue(&model_full, f_core_full, &model_small, f_core_small) {
            variants = with_small;
            fmax_base[queue_id.index()] = f_queue_small;
        }
    }

    // --- core frequency and Power algorithm ---
    let f_core = fmax_base
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let settings: Vec<(f64, f64)> = SubsystemId::ALL
        .iter()
        .map(|id| optimizer.power_settings(config, &scene(*id, variants), f_core))
        .collect();

    // --- retuning cycles ---
    let result = {
        let _span = tracer.span("retune");
        retune(
            config, core, th_c, f_core, &settings, &alpha, &rho, &variants, tracer,
        )
    };

    let queue = queue_size(class, &variants);
    let perf_model = PerfModel::new(phase.cpi_comp(queue), phase.mr, phase.mp_ns, rp_cycles);
    let pe = result.evaluation.pe_per_instruction.clamp(0.0, 1.0);
    let perf_bips = perf_model.perf(result.f_ghz, pe);
    // The binding constraint comes from the retune loop itself (tracked
    // identically traced and untraced), not from the probe history.
    let binding = result.binding;

    tracer.count(names::DECISION_COUNT);
    tracer.count(scheme_counter(ctx.scheme));
    tracer.observe(names::DECISION_F_GHZ, result.f_ghz);
    tracer.observe(names::DECISION_PE_PER_INSTRUCTION, pe);
    tracer.event(|| {
        let breakdown = perf_model.breakdown(result.f_ghz, pe);
        Event::Decision(Box::new(DecisionEvent {
            scheme: ctx.scheme,
            env: env.name,
            workload: ctx.workload,
            phase: ctx.phase,
            f_ghz: result.f_ghz,
            settings: settings.clone(),
            int_fu: fu_label(variants.int_fu),
            fp_fu: fu_label(variants.fp_fu),
            int_queue: queue_label(variants.int_queue),
            fp_queue: queue_label(variants.fp_queue),
            outcome: result.outcome.label(),
            binding,
            retune_steps: result.steps,
            rejected: result
                .probes
                .iter()
                .filter_map(|p| {
                    p.violation.map(|v| RejectedCandidate {
                        f_ghz: p.f_ghz,
                        violation: v.label(),
                    })
                })
                .collect(),
            pe_per_instruction: result.evaluation.pe_per_instruction,
            power_w: result.evaluation.total_power_w,
            max_t_c: result.evaluation.max_t_c,
            perf_bips,
            cpi_comp: breakdown.comp,
            cpi_mem: breakdown.mem,
            cpi_recovery: breakdown.recovery,
        }))
    });

    PhaseDecision {
        f_ghz: result.f_ghz,
        settings,
        variants,
        outcome: result.outcome,
        binding,
        retune_steps: result.steps,
        evaluation: result.evaluation,
        perf_model,
        perf_bips,
    }
}

/// The timeline of Figure 6, for overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationTimeline {
    /// Mean stable-phase length (the paper measures ~120 ms in SPEC).
    pub phase_length_us: f64,
    /// Counter-based `alpha_f`/`CPIcomp` measurement window.
    pub measure_us: f64,
    /// Fuzzy-controller software runtime (~6 us at 4 GHz).
    pub controller_us: f64,
    /// Voltage/frequency transition time (XScale-style).
    pub transition_us: f64,
    /// Per-retuning-step cost (one 100 MHz move).
    pub retune_step_us: f64,
}

impl AdaptationTimeline {
    /// Figure 6 values.
    pub fn micro08() -> Self {
        Self {
            phase_length_us: 120_000.0,
            measure_us: 20.0,
            controller_us: 6.0,
            transition_us: 10.0,
            retune_step_us: 0.5,
        }
    }

    /// Fraction of a phase lost to adaptation when the controller runs and
    /// retuning takes `steps` moves. The application keeps running during
    /// measurement; only the controller runtime and transition stall it.
    pub fn overhead_fraction(&self, steps: u32) -> f64 {
        (self.controller_us + self.transition_us + self.retune_step_us * f64::from(steps))
            / self.phase_length_us
    }

    /// Overhead when a phase was seen before (saved configuration reused:
    /// no controller run, just the transition).
    pub fn overhead_fraction_reuse(&self) -> f64 {
        self.transition_us / self.phase_length_us
    }
}

impl Default for AdaptationTimeline {
    fn default() -> Self {
        Self::micro08()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveOptimizer;
    use crate::test_support::factory;
    use crate::zoo::{Controller, OptimizerController};
    use eval_uarch::{profile_workload, Workload};

    fn decide(workload: &str, env: Environment, seed: u64) -> PhaseDecision {
        let cfg = factory().config().clone();
        let chip = factory().chip(seed);
        let w = Workload::by_name(workload).unwrap();
        let profile = profile_workload(&w, 6_000, 5);
        OptimizerController::new("exhaustive", &ExhaustiveOptimizer::new()).decide(
            &cfg,
            chip.core(0),
            env,
            &profile.phases[0],
            w.class,
            profile.rp_cycles,
            cfg.th_c,
            w.name,
            0,
            Tracer::noop(),
        )
    }

    #[test]
    fn decisions_respect_all_constraints() {
        let cfg = factory().config().clone();
        for env in [Environment::TS, Environment::TS_ASV, Environment::TS_ASV_Q_FU] {
            let d = decide("swim", env, 8);
            assert!(d.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
            assert!(d.evaluation.max_t_c <= cfg.constraints.t_max_c);
            assert!(d.evaluation.total_power_w <= cfg.constraints.p_max_w);
            assert!(d.perf_bips > 0.0);
        }
    }

    #[test]
    fn asv_environment_is_at_least_as_fast_as_ts() {
        let ts = decide("gcc", Environment::TS, 9);
        let asv = decide("gcc", Environment::TS_ASV, 9);
        assert!(
            asv.f_ghz >= ts.f_ghz - 1e-9,
            "TS+ASV {} should be >= TS {}",
            asv.f_ghz,
            ts.f_ghz
        );
    }

    #[test]
    fn ts_environment_keeps_nominal_voltages() {
        let d = decide("mcf", Environment::TS, 10);
        assert!(d.settings.iter().all(|&(vdd, vbb)| vdd == 1.0 && vbb == 0.0));
    }

    #[test]
    fn fp_workload_adapts_fp_structures_only() {
        let d = decide("swim", Environment::TS_ASV_Q_FU, 11);
        // Integer-side variants stay at their defaults for an FP app.
        assert_eq!(d.variants.int_fu, FuChoice::Normal);
        assert_eq!(d.variants.int_queue, QueueChoice::Full);
    }

    #[test]
    fn traced_decision_matches_untraced_and_emits_full_event() {
        let cfg = factory().config().clone();
        let chip = factory().chip(8);
        let w = Workload::by_name("swim").unwrap();
        let profile = profile_workload(&w, 6_000, 5);
        let oracle = ExhaustiveOptimizer::new();
        let exh = OptimizerController::new("exhaustive", &oracle);
        let decide = |tracer| {
            exh.decide(
                &cfg,
                chip.core(0),
                Environment::TS_ASV,
                &profile.phases[0],
                w.class,
                profile.rp_cycles,
                cfg.th_c,
                "swim",
                0,
                tracer,
            )
        };
        let plain = decide(Tracer::noop());
        let collector = eval_trace::Collector::new();
        let timing = eval_trace::Collector::new();
        let traced = decide(eval_trace::Tracer::with_timing(&collector, &timing));
        // Tracing must not perturb the decision (including the binding
        // constraint, which the untraced path tracks without probes).
        assert_eq!(plain, traced);

        let reg = collector.registry();
        assert_eq!(reg.counter("decision.count"), 1);
        assert_eq!(reg.counter("decision.count.exhaustive"), 1);
        let decisions: Vec<_> = collector
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Decision(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert_eq!(d.scheme, "exhaustive");
        assert_eq!(d.env, "TS+ASV");
        assert_eq!(d.workload, "swim");
        assert_eq!(d.f_ghz, traced.f_ghz);
        assert_eq!(d.settings.len(), N_SUBSYSTEMS);
        assert!(
            ["error-rate", "temperature", "power", "ladder-top"].contains(&d.binding),
            "binding = {}",
            d.binding
        );
        assert_eq!(d.binding, traced.binding, "event and decision agree");
        // CPI breakdown is consistent with the decision's perf model.
        let total = d.cpi_comp + d.cpi_mem + d.cpi_recovery;
        let pe = traced.evaluation.pe_per_instruction.clamp(0.0, 1.0);
        assert!((total - traced.perf_model.cpi(traced.f_ghz, pe)).abs() < 1e-12);
        // Spans and latency timers land on the timing sink only: the
        // primary stream is bit-identical with profiling on or off.
        assert!(collector.spans().is_empty());
        assert!(reg.histogram("decision.latency_us").is_none_or(|h| h.count() == 0));
        assert!(timing.spans().keys().any(|k| k.contains("decide")));
        let treg = timing.registry();
        assert!(treg.histogram("decision.latency_us").is_some_and(|h| h.count() == 1));
        assert!(treg
            .histogram("decision.latency.exhaustive_us")
            .is_some_and(|h| h.count() == 1));
    }

    #[test]
    fn timeline_overhead_is_small() {
        let t = AdaptationTimeline::micro08();
        // Even a long retuning run costs well under 0.1% of a phase.
        assert!(t.overhead_fraction(20) < 1e-3);
        assert!(t.overhead_fraction_reuse() < t.overhead_fraction(0));
    }
}
