//! The deployed controller system (§4.3.2–4.3.3): a phase detector watches
//! the committed instruction stream; new phases trigger the measurement
//! window and the controller routines; recurring phases reuse their saved
//! configuration ("if this phase has been seen before, a saved
//! configuration is reused").

use std::collections::BTreeMap;

use eval_core::{CoreModel, Environment, EvalConfig};
use eval_trace::{names, Event, Tracer};
use eval_uarch::profile::PhaseProfile;
use eval_uarch::{PhaseDetector, WorkloadClass};

use crate::campaign::OutcomeCounts;
use crate::controller::{AdaptationTimeline, PhaseDecision};
use crate::zoo::Controller;

/// Bookkeeping of a running adaptive system.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Controller invocations (new phases).
    pub controller_runs: u64,
    /// Saved-configuration reuses (recurring phases).
    pub config_reuses: u64,
    /// Instructions observed.
    pub instructions: u64,
    /// Controller decisions by retuning outcome (Figure 13's five
    /// outcomes).
    pub outcomes: OutcomeCounts,
}

impl RuntimeStats {
    /// Fraction of completed detection intervals served from the
    /// configuration cache (0 when no interval has completed).
    pub fn config_cache_hit_rate(&self) -> f64 {
        let total = self.controller_runs + self.config_reuses;
        if total == 0 {
            0.0
        } else {
            self.config_reuses as f64 / total as f64
        }
    }
}

/// What the system did in response to one observed instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A new phase was detected; the controller ran and produced this
    /// configuration (also now active).
    Adapted(PhaseDecision),
    /// A known phase recurred; its saved configuration was reactivated.
    Reused(PhaseDecision),
}

/// The runtime adaptation loop for one core: detector + controller +
/// configuration cache. Any [`Controller`] sits in the controller slot,
/// so a [`StaticController`](crate::zoo::StaticController) provisions for
/// `TH_MAX` here exactly as it does in a campaign.
pub struct AdaptiveSystem<'a> {
    config: &'a EvalConfig,
    core: &'a CoreModel,
    controller: &'a dyn Controller,
    env: Environment,
    class: WorkloadClass,
    rp_cycles: f64,
    detector: PhaseDetector,
    timeline: AdaptationTimeline,
    // BTreeMap, not HashMap: iteration order must not depend on hasher
    // seeds anywhere on the simulation path (eval-lint: determinism).
    saved: BTreeMap<u32, PhaseDecision>,
    active: Option<PhaseDecision>,
    stats: RuntimeStats,
    overhead_us: f64,
    tracer: Tracer<'a>,
}

impl<'a> AdaptiveSystem<'a> {
    /// Creates the system with the evaluation's detector settings.
    pub fn new(
        config: &'a EvalConfig,
        core: &'a CoreModel,
        controller: &'a dyn Controller,
        env: Environment,
        class: WorkloadClass,
        rp_cycles: f64,
    ) -> Self {
        Self {
            config,
            core,
            controller,
            env,
            class,
            rp_cycles,
            detector: PhaseDetector::micro08(),
            timeline: AdaptationTimeline::micro08(),
            saved: BTreeMap::new(),
            active: None,
            stats: RuntimeStats::default(),
            overhead_us: 0.0,
            tracer: Tracer::noop(),
        }
    }

    /// Replaces the phase detector (e.g. shorter intervals for tests).
    pub fn with_detector(mut self, detector: PhaseDetector) -> Self {
        self.detector = detector;
        self
    }

    /// Attaches a tracer: phase detections, cache hit/miss counters and
    /// full controller-decision events flow into it.
    pub fn with_tracer(mut self, tracer: Tracer<'a>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Observes one committed instruction's basic-block id. When a
    /// detection interval completes, either runs the controller (new
    /// phase; `measure` is called to model the counter window producing
    /// the phase's profile) or reuses the saved configuration.
    pub fn observe<F: FnOnce() -> PhaseProfile>(
        &mut self,
        bb_id: u32,
        measure: F,
    ) -> Option<RuntimeEvent> {
        self.stats.instructions += 1;
        let event = self.detector.observe(bb_id)?;
        if let Some(saved) = self.saved.get(&event.id.0) {
            // Known phase: reactivate at transition cost only.
            self.stats.config_reuses += 1;
            self.tracer.count(names::CACHE_HIT);
            self.tracer.event(|| Event::PhaseDetected {
                phase_id: event.id.0,
                recurring: true,
            });
            self.overhead_us +=
                self.timeline.overhead_fraction_reuse() * self.timeline.phase_length_us;
            self.active = Some(saved.clone());
            return Some(RuntimeEvent::Reused(saved.clone()));
        }
        // New phase: measure, run the controller routines, save.
        self.tracer.count(names::CACHE_MISS);
        self.tracer.event(|| Event::PhaseDetected {
            phase_id: event.id.0,
            recurring: false,
        });
        let profile = measure();
        let decision = self.controller.decide(
            self.config,
            self.core,
            self.env,
            &profile,
            self.class,
            self.rp_cycles,
            self.config.th_c,
            "runtime",
            u64::from(event.id.0),
            self.tracer,
        );
        self.stats.controller_runs += 1;
        self.stats.outcomes.add(decision.outcome);
        self.overhead_us +=
            self.timeline.overhead_fraction(decision.retune_steps) * self.timeline.phase_length_us;
        self.saved.insert(event.id.0, decision.clone());
        self.active = Some(decision.clone());
        Some(RuntimeEvent::Adapted(decision))
    }

    /// The configuration currently applied to the core, if any phase has
    /// completed yet.
    pub fn active(&self) -> Option<&PhaseDecision> {
        self.active.as_ref()
    }

    /// Counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.clone()
    }

    /// Total microseconds of application time spent on adaptation.
    pub fn overhead_us(&self) -> f64 {
        self.overhead_us
    }

    /// Distinct phases seen by the detector.
    pub fn phases_seen(&self) -> usize {
        self.detector.phases_seen()
    }
}

impl std::fmt::Debug for AdaptiveSystem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveSystem")
            .field("env", &self.env.name)
            .field("stats", &self.stats)
            .field("phases_seen", &self.detector.phases_seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveOptimizer;
    use crate::optimizer::{Optimizer, SubsystemScene};
    use crate::retune::Outcome;
    use crate::test_support::factory;
    use crate::zoo::{OptimizerController, StaticController};
    use eval_core::FREQ_LADDER;
    use eval_uarch::{profile_workload, TraceGenerator, Workload, WorkloadProfile};

    /// Feeds `w`'s synthetic instruction stream to `system`, measuring
    /// each interval as the spec phase it falls in; calls `on_event`
    /// with the measured phase and the system's response.
    fn drive(
        system: &mut AdaptiveSystem<'_>,
        w: &Workload,
        profile: &WorkloadProfile,
        seed: u64,
        mut on_event: impl FnMut(&PhaseProfile, RuntimeEvent),
    ) {
        let mut current_phase = 0usize;
        let mut seen = 0u64;
        for insn in TraceGenerator::new(w, seed) {
            seen += 1;
            let mut consumed = 0;
            for (i, p) in w.phases.iter().enumerate() {
                consumed += p.instructions;
                if seen <= consumed {
                    current_phase = i;
                    break;
                }
            }
            let ph = profile.phases[current_phase].clone();
            if let Some(event) = system.observe(insn.bb_id, || ph.clone()) {
                on_event(&ph, event);
            }
        }
    }

    #[test]
    fn controller_runs_once_per_distinct_phase_then_reuses() {
        let cfg = factory().config().clone();
        let chip = factory().chip(9);
        let w = Workload::by_name("gzip").expect("exists");
        let profile = profile_workload(&w, 4_000, 9);
        let oracle = ExhaustiveOptimizer::new();
        let controller = OptimizerController::new("exhaustive", &oracle);
        let mut system = AdaptiveSystem::new(
            &cfg,
            chip.core(0),
            &controller,
            Environment::TS_ASV,
            w.class,
            profile.rp_cycles,
        )
        .with_detector(PhaseDetector::new(5_000, 150));

        drive(&mut system, &w, &profile, 9, |_, _| {});
        let stats = system.stats();
        assert!(stats.controller_runs >= 2, "both phases must adapt");
        assert!(
            stats.controller_runs <= 4,
            "runs ({}) should track distinct phases, not intervals",
            stats.controller_runs
        );
        assert!(
            stats.config_reuses > stats.controller_runs,
            "stable phases should mostly reuse ({} vs {})",
            stats.config_reuses,
            stats.controller_runs
        );
        assert!(system.active().is_some());
        // Overhead is microscopic relative to execution (Figure 6's point).
        assert!(system.overhead_us() < 1_000.0);
    }

    /// Answers the bottom of the frequency ladder at nominal voltages, so
    /// retuning raises `f` (outcome `LowFreq`, not the oracle's
    /// `NoChange`).
    struct Timid;

    impl Optimizer for Timid {
        fn freq_max(&self, _: &EvalConfig, _: &SubsystemScene<'_>) -> f64 {
            FREQ_LADDER.min
        }

        fn power_settings(&self, _: &EvalConfig, _: &SubsystemScene<'_>, _: f64) -> (f64, f64) {
            (1.0, 0.0)
        }
    }

    #[test]
    fn stats_track_cache_hit_rate_outcomes_and_trace_counters() {
        let cfg = factory().config().clone();
        let chip = factory().chip(9);
        let w = Workload::by_name("gzip").expect("exists");
        let profile = profile_workload(&w, 4_000, 9);
        let controller = OptimizerController::new("timid", &Timid);
        let collector = eval_trace::Collector::new();
        let mut system = AdaptiveSystem::new(
            &cfg,
            chip.core(0),
            &controller,
            Environment::TS_ASV,
            w.class,
            profile.rp_cycles,
        )
        .with_detector(PhaseDetector::new(5_000, 150))
        .with_tracer(eval_trace::Tracer::new(&collector));

        let ph = profile.phases[0].clone();
        let mut adapted = OutcomeCounts::default();
        for i in 0..30_000u32 {
            let ph2 = ph.clone();
            if let Some(RuntimeEvent::Adapted(d)) = system.observe(100 + i % 8, move || ph2) {
                adapted.add(d.outcome);
            }
        }
        let stats = system.stats();
        assert!(stats.controller_runs >= 1);
        assert!(stats.config_reuses >= 1);
        // Hit rate is reuses / completed intervals, and matches the
        // cache.hit / cache.miss trace counters exactly.
        let expected =
            stats.config_reuses as f64 / (stats.controller_runs + stats.config_reuses) as f64;
        assert!((stats.config_cache_hit_rate() - expected).abs() < 1e-12);
        assert!(stats.config_cache_hit_rate() > 0.5, "stable phase should mostly hit");
        let reg = collector.registry();
        assert_eq!(reg.counter("cache.hit"), stats.config_reuses);
        assert_eq!(reg.counter("cache.miss"), stats.controller_runs);
        // Outcome counts cover every controller run, one per adaptation.
        assert_eq!(stats.outcomes.total(), stats.controller_runs);
        assert_eq!(stats.outcomes, adapted);
        assert_eq!(stats.outcomes.fraction(Outcome::LowFreq), 1.0);
        // One phase-detected event per completed interval.
        let detections = collector
            .events()
            .iter()
            .filter(|e| matches!(e, Event::PhaseDetected { .. }))
            .count() as u64;
        assert_eq!(detections, stats.controller_runs + stats.config_reuses);
    }

    #[test]
    fn empty_stats_report_zero_hit_rate() {
        let stats = RuntimeStats::default();
        assert_eq!(stats.config_cache_hit_rate(), 0.0);
        assert_eq!(stats.outcomes.total(), 0);
    }

    #[test]
    fn reused_configuration_is_identical_to_the_saved_one() {
        let cfg = factory().config().clone();
        let chip = factory().chip(10);
        let w = Workload::by_name("mesa").expect("exists");
        let profile = profile_workload(&w, 4_000, 10);
        let oracle = ExhaustiveOptimizer::new();
        let controller = OptimizerController::new("exhaustive", &oracle);
        let mut system = AdaptiveSystem::new(
            &cfg,
            chip.core(0),
            &controller,
            Environment::TS,
            w.class,
            profile.rp_cycles,
        )
        .with_detector(PhaseDetector::new(2_000, 150));

        let ph = profile.phases[0].clone();
        let mut first: Option<PhaseDecision> = None;
        // Constant behaviour: one phase, repeatedly.
        for i in 0..20_000u32 {
            let ph2 = ph.clone();
            match system.observe(100 + i % 8, move || ph2) {
                Some(RuntimeEvent::Adapted(d)) => {
                    assert!(first.is_none(), "only one adaptation expected");
                    first = Some(d);
                }
                Some(RuntimeEvent::Reused(d)) => {
                    assert_eq!(Some(&d), first.as_ref(), "reuse must be verbatim");
                }
                None => {}
            }
        }
        assert!(first.is_some());
    }

    #[test]
    fn the_runtime_runs_static_provisioned_for_th_max() {
        let cfg = factory().config().clone();
        assert!(
            cfg.th_c < cfg.constraints.th_max_c,
            "sensed and TH_MAX must differ"
        );
        let chip = factory().chip(9);
        let w = Workload::by_name("gzip").expect("exists");
        let profile = profile_workload(&w, 4_000, 9);
        let oracle = ExhaustiveOptimizer::new();
        let static_c = StaticController::new(&oracle);
        let sensed = OptimizerController::new("exhaustive", &oracle);
        let collector = eval_trace::Collector::new();
        let mut system = AdaptiveSystem::new(
            &cfg,
            chip.core(0),
            &static_c,
            Environment::TS_ASV,
            w.class,
            profile.rp_cycles,
        )
        .with_detector(PhaseDetector::new(5_000, 150))
        .with_tracer(eval_trace::Tracer::new(&collector));

        let (mut adapted, mut below_sensed) = (0, 0);
        drive(&mut system, &w, &profile, 9, |ph, event| {
            let RuntimeEvent::Adapted(d) = event else {
                return;
            };
            adapted += 1;
            let decide = |c: &dyn Controller| {
                c.decide(
                    &cfg,
                    chip.core(0),
                    Environment::TS_ASV,
                    ph,
                    w.class,
                    profile.rp_cycles,
                    cfg.th_c,
                    "runtime",
                    0,
                    Tracer::noop(),
                )
            };
            let expected = decide(&static_c);
            assert_eq!(
                d, expected,
                "runtime decision equals StaticController::decide"
            );
            assert_eq!(d.f_ghz.to_bits(), expected.f_ghz.to_bits());
            for (a, b) in d.settings.iter().zip(&expected.settings) {
                assert_eq!(
                    (a.0.to_bits(), a.1.to_bits()),
                    (b.0.to_bits(), b.1.to_bits())
                );
            }
            if d.f_ghz < decide(&sensed).f_ghz {
                below_sensed += 1;
            }
        });
        assert!(adapted >= 2, "both phases must adapt");
        // Provisioning for the hotter sink costs frequency: the runtime
        // did not decide at the sensed temperature.
        assert!(below_sensed >= 1, "no decision was provisioned for TH_MAX");

        let stats = system.stats();
        let decisions: Vec<_> = collector
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Decision(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len() as u64, stats.controller_runs);
        assert!(decisions
            .iter()
            .all(|d| d.scheme == "static" && d.workload == "runtime"));
        let reg = collector.registry();
        assert_eq!(reg.counter("decision.count.static"), stats.controller_runs);
        assert_eq!(reg.counter("cache.hit"), stats.config_reuses);
        assert_eq!(reg.counter("cache.miss"), stats.controller_runs);
    }
}
