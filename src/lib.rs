//! # eval — a reproduction of *EVAL: Utilizing Processors with
//! Variation-Induced Timing Errors* (MICRO 2008)
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`variation`] — VARIUS-style within-die process-variation maps;
//! * [`timing`] — VATS-style path-delay and `PE(f)` error models;
//! * [`power`] — Equations 6–9: power, leakage, thermal fixed point;
//! * [`uarch`] — the out-of-order core model, synthetic SPEC-like
//!   workloads, Diva checker and BBV phase detector;
//! * [`fuzzy`] — the trainable fuzzy controller of Appendix A;
//! * [`core`] — the EVAL framework: chips, subsystems, environments,
//!   constraints and the Equation-5 performance model;
//! * [`adapt`] — high-dimensional dynamic adaptation: the `Freq`/`Power`
//!   algorithms (exhaustive and fuzzy), structure choices, retuning
//!   cycles and the campaign harness. Every phase decision goes through
//!   [`adapt::Controller::decide`].
//!
//! ## Quickstart
//!
//! ```
//! use eval::prelude::*;
//!
//! // Manufacture a chip and ask how fast it can safely go.
//! let config = EvalConfig::micro08();
//! let factory = ChipFactory::new(config.clone());
//! let chip = factory.chip(1);
//! let fvar = chip.core(0).fvar_nominal(&config).get();
//! assert!(fvar < config.f_nominal_ghz); // variation costs frequency...
//!
//! // ...which high-dimensional dynamic adaptation wins back.
//! let w = Workload::by_name("swim").unwrap();
//! let profile = profile_workload(&w, 4_000, 1);
//! let oracle = ExhaustiveOptimizer::new();
//! let decision = OptimizerController::new("exhaustive", &oracle).decide(
//!     &config,
//!     chip.core(0),
//!     Environment::TS_ASV,
//!     &profile.phases[0],
//!     w.class,
//!     profile.rp_cycles,
//!     config.th_c, // sensed heat-sink temperature
//!     w.name,      // trace labels: workload and phase index
//!     0,
//!     Tracer::noop(),
//! );
//! assert!(decision.f_ghz > fvar);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eval_adapt as adapt;
pub use eval_core as core;
pub use eval_fuzzy as fuzzy;
pub use eval_power as power;
pub use eval_timing as timing;
pub use eval_uarch as uarch;
pub use eval_units as units;
pub use eval_variation as variation;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use eval_adapt::{
        fidelity_table, retune, AdaptationTimeline, AdaptiveSystem, Campaign, CampaignResult,
        CellResult, Controller, ExhaustiveOptimizer, FuzzyOptimizer, GlobalDvfsOptimizer,
        Optimizer, OptimizerController, Outcome, PhaseDecision, RetuneResult, RuntimeEvent, Scheme,
        SubsystemScene, TrainingBudget,
    };
    pub use eval_core::{
        AreaBreakdown, ChipFactory, ChipModel, Constraints, CoreModel, Environment, EvalConfig,
        FuChoice, OperatingConditions, OperatingPoint, PerfModel, QueueChoice, SubsystemId,
        SubsystemKind, VariantSelection, FREQ_LADDER, N_SUBSYSTEMS, VBB_LADDER, VDD_LADDER,
    };
    pub use eval_fuzzy::{FuzzyController, Normalizer, TrainingConfig};
    pub use eval_trace::Tracer;
    pub use eval_uarch::{
        profile_workload, Checker, PhaseDetector, PhaseProfile, TraceGenerator, Workload,
        WorkloadClass, WorkloadProfile,
    };
    pub use eval_variation::{ChipGrid, ChipMap, DeviceParams, VariationModel, VariationParams};
}
