//! # eval-adapt
//!
//! High-dimensional dynamic adaptation for variation-induced timing errors
//! — §4 of the EVAL paper (MICRO 2008). Per program phase, a controller
//! chooses `2n + 3` outputs: the core frequency, per-subsystem `Vdd` (ASV)
//! and `Vbb` (ABB), the issue-queue size, and which functional-unit
//! implementation to enable — maximizing frequency subject to the error
//! rate (`PEMAX`), power (`PMAX`) and temperature (`TMAX`) constraints.
//!
//! Two interchangeable optimizer backends implement the paper's `Freq` and
//! `Power` algorithms (Figure 3):
//!
//! * [`ExhaustiveOptimizer`] — grid search over the actuator ladders (the
//!   oracle used offline by the manufacturer);
//! * [`FuzzyOptimizer`] — per-subsystem fuzzy controllers trained against
//!   the exhaustive oracle (the deployable software controller), one of
//!   the four [`LearnedOptimizer`] families of the controller zoo.
//!
//! On top of those sit the structure-choice rules of §4.2 (FU replication
//! per Figure 4, issue-queue resizing by estimated performance), the
//! retuning cycles of §4.3.3 with their five outcomes (Figure 13), the
//! static/dynamic adaptation drivers, and the campaign harness that
//! regenerates Figures 10–13 and Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod choice;
pub mod controller;
pub mod exhaustive;
mod fan_out;
pub mod fidelity;
pub mod fuzzy_ctl;
pub mod global_dvfs;
pub mod learned;
mod memo;
pub mod optimizer;
pub mod retune;
pub mod runtime;
pub mod surface;
pub mod teacher;
#[cfg(test)]
mod test_support;
pub mod tournament;
pub mod zoo;

pub use campaign::{Campaign, CampaignError, CampaignResult, CellResult, ChipFailure, Scheme};
pub use checkpoint::{
    committed_cells, fingerprint, CheckpointError, CheckpointOptions, CommittedChip,
};
pub use choice::{choose_fu, choose_queue};
pub use controller::{AdaptationTimeline, PhaseDecision};
pub use exhaustive::ExhaustiveOptimizer;
pub use fidelity::{fidelity_table, FidelityRow};
pub use fuzzy_ctl::{FuzzyOptimizer, TrainingBudget};
pub use global_dvfs::GlobalDvfsOptimizer;
pub use learned::{
    LearnedBank, LearnedOptimizer, MlpQ16, NnTable, PhaseModel, RegressionTree, Trainable,
};
pub use optimizer::{Optimizer, SceneEval, SubsystemScene};
pub use retune::{retune, Outcome, RetuneResult};
pub use runtime::{AdaptiveSystem, RuntimeEvent, RuntimeStats};
pub use teacher::{sample_bank, TeacherExamples};
pub use tournament::{SchemeScore, Tournament, TournamentResult};
pub use zoo::{Controller, ControllerZoo, OptimizerController, StaticController};
