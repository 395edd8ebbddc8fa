//! # eval-core
//!
//! The EVAL framework (MICRO 2008): ties the variation, timing, power and
//! microarchitecture substrates into a per-chip model of a 4-core CMP whose
//! cores comprise the 15 subsystems of Figure 7(b), and defines
//!
//! * the **environments** of Table 1 (`Baseline`, `TS`, `TS+ASV`, …,
//!   `NoVar`) as capability sets ([`env`](mod@env)),
//! * the **performance model** of Equation 5 ([`perf`]),
//! * the **constraint set** and actuator ladders (re-exported from
//!   `eval-power`),
//! * the **area accounting** of Figure 7(d) ([`area`]), and
//! * the per-chip, per-subsystem state ([`chip`]) used by the optimizers in
//!   `eval-adapt`: error rate `PE(f)` under any `(Vdd, Vbb, T)`, thermal
//!   solutions, and the low-slope / downsized structure variants.
//!
//! ## Example
//!
//! ```
//! use eval_core::{ChipModel, EvalConfig};
//!
//! let config = EvalConfig::micro08();
//! let chip = ChipModel::sample(&config, 0);
//! let core = chip.core(0);
//! // Variation makes the safe frequency workload-independent and usually
//! // below the 4 GHz nominal:
//! let fvar = core.fvar_nominal(&config);
//! assert!(fvar.get() > 2.0 && fvar.get() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod chip;
pub mod config;
pub mod env;
pub mod layout;
pub mod perf;
pub mod retiming;
pub mod subsystem;
pub mod tester;

pub use area::AreaBreakdown;
pub use chip::{
    ChipFactory, ChipModel, CoreEvalPlan, CoreEvaluation, CoreModel, FuChoice, InfeasibleConfig,
    QueueChoice, SubsystemEvaluation, SubsystemState, VariantSelection,
};
pub use config::EvalConfig;
pub use env::Environment;
pub use layout::Floorplan;
pub use perf::{CpiBreakdown, PerfModel};
pub use retiming::{retime_core, RetimingResult};
pub use subsystem::SubsystemDescriptor;
pub use tester::measure_vt0;

// Re-export the vocabulary types users need alongside this crate.
pub use eval_power::{Constraints, Ladder, OperatingPoint, FREQ_LADDER, VBB_LADDER, VDD_LADDER};
pub use eval_timing::{OperatingConditions, SubsystemKind};
pub use eval_units::{consts, ErrorRate, GHz, Kelvin, UnitRangeError, Volts, Watts};
pub use eval_uarch::{SubsystemId, N_SUBSYSTEMS};
