//! # eval-timing
//!
//! VATS-style timing-error modeling for the EVAL reproduction (§2.2 of the
//! MICRO 2008 paper): per-pipeline-stage *dynamic path-delay distributions*,
//! the per-stage error-rate-vs-frequency curve `PE(f)`, and the series-failure
//! composition of an `n`-stage pipeline,
//!
//! ```text
//! PE(f) = sum_i rho_i * PE_i(f)        (errors per instruction)
//! ```
//!
//! Subsystem *kind* determines the onset shape: memory structures have
//! homogeneous critical paths and a sharp error onset; logic has a wide
//! variety of paths and a gradual onset; mixed subsystems fall in between
//! (Figure 8(a) of the paper).
//!
//! The crate also implements the error-*mitigation* transforms of §3.3:
//! **tilt** (low-slope functional-unit replica: path-delay mean −25 %,
//! variance ×2) and **shift** (SRAM downsizing: all paths sped up by a
//! constant factor). **Reshape** (ASV/ABB) enters through the operating
//! conditions passed to [`StageTiming::pe_at`].
//!
//! ## Example
//!
//! ```
//! use eval_timing::{PathClass, SubsystemKind};
//!
//! let logic = PathClass::for_kind(SubsystemKind::Logic);
//! let dist = logic.nominal_distribution(0.25); // 4 GHz -> 250 ps period
//! // Error-free at the nominal period by design:
//! assert!(dist.pe_at_period(0.25) < 1e-9);
//! // Overclocking creates errors:
//! assert!(dist.pe_at_period(0.20) > dist.pe_at_period(0.25));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kind;
pub mod mitigation;
pub mod paths;
pub mod pipeline;
pub mod reference;
pub mod stage;

pub use kind::{PathClass, SubsystemKind};
pub use mitigation::{
    low_slope, resize_shift, MitigationEffect, LOW_SLOPE_MEAN_FACTOR, LOW_SLOPE_POWER_AREA_FACTOR,
    LOW_SLOPE_VARIANCE_FACTOR, RESIZE_CAPACITY, RESIZE_DELAY_FACTOR,
};
pub use paths::PathDistribution;
pub use pipeline::PipelineErrorModel;
pub use stage::{OperatingConditions, StageTiming};

/// Error-rate threshold (errors/instruction) below which operation is
/// considered error-free; used to locate `fvar`, the variation-safe frequency.
pub const ERROR_FREE_PE: f64 = 1e-12;

/// Static sign-off margin between the worst physical path and the rated
/// clock period (noise, aging, unmodeled corners). A conventionally clocked
/// processor keeps this guardband; a timing-speculative one (with a checker
/// to back it up) can spend it — a large part of why EVAL processors can
/// cycle faster than the no-variation reference.
pub const DESIGN_GUARDBAND: f64 = 0.05;

/// Sign-off error probability (per access) of the *aggressively timed*
/// units — the custom execution datapaths and the issue queues' wakeup/
/// select loops. Timing closure leaves these with the thinnest statistical
/// margins, which is why they are the subsystems that become critical once
/// ASV re-shapes everything else (§6.2), and why EVAL equips exactly them
/// with replicas and resizing.
pub const AGGRESSIVE_DESIGN_PE: f64 = 1e-9;
