//! # eval-power
//!
//! Power, leakage and steady-state thermal models for the EVAL reproduction
//! — Equations 6–9 of the MICRO 2008 paper:
//!
//! ```text
//! T    = TH + Rth * (Pdyn + Psta)                       (6)
//! Pdyn = Kdyn * alpha_f * Vdd^2 * f                     (7)
//! Psta = Ksta * Vdd * T^2 * exp(-q Vt / k T)            (8)
//! Vt   = Vt0 + k1 (T - T0) + k2 dVdd + k3 Vbb           (9)
//! ```
//!
//! "These equations form a feedback system and need to be solved
//! iteratively" (§4.1) — [`solve_thermal`] runs the fixed-point iteration
//! (undamped with a deterministic damped fallback; see `solve`) and
//! reports thermal runaway when leakage self-heating diverges.
//! [`SolveCache`] warm-starts solves over the discrete ladders from one
//! canonically solved anchor per `(params, Vdd, Vbb)` group — the
//! operating-point fast path all optimizers share.
//!
//! The crate also defines the discrete actuator ladders of Figure 7(a)
//! (frequency in 100 MHz steps, ASV in 50 mV steps from 800 mV to 1200 mV,
//! ABB in 50 mV steps from −500 mV to +500 mV) and the constraint set
//! (`PMAX` = 30 W/proc, `TMAX` = 85 C, `TH_MAX` = 70 C, `PEMAX` = 1e-4
//! err/inst).
//!
//! ## Example
//!
//! ```
//! use eval_power::{solve_thermal, SubsystemPowerParams, ThermalEnvironment};
//! use eval_variation::DeviceParams;
//!
//! let params = SubsystemPowerParams {
//!     kdyn_w: 0.5,
//!     ksta_nom_w: 0.2,
//!     rth_c_per_w: 4.0,
//!     vt0: 0.150,
//! };
//! let env = ThermalEnvironment { th_c: 55.0, alpha_f: 0.8 };
//! let op = eval_power::OperatingPoint::new(4.0, 1.0, 0.0)?;
//! let sol = solve_thermal(&params, &env, &op, &DeviceParams::micro08())?;
//! assert!(sol.t_c > env.th_c); // self-heating
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod constraints;
pub mod ladder;
pub mod op;
pub mod params;
pub mod solve;

pub use cache::{SolveCache, SolveCacheStats};
pub use constraints::Constraints;
pub use ladder::{freq_steps, vbb_steps, vdd_steps, Ladder, FREQ_LADDER, VBB_LADDER, VDD_LADDER};
pub use op::OperatingPoint;
pub use params::{SubsystemPowerParams, ThermalEnvironment};
pub use solve::{
    cold_start_c, solve_thermal, solve_thermal_reference, solve_thermal_seeded, SolveStats,
    ThermalRunaway, ThermalSolution,
};
