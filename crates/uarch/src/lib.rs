//! # eval-uarch
//!
//! The microarchitectural substrate of the EVAL reproduction — a stand-in
//! for the SESC cycle-level simulator + SPEC 2000 binaries used by the
//! paper (§5.1). It provides:
//!
//! * a **synthetic workload generator** ([`workload`]): 16 SPEC-2000-named
//!   programs, each a sequence of phases with distinct instruction mixes,
//!   dependency (ILP) structure, working sets and branch behaviour;
//! * a **trace-driven out-of-order core** ([`core`]): ROB, resizable issue
//!   queue (the paper's 68/51-entry integer and 32/24-entry FP queues),
//!   functional units, a gshare branch predictor ([`bpred`]) and a two-level
//!   cache hierarchy ([`cache`]) with the paper's 2/8/208-cycle round trips;
//! * a **Diva-style checker** ([`checker`]) that turns an error rate per
//!   instruction into flush-and-restart recovery cycles;
//! * a **BBV phase detector** ([`phase`]): 32 buckets of 6-bit saturating
//!   counters, as in Sherwood et al. (Figure 7(a));
//! * **performance counters** ([`counters`]) that report per-subsystem
//!   activity factors for the 15 subsystems of Figure 7(b); and
//! * a **profiler** ([`profile`]) that distills a workload into the
//!   per-phase quantities the adaptation layer consumes: `CPIcomp` under
//!   both issue-queue sizes, the L2 miss rate `mr`, the observed
//!   non-overlapped miss penalty, and the activity-factor vector.
//!
//! ## Example
//!
//! ```
//! use eval_uarch::{Workload, profile::profile_workload};
//!
//! let swim = Workload::by_name("swim").unwrap();
//! let profile = profile_workload(&swim, 20_000, 99);
//! assert!(!profile.phases.is_empty());
//! let p = &profile.phases[0];
//! // Downsizing the queue can only hurt (or not change) base CPI:
//! assert!(p.cpi_comp_small >= p.cpi_comp_full - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod cache;
pub mod checker;
pub mod core;
pub mod counters;
pub mod insn;
pub mod phase;
pub mod profile;
pub mod subsystem;
pub mod trace;
pub mod workload;

pub use crate::core::{CoreConfig, CoreStats, OooCore, QueueSize};
pub use bpred::Gshare;
pub use cache::{AccessOutcome, Cache, CacheConfig, Hierarchy};
pub use checker::{Checker, RecoveryModel};
pub use counters::ActivityVector;
pub use insn::{Instruction, Kind};
pub use phase::{PhaseDetector, PhaseId};
pub use profile::{profile_workload, PhaseProfile, WorkloadProfile};
pub use subsystem::{SubsystemId, N_SUBSYSTEMS};
pub use trace::TraceGenerator;
pub use workload::{Workload, WorkloadClass};
