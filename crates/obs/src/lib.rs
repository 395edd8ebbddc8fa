//! # eval-obs — telemetry consumers for the EVAL reproduction
//!
//! `eval-trace` is the *emit* side of observability: campaign and
//! runtime code produce deterministic JSONL traces, metrics, and spans.
//! This crate is the *consume* side:
//!
//! * [`analyze`] — streaming trace analysis: folds a JSONL trace into
//!   per-scheme / per-chip / per-phase rollups with digest quantiles,
//!   fuzzy-vs-exhaustive frequency deltas, binding-constraint
//!   breakdowns, and `SolveCache` hit rates (`eval-obs analyze`);
//! * [`bench_check`] — the bench regression gate comparing a fresh
//!   `BENCH_hotpath.json` against the committed baseline and the pooled
//!   `BENCH_history.jsonl` distribution (`eval-obs bench-check`, wired
//!   onto tier-1);
//! * [`stats`] — the decile / effect-size / permutation-test machinery
//!   behind the quantile gate, and the paired bootstrap behind
//!   chip-by-chip campaign comparisons;
//! * [`runs`] — the provenance run journal: list, show, diff, and
//!   query any stamped artifacts (`eval-obs runs`);
//! * [`profile`] — the wall-clock profiling sidecar consumer:
//!   self/total span tables, folded stacks, speedscope export, and
//!   primary-trace attribution (`eval-obs profile`);
//! * [`postmortem`] — the fault postmortem bundle renderer
//!   (`eval-obs postmortem`).
//!
//! Everything is std-only: the consume side honors the same
//! offline-build constraint as the emit side, including the JSON parser
//! it shares with the emit side, [`eval_trace::json`] (the `eval-rng`
//! dependency behind the permutation test is workspace-local).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod bench_check;
pub mod postmortem;
pub mod profile;
pub mod runs;
pub mod stats;

pub use analyze::{analyze_reader, Analysis, Analyzer, AnalyzeError};
pub use bench_check::{
    append_history, check, check_distribution, load_history, parse_history, BenchFile,
    CheckReport, GateMode, GateOptions, HistoryRecord, Tolerances,
};
pub use eval_trace::json::{Json, JsonError};
pub use postmortem::{parse_bundle, Bundle, FlightLine};
pub use profile::Profile;
pub use runs::{find, load_journal, parse_journal, query_by_fingerprint, RunEntry};
pub use stats::{
    deciles, effect_size, paired_bootstrap, quantile_gate, EffectSize, GateConfig, GateVerdict,
    PairedInterval,
};

#[cfg(test)]
mod damage;
