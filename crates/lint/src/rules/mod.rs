//! The rule families and the shared finding sink.
//!
//! Per-file rules (the eight ported families plus
//! `wall-clock-in-deterministic-path`) match shapes on one file's
//! stripped line view; cross-file rules (`metric-schema`,
//! `hot-path-reachability`, `dead-suppression`) evaluate the merged
//! [`crate::facts::FactBase`]. Both report through [`Sink`], which
//! applies `lint:allow` suppression and **records which marker
//! suppressed what** — the input `dead-suppression` needs.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::LexedFile;
use crate::{FileContext, Finding, Rule};

pub mod atomic_artifacts;
pub mod config_invariants;
pub mod dead_suppression;
pub mod determinism;
pub mod hot_path_reachability;
pub mod metric_schema;
pub mod no_alloc_in_check;
pub mod no_println;
pub mod panic_safety;
pub mod sink_forward;
pub mod unit_safety;
pub mod wall_clock;

/// Crates whose public `f64` parameters are checked for unit names.
pub const UNIT_CRATES: [&str; 3] = ["eval-power", "eval-timing", "eval-core"];

/// Crates that participate in the deterministic simulation pipeline.
pub const SIM_CRATES: [&str; 8] = [
    "eval-rng",
    "eval-units",
    "eval-variation",
    "eval-timing",
    "eval-power",
    "eval-uarch",
    "eval-fuzzy",
    "eval-core",
];

/// Simulation crates plus the campaign layer (also deterministic).
pub fn is_sim_crate(name: &str) -> bool {
    SIM_CRATES.contains(&name) || name == "eval-adapt"
}

/// Library crates subject to panic-safety (everything in the pipeline;
/// `eval-bench` is a figure-printing bin crate and exempt).
pub fn is_library_crate(name: &str) -> bool {
    is_sim_crate(name) || name == "eval"
}

/// Crates subject to no-println: the library pipeline plus `eval-trace`
/// itself (its reports are returned as `String`s for the caller to
/// print).
pub fn is_println_free_crate(name: &str) -> bool {
    is_library_crate(name) || name == "eval-trace"
}

/// A suppression credit: (path, 0-based marker line, rule name).
pub type UsedAllow = (String, usize, String);

/// The finding sink: applies `lint:allow` suppression against the
/// lexed view of whatever file a finding is anchored in, and records
/// the markers that fired.
pub struct Sink<'a> {
    files: &'a BTreeMap<String, LexedFile>,
    /// Findings that survived suppression.
    pub out: Vec<Finding>,
    /// Markers that suppressed at least one finding this run.
    pub used: BTreeSet<UsedAllow>,
}

impl<'a> Sink<'a> {
    /// A sink over the given lexed files (keyed by workspace-relative
    /// path).
    pub fn new(files: &'a BTreeMap<String, LexedFile>) -> Sink<'a> {
        Sink {
            files,
            out: Vec::new(),
            used: BTreeSet::new(),
        }
    }

    /// Reports a finding anchored at 0-based `line` (and optional
    /// 0-based `col`) unless a `lint:allow` marker suppresses it; a
    /// suppressing marker is credited in [`Sink::used`].
    pub fn push(
        &mut self,
        path: &str,
        line: usize,
        col: Option<usize>,
        rule: Rule,
        message: String,
    ) {
        if let Some(lexed) = self.files.get(path) {
            if let Some(marker) = lexed.allow_marker_for(line, rule.name()) {
                self.used
                    .insert((path.to_string(), marker, rule.name().to_string()));
                return;
            }
        }
        self.force(path, line, col, rule, message);
    }

    /// Reports a finding that cannot be suppressed (registry-anchored
    /// findings, the config-invariants presence checks, and
    /// dead-suppression itself).
    pub fn force(
        &mut self,
        path: &str,
        line: usize,
        col: Option<usize>,
        rule: Rule,
        message: String,
    ) {
        self.out.push(Finding {
            path: path.to_string(),
            line: line + 1,
            col: col.map(|c| c + 1),
            rule,
            message,
        });
    }
}

/// Runs the nine per-file rule families on one file under its
/// context, with the legacy dispatch conditions.
pub fn run_file_rules(lexed: &LexedFile, path: &str, ctx: &FileContext, sink: &mut Sink<'_>) {
    if UNIT_CRATES.contains(&ctx.crate_name.as_str()) && !ctx.is_test_code {
        unit_safety::run(lexed, path, sink);
    }
    if is_sim_crate(&ctx.crate_name) {
        determinism::run(lexed, path, sink);
    } else if !ctx.is_test_code {
        // Non-simulation library code: clock reads are legal only in
        // the sanctioned eval-trace timing module (EVL013). Simulation
        // crates are already covered by the stricter EVL002 above.
        wall_clock::run(lexed, path, sink);
    }
    if is_library_crate(&ctx.crate_name) && !ctx.is_test_code {
        panic_safety::run(lexed, path, sink);
    }
    if is_println_free_crate(&ctx.crate_name) && !ctx.is_test_code {
        no_println::run(lexed, path, sink);
    }
    if lexed.hot_path && !ctx.is_test_code {
        no_alloc_in_check::run(lexed, path, sink);
    }
    if !ctx.is_test_code {
        sink_forward::run(lexed, path, sink);
    }
    if !ctx.is_test_code || ctx.is_bin {
        atomic_artifacts::run(lexed, path, sink);
    }
    config_invariants::run(lexed, path, ctx, sink);
}
