//! Canonical metric and counter names.
//!
//! Every metric/counter name that crosses a crate boundary — emitted by
//! the campaign, runtime, solver, or trainer and consumed by `eval-obs`
//! rollups or the `bench-check` gate — is
//! declared here exactly once as a `&'static str` constant. Emitters and
//! consumers import the constant instead of repeating the string, so a
//! rename is a compile-visible change on both sides rather than a silent
//! schema drift.
//!
//! `eval-lint`'s `metric-schema` rule treats this module as the single
//! source of truth: raw metric-name string literals anywhere else in
//! non-test code are findings, a constant consumed without an emitter is
//! a finding, and the full name set is snapshotted into
//! `results/metric_schema.json` by `eval-lint --emit-schema` (diffed in
//! tier-1, so schema changes are always explicit).
//!
//! Constants whose identifier ends in `_PREFIX` name a metric *family*
//! matched by `starts_with` (e.g. the per-scheme decision-latency
//! timers) rather than one exact metric.

/// Chips fully merged into the campaign result so far (counter).
pub const CAMPAIGN_CHIPS_DONE: &str = "campaign.chips_done";
/// Chips restored from a checkpoint instead of re-run (counter).
pub const CAMPAIGN_CHIPS_RESUMED: &str = "campaign.chips_resumed";
/// Chips quarantined after a per-chip fault (counter).
pub const CAMPAIGN_CHIPS_FAILED: &str = "campaign.chips_failed";
/// Postmortem bundles dumped for quarantined chips (counter; recorded
/// on the timing sidecar only, so the primary trace stays bit-identical
/// whether a postmortem directory is set or not).
pub const CAMPAIGN_POSTMORTEMS: &str = "campaign.postmortems";

/// Runtime phase detector reused a saved configuration (counter).
pub const CACHE_HIT: &str = "cache.hit";
/// Runtime phase detector ran the controller for a new phase (counter).
pub const CACHE_MISS: &str = "cache.miss";

/// Operating-point decisions taken, all schemes (counter).
pub const DECISION_COUNT: &str = "decision.count";
/// Decisions taken by the `static` scheme (counter).
pub const DECISION_COUNT_STATIC: &str = "decision.count.static";
/// Decisions taken by the `fuzzy` scheme (counter).
pub const DECISION_COUNT_FUZZY: &str = "decision.count.fuzzy";
/// Decisions taken by the `exhaustive` scheme (counter).
pub const DECISION_COUNT_EXHAUSTIVE: &str = "decision.count.exhaustive";
/// Decisions taken by the learned `nn-table` scheme (counter).
pub const DECISION_COUNT_NN_TABLE: &str = "decision.count.nn-table";
/// Decisions taken by the learned `tree` scheme (counter).
pub const DECISION_COUNT_TREE: &str = "decision.count.tree";
/// Decisions taken by the learned `mlp` scheme (counter).
pub const DECISION_COUNT_MLP: &str = "decision.count.mlp";
/// Decisions taken by any unrecognized scheme label (counter).
pub const DECISION_COUNT_OTHER: &str = "decision.count.other";

/// The decision-latency timer family, matched by prefix in `eval-obs
/// analyze` (all `_us`-suffixed, outside the determinism contract).
pub const DECISION_LATENCY_PREFIX: &str = "decision.latency";
/// Wall-clock decision latency, all schemes (timing histogram, µs).
pub const DECISION_LATENCY_US: &str = "decision.latency_us";
/// Wall-clock decision latency of the `static` scheme (µs).
pub const DECISION_LATENCY_STATIC_US: &str = "decision.latency.static_us";
/// Wall-clock decision latency of the `fuzzy` scheme (µs).
pub const DECISION_LATENCY_FUZZY_US: &str = "decision.latency.fuzzy_us";
/// Wall-clock decision latency of the `exhaustive` scheme (µs).
pub const DECISION_LATENCY_EXHAUSTIVE_US: &str = "decision.latency.exhaustive_us";
/// Wall-clock decision latency of the learned `nn-table` scheme (µs).
pub const DECISION_LATENCY_NN_TABLE_US: &str = "decision.latency.nn-table_us";
/// Wall-clock decision latency of the learned `tree` scheme (µs).
pub const DECISION_LATENCY_TREE_US: &str = "decision.latency.tree_us";
/// Wall-clock decision latency of the learned `mlp` scheme (µs).
pub const DECISION_LATENCY_MLP_US: &str = "decision.latency.mlp_us";
/// Wall-clock decision latency of any unrecognized scheme (µs).
pub const DECISION_LATENCY_OTHER_US: &str = "decision.latency.other_us";

/// Chosen core frequency per decision (histogram, GHz ladder buckets).
pub const DECISION_F_GHZ: &str = "decision.f_ghz";
/// Error rate at the chosen operating point (histogram, decade buckets).
pub const DECISION_PE_PER_INSTRUCTION: &str = "decision.pe_per_instruction";
/// Exhaustive-oracle `Freq`/`Power` queries a campaign core's scene memo
/// answered without asking the oracle (counter).
pub const DECISION_MEMO_HITS: &str = "decision.memo.hits";
/// Exhaustive-oracle queries the scene memo passed on to the oracle
/// (counter).
pub const DECISION_MEMO_MISSES: &str = "decision.memo.misses";

/// Thermal-solve cache hits across the campaign (counter).
pub const SOLVER_CACHE_HITS: &str = "solver.cache.hits";
/// Thermal-solve cache misses across the campaign (counter).
pub const SOLVER_CACHE_MISSES: &str = "solver.cache.misses";
/// Fixed-point iterations spent in the thermal solver (counter).
pub const SOLVER_ITERATIONS: &str = "solver.iterations";
/// Solves that hit the slow-convergence fallback (counter).
pub const SOLVER_SLOW_CONVERGENCE: &str = "solver.slow_convergence";
/// Uncached thermal solves at off-ladder core frequencies
/// (`SceneEval::check_free`), the solves behind the teacher's `Power`
/// labels; the `solver.cache.*` counters do not include them (counter).
pub const SOLVER_FREE_SOLVES: &str = "solver.free.solves";
/// Supply rows the exhaustive `Freq` search ended early because a floor
/// probe was too hot, which proves the rest of the row too hot as well
/// (counter).
pub const SOLVER_THERMAL_CUTS: &str = "solver.thermal_cuts";
/// Derived cache hit rate, written into bench JSON by the `hotpath`
/// bin and gated by `eval-obs bench-check`.
pub const SOLVER_CACHE_HIT_RATE: &str = "solver.cache.hit_rate";
/// Cache hits answered from a memo of solved points (counter). The solve
/// cache keeps no such memo, so nothing emits it; the benchmark's ledger
/// still reads it, takes the missing counter as zero, and so counts every
/// hit as a solve.
// lint:allow(metric-schema): read by perfbench/src/layers.rs, which the lint walk does not scan
pub const SOLVER_CACHE_HITS_SAME_POINT: &str = "solver.cache.hits.same_point";
/// Anchor-seeded solves reusing a same-phase anchor (counter).
pub const SOLVER_CACHE_HITS_CROSS_CANDIDATE: &str = "solver.cache.hits.cross_candidate";
/// Anchor-seeded solves reusing an anchor built under a different
/// workload phase (counter).
pub const SOLVER_CACHE_HITS_CROSS_PHASE: &str = "solver.cache.hits.cross_phase";
/// Derived fraction of lookups answered across a phase boundary,
/// written into bench JSON by the `hotpath` bin.
pub const SOLVER_CACHE_HIT_RATE_CROSS_PHASE: &str = "solver.cache.hit_rate.cross_phase";
/// Batched ladder lookups (counter). No solve path batches, so nothing
/// emits it; the benchmark's ledger still reads it and takes the
/// missing counter as zero.
// lint:allow(metric-schema): read by perfbench/src/layers.rs, which the lint walk does not scan
pub const SOLVER_BATCH_CALLS: &str = "solver.batch.calls";
/// Total lanes across batched ladder lookups (counter). No solve path
/// batches, so nothing emits it; the benchmark's ledger still reads it
/// and takes the missing counter as zero.
// lint:allow(metric-schema): read by perfbench/src/layers.rs, which the lint walk does not scan
pub const SOLVER_BATCH_LANES: &str = "solver.batch.lanes";
/// Worker threads used inside each chip's exhaustive sweep (gauge,
/// written into bench JSON by the `hotpath` bin; execution detail only —
/// results and traces are bit-identical across any setting).
pub const CAMPAIGN_INTRA_CHIP_THREADS: &str = "campaign.intra_chip_threads";

/// Ladder probes evaluated by the retuning loop (counter).
pub const RETUNE_PROBES: &str = "retune.probes";

/// Complete fuzzy controllers trained (counter, one per variant slot).
pub const FUZZY_CONTROLLERS_TRAINED: &str = "fuzzy.controllers_trained";
/// Bank slots of a multi-environment teacher sweep filled from a key an
/// earlier environment already trained (counter, one per shared slot).
pub const FUZZY_BANKS_REUSED: &str = "fuzzy.banks_reused";

/// Learned controller banks trained by the controller zoo (counter, one
/// per model per (subsystem, variant) bank).
pub const CONTROLLER_ZOO_TRAINED: &str = "controller.zoo.trained";
/// Decisions scored by the controller tournament, training plus
/// held-out populations (counter, one increment batch per contestant).
pub const CONTROLLER_TOURNAMENT_DECISIONS: &str = "controller.tournament.decisions";

/// Small-signal tester measurements taken during chip characterization
/// (counter).
pub const TESTER_MEASUREMENTS: &str = "tester.measurements";

/// Samples recorded per benchmark by `hotpath --samples N` (gauge,
/// written into the v2 bench JSON metrics map and read back by
/// `eval-obs bench-check` when selecting the quantile gate).
pub const BENCH_SAMPLES: &str = "bench.samples";

/// Artifacts stamped with a provenance record during this run
/// (counter, emitted by `TraceSession::finish`).
pub const PROVENANCE_ARTIFACTS: &str = "provenance.artifacts";

/// Span samples streamed into the `<trace>.timing.jsonl` sidecar
/// (counter, maintained by the sidecar itself — wall-clock side only).
pub const TIMING_SPAN_SAMPLES: &str = "timing.span_samples";

/// Every exact-name constant above, in declaration order. This is the
/// compiled-in registry hashed by
/// [`crate::provenance::metric_schema_hash`], so producer/consumer
/// schema drift is detectable from any stamped artifact alone.
pub const ALL_METRICS: &[&str] = &[
    CAMPAIGN_CHIPS_DONE,
    CAMPAIGN_CHIPS_RESUMED,
    CAMPAIGN_CHIPS_FAILED,
    CAMPAIGN_POSTMORTEMS,
    CACHE_HIT,
    CACHE_MISS,
    DECISION_COUNT,
    DECISION_COUNT_STATIC,
    DECISION_COUNT_FUZZY,
    DECISION_COUNT_EXHAUSTIVE,
    DECISION_COUNT_NN_TABLE,
    DECISION_COUNT_TREE,
    DECISION_COUNT_MLP,
    DECISION_COUNT_OTHER,
    DECISION_LATENCY_US,
    DECISION_LATENCY_STATIC_US,
    DECISION_LATENCY_FUZZY_US,
    DECISION_LATENCY_EXHAUSTIVE_US,
    DECISION_LATENCY_NN_TABLE_US,
    DECISION_LATENCY_TREE_US,
    DECISION_LATENCY_MLP_US,
    DECISION_LATENCY_OTHER_US,
    DECISION_F_GHZ,
    DECISION_PE_PER_INSTRUCTION,
    DECISION_MEMO_HITS,
    DECISION_MEMO_MISSES,
    SOLVER_CACHE_HITS,
    SOLVER_CACHE_MISSES,
    SOLVER_ITERATIONS,
    SOLVER_SLOW_CONVERGENCE,
    SOLVER_FREE_SOLVES,
    SOLVER_THERMAL_CUTS,
    SOLVER_CACHE_HIT_RATE,
    SOLVER_CACHE_HITS_SAME_POINT,
    SOLVER_CACHE_HITS_CROSS_CANDIDATE,
    SOLVER_CACHE_HITS_CROSS_PHASE,
    SOLVER_CACHE_HIT_RATE_CROSS_PHASE,
    SOLVER_BATCH_CALLS,
    SOLVER_BATCH_LANES,
    CAMPAIGN_INTRA_CHIP_THREADS,
    RETUNE_PROBES,
    FUZZY_CONTROLLERS_TRAINED,
    FUZZY_BANKS_REUSED,
    CONTROLLER_ZOO_TRAINED,
    CONTROLLER_TOURNAMENT_DECISIONS,
    TESTER_MEASUREMENTS,
    BENCH_SAMPLES,
    PROVENANCE_ARTIFACTS,
    TIMING_SPAN_SAMPLES,
];

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in super::ALL_METRICS {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                name.contains('.') && !name.contains(' '),
                "malformed metric name {name}"
            );
        }
        assert!(super::DECISION_LATENCY_US.starts_with(super::DECISION_LATENCY_PREFIX));
    }
}
