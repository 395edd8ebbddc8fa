//! Controller tournament: ranks the controller zoo (static, exhaustive,
//! fuzzy, nn-table, tree, mlp) on three axes — accuracy against the
//! exhaustive oracle, per-decision wall latency, and robustness on a
//! held-out chip population the controllers never trained on.
//!
//! Protocol knobs: `EVAL_CHIPS` (training population, default 4),
//! `EVAL_HOLDOUT_CHIPS` (default = training), `EVAL_WORKLOADS`,
//! `EVAL_THREADS` (0 = all cores; traces are byte-identical for any
//! value). `--trace <path>` / `EVAL_TRACE` streams the JSONL event
//! stream (`tournament-score` events roll up in `eval-obs analyze`);
//! `--timing <path>` adds `decision.latency.<scheme>_us` histograms for
//! `eval-obs profile`. The ns/dec column below is a local re-measurement
//! (best of three passes over the scored phases) so the ranking is
//! informative even without the timing sidecar.

use std::time::Instant;

use eval_adapt::tournament::SCHEMES;
use eval_adapt::{
    Controller, ControllerZoo, ExhaustiveOptimizer, OptimizerController, StaticController,
    Tournament,
};
use eval_bench::{chips_from_env, session_tracer, workloads_from_env, TraceSession};
use eval_core::ChipFactory;
use eval_trace::Tracer;
use eval_uarch::{profile_workload, WorkloadProfile};

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

/// Mean wall time per decision for one contestant: best of three passes
/// over every phase of every profile (the first pass doubles as warmup).
fn mean_decision_ns(
    c: &dyn Controller,
    t: &Tournament,
    core: &eval_core::CoreModel,
    profiles: &[WorkloadProfile],
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut n: u64 = 0;
        for p in profiles {
            for ph in &p.phases {
                let d = c.decide(
                    &t.config,
                    core,
                    t.env,
                    ph,
                    p.class,
                    p.rp_cycles,
                    t.config.th_c,
                    p.name,
                    ph.index as u64,
                    Tracer::noop(),
                );
                std::hint::black_box(d.f_ghz);
                n += 1;
            }
        }
        let per = start.elapsed().as_nanos() as f64 / n.max(1) as f64;
        best = best.min(per);
    }
    best
}

/// Per-scheme latency, in [`SCHEMES`] order, on a zoo trained fresh for
/// chip 0 (decisions hit the solve caches exactly as the tournament's
/// scoring pass does after its first visit to each phase).
fn measure_latencies(t: &Tournament) -> [f64; SCHEMES.len()] {
    let factory = ChipFactory::new(t.config.clone());
    let chip = factory.chip(0);
    let core = chip.core(0);
    let zoo = ControllerZoo::train(&t.config, &chip, 0, t.env, &t.training);
    let profiles: Vec<WorkloadProfile> = t
        .workloads
        .iter()
        .map(|w| profile_workload(w, t.profile_budget, t.profile_seed))
        .collect();
    let exh = ExhaustiveOptimizer::new();
    let static_c = StaticController::new(&exh);
    let exh_c = OptimizerController::new("exhaustive", &exh);
    let fuzzy_c = OptimizerController::new("fuzzy", &zoo.fuzzy);
    let nn_c = OptimizerController::new("nn-table", &zoo.nn);
    let tree_c = OptimizerController::new("tree", &zoo.tree);
    let mlp_c = OptimizerController::new("mlp", &zoo.mlp);
    let contestants: [&dyn Controller; SCHEMES.len()] =
        [&static_c, &exh_c, &fuzzy_c, &nn_c, &tree_c, &mlp_c];
    let mut out = [0.0; SCHEMES.len()];
    for (slot, c) in out.iter_mut().zip(contestants) {
        *slot = mean_decision_ns(c, t, core, &profiles);
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_env()?;
    let mut t = Tournament::new(chips_from_env(4));
    t.holdout_chips = env_usize("EVAL_HOLDOUT_CHIPS").unwrap_or(t.chips);
    t.threads = env_usize("EVAL_THREADS").unwrap_or(0);
    t.workloads = workloads_from_env()?;
    eprintln!(
        "# tournament: {} schemes, {} training chips, {} holdout chips, {} workloads ({})",
        SCHEMES.len(),
        t.chips,
        t.holdout_chips,
        t.workloads.len(),
        t.env.name
    );

    let result = t.run_traced(session_tracer(&trace));
    let latency = measure_latencies(&t);

    println!("# Controller tournament: accuracy vs the exhaustive oracle, ranked by");
    println!("# holdout exact-match rate (robustness), ties by holdout |f error|.");
    println!(
        "{:<4} {:<12} {:>9} {:>8} {:>7} {:>9} {:>10} {:>9} {:>10}",
        "rank", "scheme", "decisions", "fdelta", "exact", "perf_rel", "ho_fdelta", "ho_exact", "ns/dec"
    );
    println!("csv,rank,scheme,decisions,fdelta_ghz,exact_rate,perf_rel,holdout_fdelta_ghz,holdout_exact_rate,ns_per_decision");
    for (rank, s) in result.ranked().into_iter().enumerate() {
        let k = SCHEMES.iter().position(|&x| x == s.scheme).unwrap_or(0);
        println!(
            "{:<4} {:<12} {:>9} {:>8.4} {:>6.1}% {:>9.4} {:>10.4} {:>8.1}% {:>10.0}",
            rank + 1,
            s.scheme,
            s.decisions,
            s.mean_abs_fdelta_ghz,
            100.0 * s.exact_rate,
            s.mean_perf_rel,
            s.holdout_mean_abs_fdelta_ghz,
            100.0 * s.holdout_exact_rate,
            latency[k]
        );
        println!(
            "csv,{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.0}",
            rank + 1,
            s.scheme,
            s.decisions,
            s.mean_abs_fdelta_ghz,
            s.exact_rate,
            s.mean_perf_rel,
            s.holdout_mean_abs_fdelta_ghz,
            s.holdout_exact_rate,
            latency[k]
        );
    }
    println!();
    println!("# expected shape: exhaustive anchors at exact=100% (it is the reference)");
    println!("# but pays grid-search latency; learned controllers trade a ladder step");
    println!("# or two of frequency error for orders-of-magnitude cheaper decisions.");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
