//! Controller tournament: ranks the controller zoo (static, exhaustive,
//! fuzzy, nn-table, tree, mlp) on accuracy against the exhaustive oracle
//! and on robustness on a held-out chip population the controllers never
//! trained on.
//!
//! Protocol knobs: `EVAL_CHIPS` (training population, default 4),
//! `EVAL_HOLDOUT_CHIPS` (default = training), `EVAL_WORKLOADS`,
//! `EVAL_THREADS` (0 = all cores; traces are byte-identical for any
//! value). `--trace <path>` writes the JSONL event stream
//! (`tournament-score` events roll up in `eval-obs analyze`). The
//! tournament does not checkpoint: `--checkpoint` and `--resume` are
//! errors, as is any other argument.
//! Per-decision latency comes from the tournament's own decisions:
//! `--timing` adds the `decision.latency.<scheme>_us` histograms to the
//! `<trace>.timing.jsonl` sidecar, and `eval-obs analyze` and `eval-obs
//! profile` report them per scheme as p50/p95/p99.

use eval_adapt::tournament::SCHEMES;
use eval_adapt::Tournament;
use eval_bench::{
    chips_from_env, session_tracer, usize_from_env, workloads_from_env, TraceSession,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_cli_without_checkpoint()?;
    let mut t = Tournament::new(chips_from_env(4)?);
    t.holdout_chips = usize_from_env("EVAL_HOLDOUT_CHIPS", 0)?.unwrap_or(t.chips);
    t.threads = usize_from_env("EVAL_THREADS", 0)?.unwrap_or(0);
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

    println!("# Controller tournament: accuracy vs the exhaustive oracle, ranked by");
    println!("# holdout exact-match rate (robustness), ties by holdout |f error|.");
    println!(
        "{:<4} {:<12} {:>9} {:>8} {:>7} {:>9} {:>10} {:>9}",
        "rank", "scheme", "decisions", "fdelta", "exact", "perf_rel", "ho_fdelta", "ho_exact"
    );
    println!("csv,rank,scheme,decisions,fdelta_ghz,exact_rate,perf_rel,holdout_fdelta_ghz,holdout_exact_rate");
    for (rank, s) in result.ranked().into_iter().enumerate() {
        println!(
            "{:<4} {:<12} {:>9} {:>8.4} {:>6.1}% {:>9.4} {:>10.4} {:>8.1}%",
            rank + 1,
            s.scheme,
            s.decisions,
            s.mean_abs_fdelta_ghz,
            100.0 * s.exact_rate,
            s.mean_perf_rel,
            s.holdout_mean_abs_fdelta_ghz,
            100.0 * s.holdout_exact_rate,
        );
        println!(
            "csv,{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            rank + 1,
            s.scheme,
            s.decisions,
            s.mean_abs_fdelta_ghz,
            s.exact_rate,
            s.mean_perf_rel,
            s.holdout_mean_abs_fdelta_ghz,
            s.holdout_exact_rate,
        );
    }
    println!();
    println!("# expected shape: exhaustive anchors at exact=100% (it is the reference);");
    println!("# learned controllers trade a ladder step or two of frequency error for");
    println!("# orders-of-magnitude cheaper decisions (per-scheme latency: --timing,");
    println!("# then eval-obs analyze).");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
