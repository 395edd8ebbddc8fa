//! Figures 10–12 from one campaign: processor frequency and performance
//! normalized to `NoVar`, and processor power (core + L1 + L2, plus the
//! checker where one exists), each as Static / Fuzzy-Dyn / Exh-Dyn bars
//! per environment.
//!
//! Protocol knobs: `EVAL_CHIPS` (default 10; the paper uses 100) and
//! `EVAL_WORKLOADS` (default: all 16). `--trace <path>` / `EVAL_TRACE`
//! dumps the structured JSONL event/metric stream; `--checkpoint <path>`
//! plus `--resume` make the campaign crash-safe and restartable.

use eval_bench::{
    print_environment_csv, print_environment_matrix, run_figure10_campaign, TraceSession,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_env()?;
    let result = run_figure10_campaign(10, &trace)?;
    print_environment_matrix(
        "Figure 10: relative frequency (NoVar = 1.0)",
        "x NoVar",
        &result,
        |c| c.freq_rel,
    );
    println!();
    print_environment_matrix(
        "Figure 11: relative performance (NoVar = 1.0)",
        "x NoVar",
        &result,
        |c| c.perf_rel,
    );
    println!();
    print_environment_matrix("Figure 12: processor power (watts)", "W", &result, |c| {
        c.power_w
    });
    println!();
    print_environment_csv("freq_rel", &result, |c| c.freq_rel);
    print_environment_csv("perf_rel", &result, |c| c.perf_rel);
    print_environment_csv("power_w", &result, |c| c.power_w);
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
