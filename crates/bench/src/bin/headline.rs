//! The §6 headline numbers, paper vs measured:
//!
//! * Baseline cycles at 78% of the no-variation frequency;
//! * the preferred scheme (TS+ASV+Q+FU with Fuzzy-Dyn) increases frequency
//!   by 56% over Baseline (21% over NoVar) and performance by 40% (14%);
//! * power rides the 30 W budget; area overhead is 10.6%.
//!
//! Protocol knobs: `EVAL_CHIPS` (default 15; paper protocol is 100) and
//! `EVAL_WORKLOADS`. Pass `--trace <path>` to dump the structured JSONL
//! event/metric stream and an end-of-run summary; `--checkpoint <path>` /
//! `--resume` make the campaign restartable (see
//! `eval_bench::TraceSession`; any other argument is an error).

use eval_adapt::Scheme;
use eval_bench::{run_campaign, standard_campaign, TraceSession};
use eval_core::{AreaBreakdown, Environment};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_cli()?;
    let campaign = standard_campaign(15)?;
    eprintln!(
        "# headline campaign: {} chips x {} workloads",
        campaign.chips,
        campaign.workloads.len()
    );
    let result = run_campaign(
        &campaign,
        &[Environment::TS_ASV_Q_FU],
        &[Scheme::FuzzyDyn, Scheme::ExhDyn],
        &trace,
    )?;
    let best = result
        .cell(Environment::TS_ASV_Q_FU, Scheme::FuzzyDyn)
        .expect("cell exists");
    let exh = result
        .cell(Environment::TS_ASV_Q_FU, Scheme::ExhDyn)
        .expect("cell exists");
    let area = AreaBreakdown::for_environment(&Environment::TS_ASV_Q_FU);

    println!("# EVAL headline results (TS+ASV+Q+FU, Fuzzy-Dyn)");
    println!("{:<44} {:>8} {:>10}", "quantity", "paper", "measured");
    let row = |name: &str, paper: f64, measured: f64| {
        println!("{name:<44} {paper:>8.2} {measured:>10.2}");
    };
    row("baseline frequency (x NoVar)", 0.78, result.baseline.freq_rel);
    row("best frequency (x NoVar)", 1.21, best.freq_rel);
    row(
        "best frequency (x Baseline)",
        1.56,
        best.freq_rel / result.baseline.freq_rel,
    );
    row("best performance (x NoVar)", 1.14, best.perf_rel);
    row(
        "best performance (x Baseline)",
        1.40,
        best.perf_rel / result.baseline.perf_rel,
    );
    row("NoVar power (W)", 25.0, result.novar.power_w);
    row("Baseline power (W)", 17.0, result.baseline.power_w);
    row("best power (W, cap 30)", 30.0, best.power_w);
    row("area overhead (%)", 10.6, area.total_pct());
    println!();
    println!(
        "# Fuzzy-Dyn vs Exh-Dyn (should be nearly identical): f {:.3} vs {:.3}, perf {:.3} vs {:.3}",
        best.freq_rel, exh.freq_rel, best.perf_rel, exh.perf_rel
    );

    // Sanity assertions on the orderings the paper establishes.
    assert!(
        result.baseline.freq_rel < 0.9,
        "baseline must lose substantial frequency to variation"
    );
    assert!(
        best.freq_rel > result.baseline.freq_rel * 1.2,
        "the adapted processor must be much faster than baseline"
    );
    assert!(
        best.perf_rel > result.baseline.perf_rel,
        "performance must improve too"
    );
    assert!(
        best.power_w <= 30.0 + 1e-6,
        "the power constraint must hold"
    );
    assert!(
        (best.freq_rel - exh.freq_rel).abs() < 0.05,
        "fuzzy control must track the exhaustive oracle"
    );
    println!("# all ordering assertions passed");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
