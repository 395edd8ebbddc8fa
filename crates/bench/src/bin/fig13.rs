//! Figure 13: outcomes of the fuzzy-controller system — for each of the
//! four voltage environments (A: TS, B: TS+ABB, C: TS+ASV, D: TS+ABB+ASV)
//! and each microarchitecture-technique set (no opt / FU opt / Queue opt /
//! FU+Queue opt), the fraction of controller invocations ending in
//! NoChange, LowFreq, Error, Temp or Power.
//!
//! One Fuzzy-Dyn campaign over the sixteen variants
//! (`Environment::FIGURE13`): the workloads are profiled, every chip
//! characterised and each teacher bank key trained once, whichever
//! variants share it. Protocol knobs: `EVAL_CHIPS` (default 8) and
//! `EVAL_WORKLOADS`; `--trace <path>`, `--checkpoint`, `--resume`,
//! `--timing` and the postmortem bundles work as in every other campaign
//! binary (see `eval_bench::TraceSession`).

use eval_adapt::{Outcome, Scheme};
use eval_bench::{run_campaign, standard_campaign, TraceSession};
use eval_core::Environment;

/// The technique-set labels of the table, in `Environment::FIGURE13`
/// order: each covers four consecutive variants.
const TECHNIQUES: [&str; 4] = ["No opt", "FU opt", "Queue opt", "FU+Queue opt"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_cli()?;
    let campaign = standard_campaign(8)?;
    eprintln!(
        "# campaign: {} chips x {} workloads x 16 environment variants (Fuzzy-Dyn)",
        campaign.chips,
        campaign.workloads.len()
    );
    let result = run_campaign(
        &campaign,
        &Environment::FIGURE13,
        &[Scheme::FuzzyDyn],
        &trace,
    )?;

    println!("# Figure 13: controller outcome mix (percent of invocations)");
    println!(
        "{:<14} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "techniques", "environment", "NoChange", "LowFreq", "Error", "Temp", "Power"
    );
    println!("csv,techniques,environment,nochange,lowfreq,error,temp,power");
    for (i, env) in Environment::FIGURE13.into_iter().enumerate() {
        let (label, base) = (TECHNIQUES[i / 4], Environment::TABLE2[i % 4].name);
        let cell = result.cell(env, Scheme::FuzzyDyn).expect("cell exists");
        let frac = |o: Outcome| 100.0 * cell.outcomes.fraction(o);
        println!(
            "{:<14} {:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            label,
            base,
            frac(Outcome::NoChange),
            frac(Outcome::LowFreq),
            frac(Outcome::Error),
            frac(Outcome::Temp),
            frac(Outcome::Power)
        );
        println!(
            "csv,{label},{base},{:.3},{:.3},{:.3},{:.3},{:.3}",
            frac(Outcome::NoChange),
            frac(Outcome::LowFreq),
            frac(Outcome::Error),
            frac(Outcome::Temp),
            frac(Outcome::Power)
        );
    }
    println!();
    println!("# paper shape: NoChange dominates for TS; NoChange+LowFreq cover ~50%+");
    println!("# of invocations everywhere; Temp cases are infrequent.");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
