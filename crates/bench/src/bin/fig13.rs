//! Figure 13: outcomes of the fuzzy-controller system — for each of the
//! four voltage environments (A: TS, B: TS+ABB, C: TS+ASV, D: TS+ABB+ASV)
//! and each microarchitecture-technique set (no opt / FU opt / Queue opt /
//! FU+Queue opt), the fraction of controller invocations ending in
//! NoChange, LowFreq, Error, Temp or Power.
//!
//! Protocol knobs: `EVAL_CHIPS` (default 8) and `EVAL_WORKLOADS`;
//! `--trace <path>` / `EVAL_TRACE` dumps the JSONL event stream (all 16
//! variant campaigns trace into one file). `--checkpoint <path>` gives
//! each variant campaign its own sidecar (`<path>.<variant>`); `--resume`
//! works only without `--trace`, because a single streamed trace file
//! cannot be reconciled across 16 independent campaigns.

use eval_adapt::{Campaign, CheckpointOptions, Outcome, Scheme};
use eval_bench::{chips_from_env, fail_chip_from_env, session_tracer, workloads_from_env, TraceSession};
use eval_core::Environment;

/// Lower-case alphanumeric slug for embedding a variant label in a path.
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_env()?;
    let base_ckpt = trace
        .as_ref()
        .and_then(TraceSession::checkpoint_options)
        .cloned();
    if let Some(opts) = &base_ckpt {
        if opts.resume && trace.as_ref().is_some_and(|s| s.trace_path().is_some()) {
            return Err(
                "fig13 streams 16 independent campaigns into one trace file, which cannot \
                 be reconciled on resume; use --checkpoint without --trace to resume"
                    .into(),
            );
        }
    }
    let mut campaign = Campaign::new(chips_from_env(8));
    campaign.workloads = workloads_from_env()?;
    campaign.fail_chip = fail_chip_from_env();
    eprintln!(
        "# campaign: {} chips x {} workloads x 16 environment variants (Fuzzy-Dyn)",
        campaign.chips,
        campaign.workloads.len()
    );

    let technique_sets: [(&str, bool, bool); 4] = [
        ("No opt", false, false),
        ("FU opt", true, false),
        ("Queue opt", false, true),
        ("FU+Queue opt", true, true),
    ];

    println!("# Figure 13: controller outcome mix (percent of invocations)");
    println!(
        "{:<14} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "techniques", "environment", "NoChange", "LowFreq", "Error", "Temp", "Power"
    );
    println!("csv,techniques,environment,nochange,lowfreq,error,temp,power");
    for (label, fu, queue) in technique_sets {
        for base in Environment::TABLE2 {
            let env = Environment {
                fu_replication: fu,
                queue,
                ..base
            };
            let result = match &base_ckpt {
                Some(opts) => {
                    let variant = CheckpointOptions {
                        path: format!("{}.{}-{}", opts.path.display(), slug(label), slug(base.name))
                            .into(),
                        resume: opts.resume,
                    };
                    campaign.run_checkpointed(
                        &[env],
                        &[Scheme::FuzzyDyn],
                        session_tracer(&trace),
                        &variant,
                    )?
                }
                None => campaign.run_traced(&[env], &[Scheme::FuzzyDyn], session_tracer(&trace))?,
            };
            for failure in &result.chips_failed {
                eprintln!(
                    "# WARNING: [{label}/{}] chip {} quarantined: {}",
                    base.name, failure.chip, failure.error
                );
            }
            let cell = result.cell(env, Scheme::FuzzyDyn).expect("cell exists");
            let frac = |o: Outcome| 100.0 * cell.outcomes.fraction(o);
            println!(
                "{:<14} {:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                label,
                base.name,
                frac(Outcome::NoChange),
                frac(Outcome::LowFreq),
                frac(Outcome::Error),
                frac(Outcome::Temp),
                frac(Outcome::Power)
            );
            println!(
                "csv,{label},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
                base.name,
                frac(Outcome::NoChange),
                frac(Outcome::LowFreq),
                frac(Outcome::Error),
                frac(Outcome::Temp),
                frac(Outcome::Power)
            );
        }
    }
    println!();
    println!("# paper shape: NoChange dominates for TS; NoChange+LowFreq cover ~50%+");
    println!("# of invocations everywhere; Temp cases are infrequent.");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
