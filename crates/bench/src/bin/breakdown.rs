//! Per-workload breakdown of the preferred scheme (TS+ASV+Q+FU, Fuzzy-Dyn)
//! — the per-application detail behind the Figure 10/11 averages.
//!
//! One Fuzzy-Dyn campaign over TS+ASV+Q+FU; each row is the workload's
//! cell of that campaign ([`eval_adapt::CampaignResult::workload_cells`]),
//! the suite means line its suite cell. Protocol knobs: `EVAL_CHIPS`
//! (default 6) and `EVAL_WORKLOADS`; `--trace <path>`, `--checkpoint`,
//! `--resume`, `--timing` and the postmortem bundles work as in every
//! other campaign binary (see `eval_bench::TraceSession`).

use eval_adapt::Scheme;
use eval_bench::{run_campaign, standard_campaign, TraceSession};
use eval_core::Environment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_cli()?;
    let campaign = standard_campaign(6)?;
    eprintln!(
        "# per-workload breakdown: {} chips x {} workloads (TS+ASV+Q+FU, Fuzzy-Dyn)",
        campaign.chips,
        campaign.workloads.len()
    );
    let (env, scheme) = (Environment::TS_ASV_Q_FU, Scheme::FuzzyDyn);
    let result = run_campaign(&campaign, &[env], &[scheme], &trace)?;
    let rows = result.workload_cells(env, scheme).expect("cell exists");
    println!(
        "{:<10} {:>9} {:>9} {:>9}",
        "workload", "freq_rel", "perf_rel", "power_W"
    );
    println!("csv,workload,freq_rel,perf_rel,power_w");
    for (workload, cell) in campaign.workloads.iter().zip(rows) {
        let name = workload.name;
        println!(
            "{name:<10} {:>9.3} {:>9.3} {:>9.1}",
            cell.freq_rel, cell.perf_rel, cell.power_w
        );
        println!(
            "csv,{name},{:.4},{:.4},{:.2}",
            cell.freq_rel, cell.perf_rel, cell.power_w
        );
    }
    let suite = result.cell(env, scheme).expect("cell exists");
    println!(
        "# suite means: freq {:.3}, perf {:.3}, power {:.1} W",
        suite.freq_rel, suite.perf_rel, suite.power_w
    );
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
