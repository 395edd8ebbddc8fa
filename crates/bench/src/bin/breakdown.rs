//! Per-workload breakdown of the preferred scheme (TS+ASV+Q+FU, Fuzzy-Dyn)
//! — the per-application detail behind the Figure 10/11 averages.
//!
//! Protocol knobs: `EVAL_CHIPS` (default 6) and `EVAL_WORKLOADS`.

use eval_adapt::Scheme;
use eval_bench::standard_campaign;
use eval_core::Environment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let campaign = standard_campaign(6)?;
    eprintln!(
        "# per-workload breakdown: {} chips x {} workloads (TS+ASV+Q+FU, Fuzzy-Dyn)",
        campaign.chips,
        campaign.workloads.len()
    );
    let rows = campaign.run_per_workload(Environment::TS_ASV_Q_FU, Scheme::FuzzyDyn)?;
    println!(
        "{:<10} {:>9} {:>9} {:>9}",
        "workload", "freq_rel", "perf_rel", "power_W"
    );
    println!("csv,workload,freq_rel,perf_rel,power_w");
    for (name, cell) in &rows {
        println!(
            "{name:<10} {:>9.3} {:>9.3} {:>9.1}",
            cell.freq_rel, cell.perf_rel, cell.power_w
        );
        println!(
            "csv,{name},{:.4},{:.4},{:.2}",
            cell.freq_rel, cell.perf_rel, cell.power_w
        );
    }
    let mean = |f: fn(&eval_adapt::CellResult) -> f64| {
        rows.iter().map(|(_, c)| f(c)).sum::<f64>() / rows.len() as f64
    };
    println!(
        "# suite means: freq {:.3}, perf {:.3}, power {:.1} W",
        mean(|c| c.freq_rel),
        mean(|c| c.perf_rel),
        mean(|c| c.power_w)
    );
    Ok(())
}
