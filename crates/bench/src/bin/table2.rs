//! Table 2: difference between the selections of the fuzzy controller and
//! `Exhaustive`, in absolute units and as a percentage of nominal, split by
//! subsystem type (memory / mixed / logic).
//!
//! Protocol knobs: `EVAL_CHIPS` (default 3 chips of fidelity probing),
//! `EVAL_QUERIES` (default 60 random scenes per chip and environment).

use eval_adapt::{fidelity_table, TrainingBudget};
use eval_bench::{chips_from_env, usize_from_env, BadEnv};
use eval_core::{Environment, EvalConfig};

fn main() -> Result<(), BadEnv> {
    let config = EvalConfig::micro08();
    let chips = chips_from_env(3)?;
    let queries = usize_from_env("EVAL_QUERIES", 1)?.unwrap_or(60);
    eprintln!("# fidelity: {chips} chips x {queries} scenes x 4 environments");

    let rows = fidelity_table(
        &config,
        &Environment::TABLE2,
        chips,
        queries,
        &TrainingBudget::default(),
        2008,
    );

    let nominal_mhz = config.f_nominal_ghz * 1e3;
    println!("# Table 2: |Fuzzy - Exhaustive| (mean absolute difference)");
    println!(
        "{:<14} {:<12} {:>16} {:>16} {:>16}",
        "param", "environment", "memory", "mixed", "logic"
    );
    println!("csv,param,environment,memory,mixed,logic");
    for row in &rows {
        let pct = |v: f64| format!("{:.0} ({:.1}%)", v, 100.0 * v / nominal_mhz);
        println!(
            "{:<14} {:<12} {:>16} {:>16} {:>16}",
            "freq (MHz)",
            row.env.name,
            pct(row.freq_mhz[0]),
            pct(row.freq_mhz[1]),
            pct(row.freq_mhz[2])
        );
        println!(
            "csv,freq_mhz,{},{:.1},{:.1},{:.1}",
            row.env.name, row.freq_mhz[0], row.freq_mhz[1], row.freq_mhz[2]
        );
    }
    for row in rows.iter().filter(|r| r.env.asv) {
        println!(
            "{:<14} {:<12} {:>16.1} {:>16.1} {:>16.1}",
            "Vdd (mV)", row.env.name, row.vdd_mv[0], row.vdd_mv[1], row.vdd_mv[2]
        );
        println!(
            "csv,vdd_mv,{},{:.1},{:.1},{:.1}",
            row.env.name, row.vdd_mv[0], row.vdd_mv[1], row.vdd_mv[2]
        );
    }
    for row in rows.iter().filter(|r| r.env.abb) {
        println!(
            "{:<14} {:<12} {:>16.1} {:>16.1} {:>16.1}",
            "Vbb (mV)", row.env.name, row.vbb_mv[0], row.vbb_mv[1], row.vbb_mv[2]
        );
        println!(
            "csv,vbb_mv,{},{:.1},{:.1},{:.1}",
            row.env.name, row.vbb_mv[0], row.vbb_mv[1], row.vbb_mv[2]
        );
    }
    println!();
    println!("# paper shape: frequency errors of ~135-450 MHz (3-11% of nominal),");
    println!("# Vdd errors of ~14-24 mV, Vbb errors of ~69-129 mV.");
    Ok(())
}
