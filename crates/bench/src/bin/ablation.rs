//! Ablations over the model's design choices (DESIGN.md §6/§8): how the
//! headline quantities respond to
//!
//! * the amount of variation (`sigma/mu` of `Vt`),
//! * the spatial-correlation range `phi`,
//! * the design guardband spent by timing speculation (reported, fixed at
//!   build time), and
//! * the fuzzy-controller rule count (accuracy vs the exhaustive oracle).
//!
//! Protocol knobs: `EVAL_CHIPS` (default 10 per configuration).

use eval_adapt::{
    fidelity_table, ExhaustiveOptimizer, GlobalDvfsOptimizer, Optimizer, SubsystemScene,
    TrainingBudget,
};
use eval_bench::{chips_from_env, BadEnv};
use eval_core::{
    ChipFactory, Environment, EvalConfig, SubsystemId, VariantSelection, N_SUBSYSTEMS,
};
use eval_fuzzy::TrainingConfig;

fn mean_fvar(config: &EvalConfig, chips: usize, seed: u64) -> f64 {
    let factory = ChipFactory::new(config.clone());
    factory
        .population(seed, chips)
        .map(|chip| chip.core(0).fvar_nominal(config).get() / config.f_nominal_ghz)
        .sum::<f64>()
        / chips as f64
}

fn main() -> Result<(), BadEnv> {
    let chips = chips_from_env(10)?;

    println!("# Ablation 1: variation amount (Vt sigma/mu) vs baseline frequency");
    println!("csv,vt_sigma_over_mu,mean_fvar_rel");
    for sigma in [0.03, 0.06, 0.09, 0.12] {
        let mut config = EvalConfig::micro08();
        config.variation.vt_sigma_over_mu = sigma;
        config.variation.leff_sigma_over_mu = sigma / 2.0;
        let f = mean_fvar(&config, chips, 42);
        println!("csv,{sigma:.2},{f:.4}");
    }
    println!("# paper setting: 0.09 -> ~0.78; more variation, lower baseline.");

    println!();
    println!("# Ablation 2: correlation range phi vs baseline frequency");
    println!("csv,phi,mean_fvar_rel");
    for phi in [0.1, 0.25, 0.5, 1.0] {
        let mut config = EvalConfig::micro08();
        config.variation.phi = phi;
        let f = mean_fvar(&config, chips, 43);
        println!("csv,{phi:.2},{f:.4}");
    }
    println!("# shorter range = more independent slow spots = slower worst stage.");

    println!();
    println!("# Ablation 3: fuzzy rule count vs frequency-selection error (TS+ASV)");
    println!("csv,rules,mem_err_mhz,mixed_err_mhz,logic_err_mhz");
    let config = EvalConfig::micro08();
    for rules in [9usize, 16, 25, 36] {
        let budget = TrainingBudget {
            examples: 220.max(rules * 8),
            config: TrainingConfig {
                rules,
                ..TrainingConfig::micro08()
            },
            seed: 7,
        };
        let rows = fidelity_table(&config, &[Environment::TS_ASV], 1, 40, &budget, 77);
        let r = &rows[0];
        println!(
            "csv,{rules},{:.0},{:.0},{:.0}",
            r.freq_mhz[0], r.freq_mhz[1], r.freq_mhz[2]
        );
    }
    println!("# paper setting: 25 rules 'give good results'.");

    println!();
    println!("# Ablation 4: fine-grain per-subsystem ASV vs whole-core DVFS (§7)");
    println!("csv,chip,f_global_rel,f_fine_rel");
    let factory = ChipFactory::new(config.clone());
    let exhaustive = ExhaustiveOptimizer::new();
    let (mut sum_g, mut sum_f) = (0.0, 0.0);
    for (i, chip) in factory.population(500, chips).enumerate() {
        let scenes: Vec<SubsystemScene<'_>> = SubsystemId::ALL
            .iter()
            .map(|id| SubsystemScene {
                state: chip.core(0).subsystem(*id),
                variants: VariantSelection::default(),
                th_c: config.th_c,
                alpha_f: 0.4,
                rho: 0.6,
                pe_budget: config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
                env: Environment::TS_ASV,
            })
            .collect();
        let (_, f_global) = GlobalDvfsOptimizer::best_shared_setting(&config, &scenes);
        let f_fine = scenes
            .iter()
            .map(|s| exhaustive.freq_max(&config, s))
            .fold(f64::INFINITY, f64::min);
        sum_g += f_global / config.f_nominal_ghz;
        sum_f += f_fine / config.f_nominal_ghz;
        println!(
            "csv,{i},{:.4},{:.4}",
            f_global / config.f_nominal_ghz,
            f_fine / config.f_nominal_ghz
        );
    }
    println!(
        "# means: global DVFS {:.3}, fine-grain ASV {:.3} ({:+.1}%)",
        sum_g / chips as f64,
        sum_f / chips as f64,
        100.0 * (sum_f / sum_g - 1.0)
    );
    println!("# fine-grain control is the paper's §7 advantage over whole-chip DVFS.");
    Ok(())
}
