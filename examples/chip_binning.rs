//! Speed binning under variation: the manufacturing-economics scenario the
//! paper's introduction motivates ("a higher-performing processor and/or a
//! cheaper manufacturing process — in short, a more cost-effective design").
//!
//! A population of chips is binned by shipping frequency twice: once
//! conventionally (worst-case clocked at `fvar`) and once with the EVAL
//! support enabled (timing speculation + per-subsystem ASV, adapted per
//! phase). The histogram shift is the business case.
//!
//! Run with: `cargo run --release --example chip_binning`

use eval::prelude::*;

fn main() {
    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let chips = 24;

    // A representative workload mix for binning.
    let workload = Workload::by_name("gcc").expect("gcc exists");
    let profile = profile_workload(&workload, 6_000, 7);
    let optimizer = ExhaustiveOptimizer::new();
    let controller = OptimizerController::new("exhaustive", &optimizer);

    let mut baseline_bins: Vec<f64> = Vec::new();
    let mut eval_bins: Vec<f64> = Vec::new();
    for chip in factory.population(99, chips) {
        let core = chip.core(0);
        baseline_bins.push(core.fvar_nominal(&config).get());
        // EVAL-adapted shipping frequency: the slowest phase's adapted f
        // (the bin must hold across the workload).
        let f_ship = profile
            .phases
            .iter()
            .map(|ph| {
                controller
                    .decide(
                        &config,
                        core,
                        Environment::TS_ASV,
                        ph,
                        workload.class,
                        profile.rp_cycles,
                        config.th_c,
                        workload.name,
                        ph.index as u64,
                        Tracer::noop(),
                    )
                    .f_ghz
            })
            .fold(f64::INFINITY, f64::min);
        eval_bins.push(f_ship);
    }

    let histogram = |name: &str, bins: &[f64]| {
        let edges = [2.8, 3.0, 3.2, 3.4, 3.6, 3.8, 4.0, 4.2, 4.4, 4.6, 4.8];
        println!("{name}:");
        for w in edges.windows(2) {
            let count = bins.iter().filter(|&&f| f >= w[0] && f < w[1]).count();
            println!(
                "  {:.1}-{:.1} GHz | {}{}",
                w[0],
                w[1],
                "#".repeat(count),
                if count == 0 { "" } else { &"" }
            );
        }
        let mean = bins.iter().sum::<f64>() / bins.len() as f64;
        println!("  mean shipping frequency: {mean:.2} GHz");
        mean
    };

    println!("# Speed bins over {chips} chips (workload: {})", workload.name);
    let base_mean = histogram("conventional binning (fvar)", &baseline_bins);
    println!();
    let eval_mean = histogram("EVAL binning (TS+ASV, per-phase adapted)", &eval_bins);
    println!();
    println!(
        "uplift: {:+.0}% mean shipping frequency at +{:.1}% area",
        100.0 * (eval_mean / base_mean - 1.0),
        AreaBreakdown::for_environment(&Environment::TS_ASV).total_pct()
    );
}
