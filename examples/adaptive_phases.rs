//! The runtime loop of §4.3.2–4.3.3, end to end: the hardware BBV phase
//! detector watches the committed instruction stream; on a *new* phase the
//! fuzzy-controller routines run and pick a configuration (then retuning
//! trims it); on a *recurring* phase the saved configuration is reused at
//! almost no cost.
//!
//! Run with: `cargo run --release --example adaptive_phases`

use eval::adapt::{AdaptiveSystem, RuntimeEvent};
use eval::prelude::*;

fn main() {
    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let chip = factory.chip(5);
    let core = chip.core(0);

    let workload = Workload::by_name("equake").expect("equake exists");
    let profile = profile_workload(&workload, 6_000, 5);

    // Train the deployable controller once ("manufacturer-site training").
    println!("# training fuzzy controllers against the exhaustive oracle...");
    let fuzzy = FuzzyOptimizer::train(
        &config,
        &chip,
        0,
        Environment::TS_ASV,
        &TrainingBudget::default(),
        Tracer::noop(),
    );

    // The deployed system: detector + controller + configuration cache.
    let controller = OptimizerController::new("fuzzy", &fuzzy);
    let mut system = AdaptiveSystem::new(
        &config,
        core,
        &controller,
        Environment::TS_ASV,
        workload.class,
        profile.rp_cycles,
    )
    .with_detector(PhaseDetector::new(10_000, 200));

    println!("# interval-by-interval adaptation (equake)");
    let mut instructions = 0u64;
    let mut current_phase = 0usize;
    for insn in TraceGenerator::new(&workload, 5) {
        instructions += 1;
        // Which spec phase we are in — in hardware, the counter window
        // *is* this measurement.
        let mut consumed = 0;
        for (i, p) in workload.phases.iter().enumerate() {
            consumed += p.instructions;
            if instructions <= consumed {
                current_phase = i;
                break;
            }
        }
        let measured = profile.phases[current_phase].clone();
        match system.observe(insn.bb_id, move || measured) {
            Some(RuntimeEvent::Adapted(d)) => println!(
                "instr {instructions:>6}: NEW phase -> f = {:.2} GHz, PE = {:.1e}, \
                 P = {:.1} W, outcome {:?}",
                d.f_ghz, d.evaluation.pe_per_instruction, d.evaluation.total_power_w, d.outcome
            ),
            Some(RuntimeEvent::Reused(d)) => println!(
                "instr {instructions:>6}: seen phase  -> reuse saved config ({:.2} GHz)",
                d.f_ghz
            ),
            None => {}
        }
    }

    let stats = system.stats();
    println!(
        "# {} distinct phases; {} controller runs, {} config reuses, \
         {:.1} us total adaptation overhead over {} instructions",
        system.phases_seen(),
        stats.controller_runs,
        stats.config_reuses,
        system.overhead_us(),
        stats.instructions
    );
}
