//! Quickstart: manufacture a variation-afflicted chip, see what the
//! variation costs, and let EVAL's high-dimensional dynamic adaptation win
//! it back.
//!
//! Run with: `cargo run --release --example quickstart`

use eval::prelude::*;

fn main() {
    let config = EvalConfig::micro08();

    // 1. Manufacture a chip: personalized systematic Vt/Leff maps.
    let factory = ChipFactory::new(config.clone());
    let chip = factory.chip(1);
    let core = chip.core(0);

    // 2. What does variation cost a conventionally clocked design?
    let fvar = core.fvar_nominal(&config).get();
    println!(
        "baseline (worst-case clocked): {:.2} GHz = {:.0}% of the {:.0} GHz nominal",
        fvar,
        100.0 * fvar / config.f_nominal_ghz,
        config.f_nominal_ghz
    );

    // 3. Profile a workload: per-phase CPI, miss rate, activity factors.
    let workload = Workload::by_name("swim").expect("swim exists");
    let profile = profile_workload(&workload, 8_000, 1);
    println!(
        "workload {}: {} phases, rp = {} cycles",
        workload.name,
        profile.phases.len(),
        profile.rp_cycles
    );

    // 4. Adapt each phase: frequency, per-subsystem ASV, structure choices.
    //    The controller here is the exhaustive oracle at the sensed
    //    heat-sink temperature; the workload name and phase index only
    //    label trace records.
    let optimizer = ExhaustiveOptimizer::new();
    let controller = OptimizerController::new("exhaustive", &optimizer);
    for phase in &profile.phases {
        let d = controller.decide(
            &config,
            core,
            Environment::TS_ASV_Q_FU,
            phase,
            workload.class,
            profile.rp_cycles,
            config.th_c,
            workload.name,
            phase.index as u64,
            Tracer::noop(),
        );
        println!(
            "phase {}: f = {:.2} GHz ({:+.0}% vs baseline), PE = {:.1e} err/inst, \
             P = {:.1} W, T = {:.1} C, outcome = {:?}",
            phase.index,
            d.f_ghz,
            100.0 * (d.f_ghz / fvar - 1.0),
            d.evaluation.pe_per_instruction,
            d.evaluation.total_power_w,
            d.evaluation.max_t_c,
            d.outcome
        );
    }

    // 5. And the bill: the area this support costs.
    let area = AreaBreakdown::for_environment(&Environment::TS_ASV_Q_FU);
    println!(
        "area overhead: {:.1}% of the processor (checker {:.1}%, replicas {:.1}%)",
        area.total_pct(),
        area.checker_pct,
        area.int_alu_replica_pct + area.fp_replica_pct
    );
}
