//! Related-work comparison (§7): EVAL vs dynamic pipeline retiming.
//!
//! "The performance gains from EVAL (40%) are larger than from dynamic
//! retiming (10–20%)" — this binary reproduces that comparison on a chip
//! population: worst-stage baseline, ReCycle-style time borrowing (10% of
//! the cycle), ideal (mean-stage) retiming, and the EVAL `TS+ASV` adapted
//! frequency, all relative to the no-variation nominal.
//!
//! Protocol knobs: `EVAL_CHIPS` (default 12).

use eval_adapt::{Controller, ExhaustiveOptimizer, OptimizerController};
use eval_bench::{chips_from_env, BadEnv};
use eval_core::{retime_core, ChipFactory, Environment, EvalConfig};
use eval_trace::Tracer;
use eval_uarch::{profile_workload, Workload};

fn main() -> Result<(), BadEnv> {
    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let chips = chips_from_env(12)?;

    let workload = Workload::by_name("gcc").expect("gcc exists");
    let profile = profile_workload(&workload, 6_000, 17);
    let oracle = ExhaustiveOptimizer::new();
    let exh = OptimizerController::new("exhaustive", &oracle);

    let mut sums = [0.0f64; 4]; // baseline, retimed, ideal, eval
    println!("# dynamic retiming vs EVAL ({chips} chips, workload {})", workload.name);
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>10}",
        "chip", "baseline", "retime(10%)", "retime(max)", "EVAL"
    );
    println!("csv,chip,baseline_rel,retimed_rel,ideal_rel,eval_rel");
    for (i, chip) in factory.population(1234, chips).enumerate() {
        let core = chip.core(0);
        let r = retime_core(&config, core, 0.10);
        // EVAL: slowest adapted phase (a bin must hold across the run).
        let f_eval = profile
            .phases
            .iter()
            .map(|ph| {
                exh.decide(
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
        let rel = |f: f64| f / config.f_nominal_ghz;
        let row = [
            rel(r.f_baseline_ghz),
            rel(r.f_retimed_ghz),
            rel(r.f_ideal_ghz),
            rel(f_eval),
        ];
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
        println!(
            "{i:>5} {:>10.3} {:>12.3} {:>12.3} {:>10.3}",
            row[0], row[1], row[2], row[3]
        );
        println!("csv,{i},{:.4},{:.4},{:.4},{:.4}", row[0], row[1], row[2], row[3]);
    }
    let n = chips as f64;
    println!();
    println!(
        "# means: baseline {:.3}, retimed {:.3} ({:+.0}%), ideal retiming {:.3} ({:+.0}%), \
         EVAL {:.3} ({:+.0}%)",
        sums[0] / n,
        sums[1] / n,
        100.0 * (sums[1] / sums[0] - 1.0),
        sums[2] / n,
        100.0 * (sums[2] / sums[0] - 1.0),
        sums[3] / n,
        100.0 * (sums[3] / sums[0] - 1.0)
    );
    println!("# paper: retiming recovers 10-20%; EVAL recovers far more.");
    Ok(())
}
