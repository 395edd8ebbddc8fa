//! Failure-injection and boundary-condition tests: the adaptation stack
//! must stay inside the constraint envelope even under hostile conditions.

use eval::prelude::*;

fn decide_under(
    th_c: f64,
    env: Environment,
    alpha_scale: f64,
) -> (EvalConfig, eval::adapt::PhaseDecision) {
    let cfg = EvalConfig::micro08();
    let factory = ChipFactory::new(cfg.clone());
    let chip = factory.chip(77);
    let w = Workload::by_name("swim").expect("exists");
    let profile = profile_workload(&w, 4_000, 77);
    let mut phase = profile.phases[0].clone();
    for a in phase.activity.alpha_f.iter_mut() {
        *a = (*a * alpha_scale).clamp(0.0, 1.0);
    }
    let d = OptimizerController::new("exhaustive", &ExhaustiveOptimizer::new()).decide(
        &cfg,
        chip.core(0),
        env,
        &phase,
        w.class,
        profile.rp_cycles,
        th_c,
        w.name,
        0,
        Tracer::noop(),
    );
    (cfg, d)
}

#[test]
fn hot_heat_sink_still_respects_tmax() {
    // TH at its specification limit (70 C): much less thermal headroom,
    // but the decision must still satisfy every constraint.
    let (cfg, d) = decide_under(cfg_th_max(), Environment::TS_ASV, 1.0);
    assert!(d.evaluation.max_t_c <= cfg.constraints.t_max_c + 1e-9);
    assert!(d.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
    assert!(d.evaluation.total_power_w <= cfg.constraints.p_max_w + 1e-9);

    // And it costs frequency relative to a cool heat sink.
    let (_, cool) = decide_under(50.0, Environment::TS_ASV, 1.0);
    assert!(
        cool.f_ghz >= d.f_ghz,
        "cool {} must be at least hot {}",
        cool.f_ghz,
        d.f_ghz
    );
}

fn cfg_th_max() -> f64 {
    EvalConfig::micro08().constraints.th_max_c
}

#[test]
fn saturated_activity_is_survivable() {
    // Every subsystem at 100% activity: worst-case power density.
    let (cfg, d) = decide_under(60.0, Environment::TS_ASV, 100.0);
    assert!(d.evaluation.total_power_w <= cfg.constraints.p_max_w + 1e-9);
    assert!(d.evaluation.max_t_c <= cfg.constraints.t_max_c + 1e-9);
    assert!(d.f_ghz >= FREQ_LADDER.min);
}

#[test]
fn idle_phase_does_not_confuse_the_optimizer() {
    // Near-zero activity: almost no dynamic power, deep frequency headroom.
    let (cfg, d) = decide_under(60.0, Environment::TS_ASV, 0.01);
    assert!(d.f_ghz > 0.9 * cfg.f_nominal_ghz);
    assert!(d.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
}

#[test]
fn worst_chip_of_a_population_still_gains_from_adaptation() {
    let cfg = EvalConfig::micro08();
    let factory = ChipFactory::new(cfg.clone());
    // Find the slowest of 12 chips.
    let worst = factory
        .population(7, 12)
        .min_by(|a, b| {
            a.core(0)
                .fvar_nominal(&cfg).get()
                .total_cmp(&b.core(0).fvar_nominal(&cfg).get())
        })
        .expect("population non-empty");
    let fvar = worst.core(0).fvar_nominal(&cfg).get();
    let w = Workload::by_name("crafty").expect("exists");
    let profile = profile_workload(&w, 4_000, 7);
    let d = OptimizerController::new("exhaustive", &ExhaustiveOptimizer::new()).decide(
        &cfg,
        worst.core(0),
        Environment::TS_ASV,
        &profile.phases[0],
        w.class,
        profile.rp_cycles,
        cfg.th_c,
        w.name,
        0,
        Tracer::noop(),
    );
    assert!(
        d.f_ghz > fvar * 1.1,
        "even the worst chip ({fvar} GHz) should gain >10% ({} GHz)",
        d.f_ghz
    );
}

#[test]
fn checker_handles_error_storms() {
    // PE far beyond the constraint: the checker keeps recovering (albeit
    // at terrible performance), never corrupting its accounting.
    let core_cfg = eval::uarch::CoreConfig::micro08();
    let mut checker = Checker::micro08(&core_cfg);
    let n = 100_000;
    let extra = checker.check_window(n, 0.5, 1);
    assert!(extra > 0);
    let pe = checker.observed_pe();
    assert!((0.45..0.55).contains(&pe), "observed {pe}");
}

#[test]
fn retune_survives_malicious_settings() {
    // Maximum supply and forward bias everywhere: leakage inferno. Retune
    // must not panic and must end at a ladder frequency.
    let cfg = EvalConfig::micro08();
    let factory = ChipFactory::new(cfg.clone());
    let chip = factory.chip(13);
    let settings = vec![(1.2, 0.5); N_SUBSYSTEMS];
    let r = eval::adapt::retune(
        &cfg,
        chip.core(0),
        cfg.constraints.th_max_c,
        5.6,
        &settings,
        &[1.0; N_SUBSYSTEMS],
        &[1.0; N_SUBSYSTEMS],
        &VariantSelection::default(),
        Tracer::noop(),
    );
    assert!(FREQ_LADDER.contains(r.f_ghz));
    assert!(matches!(
        r.outcome,
        Outcome::Error | Outcome::Temp | Outcome::Power
    ));
}
