//! Cross-crate integration tests: chips flow from the variation substrate
//! through timing/power into the adaptation layer, and the paper's core
//! orderings hold end to end.

use eval::prelude::*;

fn config() -> EvalConfig {
    EvalConfig::micro08()
}

#[test]
fn novar_chip_is_rated_at_nominal_frequency() {
    let cfg = config();
    let chip = ChipModel::no_variation(&cfg);
    for core_idx in 0..4 {
        let fvar = chip.core(core_idx).fvar_nominal(&cfg).get();
        assert!(
            (fvar - cfg.f_nominal_ghz).abs() / cfg.f_nominal_ghz < 0.02,
            "core {core_idx}: NoVar fvar = {fvar}"
        );
    }
}

#[test]
fn variation_costs_frequency_and_adaptation_wins_it_back() {
    let cfg = config();
    let factory = ChipFactory::new(cfg.clone());
    let chip = factory.chip(3);
    let core = chip.core(0);
    let fvar = core.fvar_nominal(&cfg).get();
    assert!(fvar < cfg.f_nominal_ghz, "variation must cost frequency");

    let w = Workload::by_name("gzip").expect("exists");
    let profile = profile_workload(&w, 4_000, 3);
    let d = OptimizerController::new("exhaustive", &ExhaustiveOptimizer::new()).decide(
        &cfg,
        core,
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
        d.f_ghz > fvar,
        "adaptation ({}) must beat baseline ({fvar})",
        d.f_ghz
    );
    // And it must respect every constraint.
    assert!(d.evaluation.pe_per_instruction <= cfg.constraints.pe_max);
    assert!(d.evaluation.max_t_c <= cfg.constraints.t_max_c);
    assert!(d.evaluation.total_power_w <= cfg.constraints.p_max_w);
}

#[test]
fn environment_capability_ordering_holds_per_phase() {
    let cfg = config();
    let factory = ChipFactory::new(cfg.clone());
    let chip = factory.chip(8);
    let core = chip.core(0);
    let w = Workload::by_name("mesa").expect("exists");
    let profile = profile_workload(&w, 4_000, 8);
    let oracle = ExhaustiveOptimizer::new();
    let exh = OptimizerController::new("exhaustive", &oracle);
    let f_of = |env: Environment| {
        exh.decide(
            &cfg,
            core,
            env,
            &profile.phases[0],
            w.class,
            profile.rp_cycles,
            cfg.th_c,
            w.name,
            0,
            Tracer::noop(),
        )
        .f_ghz
    };
    let ts = f_of(Environment::TS);
    let asv = f_of(Environment::TS_ASV);
    assert!(asv >= ts - 1e-9, "ASV ({asv}) must not lose to TS ({ts})");
}

#[test]
fn perf_model_consumes_profiler_outputs_consistently() {
    let w = Workload::by_name("twolf").expect("exists");
    let profile = profile_workload(&w, 4_000, 1);
    for ph in &profile.phases {
        let m = PerfModel::new(
            ph.cpi_comp(eval::uarch::QueueSize::Full),
            ph.mr,
            ph.mp_ns,
            profile.rp_cycles,
        );
        // Error-free perf at 4 GHz is bounded by issue width * frequency.
        let bips = m.perf(4.0, 0.0);
        assert!(bips > 0.0 && bips < 12.0, "{}: {bips} BIPS", ph.index);
        // More errors never help.
        assert!(m.perf(4.0, 1e-3) <= bips);
    }
}

#[test]
fn area_cost_of_preferred_scheme_matches_figure_7d() {
    let a = AreaBreakdown::for_environment(&Environment::TS_ASV_Q_FU);
    assert!((a.total_pct() - 10.6).abs() < 1e-9);
}

#[test]
fn guardbanded_signoff_is_consistent_across_crates() {
    // The physical max frequency of a NoVar subsystem exceeds nominal by
    // exactly the guardband (to first order).
    let cfg = config();
    let chip = ChipModel::no_variation(&cfg);
    let core = chip.core(0);
    let cond = OperatingConditions::nominal();
    for s in core.subsystems() {
        let f_phys = s
            .timing(&VariantSelection::default())
            .max_frequency(&cond, s.design_pe())
            .get();
        let expect = cfg.f_nominal_ghz * (1.0 + eval::timing::DESIGN_GUARDBAND);
        assert!(
            (f_phys - expect).abs() / expect < 0.02,
            "{}: physical fmax {f_phys} vs expected {expect}",
            s.id()
        );
    }
}
