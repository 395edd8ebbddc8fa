//! Reproducibility guarantees: everything from chip manufacturing to whole
//! campaigns is a deterministic function of its seeds, independent of
//! thread count.

use eval::prelude::*;

#[test]
fn campaign_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut c = Campaign::new(3);
        c.profile_budget = 3_000;
        c.workloads = vec![Workload::by_name("gzip").expect("exists")];
        c.threads = threads;
        c.run_traced(&[Environment::TS], &[Scheme::ExhDyn], Tracer::noop()).expect("campaign runs")
    };
    let serial = run(1);
    let chunked = run(3);
    assert_eq!(serial, chunked, "thread count must not change results");
}

#[test]
fn campaign_is_identical_across_invocations() {
    let run = || {
        let mut c = Campaign::new(2);
        c.profile_budget = 3_000;
        c.workloads = vec![Workload::by_name("mesa").expect("exists")];
        c
            .run_traced(&[Environment::TS_ASV], &[Scheme::Static], Tracer::noop())
            .expect("campaign runs")
    };
    assert_eq!(run(), run());
}

#[test]
fn fuzzy_training_is_deterministic_end_to_end() {
    let cfg = EvalConfig::micro08();
    let factory = ChipFactory::new(cfg.clone());
    let chip = factory.chip(4);
    let budget = TrainingBudget {
        examples: 50,
        ..TrainingBudget::default()
    };
    let a = FuzzyOptimizer::train(&cfg, &chip, 0, Environment::TS, &budget, Tracer::noop());
    let b = FuzzyOptimizer::train(&cfg, &chip, 0, Environment::TS, &budget, Tracer::noop());
    // Same queries, same answers.
    let profile = profile_workload(&Workload::by_name("gzip").expect("exists"), 3_000, 1);
    let scene_args = &profile.phases[0];
    let decide = |fuzzy: &FuzzyOptimizer| {
        OptimizerController::new("fuzzy", fuzzy).decide(
            &cfg,
            chip.core(0),
            Environment::TS,
            scene_args,
            WorkloadClass::Int,
            profile.rp_cycles,
            cfg.th_c,
            profile.name,
            0,
            Tracer::noop(),
        )
    };
    let d_a = decide(&a);
    let d_b = decide(&b);
    assert_eq!(d_a, d_b);
}

#[test]
fn different_seeds_give_different_chips_same_seed_same_chip() {
    let cfg = EvalConfig::micro08();
    let factory = ChipFactory::new(cfg);
    assert_eq!(factory.chip(100), factory.chip(100));
    assert_ne!(factory.chip(100), factory.chip(101));
}

#[test]
fn four_chip_population_is_bit_identical_across_runs() {
    // Stronger than `==`: compare the IEEE-754 bit patterns of every
    // reported number, so even a sign-of-zero or NaN-payload difference
    // between two identical runs would fail.
    let run = || {
        let mut c = Campaign::new(4);
        c.profile_budget = 3_000;
        c.workloads = vec![Workload::by_name("gzip").expect("exists")];
        c.training = TrainingBudget {
            examples: 60,
            ..TrainingBudget::default()
        };
        c.run_traced(&[Environment::TS_ASV], &[Scheme::FuzzyDyn, Scheme::ExhDyn], Tracer::noop())
            .expect("campaign runs")
    };
    let bits = |r: &CampaignResult| -> Vec<u64> {
        let mut v = vec![
            r.baseline.freq_rel.to_bits(),
            r.baseline.perf_rel.to_bits(),
            r.baseline.power_w.to_bits(),
            r.novar.freq_rel.to_bits(),
            r.novar.perf_rel.to_bits(),
            r.novar.power_w.to_bits(),
        ];
        for s in [Scheme::FuzzyDyn, Scheme::ExhDyn] {
            let cell = r.cell(Environment::TS_ASV, s).expect("cell exists");
            v.extend([
                cell.freq_rel.to_bits(),
                cell.perf_rel.to_bits(),
                cell.power_w.to_bits(),
            ]);
        }
        v
    };
    let a = run();
    let b = run();
    assert_eq!(
        bits(&a),
        bits(&b),
        "two runs over a 4-chip population must be bit-identical"
    );
}
