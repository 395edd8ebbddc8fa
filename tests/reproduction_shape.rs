//! Shape tests against the paper's evaluation: a miniature version of the
//! Figures 10–12 campaign must reproduce the orderings §6 establishes.
//! (The full-scale protocol lives in the `eval-bench` binaries.)

use eval::prelude::*;

/// A small but meaningful campaign: 3 chips, 2 workloads (one int-heavy,
/// one fp/memory-heavy).
fn mini_campaign() -> Campaign {
    let mut c = Campaign::new(3);
    c.profile_budget = 4_000;
    c.workloads = vec![
        Workload::by_name("crafty").expect("exists"),
        Workload::by_name("swim").expect("exists"),
    ];
    c.training = TrainingBudget {
        examples: 60,
        ..TrainingBudget::default()
    };
    c
}

#[test]
fn figure10_shape_baseline_ts_asv_ordering() {
    let c = mini_campaign();
    let r = c
        .run_traced(&[Environment::TS, Environment::TS_ASV], &[Scheme::ExhDyn], Tracer::noop())
        .expect("campaign runs");

    // Baseline loses a large fraction of nominal frequency (paper: 22%).
    assert!(
        r.baseline.freq_rel > 0.6 && r.baseline.freq_rel < 0.9,
        "baseline freq_rel = {}",
        r.baseline.freq_rel
    );
    // NoVar is the 1.0 reference.
    assert!((r.novar.freq_rel - 1.0).abs() < 1e-9);

    let ts = r.cell(Environment::TS, Scheme::ExhDyn).expect("cell");
    let asv = r.cell(Environment::TS_ASV, Scheme::ExhDyn).expect("cell");
    // Timing speculation recovers a good chunk; ASV recovers more.
    assert!(ts.freq_rel > r.baseline.freq_rel + 0.05);
    assert!(asv.freq_rel > ts.freq_rel + 0.03);
    // Performance follows the same ordering with smaller magnitude.
    assert!(asv.perf_rel > ts.perf_rel);
    assert!(
        (asv.perf_rel - ts.perf_rel) < (asv.freq_rel - ts.freq_rel) + 1e-9,
        "performance deltas are damped versions of frequency deltas"
    );
}

#[test]
fn figure12_shape_power_ordering_and_cap() {
    let c = mini_campaign();
    let r = c
        .run_traced(&[Environment::TS_ASV], &[Scheme::ExhDyn], Tracer::noop())
        .expect("campaign runs");
    let asv = r.cell(Environment::TS_ASV, Scheme::ExhDyn).expect("cell");
    // Baseline runs slower, hence cooler and cheaper than NoVar.
    assert!(r.baseline.power_w < r.novar.power_w);
    // Mitigation spends power, but never past PMAX.
    assert!(asv.power_w > r.novar.power_w);
    assert!(asv.power_w <= c.config.constraints.p_max_w + 1e-6);
}

#[test]
fn fuzzy_dyn_tracks_exh_dyn() {
    // Fidelity needs the real training budget (the mini one elsewhere
    // trades accuracy for test speed).
    let mut c = mini_campaign();
    c.training = TrainingBudget::default();
    let r = c
        .run_traced(&[Environment::TS_ASV], &[Scheme::FuzzyDyn, Scheme::ExhDyn], Tracer::noop())
        .expect("campaign runs");
    let fz = r.cell(Environment::TS_ASV, Scheme::FuzzyDyn).expect("cell");
    let ex = r.cell(Environment::TS_ASV, Scheme::ExhDyn).expect("cell");
    // "The difference between using a fuzzy adaptation scheme instead of
    // exhaustive search is practically negligible" (§6.2).
    assert!(
        (fz.freq_rel - ex.freq_rel).abs() < 0.08,
        "fuzzy {} vs exhaustive {}",
        fz.freq_rel,
        ex.freq_rel
    );
    assert!((fz.perf_rel - ex.perf_rel).abs() < 0.06);
    // Fuzzy must also respect the power budget.
    assert!(fz.power_w <= c.config.constraints.p_max_w + 1e-6);
}

#[test]
fn static_is_conservative() {
    let c = mini_campaign();
    let r = c
        .run_traced(&[Environment::TS_ASV], &[Scheme::Static, Scheme::ExhDyn], Tracer::noop())
        .expect("campaign runs");
    let st = r.cell(Environment::TS_ASV, Scheme::Static).expect("cell");
    let dy = r.cell(Environment::TS_ASV, Scheme::ExhDyn).expect("cell");
    assert!(
        dy.freq_rel >= st.freq_rel,
        "dynamic {} must be at least static {}",
        dy.freq_rel,
        st.freq_rel
    );
}

#[test]
fn outcomes_cover_the_figure13_vocabulary() {
    let c = mini_campaign();
    let r = c
        .run_traced(&[Environment::TS_ASV], &[Scheme::ExhDyn], Tracer::noop())
        .expect("campaign runs");
    let cell = r.cell(Environment::TS_ASV, Scheme::ExhDyn).expect("cell");
    assert!(cell.outcomes.total() > 0);
    let covered: f64 = Outcome::ALL
        .iter()
        .map(|o| cell.outcomes.fraction(*o))
        .sum();
    assert!((covered - 1.0).abs() < 1e-9, "fractions must sum to 1");
}
