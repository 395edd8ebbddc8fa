//! Fuzzy-vs-exhaustive fidelity (Table 2): mean absolute difference of the
//! frequency, `Vdd` and `Vbb` selections, split by subsystem type.

use eval_core::{
    ChipFactory, Environment, EvalConfig, SubsystemKind, VariantSelection, FREQ_LADDER,
    N_SUBSYSTEMS,
};
use eval_uarch::SubsystemId;
use eval_rng::ChaCha12Rng;
use eval_trace::Tracer;

use crate::exhaustive::ExhaustiveOptimizer;
use crate::fuzzy_ctl::{FuzzyOptimizer, TrainingBudget};
use crate::optimizer::{Optimizer, SubsystemScene};

/// One row of Table 2: mean |fuzzy − exhaustive| per subsystem type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityRow {
    /// The environment the controllers were trained for.
    pub env: Environment,
    /// Mean |Δf| in MHz, per subsystem kind `[memory, mixed, logic]`.
    pub freq_mhz: [f64; 3],
    /// Mean |ΔVdd| in mV (ASV environments; 0 otherwise).
    pub vdd_mv: [f64; 3],
    /// Mean |ΔVbb| in mV (ABB environments; 0 otherwise).
    pub vbb_mv: [f64; 3],
}

fn kind_slot(kind: SubsystemKind) -> usize {
    match kind {
        SubsystemKind::Memory => 0,
        SubsystemKind::Mixed => 1,
        SubsystemKind::Logic => 2,
    }
}

/// Measures fuzzy-controller fidelity against the exhaustive oracle over
/// `chips` chips and `queries` random sensed-input scenes per chip, for
/// each of the given environments (the paper uses TS, TS+ABB, TS+ASV and
/// TS+ABB+ASV — [`Environment::TABLE2`]).
pub fn fidelity_table(
    config: &EvalConfig,
    envs: &[Environment],
    chips: usize,
    queries: usize,
    training: &TrainingBudget,
    seed: u64,
) -> Vec<FidelityRow> {
    assert!(chips > 0 && queries > 0, "need work to measure");
    let factory = ChipFactory::new(config.clone());
    let oracle = ExhaustiveOptimizer::new();
    let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);

    envs.iter()
        .map(|&env| {
            let mut sum_f = [0.0; 3];
            let mut sum_vdd = [0.0; 3];
            let mut sum_vbb = [0.0; 3];
            let mut counts = [0usize; 3];
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xF1DE);
            for chip_idx in 0..chips {
                let chip = factory.chip(seed.wrapping_add(chip_idx as u64 * 0x51));
                let fuzzy = FuzzyOptimizer::train(config, &chip, 0, env, training, Tracer::noop());
                for _ in 0..queries {
                    let id = SubsystemId::from_index(rng.gen_range(0..N_SUBSYSTEMS));
                    let state = chip.core(0).subsystem(id);
                    let scene = SubsystemScene {
                        state,
                        variants: VariantSelection::default(),
                        th_c: rng.gen_range(48.0..70.0),
                        alpha_f: rng.gen_range(0.05..0.95),
                        rho: rng.gen_range(0.05..2.2),
                        pe_budget,
                        env,
                    };
                    let slot = kind_slot(state.descriptor().kind);
                    let f_exh = oracle.freq_max(config, &scene);
                    let f_fuz = fuzzy.freq_max(config, &scene);
                    sum_f[slot] += (f_fuz - f_exh).abs() * 1e3;
                    let f_core = FREQ_LADDER.floor(f_exh);
                    let (vdd_e, vbb_e) = oracle.power_settings(config, &scene, f_core);
                    let (vdd_f, vbb_f) = fuzzy.power_settings(config, &scene, f_core);
                    sum_vdd[slot] += (vdd_f - vdd_e).abs() * 1e3;
                    sum_vbb[slot] += (vbb_f - vbb_e).abs() * 1e3;
                    counts[slot] += 1;
                }
            }
            let mean = |sums: [f64; 3]| {
                let mut out = [0.0; 3];
                for i in 0..3 {
                    out[i] = if counts[i] == 0 {
                        0.0
                    } else {
                        sums[i] / counts[i] as f64
                    };
                }
                out
            };
            FidelityRow {
                env,
                freq_mhz: mean(sum_f),
                vdd_mv: mean(sum_vdd),
                vbb_mv: mean(sum_vbb),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_fuzzy::TrainingConfig;

    #[test]
    fn fuzzy_frequency_errors_are_a_few_percent_of_nominal() {
        let config = EvalConfig::micro08();
        let training = TrainingBudget {
            examples: 120,
            config: TrainingConfig {
                epochs: 4,
                ..TrainingConfig::micro08()
            },
            seed: 5,
        };
        let rows = fidelity_table(&config, &[Environment::TS_ASV], 1, 40, &training, 31);
        let row = &rows[0];
        for (k, err) in row.freq_mhz.iter().enumerate() {
            // Paper's Table 2 reports ~150-450 MHz (4-11% of nominal).
            assert!(*err < 600.0, "kind {k}: mean |df| = {err} MHz");
        }
        // Vbb is unused without ABB.
        assert!(row.vbb_mv.iter().all(|&v| v == 0.0));
    }
}
