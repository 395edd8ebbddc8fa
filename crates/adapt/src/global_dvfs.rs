//! Coarse-grain comparator (§7): classic whole-core DVFS.
//!
//! Prior adaptive proposals applied one supply voltage to the whole core
//! ("the application of whole-chip ABB and DVFS"); EVAL's point is that
//! *fine-grain, per-subsystem* control plus global optimization does
//! better. This comparator restricts the search to a single shared `Vdd`
//! (no body bias), so the ablation and the §7 tests can quantify exactly
//! what the extra dimensionality buys.

use eval_core::{EvalConfig, FREQ_LADDER, VDD_LADDER};

use crate::optimizer::SubsystemScene;

/// Whole-core DVFS: one `(f, Vdd)` pair for the entire core, found by
/// [`GlobalDvfsOptimizer::best_shared_setting`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalDvfsOptimizer;

impl GlobalDvfsOptimizer {
    /// Scans the shared-voltage ladder and returns `(vdd, f_core)` with the
    /// highest core frequency: for each voltage, the core frequency is the
    /// minimum over all subsystem scenes of that subsystem's feasible
    /// maximum at that voltage.
    ///
    /// # Panics
    ///
    /// Panics if `scenes` is empty.
    pub fn best_shared_setting(
        config: &EvalConfig,
        scenes: &[SubsystemScene<'_>],
    ) -> (f64, f64) {
        assert!(!scenes.is_empty(), "need at least one subsystem scene");
        let mut best = (1.0, FREQ_LADDER.min);
        for vdd in VDD_LADDER.iter() {
            let mut fcore = f64::INFINITY;
            for scene in scenes {
                // Highest ladder frequency feasible at this shared voltage.
                let mut fmax = FREQ_LADDER.min;
                for i in (0..FREQ_LADDER.len()).rev() {
                    let f = FREQ_LADDER.at(i);
                    if f <= fmax {
                        break;
                    }
                    if scene.check(config, f, vdd, 0.0).is_some() {
                        fmax = f;
                        break;
                    }
                }
                fcore = fcore.min(fmax);
                if fcore <= FREQ_LADDER.min {
                    break;
                }
            }
            if fcore > best.1 {
                best = (vdd, fcore);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveOptimizer;
    use crate::optimizer::Optimizer;
    use crate::test_support::factory;
    use eval_core::{Environment, SubsystemId, VariantSelection, N_SUBSYSTEMS};

    fn scenes(chip: &eval_core::ChipModel) -> Vec<SubsystemScene<'_>> {
        let cfg = factory().config();
        SubsystemId::ALL
            .iter()
            .map(|id| SubsystemScene {
                state: chip.core(0).subsystem(*id),
                variants: VariantSelection::default(),
                th_c: cfg.th_c,
                alpha_f: 0.4,
                rho: 0.6,
                pe_budget: cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS),
                env: Environment::TS_ASV,
            })
            .collect()
    }

    #[test]
    fn shared_setting_is_feasible_for_every_subsystem() {
        let cfg = factory().config().clone();
        let chip = factory().chip(31);
        let sc = scenes(&chip);
        let (vdd, fcore) = GlobalDvfsOptimizer::best_shared_setting(&cfg, &sc);
        assert!(eval_core::VDD_LADDER.contains(vdd));
        for scene in &sc {
            assert!(
                scene.check(&cfg, fcore, vdd, 0.0).is_some(),
                "{} infeasible at shared setting",
                scene.state.id()
            );
        }
    }

    #[test]
    fn fine_grain_asv_beats_global_dvfs() {
        // The paper's §7 argument: per-subsystem control dominates a single
        // shared voltage, because slow subsystems need boost while fast
        // ones want savings.
        let cfg = factory().config().clone();
        let exhaustive = ExhaustiveOptimizer::new();
        let mut wins = 0;
        let mut ties = 0;
        for seed in [31, 32, 33, 34] {
            let chip = factory().chip(seed);
            let sc = scenes(&chip);
            let (_, f_global) = GlobalDvfsOptimizer::best_shared_setting(&cfg, &sc);
            let f_fine = sc
                .iter()
                .map(|s| exhaustive.freq_max(&cfg, s))
                .fold(f64::INFINITY, f64::min);
            if f_fine > f_global + 1e-9 {
                wins += 1;
            } else if (f_fine - f_global).abs() < 1e-9 {
                ties += 1;
            }
            assert!(
                f_fine + 1e-9 >= f_global,
                "fine-grain ({f_fine}) must never lose to global ({f_global})"
            );
        }
        assert!(wins + ties == 4);
        assert!(wins >= 1, "fine-grain should win somewhere");
    }
}
