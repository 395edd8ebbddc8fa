//! Fixtures shared by this crate's unit tests.

use std::sync::OnceLock;

use eval_core::{ChipFactory, EvalConfig};
use eval_fuzzy::TrainingConfig;

use crate::fuzzy_ctl::TrainingBudget;

/// One chip factory on the paper's configuration for every test.
pub(crate) fn factory() -> &'static ChipFactory {
    static F: OnceLock<ChipFactory> = OnceLock::new();
    F.get_or_init(|| ChipFactory::new(EvalConfig::micro08()))
}

/// A teacher budget small enough for unit tests.
pub(crate) fn small_budget() -> TrainingBudget {
    TrainingBudget {
        examples: 160,
        config: TrainingConfig {
            epochs: 3,
            ..TrainingConfig::micro08()
        },
        seed: 7,
    }
}
